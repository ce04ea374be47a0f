"""Continuous-time layer: RRC pulse shaping and delays.

Oversampled streams are plain complex arrays on one clock: at rate
Q * symbol_rate, sample j sits at t = (j - span Q / 2) / (Q symbol_rate),
the start of the undelayed shaped stream, so symbol n's peak lies at
sample span Q / 2 + n Q.  TX and RX use the same unit-energy
root-raised-cosine filter, so the cascade is a Nyquist raised cosine:
symbol-spaced samples of the cascade vanish away from the peak up to the
truncation floor of the finite span.

A delayed echo is shaped directly at its delay: the integer-sample part
moves where it starts on the clock and the fractional part evaluates the
analytic RRC on a shifted grid, so no stream is ever resampled.  Echoes
are not streams of their own: apply_delay_doppler adds each one into a
received buffer the caller owns, phase by phase.

The package's two correlation kernels live here too: a direct first-maximum
search for the tens of lags of fine timing and detection, and one FFT
correlation for the thousands of lags of range timing and the sliding
Golay CEF correlator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as sp_fft

__all__ = [
    "RrcSpec",
    "rrc_taps",
    "rc_pulse",
    "pulse_shape",
    "apply_delay_doppler",
]


@dataclass(frozen=True)
class RrcSpec:
    """Root-raised-cosine filter parameters.

    The default span keeps the accumulated truncation ISI of the TX*RX
    cascade below 1e-3 per symbol on random data; shorter spans (e.g. 16)
    are usable but raise that floor a few-fold.
    """

    rolloff: float = 0.25
    span: int = 48          # filter length in symbols (even)
    oversample: int = 8     # samples per symbol Q

    def __post_init__(self):
        if not (0 < self.rolloff < 1):
            raise ValueError("rolloff must be in (0, 1)")
        if self.span < 2 or self.span % 2:
            raise ValueError("span must be an even integer >= 2")
        if self.oversample < 1:
            raise ValueError("oversample factor must be >= 1")

    @cached_property
    def energy(self) -> float:
        """Energy of the unshifted, unnormalized RRC taps, computed once per spec."""
        q = self.oversample
        n = self.span * q + 1
        return np.sum(_rrc_kernel((np.arange(n) - (n - 1) / 2) / q, self.rolloff) ** 2)


def _rrc_kernel(t: np.ndarray, beta: float) -> np.ndarray:
    """Root-raised-cosine impulse response on a time grid in symbol units."""
    out = np.empty_like(t, dtype=float)
    t = np.asarray(t, dtype=float)
    tiny = 1e-10
    zero = np.abs(t) < tiny
    sing = np.abs(np.abs(t) - 1 / (4 * beta)) < tiny
    rest = ~(zero | sing)

    out[zero] = 1 - beta + 4 * beta / np.pi
    out[sing] = (beta / np.sqrt(2)) * (
        (1 + 2 / np.pi) * np.sin(np.pi / (4 * beta))
        + (1 - 2 / np.pi) * np.cos(np.pi / (4 * beta))
    )
    tr = t[rest]
    num = np.sin(np.pi * tr * (1 - beta)) + 4 * beta * tr * np.cos(np.pi * tr * (1 + beta))
    den = np.pi * tr * (1 - (4 * beta * tr) ** 2)
    out[rest] = num / den
    return out


def rrc_taps(spec: RrcSpec, frac_shift: float = 0.0) -> np.ndarray:
    """Unit-energy RRC taps; ``frac_shift`` (in symbols) delays the kernel.

    With frac_shift = 0 the taps are symmetric about the center.  Every
    shift is scaled by the unshifted kernel's energy, so shifted variants
    keep its passband gain rather than being re-scaled individually.
    """
    q = spec.oversample
    n = spec.span * q + 1
    t = (np.arange(n) - (n - 1) / 2) / q - frac_shift
    return _rrc_kernel(t, spec.rolloff) / np.sqrt(spec.energy)


def rc_pulse(t_symbols, rolloff: float) -> np.ndarray:
    """Analytic raised-cosine (TX*RX cascade) response, peak 1 at t = 0."""
    t = np.asarray(t_symbols, dtype=float)
    out = np.sinc(t) * np.cos(np.pi * rolloff * t)
    den = 1 - (2 * rolloff * t) ** 2
    sing = np.abs(den) < 1e-10
    out = np.where(sing, np.pi / 4 * np.sinc(1 / (2 * rolloff)), out / np.where(sing, 1.0, den))
    return out


def _delayed_taps(spec: RrcSpec, rate: float, delay: float) -> tuple[int, np.ndarray]:
    """Split ``delay`` into its nearest whole number of samples at ``rate``
    and the RRC taps shifted by the remainder (at most half a sample)."""
    dly_samples = delay * rate
    int_shift = int(np.round(dly_samples))
    return int_shift, rrc_taps(spec, frac_shift=(dly_samples - int_shift) / spec.oversample)


def _polyphase(s: np.ndarray, taps: np.ndarray, q: int):
    """Yield (p, y_p) for p = 0..q-1, y_p the symbol-rate convolution of the
    symbols with taps[p::q]: sample m Q + p of the zero-stuffed stream
    convolved with the taps, without the stuffed zeros.

    Real and imaginary parts of complex symbols are convolved separately
    and joined into one complex y_p.  taps[0::q] is the longest phase; a
    shorter phase yields one sample fewer.
    """
    for p in range(q):
        sub = taps[p::q]
        y = np.convolve(s.real, sub)
        if np.iscomplexobj(s):
            re, y = y, np.empty(len(y), dtype=complex)
            y.real = re
            y.imag = np.convolve(s.imag, sub)
        yield p, y


def _checked_symbols(symbols) -> np.ndarray:
    """The symbols to shape as an array, refused when empty or not finite."""
    s = np.asarray(symbols)
    if s.size == 0:
        raise ValueError("no symbols to shape")
    if not np.isfinite(s).all():
        raise ValueError("symbols must be finite")
    return s


def pulse_shape(
    symbols,
    spec: RrcSpec,
    symbol_rate: float,
    delay: float = 0.0,
) -> np.ndarray:
    """Shape symbols with the TX RRC at rate Q * symbol_rate; they carry the amplitude.

    Returns (len(symbols) + span) Q samples.  ``delay`` (seconds) shifts the
    whole waveform: the samples start round(delay rate) samples after the
    clock's origin, where apply_delay_doppler adds the same echo, and the
    remainder (at most half a sample either way) is realized by evaluating
    the analytic RRC on a shifted grid, so synthesis is exact within the
    band-limited model.  Undelayed, the samples lie on the clock as they
    are.  The filter runs polyphase (see ``_polyphase``).
    """
    s = _checked_symbols(symbols)
    q = spec.oversample
    _, taps = _delayed_taps(spec, symbol_rate * q, delay)
    shaped = np.zeros(len(s) * q + len(taps) - 1, dtype=complex)
    for p, y in _polyphase(s, taps, q):
        shaped[p::q][: len(y)] = y
    return shaped


def _xcorr_peak(y: np.ndarray, template: np.ndarray,
                window: tuple[int, int]) -> tuple[int, complex]:
    """argmax_l |sum_n template*[n] y[l+n]|^2 over l in [window), first index wins.

    The direct search of fine timing and detection: at their few lags it beats an FFT.
    """
    lo, hi = window
    lo = max(lo, 0)
    hi = min(hi, len(y) - len(template) + 1)
    if hi <= lo:
        raise ValueError("search window too short for the template")
    seg = y[lo : hi + len(template) - 1]
    c = np.correlate(seg, template, mode="valid")
    # argmax returns the first maximum, or the first NaN: a non-finite sample
    # in the searched span leaves the peak non-finite
    peak = int(np.argmax(np.abs(c) ** 2))
    if not np.isfinite(c[peak]):
        raise ValueError("the searched span contains non-finite samples")
    return lo + peak, c[peak]


def _fft_correlate(x: np.ndarray, ref: np.ndarray, n_lags: int) -> np.ndarray:
    """c[..., l] = sum_k x[..., l + k] conj(ref[k]) for l < n_lags, along the last axis.

    The search of range timing and the sliding Golay correlator, at thousands
    of lags: one transform of n >= x.shape[-1] points, so the lags that fit,
    n_lags <= x.shape[-1] - len(ref) + 1, do not wrap; the product with
    ref's conjugate spectrum; an inverse in place.  A non-finite sample
    spreads to every lag of its row: a non-finite c[..., 0] raises ValueError.
    """
    n = sp_fft.next_fast_len(x.shape[-1], False)
    with np.errstate(invalid="ignore", over="ignore"):
        spec = sp_fft.fft(x, n, axis=-1)
        spec *= np.conj(sp_fft.fft(ref, n))
        c = sp_fft.ifft(spec, axis=-1, overwrite_x=True)[..., :n_lags]
    if not np.isfinite(c[..., 0]).all():
        raise ValueError("the correlated span contains non-finite samples")
    return c


def apply_delay_doppler(
    out: np.ndarray,
    symbols,
    spec: RrcSpec,
    symbol_rate: float,
    delay: float,
    doppler: float,
    gain: complex = 1.0,
) -> None:
    """Add one echo of the shaped symbols into ``out`` (stop-and-hop echo model).

    The echo is gain * x(t - delay) * exp(j 2 pi doppler t), where x is the
    RRC-shaped symbol stream; the symbols carry the amplitude (sqrt(Es)
    included).  ``out`` is a complex buffer on the clock at rate
    Q * symbol_rate, so the echo, shaped directly at its delay as by
    pulse_shape, starts at sample round(delay rate) and runs for
    (len(symbols) + span) Q samples; an echo that does not fit raises, as
    do non-finite symbols, delay, Doppler or gain.

    Echo sample j = Q m + p sits at t = t_e + j / rate, t_e its start time,
    so the Doppler ramp factors into a per-symbol term
    gain exp(w (t_e rate + Q m)) times a per-phase term exp(w p),
    w = j 2 pi doppler / rate.  Each polyphase output is scaled by its two
    terms and added straight into its strided slice of ``out``: no
    whole-stream temporary is made.
    """
    if not 0 <= delay < np.inf:
        raise ValueError(f"radar delays are finite and nonnegative, got {delay}")
    s = _checked_symbols(symbols)
    q = spec.oversample
    rate = symbol_rate * q
    if not abs(doppler) < rate / 2:
        raise ValueError("doppler exceeds the representable band")
    if not np.isfinite(gain):
        raise ValueError(f"echo gain must be finite, got {gain}")
    int_shift, taps = _delayed_taps(spec, rate, delay)
    n_rows = len(s) + spec.span
    if int_shift + n_rows * q > len(out):
        raise ValueError(f"an echo at sample {int_shift} runs past the "
                         f"{len(out)}-sample output buffer")
    half = (len(taps) - 1) // 2
    t0 = (int_shift - half) / rate
    w = 2j * np.pi * doppler / rate
    rows = gain * np.exp(w * (t0 * rate + q * np.arange(n_rows)))
    ph = np.exp(w * np.arange(q))
    for p, y in _polyphase(s, taps, q):
        ramp = rows[: len(y)] * ph[p]
        out[int_shift + p :: q][: len(y)] += np.multiply(y, ramp, out=ramp)
