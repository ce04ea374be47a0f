"""Continuous-time layer: RRC pulse shaping, matched filtering, delays.

All waveforms travel as IqStream (complex samples + rate + start time).
TX and RX use the same unit-energy root-raised-cosine filter, so the
cascade is a Nyquist raised cosine: symbol-spaced samples of the cascade
vanish away from the peak up to the truncation floor of the finite span.

A delayed echo is shaped directly at its delay: the integer-sample part
moves the stream's start time and the fractional part evaluates the
analytic RRC on a shifted grid, so no stream is ever resampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

__all__ = [
    "IqStream",
    "RrcSpec",
    "rrc_taps",
    "rc_pulse",
    "pulse_shape",
    "matched_filter",
    "apply_delay_doppler",
    "symbol_sample",
]


@dataclass
class IqStream:
    """Complex baseband sample record.

    ``t0`` is the time of samples[0]; sample j sits at t0 + j / rate.
    """

    samples: np.ndarray
    rate: float
    t0: float = 0.0

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("sample rate must be positive")
        self.samples = np.asarray(self.samples, dtype=complex)
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("stream contains non-finite samples")

    def __len__(self) -> int:
        return len(self.samples)

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.samples)) / self.rate


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

    With frac_shift = 0 the taps are symmetric about the center.
    """
    q = spec.oversample
    n = spec.span * q + 1
    t = (np.arange(n) - (n - 1) / 2) / q - frac_shift
    taps = _rrc_kernel(t, spec.rolloff)
    # normalize the unshifted kernel's energy so shifted variants keep the
    # same passband gain rather than being re-scaled individually
    ref = _rrc_kernel((np.arange(n) - (n - 1) / 2) / q, spec.rolloff)
    return taps / np.sqrt(np.sum(ref**2))


def rc_pulse(t_symbols, rolloff: float) -> np.ndarray:
    """Analytic raised-cosine (TX*RX cascade) response, peak 1 at t = 0."""
    t = np.asarray(t_symbols, dtype=float)
    out = np.sinc(t) * np.cos(np.pi * rolloff * t)
    den = 1 - (2 * rolloff * t) ** 2
    sing = np.abs(den) < 1e-10
    out = np.where(sing, np.pi / 4 * np.sinc(1 / (2 * rolloff)), out / np.where(sing, 1.0, den))
    return out


def pulse_shape(
    symbols,
    spec: RrcSpec,
    symbol_rate: float,
    delay: float = 0.0,
) -> IqStream:
    """Shape symbols with the TX RRC at rate Q * symbol_rate; they carry the amplitude.

    ``delay`` (seconds) shifts the whole waveform: its nearest whole number
    of samples moves t0, and the remainder (at most half a sample either
    way) is realized by evaluating the analytic RRC on a shifted grid, so
    synthesis is exact within the band-limited model.

    The filter runs polyphase: output sample m Q + p is the symbol-rate
    convolution of the symbols with taps[p::Q], sample m, which is what
    convolving the zero-stuffed stream with the taps gives, without the
    stuffed zeros.  Real and imaginary parts of complex symbols are shaped
    separately, each straight into its part of the output.

    The returned stream's time axis places symbol n's peak at t = n Ts + delay.
    """
    s = np.asarray(symbols)
    if s.size == 0:
        raise ValueError("no symbols to shape")
    q = spec.oversample
    rate = symbol_rate * q
    dly_samples = delay * rate
    int_shift = int(np.round(dly_samples))
    taps = rrc_taps(spec, frac_shift=(dly_samples - int_shift) / q)

    # taps[0::q] is the longest phase and fills the buffer; a shorter phase
    # leaves its last sample zero
    shaped = np.zeros(len(s) * q + len(taps) - 1, dtype=complex)
    parts = [(shaped.real, s.real)]
    if np.iscomplexobj(s):
        parts.append((shaped.imag, s.imag))
    for out, x in parts:
        for p in range(q):
            phase = np.convolve(x, taps[p::q])
            out[p::q][: len(phase)] = phase
    half = (len(taps) - 1) // 2
    t0 = (int_shift - half) / rate
    return IqStream(shaped, rate, t0)


def matched_filter(y: IqStream, spec: RrcSpec, symbol_rate: float | None = None) -> IqStream:
    """Convolve with the RX RRC; group delay folded into t0 so time is preserved."""
    if symbol_rate is not None:
        if abs(y.rate - symbol_rate * spec.oversample) > 1e-6 * y.rate:
            raise ValueError(
                f"stream rate {y.rate} is not oversample={spec.oversample} "
                f"times the symbol rate {symbol_rate}"
            )
    taps = rrc_taps(spec)
    out = fftconvolve(y.samples, taps)
    half = (len(taps) - 1) // 2
    return IqStream(out, y.rate, y.t0 - half / y.rate)


def apply_delay_doppler(
    symbols,
    spec: RrcSpec,
    symbol_rate: float,
    delay: float,
    doppler: float,
    gain: complex = 1.0,
) -> IqStream:
    """One echo of the shaped symbols (stop-and-hop echo model).

    out(t) = gain * x(t - delay) * exp(j 2 pi doppler t), where x is the
    RRC-shaped symbol stream; the echo is shaped directly at its delay by
    pulse_shape and carries its own time axis.  The symbols carry the
    amplitude (sqrt(Es) included).

    Sample j = Q m + p sits at t = t0 + j / rate, so the Doppler ramp
    factors into a per-symbol term gain exp(w (t0 rate + Q m)) times a
    per-phase term exp(w p), w = j 2 pi doppler / rate: an outer product
    of (n / Q) by Q exponentials, multiplied into the echo in place (the
    shaped stream holds n = (len(symbols) + span) Q samples).
    """
    if delay < 0:
        raise ValueError("radar delays are nonnegative")
    rate = symbol_rate * spec.oversample
    if abs(doppler) >= rate / 2:
        raise ValueError("doppler exceeds the representable band")
    out = pulse_shape(symbols, spec, symbol_rate, delay=delay)
    q, n = spec.oversample, len(out)
    w = 2j * np.pi * doppler / rate
    rows = gain * np.exp(w * (out.t0 * rate + q * np.arange(n // q)))
    out.samples *= np.outer(rows, np.exp(w * np.arange(q))).ravel()
    return out


def symbol_sample(y: IqStream, symbol_rate: float, phase: int = 0) -> np.ndarray:
    """Decimate an oversampled stream to symbol rate at the given phase.

    Sample n of the output is taken at t = n Ts + phase / rate, i.e. phase
    counts oversampled ticks in 0..Q-1; instants before a stream that starts
    after t = 0 read as zeros.  With Q = 1 this is the identity.
    """
    q = int(round(y.rate / symbol_rate))
    if abs(y.rate - q * symbol_rate) > 1e-6 * y.rate:
        raise ValueError("stream rate is not an integer multiple of the symbol rate")
    if not (0 <= phase < q):
        raise ValueError(f"phase must lie in 0..{q - 1}")
    start = int(np.round((0 - y.t0) * y.rate)) + phase
    pad = max(-(start // q), 0)
    return np.concatenate([np.zeros(pad, complex), y.samples[start + pad * q :: q]])
