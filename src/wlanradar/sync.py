"""Preamble processing: symbol timing, frame detection, fine timing, channel estimate.

The chain mirrors a conventional SC PHY receiver:

1. energy-based symbol synchronization over the oversampling phases,
2. coarse frame detection from the normalized STF autocorrelation plateau,
3. fine timing from the amplitude peak of the full-preamble correlation,
4. CEF channel estimation through the complementary Golay correlator.

Carrier frequency offset is assumed perfectly compensated; the radar is
monostatic so only target Doppler remains, and that is deliberately left in
the samples (it is the radar observable, estimated downstream).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import IqStream, RrcSpec, matched_filter, symbol_sample
from .frame import CEF_PEAK_BIN, DEFAULT_PREAMBLE, Preamble
from .golay import golay_pair_correlate

__all__ = [
    "DEFAULT_CHI2_STF",
    "TimingEstimate",
    "SymbolTiming",
    "estimate_symbol_timing",
    "stf_autocorr_metric",
    "detect_frame_start",
    "fine_timing_preamble",
    "estimate_channel_cef",
    "preamble_sync",
]

DEFAULT_CHI2_STF = 1.0 / 8.0   # squared STF detection threshold
COARSE_RUN_LENGTH = 128        # consecutive crossings confirming a frame
COARSE_FINE_SPAN = 3 * 128     # fine-search half window around the coarse start


@dataclass(frozen=True)
class SymbolTiming:
    """Fractional-delay estimate from the Q-phase energy search."""

    phase: int            # chosen oversampling phase, 0..Q-1
    oversample: int
    confident: bool

    @property
    def frac_of_ts(self) -> float:
        """Fraction of a symbol period, wrapped into [-0.5, 0.5)."""
        f = self.phase / self.oversample
        return f - 1.0 if f >= 0.5 else f


@dataclass(frozen=True)
class TimingEstimate:
    """Coarse/fine frame timing on the symbol-rate grid plus fractional part."""

    coarse_start: int | None
    fine_start: int
    symbol_timing: SymbolTiming

    @property
    def frac_of_ts(self) -> float:
        return self.symbol_timing.frac_of_ts

    def delay_symbols(self) -> float:
        """Unambiguous delay in symbol periods, integer plus sub-sample phase."""
        st = self.symbol_timing
        return self.fine_start + st.phase / st.oversample


def estimate_symbol_timing(y: IqStream, spec: RrcSpec, symbol_rate: float) -> SymbolTiming:
    """Pick the oversampling phase maximizing symbol-spaced energy.

    The stream must contain at least a few STF repetitions.  When no phase
    stands out from the others (no signal, or Q = 1) the low-confidence flag
    is set and phase 0 is reported.
    """
    q = spec.oversample
    if q == 1:
        return SymbolTiming(phase=0, oversample=1, confident=True)
    energies = np.empty(q)
    for phase in range(q):
        sym = symbol_sample(y, symbol_rate, phase)
        energies[phase] = np.mean(np.abs(sym) ** 2) if len(sym) else 0.0
    mean = energies.mean()
    if mean <= 0 or energies.max() / mean < 1.02:
        return SymbolTiming(phase=0, oversample=q, confident=False)
    return SymbolTiming(phase=int(np.argmax(energies)), oversample=q, confident=True)


def _moving_sum(x: np.ndarray, width: int) -> np.ndarray:
    c = np.cumsum(np.concatenate([[0.0 + 0.0j] if np.iscomplexobj(x) else [0.0], x]))
    return c[width:] - c[:-width]


def stf_autocorr_metric(y, p: int = 128, n_d: int = 128) -> np.ndarray:
    """Normalized STF autocorrelation |R1| for every lag where it is defined.

    Index l of the output corresponds to stream lag l + n_d + p - 1 (both
    correlation windows fully populated).  Values are bounded by 1.
    """
    y = np.asarray(y, dtype=complex)
    if len(y) < p + n_d:
        raise ValueError("input shorter than one correlation span")
    prod = y[n_d:] * np.conj(y[:-n_d])
    num = _moving_sum(prod, p)
    power = np.abs(y) ** 2
    e_new = _moving_sum(power[n_d:], p)
    e_old = _moving_sum(power[:-n_d], p)
    denom = np.sqrt(e_new * e_old)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(denom > 0, np.abs(num) / denom, 0.0)
    return r1


def detect_frame_start(
    y,
    chi2_stf: float = DEFAULT_CHI2_STF,
    run_length: int = COARSE_RUN_LENGTH,
) -> int | None:
    """Coarse frame start from the sustained |R1| crossing (None if undetected).

    Declares a frame once |R1| >= chi_STF holds for ``run_length`` consecutive
    lags and reports the first lag of that run.  Being a ratio of powers, the
    metric is invariant to any positive scaling of the input.
    """
    if not (0 < chi2_stf < 1):
        raise ValueError("chi^2_STF must lie in (0, 1)")
    r1 = stf_autocorr_metric(y)
    above = r1 >= np.sqrt(chi2_stf)
    count = 0
    for i, ok in enumerate(above):
        count = count + 1 if ok else 0
        if count >= run_length:
            first = i - run_length + 1
            return first + 2 * 128 - 1  # undo the metric's index offset
    return None


def _xcorr_peak(y: np.ndarray, template: np.ndarray,
                window: tuple[int, int]) -> tuple[int, complex]:
    """argmax_l |sum_n template*[n] y[l+n]|^2 over l in [window), first index wins.

    The one preamble peak search: fine timing and radar.matched_preamble_statistic.
    """
    lo, hi = window
    lo = max(lo, 0)
    hi = min(hi, len(y) - len(template) + 1)
    if hi <= lo:
        raise ValueError("search window too short for the template")
    seg = y[lo : hi + len(template) - 1]
    c = np.correlate(seg, template, mode="valid")
    peak = int(np.argmax(np.abs(c) ** 2))  # argmax returns the first maximum
    return lo + peak, c[peak]


def fine_timing_preamble(y, window: tuple[int, int],
                         preamble: Preamble = DEFAULT_PREAMBLE) -> tuple[int, complex]:
    """Fine timing against the full 3328-symbol preamble (STF and CEF jointly).

    Returns (peak index, correlation value normalized by the preamble length),
    which doubles as the input to preamble-based detection.
    """
    y = np.asarray(y, dtype=complex)
    template = preamble.symbols.astype(complex)
    idx, val = _xcorr_peak(y, template, window)
    return idx, val / len(template)


def estimate_channel_cef(y, start: int, gated: bool = True,
                         preamble: Preamble = DEFAULT_PREAMBLE) -> np.ndarray:
    """512-bin channel estimate from the CEF Golay pair correlation.

    ``start`` is the expected position of a_512 in ``y``; bin 256 is the
    on-target bin for a target aligned to it, and a target d samples later
    peaks at bin 256 + d.

    gated=True correlates the extracted a/b fields as isolated records, so
    the noiseless response is the complementary sum R_a + R_b: an exact
    delta at the peak bin and exact zeros elsewhere.  gated=False slides
    the concatenated [a b] over the full stream, which keeps the noise floor
    uniform across bins and supports the wide-delay-span use of the map
    processor at the cost of structured cross-term sidelobes from the
    surrounding preamble symbols.  The sliding mode also takes stacked rows
    (..., L) and returns (..., 512): one estimate per row, e.g. per frame.
    """
    y = np.asarray(y, dtype=complex)
    lags = start - CEF_PEAK_BIN + np.arange(512)
    gate = start if gated else None
    return golay_pair_correlate(y, preamble.pair512, lags=lags, gate=gate)


def preamble_sync(
    rx: IqStream,
    spec: RrcSpec,
    symbol_rate: float,
    chi2_stf: float = DEFAULT_CHI2_STF,
    search: tuple[int, int] | None = None,
    preamble: Preamble = DEFAULT_PREAMBLE,
) -> tuple[TimingEstimate | None, np.ndarray]:
    """Full receiver front end: matched filter, symbol sync, coarse+fine timing.

    Fine timing correlates the full preamble (fine_timing_preamble) over
    ``search``, or over +-384 symbols around the coarse start.

    Returns (timing, symbol-rate samples); timing is None when no frame was
    detected and no explicit search window was provided.  Sample k of the
    returned sequence sits at t = k Ts + phase Ts / Q on the stream clock.
    """
    mf = matched_filter(rx, spec, symbol_rate)
    st = estimate_symbol_timing(mf, spec, symbol_rate)
    sym = symbol_sample(mf, symbol_rate, st.phase)

    coarse = detect_frame_start(sym, chi2_stf)
    if coarse is None and search is None:
        return None, sym
    if search is None:
        search = (coarse - COARSE_FINE_SPAN, coarse + COARSE_FINE_SPAN)

    fine, _ = fine_timing_preamble(sym, search, preamble)
    return TimingEstimate(coarse, fine, st), sym
