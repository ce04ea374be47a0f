"""Preamble processing: symbol timing, fine timing, channel estimate.

The chain reuses a conventional SC PHY receiver's preamble pieces:

1. energy-based symbol synchronization over the oversampling phases,
2. fine timing from the amplitude peak of the full-preamble correlation,
3. CEF channel estimation through the complementary Golay correlator.

The radar is monostatic and knows when it transmitted, so the comm
receiver's coarse STF frame search is not needed: fine timing searches a
window around the expected echo lag.  Carrier frequency offset is assumed
perfectly compensated, so only target Doppler remains, and that is
deliberately left in the samples (it is the radar observable, estimated
downstream).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import RrcSpec, matched_filter, symbol_sample
from .frame import CEF_PEAK_BIN, DEFAULT_PREAMBLE, Preamble
from .golay import golay_pair_correlate

__all__ = [
    "TimingEstimate",
    "estimate_symbol_timing",
    "fine_timing_preamble",
    "estimate_channel_cef",
    "preamble_sync",
]

@dataclass(frozen=True)
class TimingEstimate:
    """Fine frame timing on the symbol-rate grid plus the fractional part."""

    fine_start: int
    phase: int            # chosen oversampling phase, 0..Q-1
    oversample: int

    def delay_symbols(self) -> float:
        """Unambiguous delay in symbol periods, integer plus sub-sample phase."""
        return self.fine_start + self.phase / self.oversample


def estimate_symbol_timing(y, spec: RrcSpec) -> int:
    """The oversampling phase maximizing symbol-spaced energy of a stream on the clock.

    The stream must contain at least a few STF repetitions.  When no phase
    stands out from the others (no signal, or Q = 1) phase 0 is reported; a
    non-finite sample among those read raises.
    """
    q = spec.oversample
    energies = np.empty(q)
    for phase in range(q):
        sym = symbol_sample(y, spec, phase)
        energies[phase] = np.mean(np.abs(sym) ** 2) if len(sym) else 0.0
    if not np.isfinite(energies).all():
        raise ValueError("stream contains non-finite samples")
    mean = energies.mean()
    if mean <= 0 or energies.max() / mean < 1.02:
        return 0
    return int(np.argmax(energies))


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
    # argmax returns the first maximum, or the first NaN: a non-finite sample
    # in the searched span leaves the peak non-finite
    peak = int(np.argmax(np.abs(c) ** 2))
    if not np.isfinite(c[peak]):
        raise ValueError("the searched span contains non-finite samples")
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
    rx,
    spec: RrcSpec,
    search: tuple[int, int],
    preamble: Preamble = DEFAULT_PREAMBLE,
) -> tuple[TimingEstimate, np.ndarray]:
    """Full receiver front end: matched filter, symbol sync, fine timing.

    Fine timing correlates the full preamble (fine_timing_preamble) over the
    symbol lags ``search`` = [lo, hi), the window around the expected echo.

    ``rx`` is an oversampled stream on dsp's clock.  Returns (timing,
    symbol-rate samples).  Sample k of the returned sequence sits at
    t = k Ts + phase Ts / Q.
    """
    mf = matched_filter(rx, spec)
    phase = estimate_symbol_timing(mf, spec)
    sym = symbol_sample(mf, spec, phase)
    fine, _ = fine_timing_preamble(sym, search, preamble)
    return TimingEstimate(fine, phase, spec.oversample), sym
