"""Preamble processing: range timing, fine timing, channel estimate.

The chain reuses a conventional SC PHY receiver's preamble pieces:

1. range timing: one FFT correlation of the oversampled stream with the
   shaped preamble, phase and lag searched jointly, refined by a parabola,
2. fine timing from the amplitude peak of the full-preamble correlation,
   a direct search over its few lags,
3. CEF channel estimation through the complementary Golay correlator.

Both correlations are dsp's kernels; the sliding Golay correlator runs
the same FFT correlation as range timing.

The radar is monostatic and knows when it transmitted, so the comm
receiver's coarse STF frame search is not needed: timing searches a
window around the expected echo lag.  Carrier frequency offset is assumed
perfectly compensated, so only target Doppler remains, and that is
deliberately left in the samples (it is the radar observable, estimated
downstream).
"""

from __future__ import annotations

import numpy as np

from .dsp import _fft_correlate, _xcorr_peak
from .frame import CEF_PEAK_BIN, DEFAULT_PREAMBLE, Preamble
from .golay import golay_pair_correlate

__all__ = [
    "preamble_delay",
    "fine_timing_preamble",
    "estimate_channel_cef",
]


def preamble_delay(rx, template: np.ndarray, window: tuple[int, int]) -> tuple[int, float]:
    """(lag, refined_lag) of the shaped preamble ``template`` in the oversampled ``rx``.

    One correlation searches phase and lag jointly over the lags [lo, hi) at
    which the template fits: lag is the first argmax of |c|, refined_lag the
    vertex of the parabola through |c| at lag - 1, lag, lag + 1 (lag on the
    window's edge).  Under 3 lags, or a non-finite sample read, raise ValueError.
    """
    lo, hi = max(window[0], 0), min(window[1], len(rx) - len(template) + 1)
    if hi - lo < 3:
        raise ValueError("search window too short for the template")
    mag = np.abs(_fft_correlate(rx[lo : hi + len(template) - 1], template, hi - lo))
    peak = int(np.argmax(mag))
    if not 0 < peak < len(mag) - 1:
        return lo + peak, float(lo + peak)
    a, b, d = mag[peak - 1 : peak + 2]
    return lo + peak, lo + peak + 0.5 * (a - d) / (a - 2 * b + d)


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
