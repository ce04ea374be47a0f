"""Preamble processing: range timing, fine timing, channel estimate.

The chain reuses a conventional SC PHY receiver's preamble pieces:

1. range timing: one correlation of the oversampled stream with the shaped
   preamble, phase and lag searched jointly, refined by a parabola,
2. fine timing from the amplitude peak of the full-preamble correlation,
3. CEF channel estimation through the complementary Golay correlator.

The radar is monostatic and knows when it transmitted, so the comm
receiver's coarse STF frame search is not needed: timing searches a
window around the expected echo lag.  Carrier frequency offset is assumed
perfectly compensated, so only target Doppler remains, and that is
deliberately left in the samples (it is the radar observable, estimated
downstream).
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sp_fft

from .frame import CEF_PEAK_BIN, DEFAULT_PREAMBLE, Preamble
from .golay import golay_pair_correlate

__all__ = [
    "preamble_delay",
    "fine_timing_preamble",
    "estimate_channel_cef",
]


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
    seg = rx[lo : hi + len(template) - 1]
    # n >= len(seg), so the first hi - lo circular lags are the linear ones
    n = sp_fft.next_fast_len(len(seg), False)
    spec = sp_fft.fft(seg, n)
    spec *= np.conj(sp_fft.fft(template, n))
    mag = np.abs(sp_fft.ifft(spec, overwrite_x=True)[: hi - lo])
    peak = int(np.argmax(mag))   # a non-finite sample spreads to every lag
    if not np.isfinite(mag[peak]):
        raise ValueError("the searched span contains non-finite samples")
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
