"""Preamble processing: range timing, fine timing, channel estimate.

The chain reuses a conventional SC PHY receiver's preamble pieces:

1. range timing: one FFT correlation of the oversampled stream with the
   shaped preamble, phase and lag searched jointly, refined by a parabola,
2. fine timing from the amplitude peak of the full-preamble correlation,
   searched over its few lags by dsp's block-folded correlator: the read
   is folded onto the preamble's 26 blocks of a_128 / b_128 and
   correlated with a and b alone; noise modelled on those matched outputs
   is added before the search,
3. CEF channel estimation through the complementary Golay correlator.

The sliding Golay correlator runs the same FFT correlation as range timing.

The radar is monostatic and knows when it transmitted, so the comm
receiver's coarse STF frame search is not needed: timing searches a
window around the expected echo lag.  Carrier frequency offset is assumed
perfectly compensated, so only target Doppler remains, and that is
deliberately left in the samples (it is the radar observable, estimated
downstream).
"""

from __future__ import annotations

import numpy as np

from .dsp import _conj_spectrum, _fft_correlate, _first_peak, _folded_correlate, _lag_read
from .frame import CEF_PEAK_BIN, DEFAULT_PREAMBLE, Preamble
from .golay import golay_pair_correlate

__all__ = [
    "preamble_delay",
    "fine_timing_preamble",
    "estimate_channel_cef",
]


def preamble_delay(rx, template: np.ndarray, window: tuple[int, int],
                   spectrum: np.ndarray | None = None) -> tuple[int, float]:
    """(lag, refined_lag) of the shaped preamble ``template`` in the oversampled ``rx``.

    One correlation searches phase and lag jointly over every lag of [lo, hi):
    lag is the first argmax of |c|, refined_lag the vertex of the parabola
    through |c| at lag - 1, lag, lag + 1 (lag on the window's edge).  Under 3
    lags, a lag leaving ``rx`` (``dsp._lag_read``) or a non-finite sample read
    raise ValueError.  ``spectrum``, the template's ``dsp._conj_spectrum`` at a
    length no shorter than the read rx[lo : hi + len(template) - 1], spares a
    caller searching many streams with one template its transform; by default
    it is computed at the read's length.
    """
    lo, hi = window
    if hi - lo < 3:
        raise ValueError("search window too short for the template")
    read = _lag_read(rx, window, len(template))
    if spectrum is None:
        spectrum = _conj_spectrum(template, len(read))
    mag = np.abs(_fft_correlate(read, spectrum, hi - lo))
    peak = int(np.argmax(mag))
    if not 0 < peak < len(mag) - 1:
        return lo + peak, float(lo + peak)
    a, b, d = mag[peak - 1 : peak + 2]
    return lo + peak, lo + peak + 0.5 * (a - d) / (a - 2 * b + d)


def fine_timing_preamble(y, window: tuple[int, int],
                         preamble: Preamble = DEFAULT_PREAMBLE,
                         noise: np.ndarray | None = None) -> tuple[int, complex]:
    """Fine timing against the full 3328-symbol preamble (STF and CEF jointly).

    Searches every lag of ``window`` for the first maximum of the full-preamble
    correlation c, computed by dsp's block-folded correlator
    (``dsp._folded_correlate``): the read is folded onto ``preamble.blocks``,
    the 26 blocks' weights, and correlated with the preamble's a_128 and
    b_128, so the whole preamble is never built.  ``noise``, one value per
    lag, is added to c before the search: a caller that models the noise on
    the matched outputs rather than on ``y`` passes it here.  A lag leaving
    ``y`` (``dsp._lag_read``) or a non-finite sample read raises ValueError.
    Returns (peak index, (correlation + noise) / preamble length) at the
    peak.
    """
    pair = preamble.pair128
    c = _folded_correlate(y, (pair.a, pair.b), preamble.blocks, len(pair), window)
    if noise is not None:
        c += noise
    peak, val = _first_peak(c)
    return window[0] + peak, val / len(preamble.symbols)


def estimate_channel_cef(y, start: int, *, gated: bool,
                         preamble: Preamble = DEFAULT_PREAMBLE) -> np.ndarray:
    """512-bin channel estimate from the CEF's (Gu_512, Gv_512) correlation.

    ``start`` is the expected position of Gu_512 in ``y``; bin 256 is the
    on-target bin for a target aligned to it, and a target d samples later
    peaks at bin 256 + d.

    ``gated`` has no default: the two modes read different spans and
    answer different questions.  gated=True is the standard's cyclic
    estimate: each 512-symbol field is correlated circularly, so a
    noiseless echo within 128 samples of ``start`` (its fields' cyclic
    prefixes) reads an exact delta.  gated=False slides [Gu Gv] over the
    stream, which keeps the noise floor uniform across bins for the map's
    wide delay span; a noiseless echo reads exact zeros within 128 bins of
    its peak and cross terms with the surrounding symbols beyond.  The
    sliding mode also takes stacked rows (..., L) and returns (..., 512):
    one estimate per row, e.g. per frame.

    Bins 0..511 are the lag window (start - 256, start + 256) of
    ``golay.golay_pair_correlate``: the gated mode reads y[start : start + 1024],
    the sliding mode y[..., start - 256 : start + 1279], and either read
    must lie inside the stream and be finite, or ValueError is raised.
    """
    window = (start - CEF_PEAK_BIN, start - CEF_PEAK_BIN + 512)
    gate = start if gated else None
    return golay_pair_correlate(y, preamble.cef_pair, window, gate=gate)
