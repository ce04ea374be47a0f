"""Radar processing: CFAR detection, range/velocity estimation, delay-Doppler map,
and the closed-form CRLB / resolution expressions used as benchmarks.

Detection statistics
--------------------
Both statistics are normalized so their noise-only background is a zero-mean
complex Gaussian power with a known variance, making the CFAR threshold
chi_D = -noise_var * ln(P_FA) exact:

* preamble statistic: squared magnitude of the cross-correlation between the
  received stream and the transmitted preamble at the timing peak, divided by
  the template energy -> background variance sigma_cn^2, signal N * Es|h0|^2.
  The template is held in the preamble's block form (PreambleTemplate): two
  references, the shaped a_128 and b_128, and the 26 blocks' weights;
* CEF statistic: |h_hat[peak bin]|^2 -> background variance sigma_cn^2 / (2P)
  with P = 512.

Delay-Doppler map
-----------------
detect_targets_map returns one np.recarray of the structured dtype
MapDetection: delay_bin and doppler_bin (int64), range_m, velocity_mps and
power (float64), one record per kept cell in descending power.  A map with
no cell above the threshold gives a zero-length array.

Velocity
--------
estimate_velocity_moose returns the velocity in m/s.  It is unambiguous only
inside +-moose_ambiguity_limit(N_D, Ts, lambda) and aliases outside it, so the
velocity and trade-off benches refuse targets at or beyond that span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .airlink import SPEED_OF_LIGHT
from .dsp import RrcSpec, _first_peak, _folded_correlate, pulse_shape
from .frame import Preamble

__all__ = [
    "DelayDopplerMap",
    "MapDetection",
    "cfar_threshold",
    "PreambleTemplate",
    "matched_preamble_statistic",
    "estimate_range",
    "estimate_velocity_moose",
    "moose_ambiguity_limit",
    "build_delay_doppler_map",
    "detect_targets_map",
    "crlb_range",
    "crlb_velocity",
    "resolutions",
    "detection_probability",
]


def cfar_threshold(noise_var: float, pfa: float) -> float:
    """Threshold chi_D = -noise_var * ln(pfa) for an exponential background.

    ``noise_var`` is the variance of the complex Gaussian statistic background
    (post-correlation), not the raw stream variance.
    """
    if not noise_var > 0:   # NaN fails too
        raise ValueError(f"noise variance must be positive, got {noise_var}")
    if not (0 < pfa <= 1):
        raise ValueError("pfa must lie in (0, 1]")
    return -noise_var * np.log(pfa)


@dataclass(frozen=True, eq=False)
class PreambleTemplate:
    """A preamble template in block form, as the preamble searches correlate it.

    The template is T = sum_i sum_k blocks[k, i] refs[k] delayed by stride i
    samples, ``length`` samples long, and ``energy`` is sum |T|^2.  Build it
    with ``PreambleTemplate.of``.
    """

    refs: np.ndarray
    blocks: np.ndarray
    stride: int
    energy: float

    @classmethod
    def of(cls, preamble: Preamble, rrc: RrcSpec, symbol_rate: float) -> PreambleTemplate:
        """``preamble``'s waveform shaped at ``symbol_rate`` (``dsp.pulse_shape``,
        Q = rrc.oversample samples per symbol) in block form: the references are
        the shaped a_128 and b_128, the weights ``preamble.blocks`` and the stride
        128 Q.  Shaping is linear, so T is the whole shaped preamble; it is built
        here only for its energy, an elementwise sum rather than a BLAS dot,
        which would thread over its 27 008 samples.
        """
        whole, a, b = (pulse_shape(s, rrc, symbol_rate)
                       for s in (preamble.symbols, preamble.pair128.a, preamble.pair128.b))
        return cls(np.stack([a, b]), preamble.blocks, len(preamble.pair128) * rrc.oversample,
                   float(np.sum(whole.real**2 + whole.imag**2)))

    @property
    def length(self) -> int:
        return self.stride * (self.blocks.shape[1] - 1) + self.refs.shape[1]


def matched_preamble_statistic(
    rx: np.ndarray,
    template: PreambleTemplate,
    window: tuple[int, int],
) -> tuple[float, int]:
    """Preamble detection statistic: peak |cross-correlation|^2 / template energy.

    ``rx`` is the received stream and ``template`` the transmitted preamble
    at its rate; the statistic background on white noise of per-sample
    variance sigma^2 is an exponential with mean sigma^2, so
    cfar_threshold(sigma_cn^2, pfa) applies directly.  The peak is searched
    over every lag l in the window [lo, hi) of dsp's block-folded correlation
    (``dsp._folded_correlate``), the first lag winning a tie; a window with a lag
    at which the template does not fit inside the stream (``dsp._lag_read``),
    or a non-finite sample in the searched span, raises ValueError.  Returns
    (statistic, lag of the peak).
    """
    peak, c = _first_peak(_folded_correlate(rx, template.refs, template.blocks,
                                            template.stride, window))
    return float(np.abs(c) ** 2 / template.energy), window[0] + peak


def estimate_range(delay_symbols: float, ts: float) -> float:
    """Range from a round-trip delay estimate measured in symbol periods."""
    return SPEED_OF_LIGHT * (delay_symbols * ts) / 2.0


def moose_ambiguity_limit(n_d: int, ts: float, wavelength: float) -> float:
    """Largest unambiguous |velocity| for training spacing N_D: lambda/(4 N_D Ts)."""
    nu_max = 1.0 / (2.0 * n_d * ts)
    return wavelength * nu_max / 2.0


def estimate_velocity_moose(
    p,
    n_d: int,
    p_len: int,
    m: int,
    ts: float,
    wavelength: float,
) -> float:
    """Velocity estimate in m/s from repeated training blocks.

    ``p`` is the stacked training vector: M frames of P = p_len synchronized
    training samples each (length M * P).  ``n_d`` is the stream-domain
    spacing of the correlated blocks: the frame length K for multi-frame
    estimation, or the intra-STF repetition distance (512) for the
    single-frame mode, where correlation runs over the P - N_D valid offsets.
    Multi-frame pipelines typically pass per-frame matched-filter-compressed
    training (p_len = 1), which suppresses the correlator's |noise|^2
    self-term at low SCNR while leaving the angle formula unchanged.

    With M > 1 the angle is Kay's weighted phase average (IEEE Trans. ASSP
    37(12), 1989): sum_t w_t angle(sum_p blocks[t+1] conj(blocks[t])) with
    w_t = 1.5 M / (M^2 - 1) (1 - ((t - (M/2 - 1)) / (M/2))^2), t < M - 1,
    whose one weight at M = 2 is 1.  With M = 1 it is the Moose angle of the
    summed lag-N_D products.

    The estimate is exact on noiseless input for |nu| < 1/(2 N_D Ts) and
    aliases by multiples of 1/(N_D Ts) outside that span.
    """
    p = np.asarray(p, dtype=complex)
    if m < 1 or p_len < 1 or len(p) != m * p_len:
        raise ValueError("stacked vector length must equal M * P")
    if n_d < 1:
        raise ValueError(f"N_D must be at least one sample, got {n_d}")
    if m > 1:
        blocks = p.reshape(m, p_len)
        lag1 = np.angle(np.sum(blocks[1:] * np.conj(blocks[:-1]), axis=1))
        t = np.arange(m - 1)
        w = 1.5 * m / (m**2 - 1) * (1 - ((t - (m / 2 - 1)) / (m / 2)) ** 2)
        phase = np.dot(w, lag1)
    else:
        if n_d >= p_len:
            raise ValueError("single-frame mode needs N_D < P")
        phase = np.angle(np.sum(p[n_d:] * np.conj(p[:-n_d])))
    t_d = n_d * ts
    nu = float(phase / (2 * np.pi * t_d))
    return wavelength * nu / 2.0


@dataclass
class DelayDopplerMap:
    """Delay/Doppler grid from per-frame CEF channel estimates.

    Rows are the 512 delay bins (bin l <-> round-trip delay l * Ts); columns
    are M * Z Doppler bins covering +-1/(2 K Ts) after FFT shift.
    """

    grid: np.ndarray            # (512, M*Z) complex
    ts: float
    frame_period: float         # K * Ts
    zero_pad: int
    wavelength: float
    n_frames: int

    def doppler_axis_hz(self) -> np.ndarray:
        # padded-DFT bin j of an M-frame record at spacing K*Ts sits at
        # frequency j / (M * Z * K * Ts)
        n = self.grid.shape[1]
        return np.fft.fftshift(np.fft.fftfreq(n, d=self.frame_period))

    def velocity_axis_mps(self) -> np.ndarray:
        return self.doppler_axis_hz() * self.wavelength / 2.0

    def range_axis_m(self) -> np.ndarray:
        return np.arange(self.grid.shape[0]) * self.ts * SPEED_OF_LIGHT / 2.0


# delay rows per transform block of the map: two (block, M*Z) scratch buffers
# that stay cache-sized at the benches' M*Z
_MAP_BLOCK_ROWS = 16


def build_delay_doppler_map(
    h: np.ndarray,
    frame_len: int,
    zero_pad: int = 16,
    ts: float = 1 / 1.76e9,
    wavelength: float = SPEED_OF_LIGHT / 60e9,
) -> DelayDopplerMap:
    """Per-delay-bin DFT across frames of the channel-estimate matrix.

    ``h`` is M x 512 (frame-major), one row per frame of ``frame_len`` (K)
    symbols.  Each delay row is zero-padded to M * Z and transformed, then
    FFT-shifted so Doppler zero sits at the center column.  Requires M >= 2.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] < 2:
        raise ValueError("need an M x L matrix with M >= 2 frames")
    if zero_pad < 1:
        raise ValueError("zero_pad factor must be >= 1")
    if frame_len < 1:
        raise ValueError("frame_len must be >= 1")
    if not (ts > 0 and wavelength > 0):
        raise ValueError("ts and wavelength must be positive")
    m, rows = h.shape
    n = m * zero_pad
    # fftshift rolls by n // 2: spectrum bin j < n - n // 2 lands in column
    # j + n // 2, and the rest wrap round to the front
    half = n - n // 2
    # each block of delay rows is transformed in a zero-padded scratch buffer
    # whose tail stays zero, and its two halves go straight to their shifted
    # columns: no full-size zero fill and no rolled copy of the grid
    grid = np.empty((rows, n), dtype=complex)
    block = min(rows, _MAP_BLOCK_ROWS)
    padded = np.zeros((block, n), dtype=complex)
    spectrum = np.empty((block, n), dtype=complex)
    for r0 in range(0, rows, block):
        r1 = min(r0 + block, rows)
        b = r1 - r0
        padded[:b, :m] = h[:, r0:r1].T
        np.fft.fft(padded[:b], axis=1, out=spectrum[:b])
        grid[r0:r1, n // 2:] = spectrum[:b, :half]
        grid[r0:r1, :n // 2] = spectrum[:b, half:]
    return DelayDopplerMap(
        grid=grid,
        ts=ts,
        frame_period=frame_len * ts,
        zero_pad=zero_pad,
        wavelength=wavelength,
        n_frames=m,
    )


# one map detection: a record of the array detect_targets_map returns
MapDetection = np.dtype([
    ("delay_bin", np.int64),
    ("doppler_bin", np.int64),      # column in the shifted grid
    ("range_m", np.float64),
    ("velocity_mps", np.float64),
    ("power", np.float64),
])


def detect_targets_map(
    ddm: DelayDopplerMap,
    pfa: float,
    bin_noise_var: float,
) -> np.recarray:
    """Threshold the map at constant false-alarm rate and keep local maxima.

    ``bin_noise_var`` is the per-bin variance of the channel-estimate noise;
    a map cell built from an M-point DFT of such bins has background variance
    M * bin_noise_var.  A cell is kept when its power exceeds the threshold,
    is >= its lower-index neighbour and > its upper-index neighbour along
    each axis (Doppler wrapped, delay clipped: the first and last delay rows
    have one neighbour each).  On a plateau of equal cells along an axis
    only the last (highest-index) cell can be kept.

    Returns one ``np.recarray`` of dtype ``MapDetection``, one record per
    kept cell, sorted by descending power, ties in row-major (delay, Doppler)
    order; a map with no kept cell gives a zero-length array.
    """
    power = np.abs(ddm.grid, order="C")
    np.square(power, out=power)
    cell_var = ddm.n_frames * bin_noise_var
    chi = cfar_threshold(cell_var, pfa)

    # the neighbour tests compare shifted views of the flat row-major arrays,
    # which run contiguous, through one reused comparison buffer
    n = power.shape[1]
    is_peak = power > chi
    cmp = np.empty_like(is_peak)
    flat, flat_peak, flat_cmp = power.ravel(), is_peak.ravel(), cmp.ravel()
    # Doppler (axis 1) wraps: column 0's lower neighbour is the last column,
    # so the flat comparisons that straddle two rows are redone per column
    np.greater_equal(flat[1:], flat[:-1], out=flat_cmp[1:])
    np.greater_equal(power[:, 0], power[:, -1], out=cmp[:, 0])
    is_peak &= cmp
    np.greater(flat[:-1], flat[1:], out=flat_cmp[:-1])
    np.greater(power[:, -1], power[:, 0], out=cmp[:, -1])
    is_peak &= cmp
    # delay (axis 0) is clipped: a shift by one row of the flat arrays
    np.greater_equal(flat[n:], flat[:-n], out=flat_cmp[n:])
    flat_peak[n:] &= flat_cmp[n:]
    np.greater(flat[:-n], flat[n:], out=flat_cmp[:-n])
    flat_peak[:-n] &= flat_cmp[:-n]

    cells = np.flatnonzero(is_peak)
    p = flat[cells]
    order = np.argsort(-p, kind="stable")
    cells, p = cells[order], p[order]
    l_bin, d_bin = np.divmod(cells, n)
    return np.rec.fromarrays(
        [l_bin, d_bin, ddm.range_axis_m()[l_bin], ddm.velocity_axis_mps()[d_bin], p],
        dtype=MapDetection,
    )


# ----------------------------------------------------------------------------
# Closed-form benchmarks
# ----------------------------------------------------------------------------

# flat preamble spectrum: eta^2 = (2 pi)^2 / 12
_ETA2 = (2 * np.pi) ** 2 / 12


def crlb_range(scnr: float, p: int = 2048, bandwidth: float = 1.76e9,
               rolloff: float = 0.0) -> float:
    """Range-estimation CRLB in m^2: c^2 / (8 eta^2 W^2 P zeta).

    ``p`` is the number of preamble symbols integrated (2048 for the STF,
    1024 for the CEF pair, 3328 for the whole preamble); ``scnr`` is linear.
    The spectrum is a raised cosine of ``rolloff`` (0: flat), whose
    eta^2 = (2 pi)^2 (1/12 + rolloff^2 (1/4 - 2/pi^2)).
    """
    if not 0 < scnr < np.inf:   # NaN fails too
        raise ValueError(f"SCNR must be positive and finite (linear), got {scnr}")
    if p < 1:
        raise ValueError(f"P must be at least one symbol, got {p}")
    eta2 = _ETA2 + 4 * np.pi**2 * rolloff**2 * (1 / 4 - 2 / np.pi**2)
    return SPEED_OF_LIGHT**2 / (8 * eta2 * bandwidth**2 * p * scnr)


def crlb_velocity(
    scnr: float,
    mode: str = "single",
    p: int = 2048,
    m: int = 1,
    k: int = 0,
    ts: float = 1 / 1.76e9,
    wavelength: float = SPEED_OF_LIGHT / 60e9,
) -> float:
    """Velocity-estimation CRLB in (m/s)^2.

    mode="single":  6 lambda^2 / ((4 pi)^2 P^3 Ts^2 zeta), one frame's STF.
    mode="multi":   6 lambda^2 / ((4 pi)^2 (M P^3 + M^3 P K^2) Ts^2 zeta),
                    the large-M approximation for M frames of P training
                    symbols spaced K symbols apart.
    mode="exact":   Fisher-sum form: xi / (sum n^2 - (sum n)^2 / PM) over the
                    actual training positions n = k_i + m K, with
                    xi = (P M zeta + 1) / (2 P M zeta^2); converts the
                    angular-frequency bound through omega = 2 pi nu Ts and
                    v = lambda nu / 2.

    With M > 1 the training blocks must not overlap: K >= P.
    """
    if not 0 < scnr < np.inf:   # NaN fails too
        raise ValueError(f"SCNR must be positive and finite (linear), got {scnr}")
    if p < 1:
        raise ValueError(f"P must be at least one symbol, got {p}")
    if mode in ("multi", "exact") and m > 1 and k < p:
        raise ValueError(f"frames of K={k} symbols cannot hold P={p} training symbols each")
    if mode == "single":
        return 6 * wavelength**2 / ((4 * np.pi) ** 2 * p**3 * ts**2 * scnr)
    if mode == "multi":
        if m < 1 or k <= 0:
            raise ValueError("multi-frame mode needs M >= 1 and K > 0")
        denom = m * p**3 + m**3 * p * k**2
        return 6 * wavelength**2 / ((4 * np.pi) ** 2 * denom * ts**2 * scnr)
    if mode == "exact":
        if m < 1 or (m > 1 and k <= 0):
            raise ValueError("exact mode needs M >= 1 (and K > 0 when M > 1)")
        n = np.concatenate([mm * k + np.arange(p) for mm in range(m)]).astype(float)
        pm = p * m
        xi = (pm * scnr + 1) / (2 * pm * scnr**2)
        spread = np.sum(n**2) - np.sum(n) ** 2 / pm
        var_omega = xi / spread
        var_nu = var_omega / (2 * np.pi * ts) ** 2
        return (wavelength / 2) ** 2 * var_nu
    raise ValueError(f"unknown CRLB mode {mode!r}")


def resolutions(bandwidth: float, t_int: float, wavelength: float) -> tuple[float, float]:
    """(range resolution c/(2W), velocity resolution lambda/(2 T_int))."""
    if not all(0 < x < np.inf for x in (bandwidth, t_int, wavelength)):   # NaN fails too
        raise ValueError("arguments must be positive and finite")
    return SPEED_OF_LIGHT / (2 * bandwidth), wavelength / (2 * t_int)


def detection_probability(scnr: float, pfa: float, n_symbols: int) -> float:
    """Known-lag, known-phase, single-cell Pd of the coherent preamble statistic.

    The statistic is |sqrt(N zeta) + CN(0,1)|^2 against the exponential-tail
    threshold: Pd = Q_1(sqrt(2 N zeta), sqrt(-2 ln pfa)) (Marcum Q form).
    It is the detection bench's reference column, not a ceiling: the bench
    takes the max over its 49 searched lags against a per-cell threshold,
    so its Pd can sit above this one (0.8135 against 0.7852 at criterion
    5a's point).
    """
    if not 0 < scnr < np.inf:   # NaN fails too
        raise ValueError(f"SCNR must be positive and finite (linear), got {scnr}")
    if not (0 < pfa < 1):
        raise ValueError("pfa must lie in (0, 1)")
    from scipy.stats import ncx2   # loaded only by the runs that report pd_theory

    return float(ncx2.sf(-2 * np.log(pfa), 2, 2 * n_symbols * scnr))
