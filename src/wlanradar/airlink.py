"""Air interface: arrays, beams, path gains, channels, received-stream synthesis.

Conventions
-----------
* Steering vectors are unit-norm; the sqrt(N_TX * N_RX) channel scaling is
  carried explicitly so that E||H_com||_F^2 = N_TX * N_RX.
* Radar is monostatic: DoA = DoD per path, and the radar RX beam is the
  conjugate of the communication RX beam.
* Stop-and-hop: each echo keeps the delay it had at the start of the CPI;
  target motion enters purely as the Doppler phase ramp exp(j 2 pi nu t).
* Clutter-plus-noise is injected white at the synthesis rate with per-sample
  variance sigma_cn^2 (the synthesizers' ``sigma_cn2``: clutter is white like
  noise, so the two powers add), matching the symbol-rate noise term of the
  discrete received-signal model after unit-energy matched filtering.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .dsp import RrcSpec, apply_delay_doppler, rc_pulse

__all__ = [
    "SPEED_OF_LIGHT",
    "ArrayConfig",
    "Target",
    "LinkBudget",
    "BeamPair",
    "upa_steering",
    "dft_codebook",
    "select_beams",
    "beam_coupling",
    "comm_pathloss_gain",
    "rician_snr_draws",
    "radar_path_gain",
    "radar_coupling",
    "synthesize_radar_rx",
    "synthesize_radar_rx_symbol_rate",
    "link_budget_sweep",
]

SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform planar array; default is the 8x2 half-wavelength UPA."""

    n_horizontal: int = 8
    n_vertical: int = 2
    spacing: float = 0.5          # element pitch in wavelengths
    wavelength: float = SPEED_OF_LIGHT / 60e9

    def __post_init__(self):
        if self.n_horizontal < 1 or self.n_vertical < 1:
            raise ValueError("array needs at least one element per axis")
        if not (0 < self.spacing < np.inf and 0 < self.wavelength < np.inf):
            raise ValueError("spacing and wavelength must be positive and finite")

    @property
    def n_elements(self) -> int:
        return self.n_horizontal * self.n_vertical


@dataclass(frozen=True)
class Target:
    """Point target: geometry plus radar cross section."""

    range_m: float
    velocity_mps: float = 0.0     # radial, signed (positive = receding)
    rcs_dbsm: float = 10.0
    azimuth_deg: float = 90.0
    elevation_deg: float = 90.0

    def __post_init__(self):
        if not np.all(np.isfinite(astuple(self))):
            raise ValueError(f"target fields must be finite, got {self}")
        if self.range_m <= 0:
            raise ValueError("target range must be positive")

    def delay(self) -> float:
        """Round-trip delay 2 rho / c in seconds."""
        return 2.0 * self.range_m / SPEED_OF_LIGHT

    def doppler(self, wavelength: float) -> float:
        """Doppler shift 2 v / lambda in Hz."""
        return 2.0 * self.velocity_mps / wavelength


@dataclass(frozen=True)
class LinkBudget:
    """Link-budget knobs for the SNR/SCNR-versus-distance sweep."""

    eirp_dbm: float = 43.0        # regulatory ceiling; includes TX array gain
    noise_figure_db: float = 6.0
    pl_exponent: float = 2.0
    rician_k_db: float = 10.0

    def __post_init__(self):
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.eirp_dbm > 43.0:
            raise ValueError("EIRP above the 43 dBm regulatory maximum")


@dataclass(frozen=True)
class BeamPair:
    f_tx: np.ndarray
    f_rx: np.ndarray


def upa_steering(az_deg: float, el_deg: float, cfg: ArrayConfig) -> np.ndarray:
    """Unit-norm UPA steering vector; broadside is (90, 90) degrees.

    Horizontal phase progression follows cos(az) sin(el), vertical cos(el),
    on the half-wavelength grid; elements are flattened horizontal-major.
    """
    az = np.deg2rad(az_deg)
    el = np.deg2rad(el_deg)
    m = np.arange(cfg.n_horizontal)
    n = np.arange(cfg.n_vertical)
    ph = np.exp(2j * np.pi * cfg.spacing * m * np.cos(az) * np.sin(el))
    pv = np.exp(2j * np.pi * cfg.spacing * n * np.cos(el))
    return np.kron(ph, pv) / np.sqrt(cfg.n_elements)


def dft_codebook(cfg: ArrayConfig) -> np.ndarray:
    """DFT-based beam codebook covering the hemisphere, one codeword per row.

    Two codewords per element along each axis.
    """
    size_h = 2 * cfg.n_horizontal
    size_v = 2 * cfg.n_vertical
    m = np.arange(cfg.n_horizontal)
    n = np.arange(cfg.n_vertical)
    # row i * size_v + j is kron(wh_i, wv_j), elements horizontal-major
    wh = np.exp(2j * np.pi * m * (np.arange(size_h)[:, None] / size_h - 0.5))
    wv = np.exp(2j * np.pi * n * (np.arange(size_v)[:, None] / size_v - 0.5))
    words = wh[:, None, :, None] * wv[None, :, None, :]
    return words.reshape(size_h * size_v, cfg.n_elements) / np.sqrt(cfg.n_elements)


def select_beams(cfg: ArrayConfig, az_deg: float, el_deg: float) -> BeamPair:
    """Pick the TX/RX codeword pair maximizing coupling to the given direction.

    The communication RX array is assumed identical, so the same search gives
    f_RX,com; the radar RX beam is its conjugate (monostatic convention).
    """
    book = dft_codebook(cfg)
    a = upa_steering(az_deg, el_deg, cfg)
    gains = np.abs(book.conj() @ a)
    f_tx = book[int(np.argmax(gains))]
    f_rx_com = f_tx.copy()          # same codebook and direction at the RX side
    return BeamPair(f_tx=f_tx, f_rx=f_rx_com)


def beam_coupling(az_deg: float, el_deg: float, cfg: ArrayConfig,
                  beams: BeamPair, radar: bool) -> complex:
    """f_RX^* A(az, el) f_TX including the sqrt(N_TX N_RX) channel scale."""
    a = upa_steering(az_deg, el_deg, cfg)
    a_rx = np.conj(a) if radar else a
    f_rx = np.conj(beams.f_rx) if radar else beams.f_rx
    scale = cfg.n_elements  # sqrt(N_TX) * sqrt(N_RX) for identical arrays
    return scale * np.vdot(f_rx, a_rx) * np.vdot(beams.f_tx, a).conjugate()


def comm_pathloss_gain(range_m: float, wavelength: float, pl_exponent: float) -> float:
    """Close-in free-space reference (1 m) path-loss gain, lambda^2 / ((4 pi)^2 rho^PL)."""
    if range_m <= 0:
        raise ValueError("range must be positive")
    return wavelength**2 / ((4 * np.pi) ** 2 * range_m**pl_exponent)


def rician_snr_draws(mean_snr: float, rician_k_db: float, cfg: ArrayConfig, m: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Per-frame communication SNR over the beam-aligned Rician link, m draws.

    With both arrays steered at each other the beamformed channel is
    sqrt(K/(K+1)) N e^{j phi} + sqrt(1/(K+1)) CN(0,1): the LOS term at the
    full array gain N = N_TX = N_RX with a uniform phase phi, plus a
    unit-power diffuse part.  Each draw is mean_snr |h|^2 / E|h|^2, so the
    draws average to ``mean_snr``.  ``rng`` is read as uniform(m), then
    standard_normal(m) twice.
    """
    k_lin = 10 ** (rician_k_db / 10)
    n_el = cfg.n_elements
    los = np.sqrt(k_lin / (k_lin + 1)) * n_el * np.exp(
        2j * np.pi * rng.uniform(size=m)
    )
    scatter = np.sqrt(1 / (k_lin + 1)) * (
        rng.standard_normal(m) + 1j * rng.standard_normal(m)
    ) / np.sqrt(2)
    fade = np.abs(los + scatter) ** 2
    mean_fade = k_lin / (k_lin + 1) * n_el**2 + 1 / (k_lin + 1)
    return mean_snr * fade / mean_fade


def radar_path_gain(target: Target, wavelength: float) -> float:
    """Two-way large-scale gain G_p = lambda^2 sigma_RCS / (64 pi^3 rho^4)."""
    sigma = 10 ** (target.rcs_dbsm / 10)
    return wavelength**2 * sigma / (64 * np.pi**3 * target.range_m**4)


def radar_coupling(target: Target, cfg: ArrayConfig, beams: BeamPair,
                   beta_phase: float) -> complex:
    """Effective complex echo gain h_p = sqrt(G_p) beta_p f_RX,rad^* A_rad f_TX."""
    g = radar_path_gain(target, cfg.wavelength)
    beta = np.exp(1j * beta_phase)
    coupling = beam_coupling(
        target.azimuth_deg, target.elevation_deg, cfg, beams, radar=True
    )
    return np.sqrt(g) * beta * coupling


def _echo_gains(targets, cfg: ArrayConfig, beams: BeamPair | None,
                rng: np.random.Generator) -> list:
    """Each target's complex echo gain h_p, after one draw of the beta_p phases.

    With ``beams`` None the gains are beta_p alone (unit magnitude), for
    benches that pin the SCNR directly; otherwise they are radar_coupling.
    """
    phases = rng.uniform(0, 2 * np.pi, size=len(targets))
    if beams is None:
        return [np.exp(1j * phase) for phase in phases]
    return [radar_coupling(t, cfg, beams, phase) for t, phase in zip(targets, phases)]


def _add_noise(out: np.ndarray, sigma_cn2: float, rng: np.random.Generator) -> None:
    """Add white clutter-plus-noise of variance sigma_cn2 to ``out`` in place.

    Every real part is drawn first, in ``out``'s row-major order, then every
    imaginary part, into one real buffer of ``out``'s shape.  Zero variance
    draws nothing.
    """
    if sigma_cn2 == 0:
        return
    sigma = np.sqrt(sigma_cn2 / 2)
    noise = np.empty(out.shape)
    for part in (out.real, out.imag):
        rng.standard_normal(out=noise)
        noise *= sigma
        part += noise


def _matched_noise_factor(symbols, n_lags: int) -> np.ndarray:
    """Lower Cholesky factor L of R_s, the n_lags x n_lags Toeplitz matrix of
    the real ``symbols``' aperiodic autocorrelation R_s(d) = sum_k s_k s_{k+d}
    at lags d = 0 .. n_lags - 1.

    White noise of variance sigma^2 correlated with s at n_lags consecutive
    lags, sum_k s_k w[l + k], has covariance sigma^2 R_s: ``_matched_noise``
    draws it from L.  The lags are n_lags dot products, not the whole
    autocorrelation.  L is built column by column with matrix-vector
    products, not by LAPACK, whose level-3 calls touch a BLAS workspace
    that every forked worker would then carry.
    """
    s = np.asarray(symbols, dtype=float)
    r = np.array([s[: len(s) - d] @ s[d:] for d in range(n_lags)])
    d = np.arange(n_lags)
    r_s = r[np.abs(d[:, None] - d)]
    factor = np.zeros_like(r_s)
    for j in range(n_lags):
        col = r_s[j:, j] - factor[j:, :j] @ factor[j, :j]
        factor[j:, j] = col / np.sqrt(col[0])
    return factor


def _matched_noise(factor: np.ndarray, sigma_cn2: float, rng: np.random.Generator) -> np.ndarray:
    """Circular complex Gaussian noise of covariance sigma_cn2 factor factor^T:
    sqrt(sigma_cn2 / 2) factor (z_re + j z_im) for standard normal z, every
    real part drawn first, as ``_add_noise`` draws.  With the factor of
    ``_matched_noise_factor`` it is the noise of a matched filter's outputs
    at consecutive lags, drawn without the noise on its input."""
    n = len(factor)
    z = rng.standard_normal(2 * n)
    z *= np.sqrt(sigma_cn2 / 2)
    noise = np.empty(n, dtype=complex)
    # two matrix-vector products: a matrix product would be level-3 BLAS,
    # whose first call allocates a workspace in every worker
    noise.real = factor @ z[:n]
    noise.imag = factor @ z[n:]
    return noise


def synthesize_radar_rx(
    symbols,
    spec: RrcSpec,
    symbol_rate: float,
    targets,
    sigma_cn2: float,
    cfg: ArrayConfig,
    beams: BeamPair | None,
    rng: np.random.Generator,
    *,
    start: int,
    length: int,
) -> np.ndarray:
    """Delayed/Doppler-shifted echoes of the symbols plus clutter-and-noise,
    over the one window a receiver reads.

    The symbols carry the amplitude (sqrt(Es) included).  Each target
    contributes apply_delay_doppler(rx, symbols, spec, symbol_rate, tau_p,
    nu_p, h_p), shaped directly at its own delay, with h_p from the path
    gain, beam coupling and a per-CPI random unit-magnitude phase beta_p;
    with ``beams`` None, h_p is beta_p alone.

    Only the window a receiver reads is synthesized: the result is
    rx[start : start + length] on dsp's clock, as for
    ``synthesize_radar_rx_symbol_rate``.  The model holds at every sample,
    so a window may start below 0 or run past the echoes.  Only the symbols
    whose echoes reach the window are shaped: symbols[k0:k1], on a clock
    k0 symbols late, are the stream's echo from k0 Q samples on, whose
    Doppler ramp starts k0 Ts later.  They are added into one buffer that
    spans the window and the ends of those echoes, at most span Q samples
    before it and (span + 1) Q after it, and the window is returned.
    ``rng`` draws the phases, then the noise over the window alone: every
    real part, then every imaginary part.  With ``sigma_cn2`` 0 it draws the
    phases alone.
    """
    if not 0 <= sigma_cn2 < np.inf:   # NaN fails too
        raise ValueError(f"sigma_cn2 must be finite and >= 0, got {sigma_cn2}")
    if length < 1:
        raise ValueError(f"the read window must be nonempty, got length {length}")
    targets = list(targets)
    gains = _echo_gains(targets, cfg, beams, rng)
    q = spec.oversample
    # an echo that reaches the window starts at most span Q samples before
    # it and ends less than (span + 1) Q samples after it
    pad = spec.span * q
    out = np.zeros(pad + length + pad + q, dtype=complex)
    for t, h_p in zip(targets, gains):
        shift = int(np.round(t.delay() * symbol_rate * q))
        # symbol k's echo covers the samples shift + k Q .. shift + (k + span) Q,
        # so the symbols from ceil((start - shift) / Q) - span to before
        # ceil((start + length - shift) / Q) reach the window
        k0 = max(-((shift - start) // q) - spec.span, 0)
        k1 = min(-((shift - start - length) // q), len(symbols))
        if k1 > k0:
            nu = t.doppler(cfg.wavelength)
            apply_delay_doppler(out, symbols[k0:k1], spec, symbol_rate, t.delay(), nu,
                                h_p * np.exp(2j * np.pi * nu * k0 / symbol_rate),
                                start=start - pad - k0 * q)
    rx = out[pad : pad + length]
    _add_noise(rx, sigma_cn2, rng)
    return rx


def synthesize_radar_rx_symbol_rate(
    symbol_windows,
    spec: RrcSpec,
    symbol_rate: float,
    targets,
    sigma_cn2: float,
    cfg: ArrayConfig,
    beams: BeamPair | None,
    rng: np.random.Generator,
    *,
    starts,
    length: int,
    repeated: tuple[int, int] = (0, 0),
) -> np.ndarray:
    """Discrete symbol-rate received signal, the post-matched-filter model.

    Evaluates, per target,

        y[k] += h_p exp(j 2 pi nu_p k Ts) * x_g(k Ts - tau_p)

    with Ts = 1 / symbol_rate and x_g the symbol stream interpolated through
    the analytic TX*RX raised-cosine cascade of ``spec``'s rolloff, truncated
    to its span, then adds white clutter-plus-noise of per-sample variance
    sigma_cn^2.  The symbols carry the amplitude; h_p is drawn as in
    ``synthesize_radar_rx``.  This is the exact limit of the oversampled chain
    (shaping, delay, matched filter, synchronized symbol sampling), whose
    oversampling factor it does not read, and is used by the long-CPI benches
    where the full chain would be wasteful.

    Only the windows a receiver reads are synthesized: the result is the
    len(starts) x length matrix whose row r is y[starts[r] : starts[r] + length].
    The model holds at every k, so a window may start below 0 or run past
    the end of the stream.  Noise is drawn per row, so windows must not
    overlap.  ``symbol_windows(starts, length)`` returns the matching rows of
    the TX symbol stream, zero outside it (e.g. ``frame.assemble_cpi`` with
    its frame count, layout and seed bound); it is called once, for the
    symbols the echoes carry into the windows.

    ``repeated`` = (a, b) says that the symbols starts[r] + a ..
    starts[r] + b - 1 are the same in every window r, as the preamble that
    every frame of a CPI repeats; the default repeats nothing.  A target's
    columns whose span reads only those symbols are convolved once, from
    window 0, and carried to every row by its Doppler term; the columns at
    either end of a row are convolved from the row's own symbols, as without
    it.  The rows are the same up to rounding in the shared columns, from
    the same draws.

    Each target's echo is written into the result row by row, and later
    targets add theirs, so nothing else of the result's size is allocated
    besides one real noise buffer.  ``rng`` draws the echo phases, then the
    noise: every real part, row-major, then every imaginary part; with
    ``sigma_cn2`` 0 it draws the phases alone.  This draw order is part of
    the byte contract of the benches that call it.
    """
    if not 0 <= sigma_cn2 < np.inf:   # NaN fails too
        raise ValueError(f"sigma_cn2 must be finite and >= 0, got {sigma_cn2}")
    starts = np.asarray(starts, dtype=int)
    if length < 1 or np.any(np.diff(np.sort(starts)) < length):
        raise ValueError("read windows must be nonempty and must not overlap")
    targets = list(targets)
    gains = _echo_gains(targets, cfg, beams, rng)
    out = _symbol_rate_echoes(symbol_windows, spec, symbol_rate, targets, gains,
                              cfg.wavelength, starts, length, repeated)
    _add_noise(out, sigma_cn2, rng)
    return out


def _echo_start(target: Target, spec: RrcSpec, symbol_rate: float) -> tuple[float, int]:
    """(d, k0): the target's delay in symbols, and the first sample its
    symbol-rate echo of symbol 0 reaches.  Symbol i reaches the samples
    k0 + i .. k0 + i + span and peaks at k0 + i + span // 2."""
    d = target.delay() / (1.0 / symbol_rate)   # over Ts: the rows' bytes depend on the rounding
    return d, int(np.floor(d)) - spec.span // 2


def _symbol_rate_echoes(symbol_windows, spec: RrcSpec, symbol_rate: float, targets,
                        gains, wavelength: float, starts: np.ndarray, length: int,
                        repeated: tuple[int, int]) -> np.ndarray:
    """The rows of the targets' echoes h_p exp(j 2 pi nu_p k Ts) x_g(k Ts - tau_p),
    row r holding k = starts[r] .. starts[r] + length - 1; zeros without targets.

    ``symbol_windows`` is called once, for the symbols all the echoes carry
    into the rows.  The first target writes its rows, and each later one
    adds its own.
    """
    out = (np.empty if targets else np.zeros)((len(starts), length), dtype=complex)
    ts = 1.0 / symbol_rate
    span = spec.span
    half = span // 2
    a, b = repeated
    firsts = [_echo_start(t, spec, symbol_rate) for t in targets]
    # a row at lo reads the symbols lo - k0 - span .. lo + length - 1 - k0
    k_max = max((k0 for _, k0 in firsts), default=0)
    k_min = min((k0 for _, k0 in firsts), default=0)
    x = symbol_windows(starts - k_max - span, length + span + k_max - k_min)
    for p, (target, h_p, (d, k0)) in enumerate(zip(targets, gains, firsts)):
        kernel = rc_pulse(np.arange(-half, half + 1) - (d - (k0 + half)), spec.rolloff)
        # Doppler ramp at k = start + j, factored into per-row and per-column terms
        w = 2j * np.pi * target.doppler(wavelength) * ts
        row_terms = h_p * np.exp(w * starts)
        lo = k_max - k0
        # column j reads the symbols start + j - k0 - span .. start + j - k0, so
        # the columns mid_lo .. mid_hi - 1 read repeated symbols alone
        mid_lo = min(max(a + k0 + span, 0), length)
        mid_hi = max(min(b + k0, length), mid_lo)
        if mid_hi > mid_lo:   # convolved once, from window 0's symbols
            mid = _ramp(w, mid_lo, mid_hi) * np.convolve(
                x[0, lo + mid_lo : lo + mid_hi + span], kernel, "valid")
            if p:
                for row, term in zip(out, row_terms):
                    row[mid_lo:mid_hi] += term * mid
            else:
                np.multiply.outer(row_terms, mid, out=out[:, mid_lo:mid_hi])
        # the columns at either end, from each row's own symbols
        for j0, j1 in ((0, mid_lo), (mid_hi, length)):
            if j1 == j0:
                continue   # np.convolve would swap a read shorter than the kernel with it
            col_terms = np.exp(w * np.arange(j0, j1))
            for r in range(len(starts)):
                # the product stays complex: the echo is real when the symbols are
                echo = row_terms[r] * col_terms
                echo *= np.convolve(x[r, lo + j0 : lo + j1 + span], kernel, "valid")
                if p:
                    out[r, j0:j1] += echo
                else:
                    out[r, j0:j1] = echo
    return out


def _ramp(w: complex, j0: int, j1: int) -> np.ndarray:
    """exp(w j) for j = j0 .. j1 - 1, the outer product of two short ramps:
    ~2 sqrt(j1 - j0) complex exponentials instead of j1 - j0, at the cost of
    a rounding or two."""
    step = int(np.sqrt(j1 - j0)) + 1
    return np.multiply.outer(np.exp(w * np.arange(j0, j1, step)),
                             np.exp(w * np.arange(step))).ravel()[: j1 - j0]


def link_budget_sweep(
    lb: LinkBudget,
    distances,
    cfg: ArrayConfig,
    bandwidth: float,
    rcs_dbsm: float = 10.0,
):
    """Received comm SNR and radar SCNR (dB) versus separation distance.

    EIRP is the total radiated figure (TX power plus TX array gain); the RX
    array gain 10 log10(N_RX) applies identically to both links.  The noise
    floor is thermal density + 10 log10(W) + NF.
    """
    noise_floor_dbm = -174.0 + 10 * np.log10(bandwidth) + lb.noise_figure_db
    rx_gain_db = 10 * np.log10(cfg.n_elements)
    rows = []
    for rho in distances:
        if rho <= 0:
            raise ValueError("distances must be positive")
        g_com = comm_pathloss_gain(rho, cfg.wavelength, lb.pl_exponent)
        target = Target(range_m=rho, rcs_dbsm=rcs_dbsm)
        g_rad = radar_path_gain(target, cfg.wavelength)
        zeta_com = lb.eirp_dbm + 10 * np.log10(g_com) + rx_gain_db - noise_floor_dbm
        zeta_rad = lb.eirp_dbm + 10 * np.log10(g_rad) + rx_gain_db - noise_floor_dbm
        rows.append((zeta_com, zeta_rad))
    return rows
