"""Experiment harness: Monte Carlo pipelines, figure benches, data-rate metric.

Every experiment is described by an ExperimentSpec and produces a ResultTable
whose CSV rendering is byte-reproducible for a fixed seed and trial count,
independent of the worker count: per-trial RNGs are derived from
(seed, point index, trial index) and aggregation runs in trial order.

SCNR convention: experiments pin the ratio Es |h0|^2 / sigma_cn^2 directly by
normalizing the reference echo gain to unit magnitude and setting the
injected clutter-plus-noise variance, so the per-symbol SNR after matched
filtering equals the sweep value exactly.  CRLB columns are evaluated at the
same per-symbol SNR.
"""

from __future__ import annotations

import json
import platform
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property, partial

import numpy as np

from . import __version__
from .airlink import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    LinkBudget,
    Target,
    _add_noise,
    _matched_noise,
    _matched_noise_factor,
    link_budget_sweep,
    radar_coupling,
    rician_snr_draws,
    select_beams,
    synthesize_radar_rx,
    synthesize_radar_rx_symbol_rate,
)
from .dsp import RrcSpec, _conj_spectrum, pulse_shape
from .frame import (
    CEF_PEAK_BIN,
    DEFAULT_PREAMBLE,
    PREAMBLE_LEN,
    STF_LEN,
    FrameLayout,
    assemble_cpi,
    assemble_frame,
)
from .golay import GolayPair, golay_pair_correlate
from .radar import (
    PreambleTemplate,
    build_delay_doppler_map,
    cfar_threshold,
    crlb_range,
    crlb_velocity,
    detect_targets_map,
    detection_probability,
    estimate_range,
    estimate_velocity_moose,
    matched_preamble_statistic,
    moose_ambiguity_limit,
)
from .sync import estimate_channel_cef, fine_timing_preamble, preamble_delay

__all__ = [
    "Scenario",
    "ExperimentSpec",
    "ResultTable",
    "ambiguity_function",
    "data_rate",
    "run_experiment",
    "two_vehicle_scenario",
    "run_manifest",
]

@dataclass(frozen=True)
class Scenario:
    """Physical and frame-level configuration shared by all experiments."""

    symbol_rate: float = 1.76e9
    carrier_hz: float = 60e9
    rolloff: float = 0.25
    rrc_span: int = 48
    oversample: int = 8
    frame_k: int = 12800
    header_len: int = 1024
    n_frames: int = 10
    detection_frame_k: int = 3840      # short frames for per-trial detection runs
    detection_window_symbols: int = 3  # +- delay uncertainty searched, in symbols
    targets: tuple = (Target(range_m=50.0, velocity_mps=20.0, rcs_dbsm=10.0),)
    n_horizontal: int = 8
    n_vertical: int = 2
    eirp_dbm: float = 43.0
    noise_figure_db: float = 6.0
    pl_exponent: float = 2.0
    rician_k_db: float = 10.0
    cpi_duration_s: float = 6e-5       # trade-off bench CPI
    zero_pad: int = 16

    def __post_init__(self):
        if self.n_frames < 1 or self.frame_k < 1:
            raise ValueError("n_frames and frame_k must be >= 1")
        if not self.symbol_rate > 0:
            raise ValueError("symbol_rate must be positive")
        if self.symbol_rate == np.inf:   # a JSON config may hold Infinity
            raise ValueError("symbol_rate must be finite")
        if not self.carrier_hz > 0:
            raise ValueError("carrier_hz must be positive")
        if not 0 < self.cpi_duration_s < np.inf:
            raise ValueError("cpi_duration_s must be positive and finite")
        if not self.targets:
            raise ValueError("a scenario needs at least one target")
        if self.detection_window_symbols < 0:
            raise ValueError("detection_window_symbols must be >= 0, "
                             f"got {self.detection_window_symbols}")
        # built once: RrcSpec, ArrayConfig and LinkBudget each refuse their bad fields
        self.rrc, self.array, self.link_budget

    @property
    def ts(self) -> float:
        return 1.0 / self.symbol_rate

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @cached_property
    def rrc(self) -> RrcSpec:
        """The pulse, built once per scenario, so every trial shares its taps' energy."""
        return RrcSpec(self.rolloff, self.rrc_span, self.oversample)

    @cached_property
    def array(self) -> ArrayConfig:
        return ArrayConfig(self.n_horizontal, self.n_vertical, 0.5, self.wavelength)

    @cached_property
    def link_budget(self) -> LinkBudget:
        return LinkBudget(self.eirp_dbm, self.noise_figure_db, self.pl_exponent,
                          self.rician_k_db)

    def layout(self, k: int | None = None, header_len: int | None = None) -> FrameLayout:
        return FrameLayout(
            k=self.frame_k if k is None else k,
            header_len=self.header_len if header_len is None else header_len,
        )

    def __getstate__(self) -> dict:
        # a pickled Scenario holds its fields alone; the cached properties are rebuilt
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_dict(self) -> dict:
        d = asdict(self)
        d["targets"] = [asdict(t) for t in self.targets]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        d = dict(d)
        if "targets" in d:
            d["targets"] = tuple(Target(**t) for t in d["targets"])
        return cls(**d)


def two_vehicle_scenario(**overrides) -> Scenario:
    """Two-target map bench: the recipient at 14.32 m / 30 m/s (beam reference)
    plus a second vehicle 4.26 m closer and 30 m/s faster, 10 degrees off
    boresight."""
    base = dict(
        targets=(
            Target(range_m=14.32, velocity_mps=30.0, rcs_dbsm=10.0,
                   azimuth_deg=90.0, elevation_deg=90.0),
            Target(range_m=10.06, velocity_mps=60.0, rcs_dbsm=10.0,
                   azimuth_deg=100.0, elevation_deg=90.0),
        ),
        n_frames=10,
        frame_k=12800,
    )
    base.update(overrides)
    return Scenario(**base)


def _scnr_linear(scnr_db: float) -> float:
    """10^(SCNR / 10), refused (ValueError) unless it and the noise variance of
    a unit echo, its reciprocal, are positive and finite."""
    try:
        zeta = 10 ** (float(scnr_db) / 10)
    except OverflowError:
        zeta = np.inf
    if not 0 < zeta < np.inf:
        raise ValueError(f"SCNR must be positive and finite (linear), got {zeta:g} "
                         f"at {scnr_db:g} dB")
    if 1 / zeta == np.inf:
        raise ValueError(f"SCNR {scnr_db:g} dB leaves an infinite noise variance")
    return zeta


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: experiment kind, scenario, sweep axis, trial budget."""

    kind: str
    scenario: Scenario = field(default_factory=Scenario)
    sweep: tuple = ()
    trials: int = 1000
    seed: int = 0
    pfa: float = 1e-6
    doppler_grid: tuple = ()           # ambiguity bench only
    tradeoff_scnr_db: float = 10.0     # operating SCNR of the trade-off bench

    def __post_init__(self):
        if self.kind not in _PIPELINES:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:   # numpy's seed sequence would refuse it inside the first trial
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.kind not in ("ambiguity", "ddmap") and len(self.sweep) == 0:
            raise ValueError(f"experiment {self.kind!r} needs a nonempty sweep")
        if not (0 < self.pfa < 1):
            raise ValueError("pfa must lie in (0, 1)")
        for name in ("sweep", "doppler_grid", "tradeoff_scnr_db"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} values must be finite, got {getattr(self, name)}")
        # every SCNR a pipeline converts, refused before any trial runs
        scnrs = {"tradeoff": (self.tradeoff_scnr_db,), "linkbudget": (),
                 "ambiguity": ()}.get(self.kind, self.sweep)
        for scnr_db in scnrs:
            _scnr_linear(scnr_db)
        # the Moose estimate needs two frames: refuse one before any trial runs
        if self.kind == "velocity-mse" and self.scenario.n_frames < 2:
            raise ValueError("velocity-mse needs M >= 2 frames per CPI, "
                             f"got M={self.scenario.n_frames}")
        if self.kind == "tradeoff":
            bad = [m for m in self.sweep if not (float(m).is_integer() and m >= 2)]
            if bad:
                raise ValueError(f"tradeoff frame counts must be integers >= 2, got M={bad[0]}")
        if self.kind == "ddmap" and len(self.sweep) != 1:
            raise ValueError(f"ddmap maps exactly one SCNR, got the sweep {self.sweep}")


@dataclass
class ResultTable:
    """Long-format results: one (sweep value, metric, value) row at a time."""

    rows: list = field(default_factory=list)

    def add(self, sweep, metric: str, value: float, trials: int = 0,
            half_width: float = 0.0):
        self.rows.append((sweep, str(metric), float(value), int(trials),
                          float(half_width)))

    def value(self, sweep, metric: str) -> float:
        for r in self.rows:
            if r[1] == metric and r[0] == sweep:
                return r[2]
        raise KeyError(f"no row for metric={metric!r} at sweep={sweep!r}")

    def to_csv_text(self) -> str:
        lines = ["sweep,metric,value,trials,half_width"]
        for sweep, metric, value, trials, hw in self.rows:
            lines.append(f"{_fmt(sweep)},{metric},{_fmt(value)},{trials},{_fmt(hw)}")
        return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    return f"{float(x):.9g}"


def run_manifest(spec: ExperimentSpec) -> str:
    """Reproducibility manifest: config, seed, and version stamps (JSON)."""
    import scipy

    experiment = asdict(spec)
    del experiment["scenario"]
    info = {
        "experiment": experiment,
        "scenario": spec.scenario.to_dict(),
        "versions": {
            "wlanradar": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    return json.dumps(info, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------------
# ambiguity function and data rate
# ----------------------------------------------------------------------------

def ambiguity_function(
    window: tuple[int, int],
    dopplers,
    ts: float,
    pair: GolayPair,
) -> np.ndarray:
    """|ambiguity| over (doppler, lag) of the time-multiplexed pair [a b].

    The Doppler-shifted waveform x[n] e^{j2pi nu n Ts}, x = [a b], is
    processed through the cyclic pair correlator at gate 0 over the
    half-open lag window (lo, hi) of at most N lags (scaled by 2N so the
    zero-Doppler peak equals the total energy); for a periodic complementary
    pair, as the CEF's, that cut is an exact delta.  Returns (len(dopplers), hi - lo).
    """
    x = np.concatenate([pair.a, pair.b]).astype(complex)
    dopplers = np.asarray(dopplers, dtype=float)
    if np.any(np.abs(dopplers) > 1 / (2 * ts)):
        raise ValueError("doppler grid exceeds +-1/(2 Ts)")
    n = np.arange(len(x))
    out = np.empty((len(dopplers), window[1] - window[0]))
    for i, nu in enumerate(dopplers):
        z = x * np.exp(2j * np.pi * nu * n * ts)
        out[i] = np.abs(2 * len(pair) * golay_pair_correlate(z, pair, window, gate=0))
    return out


def data_rate(m: int, k_cd: int, ts: float, t: float, snr_samples) -> float:
    """Average data rate in bits/s: duty fraction times spectral efficiency.

    R = (M K_CD Ts / T) * mean(log2(1 + snr)) / Ts, i.e. the duty-weighted
    per-symbol efficiency reported per second at the symbol rate.  K_CD = 0
    (no data symbols) yields zero rate.
    """
    if k_cd < 0:
        raise ValueError("K_CD must be nonnegative")
    if k_cd == 0:
        return 0.0
    snr = np.asarray(snr_samples, dtype=float)
    spectral = float(np.mean(np.log2(1.0 + snr)))
    duty = m * k_cd * ts / t
    return duty * spectral / ts


# ----------------------------------------------------------------------------
# per-trial work functions (module level so worker processes can import them)
# ----------------------------------------------------------------------------


def _rng(seed: int, point: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, point, trial])


def _detection_trial(template, window, scen, scnr_db, rng) -> float:
    """One end-to-end detection trial; returns its matched preamble statistic.

    The statistic is the oversampled matched-filter correlation of the
    received stream with ``template``, the preamble shaped at the
    scenario's oversampled rate in block form, searched over ``window``, the
    lags of the scenario's delay uncertainty around the expected echo; the
    pipeline compares it with the threshold.  Only the statistic's read, the
    lags (lo, hi) and the template's length past them, is synthesized.
    """
    lo, hi = window
    layout = scen.layout(k=scen.detection_frame_k, header_len=0)
    symbols = assemble_frame(layout, rng)
    sigma_cn2 = 1.0 / 10 ** (scnr_db / 10)
    rx = synthesize_radar_rx(symbols, scen.rrc, scen.symbol_rate, scen.targets[:1],
                             sigma_cn2, scen.array, None, rng,
                             start=lo, length=hi - lo + template.length - 1)
    stat, _ = matched_preamble_statistic(rx, template, (0, hi - lo))
    return stat


_RANGE_SEARCH = 384   # symbols the range search spans either side of the expected echo


def _range_trial(template, spectrum, scen, scnr_db, rng) -> tuple[float, float]:
    """One range-estimation trial against ``template``, the shaped preamble,
    and its conjugate ``spectrum`` for the search's read; returns the squared
    range errors in m^2 of the peak and of its parabola.

    The true range is jittered by up to half a range bin so the Monte Carlo
    samples the sub-sample quantization error of the synchronizer.  Only the
    search's read is synthesized, and its lags are counted from the read's
    start.
    """
    base = scen.targets[0]
    bin_m = SPEED_OF_LIGHT * scen.ts / 2
    rho = base.range_m + (rng.uniform(-0.5, 0.5)) * bin_m
    target = replace(base, range_m=rho)

    layout = scen.layout(k=max(PREAMBLE_LEN + scen.header_len + 512, 5376))
    symbols = assemble_frame(layout, rng)
    sigma_cn2 = 1.0 / 10 ** (scnr_db / 10)
    q = scen.oversample
    expect = int(np.round(target.delay() / scen.ts)) * q
    # a target nearer than the search span searches from lag 0
    lo, hi = max(expect - _RANGE_SEARCH * q, 0), expect + _RANGE_SEARCH * q + 1
    rx = synthesize_radar_rx(symbols, scen.rrc, scen.symbol_rate, [target], sigma_cn2,
                             scen.array, None, rng,
                             start=lo, length=hi - lo + len(template) - 1)
    lags = preamble_delay(rx, template, (0, hi - lo), spectrum)
    return tuple(float((estimate_range((lo + lag) / q, scen.ts) - rho) ** 2) for lag in lags)


_FINE_SEARCH = 32   # symbols the fine-timing search spans either side of the expected echo


def _velocity_windows(scen) -> tuple[np.ndarray, int]:
    """(starts, length) of a velocity trial's read windows, one per frame: the
    fine-timing search span around the expected echo, plus the preamble.

    Frame r's preamble sits -starts[0] symbols into window r.  The first
    window starts below 0 for a target nearer than the search span, which
    the symbol-rate model allows, so every target searches all its lags.
    """
    expect = int(np.round(scen.targets[0].delay() / scen.ts))
    starts = expect - _FINE_SEARCH + np.arange(scen.n_frames) * scen.frame_k
    return starts, 2 * _FINE_SEARCH + PREAMBLE_LEN


def _fine_noise_factor() -> np.ndarray:
    """The Cholesky factor of the fine-timing search's matched-output noise,
    built once per run: L L^T = R_s over the search's 2 _FINE_SEARCH + 1 lags."""
    return _matched_noise_factor(DEFAULT_PREAMBLE.symbols, 2 * _FINE_SEARCH + 1)


def _velocity_trial(factor, scen, scnr_db, rng) -> float:
    """One multi-frame velocity trial at symbol rate; returns squared error.

    Each frame's window reads the fine-timing search span and the preamble.
    Fine timing searches frame 0's window; each frame's known 3328-symbol
    training block at that lag is then compressed by the preamble matched
    filter (per-frame SNR P * zeta), and the multi-frame Moose angle is
    taken across the compressed per-frame values.  Feeding raw symbol
    products instead would add the |noise|^2 self-term of the correlator,
    which costs ~10 log10(1 + (M-1)/(2 zeta)) dB at low SCNR.

    Every window holds its frame's preamble at the same column, so the
    synthesizer convolves the preamble's echo once for all M rows, without
    noise; no row gets noise.  Each frame is read only through matched
    outputs, q_m = sum_k s_k y_m[fine + k] for the real, unit-modulus
    preamble s, so the noise is drawn on those.  White noise of variance
    sigma_cn^2 on row 0 would reach fine timing's full-preamble correlation
    c(l), l = 0 .. 2 _FINE_SEARCH, as nu ~ CN(0, sigma_cn^2 R_s), R_s the
    Toeplitz matrix of the preamble's aperiodic autocorrelation at those
    lags, independent of the symbols and the phase: ``factor``, its
    Cholesky factor bound by the pipeline, draws nu (``_matched_noise``).
    fine is the first argmax of |c + nu|^2 and q_0 = (c + nu)(fine), exactly
    what noise on row 0 gives, since nu is that noise's fold.  Rows 1..M-1
    are independent of row 0, so q_1..q_{M-1} get their noise as before:
    CN(0, sigma_cn^2 ||s||^2), independent across m and of ``fine``.  The
    joint law of (fine, q_0 .. q_{M-1}) is that of noise drawn on every row.
    Draws: the CPI's seed integer, the echo phase, nu, then the noise of
    q_1..q_{M-1}; each noise draw takes every real part, then every
    imaginary part.
    """
    target = scen.targets[0]
    m = scen.n_frames
    k = scen.frame_k
    symbol_windows = partial(assemble_cpi, m, scen.layout(), seed=int(rng.integers(2**63)))
    sigma_cn2 = 1.0 / 10 ** (scnr_db / 10)
    starts, length = _velocity_windows(scen)
    rows = synthesize_radar_rx_symbol_rate(
        symbol_windows, scen.rrc, scen.symbol_rate, [target], 0.0, scen.array, None,
        rng, starts=starts, length=length, repeated=(-starts[0], PREAMBLE_LEN - starts[0]),
    )
    s = DEFAULT_PREAMBLE.symbols
    q = np.empty(m, dtype=complex)
    fine, q[0] = fine_timing_preamble(rows[0], (0, 2 * _FINE_SEARCH + 1),
                                      noise=_matched_noise(factor, sigma_cn2, rng))
    q[0] *= len(s)   # fine timing returns the correlation over the preamble length
    # compressed in place on the trial's own rows; an elementwise sum, not a
    # matrix product: OpenBLAS threads a gemv this size
    train = rows[1:, fine : fine + PREAMBLE_LEN]
    train *= s
    q[1:] = train.sum(axis=1)
    _add_noise(q[1:], sigma_cn2 * np.vdot(s, s).real, rng)
    v_hat = estimate_velocity_moose(q, n_d=k, p_len=1, m=m,
                                    ts=scen.ts, wavelength=scen.wavelength)
    return float((v_hat - target.velocity_mps) ** 2)


# ----------------------------------------------------------------------------
# experiment pipelines
# ----------------------------------------------------------------------------


def _map_trials(fn, args_list, workers: int):
    if workers <= 1 or len(args_list) < 2 * workers:
        return [fn(a) for a in args_list]
    chunk = max(1, len(args_list) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list, chunksize=chunk))


def _seeded_trial(trial, points, seed: int, job):
    k, j = job
    i, *args = points[k]
    return trial(*args, _rng(seed, i, j))


def _monte_carlo(trial, spec: ExperimentSpec, points, workers: int) -> list:
    """Each ``(i, *args)`` point's ``spec.trials`` values (n-tuples: a
    (trials, n) array) of ``trial(*args, rng)``, in trial order; trial j
    draws from _rng(seed, i, j).  The args are ``(scen, value)``.

    All points' trials share one process pool.
    """
    jobs = [(k, j) for k in range(len(points)) for j in range(spec.trials)]
    values = _map_trials(partial(_seeded_trial, trial, points, spec.seed), jobs, workers)
    return [np.array(values[k * spec.trials : (k + 1) * spec.trials])
            for k in range(len(points))]


def _binomial_halfwidth(p: float, n: int) -> float:
    return 1.96 * np.sqrt(max(p * (1 - p), 0.0) / n)


def _mean_halfwidth(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return 1.96 * float(np.std(values, ddof=1)) / np.sqrt(len(values))


def _run_detection(spec: ExperimentSpec, workers: int) -> ResultTable:
    table = ResultTable()
    scen = spec.scenario
    template = PreambleTemplate.of(DEFAULT_PREAMBLE, scen.rrc, scen.symbol_rate)
    lag0 = int(np.round(scen.targets[0].delay() * scen.symbol_rate * scen.oversample))
    w = scen.detection_window_symbols * scen.oversample
    # a (scen, value, rng) trial; its window may start below lag 0
    trial = partial(_detection_trial, template, (lag0 - w, lag0 + w + 1))
    points = [(i, scen, s) for i, s in enumerate(spec.sweep)]
    stats = _monte_carlo(trial, spec, points, workers)
    for scnr_db, stat in zip(spec.sweep, stats):
        # the per-cell threshold for the known noise variance sigma_cn^2
        threshold = cfar_threshold(1.0 / 10 ** (scnr_db / 10), spec.pfa)
        pd = float(np.mean(stat > threshold))
        table.add(scnr_db, "pd", pd, spec.trials, _binomial_halfwidth(pd, spec.trials))
        table.add(
            scnr_db, "pd_theory",
            detection_probability(10 ** (scnr_db / 10), spec.pfa, PREAMBLE_LEN),
        )
    return table


def _run_range_mse(spec: ExperimentSpec, workers: int) -> ResultTable:
    table = ResultTable()
    scen = spec.scenario
    template = pulse_shape(DEFAULT_PREAMBLE.symbols, scen.rrc, scen.symbol_rate)
    # transformed once, at the length of a whole search's read
    spectrum = _conj_spectrum(template, 2 * _RANGE_SEARCH * scen.oversample + len(template))
    trial = partial(_range_trial, template, spectrum)  # a (scen, value, rng) trial
    points = [(i, scen, s) for i, s in enumerate(spec.sweep)]
    errors = _monte_carlo(trial, spec, points, workers)
    for scnr_db, sq in zip(spec.sweep, errors):
        table.add(scnr_db, "range_mse_m2", float(np.mean(sq[:, 0])), spec.trials,
                  _mean_halfwidth(sq[:, 0]))
        table.add(scnr_db, "range_crlb_m2",
                  crlb_range(10 ** (scnr_db / 10), p=2048, bandwidth=scen.symbol_rate))
        table.add(scnr_db, "range_mse_refined_m2", float(np.mean(sq[:, 1])), spec.trials,
                  _mean_halfwidth(sq[:, 1]))
        table.add(scnr_db, "range_crlb_preamble_m2",
                  crlb_range(10 ** (scnr_db / 10), p=PREAMBLE_LEN,
                             bandwidth=scen.symbol_rate, rolloff=scen.rolloff))
    return table


def _velocity_crlb_columns(table: ResultTable, scen: Scenario, scnr_db: float):
    zeta = 10 ** (scnr_db / 10)
    table.add(scnr_db, "velocity_crlb_multi_m2s2",
              crlb_velocity(zeta, "multi", p=PREAMBLE_LEN, m=scen.n_frames,
                            k=scen.frame_k, ts=scen.ts, wavelength=scen.wavelength))
    table.add(scnr_db, "velocity_crlb_exact_m2s2",
              crlb_velocity(zeta, "exact", p=PREAMBLE_LEN, m=scen.n_frames,
                            k=scen.frame_k, ts=scen.ts, wavelength=scen.wavelength))


def _check_moose_span(scen: Scenario, ks):
    """Refuse a target whose velocity the trial would alias at a frame length K."""
    v = scen.targets[0].velocity_mps
    for k in ks:
        limit = moose_ambiguity_limit(k, scen.ts, scen.wavelength)
        if not abs(v) < limit:
            raise ValueError(f"target velocity {v:g} m/s is outside the Moose span "
                             f"+-{limit:.6g} m/s at K={k}: the estimate would alias")


def _run_velocity_mse(spec: ExperimentSpec, workers: int) -> ResultTable:
    table = ResultTable()
    scen = spec.scenario
    _check_moose_span(scen, [scen.frame_k])
    points = [(i, scen, s) for i, s in enumerate(spec.sweep)]
    # a (scen, value, rng) trial
    errors = _monte_carlo(partial(_velocity_trial, _fine_noise_factor()), spec, points, workers)
    for scnr_db, sq in zip(spec.sweep, errors):
        table.add(scnr_db, "velocity_mse_m2s2", float(np.mean(sq)), spec.trials,
                  _mean_halfwidth(sq))
        _velocity_crlb_columns(table, scen, scnr_db)
    return table


def _run_tradeoff(spec: ExperimentSpec, workers: int) -> ResultTable:
    """Sweep the frame count M inside a fixed-duration CPI at one SCNR.

    Data rate and velocity RMSE move in opposite directions with M: more
    frames mean more training (better velocity) but fewer data symbols.
    """
    table = ResultTable()
    scen = spec.scenario
    scnr_db = spec.tradeoff_scnr_db
    zeta = 10 ** (scnr_db / 10)
    t_cpi = scen.cpi_duration_s
    total_symbols = int(round(t_cpi / scen.ts))
    ks = [total_symbols // int(m) for m in spec.sweep]
    _, window = _velocity_windows(scen)
    # a feasible frame holds its preamble, its header and a payload symbol,
    # and a trial's read window; an infeasible point keeps its index i, so
    # later points keep their streams
    subs = {i: replace(scen, n_frames=int(m), frame_k=k)
            for i, (m, k) in enumerate(zip(spec.sweep, ks))
            if k > PREAMBLE_LEN + scen.header_len and k >= window}
    _check_moose_span(scen, [sub.frame_k for sub in subs.values()])
    points = [(i, sub, scnr_db) for i, sub in subs.items()]
    trial = partial(_velocity_trial, _fine_noise_factor())   # a (scen, value, rng) trial
    errors = dict(zip(subs, _monte_carlo(trial, spec, points, workers)))
    for i, (m_frames, k) in enumerate(zip(spec.sweep, ks)):
        m_frames = int(m_frames)
        if i not in errors:
            table.add(m_frames, "infeasible", 1.0)
            continue
        rmse = float(np.sqrt(np.mean(errors[i])))
        table.add(m_frames, "velocity_rmse_mps", rmse, spec.trials)
        k_cd = k - PREAMBLE_LEN - scen.header_len
        snr = rician_snr_draws(zeta, scen.rician_k_db, scen.array,
                               max(spec.trials, 256), _rng(spec.seed, i, 10**6))
        t = m_frames * k * scen.ts
        table.add(m_frames, "data_rate_bps", data_rate(m_frames, k_cd, scen.ts, t, snr))
        table.add(m_frames, "velocity_crlb_exact_m2s2",
                  crlb_velocity(zeta, "exact", p=PREAMBLE_LEN, m=m_frames, k=k,
                                ts=scen.ts, wavelength=scen.wavelength))
    return table


def _run_linkbudget(spec: ExperimentSpec, workers: int) -> ResultTable:
    table = ResultTable()
    scen = spec.scenario
    rows = link_budget_sweep(scen.link_budget, spec.sweep, scen.array,
                             scen.symbol_rate,
                             rcs_dbsm=scen.targets[0].rcs_dbsm)
    for rho, (zc, zr) in zip(spec.sweep, rows):
        table.add(rho, "snr_com_db", zc)
        table.add(rho, "scnr_rad_db", zr)
    return table


def _run_ddmap(spec: ExperimentSpec, workers: int) -> ResultTable:
    """Multi-target delay-Doppler bench: peaks, widths, and back-mapped physics.

    Beams point at the first target; per-target echo gains follow the
    physical path-gain/beam couplings scaled so the reference (first) target
    sits at the requested SCNR.
    """
    table = ResultTable()
    scen = spec.scenario
    if not all(0 <= round(t.delay() / scen.ts) < 512 for t in scen.targets):
        raise ValueError("a target lies outside the sliding CEF delay span 0-"
                         f"{511 * SPEED_OF_LIGHT * scen.ts / 2:.3g} m (bins 0-511)")
    rng = _rng(spec.seed, 0, 0)
    m, k = scen.n_frames, scen.frame_k
    layout = scen.layout()

    ref = scen.targets[0]
    beams = select_beams(scen.array, ref.azimuth_deg, ref.elevation_deg)
    h_ref = abs(radar_coupling(ref, scen.array, beams, 0.0))
    # normalize all couplings by the reference magnitude, then pin the SCNR
    scnr_db = spec.sweep[0]
    sigma_cn2 = 1.0 / 10 ** (scnr_db / 10)

    def symbol_windows(starts, length):
        cpi = assemble_cpi(m, layout, starts, length, spec.seed)
        cpi /= h_ref
        return cpi

    # each frame's sliding CEF read: 512 lags of the 1024-symbol Gu|Gv pair;
    # window r starts STF_LEN into frame r, whose preamble every frame repeats
    rows = synthesize_radar_rx_symbol_rate(
        symbol_windows, scen.rrc, scen.symbol_rate, scen.targets, sigma_cn2, scen.array,
        beams, rng, starts=STF_LEN + np.arange(m) * k, length=512 + 1024 - 1,
        repeated=(-STF_LEN, PREAMBLE_LEN - STF_LEN),
    )
    h = estimate_channel_cef(rows, CEF_PEAK_BIN, gated=False)
    ddm = build_delay_doppler_map(h, zero_pad=scen.zero_pad, ts=scen.ts,
                                  frame_len=k, wavelength=scen.wavelength)
    bin_noise_var = sigma_cn2 / (2 * 512)
    dets = detect_targets_map(ddm, spec.pfa, bin_noise_var)

    for i, d in enumerate(dets[:8]):
        table.add(i, "delay_bin", d.delay_bin)
        table.add(i, "doppler_bin", d.doppler_bin)
        table.add(i, "range_m", d.range_m)
        table.add(i, "velocity_mps", d.velocity_mps)
        table.add(i, "power_db", 10 * np.log10(d.power / dets[0].power))

    if len(dets):
        dl, dw = _mainlobe_widths(ddm, dets[0])
        table.add(0, "delay_3db_bins", dl)
        table.add(0, "doppler_3db_bins", dw)
        table.add(0, "velocity_3db_mps",
                  dw * scen.wavelength / 2 / (m * k * scen.ts))
    return table


def _mainlobe_widths(ddm, det) -> tuple[float, float]:
    """(delay width in bins, Doppler width in interpolated bins/Z) at -3 dB."""
    row = np.abs(ddm.grid[:, det.doppler_bin]) ** 2
    half = row[det.delay_bin] / 2

    def width(cut, peak):
        lo = hi = peak
        while lo - 1 >= 0 and cut[lo - 1] >= half:
            lo -= 1
        while hi + 1 < len(cut) and cut[hi + 1] >= half:
            hi += 1
        return hi - lo + 1

    doppler_width = width(np.abs(ddm.grid[det.delay_bin, :]) ** 2, det.doppler_bin)
    return float(width(row, det.delay_bin)), float(doppler_width / ddm.zero_pad)


def _run_crlb(spec: ExperimentSpec, workers: int) -> ResultTable:
    table = ResultTable()
    scen = spec.scenario
    for scnr_db in spec.sweep:
        zeta = 10 ** (scnr_db / 10)
        table.add(scnr_db, "range_crlb_m2",
                  crlb_range(zeta, p=2048, bandwidth=scen.symbol_rate))
        table.add(scnr_db, "velocity_crlb_single_m2s2",
                  crlb_velocity(zeta, "single", p=2048, ts=scen.ts,
                                wavelength=scen.wavelength))
        _velocity_crlb_columns(table, scen, scnr_db)
    return table


def _run_ambiguity(spec: ExperimentSpec, workers: int) -> ResultTable:
    table = ResultTable()
    scen = spec.scenario
    window = (-64, 65)
    dopplers = np.asarray(spec.doppler_grid or (0.0,), dtype=float)
    amb = ambiguity_function(window, dopplers, scen.ts, DEFAULT_PREAMBLE.cef_pair)
    for i, nu in enumerate(dopplers):
        for j, lag in enumerate(range(*window)):
            table.add(lag, f"mag@nu={_fmt(nu)}Hz", amb[i, j])
    return table


# every pipeline takes (spec, workers); the serial ones leave workers unread
_PIPELINES = {
    "ambiguity": _run_ambiguity,
    "detection": _run_detection,
    "range-mse": _run_range_mse,
    "velocity-mse": _run_velocity_mse,
    "tradeoff": _run_tradeoff,
    "linkbudget": _run_linkbudget,
    "ddmap": _run_ddmap,
    "crlb": _run_crlb,
}


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ResultTable:
    """Dispatch an ExperimentSpec to its pipeline and return the ResultTable.

    Results are byte-reproducible for a fixed (spec, seed) regardless of the
    worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return _PIPELINES[spec.kind](spec, workers)
