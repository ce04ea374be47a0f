"""The benchmark's workloads: the ExperimentSpec of every operation and the
checks its output must pass.

An operation is one call of ``wlanradar.bench.run_experiment``: one sweep
point of ``trials`` Monte Carlo trials, or one CPI for ``ddmap-cpi``.  The
operations of a run form an endless sequence made from the workload seed:
sweep values cycle in order and every operation gets its own spec seed.
A parallel workload repeats its first sweep instead, so each of its few
specs is checked once against the CSV of the same spec at 1 worker and
every repeat must reproduce that CSV byte for byte.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import random
from dataclasses import dataclass

from scipy.stats import chi2

from wlanradar.bench import ExperimentSpec, Scenario, two_vehicle_scenario

DETECT_PFA = 1e-4
DETECT_PD_MIN_SCNR_DB = -20.0   # the sweep point whose Pd must reach PD_MIN
PD_MIN = 0.95
DDMAP_FRAMES = 64
DDMAP_SCNR_DB = 20.0
DDMAP_DELAY_BINS = {118, 168}   # acceptance criterion 9
VELOCITY_TAIL_P = 1e-6          # chi-square tail allowed below the exact CRLB
# Monte Carlo trials per sweep point: the parallel-path baseline of ROADMAP.md
# is a 400-trial detection sweep over four points
TRIALS_PER_POINT = 100


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str
    sweep: tuple
    trials: int          # Monte Carlo trials per operation
    parallel: bool       # run at nproc workers instead of 1

    @property
    def workers(self) -> int:
        return nproc() if self.parallel else 1

    @property
    def first_sweep(self) -> int:
        """Operations every run completes; counts are taken over these."""
        return len(self.sweep)

    def spec(self, op_seed: int, value: float, trials: int | None = None) -> ExperimentSpec:
        trials = self.trials if trials is None else trials
        if self.kind == "detection":
            return ExperimentSpec(kind="detection", sweep=(value,), trials=trials,
                                  seed=op_seed, pfa=DETECT_PFA)
        if self.kind == "velocity-mse":
            return ExperimentSpec(kind="velocity-mse",
                                  scenario=Scenario(n_frames=10, frame_k=12800),
                                  sweep=(value,), trials=trials, seed=op_seed)
        if self.kind == "ddmap":
            return ExperimentSpec(kind="ddmap",
                                  scenario=two_vehicle_scenario(n_frames=DDMAP_FRAMES,
                                                                frame_k=12800),
                                  sweep=(value,), trials=1, seed=op_seed,
                                  pfa=DETECT_PFA)
        raise ValueError(f"no spec for kind {self.kind!r}")

    def warmup_spec(self, seed: int) -> ExperimentSpec:
        """The untimed first call: one small sweep point, or one CPI.

        Its trial count lets ``detect-parallel`` reach the process pool.
        """
        rng = random.Random(f"warmup/{self.kind}/{seed}")
        return self.spec(rng.getrandbits(32), self.sweep[0],
                         trials=min(self.trials, 2 * self.workers))

    def operations(self, seed: int):
        """Endless (index, spec) sequence of the timed operations."""
        rng = random.Random(f"ops/{self.kind}/{seed}")

        def fresh(i):
            return self.spec(rng.getrandbits(32), self.sweep[i % len(self.sweep)])

        first = [fresh(i) for i in range(self.first_sweep)]
        for i in itertools.count():
            if i < len(first) or self.parallel:
                yield i, first[i % len(first)]
            else:
                yield i, fresh(i)

    def check(self, csv_text: str, spec: ExperimentSpec) -> list:
        """Problems with one operation's CSV; an empty list means it passed."""
        try:
            rows = parse_csv(csv_text)
            if self.kind == "detection":
                return check_detection(rows)
            if self.kind == "velocity-mse":
                return check_velocity(rows, spec.trials)
            return check_ddmap(rows, spec)
        except ValueError as exc:  # a missing, repeated or unparsable row
            return [f"unreadable CSV: {exc}"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("detect-serial",
                 "oversampled detection chain at 1 worker: shaping, FFT delay/Doppler, "
                 "noise and matched statistic; bypasses the pool and the symbol-rate path",
                 "detection", (-26.0, -24.0, -22.0, -20.0), TRIALS_PER_POINT, False),
        Workload("velocity-cpi",
                 "velocity-mse at M=10, K=12800 and 1 worker: symbol-rate synthesis and "
                 "Moose; the oversampled dsp path never runs",
                 "velocity-mse", (0.0, 10.0, 20.0), TRIALS_PER_POINT, False),
        Workload("velocity-parallel",
                 "one velocity-cpi sweep point (10 dB) repeated at nproc workers: a "
                 "process pool per sweep point, little BLAS work inside the workers",
                 "velocity-mse", (10.0,), TRIALS_PER_POINT, True),
        Workload("ddmap-cpi",
                 "two-vehicle map at M=64, K=12800: long symbol-rate stream, sliding "
                 "Golay CEF correlation, map build and detection",
                 "ddmap", (DDMAP_SCNR_DB,), 1, False),
        # Not in BENCHMARK.json: with the user's unpinned BLAS its operations take
        # either ~2 s or ~10 s, so its trials/s does not repeat from run to run.
        Workload("detect-parallel",
                 "the detect-serial specs at nproc workers: the pool plus the "
                 "BLAS-threaded matched-statistic lag loop inside each worker",
                 "detection", (-26.0, -24.0, -22.0, -20.0), TRIALS_PER_POINT, True),
    )
}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def parse_csv(text: str) -> list:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != ["sweep", "metric", "value", "trials", "half_width"]:
        raise ValueError(f"unexpected CSV header {reader.fieldnames}")
    return [
        {"sweep": float(r["sweep"]), "metric": r["metric"], "value": float(r["value"]),
         "trials": int(r["trials"])}
        for r in reader
    ]


def _value(rows, metric, sweep=None):
    hits = [r["value"] for r in rows
            if r["metric"] == metric and (sweep is None or r["sweep"] == sweep)]
    if len(hits) != 1:
        raise ValueError(f"expected one {metric!r} row at sweep {sweep}, got {len(hits)}")
    return hits[0]


def check_detection(rows) -> list:
    problems = []
    pds = [r for r in rows if r["metric"] == "pd"]
    if not pds:
        problems.append("no pd row")
    for r in pds:
        if not 0.0 <= r["value"] <= 1.0:
            problems.append(f"pd {r['value']} outside [0, 1] at {r['sweep']} dB")
        if r["sweep"] == DETECT_PD_MIN_SCNR_DB and r["value"] < PD_MIN:
            problems.append(f"pd {r['value']} < {PD_MIN} at {r['sweep']} dB")
    return problems


def velocity_floor(crlb: float, trials: int) -> float:
    """Lowest MSE that sampling noise allows for an efficient estimator.

    An unbiased estimator at the bound gives trials * MSE / CRLB ~ chi2(trials);
    anything below the VELOCITY_TAIL_P quantile of that law beats the CRLB.
    """
    return crlb * chi2.ppf(VELOCITY_TAIL_P, trials) / trials


def check_velocity(rows, trials: int) -> list:
    mse = _value(rows, "velocity_mse_m2s2")
    crlb = _value(rows, "velocity_crlb_exact_m2s2")
    if not (math.isfinite(mse) and math.isfinite(crlb) and crlb > 0):
        return [f"non-finite velocity MSE {mse} or CRLB {crlb}"]
    floor = velocity_floor(crlb, trials)
    if mse < floor:
        return [f"velocity MSE {mse:.3g} below the CRLB floor {floor:.3g}"]
    return []


def ddmap_truth(spec: ExperimentSpec) -> dict:
    """Delay bin -> (velocity m/s, one Doppler bin in m/s) of each target."""
    scen = spec.scenario
    dv = scen.wavelength / (2 * scen.n_frames * scen.frame_k * scen.ts)
    return {int(round(t.delay() / scen.ts)): (t.velocity_mps, dv) for t in scen.targets}


def check_ddmap(rows, spec: ExperimentSpec) -> list:
    truth = ddmap_truth(spec)
    if set(truth) != DDMAP_DELAY_BINS:
        return [f"scenario delay bins {sorted(truth)} are not {sorted(DDMAP_DELAY_BINS)}"]
    problems = []
    top = [(int(_value(rows, "delay_bin", i)), _value(rows, "velocity_mps", i))
           for i in (0.0, 1.0)]
    if {b for b, _ in top} != DDMAP_DELAY_BINS:
        problems.append(f"top two delay bins {[b for b, _ in top]}")
    for b, v in top:
        if b in truth and abs(v - truth[b][0]) > truth[b][1]:
            problems.append(f"velocity {v:.2f} m/s at bin {b}, want {truth[b][0]:g}")
    return problems


def velocity_gap_db(rows) -> float:
    """MSE over the multi-frame CRLB in dB (a finding, not a check)."""
    return 10 * math.log10(_value(rows, "velocity_mse_m2s2")
                           / _value(rows, "velocity_crlb_multi_m2s2"))
