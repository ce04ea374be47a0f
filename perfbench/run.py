"""Monte Carlo trial benchmark of wlanradar.

    python3 perfbench/run.py --workload detect-serial --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.

With ``--trace 0`` a run prints the end-to-end metrics.  It is split over
SEGMENTS fresh interpreters, because the speed of one process varies from
process to process far more than within it.  Each one sets up (imports the
package, builds the spec, makes the warm-up call) and then runs its share of
the closed loop for ``--seconds / SEGMENTS``.  Between them run SEGMENTS
more interpreters that only set up.  ``trials_per_s`` is all trials over all
timed wall clock, ``setup_s`` the median of all set-ups and ``peak_rss_mb``
the largest peak.  With ``--trace 1`` one interpreter runs for ``--seconds``
and prints the per-layer metrics of ``tracing``.

For a parallel workload the first set-up-only interpreter also runs the
workload's specs at 1 worker, after its set-up, for the CSV match.

Every operation's output is checked, and the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, with the environment beside it, goes to ``perfbench/out/``.

The benchmark sets no thread or BLAS environment variable; it records the
ones it finds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SEGMENTS = 3          # fresh measuring processes per untraced run, and as
                      # many fresh processes that only set up
CHILD_TIMEOUT_S = 150
# the workloads of BENCHMARK.json; ``--workload all`` also runs detect-parallel
BENCHMARK_WORKLOADS = ("detect-serial", "velocity-cpi", "velocity-parallel", "ddmap-cpi")
ALL_WORKLOADS = (*BENCHMARK_WORKLOADS, "detect-parallel")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "WLANRADAR_WORKERS")

END_TO_END = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "frame.assemble_ms": "ms",
    "dsp.pulse_shape_ms": "ms",
    "dsp.delay_doppler_ms": "ms",
    "dsp.delay_fft_len": "count",
    "airlink.synth_ms": "ms",
    "airlink.synth_symbol_rate_ms": "ms",
    "airlink.samples_out": "count",
    "sync.fine_timing_ms": "ms",
    "sync.cef_estimate_ms": "ms",
    "golay.pair_correlate_ms": "ms",
    "radar.matched_stat_ms": "ms",
    "radar.moose_ms": "ms",
    "radar.map_build_ms": "ms",
    "radar.map_detect_ms": "ms",
    "radar.map_cells": "count",
    "radar.map_detections": "count",
    "radar.map_useful_ratio": "ratio",
    "bench.trial_ms": "ms",
    "bench.other_ms": "ms",
    "bench.pools_created": "count",
    "bench.cpu_s_per_trial": "s",
    "bench.cpu_util": "ratio",
    "bench.worker_threads": "count",
    "trace.overhead_frac": "ratio",
}
COUNTS = ("dsp.delay_fft_len", "airlink.samples_out", "radar.map_cells",
          "radar.map_detections", "bench.pools_created")


def _use_source_tree() -> None:
    if not (SRC / "wlanradar" / "__init__.py").is_file():
        sys.exit(f"error: no wlanradar sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# child modes: one fresh interpreter each
# ---------------------------------------------------------------------------


def measure_child(name: str, seed: int, seconds: float, trace: bool, segment: str | None,
                  reference: bool) -> None:
    """Set up (import, spec, warm-up call), then measure; print one JSON line.

    Without a ``segment`` the child only sets up, and with ``reference`` it
    then records the 1-worker CSV digests of a parallel workload's specs.
    """
    t0 = time.perf_counter()
    import measure
    from workloads import WORKLOADS

    from wlanradar.bench import run_experiment

    wl = WORKLOADS[name]
    run_experiment(wl.warmup_spec(seed), workers=wl.workers)
    setup_s = time.perf_counter() - t0
    if segment is None:
        out = {"reference": (measure.reference_digests(wl, seed)
                             if reference and wl.parallel else None)}
    elif trace:
        out = measure.measure_traced(wl, seed, seconds)
    else:
        j, k = (int(x) for x in segment.split("/"))
        out = measure.measure(wl, seed, seconds, j, k)
    out.update(setup_s=setup_s, parallel=wl.parallel,
               environment=runtime_environment(wl.workers))
    print(json.dumps(out))


def runtime_environment(workers: int) -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


# ---------------------------------------------------------------------------
# the parent: set-up probes, one measured child, the report
# ---------------------------------------------------------------------------


def _child(args: list, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          stdout=subprocess.PIPE, text=True, timeout=timeout,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_identity() -> dict:
    """The git commit when there is one, and a hash of the package sources."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def cross_check(ops: list, reference: dict | None) -> None:
    """Add to each operation the problems seen across operations.

    Every operation with one key ran one spec and must return the same CSV;
    with a ``reference`` that CSV must also be the spec's 1-worker CSV.
    """
    first: dict = {}
    for op in ops:
        if op["digest"] is None:
            continue
        if first.setdefault(op["key"], op["digest"]) != op["digest"]:
            op["problems"].append("CSV differs between two runs of the same spec")
        if reference is not None and reference.get(op["key"]) != op["digest"]:
            op["problems"].append("CSV differs from the 1-worker CSV of the same spec")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--measure"]
    probe = [*common, "--seconds", str(seconds)]
    if trace:
        parts = [_child([*probe, "--trace", "1", "--segment", "0/1"], CHILD_TIMEOUT_S)]
        probes = [_child([*probe, "--reference"], CHILD_TIMEOUT_S)] if parts[0]["parallel"] else []
    else:
        parts, probes = [], []
        for j in range(SEGMENTS):
            probes.append(_child([*probe, *(["--reference"] if j == 0 else [])],
                                 CHILD_TIMEOUT_S))
            parts.append(_child([*common, "--seconds", str(seconds / SEGMENTS),
                                 "--segment", f"{j}/{SEGMENTS}"], CHILD_TIMEOUT_S))
    ops = [op for part in parts for op in part["ops"]]
    digests = probes[0]["reference"] if probes else None
    reference = None if digests is None else {int(k): v for k, v in digests.items()}
    cross_check(ops, reference)
    setups = [child["setup_s"] for child in probes + parts]

    if trace:
        metrics, units = parts[0]["metrics"], PER_LAYER
    else:
        done = [op for op in ops if op["digest"] is not None]
        metrics, units = {
            "trials_per_s": sum(op["trials"] for op in done) / sum(op["seconds"] for op in ops),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        }, END_TO_END
    gaps: dict = {}
    for op in ops:
        if op["velocity_gap_db"] is not None:
            gaps.setdefault(f"{op['sweep']:g}", []).append(op["velocity_gap_db"])
    environment = parts[0]["environment"]
    environment.update(source_identity(), seed=seed)
    return {
        "workload": name,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["problems"]),
        "trials": sum(op["trials"] for op in ops),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "environment": environment,
        "setup_samples_s": setups,
        "op_seconds": [op["seconds"] for op in ops],
        "problems": [op["problems"] for op in ops if op["problems"]][:5],
        "velocity_gap_db_over_multi_crlb": {k: statistics.median(v) for k, v in gaps.items()},
        "not_run": parts[0].get("not_run", []),
        "spans": parts[0].get("spans"),
    }


def report(res: dict) -> None:
    m = res["metrics"]
    print(f"workload {res['workload']}  seed {res['environment']['seed']}  "
          f"workers {res['environment']['workers']}  closed loop, 1 client")
    print(f"environment {json.dumps(res['environment'], sort_keys=True)}")
    for k, v in m.items():
        mark = "  (layer not run on this workload)" if k in res["not_run"] else ""
        print(f"  {k:30s} {v['value']:>14.6g} {v['unit']}{mark}")
    ops = res["attempted"]
    print(f"  {'error_rate':30s} {res['failed'] / ops:>14.6g} ratio "
          f"({res['failed']} failed of {ops} operations, {res['trials']} trials)")
    print(f"  setup samples s: {', '.join(f'{s:.4f}' for s in res['setup_samples_s'])}")
    if res["velocity_gap_db_over_multi_crlb"]:
        print("  finding: velocity MSE over the multi-frame CRLB, dB: "
              f"{res['velocity_gap_db_over_multi_crlb']}")
    for problem in res["problems"]:
        print(f"  FAILED operation: {'; '.join(problem)}")


def result_line(failed: int, attempted: int, metrics: dict) -> str:
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def save(res: dict, trace: bool) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{res['workload']}-seed{res['environment']['seed']}-trace{int(trace)}"
    spans = res.pop("spans", None)
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    (OUT / f"{stem}.json").write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")


def run_all(seed: int, seconds: float, trace: bool) -> str:
    results = []
    for name in ALL_WORKLOADS:
        res = run_workload(name, seed, seconds, trace)
        save(res, trace)
        report(res)
        results.append(res)
    units = PER_LAYER if trace else END_TO_END
    print(f"\n{'metric':30s}" + "".join(f"{r['workload']:>18s}" for r in results))
    for k, unit in units.items():
        print(f"{f'{k} [{unit}]':30s}" + "".join(f"{r['metrics'][k]['value']:>18.6g}"
                                                 for r in results))
    print(f"{'error_rate [ratio]':30s}"
          + "".join(f"{r['failed'] / r['attempted']:>18.6g}" for r in results))
    return result_line(
        sum(r["failed"] for r in results), sum(r["attempted"] for r in results),
        {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*ALL_WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--segment", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    _use_source_tree()

    if args.measure:
        measure_child(args.workload, args.seed, args.seconds, bool(args.trace), args.segment,
                      args.reference)
        return 0

    trace = bool(args.trace)
    try:
        if args.workload == "all":
            line = run_all(args.seed, args.seconds, trace)
        else:
            res = run_workload(args.workload, args.seed, args.seconds, trace)
            save(res, trace)
            report(res)
            line = result_line(res["failed"], res["attempted"], res["metrics"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
