"""The measuring side of the benchmark, run inside a fresh interpreter.

A measured child makes the untimed warm-up call, then drives a closed loop
with one client: the next operation starts when the previous
``run_experiment`` call returns.  An untraced run is split over several
children, each taking every k-th operation, so one run samples several fresh
processes.  With tracing on, one child runs each operation twice, bare and
with the probes of ``tracing``, in alternating order, so the per-layer
numbers and the tracing overhead come from equal work.

Every operation's CSV is checked here; ``run.cross_check`` compares the
digests of the CSVs across operations and against a 1-worker run.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
import traceback
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field

from wlanradar.bench import run_experiment

import tracing
from workloads import Workload, ddmap_truth, parse_csv, velocity_gap_db


@dataclass
class Op:
    key: int              # operations with one key run the same spec
    sweep: float
    trials: int
    seconds: float
    digest: str | None    # sha256 of the CSV; None when the call raised
    problems: list = field(default_factory=list)
    velocity_gap_db: float | None = None


def run_op(wl: Workload, key: int, spec, workers: int,
           tracer: tracing.Tracer | None = None) -> Op:
    """One checked ``run_experiment`` call."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            table = run_experiment(spec, workers=workers)
        else:
            with tracer.span(tracing.OP_SPAN):
                table = run_experiment(spec, workers=workers)
    except Exception:  # an operation that raises counts as failed
        seconds = time.perf_counter() - t0
        return Op(key, spec.sweep[0], spec.trials, seconds, None,
                  [traceback.format_exc().strip().splitlines()[-1]])
    seconds = time.perf_counter() - t0
    csv = table.to_csv_text()
    op = Op(key, spec.sweep[0], spec.trials, seconds,
            hashlib.sha256(csv.encode()).hexdigest(), wl.check(csv, spec))
    if wl.kind == "velocity-mse" and not op.problems:
        op.velocity_gap_db = velocity_gap_db(parse_csv(csv))
    return op


def spec_key(wl: Workload, index: int) -> int:
    """Operations with one key run one spec: a parallel workload repeats."""
    return index % wl.first_sweep if wl.parallel else index


def closed_loop(wl: Workload, seed: int, seconds: float, segment: int = 0,
                segments: int = 1):
    """(index, spec) of this segment's operations for about ``seconds``.

    Segment j of k takes operations j, j + k, ...; together the segments run
    at least the first sweep.  The loop ends at the operation boundary
    nearest to ``seconds``: it stops once one more operation, at the mean
    time per operation so far, would overshoot by more than it now falls
    short.
    """
    min_ops = math.ceil(wl.first_sweep / segments)
    start = time.perf_counter()
    done = 0
    for i, spec in wl.operations(seed):
        if i % segments != segment:
            continue
        if done >= min_ops:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done / 2 >= seconds:
                return
        yield i, spec
        done += 1


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest worker's peak.

    Forked workers count the pages they share with the parent in their own
    RSS, so for a parallel run this is an upper bound on the joint peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if child else 0)) / 1024.0


def measure(wl: Workload, seed: int, seconds: float, segment: int, segments: int) -> dict:
    """Untraced segment: its operations and this process's peak memory."""
    ops = [run_op(wl, spec_key(wl, i), spec, wl.workers)
           for i, spec in closed_loop(wl, seed, seconds, segment, segments)]
    return {"ops": [asdict(op) for op in ops], "peak_rss_mb": peak_rss_mb(wl.workers)}


def reference_digests(wl: Workload, seed: int) -> dict:
    """CSV digests of a parallel workload's specs run at 1 worker."""
    out = {}
    for i, spec in wl.operations(seed):
        if i >= wl.first_sweep:
            return out
        out[spec_key(wl, i)] = run_op(wl, spec_key(wl, i), spec, 1).digest
    return out


def measure_traced(wl: Workload, seed: int, seconds: float) -> dict:
    """Traced run: per-layer metrics, and the overhead against bare operations."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    first_sweep_counts: dict = {}
    cpu = 0.0

    def probed(key, spec):
        nonlocal cpu
        with ExitStack() as stack:
            stack.enter_context(tracing.pool_counter(tracer))
            if wl.workers > 1:
                # layer wrappers would be copied into the forked workers, whose
                # spans are lost, so a parallel run keeps to process-level numbers
                stack.enter_context(tracing.worker_thread_sampler(tracer))
            else:
                truth = ddmap_truth(spec) if wl.kind == "ddmap" else {}
                stack.enter_context(tracing.layer_probes(tracer, truth))
            cpu0 = tracing.cpu_seconds()
            traced.append(run_op(wl, key, spec, wl.workers, tracer))
            cpu += tracing.cpu_seconds() - cpu0

    def bare(key, spec):
        plain.append(run_op(wl, key, spec, wl.workers))

    for i, spec in closed_loop(wl, seed, seconds):
        for step in ((bare, probed) if i % 2 == 0 else (probed, bare)):
            step(spec_key(wl, i), spec)
        if i == wl.first_sweep - 1:
            first_sweep_counts = dict(tracer.counts)

    return {
        "ops": [asdict(op) for op in plain + traced],
        "metrics": layer_metrics(wl, plain, traced, tracer, first_sweep_counts, cpu),
        "not_run": not_run(wl, tracer, first_sweep_counts),
        "spans": tracer.to_json(),
    }


def not_run(wl, tracer, counts) -> list:
    """Per-layer metrics whose layer never ran on this workload.

    They are reported as 0, which here means "not measured", not "free".
    """
    selfs = tracing.self_times(tracer.spans)
    ran = {f"{name}_ms": name in selfs for name in tracing.LAYER_NAMES}
    ran.update({k: k in counts for k in ("dsp.delay_fft_len", "airlink.samples_out",
                                         "radar.map_cells", "radar.map_detections")})
    ran["radar.map_useful_ratio"] = "radar.map_detections" in counts
    ran["bench.worker_threads"] = wl.workers > 1
    return sorted(k for k, v in ran.items() if not v)


def layer_metrics(wl, plain, traced, tracer, counts, cpu) -> dict:
    trials = sum(op.trials for op in traced)
    wall = sum(op.seconds for op in traced)
    selfs = tracing.self_times(tracer.spans)
    op_spans = [s for s in tracer.spans if s.name == tracing.OP_SPAN]
    first_trials = sum(op.trials for op in traced[: wl.first_sweep])
    detections = counts.get("radar.map_detections", 0)
    m = {f"{name}_ms": 1e3 * selfs.get(name, 0.0) / trials for name in tracing.LAYER_NAMES}
    m.update({
        "bench.trial_ms": 1e3 * sum(s.end - s.start for s in op_spans) / trials,
        "bench.other_ms": 1e3 * selfs.get(tracing.OP_SPAN, 0.0) / trials,
        "dsp.delay_fft_len": counts.get("dsp.delay_fft_len", 0),
        "airlink.samples_out": counts.get("airlink.samples_out", 0) / first_trials,
        "radar.map_cells": counts.get("radar.map_cells", 0),
        "radar.map_detections": detections / wl.first_sweep,
        "radar.map_useful_ratio": (counts.get("radar.map_true_found", 0) / detections
                                   if detections else 0.0),
        "bench.pools_created": counts.get("bench.pools_created", 0),
        "bench.cpu_s_per_trial": cpu / trials,
        "bench.cpu_util": cpu / (wall * wl.workers),
        "bench.worker_threads": tracer.counts.get("bench.worker_threads", 0),
        "trace.overhead_frac": statistics.median(
            t.seconds / p.seconds for p, t in zip(plain, traced)) - 1.0,
    })
    return m
