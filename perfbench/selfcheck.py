"""Self-checks of the benchmark's own machinery.

    python3 perfbench/selfcheck.py

* span arithmetic: interval unions, self times, nesting of the tracer;
* output checks: tampered CSVs of every workload are rejected;
* counts: two traced runs at the same seed give identical counts, and the
  layer self times plus ``bench.other_ms`` add up to ``bench.trial_ms``;
* BENCHMARK.json lists exactly the metrics and workloads ``run.py`` reports.

Exits with 1 when any check fails.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import time
import traceback

import run

run._use_source_tree()

import measure  # noqa: E402  (needs the source tree on sys.path)
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from wlanradar.bench import run_experiment  # noqa: E402

CHECKS = []


def check(fn):
    CHECKS.append(fn)
    return fn


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


@check
def covered_length_merges_overlaps():
    expect(tracing.covered_length([]) == 0.0, "empty union")
    expect(tracing.covered_length([(0, 1), (2, 3)]) == 2.0, "disjoint")
    expect(tracing.covered_length([(2, 5), (1, 3)]) == 4.0, "overlapping, unsorted")
    expect(tracing.covered_length([(0, 10), (2, 3), (4, 6)]) == 10.0, "nested")
    expect(tracing.covered_length([(0, 1), (1, 2)]) == 2.0, "touching")


@check
def self_time_subtracts_children_once():
    S = tracing.Span
    spans = [
        S("op", 0.0, 10.0, -1),
        S("a", 1.0, 3.0, 0),
        S("b", 2.0, 5.0, 0),        # overlaps a: children cover [1, 5]
        S("c", 1.5, 2.5, 1),        # grandchild: not subtracted from op
        S("d", 9.0, 12.0, 0),       # overhangs op: clipped to [9, 10]
        S("a", 20.0, 21.0, -1),     # a second root of the same name adds up
    ]
    got = tracing.self_times(spans)
    want = {"op": 10 - 4 - 1, "a": (2 - 1) + 1, "b": 3, "c": 1, "d": 3}
    for k, v in want.items():
        expect(math.isclose(got[k], v), f"self time of {k}: {got[k]} != {v}")


@check
def tracer_nests_and_self_times_sum_to_root():
    tr = tracing.Tracer()
    with tr.span("op"):
        with tr.span("x"):
            with tr.span("y"):
                time.sleep(0.002)
        time.sleep(0.002)
        tr.wrap(lambda: time.sleep(0.001), "z")()
    expect([s.parent for s in tr.spans] == [-1, 0, 1, 0], f"parents {tr.spans}")
    expect(all(s.end >= s.start for s in tr.spans), "span ends before it starts")
    root = tr.spans[0].end - tr.spans[0].start
    expect(math.isclose(sum(tracing.self_times(tr.spans).values()), root, rel_tol=1e-9),
           "self times do not add up to the root span")


@check
def probes_are_restored():
    import wlanradar.airlink
    import wlanradar.bench
    import wlanradar.sync

    mods = {"bench": wlanradar.bench, "airlink": wlanradar.airlink, "sync": wlanradar.sync}
    before = {(m, a): getattr(mods[m], a) for m, a, _ in tracing.LAYER_PROBES}
    pool = wlanradar.bench.ProcessPoolExecutor
    tr = tracing.Tracer()
    with tracing.layer_probes(tr, {}), tracing.pool_counter(tr):
        expect(all(getattr(mods[m], a) is not f for (m, a), f in before.items()),
               "a layer function was not wrapped")
    expect(all(getattr(mods[m], a) is f for (m, a), f in before.items()),
           "a layer function was not restored")
    expect(wlanradar.bench.ProcessPoolExecutor is pool, "pool class not restored")


# ---------------------------------------------------------------------------
# output checks reject tampered CSVs
# ---------------------------------------------------------------------------


def _real_op(name, value, trials):
    """A workload, a spec and the CSV that ``run_experiment`` returns for it."""
    wl = WORKLOADS[name]
    spec = wl.spec(12345, value, trials=trials)
    return wl, spec, run_experiment(spec, workers=1).to_csv_text()


def _replace_value(csv_text, metric, new, sweep=None):
    lines = csv_text.splitlines()
    for i, line in enumerate(lines):
        f = line.split(",")
        if f[1] == metric and (sweep is None or f[0] == sweep):
            f[2] = new
            lines[i] = ",".join(f)
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no {metric} row to tamper with")


@check
def detection_checks_reject_tampering():
    wl, spec, csv = _real_op("detect-serial", -20.0, 8)
    expect(wl.check(csv, spec) == [], "genuine detection CSV rejected")
    for bad in ("1.5", "-0.1", "0.5"):
        expect(wl.check(_replace_value(csv, "pd", bad), spec), f"pd={bad} at -20 dB accepted")


@check
def cross_check_rejects_a_changed_digit():
    wl, spec, csv = _real_op("detect-serial", -20.0, 8)
    theory = [line for line in csv.splitlines() if ",pd_theory," in line][0]
    digit = theory.split(",")[2]
    flipped = digit[:-1] + ("1" if digit[-1] != "1" else "2")
    tampered = csv.replace(theory, theory.replace(digit, flipped))

    def op(text):
        return {"key": 0, "digest": hashlib.sha256(text.encode()).hexdigest(), "problems": []}

    reference = measure.reference_digests(WORKLOADS["detect-parallel"], 1)
    ops = [op(csv)]
    run.cross_check(ops, {0: ops[0]["digest"]})
    expect(ops[0]["problems"] == [], "genuine CSV differs from its own 1-worker digest")
    ops = [op(tampered)]
    run.cross_check(ops, {0: op(csv)["digest"]})
    expect(any("1-worker" in p for p in ops[0]["problems"]),
           "a one-digit change passed the 1-worker CSV match")
    ops = [op(csv), op(tampered)]
    run.cross_check(ops, None)
    expect(ops[0]["problems"] == [] and ops[1]["problems"],
           "two different CSVs of one spec were accepted")
    expect(set(reference) == {0, 1, 2, 3} and None not in reference.values(),
           f"reference digests {reference}")


@check
def velocity_checks_reject_tampering():
    wl, spec, csv = _real_op("velocity-cpi", 10.0, 4)
    expect(wl.check(csv, spec) == [], "genuine velocity CSV rejected")
    for bad in ("nan", "inf", "1e-12"):
        tampered = _replace_value(csv, "velocity_mse_m2s2", bad)
        expect(wl.check(tampered, spec), f"velocity MSE {bad} accepted")


@check
def ddmap_checks_reject_tampering():
    wl, spec, csv = _real_op("ddmap-cpi", 20.0, 1)
    expect(wl.check(csv, spec) == [], "genuine ddmap CSV rejected")
    expect(wl.check(_replace_value(csv, "delay_bin", "117", "0"), spec),
           "wrong delay bin accepted")
    expect(wl.check(_replace_value(csv, "velocity_mps", "45", "1"), spec),
           "wrong velocity accepted")
    expect(wl.check(csv.replace(",velocity_mps,", ",speed,", 1), spec),
           "CSV without a velocity row accepted")


# ---------------------------------------------------------------------------
# counts repeat; self times close; BENCHMARK.json agrees
# ---------------------------------------------------------------------------


def _traced(name, seed):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@check
def counts_repeat_and_self_times_close():
    for name in run.ALL_WORKLOADS:
        a, b = _traced(name, 7), _traced(name, 7)
        for res in (a, b):
            expect(res["correct"], f"{name}: traced run failed its output checks")
        for k in run.COUNTS:
            va, vb = a["metrics"][k]["value"], b["metrics"][k]["value"]
            expect(va == vb, f"{name}: {k} {va} != {vb} at the same seed")
        m = {k: v["value"] for k, v in a["metrics"].items()}
        parts = sum(v for k, v in m.items()
                    if k.endswith("_ms") and k not in ("bench.trial_ms",))
        expect(math.isclose(parts, m["bench.trial_ms"], rel_tol=1e-9),
               f"{name}: self times {parts} != trial {m['bench.trial_ms']} ms")
        print(f"    {name}: " + ", ".join(f"{k}={a['metrics'][k]['value']:g}"
                                         for k in run.COUNTS))


@check
def benchmark_json_matches_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END, f"end_to_end {e2e} != {run.END_TO_END}")
    expect(layer == run.PER_LAYER, "per_layer differs from run.PER_LAYER")
    expect([w["name"] for w in spec["workloads"]] == list(run.BENCHMARK_WORKLOADS),
           "workload names differ")


def main() -> int:
    failed = 0
    for fn in CHECKS:
        try:
            fn()
        except Exception:
            failed += 1
            print(f"FAIL {fn.__name__}\n{traceback.format_exc()}")
        else:
            print(f"PASS {fn.__name__}")
    print(f"{len(CHECKS) - failed} of {len(CHECKS)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
