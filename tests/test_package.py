import importlib
import inspect
import subprocess
import sys
from dataclasses import replace

import pytest

MODULES = ["wlanradar", "wlanradar.airlink", "wlanradar.bench", "wlanradar.cli",
           "wlanradar.dsp", "wlanradar.frame", "wlanradar.golay", "wlanradar.radar",
           "wlanradar.sync"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_api(name):
    # every __all__ name resolves, and every public function or class the
    # module defines is listed
    mod = importlib.import_module(name)
    exported = set(mod.__all__)
    assert len(exported) == len(mod.__all__)
    for attr in exported:
        assert hasattr(mod, attr), attr
    defined = {
        attr for attr, obj in vars(mod).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == name
    }
    assert defined <= exported, sorted(defined - exported)


def test_no_seed_or_rng_default():
    # a defaulted seed draws OS entropy unseen: every caller passes its own
    for name in MODULES:
        mod = importlib.import_module(name)
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn):
                continue
            for p in inspect.signature(fn).parameters.values():
                if p.name in ("seed", "rng"):
                    assert p.default is p.empty, f"{name}.{attr}({p.name}={p.default!r})"


def test_import_loads_neither_scipy_signal_nor_stats():
    # a fresh interpreter: scipy.stats loads only when detection_probability runs
    code = """
import sys
import wlanradar.bench, wlanradar.cli
print(sorted(m for m in sys.modules if m.startswith(("scipy.signal", "scipy.stats"))))
from wlanradar.radar import detection_probability
pd = detection_probability(0.01, 1e-4, 256)
print("scipy.stats" in sys.modules)
import numpy as np
from scipy.stats import ncx2
print(pd == float(ncx2.sf(-2 * np.log(1e-4), 2, 2 * 256 * 0.01)))
"""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       check=True)
    assert r.stdout.splitlines() == ["[]", "True", "True"]


@pytest.fixture
def tracing(monkeypatch):
    """perfbench/tracing.py, loaded from its path as the traced bench run loads it."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_perfbench_layer_probes_resolve(tracing):
    # perfbench/tracing.py rebinds these names to time the layers; a rename in
    # src would otherwise break only the traced benchmark run
    from concurrent.futures import ProcessPoolExecutor

    assert len(tracing.LAYER_PROBES) == 13
    for module, attr, _ in tracing.LAYER_PROBES:
        assert module in ("bench", "airlink", "sync"), module
        assert callable(getattr(importlib.import_module(f"wlanradar.{module}"), attr)), attr
    # pool_counter counts pools by replacing this module global
    assert importlib.import_module("wlanradar.bench").ProcessPoolExecutor is ProcessPoolExecutor


def test_perfbench_map_probe_counts_detections(tracing, monkeypatch):
    # the traced run reads .delay_bin and .velocity_mps of every map
    # detection: a changed return type would otherwise crash only that run
    from wlanradar import bench

    spec = bench.ExperimentSpec(kind="ddmap", scenario=bench.two_vehicle_scenario(),
                                sweep=(20.0,), trials=1, seed=3, pfa=1e-4)
    scen = spec.scenario
    one_bin = scen.wavelength / (2 * scen.n_frames * scen.frame_k * scen.ts)
    truth = {round(t.delay() / scen.ts): (t.velocity_mps, one_bin) for t in scen.targets}
    seen = []
    detect = bench.detect_targets_map

    def counting_detect(*args, **kwargs):
        dets = detect(*args, **kwargs)
        seen.append(len(dets))
        return dets

    monkeypatch.setattr(bench, "detect_targets_map", counting_detect)
    tracer = tracing.Tracer()
    with tracing.layer_probes(tracer, truth):
        bench.run_experiment(spec)
    assert len(seen) == 1 and seen[0] > 2
    assert tracer.counts["radar.map_detections"] == seen[0]
    assert tracer.counts["radar.map_true_found"] == 2


def test_perfbench_map_probe_on_no_detections(tracing):
    # a map with no cell above the threshold gives a zero-length array
    import numpy as np

    from wlanradar.radar import MapDetection

    tracer = tracing.Tracer()
    tracing._map_detections({118: (60.0, 0.5), 168: (30.0, 0.5)})(
        tracer, np.recarray(0, dtype=MapDetection))
    assert tracer.counts["radar.map_detections"] == 0
    assert tracer.counts["radar.map_true_found"] == 0


def _same(a, b) -> bool:
    """Equal contents, recursing into containers; arrays compare by value and dtype."""
    import numpy as np

    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_same(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return a == b


def test_no_module_level_mutable_state():
    # running every experiment kind leaves each dict, list, set and array
    # global of the package the same object with the same contents
    import copy

    import numpy as np

    from wlanradar import bench

    def mutable_globals():
        return {
            (name, attr): obj
            for name in MODULES
            for attr, obj in vars(importlib.import_module(name)).items()
            if isinstance(obj, (dict, list, set, np.ndarray)) and attr != "__builtins__"
        }

    before = mutable_globals()
    snapshots = copy.deepcopy(before)
    assert ("wlanradar.bench", "_PIPELINES") in before
    scen = bench.Scenario(n_frames=2, frame_k=4096, header_len=0)
    specs = [
        bench.ExperimentSpec(kind="ambiguity", doppler_grid=(0.0, 1e6), trials=1),
        bench.ExperimentSpec(kind="detection", sweep=(-20.0,), trials=2, seed=1),
        bench.ExperimentSpec(kind="range-mse", sweep=(10.0,), trials=2, seed=1),
        bench.ExperimentSpec(kind="velocity-mse", scenario=scen, sweep=(10.0,), trials=2),
        bench.ExperimentSpec(kind="tradeoff", sweep=(2,), trials=2, seed=1),
        bench.ExperimentSpec(kind="linkbudget", sweep=(50.0,), trials=1),
        bench.ExperimentSpec(kind="ddmap", scenario=replace(bench.two_vehicle_scenario(),
                                                             n_frames=2),
                             sweep=(20.0,), trials=1, seed=1),
        bench.ExperimentSpec(kind="crlb", sweep=(0.0,), trials=1),
    ]
    assert sorted(s.kind for s in specs) == sorted(bench._PIPELINES)
    for spec in specs:
        bench.run_experiment(spec)
    after = mutable_globals()
    assert after.keys() == before.keys()
    for key, obj in before.items():
        assert after[key] is obj, f"{key} was rebound"
        assert _same(obj, snapshots[key]), f"{key} was mutated"
