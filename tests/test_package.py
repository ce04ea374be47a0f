import importlib
import inspect

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


def test_perfbench_layer_probes_resolve(monkeypatch):
    # perfbench/tracing.py rebinds these names to time the layers; a rename in
    # src would otherwise break only the traced benchmark run
    import importlib.util
    import sys
    from concurrent.futures import ProcessPoolExecutor
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert len(tracing.LAYER_PROBES) == 13
    for module, attr, _ in tracing.LAYER_PROBES:
        assert module in ("bench", "airlink", "sync"), module
        assert callable(getattr(importlib.import_module(f"wlanradar.{module}"), attr)), attr
    # pool_counter counts pools by replacing this module global
    assert importlib.import_module("wlanradar.bench").ProcessPoolExecutor is ProcessPoolExecutor
