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
