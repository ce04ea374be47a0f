import os
from pathlib import Path

import pytest

from wlanradar.golay import GolayPair, generate_golay_pair

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def _child_interpreters_import_src():
    """Interpreters the tests start import the package from src, as the tests do."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", path)
        yield


@pytest.fixture(params=["(a, b)", "(b, a)", "(a, -b)"])
def pair128(request):
    """The default 128 Golay pair and two others the CEF tests also run with."""
    p = generate_golay_pair(128)
    return {"(a, b)": p, "(b, a)": GolayPair(p.b, p.a),
            "(a, -b)": GolayPair(p.a, -p.b)}[request.param]
