"""The benchmark tracer's seams must all exist on the package.

``perfbench/tracer.py`` wraps each seam only if it resolves, and reports a
missing one as ``trace.seams_absent`` rather than failing. This test turns
a renamed or folded seam into a failing test instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _seams():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SEAMS


@pytest.mark.parametrize("module, path", [(m, p) for _, m, p, _ in _seams()])
def test_seam_resolves(module, path):
    target = importlib.import_module(module)
    for attr in path.split("."):
        target = getattr(target, attr)
    assert callable(target)
