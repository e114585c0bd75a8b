"""Every function the benchmark traces must exist under the name it traces.

``benchmark/spans.py`` wraps the functions named in ``LAYERS`` by
``module:qualname``, and a method through its class's own ``__dict__``; a
rename in the library, or a method its class only inherits, would otherwise
surface only as a crash of the traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS_MODULE = _spans()
TARGETS = [target for targets in SPANS_MODULE.LAYERS.values() for target in targets]


@pytest.mark.parametrize("target", TARGETS)
def test_traced_name_resolves(target):
    # resolved as Patches.replace resolves it
    module, owner, attr = SPANS_MODULE._resolve(target)
    obj = getattr(module, attr) if owner is None else owner.__dict__[attr]
    assert callable(obj)
