"""Every function the benchmark traces must exist under the name it traces.

``benchmark/spans.py`` wraps the functions named in ``LAYERS`` by
``module:qualname``; a rename in the library would otherwise surface only
as a crash of the traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


TARGETS = [target for targets in _layers().values() for target in targets]


@pytest.mark.parametrize("target", TARGETS)
def test_traced_name_resolves(target):
    module_name, _, qualname = target.partition(":")
    obj = importlib.import_module(module_name)
    for attr in qualname.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)
