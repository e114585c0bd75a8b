"""Each benchmark workload steps the expert pool as often as it declares.

``benchmark/workloads.py`` states, per workload, how many ``ExpertPool.step``
calls one ``poco`` CLI call makes (``pool_steps``), and the traced benchmark
run checks its ``smad.step.calls`` against that figure.  Counting the calls
here makes a refactor that changes them fail the test suite, not only a
traced benchmark run.  Nothing under ``benchmark/`` is modified.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from poco.cli import EXIT_OK, main
from poco.smad import ExpertPool

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while being built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


BENCH = _workloads()


@pytest.mark.parametrize("name", sorted(BENCH.WORKLOADS))
def test_pool_steps_match_the_workload(name, tmp_path, monkeypatch):
    workload = BENCH.WORKLOADS[name]
    calls = []
    step = ExpertPool.step

    def counting(self, *args, **kwargs):
        calls.append(1)
        return step(self, *args, **kwargs)

    monkeypatch.setattr(ExpertPool, "step", counting)
    argv = BENCH.cli_argv(workload, BENCH.RECORDED_SEED, str(tmp_path))
    assert main(argv) == EXIT_OK
    assert len(calls) == workload.pool_steps
