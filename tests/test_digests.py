"""Byte identity of the benchmark's commands: every file that run-exp1,
run-exp2, run-exp3 and check-bounds write at the benchmark's scale, at seeds
1729 and 7, has the sha256 that ``tests/data/record_digests.py`` recorded in
``tests/data/digests.json``.

Another Python, numpy or BLAS build may round differently, so the test skips,
naming the difference, where the environment is not the recorded one.  A
change that moves an output on purpose re-records the file and says which
digests moved and why.
"""

import json
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"
sys.path.insert(0, str(DATA))

from record_digests import digests, environment  # noqa: E402


def test_outputs_match_the_recorded_digests(tmp_path):
    recorded = json.loads((DATA / "digests.json").read_text())
    here = environment()
    differences = [
        f"{name} {recorded['environment'].get(name)} recorded, {value} here"
        for name, value in here.items()
        if recorded["environment"].get(name) != value
    ]
    if differences:
        pytest.skip("digests recorded in another environment: " + "; ".join(differences))
    got, want = digests(tmp_path), recorded["digests"]
    moved = sorted(
        f"{command}: {name}"
        for command in got.keys() | want.keys()
        for name in got.get(command, {}).keys() | want.get(command, {}).keys()
        if got.get(command, {}).get(name) != want.get(command, {}).get(name)
    )
    assert not moved, "outputs moved: " + ", ".join(moved)
