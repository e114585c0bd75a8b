"""Golden outputs: the studies reproduce the recorded curves and bound-study
values.

``tests/data/golden.json`` was written by ``tests/data/record_golden.py``
before the studies were merged into one paired-arm harness.  Every value
must match to a relative tolerance of RTOL = 1e-9:
|got - want| <= RTOL * max(|got|, |want|).
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import poco.experiments as experiments
from poco.cli import EXIT_OK, main

DATA = Path(__file__).resolve().parent / "data"
sys.path.insert(0, str(DATA))

from record_golden import BOUND_RUNS, REPS, record, study_record  # noqa: E402

RTOL = 1e-9


@pytest.fixture(scope="module")
def golden():
    with open(DATA / "golden.json") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def current():
    return record()


def assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = np.maximum(np.abs(got), np.abs(want))
    assert np.all(np.abs(got - want) <= RTOL * scale), (got, want)


def test_recorded_at_stated_scale(golden):
    assert golden["repetitions"] == REPS
    assert golden["bound_runs"] == BOUND_RUNS


@pytest.mark.parametrize(
    "name",
    ["run_exp1", "run_exp2", "run_exp3", "run_custom", "run_custom_standard"],
)
def test_mean_diff_matches_golden(golden, current, name):
    assert_close(current["mean_diff"][name], golden["mean_diff"][name])


def assert_studies_match(got, want):
    assert [s["label"] for s in got] == [s["label"] for s in want]
    for g, w in zip(got, want):
        for key in ("n_runs", "n_pass", "n_hedge_pass"):
            assert g[key] == w[key], (g["label"], key)
        assert_close(g["reg_d"], w["reg_d"])


def test_bound_studies_match_golden(golden, current):
    assert_studies_match(current["bound_studies"], golden["bound_studies"])


def test_check_bounds_command_matches_golden(golden, tmp_path, monkeypatch):
    # capture the studies that check-bounds runs through the module bindings
    studies = []

    def capturing(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            studies.append(result)
            return result
        return wrapper

    for name in ("run_predictive_bound_study", "run_expert_bound_study"):
        monkeypatch.setattr(experiments, name, capturing(getattr(experiments, name)))
    code = main([
        "check-bounds", "--runs", str(BOUND_RUNS), "--expert-runs", str(BOUND_RUNS),
        "--out", str(tmp_path), "--quiet",
    ])
    assert code == EXIT_OK
    assert_studies_match([study_record(s) for s in studies], golden["bound_studies"])
