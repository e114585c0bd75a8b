"""Record the golden study outputs that tests/test_golden.py compares with.

Run from the repository root against the code whose outputs are the
reference::

    PYTHONPATH=src python3 tests/data/record_golden.py > tests/data/golden.json

It calls the public study entry points with ``resolve_config(overrides,
experiment)``, the config the CLI resolves, at each experiment's defaults,
the default seed and 2 repetitions (3 runs per bound study).
"""

import json
import sys

from poco.cli import run_custom
from poco.config import resolve_config
from poco.experiments import (
    run_exp1,
    run_exp2,
    run_exp3,
    run_expert_bound_study,
    run_predictive_bound_study,
)

REPS = 2
BOUND_RUNS = 3


def _floats(values) -> list:
    return [float(v) for v in values]


def study_record(study) -> dict:
    return {
        "label": study.label,
        "n_runs": study.n_runs,
        "n_pass": study.n_pass,
        "n_hedge_pass": sum(1 for r in study.records if r.hedge_holds),
        "reg_d": _floats(r.reg_d for r in study.records),
    }


def record() -> dict:
    curves = {
        "run_exp1": run_exp1(resolve_config({"repetitions": REPS}, "exp1")),
        "run_exp2": run_exp2(resolve_config({"repetitions": REPS}, "exp2")),
        "run_exp3": run_exp3(resolve_config({"repetitions": REPS}, "exp3")),
        "run_custom": run_custom(resolve_config({"repetitions": REPS}, "custom")),
        # standard descent in both arms: persistence aims at the last observation
        "run_custom_standard": run_custom(
            resolve_config(
                {"repetitions": REPS, "predictor": {"kind": "persistence"}}, "custom"
            )
        ),
    }
    cfg = resolve_config({}, "exp1")
    studies = [
        run_predictive_bound_study(cfg, BOUND_RUNS, inner_steps=k) for k in (1, 2, 3)
    ]
    studies.append(run_expert_bound_study(cfg, BOUND_RUNS))
    return {
        "repetitions": REPS,
        "bound_runs": BOUND_RUNS,
        "mean_diff": {
            name: _floats(res.curve.mean_diff) for name, res in curves.items()
        },
        "bound_studies": [study_record(s) for s in studies],
    }


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1)
    sys.stdout.write("\n")
