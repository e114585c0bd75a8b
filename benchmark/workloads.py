"""The benchmark's workloads: what each one runs, how many rounds that is,
and how its outputs are checked.

Every workload is one ``poco`` CLI command at its default configuration
with fewer repetitions, so that one ``main(argv)`` call takes about a second
and a run holds many of them.  The expected counts below (150 evaluation
months, a 200-round horizon, the first expert joining at round 10) are the
program's defaults, written out here as independent reference values.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

# The program's default master seed.  The golden files hold the outputs of
# one call at this seed, recorded from the code the benchmark was defined on.
RECORDED_SEED = 1729
# Relative tolerance for golden comparisons: |a - b| <= RTOL * max(|a|, |b|).
RTOL = 1e-9
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

PORTFOLIO_REPS = 2
AR_POOL_REPS = 5
BOUND_RUNS = 4
BOUND_EXPERT_RUNS = 4

EXP3_MONTHS = 150
EXP2_HORIZON = 200
EXP2_FIRST_ACTIVATION = 10
BOUNDS_HORIZON = 200


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # poco CLI arguments, without --seed, --out and --quiet
    rounds: int  # rounds per main() call, over every arm, repetition and bound run
    rounds_note: str
    pool_steps: int  # ExpertPool.step calls per main() call
    horizon: int = 0  # rows of curve.csv; 0 for a command that writes no curve
    zero_before: int = 1  # mean_diff is exactly 0 for every t < zero_before


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="portfolio",
            argv=("run-exp3", "--reps", str(PORTFOLIO_REPS)),
            rounds=PORTFOLIO_REPS * EXP3_MONTHS * 2,
            rounds_note=f"{PORTFOLIO_REPS} reps x {EXP3_MONTHS} months x 2 arms",
            pool_steps=PORTFOLIO_REPS * EXP3_MONTHS,
            horizon=EXP3_MONTHS,
        ),
        Workload(
            name="ar-pool",
            argv=("run-exp2", "--reps", str(AR_POOL_REPS)),
            rounds=AR_POOL_REPS * EXP2_HORIZON * 2,
            rounds_note=f"{AR_POOL_REPS} reps x {EXP2_HORIZON} rounds x 2 arms",
            # the pool is empty, and run_smad plays plain descent, until the
            # first activation
            pool_steps=AR_POOL_REPS * (EXP2_HORIZON - EXP2_FIRST_ACTIVATION + 1),
            horizon=EXP2_HORIZON,
            zero_before=EXP2_FIRST_ACTIVATION,
        ),
        Workload(
            name="bounds",
            argv=(
                "check-bounds",
                "--runs", str(BOUND_RUNS),
                "--expert-runs", str(BOUND_EXPERT_RUNS),
            ),
            rounds=(3 * BOUND_RUNS + BOUND_EXPERT_RUNS) * BOUNDS_HORIZON,
            rounds_note=(
                f"(3 x {BOUND_RUNS} descent runs + {BOUND_EXPERT_RUNS} "
                f"expert-pool runs) x {BOUNDS_HORIZON} rounds"
            ),
            pool_steps=BOUND_EXPERT_RUNS * BOUNDS_HORIZON,
        ),
    )
}

OUTPUT_FILES = ("curve.csv", "summary.txt", "manifest.json")
ALL_HOLD = "RESULT: all bounds hold"


def cli_argv(w: Workload, seed: int, out_dir: str) -> list:
    return [*w.argv, "--seed", str(seed), "--out", out_dir, "--quiet"]


def read_outputs(out_dir: str) -> dict:
    """Bytes of every output file the call wrote, by file name."""
    found = {}
    for name in OUTPUT_FILES:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as handle:
                found[name] = handle.read()
    return found


def _curve_columns(text: str) -> list:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "t,mean_diff,std_diff":
        raise ValueError("curve.csv has no t,mean_diff,std_diff header")
    return [[float(cell) for cell in line.split(",")] for line in lines[1:]]


def check_outputs(w: Workload, rc: int, outputs: dict, seed: int) -> list:
    """Invariants that hold at any seed; returns the problems found."""
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    try:
        manifest = json.loads(outputs["manifest.json"])
        if manifest.get("seed") != seed:
            problems.append(f"manifest seed {manifest.get('seed')} != {seed}")
        summary = outputs["summary.txt"].decode()
        if w.horizon:
            rows = _curve_columns(outputs["curve.csv"].decode())
            if len(rows) != w.horizon:
                problems.append(f"curve has {len(rows)} rows, expected {w.horizon}")
            if not all(math.isfinite(v) for row in rows for v in row):
                problems.append("curve holds a non-finite value")
            early = [row[1] for row in rows if row[0] < w.zero_before]
            if any(v != 0.0 for v in early):
                problems.append(f"mean_diff is not exactly 0 before round {w.zero_before}")
        elif ALL_HOLD not in summary.splitlines():
            problems.append(f"summary lacks {ALL_HOLD!r}")
    except (KeyError, ValueError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def study_record(studies: list) -> list:
    """PASS counts and Reg_D values of check-bounds' bound studies."""
    return [
        {
            "label": s.label,
            "n_runs": s.n_runs,
            "n_pass": s.n_pass,
            "n_hedge_pass": sum(1 for r in s.records if r.hedge_holds),
            "reg_d": [float(r.reg_d) for r in s.records],
        }
        for s in studies
    ]


def golden_record(w: Workload, outputs: dict, studies: list) -> dict:
    if w.horizon:
        rows = _curve_columns(outputs["curve.csv"].decode())
        return {"mean_diff": [row[1] for row in rows]}
    return {"studies": study_record(studies)}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def _compare_floats(label: str, got: list, want: list) -> list:
    if len(got) != len(want):
        return [f"{label}: {len(got)} values, golden has {len(want)}"]
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if not _close(a, b)]
    if bad:
        i = bad[0]
        return [
            f"{label}: {len(bad)} values differ beyond rtol {RTOL}; "
            f"first at index {i}: {got[i]!r} vs golden {want[i]!r}"
        ]
    return []


def compare_golden(w: Workload, record: dict) -> list:
    with open(GOLDEN_DIR / f"{w.name}.json") as handle:
        golden = json.load(handle)["record"]
    if w.horizon:
        return _compare_floats("mean_diff", record["mean_diff"], golden["mean_diff"])
    got, want = record["studies"], golden["studies"]
    if [s["label"] for s in got] != [s["label"] for s in want]:
        return ["bound study labels differ from golden"]
    problems = []
    for g, s in zip(got, want):
        for key in ("n_runs", "n_pass", "n_hedge_pass"):
            if g[key] != s[key]:
                problems.append(f"{g['label']}: {key} {g[key]} vs golden {s[key]}")
        problems += _compare_floats(f"{g['label']} Reg_D", g["reg_d"], s["reg_d"])
    return problems
