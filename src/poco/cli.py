"""Command-line entry point.

Commands
--------
run-exp1 / run-exp2 / run-exp3 / run-custom
    Run one of the three studies and write curve.csv, summary.txt and
    manifest.json into the output directory.  run-custom is study 1 with
    its arms labelled baseline and method; run-exp1 is its exp1 preset.
    A regret ledger whose descent.eta exceeds 1/L skips its bound check.
check-bounds
    Batch-verify the regret bounds (single-step, multi-step, expert pool)
    and the aggregation inequality on an exp1, exp2 or custom config, writing
    summary.txt and manifest.json; nonzero exit when any run violates one.
    A descent.eta above 1/L is a config error here.
project
    Project a vector onto a ball (--center, --radius) or a simplex (--mode)
    and print the result; a flag the chosen set does not read is refused.
fit-ar
    Fit an autoregression to a CSV series by the Yule-Walker equations and
    print the coefficients.

Run flags (--seed; --reps for the run-* commands; --runs and --expert-runs for
check-bounds) are merged into their config keys, so the manifest records them
and --config manifest.json alone replays a run.  Exit codes: 0 success, 1 a
requested check failed, 2 config error, 3 data error, 4 runtime error.  The
output directory defaults to --out, then $POCO_OUT, then ./poco_out.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from poco import __version__, experiments
from poco.config import (
    ConfigError,
    default_out_dir,
    emit_results,
    read_config,
    resolve_config,
)
from poco.domains import EuclideanBall, UnitSimplex
from poco.experiments import ExperimentResult
from poco.predictors import PredictorNotReady, fit_var_yule_walker
from poco.scenarios import DataError, read_numeric_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def run_custom(cfg: dict) -> ExperimentResult:
    """Study 1 built from the config and reported as a method arm against a
    baseline; run-exp1 is this command's exp1 preset."""
    result = experiments.run_exp1(cfg)
    notes = [
        f"custom comparison: predictor={cfg['predictor']['kind']} repetitions={cfg['repetitions']} "
        f"horizon={cfg['horizon']} seed={cfg['seed']}",
        "curve = cumulative regret (method) - cumulative regret (baseline)" + experiments.LEDGER_NOTE,
    ]
    ledgers = dict(zip(("baseline", "method"), result.ledgers.values()))
    return ExperimentResult(curve=result.curve, ledgers=ledgers, notes=notes)


# each study is looked up in its module at call time, so a replaced module
# attribute (a test's monkeypatch, a profiler's wrapper) is the one that runs
STUDIES = {
    "exp1": lambda cfg: experiments.run_exp1(cfg),
    "exp2": lambda cfg: experiments.run_exp2(cfg),
    "exp3": lambda cfg: experiments.run_exp3(cfg),
    "custom": run_custom,
}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _load_config(args) -> dict:
    """Resolve the config file (or the defaults) with every run flag merged
    into its key first, so the schema validates it and the manifest records it."""
    user = read_config(args.config) if args.config else {}
    for key, value in (("seed", args.seed), ("repetitions", getattr(args, "reps", None))):
        if value is not None:
            user[key] = value
    if args.experiment is None:  # check-bounds: refuse study 3, then add its flags
        if user.get("experiment") == "exp3":
            raise ConfigError("check-bounds takes an exp1, exp2 or custom config, not 'exp3'")
        for key in ("runs", "expert_runs"):  # a bounds value not an object is left to the schema
            value = getattr(args, key)
            if value is not None and isinstance(user.setdefault("bounds", {}), dict):
                user["bounds"][key] = value
    return resolve_config(user, experiment=args.experiment)


def _emit_and_report(curve, lines: list, cfg: dict, args) -> None:
    paths = emit_results(curve, lines, default_out_dir(args.out), cfg, __version__)
    if not args.quiet:
        for line in lines:
            print(line)
        print("wrote " + ", ".join(paths.values()))


def cmd_run_study(args) -> int:
    cfg = _load_config(args)
    result = STUDIES[args.experiment](cfg)
    _emit_and_report(result.curve, result.summary_lines(), cfg, args)
    return EXIT_OK


def cmd_verify_bounds(args) -> int:
    cfg = _load_config(args)
    studies = [
        experiments.run_predictive_bound_study(cfg, cfg["bounds"]["runs"], inner_steps=k)
        for k in (1, 2, 3)
    ]
    studies.append(experiments.run_expert_bound_study(cfg, cfg["bounds"]["expert_runs"]))
    lines = [f"bound verification (seed={cfg['seed']}, horizon={cfg['horizon']})"]
    for study in studies:
        lines.extend(study.summary_lines())
    all_ok = all(study.all_hold for study in studies)
    lines.append("RESULT: " + ("all bounds hold" if all_ok else "BOUND VIOLATION"))
    _emit_and_report(None, lines, cfg, args)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _parse_vector(text: str) -> np.ndarray:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    if not parts:
        raise ConfigError(f"vector {text!r} has no coordinates")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ConfigError(f"could not parse vector {text!r}") from exc


def cmd_project(args) -> int:
    v = _parse_vector(args.vector)
    for name in ("mode",) if args.kind == "ball" else ("center", "radius"):
        if getattr(args, name) is not None:
            raise ConfigError(f"--kind {args.kind} does not read --{name}")
    try:
        if args.kind == "ball":
            center = _parse_vector(args.center) if args.center else np.zeros(v.shape[0])
            cset = EuclideanBall(center=center, radius=1.0 if args.radius is None else args.radius)
        else:
            cset = UnitSimplex(v.shape[0], mode=args.mode or "exact")
        projected = cset.project(v)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(",".join(repr(float(x)) for x in projected))
    return EXIT_OK


def cmd_fit_ar(args) -> int:
    if args.order < 1:
        raise ConfigError(f"--order expects an integer >= 1, got {args.order}")
    series, _, _ = read_numeric_csv(args.csv)
    try:
        fit = fit_var_yule_walker(series, args.order)
    except PredictorNotReady as exc:
        raise DataError(
            f"{args.csv}: an order-{args.order} fit needs at least {exc.needed} "
            f"observations, have {exc.have}"
        ) from exc
    print(f"series: {series.shape[0]} observations, dimension {series.shape[1]}")
    print("mean: " + ",".join(repr(float(x)) for x in fit.mean))
    for h, phi in enumerate(fit.phis, start=1):
        for row in np.atleast_2d(phi):
            print(f"phi[{h}]: " + ",".join(repr(float(x)) for x in row))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_run_flags(sub):
    sub.add_argument("--config", help="path to a JSON config (or a manifest)")
    sub.add_argument("--out", help="output directory (default $POCO_OUT or ./poco_out)")
    sub.add_argument("--seed", type=int, help="master seed override")
    sub.add_argument("--quiet", action="store_true", help="suppress stdout report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poco",
        description="predictive online convex optimization: studies, bound checks, utilities",
    )
    parser.add_argument("--version", action="version", version=f"poco {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    for experiment in STUDIES:
        name = f"run-{experiment}"
        sub = subs.add_parser(name, help=f"{name.replace('-', ' ')}")
        _add_run_flags(sub)
        sub.add_argument("--reps", type=int, help="repetition count override")
        sub.set_defaults(func=cmd_run_study, experiment=experiment)

    sub = subs.add_parser("check-bounds", help="verify the regret bounds empirically")
    _add_run_flags(sub)
    sub.add_argument("--runs", type=int, help="descent-bound runs per k (default 100)")
    sub.add_argument("--expert-runs", dest="expert_runs", type=int,
                     help="expert-pool bound runs (default 50)")
    sub.set_defaults(func=cmd_verify_bounds, experiment=None)

    sub = subs.add_parser("project", help="project a vector onto a constraint set")
    sub.add_argument("--kind", choices=("ball", "simplex"), required=True)
    sub.add_argument("--vector", required=True, help="comma-separated coordinates")
    sub.add_argument("--center", help="ball center (defaults to the origin)")
    sub.add_argument("--radius", type=float, help="ball radius (default 1)")
    sub.add_argument("--mode", choices=("exact", "renormalize"), help="simplex (default exact)")
    sub.set_defaults(func=cmd_project)

    sub = subs.add_parser("fit-ar", help="Yule-Walker fit of a CSV series")
    sub.add_argument("--csv", required=True)
    sub.add_argument("--order", type=int, required=True)
    sub.set_defaults(func=cmd_fit_ar)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
