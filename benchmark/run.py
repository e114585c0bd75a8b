"""Benchmark of the poco studies: one run of one workload.

    python3 benchmark/run.py --workload portfolio --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src`` directory, so nothing needs installing.  Workloads:

* ``portfolio``: ``run-exp3`` (36 experts on 37 assets, renormalizing simplex);
* ``ar-pool``: ``run-exp2`` (AR experts joining mid-run, 2-d ball);
* ``bounds``: ``check-bounds`` (descent at k=1,2,3 and a fixed expert pool,
  with exact minimizers and regret ledgers).

Each run starts fresh processes with BLAS pinned to one thread: a few that
only import ``poco.cli`` (``setup_s``), then one worker that calls
``poco.cli.main(argv)`` in a closed loop with one caller for ``--seconds``
(see ``worker.py``).  Every call's output is checked, and one call at the
recorded seed is compared with ``golden/``.  Calls write into a temporary
directory under ``.bench_tmp/`` in the checkout, removed at the end.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``.  Lines before
it record the machine, the library versions and the sample counts.

End-to-end metrics:

* ``rounds_per_s``: rounds played, counted over every arm, repetition and
  bound run (the count per ``main(argv)`` call is printed), divided by the
  wall time of the ``main(argv)`` calls, over all the calls of the run;
* ``setup_s``: the median time of ``import poco.cli`` over six fresh processes;
* ``peak_rss_mb``: ``ru_maxrss`` of the worker process;
* ``check_pass_ratio``: checks passed over checks made.  A ratio of failures
  would read 0 on every healthy run; failures also show in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # setup_s times an import from cached bytecode, as a user sees it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _worker(args: list, env: dict, deadline: float) -> dict:
    """Run worker.py to completion and return its JSON report."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "poco" / "cli.py").is_file():
        print(f"no poco sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    env = _child_env()
    tmp_parent = ROOT / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_parent)
    try:
        setups = []
        if not args.trace:
            setups = [_worker(["--probe"], env, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        report = _worker(
            [
                "--workload", w.name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--tmp", tmp,
            ],
            env,
            deadline,
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass

    print("env: " + json.dumps(report["env"], sort_keys=True))
    print(f"workload {w.name}: {w.rounds} rounds per main() call ({w.rounds_note})")
    for problem in report["problems"]:
        print("check failed: " + problem)
    attempted, failed = report["attempted"], len(report["problems"])
    if args.trace:
        print(
            f"per-layer metrics of one main() call, from {report['traced_calls']} traced "
            f"calls; {report['span_cost_us']:.2f} us of wrapper time removed per span"
        )
        metrics = report["metrics"]
    else:
        setups.append(report["setup_s"])
        walls = report["call_walls"]
        print(
            f"rounds_per_s: {w.rounds} rounds x {len(walls)} calls / {sum(walls):.2f} s; "
            f"calls took {min(walls):.3f}-{max(walls):.3f} s, median {statistics.median(walls):.3f} s; "
            f"setup_s: median of {len(setups)} fresh imports"
        )
        metrics = {
            "rounds_per_s": {"value": report["rounds_per_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "check_pass_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
