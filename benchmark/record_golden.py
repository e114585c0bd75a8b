"""Write golden/<workload>.json: the outputs of one call at the recorded seed.

    python3 benchmark/record_golden.py

The golden files were recorded from the code the benchmark was defined on;
the benchmark compares every run's call at that seed with them.  Record
again only when a change is meant to alter the studies' results, and say so.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from run import BLAS_THREAD_VARS, ROOT

os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
sys.path.insert(0, str(ROOT / "src"))

from worker import Runner, git_commit  # noqa: E402
from workloads import GOLDEN_DIR, RECORDED_SEED, RTOL, WORKLOADS, cli_argv  # noqa: E402


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for w in WORKLOADS.values():
            problems, record = Runner(w, tmp).recorded_call()
            if problems:
                print(f"{w.name}: not recorded: {problems}", file=sys.stderr)
                return 1
            golden = {
                "workload": w.name,
                "argv": cli_argv(w, RECORDED_SEED, "<out>"),
                "rtol": RTOL,
                "recorded_from": git_commit(ROOT),
                "record": record,
            }
            path = GOLDEN_DIR / f"{w.name}.json"
            path.write_text(json.dumps(golden, indent=1) + "\n")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
