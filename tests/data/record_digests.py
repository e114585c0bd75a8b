"""Record the sha256 of every file the benchmark's four commands write, which
tests/test_digests.py recomputes.

Run from the repository root against the code whose outputs are the
reference::

    PYTHONPATH=src python3 tests/data/record_digests.py > tests/data/digests.json

Each command runs through ``poco.cli.main`` in this process, once per seed,
into a fresh output directory.  The Python, numpy and BLAS versions are
recorded alongside: another BLAS build may round differently, so the digests
hold only where the environment matches.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from poco.cli import EXIT_OK, main

COMMANDS = (
    ("run-exp1", "--reps", "5"),
    ("run-exp2", "--reps", "5"),
    ("run-exp3", "--reps", "2"),
    ("check-bounds", "--runs", "4", "--expert-runs", "4"),
)
SEEDS = (1729, 7)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


def digests(work_dir) -> dict:
    """``{"<command> --seed <seed>": {file name: sha256}}`` for every
    command and seed, each run writing under ``work_dir``."""
    found = {}
    for argv in COMMANDS:
        for seed in SEEDS:
            name = f"{' '.join(argv)} --seed {seed}"
            out = Path(work_dir) / f"{argv[0]}-{seed}"
            code = main([*argv, "--seed", str(seed), "--out", str(out), "--quiet"])
            if code != EXIT_OK:
                raise RuntimeError(f"{name} exited {code}")
            found[name] = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out.iterdir())
            }
    return found


def record() -> dict:
    with tempfile.TemporaryDirectory() as work_dir:
        return {"environment": environment(), "digests": digests(work_dir)}


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
