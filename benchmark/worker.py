"""One benchmark run of one workload, in a fresh single-threaded process.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the
import path.  It times ``import poco.cli``, checks one call at the recorded
seed against the golden files, then calls ``poco.cli.main(argv)`` in a
closed loop, one call after the other, until ``--seconds`` have passed.
The result is printed as one JSON line.

With ``--trace 1`` the loop alternates an untraced call with a traced call
at one seed, and self-tests the trace: every ``.calls`` count repeats
across traced calls, traced outputs are byte-identical to untraced ones,
``ExpertPool.step`` runs the expected number of times, and no wrapper is
left behind.

``--probe`` only times the import and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from workloads import (
    RECORDED_SEED,
    WORKLOADS,
    check_outputs,
    cli_argv,
    compare_golden,
    golden_record,
    read_outputs,
)

# spans.py imports numpy, so it is imported only after poco.cli has been timed

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", help="directory for the calls' output")
    return parser.parse_args(argv)


class Runner:
    """Makes main() calls and tallies the checks made on them."""

    def __init__(self, workload, tmp: str):
        import poco.cli

        self.cli = poco.cli
        self.w = workload
        self.tmp = tmp
        self.attempted = 0
        self.problems = []

    def call(self, seed: int):
        """One main() call; returns its wall time and its checked outputs."""
        out_dir = tempfile.mkdtemp(dir=self.tmp)
        try:
            argv = cli_argv(self.w, seed, out_dir)
            start = time.perf_counter()
            rc = self.cli.main(argv)
            wall = time.perf_counter() - start
            outputs = read_outputs(out_dir)
        finally:
            shutil.rmtree(out_dir)
        return wall, outputs, check_outputs(self.w, rc, outputs, seed)

    def record(self, label: str, problems: list) -> None:
        """Count one check, and keep its problems if it failed."""
        self.attempted += 1
        if problems:
            self.problems.append(f"{label}: " + "; ".join(problems))

    def recorded_call(self):
        """The call at the recorded seed: its invariant problems, and the
        record compared with the golden file.  For check-bounds the bound
        studies' results are captured on the way."""
        from spans import Patches

        studies = []

        def capture(fn):
            def capturing(*args, **kwargs):
                result = fn(*args, **kwargs)
                studies.append(result)
                return result
            return capturing

        patches = Patches()
        if not self.w.horizon:
            patches.replace("poco.experiments:run_predictive_bound_study", capture)
            patches.replace("poco.experiments:run_expert_bound_study", capture)
        try:
            _, outputs, problems = self.call(RECORDED_SEED)
        finally:
            patches.restore()
        return problems, None if problems else golden_record(self.w, outputs, studies)

    def golden_call(self) -> None:
        problems, record = self.recorded_call()
        if not problems:
            try:
                problems = compare_golden(self.w, record)
            except (KeyError, ValueError, OSError) as exc:
                problems = [f"golden comparison failed: {exc!r}"]
        self.record(f"golden call (seed {RECORDED_SEED})", problems)


def timed_loop(runner: Runner, seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    walls = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        call_seed = rng.randrange(2**31)
        wall, _, problems = runner.call(call_seed)
        runner.record(f"seed {call_seed}", problems)
        walls.append(wall)
    # work completed per second over the whole run: a slow spell on the
    # machine weighs in by its length, where a median of the calls would
    # jump between the fast and the slow calls
    return {
        "rounds_per_s": runner.w.rounds * len(walls) / sum(walls),
        "call_walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_loop(runner: Runner, seed: int, seconds: float) -> dict:
    from spans import Tracer, layer_metrics, leftover_wrappers, span_cost_ns

    call_seed = random.Random(seed).randrange(2**31)
    plain_walls, traced_walls, summaries = [], [], []
    selftest = []
    reference = None
    cost_ns = span_cost_ns()

    def plain_call():
        wall, outputs, problems = runner.call(call_seed)
        runner.record(f"untraced call (seed {call_seed})", problems)
        plain_walls.append(wall)
        return outputs

    def traced_call():
        with Tracer() as tracer:
            wall, outputs, problems = runner.call(call_seed)
        runner.record(f"traced call (seed {call_seed})", problems)
        traced_walls.append(wall)
        summaries.append(tracer.summary(cost_ns))
        return outputs

    deadline = time.perf_counter() + seconds
    while len(summaries) < 2 or time.perf_counter() < deadline:
        # alternate which of the pair runs first, so order effects cancel
        if len(summaries) % 2:
            traced = traced_call()
            plain = plain_call()
        else:
            plain = plain_call()
            traced = traced_call()
        if reference is None:
            reference = plain
        selftest += [
            f"call pair {len(summaries)}: {name} differs"
            for name in sorted(set(reference) | set(plain) | set(traced))
            if not reference.get(name) == plain.get(name) == traced.get(name)
        ]

    first = summaries[0]["counts"]
    for i, s in enumerate(summaries[1:], start=2):
        differ = sorted(k for k in set(first) | set(s["counts"]) if first[k] != s["counts"][k])
        if differ:
            selftest.append(f"traced call {i} counts differ from call 1: {', '.join(differ)}")
    steps = first["smad.step.calls"]
    if steps != runner.w.pool_steps:
        selftest.append(f"smad.step.calls {steps}, expected {runner.w.pool_steps}")
    left = leftover_wrappers()
    if left:
        selftest.append("wrappers left after the trace: " + ", ".join(left))
    runner.record("trace self-test", selftest)

    overhead = statistics.median(traced_walls) / statistics.median(plain_walls)
    metrics = layer_metrics(summaries, overhead)
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "traced_calls": len(summaries),
        "span_cost_us": cost_ns / 1e3,
    }


def environment(root: Path) -> dict:
    import hashlib

    import numpy as np
    import scipy

    blas = None
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_runtime": _openblas_threads(),
        "git_commit": git_commit(root),
        "src_sha256": source.hexdigest(),
    }


def _openblas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit(root: Path):
    """HEAD of the checkout's git repository, or None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = _parse(argv)
    start = time.perf_counter()
    import poco.cli  # noqa: F401 - the import is what setup_s times

    setup_s = time.perf_counter() - start
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    root = Path(__file__).resolve().parent.parent
    if root / "src" not in Path(poco.cli.__file__).resolve().parents:
        print(f"poco imported from {poco.cli.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 3
    runner = Runner(WORKLOADS[args.workload], args.tmp)
    runner.golden_call()
    loop = traced_loop if args.trace else timed_loop
    report = loop(runner, args.seed, args.seconds)
    report.update(
        setup_s=setup_s,
        attempted=runner.attempted,
        problems=runner.problems,
        env=environment(root),
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
