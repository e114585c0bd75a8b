"""Spans around poco's layer functions, from the benchmark's side.

The program is not modified.  For a traced call the benchmark replaces each
layer function listed in ``LAYERS`` with a wrapper that records a span
``(name, start_ns, end_ns, parent)`` in memory, and puts every original back
when the call ends.  Modules bind many of these functions by name
(``from poco.descent import ogd_step``), so a function is replaced in every
``poco`` module that holds it; a method is replaced on its class.

A span's self time is its duration minus the time covered by its child
spans.  ``p50_us``/``p99_us`` are percentiles of whole (inclusive) span
durations, which is the per-call cost a caller sees.  Both are corrected for
the time the wrappers themselves add, measured by ``span_cost_ns``.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
import warnings
from array import array
from collections import Counter

import numpy as np

# span name -> the functions it covers, as "module:qualname"
LAYERS = {
    "config.resolve": ["poco.config:resolve_config"],
    "config.emit": ["poco.config:emit_results"],
    "scenarios.gen": [
        "poco.scenarios:gen_switching",
        "poco.scenarios:gen_risk_path",
        "poco.scenarios:synthetic_market",
        "poco.scenarios:append_risk_free",
    ],
    "scenarios.estimate_moments": ["poco.scenarios:estimate_moments"],
    "experiments.study": [
        "poco.experiments:run_exp2",
        "poco.experiments:run_exp3",
        "poco.experiments:run_predictive_bound_study",
        "poco.experiments:run_expert_bound_study",
    ],
    "experiments.moments": ["poco.experiments:MomentCache.get"],
    "experiments.risk_forecast": ["poco.experiments:RiskForecastCache.get"],
    "smad.run": ["poco.smad:run_smad"],
    "smad.step": ["poco.smad:ExpertPool.step"],
    "descent.run": ["poco.descent:run_predictive_ogd"],
    "descent.ogd_step": ["poco.descent:ogd_step"],
    "predictors.fit": ["poco.predictors:fit_var_yule_walker"],
    # every implementation of the predictor interface ExpertPool.step calls
    "predictors.predict": [
        "poco.predictors:VarPredictor.predict",
        "poco.predictors:Persistence.predict",
        "poco.predictors:NoisyOracle.predict",
        "poco.experiments:MarkowitzModelPredictor.predict",
    ],
    "regret.minimizers": ["poco.regret:minimizers_batch"],
    "regret.ledger": ["poco.regret:build_ledger"],
    "objectives.value": [
        "poco.objectives:QuadraticTracking.value",
        "poco.objectives:QuadraticTracking.value_rows",
        "poco.objectives:Markowitz.value",
    ],
    "objectives.gradient": [
        "poco.objectives:QuadraticTracking.gradient_x",
        "poco.objectives:QuadraticTracking.gradient_x_rows",
        "poco.objectives:Markowitz.gradient_x",
    ],
    "objectives.unpack": ["poco.objectives:Markowitz.unpack"],
    "domains.project": [
        "poco.domains:EuclideanBall.project",
        "poco.domains:UnitSimplex.project",
    ],
    "domains.project_rows": [
        "poco.domains:EuclideanBall.project_rows",
        "poco.domains:UnitSimplex.project_rows",
    ],
}

# spans whose whole-duration percentiles are reported
TIMED = ("smad.step", "predictors.fit", "descent.ogd_step", "regret.minimizers")
# (child, parent) pairs counted where the child span is a direct child
NESTED = (
    ("predictors.fit", "experiments.risk_forecast"),
    ("scenarios.estimate_moments", "experiments.moments"),
    ("domains.project_rows", "regret.minimizers"),
)

_MARK = "_bench_span"


def _poco_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "poco" or n.startswith("poco.")]


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else None
    return module, owner, attr


class Patches:
    """Replacements of poco functions, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, target: str, make_wrapper) -> None:
        module, owner, attr = _resolve(target)
        if owner is not None:
            original = owner.__dict__[attr]
            self._set(owner, attr, original, make_wrapper(original))
            return
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod in _poco_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, original, wrapper)

    def _set(self, owner, attr, original, value) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def leftover_wrappers() -> list:
    """Names in poco modules and their classes still bound to a span wrapper."""
    found = []
    for mod in _poco_modules():
        for name, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found += [
                    f"{mod.__name__}.{name}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, _MARK)
                ]
    return found


def _count_active_experts(counts, args, result):
    counts["smad.expert_steps"] += args[0].n_active


def _count_bytes_written(counts, args, result):
    counts["config.bytes_written"] += sum(os.path.getsize(p) for p in result.values())


AFTER = {"smad.step": _count_active_experts, "config.emit": _count_bytes_written}


class Tracer:
    """Records spans for the calls made while it is entered."""

    def __init__(self):
        # span i: names[name_ids[i]], starts[i], ends[i] in ns, and the index
        # of its parent span or -1.  Flat arrays keep the garbage collector
        # from scanning one object per span.
        self.names = []
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.counts = Counter()
        self._stack = []
        self._patches = Patches()
        self._warnings = None
        self._caught = []

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, counts = self._stack, self.counts
        after = AFTER.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        setattr(span, _MARK, name)
        return span

    def __enter__(self):
        from poco.domains import DegenerateProjectionWarning

        self._warnings = warnings.catch_warnings(record=True)
        self._caught = self._warnings.__enter__()
        warnings.simplefilter("always", DegenerateProjectionWarning)
        try:
            for name, targets in LAYERS.items():
                for target in targets:
                    self._patches.replace(target, functools.partial(self._wrap, name))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        from poco.domains import DegenerateProjectionWarning

        self._patches.restore()
        self._warnings.__exit__(None, None, None)
        self.counts["domains.degenerate_fallbacks"] += sum(
            1 for w in self._caught if issubclass(w.category, DegenerateProjectionWarning)
        )
        return False

    def summary(self, span_cost_ns: float) -> dict:
        """Per-name call counts, self times and durations of the recorded spans.

        Each span adds ``span_cost_ns`` of wrapper time to its parent, so
        durations drop that much per descendant span and self times that
        much per child span.  Spans are recorded in the order they start,
        so the descendants of span i are the later spans that start before
        it ends.
        """
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        start = np.frombuffer(self.starts, dtype=np.int64)
        parent = np.frombuffer(self.parents, dtype=np.int64)
        raw = np.frombuffer(self.ends, dtype=np.int64) - start
        nested = parent >= 0
        covered = np.zeros_like(raw)
        np.add.at(covered, parent[nested], raw[nested])
        children = np.bincount(parent[nested], minlength=len(raw))
        descendants = np.searchsorted(start, start + raw, side="left") - np.arange(len(raw)) - 1
        dur = np.maximum(raw - descendants * span_cost_ns, 0.0)
        self_ns = np.maximum(raw - covered - children * span_cost_ns, 0.0)
        parent_ids = np.where(nested, ids[np.maximum(parent, 0)], -1)
        members = {name: ids == i for i, name in enumerate(self.names)}
        counts = Counter({f"{n}.calls": int(m.sum()) for n, m in members.items()})
        counts.update(self.counts)
        for child, par in NESTED:
            counts[f"{child}<{par}"] = int(
                np.sum(members[child] & (parent_ids == self.names.index(par)))
            )
        empty = np.zeros(0)
        return {
            "counts": counts,
            "self_s": {n: float(self_ns[m].sum()) / 1e9 for n, m in members.items()},
            "durations_us": {n: dur[members[n]] / 1e3 if n in members else empty for n in TIMED},
        }


def _nothing():
    pass


def span_cost_ns(calls: int = 20000, repeats: int = 5) -> float:
    """Wall time one span adds around a call, from timing an empty function
    with and without the wrapper."""
    wrapped = Tracer()._wrap("calibration", _nothing)
    clock = time.perf_counter_ns
    costs = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            _nothing()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(costs), 0.0)


def layer_metrics(summaries: list, overhead_ratio: float) -> dict:
    """Per-layer metrics of one main() call, from the summaries of traced
    calls with identical arguments: counts from the first, self times as
    the median over calls, percentiles over the pooled spans."""
    counts = summaries[0]["counts"]

    def calls(name):
        return counts.get(f"{name}.calls", 0)

    def self_s(name):  # a span name, or a layer covering every span under it
        return statistics.median(
            sum(v for n, v in s["self_s"].items() if n == name or n.startswith(name + "."))
            for s in summaries
        )

    def pct(name, q):
        pooled = np.concatenate([s["durations_us"][name] for s in summaries])
        return float(np.percentile(pooled, q)) if pooled.size else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    risk_gets = calls("experiments.risk_forecast")
    moment_gets = calls("experiments.moments")
    count, secs, us, share, size = "count", "s", "us", "ratio", "bytes"
    return {
        "objectives.value.calls": (calls("objectives.value"), count),
        "objectives.gradient.calls": (calls("objectives.gradient"), count),
        "objectives.unpack.calls": (calls("objectives.unpack"), count),
        "objectives.self_s": (self_s("objectives"), secs),
        "smad.step.calls": (calls("smad.step"), count),
        "smad.step.self_s": (self_s("smad.step"), secs),
        "smad.step.p50_us": (pct("smad.step", 50), us),
        "smad.step.p99_us": (pct("smad.step", 99), us),
        "smad.expert_steps": (counts["smad.expert_steps"], count),
        "smad.run.self_s": (self_s("smad.run"), secs),
        "predictors.fit.calls": (calls("predictors.fit"), count),
        "predictors.fit.self_s": (self_s("predictors.fit"), secs),
        "predictors.fit.p50_us": (pct("predictors.fit", 50), us),
        "predictors.predict.calls": (calls("predictors.predict"), count),
        "predictors.predict.self_s": (self_s("predictors.predict"), secs),
        "predictors.fit_per_predict": (
            ratio(calls("predictors.fit"), calls("predictors.predict")), share,
        ),
        "experiments.risk_forecast.fit_ratio": (
            ratio(counts["predictors.fit<experiments.risk_forecast"], risk_gets), share,
        ),
        "experiments.moments.miss_ratio": (
            ratio(counts["scenarios.estimate_moments<experiments.moments"], moment_gets), share,
        ),
        "experiments.self_s": (self_s("experiments"), secs),
        "descent.ogd_step.calls": (calls("descent.ogd_step"), count),
        "descent.ogd_step.self_s": (self_s("descent.ogd_step"), secs),
        "descent.ogd_step.p50_us": (pct("descent.ogd_step", 50), us),
        "descent.run.calls": (calls("descent.run"), count),
        "descent.run.self_s": (self_s("descent.run"), secs),
        "domains.project.calls": (calls("domains.project"), count),
        "domains.project.self_s": (self_s("domains.project"), secs),
        "domains.project_rows.calls": (calls("domains.project_rows"), count),
        "domains.project_rows.self_s": (self_s("domains.project_rows"), secs),
        "domains.degenerate_fallbacks": (counts["domains.degenerate_fallbacks"], count),
        "regret.minimizers.calls": (calls("regret.minimizers"), count),
        "regret.minimizers.self_s": (self_s("regret.minimizers"), secs),
        "regret.minimizers.p50_us": (pct("regret.minimizers", 50), us),
        "regret.minimizer_iters": (counts["domains.project_rows<regret.minimizers"], count),
        "regret.ledger.self_s": (self_s("regret.ledger"), secs),
        "scenarios.gen.self_s": (self_s("scenarios.gen"), secs),
        "scenarios.estimate_moments.calls": (calls("scenarios.estimate_moments"), count),
        "config.resolve.self_s": (self_s("config.resolve"), secs),
        "config.emit.self_s": (self_s("config.emit"), secs),
        "config.bytes_written": (counts["config.bytes_written"], size),
        "trace.overhead_ratio": (overhead_ratio, share),
    }
