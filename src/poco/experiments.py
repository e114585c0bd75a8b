"""The three Monte-Carlo studies, plus batch bound-verification runs.

Each study compares a method against the plain online-gradient-descent
baseline under common random numbers: within a repetition both arms consume
the identical scenario realization, so the reported curve
cumulative_loss(method) - cumulative_loss(baseline) equals the difference in
dynamic regret (the per-round optimal values cancel) and is exactly zero
wherever the two arms are algorithmically identical.  ``compare_to_ogd``
runs that comparison for every study, with the baseline runs of all
repetitions advancing in lockstep, and keeps only the losses of every
repetition but the first.  It is also the one seed rule: repetition r
draws from child r of
``numpy.random.SeedSequence(master_seed).spawn(repetitions)``, so
rerunning with the same master seed reproduces every byte.  Study 3 reads
its moments from one table per run (:class:`MomentCache`), filled by one
stacked moments call per lookback and block of ``MONTH_BLOCK`` months, so
its parameters are (slot, risk) rows and its pools' prediction regularity
and aim range are in slot coordinates; nothing reads them, as its
renormalizing projection gets no regret ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from poco.config import ConfigError
from poco.descent import DescentConfig, run_predictive_ogd
from poco.domains import EuclideanBall, UnitSimplex
from poco.objectives import MarkowitzTable, QuadraticTracking, step_contracts
from poco.predictors import (
    NoisyOracle, Persistence, PredictorNotReady, VarPredictor, aim_table, var_forecasts
)
from poco.regret import build_ledgers, suggested_gamma
from poco.scenarios import (
    DataError,
    MarketData,
    RiskProcessSpec,
    SwitchingProcessSpec,
    append_risk_free,
    estimate_moments,
    gen_risk_path,
    gen_switching,
    load_market_csv,
    switching_declared_box,
    synthetic_market,
)
from poco.smad import ExpertPool, run_smad

# appended to a study's curve note when it reports repetition 1's ledgers
LEDGER_NOTE = "; regret decomposition below is for repetition 1"
EXPERT_NOISE_CLIP = 6.0  # standard deviations, so the expert study can declare D
DAY_ONE_BETA = 0.2  # entrant share, unread by a pool whose experts all join in round 1


@dataclass
class CurveResult:
    """Difference-in-cumulative-regret curve aggregated over repetitions."""

    t: np.ndarray
    mean_diff: np.ndarray
    std_diff: np.ndarray
    n_reps: int
    diffs: np.ndarray  # (reps, T) raw per-repetition curves

    @property
    def horizon(self) -> int:
        return self.t.shape[0]


def _summarize_diffs(diffs: np.ndarray) -> CurveResult:
    reps, horizon = diffs.shape
    std = diffs.std(axis=0, ddof=1) if reps > 1 else np.zeros(horizon)
    return CurveResult(
        t=np.arange(1, horizon + 1),
        mean_diff=diffs.mean(axis=0),
        std_diff=std,
        n_reps=reps,
        diffs=diffs,
    )


@dataclass
class ExperimentResult:
    curve: CurveResult
    ledgers: dict
    notes: list

    def summary_lines(self) -> list:
        lines = list(self.notes)
        for arm, ledger in self.ledgers.items():
            lines.append("")
            lines.append(f"[{arm}]")
            lines.extend(ledger.summary_lines())
        return lines


def compare_to_ogd(seed, repetitions, scenario, method, family, cset, x1, eta, inner_steps=1):
    """Play a method arm against plain projected descent, one repetition per
    child seed that the master ``seed`` spawns.

    ``scenario(child)`` draws a repetition's ``(thetas, history)``, where
    ``history`` holds parameters observed before round 1 (or None), and
    ``method(thetas, history)`` plays the method arm on that same draw, one
    repetition per call.  Every scenario is drawn first, in seed order; the
    baseline then descends from ``x1`` toward the last observation with
    ``eta`` and ``inner_steps``, all repetitions in one lockstep
    ``run_predictive_ogd`` call, whose run r equals a run on its draw alone
    bit for bit.  Only each method run's losses outlive its repetition,
    except repetition 1's whole run.  Returns the difference curve and
    repetition 1's ``(baseline, method)`` trajectories.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    draws = [scenario(child) for child in np.random.SeedSequence(seed).spawn(repetitions)]
    baselines = run_predictive_ogd(
        family, cset, np.stack([thetas for thetas, _ in draws]),
        DescentConfig(eta, inner_steps), x1,
    )
    first = method(*draws[0])
    losses = [first.losses] + [method(*draw).losses for draw in draws[1:]]
    diffs = np.array([np.cumsum(arm - base.losses) for arm, base in zip(losses, baselines)])
    return _summarize_diffs(diffs), (baselines[0], first)


# ---------------------------------------------------------------------------
# the switching-process setup shared by studies 1 and 2 and the bound checks
# ---------------------------------------------------------------------------

def switching_setup(cfg: dict):
    """The objective family, constraint set and scenario process of a
    resolved config: its ``objective``, ``domain`` and ``scenario``
    sections and the top-level ``horizon``.  A ``descent.x1`` outside the
    domain is a ``ConfigError``."""
    dom, scen = cfg["domain"], cfg["scenario"]
    family = QuadraticTracking(cfg["objective"]["weights"])
    if dom["kind"] == "ball":
        cset = EuclideanBall(center=dom["center"], radius=dom["radius"])
    else:
        cset = UnitSimplex(family.n, mode=dom["projection_mode"])
    if not cset.contains(cfg["descent"]["x1"]):
        raise ConfigError(
            f"descent.x1={cfg['descent']['x1']} lies outside the "
            f"{dom['kind']} domain; choose a starting point inside it"
        )
    proc = SwitchingProcessSpec(
        state_a=tuple(scen["state_a"]),
        state_b=tuple(scen["state_b"]),
        dwell=tuple(scen["dwell"]),
        noise_scale=scen["noise_scale"],
        horizon=cfg["horizon"],
        noise_clip=scen["noise_clip"],
    )
    return family, cset, proc


def declared_gamma(cfg: dict) -> tuple:
    """The loss range D over the scenario's declared parameter box, and
    the learning rate sqrt(8/(T D^2)) it gives."""
    family, cset, proc = switching_setup(cfg)
    d_range = family.derive_constants(cset, switching_declared_box(proc)).D
    return d_range, suggested_gamma(d_range, cfg["horizon"])


# ---------------------------------------------------------------------------
# study 1: plain vs predictive descent with a fixed model
# ---------------------------------------------------------------------------

def make_predictor(cfg: dict):
    """The predictor of the ``predictor`` section; an AR fit waits for
    max(min_history, 2k+1) rounds."""
    pred = cfg["predictor"]
    if pred["kind"] == "persistence":
        return Persistence()
    order = pred["order"]
    return VarPredictor(
        order=order,
        min_history=max(pred["min_history"] or 0, 2 * order + 1),
        indices=pred["indices"],
    )


def run_exp1(cfg: dict) -> ExperimentResult:
    """Fixed-model study: plain OGD vs descent toward a prediction (an
    autoregression by default) of the moving target, on the switching
    process.  ``poco run-custom`` runs this study under its own labels."""
    family, cset, proc = switching_setup(cfg)
    des = cfg["descent"]
    eta, inner_steps, x1 = des["eta"], des["inner_steps"], des["x1"]
    descent = DescentConfig(eta, inner_steps)
    predictor = make_predictor(cfg)
    curve, first = compare_to_ogd(
        cfg["seed"], cfg["repetitions"],
        lambda child: (gen_switching(proc, child), None),
        lambda thetas, _: run_predictive_ogd(
            family, cset, thetas, descent, x1, predictor=predictor
        ),
        family, cset, x1, eta, inner_steps,
    )
    ledgers = dict(zip(("ogd", "predictive"), build_ledgers(family, cset, first)))
    notes = [
        f"repetitions={cfg['repetitions']} horizon={cfg['horizon']} "
        f"eta={eta} seed={cfg['seed']}",
        "curve = cumulative regret (predictive) - cumulative regret (ogd)" + LEDGER_NOTE,
    ]
    return ExperimentResult(curve=curve, ledgers=ledgers, notes=notes)


# ---------------------------------------------------------------------------
# study 2: expert learning over autoregressive orders, synthetic data
# ---------------------------------------------------------------------------

def activation_schedule(smad: dict) -> tuple:
    """The rounds at which the experts of a ``smad`` section join the pool:
    ``activation_times`` when set, else the arithmetic schedule."""
    if smad["activation_times"] is not None:
        return tuple(smad["activation_times"])
    return tuple(
        smad["first_activation"] + i * smad["activation_every"]
        for i in range(len(smad["expert_orders"]))
    )


def run_exp2(cfg: dict) -> ExperimentResult:
    """Misspecified-model study: an expert pool of AR orders, brought online
    one at a time, against plain OGD.  ``smad.gamma: "auto"`` is sized from
    the scenario and domain this study runs."""
    family, cset, proc = switching_setup(cfg)
    des, smad = cfg["descent"], cfg["smad"]
    eta, inner_steps, x1 = des["eta"], des["inner_steps"], des["x1"]
    beta, orders = smad["beta"], smad["expert_orders"]
    gamma = declared_gamma(cfg)[1] if smad["gamma"] == "auto" else smad["gamma"]
    indices = cfg["predictor"]["indices"]
    roster = [
        (when, VarPredictor(order=k, indices=indices))
        for when, k in zip(activation_schedule(smad), orders)
    ]

    def expert_pool(thetas, _):
        pool = ExpertPool(beta=beta, gamma=gamma, eta=eta, inner_steps=inner_steps)
        return run_smad(family, cset, thetas, pool, x1, roster=roster)

    curve, first = compare_to_ogd(
        cfg["seed"], cfg["repetitions"],
        lambda child: (gen_switching(proc, child), None),
        expert_pool,
        family, cset, x1, eta, inner_steps,
    )
    ledgers = dict(zip(("ogd", "smad"), build_ledgers(family, cset, first)))
    notes = [
        f"repetitions={cfg['repetitions']} horizon={cfg['horizon']} eta={eta} "
        f"beta={beta} gamma={gamma} seed={cfg['seed']}",
        "curve = cumulative regret (expert pool) - cumulative regret (ogd)" + LEDGER_NOTE,
    ]
    return ExperimentResult(curve=curve, ledgers=ledgers, notes=notes)


# ---------------------------------------------------------------------------
# study 3: expert learning on market data with a hidden risk process
# ---------------------------------------------------------------------------

# months per stacked estimate_moments call while a moments table is built:
# bounds the (months, lookback, assets) window stack held at once
MONTH_BLOCK = 16


class MomentCache:
    """One run's return moments, as a table built eagerly: slot ``(month - 1)
    * J + j`` holds :func:`poco.scenarios.estimate_moments` over the
    ``lookbacks[j]`` days (fewer early on) up to the end of ``month``, for
    months 1..``months``.

    The table is filled by blocks of ``MONTH_BLOCK`` months: one stacked
    ``estimate_moments`` call per lookback and block, plus a one-row call
    for each early month whose window is clamped to the days so far.  Each
    block's slots are then checked at once; a slot with non-finite moments
    or an asymmetric covariance raises ``DataError`` naming its month and
    lookback, the first such slot in slot order.
    """

    def __init__(self, data: MarketData, month_days: int, months: int, lookbacks):
        self.months, self.lookbacks = int(months), [int(lb) for lb in lookbacks]
        n_lookbacks, n = len(self.lookbacks), data.n_assets
        slots = self.months * n_lookbacks
        self.mu, self.sigma = np.empty((slots, n)), np.empty((slots, n, n))
        end_days = int(month_days) * np.arange(1, self.months + 1)
        for first in range(0, self.months, MONTH_BLOCK):
            ends = end_days[first : first + MONTH_BLOCK]
            rows = slice(first * n_lookbacks, (first + len(ends)) * n_lookbacks)
            for j, lb in enumerate(self.lookbacks):
                mu, sigma = self.mu[rows][j::n_lookbacks], self.sigma[rows][j::n_lookbacks]
                clamped = int(np.searchsorted(ends, lb))
                for i in range(clamped):
                    mu[i], sigma[i] = estimate_moments(data, ends[i], ends[i])
                if clamped < len(ends):
                    mu[clamped:], sigma[clamped:] = estimate_moments(data, ends[clamped:], lb)
            self._check(self.mu[rows], self.sigma[rows], first)

    def _check(self, mu: np.ndarray, sigma: np.ndarray, first: int) -> None:
        """Raise ``DataError`` for the first slot, in slot order, of the
        block that starts at month ``first + 1`` whose moments are
        non-finite or whose covariance is asymmetric."""
        flipped = sigma.transpose(0, 2, 1)
        if np.isfinite(mu).all() and np.isfinite(sigma).all() and np.array_equal(sigma, flipped):
            return
        good = (
            np.isfinite(mu).all(axis=1)
            & np.isfinite(sigma).all(axis=(1, 2))
            & (sigma == flipped).all(axis=(1, 2))
        )
        offset, j = divmod(int(np.argmin(good)), len(self.lookbacks))
        raise DataError(
            f"month {first + offset + 1}, lookback {self.lookbacks[j]}: "
            "non-finite or asymmetric moments"
        )

    def slot(self, month, lookback: int):
        """The row of ``lookback`` at ``month``, a number or an integer array."""
        months = np.asarray(month)
        outside = (months < 1) | (months > self.months)
        if outside.any():
            raise ValueError(
                f"month {months[outside].flat[0]} is outside the table's months 1..{self.months}"
            )
        if int(lookback) not in self.lookbacks:
            raise ValueError(f"lookback {lookback} is not one of the table's {self.lookbacks}")
        return (months - 1) * len(self.lookbacks) + self.lookbacks.index(int(lookback))

    def get(self, month: int, lookback: int):
        slot = self.slot(month, lookback)
        return self.mu[slot], self.sigma[slot]


class RiskForecastCache:
    """A repetition's AR risk forecasts, one row per number of months seen.

    ``risk_path`` holds every risk level some month observes: the
    observation months and all evaluation months but the last.  One
    :func:`poco.predictors.var_forecasts` pass over it gives every order in
    ``orders`` after every month, so experts sharing an AR order share its
    forecasts and no month refits.  ``column`` gives every row a risk
    series' prefixes read, and ``get`` its last entry.
    """

    def __init__(self, orders: Sequence[int], risk_path):
        self.forecasts = var_forecasts(risk_path, orders)

    def column(self, order: int, risk_series: np.ndarray) -> np.ndarray:
        """``get(order, risk_series[:n])`` for n = 1..len(risk_series)."""
        months_seen = np.arange(1, risk_series.shape[0] + 1)
        table = self.forecasts[order][1 : risk_series.shape[0] + 1, 0]
        return np.where(months_seen < 2 * order + 1, risk_series, table)

    def get(self, order: int, risk_series: np.ndarray) -> float:
        """The order's forecast after the months of ``risk_series``, a prefix
        of the risk path: the last entry of its ``column``."""
        return float(self.column(order, risk_series)[-1])


class MarkowitzModelPredictor:
    """One manager model: a moment lookback paired with an AR view of risk.

    The prediction for next month is a (slot, risk) parameter of the run's
    :class:`poco.objectives.MarkowitzTable`: the slot of the model's own
    moments after the months of the history, and the client's risk level
    forecast by the repetition's :class:`RiskForecastCache` at the history's
    length.  Falls back to the last observed risk until the AR order has
    2k+1 observations; a negative forecast is clamped to zero, a NaN one is
    left for the pool's finite-gradient check to report.  ``aim_rows`` is
    the one aim rule: a run's aim table column at once, the slot column
    plus the clamped forecast column.  ``predict`` is its row at the
    history's length.
    """

    def __init__(
        self, moments: MomentCache, lookback: int, ar_order: int, forecasts: RiskForecastCache
    ):
        self.moments = moments
        self.lookback = int(lookback)
        self.ar_order = int(ar_order)
        self.forecasts = forecasts

    def ready(self, n_obs: int) -> bool:
        return n_obs >= 1

    def predict(self, history) -> np.ndarray:
        if not self.ready(len(history)):
            raise PredictorNotReady(needed=1, have=0)
        return aim_table([self], history, starts=[len(history)])[0][-1, 0]

    def aim_rows(self, observed: np.ndarray, ns: np.ndarray) -> np.ndarray:
        """``predict(observed[:n])`` for every n in ``ns`` (all >= 1): a NaN
        forecast or a -0.0 stays as it is."""
        risk = self.forecasts.column(self.ar_order, observed[:, -1])[ns - 1]
        clamped = np.where(risk < 0.0, 0.0, risk)
        return np.column_stack([self.moments.slot(ns, self.lookback), clamped])


def _total_months(cfg: dict) -> int:
    return cfg["exp3"]["observe_months"] + cfg["horizon"]


def load_exp3_market(cfg: dict) -> MarketData:
    """Historical CSV when ``exp3.csv_path`` is set, else the synthetic
    stand-in seeded by the top-level ``seed``, as long as the run reads."""
    sec = cfg["exp3"]
    months = _total_months(cfg)
    needed = sec["month_days"] * months
    if sec["csv_path"]:
        data = load_market_csv(sec["csv_path"], risk_free=sec["risk_free"])
    else:
        data = synthetic_market(
            n_assets=sec["synth_assets"],
            n_days=needed,
            seed=np.random.SeedSequence((cfg["seed"], 0xDA7A)),
        )
        if sec["risk_free"]:
            data = append_risk_free(data)
    if data.n_days < needed:
        raise DataError(
            f"need {needed} days of data for {months} months, have {data.n_days}"
        )
    return data


def _client_thetas(sec: dict, moments: MomentCache, risk_obs: np.ndarray) -> np.ndarray:
    """Client objective parameters of an ``exp3`` section, one (slot, risk)
    row per month of the risk path ``risk_obs``."""
    slots = moments.slot(np.arange(1, risk_obs.shape[0] + 1), sec["client_lookback"])
    return np.column_stack([slots, risk_obs])


def run_exp3(cfg: dict, data: Optional[MarketData] = None) -> ExperimentResult:
    """Portfolio study: a pool of (lookback, AR order) manager models scored
    monthly by a client objective with hidden, jumpy risk tolerance for
    ``horizon`` months.  Reads the ``exp3`` section and the top-level
    ``repetitions``, ``seed`` and ``horizon``; ``data`` replaces the section's market."""
    sec = cfg["exp3"]
    if data is None:
        data = load_exp3_market(cfg)
    risk = RiskProcessSpec(
        base=sec["risk_base"],
        warmup_days=sec["risk_warmup_days"],
        stay_prob=sec["risk_stay_prob"],
        jump_low=sec["risk_jump_low"],
        jump_high=sec["risk_jump_high"],
        noise_var=sec["risk_noise_var"],
        obs_every_days=sec["month_days"],
    )
    lookbacks, ar_orders = sec["lookbacks"], sec["ar_orders"]
    eta, gamma, observe = sec["eta"], sec["gamma"], sec["observe_months"]
    months = _total_months(cfg)
    moments = MomentCache(data, sec["month_days"], months, [*lookbacks, sec["client_lookback"]])
    family = MarkowitzTable(moments.mu, moments.sigma)
    cset = UnitSimplex(data.n_assets, mode="renormalize")
    x1 = cset.interior_point()

    def scenario(child):
        risk_obs = gen_risk_path(risk, sec["month_days"] * months, child)
        thetas_all = _client_thetas(sec, moments, risk_obs)
        return thetas_all[observe:], thetas_all[:observe]

    def expert_pool(eval_thetas, history):
        # the risk levels the pool's rounds observe, as run_smad's record holds them
        risk_path = np.concatenate([history[:, -1], eval_thetas[:-1, -1]])
        forecasts = RiskForecastCache(ar_orders, risk_path)
        roster = [
            (1, MarkowitzModelPredictor(moments, lb, k, forecasts=forecasts))
            for lb in lookbacks
            for k in ar_orders
        ]
        pool = ExpertPool(beta=DAY_ONE_BETA, gamma=gamma, eta=eta)
        return run_smad(
            family, cset, eval_thetas, pool, x1, roster=roster, initial_history=history
        )

    curve, _ = compare_to_ogd(
        cfg["seed"], cfg["repetitions"],
        scenario, expert_pool, family, cset, x1, eta,
    )
    notes = [
        f"repetitions={cfg['repetitions']} eval_months={cfg['horizon']} "
        f"eta={eta} gamma={gamma} seed={cfg['seed']}",
        f"assets={data.n_assets} ({'historical csv' if sec['csv_path'] else 'synthetic stand-in'})",
        f"experts={len(lookbacks)} lookbacks x {len(ar_orders)} AR orders "
        f"= {len(lookbacks) * len(ar_orders)}",
        "projection mode is the renormalizing heuristic, so regret-bound "
        "checks are skipped for this study",
        "curve = cumulative regret (expert pool) - cumulative regret (ogd); "
        "per-round optima cancel in the difference, so no minimizers are solved",
    ]
    return ExperimentResult(curve=curve, ledgers={}, notes=notes)


# ---------------------------------------------------------------------------
# bound-verification batches
# ---------------------------------------------------------------------------

@dataclass
class BoundStudyResult:
    """The regret ledgers of a batch of bound-checked runs."""

    records: list
    label: str

    @property
    def n_runs(self) -> int:
        return len(self.records)

    @property
    def n_pass(self) -> int:
        return sum(1 for rec in self.records if rec.bound_holds)

    @property
    def all_hold(self) -> bool:
        """Every run satisfied its bound and, where checked, the
        aggregation inequality."""
        return all(rec.bound_holds and rec.hedge_holds in (None, True) for rec in self.records)

    def summary_lines(self) -> list:
        """The pass counts, each followed by how tight its bound was over
        the runs: the min, median and max of the measured side over the bound."""
        lines = [f"{self.label}: {self.n_pass}/{self.n_runs} runs satisfied the bound"]
        lines.append(_tightness(self.label, "Reg_D", [r.reg_d / r.bound for r in self.records]))
        hedged = [r for r in self.records if r.hedge_holds is not None]
        if hedged:
            ok = sum(1 for r in hedged if r.hedge_holds)
            lines.append(
                f"{self.label}: {ok}/{len(hedged)} runs satisfied the "
                "aggregation (exponential-weights) inequality"
            )
            ratios = [r.hedge_gap / r.hedge_bound for r in hedged]
            lines.append(_tightness(self.label, "aggregation gap", ratios))
        return lines


def _tightness(label: str, measured: str, ratios: list) -> str:
    # sorted, not np.median, which imports numpy.ma: a megabyte of peak memory
    ordered = sorted(ratios)
    mid = (ordered[(len(ordered) - 1) // 2] + ordered[len(ordered) // 2]) / 2
    lo, hi = ordered[0], ordered[-1]
    return f"{label}: {measured} / bound min {lo:.6g} median {mid:.6g} max {hi:.6g}"


def _bound_setup(cfg: dict, n_runs: int):
    """``switching_setup`` for a bound study of ``n_runs`` runs (at least
    one), which refuses with a ``ConfigError`` what no regret bound applies
    to: a domain whose projection is not nonexpansive, named by
    ``domain.projection_mode``, and a ``descent.eta`` above 1/L."""
    if n_runs < 1:
        raise ValueError(f"a bound study needs at least one run, got {n_runs}")
    family, cset, proc = switching_setup(cfg)
    if not cset.nonexpansive:
        raise ConfigError(
            f"domain.projection_mode={cfg['domain']['projection_mode']!r} is not "
            "nonexpansive, so no regret bound applies and a bound study has "
            "nothing to check; use projection_mode 'exact'"
        )
    eta, big_l = cfg["descent"]["eta"], family.curvature()[1]
    if not step_contracts(big_l, eta):
        raise ConfigError(f"descent.eta={eta} violates the step-size condition "
                          f"eta <= 1/L = {1.0 / big_l} that every regret bound needs")
    return family, cset, proc


def run_predictive_bound_study(
    cfg: dict, n_runs: int, inner_steps: int = 1
) -> BoundStudyResult:
    """Predictive descent on the switching process of a resolved config;
    per run, check measured dynamic regret against the closed-form bound
    with constants derived from the realized parameter box (observations
    and predictions jointly).  A non-metric projection is refused before
    any run (:func:`_bound_setup`)."""
    family, cset, proc = _bound_setup(cfg, n_runs)
    eta, x1 = cfg["descent"]["eta"], cfg["descent"]["x1"]
    seeds = np.random.SeedSequence((cfg["seed"], 31 + inner_steps)).spawn(n_runs)
    thetas = np.array([gen_switching(proc, child) for child in seeds])
    runs = run_predictive_ogd(
        family, cset, thetas, DescentConfig(eta, inner_steps), x1, predictor=make_predictor(cfg)
    )
    label = f"predictive descent bound (k={inner_steps})"
    return BoundStudyResult(records=build_ledgers(family, cset, runs), label=label)


def run_expert_bound_study(cfg: dict, n_runs: int) -> BoundStudyResult:
    """Day-one expert pools with the tuned learning rate, each judged by
    its regret ledger (fixed-pool bound and aggregation inequality).

    The objective, domain, scenario, ``x1``, ``eta``, horizon and seed come
    from ``cfg``, as for ``run_predictive_bound_study``.  The switching
    noise is clipped at ``EXPERT_NOISE_CLIP`` standard deviations so the
    loss range D can be declared before the run; D only sizes the learning
    rate gamma = sqrt(8/(T D^2)), and the ledger charges the aggregation
    penalty at the measured spread of expert losses, which never exceeds D.
    A non-metric projection is refused before any run (:func:`_bound_setup`).
    """
    cfg = {**cfg, "scenario": {**cfg["scenario"], "noise_clip": EXPERT_NOISE_CLIP}}
    family, cset, proc = _bound_setup(cfg, n_runs)
    gamma = declared_gamma(cfg)[1]
    eta, x1 = cfg["descent"]["eta"], cfg["descent"]["x1"]

    seeds = np.random.SeedSequence((cfg["seed"], 97)).spawn(n_runs)
    runs = []
    for child in seeds:
        scen_seed, oracle_seed = child.spawn(2)
        thetas = gen_switching(proc, scen_seed)
        oracle_rngs = np.random.default_rng(oracle_seed).spawn(2)
        predictors = [
            NoisyOracle(thetas, noise_std=0.0),
            NoisyOracle(thetas, noise_std=1.0, rng=oracle_rngs[0]),
            NoisyOracle(thetas, noise_std=5.0, rng=oracle_rngs[1]),
            Persistence(),
            VarPredictor(order=2, indices=cfg["predictor"]["indices"]),
        ]
        pool = ExpertPool(beta=DAY_ONE_BETA, gamma=gamma, eta=eta)
        runs.append(run_smad(family, cset, thetas, pool, x1, roster=[(1, p) for p in predictors]))
    records = build_ledgers(family, cset, runs)
    return BoundStudyResult(records=records, label="expert-pool regret bound")
