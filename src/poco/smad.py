"""SMAD: simultaneous modeling and descent.

A pool of experts, each wrapping its own parameter predictor and running its
own predictive descent iterate, is aggregated by an exponentially weighted
average.  After every round each expert is scored with l_i =
exp(-gamma * f(v_i, theta_t)) and the mixture is reweighted by the Gibbs
rule w_i = p_i * l_i (applied once per round).  Experts join from a roster:
those that find the pool empty share its mass uniformly; each later entrant
is mixed in with mass beta (existing weights are scaled by (1 - beta)),
with its iterate seeded at the previous aggregated output and its predictor
forecasting from the full history observed so far.

Experts are rows of arrays, not objects.  An aim depends only on the
parameters observed so far, and a run knows those before it starts, so
:func:`run_smad` builds one :func:`poco.predictors.aim_table` before its
loop: every expert's aim after every prefix, each predictor kind filled in
one pass (the AR experts that model the same coordinates share one
Yule-Walker pass), and no round asks a predictor.  Each round reads its
row of aims, every expert descends toward its own aim in one row-wise
update (:func:`poco.descent.ogd_step_rows`, the update descent runs use
too), and one ``value_rows`` call charges the expert moves and the
aggregate play together.  The row kernels compute each row the same way
whatever the row count, so the result equals running ``ogd_step`` once per
expert bit for bit.  A round thus only descends, aggregates, charges and
reweights: it reads no predictor and keeps no aim state.  What a regret
ledger needs of the aims, each expert's prediction regularity and the
range of every aim, is read off the run's aim table once, after the loop.

Weights are kept in log space; every exposed distribution is normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from poco.descent import DescentConfig, ogd_step_rows, run_predictive_ogd
from poco.domains import ConstraintSet
from poco.predictors import aim_table


def suggested_gamma(d_range: float, horizon: int) -> float:
    """Learning rate sqrt(8 / (T * D^2)) that optimizes the aggregation
    penalty for a loss range D over T rounds."""
    if not (np.isfinite(d_range) and d_range > 0):
        raise ValueError(f"loss range D must be positive, got {d_range}")
    if int(horizon) < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return math.sqrt(8.0 / (horizon * d_range * d_range))


class ExpertPool:
    """Roster of experts with a normalized log-space weight vector.

    Experts join through :meth:`activate`; their state is kept as arrays
    with one row per expert, in activation order: iterates ``xs`` (N, n),
    log-weights ``log_p`` (N,) and activation rounds ``activated_at``.
    After each :meth:`step`, ``xs`` holds every expert's move of that round,
    ``last_losses`` (N,) its loss against the realized parameter and
    ``last_play_loss`` the aggregate play's.  The pool keeps no aim state:
    :func:`run_smad` reads the prediction regularity and the aim range off
    the run's aim table.
    """

    def __init__(
        self,
        beta: float,
        gamma: float,
        eta: float,
        inner_steps: int = 1,
    ):
        if not (0.0 < beta < 1.0):
            raise ValueError(f"beta must lie in (0, 1), got {beta}")
        if not (np.isfinite(gamma) and gamma > 0):
            raise ValueError(f"gamma must be positive, got {gamma}")
        descent = DescentConfig(eta, inner_steps)
        self.eta, self.inner_steps = descent.eta, descent.inner_steps
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.predictors: list = []
        self.activated_at: list[int] = []
        self.xs: Optional[np.ndarray] = None
        self.log_p = np.zeros(0)
        self.last_losses: Optional[np.ndarray] = None
        self.last_play_loss = math.nan

    @property
    def n_active(self) -> int:
        return len(self.predictors)

    def distribution(self) -> np.ndarray:
        return np.exp(self.log_p)

    def activate(self, predictors: Sequence[object], x_init, t: int) -> None:
        """Admit experts at round ``t``, each starting from ``x_init``.

        Entrants that find the pool empty share its mass uniformly, the
        day-one pool that the aggregation guarantee T*gamma*D^2/8 +
        ln(N)/gamma assumes; into a nonempty pool each entrant in turn
        scales the incumbents by (1 - beta) and takes mass beta.
        """
        predictors = list(predictors)
        if not predictors:
            raise ValueError("need at least one predictor")
        rows = np.tile(np.asarray(x_init, dtype=float), (len(predictors), 1))
        if self.n_active == 0:
            self.xs = rows
            self.log_p = np.full(len(predictors), -math.log(len(predictors)))
        else:
            self.xs = np.vstack([self.xs, rows])
            for _ in predictors:
                self.log_p = np.append(
                    self.log_p + math.log1p(-self.beta), math.log(self.beta)
                )
                self.log_p -= _logsumexp(self.log_p)
        self.predictors += predictors
        self.activated_at += [t] * len(predictors)

    def step(self, family, cset: ConstraintSet, theta_t, aims, aimed) -> np.ndarray:
        """One round: expert descent steps, aggregation, charging, Gibbs
        reweighting.

        ``theta_t`` is the parameter revealed this round.  ``aims`` (N, m)
        and ``aimed`` (N,) are the round's row of the run's
        :func:`poco.predictors.aim_table` for the N active experts: each
        expert's :func:`poco.predictors.step_aim` (its own prediction of
        theta_t, or the last observation while its predictor warms up), and
        no aim when there is no history at all, in which case the expert
        holds still.  No predictor is asked here.  Every expert that has
        an aim takes its ``inner_steps`` projected gradient updates
        together (:func:`poco.descent.ogd_step_rows`).  The aggregate plays
        the projected weighted mean of the expert moves; one
        ``family.value_rows`` call charges the moves and the aggregate play
        against theta_t, and the expert losses tilt the weights once.
        """
        if self.n_active == 0:
            raise RuntimeError("cannot step an empty expert pool")
        theta_t = np.asarray(theta_t, dtype=float)
        if aimed.all():
            moves = ogd_step_rows(
                family, cset, self.xs, aims, self.eta, self.inner_steps,
                "expert", range(self.n_active),
            )
        else:
            moves = self.xs.copy()
            if aimed.any():
                rows = np.flatnonzero(aimed)
                moves[rows] = ogd_step_rows(
                    family, cset, moves[rows], aims[rows], self.eta, self.inner_steps,
                    "expert", rows,
                )

        x_t = cset.project_rows((self.distribution() @ moves)[None])
        values = family.value_rows(np.concatenate([moves, x_t]), theta_t[None, :])
        losses = values[:-1]

        self.xs = moves
        log_w = self.log_p - self.gamma * losses
        norm = _logsumexp(log_w)
        if not math.isfinite(norm):
            raise ArithmeticError(
                "all expert weights vanished during the Gibbs update; "
                f"gamma={self.gamma} is too large for these loss magnitudes"
            )
        self.log_p = log_w - norm
        self.last_losses, self.last_play_loss = losses, values[-1]
        return x_t[0]


def _logsumexp(v: np.ndarray) -> float:
    hi = v.max()
    if not math.isfinite(hi):
        return float(hi)
    return float(hi + np.log(np.exp(v - hi).sum()))


def _aim_record(thetas, aims, aimed, activation_times):
    """Each joined expert's prediction regularity (NaN for roster entries
    that never joined) and the componentwise range of every aim, from a
    run's (T, N, m) aim rows and (T, N) mask, one row per round.

    An expert is scored in every round after its activation round in which
    it aims; its first round's error is absorbed by the starting-gap term.
    The errors add up in round order, as a running sum would.  The range
    covers every aimed entry: an expert's column is aimed only from its
    activation round on.  It is (None, None) when no expert ever aimed.
    """
    horizon, n_total = aimed.shape
    joined = len(activation_times)
    scored = aimed[:, :joined] & (
        np.arange(1, horizon + 1)[:, None] > np.asarray(activation_times, dtype=int)
    )
    errors = np.zeros((horizon, joined))
    rounds = np.nonzero(scored)[0]
    errors[scored] = np.linalg.norm(thetas[rounds] - aims[:, :joined][scored], axis=1)
    p_theta = np.full(n_total, np.nan)
    p_theta[:joined] = np.cumsum(errors, axis=0)[-1]
    if not aimed.any():
        return p_theta, None, None
    hit = aims[aimed]
    return p_theta, hit.min(axis=0), hit.max(axis=0)


@dataclass
class SmadTrajectory:
    """One SMAD run: aggregated plays plus per-expert bookkeeping.

    Expert arrays are padded with NaN before activation.  ``p`` holds the
    post-update distribution of each round, aligned to the full roster.
    ``p_theta_by_expert`` and the aim range ``aim_lo``/``aim_hi`` (None
    when no expert ever aimed) are read off the run's aim table once, after
    the loop, as a descent ``Trajectory`` reads them off its
    ``theta_hats``: an expert is scored in every round after its activation
    round in which it aims, and the range covers every aim.  ``p_theta`` is
    the best expert's prediction regularity and
    ``eta``/``inner_steps``/``gamma`` are the pool's; a regret ledger reads
    them as it reads a descent ``Trajectory``.  ``bound_skipped_reason`` is
    None for a day-one pool, which the fixed-pool bound covers, and says
    why that bound does not apply otherwise.
    """

    xs: np.ndarray  # (T, n) aggregated plays
    thetas: np.ndarray  # (T, m)
    losses: np.ndarray  # (T,)
    expert_xs: np.ndarray  # (T, N, n)
    expert_losses: np.ndarray  # (T, N)
    p: np.ndarray  # (T, N)
    activation_times: tuple
    p_theta_by_expert: np.ndarray  # (N,) effective prediction regularity
    aim_lo: Optional[np.ndarray]  # (m,)
    aim_hi: Optional[np.ndarray]  # (m,)
    eta: float  # the pool's step size, inner steps per round and learning rate
    inner_steps: int
    gamma: float

    @property
    def horizon(self) -> int:
        return self.xs.shape[0]

    @property
    def p_theta(self) -> float:
        """The smallest expert regularity; NaN when no expert was active."""
        return float(np.fmin.reduce(self.p_theta_by_expert, initial=np.nan))

    @property
    def first_plays(self) -> np.ndarray:
        """(N, n) each expert's play in its activation round; NaN for
        roster entries that never joined."""
        first = np.full(self.expert_xs.shape[1:], np.nan)
        joined = np.arange(len(self.activation_times))
        rounds = np.asarray(self.activation_times, dtype=int) - 1
        first[joined] = self.expert_xs[rounds, joined]
        return first

    @property
    def bound_skipped_reason(self) -> Optional[str]:
        if not self.activation_times:
            return "no expert joined the pool; the fixed-pool bound does not apply"
        if set(self.activation_times) != {1}:
            return "experts joined mid-run; the fixed-pool bound does not apply"
        return None

    def hedge_gap(self) -> float:
        """Aggregated cumulative loss minus the best joined expert's; only
        meaningful when every expert was active from the first round."""
        joined = self.expert_losses[:, : len(self.activation_times)]
        return float(self.losses.sum() - np.nansum(joined, axis=0).min())


def run_smad(
    family,
    cset: ConstraintSet,
    thetas,
    pool: ExpertPool,
    x1,
    roster: Sequence[tuple[int, object]] = (),
    initial_history=None,
) -> SmadTrajectory:
    """Drive an expert pool over a realized parameter sequence.

    ``pool`` supplies ``beta``, ``gamma``, ``eta`` and ``inner_steps`` and
    must be empty: the roster is the only way experts enter a run, and a
    pool that already holds experts raises ``ValueError``.  ``roster`` lists
    (activation round, predictor) pairs; a day-one pool puts every entry in
    round 1.  At the top of each round the entrants due by then join
    through one :meth:`ExpertPool.activate` call, in roster order, starting
    from the previous round's play (``x1`` in round 1).  Rounds before the
    first activation are played by one standard-descent
    ``run_predictive_ogd`` call with the pool's ``eta`` and
    ``inner_steps``, so a run whose first activation is late stays identical
    to the standard baseline until then.  Per-expert arrays hold the roster
    entries sorted by round.  ``initial_history`` seeds the observation
    record (data available before round 1).  The record holds it and every
    realized parameter but the last, which no round observes before its
    step.  Every expert's aims come from one
    :func:`poco.predictors.aim_table` over the record, built before the
    loop, whose column for an expert joining in round t starts at the
    record length that round observes; round t passes the table's row for
    that length to :meth:`ExpertPool.step`.  The same table gives the
    trajectory's prediction regularities and aim range after the loop.
    """
    if pool.n_active:
        raise ValueError(
            "run_smad admits experts only from its roster; pass an empty "
            f"ExpertPool, not one holding {pool.n_active} experts"
        )
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[0] < 1:
        raise ValueError("thetas must be a nonempty (T, m) array")
    horizon = thetas.shape[0]
    x = np.asarray(x1, dtype=float)
    if not cset.contains(x, tol=1e-9):
        raise ValueError("initial point x1 must lie in the constraint set")
    if initial_history is None:
        seed_len = 0
        seed_rows = np.empty((0, thetas.shape[1]))
    else:
        seed_rows = np.array(initial_history, dtype=float)
        if seed_rows.ndim != 2 or (seed_rows.size and seed_rows.shape[1] != thetas.shape[1]):
            raise ValueError("initial_history must be a (k, m) array")
        seed_len = seed_rows.shape[0]
    # every row some round observes: round t sees the first seed_len + t - 1
    record = np.empty((seed_len + horizon - 1, thetas.shape[1]))
    record[:seed_len] = seed_rows
    record[seed_len:] = thetas[:-1]

    pending = sorted(roster, key=lambda pair: pair[0])
    # an expert joining in round t (round 1 at the earliest) first aims
    # after the seed and t - 1 realized parameters
    aims, aimed = aim_table(
        [predictor for _, predictor in pending], record,
        starts=[seed_len + max(when, 1) - 1 for when, _ in pending],
    )
    n_total = len(pending)
    n = x.shape[0]
    xs = np.empty((horizon, n))
    losses = np.empty(horizon)
    expert_xs = np.full((horizon, n_total, n), np.nan)
    expert_losses = np.full((horizon, n_total), np.nan)
    log_p = np.full((horizon, n_total), np.nan)

    first = pending[0][0] if pending else horizon + 1
    n_plain = min(max(first - 1, 0), horizon)
    if n_plain:
        plain = run_predictive_ogd(
            family, cset, thetas[:n_plain],
            DescentConfig(pool.eta, pool.inner_steps), x,
        )
        xs[:n_plain], losses[:n_plain] = plain.xs, plain.losses

    for t in range(n_plain + 1, horizon + 1):
        i = t - 1
        due = []
        while pending and pending[0][0] <= t:
            due.append(pending.pop(0)[1])
        if due:
            pool.activate(due, x_init=xs[i - 1] if i else x, t=t)
        m_act = pool.n_active
        row = seed_len + i
        xs[i] = pool.step(family, cset, thetas[i], aims[row, :m_act], aimed[row, :m_act])
        losses[i] = pool.last_play_loss
        expert_xs[i, :m_act] = pool.xs
        expert_losses[i, :m_act] = pool.last_losses
        log_p[i, :m_act] = pool.log_p

    # table rows seed_len.. are the aims of rounds 1..T
    p_theta, aim_lo, aim_hi = _aim_record(
        thetas, aims[seed_len:], aimed[seed_len:], pool.activated_at
    )
    return SmadTrajectory(
        xs=xs,
        thetas=thetas,
        losses=losses,
        expert_xs=expert_xs,
        expert_losses=expert_losses,
        p=np.exp(log_p),
        activation_times=tuple(pool.activated_at),
        p_theta_by_expert=p_theta,
        aim_lo=aim_lo,
        aim_hi=aim_hi,
        eta=pool.eta,
        inner_steps=pool.inner_steps,
        gamma=pool.gamma,
    )
