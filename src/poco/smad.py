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
too), and one ``_value_rows`` call charges the expert moves and the
aggregate play together.  The row kernels compute each row the same way
whatever the row count, so the result equals running ``ogd_step`` once per
expert bit for bit.  A round thus only descends, aggregates, charges and
reweights: it reads no predictor and keeps no aim state.  The run's
:class:`poco.descent.Trajectory`, the record of descent runs too, keeps
the aim table's rows of rounds 1..T, and reads each expert's prediction
regularity and the range of every aim off them.

A run checks its parameters once, at its entry: the family's
``_check_thetas`` refuses a non-finite or unreadable row of the realized
parameters, or an aimed entry of the aim table, before round 1.  The
rounds then call only the family's private row kernels.

Weights are kept in log space; every exposed distribution is normalized.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from poco.descent import (
    DescentConfig,
    Trajectory,
    check_run_thetas,
    ogd_step_rows,
    run_predictive_ogd,
)
from poco.domains import ConstraintSet
from poco.predictors import aim_table

SmadTrajectory = Trajectory  # a pool's run record is the one record of every run


class ExpertPool:
    """Roster of experts with a normalized log-space weight vector.

    Experts join through :meth:`activate`; their state is kept as arrays
    with one row per expert, in activation order: iterates ``xs`` (N, n),
    log-weights ``log_p`` (N,) and activation rounds ``activated_at``.
    After each :meth:`step`, ``xs`` holds every expert's move of that round,
    ``last_losses`` (N,) its loss against the realized parameter and
    ``last_play_loss`` the aggregate play's.  The pool keeps no aim state:
    the run's record keeps the aim table.
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
        scales the incumbents by (1 - beta) and takes mass beta.  A
        non-finite ``x_init`` raises ValueError.
        """
        predictors = list(predictors)
        if not predictors:
            raise ValueError("need at least one predictor")
        rows = np.tile(np.asarray(x_init, dtype=float), (len(predictors), 1))
        if not np.isfinite(rows).all():
            raise ValueError(f"x_init must be finite, got {x_init!r}")
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
        :func:`poco.predictors.aim_table` for the N active experts, a table
        that :func:`run_smad` checked at its entry, as it did ``theta_t``: each
        expert's :func:`poco.predictors.step_aim` (its own prediction of
        theta_t, or the last observation while its predictor warms up), and
        no aim when there is no history at all, in which case the expert
        holds still.  No predictor is asked here.  Every expert that has
        an aim takes its ``inner_steps`` projected gradient updates
        together (:func:`poco.descent.ogd_step_rows`).  The aggregate plays
        the projected weighted mean of the expert moves; one call of the
        family's ``_value_rows`` kernel charges the moves and the aggregate play
        against theta_t, and the expert losses tilt the weights once.  A NaN
        loss, which only a step outside a run meets, raises
        ``FloatingPointError``; weights that all vanish otherwise raise
        ``ArithmeticError`` naming gamma.
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

        # a weighted mean of checked moves needs no finiteness check
        x_t = cset._project_rows((self.distribution() @ moves)[None])
        values = family._value_rows(np.concatenate([moves, x_t]), theta_t[None, :])
        losses = values[:-1]

        self.xs = moves
        log_w = self.log_p - self.gamma * losses
        norm = _logsumexp(log_w)
        if not math.isfinite(norm):
            if np.isnan(losses).any():
                raise FloatingPointError(
                    "an expert loss is NaN in the Gibbs update; "
                    "the revealed parameter is not finite"
                )
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


def run_smad(
    family,
    cset: ConstraintSet,
    thetas,
    pool: ExpertPool,
    x1,
    roster: Sequence[tuple[int, object]] = (),
    initial_history=None,
) -> Trajectory:
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
    that length to :meth:`ExpertPool.step`.  The trajectory keeps the
    table's rows of rounds 1..T, from which it reads its prediction
    regularities and aim range.  Before round 1 the family's
    ``_check_thetas`` refuses a bad row of ``thetas``, a non-finite one
    included, or of an expert's aimed entries in the table, naming the row;
    the rounds then call only the row kernels.
    """
    if pool.n_active:
        raise ValueError(
            "run_smad admits experts only from its roster; pass an empty "
            f"ExpertPool, not one holding {pool.n_active} experts"
        )
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[0] < 1 or thetas.shape[1] != family.m:
        raise ValueError(f"thetas must be a nonempty (T, m) array, m = family.m = {family.m}; "
                         f"got shape {thetas.shape}")
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
    check_run_thetas(family, thetas, None, "thetas")
    for j in range(aimed.shape[1]):
        rows = np.flatnonzero(aimed[:, j])
        check_run_thetas(family, aims[rows, j], rows, f"aim table, expert {j}")
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
    return Trajectory(
        xs=xs, thetas=thetas, losses=losses, expert_xs=expert_xs, expert_losses=expert_losses,
        p=np.exp(log_p), aims=aims[seed_len:], aimed=aimed[seed_len:],
        activation_times=tuple(pool.activated_at),
        eta=pool.eta, inner_steps=pool.inner_steps, gamma=pool.gamma,
    )
