"""Projected online gradient descent toward a predicted parameter.

One update is x_{t+1} = P_X(x_t - eta * grad_x f(x_t, theta_ref)) where
theta_ref is the round's aim (:func:`poco.predictors.step_aim`): the
predictor's forecast of the next parameter once it is ready, else the last
observation.  Standard descent is the run without a predictor, which always
aims at the last observation; a ``Persistence`` predictor gives the same
run.  ``inner_steps`` > 1 repeats the update map within a single round.
Losses are always charged against the realized parameter: the step
ordering per round is observe, charge, predict, step.

An aim depends only on the parameters observed so far, never on the
iterates, so a run reads every aim from one
:func:`poco.predictors.aim_table` built before its loop: an AR predictor
fits all prefixes of the observed sequence in one pass instead of refitting
every round.  A stack of R parameter sequences advances in lockstep, its
runs as rows: one aim table call covers all R runs, with one AR pass per
block of runs of the stack, each inner step is one :func:`ogd_step_rows` call and each
round charges the R losses with one ``_value_rows`` call.  The row kernels
compute a row the same way whatever the row count, so run r of a stack
equals the run of its sequence alone bit for bit.

A run checks its parameters once, at its entry: the family's
``_check_thetas`` refuses a bad row of the realized parameters or of an
aimed entry of the aim table before round 1 (:func:`check_run_thetas`).
The loop then calls only the family's private row kernels, which read
their rows unchecked.

Every run, descent or expert pool, is recorded in one :class:`Trajectory`,
shaped as a pool: a descent run is the one expert that joins in round 1,
holds all the mass and learns no weights.  The record keeps the run's aim
table, and its prediction regularity, aim range and first plays are read
off it, so a regret ledger reads every run the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from poco.domains import ConstraintSet
from poco.objectives import one_row
from poco.predictors import aim_table


@dataclass(frozen=True)
class DescentConfig:
    eta: float
    inner_steps: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be positive, got {self.eta}")
        if int(self.inner_steps) < 1:
            raise ValueError(f"inner_steps must be >= 1, got {self.inner_steps}")
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "inner_steps", int(self.inner_steps))


def ogd_step(family, cset: ConstraintSet, x, theta_ref, eta: float, inner_steps: int = 1):
    """Apply ``inner_steps`` projected gradient updates toward theta_ref: a
    one-row :func:`ogd_step_rows` call after a check of both lengths and of
    the family's ``_check_thetas``."""
    xs, aims = one_row(x, family.n, "x"), one_row(theta_ref, family.m, "theta_ref")
    family._check_thetas(aims)
    return ogd_step_rows(family, cset, xs, aims, eta, inner_steps, "row", [0])[0]


def check_run_thetas(family, thetas, rows, what: str) -> None:
    """``family._check_thetas`` on a run's (k, m) parameter rows before its
    first round; an error names ``what`` and the bad row's entry of
    ``rows``."""
    try:
        family._check_thetas(thetas, rows)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def ogd_step_rows(
    family, cset: ConstraintSet, xs, aims, eta: float, inner_steps: int, owner: str, ids
) -> np.ndarray:
    """``inner_steps`` projected gradient updates of every row of ``xs``
    toward the same row of ``aims``; row i equals ``ogd_step`` on it bit for
    bit.  The one row update of descent runs and expert pools, on rows that
    ``family._check_thetas`` accepted.  Each update makes one call of the
    family's ``_gradient_x_rows`` kernel, checks once that every step
    x - eta*g is finite and hands the steps to the set's projection kernel
    ``cset._project_rows``.  A non-finite step raises ``FloatingPointError``
    naming the ``owner`` and ``ids`` entry of the first bad row: a
    non-finite gradient, if any row has one, else a step that overflowed."""
    z = xs
    for _ in range(inner_steps):
        g = family._gradient_x_rows(z, aims)
        y = z - eta * g
        if not np.isfinite(y).all():
            bad_grad = ~np.isfinite(g).all(axis=1)
            bad = int(np.flatnonzero(bad_grad if bad_grad.any() else ~np.isfinite(y).all(1))[0])
            if bad_grad[bad]:
                raise FloatingPointError(
                    f"non-finite gradient for {owner} {ids[bad]} at x={z[bad]!r}; "
                    "the iterate left the region where the objective is well behaved"
                )
            raise FloatingPointError(
                f"the step of {owner} {ids[bad]} from x={z[bad]!r} overflowed: "
                f"x - eta*g is not finite at eta={eta}"
            )
        z = cset._project_rows(y)
    return z


@dataclass
class Trajectory:
    """One run, shaped as an expert pool: a descent run is the pool of one
    expert that joins in round 1 and learns no weights (``gamma`` None).

    Row t-1 holds the round-t quantities: the play ``xs[t-1]``, the observed
    parameter ``thetas[t-1]`` and the realized loss.  Per expert, in
    activation order, ``expert_xs`` (T, N, n) and ``expert_losses`` (T, N)
    hold its moves and their losses (NaN before it joins), ``p`` (T, N)
    the post-update distribution of each round, and ``aims`` (T, N, m) the
    parameter its round-t move descended toward, NaN where ``aimed`` (T, N)
    says it had none.  ``activation_times`` lists the joined experts'
    rounds; roster entries that never joined trail them.  ``eta``,
    ``inner_steps`` and ``gamma`` are the run's step size, inner steps per
    round and learning rate.
    """

    xs: np.ndarray
    thetas: np.ndarray
    losses: np.ndarray
    expert_xs: np.ndarray
    expert_losses: np.ndarray
    p: np.ndarray
    aims: np.ndarray
    aimed: np.ndarray
    activation_times: tuple
    eta: float
    inner_steps: int
    gamma: float | None

    @property
    def horizon(self) -> int:
        return self.xs.shape[0]

    @property
    def theta_hats(self) -> np.ndarray:
        """A one-expert run's aims, with the observation in rounds its
        expert had none (entry 0 of a descent run, never scored)."""
        return np.where(self.aimed[:, :1], self.aims[:, 0], self.thetas)

    @property
    def p_theta_by_expert(self) -> np.ndarray:
        """(N,) each joined expert's prediction regularity, NaN for roster
        entries that never joined.  An expert is scored in every round after
        its activation round in which it aims, so its first round's error is
        absorbed by the starting-gap term; the errors add up in round order,
        as a running sum would."""
        joined = len(self.activation_times)
        rounds = np.arange(1, self.horizon + 1)[:, None]
        scored = self.aimed[:, :joined] & (rounds > np.asarray(self.activation_times, dtype=int))
        errors = np.linalg.norm(self.thetas[:, None] - self.aims[:, :joined], axis=2)
        p_theta = np.full(self.aimed.shape[1], np.nan)
        p_theta[:joined] = np.cumsum(np.where(scored, errors, 0.0), axis=0)[-1]
        return p_theta

    @property
    def p_theta(self) -> float:
        """The best expert's prediction regularity; NaN when none joined."""
        return float(np.fmin.reduce(self.p_theta_by_expert, initial=np.nan))

    @property
    def aim_lo(self) -> np.ndarray | None:
        """Componentwise minimum of every aim; None when nothing aimed."""
        return self.aims[self.aimed].min(axis=0) if self.aimed.any() else None

    @property
    def aim_hi(self) -> np.ndarray | None:
        return self.aims[self.aimed].max(axis=0) if self.aimed.any() else None

    @property
    def first_plays(self) -> np.ndarray:
        """(N, n) each expert's play in its activation round; NaN for
        roster entries that never joined."""
        first = np.full(self.expert_xs.shape[1:], np.nan)
        joined = np.arange(len(self.activation_times))
        first[joined] = self.expert_xs[np.asarray(self.activation_times, dtype=int) - 1, joined]
        return first

    @property
    def bound_skipped_reason(self) -> str | None:
        """None when every expert joined in round 1, which the bounds
        cover, else why they do not apply."""
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


def run_predictive_ogd(
    family,
    cset: ConstraintSet,
    thetas,
    config: DescentConfig,
    x1,
    predictor=None,
) -> Trajectory | list[Trajectory]:
    """Run the online loop over a realized parameter sequence, or over a
    stack of them in lockstep.

    ``thetas`` is one full (T, m) scenario, which gives a
    :class:`Trajectory`, or an (R, T, m) stack of R scenarios, which gives
    a list of R; every run starts from ``x1``.  The aim after round t still
    reads only the prefix observed by then, and the last parameter, which
    no step follows, is never read.  Each step aims where
    :func:`poco.predictors.step_aim` says: at the freshly observed parameter
    until ``predictor.ready``, and always when ``predictor`` is None
    (standard descent).  That keeps a predictive run's early rounds
    identical to standard descent, which is also what makes paired
    difference curves start at exactly zero.  The aims of all runs come from
    one :func:`poco.predictors.aim_table` call over the stack, built before
    the loop; the runs then advance as rows of one array.  Before round 1
    the family's ``_check_thetas`` refuses a bad row of a run's parameters
    or of its aims, naming the repetition and the row; the loop then calls
    only the row kernels.
    """
    thetas = np.asarray(thetas, dtype=float)
    runs = thetas if thetas.ndim == 3 else thetas[None]
    if runs.ndim != 3 or 0 in runs.shape[:2] or runs.shape[2] != family.m:
        raise ValueError(f"thetas must be a nonempty (T, m) array or an (R, T, m) stack of "
                         f"them, m = family.m = {family.m}; got shape {thetas.shape}")
    n_runs, horizon, _ = runs.shape
    x = np.asarray(x1, dtype=float)
    if not cset.contains(x, tol=1e-9):
        raise ValueError("initial point x1 must lie in the constraint set")

    xs = np.empty((n_runs, horizon, x.shape[0]))
    losses = np.empty((n_runs, horizon))
    # the one expert first aims after one observation, at round 2's move
    aims, aimed = aim_table([predictor], runs[:, :-1], starts=[1])
    steps = np.flatnonzero(aimed[1:, 0]) + 1  # the table rows the steps read
    for r in range(n_runs):
        check_run_thetas(family, runs[r], None, f"thetas of repetition {r}")
        check_run_thetas(family, aims[r, steps, 0], steps, f"aim table of repetition {r}")

    ids = np.arange(n_runs)
    z = np.tile(x, (n_runs, 1))
    for i in range(horizon):
        xs[:, i] = z
        losses[:, i] = family._value_rows(z, runs[:, i])
        if i + 1 < horizon:
            z = ogd_step_rows(
                family, cset, z, aims[:, i + 1, 0], config.eta, config.inner_steps,
                "repetition", ids,
            )

    trajectories = [
        Trajectory(
            xs=xs[r], thetas=runs[r], losses=losses[r], expert_xs=xs[r][:, None],
            expert_losses=losses[r][:, None], p=np.ones((horizon, 1)), aims=aims[r], aimed=aimed,
            activation_times=(1,), eta=config.eta, inner_steps=config.inner_steps, gamma=None,
        )
        for r in range(n_runs)
    ]
    return trajectories if thetas.ndim == 3 else trajectories[0]
