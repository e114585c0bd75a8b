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
runs as rows: one aim table call covers all R runs, with one AR pass over
the stack, each inner step is one :func:`ogd_step_rows` call and each
round charges the R losses with one ``value_rows`` call.  The row kernels
compute a row the same way whatever the row count, so run r of a stack
equals the run of its sequence alone bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from poco.domains import ConstraintSet
from poco.objectives import one_row
from poco.predictors import aim_table, prediction_regularity


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
    one-row :func:`ogd_step_rows` call after a check of both lengths."""
    xs, aims = one_row(x, family.n, "x"), one_row(theta_ref, family.m, "theta_ref")
    return ogd_step_rows(family, cset, xs, aims, eta, inner_steps, "row", [0])[0]


def ogd_step_rows(
    family, cset: ConstraintSet, xs, aims, eta: float, inner_steps: int, owner: str, ids
) -> np.ndarray:
    """``inner_steps`` projected gradient updates of every row of ``xs``
    toward the same row of ``aims``, one ``family.gradient_x_rows`` and one
    ``cset.project_rows`` call per update; row i equals ``ogd_step`` on it
    bit for bit.  The one row update of descent runs and expert pools.  A
    non-finite gradient raises ``FloatingPointError`` naming the ``owner``
    and ``ids`` entry of the first bad row."""
    z = xs
    for _ in range(inner_steps):
        g = family.gradient_x_rows(z, aims)
        finite = np.isfinite(g).all(axis=1)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise FloatingPointError(
                f"non-finite gradient for {owner} {ids[bad]} at x={z[bad]!r}; "
                "the iterate left the region where the objective is well behaved"
            )
        z = cset.project_rows(z - eta * g)
    return z


@dataclass
class Trajectory:
    """One run of (predictive) online gradient descent.

    Row t-1 holds the round-t quantities: the play ``xs[t-1]``, the observed
    parameter ``thetas[t-1]`` and the realized loss.  ``theta_hats[t-1]`` is
    the parameter the step that produced x_t descended toward (a prediction,
    or the previous observation while warming up or without a predictor);
    entry 0 is a copy of thetas[0] and is never scored by the prediction
    regularity.  ``p_theta``, the aim range ``aim_lo``/``aim_hi``, ``eta``,
    ``inner_steps`` and ``bound_skipped_reason`` are the fields a regret
    ledger reads, as for :class:`poco.smad.SmadTrajectory`.
    """

    bound_skipped_reason = None  # the predictive-descent bound covers every descent run

    xs: np.ndarray
    thetas: np.ndarray
    theta_hats: np.ndarray
    losses: np.ndarray
    eta: float
    inner_steps: int

    @property
    def horizon(self) -> int:
        return self.xs.shape[0]

    @property
    def p_theta(self) -> float:
        """Prediction regularity of the parameters the steps aimed at."""
        return prediction_regularity(self.thetas, self.theta_hats)

    @property
    def aim_lo(self) -> np.ndarray:
        return self.theta_hats.min(axis=0)

    @property
    def aim_hi(self) -> np.ndarray:
        return self.theta_hats.max(axis=0)


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
    the loop; the runs then advance as rows of one array.
    """
    thetas = np.asarray(thetas, dtype=float)
    runs = thetas if thetas.ndim == 3 else thetas[None]
    if runs.ndim != 3 or 0 in runs.shape[:2]:
        raise ValueError("thetas must be a nonempty (T, m) array or an (R, T, m) stack of them")
    n_runs, horizon, _ = runs.shape
    x = np.asarray(x1, dtype=float)
    if not cset.contains(x, tol=1e-9):
        raise ValueError("initial point x1 must lie in the constraint set")

    xs = np.empty((n_runs, horizon, x.shape[0]))
    losses = np.empty((n_runs, horizon))
    # entry 0 of each run is a copy of its first parameter, never scored
    theta_hats = runs.copy()
    theta_hats[:, 1:] = aim_table([predictor], runs[:, :-1], starts=[1])[0][:, 1:, 0]

    ids = np.arange(n_runs)
    z = np.tile(x, (n_runs, 1))
    for i in range(horizon):
        xs[:, i] = z
        losses[:, i] = family.value_rows(z, runs[:, i])
        if i + 1 < horizon:
            z = ogd_step_rows(
                family, cset, z, theta_hats[:, i + 1], config.eta, config.inner_steps,
                "repetition", ids,
            )

    trajectories = [
        Trajectory(xs[r], runs[r], theta_hats[r], losses[r], config.eta, config.inner_steps)
        for r in range(n_runs)
    ]
    return trajectories if thetas.ndim == 3 else trajectories[0]
