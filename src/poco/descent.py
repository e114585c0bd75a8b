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
iterates, so a run computes every aim before its loop
(:func:`poco.predictors.aim_path`): an AR predictor fits all prefixes of
the observed sequence in one pass instead of refitting every round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from poco.domains import ConstraintSet
from poco.predictors import aim_path, prediction_regularity


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
    """Apply ``inner_steps`` projected gradient updates toward theta_ref."""
    z = np.asarray(x, dtype=float)
    for _ in range(inner_steps):
        g = family.gradient_x(z, theta_ref)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(
                f"non-finite gradient at x={z!r}; the iterate left the "
                "region where the objective is well behaved"
            )
        z = cset.project(z - eta * g)
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
) -> Trajectory:
    """Run the online loop over a realized parameter sequence.

    ``thetas`` is the full (T, m) scenario; the aim after round t still
    reads only the prefix observed by then, and the last parameter, which
    no step follows, is never read.  Each step aims where
    :func:`poco.predictors.step_aim` says: at the freshly observed parameter
    until ``predictor.ready``, and always when ``predictor`` is None
    (standard descent).  That keeps a predictive run's early rounds
    identical to standard descent, which is also what makes paired
    difference curves start at exactly zero.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[0] < 1:
        raise ValueError("thetas must be a nonempty (T, m) array")
    horizon = thetas.shape[0]
    x = np.asarray(x1, dtype=float)
    if not cset.contains(x, tol=1e-9):
        raise ValueError("initial point x1 must lie in the constraint set")

    n = x.shape[0]
    xs = np.empty((horizon, n))
    losses = np.empty(horizon)
    theta_hats = np.empty_like(thetas)
    theta_hats[0] = thetas[0]
    aim_path(predictor, thetas[:-1], out=theta_hats[1:])

    for t in range(1, horizon + 1):
        i = t - 1
        xs[i] = x
        losses[i] = family.value(x, thetas[i])
        if t == horizon:
            break
        x = ogd_step(family, cset, x, theta_hats[t], config.eta, config.inner_steps)

    return Trajectory(
        xs=xs,
        thetas=thetas,
        theta_hats=theta_hats,
        losses=losses,
        eta=config.eta,
        inner_steps=config.inner_steps,
    )
