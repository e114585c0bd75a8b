"""Dynamic-regret accounting and empirical verification of the regret bounds.

The per-round benchmark is the constrained minimizer x*_t of f(., theta_t).
This module computes those minimizers, the regularities (the path length of
the minimizers and the cumulative prediction error), the measured dynamic
regret, and the closed-form bounds the library promises:

* ``predictive_regret_bound``: dynamic regret of predictive projected
  descent in terms of the contraction factor, the starting gap, the
  minimizer path length and the prediction regularity (the k-step variant
  raises the contraction factor to the k-th power in the first two terms);
* ``expert_regret_bound``: the same evaluated at the best expert's
  prediction regularity, plus the aggregation penalty D*sqrt(2T)/4*(1+ln N).

Bound checks refuse to run when the projection is not nonexpansive (the
renormalizing simplex heuristic), because the contraction argument behind
the bounds does not survive that substitution.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from poco.domains import ConstraintSet, SIMPLEX_EXACT, UnitSimplex
from poco.objectives import ObjectiveConstants, contraction_factor

logger = logging.getLogger(__name__)

MINIMIZER_STEP_TOL = 1e-12
MINIMIZER_MAX_ITER = 10**6


def _exact_twin(cset: ConstraintSet) -> ConstraintSet:
    """The benchmark minimizer is defined by the set, not by whatever
    projection shortcut a run used; always search with the metric
    projection (which also carries the convergence guarantee)."""
    if isinstance(cset, UnitSimplex) and cset.mode != SIMPLEX_EXACT:
        return UnitSimplex(cset.dim, mode=SIMPLEX_EXACT)
    return cset


def minimizer_oracle(
    family,
    cset: ConstraintSet,
    theta,
    max_iter: int = MINIMIZER_MAX_ITER,
) -> np.ndarray:
    """Constrained minimizer of f(., theta) to high accuracy.

    If the unconstrained stationary point is feasible it is returned
    directly; otherwise projected gradient descent with the exact parameter
    is iterated until the step displacement falls below
    ``MINIMIZER_STEP_TOL``, which the contraction property turns into a
    guarantee on ||x - x*||.
    """
    cset = _exact_twin(cset)
    xu = family.unconstrained_minimizer(theta)
    if xu is not None and np.all(np.isfinite(xu)):
        if cset.contains(xu, tol=1e-12):
            return cset.project(xu)
        z = cset.project(xu)
    else:
        z = cset.interior_point()
    _, big_l = family.curvature(theta)
    if not (np.isfinite(big_l) and big_l > 0):
        raise ValueError("objective is not smooth at this parameter")
    eta = 1.0 / big_l
    for _ in range(max_iter):
        z_new = cset.project(z - eta * family.gradient_x(z, theta))
        if float(np.linalg.norm(z_new - z)) < MINIMIZER_STEP_TOL:
            return z_new
        z = z_new
    raise RuntimeError(
        f"minimizer iteration cap {max_iter} reached without convergence"
    )


def minimizers_batch(
    family,
    cset: ConstraintSet,
    thetas,
) -> np.ndarray:
    """Row-wise minimizer_oracle, vectorized when the family supports it."""
    cset = _exact_twin(cset)
    thetas = np.asarray(thetas, dtype=float)
    if not (
        hasattr(family, "gradient_x_rows")
        and hasattr(family, "unconstrained_minimizer_rows")
        and hasattr(family, "curvature_rows")
        and hasattr(cset, "project_rows")
    ):
        return np.stack(
            [minimizer_oracle(family, cset, row) for row in thetas]
        )

    xu = family.unconstrained_minimizer_rows(thetas)
    z = cset.project_rows(xu)
    feasible_direct = np.linalg.norm(z - xu, axis=1) <= 1e-12
    _, big_l = family.curvature_rows(thetas)
    etas = (1.0 / big_l)[:, None]

    active = ~feasible_direct
    out = z.copy()
    idx = np.nonzero(active)[0]
    z_act = z[idx]
    th_act = thetas[idx]
    eta_act = etas[idx]
    for _ in range(MINIMIZER_MAX_ITER):
        if len(idx) == 0:
            break
        g = family.gradient_x_rows(z_act, th_act)
        z_new = cset.project_rows(z_act - eta_act * g)
        disp = np.linalg.norm(z_new - z_act, axis=1)
        done = disp < MINIMIZER_STEP_TOL
        if np.any(done):
            out[idx[done]] = z_new[done]
            keep = ~done
            idx = idx[keep]
            z_act = z_new[keep]
            th_act = th_act[keep]
            eta_act = eta_act[keep]
        else:
            z_act = z_new
    else:
        raise RuntimeError(
            f"minimizer iteration cap {MINIMIZER_MAX_ITER} reached without convergence"
        )
    return out


def dynamic_regret(losses, optimal_losses) -> float:
    """sum_t [f(x_t, theta_t) - f(x*_t, theta_t)]."""
    a = np.asarray(losses, dtype=float)
    b = np.asarray(optimal_losses, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"aligned sequences required, got {a.shape} vs {b.shape}")
    return float(np.sum(a - b))


def path_length(minimizers) -> float:
    """Total distance traveled by the per-round minimizers."""
    xs = np.asarray(minimizers, dtype=float)
    if xs.ndim != 2 or xs.shape[0] < 1:
        raise ValueError("need at least one minimizer row")
    if xs.shape[0] == 1:
        return 0.0
    return float(np.linalg.norm(np.diff(xs, axis=0), axis=1).sum())


def predictive_regret_bound(
    constants: ObjectiveConstants,
    eta: float,
    x1_gap: float,
    p_star: float,
    p_theta: float,
    k: int = 1,
) -> float:
    """Dynamic-regret bound for k-step predictive projected descent.

    With C the contraction factor at (lam, eta):

        G*x1_gap/(1 - C^k) + G*C^k*P*/(1 - C^k) + G*eta*C_theta*P_theta/(1 - C)

    Requires eta <= 1/L; k = 1 recovers the single-step bound.
    """
    if int(k) < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for name, val in (("x1_gap", x1_gap), ("p_star", p_star), ("p_theta", p_theta)):
        if val < 0 or not np.isfinite(val):
            raise ValueError(f"{name} must be finite and nonnegative, got {val}")
    c = contraction_factor(constants, eta)
    ck = c ** int(k)
    g = constants.G
    return (
        g * x1_gap / (1.0 - ck)
        + g * ck * p_star / (1.0 - ck)
        + g * eta * constants.C_theta * p_theta / (1.0 - c)
    )


def expert_regret_bound(
    constants: ObjectiveConstants,
    eta: float,
    x1_gap: float,
    p_star: float,
    min_p_theta: float,
    d_range: float,
    horizon: int,
    n_experts: int,
    k: int = 1,
) -> float:
    """Dynamic-regret bound for the expert-learning aggregate.

    The descent part is evaluated at the best expert's prediction regularity;
    the aggregation penalty D*sqrt(2T)/4*(1 + ln N) assumes the learning rate
    gamma = sqrt(8/(T*D^2)) and a pool fixed from the first round.  A constant
    objective has D = 0 and pays no aggregation penalty.
    """
    if not (np.isfinite(d_range) and d_range >= 0):
        raise ValueError(f"loss range D must be nonnegative, got {d_range}")
    if int(horizon) < 1 or int(n_experts) < 1:
        raise ValueError("need horizon >= 1 and n_experts >= 1")
    descent_part = predictive_regret_bound(
        constants, eta, x1_gap, p_star, min_p_theta, k=k
    )
    mixing_part = d_range * math.sqrt(2.0 * horizon) / 4.0 * (1.0 + math.log(n_experts))
    return descent_part + mixing_part


def realized_theta_box(*theta_arrays) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise bounding box of realized parameters and predictions.

    Constants derived over this box are valid for the run that produced it;
    predictions must be included because the descent directions were taken
    at the predicted parameters.
    """
    stacked = np.vstack([np.asarray(a, dtype=float) for a in theta_arrays])
    if not np.all(np.isfinite(stacked)):
        raise ValueError("parameter sequences must be finite")
    return stacked.min(axis=0), stacked.max(axis=0)


@dataclass
class RegretLedger:
    """Per-run accounting: losses, minimizers, regularities, bound values."""

    losses: np.ndarray
    optimal_losses: np.ndarray
    minimizers: np.ndarray
    reg_d: float
    p_star: float
    p_theta: float
    x1_gap: float
    constants: ObjectiveConstants
    eta: float
    inner_steps: int
    contraction: Optional[float]
    bound: Optional[float]
    bound_holds: Optional[bool]
    bound_skipped_reason: Optional[str] = None

    def summary_lines(self) -> list[str]:
        lines = [
            f"Reg_D            {self.reg_d:.6g}",
            f"P* (path length) {self.p_star:.6g}",
            f"P^theta          {self.p_theta:.6g}",
            f"||x1 - x1*||     {self.x1_gap:.6g}",
            f"constants        G={self.constants.G:.6g} L={self.constants.L:.6g} "
            f"lam={self.constants.lam:.6g} C_theta={self.constants.C_theta:.6g} "
            f"D={self.constants.D:.6g}",
            f"eta={self.eta:.6g} inner_steps={self.inner_steps}",
        ]
        if self.contraction is not None:
            lines.append(f"contraction C    {self.contraction:.9g}")
        if self.bound is not None:
            verdict = "PASS" if self.bound_holds else "FAIL"
            lines.append(f"regret bound     {self.bound:.6g}  [{verdict}]")
        if self.bound_skipped_reason:
            lines.append(f"bound check skipped: {self.bound_skipped_reason}")
        return lines


BOUND_SLACK = 1e-6


def build_ledger(
    family,
    cset: ConstraintSet,
    trajectory,
    eta: float,
    inner_steps: int = 1,
    check_bound: bool = True,
) -> RegretLedger:
    """Assemble the regret accounting for a finished run.

    ``trajectory`` is a descent ``Trajectory`` or a pool ``SmadTrajectory``;
    the ledger reads its ``thetas``, ``losses``, ``xs[0]``, prediction
    regularity ``p_theta`` and aim range ``aim_lo``/``aim_hi``.  Constants
    come from ``derive_constants`` over the bounding box of the realized
    parameters and the aims actually descended toward (the parameters
    alone when nothing was aimed at).  The predictive-descent bound is
    evaluated only on nonexpansive projections; heuristic runs get a logged
    notice instead.
    """
    xstars = minimizers_batch(family, cset, trajectory.thetas)
    opt_losses = family.value_rows(xstars, trajectory.thetas)
    reg_d = dynamic_regret(trajectory.losses, opt_losses)
    p_star = path_length(xstars)
    p_theta = trajectory.p_theta
    x1_gap = float(np.linalg.norm(trajectory.xs[0] - xstars[0]))
    lo, hi = trajectory.aim_lo, trajectory.aim_hi
    aims = () if lo is None else (lo[None], hi[None])
    box = realized_theta_box(trajectory.thetas, *aims)
    constants = family.derive_constants(cset, box)

    contraction = None
    bound = None
    holds = None
    skipped = None
    if check_bound:
        if not cset.nonexpansive:
            skipped = (
                "projection mode is not nonexpansive; the contraction "
                "argument behind the bound does not apply"
            )
            logger.info("bound check skipped: %s", skipped)
        else:
            contraction = contraction_factor(constants, eta)
            bound = predictive_regret_bound(
                constants, eta, x1_gap, p_star, p_theta, k=inner_steps
            )
            holds = reg_d <= bound + BOUND_SLACK * (1.0 + abs(bound))

    return RegretLedger(
        losses=np.asarray(trajectory.losses, dtype=float),
        optimal_losses=opt_losses,
        minimizers=xstars,
        reg_d=reg_d,
        p_star=p_star,
        p_theta=p_theta,
        x1_gap=x1_gap,
        constants=constants,
        eta=eta,
        inner_steps=inner_steps,
        contraction=contraction,
        bound=bound,
        bound_holds=holds,
        bound_skipped_reason=skipped,
    )
