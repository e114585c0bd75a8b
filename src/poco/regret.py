"""Dynamic-regret accounting and empirical verification of the regret bounds.

The per-round benchmark is the constrained minimizer x*_t of f(., theta_t),
solved in closed form for ``QuadraticTracking`` and otherwise by the
projected descent update of the runs (:func:`poco.descent.ogd_step_rows`)
at step 1/L, to convergence.  The search checks its parameters once, with
the family's ``_check_thetas``, as a run does at its entry.  This module
computes those minimizers, the regularities (the path length of the
minimizers and the cumulative prediction error), the measured dynamic
regret, and the closed-form bounds the library promises:

* ``predictive_regret_bound``: dynamic regret of predictive projected
  descent in terms of the contraction factor, the starting gap, the
  minimizer path length and the prediction regularity (the k-step variant
  raises the contraction factor to the k-th power in the first two terms);
* ``hedge_gap_bound``: the exponential-weights aggregation penalty
  T*gamma*D^2/8 + ln(N)/gamma (Cesa-Bianchi & Lugosi 2006, Thm 2.2), which
  ``suggested_gamma`` minimizes;
* ``expert_regret_bound``: the first at the best expert's prediction
  regularity plus the second at ``suggested_gamma``, where it equals
  D*sqrt(2T)/4*(1+ln N).

Bound checks are skipped when the projection is not nonexpansive (the
renormalizing simplex heuristic) or eta exceeds 1/L, because the
contraction argument behind the bounds does not survive either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from poco.descent import ogd_step_rows
from poco.domains import ConstraintSet, SIMPLEX_EXACT, UnitSimplex
from poco.objectives import (
    ObjectiveConstants, QuadraticTracking, contraction_factor, step_contracts
)

MINIMIZER_STEP_TOL = 1e-12
MINIMIZER_MAX_ITER = 10**6
SECULAR_MAX_ITER = 100  # Newton steps on the ball's secular equation


def _exact_twin(cset: ConstraintSet) -> ConstraintSet:
    """The benchmark minimizer is defined by the set, not by whatever
    projection shortcut a run used; always search with the metric
    projection (which also carries the convergence guarantee)."""
    if isinstance(cset, UnitSimplex) and cset.mode != SIMPLEX_EXACT:
        return UnitSimplex(cset.dim, mode=SIMPLEX_EXACT)
    return cset


def minimizer_oracle(family, cset: ConstraintSet, theta) -> np.ndarray:
    """Constrained minimizer of f(., theta) to high accuracy: a one-row
    :func:`minimizers_batch` call."""
    return minimizers_batch(family, cset, np.asarray(theta, dtype=float)[None])[0]


def minimizers_batch(family, cset: ConstraintSet, thetas) -> np.ndarray:
    """Constrained minimizer of f(., theta), to high accuracy, for each row
    of the (k, m) ``thetas``, which the family's ``_check_thetas`` checks:
    a non-finite row raises ValueError naming it.

    ``QuadraticTracking`` is solved from its optimality conditions
    (:func:`_tracking_minimizers`).  For every other family a row whose
    unconstrained stationary point is feasible gets that point.  Every other
    row starts from its projection, or from ``cset.interior_point()`` when
    it is not finite (a singular covariance), and runs projected gradient
    descent with the exact parameter and step 1/L, the update of the runs
    (:func:`poco.descent.ogd_step_rows`, whose errors name the parameter
    row), until a step moves less than ``MINIMIZER_STEP_TOL``, which the
    contraction property turns into a guarantee on ||x - x*||.  A row still
    moving after ``MINIMIZER_MAX_ITER`` steps raises ``RuntimeError``.
    """
    cset = _exact_twin(cset)
    if cset.dim != family.n:
        raise ValueError(f"the family has n = {family.n} but the set dimension {cset.dim}")
    thetas = family._check_thetas(thetas)
    if isinstance(family, QuadraticTracking):
        return _tracking_minimizers(family.weights, cset, thetas[:, : family.n])
    xu = family.unconstrained_minimizer_rows(thetas)
    finite = np.isfinite(xu).all(axis=1)
    out = np.tile(cset.interior_point(), (len(thetas), 1))
    out[finite] = cset._project_rows(xu[finite])
    direct = np.linalg.norm(out - xu, axis=1) <= 1e-12  # False on a non-finite row

    idx = np.flatnonzero(~direct)
    z_act, th_act = out[idx], thetas[idx]
    _, big_l = family.curvature_rows(th_act)
    rough = ~(np.isfinite(big_l) & (big_l > 0))
    if rough.any():
        raise ValueError(f"objective is not smooth at the parameter of row {idx[rough][0]}")
    eta_act = (1.0 / big_l)[:, None]
    for _ in range(MINIMIZER_MAX_ITER):
        if not idx.size:
            break
        z_new = ogd_step_rows(family, cset, z_act, th_act, eta_act, 1, "parameter row", idx)
        done = np.linalg.norm(z_new - z_act, axis=1) < MINIMIZER_STEP_TOL
        if done.any():
            out[idx[done]] = z_new[done]
            keep = ~done
            idx, z_new, th_act, eta_act = idx[keep], z_new[keep], th_act[keep], eta_act[keep]
        z_act = z_new
    if idx.size:
        raise RuntimeError(f"minimizer iteration cap {MINIMIZER_MAX_ITER} reached without convergence")
    return out


def _tracking_minimizers(w, cset: ConstraintSet, targets) -> np.ndarray:
    """argmin of sum_i w_i (x_i - a_i)^2 over the ball or the exact simplex
    for each row a of ``targets``, from the optimality conditions."""
    if isinstance(cset, UnitSimplex):
        # x_i = max(a_i - tau/(2 w_i), 0) summing to one, tau the root of a
        # continuous quadratic knapsack (Pardalos & Kovoor 1990): with the
        # breakpoints 2 w_i a_i descending, the support is the longest prefix
        # whose last breakpoint lies above the prefix's tau (the first always does)
        order = np.argsort(-(w * targets), axis=1)
        a_sorted, half_inv = np.take_along_axis(targets, order, axis=1), 0.5 / w
        taus = (np.cumsum(a_sorted, axis=1) - 1.0) / np.cumsum(half_inv[order], axis=1)
        above = a_sorted > taus * half_inv[order]
        rho = targets.shape[1] - 1 - np.argmax(above[:, ::-1], axis=1)
        tau = np.take_along_axis(taus, rho[:, None], axis=1)
        return np.maximum(targets - tau * half_inv, 0.0)
    # x(nu) = (w a + nu c)/(w + nu) with nu >= 0 the root of ||x(nu) - c|| = r,
    # a target inside the ball being its own minimizer (nu = 0).  Newton on
    # psi(nu) = 1/r - 1/||x(nu) - c||, convex and decreasing, rises from
    # nu = 0 to the root without overshooting (More & Sorensen 1983).
    d, r = targets - cset.center, cset.radius
    out, idx = targets.copy(), np.flatnonzero((d * d).sum(axis=1) > r * r)
    d, nu = d[idx], np.zeros(len(idx))
    for _ in range(SECULAR_MAX_ITER):
        if not idx.size:
            break
        h = w + nu[:, None]
        e = w * d / h  # x(nu) - c
        s2 = (e * e).sum(axis=1)
        step = (np.sqrt(s2) - r) * s2 / (r * (e * e / h).sum(axis=1))
        nu = nu + step
        # a step near the rounding floor of ||x - c|| - r is the row's last
        done = step <= 1e-13 * (w.max() + nu)
        if done.any():
            out[idx[done]] = cset.center + w * d[done] / (w + nu[done, None])
            idx, d, nu = idx[~done], d[~done], nu[~done]
    if idx.size:
        raise RuntimeError(f"secular equation of row {idx[0]} unsolved at the iteration cap "
                           f"{SECULAR_MAX_ITER}")
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
    """Dynamic-regret bound for the expert-learning aggregate:
    ``predictive_regret_bound`` at the best expert's prediction regularity
    plus ``hedge_gap_bound`` at the tuned learning rate ``suggested_gamma``,
    for a pool fixed from the first round.  A constant objective has D = 0
    and pays no aggregation penalty.
    """
    if not (np.isfinite(d_range) and d_range >= 0):
        raise ValueError(f"loss range D must be nonnegative, got {d_range}")
    if int(horizon) < 1 or int(n_experts) < 1:
        raise ValueError("need horizon >= 1 and n_experts >= 1")
    bound = predictive_regret_bound(constants, eta, x1_gap, p_star, min_p_theta, k=k)
    if d_range > 0:
        bound += hedge_gap_bound(suggested_gamma(d_range, horizon), d_range, horizon, n_experts)
    return bound


def hedge_gap_bound(gamma: float, d_range: float, horizon: int, n_experts: int) -> float:
    """Upper bound T*gamma*D^2/8 + ln(N)/gamma on the aggregated loss minus
    the best expert's loss, valid for pools held fixed over the run."""
    if gamma <= 0 or d_range < 0 or horizon < 1 or n_experts < 1:
        raise ValueError("need gamma > 0, D >= 0, T >= 1, N >= 1")
    return horizon * gamma * d_range * d_range / 8.0 + math.log(n_experts) / gamma


def suggested_gamma(d_range: float, horizon: int) -> float:
    """Learning rate sqrt(8 / (T * D^2)) that minimizes ``hedge_gap_bound``
    for a loss range D over T rounds, to D*sqrt(2T)/4*(1 + ln N)."""
    if not (np.isfinite(d_range) and d_range > 0):
        raise ValueError(f"loss range D must be positive, got {d_range}")
    if int(horizon) < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return math.sqrt(8.0 / (horizon * d_range * d_range))


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
    hedge_gap: Optional[float] = None  # the aggregation check, day-one pools only
    hedge_bound: Optional[float] = None
    hedge_holds: Optional[bool] = None

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
        if self.hedge_bound is not None:
            verdict = "PASS" if self.hedge_holds else "FAIL"
            gap, bound = self.hedge_gap, self.hedge_bound
            lines.append(f"aggregation gap  {gap:.6g}  bound {bound:.6g}  [{verdict}]")
        if self.bound_skipped_reason:
            lines.append(f"bound check skipped: {self.bound_skipped_reason}")
        return lines


BOUND_SLACK = 1e-6


def build_ledgers(
    family,
    cset: ConstraintSet,
    trajectories,
) -> list[RegretLedger]:
    """Assemble the regret accounting for finished runs, one ledger each.

    The exact minimizers of every round of every run come from one
    :func:`minimizers_batch` call over all their parameters; the row
    kernels compute each row the same way whatever the row count, so a
    run's ledger does not depend on the runs judged with it.

    Every run is a :class:`poco.descent.Trajectory`, a descent run being
    the pool of one expert; its ledger reads its ``thetas``, ``losses``,
    ``xs[0]``, prediction regularity ``p_theta``, aim range
    ``aim_lo``/``aim_hi``, the ``eta`` and ``inner_steps`` it descended
    with and its ``bound_skipped_reason``.  Constants come from
    ``derive_constants`` over the bounding box of the realized parameters
    and the aims actually descended toward (the parameters alone when
    nothing was aimed at).  A bound is evaluated only when the run gives no
    skip reason, the projection is nonexpansive and eta <= 1/L; otherwise
    the ledger's ``bound_skipped_reason`` gives the first reason of these.
    Every run gets the predictive-descent bound at the farthest expert
    first play from x*_1.  A pool that learns weights (``gamma`` set) adds
    ``hedge_gap_bound`` at its ``gamma`` and the run's largest per-round
    spread of expert losses, and its ``hedge_gap()`` is checked against
    that penalty.
    """
    thetas = np.concatenate([traj.thetas for traj in trajectories])
    xstars = minimizers_batch(family, cset, thetas)  # checks the parameters
    opt_losses = family._value_rows(xstars, thetas)
    cuts = np.cumsum([traj.thetas.shape[0] for traj in trajectories])[:-1]
    return [
        _ledger(family, cset, traj, xs, opt)
        for traj, xs, opt in zip(trajectories, np.split(xstars, cuts), np.split(opt_losses, cuts))
    ]


def build_ledger(family, cset: ConstraintSet, trajectory) -> RegretLedger:
    """The regret accounting for one finished run (:func:`build_ledgers`)."""
    return build_ledgers(family, cset, [trajectory])[0]


def _ledger(family, cset, trajectory, xstars, opt_losses) -> RegretLedger:
    eta, inner_steps = trajectory.eta, trajectory.inner_steps
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
    skipped = trajectory.bound_skipped_reason
    if skipped is None and not cset.nonexpansive:
        skipped = (
            "projection mode is not nonexpansive; the contraction "
            "argument behind the bound does not apply"
        )
    if skipped is None and not step_contracts(constants.L, eta):
        skipped = (f"eta={eta} exceeds 1/L={1.0 / constants.L}; the contraction "
                   "argument behind the bound needs eta <= 1/L")
    hedge_gap = hedge_bound = hedge_holds = None
    if skipped is None:
        contraction = contraction_factor(constants, eta)
        n = len(trajectory.activation_times)  # joined experts come first
        gaps = np.linalg.norm(trajectory.first_plays[:n] - xstars[0], axis=1)
        start_gap, penalty = float(gaps.max()), 0.0
        if trajectory.gamma is not None:  # a day-one pool that learns weights
            expert_losses = trajectory.expert_losses[:, :n]
            spread = float((expert_losses.max(1) - expert_losses.min(1)).max())
            hedge_gap = trajectory.hedge_gap()
            penalty = hedge_bound = hedge_gap_bound(trajectory.gamma, spread, trajectory.horizon, n)
            hedge_holds = hedge_gap <= hedge_bound + BOUND_SLACK
        bound = predictive_regret_bound(
            constants, eta, start_gap, p_star, p_theta, k=inner_steps
        ) + penalty
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
        hedge_gap=hedge_gap,
        hedge_bound=hedge_bound,
        hedge_holds=hedge_holds,
    )
