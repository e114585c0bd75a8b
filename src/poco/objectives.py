"""Parametric objective families f(x, theta) and their regularity constants.

Every family computes in row kernels: ``value_rows``, ``gradient_x_rows``,
``unconstrained_minimizer_rows`` and a per-parameter ``curvature_rows``
(strong convexity and smoothness of f(., theta)) evaluate a (k, n) stack of
points against a (k, m) stack of parameters, or against one (1, m)
parameter row shared by every point.  The scalar ``value``, ``gradient_x``,
``unconstrained_minimizer`` and ``curvature`` check their inputs and make a
one-row call.  ``derive_constants`` turns a constraint set plus a parameter
bounding box into the constants (G, L, lambda, C_theta, D) that the regret
bounds consume.  Derived constants are allowed to be conservative: a larger
G or D only loosens a bound.

Every ``*_rows`` method computes row i the same way whatever k is
(elementwise products and row sums, no matrix products across rows, whose
BLAS kernels round differently for different row counts), so a run's
results do not depend on how many runs advance with it, and a scalar method
equals row i of any row call bit for bit.

The round loops call private kernels, ``_value_rows`` and
``_gradient_x_rows``, after checking a run's parameters once, at its entry,
with the family's ``_check_thetas``: the per-call checks of a parameter
stack, which every public ``*_rows`` method makes too.  The Markowitz
families check the width and the covariance symmetry or the table slots;
the others check nothing.  Only :class:`MarkowitzTable` has kernels that
read rows unchecked; every other family's kernels are its public methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from poco.domains import ConstraintSet

_SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class ObjectiveConstants:
    """Regularity constants of a family over a domain X and parameter box.

    G bounds the x-gradient norm, L the smoothness, lam the strong convexity,
    C_theta the Lipschitz constant of x-gradients in theta, and D the range
    sup f - inf f.
    """

    G: float
    L: float
    lam: float
    C_theta: float
    D: float

    def __post_init__(self):
        for name in ("G", "L", "lam", "C_theta", "D"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val > 0):
                raise ValueError(f"constant {name} must be finite and positive, got {val}")
        if self.lam > self.L * (1 + 1e-12):
            raise ValueError(f"lam={self.lam} exceeds L={self.L}")


def step_contracts(big_l: float, eta: float) -> bool:
    """eta <= 1/L, to a relative 1e-12: the step sizes at which projected descent contracts."""
    return eta <= 1.0 / big_l * (1 + 1e-12)


def contraction_factor(constants: ObjectiveConstants, eta: float) -> float:
    """Per-step shrinkage sqrt(1 - 2*lam*eta / (1 + eta*lam)) of projected
    gradient descent, valid for step sizes eta <= 1/L."""
    if not (np.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be positive, got {eta}")
    if not step_contracts(constants.L, eta):
        raise ValueError(
            f"eta={eta} violates the contraction step-size condition "
            f"eta <= 1/L = {1.0 / constants.L}"
        )
    lam = constants.lam
    inner = 1.0 - 2.0 * lam * eta / (1.0 + eta * lam)
    return math.sqrt(max(inner, 0.0))


def _box_arrays(theta_box, m: int) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = theta_box
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != (m,) or hi.shape != (m,):
        raise ValueError(f"parameter box must be two length-{m} vectors")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("parameter box must be bounded (finite on both sides)")
    if np.any(hi < lo):
        raise ValueError("parameter box has hi < lo")
    return lo, hi


def _interval_gap(x_lo, x_hi, a_lo, a_hi) -> np.ndarray:
    # sup |x - a| over x in [x_lo, x_hi], a in [a_lo, a_hi], per coordinate
    return np.maximum(x_hi - a_lo, a_hi - x_lo)


def one_row(v, length: int, name: str) -> np.ndarray:
    """``v`` as a (1, length) row; ValueError naming ``name`` unless ``v``
    is a length-``length`` vector."""
    v = np.asarray(v, dtype=float)
    if v.shape != (length,):
        raise ValueError(f"{name} must have length {length}, got shape {v.shape}")
    return v[None]


class _OneRowFront:
    """The scalar methods of a family with n-vectors x and m-vector
    parameters: each checks its inputs' lengths, then calls its row kernel
    on one row.  A family whose ``value`` and ``gradient_x`` the benchmark
    traces binds them in its own body as well: ``benchmark/spans.py``
    patches them through the class's own namespace."""

    def _theta_row(self, theta) -> np.ndarray:
        return one_row(theta, self.m, "theta")

    def _check_thetas(self, thetas, rows=None) -> None:
        """Refuse a (k, m) parameter stack the row kernels cannot read, with
        a ValueError that names a bad row by its entry of ``rows`` (its
        index by default).  This family's kernels read any stack."""

    def _value_rows(self, xs, thetas):
        return self.value_rows(xs, thetas)

    def _gradient_x_rows(self, xs, thetas):
        return self.gradient_x_rows(xs, thetas)

    def value(self, x, theta) -> float:
        return float(self.value_rows(one_row(x, self.n, "x"), self._theta_row(theta))[0])

    def gradient_x(self, x, theta) -> np.ndarray:
        return self.gradient_x_rows(one_row(x, self.n, "x"), self._theta_row(theta))[0]

    def unconstrained_minimizer(self, theta) -> np.ndarray:
        return self.unconstrained_minimizer_rows(self._theta_row(theta))[0]

    def curvature(self, theta) -> tuple[float, float]:
        """(lam, L) of f(., theta)."""
        lam, big_l = self.curvature_rows(self._theta_row(theta))
        return float(lam[0]), float(big_l[0])


class QuadraticTracking(_OneRowFront):
    """Weighted quadratic tracker: f(x, theta) = sum_i w_i (x_i - theta_i)^2 + theta_n.

    theta stacks the moving target (first n entries) and an additive offset
    (last entry).  The offset shifts values but not gradients, so it cancels
    out of any regret difference.
    """

    def __init__(self, weights=(100.0, 1.0)):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size < 1 or not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be a vector of positive reals")
        self.weights = w
        self.n = w.size
        self.m = w.size + 1

    value, gradient_x = _OneRowFront.value, _OneRowFront.gradient_x  # traced here

    def value_rows(self, xs: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        d = xs - thetas[:, : self.n]
        return (d * d * self.weights).sum(axis=1) + thetas[:, self.n]

    def gradient_x_rows(self, xs: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        return 2.0 * self.weights * (xs - thetas[:, : self.n])

    def unconstrained_minimizer_rows(self, thetas: np.ndarray) -> np.ndarray:
        return np.array(thetas[:, : self.n], dtype=float)

    def curvature(self, theta=None) -> tuple[float, float]:
        """(lam, L) of f(., theta); independent of theta for this family,
        so also the box-wide pair."""
        return 2.0 * float(self.weights.min()), 2.0 * float(self.weights.max())

    def curvature_rows(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lam, big_l = self.curvature()
        return np.full(len(thetas), lam), np.full(len(thetas), big_l)

    def derive_constants(self, cset: ConstraintSet, theta_box) -> ObjectiveConstants:
        lo, hi = _box_arrays(theta_box, self.m)
        x_lo, x_hi = cset.coordinate_bounds()
        gap = _interval_gap(x_lo, x_hi, lo[: self.n], hi[: self.n])
        gap = np.maximum(gap, 0.0)
        G = float(np.linalg.norm(2.0 * self.weights * gap))
        lam, L = self.curvature()
        # gradient depends on the target block through -2w, not on the offset
        C_theta = L
        D = float(self.weights @ (gap * gap) + (hi[self.n] - lo[self.n]))
        return ObjectiveConstants(G=G, L=L, lam=lam, C_theta=C_theta, D=max(D, 1e-300))


class FunctionalTimeSeries(_OneRowFront):
    """Simplex-weighted mix of diagonal quadratics: f(x, theta) = sum_i theta_i q_i(x)
    with q_i(x) = (x - v_i)' diag(a_i) (x - v_i) and theta on the unit simplex."""

    def __init__(self, coeffs, centers):
        a = np.asarray(coeffs, dtype=float)
        v = np.asarray(centers, dtype=float)
        if a.ndim != 2 or v.shape != a.shape:
            raise ValueError("coeffs and centers must be (m, n) arrays of equal shape")
        if not np.all(np.isfinite(a)) or np.any(a <= 0):
            raise ValueError("diagonal coefficients must be positive")
        self.a = a
        self.v = v
        self.m, self.n = a.shape

    def value_rows(self, xs: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        r = xs[:, None, :] - self.v[None, :, :]
        q = np.sum(self.a[None] * r * r, axis=2)
        return np.sum(thetas * q, axis=1)

    def gradient_x_rows(self, xs: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        r = xs[:, None, :] - self.v[None, :, :]
        return 2.0 * np.einsum("ti,tin->tn", thetas, self.a[None] * r)

    def unconstrained_minimizer_rows(self, thetas: np.ndarray) -> np.ndarray:
        den = np.sum(thetas[:, :, None] * self.a, axis=1)
        num = np.sum(thetas[:, :, None] * (self.a * self.v), axis=1)
        return num / den

    def curvature(self, theta=None) -> tuple[float, float]:
        """(lam, L) of f(., theta); without theta, the pair valid for every
        theta on the simplex."""
        if theta is not None:
            return super().curvature(theta)
        return 2.0 * float(self.a.min(axis=0).min()), 2.0 * float(self.a.max())

    def curvature_rows(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        diag = np.sum(thetas[:, :, None] * self.a, axis=1)
        return 2.0 * diag.min(axis=1), 2.0 * diag.max(axis=1)

    def derive_constants(self, cset: ConstraintSet, theta_box=None) -> ObjectiveConstants:
        # theta lives on the simplex; a box argument is accepted but unused.
        x_lo, x_hi = cset.coordinate_bounds()
        gap = np.maximum(
            _interval_gap(x_lo, x_hi, self.v.min(axis=0), self.v.max(axis=0)), 0.0
        )
        per_basis = np.linalg.norm(2.0 * self.a * gap[None, :], axis=1)
        G = float(per_basis.max())
        C_theta = float(np.linalg.norm(per_basis))
        lam, L = self.curvature()
        D = float(np.max(np.sum(self.a * gap[None, :] ** 2, axis=1)))
        return ObjectiveConstants(G=G, L=L, lam=lam, C_theta=C_theta, D=max(D, 1e-300))


class Markowitz(_OneRowFront):
    """Mean-variance portfolio objective f(x, theta) = x' Sigma x - lam_risk x' mu.

    theta column-stacks [mu, vec(Sigma), lam_risk], so the parameter has
    n + n^2 + 1 entries for n assets.  Sigma must be symmetric (to 1e-9) and
    positive semidefinite for convexity.
    """

    def __init__(self, n_assets: int):
        if int(n_assets) < 1:
            raise ValueError(f"n_assets must be >= 1, got {n_assets}")
        self.n = int(n_assets)
        self.m = self.n + self.n * self.n + 1

    def pack(self, mu, sigma, lam_risk: float) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        if mu.shape != (self.n,) or sigma.shape != (self.n, self.n):
            raise ValueError("mu/sigma shapes do not match the asset count")
        return np.concatenate([mu, sigma.ravel(), [float(lam_risk)]])

    def unpack(self, theta) -> tuple[np.ndarray, np.ndarray, float]:
        """(mu, Sigma, lam_risk) of one parameter: a one-row
        :meth:`_unpack_rows` call."""
        mu, sigma, lam_risk = self._unpack_rows(self._theta_row(theta))
        return mu[0], sigma[0], float(lam_risk[0])

    def _unpack_rows(self, thetas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read a (k, m) parameter array into mu (k, n), Sigma (k, n, n) and
        lam_risk (k,), after :meth:`_check_thetas`."""
        thetas = np.asarray(thetas, dtype=float)
        self._check_thetas(thetas)
        return self._moments(thetas)

    def _check_thetas(self, thetas, rows=None) -> None:
        """Refuse rows that are not (k, m), or a covariance block that is
        not symmetric to 1e-9, naming its row."""
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.m:
            raise ValueError(f"thetas must be (k, {self.m}) rows, got shape {thetas.shape}")
        sigma = self._moments(thetas)[1]
        asym = np.max(np.abs(sigma - sigma.transpose(0, 2, 1)), axis=(1, 2))
        bad = np.flatnonzero(asym > _SYMMETRY_TOL)
        if bad.size:
            row = bad[0] if rows is None else rows[bad[0]]
            raise ValueError(f"covariance block of row {row} is not symmetric (beyond 1e-9)")

    def _moments(self, thetas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """mu, Sigma and lam_risk of checked rows."""
        mu = thetas[:, : self.n]
        sigma = thetas[:, self.n : self.n + self.n * self.n].reshape(-1, self.n, self.n)
        return mu, sigma, thetas[:, -1]

    def _checked(self, xs, thetas) -> tuple[np.ndarray, np.ndarray]:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.n:
            raise ValueError(f"xs must be (k, {self.n}) rows, got shape {xs.shape}")
        thetas = np.asarray(thetas, dtype=float)
        self._check_thetas(thetas)
        return xs, thetas

    def _sigma_x_rows(self, xs, thetas):
        mu, sigma, lam_risk = self._moments(thetas)
        return (sigma @ xs[:, :, None])[:, :, 0], mu, lam_risk

    def _unchecked_value_rows(self, xs, thetas) -> np.ndarray:
        sx, mu, lam_risk = self._sigma_x_rows(xs, thetas)
        return (xs * sx).sum(axis=1) - lam_risk * (xs * mu).sum(axis=1)

    def _unchecked_gradient_x_rows(self, xs, thetas) -> np.ndarray:
        sx, mu, lam_risk = self._sigma_x_rows(xs, thetas)
        return 2.0 * sx - lam_risk[:, None] * mu

    def value_rows(self, xs, thetas) -> np.ndarray:
        return self._unchecked_value_rows(*self._checked(xs, thetas))

    def gradient_x_rows(self, xs, thetas) -> np.ndarray:
        return self._unchecked_gradient_x_rows(*self._checked(xs, thetas))

    # A packed row carries its own covariance block, so the kernels stay the
    # checked methods (the default): a pool round on packed rows that no run
    # checked still refuses an asymmetric block.

    value, gradient_x = _OneRowFront.value, _OneRowFront.gradient_x  # traced here

    def unconstrained_minimizer_rows(self, thetas) -> np.ndarray:
        """Solutions of 2 Sigma x = lam_risk mu; a NaN row where Sigma is
        singular."""
        mu, sigma, lam_risk = self._unpack_rows(thetas)
        lhs, rhs = 2.0 * sigma, (lam_risk[:, None] * mu)[:, :, None]
        try:
            return np.linalg.solve(lhs, rhs)[:, :, 0]
        except np.linalg.LinAlgError:
            out = np.full(mu.shape, np.nan)
            for i in range(len(out)):
                try:
                    out[i] = np.linalg.solve(lhs[i], rhs[i])[:, 0]
                except np.linalg.LinAlgError:
                    pass
            return out

    def curvature_rows(self, thetas) -> tuple[np.ndarray, np.ndarray]:
        _, sigma, _ = self._unpack_rows(thetas)
        eigs = np.linalg.eigvalsh((sigma + sigma.transpose(0, 2, 1)) / 2.0)
        return 2.0 * eigs[:, 0], 2.0 * eigs[:, -1]

    def derive_constants(
        self, cset: ConstraintSet, theta_box, sigma_min: float = 1e-6
    ) -> ObjectiveConstants:
        """Constants over X x box.  The minimum eigenvalue of the covariance
        block cannot be read off a box, so the caller declares a floor
        ``sigma_min`` (the ridge added by the moment estimator by default)."""
        if not (np.isfinite(sigma_min) and sigma_min > 0):
            raise ValueError("sigma_min must be a positive eigenvalue floor")
        lo, hi = _box_arrays(theta_box, self.m)
        mu_abs = np.maximum(np.abs(lo[: self.n]), np.abs(hi[: self.n]))
        mu_norm = float(np.linalg.norm(mu_abs))
        sig_lo = lo[self.n : self.n + self.n * self.n]
        sig_hi = hi[self.n : self.n + self.n * self.n]
        sig_abs = np.maximum(np.abs(sig_lo), np.abs(sig_hi))
        # operator norm <= Frobenius norm of the entrywise envelope
        sigma_max = float(np.linalg.norm(sig_abs))
        lam_lo, lam_hi = float(lo[-1]), float(hi[-1])
        if lam_lo < 0:
            raise ValueError("risk tradeoff lam_risk must be nonnegative over the box")
        xnorm = cset.norm_bound()
        G = 2.0 * sigma_max * xnorm + lam_hi * mu_norm
        L = 2.0 * sigma_max
        lam = 2.0 * float(sigma_min)
        if lam > L:
            raise ValueError(
                f"declared sigma_min={sigma_min} exceeds the box's largest "
                f"possible eigenvalue {sigma_max}"
            )
        C_theta = math.sqrt((2.0 * xnorm) ** 2 + lam_hi**2 + mu_norm**2)
        D = sigma_max * xnorm**2 + 2.0 * lam_hi * mu_norm * xnorm
        return ObjectiveConstants(
            G=max(G, 1e-300), L=L, lam=lam, C_theta=max(C_theta, 1e-300), D=max(D, 1e-300)
        )


class MarkowitzTable(Markowitz):
    """:class:`Markowitz` on a moments table ``mu`` (S, n), ``sigma`` (S, n, n):
    theta is (slot, lam_risk), m = 2, and only the lookup differs, so values
    and gradients equal the packed family's on ``pack(mu[slot], sigma[slot],
    lam_risk)`` bit for bit.  The check of a stack refuses a slot that is
    not an integer in [0, S).  Slots span no parameter box: no ``pack``, no
    ``derive_constants``."""

    def __init__(self, mu: np.ndarray, sigma: np.ndarray):
        self.mu, self.sigma = mu, sigma
        self.n, self.m = mu.shape[1], 2

    def _check_thetas(self, thetas, rows=None) -> None:
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != 2:
            raise ValueError(f"theta rows must be (slot, lam_risk), got shape {thetas.shape}")
        slots = thetas[:, 0]
        good = (slots >= 0) & (slots < len(self.mu)) & (np.floor(slots) == slots)
        if not good.all():
            bad = np.flatnonzero(~good)[0]
            row = bad if rows is None else rows[bad]
            raise ValueError(
                f"row {row}: slot {slots[bad]!r} is not an integer in [0, {len(self.mu)})"
            )

    def _moments(self, thetas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        slots = thetas[:, 0].astype(np.intp)
        return self.mu[slots], self.sigma[slots], thetas[:, 1]

    # the kernels read rows whose slots a run checked at its entry
    _value_rows = Markowitz._unchecked_value_rows
    _gradient_x_rows = Markowitz._unchecked_gradient_x_rows

    def _theta_row(self, theta) -> np.ndarray:
        # the width is checked with the slots, by _check_thetas
        return np.asarray(theta, dtype=float)[None]

    pack = derive_constants = None
