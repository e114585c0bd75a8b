"""Constraint sets with membership tests and projections.

Two set kinds cover every experiment: a Euclidean ball (tracking problems)
and the unit simplex (portfolio weights).  The simplex supports two
projection modes:

* ``"exact"``: true Euclidean projection by a knapsack threshold rule,
  nonexpansive and therefore admissible in the regret-bound checks;
* ``"renormalize"``: clip negative entries to zero and rescale the rest to
  sum to one.  Cheap and common in portfolio practice, but not a metric
  projection, so bound checks refuse to run on it.

``project_rows`` checks that its input is a (k, dim) array of finite rows
with :func:`check_rows`, the one row check, which the objective families'
parameter checks use too, then calls the set's private ``_project_rows``
kernel, which holds the only projection arithmetic, through ``_landed_rows``,
which recomputes a row that overflow or rounding put off its point; a round
loop that has checked its rows already calls the kernel directly.  Given
weights w, a kernel minimizes sum_i w_i (x_i - v_i)^2 over its set instead:
the regret oracle's ``QuadraticTracking`` minimizers.  ``project`` and
``contains`` check their vector's length with :func:`one_row`, the one
length check, which the families' scalar methods use too; ``project``
projects its vector as one row, so it equals row i of any row call bit for
bit, and ``contains`` finds no non-finite point in a set.  All projections
are pure functions of their inputs and can be called from any number of
workers.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

DEFAULT_MEMBERSHIP_TOL = 1e-9
SUM_TOL = 1e-12  # per coordinate, on the sum of a checked simplex row
SECULAR_MAX_ITER = 100  # Newton steps on the weighted ball's secular equation

SIMPLEX_EXACT = "exact"
SIMPLEX_RENORMALIZE = "renormalize"


class DegenerateProjectionWarning(UserWarning):
    """Renormalizing projection received a vector with no positive mass."""


def one_row(v, length: int, name: str) -> np.ndarray:
    """``v`` as a (1, length) row; ValueError naming ``name`` unless ``v``
    is a length-``length`` vector."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (length,):
        raise ValueError(f"{name} must be a length-{length} vector, got shape {arr.shape}")
    return arr[None]


def check_rows(vs, width: int, name: str, row: str, ids=None, form=None) -> np.ndarray:
    """``vs`` as a (k, width) float array of finite rows.  Otherwise a
    ValueError: ``name`` must be ``form`` (a (k, width) array by default),
    or the ``row`` named by its entry of ``ids`` (its index by default)
    must be finite."""
    arr = np.asarray(vs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"{name} must be {form or f'a (k, {width}) array'}, "
                         f"got shape {arr.shape}")
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])
        raise ValueError(f"{row} {bad if ids is None else ids[bad]} must be finite")
    return arr


def _outside_stacklevel() -> int:
    """The ``stacklevel`` that makes a warning emitted by this function's
    caller point at the innermost frame outside this module."""
    level = 1
    while sys._getframe(level).f_globals is globals():
        level += 1
    return level


@dataclass(frozen=True)
class EuclideanBall:
    """Closed ball ``{x : ||x - center|| <= radius}``."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if center.ndim != 1 or center.size == 0 or not np.all(np.isfinite(center)):
            raise ValueError("center must be a finite vector of dimension >= 1")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def nonexpansive(self) -> bool:
        return True

    def project(self, v) -> np.ndarray:
        return self.project_rows(one_row(v, self.dim, "v"))[0]

    def project_rows(self, vs: np.ndarray) -> np.ndarray:
        """Project each row of ``vs``; a non-finite row raises ValueError."""
        return self._landed_rows(check_rows(vs, self.dim, "rows", "row"))

    def _project_rows(self, vs: np.ndarray, weights=None) -> np.ndarray:
        d = vs - self.center
        if weights is None:
            norms = np.sqrt((d * d).sum(axis=1))
            # scale 1 inside the ball, radius / norm outside
            return self.center + d * (self.radius / np.maximum(norms, self.radius))[:, None]
        # argmin of sum_i w_i (x_i - v_i)^2: x(nu) = (w v + nu c)/(w + nu), nu >= 0
        # the root of ||x(nu) - c|| = r, a row inside being its own minimizer (nu = 0).
        # Newton on psi(nu) = 1/r - 1/||x(nu) - c||, convex and decreasing, rises
        # from nu = 0 to the root without overshooting (More & Sorensen 1983).
        w, r = weights, self.radius
        with np.errstate(over="ignore", invalid="ignore"):
            out, idx = vs.copy(), np.flatnonzero((d * d).sum(axis=1) > r * r)
            d, nu = d[idx], np.zeros(len(idx))
            for _ in range(SECULAR_MAX_ITER):
                if not idx.size:
                    break
                h = w + nu[:, None]
                e = w * d / h  # x(nu) - c
                s2, slope = (e * e).sum(axis=1), r * (e * e / h).sum(axis=1)
                step = (np.sqrt(s2) - r) * s2 / slope
                nu = nu + step
                # an overflow of s2 or of the step leaves nu inf or NaN for good,
                # and one of the slope a zero step that is no root
                bad = ~(np.isfinite(nu) & np.isfinite(slope))
                if bad.any():
                    raise RuntimeError(f"row {idx[bad][0]}: its target's distance "
                                       "from the center overflows the secular equation")
                # a step near the rounding floor of ||x - c|| - r is the row's last
                done = step <= 1e-13 * (w.max() + nu)
                if done.any():
                    out[idx[done]] = self.center + w * d[done] / (w + nu[done, None])
                    idx, d, nu = idx[~done], d[~done], nu[~done]
        if idx.size:
            raise RuntimeError(f"secular equation of row {idx[0]} unsolved at the iteration cap "
                               f"{SECULAR_MAX_ITER}")
        return out

    def _landed_rows(self, vs: np.ndarray, weights=None) -> np.ndarray:
        """``_project_rows``, but a unit-weight row whose squared distance
        d.d from the center overflows goes to c + r d/||d||, d scaled by its
        largest magnitude first."""
        if weights is not None:
            return self._project_rows(vs, weights)
        with np.errstate(over="ignore"):
            out, d = self._project_rows(vs), vs - self.center
            far = np.isinf((d * d).sum(axis=1))
        if far.any():
            e = d[far] / np.abs(d[far]).max(axis=1, keepdims=True)
            out[far] = self.center + e * (self.radius / np.sqrt((e * e).sum(axis=1)))[:, None]
        return out

    def contains(self, v, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
        v = one_row(v, self.dim, "v")[0]
        return float(np.linalg.norm(v - self.center)) <= self.radius + tol

    def coordinate_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate interval hull (bounding box of the ball)."""
        return self.center - self.radius, self.center + self.radius

    def norm_bound(self) -> float:
        """sup ||x|| over the set."""
        return float(np.linalg.norm(self.center)) + self.radius

    def interior_point(self) -> np.ndarray:
        return self.center.copy()


def project_simplex_sorted_rows(vs: np.ndarray, weights=None) -> np.ndarray:
    """argmin over the unit simplex of sum_i w_i (x_i - v_i)^2 for each row v,
    the Euclidean projection at unit weights (``weights`` None), by the
    threshold rule of a continuous quadratic knapsack (Pardalos & Kovoor
    1990): x_i = max(v_i - tau h_i, 0), h_i = 1/(2 w_i) (1 at unit weights),
    over the breakpoints v_i/h_i sorted descending.  O(n log n) per row."""
    vs = np.asarray(vs, dtype=float)
    n = vs.shape[1]
    if weights is None:  # sort the values themselves
        u, h, h_sorted, spread = -np.sort(-vs, axis=1), 1.0, 1.0, np.arange(1, n + 1)
    else:
        order, h = np.argsort(-(weights * vs), axis=1), 0.5 / weights
        u, h_sorted = np.take_along_axis(vs, order, axis=1), h[order]
        spread = np.cumsum(h_sorted, axis=1)
    taus = (np.cumsum(u, axis=1) - 1.0) / spread
    # the support is the longest prefix whose last breakpoint lies above its
    # tau; the first does unless its sum absorbs the 1, from 2^53 up
    rho = n - 1 - np.argmax((u > taus * h_sorted)[:, ::-1], axis=1)
    tau = np.take_along_axis(taus, rho[:, None], axis=1)
    return np.maximum(vs - tau * h, 0.0)


@dataclass(frozen=True)
class UnitSimplex:
    """Probability simplex ``{x : x >= 0, sum(x) = 1}`` in R^dim."""

    dim: int
    mode: str = SIMPLEX_EXACT

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))
        if self.mode not in (SIMPLEX_EXACT, SIMPLEX_RENORMALIZE):
            raise ValueError(
                f"projection mode must be '{SIMPLEX_EXACT}' or "
                f"'{SIMPLEX_RENORMALIZE}', got {self.mode!r}"
            )

    @property
    def nonexpansive(self) -> bool:
        # The renormalizing rule can move nearby points apart; only the
        # metric projection carries the contraction argument.
        return self.mode == SIMPLEX_EXACT

    def project(self, v) -> np.ndarray:
        return self.project_rows(one_row(v, self.dim, "v"))[0]

    def project_rows(self, vs: np.ndarray) -> np.ndarray:
        """Project each row of ``vs``; a non-finite row raises ValueError."""
        return self._landed_rows(check_rows(vs, self.dim, "rows", "row"))

    def _project_rows(self, vs: np.ndarray, weights=None) -> np.ndarray:
        if self.mode == SIMPLEX_EXACT:  # the renormalizing rule reads no weights
            return project_simplex_sorted_rows(vs, weights)
        return self._renormalize_rows(vs)

    def _landed_rows(self, vs: np.ndarray, weights=None) -> np.ndarray:
        """``_project_rows``, but a row whose sum misses 1 by more than
        ``SUM_TOL`` per coordinate is recomputed from an input with the same
        image: for the exact rule shifted by its largest breakpoint (and
        clipped at the 0 that only rounding exceeds), for the renormalizing
        rule scaled by its largest magnitude."""
        with np.errstate(over="ignore"):
            out = self._project_rows(vs, weights)
            missed = ~(np.abs(out.sum(axis=1) - 1.0) <= SUM_TOL * self.dim)
            if missed.any():
                v = vs[missed]
                if self.mode == SIMPLEX_EXACT:
                    w = np.ones(self.dim) if weights is None else weights
                    top = np.argmax(w * v, axis=1)[:, None]
                    # v_i - v_top w_top / w_i, exactly 0 at the top
                    v = np.minimum(v - np.take_along_axis(v, top, axis=1) * (w[top] / w), 0.0)
                else:
                    v = v / np.abs(v).max(axis=1, keepdims=True)
                out[missed] = self._project_rows(v, weights)
        return out

    def _renormalize_rows(self, vs: np.ndarray) -> np.ndarray:
        clipped = np.maximum(vs, 0.0)
        totals = clipped.sum(axis=1)
        degenerate = totals <= 0.0
        n_degenerate = int(np.count_nonzero(degenerate))
        clipped /= (np.where(degenerate, 1.0, totals) if n_degenerate else totals)[:, None]
        # one warning per degenerate row, as row-by-row projection would
        # emit, attributed to the first caller outside this module
        for _ in range(n_degenerate):
            warnings.warn(
                "renormalizing projection got a vector with no positive "
                "component; falling back to the uniform point",
                DegenerateProjectionWarning,
                stacklevel=_outside_stacklevel(),
            )
        if n_degenerate:
            clipped[degenerate] = 1.0 / self.dim
        return clipped

    def contains(self, v, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
        v = one_row(v, self.dim, "v")[0]
        return bool(np.all(v >= -tol) and abs(v.sum() - 1.0) <= tol)

    def coordinate_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(self.dim), np.ones(self.dim)

    def norm_bound(self) -> float:
        return 1.0

    def interior_point(self) -> np.ndarray:
        return np.full(self.dim, 1.0 / self.dim)


ConstraintSet = Union[EuclideanBall, UnitSimplex]
