"""Constraint sets with membership tests and projections.

Two set kinds cover every experiment: a Euclidean ball (tracking problems)
and the unit simplex (portfolio weights).  The simplex supports two
projection modes:

* ``"exact"``: true Euclidean projection via sort-and-threshold, which is
  nonexpansive and therefore admissible in the regret-bound checks;
* ``"renormalize"``: clip negative entries to zero and rescale the rest to
  sum to one.  Cheap and common in portfolio practice, but not a metric
  projection, so bound checks refuse to run on it.

``project_rows`` projects each row of a (k, dim) array and rejects a
non-finite row; ``project`` checks its vector's shape and projects it as
one row, so it equals row i of any row call bit for bit.  All projections
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

SIMPLEX_EXACT = "exact"
SIMPLEX_RENORMALIZE = "renormalize"


class DegenerateProjectionWarning(UserWarning):
    """Renormalizing projection received a vector with no positive mass."""


def _check_shape(v, dim: int, name: str = "v") -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise ValueError(
            f"{name} must be a length-{dim} vector, got shape {arr.shape}"
        )
    return arr


def _check_vector(v, dim: int, name: str = "v") -> np.ndarray:
    arr = _check_shape(v, dim, name)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _outside_stacklevel() -> int:
    """The ``stacklevel`` that makes a warning emitted by this function's
    caller point at the innermost frame outside this module."""
    level = 1
    while sys._getframe(level).f_globals is globals():
        level += 1
    return level


def _check_rows(vs, dim: int) -> np.ndarray:
    arr = np.asarray(vs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"rows must be a (k, {dim}) array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])
        raise ValueError(f"row {bad} must be finite")
    return arr


@dataclass(frozen=True)
class EuclideanBall:
    """Closed ball ``{x : ||x - center|| <= radius}``."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if center.ndim != 1 or not np.all(np.isfinite(center)):
            raise ValueError("center must be a finite vector")
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
        return self.project_rows(_check_shape(v, self.dim)[None])[0]

    def project_rows(self, vs: np.ndarray) -> np.ndarray:
        """Project each row of ``vs``; a non-finite row raises ValueError."""
        vs = _check_rows(vs, self.dim)
        d = vs - self.center
        norms = np.sqrt((d * d).sum(axis=1))
        # scale 1 inside the ball, radius / norm outside
        return self.center + d * (self.radius / np.maximum(norms, self.radius))[:, None]

    def contains(self, v, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
        v = _check_vector(v, self.dim)
        return float(np.linalg.norm(v - self.center)) <= self.radius + tol

    def coordinate_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate interval hull (bounding box of the ball)."""
        return self.center - self.radius, self.center + self.radius

    def norm_bound(self) -> float:
        """sup ||x|| over the set."""
        return float(np.linalg.norm(self.center)) + self.radius

    def interior_point(self) -> np.ndarray:
        return self.center.copy()


def project_simplex_sorted_rows(vs: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the unit simplex by sort and
    threshold: sort the coordinates descending, find the largest support
    size rho for which the shifted entries stay positive, and clip.
    O(n log n) per row."""
    vs = np.asarray(vs, dtype=float)
    n = vs.shape[1]
    u = -np.sort(-vs, axis=1)
    css = np.cumsum(u, axis=1)
    ks = np.arange(1, n + 1)
    cond = u + (1.0 - css) / ks > 0
    # index of the last True per row; cond[:, 0] is always True
    rho = n - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = (1.0 - css[np.arange(len(vs)), rho]) / (rho + 1)
    return np.maximum(vs + tau[:, None], 0.0)


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
        return self.project_rows(_check_shape(v, self.dim)[None])[0]

    def project_rows(self, vs: np.ndarray) -> np.ndarray:
        """Project each row of ``vs``; a non-finite row raises ValueError."""
        vs = _check_rows(vs, self.dim)
        if self.mode == SIMPLEX_EXACT:
            return project_simplex_sorted_rows(vs)
        return self._renormalize_rows(vs)

    def _renormalize_rows(self, vs: np.ndarray) -> np.ndarray:
        clipped = np.maximum(vs, 0.0)
        totals = clipped.sum(axis=1)
        degenerate = totals <= 0.0
        # one warning per degenerate row, as row-by-row projection would
        # emit, attributed to the first caller outside this module
        for _ in range(int(np.count_nonzero(degenerate))):
            warnings.warn(
                "renormalizing projection got a vector with no positive "
                "component; falling back to the uniform point",
                DegenerateProjectionWarning,
                stacklevel=_outside_stacklevel(),
            )
        out = clipped / np.where(degenerate, 1.0, totals)[:, None]
        out[degenerate] = 1.0 / self.dim
        return out

    def contains(self, v, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
        v = _check_vector(v, self.dim)
        return bool(np.all(v >= -tol) and abs(v.sum() - 1.0) <= tol)

    def coordinate_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(self.dim), np.ones(self.dim)

    def norm_bound(self) -> float:
        return 1.0

    def interior_point(self) -> np.ndarray:
        return np.full(self.dim, 1.0 / self.dim)


ConstraintSet = Union[EuclideanBall, UnitSimplex]
