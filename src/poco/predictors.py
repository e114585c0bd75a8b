"""One-step-ahead parameter predictors.

A predictor consumes the observed history theta_1..theta_t (rows of an
array) and emits theta_hat for time t+1.  Three kinds are provided:

* :class:`VarPredictor`: a vector autoregression fit by the Yule-Walker
  moment equations, refit on a configurable cadence;
* :class:`Persistence`: repeats the last observation;
* :class:`NoisyOracle`: looks up the true next value from a scenario it was
  handed at construction and perturbs it with Gaussian noise.  Only
  meaningful in controlled experiments.

Predictors report readiness via ``ready(n_obs)``; callers are expected to
keep their previous policy (typically plain descent on the last observation)
until the predictor is ready.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

DEFAULT_RIDGE = 1e-8


class PredictorNotReady(RuntimeError):
    """Raised when predicting before the minimum history is available."""

    def __init__(self, needed: int, have: int):
        super().__init__(
            f"predictor needs at least {needed} observations, have {have}"
        )
        self.needed = needed
        self.have = have


def sample_autocovariances(series: np.ndarray, max_lag: int):
    """Lag-h autocovariance matrices of a (T, d) series.

    Gamma(h) = (1/T) * sum_t (y_{t+h} - ybar)(y_t - ybar)', h = 0..max_lag,
    using the 1/T normalization that keeps the stacked system positive
    semidefinite.  Returns (gammas, ybar) with gammas of shape
    (max_lag + 1, d, d).
    """
    y = np.asarray(series, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    t_len = y.shape[0]
    if t_len <= max_lag:
        raise ValueError(f"series of length {t_len} too short for lag {max_lag}")
    ybar = y.mean(axis=0)
    z = y - ybar
    gammas = np.stack(
        [z[h:].T @ z[: t_len - h] / t_len for h in range(max_lag + 1)]
    )
    return gammas, ybar


@dataclass(frozen=True)
class VarFit:
    """Immutable result of a Yule-Walker fit: lag matrices and series mean."""

    phis: np.ndarray  # (order, d, d)
    mean: np.ndarray  # (d,)

    @property
    def order(self) -> int:
        return self.phis.shape[0]


def fit_var_orders(
    series, orders: Sequence[int], ridge: float = DEFAULT_RIDGE
) -> dict[int, VarFit]:
    """Yule-Walker VAR fits of several orders on one (T, d) series.

    The autocovariances are computed once, up to the largest order the
    series can support; each order then solves its own block-Toeplitz
    system.  Gamma(h) does not depend on how many lags are formed, so every
    fit equals ``fit_var_yule_walker(series, k)`` exactly.  Orders whose
    2k+1 exceeds the series length are left out of the result.  When some
    order is fitted, a NaN or inf in the series raises ``ValueError``.
    """
    orders = sorted({int(k) for k in orders})
    if orders and orders[0] < 1:
        raise ValueError(f"order must be >= 1, got {orders[0]}")
    y = np.asarray(series, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    t_len = y.shape[0]
    ready = [k for k in orders if t_len >= 2 * k + 1]
    if not ready:
        return {}
    if not np.isfinite(ridge):
        raise ValueError(f"ridge must be finite, got {ridge}")
    gammas, ybar = sample_autocovariances(y, ready[-1])
    if not np.isfinite(gammas).all():
        raise ValueError(
            "series holds NaN or inf (or overflows its autocovariances); "
            "the Yule-Walker fit needs finite values"
        )
    return {k: _solve_yule_walker(gammas, ybar, k, ridge) for k in ready}


def _solve_yule_walker(
    gammas: np.ndarray, ybar: np.ndarray, order: int, ridge: float
) -> VarFit:
    d = ybar.shape[0]
    big = np.empty((order * d, order * d))
    for i in range(order):
        for j in range(order):
            lag = i - j
            block = gammas[lag].T if lag >= 0 else gammas[-lag]
            big[i * d : (i + 1) * d, j * d : (j + 1) * d] = block
    big.flat[:: order * d + 1] += ridge
    rhs = np.concatenate([gammas[h].T for h in range(1, order + 1)], axis=0)
    try:
        sol = np.linalg.solve(big, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"Yule-Walker system singular even with ridge {ridge}"
        ) from exc
    phis = np.stack(
        [sol[h * d : (h + 1) * d].T for h in range(order)]
    )
    return VarFit(phis=phis, mean=ybar)


def fit_var_yule_walker(
    series, order: int, ridge: float = DEFAULT_RIDGE
) -> VarFit:
    """Fit a VAR(order) to a (T, d) series by the Yule-Walker equations.

    The series is demeaned, lag autocovariances Gamma(0..order) are formed,
    and the block-Toeplitz system with blocks Gamma(i - j)' is solved for
    the stacked coefficient matrices, with ``ridge`` added to the diagonal
    so constant or otherwise degenerate windows stay solvable.  Prediction
    adds the mean back: theta_hat = mean + sum_h Phi_h (theta_{t+1-h} - mean).
    This is the one-order case of :func:`fit_var_orders`.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    t_len = np.shape(series)[0]
    if t_len < 2 * order + 1:
        raise PredictorNotReady(needed=2 * order + 1, have=t_len)
    return fit_var_orders(series, (order,), ridge)[order]


def var_predict(fit: VarFit, series) -> np.ndarray:
    """One-step-ahead prediction from a fitted VAR and the history tail."""
    y = np.asarray(series, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    k = fit.order
    if y.shape[0] < k:
        raise PredictorNotReady(needed=k, have=y.shape[0])
    pred = fit.mean.copy()
    for h in range(1, k + 1):
        pred = pred + fit.phis[h - 1] @ (y[-h] - fit.mean)
    return pred


class VarPredictor:
    """Yule-Walker VAR predictor with rolling refits.

    Parameters
    ----------
    order:
        Autoregressive order (lags).
    refit_every:
        Refit cadence in observations; 1 refits at every step, ``None``
        freezes the first fit.
    min_history:
        Observations required before the first fit; defaults to 2*order + 1.
    indices:
        Optional coordinate subset to model.  Unmodeled coordinates are
        carried forward from the last observation (useful when only part of
        the parameter is worth modelling).
    """

    def __init__(
        self,
        order: int,
        refit_every: Optional[int] = 1,
        min_history: Optional[int] = None,
        indices: Optional[Sequence[int]] = None,
        ridge: float = DEFAULT_RIDGE,
    ):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if refit_every is not None and refit_every < 1:
            raise ValueError("refit_every must be >= 1 or None (freeze)")
        self.order = int(order)
        self.refit_every = refit_every
        self.min_history = int(min_history) if min_history is not None else 2 * order + 1
        if self.min_history < 2 * order + 1:
            raise ValueError(
                f"min_history must be at least 2*order+1 = {2 * order + 1}"
            )
        self.indices = None if indices is None else tuple(int(i) for i in indices)
        self.ridge = ridge
        self._fit: Optional[VarFit] = None
        self._fit_at: int = -1

    def ready(self, n_obs: int) -> bool:
        return n_obs >= self.min_history

    def predict(self, history) -> np.ndarray:
        hist = np.asarray(history, dtype=float)
        if hist.ndim == 1:
            hist = hist[:, None]
        n_obs = hist.shape[0]
        if not self.ready(n_obs):
            raise PredictorNotReady(needed=self.min_history, have=n_obs)
        sub = hist if self.indices is None else hist[:, self.indices]
        needs_fit = self._fit is None or (
            self.refit_every is not None and n_obs - self._fit_at >= self.refit_every
        )
        if needs_fit:
            self._fit = fit_var_yule_walker(sub, self.order, ridge=self.ridge)
            self._fit_at = n_obs
        sub_hat = var_predict(self._fit, sub)
        if self.indices is None:
            return sub_hat
        out = hist[-1].copy()
        out[list(self.indices)] = sub_hat
        return out


class Persistence:
    """Predicts that tomorrow looks exactly like today."""

    def ready(self, n_obs: int) -> bool:
        return n_obs >= 1

    def predict(self, history) -> np.ndarray:
        hist = np.asarray(history, dtype=float)
        if hist.ndim == 1:
            hist = hist[:, None]
        if hist.shape[0] < 1:
            raise PredictorNotReady(needed=1, have=0)
        return hist[-1].copy()


class NoisyOracle:
    """True next parameter plus Gaussian noise of a chosen scale.

    Holds the full scenario; ``predict`` indexes it at ``len(history)``,
    i.e. the value immediately after the observed prefix.  noise_std = 0
    gives perfect prediction.
    """

    def __init__(self, truth, noise_std: float = 0.0, rng=None):
        truth = np.asarray(truth, dtype=float)
        if truth.ndim == 1:
            truth = truth[:, None]
        if noise_std < 0:
            raise ValueError(f"noise_std must be nonnegative, got {noise_std}")
        self.truth = truth
        self.noise_std = float(noise_std)
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    def ready(self, n_obs: int) -> bool:
        return n_obs < self.truth.shape[0]

    def predict(self, history) -> np.ndarray:
        t_next = len(history)
        if t_next >= self.truth.shape[0]:
            raise PredictorNotReady(needed=t_next + 1, have=self.truth.shape[0])
        base = self.truth[t_next].copy()
        if self.noise_std == 0.0:
            return base
        return base + self.noise_std * self.rng.standard_normal(base.shape)


def prediction_regularity(thetas, theta_hats) -> float:
    """Cumulative prediction error sum_{t>=2} ||theta_t - theta_hat_t||.

    Both sequences are aligned by time; the first entry is never scored
    because no prediction precedes the first observation.
    """
    a = np.asarray(thetas, dtype=float)
    b = np.asarray(theta_hats, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"aligned sequences required, got {a.shape} vs {b.shape}")
    if a.ndim == 1:
        a = a[:, None]
        b = b[:, None]
    if a.shape[0] < 2:
        return 0.0
    return float(np.linalg.norm(a[1:] - b[1:], axis=1).sum())
