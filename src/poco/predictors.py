"""One-step-ahead parameter predictors.

A predictor consumes the observed history theta_1..theta_t (rows of an
array) and emits theta_hat for time t+1.  Three kinds are provided:

* :class:`VarPredictor`: a vector autoregression fit by the Yule-Walker
  moment equations to the history it is handed;
* :class:`Persistence`: repeats the last observation;
* :class:`NoisyOracle`: looks up the true next value from a scenario it was
  handed at construction and perturbs it with Gaussian noise.  Only
  meaningful in controlled experiments.

Predictors report readiness via ``ready(n_obs)``.  :func:`step_aim` is the
one rule every descent step uses to pick its target: the forecast once the
predictor is ready, else the last observation (plain descent).
:func:`step_aims` applies it to a whole expert pool, with one shared fit
for the VAR experts that model the same coordinates.
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

    The autocovariances are computed once, up to the largest order K the
    series can support, and so is the ridged block-Toeplitz system of order
    K.  Order k's system is that system's leading k*d x k*d block against
    the first k*d rows of its right-hand side: block (i, j) is
    Gamma(i - j)' whatever the order, so every fit equals
    ``fit_var_yule_walker(series, k)`` exactly.  Orders whose 2k+1 exceeds
    the series length are left out of the result.  When some order is
    fitted, a NaN or inf in the series raises ``ValueError``.
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
    top = ready[-1]
    gammas, ybar = sample_autocovariances(y, top)
    if not np.isfinite(gammas).all():
        raise ValueError(
            "series holds NaN or inf (or overflows its autocovariances); "
            "the Yule-Walker fit needs finite values"
        )
    d = ybar.shape[0]
    # block (i, j) is Gamma(i - j)', with Gamma(-h) = Gamma(h)'; lags[k]
    # holds lag k - (top - 1)
    lags = np.concatenate(
        [gammas[top - 1 : 0 : -1], gammas[:top].transpose(0, 2, 1)]
    )
    steps = np.arange(top)
    blocks = lags[steps[:, None] - steps[None, :] + top - 1]
    big = blocks.transpose(0, 2, 1, 3).reshape(top * d, top * d)
    big.flat[:: top * d + 1] += ridge
    rhs = gammas[1 : top + 1].transpose(0, 2, 1).reshape(top * d, d)
    fits = {}
    for k in ready:
        try:
            sol = np.linalg.solve(big[: k * d, : k * d], rhs[: k * d])
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                f"Yule-Walker system singular even with ridge {ridge}"
            ) from exc
        fits[k] = VarFit(phis=sol.reshape(k, d, d).transpose(0, 2, 1), mean=ybar)
    return fits


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
    """Yule-Walker VAR predictor, refit on every call.

    ``predict`` is a pure function of the history it is handed: each call
    fits the VAR to that history and forecasts from it, so one predictor
    can serve any number of runs.

    Parameters
    ----------
    order:
        Autoregressive order (lags).
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
        min_history: Optional[int] = None,
        indices: Optional[Sequence[int]] = None,
    ):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        self.order = int(order)
        self.min_history = int(min_history) if min_history is not None else 2 * order + 1
        if self.min_history < 2 * order + 1:
            raise ValueError(
                f"min_history must be at least 2*order+1 = {2 * order + 1}"
            )
        self.indices = None if indices is None else tuple(int(i) for i in indices)

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
        sub_hat = var_predict(fit_var_yule_walker(sub, self.order), sub)
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


def step_aim(predictor, history):
    """The parameter a descent step aims at after observing ``history``
    (rows theta_1..theta_t): the predictor's forecast once it is ready,
    else the last observation, else None when nothing has been observed.
    A ``predictor`` of None is standard descent, which always takes the
    last observation."""
    n_obs = len(history)
    if predictor is not None and predictor.ready(n_obs):
        return predictor.predict(history)
    if n_obs >= 1:
        return history[-1]
    return None


def step_aims(predictors, history):
    """Every predictor's :func:`step_aim` after observing ``history``, as
    an (N, m) array of aims and an (N,) mask of the rows that have one
    (unaimed rows hold NaN).

    Ready :class:`VarPredictor` rows that model the same coordinates share
    one :func:`fit_var_orders` call over all their orders and one
    :func:`var_predict` per order; every other row, a VAR expert still
    warming up included, is ``step_aim(predictor, history)`` in roster
    order.  Each row equals its ``step_aim`` bit for bit.
    """
    hist = np.asarray(history, dtype=float)
    if hist.ndim == 1:
        hist = hist[:, None]
    n_obs = hist.shape[0]
    aims = np.full((len(predictors), hist.shape[1]), np.nan)
    aimed = np.zeros(len(predictors), dtype=bool)
    groups: dict = {}
    for idx, predictor in enumerate(predictors):
        if isinstance(predictor, VarPredictor) and predictor.ready(n_obs):
            groups.setdefault(predictor.indices, []).append(idx)
            continue
        aim = step_aim(predictor, hist)
        if aim is not None:
            aims[idx] = aim
            aimed[idx] = True
    for indices, rows in groups.items():
        sub = hist if indices is None else hist[:, indices]
        fits = fit_var_orders(sub, [predictors[idx].order for idx in rows])
        forecasts = {k: var_predict(fit, sub) for k, fit in fits.items()}
        for idx in rows:
            forecast = forecasts[predictors[idx].order]
            if indices is None:
                aims[idx] = forecast
            else:
                aims[idx] = hist[-1]
                aims[idx, list(indices)] = forecast
        aimed[rows] = True
    return aims, aimed


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
