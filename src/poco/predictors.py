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

A run never refits inside its loop.  The observed history is known before
the run starts, so :func:`var_forecasts` gives every order's forecast
after every prefix in one pass, and :func:`var_forecast_table` makes one
such pass per group of VAR experts that model the same coordinates.
:func:`aim_path` gives a descent run's aims from it, and :func:`step_aims`
gives an expert pool's aims for one round.
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


def _solve_yule_walker(gammas: np.ndarray, starts: dict, ridge: float) -> dict:
    """Ridged Yule-Walker solutions for a stack of autocovariance sequences.

    ``gammas`` is (P, K+1, d, d): row p holds Gamma(0..K) of one series.
    The ridged block-Toeplitz system of order K is built once per row;
    order k's system is its leading k*d x k*d block against the first k*d
    rows of its right-hand side, since block (i, j) is Gamma(i - j)'
    whatever the order.  ``starts`` maps each order k <= K to the first row
    its system is solved for; each order is one batched solve over the rows
    from there on.  Returns {k: (P - starts[k], k*d, d)} stacked
    coefficients, Phi_h' in rows (h-1)*d..h*d.
    """
    if not np.isfinite(ridge):
        raise ValueError(f"ridge must be finite, got {ridge}")
    if not np.isfinite(gammas).all():
        raise ValueError(
            "series holds NaN or inf (or overflows its autocovariances); "
            "the Yule-Walker fit needs finite values"
        )
    n_rows, top, d = gammas.shape[0], gammas.shape[1] - 1, gammas.shape[2]
    big = np.empty((n_rows, top * d, top * d))
    blocks = big.reshape(n_rows, top, d, top, d)
    # block (i, j) is Gamma(i - j)', with Gamma(-h) = Gamma(h)'
    for i in range(top):
        for j in range(top):
            lag = gammas[:, i - j].transpose(0, 2, 1) if i >= j else gammas[:, j - i]
            blocks[:, i, :, j, :] = lag
    diag = np.arange(top * d)
    big[:, diag, diag] += ridge
    rhs = gammas[:, 1 : top + 1].transpose(0, 1, 3, 2).reshape(n_rows, top * d, d)
    sols = {}
    for k, first in starts.items():
        try:
            sols[k] = np.linalg.solve(
                big[first:, : k * d, : k * d], rhs[first:, : k * d]
            )
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                f"Yule-Walker system singular even with ridge {ridge}"
            ) from exc
    return sols


def fit_var_orders(
    series, orders: Sequence[int], ridge: float = DEFAULT_RIDGE
) -> dict[int, VarFit]:
    """Yule-Walker VAR fits of several orders on one (T, d) series.

    The autocovariances are computed once, up to the largest order K the
    series can support, and every order is solved on the leading block of
    the order-K system (:func:`_solve_yule_walker` with one row), so every
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
    gammas, ybar = sample_autocovariances(y, ready[-1])
    sols = _solve_yule_walker(gammas[None], dict.fromkeys(ready, 0), ridge)
    d = ybar.shape[0]
    return {
        k: VarFit(phis=sol[0].reshape(k, d, d).transpose(0, 2, 1), mean=ybar)
        for k, sol in sols.items()
    }


def var_forecasts(
    series, orders: Sequence[int], ridge: float = DEFAULT_RIDGE
) -> dict[int, np.ndarray]:
    """One-step Yule-Walker forecasts of every order after every prefix.

    Returns {k: (T+1, d) array} for a (T, d) ``series``: row n is the
    forecast of row n (theta_{n+1}) from a VAR(k) fit to the prefix
    ``series[:n]``, and NaN where n < 2k+1.  Row n reads ``series[:n]``
    and nothing after it, so a run may hand over every row its rounds
    observe and read each round's forecast at the length of its history.

    All prefixes come from one pass: prefix autocovariances from cumulative
    lagged cross-product sums of the series shifted by its first row, one
    ridged block-Toeplitz system per prefix, and one batched solve per
    order on the leading blocks.  Each row agrees with
    ``var_predict(fit_var_yule_walker(series[:n], k), series[:n])`` up to
    floating-point rounding.  When some order is fitted, a NaN or inf in
    the series raises ``ValueError``.
    """
    orders = sorted({int(k) for k in orders})
    if orders and orders[0] < 1:
        raise ValueError(f"order must be >= 1, got {orders[0]}")
    y = np.asarray(series, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    t_len, d = y.shape
    out = {k: np.full((t_len + 1, d), np.nan) for k in orders}
    ready = [k for k in orders if t_len >= 2 * k + 1]
    if not ready:
        return out
    top, first = ready[-1], 2 * ready[0] + 1
    ns = np.arange(first, t_len + 1)  # the fitted prefix lengths
    # shifting by the first row leaves the fits unchanged and keeps the
    # cross-product sums from cancelling a large common level
    with np.errstate(invalid="ignore", over="ignore"):
        z = y - y[0]
        sums = np.concatenate([np.zeros((1, d)), np.cumsum(z, axis=0)])
        means = sums[ns] / ns[:, None]
        gammas = np.zeros((ns.size, top + 1, d, d))
        for h in range(top + 1):
            # lag-h sums over t = h..n-1: C = sum z_t z_{t-h}', A = sum z_t,
            # B = sum z_{t-h}; prefixes with n <= h keep zeros, which no
            # ready order reads
            live = ns > h
            n, m = ns[live], means[live]
            cross = np.cumsum(z[h:, :, None] * z[: t_len - h, None, :], axis=0)
            lead = sums[n] - sums[h]
            lagged = sums[n - h]
            gammas[live, h] = (
                cross[n - h - 1]
                - lead[:, :, None] * m[:, None, :]
                - m[:, :, None] * lagged[:, None, :]
                + (n - h)[:, None, None] * m[:, :, None] * m[:, None, :]
            ) / n[:, None, None]
    sols = _solve_yule_walker(gammas, {k: 2 * k + 1 - first for k in ready}, ridge)
    for k, sol in sols.items():
        rows = slice(2 * k + 1 - first, None)
        m = means[rows]
        # (y_{n-1} - mean, ..., y_{n-k} - mean) against the stacked Phi_h'
        past = z[ns[rows, None] - np.arange(1, k + 1)] - m[:, None, :]
        out[k][2 * k + 1 :] = (
            y[0] + m + np.einsum("pi,pij->pj", past.reshape(-1, k * d), sol)
        )
    return out


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
        Observations required before the first fit; defaults to 2*order + 1
        whatever the dimension d, though a d-dimensional system needs well
        over order*d: for d = 3 the first forecasts are ridge artefacts.
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


def var_forecast_table(predictors, observed) -> dict:
    """The VAR forecasts a run's rounds read, from one :func:`var_forecasts`
    pass per group of :class:`VarPredictor` that models the same
    coordinates, over every order in the group.

    ``observed`` holds every row some round observes (the initial history
    and all but the last realized parameter); each round's history is a
    prefix of it.  Returns {indices: {order: (L+1, d) forecasts}}, where
    row n is the group's forecast after the first n rows; non-VAR
    predictors need no entry.
    """
    obs = np.asarray(observed, dtype=float)
    if obs.ndim == 1:
        obs = obs[:, None]
    groups: dict = {}
    for predictor in predictors:
        if isinstance(predictor, VarPredictor):
            groups.setdefault(predictor.indices, set()).add(predictor.order)
    return {
        indices: var_forecasts(obs if indices is None else obs[:, indices], orders)
        for indices, orders in groups.items()
    }


def _forecast_row(forecasts, predictor, n_obs):
    """A ready VarPredictor's forecast after ``n_obs`` observations, read
    from a run's :func:`var_forecast_table`."""
    table = (forecasts or {}).get(predictor.indices, {}).get(predictor.order)
    if table is None or n_obs >= table.shape[0]:
        raise ValueError(
            f"the forecast table holds no VAR({predictor.order}) forecast after "
            f"{n_obs} observations; build it with var_forecast_table over every "
            "row the run observes"
        )
    return table[n_obs]


def _modeled(predictor):
    return slice(None) if predictor.indices is None else list(predictor.indices)


def step_aims(predictors, history, forecasts=None):
    """Every predictor's :func:`step_aim` after observing ``history``, as
    an (N, m) array of aims and an (N,) mask of the rows that have one
    (unaimed rows hold NaN).

    Ready :class:`VarPredictor` rows read their forecast after
    ``len(history)`` observations from ``forecasts``, the run's
    :func:`var_forecast_table`, of whose rows ``history`` is a prefix;
    unmodeled coordinates repeat the last observation.  Every other row, a
    VAR expert still warming up included, is ``step_aim(predictor,
    history)`` in roster order, so the rows that are not VAR forecasts equal
    their ``step_aim`` bit for bit.
    """
    hist = np.asarray(history, dtype=float)
    if hist.ndim == 1:
        hist = hist[:, None]
    n_obs = hist.shape[0]
    aims = np.full((len(predictors), hist.shape[1]), np.nan)
    aimed = np.zeros(len(predictors), dtype=bool)
    for idx, predictor in enumerate(predictors):
        if isinstance(predictor, VarPredictor) and predictor.ready(n_obs):
            aims[idx] = hist[-1]
            aims[idx, _modeled(predictor)] = _forecast_row(forecasts, predictor, n_obs)
            aimed[idx] = True
            continue
        aim = step_aim(predictor, hist)
        if aim is not None:
            aims[idx] = aim
            aimed[idx] = True
    return aims, aimed


def aim_path(predictor, observed, out) -> np.ndarray:
    """Write ``step_aim(predictor, observed[:n])`` into ``out[n - 1]`` for
    n = 1..L, where ``out`` is (L, m) like ``observed``, and return ``out``.

    A :class:`VarPredictor` reads its forecasts from one
    :func:`var_forecast_table` pass and aims at the last observation while
    it warms up; any other predictor, or None, is asked once per prefix in
    order.
    """
    if not isinstance(predictor, VarPredictor):
        for n in range(1, len(observed) + 1):
            out[n - 1] = step_aim(predictor, observed[:n])
        return out
    out[:] = observed
    table = var_forecast_table([predictor], observed)[predictor.indices]
    first = predictor.min_history
    out[first - 1 :, _modeled(predictor)] = table[predictor.order][first:]
    return out


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
