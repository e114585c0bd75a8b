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

A run never asks a predictor inside its loop.  An aim depends only on the
parameters observed so far, never on the iterates, and those are known
before the run starts, so :func:`aim_table` gives every expert's aim after
every prefix, for one run or a stack of them, in one pass per predictor
kind.  Every Yule-Walker number comes from one kernel that fits every order
after every prefix in one pass of cumulative sums: :func:`var_forecasts`
reads its forecasts, :func:`var_forecast_table` makes one such pass per
group of VAR experts that model the same coordinates, and
:func:`fit_var_yule_walker` reads its full-length fit.  A
:meth:`VarPredictor.predict` forecast is its aim table entry, bit for bit.
Descent runs and expert pools read their rounds' rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

DEFAULT_RIDGE = 1e-8
# runs per Yule-Walker pass over a stack: bounds the (runs, prefixes, kd, kd)
# systems held at once
RUN_BLOCK = 8


class PredictorNotReady(RuntimeError):
    """Raised when predicting before the minimum history is available."""

    def __init__(self, needed: int, have: int):
        super().__init__(
            f"predictor needs at least {needed} observations, have {have}"
        )
        self.needed = needed
        self.have = have


@dataclass(frozen=True)
class VarFit:
    """Immutable result of a Yule-Walker fit: lag matrices and series mean."""

    phis: np.ndarray  # (order, d, d)
    mean: np.ndarray  # (d,)

    @property
    def order(self) -> int:
        return self.phis.shape[0]


def _yule_walker(y: np.ndarray, orders: Sequence[int], ridge: float, first: int) -> dict:
    """The one Yule-Walker computation: ridged VAR fits of every order in the
    increasing ``orders`` after every prefix of at least ``first`` rows of
    each series of an (R, T, d) stack ``y``, and their one-step forecasts.

    The series are shifted by their first row, which leaves the fits
    unchanged and keeps the cross-product sums from cancelling a large
    common level.  Gamma(h) of the n-row prefix, (1/n) sum_{t=h}^{n-1}
    (z_t - zbar)(z_{t-h} - zbar)', comes from cumulative sums of z_t
    z_{t-h}', z_t and z_{t-h}, so all prefixes take one pass.  The ridged
    block-Toeplitz system of the largest order K, block (i, j)
    Gamma(i - j)', is built once per prefix; order k's system is its
    leading k*d block, one batched solve over the prefixes of at least
    2k+1 rows.  The forecast mean + sum_h Phi_h (y_{n-h} - mean) adds its
    k*d lag terms in a fixed order.  Cumulative sums run sequentially and
    each system is solved on its own, so a prefix's fit and forecast do not
    depend on T, ``first`` or R, bit for bit.

    Returns {k: (means, coefs, forecasts)} over the prefixes n = max(first,
    2k+1)..T: ``means`` and ``forecasts`` are (R, P, d), ``coefs`` is
    (R, P, k*d, d) with Phi_h' in rows (h-1)*d..h*d.  A NaN or inf in a
    fitted prefix raises ``ValueError``.
    """
    if not np.isfinite(ridge):
        raise ValueError(f"ridge must be finite, got {ridge}")
    n_runs, t_len, d = y.shape
    top = orders[-1]
    ns = np.arange(first, t_len + 1)  # the fitted prefix lengths
    with np.errstate(invalid="ignore", over="ignore"):
        z = y - y[:, :1]
        sums = np.concatenate([np.zeros((n_runs, 1, d)), np.cumsum(z, axis=1)], axis=1)
        means = sums[:, ns] / ns[:, None]
        gammas = np.zeros((n_runs, ns.size, top + 1, d, d))
        for h in range(top + 1):
            # lag-h sums over t = h..n-1: C = sum z_t z_{t-h}', A = sum z_t,
            # B = sum z_{t-h}; prefixes with n <= h keep zeros, which no
            # fitted order reads
            live = ns > h
            n, m = ns[live], means[:, live]
            cross = np.cumsum(z[:, h:, :, None] * z[:, : t_len - h, None, :], axis=1)
            lead = sums[:, n] - sums[:, h : h + 1]
            lagged = sums[:, n - h]
            gammas[:, live, h] = (
                cross[:, n - h - 1]
                - lead[..., :, None] * m[..., None, :]
                - m[..., :, None] * lagged[..., None, :]
                + (n - h)[:, None, None] * m[..., :, None] * m[..., None, :]
            ) / n[:, None, None]
    if not np.isfinite(gammas).all():
        raise ValueError(
            "series holds NaN or inf (or overflows its autocovariances); "
            "the Yule-Walker fit needs finite values"
        )
    big = np.empty((n_runs, ns.size, top * d, top * d))
    blocks = big.reshape(n_runs, ns.size, top, d, top, d)
    # block (i, j) is Gamma(i - j)', with Gamma(-h) = Gamma(h)'
    for i in range(top):
        for j in range(top):
            lag = gammas[:, :, i - j].swapaxes(-1, -2) if i >= j else gammas[:, :, j - i]
            blocks[:, :, i, :, j, :] = lag
    diag = np.arange(top * d)
    big[..., diag, diag] += ridge
    rhs = gammas[:, :, 1:].swapaxes(-1, -2).reshape(n_runs, ns.size, top * d, d)
    fits = {}
    for k in orders:
        rows = slice(max(2 * k + 1 - first, 0), None)
        try:
            coefs = np.linalg.solve(big[:, rows, : k * d, : k * d], rhs[:, rows, : k * d])
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                f"Yule-Walker system singular even with ridge {ridge}"
            ) from exc
        m = means[:, rows]
        # (y_{n-1} - mean, ..., y_{n-k} - mean) against the stacked Phi_h'
        past = z[:, ns[rows, None] - np.arange(1, k + 1)] - m[:, :, None, :]
        past = past.reshape(*m.shape[:2], k * d)
        step = past[..., 0, None] * coefs[..., 0, :]
        for j in range(1, k * d):
            step = step + past[..., j, None] * coefs[..., j, :]
        level = y[:, :1] + m
        fits[k] = (level, coefs, level + step)
    return fits


def var_forecasts(
    series, orders: Sequence[int], ridge: float = DEFAULT_RIDGE
) -> dict[int, np.ndarray]:
    """One-step Yule-Walker forecasts of every order after every prefix.

    Returns {k: (T+1, d) array} for a (T, d) ``series``: row n is the
    forecast of row n (theta_{n+1}) from a VAR(k) fit to the prefix
    ``series[:n]``, and NaN where n < 2k+1.  Row n reads ``series[:n]``
    and nothing after it, so a run may hand over every row its rounds
    observe and read each round's forecast at the length of its history.
    An (R, T, d) stack of series gives {k: (R, T+1, d)}, whose row r
    equals the call on series r alone.

    All prefixes come from one :func:`_yule_walker` pass per block of
    ``RUN_BLOCK`` series, whose prefix n gives
    ``fit_var_yule_walker(series[:n], k)`` and the forecast row n, which
    equals ``VarPredictor(k).predict(series[:n])`` bit for bit.  When some
    order is fitted, a NaN or inf in the series raises ``ValueError``.
    """
    orders = sorted({int(k) for k in orders})
    if orders and orders[0] < 1:
        raise ValueError(f"order must be >= 1, got {orders[0]}")
    y = np.asarray(series, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    runs = y if y.ndim == 3 else y[None]
    t_len = runs.shape[1]
    out = {k: np.full((runs.shape[0], t_len + 1, runs.shape[2]), np.nan) for k in orders}
    ready = [k for k in orders if t_len >= 2 * k + 1]
    for lo in range(0, runs.shape[0] if ready else 0, RUN_BLOCK):
        block = _yule_walker(runs[lo : lo + RUN_BLOCK], ready, ridge, 2 * ready[0] + 1)
        for k, (_, _, forecasts) in block.items():
            out[k][lo : lo + RUN_BLOCK, 2 * k + 1 :] = forecasts
    return out if y.ndim == 3 else {k: rows[0] for k, rows in out.items()}


def fit_var_yule_walker(
    series, order: int, ridge: float = DEFAULT_RIDGE
) -> VarFit:
    """Fit a VAR(order) to a (T, d) series by the Yule-Walker equations.

    The series is demeaned, lag autocovariances Gamma(0..order) are formed,
    and the block-Toeplitz system with blocks Gamma(i - j)' is solved for
    the stacked coefficient matrices, with ``ridge`` added to the diagonal
    so constant or otherwise degenerate windows stay solvable.  Prediction
    adds the mean back: theta_hat = mean + sum_h Phi_h (theta_{t+1-h} - mean).
    This is the full-length prefix of :func:`_yule_walker`.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    y = np.asarray(series, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    t_len, d = y.shape
    if t_len < 2 * order + 1:
        raise PredictorNotReady(needed=2 * order + 1, have=t_len)
    means, coefs, _ = _yule_walker(y[None], [order], ridge, t_len)[order]
    return VarFit(phis=coefs[0, 0].reshape(order, d, d).transpose(0, 2, 1), mean=means[0, 0])


class VarPredictor:
    """Yule-Walker VAR predictor, refit on every call.

    ``predict`` is a pure function of the history it is handed: each call
    fits the VAR to that history and forecasts from it, so one predictor
    can serve any number of runs.  The forecast is the predictor's
    :func:`aim_table` entry after the whole history.

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
        n_obs = len(history)
        if not self.ready(n_obs):
            raise PredictorNotReady(needed=self.min_history, have=n_obs)
        return aim_table([self], history)[0][-1, 0]


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

    def aim_rows(self, observed: np.ndarray, ns: np.ndarray) -> np.ndarray:
        """``step_aim(self, observed[:n])`` for every n in ``ns`` (all >= 1)."""
        return observed[ns - 1]


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

    def aim_rows(self, observed: np.ndarray, ns: np.ndarray) -> np.ndarray:
        """``step_aim(self, observed[:n])`` for every n in the increasing
        ``ns``, with the same noise: one (rows, m) draw gives a
        ``numpy.random.Generator`` the numbers of one (m,) draw per row."""
        ready = int(np.searchsorted(ns, self.truth.shape[0]))  # a prefix of ns
        rows = np.empty((ns.size, self.truth.shape[1]))
        rows[:ready] = self.truth[ns[:ready]]
        if self.noise_std != 0.0:
            rows[:ready] += self.noise_std * self.rng.standard_normal((ready, rows.shape[1]))
        rows[ready:] = observed[ns[ready:] - 1]
        return rows


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
    predictors need no entry.  An (R, L, m) stack of R runs' records gives
    (R, L+1, d) forecasts from the same passes.
    """
    obs = np.asarray(observed, dtype=float)
    if obs.ndim == 1:
        obs = obs[:, None]
    groups: dict = {}
    for predictor in predictors:
        if isinstance(predictor, VarPredictor):
            groups.setdefault(predictor.indices, set()).add(predictor.order)
    return {
        indices: var_forecasts(obs if indices is None else obs[..., list(indices)], orders)
        for indices, orders in groups.items()
    }


def _var_rows(predictor: VarPredictor, runs, ns, forecasts) -> np.ndarray:
    """A VarPredictor's aims after every prefix length in ``ns``, for each
    run of an (R, L, m) stack: the last observation, with the modeled
    coordinates replaced by the :func:`var_forecast_table` row once the
    predictor is ready."""
    rows = runs[:, ns - 1]
    ready = ns[ns >= predictor.min_history]  # a suffix of ns
    modeled = slice(None) if predictor.indices is None else list(predictor.indices)
    rows[:, ns.size - ready.size :, modeled] = (
        forecasts[predictor.indices][predictor.order][:, ready]
    )
    return rows


def aim_table(predictors, observed, starts=None) -> tuple[np.ndarray, np.ndarray]:
    """Every predictor's :func:`step_aim` after every prefix of an (L, m)
    ``observed``: an (L+1, N, m) array whose entry [n, i] is
    ``step_aim(predictors[i], observed[:n])``, and the (L+1, N) mask of
    the entries that have an aim (unaimed entries hold NaN).  An (R, L, m)
    stack of R runs' records gives (R, L+1, N, m) aims, whose run r equals
    the call on its record alone bit for bit, and the same mask, which
    does not depend on the values observed.

    Column i starts at row ``starts[i]`` (0 by default), the number of
    observations its expert has in its first round: earlier rows stay
    unaimed and the predictor is not asked there, so a late entrant draws
    no noise before it joins.  Each kind fills its column in one pass:

    * :class:`VarPredictor` reads its forecasts from one
      :func:`var_forecast_table` pass per coordinate group, over all of
      ``observed`` and every run, and repeats the last observation while it
      warms up;
    * a predictor with an ``aim_rows(observed, ns)`` method
      (:class:`Persistence`, :class:`NoisyOracle`, study 3's
      :class:`poco.experiments.MarkowitzModelPredictor`) gives one run's
      rows after the prefix lengths ``ns`` at once, run by run;
    * any other object is asked once per run and prefix through
      :func:`step_aim`;
    * None, standard descent, aims as :class:`Persistence` does.
    """
    obs = np.asarray(observed, dtype=float)
    if obs.ndim == 1:
        obs = obs[:, None]
    runs = obs if obs.ndim == 3 else obs[None]
    n_runs, n_obs, width = runs.shape
    starts = [0] * len(predictors) if starts is None else starts
    aims = np.full((n_runs, n_obs + 1, len(predictors), width), np.nan)
    aimed = np.zeros((n_obs + 1, len(predictors)), dtype=bool)
    forecasts = var_forecast_table(predictors, runs)
    for col, (predictor, first) in enumerate(zip(predictors, starts)):
        if predictor is None:
            predictor = Persistence()
        # with nothing observed, only a predictor ready already has an aim
        ns = np.arange(first if first > 0 or predictor.ready(0) else 1, n_obs + 1)
        if not ns.size:
            continue
        if isinstance(predictor, VarPredictor):
            aims[:, ns, col] = _var_rows(predictor, runs, ns, forecasts)
        elif hasattr(predictor, "aim_rows"):
            aims[:, ns, col] = [predictor.aim_rows(run, ns) for run in runs]
        else:
            aims[:, ns, col] = [[step_aim(predictor, run[:n]) for n in ns] for run in runs]
        aimed[ns, col] = True
    return (aims if obs.ndim == 3 else aims[0]), aimed


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
