"""Independent oracles used by the tests.

Everything here recomputes quantities by a route different from the library
code it checks: brute-force meshes, bisection on optimality conditions,
central finite differences, plain re-accumulation loops, the scalar
formulas of objectives, projections and descent steps, one vector at a time,
that the library's row kernels replaced, the two-pass Yule-Walker fit
that the library's all-prefix cumulative sums replaced, and the expert-pool
round that kept its prediction regularity and aim range round by round,
which the library now reads off a run's aim table after the loop, the
study-3 moments table filled slot by slot that the library now fills by
stacked windows, the scalar aim rules of one history at a time that
the library's ``predict`` methods replaced with their aim-table rows, and
the switching path stacked round by round that the library now builds with
one array rule, the risk chain drawn day by day that the library now
reads from the raw stream in bulk, the minimizer search with its own
descent update that the library now steps with the runs' update, and the
sort-and-threshold simplex projection and the tracking minimizers' own
knapsack and secular solve, which the library now computes in each set's
one weighted projection kernel.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from poco.descent import DescentConfig, ogd_step_rows, run_predictive_ogd
from poco.domains import SIMPLEX_EXACT, EuclideanBall, UnitSimplex
from poco.objectives import Markowitz, QuadraticTracking
from poco.predictors import DEFAULT_RIDGE, PredictorNotReady, VarFit, aim_table
from poco.scenarios import switching_base


def finite_diff_gradient(fun, x, h=1e-6):
    """Central finite differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def secular_ball_minimizer(weights, target, center, radius, tol=1e-13):
    """Minimize sum_i w_i (x_i - a_i)^2 over a ball by its optimality system.

    Stationarity with multiplier nu >= 0 gives x_i(nu) = (w_i a_i + nu c_i)
    / (w_i + nu); the multiplier solves ||x(nu) - c|| = r and is found by
    bisection, entirely independent of any descent code.
    """
    w = np.asarray(weights, dtype=float)
    a = np.asarray(target, dtype=float)
    c = np.asarray(center, dtype=float)

    def x_of(nu):
        return (w * a + nu * c) / (w + nu)

    if np.linalg.norm(x_of(0.0) - c) <= radius:
        return x_of(0.0)
    lo, hi = 0.0, 1.0
    while np.linalg.norm(x_of(hi) - c) > radius:
        hi *= 2.0
        if hi > 1e18:
            raise RuntimeError("bisection bracket failed")
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(x_of(mid) - c) > radius:
            lo = mid
        else:
            hi = mid
    return x_of(0.5 * (lo + hi))


def reference_simplex_sorted_rows(vs):
    """Euclidean projection of each row onto the unit simplex by sort and
    threshold: sort the coordinates descending, find the largest support
    size rho for which the shifted entries stay positive, and clip."""
    vs = np.asarray(vs, dtype=float)
    n = vs.shape[1]
    u = -np.sort(-vs, axis=1)
    css = np.cumsum(u, axis=1)
    ks = np.arange(1, n + 1)
    cond = u + (1.0 - css) / ks > 0
    rho = n - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = (1.0 - css[np.arange(len(vs)), rho]) / (rho + 1)
    return np.maximum(vs + tau[:, None], 0.0)


def reference_tracking_minimizers(w, cset, targets, max_iter=100):
    """argmin of sum_i w_i (x_i - a_i)^2 over the ball or the exact simplex
    for each row a of ``targets``, from the optimality conditions: on the
    simplex the continuous quadratic knapsack over the breakpoints
    2 w_i a_i sorted descending (Pardalos & Kovoor 1990), on the ball Newton
    on the secular equation from nu = 0 (More & Sorensen 1983)."""
    if isinstance(cset, UnitSimplex):
        order = np.argsort(-(w * targets), axis=1)
        a_sorted, half_inv = np.take_along_axis(targets, order, axis=1), 0.5 / w
        taus = (np.cumsum(a_sorted, axis=1) - 1.0) / np.cumsum(half_inv[order], axis=1)
        above = a_sorted > taus * half_inv[order]
        rho = targets.shape[1] - 1 - np.argmax(above[:, ::-1], axis=1)
        tau = np.take_along_axis(taus, rho[:, None], axis=1)
        return np.maximum(targets - tau * half_inv, 0.0)
    d, r = targets - cset.center, cset.radius
    out, idx = targets.copy(), np.flatnonzero((d * d).sum(axis=1) > r * r)
    d, nu = d[idx], np.zeros(len(idx))
    for _ in range(max_iter):
        if not idx.size:
            return out
        h = w + nu[:, None]
        e = w * d / h
        s2 = (e * e).sum(axis=1)
        step = (np.sqrt(s2) - r) * s2 / (r * (e * e / h).sum(axis=1))
        nu = nu + step
        done = step <= 1e-13 * (w.max() + nu)
        out[idx[done]] = cset.center + w * d[done] / (w + nu[done, None])
        idx, d, nu = idx[~done], d[~done], nu[~done]
    if idx.size:
        raise RuntimeError("reference secular equation unsolved")
    return out


def simplex_mesh(dim, step):
    """All mesh points of the unit simplex at the given resolution.

    dim 2 enumerates a segment, dim 3 a triangle; yielded in chunks so a
    fine triangle mesh never materializes at once.
    """
    if dim == 2:
        a = np.arange(0.0, 1.0 + step / 2, step)
        yield np.column_stack([a, 1.0 - a])
        return
    if dim != 3:
        raise ValueError("mesh oracle supports dimension 2 or 3")
    a_vals = np.arange(0.0, 1.0 + step / 2, step)
    chunk = max(1, int(2e6 // len(a_vals)))
    for start in range(0, len(a_vals), chunk):
        a = a_vals[start : start + chunk]
        aa, bb = np.meshgrid(a, a_vals, indexing="ij")
        cc = 1.0 - aa - bb
        keep = cc >= -1e-12
        pts = np.column_stack([aa[keep], bb[keep], np.maximum(cc[keep], 0.0)])
        if len(pts):
            yield pts


def simplex_mesh_argmin(objective, dim, step):
    """Brute-force minimizer of a vectorized objective over the simplex mesh."""
    best_val = np.inf
    best_pt = None
    for pts in simplex_mesh(dim, step):
        vals = objective(pts)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_pt = pts[i]
    return best_pt


def simplex_mesh_projection(v, step):
    """Mesh minimizer of ||x - v|| over the simplex."""
    v = np.asarray(v, dtype=float)

    def dist2(pts):
        d = pts - v
        return np.einsum("ij,ij->i", d, d)

    return simplex_mesh_argmin(dist2, v.size, step)


def cov_moments(relatives, end_day, lookback, ridge=1e-6):
    """Mean and ridged covariance of the returns in the ``lookback`` rows
    ending at 1-based ``end_day``, through ``np.cov``."""
    window = np.asarray(relatives, dtype=float)[end_day - lookback : end_day] - 1.0
    sigma = np.atleast_2d(np.cov(window, rowvar=False, ddof=1))
    sigma = (sigma + sigma.T) / 2.0
    sigma[np.diag_indices_from(sigma)] += ridge
    return window.mean(axis=0), sigma


def reference_moment_table(data, month_days, months, lookbacks):
    """A moments table built slot by slot through :func:`cov_moments`:
    slot ``(month - 1) * J + j`` holds the moments of the ``lookbacks[j]``
    days, or all days so far if fewer, up to day ``month_days * month``.
    Returns ``(mu, sigma)`` of shapes (months * J, n) and (months * J, n, n)."""
    n_lookbacks, n = len(lookbacks), data.n_assets
    mu = np.empty((months * n_lookbacks, n))
    sigma = np.empty((months * n_lookbacks, n, n))
    for month in range(1, months + 1):
        end_day = month_days * month
        for j, lb in enumerate(lookbacks):
            slot = (month - 1) * n_lookbacks + j
            mu[slot], sigma[slot] = cov_moments(data.relatives, end_day, min(lb, end_day))
    return mu, sigma


def _markowitz_blocks(family, theta):
    assert type(family) is Markowitz
    n = family.n
    return theta[:n], theta[n : n + n * n].reshape(n, n), float(theta[-1])


def scalar_value(family, x, theta):
    """f(x, theta) of a ``QuadraticTracking`` or packed ``Markowitz``
    family, by its vector formula."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if isinstance(family, QuadraticTracking):
        d = x - theta[: family.n]
        return float(family.weights @ (d * d) + theta[family.n])
    mu, sigma, lam_risk = _markowitz_blocks(family, theta)
    return float(x @ sigma @ x - lam_risk * (x @ mu))


def scalar_gradient_x(family, x, theta):
    """grad_x f(x, theta), as :func:`scalar_value`."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if isinstance(family, QuadraticTracking):
        return 2.0 * family.weights * (x - theta[: family.n])
    mu, sigma, lam_risk = _markowitz_blocks(family, theta)
    return 2.0 * (sigma @ x) - lam_risk * mu


def scalar_project(cset, v):
    """Projection of one vector: radial scaling onto a ball, sort and
    threshold onto the exact simplex, clip and rescale for the
    renormalizing rule (uniform when no entry is positive)."""
    v = np.asarray(v, dtype=float)
    if isinstance(cset, EuclideanBall):
        d = v - cset.center
        norm = float(np.linalg.norm(d))
        if norm <= cset.radius:
            return v.copy()
        return cset.center + d * (cset.radius / norm)
    if cset.mode == SIMPLEX_EXACT:
        u = np.sort(v)[::-1]
        css = np.cumsum(u)
        cond = u + (1.0 - css) / np.arange(1, v.size + 1) > 0
        rho = int(np.nonzero(cond)[0][-1])
        return np.maximum(v + (1.0 - css[rho]) / (rho + 1), 0.0)
    clipped = np.maximum(v, 0.0)
    total = clipped.sum()
    return np.full(v.size, 1.0 / v.size) if total <= 0.0 else clipped / total


def scalar_ogd_step(family, cset, x, theta_ref, eta, inner_steps=1):
    """``inner_steps`` projected gradient updates of one point."""
    z = np.asarray(x, dtype=float)
    for _ in range(inner_steps):
        z = scalar_project(cset, z - eta * scalar_gradient_x(family, z, theta_ref))
    return z


def scalar_tracking_minimizer(family, cset, theta, tol=1e-12, max_iter=10**6):
    """Constrained minimizer of a ``QuadraticTracking`` objective: projected
    gradient descent with step 1/L from the projected target, one parameter
    at a time, until a step moves less than ``tol``."""
    theta = np.asarray(theta, dtype=float)
    z = scalar_project(cset, theta[: family.n])
    eta = 1.0 / (2.0 * float(family.weights.max()))
    for _ in range(max_iter):
        z_new = scalar_ogd_step(family, cset, z, theta, eta)
        if np.linalg.norm(z_new - z) < tol:
            return z_new
        z = z_new
    raise RuntimeError("reference minimizer did not converge")


def reference_minimizers(family, cset, thetas, tol=1e-12, max_iter=10**6):
    """The minimizer search of an iterative family as it ran with its own
    update: each row from its projected unconstrained minimizer (the set's
    interior point when that is not finite), kept when the projection moves
    it at most 1e-12, else projected gradient descent at step 1/L through
    the public ``gradient_x_rows`` and ``project_rows`` until a step moves
    less than ``tol``.  ``cset`` is the set searched, an exact one."""
    thetas = np.asarray(thetas, dtype=float)
    xu = family.unconstrained_minimizer_rows(thetas)
    finite = np.isfinite(xu).all(axis=1)
    out = np.tile(cset.interior_point(), (len(thetas), 1))
    out[finite] = cset.project_rows(xu[finite])
    direct = np.linalg.norm(out - xu, axis=1) <= 1e-12

    idx = np.flatnonzero(~direct)
    z_act, th_act = out[idx], thetas[idx]
    eta_act = (1.0 / family.curvature_rows(th_act)[1])[:, None]
    for _ in range(max_iter):
        if not idx.size:
            return out
        g = family.gradient_x_rows(z_act, th_act)
        z_new = cset.project_rows(z_act - eta_act * g)
        done = np.linalg.norm(z_new - z_act, axis=1) < tol
        out[idx[done]] = z_new[done]
        idx, z_act, th_act, eta_act = idx[~done], z_new[~done], th_act[~done], eta_act[~done]
    raise RuntimeError("reference minimizer search did not converge")


def sample_autocovariances(series, max_lag):
    """Lag-h autocovariance matrices of a (T, d) series, in two passes.

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
    gammas = np.stack([z[h:].T @ z[: t_len - h] / t_len for h in range(max_lag + 1)])
    return gammas, ybar


def yule_walker_reference(series, order, ridge=DEFAULT_RIDGE):
    """VAR(order) fit of one series from :func:`sample_autocovariances`: the
    ridged block-Toeplitz system, block (i, j) Gamma(i - j)', solved for
    the stacked Phi_h'."""
    gammas, ybar = sample_autocovariances(series, order)
    d = ybar.shape[0]
    big = np.block([
        [gammas[i - j].T if i >= j else gammas[j - i] for j in range(order)]
        for i in range(order)
    ])
    big += ridge * np.eye(order * d)
    rhs = np.concatenate([gammas[h].T for h in range(1, order + 1)])
    sol = np.linalg.solve(big, rhs)
    return VarFit(phis=sol.reshape(order, d, d).transpose(0, 2, 1), mean=ybar)


def var_predict(fit, series):
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


def persistence_predict(history):
    """A persistence forecast: a copy of the last observation."""
    hist = np.asarray(history, dtype=float)
    if hist.ndim == 1:
        hist = hist[:, None]
    if hist.shape[0] < 1:
        raise PredictorNotReady(needed=1, have=0)
    return hist[-1].copy()


def oracle_predict(oracle, history):
    """A noisy oracle's forecast after ``history``: its truth row at
    ``len(history)`` plus one (m,) draw of its noise, none at noise 0."""
    t_next = len(history)
    if t_next >= oracle.truth.shape[0]:
        raise PredictorNotReady(needed=t_next + 1, have=oracle.truth.shape[0])
    base = oracle.truth[t_next].copy()
    if oracle.noise_std == 0.0:
        return base
    return base + oracle.noise_std * oracle.rng.standard_normal(base.shape)


def risk_forecast_get(cache, order, risk_series):
    """A study-3 risk forecast after the months of ``risk_series``: the
    cache's forecast row at its length, or the last observed risk while the
    order lacks 2k+1 observations."""
    months_seen = risk_series.shape[0]
    if months_seen < 2 * order + 1:
        return float(risk_series[-1])
    return float(cache.forecasts[order][months_seen, 0])


def model_predict(model, history):
    """A study-3 manager model's (slot, risk) forecast after ``history``,
    through :func:`risk_forecast_get`; ``max`` keeps a NaN or -0.0
    forecast as it is."""
    hist = np.asarray(history, dtype=float)
    risk_hat = risk_forecast_get(model.forecasts, model.ar_order, hist[:, -1])
    return np.array([model.moments.slot(hist.shape[0], model.lookback), max(risk_hat, 0.0)])


def _reference_logsumexp(v):
    hi = np.max(v)
    if not np.isfinite(hi):
        return float(hi)
    return float(hi + np.log(np.sum(np.exp(v - hi))))


def reference_pool_step(pool, family, cset, theta_t, aims, aimed):
    """One expert-pool round that also keeps the aim bookkeeping round by
    round: ``pool`` holds ``xs``, ``log_p``, ``played`` (False until an
    expert's first round), the running prediction regularity ``p_theta``
    (scored from an expert's second round on) and the aim range
    ``aim_lo``/``aim_hi`` (None until some expert aims).  Updates ``pool``
    and returns the aggregate play; the expert losses go to
    ``pool.last_losses``."""
    theta_t = np.asarray(theta_t, dtype=float)
    moves = pool.xs.copy()
    if aimed.any():
        rows = np.flatnonzero(aimed)
        active_aims = aims[rows]
        moves[rows] = ogd_step_rows(
            family, cset, moves[rows], active_aims, pool.eta, pool.inner_steps,
            "expert", rows,
        )
        scored = aimed & pool.played
        pool.p_theta[scored] += np.linalg.norm(theta_t - aims[scored], axis=1)
        lo, hi = active_aims.min(axis=0), active_aims.max(axis=0)
        if pool.aim_lo is None:
            pool.aim_lo, pool.aim_hi = lo, hi
        else:
            np.minimum(pool.aim_lo, lo, out=pool.aim_lo)
            np.maximum(pool.aim_hi, hi, out=pool.aim_hi)

    x_t = cset.project(np.exp(pool.log_p) @ moves)
    losses = family.value_rows(moves, theta_t[None, :])
    pool.played[:] = True
    pool.xs = moves
    log_w = pool.log_p - pool.gamma * losses
    norm = _reference_logsumexp(log_w)
    if not np.isfinite(norm):
        raise ArithmeticError("all expert weights vanished during the Gibbs update")
    pool.log_p = log_w - norm
    pool.last_losses = losses
    return x_t


def reference_smad(family, cset, thetas, beta, gamma, eta, inner_steps, x1, roster,
                   initial_history=None):
    """An expert-pool run over :func:`reference_pool_step`: the same roster
    admission, aim table and plain-descent lead-in as ``run_smad``, the
    distribution copied every round and the aggregate plays charged after
    the loop.  Returns the trajectory's arrays by field name."""
    thetas = np.asarray(thetas, dtype=float)
    horizon, width = thetas.shape
    x = np.asarray(x1, dtype=float)
    seed = np.empty((0, width)) if initial_history is None else np.asarray(initial_history, float)
    record = np.concatenate([seed, thetas[:-1]])
    pending = sorted(roster, key=lambda pair: pair[0])
    aims, aimed = aim_table(
        [predictor for _, predictor in pending], record,
        starts=[len(seed) + max(when, 1) - 1 for when, _ in pending],
    )
    n_total, n = len(pending), x.shape[0]
    pool = SimpleNamespace(
        xs=np.zeros((0, n)), log_p=np.zeros(0), played=np.zeros(0, dtype=bool),
        p_theta=np.zeros(0), aim_lo=None, aim_hi=None,
        eta=eta, inner_steps=inner_steps, gamma=gamma,
    )
    xs = np.empty((horizon, n))
    expert_xs = np.full((horizon, n_total, n), np.nan)
    expert_losses = np.full((horizon, n_total), np.nan)
    p = np.full((horizon, n_total), np.nan)
    first = pending[0][0] if pending else horizon + 1
    n_plain = min(max(first - 1, 0), horizon)
    if n_plain:
        plain = run_predictive_ogd(
            family, cset, thetas[:n_plain], DescentConfig(eta, inner_steps), x
        )
        xs[:n_plain] = plain.xs
    for i in range(n_plain, horizon):
        due = []
        while pending and pending[0][0] <= i + 1:
            due.append(pending.pop(0))
        if due:
            # entrants into an empty pool share its mass; each later one
            # scales the incumbents by 1 - beta and takes beta
            if len(pool.log_p) == 0:
                pool.log_p = np.full(len(due), -math.log(len(due)))
            else:
                for _ in due:
                    pool.log_p = np.append(pool.log_p + math.log1p(-beta), math.log(beta))
                    pool.log_p -= _reference_logsumexp(pool.log_p)
            start = xs[i - 1] if i else x
            pool.xs = np.vstack([pool.xs, np.tile(start, (len(due), 1))])
            pool.played = np.append(pool.played, np.zeros(len(due), dtype=bool))
            pool.p_theta = np.append(pool.p_theta, np.zeros(len(due)))
        m_act = len(pool.xs)
        row = len(seed) + i
        xs[i] = reference_pool_step(
            pool, family, cset, thetas[i], aims[row, :m_act], aimed[row, :m_act]
        )
        expert_xs[i, :m_act] = pool.xs
        expert_losses[i, :m_act] = pool.last_losses
        p[i, :m_act] = np.exp(pool.log_p)
    p_theta = np.full(n_total, np.nan)
    p_theta[: len(pool.p_theta)] = pool.p_theta
    return dict(
        xs=xs, losses=family.value_rows(xs, thetas), expert_xs=expert_xs,
        expert_losses=expert_losses, p=p, p_theta_by_expert=p_theta,
        aim_lo=pool.aim_lo, aim_hi=pool.aim_hi,
    )


def stacked_switching(spec, seed):
    """The switching path of ``spec`` for one seed, its noise-free base
    stacked from one :func:`poco.scenarios.switching_base` call per round."""
    rng = np.random.default_rng(seed)
    base = np.stack([switching_base(spec, t) for t in range(1, spec.horizon + 1)])
    if spec.noise_scale == 0.0:
        return base
    noise = rng.standard_normal(base.shape)
    if spec.noise_clip is not None:
        noise = np.clip(noise, -spec.noise_clip, spec.noise_clip)
    return base + np.sqrt(spec.noise_scale) * noise


def reference_risk_state_chain(spec, n_days, seed):
    """The latent risk states drawn day by day: each day records the state,
    then one ``random()`` draw decides whether it redraws from the jump
    range by one scalar ``integers()`` draw."""
    rng = np.random.default_rng(seed)
    states = np.empty(n_days)
    b = float(spec.base)
    for d in range(n_days):
        states[d] = b
        if rng.random() >= spec.stay_prob:
            b = float(rng.integers(spec.jump_low, spec.jump_high + 1))
    return states
