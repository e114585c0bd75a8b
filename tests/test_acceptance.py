"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline).

The criteria pin down: the contraction property of projected descent, exact
gradients, empirical validity of the dynamic-regret bounds (single-step,
multi-step, expert pool, aggregation inequality), the shapes of the three
study curves at their default seeds, Yule-Walker recovery, projection
properties against independent oracles, and byte-level reproducibility.
"""

import json
import os
import time

import numpy as np
import pytest

from poco.cli import main
from poco.config import resolve_config
from poco.descent import ogd_step
from poco.domains import EuclideanBall, UnitSimplex
from poco.objectives import (
    FunctionalTimeSeries,
    Markowitz,
    ObjectiveConstants,
    QuadraticTracking,
    contraction_factor,
)
from poco.predictors import fit_var_yule_walker
from poco.regret import minimizer_oracle
from poco.experiments import (
    run_exp1,
    run_exp2,
    run_exp3,
    run_expert_bound_study,
    run_predictive_bound_study,
)

from helpers import finite_diff_gradient, simplex_mesh_projection


def report(number, ok, detail):
    line = f"ACCEPTANCE {number:02d} [{'PASS' if ok else 'FAIL'}] {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def expert_study():
    return run_expert_bound_study(resolve_config({}, "exp1"), 50)


def test_criterion_01_contraction_suite():
    """1000 random strongly convex quadratic instances contract under
    projected descent with the closed-form factor, slack 1e-9, in < 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    failures = 0
    for _ in range(1000):
        weights = rng.uniform(0.5, 10.0, size=2)
        family = QuadraticTracking(weights)
        cset = EuclideanBall(
            center=rng.normal(scale=2.0, size=2), radius=rng.uniform(1.0, 10.0)
        )
        theta = np.concatenate([rng.normal(scale=8.0, size=2), [0.0]])
        lam, big_l = family.curvature()
        eta = rng.uniform(0.2, 1.0) / big_l
        c = contraction_factor(
            ObjectiveConstants(G=1.0, L=big_l, lam=lam, C_theta=1.0, D=1.0), eta
        )
        xstar = minimizer_oracle(family, cset, theta)
        v = cset.project(rng.normal(scale=6.0, size=2))
        moved = ogd_step(family, cset, v, theta, eta)
        if np.linalg.norm(moved - xstar) > c * np.linalg.norm(v - xstar) + 1e-9:
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        failures == 0 and elapsed < 5.0,
        f"contraction held in {1000 - failures}/1000 trials in {elapsed:.2f}s",
    )


def test_criterion_02_gradient_suite():
    """Analytic gradients match central finite differences (rel err < 1e-6)
    at 200 random points per family, in < 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    qt = QuadraticTracking((100.0, 1.0))
    fts = FunctionalTimeSeries(
        coeffs=rng.uniform(0.5, 3.0, size=(4, 3)),
        centers=rng.normal(scale=2.0, size=(4, 3)),
    )
    mk = Markowitz(3)
    worst = 0.0
    checked = 0
    for family in (qt, fts, mk):
        for _ in range(200):
            x = rng.normal(scale=3.0, size=family.n)
            if family is qt:
                theta = rng.normal(scale=30.0, size=family.m)
            elif family is fts:
                raw = rng.uniform(0.05, 1.0, size=family.m)
                theta = raw / raw.sum()
            else:
                a = rng.normal(size=(3, 3))
                theta = mk.pack(rng.normal(size=3), a @ a.T + 0.1 * np.eye(3), rng.uniform(0.1, 3.0))
            g = family.gradient_x(x, theta)
            fd = finite_diff_gradient(lambda z: family.value(z, theta), x)
            rel = float(np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g)))
            worst = max(worst, rel)
            checked += 1
    elapsed = time.perf_counter() - start
    report(
        2,
        worst < 1e-6 and checked == 600 and elapsed < 5.0,
        f"600 gradient checks, worst relative error {worst:.2e} in {elapsed:.2f}s",
    )


def test_criterion_03_single_step_bound():
    """Measured dynamic regret of 100 predictive runs on the switching
    process stays below the closed-form bound, in < 30 s."""
    start = time.perf_counter()
    study = run_predictive_bound_study(resolve_config({}, "exp1"), 100, inner_steps=1)
    elapsed = time.perf_counter() - start
    report(
        3,
        study.all_hold and elapsed < 30.0,
        f"single-step bound held in {study.n_pass}/{study.n_runs} runs in {elapsed:.1f}s",
    )


def test_criterion_04_multi_step_bound():
    """The k-step variant of the bound holds for k = 2 and k = 3, 100 runs
    each."""
    results = []
    for k in (2, 3):
        study = run_predictive_bound_study(resolve_config({}, "exp1"), 100, inner_steps=k)
        results.append((k, study.n_pass, study.n_runs, study.all_hold))
    ok = all(r[3] for r in results)
    detail = "; ".join(f"k={k}: {p}/{n}" for k, p, n, _ in results)
    report(4, ok, f"multi-step bound held ({detail})")


def test_criterion_05_expert_pool_bound(expert_study):
    """50 fixed-pool expert runs with the tuned learning rate satisfy the
    expert regret bound."""
    report(
        5,
        expert_study.all_hold,
        f"expert-pool bound held in {expert_study.n_pass}/{expert_study.n_runs} runs",
    )


def test_criterion_06_aggregation_inequality(expert_study):
    """Every fixed-pool run satisfies the exponential-weights inequality
    gap <= T*gamma*D^2/8 + ln(N)/gamma + 1e-6."""
    ok = all(rec.hedge_holds for rec in expert_study.records)
    n = sum(1 for rec in expert_study.records if rec.hedge_holds)
    report(6, ok, f"aggregation inequality held in {n}/{expert_study.n_runs} runs")


def test_criterion_07_study1_shape():
    """Study 1 at the default seed: difference curve exactly zero through
    round 10 and negative on average at the horizon, in < 60 s."""
    start = time.perf_counter()
    res = run_exp1(resolve_config({}, "exp1"))
    elapsed = time.perf_counter() - start
    flat = bool(np.all(res.curve.diffs[:, :10] == 0.0))
    final = float(res.curve.mean_diff[-1])
    report(
        7,
        flat and final < 0.0 and elapsed < 60.0,
        f"prefix exactly zero: {flat}; mean final difference {final:.4g} in {elapsed:.1f}s",
    )


def test_criterion_08_study2_shape():
    """Study 2 at the default seed: nonnegative mean difference over the
    first activation window, negative at the horizon, in < 120 s."""
    start = time.perf_counter()
    cfg = resolve_config({}, "exp2")
    res = run_exp2(cfg)
    elapsed = time.perf_counter() - start
    smad = cfg["smad"]
    lo = smad["first_activation"] - 1
    hi = smad["first_activation"] + smad["activation_every"] - 1
    window = float(res.curve.mean_diff[lo:hi].mean())
    final = float(res.curve.mean_diff[-1])
    report(
        8,
        window >= 0.0 and final < 0.0 and elapsed < 120.0,
        f"window mean {window:.4g} >= 0, final {final:.4g} < 0 in {elapsed:.1f}s",
    )


def test_criterion_09_study3_sign():
    """Study 3 at the default seed over 200 repetitions: the mean final
    difference is nonpositive, in < 600 s."""
    start = time.perf_counter()
    res = run_exp3(resolve_config({}, "exp3"))
    elapsed = time.perf_counter() - start
    final = float(res.curve.mean_diff[-1])
    report(
        9,
        final <= 0.0 and elapsed < 600.0,
        f"mean final difference {final:.4g} <= 0 over 200 repetitions in {elapsed:.0f}s",
    )


def test_criterion_10_yule_walker_recovery():
    """A fitted AR(2) recovers generating coefficients (0.5, -0.3) within
    0.05 from 10000 observations."""
    rng = np.random.default_rng(20260810)
    y = np.zeros(10000)
    eps = rng.standard_normal(10000)
    for t in range(2, 10000):
        y[t] = 0.5 * y[t - 1] - 0.3 * y[t - 2] + eps[t]
    fit = fit_var_yule_walker(y, 2)
    p1 = float(fit.phis[0][0, 0])
    p2 = float(fit.phis[1][0, 0])
    ok = abs(p1 - 0.5) <= 0.05 and abs(p2 + 0.3) <= 0.05
    report(10, ok, f"recovered phi=({p1:.4f}, {p2:.4f}) vs (0.5, -0.3)")


def _independent_simplex_projection(v):
    """Second route: bisection on the shift instead of sort-and-threshold."""
    v = np.asarray(v, dtype=float)
    lo = float(v.min()) - 1.0
    hi = float(v.max())
    for _ in range(200):
        tau = 0.5 * (lo + hi)
        if np.maximum(v - tau, 0.0).sum() > 1.0:
            lo = tau
        else:
            hi = tau
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


def test_criterion_11_projection_properties():
    """Nonexpansiveness and idempotence over 1000 random pairs per set kind;
    the exact simplex projection agrees with an independent bisection oracle
    and with a brute-force mesh in dimension <= 3."""
    rng = np.random.default_rng(1011)
    ball = EuclideanBall(center=np.array([0.5, -1.0, 2.0]), radius=3.0)
    simplex = UnitSimplex(4)
    ok = True
    for cset, scale in ((ball, 10.0), (simplex, 5.0)):
        for _ in range(1000):
            u = rng.normal(scale=scale, size=cset.dim if isinstance(cset, UnitSimplex) else 3)
            v = rng.normal(scale=scale, size=u.shape)
            pu, pv = cset.project(u), cset.project(v)
            ok &= np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-10
            ok &= bool(np.linalg.norm(cset.project(pu) - pu) <= 1e-12)
    s3 = UnitSimplex(3)
    worst_bisect = 0.0
    for _ in range(200):
        v = rng.normal(scale=2.0, size=3)
        worst_bisect = max(
            worst_bisect,
            float(np.linalg.norm(s3.project(v) - _independent_simplex_projection(v))),
        )
    ok &= worst_bisect <= 1e-9
    worst_mesh = 0.0
    for v in (np.array([2.0, 0.0, 0.0]), rng.normal(scale=1.5, size=3)):
        mesh = simplex_mesh_projection(v, step=4e-4)
        worst_mesh = max(worst_mesh, float(np.linalg.norm(s3.project(v) - mesh)))
    s2 = UnitSimplex(2)
    for v in (np.array([3.0, -1.0]), rng.normal(size=2)):
        mesh = simplex_mesh_projection(v, step=1e-5)
        worst_mesh = max(worst_mesh, float(np.linalg.norm(s2.project(v) - mesh)))
    ok &= worst_mesh <= 1e-3
    report(
        11,
        bool(ok),
        f"1000-pair suites passed; bisection gap {worst_bisect:.1e}, mesh gap {worst_mesh:.1e}",
    )


def test_criterion_12_manifest_replay(tmp_path):
    """Rerunning a study from its emitted manifest reproduces curve.csv byte
    for byte (shown on reduced repetition counts for speed)."""
    ok = True
    for command, extra in (("run-exp1", {}), ("run-exp2", {"horizon": 80})):
        cfg = {"repetitions": 3, "horizon": 60}
        cfg.update(extra)
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        out1 = str(tmp_path / f"{command}-a")
        out2 = str(tmp_path / f"{command}-b")
        assert main([command, "--config", str(cfg_path), "--out", out1, "--quiet"]) == 0
        assert main([
            command, "--config", os.path.join(out1, "manifest.json"),
            "--out", out2, "--quiet",
        ]) == 0
        a = open(os.path.join(out1, "curve.csv"), "rb").read()
        b = open(os.path.join(out2, "curve.csv"), "rb").read()
        ok &= a == b
    report(12, ok, "manifest replay reproduced curve.csv byte for byte")
