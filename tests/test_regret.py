import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poco import regret
from poco.descent import DescentConfig, run_predictive_ogd
from poco.domains import EuclideanBall, UnitSimplex
from poco.objectives import (
    FunctionalTimeSeries,
    Markowitz,
    MarkowitzTable,
    ObjectiveConstants,
    QuadraticTracking,
    contraction_factor,
    step_contracts,
)
from poco.predictors import NoisyOracle, Persistence, VarPredictor
from poco.regret import (
    build_ledger,
    dynamic_regret,
    expert_regret_bound,
    hedge_gap_bound,
    minimizer_oracle,
    minimizers_batch,
    path_length,
    predictive_regret_bound,
    realized_theta_box,
    suggested_gamma,
)
from poco.scenarios import SwitchingProcessSpec, gen_switching
from poco.smad import ExpertPool, run_smad

from helpers import (
    reference_minimizers,
    reference_tracking_minimizers,
    scalar_tracking_minimizer,
    secular_ball_minimizer,
    simplex_mesh_argmin,
)

# an overflow inside the oracle fails the test instead of printing a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def tracking_setup():
    family = QuadraticTracking((100.0, 1.0))
    cset = EuclideanBall(center=np.zeros(2), radius=50.0)
    return family, cset


class TestMinimizerOracle:
    def test_feasible_stationary_point(self):
        family, cset = tracking_setup()
        np.testing.assert_allclose(
            minimizer_oracle(family, cset, [0.0, 0.0, 0.0]), [0.0, 0.0], atol=1e-12
        )

    def test_boundary_case_matches_secular_oracle(self):
        family, cset = tracking_setup()
        theta = np.array([100.0, 20.0, -50.0])
        xstar = minimizer_oracle(family, cset, theta)
        ref = secular_ball_minimizer((100.0, 1.0), theta[:2], np.zeros(2), 50.0)
        assert np.linalg.norm(xstar) == pytest.approx(50.0, abs=1e-9)
        assert np.linalg.norm(xstar - ref) <= 1e-6

    def test_random_boundary_cases_match_secular_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            weights = rng.uniform(0.5, 8.0, size=2)
            family = QuadraticTracking(weights)
            center = rng.normal(scale=1.0, size=2)
            cset = EuclideanBall(center=center, radius=rng.uniform(0.5, 3.0))
            target = rng.normal(scale=10.0, size=2)
            theta = np.concatenate([target, [0.0]])
            xstar = minimizer_oracle(family, cset, theta)
            ref = secular_ball_minimizer(weights, target, center, cset.radius)
            assert np.linalg.norm(xstar - ref) <= 1e-6

    def test_markowitz_vertex_on_simplex(self):
        family = Markowitz(2)
        cset = UnitSimplex(2)
        theta = family.pack([2.0, 0.0], np.eye(2), 1.0)
        xstar = minimizer_oracle(family, cset, theta)
        np.testing.assert_allclose(xstar, [1.0, 0.0], atol=1e-8)

    def test_markowitz_matches_grid_search(self):
        family = Markowitz(3)
        cset = UnitSimplex(3)
        rng = np.random.default_rng(15)
        a = rng.normal(size=(3, 3))
        sigma = a @ a.T + 0.2 * np.eye(3)
        theta = family.pack(rng.normal(size=3), sigma, 1.5)
        xstar = minimizer_oracle(family, cset, theta)

        def vals(pts):
            return np.einsum("ij,jk,ik->i", pts, sigma, pts) - 1.5 * pts @ theta[:3]

        ref = simplex_mesh_argmin(vals, 3, step=1e-3)
        assert np.linalg.norm(xstar - ref) <= 5e-3

    @pytest.mark.parametrize("table", [False, True], ids=["packed", "table"])
    def test_singular_covariance_matches_grid_search(self, table):
        # a riskless third asset: 2 Sigma x = lam mu has no solution, so the
        # search starts from the simplex centre; a regular row rides along
        singular = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
        sigmas = np.stack([np.eye(3), singular])
        mu = np.array([0.3, 0.1, 0.05])
        cases = [(0, 1.0), (1, 1.0), (1, 0.2)]
        if table:
            family = MarkowitzTable(np.stack([mu, mu]), sigmas)
            thetas = np.array(cases, dtype=float)
        else:
            family = Markowitz(3)
            thetas = np.stack([family.pack(mu, sigmas[s], lam) for s, lam in cases])
        xstars = minimizers_batch(family, UnitSimplex(3), thetas)
        for (s, lam), xstar in zip(cases, xstars):

            def vals(pts):
                return np.einsum("ij,jk,ik->i", pts, sigmas[s], pts) - lam * pts @ mu

            ref = simplex_mesh_argmin(vals, 3, step=1e-3)
            assert np.linalg.norm(xstar - ref) <= 5e-3

    def test_functional_series_interior(self):
        rng = np.random.default_rng(16)
        family = FunctionalTimeSeries(
            coeffs=rng.uniform(0.5, 2.0, size=(3, 2)),
            centers=rng.normal(scale=0.2, size=(3, 2)),
        )
        cset = EuclideanBall(center=np.zeros(2), radius=5.0)
        theta = np.array([0.2, 0.5, 0.3])
        xstar = minimizer_oracle(family, cset, theta)
        np.testing.assert_allclose(
            xstar, family.unconstrained_minimizer(theta), atol=1e-10
        )

    def test_iteration_cap(self, monkeypatch):
        # the minimum-variance portfolio (0.8, 0.2) lies off the unconstrained
        # minimizer 0, so the search descends and needs more than 3 steps
        family = Markowitz(2)
        theta = family.pack([0.0, 0.0], np.diag([1.0, 4.0]), 1.0)
        monkeypatch.setattr(regret, "MINIMIZER_MAX_ITER", 3)
        with pytest.raises(RuntimeError, match="cap"):
            minimizers_batch(family, UnitSimplex(2), [theta])

    def test_batch_matches_scalar(self):
        family, cset = tracking_setup()
        rng = np.random.default_rng(17)
        thetas = np.column_stack(
            [rng.normal(scale=80.0, size=(30, 2)), rng.normal(size=(30, 1))]
        )
        batch = minimizers_batch(family, cset, thetas)
        for theta, row in zip(thetas, batch):
            assert np.linalg.norm(row - scalar_tracking_minimizer(family, cset, theta)) <= 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("case", ["tracking-ball", "tracking-simplex", "markowitz-simplex"])
    def test_non_finite_parameter_row_is_named(self, case, bad):
        if case == "markowitz-simplex":
            family, cset = Markowitz(2), UnitSimplex(2)
            thetas = np.stack([family.pack([0.1, 0.2], np.eye(2), 1.0)] * 3)
        else:
            family = QuadraticTracking((100.0, 1.0))
            cset = EuclideanBall(np.zeros(2), 50.0) if case == "tracking-ball" else UnitSimplex(2)
            thetas = np.array([[0.3, 0.6, 0.0], [90.0, 2.0, 1.0], [0.5, 0.5, 0.0]])
        thetas[1, 0] = bad
        with pytest.raises(ValueError, match="parameter row 1 must be finite"):
            minimizers_batch(family, cset, thetas)

    def test_failing_step_names_the_parameter_row(self):
        # row 0 stops at its feasible stationary point (0.5, 0.5); row 1's
        # gradient overflows from its first iterate, and the error names it
        # among all rows, not among the rows still iterating
        family = Markowitz(2)
        good = family.pack([1.0, 1.0], np.eye(2), 1.0)
        bad = family.pack([1e300, 0.0], np.eye(2), 1e10)
        named = r"(non-finite gradient for|the step of) parameter row 1 "
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=named):
                minimizers_batch(family, UnitSimplex(2), [good, bad])

    def test_unsolved_secular_equation_names_its_row(self):
        # the first Newton step overflows at 1e120, ||x(nu) - c||^2 itself
        # at 1e200: either raises at once, naming the row, with no warning
        family, cset = tracking_setup()
        for target in (1e120, 1e200):
            thetas = [[1.0, 2.0, 0.0], [target, target, 0.0]]
            with pytest.raises(RuntimeError, match="row 1: .* distance from the center overflows"):
                minimizers_batch(family, cset, thetas)


class TestIterativeOracleReference:
    """The minimizer search of the iterative families, stepped by the runs'
    update, against the search with its own update (``helpers``), bit for
    bit.  Each row aims at a point inside the set (its stationary point is
    feasible, so it is taken directly) or outside it (the row descends)."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        k=st.integers(1, 6),
        kind=st.sampled_from(["packed", "table", "functional"]),
        where=st.sampled_from(["ball", "simplex", "renormalize"]),
        rows=st.sampled_from(["direct", "iterate", "mix"]),
    )
    def test_equals_the_search_with_its_own_update(self, seed, n, k, kind, where, rows):
        rng = np.random.default_rng(seed)
        inside = {"direct": np.ones(k, bool), "iterate": np.zeros(k, bool),
                  "mix": np.arange(k) % 2 == 0}[rows]
        if where == "ball":
            cset = searched = EuclideanBall(rng.normal(size=n), rng.uniform(0.5, 3.0))
            direction = rng.normal(size=(k, n))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            reach = np.where(inside, rng.uniform(0.0, 0.9, k), rng.uniform(1.1, 5.0, k))
            aims = cset.center + cset.radius * reach[:, None] * direction
        else:
            searched = UnitSimplex(n)
            cset = searched if where == "simplex" else UnitSimplex(n, mode="renormalize")
            interior = rng.dirichlet(np.ones(n), size=k)
            outside = interior + rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0, (k, 1))
            aims = np.where(inside[:, None], interior, outside)
        if kind == "functional":
            # one basis per row, centred on its aim: theta picks it out
            family = FunctionalTimeSeries(rng.uniform(0.5, 2.0, size=(k, n)), aims)
            thetas = np.eye(k)
        else:
            a = rng.normal(size=(k, n, n))
            sigma = a @ a.transpose(0, 2, 1) / n + 0.5 * np.eye(n)
            sigma = (sigma + sigma.transpose(0, 2, 1)) / 2.0
            lam = rng.uniform(0.5, 5.0, size=k)
            # mu puts each row's stationary point, solving 2 Sigma x = lam mu, at its aim
            mu = 2.0 * (sigma @ aims[:, :, None])[:, :, 0] / lam[:, None]
            if kind == "table":
                family, thetas = MarkowitzTable(mu, sigma), np.column_stack([np.arange(k), lam])
            else:
                family = Markowitz(n)
                thetas = np.stack([family.pack(*blocks) for blocks in zip(mu, sigma, lam)])
        xu = family.unconstrained_minimizer_rows(thetas)
        taken = np.linalg.norm(searched.project_rows(xu) - xu, axis=1) <= 1e-12
        np.testing.assert_array_equal(taken, inside)
        got = minimizers_batch(family, cset, thetas)
        assert got.tobytes() == reference_minimizers(family, searched, thetas).tobytes()


def _tracking_weights(data, n):
    """n weights whose largest ratio is at most 1e3, drawn on a log scale."""
    scale = data.draw(st.floats(0.01, 100.0))
    exponents = data.draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))
    return scale * 10.0 ** np.array(exponents)


def _fixed_point_residual(family, cset, target, x):
    """||P(x - grad f(x)/L) - x||, zero exactly at the constrained minimizer."""
    grad = 2.0 * family.weights * (x - target)
    return np.linalg.norm(cset.project(x - grad / (2.0 * family.weights.max())) - x)


unit_floats = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


class TestClosedFormMinimizers:
    """``QuadraticTracking`` minimizers from the optimality conditions against
    bisection on the ball's secular equation and projected descent on the
    simplex."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4),
           where=st.sampled_from(["inside", "boundary", "outside"]))
    def test_ball_matches_bisection(self, data, n, where):
        family = QuadraticTracking(_tracking_weights(data, n))
        center = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
        radius = data.draw(st.floats(0.1, 10.0))
        direction = np.array(data.draw(st.lists(unit_floats, min_size=n, max_size=n)))
        length = np.linalg.norm(direction)
        if length < 1e-3:
            direction, length = np.ones(n), math.sqrt(n)
        reach = {"inside": data.draw(st.floats(0.0, 0.999)), "boundary": 1.0,
                 "outside": 1.0 + 10.0 ** data.draw(st.floats(-6.0, 4.0))}[where]
        target = center + radius * reach * direction / length
        cset = EuclideanBall(center, radius)
        x = minimizers_batch(family, cset, np.append(target, 0.0)[None])[0]
        ref = secular_ball_minimizer(family.weights, target, center, radius)
        assert np.linalg.norm(x - ref) <= 1e-9
        if where == "inside":
            np.testing.assert_array_equal(x, target)
        size = 1.0 + np.abs(target).max() + np.abs(center).max() + radius
        assert _fixed_point_residual(family, cset, target, x) <= 1e-14 * size

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5),
           where=st.sampled_from(["anywhere", "inside", "boundary", "tied"]))
    def test_simplex_matches_projected_descent(self, data, n, where):
        weights = _tracking_weights(data, n)
        target = 3.0 * np.array(data.draw(st.lists(unit_floats, min_size=n, max_size=n)))
        if where in ("inside", "boundary"):
            mass = np.abs(target) + (1e-3 if where == "inside" else 0.0)
            if where == "boundary":
                mass[data.draw(st.integers(0, n - 1))] = 0.0
            target = mass / mass.sum() if mass.sum() > 0 else np.full(n, 1.0 / n)
        elif where == "tied" and n > 1:
            # two coordinates with one weight and one target share a breakpoint
            weights[1], target[1] = weights[0], target[0]
        family, cset = QuadraticTracking(weights), UnitSimplex(n)
        theta = np.append(target, 0.0)
        x = minimizers_batch(family, cset, theta[None])[0]
        # descent stopped at a step below tol lies within tol/(1 - C) of the
        # minimizer; C is up to 1 - 5e-4 at a weight ratio of 1e3
        ref = scalar_tracking_minimizer(family, cset, theta, tol=1e-13)
        assert np.linalg.norm(x - ref) <= 1e-9
        assert _fixed_point_residual(family, cset, target, x) <= 1e-14 * (1.0 + np.abs(target).max())


class TestTrackingOracleReference:
    """``QuadraticTracking`` minimizers, one call of the set's weighted
    kernel, against the oracle's own closed forms that it replaced
    (``helpers``), bit for bit on every row that lands in the set."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5), k=st.integers(1, 6),
           where=st.sampled_from(["ball", "simplex", "renormalize"]))
    def test_equals_the_closed_forms_it_replaced(self, data, n, k, where):
        weights = _tracking_weights(data, n)
        targets = data.draw(st.lists(
            st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 0.5])),
                     min_size=n, max_size=n), min_size=k, max_size=k))
        targets = np.array(targets)
        if where == "ball":
            cset = searched = EuclideanBall(np.zeros(n), data.draw(st.floats(0.1, 1e4)))
        else:
            searched = UnitSimplex(n)
            cset = searched if where == "simplex" else UnitSimplex(n, mode="renormalize")
        want = reference_tracking_minimizers(weights, searched, targets)
        lands = (where == "ball") | (np.abs(want.sum(axis=1) - 1.0) <= 1e-12 * n)
        thetas = np.column_stack([targets, np.ones(k)])
        got = minimizers_batch(QuadraticTracking(weights), cset, thetas)
        assert got[lands].tobytes() == want[lands].tobytes()

    def test_exact_simplex_minimizer_of_a_target_of_2_to_the_53(self):
        # the breakpoint 2e18 absorbs the 1 of the knapsack's first prefix
        got = minimizers_batch(QuadraticTracking((100.0, 1.0)), UnitSimplex(2), [[1e16, 0, 0]])
        assert got.tolist() == [[1.0, 0.0]]


class TestAccounting:
    def test_zero_regret_at_optimum(self):
        losses = np.array([1.0, 2.0, 3.0])
        assert dynamic_regret(losses, losses) == 0.0

    def test_single_step_example(self):
        family, _ = tracking_setup()
        loss = family.value([1.0, 0.0], [0.0, 0.0, 0.0])
        opt = family.value([0.0, 0.0], [0.0, 0.0, 0.0])
        assert dynamic_regret([loss], [opt]) == 100.0

    def test_matches_reaccumulation(self):
        rng = np.random.default_rng(18)
        a = rng.normal(size=5) ** 2 + 1.0
        b = a - rng.uniform(0.0, 1.0, size=5)
        assert dynamic_regret(a, b) == pytest.approx(sum(x - y for x, y in zip(a, b)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dynamic_regret([1.0], [1.0, 2.0])

    def test_path_length_examples(self):
        assert path_length(np.zeros((4, 2))) == 0.0
        assert path_length(np.array([[0.0, 0.0], [3.0, 4.0]])) == 5.0
        hop = np.array([[0.0, 0.0], [3.0, 4.0]])
        alternating = np.tile(hop, (5, 1))  # 10 points, 9 hops of length 5
        assert path_length(alternating) == pytest.approx(45.0)

    def test_path_length_single_point(self):
        assert path_length(np.array([[1.0, 2.0]])) == 0.0


class TestPredictiveRegretBound:
    CONSTANTS = ObjectiveConstants(G=36000.6, L=200.0, lam=2.0, C_theta=200.0, D=1.0)

    def test_vanishing_terms(self):
        c = contraction_factor(self.CONSTANTS, 1.0 / 200.0)
        val = predictive_regret_bound(self.CONSTANTS, 1.0 / 200.0, 0.0, 1.0, 0.0)
        assert val == pytest.approx(self.CONSTANTS.G * c / (1.0 - c))

    def test_large_k_drains_path_term(self):
        val = predictive_regret_bound(
            self.CONSTANTS, 1.0 / 200.0, 0.0, 1.0, 0.0, k=5000
        )
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_independent_recomputation(self):
        # second code path: assemble the same three terms from scratch
        eta, k = 1.0 / 200.0, 2
        x1_gap, p_star, p_theta = 64.02, 4905.4, 6730.2
        g, c_theta, lam = 36000.6, 200.0, 2.0
        c = math.sqrt(1.0 - 2.0 * lam * eta / (1.0 + eta * lam))
        by_hand = (
            g * x1_gap / (1 - c**k)
            + g * (c**k) * p_star / (1 - c**k)
            + g * eta * c_theta * p_theta / (1 - c)
        )
        val = predictive_regret_bound(self.CONSTANTS, eta, x1_gap, p_star, p_theta, k=k)
        assert val == pytest.approx(by_hand, rel=1e-12)

    def test_k_one_recovers_single_step_display(self):
        eta = 1.0 / 200.0
        c = contraction_factor(self.CONSTANTS, eta)
        g = self.CONSTANTS.G
        expected = (
            g * 2.0 / (1 - c) + g * c * 3.0 / (1 - c) + g * eta * 200.0 * 4.0 / (1 - c)
        )
        assert predictive_regret_bound(self.CONSTANTS, eta, 2.0, 3.0, 4.0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_step_size_guard(self):
        with pytest.raises(ValueError, match="eta <= 1/L"):
            predictive_regret_bound(self.CONSTANTS, 1.0, 0.0, 0.0, 0.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            predictive_regret_bound(self.CONSTANTS, 1.0 / 200.0, -1.0, 0.0, 0.0)


class TestExpertRegretBound:
    CONSTANTS = ObjectiveConstants(G=10.0, L=20.0, lam=1.0, C_theta=5.0, D=3.0)

    def test_single_expert_penalty(self):
        eta = 1.0 / 20.0
        base = predictive_regret_bound(self.CONSTANTS, eta, 1.0, 1.0, 1.0)
        val = expert_regret_bound(self.CONSTANTS, eta, 1.0, 1.0, 1.0, 3.0, 50, 1)
        assert val == pytest.approx(base + 3.0 * math.sqrt(100.0) / 4.0, rel=1e-12)

    def test_zero_range_no_penalty(self):
        eta = 1.0 / 20.0
        base = predictive_regret_bound(self.CONSTANTS, eta, 1.0, 1.0, 1.0)
        assert expert_regret_bound(
            self.CONSTANTS, eta, 1.0, 1.0, 1.0, 0.0, 50, 4
        ) == base

    def test_formula_recomputation(self):
        eta, d, t, n = 1.0 / 20.0, 2.5, 120, 7
        base = predictive_regret_bound(self.CONSTANTS, eta, 0.5, 2.0, 3.0)
        expected = base + d * math.sqrt(2 * t) / 4.0 * (1 + math.log(n))
        assert expert_regret_bound(
            self.CONSTANTS, eta, 0.5, 2.0, 3.0, d, t, n
        ) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("d,t,n", [(3.0, 50, 1), (2.5, 120, 7), (1e-3, 1, 2), (40.0, 200, 5)])
    def test_tuned_form_is_the_ledger_rule_at_the_tuned_rate(self, d, t, n):
        # the ledger charges hedge_gap_bound at the pool's gamma; the tuned
        # bound is that rule at the tuned gamma, where it takes the closed
        # form D*sqrt(2T)/4*(1 + ln N)
        eta = 1.0 / 20.0
        base = predictive_regret_bound(self.CONSTANTS, eta, 0.5, 2.0, 3.0, k=2)
        ledger_rule = base + hedge_gap_bound(suggested_gamma(d, t), d, t, n)
        closed_form = base + d * math.sqrt(2 * t) / 4.0 * (1 + math.log(n))
        val = expert_regret_bound(self.CONSTANTS, eta, 0.5, 2.0, 3.0, d, t, n, k=2)
        assert val == ledger_rule
        assert val == pytest.approx(closed_form, rel=1e-12)


class TestLedger:
    def test_offset_cancels_in_regret(self):
        family, cset = tracking_setup()
        proc = SwitchingProcessSpec(horizon=60)
        thetas = gen_switching(proc, 19)
        shifted = thetas.copy()
        shifted[:, 2] += 123.456
        cfg = DescentConfig(1.0 / 200.0, 1)
        a = run_predictive_ogd(family, cset, thetas, cfg, (0.0, 40.0))
        b = run_predictive_ogd(family, cset, shifted, cfg, (0.0, 40.0))
        la = build_ledger(family, cset, a)
        lb = build_ledger(family, cset, b)
        assert la.reg_d == pytest.approx(lb.reg_d, abs=1e-9 * max(1.0, abs(la.reg_d)))

    def test_bound_holds_on_predictive_run(self):
        family, cset = tracking_setup()
        thetas = gen_switching(SwitchingProcessSpec(horizon=120), 20)
        traj = run_predictive_ogd(
            family, cset, thetas, DescentConfig(1.0 / 200.0, 1),
            (0.0, 40.0), predictor=VarPredictor(order=4, min_history=10, indices=(0, 1)),
        )
        ledger = build_ledger(family, cset, traj)
        assert ledger.bound_holds
        assert ledger.reg_d <= ledger.bound
        assert ledger.p_theta > 0
        assert ledger.contraction == pytest.approx(0.990049, abs=1e-6)

    def test_zero_prediction_error_zeroes_third_term(self):
        constants = ObjectiveConstants(G=2.0, L=4.0, lam=1.0, C_theta=3.0, D=1.0)
        eta = 0.25
        c = contraction_factor(constants, eta)
        with_term = predictive_regret_bound(constants, eta, 1.0, 1.0, 1.0)
        without = predictive_regret_bound(constants, eta, 1.0, 1.0, 0.0)
        assert with_term - without == pytest.approx(2.0 * eta * 3.0 / (1 - c))
        assert predictive_regret_bound(constants, eta, 0.0, 0.0, 0.0) == 0.0

    def test_heuristic_projection_skips_bound(self):
        family = Markowitz(3)
        cset = UnitSimplex(3, mode="renormalize")
        rng = np.random.default_rng(21)
        thetas = []
        for _ in range(8):
            a = rng.normal(size=(3, 3))
            thetas.append(family.pack(rng.normal(size=3), a @ a.T + 0.1 * np.eye(3), 1.0))
        thetas = np.stack(thetas)
        traj = run_predictive_ogd(
            family, cset, thetas, DescentConfig(0.05, 1),
            np.full(3, 1.0 / 3.0),
        )
        ledger = build_ledger(family, cset, traj)
        assert ledger.bound is None
        assert "nonexpansive" in ledger.bound_skipped_reason
        assert ledger.reg_d >= -1e-9

    @pytest.mark.parametrize("excess", [0.0, 1e-13, 1e-11, 1.0])
    def test_step_above_one_over_l_skips_bound(self, excess):
        # one tolerance decides it for the ledger and for contraction_factor
        family, cset = tracking_setup()
        eta = 1.0 / 200.0 * (1.0 + excess)
        traj = run_predictive_ogd(
            family, cset, gen_switching(SwitchingProcessSpec(horizon=30), 4),
            DescentConfig(eta, 1), (0.0, 40.0),
        )
        ledger = build_ledger(family, cset, traj)
        contracts = step_contracts(ledger.constants.L, eta)
        assert contracts == (excess < 1e-12)
        if contracts:
            assert ledger.bound_skipped_reason is None and ledger.bound_holds
            assert ledger.contraction == contraction_factor(ledger.constants, eta)
        else:
            assert ledger.bound is None and ledger.bound_holds is None
            assert ledger.bound_skipped_reason == (
                f"eta={eta} exceeds 1/L=0.005; the contraction argument behind "
                "the bound needs eta <= 1/L"
            )
            with pytest.raises(ValueError, match="contraction step-size condition"):
                contraction_factor(ledger.constants, eta)

    def test_realized_box_covers_observations_and_aims(self):
        thetas = np.array([[0.0, 1.0], [2.0, -1.0]])
        hats = np.array([[5.0, 0.0], [-3.0, 0.5]])
        lo, hi = realized_theta_box(thetas, hats)
        np.testing.assert_array_equal(lo, [-3.0, -1.0])
        np.testing.assert_array_equal(hi, [5.0, 1.0])

    def test_summary_lines_mention_bound(self):
        family, cset = tracking_setup()
        thetas = gen_switching(SwitchingProcessSpec(horizon=30), 22)
        traj = run_predictive_ogd(
            family, cset, thetas, DescentConfig(1.0 / 200.0, 1), (0.0, 40.0)
        )
        ledger = build_ledger(family, cset, traj)
        text = "\n".join(ledger.summary_lines())
        assert "Reg_D" in text and "regret bound" in text and "PASS" in text


class TestPoolLedger:
    def pool_run(self, thetas, roster=(), predictors=()):
        family, cset = tracking_setup()
        pool = ExpertPool(beta=0.2, gamma=5e-7, eta=1.0 / 200.0)
        roster = [(1, predictor) for predictor in predictors] + list(roster)
        return family, cset, run_smad(family, cset, thetas, pool, (0.0, 40.0), roster=roster)

    def test_box_covers_the_expert_aims(self):
        thetas = gen_switching(SwitchingProcessSpec(horizon=60), 23)
        noisy = NoisyOracle(thetas, noise_std=40.0, rng=np.random.default_rng(5))
        family, cset, traj = self.pool_run(thetas, predictors=[Persistence(), noisy])
        ledger = build_ledger(family, cset, traj)
        box = realized_theta_box(thetas, traj.aim_lo[None], traj.aim_hi[None])
        assert ledger.constants == family.derive_constants(cset, box)
        assert ledger.constants.D > family.derive_constants(cset, realized_theta_box(thetas)).D
        assert ledger.p_theta == np.nanmin(traj.p_theta_by_expert)
        # a day-one pool is checked against the fixed-pool bound
        assert ledger.bound_skipped_reason is None
        assert ledger.bound_holds and ledger.hedge_holds

    def test_day_one_pool_gets_both_verdicts(self):
        thetas = gen_switching(SwitchingProcessSpec(horizon=50), 26)
        noisy = NoisyOracle(thetas, noise_std=4.0, rng=np.random.default_rng(6))
        family, cset, traj = self.pool_run(
            thetas, predictors=[Persistence(), NoisyOracle(thetas, 0.0), noisy]
        )
        ledger = build_ledger(family, cset, traj)
        assert ledger.bound_holds is True and ledger.hedge_holds is True
        assert ledger.hedge_gap == traj.hedge_gap()
        spread = (traj.expert_losses.max(1) - traj.expert_losses.min(1)).max()
        assert ledger.hedge_bound == hedge_gap_bound(traj.gamma, spread, 50, 3)
        starts = np.linalg.norm(traj.expert_xs[0] - ledger.minimizers[0], axis=1).max()
        assert ledger.bound == pytest.approx(
            predictive_regret_bound(
                ledger.constants, traj.eta, starts, ledger.p_star, ledger.p_theta
            )
            + ledger.hedge_bound,
            rel=1e-12,
        )
        text = "\n".join(ledger.summary_lines())
        assert "regret bound" in text and "aggregation gap" in text and "FAIL" not in text

        # the aggregate paying a constant more every round breaks both
        worse = build_ledger(
            family, cset, dataclasses.replace(traj, losses=traj.losses + ledger.bound)
        )
        assert worse.bound_holds is False and worse.hedge_holds is False
        assert "\n".join(worse.summary_lines()).count("[FAIL]") == 2

    def test_pool_with_an_expert_due_after_the_horizon_counts_the_joined(self):
        thetas = gen_switching(SwitchingProcessSpec(horizon=30), 27)
        family, cset, traj = self.pool_run(
            thetas, roster=[(100, Persistence())],
            predictors=[Persistence(), NoisyOracle(thetas, 0.0)],
        )
        assert traj.activation_times == (1, 1)
        ledger = build_ledger(family, cset, traj)
        best = traj.expert_losses[:, :2].sum(axis=0).min()
        assert ledger.hedge_gap == pytest.approx(traj.losses.sum() - best, rel=1e-12)
        assert ledger.bound_holds and ledger.hedge_holds

    def test_pool_that_never_activates_uses_the_observations(self):
        thetas = gen_switching(SwitchingProcessSpec(horizon=40), 24)
        family, cset, traj = self.pool_run(thetas, roster=[(100, Persistence())])
        assert traj.aim_lo is None and math.isnan(traj.p_theta)
        ledger = build_ledger(family, cset, traj)
        assert ledger.constants == family.derive_constants(cset, realized_theta_box(thetas))
        assert ledger.bound_skipped_reason.startswith("no expert joined the pool")

    def test_empty_roster_gets_a_ledger(self):
        thetas = gen_switching(SwitchingProcessSpec(horizon=20), 28)
        family, cset, traj = self.pool_run(thetas)
        assert traj.activation_times == () and math.isnan(traj.p_theta)
        ledger = build_ledger(family, cset, traj)
        assert math.isnan(ledger.p_theta) and ledger.bound is None
        assert ledger.bound_skipped_reason.startswith("no expert joined the pool")

    def test_descent_record_exposes_its_aims(self):
        family, cset = tracking_setup()
        thetas = gen_switching(SwitchingProcessSpec(horizon=40), 25)
        traj = run_predictive_ogd(
            family, cset, thetas, DescentConfig(1.0 / 200.0, 1), (0.0, 40.0)
        )
        np.testing.assert_array_equal(traj.aim_lo, traj.theta_hats.min(axis=0))
        np.testing.assert_array_equal(traj.aim_hi, traj.theta_hats.max(axis=0))
        assert build_ledger(family, cset, traj).p_theta == traj.p_theta
