import numpy as np
import pytest

from poco.descent import DescentConfig, Trajectory, ogd_step, run_predictive_ogd
from poco.domains import EuclideanBall
from poco.objectives import ObjectiveConstants, QuadraticTracking, contraction_factor
from poco.predictors import NoisyOracle, VarPredictor
from poco.regret import dynamic_regret, minimizer_oracle, minimizers_batch
from poco.scenarios import SwitchingProcessSpec, gen_switching, switching_base

ETA = 1.0 / 200.0


def tracking_setup():
    family = QuadraticTracking((100.0, 1.0))
    cset = EuclideanBall(center=np.zeros(2), radius=50.0)
    return family, cset


class TestOgdStep:
    def test_exact_step_lands_on_minimizer(self):
        # scalar square with unit weight: eta = 1/L = 1/2 jumps straight to
        # the target in one step
        family = QuadraticTracking((1.0,))
        huge = EuclideanBall(center=np.zeros(1), radius=1e12)
        z = ogd_step(family, huge, [0.0], [1.0, 0.0], eta=0.5)
        assert z[0] == pytest.approx(1.0)

    def test_extra_inner_steps_hold_fixed_point(self):
        family = QuadraticTracking((1.0,))
        huge = EuclideanBall(center=np.zeros(1), radius=1e12)
        z = ogd_step(family, huge, [0.0], [1.0, 0.0], eta=0.5, inner_steps=2)
        assert z[0] == pytest.approx(1.0)

    def test_hand_arithmetic_with_projection(self):
        family, cset = tracking_setup()
        theta = np.array([-100.0, 0.0, 30.0])
        z = ogd_step(family, cset, [0.0, 40.0], theta, eta=ETA)
        raw = np.array([0.0, 40.0]) - ETA * np.array([20000.0, 80.0])
        np.testing.assert_allclose(raw, [-100.0, 39.6])
        expected = 50.0 * raw / np.linalg.norm(raw)
        np.testing.assert_allclose(z, expected, rtol=1e-12)

    def test_nonfinite_gradient_raises(self):
        family, cset = tracking_setup()
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            ogd_step(family, cset, [0.0, 0.0], [1e308, 0.0, 0.0], eta=ETA)


class TestDescentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DescentConfig(eta=0.0)
        with pytest.raises(ValueError):
            DescentConfig(eta=0.1, inner_steps=0)


class TestContractionProperty:
    def test_single_step_contraction_thousand_instances(self):
        # random strongly convex quadratics over random balls, random
        # feasible starting points, boundary and interior minimizers mixed
        rng = np.random.default_rng(42)
        for _ in range(1000):
            weights = rng.uniform(0.5, 10.0, size=2)
            family = QuadraticTracking(weights)
            cset = EuclideanBall(center=rng.normal(scale=2.0, size=2), radius=rng.uniform(1.0, 10.0))
            theta = np.concatenate([rng.normal(scale=8.0, size=2), [0.0]])
            lam, big_l = family.curvature()
            eta = rng.uniform(0.2, 1.0) / big_l
            constants = ObjectiveConstants(G=1.0, L=big_l, lam=lam, C_theta=1.0, D=1.0)
            c = contraction_factor(constants, eta)
            xstar = minimizer_oracle(family, cset, theta)
            v = cset.project(rng.normal(scale=6.0, size=2))
            moved = ogd_step(family, cset, v, theta, eta)
            lhs = np.linalg.norm(moved - xstar)
            assert lhs <= c * np.linalg.norm(v - xstar) + 1e-9

    def test_k_step_contraction_compounds(self):
        rng = np.random.default_rng(43)
        family, cset = tracking_setup()
        lam, big_l = family.curvature()
        eta = 1.0 / big_l
        constants = ObjectiveConstants(G=1.0, L=big_l, lam=lam, C_theta=1.0, D=1.0)
        c = contraction_factor(constants, eta)
        for k in (2, 3):
            for _ in range(200):
                theta = np.concatenate([rng.normal(scale=80.0, size=2), [0.0]])
                xstar = minimizer_oracle(family, cset, theta)
                v = cset.project(rng.normal(scale=30.0, size=2))
                moved = ogd_step(family, cset, v, theta, eta, inner_steps=k)
                lhs = np.linalg.norm(moved - xstar)
                assert lhs <= (c**k) * np.linalg.norm(v - xstar) + 1e-9


class TestRunLoop:
    def test_feasibility_along_trajectory(self):
        family, cset = tracking_setup()
        proc = SwitchingProcessSpec(horizon=80)
        thetas = gen_switching(proc, 1)
        traj = run_predictive_ogd(
            family, cset, thetas, DescentConfig(ETA, 1), (0.0, 40.0)
        )
        for x in traj.xs:
            assert cset.contains(x, tol=1e-9)

    def test_infeasible_start_rejected(self):
        family, cset = tracking_setup()
        thetas = np.zeros((3, 3))
        with pytest.raises(ValueError, match="constraint set"):
            run_predictive_ogd(
                family, cset, thetas, DescentConfig(ETA, 1), (60.0, 0.0)
            )

    def test_bitwise_determinism(self):
        family, cset = tracking_setup()
        proc = SwitchingProcessSpec(horizon=60)

        def once():
            thetas = gen_switching(proc, 7)
            pred = VarPredictor(order=2, indices=(0, 1))
            return run_predictive_ogd(
                family, cset, thetas, DescentConfig(ETA, 1), (0.0, 40.0),
                predictor=pred,
            )

        a, b = once(), once()
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.losses, b.losses)
        assert np.array_equal(a.theta_hats, b.theta_hats)

    def test_perfect_oracle_on_constant_scenario_zero_regret(self):
        family, cset = tracking_setup()
        thetas = np.tile(np.array([10.0, 5.0, 2.0]), (3, 1))
        x1 = np.array([10.0, 5.0])  # the minimizer, feasible
        traj = run_predictive_ogd(
            family, cset, thetas, DescentConfig(ETA, 1), x1,
            predictor=NoisyOracle(thetas, 0.0),
        )
        np.testing.assert_allclose(traj.losses, 2.0, atol=1e-12)
        xstars = minimizers_batch(family, cset, thetas)
        opt = family.value_rows(xstars, thetas)
        assert dynamic_regret(traj.losses, opt) == pytest.approx(0.0, abs=1e-9)

    def test_warmup_matches_standard_then_switches(self):
        family, cset = tracking_setup()
        proc = SwitchingProcessSpec(horizon=40)
        thetas = gen_switching(proc, 3)
        std = run_predictive_ogd(
            family, cset, thetas, DescentConfig(ETA, 1), (0.0, 40.0)
        )
        pred = run_predictive_ogd(
            family, cset, thetas, DescentConfig(ETA, 1), (0.0, 40.0),
            predictor=VarPredictor(order=4, min_history=10, indices=(0, 1)),
        )
        np.testing.assert_array_equal(pred.xs[:10], std.xs[:10])
        assert not np.array_equal(pred.xs[10], std.xs[10])
        # while warming up the recorded aim is the last observation
        np.testing.assert_array_equal(pred.theta_hats[5], thetas[4])

    def test_standard_mode_aims_at_current_observation(self):
        family, cset = tracking_setup()
        proc = SwitchingProcessSpec(horizon=20)
        thetas = gen_switching(proc, 9)
        std = run_predictive_ogd(
            family, cset, thetas, DescentConfig(ETA, 1), (0.0, 40.0)
        )
        np.testing.assert_array_equal(std.theta_hats[1:], thetas[:-1])

    def test_perfect_oracle_beats_standard_on_switching(self):
        family, cset = tracking_setup()
        proc = SwitchingProcessSpec(horizon=200)
        thetas = gen_switching(proc, 11)
        std = run_predictive_ogd(
            family, cset, thetas, DescentConfig(ETA, 1), (0.0, 40.0)
        )
        pred = run_predictive_ogd(
            family, cset, thetas, DescentConfig(ETA, 1), (0.0, 40.0),
            predictor=NoisyOracle(thetas, 0.0),
        )
        assert pred.losses.sum() <= std.losses.sum()

    def test_standard_regret_steps_at_switch_rounds(self):
        # plain descent pays for every jump: per-round regret at switch
        # rounds dwarfs the within-segment regret
        family, cset = tracking_setup()
        proc = SwitchingProcessSpec(horizon=120)
        thetas = gen_switching(proc, 5)
        traj = run_predictive_ogd(
            family, cset, thetas, DescentConfig(ETA, 1), (0.0, 40.0)
        )
        xstars = minimizers_batch(family, cset, thetas)
        per_step = traj.losses - family.value_rows(xstars, thetas)
        switch = np.array([
            t for t in range(2, proc.horizon + 1)
            if not np.array_equal(switching_base(proc, t), switching_base(proc, t - 1))
        ])
        on = per_step[switch - 1].mean()
        off = np.delete(per_step, switch - 1)[10:].mean()
        assert on > off

    def test_k_inner_steps_recorded(self):
        family, cset = tracking_setup()
        thetas = gen_switching(SwitchingProcessSpec(horizon=12), 2)
        traj = run_predictive_ogd(
            family, cset, thetas, DescentConfig(ETA, 3), (0.0, 40.0)
        )
        assert traj.inner_steps == 3
        assert isinstance(traj, Trajectory)
