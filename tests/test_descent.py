import numpy as np
import pytest

from poco.descent import DescentConfig, Trajectory, ogd_step, run_predictive_ogd
from poco.domains import EuclideanBall, UnitSimplex
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

    @pytest.mark.parametrize("width", [5, 2], ids=["wider", "narrower"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_parameters_of_the_wrong_width_rejected(self, width, stacked):
        # m = 3 for a 2-d tracking family; neither width may run
        family, cset = tracking_setup()
        thetas = np.zeros((2, 20, width) if stacked else (20, width))
        with pytest.raises(ValueError, match=r"family\.m = 3"):
            run_predictive_ogd(family, cset, thetas, DescentConfig(ETA, 1), (0.0, 40.0))

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


class TestLockstep:
    """A stack of R sequences advances as rows; run r equals its single run."""

    @staticmethod
    def _problem(domain, n_runs):
        if domain == "ball":
            family, cset = tracking_setup()
            proc = SwitchingProcessSpec(horizon=60)
            thetas = np.stack([gen_switching(proc, 40 + r) for r in range(n_runs)])
            return family, cset, thetas, (0.0, 40.0), VarPredictor(order=2, indices=(0, 1))
        # a tracking target that wanders around the exact simplex, where
        # most steps leave it and get projected back
        family = QuadraticTracking((3.0, 1.0, 0.5))
        rng = np.random.default_rng(n_runs)
        targets = 0.3 + rng.normal(scale=0.2, size=(n_runs, 60, 3)).cumsum(axis=1)
        thetas = np.concatenate([targets, rng.normal(size=(n_runs, 60, 1))], axis=2)
        return family, UnitSimplex(3), thetas, np.full(3, 1.0 / 3.0), None

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("domain", ["ball", "simplex"])
    @pytest.mark.parametrize("n_runs", [1, 2, 5, 7])
    def test_stack_equals_single_runs_bit_for_bit(self, n_runs, domain, k):
        family, cset, thetas, x1, predictor = self._problem(domain, n_runs)
        config = DescentConfig(0.05 if domain == "simplex" else ETA, k)
        runs = run_predictive_ogd(family, cset, thetas, config, x1, predictor=predictor)
        assert isinstance(runs, list) and len(runs) == n_runs
        for r, run in enumerate(runs):
            alone = run_predictive_ogd(family, cset, thetas[r], config, x1, predictor=predictor)
            assert isinstance(alone, Trajectory)
            for field in ("xs", "losses", "theta_hats", "thetas"):
                assert getattr(run, field).tobytes() == getattr(alone, field).tobytes()

    @pytest.mark.parametrize("indices", [(0,), (0, 1), None])
    def test_var_stack_equals_single_runs_bit_for_bit(self, indices):
        # one aim table over the stack: its AR forecasts of d = 1, 2 and 3
        # coordinates equal each run's own, so the runs do too
        family, cset, thetas, x1, _ = self._problem("ball", 4)
        predictor = VarPredictor(order=3, indices=indices)
        config = DescentConfig(ETA, 1)
        runs = run_predictive_ogd(family, cset, thetas, config, x1, predictor=predictor)
        for r, run in enumerate(runs):
            alone = run_predictive_ogd(family, cset, thetas[r], config, x1, predictor=predictor)
            for field in ("xs", "losses", "theta_hats"):
                assert getattr(run, field).tobytes() == getattr(alone, field).tobytes()

    def test_non_finite_gradient_names_the_repetition(self):
        family, cset = tracking_setup()
        thetas = np.stack([gen_switching(SwitchingProcessSpec(horizon=5), r) for r in range(3)])
        thetas[1, 0, 0] = 1e308  # repetition 1 aims there from its first step
        named = r"non-finite gradient for repetition 1 at x=array\(\[ 0\., 40\.\]\)"
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match=named):
            run_predictive_ogd(family, cset, thetas, DescentConfig(ETA, 1), (0.0, 40.0))

    def test_overflowing_step_names_the_repetition(self):
        # a finite gradient -2e307 whose step eta * g overflows at eta = 10
        family, cset = tracking_setup()
        thetas = np.stack([gen_switching(SwitchingProcessSpec(horizon=5), r) for r in range(3)])
        thetas[1, 0, 1] = 1e307
        named = r"the step of repetition 1 from x=array\(\[ 0\., 40\.\]\) overflowed"
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match=named):
            run_predictive_ogd(family, cset, thetas, DescentConfig(10.0, 1), (0.0, 40.0))
