import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poco.descent import DescentConfig, run_predictive_ogd
from poco.domains import EuclideanBall, UnitSimplex
from poco.objectives import Markowitz, MarkowitzTable, QuadraticTracking
from poco.predictors import RUN_BLOCK, NoisyOracle, Persistence, VarPredictor, aim_table
from poco.regret import hedge_gap_bound, suggested_gamma
from poco.scenarios import SwitchingProcessSpec, gen_switching
from poco.smad import ExpertPool, run_smad

from helpers import reference_smad, scalar_ogd_step, scalar_project, scalar_value

ETA = 1.0 / 200.0


def tracking_setup():
    family = QuadraticTracking((100.0, 1.0))
    cset = EuclideanBall(center=np.zeros(2), radius=50.0)
    return family, cset


class FixedAim:
    """Test double: always aims at one fixed parameter."""

    def __init__(self, aim):
        self.aim = np.asarray(aim, dtype=float)

    def ready(self, n_obs):
        return True

    def predict(self, history):
        return self.aim.copy()


class LateAim(FixedAim):
    """Test double: a fixed aim that needs ``warmup`` observations first."""

    def __init__(self, aim, warmup):
        super().__init__(aim)
        self.warmup = warmup

    def ready(self, n_obs):
        return n_obs >= self.warmup


def step_after(pool, family, cset, theta_t, hist):
    """One pool round, aiming where the run's aim table would after ``hist``."""
    aims, aimed = aim_table(pool.predictors, hist)
    return pool.step(family, cset, theta_t, aims[-1], aimed[-1])


def reference_step(pool, family, cset, theta_t, hist):
    """The per-expert loop the batched step replaced, run on copies of the
    pool's state with the scalar formulas of ``helpers``: one descent step
    and one loss per expert, and the aggregate play's loss."""
    n_obs = hist.shape[0]
    moves = pool.xs.copy()
    for idx, predictor in enumerate(pool.predictors):
        if predictor.ready(n_obs):
            aim = predictor.predict(hist)
        elif n_obs >= 1:
            aim = hist[-1]
        else:
            continue
        moves[idx] = scalar_ogd_step(family, cset, pool.xs[idx], aim, pool.eta, pool.inner_steps)
    x_t = scalar_project(cset, pool.distribution() @ moves)
    losses = np.array([scalar_value(family, v, theta_t) for v in moves])
    log_w = pool.log_p - pool.gamma * losses
    top = log_w.max()
    log_p = log_w - (top + math.log(np.exp(log_w - top).sum()))
    return dict(
        x_t=x_t, moves=moves, losses=losses, log_p=log_p,
        play_loss=scalar_value(family, x_t, theta_t),
    )


def random_problem(kind, rng):
    """(family, cset, parameter sampler, starting point) for one setting."""
    if kind == "ball":
        n = int(rng.integers(2, 4))
        family = QuadraticTracking(rng.uniform(0.5, 5.0, size=n))
        cset = EuclideanBall(center=rng.normal(size=n), radius=rng.uniform(1.0, 5.0))
        return family, cset, lambda: rng.normal(scale=4.0, size=n + 1), cset.interior_point()
    n = int(rng.integers(2, 6))
    family = Markowitz(n)
    cset = UnitSimplex(n, mode=kind)

    def sample():
        a = rng.normal(size=(n, n))
        mu = rng.normal(scale=0.5, size=n)
        return family.pack(mu, a @ a.T + 0.1 * np.eye(n), rng.uniform(0.0, 3.0))

    return family, cset, sample, cset.interior_point()


class TestSuggestedGamma:
    def test_formula_points(self):
        assert suggested_gamma(1.0, 8) == pytest.approx(1.0)
        assert suggested_gamma(2.0, 2) == pytest.approx(1.0)
        assert suggested_gamma(10.0, 1000) == pytest.approx(0.008944, abs=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            suggested_gamma(0.0, 10)
        with pytest.raises(ValueError):
            suggested_gamma(1.0, 0)


class TestActivation:
    def test_single_then_mix(self):
        pool = ExpertPool(beta=0.2, gamma=1.0, eta=ETA)
        pool.activate([Persistence()], x_init=[0.0, 0.0], t=1)
        np.testing.assert_allclose(pool.distribution(), [1.0])
        pool.activate([Persistence()], x_init=[0.0, 0.0], t=2)
        np.testing.assert_allclose(pool.distribution(), [0.8, 0.2])

    def test_equal_pair_plus_entrant(self):
        pool = ExpertPool(beta=0.5, gamma=1.0, eta=ETA)
        pool.activate([Persistence(), Persistence()], x_init=[0.0, 0.0], t=1)
        np.testing.assert_allclose(pool.distribution(), [0.5, 0.5])
        pool.activate([Persistence()], x_init=[0.0, 0.0], t=5)
        np.testing.assert_allclose(pool.distribution(), [0.25, 0.25, 0.5])

    def test_non_finite_start_rejected(self):
        # an expert without an aim plays its start, which the step's
        # projection of the aggregate play no longer re-checks
        pool = ExpertPool(beta=0.2, gamma=1.0, eta=ETA)
        with pytest.raises(ValueError, match="x_init must be finite"):
            pool.activate([Persistence()], x_init=[np.nan, 0.0], t=1)
        assert pool.n_active == 0

    def test_empty_pool_entrants_start_uniform(self):
        pool = ExpertPool(beta=0.2, gamma=1.0, eta=ETA)
        pool.activate([Persistence()] * 4, x_init=[0.0, 0.0], t=1)
        np.testing.assert_allclose(pool.distribution(), np.full(4, 0.25))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ExpertPool(beta=1.0, gamma=1.0, eta=ETA)
        with pytest.raises(ValueError):
            ExpertPool(beta=0.2, gamma=0.0, eta=ETA)
        with pytest.raises(ValueError, match="inner_steps"):
            ExpertPool(beta=0.2, gamma=1.0, eta=ETA, inner_steps=0)


class TestGibbsUpdate:
    def test_hand_computed_posterior(self):
        # two experts, gamma=1, losses (0, 1): posterior is
        # (1, e^-1) / (1 + e^-1)
        family = QuadraticTracking((1.0, 1.0))
        cset = EuclideanBall(center=np.zeros(2), radius=100.0)
        pool = ExpertPool(beta=0.2, gamma=1.0, eta=0.5)
        # aims chosen so one expert lands on the target (loss 0) and the
        # other lands at squared distance 1 (loss 1, split across coords)
        good = FixedAim([3.0, 4.0, 0.0])
        off = FixedAim([3.0 + math.sqrt(0.5), 4.0 + math.sqrt(0.5), 0.0])
        pool.activate([good, off], x_init=[3.0, 4.0], t=1)
        theta_t = np.array([3.0, 4.0, 0.0])
        step_after(pool, family, cset, theta_t, np.zeros((1, 3)))
        z = 1.0 + math.exp(-1.0)
        np.testing.assert_allclose(pool.distribution(), [1.0 / z, math.exp(-1.0) / z], atol=1e-12)
        np.testing.assert_allclose(pool.distribution()[0], 0.7311, atol=1e-4)

    def test_identical_experts_stay_balanced(self):
        family, cset = tracking_setup()
        thetas = gen_switching(SwitchingProcessSpec(horizon=30), 0)
        pool = ExpertPool(beta=0.2, gamma=1e-5, eta=ETA)
        roster = [(1, Persistence()), (1, Persistence())]
        traj = run_smad(family, cset, thetas, pool, [0.0, 40.0], roster=roster)
        np.testing.assert_allclose(traj.p, 0.5, atol=1e-12)

    def test_single_expert_is_its_own_aggregate(self):
        family, cset = tracking_setup()
        thetas = gen_switching(SwitchingProcessSpec(horizon=25), 1)
        pool = ExpertPool(beta=0.2, gamma=1e-6, eta=ETA)
        traj = run_smad(family, cset, thetas, pool, [0.0, 40.0], roster=[(1, Persistence())])
        np.testing.assert_allclose(traj.xs, traj.expert_xs[:, 0, :], atol=1e-12)
        np.testing.assert_allclose(traj.p[:, 0], 1.0, atol=1e-15)

    def test_distribution_valid_every_round(self):
        family, cset = tracking_setup()
        thetas = gen_switching(SwitchingProcessSpec(horizon=60), 2)
        pool = ExpertPool(beta=0.2, gamma=1e-6, eta=ETA)
        experts = [
            Persistence(), NoisyOracle(thetas, 0.0), NoisyOracle(thetas, 3.0, rng=np.random.default_rng(5))
        ]
        traj = run_smad(family, cset, thetas, pool, [0.0, 40.0], roster=[(1, p) for p in experts])
        for row in traj.p:
            assert np.all(row >= 0)
            assert abs(row.sum() - 1.0) <= 1e-12

    def test_dominant_expert_weight_nondecreasing(self):
        # constant target: the exact aimer strictly beats the wrong aimer at
        # every round, so its posterior mass never decreases
        family, cset = tracking_setup()
        thetas = np.tile(np.array([30.0, 10.0, 0.0]), (50, 1))
        pool = ExpertPool(beta=0.2, gamma=1e-4, eta=ETA)
        roster = [(1, NoisyOracle(thetas, 0.0)), (1, FixedAim([-40.0, -40.0, 0.0]))]
        traj = run_smad(family, cset, thetas, pool, [0.0, 40.0], roster=roster)
        losses = traj.expert_losses
        assert np.all(losses[:, 0] < losses[:, 1])
        winner = traj.p[:, 0]
        assert np.all(np.diff(winner) >= -1e-12)

    def test_all_weights_vanish_raises(self):
        family, cset = tracking_setup()
        thetas = np.array([[0.0, 0.0, 0.0], [1e306, 0.0, 0.0]])
        pool = ExpertPool(beta=0.2, gamma=10.0, eta=ETA)
        roster = [(1, Persistence()), (1, Persistence())]
        with np.errstate(over="ignore"), pytest.raises(ArithmeticError, match="gamma"):
            run_smad(family, cset, thetas, pool, [0.0, 0.0], roster=roster)

    def test_nan_loss_names_the_parameter_not_gamma(self):
        # a run refuses a NaN revealed parameter at its entry, naming its row,
        # before any expert joins
        thetas = np.zeros((5, 3))
        thetas[2, 0] = np.nan
        pool = ExpertPool(beta=0.2, gamma=1e-3, eta=1 / 200)
        with pytest.raises(ValueError, match="thetas: parameter row 2 must be finite"):
            run_smad(
                QuadraticTracking(), EuclideanBall(np.zeros(2), 50.0), thetas, pool,
                [0.0, 40.0], roster=[(1, Persistence())],
            )
        assert pool.n_active == 0

    def test_nan_loss_of_a_direct_step_names_the_parameter_not_gamma(self):
        # a step outside a run checks nothing: a NaN in the revealed parameter
        # makes every loss NaN, which no gamma causes; a loss that overflows
        # to inf still names gamma (above)
        family, cset = tracking_setup()
        pool = ExpertPool(beta=0.2, gamma=1e-3, eta=ETA)
        pool.activate([Persistence()], x_init=[0.0, 40.0], t=1)
        with pytest.raises(FloatingPointError, match="revealed parameter is not finite"):
            step_after(pool, family, cset, np.array([np.nan, 0.0, 0.0]), np.zeros((1, 3)))

    def test_step_empty_pool_rejected(self):
        family, cset = tracking_setup()
        pool = ExpertPool(beta=0.2, gamma=1.0, eta=ETA)
        with pytest.raises(RuntimeError, match="empty"):
            step_after(pool, family, cset, np.zeros(3), np.zeros((0, 3)))


class TestRunSmad:
    def test_empty_pool_fallback_equals_standard_ogd(self):
        family, cset = tracking_setup()
        thetas = gen_switching(SwitchingProcessSpec(horizon=40), 4)
        std = run_predictive_ogd(
            family, cset, thetas, DescentConfig(ETA, 1), (0.0, 40.0)
        )
        pool = ExpertPool(beta=0.2, gamma=1e-6, eta=ETA)
        roster = [(15, Persistence())]
        traj = run_smad(family, cset, thetas, pool, (0.0, 40.0), roster=roster)
        np.testing.assert_array_equal(traj.xs[:14], std.xs[:14])
        assert traj.activation_times == (15,)

    def test_pool_already_holding_experts_is_rejected(self):
        family, cset = tracking_setup()
        thetas = gen_switching(SwitchingProcessSpec(horizon=10), 12)
        pool = ExpertPool(beta=0.2, gamma=1e-6, eta=ETA)
        pool.activate([Persistence()], x_init=[0.0, 40.0], t=1)
        with pytest.raises(ValueError, match="only from its roster"):
            run_smad(family, cset, thetas, pool, (0.0, 40.0), roster=[(1, Persistence())])

    @pytest.mark.parametrize("width", [5, 2], ids=["wider", "narrower"])
    def test_parameters_of_the_wrong_width_rejected(self, width):
        # m = 3 for a 2-d tracking family; neither width may run
        family, cset = tracking_setup()
        pool = ExpertPool(beta=0.2, gamma=1e-6, eta=ETA)
        with pytest.raises(ValueError, match=r"family\.m = 3"):
            run_smad(family, cset, np.zeros((20, width)), pool, (0.0, 40.0),
                     roster=[(1, Persistence())])

    def test_same_round_entrants_into_an_empty_pool_start_uniform(self):
        family, cset = tracking_setup()
        thetas = gen_switching(SwitchingProcessSpec(horizon=8), 11)
        pool = ExpertPool(beta=0.2, gamma=1e-6, eta=ETA)
        roster = [(3, Persistence()), (3, Persistence()), (5, Persistence())]
        traj = run_smad(family, cset, thetas, pool, (0.0, 40.0), roster=roster)
        assert traj.activation_times == (3, 3, 5)
        # identical experts keep their weights: the pair shares the mass,
        # the later entrant takes beta
        np.testing.assert_allclose(traj.p[2, :2], [0.5, 0.5], rtol=1e-9)
        np.testing.assert_allclose(traj.p[4], [0.4, 0.4, 0.2], rtol=1e-9)
        # an expert's first play is its move in its activation round
        np.testing.assert_array_equal(traj.first_plays, traj.expert_xs[[2, 2, 4], [0, 1, 2]])

    def test_entrant_starts_from_previous_output(self):
        family, cset = tracking_setup()
        thetas = gen_switching(SwitchingProcessSpec(horizon=20), 6)
        std = run_predictive_ogd(
            family, cset, thetas, DescentConfig(ETA, 1), (0.0, 40.0)
        )
        pool = ExpertPool(beta=0.2, gamma=1e-6, eta=ETA)
        traj = run_smad(family, cset, thetas, pool, (0.0, 40.0), roster=[(5, Persistence())])
        # the entrant inherits x_4 and immediately aims at theta_4; its move
        # equals one projected step from x_4, and it is the only expert
        from poco.descent import ogd_step

        expected = ogd_step(family, cset, std.xs[4 - 1], thetas[4 - 1], ETA)
        np.testing.assert_allclose(traj.xs[4], expected, atol=1e-12)

    def test_aggregate_stays_feasible(self):
        family, cset = tracking_setup()
        thetas = gen_switching(SwitchingProcessSpec(horizon=50), 8)
        pool = ExpertPool(beta=0.2, gamma=1e-6, eta=ETA)
        roster = [(1, Persistence()), (1, NoisyOracle(thetas, 0.0))]
        traj = run_smad(family, cset, thetas, pool, [0.0, 40.0], roster=roster)
        for x in traj.xs:
            assert cset.contains(x, tol=1e-9)

    def test_hedge_gap_matches_reaccumulation(self):
        family, cset = tracking_setup()
        thetas = gen_switching(SwitchingProcessSpec(horizon=30), 9)
        pool = ExpertPool(beta=0.2, gamma=1e-6, eta=ETA)
        roster = [(1, Persistence()), (1, NoisyOracle(thetas, 0.0))]
        traj = run_smad(family, cset, thetas, pool, [0.0, 40.0], roster=roster)
        best = min(traj.expert_losses[:, i].sum() for i in range(2))
        assert traj.hedge_gap() == pytest.approx(traj.losses.sum() - best, rel=1e-12)

    def test_hedge_inequality_on_random_fixed_pools(self):
        # aggregation guarantee with the realized per-round loss ranges
        family, cset = tracking_setup()
        for seed in range(10):
            thetas = gen_switching(SwitchingProcessSpec(horizon=40), seed)
            gamma = 10.0 ** np.random.default_rng(seed).uniform(-7, -5)
            pool = ExpertPool(beta=0.2, gamma=gamma, eta=ETA)
            experts = [
                Persistence(),
                NoisyOracle(thetas, 0.0),
                NoisyOracle(thetas, 4.0, rng=np.random.default_rng(seed + 100)),
            ]
            traj = run_smad(family, cset, thetas, pool, [0.0, 40.0], roster=[(1, p) for p in experts])
            ranges = traj.expert_losses.max(axis=1) - traj.expert_losses.min(axis=1)
            d_hat = float(ranges.max())
            bound = hedge_gap_bound(gamma, d_hat, traj.horizon, 3)
            assert traj.hedge_gap() <= bound + 1e-6

    def test_prediction_error_accumulates_per_expert(self):
        family, cset = tracking_setup()
        thetas = gen_switching(SwitchingProcessSpec(horizon=30), 10)
        pool = ExpertPool(beta=0.2, gamma=1e-6, eta=ETA)
        roster = [(1, NoisyOracle(thetas, 0.0)), (1, Persistence())]
        traj = run_smad(family, cset, thetas, pool, [0.0, 40.0], roster=roster)
        assert traj.p_theta_by_expert[0] == pytest.approx(0.0, abs=1e-12)
        persist = sum(
            np.linalg.norm(thetas[t] - thetas[t - 1]) for t in range(1, 30)
        )
        assert traj.p_theta_by_expert[1] == pytest.approx(persist, rel=1e-12)


class TestBatchedStep:
    """One batched ExpertPool.step against the per-expert reference loop."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["ball", "exact", "renormalize"]),
        inner_steps=st.integers(1, 3),
        n_experts=st.integers(1, 5),
        warmups=st.lists(st.integers(0, 4), min_size=5, max_size=5),
        rounds_before=st.integers(0, 3),
        late_entrant=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_expert_reference(
        self, seed, kind, inner_steps, n_experts, warmups, rounds_before, late_entrant
    ):
        rng = np.random.default_rng(seed)
        family, cset, sample, x1 = random_problem(kind, rng)
        pool = ExpertPool(
            beta=0.3, gamma=rng.uniform(0.01, 1.0),
            eta=0.05, inner_steps=inner_steps,
        )
        pool.activate(
            [LateAim(sample(), w) for w in warmups[:n_experts]], x_init=x1, t=1
        )
        thetas = np.stack([sample() for _ in range(rounds_before + 1)])
        for t in range(rounds_before):
            step_after(pool, family, cset, thetas[t], thetas[:t])
        if late_entrant:
            # an entrant that has never played next to incumbents that have
            pool.activate([LateAim(sample(), warmups[-1])], x_init=x1, t=rounds_before + 1)
        hist, theta_t = thetas[:rounds_before], thetas[rounds_before]

        want = reference_step(pool, family, cset, theta_t, hist)
        x_t = step_after(pool, family, cset, theta_t, hist)

        tol = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(x_t, want["x_t"], **tol)
        np.testing.assert_allclose(pool.xs, want["moves"], **tol)
        np.testing.assert_allclose(pool.last_losses, want["losses"], **tol)
        np.testing.assert_allclose(pool.log_p, want["log_p"], **tol)
        np.testing.assert_allclose(pool.last_play_loss, want["play_loss"], **tol)

    def test_nonfinite_gradient_names_the_expert(self):
        family, cset = tracking_setup()
        pool = ExpertPool(beta=0.2, gamma=1.0, eta=ETA)
        pool.activate(
            [FixedAim([1.0, 1.0, 0.0]), FixedAim([np.inf, 1.0, 0.0]), FixedAim([0.0, 0.0, 0.0])],
            x_init=[0.0, 0.0], t=1,
        )
        with pytest.raises(FloatingPointError, match="non-finite gradient for expert 1"):
            step_after(pool, family, cset, np.zeros(3), np.zeros((1, 3)))

    def test_nonfinite_gradient_names_the_expert_among_the_aimed(self):
        # expert 0 has no aim yet, so only experts 1 and 2 step
        family, cset = tracking_setup()
        pool = ExpertPool(beta=0.2, gamma=1.0, eta=ETA)
        pool.activate(
            [LateAim([1.0, 1.0, 0.0], 3), FixedAim([0.0, 0.0, 0.0]), FixedAim([np.inf, 1.0, 0.0])],
            x_init=[0.0, 0.0], t=1,
        )
        with pytest.raises(FloatingPointError, match="non-finite gradient for expert 2"):
            step_after(pool, family, cset, np.zeros(3), np.zeros((1, 3)))

    def test_overflowing_step_names_the_expert(self):
        # expert 1's gradient -2e307 is finite, its step eta * g is not
        family, cset = tracking_setup()
        pool = ExpertPool(beta=0.2, gamma=1.0, eta=10.0)
        pool.activate(
            [FixedAim([1.0, 1.0, 0.0]), FixedAim([0.0, 1e307, 0.0]), FixedAim([0.0, 0.0, 0.0])],
            x_init=[0.0, 0.0], t=1,
        )
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError, match="the step of expert 1 .* overflowed"):
                step_after(pool, family, cset, np.zeros(3), np.zeros((1, 3)))

    def test_asymmetric_aim_rejected(self):
        family = Markowitz(2)
        cset = UnitSimplex(2)
        good = family.pack([0.1, 0.2], np.eye(2), 1.0)
        bad = family.pack([0.1, 0.2], np.array([[1.0, 0.5], [0.2, 1.0]]), 1.0)
        pool = ExpertPool(beta=0.2, gamma=1.0, eta=0.1)
        pool.activate([FixedAim(good), FixedAim(bad)], x_init=[0.5, 0.5], t=1)
        with pytest.raises(ValueError, match="row 1 is not symmetric"):
            step_after(pool, family, cset, good, good[None, :])

    def test_public_round_outputs_feed_the_trajectory(self):
        family, cset = tracking_setup()
        thetas = gen_switching(SwitchingProcessSpec(horizon=12), 3)
        pool = ExpertPool(beta=0.2, gamma=1e-6, eta=ETA)
        roster = [(1, Persistence()), (1, NoisyOracle(thetas, 0.0))]
        traj = run_smad(family, cset, thetas, pool, [0.0, 40.0], roster=roster)
        np.testing.assert_array_equal(traj.expert_xs[-1], pool.xs)
        np.testing.assert_array_equal(traj.expert_losses[-1], pool.last_losses)
        np.testing.assert_array_equal(traj.first_plays, traj.expert_xs[0])


def _reference_roster(entries, kind, seed):
    """(round, predictor) pairs from (round, kind, warm-up, aim, truth)
    entries: a fixed aim with a warm-up, persistence, and on the ball a VAR
    and a noisy oracle, whose noise comes from ``seed`` so that two rosters
    built alike draw alike."""
    rng = np.random.default_rng(seed)
    roster = []
    for when, what, warmup, aim, truth in entries:
        if what == "fixed" or kind != "ball":
            roster.append((when, LateAim(aim, warmup)))
        elif what == "persistence":
            roster.append((when, Persistence()))
        elif what == "var":
            roster.append((when, VarPredictor(1 + warmup % 2)))
        else:
            roster.append((when, NoisyOracle(truth, 0.5, rng=np.random.default_rng(rng.integers(2**32)))))
    return roster


class TestPoolReference:
    """A whole run_smad against the reference run that keeps the prediction
    regularity and aim range round by round, bit for bit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["ball", "exact", "renormalize"]),
        inner_steps=st.integers(1, 3),
        horizon=st.integers(1, 12),
        # without a seed history, experts whose predictor is not ready yet
        # have no aim in round 1 while the others do
        n_seed=st.one_of(st.just(0), st.integers(1, 3)),
        # entrants in round 1 (often), later, or past the horizon (never
        # joining)
        specs=st.lists(
            st.tuples(
                st.one_of(st.integers(0, 1), st.integers(2, 15)),
                st.sampled_from(["fixed", "persistence", "var", "oracle"]),
                st.integers(0, 4),
            ),
            max_size=6,
        ),
    )
    @settings(max_examples=150, deadline=None)
    # a renormalizing projection may fall back to the uniform point, alike
    # in both runs
    @pytest.mark.filterwarnings("ignore::poco.domains.DegenerateProjectionWarning")
    def test_run_matches_reference_bit_for_bit(
        self, seed, kind, inner_steps, horizon, n_seed, specs
    ):
        rng = np.random.default_rng(seed)
        family, cset, sample, x1 = random_problem(kind, rng)
        thetas = np.stack([sample() for _ in range(horizon)])
        history = np.stack([sample() for _ in range(n_seed)]) if n_seed else None
        entries = [
            (when, what, warmup, sample(), np.stack([sample() for _ in range(20)]))
            for when, what, warmup in specs
        ]
        gamma, beta, eta = rng.uniform(0.01, 1.0), 0.3, 0.05

        pool = ExpertPool(beta=beta, gamma=gamma, eta=eta, inner_steps=inner_steps)
        traj = run_smad(
            family, cset, thetas, pool, x1, roster=_reference_roster(entries, kind, seed),
            initial_history=history,
        )
        want = reference_smad(
            family, cset, thetas, beta, gamma, eta, inner_steps, x1,
            _reference_roster(entries, kind, seed), initial_history=history,
        )
        for name in ("xs", "losses", "expert_xs", "expert_losses", "p", "p_theta_by_expert"):
            assert getattr(traj, name).tobytes() == want[name].tobytes(), name
        if want["aim_lo"] is None:
            assert traj.aim_lo is None and traj.aim_hi is None
        else:
            assert traj.aim_lo.tobytes() == want["aim_lo"].tobytes()
            assert traj.aim_hi.tobytes() == want["aim_hi"].tobytes()


class TestSharedFit:
    def test_run_exp2_fits_once_per_run(self, tmp_path, monkeypatch):
        # the series handed to the Yule-Walker kernel are each pool run's
        # observed record, once, in passes of at most RUN_BLOCK runs that
        # fit every AR order of the experts modelling those coordinates;
        # within a run every fit comes before the first round, and no round
        # calls VarPredictor.predict
        import poco.experiments as experiments
        import poco.predictors as predictors
        from poco.cli import EXIT_OK, main
        from poco.config import resolve_config

        events, fits, draws = [], [], []
        kernel = predictors._yule_walker
        predict = predictors.VarPredictor.predict
        value_rows = QuadraticTracking.value_rows
        run, draw = experiments.run_smad, experiments.gen_switching

        def recording_fit(y, orders, ridge, first):
            events.append("fit")
            fits.append((y.copy(), list(orders)))
            return kernel(y, orders, ridge, first)

        def recording_predict(self, history):
            events.append("predict")
            return predict(self, history)

        def recording_round(self, *args, **kwargs):
            events.append("round")
            return value_rows(self, *args, **kwargs)

        def recording_run(*args, **kwargs):
            events.append("run")
            return run(*args, **kwargs)

        def recording_draw(*args, **kwargs):
            draws.append(draw(*args, **kwargs))
            return draws[-1]

        monkeypatch.setattr(predictors, "_yule_walker", recording_fit)
        monkeypatch.setattr(predictors.VarPredictor, "predict", recording_predict)
        monkeypatch.setattr(QuadraticTracking, "value_rows", recording_round)
        monkeypatch.setattr(experiments, "run_smad", recording_run)
        monkeypatch.setattr(experiments, "gen_switching", recording_draw)
        argv = ["run-exp2", "--reps", "2", "--out", str(tmp_path), "--quiet"]
        assert main(argv) == EXIT_OK
        indices = resolve_config({}, "exp2")["predictor"]["indices"]
        observed = np.stack([thetas[:-1, indices] for thetas in draws])
        assert len(draws) == 2 and "predict" not in events
        assert all(len(y) <= RUN_BLOCK and orders == [1, 2, 3, 4, 5] for y, orders in fits)
        assert np.concatenate([y for y, _ in fits]).tobytes() == observed.tobytes()
        runs = []  # each pool run's events
        for event in events:
            if event == "run":
                runs.append([])
            elif runs:
                runs[-1].append(event)
        assert runs
        for run_events in runs:
            assert "fit" not in run_events[run_events.index("round"):]


class TestAimTableRuns:
    @pytest.mark.parametrize("study", ["tracking", "portfolio"])
    def test_no_predictor_is_asked_inside_a_step(self, study, monkeypatch):
        # every aim comes from the table built before the loop; only the
        # protocol-only double is asked, once per prefix from its join on,
        # and before the first round charges a loss
        from poco.config import resolve_config
        from poco.experiments import MarkowitzModelPredictor, run_exp3
        from poco.objectives import MarkowitzTable
        from poco.predictors import VarPredictor
        from poco.scenarios import synthetic_market

        events = []
        for cls in (VarPredictor, Persistence, NoisyOracle, MarkowitzModelPredictor, FixedAim):
            def counting(self, history, _predict=cls.predict):
                events.append(type(self).__name__)
                return _predict(self, history)

            monkeypatch.setattr(cls, "predict", counting)
        # every round charges its losses through the charge kernel
        for cls in (QuadraticTracking, MarkowitzTable):
            def charging(self, *args, _value_rows=cls._value_rows, **kwargs):
                events.append("round")
                return _value_rows(self, *args, **kwargs)

            monkeypatch.setattr(cls, "_value_rows", charging)
        if study == "tracking":
            family, cset = tracking_setup()
            thetas = gen_switching(SwitchingProcessSpec(horizon=30), 13)
            roster = [
                (1, VarPredictor(order=2, indices=(0, 1))),
                (1, Persistence()),
                (4, NoisyOracle(thetas, 1.0, rng=np.random.default_rng(2))),
                (6, FixedAim([1.0, 2.0, 0.0])),
            ]
            pool = ExpertPool(beta=0.2, gamma=1e-6, eta=ETA)
            run_smad(family, cset, thetas, pool, [0.0, 40.0], roster=roster)
            # the double joins in round 6, after 5 observations
            expected = ["FixedAim"] * (30 - 5)
        else:
            cfg = resolve_config(
                {"repetitions": 2, "horizon": 6, "exp3": {"lookbacks": [15, 30]}}, "exp3"
            )
            run_exp3(cfg, data=synthetic_market(n_assets=3, n_days=16 * 30, seed=3))
            expected = []
        first_round = events.index("round")
        assert events[:first_round] == expected
        assert set(events[first_round:]) == {"round"}


class SlotAt(FixedAim):
    """Test double: aims at slot 0, except after ``n_obs`` observations,
    where it aims at ``slot``."""

    def __init__(self, n_obs, slot):
        super().__init__([0.0, 1.0])
        self.n_obs, self.slot = n_obs, slot

    def predict(self, history):
        return np.array([self.slot if len(history) == self.n_obs else 0.0, 1.0])


class TestEntryChecks:
    """A run checks its parameters and aimed entries once, before round 1,
    and names the bad row; its rounds then call only the row kernels."""

    BAD_SLOTS = [1.5, -1.0, 3.0, np.nan]

    @pytest.fixture
    def table(self, monkeypatch):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 2, 2))
        family = MarkowitzTable(rng.normal(size=(3, 2)), a @ a.transpose(0, 2, 1) + np.eye(2))
        rounds = []  # every row call, kernel or public
        for name in ("_value_rows", "_gradient_x_rows", "value_rows", "gradient_x_rows"):
            def recording(*args, _name=name, _method=getattr(MarkowitzTable, name)):
                rounds.append(_name)
                return _method(*args)

            monkeypatch.setattr(MarkowitzTable, name, recording)
        return family, UnitSimplex(2), rounds

    @staticmethod
    def thetas(horizon=8):
        return np.column_stack([np.arange(horizon) % 3, np.full(horizon, 2.0)])

    @pytest.mark.parametrize("slot", BAD_SLOTS)
    def test_descent_refuses_a_bad_parameter_slot(self, table, slot):
        family, cset, rounds = table
        thetas = self.thetas()
        thetas[5, 0] = slot
        with pytest.raises(ValueError, match="thetas of repetition 0: row 5: slot"):
            run_predictive_ogd(family, cset, thetas, DescentConfig(0.1), [0.5, 0.5])
        stack = np.stack([self.thetas(), thetas])
        with pytest.raises(ValueError, match="thetas of repetition 1: row 5: slot"):
            run_predictive_ogd(family, cset, stack, DescentConfig(0.1), [0.5, 0.5])
        assert rounds == []

    @pytest.mark.parametrize("slot", BAD_SLOTS)
    def test_descent_refuses_a_bad_aimed_slot(self, table, slot):
        family, cset, rounds = table
        with pytest.raises(ValueError, match="aim table of repetition 0: row 4: slot"):
            run_predictive_ogd(
                family, cset, self.thetas(), DescentConfig(0.1), [0.5, 0.5], SlotAt(4, slot)
            )
        assert rounds == []

    @pytest.mark.parametrize("slot", BAD_SLOTS)
    def test_pool_refuses_a_bad_parameter_slot(self, table, slot):
        family, cset, rounds = table
        thetas = self.thetas()
        thetas[7, 0] = slot  # the last parameter: charged, never observed
        pool = ExpertPool(beta=0.2, gamma=1.0, eta=0.1)
        with pytest.raises(ValueError, match="thetas: row 7: slot"):
            run_smad(family, cset, thetas, pool, [0.5, 0.5], roster=[(1, FixedAim([0.0, 1.0]))])
        assert rounds == []

    @pytest.mark.parametrize("slot", BAD_SLOTS)
    def test_pool_refuses_a_bad_aimed_slot(self, table, slot):
        family, cset, rounds = table
        pool = ExpertPool(beta=0.2, gamma=1.0, eta=0.1)
        roster = [(1, FixedAim([0.0, 1.0])), (3, SlotAt(4, slot))]
        with pytest.raises(ValueError, match="aim table, expert 1: row 4: slot"):
            run_smad(family, cset, self.thetas(), pool, [0.5, 0.5], roster=roster)
        assert rounds == []

    def test_good_runs_call_only_the_kernels(self, table):
        family, cset, rounds = table
        roster = [(1, FixedAim([0.0, 1.0])), (3, SlotAt(4, 2.0))]
        pool = ExpertPool(beta=0.2, gamma=1.0, eta=0.1)
        run_smad(family, cset, self.thetas(), pool, [0.5, 0.5], roster=roster)
        # every round steps the aimed experts once and charges once
        assert rounds == ["_gradient_x_rows", "_value_rows"] * 8


class TestNonFiniteEntry:
    """Both runners refuse a NaN or infinite parameter, realized or aimed
    at, before any row call, naming ``thetas`` or the repetition, and the
    row: a non-finite loss offset, which no step reads, and the last
    parameter, which no round observes, included."""

    BAD = [np.nan, np.inf, -np.inf]
    WHERE = {"last row": (7, 0), "middle row": (3, 1), "offset column": (5, 2)}

    @pytest.fixture
    def rounds(self, monkeypatch):
        rounds = []  # every row call of the family
        for name in ("value_rows", "gradient_x_rows"):
            def recording(*args, _name=name, _method=getattr(QuadraticTracking, name)):
                rounds.append(_name)
                return _method(*args)

            monkeypatch.setattr(QuadraticTracking, name, recording)
        return rounds

    @staticmethod
    def thetas(bad, where, seed=6):
        thetas = gen_switching(SwitchingProcessSpec(horizon=8), seed)
        thetas[TestNonFiniteEntry.WHERE[where]] = bad
        return thetas

    @pytest.mark.parametrize("where", WHERE)
    @pytest.mark.parametrize("bad", BAD)
    def test_descent_refuses_a_non_finite_parameter(self, rounds, bad, where):
        family, cset = tracking_setup()
        thetas, row = self.thetas(bad, where), self.WHERE[where][0]
        named = f"thetas of repetition 0: parameter row {row} must be finite"
        with pytest.raises(ValueError, match=named):
            run_predictive_ogd(family, cset, thetas, DescentConfig(ETA), [0.0, 40.0])
        stack = np.stack([self.thetas(0.0, where), thetas, self.thetas(1.0, where)])
        named = f"thetas of repetition 1: parameter row {row} must be finite"
        with pytest.raises(ValueError, match=named):
            run_predictive_ogd(family, cset, stack, DescentConfig(ETA), [0.0, 40.0])
        assert rounds == []

    @pytest.mark.parametrize("where", WHERE)
    @pytest.mark.parametrize("bad", BAD)
    def test_pool_refuses_a_non_finite_parameter(self, rounds, bad, where):
        family, cset = tracking_setup()
        thetas, row = self.thetas(bad, where), self.WHERE[where][0]
        pool = ExpertPool(beta=0.2, gamma=1e-3, eta=ETA)
        roster = [(1, Persistence()), (3, FixedAim([1.0, 1.0, 0.0]))]
        with pytest.raises(ValueError, match=f"thetas: parameter row {row} must be finite"):
            run_smad(family, cset, thetas, pool, [0.0, 40.0], roster=roster)
        assert rounds == []

    @pytest.mark.parametrize("bad", BAD)
    def test_both_runners_refuse_a_non_finite_aim(self, rounds, bad):
        family, cset = tracking_setup()
        thetas = self.thetas(0.0, "last row")
        aim = LateAim([1.0, 1.0, bad], 4)  # aims after 4 observations
        with pytest.raises(ValueError, match="aim table of repetition 0: parameter row 4 must be"):
            run_predictive_ogd(family, cset, thetas, DescentConfig(ETA), [0.0, 40.0], aim)
        pool = ExpertPool(beta=0.2, gamma=1e-3, eta=ETA)
        roster = [(1, Persistence()), (2, aim)]
        with pytest.raises(ValueError, match="aim table, expert 1: parameter row 4 must be"):
            run_smad(family, cset, thetas, pool, [0.0, 40.0], roster=roster)
        assert rounds == []
