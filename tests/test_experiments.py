import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poco.config import resolve_config
from poco.descent import DescentConfig, run_predictive_ogd
from poco.domains import EuclideanBall
from poco.objectives import QuadraticTracking
from poco.predictors import RUN_BLOCK, NoisyOracle, aim_table
from poco.regret import hedge_gap_bound
from poco.scenarios import RiskProcessSpec, SwitchingProcessSpec, gen_switching
from poco.smad import ExpertPool, run_smad
from poco.experiments import (
    EXPERT_NOISE_CLIP,
    declared_gamma,
    load_exp3_market,
    make_predictor,
    run_exp1,
    run_exp2,
    run_exp3,
    run_expert_bound_study,
    run_predictive_bound_study,
    switching_setup,
)

from helpers import cov_moments, model_predict, reference_moment_table, risk_forecast_get

# an overflow inside a run fails the test instead of printing a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def exp3_config(seed, repetitions, horizon=150, **exp3):
    return resolve_config(
        {"seed": seed, "repetitions": repetitions, "horizon": horizon, "exp3": exp3}, "exp3"
    )


class TestSeedSplitting:
    def test_documented_rule_reproduces(self):
        # compare_to_ogd hands repetition r child r of SeedSequence(master).spawn(R)
        from poco.experiments import compare_to_ogd

        master, children = 99, []

        def scenario(child):
            children.append(child)
            return np.random.default_rng(child).normal(size=(4, 3)), None

        family, cset = QuadraticTracking([1.0, 2.0]), EuclideanBall(center=[0.0, 0.0], radius=1.0)
        compare_to_ogd(
            master, 5, scenario, lambda thetas, _: run_predictive_ogd(
                family, cset, thetas, DescentConfig(0.1), [0.0, 0.0]
            ), family, cset, [0.0, 0.0], 0.1,
        )
        rule = np.random.SeedSequence(master).spawn(5)
        assert [(c.entropy, c.spawn_key) for c in children] == [
            (c.entropy, c.spawn_key) for c in rule
        ]
        for x, y in zip(children, rule):
            np.testing.assert_array_equal(
                np.random.default_rng(x).random(4), np.random.default_rng(y).random(4)
            )


class TestPairedHarness:
    def test_only_the_first_method_run_outlives_its_repetition(self):
        from poco.experiments import compare_to_ogd

        class Run:
            def __init__(self, losses):
                self.losses = losses

        runs, alive = [], []

        def one_run(thetas):
            alive.extend(run() is not None for run in runs[1:])
            run = Run(np.arange(thetas.shape[0], dtype=float))
            runs.append(weakref.ref(run))
            return run

        def method(stack, histories):
            for thetas in stack:
                yield one_run(thetas)

        def scenario(child):
            return np.random.default_rng(child).normal(size=(6, 3)), None

        family, cset = QuadraticTracking([1.0, 2.0]), EuclideanBall(center=[0.0, 0.0], radius=1.0)
        curve, (_, first) = compare_to_ogd(5, 4, scenario, method, family, cset, [0.0, 0.0], 0.1)
        assert curve.n_reps == 4 and len(runs) == 4
        assert first is runs[0]()
        # repetitions 2..R were dropped as soon as their losses were read
        assert not any(alive) and all(run() is None for run in runs[1:])

    @pytest.mark.parametrize("reps, returned", [(3, 2), (3, 4), (1, 0)])
    def test_a_method_returning_another_run_count_is_refused(self, reps, returned):
        from poco.experiments import compare_to_ogd

        family, cset = QuadraticTracking([1.0, 2.0]), EuclideanBall(center=[0.0, 0.0], radius=1.0)

        def method(stack, histories):
            runs = run_predictive_ogd(family, cset, stack, DescentConfig(0.1), [0.0, 0.0])
            return (runs + runs)[:returned]

        with pytest.raises(ValueError, match=f"returned {returned} runs for {reps} repetitions"):
            compare_to_ogd(
                5, reps, lambda child: (np.random.default_rng(child).normal(size=(6, 3)), None),
                method, family, cset, [0.0, 0.0], 0.1,
            )

    @pytest.mark.parametrize("reps", [1, 4, 50])
    def test_study_1_plays_each_arm_in_one_call(self, monkeypatch, tmp_path, reps):
        # the baseline's lockstep call and the method's, for run_exp1 and for
        # run-custom through the CLI
        import poco.experiments
        from poco.cli import EXIT_OK, main

        calls = []

        def counted(*args, **kwargs):
            calls.append(np.shape(args[2]))
            return run_predictive_ogd(*args, **kwargs)

        monkeypatch.setattr(poco.experiments, "run_predictive_ogd", counted)
        run_exp1(resolve_config({"repetitions": reps}, "exp1"))
        out = str(tmp_path / "custom")
        assert main(["run-custom", "--reps", str(reps), "--out", out, "--quiet"]) == EXIT_OK
        assert calls == [(reps, 200, 3)] * 4

    def test_stacked_method_arm_equals_single_runs(self):
        # the default study-1 draws: one lockstep call of the method arm
        # against one call per repetition, bit for bit
        cfg = resolve_config({}, "exp1")
        family, cset, proc = switching_setup(cfg)
        descent = DescentConfig(cfg["descent"]["eta"], cfg["descent"]["inner_steps"])
        x1, predictor = cfg["descent"]["x1"], make_predictor(cfg)
        children = np.random.SeedSequence(cfg["seed"]).spawn(cfg["repetitions"])
        thetas = np.stack([gen_switching(proc, child) for child in children])
        stacked = run_predictive_ogd(family, cset, thetas, descent, x1, predictor=predictor)
        assert len(stacked) == 50
        for run, draw in zip(stacked, thetas):
            alone = run_predictive_ogd(family, cset, draw, descent, x1, predictor=predictor)
            np.testing.assert_array_equal(run.losses, alone.losses)
            np.testing.assert_array_equal(run.xs, alone.xs)

    def test_zero_repetitions_rejected(self, market):
        for run in (
            lambda: run_exp1(dict(resolve_config({}, "exp1"), repetitions=0)),
            lambda: run_exp2(dict(resolve_config({}, "exp2"), repetitions=0)),
            lambda: run_exp3(
                dict(exp3_config(1729, 1, horizon=5), repetitions=0), data=market
            ),
        ):
            with pytest.raises(ValueError, match="repetitions must be >= 1"):
                run()

    @pytest.mark.parametrize("experiment", ["exp1", "exp2", "exp3"])
    def test_repetition_does_not_depend_on_the_repetition_count(self, market, experiment):
        # repetition r draws child r of the master seed and shares no state
        # with the other repetitions, so a longer run only appends rows
        run = {
            "exp1": run_exp1,
            "exp2": run_exp2,
            "exp3": lambda cfg: run_exp3(cfg, data=market),
        }[experiment]
        two, four = (
            run(exp3_config(1729, reps, horizon=20) if experiment == "exp3"
                else resolve_config({"repetitions": reps}, experiment)).curve.diffs
            for reps in (2, 4)
        )
        np.testing.assert_array_equal(two, four[:2])


class TestExp1:
    def test_prefix_exactly_zero_and_deterministic(self):
        cfg = resolve_config({"repetitions": 4, "horizon": 80, "seed": 5}, "exp1")
        a = run_exp1(cfg)
        b = run_exp1(cfg)
        np.testing.assert_array_equal(a.curve.diffs, b.curve.diffs)
        assert np.all(a.curve.diffs[:, :10] == 0.0)
        assert np.any(a.curve.diffs[:, 11:] != 0.0)

    def test_ledgers_bound_passes(self):
        cfg = resolve_config({"repetitions": 2, "horizon": 100, "seed": 6}, "exp1")
        res = run_exp1(cfg)
        for ledger in res.ledgers.values():
            assert ledger.bound_holds

    def test_noise_free_predictor_catches_switches(self):
        # with the noise off, an exact-lag model stops paying for jumps that
        # plain descent keeps paying for at every switch
        cfg = resolve_config(
            {"repetitions": 2, "horizon": 160, "seed": 7, "scenario": {"noise_scale": 0.0}}, "exp1"
        )
        res = run_exp1(cfg)
        assert res.curve.mean_diff[-1] < 0
        family = QuadraticTracking((100.0, 1.0))
        cset = EuclideanBall(center=np.zeros(2), radius=50.0)
        proc = SwitchingProcessSpec(noise_scale=0.0, horizon=160)
        thetas = gen_switching(proc, 0)
        std = run_predictive_ogd(
            family, cset, thetas, DescentConfig(1 / 200, 1), (0.0, 40.0)
        )
        from poco.predictors import VarPredictor

        pred = run_predictive_ogd(
            family, cset, thetas, DescentConfig(1 / 200, 1), (0.0, 40.0),
            predictor=VarPredictor(order=4, min_history=10, indices=(0, 1)),
        )
        switch_rounds = np.array([t for t in range(30, 161) if (t - 1) % 4 == 0])
        assert pred.losses[switch_rounds - 1].mean() < std.losses[switch_rounds - 1].mean()

    def test_common_random_numbers_identical_arms_zero_curve(self):
        # run the baseline against itself via the custom harness: the
        # difference curve must be identically zero at every step
        from poco.cli import run_custom

        cfg = resolve_config(
            {"repetitions": 3, "horizon": 40, "predictor": {"kind": "persistence"}},
            experiment="custom",
        )
        res = run_custom(cfg)
        assert np.all(res.curve.diffs == 0.0)


class TestExp2:
    def test_smoke_and_determinism(self):
        cfg = resolve_config({"repetitions": 3, "horizon": 120, "seed": 8}, "exp2")
        a = run_exp2(cfg)
        b = run_exp2(cfg)
        np.testing.assert_array_equal(a.curve.diffs, b.curve.diffs)
        assert np.all(a.curve.diffs[:, : cfg["smad"]["first_activation"] - 1] == 0.0)

    def test_perfect_experts_dominate_after_warmup(self):
        cfg = resolve_config({}, "exp2")
        eta, x1, smad = cfg["descent"]["eta"], cfg["descent"]["x1"], cfg["smad"]
        first = smad["first_activation"]
        family = QuadraticTracking(cfg["objective"]["weights"])
        cset = EuclideanBall(center=np.zeros(2), radius=cfg["domain"]["radius"])
        proc = SwitchingProcessSpec(dwell=tuple(cfg["scenario"]["dwell"]), horizon=cfg["horizon"])
        thetas = gen_switching(proc, 42)
        ogd = run_predictive_ogd(
            family, cset, thetas, DescentConfig(eta, 1), x1
        )
        pool = ExpertPool(beta=smad["beta"], gamma=smad["gamma"], eta=eta)
        roster = [(first + 10 * i, NoisyOracle(thetas, 0.0)) for i in range(5)]
        smad_traj = run_smad(family, cset, thetas, pool, x1, roster=roster)
        diff = np.cumsum(smad_traj.losses - ogd.losses)
        # warmup covers rounds 1..first_activation; strictly after it the
        # exact predictions dominate at every round
        assert np.all(diff[first:] <= 0.0)

    def test_smad_ledger_reports_skip_reason(self):
        res = run_exp2(resolve_config({"repetitions": 1, "horizon": 80, "seed": 10}, "exp2"))
        assert res.ledgers["smad"].bound is None
        assert "mid-run" in res.ledgers["smad"].bound_skipped_reason
        assert res.ledgers["ogd"].bound_holds


@pytest.fixture(scope="module")
def market():
    return load_exp3_market(resolve_config({}, "exp3"))


class TestExp3:

    def test_uniform_start_and_shapes(self, market):
        res = run_exp3(exp3_config(11, 2, horizon=30), data=market)
        assert res.curve.horizon == 30
        assert res.curve.n_reps == 2
        assert market.n_assets == 37  # 36 stocks plus the risk-free column
        # both arms start from the uniform portfolio; the expert pool takes
        # its first descent step before its first play, so the curves may
        # already differ at month 1 by a one-step margin
        assert np.all(np.abs(res.curve.diffs[:, 0]) < 0.1)

    def test_ogd_arm_first_play_is_uniform(self, market):
        from poco.descent import DescentConfig, run_predictive_ogd
        from poco.domains import UnitSimplex
        from poco.objectives import MarkowitzTable
        from poco.experiments import MomentCache, _client_thetas
        from poco.scenarios import gen_risk_path

        cfg = exp3_config(11, 1, horizon=5)
        sec = cfg["exp3"]
        months = sec["observe_months"] + cfg["horizon"]
        moments = MomentCache(market, sec["month_days"], months, [sec["client_lookback"]])
        family = MarkowitzTable(moments.mu, moments.sigma)
        child = np.random.SeedSequence(11).spawn(1)[0]
        # the exp3 risk defaults are RiskProcessSpec's own
        risk = gen_risk_path(RiskProcessSpec(), sec["month_days"] * months, child)
        thetas = _client_thetas(sec, moments, risk)
        cset = UnitSimplex(market.n_assets, mode="renormalize")
        traj = run_predictive_ogd(
            family, cset, thetas[sec["observe_months"] :],
            DescentConfig(sec["eta"], 1), cset.interior_point(),
        )
        np.testing.assert_allclose(traj.xs[0], np.full(37, 1.0 / 37.0))

    def test_risk_forecasts_cover_each_risk_path_once(self, market, monkeypatch):
        # the series handed to the Yule-Walker kernel are each repetition's
        # risk path, every risk level a month observes, once: no month
        # refits, and a pass holds at most RUN_BLOCK runs and every AR order
        import poco.experiments as experiments
        import poco.predictors as predictors

        paths, fits = [], []
        gen_risk_path = experiments.gen_risk_path
        kernel = predictors._yule_walker

        def recording_path(*args, **kwargs):
            paths.append(gen_risk_path(*args, **kwargs))
            return paths[-1]

        def recording_fit(y, orders, ridge, first):
            fits.append((y.copy(), list(orders)))
            return kernel(y, orders, ridge, first)

        monkeypatch.setattr(experiments, "gen_risk_path", recording_path)
        monkeypatch.setattr(predictors, "_yule_walker", recording_fit)
        run_exp3(exp3_config(14, 2, horizon=6, lookbacks=[15, 30]), data=market)
        # 10 observation months and the first 5 evaluation months
        observed = np.stack([path[:15, None] for path in paths])
        assert len(paths) == 2 and observed.shape == (2, 15, 1)
        assert all(len(y) <= RUN_BLOCK and orders == [1, 2, 3, 4, 5, 6] for y, orders in fits)
        assert np.concatenate([y for y, _ in fits]).tobytes() == observed.tobytes()

    def test_table_is_built_once_before_the_first_step(self, market, monkeypatch):
        # the moments table is built once, before the first round charges a
        # loss; then the rounds pass (slot, risk) rows: no round packs,
        # unpacks or estimates moments
        import poco.experiments as experiments
        from poco.objectives import Markowitz, MarkowitzTable

        events = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)

            return wrapper

        table = experiments.MomentCache.__init__
        monkeypatch.setattr(experiments.MomentCache, "__init__", recording("table", table))
        monkeypatch.setattr(
            experiments, "estimate_moments", recording("estimate", experiments.estimate_moments)
        )
        for name in ("pack", "unpack", "_unpack_rows"):
            monkeypatch.setattr(Markowitz, name, recording(name, getattr(Markowitz, name)))
        # every round charges its losses through the charge kernel
        monkeypatch.setattr(
            MarkowitzTable, "_value_rows", recording("round", MarkowitzTable._value_rows)
        )
        run_exp3(exp3_config(14, 2, horizon=6, lookbacks=[15, 30]), data=market)
        first_round = events.index("round")
        # 16 months fill one block: one stacked call per lookback (2 experts'
        # and the client's), plus a one-row call for the client's 50-day
        # window clamped to month 1's 30 days
        assert events[:first_round] == ["table"] + ["estimate"] * 4
        assert set(events[first_round:]) == {"round"}

    def test_determinism(self, market):
        cfg = exp3_config(12, 2, horizon=20)
        a = run_exp3(cfg, data=market)
        b = run_exp3(cfg, data=market)
        np.testing.assert_array_equal(a.curve.diffs, b.curve.diffs)

    def test_constant_risk_shrinks_the_gap(self, market):
        noisy = run_exp3(exp3_config(13, 3, horizon=40), data=market)
        quiet = run_exp3(
            exp3_config(13, 3, horizon=40, risk_stay_prob=1.0, risk_noise_var=0.0),
            data=market,
        )
        assert abs(quiet.curve.mean_diff[-1]) < abs(noisy.curve.mean_diff[-1])

    def test_csv_data_must_cover_horizon(self, tmp_path):
        # the synthetic stand-in auto-sizes to the horizon; a real CSV that
        # is too short must be rejected with the day counts
        path = tmp_path / "short.csv"
        path.write_text("1.0,1.0\n" * 50)
        cfg = exp3_config(1729, 1, horizon=150, csv_path=str(path))
        with pytest.raises(Exception, match="4800 days"):
            load_exp3_market(cfg)


class TestMomentCache:
    def test_slots_equal_the_np_cov_formula_with_clamped_early_windows(self):
        from poco.experiments import MomentCache
        from poco.scenarios import synthetic_market

        for n_assets in (1, 3):
            data = synthetic_market(n_assets=n_assets, n_days=200, seed=n_assets)
            # lookbacks of 45 and 100 days are clamped in the first months
            table = MomentCache(data, 20, 10, [2, 45, 100])
            for month in range(1, 11):
                for lb in (2, 45, 100):
                    mu, sigma = table.get(month, lb)
                    end_day = 20 * month
                    ref_mu, ref_sigma = cov_moments(data.relatives, end_day, min(lb, end_day))
                    assert mu.tobytes() == ref_mu.tobytes()
                    assert sigma.tobytes() == ref_sigma.tobytes()
            assert table.slot(3, 45) == 2 * 3 + 1
            for month in (0, 11):
                with pytest.raises(ValueError, match=f"month {month} is outside"):
                    table.get(month, 45)

    def test_an_unknown_lookback_is_named(self):
        from poco.experiments import MomentCache
        from poco.scenarios import synthetic_market

        table = MomentCache(synthetic_market(n_assets=2, n_days=200, seed=1), 20, 10, [2, 45])
        with pytest.raises(ValueError, match=r"lookback 0 is not one of the table's \[2, 45\]"):
            table.slot(5, 0)

    @pytest.mark.parametrize(
        "n_assets, month_days, months, lookbacks",
        [
            (3, 30, 21, [15, 45, 100]),  # one whole block of 16 months and 5 more
            (1, 7, 37, [2, 150, 45]),  # 150 days are clamped over 21 months, past a block
            (2, 45, 16, [200, 50]),  # exactly one block, 4 clamped months
            (37, 30, 160, [15, 30, 45, 60, 75, 90, 50]),  # study 3's default shape
        ],
    )
    def test_table_equals_the_slot_by_slot_reference(self, n_assets, month_days, months, lookbacks):
        from poco.experiments import MomentCache
        from poco.scenarios import synthetic_market

        data = synthetic_market(n_assets=n_assets, n_days=month_days * months, seed=n_assets)
        table = MomentCache(data, month_days, months, lookbacks)
        ref_mu, ref_sigma = reference_moment_table(data, month_days, months, lookbacks)
        assert table.mu.tobytes() == ref_mu.tobytes()
        assert table.sigma.tobytes() == ref_sigma.tobytes()

    def test_building_a_table_holds_at_most_one_block_of_windows(self):
        # study 3's default shape: 160 months x 7 lookbacks x 37 assets.
        # Beyond the table itself, a build may hold one block's window stack
        # (16 months x 90 days x 37 assets, 0.43 MB) and its products, never
        # a whole lookback's windows or a second table.
        from poco.experiments import MomentCache
        from poco.scenarios import synthetic_market

        data = synthetic_market(n_assets=37, n_days=4800, seed=3)
        shape = (data, 30, 160, [15, 30, 45, 60, 75, 90, 50])
        MomentCache(*shape)  # first calls allocate numpy's caches
        tracemalloc.start()
        try:
            table = MomentCache(*shape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - (table.mu.nbytes + table.sigma.nbytes) < 1_000_000

    def test_a_nan_risk_forecast_reaches_the_finite_gradient_check(self):
        from poco.domains import UnitSimplex
        from poco.experiments import MarkowitzModelPredictor, MomentCache
        from poco.objectives import MarkowitzTable
        from poco.scenarios import synthetic_market

        class Forecasts:
            risk = -2.0

            def get(self, order, risk_series):
                return self.risk

            def column(self, order, risk_series):
                return np.full(risk_series.shape, self.risk)

        table = MomentCache(synthetic_market(n_assets=3, n_days=120, seed=6), 30, 4, [20, 45])
        family, cset = MarkowitzTable(table.mu, table.sigma), UnitSimplex(3, mode="renormalize")
        history = np.array([[table.slot(1, 45), 4.0], [table.slot(2, 45), 5.0]])
        forecasts = Forecasts()
        predictor = MarkowitzModelPredictor(table, 20, 1, forecasts=forecasts)
        np.testing.assert_array_equal(predictor.predict(history), [table.slot(2, 20), 0.0])
        forecasts.risk = np.nan
        assert np.isnan(predictor.predict(history)[1])
        pool = ExpertPool(beta=0.5, gamma=1.0, eta=0.1)
        pool.activate([predictor], x_init=cset.interior_point(), t=1)
        aims, aimed = aim_table(pool.predictors, history)
        with pytest.raises(FloatingPointError, match="non-finite gradient for expert 0"):
            pool.step(family, cset, history[-1], aims[-1], aimed[-1])

    @pytest.mark.parametrize("fault", ["nan mean", "inf covariance", "asymmetric covariance"])
    def test_a_bad_slot_is_refused_by_month_and_lookback(self, fault, monkeypatch):
        import poco.experiments as experiments
        from poco.scenarios import DataError, synthetic_market

        estimate = experiments.estimate_moments

        def corrupting(data, end_days, lookback):
            mu, sigma = estimate(data, end_days, lookback)
            if lookback == 45 and np.ndim(end_days) == 1 and 60 in end_days:
                row = list(end_days).index(60)  # month 2, lookback 45
                if fault == "nan mean":
                    mu[row, 0] = np.nan
                elif fault == "inf covariance":
                    sigma[row, 1, 1] = np.inf
                else:
                    sigma[row, 0, 1] += 1e-12
            return mu, sigma

        monkeypatch.setattr(experiments, "estimate_moments", corrupting)
        data = synthetic_market(n_assets=2, n_days=120, seed=5)
        with pytest.raises(DataError, match="month 2, lookback 45"):
            experiments.MomentCache(data, 30, 4, [20, 45])


class TestModelAims:
    @settings(max_examples=80, deadline=None)
    @given(
        experts=st.lists(
            st.tuples(st.sampled_from([20, 45]), st.integers(1, 4), st.integers(0, 14)),
            min_size=1, max_size=6,
        ),
        n_obs=st.integers(0, 12),
        nan_rows=st.sets(st.integers(0, 12), max_size=4),
        zero_rows=st.sets(st.integers(0, 12), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_aim_table_equals_predict_bit_for_bit(
        self, experts, n_obs, nan_rows, zero_rows, seed
    ):
        # risk levels around zero give negative forecasts and fallbacks,
        # which are clamped; a NaN or -0.0 forecast stays as it is.  Every
        # aimed entry and every risk forecast also equals the scalar rule's
        from poco.experiments import MarkowitzModelPredictor, MomentCache, RiskForecastCache
        from poco.predictors import step_aim
        from poco.scenarios import synthetic_market

        moments = MomentCache(synthetic_market(n_assets=3, n_days=260, seed=8), 20, 13, [20, 45])
        risk = np.random.default_rng(seed).normal(size=n_obs)
        forecasts = RiskForecastCache(sorted({k for _, k, _ in experts}), risk)
        for table in forecasts.forecasts.values():
            table[[n for n in zero_rows if n <= n_obs]] = -0.0
            table[[n for n in nan_rows if n <= n_obs]] = np.nan
        observed = np.column_stack([moments.slot(np.arange(1, n_obs + 1), 45), risk])
        roster = [MarkowitzModelPredictor(moments, lb, k, forecasts) for lb, k, _ in experts]
        starts = [first for _, _, first in experts]
        aims, aimed = aim_table(roster, observed, starts)
        for i, (predictor, first) in enumerate(zip(roster, starts)):
            for n in range(n_obs + 1):
                want = None if n < first else step_aim(predictor, observed[:n])
                assert aimed[n, i] == (want is not None)
                if want is not None:
                    assert aims[n, i].tobytes() == want.tobytes()
                    assert want.tobytes() == model_predict(predictor, observed[:n]).tobytes()
        for k in forecasts.forecasts:
            for n in range(1, n_obs + 1):
                got = forecasts.get(k, risk[:n])
                assert np.float64(got).tobytes() == np.float64(
                    risk_forecast_get(forecasts, k, risk[:n])
                ).tobytes()


class TestBoundStudies:
    @pytest.mark.parametrize("study", [run_predictive_bound_study, run_expert_bound_study])
    def test_non_metric_projection_is_refused(self, study, monkeypatch):
        import poco.experiments as experiments
        from poco.config import ConfigError

        def no_run(*args, **kwargs):
            raise AssertionError("a bound-study run was played")

        monkeypatch.setattr(experiments, "run_predictive_ogd", no_run)
        monkeypatch.setattr(experiments, "run_smad", no_run)
        cfg = resolve_config(
            {
                "domain": {"kind": "simplex", "projection_mode": "renormalize"},
                "descent": {"x1": [0.5, 0.5]},
            },
            "exp1",
        )
        with pytest.raises(ConfigError, match="domain.projection_mode='renormalize'"):
            study(cfg, 1)

    @pytest.mark.parametrize("study", [run_predictive_bound_study, run_expert_bound_study])
    def test_a_study_without_runs_is_refused(self, study):
        with pytest.raises(ValueError, match="at least one run, got 0"):
            study(resolve_config({}, "exp1"), 0)

    def test_predictive_study_all_hold(self):
        st = run_predictive_bound_study(resolve_config({}, "exp1"), 6)
        assert st.all_hold and st.n_runs == 6

    def test_k_step_studies_hold(self):
        for k in (2, 3):
            st = run_predictive_bound_study(resolve_config({}, "exp1"), 4, inner_steps=k)
            assert st.all_hold

    def test_all_hold_covers_the_aggregation_inequality(self):
        from poco.experiments import BoundStudyResult

        ledger = run_predictive_bound_study(resolve_config({"horizon": 10}, "exp1"), 1).records[0]

        def study(hedge_holds):
            rec = dataclasses.replace(
                ledger, reg_d=1.0, bound=2.0, bound_holds=True,
                hedge_gap=0.5, hedge_bound=1.0, hedge_holds=hedge_holds,
            )
            return BoundStudyResult(records=[rec], label="expert-pool regret bound")

        assert study(None).all_hold and study(True).all_hold
        assert not study(False).all_hold
        assert study(False).n_pass == 1  # the regret bound itself held

    def test_expert_study_holds_with_hedge(self):
        st = run_expert_bound_study(resolve_config({}, "exp1"), 4)
        assert st.all_hold
        assert all(rec.hedge_holds for rec in st.records)
        lines = "\n".join(st.summary_lines())
        assert "exponential-weights" in lines

    def test_expert_study_penalty_never_exceeds_the_declared_range(self):
        # the ledger charges the measured spread of expert losses, which the
        # declared D bounds, so its aggregation check is never looser
        cfg = resolve_config({}, "exp1")
        clipped = {**cfg, "scenario": {**cfg["scenario"], "noise_clip": EXPERT_NOISE_CLIP}}
        d_range, gamma = declared_gamma(clipped)
        st = run_expert_bound_study(cfg, 4)
        declared = hedge_gap_bound(gamma, d_range, cfg["horizon"], 5)
        for rec in st.records:
            assert rec.bound_holds and rec.hedge_holds
            assert rec.hedge_bound <= declared
