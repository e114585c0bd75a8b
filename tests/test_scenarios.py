import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from poco.scenarios import (
    DataError,
    MOMENT_RIDGE,
    MarketData,
    RISK_FREE_DAILY_RELATIVE,
    RiskProcessSpec,
    SwitchingProcessSpec,
    append_risk_free,
    estimate_moments,
    gen_risk_daily,
    gen_risk_path,
    gen_switching,
    load_market_csv,
    risk_state_chain,
    switching_base,
    switching_declared_box,
    synthetic_market,
)

from helpers import cov_moments, reference_risk_state_chain, stacked_switching

STATE_A = np.array([-100.0, 0.0, 30.0])
STATE_B = np.array([100.0, 20.0, -50.0])


class TestSwitchingProcess:
    def test_dwell_4_4(self):
        spec = SwitchingProcessSpec(noise_scale=0.0, horizon=20)
        for t in range(1, 5):
            np.testing.assert_array_equal(switching_base(spec, t), STATE_A)
        np.testing.assert_array_equal(switching_base(spec, 5), STATE_B)
        np.testing.assert_array_equal(switching_base(spec, 8), STATE_B)
        np.testing.assert_array_equal(switching_base(spec, 9), STATE_A)

    def test_dwell_4_6(self):
        spec = SwitchingProcessSpec(dwell=(4, 6), noise_scale=0.0)
        for t in range(5, 11):
            np.testing.assert_array_equal(switching_base(spec, t), STATE_B)
        np.testing.assert_array_equal(switching_base(spec, 11), STATE_A)

    def test_noise_free_series_equals_base(self):
        spec = SwitchingProcessSpec(noise_scale=0.0, horizon=12)
        series = gen_switching(spec, 0)
        for t in range(1, 13):
            np.testing.assert_array_equal(series[t - 1], switching_base(spec, t))

    @given(
        dwell=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        horizon=st.integers(1, 400),
        noise_scale=st.sampled_from([0.0, 10.0, 0.3]),
        noise_clip=st.sampled_from([None, 2.0, 6.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dwell=(4, 4), horizon=200, noise_scale=10.0, noise_clip=None, seed=1729)
    @example(dwell=(1, 1), horizon=1, noise_scale=0.0, noise_clip=None, seed=0)
    @settings(max_examples=150, deadline=None)
    def test_equals_the_stacked_base_rule_bit_for_bit(
        self, dwell, horizon, noise_scale, noise_clip, seed
    ):
        spec = SwitchingProcessSpec(
            dwell=dwell, horizon=horizon, noise_scale=noise_scale, noise_clip=noise_clip
        )
        got, want = gen_switching(spec, seed), stacked_switching(spec, seed)
        assert got.shape == want.shape == (horizon, 3)
        assert got.tobytes() == want.tobytes()

    def test_seeded_determinism(self):
        spec = SwitchingProcessSpec(horizon=50)
        np.testing.assert_array_equal(gen_switching(spec, 123), gen_switching(spec, 123))
        assert not np.array_equal(gen_switching(spec, 123), gen_switching(spec, 124))

    def test_noise_scale_is_variance(self):
        spec = SwitchingProcessSpec(horizon=4000)
        series = gen_switching(spec, 3)
        base = np.stack([switching_base(spec, t) for t in range(1, 4001)])
        noise = series - base
        assert noise.var() == pytest.approx(10.0, rel=0.1)

    def test_clipped_noise_stays_in_declared_box(self):
        spec = SwitchingProcessSpec(horizon=2000, noise_clip=6.0)
        series = gen_switching(spec, 4)
        lo, hi = switching_declared_box(spec)
        assert np.all(series >= lo) and np.all(series <= hi)

    def test_bad_dwell(self):
        with pytest.raises(ValueError, match="dwell"):
            SwitchingProcessSpec(dwell=(0, 4))


class TestRiskProcess:
    def test_quiet_warmup_is_constant_base(self):
        spec = RiskProcessSpec(noise_var=0.0, stay_prob=1.0)
        daily = gen_risk_daily(spec, 240, 0)
        np.testing.assert_array_equal(daily, np.full(240, 4.0))

    def test_monthly_sampling_marks(self):
        spec = RiskProcessSpec()
        daily = gen_risk_daily(spec, 300, 5)
        path = gen_risk_path(spec, 300, 5)
        np.testing.assert_array_equal(path, daily[np.arange(30, 301, 30) - 1])
        assert len(path) == 10

    def test_nonnegative_everywhere(self):
        spec = RiskProcessSpec(noise_var=25.0)
        daily = gen_risk_daily(spec, 5000, 6)
        assert np.all(daily >= 0.0)

    def test_forced_jumps_are_uniform(self):
        # stay probability zero redraws the state every day; the marginal
        # over {1..20} must pass a chi-square uniformity test at 1%
        spec = RiskProcessSpec(stay_prob=0.0, noise_var=0.0)
        states = risk_state_chain(spec, 100001, 7)[1:]  # drop the seeded base
        counts = np.bincount(states.astype(int), minlength=21)[1:21]
        assert counts.sum() == 100000
        _, pval = stats.chisquare(counts)
        assert pval > 0.01

    def test_jump_frequency_near_one_tenth(self):
        # a redraw happens w.p. 0.1 and lands on a fresh value 19/20 of the
        # time, so visible changes occur at rate 0.095
        spec = RiskProcessSpec(noise_var=0.0)
        states = risk_state_chain(spec, 10001, 8)
        changes = np.mean(states[1:] != states[:-1])
        assert changes == pytest.approx(0.095, abs=0.01)

    def test_determinism(self):
        spec = RiskProcessSpec()
        np.testing.assert_array_equal(
            gen_risk_path(spec, 3000, 11), gen_risk_path(spec, 3000, 11)
        )

    @settings(max_examples=150, deadline=None)
    @given(
        stay_prob=st.one_of(st.sampled_from([0.0, 1.0, 0.9]), st.floats(0.0, 1.0)),
        # one value; the default; about 2**31, where about half of all
        # 32-bit draws are rejected; exactly 2**32; the 64-bit rule
        width=st.sampled_from([1, 20, 2**31 + 1, 2**31 + 2**29, 2**32, 2**40]),
        jump_low=st.sampled_from([1, 0, -7, -(2**35)]),
        n_days=st.one_of(st.integers(0, 40), st.integers(1, 3000)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chain_equals_the_day_by_day_loop(self, stay_prob, width, jump_low, n_days, seed):
        # the bulk read replays numpy's random() and scalar integers() rules
        # for PCG64; a numpy release that changes either fails here
        spec = RiskProcessSpec(stay_prob=stay_prob, jump_low=jump_low, jump_high=jump_low + width - 1)
        got = risk_state_chain(spec, n_days, seed)
        assert got.tobytes() == reference_risk_state_chain(spec, n_days, seed).tobytes()

    @pytest.mark.parametrize("field", ["jump_low", "jump_high"])
    @pytest.mark.parametrize("bound", [1.5, 20.25, np.nan, np.inf, 2**63, "3"])
    def test_a_jump_bound_numpy_cannot_draw_is_refused(self, field, bound):
        # numpy would truncate 1.5 to 1 silently
        kwargs = {"jump_low": -30, "jump_high": 30, field: bound}
        with pytest.raises(ValueError, match=field):
            RiskProcessSpec(**kwargs)

    def test_integral_jump_bounds_are_accepted(self):
        RiskProcessSpec(jump_low=-(2**63), jump_high=2**63 - 1)
        RiskProcessSpec(jump_low=np.int64(2), jump_high=20.0)


class TestMarketData:
    def test_positive_required(self):
        with pytest.raises(DataError, match="row 2, column 1"):
            MarketData(relatives=np.array([[1.0, 1.0], [-0.5, 1.0]]))

    def test_risk_free_column(self):
        data = MarketData(relatives=np.ones((5, 2)))
        with_rf = append_risk_free(data)
        assert with_rf.n_assets == 3
        assert with_rf.names[-1] == "riskfree"
        assert with_rf.relatives[0, 2] == pytest.approx(1.01 ** (1 / 360))
        assert RISK_FREE_DAILY_RELATIVE == pytest.approx(1.0000276, abs=1e-7)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("alpha,beta\n1.01,0.99\n1.02,1.00\n")
        data = load_market_csv(path)
        assert data.names == ("alpha", "beta")
        np.testing.assert_allclose(data.relatives, [[1.01, 0.99], [1.02, 1.00]])

    def test_csv_missing_cell_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,1.0\n1.0,\n")
        with pytest.raises(DataError, match="row 2, column 2"):
            load_market_csv(path)

    def test_csv_ragged_row_named(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,1.0\n1.0\n")
        with pytest.raises(DataError, match="row 2"):
            load_market_csv(path)

    def test_csv_first_row_mixing_numbers_and_text_is_refused(self, tmp_path):
        # a header is a first row of which no cell is a number, so this row
        # is data, and its text cell is unparsable
        path = tmp_path / "mixed.csv"
        path.write_text("1.0,abc\n2.0,3.0\n4.0,5.0\n")
        with pytest.raises(DataError, match=r"unparsable cell at row 1, column 2: 'abc'"):
            load_market_csv(path)

    def test_csv_header_width_is_checked(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("a,b,c\n1.0,1.0\n1.0,1.0\n")
        with pytest.raises(DataError, match="row 1 has 3 cells, expected 2"):
            load_market_csv(path)

    def test_csv_nonpositive_cell(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("1.0,1.0\n1.0,0.0\n")
        with pytest.raises(DataError, match="row 2, column 2"):
            load_market_csv(path)

    @pytest.mark.parametrize("bad", ["0.0", "inf"])
    def test_csv_errors_name_the_file_line(self, tmp_path, bad):
        # the header is line 1 and a blank line still counts, so the bad
        # cell is on line 4 whether the positivity or the finiteness check
        # rejects it
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b\n1.0,1.0\n\n1.0,{bad}\n")
        with pytest.raises(DataError, match="row 4, column 2"):
            load_market_csv(path)

    def test_synthetic_market_positive_and_deterministic(self):
        a = synthetic_market(n_assets=5, n_days=100, seed=9)
        b = synthetic_market(n_assets=5, n_days=100, seed=9)
        np.testing.assert_array_equal(a.relatives, b.relatives)
        assert np.all(a.relatives > 0)
        assert a.n_assets == 5 and a.n_days == 100


class TestMoments:
    def test_constant_relatives_give_ridge_only(self):
        data = MarketData(relatives=np.ones((10, 2)))
        mu, sigma = estimate_moments(data, end_day=10, lookback_days=10)
        np.testing.assert_array_equal(mu, [0.0, 0.0])
        np.testing.assert_allclose(sigma, 1e-6 * np.eye(2))

    def test_identical_columns_fully_correlated(self):
        rng = np.random.default_rng(10)
        col = 1.0 + 0.01 * rng.standard_normal(50)
        data = MarketData(relatives=np.column_stack([col, col]))
        _, sigma = estimate_moments(data, end_day=50, lookback_days=50)
        assert sigma[0, 1] == pytest.approx(sigma[0, 0] - 1e-6, rel=1e-9)

    def test_gaussian_window_recovers_moments(self):
        rng = np.random.default_rng(11)
        true_mu = np.array([2e-3, -1e-3])
        cov = np.array([[4e-4, 1e-4], [1e-4, 2.25e-4]])
        returns = rng.multivariate_normal(true_mu, cov, size=5000)
        data = MarketData(relatives=1.0 + returns - returns.min() + 0.5)  # keep > 0
        # recompute returns from the shifted relatives to keep the test honest
        shift = -returns.min() + 0.5
        mu, sigma = estimate_moments(data, end_day=5000, lookback_days=5000)
        np.testing.assert_allclose(mu - shift, true_mu, atol=6e-4)
        np.testing.assert_allclose(sigma, cov + 1e-6 * np.eye(2), rtol=0.05)

    def test_symmetric_and_floored(self):
        data = synthetic_market(n_assets=6, n_days=300, seed=12)
        _, sigma = estimate_moments(data, end_day=200, lookback_days=90)
        np.testing.assert_array_equal(sigma, sigma.T)
        assert np.linalg.eigvalsh(sigma)[0] >= 0.99e-6

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_assets=st.integers(1, 6),
        lookback=st.integers(2, 60),
        before=st.integers(0, 30),
    )
    @example(seed=0, n_assets=1, lookback=2, before=0)
    @settings(max_examples=200, deadline=None)
    def test_equals_the_np_cov_formula_bit_for_bit(self, seed, n_assets, lookback, before):
        data = synthetic_market(n_assets=n_assets, n_days=lookback + before + 3, seed=seed)
        end_day = lookback + before
        mu, sigma = estimate_moments(data, end_day, lookback)
        ref_mu, ref_sigma = cov_moments(data.relatives, end_day, lookback, MOMENT_RIDGE)
        assert sigma.shape == (n_assets, n_assets)
        assert mu.tobytes() == ref_mu.tobytes()
        assert sigma.tobytes() == ref_sigma.tobytes()

    def test_window_bounds_checked(self):
        data = MarketData(relatives=np.ones((30, 2)))
        with pytest.raises(DataError, match="starts before"):
            estimate_moments(data, end_day=10, lookback_days=20)
        with pytest.raises(DataError, match="exceeds"):
            estimate_moments(data, end_day=40, lookback_days=10)
        with pytest.raises(DataError, match=">= 2"):
            estimate_moments(data, end_day=10, lookback_days=1)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_assets=st.integers(1, 6),
        lookback=st.integers(2, 60),
        offsets=st.lists(st.integers(0, 40), min_size=1, max_size=12),
    )
    @example(seed=0, n_assets=1, lookback=2, offsets=[0])
    @example(seed=1, n_assets=6, lookback=60, offsets=[40, 0, 40, 7])
    @settings(max_examples=150, deadline=None)
    def test_stacked_rows_equal_one_row_calls_bit_for_bit(self, seed, n_assets, lookback, offsets):
        # end days unsorted and repeated
        data = synthetic_market(n_assets=n_assets, n_days=lookback + 40, seed=seed)
        end_days = lookback + np.array(offsets)
        mu, sigma = estimate_moments(data, end_days, lookback)
        assert mu.shape == (len(end_days), n_assets)
        assert sigma.shape == (len(end_days), n_assets, n_assets)
        for i, end_day in enumerate(end_days):
            one_mu, one_sigma = estimate_moments(data, int(end_day), lookback)
            ref_mu, ref_sigma = cov_moments(data.relatives, end_day, lookback, MOMENT_RIDGE)
            assert mu[i].tobytes() == one_mu.tobytes() == ref_mu.tobytes()
            assert sigma[i].tobytes() == one_sigma.tobytes() == ref_sigma.tobytes()

    def test_stacked_window_bounds_name_the_offending_end_day(self):
        data = MarketData(relatives=np.ones((30, 2)))
        with pytest.raises(DataError, match="window of 20 days ending at day 12 starts before"):
            estimate_moments(data, end_day=[25, 12, 30, 5], lookback_days=20)
        with pytest.raises(DataError, match="end_day 31 exceeds the 30 available days"):
            estimate_moments(data, end_day=[10, 31, 30, 40], lookback_days=10)
        with pytest.raises(DataError, match="lookback_days must be >= 2"):
            estimate_moments(data, end_day=[10, 20], lookback_days=1)
        # a window ending on the last day is whole
        mu, sigma = estimate_moments(data, end_day=[20, 30], lookback_days=20)
        assert mu.shape == (2, 2) and sigma.shape == (2, 2, 2)
