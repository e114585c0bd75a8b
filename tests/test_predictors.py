import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poco.predictors import (
    DEFAULT_RIDGE,
    NoisyOracle,
    Persistence,
    RUN_BLOCK,
    PredictorNotReady,
    VarFit,
    VarPredictor,
    fit_var_yule_walker,
    aim_table,
    step_aim,
    var_forecast_table,
    var_forecasts,
)

from helpers import (
    oracle_predict,
    persistence_predict,
    sample_autocovariances,
    var_predict,
    yule_walker_reference,
)


def autocov_oracle(y, h):
    """Plain re-accumulation of the lag-h autocovariance matrix."""
    y = np.atleast_2d(np.asarray(y, dtype=float).T).T
    t_len = y.shape[0]
    ybar = y.mean(axis=0)
    acc = np.zeros((y.shape[1], y.shape[1]))
    for t in range(t_len - h):
        acc += np.outer(y[t + h] - ybar, y[t] - ybar)
    return acc / t_len


class TestAutocovariances:
    """The two-pass reference the all-prefix fits are checked against."""

    def test_matches_reaccumulation(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(30, 2)).cumsum(axis=0)
        gammas, ybar = sample_autocovariances(y, 3)
        np.testing.assert_allclose(ybar, y.mean(axis=0))
        for h in range(4):
            np.testing.assert_allclose(gammas[h], autocov_oracle(y, h), atol=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            sample_autocovariances(np.zeros(3), 3)


class TestYuleWalkerFit:
    def test_scalar_hand_solve(self):
        # for order 1 the system is gamma0 * phi = gamma1, so the fitted
        # coefficient must equal gamma1 / (gamma0 + ridge) exactly
        rng = np.random.default_rng(1)
        y = rng.normal(size=40).cumsum()
        fit = fit_var_yule_walker(y, 1, ridge=1e-8)
        g0 = autocov_oracle(y, 0)[0, 0]
        g1 = autocov_oracle(y, 1)[0, 0]
        assert fit.phis[0][0, 0] == pytest.approx(g1 / (g0 + 1e-8), rel=1e-12)

    @pytest.mark.parametrize("order", range(1, 7))
    def test_satisfies_the_ridged_yule_walker_equations(self, order):
        # sum_j Phi_j Gamma(i - j) + ridge Phi_i = Gamma(i), i = 1..k, with
        # Gamma(-h) = Gamma(h)' and the autocovariances re-accumulated
        rng = np.random.default_rng(10 + order)
        y = rng.normal(size=(50, 2)).cumsum(axis=0)
        ridge = 1e-3
        fit = fit_var_yule_walker(y, order, ridge=ridge)

        def gamma(h):
            return autocov_oracle(y, h) if h >= 0 else autocov_oracle(y, -h).T

        for i in range(1, order + 1):
            lhs = sum(fit.phis[j - 1] @ gamma(i - j) for j in range(1, order + 1))
            lhs = lhs + ridge * fit.phis[i - 1]
            np.testing.assert_allclose(lhs, gamma(i), rtol=1e-9, atol=1e-9 * abs(gamma(0)).max())

    def test_alternating_series_exact_ratio(self):
        # +-1 alternation of length T has gamma0 = 1 and gamma1 = -(T-1)/T
        # under the 1/T normalization, fixing the coefficient exactly
        y = np.array([1.0, -1.0] * 20)
        fit = fit_var_yule_walker(y, 1)
        assert fit.phis[0][0, 0] == pytest.approx(-39.0 / 40.0, abs=1e-6)

    def test_white_noise_coefficient_near_zero(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=20000)
        fit = fit_var_yule_walker(y, 1)
        assert abs(fit.phis[0][0, 0]) < 0.03
        pred = var_predict(fit, y)
        assert pred[0] == pytest.approx(y.mean(), abs=0.05)

    def test_ar2_recovery(self):
        rng = np.random.default_rng(3)
        phi = (0.5, -0.3)
        y = np.zeros(10000)
        eps = rng.standard_normal(10000)
        for t in range(2, 10000):
            y[t] = phi[0] * y[t - 1] + phi[1] * y[t - 2] + eps[t]
        fit = fit_var_yule_walker(y, 2)
        assert fit.phis[0][0, 0] == pytest.approx(0.5, abs=0.05)
        assert fit.phis[1][0, 0] == pytest.approx(-0.3, abs=0.05)

    def test_var1_recovery_multivariate(self):
        rng = np.random.default_rng(4)
        a = np.array([[0.6, -0.2], [0.1, 0.4]])
        y = np.zeros((20000, 2))
        for t in range(1, 20000):
            y[t] = a @ y[t - 1] + rng.standard_normal(2)
        fit = fit_var_yule_walker(y, 1)
        np.testing.assert_allclose(fit.phis[0], a, atol=0.05)

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=(60, 2)).cumsum(axis=0)
        shift = np.array([123.0, -45.0])
        fit_a = fit_var_yule_walker(y, 2)
        fit_b = fit_var_yule_walker(y + shift, 2)
        np.testing.assert_allclose(fit_a.phis, fit_b.phis, atol=1e-9)
        np.testing.assert_allclose(fit_a.mean + shift, fit_b.mean, atol=1e-9)

    @given(shift=st.floats(-1e4, 1e4, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_translation_invariance_property(self, shift):
        rng = np.random.default_rng(6)
        y = rng.normal(size=30).cumsum()
        fit_a = fit_var_yule_walker(y, 1)
        fit_b = fit_var_yule_walker(y + shift, 1)
        assert fit_a.phis[0][0, 0] == pytest.approx(fit_b.phis[0][0, 0], abs=1e-9)

    def test_constant_series_survives_via_ridge(self):
        fit = fit_var_yule_walker(np.full(20, 7.0), 2)
        np.testing.assert_allclose(fit.phis, 0.0, atol=1e-12)
        pred = var_predict(fit, np.full(20, 7.0))
        assert pred[0] == pytest.approx(7.0)

    def test_min_history_enforced(self):
        with pytest.raises(PredictorNotReady) as err:
            fit_var_yule_walker(np.zeros(4), 2)
        assert err.value.needed == 5


class TestFitVarOrders:
    """Several orders fit in one kernel pass, each as it fits alone."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_each_order_equals_its_own_fit(self, dim):
        rng = np.random.default_rng(30 + dim)
        y = rng.normal(size=(40, dim)).cumsum(axis=0)
        if dim == 1:
            y = y[:, 0]
        table = var_forecasts(y, range(1, 7))
        assert sorted(table) == [1, 2, 3, 4, 5, 6]
        for k, rows in table.items():
            assert rows.tobytes() == var_forecasts(y, [k])[k].tobytes()
            assert rows[40].tobytes() == VarPredictor(k).predict(y).tobytes()
            fit, want = fit_var_yule_walker(y, k), yule_walker_reference(y, k)
            np.testing.assert_allclose(fit.phis, want.phis, rtol=0, atol=1e-9)
            np.testing.assert_allclose(fit.mean, want.mean, rtol=1e-12)

    def test_orders_too_long_for_the_series_are_skipped(self):
        y = np.random.default_rng(33).normal(size=9)
        table = var_forecasts(y, (1, 2, 3, 4, 5, 6))
        fitted = [k for k, rows in table.items() if np.isfinite(rows[9]).all()]
        assert fitted == [1, 2, 3, 4]  # 2k+1 <= 9
        assert np.isnan(table[5]).all() and np.isnan(table[6]).all()
        assert all(np.isnan(rows).all() for rows in var_forecasts(y[:2], (1, 2)).values())

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError, match="order"):
            var_forecasts(np.zeros(10), (0, 1))
        with pytest.raises(ValueError, match="order"):
            fit_var_yule_walker(np.zeros(10), 0)

    def test_one_autocovariance_pass_for_all_orders(self, monkeypatch):
        import poco.predictors as predictors

        passes = []
        original = predictors._yule_walker

        def counting(y, orders, ridge, first):
            passes.append(list(orders))
            return original(y, orders, ridge, first)

        monkeypatch.setattr(predictors, "_yule_walker", counting)
        y = np.random.default_rng(34).normal(size=20)
        var_forecasts(y, range(1, 7))
        assert passes == [[1, 2, 3, 4, 5, 6]]
        passes.clear()
        for k in range(1, 7):
            fit_var_yule_walker(y, k)
        assert passes == [[1], [2], [3], [4], [5], [6]]


class TestVarPredictor:
    def test_known_phi_prediction(self):
        fit = VarFit(phis=np.array([[[0.5]]]), mean=np.array([0.0]))
        assert var_predict(fit, np.array([2.0]))[0] == pytest.approx(1.0)

    def test_not_ready_raises_with_requirement(self):
        p = VarPredictor(order=4, min_history=10)
        assert not p.ready(9)
        with pytest.raises(PredictorNotReady) as err:
            p.predict(np.zeros((9, 2)))
        assert err.value.needed == 10

    def test_min_history_floor(self):
        with pytest.raises(ValueError, match="2\\*order\\+1"):
            VarPredictor(order=4, min_history=5)

    def test_index_masking_passthrough(self):
        rng = np.random.default_rng(7)
        hist = rng.normal(size=(30, 3))
        p = VarPredictor(order=1, indices=(0, 1))
        out = p.predict(hist)
        assert out[2] == hist[-1, 2]
        full = VarPredictor(order=1)
        sub = full.predict(hist[:, :2])
        np.testing.assert_allclose(out[:2], sub)

    def test_predict_is_the_full_prefix_of_the_all_prefix_pass(self):
        # VarPredictor.predict and fit_var_yule_walker read the kernel at the
        # history's length: the forecast equals the var_forecasts row bit for
        # bit, and the fit's prediction within rounding
        rng = np.random.default_rng(14)
        hist = 50.0 + rng.normal(size=(25, 2)).cumsum(axis=0)
        got = VarPredictor(order=3).predict(hist)
        assert got.tobytes() == var_forecasts(hist, [3])[3][25].tobytes()
        want = var_predict(fit_var_yule_walker(hist, 3), hist)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_predict_depends_only_on_the_history(self):
        # one predictor serves many runs: a forecast never reuses the fit of
        # an earlier call, even one on a history of the same length
        rng = np.random.default_rng(8)
        first, other = rng.normal(size=(2, 30, 2)).cumsum(axis=1)
        p = VarPredictor(order=2)
        before = p.predict(first)
        p.predict(other)
        np.testing.assert_array_equal(p.predict(first), before)
        np.testing.assert_array_equal(p.predict(other), VarPredictor(order=2).predict(other))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        hist = rng.normal(size=(25, 2))
        a = VarPredictor(order=2).predict(hist)
        b = VarPredictor(order=2).predict(hist)
        np.testing.assert_array_equal(a, b)


# a roster entry: ("var", order, indices, extra min_history), a persistence
# expert, a noisy oracle with its noise scale, or a protocol-only double
# with its warm-up
_EXPERT = st.one_of(
    st.tuples(
        st.just("var"),
        st.integers(1, 6),
        st.sampled_from([None, (0,), (0, 1)]),
        st.integers(0, 4),
    ),
    st.just(("persistence",)),
    st.tuples(st.just("oracle"), st.sampled_from([0.0, 1.5])),
    st.tuples(st.just("double"), st.integers(0, 4)),
)


class _Scripted:
    """Test double with only ``ready`` and ``predict``: it aims at the sum
    of the history it is handed plus its length, so a wrong prefix shows."""

    def __init__(self, warmup):
        self.warmup = warmup

    def ready(self, n_obs):
        return n_obs >= self.warmup

    def predict(self, history):
        return history.sum(axis=0) + len(history)


def _roster(specs, dim, rng):
    out = []
    for spec in specs:
        if spec[0] == "var":
            _, order, indices, extra = spec
            out.append(VarPredictor(order, min_history=2 * order + 1 + extra, indices=indices))
        elif spec[0] == "persistence":
            out.append(Persistence())
        elif spec[0] == "oracle":
            # ready while fewer than 16 rows are observed
            truth = rng.normal(size=(16, dim))
            out.append(NoisyOracle(truth, spec[1], rng=np.random.default_rng(rng.integers(2**32))))
        else:
            out.append(_Scripted(spec[1]))
    return out


# the gate of the all-prefix forecasts against per-prefix refits, relative
# to the largest magnitude in the prefix
FORECAST_RTOL = 1e-10


class TestStepAims:
    """The aims of every pool step and descent step, from one aim table."""

    @settings(max_examples=150, deadline=None)
    @given(
        entries=st.lists(st.tuples(_EXPERT, st.integers(0, 22)), min_size=1, max_size=8),
        dim=st.integers(2, 3),
        # up to 20 rows crosses every threshold: 2*6+1+4 = 17 for VAR(6),
        # 16 for the oracle
        n_obs=st.integers(0, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_step_aim_bit_for_bit(self, entries, dim, n_obs, seed):
        # column i holds step_aim(predictor, observed[:n]) from its start row
        # on, bit for bit, asked in round order, so a noisy oracle draws the
        # same noise and draws nothing before its expert joins.  A ready VAR
        # expert's entry is also the run's forecast-table row, and within
        # the forecast tolerance of the two-pass reference fit.  A ready
        # persistence or oracle expert's entry is also the scalar aim rule's,
        # asked of a third roster in the same order, so the oracle's noise
        # stream is checked against an independent draw
        specs, starts = zip(*entries)
        hist = np.random.default_rng(seed).normal(size=(n_obs, dim)).cumsum(axis=0)
        aims, aimed = aim_table(_roster(specs, dim, np.random.default_rng(seed)), hist, starts)
        twins = _roster(specs, dim, np.random.default_rng(seed))
        refs = _roster(specs, dim, np.random.default_rng(seed))
        forecasts = var_forecast_table(twins, hist)
        assert aims.shape == (n_obs + 1, len(specs), dim)
        for i, (twin, ref, first) in enumerate(zip(twins, refs, starts)):
            for n in range(n_obs + 1):
                want = None if n < first else step_aim(twin, hist[:n])
                assert aimed[n, i] == (want is not None)
                if want is None:
                    assert np.isnan(aims[n, i]).all()
                    continue
                assert aims[n, i].tobytes() == np.asarray(want, dtype=float).tobytes()
                if isinstance(ref, Persistence) and ref.ready(n):
                    assert aims[n, i].tobytes() == persistence_predict(hist[:n]).tobytes()
                if isinstance(ref, NoisyOracle) and ref.ready(n):
                    assert aims[n, i].tobytes() == oracle_predict(ref, hist[:n]).tobytes()
                if isinstance(twin, VarPredictor) and twin.ready(n):
                    cols = slice(None) if twin.indices is None else list(twin.indices)
                    read = hist[n - 1].copy()
                    read[cols] = forecasts[twin.indices][twin.order][n]
                    assert aims[n, i].tobytes() == read.tobytes()
                    if _well_posed(n, twin.order, read[cols].size):
                        sub = hist[:n, cols]
                        ref = var_predict(yule_walker_reference(sub, twin.order), sub)
                        scale = np.abs(hist[:n]).max()
                        assert np.abs(aims[n, i, cols] - ref).max() <= FORECAST_RTOL * scale

    def test_empty_history(self):
        # only the oracle, which looks its value up, has an aim
        truth = np.arange(6.0).reshape(3, 2)
        predictors = [VarPredictor(1), Persistence(), NoisyOracle(truth)]
        aims, aimed = aim_table(predictors, np.zeros((0, 2)))
        assert aims.shape == (1, 3, 2)
        assert np.array_equal(aimed[0], [False, False, True])
        assert np.isnan(aims[0, :2]).all() and np.array_equal(aims[0, 2], truth[0])

    def test_one_fit_per_coordinate_subset(self, monkeypatch):
        # one all-prefix pass per table and coordinate subset, over every
        # order the subset's experts hold; nothing refits per prefix
        import poco.predictors as predictors

        calls, passes = [], []
        original = predictors.var_forecasts
        kernel = predictors._yule_walker

        def counting(series, orders, *args, **kwargs):
            calls.append((np.shape(series)[-1], sorted(orders)))
            return original(series, orders, *args, **kwargs)

        def counting_pass(y, orders, ridge, first):
            passes.append((y.shape[-1], list(orders)))
            return kernel(y, orders, ridge, first)

        monkeypatch.setattr(predictors, "var_forecasts", counting)
        monkeypatch.setattr(predictors, "_yule_walker", counting_pass)
        roster = [
            VarPredictor(1), VarPredictor(3, indices=[0]), VarPredictor(2),
            VarPredictor(6), Persistence(), VarPredictor(2, indices=[0]),
        ]
        hist = np.random.default_rng(35).normal(size=(9, 2)).cumsum(axis=0)
        aims, aimed = aim_table(roster, hist)
        assert sorted(calls) == [(1, [2, 3]), (2, [1, 2, 6])]
        # VAR(6) is not ready within 9 rows, so its group fits orders 1 and 2
        assert sorted(passes) == [(1, [2, 3]), (2, [1, 2])]
        # VAR(6) needs 13 rows and aims at the last observation throughout
        assert aimed[1:].all() and not aimed[0].any()
        np.testing.assert_array_equal(aims[1:, 3], hist)


def _well_posed(n, k, d):
    """Prefixes with more than two observations per coefficient of each
    equation.  On shorter ones the (ridged) Yule-Walker system has a
    condition number beyond 1e8 and any two roundings of it differ by more
    than the gate, including two runs of the reference itself on
    differently ordered sums."""
    return n > 2 * k * d


class TestVarForecasts:
    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.integers(1, 3),
        orders=st.sets(st.integers(1, 6), min_size=1, max_size=6),
        length=st.integers(1, 40),
        ridge=st.sampled_from([0.0, DEFAULT_RIDGE]),
        level=st.sampled_from([0.0, 50.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_prefix_fits(self, dim, orders, length, ridge, level, seed):
        # a random walk around a common level, so the shifted cross-product
        # sums are tested where the raw ones would cancel
        rng = np.random.default_rng(seed)
        y = level + rng.normal(size=(length, dim)).cumsum(axis=0)
        try:
            got = var_forecasts(y, orders, ridge)
        except ValueError as exc:
            # without a ridge, the first prefixes of a 3-d series are singular
            assert ridge == 0.0 and "singular" in str(exc)
            assume(False)
        assert sorted(got) == sorted(orders)
        for k in orders:
            assert got[k].shape == (length + 1, dim)
            assert np.isnan(got[k][: 2 * k + 1]).all()
            assert np.isfinite(got[k][2 * k + 1 :]).all()
            for n in range(2 * k + 1, length + 1):
                if not _well_posed(n, k, dim):
                    continue
                want = var_predict(yule_walker_reference(y[:n], k, ridge), y[:n])
                scale = np.abs(y[:n]).max()
                assert np.abs(got[k][n] - want).max() <= FORECAST_RTOL * scale

    @settings(max_examples=40, deadline=None)
    @given(
        specs=st.lists(_EXPERT, min_size=1, max_size=6),
        length=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_table_matches_var_predictor(self, specs, length, seed):
        # every VAR expert's table row is its VarPredictor.predict forecast
        # on that prefix, over its coordinate subset, bit for bit
        rng = np.random.default_rng(seed)
        predictors = _roster(specs, 3, rng)
        hist = rng.normal(size=(length, 3)).cumsum(axis=0)
        table = var_forecast_table(predictors, hist)
        for p in predictors:
            if not isinstance(p, VarPredictor):
                continue
            cols = slice(None) if p.indices is None else list(p.indices)
            for n in range(p.min_history, length + 1):
                want = p.predict(hist[:n])[cols]
                assert table[p.indices][p.order][n].tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 3),
        length=st.integers(2, 30),
        cut=st.integers(0, 29),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_no_look_ahead(self, dim, length, cut, seed):
        # rows >= n never reach the forecast after n rows, bit for bit
        n = min(cut, length - 1)
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(length, dim)).cumsum(axis=0)
        other = y.copy()
        other[n:] = rng.normal(size=(length - n, dim)) * 1e3
        a, b = var_forecasts(y, range(1, 7)), var_forecasts(other, range(1, 7))
        for k in range(1, 7):
            assert np.array_equal(a[k][: n + 1], b[k][: n + 1], equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 3),
        # up to two full blocks of runs and one more: every block boundary
        n_runs=st.one_of(st.integers(1, 5), st.sampled_from([RUN_BLOCK + 1, 2 * RUN_BLOCK + 1])),
        length=st.integers(1, 30),
        cut=st.integers(0, 30),
        specs=st.lists(st.tuples(_EXPERT, st.integers(0, 22)), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_rows_equal_single_series(self, dim, n_runs, length, cut, specs, seed):
        # row r of a stacked var_forecasts and aim_table equals the call on
        # series r alone, and the rows of a prefix equal the call on the
        # prefix, bit for bit, whichever block of runs r falls in; each
        # noisy oracle draws its runs in order
        rng = np.random.default_rng(seed)
        stack = 50.0 + rng.normal(size=(n_runs, length, dim)).cumsum(axis=1)
        table = var_forecasts(stack, range(1, 7))
        n = min(cut, length)
        for r in range(n_runs):
            alone = var_forecasts(stack[r], range(1, 7))
            short = var_forecasts(stack[r, :n], range(1, 7))
            for k in range(1, 7):
                assert table[k][r].tobytes() == alone[k].tobytes()
                assert table[k][r, : n + 1].tobytes() == short[k].tobytes()
        experts, starts = zip(*specs)
        # a VAR expert models the coordinates the series has
        experts = [
            (e[0], e[1], None, e[3]) if e[0] == "var" and e[2] and max(e[2]) >= dim else e
            for e in experts
        ]
        aims, aimed = aim_table(_roster(experts, dim, np.random.default_rng(seed)), stack, starts)
        assert aims.shape == (n_runs, length + 1, len(experts), dim)
        twins = _roster(experts, dim, np.random.default_rng(seed))
        for r in range(n_runs):
            want, want_aimed = aim_table(twins, stack[r], starts)
            assert aims[r].tobytes() == want.tobytes()
            assert np.array_equal(aimed, want_aimed)

    def test_stack_passes_hold_one_block_of_runs(self, monkeypatch):
        # a stack is fitted in passes over at most RUN_BLOCK runs, in order,
        # so the systems held at once do not grow with the stack
        import poco.predictors as predictors

        blocks = []
        kernel = predictors._yule_walker

        def counting_pass(y, orders, ridge, first):
            blocks.append(y.shape[0])
            return kernel(y, orders, ridge, first)

        monkeypatch.setattr(predictors, "_yule_walker", counting_pass)
        stack = np.random.default_rng(38).normal(size=(2 * RUN_BLOCK + 1, 12, 2)).cumsum(axis=1)
        var_forecasts(stack, [1, 2])
        assert blocks == [RUN_BLOCK, RUN_BLOCK, 1]

    def test_one_dimensional_series(self):
        y = np.random.default_rng(37).normal(size=20).cumsum()
        got = var_forecasts(y, [2])[2]
        assert got.shape == (21, 1)
        want = var_predict(yule_walker_reference(y, 2), y)
        assert np.abs(got[20] - want).max() <= FORECAST_RTOL * np.abs(y).max()
        assert got[20].tobytes() == VarPredictor(2).predict(y).tobytes()

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError, match="order must be >= 1"):
            var_forecasts(np.zeros((10, 1)), [0, 1])


class TestOneAimRule:
    """Every built-in predictor's ``predict`` is its own aim-table row: one
    ``aim_table`` call for itself alone, at the history's length only, so
    no second copy of an aim rule answers in its place."""

    @staticmethod
    def _cases():
        from poco.experiments import MarkowitzModelPredictor, MomentCache, RiskForecastCache
        from poco.scenarios import synthetic_market

        hist = np.random.default_rng(36).normal(size=(9, 2)).cumsum(axis=0)
        moments = MomentCache(synthetic_market(n_assets=3, n_days=200, seed=8), 20, 10, [20])
        risk = np.random.default_rng(37).normal(size=9)
        model = MarkowitzModelPredictor(moments, 20, 2, RiskForecastCache([2], risk))
        return [
            (VarPredictor(2), hist),
            (VarPredictor(1, indices=[1]), hist),
            (Persistence(), hist),
            (NoisyOracle(np.ones((12, 2)), 1.5, rng=3), hist),
            (model, np.column_stack([moments.slot(np.arange(1, 10), 20), risk])),
        ]

    @pytest.mark.parametrize("n", [5, 9])
    def test_predict_makes_one_aim_table_call(self, monkeypatch, n):
        import poco.experiments as experiments
        import poco.predictors as predictors

        calls = []

        def recording(roster, observed, starts=None):
            out = aim_table(roster, observed, starts)
            calls.append((list(roster), len(observed), starts, out))
            return out

        monkeypatch.setattr(predictors, "aim_table", recording)
        monkeypatch.setattr(experiments, "aim_table", recording)
        for predictor, observed in self._cases():
            calls.clear()
            got = predictor.predict(observed[:n])
            assert len(calls) == 1, type(predictor).__name__
            roster, length, starts, (aims, aimed) = calls[0]
            assert roster == [predictor] and length == n and list(starts) == [n]
            assert aimed[-1, 0] and got.tobytes() == aims[-1, 0].tobytes()

    def test_model_predictor_is_not_ready_before_an_observation(self):
        model = self._cases()[-1][0]
        with pytest.raises(PredictorNotReady) as info:
            model.predict(np.empty((0, 2)))
        assert (info.value.needed, info.value.have) == (1, 0)

    @pytest.mark.parametrize("empty", [[], np.empty((0, 2))], ids=["list", "array"])
    def test_oracle_reads_an_empty_history_as_rows_of_the_truth(self, empty):
        oracle = NoisyOracle(np.arange(10.0).reshape(5, 2))
        np.testing.assert_array_equal(oracle.predict(empty), [0.0, 1.0])


class TestPersistence:
    def test_repeats_last(self):
        p = Persistence()
        np.testing.assert_array_equal(
            p.predict(np.array([[1.0, 2.0], [3.0, 4.0], [3.0, 4.0, ]])),
            [3.0, 4.0],
        )

    def test_spec_example(self):
        p = Persistence()
        np.testing.assert_array_equal(p.predict(np.array([[3.0, 4.0, 5.0]])), [3.0, 4.0, 5.0])


class TestNoisyOracle:
    def test_zero_noise_is_exact(self):
        truth = np.arange(12.0).reshape(4, 3)
        oracle = NoisyOracle(truth, 0.0)
        np.testing.assert_array_equal(oracle.predict(truth[:2]), truth[2])
        hats = np.stack([oracle.predict(truth[:t]) for t in range(0, 4)])
        np.testing.assert_array_equal(hats, truth)

    def test_exhausted_truth(self):
        oracle = NoisyOracle(np.zeros((3, 2)), 0.0)
        assert not oracle.ready(3)
        with pytest.raises(PredictorNotReady):
            oracle.predict(np.zeros((3, 2)))

    def test_noise_norm_matches_gaussian_mean(self):
        # mean of ||N(0, s^2 I_m)|| is s*sqrt(2)*Gamma((m+1)/2)/Gamma(m/2)
        m, s = 3, 2.0
        truth = np.zeros((10001, m))
        oracle = NoisyOracle(truth, s, rng=np.random.default_rng(10))
        errs = [np.linalg.norm(oracle.predict(truth[:1])) for _ in range(10000)]
        analytic = s * math.sqrt(2.0) * math.gamma((m + 1) / 2) / math.gamma(m / 2)
        assert np.mean(errs) == pytest.approx(analytic, rel=0.05)

    def test_deterministic_given_rng_state(self):
        truth = np.ones((5, 2))
        a = NoisyOracle(truth, 1.0, rng=np.random.default_rng(11)).predict(truth[:1])
        b = NoisyOracle(truth, 1.0, rng=np.random.default_rng(11)).predict(truth[:1])
        np.testing.assert_array_equal(a, b)


class TestPredictionRegularity:
    """P^theta is read off the run record (``Trajectory.p_theta_by_expert``):
    the sum over t >= 2 of ||theta_t - theta_hat_t||, in round order."""

    ETA, X1 = 1.0 / 200.0, [0.0, 40.0]

    @staticmethod
    def _setup():
        from poco.domains import EuclideanBall
        from poco.objectives import QuadraticTracking
        from poco.scenarios import SwitchingProcessSpec, gen_switching

        family = QuadraticTracking((100.0, 1.0))
        cset = EuclideanBall(center=np.zeros(2), radius=50.0)
        return family, cset, gen_switching(SwitchingProcessSpec(horizon=200), 12)

    def _descent(self, predictor):
        from poco.descent import DescentConfig, run_predictive_ogd

        family, cset, thetas = self._setup()
        return run_predictive_ogd(
            family, cset, thetas, DescentConfig(self.ETA), self.X1, predictor=predictor
        )

    def test_perfect(self):
        # a zero-noise oracle predicts every round exactly
        traj = self._descent(NoisyOracle(self._setup()[2], 0.0))
        assert traj.aimed[1:].all()
        assert traj.p_theta == 0.0 and traj.p_theta_by_expert.tolist() == [0.0]

    def test_first_entry_never_scored(self):
        from poco.smad import ExpertPool, run_smad

        family, cset, thetas = self._setup()
        wrong_first = thetas.copy()
        wrong_first[0] += 99.0
        # a descent run first aims in round 2: round 1 has no prediction
        traj = self._descent(NoisyOracle(wrong_first, 0.0))
        assert not traj.aimed[0].any() and traj.p_theta == 0.0
        # a day-one pool expert aims in round 1 too, but that error is the
        # starting gap's
        pool = ExpertPool(beta=0.2, gamma=1.0, eta=self.ETA)
        pooled = run_smad(
            family, cset, thetas, pool, self.X1, roster=[(1, NoisyOracle(wrong_first, 0.0))]
        )
        assert pooled.aimed[0, 0] and pooled.p_theta == 0.0
        # round 2 is scored
        wrong_second = thetas.copy()
        wrong_second[1] += 3.0
        traj = self._descent(NoisyOracle(wrong_second, 0.0))
        assert traj.p_theta == np.linalg.norm(wrong_second[1] - thetas[1]) > 0.0

    def test_matches_reaccumulation(self):
        # the round-order running sum of the per-round errors, bit for bit
        thetas = self._setup()[2]
        for predictor in (
            VarPredictor(order=2, indices=(0, 1)),
            NoisyOracle(thetas, 1.0, rng=np.random.default_rng(13)),
        ):
            traj = self._descent(predictor)
            errors = np.linalg.norm(traj.thetas - traj.theta_hats, axis=1)
            total = 0.0
            for t in range(2, traj.horizon + 1):
                total += errors[t - 1]
            assert total > 0.0 and traj.p_theta == total
