"""Input checks of the Yule-Walker fit.

A NaN or inf in a modeled coordinate must stop the fit with an error that
names the cause, in the per-history fits and in the all-prefix forecasts a
run makes before its loop; the CLI rejects such a CSV cell before any fit,
as a data error naming its row and column.  A degenerate system must still
be reported as singular.  Inputs that never reach a fit (too short for any
order, non-finite only in unmodeled coordinates, or only in the last
parameter of a run, which no round observes before its step) are not
rejected by a fit; a run refuses every non-finite parameter at its entry.
"""

import numpy as np
import pytest

from poco.cli import EXIT_DATA, main
from poco.descent import DescentConfig, run_predictive_ogd
from poco.domains import EuclideanBall
from poco.objectives import QuadraticTracking
from poco.predictors import (
    VarPredictor,
    aim_table,
    fit_var_yule_walker,
    var_forecast_table,
    var_forecasts,
)
from poco.smad import ExpertPool, run_smad

NON_FINITE = r"NaN.*inf|inf.*NaN"

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _series(bad, row=7, col=0, dim=2):
    y = np.random.default_rng(3).normal(size=(30, dim)).cumsum(axis=0)
    y[row, col] = bad
    return y


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
class TestNonFiniteSeries:
    def test_stacked_var_forecasts(self, bad):
        # one bad series stops the pass over the whole stack
        with pytest.raises(ValueError, match=NON_FINITE):
            var_forecasts(np.stack([_series(1.0), _series(bad)]), (1, 2, 3))

    def test_fit_var_yule_walker(self, bad):
        with pytest.raises(ValueError, match=NON_FINITE):
            fit_var_yule_walker(_series(bad, row=29, col=1), 2)

    def test_var_predictor(self, bad):
        with pytest.raises(ValueError, match=NON_FINITE):
            VarPredictor(order=2).predict(_series(bad))

    def test_unmodeled_coordinate_is_not_checked(self, bad):
        pred = VarPredictor(order=2, indices=[1]).predict(_series(bad, col=0))
        assert np.isfinite(pred[1])

    def test_no_order_ready_means_no_check(self, bad):
        table = var_forecasts(_series(bad)[:4], (2, 3))
        assert sorted(table) == [2, 3]
        assert all(np.isnan(rows).all() for rows in table.values())

    def test_var_forecasts(self, bad):
        with pytest.raises(ValueError, match=NON_FINITE):
            var_forecasts(_series(bad), (1, 2, 3))

    def test_expert_pool_step(self, bad):
        # the run's aim table checks the history as each expert's own fit
        # did
        pool = ExpertPool(beta=0.2, gamma=1.0, eta=0.5)
        pool.activate([VarPredictor(order=1), VarPredictor(order=2)], np.zeros(2), t=1)
        family = QuadraticTracking([1.0, 1.0])
        series = _series(bad)
        with pytest.raises(ValueError, match=NON_FINITE):
            aims, aimed = aim_table(pool.predictors, series)
            pool.step(
                family, EuclideanBall(np.zeros(2), 10.0), np.zeros(2), aims[-1], aimed[-1]
            )

    def test_pool_run(self, bad):
        with pytest.raises(ValueError, match=NON_FINITE):
            _pool_run(_series(bad, row=20, dim=3))

    def test_descent_run(self, bad):
        with pytest.raises(ValueError, match=NON_FINITE):
            _descent_run(
                _series(bad, row=20, col=1, dim=3), VarPredictor(order=2, indices=[0, 1])
            )

    def test_unmodeled_coordinate_of_a_run_is_not_checked(self, bad):
        # a tracking parameter is (target, loss offset); the offset in
        # column 2 is charged, never forecast, so no fit checks it; the run
        # refuses it at its entry, as any non-finite parameter
        thetas = _series(bad, row=20, col=2, dim=3)
        predictor = VarPredictor(order=2, indices=[0, 1])
        aims, aimed = aim_table([predictor], thetas[:-1], starts=[1])
        assert np.isfinite(aims[aimed][:, :2]).all()
        table = var_forecast_table([predictor], thetas[:-1])
        assert np.isfinite(table[(0, 1)][2][5:]).all()
        with pytest.raises(ValueError, match="repetition 0: parameter row 20 must be finite"):
            _descent_run(thetas, predictor)

    def test_last_parameter_is_never_observed(self, bad):
        # no step follows the last round, so a run's aims, and every fit,
        # read only the record before it; the run refuses it at its entry,
        # as any non-finite parameter
        thetas = _series(bad, row=29, col=1, dim=3)
        predictor = VarPredictor(order=2, indices=[0, 1])
        aims, aimed = aim_table([predictor], thetas[:-1], starts=[1])
        assert np.isfinite(aims[aimed]).all()
        table = var_forecast_table([predictor], thetas[:-1])
        assert np.isfinite(table[(0, 1)][2][5:]).all()
        with pytest.raises(ValueError, match="repetition 0: parameter row 29 must be finite"):
            _descent_run(thetas, predictor)


def _descent_run(thetas, predictor):
    family = QuadraticTracking([1.0, 1.0])
    cset = EuclideanBall(np.zeros(2), 1e3)
    return run_predictive_ogd(
        family, cset, thetas, DescentConfig(0.01), np.zeros(2), predictor=predictor
    )


def _pool_run(thetas):
    family = QuadraticTracking([1.0, 1.0])
    cset = EuclideanBall(np.zeros(2), 1e3)
    pool = ExpertPool(beta=0.2, gamma=1e-3, eta=0.01)
    roster = [(1, VarPredictor(order=1, indices=[0, 1])), (3, VarPredictor(order=2))]
    return run_smad(family, cset, thetas, pool, np.zeros(2), roster=roster)


def test_overflowing_autocovariances_are_rejected():
    with pytest.raises(ValueError, match=NON_FINITE):
        var_forecasts(_series(1.0) * 1e160, (1, 2))


@pytest.mark.parametrize("ridge", [np.nan, np.inf])
def test_non_finite_ridge_is_rejected(ridge):
    with pytest.raises(ValueError):
        fit_var_yule_walker(_series(1.0), 2, ridge=ridge)


def test_fit_ar_with_nan_cell_is_a_data_error(tmp_path, capsys):
    values = [str(v) for v in np.random.default_rng(0).normal(size=40).cumsum()]
    values[12] = "nan"
    path = tmp_path / "series.csv"
    path.write_text("\n".join(values))
    assert main(["fit-ar", "--csv", str(path), "--order", "2"]) == EXIT_DATA
    captured = capsys.readouterr()
    assert "phi[1]" not in captured.out
    assert captured.err.startswith("data error: ")
    assert "row 13, column 1" in captured.err


def test_constant_series_without_ridge_is_singular():
    with pytest.raises(ValueError, match="singular even with ridge"):
        fit_var_yule_walker(np.full((20, 2), 3.0), 2, ridge=0.0)
    with pytest.raises(ValueError, match="singular even with ridge"):
        var_forecasts(np.full((2, 20, 2), 3.0), (1, 2, 3), ridge=0.0)
    with pytest.raises(ValueError, match="singular even with ridge"):
        var_forecasts(np.full((20, 2), 3.0), (1, 2, 3), ridge=0.0)


def test_constant_prefix_without_ridge_is_singular():
    # a series that only varies late still has singular early prefixes
    series = np.full((20, 2), 3.0)
    series[15:] = np.random.default_rng(4).normal(size=(5, 2))
    with pytest.raises(ValueError, match="singular even with ridge"):
        var_forecasts(series, (1, 2), ridge=0.0)
    assert np.isfinite(var_forecasts(series, (1, 2))[2][5:]).all()
