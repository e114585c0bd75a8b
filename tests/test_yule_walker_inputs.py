"""Input checks of the Yule-Walker fit.

A NaN or inf in a modeled coordinate must stop the fit with an error that
names the cause, at the library entry points and at the CLI; a degenerate
system must still be reported as singular.  Inputs that never reach a fit
(too short for any order, or non-finite only in unmodeled coordinates) are
not rejected.
"""

import numpy as np
import pytest

from poco.cli import EXIT_RUNTIME, main
from poco.predictors import VarPredictor, fit_var_orders, fit_var_yule_walker

NON_FINITE = r"NaN.*inf|inf.*NaN"

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _series(bad, row=7, col=0):
    y = np.random.default_rng(3).normal(size=(30, 2)).cumsum(axis=0)
    y[row, col] = bad
    return y


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
class TestNonFiniteSeries:
    def test_fit_var_orders(self, bad):
        with pytest.raises(ValueError, match=NON_FINITE):
            fit_var_orders(_series(bad), (1, 2, 3))

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
        assert fit_var_orders(_series(bad)[:4], (2, 3)) == {}


def test_overflowing_autocovariances_are_rejected():
    with pytest.raises(ValueError, match=NON_FINITE):
        fit_var_orders(_series(1.0) * 1e160, (1, 2))


@pytest.mark.parametrize("ridge", [np.nan, np.inf])
def test_non_finite_ridge_is_rejected(ridge):
    with pytest.raises(ValueError):
        fit_var_yule_walker(_series(1.0), 2, ridge=ridge)


def test_fit_ar_with_nan_cell_exits_runtime(tmp_path, capsys):
    values = [str(v) for v in np.random.default_rng(0).normal(size=40).cumsum()]
    values[12] = "nan"
    path = tmp_path / "series.csv"
    path.write_text("\n".join(values))
    assert main(["fit-ar", "--csv", str(path), "--order", "2"]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert "phi[1]" not in captured.out
    assert captured.err.startswith("error: ")
    assert "NaN" in captured.err


def test_constant_series_without_ridge_is_singular():
    with pytest.raises(ValueError, match="singular even with ridge"):
        fit_var_yule_walker(np.full((20, 2), 3.0), 2, ridge=0.0)
