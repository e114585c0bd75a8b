import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from poco.domains import (
    DegenerateProjectionWarning,
    EuclideanBall,
    UnitSimplex,
    project_simplex_sorted_rows,
)

from helpers import (
    reference_simplex_sorted_rows,
    reference_tracking_minimizers,
    scalar_project,
    simplex_mesh_projection,
)
from poco.cli import main
from poco.objectives import QuadraticTracking
from poco.regret import minimizers_batch

# an overflow inside a projection fails the test instead of printing a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

moderate_floats = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


class TestEuclideanBall:
    def test_interior_point_fixed(self):
        ball = EuclideanBall(center=np.zeros(2), radius=50.0)
        np.testing.assert_array_equal(ball.project([0.0, 0.0]), [0.0, 0.0])

    def test_radial_scaling(self):
        ball = EuclideanBall(center=np.zeros(2), radius=50.0)
        np.testing.assert_allclose(ball.project([100.0, 0.0]), [50.0, 0.0])

    def test_membership_boundary(self):
        ball = EuclideanBall(center=np.zeros(2), radius=50.0)
        assert ball.contains([30.0, 40.0], tol=1e-9)
        assert not ball.contains([30.0, 40.1], tol=1e-9)

    def test_offcenter(self):
        ball = EuclideanBall(center=np.array([1.0, 1.0]), radius=2.0)
        proj = ball.project([5.0, 1.0])
        np.testing.assert_allclose(proj, [3.0, 1.0])

    def test_dimension_mismatch(self):
        ball = EuclideanBall(center=np.zeros(2), radius=1.0)
        with pytest.raises(ValueError, match="length-2"):
            ball.project([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            ball.contains([1.0])

    def test_nonfinite_rejected(self):
        ball = EuclideanBall(center=np.zeros(2), radius=1.0)
        # the row call's one finiteness scan names the cause
        with pytest.raises(ValueError, match="row 0 must be finite"):
            ball.project([np.nan, 0.0])

    def test_bad_radius(self):
        with pytest.raises(ValueError, match="radius"):
            EuclideanBall(center=np.zeros(2), radius=0.0)

    def test_bad_dimension(self):
        # like UnitSimplex(0): a set with no coordinates has no point to play
        with pytest.raises(ValueError, match="dimension >= 1"):
            EuclideanBall(center=np.zeros(0), radius=1.0)

    def test_project_rows_matches_scalar(self):
        rng = np.random.default_rng(3)
        ball = EuclideanBall(center=rng.normal(size=3), radius=1.5)
        vs = rng.normal(scale=4.0, size=(40, 3))
        rows = ball.project_rows(vs)
        for v, row in zip(vs, rows):
            np.testing.assert_allclose(row, scalar_project(ball, v), atol=1e-14)

    def test_nonexpansive_thousand_pairs(self):
        rng = np.random.default_rng(11)
        ball = EuclideanBall(center=np.array([0.5, -1.0, 2.0]), radius=3.0)
        for _ in range(1000):
            u = rng.normal(scale=10.0, size=3)
            v = rng.normal(scale=10.0, size=3)
            lhs = np.linalg.norm(ball.project(u) - ball.project(v))
            assert lhs <= np.linalg.norm(u - v) + 1e-10

    @given(v=arrays(np.float64, 3, elements=moderate_floats))
    def test_idempotent_and_member(self, v):
        ball = EuclideanBall(center=np.zeros(3), radius=2.0)
        p = ball.project(v)
        assert ball.contains(p, tol=1e-12)
        np.testing.assert_allclose(ball.project(p), p, atol=1e-12)


class TestUnitSimplexExact:
    def test_vertex_example(self):
        s = UnitSimplex(3)
        np.testing.assert_allclose(s.project([2.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_membership_examples(self):
        s = UnitSimplex(2)
        assert s.contains([0.5, 0.5], tol=1e-9)
        assert not s.contains([0.6, 0.6], tol=1e-9)
        assert not s.contains([-0.1, 1.1], tol=1e-9)

    def test_matches_mesh_oracle_dim3(self):
        s = UnitSimplex(3)
        rng = np.random.default_rng(21)
        vectors = [np.array([2.0, 0.0, 0.0]), np.array([-1.0, 0.2, 0.4])]
        vectors += [rng.normal(scale=1.5, size=3) for _ in range(2)]
        for v in vectors:
            mesh = simplex_mesh_projection(v, step=4e-4)
            assert np.linalg.norm(s.project(v) - mesh) <= 1e-3

    def test_matches_mesh_oracle_dim2(self):
        s = UnitSimplex(2)
        for v in ([3.0, -1.0], [0.2, 0.1], [-5.0, -4.0]):
            mesh = simplex_mesh_projection(np.asarray(v), step=1e-5)
            assert np.linalg.norm(s.project(v) - mesh) <= 1e-4

    def test_nonexpansive_thousand_pairs(self):
        rng = np.random.default_rng(13)
        s = UnitSimplex(4)
        for _ in range(1000):
            u = rng.normal(scale=5.0, size=4)
            v = rng.normal(scale=5.0, size=4)
            lhs = np.linalg.norm(s.project(u) - s.project(v))
            assert lhs <= np.linalg.norm(u - v) + 1e-10

    @given(v=arrays(np.float64, 4, elements=moderate_floats))
    @settings(max_examples=200)
    def test_idempotent_and_member(self, v):
        s = UnitSimplex(4)
        p = s.project(v)
        assert s.contains(p, tol=1e-12)
        np.testing.assert_allclose(s.project(p), p, atol=1e-12)

    def test_project_rows_matches_scalar(self):
        rng = np.random.default_rng(17)
        s = UnitSimplex(5)
        vs = rng.normal(scale=3.0, size=(60, 5))
        rows = s.project_rows(vs)
        for v, row in zip(vs, rows):
            np.testing.assert_allclose(row, scalar_project(s, v), atol=1e-14)
        alt = project_simplex_sorted_rows(vs)
        np.testing.assert_allclose(alt, rows, atol=0)

    def test_bad_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            UnitSimplex(0)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="projection mode"):
            UnitSimplex(3, mode="fancy")


class TestUnitSimplexRenormalize:
    def test_stated_rule(self):
        s = UnitSimplex(3, mode="renormalize")
        np.testing.assert_allclose(s.project([-1.0, 1.0, 1.0]), [0.0, 0.5, 0.5])

    @given(v=arrays(np.float64, 4, elements=moderate_floats))
    @settings(max_examples=200)
    def test_output_on_simplex(self, v):
        s = UnitSimplex(4, mode="renormalize")
        with np.errstate(all="ignore"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateProjectionWarning)
                p = s.project(v)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_degenerate_input_warns_and_returns_uniform(self):
        s = UnitSimplex(4, mode="renormalize")
        with pytest.warns(DegenerateProjectionWarning):
            p = s.project([-1.0, -2.0, 0.0, -0.5])
        np.testing.assert_allclose(p, np.full(4, 0.25))

    def test_not_nonexpansive_exists(self):
        # the heuristic genuinely moves nearby points apart; this documents
        # why bound checks refuse it rather than asserting a property
        s = UnitSimplex(2, mode="renormalize")
        u = np.array([0.1, 0.1])
        v = np.array([0.1, 0.2])
        spread = np.linalg.norm(s.project(u) - s.project(v))
        assert spread > np.linalg.norm(u - v)
        assert not s.nonexpansive

    def test_project_rows_matches_scalar(self):
        rng = np.random.default_rng(29)
        s = UnitSimplex(5, mode="renormalize")
        vs = rng.normal(scale=3.0, size=(60, 5))
        vs[7] = -np.abs(vs[7])  # no positive mass
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateProjectionWarning)
            rows = s.project_rows(vs)
            for v, row in zip(vs, rows):
                np.testing.assert_array_equal(row, scalar_project(s, v))

    def test_project_rows_warns_once_per_degenerate_row(self):
        s = UnitSimplex(3, mode="renormalize")
        vs = np.array([[-1.0, -2.0, 0.0], [0.2, 0.3, 0.5], [-1.0, 0.0, -3.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DegenerateProjectionWarning)
            rows = s.project_rows(vs)
        hits = [w for w in caught if issubclass(w.category, DegenerateProjectionWarning)]
        assert len(hits) == 2
        np.testing.assert_array_equal(rows[[0, 2]], np.full((2, 3), 1.0 / 3.0))
        np.testing.assert_allclose(rows[1], [0.2, 0.3, 0.5], atol=1e-15)

    def test_warning_points_at_the_caller(self):
        s = UnitSimplex(3, mode="renormalize")
        v = np.array([-1.0, -2.0, 0.0])
        for project in (lambda: s.project(v), lambda: s.project_rows(v[None])):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", DegenerateProjectionWarning)
                project()
            assert [w.filename for w in caught] == [__file__]

    def test_project_rows_rejects_nonfinite_row(self):
        s = UnitSimplex(3, mode="renormalize")
        vs = np.array([[0.2, 0.3, 0.5], [0.1, np.nan, 0.2]])
        with pytest.raises(ValueError, match="row 1 must be finite"):
            s.project_rows(vs)
        with pytest.raises(ValueError, match="row 0 must be finite"):
            s.project(vs[1])
        with pytest.raises(ValueError, match="rows must be"):
            s.project_rows(np.zeros((2, 4)))

    def test_idempotent(self):
        import warnings

        rng = np.random.default_rng(23)
        s = UnitSimplex(3, mode="renormalize")
        for _ in range(50):
            with warnings.catch_warnings():
                # all-negative draws legitimately fall back to uniform,
                # which is itself a fixed point
                warnings.simplefilter("ignore", DegenerateProjectionWarning)
                p = s.project(rng.normal(size=3))
            np.testing.assert_allclose(s.project(p), p, atol=1e-12)


huge_floats = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
# values up to 1e6 with ties, zeros and -0.0 among them
tied_floats = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
)
weights_arrays = st.integers(1, 6).flatmap(
    lambda n: arrays(np.float64, n, elements=st.floats(0.1, 100.0))
)


def _simplex_lands(x):
    n = x.shape[-1]
    return np.all(x >= 0.0, axis=-1) & (np.abs(x.sum(axis=-1) - 1.0) <= 1e-12 * n)


def _ball_lands(ball, v, x):
    """x in the ball, and on its sphere when v lies outside."""
    d = v - ball.center
    scale = np.maximum(np.abs(d).max(axis=-1), 1e-300)
    outside = scale * np.linalg.norm(d / scale[:, None], axis=-1) > ball.radius
    dist = np.linalg.norm(x - ball.center, axis=-1)
    return (dist <= ball.radius * (1.0 + 1e-12)) & (~outside | (dist >= ball.radius * (1.0 - 1e-12)))


class TestEveryRuleLandsInItsSet:
    """Finite rows up to 1e300 in magnitude map into the set, through the
    checked entry points: ``project_rows`` and the oracle's closed form."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), k=st.integers(1, 4),
           rule=st.sampled_from(["ball", "exact", "renormalize", "weighted simplex",
                                 "weighted ball"]))
    def test_rows_land(self, data, n, k, rule):
        vs = data.draw(arrays(np.float64, (k, n), elements=huge_floats))
        center = data.draw(arrays(np.float64, n, elements=st.floats(-10.0, 10.0)))
        # a radius of at least 1 keeps the rounding of x = c + (x - c) at a
        # center of up to 10 below the tolerance
        ball = EuclideanBall(center, data.draw(st.floats(1.0, 1e3)))
        if rule.startswith("weighted"):
            weights = data.draw(arrays(np.float64, n, elements=st.floats(0.01, 100.0)))
            cset = ball if rule == "weighted ball" else UnitSimplex(n)
            thetas = np.column_stack([vs, np.zeros(k)])
            try:
                # a target whose ||x(nu) - c||^2 overflows raises an
                # error that names its row, and no overflow warning
                x = minimizers_batch(QuadraticTracking(weights), cset, thetas)
            except RuntimeError:
                assert rule == "weighted ball"
                return
        else:
            cset = ball if rule == "ball" else UnitSimplex(n, mode=rule)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateProjectionWarning)
                x = cset.project_rows(vs)
        assert np.all(_ball_lands(ball, vs, x) if cset is ball else _simplex_lands(x))

    def test_exact_rule_on_entries_of_2_to_the_53(self, capsys):
        assert main(["project", "--kind", "simplex", "--vector", "1e16,0"]) == 0
        assert capsys.readouterr().out == "1.0,0.0\n"
        rows = np.random.default_rng(5).normal(size=(2000, 6)) * 5e15
        assert np.all(_simplex_lands(UnitSimplex(6).project_rows(rows)))
        # at the end of the float range the shift itself overflows
        np.testing.assert_array_equal(UnitSimplex(2).project([1e308, -1e308]), [1.0, 0.0])

    def test_weighted_simplex_on_tied_breakpoints(self):
        # the breakpoints 2 w_i v_i of a row tie at up to 2e302: shifted by
        # the largest, the others keep a rounding residue above 0
        rng = np.random.default_rng(8)
        weights = 10.0 ** rng.uniform(-2.0, 2.0, size=4)
        targets = 10.0 ** rng.uniform(0.0, 300.0, size=(2000, 1)) / weights
        thetas = np.column_stack([targets, np.zeros(2000)])
        x = minimizers_batch(QuadraticTracking(weights), UnitSimplex(4), thetas)
        assert np.all(_simplex_lands(x))

    def test_renormalizing_rule_on_an_overflowing_total(self, capsys):
        args = ["project", "--kind", "simplex", "--mode", "renormalize", "--vector", "1e308,1e308"]
        assert main(args) == 0
        assert capsys.readouterr().out == "0.5,0.5\n"

    def test_ball_on_an_overflowing_distance(self, capsys):
        assert main(["project", "--kind", "ball", "--vector", "1e155,0"]) == 0
        assert capsys.readouterr().out == "1.0,0.0\n"

    def test_weighted_ball_names_a_row_whose_multiplier_overflows(self):
        # the first Newton step on ||x(nu) - c|| = r overflows to nu = inf,
        # which is no root: the row raises at once, with no warning
        ball = EuclideanBall(np.zeros(1), 1.0)
        with pytest.raises(RuntimeError, match="row 1: .* distance from the center overflows"):
            ball._landed_rows(np.array([[3.0], [1e140]]), np.ones(1))

    def test_weighted_ball_names_a_row_whose_newton_slope_overflows(self):
        # at a weight of 1e-300 the slope d'd/w overflows, which would make
        # the first step zero and pass the target off as its minimizer
        ball = EuclideanBall(np.zeros(2), 1.0)
        with pytest.raises(RuntimeError, match="row 0: .* distance from the center overflows"):
            ball._landed_rows(np.array([[1e10, 1e10]]), np.array([1e-300, 1.0]))


class TestSharedKernelsReference:
    """The weighted kernels against the sort-and-threshold projection and
    the tracking closed forms they replaced (``helpers``), bit for bit; the
    checked entry points match them on every row that lands in the set."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(1, 8), weights=weights_arrays)
    def test_simplex_knapsack(self, data, k, weights):
        n = weights.size
        vs = data.draw(arrays(np.float64, (k, n), elements=tied_floats))
        unit = reference_simplex_sorted_rows(vs)
        assert project_simplex_sorted_rows(vs).tobytes() == unit.tobytes()
        lands = _simplex_lands(unit)
        assert UnitSimplex(n).project_rows(vs)[lands].tobytes() == unit[lands].tobytes()
        weighted = reference_tracking_minimizers(weights, UnitSimplex(n), vs)
        assert project_simplex_sorted_rows(vs, weights).tobytes() == weighted.tobytes()
        lands = _simplex_lands(weighted)
        got = UnitSimplex(n)._landed_rows(vs, weights)
        assert got[lands].tobytes() == weighted[lands].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(1, 8), weights=weights_arrays)
    def test_weighted_ball(self, data, k, weights):
        n = weights.size
        vs = data.draw(arrays(np.float64, (k, n), elements=tied_floats))
        center = data.draw(arrays(np.float64, n, elements=tied_floats))
        ball = EuclideanBall(center, data.draw(st.floats(1e-3, 1e6)))
        want = reference_tracking_minimizers(weights, ball, vs)
        assert ball._project_rows(vs, weights).tobytes() == want.tobytes()
        assert ball._landed_rows(vs, weights).tobytes() == want.tobytes()
