import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poco.domains import EuclideanBall, UnitSimplex
from poco.objectives import (
    FunctionalTimeSeries,
    Markowitz,
    MarkowitzTable,
    ObjectiveConstants,
    QuadraticTracking,
    contraction_factor,
)

from helpers import finite_diff_gradient, scalar_gradient_x, scalar_value


def default_families():
    """One instance of each family with matched domains for property tests."""
    rng = np.random.default_rng(1234)
    qt = QuadraticTracking((100.0, 1.0))
    fts = FunctionalTimeSeries(
        coeffs=rng.uniform(0.5, 3.0, size=(4, 3)),
        centers=rng.normal(scale=2.0, size=(4, 3)),
    )
    mk = Markowitz(3)
    return qt, fts, mk


def sample_theta(family, rng):
    if isinstance(family, QuadraticTracking):
        return rng.normal(scale=30.0, size=family.m)
    if isinstance(family, FunctionalTimeSeries):
        raw = rng.uniform(0.05, 1.0, size=family.m)
        return raw / raw.sum()
    a = rng.normal(size=(family.n, family.n))
    sigma = a @ a.T + 0.1 * np.eye(family.n)
    mu = rng.normal(scale=0.5, size=family.n)
    return family.pack(mu, sigma, rng.uniform(0.1, 3.0))


def sample_x(family, rng):
    return rng.normal(scale=3.0, size=family.n)


class TestObjectiveConstants:
    def test_positive_required(self):
        with pytest.raises(ValueError, match="positive"):
            ObjectiveConstants(G=1.0, L=1.0, lam=0.0, C_theta=1.0, D=1.0)

    def test_lam_at_most_l(self):
        with pytest.raises(ValueError, match="exceeds"):
            ObjectiveConstants(G=1.0, L=1.0, lam=2.0, C_theta=1.0, D=1.0)


class TestContractionFactor:
    def test_reference_value(self):
        c = ObjectiveConstants(G=1.0, L=200.0, lam=2.0, C_theta=1.0, D=1.0)
        assert contraction_factor(c, 1.0 / 200.0) == pytest.approx(
            math.sqrt(1.0 - 0.02 / 1.01), abs=1e-12
        )
        assert contraction_factor(c, 1.0 / 200.0) == pytest.approx(0.990049, abs=1e-6)

    def test_vanishing_curvature_limit(self):
        c = ObjectiveConstants(G=1.0, L=1.0, lam=1e-12, C_theta=1.0, D=1.0)
        assert contraction_factor(c, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_boundary_zero(self):
        c = ObjectiveConstants(G=1.0, L=1.0, lam=1.0, C_theta=1.0, D=1.0)
        assert contraction_factor(c, 1.0) == 0.0

    def test_step_size_guard(self):
        c = ObjectiveConstants(G=1.0, L=200.0, lam=2.0, C_theta=1.0, D=1.0)
        with pytest.raises(ValueError, match="eta <= 1/L"):
            contraction_factor(c, 1.0 / 100.0)

    def test_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            lam = rng.uniform(0.01, 5.0)
            big_l = lam * rng.uniform(1.0, 100.0)
            c = ObjectiveConstants(G=1.0, L=big_l, lam=lam, C_theta=1.0, D=1.0)
            eta = rng.uniform(1e-4, 1.0) / big_l
            val = contraction_factor(c, eta)
            assert 0.0 < val < 1.0


class TestQuadraticTracking:
    def test_minimum_value(self):
        f = QuadraticTracking((100.0, 1.0))
        assert f.value([0.0, 0.0], [0.0, 0.0, 0.0]) == 0.0

    def test_single_square(self):
        f = QuadraticTracking((100.0, 1.0))
        assert f.value([1.0, 0.0], [0.0, 0.0, 0.0]) == 100.0

    def test_offset_moves_value_not_gradient(self):
        f = QuadraticTracking((100.0, 1.0))
        th0 = np.array([3.0, -2.0, 0.0])
        th7 = np.array([3.0, -2.0, 7.0])
        x = np.array([1.0, 1.0])
        assert f.value(x, th7) - f.value(x, th0) == pytest.approx(7.0)
        np.testing.assert_array_equal(f.gradient_x(x, th7), f.gradient_x(x, th0))

    def test_gradient_example_against_finite_differences(self):
        f = QuadraticTracking((100.0, 1.0))
        theta = np.array([-100.0, 0.0, 30.0])
        x = np.array([0.0, 40.0])
        g = f.gradient_x(x, theta)
        np.testing.assert_allclose(g, [20000.0, 80.0])
        fd = finite_diff_gradient(lambda z: f.value(z, theta), x)
        np.testing.assert_allclose(g, fd, rtol=1e-6)

    def test_rows_match_scalar(self):
        rng = np.random.default_rng(4)
        f = QuadraticTracking((100.0, 1.0))
        xs = rng.normal(size=(20, 2))
        ths = rng.normal(size=(20, 3))
        np.testing.assert_allclose(
            f.value_rows(xs, ths), [scalar_value(f, x, t) for x, t in zip(xs, ths)]
        )
        np.testing.assert_allclose(
            f.gradient_x_rows(xs, ths),
            np.stack([scalar_gradient_x(f, x, t) for x, t in zip(xs, ths)]),
        )

    def test_derived_curvature(self):
        f = QuadraticTracking((100.0, 1.0))
        ball = EuclideanBall(center=np.zeros(2), radius=50.0)
        box = (np.array([-130.0, -50.0, -50.0]), np.array([130.0, 50.0, 30.0]))
        c = f.derive_constants(ball, box)
        assert c.lam == 2.0
        assert c.L == 200.0
        assert c.C_theta == 200.0

    def test_derived_g_matches_grid_search(self):
        f = QuadraticTracking((100.0, 1.0))
        ball = EuclideanBall(center=np.zeros(2), radius=50.0)
        lo = np.array([-130.0, -50.0, -50.0])
        hi = np.array([130.0, 50.0, 30.0])
        c = f.derive_constants(ball, (lo, hi))
        assert c.G == pytest.approx(np.hypot(36000.0, 200.0), rel=1e-12)
        # grid search the gradient norm over boundary samples of X times
        # corners of the box; must never beat the declared constant
        rng = np.random.default_rng(5)
        worst = 0.0
        corners = [lo, hi, np.array([lo[0], hi[1], 0.0]), np.array([hi[0], lo[1], 0.0])]
        for _ in range(400):
            ang = rng.uniform(0, 2 * np.pi)
            x = 50.0 * np.array([np.cos(ang), np.sin(ang)])
            for th in corners:
                worst = max(worst, float(np.linalg.norm(f.gradient_x(x, th))))
        assert worst <= c.G + 1e-9
        assert worst >= 0.99 * c.G  # the bound is tight for this geometry

    def test_unbounded_box_rejected(self):
        f = QuadraticTracking((100.0, 1.0))
        ball = EuclideanBall(center=np.zeros(2), radius=50.0)
        with pytest.raises(ValueError, match="bounded"):
            f.derive_constants(ball, (np.array([-np.inf, 0, 0]), np.array([1.0, 1, 1])))

    def test_dimension_checks(self):
        f = QuadraticTracking((100.0, 1.0))
        with pytest.raises(ValueError):
            f.value([1.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            f.gradient_x([1.0, 2.0], [0.0, 0.0])


class TestFunctionalTimeSeries:
    def test_vertex_selects_basis(self):
        rng = np.random.default_rng(6)
        f = FunctionalTimeSeries(
            coeffs=rng.uniform(0.5, 2.0, size=(3, 2)),
            centers=rng.normal(size=(3, 2)),
        )
        x = rng.normal(size=2)
        e1 = np.array([1.0, 0.0, 0.0])
        expected = 2.0 * f.a[0] * (x - f.v[0])
        np.testing.assert_allclose(f.gradient_x(x, e1), expected)

    def test_positive_coeffs_required(self):
        with pytest.raises(ValueError, match="positive"):
            FunctionalTimeSeries(coeffs=np.array([[1.0, -1.0]]), centers=np.zeros((1, 2)))

    def test_unconstrained_minimizer_is_stationary(self):
        rng = np.random.default_rng(7)
        f = FunctionalTimeSeries(
            coeffs=rng.uniform(0.5, 2.0, size=(4, 3)),
            centers=rng.normal(size=(4, 3)),
        )
        theta = sample_theta(f, rng)
        xstar = f.unconstrained_minimizer(theta)
        np.testing.assert_allclose(f.gradient_x(xstar, theta), 0.0, atol=1e-12)


class TestMarkowitz:
    def test_hand_value(self):
        f = Markowitz(2)
        theta = f.pack([1.0, 1.0], np.eye(2), 1.0)
        assert f.value([0.5, 0.5], theta) == pytest.approx(-0.5)

    def test_gradient_at_origin_is_minus_mu(self):
        f = Markowitz(4)
        mu = np.ones(4)
        theta = f.pack(mu, np.eye(4), 1.0)
        np.testing.assert_allclose(f.gradient_x(np.zeros(4), theta), -mu)

    def test_asymmetric_sigma_rejected(self):
        f = Markowitz(2)
        sigma = np.array([[1.0, 0.5], [0.2, 1.0]])
        theta = f.pack([0.0, 0.0], sigma, 1.0)
        with pytest.raises(ValueError, match="symmetric"):
            f.value([0.5, 0.5], theta)

    def test_curvature_from_sigma_floor(self):
        f = Markowitz(2)
        simplex = UnitSimplex(2)
        lo = f.pack([-1.0, -1.0], -np.ones((2, 2)), 0.0)
        hi = f.pack([1.0, 1.0], np.ones((2, 2)), 2.0)
        c = f.derive_constants(simplex, (lo, hi), sigma_min=0.05)
        assert c.lam == pytest.approx(0.1)

    def test_rows_match_scalar(self):
        rng = np.random.default_rng(9)
        f = Markowitz(4)
        xs = rng.normal(size=(12, 4))
        ths = np.stack([sample_theta(f, rng) for _ in range(12)])
        np.testing.assert_allclose(
            f.value_rows(xs, ths),
            [scalar_value(f, x, t) for x, t in zip(xs, ths)], rtol=1e-13, atol=1e-13,
        )
        np.testing.assert_allclose(
            f.gradient_x_rows(xs, ths),
            np.stack([scalar_gradient_x(f, x, t) for x, t in zip(xs, ths)]),
            rtol=1e-13, atol=1e-13,
        )
        # one parameter row is shared by every point
        np.testing.assert_allclose(
            f.value_rows(xs, ths[:1]), [scalar_value(f, x, ths[0]) for x in xs],
            rtol=1e-13, atol=1e-13,
        )

    def test_rows_reject_asymmetric_sigma(self):
        f = Markowitz(2)
        good = f.pack([0.0, 0.0], np.eye(2), 1.0)
        bad = f.pack([0.0, 0.0], np.array([[1.0, 0.5], [0.2, 1.0]]), 1.0)
        ths = np.stack([good, good, bad])
        xs = np.full((3, 2), 0.5)
        with pytest.raises(ValueError, match="row 2 is not symmetric"):
            f.gradient_x_rows(xs, ths)
        with pytest.raises(ValueError, match="not symmetric"):
            f.value_rows(xs, ths)

    def test_rows_reject_bad_shapes(self):
        f = Markowitz(2)
        theta = f.pack([0.0, 0.0], np.eye(2), 1.0)
        with pytest.raises(ValueError, match="thetas must be"):
            f.value_rows(np.zeros((1, 2)), theta)
        with pytest.raises(ValueError, match="xs must be"):
            f.gradient_x_rows(np.zeros((1, 3)), theta[None, :])

    def test_pack_unpack_roundtrip(self):
        f = Markowitz(3)
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 3))
        sigma = a @ a.T
        mu = rng.normal(size=3)
        theta = f.pack(mu, sigma, 2.5)
        mu2, sigma2, lam2 = f.unpack(theta)
        np.testing.assert_array_equal(mu, mu2)
        np.testing.assert_array_equal(sigma, sigma2)
        assert lam2 == 2.5


def _moments_table(rng, n_slots, n):
    a = rng.normal(size=(n_slots, n, n))
    sigma = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(n)
    sigma = (sigma + sigma.transpose(0, 2, 1)) / 2.0
    return rng.normal(scale=0.5, size=(n_slots, n)), sigma


class TestMarkowitzTable:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        n_slots=st.integers(1, 8),
        k=st.integers(1, 10),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_the_packed_family_bit_for_bit(self, seed, n, n_slots, k):
        rng = np.random.default_rng(seed)
        mu, sigma = _moments_table(rng, n_slots, n)
        table, packed = MarkowitzTable(mu, sigma), Markowitz(n)
        slots = rng.integers(0, n_slots, size=k)
        lam = np.where(rng.random(k) < 0.2, 0.0, rng.uniform(0.0, 20.0, size=k))
        rows = np.column_stack([slots, lam])
        packed_rows = np.stack([packed.pack(mu[s], sigma[s], r) for s, r in zip(slots, lam)])
        xs = rng.normal(size=(k, n))
        for method in ("value_rows", "gradient_x_rows"):
            got, want = getattr(table, method), getattr(packed, method)
            np.testing.assert_array_equal(got(xs, rows), want(xs, packed_rows))
            # one (1, 2) row shared by every point
            np.testing.assert_array_equal(got(xs, rows[:1]), want(xs, packed_rows[:1]))
        for x, row, packed_row in zip(xs, rows, packed_rows):
            assert table.value(x, row) == packed.value(x, packed_row)
            np.testing.assert_array_equal(
                table.gradient_x(x, row), packed.gradient_x(x, packed_row)
            )

    @pytest.mark.parametrize("slot", [1.5, -1.0, 3.0, np.nan, np.inf])
    def test_a_bad_slot_names_its_row(self, slot):
        table = MarkowitzTable(*_moments_table(np.random.default_rng(3), 3, 2))
        rows = np.array([[0.0, 1.0], [2.0, 1.0], [slot, 1.0]])
        xs = np.full((3, 2), 0.5)
        for rows_method in (table.value_rows, table.gradient_x_rows):
            with pytest.raises(ValueError, match="row 2: slot"):
                rows_method(xs, rows)
        for method in (table.value, table.gradient_x):
            with pytest.raises(ValueError, match="row 0: slot"):
                method(xs[0], rows[2])

    def test_wrong_width_rows_are_refused(self):
        table = MarkowitzTable(*_moments_table(np.random.default_rng(4), 3, 2))
        xs = np.full((2, 2), 0.5)
        for rows in (np.zeros((2, 3)), np.zeros((2, 1)), np.zeros(2)):
            with pytest.raises(ValueError, match=r"theta rows must be \(slot, lam_risk\)"):
                table.value_rows(xs, rows)
            with pytest.raises(ValueError, match=r"theta rows must be \(slot, lam_risk\)"):
                table.gradient_x_rows(xs, rows)
        with pytest.raises(ValueError, match=r"theta rows must be \(slot, lam_risk\)"):
            table.value(xs[0], np.zeros(3))


class TestSharedProperties:
    """Gradient, convexity and Lipschitz witnesses for every family."""

    @pytest.mark.parametrize("family_idx", [0, 1, 2], ids=["qt", "fts", "markowitz"])
    def test_gradient_matches_finite_differences(self, family_idx):
        family = default_families()[family_idx]
        rng = np.random.default_rng(100 + family_idx)
        for _ in range(40):
            x = sample_x(family, rng)
            theta = sample_theta(family, rng)
            g = family.gradient_x(x, theta)
            fd = finite_diff_gradient(lambda z: family.value(z, theta), x)
            scale = max(1.0, float(np.linalg.norm(g)))
            assert np.linalg.norm(g - fd) / scale < 1e-6

    @pytest.mark.parametrize("family_idx", [0, 1, 2], ids=["qt", "fts", "markowitz"])
    def test_convexity_witness(self, family_idx):
        family = default_families()[family_idx]
        rng = np.random.default_rng(200 + family_idx)
        for _ in range(60):
            x = sample_x(family, rng)
            y = sample_x(family, rng)
            theta = sample_theta(family, rng)
            t = rng.uniform(0.0, 1.0)
            mix = family.value(t * x + (1 - t) * y, theta)
            assert mix <= t * family.value(x, theta) + (1 - t) * family.value(y, theta) + 1e-9

    @pytest.mark.parametrize("family_idx", [0, 1, 2], ids=["qt", "fts", "markowitz"])
    def test_strong_convexity_witness(self, family_idx):
        family = default_families()[family_idx]
        rng = np.random.default_rng(300 + family_idx)
        for _ in range(60):
            x = sample_x(family, rng)
            y = sample_x(family, rng)
            theta = sample_theta(family, rng)
            lam, _ = family.curvature(theta)
            lhs = family.value(y, theta)
            rhs = (
                family.value(x, theta)
                + family.gradient_x(x, theta) @ (y - x)
                + 0.5 * lam * float(np.sum((y - x) ** 2))
            )
            assert lhs >= rhs - 1e-9 * max(1.0, abs(rhs))

    def test_theta_lipschitz_gradients_qt(self):
        f = QuadraticTracking((100.0, 1.0))
        ball = EuclideanBall(center=np.zeros(2), radius=50.0)
        box = (np.array([-150.0, -60.0, -60.0]), np.array([150.0, 60.0, 40.0]))
        c = f.derive_constants(ball, box)
        rng = np.random.default_rng(9)
        for _ in range(200):
            x = ball.project(rng.normal(scale=30.0, size=2))
            th1 = rng.uniform(box[0], box[1])
            th2 = rng.uniform(box[0], box[1])
            lhs = np.linalg.norm(f.gradient_x(x, th1) - f.gradient_x(x, th2))
            assert lhs <= c.C_theta * np.linalg.norm(th1 - th2) + 1e-9

    def test_theta_lipschitz_gradients_fts(self):
        rng = np.random.default_rng(10)
        f = FunctionalTimeSeries(
            coeffs=rng.uniform(0.5, 2.0, size=(3, 2)),
            centers=rng.normal(size=(3, 2)),
        )
        ball = EuclideanBall(center=np.zeros(2), radius=3.0)
        c = f.derive_constants(ball)
        for _ in range(200):
            x = ball.project(rng.normal(size=2))
            th1 = sample_theta(f, rng)
            th2 = sample_theta(f, rng)
            lhs = np.linalg.norm(f.gradient_x(x, th1) - f.gradient_x(x, th2))
            assert lhs <= c.C_theta * np.linalg.norm(th1 - th2) + 1e-9

    def test_theta_lipschitz_gradients_markowitz(self):
        f = Markowitz(3)
        simplex = UnitSimplex(3)
        lo = f.pack(-np.ones(3), -2 * np.ones((3, 3)), 0.0)
        hi = f.pack(np.ones(3), 2 * np.ones((3, 3)), 3.0)
        c = f.derive_constants(simplex, (lo, hi), sigma_min=1e-6)
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = simplex.project(rng.normal(size=3))
            th1 = sample_theta(f, rng)
            th2 = sample_theta(f, rng)
            # clip into the declared box so the constant applies
            th1 = np.clip(th1, lo, hi)
            th2 = np.clip(th2, lo, hi)
            th1 = f.pack(*_symmetrize(f, th1))
            th2 = f.pack(*_symmetrize(f, th2))
            lhs = np.linalg.norm(f.gradient_x(x, th1) - f.gradient_x(x, th2))
            assert lhs <= c.C_theta * np.linalg.norm(th1 - th2) + 1e-9

    def test_range_bound_d_covers_samples(self):
        f = QuadraticTracking((100.0, 1.0))
        ball = EuclideanBall(center=np.zeros(2), radius=50.0)
        box = (np.array([-130.0, -50.0, -50.0]), np.array([130.0, 50.0, 30.0]))
        c = f.derive_constants(ball, box)
        rng = np.random.default_rng(12)
        vals = []
        for _ in range(500):
            x = ball.project(rng.normal(scale=40.0, size=2))
            th = rng.uniform(box[0], box[1])
            vals.append(f.value(x, th))
        assert max(vals) - min(vals) <= c.D


def _symmetrize(f, theta):
    mu = theta[: f.n]
    sigma = theta[f.n : f.n + f.n * f.n].reshape(f.n, f.n)
    return mu, (sigma + sigma.T) / 2.0, float(theta[-1])
