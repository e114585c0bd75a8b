"""Row kernels compute each row the same way whatever the row count.

Lockstep runs stack repetitions (and a ledger stacks the rounds of several
runs) as rows of one array, so row i of a k-row call must equal the call on
row i alone, bit for bit: otherwise a run's results would depend on how
many runs advance with it.  A matrix product across rows breaks this (BLAS
rounds a k-row gemv or gemm differently for different k); elementwise
products and row sums do not.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from poco.domains import EuclideanBall, UnitSimplex
from poco.objectives import FunctionalTimeSeries, Markowitz, MarkowitzTable, QuadraticTracking
from poco.regret import minimizers_batch


def _family(kind, rng):
    """(family, point sampler, parameter sampler) of one family kind."""
    if kind == "quadratic":
        n = int(rng.integers(1, 6))
        family = QuadraticTracking(rng.uniform(0.5, 100.0, size=n))
        return family, lambda k: rng.normal(size=(k, n)), lambda k: rng.normal(size=(k, n + 1))
    if kind == "functional":
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        family = FunctionalTimeSeries(rng.uniform(0.5, 5.0, size=(m, n)), rng.normal(size=(m, n)))
        return family, lambda k: rng.normal(size=(k, n)), lambda k: rng.dirichlet(np.ones(m), k)
    n = int(rng.integers(1, 8))
    slots = 4
    a = rng.normal(size=(slots, n, n))
    mu, sigma = rng.normal(size=(slots, n)), a @ a.transpose(0, 2, 1) + 0.1 * np.eye(n)
    if kind == "markowitz":
        family = Markowitz(n)

        def thetas(k):
            picks = rng.integers(0, slots, size=k)
            return np.stack(
                [family.pack(mu[s], sigma[s], lam) for s, lam in zip(picks, rng.uniform(0, 3, k))]
            )

        return family, lambda k: rng.dirichlet(np.ones(n), k), thetas
    family = MarkowitzTable(mu, sigma)
    return family, lambda k: rng.dirichlet(np.ones(n), k), lambda k: np.column_stack(
        [rng.integers(0, slots, size=k), rng.uniform(0, 3, size=k)]
    )


def _same_rows(batched, one_row):
    for i, want in enumerate(one_row):
        for got_part, want_part in zip(batched, want):
            assert got_part[i].tobytes() == want_part[0].tobytes()


def _parts(out):
    return out if isinstance(out, tuple) else (out,)


def _same_bytes(scalar, one_row):
    """A scalar method's result equals row 0 of its row method's one-row
    call, byte for byte."""
    for got, want in zip(_parts(scalar), _parts(one_row), strict=True):
        assert np.asarray(got, dtype=float).tobytes() == want[0].tobytes()


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["quadratic", "functional", "markowitz", "table"]),
    k=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_family_rows_do_not_depend_on_the_row_count(kind, k, seed):
    rng = np.random.default_rng(seed)
    family, points, params = _family(kind, rng)
    xs, thetas = points(k), params(k)
    for name in ("value_rows", "gradient_x_rows"):
        method = getattr(family, name)
        _same_rows(
            _parts(method(xs, thetas)),
            [_parts(method(xs[i : i + 1], thetas[i : i + 1])) for i in range(k)],
        )
        # one parameter row shared by every point
        _same_rows(
            _parts(method(xs, thetas[:1])),
            [_parts(method(xs[i : i + 1], thetas[:1])) for i in range(k)],
        )
    for name in ("unconstrained_minimizer_rows", "curvature_rows"):
        method = getattr(family, name)
        _same_rows(_parts(method(thetas)), [_parts(method(thetas[i : i + 1])) for i in range(k)])
    # each scalar method is its row method's one-row call
    for i in range(k):
        x, theta = xs[i : i + 1], thetas[i : i + 1]
        _same_bytes(family.value(xs[i], thetas[i]), family.value_rows(x, theta))
        _same_bytes(family.gradient_x(xs[i], thetas[i]), family.gradient_x_rows(x, theta))
        _same_bytes(
            family.unconstrained_minimizer(thetas[i]), family.unconstrained_minimizer_rows(theta)
        )
        _same_bytes(family.curvature(thetas[i]), family.curvature_rows(theta))


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["quadratic", "functional", "markowitz", "table"]),
    k=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_public_rows_equal_their_kernels(kind, k, seed):
    # the round loops check a run once and then call the kernels; a public
    # row call is the check plus the same kernel
    rng = np.random.default_rng(seed)
    family, points, params = _family(kind, rng)
    xs, thetas = points(k), params(k)
    family._check_thetas(thetas)
    for name in ("value_rows", "gradient_x_rows"):
        public, kernel = getattr(family, name), getattr(family, "_" + name)
        assert public(xs, thetas).tobytes() == kernel(xs, thetas).tobytes()
        assert public(xs, thetas[:1]).tobytes() == kernel(xs, thetas[:1]).tobytes()


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["ball", "exact", "renormalize"]),
    dim=st.integers(1, 40),
    k=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_projection_rows_do_not_depend_on_the_row_count(kind, dim, k, seed):
    rng = np.random.default_rng(seed)
    if kind == "ball":
        cset = EuclideanBall(center=rng.normal(size=dim), radius=rng.uniform(0.1, 3.0))
    else:
        cset = UnitSimplex(dim, mode=kind)
    # some rows inside the set, some far outside; no row without positive
    # mass, which the renormalizing rule replaces with a warning
    vs = rng.normal(scale=rng.choice([0.1, 1.0, 30.0], size=(k, 1)), size=(k, dim))
    vs[:, 0] = np.abs(vs[:, 0]) + 1e-3
    _same_rows((cset.project_rows(vs),), [(cset.project_rows(vs[i : i + 1]),) for i in range(k)])
    for i in range(k):
        _same_bytes(cset.project(vs[i]), cset.project_rows(vs[i : i + 1]))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["ball", "exact"]), k=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
def test_tracking_minimizer_rows_do_not_depend_on_the_row_count(kind, k, seed):
    # a ledger solves the rounds of all its runs in one minimizers_batch call
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    family = QuadraticTracking(rng.uniform(0.5, 100.0, size=n))
    if kind == "ball":
        cset = EuclideanBall(center=rng.normal(size=n), radius=rng.uniform(0.1, 3.0))
    else:
        cset = UnitSimplex(n)
    thetas = rng.normal(scale=rng.choice([0.1, 1.0, 30.0], size=(k, 1)), size=(k, n + 1))
    _same_rows(
        (minimizers_batch(family, cset, thetas),),
        [(minimizers_batch(family, cset, thetas[i : i + 1]),) for i in range(k)],
    )
