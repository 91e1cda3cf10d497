from __future__ import annotations

import decimal
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gibbsfactor as gf
from gibbsfactor import projective
from gibbsfactor.projective import contraction_coefficients, projective_distances

METRIC_SLACK = 1e-12


def simplex_points(rng, size, count):
    pts = rng.uniform(0.01, 1.0, size=(count, size))
    pts /= pts.sum(axis=1, keepdims=True)
    return pts


def test_distance_zero_iff_proportional():
    x = gf.SimplexPoint(np.array([0.2, 0.3, 0.5]))
    y = gf.SimplexPoint(np.array([0.4, 0.6, 1.0]) / 2.0)
    assert gf.projective_distance(x, y) < 1e-15
    z = gf.SimplexPoint(np.array([0.5, 0.3, 0.2]))
    assert gf.projective_distance(x, z) > 0.1


def test_distance_known_value():
    x = gf.SimplexPoint(np.array([0.5, 0.5]))
    y = gf.SimplexPoint(np.array([0.25, 0.75]))
    # max ratio 2, min ratio 2/3
    assert gf.projective_distance(x, y) == pytest.approx(math.log(3.0), abs=1e-14)


def test_metric_axioms_random_triples():
    rng = np.random.default_rng(7)
    pts = simplex_points(rng, 4, 3 * 10**4).reshape(10**4, 3, 4)
    for x, y, z in pts:
        sx = gf.SimplexPoint(x)
        sy = gf.SimplexPoint(y)
        sz = gf.SimplexPoint(z)
        dxy = gf.projective_distance(sx, sy)
        dyx = gf.projective_distance(sy, sx)
        dxz = gf.projective_distance(sx, sz)
        dzy = gf.projective_distance(sz, sy)
        assert dxy >= 0.0
        assert abs(dxy - dyx) < METRIC_SLACK
        assert dxy <= dxz + dzy + METRIC_SLACK


def test_row_allowable_detection():
    ok, row = gf.is_row_allowable(np.array([[0.0, 1.0], [2.0, 0.0]]))
    assert ok and row is None
    ok, row = gf.is_row_allowable(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not ok and row == 1


def test_apply_normalized_matches_hand_computation():
    mat = np.array([[2.0, 1.0], [1.0, 1.0]])
    x = gf.SimplexPoint(np.array([0.5, 0.5]))
    y = gf.apply_normalized(mat, x)
    raw = mat @ np.array([0.5, 0.5])
    assert np.abs(y.coords - raw / raw.sum()).max() < 1e-15


def test_apply_normalized_refuses_zero_row():
    mat = np.array([[0.0, 0.0], [1.0, 2.0]])
    x = gf.SimplexPoint(np.array([0.5, 0.5]))
    with pytest.raises(gf.ModelError):
        gf.apply_normalized(mat, x)


def test_simplex_point_rejects_boundary():
    with pytest.raises(gf.ModelError):
        gf.SimplexPoint(np.array([1.0, 0.0]))


def test_distance_refuses_fiber_mismatch():
    x = gf.SimplexPoint(np.array([0.5, 0.5]), fiber=0)
    y = gf.SimplexPoint(np.array([0.5, 0.5]), fiber=1)
    with pytest.raises(gf.FiberMismatchError):
        gf.projective_distance(x, y)


def test_nonexpansive_row_allowable():
    rng = np.random.default_rng(11)
    for _ in range(10**4):
        size = rng.integers(2, 5)
        mat = rng.uniform(0.0, 1.0, size=(size, size))
        mat[mat < 0.35] = 0.0
        # patch zero rows so the matrix is row allowable
        for i in range(size):
            if not mat[i].any():
                mat[i, rng.integers(size)] = rng.uniform(0.1, 1.0)
        x = gf.SimplexPoint(rng.uniform(0.01, 1.0, size))
        y = gf.SimplexPoint(rng.uniform(0.01, 1.0, size))
        before = gf.projective_distance(x, y)
        after = gf.projective_distance(
            gf.apply_normalized(mat, x), gf.apply_normalized(mat, y)
        )
        assert after <= before + METRIC_SLACK


def brute_force_phi(mat):
    rows, cols = mat.shape
    phi = math.inf
    for i, k in itertools.product(range(rows), repeat=2):
        for j, ell in itertools.product(range(cols), repeat=2):
            phi = min(phi, (mat[i, j] * mat[k, ell]) / (mat[k, j] * mat[i, ell]))
    return phi


def brute_force_tau(mat):
    phi = brute_force_phi(mat)
    return (1.0 - math.sqrt(phi)) / (1.0 + math.sqrt(phi))


def test_contraction_coefficient_known_matrix():
    mat = np.array([[2.0, 1.0], [1.0, 1.0]])
    coeff = gf.contraction_coefficient(mat)
    root = math.sqrt(0.5)
    assert coeff.tau == pytest.approx((1 - root) / (1 + root), abs=1e-12)
    assert coeff.tau == pytest.approx(brute_force_tau(mat), abs=1e-12)


def test_contraction_coefficient_one_with_zero_entry():
    mat = np.array([[1.0, 0.0], [1.0, 1.0]])
    assert gf.contraction_coefficient(mat).tau == 1.0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
@example(1, 5, False, 0)
@example(4, 1, False, 0)
@example(3, 5, True, 0)
def test_contraction_coefficient_matches_quadruple_minimum(rows, cols, rank_one, seed):
    # fiber blocks are rectangular whenever fiber sizes differ
    rng = np.random.default_rng(seed)
    if rank_one:
        mat = np.outer(np.exp(rng.uniform(-5, 5, rows)), np.exp(rng.uniform(-5, 5, cols)))
    else:
        mat = np.exp(rng.uniform(-5, 5, size=(rows, cols)))
    coeff = gf.contraction_coefficient(mat)
    assert coeff.phi == pytest.approx(brute_force_phi(mat), rel=1e-12)
    # near phi = 1 (rank one) tau = (1 - sqrt(phi)) / (1 + sqrt(phi)) keeps
    # only the absolute accuracy of phi, so it gets an absolute floor too
    assert coeff.tau == pytest.approx(brute_force_tau(mat), rel=1e-12, abs=1e-14)
    assert 0.0 <= coeff.tau < 1.0
    assert coeff.phi <= 1.0


def test_contraction_coefficient_tau_accurate_near_rank_one():
    # tau = (1 - sqrt(Phi)) / (1 + sqrt(Phi)) evaluated at 50 digits from the
    # same float log Phi the function takes; the float form of that quotient
    # cancels as Phi -> 1 and misses by about 1e-16 absolute
    rng = np.random.default_rng(5)
    taus = []
    for eps in np.geomspace(1e-10, 0.5, 60):
        rows, cols = (int(k) for k in rng.integers(2, 6, size=2))
        mat = np.outer(np.exp(rng.uniform(-3, 3, rows)), np.exp(rng.uniform(-3, 3, cols)))
        mat *= np.exp(eps * rng.uniform(-1.0, 1.0, size=(rows, cols)))
        logs = np.log(mat)
        diff = logs[:, None, :] - logs[None, :, :]
        log_phi = float((diff.min(axis=2) - diff.max(axis=2)).min())
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            root = decimal.Decimal(log_phi).exp().sqrt()
            exact = float((1 - root) / (1 + root))
        coeff = gf.contraction_coefficient(mat)
        assert abs(coeff.tau - exact) <= 4 * 2.0**-52 * exact
        assert coeff.phi == math.exp(log_phi)
        taus.append(coeff.tau)
    assert min(taus) < 1e-9 and max(taus) > 0.1


@pytest.mark.parametrize(
    "mat",
    [
        np.zeros((0, 3)),
        np.zeros((3, 0)),
        np.array([[1.0, np.nan], [1.0, 1.0]]),
        np.array([[1.0, np.inf], [1.0, 1.0]]),
    ],
)
def test_contraction_coefficient_refuses_empty_and_nonfinite(mat):
    with pytest.raises(gf.ModelError):
        gf.contraction_coefficient(mat)


@pytest.mark.parametrize("mat", [[[2.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]])
def test_contraction_coefficient_returns_python_floats(mat):
    coeff = gf.contraction_coefficient(np.array(mat))
    assert type(coeff.tau) is float
    assert type(coeff.phi) is float


def test_contraction_coefficient_memory_is_cubic():
    # no temporary may hold more than r*r*c entries; the quadruple array of
    # (r*c)**2 entries would be 40 times larger here
    rows, cols = 48, 40
    mat = np.random.default_rng(3).uniform(0.5, 2.0, size=(rows, cols))
    tracemalloc.start()
    try:
        gf.contraction_coefficient(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * rows * rows * cols


def _segment_ratio(mat, j, ell, u, du, eps=1e-12):
    """Contraction ratio of a nearby pair on the (e_j, e_ell) segment.

    The pair sits at log-coordinate u along the segment (pushed eps into the
    interior so coordinates stay strictly positive) and is separated by 2 du.
    """
    size = mat.shape[0]

    def point(uu):
        s = math.exp(uu)
        base = np.full(size, eps / size)
        base[j] += s / (1.0 + s)
        base[ell] += 1.0 / (1.0 + s)
        return gf.SimplexPoint(base)

    x = point(u + du)
    y = point(u - du)
    d0 = gf.projective_distance(x, y)
    d1 = gf.projective_distance(
        gf.apply_normalized(mat, x), gf.apply_normalized(mat, y)
    )
    return d1 / d0


def test_empirical_contraction_matches_tau():
    # the coefficient is a supremum over point pairs; it is approached by
    # infinitesimally separated pairs on the segment between the two columns
    # of the minimizing cross-ratio quadruple, at an interior position set by
    # that quadruple's entries
    rng = np.random.default_rng(23)
    for _ in range(100):
        size = int(rng.integers(2, 5))
        mat = rng.uniform(0.1, 2.0, size=(size, size))
        tau = gf.contraction_coefficient(mat).tau

        best = 0.0
        # random pairs never exceed tau
        for _ in range(100):
            x = gf.SimplexPoint(rng.uniform(0.01, 1.0, size))
            y = gf.SimplexPoint(rng.uniform(0.01, 1.0, size))
            d0 = gf.projective_distance(x, y)
            if d0 < 1e-9:
                continue
            d1 = gf.projective_distance(
                gf.apply_normalized(mat, x), gf.apply_normalized(mat, y)
            )
            ratio = d1 / d0
            assert ratio <= tau + 1e-9
            best = max(best, ratio)

        # minimizing quadruple: rows (i, k), columns (j, ell)
        phi_best, quad = math.inf, None
        for i, k, j, ell in itertools.product(range(size), repeat=4):
            if j == ell or i == k:
                continue
            val = (mat[i, j] * mat[k, ell]) / (mat[k, j] * mat[i, ell])
            if val < phi_best:
                phi_best, quad = val, (i, k, j, ell)
        i, k, j, ell = quad
        # restricted to the segment, the extremal pair position solves a
        # two-by-two problem with entries (a, b; c, d)
        a, b = mat[i, j], mat[i, ell]
        c, d = mat[k, j], mat[k, ell]
        u_star = 0.5 * math.log(b * d / (a * c))
        for u in (u_star, u_star - 0.05, u_star + 0.05):
            ratio = _segment_ratio(mat, j, ell, u, du=1e-5)
            assert ratio <= tau + 1e-9
            best = max(best, ratio)
        assert best >= 0.95 * tau


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_contraction_bound_holds_for_positive_matrices(seed, size):
    rng = np.random.default_rng(seed)
    mat = rng.uniform(0.05, 3.0, size=(size, size))
    tau = gf.contraction_coefficient(mat).tau
    assert 0.0 <= tau < 1.0
    x = gf.SimplexPoint(rng.uniform(0.01, 1.0, size))
    y = gf.SimplexPoint(rng.uniform(0.01, 1.0, size))
    d0 = gf.projective_distance(x, y)
    if d0 > 1e-9:
        d1 = gf.projective_distance(
            gf.apply_normalized(mat, x), gf.apply_normalized(mat, y)
        )
        assert d1 <= tau * d0 + 1e-12


def test_stacked_distances_equal_the_one_row_distance():
    rng = np.random.default_rng(11)
    xs = [gf.SimplexPoint(p) for p in simplex_points(rng, 5, 40)]
    ys = [gf.SimplexPoint(p) for p in simplex_points(rng, 5, 40)]
    x = np.stack([p.coords for p in xs])
    y = np.stack([p.coords for p in ys])
    stacked = projective_distances(x, y)
    assert stacked.tolist() == [gf.projective_distance(a, b) for a, b in zip(xs, ys)]
    # one row against a stack broadcasts
    assert np.array_equal(projective_distances(x[0], y), projective_distances(x[:1].repeat(40, 0), y))


def test_stacked_distances_refuse_tiny_coordinates():
    x = np.array([[0.5, 0.5], [1.0 - 1e-301, 1e-301]])
    with pytest.raises(gf.ModelError, match="1e-300"):
        projective_distances(x, np.full((2, 2), 0.5))
    with pytest.raises(gf.ModelError, match="1e-300"):
        projective_distances(np.full((2, 2), 0.5), x)


def one_matrix_coefficient(mat):
    """The Birkhoff coefficient as one matrix at a time takes it: the same
    log cross-ratio minimum, without a stack."""
    if (mat == 0).any():
        return projective.ContractionCoefficient(tau=1.0, phi=0.0)
    logs = np.log(mat)
    diff = logs[:, None, :] - logs[None, :, :]
    log_phi = float((diff.min(axis=2) - diff.max(axis=2)).min())
    return projective.ContractionCoefficient(tau=math.tanh(-log_phi / 4.0), phi=math.exp(log_phi))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 8), st.integers(1, 8), st.integers(1, 12),
    st.floats(0.0, 0.5), st.integers(0, 2**32 - 1),
)
def test_stacked_coefficients_equal_the_one_matrix_coefficient(rows, cols, count, zeros, seed):
    # some matrices get zero entries, which give tau 1 whatever the others are
    rng = np.random.default_rng(seed)
    stack = np.exp(rng.uniform(-5, 5, size=(count, rows, cols)))
    stack[rng.uniform(size=stack.shape) < zeros * (rng.uniform(size=(count, 1, 1)) < 0.5)] = 0.0
    stacked = contraction_coefficients(stack)
    assert stacked == [gf.contraction_coefficient(m) for m in stack]
    assert stacked == [one_matrix_coefficient(m) for m in stack]
    assert all(type(c.tau) is float and type(c.phi) is float for c in stacked)
    assert [c.tau == 1.0 and c.phi == 0.0 for c in stacked] == [bool((m == 0).any()) for m in stack]


def test_stacked_coefficients_cross_chunk_boundaries(monkeypatch):
    # 2x3 matrices hold 12 log cross-ratios each: 5 fit a 64-double chunk, so
    # 23 matrices, two with zero entries, take five chunks
    monkeypatch.setattr(projective, "STACK_DOUBLES", 64)
    rng = np.random.default_rng(12)
    stack = np.exp(rng.uniform(-3, 3, size=(23, 2, 3)))
    stack[4, 1, 2] = stack[5, 0, 0] = 0.0
    expected = [one_matrix_coefficient(m) for m in stack]
    assert contraction_coefficients(stack) == expected
    # a matrix larger than the chunk bound is taken alone
    monkeypatch.setattr(projective, "STACK_DOUBLES", 4)
    assert contraction_coefficients(stack) == expected


def test_stacked_coefficient_chunks_are_bounded(monkeypatch):
    # 20x20 matrices hold 8,000 log cross-ratios each, so a 40,000-double
    # bound takes them five at a time; all 40 at once would be 320,000
    monkeypatch.setattr(projective, "STACK_DOUBLES", 40000)
    stack = np.exp(np.random.default_rng(13).uniform(-3, 3, size=(40, 20, 20)))
    tracemalloc.start()
    try:
        stacked = contraction_coefficients(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * 40000
    assert stacked == [one_matrix_coefficient(m) for m in stack]


def max_min_coefficients(stack, chunk_doubles):
    """The coefficients the way the stacked kernel took them before its
    min-plus form: log Phi = min over (e', f') of (min_c D - max_c D) with
    D[e', f', c] = log T(e', c) - log T(f', c), chunked and with the same
    nan rule for zero entries."""
    m, r, c = stack.shape
    chunk = max(1, chunk_doubles // (r * r * c))
    log_phi = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, m, chunk):
            logs = np.log(stack[start : start + chunk])
            diff = logs[:, :, None, :] - logs[:, None, :, :]
            log_phi += (diff.min(axis=3) - diff.max(axis=3)).reshape(len(logs), -1).min(axis=1).tolist()
    return [
        projective.ContractionCoefficient(tau=1.0, phi=0.0) if math.isnan(lp)
        else projective.ContractionCoefficient(tau=math.tanh(-lp / 4.0) + 0.0, phi=math.exp(lp))
        for lp in log_phi
    ]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 8), st.integers(1, 8), st.integers(1, 40), st.sampled_from([-5.0, -60.0, -690.0]),
    st.sampled_from(["plain", "zeros", "rank one"]), st.sampled_from([4, 64, 1 << 16]),
    st.integers(0, 2**32 - 1),
)
@example(2, 2, 3, -690.0, "plain", 1 << 16, 0)
def test_min_plus_coefficients_equal_the_max_min_form(rows, cols, count, low, kind, doubles, seed):
    # entries down to 1e-300 (log -690) give Birkhoff coefficients that round
    # to 1; small chunk bounds split the stack across chunk boundaries
    rng = np.random.default_rng(seed)
    if kind == "rank one":
        stack = np.exp(rng.uniform(low, 0, (count, rows, 1)) + rng.uniform(low, 0, (count, 1, cols)))
    else:
        stack = np.exp(rng.uniform(low, 0, size=(count, rows, cols)))
    if kind == "zeros":
        stack[rng.uniform(size=stack.shape) < 0.1] = 0.0
    with mock.patch.object(projective, "STACK_DOUBLES", doubles):
        stacked = contraction_coefficients(stack)
    expected = max_min_coefficients(stack, doubles)
    assert [c.tau for c in stacked] == [c.tau for c in expected]
    assert [c.phi for c in stacked] == [c.phi for c in expected]


def test_min_plus_coefficient_rounds_to_one_on_tiny_entries():
    # strictly positive, yet tau = tanh(-log(1e-40) / 4) is 1.0 in doubles
    coeff = gf.contraction_coefficient(np.array([[1.0, 1e-20], [1e-20, 1.0]]))
    assert coeff.tau == 1.0 and coeff.phi == pytest.approx(1e-40)


@pytest.mark.parametrize(
    "x_shape, y_shape", [((5,), (5,)), ((7, 3), (7, 3)), ((3,), (7, 3)), ((7, 3), (3,)), ((4, 7, 2), (7, 2)), ((1,), (1,))]
)
def test_distances_across_rows_equal_the_per_row_extremes(x_shape, y_shape):
    rng = np.random.default_rng(len(x_shape) * 10 + len(y_shape))
    x = rng.uniform(1e-3, 1.0, size=x_shape)
    y = rng.uniform(1e-3, 1.0, size=y_shape)
    ratio = np.log(x) - np.log(y)
    expected = ratio.max(axis=-1) - ratio.min(axis=-1)
    got = projective_distances(x, y)
    assert np.shape(got) == np.shape(expected)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "stack, message",
    [
        (np.zeros((0, 2, 2)), "nonempty"),
        (np.zeros((3, 0, 2)), "nonempty"),
        (np.ones((2, 2)), "nonempty"),
        (np.array([[[1.0, 1.0], [1.0, 1.0]], [[1.0, np.nan], [1.0, 1.0]]]), "finite"),
        (np.array([[[1.0, 1.0], [1.0, 1.0]], [[1.0, np.inf], [1.0, 1.0]]]), "finite"),
        (np.array([[[1.0, 0.0], [1.0, 1.0]], [[1.0, -1.0], [1.0, 1.0]]]), "nonnegative"),
    ],
)
def test_stacked_coefficients_keep_the_refusals(stack, message):
    with pytest.raises(gf.ModelError, match=message):
        contraction_coefficients(stack)
    if stack.ndim == 3 and stack.size:
        with pytest.raises(gf.ModelError, match=message):
            gf.contraction_coefficient(stack[-1])


@pytest.mark.parametrize("mat", [[[1.0, 2.0], [2.0, 4.0]], [[3.0]], [[0.5, 0.25, 2.0]]])
def test_rank_one_coefficient_is_plus_zero(mat):
    # log Phi is exactly 0.0 here, and tanh(-0.0 / 4) alone would be -0.0
    coeff = gf.contraction_coefficient(np.array(mat))
    assert coeff.tau == 0.0 and math.copysign(1.0, coeff.tau) == 1.0
    assert f"{coeff.tau:.6g}" == "0"
