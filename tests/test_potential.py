from __future__ import annotations

import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gibbsfactor as gf
from gibbsfactor import potential
from gibbsfactor.potential import (
    FLOAT_NOISE_FLOOR,
    PointSpec,
    _d_const,
    _lockstep_rows,
    _point_row,
    _window_search,
    _psi_sequence,
    canonical_extension,
    markov_approx,
    _cluster_values,
    perron_data,
    tail_completions,
)
from gibbsfactor.projection import backward_step, backward_transfer
from gibbsfactor.projective import normalize_rows, projective_distances

FROZEN_ABS_TOL = 1e-9


def _lockstep_scales(fs, points, depths):
    """psi_n's scales at the points at their depths: the sums of the
    level-0 rows of the backward lockstep, as evaluate_many takes them."""
    return np.add.reduce(_lockstep_rows(fs, points, depths), axis=1)


def _scale(fs, point, n):
    """psi_n's scale at one point: the sum of its one-point level-0 row."""
    return _point_row(fs, point, n).sum()


# ---------------------------------------------------------------- PointSpec


def test_point_spec_reduces_period_powers(adhoc5):
    pt = PointSpec(adhoc5, (), (0, 1, 0, 1))
    assert pt.period == (0, 1)
    assert pt.preperiod == ()


def test_point_spec_absorbs_repeating_preperiod(adhoc5):
    pt = PointSpec(adhoc5, (0, 1), (0, 1))
    assert pt == PointSpec(adhoc5, (), (0, 1))
    assert hash(pt) == hash(PointSpec(adhoc5, (), (0, 1)))


def test_point_spec_refuses_a_negative_shift(adhoc5):
    with pytest.raises(gf.AdmissibilityError, match="^shift must be nonnegative$"):
        PointSpec(adhoc5, (2,), (1, 0)).shifted(-1)


def test_point_spec_symbols(adhoc5):
    pt = PointSpec(adhoc5, (2,), (1, 0))
    assert pt.preperiod == (2,)
    assert pt.symbols(6) == (2, 1, 0, 1, 0, 1)
    assert pt.symbol_at(0) == 2
    assert pt.symbol_at(5) == 1


SYMBOL_SYSTEMS = {name: gf.example_system(name) for name in ("adhoc5", "fullshift4", "nongibbs6")}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(SYMBOL_SYSTEMS)), st.integers(0, 6), st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_point_spec_symbols_equal_a_symbol_at_walk(name, pre_len, per_len, seed):
    # an admissible walk of pre_len + per_len symbols, its period part
    # closing up; the point is whatever canonical form it reduces to
    fs = SYMBOL_SYSTEMS[name]
    tmc = fs.factor_tmc
    rng = np.random.default_rng(seed)
    for _ in range(100):
        walk = [int(rng.integers(fs.target_size))]
        while len(walk) < pre_len + per_len:
            walk.append(int(rng.choice(tmc.successors(walk[-1]))))
        if tmc.allows(walk[-1], walk[pre_len]):
            break
    # adhoc5 has no cycle of length 1
    assume(tmc.allows(walk[-1], walk[pre_len]))
    pt = PointSpec(fs, walk[:pre_len], walk[pre_len:])
    t0, q = len(pt.preperiod), len(pt.period)
    for n in range(3 * (t0 + q) + 1):
        assert pt.symbols(n) == tuple(pt.symbol_at(i) for i in range(n))


def test_point_spec_shift(adhoc5):
    pt = PointSpec(adhoc5, (2,), (1, 0))
    assert pt.shifted(1) == PointSpec(adhoc5, (), (1, 0))
    assert pt.shifted(2) == PointSpec(adhoc5, (), (0, 1))
    assert pt.shifted(0) == pt


def test_point_spec_rejects_bad_input(adhoc5):
    with pytest.raises(gf.AdmissibilityError):
        PointSpec(adhoc5, (), ())  # empty period
    with pytest.raises(gf.AdmissibilityError):
        PointSpec(adhoc5, (), (0, 2))  # a c does not close: c cannot reach a
    with pytest.raises(gf.AdmissibilityError):
        PointSpec(adhoc5, (2,), (0, 1))  # c does not connect to a


def test_point_spec_from_labels(adhoc5):
    pt = PointSpec.from_labels(adhoc5, ["c"], ["b", "a"])
    assert pt == PointSpec(adhoc5, (2,), (1, 0))


# ------------------------------------------------------------- Perron data


def test_perron_data_known_matrix():
    pd = perron_data(np.array([[2.0, 1.0], [1.0, 1.0]]))
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    rho = (3.0 + math.sqrt(5.0)) / 2.0
    assert pd.rho == pytest.approx(rho, rel=1e-12)
    expected = np.array([golden, 1.0])
    expected /= expected.sum()
    assert np.abs(pd.right - expected).max() < 1e-10
    assert pd.residual < 1e-12
    assert pd.left @ pd.right == pytest.approx(1.0, rel=1e-12)
    assert pd.second_modulus == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, rel=1e-6)


def test_perron_data_rejects_imprimitive():
    with pytest.raises(gf.ModelError):
        perron_data(np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize(
    "matrix, message",
    [([[2.0, 1.0], [math.nan, 3.0]], "needs finite entries"), ([[2.0, 1.0], [math.inf, 3.0]], "needs finite entries"),
     (np.zeros((0, 0)), "needs a nonempty matrix")],
    ids=["nan", "inf", "empty"],
)
def test_perron_data_refuses_a_non_finite_or_empty_matrix(matrix, message):
    # a non-finite matrix used to run all MAX_POWER_STEPS steps and return
    # nans, and an empty one raised ZeroDivisionError
    with pytest.raises(gf.ModelError, match=message):
        perron_data(matrix)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_perron_residual_invariant(seed, size):
    rng = np.random.default_rng(seed)
    mat = rng.uniform(0.05, 2.0, size=(size, size))
    pd = perron_data(mat)
    assert pd.residual <= 1e-12
    assert np.abs(mat @ pd.right - pd.rho * pd.right).max() <= 1e-11 * pd.rho
    assert pd.second_modulus < pd.rho


# ----------------------------------------------------- uniform certification


def test_constants_adhoc5_frozen(adhoc5_constants):
    c = adhoc5_constants
    # the pigeonhole window fails at length 4 (one admissible word has only a
    # degenerate repeat), so certification must move to length 5
    assert c.window == 5
    assert c.gap == 10
    assert c.tau == pytest.approx(0.0518633, rel=1e-4)
    assert c.theta == pytest.approx(c.tau ** (1.0 / 10.0), rel=1e-15)
    assert c.c1 == pytest.approx(c.tau**-3, rel=1e-15)
    assert 0 < c.tau < 1
    assert c.theta < 1
    assert c.d_const == pytest.approx(0.81093, rel=1e-3)
    assert c.k_gibbs > 0
    assert c.eq_radius_constant == pytest.approx(c.d_const * c.c1 / (1 - c.tau))
    assert c.holder_exponent == pytest.approx(
        math.log(1 / c.tau) * 8.0 / 10.0, rel=1e-12
    )


def test_constants_fullshift4(fullshift4_constants):
    c = fullshift4_constants
    assert c.window == 3  # the pigeonhole value for a two-symbol factor
    assert c.gap == 6
    assert 0 < c.tau < 1


@pytest.mark.parametrize("name", ["adhoc5", "fullshift4"])
def test_d_const_matches_normalized_action_loop(name, request):
    # d_const recomputed step by step with apply_normalized, the route it
    # took before the backward-transfer kernel; the two must agree exactly
    fs = request.getfixturevalue(name)
    c = request.getfixturevalue(f"{name}_constants")
    d_const = 0.0
    for length in range(2, c.gap + 1):
        for word in gf.enumerate_words(fs.factor_tmc, length):
            symbols = word.symbols
            x = fs.marginal_hat(symbols[-1])
            for i in range(len(symbols) - 2, -1, -1):
                x = gf.apply_normalized(
                    fs.weight(symbols[i], symbols[i + 1]), x, out_fiber=symbols[i]
                )
            d_const = max(d_const, gf.projective_distance(fs.marginal_hat(symbols[0]), x))
    assert c.d_const == d_const


def per_word_d_const(fs, gap):
    """d_const the way it was taken before the suffix trie: one
    backward_transfer per admissible word of length 2..gap."""
    d_const = 0.0
    for length in range(2, gap + 1):
        for word in gf.enumerate_words(fs.factor_tmc, length):
            b0 = word.symbols[0]
            x = gf.SimplexPoint(backward_transfer(fs, word.symbols)[2], fiber=b0)
            d_const = max(d_const, gf.projective_distance(fs.marginal_hat(b0), x))
    return d_const


def random_certified_system(seed, fibers):
    """First seeded draw over the given fiber sizes, each source transition
    forbidden with probability 1/5, that passes H1, H2 and the window
    search."""
    rng = np.random.default_rng(seed)
    n = sum(fibers)
    labels = [f"s{i}" for i in range(n)]
    target = [str(b) for b, k in enumerate(fibers) for _ in range(k)]
    while True:
        incidence = (rng.uniform(size=(n, n)) > 0.2).astype(int)
        p = rng.uniform(0.05, 1.0, size=(n, n)) * incidence
        p /= np.maximum(p.sum(axis=1, keepdims=True), 1e-300)
        doc = {
            "alphabet": labels,
            "incidence": incidence.tolist(),
            "transition": p.tolist(),
            "projection": dict(zip(labels, target)),
        }
        try:
            fs = gf.parse_model(doc)
            return fs, gf.uniform_constants(fs)
        except (gf.ModelError, gf.CertificationError):
            continue


@pytest.mark.parametrize(
    "seed, fibers", [(1, (1, 3)), (2, (2, 3)), (3, (2, 4)), (4, (1, 2, 3)), (5, (3, 1, 2))]
)
def test_d_const_trie_matches_per_word_loop(seed, fibers):
    fs, c = random_certified_system(seed, fibers)
    # three-symbol targets are compared up to length 8 to keep the loop short
    gap = min(c.gap, 8)
    reference = per_word_d_const(fs, gap)
    assert _d_const(fs, gap) == reference
    if gap == c.gap:
        assert c.d_const == reference


def full_shift_system(n, nb, seed):
    """Full n-shift onto nb symbols with fibers of n // nb, transition rows
    uniform over [0.01, 1] from np.random.default_rng(seed)."""
    rng = np.random.default_rng(seed)
    labels = [f"s{i}" for i in range(n)]
    p = rng.uniform(0.01, 1.0, size=(n, n))
    p /= p.sum(axis=1, keepdims=True)
    return gf.parse_model({
        "alphabet": labels,
        "incidence": [[1] * n for _ in range(n)],
        "transition": p.tolist(),
        "projection": {lab: str(i // (n // nb)) for i, lab in enumerate(labels)},
    })


def test_d_const_trie_on_full_four_shift_target():
    # full 8-shift onto 4 symbols with fibers of 2: gap 10 means 4**10 words
    # of length 10, which the per-word loop takes minutes over
    fs = full_shift_system(8, 4, 8)
    short = _d_const(fs, 6)
    assert short == per_word_d_const(fs, 6)
    c = gf.uniform_constants(fs)
    assert (c.window, c.gap) == (5, 10)
    assert c.d_const >= short


@pytest.mark.parametrize(
    "row_scale, message", [(0.0, "strictly positive"), (1e-310, "below 1e-300")]
)
def test_d_const_trie_refuses_boundary_images(row_scale, message):
    # images on (or within 1e-300 of) the simplex boundary are refused, as
    # SimplexPoint and projective_distance refuse them
    fs = gf.example_system("fullshift4")
    fs.fiber_weight[(0, 1)] = fs.fiber_weight[(0, 1)] * np.array([[1.0], [row_scale]])
    with pytest.raises(gf.ModelError, match=message):
        _d_const(fs, 3)


def enumerated_d_const(fs, gap):
    """_d_const as it was before it kept only the extreme rows of two-symbol
    fibers: the image of every word at every level."""
    hats = [fs.marginal_hat(b).coords for b in range(fs.target_size)]
    rows = [hat[None, :] for hat in hats]
    d_const = 0.0
    for _ in range(gap - 1):
        rows = [normalize_rows(level) for level in backward_step(fs, rows)]
        for hat, level in zip(hats, rows):
            d_const = max(d_const, float(projective_distances(hat, level).max()))
    return d_const


@pytest.mark.parametrize(
    "model", [("full", (8, 4, 8)), ("full", (6, 3, 33)), ("example", "adhoc5")], ids=["8-4-8", "6-3-33", "adhoc5"]
)
def test_d_const_keeps_at_most_two_rows_per_two_symbol_fiber(monkeypatch, model):
    # gap 10 on the 8 -> 4 target: 1,398,096 rows enumerated, 272 kept;
    # adhoc5 mixes fibers of two and one symbols.  Rows are counted in the
    # levels _d_const_step returns
    kind, key = model
    fs = full_shift_system(*key) if kind == "full" else gf.example_system(key)
    c = gf.uniform_constants(fs)
    nb = fs.target_size
    assert c.gap == (2 * (nb + 1) if kind == "full" else 10)
    reference = enumerated_d_const(fs, c.gap)
    step = potential._d_const_step
    levels = []

    def counting_step(*args):
        out = step(*args)
        levels.append(sum(len(level) for level in out.values()))
        return out

    monkeypatch.setattr(potential, "_d_const_step", counting_step)
    assert _d_const(fs, c.gap) == reference == c.d_const
    assert len(levels) == c.gap - 1
    assert max(levels) <= 2 * nb**2


@pytest.mark.parametrize(
    "model",
    [("sparse", seed) for seed in range(40)]
    + [("random", key) for key in [(1, (1, 3)), (2, (2, 3)), (4, (1, 2, 3)), (5, (3, 1, 2))]]
    + [("example", "adhoc5"), ("example", "fullshift4")]
    + [("blocked", ("aaabbbc", "bc")), ("blocked", ("aabb", "bb"))],
)
def test_stacked_d_const_equals_the_enumeration_and_the_per_word_loop(model):
    # sparse seeds 0..39 hold fibers of 1, 2 and 3 symbols and forbid some
    # pairs, so fibers of one size hold unequal row counts; the blocked
    # models do so on fibers of three, and where only the last fiber misses
    # its last successor; the per-word loop stops at length 7 (8 for the
    # others) to stay short
    kind, key = model
    if kind == "random":
        fs = random_certified_system(*key)[0]
    elif kind == "blocked":
        fs = blocked_model(*key, seed=34)
    else:
        fs = sparse_model(key) if kind == "sparse" else gf.example_system(key)
    try:
        gap = gf.uniform_constants(fs).gap
    except gf.CertificationError:
        gap = 8
    gap = min(gap, 7 if kind == "sparse" else 8)
    assert _d_const(fs, gap) == enumerated_d_const(fs, gap) == per_word_d_const(fs, gap)


def test_d_const_keeps_the_first_of_tied_rows(monkeypatch):
    # rows of one two-symbol fiber with equal x1/x0 but other bits: the
    # pass keeps what take((argmin, argmax)) keeps, argmin's before argmax's
    fs = gf.example_system("fullshift4")
    tied = np.array([
        [[0.3, 0.7], [1.0, 2.0], [0.25, 0.75], [2.0, 4.0]],
        [[0.2, 0.8], [0.4, 0.6], [0.1, 0.4], [0.3, 0.7]],
    ])
    step = potential._d_const_step
    seen = []

    def tying_step(layout, keep, *args):
        seen.append(keep)
        rows = step(layout, keep, *args)
        return {2: tied.reshape(rows[2].shape)} if len(seen) == 2 else rows

    monkeypatch.setattr(potential, "_d_const_step", tying_step)
    _d_const(fs, 4)
    ratios = tied[..., 1] / tied[..., 0]
    expected = [rows.take((ratio.argmin(), ratio.argmax()), axis=0) for rows, ratio in zip(tied, ratios)]
    assert (seen[2][2] == np.concatenate(expected)).all()
    assert (seen[2][2] == [[1.0, 2.0], [0.25, 0.75], [0.4, 0.6], [0.2, 0.8]]).all()


def test_d_const_keeps_a_fiber_of_two_rows_in_order(monkeypatch):
    # adhoc5 from the fourth level: fiber a holds 3 rows and fiber b 2; b
    # keeps both rows as they stand, though its x1/x0 falls, while a keeps
    # argmin's row, then argmax's
    fs = gf.example_system("adhoc5")
    crafted = np.array([[0.3, 0.7], [0.1, 0.9], [0.5, 0.5], [0.2, 0.8], [0.6, 0.4]])
    step = potential._d_const_step
    seen = []

    def crafting_step(layout, keep, spans):
        seen.append(keep)
        rows = step(layout, keep, spans)
        if len(seen) == 3:
            assert rows[2].shape == crafted.shape
            rows[2] = crafted
        return rows

    monkeypatch.setattr(potential, "_d_const_step", crafting_step)
    _d_const(fs, 5)
    assert (seen[3][2] == [[0.5, 0.5], [0.1, 0.9], [0.2, 0.8], [0.6, 0.4]]).all()


@pytest.mark.parametrize(
    "first, second, message",
    [(np.inf, 0.0, "strictly positive"), (0.0, np.inf, "strictly positive"), (1.0, np.inf, "must be finite")],
)
def test_d_const_refuses_a_level_with_a_bad_coordinate(first, second, message):
    # one level stacks both fibers and normalizes them in one pass, which
    # tests positivity over the whole stack before finiteness
    fs = gf.example_system("fullshift4")
    fs.fiber_weight[(0, 1)] = fs.fiber_weight[(0, 1)] * np.array([[1.0], [first]])
    fs.fiber_weight[(1, 0)] = fs.fiber_weight[(1, 0)] * np.array([[1.0], [second]])
    with pytest.raises(gf.ModelError, match=message):
        _d_const(fs, 3)


def exact_d_const(fs, gap):
    """d_const of the model as given, without roundoff: along a word b0..bn,
    x_i / mu_hat(b0)_i is, up to a factor common to all i, the i-th entry
    of y = P_{b0 b1} ... P_{bn-1 bn} 1, with P_{b b'} the transition block
    over fiber(b) x fiber(b') (the stationary factors of the weights
    cancel), so delta(mu_hat(b0), x) is log(max y / min y).  The greatest ratio over the words of length
    2..gap is taken in Fractions of the transition's floats and its log in
    50-digit decimal."""
    fibers = fs.projection.fibers
    transition = [[Fraction(v) for v in row] for row in fs.model.transition.tolist()]
    rows = [[[Fraction(1)] * len(fiber)] for fiber in fibers]
    worst = Fraction(1)
    for _ in range(gap - 1):
        steps = [[] for _ in rows]
        for b0, b1 in fs.fiber_weight:
            block = [[transition[a][a1] for a1 in fibers[b1]] for a in fibers[b0]]
            steps[b0] += [[sum(p * v for p, v in zip(row, y)) for row in block] for y in rows[b1]]
        rows = steps
        worst = max([worst] + [max(y) / min(y) for level in rows for y in level])
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return float((decimal.Decimal(worst.numerator) / worst.denominator).ln())


@pytest.mark.parametrize(
    "model", [("example", "fullshift4"), ("example", "adhoc5"), ("sparse", 159), ("sparse", 190)]
)
def test_d_const_within_roundoff_of_the_exact_maximum(model):
    # sparse seeds 159 and 190 are the two of seeds 0..199 where the kept
    # rows and the enumeration differ (by 1 and 3 ulps); each sits a few
    # ulps from the exact value there, so roundoff, not a dropped row, sets
    # those bits
    kind, key = model
    fs = gf.example_system(key) if kind == "example" else sparse_model(key)
    c = gf.uniform_constants(fs)
    exact = exact_d_const(fs, c.gap)
    for d_const in (c.d_const, enumerated_d_const(fs, c.gap)):
        assert abs(d_const - exact) <= FLOAT_NOISE_FLOOR * exact


def test_constants_need_metric_scale(adhoc5_constants):
    fields = {k: getattr(adhoc5_constants, k) for k in (
        "tau", "theta", "c1", "d_const", "c_total", "k_gibbs", "window", "gap"
    )}
    with pytest.raises(TypeError):
        gf.UniformConstants(**fields)


def test_window_four_word_without_positive_repeat(adhoc5):
    # the word that forces the larger window: its only repeated-symbol block
    # is the phase of the three-cycle with a zero column in its product
    word = adhoc5.factor_word(["b", "a", "c", "b"])
    product = adhoc5.word_product(word.symbols)
    assert (product == 0).any()


def word_by_word_window_search(fs):
    """The window search as one loop over words: each block's coefficient is
    taken when the block is first met, and a length stops at its first word
    without a contracting block.  Returns (window, block_tau)."""
    nb = fs.target_size
    block_tau = {}
    for w_len in range(nb + 1, 3 * (nb + 1) + 1):
        for word in gf.enumerate_words(fs.factor_tmc, w_len):
            symbols = word.symbols
            word_good = False
            for l in range(1, w_len):
                for m in range(l):
                    if symbols[m] != symbols[l]:
                        continue
                    block = symbols[m : l + 1]
                    if block not in block_tau:
                        product = fs.word_product(block)
                        positive = (product > 0).all()
                        block_tau[block] = gf.contraction_coefficient(product).tau if positive else 1.0
                    if block_tau[block] < 1.0:
                        word_good = True
            if not word_good:
                break
        else:
            return w_len, block_tau
    raise gf.CertificationError(
        f"no window length up to {3 * (nb + 1)} guarantees a positive "
        "repeated block in every admissible word"
    )


def per_level_d_const(fs, gap):
    """d_const with one SimplexPoint per fiber per level, as the trie took
    the marginals before it read them once."""
    rows = [fs.marginal_hat(b).coords[None, :] for b in range(fs.target_size)]
    d_const = 0.0
    for _ in range(gap - 1):
        rows = backward_step(fs, rows)
        for b0 in range(len(rows)):
            rows[b0] = normalize_rows(rows[b0])
            ratio = np.log(fs.marginal_hat(b0).coords) - np.log(rows[b0])
            d_const = max(d_const, float((ratio.max(axis=-1) - ratio.min(axis=-1)).max()))
    return d_const


def word_by_word_constants(fs):
    """(window, gap, tau, d_const, block_tau) the way uniform_constants took
    them word by word, or the CertificationError it raised."""
    window, block_tau = word_by_word_window_search(fs)
    tau = max(max(t for t in block_tau.values() if t < 1.0), 1e-12)
    gap = 2 * window
    if tau ** (1.0 / gap) == 1.0:
        message = f"decay rate tau**(1/gap) is 1 in double precision (tau {tau!r}, gap {gap})"
        raise gf.CertificationError(message + ", so it bounds no radius")
    return window, gap, tau, per_level_d_const(fs, gap), block_tau


def sparse_model(seed):
    """First seeded draw (3 to 7 source symbols onto 2 or 3, about 40 % of
    the transitions forbidden) that loads and passes H1 and H2."""
    rng = np.random.default_rng([seed, 15])
    while True:
        n, nb = int(rng.integers(3, 8)), int(rng.integers(2, 4))
        labels = [f"s{i}" for i in range(n)]
        incidence = (rng.uniform(size=(n, n)) < 0.6).astype(int)
        p = rng.uniform(0.05, 1.0, size=(n, n)) * incidence
        p /= np.maximum(p.sum(axis=1, keepdims=True), 1e-300)
        mapping = list(range(nb)) + [int(x) for x in rng.integers(0, nb, size=n - nb)]
        try:
            fs = gf.parse_model({
                "alphabet": labels,
                "incidence": incidence.tolist(),
                "transition": p.tolist(),
                "projection": {lab: str(b) for lab, b in zip(labels, mapping)},
            })
        except gf.ModelError:
            continue
        if fs.h1.passed and fs.h2.passed:
            return fs


def blocked_model(target, blocked, seed):
    """Seeded source on len(target) symbols, symbol i onto target[i], with
    every transition allowed but those from fiber blocked[0] to fiber
    blocked[1]."""
    rng = np.random.default_rng(seed)
    labels = np.array(list(target))
    incidence = 1 - np.outer(labels == blocked[0], labels == blocked[1]).astype(int)
    p = rng.uniform(0.05, 1.0, size=incidence.shape) * incidence
    return gf.parse_model({
        "alphabet": [f"s{i}" for i in range(len(target))],
        "incidence": incidence.tolist(),
        "transition": (p / p.sum(axis=1, keepdims=True)).tolist(),
        "projection": {f"s{i}": t for i, t in enumerate(target)},
    })


def log_uniform_fullshift4(draw):
    """fullshift4 with transition rows log-uniform over [1e-25, 1]: the given
    draw of np.random.default_rng(5)."""
    rng = np.random.default_rng(5)
    for _ in range(draw):
        p = np.exp(rng.uniform(np.log(1e-25), 0.0, size=(4, 4)))
    p /= p.sum(axis=1, keepdims=True)
    return gf.parse_model(dict(gf.expand_example("fullshift4"), transition=p.tolist()))


def constants_or_refusal(fs):
    try:
        c = gf.uniform_constants(fs)
    except gf.CertificationError as exc:
        return str(exc)
    return c.window, c.gap, c.tau, c.d_const, _window_search(fs)[1]


def reference_or_refusal(fs):
    try:
        return word_by_word_constants(fs)
    except gf.CertificationError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "model",
    [("example", name) for name in ("adhoc5", "fullshift4", "nongibbs6", "converse_false")]
    + [("sparse", seed) for seed in range(40)]
    + [("log-uniform", draw) for draw in (2, 5, 18, 30, 43)],
)
def test_constants_equal_the_word_by_word_search(model):
    kind, key = model
    fs = {"example": gf.example_system, "sparse": sparse_model, "log-uniform": log_uniform_fullshift4}[kind](key)
    if not (fs.h1.passed and fs.h2.passed):
        # refused before any window is searched
        with pytest.raises(gf.CertificationError):
            gf.uniform_constants(fs)
        return
    got = constants_or_refusal(fs)
    assert got == reference_or_refusal(fs)
    if kind == "example" and key == "adhoc5":
        # the window-5 case: length 4 stops at its first word without a
        # contracting block, whose blocks are kept
        assert got[0] == 5 and got[4][(1, 0, 2, 1)] == 1.0
    if kind == "log-uniform" and key == 43:
        assert got.startswith("decay rate tau**(1/gap) is 1")


def test_constants_refused_without_h2(nongibbs6):
    with pytest.raises(gf.CertificationError):
        gf.uniform_constants(nongibbs6)


def test_constants_refused_without_h1(converse_false):
    with pytest.raises(gf.CertificationError):
        gf.uniform_constants(converse_false)


# ------------------------------------------------------- evaluate: certified


def test_certified_evaluation_meets_target(adhoc5, adhoc5_constants):
    pt = PointSpec(adhoc5, (), (0, 1))
    ev = gf.evaluate(adhoc5, pt, target_error=1e-10, constants=adhoc5_constants)
    assert ev.mode == "certified"
    assert ev.certified
    assert ev.error_radius <= 1e-10
    assert ev.value is not None


def test_certified_value_stable_under_tighter_target(adhoc5, adhoc5_constants):
    pt = PointSpec(adhoc5, (2,), (1, 0))
    loose = gf.evaluate(adhoc5, pt, target_error=1e-8, constants=adhoc5_constants)
    tight = gf.evaluate(adhoc5, pt, target_error=1e-12, constants=adhoc5_constants)
    assert abs(loose.value - tight.value) <= loose.error_radius + tight.error_radius


def test_backward_and_forward_engines_agree(adhoc5):
    pt = PointSpec(adhoc5, (2,), (1, 0))
    seq = _psi_sequence(adhoc5, pt, 40)
    for n in (1, 2, 5, 17, 40):
        assert markov_approx(adhoc5, pt.symbols(n + 1)) == pytest.approx(seq[n - 1], abs=1e-12)


def test_psi_matches_finite_range_approximation(adhoc5):
    pt = PointSpec(adhoc5, (), (0, 2, 1))
    depths = (2, 5, 9)
    scales = _lockstep_scales(adhoc5, [pt] * len(depths), depths)
    for n, scale in zip(depths, scales):
        word = pt.symbols(n + 1)
        assert markov_approx(adhoc5, word) == pytest.approx(
            float(np.log(scale)), abs=1e-12
        )


def test_markov_approx_rejects_word_of_another_chain(adhoc5):
    source_word = gf.Word(adhoc5.model.tmc, (0, 1))
    with pytest.raises(gf.AdmissibilityError, match="does not belong"):
        markov_approx(adhoc5, source_word)


# -------------------------------------------------------- evaluate: adaptive


def test_adaptive_evaluation_agrees_with_certified(adhoc5, adhoc5_constants):
    for pre, per in [((), (0, 1)), ((), (0, 2, 1)), ((2,), (1, 0))]:
        pt = PointSpec(adhoc5, pre, per)
        cert = gf.evaluate(adhoc5, pt, target_error=1e-11, constants=adhoc5_constants)
        adap = gf.evaluate(adhoc5, pt, target_error=1e-11)
        assert adap.mode == "adaptive"
        assert not adap.certified
        assert abs(cert.value - adap.value) <= cert.error_radius + adap.error_radius


def test_forced_zero_at_unique_predecessor(adhoc5, adhoc5_constants):
    # when the second symbol of the point has a unique predecessor in the
    # induced chain, the defining ratio is identically 1 and psi is exactly 0
    for pre, per in [((), (1, 0, 2)), ((), (0, 2, 1)), ((), (1, 0))]:
        pt = PointSpec(adhoc5, pre, per)
        ev = gf.evaluate(adhoc5, pt, constants=adhoc5_constants)
        assert abs(ev.value) <= 1e-13


def test_frozen_value_on_three_cycle(adhoc5, adhoc5_constants):
    pt = PointSpec(adhoc5, (), (2, 1, 0))
    ev = gf.evaluate(adhoc5, pt, target_error=1e-11, constants=adhoc5_constants)
    assert ev.value == pytest.approx(-0.980829253012, abs=FROZEN_ABS_TOL)


def orbits_up_to(fs, p_max):
    """Every orbit of period <= p_max whose steps have no zero fiber row, as
    the list of its rotations, keyed by its least rotation; and the number
    of orbits refused for a zero row."""
    orbits, refused = {}, set()
    for pp in gf.enumerate_periodic(fs.factor_tmc, p_max):
        per = pp.symbols
        key, point = min(per[k:] + per[:k] for k in range(len(per))), PointSpec(fs, (), per)
        try:
            potential._check_point_rows(fs, point)
        except gf.EvaluationRefused:
            refused.add(key)
            continue
        orbits.setdefault(key, []).append(point)
    return orbits, len(refused)


def test_birkhoff_sum_over_orbit_is_log_spectral_radius():
    # summing psi over all rotations of a cycle telescopes the defining
    # ratios into nu[one full period shift], whose growth rate is the
    # dominant eigenvalue of the one-period product.  Checked through
    # evaluate_many on the orbits whose every rotation takes the certified
    # route or, without constants, the eigendata route, and through
    # periodic_many on those whose every rotation takes the eigendata route;
    # scan-route radii are observed, not proven, so those orbits are only
    # counted
    systems = [gf.example_system(name) for name in ("adhoc5", "fullshift4", "nongibbs6", "converse_false")]
    systems += [sparse_model(seed) for seed in range(40)]
    checked = {"backward": 0, "eigendata": 0, "scan": 0, "refused": 0, "overlap": 0}
    for fs in systems:
        try:
            constants = gf.uniform_constants(fs)
        except gf.CertificationError:
            constants = None
        orbits, refused = orbits_up_to(fs, 4)
        checked["refused"] += refused
        points = [p for rotations in orbits.values() for p in rotations]
        plans = dict(zip(points, potential._routes(fs, points, 1e-12, constants)))
        backward = dict(zip(points, gf.evaluate_many(fs, points, 1e-12, constants)))
        eigendata = dict(zip(points, gf.periodic_many(fs, points)))
        # every eigendata interval, at a base or carried, overlaps the
        # evaluate_many interval; a diverged point has none to compare
        for p in points:
            (ev, pd), other = eigendata[p], backward[p]
            if pd is not None and other.value is not None:
                assert abs(ev.value - other.value) <= ev.error_radius + other.error_radius, p
                checked["overlap"] += 1
        for period, rotations in orbits.items():
            product = fs.word_product(period + period[:1])
            log_rho = math.log(np.abs(np.linalg.eigvals(product)).max())
            routes = []
            if all(plans[p].mode != "scan" for p in rotations):
                routes.append(("backward", [backward[p] for p in rotations]))
            else:
                checked["scan"] += 1
            if all(eigendata[p][1] is not None for p in rotations):
                routes.append(("eigendata", [eigendata[p][0] for p in rotations]))
                # the values of one pass around the cycle telescope into
                # log |T d_hat|_1 at the base, within the inclusion term of
                # the log of its rho, which every rotation holds
                rhos = {eigendata[p][1].rho for p in rotations}
                assert len(rhos) == 1
                assert abs(math.fsum(eigendata[p][0].value for p in rotations) - math.log(rhos.pop())) <= 1e-12
            for route, evs in routes:
                checked[route] += 1
                total = math.fsum(ev.value for ev in evs)
                assert abs(total - log_rho) <= sum(ev.error_radius for ev in evs) + 1e-10, (route, period)
    assert checked == {"backward": 359, "eigendata": 359, "scan": 7, "refused": 6, "overlap": 1024}


def test_evaluation_refused_on_zero_row_step(converse_false):
    pt = PointSpec(converse_false, (), (0, 1))
    with pytest.raises(gf.EvaluationRefused) as err:
        gf.evaluate(converse_false, pt)
    assert err.value.window == (0, 1)


def _first_zero_row_step(fs, point):
    """(message, window) of the first zero-row step along the point, taken
    one symbol_at pair at a time, or None."""
    labels = fs.projection.target.labels
    for i in range(len(point.preperiod) + len(point.period)):
        a, b = point.symbol_at(i), point.symbol_at(i + 1)
        if (a, b) in fs.zero_row_blocks:
            return (
                f"step {labels[a]}->{labels[b]} at position {i} has an all-zero "
                "fiber row; potential undefined along this point",
                (i, i + 1),
            )
    return None


def missing_word_system():
    # a, b, c onto 0, 1, 1: the 1 -> 1 block has the zero row c, so along
    # (101)* only the closing step 1 -> 1 is refused
    alph = gf.Alphabet(["a", "b", "c"])
    inc = np.array([[1, 1, 0], [1, 0, 1], [1, 0, 0]], dtype=int)
    trans = np.where(inc, inc / inc.sum(axis=1, keepdims=True), 0.0)
    proj = gf.Projection.from_labels(alph, {"a": "0", "b": "1", "c": "1"})
    return gf.build_factor_system(gf.MarkovModel(gf.Tmc(alph, inc), trans), proj)


@pytest.mark.parametrize("model", ["converse_false", "missing_word"])
def test_refusals_match_a_symbol_at_walk(request, model):
    fs = missing_word_system() if model == "missing_word" else request.getfixturevalue(model)
    tmc = fs.factor_tmc
    preperiods = [()] + [w.symbols for t0 in (1, 2, 3) for w in gf.enumerate_words(tmc, t0)]
    periods = [w.symbols for q in range(1, 5) for w in gf.enumerate_words(tmc, q)]
    refused = 0
    for period in periods:
        if not tmc.allows(period[-1], period[0]):
            continue
        for pre in preperiods:
            if pre and not tmc.allows(pre[-1], period[0]):
                continue
            point = PointSpec(fs, pre, period)
            expected = _first_zero_row_step(fs, point)
            if expected is None:
                gf.evaluate(fs, point)  # not refused
                continue
            with pytest.raises(gf.EvaluationRefused) as err:
                gf.evaluate(fs, point)
            assert (str(err.value), err.value.window) == expected
            refused += 1
    assert refused > 20


def test_rank_one_fixed_point_value(converse_false):
    # the 0 -> 0 fiber block has a single nonzero column, so the backward
    # vector is a fixed point from the first step and psi is log P(a, a)
    pt = PointSpec(converse_false, (), (0,))
    ev = gf.evaluate(converse_false, pt)
    assert ev.mode == "adaptive"
    assert not ev.certified
    assert ev.value == pytest.approx(math.log(1.0 / 3.0), abs=1e-12)
    assert ev.error_radius <= 1e-12


# ------------------------------------------------- divergence and near-limit


def test_divergence_detected_with_cluster_values(nongibbs6):
    pt = PointSpec(nongibbs6, (), (0,))
    ev = gf.evaluate(nongibbs6, pt)
    assert ev.mode == "diverged"
    assert ev.value is None
    assert ev.error_radius == math.inf
    assert len(ev.clusters) == 2
    lo, hi = sorted(ev.clusters)
    gamma = 0.3
    assert lo == pytest.approx(math.log(5 * gamma / (5 * gamma + 1)), abs=FROZEN_ABS_TOL)
    assert hi == pytest.approx(math.log((5 * gamma + 1) / 4.0), abs=FROZEN_ABS_TOL)


def test_cluster_values_groups_within_1e_6_and_refuses_a_spread_beyond_1e_9():
    assert _cluster_values([1.0, 0.0, 1.0 + 5e-10]) == [0.0, 1.0 + 2.5e-10]
    # each step is within 1e-6, so the chain forms one cluster 1.8e-6 wide
    assert _cluster_values([0.0, 9e-7, 1.8e-6]) is None


def test_uncertified_convergence_on_alternating_point(nongibbs6):
    pt = PointSpec(nongibbs6, (), (0, 1))
    ev = gf.evaluate(nongibbs6, pt)
    assert ev.mode == "adaptive"
    assert not ev.certified
    gamma = 0.3
    assert ev.value == pytest.approx(math.log(1.5 - 2 * gamma), abs=FROZEN_ABS_TOL)


def test_uncertified_convergence_on_fixed_point(nongibbs6):
    pt = PointSpec(nongibbs6, (), (1,))
    ev = gf.evaluate(nongibbs6, pt)
    assert ev.mode == "adaptive"
    gamma = 0.3
    assert ev.value == pytest.approx(math.log(3 * gamma - 0.5), abs=FROZEN_ABS_TOL)


# ---------------------------------------------------------- eigendata route


def test_periodic_potential_matches_evaluate(adhoc5, adhoc5_constants):
    for period in [(0, 1), (1, 0), (0, 2, 1), (2, 1, 0)]:
        pt = PointSpec(adhoc5, (), period)
        per_ev, pd = gf.periodic_potential(adhoc5, pt)
        it_ev = gf.evaluate(adhoc5, pt, target_error=1e-11, constants=adhoc5_constants)
        assert pd is not None
        assert per_ev.certified
        assert abs(per_ev.value - it_ev.value) <= (
            per_ev.error_radius + it_ev.error_radius
        )
        assert per_ev.error_radius < 1e-6


def test_periodic_potential_fixed_point(fullshift4):
    pt = PointSpec(fullshift4, (), (0,))
    ev, pd = gf.periodic_potential(fullshift4, pt)
    assert pd is not None
    assert ev.value == pytest.approx(math.log(pd.rho), abs=1e-13)


def test_periodic_potential_carries_an_imprimitive_phase_from_its_base(adhoc5):
    # this rotation of the three-cycle has a zero column in its one-period
    # product, so it is not a base; alone in its batch, it takes its value
    # and radius from the pass around the cycle of its orbit's base, and
    # its carried left vector holds the zero of that column
    pt = PointSpec(adhoc5, (), (1, 0, 2))
    assert not gf.pattern_primitivity(adhoc5.word_product((1, 0, 2, 1))).primitive
    ev, pd = gf.periodic_potential(adhoc5, pt)
    assert pd is not None and ev.mode == "certified" and ev.certified
    assert ev.notes == ("dominant eigendata at a periodic point",)
    assert (pd.left == 0).any() and (pd.right > 0).all()
    assert abs(ev.value) <= ev.error_radius


def test_periodic_potential_falls_back_on_imprimitive_phase(nongibbs6):
    # the one-period product of (0) is not primitive, and it is the orbit's
    # only rotation, so the eigendata route defers to the iterative evaluator
    ev, pd = gf.periodic_potential(nongibbs6, PointSpec(nongibbs6, (), (0,)))
    assert pd is None and ev.mode == "diverged"
    assert ev.notes[-1] == "one-period product is not primitive; eigendata route refused"


def test_periodic_potential_rejects_preperiod(adhoc5):
    with pytest.raises(gf.AdmissibilityError):
        gf.periodic_potential(adhoc5, PointSpec(adhoc5, (2,), (1, 0)))


# ------------------------------------------------- extensions and completions


def test_canonical_extension_prefers_shortest_return(adhoc5):
    assert canonical_extension(adhoc5, (0,)) == PointSpec(adhoc5, (), (0, 1))
    assert canonical_extension(adhoc5, (0, 2)) == PointSpec(adhoc5, (), (0, 2, 1))
    assert canonical_extension(adhoc5, (2,)) == PointSpec(adhoc5, (), (2, 1, 0))


def test_canonical_extension_keeps_prefix(adhoc5, fullshift4):
    for fs in (adhoc5, fullshift4):
        for n in range(1, 6):
            for word in gf.enumerate_words(fs.factor_tmc, n):
                pt = canonical_extension(fs, word.symbols)
                assert pt.symbols(n) == word.symbols


def test_tail_completions_distinct_points_sharing_prefix(adhoc5):
    pts = tail_completions(adhoc5, (0,), count=2)
    assert len(pts) == 2
    assert pts[0] != pts[1]
    for pt in pts:
        assert pt.symbols(1) == (0,)


@pytest.mark.parametrize("count", [0, -1])
def test_tail_completions_refuse_a_count_below_one(adhoc5, count):
    # a count of 0 used to return one point
    with pytest.raises(gf.ModelError, match=f"count >= 1, got {count}"):
        tail_completions(adhoc5, (0,), count)
    assert len(tail_completions(adhoc5, (0,), 1)) == 1


# ------------------------------------------------------- variation sampling


def test_holder_report_adhoc5(adhoc5, adhoc5_constants):
    report = gf.holder_variation(adhoc5, adhoc5_constants, n_max=8)
    assert report.bound_ok
    assert report.fitted_rate is not None
    assert report.fitted_rate <= report.theta
    assert all(a >= b for a, b in zip(report.var, report.var[1:]))
    assert all(s <= v for s, v in zip(report.level_spread, report.var))
    assert report.max_eval_radius <= 1e-10
    assert report.exponent == pytest.approx(
        adhoc5_constants.holder_exponent, rel=1e-15
    )


# ------------------------------------------------------- finite-range check


def test_obstruction_excluded_on_generic_full_shift(fullshift4):
    report = gf.finite_range_obstruction(fullshift4)
    assert not report.shared_eigenvector
    assert not report.rank_one_block
    assert not report.ones_left_eigenvector
    assert report.excluded
    assert report.details["eigenvector_gap"] > 1e-3


def test_obstruction_not_excluded_for_uniform_rows():
    alph = gf.Alphabet(["a", "b", "c", "d"])
    tmc = gf.Tmc(alph, np.ones((4, 4), dtype=int))
    model = gf.MarkovModel(tmc, np.full((4, 4), 0.25))
    proj = gf.Projection.from_labels(alph, {"a": "0", "b": "0", "c": "1", "d": "1"})
    fs = gf.build_factor_system(model, proj)
    report = gf.finite_range_obstruction(fs)
    assert report.rank_one_block
    assert not report.excluded


def test_obstruction_requires_two_by_two_fibers(adhoc5):
    with pytest.raises(gf.ModelError):
        gf.finite_range_obstruction(adhoc5)
