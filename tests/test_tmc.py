from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbsfactor as gf
from gibbsfactor.tmc import PeriodicPoint, primitive_root, word_symbols


def golden_mean_tmc():
    # 0 -> 0, 0 -> 1, 1 -> 0
    alph = gf.Alphabet(["0", "1"])
    return gf.Tmc(alph, np.array([[1, 1], [1, 0]]))


def test_alphabet_rejects_duplicates():
    with pytest.raises(gf.ModelError):
        gf.Alphabet(["a", "a"])


def test_tmc_rejects_zero_row():
    alph = gf.Alphabet(["x", "y"])
    with pytest.raises(gf.ModelError):
        gf.Tmc(alph, np.array([[1, 1], [0, 0]]))


def test_tmc_rejects_nonbinary():
    alph = gf.Alphabet(["x", "y"])
    with pytest.raises(gf.ModelError):
        gf.Tmc(alph, np.array([[1, 2], [1, 0]]))


def test_word_requires_admissibility():
    tmc = golden_mean_tmc()
    with pytest.raises(gf.AdmissibilityError):
        gf.Word(tmc, (1, 1))
    w = gf.Word(tmc, (0, 1, 0))
    assert w.labels == ("0", "1", "0")


def test_primitivity_golden_mean():
    res = gf.check_primitivity(golden_mean_tmc())
    assert res.primitive
    # [[1,1],[1,0]]^2 = [[2,1],[1,1]] > 0
    assert res.exponent == 2


def test_pattern_primitivity_permutation_fails():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = gf.pattern_primitivity(swap)
    assert not res.primitive


def test_enumerate_words_golden_mean_counts():
    # golden mean: #words(n) follows the Fibonacci recursion 2,3,5,8,13
    tmc = golden_mean_tmc()
    counts = [len(gf.enumerate_words(tmc, n)) for n in range(1, 6)]
    assert counts == [2, 3, 5, 8, 13]


def test_enumerate_words_matches_matrix_count():
    tmc = golden_mean_tmc()
    for n in range(1, 9):
        m = np.linalg.matrix_power(tmc.incidence, n - 1)
        assert len(gf.enumerate_words(tmc, n)) == int(m.sum())


def test_enumerate_words_lexicographic():
    tmc = golden_mean_tmc()
    words = [w.symbols for w in gf.enumerate_words(tmc, 3)]
    assert words == sorted(words)


def test_enumerate_periodic_golden_mean():
    # fixed point 0, the 2-cycle 01/10, and the 3-cycles 001,010,100
    pts = gf.enumerate_periodic(golden_mean_tmc(), 3)
    symbols = {p.symbols for p in pts}
    assert symbols == {(0,), (0, 1), (1, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)}


def test_periodic_point_rejects_power_word():
    tmc = golden_mean_tmc()
    with pytest.raises(gf.AdmissibilityError):
        PeriodicPoint(tmc, (0, 0))


def test_periodic_point_rejects_open_cycle():
    tmc = golden_mean_tmc()
    # 1 -> 1 is forbidden so (1) cannot close up
    with pytest.raises(gf.AdmissibilityError):
        PeriodicPoint(tmc, (1,))


def test_periodic_point_is_a_word_of_its_own_type():
    tmc = golden_mean_tmc()
    assert issubclass(PeriodicPoint, gf.Word)
    assert PeriodicPoint.__slots__ == ()
    for name in ("labels", "__len__", "__eq__", "__hash__"):
        assert name not in vars(PeriodicPoint)
    word, point = gf.Word(tmc, (0, 1)), PeriodicPoint(tmc, (0, 1))
    assert word != point and point != word
    assert not (word == point) and not (point == word)
    assert len({word, point, gf.Word(tmc, (0, 1)), PeriodicPoint(tmc, (0, 1))}) == 2
    assert point == gf.enumerate_periodic(tmc, 2)[1]
    for pp in gf.enumerate_periodic(tmc, 5):
        assert len(pp) == pp.period
        assert pp.labels == tuple(str(s) for s in pp.symbols)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda t, fs: gf.Word(t, (0, 2)), "symbol index 2 out of range"),
        (lambda t, fs: PeriodicPoint(t, (2, 0)), "symbol index 2 out of range"),
        (lambda t, fs: gf.PointSpec(fs, (), (0, 5)), "symbol index 5 out of range"),
        (lambda t, fs: gf.Word(t, (0, 1, 1)), "transition '1' -> '1' is not allowed"),
        (lambda t, fs: PeriodicPoint(t, (1, 1, 0)), "transition '1' -> '1' is not allowed"),
        (lambda t, fs: gf.PointSpec(fs, (), (0, 0, 1)), "transition 'a' -> 'a' is not allowed"),
        (lambda t, fs: PeriodicPoint(t, (1,)), "period word does not close up cyclically"),
        (lambda t, fs: PeriodicPoint(t, (1, 0, 1)), "period word does not close up cyclically"),
        (lambda t, fs: gf.PointSpec(fs, (), (0, 2)), "period does not close up cyclically"),
        (lambda t, fs: PeriodicPoint(t, (0, 1, 0, 1)), "period word is a power of a shorter word"),
        (lambda t, fs: gf.PointSpec(fs, (2,), (0, 1)), "preperiod does not connect to the period"),
    ],
    ids=[
        "word-range", "periodic-range", "pointspec-range",
        "word-transition", "periodic-transition", "pointspec-transition",
        "periodic-closure", "periodic-closure-long", "pointspec-closure",
        "periodic-power", "pointspec-preperiod",
    ],
)
def test_refusals_keep_their_messages(adhoc5, build, message):
    # golden mean chain for Word / PeriodicPoint, adhoc5 (a->b,c  b->a  c->b)
    # for PointSpec; the checks run in the same order as before
    with pytest.raises(gf.AdmissibilityError) as err:
        build(golden_mean_tmc(), adhoc5)
    assert str(err.value) == message


def test_allows_is_the_incidence_entry():
    rng = np.random.default_rng(7)
    chains = [seeded_random_tmc(rng, int(rng.integers(2, 12))) for _ in range(10)]
    chains.append(gf.Tmc(gf.Alphabet([str(i) for i in range(80)]), np.ones((80, 80), dtype=int)))
    for tmc in chains:
        for a in range(tmc.size):
            for b in range(tmc.size):
                allowed = tmc.allows(a, b)
                assert type(allowed) is bool
                assert allowed == bool(tmc.incidence[a, b])


@settings(max_examples=60)
@given(st.integers(2, 5), st.data())
def test_random_tmc_word_counts_match_matrix(size, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # random incidence with no dead rows or columns
    while True:
        inc = (rng.random((size, size)) < 0.5).astype(int)
        if (inc.sum(axis=1) > 0).all() and (inc.sum(axis=0) > 0).all():
            break
    tmc = gf.Tmc(gf.Alphabet([str(i) for i in range(size)]), inc)
    n = data.draw(st.integers(1, 5))
    expected = int(np.linalg.matrix_power(inc, n - 1).sum())
    assert len(gf.enumerate_words(tmc, n)) == expected


def seeded_random_tmc(rng, size):
    """A random incidence with no dead rows or columns."""
    while True:
        inc = (rng.random((size, size)) < 0.4).astype(int)
        if (inc.sum(axis=1) > 0).all() and (inc.sum(axis=0) > 0).all():
            return gf.Tmc(gf.Alphabet([str(i) for i in range(size)]), inc)


@pytest.mark.parametrize("seed", range(8))
def test_successors_are_the_nonzero_incidence_columns(seed):
    rng = np.random.default_rng(seed)
    tmc = seeded_random_tmc(rng, int(rng.integers(2, 9)))
    for a in range(tmc.size):
        expected = tuple(int(j) for j in np.flatnonzero(tmc.incidence[a]))
        assert tmc.successors(a) == expected
        assert all(type(b) is int for b in tmc.successors(a))


@pytest.mark.parametrize("seed", range(8))
def test_enumerate_words_count_order_and_content(seed):
    rng = np.random.default_rng(100 + seed)
    tmc = seeded_random_tmc(rng, int(rng.integers(2, 6)))
    for n in range(1, 6):
        words = [w.symbols for w in gf.enumerate_words(tmc, n)]
        ones = np.ones(tmc.size, dtype=np.int64)
        power = np.linalg.matrix_power(tmc.incidence.astype(np.int64), n - 1)
        assert len(words) == int(ones @ power @ ones)
        # the same words as a brute-force filter of all n-tuples, in order
        brute = [
            w
            for w in itertools.product(range(tmc.size), repeat=n)
            if all(tmc.allows(a, b) for a, b in zip(w, w[1:]))
        ]
        assert words == brute


@pytest.mark.parametrize(
    "symbols, root",
    [
        ((0,), (0,)),
        ((0, 0), (0,)),
        ((0, 0, 0, 0), (0,)),
        ((0, 1), (0, 1)),
        ((0, 1, 0, 1), (0, 1)),
        ((0, 1, 0, 1, 0, 1), (0, 1)),
        ((0, 0, 1, 0, 0, 1), (0, 0, 1)),
        ((0, 1, 0), (0, 1, 0)),
        ((0, 1, 1, 0), (0, 1, 1, 0)),
        ((1, 0, 1, 0, 1), (1, 0, 1, 0, 1)),
        ((), ()),
    ],
)
def test_primitive_root(symbols, root):
    assert primitive_root(symbols) == root
    reps = len(symbols) // len(root) if root else 0
    assert root * reps == symbols


def test_enumerate_periodic_lists_exactly_the_primitive_cycles():
    tmc = golden_mean_tmc()
    listed = {p.symbols for p in gf.enumerate_periodic(tmc, 6)}
    cyclic = {
        w.symbols
        for n in range(1, 7)
        for w in gf.enumerate_words(tmc, n)
        if tmc.allows(w.symbols[-1], w.symbols[0])
    }
    assert listed == {w for w in cyclic if primitive_root(w) == w}
    for w in cyclic - listed:
        with pytest.raises(gf.AdmissibilityError, match="power of a shorter word"):
            PeriodicPoint(tmc, w)


def test_word_symbols_coerces_and_refuses():
    tmc = golden_mean_tmc()
    assert word_symbols(tmc, [0, 1, 0]) == (0, 1, 0)
    assert word_symbols(tmc, gf.Word(tmc, (1, 0))) == (1, 0)
    with pytest.raises(gf.AdmissibilityError):
        word_symbols(tmc, (1, 1))
    other = golden_mean_tmc()
    with pytest.raises(gf.AdmissibilityError, match="does not belong"):
        word_symbols(tmc, gf.Word(other, (0, 1)))
