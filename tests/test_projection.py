from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbsfactor as gf
from gibbsfactor.projection import (
    backward_transfer,
    check_h1,
    check_topological_markov,
    nu_preimage_sum,
    one_period_product,
    preimage_words,
)

ORACLE_REL_TOL = 1e-12


def test_projection_validation():
    source = gf.Alphabet(["a", "b", "c"])
    target = gf.Alphabet(["0", "1"])
    with pytest.raises(gf.ModelError):
        gf.Projection(source, target, [0, 0, 0])  # not onto
    with pytest.raises(gf.ModelError):
        gf.Projection(source, target, [0, 1])  # wrong length
    with pytest.raises(gf.ModelError):
        gf.Projection(target, target, [0, 1])  # not strictly smaller


def test_from_labels_orders_target_by_first_use():
    source = gf.Alphabet(["1", "2", "3", "4", "5"])
    proj = gf.Projection.from_labels(
        source, {"1": "a", "2": "b", "3": "c", "4": "b", "5": "a"}
    )
    assert proj.target.labels == ("a", "b", "c")
    assert proj.mapping == (0, 1, 2, 1, 0)
    assert proj.fibers == ((0, 4), (1, 3), (2,))


def test_induced_incidence_adhoc5(adhoc5):
    # collapsing the five-symbol graph yields a -> {b, c}, b -> {a}, c -> {b}
    expected = np.array([[0, 1, 1], [1, 0, 0], [0, 1, 0]], dtype=np.int8)
    assert (adhoc5.factor_tmc.incidence == expected).all()
    assert adhoc5.factor_tmc.alphabet.labels == ("a", "b", "c")


def test_fiber_weight_matches_hand_computation(adhoc5):
    model = adhoc5.model
    mu = model.stationary
    p = model.transition
    fibers = adhoc5.projection.fibers
    for (b, b2), block in adhoc5.fiber_weight.items():
        rows = fibers[b]
        cols = fibers[b2]
        for i, a in enumerate(rows):
            for j, a2 in enumerate(cols):
                if model.tmc.allows(a, a2):
                    expected = mu[a] * p[a, a2] / mu[a2]
                else:
                    expected = 0.0
                assert block[i, j] == pytest.approx(expected, rel=1e-14, abs=1e-300)


def test_word_product_is_plain_matrix_product(adhoc5):
    word = adhoc5.factor_word(["a", "b", "a", "c"])
    direct = (
        adhoc5.weight(0, 1) @ adhoc5.weight(1, 0) @ adhoc5.weight(0, 2)
    )
    assert np.abs(adhoc5.word_product(word.symbols) - direct).max() < 1e-15


def test_weight_refuses_forbidden_transition(adhoc5):
    with pytest.raises(gf.AdmissibilityError):
        adhoc5.weight(1, 2)  # b -> c is not induced


def test_marginal_hat_is_normalized_fiber_restriction(adhoc5):
    mu = adhoc5.model.stationary
    for b in range(adhoc5.target_size):
        hat = adhoc5.marginal_hat(b)
        fiber = adhoc5.projection.fibers[b]
        expected = mu[list(fiber)]
        expected = expected / expected.sum()
        assert np.abs(hat.coords - expected).max() < 1e-15
        assert hat.fiber == b


def test_h1_passes_on_row_allowable_examples(adhoc5, fullshift4):
    for fs in (adhoc5, fullshift4):
        report = gf.check_h1(fs)
        assert report.passed
        assert report.failures == ()


def test_h1_failures_name_the_offending_rows(converse_false):
    report = gf.check_h1(converse_false)
    assert not report.passed
    assert report.failures == (("0", "1", "c"), ("1", "0", "d"))


def test_zero_row_blocks_are_the_non_row_allowable_blocks(adhoc5, nongibbs6, converse_false):
    assert adhoc5.zero_row_blocks == nongibbs6.zero_row_blocks == frozenset()
    expected = {key for key, w in converse_false.fiber_weight.items() if not gf.is_row_allowable(w)[0]}
    assert converse_false.zero_row_blocks == expected
    labels = converse_false.projection.target.labels
    h1_blocks = {(b, b2) for b, b2, _ in gf.check_h1(converse_false).failures}
    assert {(labels[b], labels[b2]) for b, b2 in expected} == h1_blocks


def test_h2_orbit_verdict_is_phase_aware(adhoc5):
    report = gf.check_h2(adhoc5)
    assert report.passed
    assert report.orbit_failures == ()
    # one rotation of the three-cycle has a zero column in its one-period
    # product, so the pointwise flag must come back False
    assert not report.pointwise
    by_labels = {w.point.labels: w for w in report.witnesses}
    assert not by_labels[("b", "a", "c")].positive
    assert by_labels[("a", "c", "b")].positive
    assert by_labels[("c", "b", "a")].positive
    bad = by_labels[("b", "a", "c")]
    assert (bad.product == 0).any()
    assert (bad.product >= 0).all()


def test_h2_pointwise_on_full_support(fullshift4):
    report = gf.check_h2(fullshift4)
    assert report.passed
    assert report.pointwise
    assert report.warnings == ()
    assert all(w.positive for w in report.witnesses)


def test_one_period_product_closes_the_cycle(adhoc5):
    point = gf.PeriodicPoint(adhoc5.factor_tmc, (0, 1))
    direct = adhoc5.weight(0, 1) @ adhoc5.weight(1, 0)
    assert np.abs(one_period_product(adhoc5, point) - direct).max() == 0.0


def test_topological_markov_certified_under_h1(adhoc5):
    verdict = check_topological_markov(adhoc5)
    assert verdict.status == "markov_certified"
    assert verdict.witness is None


def test_topological_markov_open_for_converse(converse_false):
    verdict = check_topological_markov(converse_false, depth=12)
    assert verdict.status == "undecided_at_depth"
    assert verdict.witness is None
    assert verdict.depth == 12


def test_topological_markov_refuted_when_word_missing():
    # c only reaches a, whose fiber partner cannot continue with label 1
    alph = gf.Alphabet(["a", "b", "c"])
    inc = np.array([[1, 1, 0], [1, 0, 1], [1, 0, 0]], dtype=int)
    tmc = gf.Tmc(alph, inc)
    trans = np.where(inc, inc / inc.sum(axis=1, keepdims=True), 0.0)
    model = gf.MarkovModel(tmc, trans)
    proj = gf.Projection.from_labels(alph, {"a": "0", "b": "1", "c": "1"})
    fs = gf.build_factor_system(model, proj)
    verdict = check_topological_markov(fs, depth=8)
    assert verdict.status == "markov_refuted"
    assert verdict.witness is not None
    assert preimage_words(fs, verdict.witness) == []
    assert gf.nu_cylinder(fs, verdict.witness) == 0.0


@pytest.mark.parametrize("depth", [0, -3])
def test_topological_markov_refuses_depth_below_one(adhoc5, converse_false, depth):
    for fs in (adhoc5, converse_false):
        with pytest.raises(gf.ModelError, match=f"search depth must be >= 1, got {depth}"):
            check_topological_markov(fs, depth=depth)


def incidence_search(fs, depth):
    """(status, witness symbols) by the depth-first search over
    reachable-fiber sets, reading the source incidence matrix directly."""
    if check_h1(fs).passed:
        return "markov_certified", None
    m = fs.model.tmc.incidence
    fibers = fs.projection.fibers

    def search(prefix, reach):
        if len(prefix) >= depth:
            return None
        for b2 in np.flatnonzero(fs.factor_tmc.incidence[prefix[-1]]):
            nxt = tuple(a2 for a2 in fibers[b2] if any(m[a, a2] for a in reach))
            if not nxt:
                return tuple(prefix) + (int(b2),)
            hit = search(prefix + [int(b2)], nxt)
            if hit is not None:
                return hit
        return None

    for b in range(fs.target_size):
        hit = search([b], fibers[b])
        if hit is not None:
            return "markov_refuted", hit
    return "undecided_at_depth", None


def seeded_h1_failures(count):
    """The first count seeded sparse models (4 to 7 source symbols onto 2 or
    3) that load and whose H1 fails."""
    rng = np.random.default_rng(2024)
    systems = []
    while len(systems) < count:
        n = int(rng.integers(4, 8))
        labels = [f"s{i}" for i in range(n)]
        incidence = (rng.uniform(size=(n, n)) < 0.45).astype(int)
        p = rng.uniform(0.05, 1.0, size=(n, n)) * incidence
        p /= np.maximum(p.sum(axis=1, keepdims=True), 1e-300)
        nb = int(rng.integers(2, 4))
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
        if not check_h1(fs).passed:
            systems.append(fs)
    return systems


def test_topological_markov_matches_incidence_search():
    statuses = set()
    for fs in seeded_h1_failures(20):
        verdict = check_topological_markov(fs, depth=8)
        witness = None if verdict.witness is None else verdict.witness.symbols
        assert (verdict.status, witness) == incidence_search(fs, 8)
        assert verdict.depth == 8
        statuses.add(verdict.status)
    assert statuses == {"markov_refuted", "undecided_at_depth"}


def test_backward_transfer_without_preimage():
    # the chain of test_topological_markov_refuted_when_word_missing
    alph = gf.Alphabet(["a", "b", "c"])
    inc = np.array([[1, 1, 0], [1, 0, 1], [1, 0, 0]], dtype=int)
    trans = np.where(inc, inc / inc.sum(axis=1, keepdims=True), 0.0)
    model = gf.MarkovModel(gf.Tmc(alph, inc), trans)
    proj = gf.Projection.from_labels(alph, {"a": "0", "b": "1", "c": "1"})
    fs = gf.build_factor_system(model, proj)
    witness = check_topological_markov(fs, depth=8).witness
    log_mass, scale, _ = backward_transfer(fs, witness.symbols)
    assert (log_mass, scale) == (-math.inf, 0.0)
    assert gf.markov_approx(fs, witness) == -math.inf


def test_preimage_words_under_letter_map(adhoc5):
    word = adhoc5.factor_word(["a", "b"])
    lifts = preimage_words(adhoc5, word)
    labels = sorted(w.labels for w in lifts)
    assert labels == [("1", "2"), ("1", "4"), ("5", "2"), ("5", "4")]


def test_nu_cylinder_vs_preimage_sum(adhoc5, fullshift4, converse_false, nongibbs6):
    for fs in (adhoc5, fullshift4, converse_false, nongibbs6):
        for n in range(1, 7):
            for word in gf.enumerate_words(fs.factor_tmc, n):
                got = gf.nu_cylinder(fs, word)
                expected = nu_preimage_sum(fs, word)
                assert got == pytest.approx(expected, rel=ORACLE_REL_TOL)


def test_backward_transfer_parts(adhoc5):
    for word in gf.enumerate_words(adhoc5.factor_tmc, 5):
        w = word.symbols
        log_mass, scale, x = backward_transfer(adhoc5, w)
        assert log_mass == pytest.approx(math.log(nu_preimage_sum(adhoc5, w)), abs=1e-12)
        # the last rescaling is the one-step ratio nu[w] / nu[w(1:)]
        assert math.log(scale) == pytest.approx(
            log_mass - backward_transfer(adhoc5, w[1:])[0], abs=1e-12
        )
        assert x.shape == adhoc5.fiber_marginal[w[0]].shape
        assert x.sum() == scale
        assert (x > 0).all()


def test_nu_total_mass(adhoc5, converse_false):
    for fs in (adhoc5, converse_false):
        for n in range(1, 7):
            total = math.fsum(
                gf.nu_cylinder(fs, w) for w in gf.enumerate_words(fs.factor_tmc, n)
            )
            assert abs(total - 1.0) < 1e-12


@st.composite
def random_factor_system(draw):
    size = draw(st.integers(3, 6))
    target_size = draw(st.integers(2, size - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    trans = rng.uniform(0.05, 1.0, size=(size, size))
    trans /= trans.sum(axis=1, keepdims=True)
    alph = gf.Alphabet([chr(ord("a") + i) for i in range(size)])
    tmc = gf.Tmc(alph, np.ones((size, size), dtype=int))
    model = gf.MarkovModel(tmc, trans)
    # surjective assignment: first target_size symbols hit each target once
    mapping = list(range(target_size))
    mapping += [draw(st.integers(0, target_size - 1)) for _ in range(size - target_size)]
    target = gf.Alphabet([str(i) for i in range(target_size)])
    return gf.build_factor_system(model, gf.Projection(alph, target, mapping))


@settings(max_examples=40, deadline=None)
@given(random_factor_system(), st.data())
def test_nu_engine_agrees_with_oracle_randomized(fs, data):
    n = data.draw(st.integers(1, 5))
    words = gf.enumerate_words(fs.factor_tmc, n)
    word = data.draw(st.sampled_from(words))
    got = gf.nu_cylinder(fs, word)
    expected = nu_preimage_sum(fs, word)
    assert got == pytest.approx(expected, rel=ORACLE_REL_TOL)


@pytest.mark.parametrize("example", ["adhoc5", "fullshift4", "nongibbs6", "converse_false"])
def test_check_h1_failures_are_the_zero_row_blocks(example):
    fs = gf.example_system(example)
    target = fs.projection.target.labels
    failures = check_h1(fs).failures
    blocks = {(target.index(b), target.index(b2)) for b, b2, _ in failures}
    assert blocks == set(fs.zero_row_blocks)
    assert check_h1(fs).passed == (not fs.zero_row_blocks)


def test_word_product_shares_prefixes_bit_for_bit(adhoc5):
    products: dict = {}
    words = [w.symbols for n in (2, 3, 5) for w in gf.enumerate_words(adhoc5.factor_tmc, n)]
    for word in words + words:
        assert np.array_equal(adhoc5.word_product(word, products), adhoc5.word_product(word))
    assert set(products) == {w[:j] for w in words for j in range(3, len(w) + 1)}


def test_from_labels_refuses_missing_and_unknown_source_labels():
    source = gf.Alphabet(["a", "b", "c"])
    with pytest.raises(gf.ModelError, match=r"^projection misses source symbols \['a', 'c'\]$"):
        gf.Projection.from_labels(source, {"b": "0"})
    with pytest.raises(gf.ModelError, match=r"^projection names unknown source symbols \['z', 'y'\]$"):
        gf.Projection.from_labels(source, {"a": "0", "z": "1", "b": "1", "c": "1", "y": "0"})
