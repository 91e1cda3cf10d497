from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbsfactor as gf
from gibbsfactor.markov import log_cylinder_measure

IDENTITY_TOL = 1e-13


def two_state_model(p=0.3, q=0.8):
    alph = gf.Alphabet(["u", "v"])
    tmc = gf.Tmc(alph, np.ones((2, 2), dtype=int))
    trans = np.array([[1 - p, p], [q, 1 - q]])
    return gf.MarkovModel(tmc, trans)


def test_stationary_two_state_closed_form():
    p, q = 0.3, 0.8
    model = two_state_model(p, q)
    expected = np.array([q, p]) / (p + q)
    assert np.abs(model.stationary - expected).max() < 1e-14


def test_stationary_rejects_row_sum_off():
    alph = gf.Alphabet(["u", "v"])
    tmc = gf.Tmc(alph, np.ones((2, 2), dtype=int))
    with pytest.raises(gf.ModelError):
        gf.MarkovModel(tmc, np.array([[0.5, 0.6], [0.5, 0.5]]))


def test_transition_must_vanish_off_support():
    alph = gf.Alphabet(["u", "v"])
    tmc = gf.Tmc(alph, np.array([[1, 1], [1, 0]]))
    with pytest.raises(gf.ModelError):
        gf.MarkovModel(tmc, np.array([[0.5, 0.5], [0.9, 0.1]]))


def test_transition_must_be_positive_on_support():
    alph = gf.Alphabet(["u", "v"])
    tmc = gf.Tmc(alph, np.ones((2, 2), dtype=int))
    with pytest.raises(gf.ModelError):
        gf.MarkovModel(tmc, np.array([[1.0, 0.0], [0.5, 0.5]]))


def test_cylinder_measure_direct():
    model = two_state_model()
    mu = model.stationary
    t = model.transition
    word = (0, 1, 1, 0)
    expected = mu[0] * t[0, 1] * t[1, 1] * t[1, 0]
    assert gf.cylinder_measure(model, word) == pytest.approx(expected, rel=1e-14)


def test_potential_identity_on_words(adhoc5):
    # exp of the summed range-2 potential recovers mu[w] / mu[w_last]
    model = adhoc5.model
    phi = gf.derive_potential(model)
    for n in range(2, 11):
        for word in gf.enumerate_words(model.tmc, n):
            s = sum(phi(word.symbols[i], word.symbols[i + 1]) for i in range(n - 1))
            lhs = log_cylinder_measure(model, word)
            rhs = s + math.log(model.stationary[word.symbols[-1]])
            assert abs(lhs - rhs) < IDENTITY_TOL


def test_potential_is_minus_inf_off_support(adhoc5):
    phi = gf.derive_potential(adhoc5.model)
    # 3 -> 1 is not an edge of the five-symbol graph
    assert phi(2, 0) == -math.inf


@st.composite
def random_markov(draw):
    size = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    trans = rng.uniform(0.05, 1.0, size=(size, size))
    trans /= trans.sum(axis=1, keepdims=True)
    alph = gf.Alphabet([chr(ord("a") + i) for i in range(size)])
    tmc = gf.Tmc(alph, np.ones((size, size), dtype=int))
    return gf.MarkovModel(tmc, trans)


@settings(max_examples=50, deadline=None)
@given(random_markov())
def test_stationary_is_invariant(model):
    mu = model.stationary
    assert np.abs(mu @ model.transition - mu).max() < 1e-12
    assert mu.sum() == pytest.approx(1.0, abs=1e-12)
    assert (mu > 0).all()


@settings(max_examples=50, deadline=None)
@given(random_markov(), st.data())
def test_cylinder_additivity(model, data):
    n = data.draw(st.integers(1, 5))
    words = gf.enumerate_words(model.tmc, n)
    total = math.fsum(gf.cylinder_measure(model, w) for w in words)
    assert abs(total - 1.0) < 1e-12
    w = data.draw(st.sampled_from(words))
    parts = math.fsum(
        gf.cylinder_measure(model, w.symbols + (b,))
        for b in model.tmc.successors(w.symbols[-1])
    )
    assert parts == pytest.approx(gf.cylinder_measure(model, w), rel=1e-12)


def test_stationary_solve_is_refined_when_its_residual_is_large(monkeypatch):
    # a solve that misses by 1e-9 leaves the refinement pass to converge
    p, q = 0.3, 0.8
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + np.array([1e-9, -1e-9]))
    stationary = two_state_model(p, q).stationary
    assert np.abs(stationary - np.array([q, p]) / (p + q)).max() < 1e-14


def test_stationary_solve_is_refused_when_refinement_fails(monkeypatch):
    # a slowly mixing chain (|lambda_2| = 0.998) keeps most of a wrong start
    # through the 64 refinement steps
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.array([1.0, 0.0]))
    with pytest.raises(gf.ModelError, match=r"^stationary solve residual \S+ too large$"):
        two_state_model(0.001, 0.001)
