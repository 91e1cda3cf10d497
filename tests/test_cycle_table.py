"""The cycle table of a FactorSystem: each word's product, each closed
word's zero-pattern exponent and each word's Birkhoff coefficient, formed
once per system and shared by check_h2, the window search of
uniform_constants and eigendata_many."""

from __future__ import annotations

import functools

import numpy as np
import pytest

import gibbsfactor as gf
from gibbsfactor import projection
from gibbsfactor.potential import PointSpec, eigendata_many
from gibbsfactor.tmc import pattern_primitivity

from test_eigendata import periodic_points, preperiodic_points
from test_potential import sparse_model


def systems():
    """adhoc5, whose cycles include non-positive products, and seeded
    random models with unequal fibers; each is certified."""
    return [gf.example_system("adhoc5")] + [sparse_model(seed) for seed in (3, 7, 11)]


def filled(fs):
    """fs after check_h2, uniform_constants and one eigendata_many batch of
    its periodic points to period 5 and preperiodic points to 1 + 3."""
    gf.uniform_constants(fs)
    eigendata_many(fs, periodic_points(fs, 5) + preperiodic_points(fs, 1, 3))
    return fs


def counting(monkeypatch):
    """Record the words formed by word_product, the words read through
    word_exponent and word_taus, the zero patterns tested and the matrices
    whose Birkhoff coefficients are taken."""
    seen = {"formed": [], "exponents": [], "taus": [], "patterns": [], "coefficients": 0}
    product, exponent, taus = gf.FactorSystem.word_product, gf.FactorSystem.word_exponent, gf.FactorSystem.word_taus
    primitivity, coefficients = projection.pattern_primitivity, projection.contraction_coefficients

    def formed(self, symbols):
        seen["formed"].append(tuple(symbols))
        return product(self, symbols)

    def read_exponent(self, word):
        seen["exponents"].append(word)
        return exponent(self, word)

    def read_taus(self, words):
        seen["taus"].extend(words)
        return taus(self, words)

    def tested(pattern):
        seen["patterns"].append((pattern.shape, pattern.tobytes()))
        return primitivity(pattern)

    def stacked(stack):
        seen["coefficients"] += len(stack)
        return coefficients(stack)

    monkeypatch.setattr(gf.FactorSystem, "word_product", formed)
    monkeypatch.setattr(gf.FactorSystem, "word_exponent", read_exponent)
    monkeypatch.setattr(gf.FactorSystem, "word_taus", read_taus)
    monkeypatch.setattr(projection, "pattern_primitivity", tested)
    monkeypatch.setattr(projection, "contraction_coefficients", stacked)
    return seen


def test_constants_then_eigendata_form_each_entry_once(monkeypatch):
    # one system through check_h2, the window search and the eigendata
    # route: the table's misses equal the distinct words read, and a second
    # round forms nothing
    fs = gf.example_system("adhoc5")
    seen = counting(monkeypatch)
    gf.uniform_constants(fs)
    window_reads = len(seen["taus"])
    eigendata_many(fs, periodic_points(fs, 5) + preperiodic_points(fs, 1, 3))
    table = fs.cycle_table
    read = set(seen["exponents"]) | set(seen["taus"])
    assert len(seen["formed"]) == len(set(seen["formed"])) and set(seen["formed"]) <= read
    # a word read but not formed by a call is a fiber block or a prefix
    # kept when a longer word was formed
    prefixes = {w[:j] for w in seen["formed"] for j in range(3, len(w))}
    assert read - set(seen["formed"]) <= set(fs.fiber_weight) | prefixes
    # check_h2 also tests the induced incidence, which is no word's pattern
    patterns = {(p.shape, p.tobytes()) for p in (fs.word_product(w) != 0 for w in set(seen["exponents"]))}
    incidence = fs.factor_tmc.incidence != 0
    patterns.add((incidence.shape, incidence.tobytes()))
    assert len(seen["patterns"]) == len(set(seen["patterns"])) == len(patterns) == len(table.patterns) + 1
    assert seen["coefficients"] == len(set(seen["taus"])) == len(table.taus)
    # the eigendata route's powers include blocks of the window search,
    # whose coefficients it reads from the table
    assert set(seen["taus"][:window_reads]) & set(seen["taus"][window_reads:])
    before = (dict(table.products), dict(table.patterns), dict(table.taus), seen["coefficients"])
    seen["formed"].clear()
    seen["patterns"].clear()
    gf.uniform_constants(fs)
    eigendata_many(fs, periodic_points(fs, 5) + preperiodic_points(fs, 1, 3))
    assert (seen["formed"], seen["patterns"]) == ([], [])
    assert (dict(table.products), dict(table.patterns), dict(table.taus), seen["coefficients"]) == before


@pytest.mark.parametrize("fs", systems(), ids=["adhoc5", "sparse3", "sparse7", "sparse11"])
def test_entries_equal_the_plain_left_to_right_chain(fs):
    table = filled(fs).cycle_table
    assert len(table.products) > len(fs.fiber_weight)
    for word, product in table.products.items():
        chain = functools.reduce(np.matmul, [fs.fiber_weight[step] for step in zip(word, word[1:])])
        assert product.tobytes() == chain.tobytes(), word


@pytest.mark.parametrize("fs", systems(), ids=["adhoc5", "sparse3", "sparse7", "sparse11"])
def test_exponents_and_taus_equal_their_one_matrix_functions(fs):
    table = filled(fs).cycle_table
    assert table.taus
    for word, tau in table.taus.items():
        assert tau == gf.contraction_coefficient(table.products[word]).tau, word
    closed = [w for w in table.products if w[0] == w[-1]]
    for word in closed:
        assert fs.word_exponent(word) == pattern_primitivity(table.products[word]).exponent, word


def test_check_h2_witnesses_hold_the_table_arrays():
    fs = gf.example_system("adhoc5")
    report = gf.check_h2(fs)
    assert not report.pointwise
    for witness in report.witnesses:
        word = witness.point.symbols + witness.point.symbols[:1]
        assert witness.product is fs.cycle_table.products[word]
        assert witness.positive == bool((witness.product > 0).all())


def test_entries_are_read_only():
    fs = gf.example_system("adhoc5")
    eigendata_many(fs, [PointSpec(fs, (), (0, 2, 1))])
    entries = [fs.h2.witnesses[0].product, fs.word_product((0, 1)), fs.word_product((0, 1, 0, 1))]
    entries += list(fs.cycle_table.products.values())
    for entry in entries:
        with pytest.raises(ValueError, match="read-only"):
            entry[0, 0] = 1.0
