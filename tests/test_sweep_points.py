"""The points of the Gibbs and Hölder sweeps, built by table lookup, against
the searches they replaced: the depth-first tail_completions walk and
canonical_extension(fs, w).shifted(fs, j), kept below as reference oracles
that build every point through the validating PointSpec constructor."""

from __future__ import annotations

import numpy as np
import pytest

import gibbsfactor as gf
from gibbsfactor import gibbs, potential
from gibbsfactor.gibbs import _extension_shifts
from gibbsfactor.models import EXAMPLES
from gibbsfactor.potential import PointSpec, _return_path, canonical_extension, tail_completions

from test_potential import sparse_model

MAX_LENGTH = 5

# ------------------------------------------------------------------ oracle
# tail_completions, canonical_extension (with its greedy fallback) and
# PointSpec.shifted as they were before the sweeps built their points from
# tables, apart from their names.


def oracle_greedy_cycle_walk(fs, start):
    tmc = fs.factor_tmc
    walk = [start]
    seen = {start: 0}
    while True:
        nxt = tmc.successors(walk[-1])[0]
        if nxt in seen:
            i = seen[nxt]
            return tuple(walk[:i]), tuple(walk[i:])
        seen[nxt] = len(walk)
        walk.append(nxt)


def oracle_shortest_return_path(fs, src, dst, max_len):
    tmc = fs.factor_tmc
    frontier = [(src,)]
    for _ in range(max_len):
        nxt = []
        for path in frontier:
            for s in tmc.successors(path[-1]):
                if s == dst:
                    return path + (s,)
                nxt.append(path + (s,))
        frontier = nxt
    return None


def oracle_canonical_extension(fs, symbols):
    path = oracle_shortest_return_path(fs, symbols[-1], symbols[0], fs.target_size)
    if path is not None:
        return PointSpec(fs, (), symbols + path[1:-1])
    transient, cycle = oracle_greedy_cycle_walk(fs, symbols[-1])
    return PointSpec(fs, symbols[:-1] + transient, cycle)


def oracle_shifted(fs, point, j):
    pre, per = point.preperiod, point.period
    drop = min(j, len(pre))
    pre = pre[drop:]
    j -= drop
    if j:
        r = j % len(per)
        per = per[r:] + per[:r]
    return PointSpec(fs, pre, per)


def oracle_tail_completions(fs, symbols, count=2):
    tmc = fs.factor_tmc
    depth = fs.target_size + 1
    out = []

    def close(path):
        transient, cycle = oracle_greedy_cycle_walk(fs, path[-1])
        return PointSpec(fs, path[:-1] + transient, cycle)

    def walk(path, d):
        if d == depth:
            pt = close(path)
            if pt not in out:
                out.append(pt)
            return len(out) >= count
        for s in tmc.successors(path[-1]):
            if walk(path + (s,), d + 1):
                return True
        return False

    walk(symbols, 0)
    return out


# ---------------------------------------------------------------- systems


def reducible_system():
    """Two closed source classes, {s0, s1} onto the symbol 0 and
    {s2, s3, s4} onto 1 and 2, so the image chain is reducible too; the
    stationary vector is supplied, as a reducible chain has no unique one."""
    alph = gf.Alphabet([f"s{i}" for i in range(5)])
    inc = np.zeros((5, 5), dtype=int)
    inc[:2, :2] = 1
    inc[2:, 2:] = 1
    trans = inc / inc.sum(axis=1, keepdims=True)
    model = gf.MarkovModel(gf.Tmc(alph, inc), trans, stationary=np.full(5, 0.2))
    proj = gf.Projection.from_labels(alph, {"s0": "0", "s1": "0", "s2": "1", "s3": "2", "s4": "2"})
    return gf.build_factor_system(model, proj)


SYSTEMS = {name: (lambda name=name: gf.example_system(name)) for name in EXAMPLES}
SYSTEMS.update({f"sparse{seed}": (lambda seed=seed: sparse_model(seed)) for seed in range(40)})
SYSTEMS["reducible"] = reducible_system


def words(fs, max_length=MAX_LENGTH):
    return [w.symbols for n in range(1, max_length + 1) for w in gf.enumerate_words(fs.factor_tmc, n)]


def keys(points):
    return [p.key() for p in points]


# ------------------------------------------------------------ comparisons


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_tail_completions_equal_the_depth_first_walk(name):
    fs = SYSTEMS[name]()
    for w in words(fs):
        for count in (1, 2, 3):
            assert keys(tail_completions(fs, w, count)) == keys(oracle_tail_completions(fs, w, count)), (w, count)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_extension_shifts_equal_the_shifted_extensions(name):
    fs = SYSTEMS[name]()
    levels = _extension_shifts(fs, MAX_LENGTH - 1)
    assert [[word.symbols for word, _ in level] for level in levels] == [
        [w for w in words(fs) if len(w) == n + 1] for n in range(MAX_LENGTH)
    ]
    for n, level in enumerate(levels):
        for word, got in level:
            ext = oracle_canonical_extension(fs, word.symbols)
            want = [oracle_shifted(fs, ext, j) for j in range(n + 1)]
            assert got == keys(want), word.symbols
            assert keys(canonical_extension(fs, word.symbols).shifted(fs, j) for j in range(n + 1)) == got


@pytest.mark.parametrize("name", ["adhoc5", "converse_false", "reducible", "sparse3"])
def test_shifted_equals_the_root_searching_shift(name):
    fs = SYSTEMS[name]()
    for w in words(fs, 4):
        for point in oracle_tail_completions(fs, w, 3):
            for j in range(2 * len(w) + 3):
                assert point.shifted(fs, j).key() == oracle_shifted(fs, point, j).key()


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_a_return_path_exists_for_every_admissible_pair(name):
    fs = SYSTEMS[name]()
    tmc = fs.factor_tmc
    for first in range(fs.target_size):
        # every last symbol of an admissible word that starts with first
        reached, frontier = {first}, [first]
        while frontier:
            frontier = [s for b in frontier for s in tmc.successors(b) if s not in reached]
            reached.update(frontier)
        for last in reached:
            closed = (last,) + _return_path(fs, last, first) + (first,)
            assert len(closed) - 1 <= fs.target_size
            gf.Word(tmc, closed)


def test_the_reducible_image_is_reducible():
    fs = reducible_system()
    assert not gf.check_primitivity(fs.factor_tmc).primitive
    assert canonical_extension(fs, (0,)) == PointSpec(fs, (), (0,))
    assert canonical_extension(fs, (2, 1)) == PointSpec(fs, (), (2, 1))


# --------------------------------------------------- the sweeps' batches


def batches(monkeypatch, module, run):
    """The points of every evaluate_many call run makes through module."""
    seen = []

    def recorded(fs, points, *args):
        seen.append(keys(points))
        return real(fs, points, *args)

    real = module.evaluate_many
    monkeypatch.setattr(module, "evaluate_many", recorded)
    run()
    return seen


@pytest.mark.parametrize("name", ["adhoc5", "fullshift4", "nongibbs6", "sparse7"])
def test_bgi_sweep_batch_is_in_first_seen_order(monkeypatch, name):
    fs = SYSTEMS[name]()
    n_max = 4
    want = {}
    for n in range(n_max + 1):
        for word in gf.enumerate_words(fs.factor_tmc, n + 1):
            ext = oracle_canonical_extension(fs, word.symbols)
            for j in range(n + 1):
                want.setdefault(oracle_shifted(fs, ext, j).key())
    assert batches(monkeypatch, gibbs, lambda: gf.bgi_sweep(fs, n_max)) == [list(want)]


def test_holder_batch_is_in_first_seen_order(monkeypatch, adhoc5, adhoc5_constants):
    n_max = 5
    want = {}
    for n in range(n_max + 1):
        for word in gf.enumerate_words(adhoc5.factor_tmc, n + 1):
            pts = oracle_tail_completions(adhoc5, word.symbols, 2)
            for p in pts if len(pts) >= 2 else ():
                want.setdefault(p.key())
    seen = batches(monkeypatch, potential, lambda: gf.holder_variation(adhoc5, adhoc5_constants, n_max))
    assert seen == [list(want)]
