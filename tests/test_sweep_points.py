"""The points of the Gibbs and Hölder sweeps, built by table lookup, against
the searches they replaced: the depth-first tail_completions walk and
canonical_extension(fs, w).shifted(j), kept below as reference oracles
that build every point through the validating PointSpec constructor; and the
sweeps' reports, read from index tables, against the per-key loops they
replaced."""

from __future__ import annotations

import math

import numpy as np
import pytest

import gibbsfactor as gf
from gibbsfactor import gibbs, potential
from gibbsfactor.gibbs import _extension_shifts
from gibbsfactor.models import EXAMPLES
from gibbsfactor.potential import PointSpec, _return_path, canonical_extension, tail_completions
from gibbsfactor.projection import log_nu_cylinders
from gibbsfactor.tmc import primitive_root

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


def split_system():
    """Two closed source classes, {s0, s1} onto 0 and {s2, s3} onto 1: the
    image is two fixed points, so no word has two tail completions and every
    level of the Hölder sweep is empty."""
    alph = gf.Alphabet([f"s{i}" for i in range(4)])
    inc = np.zeros((4, 4), dtype=int)
    inc[:2, :2] = 1
    inc[2:, 2:] = 1
    model = gf.MarkovModel(gf.Tmc(alph, inc), inc / 2.0, stationary=np.full(4, 0.25))
    proj = gf.Projection.from_labels(alph, {"s0": "0", "s1": "0", "s2": "1", "s3": "1"})
    return gf.build_factor_system(model, proj)


SYSTEMS = {name: (lambda name=name: gf.example_system(name)) for name in EXAMPLES}
SYSTEMS.update({f"sparse{seed}": (lambda seed=seed: sparse_model(seed)) for seed in range(40)})
SYSTEMS["reducible"] = reducible_system
SYSTEMS["split"] = split_system


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
    points, levels = _extension_shifts(fs, MAX_LENGTH - 1)
    assert [level_words for level_words, _ in levels] == [
        [w for w in words(fs) if len(w) == n + 1] for n in range(MAX_LENGTH)
    ]
    assert len(set(keys(points))) == len(points)
    for n, (level_words, at) in enumerate(levels):
        assert at.shape == (len(level_words), n + 1)
        for w, row in zip(level_words, at):
            got = [points[i].key() for i in row]
            ext = oracle_canonical_extension(fs, w)
            want = [oracle_shifted(fs, ext, j) for j in range(n + 1)]
            assert got == keys(want), w
            assert keys(canonical_extension(fs, w).shifted(j) for j in range(n + 1)) == got


@pytest.mark.parametrize("name", ["adhoc5", "converse_false", "reducible", "sparse3"])
def test_shifted_equals_the_root_searching_shift(name):
    fs = SYSTEMS[name]()
    for w in words(fs, 4):
        for point in oracle_tail_completions(fs, w, 3):
            for j in range(2 * len(w) + 3):
                assert point.shifted(j).key() == oracle_shifted(fs, point, j).key()


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


@pytest.mark.parametrize("name", ["reducible", "split"])
def test_a_reducible_image_gets_no_uniform_constants(name):
    # the closed formulas would give k_gibbs 0 there, against which every
    # row of the Gibbs sweep read a certified fail
    fs = SYSTEMS[name]()
    with pytest.raises(gf.CertificationError, match="image incidence is not primitive"):
        gf.uniform_constants(fs)
    report = gf.bgi_sweep(fs, 3)
    assert not report.certified
    assert {row.verdict for row in report.rows} == {"uncertified"}


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


# ------------------------------------------- the sweeps' per-key loops
# bgi_sweep and holder_variation as they were before their points became
# an index table: one (preperiod, period) key per shift or completion, a
# cache from key to evaluation, and one Python loop per word and shift.


def reference_extension_shifts(fs, n_max):
    levels = []
    for n in range(n_max + 1):
        level = []
        for word in gf.enumerate_words(fs.factor_tmc, n + 1):
            w = word.symbols
            period = primitive_root(w + _return_path(fs, w[-1], w[0]))
            rotations = [((), period[r:] + period[:r]) for r in range(min(len(period), n + 1))]
            level.append((word, [rotations[j % len(period)] for j in range(n + 1)]))
        levels.append(level)
    return levels


def reference_bgi_sweep(fs, n_max, constants=None):
    horizon = max(gibbs.PROXY_HORIZON_MIN, 2 * (n_max + 2))
    levels = reference_extension_shifts(fs, n_max)
    distinct = dict.fromkeys(k for level in levels for _, shift_keys in level for k in shift_keys)
    unique = {k: PointSpec._absorbed(*k) for k in distinct}
    cache = dict(zip(unique, gf.evaluate_many(fs, list(unique.values()), potential.DEFAULT_TARGET_ERROR, constants)))
    diverged = [k for k, ev in cache.items() if ev.mode == "diverged"]
    proxies = {k: gf.markov_approx(fs, unique[k].symbols(horizon + 1)) for k in diverged}
    log_nu = log_nu_cylinders(fs, n_max + 1)
    rows = []
    for n, level in enumerate(levels):
        log_r_min, log_r_max = math.inf, -math.inf
        max_radius = 0.0
        level_proxied = False
        for word, shift_keys in level:
            total = 0.0
            for k in shift_keys:
                if k in proxies:
                    total += proxies[k]
                    level_proxied = True
                else:
                    total += cache[k].value
                    max_radius = max(max_radius, cache[k].error_radius)
            log_r = log_nu[word.symbols] - total
            log_r_min = min(log_r_min, log_r)
            log_r_max = max(log_r_max, log_r)
        k_emp = max(abs(log_r_min), abs(log_r_max))
        if constants is not None and not level_proxied:
            slack = (n + 1) * max_radius + constants.c_total / (1.0 - constants.theta)
            k_cert = constants.k_gibbs
            verdict = "pass" if k_emp <= k_cert + slack else "fail"
        else:
            slack = k_cert = math.nan
            verdict = "uncertified"
        rows.append(
            gibbs.BgiRow(n, len(level), math.exp(log_r_min), math.exp(log_r_max), k_emp, k_cert, slack, verdict)
        )
    stand_in = f"potential diverges at some points; a depth-{horizon} finite-range stand-in was used there"
    return gibbs.BgiReport(
        rows=tuple(rows),
        certified=constants is not None and all(r.verdict != "uncertified" for r in rows),
        proxy_points=len(proxies),
        notes=(stand_in,) if proxies else (),
    )


def reference_holder_variation(fs, constants, n_max):
    tails = {b: tail_completions(fs, (b,), 2) for b in range(fs.target_size)}
    levels = []
    for n in range(n_max + 1):
        ws = (word.symbols for word in gf.enumerate_words(fs.factor_tmc, n + 1))
        pairs = ([PointSpec._absorbed(w[:-1] + t.preperiod, t.period) for t in tails[w[-1]]] for w in ws)
        levels.append([pts for pts in pairs if len(pts) >= 2])
    unique = {p.key(): p for pairs in levels for pts in pairs for p in pts}
    cache = dict(zip(unique, gf.evaluate_many(fs, list(unique.values()), 1e-11, constants)))
    level = []
    max_radius = 0.0
    for pairs in levels:
        worst = 0.0
        for pts in pairs:
            ev = [cache[p.key()] for p in pts]
            max_radius = max(max_radius, *(e.error_radius for e in ev))
            worst = max(worst, abs(ev[0].value - ev[1].value))
        level.append(worst)
    var = list(level)
    for n in range(n_max - 1, -1, -1):
        var[n] = max(var[n], var[n + 1])
    bound = [constants.c_total * constants.theta**n + 2.0 * max_radius for n in range(n_max + 1)]
    floor = max(100.0 * max_radius, 1e-12)
    pts = [(n, math.log(v)) for n, v in enumerate(var) if v > floor]
    fitted = None
    if len(pts) >= 3:
        slope = np.polyfit(np.array([p[0] for p in pts]), np.array([p[1] for p in pts]), 1)[0]
        fitted = float(np.exp(slope))
    return potential.HolderReport(
        var=tuple(var),
        level_spread=tuple(level),
        bound=tuple(bound),
        bound_ok=all(v <= b for v, b in zip(var, bound)),
        fitted_rate=fitted,
        theta=constants.theta,
        exponent=constants.holder_exponent,
        max_eval_radius=max_radius,
    )


def constants_or_none(fs):
    try:
        return gf.uniform_constants(fs)
    except gf.CertificationError:
        return None


def outcome(sweep, *args):
    """The repr of the sweep's report, or of the evaluation it refuses."""
    try:
        return repr(sweep(*args))
    except gf.EvaluationRefused as exc:
        return repr(exc)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_sweeps_equal_the_per_key_loops(name):
    fs = SYSTEMS[name]()
    constants = constants_or_none(fs)
    for n_max in (0, 3, 7):
        assert outcome(gf.bgi_sweep, fs, n_max, constants) == outcome(reference_bgi_sweep, fs, n_max, constants)
        if constants is not None:
            got = outcome(gf.holder_variation, fs, constants, n_max)
            assert got == outcome(reference_holder_variation, fs, constants, n_max)


@pytest.mark.parametrize("name", ["reducible", "split"])
def test_holder_sweep_of_a_reducible_image_equals_the_per_key_loop(name, adhoc5_constants):
    # a reducible image has no constants of its own; the comparison only
    # needs some.  No word of split has two tail completions, so its levels
    # are empty and the constants enter only the bound
    fs = SYSTEMS[name]()
    for n_max in (0, 3, 7):
        got = outcome(gf.holder_variation, fs, adhoc5_constants, n_max)
        assert got == outcome(reference_holder_variation, fs, adhoc5_constants, n_max)
    if name == "split":
        assert gf.holder_variation(fs, adhoc5_constants, 7).level_spread == (0.0,) * 8


def test_fullshift4_sweeps_at_depth_10_equal_the_per_key_loops(fullshift4, fullshift4_constants):
    fs, constants = fullshift4, fullshift4_constants
    assert repr(gf.bgi_sweep(fs, 10, constants)) == repr(reference_bgi_sweep(fs, 10, constants))
    assert repr(gf.holder_variation(fs, constants, 10)) == repr(reference_holder_variation(fs, constants, 10))
