"""The lockstep batch evaluate_many against one evaluate call per point, its
staggered backward and forward kernels against the one-point kernels, and
the unvalidated PointSpec.shifted against the validating constructor."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gibbsfactor as gf
from gibbsfactor import cli, gibbs, potential
from gibbsfactor.models import expand_example
from gibbsfactor.potential import (
    PointSpec,
    _certified_depth,
    _lockstep_scales,
    _lockstep_sequences,
    _psi_sequence,
    _routes,
    _window_count,
    evaluate,
    evaluate_many,
)
from gibbsfactor.projection import backward_transfer

from test_golden_cli import wide12_document
from test_potential import random_certified_system

TARGET = 1e-10


def random_point(fs, rng, pre_len, per_max=4):
    """Seeded admissible point: a random walk of pre_len + period symbols
    whose period part closes up cyclically."""
    tmc = fs.factor_tmc
    while True:
        q = int(rng.integers(1, per_max + 1))
        walk = [int(rng.integers(fs.target_size))]
        while len(walk) < pre_len + q:
            walk.append(int(rng.choice(tmc.successors(walk[-1]))))
        if tmc.allows(walk[-1], walk[pre_len]):
            return PointSpec(fs, walk[:pre_len], walk[pre_len:])


@pytest.fixture(scope="module", params=["adhoc5", "fullshift4", "wide12", "rand13", "rand123"])
def certified_system(request):
    name = request.param
    if name == "wide12":
        fs = gf.parse_model(wide12_document())
        return fs, gf.uniform_constants(fs)
    if name == "rand13":
        return random_certified_system(1, (1, 3))
    if name == "rand123":
        return random_certified_system(4, (1, 2, 3))
    fs = gf.example_system(name)
    return fs, gf.uniform_constants(fs)


def per_point(fs, points, target_error=TARGET, constants=None):
    # the unpatched one-point batch, which is what evaluate calls
    return [evaluate_many(fs, [p], target_error, constants)[0] for p in points]


def test_batch_equals_evaluate_on_periodic_points(certified_system):
    fs, c = certified_system
    rng = np.random.default_rng(21)
    points = [random_point(fs, rng, 0) for _ in range(24)]
    assert all(not p.preperiod for p in points)
    assert evaluate_many(fs, points, TARGET, c) == per_point(fs, points, TARGET, c)


def test_batch_equals_evaluate_on_preperiodic_points(certified_system):
    fs, c = certified_system
    rng = np.random.default_rng(22)
    points = [random_point(fs, rng, int(rng.integers(1, 6))) for _ in range(24)]
    assert any(p.preperiod for p in points)
    assert evaluate_many(fs, points, TARGET, c) == per_point(fs, points, TARGET, c)


def test_batch_equals_evaluate_across_depths(certified_system):
    # preperiods longer than the certified depth (itself >= gap + 2) push
    # their points to depth len(preperiod) + 2, so the batch holds several
    # depth groups, interleaved with ordinary points and repeats
    fs, c = certified_system
    rng = np.random.default_rng(23)
    depth = _certified_depth(c, 0, TARGET)
    assert depth >= c.gap + 2
    points = []
    for pre_len in (0, depth + 3, 2, depth + 17, 0, depth + 3):
        points.append(random_point(fs, rng, pre_len))
    points.append(points[1])
    depths = {ev.terms_used for ev in evaluate_many(fs, points, TARGET, c)}
    assert len(depths) >= 3
    assert evaluate_many(fs, points, TARGET, c) == per_point(fs, points, TARGET, c)


def test_batch_without_constants_loops_over_evaluate(nongibbs6):
    points = [PointSpec(nongibbs6, (), (0,)), PointSpec(nongibbs6, (1,), (0,)),
              PointSpec(nongibbs6, (), (0, 1))]
    evs = evaluate_many(nongibbs6, points, TARGET)
    assert evs == per_point(nongibbs6, points, TARGET)
    assert {ev.mode for ev in evs} >= {"diverged"}


def test_batch_refuses_bad_target(adhoc5, adhoc5_constants):
    with pytest.raises(gf.ModelError):
        evaluate_many(adhoc5, [PointSpec(adhoc5, (), (0, 1))], 0.0, adhoc5_constants)


@pytest.mark.parametrize("with_constants", [True, False])
def test_empty_batch_refuses_bad_target(adhoc5, adhoc5_constants, with_constants):
    c = adhoc5_constants if with_constants else None
    assert evaluate_many(adhoc5, [], TARGET, c) == []
    with pytest.raises(gf.ModelError):
        evaluate_many(adhoc5, [], 0.0, c)


def sweep_points(fs, n_max):
    """The distinct points bgi_sweep evaluates up to depth n_max, then the
    periodic points up to period n_max + 1."""
    seen = {}
    for n in range(n_max + 1):
        for word in gf.enumerate_words(fs.factor_tmc, n + 1):
            ext = potential.canonical_extension(fs, word.symbols)
            for j in range(n + 1):
                p = ext.shifted(fs, j)
                seen[p.key()] = p
    for pp in gf.enumerate_periodic(fs.factor_tmc, n_max + 1):
        p = PointSpec(fs, (), pp.symbols)
        seen[p.key()] = p
    return list(seen.values())


@pytest.mark.parametrize("gamma", [0.26, 0.28, 0.30, 0.32])
def test_uncertified_batch_equals_evaluate_on_nongibbs6(gamma):
    fs = gf.parse_model(expand_example("nongibbs6", gamma=gamma))
    points = sweep_points(fs, 5)
    evs = evaluate_many(fs, points, TARGET)
    assert evs == per_point(fs, points, TARGET)
    routes = {r.window for r in _routes(fs, points, TARGET, None)}
    assert routes == {True, False}
    diverged = sum(ev.mode == "diverged" for ev in evs)
    assert diverged >= (2 if gamma == 0.30 else 1)


@pytest.mark.parametrize("name", ["adhoc5", "fullshift4", "wide12", "nongibbs6"])
def test_uncertified_batch_equals_evaluate_on_random_points(name):
    # preperiodic and purely periodic points, repeats included; on nongibbs6
    # window-route and scan-route points are mixed in one batch
    fs = gf.parse_model(wide12_document()) if name == "wide12" else gf.example_system(name)
    rng = np.random.default_rng(25)
    points = [random_point(fs, rng, int(rng.integers(0, 6))) for _ in range(30)]
    points += points[:5]
    assert any(p.preperiod for p in points) and any(not p.preperiod for p in points)
    assert evaluate_many(fs, points, TARGET) == per_point(fs, points, TARGET)
    if name == "nongibbs6":
        assert {r.window for r in _routes(fs, points, TARGET, None)} == {True, False}


def test_batch_raises_the_first_refusal(converse_false):
    points = [random_point(converse_false, np.random.default_rng(s), 3) for s in range(12)]
    refusals = []
    for p in points:
        try:
            evaluate(converse_false, p)
        except gf.EvaluationRefused as exc:
            refusals.append(exc)
    assert len(refusals) >= 2 and len({str(e) for e in refusals}) >= 2
    with pytest.raises(gf.EvaluationRefused) as info:
        evaluate_many(converse_false, points, TARGET)
    assert str(info.value) == str(refusals[0])
    assert info.value.window == refusals[0].window


@pytest.mark.parametrize("name", ["adhoc5", "nongibbs6", "wide12"])
def test_staggered_scales_equal_backward_transfer(name):
    fs = gf.parse_model(wide12_document()) if name == "wide12" else gf.example_system(name)
    rng = np.random.default_rng(26)
    points = [random_point(fs, rng, int(rng.integers(0, 8))) for _ in range(40)]
    depths = [int(d) for d in rng.integers(1, 60, size=len(points))]
    scales = _lockstep_scales(fs, points, depths)
    expected = [backward_transfer(fs, p.symbols(n + 1))[1] for p, n in zip(points, depths)]
    assert scales.tolist() == [float(x) for x in expected]


def mixed13_document() -> dict:
    """Full 13-shift onto 2 symbols with fibers of 10 and 3, in closed form:
    P[i, j] is proportional to 1 + (5i + 3j) mod 7.  numpy's pairwise sum
    adds a row wider than 8 in eight interleaved partial sums, not left to
    right, so the rows of 10 pin that the batch's row sums add as the one
    point's u.sum() does, and the 3-wide rows are padded to 10."""
    labels = [f"s{i}" for i in range(13)]
    rows = [[1.0 + (5 * i + 3 * j) % 7 for j in range(13)] for i in range(13)]
    return {
        "alphabet": labels,
        "incidence": [[1] * 13 for _ in range(13)],
        "transition": [[x / sum(row) for x in row] for row in rows],
        "projection": {lab: "0" if i < 10 else "1" for i, lab in enumerate(labels)},
    }


def forward_system(name):
    documents = {"wide12": wide12_document, "mixed13": mixed13_document}
    return gf.parse_model(documents[name]()) if name in documents else gf.example_system(name)


@pytest.mark.parametrize("name", ["adhoc5", "nongibbs6", "wide12", "mixed13"])
def test_forward_lockstep_equals_psi_sequence(name):
    fs = forward_system(name)
    rng = np.random.default_rng(27)
    points = [random_point(fs, rng, int(rng.integers(0, 8))) for _ in range(30)]
    lengths = [int(n) for n in rng.integers(1, 120, size=len(points))]
    for p, n, seq in zip(points, lengths, _lockstep_sequences(fs, points, lengths)):
        assert seq.tolist() == _psi_sequence(fs, p, n).tolist()


@pytest.mark.parametrize("name", ["adhoc5", "fullshift4", "nongibbs6", "converse_false"])
def test_forward_lockstep_equals_psi_sequence_at_short_and_mixed_lengths(name):
    # lengths 1 and 2 read the first one or two levels of the deferred logs
    # only; mixed lengths cut one pass at different levels.  The random
    # points lack most of their shifts, which take rows of their own; every
    # periodic point up to period 6 is a batch closed under the shift, in
    # which each point's denominator is read from another point's row
    fs = gf.example_system(name)
    rng = np.random.default_rng(28)
    points = [random_point(fs, rng, int(rng.integers(0, 6))) for _ in range(40)]
    points = [p for p in points if _refusal(fs, p) is None]
    assert len(points) >= 5
    # converse_false refuses every point but its two fixed points
    assert ({p.shifted(fs) for p in points} <= set(points)) == (name == "converse_false")
    # a refused point's shifts are refused too, so the kept ones stay closed
    closed = [p for p in periodic_batch(fs, 6) if _refusal(fs, p) is None]
    assert len(closed) >= 2
    assert {p.shifted(fs) for p in closed} == set(closed)
    for batch in (points, closed):
        mixed = [int(n) for n in rng.integers(1, 90, size=len(batch))]
        for lengths in ([1] * len(batch), [2] * len(batch), mixed):
            assert_lockstep_equals_psi_sequence(fs, batch, lengths)


def periodic_batch(fs, p_max):
    """Every periodic point of period <= p_max, every rotation included: a
    batch closed under the shift."""
    return [PointSpec(fs, (), pp.symbols) for pp in gf.enumerate_periodic(fs.factor_tmc, p_max)]


def assert_lockstep_equals_psi_sequence(fs, points, lengths):
    sequences = _lockstep_sequences(fs, points, lengths)
    assert len(sequences) == len(points)
    for p, n, seq in zip(points, lengths, sequences):
        expected = _psi_sequence(fs, p, n)
        assert seq.shape == expected.shape
        assert (seq == expected).all()


def test_forward_lockstep_with_duplicate_points():
    # a repeated point shares one row, at the same or at another length
    fs = gf.example_system("nongibbs6")
    batch = periodic_batch(fs, 3)
    points = batch + batch + [batch[1]] * 3
    lengths = [7] * len(batch) + list(range(1, len(batch) + 1)) + [1, 2, 50]
    assert_lockstep_equals_psi_sequence(fs, points, lengths)


@pytest.mark.parametrize("name", ["nongibbs6", "adhoc5"])
def test_forward_lockstep_when_the_shift_is_much_shorter_or_longer(name):
    # chain[j + 1] is the shift of chain[j], so one row serves the values of
    # one point and the denominators of another, at lengths far apart
    fs = gf.example_system(name)
    x = random_point(fs, np.random.default_rng(31), 4)
    chain = [x.shifted(fs, j) for j in range(4)]
    for lengths in ([150, 1, 2, 1], [1, 150, 1, 2], [2, 1, 150, 3]):
        assert_lockstep_equals_psi_sequence(fs, chain, lengths)


@pytest.mark.parametrize("run", [1, 7, 16])
def test_forward_runs_do_not_change_a_bit(run, monkeypatch):
    # the step blocks of a run of levels are gathered at once: runs of one
    # level, runs of 7 levels (which do not divide the 100 levels of the
    # pass) and one run longer than a 10-level pass; the run length is set
    # through STACK_DOUBLES and read off the marginal-dot calls, one per run
    # and one for level 0
    fs = gf.example_system("nongibbs6")
    rng = np.random.default_rng(37)
    points = periodic_batch(fs, 4) + [random_point(fs, rng, int(rng.integers(0, 5))) for _ in range(12)]
    levels = 10 if run == 16 else 100
    lengths = [levels] + [int(n) for n in rng.integers(1, levels + 1, size=len(points) - 1)]
    rows = len(dict.fromkeys(points + [p.shifted(fs) for p in points]))
    if run < 16:
        monkeypatch.setattr(potential, "STACK_DOUBLES", run * rows * fs.padded_stack[0][0, 0].size)
    calls = []

    def counted(a, b):
        calls.append(len(a))
        return real(a, b)

    real = potential._dots
    monkeypatch.setattr(potential, "_dots", counted)
    assert_lockstep_equals_psi_sequence(fs, points, lengths)
    assert len(calls) == 1 + -(-levels // run)
    assert calls[1] == min(run, levels) * rows


def test_shift_closed_batch_steps_one_row_per_point(monkeypatch):
    # every row of the pass is a point whose symbols _symbol_column reads
    fs = gf.example_system("nongibbs6")
    points = periodic_batch(fs, 5)
    tabled = []

    def counted(rows):
        tabled.append(len(rows))
        return real(rows)

    real = potential._symbol_column
    monkeypatch.setattr(potential, "_symbol_column", counted)
    _lockstep_sequences(fs, points, [40] * len(points))
    assert tabled == [len(points)]


def reference_psi_sequence(fs, point, n_hi):
    """_psi_sequence on unpadded vectors: the fiber weight blocks and
    marginals as they are, one step per level."""
    out = np.empty(n_hi)
    u = np.ones(len(fs.fiber_marginal[point.symbol_at(0)]))
    u = u @ fs.weight(point.symbol_at(0), point.symbol_at(1))
    u_log = math.log(u.sum())
    u = u / u.sum()
    w = np.ones(len(fs.fiber_marginal[point.symbol_at(1)]))
    w_log = 0.0
    for n in range(1, n_hi + 1):
        mu = fs.fiber_marginal[point.symbol_at(n)]
        out[n - 1] = (u_log + math.log(u @ mu)) - (w_log + math.log(w @ mu))
        if n < n_hi:
            step = fs.weight(point.symbol_at(n), point.symbol_at(n + 1))
            u = u @ step
            s = u.sum()
            u_log += math.log(s)
            u = u / s
            w = w @ step
            s = w.sum()
            w_log += math.log(s)
            w = w / s
    return out


@pytest.mark.parametrize("name", ["fullshift4", "wide12", "converse_false", "adhoc5", "nongibbs6"])
def test_padded_psi_sequence_equals_the_unpadded_one(name):
    # equal fibers need no padding, so the values agree bit for bit; where
    # fibers differ in size the padded products round differently
    fs = forward_system(name)
    rng = np.random.default_rng(32)
    points = [random_point(fs, rng, int(rng.integers(0, 6))) for _ in range(12)]
    points = [p for p in points if _refusal(fs, p) is None]
    assert points
    equal_fibers = len({len(f) for f in fs.projection.fibers}) == 1
    assert equal_fibers == (name in ("fullshift4", "wide12", "converse_false"))
    for p in points:
        got, expected = _psi_sequence(fs, p, 300), reference_psi_sequence(fs, p, 300)
        if equal_fibers:
            assert got.tolist() == expected.tolist()
        else:
            assert (np.abs(got - expected) <= 1e-11 * np.maximum(1.0, np.abs(expected))).all()


def _refusal(fs, point):
    try:
        potential._check_point_rows(fs, point)
    except gf.EvaluationRefused as exc:
        return exc
    return None


def one_point_route(fs, point, target_error):
    """The route of one point planned with the one-matrix forms, symbol by
    symbol: pattern_primitivity per phase, contraction_coefficient of the
    window, and apply_normalized plus projective_distance for a*."""
    t0, q = len(point.preperiod), len(point.period)
    base = max(1, t0)
    for a0 in range(base, base + q):
        prim = gf.pattern_primitivity(fs.word_product([point.symbol_at(i) for i in range(a0, a0 + q + 1)]))
        if prim.primitive:
            break
    else:
        return potential._Route(False, min(max(150, t0 + 30 * q, 12 * q), potential.MAX_DEPTH))
    big_q = prim.exponent * q
    window = fs.word_product([point.symbol_at(i) for i in range(a0, a0 + big_q + 1)])
    tau_q = gf.contraction_coefficient(window).tau
    mu_hat = fs.marginal_hat(point.symbol_at(a0))
    a_star = gf.projective_distance(mu_hat, gf.apply_normalized(window, mu_hat, out_fiber=mu_hat.fiber))
    k = 0
    radius = a_star / (1.0 - tau_q) if a_star > 0 else 0.0
    while radius > target_error and a0 + (k + 1) * big_q <= potential.MAX_DEPTH:
        k += 1
        radius = tau_q**k * a_star / (1.0 - tau_q)
    note = f"tail window of {big_q} steps is strictly positive (contraction {tau_q:.6g})"
    return potential._Route(True, max(2, a0 + k * big_q), max(radius, potential.FLOAT_NOISE_FLOOR), note)


@pytest.mark.parametrize("name", ["adhoc5", "fullshift4", "nongibbs6", "converse_false", "wide12"])
def test_batched_route_plan_equals_the_one_point_plan(name):
    # adhoc5 and nongibbs6 have fibers of different sizes, so their windows
    # fall into several stacks; converse_false has refused points
    fs = gf.parse_model(wide12_document()) if name == "wide12" else gf.example_system(name)
    points = sweep_points(fs, 4)
    refused = [p for p in points if _refusal(fs, p) is not None]
    points = [p for p in points if _refusal(fs, p) is None]
    expected = [one_point_route(fs, p, TARGET) for p in points]
    assert _routes(fs, points, TARGET, None) == expected
    assert [_routes(fs, [p], TARGET, None)[0] for p in points] == expected
    assert any(r.window for r in expected) == (name != "converse_false")
    if name == "nongibbs6":
        assert len({r.window for r in expected}) == 2
    if refused:
        with pytest.raises(gf.EvaluationRefused) as info:
            _routes(fs, points + refused, TARGET, None)
        assert str(info.value) == str(_refusal(fs, refused[0]))


def test_routes_test_each_phase_word_once(monkeypatch):
    # the rotations of one orbit test the same cyclic phase words, and the
    # batch takes each word's product once; every window-route point then
    # takes its window product once
    fs = gf.example_system("nongibbs6")
    points = periodic_batch(fs, 7)
    expected = [_routes(fs, [p], TARGET, None)[0] for p in points]
    tested, windows = [], []
    for p in points:
        q = len(p.period)
        for a0 in range(1, 1 + q):
            word = p.symbols(a0 + q + 1)[a0:]
            tested.append(word)
            prim = gf.pattern_primitivity(fs.word_product(word))
            if prim.primitive:
                windows.append(p.symbols(a0 + prim.exponent * q + 1)[a0:])
                break
    assert windows and len(windows) < len(points)
    assert len(set(tested)) < len(tested)
    calls = []
    real = gf.FactorSystem.word_product

    def counted(self, symbols, *args):
        calls.append(tuple(symbols))
        return real(self, symbols, *args)

    monkeypatch.setattr(gf.FactorSystem, "word_product", counted)
    assert _routes(fs, points, TARGET, None) == expected
    assert sorted(calls) == sorted(list(dict.fromkeys(tested)) + windows)


def test_periodic_command_batches_its_fallback_points(tmp_path, monkeypatch):
    path = tmp_path / "ng6.json"
    gf.models.dump_document(expand_example("nongibbs6"), str(path))
    calls = []

    def counted(fs, points, *args, **kwargs):
        calls.append(len(points))
        return evaluate_many(fs, points, *args, **kwargs)

    monkeypatch.setattr(potential, "evaluate_many", counted)
    assert cli.main(["periodic", str(path), "--max-period", "5"]) == 1
    assert len(calls) == 1 and calls[0] >= 5


def test_single_point_does_not_use_the_batch(adhoc5, adhoc5_constants, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("single points go through _scale")

    monkeypatch.setattr(potential, "_gathered_product", refuse)
    ev = evaluate(adhoc5, PointSpec(adhoc5, (), (0, 1)), constants=adhoc5_constants)
    assert ev.mode == "certified"


def test_single_scan_route_point_does_not_use_the_batch(nongibbs6, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("single points go through _psi_sequence")

    points = [PointSpec(nongibbs6, (), (0,)), PointSpec(nongibbs6, (), (0, 1))]
    scan = [p for p, r in zip(points, _routes(nongibbs6, points, TARGET, None)) if not r.window]
    assert scan
    # the batch (and the backward batch) read the points' symbols through _symbol_column
    monkeypatch.setattr(potential, "_symbol_column", refuse)
    for p in scan:
        assert evaluate(nongibbs6, p).terms_used >= 150


def _with_per_point_loop(monkeypatch, run):
    batched = run()
    monkeypatch.setattr(gibbs, "evaluate_many", per_point)
    monkeypatch.setattr(potential, "evaluate_many", per_point)
    # repr compares floats bit for bit and treats the nan of uncertified rows as equal
    return repr(batched), repr(run())


@pytest.mark.parametrize("name, n_max", [("adhoc5", 5), ("fullshift4", 5)])
def test_sweeps_equal_per_point_loop(name, n_max, monkeypatch):
    fs = gf.example_system(name)
    c = gf.uniform_constants(fs)
    batched, looped = _with_per_point_loop(
        monkeypatch,
        lambda: (gf.bgi_sweep(fs, n_max, constants=c), gf.holder_variation(fs, c, n_max)),
    )
    assert batched == looped


def test_bgi_sweep_without_constants_equals_per_point_loop(nongibbs6, monkeypatch):
    batched, looped = _with_per_point_loop(monkeypatch, lambda: gf.bgi_sweep(nongibbs6, 4))
    assert batched == looped
    assert "uncertified" in batched


@pytest.mark.parametrize("name", ["adhoc5", "fullshift4"])
def test_shifted_equals_validated_point(name):
    fs = gf.example_system(name)
    rng = np.random.default_rng(24)
    for _ in range(40):
        p = random_point(fs, rng, int(rng.integers(0, 5)))
        t0, q = len(p.preperiod), len(p.period)
        for j in range(t0 + 2 * q):
            # the same sequence: t0 symbols, then the period from position j + t0
            pre = tuple(p.symbol_at(i) for i in range(j, j + t0))
            per = tuple(p.symbol_at(i) for i in range(j + t0, j + t0 + q))
            assert p.shifted(fs, j) == PointSpec(fs, pre, per)


def counted_windows(tau_q, a_star, target_error, a0, big_q):
    """The radius loop that _window_count replaced: k counts up one window
    at a time while the radius is above target_error and the depth stays
    within MAX_DEPTH."""
    k = 0
    radius = a_star / (1.0 - tau_q) if a_star > 0 else 0.0
    while radius > target_error and (a0 + (k + 1) * big_q) <= potential.MAX_DEPTH:
        k += 1
        radius = tau_q**k * a_star / (1.0 - tau_q)
    return k, radius


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True), st.floats(0.9999, 1.0, exclude_max=True)),
    st.one_of(st.just(0.0), st.floats(1e-300, 1e6)),
    st.one_of(st.floats(1e-300, 1.0), st.sampled_from([1e-10, 1e-11, 1e-300])),
    st.integers(1, 40),
    st.one_of(st.integers(1, 12), st.sampled_from([97, 5000, 499999, 600000])),
)
@example(0.999998, 1.3, 1e-10, 1, 1)  # capped at MAX_DEPTH
@example(0.740743, 0.5, 1e-10, 1, 2)
def test_window_count_equals_counting_up(tau_q, a_star, target_error, a0, big_q):
    expected = counted_windows(tau_q, a_star, target_error, a0, big_q)
    assert _window_count(tau_q, a_star, target_error, (potential.MAX_DEPTH - a0) // big_q) == expected


@settings(max_examples=200, deadline=None)
@given(st.floats(0.01, 0.999), st.floats(1e-3, 1e3), st.integers(1, 300), st.booleans())
def test_window_count_at_a_radius_boundary(tau_q, a_star, k, below):
    # target_error equal to a radius of the loop, or the double below it,
    # where the log ratio lands next to an integer
    target = tau_q**k * a_star / (1.0 - tau_q)
    target = float(np.nextafter(target, 0.0)) if below else target
    assume(target > 0)
    assert _window_count(tau_q, a_star, target, potential.MAX_DEPTH - 1) == counted_windows(tau_q, a_star, target, 1, 1)


@pytest.mark.parametrize(
    "tau_q, a_star, target, off",
    [
        (0.3431215648898563, 0.3467038735465146, 1.7801889200613385e-14, 1),
        (0.33500313953414623, 0.5260019290542263, 1.9173384394339735e-93, -1),
    ],
)
def test_window_count_corrects_the_log_ratio_by_one(tau_q, a_star, target, off):
    ratio = (math.log(target) + math.log(1.0 - tau_q) - math.log(a_star)) / math.log(tau_q)
    k, radius = _window_count(tau_q, a_star, target, potential.MAX_DEPTH - 1)
    assert math.ceil(ratio) - k == off
    assert (k, radius) == counted_windows(tau_q, a_star, target, 1, 1)


def test_certified_depth_is_taken_once_per_preperiod_length(monkeypatch):
    fs = gf.example_system("adhoc5")
    constants = gf.uniform_constants(fs)
    points = sweep_points(fs, 4)
    expected = per_point(fs, points, TARGET, constants)
    calls = []

    def counted(c, t0, target_error):
        calls.append(t0)
        return _certified_depth(c, t0, target_error)

    monkeypatch.setattr(potential, "_certified_depth", counted)
    assert evaluate_many(fs, points, TARGET, constants) == expected
    assert sorted(calls) == sorted({len(p.preperiod) for p in points})
    assert len(calls) < len(points)


def test_routes_with_constants_are_certified(certified_system):
    fs, c = certified_system
    rng = np.random.default_rng(26)
    points = [random_point(fs, rng, int(rng.integers(0, 6))) for _ in range(20)]
    assert len({len(p.preperiod) for p in points}) >= 3
    routes = _routes(fs, points, TARGET, c)
    for p, route in zip(points, routes):
        n = _certified_depth(c, len(p.preperiod), TARGET)
        assert route == (True, n, c.eq_radius_constant * c.theta**n, "", True)
    evs = evaluate_many(fs, points, TARGET, c)
    assert evs == [evaluate(fs, p, TARGET, c) for p in points]
    for ev, route in zip(evs, routes):
        assert (ev.mode, ev.certified, ev.notes) == ("certified", True, ())
        assert (ev.terms_used, ev.error_radius) == (route.depth, route.radius)


@pytest.mark.parametrize("theta", [1.0 - 2.0**-52, 1.0 - 1e-15, 1.0 - 1e-9])
def test_decay_rate_close_to_one_is_refused(adhoc5, adhoc5_constants, theta):
    # the certified radius would reach the target only beyond MAX_DEPTH
    c = adhoc5_constants._replace(theta=theta)
    points = [PointSpec(adhoc5, (), (0, 1)), PointSpec(adhoc5, (2,), (1, 0))]
    for batch in (points, points[:1]):
        with pytest.raises(gf.EvaluationRefused, match=f", beyond MAX_DEPTH {potential.MAX_DEPTH}$"):
            evaluate_many(adhoc5, batch, TARGET, c)
    with pytest.raises(gf.EvaluationRefused, match=r"^a certified radius of 1e-10 needs depth \d+, "):
        _certified_depth(c, 0, TARGET)


def test_certified_depth_up_to_the_cap_is_kept(adhoc5_constants):
    # theta with the target met near MAX_DEPTH / 2 is not refused
    c = adhoc5_constants
    theta = math.exp(math.log(TARGET / c.eq_radius_constant) / (potential.MAX_DEPTH // 2))
    n = _certified_depth(c._replace(theta=theta), 0, TARGET)
    assert abs(n - potential.MAX_DEPTH // 2) <= 1
