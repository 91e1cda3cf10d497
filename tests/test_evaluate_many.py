"""The lockstep batch evaluate_many against one evaluate call per point, its
staggered backward and forward kernels against the one-point kernels, and
the unvalidated PointSpec.shifted against the validating constructor."""

from __future__ import annotations

import math

import numpy as np
import pytest

import gibbsfactor as gf
from gibbsfactor import cli, gibbs, potential
from gibbsfactor.models import expand_example
from gibbsfactor.potential import (
    PointSpec,
    _certified_depth,
    _lockstep_sequences,
    _psi_sequence,
    _routes,
    _scan_result,
    _scan_tail,
    eigendata_many,
    evaluate,
    evaluate_many,
)
from gibbsfactor.projection import backward_transfer

from test_golden_cli import wide12_document
from test_potential import _lockstep_scales, random_certified_system

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
                p = ext.shifted(j)
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
    modes = {plan.mode for plan in _routes(fs, points, TARGET, None)}
    assert modes == {"adaptive", "scan"}
    diverged = sum(ev.mode == "diverged" for ev in evs)
    assert diverged >= (2 if gamma == 0.30 else 1)


@pytest.mark.parametrize("name", ["adhoc5", "fullshift4", "wide12", "nongibbs6"])
def test_uncertified_batch_equals_evaluate_on_random_points(name):
    # preperiodic and purely periodic points, repeats included; on nongibbs6
    # eigendata-route and scan-route points are mixed in one batch
    fs = gf.parse_model(wide12_document()) if name == "wide12" else gf.example_system(name)
    rng = np.random.default_rng(25)
    points = [random_point(fs, rng, int(rng.integers(0, 6))) for _ in range(30)]
    points += points[:5]
    assert any(p.preperiod for p in points) and any(not p.preperiod for p in points)
    assert evaluate_many(fs, points, TARGET) == per_point(fs, points, TARGET)
    if name == "nongibbs6":
        assert {plan.mode for plan in _routes(fs, points, TARGET, None)} == {"adaptive", "scan"}


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
    for p, n, seq in zip(points, lengths, _lockstep_sequences(fs, points, lengths, lengths)):
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
    assert ({p.shifted() for p in points} <= set(points)) == (name == "converse_false")
    # a refused point's shifts are refused too, so the kept ones stay closed
    closed = [p for p in periodic_batch(fs, 6) if _refusal(fs, p) is None]
    assert len(closed) >= 2
    assert {p.shifted() for p in closed} == set(closed)
    for batch in (points, closed):
        mixed = [int(n) for n in rng.integers(1, 90, size=len(batch))]
        for lengths in ([1] * len(batch), [2] * len(batch), mixed):
            assert_lockstep_equals_psi_sequence(fs, batch, lengths)


def periodic_batch(fs, p_max):
    """Every periodic point of period <= p_max, every rotation included: a
    batch closed under the shift."""
    return [PointSpec(fs, (), pp.symbols) for pp in gf.enumerate_periodic(fs.factor_tmc, p_max)]


def assert_lockstep_equals_psi_sequence(fs, points, lengths):
    # a tail of n values is the whole sequence
    sequences = _lockstep_sequences(fs, points, lengths, lengths)
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
    chain = [x.shifted(j) for j in range(4)]
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
    rows = len(dict.fromkeys(points + [p.shifted() for p in points]))
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
    # the first run steps the rows read past level 0: every point, and the
    # shift of every point longer than 1
    stepped = len(dict.fromkeys(points + [p.shifted() for p, n in zip(points, lengths) if n > 1]))
    assert calls[1] == min(run, levels) * stepped


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
    _lockstep_sequences(fs, points, [40] * len(points), [40] * len(points))
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


def one_point_route(fs, point):
    """The plan of one point without constants: its eigendata_many slot
    alone, as an uncertified adaptive evaluation, or the scan plan of a
    tail with no primitive rotation."""
    slot = eigendata_many(fs, [point])[0]
    if slot is None:
        t0, q = len(point.preperiod), len(point.period)
        n_scan = min(max(150, t0 + 30 * q, 12 * q), potential.MAX_DEPTH)
        return gf.PotentialEvaluation(None, math.inf, n_scan, "scan", False)
    return slot[0]._replace(mode="adaptive", certified=False)


@pytest.mark.parametrize("name", ["adhoc5", "fullshift4", "nongibbs6", "converse_false", "wide12"])
def test_batched_route_plan_equals_the_one_point_plan(name):
    # adhoc5 and nongibbs6 have fibers of different sizes, so their bases
    # fall into several stacks; converse_false has refused points
    fs = gf.parse_model(wide12_document()) if name == "wide12" else gf.example_system(name)
    rng = np.random.default_rng(50)
    points = sweep_points(fs, 4) + [random_point(fs, rng, int(rng.integers(1, 5))) for _ in range(30)]
    refused = [p for p in points if _refusal(fs, p) is not None]
    points = [p for p in points if _refusal(fs, p) is None]
    expected = [one_point_route(fs, p) for p in points]
    assert _routes(fs, points, TARGET, None) == expected
    assert [_routes(fs, [p], TARGET, None)[0] for p in points] == expected
    assert any(plan.mode != "scan" for plan in expected) == (name != "converse_false")
    assert any(plan.mode != "scan" and p.preperiod for p, plan in zip(points, expected)) == (name != "converse_false")
    if name == "nongibbs6":
        assert len({plan.mode for plan in expected}) == 2
    if refused:
        with pytest.raises(gf.EvaluationRefused) as info:
            _routes(fs, points + refused, TARGET, None)
        assert str(info.value) == str(_refusal(fs, refused[0]))


def test_routes_test_each_phase_word_once(monkeypatch):
    # without constants the planner forms no product of its own: the
    # products it needs are those of one eigendata_many call on the batch,
    # whose base search forms each phase word of an orbit once, into the
    # system's table, from which the planner reads them all
    rng = np.random.default_rng(49)
    fs = gf.example_system("nongibbs6")
    points = periodic_batch(fs, 7) + [random_point(fs, rng, int(rng.integers(1, 4))) for _ in range(20)]
    other = gf.example_system("nongibbs6")
    expected = [_routes(other, [p], TARGET, None)[0] for p in points]
    calls = []
    real = gf.FactorSystem.word_product

    def counted(self, symbols):
        calls.append(tuple(symbols))
        return real(self, symbols)

    monkeypatch.setattr(gf.FactorSystem, "word_product", counted)
    eigendata_many(fs, points)
    words = list(calls)
    calls.clear()
    assert _routes(fs, points, TARGET, None) == expected
    assert calls == [] and words and len(set(words)) == len(words)


def test_periodic_command_batches_its_fallback_points(tmp_path, monkeypatch):
    # one eigendata_many call, and the points of cycles with no primitive
    # rotation go straight to one forward scan: no evaluate_many call, so no
    # second eigendata_many call and no second phase search
    path = tmp_path / "ng6.json"
    gf.models.dump_document(expand_example("nongibbs6"), str(path))
    calls, scans = [], []

    def counted(fs, points):
        calls.append(len(points))
        return eigendata_many(fs, points)

    def scanned(fs, points, *args):
        scans.append(len(points))
        return real(fs, points, *args)

    def refuse(*args, **kwargs):
        raise AssertionError("periodic makes no evaluate_many call")

    real = potential._lockstep_sequences
    monkeypatch.setattr(potential, "eigendata_many", counted)
    monkeypatch.setattr(potential, "_lockstep_sequences", scanned)
    monkeypatch.setattr(potential, "evaluate_many", refuse)
    assert cli.main(["periodic", str(path), "--max-period", "5"]) == 1
    assert calls == [len(periodic_batch(gf.example_system("nongibbs6"), 5))]
    assert len(scans) == 1 and scans[0] >= 5


def test_single_point_does_not_use_the_batch(adhoc5, adhoc5_constants, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("single points go through _point_row")

    monkeypatch.setattr(potential, "_gathered_product", refuse)
    ev = evaluate(adhoc5, PointSpec(adhoc5, (), (0, 1)), constants=adhoc5_constants)
    assert ev.mode == "certified"


def test_single_scan_route_point_takes_the_one_point_batch(nongibbs6, monkeypatch):
    # a scan-route point alone is a forward pass of one point and its
    # shift, whose sequence is _psi_sequence's bit for bit
    fs = nongibbs6
    points = periodic_batch(fs, 7) + [PointSpec(fs, (1,), (0,)), PointSpec(fs, (0,), (1,))]
    plans = _routes(fs, points, TARGET, None)
    scan = [(p, plan.terms_used) for p, plan in zip(points, plans) if plan.mode == "scan"]
    assert len(scan) == 63 and {p for p, _ in scan} >= set(points[-2:])
    expected = []
    for p, n in scan:
        assert_lockstep_equals_psi_sequence(fs, [p], [n])
        expected.append(potential._scan_result(p, _psi_sequence(fs, p, n)[None], n)[0])
    calls = []

    def counted(fs, batch, lengths, tails):
        calls.append((batch, lengths, tails))
        return real(fs, batch, lengths, tails)

    def refuse(*args, **kwargs):
        raise AssertionError("a single point takes the forward batch")

    real = potential._lockstep_sequences
    monkeypatch.setattr(potential, "_lockstep_sequences", counted)
    monkeypatch.setattr(potential, "_psi_sequence", refuse)
    for (p, n), want in zip(scan, expected):
        calls.clear()
        assert evaluate(fs, p) == want
        assert calls == [([p], [n], [potential._scan_tail(len(p.preperiod), len(p.period), n)])]


@pytest.mark.parametrize("name", ["nongibbs6", "converse_false"])
def test_no_scan_plan_leaves_the_batch(name):
    # "scan" marks a plan inside evaluate_many only
    fs = gf.example_system(name)
    points = [p for p in sweep_points(fs, 4) if _refusal(fs, p) is None]
    evs = evaluate_many(fs, points, TARGET)
    assert "scan" in {plan.mode for plan in _routes(fs, points, TARGET, None)}
    assert "scan" not in {ev.mode for ev in evs}
    results = gf.periodic_many(fs, periodic_batch(fs, 6))
    fallback = [r[0] for r in results if not isinstance(r, gf.EvaluationRefused) and r[1] is None]
    assert fallback and "scan" not in {ev.mode for ev in fallback}


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
            assert p.shifted(j) == PointSpec(fs, pre, per)


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
    plans = _routes(fs, points, TARGET, c)
    for p, plan in zip(points, plans):
        n = _certified_depth(c, len(p.preperiod), TARGET)
        assert plan == gf.PotentialEvaluation(None, c.eq_radius_constant * c.theta**n, n, "certified", True)
    evs = evaluate_many(fs, points, TARGET, c)
    assert evs == [evaluate(fs, p, TARGET, c) for p in points]
    for ev, plan in zip(evs, plans):
        assert (ev.mode, ev.certified, ev.notes) == ("certified", True, ())
        assert (ev.terms_used, ev.error_radius) == (plan.terms_used, plan.error_radius)


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


def h2_failing_model(seed):
    """First seeded draw like test_potential.sparse_model (3 to 6 source
    symbols onto 2 or 3, about 40 % of the transitions forbidden, seed key
    77) that loads, passes H1 and fails H2: tails without a primitive phase
    window, so scan-route points (no sparse_model draw has one up to period
    7)."""
    rng = np.random.default_rng([seed, 77])
    while True:
        n, nb = int(rng.integers(3, 7)), int(rng.integers(2, 4))
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
        if fs.h1.passed and not fs.h2.passed:
            return fs


def test_scan_tail_is_what_the_verdict_reads():
    # the largest multiple m = q k (k <= 6) with 10 m <= n - t0 decides how
    # far back the verdict reads, 5 m values; with none, the last value
    assert [_scan_tail(0, 1, n) for n in (9, 10, 19, 20, 59, 60, 150)] == [1, 5, 5, 10, 25, 30, 30]
    assert [_scan_tail(t0, 7, 150) for t0 in (0, 9, 10, 79, 80, 200)] == [70, 70, 70, 35, 35, 1]
    assert _scan_tail(5, 30, 155) == 1 and _scan_tail(5, 15, 155) == 75


def test_forward_lockstep_tails_equal_the_psi_sequence_tails(nongibbs6, monkeypatch):
    # one pass cut at lengths 150, 180 and 210, with tails from 1 to the
    # whole sequence: the fixed point (0)*, which is its own shift, read as
    # a point at two lengths; 1(0)*, whose shift (0)* is in the batch; and
    # two points of each period 1 to 7.  A row is stepped while some value
    # read at it lies ahead, as a point up to its length n and as a shift
    # up to n - 1: each run's marginal dots cover just those rows
    fs = nongibbs6
    by_period: dict = {}
    for p in periodic_batch(fs, 7):
        by_period.setdefault(len(p.period), []).append(p)
    points = [PointSpec(fs, (), (0,)), PointSpec(fs, (1,), (0,))]
    points += [p for q in sorted(by_period) for p in by_period[q][:2]] + points[:1]
    assert len({len(p.period) for p in points}) == 7 and points[1].shifted() == points[0]
    rng = np.random.default_rng(47)
    calls = []

    def counted(a, b):
        calls.append(len(a))
        return real(a, b)

    real = potential._dots
    monkeypatch.setattr(potential, "_dots", counted)
    for draw in range(4):
        lengths = [int(n) for n in rng.choice([150, 180, 210], size=len(points))]
        tails = [[1, n, n - 1, int(rng.integers(1, n + 1))][(draw + i) % 4] for i, n in enumerate(lengths)]
        calls.clear()
        sequences = _lockstep_sequences(fs, points, lengths, tails)
        for p, n, t, seq in zip(points, lengths, tails, sequences):
            assert seq.tobytes() == _psi_sequence(fs, p, n)[-t:].tobytes()
        last: dict = {}
        for p, n in zip(points, lengths):
            last[p] = max(last.get(p, 0), n)
            last[p.shifted()] = max(last.get(p.shifted(), 0), n - 1)
        runs = range(1, max(lengths) + 1, 16)
        assert calls[1:] == [min(16, max(lengths) + 1 - k) * sum(end >= k for end in last.values()) for k in runs]


def test_forward_pass_logs_each_distinct_value_read_once(nongibbs6, monkeypatch):
    # the 61 scanned periodic points up to period 7, with their shifts: 61
    # rows, 211 levels.  Reading only the tails takes 16,666 of the 2 x 211 x
    # 61 = 25,742 sums and dots, and math.log runs once per distinct value
    fs = nongibbs6
    batch = periodic_batch(fs, 7)
    scan = [(p, plan.terms_used) for p, plan in zip(batch, _routes(fs, batch, TARGET, None)) if plan.mode == "scan"]
    points, lengths = [p for p, _ in scan], [n for _, n in scan]
    tails = [_scan_tail(0, len(p.period), n) for p, n in scan]
    read, logged = [], []

    def unique(a, **kwargs):
        read.append(a.copy())
        return real_unique(a, **kwargs)

    def log(x):
        logged.append(x)
        return math.log(x)

    real_unique = np.unique
    monkeypatch.setattr(potential.np, "unique", unique)
    monkeypatch.setattr(potential, "math", type("math", (), {"log": staticmethod(log)}))
    sequences = _lockstep_sequences(fs, points, lengths, tails)
    monkeypatch.undo()
    assert len(points) == 61 and max(lengths) == 210
    assert len(read) == 1 and len(read[0]) == 16_666
    assert sorted(logged) == sorted(set(read[0].tolist())) and len(logged) < len(read[0]) // 4
    for p, n, t, seq in zip(points, lengths, tails, sequences):
        assert seq.tobytes() == _psi_sequence(fs, p, n)[-t:].tobytes()


SCAN_SYSTEMS = {
    "nongibbs6": lambda: [gf.example_system("nongibbs6")],
    "converse_false": lambda: [gf.example_system("converse_false")],
    "h2_failing": lambda: [h2_failing_model(seed) for seed in range(12)],
}


@pytest.mark.parametrize("name", sorted(SCAN_SYSTEMS))
def test_scan_evaluations_equal_the_verdict_of_the_whole_sequence(name):
    # every scan-route point of period <= 7, and on nongibbs6 points with
    # preperiods too: evaluate_many, which scans the last _scan_tail values
    # and decides each (preperiod length, period, length) group at once,
    # gives the evaluation of the whole _psi_sequence; values the tail
    # leaves out do not count, so they may as well be nan
    rng = np.random.default_rng(48)
    counts, modes = [], set()
    for fs in SCAN_SYSTEMS[name]():
        points = periodic_batch(fs, 7)
        if name == "nongibbs6":
            points += [random_point(fs, rng, int(rng.integers(1, 6)), per_max=7) for _ in range(60)]
        points = [p for p in points if _refusal(fs, p) is None]
        plans = _routes(fs, points, TARGET, None)
        scan = [(i, plan.terms_used) for i, plan in enumerate(plans) if plan.mode == "scan"]
        evs = evaluate_many(fs, points, TARGET)
        for i, n in scan:
            p = points[i]
            values = _psi_sequence(fs, p, n)
            assert evs[i] == _scan_result(p, values[None], n)[0]
            poisoned = values.copy()
            poisoned[: n - _scan_tail(len(p.preperiod), len(p.period), n)] = np.nan
            assert _scan_result(p, poisoned[None], n)[0] == evs[i]
            modes.add(evs[i].notes[0] if evs[i].mode == "adaptive" else evs[i].mode)
        counts.append(len(scan))
    if name == "nongibbs6":
        assert counts[0] > 61 and modes == {
            "diverged",
            "no strictly positive tail window; observed convergence is uncertified",
        }
    elif name == "converse_false":
        assert counts == [2]
    else:
        assert counts == [2, 2, 60, 0, 0, 2, 1, 1, 1, 0, 19, 34] and len(modes) == 3
