"""The batched eigendata route eigendata_many and the stacked Perron
iteration against the one-point route they replaced, kept below as the
reference oracle; the zero-pattern primitivity memo; the cylinder-mass pass
log_nu_cylinders against log_nu_cylinder."""

from __future__ import annotations

import math

import numpy as np
import pytest

import gibbsfactor as gf
from gibbsfactor import cli, potential
from gibbsfactor.errors import ModelError
from gibbsfactor.models import expand_example
from gibbsfactor.potential import (
    FLOAT_NOISE_FLOOR,
    PerronData,
    PointSpec,
    PotentialEvaluation,
    _check_point_rows,
    _perron_stack,
    eigendata_many,
    evaluate_many,
    periodic_potential,
    perron_data,
)
from gibbsfactor.projection import log_nu_cylinder, log_nu_cylinders
from gibbsfactor.projective import (
    SimplexPoint,
    apply_normalized,
    contraction_coefficient,
    projective_distance,
)
from gibbsfactor.tmc import pattern_primitivity

from test_golden_cli import wide12_document
from test_potential import random_certified_system

# ------------------------------------------------------------------ oracle
# The one-point perron_data and eigendata_potential as they were before the
# eigendata route was batched, copied verbatim apart from their names and
# the d_hat alias of right, which PerronData no longer has.


def oracle_power_vector(matrix, tol, max_iter):
    n = matrix.shape[0]
    v = np.full(n, 1.0 / n)
    rho = 1.0
    for k in range(1, max_iter + 1):
        w = matrix @ v
        rho = w.sum()
        if rho <= 0:
            raise ModelError("power iteration collapsed; matrix is not primitive")
        w = w / rho
        if np.abs(w - v).sum() <= tol:
            return w, rho, k
        v = w
    return v, rho, max_iter


def oracle_perron_data(matrix, tol=1e-13, max_iter=100000):
    t = np.asarray(matrix, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ModelError("Perron data needs a square matrix")
    if (t < 0).any():
        raise ModelError("Perron data needs a nonnegative matrix")
    if not pattern_primitivity(t).primitive:
        raise ModelError("Perron data needs a primitive matrix")
    right, rho_r, it_r = oracle_power_vector(t, tol, max_iter)
    left, rho_l, it_l = oracle_power_vector(t.T, tol, max_iter)
    rho = rho_r
    left = left / (left @ right)
    res_r = np.abs(t @ right - rho * right).sum() / (rho * right.sum())
    res_l = np.abs(left @ t - rho * left).sum() / (rho * np.abs(left).sum())
    deflated = t - rho * np.outer(right, left)
    u = np.zeros(t.shape[0])
    u[0] = 1.0
    u = u - right * (left @ u)
    second = 0.0
    norm = np.abs(u).sum()
    if norm > 1e-14:
        u /= norm
        for _ in range(60):
            w = deflated @ u
            growth = np.abs(w).sum()
            if growth < 1e-250:
                second = 0.0
                break
            second = growth
            u = w / growth
    return PerronData(
        rho=rho,
        right=right,
        left=left,
        second_modulus=second,
        residual=float(max(res_r, res_l)),
        iterations=max(it_r, it_l),
    )


def oracle_eigendata_potential(fs, point):
    if point.preperiod:
        raise gf.AdmissibilityError("the eigendata route needs a purely periodic point")
    _check_point_rows(fs, point)
    p = len(point.period)
    t = fs.word_product(point.period + (point.period[0],))
    prim = pattern_primitivity(t)
    if not prim.primitive:
        return None
    pd = oracle_perron_data(t)
    ratios = (t @ pd.right) / pd.right
    inclusion = math.log(ratios.max() / ratios.min())
    if p == 1:
        tail = 1.0
        vector_term = 0.0
    else:
        rest = fs.word_product(point.period[1:] + (point.period[0],))
        tail = float((rest @ pd.right).sum())
        power = np.linalg.matrix_power(t, prim.exponent)
        tau_m = contraction_coefficient(power).tau
        x = SimplexPoint(pd.right, fiber=point.symbol_at(0))
        gap = projective_distance(
            apply_normalized(power, x, out_fiber=point.symbol_at(0)), x
        )
        vector_term = gap / (1.0 - tau_m)
    value = math.log(pd.rho) - math.log(tail)
    radius = inclusion + vector_term + FLOAT_NOISE_FLOOR
    return (
        PotentialEvaluation(
            value=value,
            error_radius=radius,
            terms_used=pd.iterations,
            mode="certified",
            certified=True,
            notes=("dominant eigendata at a periodic point",),
        ),
        pd,
    )


def oracle_slot(fs, point):
    try:
        return oracle_eigendata_potential(fs, point)
    except gf.EvaluationRefused as exc:
        return exc


# ------------------------------------------------------------- comparisons


def assert_same_perron(got, want):
    # repr of the scalars compares their bits and their types (np.float64
    # against float), array_equal the vectors
    for name in ("rho", "second_modulus", "residual", "iterations"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    for name in ("right", "left"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def assert_same_slot(got, want):
    if want is None:
        assert got is None
    elif isinstance(want, gf.EvaluationRefused):
        assert isinstance(got, gf.EvaluationRefused)
        assert (str(got), got.window) == (str(want), want.window)
    else:
        assert repr(got[0]) == repr(want[0])
        assert_same_perron(got[1], want[1])


def periodic_points(fs, max_period):
    return [PointSpec(fs, (), pp.symbols) for pp in gf.enumerate_periodic(fs.factor_tmc, max_period)]


SYSTEMS = {
    "adhoc5": (lambda: gf.example_system("adhoc5"), 7),
    "fullshift4": (lambda: gf.example_system("fullshift4"), 7),
    "nongibbs6": (lambda: gf.example_system("nongibbs6"), 7),
    "converse_false": (lambda: gf.example_system("converse_false"), 7),
    "nongibbs6-0.26": (lambda: gf.parse_model(expand_example("nongibbs6", gamma=0.26)), 7),
    "nongibbs6-0.30": (lambda: gf.parse_model(expand_example("nongibbs6", gamma=0.30)), 7),
    "wide12": (lambda: gf.parse_model(wide12_document()), 3),
    # seeded random models with unequal fibers; three-symbol targets to period 5
    "rand13": (lambda: random_certified_system(1, (1, 3))[0], 7),
    "rand123": (lambda: random_certified_system(4, (1, 2, 3))[0], 5),
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_batch_equals_per_point_oracle(name):
    build, max_period = SYSTEMS[name]
    fs = build()
    points = periodic_points(fs, max_period)
    got = eigendata_many(fs, points)
    want = [oracle_slot(fs, p) for p in points]
    assert len(got) == len(want) == len(points)
    for g, w in zip(got, want):
        assert_same_slot(g, w)
    if name != "converse_false":
        assert any(isinstance(w, tuple) for w in want)


def test_batch_holds_every_kind_of_slot():
    kinds = set()
    for name in ("adhoc5", "nongibbs6", "converse_false"):
        fs = SYSTEMS[name][0]()
        kinds |= {type(slot).__name__ for slot in eigendata_many(fs, periodic_points(fs, 4))}
    assert kinds == {"tuple", "NoneType", "EvaluationRefused"}


def test_batch_in_any_order_and_with_repeats(adhoc5):
    points = periodic_points(adhoc5, 6)
    rng = np.random.default_rng(31)
    shuffled = [points[i] for i in rng.permutation(len(points))] + points[:4]
    for g, p in zip(eigendata_many(adhoc5, shuffled), shuffled):
        assert_same_slot(g, oracle_slot(adhoc5, p))
    assert eigendata_many(adhoc5, []) == []


def test_single_point_route(adhoc5, converse_false):
    for p in periodic_points(adhoc5, 4):
        assert_same_slot(eigendata_many(adhoc5, [p])[0], oracle_slot(adhoc5, p))
    with pytest.raises(gf.AdmissibilityError):
        periodic_potential(adhoc5, PointSpec(adhoc5, (2,), (1, 0)))
    with pytest.raises(gf.AdmissibilityError):
        eigendata_many(adhoc5, [PointSpec(adhoc5, (), (0, 1)), PointSpec(adhoc5, (2,), (1, 0))])
    refused = [p for p in periodic_points(converse_false, 4)
               if isinstance(oracle_slot(converse_false, p), gf.EvaluationRefused)]
    assert refused
    with pytest.raises(gf.EvaluationRefused) as info:
        periodic_potential(converse_false, refused[0])
    want = oracle_slot(converse_false, refused[0])
    assert (str(info.value), info.value.window) == (str(want), want.window)


# ------------------------------------------------------ the Perron iteration


def test_perron_data_equals_oracle_on_random_matrices():
    rng = np.random.default_rng(32)
    for k in list(range(1, 9)) + [40]:
        for _ in range(5):
            t = np.exp(rng.uniform(-4.0, 2.0, size=(k, k)))
            t[rng.uniform(size=(k, k)) < 0.2] = 0.0
            if not pattern_primitivity(t).primitive:
                continue
            assert_same_perron(perron_data(t), oracle_perron_data(t))


def test_stack_rows_converge_on_their_own():
    # one stack whose matrices converge after very different step counts
    # (spectral gaps near 1 and near 0) and some that never converge
    rng = np.random.default_rng(33)
    mats = []
    for eps in (1e-3, 0.5, 1e-2, 2.0, 3e-4):
        mats.append(np.array([[1.0, eps], [eps, 1.0 + eps]]) * rng.uniform(0.5, 2.0))
    ts = np.stack(mats)
    for max_iter in (3, 40, 100000):
        got = _perron_stack(ts, 1e-13, max_iter)
        want = [oracle_perron_data(t, max_iter=max_iter) for t in mats]
        for g, w in zip(got, want):
            assert_same_perron(g, w)
    counts = [pd.iterations for pd in _perron_stack(ts, 1e-13, 100000)]
    assert len(set(counts)) == len(counts)


def test_unconverged_iteration_keeps_its_last_iterate():
    t = np.array([[1.0, 1e-3], [2e-3, 1.0]])
    assert oracle_perron_data(t).iterations > 3
    pd = perron_data(t, max_iter=3)
    assert pd.iterations == 3
    assert_same_perron(pd, oracle_perron_data(t, max_iter=3))


def test_deflation_exits_early_on_rank_one():
    t = np.outer([1.0, 2.0, 0.5], [0.3, 1.0, 2.0])
    pd = perron_data(t)
    assert pd.second_modulus == 0.0 and type(pd.second_modulus) is float
    assert_same_perron(pd, oracle_perron_data(t))
    # beside a matrix that runs all 60 deflated steps
    full = np.array([[2.0, 1.0, 0.5], [1.0, 1.0, 0.2], [0.3, 0.4, 1.5]])
    got = _perron_stack(np.stack([t, full, t]), 1e-13, 100000)
    assert [g.second_modulus > 0 for g in got] == [False, True, False]
    for g, m in zip(got, (t, full, t)):
        assert_same_perron(g, oracle_perron_data(m))


def deflated_vanishing_step(t, max_iter):
    """The step of the oracle's 60-step deflated iteration at which the image
    of t vanishes, or None when it never does."""
    pd = oracle_perron_data(t, max_iter=max_iter)
    deflated = t - pd.rho * np.outer(pd.right, pd.left)
    u = np.zeros(t.shape[0])
    u[0] = 1.0
    u = u - pd.right * (pd.left @ u)
    u /= np.abs(u).sum()
    for step in range(1, 61):
        w = deflated @ u
        growth = np.abs(w).sum()
        if growth < 1e-250:
            return step
        u = w / growth
    return None


def test_stack_mixes_vanishing_live_and_unconverged_matrices():
    # two deflated images vanish part-way through the loop, at different
    # steps, between matrices that run all 60 deflated steps; one matrix
    # (spectral ratio about 0.9986) runs out of max_iter
    max_iter = 200
    vanishing = [np.array([[1.0, 1.0, 0.0], [3.0, 1.0, 1.0], [2.0, 0.0, 1.0]]),
                 np.array([[3.0, 3.0, 3.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])]
    stalled = np.array([[1.0, 1e-3, 0.0], [1e-3, 1.0, 1e-3], [0.0, 1e-3, 1.0]])
    rng = np.random.default_rng(34)
    live = [rng.uniform(0.5, 2.0, size=(3, 3)) for _ in range(3)]
    mats = [live[0], vanishing[0], live[1], stalled, vanishing[1], live[2]]
    steps = [deflated_vanishing_step(t, max_iter) for t in mats]
    assert steps[0] is steps[2] is steps[3] is steps[5] is None
    assert 1 < steps[4] < steps[1] < 60
    got = _perron_stack(np.stack(mats), 1e-13, max_iter)
    for g, m in zip(got, mats):
        assert_same_perron(g, oracle_perron_data(m, max_iter=max_iter))
    assert [g.iterations == max_iter for g in got] == [False, False, False, True, False, False]
    assert [g.second_modulus == 0.0 for g in got] == [False, True, False, False, True, False]


# ------------------------------------------------------------ the CLI and memo


def test_periodic_makes_one_eigendata_call(tmp_path, monkeypatch, capsys):
    path = tmp_path / "ng6.json"
    gf.models.dump_document(expand_example("nongibbs6"), str(path))
    calls = []

    def counted(fs, points):
        calls.append(len(points))
        return eigendata_many(fs, points)

    monkeypatch.setattr(potential, "eigendata_many", counted)
    assert cli.main(["periodic", str(path), "--max-period", "5"]) == 1
    assert calls == [len(gf.enumerate_periodic(gf.example_system("nongibbs6").factor_tmc, 5))]
    assert "eigendata certified" in capsys.readouterr().out


def counting_primitivity(monkeypatch):
    """Patch pattern_primitivity in potential to record every zero pattern
    it is asked about."""
    seen = []

    def counted(mat):
        pattern = np.asarray(mat) != 0
        seen.append((pattern.shape, pattern.tobytes()))
        return pattern_primitivity(mat)

    monkeypatch.setattr(potential, "pattern_primitivity", counted)
    return seen


def test_each_zero_pattern_is_tested_once_per_batch(monkeypatch):
    fs = gf.example_system("nongibbs6")
    points = periodic_points(fs, 6)
    seen = counting_primitivity(monkeypatch)
    eigendata_many(fs, points)
    assert seen and len(seen) == len(set(seen))
    seen.clear()
    evaluate_many(fs, points + [p.shifted(fs, 0) for p in points], 1e-10)
    assert seen and len(seen) == len(set(seen))


def test_single_evaluate_uses_a_fresh_memo(monkeypatch):
    fs = gf.example_system("nongibbs6")
    point = PointSpec(fs, (), (0, 1))
    seen = counting_primitivity(monkeypatch)
    first = gf.evaluate(fs, point)
    calls = len(seen)
    assert calls >= 1
    assert gf.evaluate(fs, point) == first
    assert len(seen) == 2 * calls


# ------------------------------------------------------------ cylinder masses


def no_preimage_system():
    """The chain of test_projection's missing-word tests: some factor words
    have no preimage."""
    alph = gf.Alphabet(["a", "b", "c"])
    inc = np.array([[1, 1, 0], [1, 0, 1], [1, 0, 0]], dtype=int)
    trans = np.where(inc, inc / inc.sum(axis=1, keepdims=True), 0.0)
    model = gf.MarkovModel(gf.Tmc(alph, inc), trans)
    proj = gf.Projection.from_labels(alph, {"a": "0", "b": "1", "c": "1"})
    return gf.build_factor_system(model, proj)


@pytest.mark.parametrize("name", ["adhoc5", "fullshift4", "nongibbs6", "converse_false", "missing"])
def test_cylinder_masses_equal_log_nu_cylinder(name):
    fs = no_preimage_system() if name == "missing" else gf.example_system(name)
    masses = log_nu_cylinders(fs, 7)
    words = [w.symbols for n in range(1, 8) for w in gf.enumerate_words(fs.factor_tmc, n)]
    assert sorted(masses) == sorted(words)
    for w in words:
        assert repr(masses[w]) == repr(log_nu_cylinder(fs, w)), w
    if name == "missing":
        assert any(masses[w] == -math.inf for w in words)
