"""The batched eigendata route eigendata_many against its orbit route
written out one matrix at a time, and against the one-point route it
replaced, kept below as the reference oracle of the stacked Perron iteration
and of each orbit's base; the zero-pattern primitivity memo; the
cylinder-mass pass log_nu_cylinders against log_nu_cylinder."""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gibbsfactor as gf
from gibbsfactor import cli, potential, projection
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

from test_cli import log_uniform_fullshift4
from test_golden_cli import wide12_document
from test_potential import random_certified_system, sparse_model

# ------------------------------------------------------------------ oracle
# The one-point perron_data and eigendata_potential as they were before the
# eigendata route was batched, copied verbatim apart from their names, the
# d_hat alias of right, which PerronData no longer has, and three changes of
# the route since: the value is that of oracle_backward's pass around the
# cycle, T^exponent is the word product over exponent periods, and
# |lambda_2| comes from eigenvalues, here those of the transpose.


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
    # the left iteration on a C-ordered copy of the transpose, as the stacked
    # iteration runs it: on the transposed view BLAS sums in another order
    left, rho_l, it_l = oracle_power_vector(t.T.copy(), tol, max_iter)
    rho = rho_r
    left = left / (left @ right)
    res_r = np.abs(t @ right - rho * right).sum() / (rho * right.sum())
    res_l = np.abs(left @ t - rho * left).sum() / (rho * np.abs(left).sum())
    # |lambda_2| by a path of its own: the eigenvalues of the transpose
    moduli = sorted(abs(np.linalg.eigvals(t.T)))
    second = float(moduli[-2]) if len(moduli) > 1 else 0.0
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
        vector_term = 0.0
    else:
        power = fs.word_product(point.period * prim.exponent + point.period[:1])
        tau_m = contraction_coefficient(power).tau
        x = SimplexPoint(pd.right, fiber=point.symbol_at(0))
        gap = projective_distance(
            apply_normalized(power, x, out_fiber=point.symbol_at(0)), x
        )
        vector_term = gap / (1.0 - tau_m)
    value = oracle_backward(fs, point.period, pd.right)[1][0]
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
    except ZeroDivisionError:
        # a power of contraction 1, which the oracle predates
        exponent = pattern_primitivity(fs.word_product(point.period + point.period[:1])).exponent
        message = f"power {exponent} of the one-period product has contraction 1 in double precision"
        return gf.EvaluationRefused(message + ", so it bounds no radius")


# The orbit route, one matrix at a time: the base is the first rotation,
# counting from the least, whose per-point slot above is certified; every
# rotation carries its vectors around the cycle.


def oracle_backward(fs, word, right):
    """The pass around the cycle word backward from the right vector of its
    first rotation, on vectors and blocks zero-padded to the widest fiber:
    the blocks, the right vectors of the other rotations and the logs of the
    scales of every rotation's push."""
    padded = fs.padded_stack[0]
    p = len(word)
    blocks = [padded[word[m], word[(m + 1) % p]] for m in range(p)]
    rights, logs = {0: np.zeros(padded.shape[-1])}, {}
    rights[0][: len(right)] = right
    for m in range(p - 1, -1, -1):
        v = blocks[m] @ rights[(m + 1) % p]
        logs[m] = math.log(v.sum())
        if m:
            rights[m] = v / v.sum()
    return blocks, logs, rights


def oracle_orbit_slot(fs, point):
    slot = oracle_slot(fs, point)
    if isinstance(slot, gf.EvaluationRefused) and "power" not in str(slot):
        return slot  # a zero fiber row, which every rotation shares
    period = point.period
    p = len(period)
    rotations = [period[k:] + period[:k] for k in range(p)]
    least = min(rotations)
    words = [least[k:] + least[:k] for k in range(p)]
    slots = [oracle_slot(fs, PointSpec(fs, (), word)) for word in words]
    b = next((b for b, s in enumerate(slots) if isinstance(s, tuple)), None)
    if b is None:
        # no base: the orbit is refused for its first power of contraction
        # 1, or left to the fallback when no rotation is primitive
        return next((s for s in slots if s is not None), None)
    j = (words.index(period) - b) % p
    evaluation, pd = slots[b]
    word = words[b]
    blocks, logs, rights = oracle_backward(fs, word, pd.right)
    padded, _, ones = fs.padded_stack
    left = np.zeros(padded.shape[-1])
    left[: len(pd.left)] = pd.left
    for m in range(1, j + 1):
        u = left @ blocks[m - 1]
        left = u / (u @ rights[m])
    n = int(ones[word[j]].sum())
    return (evaluation._replace(value=logs[j]), pd._replace(right=rights[j][:n], left=left[:n]))


# ------------------------------------------------------------- comparisons


def assert_same_perron(got, want):
    # repr of the scalars compares their bits and their types (np.float64
    # against float), array_equal the vectors; |lambda_2|, which the oracle
    # takes from eigenvalues of its own, agrees within 1e-12 rho
    for name in ("rho", "residual", "iterations"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    assert type(got.second_modulus) is float
    assert abs(got.second_modulus - want.second_modulus) <= 1e-12 * want.rho
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


def assert_overlapping_slot(got, want):
    """got, a slot of the orbit route, against want, the per-point route's
    slot at the same point: the same refusals for a zero fiber row, and
    intervals that overlap.  A point whose own product is not primitive, or
    whose own power has contraction 1, takes its orbit's slot: certified
    through a base, refused with the orbit, or left to the fallback."""
    if want is None or (isinstance(want, gf.EvaluationRefused) and "power" in str(want)):
        assert got is None or isinstance(got, tuple) or "power" in str(got)
        return
    if not isinstance(want, tuple):
        assert_same_slot(got, want)
        return
    (ev, pd), (want_ev, want_pd) = got, want
    assert abs(ev.value - want_ev.value) <= ev.error_radius + want_ev.error_radius
    assert abs(math.log(pd.rho) - math.log(want_pd.rho)) <= ev.error_radius + want_ev.error_radius


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_batch_equals_per_point_oracle(name):
    # the per-point route as a cross-check: every slot overlaps it, and the
    # base of every orbit (its first certified rotation from the least)
    # equals it bit for bit
    build, max_period = SYSTEMS[name]
    fs = build()
    points = periodic_points(fs, max_period)
    got = eigendata_many(fs, points)
    want = [oracle_slot(fs, p) for p in points]
    assert len(got) == len(want) == len(points)
    for g, w in zip(got, want):
        assert_overlapping_slot(g, w)
    slots = dict(zip(points, zip(got, want)))
    bases = 0
    for p in points:
        if p.period == min(p.period[k:] + p.period[:k] for k in range(len(p.period))):
            rotations = [PointSpec(fs, (), p.period[k:] + p.period[:k]) for k in range(len(p.period))]
            base = next((r for r in rotations if isinstance(slots[r][1], tuple)), None)
            if base is not None:
                assert_same_slot(*slots[base])
                bases += 1
    if name != "converse_false":
        assert bases and any(isinstance(w, tuple) for w in want)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_batch_equals_orbit_oracle(name):
    build, max_period = SYSTEMS[name]
    fs = build()
    points = periodic_points(fs, max_period)
    got = eigendata_many(fs, points)
    assert len(got) == len(points)
    for g, p in zip(got, points):
        assert_same_slot(g, oracle_orbit_slot(fs, p))
    # every rotation one at a time: a lone rotation forms its orbit's base
    for p in points:
        assert_same_slot(eigendata_many(fs, [p])[0], oracle_orbit_slot(fs, p))


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
        assert_same_slot(g, oracle_orbit_slot(adhoc5, p))
    assert eigendata_many(adhoc5, []) == []


def test_single_point_route(adhoc5, converse_false):
    for p in periodic_points(adhoc5, 4):
        assert_same_slot(eigendata_many(adhoc5, [p])[0], oracle_orbit_slot(adhoc5, p))
    with pytest.raises(gf.AdmissibilityError):
        periodic_potential(adhoc5, PointSpec(adhoc5, (2,), (1, 0)))
    # eigendata_many itself takes preperiods: c(ba)* is carried from (ba)*
    slots = eigendata_many(adhoc5, [PointSpec(adhoc5, (), (0, 1)), PointSpec(adhoc5, (2,), (1, 0))])
    assert [type(slot) for slot in slots] == [tuple, tuple]
    refused = [p for p in periodic_points(converse_false, 4)
               if isinstance(oracle_slot(converse_false, p), gf.EvaluationRefused)]
    assert refused
    with pytest.raises(gf.EvaluationRefused) as info:
        periodic_potential(converse_false, refused[0])
    want = oracle_slot(converse_false, refused[0])
    assert (str(info.value), info.value.window) == (str(want), want.window)


def test_base_passes_over_a_rotation_of_contraction_1(tmp_path, monkeypatch):
    # rows log-uniform over [1e-60, 1], draw 66: the product of (01) has a
    # Birkhoff coefficient that rounds to 1, so a second stacked pass takes
    # (10) as the base, and (01), refused on its own, is carried from it
    fs = gf.load_model(log_uniform_fullshift4(tmp_path, 66, low=1e-60))
    points = [PointSpec(fs, (), (0, 1)), PointSpec(fs, (), (1, 0))]
    own = [oracle_slot(fs, p) for p in points]
    assert isinstance(own[0], gf.EvaluationRefused) and isinstance(own[1], tuple)
    sizes = []

    def counted_stack(ts, *args):
        sizes.append(len(ts))
        return _perron_stack(ts, *args)

    monkeypatch.setattr(potential, "_perron_stack", counted_stack)
    for batch in (points, points[:1], points[1:]):
        sizes.clear()
        for g, p in zip(eigendata_many(fs, batch), batch):
            assert_same_slot(g, oracle_orbit_slot(fs, p))
        assert sizes == [1, 1]
    got = eigendata_many(fs, points)
    assert_same_slot(got[1], own[1])
    assert got[0][0].error_radius == own[1][0].error_radius


def test_imprimitive_rotations_are_carried_from_their_base(adhoc5):
    # (bac), (babac) and (bababac) have a zero column in their one-period
    # products, so none is a base; each takes its slot from the pass around
    # its cycle, and its interval overlaps the backward route's
    imprimitive = [PointSpec(adhoc5, (), per) for per in ((1, 0, 2), (1, 0, 1, 0, 2), (1, 0, 1, 0, 1, 0, 2))]
    for p in imprimitive:
        assert not pattern_primitivity(adhoc5.word_product(p.period + p.period[:1])).primitive
    points = periodic_points(adhoc5, 7)
    assert set(imprimitive) <= set(points)
    slots = dict(zip(points, eigendata_many(adhoc5, points)))
    for p, other in zip(imprimitive, evaluate_many(adhoc5, imprimitive, 1e-12)):
        ev, pd = slots[p]
        assert ev.mode == "certified" and pd is not None
        assert abs(ev.value - other.value) <= ev.error_radius + other.error_radius
        # alone in its batch, the base it is carried from is outside the batch
        assert_same_slot(eigendata_many(adhoc5, [p])[0], slots[p])


def test_the_base_search_forms_the_products_it_reaches(monkeypatch):
    # nongibbs6 to period 7: 232 points in 41 orbits.  Each orbit's search
    # reads its rotations' one-period products from the least up to its base
    # (or all of them when none is primitive), and its base's power, 89
    # words in all, where testing every rotation's own product read 232.
    # The table forms 87 of them, each once: the other two are fiber blocks
    # or prefixes of words formed before them
    fs = gf.example_system("nongibbs6")
    points = periodic_points(fs, 7)
    words, read = [], []
    real, exponent, taus = gf.FactorSystem.word_product, gf.FactorSystem.word_exponent, gf.FactorSystem.word_taus

    def counted(self, symbols):
        words.append(tuple(symbols))
        return real(self, symbols)

    def read_exponent(self, word):
        read.append(word)
        return exponent(self, word)

    def read_taus(self, batch):
        read.extend(batch)
        return taus(self, batch)

    monkeypatch.setattr(gf.FactorSystem, "word_product", counted)
    monkeypatch.setattr(gf.FactorSystem, "word_exponent", read_exponent)
    monkeypatch.setattr(gf.FactorSystem, "word_taus", read_taus)
    slots = eigendata_many(fs, points)
    orbits = {min(p.period[k:] + p.period[:k] for k in range(len(p.period))) for p in points}
    assert (len(points), len(orbits)) == (232, 41)
    assert len(set(read)) == 89 and all(word[0] == word[-1] for word in read)
    assert len(words) == len(set(words)) == 87 and set(words) <= set(read)
    kept = set(fs.fiber_weight) | {w[:j] for w in words for j in range(3, len(w))}
    assert set(read) - set(words) <= kept
    # the 61 points of the orbits with no primitive rotation are left to
    # the fallback, the other 171 certified
    assert [type(slot).__name__ for slot in slots].count("NoneType") == 61
    assert sum(isinstance(slot, tuple) for slot in slots) == 171


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


@pytest.mark.parametrize(
    "kwargs, named",
    [({"max_iter": 0}, "max_iter >= 1, not 0"), ({"max_iter": -5}, "max_iter >= 1, not -5"),
     ({"tol": math.nan}, "tol >= 0, not nan"), ({"tol": -1.0}, "tol >= 0, not -1.0"),
     ({"tol": math.inf}, "tol >= 0, not inf"), ({"max_iter": 1.5}, "integer max_iter >= 1, not 1.5")],
)
def test_perron_data_refuses_a_bad_max_iter_or_tol(kwargs, named):
    # max_iter 0 used to return rho 1.0 and the uniform vector, -5 gave
    # iterations -5, 1.5 raised TypeError, and a nan or negative tol ran all
    # MAX_POWER_STEPS steps
    with pytest.raises(ModelError, match=named):
        perron_data([[2.0, 1.0], [1.0, 3.0]], **kwargs)
    # the defaults and the smallest accepted values
    t = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert perron_data(t, max_iter=1).iterations == 1
    assert_same_perron(perron_data(t, tol=0.0), oracle_perron_data(t, tol=0.0))


def test_rank_one_second_modulus_is_rounding():
    t = np.outer([1.0, 2.0, 0.5], [0.3, 1.0, 2.0])
    pd = perron_data(t)
    assert type(pd.second_modulus) is float and pd.second_modulus <= 1e-15 * pd.rho
    assert_same_perron(pd, oracle_perron_data(t))
    # beside a matrix whose lambda_2 is far from 0; a 1 x 1 matrix has none
    full = np.array([[2.0, 1.0, 0.5], [1.0, 1.0, 0.2], [0.3, 0.4, 1.5]])
    got = _perron_stack(np.stack([t, full, t]), 1e-13, 100000)
    assert [g.second_modulus > 1e-15 * g.rho for g in got] == [False, True, False]
    for g, m in zip(got, (t, full, t)):
        assert_same_perron(g, oracle_perron_data(m))
    assert repr(perron_data([[2.0]]).second_modulus) == "0.0"


# shared by the stacks below: each has a double eigenvalue 0 in one Jordan
# block, which eigvals places within about sqrt(eps) rho of 0
NILPOTENT_REST = [np.array([[1.0, 1.0, 0.0], [3.0, 1.0, 1.0], [2.0, 0.0, 1.0]]),
                  np.array([[3.0, 3.0, 3.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])]
# eigenvalues 1 and 1 +- sqrt(2) 1e-3: a spectral ratio of about 0.9986
STALLED = np.array([[1.0, 1e-3, 0.0], [1e-3, 1.0, 1e-3], [0.0, 1e-3, 1.0]])


def assert_second_modulus(got, want, exact):
    """got against the oracle's record want in every field but
    second_modulus, which is exact within 1e-12 rho."""
    assert_same_perron(got, want._replace(second_modulus=got.second_modulus))
    assert abs(got.second_modulus - exact) <= 1e-12 * got.rho


def assert_nilpotent_rest(got, want):
    assert_same_perron(got, want._replace(second_modulus=got.second_modulus))
    assert got.second_modulus <= 4 * math.sqrt(np.finfo(float).eps) * got.rho


def test_stack_mixes_vanishing_live_and_unconverged_matrices():
    # two matrices whose lambda_2 is 0 between random ones, and one that
    # runs out of max_iter; each row's record is its own
    max_iter = 200
    rng = np.random.default_rng(34)
    live = [rng.uniform(0.5, 2.0, size=(3, 3)) for _ in range(3)]
    mats = [live[0], NILPOTENT_REST[0], live[1], STALLED, NILPOTENT_REST[1], live[2]]
    got = _perron_stack(np.stack(mats), 1e-13, max_iter)
    want = [oracle_perron_data(m, max_iter=max_iter) for m in mats]
    for i in (0, 2, 5):
        assert_same_perron(got[i], want[i])
    for i in (1, 4):
        assert_nilpotent_rest(got[i], want[i])
    assert_second_modulus(got[3], want[3], 1.0)
    assert [g.iterations == max_iter for g in got] == [False, False, False, True, False, False]


def test_second_modulus_is_exact_on_real_complex_and_wide_spectra():
    # positive and negative lambda_2 of 2 x 2 matrices (|det T| / rho), the
    # complex pair 0.5 +- i of a 4 x 4 rotation (modulus sqrt(5) / 2 above
    # the real -0.5), and a 40 x 40 matrix against eig(T^T); alone and in
    # any stack
    rng = np.random.default_rng(35)
    scales = rng.uniform(0.5, 2.0, size=4)
    positive = [np.array([[2.0, 1.0], [1.0, 3.0]]) * c for c in scales]
    negative = [np.array(m) * c for c in scales for m in ([[1.0, 2.0], [2.0, 1.0]], [[1.0, 3.0], [2.0, 0.5]])]
    rotating = np.roll(np.eye(4), 1, axis=1) + 0.5 * np.eye(4)
    wide = rng.uniform(0.5, 2.0, size=(40, 40))
    for mats in (positive, negative, positive + negative, [rotating], [wide]):
        for g, m in zip(_perron_stack(np.stack(mats), 1e-13, 100000), mats):
            want = oracle_perron_data(m)
            assert_same_perron(g, want)
            if len(m) == 2:
                assert_second_modulus(g, want, abs(np.linalg.det(m)) / g.rho)
            elif len(m) == 4:
                assert_second_modulus(g, want, math.sqrt(5.0) / 2.0)
    assert (np.abs(np.linalg.eigvals(rotating).imag) > 0.5).sum() == 2


def test_second_moduli_of_a_mixed_3x3_stack():
    # one 3 x 3 stack of a double lambda_2 (c), a lambda_2 of 0 twice, a
    # random matrix, one with a negative lambda_2, a complex pair of modulus
    # sqrt(3) / 2, and one that runs out of max_iter
    max_iter = 200
    rng = np.random.default_rng(36)
    c = rng.uniform(0.5, 2.0)
    double = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) * c
    negative = np.array([[0.5, 3.0, 1.0], [2.0, 0.5, 1.0], [1.0, 1.0, 1.0]]) * 1.5
    rotating = np.roll(np.eye(3), 1, axis=1) + 0.5 * np.eye(3)
    live = rng.uniform(0.5, 2.0, size=(3, 3))
    mats = [double, NILPOTENT_REST[0], live, negative, STALLED, rotating, NILPOTENT_REST[1]]
    got = _perron_stack(np.stack(mats), 1e-13, max_iter)
    want = [oracle_perron_data(m, max_iter=max_iter) for m in mats]
    for i in (2, 3):
        assert_same_perron(got[i], want[i])
    assert np.linalg.eigvals(negative).real.min() < -0.5
    for i in (1, 6):
        assert_nilpotent_rest(got[i], want[i])
    for i, exact in ((0, c), (4, 1.0), (5, math.sqrt(3.0) / 2.0)):
        assert_second_modulus(got[i], want[i], exact)
    assert [g.iterations == max_iter for g in got] == [False, False, False, False, True, False, False]


def test_eigenvalues_that_do_not_converge_give_nan(monkeypatch):
    # np.linalg.eigvals raises LinAlgError when LAPACK does not converge:
    # that matrix's second_modulus is nan and its gap n/a, and every other
    # record of the stack is the one it has without the failure
    rng = np.random.default_rng(37)
    mats = [rng.uniform(0.5, 2.0, size=(3, 3)) for _ in range(4)]
    want = _perron_stack(np.stack(mats), 1e-13, 100000)
    real = np.linalg.eigvals

    def failing(a):
        if any(np.array_equal(t, mats[2]) for t in a.reshape(-1, 3, 3)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    got = _perron_stack(np.stack(mats), 1e-13, 100000)
    for i, (g, w) in enumerate(zip(got, want)):
        if i == 2:
            assert math.isnan(g.second_modulus) and math.isnan(g.spectral_gap)
            assert_same_perron(g._replace(second_modulus=w.second_modulus), w)
        else:
            assert_same_perron(g, w)
            assert repr(g.second_modulus) == repr(w.second_modulus)
    assert math.isnan(perron_data(mats[2]).second_modulus)


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


@pytest.mark.parametrize("name", ["adhoc5", "fullshift4", "nongibbs6", "converse_false", "wide12"])
def test_printed_gap_is_the_true_one(tmp_path, capsys, name):
    # |lambda_2| / rho from the eigenvalues of the one-period product of the
    # orbit's least rotation, which has the spectrum of every rotation but
    # for zeros; the deflated iteration this replaced printed 0.0609582073768
    # for wide12's (01)*, where the eigenvalues give 0.0508190
    doc = wide12_document() if name == "wide12" else expand_example(name)
    fs = gf.parse_model(doc)
    path = tmp_path / f"{name}.json"
    gf.models.dump_document(doc, str(path))
    cli.main(["periodic", str(path), "--max-period", "4"])
    gaps = {}  # period, as symbol indices -> printed gap
    for line in capsys.readouterr().out.splitlines():
        if "eigendata" in line:
            label = line[line.index("(") + 1 : line.index(")")]
            gaps[tuple(fs.projection.target.index(x) for x in label)] = float(line.rsplit(" ", 1)[1])
    assert gaps or name == "converse_false"
    orbits = {}
    for period, gap in gaps.items():
        least = min(period[k:] + period[:k] for k in range(len(period)))
        orbits.setdefault(least, set()).add(gap)
        t = fs.word_product(least + least[:1])
        moduli = sorted(abs(np.linalg.eigvals(t)))
        rho, want = moduli[-1], moduli[-2] / moduli[-1]
        assert abs(gap - want) <= 1e-9 * want or max(gap, want) < 1e-12, period
        if name == "fullshift4":
            assert len(t) == 2 and abs(gap - abs(np.linalg.det(t)) / rho**2) <= 1e-9 * gap
    # every rotation of an orbit prints one gap
    assert all(len(printed) == 1 for printed in orbits.values())


def test_periodic_prints_n_a_where_eigenvalues_do_not_converge(tmp_path, monkeypatch, capsys):
    # a LinAlgError from np.linalg.eigvals on the base of (01) turns only
    # the gaps of (01)* and (10)* into n/a: no traceback, the same exit
    # code, every other byte as it was
    path = tmp_path / "fs4.json"
    gf.models.dump_document(expand_example("fullshift4"), str(path))
    argv = ["periodic", str(path), "--max-period", "3"]
    code = cli.main(argv)
    before = capsys.readouterr()
    bad = gf.example_system("fullshift4").word_product((0, 1, 0))
    real = np.linalg.eigvals

    def failing(a):
        if any(np.array_equal(t, bad) for t in a.reshape((-1,) + a.shape[-2:])):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    assert cli.main(argv) == code
    after = capsys.readouterr()
    assert after.err == before.err == ""
    moved = [(b, a) for b, a in zip(before.out.splitlines(), after.out.splitlines()) if b != a]
    assert [a.split(":")[0] for _, a in moved] == ["(01)*", "(10)*"]
    for b, a in moved:
        assert a.endswith("spectral gap |l2|/rho n/a") and b.rsplit(" ", 1)[0] == a.rsplit(" ", 1)[0]
    assert len(after.out.splitlines()) == len(before.out.splitlines())


def bench_workloads():
    """bench/workloads.py, imported without writing bytecode under bench/."""
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path[:], sys.dont_write_bytecode = saved


@pytest.mark.parametrize(
    "workload, orbits, points", [("wide-fibers", 8, 22), ("sweep-fs4", 41, 232), ("divergent-ng6", 28, 171)]
)
def test_one_perron_computation_per_orbit(tmp_path, monkeypatch, workload, orbits, points):
    # the periodic command of each benchmark script at seed 1: the stacked
    # Perron iteration sees one product per orbit, where it saw one per
    # eigendata point
    manifest = bench_workloads().generate(workload, 1, str(tmp_path))
    argv = next(argv for argv in manifest["script"] if argv[0] == "periodic")
    sizes, slots = [], []

    def counted_stack(ts, *args):
        sizes.append(len(ts))
        return _perron_stack(ts, *args)

    def counted_many(fs, batch):
        slots.extend(eigendata_many(fs, batch))
        return slots[-len(batch):]

    monkeypatch.setattr(potential, "_perron_stack", counted_stack)
    monkeypatch.setattr(potential, "eigendata_many", counted_many)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    assert sum(sizes) == orbits
    assert sum(isinstance(slot, tuple) for slot in slots) == points


def counting_primitivity(monkeypatch):
    """Patch pattern_primitivity in projection, where the cycle table tests
    the zero patterns, to record every zero pattern it is asked about."""
    seen = []

    def counted(mat):
        pattern = np.asarray(mat) != 0
        seen.append((pattern.shape, pattern.tobytes()))
        return pattern_primitivity(mat)

    monkeypatch.setattr(projection, "pattern_primitivity", counted)
    return seen


def test_each_zero_pattern_is_tested_once_per_batch(monkeypatch):
    fs = gf.example_system("nongibbs6")
    points = periodic_points(fs, 6)
    seen = counting_primitivity(monkeypatch)
    eigendata_many(fs, points)
    assert seen and len(seen) == len(set(seen))
    seen.clear()
    fresh = gf.example_system("nongibbs6")
    evaluate_many(fresh, points + [p.shifted(0) for p in points], 1e-10)
    assert seen and len(seen) == len(set(seen))
    # the system keeps its table: a second batch on it tests no pattern
    seen.clear()
    evaluate_many(fs, points, 1e-10)
    assert seen == []


def test_a_second_evaluate_tests_no_pattern_again(monkeypatch):
    fs = gf.example_system("nongibbs6")
    point = PointSpec(fs, (), (0, 1))
    seen = counting_primitivity(monkeypatch)
    first = gf.evaluate(fs, point)
    calls = len(seen)
    assert calls >= 1
    assert gf.evaluate(fs, point) == first
    assert len(seen) == calls


# ---------------------------------------------------------- exact reference


def exact_fiber_data(fs):
    """The fiber weights mu[a] P[a, a'] / mu[a'] of every allowed block and
    the fiber marginals of mu, as 50-digit Decimals of exact Fractions: mu
    solves, exactly from the model's float entries, the balance equations
    with the normalization row in place of the last, as
    stationary_distribution sets them up."""
    p = [[Fraction(x) for x in row] for row in fs.model.transition.tolist()]
    n = len(p)
    rows = [[p[j][i] - (i == j) for j in range(n)] + [Fraction(0)] for i in range(n - 1)]
    rows.append([Fraction(1)] * (n + 1))
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    mu = [row[n] for row in rows]

    def decimal(f):
        return Decimal(f.numerator) / Decimal(f.denominator)

    fibers, allows = fs.projection.fibers, fs.model.tmc.allows
    with localcontext() as ctx:
        ctx.prec = 50
        weights = {
            (b, b2): [[decimal(mu[a] * p[a][a2] / mu[a2]) if allows(a, a2) else Decimal(0) for a2 in fibers[b2]]
                      for a in fibers[b]]
            for b, b2 in fs.fiber_weight
        }
        marginals = [[decimal(mu[a]) for a in fiber] for fiber in fibers]
    return weights, marginals


def exact_psi(weights, marginals, period, depth=300, preperiod=()):
    """psi at preperiod period^infinity by the backward iteration over depth
    steps in 50-digit decimal: the fiber marginal of symbol depth, pushed
    back through the weight blocks and normalized, then log |W_(x0 x1) x|_1."""
    symbols = list(preperiod) + [period[m % len(period)] for m in range(depth + 1 - len(preperiod))]
    with localcontext() as ctx:
        ctx.prec = 50
        x = marginals[symbols[depth]]
        for m in range(depth - 1, -1, -1):
            y = [sum(w * v for w, v in zip(row, x)) for row in weights[(symbols[m], symbols[m + 1])]]
            total = sum(y)
            x = [v / total for v in y]
        return total.ln()


@pytest.mark.parametrize("name", ["sweep-fs4-seed3", "fullshift4"])
def test_eigendata_radii_bound_the_exact_value(tmp_path, name):
    # every eigendata slot of periodic --max-period 7 against psi from exact
    # fiber weights; on 2 x 2 blocks the iteration has settled by depth 300
    # (depth 400 gives the same 50 digits).  Before the base took its value
    # from the pass around its cycle, (0001111)* and (0101111)* of the
    # sweep-fs4 model missed by 5.6e-13 and 3.0e-13, radii 1.00e-13 and
    # 1.03e-13
    if name == "fullshift4":
        fs = gf.example_system("fullshift4")
    else:
        fs = gf.load_model(bench_workloads().generate("sweep-fs4", 3, str(tmp_path))["model"])
    weights, marginals = exact_fiber_data(fs)
    points = periodic_points(fs, 7)
    slots = eigendata_many(fs, points)
    assert all(isinstance(slot, tuple) for slot in slots)
    misses = []
    for p, (ev, _) in zip(points, slots):
        off = abs(Decimal(ev.value) - exact_psi(weights, marginals, p.period))
        if off > Decimal(ev.error_radius):
            misses.append((p.period, float(off), ev.error_radius))
    assert misses == []


def preperiodic_points(fs, max_preperiod, max_period):
    """Every point u v^infinity with 1 <= |u| <= max_preperiod and a least
    period |v| <= max_period, in canonical form, each once."""
    tmc = fs.factor_tmc
    points = {}
    for per in periodic_points(fs, max_period):
        for n in range(1, max_preperiod + 1):
            for word in gf.enumerate_words(tmc, n):
                if tmc.allows(word.symbols[-1], per.period[0]):
                    point = PointSpec(fs, word.symbols, per.period)
                    if point.preperiod:
                        points.setdefault(point, None)
    return list(points)


@pytest.mark.parametrize("name", ["sweep-fs4-seed3", "fullshift4", "adhoc5"])
def test_preperiodic_radii_bound_the_exact_value(tmp_path, name):
    # every eigendata slot of a point with a preperiod of 1 or 2 symbols and
    # a period up to 4, against psi from exact fiber weights: the right
    # vector of the tail's rotation pushed through the preperiod moves the
    # value by at most its Hilbert distance from the true vector, which the
    # vector term bounds, also where the tail is a fixed point
    if name == "sweep-fs4-seed3":
        fs = gf.load_model(bench_workloads().generate("sweep-fs4", 3, str(tmp_path))["model"])
    else:
        fs = gf.example_system(name)
    weights, marginals = exact_fiber_data(fs)
    points = preperiodic_points(fs, 2, 4)
    assert any(len(p.period) == 1 for p in points) == (name != "adhoc5")
    assert {len(p.preperiod) for p in points} == {1, 2}
    slots = eigendata_many(fs, points)
    assert all(isinstance(slot, tuple) for slot in slots)
    misses = []
    for p, (ev, pd) in zip(points, slots):
        assert ev.notes == ("dominant eigendata of the periodic tail, carried through the preperiod",)
        assert ev.terms_used == pd.iterations
        off = abs(Decimal(ev.value) - exact_psi(weights, marginals, p.period, preperiod=p.preperiod))
        if off > Decimal(ev.error_radius):
            misses.append((p.key(), float(off), ev.error_radius))
    assert misses == []


def test_eigendata_route_overlaps_the_certified_route():
    # every system with uniform constants among the four examples and the
    # 40 sparse_models (all but nongibbs6 and converse_false): at every
    # point with a preperiod of at most 2 and a period of at most 4, the
    # interval of evaluate_many without constants, which H2 sends down the
    # eigendata route, overlaps the certified interval
    systems = [gf.example_system(name) for name in ("adhoc5", "fullshift4", "nongibbs6", "converse_false")]
    systems += [sparse_model(seed) for seed in range(40)]
    counts = {"systems": 0, "points": 0, "preperiodic": 0}
    for fs in systems:
        try:
            constants = gf.uniform_constants(fs)
        except gf.CertificationError:
            continue
        points = periodic_points(fs, 4) + preperiodic_points(fs, 2, 4)
        certified = evaluate_many(fs, points, 1e-12, constants)
        for p, ev, other in zip(points, evaluate_many(fs, points, 1e-12), certified):
            assert ev.notes[0].startswith("dominant eigendata") and other.mode == "certified"
            assert abs(ev.value - other.value) <= ev.error_radius + other.error_radius, p
        counts["systems"] += 1
        counts["points"] += len(points)
        counts["preperiodic"] += sum(bool(p.preperiod) for p in points)
    assert counts == {"systems": 42, "points": 4912, "preperiodic": 3899}


def test_uncertified_script_work(tmp_path, monkeypatch):
    # divergent-ng6's benchmark script at seed 1: without constants no point
    # reaches the backward lockstep, and the word products are those of H2
    # and of the eigendata route (one eigendata_many call per batch).  Each
    # command's system forms a word once; per-call memos made 192 calls on
    # 187 distinct (system, word) pairs, and the table forms 184, as a word
    # of length 2 is a fiber block and the prefix of a word formed before
    # it is read from the table
    manifest = bench_workloads().generate("divergent-ng6", 1, str(tmp_path))
    products, scaled = [], []
    real_product, real_rows = gf.FactorSystem.word_product, potential._lockstep_rows

    def counted(self, symbols):
        products.append((self, tuple(symbols)))
        return real_product(self, symbols)

    def recorded(fs, points, depths):
        scaled.extend(points)
        return real_rows(fs, points, depths)

    monkeypatch.setattr(gf.FactorSystem, "word_product", counted)
    monkeypatch.setattr(potential, "_lockstep_rows", recorded)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in manifest["script"]:
            cli.main(argv)
    assert scaled == []
    assert len(products) == len(set(products)) == 184


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


def perron_record(second_modulus, iterations, rho=2.0):
    return PerronData(
        rho=np.float64(rho),
        right=np.array([0.5, 0.5]),
        left=np.array([1.0, 1.0]),
        second_modulus=second_modulus,
        residual=0.0,
        iterations=iterations,
    )


def test_spectral_gap_is_the_ratio_only_after_convergence_and_below_one():
    assert perron_record(0.5, 10).spectral_gap == 0.25
    assert perron_record(0.0, potential.MAX_POWER_STEPS - 1).spectral_gap == 0.0
    assert math.isnan(perron_record(0.5, potential.MAX_POWER_STEPS).spectral_gap)
    assert math.isnan(perron_record(2.0, 10).spectral_gap)
    assert math.isnan(perron_record(3.0, 10).spectral_gap)


def test_spectral_gap_checks_the_module_cap_and_not_max_iter():
    # three steps do not converge here, yet 3 < MAX_POWER_STEPS
    t = np.array([[2.0, 1.0], [1.0, 3.0]])
    pd = perron_data(t, max_iter=3)
    assert pd.iterations == 3
    assert pd.spectral_gap == pd.second_modulus / pd.rho < 1.0

