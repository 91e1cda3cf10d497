"""The cycle exit of the backward scale route: _lockstep_scales, in a batch
and at one point, equals backward_transfer while it skips the levels over
which a row repeats: bit for bit on equal fibers and the examples, within
MIXED_BOUND on the synthetic systems with fibers of different sizes."""

from __future__ import annotations

import numpy as np
import pytest

import gibbsfactor as gf
from gibbsfactor import cli, potential
from gibbsfactor.models import dump_document, expand_example
from gibbsfactor.potential import PointSpec, _cycle_exit, _lockstep_scales, _routes
from gibbsfactor.projection import backward_transfer

from test_evaluate_many import random_point, sweep_points
from test_golden_cli import wide12_document


def seeded_full_shift(seed, fibers):
    """Full shift onto len(fibers) symbols with the given fiber sizes,
    transition rows drawn log-uniform over [0.01, 1]."""
    rng = np.random.default_rng(seed)
    n = sum(fibers)
    labels = [f"s{i}" for i in range(n)]
    p = np.exp(rng.uniform(np.log(0.01), 0.0, size=(n, n)))
    p /= p.sum(axis=1, keepdims=True)
    target = [str(b) for b, k in enumerate(fibers) for _ in range(k)]
    return gf.parse_model(
        {
            "alphabet": labels,
            "incidence": [[1] * n for _ in range(n)],
            "transition": p.tolist(),
            "projection": dict(zip(labels, target)),
        }
    )


SYSTEMS = {
    "adhoc5": lambda: gf.example_system("adhoc5"),
    "fullshift4": lambda: gf.example_system("fullshift4"),
    "wide12": lambda: gf.parse_model(wide12_document()),
    "full13": lambda: seeded_full_shift(1, (1, 3)),
    "full23": lambda: seeded_full_shift(2, (2, 3)),
    "full42": lambda: seeded_full_shift(3, (4, 2)),
    "full57": lambda: seeded_full_shift(4, (5, 7)),
}
# fibers of different sizes: the padded rows of the lockstep round
# otherwise than backward_transfer in the last bits, within MIXED_BOUND
MIXED = {"full13", "full23", "full42", "full57"}
MIXED_BOUND = 4 * np.finfo(float).eps


@pytest.fixture(scope="module", params=list(SYSTEMS))
def system(request):
    return SYSTEMS[request.param]()


@pytest.fixture
def bound(request):
    """The relative bound for the system of the test's parameters."""
    return MIXED_BOUND if request.node.callspec.params["system"] in MIXED else 0.0


def assert_scales(scales, reference, bound):
    """scales equal reference bit for bit when bound is 0, and within
    bound relative otherwise."""
    scales, reference = np.asarray(scales), np.asarray(reference)
    assert scales.shape == reference.shape
    assert (np.abs(scales - reference) <= bound * np.abs(reference)).all()


def sample(fs, seed, count=40):
    """Seeded points with preperiods up to 3 and periods up to 4, and depths
    from 2 to 2,000."""
    rng = np.random.default_rng(seed)
    points = [random_point(fs, rng, int(rng.integers(0, 4))) for _ in range(count)]
    return points, [int(n) for n in rng.integers(2, 2001, size=count)]


def expected(fs, points, depths):
    return [float(backward_transfer(fs, p.symbols(n + 1))[1]) for p, n in zip(points, depths)]


@pytest.fixture
def exits(monkeypatch):
    """(lag / period, resume level) of every cycle exit taken."""
    taken = []

    def recorded(t0, q, level, lag):
        resume = _cycle_exit(t0, q, level, lag)
        if resume < level:
            taken.append((lag // q, resume))
        return resume

    monkeypatch.setattr(potential, "_cycle_exit", recorded)
    return taken


def test_batch_equals_backward_transfer(system, bound, monkeypatch):
    points, depths = sample(system, 31)
    levels = []
    original = potential._gathered_product

    def counted(*args, **kwargs):
        levels.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(potential, "_gathered_product", counted)
    assert_scales(_lockstep_scales(system, points, depths), expected(system, points, depths), bound)
    # without cycle exits the countdown would step through all max(depths) levels
    assert 0 < len(levels) < max(depths)


def test_single_points_equal_backward_transfer(system, bound, exits):
    points, depths = sample(system, 32, count=12)
    for p, n, x in zip(points, depths, expected(system, points, depths)):
        assert_scales(_lockstep_scales(system, [p], [n]), [x], bound)
    assert exits


def test_exits_cover_multiples_of_the_period_and_level_zero(exits):
    # at one point _cycle_exit sees only rows already equal bit for bit
    for name, make in SYSTEMS.items():
        fs = make()
        points, depths = sample(fs, 33, count=12)
        scales = [float(_lockstep_scales(fs, [p], [n])[0]) for p, n in zip(points, depths)]
        assert_scales(scales, expected(fs, points, depths), MIXED_BOUND if name in MIXED else 0.0)
        # the batch takes the same checkpoints, so the same rows exit
        assert _lockstep_scales(fs, points, depths).tolist() == scales
    assert {ratio for ratio, _ in exits} >= {1, 2, 3}
    assert {resume == 0 for _, resume in exits} == {True, False}


def test_batch_mixes_cycling_and_non_cycling_rows(nongibbs6, monkeypatch):
    # the sweep points whose tails have eigendata, at seeded depths below
    # 200: some rows repeat before level 0 and leave, others do not
    fs = nongibbs6
    points = sweep_points(fs, 5)
    points = [p for p, plan in zip(points, _routes(fs, points, 1e-10, None)) if plan.mode != "scan"]
    depths = [int(n) for n in np.random.default_rng(38).integers(2, 200, size=len(points))]
    symbols = []
    original = PointSpec.symbol_at

    def counted(self, i):
        symbols.append(i)
        return original(self, i)

    monkeypatch.setattr(PointSpec, "symbol_at", counted)
    cycled = []
    for p, n in zip(points, depths):
        symbols.clear()
        potential._scale(fs, p, n)
        # _scale reads the symbol at depth n, then one symbol per step
        cycled.append(len(symbols) - 1 < n)
    monkeypatch.undo()
    assert set(cycled) == {True, False}
    assert _lockstep_scales(fs, points, depths).tolist() == expected(fs, points, depths)


def test_cycle_exit():
    # from level t0 on, a lag that is a multiple of the period repeats
    assert _cycle_exit(0, 2, 40, 6) == 4
    assert _cycle_exit(3, 2, 40, 6) == 3 + 37 % 6
    assert _cycle_exit(0, 3, 42, 6) == 0
    # a lag that is not a multiple of the period, or a level in the preperiod
    assert _cycle_exit(0, 3, 40, 4) == 40
    assert _cycle_exit(5, 1, 4, 2) == 4


def test_deep_certified_point_takes_few_steps(tmp_path, capsys, monkeypatch):
    path = tmp_path / "fullshift4.json"
    dump_document(expand_example("fullshift4"), str(path))
    symbols = []
    original = PointSpec.symbol_at

    def counted(self, i):
        symbols.append(i)
        return original(self, i)

    monkeypatch.setattr(PointSpec, "symbol_at", counted)
    assert cli.main(["potential", str(path), "--point", "/01", "--tol", "1e-300"]) == 0
    out = capsys.readouterr().out
    # the value is psi_n at the nominal depth, reached after a few hundred steps at most
    # (_scale reads the symbol at the depth, then one symbol per step)
    assert "terms: 4492" in out
    assert 0 < len(symbols) - 1 <= 300
