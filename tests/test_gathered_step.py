"""The gathered backward lockstep: _lockstep_rows steps its rows in one
array padded to the widest fiber (FactorSystem.padded_stack), one row per
point, even where points share a tail.  Its row sums equal the one-row
_point_row's bit for bit on every system, and backward_transfer's scales
bit for bit on equal fibers and the examples, within MIXED_BOUND on the
synthetic systems with fibers of different sizes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbsfactor as gf
from gibbsfactor import potential
from gibbsfactor.potential import PointSpec, _lockstep_sequences
from gibbsfactor.projection import backward_transfer

from test_cycle_jump import MIXED_BOUND, assert_scales, seeded_full_shift
from test_evaluate_many import _refusal, random_point
from test_potential import _lockstep_scales, _scale, random_certified_system

SYSTEMS = {
    "adhoc5": lambda: gf.example_system("adhoc5"),
    "fullshift4": lambda: gf.example_system("fullshift4"),
    "nongibbs6": lambda: gf.example_system("nongibbs6"),
    "converse_false": lambda: gf.example_system("converse_false"),
    # equal fibers: no padding
    "full22": lambda: seeded_full_shift(5, (2, 2)),
    "full333": lambda: seeded_full_shift(6, (3, 3, 3)),
    "full40": lambda: seeded_full_shift(7, (40, 40)),
    # two fibers of 1 padded to the fiber of 2
    "full112": lambda: seeded_full_shift(8, (1, 1, 2)),
    # forbidden transitions leave zero blocks in the padded stack
    "rand1122": lambda: random_certified_system(9, (1, 1, 2, 2))[0],
    # a narrow fiber padded to a fiber of 8 or more, whose sums numpy adds pairwise
    "full103": lambda: seeded_full_shift(12, (10, 3)),
}
# the synthetic systems with fibers of different sizes, on which the padded
# rows round otherwise than backward_transfer in the last bits
MIXED = {"full112", "rand1122", "full103"}


@pytest.fixture(scope="module", params=list(SYSTEMS))
def system(request):
    return SYSTEMS[request.param]()


@pytest.fixture
def bound(request):
    """The relative bound for the system of the test's parameters."""
    return MIXED_BOUND if request.node.callspec.params["system"] in MIXED else 0.0


def expected(fs, points, depths):
    return [float(backward_transfer(fs, p.symbols(n + 1))[1]) for p, n in zip(points, depths)]


def usable_points(fs, rng, count, max_pre=6):
    """Seeded points without zero fiber rows along them."""
    points = [random_point(fs, rng, int(rng.integers(0, max_pre + 1))) for _ in range(count)]
    return [p for p in points if _refusal(fs, p) is None]


def shared_tail_batch(fs, rng, depth, duplicates=3, singletons=6):
    """Points that share (depth, preperiod length, period) in groups, the
    first few of them again, then singletons at seeded depths."""
    tmc = fs.factor_tmc
    shared = []
    for _ in range(4):
        period = random_point(fs, rng, 0).period
        t0 = int(rng.integers(0, 5))
        for _ in range(int(rng.integers(2, 6))):
            pre = [int(rng.integers(fs.target_size))]
            while len(pre) < t0:
                pre.append(int(rng.choice(tmc.successors(pre[-1]))))
            if t0 == 0 or tmc.allows(pre[-1], period[0]):
                shared.append(PointSpec(fs, pre[:t0], period))
    shared = [p for p in shared if _refusal(fs, p) is None]
    shared += shared[:duplicates]
    extra = usable_points(fs, rng, singletons)
    return shared + extra, [depth] * len(shared) + [int(d) for d in rng.integers(1, 2 * depth + 1, size=len(extra))]


def test_padded_stack_holds_every_weight_block(system):
    blocks, marginals, ones = system.padded_stack
    sizes = [len(f) for f in system.projection.fibers]
    width = max(sizes)
    assert blocks.shape == (len(sizes), len(sizes), width, width)
    assert marginals.shape == ones.shape == (len(sizes), width)
    for b0, s0 in enumerate(sizes):
        for b1, s1 in enumerate(sizes):
            block = blocks[b0, b1].copy()
            if (b0, b1) in system.fiber_weight:
                assert block[:s0, :s1].tobytes() == system.fiber_weight[(b0, b1)].tobytes()
                block[:s0, :s1] = 0.0
            # the padding, and every block of a pair that is not allowed, is zero
            assert not block.any()
        assert marginals[b0, :s0].tobytes() == system.fiber_marginal[b0].tobytes()
        assert not marginals[b0, s0:].any()
        assert (ones[b0, :s0] == 1.0).all() and not ones[b0, s0:].any()


def test_batch_equals_backward_transfer_and_scale(system, bound):
    rng = np.random.default_rng(41)
    points = usable_points(system, rng, 40)
    depths = [int(d) for d in rng.integers(1, 400, size=len(points))]
    scales = _lockstep_scales(system, points, depths).tolist()
    assert [_scale(system, p, n) for p, n in zip(points, depths)] == scales
    assert_scales(scales, expected(system, points, depths), bound)


def test_shared_tails_equal_backward_transfer(system, bound):
    rng = np.random.default_rng(42)
    points, depths = shared_tail_batch(system, rng, 300)
    assert len(points) > len({(n, len(p.preperiod), p.period) for p, n in zip(points, depths)})
    scales = _lockstep_scales(system, points, depths).tolist()
    assert [_scale(system, p, n) for p, n in zip(points, depths)] == scales
    assert_scales(scales, expected(system, points, depths), bound)


def test_value_does_not_depend_on_the_batch(system):
    rng = np.random.default_rng(43)
    points, depths = shared_tail_batch(system, rng, 200)
    scales = _lockstep_scales(system, points, depths).tolist()
    order = rng.permutation(len(points))
    shuffled = _lockstep_scales(system, [points[i] for i in order], [depths[i] for i in order]).tolist()
    assert shuffled == [scales[i] for i in order]
    half = order[: len(order) // 2]
    assert _lockstep_scales(system, [points[i] for i in half], [depths[i] for i in half]).tolist() == [
        scales[i] for i in half
    ]


@pytest.mark.parametrize("doubles", [1, 7, 64])
def test_gathered_chunks_do_not_change_a_bit(doubles, monkeypatch):
    # blocks of 3 x 3 doubles: chunks of 1, 1 and 7 rows
    fs = seeded_full_shift(10, (3, 3, 1, 1))
    rng = np.random.default_rng(44)
    points, depths = shared_tail_batch(fs, rng, 150)
    lengths = [int(n) for n in rng.integers(1, 120, size=len(points))]
    assert len(points) > 7
    scales = _lockstep_scales(fs, points, depths).tolist()
    sequences = _lockstep_sequences(fs, points, lengths, lengths)
    assert_scales(scales, expected(fs, points, depths), MIXED_BOUND)
    monkeypatch.setattr(potential, "STACK_DOUBLES", doubles)
    assert _lockstep_scales(fs, points, depths).tolist() == scales
    chunked = _lockstep_sequences(fs, points, lengths, lengths)
    assert [a.tobytes() for a in chunked] == [a.tobytes() for a in sequences]


BATCH_SYSTEMS = {name: SYSTEMS[name]() for name in ("adhoc5", "nongibbs6", "full22", "full112")}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(BATCH_SYSTEMS)),
    st.integers(0, 2**32 - 1),
    st.integers(1, 120),
    st.integers(0, 4),
    st.integers(0, 4),
)
def test_mixed_batches_equal_backward_transfer(name, seed, depth, duplicates, singletons):
    fs = BATCH_SYSTEMS[name]
    points, depths = shared_tail_batch(fs, np.random.default_rng(seed), depth, duplicates, singletons)
    bound = MIXED_BOUND if name in MIXED else 0.0
    assert_scales(_lockstep_scales(fs, points, depths), expected(fs, points, depths), bound)
