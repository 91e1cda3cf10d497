"""Induced potential of a factored Markov measure, with certified errors.

The potential at a point b of the image shift is the limit of
psi_n(b) = log(nu[b(0..n)] / nu[b(1..n)]).  Equivalently, with x_(1:n) the
normalized backward product of fiber weight matrices applied to the marginal
of b(n), psi_n(b) = log(1^T W_{b(0)b(1)} x_(1:n)).  Positivity of repeated
blocks makes the backward maps Birkhoff contractions, which yields explicit
geometric error radii.  Everything here is phase aware: one-period products
can be positive at one rotation of a cycle and degenerate at another, so no
step assumes otherwise.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    AdmissibilityError,
    CertificationError,
    EvaluationRefused,
    ModelError,
)
from .projection import FactorSystem, backward_step, backward_transfer
from .projective import STACK_DOUBLES, normalize_rows, projective_distances
from .tmc import Word, check_primitivity, enumerate_words, pattern_primitivity, primitive_root, word_symbols

DEFAULT_TARGET_ERROR = 1e-10
# deepest level an evaluation route goes to
MAX_DEPTH = 500000
# most admissible words a computation may visit, counted before any is built:
# d_const's words of lengths 2 to twice the window, and a sweep's (gibbs,
# holder, periodic) of lengths 1 to its longest
WORD_BUDGET = 1 << 22
# a backward row takes its first cycle-search checkpoint at a multiple of
# this many levels, so that rows joining at different depths share the
# levels at which checkpoints are taken (see _next_checkpoint)
FIRST_WINDOW = 16
# additive allowance for accumulated floating-point error in iterative values
FLOAT_NOISE_FLOOR = 1e-13
# most steps of each power iteration of the eigendata route and perron_data
MAX_POWER_STEPS = 100000
# the l1 step |w - v|_1 at which those power iterations stop
PERRON_TOL = 1e-13


class PointSpec:
    """Eventually periodic point: finite preperiod followed by a cycled period.

    Stored in canonical form: the period is reduced to its primitive root and
    any preperiod suffix that merely repeats the tail is absorbed into a
    rotation, so equal points compare equal.
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, fs: FactorSystem, preperiod: Sequence[int], period: Sequence[int]):
        preperiod = tuple(int(s) for s in preperiod)
        period = tuple(int(s) for s in period)
        if not period:
            raise AdmissibilityError("period must be nonempty")
        tmc = fs.factor_tmc
        Word(tmc, period)
        if not tmc.allows(period[-1], period[0]):
            raise AdmissibilityError("period does not close up cyclically")
        if preperiod:
            Word(tmc, preperiod)
            if not tmc.allows(preperiod[-1], period[0]):
                raise AdmissibilityError("preperiod does not connect to the period")
        self.preperiod, self.period = PointSpec._canonical_key(preperiod, primitive_root(period))

    @staticmethod
    def _canonical_key(preperiod: tuple[int, ...], period: tuple[int, ...]) -> tuple:
        """The key() of the point of admissible parts with a primitive
        period, in canonical form: any preperiod suffix that repeats the tail
        absorbed into a rotation.  The one canonical-form routine: callers
        with a period that may be a power pass its primitive_root."""
        while preperiod and preperiod[-1] == period[-1]:
            preperiod = preperiod[:-1]
            period = period[-1:] + period[:-1]
        return preperiod, period

    @classmethod
    def _absorbed(cls, preperiod: tuple[int, ...], period: tuple[int, ...]) -> "PointSpec":
        """The point of _canonical_key(preperiod, period), not validated again."""
        point = object.__new__(cls)
        point.preperiod, point.period = PointSpec._canonical_key(preperiod, period)
        return point

    @classmethod
    def from_labels(cls, fs: FactorSystem, preperiod: Sequence[str], period: Sequence[str]) -> "PointSpec":
        alph = fs.projection.target
        return cls(
            fs,
            tuple(alph.index(x) for x in preperiod),
            tuple(alph.index(x) for x in period),
        )

    def symbol_at(self, i: int) -> int:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def symbols(self, n: int) -> tuple[int, ...]:
        """First n symbols of the point."""
        reps = max(0, n - len(self.preperiod)) // len(self.period) + 1
        return (self.preperiod + self.period * reps)[:n]

    def shifted(self, fs: FactorSystem, j: int = 1) -> "PointSpec":
        """The point with the first j symbols dropped; a shift keeps a point
        admissible and a rotation of a primitive period primitive, so the
        result is neither validated nor root-searched again."""
        if j < 0:
            raise AdmissibilityError("shift must be nonnegative")
        pre = self.preperiod
        per = self.period
        drop = min(j, len(pre))
        pre = pre[drop:]
        j -= drop
        if j:
            r = j % len(per)
            per = per[r:] + per[:r]
        return PointSpec._absorbed(pre, per)

    def key(self) -> tuple:
        return (self.preperiod, self.period)

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSpec) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        pre = "".join(str(s) for s in self.preperiod)
        per = "".join(str(s) for s in self.period)
        return f"PointSpec({pre!r} + ({per!r})^inf)"


class PotentialEvaluation(NamedTuple):
    """Outcome of a potential evaluation at one point.

    mode is one of "certified" (radius from uniform constants, or from the
    eigendata of periodic_many), "adaptive" (without uniform constants:
    radius from the dominant eigendata of the point's tail, or an observed
    spread when no rotation of the tail has a primitive one-period product;
    certified=False either way) or "diverged" (no value; at least two
    subsequence cluster values reported).
    """

    value: Optional[float]
    error_radius: float
    terms_used: int
    mode: str
    certified: bool
    clusters: tuple[float, ...] = ()
    notes: tuple[str, ...] = ()


class UniformConstants(NamedTuple):
    """Global certification constants of a factor system.

    tau is the worst Birkhoff coefficient over strictly positive repeated
    blocks, window the smallest length W such that every admissible W-word
    contains such a block, gap = 2W the bound on distances between usable
    block ends, theta = tau**(1/gap) the per-symbol decay, c1 = tau**-3,
    d_const the worst projective distance between a fiber marginal and a
    short-block image, metric_scale = 2 (#B + 1) the normalization of the
    sequence metric, c_total = 2 d c1 / (1-theta) the variation constant
    and k_gibbs = d c1 / ((1-tau)(1-theta)) the Gibbs-ratio constant.
    """

    tau: float
    theta: float
    c1: float
    d_const: float
    c_total: float
    k_gibbs: float
    window: int
    gap: int
    metric_scale: int

    @property
    def eq_radius_constant(self) -> float:
        """Prefactor of the certified radius (d_const c1 / (1 - tau))."""
        return self.d_const * self.c1 / (1.0 - self.tau)

    @property
    def holder_exponent(self) -> float:
        """Exponent with respect to the exp(-j/(2(#B+1))) sequence metric.

        Equals log(1/tau) when certification succeeded at the pigeonhole
        window W = #B + 1; a larger window scales it by (#B+1)/W.
        """
        return math.log(1.0 / self.tau) * (self.metric_scale / self.gap)


class PerronData(NamedTuple):
    """Dominant eigendata of a nonnegative matrix: of a primitive one, as
    perron_data and _perron_stack take them.

    rho, right (the l1-normalized eigenvector d_hat), left (scaled so that
    left . right = 1) and iterations (the larger step count of the two)
    come from one power iteration on the matrix and its transpose, and
    residual is the larger relative eigen-equation residual.  second_modulus
    is |lambda_2|, the second-largest eigenvalue modulus (0.0 for a 1 x 1
    matrix, nan when the eigenvalues do not converge).  A record that
    eigendata_many carries to a rotation of its orbit holds that rotation's
    right and left vectors and the base's other fields; the rotation's own
    product need not be primitive, so its left vector can hold zeros.
    """

    rho: float
    right: np.ndarray
    left: np.ndarray
    second_modulus: float
    residual: float
    iterations: int

    @property
    def spectral_gap(self) -> float:
        """|lambda_2| / rho, or nan unless the power iteration converged in
        fewer than MAX_POWER_STEPS steps (the module cap, not a caller's
        max_iter) and the ratio is below 1: the rule by which the periodic
        command prints n/a."""
        gap = self.second_modulus / self.rho
        return gap if self.iterations < MAX_POWER_STEPS and gap < 1.0 else math.nan


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (m, n) stacks, each equal to a @ b of
    the 1-d rows."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _power_stack(ts: np.ndarray, tol: float, max_iter: int) -> tuple:
    """Normalized power iteration w = T v / |T v|_1 from the uniform vector,
    for every matrix of the (m, n, n) stack ts.  A matrix's iterate w,
    rho = |T v|_1 and step count are written once: when |w - v|_1 <= tol
    takes it out of the live set, or with its last iterate and max_iter when
    max_iter runs out.  Returns (vectors, rhos, steps)."""
    m, n, _ = ts.shape
    vectors = np.full((m, n), 1.0 / n)
    rhos = np.ones(m)
    steps = np.full(m, max_iter)
    live = np.arange(m)
    t, v = ts, vectors
    for k in range(1, max_iter + 1):
        w = (t @ v[..., None])[..., 0]
        rho = w.sum(axis=1)
        if (rho <= 0).any():
            raise ModelError("power iteration collapsed; matrix is not primitive")
        w = w / rho[:, None]
        done = np.abs(w - v).sum(axis=1) <= tol
        if k == max_iter:
            done[:] = True
        if done.any():
            ended = live[done]
            vectors[ended], rhos[ended], steps[ended] = w[done], rho[done], k
            live, t, w = live[~done], t[~done], w[~done]
            if not live.size:
                break
        v = w
    return vectors, rhos, steps


def _moduli(ts: np.ndarray) -> np.ndarray:
    """The (m, 2) array of |lambda_2| and rho, the second-largest and the
    largest eigenvalue modulus, of every matrix of the (m, n, n) stack ts,
    from one np.linalg.eigvals call: |lambda_2| is 0.0 when n is 1, and a
    matrix whose eigenvalues do not converge gets nan for both (a failed
    stack is split so that only that matrix's row is nan)."""
    try:
        eigenvalues = np.linalg.eigvals(ts)
    except np.linalg.LinAlgError:
        if len(ts) == 1:
            return np.full((1, 2), math.nan)
        return np.concatenate([_moduli(t[None]) for t in ts])
    moduli = np.sort(np.abs(eigenvalues), axis=1)
    if ts.shape[1] == 1:
        return np.hstack([np.zeros_like(moduli), moduli])
    return moduli[:, -2:]


def _perron_stack(ts: np.ndarray, tol: float, max_iter: int, moduli: Optional[np.ndarray] = None) -> list[PerronData]:
    """perron_data of every matrix of the (m, n, n) stack ts, without the
    checks: one power iteration on ts and its transposes gives the right
    and left vectors, and |lambda_2| comes from moduli, the _moduli of ts
    (taken here when the caller has not).  Each matrix stops iterating
    when it converges, and the stacked products repeat the one-matrix
    products bit for bit, so a record does not depend on the other
    matrices."""
    if moduli is None:
        moduli = _moduli(ts)
    m = len(ts)
    vectors, rhos, steps = _power_stack(np.concatenate([ts, ts.transpose(0, 2, 1)]), tol, max_iter)
    right, left, rho = vectors[:m], vectors[m:], rhos[:m]
    left = left / _dots(left, right)[:, None]
    res_r = np.abs((ts @ right[..., None])[..., 0] - rho[:, None] * right).sum(axis=1) / (
        rho * right.sum(axis=1)
    )
    res_l = np.abs((left[:, None, :] @ ts)[:, 0] - rho[:, None] * left).sum(axis=1) / (
        rho * np.abs(left).sum(axis=1)
    )
    return [
        PerronData(
            rho=rho[i],
            right=r,
            left=left[i],
            second_modulus=second,
            residual=float(max(res_r[i], res_l[i])),
            iterations=int(max(steps[i], steps[m + i])),
        )
        for i, (r, second) in enumerate(zip(right, moduli[:, 0].tolist()))
    ]


def perron_data(matrix, tol: float = PERRON_TOL, max_iter: int = MAX_POWER_STEPS) -> PerronData:
    """Power iteration for the dominant eigenvalue pair of a primitive matrix,
    with |lambda_2| from its eigenvalues: the checks, then the one-matrix call
    of _perron_stack.  Stops at |w - v|_1 <= tol or after max_iter steps; the
    record's spectral_gap is nan when it ran MAX_POWER_STEPS steps."""
    if not max_iter >= 1:
        raise ModelError(f"Perron data needs max_iter >= 1, not {max_iter!r}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ModelError(f"Perron data needs a finite tol >= 0, not {tol!r}")
    t = np.asarray(matrix, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ModelError("Perron data needs a square matrix")
    if (t < 0).any():
        raise ModelError("Perron data needs a nonnegative matrix")
    if not pattern_primitivity(t).primitive:
        raise ModelError("Perron data needs a primitive matrix")
    return _perron_stack(t[None], tol, max_iter)[0]


def _check_point_rows(fs: FactorSystem, point: PointSpec) -> None:
    """Refuse evaluation when a step matrix along the point has a zero row."""
    if not fs.zero_row_blocks:
        return
    word = point.preperiod + point.period + point.period[:1]
    for i, step in enumerate(zip(word, word[1:])):
        if step in fs.zero_row_blocks:
            labels = fs.projection.target.labels
            raise EvaluationRefused(
                f"step {labels[step[0]]}->{labels[step[1]]} "
                f"at position {i} has an all-zero fiber row; potential undefined "
                "along this point",
                window=(i, i + 1),
            )


def _psi_sequence(fs: FactorSystem, point: PointSpec, n_hi: int) -> np.ndarray:
    """psi_1 .. psi_n_hi via forward row accumulation with rescaling, on the
    padded vectors and blocks of fs.padded_stack.

    Independent of the backward route; the two agree to rounding, which the
    tests use as a consistency check.  No caller in the package: it is the
    one-point reference whose last values _lockstep_sequences equals bit
    for bit.
    """
    blocks, marginals, ones = fs.padded_stack
    x = point.symbols(n_hi + 2)
    out = np.empty(n_hi)
    u, u_log, w, w_log = ones[x[0]], 0.0, ones[x[1]], 0.0
    for n in range(1, n_hi + 1):
        u = u @ blocks[x[n - 1], x[n]]
        s = u.sum()
        u_log += math.log(s)
        u = u / s
        mu = marginals[x[n]]
        out[n - 1] = (u_log + math.log(u @ mu)) - (w_log + math.log(w @ mu))
        if n < n_hi:
            w = w @ blocks[x[n], x[n + 1]]
            s = w.sum()
            w_log += math.log(s)
            w = w / s
    return out


def markov_approx(fs: FactorSystem, word) -> float:
    """Finite-range approximation log(nu[w] / nu[w(1:)]) for len(w) >= 2;
    -inf when w has no preimage."""
    symbols = word_symbols(fs.factor_tmc, word)
    if len(symbols) < 2:
        raise AdmissibilityError("the approximation needs a word of length >= 2")
    scale = backward_transfer(fs, symbols)[1]
    return math.log(scale) if scale > 0.0 else -math.inf


def _cluster_values(values: Sequence[float]) -> Optional[list[float]]:
    """Group values into clusters, split where consecutive sorted values are
    more than 1e-6 apart; None when the grouping is ambiguous (a cluster
    spreads over more than 1e-9)."""
    vals = sorted(values)
    clusters: list[list[float]] = [[vals[0]]]
    for v in vals[1:]:
        if v - clusters[-1][-1] > 1e-6:
            clusters.append([v])
        else:
            clusters[-1].append(v)
    if any(c[-1] - c[0] > 1e-9 for c in clusters):
        return None
    return [math.fsum(c) / len(c) for c in clusters]


def _certified_depth(c: UniformConstants, t0: int, target_error: float) -> int:
    """Depth n at which the certified radius (d_const c1 / (1-tau)) theta^n of
    a point with a preperiod of t0 symbols falls below target_error; a depth
    beyond MAX_DEPTH is refused (EvaluationRefused)."""
    # below this depth the closed-form radius need not dominate the
    # window-counting bound W tau^(n/W - 2) d / (1 - tau); stay above it
    n = max(2, t0 + 2, c.gap + 2)
    if c.window * c.tau > 1.0:
        n = max(n, math.ceil(2.0 * c.window * math.log(c.window * c.tau) / math.log(1.0 / c.tau)))
    if c.eq_radius_constant > target_error:
        n = max(n, math.ceil(math.log(target_error / c.eq_radius_constant) / math.log(c.theta)))
    if n > MAX_DEPTH:
        raise EvaluationRefused(f"a certified radius of {target_error:g} needs depth {n}, beyond MAX_DEPTH {MAX_DEPTH}")
    return n


def _scan_plan(point: PointSpec) -> PotentialEvaluation:
    """The plan of a point whose tail has no rotation with a primitive
    one-period product: mode "scan", a marker that never leaves
    evaluate_many and periodic_many, and terms_used the length of the value
    sequence to scan."""
    t0, q = len(point.preperiod), len(point.period)
    return PotentialEvaluation(None, math.inf, min(max(150, t0 + 30 * q, 12 * q), MAX_DEPTH), "scan", False)


def _routes(
    fs: FactorSystem,
    points: Sequence[PointSpec],
    target_error: float,
    constants: Optional[UniformConstants],
) -> list[PotentialEvaluation]:
    """Refuse the first point with zero fiber rows along it, then plan each
    point's evaluation.

    With uniform constants every point takes the certified backward route:
    the plan is its evaluation with value None and the depth of psi_depth
    in terms_used, _certified_depth (refused beyond MAX_DEPTH), taken once
    per preperiod length, with radius (d_const c1 / (1-tau)) theta^depth.
    Without them one eigendata_many call on the whole batch routes every
    point by its tail's orbit: a slot with eigendata is the point's whole
    evaluation, under mode "adaptive" and certified=False, with the power
    iteration's step count in terms_used; a slot left None (no rotation of
    the tail has a primitive one-period product) gives the _scan_plan; and
    the first refused slot, in point order, is raised.  An eigendata
    radius above target_error, which that route cannot narrow, is noted.
    """
    for point in points:
        _check_point_rows(fs, point)
    if constants is not None:
        plan = {}
        for t0 in dict.fromkeys(len(p.preperiod) for p in points):
            n = _certified_depth(constants, t0, target_error)
            radius = constants.eq_radius_constant * constants.theta**n
            plan[t0] = PotentialEvaluation(None, radius, n, "certified", True)
        return [plan[len(p.preperiod)] for p in points]
    slots = eigendata_many(fs, points)
    if refusal := next((slot for slot in slots if isinstance(slot, EvaluationRefused)), None):
        raise refusal
    above = "error radius {:.12g} is above the target {:g}; the eigendata route cannot narrow it"
    plans = []
    for point, slot in zip(points, slots):
        ev = _scan_plan(point) if slot is None else slot[0]._replace(mode="adaptive", certified=False)
        if target_error < ev.error_radius < math.inf:  # a scan plan's radius is inf
            ev = ev._replace(notes=ev.notes + (above.format(ev.error_radius, target_error),))
        plans.append(ev)
    return plans


def _scan_tail(t0: int, q: int, n: int) -> int:
    """How many trailing values of psi_1 .. psi_n _scan_result reads at a
    point with a preperiod of t0 symbols and a period of q: 5 m for the
    largest multiple m = q k (k <= 6) of the period with 10 m <= n - t0,
    else 1, the last value alone."""
    k = min(6, (n - t0) // (10 * q))
    return 5 * q * k if k > 0 else 1


def _scan_result(point: PointSpec, tail: np.ndarray, n_scan: int) -> list[PotentialEvaluation]:
    """The evaluations of scanned sequences psi_1 .. psi_n_scan at a group of
    points with point's preperiod length and period, one per row of tail,
    which ends in its sequence's last _scan_tail values: uncertified, or
    divergent with its cluster values when its subsequences mod a multiple
    m of the period stabilize apart.  Each m tests the spread of the last 5
    values of every residue at all undecided rows at once, and
    _cluster_values runs only where that test passes."""
    t0, q = len(point.preperiod), len(point.period)
    samples = 5
    out: list = [None] * len(tail)
    last = tail[:, -1].tolist()
    rows = list(range(len(tail)))  # the rows of tail still undecided
    for m in [q * k for k in range(1, 7)]:
        if not rows or m * samples * 2 > n_scan - t0:
            break
        # axis 1 of block runs over the last samples values of one residue mod m
        block = tail[:, -samples * m :].reshape(len(rows), samples, m)
        settled = (~(block.max(axis=1) - block.min(axis=1) > 1e-9).any(axis=1)).nonzero()[0].tolist()
        if not settled:
            continue
        spreads = (tail[:, -2 * m :].max(axis=1) - tail[:, -2 * m :].min(axis=1)).tolist()
        for j in settled:
            clusters = _cluster_values(block[j, -1].tolist())
            if clusters is None:
                continue
            i = rows[j]
            if len(clusters) >= 2:
                note = f"subsequences mod {m} stabilize to {len(clusters)} distinct values"
                out[i] = PotentialEvaluation(None, math.inf, n_scan, "diverged", False, tuple(clusters), (note,))
            else:
                note = "no strictly positive tail window; observed convergence is uncertified"
                radius = max(spreads[j], FLOAT_NOISE_FLOOR)
                out[i] = PotentialEvaluation(last[i], radius, n_scan, "adaptive", False, (), (note,))
        keep = [j for j, i in enumerate(rows) if out[i] is None]
        tail, rows = tail[keep], [rows[j] for j in keep]
    note = "value sequence did not stabilize within the scan depth"
    return [ev or PotentialEvaluation(v, math.inf, n_scan, "adaptive", False, (), (note,)) for ev, v in zip(out, last)]


def check_target_error(target_error: float) -> None:
    """Refuse a target error that is not finite and positive (ModelError)."""
    if not (math.isfinite(target_error) and target_error > 0):
        raise ModelError("target error must be finite and positive")


def check_sweep_depth(n_max: int, least: int = 0) -> None:
    """Refuse a sweep depth n_max below least (ModelError)."""
    if n_max < least:
        raise ModelError(f"sweep depth n_max must be >= {least}, got {n_max}")


def evaluate(
    fs: FactorSystem,
    point: PointSpec,
    target_error: float = DEFAULT_TARGET_ERROR,
    constants: Optional[UniformConstants] = None,
) -> PotentialEvaluation:
    """Potential at an eventually periodic point: evaluate_many at one point."""
    return evaluate_many(fs, [point], target_error, constants)[0]


def evaluate_many(
    fs: FactorSystem,
    points: Sequence[PointSpec],
    target_error: float = DEFAULT_TARGET_ERROR,
    constants: Optional[UniformConstants] = None,
) -> list[PotentialEvaluation]:
    """Potential at each of a list of eventually periodic points.

    With uniform constants the depth is chosen so the certified radius
    (d_const c1 / (1-tau)) theta^n falls below target_error, and a target
    that needs a depth beyond MAX_DEPTH is refused.  Without them the value
    comes from the dominant eigendata of the point's tail (eigendata_many,
    its preperiod included), and where no rotation of the tail has a
    primitive one-period product the value sequence is examined for
    stabilizing subsequences and either reported uncertified or declared
    divergent with its cluster values.

    Every point is checked and planned first, in order, so a refusal is the
    first refused point's (_routes).  The certified plans are then filled
    in lockstep: psi_n from one staggered backward pass (_lockstep_scales,
    one row per shared tail, zero-padded to the widest fiber), its logs and
    the radii floored at what double precision resolves at the value
    (FLOAT_NOISE_FLOOR max(1, |psi_n|)) taken as arrays; the scan plans by
    _scanned.  The backward pass drops a point's row once it repeats bit
    for bit at a lag of whole periods and takes it up again at the last
    level of the repeat; the value and terms_used are those of the full
    depth n.  Each point's evaluation is the same, bit for bit, whatever
    else is in the batch.
    """
    check_target_error(target_error)
    plans = _routes(fs, points, target_error, constants)
    backward = [i for i, plan in enumerate(plans) if plan.certified]
    values = np.log(_lockstep_scales(fs, [points[i] for i in backward], [plans[i].terms_used for i in backward]))
    radii = np.array([plans[i].error_radius for i in backward])
    radii = np.maximum(radii, FLOAT_NOISE_FLOOR * np.maximum(1.0, np.abs(values)))
    for i, value, radius in zip(backward, values.tolist(), radii.tolist()):
        plans[i] = PotentialEvaluation(value, radius, *plans[i][2:])
    return _scanned(fs, points, plans)


def _scanned(fs: FactorSystem, points: Sequence[PointSpec], plans: list) -> list:
    """plans with every scan plan (_scan_plan) replaced by its evaluation:
    the value sequences from one forward pass (_lockstep_sequences, a
    single point included), which returns only the _scan_tail values a
    verdict reads, and the evaluations from one _scan_result per group of
    one preperiod length, period and length."""
    groups: dict[tuple, list] = {}
    for i, plan in enumerate(plans):
        if plan.mode == "scan":
            groups.setdefault((len(points[i].preperiod), len(points[i].period), plan.terms_used), []).append(i)
    scan = [i for group in groups.values() for i in group]
    lengths = [n for (_, _, n), group in groups.items() for _ in group]
    tails = [_scan_tail(*key) for key, group in groups.items() for _ in group]
    sequences = iter(_lockstep_sequences(fs, [points[i] for i in scan], lengths, tails))
    for (_, _, n), group in groups.items():
        tail = np.stack([next(sequences) for _ in group])
        for i, evaluation in zip(group, _scan_result(points[group[0]], tail, n)):
            plans[i] = evaluation
    return plans


def _symbol_column(points: Sequence[PointSpec]):
    """column(k) holds every point's symbol k, read from a padded
    (points x (preperiod + period)) table.  The table is indexed for a run
    of up to 64 consecutive k and the first k of the next run at a time
    (about 65,536 entries at most), so a pass over the levels that reads
    column(k) and column(k + 1) pays for one indexing per run."""
    t0 = np.array([len(p.preperiod) for p in points])
    q = np.array([len(p.period) for p in points])
    table = np.zeros((len(points), int((t0 + q).max())), dtype=np.intp)
    for i, p in enumerate(points):
        table[i, : t0[i] + q[i]] = p.preperiod + p.period
    every = np.arange(len(points))
    run = max(1, min(64, 65536 // len(points)))
    start, block = -run - 1, table[:0]

    def column(k: int) -> np.ndarray:
        nonlocal start, block
        if not start <= k <= start + run:
            start = k - k % run
            ks = np.arange(start, start + run + 1)[:, None]
            block = table[every, np.where(ks < t0, ks, t0 + (ks - t0) % q)]
        return block[k - start]

    return column


def _cycle_exit(t0: int, q: int, level: int, lag: int) -> int:
    """Level at which a backward iteration may resume when its unnormalized
    row at level equals, bit for bit, its row lag levels up.  From level t0
    on the step matrices repeat with the period q, so when level >= t0 and
    lag is a multiple of q every row from level down to t0 equals the row
    lag levels up, and the iteration may go on from t0 + (level - t0) % lag
    with the same row; otherwise it stays at level."""
    if level >= t0 and lag % q == 0:
        return t0 + (level - t0) % lag
    return level


def _next_checkpoint(level, window):
    """The largest multiple of window below level (elementwise over arrays):
    where a row takes its next cycle-search checkpoint.  A row joining at
    depth n takes its first at _next_checkpoint(n + 1, FIRST_WINDOW), and
    each checkpoint doubles the window, as in Brent's cycle search."""
    return (level - 1) // window * window


def _scale(fs: FactorSystem, point: PointSpec, n: int) -> float:
    """psi_n's scale at one point: _lockstep_scales for one row, on the same
    padded vectors and blocks (fs.padded_stack), with the same checkpoints
    and cycle exit, so a point gets the same bits alone as in any batch."""
    t0, q = len(point.preperiod), len(point.period)
    symbol = point.symbol_at
    blocks, marginals, _ = fs.padded_stack
    b = symbol(n)
    x = marginals[b]
    level, window = n, FIRST_WINDOW
    due = _next_checkpoint(n + 1, window)
    mark_level, mark_scale, mark = n, math.nan, b""
    while True:
        scale = x.sum()
        if scale <= 0.0:
            return 0.0
        if scale == mark_scale and x.tobytes() == mark:
            resume = _cycle_exit(t0, q, level, mark_level - level)
            if resume < level:
                # a lag of whole periods keeps the symbol b at the new level
                level, due, mark_scale = resume, -1, math.nan
        if level == 0:
            return scale
        if level == due:
            mark_level, mark_scale, mark = level, scale, x.tobytes()
            window *= 2
            due = _next_checkpoint(level, window)
        level -= 1
        b, after = symbol(level), b
        x = blocks[b, after] @ (x / scale)


def _gathered_product(blocks: np.ndarray, rows: np.ndarray, before, after) -> np.ndarray:
    """blocks[before[i], after[i]] @ rows[i] for every row of the (m, S)
    array, as one gathered product per chunk of at most STACK_DOUBLES block
    doubles; each row's product equals the one-row product bit for bit."""
    chunk = max(1, STACK_DOUBLES // blocks[0, 0].size)
    if len(rows) <= chunk:
        return (blocks[before, after] @ rows[:, :, None])[..., 0]
    at = [slice(j, j + chunk) for j in range(0, len(rows), chunk)]
    return np.concatenate([blocks[before[j], after[j]] @ rows[j, :, None] for j in at])[..., 0]


def _lockstep_scales(fs: FactorSystem, points: Sequence[PointSpec], depths: Sequence[int]) -> np.ndarray:
    """_scale(fs, p, n) for every point p and its depth n >= 1, bit for bit,
    in one countdown over the levels: a point's padded marginal row
    (fs.padded_stack) joins at level n, and all rows present, kept in one
    (rows, S) array beside one array of their point indices, take one
    _gathered_product per level.  A single point takes _scale, which is
    cheaper than a level of one row.  Points with one depth, preperiod
    length t0 and period share one row down to level t0, on which it
    depends alone, and the others take copies of it there.  Where fibers
    are of one size the values are backward_transfer(fs, p.symbols(n + 1))[1]
    bit for bit; elsewhere padding may move them in the last bits.

    The unnormalized row x_k at level k fixes every later step, and its sum
    is the answer at level 0.  In floating point the contraction of the
    backward maps makes the row of an eventually periodic point repeat,
    bit for bit, long before the certified depth, so each row keeps one
    checkpoint (row, scale and level; see _next_checkpoint for when).  A row
    whose scale equals its checkpoint's, at a lag for which _cycle_exit
    allows a jump (only at levels >= t0), is compared bit for bit; if
    equal, it leaves the array and joins again at the level _cycle_exit
    gives, as marginal rows join at their depth, and the countdown skips
    the levels with no row."""
    if not points:
        return np.empty(0)
    if len(points) == 1:
        return np.array([_scale(fs, points[0], depths[0])])
    t0 = [len(p.preperiod) for p in points]
    q = [len(p.period) for p in points]
    # a point whose depth lies in its preperiod shares no row
    tails: dict = {}
    for i, (p, n) in enumerate(zip(points, depths)):
        tails.setdefault((n, t0[i], p.period) if n >= t0[i] else i, []).append(i)
    # the first point of a tail carries its row; splits[t0][i] holds the
    # other points of point i's tail
    splits: dict[int, dict] = {}
    for lead, *rest in tails.values():
        if rest:
            splits.setdefault(t0[lead], {})[lead] = np.array(rest)
    column = _symbol_column(points)
    blocks, marginals, _ = fs.padded_stack
    # entries[k]: the (ids, rows) that join at level k + 1, before the step
    # to level k; the marginal rows of one depth join as one entry, so that
    # a level concatenates once however many points join there
    joining: dict[int, list] = {}
    for lead, *_ in tails.values():
        joining.setdefault(depths[lead], []).append(lead)
    entries: dict[int, list] = {
        n - 1: [(np.array(leads), marginals[[points[i].symbol_at(n) for i in leads]])] for n, leads in joining.items()
    }
    # per point: the checkpoint, the window and the level of the next
    # checkpoint (-1 once the point has left, and for the copied points,
    # which join below the levels of any cycle exit)
    count = len(points)
    mark_scale = np.full(count, math.nan)
    mark_level = np.zeros(count, dtype=np.intp)
    mark = np.zeros((count, marginals.shape[1]))
    window = np.full(count, FIRST_WINDOW)
    due = _next_checkpoint(np.asarray(depths, dtype=np.intp) + 1, FIRST_WINDOW)
    for rest in splits.values():
        due[np.concatenate(list(rest.values()))] = -1
    next_due = int(due.max())
    out = np.empty(count)
    rows, ids = marginals[:0], np.empty(0, dtype=np.intp)
    k = max(entries)
    while True:
        if joined := entries.pop(k, ()):
            ids = np.concatenate([ids, *(who for who, _ in joined)])
            rows = np.concatenate([rows, *(r for _, r in joined)])
        level = k + 1
        if copies := splits.pop(level, None):
            at = [(pos, copies[i]) for pos, i in enumerate(ids.tolist()) if i in copies]
            rows = np.concatenate([rows] + [np.repeat(rows[pos : pos + 1], len(rest), axis=0) for pos, rest in at])
            ids = np.concatenate([ids] + [rest for _, rest in at])
        sums = np.add.reduce(rows, axis=1)
        exits: dict[int, list] = {}
        for pos in (sums == mark_scale[ids]).nonzero()[0].tolist():
            i = int(ids[pos])
            m = _cycle_exit(t0[i], q[i], level, int(mark_level[i]) - level)
            if m < level and rows[pos].tobytes() == mark[i].tobytes():
                exits.setdefault(m, []).append(pos)
        if exits:
            for m, at in exits.items():
                if m == 0:
                    out[ids[at]] = sums[at]
                else:
                    entries.setdefault(m - 1, []).append((ids[at], rows[at]))
            gone = [pos for at in exits.values() for pos in at]
            mark_scale[ids[gone]] = math.nan
            due[ids[gone]] = -1
            next_due = int(due.max())
            keep = np.ones(len(ids), dtype=bool)
            keep[gone] = False
            rows, ids, sums = rows[keep], ids[keep], sums[keep]
        if not len(ids):
            if not entries:
                break
            k = max(entries)
            continue
        if level == next_due:
            at = np.flatnonzero(due[ids] == level)
            mark[ids[at]] = rows[at]
            mark_scale[ids[at]] = sums[at]
            taken = np.flatnonzero(due == level)
            mark_level[taken] = level
            window[taken] *= 2
            due[taken] = _next_checkpoint(level, window[taken])
            next_due = int(due.max())
        rows = _gathered_product(blocks, rows / sums[:, None], column(k)[ids], column(k + 1)[ids])
        if k == 0:
            break
        k -= 1
    out[ids] = np.add.reduce(rows, axis=1)
    for lead, rest in splits.pop(0, {}).items():
        out[rest] = out[lead]
    return out


def _lockstep_sequences(
    fs: FactorSystem, points: Sequence[PointSpec], lengths: Sequence[int], tails: Sequence[int]
) -> list[np.ndarray]:
    """The last t values psi_(n-t+1) .. psi_n of _psi_sequence(fs, p, n) for
    every point p, its length n and its tail 1 <= t <= n, a single point
    included, in one forward pass with one padded row (fs.padded_stack) per
    distinct point y of the batch and of its shifts: ones on the fiber of
    y0 at level 0, stepped and rescaled level by level.  With A(y, k) = log
    nu[y0..yk] read off level k, psi_n(x) = A(x, n) - A(sx, n - 1) for the
    shift sx, whose row at level n - 1 is _psi_sequence's w row of x at level
    n.  A row's last level is n as a point and n - 1 as a shift (the larger
    for a fixed point, which is both); rows are kept in order of falling
    last level, and a run of levels steps only those not past theirs.  The
    step blocks of a run of at most 16 levels are gathered at once,
    blocks[cols[:-1], cols[1:]] over the run's symbol columns, within
    STACK_DOUBLES doubles (shorter runs, then chunks of rows).  The logs are
    deferred: the row sums (1.0 at level 0) and the marginal dots (one
    _dots call per run) fill two (levels, rows) arrays, and math.log is
    taken once per distinct value among the entries read, a row's sums up to
    its last level and its dots from the first level a tail reads there on.
    np.add.accumulate adds the sums' logs along the levels from 0.0 in
    _psi_sequence's order, so the values read agree bit for bit."""
    if not points:
        return []
    shifted = [p.shifted(fs) for p in points]
    # the levels read at each row: values n - t + 1 .. n read its sums up to
    # n and its dots from n - t + 1 as the point, and one level less as the shift
    first, last = {}, {}
    for p, sp, n, t in zip(points, shifted, lengths, tails):
        for y, end in ((p, n), (sp, n - 1)):
            first[y] = min(first.get(y, end), end - t + 1)
            last[y] = max(last.get(y, 0), end)
    order = sorted(last, key=last.__getitem__, reverse=True)
    row_of = {y: i for i, y in enumerate(order)}
    count = len(order)
    starts, ends = np.array([first[y] for y in order]), np.array([last[y] for y in order])
    column = _symbol_column(order)
    blocks, marginals, ones = fs.padded_stack
    run = max(1, min(16, STACK_DOUBLES // (count * blocks[0, 0].size)))
    chunk = max(1, STACK_DOUBLES // (run * blocks[0, 0].size))
    levels = int(ends[0])
    sums = np.ones((levels + 1, count))
    dots = np.empty((levels + 1, count))
    cols = column(0)[None]
    # rows[0] holds the level before the run, rows[j] the run's level j
    rows = np.empty((run + 1, count, marginals.shape[1]))
    rows[0] = ones[cols[0]]
    dots[0] = _dots(rows[0], marginals[cols[0]])
    # the rows a run from level k steps: those whose last level is k or more
    lives = np.searchsorted(-ends, -np.arange(1, levels + 1, run), side="right").tolist()
    for k, live in zip(range(1, levels + 1, run), lives):
        cols = np.stack([cols[-1], *map(column, range(k, min(k + run, levels + 1)))])
        m = len(cols) - 1
        for at in (slice(j, min(j + chunk, live)) for j in range(0, live, chunk)):
            steps = blocks[cols[:-1, at], cols[1:, at]]
            for j in range(m):
                x = (rows[j, at, None] @ steps[j])[:, 0]
                sums[k + j, at] = s = np.add.reduce(x, axis=1)
                np.divide(x, s[:, None], out=rows[j + 1, at])
        stepped = rows[1 : m + 1, :live].reshape(m * live, -1)
        dots[k : k + m, :live] = _dots(stepped, marginals[cols[1:, :live].ravel()]).reshape(m, live)
        rows[0, :live] = rows[m, :live]
    level = np.arange(levels + 1)[:, None]
    read = [(level > 0) & (level <= ends), (level >= starts) & (level <= ends)]
    # rows that settle into a cycle repeat their sums and dots bit for bit, so
    # the distinct values are far fewer (1,222 of 16,666 entries read in the
    # nongibbs6 example's 61 scanned periodic points up to period 7)
    entries, at = np.unique(np.concatenate([sums[read[0]], dots[read[1]]]), return_inverse=True)
    values = np.fromiter(map(math.log, entries.tolist()), float, len(entries))[at]
    logs = np.zeros((2, levels + 1, count))
    logs[0][read[0]], logs[1][read[1]] = np.split(values, [np.count_nonzero(read[0])])
    total = np.add.accumulate(logs[0], axis=0) + logs[1]
    batch = zip(points, shifted, lengths, tails)
    return [total[n - t + 1 : n + 1, row_of[p]] - total[n - t : n, row_of[sp]] for p, sp, n, t in batch]


def _word_counts(fs: FactorSystem):
    """The numbers of admissible words of lengths 1, 2, 3, ..., 1^T M^(n-1) 1
    at length n, counted exactly in integers by first symbol."""
    table = fs.factor_tmc.successor_table
    starts = [1] * len(table)  # the words of the current length by first symbol
    while True:
        yield sum(starts)
        starts = [sum(starts[b] for b in row) for row in table]


def check_sweep_words(fs: FactorSystem, longest: int) -> None:
    """Refuse a sweep over the admissible words of lengths 1..longest when
    they number more than WORD_BUDGET (ModelError), counted (_word_counts)
    before any is built and only up to the first length past the budget."""
    total = 0
    for n, count in zip(range(1, longest + 1), _word_counts(fs)):
        total += count
        if total > WORD_BUDGET:
            message = f"a sweep over words of lengths up to {longest} would take at least {total:,} admissible words"
            raise ModelError(message + f" (those up to length {n}), beyond the word budget of {WORD_BUDGET:,}")


def _check_word_budget(fs: FactorSystem, gap: int) -> None:
    """Refuse a window of gap 2W when the admissible words of lengths
    2..gap number more than WORD_BUDGET (_word_counts).  The count bounds
    the window search's words (those of length W are fewer) and the rows
    of d_const on fibers of three or more symbols; on fibers of at most
    two d_const keeps at most 2 nb^2 rows per length."""
    total = sum(itertools.islice(_word_counts(fs), 1, gap))
    if total > WORD_BUDGET:
        message = f"d_const up to length {gap} would take {total:,} admissible words"
        raise CertificationError(message + f", beyond the word budget of {WORD_BUDGET:,}")


def _d_const(fs: FactorSystem, gap: int) -> float:
    """Worst delta(mu_hat(b0), x) over the backward images x of all words
    b0..bn of length 2..gap, level by level over suffixes: rows[b] stacks
    images of the current length's words that start with b, and
    backward_step takes the next level from the rows _extreme_rows keeps
    of them, after the level's distances are taken.

    The kept rows lose nothing in real arithmetic.  A row on a two-symbol
    fiber lies on the segment between the rows of least and greatest x1/x0,
    and a nonnegative row-allowable map carries that segment onto the
    segment between their images, so every image of every word at every
    later length lies in the convex hull of the images taken.
    delta(mu_hat(b0), .) has convex sublevel sets (Hilbert balls are
    convex), so its maximum over that hull is at an image taken; and each
    coordinate of a hull point lies between those of the images taken, so
    the refusals of zero and sub-1e-300 coordinates still see the smallest.
    Rows per level fall from the number of words to at most 2 nb^2 when no
    fiber is wider than two, and every row taken is bit for bit the row the
    full enumeration computes.
    """
    hats = [fs.marginal_hat(b).coords for b in range(fs.target_size)]
    rows = [hat[None, :] for hat in hats]
    d_const = 0.0
    for _ in range(gap - 1):
        kept = [_extreme_rows(level) for level in rows]
        rows = [normalize_rows(level) for level in backward_step(fs, kept)]
        for hat, level in zip(hats, rows):
            d_const = max(d_const, float(projective_distances(hat, level).max()))
    return d_const


def _extreme_rows(level: np.ndarray) -> np.ndarray:
    """The rows of one fiber that _d_const steps back: of more than two
    rows on a fiber of two symbols, those of least and greatest x1/x0; of
    more than two on a fiber of one symbol, whose rows are all (1,), one;
    otherwise, and on wider fibers, every row."""
    if len(level) <= 2 or level.shape[1] > 2:
        return level
    if level.shape[1] == 1:
        return level[:1]
    ratio = level[:, 1] / level[:, 0]
    return level.take((ratio.argmin(), ratio.argmax()), axis=0)


def _window_search(fs: FactorSystem) -> tuple[int, dict]:
    """The smallest window length W, from the pigeonhole value #B + 1 on,
    such that every admissible W-word holds a repeated-symbol block whose
    product is strictly positive (tau < 1), and the tau of every block of
    the W-words: the blocks a word-by-word search visits, as each block met
    at a shorter length is a block of a W-word too (words extend to the
    right).  Each length reads its blocks' tau from the cycle table
    (fs.word_taus), in which a zero entry gives tau 1.  A length is only
    tried when the d_const it would need passes _check_word_budget.
    """
    nb = fs.target_size
    max_window = 3 * (nb + 1)
    for w_len in range(nb + 1, max_window + 1):
        _check_word_budget(fs, 2 * w_len)
        word_blocks = [
            [symbols[m : l + 1] for l in range(1, w_len) for m in range(l) if symbols[m] == symbols[l]]
            for symbols in (word.symbols for word in enumerate_words(fs.factor_tmc, w_len))
        ]
        blocks = list(dict.fromkeys(b for blocks in word_blocks for b in blocks))
        taus = dict(zip(blocks, fs.word_taus(blocks)))
        if all(any(taus[block] < 1.0 for block in blocks) for blocks in word_blocks):
            return w_len, taus
    raise CertificationError(
        f"no window length up to {max_window} guarantees a positive "
        "repeated block in every admissible word"
    )


def uniform_constants(fs: FactorSystem) -> UniformConstants:
    """Certification constants valid at every point of the image shift.

    Requires a primitive image incidence (on a reducible image k_gibbs can
    read 0), row-allowable fiber blocks and orbit-level positivity of short
    cycle products.  Certification then searches for the smallest window
    length W (_window_search); tau is the worst Birkhoff coefficient over
    its positive blocks and all other constants follow the closed formulas;
    d_const is taken level by level over word suffixes.
    """
    if not check_primitivity(fs.factor_tmc).primitive:
        raise CertificationError("the image incidence is not primitive")
    h1 = fs.h1
    if not h1.passed:
        raise CertificationError(
            f"fiber blocks have all-zero rows: {h1.failures[:3]}"
        )
    h2 = fs.h2
    if not h2.passed:
        raise CertificationError(
            f"cycles without a positive rotation: {h2.orbit_failures}"
        )
    chosen_w, block_tau = _window_search(fs)
    tau = max(t for t in block_tau.values() if t < 1.0)
    # rank-one blocks contract instantly (tau ~ 0); keep tau away from zero
    # so the c1 = tau**-3 prefactor stays finite
    tau = max(tau, 1e-12)
    s = 2 * chosen_w
    theta = tau ** (1.0 / s)
    if theta == 1.0:
        message = f"decay rate tau**(1/gap) is 1 in double precision (tau {tau!r}, gap {s})"
        raise CertificationError(message + ", so it bounds no radius")
    c1 = tau**-3
    d_const = _d_const(fs, s)
    c_total = 2.0 * d_const * c1 / (1.0 - theta)
    k_gibbs = d_const * c1 / ((1.0 - tau) * (1.0 - theta))
    return UniformConstants(
        tau=tau,
        theta=theta,
        c1=c1,
        d_const=d_const,
        c_total=c_total,
        k_gibbs=k_gibbs,
        window=chosen_w,
        gap=s,
        metric_scale=2 * (fs.target_size + 1),
    )


def eigendata_many(fs: FactorSystem, points: Sequence[PointSpec]) -> list:
    """The potential at eventually periodic points through the dominant
    eigendata of their tails, with one Perron computation and one
    certificate per orbit of tails.

    An orbit's base is its first rotation, counting from the least, whose
    one-period product T (cyclically, from that phase) is pattern primitive
    and whose T^exponent, the word product over exponent periods, has a
    Birkhoff coefficient tau below 1; a candidate is tested only when the
    search reaches it, and one of contraction 1 passes to the next in a
    further pass.  A base whose exact |lambda_2| / rho (one eigvals call per
    stack) is at least PERRON_TOL ** (1 / MAX_POWER_STEPS) refuses its orbit
    before the power iteration, which could not converge in MAX_POWER_STEPS
    steps; the rotations share the spectrum, so no other candidate is
    tried.  The base's radius is the log of the min/max eigenvalue inclusion
    of its right Perron vector d_hat plus, for periods p >= 2, the
    a-posteriori vector term delta(d_hat, T^exponent d_hat) / (1 - tau).
    With W_j the block from rotation j of the base to j + 1, one backward
    pass around the cycle from right_0 = d_hat, for j = p - 1 .. 0, gives
    every rotation the scale c_j = |W_j right_(j+1)|_1, value log c_j and
    the base's radius, and right_j = W_j right_(j+1) / c_j: row-allowable
    W_j do not expand the Hilbert metric, |log 1^T W x - log 1^T W y| <=
    d(x, y), and for a fixed point |T d_hat|_1 is a d_hat-weighted mean of
    the inclusion's ratios.  Rotation j + 1's left vector is left_(j+1) ∝
    left_j W_j.  A point with a preperiod pushes its tail rotation's right
    vector back through its preperiod blocks, stacked per preperiod length,
    and its value is the log of the last scale.  Its error is at most the
    Hilbert distance of d_hat from the true vector, so its radius holds the
    vector term at every period (a period-1 base computes it for such
    points only, refused when its tau rounds to 1); its PerronData is its
    tail rotation's.

    Slot i holds (evaluation, eigendata) for points[i], None when no
    rotation of its tail has a primitive product, or the EvaluationRefused
    of a zero fiber row along it, of an orbit whose candidates all have
    contraction 1, or of an orbit refused for its spectral ratio.  A slot
    depends only on its point and orbit, bit for bit: the products, their
    exponents and the powers' tau come from the system's cycle table, each
    formed once, the bases' Perron data and certificates run on stacks of
    one size, the carried vectors on padded stacks of one period and of
    one preperiod length.
    """
    results: list = [None] * len(points)
    # least rotation w of a tail -> [(slot, k)] of the points whose period is w[k:] + w[:k]
    orbits: dict[tuple, list] = {}
    for i, point in enumerate(points):
        try:
            _check_point_rows(fs, point)
        except EvaluationRefused as exc:
            results[i] = exc
            continue
        rotations = [point.period[k:] + point.period[:k] for k in range(len(point.period))]
        least = min(rotations)
        orbits.setdefault(least, []).append((i, -rotations.index(least) % len(least)))
    carried = {w for w, members in orbits.items() if any(points[i].preperiod for i, _ in members)}

    def closed(w: tuple, k: int, periods: int = 1) -> tuple:
        word = (w[k:] + w[:k]) * periods  # rotation k of w, closed by its first symbol
        return word + word[:1]

    def contraction_refusal(w: tuple, k: int) -> EvaluationRefused:
        message = f"power {fs.word_exponent(closed(w, k))} of the one-period product has contraction 1"
        return EvaluationRefused(message + " in double precision, so it bounds no radius")

    # each orbit's pattern-primitive rotations, tested as the search reaches them
    candidates = {w: filter(lambda k, w=w: fs.word_exponent(closed(w, k)), range(len(w))) for w in orbits}
    products = fs.cycle_table.products  # holds every word word_exponent or word_taus has read
    # orbit -> (base rotation, radius, radius of a point with a preperiod or
    # its refusal, eigendata)
    bases: dict = {}
    refused: dict = {}  # orbit -> its refusal, the first candidate of contraction 1 unless a spectral ratio
    limit = PERRON_TOL ** (1.0 / MAX_POWER_STEPS)
    pending = list(orbits)
    while pending:
        by_size: dict[int, list] = {}
        for w in pending:
            if (k := next(candidates[w], None)) is not None:
                by_size.setdefault(len(products[closed(w, k)]), []).append((w, k))
        pending = []
        for group in by_size.values():
            ts = np.stack([products[closed(w, k)] for w, k in group])
            moduli = _moduli(ts)
            live = []
            for row, ((w, _), ratio) in enumerate(zip(group, (moduli[:, 0] / moduli[:, 1]).tolist())):
                # a nan ratio, from eigenvalues that did not converge, is not refused
                if ratio >= limit:
                    message = f"the one-period product's |l2|/rho {ratio:.6g} is at least {limit:.6g}, so its power"
                    refused[w] = EvaluationRefused(message + f" iteration cannot converge in {MAX_POWER_STEPS} steps")
                else:
                    live.append(row)
            if not live:
                continue
            ts, group = ts[live], [group[row] for row in live]
            pds = _perron_stack(ts, PERRON_TOL, MAX_POWER_STEPS, moduli[live])
            right = np.stack([pd.right for pd in pds])
            ratios = (ts @ right[..., None])[..., 0] / right
            inclusions = [math.log(r) for r in (ratios.max(axis=1) / ratios.min(axis=1)).tolist()]
            vector_terms = [0.0] * len(group)
            rows = [row for row, (w, _) in enumerate(group) if len(w) > 1 or w in carried]
            if rows:
                words = [closed(w, k, fs.word_exponent(closed(w, k))) for w, k in (group[row] for row in rows)]
                taus = fs.word_taus(words)
                x = normalize_rows(right[rows])
                image = normalize_rows((np.stack([products[w] for w in words]) @ x[..., None])[..., 0])
                for row, tau, gap in zip(rows, taus, projective_distances(x, image).tolist()):
                    vector_terms[row] = gap / (1.0 - tau) if tau < 1.0 else None
            for (w, k), pd, inclusion, vector_term in zip(group, pds, inclusions, vector_terms):
                if vector_term is None and len(w) > 1:
                    refused.setdefault(w, contraction_refusal(w, k))
                    pending.append(w)
                    continue
                tail = contraction_refusal(w, k) if vector_term is None else inclusion + vector_term + FLOAT_NOISE_FLOOR
                # a fixed point's own radius needs no vector term
                bases[w] = (k, tail if len(w) > 1 else inclusion + FLOAT_NOISE_FLOOR, tail, pd)
    for w in refused.keys() - bases.keys():
        for i, _ in orbits[w]:
            results[i] = refused[w]
    # rotation j of the base takes its right vector and value from rotation
    # j + 1 and its left vector from j - 1, on the zero-padded vectors and
    # blocks of fs.padded_stack, stacked over the orbits of one period
    blocks = fs.padded_stack[0]
    by_period: dict[int, list] = {}
    for w, (b, *_) in bases.items():
        by_period.setdefault(len(w), []).append((w, w[b:] + w[:b]))
    preperiodic: dict[int, list] = {}  # preperiod length -> [(slot, tail right vector, radius, eigendata)]
    periodic = ("dominant eigendata at a periodic point",)
    for p, group in by_period.items():
        words = np.array([word for _, word in group])
        rights, lefts = np.zeros((2, p, len(group), blocks.shape[-1]))
        for row, (w, _) in enumerate(group):
            pd = bases[w][3]
            rights[0, row, : len(pd.right)], lefts[0, row, : len(pd.left)] = pd.right, pd.left
        scales = np.empty((p, len(group)))
        for j in range(p - 1, -1, -1):
            v = _gathered_product(blocks, rights[(j + 1) % p], words[:, j], words[:, (j + 1) % p])
            scales[j] = v.sum(axis=1)
            if j:
                rights[j] = v / scales[j][:, None]
        for j in range(1, p):
            u = (lefts[j - 1][:, None, :] @ blocks[words[:, j - 1], words[:, j]])[:, 0]
            lefts[j] = u / _dots(u, rights[j])[:, None]
        for row, (w, _) in enumerate(group):
            b, radius, tail, pd = bases[w]
            for i, k in orbits[w]:
                j, n = (k - b) % p, len(fs.projection.fibers[w[k]])
                record = pd._replace(right=rights[j, row, :n], left=lefts[j, row, :n])
                if points[i].preperiod:
                    if isinstance(tail, EvaluationRefused):
                        results[i] = tail
                    else:
                        preperiodic.setdefault(len(points[i].preperiod), []).append((i, rights[j, row], tail, record))
                    continue
                value = math.log(scales[j, row])
                results[i] = (PotentialEvaluation(value, radius, pd.iterations, "certified", True, (), periodic), record)
    note = "dominant eigendata of the periodic tail, carried through the preperiod"
    for t0, group in preperiodic.items():
        words = np.array([points[i].preperiod + points[i].period[:1] for i, *_ in group])
        v = np.stack([right for _, right, _, _ in group])
        for m in range(t0 - 1, -1, -1):
            v = _gathered_product(blocks, v, words[:, m], words[:, m + 1])
            scale = v.sum(axis=1)
            v = v / scale[:, None]
        for (i, _, radius, record), value in zip(group, map(math.log, scale.tolist())):
            results[i] = (PotentialEvaluation(value, radius, record.iterations, "certified", True, (), (note,)), record)
    return results


def periodic_many(
    fs: FactorSystem, points: Sequence[PointSpec], target_error: float = DEFAULT_TARGET_ERROR
) -> list:
    """The potential at purely periodic points (AdmissibilityError for a
    preperiod).  Slot i holds (evaluation, eigendata) for points[i], or the
    EvaluationRefused that eigendata_many puts there.  The points of orbits
    where no rotation's one-period product is pattern primitive go straight
    from eigendata_many to the forward scan (_scanned), which may report
    divergence, noted as such and with eigendata None.  target_error is
    checked, though no route here reads it."""
    if any(p.preperiod for p in points):
        raise AdmissibilityError("the eigendata route needs a purely periodic point")
    check_target_error(target_error)
    results = eigendata_many(fs, points)
    fallback = [i for i, result in enumerate(results) if result is None]
    scanned = _scanned(fs, [points[i] for i in fallback], [_scan_plan(points[i]) for i in fallback])
    note = "one-period product is not primitive; eigendata route refused"
    for i, ev in zip(fallback, scanned):
        results[i] = (ev._replace(notes=ev.notes + (note,)), None)
    return results


def periodic_potential(
    fs: FactorSystem, point: PointSpec, target_error: float = DEFAULT_TARGET_ERROR
) -> tuple[PotentialEvaluation, Optional[PerronData]]:
    """periodic_many at one point; raises the point's EvaluationRefused."""
    result = periodic_many(fs, [point], target_error)[0]
    if isinstance(result, EvaluationRefused):
        raise result
    return result


def _greedy_cycle_walk(fs: FactorSystem, start: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedy lexicographic walk from start until a symbol repeats.

    Returns (transient, cycle): the walk is start, ..., then cycles.
    """
    walk = [start]
    while (nxt := fs.factor_tmc.successors(walk[-1])[0]) not in walk:
        walk.append(nxt)
    i = walk.index(nxt)
    return tuple(walk[:i]), tuple(walk[i:])


def _return_path(fs: FactorSystem, src: int, dst: int) -> tuple[int, ...]:
    """The symbols strictly between src and dst on the shortest admissible
    path src -> dst of 1 to #B steps, with lexicographic ties."""
    successors = fs.factor_tmc.successors
    frontier: list[tuple[int, ...]] = [(src,)]
    for _ in range(fs.target_size):
        nxt: list[tuple[int, ...]] = []
        for path in frontier:
            for s in successors(path[-1]):
                if s == dst:
                    return path[1:]
                nxt.append(path + (s,))
        frontier = nxt
    raise ModelError(f"no return path from symbol {src} to symbol {dst}")


def canonical_extension(fs: FactorSystem, symbols: Word | Sequence[int]) -> PointSpec:
    """Deterministic eventually periodic point with the given prefix: the
    periodic completion through the shortest admissible return path from
    the last symbol to the first (_return_path), which depends only on that
    pair.  The path always exists: MarkovModel requires a strictly positive
    stationary vector, so every source state is recurrent, every source edge
    and hence every image edge lies on a cycle, and the last symbol of an
    admissible word leads back to its first in at most #B steps."""
    symbols = word_symbols(fs.factor_tmc, symbols)
    return PointSpec._absorbed((), primitive_root(symbols + _return_path(fs, symbols[-1], symbols[0])))


def tail_completions(fs: FactorSystem, symbols: Word | Sequence[int], count: int = 2) -> list[PointSpec]:
    """Up to count distinct eventually periodic points sharing the prefix.

    Explores admissible continuations of #B + 1 symbols in lexicographic
    order and closes each into a cycle greedily, deduplicating the results.
    The walk starts from the last symbol alone: two completions are
    distinct exactly when their continuations from it are, so the points
    are symbols[:-1] joined to the completions of (symbols[-1],), which
    holder_variation takes once per symbol.
    """
    symbols = word_symbols(fs.factor_tmc, symbols)
    depth = fs.target_size + 1
    tails: list[PointSpec] = []

    def walk(path: tuple[int, ...], d: int) -> bool:
        if d == depth:
            transient, cycle = _greedy_cycle_walk(fs, path[-1])
            point = PointSpec._absorbed(path[:-1] + transient, cycle)
            if point not in tails:
                tails.append(point)
            return len(tails) >= count
        return any(walk(path + (s,), d + 1) for s in fs.factor_tmc.successors(path[-1]))

    walk(symbols[-1:], 0)
    return [PointSpec._absorbed(symbols[:-1] + t.preperiod, t.period) for t in tails]


class HolderReport(NamedTuple):
    """Sampled variation table of the potential.

    var[n] is the largest observed |psi(b) - psi(b')| over sampled pairs
    agreeing on at least the first n + 1 symbols (cumulative over deeper
    levels, hence nonincreasing).  bound[n] is c_total theta^n plus twice the
    worst evaluation radius.
    """

    var: tuple[float, ...]
    level_spread: tuple[float, ...]
    bound: tuple[float, ...]
    bound_ok: bool
    fitted_rate: Optional[float]
    theta: float
    exponent: float
    max_eval_radius: float


def _sweep_points(fs: FactorSystem, n_max: int, keys_of) -> tuple[list[PointSpec], list]:
    """One list of the distinct points of a sweep, in first-seen order, and
    per depth n the words w of length n + 1 whose keys_of(w), the key()s of
    canonical points, is not empty, with an index array holding one row per
    word: the indices of those points in the list."""
    index: dict = {}
    levels = []
    for n in range(n_max + 1):
        words, rows = [], []
        for word in enumerate_words(fs.factor_tmc, n + 1):
            if keys := keys_of(word.symbols):
                words.append(word.symbols)
                rows.append([index.setdefault(k, len(index)) for k in keys])
        levels.append((words, np.array(rows, dtype=np.intp)))
    return [PointSpec._absorbed(*k) for k in index], levels


def holder_variation(
    fs: FactorSystem,
    constants: UniformConstants,
    n_max: int,
) -> HolderReport:
    """Sample var_n psi over all words of each length up to n_max, at the
    two tail_completions of each word, joined from the completions of its
    last symbol: an index table into one list of distinct points
    (_sweep_points), evaluated in one batch (evaluate_many) to a target
    error of 1e-11.  Words past WORD_BUDGET are refused (check_sweep_words)."""
    check_sweep_depth(n_max)
    check_sweep_words(fs, n_max + 1)
    # a symbol with a single completion gives its words no pair
    tails = {b: pts for b in range(fs.target_size) if len(pts := tail_completions(fs, (b,), 2)) == 2}

    def completions(w):
        return [PointSpec._canonical_key(w[:-1] + t.preperiod, t.period) for t in tails.get(w[-1], ())]

    points, levels = _sweep_points(fs, n_max, completions)
    evs = evaluate_many(fs, points, 1e-11, constants)
    values = np.array([ev.value for ev in evs])
    max_radius = max((ev.error_radius for ev in evs), default=0.0)
    level = [float(np.ptp(values[at].reshape(-1, 2), axis=1).max(initial=0.0)) for _, at in levels]
    var = list(level)
    for n in range(n_max - 1, -1, -1):
        var[n] = max(var[n], var[n + 1])
    bound = [
        constants.c_total * constants.theta**n + 2.0 * max_radius
        for n in range(n_max + 1)
    ]
    bound_ok = all(v <= b for v, b in zip(var, bound))
    floor = max(100.0 * max_radius, 1e-12)
    pts = [(n, math.log(v)) for n, v in enumerate(var) if v > floor]
    fitted = None
    if len(pts) >= 3:
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        slope = np.polyfit(xs, ys, 1)[0]
        fitted = float(np.exp(slope))
    return HolderReport(
        var=tuple(var),
        level_spread=tuple(level),
        bound=tuple(bound),
        bound_ok=bound_ok,
        fitted_rate=fitted,
        theta=constants.theta,
        exponent=constants.holder_exponent,
        max_eval_radius=max_radius,
    )


class ObstructionReport(NamedTuple):
    """Finite-range obstruction for a two-fiber full-shift factor.

    A potential of finite range forces at least one of: the two diagonal
    fiber blocks share their positive eigenvector; some fiber block has rank
    one; the all-ones vector is a left eigenvector of every block.  All three
    false excludes finite range.
    """

    shared_eigenvector: bool
    rank_one_block: bool
    ones_left_eigenvector: bool
    excluded: bool
    details: dict


OBSTRUCTION_TOL = 1e-10


def finite_range_obstruction(fs: FactorSystem) -> ObstructionReport:
    """Test the three finite-range conditions on a 2+2 full-shift factor."""
    if fs.target_size != 2:
        raise ModelError("obstruction test needs a two-symbol factor alphabet")
    if any(len(f) != 2 for f in fs.projection.fibers):
        raise ModelError("obstruction test needs two source symbols per fiber")
    if not (fs.model.tmc.incidence == 1).all():
        raise ModelError("obstruction test needs a full-shift source")
    blocks = {key: fs.fiber_weight[key] for key in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    v00 = perron_data(blocks[(0, 0)]).right
    v11 = perron_data(blocks[(1, 1)]).right
    shared = bool(np.abs(v00 - v11).max() <= OBSTRUCTION_TOL)
    dets = {
        key: float(np.linalg.det(b)) / float(np.abs(b).max() ** 2)
        for key, b in blocks.items()
    }
    rank_one = bool(any(abs(d) <= OBSTRUCTION_TOL for d in dets.values()))
    col_gaps = {}
    for key, b in blocks.items():
        sums = b.sum(axis=0)
        col_gaps[key] = float(np.abs(sums - sums.mean()).max() / sums.max())
    ones_left = not any(gap > OBSTRUCTION_TOL for gap in col_gaps.values())
    return ObstructionReport(
        shared_eigenvector=shared,
        rank_one_block=rank_one,
        ones_left_eigenvector=ones_left,
        excluded=not (shared or rank_one or ones_left),
        details={
            "eigenvector_gap": float(np.abs(v00 - v11).max()),
            "relative_determinants": dets,
            "column_sum_gaps": col_gaps,
        },
    )
