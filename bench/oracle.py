"""Independent reference values for the benchmark's output checks.

Uses numpy only and reads the model JSON directly; nothing here calls the
package under test.  Cylinder weights are computed by forward row products
of transition sub-blocks with log rescaling,

    log nu[b0..bn] = log (mu|fiber(b0)) P[b0,b1] ... P[b(n-1),bn] 1,

and psi_n(b) = log nu[b0..bn] - log nu[b1..bn] is evaluated for a whole batch
of eventually periodic points at once.  Its limit (or, where it has none, the
limits of its stabilising subsequences) is what printed values are checked
against.  The Birkhoff coefficient uses the split
min_{e,f} cross = min_{e',f'} (min_c D - max_c D), D = log T[e',.] - log T[f',.],
which is a different algorithm from the package's quadruple enumeration.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

# depth of the forward psi_n sequence
DEPTH = 2000
# a residue class counts as stable when its last-half spread is below this
STABLE_SPREAD = 1e-11
# class limits closer than this are one cluster
CLUSTER_GAP = 1e-7


class OracleModel:
    """Transition matrix, stationary vector and fibers read from a model file."""

    def __init__(self, doc: dict):
        labels = [str(x) for x in doc["alphabet"]]
        self.p = np.asarray(doc["transition"], dtype=float)
        self.target_labels: list[str] = []
        for lab in labels:
            t = str(doc["projection"][lab])
            if t not in self.target_labels:
                self.target_labels.append(t)
        self.nb = len(self.target_labels)
        self.fibers = [
            [i for i, lab in enumerate(labels) if str(doc["projection"][lab]) == t]
            for t in self.target_labels
        ]
        n = len(labels)
        self.mask = np.zeros((self.nb, n))
        for b, fib in enumerate(self.fibers):
            self.mask[b, fib] = 1.0
        # stationary row vector: mu (P - I) = 0, sum mu = 1
        a = np.vstack([(self.p - np.eye(n)).T, np.ones(n)])
        rhs = np.zeros(n + 1)
        rhs[-1] = 1.0
        self.mu = np.linalg.lstsq(a, rhs, rcond=None)[0]
        self.blocks = [
            [self.p[np.ix_(f, f2)] for f2 in self.fibers] for f in self.fibers
        ]
        self.factor_incidence = np.array(
            [[int(self.block(b, b2).any()) for b2 in range(self.nb)] for b in range(self.nb)]
        )

    @classmethod
    def load(cls, path: str) -> "OracleModel":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def block(self, b: int, b2: int) -> np.ndarray:
        return self.blocks[b][b2]

    def product(self, word) -> np.ndarray:
        out = self.blocks[word[0]][word[1]]
        for a, b in zip(word[1:], word[2:]):
            out = out @ self.blocks[a][b]
        return out

    def index(self, label: str) -> int:
        return self.target_labels.index(label)

    def word_count(self, length: int) -> int:
        """Admissible factor words of the given length: 1^T M^(length-1) 1."""
        m = np.linalg.matrix_power(self.factor_incidence, length - 1)
        return int(m.sum())

    def full_support(self) -> bool:
        return bool((self.p > 0).all())

    def h1_h2(self) -> tuple[bool, bool]:
        """Row-allowable fiber blocks; some positive rotation on every short cycle."""
        h1 = all(
            self.block(b, b2).any(axis=1).all()
            for b in range(self.nb)
            for b2 in range(self.nb)
            if self.factor_incidence[b, b2]
        )
        orbits: dict[tuple, bool] = {}
        for period in range(1, self.nb + 1):
            for cyc in itertools.product(range(self.nb), repeat=period):
                closed = cyc + (cyc[0],)
                if not all(self.factor_incidence[a, b] for a, b in zip(closed, closed[1:])):
                    continue
                key = min(cyc[k:] + cyc[:k] for k in range(period))
                positive = bool((self.product(closed) > 0).all())
                orbits[key] = orbits.get(key, False) or positive
        return h1, all(orbits.values())


def birkhoff_tau(t: np.ndarray) -> float:
    """Birkhoff contraction coefficient of a nonnegative matrix."""
    if (t <= 0).any():
        return 1.0
    lg = np.log(t)
    d = lg[:, None, :] - lg[None, :, :]
    phi = math.exp(float((d.min(axis=2) - d.max(axis=2)).min()))
    root = math.sqrt(phi)
    return (1.0 - root) / (1.0 + root)


def full_shift_tau(om: OracleModel) -> float:
    """Worst coefficient over repeated-symbol blocks inside words of length nb+1.

    On a full-support full shift every such block is positive, so the
    certification window is nb + 1 and this is the certified tau.
    """
    worst = 0.0
    for length in range(2, om.nb + 2):
        for word in itertools.product(range(om.nb), repeat=length):
            if word[0] == word[-1]:
                worst = max(worst, birkhoff_tau(om.product(word)))
    return max(worst, 1e-12)


def full_shift_depth(om: OracleModel, target_error: float) -> int:
    """Depth at which the uniform-constant radius of a full shift meets the target.

    Only the benchmark's input generator uses this, as a cost proxy: the
    certified backward iteration runs this many steps per point.
    """
    tau = full_shift_tau(om)
    gap = 2 * (om.nb + 1)
    theta = tau ** (1.0 / gap)
    # d: worst oscillation of log(P[w0,w1] ... P[w(n-1),wn] 1) over words of
    # length 2 .. gap, built up from their suffixes
    d = 0.0
    level = {(b,): np.ones(len(om.fibers[b])) for b in range(om.nb)}
    for _ in range(gap - 1):
        level = {
            (b,) + w: om.blocks[b][w[0]] @ v for w, v in level.items() for b in range(om.nb)
        }
        for v in level.values():
            lv = np.log(v)
            d = max(d, float(lv.max() - lv.min()))
    prefactor = d * tau**-3 / (1.0 - tau)
    return max(gap + 2, math.ceil(math.log(target_error / prefactor) / math.log(theta)))


def psi_sequences(om: OracleModel, points, depth: int = DEPTH) -> np.ndarray:
    """psi_1 .. psi_depth for each (preperiod, period) point; one row per point."""
    m = len(points)
    sym = np.empty((m, depth + 1), dtype=int)
    for row, (pre, per) in enumerate(points):
        seq = list(pre) + list(per) * ((depth + 1) // len(per) + 1)
        sym[row] = seq[: depth + 1]

    def start(pos: int) -> tuple[np.ndarray, np.ndarray]:
        u = om.mask[sym[:, pos]] * om.mu
        total = u.sum(axis=1)
        return u / total[:, None], np.log(total)

    def step(u: np.ndarray, pos: int) -> tuple[np.ndarray, np.ndarray]:
        u = (u @ om.p) * om.mask[sym[:, pos]]
        s = u.sum(axis=1)
        return u / np.where(s > 0, s, 1.0)[:, None], s

    # psi_n = log nu[b0..bn] - log nu[b1..bn]; from n = 2 on, each step adds
    # log(sA / sB) of the two one-step scale factors, terms that shrink as the
    # two normalized row vectors merge, so no large log sums are subtracted
    out = np.empty((m, depth))
    ua, log_a = start(0)
    ua, sa = step(ua, 1)
    ub, log_b = start(1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[:, 0] = log_a + np.log(sa) - log_b
        for n in range(2, depth + 1):
            ua, sa = step(ua, n)
            ub, sb = step(ub, n)
            out[:, n - 1] = out[:, n - 2] + np.log(sa / sb)
    return out


def limits(values: np.ndarray, preperiod: int, period: int) -> dict:
    """Limit of one psi_n sequence, or the limits of its stable subsequences.

    Returns {"kind": "value", "value", "error"}, {"kind": "diverged",
    "clusters"} or {"kind": "unresolved"}.  values[i] is psi_(i+1).
    """
    depth = len(values)
    if not np.isfinite(values).all():
        return {"kind": "unresolved"}
    half = max(depth // 2, preperiod + 1)
    ns = np.arange(1, depth + 1)
    for k in range(1, 7):
        m = period * k
        class_limits = []
        spread = 0.0
        for r in range(m):
            sel = values[(ns >= half) & ((ns - preperiod) % m == r)]
            if len(sel) < 4:
                break
            spread = max(spread, float(sel.max() - sel.min()))
            class_limits.append(float(sel[-1]))
        else:
            if spread > STABLE_SPREAD:
                continue
            class_limits.sort()
            clusters = [[class_limits[0]]]
            for v in class_limits[1:]:
                if v - clusters[-1][-1] > CLUSTER_GAP:
                    clusters.append([v])
                else:
                    clusters[-1].append(v)
            if len(clusters) == 1:
                c = clusters[0]
                return {"kind": "value", "value": c[-1], "error": spread + (c[-1] - c[0])}
            return {"kind": "diverged", "clusters": [math.fsum(c) / len(c) for c in clusters]}
    return {"kind": "unresolved"}


def point_limits(om: OracleModel, points, depth: int = DEPTH) -> list[dict]:
    """limits() for each (preperiod, period) point, evaluated as one batch."""
    if not points:
        return []
    seqs = psi_sequences(om, points, depth)
    return [limits(seqs[i], len(pre), len(per)) for i, (pre, per) in enumerate(points)]


def periodic_points(om: OracleModel, max_period: int) -> list[tuple[int, ...]]:
    """Every rotation of every primitive admissible cycle of period <= max_period."""
    out = []
    for p in range(1, max_period + 1):
        for cyc in itertools.product(range(om.nb), repeat=p):
            closed = cyc + (cyc[0],)
            if not all(om.factor_incidence[a, b] for a, b in zip(closed, closed[1:])):
                continue
            if any(p % q == 0 and cyc == cyc[q:] + cyc[:q] for q in range(1, p)):
                continue
            out.append(cyc)
    return out
