"""Empirical Gibbs-ratio sweeps and exact invariance checks for the image measure.

For each cylinder word w of depth n the ratio R_n(w) compares nu[w] with the
Birkhoff sum of the potential along a canonical eventually periodic point
through w.  Bounded |log R_n(w)| across depths is the Gibbs property; with
uniform constants the bound is certified up to an explicit slack, without
them the sweep is reported uncertified (and for divergent-potential systems
a fixed-horizon finite-range approximant stands in for the potential, so
growth of K_emp is meaningful rather than an artifact).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

from .potential import (
    DEFAULT_TARGET_ERROR,
    PointSpec,
    UniformConstants,
    _return_path,
    _sweep_points,
    check_sweep_depth,
    check_sweep_words,
    evaluate_many,
    markov_approx,
)
from .projection import FactorSystem, log_nu_cylinders
from .tmc import enumerate_words, primitive_root

# imported last: without cached bytecode, potential.py then compiles before
# numpy loads, which keeps the peak resident memory about 2 MB lower
import numpy as np

# horizon floor for the finite-range stand-in at divergent points
PROXY_HORIZON_MIN = 40


class BgiRow(NamedTuple):
    n: int
    cylinder_count: int
    r_min: float
    r_max: float
    k_emp: float
    k_cert: float
    slack: float
    verdict: str


class BgiReport(NamedTuple):
    rows: tuple[BgiRow, ...]
    certified: bool
    proxy_points: int
    notes: tuple[str, ...] = ()


def _extension_shifts(fs: FactorSystem, n_max: int) -> tuple[list[PointSpec], list]:
    """_sweep_points over the shifts j = 0 .. n of each word's
    canonical_extension, the rotations of one primitive period, as an index
    array of shape (words, n + 1) per depth n.  Each (last, first) pair's
    return path is searched once."""
    return_path = functools.cache(lambda last, first: _return_path(fs, last, first))

    def shifts(w):
        period = primitive_root(w + return_path(w[-1], w[0]))
        return [((), period[j % len(period) :] + period[: j % len(period)]) for j in range(len(w))]

    return _sweep_points(fs, n_max, shifts)


def bgi_sweep(
    fs: FactorSystem,
    n_max: int,
    constants: Optional[UniformConstants] = None,
    target_error: float = DEFAULT_TARGET_ERROR,
) -> BgiReport:
    """Gibbs-ratio table over all cylinders of depth 0 .. n_max, along the
    shifts of each word's canonical_extension: an index table into one list
    of distinct points (_extension_shifts), evaluated in one batch
    (evaluate_many); each word's Birkhoff sum adds its row of values left
    to right, and the cylinder masses come from one backward pass
    (log_nu_cylinders).  Words past WORD_BUDGET are refused
    (check_sweep_words).

    Where the potential diverges, the finite-range stand-in psi_m at a fixed
    even horizon m (markov_approx) takes its place; the fixed parity keeps
    the stand-in on a single subsequence cluster, so the sweep still sees
    the unbounded correction.
    """
    check_sweep_depth(n_max)
    check_sweep_words(fs, n_max + 1)
    horizon = max(PROXY_HORIZON_MIN, 2 * (n_max + 2))
    points, levels = _extension_shifts(fs, n_max)
    evs = evaluate_many(fs, points, target_error, constants)
    proxied = np.array([ev.mode == "diverged" for ev in evs])
    values = [markov_approx(fs, p.symbols(horizon + 1)) if d else ev.value for p, ev, d in zip(points, evs, proxied)]
    values = np.array(values)
    # a stand-in's radius does not count; radii are >= 0, so 0.0 never wins
    radii = np.where(proxied, 0.0, [ev.error_radius for ev in evs])
    log_nu = log_nu_cylinders(fs, n_max + 1)
    rows = []
    for n, (words, at) in enumerate(levels):
        log_r = np.array([log_nu[w] for w in words]) - np.add.accumulate(values[at], axis=1)[:, -1]
        log_r_min, log_r_max = float(log_r.min()), float(log_r.max())
        k_emp = max(abs(log_r_min), abs(log_r_max))
        if constants is not None and not proxied[at].any():
            slack = (n + 1) * float(radii[at].max()) + constants.c_total / (1.0 - constants.theta)
            k_cert = constants.k_gibbs
            verdict = "pass" if k_emp <= k_cert + slack else "fail"
        else:
            slack = k_cert = math.nan
            verdict = "uncertified"
        rows.append(
            BgiRow(
                n=n,
                cylinder_count=len(words),
                r_min=math.exp(log_r_min),
                r_max=math.exp(log_r_max),
                k_emp=k_emp,
                k_cert=k_cert,
                slack=slack,
                verdict=verdict,
            )
        )
    stand_in = (
        f"potential diverges at some points; a depth-{horizon} "
        "finite-range stand-in was used there"
    )
    return BgiReport(
        rows=tuple(rows),
        certified=constants is not None and all(r.verdict != "uncertified" for r in rows),
        proxy_points=int(proxied.sum()),
        notes=(stand_in,) if proxied.any() else (),
    )


class InvarianceRow(NamedTuple):
    n: int
    mass_residual: float
    shift_residual: float
    consistency_residual: float
    cocycle_residual: float


class InvarianceReport(NamedTuple):
    rows: tuple[InvarianceRow, ...]

    @property
    def max_residual(self) -> float:
        return max(
            max(
                r.mass_residual,
                r.shift_residual,
                r.consistency_residual,
                r.cocycle_residual,
            )
            for r in self.rows
        )


def invariance_suite(fs: FactorSystem, n_max: int) -> InvarianceReport:
    """Exact identities the image measure must satisfy, depth by depth.

    At each depth n: total cylinder mass is 1; summing over the first symbol
    reproduces the shorter cylinder (shift invariance); summing over an
    appended symbol reproduces the cylinder (consistency); and the one-step
    ratios nu[b0 w]/nu[w] over admissible first symbols b0 sum to 1 (the
    normalization that makes the induced potential a transition log-ratio in
    the finite-range limit).  The cylinder masses come from one backward
    pass (log_nu_cylinders).
    """
    check_sweep_depth(n_max, least=1)
    tmc = fs.factor_tmc
    nu = {w: math.exp(log) for w, log in log_nu_cylinders(fs, n_max + 1).items()}
    rows = []
    for n in range(1, n_max + 1):
        words_n = [w.symbols for w in enumerate_words(tmc, n)]
        mass = abs(math.fsum(nu[w] for w in words_n) - 1.0)
        shift = 0.0
        consistency = 0.0
        cocycle = 0.0
        for w in words_n:
            heads = [(b0,) + w for b0 in range(fs.target_size) if tmc.allows(b0, w[0])]
            front = math.fsum(nu[u] for u in heads)
            shift = max(shift, abs(front - nu[w]))
            back = math.fsum(nu[w + (b2,)] for b2 in tmc.successors(w[-1]))
            consistency = max(consistency, abs(back - nu[w]))
            ratio = math.fsum(nu[u] / nu[w] for u in heads)
            cocycle = max(cocycle, abs(ratio - 1.0))
        rows.append(
            InvarianceRow(
                n=n,
                mass_residual=mass,
                shift_residual=shift,
                consistency_residual=consistency,
                cocycle_residual=cocycle,
            )
        )
    return InvarianceReport(rows=tuple(rows))
