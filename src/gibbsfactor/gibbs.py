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

import math
from typing import NamedTuple, Optional

from .potential import (
    PointSpec,
    UniformConstants,
    _return_path,
    check_sweep_depth,
    evaluate_many,
    markov_approx,
)
from .projection import FactorSystem, log_nu_cylinders
from .tmc import enumerate_words, primitive_root

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


def _extension_shifts(fs: FactorSystem, n_max: int) -> list:
    """Per depth n, (word, keys) for each word of length n + 1: the keys
    (preperiod, period) of the shifts j = 0 .. n of its canonical_extension,
    the rotations of a primitive period.  Each (last, first) pair's return
    path is searched once."""
    returns: dict = {}
    levels = []
    for n in range(n_max + 1):
        level = []
        for word in enumerate_words(fs.factor_tmc, n + 1):
            w = word.symbols
            ends = (w[-1], w[0])
            if ends not in returns:
                returns[ends] = _return_path(fs, *ends)
            period = primitive_root(w + returns[ends])
            rotations = [((), period[r:] + period[:r]) for r in range(min(len(period), n + 1))]
            level.append((word, [rotations[j % len(period)] for j in range(n + 1)]))
        levels.append(level)
    return levels


def bgi_sweep(
    fs: FactorSystem,
    n_max: int,
    constants: Optional[UniformConstants] = None,
    target_error: float = 1e-10,
) -> BgiReport:
    """Gibbs-ratio table over all cylinders of depth 0 .. n_max, along the
    shifts of each word's canonical_extension: built as keys
    (_extension_shifts), one PointSpec per distinct key in first-seen order,
    all evaluated in one batch (evaluate_many); the cylinder masses come
    from one backward pass (log_nu_cylinders).

    Where the potential diverges, the finite-range stand-in psi_m at a fixed
    even horizon m (markov_approx) takes its place; the fixed parity keeps
    the stand-in on a single subsequence cluster, so the sweep still sees
    the unbounded correction.
    """
    check_sweep_depth(n_max)
    horizon = max(PROXY_HORIZON_MIN, 2 * (n_max + 2))
    levels = _extension_shifts(fs, n_max)
    distinct = dict.fromkeys(k for level in levels for _, keys in level for k in keys)
    unique = {k: PointSpec._absorbed(*k) for k in distinct}
    cache = dict(zip(unique, evaluate_many(fs, list(unique.values()), target_error, constants)))
    diverged = [k for k, ev in cache.items() if ev.mode == "diverged"]
    proxies = {k: markov_approx(fs, unique[k].symbols(horizon + 1)) for k in diverged}
    log_nu = log_nu_cylinders(fs, n_max + 1)
    rows = []
    for n, level in enumerate(levels):
        log_r_min, log_r_max = math.inf, -math.inf
        max_radius = 0.0
        level_proxied = False
        for word, keys in level:
            total = 0.0
            for k in keys:
                if k in proxies:
                    total += proxies[k]
                    level_proxied = True
                else:
                    total += cache[k].value
                    max_radius = max(max_radius, cache[k].error_radius)
            log_r = log_nu[word.symbols] - total
            log_r_min = min(log_r_min, log_r)
            log_r_max = max(log_r_max, log_r)
        k_emp = max(abs(log_r_min), abs(log_r_max))
        if constants is not None and not level_proxied:
            slack = (n + 1) * max_radius + constants.c_total / (1.0 - constants.theta)
            k_cert = constants.k_gibbs
            verdict = "pass" if k_emp <= k_cert + slack else "fail"
        else:
            slack = k_cert = math.nan
            verdict = "uncertified"
        rows.append(
            BgiRow(
                n=n,
                cylinder_count=len(level),
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
        proxy_points=len(proxies),
        notes=(stand_in,) if proxies else (),
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
