"""Command line front end.

Exit codes: 0 on success (or a passing check), 1 when a mathematical check
fails (hypotheses violated, divergent potential, bound exceeded, evaluation
refused), 2 on input, usage or output-file errors.  Output is deterministic
for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Optional

from . import models
from .errors import (
    CertificationError,
    EvaluationRefused,
    GibbsFactorError,
)
from .gibbs import bgi_sweep, invariance_suite
from .potential import (
    DEFAULT_TARGET_ERROR,
    PointSpec,
    UniformConstants,
    check_sweep_depth,
    check_sweep_words,
    check_target_error,
    evaluate,
    finite_range_obstruction,
    holder_variation,
    periodic_many,
    uniform_constants,
)
from .projection import MARKOV_SEARCH_DEPTH, FactorSystem, check_topological_markov
from .tmc import check_primitivity, enumerate_periodic


def _fmt(x: float) -> str:
    if x != x:
        return "n/a"
    if math.isinf(x):
        return "inf"
    return f"{x:.12g}"


def _parse_point(fs: FactorSystem, text: str) -> PointSpec:
    """PRE/PERIOD (or PERIOD) over target labels: one label per character,
    or, when the text holds a comma anywhere, comma-separated labels in
    both parts."""
    pre_text, per_text = text.split("/", 1) if "/" in text else ("", text)
    split = (lambda part: [t for t in part.split(",") if t]) if "," in text else list
    return PointSpec.from_labels(fs, split(pre_text), split(per_text))


def _point_str(fs: FactorSystem, point: PointSpec) -> str:
    """PRE(PERIOD)*, one character per label; over an alphabet with a label
    longer than one character the labels are joined by commas and the
    period ends with one, so that PRE/PERIOD always reads back as the point
    (_parse_point)."""
    labels = fs.projection.target.labels
    sep = "," if any(len(label) > 1 for label in labels) else ""
    pre = sep.join(labels[s] for s in point.preperiod)
    per = sep.join(labels[s] for s in point.period) + sep
    return f"{pre}({per})*" if pre else f"({per})*"


def _write_csv(path: Optional[str], table: list[str]) -> None:
    """Write the printed table lines to path, when one is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in table))
        print(f"wrote {path}")


def _try_constants(fs: FactorSystem) -> tuple[Optional[UniformConstants], Optional[str]]:
    try:
        return uniform_constants(fs), None
    except CertificationError as exc:
        return None, str(exc)


def cmd_check(args) -> int:
    fs = models.load_model(args.model)
    # a bad depth is refused before anything is printed
    tm = check_topological_markov(fs, depth=args.depth)
    for name, tmc in (("source", fs.model.tmc), ("factor", fs.factor_tmc)):
        prim = check_primitivity(tmc)
        state = f"primitive (exponent {prim.exponent})" if prim.primitive else "not primitive"
        print(f"{name}: {tmc.size} symbols, {state}")
    h1 = fs.h1
    if h1.passed:
        print("fiber rows (H1): pass")
    else:
        print("fiber rows (H1): FAIL")
        for b, b2, row in h1.failures:
            print(f"  block {b}->{b2}: source row {row} is all zero")
    h2 = fs.h2
    if h2.passed:
        scope = "pointwise" if h2.pointwise else "orbit level only"
        print(f"cycle positivity (H2): pass ({scope})")
    else:
        print("cycle positivity (H2): FAIL")
        for orbit in h2.orbit_failures:
            print(f"  cycle {orbit}: no rotation has a positive product")
    for w in h2.warnings:
        print(f"  note: {w}")
    if tm.status == "markov_certified":
        print("image subshift: Markov (certified by fiber rows)")
    elif tm.status == "markov_refuted":
        print(f"image subshift: not Markov at depth {tm.depth} (witness {tm.witness.labels})")
    else:
        print(f"image subshift: no missing word up to depth {tm.depth} (undecided)")
    constants, reason = _try_constants(fs)
    if constants is not None:
        print(
            "certification: window "
            f"{constants.window}, tau {_fmt(constants.tau)}, "
            f"theta {_fmt(constants.theta)}, d {_fmt(constants.d_const)}, "
            f"c_total {_fmt(constants.c_total)}, k_gibbs {_fmt(constants.k_gibbs)}"
        )
    else:
        print(f"certification: unavailable ({reason})")
    return 0 if (h1.passed and h2.passed) else 1


def cmd_potential(args) -> int:
    fs = models.load_model(args.model)
    point = _parse_point(fs, args.point)
    constants, note = (None, None) if args.adaptive else _try_constants(fs)
    ev = evaluate(fs, point, target_error=args.tol, constants=constants)
    print(f"point: {_point_str(fs, point)}")
    if note:
        print(f"constants unavailable: {note}")
    if ev.mode == "diverged":
        print(f"diverged after {ev.terms_used} terms")
        print("subsequence clusters: " + ", ".join(_fmt(c) for c in ev.clusters))
    else:
        print(f"value: {_fmt(ev.value)}")
        print(f"error radius: {_fmt(ev.error_radius)}")
        print(f"terms: {ev.terms_used}")
        print(f"mode: {ev.mode}{' (certified)' if ev.certified else ' (uncertified)'}")
    for n in ev.notes:
        print(f"note: {n}")
    return 1 if ev.mode == "diverged" else 0


def cmd_periodic(args) -> int:
    fs = models.load_model(args.model)
    check_sweep_words(fs, args.max_period)
    periodic = enumerate_periodic(fs.factor_tmc, args.max_period)
    # enumerate_periodic yields admissible, cyclically closed, primitive words
    points = [PointSpec._absorbed((), pp.symbols) for pp in periodic]
    results = periodic_many(fs, points)
    if not points:
        print(f"no periodic points with period <= {args.max_period}")
        return 0
    any_diverged = False
    for point, result in zip(points, results):
        name = _point_str(fs, point)
        if isinstance(result, EvaluationRefused):
            print(f"{name}: refused ({result})")
            any_diverged = True
            continue
        ev, pd = result
        if ev.mode == "diverged":
            any_diverged = True
            print(
                f"{name}: diverged; clusters "
                + ", ".join(_fmt(c) for c in ev.clusters)
            )
            continue
        route = "eigendata" if pd is not None else "iterative"
        extra = f", spectral gap |l2|/rho {_fmt(pd.spectral_gap)}" if pd else ""
        print(
            f"{name}: value {_fmt(ev.value)}, radius {_fmt(ev.error_radius)}, "
            f"{route}{' certified' if ev.certified else ' uncertified'}{extra}"
        )
    return 1 if any_diverged else 0


def cmd_holder(args) -> int:
    check_sweep_depth(args.n_max)
    fs = models.load_model(args.model)
    check_sweep_words(fs, args.n_max + 1)
    constants, reason = _try_constants(fs)
    if constants is None:
        print(f"holder report needs certification constants: {reason}")
        return 1
    report = holder_variation(fs, constants, args.n_max)
    print(
        f"constants: tau {_fmt(constants.tau)}, theta {_fmt(constants.theta)}, "
        f"c_total {_fmt(constants.c_total)}, window {constants.window}"
    )
    print(
        f"metric exponent: {_fmt(report.exponent)} "
        f"(decay rate {_fmt(report.theta)} per symbol)"
    )
    table = ["n,var_n,bound_n"]
    table += [f"{n},{_fmt(v)},{_fmt(b)}" for n, (v, b) in enumerate(zip(report.var, report.bound))]
    print("\n".join(table))
    if report.fitted_rate is not None:
        print(f"fitted decay rate: {_fmt(report.fitted_rate)}")
    print(f"bound satisfied: {'yes' if report.bound_ok else 'NO'}")
    _write_csv(args.csv, table)
    return 0 if report.bound_ok else 1


def cmd_gibbs(args) -> int:
    # a bad tolerance, depth or word count is refused before anything is printed
    check_target_error(args.tol)
    check_sweep_depth(args.n_max, least=1 if args.invariance else 0)
    fs = models.load_model(args.model)
    check_sweep_words(fs, args.n_max + 1)
    constants, reason = _try_constants(fs)
    if constants is None:
        print(f"constants unavailable ({reason}); sweep is uncertified")
    report = bgi_sweep(fs, args.n_max, constants=constants, target_error=args.tol)
    table = ["n,cylinder_count,K_emp,K_cert,slack,verdict"]
    table += [
        f"{r.n},{r.cylinder_count},{_fmt(r.k_emp)},{_fmt(r.k_cert)},{_fmt(r.slack)},{r.verdict}"
        for r in report.rows
    ]
    print("\n".join(table))
    for n in report.notes:
        print(f"note: {n}")
    if args.invariance:
        n_inv = min(args.n_max, 10)
        print(f"invariance residuals (max over n <= {n_inv}): "
              f"{_fmt(invariance_suite(fs, n_inv).max_residual)}")
    _write_csv(args.csv, table)
    return 1 if any(r.verdict == "fail" for r in report.rows) else 0


def cmd_obstruction(args) -> int:
    fs = models.load_model(args.model)
    report = finite_range_obstruction(fs)
    print(f"shared positive eigenvector of diagonal blocks: {report.shared_eigenvector}")
    print(f"some fiber block of rank one: {report.rank_one_block}")
    print(f"all-ones left eigenvector of every block: {report.ones_left_eigenvector}")
    if report.excluded:
        print("verdict: finite range excluded for the induced potential")
    else:
        print("verdict: finite range not excluded by this test")
    return 0


def cmd_example(args) -> int:
    doc = models.expand_example(args.id, gamma=args.gamma)
    text = models.dump_document(doc, args.out)
    if args.out:
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbsfactor",
        description="Projections of Markov measures under one-block maps: "
        "hypothesis checks, induced potential, Gibbs-ratio sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify hypotheses and report certification constants")
    p.add_argument("model", help="path to a model JSON file")
    p.add_argument("--depth", type=int, default=MARKOV_SEARCH_DEPTH, help="search depth for the image subshift")

    p = sub.add_parser("potential", help="evaluate the induced potential at a point")
    p.add_argument("model")
    p.add_argument(
        "--point",
        required=True,
        help="eventually periodic point PRE/PERIOD over target labels, e.g. b/ac or /ab; "
        "labels longer than one character are separated by commas, e.g. left/right,left",
    )
    p.add_argument("--tol", type=float, default=DEFAULT_TARGET_ERROR, help="target error radius")
    p.add_argument(
        "--adaptive",
        action="store_true",
        help="skip uniform constants and use the point's own tail",
    )

    p = sub.add_parser("periodic", help="potential at all periodic points up to a period")
    p.add_argument("model")
    p.add_argument("--max-period", type=int, default=3)

    p = sub.add_parser("holder", help="sampled variation of the potential with certified bound")
    p.add_argument("model")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--csv", help="write the variation table to a CSV file")

    p = sub.add_parser("gibbs", help="empirical Gibbs-ratio sweep over cylinders")
    p.add_argument("model")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--tol", type=float, default=DEFAULT_TARGET_ERROR)
    p.add_argument("--csv", help="write the sweep to a CSV file")
    p.add_argument(
        "--invariance",
        action="store_true",
        help="also print the exact invariance residuals of the image measure",
    )

    p = sub.add_parser("obstruction", help="finite-range obstruction for 2+2 full-shift factors")
    p.add_argument("model")

    p = sub.add_parser("example", help="write a built-in example model file")
    p.add_argument("id", choices=list(models.EXAMPLES))
    p.add_argument("--gamma", type=float, default=None, help="parameter for nongibbs6")
    p.add_argument("--out", help="output path (stdout when omitted)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time, so a rebound cmd_* is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (GibbsFactorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (EvaluationRefused, CertificationError)) else 2


if __name__ == "__main__":
    raise SystemExit(main())
