from __future__ import annotations

import ast
import glob
import os
import re

import gibbsfactor as gf

README = os.path.join(os.path.dirname(__file__), "..", "README.md")
SOURCES = os.path.join(os.path.dirname(__file__), "..", "src", "gibbsfactor", "*.py")


def test_every_all_name_resolves():
    for name in gf.__all__:
        assert getattr(gf, name) is not None, name
    assert len(set(gf.__all__)) == len(gf.__all__)


def readme_public_names() -> list[str]:
    """The backticked names of the three README paragraphs that list the
    public names (entry points, classes, errors)."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    names: list[str] = []
    for head in ("Main entry points:", "Classes a caller names to use them:", "Errors:"):
        paragraph = text[text.index(head) :].split("\n\n", 1)[0]
        names += re.findall(r"`(\w+)`", paragraph)
    return names


def test_readme_lists_exactly_all():
    assert sorted(readme_public_names()) == sorted(gf.__all__)


def test_names_left_out_of_all_stay_importable():
    for name in ("Word", "PeriodicPoint", "enumerate_words", "apply_normalized",
                 "perron_data", "log_nu_cylinder", "RangeTwoPotential", "derive_potential"):
        assert name not in gf.__all__
        assert hasattr(gf, name)


def test_every_record_is_a_named_tuple():
    from gibbsfactor import gibbs, markov, potential, projection, projective, tmc

    records = [
        tmc.PrimitivityResult, markov.RangeTwoPotential, projective.ContractionCoefficient,
        projection.H1Report, projection.H2Witness, projection.H2Report,
        projection.TopologicalMarkovVerdict, potential.PotentialEvaluation,
        potential.UniformConstants, potential.PerronData, potential.HolderReport,
        potential.ObstructionReport, gibbs.BgiRow, gibbs.BgiReport,
        gibbs.InvarianceRow, gibbs.InvarianceReport,
    ]
    for cls in records:
        assert issubclass(cls, tuple), cls
        assert cls._fields and cls._fields == tuple(cls.__annotations__), cls
    assert potential.PotentialEvaluation._fields == (
        "value", "error_radius", "terms_used", "mode", "certified", "clusters", "notes")
    assert potential.PotentialEvaluation._field_defaults == {"clusters": (), "notes": ()}
    assert projection.H2Report._field_defaults == {"warnings": ()}


def test_every_parameter_is_read():
    # a parameter its function never reads is an input the package accepts
    # and ignores; self and cls are exempt, lambdas and nested functions not
    unread = []
    for path in sorted(glob.glob(SOURCES)):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            names = (n for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name))
            read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            where = f"{os.path.basename(path)}:{node.lineno} {getattr(node, 'name', '<lambda>')}"
            unread += [f"{where}({p})" for p in sorted(set(params) - read - {"self", "cls"})]
    assert len(glob.glob(SOURCES)) >= 10
    assert unread == []
