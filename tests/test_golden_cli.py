"""Byte-for-byte CLI transcripts on the built-in examples.

golden_cli.json, next to this file, holds the expected stdout and exit code
of every command in CASES, run on the built-in examples and on the wide-fiber
model below.  Refactors must leave these bytes unchanged.  When
a change is meant to move the output, regenerate the file with

    PYTHONPATH=src python tests/test_golden_cli.py

and say in the change why the output moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import pytest

from gibbsfactor.cli import main
from gibbsfactor.models import dump_document, expand_example

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")
EXAMPLES = ("adhoc5", "fullshift4", "nongibbs6", "converse_false")


def wide12_document() -> dict:
    """Full 12-shift onto 2 symbols with fibers of 6, in closed form.

    Every built-in example has fibers of at most 2; this one makes the
    printed tau come from 6x6 blocks.  P[i, j] is proportional to
    1 + (7i + 3j) mod 11.
    """
    labels = [f"s{i}" for i in range(12)]
    rows = [[1.0 + (7 * i + 3 * j) % 11 for j in range(12)] for i in range(12)]
    return {
        "alphabet": labels,
        "incidence": [[1] * 12 for _ in range(12)],
        "transition": [[x / sum(row) for x in row] for row in rows],
        "projection": {lab: str(i // 6) for i, lab in enumerate(labels)},
    }


MODELS = {**{ex: expand_example(ex) for ex in EXAMPLES}, "wide12": wide12_document()}

# argv per case; "{name}" stands for the path of that example's model file
CASES = {
    **{f"check-{ex}": ["check", "{%s}" % ex] for ex in EXAMPLES},
    "potential-certified": ["potential", "{adhoc5}", "--point", "/ab"],
    "potential-adaptive": ["potential", "{adhoc5}", "--point", "c/ba", "--adaptive"],
    "potential-diverged": ["potential", "{nongibbs6}", "--point", "/0"],
    "potential-converse_false": ["potential", "{converse_false}", "--point", "/01"],
    "periodic-adhoc5": ["periodic", "{adhoc5}", "--max-period", "4"],
    "periodic-nongibbs6": ["periodic", "{nongibbs6}", "--max-period", "4"],
    "periodic-nongibbs6-7": ["periodic", "{nongibbs6}", "--max-period", "7"],
    "periodic-converse_false": ["periodic", "{converse_false}", "--max-period", "4"],
    "holder-fullshift4": ["holder", "{fullshift4}", "--n-max", "6"],
    "holder-adhoc5": ["holder", "{adhoc5}", "--n-max", "5"],
    "holder-fullshift4-12": ["holder", "{fullshift4}", "--n-max", "12"],
    "holder-adhoc5-12": ["holder", "{adhoc5}", "--n-max", "12"],
    "gibbs-adhoc5-invariance": ["gibbs", "{adhoc5}", "--n-max", "5", "--invariance"],
    "gibbs-nongibbs6": ["gibbs", "{nongibbs6}", "--n-max", "5"],
    "gibbs-nongibbs6-6": ["gibbs", "{nongibbs6}", "--n-max", "6"],
    "gibbs-converse_false": ["gibbs", "{converse_false}", "--n-max", "3"],
    "gibbs-fullshift4": ["gibbs", "{fullshift4}", "--n-max", "6"],
    "obstruction-fullshift4": ["obstruction", "{fullshift4}"],
    "check-wide12": ["check", "{wide12}"],
    "periodic-wide12": ["periodic", "{wide12}", "--max-period", "3"],
    "periodic-fullshift4-7": ["periodic", "{fullshift4}", "--max-period", "7"],
    "periodic-adhoc5-7": ["periodic", "{adhoc5}", "--max-period", "7"],
    "gibbs-fullshift4-invariance": ["gibbs", "{fullshift4}", "--n-max", "6", "--invariance"],
}


def _write_models(root: str) -> dict[str, str]:
    paths = {}
    for name, doc in MODELS.items():
        paths[name] = os.path.join(root, f"{name}.json")
        dump_document(doc, paths[name])
    return paths


def _run(argv: list[str], paths: dict[str, str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([a.format(**paths) for a in argv])
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def transcripts(tmp_path_factory):
    paths = _write_models(str(tmp_path_factory.mktemp("golden")))
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    return paths, golden


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_transcript_unchanged(name, transcripts):
    paths, golden = transcripts
    assert _run(CASES[name], paths) == golden[name]


def test_golden_file_covers_every_case(transcripts):
    _, golden = transcripts
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        paths = _write_models(root)
        record = {name: _run(CASES[name], paths) for name in sorted(CASES)}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(record)} transcripts to {GOLDEN}")
