"""Byte-for-byte CLI transcripts on the built-in examples.

golden_cli.json, next to this file, holds the expected stdout and exit code
of every command in CASES.  Refactors must leave these bytes unchanged.  When
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

# argv per case; "{name}" stands for the path of that example's model file
CASES = {
    **{f"check-{ex}": ["check", "{%s}" % ex] for ex in EXAMPLES},
    "potential-certified": ["potential", "{adhoc5}", "--point", "/ab"],
    "potential-adaptive": ["potential", "{adhoc5}", "--point", "c/ba", "--adaptive"],
    "potential-diverged": ["potential", "{nongibbs6}", "--point", "/0"],
    "potential-converse_false": ["potential", "{converse_false}", "--point", "/01"],
    "periodic-adhoc5": ["periodic", "{adhoc5}", "--max-period", "4"],
    "periodic-nongibbs6": ["periodic", "{nongibbs6}", "--max-period", "4"],
    "holder-fullshift4": ["holder", "{fullshift4}", "--n-max", "6"],
    "gibbs-adhoc5-invariance": ["gibbs", "{adhoc5}", "--n-max", "5", "--invariance"],
    "gibbs-nongibbs6": ["gibbs", "{nongibbs6}", "--n-max", "5"],
    "obstruction-fullshift4": ["obstruction", "{fullshift4}"],
}


def _write_models(root: str) -> dict[str, str]:
    paths = {}
    for ex in EXAMPLES:
        paths[ex] = os.path.join(root, f"{ex}.json")
        dump_document(expand_example(ex), paths[ex])
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
