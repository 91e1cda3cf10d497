from __future__ import annotations

import json

import numpy as np
import pytest

import gibbsfactor as gf
from gibbsfactor.cli import main
from gibbsfactor.models import (
    EXAMPLES,
    dump_document,
    example_system,
    expand_example,
    load_model,
    parse_model,
)


def test_every_example_expands_and_parses():
    for example_id in EXAMPLES:
        fs = example_system(example_id)
        assert fs.target_size >= 2
        assert fs.model.tmc.alphabet.size > fs.target_size


def test_unknown_example_rejected():
    with pytest.raises(gf.ModelError):
        expand_example("nosuch")


def test_gamma_range_enforced():
    with pytest.raises(gf.ModelError):
        expand_example("nongibbs6", gamma=0.25)
    with pytest.raises(gf.ModelError):
        expand_example("nongibbs6", gamma=1.0 / 3.0)
    with pytest.raises(gf.ModelError):
        expand_example("nongibbs6", gamma=0.5)
    doc = expand_example("nongibbs6", gamma=0.30)
    assert doc["options"]["gamma"] == 0.30


@pytest.mark.parametrize("example_id", ["adhoc5", "fullshift4", "converse_false"])
def test_gamma_refused_for_examples_without_it(example_id):
    with pytest.raises(gf.ModelError, match=f"^gamma is a parameter of nongibbs6 only, not of {example_id}$"):
        expand_example(example_id, gamma=0.3)
    assert expand_example(example_id, gamma=None) == expand_example(example_id)


def test_nongibbs6_rows_are_stochastic_and_doubly_stochastic():
    doc = expand_example("nongibbs6", gamma=0.28)
    t = np.asarray(doc["transition"])
    assert np.abs(t.sum(axis=1) - 1.0).max() < 1e-15
    assert np.abs(t.sum(axis=0) - 1.0).max() < 1e-15
    assert (t >= 0).all()


def test_document_roundtrip(tmp_path):
    doc = expand_example("adhoc5")
    path = tmp_path / "model.json"
    text = dump_document(doc, str(path))
    assert json.loads(text) == doc
    fs = load_model(str(path))
    direct = example_system("adhoc5")
    assert fs.factor_tmc.alphabet.labels == direct.factor_tmc.alphabet.labels
    assert (fs.model.transition == direct.model.transition).all()
    assert fs.projection.mapping == direct.projection.mapping


def test_dump_document_is_deterministic():
    doc = expand_example("fullshift4")
    assert dump_document(doc) == dump_document(json.loads(dump_document(doc)))


def test_parse_rejects_missing_keys():
    doc = expand_example("adhoc5")
    for key in ("alphabet", "incidence", "transition", "projection"):
        broken = dict(doc)
        del broken[key]
        with pytest.raises(gf.ModelError):
            parse_model(broken)


def test_parse_rejects_bad_alphabet():
    doc = expand_example("adhoc5")
    doc["alphabet"] = ["1", "1", "3", "4", "5"]
    with pytest.raises(gf.ModelError):
        parse_model(doc)


def test_parse_rejects_incomplete_projection():
    doc = expand_example("adhoc5")
    del doc["projection"]["3"]
    with pytest.raises(gf.ModelError) as err:
        parse_model(doc)
    assert "3" in str(err.value)


def test_parse_rejects_unknown_projection_symbol():
    doc = expand_example("adhoc5")
    doc["projection"]["9"] = "a"
    with pytest.raises(gf.ModelError):
        parse_model(doc)


def test_parse_rejects_nonstochastic_transition():
    doc = expand_example("fullshift4")
    doc["transition"][0][0] = 0.9
    with pytest.raises(gf.ModelError):
        parse_model(doc)


def test_parse_rejects_bad_gamma_option():
    doc = expand_example("fullshift4")
    doc["options"] = {"gamma": 0.7}
    with pytest.raises(gf.ModelError):
        parse_model(doc)


@pytest.mark.parametrize("gamma", ["x", None, [0.3], {}])
def test_parse_rejects_non_numeric_gamma_option(gamma):
    # float() of these raised a bare ValueError or TypeError
    doc = expand_example("nongibbs6")
    doc["options"] = {"gamma": gamma}
    with pytest.raises(gf.ModelError, match="gamma must be a number"):
        parse_model(doc)


def test_parse_accepts_null_options():
    doc = expand_example("nongibbs6")
    doc["options"] = None
    assert parse_model(doc).target_size == 2
    doc["options"] = [1]
    with pytest.raises(gf.ModelError, match="options must be an object"):
        parse_model(doc)


def test_non_numeric_gamma_is_input_error_in_the_cli(tmp_path, capsys):
    doc = expand_example("nongibbs6")
    doc["options"] = {"gamma": "x"}
    path = tmp_path / "bad_gamma.json"
    dump_document(doc, str(path))
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gamma must be a number" in captured.err


def test_load_model_errors_are_wrapped(tmp_path):
    with pytest.raises(gf.ModelError):
        load_model(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(gf.ModelError):
        load_model(str(bad))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_transition_entry_rejected(bad):
    # a nan entry used to pass validation: every comparison with nan is False
    doc = expand_example("fullshift4")
    doc["transition"][0][1] = bad
    with pytest.raises(gf.ModelError, match="finite"):
        parse_model(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_stationary_entry_rejected(bad):
    fs = example_system("fullshift4")
    stationary = fs.model.stationary.copy()
    stationary[0] = bad
    with pytest.raises(gf.ModelError, match="finite"):
        gf.MarkovModel(fs.model.tmc, fs.model.transition, stationary)
