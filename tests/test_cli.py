from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import gibbsfactor as gf
from gibbsfactor import cli, potential
from gibbsfactor.cli import main
from gibbsfactor.models import dump_document, expand_example
from gibbsfactor.projection import MAX_MARKOV_SEARCH_DEPTH


@pytest.fixture(scope="module")
def model_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    paths = {}
    for example_id in ("adhoc5", "fullshift4", "nongibbs6", "converse_false"):
        p = root / f"{example_id}.json"
        dump_document(expand_example(example_id), str(p))
        paths[example_id] = str(p)
    return paths


def test_check_passing_model(model_paths, capsys):
    code = main(["check", model_paths["adhoc5"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "fiber rows (H1): pass" in out
    assert "cycle positivity (H2): pass (orbit level only)" in out
    assert "image subshift: Markov (certified by fiber rows)" in out
    assert "certification: window 5" in out


def test_check_pointwise_model(model_paths, capsys):
    code = main(["check", model_paths["fullshift4"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "cycle positivity (H2): pass (pointwise)" in out
    assert "certification: window 3" in out


def test_check_failing_model(model_paths, capsys):
    code = main(["check", model_paths["converse_false"]])
    out = capsys.readouterr().out
    assert code == 1
    assert "fiber rows (H1): FAIL" in out
    assert "block 0->1: source row c is all zero" in out
    assert "block 1->0: source row d is all zero" in out
    assert "no missing word up to depth 12 (undecided)" in out
    assert "certification: unavailable" in out


def test_check_nongibbs_model(model_paths, capsys):
    code = main(["check", model_paths["nongibbs6"]])
    out = capsys.readouterr().out
    assert code == 1
    assert "cycle positivity (H2): FAIL" in out
    assert "certification: unavailable" in out


def test_potential_certified(model_paths, capsys):
    code = main(["potential", model_paths["adhoc5"], "--point", "/ab"])
    out = capsys.readouterr().out
    assert code == 0
    assert "point: (ab)*" in out
    assert "mode: certified (certified)" in out
    assert "value:" in out


def test_potential_adaptive_flag(model_paths, capsys):
    code = main(["potential", model_paths["adhoc5"], "--point", "c/ba", "--adaptive"])
    out = capsys.readouterr().out
    assert code == 0
    assert "point: c(ba)*" in out
    assert "mode: adaptive (uncertified)" in out


def test_potential_divergence_exit_code(model_paths, capsys):
    code = main(["potential", model_paths["nongibbs6"], "--point", "/0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "diverged after" in out
    assert "subsequence clusters:" in out


def test_potential_refusal_exit_code(model_paths, capsys):
    code = main(["potential", model_paths["converse_false"], "--point", "/01"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error: step 0->1 at position 0 has an all-zero fiber row; potential undefined along this point\n"
    )


@pytest.mark.parametrize("model, point", [("fullshift4", "1/0"), ("adhoc5", "/ab")])
def test_certified_radius_never_sits_below_double_precision(model_paths, capsys, model, point):
    # the truncation radius at this tolerance is about 1e-20, far below the
    # roundoff of a value near 1; the reported radius is held at 1e-13
    assert main(["potential", model_paths[model], "--point", point, "--tol", "1e-20"]) == 0
    out = capsys.readouterr().out
    assert "error radius: 1e-13\n" in out
    assert "mode: certified (certified)" in out


def test_potential_rejects_bad_point(model_paths, capsys):
    code = main(["potential", model_paths["adhoc5"], "--point", "/ac"])
    capsys.readouterr()
    assert code == 2


def test_periodic_lists_orbits(model_paths, capsys):
    code = main(["periodic", model_paths["adhoc5"], "--max-period", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(ab)*" in out
    assert "(acb)*" in out
    assert "eigendata certified" in out
    # the rotation with a degenerate one-period product is carried from its
    # orbit's base, so no point takes the fallback
    (bac,) = [line for line in out.splitlines() if line.startswith("(bac)*: ")]
    assert ", eigendata certified, spectral gap" in bac
    assert "iterative" not in out


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize(
    "command",
    [
        ("potential", "adhoc5", "--point", "/ab"),
        ("potential", "nongibbs6", "--point", "/0"),
        # every point of fullshift4 takes the eigendata route, some of
        # nongibbs6 the iterative fallback; both must refuse the tolerance
        ("periodic", "fullshift4", "--max-period", "3"),
        ("periodic", "nongibbs6", "--max-period", "3"),
        ("gibbs", "adhoc5", "--n-max", "3"),
        # without constants the sweep prints a line first; the tolerance is refused before it
        ("gibbs", "nongibbs6", "--n-max", "2"),
    ],
    ids=[
        "potential",
        "potential-divergent",
        "periodic-eigendata",
        "periodic-fallback",
        "gibbs",
        "gibbs-uncertified",
    ],
)
def test_bad_tol_is_input_error(model_paths, capsys, command, tol):
    name, model, *rest = command
    code = main([name, model_paths[model], *rest, f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "target error must be finite and positive" in captured.err


@pytest.mark.parametrize(
    "command",
    [
        ("gibbs", "adhoc5", "--n-max", "-1"),
        # without constants the sweep prints a line first; the depth is refused before it
        ("gibbs", "nongibbs6", "--n-max", "-2"),
        ("gibbs", "adhoc5", "--n-max", "-1", "--invariance"),
        ("gibbs", "adhoc5", "--n-max", "0", "--invariance"),
        ("gibbs", "nongibbs6", "--n-max", "0", "--invariance"),
        ("holder", "adhoc5", "--n-max", "-1"),
        # without constants holder prints a line first; the depth is refused before it
        ("holder", "converse_false", "--n-max", "-1"),
    ],
    ids=[
        "gibbs",
        "gibbs-uncertified",
        "gibbs-invariance-negative",
        "gibbs-invariance-zero",
        "gibbs-invariance-zero-uncertified",
        "holder",
        "holder-no-constants",
    ],
)
def test_bad_n_max_is_input_error(model_paths, capsys, command):
    name, model, *rest = command
    code = main([name, model_paths[model], *rest])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "sweep depth n_max must be >=" in captured.err


@pytest.mark.parametrize("depth", ["0", "-3"])
@pytest.mark.parametrize("model", ["converse_false", "adhoc5"])
def test_bad_check_depth_is_input_error(model_paths, capsys, model, depth):
    # the depth is refused before the first line is printed, also where H1
    # passes and the search would not run
    code = main(["check", model_paths[model], "--depth", depth])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: search depth must be >= 1, got {depth}\n"


def test_check_depth_one_is_accepted(model_paths, capsys):
    assert main(["check", model_paths["converse_false"], "--depth", "1"]) == 1
    assert "no missing word up to depth 1 (undecided)" in capsys.readouterr().out


def test_check_depth_is_capped(model_paths, capsys):
    # the search's stack and its table of states grow with the depth, which
    # is capped: the cap is searched, and a deeper search is refused before
    # anything is printed
    cap = MAX_MARKOV_SEARCH_DEPTH
    assert main(["check", model_paths["converse_false"], "--depth", str(cap)]) == 1
    assert f"no missing word up to depth {cap} (undecided)" in capsys.readouterr().out
    for depth in (cap + 1, 10_000_000):
        assert main(["check", model_paths["converse_false"], "--depth", str(depth)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: search depth {depth} is above the cap MAX_MARKOV_SEARCH_DEPTH {cap}\n"


@pytest.mark.parametrize(
    "command",
    [
        ("holder", "adhoc5", "--n-max", "2", "--csv"),
        ("gibbs", "adhoc5", "--n-max", "2", "--csv"),
        ("example", None, "adhoc5", "--out"),
    ],
    ids=["holder-csv", "gibbs-csv", "example-out"],
)
def test_unwritable_output_path_is_input_error(model_paths, capsys, tmp_path, command):
    name, model, *rest = command
    target = tmp_path / "missing-dir" / "out.file"
    argv = [name] + ([model_paths[model]] if model else []) + rest + [str(target)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "No such file or directory" in captured.err
    assert "Traceback" not in captured.err
    assert not target.exists()


def test_n_max_zero_is_one_row(model_paths, capsys):
    assert main(["gibbs", model_paths["adhoc5"], "--n-max", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n,cylinder_count,K_emp,K_cert,slack,verdict"
    assert out[1].startswith("0,3,")
    assert main(["gibbs", model_paths["adhoc5"], "--n-max", "1", "--invariance"]) == 0
    assert "invariance residuals (max over n <= 1)" in capsys.readouterr().out
    assert main(["holder", model_paths["adhoc5"], "--n-max", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-3] == "n,var_n,bound_n"
    assert out[-2].startswith("0,")
    assert out[-1] == "bound satisfied: yes"


def test_holder_table(model_paths, capsys, tmp_path):
    csv = tmp_path / "var.csv"
    code = main(["holder", model_paths["adhoc5"], "--n-max", "5", "--csv", str(csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert "bound satisfied: yes" in out
    assert "n,var_n,bound_n" in out
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "n,var_n,bound_n"
    assert len(lines) == 7


def test_holder_needs_constants(model_paths, capsys):
    code = main(["holder", model_paths["converse_false"]])
    out = capsys.readouterr().out
    assert code == 1
    assert "needs certification constants" in out


def test_gibbs_sweep_table(model_paths, capsys, tmp_path):
    csv = tmp_path / "sweep.csv"
    code = main(
        [
            "gibbs",
            model_paths["adhoc5"],
            "--n-max",
            "4",
            "--invariance",
            "--csv",
            str(csv),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "n,cylinder_count,K_emp,K_cert,slack,verdict" in out
    assert "pass" in out
    assert "invariance residuals" in out
    header = csv.read_text().split("\n")[0]
    assert header == "n,cylinder_count,K_emp,K_cert,slack,verdict"


def test_gibbs_sweep_uncertified_path(model_paths, capsys):
    code = main(["gibbs", model_paths["nongibbs6"], "--n-max", "3"])
    out = capsys.readouterr().out
    assert code == 0  # uncertified is not a bound failure
    assert "constants unavailable" in out
    assert "uncertified" in out
    assert "stand-in" in out


def test_obstruction_output(model_paths, capsys):
    code = main(["obstruction", model_paths["fullshift4"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: finite range excluded for the induced potential" in out


def test_obstruction_wrong_shape_is_usage_error(model_paths, capsys):
    code = main(["obstruction", model_paths["adhoc5"]])
    capsys.readouterr()
    assert code == 2


def test_example_stdout_roundtrip(capsys):
    code = main(["example", "fullshift4"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc == expand_example("fullshift4")


def test_example_gamma_out(tmp_path, capsys):
    path = tmp_path / "m.json"
    code = main(["example", "nongibbs6", "--gamma", "0.27", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["options"]["gamma"] == 0.27


def test_example_bad_gamma_exit_code(capsys):
    code = main(["example", "nongibbs6", "--gamma", "0.5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "gamma" in err


def test_example_gamma_for_another_example_is_usage_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    code = main(["example", "fullshift4", "--gamma", "5", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert (captured.out, captured.err) == ("", "error: gamma is a parameter of nongibbs6 only, not of fullshift4\n")
    assert not path.exists()


def test_missing_model_file_exit_code(capsys):
    code = main(["check", "/nonexistent/model.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_model_file_that_is_not_utf8_is_input_error(tmp_path, capsys):
    # the decode error used to escape load_model as a traceback with exit 1
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00{")
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: model file {str(path)!r} is not valid UTF-8: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [["check"], ["potential", "--point", "0"], ["periodic"], ["holder"], ["gibbs"], ["obstruction"]],
    ids=lambda argv: argv[0],
)
def test_deeply_nested_model_file_is_input_error(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: model file {str(path)!r} nests too deeply to read\n"


def test_command_is_looked_up_when_main_runs(model_paths, capsys, monkeypatch):
    # the parser is built once; a cmd_* rebound after that is the one called
    assert main(["check", model_paths["adhoc5"]]) == 0
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.model) or 7)
    assert main(["check", model_paths["fullshift4"]]) == 7
    assert seen == [model_paths["fullshift4"]]
    assert capsys.readouterr().out == ""


def test_cli_output_is_deterministic(model_paths, capsys):
    main(["check", model_paths["adhoc5"]])
    first = capsys.readouterr().out
    main(["check", model_paths["adhoc5"]])
    second = capsys.readouterr().out
    assert first == second


def test_sweeps_do_not_import_numpy_ma(tmp_path):
    # numpy.ma loads lazily (np.unique, for one, pulls it in) and more than
    # triples the sweep's traced memory peak; the sweeps must not trigger it
    import gibbsfactor

    src = os.path.dirname(os.path.dirname(os.path.abspath(gibbsfactor.__file__)))
    script = (
        "import contextlib, io, sys\n"
        "from gibbsfactor.cli import main\n"
        "from gibbsfactor.models import dump_document, expand_example\n"
        "dump_document(expand_example('fullshift4'), sys.argv[1])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main([cmd, sys.argv[1], '--n-max', '3']) for cmd in ('gibbs', 'holder')]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "fullshift4.json")],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out.strip() == "[0, 0] False"


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_check_non_finite_transition_is_input_error(tmp_path, capsys, bad):
    # json writes and reads nan and infinities as these bare words
    doc = expand_example("fullshift4")
    doc["transition"][0][1] = float(bad.lower().replace("infinity", "inf"))
    path = tmp_path / "bad.json"
    dump_document(doc, str(path))
    assert bad in path.read_text()
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "transition entries must be finite" in captured.err


def test_check_overflowing_row_sum_is_one_clean_input_error(tmp_path):
    # every entry is finite, but the row sums to inf; a subprocess shows
    # whatever reaches stderr, numpy warnings included
    import gibbsfactor

    doc = expand_example("fullshift4")
    doc["transition"][0] = [1e308] * len(doc["transition"][0])
    path = tmp_path / "huge.json"
    dump_document(doc, str(path))
    src = os.path.dirname(os.path.dirname(os.path.abspath(gibbsfactor.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-W", "default", "-c",
         "import sys; from gibbsfactor.cli import main; sys.exit(main(sys.argv[1:]))",
         "check", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: transition rows must sum to 1 within 1e-12\n"
    assert "Warning" not in result.stderr


def log_uniform_fullshift4(tmp_path, draw, low=1e-25):
    """fullshift4 with transition rows drawn log-uniform over [low, 1]:
    the given draw of np.random.default_rng(5), written to a file."""
    rng = np.random.default_rng(5)
    for _ in range(draw):
        p = np.exp(rng.uniform(np.log(low), 0.0, size=(4, 4)))
    p /= p.sum(axis=1, keepdims=True)
    path = tmp_path / f"fullshift4-draw{draw}.json"
    dump_document(dict(expand_example("fullshift4"), transition=p.tolist()), str(path))
    return str(path)


def test_window_contraction_rounding_to_one_is_refused(tmp_path, capsys):
    # the window of (1) is strictly positive, but its tau_q rounds to 1.0
    # while a* > 0: it bounds no radius (it was a ZeroDivisionError)
    code = main(["potential", log_uniform_fullshift4(tmp_path, 2), "--point", "1", "--adaptive"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: tail window of 1 steps from position 1 has contraction 1 in double "
        "precision, so it bounds no radius"
    ]


def test_rank_one_window_note_reads_contraction_0(tmp_path, capsys):
    code = main(["potential", log_uniform_fullshift4(tmp_path, 1), "--point", "01", "--adaptive"])
    out = capsys.readouterr().out
    assert code == 0
    assert "note: tail window of 2 steps is strictly positive (contraction 0)\n" in out


@pytest.mark.parametrize(
    "draw, tau, gap",
    [(43, "0.9999999999999999", 16), (50, "0.9999999999999999", 6), (64, "0.9999999999999998", 6)],
)
def test_decay_rate_rounding_to_one_is_not_certified(tmp_path, capsys, draw, tau, gap):
    # the worst positive block's tau is within an ulp or two of 1, so
    # theta = tau**(1/gap) rounds to 1.0 and bounds no radius (it was a
    # ZeroDivisionError); check reports it and potential falls back
    path = log_uniform_fullshift4(tmp_path, draw)
    reason = f"decay rate tau**(1/gap) is 1 in double precision (tau {tau}, gap {gap}), so it bounds no radius"
    code = main(["check", path])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == f"certification: unavailable ({reason})"
    code = main(["potential", path, "--point", "01"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert f"constants unavailable: {reason}\n" in captured.out
    assert "mode: adaptive (uncertified)\n" in captured.out


def test_gibbs_sweep_with_a_decay_rate_of_one_ends_in_one_error_line(tmp_path, capsys):
    code = main(["gibbs", log_uniform_fullshift4(tmp_path, 43), "--n-max", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("constants unavailable (decay rate tau**(1/gap) is 1 in double precision")
    assert captured.err.count("error:") == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("draw", [2, 5, 18, 30])
def test_certified_depth_beyond_the_cap_is_refused(tmp_path, capsys, draw):
    # tau is within about 1e-15 of 1, so theta = tau**(1/gap) is just below
    # 1 and the certified radius meets the target only some 1e17 levels
    # deep; the route used to stop at MAX_DEPTH and print a radius of about
    # 1e16 as certified
    path = log_uniform_fullshift4(tmp_path, draw)
    code = main(["check", path])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[-1].startswith("certification: window ")
    commands = [["potential", path, "--point", "01"]]
    if draw == 2:
        commands += [["gibbs", path, "--n-max", "2"], ["holder", path, "--n-max", "2"]]
    for argv in commands:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: a certified radius of ")
        assert f", beyond MAX_DEPTH {potential.MAX_DEPTH}" in line
        depth = int(line.split(" needs depth ")[1].split(",")[0])
        assert depth > 10**16


@pytest.mark.parametrize(
    "argv",
    [
        ("holder", "adhoc5", "--n-max", "4"),
        ("gibbs", "adhoc5", "--n-max", "4"),
        ("gibbs", "nongibbs6", "--n-max", "4"),
    ],
    ids=["holder-certified", "gibbs-certified", "gibbs-uncertified"],
)
def test_csv_file_holds_the_printed_table(model_paths, tmp_path, capsys, argv):
    command, name, *rest = argv
    csv = tmp_path / "table.csv"
    main([command, model_paths[name], *rest, "--csv", str(csv)])
    out = capsys.readouterr().out.splitlines()
    table = csv.read_text(encoding="utf-8").splitlines()
    assert len(table) == 4 + 2
    start = out.index(table[0])
    assert out[start : start + len(table)] == table
    assert out[-1] == f"wrote {csv}"
    assert ("n/a" in "".join(table)) == (name == "nongibbs6")


def test_a_refusal_reads_the_same_from_every_command(model_paths, capsys):
    lines = []
    for argv in (["potential", model_paths["converse_false"], "--point", "/01"],
                 ["gibbs", model_paths["converse_false"], "--n-max", "2"]):
        assert main(argv) == 1
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1]
    assert lines[0] == "error: step 0->1 at position 0 has an all-zero fiber row; potential undefined along this point\n"


def test_periodic_power_contraction_rounding_to_one_is_refused(tmp_path, capsys):
    # with rows log-uniform over [1e-60, 1] (draw 5; also 14, 37 and 46) the
    # strictly positive one-period product of (10) has a Birkhoff coefficient
    # that rounds to 1.0, so its own vector term bounds nothing (it was a
    # ZeroDivisionError); it takes the vectors and radius of its orbit's
    # base, (01), whose coefficient is below 1
    code = main(["periodic", log_uniform_fullshift4(tmp_path, 5, low=1e-60), "--max-period", "2"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 0
    assert captured.err == ""
    assert [line.split(":")[0] for line in lines] == ["(0)*", "(1)*", "(01)*", "(10)*"]
    assert lines[3].split(", radius ")[1] == lines[2].split(", radius ")[1]
    # the power iterations ran all their MAX_POWER_STEPS steps, so no
    # spectral gap is printed (it read 1, 1.0005654082 and 30.4815740775,
    # and a ratio above 1 no dominant eigenvalue has)
    for line in lines:
        assert line.endswith(", eigendata certified, spectral gap |l2|/rho n/a")
    # over [1e-100, 1] (draw 62) both rotations of (01) round to 1: the
    # orbit has no base, and each rotation is refused
    code = main(["periodic", log_uniform_fullshift4(tmp_path, 62, low=1e-100), "--max-period", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    for name, line in zip(("(01)*", "(10)*"), lines[2:]):
        assert line == (
            f"{name}: refused (power 1 of the one-period product has contraction 1 in double "
            "precision, so it bounds no radius)"
        )


def full_shift_document(n_src, n_tgt, seed=1):
    """Seeded full n_src-shift onto n_tgt symbols with equal fibers."""
    rng = np.random.default_rng(seed)
    labels = [f"s{i}" for i in range(n_src)]
    p = rng.uniform(0.01, 1.0, size=(n_src, n_src))
    p /= p.sum(axis=1, keepdims=True)
    return {
        "alphabet": labels,
        "incidence": [[1] * n_src for _ in range(n_src)],
        "transition": p.tolist(),
        "projection": {lab: str(i // (n_src // n_tgt)) for i, lab in enumerate(labels)},
    }


def test_constants_beyond_the_word_budget_are_unavailable(tmp_path, capsys):
    # d_const of the full 10-shift onto 5 symbols at the first window, 6,
    # needs every word of length 2..12, 5**2 + ... + 5**12 of them: refused
    # before any is built (it ran out of memory), so check reports no
    # constants and potential goes on uncertified
    path = str(tmp_path / "fullshift10to5.json")
    dump_document(full_shift_document(10, 5), path)
    budget = (
        "d_const up to length 12 would take 305,175,775 admissible words, "
        f"beyond the word budget of {potential.WORD_BUDGET:,}"
    )
    assert main(["check", path]) == 0
    assert f"certification: unavailable ({budget})\n" in capsys.readouterr().out
    assert main(["potential", path, "--point", "01/2"]) == 0
    out = capsys.readouterr().out
    assert f"constants unavailable: {budget}\n" in out
    assert "mode: adaptive (uncertified)\n" in out


def test_constants_of_the_full_eight_shift_stay_under_the_word_budget(tmp_path):
    # 4**2 + ... + 4**10 = 1,398,096 words: the largest target certified here
    fs = gf.parse_model(full_shift_document(8, 4))
    potential._check_word_budget(fs, 10)
    assert 1_398_096 <= potential.WORD_BUDGET < 305_175_775


def test_sweep_word_count_is_exact(adhoc5, monkeypatch):
    # the count is enumerate_words' to the word, so a budget of exactly that
    # many passes and one word fewer refuses
    total = sum(len(gf.enumerate_words(adhoc5.factor_tmc, n)) for n in range(1, 8))
    monkeypatch.setattr(potential, "WORD_BUDGET", total)
    potential.check_sweep_words(adhoc5, 7)
    monkeypatch.setattr(potential, "WORD_BUDGET", total - 1)
    with pytest.raises(gf.ModelError, match=rf"at least {total:,} admissible words \(those up to length 7\)"):
        potential.check_sweep_words(adhoc5, 7)


@pytest.mark.parametrize(
    "args", [["holder", "--n-max", "40"], ["gibbs", "--n-max", "40"], ["periodic", "--max-period", "40"]]
)
def test_sweeps_beyond_the_word_budget_are_refused_at_once(model_paths, capsys, args):
    # fullshift4 has 2**n words of length n: holder ran out of memory here,
    # and gibbs and periodic printed nothing for minutes.  The count stops at
    # length 22, the first past the budget, and nothing else is printed
    start = time.perf_counter()
    assert main([args[0], model_paths["fullshift4"], *args[1:]]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: a sweep over words of lengths up to {40 if args[0] == 'periodic' else 41} would take at least "
        f"8,388,606 admissible words (those up to length 22), beyond the word budget of {potential.WORD_BUDGET:,}\n"
    )


HUGE = "99999999999999999999"  # above sys.maxsize


@pytest.mark.parametrize(
    "args, error",
    [
        (["periodic", "--max-period", "-1"], "maximal period must be >= 1"),
        (["periodic", "--max-period", HUGE], f"a sweep over words of lengths up to {HUGE} would"),
        (["gibbs", "--n-max", HUGE], f"a sweep over words of lengths up to {int(HUGE) + 1} would"),
        (["holder", "--n-max", HUGE], f"a sweep over words of lengths up to {int(HUGE) + 1} would"),
    ],
    ids=["periodic-negative", "periodic-huge", "gibbs-huge", "holder-huge"],
)
def test_sweep_sizes_out_of_range_are_input_errors(model_paths, capsys, args, error):
    # a negative size or one above sys.maxsize made the word count's
    # itertools.islice raise ValueError, printed as a traceback with exit 1
    assert main([args[0], model_paths["fullshift4"], *args[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {error}")
    assert "Traceback" not in err


def test_deep_image_subshift_search_is_linear(model_paths, capsys):
    # the search keeps the witness-free states it has left, so depth 40 (an
    # exponential search would take hours) ends as fast as depth 12 and with
    # the same verdict
    verdicts = []
    for depth in ("12", "40", "200"):
        start = time.perf_counter()
        assert main(["check", model_paths["converse_false"], "--depth", depth]) == 1
        assert time.perf_counter() - start < 2.0
        out = capsys.readouterr().out
        verdicts.append(out.replace(f"depth {depth} ", "depth D "))
    assert verdicts[0] == verdicts[1] == verdicts[2]
    assert "image subshift: no missing word up to depth D (undecided)" in verdicts[0]


@pytest.mark.parametrize("key", ["incidence", "transition"])
def test_boolean_model_matrices_are_input_errors(tmp_path, capsys, key):
    # json reads true and false as bools, which would pass as 1.0 and 0.0
    doc = expand_example("fullshift4")
    if key == "incidence":
        doc["incidence"] = [[True] * 4 for _ in range(4)]
    else:
        doc["transition"][0] = [True, False, False, False]
    path = tmp_path / "bool.json"
    dump_document(doc, str(path))
    assert "true" in path.read_text()
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {key} entries must be numbers, not true or false\n"


def uniform_document(edges: dict, projection: dict) -> dict:
    """A model with uniform rows over the given successor strings."""
    labels = list(edges)
    return {
        "alphabet": labels,
        "incidence": [[int(b in edges[a]) for b in labels] for a in labels],
        "transition": [[1.0 / len(edges[a]) if b in edges[a] else 0.0 for b in labels] for a in labels],
        "projection": projection,
    }


@pytest.fixture
def left_right_path(tmp_path):
    """fullshift4 onto the target labels left and right."""
    doc = expand_example("fullshift4")
    doc["projection"] = {"a": "left", "b": "left", "c": "right", "d": "right"}
    path = tmp_path / "left_right.json"
    dump_document(doc, str(path))
    return str(path)


@pytest.mark.parametrize("point", ["left/right,left", "left,/right,left", "left/,right,,left,"])
def test_a_comma_anywhere_separates_the_labels_of_the_whole_point(left_right_path, capsys, point):
    assert main(["potential", left_right_path, "--point", point]) == 0
    assert capsys.readouterr().out.startswith("point: (left,right,)*\n")


def test_comma_and_character_forms_give_one_point(model_paths, capsys):
    outputs = []
    for point in ("c/ba", "c,/b,a", "c/b,a"):
        assert main(["potential", model_paths["adhoc5"], "--point", point]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].startswith("point: c(ba)*\n")
    assert outputs[0] == outputs[1] == outputs[2]


def test_multicharacter_labels_without_commas_are_refused(left_right_path, capsys):
    assert main(["potential", left_right_path, "--point", "left/right"]) == 2
    assert capsys.readouterr().err == "error: unknown symbol label 'l'\n"


def read_back(path, capsys, point):
    """The name potential prints for point, and whether its parts, given
    back as --point PRE/PER, print the same name."""
    assert main(["potential", path, "--point", point]) == 0
    name = capsys.readouterr().out.splitlines()[0].removeprefix("point: ")
    pre, per = name.removesuffix(")*").split("(")
    assert main(["potential", path, "--point", f"{pre}/{per}"]) == 0
    return name, capsys.readouterr().out.splitlines()[0] == f"point: {name}"


@pytest.mark.parametrize(
    "point, name",
    [
        ("/left,", "(left,)*"),
        ("left,/right", "left(right,)*"),
        ("right,left/right,left,left", "right(left,right,left,)*"),
        ("left/right,left", "(left,right,)*"),
    ],
)
def test_printed_multicharacter_points_read_back(left_right_path, capsys, point, name):
    assert read_back(left_right_path, capsys, point) == (name, True)


def test_printed_points_over_mixed_label_lengths_read_back(tmp_path, capsys):
    doc = expand_example("fullshift4")
    doc["projection"] = {"a": "0", "b": "0", "c": "10", "d": "10"}
    path = str(tmp_path / "mixed.json")
    dump_document(doc, path)
    assert read_back(path, capsys, "0,/10") == ("0(10,)*", True)
    assert read_back(path, capsys, "10,0/0") == ("10(0,)*", True)
    assert main(["periodic", path, "--max-period", "2"]) == 0
    names = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert names == ["(0,)*", "(10,)*", "(0,10,)*", "(10,0,)*"]


def test_printed_single_character_points_read_back(model_paths, capsys):
    assert read_back(model_paths["adhoc5"], capsys, "c,/b,a") == ("c(ba)*", True)
    assert read_back(model_paths["fullshift4"], capsys, "/0") == ("(0)*", True)


@pytest.mark.parametrize("label", ["x/y", "x,y", ""])
def test_target_labels_that_would_not_read_back_are_refused(tmp_path, capsys, label):
    # printed as (x/y,)*, (x,y,)* or ()*: the first two read back as other
    # labels, and over "" two different points print alike
    doc = expand_example("fullshift4")
    doc["projection"] = {"a": label, "b": label, "c": "1", "d": "1"}
    path = str(tmp_path / "labels.json")
    dump_document(doc, path)
    assert main(["periodic", path, "--max-period", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: target labels must be nonempty and hold no '/' or ',': [{label!r}]\n"


@pytest.mark.parametrize("key", ["incidence", "transition"])
@pytest.mark.parametrize("entry", [10**400, "0.5", "1", None])
def test_non_numeric_model_entries_are_input_errors(tmp_path, capsys, key, entry):
    # a float conversion would overflow on the 401-digit integer (a
    # traceback) and read the numeric strings as numbers
    doc = expand_example("fullshift4")
    doc[key][0][1] = entry
    path = tmp_path / "entry.json"
    dump_document(doc, str(path))
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {key} entries must be JSON numbers, with integers of at most 64 bits\n"


@pytest.mark.parametrize("entry", [2**63, 1.0e308, -(2**63)])
def test_model_entries_within_64_bit_integers_and_doubles_are_read(entry):
    # such an entry converts to a float; the transition checks then refuse
    # it as a probability, with their own message
    doc = expand_example("fullshift4")
    doc["transition"][0][1] = entry
    with pytest.raises(gf.ModelError) as err:
        gf.parse_model(doc)
    assert "JSON numbers" not in str(err.value)


def test_check_prints_the_witness_of_a_non_markov_image(tmp_path, capsys):
    # a -> {a, c}, b -> {a}, c -> {b}, with a, b |-> 0 and c |-> 1: block
    # 0 -> 1 has the all-zero row b, and some image word has no preimage
    path = str(tmp_path / "not_markov.json")
    dump_document(uniform_document({"a": "ac", "b": "a", "c": "b"}, {"a": "0", "b": "0", "c": "1"}), path)
    assert main(["check", path, "--depth", "12"]) == 1
    witness = ("0",) * 9 + ("1", "0", "1")
    assert f"image subshift: not Markov at depth 12 (witness {witness})\n" in capsys.readouterr().out


def test_periodic_without_points_up_to_the_period(tmp_path, capsys):
    # the image x -> y -> {x, z}, z -> x has no fixed point
    edges = {"a": "b", "b": "ac", "c": "d", "d": "e", "e": "a"}
    path = str(tmp_path / "no_fixed_point.json")
    dump_document(uniform_document(edges, {"a": "x", "c": "x", "b": "y", "d": "y", "e": "z"}), path)
    assert main(["periodic", path, "--max-period", "1"]) == 0
    assert capsys.readouterr().out == "no periodic points with period <= 1\n"


def test_obstruction_does_not_exclude_uniform_rows(tmp_path, capsys):
    path = str(tmp_path / "uniform4.json")
    dump_document(uniform_document({s: "abcd" for s in "abcd"}, {"a": "0", "b": "0", "c": "1", "d": "1"}), path)
    assert main(["obstruction", path]) == 0
    assert capsys.readouterr().out.endswith("verdict: finite range not excluded by this test\n")
