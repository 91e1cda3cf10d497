from __future__ import annotations

import math

import pytest

import gibbsfactor as gf
from gibbsfactor import projection
from gibbsfactor.cli import main
from gibbsfactor.models import dump_document, expand_example

INVARIANCE_TOL = 1e-12


def test_bgi_sweep_certified_adhoc5(adhoc5, adhoc5_constants):
    report = gf.bgi_sweep(adhoc5, n_max=6, constants=adhoc5_constants)
    assert report.certified
    assert report.proxy_points == 0
    assert report.notes == ()
    assert len(report.rows) == 7
    for row in report.rows:
        assert row.verdict == "pass"
        assert row.k_emp <= row.k_cert + row.slack
        assert row.r_min <= row.r_max
        assert row.cylinder_count == len(
            gf.enumerate_words(adhoc5.factor_tmc, row.n + 1)
        )


def test_bgi_k_emp_bounded_adhoc5(adhoc5, adhoc5_constants):
    report = gf.bgi_sweep(adhoc5, n_max=8, constants=adhoc5_constants)
    k = [row.k_emp for row in report.rows]
    # the empirical constant must stay bounded; on this example it saturates
    # well below 1 while the certified budget is far larger
    assert max(k) < 1.0
    assert max(k) <= adhoc5_constants.k_gibbs


def test_bgi_sweep_uncertified_without_constants(adhoc5):
    report = gf.bgi_sweep(adhoc5, n_max=3)
    assert not report.certified
    for row in report.rows:
        assert row.verdict == "uncertified"
        assert math.isnan(row.k_cert)
        assert math.isnan(row.slack)


def test_bgi_sweep_flags_divergent_points(nongibbs6):
    report = gf.bgi_sweep(nongibbs6, n_max=5)
    assert report.proxy_points > 0
    assert any("stand-in" in note for note in report.notes)
    k = [row.k_emp for row in report.rows]
    # with the fixed-horizon stand-in the unbounded correction shows up as
    # growing empirical constants
    assert all(b >= a - 1e-9 for a, b in zip(k, k[1:]))
    assert k[-1] > k[0] + 0.5


def test_bgi_csv_format(tmp_path, capsys):
    model, csv = tmp_path / "adhoc5.json", tmp_path / "sweep.csv"
    gf.models.dump_document(gf.models.expand_example("adhoc5"), str(model))
    assert main(["gibbs", str(model), "--n-max", "2", "--csv", str(csv)]) == 0
    capsys.readouterr()
    lines = csv.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "n,cylinder_count,K_emp,K_cert,slack,verdict"
    assert len(lines) == 4
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == i
        assert int(fields[1]) > 0
        float(fields[2])
        float(fields[3])
        float(fields[4])
        assert fields[5] == "pass"


def test_invariance_identities_adhoc5(adhoc5):
    report = gf.invariance_suite(adhoc5, n_max=6)
    assert report.max_residual < INVARIANCE_TOL
    assert [row.n for row in report.rows] == list(range(1, 7))


def test_invariance_identities_hold_without_h1(converse_false):
    # the identities are measure-theoretic and hold even when certification
    # hypotheses fail
    report = gf.invariance_suite(converse_false, n_max=5)
    assert report.max_residual < INVARIANCE_TOL


def test_invariance_identities_nongibbs(nongibbs6):
    report = gf.invariance_suite(nongibbs6, n_max=5)
    assert report.max_residual < INVARIANCE_TOL


def test_bgi_proxies_are_the_diverged_points(nongibbs6):
    n_max = 4
    report = gf.bgi_sweep(nongibbs6, n_max=n_max)
    points = {
        p
        for n in range(n_max + 1)
        for w in gf.enumerate_words(nongibbs6.factor_tmc, n + 1)
        for p in (
            gf.canonical_extension(nongibbs6, w.symbols).shifted(j)
            for j in range(n + 1)
        )
    }
    diverged = [p for p in points if gf.evaluate(nongibbs6, p).mode == "diverged"]
    assert report.proxy_points == len(diverged) > 0
    assert len(report.notes) == 1


def test_bgi_sweep_without_divergence_has_no_note(adhoc5):
    report = gf.bgi_sweep(adhoc5, n_max=3)
    assert report.proxy_points == 0
    assert report.notes == ()


def test_sweeps_refuse_depths_below_their_least(adhoc5, adhoc5_constants):
    with pytest.raises(gf.ModelError, match="n_max"):
        gf.bgi_sweep(adhoc5, n_max=-1)
    with pytest.raises(gf.ModelError, match="n_max"):
        gf.holder_variation(adhoc5, adhoc5_constants, n_max=-1)
    with pytest.raises(gf.ModelError, match="n_max"):
        gf.invariance_suite(adhoc5, n_max=0)
    assert len(gf.bgi_sweep(adhoc5, n_max=0).rows) == 1
    assert len(gf.holder_variation(adhoc5, adhoc5_constants, n_max=0).var) == 1
    assert len(gf.invariance_suite(adhoc5, n_max=1).rows) == 1


@pytest.mark.parametrize("n_max, passes", [(3, 1), (10, 1), (11, 2)])
def test_gibbs_invariance_takes_the_cylinder_masses_once_per_depth(tmp_path, monkeypatch, capsys, n_max, passes):
    # bgi_sweep wants depth n_max + 1 and invariance_suite min(n_max, 10) + 1
    calls = []
    cylinder_pass = projection._cylinder_pass

    def counted(fs, max_length):
        calls.append(max_length)
        return cylinder_pass(fs, max_length)

    monkeypatch.setattr(projection, "_cylinder_pass", counted)
    path = str(tmp_path / "fullshift4.json")
    dump_document(expand_example("fullshift4"), path)
    assert main(["gibbs", path, "--n-max", str(n_max), "--invariance"]) == 0
    assert "invariance residuals" in capsys.readouterr().out
    assert len(calls) == passes
    assert calls[0] == n_max + 1 and calls[-1] == min(n_max, 10) + 1


def test_cylinder_masses_are_kept_per_system_and_depth():
    fs = gf.example_system("adhoc5")
    masses = projection.log_nu_cylinders(fs, 5)
    assert projection.log_nu_cylinders(fs, 5) is masses
    assert projection.log_nu_cylinders(fs, 4) is not masses
    fresh = projection.log_nu_cylinders(gf.example_system("adhoc5"), 5)
    assert fresh is not masses and repr(fresh) == repr(masses)
