"""End-to-end tests for the command-line interface."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from cfkde import cli
from cfkde.charfun import as_sample, make_density
from cfkde.cli import _read_sample, build_parser, main
from cfkde.estimator import estimate_on_grid
from cfkde.kernels import make_builtin
from cfkde.risk import exact_mise, exact_mse


def _write_sample(path, values):
    with open(path, "w") as fh:
        for v in values:
            fh.write("%r\n" % float(v))
    return str(path)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# estimate


def test_estimate_single_point_peak(tmp_path):
    inp = _write_sample(tmp_path / "zero.csv", [0.0])
    out = str(tmp_path / "est.csv")
    rc = main(["estimate", "--input", inp, "--h", "1", "--grid-size", "201",
               "--output", out])
    assert rc == 0
    rows = _read_csv(out)
    ys = [float(r["y"]) for r in rows]
    xs = [float(r["x"]) for r in rows]
    peak = max(range(len(ys)), key=ys.__getitem__)
    assert xs[peak] == 0.0
    assert ys[peak] == pytest.approx(0.398942, abs=1e-6)
    meta = _read_json(str(tmp_path / "est.json"))
    assert meta["n"] == 1 and meta["kernel"] == "gaussian"


def test_estimate_missing_file_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "absent.csv")
    rc = main(["estimate", "--input", missing, "--h", "1"])
    assert rc == 2
    assert missing in capsys.readouterr().err


def test_estimate_sinc_corrected_is_density(tmp_path):
    rng = np.random.default_rng(42)
    inp = _write_sample(tmp_path / "s.csv", rng.normal(size=50))
    out = str(tmp_path / "c.csv")
    rc = main(["estimate", "--input", inp, "--kernel", "sinc", "--h", "0.3",
               "--correct", "--grid-size", "401", "--output", out])
    assert rc == 0
    rows = _read_csv(out)
    xs = np.array([float(r["x"]) for r in rows])
    ys = np.array([float(r["y"]) for r in rows])
    assert abs(np.trapezoid(ys, xs) - 1.0) <= 1e-6
    assert ys.min() >= 0.0
    meta = _read_json(str(tmp_path / "c.json"))
    assert meta["corrected"] is True


def test_estimate_infeasible_correction_exit_3(tmp_path, capsys):
    inp = _write_sample(tmp_path / "s.csv", np.linspace(-1, 1, 20))
    rc = main(["estimate", "--input", inp, "--h", "1", "--correct",
               "--grid-size", "8", "--output", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_estimate_with_selector_method(tmp_path):
    rng = np.random.default_rng(3)
    inp = _write_sample(tmp_path / "s.csv", rng.normal(size=40))
    out = str(tmp_path / "m.csv")
    rc = main(["estimate", "--input", inp, "--method", "rot-normal",
               "--output", out])
    assert rc == 0
    meta = _read_json(str(tmp_path / "m.json"))
    assert meta["bandwidth_method"] == "rot_normal"
    assert meta["h"] > 0.0


def test_estimate_needs_h_or_method(tmp_path, capsys):
    inp = _write_sample(tmp_path / "s.csv", [0.0, 1.0])
    rc = main(["estimate", "--input", inp])
    assert rc == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("h", ["nan", "inf"])
def test_estimate_non_finite_h_exit_2(tmp_path, capsys, h):
    inp = _write_sample(tmp_path / "s.csv", [0.0, 1.0])
    out = tmp_path / "x.csv"
    rc = main(["estimate", "--input", inp, "--h", h, "--output", str(out)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("kernel,route", [("epanechnikov", "pairs"), ("sinc", "transform")])
def test_estimate_sidecar_provenance(tmp_path, kernel, route):
    rng = np.random.default_rng(8)
    inp = _write_sample(tmp_path / "s.csv", rng.normal(size=500))
    out = str(tmp_path / "p.csv")
    rc = main(["estimate", "--input", inp, "--kernel", kernel, "--h", "0.25",
               "--output", out])
    assert rc == 0
    meta = _read_json(str(tmp_path / "p.json"))
    assert meta["route"] == route
    assert {"h", "xi", "mass", "grid_size", "bandwidth_method"} <= set(meta)
    if route == "pairs":
        assert meta["reach"] == 0.25 and 0 < meta["pairs"] < 500 * 512
    else:
        assert meta["reach"] is None and meta["nodes"] > 0


# ---------------------------------------------------------------------------
# risk


def test_risk_curve_u_shaped(tmp_path):
    out = str(tmp_path / "r.csv")
    rc = main(["risk", "--density", "normal", "--kernel", "gaussian",
               "--h-grid", "0.05:2:25", "--n", "100", "--output", out])
    assert rc == 0
    vals = [float(r["exact_mise"]) for r in _read_csv(out)]
    diffs = np.diff(vals)
    # strictly decreasing then strictly increasing
    turn = int(np.argmin(vals))
    assert 0 < turn < len(vals) - 1
    assert np.all(diffs[:turn] < 0.0)
    assert np.all(diffs[turn:] > 0.0)


def test_risk_fejer_sinc_closed_form(tmp_path):
    out = str(tmp_path / "f.csv")
    rc = main(["risk", "--density", "fejer", "--kernel", "sinc",
               "--h-grid", "0.5,0.8,1.0", "--n", "50", "--output", out])
    assert rc == 0
    for row in _read_csv(out):
        h = float(row["h"])
        expected = (1.0 / h - 1.0 / 3.0) / (math.pi * 50.0)
        assert float(row["exact_mise"]) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("grid", ["inf", "0.1,nan", "0.1:inf:3", "nan:1:3"])
def test_risk_non_finite_grid_exit_2(tmp_path, capsys, grid):
    out = tmp_path / "x.csv"
    rc = main(["risk", "--density", "normal", "--n", "100", "--h-grid", grid,
               "--output", str(out)])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_risk_requires_n(capsys):
    rc = main(["risk", "--density", "normal", "--h-grid", "0.5"])
    assert rc == 2
    assert "usage" in capsys.readouterr().err


def test_risk_unknown_density_exit_2(tmp_path, capsys):
    rc = main(["risk", "--density", "mystery", "--h-grid", "0.5", "--n", "10",
               "--output", str(tmp_path / "x.csv")])
    assert rc == 2


def test_risk_mc_columns_and_determinism(tmp_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    args = ["risk", "--density", "normal", "--h-grid", "0.3,0.6", "--n", "30",
            "--mc", "25", "--seed", "7"]
    assert main(args + ["--output", out1]) == 0
    assert main(args + ["--output", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    row = _read_csv(out1)[0]
    assert "mc_mise" in row and "mc_se" in row
    assert abs(float(row["mc_mise"]) - float(row["exact_mise"])) \
        <= 4.0 * float(row["mc_se"])


def test_risk_provenance_columns(tmp_path):
    out = str(tmp_path / "p.csv")
    rc = main(["risk", "--density", "uniform", "--kernel", "epanechnikov",
               "--h-grid", "0.3", "--n", "100", "--mc", "3", "--output", out])
    assert rc == 0
    with open(out) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["h", "exact_mise", "quad_error", "mc_mise", "mc_se",
                      "degraded", "cutoff", "nodes"]
    row = _read_csv(out)[0]
    assert row["degraded"] == "false"
    assert float(row["cutoff"]) > 0.0 and int(row["nodes"]) > 0
    out_json = str(tmp_path / "p.json")
    rc = main(["risk", "--density", "normal", "--h-grid", "0.3", "--n", "100",
               "--format", "json", "--output", out_json])
    assert rc == 0
    entry = _read_json(out_json)[0]
    assert entry["degraded"] is False and entry["nodes"] > 0


def test_risk_grid_in_one_call_each_row_to_its_own_cutoff(tmp_path):
    # 200 h over three decades: the h = 0.01 row keeps the cutoff it has alone
    out, alone = str(tmp_path / "wide.csv"), str(tmp_path / "alone.csv")
    argv = ["risk", "--density", "uniform", "--kernel", "gaussian", "--n", "100"]
    assert main(argv + ["--h-grid", "0.01:10:200", "--output", out]) == 0
    assert main(argv + ["--h-grid", "0.01", "--output", alone]) == 0
    rows, one = _read_csv(out), _read_csv(alone)[0]
    assert len(rows) == 200 and all(r["degraded"] == "false" for r in rows)
    assert rows[0]["cutoff"] == one["cutoff"] and rows[0]["nodes"] == one["nodes"]
    assert float(rows[0]["quad_error"]) < 1e-13


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kernel", ["sinc", "gaussian", "epanechnikov"])
def test_risk_bandwidth_below_the_float_range_is_inf_and_degraded(tmp_path, kernel):
    # the sinc kernel's cutoff 1/h overflowed with a RuntimeWarning (an
    # exit-1 traceback under -W error, else a NaN row); it writes the row
    # the other kernels write: an infinite risk, flagged degraded
    out = str(tmp_path / "tiny.csv")
    assert main(["risk", "--density", "uniform", "--kernel", kernel, "--h-grid", "1e-320",
                 "--n", "100", "--output", out]) == 0
    (row,) = _read_csv(out)
    assert row["exact_mise"] == "inf" and row["degraded"] == "true"


# ---------------------------------------------------------------------------
# bounds


@pytest.mark.parametrize("density", ["normal", "mixture", "laplace", "fejer"])
def test_bounds_epanechnikov_cells_parse_as_numbers(tmp_path, density):
    out = str(tmp_path / "be.csv")
    params = (["--param", "weights=0.5,0.5", "--param", "means=-1.5,1.5",
               "--param", "sigmas=0.5,0.5"] if density == "mixture" else [])
    rc = main(["bounds", "--density", density, "--kernel", "epanechnikov",
               "--n", "100", "--output", out] + params)
    assert rc == 0
    for row in _read_csv(out):
        for col in ("h_n", "bound", "exact", "ratio"):
            if row[col] != "":
                float(row[col])


def test_bounds_normal_ratios_at_least_one(tmp_path):
    out = str(tmp_path / "b.csv")
    rc = main(["bounds", "--density", "normal", "--n", "100",
               "--output", out])
    assert rc == 0
    rows = _read_csv(out)
    seen = set()
    for row in rows:
        seen.add(row["theorem_id"])
        if row["applicable"] == "true":
            assert row["bound"] != ""
            if row["ratio"] != "":
                assert float(row["ratio"]) >= 1.0
        else:
            assert row["bound"] == ""
    assert {"thm1", "thm2", "thm3", "thm4", "thm5"} <= seen


def test_bounds_blanks_only_the_degraded_exact_row(tmp_path):
    # lemma2 and thm5 share one exact_mise call for the gaussian kernel; at
    # n = 2^53 only thm5's row is degraded, so only its exact and ratio are blank
    out = str(tmp_path / "bd.csv")
    n = 2 ** 53
    assert main(["bounds", "--density", "uniform", "--kernel", "gaussian", "--n", str(n),
                 "--output", out]) == 0
    rows = {r["theorem_id"]: r for r in _read_csv(out)}
    d, g = make_density("uniform"), make_builtin("gaussian")
    for theorem, degraded in (("lemma2", False), ("thm5", True)):
        row = rows[theorem]
        rep = exact_mise(d, g, float(row["h_n"]), n)
        assert rep.degraded == degraded and row["bound"] != ""
        if degraded:
            assert row["exact"] == "" and row["ratio"] == ""
        else:
            assert abs(float(row["exact"]) - rep.value) <= 2.0 * rep.quad_error
            assert float(row["ratio"]) == pytest.approx(float(row["bound"]) / float(row["exact"]))
    assert rows["lemma5_mise"]["exact"] != ""


def test_bounds_blanks_only_the_max_mse_row_that_fails(tmp_path, monkeypatch):
    # the gaussian max_mse rows (lemma1 at --h, thm3 and thm4 at their
    # recipes) share one exact_mse call; when that call raises at --h, only
    # lemma1 loses its exact and ratio cells
    argv = ["bounds", "--density", "normal", "--kernel", "gaussian", "--n", "100",
            "--h", "0.37"]
    whole = str(tmp_path / "whole.csv")
    assert main(argv + ["--output", whole]) == 0
    calls = []

    def failing(density, kernel, h, n, x):
        calls.append(np.size(h))
        if kernel.name == "gaussian" and np.any(np.asarray(h) == 0.37):
            raise ValueError("negative variance -1e-3 indicates quadrature failure")
        return exact_mse(density, kernel, h, n, x)

    monkeypatch.setattr(cli, "exact_mse", failing)
    out = str(tmp_path / "fail.csv")
    assert main(argv + ["--output", out]) == 0
    # the gaussian batch of three, then one call per row; the sinc batch
    # (lemma5_maxmse, thm8 and thm10)
    assert calls == [3, 1, 1, 1, 3]
    before = {r["theorem_id"]: r for r in _read_csv(whole)}
    for row in _read_csv(out):
        theorem = row["theorem_id"]
        if theorem == "lemma1":
            assert before[theorem]["exact"] != ""
            assert row["exact"] == "" and row["ratio"] == ""
            assert row["bound"] == before[theorem]["bound"] and row["applicable"] == "true"
        else:
            assert row == before[theorem], theorem
    assert before["thm3"]["exact"] != "" and before["thm4"]["exact"] != ""


def test_bounds_small_n_gates_nonsmooth_row(tmp_path):
    out = str(tmp_path / "b15.csv")
    rc = main(["bounds", "--density", "normal", "--n", "15",
               "--output", out])
    assert rc == 0
    row = {r["theorem_id"]: r for r in _read_csv(out)}["thm5"]
    assert row["applicable"] == "false"
    assert row["bound"] == ""


def test_bounds_uniform_applicability_pattern(tmp_path):
    out = str(tmp_path / "bu.csv")
    rc = main(["bounds", "--density", "uniform", "--param", "a=0",
               "--param", "b=1", "--n", "50", "--output", out])
    assert rc == 0
    status = {r["theorem_id"]: r["applicable"] for r in _read_csv(out)}
    for tid in ("thm1", "thm2", "thm3", "thm4", "thm7", "thm8", "thm9",
                "thm10"):
        assert status[tid] == "false", tid
    assert status["thm5"] == "true"
    assert status["thm6"] == "true"


def test_bounds_fejer_band_limited_rows(tmp_path):
    out = str(tmp_path / "bf.csv")
    rc = main(["bounds", "--density", "fejer", "--n", "100", "--h", "1.0",
               "--output", out])
    assert rc == 0
    rows = {r["theorem_id"]: r for r in _read_csv(out)}
    assert rows["thm11"]["applicable"] == "true"
    assert float(rows["thm11"]["bound"]) == pytest.approx(
        1.0 / (math.pi * 100.0), rel=1e-12
    )
    assert float(rows["thm11"]["ratio"]) >= 1.0


@pytest.mark.parametrize("h0", ["nan", "inf", "1e300"])
def test_bounds_rejects_non_finite_or_overflowing_h0(tmp_path, capsys, h0):
    # nan and inf used to exit 0 with applicable rows bounded by nan or inf,
    # 1e300 with an OverflowError traceback
    out = tmp_path / "b.csv"
    rc = main(["bounds", "--density", "normal", "--n", "100", "--h0", h0,
               "--output", str(out)])
    assert rc == 2
    assert "h0" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# select and plan


def test_select_missing_file_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "absent.csv")
    rc = main(["select", "--input", missing, "--method", "ucv"])
    assert rc == 2
    assert missing in capsys.readouterr().err


def test_select_rot_normal_constant(tmp_path):
    rng = np.random.default_rng(11)
    data = rng.normal(size=80)
    inp = _write_sample(tmp_path / "s.csv", data)
    out = str(tmp_path / "sel.json")
    rc = main(["select", "--input", inp, "--method", "rot-normal",
               "--output", out])
    assert rc == 0
    res = _read_json(out)
    sigma = float(np.std(data, ddof=1))
    assert res["h"] / sigma * 80 ** 0.2 == pytest.approx(1.0592, abs=5e-4)
    assert res["metadata"]["constant"] == pytest.approx(1.0592, abs=5e-4)
    assert res["criterion_curve"] is None


def test_select_ucv_matches_library_argmin(tmp_path):
    from cfkde.charfun import as_sample, make_density
    from cfkde.kernels import make_builtin
    from cfkde.selector import cv_bandwidth

    rng = np.random.default_rng(2005)
    data = rng.normal(size=60)
    inp = _write_sample(tmp_path / "s.csv", data)
    out = str(tmp_path / "sel.json")
    rc = main(["select", "--input", inp, "--method", "ucv", "--output", out])
    assert rc == 0
    res = _read_json(out)
    oracle = cv_bandwidth(as_sample(data), make_builtin("gaussian"))
    assert res["h"] == pytest.approx(oracle.h, rel=1e-12)
    curve = res["criterion_curve"]
    qs = [q for _, q in curve]
    hs = [h for h, _ in curve]
    assert hs[int(np.argmin(qs))] == res["h"]


def test_plan_prints_n0_and_certificate(tmp_path, capsys):
    rc = main(["plan", "--target", "mise", "--regime", "nonsmooth",
               "--variation", "2", "--eps", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n0 = 163" in out
    assert "certified_bound" in out


def test_plan_matches_linear_scan(tmp_path, capsys):
    rc = main(["plan", "--target", "mise", "--v2", "1.5100", "--eps", "0.01",
               "--output", str(tmp_path / "p.json")])
    assert rc == 0
    res = _read_json(str(tmp_path / "p.json"))
    c, r = res["constant"], res["rate"]
    n0 = res["n0"]
    scan = next(n for n in range(1, 10 ** 5) if c * n ** -r <= 0.01)
    assert n0 == scan
    assert res["certified_bound"] <= 0.01


def test_plan_missing_constants_exit_2(capsys):
    rc = main(["plan", "--target", "mise", "--eps", "0.1"])
    assert rc == 2


@pytest.mark.parametrize("argv, word", (
    # each ended in a ZeroDivisionError or OverflowError traceback and exit 1
    (["select", "--method", "mise-thm1", "--v2", "inf"], "v2"),
    (["select", "--method", "mise-thm1", "--v2", "1e-320"], "v=1e-320"),
    (["select", "--method", "maxmse-thm3", "--v3", "inf", "--a", "1"], "v3"),
    (["plan", "--target", "mise", "--eps", "0.01", "--v2", "inf"], "v2"),
    (["plan", "--target", "mise", "--eps", "1e-300", "--v2", "1"], "samples"),
    (["plan", "--target", "mise", "--eps", "0.01", "--regime", "nonsmooth",
      "--variation", "inf"], "variation"),
    (["plan", "--target", "mise", "--eps", "1e-300", "--regime", "nonsmooth",
      "--variation", "2"], "samples"),
    (["plan", "--target", "mise", "--eps", "0.01", "--regime", "smooth", "--m", "2",
      "--vm", "1e308"], "v=1e+308"),
    (["plan", "--target", "mise", "--eps", "0.01", "--regime", "smooth",
      "--m", "1" + "0" * 400, "--vm", "1"], "thm7"),
    (["select", "--method", "ucv", "--q-estimator", "parametric", "--sigma-hat", "inf"],
     "sigma_hat"),
    # exited 2 already, but said "cannot convert float NaN to integer"
    (["plan", "--target", "max_mse", "--eps", "0.01", "--v3", "1", "--a", "inf"],
     "constant a,"),
))
def test_select_and_plan_constants_not_finite_and_positive_exit_2(tmp_path, capsys,
                                                                  argv, word):
    if argv[0] == "select":
        argv = argv + ["--input", _write_sample(tmp_path / "s.csv", [0.1, 0.4, 0.9])]
    out = tmp_path / "out.json"
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and word in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("argv, word", (
    # each ended in an OverflowError traceback, exit 1: the cutoff ladder of
    # certified_cutoff, and the sinc estimate's panel count
    (["select", "--method", "ucv", "--q-estimator", "parametric", "--sigma-hat", "1e308"],
     "cutoff search"),
    (["risk", "--density", "normal", "--h-grid", "1e-320", "--n", "100"], "cutoff search"),
    (["estimate", "--kernel", "sinc", "--correct", "--h", "1e-320"], "bandwidth 1e-320"),
    # the default grid's 4h pad made its ends infinite: linspace warned and
    # the grid was refused as not uniformly spaced
    (["estimate", "--h", "1e308"], "bandwidth 1e+308"),
))
def test_bandwidth_near_the_float_range_ends_exits_2(tmp_path, capsys, argv, word):
    if argv[0] != "risk":
        argv = argv + ["--input", _write_sample(tmp_path / "s.csv", [0.1, 0.4, 0.9, 1.6])]
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and word in err[0], err
    assert not out.exists() and not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("argv", (
    # each ended in an OverflowError traceback, exit 1: m read by the
    # smooth rows' exponent, n by the division of exact_mise
    ["bounds", "--density", "normal", "--n", "100", "--m", "1" + "0" * 400],
    ["risk", "--density", "normal", "--n", "1" + "0" * 400, "--h-grid", "0.3"],
    ["risk", "--density", "laplace", "--n", "1" + "0" * 400, "--h-grid", "0.3"],
))
def test_counts_past_2_to_the_53_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "2^53" in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("kernel", ["gaussian", "sinc", "epanechnikov", "uniform"])
def test_select_ucv_grid_over_the_float_range_exits_0_or_2(tmp_path, capsys, kernel):
    # h_min times the gaussian plan's step underflowed to 0: ZeroDivisionError
    src = _write_sample(tmp_path / "s.csv", np.random.default_rng(0).normal(size=500))
    out = tmp_path / "w.json"
    rc = main(["select", "--input", src, "--method", "ucv", "--kernel", kernel,
               "--h-grid", "1e-300,1e300", "--output", str(out)])
    assert rc in (0, 2)
    if rc == 0:
        r = json.loads(out.read_text())
        assert r["h"] in (1e-300, 1e300)
        assert all(math.isfinite(q) for _, q in r["criterion_curve"])
    else:
        assert capsys.readouterr().err.startswith("error: ") and not out.exists()


def test_select_ucv_criterion_not_finite_exits_2(tmp_path, capsys):
    # exited 0 with h = 1e-320 and a NaN in the curve
    src = _write_sample(tmp_path / "s.csv", np.random.default_rng(0).normal(size=500))
    out = tmp_path / "n.json"
    assert main(["select", "--input", src, "--method", "ucv", "--kernel", "sinc",
                 "--h-grid", "1e-320,1", "--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: the criterion is not finite at h = 1e-320"] and not out.exists()


@pytest.mark.parametrize("argv, fmt", (
    (["estimate", "--input", "s.csv", "--h", "0.3"], "json"),
    (["select", "--input", "s.csv", "--method", "rot-normal"], "csv"),
    (["plan", "--target", "mise", "--eps", "0.1", "--v2", "1"], "csv"),
))
def test_format_the_command_does_not_write_exit_2(tmp_path, capsys, argv, fmt):
    # estimate writes the grid CSV and a JSON sidecar, select and plan JSON
    _write_sample(tmp_path / "s.csv", [0.1, 0.4, 0.9])
    argv = [a.replace("s.csv", str(tmp_path / "s.csv")) for a in argv]
    out = str(tmp_path / "out")
    assert main(argv + ["--format", fmt, "--output", out]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": fmt}))
    assert main(argv + ["--config", str(cfg), "--output", out]) == 2
    assert "writes" in capsys.readouterr().err and not os.path.exists(out)


# ---------------------------------------------------------------------------
# config handling


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 25, "h_grid": "0.3,0.6",
                               "density": "normal"}))
    out = str(tmp_path / "r.csv")
    rc = main(["risk", "--config", str(cfg), "--n", "50", "--output", out])
    assert rc == 0
    rows = _read_csv(out)
    assert [float(r["h"]) for r in rows] == [0.3, 0.6]
    # flag value n=50 must win over the config file's 25
    from cfkde.charfun import make_density
    from cfkde.kernels import make_builtin
    from cfkde.risk import exact_mise
    expected = exact_mise(make_density("normal"), make_builtin("gaussian"),
                          0.3, 50).value
    assert float(rows[0]["exact_mise"]) == pytest.approx(expected, rel=1e-12)


def test_config_unknown_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rc = main(["risk", "--config", str(cfg), "--density", "normal",
               "--h-grid", "0.5", "--n", "10"])
    assert rc == 2


@pytest.mark.parametrize("argv, config", (
    (["risk", "--density", "normal", "--h-grid", "0.3"], {"n": "100"}),
    (["bounds", "--density", "normal", "--n", "100"], {"h0": "1"}),
    (["estimate", "--h", "0.3"], {"grid_size": 64.5}),
))
def test_config_value_of_the_wrong_type_exit_2(tmp_path, capsys, argv, config):
    inp = _write_sample(tmp_path / "s.csv", [0.0, 1.0, 2.0])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    if argv[0] == "estimate":
        argv = argv + ["--input", inp]
    rc = main(argv + ["--config", str(cfg), "--output", str(out)])
    assert rc == 2
    assert next(iter(config)) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, config, word", (
    (["--param", "foo=1"], None, "foo"),
    (["--param", "sigma=1,2"], None, "sigma"),
    ([], {"density_params": {"sigma": "1"}}, "sigma"),
    (["--density", "mixture", "--param", "weights=1"], None, "means"),
))
def test_density_parameter_of_the_wrong_name_or_type_exit_2(tmp_path, capsys, flags, config, word):
    # each used to end in a TypeError traceback (exit 1) inside make_density
    argv = ["risk", "--density", "normal", "--h-grid", "0.3", "--n", "5"] + flags
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    out = tmp_path / "out.csv"
    assert main(argv + ["--output", str(out)]) == 2
    assert word in capsys.readouterr().err
    assert not out.exists()


def test_config_missing_file_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    rc = main(["risk", "--config", missing, "--density", "normal", "--h-grid", "0.5"])
    assert rc == 2
    assert missing in capsys.readouterr().err


def test_dump_config_resolves(tmp_path, capsys):
    rc = main(["risk", "--density", "normal", "--h-grid", "0.5", "--n", "10",
               "--dump-config"])
    assert rc == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["command"] == "risk"
    assert resolved["n"] == 10
    assert resolved["format"] == "csv"


def test_output_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("CFKDE_OUTPUT_DIR", str(tmp_path))
    rc = main(["risk", "--density", "normal", "--h-grid", "0.5", "--n", "10"])
    assert rc == 0
    assert os.path.exists(str(tmp_path / "risk.csv"))


def _dump(capsys, argv):
    assert main(argv + ["--dump-config"]) == 0
    return json.loads(capsys.readouterr().out)


def test_parser_built_once_and_calls_stay_independent(tmp_path, capsys):
    assert build_parser() is build_parser()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "epanechnikov", "h": 0.7, "grid_size": 64}))
    risk = ["risk", "--density", "normal", "--h-grid", "0.5", "--n", "10"]
    first = _dump(capsys, risk + ["--param", "mu=1", "--param", "sigma=2", "--kernel", "uniform"])
    assert first["density_params"] == {"mu": 1.0, "sigma": 2.0}
    assert first["kernel"] == "uniform"
    from_cfg = _dump(capsys, ["estimate", "--input", "x.csv", "--config", str(cfg)])
    assert (from_cfg["kernel"], from_cfg["h"], from_cfg["grid_size"]) == ("epanechnikov", 0.7, 64)
    # nothing from the calls before: no params, no kernel, no config values
    again = _dump(capsys, risk + ["--param", "sigma=3"])
    assert again["density_params"] == {"sigma": 3.0} and again["kernel"] == "gaussian"
    plain = _dump(capsys, ["estimate", "--input", "x.csv", "--h", "0.2"])
    assert (plain["kernel"], plain["h"], plain["grid_size"]) == ("gaussian", 0.2, 512)
    assert _dump(capsys, risk)["density_params"] is None
    # a failed parse leaves the next call unaffected
    assert main(["select", "--input", "x.csv"]) == 2
    capsys.readouterr()
    sel = _dump(capsys, ["select", "--input", "x.csv", "--method", "ucv"])
    assert sel["method"] == "ucv" and sel["format"] == "json"


# ---------------------------------------------------------------------------
# sample CSV rules


def _sample_file(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    return str(path)


def test_read_sample_uses_the_first_column(tmp_path):
    s = _read_sample(_sample_file(tmp_path, "x,y\n3.5,9\n-1,8\n2e-3,x\n"))
    assert s.values.tolist() == [-1.0, 2e-3, 3.5]


def test_read_sample_skips_blank_lines(tmp_path):
    s = _read_sample(_sample_file(tmp_path, "\n1\n  \n\n2\n,7\n"))
    assert s.values.tolist() == [1.0, 2.0]


def test_read_sample_header_only_on_line_one(tmp_path):
    assert _read_sample(_sample_file(tmp_path, "value\n1\n2\n")).n == 2
    # a header after a blank first line is on line 2: not tolerated
    with pytest.raises(ValueError, match="'value' on line 2"):
        _read_sample(_sample_file(tmp_path, "\nvalue\n1\n"))


def test_read_sample_names_the_bad_line_and_cell(tmp_path):
    path = _sample_file(tmp_path, "x\n1\n\n2\nabc,3\n4\n")
    with pytest.raises(ValueError, match="'abc' on line 5 of " + re.escape(path)):
        _read_sample(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["", "\n\n", "x\n", "x\n\n", "  \n\t\n"])
def test_read_sample_without_data(tmp_path, text):
    with pytest.raises(ValueError, match="no data"):
        _read_sample(_sample_file(tmp_path, text))


def _spy_scan(monkeypatch):
    # records the files that fall back to the line scan
    scanned = []
    scan = cli._scan_sample

    def spy(lines, path):
        scanned.append(path)
        return scan(lines, path)

    monkeypatch.setattr(cli, "_scan_sample", spy)
    return scanned


# 60 cells are read through the open file, 3000 by name
@pytest.mark.parametrize("count", [60, 3000])
def test_read_sample_parses_cells_as_float_does(tmp_path, monkeypatch, count):
    scanned = _spy_scan(monkeypatch)
    # the raw values in file order, the non-finite ones included
    monkeypatch.setattr(cli, "as_sample", lambda values: values)
    rng = np.random.default_rng(count)
    v = rng.normal(size=count) * 10.0 ** rng.integers(-12, 13, count)
    cells = [("%r", "%.6g", "%.25e")[i % 3] % x for i, x in enumerate(v.tolist())]
    cells[1::7] = [" %s\t" % c for c in cells[1::7]]
    cells += ["inf", "-inf", "nan", "-0.0", " 5e-324", "1e400"]
    text = "x,w\r\n" + "".join("%s,1\r\n%s" % (c, "\r\n" * (i % 5 == 0))
                               for i, c in enumerate(cells))
    path = tmp_path / "cells.csv"
    path.write_bytes(text.encode())
    assert (os.path.getsize(path) > cli._READ_BY_NAME) == (count > 1000)
    got = _read_sample(str(path))
    assert scanned == []
    ref = np.array([float(c) for c in cells])
    assert got.view(np.uint64).tolist() == ref.view(np.uint64).tolist()


@pytest.mark.parametrize("count", [60, 3000])
def test_read_sample_parser_and_scan_agree(tmp_path, monkeypatch, count):
    # the same values, once clean and once in files only the scan reads
    scanned = _spy_scan(monkeypatch)
    v = np.random.default_rng(5).normal(size=count).tolist()
    v[count // 2] = 1000.0
    cells = ["%r" % x for x in v]
    clean = _sample_file(tmp_path, "x\n" + "".join(c + "\n" for c in cells))
    a = _read_sample(clean).values
    assert scanned == []
    comma = cells[:3] + [",5"] + cells[3:]
    b = _read_sample(_sample_file(tmp_path, "x\n" + "".join(c + "\n" for c in comma))).values
    under = cells[:count // 2] + ["1_000"] + cells[count // 2 + 1:]
    c = _read_sample(_sample_file(tmp_path, "".join(c + "\n" for c in under))).values
    assert len(scanned) == 2
    assert a.view(np.uint64).tolist() == b.view(np.uint64).tolist() == c.view(np.uint64).tolist()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("text", ["x\n1\n2\n", "1\n,5\n2\n"])
def test_read_sample_from_a_pipe(tmp_path, text):
    # a pipe cannot be read twice: the scan still gets the whole file
    fifo = str(tmp_path / "pipe.csv")
    os.mkfifo(fifo)

    def write():
        with open(fifo, "w") as fh:
            fh.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        assert _read_sample(fifo).values.tolist() == [1.0, 2.0]
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_read_sample_takes_a_compressed_suffix_literally(tmp_path):
    # np.loadtxt would gunzip a file it opens by a .gz name; open() does not
    path = tmp_path / "big.csv.gz"
    path.write_text("x\n" + "".join("%r\n" % (i / 7.0) for i in range(2000)))
    assert os.path.getsize(path) > cli._READ_BY_NAME
    assert _read_sample(str(path)).n == 2000


def _old_csv_text(header, rows):
    # the per-cell formatter the estimate CSV was written with before its
    # row format: the reference for its bytes
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(float(value))
        return str(value)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("grid,kernel", [(512, "gaussian"), (2048, "epanechnikov")])
def test_estimate_csv_bytes_match_the_per_cell_formatter(tmp_path, grid, kernel):
    values = np.random.default_rng(grid).normal(size=700)
    inp = _write_sample(tmp_path / "s.csv", values)
    out = tmp_path / "e.csv"
    assert main(["estimate", "--input", inp, "--kernel", kernel, "--h", "0.3",
                 "--grid-size", str(grid), "--output", str(out)]) == 0
    est = estimate_on_grid(as_sample(values), make_builtin(kernel), 0.3, n_points=grid)
    rows = list(zip((float(x) for x in est.xs), (float(y) for y in est.ys)))
    assert out.read_bytes() == _old_csv_text(("x", "y"), rows).encode()


def test_estimate_two_column_csv_with_header(tmp_path, capsys):
    inp = _sample_file(tmp_path, "x,w\n" + "".join("%r,1\n" % v for v in np.linspace(-1, 1, 30).tolist()))
    out = str(tmp_path / "e.csv")
    assert main(["estimate", "--input", inp, "--h", "0.4", "--output", out]) == 0
    assert _read_json(str(tmp_path / "e.json"))["n"] == 30
    bad = _sample_file(tmp_path, "1\n2\nthree\n")
    assert main(["estimate", "--input", bad, "--h", "0.4", "--output", out]) == 2
    assert "'three' on line 3" in capsys.readouterr().err


@pytest.mark.parametrize("centre", [1e4, 1e6, 1e8])
def test_estimate_accepts_its_default_grid_far_from_zero(tmp_path, centre):
    # linspace rounds each point by up to an ulp of the centre, which the
    # uniformity check used to read as a non-uniform grid (exit 2)
    values = centre + np.random.default_rng(4).normal(size=1000)
    inp = _write_sample(tmp_path / "far.csv", values)
    out = str(tmp_path / "far-est.csv")
    assert main(["estimate", "--input", inp, "--method", "rot-normal", "--output", out]) == 0
    meta = _read_json(str(tmp_path / "far-est.json"))
    assert meta["n"] == 1000 and abs(meta["mass"] - 1.0) < 1e-6


def test_estimate_and_select_load_no_scipy_integrate(tmp_path):
    # scipy.integrate loads scipy.optimize and scipy.linalg; only
    # kernels.kernel_from_functions needs it, so the CLI's jobs leave it out
    inp = _write_sample(tmp_path / "s.csv", np.random.default_rng(7).normal(size=300))
    script = (
        "import sys\n"
        "import cfkde.cli\n"
        "inp, out = sys.argv[1], sys.argv[2]\n"
        "assert cfkde.cli.main(['estimate', '--input', inp, '--h', '0.3', "
        "'--output', out + '.csv']) == 0\n"
        "assert cfkde.cli.main(['select', '--input', inp, '--method', 'ucv', "
        "'--output', out + '.json']) == 0\n"
        "print('loaded:', *(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'integrate'], ['scipy', 'optimize'])))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", script, inp, str(tmp_path / "out")],
                         capture_output=True, text=True, env=env, check=True)
    assert run.stdout.splitlines()[-1] == "loaded:"
