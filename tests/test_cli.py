"""Command line driver: subcommands, file formats, exit codes."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bool_canvas
import diskmap
import probes
from diskmap import certify, cli, regions, regularity, solver, weight
from diskmap.errors import NotUnivalentError
from diskmap.spectral import DiskFunction


def run(argv):
    return cli.main([str(a) for a in argv])


def write_map(path, coeffs):
    cli.write_coefficients_csv(str(path), DiskFunction(coeffs))
    return path


# ---------------------------------------------------------------------------
# solve

def test_solve_writes_all_artifacts(tmp_path, capsys):
    code = run([
        "solve", "--field", "staircase", "--init", "6.5", "--out", tmp_path,
        "--emit", "json,csv,svg",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "converged" in out
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["converged"] is True
    assert abs(report["derivative_at_origin"] - 6.0) < 1e-8
    lines = (tmp_path / "coefficients.csv").read_text().splitlines()
    assert lines[0] == "k,re_ck,im_ck"
    assert (tmp_path / "boundary.csv").read_text().startswith("t,re_f,im_f,abs_fprime,phi")
    assert (tmp_path / "curve.svg").read_text().startswith("<svg")


def test_solve_emit_filter(tmp_path):
    code = run(["solve", "--field", "constant:2.0", "--out", tmp_path, "--emit", "svg"])
    assert code == 0
    assert (tmp_path / "curve.svg").exists()
    assert not (tmp_path / "coefficients.csv").exists()
    assert not (tmp_path / "solve_report.json").exists()


def test_solve_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["solve", "--field", "staircase", "--init", "6.5", "--out", out]) == 0
    assert (a / "coefficients.csv").read_bytes() == (b / "coefficients.csv").read_bytes()
    assert (a / "solve_report.json").read_bytes() == (b / "solve_report.json").read_bytes()


def test_solve_nonconvergence_exits_one(tmp_path, capsys):
    code = run([
        "solve", "--field", "staircase", "--init", "20", "--max-iters", "1",
        "--out", tmp_path, "--emit", "json",
    ])
    assert code == 1
    assert "did not converge" in capsys.readouterr().out


@pytest.mark.parametrize("argv,code,reason", [
    (["--init", "6.5"], 0, "tolerance"),
    (["--init", "20", "--max-iters", "1"], 1, "max_iters"),
    # 6z's residual (~1.8e-15) cannot meet a TOL_RESIDUAL of 1e-20
    (["--init", "6.5"], 1, "residual"),
    # the n = 512 solve settles on an unresolved tail and refines to 8192
    (["--init", "1.0", "--zeros", "0.995"], 0, "tolerance"),
    # z^2 + z, a branched solution
    (["--init", "1.0", "--zeros", "-0.5"], 0, "tolerance"),
])
def test_solve_report_records_stop_reason(monkeypatch, tmp_path, argv, code, reason):
    if reason == "residual":
        monkeypatch.setattr(solver, "TOL_RESIDUAL", 1e-20)
    assert run(["solve", "--field", "staircase", *argv, "--out", tmp_path, "--emit", "json"]) == code
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["stop_reason"] == reason
    assert "theta" not in report


def test_a_map_whose_derivative_vanishes_on_the_critical_circle_exits_one(tmp_path, capsys):
    # the zero map from --init 0: f' = 0 on the 0.999 circle, whose angle
    # sum is nan; it used to exit 2 as a configuration error
    argv = ["solve", "--field", "staircase", "--init", "0", "--max-iters", "0", "--out", tmp_path, "--emit", "json"]
    assert run(argv) == 1
    assert "configuration error" not in capsys.readouterr().err
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["stop_reason"] == "max_iters" and report["locally_univalent"] is False


def test_a_report_with_a_non_finite_residual_is_strict_json(tmp_path):
    # f' overflows on the circle, so the residual is nan; it used to be
    # written as NaN, which strict JSON parsers reject
    write_map(tmp_path / "big.csv", np.array([0.0, 1e308, 1e308]))
    argv = ["solve", "--field", "staircase", "--init", f"csv:{tmp_path / 'big.csv'}", "--max-iters", "0"]
    assert run([*argv, "--out", tmp_path, "--emit", "json"]) == 1

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    report = json.loads((tmp_path / "solve_report.json").read_text(), parse_constant=reject)
    assert report["residual"] is None and report["stop_reason"] == "max_iters"


def test_a_tail_unresolved_on_the_largest_grid_is_a_failed_solve(tmp_path, capsys, monkeypatch):
    # the kinked ripple needs 128 points; it used to raise, and no file was written
    monkeypatch.setattr(solver, "MAX_GRID", 64)
    assert run(["solve", "--field", "ripple_kink", "--n", "64", "--out", tmp_path, "--emit", "json"]) == 1
    assert "did not converge (unresolved)" in capsys.readouterr().out
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert (report["stop_reason"], report["converged"], report["n"]) == ("unresolved", False, 64)
    # spectrum still classifies the unresolved map, as it does one cut off by max_iters
    assert run(["spectrum", "--field", "ripple_kink", "--n", "64", "--out", tmp_path]) == 0
    assert json.loads((tmp_path / "spectrum.json").read_text())["spectrum"]["decay"]


@pytest.mark.parametrize("argv", [
    ["solve", "--init", "csv:{map}", "--max-iters", "0"],
    ["certify", "--map", "{map}", "--checks", "subsolution"],
    ["solve", "--init", "csv:{map}", "--max-iters", "0", "--emit", "json,csv,svg"],
], ids=["solve", "certify", "solve_svg"])
def test_an_overflowing_map_fails_without_numpy_warnings(tmp_path, capsys, argv):
    # its non-finite traces and margins are the verdicts; numpy used to warn
    # about them five times on solve and four times on certify, and four
    # more times drawing a curve.svg of nan coordinates
    path = write_map(tmp_path / "big.csv", np.array([0.0, 1e308, 1e308]))
    argv = [arg.format(map=path) for arg in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([argv[0], "--field", "staircase", *argv[1:], "--out", tmp_path]) == 1
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not (tmp_path / "curve.svg").exists()
    if "svg" in argv[-1]:
        assert "error: boundary trace is not finite" in capsys.readouterr().err
        for name in ("solve_report.json", "coefficients.csv", "boundary.csv"):
            assert (tmp_path / name).exists(), name


def test_refining_solve_counts_the_steps_of_every_grid(tmp_path):
    # 7 + 2 + 2 + 2 + 2 steps over the grids 512 .. 8192; the sha256 pins
    # the refined coefficients
    argv = ["solve", "--field", "staircase", "--zeros", "0.995", "--init", "1.0", "--out", tmp_path]
    assert run(argv) == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert (report["iterations"], report["n"], report["doublings"]) == (15, 8192, 4)
    got = hashlib.sha256((tmp_path / "coefficients.csv").read_bytes()).hexdigest()
    assert got == "9d78dd97ad7649f1f1fea74132b949c93fcf62e1ce0d43257bdaa5219032a046"


def test_config_file_with_cli_override(tmp_path):
    cfgfile = tmp_path / "solve.cfg"
    cfgfile.write_text("field=staircase\ninit=1.0  # overridden below\nn=512\n")
    code = run(["solve", "--config", cfgfile, "--init", "6.5", "--out", tmp_path, "--emit", "json"])
    assert code == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert abs(report["derivative_at_origin"] - 6.0) < 1e-8


def test_solve_defaults_come_from_solve_options(capsys):
    defaults = solver.SolveOptions()
    assert cli.build_options(cli.parse_args(["solve"])) == defaults
    with pytest.raises(SystemExit):
        cli.main(["solve", "--help"])
    text = " ".join(capsys.readouterr().out.split("options:", 1)[1].split())
    for flag, value in (("--n", defaults.n), ("--max-iters", defaults.max_iters)):
        assert re.search(rf"{flag} \S+ .*?\(default ([^)]*)\)", text).group(1) == str(value), flag


def test_shipped_configs_parse():
    for name, zeros in (("configs/staircase_maximal.cfg", []), ("configs/staircase_branched.cfg", [-0.5])):
        args = cli.parse_args(["solve", "--config", name])
        cfg = cli.read_config(name)
        assert (args.field, args.zeros, args.emit) == ("staircase", zeros, ["json", "csv", "svg"])
        assert (args.init, args.n) == (float(cfg["init"]), int(cfg["n"]))
        assert cli.build_options(args) == solver.SolveOptions(initial_map=args.init)


@pytest.mark.parametrize("name,steps", [("staircase_maximal", 2), ("staircase_branched", 23)])
def test_shipped_configs_solve_as_the_library_default(tmp_path, name, steps):
    # 6z and z^2 + z, each bit for bit the in-process solve from the same start
    argv = ["solve", "--config", f"configs/{name}.cfg", "--out", tmp_path, "--emit", "json,csv"]
    assert run(argv) == 0
    args = cli.parse_args([str(a) for a in argv])
    rep = solver.solve(cli.build_field(args), zeros=args.zeros, options=solver.SolveOptions(initial_map=args.init))
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["iterations"] == rep.iterations == steps
    assert cli.load_coefficients_csv(tmp_path / "coefficients.csv").coeffs.tobytes() == rep.f.coeffs.tobytes()


def test_flags_override_the_config_file(tmp_path):
    # an int, a float and a string setting: the file replaces the defaults,
    # typed by the flags, and the flags given on the command line win
    cfgfile = tmp_path / "solve.cfg"
    cfgfile.write_text("field=gauss_radial\nn=1024\ninit=2.5\n")
    args = cli.parse_args(["solve", "--config", str(cfgfile)])
    assert (args.field, args.n, args.init) == ("gauss_radial", 1024, 2.5)
    args = cli.parse_args(["solve", "--config", str(cfgfile), "--field", "staircase", "--n", "2048", "--init", "6.5"])
    assert (args.field, args.n, args.init) == ("staircase", 2048, 6.5)


def test_config_file_runs_each_converter_once(tmp_path, monkeypatch):
    # a pre-parser finds --config without converting any flag, so an initial
    # map CSV is read once, from the command line or from the file
    six = write_map(tmp_path / "six.csv", [0.0, 6.0])
    cfgfile = tmp_path / "solve.cfg"
    cfgfile.write_text(f"field=staircase\ninit=csv:{six}\n")
    loads = []
    load = cli.load_coefficients_csv
    monkeypatch.setattr(cli, "load_coefficients_csv", lambda path: loads.append(path) or load(path))
    args = cli.parse_args(["solve", "--config", str(cfgfile), "--init", f"csv:{six}"])
    assert loads == [str(six)] and args.init.coeffs.tolist() == [0.0, 6.0]
    loads.clear()
    cli.parse_args(["solve", "--config", str(cfgfile)])
    assert loads == [str(six)]


def test_help_shows_the_library_defaults(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        cli.main(["certify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"--n N boundary grid size (default {solver.SolveOptions.n})" in text
    assert f"--checks CHECKS comma list of certificates (default {','.join(cli.ALL_CHECKS)})" in text


# ---------------------------------------------------------------------------
# certify round trip

def test_solve_then_certify_round_trip(tmp_path, capsys):
    assert run(["solve", "--field", "staircase", "--init", "6.5", "--out", tmp_path]) == 0
    solve_residual = json.loads((tmp_path / "solve_report.json").read_text())["residual"]
    code = run([
        "certify", "--field", "staircase", "--map", tmp_path / "coefficients.csv",
        "--out", tmp_path,
    ])
    assert code == 0
    out = capsys.readouterr().out
    for kind in cli.ALL_CHECKS:
        assert f"PASS {kind}" in out
    payload = json.loads((tmp_path / "certificates.json").read_text())
    assert abs(payload["residual"] - solve_residual) < 1e-12
    assert len(payload["certificates"]) == 4
    assert "error" not in payload


def test_solve_and_certify_take_each_boundary_trace_once(tmp_path, monkeypatch):
    # one unit-circle FFT for f and one for f' per command: the residual,
    # boundary.csv, the certificates and the certify payload share the
    # trace of f' cached on f.  Phi along f is evaluated once per
    # command on top of the solve's steps: the residual, boundary.csv, both
    # fences, the free boundary nodes and f'' share one cached weight; the
    # free boundary check reads Phi once more, at the midpoints
    traced, weighed = [], []
    circle_values = DiskFunction._circle_values
    evaluate = weight.WeightField.evaluate

    def counting(self, r, n, order=0):
        if np.ndim(r) == 0 and r == 1.0:
            traced.append(n)
        return circle_values(self, r, n, order)

    def counting_evaluate(self, xi, w):
        if np.ndim(xi) == 1:
            weighed.append(np.size(xi))
        return evaluate(self, xi, w)

    monkeypatch.setattr(DiskFunction, "_circle_values", counting)
    monkeypatch.setattr(weight.WeightField, "evaluate", counting_evaluate)
    argv = ["solve", "--field", "staircase", "--init", "6.5", "--out", tmp_path, "--emit", "json,csv,svg"]
    assert run(argv) == 0
    steps = json.loads((tmp_path / "solve_report.json").read_text())["iterations"]
    assert traced == [512, 512]
    assert weighed == [512] * (steps + 1)
    traced.clear()
    weighed.clear()
    assert run(["certify", "--field", "staircase", "--map", tmp_path / "coefficients.csv", "--out", tmp_path]) == 0
    assert traced == [512, 512]
    assert weighed == [512, 512]
    weighed.clear()
    assert run(["spectrum", "--field", "staircase", "--init", "6.5", "--out", tmp_path]) == 0
    assert weighed == [512] * (steps + 1)


def test_certify_failure_exits_one(tmp_path, capsys):
    path = write_map(tmp_path / "two.csv", [0.0, 2.0])
    code = run([
        "certify", "--field", "staircase", "--map", path,
        "--checks", "supersolution", "--out", tmp_path,
    ])
    assert code == 1
    assert "FAIL supersolution" in capsys.readouterr().out


def test_free_boundary_of_a_non_solution_exits_one(tmp_path, capsys):
    # 2z is univalent, and |f'| = 2 misses the staircase weight 3 along
    # |w| = 2 by 1 at every point of the circle
    path = write_map(tmp_path / "two.csv", [0.0, 2.0])
    code = run([
        "certify", "--field", "staircase", "--map", path,
        "--checks", "free_boundary", "--out", tmp_path,
    ])
    assert code == 1
    assert "FAIL free_boundary" in capsys.readouterr().out
    cert = json.loads((tmp_path / "certificates.json").read_text())["certificates"][0]
    assert cert["pass"] is False
    assert cert["details"] == {"node_residual": 1.0, "midpoint_residual": 1.0}


def test_certificate_gates_read_the_map_on_its_own_grid(tmp_path, capsys):
    # the 8192-coefficient map of the refining solve is univalent on the
    # 512-point grid and not from 1024 up, so the gates look at 8192
    argv = ["solve", "--field", "staircase", "--zeros", "0.995", "--init", "1.0", "--out", tmp_path, "--emit", "csv"]
    assert run(argv) == 0
    f = cli.load_coefficients_csv(tmp_path / "coefficients.csv")
    assert f.coeffs.size == 8192
    assert solver.univalence(f, 512) and not solver.univalence(f, 1024)
    stair = weight.staircase_field()
    for name, check in [
        ("supersolution", lambda: certify.check_supersolution(f, stair)),
        ("starlike", lambda: certify.check_starlike(f)),
        ("free boundary", lambda: certify.free_boundary_check(f, stair)),
    ]:
        with pytest.raises(NotUnivalentError, match=f"{name} certificate needs a univalent map"):
            check()
    capsys.readouterr()
    code = run([
        "certify", "--field", "staircase", "--map", tmp_path / "coefficients.csv",
        "--checks", "free_boundary", "--out", tmp_path,
    ])
    assert code == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert "free boundary certificate needs a univalent map" in err


def test_certify_error_exits_one(tmp_path, capsys):
    path = write_map(tmp_path / "branched.csv", [0.0, 1.0, 1.0])
    code = run([
        "certify", "--field", "staircase", "--map", path,
        "--checks", "starlike", "--out", tmp_path,
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_certify_keeps_the_verdicts_reached_before_an_error(tmp_path, capsys):
    # z + z^2 gets its subsolution verdict, then folds at the supersolution gate
    path = write_map(tmp_path / "branched.csv", [0.0, 1.0, 1.0])
    assert run(["certify", "--field", "staircase", "--map", path, "--out", tmp_path]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("PASS subsolution") and out.count("\n") == 1
    assert err == "error: supersolution certificate needs a univalent map\n"
    payload = json.loads((tmp_path / "certificates.json").read_text())
    assert [cert["kind"] for cert in payload["certificates"]] == ["subsolution"]
    assert payload["error"] == "supersolution certificate needs a univalent map"
    assert "residual" not in payload


def test_certify_writes_strict_json_when_every_cell_is_skipped(tmp_path, capsys):
    # f' vanishes on the whole fence lattice, so the margin is inf
    path = write_map(tmp_path / "flat.csv", [0.5])
    assert run(["certify", "--field", "staircase", "--map", path, "--checks", "subsolution", "--out", tmp_path]) == 1
    assert capsys.readouterr().out == "FAIL subsolution: worst_margin=inf\n"

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    payload = json.loads((tmp_path / "certificates.json").read_text(), parse_constant=reject)
    [cert] = payload["certificates"]
    assert (cert["worst_margin"], cert["skipped"], cert["pass"]) == (None, 8192, False)


def test_certify_of_an_overflowing_map_writes_strict_json(tmp_path):
    # f' overflows, so the residual is nan; it used to be written as NaN
    path = write_map(tmp_path / "big.csv", np.array([0.0, 1e308, 1e308]))
    assert run(["certify", "--field", "staircase", "--map", path, "--checks", "subsolution", "--out", tmp_path]) == 1

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    payload = json.loads((tmp_path / "certificates.json").read_text(), parse_constant=reject)
    assert payload["residual"] is None and payload["certificates"][0]["worst_margin"] is None


@pytest.mark.parametrize("checks", [",", ""])
def test_certify_rejects_an_empty_check_list(tmp_path, capsys, checks):
    path = write_map(tmp_path / "six.csv", [0.0, 6.0])
    assert run(["certify", "--field", "staircase", "--map", path, "--checks", checks, "--out", tmp_path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "checks names no certificate" in err
    assert not (tmp_path / "certificates.json").exists()


def test_certify_subset_of_checks(tmp_path, capsys):
    path = write_map(tmp_path / "half.csv", [0.0, 0.5])
    code = run([
        "certify", "--field", "constant:1.0", "--map", path,
        "--checks", "subsolution,starlike", "--out", tmp_path,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS subsolution" in out
    assert "supersolution" not in out


# ---------------------------------------------------------------------------
# scan

def test_scan_staircase(tmp_path, capsys):
    code = run([
        "scan", "--field", "staircase", "--out", tmp_path,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "1 solution interval" in out
    payload = json.loads((tmp_path / "scan.json").read_text())
    (a, b), = payload["radial_scan"]["intervals"]
    assert abs(a - 3.0) < 1e-3 and abs(b - 6.0) < 1e-3
    assert payload["radial_scale_check"]["passed"] is True
    assert payload["superharmonic_check"]["passed"] is False


def test_scan_skips_non_radial_field(tmp_path, capsys):
    code = run([
        "scan", "--field", "csv:does-not-matter", "--out", tmp_path,
    ])
    # csv fields need a real file; use the builtin route instead
    assert code == 2
    code = run(["scan", "--field", "gauss_radial", "--field-args", "c=1.0,a=0.1", "--out", tmp_path])
    assert code == 0
    payload = json.loads((tmp_path / "scan.json").read_text())
    assert payload["superharmonic_check"]["passed"] is True


# ---------------------------------------------------------------------------
# geometry

def test_geometry_demo(tmp_path, capsys):
    code = run(["geometry", "--op", "demo", "--size", "256", "--out", tmp_path])
    assert code == 0
    for k in range(3):
        assert (tmp_path / f"level_{k}.pbm").exists()
    assert (tmp_path / "kernel.pbm").exists()
    payload = json.loads((tmp_path / "geometry.json").read_text())
    assert payload["areas"] == [34567, 33211, 31642]
    assert payload["simply_connected"] == [True, True, True]
    assert payload["kernel_schoenfliess"] is False


# sha256 of every file `geometry --op demo --size 256` writes: the JSON
# files recorded from the distance-transform painter, the regions as raw PBM
# (P4)
DEMO_256_SHA256 = {
    "geometry.json": "12c3cd8b888689f5c9e5b6c2c478f4ee813290d0cbdb6340332801828b822820",
    "kernel.pbm": "0f3ec4508796e55f8e87073441a90f3e42bcdc6d559973c83e80057c341ab140",
    "kernel.pbm.json": "51806a48fe0a0f4f28becf136988bf4216089129921d5faf8c697e657dcaf6cf",
    "level_0.pbm": "c8f10eee9f5e2b1c46ab01c8badd7444160276f5c5dff52dc858e7875193d1da",
    "level_0.pbm.json": "a056b1622234d2c6deb3ef5ef1ab774085afe36661806706c0b206c6f907f59c",
    "level_1.pbm": "9e460253843664a9f1f0742bdcd5f92dd5602a9f302233869b44197f39583a3f",
    "level_1.pbm.json": "adf62bf02fb77d68b935473af4717696dd1f7ec7495e2b8b868aaa76115adbef",
    "level_2.pbm": "92d79aacbd2360daa28190fa871fb4c2206fa0bb3fa462451f3979d74542bf6d",
    "level_2.pbm.json": "0897414023ef319d216be098b874908c35f5bdd4c63f8e1c4e0422b6182fdbf7",
}

# sha256 of the same regions as the per-cell plain PBM (P1) writer wrote
# them, recorded before regions were saved as P4
DEMO_256_P1_SHA256 = {
    "kernel.pbm": "46afd7e19662dac447da552c3caaf90a3d857e7077fa31a5e2e112c024242a26",
    "level_0.pbm": "0ef2696af1769fbde1e5674626fd42b15449d8dbb9e1497f5c56205b4f43f07e",
    "level_1.pbm": "3062d1bc2e1934902609c4620c1fe4998fba2fe904fbe6eecda369e877ea8a04",
    "level_2.pbm": "d630b8f072d2ef27cb303d04446b4239db7910fd70c4b9dfad2c18afa5d94c68",
}


def test_geometry_demo_bytes_pinned(tmp_path, capsys):
    assert run(["geometry", "--op", "demo", "--size", "256", "--out", tmp_path]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == DEMO_256_SHA256


# sha256 of the demo at the benchmark's size (1024, whole bytes to a row)
# and at 1001 (seven padding bits to a row)
DEMO_SHA256 = {
    1024: {
        "geometry.json": "6531a7e6128ead50f59cb1ae60cf901955b910ebe5581ccec65cb701715dc32b",
        "kernel.pbm": "870b0d8b8ef9a4b7d5551e5717eb68352a40b9612c2b71d71b95e4ca5da27953",
        "level_0.pbm": "2cfa8afe8a6a0017af524e78b3151a93596b708af6dbb680dc6a89aa0c26c7dd",
        "level_1.pbm": "dfd6fcec5b9fdc034d7dc1b2b152ea217c52222a14ada1907bb643ca69ad1e54",
        "level_2.pbm": "a0b65a496357537f6470c17eeade60153f7553a4068e7afcfbf4be6fa9a57b6c",
    },
    1001: {
        "geometry.json": "38fdf643155c59bfc078fa21cefdac091b3a45f45664131dbcdfeef67da790a0",
        "kernel.pbm": "b1acb58bf32c0b4715c71d3c8d28de542345ef8252a82b10d0ddc35be0829d2d",
        "level_0.pbm": "b83edbb9618815c4b36c7585e9d9a49b884459917fff048a38237169bee47eea",
        "level_1.pbm": "6d1c17b07cd5ee5b0ee6acfc44842d88b7c62cf58cdce5114febaf98abec700f",
        "level_2.pbm": "c063f0205d7cb5875b5a5851229ad23d8fd2a9c1e893cf69303b14cd707c574f",
    },
}


@pytest.mark.parametrize("size", sorted(DEMO_SHA256))
def test_geometry_demo_bytes_pinned_at_the_benchmark_size(tmp_path, capsys, size):
    assert run(["geometry", "--op", "demo", "--size", str(size), "--out", tmp_path]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DEMO_SHA256[size]}
    assert got == DEMO_SHA256[size]


def test_geometry_demo_cells_match_the_p1_pins(tmp_path, capsys):
    # the P4 files decode to the cells whose P1 text the old pins hashed
    assert run(["geometry", "--op", "demo", "--size", "256", "--out", tmp_path]) == 0
    got = {
        name: hashlib.sha256(bool_canvas.per_cell_pbm(regions.load_region(tmp_path / name).mask)).hexdigest()
        for name in DEMO_256_P1_SHA256
    }
    assert got == DEMO_256_P1_SHA256


def test_near_boundary_spectrum_bytes_pinned(tmp_path):
    # spectral_gap and sup_norm read f'' to the last bit, so the sha256
    # guards the order of operations in second_derivative
    argv = ["spectrum", "--field", "staircase", "--zeros", "0.995", "--init", "1.0", "--n", "8192"]
    assert run([*argv, "--out", tmp_path]) == 0
    got = hashlib.sha256((tmp_path / "spectrum.json").read_bytes()).hexdigest()
    assert got == "c6b3dfe79b72d6b40d32cf3aa9ce195dd646c0f8dfbe3509fd4522ada473c85f"


def test_geometry_union_and_intersection(tmp_path):
    shape = (128, 128)
    a = regions.RasterRegion(regions._unpack(regions._disk(shape, (64, 54), 20), 128), (64, 64))
    b = regions.RasterRegion(regions._unpack(regions._disk(shape, (64, 74), 20), 128), (64, 64))
    regions.save_region(a, tmp_path / "a.pbm")
    regions.save_region(b, tmp_path / "b.pbm")
    inputs = f"{tmp_path}/a.pbm,{tmp_path}/b.pbm"
    assert run(["geometry", "--op", "union", "--inputs", inputs, "--out", tmp_path]) == 0
    union = regions.load_region(tmp_path / "union.pbm")
    assert (union.mask == regions.extended_union(a, b).mask).all()
    assert run(["geometry", "--op", "intersection", "--inputs", inputs, "--out", tmp_path]) == 0
    inter = regions.load_region(tmp_path / "intersection.pbm")
    assert (inter.mask == regions.reduced_intersection(a, b).mask).all()


@pytest.mark.parametrize("op", ["union", "intersection"])
@pytest.mark.parametrize("basepoint", [[99, 99], [-16, -16]], ids=["far", "negative"])
def test_geometry_rejects_sidecar_basepoint_off_the_raster(tmp_path, capsys, op, basepoint):
    # [99, 99] crashed the intersection with an IndexError and was written back
    # out by the union; [-16, -16] wrapped to (16, 16)
    region = regions.RasterRegion(regions._unpack(regions._disk((32, 32), (16, 16), 10), 32), (16, 16))
    for name in ("a.pbm", "b.pbm"):
        regions.save_region(region, tmp_path / name)
        sidecar = tmp_path / f"{name}.json"
        sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()), basepoint=basepoint)))
    inputs = f"{tmp_path}/a.pbm,{tmp_path}/b.pbm"
    assert run(["geometry", "--op", op, "--inputs", inputs, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"a.pbm has its sidecar basepoint {basepoint}" in err
    assert not (tmp_path / "out" / f"{op}.pbm").exists()


def test_geometry_rejects_a_plain_pbm_naming_the_file(tmp_path, capsys):
    # regions were once saved as plain PBM (P1); the reader takes raw PBM (P4) only
    region = regions.RasterRegion(regions._unpack(regions._disk((32, 32), (16, 16), 10), 32), (16, 16))
    regions.save_region(region, tmp_path / "a.pbm")
    regions.save_region(region, tmp_path / "b.pbm")
    (tmp_path / "b.pbm").write_bytes(bool_canvas.per_cell_pbm(region.mask))
    inputs = f"{tmp_path}/a.pbm,{tmp_path}/b.pbm"
    assert run(["geometry", "--op", "union", "--inputs", inputs, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "b.pbm is not a raw PBM (P4) file" in err
    assert not (tmp_path / "out" / "union.pbm").exists()


def test_geometry_rejects_a_region_without_its_sidecar(tmp_path, capsys):
    region = regions.RasterRegion(regions._unpack(regions._disk((32, 32), (16, 16), 10), 32), (16, 16))
    for name in ("a.pbm", "b.pbm"):
        regions.save_region(region, tmp_path / name)
    (tmp_path / "b.pbm.json").unlink()
    inputs = f"{tmp_path}/a.pbm,{tmp_path}/b.pbm"
    assert run(["geometry", "--op", "union", "--inputs", inputs, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "b.pbm has no sidecar b.pbm.json" in err
    assert not (tmp_path / "out" / "union.pbm").exists()


# ---------------------------------------------------------------------------
# spectrum

def test_spectrum_from_saved_map(tmp_path, capsys):
    coeffs = np.zeros(256, dtype=complex)
    k = np.arange(1, 256, dtype=float)
    coeffs[1:] = 0.8 ** (k - 1.0) / k
    path = write_map(tmp_path / "geo.csv", coeffs)
    code = run(["spectrum", "--map", path, "--out", tmp_path])
    assert code == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["spectrum"]["decay"] == "geometric"
    assert abs(payload["spectrum"]["rate"] - 0.8) < 1e-3
    assert "second_derivative" not in payload


def test_spectrum_solves_when_given_field(tmp_path):
    code = run([
        "spectrum", "--field", "staircase", "--zeros", "-0.5", "--init", "1.0",
        "--out", tmp_path,
    ])
    assert code == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["spectrum"]["decay"] == "undetermined"
    assert payload["second_derivative"]["spectral_gap"] < 1e-6
    assert abs(payload["second_derivative"]["sup_norm"] - 2.0) < 1e-6


# ---------------------------------------------------------------------------
# configuration errors (exit code 2)

@pytest.mark.parametrize("argv", [
    ["solve", "--field", "bogus_name"],
    ["solve", "--field", "staircase", "--n", "300"],
    ["solve", "--field", "staircase", "--emit", "pdf"],
    ["spectrum", "--map", "missing.csv"],
    ["geometry", "--op", "union", "--inputs", "missing_a.pbm,missing_b.pbm"],
    ["solve", "--field", "constant:nope"],
    ["certify", "--field", "staircase"],
    ["certify", "--field", "staircase", "--map", "missing.csv"],
    ["certify", "--field", "staircase", "--map", "{tmp}/map.csv", "--checks", "bogus"],
    ["geometry", "--op", "demo", "--size", "100"],
    ["geometry", "--op", "bogus"],
    ["geometry", "--op", "union", "--inputs", "one.pbm"],
    ["spectrum"],
    # above the largest grid: it used to climb to 32768 and exit 1, calling
    # the resolved map 6z unresolved
    ["solve", "--field", "staircase", "--init", "6.5", "--n", "65536"],
    ["solve", "--config", "{tmp}/missing.cfg"],
    ["solve", "--field", "gauss_radial", "--field-args", "c"],
    ["solve"],
    ["certify", "--field", "staircase", "--map", "{tmp}/two_columns.csv"],
    ["certify", "--field", "staircase", "--map", "{tmp}/gapped.csv"],
])
def test_config_errors_exit_two(tmp_path, argv, capsys):
    # every check runs before the first output is written, so no --out
    # directory is left behind; {tmp} holds a good map and two bad ones
    write_map(tmp_path / "map.csv", [0.0, 6.0])
    (tmp_path / "two_columns.csv").write_text("k,re_ck\n0,0.0\n1,6.0\n")
    (tmp_path / "gapped.csv").write_text("k,re_ck,im_ck\n0,0.0,0.0\n2,6.0,0.0\n")
    out = tmp_path / "out"
    assert run([a.format(tmp=tmp_path) for a in argv] + ["--out", out]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--field", "staircase", "--zeros", "nan"],
    ["--field", "staircase", "--zeros", "0.5+nanj"],
    ["--field", "staircase", "--init", "nan"],
    ["--field", "staircase", "--init", "inf"],
    ["--field", "gauss_radial", "--field-args", "a=nan"],
])
def test_non_finite_numbers_exit_two_before_any_step(tmp_path, capsys, monkeypatch, argv):
    # each used to take one step and exit 1 on a non-finite update or
    # weight, with RuntimeWarnings on the way
    steps = []
    monkeypatch.setattr(solver, "_operator_step", lambda *a: steps.append(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["solve", *argv, "--out", tmp_path / "out"]) == 2
    assert steps == []
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spaced,joined", [
    ("solve --zeros -0.5,0.3 --init 1.0", "solve --zeros=-0.5,0.3 --init 1.0"),
    ("solve --init -inf --zeros -0.5+0.2j", "solve --init=-inf --zeros=-0.5+0.2j"),
    ("spectrum --zeros -0.5,-0.25 --init -2e0", "spectrum --zeros=-0.5,-0.25 --init=-2e0"),
], ids=["solve", "init-inf", "spectrum"])
def test_a_value_after_zeros_or_init_may_start_with_a_minus(spaced, joined):
    # argparse took these values for flags ("expected one argument"); they
    # parse as they do when joined to their flag with "="
    assert cli.parse_args(spaced.split()) == cli.parse_args(joined.split())


def test_init_minus_inf_exits_two_as_not_finite(tmp_path, capsys, monkeypatch):
    steps = []
    monkeypatch.setattr(solver, "_operator_step", lambda *a: steps.append(a))
    assert run(["solve", "--field", "staircase", "--init", "-inf", "--out", tmp_path / "out"]) == 2
    assert steps == []
    assert "initial_map radius must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--zeros", "--init", "1.0"], ["--init", "--zeros=0.5"], ["--zeros", "-h"]])
def test_a_flag_after_zeros_or_init_is_not_its_value(tmp_path, capsys, argv):
    assert run(["solve", "--field", "staircase", *argv, "--out", tmp_path / "out"]) == 2
    assert "expected one argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,key,flag", [
    ("solve", "n", "--n"),
    ("solve", "init", "--init"),
    ("certify", "n", "--n"),
    ("geometry", "size", "--size"),
    ("spectrum", "max_iters", "--max-iters"),
])
def test_config_value_is_typed_by_its_flag(tmp_path, capsys, command, key, flag):
    cfgfile = tmp_path / "typed.cfg"
    cfgfile.write_text(f"{key} = abc\n")
    assert run([command, "--config", cfgfile, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: argument {flag}: invalid ") and "value: 'abc'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["typed.cfg"]


@pytest.mark.parametrize("command,flag,key", [
    ("solve", "--theta", "theta"),
    ("spectrum", "--theta", "theta"),
    ("solve", "--tol", "tol"),
    ("solve", "--tol-residual", "tol_residual"),
    ("spectrum", "--tol", "tol"),
    ("spectrum", "--tol-residual", "tol_residual"),
    ("certify", "--tol", "tol"),
    ("scan", "--scan-tol", "scan_tol"),
    ("scan", "--r-min", "r_min"),
    ("scan", "--r-max", "r_max"),
    ("scan", "--steps", "steps"),
])
def test_retired_settings_are_unknown(tmp_path, capsys, command, flag, key):
    # every solve takes the undamped step and converges against TOL_UPDATE
    # and TOL_RESIDUAL, every certificate passes against TOL_CERT and a scan
    # reads SCAN_STEPS points on [0, 1.5 sup] and matches within
    # max(1e-4, spacing/2): none of them is a setting any more
    with pytest.raises(SystemExit) as exit_:
        run([command, flag, "0.5", "--out", tmp_path])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err
    cfgfile = tmp_path / "retired.cfg"
    cfgfile.write_text(f"{key} = 0.5\n")
    assert run([command, "--config", cfgfile, "--out", tmp_path]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["retired.cfg"]


@pytest.mark.parametrize("command", ["certify", "scan", "geometry", "spectrum"])
def test_emit_is_only_a_solve_setting(tmp_path, capsys, command):
    # the other commands always write their one JSON file
    with pytest.raises(SystemExit) as exit_:
        run([command, "--emit", "json", "--out", tmp_path])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --emit json" in capsys.readouterr().err
    cfgfile = tmp_path / "emit.cfg"
    cfgfile.write_text("emit=json\n")
    assert run([command, "--config", cfgfile, "--out", tmp_path]) == 2
    assert "unknown config key 'emit'" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("field=staircase\nfancy_mode=on\n")
    assert run(["solve", "--config", cfgfile, "--out", tmp_path]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "spectrum", "certify"])
def test_seed_flag_is_rejected(tmp_path, capsys, command):
    # the univalence targets are one fixed draw, so there is no seed to set
    with pytest.raises(SystemExit) as exit_:
        run([command, "--field", "staircase", "--seed", "0", "--out", tmp_path])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "spectrum", "certify"])
def test_seed_config_key_is_unknown(tmp_path, capsys, command):
    cfgfile = tmp_path / "seeded.cfg"
    cfgfile.write_text("field=staircase\nseed=0\n")
    assert run([command, "--config", cfgfile, "--out", tmp_path]) == 2
    assert "unknown config key 'seed'" in capsys.readouterr().err


def test_malformed_config_line_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("field staircase\n")
    assert run(["solve", "--config", cfgfile, "--out", tmp_path]) == 2
    assert "expected key=value" in capsys.readouterr().err


def test_nan_weight_mid_solve_exits_one(tmp_path, monkeypatch, capsys):
    # a field that passes every input check and turns NaN at one node of the
    # first operator step: a computation error, not a configuration error
    def fn(xi, w):
        out = np.full(np.broadcast(xi, w).shape, 3.0)
        out.flat[7] = np.nan
        return out

    nan_node = lambda: weight.WeightField(fn, sup_bound=3.0, name="nan-node")
    monkeypatch.setitem(weight.BUILTIN_FIELDS, "nan_node", nan_node)
    assert run(["solve", "--field", "nan_node", "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'nan-node' is not finite" in err


def test_nan_cell_in_tabulated_csv_exits_two(tmp_path, capsys):
    table = tmp_path / "table.csv"
    nodes = [(x, y) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)]
    table.write_text("x,y,phi\n" + "".join(f"{x},{y},{'nan' if x == y == 0.0 else 2.0}\n" for x, y in nodes))
    assert run(["scan", "--field", f"csv:{table}", "--out", tmp_path]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", [
    ["certify", "--field", "staircase", "--map"],
    ["spectrum", "--map"],
    ["solve", "--field", "staircase", "--init"],
], ids=["certify", "spectrum", "solve"])
def test_non_finite_coefficient_csv_exits_two(tmp_path, capsys, command, value):
    # every command reads a map through the one loader, which rejects a NaN
    # or infinite coefficient before anything is solved, certified or written
    path = tmp_path / "bad.csv"
    path.write_text(f"k,re_ck,im_ck\n0,0.0,0.0\n1,{value},0.0\n2,0.5,0.0\n")
    spec = f"csv:{path}" if command[0] == "solve" else path
    assert run(command + [spec, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and f"{path}: data row 2 is not finite" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]


# ---------------------------------------------------------------------------
# JSON bytes: _plain serializes result dataclasses through dataclasses.asdict.
# The hand-written as_dict bodies it replaced are kept here as the oracle.

def old_scan_as_dict(s):
    return {
        "intervals": [[a, b] for a, b in s.intervals],
        "tolerance": s.tolerance,
        "r_min": s.r_min,
        "r_max": s.r_max,
        "steps": s.steps,
    }


def old_contraction_as_dict(c):
    return {
        "lipschitz": c.lipschitz,
        "sup_solution_bound": c.sup_solution_bound,
        "inf_weight_bound": c.inf_weight_bound,
        "ratio": c.ratio,
        "valid": c.valid,
        "lipschitz_verified": c.lipschitz_verified,
        "sampled_lipschitz": c.sampled_lipschitz,
        "lattice": list(c.lattice),
    }


def old_scale_as_dict(r):
    return {
        "passed": r.passed,
        "margin": r.margin,
        "strict_passed": r.strict_passed,
        "strict_margin": r.strict_margin,
        "worst_radius": r.worst_radius,
        "worst_rho": r.worst_rho,
    }


def old_superharmonic_as_dict(r):
    return {
        "passed": r.passed,
        "worst": r.worst,
        "tolerance": r.tolerance,
        "worst_point": [r.worst_point.real, r.worst_point.imag],
    }


def old_spectrum_as_dict(r):
    return {
        "decay": r.decay,
        "rate": r.rate,
        "fit_rms": r.fit_rms,
        "window": list(r.window),
        "points_used": r.points_used,
        "claim": r.claim,
    }


def old_rate_as_dict(r):
    return {
        "observed_rate": r.observed_rate,
        "certified_ratio": r.certified_ratio,
        "limit_gap": r.limit_gap,
        "runs": r.runs,
    }


def _spectrum(coeffs):
    return lambda: regularity.spectrum_report(DiskFunction(coeffs))


STAIR, GAUSS, RIPPLE = weight.staircase_field(), weight.gauss_radial_field(), weight.ripple_field()
SERIALIZED = {
    "scan_staircase": (old_scan_as_dict, lambda: solver.radial_scan(STAIR)),
    "scan_gauss": (old_scan_as_dict, lambda: solver.radial_scan(GAUSS)),
    "contraction": (
        old_contraction_as_dict,
        lambda: weight.contraction_certificate(STAIR, 4.0 / 3.0),
    ),
    "scale_staircase": (old_scale_as_dict, lambda: weight.radial_scale_check(STAIR)),
    "scale_gauss": (old_scale_as_dict, lambda: weight.radial_scale_check(GAUSS)),
    "scale_ripple": (old_scale_as_dict, lambda: weight.radial_scale_check(RIPPLE)),
    "superharmonic_staircase": (old_superharmonic_as_dict, lambda: weight.superharmonic_check(STAIR)),
    "superharmonic_gauss": (old_superharmonic_as_dict, lambda: weight.superharmonic_check(GAUSS)),
    "spectrum_geometric": (old_spectrum_as_dict, _spectrum(np.concatenate([[0.0], 0.7 ** np.arange(64)]))),
    "spectrum_algebraic": (old_spectrum_as_dict, _spectrum(np.concatenate([[0.0], np.arange(1.0, 200.0) ** -3.5]))),
    "spectrum_undetermined": (old_spectrum_as_dict, _spectrum([0.0, 1.0])),
}


@pytest.mark.parametrize("case", sorted(SERIALIZED))
def test_write_json_bytes_match_retired_as_dict(tmp_path, case):
    old_as_dict, build = SERIALIZED[case]
    obj = build()
    cli.write_json(tmp_path / "new.json", {"payload": obj, "list": [obj]})
    cli.write_json(tmp_path / "old.json", {"payload": old_as_dict(obj), "list": [old_as_dict(obj)]})
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


def test_write_json_writes_non_finite_floats_as_null(tmp_path):
    payload = {
        "float": float("nan"),
        "numpy": np.float64("-inf"),
        "complex": complex(1.0, float("inf")),
        "array": np.array([1.0, np.nan]),
        "nested": [{"x": (float("inf"), 2)}],
    }
    cli.write_json(tmp_path / "out.json", payload)

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    got = json.loads((tmp_path / "out.json").read_text(), parse_constant=reject)
    assert got == {"float": None, "numpy": None, "complex": [1.0, None], "array": [1.0, None], "nested": [{"x": [None, 2]}]}


def test_write_json_leaves_no_file_for_a_value_it_cannot_write(tmp_path):
    with pytest.raises(TypeError, match="object"):
        cli.write_json(tmp_path / "out.json", {"ok": 1.0, "bad": object()})
    assert not (tmp_path / "out.json").exists()


def test_rate_report_asdict_matches_retired_as_dict_but_for_the_limit(tmp_path):
    # RateReport was never serialized; its as_dict left out the limit map,
    # which is a DiskFunction and has no JSON form
    rep = probes.RateReport(0.25, 0.5, DiskFunction([0.0, 1.0]), 1e-12, 3)
    fields = dataclasses.asdict(rep)
    assert isinstance(fields.pop("limit"), DiskFunction)
    cli.write_json(tmp_path / "new.json", fields)
    cli.write_json(tmp_path / "old.json", old_rate_as_dict(rep))
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
    with pytest.raises(TypeError, match="DiskFunction"):
        cli.write_json(tmp_path / "whole.json", rep)


# ---------------------------------------------------------------------------
# cold path: the whole command line runs on numpy alone

COLD_PATH_SCRIPT = """
import importlib.abc
import sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
from diskmap import cli

cfg, out, table = sys.argv[1:]
levels = f"{out}/level_0.pbm,{out}/level_2.pbm"
for argv in (
    ["solve", "--config", cfg, "--out", out],
    ["certify", "--field", "staircase", "--map", f"{out}/coefficients.csv", "--out", out],
    ["spectrum", "--field", "staircase", "--init", "6.5", "--n", "64", "--out", out],
    ["scan", "--field", "staircase", "--out", out],
    ["geometry", "--op", "demo", "--size", "256", "--out", out],
    ["geometry", "--op", "union", "--inputs", levels, "--out", out],
    ["geometry", "--op", "intersection", "--inputs", levels, "--out", out],
    ["solve", "--field", f"csv:{table}", "--out", f"{out}/tabulated"],
):
    assert cli.main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded[:5]
print("cold path ok")
"""


def test_solver_cli_cold_path_does_not_import_scipy(tmp_path):
    # every subcommand, a csv: tabulated field included, with scipy imports
    # failing as they would where scipy is not installed
    table = tmp_path / "cart.csv"
    table.write_text(
        "x,y,phi\n" + "".join(f"{x},{y},{2.0 + 0.1 * x}\n" for x in (-3.0, -1.0, 0.0, 1.0, 3.0) for y in (-3.0, 0.0, 3.0))
    )
    cfg = Path(__file__).resolve().parents[1] / "configs" / "staircase_maximal.cfg"
    src = str(Path(diskmap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_PATH_SCRIPT, str(cfg), str(tmp_path / "out"), str(table)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "cold path ok" in proc.stdout
    for name in ("certificates.json", "scan.json", "union.pbm", "intersection.pbm", "tabulated/solve_report.json"):
        assert (tmp_path / "out" / name).exists(), name


NO_NUMPY_RANDOM_SCRIPT = """
import sys

from diskmap import cli

cfg, out = sys.argv[1:]
for argv in (
    ["solve", "--config", cfg, "--out", out],
    ["certify", "--field", "staircase", "--map", f"{out}/coefficients.csv", "--out", out],
    ["spectrum", "--field", "staircase", "--init", "6.5", "--n", "64", "--out", out],
    ["scan", "--field", "staircase", "--out", out],
):
    assert cli.main(argv) == 0, argv
assert "numpy.random" not in sys.modules
print("no numpy.random")
"""


def test_cli_does_not_import_numpy_random(tmp_path):
    # the univalence targets come from the stdlib generator, which every
    # child has loaded already; numpy.random would cost ~6 MiB of RSS
    cfg = Path(__file__).resolve().parents[1] / "configs" / "staircase_maximal.cfg"
    src = str(Path(diskmap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RANDOM_SCRIPT, str(cfg), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "no numpy.random" in proc.stdout
