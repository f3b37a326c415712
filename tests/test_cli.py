import json

import numpy as np
import pytest

from herglotz.cli import main


def _write_spec(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def power_half_spec(tmp_path):
    return _write_spec(tmp_path / "power.json", {"kind": "power", "p": [0.5, 0.0]})


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def test_extract_power_half(tmp_path, power_half_spec):
    out = tmp_path / "out"
    code = main(["extract", "--spec", power_half_spec, "--window=-6,1",
                 "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out / "density.csv")
    assert header == ["x", "re", "im", "error_est"]
    row = min(rows, key=lambda r: abs(r[0] + 1.0))
    assert row[0] == pytest.approx(-1.0, abs=1e-12)  # uniform grid hits -1
    assert row[1] == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-6)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "ok"


def test_extract_deterministic(tmp_path, power_half_spec):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["extract", "--spec", power_half_spec, "--window=-6,1",
                     "--out", str(out)]) == 0
        outs.append((out / "density.csv").read_bytes()
                    + (out / "atoms.json").read_bytes())
    assert outs[0] == outs[1]


def test_extract_tan_quiet_window(tmp_path):
    spec = _write_spec(tmp_path / "tan.json", {"kind": "tan"})
    out = tmp_path / "out"
    assert main(["extract", "--spec", spec, "--window", "0.2,1.3",
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out / "density.csv")
    assert max(abs(r[1]) + abs(r[2]) for r in rows) < 1e-8


def test_extract_tan_writes_its_atom(tmp_path):
    # The pole of tan at pi/2 is found, its mass 1/(1 + (pi/2)^2) written, and
    # the 10 grid points within 5 steps of it dropped from the density grid.
    spec = _write_spec(tmp_path / "tan.json", {"kind": "tan"})
    out = tmp_path / "out"
    assert main(["extract", "--spec", spec, "--window=1,2", "--nodes", "41",
                 "--out", str(out)]) == 0
    [atom] = json.loads((out / "atoms.json").read_text())
    assert atom["loc"] == pytest.approx(np.pi / 2, abs=1e-15)
    mass = complex(*atom["mass"])
    assert abs(mass - 1.0 / (1.0 + (np.pi / 2) ** 2)) <= 1e-10
    summary = json.loads((out / "summary.json").read_text())
    assert summary["nodes"] == 31 and summary["atom_sites"] == [atom["loc"]]
    _, rows = _read_csv(out / "density.csv")
    assert len(rows) == 31 and min(abs(r[0] - np.pi / 2) for r in rows) >= 5 * 0.025


def test_extract_non_simple_exits_2(tmp_path, capsys):
    spec = _write_spec(tmp_path / "p15.json", {"kind": "power", "p": [1.5, 0.0]})
    out = tmp_path / "out"
    code = main(["extract", "--spec", spec, "--window=-6,1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "non-simple behavior near 0" in err


def test_extract_non_simple_window_exits_2(tmp_path, capsys):
    spec = _write_spec(tmp_path / "p.json", {"kind": "power", "p": [-1.5, 0.0]})
    code = main(["extract", "--spec", spec, "--window=-2,2", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "non-simple behavior on window" in capsys.readouterr().err


def test_reconstruct_non_simple_exits_2(tmp_path, capsys):
    spec = _write_spec(tmp_path / "p.json", {"kind": "power", "p": [-1.5, 0.0]})
    code = main(["reconstruct", "--spec", spec, "--window=-2,1",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "density scan piece [-2.0, 1.0]: |f| grows like y^-1.50" in capsys.readouterr().err


def test_reconstruct_above_residual_bound_exits_3(tmp_path, power_half_spec):
    # The truncated window leaves a residual of 0.97; both files are still written.
    out = tmp_path / "out"
    code = main(["reconstruct", "--spec", power_half_spec, "--window=-4,-1",
                 "--residual-bound", "1e-12", "--out", str(out)])
    assert code == 3
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert diagnostics["resynthesis_residual"] > 0.5
    assert json.loads((out / "measure.json").read_text())["densities"]


def test_extract_tol_drives_divergence_test(tmp_path, power_half_spec):
    out = tmp_path / "out"
    assert main(["extract", "--spec", power_half_spec, "--window=-3,-1",
                 "--nodes", "11", "--tol", "1e-30", "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "diverged"
    assert summary["tolerance"] == 1e-30


@pytest.mark.parametrize("argv, unread", [
    (["mobius", "--measure", "m.json", "--matrix=0,-1,1,0"], ["--y0", "1"]),
    (["phi-profile", "--spec", "f.json", "--window=-1,1"], ["--tol", "1"]),
    (["reconstruct", "--spec", "f.json", "--window=-1,1"], ["--force"]),
    (["circle-line", "--spec", "f.json", "--window=-4,-1"], ["--side", "lower"]),
    (["extract", "--spec", "f.json", "--window=-1,1"], ["--side", "lower"]),
    (["check", "poisson-identity"],
     ["--spec", "nothing.json", "--tol", "5", "--force", "--window=9,1"]),
    (["check", "vladimirov", "--spec", "f.json"], ["--window=-1,1"]),
    (["check", "inversion-duality", "--spec", "f.json", "--window=1,4"], ["--force"]),
])
def test_unread_flag_exits_1(tmp_path, capsys, argv, unread):
    assert main(argv + unread + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: " + " ".join(unread) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--window=-1,1", "--probes", "foo"],
    ["reconstruct", "--window=-1,1", "--sigma-points=abc"],
    ["extract", "--window=-1,1", "--sigma-points=abc"],
    ["extract", "--window=-1,1", "--nodes", "1"],
    ["extract", "--window=-1,1", "--nodes", "0"],
    ["mobius", "--matrix", "1,x,0,1"],
    ["reconstruct", "--window=-1,1", "--residual-bound", "nan"],
    ["reconstruct", "--window=-1,1", "--residual-bound=-1"],
    ["reconstruct", "--window=-1,1", "--probes=nanj"],
    ["reconstruct", "--window=-1,1", "--probes=2j,inf"],
    ["extract", "--window=-1,1", "--sigma-points=nan"],
    ["extract", "--window=-1,1", "--tol=-1"],
    ["extract", "--window=-1,1", "--tol", "0"],
    ["extract", "--window=-1,1", "--tol", "nan"],
    ["check", "inversion-duality", "--window=1,4", "--tol", "nan"],
    ["check", "inversion-duality", "--window=1,4", "--tol=-1"],
    ["extract", "--window=-1,inf"],
    ["circle-line", "--window=-3,inf"],
    ["extract", "--window=-1,1", "--y0=inf"],
    ["check", "inversion-duality", "--window=1,4", "--y0=inf"],
    ["reconstruct", "--window=-1,1", "--probes=1,2j"],
    ["phi-profile", "--window=-1,1", "--delta=-1"],
    ["phi-profile", "--window=-1,1", "--delta=inf"],
    ["phi-profile", "--window=-1,1", "--nodes", "4"],
])
def test_bad_number_flag_exits_1(tmp_path, capsys, power_half_spec, argv):
    measure = tmp_path / "m.json"
    measure.write_text(json.dumps({"picture": "line", "atoms": [{"loc": 0.0, "mass": [1.0, 0.0]}],
                                   "densities": []}))
    source = ["--measure", str(measure)] if argv[0] == "mobius" else ["--spec", power_half_spec]
    assert main(argv + source + ["--out", str(tmp_path / "o")]) == 1
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_extract_missing_spec_exits_1(tmp_path):
    assert main(["extract", "--spec", str(tmp_path / "nope.json"),
                 "--window=-1,1", "--out", str(tmp_path / "o")]) == 1


def test_reconstruct_power_over_log(tmp_path):
    spec = _write_spec(tmp_path / "pol.json", {"kind": "power_over_log", "p": [0.0, 0.0]})
    out = tmp_path / "out"
    # the support extends past the scan window, so the resynthesis residual
    # carries the documented truncation tail; bound accordingly
    code = main(["reconstruct", "--spec", spec, "--window=-4,3",
                 "--sigma-points", "0,1", "--infinity", "--out", str(out),
                 "--residual-bound", "0.1"])
    assert code == 0
    measure = json.loads((out / "measure.json").read_text())
    atom = next(a for a in measure["atoms"] if a["loc"] == 1.0)
    assert abs(atom["mass"][0] + 0.5) <= 1e-8
    assert abs(atom["mass"][1]) <= 1e-8


def test_reconstruct_minus_inverse(tmp_path):
    spec = _write_spec(tmp_path / "inv.json",
                       {"kind": "rational", "a": [0, 0], "b": [0, 0],
                        "poles": [0.0], "coeffs": [[1, 0]]})
    out = tmp_path / "out"
    code = main(["reconstruct", "--spec", spec, "--window=-3,3",
                 "--sigma-points", "0", "--out", str(out),
                 "--residual-bound", "1e-10"])
    assert code == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["resynthesis_residual"] <= 1e-10


def test_reconstruct_rational_atoms(tmp_path):
    spec = _write_spec(tmp_path / "rat.json",
                       {"kind": "rational", "a": [2, 0], "b": [3, 0],
                        "poles": [5.0], "coeffs": [[4, 1]]})
    out = tmp_path / "out"
    assert main(["reconstruct", "--spec", spec, "--window=-2,8",
                 "--sigma-points", "5", "--infinity", "--out", str(out)]) == 0
    measure = json.loads((out / "measure.json").read_text())
    masses = {a["loc"]: complex(a["mass"][0], a["mass"][1]) for a in measure["atoms"]}
    assert abs(masses[5.0] - (4 + 1j) / 26.0) < 1e-8
    assert abs(masses["inf"] - 2.0) < 1e-8


def test_check_vladimirov(tmp_path):
    spec = _write_spec(tmp_path / "tan.json", {"kind": "tan"})
    out = tmp_path / "out"
    assert main(["check", "vladimirov", "--spec", spec, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert report["items"][0]["norm"] <= report["items"][0]["bound"]


def test_check_poisson_identity(tmp_path):
    out = tmp_path / "out"
    assert main(["check", "poisson-identity", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["items"]) == 9
    assert all(item["error"] <= 1e-10 for item in report["items"])


def test_check_circle_line(tmp_path, power_half_spec):
    out = tmp_path / "out"
    assert main(["check", "circle-line", "--spec", power_half_spec,
                 "--window=-4,-1", "--out", str(out), "--tol", "1e-4"]) == 0


def test_check_refuses_atom_window(tmp_path):
    spec = _write_spec(tmp_path / "tan.json", {"kind": "tan"})
    out = tmp_path / "out"
    # pi/2 sits inside (1, 2): refused without --force
    assert main(["check", "circle-line", "--spec", spec, "--window", "1,2",
                 "--out", str(out)]) == 1


def test_check_missing_spec_is_config_error(tmp_path):
    assert main(["check", "vladimirov", "--out", str(tmp_path / "o")]) == 1


def test_missing_measure_file_is_config_error(tmp_path, capsys):
    spec = _write_spec(tmp_path / "c.json", {"kind": "cauchy", "measure": "nope.json"})
    assert main(["check", "vladimirov", "--spec", spec, "--out", str(tmp_path / "o")]) == 1
    assert "measure file not found" in capsys.readouterr().err


def test_check_vladimirov_sigma_log_spec(tmp_path):
    # sigma read from the JSON spec.
    spec = _write_spec(tmp_path / "s.json", {"kind": "tan_sigma_log", "sigma": 1.5})
    out = tmp_path / "out"
    assert main(["check", "vladimirov", "--spec", spec, "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["pass"] is True


def test_unknown_check_name_is_config_error(tmp_path, capsys):
    assert main(["check", "no-such-suite", "--out", str(tmp_path / "o")]) == 1
    capsys.readouterr()


def test_mobius_pushforward(tmp_path):
    measure = {"picture": "line",
               "atoms": [{"loc": 0.0, "mass": [1.0, 0.0]}],
               "densities": []}
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(measure))
    out = tmp_path / "out"
    assert main(["mobius", "--measure", str(mpath), "--matrix=0,-1,1,0",
                 "--out", str(out)]) == 0
    moved = json.loads((out / "measure.json").read_text())
    assert moved["atoms"][0]["loc"] == "inf"
    assert moved["atoms"][0]["mass"] == [1.0, 0.0]


def test_phi_profile_csv(tmp_path):
    spec = _write_spec(tmp_path / "inv.json",
                       {"kind": "rational", "a": [0, 0], "b": [0, 0],
                        "poles": [0.0], "coeffs": [[1, 0]]})
    out = tmp_path / "out"
    assert main(["phi-profile", "--spec", spec, "--window=-1,1",
                 "--delta", "0.5", "--nodes", "21", "--out", str(out)]) == 0
    lines = (out / "phi_profile.csv").read_text().strip().splitlines()
    assert lines[0] == "t,re,im"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == -1.0 and abs(first[1]) < 1e-9 and abs(first[2]) < 1e-9
    mid = min((([float(v) for v in line.split(",")]) for line in lines[1:]),
              key=lambda r: abs(r[0]))
    assert mid[2] == pytest.approx(-np.pi / 2.0, abs=1e-6)


@pytest.mark.parametrize("flags", [["--window=-inf,1"], ["--delta", "inf"], ["--delta", "nan"]])
def test_phi_profile_non_finite_box_exits_1(tmp_path, flags):
    spec = _write_spec(tmp_path / "inv.json",
                       {"kind": "rational", "a": [0, 0], "b": [0, 0],
                        "poles": [0.0], "coeffs": [[1, 0]]})
    out = tmp_path / "out"
    assert main(["phi-profile", "--spec", spec, "--window=-1,1", "--out", str(out)]
                + flags) == 1
    assert not (out / "phi_profile.csv").exists()


def test_circle_line_gap_artifact(tmp_path, power_half_spec):
    out = tmp_path / "out"
    assert main(["circle-line", "--spec", power_half_spec, "--window=-4,-1",
                 "--out", str(out)]) == 0
    gap = json.loads((out / "gap.json").read_text())
    assert set(gap) == {"circle", "line", "gap", "r_sequence", "y_sequence",
                        "circle_error", "line_error"}
    assert gap["gap"] <= 1e-4
    # the check suite runs the same computation
    check = tmp_path / "check"
    assert main(["check", "circle-line", "--spec", power_half_spec,
                 "--window=-4,-1", "--out", str(check)]) == 0
    item = json.loads((check / "report.json").read_text())["items"][0]
    assert item["gap"] == gap["gap"]
    assert [item["circle"], item["line"]] == [gap["circle"], gap["line"]]
    assert [item["circle_error"], item["line_error"]] == [gap["circle_error"],
                                                          gap["line_error"]]


def test_check_variation_bound_with_measure_file(tmp_path):
    xs = np.linspace(-30.0, -0.05, 257)
    vals = np.sqrt(-xs) / (np.pi * (1.0 + xs * xs))
    measure = {"picture": "line",
               "atoms": [{"loc": 0.0, "mass": [1.0, 0.0]}],
               "densities": [{"kind": "table", "support": [float(xs[0]), float(xs[-1])],
                              "xs": [float(v) for v in xs],
                              "vals": [[float(v), 0.0] for v in vals]}]}
    (tmp_path / "m.json").write_text(json.dumps(measure))
    spec = _write_spec(tmp_path / "c.json",
                       {"kind": "cauchy", "measure": "m.json", "constant": [0.0, 0.0]})
    out = tmp_path / "out"
    assert main(["check", "variation-bound", "--spec", spec, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True and len(report["items"]) == 3


def test_check_variation_bound_colliding_table_nodes_exit_1(tmp_path, capsys):
    # Distinct nodes whose 2*arctan coordinates coincide: a configuration
    # error, not a traceback.
    measure = {"picture": "line", "atoms": [],
               "densities": [{"kind": "table", "support": [1e16, 3e16],
                              "xs": [1e16, 2e16, 3e16],
                              "vals": [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]}]}
    (tmp_path / "m.json").write_text(json.dumps(measure))
    spec = _write_spec(tmp_path / "c.json",
                       {"kind": "cauchy", "measure": "m.json", "constant": [0.0, 0.0]})
    code = main(["check", "variation-bound", "--spec", spec, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_check_variation_bound_overflowing_table_exit_1(tmp_path, capsys):
    # Finite nodes and values whose interpolant overflows: refused with exit 1.
    measure = {"picture": "line", "atoms": [],
               "densities": [{"kind": "table", "support": [0.0, 1.0],
                              "xs": [0.0, 1e-300, 1.0],
                              "vals": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}]}
    (tmp_path / "m.json").write_text(json.dumps(measure))
    spec = _write_spec(tmp_path / "c.json",
                       {"kind": "cauchy", "measure": "m.json", "constant": [0.0, 0.0]})
    code = main(["check", "variation-bound", "--spec", spec, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_check_variation_bound_circle_measure_exits_1(tmp_path, capsys):
    # A cauchy spec over circle angles is refused, not read as a line measure.
    measure = {"picture": "circle", "atoms": [{"loc": 1.0, "mass": [1.0, 0.0]}],
               "densities": []}
    (tmp_path / "m.json").write_text(json.dumps(measure))
    spec = _write_spec(tmp_path / "c.json", {"kind": "cauchy", "measure": "m.json"})
    code = main(["check", "variation-bound", "--spec", spec, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "line-picture" in capsys.readouterr().err


def test_check_inversion_duality(tmp_path):
    spec = _write_spec(tmp_path / "inv.json",
                       {"kind": "rational", "a": [0, 0], "b": [0, 0],
                        "poles": [0.0], "coeffs": [[1, 0]]})
    out = tmp_path / "out"
    assert main(["check", "inversion-duality", "--spec", spec,
                 "--window", "1,4", "--out", str(out), "--tol", "1e-8"]) == 0
    item = json.loads((out / "report.json").read_text())["items"][0]
    # the two limits' error estimates travel with the gap they were judged by
    assert 0.0 <= item["circle_error"] < 1e-8 and 0.0 <= item["line_error"] < 1e-8
