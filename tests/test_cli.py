"""End-to-end runs of the command-line interface."""

import json
import random
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from planesing import cli
from planesing.cli import main
from planesing.conslaw import MAX_FRAMES, MAX_VELOCITY_DEGREE, builtin_problem
from planesing.germs import builtin_germ, conjugate_by_diffeos
from planesing.locus import MAX_GRID
from planesing.poly import MAX_INPUT_DEGREE, poly_to_spec
from test_locus import POOL_ENTROPY, _origin_diffeo


def run(args):
    return main(list(args))


def test_classify_builtin_lips(tmp_path, capsys):
    code = run(["classify", "--builtin", "lips", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["class"] == "Lips"
    assert capsys.readouterr().out.startswith("class=Lips")


def test_classify_ruling_curve(tmp_path):
    code = run(
        ["classify", "--builtin", "ruling", "--curve", "t,t^3", "--at", "0",
         "--out", str(tmp_path)]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["class"] == "Beaks"


def test_classify_inline_map_degenerate_exits_2(tmp_path):
    code = run(
        ["classify", "--map", "(u, v^3+u^3 v)", "--at", "0,0", "--out", str(tmp_path)]
    )
    assert code == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["class"] == "Degenerate"


def test_classify_rank_one_jacobian_with_small_rows_exits_2(tmp_path):
    # every Jacobian entry is below RANK_THRESHOLD, but df has rank 1
    proc = subprocess.run(
        [sys.executable, "-m", "planesing.cli", "classify", "--map",
         "(6e-9*u+6e-9*v+u^2, 6e-9*u+6e-9*v+v^2)", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "class=Degenerate at (0, 0)\n", "")
    assert json.loads((tmp_path / "report.json").read_text())["class"] == "Degenerate"


def test_classify_json_input(tmp_path):
    spec = {
        "components": [
            {"vars": 2, "terms": [{"c": 1.0, "e": [1, 0]}]},
            {"vars": 2, "terms": [{"c": 1.0, "e": [0, 2]}]},
        ],
        "base_point": [0.0, 0.0],
    }
    src = tmp_path / "fold.json"
    src.write_text(json.dumps(spec))
    code = run(["classify", str(src), "--out", str(tmp_path)])
    assert code == 0
    assert json.loads((tmp_path / "report.json").read_text())["class"] == "Fold"


def test_classify_report_floats_read_back_as_floats(tmp_path):
    # eta at p is (0, -2e16), which .17g alone writes as a bare integer
    assert run(["classify", "--map", "(2e16*u, v^2)", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["eta_at_p"] == [0.0, -2e16]
    assert [type(x) for x in report["eta_at_p"]] == [float, float]


def test_classify_report_is_byte_stable(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        assert run(["classify", "--builtin", "cusp", "--out", str(out)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_classify_requires_exactly_one_source(tmp_path, capsys):
    code = run(["classify", "--builtin", "fold", "--map", "(u, v^2)",
                "--out", str(tmp_path)])
    assert code == 64
    assert "exactly one" in capsys.readouterr().err


def test_classify_rejects_malformed_map(capsys):
    assert run(["classify", "--map", "(u, v^"]) == 64
    assert run(["classify", "--map", f"(u, v^{MAX_INPUT_DEGREE + 1})"]) == 64
    assert run(["trace", "--curve", f"t,t^{MAX_INPUT_DEGREE + 1}", "--builtin", "ruling"]) == 64
    assert "planesing:" in capsys.readouterr().err


def test_classify_rejects_unknown_builtin(capsys):
    assert run(["classify", "--builtin", "doughnut"]) == 64


def test_classify_rejects_bad_tolerance(tmp_path, capsys):
    out = tmp_path / "not-made"
    for tol_zero in ("5", "0", "1", "nan"):
        args = ["classify", "--builtin", "fold", "--tol-zero", tol_zero, "--out", str(out)]
        assert run(args) == 64, tol_zero
        err = capsys.readouterr().err
        assert err.startswith("planesing: ") and err.count("\n") == 1, tol_zero
        assert not out.exists()


@pytest.mark.parametrize(
    "tol_zero,line,code",
    [
        (None, "class=Unrecognized at (0, 0)", 2),
        ("1e-8", "class=Fold at (0, 0)", 0),
        ("1e-6", "class=Degenerate at (0, 0)", 2),
    ],
)
def test_tol_zero_decides_a_small_fold_term(tmp_path, capsys, tol_zero, line, code):
    # eta lambda normalizes to 1.7e-7: zero at 1e-6, nonzero at 1e-8,
    # and in the uncertain band at the default 1e-7
    args = ["classify", "--map", "(u, 5e-7*v^2+v^3)", "--out", str(tmp_path)]
    assert run(args + ([] if tol_zero is None else ["--tol-zero", tol_zero])) == code
    assert capsys.readouterr().out == line + "\n"
    text = (tmp_path / "report.json").read_text()
    assert json.loads(text)["tolerances_used"] == {
        "zero_rel": 1e-7 if tol_zero is None else float(tol_zero),
        "rank_threshold": 1e-8,
        "newton_residual": 1e-10,
        "newton_max_iter": 50,
    }
    assert '"rank_threshold": 1e-08,' in text and '"newton_max_iter": 50\n' in text


def test_classify_rejects_unknown_format(capsys):
    assert run(["classify", "--builtin", "fold", "--format", "pdf"]) == 64


def test_trace_beaks_outputs(tmp_path):
    code = run(
        ["trace", "--builtin", "beaks", "--box", "-1,-1,1,1", "--grid", "48,48",
         "--format", "json,csv,svg", "--out", str(tmp_path)]
    )
    assert code == 0
    for name in (
        "singular_set.csv",
        "critical_values.csv",
        "special_points.json",
        "singular_set.svg",
        "critical_values.svg",
    ):
        assert (tmp_path / name).exists(), name
    data = json.loads((tmp_path / "special_points.json").read_text())
    assert len(data["curves"]) == 2
    assert len(data["special_points"]) == 1
    assert data["special_points"][0]["report"]["class"] == "Beaks"
    header = (tmp_path / "singular_set.csv").read_text().splitlines()[0]
    assert header == "curve,u1,u2"


def test_trace_fold_no_special_points(tmp_path):
    code = run(["trace", "--builtin", "fold", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "special_points.json").read_text())
    assert len(data["curves"]) == 1
    assert data["special_points"] == []


def test_trace_swallowtail_cusp_candidate(tmp_path):
    code = run(["trace", "--builtin", "swallowtail", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "special_points.json").read_text())
    assert len(data["curves"]) == 1
    kinds = [sp["kind"] for sp in data["special_points"]]
    assert kinds == ["CuspCandidate"]
    assert data["special_points"][0]["report"]["class"] == "Swallowtail"


@pytest.mark.parametrize(
    "args,line",
    [
        # cell centres of a box near the float limit, and Gauss-Newton
        # normal equations whose products overflow
        (["trace", "--map", "(u, v^2)", "--box=1e308,-1,1.7e308,1", "--grid", "4,4"],
         "curves=1 special_points=0"),
        (["trace", "--map", "(u, 1e300*v^2)", "--grid", "8,8"], "curves=1 special_points=0"),
        # a cusp with one target coordinate scaled
        (["classify", "--map", "(u, 1e8*(v^3+u*v))"], "class=Cusp at (0, 0)"),
        (["classify", "--map", "(1e-9*u, v^3+u*v)"], "class=Cusp at (0, 0)"),
        # P overflows at the vertex (4, 0), but json holds no critical value
        (["trace", "--map", "(1e306*u^5+v^2, u)", "--box=-4,-4,4,4", "--grid", "8,8",
          "--format", "json"], "curves=1 special_points=0"),
        # every critical value rounds to x1 = 1e20: an image without extent
        (["trace", "--map", "(1e20+u, v^2)", "--format", "svg"], "curves=1 special_points=0"),
    ],
)
def test_valid_inputs_raise_no_warning(tmp_path, capsys, args, line):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*args, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr() == (line + "\n", "")


@pytest.mark.parametrize("spec", ["(u+v, u+v)", "(0, 0)"])
def test_trace_identically_singular_map_reports_nothing(tmp_path, capsys, spec):
    # lambda vanishes at every node, so the whole box is singular: no curve
    # and no special point, rather than a degenerate root at every seed
    t0 = time.perf_counter()
    code = run(["trace", "--map", spec, "--grid", f"{MAX_GRID},{MAX_GRID}",
                "--format", "json", "--out", str(tmp_path)])
    assert code == 0
    assert time.perf_counter() - t0 < 10.0
    assert json.loads((tmp_path / "special_points.json").read_text()) == {
        "curves": [], "special_points": []
    }
    assert capsys.readouterr().out == "curves=0 special_points=0\n"


def test_conslaw_search_and_frames(tmp_path):
    code = run(
        ["conslaw", "--builtin", "burgers-lips",
         "--box", "-0.4,-0.4,0.4,0.4", "--time", "0.9,1.1",
         "--format", "json,csv", "--out", str(tmp_path)]
    )
    assert code == 0
    first = json.loads((tmp_path / "first_singularity.json").read_text())
    assert first["t_star"] == pytest.approx(1.0, abs=1e-9)
    assert first["u_star"] == pytest.approx([0.0, 0.0], abs=1e-9)
    assert first["report"]["class"] == "Lips"
    frames = json.loads((tmp_path / "frames.json").read_text())
    assert [f["t"] for f in frames["frames"]] == [0.9, 1.1]
    assert frames["frames"][0]["curves"] == 0
    assert frames["frames"][1]["curves"] == 1
    assert (tmp_path / "frame_0.csv").exists()
    assert (tmp_path / "frame_1.csv").exists()


def test_conslaw_frames_as_svg(tmp_path, capsys):
    code = run(
        ["conslaw", "--builtin", "burgers-lips", "--time", "0.9,1.1",
         "--format", "json,svg", "--out", str(tmp_path)]
    )
    assert code == 0
    frames = json.loads((tmp_path / "frames.json").read_text())["frames"]
    assert [f.get("svg") for f in frames] == ["frame_0.svg", "frame_1.svg"]
    assert not any("csv" in f for f in frames)
    for f in frames:
        assert (tmp_path / f["svg"]).read_text().startswith("<svg ")
    assert not list(tmp_path.glob("*.csv"))


def test_conslaw_problem_json(tmp_path):
    prob = {
        "f1": {"vars": 1, "terms": [{"c": 0.5, "e": [2]}]},
        "f2": {"vars": 1, "terms": []},
        "phi": {
            "vars": 2,
            "terms": [
                {"c": -1.0, "e": [1, 0]},
                {"c": 1.0, "e": [3, 0]},
                {"c": 1.0, "e": [1, 2]},
            ],
        },
    }
    src = tmp_path / "prob.json"
    src.write_text(json.dumps(prob))
    code = run(["conslaw", str(src), "--box", "-0.4,-0.4,0.4,0.4",
                "--out", str(tmp_path)])
    assert code == 0
    first = json.loads((tmp_path / "first_singularity.json").read_text())
    assert first["report"]["class"] == "Lips"


def test_conslaw_rarefaction_exits_3(tmp_path, capsys):
    code = run(["conslaw", "--builtin", "burgers-rarefaction", "--out", str(tmp_path)])
    assert code == 3
    out = json.loads((tmp_path / "first_singularity.json").read_text())
    assert out["result"] == "NoSingularity"
    assert "no singularity" in capsys.readouterr().out


def test_conslaw_saddle_search_exits_70(tmp_path, capsys):
    code = run(
        ["conslaw", "--builtin", "burgers-saddle",
         "--box", "-0.4,-0.4,0.4,0.4", "--out", str(tmp_path)]
    )
    assert code == 70
    failure = json.loads((tmp_path / "solver_failure.json").read_text())
    assert failure["error"] == "SolverFailed"
    assert failure["best_point"] is not None
    assert "solver failure" in capsys.readouterr().err


def test_conslaw_forced_point_beaks(tmp_path):
    code = run(
        ["conslaw", "--builtin", "burgers-saddle", "--at", "0,0", "--time", "1",
         "--out", str(tmp_path)]
    )
    assert code == 0
    rec = json.loads((tmp_path / "point_analysis.json").read_text())
    assert rec["report"]["class"] == "Beaks"
    assert rec["t_star"] == pytest.approx(1.0)
    assert rec["xi"][2] == pytest.approx(-12.0)


def test_conslaw_forced_point_where_the_profile_slope_squared_overflows(tmp_path, capsys):
    # phi_1^2 = 9e400 overflows at u1 = 1e100, but the trace 3 u1^2 + u2^2 - 1
    # and xi = (-6 u1, -2 u2, 12) are finite
    code = run(
        ["conslaw", "--builtin", "burgers-lips", "--at", "1e100,0", "--time", "1",
         "--out", str(tmp_path)]
    )
    assert code == 0
    assert capsys.readouterr().out == "class=Immersion at (1e+100, 0) t=1\n"
    rec = json.loads((tmp_path / "point_analysis.json").read_text())
    assert rec["xi"] == [-6.0000000000000005e100, -0.0, 12.0]


def test_conslaw_forced_point_rarefaction_exits_3(tmp_path):
    code = run(
        ["conslaw", "--builtin", "burgers-rarefaction", "--at", "0,0",
         "--out", str(tmp_path)]
    )
    assert code == 3


def test_conslaw_frames_must_straddle(tmp_path, capsys):
    # a malformed list or times that do not straddle t* = 1 exit 64
    # before --out is made
    out = tmp_path / "out"
    for times in ("1.5,2.0", "0.9,abc", "0.5"):
        code = run(
            ["conslaw", "--builtin", "burgers-lips",
             "--box", "-0.4,-0.4,0.4,0.4", "--time", times,
             "--out", str(out)]
        )
        assert code == 64
        assert not out.exists()


def test_conslaw_frame_list_over_the_cap_exits_64_before_the_search(tmp_path, capsys, monkeypatch):
    searched = []
    monkeypatch.setattr(cli, "first_singularity", lambda *args: searched.append(args))
    out = tmp_path / "out"
    times = ",".join(["0.9"] * MAX_FRAMES + ["1.1"])
    code = run(["conslaw", "--builtin", "burgers-lips", "--time", times, "--out", str(out)])
    assert code == 64
    err = capsys.readouterr().err.splitlines()
    assert err == [f"planesing: {MAX_FRAMES + 1} frame times exceed the cap {MAX_FRAMES}"]
    assert searched == [] and not out.exists()
    # a list at the cap reaches the search, stubbed here to find nothing
    code = run(["conslaw", "--builtin", "burgers-lips", "--time", times[4:], "--out", str(out)])
    assert code == 3 and len(searched) == 1


def test_missing_input_file_exits_64(tmp_path, capsys):
    assert run(["classify", str(tmp_path / "absent.json")]) == 64
    assert "not found" in capsys.readouterr().err


def test_invalid_json_input_exits_64(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(["classify", str(bad)]) == 64
    # a term just over the degree cap
    over = {"vars": 2, "terms": [{"c": 1.0, "e": [MAX_INPUT_DEGREE, 1]}]}
    v = {"vars": 2, "terms": [{"c": 1.0, "e": [0, 1]}]}
    bad.write_text(json.dumps({"components": [over, v]}))
    assert run(["classify", str(bad)]) == 64
    # velocity degree deg f' * deg phi just over its cap, with every term
    # under the input cap
    df = next(k for k in range(2, MAX_INPUT_DEGREE) if (MAX_VELOCITY_DEGREE + 1) % k == 0)
    dphi = (MAX_VELOCITY_DEGREE + 1) // df
    assert dphi <= MAX_INPUT_DEGREE
    prob = {
        "f1": {"vars": 1, "terms": [{"c": 1.0, "e": [df + 1]}]},
        "f2": {"vars": 1, "terms": []},
        "phi": {"vars": 2, "terms": [{"c": 1.0, "e": [1, 0]}, {"c": 1.0, "e": [0, dphi]}]},
    }
    bad.write_text(json.dumps(prob))
    assert run(["conslaw", str(bad)]) == 64
    # a flux component in two variables
    prob["f1"] = {"vars": 2, "terms": [{"c": 0.5, "e": [2, 0]}]}
    bad.write_text(json.dumps(prob))
    capsys.readouterr()
    assert run(["conslaw", str(bad)]) == 64
    assert capsys.readouterr().err == "planesing: flux components must be one-variable polynomials\n"


def test_bad_box_exits_64(tmp_path, capsys):
    assert run(["trace", "--builtin", "fold", "--box", "1,1,0,0"]) == 64
    assert run(["trace", "--builtin", "fold", "--box", "1,2,3"]) == 64
    assert run(["trace", "--builtin", "fold", "--grid", "1.5,8"]) == 64
    assert run(["trace", "--builtin", "fold", "--grid", f"{MAX_GRID + 1},8"]) == 64
    assert run(["trace", "--builtin", "fold", "--grid", "inf,5"]) == 64
    assert run(["trace", "--builtin", "fold", "--grid", "nan,5"]) == 64
    assert run(["trace", "--builtin", "beaks", "--grid", "8,8", "--box=-inf,-1,1,1"]) == 64
    assert run(["trace", "--builtin", "beaks", "--grid", "8,8", "--box=-1e200,-1,1e200,1"]) == 64
    assert run(["conslaw", "--builtin", "burgers-lips", "--grid", "8,8", "--box=-inf,-1,1,1"]) == 64
    out = tmp_path / "not-made"
    assert run(
        ["conslaw", "--builtin", "burgers-lips", "--grid", "8,8", "--box=-1e200,-1,1e200,1",
         "--out", str(out)]
    ) == 64
    assert not out.exists()


def test_non_finite_point_or_time_exits_64(tmp_path, capsys):
    out = tmp_path / "not-made"
    for args in (
        ["classify", "--map", "(u, v^3+u^2*v)", "--at", "inf,0"],
        ["classify", "--map", "(u, v^3+u^2*v)", "--at", "nan,0"],
        ["classify", "--builtin", "ruling", "--curve", "t,t^3", "--at", "inf"],
        ["trace", "--map", "(u, v^3+u^2*v)", "--at", "nan,0", "--grid", "8,8"],
        ["conslaw", "--builtin", "burgers-lips", "--at", "nan,0"],
        ["conslaw", "--builtin", "burgers-lips", "--at", "0,0", "--time", "nan"],
        # finite, but the Jacobian overflows there
        ["classify", "--map", "(u, v^3+u^2*v)", "--at", "1e308,0"],
    ):
        capsys.readouterr()
        assert run([*args, "--out", str(out)]) == 64
        assert not out.exists()
    # the overflow names the base point
    assert capsys.readouterr().err == "planesing: the Jacobian overflows at (1e+308, 0.0)\n"


def test_overflow_at_a_finite_point_or_time_exits_64_without_a_traceback(tmp_path):
    # overflows in a Poly1 value, a ruling velocity, a Jacobian and a shape
    # operator; each is one "planesing:" line, with no numpy warning
    prob = tmp_path / "P.json"
    prob.write_text(json.dumps({
        "f1": {"vars": 1, "terms": [{"c": 1.0, "e": [6]}]},
        "f2": {"vars": 1, "terms": []},
        "phi": {"vars": 2, "terms": [{"c": 1e300, "e": [1, 0]}]},
    }))
    # the square of its Hessian scale overflows, with every value finite
    hess = tmp_path / "H.json"
    hess.write_text(json.dumps({
        "f1": {"vars": 1, "terms": [{"c": 0.5, "e": [2]}]},
        "f2": {"vars": 1, "terms": []},
        "phi": {"vars": 2, "terms": [{"c": 1e155, "e": [3, 0]}, {"c": -1.0, "e": [1, 0]}]},
    }))
    out = tmp_path / "not-made"
    for args in (
        ["classify", "--builtin", "ruling", "--curve", "t,t^3", "--at", "1e200"],
        ["trace", "--builtin", "ruling", "--curve", "t,t^3", "--at", "1e200"],
        ["classify", "--builtin", "ruling", "--curve", "t,1e300*t^2", "--at", "1e10"],
        ["conslaw", str(prob), "--at", "1,0"],
        ["conslaw", "--builtin", "burgers-lips", "--at", "0,0", "--time", "1e308"],
        ["conslaw", "--builtin", "burgers-lips", "--at", "1e200,0"],
        ["conslaw", "--builtin", "burgers-lips", "--at", "1e200,0", "--time", "1"],
        ["conslaw", str(hess), "--at", "0,0"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "planesing.cli", *args, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (64, ""), (args, proc.stderr)
        assert proc.stderr.startswith("planesing: ") and proc.stderr.count("\n") == 1, args
        assert not out.exists()


def test_a_long_number_argument_is_quoted_short(tmp_path, capsys):
    long = "1" + "0" * 400
    out = tmp_path / "not-made"
    for args in (
        ["classify", "--builtin", "cusp", "--at", f"{long},0"],
        ["classify", "--builtin", "cusp", "--at", f"x{long},0"],
        ["trace", "--builtin", "cusp", "--grid", f"8,8,{long}"],
    ):
        assert run([*args, "--out", str(out)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("planesing: expected ") and captured.err.count("\n") == 1
        assert len(captured.err) <= 160
        assert not out.exists()


def test_a_time_whose_discriminant_overflows_exits_64(tmp_path, capsys):
    out = tmp_path / "not-made"
    args = ["conslaw", "--builtin", "burgers-lips", "--time", "0.5,1e308"]
    assert run([*args, "--out", str(out)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "planesing: the discriminant 1 + t trace C overflows at t = 1e+308\n"
    assert not out.exists()


def test_a_frame_whose_node_values_overflow_exits_64_without_a_warning(tmp_path, capsys):
    # 1 + 1e200 trace C has finite coefficients, but its values at the
    # corners of a box of half-width 1e100 do not
    out = tmp_path / "not-made"
    args = ["conslaw", "--builtin", "burgers-lips", "--box=-1e100,-1e100,1e100,1e100",
            "--grid", "8,8", "--time", "0.5,1e200"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*args, "--out", str(out)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "planesing: the discriminant 1 + t trace C overflows at t = 1e+200\n"
    assert not out.exists()


def _exits_64_with(args, tmp_path, capsys) -> str:
    """Run args, which must exit 64 before any output; return the one stderr line."""
    out = tmp_path / "not-made"
    assert run([*args, "--out", str(out)]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert not out.exists()
    return captured.err


def test_a_discriminant_jet_that_overflows_is_named_not_blamed_on_the_input(tmp_path, capsys):
    # every input coefficient is finite; lambda = 1e400 (3v^2 + u) is not
    args = ["classify", "--map", "(1e200*u, 1e200*(v^3+u*v))"]
    err = _exits_64_with(args, tmp_path, capsys)
    assert err == "planesing: the discriminant jet overflows at (0.0, 0.0)\n"


def test_an_eta_lambda_that_overflows_is_named_not_blamed_on_the_input(tmp_path, capsys):
    # lambda = 1e300 (3v^2 + u) is finite, eta1 lambda = -1e300 * 6e300 v is not
    args = ["trace", "--map", "(1e300*u, v^3+u*v)", "--grid", "8,8"]
    err = _exits_64_with(args, tmp_path, capsys)
    assert err == "planesing: eta lambda overflows on the box (-1.0, -1.0) to (1.0, 1.0)\n"


@pytest.mark.parametrize(
    "args, quantity",
    [
        (["classify", "--map", "(1e80*u, 1e80*(v^3+u^2*v))"], "the det Hess lambda jet"),
        (["classify", "--map", "(1e160*u, v^3+u*v)"], "the eta^k lambda jet"),
        (["trace", "--map", "(1e200*u, 1e200*(v^3+u*v))", "--grid", "8,8"], "the discriminant"),
        (["trace", "--map", "(1e307*u, v^5+u*v)", "--grid", "8,8"], "the Newton Jacobian"),
        # lambda = 1.2e308 u^2 is finite, its second partial 2.4e308 is not
        (["classify", "--map", "(4e307*u^3, v)"], "the Hessian of lambda"),
        (["classify", "--map", "(u, 4e307*v^3)"], "the Hessian of lambda"),
    ],
    ids=["det-hess-jet", "eta-jets", "discriminant", "newton-jacobian", "hessian-u", "hessian-v"],
)
def test_a_derived_quantity_that_overflows_is_named(tmp_path, capsys, args, quantity):
    where = "at (0.0, 0.0)" if args[0] == "classify" else "on the box (-1.0, -1.0) to (1.0, 1.0)"
    err = _exits_64_with(args, tmp_path, capsys)
    assert err == f"planesing: {quantity} overflows {where}\n"


def _flux_problem(tmp_path, f1, phi):
    """A problem file with flux (f1, 0) and profile phi, each given as {exponents: c}."""
    prob = tmp_path / "P.json"
    prob.write_text(json.dumps({
        "f1": {"vars": 1, "terms": [{"c": c, "e": [k]} for k, c in f1.items()]},
        "f2": {"vars": 1, "terms": []},
        "phi": {"vars": 2, "terms": [{"c": c, "e": list(e)} for e, c in phi.items()]},
    }))
    return str(prob)


@pytest.mark.parametrize(
    "f1, phi, quantity",
    [
        # f1' = 2e308 y
        ({2: 1e308}, {(1, 0): 1.0}, "the flux derivative"),
        # f1'(phi) = 3e400 u1^2
        ({3: 1.0}, {(1, 0): 1e200}, "the characteristic velocity"),
        # f1'(phi) = 1e308 u1^2 is finite, its partial 2e308 u1 is not
        ({2: 1.0}, {(2, 0): 5e307}, "trace C"),
    ],
    ids=["flux-derivative", "velocity", "trace"],
)
def test_a_derived_flux_polynomial_that_overflows_is_named(tmp_path, capsys, f1, phi, quantity):
    args = ["conslaw", _flux_problem(tmp_path, f1, phi)]
    err = _exits_64_with(args, tmp_path, capsys)
    assert err == f"planesing: {quantity} overflows in its coefficients\n"


@pytest.mark.parametrize(
    "phi, box, where",
    [
        # trace C = 1e-318 (3 u1^2 + u2^2 - 1): the search's singular time
        # -1 / trace C at the origin is 1e318
        ({(1, 0): -1e-318, (3, 0): 1e-318, (1, 2): 1e-318}, [], "(-1.0, -1.0) to (1.0, 1.0)"),
        # trace C = u1 - 5.000000001e-301 has no critical point; its grid
        # minimum -1e-310 at u1 = 5e-301 would be the solver failure's best time
        ({(2, 0): 0.5, (1, 0): -5.000000001e-301}, ["--box=5e-301,-1,1,1", "--grid", "4,4"],
         "(5e-301, -1.0) to (1.0, 1.0)"),
    ],
    ids=["search", "solver-failure"],
)
def test_a_singular_time_that_overflows_is_named_not_blamed_on_the_input(
    tmp_path, capsys, phi, box, where
):
    args = ["conslaw", _flux_problem(tmp_path, {2: 0.5}, phi), *box]
    err = _exits_64_with(args, tmp_path, capsys)
    assert err == f"planesing: the singular time -1 / trace C overflows on the box {where}\n"


@pytest.mark.parametrize("command", ["classify", "trace"])
def test_a_ruling_velocity_that_overflows_is_named(tmp_path, capsys, command):
    # the curve's coefficients are finite, its velocity's 2e308 t is not
    args = [command, "--builtin", "ruling", "--curve", "1e308*t^2+t,t^3"]
    err = _exits_64_with(args, tmp_path, capsys)
    assert err == "planesing: the curve velocity overflows in its coefficients\n"


def test_critical_values_that_overflow_exit_64_before_any_file(tmp_path, capsys):
    # lambda = -2v is finite, but P = 1e306 u^5 + v^2 at the vertex (4, 0) is not
    args = ["trace", "--map", "(1e306*u^5+v^2, u)", "--box=-4,-4,4,4", "--grid", "8,8",
            "--format", "csv"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _exits_64_with(args, tmp_path, capsys)
    assert err == "planesing: the critical value image overflows on the traced singular set\n"


def _frame_images_overflow(tmp_path):
    """A problem file whose first singularity is finite but whose frame
    critical values overflow on --box=-20,-20,20,20 at t = 1.1.

    The trace -1 + 3 u1^2 + 1e-6 u2^2 is finite on the box, but the frame
    curves reach |u2| = 20, where phi's 1e300 u2^8 overflows.
    """
    prob = tmp_path / "P.json"
    prob.write_text(json.dumps({
        "f1": {"vars": 1, "terms": [{"c": 0.5, "e": [2]}]},
        "f2": {"vars": 1, "terms": []},
        "phi": {"vars": 2, "terms": [{"c": -1.0, "e": [1, 0]}, {"c": 1.0, "e": [3, 0]},
                                     {"c": 1e-6, "e": [1, 2]}, {"c": 1e300, "e": [0, 8]}]},
    }))
    return ["conslaw", str(prob), "--box=-20,-20,20,20", "--grid", "16,16", "--time", "0.9,1.1"]


def test_frame_critical_values_that_overflow_exit_64(tmp_path, capsys):
    args = [*_frame_images_overflow(tmp_path), "--format", "csv"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _exits_64_with(args, tmp_path, capsys)
    assert err == "planesing: the critical value image overflows on the traced singular set\n"


@pytest.mark.parametrize("fmt", ["json", "svg"])
def test_frames_without_csv_form_no_critical_values(tmp_path, capsys, fmt):
    # only frame_k.csv holds critical values, so json and svg never overflow in them
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([*_frame_images_overflow(tmp_path), "--format", f"json,{fmt}", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr() == ("class=Lips at (0, 0) t*=1 xi3=1.2e-05\n", "")
    frames = json.loads((out / "frames.json").read_text())["frames"]
    assert [f["curves"] for f in frames] == [0, 2]
    assert not list(out.glob("*.csv"))


def test_only_csv_frames_with_curves_build_a_characteristic_map(tmp_path, monkeypatch):
    built = []
    make = cli.characteristic_map
    monkeypatch.setattr(cli, "characteristic_map", lambda prob, t: built.append(t) or make(prob, t))
    for fmt, want in (("csv", [1.1]), ("json,svg", [])):
        built.clear()
        args = ["conslaw", "--builtin", "burgers-lips", "--box=-0.4,-0.4,0.4,0.4",
                "--time", "0.9,1.1", "--format", fmt, "--out", str(tmp_path / fmt)]
        assert run(args) == 0
        assert built == want, fmt


def test_frame_csv_rows_hold_the_critical_values(tmp_path):
    # burgers-lips: f1 = y^2/2, f2 = 0, so the time-t map is (u1 + t phi(u), u2)
    args = ["conslaw", "--builtin", "burgers-lips", "--box=-0.4,-0.4,0.4,0.4",
            "--time", "0.9,1.1", "--format", "csv", "--out", str(tmp_path)]
    assert run(args) == 0
    phi = builtin_problem("burgers-lips").phi
    header, *rows = (tmp_path / "frame_1.csv").read_text().splitlines()
    assert header == "curve,u1,u2,x1,x2" and rows
    for row in rows:
        _, u1, u2, x1, x2 = map(float, row.split(","))
        assert x1 == pytest.approx(u1 + 1.1 * phi((u1, u2)), rel=1e-15, abs=1e-15)
        assert x2 == u2
    assert (tmp_path / "frame_0.csv").read_text() == "curve,u1,u2,x1,x2\n"


_FUZZ_EXPONENTS = (0, 1, 20, 100, 200, 290, 300, 305, 306, 307)
_FUZZ_FORMATS = ("json", "csv", "svg", "json,csv", "json,svg", "csv,svg", "json,csv,svg")


def _fuzz_args(rng: random.Random) -> list[str]:
    """A classify or a 6 x 6 trace of a map with finite coefficients as large as 1e307."""
    def component():
        terms = [f"{rng.choice('+-')}1e{rng.choice(_FUZZ_EXPONENTS)}"
                 f"*u^{rng.randint(0, 5)}*v^{rng.randint(0, 5)}" for _ in range(rng.randint(1, 3))]
        terms.append(rng.choice(["+u", "+v", "+u^2", "+v^3"]))
        if rng.random() < 0.5:
            terms.append(rng.choice(["+1", "+1e20", "+1e300"]))
        return "".join(terms)

    args = ["--map", f"({component()}, {component()})"]
    if rng.random() < 0.5:
        return ["classify", *args]
    w = rng.choice([1, 2, 4, 8, 16])
    return ["trace", *args, f"--box=-{w},-{w},{w},{w}", "--grid", "6,6",
            "--format", rng.choice(_FUZZ_FORMATS)]


def test_finite_input_never_raises_warns_or_blames_jet_coefficients(tmp_path, capsys):
    # derived values of these maps overflow in many places; each run must
    # exit with a code, print no NumPy warning, and name what overflowed
    rng = random.Random(8)
    raised, warned, unnamed = [], [], []
    for _ in range(1500):
        args = _fuzz_args(rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = run([*args, "--out", str(tmp_path)])
            except Exception as exc:  # noqa: BLE001 -- every exception is a failure here
                raised.append((args, repr(exc)))
                code = None
        if any(issubclass(w.category, RuntimeWarning) for w in caught):
            warned.append(args)
        err = capsys.readouterr().err
        if code == 64 and err == "planesing: jet coefficients must be finite\n":
            unnamed.append(args)
    assert (raised, warned, unnamed) == ([], [], [])


@pytest.mark.parametrize("levels", [400, 10000])
def test_deeply_nested_expressions_exit_64(capsys, levels):
    nested = {name: "(" * levels + name + ")" * levels for name in "ut"}
    assert run(["classify", "--map", f"{nested['u']}, v"]) == 64
    assert run(["classify", "--builtin", "ruling", "--curve", f"{nested['t']}, t^3"]) == 64
    assert capsys.readouterr().err.count("nest deeper than the cap") == 2


def test_bad_map_file_base_point_exits_64(tmp_path):
    components = [
        {"vars": 2, "terms": [{"c": 1.0, "e": [1, 0]}]},
        {"vars": 2, "terms": [{"c": 1.0, "e": [0, 3]}, {"c": 1.0, "e": [2, 1]}]},
    ]
    src = tmp_path / "map.json"
    out = tmp_path / "not-made"
    for base in ([float("nan"), 0], ["a", 0], [0], [0, 0, 0], [True, 0], [10**400, 0], 5):
        src.write_text(json.dumps({"components": components, "base_point": base}))
        for command in (["classify"], ["trace", "--grid", "8,8"]):
            assert run([*command, str(src), "--out", str(out)]) == 64, (base, command)
            assert not out.exists()


_U = {"vars": 2, "terms": [{"c": 1.0, "e": [1, 0]}]}
_CUSP_Q = {"vars": 2, "terms": [{"c": 1.0, "e": [0, 3]}, {"c": 1.0, "e": [1, 1]}]}


def _json(obj) -> bytes:
    return json.dumps(obj).encode()


# (case, command line, bytes of the input file); FILE in a command line
# names the input file, or the test's own directory when there are no bytes
FILE = "{file}"
MALFORMED_INPUT = [
    ("map-in-one-variable-classify", ["classify", FILE],
     _json({"components": [{"vars": 1, "terms": [{"c": 1.0, "e": [1]}]}, _CUSP_Q]})),
    ("map-in-one-variable-trace", ["trace", FILE, "--grid", "8,8"],
     _json({"components": [_U, {"vars": 1, "terms": [{"c": 1.0, "e": [2]}]}]})),
    ("problem-is-a-list", ["conslaw", FILE], b"[1]"),
    ("problem-is-a-string", ["conslaw", FILE], b'"str"'),
    ("directory-classify", ["classify", FILE], None),
    ("directory-conslaw", ["conslaw", FILE], None),
    ("not-utf8-classify", ["classify", FILE], b'\xff\xfe{"components": []}'),
    ("not-utf8-conslaw", ["conslaw", FILE], b"\xff\xfe{}"),
    ("nested-past-the-recursion-limit", ["classify", FILE], b"[" * 200000),
    ("nested-base-point", ["classify", FILE],
     _json({"components": [_U, _CUSP_Q]})[:-1] + b', "base_point": ' + b"[" * 200000 + b"}"),
    ("map-without-components", ["classify", FILE], _json({"base_point": [0.0, 0.0]})),
    ("components-not-a-list", ["classify", FILE], _json({"components": {"P": _U}})),
    ("components-of-one-item", ["trace", FILE], _json({"components": [_U]})),
    ("vars-overflows", ["classify", FILE],
     b'{"components": [{"vars": 1e400, "terms": []}, ' + _json(_CUSP_Q) + b"]}"),
    ("coefficient-overflows", ["conslaw", FILE],
     b'{"f1": {"vars": 1, "terms": [{"c": 1' + b"0" * 400 + b', "e": [2]}]}, '
     b'"f2": {"vars": 1, "terms": []}, "phi": ' + _json(_U) + b"}"),
    ("coefficient-of-401-digits", ["classify", FILE],
     b'{"components": [{"vars": 2, "terms": [{"c": 1' + b"0" * 400 + b', "e": [1, 0]}]}, '
     + _json(_CUSP_Q) + b"]}"),
    ("coefficient-not-a-number", ["classify", FILE],
     _json({"components": [{"vars": 2, "terms": [{"c": "abc", "e": [1, 0]}]}, _CUSP_Q]})),
    # a bool, a string or a fractional count is no input number
    ("vars-fractional", ["classify", FILE],
     _json({"components": [{"vars": 2.7, "terms": [{"c": 1.0, "e": [1, 0]}]}, _CUSP_Q]})),
    ("coefficient-a-string", ["classify", FILE],
     _json({"components": [{"vars": 2, "terms": [{"c": "1e5", "e": [1, 0]}]}, _CUSP_Q]})),
    ("exponent-a-bool", ["conslaw", FILE],
     _json({"f1": {"vars": 1, "terms": [{"c": 0.5, "e": [True]}]}, "f2": {"vars": 1, "terms": []},
            "phi": _U})),
    ("empty-format", ["classify", "--builtin", "fold", "--format", ","], None),
    ("ruling-without-curve", ["classify", "--builtin", "ruling"], None),
    ("stationary-curve", ["classify", "--builtin", "ruling", "--curve", "t^2,t^3"], None),
    ("problem-from-two-sources", ["conslaw", "--builtin", "burgers-lips", FILE],
     _json({"f1": {"vars": 1, "terms": [{"c": 0.5, "e": [2]}]}, "f2": {"vars": 1, "terms": []},
            "phi": _U})),
    ("unknown-builtin-problem", ["conslaw", "--builtin", "doughnut"], None),
    ("forced-point-with-two-times", ["conslaw", "--builtin", "burgers-lips",
                                     "--at", "0,0", "--time", "1,2"], None),
]


@pytest.mark.parametrize(
    "args,content", [pytest.param(a, c, id=case) for case, a, c in MALFORMED_INPUT]
)
def test_malformed_input_exits_64_with_one_line(tmp_path, capsys, args, content):
    path = tmp_path
    if content is not None:
        path = tmp_path / "input.json"
        path.write_bytes(content)
    out = tmp_path / "not-made"
    args = [str(path) if a == FILE else a for a in args]
    assert run([*args, "--out", str(out)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("planesing: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    # a quoted input value is cut short, so one line stays readable
    assert len(captured.err) <= 160 + len(str(path))
    assert not out.exists()


def test_builtin_at_another_point(tmp_path, capsys):
    assert run(["classify", "--builtin", "cusp", "--at", "0.3,0.1", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "class=Immersion at (0.3, 0.1)\n"


def test_map_file_at_another_point_matches_the_inline_map(tmp_path, capsys):
    src = tmp_path / "cusp.json"
    src.write_text(json.dumps({"components": [_U, _CUSP_Q], "base_point": [0.5, 0.5]}))
    lines = []
    for name, source in (("file", [str(src)]), ("inline", ["--map", "(u, v^3+u*v)"])):
        assert run(["classify", *source, "--at", "-0.75,0.5", "--out", str(tmp_path / name)]) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1] == "class=Fold at (-0.75, 0.5)\n"
    report = (tmp_path / "file" / "report.json").read_bytes()
    assert report == (tmp_path / "inline" / "report.json").read_bytes()


class _NoLapack:
    """Stands in for numpy.linalg's LAPACK gufunc module: every use raises."""

    def __getattr__(self, name):
        raise AssertionError(f"LAPACK was called: numpy.linalg {name}")


def test_no_lapack_call_in_classify_trace_or_conslaw(tmp_path, monkeypatch):
    # the pool diffeos of entry 0 are drawn, with np.linalg.det, first
    rng = np.random.default_rng(np.random.SeedSequence([POOL_ENTROPY, 0]))
    diffeos = (_origin_diffeo(rng), _origin_diffeo(rng))

    def lapack(*args, **kwargs):
        raise AssertionError("a LAPACK-backed numpy.linalg function was called")

    for name in ("cholesky", "cond", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
                 "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd", "svdvals",
                 "tensorinv", "tensorsolve"):
        if hasattr(np.linalg, name):
            monkeypatch.setattr(np.linalg, name, lapack)
    # and the gufuncs behind every one of them, for calls from inside numpy
    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    monkeypatch.setattr(impl, "_umath_linalg", _NoLapack())
    with pytest.raises(AssertionError, match="LAPACK"):
        np.linalg.norm(np.eye(2), 2)

    for name, expected in (("immersion", "Immersion"), ("fold", "Fold"), ("cusp", "Cusp"),
                           ("lips", "Lips"), ("beaks", "Beaks"), ("swallowtail", "Swallowtail")):
        germ = conjugate_by_diffeos(builtin_germ(name), *diffeos)
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps({"components": [poly_to_spec(c) for c in germ.components]}))
        assert run(["classify", str(spec), "--out", str(tmp_path / name)]) == 0
        assert json.loads((tmp_path / name / "report.json").read_text())["class"] == expected
    assert run(["classify", "--builtin", "ruling", "--curve", "t,t^3+t^2",
                "--at=-0.3333333333333333", "--out", str(tmp_path / "ruling")]) == 0
    assert json.loads((tmp_path / "ruling" / "report.json").read_text())["class"] == "Beaks"
    assert run(["trace", "--builtin", "swallowtail", "--grid", "32,32", "--format", "json,csv,svg",
                "--out", str(tmp_path / "trace")]) == 0
    assert run(["conslaw", "--builtin", "burgers-lips", "--time", "0.9,1.1",
                "--format", "json,csv,svg", "--out", str(tmp_path / "conslaw")]) == 0


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "planesing.cli", "classify", "--builtin", "fold",
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("class=Fold")


def test_usage_error_exits_64():
    proc = subprocess.run(
        [sys.executable, "-m", "planesing.cli", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 64
