"""End-to-end runs of the command-line interface."""

import json
import subprocess
import sys
import time
import warnings

import pytest

from planesing.cli import main
from planesing.conslaw import MAX_VELOCITY_DEGREE
from planesing.locus import MAX_GRID
from planesing.poly import MAX_INPUT_DEGREE


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
    # every Jacobian entry is below rank_threshold, but df has rank 1
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


def test_classify_rejects_bad_tolerance(capsys):
    assert run(["classify", "--builtin", "fold", "--tol-zero", "5"]) == 64


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
        ["conslaw", "--builtin", "burgers-lips", "--at", "1e100,0", "--time", "1"],
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
