"""Tests of the benchmark itself: its input generators and answer checks.

Run from the repository root:

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles  # noqa: E402
import workloads  # noqa: E402
from planesing import Poly2, builtin_germ, classify, conjugate_by_diffeos  # noqa: E402
from planesing.parsing import parse_map  # noqa: E402

# ------------------------------------------------------------- generators


@pytest.mark.parametrize("seed", range(4))
def test_shock_generator_puts_the_strict_minimum_at_a(seed):
    p = workloads.shock_problem(np.random.default_rng(seed))
    a, m, H = p["a"], p["m"], p["H"]

    def tau(x, y):
        return float(oracles.trace_field(p, np.array(x), np.array(y)))

    assert tau(*a) == pytest.approx(-m, abs=1e-12)
    h = 1e-4
    grad = [(tau(a[0] + h, a[1]) - tau(a[0] - h, a[1])) / (2 * h),
            (tau(a[0], a[1] + h) - tau(a[0], a[1] - h)) / (2 * h)]
    assert np.allclose(grad, 0.0, atol=1e-6)
    hxx = (tau(a[0] + h, a[1]) - 2 * tau(*a) + tau(a[0] - h, a[1])) / h**2
    assert hxx == pytest.approx(2 * H[0, 0], rel=1e-4)
    assert np.linalg.det(H) > 0 and H[0, 0] > 0

    lo1, lo2, hi1, hi2 = workloads.SHOCK_BOX
    xs, ys = np.linspace(lo1, hi1, 361), np.linspace(lo2, hi2, 361)
    U1, U2 = np.meshgrid(xs, ys, indexing="ij")
    t = oracles.trace_field(p, U1, U2)
    i, j = np.unravel_index(int(np.argmin(t)), t.shape)
    assert abs(xs[i] - a[0]) <= xs[1] - xs[0] and abs(ys[j] - a[1]) <= ys[1] - ys[0]
    assert float(np.min(t)) >= -m - 1e-12


def _linear_det(comps):
    return np.linalg.det([[c[(1, 0)], c[(0, 1)]] for c in comps])


@pytest.mark.parametrize("entry", [0, 2, 1000, workloads.POOL_SIZE - 1])
def test_pool_diffeos_fix_the_origin_with_det_in_range(entry):
    for comps in workloads.pool_diffeos(entry):
        assert all((0, 0) not in c for c in comps)
        assert 0.5 <= _linear_det(comps) <= 2.0


@pytest.mark.parametrize("k", [0, 1, 2, 3, 57, 419, 1019])
def test_fault_copies_scale_the_target_and_fail_alike(k):
    src0, tgt0 = workloads.pool_diffeos(workloads.FAULT_ENTRY[0])
    src, tgt = workloads.fault_diffeos(k)
    assert src == src0
    for comp, comp0 in zip(tgt, tgt0):
        factors = {comp[e] / c for e, c in comp0.items()}
        assert len(factors) == 1
        f = abs(factors.pop())
        assert f == 2.0 ** round(np.log2(f))

    def margins(pair):
        germ = builtin_germ(workloads.FAULT_ENTRY[1])
        polys = [(Poly2(a), Poly2(b)) for a, b in pair]
        rep = classify(conjugate_by_diffeos(germ, *polys))
        return rep.singularity_class, {q: m["normalized"] for q, m in rep.margins.items()}

    assert margins((src, tgt)) == margins((src0, tgt0))
    assert margins((src, tgt))[0] != workloads.NORMAL_FORMS[workloads.FAULT_ENTRY[1]]


def test_fault_copies_are_distinct():
    targets = {str(workloads.fault_diffeos(k)[1]) for k in range(1020)}
    assert len(targets) == 1020


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.2, 0.1), (-0.25, 0.5)])
def test_map_text_parses_to_the_shifted_polynomial(center):
    coeffs = workloads.scaled({(0, 3): 1.0, (2, 1): -1.0, (1, 0): 0.5}, 0.75, 1.25)
    parsed = parse_map(f"({workloads.poly_text(coeffs, center)}, u)")[0]
    expected = workloads.shifted(oracles.dense(coeffs), center)
    assert np.allclose(oracles.dense(parsed.coeffs), expected, rtol=1e-14, atol=1e-15)


def test_inputs_depend_only_on_the_seed(tmp_path):
    a, _ = workloads.trace_inputs(5, 2)
    b, _ = workloads.trace_inputs(5, 2)
    c, _ = workloads.trace_inputs(6, 2)
    assert [op.args for op in a] == [op.args for op in b] != [op.args for op in c]
    assert len({tuple(op.args) for op in a}) == len(a)


# ----------------------------------------------------------- answer checks


def test_classify_round_fails_only_the_kept_fault():
    ops = workloads.classify_round(np.random.default_rng(0), 0, 0)
    for op in ops:
        op.run(None)
    failing = [op for op in ops if op.check(None)]
    assert [op.known_fault is not None for op in failing] == [True]
    assert oracles.check_class("Unrecognized", "Swallowtail")


@pytest.fixture(scope="module")
def trace_run(tmp_path_factory):
    ops, _ = workloads.trace_inputs(1, 1)
    out = tmp_path_factory.mktemp("trace")
    ops[0].run(out / "beaks")
    ops[-1].run(out / "fault")
    return ops, out


def _edit_json(src: Path, dst: Path, name: str, edit) -> Path:
    shutil.copytree(src, dst)
    data = json.loads((dst / name).read_text())
    edit(data)
    (dst / name).write_text(json.dumps(data))
    return dst


def test_trace_check_accepts_the_real_output(trace_run):
    ops, out = trace_run
    assert ops[0].check(out / "beaks") == []


def test_trace_check_rejects_an_extra_fold_point(trace_run, tmp_path):
    ops, out = trace_run

    def add_fold(data):
        extra = json.loads(json.dumps(data["special_points"][0]))
        extra["location"] = [0.5, 0.5]
        extra["report"]["class"] = "Fold"
        data["special_points"].append(extra)

    bad = _edit_json(out / "beaks", tmp_path / "bad", "special_points.json", add_fold)
    assert any("Fold" in p for p in ops[0].check(bad))


def test_trace_check_rejects_a_flipped_class(trace_run, tmp_path):
    ops, out = trace_run

    def flip(data):
        data["special_points"][0]["report"]["class"] = "Lips"

    bad = _edit_json(out / "beaks", tmp_path / "bad", "special_points.json", flip)
    assert ops[0].check(bad)


def test_trace_check_rejects_a_vertex_off_the_curve(trace_run, tmp_path):
    ops, out = trace_run

    def move(data):
        v = data["curves"][0]["vertices"][0]
        v[0] += 1e-3

    bad = _edit_json(out / "beaks", tmp_path / "bad", "special_points.json", move)
    assert any("vertex" in p for p in ops[0].check(bad))


def test_trace_fault_map_fails_with_a_fold_point(trace_run):
    ops, out = trace_run
    assert ops[-1].known_fault is not None
    assert any("Fold" in p for p in ops[-1].check(out / "fault"))


@pytest.fixture(scope="module")
def shock_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("shock")
    ops, _ = workloads.first_shock_inputs(3, 1, out / "inputs")
    ops[0].run(out / "run")
    return ops[0], out / "run"


def test_shock_check_accepts_the_real_output(shock_run):
    op, out = shock_run
    assert op.check(out) == []


@pytest.mark.parametrize(
    "name, edit",
    [
        ("first_singularity.json", lambda d: d["u_star"].__setitem__(0, d["u_star"][0] + 1e-7)),
        ("first_singularity.json", lambda d: d.__setitem__("t_star", d["t_star"] * (1 + 1e-8))),
        ("first_singularity.json", lambda d: d["report"].__setitem__("class", "Beaks")),
        ("first_singularity.json", lambda d: d.__setitem__("xi3_degenerate", True)),
        ("frames.json", lambda d: d["frames"][0].__setitem__("curves", 1)),
    ],
    ids=["moved-u_star", "moved-t_star", "flipped-class", "xi3-degenerate", "frame-before-shock"],
)
def test_shock_check_rejects_a_wrong_output(shock_run, tmp_path, name, edit):
    op, out = shock_run
    bad = _edit_json(out, tmp_path / "bad", name, edit)
    assert op.check(bad)


def test_byte_check_sees_one_changed_byte(shock_run, tmp_path):
    _, out = shock_run
    shutil.copytree(out, tmp_path / "copy")
    assert oracles.same_files(out, tmp_path / "copy") == []
    csv = tmp_path / "copy" / "frame_1.csv"
    raw = bytearray(csv.read_bytes())
    raw[-2] = ord("0") if raw[-2] != ord("0") else ord("1")
    csv.write_bytes(bytes(raw))
    assert oracles.same_files(out, tmp_path / "copy")


# ------------------------------------------------------------- the command


def test_benchmark_json_lists_every_per_layer_metric():
    from tracer import metric_names

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metric_names()
    assert spec["paths"] == [BENCH.name]


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "classify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
