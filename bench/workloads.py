"""Inputs and operations of the three benchmark workloads.

Inputs are made with NumPy alone from the workload seed; the program
only ever sees the finished inputs.  A workload is a list of whole
rounds, and a round is a fixed list of operations, so every run
attempts the same mix whatever its seed or length.  No input repeats
within a run, and every operation builds its polynomial objects anew
from its input, so a cache kept across calls cannot pass for a faster
kernel.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import planesing
import planesing.cli

import oracles

#: expected class of every builtin normal form; conjugation keeps it
NORMAL_FORMS = {
    "immersion": "Immersion",
    "fold": "Fold",
    "cusp": "Cusp",
    "lips": "Lips",
    "beaks": "Beaks",
    "swallowtail": "Swallowtail",
}

#: The classify workload draws its coordinate changes from a fixed pool,
#: the same for every seed; the seed picks which entries a run uses.
POOL_ENTROPY = 9052455
POOL_SIZE = 4000

#: Pool entries on which planesing misclassifies at least one conjugated
#: normal form (found by classifying all six forms on every entry).  The
#: zero test behind it is not invariant under coordinate changes, so
#: which draws fail depends on the draw; such a failure cannot recur in
#: the same share of every run, so these entries are left out, and one
#: of them is kept instead as a fixed failing operation in every round.
POOL_EXCLUDED = frozenset(
    {
        1, 186, 242, 254, 593, 628, 761, 1497,
        2116, 2125, 2131, 2298, 2365, 2686, 2713, 2794,
        2845, 2901, 2926, 3080, 3113, 3242, 3628,
    }
)

#: the failing pool entry kept in every classify round, and its form
FAULT_ENTRY = (1, "swallowtail")

#: Run length: a run of S seconds does round(S / ROUND_SECONDS) rounds,
#: a count fixed before timing starts (measured at the benchmark's
#: creation on a 2-vCPU virtual machine, Python 3.11, NumPy 2.4).
ROUND_SECONDS = {"classify": 0.065, "trace": 6.5, "first-shock": 0.26}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


# ------------------------------------------------------------ polynomials


def shift_matrix(a: float, n: int) -> np.ndarray:
    """B with B[p, i] = C(i, p) (-a)^(i - p): (x - a)^i in powers of x."""
    B = np.zeros((n, n))
    for i in range(n):
        for p in range(i + 1):
            B[p, i] = math.comb(i, p) * (-a) ** (i - p)
    return B


def shifted(table: np.ndarray, center) -> np.ndarray:
    """Dense table of p(u - c1, v - c2), given the dense table of p."""
    return shift_matrix(center[0], table.shape[0]) @ table @ shift_matrix(center[1], table.shape[1]).T


def scaled(coeffs: dict, s1: float, s2: float) -> dict:
    """p(s1 u, s2 v) as a coefficient dict."""
    return {(i, j): c * s1**i * s2**j for (i, j), c in coeffs.items()}


def _monomial(i: int, j: int, center) -> str:
    factors = []
    for name, k, c in (("u", i, center[0]), ("v", j, center[1])):
        if k == 0:
            continue
        var = name if c == 0.0 else f"({name}-{c!r})" if c > 0 else f"({name}+{-c!r})"
        factors.append(var if k == 1 else f"{var}^{k}")
    return "*".join(factors)


def poly_text(coeffs: dict, center=(0.0, 0.0)) -> str:
    """Inline-grammar text of sum c * (u - c1)^i * (v - c2)^j."""
    out = ""
    for (i, j), c in sorted(coeffs.items()):
        mono = _monomial(i, j, center)
        body = f"{abs(c)!r}" + (f"*{mono}" if mono else "")
        out += ("-" if c < 0 else "+" if out else "") + body
    return out


# --------------------------------------------------------------- classify


def origin_diffeo(rng) -> tuple[dict, dict]:
    """Degree-3 polynomial map fixing 0, det of its linear part in [0.5, 2].

    Components are {(i, j): coefficient} dicts.
    """
    while True:
        L = rng.uniform(-1.0, 1.0, (2, 2))
        if 0.5 <= np.linalg.det(L) <= 2.0:
            break
    comps = []
    for row in range(2):
        terms = {(1, 0): float(L[row, 0]), (0, 1): float(L[row, 1])}
        for i in range(4):
            for j in range(4 - i):
                if i + j >= 2:
                    terms[(i, j)] = float(rng.uniform(-0.5, 0.5))
        comps.append(terms)
    return comps[0], comps[1]


def pool_diffeos(j: int):
    """Source and target coordinate changes of pool entry j."""
    rng = np.random.default_rng(np.random.SeedSequence([POOL_ENTROPY, j]))
    return origin_diffeo(rng), origin_diffeo(rng)


def fault_diffeos(k: int):
    """The failing pool entry, its target components scaled by +-2**e.

    Such a scaling multiplies every quantity classify tests by a power
    of two, exactly, so round k's copy fails the same way as the entry
    itself while no two of the first 1020 rounds share an input.  The
    exponents stay at -12 or above, since a much smaller target fails
    conjugate_by_diffeos's absolute determinant test, and differ by at
    most 2, since a wider gap changes which Jacobian row classify builds
    its null field from.
    """
    src, (t1, t2) = pool_diffeos(FAULT_ENTRY[0])
    e1 = (k // 20) % 51 - 10
    e2 = e1 + (k // 4) % 5 - 2
    f1 = (-1.0 if k % 2 else 1.0) * 2.0**e1
    f2 = (-1.0 if k % 4 >= 2 else 1.0) * 2.0**e2
    return src, ({e: c * f1 for e, c in t1.items()}, {e: c * f2 for e, c in t2.items()})


@dataclass
class ClassifyOp:
    """conjugate_by_diffeos then classify, or classify of a ruling map."""

    expected: str
    form: str | None = None
    diffeos: tuple | None = None
    ruling: tuple[float, float] | None = None  # (a, t0) for (t, t^3 + a t^2)
    known_fault: str | None = None
    got: str | None = None

    def run(self, outdir: Path) -> None:
        if self.ruling is not None:
            a, t0 = self.ruling
            curve = (planesing.Poly1({1: 1.0}), planesing.Poly1({3: 1.0, 2: a}))
            germ = planesing.ruling_map(curve, t0)
        else:
            (s1, s2), (t1, t2) = self.diffeos
            src = (planesing.Poly2(s1), planesing.Poly2(s2))
            tgt = (planesing.Poly2(t1), planesing.Poly2(t2))
            germ = planesing.conjugate_by_diffeos(planesing.builtin_germ(self.form), src, tgt)
        self.got = planesing.classify(germ).singularity_class

    def check(self, outdir: Path) -> list[str]:
        return oracles.check_class(self.got, self.expected)


def classify_round(rng, k: int, entry: int) -> list[ClassifyOp]:
    diffeos = pool_diffeos(entry)
    ops = [ClassifyOp(cls, form=name, diffeos=diffeos) for name, cls in NORMAL_FORMS.items()]
    # the ruling map of (t, t^3 + a t^2) folds at t = 0 and has a beaks
    # point at the curve's inflection t = -a/3
    a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 1.0))
    ops.append(ClassifyOp("Fold", ruling=(a, 0.0)))
    ops.append(ClassifyOp("Beaks", ruling=(a, -a / 3.0)))
    ops.append(
        ClassifyOp(
            NORMAL_FORMS[FAULT_ENTRY[1]],
            form=FAULT_ENTRY[1],
            diffeos=fault_diffeos(k),
            known_fault="germs.classify: coordinate-dependent eta^3 lambda margin",
        )
    )
    return ops


def classify_inputs(seed: int, rounds: int):
    rng = np.random.default_rng(seed)
    good = [j for j in range(POOL_SIZE) if j not in POOL_EXCLUDED]
    entries = rng.choice(good, size=rounds + 1, replace=False)
    ops = [op for k in range(rounds) for op in classify_round(rng, k, int(entries[k]))]
    warm = ClassifyOp(NORMAL_FORMS["beaks"], form="beaks", diffeos=pool_diffeos(int(entries[-1])))
    return ops, warm


# ------------------------------------------------------------------ trace

U = {(1, 0): 1.0}
V = {(0, 1): 1.0}
TRACE_FORMS = {
    # name: ((P, Q), centre = the only non-fold point, its class)
    "beaks": ((U, {(0, 3): 1.0, (2, 1): -1.0}), (0.0, 0.0), "Beaks"),
    "swallowtail": ((U, {(1, 1): 1.0, (0, 4): 1.0}), (0.0, 0.0), "Swallowtail"),
    "lips": ((U, {(0, 3): 1.0, (2, 1): 1.0}), (0.0, 0.0), "Lips"),
    "cusp": ((U, {(0, 3): 1.0, (1, 1): 1.0}), (0.0, 0.0), "Cusp"),
    "swapped-beaks": (({(0, 3): 1.0, (2, 1): -1.0}, U), (0.0, 0.0), "Beaks"),
    "swapped-swallowtail": (({(1, 1): 1.0, (0, 4): 1.0}, U), (0.0, 0.0), "Swallowtail"),
    "translated-beaks": ((U, {(0, 3): 1.0, (2, 1): -1.0}), (0.2, 0.1), "Beaks"),
}
#: lambda = 2u: a fold line and nothing else, but planesing's global
#: first-row null field reports a spurious cusp candidate at (0, 0)
FAULT_MAP = ({(2, 0): 1.0, (0, 2): 1.0}, V)
TRACE_GRID = "12,12"
FORMATS = "json,csv,svg"


def _cli(args: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return planesing.cli.main(args)


@dataclass
class TraceOp:
    """planesing trace on one map; components are its dense tables."""

    args: list[str]
    components: tuple[np.ndarray, np.ndarray]
    box: tuple[float, float, float, float]
    expected: list = field(default_factory=list)
    known_fault: str | None = None
    rc: int | None = None

    def run(self, outdir: Path) -> None:
        self.rc = _cli(self.args + ["--out", str(outdir)])

    def check(self, outdir: Path) -> list[str]:
        if self.rc != 0:
            return [f"exit code {self.rc}"]
        return oracles.check_trace(outdir, self.components, self.box, self.expected)


def _box_arg(box) -> str:
    return "--box=" + ",".join(repr(float(x)) for x in box)


def scaled_map_op(components, center, s1, s2, expected_class) -> TraceOp:
    """The map F(s1 (u - c1), s2 (v - c2)) over the box that F sees as [-1, 1]^2."""
    local = (scaled(components[0], s1, s2), scaled(components[1], s1, s2))
    box = (center[0] - 1 / s1, center[1] - 1 / s2, center[0] + 1 / s1, center[1] + 1 / s2)
    text = f"({poly_text(local[0], center)}, {poly_text(local[1], center)})"
    args = ["trace", "--map", text, "--at", f"{center[0]!r},{center[1]!r}", _box_arg(box),
            "--grid", TRACE_GRID, "--format", FORMATS]
    glob = tuple(shifted(oracles.dense(c), center) for c in local)
    expected = [(center, expected_class)] if expected_class else []
    return TraceOp(args, glob, box, expected)


def ruling_op(s1: float, s2: float) -> TraceOp:
    """Ruling map of the curve (s1 t, s2 t^3): one beaks point at (0, 0)."""
    args = ["trace", "--builtin", "ruling", "--curve", f"{s1!r}*t,{s2!r}*t^3",
            _box_arg((-1.0, -1.0, 1.0, 1.0)), "--grid", TRACE_GRID, "--format", FORMATS]
    # R(t, w) = (s1 t + s1 w, s2 t^3 + 3 s2 t^2 w)
    comps = (oracles.dense({(1, 0): s1, (0, 1): s1}), oracles.dense({(3, 0): s2, (2, 1): 3.0 * s2}))
    return TraceOp(args, comps, (-1.0, -1.0, 1.0, 1.0), [((0.0, 0.0), "Beaks")])


def _scales(rng, n: int) -> list[tuple[float, float]]:
    # distinct pairs of multiples of 1/256 in [0.75, 1.25]: the scaled
    # coefficients are exact and no map repeats within a run
    picks = rng.choice(129 * 129, size=n, replace=False)
    return [((192 + int(p) // 129) / 256, (192 + int(p) % 129) / 256) for p in picks]


def trace_inputs(seed: int, rounds: int):
    rng = np.random.default_rng(seed)
    scales = {name: _scales(rng, rounds + 1) for name in [*TRACE_FORMS, "ruling"]}
    ops = []
    for k in range(rounds):
        for name, (comps, center, cls) in TRACE_FORMS.items():
            ops.append(scaled_map_op(comps, center, *scales[name][k], cls))
        ops.append(ruling_op(*scales["ruling"][k]))
        fault = scaled_map_op(FAULT_MAP, (0.0, 0.0), 1.0 + (k % 64) / 256, 1.0, None)
        fault.known_fault = "locus.find_special_points: global first-row null field"
        ops.append(fault)
    comps, center, cls = TRACE_FORMS["cusp"]
    return ops, scaled_map_op(comps, center, *scales["cusp"][rounds], cls)


# ------------------------------------------------------------ first shock

SHOCK_BOX = (-0.9, -0.9, 0.9, 0.9)
SHOCK_DELTA = 1e-3
SHOCK_FLUX_QUINTIC = 2e-3
#: fine grid of the generator's own check that tau is smallest at a
SHOCK_CHECK_NODES = 121


def shock_problem(rng) -> dict:
    """A conservation law whose first shock is a lips at a known point.

    With x = u1 - a1, y = u2 - a2 the profile is
        phi = y0 - m x + H11 x^3/3 + H12 x^2 y + H22 x y^2 + g(y) + delta q4(x, y)
    and the flux f1 = Y^2/2 + c1 (Y - y0)^5, f2 = c2 (Y - y0)^5, so
        tau = f1''(phi) phi_1 + f2''(phi) phi_2 = -m + (x, y) H (x, y)^T + O(3).
    Draws are kept only when a fine grid shows tau >= -m + |u - a|^2 lmin / 4
    over the whole box, so a is the strict minimiser and t* = 1/m.
    """
    while True:
        a = rng.uniform(-0.3, 0.3, 2)
        m = float(rng.uniform(0.5, 1.5))
        eig = rng.uniform(0.5, 2.0, 2)
        th = rng.uniform(0.0, math.pi)
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        H = R @ np.diag(eig) @ R.T
        y0 = float(rng.uniform(-0.5, 0.5))
        local = np.zeros((5, 5))
        local[0, 0] = y0
        local[1, 0] = -m
        local[3, 0] = H[0, 0] / 3.0
        local[2, 1] = H[0, 1]
        local[1, 2] = H[1, 1]
        local[0, 1:5] = rng.uniform(-0.5, 0.5, 4)
        for i, q in enumerate(rng.uniform(-1.0, 1.0, 5)):
            local[i, 4 - i] += SHOCK_DELTA * q
        phi = shifted(local, a)
        c1, c2 = rng.uniform(-SHOCK_FLUX_QUINTIC, SHOCK_FLUX_QUINTIC, 2)
        quintic = np.array([math.comb(5, k) * (-y0) ** (5 - k) for k in range(6)])
        f1 = c1 * quintic
        f1[2] += 0.5
        problem = {"a": a, "m": m, "H": H, "phi": phi, "f1": f1, "f2": c2 * quintic}
        if _tau_minimised_at_a(problem, float(np.min(eig))):
            return problem


def _tau_minimised_at_a(problem: dict, lmin: float) -> bool:
    lo1, lo2, hi1, hi2 = SHOCK_BOX
    xs = np.linspace(lo1, hi1, SHOCK_CHECK_NODES)
    ys = np.linspace(lo2, hi2, SHOCK_CHECK_NODES)
    U1, U2 = np.meshgrid(xs, ys, indexing="ij")
    tau = oracles.trace_field(problem, U1, U2)
    r2 = (U1 - problem["a"][0]) ** 2 + (U2 - problem["a"][1]) ** 2
    return bool(np.all(tau >= -problem["m"] + 0.25 * lmin * r2))


def problem_spec(problem: dict) -> dict:
    """planesing's conservation-law JSON for a generated problem."""

    def one(c):
        return {"vars": 1, "terms": [{"c": float(v), "e": [k]} for k, v in enumerate(c) if v != 0.0]}

    phi = problem["phi"]
    terms = [{"c": float(v), "e": [i, j]} for (i, j), v in np.ndenumerate(phi) if v != 0.0]
    return {"f1": one(problem["f1"]), "f2": one(problem["f2"]), "phi": {"vars": 2, "terms": terms}}


@dataclass
class ShockOp:
    """planesing conslaw with frames just before and after the known t*."""

    problem: dict
    path: Path
    known_fault: str | None = None
    rc: int | None = None

    @property
    def times(self) -> tuple[float, float]:
        return 0.9 / self.problem["m"], 1.1 / self.problem["m"]

    def run(self, outdir: Path) -> None:
        t0, t1 = self.times
        self.rc = _cli(["conslaw", str(self.path), _box_arg(SHOCK_BOX), "--time",
                        f"{t0!r},{t1!r}", "--format", FORMATS, "--out", str(outdir)])

    def check(self, outdir: Path) -> list[str]:
        if self.rc != 0:
            return [f"exit code {self.rc}"]
        return oracles.check_first_shock(outdir, self.problem, self.times, SHOCK_BOX)


def first_shock_inputs(seed: int, rounds: int, indir: Path):
    rng = np.random.default_rng(seed)
    indir.mkdir(parents=True, exist_ok=True)
    ops = []
    for k in range(rounds + 1):
        path = indir / f"problem_{k}.json"
        problem = shock_problem(rng)
        path.write_text(json.dumps(problem_spec(problem)))
        ops.append(ShockOp(problem, path))
    return ops[:-1], ops[-1]


def build(workload: str, seed: int, rounds: int, workdir: Path):
    """(timed operations, warm-up operation) of one run."""
    if workload == "classify":
        return classify_inputs(seed, rounds)
    if workload == "trace":
        return trace_inputs(seed, rounds)
    return first_shock_inputs(seed, rounds, workdir / "inputs")
