"""Answer checks that share no code with planesing.

Polynomials here are dense NumPy coefficient tables: ``c[i, j]``
multiplies ``u**i * v**j`` (one-variable tables are 1-D).  Each check
returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npp

#: how far a reported special point or first-shock point may sit from
#: the known answer
POINT_TOL = 1e-6
U_STAR_TOL = 1e-8
T_STAR_REL_TOL = 1e-9
XI3_REL_TOL = 1e-6
#: |lambda| at a traced vertex, relative to max |lambda| over the box;
#: planesing sharpens vertices to 1e-10 of the same scale
VERTEX_REL_TOL = 1e-8


def dense(coeffs: dict) -> np.ndarray:
    """Dense table of a {(i, j): c} polynomial."""
    di = max(i for i, _ in coeffs)
    dj = max(j for _, j in coeffs)
    c = np.zeros((di + 1, dj + 1))
    for (i, j), v in coeffs.items():
        c[i, j] += v
    return c


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for (i, j), v in np.ndenumerate(a):
        if v != 0.0:
            out[i : i + b.shape[0], j : j + b.shape[1]] += v * b
    return out


def difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1])))
    out[: a.shape[0], : a.shape[1]] += a
    out[: b.shape[0], : b.shape[1]] -= b
    return out


def jacobian_determinant(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """lambda = P_u Q_v - P_v Q_u of a plane map (P, Q)."""
    pu, pv = npp.polyder(p, axis=0), npp.polyder(p, axis=1)
    qu, qv = npp.polyder(q, axis=0), npp.polyder(q, axis=1)
    return difference(multiply(pu, qv), multiply(pv, qu))


def box_nodes(box, n: int = 65):
    lo1, lo2, hi1, hi2 = box
    return np.meshgrid(np.linspace(lo1, hi1, n), np.linspace(lo2, hi2, n), indexing="ij")


# ---------------------------------------------------------------- classify


def check_class(got: str, expected: str) -> list[str]:
    return [] if got == expected else [f"class {got}, expected {expected}"]


# ------------------------------------------------------------------ trace


def check_trace(outdir: Path, components, box, expected) -> list[str]:
    """special_points.json of one trace run against the analytic answer.

    components are the map's dense tables, and expected lists the
    (location, class) pairs of its only non-fold points in the box.  Each must be reported within POINT_TOL with its
    class, and nothing else may be reported: in particular no Fold or
    Immersion point.  Every traced vertex must lie on lambda = 0.
    """
    data = json.loads((outdir / "special_points.json").read_text())
    problems = []
    found = [(sp["location"], sp["report"]["class"]) for sp in data["special_points"]]
    for loc, cls in expected:
        hits = [c for p, c in found if math.dist(p, loc) <= POINT_TOL]
        if cls not in hits:
            problems.append(f"missing {cls} at {loc}; reported {found}")
    for p, cls in found:
        if cls in ("Fold", "Immersion"):
            problems.append(f"reported a {cls} point at {p}")
        elif not any(math.dist(p, loc) <= POINT_TOL for loc, _ in expected):
            problems.append(f"unexpected {cls} point at {p}")
    lam = jacobian_determinant(*components)
    verts = np.array([v for c in data["curves"] for v in c["vertices"]]).reshape(-1, 2)
    if len(verts):
        worst = float(np.max(np.abs(npp.polyval2d(verts[:, 0], verts[:, 1], lam))))
        if worst > VERTEX_REL_TOL * float(np.max(np.abs(npp.polyval2d(*box_nodes(box), lam)))):
            problems.append(f"a traced vertex has |lambda| = {worst:.3e}")
    return problems


# ------------------------------------------------------------ first shock


def trace_field(problem: dict, U1, U2):
    """tau = f1''(phi) phi_1 + f2''(phi) phi_2 on arrays of points."""
    phi = problem["phi"]
    y = npp.polyval2d(U1, U2, phi)
    p1 = npp.polyval2d(U1, U2, npp.polyder(phi, axis=0))
    p2 = npp.polyval2d(U1, U2, npp.polyder(phi, axis=1))
    a2 = npp.polyval(y, npp.polyder(problem["f1"], 2))
    b2 = npp.polyval(y, npp.polyder(problem["f2"], 2))
    return a2 * p1 + b2 * p2


def _frame_vertices(path: Path) -> np.ndarray:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([[float(r["u1"]), float(r["u2"])] for r in rows]).reshape(-1, 2)


def check_first_shock(outdir: Path, problem: dict, times, box) -> list[str]:
    """First-shock outputs against the known interior lips at u* = a.

    The generator makes tau = -m + (u - a)^T H (u - a) + O(|u - a|^3)
    with tau > -m elsewhere in the box, so u* = a, t* = 1/m,
    xi3 = 4 det H and the class is Lips.  Before t* the discriminant
    1 + t tau stays >= 0.1, so the early frame is empty; after t* the
    frame has curves, and their vertices lie on 1 + t tau = 0.
    """
    problems = []
    res = json.loads((outdir / "first_singularity.json").read_text())
    a, m, H = problem["a"], problem["m"], problem["H"]
    if math.dist(res["u_star"], a) > U_STAR_TOL:
        problems.append(f"u_star {res['u_star']}, expected {list(a)}")
    if abs(res["t_star"] * m - 1.0) > T_STAR_REL_TOL:
        problems.append(f"t_star {res['t_star']}, expected {1.0 / m}")
    xi3_expected = 4.0 * float(np.linalg.det(H))
    if abs(res["xi"][2] / xi3_expected - 1.0) > XI3_REL_TOL:
        problems.append(f"xi3 {res['xi'][2]}, expected {xi3_expected}")
    if res["report"]["class"] != "Lips":
        problems.append(f"class {res['report']['class']}, expected Lips")
    if res["xi3_degenerate"]:
        problems.append("xi3 flagged degenerate")
    frames = json.loads((outdir / "frames.json").read_text())["frames"]
    counts = [f["curves"] for f in frames]
    verts = [_frame_vertices(outdir / f["csv"]) for f in frames]
    if [c > 0 for c in counts] != [False, True] or [len(v) > 0 for v in verts] != [False, True]:
        problems.append(f"frame curve counts {counts}, expected 0 then > 0")
    else:
        t, after = times[1], verts[1]
        worst = float(np.max(np.abs(1.0 + t * trace_field(problem, after[:, 0], after[:, 1]))))
        scale = float(np.max(np.abs(1.0 + t * trace_field(problem, *box_nodes(box)))))
        if worst > VERTEX_REL_TOL * scale:
            problems.append(f"a frame vertex has |1 + t tau| = {worst:.3e}")
    return problems


def same_files(a: Path, b: Path) -> list[str]:
    """Byte-for-byte comparison of two output directories."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"file lists differ: {names_a} vs {names_b}"]
    return [f"{n} differs on rerun" for n in names_a if (a / n).read_bytes() != (b / n).read_bytes()]
