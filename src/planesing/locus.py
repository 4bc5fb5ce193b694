"""Tracing singular sets and hunting distinguished points in a box.

The singular set of a polynomial plane map is the zero level set of
its discriminant.  This module walks that level set over a rectangular
domain: the discriminant is evaluated on the box's tensor grid by
separable Horner (each node value bit for bit its point value), and a
marching-squares pass classifies every cell at once as arrays and
visits only the cells whose corner signs change (linear interpolation
on cell edges, center-sample disambiguation for saddle cells, both
computed as arrays).  Every vertex is sharpened with a damped Newton
projection along the discriminant gradient, and the cell segments are
linked into polylines.

On top of the traced curves it searches for the two kinds of points
the classification tree cares about beyond folds: critical points of
the discriminant lying on the set (lips/beaks material) and points
where the null-direction derivative of the discriminant vanishes on
the set (cusp/swallowtail material).  Each located point is classified
by re-basing the germ there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .germs import (
    DEFAULT_TOLERANCES,
    ClassificationReport,
    PlaneMapGerm,
    ToleranceConfig,
    classify,
    uses_first_row,
)
from .poly import InvalidSpec, Poly1, Poly2, poly_from_spec

__all__ = [
    "BoxDomain",
    "CurveSample",
    "SpecialPoint",
    "NotRegularCurve",
    "sample_singular_set",
    "find_special_points",
    "newton_batch",
    "critical_value_image",
    "ruling_map",
]

#: points closer than this (in source-plane distance) are one point
DEDUP_RADIUS = 1e-6

#: Newton step-size floor; with the residual bound, defines convergence
STEP_TOL = 1e-12

#: Most grid cells per axis.  The node values and the batched Newton
#: sweeps (one seed per cell) hold arrays sized by the cell count, so
#: memory grows with the square of the grid: about 100 MB at 512.
MAX_GRID = 512


class NotRegularCurve(ValueError):
    """The generating curve has a vanishing velocity at the base parameter."""


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned search box with a node grid.

    grid counts cells per axis, so axis k carries grid[k] + 1 sample
    nodes including both endpoints.
    """

    lo: tuple[float, float]
    hi: tuple[float, float]
    grid: tuple[int, int] = (64, 64)

    def __post_init__(self):
        lo = (float(self.lo[0]), float(self.lo[1]))
        hi = (float(self.hi[0]), float(self.hi[1]))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "grid", (int(self.grid[0]), int(self.grid[1])))
        if not all(map(math.isfinite, lo + hi + (hi[0] - lo[0], hi[1] - lo[1]))):
            raise ValueError(f"box corners and extent must be finite, got lo={lo} hi={hi}")
        if not (lo[0] < hi[0] and lo[1] < hi[1]):
            raise ValueError(f"box must have positive extent, got lo={lo} hi={hi}")
        if self.grid[0] < 2 or self.grid[1] < 2:
            raise ValueError("grid needs at least 2 cells per axis")
        if self.grid[0] > MAX_GRID or self.grid[1] > MAX_GRID:
            raise ValueError(f"grid allows at most {MAX_GRID} cells per axis, got {self.grid}")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.lo[0], self.hi[0], self.grid[0] + 1),
            np.linspace(self.lo[1], self.hi[1], self.grid[1] + 1),
        )

    def grid_values(self, p: Poly2, name: str) -> np.ndarray:
        """p at the grid nodes, shaped (grid[0] + 1, grid[1] + 1).

        Raises InvalidSpec, naming p by name, when a value overflows.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            vals = p.eval_grid(*self.axes())
        if not np.isfinite(vals).all():
            raise InvalidSpec(f"the {name} overflows on the box grid")
        return vals

    def contains(self, u, slack: float = 1e-9):
        """Whether u = (u1, u2), scalars or coordinate arrays, lies in the widened box."""
        sx = slack * (1.0 + abs(self.hi[0] - self.lo[0]))
        sy = slack * (1.0 + abs(self.hi[1] - self.lo[1]))
        return (
            (self.lo[0] - sx <= u[0])
            & (u[0] <= self.hi[0] + sx)
            & (self.lo[1] - sy <= u[1])
            & (u[1] <= self.hi[1] + sy)
        )


@dataclass
class CurveSample:
    """One traced connected component of the singular set.

    vertices are ordered along the curve; residuals hold |lambda| at
    each vertex after Newton sharpening; closed marks a loop (the first
    vertex is not repeated at the end).
    """

    vertices: list[tuple[float, float]]
    residuals: list[float]
    closed: bool

    def to_dict(self) -> dict:
        return {
            "vertices": [list(v) for v in self.vertices],
            "residuals": self.residuals,
            "closed": self.closed,
        }


@dataclass
class SpecialPoint:
    """A sharpened candidate point with its classification.

    kind is 'DegenerateCandidate' for roots of grad lambda on the set
    and 'CuspCandidate' for roots of (lambda, eta lambda).
    """

    location: tuple[float, float]
    kind: str
    newton_residual: float
    report: ClassificationReport = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "location": list(self.location),
            "kind": self.kind,
            "newton_residual": self.newton_residual,
            "report": self.report.to_dict(),
        }


def _solve2(J: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the 2x2 systems J[k] x[k] = b[k] by LU with partial pivoting.

    Returns (x, ok); ok is False where x[k] is not finite, which covers
    an exactly singular J[k]: a zero pivot turns the division into an
    infinity or a NaN.
    """
    a11, a12, a21, a22 = J[:, 0, 0], J[:, 0, 1], J[:, 1, 0], J[:, 1, 1]
    swap = np.abs(a21) > np.abs(a11)
    p11, p12 = np.where(swap, a21, a11), np.where(swap, a22, a12)
    p21, p22 = np.where(swap, a11, a21), np.where(swap, a12, a22)
    q1, q2 = np.where(swap, b[:, 1], b[:, 0]), np.where(swap, b[:, 0], b[:, 1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = p21 / p11
        u22 = p22 - m * p12
        x2 = (q2 - m * q1) / u22
        x1 = (q1 - p12 * x2) / p11
    x = np.stack([x1, x2], axis=1)
    return x, np.all(np.isfinite(x), axis=1)


def _row_max_abs(a: np.ndarray) -> np.ndarray:
    # np.max over a length-2 axis is several times slower than this
    return np.maximum(np.abs(a[:, 0]), np.abs(a[:, 1]))


def newton_batch(
    system,
    jacobian,
    seeds,
    tol: ToleranceConfig,
    box: BoxDomain,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped two-dimensional Newton iteration from many seeds at once.

    system maps a pair of coordinate arrays (u1, u2) to the pair of
    residual arrays, jacobian to ((F1_u1, F1_u2), (F2_u1, F2_u2)).  Each
    seed runs its own iteration: a step that increases the residual norm
    is halved up to eight times, and the seed stops when no step length
    helps, its Jacobian is singular, or it leaves the box by slack 0.5.
    Convergence requires both a small step and a small residual.  Seeds
    never interact, so each result is the one the seed gets alone.
    Returns (x, residual_norm, converged), shaped (n, 2), (n,) and (n,).
    """

    def values(fn, x):
        return np.moveaxis(np.asarray(fn(x.T), dtype=float), -1, 0)

    x = np.array(seeds, dtype=float).reshape(-1, 2)
    fx = values(system, x)
    rnorm = _row_max_abs(fx)
    converged = np.zeros(len(x), dtype=bool)
    active = np.arange(len(x))
    for _ in range(tol.newton_max_iter):
        if not active.size:
            break
        xa, ra = x[active], rnorm[active]
        step, solved = _solve2(values(jacobian, xa), -fx[active])
        # line search over the seeds whose step length is still open
        t = np.zeros(len(active))
        pending = np.flatnonzero(solved)
        length = 1.0
        for _ in range(8):
            if not pending.size:
                break
            cand = xa[pending] + length * step[pending]
            fc = values(system, cand)
            cnorm = _row_max_abs(fc)
            ok = (cnorm <= ra[pending]) | (ra[pending] == 0.0)
            idx = active[pending[ok]]
            x[idx], fx[idx], rnorm[idx] = cand[ok], fc[ok], cnorm[ok]
            t[pending[ok]] = length
            pending = pending[~ok]
            length *= 0.5
        # seeds without an accepted step have stalled at a local minimum
        # of |F| (or met a singular Jacobian) and cannot converge
        moved = t > 0.0
        idx, step, t = active[moved], step[moved], t[moved][:, None]
        stop = ~box.contains(x[idx].T, slack=0.5)
        small = _row_max_abs(t * step) <= STEP_TOL * (1.0 + _row_max_abs(x[idx]))
        small_resid = rnorm[idx] <= tol.newton_residual
        done = ~stop & (small | (small_resid & (_row_max_abs(step) <= 1e3 * STEP_TOL)))
        converged[idx[done]] = small_resid[done]
        active = idx[~(stop | done)]
    else:
        converged[active] = rnorm[active] <= tol.newton_residual
    return x, rnorm, converged


# Marching squares: for each sign configuration of the four cell
# corners (bit order: SW, SE, NE, NW; bit set means value >= 0) list
# the pairs of crossed edges to connect.  Edges are numbered S=0, E=1,
# N=2, W=3.  Configurations 5 and 10 are ambiguous saddles resolved by
# the cell-center sample so that each segment separates the center from
# the corners of opposite sign: their key takes the bit 16 when the
# center value is >= 0.
_SEGMENT_TABLE: dict[int, list[tuple[int, int]]] = {
    1: [(3, 0)],
    14: [(3, 0)],
    2: [(0, 1)],
    13: [(0, 1)],
    4: [(1, 2)],
    11: [(1, 2)],
    8: [(2, 3)],
    7: [(2, 3)],
    3: [(3, 1)],
    12: [(3, 1)],
    6: [(0, 2)],
    9: [(0, 2)],
    5 | 16: [(3, 0), (1, 2)],  # SW and NE positive
    5: [(3, 2), (1, 0)],
    10 | 16: [(0, 1), (2, 3)],  # SE and NW positive
    10: [(0, 3), (2, 1)],
}

# Edge keys: ("h", i, j) is the edge from node (i, j) to (i+1, j),
# ("v", i, j) the edge from (i, j) to (i, j+1).  Edge e of cell (i, j)
# is (kind, i + di, j + dj) for _CELL_EDGES[e] = (kind, di, dj).
_CELL_EDGES = (("h", 0, 0), ("v", 1, 0), ("h", 0, 1), ("v", 0, 0))


def _edge_crossings(x0, y0, x1, y1, v0, v1):
    """Linear zero crossings on the edges from (x0, y0) to (x1, y1).

    All arguments are arrays of one length; v0 and v1 are the values at
    the two ends.  t is 0.5 where v0 == v1 and v0 / (v0 - v1) elsewhere,
    clamped to [0, 1], so an end with value 0 is hit exactly.  Returns
    the arrays x0 + t (x1 - x0) and y0 + t (y1 - y0).
    """
    denom = v0 - v1
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom == 0.0, 0.5, v0 / denom)
    t = np.where(0.0 > t, 0.0, t)
    t = np.where(t > 1.0, 1.0, t)
    return x0 + t * (x1 - x0), y0 + t * (y1 - y0)


def _sharpen(lam: Poly2, x: np.ndarray, y: np.ndarray, resid_bound: float, max_iter: int):
    """Project the points (x[k], y[k]) onto lam = 0, all at once.

    Each point takes damped steps x <- x - t lam grad / |grad|^2 along
    the gradient of lam, with t halved from 1 while t > 1e-4 until
    |lam| does not grow.  A point stops when |lam| <= resid_bound, when
    its gradient vanishes (|grad|^2 <= 1e-300), when no halving helps,
    or after max_iter steps.  The arithmetic is the scalar loop's on
    arrays, so each point ends bit for bit where it would alone.
    Returns new arrays x, y and lam(x, y).
    """
    x, y = np.array(x, dtype=float), np.array(y, dtype=float)
    r = lam((x, y))
    active = np.arange(len(x))
    lam1, lam2 = lam.partial(1), lam.partial(2)
    for _ in range(max_iter):
        active = active[~(np.abs(r[active]) <= resid_bound)]
        if not active.size:
            break
        xa, ya, ra = x[active], y[active], r[active]
        gx, gy = lam1((xa, ya)), lam2((xa, ya))
        g2 = gx * gx + gy * gy
        live = ~(g2 <= 1e-300)
        active, xa, ya, ra = active[live], xa[live], ya[live], ra[live]
        gx, gy, g2 = gx[live], gy[live], g2[live]
        moved = np.zeros(len(active), dtype=bool)
        p = np.arange(len(active))  # points still halving their step
        t = 1.0
        while t > 1e-4 and p.size:
            cx = xa[p] - t * ra[p] * gx[p] / g2[p]
            cy = ya[p] - t * ra[p] * gy[p] / g2[p]
            rc = lam((cx, cy))
            ok = np.abs(rc) <= np.abs(ra[p])
            idx = active[p[ok]]
            x[idx], y[idx], r[idx] = cx[ok], cy[ok], rc[ok]
            moved[p[ok]] = True
            p = p[~ok]
            t *= 0.5
        active = active[moved]
    return x, y, r


def sample_singular_set(
    f: PlaneMapGerm,
    box: BoxDomain,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> list[CurveSample]:
    """Polyline approximations of the singular set inside the box.

    Node values exactly equal to zero are nudged to the positive side
    for sign bookkeeping, which keeps crossings on the correct edges
    without moving them (interpolation still lands on the node).
    Curves come back ordered deterministically: open chains first,
    then loops, each starting from its lexicographically smallest
    endpoint-cell index.
    """
    lam = f.discriminant_poly()
    vals = box.grid_values(lam, "discriminant")
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        # identically zero on the grid: the whole box is singular;
        # report no curves rather than fabricating one
        return []
    segments, keys, x, y = _march(lam, *box.axes(), vals)
    if not segments:
        return []
    x, y, r = _sharpen(lam, x, y, tol.newton_residual * scale, tol.newton_max_iter)
    sharpened = dict(zip(keys, zip(x.tolist(), y.tolist())))
    residuals = dict(zip(keys, np.abs(r).tolist()))
    return _link_curves(segments, sharpened, residuals)


def _march(lam: Poly2, xs: np.ndarray, ys: np.ndarray, vals: np.ndarray):
    """Marching squares over the node values vals of lam on the axes xs, ys.

    Only the cells whose corners change sign are visited, in row-major
    order; the saddle centers are sampled in one batch.  Returns
    (segments, keys, x, y): the segments as pairs of edge keys in cell
    order, the keys of all sign-changing edges, and the crossing
    (x[k], y[k]) on edge keys[k].
    """
    pos = vals >= 0.0  # zero nudged positive
    code = 1 * pos[:-1, :-1] | 2 * pos[1:, :-1] | 4 * pos[1:, 1:] | 8 * pos[:-1, 1:]
    ci, cj = np.nonzero((code != 0) & (code != 15))
    code = code[ci, cj]
    saddle = (code == 5) | (code == 10)
    si, sj = ci[saddle], cj[saddle]
    code[saddle] |= 16 * (lam(((xs[si] + xs[si + 1]) / 2.0, (ys[sj] + ys[sj + 1]) / 2.0)) >= 0.0)

    segments: list[tuple[tuple, tuple]] = []
    for i, j, c in zip(ci.tolist(), cj.tolist(), code.tolist()):
        for pair in _SEGMENT_TABLE[c]:
            (ka, ia, ja), (kb, ib, jb) = (_CELL_EDGES[e] for e in pair)
            segments.append(((ka, i + ia, j + ja), (kb, i + ib, j + jb)))

    # every sign-changing edge is crossed by a segment, and no other
    hi, hj = np.nonzero(pos[:-1, :] != pos[1:, :])
    vi, vj = np.nonzero(pos[:, :-1] != pos[:, 1:])
    keys = [("h", i, j) for i, j in zip(hi.tolist(), hj.tolist())]
    keys += [("v", i, j) for i, j in zip(vi.tolist(), vj.tolist())]
    i0, j0 = np.concatenate([hi, vi]), np.concatenate([hj, vj])
    h_edge = np.arange(len(keys)) < len(hi)
    i1, j1 = i0 + h_edge, j0 + ~h_edge
    x, y = _edge_crossings(xs[i0], ys[j0], xs[i1], ys[j1], vals[i0, j0], vals[i1, j1])
    return segments, keys, x, y


def _link_curves(segments, sharpened, residuals) -> list[CurveSample]:
    """Link segments into chains by walking edge adjacency."""
    adj: dict[tuple, list[tuple]] = {}
    for a, b in segments:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    def chain_from(start, visited_pairs):
        chain = [start]
        node = start
        while True:
            nxt = None
            for nb in adj[node]:
                pair = frozenset((node, nb)) if node != nb else (node, nb)
                if pair in visited_pairs:
                    continue
                nxt = nb
                visited_pairs.add(pair)
                break
            if nxt is None:
                return chain, False
            chain.append(nxt)
            node = nxt
            if node == start:
                chain.pop()
                return chain, True

    ordered_keys = sorted(adj, key=lambda k: (k[1], k[2], k[0]))
    visited_pairs: set = set()
    used: set = set()
    curves: list[CurveSample] = []
    # open chains start at odd-degree crossings
    for key in ordered_keys:
        if key in used or len(adj[key]) != 1:
            continue
        chain, closed = chain_from(key, visited_pairs)
        used.update(chain)
        curves.append(_build_curve(chain, closed, sharpened, residuals))
    for key in ordered_keys:
        if key in used:
            continue
        remaining = [
            nb
            for nb in adj[key]
            if frozenset((key, nb)) not in visited_pairs
        ]
        if not remaining:
            used.add(key)
            continue
        chain, closed = chain_from(key, visited_pairs)
        used.update(chain)
        curves.append(_build_curve(chain, closed, sharpened, residuals))
    return [c for c in curves if len(c.vertices) >= 2]


def _build_curve(chain, closed, sharpened, residuals) -> CurveSample:
    verts: list[tuple[float, float]] = []
    res: list[float] = []
    for key in chain:
        pt = sharpened[key]
        if verts and abs(pt[0] - verts[-1][0]) + abs(pt[1] - verts[-1][1]) < 1e-15:
            continue
        verts.append(pt)
        res.append(residuals[key])
    return CurveSample(vertices=verts, residuals=res, closed=bool(closed))


def _dedup(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out: list[tuple[float, float]] = []
    for p in sorted(points):
        if not any(_close(p, q) for q in out):
            out.append(p)
    return out


def find_special_points(
    f: PlaneMapGerm,
    box: BoxDomain,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> list[SpecialPoint]:
    """Locate and classify candidate non-fold points inside the box.

    Newton systems seed from every grid cell center, one batched sweep
    each: grad lambda = 0 (kept when the root also lies on the singular
    set) and (lambda, eta lambda) = 0.  The null field eta comes from
    either Jacobian row, first (P_v, -P_u) or second (-Q_v, Q_u), so the
    second system is swept once per row, and a root is kept only from
    the row that null_field would pick at that root (uses_first_row).  Roots of the first
    system take priority when the two families overlap, since a
    degenerate point also solves the second system.  Results are
    deduplicated and sorted by location; each survivor is classified by
    re-basing the germ.
    """
    lam = f.discriminant_poly()
    lam1, lam2 = lam.partial(1), lam.partial(2)
    lam11, lam12 = lam1.partial(1), lam1.partial(2)
    lam22 = lam2.partial(2)

    scale = float(np.max(np.abs(box.grid_values(lam, "discriminant"))))
    xs, ys = box.axes()
    lam_zero_bound = max(tol.zero_rel * scale, tol.newton_residual)
    centers = np.meshgrid((xs[:-1] + xs[1:]) / 2.0, (ys[:-1] + ys[1:]) / 2.0, indexing="ij")
    seeds = np.stack(centers, axis=-1).reshape(-1, 2)

    def roots(system, jacobian, keep):
        x, rnorm, ok = newton_batch(system, jacobian, seeds, tol, box)
        ok &= box.contains(x.T)
        ok[ok] = keep(x[ok].T)
        return {(float(a), float(b)): float(r) for (a, b), r in zip(x[ok], rnorm[ok])}

    degenerate_resid = roots(
        lambda u: (lam1(u), lam2(u)),
        lambda u: ((lam11(u), lam12(u)), (lam12(u), lam22(u))),
        keep=lambda u: np.abs(lam(u)) <= lam_zero_bound,
    )
    degenerate_roots = _dedup(list(degenerate_resid))

    (Pu, Pv), (Qu, Qv) = f.jacobian()
    cusp_resid: dict[tuple[float, float], float] = {}
    for (eta1, eta2), first_row in (((Pv, -Pu), True), ((-Qv, Qu), False)):
        eta_lam = eta1 * lam1 + eta2 * lam2
        el1, el2 = eta_lam.partial(1), eta_lam.partial(2)
        cusp_resid.update(
            roots(
                lambda u: (lam(u), eta_lam(u)),
                lambda u: ((lam1(u), lam2(u)), (el1(u), el2(u))),
                keep=lambda u: uses_first_row(f, u, tol) == first_row,
            )
        )
    cusp_roots = [
        p for p in _dedup(list(cusp_resid)) if not any(_close(p, q) for q in degenerate_roots)
    ]

    out: list[SpecialPoint] = []
    for kind, points, resid in (
        ("DegenerateCandidate", degenerate_roots, degenerate_resid),
        ("CuspCandidate", cusp_roots, cusp_resid),
    ):
        for pt in points:
            report = classify(f.rebase(pt), tol)
            best = min(r for p, r in resid.items() if _close(p, pt))
            out.append(SpecialPoint(pt, kind, best, report))
    out.sort(key=lambda sp: (sp.location[0], sp.location[1], sp.kind))
    return out


def _close(p, q) -> bool:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 <= DEDUP_RADIUS**2


def critical_value_image(f: PlaneMapGerm, curves: list[CurveSample]) -> list[CurveSample]:
    """Push traced source-plane curves through f into the target plane.

    Residuals and the closed flag carry over unchanged; they still
    describe the quality of the source-plane sample.
    """
    P, Q = f.components
    out = []
    for c in curves:
        v = np.array(c.vertices).T
        out.append(
            CurveSample(
                vertices=list(zip(P(v).tolist(), Q(v).tolist())),
                residuals=list(c.residuals),
                closed=c.closed,
            )
        )
    return out


def ruling_map(curve, t0: float = 0.0) -> PlaneMapGerm:
    """Tangent-line sweep of a parametrized polynomial plane curve.

    For gamma(t) = (a(t), b(t)) the sweep is R(t, w) = gamma(t) +
    w * gamma'(t), the map collecting all tangent lines.  Its
    discriminant is proportional to w times the curvature numerator
    a'b'' - a''b', so the sweep is singular exactly along the curve
    itself (w = 0) and degenerates further where the curve has an
    inflection.  The germ is taken at (t0, 0), which must be a regular
    curve point.
    """
    a, b = curve
    if not isinstance(a, Poly1):
        a = poly_from_spec(a)
    if not isinstance(b, Poly1):
        b = poly_from_spec(b)
    if not isinstance(a, Poly1) or not isinstance(b, Poly1):
        raise TypeError("ruling curve components must be one-variable polynomials")
    da, db = a.derivative(), b.derivative()
    speed = math.hypot(da(t0), db(t0))
    coeff_scale = max(a.max_abs_coeff(), b.max_abs_coeff(), 1.0)
    if speed <= 1e-9 * coeff_scale:
        raise NotRegularCurve(f"curve velocity vanishes at t0={t0}")

    t = Poly2.variable(1)
    w = Poly2.variable(2)

    def lift(p: Poly1) -> Poly2:
        return Poly2({(k, 0): c for k, c in p.coeffs.items()})

    comp1 = lift(a) + w * lift(da)
    comp2 = lift(b) + w * lift(db)
    return PlaneMapGerm((comp1, comp2), (float(t0), 0.0))
