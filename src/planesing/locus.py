"""Tracing singular sets and hunting distinguished points in a box.

The singular set of a polynomial plane map is the zero level set of
its discriminant.  This module walks that level set over a rectangular
domain: the discriminant is evaluated on the box's tensor grid by its
HornerStack (Poly2.eval_grid; each node value bit for bit its point
value), and a marching-squares pass classifies every cell at once as
arrays and visits only the cells whose corner signs change (linear
interpolation on cell edges, center-sample disambiguation for saddle
cells, both computed as arrays).  It numbers the sign-changing edges
once and returns each cell segment as the pair of edge numbers it
joins.  Every crossing is sharpened onto lambda = 0 by the same Newton
loop as the point searches, as a one-equation system, and the segments
are linked into polylines by a walk over plain adjacency lists.

On top of the traced curves it searches for the two kinds of points
the classification tree cares about beyond folds: critical points of
the discriminant lying on the set (lips/beaks material) and points
where the null-direction derivative of the discriminant vanishes on
the set (cusp/swallowtail material), lambda = eta1 lambda = eta2
lambda = 0 for the null fields of both Jacobian rows, so no row is
chosen.  Each system, given as its equations alone, runs from every
cell center in one damped (Gauss-)Newton loop (newton_batch) on 1-D
coordinate arrays; per step one stacked Horner pass (poly.HornerStack)
evaluates the equations and another their Jacobian, the partials each
equation keeps.  Where Gauss-Newton only halves its distance to a
singular root of the cusp system per step, it tries a doubled step.
Converged runs are sorted and reduced to distinct roots by one array
helper (_distinct), and each located point is classified by re-basing
the germ there; a point classified Immersion or Fold is not reported.
critical_value_image maps traced curves into the target plane, both
components in one HornerStack pass, so every value here, at points or
on the grid, comes from poly.HornerStack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .germs import (
    DEFAULT_TOLERANCES,
    FOLD,
    IMMERSION,
    NEWTON_MAX_ITER,
    NEWTON_RESIDUAL,
    ClassificationReport,
    PlaneMapGerm,
    ToleranceConfig,
    _poly_pair,
    classify,
)
from .poly import HornerStack, InvalidSpec, Poly1, Poly2, as_real, finite, is_number
from .poly import naming_overflow

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

#: Newton step-size floor; with NEWTON_RESIDUAL, defines convergence
STEP_TOL = 1e-12

#: Most grid cells per axis.  The node values and the Newton loop (one
#: seed per cell, one system at a time) hold arrays sized by the cell
#: count, so memory grows with the square of the grid: `trace` of the
#: beaks normal form at 512 x 512 peaks at about 150 MB RSS.
MAX_GRID = 512


class NotRegularCurve(InvalidSpec):
    """The generating curve has a vanishing velocity at the base parameter.

    Bad input like any other InvalidSpec: the ruling germ of such a
    curve point is not defined.
    """


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned search box with a node grid.

    grid counts cells per axis, so axis k carries grid[k] + 1 sample
    nodes including both endpoints.  A box that is not finite, has no
    extent, or whose grid lies outside [2, MAX_GRID] raises InvalidSpec.
    """

    lo: tuple[float, float]
    hi: tuple[float, float]
    grid: tuple[int, int] = (64, 64)

    def __post_init__(self):
        lo, hi = (self.lo[0], self.lo[1]), (self.hi[0], self.hi[1])
        grid = (self.grid[0], self.grid[1])
        if not (all(map(is_number, lo + hi)) and all(is_number(n, count=True) for n in grid)):
            raise InvalidSpec(f"box needs finite numbers and an integer grid, got {self}")
        lo, hi = tuple(map(float, lo)), tuple(map(float, hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "grid", tuple(map(int, grid)))
        if not (math.isfinite(hi[0] - lo[0]) and math.isfinite(hi[1] - lo[1])):
            raise InvalidSpec(f"box corners and extent must be finite, got lo={lo} hi={hi}")
        if not (lo[0] < hi[0] and lo[1] < hi[1]):
            raise InvalidSpec(f"box must have positive extent, got lo={lo} hi={hi}")
        if self.grid[0] < 2 or self.grid[1] < 2:
            raise InvalidSpec("grid needs at least 2 cells per axis")
        if self.grid[0] > MAX_GRID or self.grid[1] > MAX_GRID:
            raise InvalidSpec(f"grid allows at most {MAX_GRID} cells per axis, got {self.grid}")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.lo[0], self.hi[0], self.grid[0] + 1),
            np.linspace(self.lo[1], self.hi[1], self.grid[1] + 1),
        )

    def grid_values(self, p: Poly2, name: str) -> np.ndarray:
        """p at the grid nodes, shaped (grid[0] + 1, grid[1] + 1).

        Raises InvalidSpec, naming p by name, when a value overflows.
        """
        with naming_overflow(f"the {name}", "on the box grid"):
            return finite(p.eval_grid(*self.axes()))

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
    each vertex after Newton sharpening, round-off where lambda is
    regular; closed marks a loop (the first vertex is not repeated).
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
    and 'CuspCandidate' for roots of (lambda, eta1 lambda, eta2 lambda).
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


def _midpoint(a, b):
    """(a + b) / 2 without overflow: halving is exact, so away from
    subnormal halves this is that value bit for bit."""
    return a / 2.0 + b / 2.0


def _solve2(a11, a12, a21, a22, b1, b2):
    """Solve the 2x2 systems [[a11, a12], [a21, a22]] (x1, x2) = (b1, b2).

    The arguments are 1-D arrays of one length, one system per entry,
    solved by LU with partial pivoting.  Returns (x1, x2, ok); ok is
    False where x1 or x2 is not finite, which covers an exactly singular
    matrix: a zero pivot turns the division into an infinity or a NaN.
    newton_batch, which calls it, silences NumPy's warnings for these.
    """
    swap = np.abs(a21) > np.abs(a11)
    p11, p12 = np.where(swap, a21, a11), np.where(swap, a22, a12)
    p21, p22 = np.where(swap, a11, a21), np.where(swap, a12, a22)
    q1, q2 = np.where(swap, b2, b1), np.where(swap, b1, b2)
    m = p21 / p11
    u22 = p22 - m * p12
    x2 = (q2 - m * q1) / u22
    x1 = (q1 - p12 * x2) / p11
    return x1, x2, np.isfinite(x1) & np.isfinite(x2)


def _newton_step(J, f):
    """(s1, s2, ok) of _solve2 for J s = -f with two equations, J row-major.

    One equation takes the minimum-norm step s = -f g / |g|^2 along its
    gradient g; ok is False where s is not finite, as for g = 0.  Three
    equations take the Gauss-Newton step (J^T J) s = -J^T f, each entry
    summed row 0 + (row 1 + row 2): swapping the last two equations and
    negating the first keeps every bit.
    """
    if len(f) == 1:
        g1, g2 = J
        g = g1 * g1 + g2 * g2
        s1, s2 = -f[0] * g1 / g, -f[0] * g2 / g
        return s1, s2, np.isfinite(s1) & np.isfinite(s2)
    if len(f) == 2:
        return _solve2(*J, -f[0], -f[1])
    a, b = J[0::2], J[1::2]

    def dot(x, y):
        return x[0] * y[0] + (x[1] * y[1] + x[2] * y[2])

    # an overflowing product gives a non-finite step, which _solve2 rejects
    aa, ab, bb, af, bf = dot(a, a), dot(a, b), dot(b, b), dot(a, f), dot(b, f)
    return _solve2(aa, ab, ab, bb, -af, -bf)


# a step, a trial value or a residual that overflows is a run that fails,
# by the stopping rules, not an error
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def newton_batch(
    equations,
    seeds,
    box: BoxDomain,
    absorb=(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped (Gauss-)Newton iteration of one system from many seeds.

    A system is its equations: one, two or three Poly2s, whose
    Jacobian rows are their kept partials (p.partial(1), p.partial(2)),
    so a mixed partial two rows share is one table.  One equation takes
    the minimum-norm step onto its zero set, two the Newton step, three
    the Gauss-Newton step.  All runs share one loop on 1-D coordinate
    arrays, and per step one HornerStack call evaluates the values, one
    the Jacobian.  Each run iterates on its own: a step that raises the
    residual norm max |F_i| is halved up to eight times, and with three
    equations first tried doubled where it halves the last full step.
    Every system stops by one rule: when no step length helps or the
    step is not finite, on a step of at most STEP_TOL (1 + max |x_i|), on
    a full step of at most 1e3 STEP_TOL with the residual within
    NEWTON_RESIDUAL, or after NEWTON_MAX_ITER steps.  A run is stopped
    short when it leaves the box by slack 0.5, comes within DEDUP_RADIUS
    of a point in absorb, or, with three equations, when a step lowers a
    residual above NEWTON_RESIDUAL by less than 10%, as on the way to a
    singular root.  It is converged when not stopped short with its
    residual within NEWTON_RESIDUAL.  Runs never interact, so each
    result is the one the run gets alone.  InvalidSpec if a Jacobian
    entry overflows.
    Returns (x, residual_norm, converged), shaped (n, 2), (n,) and (n,).
    """
    seeds = np.asarray(seeds, dtype=float).reshape(-1, 2)
    values = HornerStack([p.table for p in equations])
    with naming_overflow("the Newton Jacobian", f"on the box {box.lo} to {box.hi}"):
        jacobian = HornerStack([p.partial(axis).table for p in equations for axis in (1, 2)])
    u1, u2 = seeds[:, 0].copy(), seeds[:, 1].copy()
    f = values(u1, u2)
    rnorm = np.abs(f).max(axis=0)
    stopped = np.zeros(len(seeds), dtype=bool)
    active = np.arange(len(seeds))
    last = np.full((2, len(seeds)), np.nan)
    for _ in range(NEWTON_MAX_ITER):
        if not active.size:
            break
        a1, a2, ra = u1[active], u2[active], rnorm[active]
        s1, s2, solved = _newton_step(jacobian(a1, a2), f[:, active])
        # line search over the runs whose step length is still open
        t = np.zeros(len(active))
        pending = np.flatnonzero(solved)
        start = np.ones(len(active))
        if len(equations) == 3:
            # a step along the last full step (cosine >= 0.99) at half its
            # length (ratio 0.4 to 0.6) creeps toward a singular root:
            # the line search tries twice the step first
            l1, l2 = last
            sn, ln, dot = s1 * s1 + s2 * s2, l1 * l1 + l2 * l2, s1 * l1 + s2 * l2
            aligned = (dot >= 0.0) & (dot * dot >= 0.9801 * sn * ln)
            start[aligned & (0.16 * ln <= sn) & (sn <= 0.36 * ln)] = 2.0
        length = 1.0
        for _ in range(8):
            if not pending.size:
                break
            trial = length * start[pending]
            c1 = a1[pending] + trial * s1[pending]
            c2 = a2[pending] + trial * s2[pending]
            g = values(c1, c2)
            cnorm = np.abs(g).max(axis=0)
            rp = ra[pending]
            ok = (cnorm <= rp) | (rp == 0.0)
            index = active[pending[ok]]
            u1[index], u2[index], rnorm[index] = c1[ok], c2[ok], cnorm[ok]
            f[:, index] = g[:, ok]
            t[pending[ok]] = trial[ok]
            pending = pending[~ok]
            length *= 0.5
        # a run without an accepted step is at a local minimum of |F|,
        # perhaps at round-off, or met a singular Jacobian
        moved = t > 0.0
        index, s1, s2, t, ra = active[moved], s1[moved], s2[moved], t[moved], ra[moved]
        x1, x2 = u1[index], u2[index]
        stop = ~box.contains((x1, x2), slack=0.5)
        small = np.maximum(np.abs(t * s1), np.abs(t * s2)) <= STEP_TOL * (
            1.0 + np.maximum(np.abs(x1), np.abs(x2))
        )
        for p1, p2 in absorb:
            stop |= (x1 - p1) ** 2 + (x2 - p2) ** 2 <= DEDUP_RADIUS**2
        small_resid = rnorm[index] <= NEWTON_RESIDUAL
        if len(equations) == 3:
            stop |= ~small_resid & (rnorm[index] > 0.9 * ra)
        small_step = np.maximum(np.abs(s1), np.abs(s2)) <= 1e3 * STEP_TOL
        stopped[index[stop]] = True
        live = ~(stop | small | (small_resid & small_step))
        active = index[live]
        if len(equations) == 3:
            # each live run's last full step, NaN after any other step
            full = t[live] == 1.0
            last = np.where(full, s1[live], np.nan), np.where(full, s2[live], np.nan)
    converged = ~stopped & (rnorm <= NEWTON_RESIDUAL)
    return np.stack([u1, u2], axis=-1), rnorm, converged


# Marching squares: for each sign configuration of the four cell
# corners (bit order: SW, SE, NE, NW; bit set means value >= 0) list
# the crossed edges to connect, two per segment.  Edges are numbered
# S=0, E=1, N=2, W=3.  Configurations 5 and 10 are ambiguous saddles
# resolved by the cell-center sample so that each segment separates the
# center from the corners of opposite sign: their key takes the bit 16
# when the center value is >= 0.
_SEGMENT_TABLE: dict[int, tuple[int, ...]] = {
    1: (3, 0), 14: (3, 0), 2: (0, 1), 13: (0, 1),
    4: (1, 2), 11: (1, 2), 8: (2, 3), 7: (2, 3),
    3: (3, 1), 12: (3, 1), 6: (0, 2), 9: (0, 2),
    5 | 16: (3, 0, 1, 2),  # SW and NE positive
    5: (3, 2, 1, 0),
    10 | 16: (0, 1, 2, 3),  # SE and NW positive
    10: (0, 3, 2, 1),
}
# the table as one zero-padded row per key, for lookup by array
_SEGMENT_ROWS = np.zeros((32, 4), dtype=np.intp)
for _key, _row in _SEGMENT_TABLE.items():
    _SEGMENT_ROWS[_key, : len(_row)] = _row
del _key, _row


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


def _discriminant_on_grid(f: PlaneMapGerm, box: BoxDomain):
    """(lambda, its node values on the box grid)."""
    with naming_overflow("the discriminant", f"on the box {box.lo} to {box.hi}"):
        lam = f.discriminant_poly()
    return lam, box.grid_values(lam, "discriminant")


def sample_singular_set(f: PlaneMapGerm, box: BoxDomain) -> list[CurveSample]:
    """Polyline approximations of the singular set inside the box.

    This is _zero_set, the march-and-sharpen pass the conservation-law
    frames share, applied to the germ's discriminant lambda and its node
    values on the box grid.  Node values exactly equal to zero are
    nudged to the positive side for sign bookkeeping, which keeps
    crossings on the correct edges without moving them (interpolation
    still lands on the node).  Each crossing then moves onto lambda = 0
    by minimum-norm newton_batch steps until the step is below STEP_TOL
    or no step lowers |lambda|, to working precision.  Curves come
    back ordered deterministically, with grid edges ordered by their
    first node (i, j), the edge along u1 first: open chains first, each
    from its smaller end edge, then loops, each from its smallest edge
    toward the neighbour whose cell comes first row-major.
    """
    return _zero_set(*_discriminant_on_grid(f, box), box)


def _zero_set(lam: Poly2, vals: np.ndarray, box: BoxDomain) -> list[CurveSample]:
    """The curves of lam = 0 in the box, as sample_singular_set describes,
    marched over vals, the node values of lam on the box grid; no grid
    scale enters the sharpening.  A vertex closer than min(1e-15, 1e-9
    times the smallest cell width) to the one before it, in L1 distance,
    is dropped, so a tiny box keeps its curves.  Where lam is zero at
    every node the whole box is singular, and no curve is reported."""
    segments, x, y = _march(lam, *box.axes(), vals)
    if not len(segments):
        return []
    u, r, _ = newton_batch((lam,), np.stack([x, y], axis=1), box)
    x, y, r = u[:, 0].tolist(), u[:, 1].tolist(), r.tolist()
    chains = _link_curves(segments, len(x))
    cell = min((box.hi[k] - box.lo[k]) / box.grid[k] for k in (0, 1))
    gap = min(1e-15, 1e-9 * cell)
    curves = [_build_curve(chain, closed, x, y, r, gap) for chain, closed in chains]
    return [c for c in curves if len(c.vertices) >= 2]


def _march(lam: Poly2, xs: np.ndarray, ys: np.ndarray, vals: np.ndarray):
    """Marching squares over the node values vals of lam on the axes xs, ys.

    Only the cells whose corners change sign are visited, in row-major
    order; the saddle centers are sampled in one batch.  Returns
    (segments, x, y): the (m, 2) edge numbers each segment joins, in
    cell order, and the crossing (x[k], y[k]) on edge k, numbering the
    sign-changing edges by their first node (i, j), along u1 first.
    """
    pos = vals >= 0.0  # zero nudged positive
    code = 1 * pos[:-1, :-1] | 2 * pos[1:, :-1] | 4 * pos[1:, 1:] | 8 * pos[:-1, 1:]
    ci, cj = np.nonzero((code != 0) & (code != 15))
    if not ci.size:
        return np.zeros((0, 2), dtype=np.intp), np.zeros(0), np.zeros(0)
    code = code[ci, cj]
    saddle = (code == 5) | (code == 10)
    si, sj = ci[saddle], cj[saddle]
    code[saddle] |= 16 * (lam((_midpoint(xs[si], xs[si + 1]), _midpoint(ys[sj], ys[sj + 1]))) >= 0.0)

    # every sign-changing edge is crossed by a segment, and no other.
    # The edge from node (i, j) along u1 has the key 2 (i w + j), the one
    # along u2 the key 2 (i w + j) + 1; an edge's number is its key's rank.
    w = vals.shape[1]
    along_u1 = np.flatnonzero(pos[:-1, :] != pos[1:, :])
    vi, vj = np.nonzero(pos[:, :-1] != pos[:, 1:])
    key = np.sort(np.concatenate([2 * along_u1, 2 * (vi * w + vj) + 1]))
    # the keys of edges S, E, N, W of each visited cell, as edge numbers
    node = 2 * (ci * w + cj)
    sides = np.searchsorted(key, np.stack([node, node + 2 * w + 1, node + 2, node + 1], axis=1))
    ends = np.take_along_axis(sides, _SEGMENT_ROWS[code], axis=1).reshape(-1, 2)
    segments = ends[np.stack([np.ones_like(saddle), saddle], axis=1).ravel()]

    (i0, j0), along_u2 = np.divmod(key // 2, w), key % 2
    i1, j1 = i0 + 1 - along_u2, j0 + along_u2
    x, y = _edge_crossings(xs[i0], ys[j0], xs[i1], ys[j1], vals[i0, j0], vals[i1, j1])
    return segments, x, y


def _link_curves(segments: np.ndarray, n: int) -> list[tuple[list[int], bool]]:
    """Link the segments between edges 0..n-1 into chains (edges, closed).

    Each edge lies on one or two segments, and no two join the same two
    edges, so they form paths and cycles: paths first, each from its
    smaller end, then cycles, each from its smallest edge toward the
    neighbour whose segment comes first.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in segments.tolist():
        adj[a].append(b)
        adj[b].append(a)
    used = [False] * n
    chains = []
    for start in [k for k in range(n) if len(adj[k]) == 1] + list(range(n)):
        if used[start]:
            continue
        chain, prev, node = [start], start, adj[start][0]
        while node != start:
            chain.append(node)
            if len(adj[node]) == 1:
                break
            a, b = adj[node]
            prev, node = node, b if a == prev else a
        for k in chain:
            used[k] = True
        chains.append((chain, node == start))
    return chains


def _build_curve(chain, closed, x, y, r, gap) -> CurveSample:
    """The curve through the crossings (x[k], y[k]) with residuals r[k], k
    in chain, less each one within L1 distance gap of the vertex before it."""
    verts: list[tuple[float, float]] = []
    res: list[float] = []
    for k in chain:
        pt = (x[k], y[k])
        if verts and abs(pt[0] - verts[-1][0]) + abs(pt[1] - verts[-1][1]) < gap:
            continue
        verts.append(pt)
        res.append(r[k])
    return CurveSample(vertices=verts, residuals=res, closed=closed)


def _distinct(points) -> np.ndarray:
    """Indices of the points, in the order given, that are kept as distinct.

    A point is kept unless it lies within DEDUP_RADIUS of a point kept
    before it.  Each kept point takes one array pass, which drops the
    points within DEDUP_RADIUS of it.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    kept = []
    rest = np.arange(len(points))
    while rest.size:
        kept.append(rest[0])
        d = points[rest] - points[rest[0]]
        rest = rest[d[:, 0] ** 2 + d[:, 1] ** 2 > DEDUP_RADIUS**2]
    return np.array(kept, dtype=np.intp)


def _special_point_systems(f: PlaneMapGerm) -> tuple:
    """The equations of the two Newton systems of find_special_points.

    grad lambda = 0, then the row-free cusp system (lambda, eta1 lambda,
    eta2 lambda) = 0 with eta1 = (P_v, -P_u) and eta2 = (-Q_v, Q_u).
    """
    lam = f.discriminant_poly()
    lam1, lam2 = lam.partial(1), lam.partial(2)
    (Pu, Pv), (Qu, Qv) = f.jacobian()
    eta_lams = [e1 * lam1 + e2 * lam2 for e1, e2 in ((Pv, -Pu), (-Qv, Qu))]
    return (lam1, lam2), (lam, *eta_lams)


def find_special_points(
    f: PlaneMapGerm,
    box: BoxDomain,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> list[SpecialPoint]:
    """Locate and classify candidate non-fold points inside the box.

    Both systems of _special_point_systems run from every grid cell
    center, one newton_batch call each.  A root of grad lambda = 0 is
    kept when it also lies on the singular set.  On the set, the two
    Jacobian rows give parallel null fields, so a point where one row
    vanishes solves the cusp system only if the other row's eta lambda
    vanishes too.  Cusp runs stop once they reach a degenerate point,
    since a degenerate point also solves the second system.  The
    distinct roots of each system, sorted by location, are reduced by
    one _distinct pass over the degenerate roots followed by the cusp
    roots, so a degenerate root wins where the two families overlap.
    Each survivor keeps the residual max |F_i| of the run that ends at
    its location and is classified by re-basing the germ, and one that
    classify calls Immersion or Fold is dropped; the rest come back
    sorted by location.
    A box where lambda is zero at every node reports no point.
    """
    lam, vals = _discriminant_on_grid(f, box)
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return []
    xs, ys = box.axes()
    lam_zero_bound = max(tol.zero_rel * scale, NEWTON_RESIDUAL)
    centers = np.meshgrid(_midpoint(xs[:-1], xs[1:]), _midpoint(ys[:-1], ys[1:]), indexing="ij")
    seeds = np.stack(centers, axis=-1).reshape(-1, 2)
    with naming_overflow("eta lambda", f"on the box {box.lo} to {box.hi}"):
        gradient_system, cusp_system = _special_point_systems(f)

    def roots(system, keep=lambda u: True, absorb=()):
        # the distinct converged roots in the box, sorted by location
        x, rnorm, ok = newton_batch(system, seeds, box, absorb=absorb)
        ok &= box.contains(x.T)
        ok[ok] = keep(x[ok].T)
        x, rnorm = x[ok], rnorm[ok]
        order = np.lexsort((x[:, 1], x[:, 0]))
        kept = order[_distinct(x[order])]
        return x[kept], rnorm[kept]

    degenerate, degenerate_resid = roots(gradient_system,
                                         lambda u: np.abs(lam(u)) <= lam_zero_bound)
    cusp, cusp_resid = roots(cusp_system, absorb=degenerate)
    # a degenerate point also solves the cusp system; it is reported once
    x = np.concatenate([degenerate, cusp])
    rnorm = np.concatenate([degenerate_resid, cusp_resid])
    out: list[SpecialPoint] = []
    for k in _distinct(x).tolist():
        (a, b), r = x[k].tolist(), rnorm[k].item()
        report = classify(f.rebase((a, b)), tol)
        if report.singularity_class not in (IMMERSION, FOLD):
            kind = "DegenerateCandidate" if k < len(degenerate) else "CuspCandidate"
            out.append(SpecialPoint((a, b), kind, r, report))
    out.sort(key=lambda sp: (sp.location[0], sp.location[1], sp.kind))
    return out


def critical_value_image(f: PlaneMapGerm, curves: list[CurveSample]) -> list[CurveSample]:
    """Push traced source-plane curves through f into the target plane.

    One HornerStack of both components gives P and Q at each curve's
    vertices in one pass.  Residuals and the closed flag carry over
    unchanged; they still describe the quality of the source-plane
    sample.  InvalidSpec if a critical value overflows.
    """
    stack = HornerStack([p.table for p in f.components])
    out = []
    with naming_overflow("the critical value image", "on the traced singular set"):
        for c in curves:
            x1, x2 = finite(stack(*np.array(c.vertices).T))
            out.append(
                CurveSample(
                    vertices=list(zip(x1.tolist(), x2.tolist())),
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
    inflection.  curve is a pair of Poly1s; anything else raises
    InvalidSpec.  The germ is taken at (t0, 0), which must be a regular
    curve point (else NotRegularCurve); a velocity that overflows there
    raises InvalidSpec.
    """
    a, b = _poly_pair(curve, "a ruling curve", Poly1)
    t0 = as_real(t0, "t0")
    with naming_overflow("the curve velocity", "in its coefficients"):
        da, db = a.derivative(), b.derivative()
    with naming_overflow("the curve velocity", f"at t0={t0}"):
        velocity = HornerStack([da.poly2.table, db.poly2.table])(np.array([t0]), np.zeros(1))
        speed = finite(math.hypot(*velocity[:, 0]))
    coeff_scale = max(a.max_abs_coeff(), b.max_abs_coeff(), 1.0)
    if speed <= 1e-9 * coeff_scale:
        raise NotRegularCurve(f"curve velocity vanishes at t0={t0}")

    w = Poly2.variable(2)
    comp1 = a.poly2 + w * da.poly2
    comp2 = b.poly2 + w * db.poly2
    return PlaneMapGerm((comp1, comp2), (t0, 0.0))
