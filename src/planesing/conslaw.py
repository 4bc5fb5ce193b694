"""First singularities of characteristic surfaces of a planar scalar
conservation law.

For a conservation law with flux (f1(y), f2(y)) and initial profile
phi(u1, u2), characteristics emanating from (u1, u2) move with the
constant velocity (f1'(phi), f2'(phi)); freezing a time t gives the
plane-to-plane map

    g_t(u) = (u1 + t f1'(phi(u)), u2 + t f2'(phi(u))).

Writing C(u) for the Jacobian of the characteristic velocity field --
the rank-one matrix with entries c_ij = f_i''(phi(u)) phi_uj(u) -- the
discriminant of g_t collapses to

    lambda_{g_t}(u) = det(I + t C(u)) = 1 + t trace C(u)

exactly, because det C vanishes identically, with trace C the
divergence of the velocity polynomials.  So the singular set of g_t is
the level set trace C = -1/t of one polynomial: the problem evaluates
the trace on a box grid once (ConsLawProblem.trace_grid), and the
search and every frame read those node values.  A point u first goes
singular at t(u) = -1 / trace C(u) (only where the trace is negative),
so the earliest singularity in a region minimizes t(u), i.e.
extremizes the trace.  The gradient and Hessian determinant of 1/t drive both the
search and the generic-versus-degenerate verdict.  Both come from the
partials trace_poly keeps: the search's Newton run drives the gradient
tables to zero with the Hessian tables as its Jacobian, and the verdict
reads the same tables at the point it stopped.  Jet arithmetic on the
flux and profile gives them independently (xi_autodiff).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .germs import (
    DEFAULT_TOLERANCES,
    ClassificationReport,
    PlaneMapGerm,
    ToleranceConfig,
    classify,
)
from .jets import compose_univariate, poly_to_jet
from .locus import BoxDomain, _distinct, _zero_set, newton_batch
from .poly import HornerStack, InvalidSpec, Poly1, Poly2, as_point, as_real, finite
from .poly import naming_overflow, poly_from_spec, poly_to_spec

__all__ = [
    "ConsLawProblem",
    "ShapeOperator",
    "FirstSingularity",
    "Frame",
    "SolverFailed",
    "characteristic_map",
    "shape_operator",
    "singular_time_field",
    "xi_closed_form",
    "xi_autodiff",
    "first_singularity",
    "singularity_at",
    "lips_birth_frames",
    "builtin_problem",
    "BUILTIN_PROBLEMS",
]

#: relative tie window for competing minimizers of the singular time
TIME_TIE_REL = 1e-9

#: Largest degree of a characteristic velocity f_i'(phi), bounded by
#: deg f_i' * deg phi.  The characteristic map's discriminant 1 + t
#: trace C has one degree less, and every frame traces it on the grid;
#: the problems in use stay at degree 16.
MAX_VELOCITY_DEGREE = 64

#: Most frame times in one call.  The frames share one trace grid, and
#: each marches and sharpens its own level set: about 0.025 s a frame at
#: velocity degree 64 on the 512 x 512 grid cap (2 vCPUs).
MAX_FRAMES = 100


class SolverFailed(RuntimeError):
    """The box search could not certify an interior first singularity.

    best_point / best_time record the most singular grid node seen, so
    a caller can restart with a shifted box or finer grid.
    """

    def __init__(self, message: str, best_point=None, best_time=None):
        super().__init__(message)
        self.best_point = best_point
        self.best_time = best_time


@dataclass(eq=False)
class ConsLawProblem:
    """Flux pair and initial profile, all polynomial.

    f1, f2 are one-variable polynomials (the flux components as
    functions of the conserved quantity); phi is the two-variable
    initial profile.
    """

    f1: Poly1
    f2: Poly1
    phi: Poly2

    def __post_init__(self):
        if not isinstance(self.f1, Poly1) or not isinstance(self.f2, Poly1):
            raise InvalidSpec("flux components must be one-variable polynomials")
        if not isinstance(self.phi, Poly2):
            raise InvalidSpec("initial profile must be a two-variable polynomial")
        with naming_overflow("the flux derivative", "in its coefficients"):
            degree = max(self.f1.derivative().degree(), self.f2.derivative().degree())
        degree *= self.phi.degree()
        if degree > MAX_VELOCITY_DEGREE:
            raise InvalidSpec(
                f"velocity degree deg f' * deg phi = {degree} exceeds the cap {MAX_VELOCITY_DEGREE}"
            )

    @classmethod
    def from_dict(cls, data: Mapping) -> "ConsLawProblem":
        if not isinstance(data, Mapping):
            raise InvalidSpec(f"problem must be a JSON object, got {type(data).__name__}")
        try:
            f1 = poly_from_spec(data["f1"])
            f2 = poly_from_spec(data["f2"])
            phi = poly_from_spec(data["phi"])
        except KeyError as exc:
            raise InvalidSpec(f"problem needs keys f1, f2, phi; missing {exc}") from exc
        return cls(f1, f2, phi)

    def to_dict(self) -> dict:
        return {
            "f1": poly_to_spec(self.f1),
            "f2": poly_to_spec(self.f2),
            "phi": poly_to_spec(self.phi),
        }

    @cached_property
    def velocity_polys(self) -> tuple[Poly2, Poly2]:
        """The characteristic velocity (f1'(phi), f2'(phi)) as exact polynomials."""
        with naming_overflow("the characteristic velocity", "in its coefficients"):
            return tuple(f.derivative().compose2(self.phi) for f in (self.f1, self.f2))

    @cached_property
    def trace_poly(self) -> Poly2:
        """trace C as an exact polynomial: the divergence of velocity_polys,
        which equals f1''(phi) phi_1 + f2''(phi) phi_2."""
        v1, v2 = self.velocity_polys
        with naming_overflow("trace C", "in its coefficients"):
            return v1.partial(1) + v2.partial(2)

    def trace_grid(self, box: BoxDomain) -> np.ndarray:
        """trace C at the grid nodes of box, read-only: evaluated on the
        first call for a box and kept, as trace_poly is, so the search and
        the frames of one run share one grid."""
        grids = self.__dict__.setdefault("_trace_grids", {})
        if box not in grids:
            grids[box] = box.grid_values(self.trace_poly, "characteristic trace")
            grids[box].setflags(write=False)
        return grids[box]


@dataclass(frozen=True)
class ShapeOperator:
    """Jacobian of the characteristic velocity field at one point.

    entries is the 2x2 matrix c_ij = f_i''(phi(u)) phi_uj(u); its
    determinant vanishes identically (the rows are proportional), so
    the eigenvalues are 0 and trace.
    """

    entries: tuple[tuple[float, float], tuple[float, float]]
    trace: float


def characteristic_map(prob: ConsLawProblem, t: float, base=(0.0, 0.0)) -> PlaneMapGerm:
    """The time-t characteristic map u + t (f1'(phi), f2'(phi)) as a
    polynomial germ at ``base``.

    Its discriminant equals 1 + t trace C, since the velocity Jacobian C
    has rank one; the frames trace that closed form, and the germ
    derives its own as P_u1 Q_u2 - P_u2 Q_u1 where it is asked for.
    """
    t = as_real(t, "t")
    u1, u2 = Poly2.variable(1), Poly2.variable(2)
    v1, v2 = prob.velocity_polys
    return PlaneMapGerm((u1 + t * v1, u2 + t * v2), base)


def shape_operator(prob: ConsLawProblem, u) -> ShapeOperator:
    """The velocity Jacobian C at u, as library API; the package reads trace C from trace_poly."""
    u = as_point(u, "u")
    y = prob.phi(u)
    a2, b2 = prob.f1.derivative(2)(y), prob.f2.derivative(2)(y)
    p1, p2 = prob.phi.partial(1)(u), prob.phi.partial(2)(u)
    entries = ((a2 * p1, a2 * p2), (b2 * p1, b2 * p2))
    return ShapeOperator(entries=entries, trace=entries[0][0] + entries[1][1])


def singular_time_field(
    prob: ConsLawProblem, u, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> float | None:
    """Time at which the characteristic map first degenerates over u.

    1 + t trace C(u) = 0 has a positive solution only for negative
    trace C, read from trace_poly and judged zero against its table with
    absolute coefficients at |u|; None means no finite positive singular
    time here.  InvalidSpec if that bound or the singular time overflows.
    """
    u = as_point(u, "u")
    table = prob.trace_poly.table
    with naming_overflow("trace C with absolute coefficients", f"at {u}"):
        at = np.array([u, np.abs(u)]).T
        (tau, _), (_, bound) = finite(HornerStack([table, np.abs(table)])(*at)).tolist()
    if tau >= -tol.zero_rel * max(bound, 1e-300):
        return None
    return _singular_time(tau, f"at {u}")


def _singular_time(trace, where: str):
    """The singular times -1 / trace of negative trace C values, a float
    or an array, under the one overflow rule: a trace so near zero that
    its time overflows is one InvalidSpec that names the singular time
    and where."""
    with naming_overflow("the singular time -1 / trace C", where):
        return finite(-1.0 / trace)


def _trace_partials(prob: ConsLawProblem, u) -> list[float]:
    """(tau, tau_1, tau_2, tau_11, tau_12, tau_22) at u: trace C, its
    gradient, which first_singularity's Newton run drives to zero, and
    its Hessian, that run's Jacobian, read in one HornerStack pass from
    the partials trace_poly keeps."""
    orders = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    tables = [prob.trace_poly.derivative(order).table for order in orders]
    return HornerStack(tables)(np.array([float(u[0])]), np.array([float(u[1])]))[:, 0].tolist()


def xi_closed_form(prob: ConsLawProblem, u) -> tuple[float, float, float]:
    """Gradient and Hessian determinant of the reciprocal singular time.

    Returns (xi1, xi2, xi3) where xi1, xi2 are the partials of 1/t(u)
    and xi3 = det Hess(1/t).  Since 1/t = -trace C, the gradient is the
    negated gradient of the trace while the Hessian determinant is
    unaffected by the sign (two dimensions).  Both are read off the
    partials trace_poly keeps, so at a first shock xi1 and xi2 are the
    values the Newton search drove to zero.  No composition machinery
    is involved; the independent jet route is xi_autodiff.
    """
    _, t1, t2, t11, t12, t22 = _trace_partials(prob, u)
    return (-t1, -t2, t11 * t22 - t12 * t12)


def xi_autodiff(prob: ConsLawProblem, u) -> tuple[float, float, float]:
    """Same three quantities via order-3 jet arithmetic.

    Builds the jet of trace C at u by composing flux-derivative jets
    with the profile jet, then reads the gradient and Hessian off the
    coefficients.  Serves as an independent oracle for the closed form.
    """
    phi4 = poly_to_jet(prob.phi, u, 4)
    phi3, y0 = phi4.truncate(3), phi4.value
    a = compose_univariate(poly_to_jet(prob.f1.derivative(2), y0, 3), phi3)
    b = compose_univariate(poly_to_jet(prob.f2.derivative(2), y0, 3), phi3)
    tau = a * phi4.partial(1) + b * phi4.partial(2)
    t1, t2, t11, t12, t22 = (tau.deriv(*k) for k in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
    return (-t1, -t2, t11 * t22 - t12 * t12)


@dataclass
class FirstSingularity:
    """Outcome of locating and classifying an earliest singular point.

    xi holds (xi1, xi2, xi3) at the point; xi1 and xi2 vanish there by
    construction.  xi3_degenerate is set when xi3 is not solidly
    nonzero, warning that the generic verdict is not certified.
    co_minimizers lists other located points whose singular times tie
    with t_star within relative TIME_TIE_REL; the reported point is the
    lexicographically smallest of the tie.
    """

    u_star: tuple[float, float]
    t_star: float
    trace: float
    xi: tuple[float, float, float]
    xi3_degenerate: bool
    report: ClassificationReport
    co_minimizers: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "u_star": list(self.u_star),
            "t_star": self.t_star,
            "trace": self.trace,
            "xi": list(self.xi),
            "xi3_degenerate": self.xi3_degenerate,
            "co_minimizers": [list(p) for p in self.co_minimizers],
            "report": self.report.to_dict(),
        }


@dataclass
class Frame:
    """Singular set of the characteristic map at one frozen time."""

    time: float
    curves: list


def first_singularity(
    prob: ConsLawProblem,
    box: BoxDomain,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> FirstSingularity | None:
    """Earliest positive singular time of the characteristic family in a box.

    Scans the singular-time field on the grid, polishes the most
    promising nodes with Newton on the trace gradient, and keeps the
    interior critical point with the smallest time.  Returns None when
    the trace is nowhere negative on the grid (no characteristic
    crossing in the box).  Raises SolverFailed when no critical point
    converges, or when the grid minimum beats every converged critical
    point -- that means the true minimizer sits on the box boundary or
    was missed, and reporting it as a first singularity would be wrong.
    InvalidSpec when a singular time it forms overflows.
    """
    tau = prob.trace_poly
    xs, ys = box.axes()
    tg = prob.trace_grid(box)
    neg = tg < 0.0
    if not bool(np.any(neg)):
        return None

    on_box = f"on the box {box.lo} to {box.hi}"
    idx_min = np.unravel_index(int(np.argmin(tg)), tg.shape)
    grid_best_point = (float(xs[idx_min[0]]), float(ys[idx_min[1]]))
    t_grid_min = float(_singular_time(tg[idx_min], on_box))

    # Seeds: the most negative trace nodes, then every interior local
    # minimum of the trace over the negative region in row-major order.
    # The order decides which of two roots closer than 1e-6 is kept.
    flat_order = np.argsort(tg, axis=None)
    top = np.array(np.unravel_index(flat_order[:16], tg.shape)).T
    local = np.argwhere(neg[1:-1, 1:-1] & (tg[1:-1, 1:-1] <= _window_min(tg))) + 1
    idx = np.concatenate([top[neg[top[:, 0], top[:, 1]]], local])
    seeds = np.stack([xs[idx[:, 0]], ys[idx[:, 1]]], axis=1)

    x, _, ok = newton_batch((tau.partial(1), tau.partial(2)), seeds, box)
    x = x[ok & box.contains(x.T)]
    tv = tau(x.T)
    x, tv = x[tv < 0.0], tv[tv < 0.0]
    kept = _distinct(x)
    times = _singular_time(tv[kept], on_box).tolist()
    roots = [(t, (a, b)) for t, (a, b) in zip(times, x[kept].tolist())]

    if not roots:
        raise SolverFailed(
            "no interior critical point of the singular-time field converged",
            best_point=grid_best_point,
            best_time=t_grid_min,
        )

    roots.sort(key=lambda r: (r[0], r[1][0], r[1][1]))
    t_star = roots[0][0]
    if t_star > t_grid_min + TIME_TIE_REL * (1.0 + abs(t_grid_min)):
        raise SolverFailed(
            "the singular-time minimum over the box is not an interior critical "
            "point (earliest grid time beats every converged critical point)",
            best_point=grid_best_point,
            best_time=t_grid_min,
        )

    ties = [r for r in roots if r[0] <= t_star + TIME_TIE_REL * (1.0 + abs(t_star))]
    point = ties[0][1]
    co_minimizers = [r[1] for r in ties[1:]]

    return _analyze_point(prob, point, t_star, tol, co_minimizers)


def _window_min(a: np.ndarray) -> np.ndarray:
    """Minimum of each 3 x 3 window of a, for the interior nodes."""
    m, n = a.shape
    out = a[1:-1, 1:-1].copy()
    for i in range(3):
        for j in range(3):
            np.minimum(out, a[i : m - 2 + i, j : n - 2 + j], out=out)
    return out


def _analyze_point(prob, point, t, tol, co_minimizers) -> FirstSingularity:
    with naming_overflow("the singular-time field", f"at {point}"):
        tau_val, t1, t2, h11, h12, h22 = _trace_partials(prob, point)
        xi = (-t1, -t2, h11 * h22 - h12 * h12)
        hess_scale = max(abs(h11), abs(h12), abs(h22))
        finite([*xi, tau_val, h11, h12, h22, hess_scale * hess_scale])
    xi3_solid = abs(xi[2]) >= 10.0 * tol.zero_rel * max(hess_scale**2, 1e-300)
    germ = characteristic_map(prob, t, point)
    report = classify(germ, tol)
    return FirstSingularity(
        u_star=(float(point[0]), float(point[1])),
        t_star=float(t),
        trace=float(tau_val),
        xi=tuple(float(x) for x in xi),
        xi3_degenerate=not xi3_solid,
        report=report,
        co_minimizers=co_minimizers,
    )


def singularity_at(
    prob: ConsLawProblem,
    u,
    t: float | None = None,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> FirstSingularity:
    """Classify the characteristic map at a chosen point and time.

    With t omitted, the point's own singular time is used; a point
    whose trace is non-negative then has no singular time and raises
    ValueError; a u that is not two reals, or a t that is not a real,
    raises InvalidSpec.  No search or minimality claim is involved, so
    the returned record never lists co-minimizers.
    """
    u = as_point(u, "u")
    if t is None:
        t = singular_time_field(prob, u, tol)
        if t is None:
            raise ValueError(
                f"characteristic trace is non-negative at {u}; no positive singular time"
            )
    return _analyze_point(prob, u, as_real(t, "t"), tol, [])


def frame_times(times) -> list[float]:
    """times as a list of floats; InvalidSpec if one is not a real or
    there are more than MAX_FRAMES."""
    times = [as_real(t, "frame time") for t in times]
    if len(times) > MAX_FRAMES:
        raise InvalidSpec(f"{len(times)} frame times exceed the cap {MAX_FRAMES}")
    return times


def lips_birth_frames(prob: ConsLawProblem, t_star: float, times, box: BoxDomain) -> list[Frame]:
    """Singular sets of the frozen-time maps before and after t_star.

    times must straddle t_star (at least one strictly below and one
    strictly above) and number at most MAX_FRAMES, else InvalidSpec,
    since the point of the exercise is watching the singular curve be
    born.  The singular set at time t is the zero set of 1 + t trace C,
    the level set trace C = -1/t, so every frame reads the trace grid
    the problem keeps for the box (ConsLawProblem.trace_grid), marches
    the node values 1 + t trace and sharpens onto 1 + t trace C = 0 as
    sample_singular_set does; InvalidSpec if that overflows.  Tracing
    makes no zero test, so no tolerance is taken.
    """
    times = frame_times(times)
    t_star = as_real(t_star, "t_star")
    if not times or min(times) >= t_star or max(times) <= t_star:
        raise InvalidSpec("frame times must straddle the singular time")
    grid = prob.trace_grid(box)
    frames = []
    for t in times:
        with naming_overflow("the discriminant 1 + t trace C", f"at t = {t!r}"):
            lam, vals = 1.0 + t * prob.trace_poly, finite(1.0 + t * grid)
        frames.append(Frame(time=t, curves=_zero_set(lam, vals, box)))
    return frames


def builtin_problem(name: str) -> ConsLawProblem:
    """Small named problems with a single quadratic flux component.

    burgers-lips        cubic one-bump profile focusing to a generic
                        first singularity at the origin, t = 1
    burgers-saddle      same profile with the transverse term flipped;
                        the trace has a saddle instead of a minimum
    burgers-rarefaction linear profile with positive slope; the
                        characteristics spread and nothing ever focuses
    """
    y2 = Poly1({2: 0.5})
    zero = Poly1()
    u1 = Poly2.variable(1)
    table = {
        "burgers-lips": ConsLawProblem(
            y2, zero, Poly2({(1, 0): -1.0, (3, 0): 1.0, (1, 2): 1.0})
        ),
        "burgers-saddle": ConsLawProblem(
            y2, zero, Poly2({(1, 0): -1.0, (3, 0): 1.0, (1, 2): -1.0})
        ),
        "burgers-rarefaction": ConsLawProblem(y2, zero, u1),
    }
    try:
        return table[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin problem {name!r}; choose from {sorted(table)}"
        ) from None


BUILTIN_PROBLEMS = ("burgers-lips", "burgers-saddle", "burgers-rarefaction")
