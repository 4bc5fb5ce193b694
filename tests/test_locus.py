"""Singular-set tracing, special-point search, and the tangential ruling map."""

import json
import math

import numpy as np
import pytest

from planesing import locus, poly
from planesing.conslaw import (
    ConsLawProblem,
    builtin_problem,
    characteristic_map,
    first_singularity,
    lips_birth_frames,
)
from planesing.germs import (
    BEAKS,
    CUSP,
    DEFAULT_TOLERANCES,
    FOLD,
    LIPS,
    NEWTON_MAX_ITER,
    NEWTON_RESIDUAL,
    SWALLOWTAIL,
    PlaneMapGerm,
    builtin_germ,
    classify,
    conjugate_by_diffeos,
    discriminant,
)
from planesing.locus import (
    MAX_GRID,
    STEP_TOL,
    BoxDomain,
    CurveSample,
    NotRegularCurve,
    _distinct,
    _link_curves,
    _march,
    _special_point_systems,
    critical_value_image,
    find_special_points,
    newton_batch,
    ruling_map,
    sample_singular_set,
)
from planesing.parsing import parse_map
from planesing.poly import InvalidSpec, Poly1, Poly2, poly_to_spec

BOX = BoxDomain((-1.0, -1.0), (1.0, 1.0))


def test_box_validation():
    # InvalidSpec is a ValueError
    with pytest.raises(InvalidSpec):
        BoxDomain((0.0, 0.0), (0.0, 1.0))
    with pytest.raises(InvalidSpec):
        BoxDomain((0.0, 0.0), (1.0, 1.0), (1, 8))
    with pytest.raises(InvalidSpec):
        BoxDomain((0.0, 0.0), (1.0, 1.0), (MAX_GRID + 1, 8))
    for lo, hi in (
        ((-math.inf, -1.0), (1.0, 1.0)),
        ((-1.0, -1.0), (1.0, math.inf)),
        ((math.nan, -1.0), (1.0, 1.0)),
        ((-1e308, -1.0), (1e308, 1.0)),  # finite corners, infinite extent
    ):
        with pytest.raises(InvalidSpec):
            BoxDomain(lo, hi)
    # strings, bools and a fractional grid are no input numbers
    for args in (
        (("a", 0), (1, 1)),
        ((True, 0), (1, 1)),
        ((0, 0), (1, None)),
        ((0, 0), (1, 1), (64.7, 64)),
        ((0, 0), (1, 1), (64.0, 64)),
        ((0, 0), (1, 1), ("8", 8)),
    ):
        with pytest.raises(InvalidSpec, match="box needs finite numbers and an integer grid"):
            BoxDomain(*args)
    box = BoxDomain((np.float32(-1), np.int64(0)), (np.float64(1), 2), (np.int32(8), 8))
    assert (box.lo, box.hi, box.grid) == ((-1.0, 0.0), (1.0, 2.0), (8, 8))
    assert all(type(x) is float for x in box.lo + box.hi) and all(type(n) is int for n in box.grid)


def test_overflowing_grid_values_raise_invalid_spec():
    box = BoxDomain((-1e200, -1.0), (1e200, 1.0), (8, 8))
    with pytest.raises(InvalidSpec, match="overflows on the box grid"):
        sample_singular_set(builtin_germ("beaks"), box)
    with pytest.raises(InvalidSpec, match="overflows on the box grid"):
        find_special_points(builtin_germ("beaks"), box)
    with pytest.raises(InvalidSpec, match="overflows on the box grid"):
        first_singularity(builtin_problem("burgers-lips"), box)


def test_fold_singular_set_is_one_line():
    curves = sample_singular_set(builtin_germ("fold"), BOX)
    assert len(curves) == 1
    (c,) = curves
    assert not c.closed
    u2 = [v[1] for v in c.vertices]
    assert max(abs(x) for x in u2) < 1e-9
    u1 = [v[0] for v in c.vertices]
    assert min(u1) < -0.95 and max(u1) > 0.95


@pytest.mark.parametrize("name, count", [("fold", 1), ("beaks", 2)])
def test_a_box_smaller_than_the_vertex_gap_keeps_its_curves(name, count):
    # every cell of this box is 2.5e-17 wide, so an absolute gap of 1e-15
    # between kept vertices would fold each curve into one vertex
    box = BoxDomain((-1e-16, -1e-16), (1e-16, 1e-16), (8, 8))
    curves = sample_singular_set(builtin_germ(name), box)
    assert len(curves) == count
    for c in curves:
        assert len(c.vertices) >= 9
        assert all(box.contains(v) for v in c.vertices)


def test_vertex_residuals_are_certified():
    for name in ("fold", "cusp", "beaks", "swallowtail"):
        g = builtin_germ(name)
        lam = g.discriminant_poly()
        box = BOX
        xs, ys = box.axes()
        grid_scale = np.max(np.abs(lam.eval_grid(xs, ys)))
        for curve in sample_singular_set(g, box):
            assert curve.residuals
            for v, r in zip(curve.vertices, curve.residuals):
                assert r <= 1e-10 * max(grid_scale, 1e-300)
                assert abs(lam(v)) == pytest.approx(r, abs=1e-16)


@pytest.mark.parametrize("grid", [64, 512])
def test_traced_vertices_lie_on_lambda_to_working_precision(grid):
    # every crossing is sharpened until its step is below STEP_TOL or no
    # step lowers |lambda|, however small |lambda| is against the grid
    box = BoxDomain((-1.0, -1.0), (1.0, 1.0), (grid, grid))
    traced = []
    for name in ("cusp", "beaks", "swallowtail"):
        g = builtin_germ(name)
        traced.append((name, g.discriminant_poly(), sample_singular_set(g, box)))
    prob = builtin_problem("burgers-lips")
    frame = lips_birth_frames(prob, 1.0, [0.9, 1.1], box)[1]
    traced.append(("burgers-lips 1.1", 1.0 + frame.time * prob.trace_poly, frame.curves))
    for name, lam, curves in traced:
        v = np.concatenate([c.vertices for c in curves])
        scale = np.abs(box.grid_values(lam, "discriminant")).max()
        assert np.abs(lam(v.T)).max() <= 1e-14 * scale, name


def test_lips_has_empty_curve_list_but_a_degenerate_point():
    curves = sample_singular_set(builtin_germ("lips"), BOX)
    assert curves == []
    points = find_special_points(builtin_germ("lips"), BOX)
    assert len(points) == 1
    (sp,) = points
    assert sp.kind == "DegenerateCandidate"
    assert sp.location == pytest.approx((0.0, 0.0), abs=1e-8)
    assert sp.report.singularity_class == LIPS


def test_beaks_branches_and_slopes():
    curves = sample_singular_set(builtin_germ("beaks"), BOX)
    assert len(curves) == 2
    # the set 3v^2 = u^2 is two lines of slope +-1/sqrt(3); sort the
    # sampled vertices by quadrant pair and fit each line through the
    # origin, so the result does not depend on how the saddle links the
    # four half-branches into chains
    pts = np.vstack([np.array(c.vertices) for c in curves])
    near = pts[np.hypot(pts[:, 0], pts[:, 1]) < 0.6]
    plus = near[near[:, 0] * near[:, 1] > 1e-12]
    minus = near[near[:, 0] * near[:, 1] < -1e-12]
    assert len(plus) >= 5 and len(minus) >= 5
    target = 1.0 / math.sqrt(3.0)
    s_plus = float(np.sum(plus[:, 0] * plus[:, 1]) / np.sum(plus[:, 0] ** 2))
    s_minus = float(np.sum(minus[:, 0] * minus[:, 1]) / np.sum(minus[:, 0] ** 2))
    assert s_plus == pytest.approx(target, abs=1e-3)
    assert s_minus == pytest.approx(-target, abs=1e-3)
    points = find_special_points(builtin_germ("beaks"), BOX)
    assert [sp.kind for sp in points] == ["DegenerateCandidate"]
    assert points[0].report.singularity_class == BEAKS


def test_cusp_special_point():
    points = find_special_points(builtin_germ("cusp"), BOX)
    kinds = {sp.kind: sp for sp in points}
    assert "CuspCandidate" in kinds
    sp = kinds["CuspCandidate"]
    assert sp.location == pytest.approx((0.0, 0.0), abs=1e-8)
    assert sp.report.singularity_class == CUSP
    assert sp.newton_residual <= 1e-10


def test_swallowtail_special_point():
    # the component-swapped form's first-row null field vanishes at the
    # swallowtail point, so its cusp root must come from the second row
    swapped = PlaneMapGerm(parse_map("(u*v+v^4, u)"))
    locations = []
    for germ in (builtin_germ("swallowtail"), swapped):
        points = find_special_points(germ, BOX)
        assert len(points) == 1
        (sp,) = points
        assert sp.kind == "CuspCandidate"
        assert sp.report.singularity_class == SWALLOWTAIL
        locations.append(sp.location)
    assert locations[0] == locations[1]
    # swapping P and Q negates lambda and swaps eta1 lambda with eta2
    # lambda, which leaves every cusp-system run's bits unchanged
    seeds = np.stack(np.meshgrid(*BOX.axes(), indexing="ij"), axis=-1)
    runs = [
        newton_batch(_special_point_systems(g)[1], seeds, BOX)
        for g in (builtin_germ("swallowtail"), swapped)
    ]
    assert [a.tobytes() for a in runs[0]] == [a.tobytes() for a in runs[1]]


def test_translated_swapped_swallowtail_special_point():
    # the first-row null field vanishes at the swallowtail point, where
    # the row-free cusp system still has a root
    c = (0.37109375, -0.078125)
    germ = PlaneMapGerm(parse_map("((u-0.37109375)*(v+0.078125)+(v+0.078125)^4, u-0.37109375)"), c)
    box = BoxDomain((c[0] - 1.0, c[1] - 1.0), (c[0] + 1.0, c[1] + 1.0), (12, 12))
    (sp,) = find_special_points(germ, box)
    assert sp.kind == "CuspCandidate"
    assert sp.report.singularity_class == SWALLOWTAIL
    assert math.dist(sp.location, c) <= 1e-6


#: dyadic centres in [-0.5, 0.5]^2, so the translated forms are exact
_OFFSETS = [(0.0, 0.0), (0.25, -0.125), (-0.375, 0.0625), (0.5, 0.5), (-0.5, 0.1875),
            (0.0078125, -0.3125)]


def _translated_swallowtail(c, swapped):
    u, v = f"(u-({c[0]!r}))", f"(v-({c[1]!r}))"
    comps = (u, f"{u}*{v}+{v}^4")
    return PlaneMapGerm(parse_map("({}, {})".format(*(comps[::-1] if swapped else comps))), c)


@pytest.mark.parametrize(
    "form, n, c",
    [("builtin", n, (0.0, 0.0)) for n in (12, 24, 64)]
    + [(form, 12, c) for c in _OFFSETS for form in ("swallowtail", "swapped-swallowtail")],
)
def test_swallowtail_is_located_to_working_precision(form, n, c):
    # the cusp system is singular at a swallowtail point; the doubled step
    # of a creeping run lands within round-off of it, where plain
    # Gauss-Newton stopped about 1e-9 away
    if form == "builtin":
        germ = builtin_germ("swallowtail")
    else:
        germ = _translated_swallowtail(c, form == "swapped-swallowtail")
    box = BoxDomain((c[0] - 1.0, c[1] - 1.0), (c[0] + 1.0, c[1] + 1.0), (n, n))
    (sp,) = find_special_points(germ, box)
    assert sp.report.singularity_class == SWALLOWTAIL
    assert math.dist(sp.location, c) <= 1e-12


_GRID12 = BoxDomain((-1.0, -1.0), (1.0, 1.0), (12, 12))


@pytest.mark.parametrize("name", ["lips", "beaks", "swallowtail"])
def test_cusp_runs_at_singular_roots_stop_early(name, monkeypatch):
    # Gauss-Newton only halves the distance to these points per step, and
    # plain runs took 31 to 33 iterations; the doubled step, and runs that
    # stop at a root of grad lambda, end them all by iteration 16
    germ = builtin_germ(name)
    points = find_special_points(germ, _GRID12)
    absorb = [sp.location for sp in points if sp.kind == "DegenerateCandidate"]
    xs, ys = _GRID12.axes()
    centres = np.meshgrid((xs[:-1] + xs[1:]) / 2.0, (ys[:-1] + ys[1:]) / 2.0, indexing="ij")
    cusp_system = _special_point_systems(germ)[1]
    runs = [
        _newton_reference(cusp_system, seed, _GRID12, absorb)
        for seed in np.stack(centres, axis=-1).reshape(-1, 2)
    ]
    assert max(it for *_, it in runs) <= 16
    if name != "swallowtail":
        # every run ends unconverged at the lips or beaks point
        assert absorb == [(0.0, 0.0)]
        assert not any(ok for _, _, ok, _ in runs)
        assert all(_close(x, absorb[0]) for x, *_ in runs)
    # a run absorbed at a root of grad lambda changes no output
    with monkeypatch.context() as m:
        m.setattr(locus, "newton_batch", lambda *args, absorb=(): newton_batch(*args))
        plain = find_special_points(germ, _GRID12)
    assert json.dumps([sp.to_dict() for sp in points]) == json.dumps(
        [sp.to_dict() for sp in plain]
    )


@pytest.mark.parametrize("name", ["beaks", "swallowtail"])
def test_newton_residual_is_its_systems_value_at_the_location(name):
    # each point reports the residual of the run that ends at its location,
    # not the smallest one among the runs of its cluster
    germ = builtin_germ(name)
    systems = dict(zip(("DegenerateCandidate", "CuspCandidate"), _special_point_systems(germ)))
    points = find_special_points(germ, _GRID12)
    assert points
    for sp in points:
        equations = systems[sp.kind]
        assert sp.newton_residual == max(abs(p(sp.location)) for p in equations)


#: entropy of the coordinate-change pool that the benchmark's classify
#: workload draws from (pool_diffeos in bench/workloads.py)
POOL_ENTROPY = 9052455


def _origin_diffeo(rng) -> tuple[Poly2, Poly2]:
    # degree 3, fixing 0, with the determinant of its linear part in [0.5, 2]
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
        comps.append(Poly2(terms))
    return comps[0], comps[1]


def _pool_conjugate(name: str, entry: int) -> PlaneMapGerm:
    """The normal form conjugated by the source and target maps of pool entry."""
    rng = np.random.default_rng(np.random.SeedSequence([POOL_ENTROPY, entry]))
    return conjugate_by_diffeos(builtin_germ(name), _origin_diffeo(rng), _origin_diffeo(rng))


HALF_BOX = BoxDomain((-0.5, -0.5), (0.5, 0.5), (24, 24))


@pytest.mark.parametrize("entry", [0, 10, 39, 83])
def test_conjugated_swallowtail_special_point(entry):
    # runs to the swallowtail point stall, with no step that lowers a
    # residual already at round-off; they count as converged
    points = find_special_points(_pool_conjugate("swallowtail", entry), HALF_BOX)
    assert any(
        sp.report.singularity_class == SWALLOWTAIL and math.hypot(*sp.location) <= 1e-6
        for sp in points
    )


@pytest.mark.parametrize("name, entry", [("lips", 3), ("lips", 20), ("beaks", 18)])
def test_conjugated_degenerate_point_has_no_cusp_candidate(name, entry):
    # the cusp system is singular at a lips or beaks point; runs that
    # creep toward it stop once a step gains less than 10%, rather than
    # ending as spurious candidates a few 1e-6 away
    points = find_special_points(_pool_conjugate(name, entry), HALF_BOX)
    near = [sp for sp in points if math.hypot(*sp.location) <= 1e-3]
    assert [sp.kind for sp in near] == ["DegenerateCandidate"]


def _close(p, q):
    # whether p and q are one point, as the searches deduplicate them
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 <= locus.DEDUP_RADIUS**2


def test_distinct_keeps_points_apart_from_the_kept_ones():
    # in a chain spaced 0.6e-6 apart the second point is within
    # DEDUP_RADIUS of the first, the third is not, although it is within
    # DEDUP_RADIUS of the dropped second
    chain = np.array([(0.0, 0.0), (0.6e-6, 0.0), (1.2e-6, 0.0)])
    assert _distinct(chain).tolist() == [0, 2]
    assert _distinct(chain[::-1]).tolist() == [0, 2]
    assert _distinct(np.zeros((0, 2))).tolist() == []


def _special_points_reference(f, box, tol=DEFAULT_TOLERANCES):
    # the deduplication find_special_points ran before _distinct: each
    # converged run a dict entry {location: residual}, the locations
    # sorted and kept unless close to a kept one; as (location, kind,
    # residual), sorted
    lam = f.discriminant_poly()
    scale = float(np.max(np.abs(box.grid_values(lam, "discriminant"))))
    lam_zero_bound = max(tol.zero_rel * scale, NEWTON_RESIDUAL)
    xs, ys = box.axes()
    centers = np.meshgrid((xs[:-1] + xs[1:]) / 2.0, (ys[:-1] + ys[1:]) / 2.0, indexing="ij")
    seeds = np.stack(centers, axis=-1).reshape(-1, 2)
    gradient_system, cusp_system = _special_point_systems(f)

    def roots(system, keep=lambda u: True, absorb=()):
        x, rnorm, ok = newton_batch(system, seeds, box, absorb=absorb)
        ok &= box.contains(x.T)
        ok[ok] = keep(x[ok].T)
        return {(float(a), float(b)): float(r) for (a, b), r in zip(x[ok], rnorm[ok])}

    def dedup(points):
        out = []
        for p in sorted(points):
            if not any(_close(p, q) for q in out):
                out.append(p)
        return out

    degenerate_resid = roots(gradient_system, lambda u: np.abs(lam(u)) <= lam_zero_bound)
    degenerate = dedup(degenerate_resid)
    cusp_resid = roots(cusp_system, absorb=degenerate)
    cusp = [p for p in dedup(cusp_resid) if not any(_close(p, q) for q in degenerate)]
    return sorted(
        [(p, "DegenerateCandidate", degenerate_resid[p]) for p in degenerate]
        + [(p, "CuspCandidate", cusp_resid[p]) for p in cusp]
    )


@pytest.mark.parametrize(
    "name, entry", [("cusp", 2), ("lips", 9), ("beaks", 25), ("swallowtail", 0), ("swallowtail", 1)]
)
def test_special_points_match_dict_dedup(name, entry):
    germ = _pool_conjugate(name, entry)
    points = find_special_points(germ, HALF_BOX)
    assert points
    got = [(sp.location, sp.kind, sp.newton_residual) for sp in points]
    want = _special_points_reference(germ, HALF_BOX)
    assert [kind for _, kind, _ in got] == [kind for _, kind, _ in want]
    assert np.array([(*p, r) for p, _, r in got]).tobytes() == np.array(
        [(*p, r) for p, _, r in want]
    ).tobytes()


def test_fold_has_no_special_points():
    assert find_special_points(builtin_germ("fold"), BOX) == []
    # lambda = 2u is a fold line; the first-row null field (2v, -2u)
    # vanishes at the origin, where null_field takes the second row
    assert find_special_points(PlaneMapGerm(parse_map("(u^2+v^2, v)")), BOX) == []


def test_constant_discriminant_classifies_no_point(monkeypatch):
    # lambda = 1: every grad lambda run converges at its seed, and only
    # the on-set filter keeps those 1024 roots from being classified
    calls = []

    def counting_classify(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(locus, "classify", counting_classify)
    germ = PlaneMapGerm(parse_map("(u+v^2, v)"))
    assert find_special_points(germ, BoxDomain((-1.0, -1.0), (1.0, 1.0), (32, 32))) == []
    assert len(calls) == 0


SCALED_FORMS = {
    "fold": None,
    "cusp": CUSP,
    "lips": LIPS,
    "beaks": BEAKS,
    "swallowtail": SWALLOWTAIL,
}


@pytest.mark.parametrize(
    "k,name",
    [
        (k, name)
        if (k, name) != (1e-9, "swallowtail")
        # the search misses the swallowtail point itself at this scale,
        # where its residual bounds are absolute (ROADMAP item 3)
        else pytest.param(
            k, name, marks=pytest.mark.xfail(strict=True, reason="recall miss (ROADMAP item 3)")
        )
        for k in (1e-3, 1e-6, 1e-9)
        for name in SCALED_FORMS
    ],
)
def test_scaled_down_forms_report_only_their_own_point(k, name):
    # on (k P, k Q) the cell centres pass the absolute residual and lambda
    # bounds; a candidate classified Immersion or Fold is not reported
    P, Q = builtin_germ(name).components
    box = BoxDomain((-1.0, -1.0), (1.0, 1.0), (12, 12))
    points = find_special_points(PlaneMapGerm((P * k, Q * k)), box)
    got = [sp.report.singularity_class for sp in points]
    expected = SCALED_FORMS[name]
    assert got == ([] if expected is None else [expected])


#: (name, component, exponent) whose point the search misses when that
#: component alone is scaled by 10**exponent: the precision and scale
#: misses of the cusp system at swallowtail points (ROADMAP item 3)
_SCALED_COMPONENT_MISSES = {("swallowtail", 0, -12), ("swallowtail", 0, -9), ("swallowtail", 1, -12)}


@pytest.mark.parametrize("name", [*SCALED_FORMS, "immersion"])
def test_scaling_one_component_reports_only_its_own_point(name):
    P, Q = builtin_germ(name).components
    box = BoxDomain((-1.0, -1.0), (1.0, 1.0), (12, 12))
    expected = SCALED_FORMS.get(name)
    for e in (-12, -9, -6, 6, 8, 9):
        for component in (0, 1):
            if (name, component, e) in _SCALED_COMPONENT_MISSES:
                continue
            comps = [P, Q]
            comps[component] = comps[component] * 10.0**e
            got = [sp.report.singularity_class for sp in find_special_points(PlaneMapGerm(comps), box)]
            assert got == ([] if expected is None else [expected]), (component, e)


@pytest.mark.xfail(strict=True, reason="absolute NEWTON_RESIDUAL at this scale (ROADMAP item 3)")
def test_cusp_with_a_1e10_target_coordinate_is_found():
    f = PlaneMapGerm(parse_map("(u, 1e10*(v^3+u*v))"))
    box = BoxDomain((-1.0, -1.0), (1.0, 1.0), (12, 12))
    assert [sp.report.singularity_class for sp in find_special_points(f, box)] == [CUSP]


def test_cusp_image_is_cuspidal_curve():
    g = builtin_germ("cusp")
    curves = sample_singular_set(g, BOX)
    assert len(curves) == 1
    images = critical_value_image(g, curves)
    assert len(images) == 1
    # S(f) is u = -3v^2; image is (-3v^2, -2v^3)
    for (u1, u2), (x1, x2) in zip(curves[0].vertices, images[0].vertices):
        v = u2
        assert x1 == pytest.approx(-3 * v * v, abs=1e-8)
        assert x2 == pytest.approx(-2 * v**3, abs=1e-8)
    assert images[0].closed == curves[0].closed


def test_image_preserves_connectivity_and_residuals():
    g = builtin_germ("beaks")
    curves = sample_singular_set(g, BOX)
    images = critical_value_image(g, curves)
    assert [c.closed for c in images] == [c.closed for c in curves]
    assert [len(c.vertices) for c in images] == [len(c.vertices) for c in curves]


def test_closed_contour_is_detected():
    # lambda = u^2 + v^2 - 0.25: singular set is a circle
    g_comps = (
        Poly2.variable(1),
        Poly2({(2, 1): 1.0, (0, 3): 1.0 / 3.0, (0, 1): -0.25}),
    )
    from planesing.germs import PlaneMapGerm

    g = PlaneMapGerm(g_comps, (0.5, 0.0))
    lam = discriminant(g)
    assert lam.value == pytest.approx(0.0, abs=1e-12)
    curves = sample_singular_set(g, BOX)
    assert len(curves) == 1
    assert curves[0].closed
    radii = [math.hypot(u1, u2) for u1, u2 in curves[0].vertices]
    assert max(abs(r - 0.5) for r in radii) < 1e-6


def test_ruling_map_cubic_is_beaks():
    g = ruling_map((Poly1({1: 1.0}), Poly1({3: 1.0})), 0.0)
    report = classify(g)
    assert report.singularity_class == BEAKS
    assert g.base_point == (0.0, 0.0)


def test_ruling_map_parabola_is_fold():
    g = ruling_map((Poly1({1: 1.0}), Poly1({2: 1.0})), 0.0)
    assert classify(g).singularity_class == FOLD


def test_ruling_map_quartic_perturbation_still_beaks():
    g = ruling_map((Poly1({1: 1.0}), Poly1({3: 1.0, 4: 1.0})), 0.0)
    assert classify(g).singularity_class == BEAKS


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
def test_ruling_family_flat_point_criterion(a):
    # curvature at t=0 is 2a: zero curvature with nonzero derivative
    # gives beaks, nonzero curvature gives fold
    g = ruling_map((Poly1({1: 1.0}), Poly1({3: 1.0, 2: a})), 0.0)
    expected = BEAKS if a == 0.0 else FOLD
    assert classify(g).singularity_class == expected


def test_ruling_map_rejects_stationary_curve():
    assert issubclass(NotRegularCurve, InvalidSpec) and issubclass(NotRegularCurve, ValueError)
    with pytest.raises(NotRegularCurve):
        ruling_map((Poly1({2: 1.0}), Poly1({3: 1.0})), 0.0)


def test_ruling_map_takes_one_variable_polynomials_only():
    t = Poly1({1: 1.0})
    for bad in (poly_to_spec(t), Poly2.variable(1), None):
        with pytest.raises(InvalidSpec, match="ruling curve needs two one-variable"):
            ruling_map((t, bad), 0.0)
    with pytest.raises(InvalidSpec):
        ruling_map((t,), 0.0)


def test_ruling_map_rejects_an_overflowing_velocity():
    # the power overflows in 3 t^2 at 1e200; the product 2e300 * 1e10
    # overflows to inf without an exception
    for curve, t0 in (((Poly1({1: 1.0}), Poly1({3: 1.0})), 1e200),
                      ((Poly1({1: 1.0}), Poly1({2: 1e300})), 1e10)):
        with pytest.raises(InvalidSpec):
            ruling_map(curve, t0)


def test_ruling_map_null_direction():
    from planesing.germs import null_field

    g = ruling_map((Poly1({1: 1.0}), Poly1({3: 1.0})), 0.0)
    nf = null_field(g)
    v = nf.values_at_base()
    # kernel direction is parallel to (-1, 1)
    assert v[0] == pytest.approx(-v[1])
    assert abs(v[0]) > 0


def test_box_contains():
    box = BoxDomain((0.0, 0.0), (1.0, 2.0))
    assert box.contains((0.5, 1.0))
    assert not box.contains((1.5, 1.0))
    assert box.contains((1.0 + 1e-12, 1.0))


def _quadratic_system():
    # F = (u^2 - 4, v): roots (+-2, 0), Jacobian singular on u = 0
    return Poly2({(2, 0): 1.0, (0, 0): -4.0}), Poly2.variable(2)


def test_newton_batch_seed_outcomes():
    system = _quadratic_system()
    seeds = [(1.5, 0.5), (-1.5, -0.2), (0.0, 0.7), (0.1, 0.0), (2.0, 0.0)]
    x, rnorm, ok = newton_batch(system, seeds, BOX)
    assert ok.tolist() == [True, True, False, False, True]
    assert x[0].tolist() == [2.0, 0.0] and x[1].tolist() == [-2.0, 0.0]
    # singular Jacobian: the seed stops where it started
    assert x[2].tolist() == [0.0, 0.7]
    # a damped step lands beyond the box's 0.5 slack (u > 2.5)
    assert x[3, 0] > 2.5 and not BOX.contains(x[3], slack=0.5)
    # a seed at a root stays there with zero residual
    assert x[4].tolist() == [2.0, 0.0] and rnorm[4] == 0.0
    # F = (u^3 - 1, v) from u = 0.05: only the eighth step length, 1/128,
    # lowers the residual, and the seed goes on to converge
    system = Poly2({(3, 0): 1.0, (0, 0): -1.0}), Poly2.variable(2)
    x, _, ok = newton_batch(system, [(0.05, 0.0)], BOX)
    assert ok.tolist() == [True] and x[0].tolist() == [1.0, 0.0]


def test_newton_batch_seeds_are_independent():
    # F2 = v fills the second slot of one system and the first of the next
    system = _quadratic_system()
    F2 = system[1]
    systems = [system, (F2, Poly2({(3, 0): 1.0, (1, 1): 0.5, (0, 0): -1.0}))]
    seeds = [(1.5, 0.5), (0.0, 0.7), (-1.5, -0.2), (0.1, 0.0), (2.0, 0.0), (0.9, -0.3)]
    for system in systems:
        batch = newton_batch(system, seeds, BOX)
        for k, seed in enumerate(seeds):
            alone = newton_batch(system, [seed], BOX)
            for got, want in zip(batch, alone):
                assert got[k].tobytes() == want[0].tobytes()


def test_newton_batch_reads_each_jacobian_row_from_the_kept_partials(monkeypatch):
    # the rows of grad lambda = 0 share lambda_12, which is one kept object,
    # so the Jacobian stack holds three tables
    stacks = []

    class Recording(poly.HornerStack):
        def __init__(self, tables):
            stacks.append(list(tables))
            super().__init__(tables)

    monkeypatch.setattr(locus, "HornerStack", Recording)
    lam = builtin_germ("beaks").discriminant_poly()
    newton_batch((lam.partial(1), lam.partial(2)), [(0.3, 0.2)], BOX)
    _, jacobian = stacks
    assert jacobian[0] is lam.derivative((2, 0)).table
    assert jacobian[1] is jacobian[2] is lam.derivative((1, 1)).table
    assert jacobian[3] is lam.derivative((0, 2)).table
    assert len({id(t) for t in jacobian}) == 3


def _max_abs(*values):
    # the largest |value|, NaN when one is NaN, as numpy's max gives it
    return math.nan if any(map(math.isnan, values)) else max(map(abs, values))


def _solve2_reference(a11, a12, a21, a22, b1, b2):
    # LU with partial pivoting in Python floats; None where the step
    # is not finite (a zero pivot included)
    if abs(a21) > abs(a11):
        a11, a12, a21, a22, b1, b2 = a21, a22, a11, a12, b2, b1
    if a11 == 0.0:
        return None
    m = a21 / a11
    u22 = a22 - m * a12
    if u22 == 0.0:
        return None
    x2 = (b2 - m * b1) / u22
    x1 = (b1 - a12 * x2) / a11
    return (x1, x2) if math.isfinite(x1) and math.isfinite(x2) else None


def _step_reference(rows, f):
    # the minimum-norm step for one equation, Newton's for two,
    # Gauss-Newton's for three
    if len(f) == 1:
        ((g1, g2),) = rows
        g = g1 * g1 + g2 * g2
        if g == 0.0:
            return None
        s1, s2 = -f[0] * g1 / g, -f[0] * g2 / g
        return (s1, s2) if math.isfinite(s1) and math.isfinite(s2) else None
    if len(f) == 2:
        (a11, a12), (a21, a22) = rows
        return _solve2_reference(a11, a12, a21, a22, -f[0], -f[1])
    a, b = [r[0] for r in rows], [r[1] for r in rows]

    def dot(x, y):
        return x[0] * y[0] + (x[1] * y[1] + x[2] * y[2])

    ab = dot(a, b)
    return _solve2_reference(dot(a, a), ab, ab, dot(b, b), -dot(a, f), -dot(b, f))


def _halves(step, last):
    # whether step goes on along last (cosine >= 0.99) at half its length
    # (ratio 0.4 to 0.6), in squares
    if last is None:
        return False
    (s1, s2), (l1, l2) = step, last
    sn, ln, dot = s1 * s1 + s2 * s2, l1 * l1 + l2 * l2, s1 * l1 + s2 * l2
    return dot >= 0.0 and dot * dot >= 0.9801 * sn * ln and 0.16 * ln <= sn <= 0.36 * ln


def _newton_reference(F, x0, box, absorb=(), max_iter=NEWTON_MAX_ITER):
    # the scalar loop that newton_batch runs on every run at once, on the
    # equations F and the Jacobian rows of their partials;
    # returns (x, residual norm, converged, iterations started)
    J = [(p.partial(1), p.partial(2)) for p in F]
    x = (float(x0[0]), float(x0[1]))
    f = [p(x) for p in F]
    rnorm = _max_abs(*f)
    last = None  # the last accepted full step
    for it in range(1, max_iter + 1):
        step = _step_reference([[p(x) for p in row] for row in J], f)
        if step is None:
            return x, rnorm, rnorm <= NEWTON_RESIDUAL, it
        (s1, s2), t = step, 1.0
        if len(F) == 3 and _halves(step, last):
            t = 2.0
        for _ in range(8):
            cand = (x[0] + t * s1, x[1] + t * s2)
            g = [p(cand) for p in F]
            cnorm = _max_abs(*g)
            if cnorm <= rnorm or rnorm == 0.0:
                break
            t *= 0.5
        else:
            return x, rnorm, rnorm <= NEWTON_RESIDUAL, it
        x, f, rnorm, before = cand, g, cnorm, rnorm
        if not box.contains(x, slack=0.5) or any(_close(x, p) for p in absorb):
            return x, rnorm, False, it
        if len(F) == 3 and rnorm > NEWTON_RESIDUAL and rnorm > 0.9 * before:
            return x, rnorm, False, it
        last = step if t == 1.0 else None
        if _max_abs(t * s1, t * s2) <= STEP_TOL * (1.0 + _max_abs(*x)):
            return x, rnorm, rnorm <= NEWTON_RESIDUAL, it
        if rnorm <= NEWTON_RESIDUAL and _max_abs(s1, s2) <= 1e3 * STEP_TOL:
            return x, rnorm, True, it
    return x, rnorm, rnorm <= NEWTON_RESIDUAL, max_iter


def _run_bytes(x, rnorm, ok):
    return np.asarray(x, dtype=float).tobytes(), np.float64(rnorm).tobytes(), bool(ok)


_NEWTON_MAPS = {
    "lips": builtin_germ("lips"),
    "cusp": builtin_germ("cusp"),
    "swallowtail": builtin_germ("swallowtail"),
    "swapped-swallowtail": PlaneMapGerm(parse_map("(u*v+v^4, u)")),
}


@pytest.mark.parametrize("name", list(_NEWTON_MAPS))
@pytest.mark.parametrize("max_iter", [NEWTON_MAX_ITER, 20], ids=["tol0", "tol1"])
def test_newton_batch_matches_scalar_loop(name, max_iter, monkeypatch):
    # grad lambda = 0, the first-row (lambda, eta lambda) = 0 of a normal
    # form (u, Q), whose null field is (0, -1), and the row-free cusp
    # system, alone and absorbed at the origin; their seeds converge,
    # stall, leave the box or are absorbed
    f = _NEWTON_MAPS[name]
    gradient_system, cusp_system = _special_point_systems(f)
    lam = f.discriminant_poly()
    systems = {
        "gradient": (gradient_system, ()),
        "first-row": ((lam, -lam.partial(2)), ()),
        "cusp": (cusp_system, ()),
        "absorbed": (cusp_system, ((0.0, 0.0),)),
    }
    box = BoxDomain((-1.0, -1.0), (1.0, 1.0), (8, 8))
    seeds = np.stack(np.meshgrid(*box.axes(), indexing="ij"), axis=-1).reshape(-1, 2) * 1.3
    monkeypatch.setattr(locus, "NEWTON_MAX_ITER", max_iter)
    stopped = {}
    for label, (system, absorb) in systems.items():
        batch = newton_batch(system, seeds, box, absorb=absorb)
        # evaluation in blocks of a few points, which split the live runs
        with monkeypatch.context() as m:
            m.setattr(poly, "_EVAL_BLOCK", 24)
            blocked = newton_batch(system, seeds, box, absorb=absorb)
        assert [a.tobytes() for a in blocked] == [a.tobytes() for a in batch]
        for k, seed in enumerate(seeds):
            x, rnorm, ok, iterations = _newton_reference(system, seed, box, absorb, max_iter)
            stopped.setdefault(label, set()).add((iterations, ok))
            assert _run_bytes(*(a[k] for a in batch)) == _run_bytes(x, rnorm, ok)
    # runs converge and fail, at different iterations; only the first-row
    # runs to a singular root (lips, swallowtail), approached linearly,
    # reach iteration 20, and none reaches the default cap of 50.  The
    # cusp system's doubled steps end every run by iteration 12.
    outcomes = set().union(*stopped.values())
    assert {ok for _, ok in outcomes} == {True, False}
    iterations = {it for it, _ in outcomes}
    assert len(iterations) >= 2
    slow = name != "cusp"
    assert (max_iter in iterations) == (slow and max_iter == 20)
    assert max(it for it, _ in stopped["cusp"] | stopped["absorbed"]) <= 12


def _sharpen_reference(lam, pt, box, max_iter):
    # the scalar loop that _zero_set runs on each crossing: the one stop
    # rule of every system, with no bound of its own on |lambda|
    x, rnorm, _, _ = _newton_reference((lam,), pt, box, max_iter=max_iter)
    return x[0], x[1], rnorm


def _sharpen(lam, pts, box):
    # the one-equation newton_batch call of sample_singular_set
    return newton_batch((lam,), pts, box)


def _first_shock_discriminant(rng):
    return _first_shock_map(rng).discriminant_poly()


def _first_shock_map(rng):
    # a problem like the acceptance corpus (flux degree 5, profile
    # degree 4), frozen after its singular set has appeared in the box
    while True:
        prob = ConsLawProblem(
            Poly1({k: rng.uniform(-1, 1) for k in range(6)}),
            Poly1({k: rng.uniform(-1, 1) for k in range(6)}),
            Poly2({(i, j): rng.uniform(-1, 1) for i in range(5) for j in range(5 - i)}),
        )
        tau = prob.trace_poly.eval_grid(*BOX.axes())
        if tau.min() < 0.0:
            return characteristic_map(prob, -1.5 / tau.min())


@pytest.mark.parametrize("name", ["lips", "beaks", "burgers-lips", "first-shock"])
def test_sharpen_matches_scalar_loop(rng, name, monkeypatch):
    if name in ("lips", "beaks"):
        lams = [builtin_germ(name).discriminant_poly()]
    elif name == "burgers-lips":
        # at t = 0.9 the gradient vanishes at the origin, off the singular
        # set; at t = 1.1 the set is a closed curve around it
        prob = builtin_problem(name)
        lams = [characteristic_map(prob, t).discriminant_poly() for t in (0.9, 1.1)]
    else:
        lams = [_first_shock_discriminant(rng)]
    box = BoxDomain((-1.0, -1.0), (1.0, 1.0), (16, 16))
    xs, ys = box.axes()
    for lam in lams:
        vals = lam.eval_grid(xs, ys)
        pts = [(0.0, 0.0)] + [tuple(p) for p in rng.uniform(-1.0, 1.0, (40, 2))]
        # the crossings marching squares places on sign-changing grid edges
        for i in range(len(xs)):
            for j in range(len(ys)):
                for k, m in ((i + 1, j), (i, j + 1)):
                    if k < len(xs) and m < len(ys) and (vals[i, j] >= 0.0) != (vals[k, m] >= 0.0):
                        ends = (xs[i], ys[j]), (xs[k], ys[m])
                        pts.append(_edge_crossing_reference(*ends, vals[i, j], vals[k, m]))
        pts = np.array(pts)
        for max_iter in (NEWTON_MAX_ITER, 2):
            monkeypatch.setattr(locus, "NEWTON_MAX_ITER", max_iter)
            x, r, _ = _sharpen(lam, pts, box)
            for k, pt in enumerate(pts):
                want = _sharpen_reference(lam, tuple(pt), box, max_iter)
                assert np.array([x[k, 0], x[k, 1], r[k]]).tobytes() == np.array(want).tobytes()


# The per-cell marching loop that sample_singular_set ran before _march,
# ported as the reference that _march must reproduce bit for bit.
_SEGMENT_TABLE_REFERENCE = {
    0: [], 15: [],
    1: [(3, 0)], 14: [(3, 0)], 2: [(0, 1)], 13: [(0, 1)],
    4: [(1, 2)], 11: [(1, 2)], 8: [(2, 3)], 7: [(2, 3)],
    3: [(3, 1)], 12: [(3, 1)], 6: [(0, 2)], 9: [(0, 2)],
}


def _edge_crossing_reference(p0, p1, v0, v1):
    denom = v0 - v1
    t = 0.5 if denom == 0.0 else v0 / denom
    t = min(max(t, 0.0), 1.0)
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


def _march_reference(lam, xs, ys, vals):
    """(segments, crossings by edge key, saddle (code, center >= 0) pairs seen)."""
    pos = vals >= 0.0
    crossings = {}
    saddles = set()

    def edge_point(kind, i, j):
        key = (kind, i, j)
        if key not in crossings:
            p0 = (xs[i], ys[j])
            if kind == "h":
                p1, v0, v1 = (xs[i + 1], ys[j]), vals[i, j], vals[i + 1, j]
            else:
                p1, v0, v1 = (xs[i], ys[j + 1]), vals[i, j], vals[i, j + 1]
            crossings[key] = _edge_crossing_reference(p0, p1, v0, v1)
        return key

    def cell_edge_key(i, j, e):
        if e == 0:
            return edge_point("h", i, j)
        if e == 1:
            return edge_point("v", i + 1, j)
        if e == 2:
            return edge_point("h", i, j + 1)
        return edge_point("v", i, j)

    segments = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            code = (
                (1 if pos[i, j] else 0)
                | (2 if pos[i + 1, j] else 0)
                | (4 if pos[i + 1, j + 1] else 0)
                | (8 if pos[i, j + 1] else 0)
            )
            if code in (5, 10):
                center = ((xs[i] + xs[i + 1]) / 2.0, (ys[j] + ys[j + 1]) / 2.0)
                center_pos = lam(center) >= 0.0
                saddles.add((code, center_pos))
                if code == 5:
                    pairs = [(3, 0), (1, 2)] if center_pos else [(3, 2), (1, 0)]
                else:
                    pairs = [(0, 1), (2, 3)] if center_pos else [(0, 3), (2, 1)]
            else:
                pairs = _SEGMENT_TABLE_REFERENCE[code]
            for e0, e1 in pairs:
                segments.append((cell_edge_key(i, j, e0), cell_edge_key(i, j, e1)))
    return segments, crossings, saddles


def _edge_keys_reference(vals):
    """The sign-changing edges as (kind, i, j), in the order _march numbers them."""
    pos = vals >= 0.0
    n1, n2 = pos.shape
    keys = []
    for i in range(n1):
        for j in range(n2):
            if i + 1 < n1 and pos[i, j] != pos[i + 1, j]:
                keys.append(("h", i, j))
            if j + 1 < n2 and pos[i, j] != pos[i, j + 1]:
                keys.append(("v", i, j))
    return keys


def _link_curves_reference(segments, sharpened, residuals):
    """The chain walk over (kind, i, j) edge keys that _link_curves replaced."""
    adj = {}
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

    def build(chain, closed):
        verts, res = [], []
        for key in chain:
            pt = sharpened[key]
            if verts and abs(pt[0] - verts[-1][0]) + abs(pt[1] - verts[-1][1]) < 1e-15:
                continue
            verts.append(pt)
            res.append(residuals[key])
        return CurveSample(vertices=verts, residuals=res, closed=bool(closed))

    ordered_keys = sorted(adj, key=lambda k: (k[1], k[2], k[0]))
    visited_pairs = set()
    used = set()
    curves = []
    for key in ordered_keys:
        if key in used or len(adj[key]) != 1:
            continue
        chain, closed = chain_from(key, visited_pairs)
        used.update(chain)
        curves.append(build(chain, closed))
    for key in ordered_keys:
        if key in used:
            continue
        remaining = [nb for nb in adj[key] if frozenset((key, nb)) not in visited_pairs]
        if not remaining:
            used.add(key)
            continue
        chain, closed = chain_from(key, visited_pairs)
        used.update(chain)
        curves.append(build(chain, closed))
    return [c for c in curves if len(c.vertices) >= 2]


def _saddle_map(a, b, sign):
    # lambda = sign (u - a)(v - b): one saddle cell around (a, b)
    P = Poly2({(2, 0): 0.5, (1, 0): -a})
    Q = Poly2({(0, 2): 0.5 * sign, (0, 1): -b * sign})
    return PlaneMapGerm((P, Q), (0.0, 0.0))


def _marching_cases(rng):
    prob = builtin_problem("burgers-lips")
    return {
        "lips": builtin_germ("lips"),
        "beaks": builtin_germ("beaks"),
        "swallowtail": builtin_germ("swallowtail"),
        "burgers-lips 0.9": characteristic_map(prob, 0.9),
        "burgers-lips 1.1": characteristic_map(prob, 1.1),
        "first-shock": _first_shock_map(rng),
        # lambda = u v is exactly zero on the grid lines through the origin
        "zero nodes": PlaneMapGerm((Poly2({(2, 0): 0.5}), Poly2({(0, 2): 0.5})), (0.0, 0.0)),
        "saddle 5 center+": _saddle_map(0.03, 0.05, 1.0),
        "saddle 5 center-": _saddle_map(0.03, 0.1, 1.0),
        "saddle 10 center+": _saddle_map(0.03, 0.1, -1.0),
        "saddle 10 center-": _saddle_map(0.03, 0.05, -1.0),
        # on the 16x16 grid the center of the saddle cell is a root
        "saddle 5 center 0": _saddle_map(0.0625, 0.05, 1.0),
        # |lambda| <= 4e-320 on the box: subnormal values and steps
        "underflow": PlaneMapGerm(parse_map("(1e-160*u, 1e-160*(v^3+u*v))")),
    }


def _curve_bits(c):
    return (np.array(c.vertices, dtype=float).tobytes(), np.array(c.residuals).tobytes(), c.closed)


@pytest.mark.parametrize(
    "box",
    [
        BoxDomain((-1.0, -1.0), (1.0, 1.0), (16, 16)),
        BoxDomain((-1.0, -1.0), (1.0, 1.0), (64, 64)),
        BoxDomain((-1.0, -0.5), (0.5, 1.0), (24, 48)),
    ],
    ids=["16x16", "64x64", "24x48"],
)
def test_march_matches_per_cell_loop(rng, box):
    xs, ys = box.axes()
    saddles_seen = set()
    for name, germ in _marching_cases(rng).items():
        lam = germ.discriminant_poly()
        vals = lam.eval_grid(xs, ys)
        segments, x, y = _march(lam, xs, ys, vals)
        want_segments, crossings, saddles = _march_reference(lam, xs, ys, vals)
        saddles_seen |= saddles
        keys = _edge_keys_reference(vals)
        assert [(keys[a], keys[b]) for a, b in segments.tolist()] == want_segments, name
        assert sorted(keys) == sorted(crossings), name
        assert set(np.bincount(segments.ravel(), minlength=len(keys)).tolist()) <= {1, 2}
        for key, pt in zip(keys, zip(x, y)):
            assert np.array(pt).tobytes() == np.array(crossings[key]).tobytes(), (name, key)

        curves = sample_singular_set(germ, box)
        want = []
        if want_segments:
            sharp = {
                key: _sharpen_reference(lam, pt, box, NEWTON_MAX_ITER)
                for key, pt in crossings.items()
            }
            want = _link_curves_reference(
                want_segments,
                {key: (x, y) for key, (x, y, _) in sharp.items()},
                {key: r for key, (_, _, r) in sharp.items()},
            )
        assert [_curve_bits(c) for c in curves] == [_curve_bits(c) for c in want], name
        if name == "zero nodes":
            assert (vals == 0.0).any()
        if name in ("beaks", "burgers-lips 1.1", "zero nodes", "underflow"):
            assert curves, name
    if box.grid == (16, 16):
        assert saddles_seen == {(5, True), (5, False), (10, True), (10, False)}


@pytest.mark.parametrize(
    "n, segments, chains",
    [
        # one path 0-2-1-3, walked from its smaller end
        (4, [(2, 1), (0, 2), (3, 1)], [([0, 2, 1, 3], False)]),
        # one cycle, walked from 0 toward 1, whose segment comes first
        (4, [(1, 3), (0, 1), (2, 0), (3, 2)], [([0, 1, 3, 2], True)]),
        # the same cycle with the segment to 2 first
        (4, [(2, 0), (1, 3), (0, 1), (3, 2)], [([0, 2, 3, 1], True)]),
        # two interleaved cycles, ordered by their smallest edges
        (
            8,
            [(1, 3), (3, 5), (0, 2), (2, 4), (5, 7), (4, 6), (7, 1), (6, 0)],
            [([0, 2, 4, 6], True), ([1, 3, 5, 7], True)],
        ),
        # a path comes before a cycle even when the cycle's edges are smaller
        (
            7,
            [(0, 1), (1, 2), (2, 3), (3, 0), (6, 5), (5, 4)],
            [([4, 5, 6], False), ([0, 1, 2, 3], True)],
        ),
        # the two segments of a saddle cell (edges S=0, W=1, E=2, N=3)
        (4, [(1, 0), (2, 3)], [([0, 1], False), ([2, 3], False)]),
    ],
    ids=["path", "cycle", "cycle-reversed", "two-cycles", "path-and-cycle", "saddle"],
)
def test_link_curves_walks_paths_then_cycles(n, segments, chains):
    segments = np.array(segments, dtype=np.intp)
    assert set(np.bincount(segments.ravel(), minlength=n).tolist()) <= {1, 2}
    assert _link_curves(segments, n) == chains
