"""Characteristic maps, shape operator identities, and first-shock search."""

import contextlib
import io
from fractions import Fraction

import numpy as np
import pytest

from planesing import conslaw
from planesing.cli import main
from planesing.conslaw import (
    MAX_FRAMES,
    ConsLawProblem,
    _window_min,
    SolverFailed,
    builtin_problem,
    characteristic_map,
    first_singularity,
    lips_birth_frames,
    shape_operator,
    singular_time_field,
    singularity_at,
    xi_autodiff,
    xi_closed_form,
)
from planesing.germs import BEAKS, IMMERSION, LIPS, NEWTON_RESIDUAL, PlaneMapGerm, builtin_germ
from planesing.germs import ToleranceConfig, classify, discriminant, rank_df
from planesing.jets import poly_to_jet
from planesing.locus import BoxDomain, ruling_map, sample_singular_set
from planesing.poly import HornerStack, InvalidSpec, Poly1, Poly2, convolve2, quote

BURGERS_F1 = Poly1({2: 0.5})
ZERO_FLUX = Poly1({})
PHI_LIPS = Poly2({(1, 0): -1.0, (3, 0): 1.0, (1, 2): 1.0})
PHI_SADDLE = Poly2({(1, 0): -1.0, (3, 0): 1.0, (1, 2): -1.0})
SMALL_BOX = BoxDomain((-0.4, -0.4), (0.4, 0.4))
EPS = float(np.finfo(float).eps)


def model_problem():
    return ConsLawProblem(BURGERS_F1, ZERO_FLUX, PHI_LIPS)


def determinant_operands(germ, v) -> np.ndarray:
    """(P~1 Q~2 + P~2 Q~1)(|v|) at each row of the (n, 2) array v.

    P~1 is the partial P_u1 of the germ's first component with absolute
    coefficients, and so on: the determinant P_u1 Q_u2 - P_u2 Q_u1 with
    its two products' absolute values, each summed term by term.  Forming
    and evaluating the determinant rounds it by a small multiple of eps
    times this (Higham, Accuracy and Stability, 3.1 and 5.1).
    """
    (p, q), at = germ.components, np.abs(np.asarray(v, dtype=float)).T
    p1, p2, q1, q2 = HornerStack([np.abs(f.partial(k).table) for f in (p, q) for k in (1, 2)])(*at)
    return p1 * q2 + p2 * q1


def random_problem(rng):
    f1 = Poly1({k: rng.uniform(-1, 1) for k in range(6)})
    f2 = Poly1({k: rng.uniform(-1, 1) for k in range(6)})
    phi = Poly2({(i, j): rng.uniform(-1, 1) for i in range(5) for j in range(5 - i)})
    return ConsLawProblem(f1, f2, phi)


def test_time_zero_map_is_identity():
    g = characteristic_map(model_problem(), 0.0, (0.3, -0.2))
    assert classify(g).singularity_class == IMMERSION
    assert g.value_at((0.3, -0.2)) == pytest.approx((0.3, -0.2))


def test_characteristic_map_jacobian_at_onset():
    g = characteristic_map(model_problem(), 1.0, (0.0, 0.0))
    J = np.array([[d.value for d in row] for row in g.jacobian_jets()])
    assert J == pytest.approx(np.diag([0.0, 1.0]), abs=1e-14)


def test_shape_operator_model_values():
    C = shape_operator(model_problem(), (0.0, 0.0))
    assert np.asarray(C.entries) == pytest.approx(np.array([[-1.0, 0.0], [0.0, 0.0]]))
    assert C.trace == pytest.approx(-1.0)


def test_shape_operator_zero_cases():
    flat = ConsLawProblem(BURGERS_F1, ZERO_FLUX, Poly2.constant(3.0))
    assert np.allclose(shape_operator(flat, (0.1, 0.2)).entries, 0.0)
    linear_flux = ConsLawProblem(Poly1({1: 2.0}), Poly1({1: -1.0}), PHI_LIPS)
    assert np.allclose(shape_operator(linear_flux, (0.1, 0.2)).entries, 0.0)


def test_shape_operator_rank_one(rng):
    for _ in range(30):
        prob = random_problem(rng)
        u = tuple(rng.uniform(-0.8, 0.8, 2))
        C = np.asarray(shape_operator(prob, u).entries)
        scale = max(np.max(np.abs(C)) ** 2, 1e-300)
        assert abs(np.linalg.det(C)) <= 1e-10 * scale


def test_rank_one_determinant_identity(rng):
    # the rank-one defect of the stored entries is O(eps * |C|^2), so
    # the comparison scale for det(I + tC) is the squared matrix norm
    for _ in range(20):
        prob = random_problem(rng)
        u = tuple(rng.uniform(-0.8, 0.8, 2))
        C = shape_operator(prob, u)
        m = np.asarray(C.entries)
        for t in (0.1, 1.0, 10.0):
            a = np.eye(2) + t * m
            lhs = float(np.linalg.det(a))
            rhs = 1.0 + t * C.trace
            scale = max(1.0, float(np.max(np.abs(a))) ** 2)
            assert abs(lhs - rhs) <= 1e-12 * scale


def test_discriminant_consistency(rng):
    # the polynomial route rounds at the scale of the expanded lambda
    # coefficients, which is where its agreement should be measured
    for _ in range(20):
        prob = random_problem(rng)
        u = tuple(rng.uniform(-0.8, 0.8, 2))
        C = shape_operator(prob, u)
        for t in (0.1, 1.0, 10.0):
            germ = characteristic_map(prob, t, u)
            lam = discriminant(germ)
            expected = 1.0 + t * C.trace
            scale = max(1.0, germ.discriminant_poly().max_abs_coeff())
            assert abs(lam.value - expected) <= 1e-10 * scale


def _padded(table, shape):
    return np.pad(table, [(0, n - m) for n, m in zip(shape, table.shape)])


def _generic_determinant(germ):
    (Pu, Pv), (Qu, Qv) = germ.jacobian()
    return Pu * Qv - Pv * Qu


def test_closed_form_discriminant_is_the_generic_determinant(base_seed):
    # the acceptance-5 corpus: each problem is followed by its ten points
    rng = np.random.default_rng(np.random.SeedSequence([base_seed, 5]))
    for _ in range(100):
        prob = random_problem(rng)
        u = tuple(rng.uniform(-1.0, 1.0, 2))
        rng.uniform(-1.0, 1.0, (9, 2))
        for t in (0.1, 1.0, 10.0):
            # the polynomial every frame traces
            lam = (1.0 + t * prob.trace_poly).table
            germ = characteristic_map(prob, t, u)
            assert all(a <= b for a, b in zip(lam.shape, prob.trace_poly.table.shape))
            (Pu, Pv), (Qu, Qv) = germ.jacobian()
            # each coefficient of the two products rounds at the sum of the
            # magnitudes of its terms; the two agree to about 1e-14 of it
            scale = convolve2(abs(Pu.table), abs(Qv.table)) + convolve2(abs(Pv.table), abs(Qu.table))
            diff = _padded(lam, scale.shape) - _padded(_generic_determinant(germ).table, scale.shape)
            assert (np.abs(diff) <= 1e-12 * scale).all()


def test_singularity_onset_matches_rank(rng):
    # g_t drops rank exactly where 1 + t*trace hits zero
    for _ in range(10):
        prob = random_problem(rng)
        u = tuple(rng.uniform(-0.5, 0.5, 2))
        tr = shape_operator(prob, u).trace
        if abs(tr) < 1e-3:
            continue
        t_onset = -1.0 / tr
        if t_onset <= 0:
            continue
        g = characteristic_map(prob, t_onset, u)
        assert rank_df(g) <= 1
        g_half = characteristic_map(prob, 0.5 * t_onset, u)
        assert rank_df(g_half) == 2


def test_singular_time_field_values():
    prob = model_problem()
    assert singular_time_field(prob, (0.0, 0.0)) == pytest.approx(1.0)
    # trace = -1 + 3u1^2 + u2^2 = -2 has no solution; build one directly
    doubled = ConsLawProblem(Poly1({2: 1.0}), ZERO_FLUX, PHI_LIPS)
    assert singular_time_field(doubled, (0.0, 0.0)) == pytest.approx(0.5)


def test_singular_time_field_none_when_expanding():
    prob = builtin_problem("burgers-rarefaction")
    for u in [(-0.5, 0.0), (0.0, 0.0), (0.3, 0.4)]:
        assert singular_time_field(prob, u) is None


def test_xi_closed_form_model_point():
    xi = xi_closed_form(model_problem(), (0.0, 0.0))
    assert xi[0] == pytest.approx(0.0, abs=1e-14)
    assert xi[1] == pytest.approx(0.0, abs=1e-14)
    assert xi[2] == pytest.approx(12.0, rel=1e-12)


def test_xi_all_quadratic_collapses():
    prob = ConsLawProblem(
        Poly1({2: 0.7, 1: 0.3}),
        Poly1({2: -0.2}),
        Poly2({(2, 0): 0.5, (1, 1): -1.0, (0, 2): 0.25, (1, 0): 1.0}),
    )
    xi = xi_closed_form(prob, (0.3, -0.7))
    assert xi[2] == pytest.approx(0.0, abs=1e-12)


def test_xi_no_dependence_on_second_axis():
    prob = ConsLawProblem(
        Poly1({3: 1.0, 2: 0.5}),
        ZERO_FLUX,
        Poly2({(3, 0): 1.0, (1, 0): -1.0}),
    )
    for u in [(0.0, 0.0), (0.2, 0.5), (-0.3, -0.9)]:
        xi = xi_closed_form(prob, u)
        assert xi[1] == pytest.approx(0.0, abs=1e-13)
        assert xi[2] == pytest.approx(0.0, abs=1e-12)


def test_xi_oracles_agree(rng):
    # a slice of the acceptance corpus
    for _ in range(20):
        prob = random_problem(rng)
        for _ in range(5):
            u = tuple(rng.uniform(-0.9, 0.9, 2))
            a = xi_closed_form(prob, u)
            b = xi_autodiff(prob, u)
            for x, y in zip(a, b):
                assert abs(x - y) <= 1e-9 * max(abs(x), abs(y), 1e-3)


def test_xi_closed_form_stays_finite_where_the_profile_slope_overflows_its_square():
    # tau = 3 u1^2 + u2^2 - 1 for burgers-lips; at u1 = 1e100 phi_1^2 overflows,
    # but f1''' = f1'''' = 0 multiply it
    prob, u = builtin_problem("burgers-lips"), (1e100, 0.0)
    assert xi_closed_form(prob, u) == xi_autodiff(prob, u) == (-6.0000000000000005e100, -0.0, 12.0)


def _q_mul(a, b):
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            out[i + k, j + l] = out.get((i + k, j + l), 0) + x * y
    return out


def _q_partial(a, axis):
    out = {}
    for (i, j), x in a.items():
        if (i, j)[axis]:
            out[(i - 1, j) if axis == 0 else (i, j - 1)] = (i, j)[axis] * x
    return out


def _q_value(a, u):
    return sum(x * u[0] ** i * u[1] ** j for (i, j), x in a.items())


def _exact_trace_derivatives(f1, f2, phi, u):
    """The gradient and Hessian of trace C = f1''(phi) phi_1 + f2''(phi) phi_2
    at u, composed in rational arithmetic from the coefficient dicts f1, f2
    ({k: c}) and phi ({(i, j): c})."""
    tau = {}
    for f, axis in ((f1, 0), (f2, 1)):
        outer = {}  # f''(phi) by Horner's rule
        for k in range(max(f), 1, -1):
            outer = _q_mul(outer, phi)
            outer[0, 0] = outer.get((0, 0), 0) + k * (k - 1) * f.get(k, 0)
        for e, x in _q_mul(outer, _q_partial(phi, axis)).items():
            tau[e] = tau.get(e, 0) + x
    t1, t2 = (_q_partial(tau, k) for k in (0, 1))
    derivatives = (t1, t2, _q_partial(t1, 0), _q_partial(t1, 1), _q_partial(t2, 1))
    return [_q_value(d, u) for d in derivatives]


def test_xi_matches_an_exact_rational_composition_at_dyadic_points():
    # fixed dyadic problems: flux degree 5 and profile degree 4 with
    # coefficients k/64, at points j/16, so every input float is exact
    draw = np.random.default_rng(40)
    for _ in range(6):
        f1, f2 = ({k: Fraction(int(draw.integers(-64, 65)), 64) for k in range(6)} for _ in "ab")
        phi = {
            (i, j): Fraction(int(draw.integers(-64, 65)), 64) for i in range(5) for j in range(5 - i)
        }
        prob = ConsLawProblem(
            Poly1({k: float(c) for k, c in f1.items()}),
            Poly1({k: float(c) for k, c in f2.items()}),
            Poly2({e: float(c) for e, c in phi.items()}),
        )
        for _ in range(6):
            u = tuple(Fraction(int(j), 16) for j in draw.integers(-16, 17, 2))
            t1, t2, t11, t12, t22 = _exact_trace_derivatives(f1, f2, phi, u)
            want = (-t1, -t2, t11 * t22 - t12 * t12)
            grad_bound = 1e-13 * max(abs(t1), abs(t2), 1)
            hess_bound = 1e-13 * max(abs(t11), abs(t12), abs(t22), 1) ** 2
            for route in (xi_closed_form, xi_autodiff):
                xi = route(prob, tuple(map(float, u)))
                for got, exact, bound in zip(xi, want, (grad_bound, grad_bound, hess_bound)):
                    assert abs(Fraction(got) - exact) <= bound, (route.__name__, u, xi)


def test_a_singular_time_that_overflows_at_a_point_is_named():
    # at zero_rel 1e-9 the zero test passes any trace C below -1e-309, and
    # -1 / trace C overflows for trace C = -3e-309
    prob = ConsLawProblem(BURGERS_F1, ZERO_FLUX, Poly2({(1, 0): -3e-309}))
    tol = ToleranceConfig(zero_rel=1e-9)
    for call in (singular_time_field, lambda prob, u, tol: singularity_at(prob, u, None, tol)):
        with pytest.raises(InvalidSpec) as info:
            call(prob, (0.0, 0.0), tol)
        assert str(info.value) == "the singular time -1 / trace C overflows at (0.0, 0.0)"


def test_a_trace_bound_that_overflows_at_a_point_is_named():
    # trace C = 1e308 - 1e308 u1 is 0 at (1, 0), where its table with
    # absolute coefficients, 1e308 + 1e308 u1, overflows: the zero test
    # has no yardstick there
    prob = ConsLawProblem(BURGERS_F1, ZERO_FLUX, Poly2({(1, 0): 1e308, (2, 0): -5e307}))
    assert prob.trace_poly((1.0, 0.0)) == 0.0
    for call in (singular_time_field, lambda prob, u: singularity_at(prob, u)):
        with pytest.raises(InvalidSpec) as info:
            call(prob, (1.0, 0.0))
        assert str(info.value) == "trace C with absolute coefficients overflows at (1.0, 0.0)"


def test_xi_linear_profile_drops_hessian_terms(rng):
    # with phi linear the closed form keeps only third-derivative flux terms
    for _ in range(10):
        f1 = Poly1({k: rng.uniform(-1, 1) for k in range(6)})
        f2 = Poly1({k: rng.uniform(-1, 1) for k in range(6)})
        p1, p2 = rng.uniform(-1, 1, 2)
        phi = Poly2({(1, 0): p1, (0, 1): p2})
        prob = ConsLawProblem(f1, f2, phi)
        u = tuple(rng.uniform(-0.5, 0.5, 2))
        y = phi(u)
        d3f1 = f1.derivative(3)(y)
        d3f2 = f2.derivative(3)(y)
        xi = xi_closed_form(prob, u)
        assert xi[0] == pytest.approx(-(d3f1 * p1 * p1 + d3f2 * p1 * p2), rel=1e-10, abs=1e-12)
        assert xi[1] == pytest.approx(-(d3f1 * p1 * p2 + d3f2 * p2 * p2), rel=1e-10, abs=1e-12)


def test_first_singularity_model_problem():
    res = first_singularity(model_problem(), SMALL_BOX)
    assert res is not None
    assert res.t_star == pytest.approx(1.0, abs=1e-10)
    assert res.u_star == pytest.approx((0.0, 0.0), abs=1e-10)
    assert res.xi[2] == pytest.approx(12.0, abs=1e-8)
    assert res.report.singularity_class == LIPS
    assert not res.xi3_degenerate
    assert res.co_minimizers == []


def test_first_shock_xi_is_the_negated_trace_gradient_the_newton_run_drove_to_zero(
    rng, monkeypatch
):
    # xi1 and xi2 at u* are read from the partials trace_poly keeps, the
    # equations first_singularity hands to newton_batch, so they are bit for
    # bit the negated values of those equations at the point the run stopped
    systems = []
    newton = conslaw.newton_batch
    monkeypatch.setattr(conslaw, "newton_batch", lambda eqs, *a: systems.append(eqs) or newton(eqs, *a))
    for _ in range(10):
        # burgers-lips with small terms on every monomial up to degree 4,
        # which keeps a first shock near the origin
        small = {(i, j): rng.uniform(-0.05, 0.05) for i in range(5) for j in range(5 - i)}
        phi = Poly2({e: PHI_LIPS.coeffs.get(e, 0.0) + c for e, c in small.items()})
        f1 = Poly1({2: 0.5, 3: rng.uniform(-0.05, 0.05)})
        prob = ConsLawProblem(f1, Poly1({2: rng.uniform(-0.05, 0.05)}), phi)
        res = first_singularity(prob, SMALL_BOX)
        tau1, tau2 = systems[-1]
        assert tau1 is prob.trace_poly.derivative((1, 0))
        assert tau2 is prob.trace_poly.derivative((0, 1))
        assert res.xi[:2] == (-tau1(res.u_star), -tau2(res.u_star))


def test_first_singularity_rarefaction_returns_none():
    prob = builtin_problem("burgers-rarefaction")
    assert first_singularity(prob, SMALL_BOX) is None


def test_saddle_box_search_fails_honestly():
    prob = ConsLawProblem(BURGERS_F1, ZERO_FLUX, PHI_SADDLE)
    with pytest.raises(SolverFailed) as info:
        first_singularity(prob, SMALL_BOX)
    err = info.value
    assert err.best_point is not None
    # the infimum over this box sits on the boundary, at u1 = 0, |u2| = 0.4
    assert err.best_point[0] == pytest.approx(0.0, abs=1e-12)
    assert abs(err.best_point[1]) == pytest.approx(0.4, abs=1e-12)
    assert err.best_time == pytest.approx(1.0 / 1.16, rel=1e-12)


def test_forced_point_saddle_classifies_beaks():
    prob = ConsLawProblem(BURGERS_F1, ZERO_FLUX, PHI_SADDLE)
    rec = singularity_at(prob, (0.0, 0.0))
    assert rec.t_star == pytest.approx(1.0)
    assert rec.xi[2] == pytest.approx(-12.0, rel=1e-10)
    assert rec.report.singularity_class == BEAKS


def test_forced_point_rejects_expanding_directions():
    prob = builtin_problem("burgers-rarefaction")
    with pytest.raises(ValueError):
        singularity_at(prob, (0.0, 0.0))


def test_birth_frames_straddle():
    prob = model_problem()
    res = first_singularity(prob, SMALL_BOX)
    frames = lips_birth_frames(prob, res.t_star, [0.9, 1.1], SMALL_BOX)
    assert [f.time for f in frames] == [0.9, 1.1]
    before, after = frames
    assert before.curves == []
    assert len(after.curves) == 1
    assert after.curves[0].closed
    # oval of 1 + 1.1*phi_1 = 0: each vertex lies on the level set of the
    # generic determinant, not only of the closed form the frames traced
    g = characteristic_map(prob, 1.1, res.u_star)
    lam = _generic_determinant(g)
    for v in after.curves[0].vertices:
        assert abs(lam(v)) < 1e-9


def test_frames_evaluate_the_trace_on_the_grid_once(monkeypatch, tmp_path):
    evaluated = []
    eval_grid = Poly2.eval_grid
    monkeypatch.setattr(Poly2, "eval_grid", lambda p, xs, ys: evaluated.append(p) or eval_grid(p, xs, ys))
    prob = model_problem()
    times = np.linspace(0.9, 1.1, 20).tolist()
    assert len(lips_birth_frames(prob, 1.0, times, SMALL_BOX)) == 20
    assert len(evaluated) == 1 and evaluated[0] is prob.trace_poly
    # the search and the frames of one run share the grid, which stays read-only
    assert first_singularity(prob, SMALL_BOX) is not None and len(evaluated) == 1
    assert not prob.trace_grid(SMALL_BOX).flags.writeable
    evaluated.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["conslaw", "--builtin", "burgers-lips", "--time", "0.9,1.1",
                     "--out", str(tmp_path)])
    assert code == 0 and len(evaluated) == 1


def test_frames_around_singular_times_match_the_generic_determinant(base_seed):
    # the acceptance-5 corpus: each problem is followed by its ten points.
    # Frames at 0.9 t and 1.1 t must give the curves, closed flags and vertex
    # counts of sample_singular_set on the characteristic map, which traces
    # P_u1 Q_u2 - P_u2 Q_u1.  Around a first shock the vertices agree within
    # 1e-12.  Around the first of the ten points with a singular time, each
    # route puts its vertices on its own lambda = 0, within NEWTON_RESIDUAL
    # * scale, but the two polynomials differ by their rounding: the
    # determinant's, within a few eps of its operands (determinant_operands),
    # and 1 + t trace C's, within a few eps of 1 + t times trace C with
    # absolute coefficients, all at |v|.  So a vertex v moves by at most
    # twice the Newton stop plus eps times that sum S(v), over |grad lambda|;
    # the rounding term is what lets a vertex 1.64e-9 from its twin at the
    # default seed pass, where twice the Newton stop allows 1.43e-9.
    rng = np.random.default_rng(np.random.SeedSequence([base_seed, 5]))
    box = BoxDomain((-1.0, -1.0), (1.0, 1.0), (32, 32))
    compared = {"first shock": 0, "singular time": 0}
    for _ in range(100):
        prob = random_problem(rng)
        times = [(singular_time_field(prob, tuple(u)), tuple(u)) for u in rng.uniform(-1.0, 1.0, (10, 2))]
        sources = [("singular time", u, t) for t, u in times if t is not None][:1]
        try:
            res = first_singularity(prob, box)
        except SolverFailed:
            res = None
        if res is not None:
            sources.append(("first shock", res.u_star, res.t_star))
        for source, base, t_star in sources:
            for frame in lips_birth_frames(prob, t_star, [0.9 * t_star, 1.1 * t_star], box):
                germ = characteristic_map(prob, frame.time, base)
                want = sample_singular_set(germ, box)
                assert [(c.closed, len(c.vertices)) for c in frame.curves] == [
                    (c.closed, len(c.vertices)) for c in want]
                for got, ref in zip(frame.curves, want):
                    v = np.array(got.vertices)
                    d = v - ref.vertices
                    if source == "first shock":
                        assert np.abs(d).max() <= 1e-12
                    else:
                        lam = germ.discriminant_poly()
                        scale = np.abs(box.grid_values(lam, "discriminant")).max()
                        grad = np.hypot(lam.partial(1)(v.T), lam.partial(2)(v.T))
                        trace_abs = HornerStack([np.abs(prob.trace_poly.table)])(*np.abs(v.T))[0]
                        rounding = determinant_operands(germ, v) + 1.0 + frame.time * trace_abs
                        bound = (2.0 * NEWTON_RESIDUAL * scale + EPS * rounding) / grad
                        assert (np.hypot(*d.T) <= bound).all()
                    compared[source] += 1
    assert compared["first shock"] and compared["singular time"] >= 100


def test_window_min_matches_the_sliding_window_reference(rng):
    for shape in ((3, 3), (65, 65), (4, 9), (130, 65)):
        a = rng.standard_normal(shape)
        a[rng.random(shape) < 0.2] = -1.0  # ties
        want = np.lib.stride_tricks.sliding_window_view(a, (3, 3)).min(axis=(2, 3))
        assert np.array_equal(_window_min(a), want)


def test_birth_frames_require_straddling_times():
    prob = model_problem()
    for times in ([1.1, 1.2], [0.5, 0.9]):
        with pytest.raises(InvalidSpec, match="straddle"):
            lips_birth_frames(prob, 1.0, times, SMALL_BOX)


def test_birth_frames_refuse_more_times_than_the_cap(monkeypatch):
    traced = []
    monkeypatch.setattr(conslaw, "_zero_set", lambda lam, vals, box: traced.append(lam) or [])
    prob = model_problem()
    times = [0.9] + [1.1] * MAX_FRAMES
    with pytest.raises(InvalidSpec, match=f"{MAX_FRAMES + 1} frame times exceed the cap"):
        lips_birth_frames(prob, 1.0, times, SMALL_BOX)
    assert traced == []
    # at the cap every frame is traced
    assert len(lips_birth_frames(prob, 1.0, times[:-1], SMALL_BOX)) == MAX_FRAMES
    assert len(traced) == MAX_FRAMES


@pytest.mark.parametrize("x", ["0", True, None, float("nan"), float("inf")],
                         ids=["string", "bool", "none", "nan", "inf"])
def test_library_points_and_times_must_be_reals(x):
    # each is judged by is_number where it enters, as every input number is
    prob = model_problem()
    germ = builtin_germ("cusp")
    calls = {
        "base point": (lambda: PlaneMapGerm(germ.components, (x, 0.0)), (x, 0.0)),
        "rebased point": (lambda: germ.rebase((0.0, x)), (0.0, x)),
        "t0": (lambda: ruling_map((Poly1({1: 1.0}), Poly1({3: 1.0})), x), x),
        "t": (lambda: characteristic_map(prob, x), x),
        "u": (lambda: singularity_at(prob, (x, 0.0), 1.0), (x, 0.0)),
        "forced t": (lambda: singularity_at(prob, (0.0, 0.0), x), x),
        "frame time": (lambda: lips_birth_frames(prob, 1.0, [0.5, x], SMALL_BOX), x),
        "t_star": (lambda: lips_birth_frames(prob, x, [0.5, 2.0], SMALL_BOX), x),
        "singular time u": (lambda: singular_time_field(prob, (x, 0.0)), (x, 0.0)),
        "shape operator u": (lambda: shape_operator(prob, (0.0, x)), (0.0, x)),
        "jet base point": (lambda: poly_to_jet(Poly2({(2, 0): 1.0}), (0.0, x), 3), (0.0, x)),
        "jet one-variable base": (lambda: poly_to_jet(Poly1({2: 1.0}), x, 3), x),
    }
    if x is None:  # singularity_at's t=None asks for the point's own singular time
        del calls["forced t"]
    for what, (call, value) in calls.items():
        name = {"rebased point": "base point", "forced t": "t", "singular time u": "u",
                "shape operator u": "u", "jet base point": "base point",
                "jet one-variable base": "base point"}.get(what, what)
        kind = "two finite numbers" if isinstance(value, tuple) else "a finite number"
        with pytest.raises(InvalidSpec) as info:
            call()
        assert str(info.value) == f"{name} must be {kind}, got {quote(value)}", what


@pytest.mark.parametrize("data", [[1], "str", 3, None])
def test_problem_from_a_document_that_is_not_an_object(data):
    with pytest.raises(InvalidSpec, match="problem must be a JSON object, got"):
        ConsLawProblem.from_dict(data)


def test_problem_spec_round_trip():
    prob = model_problem()
    again = ConsLawProblem.from_dict(prob.to_dict())
    assert again.f1.coeffs == prob.f1.coeffs
    assert again.f2.coeffs == prob.f2.coeffs
    assert again.phi.coeffs == prob.phi.coeffs


def test_builtin_problems_exist():
    for name in ("burgers-lips", "burgers-saddle", "burgers-rarefaction"):
        builtin_problem(name)
    with pytest.raises(KeyError):
        builtin_problem("not-a-problem")
