"""Frozen examples and numeric invariants of the truncated-jet layer."""

import math
import warnings

import numpy as np
import pytest

from planesing.jets import (
    BASE_MATCH_TOL,
    CompositionBasePointMismatch,
    InvalidJetCombination,
    Jet2,
    JetOrderExhausted,
    compose_map,
    compose_univariate,
    det2x2,
    poly_to_jet,
)
from planesing.conslaw import ConsLawProblem, xi_autodiff
from planesing.germs import BUILTIN_GERMS, builtin_germ, conjugate_by_diffeos
from planesing.poly import InvalidSpec, Poly1, Poly2

ORIGIN = (0.0, 0.0)


def j2(table, order=None):
    return Jet2(ORIGIN, np.array(table, dtype=float), order)


def test_product_one_plus_u1_times_one_plus_u2():
    a = j2([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])  # 1 + u1
    b = j2([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])  # 1 + u2
    prod = a * b
    assert prod.coeffs[0, 0] == 1.0
    assert prod.coeffs[1, 0] == 1.0
    assert prod.coeffs[0, 1] == 1.0
    assert prod.coeffs[1, 1] == 1.0

    # at order 1 the bilinear term exceeds the order and is dropped
    low = j2([[1.0, 0.0], [1.0, 0.0]]) * j2([[1.0, 1.0], [0.0, 0.0]])
    assert low.coeffs[1, 1] == 0.0


def test_additive_identity():
    a = poly_to_jet(Poly2({(2, 1): 3.0, (0, 0): -1.0}), ORIGIN, 4)
    zero = Jet2.constant(0.0, ORIGIN, 4)
    assert np.array_equal((a + zero).coeffs, a.coeffs)


def test_difference_of_squares_at_order_four():
    u1 = poly_to_jet(Poly2.variable(1), ORIGIN, 4)
    u2 = poly_to_jet(Poly2.variable(2), ORIGIN, 4)
    prod = (u1 + u2) * (u1 - u2)
    expected = np.zeros((5, 5))
    expected[2, 0] = 1.0
    expected[0, 2] = -1.0
    assert np.allclose(prod.coeffs, expected, atol=0.0)


def test_product_matches_coefficient_convolution(rng):
    # truncated jet product == naive convolution of coefficient tables
    for _ in range(25):
        order = 4
        ja = Jet2(ORIGIN, rng.uniform(-1, 1, (5, 5)), order)
        jb = Jet2(ORIGIN, rng.uniform(-1, 1, (5, 5)), order)
        prod = ja * jb
        conv = np.zeros((5, 5))
        for i in range(5):
            for j in range(5 - i):
                for k in range(5 - i - j):
                    for l in range(5 - i - j - k):
                        conv[i + k, j + l] += ja.coeffs[i, j] * jb.coeffs[k, l]
        # keep only total degree <= order
        for i in range(5):
            for j in range(5):
                if i + j > order:
                    conv[i, j] = 0.0
        assert np.allclose(prod.coeffs, conv, rtol=1e-12, atol=1e-15)


def test_partial_of_quadratic_form():
    lam = poly_to_jet(Poly2({(0, 2): 3.0, (2, 0): 1.0}), ORIGIN, 3)
    d2 = lam.partial(2)
    assert d2.coeffs[0, 1] == pytest.approx(6.0)
    assert d2.value == 0.0


def test_partial_of_constant_is_zero():
    c = Jet2.constant(5.0, ORIGIN, 2)
    assert c.partial(1).max_abs_coeff() == 0.0


def test_partial_monomial_rule():
    p = poly_to_jet(Poly2({(2, 1): 1.0}), ORIGIN, 3)
    d1 = p.partial(1)
    assert d1.coeffs[1, 1] == pytest.approx(2.0)


def test_partial_exhausts_at_order_zero():
    c = Jet2.constant(1.0, ORIGIN, 0)
    with pytest.raises(JetOrderExhausted):
        c.partial(1)


def test_compose_square_of_sum():
    outer = poly_to_jet(Poly1({2: 1.0}), 0.0, 4)
    inner = poly_to_jet(Poly2({(1, 0): 1.0, (0, 1): 1.0}), ORIGIN, 4)
    out = compose_univariate(outer, inner)
    assert out.coeffs[2, 0] == pytest.approx(1.0)
    assert out.coeffs[1, 1] == pytest.approx(2.0)
    assert out.coeffs[0, 2] == pytest.approx(1.0)
    assert out.value == 0.0


def test_compose_identity_outer(rng):
    inner = Jet2(ORIGIN, rng.uniform(-1, 1, (4, 4)), 3)
    outer = poly_to_jet(Poly1.identity(), inner.value, 6)
    out = compose_univariate(outer, inner)
    assert np.allclose(out.coeffs, inner.coeffs, atol=1e-15)


def test_compose_binomial_cube():
    # y^3 expanded at base 1, substituted with 1 + u1
    outer = poly_to_jet(Poly1({3: 1.0}), 1.0, 6)
    inner = poly_to_jet(Poly2({(0, 0): 1.0, (1, 0): 1.0}), ORIGIN, 4)
    out = compose_univariate(outer, inner)
    assert out.coeffs[0, 0] == pytest.approx(1.0)
    assert out.coeffs[1, 0] == pytest.approx(3.0)
    assert out.coeffs[2, 0] == pytest.approx(3.0)
    assert out.coeffs[3, 0] == pytest.approx(1.0)


def test_compose_base_point_mismatch():
    outer = poly_to_jet(Poly1({2: 1.0}), 5.0, 6)
    inner = poly_to_jet(Poly2({(1, 0): 1.0}), ORIGIN, 3)  # value 0 != 5
    with pytest.raises(CompositionBasePointMismatch):
        compose_univariate(outer, inner)
    # within tolerance is accepted
    near = poly_to_jet(Poly1({2: 1.0}), 0.5 * BASE_MATCH_TOL, 6)
    compose_univariate(near, inner)


def test_compose_outer_order_must_cover_inner():
    outer = poly_to_jet(Poly1({2: 1.0}), 0.0, 2)
    inner = poly_to_jet(Poly2({(1, 0): 1.0}), ORIGIN, 3)
    with pytest.raises(JetOrderExhausted):
        compose_univariate(outer, inner)


def test_det_identity_jacobian():
    one = Jet2.constant(1.0, ORIGIN, 3)
    zero = Jet2.constant(0.0, ORIGIN, 3)
    det = det2x2(one, zero, zero, one)
    assert det.value == pytest.approx(1.0)
    assert det.max_abs_coeff() == pytest.approx(1.0)


def test_det_fold_jacobian():
    one = Jet2.constant(1.0, ORIGIN, 3)
    zero = Jet2.constant(0.0, ORIGIN, 3)
    twov = poly_to_jet(Poly2({(0, 1): 2.0}), ORIGIN, 3)
    det = det2x2(one, zero, zero, twov)
    assert det.coeffs[0, 1] == pytest.approx(2.0)
    assert det.value == 0.0


def test_det_lips_jacobian():
    # Jacobian of (u, v^3 + u^2 v): rows (1, 0) and (2uv, 3v^2 + u^2)
    one = Jet2.constant(1.0, ORIGIN, 3)
    zero = Jet2.constant(0.0, ORIGIN, 3)
    q_u = poly_to_jet(Poly2({(1, 1): 2.0}), ORIGIN, 3)
    q_v = poly_to_jet(Poly2({(0, 2): 3.0, (2, 0): 1.0}), ORIGIN, 3)
    det = det2x2(one, zero, q_u, q_v)
    assert det.coeffs[0, 2] == pytest.approx(3.0)
    assert det.coeffs[2, 0] == pytest.approx(1.0)
    assert det.coeffs[1, 1] == 0.0


def test_poly_to_jet_binomial_shift():
    jet = poly_to_jet(Poly2({(2, 0): 1.0}), (1.0, 0.0), 4)
    assert jet.coeffs[0, 0] == pytest.approx(1.0)
    assert jet.coeffs[1, 0] == pytest.approx(2.0)
    assert jet.coeffs[2, 0] == pytest.approx(1.0)


def test_poly_to_jet_base_point_matches_the_arity():
    # the base point is judged by as_real for one variable, as_point for two
    one, two = "base point must be a finite number", "base point must be two finite numbers"
    with pytest.raises(InvalidSpec, match=rf"^{one}, got \[0.0, 0.0\]$"):
        poly_to_jet(Poly1({2: 1.0}), (0.0, 0.0), 3)
    with pytest.raises(InvalidSpec, match=rf"^{two}, got 0.0$"):
        poly_to_jet(Poly2({(2, 0): 1.0}), 0.0, 3)
    with pytest.raises(InvalidSpec, match=rf"^{two}, got \[0.0, 0.0, 0.0\]$"):
        poly_to_jet(Poly2({(2, 0): 1.0}), (0.0, 0.0, 0.0), 3)


def test_poly_to_jet_constant():
    jet = poly_to_jet(Poly2.constant(5.0), (3.0, -7.0), 2)
    assert jet.value == 5.0
    assert jet.partial(1).max_abs_coeff() == 0.0


def test_poly_to_jet_first_partial_off_origin():
    # v^3 + uv at (1,1): d/dv = 3v^2 + u = 4 there
    jet = poly_to_jet(Poly2({(0, 3): 1.0, (1, 1): 1.0}), (1.0, 1.0), 4)
    assert jet.coeffs[0, 1] == pytest.approx(4.0)


def test_jet_of_product_equals_product_of_jets(rng):
    for _ in range(50):
        p = Poly2({(i, j): rng.uniform(-1, 1) for i in range(5) for j in range(5 - i)})
        q = Poly2({(i, j): rng.uniform(-1, 1) for i in range(5) for j in range(5 - i)})
        base = tuple(rng.uniform(-0.5, 0.5, 2))
        order = 4
        direct = poly_to_jet(p * q, base, order)
        viajets = poly_to_jet(p, base, order) * poly_to_jet(q, base, order)
        scale = max(direct.max_abs_coeff(), 1.0)
        assert np.allclose(direct.coeffs, viajets.coeffs, rtol=0, atol=1e-12 * scale)


def test_first_partials_match_finite_differences(rng):
    h = 1e-4
    for _ in range(50):
        p = Poly2({(i, j): rng.uniform(-1, 1) for i in range(5) for j in range(5 - i)})
        base = tuple(rng.uniform(-0.5, 0.5, 2))
        jet = poly_to_jet(p, base, 4)
        fd1 = (p((base[0] + h, base[1])) - p((base[0] - h, base[1]))) / (2 * h)
        fd2 = (p((base[0], base[1] + h)) - p((base[0], base[1] - h))) / (2 * h)
        assert jet.deriv(1, 0) == pytest.approx(fd1, rel=1e-6, abs=1e-6)
        assert jet.deriv(0, 1) == pytest.approx(fd2, rel=1e-6, abs=1e-6)


def test_chain_rule_coefficientwise(rng):
    for _ in range(50):
        outer_poly = Poly1({k: rng.uniform(-1, 1) for k in range(5)})
        inner_poly = Poly2(
            {(i, j): rng.uniform(-1, 1) for i in range(4) for j in range(4 - i)}
        )
        base = tuple(rng.uniform(-0.5, 0.5, 2))
        inner = poly_to_jet(inner_poly, base, 4)
        outer = poly_to_jet(outer_poly, inner.value, 6)
        lhs = compose_univariate(outer, inner).partial(1)
        douter = poly_to_jet(outer_poly.derivative(), inner.value, 6)
        rhs = compose_univariate(douter, inner.truncate(3)) * inner.partial(1)
        scale = max(lhs.max_abs_coeff(), 1.0)
        assert np.allclose(lhs.coeffs, rhs.coeffs, rtol=0, atol=1e-12 * scale)


def test_jets_are_immutable():
    jet = Jet2.constant(1.0, ORIGIN, 2)
    with pytest.raises(ValueError):
        jet.coeffs[0, 0] = 2.0
    j1 = poly_to_jet(Poly1({1: 2.0, 0: 1.0}), 0.0, 1)
    with pytest.raises(ValueError):
        j1.coeffs[0, 0] = 0.0


def test_mixed_base_points_rejected():
    a = Jet2.constant(1.0, (0.0, 0.0), 2)
    b = Jet2.constant(1.0, (1.0, 0.0), 2)
    with pytest.raises(InvalidJetCombination):
        _ = a + b
    with pytest.raises(InvalidJetCombination):
        _ = a * b


def test_mixed_orders_rejected():
    a = Jet2.constant(1.0, ORIGIN, 2)
    b = Jet2.constant(1.0, ORIGIN, 3)
    with pytest.raises(InvalidJetCombination):
        _ = a + b


def test_jet1_deriv_values():
    p = Poly1({3: 1.0, 1: 2.0})
    jet = poly_to_jet(p, 2.0, 6)
    assert jet.deriv(0, 0) == pytest.approx(p(2.0))
    assert jet.deriv(1, 0) == pytest.approx(3 * 4.0 + 2.0)
    assert jet.deriv(2, 0) == pytest.approx(12.0)
    assert jet.deriv(3, 0) == pytest.approx(6.0)
    with pytest.raises(JetOrderExhausted):
        jet.deriv(7, 0)


def test_compose_map_linear_shear():
    # outer (x, y) -> x*y at (0,0), inner = (u1 + u2, u1 - u2)
    outer = poly_to_jet(Poly2({(1, 1): 1.0}), ORIGIN, 3)
    i1 = poly_to_jet(Poly2({(1, 0): 1.0, (0, 1): 1.0}), ORIGIN, 3)
    i2 = poly_to_jet(Poly2({(1, 0): 1.0, (0, 1): -1.0}), ORIGIN, 3)
    out = compose_map(outer, i1, i2)
    assert out.coeffs[2, 0] == pytest.approx(1.0)
    assert out.coeffs[0, 2] == pytest.approx(-1.0)
    assert abs(out.coeffs[1, 1]) < 1e-15


def _partial_reference(jet, axis):
    """Jet2.partial as the loop over rows it was before the table slice."""
    n = jet.order
    out = np.zeros((n, n))
    if axis == 1:
        for i in range(1, n + 1):
            out[i - 1, : n + 1 - i] = i * jet.coeffs[i, : n + 1 - i]
    else:
        for j in range(1, n + 1):
            out[: n + 1 - j, j - 1] = j * jet.coeffs[: n + 1 - j, j]
    return Jet2(jet.base_point, out, n - 1)


def _random_jet(rng, order):
    table = rng.uniform(-3.0, 3.0, (order + 1, order + 1)) * 10.0 ** rng.integers(-8, 9)
    table[rng.random(table.shape) < 0.3] = 0.0  # sparse entries, as jets of low-degree maps
    table[rng.random(table.shape) < 0.1] = -0.0
    return Jet2(tuple(rng.uniform(-2.0, 2.0, 2)), table, order)


def test_partial_matches_row_loop_bit_for_bit(rng):
    for order in range(1, 7):
        for _ in range(20):
            jet = _random_jet(rng, order)
            for axis in (1, 2):
                got, ref = jet.partial(axis), _partial_reference(jet, axis)
                assert got.order == ref.order and got.base_point == ref.base_point
                assert got.coeffs.tobytes() == ref.coeffs.tobytes()


def test_operation_results_hold_normal_tables(rng):
    # an operation wraps the table it computed: square, read-only, owned,
    # and +0.0 beyond the order, as the constructor would leave it
    for order in range(0, 6):
        for _ in range(10):
            a = _random_jet(rng, order)
            b = Jet2(a.base_point, _random_jet(rng, order).coeffs, order)
            results = [-a, a + b, a - b, a * b, a * -2.5, a + 1.5, 1.5 - a]
            results += [a.truncate(k) for k in range(order + 1)]
            if order:
                results += [a.partial(1), a.partial(2)]
            for r in results:
                assert r.coeffs.shape == (r.order + 1, r.order + 1)
                assert r.coeffs.tobytes() == Jet2(r.base_point, r.coeffs, r.order).coeffs.tobytes()
                assert not r.coeffs.flags.writeable
                assert not any(np.shares_memory(r.coeffs, o.coeffs) for o in (a, b))


def _compose_map_reference(outer, inner1, inner2):
    """compose_map as the per-term Jet2 arithmetic it was before it ran on tables."""
    base = inner1.base_point
    n = min(outer.order, inner1.order, inner2.order)
    x = (inner1 - inner1.value).truncate(n)
    y = (inner2 - inner2.value).truncate(n)
    xp = [Jet2.constant(1.0, base, n)]
    yp = [Jet2.constant(1.0, base, n)]
    for _ in range(n):
        xp.append(xp[-1] * x)
        yp.append(yp[-1] * y)
    result = Jet2.constant(0.0, base, n)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            c = outer.coeffs[i, j]
            if c != 0.0:
                result = result + (xp[i] * yp[j]) * c
    return result


def _assert_same_bits(got, ref):
    assert got.order == ref.order and got.base_point == ref.base_point
    assert np.array_equal(got.coeffs, ref.coeffs)
    assert np.array_equal(np.signbit(got.coeffs), np.signbit(ref.coeffs))


def _degree3_change(rng):
    """Degree-3 polynomial map of the plane fixing 0, invertible linear part."""
    while True:
        L = rng.uniform(-1.0, 1.0, (2, 2))
        if 0.5 <= abs(np.linalg.det(L)) <= 2.0:
            break
    comps = []
    for row in range(2):
        terms = {(1, 0): L[row, 0], (0, 1): L[row, 1]}
        for i in range(4):
            for j in range(4 - i):
                if i + j >= 2:
                    terms[(i, j)] = rng.uniform(-0.5, 0.5)
        comps.append(Poly2(terms))
    return comps


def test_compose_map_matches_per_term_reference_bit_for_bit(rng):
    # the two compositions of conjugate_by_diffeos, each normal form taken
    # through a source change at a base point p and then a target change,
    # with the outer and both inner orders drawn independently
    for _ in range(50):
        source, target = _degree3_change(rng), _degree3_change(rng)
        for p in (ORIGIN, (0.3, -0.7), (-1.25, 0.5)):
            q = (source[0](p), source[1](p))
            for name in BUILTIN_GERMS:
                o1, o2, o3, o4, o5 = (int(k) for k in rng.integers(2, 6, 5))
                inner = (poly_to_jet(source[0], p, o1), poly_to_jet(source[1], p, o2))
                mid = []
                for comp in builtin_germ(name).components:
                    outer = poly_to_jet(comp, q, o3)
                    got = compose_map(outer, *inner)
                    _assert_same_bits(got, _compose_map_reference(outer, *inner))
                    mid.append(got - got.value)
                for comp, order in zip(target, (o4, o5)):
                    outer = poly_to_jet(comp, ORIGIN, order)
                    _assert_same_bits(compose_map(outer, *mid), _compose_map_reference(outer, *mid))
    # inner tables holding -0.0, whose sign subtracting the value clears
    for order in range(0, 6):
        for _ in range(20):
            inner = (_random_jet(rng, order), _random_jet(rng, order))
            inner = (inner[0], Jet2(inner[0].base_point, inner[1].coeffs, order))
            outer = _random_jet(rng, int(rng.integers(order, 7)))
            outer = Jet2((inner[0].value, inner[1].value), outer.coeffs, outer.order)
            _assert_same_bits(compose_map(outer, *inner), _compose_map_reference(outer, *inner))


def test_the_stacked_sum_of_terms_is_the_per_term_loop(rng):
    # compose sums the terms of every outer in one reduction over a stacked
    # (outer, term) array.  Beneath that axis lie (n+1)-square tables, so
    # NumPy adds whole tables one term after another from 0.0, as the loop
    # over terms it replaced did, with every zero's sign.  (At order 0 a
    # term is one number, the term axis is the inner loop and NumPy sums it
    # pairwise; but at order 0 an outer reads one term at most.)
    for n in range(1, 7):
        for _ in range(40):
            count, outers = int(rng.integers(0, (n + 1) * (n + 2) // 2 + 1)), int(rng.integers(1, 4))
            terms = rng.uniform(-1.0, 1.0, (count, n + 1, n + 1))
            terms *= 10.0 ** rng.integers(-3, 4, (count, 1, 1))
            terms[rng.random(terms.shape) < 0.3] = 0.0
            terms[rng.random(terms.shape) < 0.2] = -0.0
            if count >= 2:  # terms that cancel exactly
                terms[1] = -terms[0]
            coeffs = rng.uniform(-2.0, 2.0, (outers, count))
            coeffs[rng.random(coeffs.shape) < 0.3] = 0.0
            coeffs[rng.random(coeffs.shape) < 0.1] = -0.0
            stacked = np.add.reduce(terms * coeffs[:, :, None, None], axis=1, initial=0.0)
            loop = np.zeros((outers, n + 1, n + 1))
            for k in range(count):
                loop += terms[k] * coeffs[:, k, None, None]
            assert stacked.tobytes() == loop.tobytes()


@pytest.mark.parametrize(
    "inner_scale,outer_coeff",
    [(1e200, 1.0), (1e70, 1e100)],  # an overflowing power, an overflowing term
)
def test_compose_map_overflow_raises_like_the_reference(inner_scale, outer_coeff):
    inner = (
        poly_to_jet(Poly2({(1, 0): inner_scale, (0, 1): 1.0}), ORIGIN, 4),
        poly_to_jet(Poly2({(1, 0): 1.0, (0, 1): 1.0}), ORIGIN, 4),
    )
    outer = poly_to_jet(Poly2({(4, 0): outer_coeff, (0, 1): 1.0}), ORIGIN, 4)
    for compose in (compose_map, _compose_map_reference):
        with pytest.raises(InvalidSpec, match="jet coefficients must be finite"):
            with np.errstate(over="ignore"):
                compose(outer, *inner)


@pytest.mark.parametrize(
    "op",
    [lambda j: j + j, lambda j: j * 1e10, lambda j: 1e308 + j, lambda j: j - (-j), lambda j: j * j],
    ids=["sum", "scaled", "number-plus-jet", "difference", "product"],
)
def test_a_jet_sum_or_product_that_overflows_raises_without_a_warning(op):
    j = Jet2(ORIGIN, [[1e308, 0.0], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpec, match="jet coefficients must be finite"):
            op(j)


def test_compose_map_cuts_an_overflow_beyond_the_order():
    # x = u1 + 1e200 u1^2 u2^2: the (4, 4) entry of x^2 overflows, but it
    # lies beyond order 4 and is cut before any finiteness check
    inner = (
        poly_to_jet(Poly2({(1, 0): 1.0, (2, 2): 1e200}), ORIGIN, 4),
        poly_to_jet(Poly2({(0, 1): 1.0}), ORIGIN, 4),
    )
    outer = poly_to_jet(Poly2({(2, 0): 1.0, (2, 1): 3.0, (0, 1): 1.0}), ORIGIN, 4)
    with np.errstate(over="ignore"):
        _assert_same_bits(compose_map(outer, *inner), _compose_map_reference(outer, *inner))


def test_compose_map_never_forms_a_power_no_coefficient_reads():
    # x = 1e200 u1 + u2 overflows in x^2, but the outer x + y reads only
    # x and y, so the composite is finite
    inner = (
        poly_to_jet(Poly2({(1, 0): 1e200, (0, 1): 1.0}), ORIGIN, 4),
        poly_to_jet(Poly2({(1, 0): 1.0, (0, 1): 1.0}), ORIGIN, 4),
    )
    outer = poly_to_jet(Poly2({(1, 0): 1.0, (0, 1): 1.0}), ORIGIN, 4)
    got = compose_map(outer, *inner)
    want = np.zeros((5, 5))
    want[1, 0], want[0, 1] = 1e200, 2.0
    assert got.coeffs.tobytes() == want.tobytes()


def test_a_conjugation_forms_only_the_powers_its_outers_read(monkeypatch):
    # the cusp (u, v^3 + u v) through a source and a target change of
    # degree 3, at order 4.  The source step reads x^1 and y^3 at most, so
    # it forms y^2, y^3 and the cross term x y; the target step reads x^2
    # and y^3 at most, so it forms x^2, y^2, y^3 and the cross terms x y
    # and x y^2.  Every power up to the order would add x^2, x^3 and x^4
    # to the first step, and x^3, x^4 and y^4 to the second.
    change = [
        Poly2({(1, 0): 1.0, (0, 1): 0.5, (2, 0): 0.25, (1, 2): -0.5}),
        Poly2({(1, 0): -0.25, (0, 1): 1.0, (0, 3): 0.5, (1, 1): 0.25}),
    ]
    calls = []
    convolve = np.convolve

    def counted(a, b):
        calls.append(None)
        return convolve(a, b)

    monkeypatch.setattr(np, "convolve", counted)
    conjugate_by_diffeos(builtin_germ("cusp"), change, change)
    assert len(calls) == 3 + 5


class Jet1Reference:
    """Reference: the one-variable jet class a Poly1's jet was before it
    became a Jet2 in u1 alone; coeffs[k] multiplies (y - base)**k."""

    def __init__(self, base_point, coeffs, order=None):
        c = np.asarray(coeffs, dtype=float).copy()
        if order is None:
            order = len(c) - 1
        if len(c) != order + 1:
            full = np.zeros(order + 1)
            full[: min(len(c), order + 1)] = c[: order + 1]
            c = full
        if not np.isfinite(c).all():
            raise InvalidSpec("jet coefficients must be finite")
        self.base_point = float(base_point)
        self.order = int(order)
        self.coeffs = c

    @classmethod
    def of_poly1(cls, p, base, order):
        # poly_to_jet of a Poly1 as it was: the recentred column of its Poly2
        base = float(base)
        return cls(base, p.poly2.recentered_coeffs((base, 0.0), order)[:, 0], order)

    @property
    def value(self):
        return float(self.coeffs[0])

    def deriv(self, k):
        if k > self.order:
            raise JetOrderExhausted(f"order {self.order} jet has no k={k} derivative")
        return float(self.coeffs[k] * math.factorial(k))


def _zero_like(jet):
    """The zero jet at jet's base point and order: the second inner with
    which compose_map composes as compose_univariate."""
    return Jet2.constant(0.0, jet.base_point, jet.order)


def _xi_autodiff_reference(prob, u):
    """xi_autodiff with its compositions taken by the per-term reference."""
    phi4 = poly_to_jet(prob.phi, u, 4)
    phi3 = phi4.truncate(3)
    y0 = phi4.value
    zero = _zero_like(phi3)
    a = _compose_map_reference(poly_to_jet(prob.f1.derivative(2), y0, 3), phi3, zero)
    b = _compose_map_reference(poly_to_jet(prob.f2.derivative(2), y0, 3), phi3, zero)
    tau = a * phi4.partial(1) + b * phi4.partial(2)
    t11, t12, t22 = tau.deriv(2, 0), tau.deriv(1, 1), tau.deriv(0, 2)
    return (-tau.deriv(1, 0), -tau.deriv(0, 1), t11 * t22 - t12 * t12)


def _random_poly1(rng, max_degree=8):
    n = int(rng.integers(0, max_degree + 1))
    keep = rng.random(n + 1) < 0.7
    return Poly1({k: float(rng.uniform(-2.0, 2.0)) for k in range(n + 1) if keep[k]})


def test_poly1_jet_is_the_old_jet1_in_column_zero(rng):
    for _ in range(300):
        p = _random_poly1(rng)
        base = float(rng.choice([0.0, -0.0, rng.uniform(-1.5, 1.5)]))
        order = int(rng.integers(0, 8))
        jet, ref = poly_to_jet(p, base, order), Jet1Reference.of_poly1(p, base, order)
        assert jet.base_point == (base, 0.0) and jet.order == ref.order
        assert jet.coeffs[:, 0].tobytes() == ref.coeffs.tobytes()
        # every other entry is +0.0
        assert jet.coeffs[:, 1:].tobytes() == np.zeros((order + 1, order)).tobytes()
        for k in range(order + 1):
            assert np.float64(jet.deriv(k, 0)).tobytes() == np.float64(ref.deriv(k)).tobytes()


def test_compose_univariate_matches_the_per_term_reference_bit_for_bit(rng):
    for _ in range(300):
        p = _random_poly1(rng)
        n = int(rng.integers(0, 6))
        if rng.random() < 0.5:
            inner = _random_jet(rng, n)  # with -0.0 entries
        else:
            inner_poly = Poly2(
                {(i, j): rng.uniform(-1.0, 1.0) for i in range(4) for j in range(4 - i)}
            )
            inner = poly_to_jet(inner_poly, tuple(rng.uniform(-1.0, 1.0, 2)), n)
        m = n + int(rng.integers(0, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                want = _compose_map_reference(
                    poly_to_jet(p, inner.value, m), inner, _zero_like(inner)
                )
            except InvalidSpec:
                with pytest.raises(InvalidSpec):
                    compose_univariate(poly_to_jet(p, inner.value, m), inner)
                continue
            got = compose_univariate(poly_to_jet(p, inner.value, m), inner)
        _assert_same_bits(got, want)


def test_xi_autodiff_matches_the_per_term_reference_bit_for_bit(rng):
    for _ in range(60):
        prob = ConsLawProblem(
            Poly1({k: rng.uniform(-1, 1) for k in range(6)}),
            Poly1({k: rng.uniform(-1, 1) for k in range(6)}),
            Poly2({(i, j): rng.uniform(-1, 1) for i in range(5) for j in range(5 - i)}),
        )
        for _ in range(5):
            u = tuple(rng.uniform(-0.9, 0.9, 2))
            got, want = xi_autodiff(prob, u), _xi_autodiff_reference(prob, u)
            assert np.array(got).tobytes() == np.array(want).tobytes()


def test_compose_univariate_rejects_an_outer_jet_in_u2():
    inner = poly_to_jet(Poly2({(1, 0): 1.0, (0, 1): 1.0}), ORIGIN, 3)
    for outer_poly in (Poly2({(1, 0): 1.0, (1, 1): 1.0}), Poly2({(0, 1): 1.0})):
        outer = poly_to_jet(outer_poly, ORIGIN, 3)
        with pytest.raises(InvalidJetCombination):
            compose_univariate(outer, inner)
    # an outer in u1 alone composes, wherever it came from
    out = compose_univariate(poly_to_jet(Poly2({(2, 0): 1.0}), ORIGIN, 3), inner)
    assert out.coeffs[1, 1] == 2.0
