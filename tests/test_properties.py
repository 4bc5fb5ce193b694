"""Property-based checks of the Poly2 table kernel, the jets built on it,
and the classification that reads them.

Each tolerance is fixed from float64 rounding: a computed coefficient
is a sum of at most a few hundred rounded terms, so it lies within
1e-13 of the exact value relative to the sum of the terms' absolute
values.  That sum is the same computation run on absolute values,
which bounds every term from above.  Results below the normal range
also carry an absolute error of at most a few 2**-1074, which ABS_TOL
covers.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from planesing.germs import (
    BEAKS,
    CUSP,
    FOLD,
    IMMERSION,
    LIPS,
    SWALLOWTAIL,
    builtin_germ,
    classify,
    conjugate_by_diffeos,
)
from planesing.jets import compose_map, poly_to_jet
from planesing.poly import Poly2

REL_TOL = 1e-13
ABS_TOL = 1e-300

coefficients = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
points = st.tuples(coefficients, coefficients)


@st.composite
def polys(draw, max_degree=6):
    d = draw(st.integers(0, max_degree))
    exps = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    values = draw(st.lists(coefficients, min_size=len(exps), max_size=len(exps)))
    return Poly2(dict(zip(exps, values)))


def magnitude(p: Poly2) -> Poly2:
    return Poly2({e: abs(c) for e, c in p.coeffs.items()})


def padded(p: Poly2, shape) -> np.ndarray:
    out = np.zeros(shape)
    out[: p.table.shape[0], : p.table.shape[1]] = p.table
    return out


@settings(max_examples=200, deadline=None)
@given(polys(), points)
def test_shift_then_shift_back_is_identity(p, base):
    back = p.shift(base).shift((-base[0], -base[1]))
    # |B(-d)| = B(|d|), so shifting |p| twice by |base| bounds every term
    far = (abs(base[0]), abs(base[1]))
    bound = magnitude(p).shift(far).shift(far).table
    err = np.abs(padded(back, bound.shape) - padded(p, bound.shape))
    assert np.all(err <= REL_TOL * bound + ABS_TOL)


@settings(max_examples=200, deadline=None)
@given(polys(), polys(), points, st.integers(0, 6))
def test_poly_to_jet_is_a_ring_homomorphism(p, q, base, order):
    jp, jq = poly_to_jet(p, base, order), poly_to_jet(q, base, order)
    far = (abs(base[0]), abs(base[1]))
    sum_bound = poly_to_jet(magnitude(p) + magnitude(q), far, order).coeffs
    prod_bound = poly_to_jet(magnitude(p) * magnitude(q), far, order).coeffs
    assert np.all(np.abs(poly_to_jet(p + q, base, order).coeffs - (jp + jq).coeffs)
                  <= REL_TOL * sum_bound + ABS_TOL)
    assert np.all(np.abs(poly_to_jet(p * q, base, order).coeffs - (jp * jq).coeffs)
                  <= REL_TOL * prod_bound + ABS_TOL)


def composed(g: Poly2, p: Poly2, q: Poly2) -> Poly2:
    """g(p, q) as one polynomial, by products of the tables."""
    out = Poly2.constant(0.0)
    for (i, j), c in g.coeffs.items():
        term = Poly2.constant(c)
        for _ in range(i):
            term = term * p
        for _ in range(j):
            term = term * q
        out = out + term
    return out


@settings(max_examples=100, deadline=None)
@given(polys(3), polys(3), polys(3), points, st.integers(0, 4))
def test_compose_map_is_the_jet_of_the_composition(g, p, q, base, order):
    jp, jq = poly_to_jet(p, base, order), poly_to_jet(q, base, order)
    outer = poly_to_jet(g, (jp.value, jq.value), order)
    got = compose_map(outer, jp, jq).coeffs
    want = poly_to_jet(composed(g, p, q), base, order).coeffs
    # every term of either side is bounded by the same composition of
    # absolute values, taken at |base|
    far = (abs(base[0]), abs(base[1]))
    bound = poly_to_jet(composed(magnitude(g), magnitude(p), magnitude(q)), far, order).coeffs
    assert np.all(np.abs(got - want) <= REL_TOL * bound + ABS_TOL)


#: the class of each builtin normal form
NORMAL_FORM_CLASSES = {
    "immersion": IMMERSION,
    "fold": FOLD,
    "cusp": CUSP,
    "lips": LIPS,
    "beaks": BEAKS,
    "swallowtail": SWALLOWTAIL,
}


@st.composite
def coordinate_changes(draw):
    """A polynomial map of the plane fixing the origin: a rotation times
    diag(s1, s2), s in [0.5, 2], plus terms of degree 2 and 3."""
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    s1, s2 = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    linear = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    ) @ np.diag([s1, s2])
    higher = [(i, d - i) for d in (2, 3) for i in range(d + 1)]
    components = []
    for row in linear:
        terms = {(1, 0): float(row[0]), (0, 1): float(row[1])}
        for e in higher:
            terms[e] = draw(st.floats(-0.5, 0.5))
        components.append(Poly2(terms))
    return tuple(components)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(NORMAL_FORM_CLASSES)), coordinate_changes(), coordinate_changes())
def test_a_conjugated_normal_form_classifies_as_its_own_class(name, source, target):
    germ = conjugate_by_diffeos(builtin_germ(name), source, target)
    assert classify(germ).singularity_class == NORMAL_FORM_CLASSES[name]
