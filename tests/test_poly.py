import math

import numpy as np
import pytest

from planesing.poly import InvalidSpec, Poly1, Poly2, poly_from_spec, poly_to_spec


def test_poly1_evaluation_and_degree():
    p = Poly1({0: 1.0, 2: -3.0, 5: 2.0})
    assert p.degree() == 5
    assert p(2.0) == pytest.approx(1.0 - 12.0 + 64.0)
    assert Poly1.constant(4.0)(123.0) == 4.0
    assert Poly1.identity()(7.5) == 7.5


def test_poly1_derivative():
    p = Poly1({3: 1.0, 1: 2.0})  # y^3 + 2y
    dp = p.derivative()
    assert dp.coeffs == {2: 3.0, 0: 2.0}
    assert p.derivative(2).coeffs == {1: 6.0}
    assert p.derivative(4).is_zero()


def test_poly1_arith():
    p = Poly1({1: 1.0})
    q = Poly1({0: 1.0, 1: -1.0})
    assert (p + q).coeffs == {0: 1.0}
    assert (p * q).coeffs == {1: 1.0, 2: -1.0}
    assert (-p).coeffs == {1: -1.0}
    assert (p - p).is_zero()


def test_poly1_recentering_is_binomial():
    p = Poly1({2: 1.0})  # y^2 at base 1 -> 1 + 2w + w^2
    assert p.recentered_coeffs(1.0, 3) == pytest.approx([1.0, 2.0, 1.0, 0.0])


def test_poly1_compose2():
    outer = Poly1({2: 1.0})
    inner = Poly2({(1, 0): 1.0, (0, 1): 1.0})
    out = outer.compose2(inner)
    assert out.coeffs == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}


def test_poly2_partials_and_eval():
    p = Poly2({(2, 1): 1.0, (0, 3): -2.0})
    assert p((2.0, -1.0)) == pytest.approx(-4.0 + 2.0)
    assert p.partial(1).coeffs == {(1, 1): 2.0}
    assert p.partial(2).coeffs == {(2, 0): 1.0, (0, 2): -6.0}


def test_poly2_eval_grid_matches_pointwise(rng):
    p = Poly2({(i, j): rng.uniform(-1, 1) for i in range(4) for j in range(4 - i)})
    u1 = np.linspace(-1.0, 1.0, 7)
    u2 = np.linspace(-0.5, 0.5, 5)
    grid = p.eval_grid(u1[:, None], u2[None, :])
    assert grid.shape == (7, 5)
    for i, a in enumerate(u1):
        for j, b in enumerate(u2):
            assert grid[i, j] == pytest.approx(p((a, b)), abs=1e-14)


def test_poly2_call_on_arrays_matches_pointwise_bits(rng):
    p = Poly2({(i, j): rng.uniform(-1, 1) for i in range(5) for j in range(5 - i)})
    pts = rng.uniform(-2.0, 2.0, (9, 2))
    values = p(pts.T)
    assert isinstance(values, np.ndarray) and values.shape == (9,)
    assert isinstance(p(pts[0]), float)
    for v, pt in zip(values, pts):
        assert v.tobytes() == np.float64(p(pt)).tobytes()
    assert p((pts[:, :1], pts[:, 1:])).shape == (9, 1)


def test_poly2_shift():
    p = Poly2({(2, 0): 1.0, (1, 1): 1.0})  # u^2 + uv
    q = p.shift((1.0, -2.0))  # p(1+w1, -2+w2) as polynomial in (w1, w2)
    for w in [(0.0, 0.0), (0.3, 0.7), (-1.2, 0.4)]:
        assert q(w) == pytest.approx(p((1.0 + w[0], -2.0 + w[1])), abs=1e-12)


def test_poly2_recentered_coeffs_shape():
    p = Poly2({(3, 1): 2.0})
    table = p.recentered_coeffs((0.5, 0.5), 4)
    assert table.shape == (5, 5)
    # entry (i, j) must be the Taylor coefficient: partial / (i! j!)
    assert table[3, 1] == pytest.approx(2.0)
    assert table[0, 0] == pytest.approx(p((0.5, 0.5)))


def test_spec_round_trip():
    spec = {"vars": 2, "terms": [{"c": 3.0, "e": [0, 2]}, {"c": -1.0, "e": [1, 0]}]}
    p = poly_from_spec(spec)
    assert isinstance(p, Poly2)
    back = poly_to_spec(p)
    assert poly_from_spec(back).coeffs == p.coeffs


def test_spec_duplicate_terms_sum():
    spec = {"vars": 1, "terms": [{"c": 1.0, "e": [2]}, {"c": 2.0, "e": [2]}]}
    assert poly_from_spec(spec).coeffs == {2: 3.0}


@pytest.mark.parametrize(
    "bad",
    [
        {"vars": 3, "terms": []},
        {"terms": []},
        {"vars": 2, "terms": [{"c": 1.0, "e": [1]}]},
        {"vars": 1, "terms": [{"c": 1.0, "e": [-1]}]},
        {"vars": 1, "terms": [{"c": math.inf, "e": [1]}]},
        {"vars": 2, "terms": [{"c": 1.0}]},
        "not a mapping",
    ],
)
def test_spec_rejects_malformed(bad):
    with pytest.raises(InvalidSpec):
        poly_from_spec(bad)
