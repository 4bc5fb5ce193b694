import gc
import math
import os
import subprocess
import sys
import warnings
import weakref
from collections.abc import Mapping

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from planesing import poly
from planesing.jets import poly_to_jet
from planesing.parsing import parse_curve
from planesing.poly import (
    MAX_INPUT_DEGREE,
    HornerStack,
    InvalidSpec,
    Poly1,
    Poly2,
    finite,
    naming_overflow,
    poly_from_spec,
    poly_to_spec,
    quote,
)

#: Bound on |dense - sparse| relative to the sum of the absolute values
#: of the terms behind each coefficient, fixed from float64 rounding: a
#: sum of n rounded terms is off by at most about n * 1.1e-16 of that
#: sum, and no coefficient below sums more than 153 terms (a product of
#: two degree-16 tables; a shift sums at most 17 * 17), so each side is
#: within 1.7e-14 of the exact value.
REF_REL_TOL = 1e-13

# Sparse reference implementations: the dict loops Poly2 used before
# it stored a dense table.


def sparse_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (ia, ja), ca in a.items():
        for (ib, jb), cb in b.items():
            e = (ia + ib, ja + jb)
            out[e] = out.get(e, 0.0) + ca * cb
    return out


def sparse_shift(coeffs: dict, base) -> dict:
    d1, d2 = float(base[0]), float(base[1])
    out: dict = {}
    for (i, j), c in coeffs.items():
        for a in range(i + 1):
            for b in range(j + 1):
                w = c * math.comb(i, a) * math.comb(j, b) * d1 ** (i - a) * d2 ** (j - b)
                if w != 0.0:
                    out[(a, b)] = out.get((a, b), 0.0) + w
    return out


def sparse_recentered(coeffs: dict, base, order: int) -> np.ndarray:
    d1, d2 = float(base[0]), float(base[1])
    out = np.zeros((order + 1, order + 1))
    for (i, j), c in coeffs.items():
        for a in range(min(i, order) + 1):
            for b in range(min(j, order - a) + 1):
                out[a, b] += c * math.comb(i, a) * math.comb(j, b) * d1 ** (i - a) * d2 ** (j - b)
    return out


def random_coeffs(rng, degree: int) -> dict:
    return {(i, j): rng.uniform(-1, 1) for i in range(degree + 1) for j in range(degree + 1 - i)}


def absolute(coeffs: dict) -> dict:
    return {e: abs(c) for e, c in coeffs.items()}


def assert_close_to_reference(got: dict, ref: dict, bound: dict):
    for e in set(got) | set(ref):
        err = abs(got.get(e, 0.0) - ref.get(e, 0.0))
        assert err <= REF_REL_TOL * bound.get(e, 0.0), (e, err, bound.get(e, 0.0))


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


def test_poly1_recentering_is_binomial():
    p = Poly1({2: 1.0})  # y^2 at base 1 -> 1 + 2w + w^2
    assert poly_to_jet(p, 1.0, 3).coeffs[:, 0] == pytest.approx([1.0, 2.0, 1.0, 0.0])


def test_poly1_compose2():
    outer = Poly1({2: 1.0})
    inner = Poly2({(1, 0): 1.0, (0, 1): 1.0})
    out = outer.compose2(inner)
    assert out.coeffs == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}


class DictPoly1:
    """Reference: Poly1 as it was before it became a one-column Poly2,
    its coefficients in a {k: c} dict with dict loops for arithmetic."""

    def __init__(self, coeffs=None):
        clean: dict[int, float] = {}
        for k, c in (coeffs or {}).items():
            if c != 0.0:
                clean[int(k)] = clean.get(int(k), 0.0) + float(c)
        self.coeffs = {k: c for k, c in clean.items() if c != 0.0}

    def derivative(self, m: int = 1) -> "DictPoly1":
        p = self
        for _ in range(m):
            p = DictPoly1({k - 1: c * k for k, c in p.coeffs.items() if k >= 1})
        return p

    def __call__(self, y: float) -> float:
        return float(sum(c * y**k for k, c in self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return DictPoly1(out)

    def __mul__(self, other):
        if isinstance(other, float):
            return DictPoly1({k: c * other for k, c in self.coeffs.items()})
        out: dict[int, float] = {}
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                out[ka + kb] = out.get(ka + kb, 0.0) + ca * cb
        return DictPoly1(out)

    def compose2(self, inner: Poly2) -> Poly2:
        n = max(self.coeffs, default=0)
        dense = [self.coeffs.get(k, 0.0) for k in range(n + 1)]
        out = Poly2.constant(dense[n])
        for k in range(n - 1, -1, -1):
            out = out * inner + Poly2.constant(dense[k])
        return out

    def recentered_coeffs(self, base: float, order: int) -> list[float]:
        out = [0.0] * (order + 1)
        for k, c in self.coeffs.items():
            for a in range(min(k, order) + 1):
                out[a] += c * math.comb(k, a) * base ** (k - a)
        return out


def random_poly1_coeffs(rng, max_degree: int = MAX_INPUT_DEGREE) -> dict:
    """Ascending {k: c} with random gaps; sometimes empty."""
    n = int(rng.integers(0, max_degree + 1))
    keep = rng.random(n + 1) < 0.7
    return {k: float(rng.uniform(-2.0, 2.0)) for k in range(n + 1) if keep[k]}


def test_poly1_matches_the_dict_reference_bit_for_bit(rng):
    inner = Poly2({(1, 0): 0.7, (0, 1): -1.3, (1, 1): 0.4, (0, 0): 0.2})
    for _ in range(300):
        c = random_poly1_coeffs(rng)
        p, ref = Poly1(c), DictPoly1(c)
        assert p.coeffs == ref.coeffs
        assert p.degree() == max(ref.coeffs, default=0)
        assert p.is_zero() == (not ref.coeffs)
        assert p.max_abs_coeff() == max(map(abs, ref.coeffs.values()), default=0.0)
        for y in (0.0, -0.0, 1.0, -1.0, *rng.uniform(-3.0, 3.0, 4)):
            assert np.float64(p(y)).tobytes() == np.float64(ref(y)).tobytes()
        for m in range(5):
            assert p.derivative(m).coeffs == ref.derivative(m).coeffs
            y = float(rng.uniform(-2.0, 2.0))
            assert np.float64(p.derivative(m)(y)).tobytes() == np.float64(ref.derivative(m)(y)).tobytes()
        if p.degree() <= 8:
            assert p.compose2(inner).table.tobytes() == ref.compose2(inner).table.tobytes()


def test_poly1_recentering_matches_the_dict_reference(rng):
    for _ in range(200):
        c = random_poly1_coeffs(rng)
        p, ref, mag = Poly1(c), DictPoly1(c), DictPoly1({k: abs(v) for k, v in c.items()})
        for base in (0.0, float(rng.uniform(-1.5, 1.5))):
            for order in (0, 3, 7):
                got = poly_to_jet(p, base, order).coeffs[:, 0]
                want = np.array(ref.recentered_coeffs(base, order))
                bound = np.array(mag.recentered_coeffs(abs(base), order))
                assert got.shape == (order + 1,)
                assert np.all(np.abs(got - want) <= REF_REL_TOL * bound)
                if base == 0.0:
                    assert got.tobytes() == want.tobytes()


class _PastCap(Exception):
    pass


def _random_curve_expr(rng, depth: int):
    """A random curve expression, its value in DictPoly1 arithmetic formed
    step by step in the order the parser forms it, and the same steps
    taken on absolute values: the bound on each coefficient's terms."""
    one = (DictPoly1({0: 1.0}),) * 2

    def scale(x, s):
        return x[0] * s, x[1] * abs(s)

    def product(a, b):
        if max(a[0].coeffs, default=0) + max(b[0].coeffs, default=0) > MAX_INPUT_DEGREE:
            raise _PastCap
        return a[0] * b[0], a[1] * b[1]

    def factor(d):
        r = rng.random()
        if d > 0 and r < 0.3:
            text, value = expr(d - 1)
            text = f"({text})"
        elif r < 0.65:
            text, value = "t", (DictPoly1({1: 1.0}),) * 2
        else:
            c = float(rng.uniform(0.0, 3.0))
            text, value = repr(c), scale(one, c)
        if rng.random() < 0.3:
            power = int(rng.integers(0, 4))
            out = scale(one, 1.0)
            for _ in range(power):
                out = product(out, value)
            text, value = f"{text}^{power}", out
        return text, value

    def term(d):
        text, value = factor(d)
        for _ in range(int(rng.integers(0, 3))):
            ftext, fvalue = factor(d)
            text, value = f"{text}*{ftext}", product(value, fvalue)
        return text, value

    def expr(d):
        sign = float(rng.choice([-1.0, 1.0]))
        text, value = term(d)
        text, value = ("-" if sign < 0 else "") + text, scale(value, sign)
        for _ in range(int(rng.integers(0, 3))):
            op = str(rng.choice(["+", "-"]))
            ttext, tvalue = term(d)
            tvalue = scale(tvalue, -1.0 if op == "-" else 1.0)
            text, value = f"{text}{op}{ttext}", (value[0] + tvalue[0], value[1] + tvalue[1])
        return text, value

    return expr(depth)


def test_parse_curve_matches_the_reference_products(rng):
    checked = 0
    while checked < 300:
        try:
            (ta, (ra, ma)), (tb, (rb, mb)) = _random_curve_expr(rng, 2), _random_curve_expr(rng, 2)
        except _PastCap:
            continue
        for got, ref, mag in zip(parse_curve(f"{ta}, {tb}"), (ra, rb), (ma, mb)):
            assert set(got.coeffs) <= set(mag.coeffs)
            for k, bound in mag.coeffs.items():
                err = abs(got.coeffs.get(k, 0.0) - ref.coeffs.get(k, 0.0))
                assert err <= REF_REL_TOL * bound, (ta, tb, k)
        checked += 1


def test_poly1_value_does_not_depend_on_the_term_order(rng):
    for _ in range(200):
        c = random_poly1_coeffs(rng)
        y = float(rng.uniform(-3.0, 3.0))
        want = np.float64(Poly1(c)(y)).tobytes()
        for _ in range(3):
            keys = list(rng.permutation(list(c)))
            shuffled = {int(k): c[k] for k in keys}
            assert np.float64(Poly1(shuffled)(y)).tobytes() == want
            spec = {"vars": 1, "terms": [{"c": c[k], "e": [int(k)]} for k in keys]}
            assert np.float64(poly_from_spec(spec)(y)).tobytes() == want


def test_poly1_overflow_raises_invalid_spec():
    p = Poly1({3: 1.0, 1: 2.0})
    with pytest.raises(InvalidSpec):
        p(1e200)
    with pytest.raises(InvalidSpec):
        p.compose2(Poly2({(1, 0): 1e200}))
    assert p(1e100) == 1e300 + 2e100


def test_poly2_constructor_takes_integer_exponents_and_finite_coefficients():
    for coeffs in (
        {(2.5, 0): 1.0},
        {(2.0, 0): 1.0},
        {(True, 0): 1.0},
        {("1", 0): 1.0},
        {(-1, 0): 1.0},
        {(1, 0, 5): 1.0},
        {(1,): 1.0},
        {1: 1.0},
        {(1, 0): "1"},
        {(1, 0): True},
        {(1, 0): math.inf},
        {(1, 0): 10**400},
    ):
        with pytest.raises(InvalidSpec):
            Poly2(coeffs)
    # NumPy scalars are numbers like any other
    p = Poly2({(np.int64(2), np.int32(1)): np.float64(0.5), (1, 0): np.float32(2.0)})
    assert p.table.tobytes() == Poly2({(2, 1): 0.5, (1, 0): 2.0}).table.tobytes()


def _poly2_reference(coeffs):
    """Poly2 built as its constructor did before exact ints and floats
    skipped is_number: every key and coefficient judged one by one."""
    terms = []
    for e, c in (coeffs or {}).items():
        if not (isinstance(e, tuple) and len(e) == 2
                and all(poly.is_number(k, count=True) and k >= 0 for k in e)):
            raise InvalidSpec(f"an exponent key must be two non-negative integers, got {e!r}")
        if not poly.is_number(c):
            raise InvalidSpec(f"coefficient must be a finite number, got {poly.quote(c)}")
        terms.append((int(e[0]), int(e[1]), float(c)))
    rows = max((i for i, _, _ in terms), default=0) + 1
    cols = max((j for _, j, _ in terms), default=0) + 1
    table = np.zeros((rows, cols))
    for i, j, c in terms:
        table[i, j] += c
    return Poly2._of(table)


class _Terms(Mapping):
    """A mapping whose items are the given pairs, a key given twice included."""

    def __init__(self, pairs):
        self.pairs = list(pairs)

    def items(self):
        return self.pairs

    def __getitem__(self, key):
        return dict(self.pairs)[key]

    def __iter__(self):
        return (k for k, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)


#: exponents that are no count, or too large for any table; each huge
#: one fails in np.zeros before it allocates anything
_ODD_EXPONENTS = (True, False, 2.0, -1, "1", None, 2**62, 2**64, 10**30)
_ODD_COEFFICIENTS = (
    -0.0, 0.0, 3, -2, True, np.float64(0.1), np.float32(0.5), np.int64(4), math.nan,
    math.inf, -math.inf, 10**400, "1", None, 1e308, -1e308,
)


def _fuzz_key(rng):
    u = rng.random()
    if u < 0.05:  # not a pair at all
        return [(1, 0, 2), (1,), 1, "u"][int(rng.integers(4))]
    ks = []
    for _ in range(2):
        v = rng.random()
        k = int(rng.integers(0, 6))
        if v < 0.75:
            ks.append(k)
        elif v < 0.85:
            ks.append([np.int64, np.int32, np.uint8][int(rng.integers(3))](k))
        else:
            ks.append(_ODD_EXPONENTS[int(rng.integers(len(_ODD_EXPONENTS)))])
    return tuple(ks)


def _fuzz_coefficient(rng):
    if rng.random() < 0.8:
        return float(rng.uniform(-2.0, 2.0) * 10.0 ** rng.integers(-5, 6))
    return _ODD_COEFFICIENTS[int(rng.integers(len(_ODD_COEFFICIENTS)))]


def _outcome(build, coeffs):
    """(shape, bytes) of the table build makes, or the type and message
    of what it raises."""
    try:
        table = build(coeffs).table
    except Exception as exc:  # noqa: BLE001 - every failure is compared
        return type(exc).__name__, str(exc)
    return table.shape, table.tobytes()


def test_poly2_constructor_matches_the_is_number_reference(rng):
    cases = [
        # a count and its NumPy twin are one dict key: the first key stays,
        # with the last coefficient
        {(1, 0): 1.0, (np.int64(1), 0): 2.0},
        {(np.int64(1), 0): 2.0, (1, 0): 1.0},
        # a key given twice is summed in order, and -0.0 lands as +0.0
        _Terms([((1, 0), 1.0), ((np.int64(1), 0), 2.0), ((0, 0), -0.0)]),
        _Terms([((1, 0), 1e308), ((1, 0), 1e308)]),
        _Terms([((2, 1), 0.1), ((2, 1), 0.2), ((2, 1), -0.3)]),
        {}, None, {(0, 0): -0.0},
    ]
    for _ in range(3000):
        pairs = [(_fuzz_key(rng), _fuzz_coefficient(rng)) for _ in range(int(rng.integers(0, 10)))]
        cases.append(_Terms(pairs) if rng.random() < 0.2 else dict(pairs))
    with np.errstate(over="ignore"):  # a sum that overflows is a case like any other
        for coeffs in cases:
            assert _outcome(Poly2, coeffs) == _outcome(_poly2_reference, coeffs), coeffs


def test_poly2_partials_and_eval():
    p = Poly2({(2, 1): 1.0, (0, 3): -2.0})
    assert p((2.0, -1.0)) == pytest.approx(-4.0 + 2.0)
    assert p.partial(1).coeffs == {(1, 1): 2.0}
    assert p.partial(2).coeffs == {(2, 0): 1.0, (0, 2): -6.0}


def _count_derived_tables(monkeypatch) -> list:
    """Record every table Poly2._of wraps from here on."""
    derived = []
    of = Poly2._of.__func__
    monkeypatch.setattr(Poly2, "_of", classmethod(lambda cls, t: derived.append(t) or of(cls, t)))
    return derived


def test_poly2_keeps_each_partial_it_derives(rng):
    p = Poly2({(i, j): rng.uniform(-1, 1) for i in range(6) for j in range(6 - i)})
    t = p.table
    fresh = {1: t[1:] * np.arange(1, t.shape[0])[:, None], 2: t[:, 1:] * np.arange(1, t.shape[1])}
    for axis in (1, 2):
        d = p.partial(axis)
        assert p.partial(axis) is d
        want = Poly2._of(fresh[axis]).table
        assert d.table.shape == want.shape and d.table.tobytes() == want.tobytes()
    # a chain of partials is kept link by link
    assert p.partial(1).partial(2) is p.partial(1).partial(2)


def test_poly1_derivative_walks_the_kept_chain(monkeypatch):
    f = Poly1({k: 1.0 for k in range(7)})
    derived = _count_derived_tables(monkeypatch)
    second = f.derivative(2)
    assert len(derived) == 2
    fourth = f.derivative(4)
    assert len(derived) == 4
    assert f.derivative(2).poly2 is second.poly2
    assert fourth.coeffs == {0: 24.0, 1: 120.0, 2: 360.0}


def test_an_overflowing_partial_raises_on_every_call_and_keeps_nothing(monkeypatch):
    p = Poly2({(2, 0): 1.7e308, (0, 3): 1.0})
    derived = _count_derived_tables(monkeypatch)
    for calls in (1, 2):
        with pytest.raises(InvalidSpec):
            p.partial(1)
        # each call derives the table anew: none was kept
        assert len(derived) == calls
    assert p.partial(2) is p.partial(2)
    assert len(derived) == 3


def _u1_first(table, order):
    """The table of the (i, j) partial: i steps along u1, then j along u2."""
    t = table
    for _ in range(order[0]):
        t = t[1:] * np.arange(1, t.shape[0])[:, None]
    for _ in range(order[1]):
        t = t[:, 1:] * np.arange(1, t.shape[1])
    return Poly2._of(t).table


def _routes(i, j):
    """Every sequence of i steps along u1 and j along u2, as axis tuples."""
    if not i or not j:
        return [(1,) * i + (2,) * j]
    return [(1, *r) for r in _routes(i - 1, j)] + [(2, *r) for r in _routes(i, j - 1)]


def test_every_route_to_an_order_is_one_object_with_the_u1_first_bits(rng):
    # a dense table of degree 9: odd factors such as 3 and 5 round
    # differently in (c * 3) * 5 and (c * 5) * 3
    coeffs = {(i, j): rng.uniform(-1, 1) for i in range(10) for j in range(10 - i)}
    orders = [(i, k - i) for k in range(1, 5) for i in range(k + 1)]
    table = Poly2(coeffs).table
    u2_first = {o: Poly2._of(_u1_first(table.T, o[::-1]).T).table for o in orders}
    assert any(u2_first[o].tobytes() != _u1_first(table, o).tobytes() for o in orders)
    for order in orders:
        routes = _routes(*order)
        # each route taken first, on a fresh polynomial, then all the others
        for first in range(len(routes)):
            p = Poly2(coeffs)
            got = []
            for route in routes[first:] + routes[:first]:
                q = p
                for axis in route:
                    q = q.partial(axis)
                got.append(q)
            got.append(p.derivative(order))
            half = (order[0] // 2, order[1] // 2)
            got.append(p.derivative(half).derivative((order[0] - half[0], order[1] - half[1])))
            assert all(q is got[0] for q in got)
            want = _u1_first(table, order)
            assert got[0].table.shape == want.shape
            assert got[0].table.tobytes() == want.tobytes()
    p = Poly2(coeffs)
    assert p.derivative((0, 0)) is p
    with pytest.raises(ValueError):
        p.derivative((-1, 1))


def test_a_polynomial_and_its_partials_are_freed_without_the_cycle_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        p = Poly2({(3, 1): 1.0, (0, 2): 2.0})
        q = p.partial(1)
        r = weakref.ref(p.table)
        del p, q
        assert r() is None
    finally:
        if enabled:
            gc.enable()


def test_a_partial_whose_root_is_gone_derives_with_the_u1_first_bits(rng):
    coeffs = {(i, j): rng.uniform(-1, 1) for i in range(10) for j in range(10 - i)}
    table = Poly2(coeffs).table
    for order in [(i, k - i) for k in range(2, 5) for i in range(k)]:
        p = Poly2(coeffs)
        q = p.partial(2)
        del p
        rest = (order[0], order[1] - 1)
        got = q.derivative(rest)
        want = _u1_first(table, order)
        assert got.table.shape == want.shape and got.table.tobytes() == want.tobytes()
        # and so does a partial taken from it, whose root is gone too
        if rest[0]:
            got = q.partial(1).derivative((rest[0] - 1, rest[1]))
            assert got.table.tobytes() == want.tobytes()
        assert q.derivative((0, 0)) is q


def test_an_overflowing_order_raises_on_every_route_and_keeps_nothing(monkeypatch):
    # 8e307 * 2 is finite along either axis, but 8e307 * 2 * 2 is not
    p = Poly2({(2, 2): 8e307, (0, 0): 1.0})
    d1, d2 = p.partial(1), p.partial(2)
    derived = _count_derived_tables(monkeypatch)
    routes = [lambda: d1.partial(2), lambda: d2.partial(1), lambda: p.derivative((1, 1)),
              lambda: d2.derivative((1, 0))]
    for route in routes * 2:
        with pytest.raises(InvalidSpec):
            route()
    # each call derives the (1, 1) table anew and keeps nothing
    assert len(derived) == 2 * len(routes)
    assert p.partial(1) is d1 and p.partial(2) is d2
    # (2, 2) goes by (2, 0), which is finite and kept, and fails at (2, 1)
    with pytest.raises(InvalidSpec):
        p.derivative((2, 2))
    assert len(derived) == 2 * len(routes) + 2
    assert p.derivative((2, 0)) is d1.partial(1)
    assert len(derived) == 2 * len(routes) + 2


def test_poly2_eval_grid_matches_pointwise(rng):
    p = Poly2({(i, j): rng.uniform(-1, 1) for i in range(4) for j in range(4 - i)})
    u1 = np.linspace(-1.0, 1.0, 7)
    u2 = np.linspace(-0.5, 0.5, 5)
    grid = p.eval_grid(u1, u2)
    assert grid.shape == (7, 5)
    for i, a in enumerate(u1):
        for j, b in enumerate(u2):
            assert grid[i, j].tobytes() == np.float64(p((a, b))).tobytes()


def test_poly2_eval_grid_degree_30_matches_pointwise_bits(rng):
    # the size of a first-shock discriminant, on non-square axes
    p = Poly2({(i, j): rng.uniform(-1, 1) for i in range(31) for j in range(31 - i)})
    assert p.degree() == 30
    u1 = np.linspace(-1.0, 1.0, 65)
    u2 = np.linspace(-0.7, 1.3, 41)
    grid = p.eval_grid(u1, u2)
    assert grid.shape == (65, 41)
    pointwise = [[p((a, b)) for b in u2] for a in u1]
    assert grid.tobytes() == np.array(pointwise).tobytes()


def test_poly2_call_on_arrays_matches_pointwise_bits(rng):
    p = Poly2({(i, j): rng.uniform(-1, 1) for i in range(5) for j in range(5 - i)})
    pts = rng.uniform(-2.0, 2.0, (9, 2))
    values = p(pts.T)
    assert isinstance(values, np.ndarray) and values.shape == (9,)
    assert isinstance(p(pts[0]), float)
    for v, pt in zip(values, pts):
        assert v.tobytes() == np.float64(p(pt)).tobytes()
    assert p((pts[:, :1], pts[:, 1:])).shape == (9, 1)


def _stack_polys(rng):
    # shapes 1x1, 1xn, nx1 and wider, of degree 0 to 30, with interior
    # zeros, a -0.0 in the top row and a degree-30 triangle
    polys = []
    for rows, cols in ((1, 1), (1, 9), (7, 1), (1, 31), (31, 1), (4, 4), (3, 17), (16, 15), (12, 2)):
        t = rng.uniform(-2.0, 2.0, (rows, cols))
        t[rng.random((rows, cols)) < 0.3] = 0.0
        t[-1, -1] = rng.uniform(0.5, 1.5)
        if cols > 1:
            t[-1, 0] = -0.0
        polys.append(Poly2._of(t))
    polys.append(Poly2({(i, j): rng.uniform(-1, 1) for i in range(31) for j in range(31 - i)}))
    # -0.0 + u2 keeps the sign of a zero only if -0.0 + u1*0 is kept
    polys.append(Poly2._of(np.array([[-0.0, 1.0]])))
    return polys


def _stack_points(rng):
    special = [0.0, -0.0, math.inf, -math.inf, math.nan]
    pts = [(a, b) for a in special for b in special]
    pts += [(a, b) for a in special for b in (0.75, -1.25)] + [(b, a) for a in special for b in (0.5, -1.5)]
    pts += rng.uniform(-1.5, 1.5, (40, 2)).tolist()
    return np.array(pts).T.copy()


def _assert_stack_matches_calls(stack, polys, u1, u2):
    got = stack(u1, u2)
    assert got.shape == (len(polys), len(u1))
    for row, p in zip(got, polys):
        want = p((u1, u2))
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(row), nan)
        assert row[~nan].tobytes() == want[~nan].tobytes()


def test_horner_stack_matches_poly2_call_bits(rng, monkeypatch):
    polys = _stack_polys(rng)
    u1, u2 = _stack_points(rng)
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(1, len(polys) + 1):
            # seeded subsets in shuffled order, one table given twice
            chosen = [polys[i] for i in rng.permutation(len(polys))[:k]]
            chosen.insert(int(rng.integers(k + 1)), chosen[0])
            stack = HornerStack([p.table for p in chosen])
            _assert_stack_matches_calls(stack, chosen, u1, u2)
            # blocks of a few points, and of one point, split the points
            for budget in (97, 1):
                with monkeypatch.context() as m:
                    m.setattr(poly, "_EVAL_BLOCK", budget)
                    _assert_stack_matches_calls(stack, chosen, u1, u2)
    assert HornerStack([polys[0].table])(u1[:0], u2[:0]).shape == (1, 0)


# An oracle independent of the kernel: NumPy's own polynomial
# evaluation, which the package does not import.  Every value agrees in
# every bit; a nan agrees as a nan (its payload is in no output).


def _oracle_table(rng, rows: int, cols: int) -> np.ndarray:
    # zeros of both signs inside, a nonzero last row and column
    t = rng.uniform(-2.0, 2.0, (rows, cols))
    t[rng.random((rows, cols)) < 0.2] = 0.0
    t[rng.random((rows, cols)) < 0.2] = -0.0
    t[-1, -1] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    return t


def _assert_same_values(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_poly2_call_matches_numpy_bit_for_bit(rng):
    u1, u2 = _stack_points(rng)
    scalars = list(zip(u1[:30].tolist(), u2[:30].tolist()))
    with np.errstate(invalid="ignore", over="ignore"):
        for degree in range(65):
            rows = int(rng.integers(1, degree + 2))
            shape = (rows, degree + 2 - rows) if rng.random() < 0.5 else (degree + 1, rows)
            p = Poly2._of(_oracle_table(rng, *shape))
            _assert_same_values(p((u1, u2)), npp.polyval2d(u1, u2, p.table))
            for a, b in scalars:
                got = p((a, b))
                assert type(got) is float
                _assert_same_values(np.float64(got), npp.polyval2d(a, b, p.table))
            # coordinate arrays that broadcast to one 2-D shape
            x, y = u1[:, None], u2[None, :7]
            _assert_same_values(p((x, y)), npp.polyval2d(*np.broadcast_arrays(x, y), p.table))
            _assert_same_values(p((u1[:0], u2[:0])), np.zeros(0))


def test_horner_stack_matches_numpy_bit_for_bit(rng, monkeypatch):
    # mixed heights and widths, one table given twice, blocks of one,
    # of a few and of all points
    shapes = ((1, 1), (1, 9), (7, 1), (65, 3), (2, 65), (12, 12), (30, 31), (5, 40))
    tables = [_oracle_table(rng, rows, cols) for rows, cols in shapes]
    given = [tables[k] for k in rng.permutation(len(tables))]
    given.insert(int(rng.integers(len(given) + 1)), tables[3])
    u1, u2 = _stack_points(rng)
    xs, ys = np.sort(u1[-25:]), u2[-17:]
    with np.errstate(invalid="ignore", over="ignore"):
        for budget in (poly._EVAL_BLOCK, 97, 1):
            with monkeypatch.context() as m:
                m.setattr(poly, "_EVAL_BLOCK", budget)
                stack = HornerStack(given)
                values, grids = stack(u1, u2), stack.grid(xs, ys)
            assert values.shape == (len(given), len(u1))
            assert grids.shape == (len(given), len(xs), len(ys))
            for t, row, grid in zip(given, values, grids):
                _assert_same_values(row, npp.polyval2d(u1, u2, t))
                _assert_same_values(grid, npp.polygrid2d(xs, ys, t))


def test_eval_grid_matches_numpy_bit_for_bit(rng):
    special = [0.0, -0.0, math.inf, -math.inf, math.nan]
    xs = np.array(special + rng.uniform(-1.5, 1.5, 20).tolist())
    ys = np.array(rng.uniform(-1.5, 1.5, 11).tolist() + special)
    with np.errstate(invalid="ignore", over="ignore"):
        for degree in range(65):
            rows = int(rng.integers(1, degree + 2))
            p = Poly2._of(_oracle_table(rng, rows, degree + 2 - rows))
            _assert_same_values(p.eval_grid(xs, ys), npp.polygrid2d(xs, ys, p.table))
    # dense triangles on box axes, up to the 512 x 512 grid cap
    for n, degree in ((64, 15), (512, 30), (512, 60)):
        t = _oracle_table(rng, degree + 1, degree + 1)
        t[np.add.outer(np.arange(degree + 1), np.arange(degree + 1)) > degree] = 0.0
        t[degree, 0] = t[0, degree] = 1.0
        xs, ys = np.linspace(-1.0, 1.0, n + 1), np.linspace(-0.7, 1.3, n + 1)
        _assert_same_values(Poly2._of(t).eval_grid(xs, ys), npp.polygrid2d(xs, ys, t))


_EVALUATE_WITHOUT_NUMPY_POLYNOMIAL = """
import contextlib, io, sys, tempfile
from planesing.cli import main
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["trace", "--builtin", "beaks", "--out", out]),
             main(["conslaw", "--builtin", "burgers-lips", "--time", "0.9,1.1", "--out", out])]
print(codes, "numpy.polynomial" in sys.modules)
"""


def test_the_command_line_never_imports_numpy_polynomial():
    # HornerStack is the one evaluator, so a trace and a conslaw run with
    # frames, which evaluate at points and on grids, load no other
    src = os.path.dirname(os.path.dirname(poly.__file__))
    proc = subprocess.run([sys.executable, "-c", _EVALUATE_WITHOUT_NUMPY_POLYNOMIAL],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["[0,", "0]", "False"]


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


@pytest.mark.parametrize("da, db", [(0, 3), (1, 1), (3, 4), (7, 5), (MAX_INPUT_DEGREE, 2),
                                     (MAX_INPUT_DEGREE, MAX_INPUT_DEGREE)])
def test_product_matches_sparse_reference(rng, da, db):
    a, b = random_coeffs(rng, da), random_coeffs(rng, db)
    got = (Poly2(a) * Poly2(b)).coeffs
    assert_close_to_reference(got, sparse_mul(a, b), sparse_mul(absolute(a), absolute(b)))


@pytest.mark.parametrize("degree", [0, 1, 3, 6, 12, MAX_INPUT_DEGREE])
def test_shift_and_recentering_match_sparse_reference(rng, degree):
    c = random_coeffs(rng, degree)
    p, mag = Poly2(c), absolute(c)
    for base in (rng.uniform(-1, 1, 2), (0.0, rng.uniform(-2, 2)), (0.0, 0.0)):
        abs_base = (abs(base[0]), abs(base[1]))
        bound = sparse_shift(mag, abs_base)
        assert_close_to_reference(p.shift(base).coeffs, sparse_shift(c, base), bound)
        for order in (3, 6):
            got = p.recentered_coeffs(base, order)
            ref = sparse_recentered(c, base, order)
            tri = sparse_recentered(mag, abs_base, order)
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= REF_REL_TOL * tri)
        # a lower order keeps exactly the bits of the higher one
        low, high = p.recentered_coeffs(base, 3), p.recentered_coeffs(base, 6)
        kept = np.add.outer(range(4), range(4)) <= 3
        assert low.tobytes() == np.where(kept, high[:4, :4], 0.0).tobytes()


def test_poly2_overflowing_operations_raise_invalid_spec():
    big = Poly2({(1, 0): 1e200, (0, 0): 1.0})
    for op in (
        lambda: big * Poly2({(0, 1): 1e200}),
        lambda: big * 1e200,
        lambda: big + Poly2({(1, 0): 1.7e308}) + Poly2({(1, 0): 1.7e308}),
        lambda: big.shift((1e300, 0.0)),
    ):
        with pytest.raises(InvalidSpec):
            op()


def _trim_reference(table: np.ndarray) -> np.ndarray:
    """The trim of every table, before trimmed tables were kept as they are."""
    if not np.isfinite(table).all():
        raise InvalidSpec("non-finite coefficient")
    nonzero = table != 0.0
    rows = np.flatnonzero(nonzero.any(axis=1))
    if not rows.size:
        return np.zeros((1, 1))
    cols = np.flatnonzero(nonzero.any(axis=0))
    return table[: rows[-1] + 1, : cols[-1] + 1].copy()


def test_trimming_matches_the_mask_reference(rng):
    tables = [np.zeros((0, 3)), np.zeros((2, 0)), np.zeros((3, 4)), np.full((2, 2), -0.0)]
    for _ in range(300):
        t = rng.uniform(-2.0, 2.0, tuple(rng.integers(1, 7, 2)))
        t[rng.random(t.shape) < 0.3] = 0.0
        t[rng.random(t.shape) < 0.2] = -0.0
        if rng.random() < 0.4:
            t[-1] = 0.0 if rng.random() < 0.5 else -0.0
        if rng.random() < 0.4:
            t[:, -1] = -0.0
        tables.append(t)
    for t in tables:
        got, want = Poly2._of(t.copy()).table, _trim_reference(t)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    for bad in (math.nan, math.inf, -math.inf):
        for where in ((0, 0), (-1, -1), (1, 0)):
            t = np.ones((3, 3))
            t[where] = bad
            with pytest.raises(InvalidSpec):
                Poly2._of(t)


def test_zero_shift_matches_the_binomial_product_bit_for_bit(rng):
    for _ in range(100):
        t = rng.uniform(-2.0, 2.0, tuple(rng.integers(1, 9, 2)))
        t[rng.random(t.shape) < 0.3] = 0.0
        t[rng.random(t.shape) < 0.3] = -0.0
        t[-1, 0] = t[0, -1] = 1.0
        p = Poly2._of(t)
        for base in ((0.0, 0.0), (-0.0, -0.0), (0.0, -0.0)):
            want = poly._binomial(base[0], t.shape[0]) @ t @ poly._binomial(base[1], t.shape[1]).T
            got = p.shift(base).table
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            order = int(rng.integers(0, 9))
            full = np.zeros((order + 9, order + 9))
            full[: t.shape[0], : t.shape[1]] = want
            cut = np.where(np.add.outer(range(order + 1), range(order + 1)) <= order,
                           full[: order + 1, : order + 1], 0.0)
            assert p.recentered_coeffs(base, order).tobytes() == cut.tobytes()


def running_binomial(d: float, n: int) -> list[list[float]]:
    """B[a][i] = C(i, a) d**(i - a), each power of d a running product."""
    powers = [1.0]
    for _ in range(n - 1):
        powers.append(powers[-1] * d)
    return [[math.comb(i, a) * powers[i - a] if i >= a else 0.0 for i in range(n)]
            for a in range(n)]


def fixed_order_shift(t: np.ndarray, base) -> np.ndarray:
    """The table of p(base + w) by plain float loops: each M[a, j] sums
    B1[a, i] T[i, j] in ascending i from 0.0, then each entry sums
    M[a, j] B2[b, j] in ascending j from 0.0."""
    rows, cols = t.shape
    b1 = running_binomial(float(base[0]), rows)
    b2 = running_binomial(float(base[1]), cols)
    t = t.tolist()
    m = [[0.0] * cols for _ in range(rows)]
    for a in range(rows):
        for j in range(cols):
            s = 0.0
            for i in range(rows):
                s += b1[a][i] * t[i][j]
            m[a][j] = s
    out = [[0.0] * cols for _ in range(rows)]
    for a in range(rows):
        for b in range(cols):
            s = 0.0
            for j in range(cols):
                s += m[a][j] * b2[b][j]
            out[a][b] = s
    return np.array(out)


def _padded_cut(table: np.ndarray, order: int) -> np.ndarray:
    """table's entries of total order at most order, in an (order+1)-square of +0.0."""
    full = np.zeros((max(order + 1, table.shape[0]), max(order + 1, table.shape[1])))
    full[: table.shape[0], : table.shape[1]] = table
    kept = np.add.outer(range(order + 1), range(order + 1)) <= order
    return np.where(kept, full[: order + 1, : order + 1], 0.0)


def _random_shift_cases(rng, count):
    """Random tables, tall, wide and square up to degree 16, each with a
    random nonzero base; a column of 8 or more rows summed into one entry
    is where a pairwise sum would part from the ascending one."""
    shapes = [(12, 1), (1, 12), (17, 17), (9, 2)]
    shapes += [tuple(rng.integers(1, 18, 2)) for _ in range(count - len(shapes))]
    for shape in shapes:
        t = rng.uniform(-2.0, 2.0, shape) * 10.0 ** rng.integers(-6, 7, shape)
        t[rng.random(shape) < 0.2] = 0.0
        t[-1, 0] = t[0, -1] = 1.0
        yield Poly2._of(t), t, rng.uniform(-1.5, 1.5, 2) * 10.0 ** rng.integers(-3, 2, 2)


def test_shift_sums_in_one_fixed_order(rng):
    for p, t, base in _random_shift_cases(rng, 60):
        want = fixed_order_shift(t, base)
        got = p.shift(base).table
        # the trimmed rows and columns hold +0.0, as every sum from +0.0 does
        padded = np.zeros(want.shape)
        padded[: got.shape[0], : got.shape[1]] = got
        assert padded.tobytes() == want.tobytes()
        for order in (0, 1, 4, 9):
            assert p.recentered_coeffs(base, order).tobytes() == _padded_cut(want, order).tobytes()


def test_recentering_keeps_the_bits_of_the_shift_at_every_order(rng):
    for p, _, base in _random_shift_cases(rng, 40):
        full = p.shift(base).table
        for order in range(10):
            assert p.recentered_coeffs(base, order).tobytes() == _padded_cut(full, order).tobytes()


_RECENTRED_HASH = """
import hashlib
import numpy as np
from planesing.poly import Poly2
rng = np.random.default_rng(39)
h = hashlib.sha256()
for _ in range(40):
    p = Poly2._of(rng.uniform(-1.0, 1.0, tuple(rng.integers(2, 18, 2))))
    base = rng.uniform(-1.0, 1.0, 2)
    h.update(p.shift(base).table.tobytes())
    for order in range(8):
        h.update(p.recentered_coeffs(base, order).tobytes())
print(h.hexdigest())
"""


def _dynamic_openblas() -> bool:
    """Whether NumPy's BLAS is an OpenBLAS that picks its kernel at run time."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # NumPy before 1.25 only prints its configuration
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _dynamic_openblas(), reason="NumPy's BLAS is no DYNAMIC_ARCH OpenBLAS")
def test_recentred_tables_do_not_depend_on_the_openblas_kernel():
    # Prescott's kernel has no FMA and Haswell's has, so a BLAS product
    # rounds differently under the two
    src = os.path.dirname(os.path.dirname(poly.__file__))
    digests = []
    for core in ("Prescott", "Haswell"):
        env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _RECENTRED_HASH], env=env,
                              capture_output=True, text=True, check=True)
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


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
        {"vars": 1, "terms": [{"c": 1.0, "e": [math.inf]}]},
        {"vars": 2, "terms": [{"c": 1.0, "e": [math.nan, 0]}]},
        {"vars": 2, "terms": [{"c": 1.0, "e": ["a", 0]}]},
        {"vars": 1, "terms": [{"c": 1.0, "e": [MAX_INPUT_DEGREE + 1]}]},
        {"vars": 2, "terms": [{"c": 1.0, "e": [MAX_INPUT_DEGREE, 1]}]},
        "not a mapping",
        # what a JSON file can hold that float() and int() reject
        {"vars": math.inf, "terms": []},
        {"vars": 1, "terms": [{"c": 10**400, "e": [1]}]},
        {"vars": 1, "terms": [{"c": "abc", "e": [1]}]},
        # bools, strings and fractional counts are no input numbers
        {"vars": True, "terms": []},
        {"vars": 2.7, "terms": []},
        {"vars": "2", "terms": []},
        {"vars": 2.0, "terms": []},
        {"vars": 1, "terms": [{"c": "1e5", "e": [1]}]},
        {"vars": 1, "terms": [{"c": True, "e": [1]}]},
        {"vars": 2, "terms": [{"c": 1.0, "e": [True, 0]}]},
        {"vars": 2, "terms": [{"c": 1.0, "e": [2.0, 0]}]},
        {"vars": 1, "terms": [{"c": 1.0, "e": 2}]},
        # a term that is not an object, and terms given as an object
        {"vars": 1, "terms": [[1.0, [2]]]},
        {"vars": 1, "terms": {"c": 1.0, "e": [2]}},
    ],
)
def test_spec_rejects_malformed(bad):
    with pytest.raises(InvalidSpec):
        poly_from_spec(bad)


@pytest.mark.parametrize(
    "bad,message",
    [
        ({"vars": True, "terms": []}, "vars must be 1 or 2, got true"),
        ({"vars": None, "terms": []}, "vars must be 1 or 2, got null"),
        ({"vars": 2, "terms": [{"c": 1.0, "e": [True, 0]}]},
         "exponents must be non-negative integers, got [true, 0]"),
        ({"vars": 1, "terms": [{"c": "1e5", "e": [1]}]},
         'coefficient must be a finite number, got "1e5"'),
        ({"vars": 1, "terms": [{"c": 10**400, "e": [1]}]},
         "coefficient must be a finite number, got " + "1" + "0" * 56 + "..."),
        ({"vars": 1, "terms": [[None] * 40]},
         "a term must be an object, got [" + "null, " * 9 + "nu..."),
    ],
)
def test_spec_errors_quote_the_value_as_short_json(bad, message):
    with pytest.raises(InvalidSpec) as info:
        poly_from_spec(bad)
    assert str(info.value) == message


def test_quote_falls_back_to_the_repr_of_what_json_cannot_write():
    assert quote(Poly2) == repr(Poly2)
    assert quote(math.inf) == "Infinity"
    assert len(quote({(1, 0): "x" * 100})) == 60


def test_naming_overflow_silences_numpy_and_names_what_finite_rejects():
    values = np.array([1e300])
    assert finite(values) is values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpec) as info:
            with naming_overflow("the square", "at 1e300"):
                finite(values * values)
    assert str(info.value) == "the square overflows at 1e300"
    # a table that overflows is named the same way
    with pytest.raises(InvalidSpec, match="^the product overflows here$"):
        with naming_overflow("the product", "here"):
            Poly2({(1, 0): 1e300}) * 1e300
    # outside any name the check says what it checks
    with pytest.raises(InvalidSpec, match="^jet coefficients must be finite$"):
        finite([0.0, math.nan])


def test_an_overflow_with_a_name_keeps_it():
    with pytest.raises(InvalidSpec, match="^the polynomial overflows at 1e"):
        with naming_overflow("the outer value", "here"):
            Poly1({6: 1.0})(1e300)
    with pytest.raises(InvalidSpec, match="^the inner value overflows there$"):
        with naming_overflow("the outer value", "here"):
            with naming_overflow("the inner value", "there"):
                finite([math.inf])
