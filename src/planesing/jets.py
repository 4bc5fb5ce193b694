"""Truncated Taylor expansions (jets) with order-aware arithmetic.

A jet stores the Taylor coefficients of a smooth function at a base
point up to a fixed total order.  Sums, products, and compositions of
jets silently truncate everything beyond that order, so a chain of jet
operations computes exactly the derivatives the final order can carry
and nothing more.

Coefficients are stored in the monomial basis: a jet table ``c`` of
order n is (n+1)-square and represents ``sum c[i, j] * (u1 - p1)**i *
(u2 - p2)**j`` over ``i + j <= n``, +0.0 beyond, so the (i, j)-th
partial derivative at the base point is ``c[i, j] * i! * j!``.  A jet
table is a `Poly2` table cut to that triangle, and the kernel here runs
on raw tables: `_product` is the same ``convolve2`` cut back to the
order, `_partial` the same scaled slice one order lower, and a
truncation is `order_cut`.  `_compose` composes a stack of outer
tables with one pair of inner tables; it forms only the powers of the
inner tables that some outer coefficient reads, and sums every outer's
terms in one reduction.  A table-level chain checks finiteness once,
on the quantity it computes: an overflow inside the chain leaves a
non-finite entry in that result.

`Jet2` is the public wrapper: a base point, an order and one frozen
table.  Each operation is a table helper, a finiteness check on the
new table, and a new jet that owns it; `germs.classify` and
`germs.conjugate_by_diffeos` call the helpers on tables and make a
`Jet2` only for what they report.

`Jet2` is the only jet class.  A jet of one variable is a `Jet2` in u1
alone, zero off column 0, just as a `Poly1` is a one-column `Poly2`:
`poly_to_jet` of a `Poly1` at y0 is the jet of its `Poly2` at (y0, 0),
and `compose_univariate` is `compose_map` with a constant second inner.
"""

from __future__ import annotations

import math

import numpy as np

from .poly import InvalidSpec, Poly1, Poly2, _overflow_raises_later, as_point, as_real, convolve2
from .poly import finite, order_cut, outside_order

__all__ = [
    "Jet2",
    "InvalidJetCombination",
    "JetOrderExhausted",
    "CompositionBasePointMismatch",
    "InvalidSpec",
    "det2x2",
    "compose_univariate",
    "compose_map",
    "poly_to_jet",
]

#: how closely an inner jet's value must hit the outer jet's base point
#: before composition is considered meaningful
BASE_MATCH_TOL = 1e-9


class InvalidJetCombination(ValueError):
    """Operands disagree on base point or arity."""


class JetOrderExhausted(ValueError):
    """A derivative or composition would need more orders than the jet holds."""


class CompositionBasePointMismatch(ValueError):
    """Inner jet's value does not sit at the outer jet's base point."""


def _common_base2(a: "Jet2", b: "Jet2") -> tuple[float, float]:
    if a.base_point != b.base_point:
        raise InvalidJetCombination(
            f"base points differ: {a.base_point} vs {b.base_point}"
        )
    return a.base_point


def _common2(a: "Jet2", b: "Jet2") -> tuple[tuple[float, float], int]:
    """The base point and the order a and b share; InvalidJetCombination,
    on the base point first, if they differ."""
    base = _common_base2(a, b)
    if a.order != b.order:
        raise InvalidJetCombination(f"orders differ: {a.order} vs {b.order}")
    return base, a.order


class Jet2:
    """Taylor polynomial of two variables, truncated at a total order.

    The coefficient table is (order+1) x (order+1) with entries beyond
    the triangle i + j <= order forced to zero.
    """

    __slots__ = ("base_point", "order", "coeffs")

    def __init__(self, base_point, coeffs, order: int | None = None):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise InvalidSpec("Jet2 coefficients must form a square table")
        if order is None:
            order = c.shape[0] - 1
        if order < 0:
            raise InvalidSpec("jet order must be non-negative")
        base = (float(base_point[0]), float(base_point[1]))
        self._own(base, finite(order_cut(c, order)), int(order))

    @classmethod
    def _of(cls, base_point: tuple[float, float], table: np.ndarray, order: int) -> "Jet2":
        """Wrap a freshly computed (order+1)-square table, which the jet then owns.

        The table must be finite and hold +0.0 beyond the order: the
        operation that computed it checks what can overflow.
        """
        return cls.__new__(cls)._own(base_point, table, order)

    def _own(self, base_point: tuple[float, float], table: np.ndarray, order: int) -> "Jet2":
        table.setflags(write=False)
        self.base_point, self.order, self.coeffs = base_point, order, table
        return self

    @classmethod
    def constant(cls, value: float, base_point, order: int) -> "Jet2":
        return cls(base_point, [[value]], order)

    @property
    def value(self) -> float:
        return float(self.coeffs[0, 0])

    def deriv(self, i: int, j: int) -> float:
        """Partial derivative value (d/du1)^i (d/du2)^j at the base point."""
        if i + j > self.order:
            raise JetOrderExhausted(f"order {self.order} jet has no ({i},{j}) derivative")
        return float(self.coeffs[i, j] * math.factorial(i) * math.factorial(j))

    def partial(self, axis: int) -> "Jet2":
        if self.order == 0:
            raise JetOrderExhausted("cannot differentiate an order-0 jet")
        with _overflow_raises_later():
            table = _partial(self.coeffs, axis)
        return Jet2._of(self.base_point, finite(table), self.order - 1)

    def truncate(self, order: int) -> "Jet2":
        if order > self.order:
            raise JetOrderExhausted(f"cannot extend order {self.order} to {order}")
        return Jet2._of(self.base_point, order_cut(self.coeffs, order), order)

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Jet2.constant(other, self.base_point, self.order)
        if not isinstance(other, Jet2):
            return NotImplemented
        base, n = _common2(self, other)
        with _overflow_raises_later():
            table = self.coeffs + other.coeffs
        return Jet2._of(base, finite(table), n)

    __radd__ = __add__

    def __neg__(self):
        # -(+0.0) is -0.0, so the entries beyond the order are reset
        return Jet2._of(self.base_point, _zero_beyond(-self.coeffs, self.order), self.order)

    def __sub__(self, other):
        if not isinstance(other, (int, float, Jet2)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            # a negative factor turns +0.0 to -0.0 beyond the order
            with _overflow_raises_later():
                scaled = _zero_beyond(self.coeffs * other, self.order)
            return Jet2._of(self.base_point, finite(scaled), self.order)
        if not isinstance(other, Jet2):
            return NotImplemented
        base, n = _common2(self, other)
        with _overflow_raises_later():
            table = _product(self.coeffs, other.coeffs, n)
        return Jet2._of(base, finite(table), n)

    __rmul__ = __mul__

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def __repr__(self):
        return (
            f"Jet2(base={self.base_point!r}, order={self.order}, "
            f"coeffs={self.coeffs.tolist()!r})"
        )


def det2x2(a11: Jet2, a12: Jet2, a21: Jet2, a22: Jet2) -> Jet2:
    """Determinant of a 2x2 matrix of jets, truncated like any jet product."""
    return a11 * a22 - a12 * a21


def _zero_beyond(t: np.ndarray, n: int) -> np.ndarray:
    """The (n+1)-square table t, or each in a stack of them, its entries
    beyond order n set to +0.0 in place."""
    np.copyto(t, 0.0, where=outside_order(n))
    return t


def _order_part(product: np.ndarray, n: int) -> np.ndarray:
    """Order-n table of a product of two order-n tables, full or flat.

    A view of the leading (n+1) x (n+1) block, zeroed beyond order n.
    """
    return _zero_beyond(product.reshape(2 * n + 1, 2 * n + 1)[: n + 1, : n + 1], n)


# The table helpers below check nothing, and _det and _partial are
# called where NumPy is silenced (naming_overflow): an overflow leaves a
# non-finite entry, which the caller's one check on its result finds.


def _product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Order-n table of the product of two order-n tables."""
    return _order_part(convolve2(a, b), n)


def _det(a11: np.ndarray, a12: np.ndarray, a21: np.ndarray, a22: np.ndarray, n: int) -> np.ndarray:
    """Order-n table of a11 a22 - a12 a21, from order-n tables.

    x - y is x + (-y) bit for bit, and +0.0 - +0.0 is +0.0 beyond the order.
    """
    return _product(a11, a22, n) - _product(a12, a21, n)


def _partial(t: np.ndarray, axis: int) -> np.ndarray:
    """Table of the partial along u1 (axis 1) or u2 (axis 2) of a square
    table, or of each in a stack of them, one order lower.

    An entry beyond the lower order comes from one beyond t's order:
    +0.0 times k.
    """
    k = np.arange(1.0, t.shape[-1])
    if axis == 1:
        return t[..., 1:, :-1] * k[:, None]
    if axis == 2:
        return t[..., :-1, 1:] * k
    raise ValueError("axis must be 1 or 2")


def _check_base(values, bases) -> None:
    """CompositionBasePointMismatch at the first inner value that is not at its outer base."""
    for value, base in zip(values, bases):
        if abs(value - base) > BASE_MATCH_TOL * (1.0 + abs(base)):
            raise CompositionBasePointMismatch(f"inner value {value} is not at outer base {base}")


def compose_univariate(outer: Jet2, inner: Jet2) -> Jet2:
    """Jet of outer(inner(u1, u2)) at the inner jet's base point.

    The outer jet is univariate: a jet in u1 alone, as poly_to_jet
    gives for a Poly1, whose column 0 holds the coefficients of the
    powers of (y - outer.base_point[0]); InvalidJetCombination if any
    other entry is nonzero.  The inner jet's value must land on that
    base (within BASE_MATCH_TOL), since the outer expansion is only
    valid there.  The outer jet must carry at least the inner order,
    which the composite needs.  It is compose_map's composite with u2
    held at the outer's u2 base, which forms no power of that constant.
    """
    if outer.coeffs[:, 1:].any():
        raise InvalidJetCombination("the outer jet of compose_univariate must not depend on u2")
    if outer.order < inner.order:
        raise JetOrderExhausted(f"outer jet order {outer.order} < inner jet order {inner.order}")
    return compose_map(outer, inner, Jet2.constant(outer.base_point[1], inner.base_point, inner.order))


def compose_map(outer: Jet2, inner1: Jet2, inner2: Jet2) -> Jet2:
    """Jet of outer(inner1(u), inner2(u)) at the inner jets' base point.

    The sum of outer.coeffs[i, j] x^i y^j, with x and y the inner jets
    less their values at the common order n: _compose on their tables.
    """
    base, n = _common_base2(inner1, inner2), min(inner1.order, inner2.order, outer.order)
    _check_base((inner1.value, inner2.value), outer.base_point)
    table = _compose(outer.coeffs[None], (inner1.coeffs, inner2.coeffs), n)[0]
    return Jet2._of(base, finite(table), n)


def _compose(outers: np.ndarray, inners, n: int) -> np.ndarray:
    """Order-n tables of every outer table in a stack composed with the
    same two inner tables, each at least (n+1)-square.

    x and y are the inner tables with their constant terms dropped, and
    each result sums outers[k, i, j] x^i y^j within order n.  Only what
    some nonzero outer coefficient reads is formed, once for every
    outer: x^k up to the largest such i, y^k up to the largest such j,
    and each cross term x^i y^j.  The terms of all outers are summed in
    one reduction from 0.0 in (i, j) order, so every result holds the
    bits a composition of that outer alone gives.  The results are not
    checked: a power or a term that overflows leaves a non-finite entry
    in some result, since every power formed is read.
    """
    coeffs = outers[:, : n + 1, : n + 1]
    # the (i, j) within order n where some outer coefficient is nonzero, in (i, j) order
    rows, cols = np.nonzero(coeffs.any(axis=0) & ~outside_order(n))
    w = 2 * n + 1
    # padded[0, k] holds x^k and padded[1, k] y^k, each row padded once to
    # width w; flat[b, k] is the same table as convolve2 flattens it
    padded = np.zeros((2, n + 1, n + 1, w))
    padded[:, 0, 0, 0] = 1.0
    tables = padded[..., : n + 1]
    flat = padded.reshape(2, n + 1, -1)[..., : n * w + n + 1]
    if n:  # an entry beyond order n never reaches one within it, and is zeroed last
        tables[:, 1] = [c[: n + 1, : n + 1] for c in inners]
        tables[:, 1, 0, 0] = 0.0
    with _overflow_raises_later():
        for b, top in enumerate((rows.max(initial=0), cols.max(initial=0))):
            for k in range(2, top + 1):
                tables[b, k] = _order_part(np.convolve(flat[b, k - 1], flat[b, 1]), n)
        terms = np.array([_order_part(np.convolve(flat[0, i], flat[1, j]), n) if i and j
                          else tables[0, i] if i else tables[1, j] for i, j in zip(rows, cols)])
        # a sum from 0.0 never holds -0.0, and adding a zero of either sign
        # leaves it as it is: the product of 1 and a power is that power up
        # to the signs of its zeros, and an outer whose coefficient is zero
        # adds only zeros.  Below the term axis lie whole tables, so NumPy
        # adds them term after term, not pairwise; at order 0 an outer
        # reads one term at most.
        terms = terms.reshape(len(rows), n + 1, n + 1) * coeffs[:, rows, cols, None, None]
        results = np.add.reduce(terms, axis=1, initial=0.0)
    return _zero_beyond(results, n)


def poly_to_jet(p: Poly1 | Poly2, base_point, order: int) -> Jet2:
    """Jet of a polynomial at ``base_point`` (exact Taylor re-centering).

    The arity is taken from the polynomial and must match the base
    point, as is_number judges it: a real for one variable, a pair of
    reals for two, and InvalidSpec otherwise.  A Poly1 is
    a one-column Poly2, so its jet is the jet of that Poly2 at
    (base_point, 0), a jet in u1 alone.
    """
    if isinstance(p, Poly1):
        p, base = p.poly2, (as_real(base_point, "base point"), 0.0)
    else:
        base = as_point(base_point, "base point")
    return Jet2._of(base, finite(p.recentered_coeffs(base, order)), order)
