"""Exact polynomials in one or two variables.

A Poly2 keeps one dense coefficient table, and its products, shifts
and derivatives are array operations on that table; convolve2,
outside_order and order_cut are the table kernel that the jets share.
convolve2 is the one product kernel, of Poly2s and of jets, and sums
every entry in one fixed order, so a product has the same bits on
every CPU.
HornerStack is the one evaluator of Poly2 tables: several tables at
the same points in one pass, or on a tensor grid, and a Poly2 keeps a
one-table stack for its own values.  A Poly1 is a one-column Poly2,
the polynomial in u1 alone, so the same kernel serves both arities,
values included: p(y) is its Poly2's value at (y, 0).  Arithmetic is
exact up to float rounding; no coefficient thresholding happens here.
This layer backs the jet machinery and every place the rest of the
package needs a globally valid expression rather than a truncated
local one.  It also holds the package's one overflow rule: a derived
value is computed under naming_overflow and checked by finite (or by
the check of every new table), so its overflow is one InvalidSpec that
names it, and NumPy prints nothing.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
import weakref
from contextlib import contextmanager
from functools import lru_cache
from typing import Mapping

import numpy as np

__all__ = [
    "HornerStack",
    "InvalidSpec",
    "MAX_INPUT_DEGREE",
    "Poly1",
    "Poly2",
    "as_point",
    "as_real",
    "convolve2",
    "finite",
    "is_number",
    "naming_overflow",
    "order_cut",
    "outside_order",
    "poly_from_spec",
    "poly_to_spec",
    "quote",
]

#: Largest degree of one input term (the sum of its exponents) in a
#: polynomial spec, and largest degree of an inline expression.  A
#: Poly2 table grows with the square of the degree and a product costs
#: the product of two table sizes, so input degrees are bounded before
#: anything is built.  The inputs in use stay at degree 5 or below; a
#: degree-16 map has a degree-30 discriminant, the size the
#: conservation-law problems in use already produce.
MAX_INPUT_DEGREE = 16


class InvalidSpec(ValueError):
    """Bad input: the package's one error for it.

    A malformed polynomial spec, a constructor given something other
    than the polynomials it takes, a value out of range, or one that
    overflows where it is used.  The parsing and curve errors subclass
    it, and the command line reports it with exit 64.
    """


class _NotFinite(InvalidSpec):
    """A derived value that is not finite, not yet named by naming_overflow."""


def _overflow_raises_later():
    # overflow in a table operation yields inf or nan, which the
    # finiteness check of every new table turns into InvalidSpec;
    # numpy's warning would only repeat it
    return np.errstate(over="ignore", invalid="ignore")


@contextmanager
def naming_overflow(quantity: str, where: str):
    """The one overflow rule for a derived value: compute it inside and
    check it with finite, and an overflow exits as one named InvalidSpec.

    Inside, NumPy's overflow and invalid warnings are silenced, since the
    inf or nan they announce reaches a finiteness check: finite, or that
    of every new Poly2 table.  The error of either check is re-raised as
    "<quantity> overflows <where>", which names what overflowed and where.
    An overflow that already has a name, an inner naming_overflow's or a
    Poly1 value's, keeps it.
    """
    try:
        with _overflow_raises_later():
            yield
    except _NotFinite as exc:
        raise InvalidSpec(f"{quantity} overflows {where}") from exc


def finite(values):
    """values itself once every entry is finite; InvalidSpec otherwise.

    The one finiteness check of a derived value: an array, a coefficient
    table or a list of numbers.  Under naming_overflow the error names
    the quantity; outside any name it reads "jet coefficients must be
    finite", as for a jet built from a table.
    """
    if not np.isfinite(values).all():
        raise _NotFinite("jet coefficients must be finite")
    return values


def is_number(x, count: bool = False) -> bool:
    """Whether x is an input number: a real, or with count a count.

    A real is a finite numbers.Real and a count a numbers.Integral;
    NumPy scalars are both, while a bool is neither, and neither is a
    string, None or 2.0 as a count.  Every number that enters from
    outside is judged here.
    """
    kind = type(x)
    if kind is bool:
        return False
    # an exact int or float skips the slower abstract-class checks
    if kind is int or (kind is not float and isinstance(x, numbers.Integral)):
        return count or abs(x) <= sys.float_info.max
    return not count and (kind is float or isinstance(x, numbers.Real)) and math.isfinite(x)


def quote(x) -> str:
    """x as an error message quotes it: JSON as JSON, else by its repr, cut to 60 characters."""
    try:
        text = json.dumps(x)
    except (TypeError, ValueError):  # no JSON value
        text = repr(x)
    return text if len(text) <= 60 else text[:57] + "..."


def as_real(x, what: str) -> float:
    """x as a float if is_number judges it a real; InvalidSpec naming what otherwise."""
    if not is_number(x):
        raise InvalidSpec(f"{what} must be a finite number, got {quote(x)}")
    return float(x)


def as_point(p, what: str) -> tuple[float, float]:
    """p as two floats if it is a pair of reals, as is_number judges them;
    InvalidSpec naming what otherwise."""
    try:
        u1, u2 = p
    except (TypeError, ValueError):
        u1 = u2 = None
    if not (is_number(u1) and is_number(u2)):
        raise InvalidSpec(f"{what} must be two finite numbers, got {quote(p)}")
    return float(u1), float(u2)


@lru_cache(maxsize=None)
def _landing(a_shape, b_shape, order: int | None):
    """convolve2's plan for an a_shape and a b_shape table: the entries of
    the flat outer product it sums (all, or with an order those within
    it), the flat index in the result where each lands, and its shape.
    The index arrays are read-only; the degree caps bound the shapes."""
    (ra, ca), (rb, cb) = a_shape, b_shape
    shape = (ra + rb - 1, ca + cb - 1) if order is None else (order + 1, order + 1)
    i, j, k, l = np.ogrid[:ra, :ca, :rb, :cb]
    keep = slice(None) if order is None else np.flatnonzero(i + j + k + l <= order)
    land = ((i + k) * shape[1] + j + l).ravel()[keep]
    land.setflags(write=False)
    if order is not None:
        keep.setflags(write=False)
    return keep, land, shape


def convolve2(a: np.ndarray, b: np.ndarray, order: int | None = None) -> np.ndarray:
    """The product's table of two coefficient tables, or with an order
    its (order+1)-square table cut to that total order.

    The one product kernel.  Each entry is summed from +0.0 in one fixed
    order, ascending over a's entries (i, j), then b's (k, l): the flat
    outer product holds the products in that order, and np.bincount
    adds each into its entry in the order given.  So the bits depend on
    IEEE multiply and add alone, not on the CPU's kernels.  With an
    order, only the products that land within it are summed, the same
    ones in the same order: each entry has the full product's bits, and
    every entry beyond the order is +0.0.
    """
    keep, land, shape = _landing(a.shape, b.shape, order)
    products = np.multiply.outer(a, b).ravel()[keep]
    return np.bincount(land, products, minlength=shape[0] * shape[1]).reshape(shape)


#: Most stacked entries, points times stacked columns, that one block of
#: a HornerStack evaluation holds; the block length in points follows
#: from the stack.  Horner runs in place, so a block holds one array of
#: that many floats (8 MB).  `trace` of CI's dense degree-16 map at the
#: 512 x 512 grid cap took 38.6 s of CPU and peaked at 151 MB RSS with
#: this budget, 53.9 s and 151 MB with 2**18 entries, and 38.6 s and
#: 183 MB with 2**22 (one run each on 2 shared vCPUs of an AVX-512 Xeon,
#: Python 3.11.7, NumPy 2.4.6).
_EVAL_BLOCK = 1 << 20


class HornerStack:
    """Coefficient tables evaluated at the same points in one Horner pass.

    The one evaluator of Poly2 tables: Poly2.__call__ and eval_grid run
    a one-table stack, and the Newton loop and the critical value image
    stack several tables.  The columns of all tables form one stacked
    table, ordered by descending u2 power and, within a power, widest
    table first; a table with fewer rows gets leading zero rows.  Horner
    in u1 runs in place over every stacked column at once.  Horner in u2
    then runs, for each power j, over the tables wider than j, which
    come first.  Each pass starts from the top coefficient plus the
    coordinate times zero, then multiplies by the coordinate and adds
    the next coefficient: NumPy's own order for polynomial values, so
    each value has the bits NumPy gives its table at its point, or on
    its grid.  A leading zero row adds +0.0 to a running +0.0 and so
    changes no bit at a finite point; an infinite or nan coordinate
    gives nan either way.  A table given twice (the same object) is
    stacked once.
    """

    __slots__ = ("_top", "_rows", "_runs", "_take", "_count")

    def __init__(self, tables):
        distinct: list[np.ndarray] = []
        for t in tables:
            if not any(t is d for d in distinct):
                distinct.append(t)
        distinct.sort(key=lambda t: -t.shape[1])
        take = [next(k for k, d in enumerate(distinct) if d is t) for t in tables]
        widths = [t.shape[1] for t in distinct]
        # one zero-padded block, filled one table at a time and read once
        # in run order
        block = np.zeros((max(t.shape[0] for t in distinct), widths[0], len(distinct)))
        for k, t in enumerate(distinct):
            block[: t.shape[0], : t.shape[1], k] = t
        runs, power, which, n = [], [], [], 0
        for j in range(widths[0] - 1, -1, -1):
            while n < len(widths) and widths[n] > j:  # the tables wider than j
                n += 1
            runs.append((slice(n), slice(len(power), len(power) + n)))
            power += [j] * n
            which += range(n)
        # the read leaves each row strided; a row is read on every step
        stacked = np.ascontiguousarray(block[::-1, power, which])
        self._top, *self._rows = list(stacked[:, :, None])
        self._runs = runs
        self._take = None if take == list(range(len(distinct))) else take
        self._count = len(distinct)

    def _along_u1(self, x1: np.ndarray) -> np.ndarray:
        """Horner in u1 over every stacked column: row c holds column c at each x1."""
        c = self._top + x1 * 0.0
        for row in self._rows:
            c *= x1
            c += row
        return c

    def _along_u2(self, c: np.ndarray, x2: np.ndarray, out: np.ndarray) -> None:
        """Horner in u2 over the column values c, into out in place, one run per power."""
        for tables, columns in self._runs:
            head = out[tables]
            head *= x2
            head += c[columns]

    def __call__(self, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
        """Values at the points (u1[i], u2[i]) of 1-D arrays, one row per table given.

        The points run in blocks of at most _EVAL_BLOCK stacked entries.
        """
        n = len(u1)
        out = np.zeros((self._count, n))
        block = max(1, _EVAL_BLOCK // len(self._top))
        for a in range(0, n, block):
            x1, x2 = u1[a : a + block], u2[a : a + block]
            self._along_u2(self._along_u1(x1), x2, out[:, a : a + block])
        return out if self._take is None else out[self._take]

    def grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Values on the tensor grid of the 1-D axes xs and ys, one
        (len(xs), len(ys)) plane per table given: entry (a, b) is the
        value at (xs[a], ys[b]).  The u1 pass runs once per column along
        xs, and the u2 pass as an outer product with ys."""
        out = np.zeros((self._count, len(xs), len(ys)))
        self._along_u2(self._along_u1(xs)[:, :, None], ys, out)
        return out if self._take is None else out[self._take]


@lru_cache(maxsize=None)
def outside_order(order: int) -> np.ndarray:
    """Read-only mask of the (order+1)^2 table entries with i + j > order."""
    k = np.arange(order + 1)
    mask = np.add.outer(k, k) > order
    mask.setflags(write=False)
    return mask


def order_cut(t: np.ndarray, order: int) -> np.ndarray:
    """A new (order+1)-square table: t's entries within total order, +0.0 elsewhere."""
    out = np.zeros((order + 1, order + 1))
    m1, m2 = min(order + 1, t.shape[0]), min(order + 1, t.shape[1])
    out[:m1, :m2] = t[:m1, :m2]
    out[outside_order(order)] = 0.0
    return out


@lru_cache(maxsize=None)
def _pascal(n: int) -> tuple[np.ndarray, np.ndarray]:
    """C(i, a) and max(i - a, 0) at [a, i], both n x n and read-only."""
    comb = np.array([[math.comb(i, a) for i in range(n)] for a in range(n)], dtype=float)
    k = np.arange(n)
    gap = np.maximum(k[None, :] - k[:, None], 0)
    comb.setflags(write=False)
    gap.setflags(write=False)
    return comb, gap


def _binomial(d: float, n: int, rows: int | None = None) -> np.ndarray:
    """B[a, i] = C(i, a) d**(i - a) for i < n and the first rows a (all n by default).

    Row a of B, summed against c, is the coefficient of w**a in
    sum_i c_i (d + w)**i.  The powers of d are running products, since
    NumPy's float power rounds differently on CPUs with AVX-512.
    """
    comb, gap = _pascal(n)
    powers = np.full(n, d)
    powers[0] = 1.0
    with _overflow_raises_later():
        return comb[:rows] * np.multiply.accumulate(powers)[gap[:rows]]


def _contract(b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_i b[a, i] t[i, j] at every (a, j), summed in ascending i from +0.0.

    Elementwise products and a running sum, with no BLAS call, so each
    entry's bits depend on IEEE multiply and add alone: on neither the
    CPU's BLAS kernel nor which other entries are formed.  The last
    partial sum plus +0.0 is the sum from +0.0; np.add.reduce would not
    do, since it sums pairwise when it forms a single entry.
    """
    return np.add.accumulate(b.T[:, :, None] * t[:, None, :])[-1] + 0.0


class Poly1:
    """Polynomial in one variable, held as a one-column Poly2.

    Entry (k, 0) of ``poly2.table`` multiplies y**k, so derivatives,
    composition and jets (poly_to_jet recentres the Poly2) run on the
    Poly2 table kernel.
    """

    __slots__ = ("poly2",)

    def __init__(self, coeffs: Mapping[int, float] | None = None):
        self.poly2 = Poly2({(k, 0): c for k, c in (coeffs or {}).items()})

    @classmethod
    def _of(cls, poly2: "Poly2") -> "Poly1":
        """Wrap a Poly2 in u1 alone."""
        p = cls.__new__(cls)
        p.poly2 = poly2
        return p

    @classmethod
    def identity(cls) -> "Poly1":
        return cls({1: 1.0})

    @classmethod
    def constant(cls, c: float) -> "Poly1":
        return cls({0: c})

    @property
    def coeffs(self) -> dict[int, float]:
        """The nonzero coefficients as a new {k: c} dict, in ascending k."""
        return {k: c for k, c in enumerate(self.poly2.table[:, 0].tolist()) if c}

    def degree(self) -> int:
        return self.poly2.degree()

    def is_zero(self) -> bool:
        return self.poly2.is_zero()

    def derivative(self, m: int = 1) -> "Poly1":
        """The m-th derivative: the order (m, 0) its Poly2 keeps."""
        return Poly1._of(self.poly2.derivative((m, 0)))

    def __call__(self, y: float) -> float:
        """Value at y: its Poly2's value at (y, 0), by that kept HornerStack."""
        with naming_overflow("the polynomial", f"at {y!r}"):
            return finite(self.poly2((y, 0.0)))

    def compose2(self, inner: "Poly2") -> "Poly2":
        """Exact substitution self(inner(u1, u2)) via Horner's scheme."""
        *low, top = self.poly2.table[:, 0].tolist()
        out = Poly2.constant(top)
        for c in reversed(low):
            out = out * inner + Poly2.constant(c)
        return out

    def max_abs_coeff(self) -> float:
        return self.poly2.max_abs_coeff()

    def __repr__(self):
        return f"Poly1({self.coeffs!r})"


class Poly2:
    """Polynomial in two variables, stored as a dense coefficient table.

    Entry (i, j) of ``table`` multiplies u1**i * u2**j.  The table is
    float64, finite, read-only and trimmed: its last row and its last
    column each hold a nonzero entry (the zero polynomial is [[0.0]]).
    """

    __slots__ = ("table", "_kept", "_root", "_stack", "__weakref__")

    def __init__(self, coeffs: Mapping[tuple, float] | None = None):
        terms = []
        for e, c in (coeffs or {}).items():
            # an exact int pair and a finite float, the common input, skip is_number
            if not (type(e) is tuple and len(e) == 2 and type(e[0]) is type(e[1]) is int
                    and e[0] >= 0 and e[1] >= 0 or isinstance(e, tuple) and len(e) == 2
                    and all(is_number(k, count=True) and k >= 0 for k in e)):
                raise InvalidSpec(f"an exponent key must be two non-negative integers, got {e!r}")
            c = c if type(c) is float and math.isfinite(c) else as_real(c, "coefficient")
            terms.append((int(e[0]), int(e[1]), c))
        rows = max((i for i, _, _ in terms), default=0) + 1
        cols = max((j for _, j, _ in terms), default=0) + 1
        table = np.zeros((rows, cols))
        for i, j, c in terms:
            table[i, j] += c
        self._set_table(table)

    @classmethod
    def _of(cls, table: np.ndarray) -> "Poly2":
        """Wrap a freshly computed table, which the instance then owns."""
        p = cls.__new__(cls)
        p._set_table(table)
        return p

    def _set_table(self, table: np.ndarray) -> None:
        if not np.isfinite(table).all():
            raise _NotFinite("non-finite coefficient")
        # most tables come out trimmed already: a nonzero last row and column
        if not (table.size and table[-1].any() and table[:, -1].any()):
            nonzero = table != 0.0
            rows = np.flatnonzero(nonzero.any(axis=1))
            if rows.size:
                cols = np.flatnonzero(nonzero.any(axis=0))
                table = table[: rows[-1] + 1, : cols[-1] + 1].copy()
            else:
                table = np.zeros((1, 1))
        table.setflags(write=False)
        self.table = table

    @property
    def coeffs(self) -> dict[tuple[int, int], float]:
        """The nonzero coefficients as a new {(i, j): c} dict."""
        i, j = np.nonzero(self.table)
        return dict(zip(zip(i.tolist(), j.tolist()), self.table[i, j].tolist()))

    @classmethod
    def variable(cls, axis: int) -> "Poly2":
        if axis == 1:
            return cls({(1, 0): 1.0})
        if axis == 2:
            return cls({(0, 1): 1.0})
        raise ValueError("axis must be 1 or 2")

    @classmethod
    def constant(cls, c: float) -> "Poly2":
        return cls({(0, 0): c})

    def degree(self) -> int:
        i, j = np.nonzero(self.table)
        return int((i + j).max(initial=0))

    def is_zero(self) -> bool:
        return not self.table.any()

    def partial(self, axis: int) -> "Poly2":
        """The partial derivative along u1 (axis 1) or u2 (axis 2), kept like
        every order, so a Newton system is its equations alone: newton_batch
        reads each Jacobian row as (p.partial(1), p.partial(2))."""
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        return self.derivative((2 - axis, axis - 1))

    def derivative(self, order: tuple[int, int]) -> "Poly2":
        """The partial derivative of order (i, j): i times along u1, j along u2.

        Each order is kept on the root, the polynomial the partials were
        first taken from, derived there u1 first: (i, 0) from (i - 1, 0),
        (i, j) from (i, j - 1).  So while the root is alive, every route
        to an order, p.partial(2).partial(1) or p.partial(1).partial(2),
        gives one object with that chain's bits.  A partial holds its root
        weakly, so no reference cycle forms and a root and its partials
        are freed as soon as they are unused; a partial whose root is gone
        derives on a new root of the same table, which keeps nothing: the
        same bits, but a new object on each call.  An order that overflows
        is not kept and raises InvalidSpec each call.
        """
        if min(order) < 0:
            raise ValueError(f"a derivative order must be non-negative, got {order}")
        if not any(order):
            return self
        if getattr(self, "_root", None):  # a partial: its root keeps every order
            ref, table, (a, b) = self._root
            return (ref() or Poly2._of(table)).derivative((a + order[0], b + order[1]))
        i, j = order
        kept = self._kept = getattr(self, "_kept", {})  # made on first use
        if (i, j) not in kept:
            t = self.derivative((i, j - 1) if j else (i - 1, 0)).table
            with _overflow_raises_later():
                k = np.arange(1, t.shape[1 if j else 0])
                t = t[:, 1:] * k if j else t[1:] * k[:, None]
            p = kept[i, j] = Poly2._of(t)
            p._root = weakref.ref(self), self.table, (i, j)
        return kept[i, j]

    def _own_stack(self) -> HornerStack:
        """The one-table HornerStack of the table, made on first use and kept."""
        if not hasattr(self, "_stack"):
            self._stack = HornerStack([self.table])
        return self._stack

    def __call__(self, u):
        """Value at the point u = (u1, u2), by the polynomial's kept HornerStack.

        u1 and u2 may also be coordinate arrays that broadcast to one
        shape; the values then come back as an array of that shape, each
        bit for bit the value at its point, since every point runs the
        same Horner order.
        """
        u1, u2 = np.asarray(u[0], dtype=float), np.asarray(u[1], dtype=float)
        if u1.shape != u2.shape:
            u1, u2 = np.broadcast_arrays(u1, u2)
        out = self._own_stack()(u1.ravel(), u2.ravel())[0]
        return float(out[0]) if u1.ndim == 0 else out.reshape(u1.shape)

    def eval_grid(self, xs, ys) -> np.ndarray:
        """Values on the tensor grid of the 1-D axes xs and ys.

        Entry (a, b) of the (len(xs), len(ys)) result is the value at
        (xs[a], ys[b]).  The kept HornerStack runs its two passes on the
        grid (HornerStack.grid): along xs for every column of the table,
        then along ys as an outer product, in place.  That is the order
        __call__ takes at one point, so every entry equals the point
        value bit for bit.  No BLAS product is involved, so the bits do
        not depend on the BLAS thread count either.
        """
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        return self._own_stack().grid(xs, ys)[0]

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Poly2.constant(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        a, b = self.table, other.table
        out = np.zeros((max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1])))
        out[: a.shape[0], : a.shape[1]] = a
        with _overflow_raises_later():
            out[: b.shape[0], : b.shape[1]] += b
        return Poly2._of(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly2._of(-self.table)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly2) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, (int, float, Poly2)):
            return NotImplemented
        with _overflow_raises_later():
            if isinstance(other, Poly2):
                return Poly2._of(convolve2(self.table, other.table))
            return Poly2._of(self.table * other)

    __rmul__ = __mul__

    def _shifted_table(self, base, rows: int | None = None) -> np.ndarray:
        """The table of p(base + w), or its first rows rows and columns:
        B(d1) T B(d2)^T, contracted over T's rows and then its columns."""
        t = self.table
        d1, d2 = float(base[0]), float(base[1])
        if d1 == 0.0 and d2 == 0.0:
            # the binomial matrices are the identity, and each sum adds the
            # entry to zeros from +0.0: the entry itself, with -0.0 turned
            # to +0.0
            return t + 0.0
        b1, b2 = _binomial(d1, t.shape[0], rows), _binomial(d2, t.shape[1], rows)
        with _overflow_raises_later():
            return _contract(b2, _contract(b1, t).T).T

    def shift(self, base) -> "Poly2":
        """Rewrite p(u) as a polynomial in (u - base), exactly.

        The returned poly q satisfies q(w) = p(base + w) for all w.  Each
        coefficient of q is summed in one fixed order (poly._contract),
        so its bits are the same on every CPU.
        """
        return Poly2._of(self._shifted_table(base))

    def recentered_coeffs(self, base, order: int) -> np.ndarray:
        """Taylor coefficient table at ``base``, truncated at total order.

        Only the orders through ``order`` along each axis are formed.
        Each coefficient is summed in the fixed order of shift, whatever
        else is formed, so it has the bits of shift's at every order.
        """
        return order_cut(self._shifted_table(base, order + 1), order)

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.table)))

    def __repr__(self):
        return f"Poly2({self.coeffs!r})"


def poly_from_spec(spec: Mapping) -> Poly1 | Poly2:
    """Build a polynomial from its JSON form.

    The spec is ``{"vars": 1 or 2, "terms": [{"c": coeff, "e": exponents}]}``.
    ``terms`` is a list of objects; ``c`` is a finite number and ``e`` a
    list of ``vars`` non-negative integers whose sum is at most
    MAX_INPUT_DEGREE, both judged by is_number, so a bool or a string is
    no number and 2.0 no exponent.  Types are checked before anything is
    converted, and duplicate exponent tuples are summed.  Raises
    InvalidSpec on anything else.
    """
    if not isinstance(spec, Mapping):
        raise InvalidSpec(f"spec must be a mapping, got {type(spec).__name__}")
    nvars, terms = spec.get("vars"), spec.get("terms")
    if not is_number(nvars, count=True) or nvars not in (1, 2):
        raise InvalidSpec(f"vars must be 1 or 2, got {quote(nvars)}")
    if not isinstance(terms, list):
        raise InvalidSpec("terms must be a list of {'c':…,'e':…} entries")
    acc: dict = {}
    for t in terms:
        if not isinstance(t, Mapping):
            raise InvalidSpec(f"a term must be an object, got {quote(t)}")
        c, e = as_real(t.get("c"), "coefficient"), t.get("e")
        if not isinstance(e, list) or len(e) != nvars:
            raise InvalidSpec(f"e must be a list of {nvars} exponents, got {quote(e)}")
        if not all(is_number(x, count=True) and x >= 0 for x in e):
            raise InvalidSpec(f"exponents must be non-negative integers, got {quote(e)}")
        if sum(e) > MAX_INPUT_DEGREE:
            raise InvalidSpec(f"term degree of {quote(e)} exceeds the cap {MAX_INPUT_DEGREE}")
        key = e[0] if nvars == 1 else tuple(e)
        acc[key] = acc.get(key, 0.0) + c
    return Poly1(acc) if nvars == 1 else Poly2(acc)


def poly_to_spec(p: Poly1 | Poly2) -> dict:
    """Serialize back to the JSON form, terms sorted by exponent."""
    if isinstance(p, Poly1):
        terms = [{"c": c, "e": [k]} for k, c in sorted(p.coeffs.items())]
        return {"vars": 1, "terms": terms}
    if isinstance(p, Poly2):
        terms = [{"c": c, "e": [i, j]} for (i, j), c in sorted(p.coeffs.items())]
        return {"vars": 2, "terms": terms}
    raise TypeError(f"not a polynomial: {type(p).__name__}")
