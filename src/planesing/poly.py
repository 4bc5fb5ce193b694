"""Exact sparse polynomials in one or two variables.

Coefficients are floats keyed by exponent (int for one variable, an
(i, j) pair for two).  Arithmetic is exact up to float rounding; no
coefficient thresholding happens here.  This layer backs the jet
machinery and every place the rest of the package needs a globally
valid expression rather than a truncated local one.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

__all__ = ["InvalidSpec", "Poly1", "Poly2", "poly_from_spec", "poly_to_spec"]


class InvalidSpec(ValueError):
    """Malformed polynomial spec (bad arity, exponents, or coefficients)."""


def _check_coeff(c) -> float:
    c = float(c)
    if not math.isfinite(c):
        raise InvalidSpec(f"non-finite coefficient {c!r}")
    return c


class Poly1:
    """Polynomial in one variable, stored as {exponent: coefficient}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, float] | None = None):
        clean: dict[int, float] = {}
        if coeffs:
            for k, c in coeffs.items():
                k = int(k)
                if k < 0:
                    raise InvalidSpec(f"negative exponent {k}")
                c = _check_coeff(c)
                if c != 0.0:
                    clean[k] = clean.get(k, 0.0) + c
        self.coeffs = {k: c for k, c in clean.items() if c != 0.0}

    @classmethod
    def identity(cls) -> "Poly1":
        return cls({1: 1.0})

    @classmethod
    def constant(cls, c: float) -> "Poly1":
        return cls({0: c})

    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def derivative(self, m: int = 1) -> "Poly1":
        p = self
        for _ in range(m):
            p = Poly1({k - 1: c * k for k, c in p.coeffs.items() if k >= 1})
        return p

    def __call__(self, y: float) -> float:
        return float(sum(c * y**k for k, c in self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Poly1.constant(other)
        if not isinstance(other, Poly1):
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return Poly1(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly1({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly1) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Poly1({k: c * other for k, c in self.coeffs.items()})
        if not isinstance(other, Poly1):
            return NotImplemented
        out: dict[int, float] = {}
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                k = ka + kb
                out[k] = out.get(k, 0.0) + ca * cb
        return Poly1(out)

    __rmul__ = __mul__

    def compose2(self, inner: "Poly2") -> "Poly2":
        """Exact substitution self(inner(u1, u2)) via Horner's scheme."""
        n = self.degree()
        dense = [self.coeffs.get(k, 0.0) for k in range(n + 1)]
        out = Poly2.constant(dense[n])
        for k in range(n - 1, -1, -1):
            out = out * inner + Poly2.constant(dense[k])
        return out

    def recentered_coeffs(self, base: float, order: int) -> list[float]:
        """Taylor coefficients at ``base``, truncated at ``order``."""
        out = [0.0] * (order + 1)
        for k, c in self.coeffs.items():
            for a in range(min(k, order) + 1):
                out[a] += c * math.comb(k, a) * base ** (k - a)
        return out

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __repr__(self):
        return f"Poly1({self.coeffs!r})"


class Poly2:
    """Polynomial in two variables, stored as {(i, j): coefficient}."""

    __slots__ = ("coeffs", "_dense")

    def __init__(self, coeffs: Mapping[tuple, float] | None = None):
        clean: dict[tuple[int, int], float] = {}
        if coeffs:
            for e, c in coeffs.items():
                i, j = int(e[0]), int(e[1])
                if i < 0 or j < 0:
                    raise InvalidSpec(f"negative exponent {(i, j)}")
                c = _check_coeff(c)
                if c != 0.0:
                    clean[(i, j)] = clean.get((i, j), 0.0) + c
        self.coeffs = {e: c for e, c in clean.items() if c != 0.0}
        self._dense = None

    def _dense_table(self):
        # coefficient matrix for Horner evaluation; instances never
        # mutate coeffs after construction, so build it once
        if self._dense is None:
            import numpy as np

            di = max((i for i, _ in self.coeffs), default=0)
            dj = max((j for _, j in self.coeffs), default=0)
            m = np.zeros((di + 1, dj + 1))
            for (i, j), c in self.coeffs.items():
                m[i, j] = c
            self._dense = m
        return self._dense

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
        return max((i + j for i, j in self.coeffs), default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def partial(self, axis: int) -> "Poly2":
        if axis == 1:
            return Poly2({(i - 1, j): c * i for (i, j), c in self.coeffs.items() if i >= 1})
        if axis == 2:
            return Poly2({(i, j - 1): c * j for (i, j), c in self.coeffs.items() if j >= 1})
        raise ValueError("axis must be 1 or 2")

    def __call__(self, u):
        """Value at the point u = (u1, u2).

        u1 and u2 may also be coordinate arrays of one shape; the values
        then come back as an array, each bit for bit the value at its
        point, since the same Horner table serves both.
        """
        import numpy as np
        from numpy.polynomial import polynomial as _npp

        out = _npp.polyval2d(
            np.asarray(u[0], dtype=float), np.asarray(u[1], dtype=float), self._dense_table()
        )
        return float(out) if out.ndim == 0 else out

    def eval_grid(self, U1, U2):
        """Evaluate on numpy arrays, with per-axis power caching."""
        import numpy as np

        di = max((i for i, _ in self.coeffs), default=0)
        dj = max((j for _, j in self.coeffs), default=0)
        p1 = [np.ones_like(U1)]
        for _ in range(di):
            p1.append(p1[-1] * U1)
        p2 = [np.ones_like(U2)]
        for _ in range(dj):
            p2.append(p2[-1] * U2)
        out = np.zeros(np.broadcast(U1, U2).shape)
        for (i, j), c in self.coeffs.items():
            out += c * p1[i] * p2[j]
        return out

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Poly2.constant(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0.0) + c
        return Poly2(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly2({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly2) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Poly2({e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, Poly2):
            return NotImplemented
        out: dict[tuple[int, int], float] = {}
        for (ia, ja), ca in self.coeffs.items():
            for (ib, jb), cb in other.coeffs.items():
                e = (ia + ib, ja + jb)
                out[e] = out.get(e, 0.0) + ca * cb
        return Poly2(out)

    __rmul__ = __mul__

    def shift(self, base) -> "Poly2":
        """Rewrite p(u) as a polynomial in (u - base), exactly.

        The returned poly q satisfies q(w) = p(base + w) for all w.
        """
        d1, d2 = float(base[0]), float(base[1])
        out: dict[tuple[int, int], float] = {}
        for (i, j), c in self.coeffs.items():
            for a in range(i + 1):
                for b in range(j + 1):
                    w = c * math.comb(i, a) * math.comb(j, b) * d1 ** (i - a) * d2 ** (j - b)
                    if w != 0.0:
                        e = (a, b)
                        out[e] = out.get(e, 0.0) + w
        return Poly2(out)

    def recentered_coeffs(self, base, order: int):
        """Taylor coefficient table at ``base``, truncated at total order."""
        import numpy as np

        d1, d2 = float(base[0]), float(base[1])
        out = np.zeros((order + 1, order + 1))
        for (i, j), c in self.coeffs.items():
            for a in range(min(i, order) + 1):
                for b in range(min(j, order - a) + 1):
                    out[a, b] += (
                        c * math.comb(i, a) * math.comb(j, b) * d1 ** (i - a) * d2 ** (j - b)
                    )
        return out

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __repr__(self):
        return f"Poly2({self.coeffs!r})"


def poly_from_spec(spec: Mapping) -> Poly1 | Poly2:
    """Build a polynomial from its JSON form.

    The spec is ``{"vars": 1 or 2, "terms": [{"c": coeff, "e": exponents}]}``
    with ``e`` a one- or two-element list matching ``vars``.  Duplicate
    exponent tuples are summed.  Raises InvalidSpec on anything else.
    """
    if not isinstance(spec, Mapping):
        raise InvalidSpec(f"spec must be a mapping, got {type(spec).__name__}")
    try:
        nvars = int(spec["vars"])
        terms = spec["terms"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"spec needs 'vars' and 'terms': {exc}") from exc
    if nvars not in (1, 2):
        raise InvalidSpec(f"vars must be 1 or 2, got {nvars}")
    if not isinstance(terms, Iterable) or isinstance(terms, (str, bytes)):
        raise InvalidSpec("terms must be a list of {'c':…,'e':…} entries")
    acc: dict = {}
    for t in terms:
        try:
            c = _check_coeff(t["c"])
            e = t["e"]
        except (KeyError, TypeError) as exc:
            raise InvalidSpec(f"bad term {t!r}") from exc
        except InvalidSpec:
            raise
        if isinstance(e, (int, float)):
            e = [e]
        e = list(e)
        if len(e) != nvars:
            raise InvalidSpec(f"exponent arity {len(e)} does not match vars={nvars}")
        for x in e:
            if int(x) != x or int(x) < 0:
                raise InvalidSpec(f"exponents must be non-negative integers, got {e}")
        key = int(e[0]) if nvars == 1 else (int(e[0]), int(e[1]))
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
