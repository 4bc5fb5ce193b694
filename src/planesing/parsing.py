"""Tiny expression grammar for inline map and curve specs.

Accepts sums of signed monomial terms with explicit or juxtaposed
multiplication and integer powers, e.g. ``(u, v^3+u^3 v)`` for a plane
map or ``t,t^3`` for a curve.  Plane maps use variables u, v; curves
use t.  The text is tokenized once; one depth pass over the tokens
checks the parentheses, drops one pair that wraps the whole text and
cuts the rest at its top-level commas, and a recursive descent parses
each token slice.  An expression may not pass degree MAX_INPUT_DEGREE,
and no exponent or product beyond it is built; its parentheses may not
nest deeper than MAX_NESTING.  A curve is parsed with Poly2 arithmetic
in u1 and each component wrapped as a Poly1.  The output is exact
Poly1/Poly2 values ready for germ construction.
"""

from __future__ import annotations

import re

from .poly import MAX_INPUT_DEGREE, InvalidSpec, Poly1, Poly2, is_number, quote

__all__ = ["ParseError", "parse_map", "parse_curve", "parse_reals", "check_reals"]


class ParseError(InvalidSpec):
    """The expression, number list or input file is malformed.

    A kind of InvalidSpec, the package's one error for bad input.
    """


#: Deepest parenthesis nesting of one expression.  The recursive descent
#: takes three calls a level, so the cap keeps it well inside Python's
#: recursion limit; the expressions in use nest a few levels at most.
MAX_NESTING = 100


def _product(a, b):
    """a * b, refused before it is built when its degree would pass the cap."""
    if a.degree() + b.degree() > MAX_INPUT_DEGREE:
        raise ParseError(f"expression degree exceeds the cap {MAX_INPUT_DEGREE}")
    return a * b


_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z]+)"
    r"|(?P<op>\*\*|[\^*+\-(),])"
    r")"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()  # the spaces the token pattern skips
            if not rest:
                break
            pos = len(text) - len(rest)
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        val = m.group(m.lastgroup)
        tokens.append((m.lastgroup, "^" if val == "**" else val))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent over the token list for one expression."""

    def __init__(self, tokens, variables, one):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.one = one

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}")

    def parse_expr(self):
        sign = 1.0
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1.0 if val == "-" else 1.0
        acc = self.parse_term() * sign
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                term = self.parse_term()
                acc = acc + (term * (-1.0 if val == "-" else 1.0))
            else:
                return acc

    def parse_term(self):
        acc = self.parse_factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                acc = _product(acc, self.parse_factor())
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                # juxtaposition: "u^3 v", "3u", "2(u+v)"
                acc = _product(acc, self.parse_factor())
            else:
                return acc

    def parse_factor(self):
        kind, val = self.take()
        if kind == "num":
            base = self.one * float(val)
        elif kind == "name":
            try:
                base = self.variables[val]
            except KeyError:
                allowed = ", ".join(sorted(self.variables))
                raise ParseError(
                    f"unknown variable {val!r} (allowed: {allowed})"
                ) from None
        elif kind == "op" and val == "(":
            base = self.parse_expr()
            self.expect_op(")")
        else:
            raise ParseError(f"unexpected token {val!r}")
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            ekind, eval_ = self.take()
            if ekind != "num" or not re.fullmatch(r"\d+", eval_):
                raise ParseError(f"exponent must be a non-negative integer, got {eval_!r}")
            # the length test keeps int() off digit strings of any length
            digits = eval_.lstrip("0")
            if len(digits) > len(str(MAX_INPUT_DEGREE)) or int(eval_) > MAX_INPUT_DEGREE:
                raise ParseError(f"exponent {eval_} exceeds the cap {MAX_INPUT_DEGREE}")
            power = int(eval_)
            out = self.one * 1.0
            for _ in range(power):
                out = _product(out, base)
            return out
        return base

    def finished(self) -> bool:
        return self.pos >= len(self.tokens)


def _components(text: str) -> list[list[tuple[str, str]]]:
    """The token slices of the comma-separated components of text.

    The text is tokenized once, and one depth pass over the tokens
    checks that the parentheses balance, drops one pair that wraps the
    whole text, caps the nesting inside that pair at MAX_NESTING and
    cuts at the commas outside every other pair.
    """
    tokens = _tokenize(text)
    depth = deepest = 0
    first_close = None
    commas: tuple[list[int], list[int]] = ([], [])  # at depth 0 and at depth 1
    for k, tok in enumerate(tokens):
        if tok == ("op", "("):
            depth += 1
            deepest = max(deepest, depth)
        elif tok == ("op", ")"):
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses")
            if depth == 0 and first_close is None:
                first_close = k
        elif tok == ("op", ",") and depth < 2:
            commas[depth].append(k)
    if depth != 0:
        raise ParseError("unbalanced parentheses")
    wrapped = int(tokens[:1] == [("op", "(")] and first_close == len(tokens) - 1)
    if deepest - wrapped > MAX_NESTING:
        raise ParseError(f"parentheses nest deeper than the cap {MAX_NESTING}")
    cuts = [wrapped - 1, *commas[wrapped], len(tokens) - wrapped]
    return [tokens[a + 1 : b] for a, b in zip(cuts, cuts[1:])]


def _parse_pair(text: str, what: str, variables: dict) -> tuple[Poly2, Poly2]:
    parts = _components(text)
    if len(parts) != 2:
        raise ParseError(f"{what} needs exactly 2 components, got {len(parts)}")
    one = Poly2.constant(1.0)
    out = []
    for tokens in parts:
        if not tokens:
            raise ParseError("empty expression")
        parser = _Parser(tokens, variables, one)
        out.append(parser.parse_expr())
        if not parser.finished():
            raise ParseError(f"unexpected token {parser.peek()[1]!r} after the expression")
    return tuple(out)


def parse_map(text: str) -> tuple[Poly2, Poly2]:
    """Parse '(P(u,v), Q(u,v))' into a pair of two-variable polynomials."""
    return _parse_pair(text, "a plane map", {"u": Poly2.variable(1), "v": Poly2.variable(2)})


def parse_curve(text: str) -> tuple[Poly1, Poly1]:
    """Parse 'a(t), b(t)' into a pair of one-variable polynomials."""
    return tuple(map(Poly1._of, _parse_pair(text, "a curve", {"t": Poly2.variable(1)})))


def parse_reals(text: str, count: int | None = None) -> tuple[float, ...]:
    """Parse a comma-separated list of finite real numbers."""
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"expected comma-separated numbers, got {quote(text)}") from exc
    return check_reals(values, count, quote(text))


def check_reals(values, count: int | None, source: str) -> tuple[float, ...]:
    """The list or tuple values as floats if it holds count reals, as is_number judges them."""
    if not isinstance(values, (list, tuple)) or not all(map(is_number, values)):
        raise ParseError(f"expected finite numbers, got {source}")
    if count is not None and len(values) != count:
        raise ParseError(f"expected {count} numbers, got {len(values)} in {source}")
    return tuple(map(float, values))
