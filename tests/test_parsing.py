import re

import pytest

from planesing.parsing import MAX_NESTING, ParseError, check_reals, parse_curve, parse_map, parse_reals
from planesing.poly import MAX_INPUT_DEGREE, InvalidSpec


def test_parse_map_lips_form():
    P, Q = parse_map("(u, v^3+u^2*v)")
    assert P.coeffs == {(1, 0): 1.0}
    assert Q.coeffs == {(0, 3): 1.0, (2, 1): 1.0}


def test_parse_map_juxtaposition_products():
    _, Q = parse_map("(u, v^3 + u^3 v)")
    assert Q.coeffs == {(0, 3): 1.0, (3, 1): 1.0}
    _, Q = parse_map("(u, 2u v^2)")
    assert Q.coeffs == {(1, 2): 2.0}


def test_parse_map_without_outer_parens():
    P, Q = parse_map("u, v^2")
    assert P.coeffs == {(1, 0): 1.0}
    assert Q.coeffs == {(0, 2): 1.0}


def test_parse_map_signs_and_constants():
    P, Q = parse_map("(-u + 0.5, v^2 - 3v)")
    assert P.coeffs == {(1, 0): -1.0, (0, 0): 0.5}
    assert Q.coeffs == {(0, 2): 1.0, (0, 1): -3.0}


def test_parse_map_scientific_notation():
    P, _ = parse_map("(1e-3*u, v)")
    assert P.coeffs == {(1, 0): 1e-3}


def test_parse_map_double_star_power():
    _, Q = parse_map("(u, v**4 + u*v)")
    assert Q.coeffs == {(0, 4): 1.0, (1, 1): 1.0}


def test_parse_map_nested_parens():
    _, Q = parse_map("(u, (v + u)^2)")
    assert Q.coeffs == {(0, 2): 1.0, (1, 1): 2.0, (2, 0): 1.0}


def test_parse_curve_uses_t():
    a, b = parse_curve("t, t^3 + 0.5*t^2")
    assert a.coeffs == {1: 1.0}
    assert b.coeffs == {3: 1.0, 2: 0.5}


def test_parse_curve_rejects_uv():
    with pytest.raises(ParseError):
        parse_curve("u, t^2")


def test_parse_map_rejects_t():
    with pytest.raises(ParseError):
        parse_map("(t, v^2)")


@pytest.mark.parametrize(
    "bad",
    [
        "(u, v",          # unbalanced
        "(u,)",           # empty component
        "(u, v, w)",      # arity
        "(u, v^)",        # dangling power
        "(u, v^-2)",      # negative power
        "(u, v^2.5)",     # fractional power
        "(u, @)",         # stray token
        "",               # empty
        "(u, v/2)",       # unsupported operator
        f"(u, v^{MAX_INPUT_DEGREE + 1})",              # exponent over the cap
        f"(u, 2^{MAX_INPUT_DEGREE + 1})",              # even of a constant
        f"(u, (v^{MAX_INPUT_DEGREE // 2 + 1})^2)",     # degree over the cap
        f"(u, u^{MAX_INPUT_DEGREE} v)",                # by a product
        "(u, v^" + "9" * 5000 + ")",                   # digits int() refuses
    ],
)
def test_parse_map_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_map(bad)


def test_parse_reals():
    assert parse_reals("0.5,-1", 2) == (0.5, -1.0)
    assert parse_reals("1,2,3") == (1.0, 2.0, 3.0)
    with pytest.raises(ParseError):
        parse_reals("1,2", 3)
    with pytest.raises(ParseError):
        parse_reals("a,b", 2)
    for bad in ("inf,5", "nan,5", "0,-inf", "1e999"):
        with pytest.raises(ParseError):
            parse_reals(bad)
    # the same check on values read from a JSON file
    assert check_reals([0.5, -1], 2, "p") == (0.5, -1.0)
    assert check_reals((1, 2, 3), None, "p") == (1.0, 2.0, 3.0)
    for bad in ([1.0], ["a", 0], [True, 0], [None, 0], [float("nan"), 0], [10**400, 0]):
        with pytest.raises(ParseError):
            check_reals(bad, 2, "p")


def test_nesting_up_to_the_cap_parses():
    deep = "(" * MAX_NESTING + "t" + ")" * MAX_NESTING
    a, _ = parse_curve(f"{deep}, t")
    assert a.coeffs == {1: 1.0}
    P, _ = parse_map(f"({deep.replace('t', 'u')}^2, v)")
    assert P.coeffs == {(2, 0): 1.0}
    with pytest.raises(ParseError, match="nest deeper"):
        parse_map(f"(({deep.replace('t', 'u')}), v)")


def test_parse_errors_are_invalid_spec():
    assert issubclass(ParseError, InvalidSpec) and issubclass(ParseError, ValueError)
    with pytest.raises(InvalidSpec):
        parse_reals("1,x")


def _component_text(rng, depth=0) -> str:
    """A random valid component in u and v of degree at most 8: signed
    terms of numbers, variables and parenthesised sums, with explicit,
    juxtaposed and power products and uneven whitespace."""
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        factors = []
        for _ in range(int(rng.integers(1, 3))):
            k = rng.random()
            if k < 0.3:
                f = str(rng.choice(["2", "0.5", "1e-3", ".25", "3.", "7"]))
            elif k < 0.8 or depth >= 2:
                f = str(rng.choice(["u", "v"]))
            else:
                f = "(" + _component_text(rng, depth + 1) + ")"
            if rng.random() < 0.3:
                f += str(rng.choice(["^", "**", " ^ "])) + str(rng.integers(0, 3))
            factors.append(f)
        # a space keeps two juxtaposed numbers apart
        terms.append(str(rng.choice(["*", " * ", " "])).join(factors))
    signs = [str(rng.choice(["", "-", "+ "]))]
    signs += [str(rng.choice([" + ", "-", " - "])) for _ in terms[1:]]
    return "".join(s + t for s, t in zip(signs, terms))


def test_components_read_alike_in_every_enclosure(rng):
    # a component reads the same bits with or without the wrapping pair,
    # and whatever the other component is
    for _ in range(300):
        p, q = _component_text(rng), _component_text(rng)
        wrapped, bare = parse_map(f"({p}, {q})"), parse_map(f"{p}, {q}")
        alone = parse_map(f"({p}, v)")[0], parse_map(f"(u, {q})")[1]
        for k in (0, 1):
            want = wrapped[k].table
            for got in (bare[k].table, alone[k].table):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (p, q)


def test_juxtaposed_groups_are_one_component():
    P, Q = parse_map("(u)(v), v")
    assert P.coeffs == {(1, 1): 1.0}
    assert Q.coeffs == {(0, 1): 1.0}


@pytest.mark.parametrize(
    "text,message",
    [
        ("((u, v))", "needs exactly 2 components, got 1"),
        ("(u,v)^2", "needs exactly 2 components, got 1"),
        ("(u, v))", "unbalanced parentheses"),
        (")(u, v", "unbalanced parentheses"),
    ],
)
def test_only_one_wrapping_pair_is_dropped(text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_map(text)


@pytest.mark.parametrize(
    "parse,text,message",
    [
        (parse_curve, "t, @", "unexpected character '@' at position 3"),
        (parse_curve, "t,@", "unexpected character '@' at position 2"),
        (parse_map, "(u, v \t\n$ 2)", "unexpected character '$' at position 8"),
        (parse_map, "@(u, v)", "unexpected character '@' at position 0"),
    ],
)
def test_an_unexpected_character_is_reported_where_it_stands(parse, text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse(text)


def test_a_long_sum_parses_without_recursion():
    P, Q = parse_map("+".join(["u"] * 10000) + ", v")
    assert P.coeffs == {(1, 0): 10000.0}
    assert Q.coeffs == {(0, 1): 1.0}
