import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsym.expr import (FUNCTIONS, MAX_NESTING, Bin, Call, Neg, Num, ParseError,
                         Pow, UnknownIdentifierError, Var, parse_expr)
from affsym.jets import eval_jets

COORDS = ("x", "y", "z0", "z1")


def _value(e, point):
    return eval_jets([e], point, 0, COORDS)[0][0]


def _source(e, outer=0):
    """Reference printer for the parser tests: the source of ``e`` with the
    fewest parentheses that precedence (sum 1, product 2, unary minus 3,
    power 4, atom 5) and left associativity allow."""
    if isinstance(e, Num):
        text, prec = repr(e.value), 5
    elif isinstance(e, Var):
        text, prec = e.name, 5
    elif isinstance(e, Call):
        text, prec = f"{e.func}({_source(e.arg)})", 5
    elif isinstance(e, Pow):
        # '^' cannot chain (the exponent is a literal), so a Pow base needs parens
        text, prec = f"{_source(e.base, 5)}^{e.exponent!r}", 4
    elif isinstance(e, Neg):
        text, prec = f"-{_source(e.operand, 3)}", 3
    else:
        prec = 1 if e.op in "+-" else 2
        text = f"{_source(e.lhs, prec)}{e.op}{_source(e.rhs, prec + 1)}"
    return f"({text})" if prec < outer else text


def test_product_of_var_and_call():
    e = parse_expr("y*sin(z0)", COORDS)
    assert e == Bin("*", Var("y"), Call("sin", Var("z0")))


def test_precedence_pow_and_unary_minus():
    e = parse_expr("x^2 + -3.5", COORDS)
    assert e == Bin("+", Pow(Var("x"), 2.0), Neg(Num(3.5)))
    # power binds tighter than unary minus
    assert parse_expr("-x^2", COORDS) == Neg(Pow(Var("x"), 2.0))


def test_unknown_identifier_is_named():
    with pytest.raises(UnknownIdentifierError) as err:
        parse_expr("y*sin(w0)", ("x", "y", "z0"))
    assert "w0" in str(err.value)
    # a call of a name that is no function
    with pytest.raises(UnknownIdentifierError) as err:
        parse_expr("foo(x)", COORDS)
    assert str(err.value) == "at offset 0: unknown identifier 'foo'"


def test_parse_error_carries_offset_and_hint():
    with pytest.raises(ParseError) as err:
        parse_expr("x +", COORDS)
    assert err.value.offset == 3
    with pytest.raises(ParseError) as err:
        parse_expr("x ^ y", COORDS)
    assert "exponent" in str(err.value)
    with pytest.raises(ParseError):
        parse_expr("", COORDS)
    with pytest.raises(ParseError):
        parse_expr("sin(x", COORDS)
    with pytest.raises(ParseError) as err:
        parse_expr("x $ y", COORDS)
    assert str(err.value) == "at offset 2: unexpected character '$'"
    with pytest.raises(ParseError) as err:
        parse_expr("x y", COORDS)
    assert str(err.value) == "at offset 2: trailing input 'y' (expected end of expression)"


def test_left_associativity_and_division():
    e = parse_expr("x - y - z0", COORDS)
    assert e == Bin("-", Bin("-", Var("x"), Var("y")), Var("z0"))
    assert _value(parse_expr("12/4/3", COORDS), (0.0,) * 4) == 1.0


def _random_expr(rng, depth):
    if depth == 0:
        if rng.random() < 0.5:
            return Num(round(float(rng.uniform(-5, 5)), 3))
        return Var(COORDS[rng.integers(0, len(COORDS))])
    pick = rng.random()
    if pick < 0.55:
        op = "+-*/"[rng.integers(0, 4)]
        return Bin(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if pick < 0.7:
        return Neg(_random_expr(rng, depth - 1))
    if pick < 0.85:
        return Pow(_random_expr(rng, depth - 1), float(rng.integers(0, 4)))
    fn = ("sin", "cos", "exp")[rng.integers(0, 3)]
    return Call(fn, _random_expr(rng, depth - 1))


def test_print_parse_is_fixed_point():
    # negative literals print as a unary minus, so the first parse may
    # change the tree; the second must not
    rng = np.random.default_rng(42)
    for _ in range(200):
        e = _random_expr(rng, 3)
        once = parse_expr(_source(e), COORDS)
        assert parse_expr(_source(once), COORDS) == once


def test_printer_respects_precedence():
    src = "(x + y)*z0 - x/(y*z1)"
    e = parse_expr(src, COORDS)
    point = (1.3, -0.4, 2.0, 0.7)
    assert _value(parse_expr(_source(e), COORDS), point) == _value(e, point)


# numeric literals are unsigned, as the parser produces them
LITERALS = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
EXPRS = st.recursive(
    st.one_of(st.builds(Num, LITERALS), st.sampled_from(COORDS).map(Var)),
    lambda sub: st.one_of(
        st.builds(Bin, st.sampled_from("+-*/"), sub, sub),
        st.builds(Neg, sub),
        st.builds(Pow, sub, LITERALS),
        st.builds(Call, st.sampled_from(FUNCTIONS), sub)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(EXPRS)
def test_parse_inverts_print(e):
    assert parse_expr(_source(e), COORDS) == e


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("sin(", ")"), ("-", "")],
                         ids=["parentheses", "calls", "unary_minus"])
def test_nesting_is_capped_at_the_opening_token(opening, closing):
    for depth in (MAX_NESTING, MAX_NESTING + 1, 3000):
        src = opening * depth + "x" + closing * depth
        if depth == MAX_NESTING:
            parse_expr(src, COORDS)
            continue
        with pytest.raises(ParseError) as err:
            parse_expr(src, COORDS)
        # the token that opens level MAX_NESTING + 1
        assert err.value.offset == len(opening) * MAX_NESTING + len(opening) - 1
        assert f"nesting deeper than {MAX_NESTING}" in str(err.value)


def test_nesting_counts_levels_not_tokens():
    # 300 parenthesised groups side by side, and a 20000-term sum, nest one level
    parse_expr(" + ".join(["(x*(y))"] * 300), COORDS)
    # a 20000-term difference is a left-deep tree, walked here without recursion
    e, terms = parse_expr(" - ".join(["x"] * 20000), COORDS), 1
    while isinstance(e, Bin):
        assert e.op == "-" and e.rhs == Var("x")
        e, terms = e.lhs, terms + 1
    assert e == Var("x") and terms == 20000
    # unary signs and parentheses count together
    with pytest.raises(ParseError):
        parse_expr("-(" * (MAX_NESTING // 2 + 1) + "x" + ")" * (MAX_NESTING // 2 + 1),
                   COORDS)


@pytest.mark.parametrize("source, offset", [
    ("x + 1e400", 4), ("x^1e400 + 1", 2), ("2*" + "9" * 400, 2)],
    ids=["term", "exponent", "long_literal"])
def test_literal_beyond_double_range_is_a_parse_error(source, offset):
    with pytest.raises(ParseError, match="beyond the double range") as err:
        parse_expr(source, COORDS)
    assert err.value.offset == offset
    assert parse_expr("x + 1e308", COORDS) == Bin("+", Var("x"), Num(1e308))
