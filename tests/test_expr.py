import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsym.expr import (FUNCTIONS, Bin, Call, Neg, Num, ParseError, Pow,
                         UnknownIdentifierError, Var, parse_expr, to_source)
from affsym.jets import eval_jet

COORDS = ("x", "y", "z0", "z1")


def _value(e, point):
    return eval_jet(e, point, 0, COORDS)[0]


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
    rng = np.random.default_rng(42)
    for _ in range(200):
        e = _random_expr(rng, 3)
        once = parse_expr(to_source(e), COORDS)
        assert parse_expr(to_source(once), COORDS) == once


def test_printer_respects_precedence():
    src = "(x + y)*z0 - x/(y*z1)"
    e = parse_expr(src, COORDS)
    point = (1.3, -0.4, 2.0, 0.7)
    assert _value(parse_expr(to_source(e), COORDS), point) == _value(e, point)


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
    assert parse_expr(to_source(e), COORDS) == e
