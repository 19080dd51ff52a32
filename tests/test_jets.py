import copy
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsym.expr import FUNCTIONS, Bin, Call, Neg, Num, Pow, Var, parse_expr
from affsym.jets import (_PRODUCT, JetDomainError, JetOrderError, _call, _constant,
                         _head, _power, _reciprocal, eval_jets, jet_space)

PRODUCT = "...,...->..."


def _jet(src, coords, point, order):
    return eval_jets([parse_expr(src, coords)], point, order, coords)[0]


def _derivative(c, order, multi_index):
    """Un-normalized partial derivative read from a coefficient array."""
    m = tuple(multi_index)
    coeff = c[jet_space(len(m), order).index_of[m]]
    return coeff * math.prod(math.factorial(v) for v in m)


def test_square_at_three():
    c = _jet("x^2", ("x",), (3.0,), 2)
    at = jet_space(1, 2).index_of
    assert c.shape == (3,)
    assert c[at[(0,)]] == 9.0
    assert c[at[(1,)]] == 6.0
    assert c[at[(2,)]] == 1.0      # second partial 2, normalized by 2!
    assert _derivative(c, 2, (2,)) == 2.0


def test_sine_first_order():
    c = _jet("sin(z0)", ("z0",), (math.pi / 4,), 1)
    assert abs(c[0] - math.sqrt(2) / 2) < 1e-15
    assert abs(c[jet_space(1, 1).index_of[(1,)]] - math.sqrt(2) / 2) < 1e-15


def test_quotient_value():
    c = _jet("y*sin(z0)/cos(z1)", ("y", "z0", "z1"),
             (2.0, math.pi / 4, math.pi / 6), 0)
    assert abs(c[0] - 1.6329931618554518) < 1e-15


def test_coefficient_table_is_exactly_the_simplex():
    space = jet_space(3, 4)
    assert all(sum(m) <= 4 for m in space.multi_indices)
    assert len(space.multi_indices) == len(set(space.multi_indices))
    from math import comb
    assert space.size == comb(3 + 4, 4)


# -- finite differences: the independent oracle ------------------------

_FD_H = 0.25


def _fd(fn, point, multi_index):
    """Nested 4th-order central differences; exact for per-variable degree <= 4."""
    for axis, reps in enumerate(multi_index):
        if reps > 0:
            lower = tuple(r - 1 if a == axis else r
                          for a, r in enumerate(multi_index))

            def stencil(pt, fn=fn, axis=axis, lower=lower):
                def shift(s):
                    q = list(pt)
                    q[axis] += s * _FD_H
                    return tuple(q)
                return (-_fd(fn, shift(2), lower) + 8 * _fd(fn, shift(1), lower)
                        - 8 * _fd(fn, shift(-1), lower)
                        + _fd(fn, shift(-2), lower)) / (12 * _FD_H)
            return stencil(point)
    return fn(point)


def _random_poly(rng, coords, max_total_degree):
    """Random polynomial with per-variable degree <= 3: its source and its
    terms as (coefficient, degrees) pairs."""
    terms, sources = [], []
    for _ in range(rng.integers(2, 6)):
        degs = rng.integers(0, 4, size=len(coords))
        while degs.sum() > max_total_degree:
            degs[rng.integers(0, len(coords))] = 0
        coeff = round(float(rng.uniform(-1, 1)), 4)
        factors = [str(coeff)]
        factors += [f"{c}^{d}" for c, d in zip(coords, degs) if d > 0]
        sources.append("*".join(factors))
        terms.append((coeff, tuple(int(d) for d in degs)))
    return " + ".join(sources), terms


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_polynomial_jets_match_finite_differences(order):
    rng = np.random.default_rng(100 + order)
    coords = ("x", "y")[: 1 + order % 2] + ("z0",)
    for _ in range(20 if order < 5 else 4):
        src, terms = _random_poly(rng, coords, order)
        e = parse_expr(src, coords)
        point = tuple(float(v) for v in rng.uniform(-1.5, 1.5, len(coords)))
        [jet] = eval_jets([e], point, order, coords)

        def plain(pt, terms=terms):
            return sum(coeff * math.prod(x ** d for x, d in zip(pt, degs))
                       for coeff, degs in terms)

        for m in jet_space(len(coords), order).multi_indices:
            assert abs(_derivative(jet, order, m) - _fd(plain, point, m)) < 1e-6


def test_ring_homomorphism():
    rng = np.random.default_rng(7)
    coords = ("x", "y")
    for _ in range(30):
        a = parse_expr(_random_poly(rng, coords, 3)[0], coords)
        b = parse_expr(_random_poly(rng, coords, 3)[0], coords)
        point = tuple(float(v) for v in rng.uniform(-1, 1, 2))
        ja, jb, jsum, jprod = (eval_jets([e], point, 3, coords)[0]
                               for e in (a, b, Bin("+", a, b), Bin("*", a, b)))
        scale = np.maximum(1.0, np.abs(jsum))
        assert np.max(np.abs((ja + jb) - jsum) / scale) < 1e-12
        scale = np.maximum(1.0, np.abs(jprod))
        product = jet_space(2, 3).einsum(PRODUCT, ja, jb)
        assert np.max(np.abs(product - jprod) / scale) < 1e-12


def test_polynomial_exactness_to_roundoff():
    # degree-3 polynomial at order 3: coefficients are exact rationals
    coords = ("x", "y")
    e = parse_expr("x^3 - 2*x*y^2 + y", coords)
    [c] = eval_jets([e], (2.0, -1.0), 3, coords)
    expected = {(0, 0): 3.0, (1, 0): 10.0, (0, 1): 9.0, (2, 0): 6.0,
                (1, 1): 4.0, (0, 2): -4.0, (3, 0): 1.0, (1, 2): -2.0}
    for m, v in zip(jet_space(2, 3).multi_indices, c):
        assert v == expected.get(m, 0.0)


def test_domain_errors():
    with pytest.raises(JetDomainError):
        _jet("ln(x)", ("x",), (-1.0,), 1)
    with pytest.raises(JetDomainError):
        _jet("sqrt(x)", ("x",), (-2.0,), 1)
    with pytest.raises(JetDomainError):
        _jet("tan(x)", ("x",), (math.pi / 2,), 1)
    with pytest.raises(JetDomainError):
        _jet("1/(x - 1)", ("x",), (1.0,), 2)
    with pytest.raises(JetDomainError):
        _jet("x^0.5", ("x",), (-1.0,), 1)


def test_order_cap():
    with pytest.raises(JetOrderError):
        _jet("x", ("x",), (0.0,), 6)
    with pytest.raises(JetOrderError):
        _jet("x", ("x",), (0.0,), -1)


def test_transcendental_derivatives_against_analytic():
    coords = ("x",)
    c = _jet("exp(2*x)", coords, (0.3,), 4)
    for k in range(5):
        assert abs(_derivative(c, 4, (k,)) - 2 ** k * math.exp(0.6)) < 1e-12
    c = _jet("ln(x)", coords, (2.0,), 4)
    expected = [math.log(2), 0.5, -0.25, 0.25, -0.375]
    for k in range(5):
        assert abs(_derivative(c, 4, (k,)) - expected[k]) < 1e-12
    c = _jet("tan(x)", coords, (0.4,), 3)
    t = math.tan(0.4)
    assert abs(_derivative(c, 3, (1,)) - (1 + t * t)) < 1e-12
    assert abs(_derivative(c, 3, (2,)) - 2 * t * (1 + t * t)) < 1e-12


def test_partial_drops_one_order():
    c = _jet("x^2*y", ("x", "y"), (1.5, 2.0), 3)
    dx = jet_space(2, 3).partial(c, 0)
    at = jet_space(2, 2).index_of
    assert dx.shape == (jet_space(2, 2).size,)
    assert dx[at[(0, 0)]] == 6.0          # 2xy at (1.5, 2)
    assert dx[at[(1, 0)]] == 4.0   # d2f/dx2 = 2y
    assert dx[at[(0, 1)]] == 3.0   # d2f/dxdy = 2x


# -- one pass over many expressions -----------------------------------


def _tree_jet(e, point, order, coords, label):
    """Reference: one expression at a time, every subtree evaluated where
    it occurs, by recursion (the evaluator before ``eval_jets``).  An error
    names ``label`` and the point, and a value that is not finite the head
    of the first node, children first, to fail."""
    space = jet_space(len(coords), order)
    point = tuple(map(float, point))
    env = {}
    for i, name in enumerate(coords):
        env[name] = _constant(space, point[i])
        if order >= 1:
            env[name][space.index_of[tuple(int(a == i) for a in range(len(coords)))]] = 1.0

    def walk(e):
        if isinstance(e, Num):
            return _constant(space, e.value)
        if isinstance(e, Var):
            return env[e.name]
        if isinstance(e, Neg):
            return -walk(e.operand)
        if isinstance(e, Bin):
            a, b = walk(e.lhs), walk(e.rhs)
            if e.op in "+-":
                return a + b if e.op == "+" else a - b
            return space.einsum(_PRODUCT, a, _reciprocal(space, b) if e.op == "/" else b)
        if isinstance(e, Pow):
            return _power(space, walk(e.base), e.exponent)
        return _call(space, e.func, walk(e.arg))

    def first_failing(e):
        # children first, left to right, as walk meets them
        for kid in (getattr(e, f) for f in ("lhs", "rhs", "operand", "base", "arg")
                    if hasattr(e, f)):
            found = first_failing(kid)
            if found is not None:
                return found
        return None if np.all(np.isfinite(walk(e))) else e

    with np.errstate(all="ignore"):
        try:
            out = walk(e)
        except JetDomainError as err:
            raise JetDomainError(f"{label}: {err} at {point}") from None
        if not np.all(np.isfinite(out)):
            raise JetDomainError(
                f"{label}: {_head(first_failing(e))} is not finite at {point}")
    return out


TWO = ("x", "y")
SUBTREES = st.recursive(
    st.one_of(st.builds(Num, st.floats(0.0, 8.0)), st.sampled_from(TWO).map(Var)),
    lambda sub: st.one_of(
        st.builds(Bin, st.sampled_from("+-*/"), sub, sub),
        st.builds(Neg, sub),
        st.builds(Pow, sub, st.sampled_from((0.0, 1.0, 2.0, 3.0, 0.5, 1.5))),
        st.builds(Call, st.sampled_from(FUNCTIONS), sub)),
    max_leaves=6)


@st.composite
def shared_lists(draw):
    """Expressions over a small pool of subtrees: a pool member itself, a
    deep copy of one (equal, not identical), or an operation on two."""
    pool = draw(st.lists(SUBTREES, min_size=1, max_size=4))
    pick = st.sampled_from(pool)
    item = st.one_of(
        pick,
        pick.map(copy.deepcopy),
        st.builds(Bin, st.sampled_from("+-*/"), pick, pick),
        st.builds(Call, st.sampled_from(FUNCTIONS), pick))
    return draw(st.lists(item, min_size=1, max_size=6))


def _same_as_reference(exprs, point, order, keep):
    try:
        want = [_tree_jet(e, point, q, TWO, f"expression {k}")
                for k, (e, q) in enumerate(zip(exprs, keep))]
    except JetDomainError as err:
        with pytest.raises(JetDomainError) as got:
            eval_jets(exprs, point, order, TWO, keep)
        assert str(got.value) == str(err)
        return
    got = eval_jets(exprs, point, order, TWO, keep)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@settings(max_examples=200, deadline=None)
@given(shared_lists(), st.integers(0, 3), st.data())
def test_one_pass_equals_one_expression_at_a_time(exprs, order, data):
    """Byte-equal to the reference at each kept order; kept orders that do
    not rise along the list (f, then xi in the structure solve) fail with
    the reference's first error."""
    point = data.draw(st.tuples(*[st.sampled_from((0.0, 1.0, -0.5, 2.3, -3.1))] * 2))
    keep = sorted(data.draw(st.lists(st.integers(0, order), min_size=len(exprs),
                                     max_size=len(exprs))), reverse=True)
    _same_as_reference(exprs, point, order, keep)
    _same_as_reference(exprs, point, order, [order] * len(exprs))


def test_first_failing_expression_names_the_error():
    overflow, log = parse_expr("exp(x)^400", TWO), parse_expr("ln(y)", TWO)
    fine = parse_expr("x*y", TWO)
    with pytest.raises(JetDomainError) as err:
        eval_jets([fine, overflow, log], (2.0, -1.0), 2, TWO)
    assert str(err.value) == "expression 1: ^400 is not finite at (2.0, -1.0)"
    with pytest.raises(JetDomainError) as err:
        eval_jets([fine, log, overflow], (2.0, -1.0), 2, TWO, labels=["f", "g", "h"])
    assert str(err.value) == "g: ln of a non-positive value at (2.0, -1.0)"
    # the head is the first node to fail, children first: exp here, not
    # the sum or the power above it
    with pytest.raises(JetDomainError) as err:
        eval_jets([parse_expr("x + exp(exp(x)*300)^2 + ln(x)", TWO)], (2.0, -1.0), 0,
                  TWO, labels=["immersion[0]"])
    assert str(err.value) == "immersion[0]: exp is not finite at (2.0, -1.0)"
    # a coefficient beyond the kept order is not checked: 1/x at 1e-60
    # overflows only in its order-5 coefficient
    tiny = (1e-60, 1.0)
    recip = parse_expr("1/x", TWO)
    with pytest.raises(JetDomainError):
        eval_jets([recip], tiny, 5, TWO)
    kept = eval_jets([recip, fine], tiny, 5, TWO, keep=[4, 5])[0]
    assert kept.tobytes() == eval_jets([recip], tiny, 4, TWO)[0].tobytes()


def test_kept_orders_are_checked():
    x = parse_expr("x", TWO)
    with pytest.raises(JetOrderError):
        eval_jets([x], (0.0, 0.0), 2, TWO, keep=[3])
    with pytest.raises(JetOrderError):
        eval_jets([x], (0.0, 0.0), 2, TWO, keep=[-1])
    with pytest.raises(ValueError):
        eval_jets([x, x], (0.0, 0.0), 2, TWO, keep=[1])
    with pytest.raises(ValueError, match="point dimension does not match coordinate count"):
        eval_jets([x], (0.0, 0.0, 0.0), 2, TWO)


def _balanced_sum(terms):
    while len(terms) > 1:
        terms = [Bin("+", a, b) for a, b in zip(terms[0::2], terms[1::2])] \
            + terms[len(terms) - len(terms) % 2:]
    return terms[0]


def test_long_sum_costs_about_one_walk():
    """Subtree keys cost O(1) per node: a 4000-term sum takes at most twice
    the reference walk, which has no keys; keyed on the dataclass nodes
    themselves, whose hash walks the subtree, it took over 100 times as long."""
    x, y = Var("x"), Var("y")
    terms = [Bin("*", Bin("*", Num(float(i)), x), Call("sin", y)) for i in range(4000)]
    total = _balanced_sum(terms)
    point = (0.3, 0.7)

    def best(fn):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
        return min(times), out

    t_ref, want = best(lambda: _tree_jet(total, point, 2, TWO, "total"))
    t_new, (got,) = best(lambda: eval_jets([total], point, 2, TWO))
    assert got.tobytes() == want.tobytes()
    assert t_new <= 2.0 * t_ref, (t_new, t_ref)
    # a parsed sum nests 4000 deep, beyond the interpreter's recursion limit
    parsed = parse_expr(" + ".join(f"{i}*x*sin(y)" for i in range(4000)), TWO)
    value = eval_jets([parsed], point, 0, TWO)[0][0]
    assert value == pytest.approx(sum(range(4000)) * 0.3 * math.sin(0.7), rel=1e-12)
