import math

import numpy as np
import pytest

from affsym.expr import Bin, parse_expr
from affsym.jets import (JetDomainError, JetOrderError, eval_jet, jet_space)

PRODUCT = "...,...->..."


def _jet(src, coords, point, order):
    return eval_jet(parse_expr(src, coords), point, order, coords)


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
        jet = eval_jet(e, point, order, coords)

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
        ja = eval_jet(a, point, 3, coords)
        jb = eval_jet(b, point, 3, coords)
        jsum = eval_jet(Bin("+", a, b), point, 3, coords)
        jprod = eval_jet(Bin("*", a, b), point, 3, coords)
        scale = np.maximum(1.0, np.abs(jsum))
        assert np.max(np.abs((ja + jb) - jsum) / scale) < 1e-12
        scale = np.maximum(1.0, np.abs(jprod))
        product = jet_space(2, 3).einsum(PRODUCT, ja, jb)
        assert np.max(np.abs(product - jprod) / scale) < 1e-12


def test_polynomial_exactness_to_roundoff():
    # degree-3 polynomial at order 3: coefficients are exact rationals
    coords = ("x", "y")
    e = parse_expr("x^3 - 2*x*y^2 + y", coords)
    c = eval_jet(e, (2.0, -1.0), 3, coords)
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
