"""Properties of the dense jet layer: coefficient arrays with the jet
coefficient axis first, multiplied by JetSpace.einsum and differentiated
by JetSpace.partial."""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from affsym import geometry as geo
from affsym.jets import jet_space
from affsym.scenarios import load_scenario
from affsym.tensor_ops import nabla_powers

ELEMENTS = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
PRODUCT = "...,...->..."

settings.register_profile("dense_jets", max_examples=60, deadline=None)
settings.load_profile("dense_jets")


@st.composite
def jet_arrays(draw, count, extra=()):
    """A jet space of dim 1-3 and order 1-4, and ``count`` coefficient
    arrays of shape (space.size, *extra)."""
    space = jet_space(draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    shape = (space.size,) + tuple(extra)
    return space, [draw(hnp.arrays(np.float64, shape, elements=ELEMENTS))
                   for _ in range(count)]


def _close(got, want, scale=1.0):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, scale))


def _scalar_product(space, a, b):
    """Product of two scalar jets, pair by pair: a_i b_j adds to the
    coefficient of the sum of multi-indices i and j."""
    ii, jj, tt = space.mul_table
    out = np.zeros(space.size)
    np.add.at(out, tt, a[ii] * b[jj])
    return out


@given(jet_arrays(2, extra=(3,)))
def test_array_product_matches_scalar_jets(case):
    space, (a, b) = case
    prod = space.einsum(PRODUCT, a, b)
    for col in range(a.shape[1]):
        want = _scalar_product(space, a[:, col], b[:, col])
        _close(prod[:, col], want, np.max(np.abs(want)))


@given(jet_arrays(3))
def test_product_ring_laws(case):
    space, (a, b, c) = case
    mul = lambda x, y: space.einsum(PRODUCT, x, y)  # noqa: E731
    scale = float(np.sum(np.abs(a)) * np.sum(np.abs(b)) * np.sum(np.abs(c)) + 1)
    _close(mul(a, b), mul(b, a), scale)
    _close(mul(mul(a, b), c), mul(a, mul(b, c)), scale)
    _close(mul(a, b + c), mul(a, b) + mul(a, c), scale)


@given(jet_arrays(2), st.data())
def test_truncation_commutes_with_product_and_partial(case, data):
    space, (a, b) = case
    q = data.draw(st.integers(0, space.order - 1))
    lo = jet_space(space.dim, q)
    _close(space.einsum(PRODUCT, a, b)[: lo.size],
           lo.einsum(PRODUCT, a[: lo.size], b[: lo.size]), 100.0)
    if q >= 1:
        axis = data.draw(st.integers(0, space.dim - 1))
        lower = jet_space(space.dim, q - 1)
        np.testing.assert_array_equal(space.partial(a, axis)[: lower.size],
                                      lo.partial(a[: lo.size], axis))


@given(jet_arrays(2), st.data())
def test_partial_obeys_leibniz(case, data):
    space, (a, b) = case
    axis = data.draw(st.integers(0, space.dim - 1))
    lower = jet_space(space.dim, space.order - 1)
    lhs = space.partial(space.einsum(PRODUCT, a, b), axis)
    rhs = (lower.einsum(PRODUCT, space.partial(a, axis), b)
           + lower.einsum(PRODUCT, a, space.partial(b, axis)))
    _close(lhs, rhs, 1000.0)


@lru_cache(maxsize=None)
def _structure(name):
    sc = load_scenario(name)
    return geo.structure_jets(sc, sc.sample_points[0], 2)


@given(st.sampled_from(["paper_example_n2", "centroaffine_sphere"]),
       st.integers(0, 3), hnp.arrays(np.float64, (4, 4), elements=ELEMENTS))
def test_nabla_of_constant_two_form_stays_antisymmetric(name, k, raw):
    t = np.zeros((jet_space(4, k).size, 4, 4))
    t[0] = raw - raw.T
    nabla = nabla_powers(t, _structure(name), k)[k]
    scale = float(np.max(np.abs(nabla)))
    _close(nabla, -np.swapaxes(nabla, -1, -2), scale)
