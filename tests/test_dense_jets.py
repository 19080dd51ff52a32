"""Properties of the dense jet layer: coefficient arrays with the jet
coefficient axis first, multiplied by JetSpace.einsum and differentiated
by JetSpace.gradient."""

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from affsym import geometry as geo
from affsym.jets import _contraction_plan, jet_space
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
    ii, jj, tt, _ = space._by_target
    out = np.zeros(space.size)
    np.add.at(out, tt, a[ii] * b[jj])
    return out


@pytest.mark.parametrize("dim, order", itertools.product(range(1, 7), range(5)))
def test_pair_table_lists_each_pair_once_by_target_then_i(dim, order):
    """``_by_target`` holds every pair (i, j) with deg i + deg j <= order
    once, its target t the multi-index sum, sorted by t and by i within a
    target, ``starts[t]`` the first row of t: the order whose sums the
    reduceat references below take as theirs."""
    space = jet_space(dim, order)
    ii, jj, tt, starts = space._by_target
    m = space.multi_indices
    pairs = [(i, j) for i in range(space.size) for j in range(space.size)
             if space.degrees[i] + space.degrees[j] <= order]
    assert sorted(zip(ii.tolist(), jj.tolist())) == pairs
    assert all(m[t] == tuple(a + b for a, b in zip(m[i], m[j])) for i, j, t in zip(ii, jj, tt))
    rows = list(zip(tt.tolist(), ii.tolist()))
    assert rows == sorted(rows)
    assert starts.tolist() == [tt.tolist().index(t) for t in range(space.size)]


#: the coefficient-wise product and the contractions callers pass: the
#: frame solve's and ``nabla_powers``' over 2-4 slots
SUBSCRIPTS = {"product": PRODUCT, "frame_solve": "rs,sk->rk"}
SUBSCRIPTS.update(
    (f"nabla_{slots}_{r}", f"mi{r},{slots[:s]}m{slots[s + 1:]}->i{slots}")
    for slots in ("ab", "abc", "abcd") for s, r in enumerate(slots))


@pytest.mark.parametrize("subscripts", SUBSCRIPTS.values(), ids=SUBSCRIPTS.keys())
@given(data=st.data())
def test_array_product_matches_scalar_jets(subscripts, data):
    """Each column of a product or contraction is the scalar jet product of
    the operands' columns, summed over the contracted index; every index
    has length 2 (the product's one axis 3)."""
    space = jet_space(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)))
    operands, out = ("x,x->x" if subscripts == PRODUCT else subscripts).split("->")
    left, right = operands.split(",")
    length = 3 if subscripts == PRODUCT else 2
    a, b = (data.draw(hnp.arrays(np.float64, (space.size,) + (length,) * len(s),
                                 elements=ELEMENTS)) for s in (left, right))
    prod = space.einsum(subscripts, a, b)
    letters = out + "".join(sorted(set(left + right) - set(out)))
    want = np.zeros((space.size,) + (length,) * len(out))
    for values in itertools.product(range(length), repeat=len(letters)):
        at = dict(zip(letters, values))
        col = lambda s: (slice(None),) + tuple(at[c] for c in s)  # noqa: E731
        want[col(out)] += _scalar_product(space, a[col(left)], b[col(right)])
    assert prod.shape == want.shape
    _close(prod, want, np.max(np.abs(want)))


#: values whose sums show the association: signed zeros and triples
#: such as (1e16, 1.0, -1e16), which sum to 0.0 or 1.0 by grouping
SUM_ORDER_ELEMENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 0.5, 3.0]), ELEMENTS)


def _reduceat_contraction(space, subscripts, a, b):
    """The contraction summed by ``np.add.reduceat``: the coefficient pairs
    in target order, the same matmul as ``JetSpace.einsum``, then each
    target's segment of the transposed product."""
    ii, jj, _, starts = space._by_target
    perm_a, perm_b, perm_out, lead, mid = _contraction_plan(subscripts)
    x, y = a.transpose(perm_a)[ii], b.transpose(perm_b)[jj]
    k = math.prod(x.shape[mid:])
    terms = x.reshape(x.shape[:lead] + (-1, k)) @ y.reshape(y.shape[:lead] + (k, -1))
    terms = terms.reshape(x.shape[:mid] + y.shape[lead + x.ndim - mid:])
    return np.add.reduceat(terms.transpose(perm_out), starts, axis=0)


@pytest.mark.parametrize("subscripts", [s for s in SUBSCRIPTS.values() if s != PRODUCT],
                         ids=[k for k, s in SUBSCRIPTS.items() if s != PRODUCT])
@given(data=st.data())
def test_contraction_sums_like_reduceat(subscripts, data):
    """Every contraction equals ``np.add.reduceat`` over the same terms bit
    for bit, signed zeros included, in dims 1-6 and orders 0-3, the orders
    check-geometry runs, where no target has more than 8 pairs.  An index
    has length 1 or 2, so a term is a single product or a sum of two; the
    reference is the installed numpy's, so a numpy that groups its sums
    otherwise fails here."""
    space = jet_space(data.draw(st.integers(1, 6)), data.draw(st.integers(0, 3)))
    operands, _ = subscripts.split("->")
    left, right = operands.split(",")
    length = {c: data.draw(st.integers(1, 2)) for c in sorted(set(left + right))}
    a, b = (data.draw(hnp.arrays(np.float64, (space.size,) + tuple(length[c] for c in s),
                                 elements=SUM_ORDER_ELEMENTS)) for s in (left, right))
    got = space.einsum(subscripts, a, b)
    want = _reduceat_contraction(space, subscripts, a, b)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


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
        np.testing.assert_array_equal(space.gradient(a)[: lower.size, axis],
                                      lo.gradient(a[: lo.size])[:, axis])


@given(jet_arrays(2), st.data())
def test_partial_obeys_leibniz(case, data):
    space, (a, b) = case
    axis = data.draw(st.integers(0, space.dim - 1))
    lower = jet_space(space.dim, space.order - 1)
    lhs = space.gradient(space.einsum(PRODUCT, a, b))[:, axis]
    rhs = (lower.einsum(PRODUCT, space.gradient(a)[:, axis], b)
           + lower.einsum(PRODUCT, a, space.gradient(b)[:, axis]))
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
