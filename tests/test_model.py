import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from affsym.canonical import classify, decompose
from affsym.model import (OMEGA_MAX_TRIES, OMEGA_MIN_DET, ComplexBlock, ModelError,
                          RealBlock, assemble, direct_sum, random_omega)
from affsym.tensor_ops import AlgebraicCurvature
from test_tensor_ops import tridiagonal_omega


def _curvature(m, x, y, z):
    """R(X, Y) Z of a Gauss model, contracted from its provider's full
    tensor R[l, t, i, j]."""
    return np.einsum("ltij,i,j,t->l", AlgebraicCurvature(m).full_tensor(), x, y, z)


def test_real_block_forms():
    s, h = direct_sum([RealBlock(2, 0.7, 1)])
    assert np.array_equal(s, [[0.7, 0.0], [1.0, 0.7]])
    assert np.array_equal(h, [[0.0, 1.0], [1.0, 0.0]])
    s, h = direct_sum([RealBlock(1, 0.0, -1)])
    assert np.array_equal(s, [[0.0]])
    assert np.array_equal(h, [[-1.0]])


def test_complex_block_form():
    s, h = direct_sum([ComplexBlock(1, 1.0, 2.0)])
    assert np.array_equal(s, [[1.0, 2.0], [-2.0, 1.0]])
    assert np.array_equal(h, [[0.0, 1.0], [1.0, 0.0]])
    s, h = direct_sum([ComplexBlock(2, 0.5, -1.5)])
    cell = np.array([[0.5, -1.5], [1.5, 0.5]])
    assert np.array_equal(s[:2, :2], cell)
    assert np.array_equal(s[2:, 2:], cell)
    assert np.array_equal(s[2:, :2], np.eye(2))
    assert np.array_equal(h, np.fliplr(np.eye(4)))


@pytest.mark.parametrize("make, words", [
    (lambda: RealBlock(0, 1.0, 1), "real block size must be >= 1"),
    (lambda: RealBlock(1, 0.0, 2), "real block sign must be +1 or -1"),
    (lambda: ComplexBlock(0, 0.5, 1.0), "complex block half-size must be >= 1")],
    ids=["real_size", "real_sign", "complex_half_size"])
def test_block_fields_are_checked(make, words):
    with pytest.raises(ModelError) as err:
        make()
    assert str(err.value) == words


def test_blocks_are_selfadjoint_pairs():
    rng = np.random.default_rng(5)
    for _ in range(50):
        if rng.random() < 0.5:
            b = RealBlock(int(rng.integers(1, 6)), float(rng.uniform(-2, 2)),
                          int(rng.choice((-1, 1))))
        else:
            b = ComplexBlock(int(rng.integers(1, 4)), float(rng.uniform(-2, 2)),
                             float(rng.uniform(0.2, 2)))
        s, h = direct_sum([b])
        assert np.max(np.abs(s.T @ h - h @ s)) == 0.0


def test_assemble_examples():
    alpha = 0.9
    m = assemble([RealBlock(2, alpha, 1), RealBlock(1, 0, 1), RealBlock(1, 0, 1)])
    assert m.dim == 4
    expected_s = np.zeros((4, 4))
    expected_s[0, 0] = expected_s[1, 1] = alpha
    expected_s[1, 0] = 1.0
    assert np.array_equal(m.S, expected_s)
    assert np.array_equal(m.H, np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=float))

    lams, signs = (0.3, -0.7, 1.1, 0.0), (1, -1, -1, 1)
    m = assemble([RealBlock(1, l, s) for l, s in zip(lams, signs)])
    assert np.array_equal(m.S, np.diag(lams))
    assert np.array_equal(m.H, np.diag(signs).astype(float))

    m = assemble([ComplexBlock(2, 0.4, 1.2)])
    assert m.dim == 4
    assert np.array_equal(m.H, np.fliplr(np.eye(4)))


def test_assemble_rejects_odd_and_small():
    with pytest.raises(ModelError):
        assemble([RealBlock(3, 0, 1), RealBlock(2, 0, 1)])
    with pytest.raises(ModelError):
        assemble([RealBlock(1, 0, 1), RealBlock(1, 0, 1)])
    with pytest.raises(ModelError):
        ComplexBlock(1, 1.0, 0.0)


def test_reorder_helpers():
    # block order moves blocks along the diagonal, not the canonical shape
    blocks = [RealBlock(2, 0, 1), ComplexBlock(1, 0, 1), RealBlock(1, 1, 1),
              RealBlock(1, -1, -1)]
    complex_first = [blocks[1], blocks[3], blocks[0], blocks[2]]
    a, b = assemble(blocks), assemble(complex_first)
    assert b.blocks == tuple(complex_first)
    assert np.array_equal(b.S[:2, :2], direct_sum([blocks[1]])[0])
    assert classify(decompose(a.S, a.H)) == classify(decompose(b.S, b.H))


def test_model_curvature_examples():
    # vanishing shape operator
    m = assemble([RealBlock(1, 0, 1)] * 4)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, y, z = rng.normal(size=(3, 4))
        assert np.max(np.abs(_curvature(m, x, y, z))) == 0.0

    # 2-dimensional complex block: R(e1,e2)e1 = S e1
    alpha, beta = 0.8, 1.4
    m = assemble([ComplexBlock(1, alpha, beta), RealBlock(1, 0, 1), RealBlock(1, 0, 1)])
    e = np.eye(m.dim)
    got = _curvature(m, e[0], e[1], e[0])
    expected = alpha * e[0] - beta * e[1]
    assert np.max(np.abs(got - expected)) == 0.0

    # real block with k > 3: R(e1, e_{k-1}) e2 = eps S e1
    k, alpha, eps = 5, -0.6, -1
    m = assemble([RealBlock(k, alpha, eps), RealBlock(1, 0, 1)])
    e = np.eye(m.dim)
    got = _curvature(m, e[0], e[k - 2], e[1])
    expected = eps * (alpha * e[0] + e[1])
    assert np.max(np.abs(got - expected)) == 0.0


def test_model_curvature_bilinear_antisymmetric():
    m = assemble([RealBlock(2, 0.5, 1), ComplexBlock(1, 0.3, 0.9)])
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y, z, w = rng.normal(size=(4, 4))
        a = _curvature(m, x, y, z)
        assert np.max(np.abs(a + _curvature(m, y, x, z))) < 1e-14
        lin = _curvature(m, 2 * x + w, y, z)
        ref = 2 * _curvature(m, x, y, z) + _curvature(m, w, y, z)
        assert np.max(np.abs(lin - ref)) < 1e-13


def test_block_permutation_equivariance():
    """Permuting trailing 1x1 blocks conjugates the model by that permutation."""
    lead = [RealBlock(2, 0.4, 1)]
    tail = [RealBlock(1, 0.5, 1), RealBlock(1, -1.0, -1), RealBlock(1, 2.0, 1),
            RealBlock(1, 0.0, -1)]
    m1 = assemble(lead + tail)
    m2 = assemble(lead + [tail[2], tail[0], tail[3], tail[1]])
    perm = [0, 1, 2 + 2, 2 + 0, 2 + 3, 2 + 1]  # new index -> old index
    p = np.zeros((6, 6))
    for new, old in enumerate(perm):
        p[old, new] = 1.0
    assert np.array_equal(p.T @ m1.S @ p, m2.S)
    assert np.array_equal(p.T @ m1.H @ p, m2.H)
    rng = np.random.default_rng(11)
    for _ in range(10):
        x, y, z = rng.normal(size=(3, 6))
        a = _curvature(m1, x, y, z)
        b = _curvature(m2, p.T @ x, p.T @ y, p.T @ z)
        assert np.max(np.abs(p.T @ a - b)) < 1e-14


def test_tridiagonal_omega_nondegenerate():
    for dim in (4, 6, 8, 10, 12):
        w = tridiagonal_omega(dim)
        assert np.max(np.abs(w + w.T)) == 0.0
        assert abs(np.linalg.det(w) - 1.0) < 1e-10


def test_random_omega_respects_zero_pairs():
    rng = np.random.default_rng(1)
    w = random_omega(6, rng, zero_pairs=[(0, 3), (2, 5)])
    assert w[0, 3] == 0.0 and w[3, 0] == 0.0
    assert w[2, 5] == 0.0 and w[5, 2] == 0.0
    assert np.max(np.abs(w + w.T)) == 0.0
    assert abs(np.linalg.det(w)) > 1e-6


def _product_block(spec):
    """Reference: one block as the products eigenvalue * I and sign * sip(k)
    (real) or cells written into zeros (complex)."""
    if isinstance(spec, RealBlock):
        k = spec.size
        s = spec.eigenvalue * np.eye(k)
        for j in range(k - 1):
            s[j + 1, j] = 1.0
        return s, spec.sign * np.fliplr(np.eye(k))
    k = spec.half_size
    cell = np.array([[spec.alpha, spec.beta], [-spec.beta, spec.alpha]])
    s = np.zeros((2 * k, 2 * k))
    for j in range(k):
        s[2 * j: 2 * j + 2, 2 * j: 2 * j + 2] = cell
        if j + 1 < k:
            s[2 * j + 2: 2 * j + 4, 2 * j: 2 * j + 2] = np.eye(2)
    return s, np.fliplr(np.eye(2 * k))


def _product_direct_sum(blocks):
    dim = sum(b.dim for b in blocks)
    s, h = np.zeros((dim, dim)), np.zeros((dim, dim))
    at = 0
    for b in blocks:
        cell = slice(at, at + b.dim)
        s[cell, cell], h[cell, cell] = _product_block(b)
        at += b.dim
    return s, h


# signed zeros among the values: -0.0 * I has -0.0 off its diagonal
BLOCK_VALUES = hst.one_of(hst.sampled_from((0.0, -0.0, 1.0, -1.0)),
                          hst.floats(-3.0, 3.0, allow_nan=False))
BLOCKS = hst.lists(hst.one_of(
    hst.builds(RealBlock, hst.integers(1, 5), BLOCK_VALUES, hst.sampled_from((1, -1))),
    hst.builds(ComplexBlock, hst.integers(1, 3), BLOCK_VALUES,
               BLOCK_VALUES.filter(lambda v: v != 0.0))), min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(BLOCKS)
def test_direct_sum_matches_block_products_with_signed_zeros(blocks):
    got, want = direct_sum(blocks), _product_direct_sum(blocks)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_negative_blocks_keep_negative_zeros():
    s, h = direct_sum([RealBlock(3, -0.5, -1)])
    assert np.signbit(s[0, 1]) and np.signbit(s[0, 2]) and np.signbit(h[0, 0])
    s, h = direct_sum([RealBlock(3, 0.5, 1)])
    assert not np.signbit(s).any() and not np.signbit(h).any()
    with pytest.raises(ModelError, match="not a block spec"):
        direct_sum([("real", 2, 0.5, 1)])


@settings(max_examples=50, deadline=None)
@given(hst.integers(2, 10), hst.integers(0, 2 ** 32 - 1), hst.data())
def test_random_omega_matches_triu_draw(dim, seed, data):
    pairs = data.draw(hst.lists(hst.tuples(hst.integers(0, dim - 1),
                                           hst.integers(0, dim - 1)), max_size=3))
    forbidden = {(min(i, j), max(i, j)) for i, j in pairs}
    rng = np.random.default_rng(seed)
    for _ in range(OMEGA_MAX_TRIES):
        want = np.triu(rng.uniform(-1.0, 1.0, size=(dim, dim)), 1)
        for i, j in forbidden:
            want[i, j] = 0.0
        want = want - want.T
        if abs(np.linalg.det(want)) > OMEGA_MIN_DET:
            break
    else:
        want = None
    rng = np.random.default_rng(seed)
    if want is None:
        with pytest.raises(ModelError):
            random_omega(dim, rng, pairs)
        return
    got = random_omega(dim, rng, pairs)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
