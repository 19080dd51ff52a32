from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from affsym import canonical
from affsym import geometry as geo
from affsym.canonical import (CanonicalError, NotSelfadjointError, _cluster,
                              _pick_isotropy_vector, classify, decompose, rank)
from affsym.model import ComplexBlock, RealBlock, assemble, direct_sum
from affsym.scenarios import load_scenario


def _inertia(h):
    """(positive, negative) eigenvalue counts of a symmetric matrix."""
    w = np.linalg.eigvalsh(h)
    return int(np.sum(w > 1e-10)), int(np.sum(w < -1e-10))


def _sip_signature(n):
    """Signature (positive, negative) of the n x n sip matrix."""
    return (n + 1) // 2, n // 2


def test_sip_matrix_and_signature():
    # the H of a real block of sign +1 is the sip matrix
    def sip(n):
        return direct_sum([RealBlock(n, 0.0, 1)])[1]

    assert np.array_equal(sip(1), [[1.0]])
    assert np.array_equal(sip(3), [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert _sip_signature(4) == (2, 2)
    assert _sip_signature(5) == (3, 2)
    assert _sip_signature(1) == (1, 0)
    for n in range(1, 13):
        s = sip(n)
        assert np.array_equal(s @ s, np.eye(n))
        assert np.array_equal(s, s.T)
        assert _sip_signature(n) == _inertia(s)


def test_zero_matrix_splits_into_sign_blocks():
    pair = decompose(np.zeros((4, 4)), np.diag([1.0, -1.0, 1.0, -1.0]))
    assert len(pair.blocks) == 4
    assert all(b.size == 1 and b.eigenvalue == 0.0 for b in pair.blocks)
    assert sorted(b.sign for b in pair.blocks) == [-1, -1, 1, 1]
    assert pair.residual_jordan < 1e-12 and pair.residual_h < 1e-12


def test_canonical_input_is_recognised():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    # A^T H = H A = E_11 by hand, so the pair is admissible as given
    assert np.array_equal(a.T @ h, h @ a)
    pair = decompose(a, h)
    assert pair.blocks == (RealBlock(2, 0.0, 1),)
    assert pair.residual_jordan < 1e-12 and pair.residual_h < 1e-12


def test_not_selfadjoint_rejected():
    with pytest.raises(NotSelfadjointError):
        decompose(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2) + 0.0)
    with pytest.raises(CanonicalError):
        decompose(np.zeros((2, 2)), np.zeros((2, 2)))  # singular H
    with pytest.raises(CanonicalError, match="A and H must be square and of equal size"):
        decompose(np.eye(2), np.eye(3))


def _conjugate(rng, m, spread=2.0):
    n = m.dim
    u, _, vt = np.linalg.svd(rng.normal(size=(n, n)))
    q = u @ np.diag(rng.uniform(1.0 / spread, spread, size=n)) @ vt
    qi = np.linalg.inv(q)
    return q @ m.S @ qi, qi.T @ m.H @ qi, q


_EIG_GRID = [-2.1, -1.4, -0.8, 0.0, 0.6, 1.3, 2.0]


def _random_blocks(rng):
    dim = int(rng.choice([4, 6, 8, 10]))
    lams = list(rng.permutation(_EIG_GRID))
    cplx = [(a, b) for a in (-1.0, 0.0, 0.9) for b in (0.7, 1.6)]
    rng.shuffle(cplx)
    blocks = []
    left = dim
    while left > 0:
        if left >= 4 and cplx and rng.random() < 0.3:
            half = int(rng.integers(1, min(3, left // 2) + 1))
            a, b = cplx.pop()
            blocks.append(ComplexBlock(half, a, b))
            left -= 2 * half
            continue
        size = int(rng.integers(1, min(4, left) + 1))
        lam = lams.pop() if lams and rng.random() < 0.85 else 0.0
        blocks.append(RealBlock(size, lam, int(rng.choice((-1, 1)))))
        left -= size
    return blocks


def _block_key(b):
    if isinstance(b, RealBlock):
        return ("real", b.size, round(b.eigenvalue, 5), b.sign)
    return ("complex", b.half_size, round(b.alpha, 5), round(abs(b.beta), 5))


def test_roundtrip_recovers_blocks():
    rng = np.random.default_rng(2024)
    for trial in range(60):
        blocks = _random_blocks(rng)
        m = assemble(blocks)
        a, h, _ = _conjugate(rng, m)
        pair = decompose(a, h)
        assert max(pair.residual_jordan, pair.residual_h) < 1e-6, (trial, blocks)
        assert sorted(map(_block_key, pair.blocks)) == \
            sorted(map(_block_key, blocks)), (trial, blocks, pair.blocks)


def test_eigenvalue_multiset_matches_eig():
    # A defective eigenvalue of a size-k block scatters by ~eps^(1/k) in any
    # double-precision eigensolver, so block eigenvalues are compared against
    # the mean of their matched cluster (second-order accurate), not pointwise.
    rng = np.random.default_rng(55)
    for _ in range(20):
        blocks = _random_blocks(rng)
        m = assemble(blocks)
        a, h, _ = _conjugate(rng, m)
        pair = decompose(a, h)
        groups = []
        for b in pair.blocks:
            if isinstance(b, RealBlock):
                groups.append((complex(b.eigenvalue), b.size))
            else:
                groups.append((complex(b.alpha, b.beta), b.half_size))
                groups.append((complex(b.alpha, -b.beta), b.half_size))
        direct = list(np.linalg.eigvals(a))
        assert sum(c for _, c in groups) == len(direct)
        for lam, count in sorted(groups, key=lambda g: -g[1]):
            nearest = sorted(range(len(direct)), key=lambda t: abs(lam - direct[t]))
            chosen = nearest[:count]
            assert abs(lam - np.mean([direct[t] for t in chosen])) < 1e-6
            for t in sorted(chosen, reverse=True):
                direct.pop(t)


def test_sylvester_sign_total():
    rng = np.random.default_rng(77)
    for _ in range(30):
        blocks = _random_blocks(rng)
        m = assemble(blocks)
        a, h, _ = _conjugate(rng, m)
        pair = decompose(a, h)
        pos = neg = 0
        for b in pair.blocks:
            if isinstance(b, RealBlock):
                p, n = _sip_signature(b.size)
                if b.sign > 0:
                    pos, neg = pos + p, neg + n
                else:
                    pos, neg = pos + n, neg + p
            else:
                p, n = _sip_signature(2 * b.half_size)
                pos, neg = pos + p, neg + n
        assert (pos, neg) == _inertia(h)


def test_block_multiset_invariant_under_conjugation():
    rng = np.random.default_rng(31)
    blocks = [RealBlock(2, 0.5, -1), ComplexBlock(1, 1.0, 2.0)]
    m = assemble(blocks)
    reference = sorted(map(_block_key, decompose(m.S, m.H).blocks))
    for _ in range(10):
        a, h, _ = _conjugate(rng, m)
        assert sorted(map(_block_key, decompose(a, h).blocks)) == reference


def test_classify_shapes():
    zero = decompose(np.zeros((4, 4)), np.diag([1.0, 1.0, -1.0, -1.0]))
    summary = classify(zero)
    assert summary.final_form == "zero" and summary.admissible_shape

    m = assemble([RealBlock(2, 0.0, 1), RealBlock(1, 0.0, 1), RealBlock(1, 0.0, -1)])
    summary = classify(decompose(m.S, m.H))
    assert summary.final_form == "rank_one_nilpotent"
    assert summary.admissible_shape and summary.max_real_size == 2

    m = assemble([ComplexBlock(1, 0.4, 1.0), RealBlock(1, 0.0, 1), RealBlock(1, 0.0, 1)])
    summary = classify(decompose(m.S, m.H))
    assert summary.has_complex and not summary.admissible_shape
    assert summary.final_form is None

    # one 2-block with nonzero eigenvalue: right shape, not final form
    m = assemble([RealBlock(2, 0.8, 1), RealBlock(1, 0.0, 1), RealBlock(1, 0.0, 1)])
    summary = classify(decompose(m.S, m.H))
    assert summary.admissible_shape and summary.final_form is None


def test_rank():
    assert rank(np.zeros((4, 4))) == 0
    assert rank(np.eye(6)) == 6
    sc = load_scenario("paper_example_n2")
    st = geo.induced_structure(geo.structure_jets(sc, sc.sample_points[0], 1))
    assert rank(st.S) == 1


def test_decompose_worked_example_pair():
    sc = load_scenario("paper_example_n2")
    for point in sc.sample_points:
        st = geo.induced_structure(geo.structure_jets(sc, point, 1))
        pair = decompose(st.S, st.h)
        sizes = sorted(b.size for b in pair.blocks)
        assert sizes == [1, 1, 2]
        assert all(abs(b.eigenvalue) < 1e-10 for b in pair.blocks)
        summary = classify(pair)
        assert summary.final_form == "rank_one_nilpotent"
        assert rank(st.S) == 1


def test_repeated_eigenvalue_blocks():
    # same eigenvalue in blocks of different size forces one root space
    blocks = [RealBlock(2, 0.7, 1), RealBlock(1, 0.7, -1), RealBlock(1, -0.3, 1)]
    m = assemble(blocks)
    rng = np.random.default_rng(9)
    a, h, _ = _conjugate(rng, m)
    pair = decompose(a, h)
    assert sorted(map(_block_key, pair.blocks)) == sorted(map(_block_key, blocks))
    summary = classify(pair)
    assert summary.sign_classes  # reported per (eigenvalue, size) class


_COMPLEX_GRID = [(a, b) for a in (-1.0, 0.0, 0.9) for b in (0.7, 1.6)]


@hst.composite
def canonical_shapes(draw):
    """A Jordan/sip block list over the shapes ``_random_blocks`` and the
    decompose benchmark draw: dim 4 to 10, real blocks of size <= 4 with
    distinct grid eigenvalues or 0, complex blocks of half-size <= 3 with
    distinct grid eigenvalues, both signs."""
    left = draw(hst.sampled_from((4, 6, 8, 10)))
    lams = draw(hst.permutations(_EIG_GRID))
    cplx = draw(hst.permutations(_COMPLEX_GRID))
    blocks = []
    while left > 0:
        if left >= 4 and cplx and draw(hst.booleans()):
            half = draw(hst.integers(1, min(3, left // 2)))
            blocks.append(ComplexBlock(half, *cplx.pop()))
            left -= 2 * half
            continue
        size = draw(hst.integers(1, min(4, left)))
        lam = lams.pop() if lams and draw(hst.booleans()) else 0.0
        blocks.append(RealBlock(size, lam, draw(hst.sampled_from((1, -1)))))
        left -= size
    return blocks


def _sign_characteristic(classes):
    """(eigenvalue to 5 places, size, signs) per real block class."""
    return sorted((round(lam, 5) + 0.0, size, tuple(sorted(signs)))
                  for lam, size, signs in classes)


@settings(max_examples=60, deadline=None)
@given(canonical_shapes(), hst.integers(0, 2 ** 32 - 1))
def test_canonical_form_is_recovered_under_congruence(blocks, seed):
    m = assemble(blocks)
    a, h, _ = _conjugate(np.random.default_rng(seed), m, spread=2.5)
    pair = decompose(a, h)
    assert max(pair.residual_jordan, pair.residual_h) < 1e-6
    assert sorted(map(_block_key, pair.blocks)) == sorted(map(_block_key, blocks))
    drawn = {}
    for b in blocks:
        if isinstance(b, RealBlock):
            drawn.setdefault((b.eigenvalue, b.size), []).append(b.sign)
    want = _sign_characteristic((lam, size, signs) for (lam, size), signs in drawn.items())
    assert _sign_characteristic(classify(decompose(m.S, m.H)).sign_classes) == want
    assert _sign_characteristic(classify(pair).sign_classes) == want


def _ladder_without_skips(a, h):
    """Reference: decompose's threshold ladder as it was before a step that
    repeats an earlier step's clusters was skipped; every step runs its
    attempt (clustering and chains, as ``_attempt`` did in one piece)."""
    eigvals = np.linalg.eigvals(a)
    base = 1e-6 * max(1.0, float(np.max(np.abs(a))))
    best = None
    for step, factor in enumerate(canonical._DELTA_LADDER):
        delta = base * factor
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                cand = canonical._attempt(a, h, *canonical._clusters(eigvals, delta),
                                          delta)
        except CanonicalError:
            continue
        if step > 0:
            cand = replace(cand, warnings=cand.warnings + (
                f"clustering threshold escalated to {delta:.3e}",))
        if max(cand.residual_jordan, cand.residual_h) < 1e-6:
            return cand
        if best is None or max(cand.residual_jordan, cand.residual_h) < \
                max(best.residual_jordan, best.residual_h):
            best = cand
    return replace(best, warnings=best.warnings + (
        "canonical residuals above 1e-6; result is best effort",))


@settings(max_examples=60, deadline=None)
@given(canonical_shapes(), hst.integers(0, 2 ** 32 - 1))
def test_skipping_repeated_clusterings_changes_no_result(blocks, seed):
    a, h, _ = _conjugate(np.random.default_rng(seed), assemble(blocks), spread=2.5)
    pair, ref = decompose(a, h), _ladder_without_skips(a, h)
    assert repr(pair.blocks) == repr(ref.blocks)
    assert pair.transform.tobytes() == ref.transform.tobytes()
    assert (pair.residual_jordan, pair.residual_h) == (ref.residual_jordan, ref.residual_h)
    assert pair.warnings == ref.warnings


def test_each_distinct_clustering_is_attempted_once(monkeypatch):
    # a nilpotent 4-block scatters its eigenvalues by about eps^(1/4), so
    # the first ladder steps see the same four singleton clusters
    seen, attempts = [], []
    clusters, attempt = canonical._clusters, canonical._attempt

    def counted_clusters(*args):
        seen.append(clusters(*args))
        return seen[-1]

    def counted_attempt(*args):
        attempts.append(args[2:4])
        return attempt(*args)

    monkeypatch.setattr(canonical, "_clusters", counted_clusters)
    monkeypatch.setattr(canonical, "_attempt", counted_attempt)
    m = assemble([RealBlock(4, 0.0, 1)])
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))
    pair = decompose(q.T @ m.S @ q, q.T @ m.H @ q)
    assert pair.blocks[0].size == 4
    assert len(set(seen)) < len(seen)
    assert attempts == list(dict.fromkeys(seen))


_MATRICES = hst.tuples(hst.integers(1, 6), hst.integers(1, 6), hst.booleans(),
                       hst.integers(0, 2 ** 32 - 1))


@settings(max_examples=200, deadline=None)
@given(_MATRICES)
def test_top_singular_value_is_the_two_norm(case):
    rows, cols, complex_field, seed = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-8, 9)
    if complex_field:
        x = x + 1j * rng.normal(size=(rows, cols))
    assert np.linalg.svd(x, compute_uv=False)[0] == np.linalg.norm(x, 2)


def _cluster_sorted_gaps(values, delta):
    """Reference: the earlier real-only clustering, greedy gaps along the
    sorted values."""
    order = np.argsort(values)
    groups = []
    for idx in order:
        if groups and abs(values[idx] - values[groups[-1][-1]]) <= delta:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return groups


# ties, gaps of exactly delta = 1 and gaps one ulp either side of it
NEAR_TIES = hst.sampled_from((0.0, 0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
                              2.0, 2.0 + 1e-12, -1.0, -1.0 - 2.0 ** -40, 3.5))


@settings(max_examples=300, deadline=None)
@given(hst.lists(hst.one_of(NEAR_TIES, hst.floats(-4.0, 4.0)), max_size=12),
       hst.sampled_from((1.0, 1e-12, 0.5)))
def test_cluster_on_reals_matches_sorted_gaps(values, delta):
    # the index order may differ among equal values only, so each group
    # holds the same value sequence and has the same mean
    values = list(np.array(values, dtype=float))
    got = [[values[i] for i in g] for g in _cluster(values, delta)]
    want = [[values[i] for i in g] for g in _cluster_sorted_gaps(np.array(values), delta)]
    assert got == want


def _full_candidate_score(f):
    """Reference: the best |x^T F x| over the eigenvectors of F, the unit
    vectors and the pairs e_i +- e_j, each scaled to unit length."""
    d = f.shape[0]
    _, v = np.linalg.eigh((f + f.T) / 2.0)
    eye = np.eye(d)
    candidates = [v[:, i] for i in range(d)] + [eye[:, i] for i in range(d)]
    candidates += [eye[:, i] + sign * eye[:, j]
                   for i in range(d) for j in range(i + 1, d) for sign in (1, -1)]
    return max(abs(x / np.linalg.norm(x) @ f @ (x / np.linalg.norm(x))) for x in candidates)


@hst.composite
def pairing_forms(draw):
    """A symmetric F as _extract_chains forms it: Gaussian, diagonal,
    small-integer, Q diag(+-1) Q^T or rank one."""
    d = draw(hst.integers(1, 6))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    kind = draw(hst.sampled_from(("gauss", "diag", "int", "signs", "rank1")))
    if kind == "gauss":
        g = rng.standard_normal((d, d))
    elif kind == "diag":
        g = np.diag(rng.standard_normal(d))
    elif kind == "int":
        g = rng.integers(-3, 4, size=(d, d)).astype(float)
    elif kind == "signs":
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        g = q @ np.diag(rng.choice((-1.0, 1.0), size=d)) @ q.T
    else:
        u = rng.standard_normal(d)
        g = np.outer(u, u)
    return (g + g.T) / 2.0


@settings(max_examples=300, deadline=None)
@given(pairing_forms())
def test_real_isotropy_pick_is_the_eigenvector_maximum(f):
    # Rayleigh: no unit or pair vector beats the top eigenvector by more
    # than roundoff
    x, score = _pick_isotropy_vector(f, complex_field=False)
    assert score >= (1 - 8 * np.finfo(float).eps) * _full_candidate_score(f)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-12 and score == abs(x @ f @ x)
