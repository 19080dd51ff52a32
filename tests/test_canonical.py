from dataclasses import replace
from types import SimpleNamespace

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


@pytest.mark.parametrize("scale", [1e-300, 1e-12, 1.0, 1e12, 1.7e308])
def test_nondegenerate_does_not_move_with_scale(scale):
    # the same verdicts on c m as on m, a 1/cond of about 1e-11 and 1e-9
    # either side of RCOND_MIN included; the top singular value of
    # 1.7e308 * [[1, 1], [1, -1]] is past the double range
    assert canonical.nondegenerate(scale * np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert canonical.nondegenerate(scale * np.diag([1.0, 1e-9]))
    assert not canonical.nondegenerate(scale * np.diag([1.0, 1e-11]))


@pytest.mark.parametrize("m", [np.zeros((2, 2)), [[1.0, np.nan], [0.0, 1.0]],
                               [[1.0, np.inf], [0.0, 1.0]]])
def test_zero_or_non_finite_forms_are_degenerate(m):
    assert not canonical.nondegenerate(m)


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
    sj = geo.structure_jets(sc, sc.sample_points[0], 1)
    assert rank(sj.S[0]) == 1


def test_decompose_worked_example_pair():
    sc = load_scenario("paper_example_n2")
    for point in sc.sample_points:
        sj = geo.structure_jets(sc, point, 1)
        pair = decompose(sj.S[0], sj.h[0])
        sizes = sorted(b.size for b in pair.blocks)
        assert sizes == [1, 1, 2]
        assert all(abs(b.eigenvalue) < 1e-10 for b in pair.blocks)
        summary = classify(pair)
        assert summary.final_form == "rank_one_nilpotent"
        assert rank(sj.S[0]) == 1


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
    repeats an earlier step's clusters was skipped, and before a cluster
    was peeled once per call; every step runs its attempt (clustering and
    chains, as ``_attempt`` did in one piece) with a fresh ``peeled``."""
    eigvals = np.linalg.eigvals(a)
    base = 1e-6 * max(1.0, float(np.max(np.abs(a))))
    best = None
    for step, factor in enumerate(canonical._DELTA_LADDER):
        delta = base * factor
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                cand = canonical._attempt(a, h, *canonical._clusters(eigvals, delta),
                                          delta, {})
        except CanonicalError:
            continue
        if step > 0:
            cand = replace(cand, threshold_step=step, warnings=cand.warnings + (
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
    assert pair.threshold_step == ref.threshold_step


def _escalation_warnings(pair, a):
    """The pair's escalation warnings, and the one its threshold step
    gives."""
    base = 1e-6 * max(1.0, float(np.max(np.abs(a))))
    got = [w for w in pair.warnings if "clustering threshold escalated" in w]
    delta = base * canonical._DELTA_LADDER[pair.threshold_step]
    return got, f"clustering threshold escalated to {delta:.3e}"


def test_threshold_step_of_a_diagonal_pair_is_zero():
    a = np.diag([1.0, -2.0, 0.5, 3.0])
    pair = decompose(a, np.diag([1.0, -1.0, 1.0, 1.0]))
    assert pair.threshold_step == 0
    assert _escalation_warnings(pair, a)[0] == []


def test_threshold_step_of_a_size3_jordan_block_names_its_escalation():
    # a rotated size-3 Jordan block scatters its eigenvalues by about
    # eps^(1/3), beyond the base threshold, so the ladder escalates
    m = assemble([RealBlock(3, 0.7, 1), RealBlock(1, -0.5, 1)])
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))
    a = q.T @ m.S @ q
    pair = decompose(a, q.T @ m.H @ q)
    assert [b.size for b in pair.blocks] == [3, 1]
    assert pair.threshold_step >= 1
    got, want = _escalation_warnings(pair, a)
    assert got == [want]


def test_best_effort_pair_keeps_its_threshold_step(monkeypatch):
    # every attempt comes out above 1e-6, each later one better than the
    # one before, so the best effort is the last distinct clustering's
    attempt, steps = canonical._attempt, []

    def poor_attempt(*args):
        steps.append(args[4])
        return replace(attempt(*args), residual_jordan=1.0 / len(steps))

    monkeypatch.setattr(canonical, "_attempt", poor_attempt)
    m = assemble([RealBlock(3, 0.7, 1), RealBlock(1, -0.5, 1)])
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))
    a = q.T @ m.S @ q
    pair = decompose(a, q.T @ m.H @ q)
    assert len(steps) >= 2 and "best effort" in pair.warnings[-1]
    got, want = _escalation_warnings(pair, a)
    assert pair.threshold_step >= 1 and got == [want]
    assert steps[-1] == pytest.approx(1e-6 * max(1.0, float(np.max(np.abs(a))))
                                      * canonical._DELTA_LADDER[pair.threshold_step])


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


def test_each_cluster_is_peeled_once_per_call(monkeypatch):
    # the 4-block's scattered eigenvalues fail the first clustering at one
    # of its singletons; the next step merges them and keeps the two
    # simple eigenvalues, whose chains the first step already peeled
    peels, attempts, failures = [], [], []
    root_space, attempt = canonical._root_space, canonical._attempt

    def counted_root_space(a, lam, mult, warnings):
        peels.append((isinstance(lam, complex), repr(lam), mult))
        return root_space(a, lam, mult, warnings)

    def counted_attempt(*args):
        attempts.append(args)
        try:
            return attempt(*args)
        except CanonicalError as err:
            failures.append(str(err))
            raise

    monkeypatch.setattr(canonical, "_root_space", counted_root_space)
    monkeypatch.setattr(canonical, "_attempt", counted_attempt)
    m = assemble([RealBlock(4, 0.0, 1), RealBlock(1, 1.3, 1), RealBlock(1, -0.8, -1)])
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(6, 6)))
    a, h = q.T @ m.S @ q, q.T @ m.H @ q
    pair = decompose(a, h)
    assert [b.size for b in pair.blocks] == [4, 1, 1]
    assert any("clustering threshold escalated" in w for w in pair.warnings)

    clusters = sum(len(args[2]) + len(args[3]) for args in attempts)
    assert len(attempts) >= 2 and len(failures) >= 1
    assert len(set(peels)) == len(peels) < clusters


def test_a_reused_cluster_replays_its_warnings(monkeypatch):
    # every peel of the first attempt appends a marker naming its cluster;
    # a second attempt on the same clusters and the same peels peels
    # nothing and gives the same pair, the markers in the same places
    m = assemble([RealBlock(2, 0.6, 1), RealBlock(1, 1.3, 1), RealBlock(1, -0.8, -1)])
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))
    a, h = q.T @ m.S @ q, q.T @ m.H @ q
    delta = 1e-6 * max(1.0, float(np.max(np.abs(a))))
    clusters = canonical._clusters(np.linalg.eigvals(a), delta)
    assert len(clusters[0]) == 3 and not clusters[1]
    root_space = canonical._root_space

    def marked_root_space(a, lam, mult, warnings):
        warnings.append(f"peeled {lam!r} x{mult}")
        return root_space(a, lam, mult, warnings)

    monkeypatch.setattr(canonical, "_root_space", marked_root_space)
    peeled = {}
    first = canonical._attempt(a, h, *clusters, delta, peeled)
    assert [w for w in first.warnings if w.startswith("peeled ")] == [
        f"peeled {lam!r} x{mult}" for lam, mult in clusters[0]]

    def no_peel(*args):
        raise AssertionError(f"cluster peeled again: {args[1:3]}")

    monkeypatch.setattr(canonical, "_root_space", no_peel)
    again = canonical._attempt(a, h, *clusters, delta, peeled)
    assert again.warnings == first.warnings
    assert again.transform.tobytes() == first.transform.tobytes()


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


#: dgesdd rescales a matrix whose largest entry lies outside
#: [sqrt(tiny) / eps, eps / sqrt(tiny)], about [6.7e-139, 1.5e138]
_SVD_SMLNUM = float(np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps)

# signed zeros, subnormals, both edges of dgesdd's unscaled range and
# values up to ENTRY_MAX
_SCALARS = hst.one_of(
    hst.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-300, _SVD_SMLNUM,
                      np.nextafter(_SVD_SMLNUM, 0.0), 1.0 / _SVD_SMLNUM,
                      np.nextafter(1.0 / _SVD_SMLNUM, np.inf), 1e150, -1e150)),
    hst.floats(-1e150, 1e150, allow_nan=False))


@settings(max_examples=400, deadline=None)
@given(_SCALARS)
def test_real_1x1_stage_shortcut_matches_lapack(v):
    # a real stage of dimension 1 takes x = 1.0 and score |f| instead of
    # eigh, and its 2-norms as |n| instead of svd
    m = np.array([[v]])
    x, score = _pick_isotropy_vector(m, complex_field=False)
    assert x.tobytes() == np.ones(1).tobytes()
    assert float(score).hex() == float(abs(m[0, 0])).hex()
    sv = float(np.linalg.svd(m, compute_uv=False)[0])
    nrm = canonical._norm2(m)
    assert nrm.hex() == float(abs(m[0, 0])).hex()
    if v == 0.0 or _SVD_SMLNUM <= nrm <= 1.0 / _SVD_SMLNUM:
        assert nrm.hex() == sv.hex()
    else:
        # dgesdd scales such an entry into range and back, which can move
        # its last bit; the stage's length and warning come out the same
        assert abs(nrm - sv) <= np.spacing(nrm)
        assert [(s <= 1e-7 * max(1.0, s), s <= 1e-5 * max(1.0, s)) for s in (nrm, sv)] \
            == [(nrm <= 1e-7, nrm <= 1e-5)] * 2


def _any_dim(blocks):
    """The model pair of ``blocks`` as ``_conjugate`` reads it, in any
    dimension (``assemble`` takes even dimensions from 4 only)."""
    s, h = direct_sum(blocks)
    return SimpleNamespace(dim=len(s), S=s, H=h)


@hst.composite
def semisimple_stages(draw):
    """One grid eigenvalue carrying 2-6 signed 1x1 blocks, maybe one 2-block
    at the same eigenvalue, and up to two blocks at other eigenvalues: a
    real block of size <= 3 or a complex 1-block."""
    lam, *others = draw(hst.permutations(_EIG_GRID))
    cplx = draw(hst.permutations(_COMPLEX_GRID))
    sign = hst.sampled_from((1, -1))
    blocks = [RealBlock(1, lam, draw(sign)) for _ in range(draw(hst.integers(2, 6)))]
    if draw(hst.booleans()):
        blocks.append(RealBlock(2, lam, draw(sign)))
    for other in others[: draw(hst.integers(0, 2))]:
        blocks.append(ComplexBlock(1, *cplx.pop()) if draw(hst.booleans())
                      else RealBlock(draw(hst.integers(1, 3)), other, draw(sign)))
    return draw(hst.permutations(blocks))


@settings(max_examples=60, deadline=None)
@given(semisimple_stages(), hst.integers(0, 2 ** 32 - 1))
def test_a_semisimple_stage_peels_every_sign(blocks, seed):
    """The 1x1 blocks of a semisimple stage, taken at once from one eigh,
    keep their sizes and inertia signs, and the transform still takes H to
    the sip form."""
    a, h, _ = _conjugate(np.random.default_rng(seed), _any_dim(blocks))
    pair = decompose(a, h)
    assert sorted(map(_block_key, pair.blocks)) == sorted(map(_block_key, blocks))
    assert max(pair.residual_jordan, pair.residual_h) < canonical.RESIDUAL_MAX
    t = pair.transform
    assert np.max(np.abs(t.T @ h @ t - direct_sum(pair.blocks)[1])) < canonical.RESIDUAL_MAX


@pytest.mark.parametrize("signs", [(1, -1), (1, 1, -1), (-1, 1, 1, -1, 1)])
def test_a_semisimple_stage_takes_one_qr(signs, monkeypatch):
    # one stage peels all its 1x1 chains; peeled one per stage, a stage of
    # dimension d took d QR factorisations
    a, h, _ = _conjugate(np.random.default_rng(len(signs)),
                         _any_dim([RealBlock(1, 0.6, s) for s in signs]))
    shapes, qr = [], np.linalg.qr
    monkeypatch.setattr(canonical.np.linalg, "qr", lambda m: shapes.append(m.shape) or qr(m))
    pair = decompose(a, h)
    assert shapes == [(len(signs), len(signs))]
    assert sorted(b.sign for b in pair.blocks) == sorted(signs)
