"""Canonical pairs of H-selfadjoint matrices.

For a real symmetric invertible H and a real A with A^T H = H A there is a
basis in which A is a direct sum of real and complex Jordan blocks and H the
matching direct sum of (signed) sip matrices.  This module computes that
basis constructively: cluster the spectrum, split off generalized
eigenspaces, and inside each one peel off chains x, Nx, ..., N^(l-1)x whose
H-pairings are normalized to the sip pattern (the pairing [x, N^(l-1) x] is
scaled to +-1 for real eigenvalues and to 2i for complex ones; the lower
pairings are killed by completing the square along the chain).

Everything is plain double precision; the residuals carried on the result
are the honest quality measure, and borderline rank/cluster decisions are
surfaced as warnings rather than silently resolved.

A stage is one pass of the peel: it factors its basis, finds the
nilpotency index of N = A - lam I there by a ladder of 2-norms that starts
at N itself (the norm that also scales the ladder), and takes one chain
of that length.  A real stage of index 1, of any dimension, is
semisimple: the eigenvectors of sym(h) on it, from the one eigh that picks
a chain generator, are h-orthogonal, so each, scaled to |x^T h x| = 1, is
a chain of length 1, and the stage takes them all at once, in decreasing
|x^T h x| (the order a pick per stage would meet them), each behind the
same degenerate-pairing guard.  A complex stage still takes one chain per
stage: x^T F x is no Hermitian form, and no eigh diagonalises it.

LAPACK is skipped only where the shape fixes what it would return.  A real
stage of dimension 1 takes its 2-norms as |n| and its one eigenvector as
x = 1.0 with score |f|: eigh's eigenvector of a 1x1 matrix is 1.0, and svd
returns |n| unless dgesdd rescales an entry outside about [6.7e-139,
1.5e138], where it can move the last bit but the stage still takes length
1 and no warning.  A chain that fills its stage ends it, without the SVD
of an empty complement.  No block, transform, residual or warning moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import BlockSpec, ComplexBlock, RealBlock, direct_sum

#: a form (H, h or omega) with 1/cond at or below this is degenerate
RCOND_MIN = 1e-10

#: ``classify`` takes |eigenvalue| <= ZERO_TOL * max(1, max |eigenvalue|) as 0
ZERO_TOL = 1e-8

#: ``rank`` counts the singular values above this times the largest
RANK_TOL = 1e-9

#: ``decompose`` rejects an A or H entry beyond this in magnitude: it
#: multiplies A - lambda I by itself and by H, and a product of two larger
#: entries leaves double precision
ENTRY_MAX = 1e150

#: ``decompose`` accepts canonical residuals below this, else warns
RESIDUAL_MAX = 1e-6


class CanonicalError(ValueError):
    pass


def nondegenerate(m) -> bool:
    """1/cond of m / max|m| above ``RCOND_MIN``: no scale of m moves it, and
    no singular value overflows; an all-zero or non-finite m is degenerate."""
    m = np.asarray(m, dtype=float)
    top = float(np.max(np.abs(m)))
    return 0.0 < top < math.inf and 1.0 / np.linalg.cond(m / top) > RCOND_MIN


class NotSelfadjointError(CanonicalError):
    pass


@dataclass(frozen=True)
class CanonicalPair:
    blocks: tuple           # BlockSpec, in canonical order
    transform: np.ndarray   # columns are the canonical basis
    residual_jordan: float  # || T^-1 A T - J ||_max
    residual_h: float       # || T^T H T - P ||_max
    warnings: tuple = ()
    threshold_step: int = 0  # index into _DELTA_LADDER of the clustering used


def _cluster(values, delta):
    """Greedy clustering of real or complex scalars; returns lists of indices.

    Values are taken in (real, imag) order, each joining the first group
    whose last member is within ``delta``.  On sorted reals only the last
    group can be that close, so real values are split at gaps > delta.
    """
    order = sorted(range(len(values)), key=lambda i: (values[i].real, values[i].imag))
    groups = []
    for idx in order:
        for g in groups:
            if abs(values[idx] - values[g[-1]]) <= delta:
                g.append(idx)
                break
        else:
            groups.append([idx])
    return groups


def _scored_eigenvectors(f):
    """The unit eigenvectors x of a real symmetric F, each with its score
    |x^T F x|, in decreasing score (eigh's order among equal scores); a
    1x1 F's is 1.0, as eigh returns it, with score |f|."""
    if f.shape == (1, 1):
        return [(np.ones(1), abs(f[0, 0]))]
    # contiguous rows: np.linalg.norm dots a contiguous copy, and a
    # strided dot can round differently
    scored = []
    for x in np.linalg.eigh(f)[1].T.copy():
        x = x / math.sqrt(x.dot(x))
        scored.append((x, abs(x @ f @ x)))
    scored.sort(key=lambda pair: -pair[1])
    return scored


def _pick_isotropy_vector(f, complex_field):
    """Vector x with |x^T F x| as large as practical; F symmetric, nonzero.

    Over the reals the candidates are the eigenvectors of F: for a unit x,
    |x^T F x| <= max |lambda| (Rayleigh), with equality at the eigenvector
    of the largest |lambda|.  Over the complex field x^T F x is no Hermitian
    form; the top singular vectors can miss the Takagi maximum when sigma_1
    repeats, so unit vectors and the pairs e_i + e_j, e_i - e_j and
    e_i + i e_j are tried as well.
    """
    if not complex_field:
        return _scored_eigenvectors(f)[0]
    d = f.shape[0]
    u, _, vh = np.linalg.svd(f)
    eye = np.eye(d, dtype=complex)
    candidates = [np.conj(vh[0]), u[:, 0], *eye]
    for i in range(d):
        for j in range(i + 1, d):
            candidates += [eye[i] + eye[j], eye[i] - eye[j], eye[i] + 1j * eye[j]]
    best, best_score = None, -1.0
    for x in candidates:
        x = x / np.linalg.norm(x)
        score = abs(x @ f @ x)
        if score > best_score:
            best, best_score = x, score
    return best, best_score


def _norm2(x):
    """The float np.linalg.norm(x, 2) returns, as svd(x)[0] at less cost;
    a real 1x1 x's is |x|, without LAPACK (see the module docstring)."""
    if x.shape == (1, 1) and x.dtype.kind == "f":
        return float(abs(x[0, 0]))
    return float(np.linalg.svd(x, compute_uv=False)[0])


def _require_generator(lam, score):
    """CanonicalError unless the chain generator's |x^T F x| is usable."""
    if score < 1e-10:
        raise CanonicalError(
            f"could not find a chain generator at eigenvalue {lam} "
            f"(pairing form degenerate to {score:.3e})")


def _extract_chains(a, h, basis, lam, complex_field, warnings):
    """Peel sip-canonical chains out of one generalized eigenspace.

    ``basis`` holds orthonormal columns spanning the (complex or real)
    root subspace in the ambient space; returns (blocks?, columns) pairs as
    (length, sign-or-None, [global chain vectors]).
    """
    chains = []
    cur = basis
    while cur.shape[1] > 0:
        q, _ = np.linalg.qr(cur)
        a_cur = q.conj().T @ a @ q
        h_cur = q.T @ h @ q          # bilinear form: plain transpose
        n_cur = a_cur - lam * np.eye(cur.shape[1], dtype=a_cur.dtype)

        # nilpotency index at this stage: the ladder starts at N, whose
        # 2-norm the scale already holds
        nrm = _norm2(n_cur)
        scale = max(1.0, nrm)
        length = cur.shape[1]
        power = n_cur
        for j in range(1, cur.shape[1] + 1):
            if j > 1:
                power = power @ n_cur
                nrm = _norm2(power)
            if nrm <= 1e-7 * scale ** j:
                length = j
                break
            if nrm <= 1e-5 * scale ** j:
                warnings.append(
                    f"borderline nilpotency decision at eigenvalue {lam}: "
                    f"||N^{j}|| = {nrm:.3e}")

        n_top = np.linalg.matrix_power(n_cur, length - 1)
        f = h_cur @ n_top
        f = (f + f.T) / 2.0
        if length == 1 and not complex_field:
            # a semisimple stage: the eigenvectors of f = sym(h_cur) are
            # h_cur-orthogonal, so each is a chain of length 1, taken in the
            # order a pick per stage meets them
            for x, score in _scored_eigenvectors(f):
                _require_generator(lam, score)
                top = (x @ h_cur) @ x
                chains.append((1, 1 if top > 0 else -1, [q @ (x / np.sqrt(abs(top)))]))
            break
        x, score = _pick_isotropy_vector(f, complex_field)
        _require_generator(lam, score)

        def pairings(vec):
            ys = [vec]
            for _ in range(length - 1):
                ys.append(n_cur @ ys[-1])
            # x @ H @ y is (x @ H) @ y: one x @ H serves every pairing
            xh = vec @ h_cur
            return ys, [xh @ y for y in ys]

        ys, cs = pairings(x)
        for d in range(1, length):
            coef = -cs[length - 1 - d] / (2.0 * cs[length - 1])
            x = x + coef * ys[d]
            ys, cs = pairings(x)
        top = cs[length - 1]
        if complex_field:
            x = x * np.sqrt(2j / top)
            sign = None
        else:
            sign = 1 if top.real > 0 else -1
            x = x / np.sqrt(abs(top))
        ys, cs = pairings(x)

        chains.append((length, sign, [q @ y for y in ys]))
        if len(ys) == cur.shape[1]:
            break  # the chain fills the stage: its complement is empty

        # pass to the h-orthogonal complement of the chain
        rows = np.array([y @ h_cur for y in ys])
        _, s, vh = np.linalg.svd(rows)
        kernel = vh[len(ys):].conj().T
        cur = q @ kernel
    return chains


def _root_space(a, lam, mult, warnings):
    """Orthonormal columns spanning ker (A - lam I)^mult, from the SVD."""
    n = a.shape[0]
    _, s, vh = np.linalg.svd(np.linalg.matrix_power(a - lam * np.eye(n), mult))
    if mult < n and s[n - mult - 1] < 1e3 * max(s[n - mult], 1e-300):
        warnings.append(f"weak root-space separation at eigenvalue {lam:.6g}")
    return np.conj(vh[n - mult:]).T


def _clusters(eigvals, delta):
    """(mean, multiplicity) of the real clusters and of the upper-half-plane
    complex clusters of ``eigvals`` at threshold ``delta``."""
    values = eigvals.tolist()
    reals = [v.real for v in values if abs(v.imag) <= delta]
    uppers = [v for v in values if v.imag > delta]
    # a real cluster of one is its own mean, x / 1
    real_clusters = tuple((reals[g[0]] if len(g) == 1 else float(_mean(reals, g)), len(g))
                          for g in _cluster(reals, delta))
    cplx_clusters = tuple((complex(_mean(uppers, g)), len(g))
                          for g in _cluster(uppers, delta))
    return real_clusters, cplx_clusters


def _mean(values, members):
    """The mean of ``values`` at ``members`` as np.mean computes it: one
    np.add.reduce over an array, then one division."""
    return np.add.reduce(np.array([values[i] for i in members])) / len(members)


def _peel(a, h, lam, mult, complex_field, peeled):
    """The chains of one cluster and the warnings peeling it appended.

    ``peeled`` maps (complex_field, repr(lam), mult) to the chains and
    warnings of each cluster peeled so far in this ``decompose`` call, so a
    cluster is peeled once per call; ``repr`` tells the zeros of either
    sign apart, which the warnings print differently.  A peel that raises
    is not kept: a later step that keeps that cluster peels it again.
    """
    key = (complex_field, repr(lam), mult)
    if key not in peeled:
        warnings = []
        basis = _root_space(a, lam, mult, warnings)
        if complex_field:
            a, h = a.astype(complex), h.astype(complex)
        peeled[key] = (_extract_chains(a, h, basis, lam, complex_field, warnings),
                       warnings)
    return peeled[key]


def _attempt(a, h, real_clusters, cplx_clusters, delta, peeled):
    """The canonical pair built on one clustering; ``delta`` enters only the
    warnings about clusters closer than 10 delta, and ``peeled`` holds the
    clusters already peeled in this ``decompose`` call (see ``_peel``)."""
    n = a.shape[0]
    warnings = []
    if sum(m for _, m in real_clusters) + 2 * sum(m for _, m in cplx_clusters) != n:
        raise CanonicalError("eigenvalue clustering lost conjugate symmetry")

    reps = [(complex(v), m) for v, m in real_clusters] + list(cplx_clusters)
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            (va, ma), (vb, mb) = reps[i], reps[j]
            gap = abs(va - vb)
            if gap < 10 * delta:
                warnings.append(
                    f"clusters at {va:.6g} (mult {ma}) and {vb:.6g} (mult {mb}) "
                    f"separated by {gap:.3e}, near threshold {delta:.3e}; "
                    f"candidate shapes: split {ma}+{mb} or merged {ma + mb}")

    entries = []  # (block, [real column vectors])
    for lam, mult in real_clusters:
        chains, peel_warnings = _peel(a, h, lam, mult, False, peeled)
        warnings += peel_warnings
        for length, sign, cols in chains:
            entries.append((RealBlock(length, lam, sign), cols))
    for lam, mult in cplx_clusters:
        chains, peel_warnings = _peel(a, h, lam, mult, True, peeled)
        warnings += peel_warnings
        for length, _sign, cols in chains:
            entries.append((ComplexBlock(length, lam.real, lam.imag),
                            [part for c in cols for part in (c.real, c.imag)]))

    # canonical output order: real first (size desc, eigenvalue asc, sign desc),
    # then complex (size desc, then (alpha, beta) ascending)
    def key(entry):
        b = entry[0]
        if isinstance(b, RealBlock):
            return (0, -b.size, b.eigenvalue, -b.sign)
        return (1, -b.half_size, b.alpha, b.beta)

    entries.sort(key=key)
    blocks = tuple(e[0] for e in entries)
    cols = [c for e in entries for c in e[1]]
    t = np.column_stack(cols)
    j_mat, p_mat = direct_sum(blocks)
    res_j = float(np.max(np.abs(np.linalg.solve(t, a @ t) - j_mat)))
    res_h = float(np.max(np.abs(t.T @ h @ t - p_mat)))
    return CanonicalPair(blocks, t, res_j, res_h, tuple(warnings))


#: escalation ladder for the clustering threshold; double-precision
#: eigenvalues of a size-k Jordan block scatter by ~eps^(1/k), far beyond
#: the base threshold, so failed attempts retry with a coarser delta.  A
#: step whose clusters equal an earlier step's is skipped: its attempt would
#: give the same blocks and residuals, which neither returned nor beat the
#: best then.  A cluster a later step keeps is not peeled again: its chains
#: and warnings are reused (a peel that raised is redone).
_DELTA_LADDER = (1.0, 10.0, 100.0, 400.0)


def decompose(a, h, tol: float = 1e-8) -> CanonicalPair:
    """Decompose an H-selfadjoint matrix into its Jordan/sip canonical pair.

    ``tol`` gates the selfadjointness precondition, normwise and entry by
    entry (one huge entry must not widen the bound for the others; |A|
    counts as at least 1 in both); eigenvalues are clustered at
    1e-6 * ||A||, escalated along ``_DELTA_LADDER`` when the canonical
    residuals come out poor; each cluster is peeled once per call and reused
    by the later steps that keep it (a failed peel is redone).  The pair
    carries the step it was clustered at as ``threshold_step`` (0 for the
    base threshold), on the best-effort return too.  An entry
    beyond ``ENTRY_MAX``, or a product that still overflows, raises
    CanonicalError; the overflow is caught where it happens, because
    LAPACK's SVD need not return on the NaN it would lead to.
    """
    a = np.asarray(a, dtype=float)
    h = np.asarray(h, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or h.shape != (n, n):
        raise CanonicalError("A and H must be square and of equal size")
    norm_a = float(np.max(np.abs(a)))
    norm_h = float(np.max(np.abs(h)))
    if not max(norm_a, norm_h) <= ENTRY_MAX:
        raise CanonicalError(
            f"A and H entries must be at most {ENTRY_MAX:g} in magnitude, "
            f"got {max(norm_a, norm_h):.3e}")
    if np.max(np.abs(h - h.T)) > 1e-10 * max(1.0, norm_h):
        raise CanonicalError("H is not symmetric")
    if not nondegenerate(h):
        raise CanonicalError("H is numerically singular")
    defect = np.abs(a.T @ h - h @ a)
    sums = np.abs(a).T @ np.abs(h) + np.abs(h) @ np.abs(a)
    bound = np.minimum(max(norm_h * norm_a, norm_h, 1e-300), np.maximum(sums, norm_h))
    # a tol * bound past the double range is inf: it refuses no defect
    with np.errstate(over="ignore"):
        refused = np.any(defect > tol * bound)
    if refused:
        raise NotSelfadjointError(
            f"A is not H-selfadjoint: ||A^T H - H A|| = {np.max(defect):.3e}")

    eigvals = np.linalg.eigvals(a)
    base = 1e-6 * max(1.0, norm_a)
    best, tried, peeled = None, set(), {}
    for step, factor in enumerate(_DELTA_LADDER):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                clusters = _clusters(eigvals, base * factor)
                if clusters in tried:
                    continue
                tried.add(clusters)
                cand = _attempt(a, h, *clusters, base * factor, peeled)
        except (FloatingPointError, OverflowError) as exc:
            raise CanonicalError(
                f"decomposition leaves the double-precision range ({exc})") from exc
        except (CanonicalError, np.linalg.LinAlgError):
            # a LinAlgError is a singular basis T: this clustering failed
            continue
        if step > 0:
            cand = replace(cand, threshold_step=step, warnings=cand.warnings + (
                f"clustering threshold escalated to {base * factor:.3e}",))
        if max(cand.residual_jordan, cand.residual_h) < RESIDUAL_MAX:
            return cand
        if best is None or max(cand.residual_jordan, cand.residual_h) < \
                max(best.residual_jordan, best.residual_h):
            best = cand
    if best is None:
        raise CanonicalError("no clustering attempt produced a decomposition")
    return replace(best, warnings=best.warnings + (
        "canonical residuals above 1e-6; result is best effort",))


@dataclass(frozen=True)
class ShapeSummary:
    counts: tuple               # ((kind, block dim, count), ...)
    max_real_size: int
    has_complex: bool
    admissible_shape: bool      # no complex, at most one real 2-block, rest 1x1
    final_form: str | None      # "zero" | "rank_one_nilpotent" | None
    sign_classes: tuple         # ((eigenvalue, size, sorted signs), ...)


def classify(cp: CanonicalPair) -> ShapeSummary:
    """Shape summary of a canonical pair against the rank-one target form."""
    counts = {}
    for b in cp.blocks:
        kind = "real" if isinstance(b, RealBlock) else "complex"
        counts[(kind, b.dim)] = counts.get((kind, b.dim), 0) + 1
    real_blocks = [b for b in cp.blocks if isinstance(b, RealBlock)]
    has_complex = any(isinstance(b, ComplexBlock) for b in cp.blocks)
    max_real = max((b.size for b in real_blocks), default=0)
    two_blocks = [b for b in real_blocks if b.size == 2]
    admissible = (not has_complex) and max_real <= 2 and len(two_blocks) <= 1

    scale = max(1.0, max((abs(b.eigenvalue) for b in real_blocks), default=0.0))
    zeros = [abs(b.eigenvalue) <= ZERO_TOL * scale for b in real_blocks]
    final = None
    if admissible and all(zeros):
        if max_real <= 1:
            final = "zero"
        elif len(two_blocks) == 1:
            final = "rank_one_nilpotent"

    classes = {}
    for b in real_blocks:
        classes.setdefault((b.eigenvalue, b.size), []).append(b.sign)
    sign_classes = tuple(sorted(
        (lam, size, tuple(sorted(signs))) for (lam, size), signs in classes.items()))
    return ShapeSummary(
        counts=tuple(sorted((k, d, c) for (k, d), c in counts.items())),
        max_real_size=max_real,
        has_complex=has_complex,
        admissible_shape=admissible,
        final_form=final,
        sign_classes=sign_classes,
    )


def rank(s) -> int:
    """Numerical rank: singular values above RANK_TOL * sigma_max."""
    sv = np.linalg.svd(np.asarray(s, dtype=float), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_TOL * sv[0]))
