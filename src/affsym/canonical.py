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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import BlockSpec, ComplexBlock, RealBlock, direct_sum

#: an H whose reciprocal condition number is at or below this is singular
H_RCOND_MIN = 1e-10

#: ``classify`` takes |eigenvalue| <= ZERO_TOL * max(1, max |eigenvalue|) as 0
ZERO_TOL = 1e-8

#: ``rank`` counts the singular values above this times the largest
RANK_TOL = 1e-9

#: ``decompose`` rejects an A or H entry beyond this in magnitude: it
#: multiplies A - lambda I by itself and by H, and a product of two larger
#: entries leaves double precision
ENTRY_MAX = 1e150


class CanonicalError(ValueError):
    pass


class NotSelfadjointError(CanonicalError):
    pass


@dataclass(frozen=True)
class CanonicalPair:
    blocks: tuple           # BlockSpec, in canonical order
    transform: np.ndarray   # columns are the canonical basis
    residual_jordan: float  # || T^-1 A T - J ||_max
    residual_h: float       # || T^T H T - P ||_max
    warnings: tuple = ()


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


def _pick_isotropy_vector(f, complex_field):
    """Vector x with |x^T F x| as large as practical; F symmetric, nonzero.

    Over the reals the candidates are the eigenvectors of F: for a unit x,
    |x^T F x| <= max |lambda| (Rayleigh), with equality at the eigenvector
    of the largest |lambda|.  Over the complex field x^T F x is no Hermitian
    form; the top singular vectors can miss the Takagi maximum when sigma_1
    repeats, so unit vectors and the pairs e_i + e_j, e_i - e_j and
    e_i + i e_j are tried as well.
    """
    d = f.shape[0]
    if not complex_field:
        candidates = list(np.linalg.eigh(f)[1].T)
    else:
        u, _, vh = np.linalg.svd(f)
        eye = np.eye(d, dtype=complex)
        candidates = [np.conj(vh[0]), u[:, 0], *eye]
        for i in range(d):
            for j in range(i + 1, d):
                candidates += [eye[i] + eye[j], eye[i] - eye[j], eye[i] + 1j * eye[j]]
    best, best_score = None, -1.0
    for x in candidates:
        nrm = np.linalg.norm(x)
        if nrm == 0.0:
            continue
        x = x / nrm
        score = abs(x @ f @ x)
        if score > best_score:
            best, best_score = x, score
    return best, best_score


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

        # nilpotency index at this stage
        # svd(x)[0] is the float np.linalg.norm(x, 2) returns, at less cost
        scale = max(1.0, float(np.linalg.svd(n_cur, compute_uv=False)[0]))
        length = cur.shape[1]
        power = np.eye(cur.shape[1], dtype=n_cur.dtype)
        for j in range(1, cur.shape[1] + 1):
            power = power @ n_cur
            nrm = float(np.linalg.svd(power, compute_uv=False)[0])
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
        x, score = _pick_isotropy_vector(f, complex_field)
        if x is None or score < 1e-10:
            raise CanonicalError(
                f"could not find a chain generator at eigenvalue {lam} "
                f"(pairing form degenerate to {score:.3e})")

        def pairings(vec):
            ys = [vec]
            for _ in range(length - 1):
                ys.append(n_cur @ ys[-1])
            cs = [ys[0] @ h_cur @ y for y in ys]
            return ys, cs

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
    n = len(eigvals)
    reals = [eigvals[i].real for i in range(n) if abs(eigvals[i].imag) <= delta]
    uppers = [eigvals[i] for i in range(n) if eigvals[i].imag > delta]
    real_clusters = tuple((float(np.mean([reals[i] for i in g])), len(g))
                          for g in _cluster(reals, delta))
    cplx_clusters = tuple((complex(np.mean([uppers[i] for i in g])), len(g))
                          for g in _cluster(uppers, delta))
    return real_clusters, cplx_clusters


def _attempt(a, h, real_clusters, cplx_clusters, delta):
    """The canonical pair built on one clustering; ``delta`` enters only the
    warnings about clusters closer than 10 delta."""
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
        basis = _root_space(a, lam, mult, warnings)
        for length, sign, cols in _extract_chains(a, h, basis, lam, False, warnings):
            entries.append((RealBlock(length, lam, sign), cols))
    for lam, mult in cplx_clusters:
        basis = _root_space(a, lam, mult, warnings)
        for length, _sign, cols in _extract_chains(
                a.astype(complex), h.astype(complex), basis, lam, True, warnings):
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
#: best then.
_DELTA_LADDER = (1.0, 10.0, 100.0, 400.0)


def decompose(a, h, tol: float = 1e-8) -> CanonicalPair:
    """Decompose an H-selfadjoint matrix into its Jordan/sip canonical pair.

    ``tol`` gates the selfadjointness precondition; eigenvalues are
    clustered at 1e-6 * ||A||, escalated along ``_DELTA_LADDER`` when the
    canonical residuals come out poor.  An entry beyond ``ENTRY_MAX``, or a
    product that still overflows, raises CanonicalError; the overflow is
    caught where it happens, because LAPACK's SVD need not return on the
    NaN it would lead to.
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
    if 1.0 / np.linalg.cond(h) <= H_RCOND_MIN:
        raise CanonicalError("H is numerically singular")
    err = float(np.max(np.abs(a.T @ h - h @ a)))
    if err > tol * max(norm_h * norm_a, norm_h, 1e-300):
        raise NotSelfadjointError(
            f"A is not H-selfadjoint: ||A^T H - H A|| = {err:.3e}")

    eigvals = np.linalg.eigvals(a)
    base = 1e-6 * max(1.0, norm_a)
    best, tried = None, set()
    for step, factor in enumerate(_DELTA_LADDER):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                clusters = _clusters(eigvals, base * factor)
                if clusters in tried:
                    continue
                tried.add(clusters)
                cand = _attempt(a, h, *clusters, base * factor)
        except (FloatingPointError, OverflowError) as exc:
            raise CanonicalError(
                f"decomposition leaves the double-precision range ({exc})") from exc
        except (CanonicalError, np.linalg.LinAlgError):
            # a LinAlgError is a singular basis T: this clustering failed
            continue
        if step > 0:
            cand = replace(cand, warnings=cand.warnings + (
                f"clustering threshold escalated to {base * factor:.3e}",))
        if max(cand.residual_jordan, cand.residual_h) < 1e-6:
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
