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

from dataclasses import dataclass

import numpy as np

from .model import BlockSpec, ComplexBlock, RealBlock, build_block

#: an H whose reciprocal condition number is at or below this is singular
H_RCOND_MIN = 1e-10


class CanonicalError(ValueError):
    pass


class NotSelfadjointError(CanonicalError):
    pass


def sip_signature(n: int):
    """Signature (positive, negative) of sip_matrix(n)."""
    if n < 1:
        raise CanonicalError("sip size must be >= 1")
    if n % 2 == 0:
        return (n // 2, n // 2)
    return ((n + 1) // 2, (n - 1) // 2)


@dataclass(frozen=True)
class CanonicalPair:
    blocks: tuple           # BlockSpec, in canonical order
    transform: np.ndarray   # columns are the canonical basis
    residual_jordan: float  # || T^-1 A T - J ||_max
    residual_h: float       # || T^T H T - P ||_max
    warnings: tuple = ()

    @property
    def dim(self):
        return self.transform.shape[0]


def canonical_matrices(blocks):
    """Direct sums (J, P) for an ordered block list."""
    dim = sum(b.dim for b in blocks)
    j = np.zeros((dim, dim))
    p = np.zeros((dim, dim))
    at = 0
    for b in blocks:
        sb, hb = build_block(b)
        j[at: at + b.dim, at: at + b.dim] = sb
        p[at: at + b.dim, at: at + b.dim] = hb
        at += b.dim
    return j, p


def _cluster_1d(values, delta):
    """Greedy gap clustering of sorted scalars; returns lists of indices."""
    order = np.argsort(values)
    groups = []
    for idx in order:
        if groups and abs(values[idx] - values[groups[-1][-1]]) <= delta:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return groups


def _cluster_complex(values, delta):
    order = sorted(range(len(values)), key=lambda i: (values[i].real, values[i].imag))
    groups = []
    for idx in order:
        placed = False
        for g in groups:
            if abs(values[idx] - values[g[-1]]) <= delta:
                g.append(idx)
                placed = True
                break
        if not placed:
            groups.append([idx])
    return groups


def _pick_isotropy_vector(f, complex_field):
    """Vector x with |x^T F x| as large as practical; F symmetric, nonzero."""
    d = f.shape[0]
    candidates = []
    if complex_field:
        u, _, vh = np.linalg.svd(f)
        candidates.append(np.conj(vh[0]))
        candidates.append(u[:, 0])
    else:
        w, v = np.linalg.eigh((f + f.T) / 2.0)
        candidates.extend(v[:, i] for i in range(d))
    eye = np.eye(d, dtype=complex if complex_field else float)
    candidates.extend(eye[:, i] for i in range(d))
    for i in range(d):
        for j in range(i + 1, d):
            candidates.append(eye[:, i] + eye[:, j])
            candidates.append(eye[:, i] - eye[:, j])
            if complex_field:
                candidates.append(eye[:, i] + 1j * eye[:, j])
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
        scale = max(1.0, float(np.linalg.norm(n_cur, 2)))
        length = cur.shape[1]
        power = np.eye(cur.shape[1], dtype=n_cur.dtype)
        for j in range(1, cur.shape[1] + 1):
            power = power @ n_cur
            nrm = float(np.linalg.norm(power, 2))
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


def _attempt(a, h, eigvals, delta):
    n = a.shape[0]
    warnings = []
    real_idx = [i for i in range(n) if abs(eigvals[i].imag) <= delta]
    pos_idx = [i for i in range(n) if eigvals[i].imag > delta]

    real_groups = _cluster_1d(np.array([eigvals[i].real for i in real_idx]), delta) \
        if real_idx else []
    real_clusters = [(float(np.mean([eigvals[real_idx[i]].real for i in g])), len(g))
                     for g in real_groups]
    cplx_groups = _cluster_complex([eigvals[i] for i in pos_idx], delta) \
        if pos_idx else []
    cplx_clusters = [(complex(np.mean([eigvals[pos_idx[i]] for i in g])), len(g))
                     for g in cplx_groups]

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
        m = np.linalg.matrix_power(a - lam * np.eye(n), mult)
        _, s, vh = np.linalg.svd(m)
        if mult < n and s[n - mult - 1] < 1e3 * max(s[n - mult], 1e-300):
            warnings.append(
                f"weak root-space separation at eigenvalue {lam:.6g}")
        basis = vh[n - mult:].T
        for length, sign, cols in _extract_chains(a, h, basis, lam, False, warnings):
            entries.append((RealBlock(length, lam, sign),
                            [np.real(c) for c in cols]))
    for lam, mult in cplx_clusters:
        if lam.imag < 0:
            lam = lam.conjugate()
        m = np.linalg.matrix_power(a.astype(complex) - lam * np.eye(n), mult)
        _, s, vh = np.linalg.svd(m)
        if mult < n and s[n - mult - 1] < 1e3 * max(s[n - mult], 1e-300):
            warnings.append(
                f"weak root-space separation at eigenvalue {lam:.6g}")
        basis = np.conj(vh[n - mult:]).T
        for length, _sign, cols in _extract_chains(
                a.astype(complex), h.astype(complex), basis, lam, True, warnings):
            real_cols = []
            for c in cols:
                real_cols.append(np.real(c))
                real_cols.append(np.imag(c))
            entries.append((ComplexBlock(length, lam.real, lam.imag), real_cols))

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
    j_mat, p_mat = canonical_matrices(blocks)
    res_j = float(np.max(np.abs(np.linalg.solve(t, a @ t) - j_mat)))
    res_h = float(np.max(np.abs(t.T @ h @ t - p_mat)))
    return CanonicalPair(blocks, t, res_j, res_h, tuple(warnings))


#: escalation ladder for the clustering threshold; double-precision
#: eigenvalues of a size-k Jordan block scatter by ~eps^(1/k), far beyond
#: the base threshold, so failed attempts retry with a coarser delta.
_DELTA_LADDER = (1.0, 10.0, 100.0, 400.0)


def decompose(a, h, tol: float = 1e-8, cluster_tol: float | None = None) -> CanonicalPair:
    """Decompose an H-selfadjoint matrix into its Jordan/sip canonical pair.

    ``tol`` gates the selfadjointness precondition; ``cluster_tol``
    overrides the eigenvalue clustering threshold (default 1e-6 * ||A||,
    escalated internally when the canonical residuals come out poor).
    """
    a = np.asarray(a, dtype=float)
    h = np.asarray(h, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or h.shape != (n, n):
        raise CanonicalError("A and H must be square and of equal size")
    if np.max(np.abs(h - h.T)) > 1e-10 * max(1.0, np.max(np.abs(h))):
        raise CanonicalError("H is not symmetric")
    if 1.0 / np.linalg.cond(h) <= H_RCOND_MIN:
        raise CanonicalError("H is numerically singular")
    norm_a = float(np.max(np.abs(a)))
    norm_h = float(np.max(np.abs(h)))
    err = float(np.max(np.abs(a.T @ h - h @ a)))
    if err > tol * max(norm_h * norm_a, norm_h, 1e-300):
        raise NotSelfadjointError(
            f"A is not H-selfadjoint: ||A^T H - H A|| = {err:.3e}")

    eigvals = np.linalg.eigvals(a)
    base = (cluster_tol if cluster_tol is not None
            else 1e-6 * max(1.0, norm_a))
    ladder = (1.0,) if cluster_tol is not None else _DELTA_LADDER
    best = None
    for step, factor in enumerate(ladder):
        try:
            cand = _attempt(a, h, eigvals, base * factor)
        except CanonicalError:
            continue
        if step > 0:
            cand = CanonicalPair(
                cand.blocks, cand.transform, cand.residual_jordan, cand.residual_h,
                cand.warnings + (
                    f"clustering threshold escalated to {base * factor:.3e}",))
        if max(cand.residual_jordan, cand.residual_h) < 1e-6:
            return cand
        if best is None or max(cand.residual_jordan, cand.residual_h) < \
                max(best.residual_jordan, best.residual_h):
            best = cand
    if best is None:
        raise CanonicalError("no clustering attempt produced a decomposition")
    return CanonicalPair(
        best.blocks, best.transform, best.residual_jordan, best.residual_h,
        best.warnings + ("canonical residuals above 1e-6; result is best effort",))


@dataclass(frozen=True)
class ShapeSummary:
    counts: tuple               # ((kind, block dim, count), ...)
    max_real_size: int
    has_complex: bool
    admissible_shape: bool      # no complex, at most one real 2-block, rest 1x1
    final_form: str | None      # "zero" | "rank_one_nilpotent" | None
    sign_classes: tuple         # ((eigenvalue, size, sorted signs), ...)


def classify(cp: CanonicalPair, zero_tol: float = 1e-8) -> ShapeSummary:
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
    zeros = [abs(b.eigenvalue) <= zero_tol * scale for b in real_blocks]
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


def rank(s, tol: float = 1e-9) -> int:
    """Numerical rank: singular values above tol * sigma_max."""
    sv = np.linalg.svd(np.asarray(s, dtype=float), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def signature(h, tol: float = 1e-10) -> tuple:
    """(positive, negative) inertia of a symmetric matrix."""
    w = np.linalg.eigvalsh(np.asarray(h, dtype=float))
    return (int(np.sum(w > tol)), int(np.sum(w < -tol)))
