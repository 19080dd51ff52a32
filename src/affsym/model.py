"""Pointwise algebraic (S, h) pairs assembled from Jordan/sip blocks.

A Gauss model is a pair of a shape-operator matrix S and a nondegenerate
symmetric form h on R^(2n) whose curvature is *defined* by
R(X,Y)Z = h(Y,Z) SX - h(X,Z) SY (``tensor_ops.AlgebraicCurvature``).  It
carries no immersion; it exists so that block-level identities can be
tested with no geometry at all.

Block conventions (matching the canonical-pair normal form; sip(k) is the
k x k matrix of anti-diagonal ones):

* a real block of size k with eigenvalue lam is lower-bidiagonal,
  S e_j = lam e_j + e_{j+1}, paired with eps * sip(k);
* a complex block of half-size k with eigenvalue alpha + i beta packs
  2x2 cells [[alpha, beta], [-beta, alpha]] on the diagonal and identity
  cells below, paired with a plain sip(2k).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

#: random_omega redraws until |det| > OMEGA_MIN_DET, OMEGA_MAX_TRIES times at most
OMEGA_MIN_DET = 1e-6
OMEGA_MAX_TRIES = 200


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class RealBlock:
    size: int
    eigenvalue: float
    sign: int  # +1 or -1

    def __post_init__(self):
        if self.size < 1:
            raise ModelError("real block size must be >= 1")
        if self.sign not in (-1, 1):
            raise ModelError("real block sign must be +1 or -1")

    @property
    def dim(self):
        return self.size


@dataclass(frozen=True)
class ComplexBlock:
    half_size: int
    alpha: float
    beta: float

    def __post_init__(self):
        if self.half_size < 1:
            raise ModelError("complex block half-size must be >= 1")
        if self.beta == 0.0:
            raise ModelError("complex block requires beta != 0")

    @property
    def dim(self):
        return 2 * self.half_size


BlockSpec = RealBlock | ComplexBlock


@dataclass(frozen=True)
class GaussModel:
    dim: int
    S: np.ndarray
    H: np.ndarray
    blocks: tuple = field(default=())


def direct_sum(blocks):
    """The block-diagonal (S, H) of the given blocks, in order.

    Each block's entries are written straight into the two arrays.  The
    zeros inside a real block carry the signs that eigenvalue * I and
    sign * sip(k) give them: -0.0 for a negative eigenvalue or sign.
    """
    for b in blocks:
        if not isinstance(b, (RealBlock, ComplexBlock)):
            raise ModelError(f"not a block spec: {b!r}")
    dim = sum(b.dim for b in blocks)
    s = np.zeros((dim, dim))
    h = np.zeros((dim, dim))
    at = 0
    for b in blocks:
        end = at + b.dim
        if isinstance(b, RealBlock):
            lam, sign = b.eigenvalue, b.sign
            s[at:end, at:end] = lam * 0.0
            h[at:end, at:end] = sign * 0.0
            for j in range(at, end):
                s[j, j] = lam
                h[j, at + end - 1 - j] = sign
                if j + 1 < end:
                    s[j + 1, j] = 1.0
        else:
            alpha, beta = b.alpha, b.beta
            for j in range(at, end, 2):
                s[j, j] = s[j + 1, j + 1] = alpha
                s[j, j + 1], s[j + 1, j] = beta, -beta
                if j + 2 < end:
                    s[j + 2, j] = s[j + 3, j + 1] = 1.0
            for j in range(at, end):
                h[j, at + end - 1 - j] = 1.0
        at = end
    return s, h


def assemble(blocks) -> GaussModel:
    """Direct-sum the given blocks, in order, into a GaussModel."""
    blocks = tuple(blocks)
    s, h = direct_sum(blocks)
    dim = len(s)
    if dim % 2 != 0:
        raise ModelError(f"total dimension {dim} is odd")
    if dim < 4:
        raise ModelError(f"total dimension {dim} is below 4")
    err = np.max(np.abs(s.T @ h - h @ s))
    if not err < 1e-12:
        raise ModelError(f"assembled pair not h-selfadjoint (residual {err})")
    if not abs(np.linalg.det(h)) > 1e-12:
        raise ModelError("assembled h degenerate")
    return GaussModel(dim, s, h, blocks)


@functools.lru_cache(maxsize=None)
def _lower_indices(dim):
    """The indices i >= j of a dim x dim array: what np.triu(a, 1) zeroes."""
    return np.tril_indices(dim)


def random_omega(dim, rng, zero_pairs=()) -> np.ndarray:
    """Random antisymmetric nondegenerate form with entries in [-1, 1].

    ``zero_pairs`` lists (i, j) index pairs forced to zero (hypothesis side
    conditions).
    """
    forbidden = {(min(i, j), max(i, j)) for i, j in zero_pairs}
    lower = _lower_indices(dim)
    for _ in range(OMEGA_MAX_TRIES):
        w = rng.uniform(-1.0, 1.0, size=(dim, dim))
        w[lower] = 0.0
        for i, j in forbidden:
            w[i, j] = 0.0
        w = w - w.T
        if abs(np.linalg.det(w)) > OMEGA_MIN_DET:
            return w
    raise ModelError("could not draw a nondegenerate form under the given constraints")
