"""Iterated curvature action and covariant derivatives of (0,p) tensors.

Two operator families over a curvature provider (algebraic Gauss model or
geometric induced structure):

* the iterated action, defined by the recursion
  (R.T)(X1,...,X_{q+2}) = -sum_{i>=3} T(X3,...,R(X1,X2)X_i,...,X_{q+2}),
  with R^k.T = R.(R^{k-1}.T) and R^0.T = T;
* covariant derivatives, (nabla T)(X1,...) = X1(T(X2,...)) minus the
  connection contractions, iterated as nabla^{k+1} T = nabla(nabla^k T),
  computed as whole jet coefficient arrays so no finite differencing is
  needed.

Single components of R^k.T use the recursion verbatim (memoized on
basis-index tuples); values at vector arguments run the recursion on the
vectors themselves.  The whole of R^k.omega for a 2-form omega is held
packed: it is antisymmetric in every slot pair (X_i, Y_i) and in its last
two slots, so it has one axis over Lambda^2 per pair slot (pairs a < b in
``np.triu_indices`` order) and N2^(k+1) entries, N2 = n(n-1)/2, instead of
n^(2k+2).  Each level applies R(e_x, e_y), x < y, to every pair axis as
one N2 x N2 matrix, the curvature operator on 2-forms.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import OMEGA_ANTISYM_TOL, gauss_curvature_tensor
from .jets import eval_jet, jet_space
from .model import GaussModel

#: recursion caps; all catalog oracles need small powers only
K_CAP_ALGEBRAIC = 8
K_CAP_GEOMETRIC = 3

#: entry cap for materializing R^k.omega, packed or dense
TENSOR_ENTRY_CAP = 40_000_000


class ArityError(ValueError):
    pass


class RecursionCapError(ValueError):
    pass


class AlgebraicCurvature:
    """Curvature of a Gauss model: R(X,Y)Z = h(Y,Z) SX - h(X,Z) SY."""

    cap = K_CAP_ALGEBRAIC

    def __init__(self, m: GaussModel):
        self.model = m
        self.dim = m.dim
        self._images = {}
        self._full = None

    def basis_image(self, i, j, t):
        """Nonzeros of R(e_i, e_j) e_t as ((index, coeff), ...)."""
        key = (i, j, t)
        out = self._images.get(key)
        if out is None:
            s, h = self.model.S, self.model.H
            vec = h[j, t] * s[:, i] - h[i, t] * s[:, j]
            out = tuple((int(m), float(vec[m])) for m in np.nonzero(vec)[0])
            self._images[key] = out
        return out

    def full_tensor(self):
        if self._full is None:
            self._full = gauss_curvature_tensor(self.model.S, self.model.H)
        return self._full


class GeometricCurvature:
    """Curvature provider backed by a pointwise R^l_{tij} array."""

    cap = K_CAP_GEOMETRIC

    def __init__(self, r):
        self.R = np.asarray(r, dtype=float)
        self.dim = self.R.shape[0]
        self._images = {}

    def basis_image(self, i, j, t):
        key = (i, j, t)
        out = self._images.get(key)
        if out is None:
            vec = self.R[:, t, i, j]
            out = tuple((int(m), float(vec[m])) for m in np.nonzero(vec)[0])
            self._images[key] = out
        return out

    def full_tensor(self):
        return self.R


def _expand_arg(arg, dim):
    """An argument is a basis index or a vector; expand to (index, coeff)."""
    if isinstance(arg, (int, np.integer)):
        return ((int(arg), 1.0),)
    vec = np.asarray(arg, dtype=float)
    if vec.shape != (dim,):
        raise ArityError(f"argument vector has shape {vec.shape}, expected ({dim},)")
    return tuple((int(m), float(vec[m])) for m in np.nonzero(vec)[0])


def r_power_action(provider, tensor, k: int, args, memo: bool = True) -> float:
    """Evaluate (R^k . T)(args) by the defining recursion.

    ``tensor`` is a dense (0,p) component array; ``args`` are 2k+p basis
    indices or vectors (vectors expand multilinearly).  ``memo=False`` runs
    the identical recursion without caching (for cross-checks).
    """
    t = np.asarray(tensor, dtype=float)
    p = t.ndim
    if k < 0:
        raise ArityError("k must be >= 0")
    if k > provider.cap:
        raise RecursionCapError(f"power {k} exceeds cap {provider.cap} for this provider")
    if len(args) != 2 * k + p:
        raise ArityError(f"expected {2 * k + p} arguments, got {len(args)}")
    dim = provider.dim
    cache = {} if memo else None

    def eval_idx(k, idxs):
        if k == 0:
            return float(t[idxs])
        if cache is not None:
            got = cache.get((k, idxs))
            if got is not None:
                return got
        x, y = idxs[0], idxs[1]
        rest = idxs[2:]
        total = 0.0
        for slot in range(len(rest)):
            image = provider.basis_image(x, y, rest[slot])
            acc = 0.0
            for m, coeff in image:
                acc += coeff * eval_idx(k - 1, rest[:slot] + (m,) + rest[slot + 1:])
            total -= acc
        if cache is not None:
            cache[(k, idxs)] = total
        return total

    expansions = [_expand_arg(a, dim) for a in args]

    def eval_args(pos, idxs):
        if pos == len(expansions):
            return eval_idx(k, idxs)
        out = 0.0
        for m, coeff in expansions[pos]:
            out += coeff * eval_args(pos + 1, idxs + (m,))
        return out

    return eval_args(0, ())


def r_power_probe(provider, tensor, k: int, vectors) -> np.ndarray:
    """Evaluate (R^k . T) at vector arguments by the recursion on vectors.

    ``vectors`` has shape (..., 2k+p, n) and the result has shape (...).
    Each level forms R(X, Y) for every branch at once (one n^2 x n^2 GEMM
    against the provider's full tensor), then branches once per remaining
    slot Z, which becomes -R(X, Y)Z.  The leaves contract the last p
    vectors with T and the branch axis is summed.
    """
    t = np.asarray(tensor, dtype=float)
    v = np.asarray(vectors, dtype=float)
    p, n = t.ndim, provider.dim
    if k < 0:
        raise ArityError("k must be >= 0")
    if k > provider.cap:
        raise RecursionCapError(f"power {k} exceeds cap {provider.cap} for this provider")
    if v.shape[-2:] != (2 * k + p, n):
        raise ArityError(f"expected vectors of shape (..., {2 * k + p}, {n}), "
                         f"got {v.shape}")
    batch = v.shape[:-2]
    size, branches, entries = math.prod(batch), 1, 0
    for q in range(2 * k + p - 2, p - 1, -2):
        # a level holds X (x) Y products and the q-fold new branches
        entries = max(entries, size * branches * max(n * n, q * q * n))
        branches *= q
    # the leaf contraction holds one n^(p-1) partial per branch
    entries = max(entries, size * branches * n ** max(p - 1, 0))
    if entries > TENSOR_ENTRY_CAP:
        raise RecursionCapError(f"R^{k} probe would hold {entries} entries")
    r2 = provider.full_tensor().reshape(n * n, n * n)
    v = v.reshape(size, 2 * k + p, n)
    for _ in range(k):
        b, q = v.shape[0], v.shape[1] - 2
        xy = (v[:, 0, :, None] * v[:, 1, None, :]).reshape(b, n * n)
        r_xy = (xy @ r2.T).reshape(b, n, n)
        rest = v[:, 2:]
        out = np.repeat(rest[:, None], q, axis=1)
        diag = np.arange(q)
        out[:, diag, diag] = -(rest @ r_xy.transpose(0, 2, 1))
        v = out.reshape(b * q, q, n)
    leaves = np.broadcast_to(t.reshape(1, -1), (len(v), t.size))
    for s in range(p):
        leaves = np.einsum("bi,bij->bj", v[:, s],
                           leaves.reshape(len(v), n, n ** (p - s - 1)))
    return leaves.reshape(batch + (branches,)).sum(axis=-1)


def pack_two_form(omega, n: int) -> np.ndarray:
    """The coefficients omega[a, b], a < b, of a 2-form on R^n.

    Raises ArityError unless omega is an antisymmetric n x n array (within
    the tolerance scenarios are validated with): the packed form reads only
    the upper triangle.
    """
    w = np.asarray(omega, dtype=float)
    if w.shape != (n, n):
        raise ArityError(f"expected a 2-form of shape ({n}, {n}), got {w.shape}")
    if not np.max(np.abs(w + w.T)) <= OMEGA_ANTISYM_TOL:
        raise ArityError("tensor is not an antisymmetric 2-form")
    return w[np.triu_indices(n, 1)]


def _pair_operator(provider) -> np.ndarray:
    """rho[P, A, B]: the derivation R(e_x, e_y) on 2-forms, P = (x, y).

    (rho_P w)(e_a, e_b) = w(R(e_x, e_y) e_a, e_b) + w(e_a, R(e_x, e_y) e_b)
    for A = (a, b), expanded over the packed coefficients w_B, B = (c, d).
    """
    c, d = np.triu_indices(provider.dim, 1)
    a, b = c[:, None], d[:, None]
    r = provider.full_tensor()[:, :, c, d]    # r[m, t, P] = (R(e_x, e_y) e_t)^m
    # r[c, a] etc. are indexed [A, B, P]; each delta is [A, B]
    rho = (r[c, a] * (b == d)[..., None] - r[d, a] * (b == c)[..., None]
           + r[d, b] * (a == c)[..., None] - r[c, b] * (a == d)[..., None])
    return np.moveaxis(rho, 2, 0)


def r_power_levels(provider, packed, k: int):
    """Yield R.T, R^2.T, ..., R^k.T of a tensor T with one Lambda^2 axis
    per pair slot, one level at a time, from one pair operator.

    A level maps T to -sum over pair axes s of rho(R(e_x, e_y)) applied on
    axis s, with the new pair (x, y) as the leading axis: one tensordot per
    existing axis.  ``pack_two_form(omega, n)`` gives R^0.omega.  The
    checks, the entry cap on R^k.T among them, run at the first ``next``.
    """
    t = np.asarray(packed, dtype=float)
    n = provider.dim
    n2 = n * (n - 1) // 2
    if k < 0:
        raise ArityError("k must be >= 0")
    if k > provider.cap:
        raise RecursionCapError(f"power {k} exceeds cap {provider.cap} for this provider")
    if any(size != n2 for size in t.shape):
        raise ArityError(f"packed axes must have length {n2}, got shape {t.shape}")
    if n2 ** (t.ndim + k) > TENSOR_ENTRY_CAP:
        raise RecursionCapError(
            f"packed R^{k} tensor would hold {n2 ** (t.ndim + k)} entries")
    rho = _pair_operator(provider)
    for _ in range(k):
        out = np.zeros((n2,) + t.shape)
        for s in range(t.ndim):
            out -= np.moveaxis(np.tensordot(rho, t, axes=([2], [s])), 1, s + 1)
        t = out
        yield t


def r_power_packed(provider, packed, k: int) -> np.ndarray:
    """R^k.T of a tensor with one Lambda^2 axis per pair slot: the last
    level of ``r_power_levels`` (T itself for k = 0)."""
    t = np.asarray(packed, dtype=float)
    for t in r_power_levels(provider, t, k):
        pass
    return t


def r_power_tensor(provider, tensor, k: int,
                   entry_cap: int = TENSOR_ENTRY_CAP) -> np.ndarray:
    """R^k . omega of a 2-form as a dense array of arity 2k+2: the packed
    form of ``r_power_packed`` with each pair axis unpacked to n x n."""
    n = provider.dim
    packed = pack_two_form(tensor, n)
    if n ** (2 * k + 2) > entry_cap:
        raise RecursionCapError(f"R^{k} tensor would hold {n ** (2 * k + 2)} entries")
    t = r_power_packed(provider, packed, k)
    a, b = np.triu_indices(n, 1)
    unpack = np.zeros((len(a), n, n))
    unpack[np.arange(len(a)), a, b] = 1.0
    unpack[np.arange(len(a)), b, a] = -1.0
    for _ in range(t.ndim):
        # consume the leading pair axis, append its (n, n) slots at the end
        t = np.tensordot(t, unpack, axes=([0], [0]))
    return t


# -- covariant derivatives ---------------------------------------------


class CovariantField:
    """A (0,p) tensor field given by expressions or constant components."""

    def __init__(self, arity, components, coords=None):
        self.arity = arity
        self.coords = coords
        comps = np.asarray(components, dtype=object)
        if comps.ndim != arity:
            raise ArityError(f"component array has {comps.ndim} axes, expected {arity}")
        self.components = comps

    @staticmethod
    def constant(array):
        arr = np.asarray(array, dtype=float)
        return CovariantField(arr.ndim, arr.astype(object))

    def jets(self, point, order):
        """Component jets at ``point`` as one coefficient array
        (ncoeff, n, ..., n); constant components stay constants."""
        space = jet_space(len(point), order)
        out = np.zeros((space.size,) + self.components.shape)
        for idx in np.ndindex(*self.components.shape):
            c = self.components[idx]
            if isinstance(c, (int, float)):
                out[(0,) + idx] = c
            else:
                out[(slice(None),) + idx] = eval_jet(c, point, order, self.coords)
        return out


def nabla_powers(field: CovariantField, structure, k: int) -> list:
    """Dense [nabla^0 T, ..., nabla^k T] at the structure's base point.

    One pass of k steps on whole coefficient arrays:
    (nabla T)_{i r_1..r_a} = d_i T_{r_1..r_a} - sum_s Gamma^m_{i r_s} T_{r_1..m..r_a},
    where step j (of k) works at jet order k - j, so the field enters at
    order k and Gamma at order k - 1 at most.  nabla^j T at the point is
    the order-0 coefficient of the array after step j.
    """
    if k < 0:
        raise ArityError("k must be >= 0")
    if k > structure.order + 1:
        raise RecursionCapError(
            f"nabla^{k} needs structure jets of order {k - 1}, have {structure.order}")
    n = structure.dim
    t = field.jets(structure.point, k)
    powers = [t[0]]
    for q in range(k - 1, -1, -1):
        space = jet_space(n, q)
        slots = "abcdefgh"[: t.ndim - 1]
        out = np.stack([jet_space(n, q + 1).partial(t, l) for l in range(n)], axis=1)
        for s, r in enumerate(slots):
            out -= space.einsum(f"mi{r},{slots[:s]}m{slots[s + 1:]}->i{slots}",
                                structure.gamma, t)
        t = out
        powers.append(t[0])
    return powers


def nabla_tensor(field: CovariantField, structure, k: int) -> np.ndarray:
    """Dense nabla^k T at the structure's base point (arity k + p): the
    last of ``nabla_powers``."""
    return nabla_powers(field, structure, k)[-1]


def alternating_sum_identity(omega, nabla, provider, k: int, x_pairs, y_idxs):
    """Both sides of the curvature-vs-derivative alternating identity.

    ``omega`` is the (0,p) tensor at the point and ``nabla`` its dense
    nabla^{2k} there (arity 2k + p), computed once by the caller.

    lhs = (R^k . T)(X^1_1, X^1_{-1}, ..., Y...);
    rhs = sum over sign assignments a of sgn(a) *
          (nabla^{2k} T)(X^1_{a(1)}, X^1_{-a(1)}, ..., Y...).
    """
    if len(x_pairs) != k:
        raise ArityError(f"need {k} argument pairs, got {len(x_pairs)}")
    if np.ndim(nabla) != 2 * k + np.ndim(omega):
        raise ArityError(f"rhs needs nabla^{2 * k} of the tensor, got arity "
                         f"{np.ndim(nabla)}")
    flat = []
    for a, b in x_pairs:
        flat.extend((a, b))
    flat.extend(y_idxs)
    lhs = r_power_action(provider, omega, k, flat)

    rhs = 0.0
    for bits in range(2 ** k):
        sgn = 1.0
        idxs = []
        for t in range(k):
            a, b = x_pairs[t]
            if (bits >> t) & 1:
                sgn = -sgn
                idxs.extend((b, a))
            else:
                idxs.extend((a, b))
        idxs.extend(y_idxs)
        rhs += sgn * nabla[tuple(idxs)]
    return lhs, rhs
