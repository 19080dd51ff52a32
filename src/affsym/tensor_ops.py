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

Single components of R^k.T use the recursion verbatim (memoized per
level on basis-index tuples).  For a 2-form omega, R^k.omega is
antisymmetric in every slot pair and in its last two slots, so the two
other forms of it work on Lambda^2, in one set of packed coordinates:
pairs a < b in ``np.triu_indices`` order, N2 = n(n-1)/2 of them.  A slot
pair (X, Y) is c_ab = X_a Y_b - X_b Y_a, so omega(X, Y) = <w, c> for
w = ``pack_two_form(omega, n)``, and R(e_x, e_y) acts on Lambda^2 as the
N2 x N2 matrix rho_P, P = (x, y) (``_pair_operator``).  R^k.omega is held
whole, N2^(k+1) entries (``r_power_levels``), or evaluated at vectors, k!
branches per probe (``r_power_probe``), whose kernel takes packed pairs,
so ``reduce_to_basis`` can try the unit pairs of basis components.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .geometry import OMEGA_ANTISYM_TOL, gauss_curvature_tensor
from .jets import component_jets, jet_space
from .model import GaussModel

#: recursion caps; all catalog oracles need small powers only
K_CAP_ALGEBRAIC = 8
K_CAP_GEOMETRIC = 3

#: entry cap for packed R^k.omega and for the arrays of a vector probe
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
        self._s_cols = self._h_rows = None
        self._rho = None

    def basis_image(self, i, j, t):
        """Nonzeros of R(e_i, e_j) e_t as ((index, coeff), ...).

        Computed in plain Python from the columns of S and the rows of H,
        converted to lists once per provider: the same products and
        subtraction, h[j, t] * S[:, i] - h[i, t] * S[:, j], as the numpy
        expression.  When h[j, t] and h[i, t] are both zero the image is
        () at once; a sip H has one nonzero per row, so most images are.
        """
        key = (i, j, t)
        out = self._images.get(key)
        if out is None:
            if self._h_rows is None:
                self._s_cols = self.model.S.T.tolist()
                self._h_rows = self.model.H.tolist()
            hj, hi = self._h_rows[j][t], self._h_rows[i][t]
            if hj == 0.0 and hi == 0.0:
                out = ()
            else:
                vec = [hj * a - hi * b
                       for a, b in zip(self._s_cols[i], self._s_cols[j])]
                out = tuple((m, v) for m, v in enumerate(vec) if v != 0.0)
            self._images[key] = out
        return out

    def full_tensor(self):
        return gauss_curvature_tensor(self.model.S, self.model.H)


class GeometricCurvature:
    """Curvature provider backed by a pointwise R^l_{tij} array."""

    cap = K_CAP_GEOMETRIC

    def __init__(self, r):
        self.R = np.asarray(r, dtype=float)
        self.dim = self.R.shape[0]
        self._images = {}
        self._rho = None

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


def _check_power(provider, k: int):
    """The one R^k power gate: ArityError unless k >= 0, RecursionCapError
    if k is beyond ``provider.cap`` (a provider or its class)."""
    if k < 0:
        raise ArityError("k must be >= 0")
    if k > provider.cap:
        raise RecursionCapError(f"power {k} is beyond the curvature power cap {provider.cap}")


def check_packed_power(provider, n: int, axes: int, k: int) -> int:
    """Gate R^k of a tensor with ``axes`` packed Lambda^2 axes on R^n: the
    power against ``provider.cap`` first, so a huge k is never
    exponentiated, then the N2^(axes+k) entries against TENSOR_ENTRY_CAP.
    Returns N2 = n(n-1)/2."""
    _check_power(provider, k)
    n2 = n * (n - 1) // 2
    entries = n2 ** (axes + k)
    if entries > TENSOR_ENTRY_CAP:
        raise RecursionCapError(f"packed R^{k} tensor would hold {entries} entries, "
                                f"beyond the cap {TENSOR_ENTRY_CAP}")
    return n2


def r_power_action(provider, tensor, k: int, args) -> float:
    """Evaluate (R^k . T)(args) by the defining recursion.

    ``tensor`` is a dense (0,p) component array; ``args`` are 2k+p basis
    indices or vectors (vectors expand multilinearly).  Each node takes
    the provider's basis images R(e_x, e_y) e_z of its slots and skips a
    slot whose image is empty (subtracting its 0.0 term is a no-op).  Values are
    memoized in one dict per level, keyed by the basis-index tuple.
    """
    t = np.asarray(tensor, dtype=float)
    p = t.ndim
    _check_power(provider, k)
    if len(args) != 2 * k + p:
        raise ArityError(f"expected {2 * k + p} arguments, got {len(args)}")
    dim = provider.dim
    image_of = provider.basis_image
    memos = [{} for _ in range(k + 1)]

    def eval_idx(k, idxs):
        if k == 0:
            return float(t[idxs])
        got = memos[k].get(idxs)
        if got is not None:
            return got
        x, y = idxs[0], idxs[1]
        rest = idxs[2:]
        total = 0.0
        for slot, z in enumerate(rest):
            image = image_of(x, y, z)
            if image:
                acc = 0.0
                for m, coeff in image:
                    acc += coeff * eval_idx(k - 1, rest[:slot] + (m,) + rest[slot + 1:])
                total -= acc
        memos[k][idxs] = total
        return total

    expansions = [_expand_arg(a, dim) for a in args]

    def eval_args(pos, idxs):
        if pos == len(expansions):
            return eval_idx(k, idxs)
        out = 0.0
        for m, coeff in expansions[pos]:
            out += coeff * eval_args(pos + 1, idxs + (m,))
        return out

    try:
        return eval_args(0, ())
    finally:
        # the closures call themselves through their cells: clearing them
        # frees the provider they hold now, not at a later cyclic collection
        eval_idx = eval_args = None


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple:
    """``np.triu_indices(n, 1)``, the pairs a < b that index Lambda^2 on
    R^n, built once per dimension and read-only."""
    a, b = np.triu_indices(n, 1)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def pack_two_form(omega, n: int) -> np.ndarray:
    """The coefficients omega[a, b], a < b, of a 2-form on R^n.

    Raises ArityError unless omega is an antisymmetric n x n array, within
    the tolerance scenarios are validated with: the packed form reads only
    the upper triangle.
    """
    w = np.asarray(omega, dtype=float)
    if w.shape != (n, n):
        raise ArityError(f"expected a 2-form of shape ({n}, {n}), got {w.shape}")
    if not np.max(np.abs(w + w.T)) <= OMEGA_ANTISYM_TOL:
        raise ArityError("tensor is not an antisymmetric 2-form")
    return w[_pairs(n)]


def _pack_pairs(vectors) -> np.ndarray:
    """The packed 2-vector c_ab = X_a Y_b - X_b Y_a, a < b, of each slot
    pair (X, Y): vectors of shape (..., 2j, n) give j pairs (..., j, N2)."""
    a, b = _pairs(vectors.shape[-1])
    x, y = vectors[..., 0::2, :], vectors[..., 1::2, :]
    return x[..., a] * y[..., b] - x[..., b] * y[..., a]


def _pair_operator(provider) -> np.ndarray:
    """rho[P, A, B]: the derivation R(e_x, e_y) on 2-forms, P = (x, y),
    built once per provider and read-only.

    (rho_P w)(e_a, e_b) = w(M e_a, e_b) + w(e_a, M e_b), M = R(e_x, e_y),
    expanded over the packed coefficients w_B.  Only the nonzeros are
    written: row A = (a, b) holds sign(m < b) M[m, a] at B = {m, b} and
    sign(a < m) M[m, b] at B = {a, m}, the two sets meeting at B = A only.
    """
    if provider._rho is None:
        n = provider.dim
        a, b = _pairs(n)
        pair = np.zeros((n, n), dtype=int)
        pair[a, b] = pair[b, a] = np.arange(len(a))
        r = provider.full_tensor()[:, :, a, b]    # r[m, t, P] = M[m, t]
        rho = np.zeros((len(a),) * 3)
        row, m = np.nonzero(np.arange(n) != b[:, None])
        rho[:, row, pair[m, b[row]]] = (np.where(m < b[row], 1.0, -1.0)[:, None]
                                        * r[m, a[row]]).T
        row, m = np.nonzero(np.arange(n) != a[:, None])
        rho[:, row, pair[a[row], m]] += (np.where(a[row] < m, 1.0, -1.0)[:, None]
                                         * r[m, b[row]]).T
        rho.flags.writeable = False
        provider._rho = rho
    return provider._rho


def r_power_probe(provider, omega, k: int, vectors) -> np.ndarray:
    """Evaluate (R^k . omega)(X_1, Y_1, ..., X_k, Y_k, U, V) for a 2-form
    omega at vector arguments.

    ``vectors`` has shape (..., 2k+2, n) and the result has shape (...).
    Each slot pair is carried as its packed 2-vector (``_pack_pairs``), so
    the pair kernel ``_pair_probe`` ends in k! branches, not (2k)!!.
    Raises ArityError unless omega is an n x n 2-form (``pack_two_form``),
    and RecursionCapError if a level would hold more than TENSOR_ENTRY_CAP
    entries.
    """
    v = np.asarray(vectors, dtype=float)
    n = provider.dim
    _check_power(provider, k)
    w = pack_two_form(omega, n)
    if v.shape[-2:] != (2 * k + 2, n):
        raise ArityError(f"expected vectors of shape (..., {2 * k + 2}, {n}), "
                         f"got {v.shape}")
    batch = v.shape[:-2]
    size = math.prod(batch)
    n2 = len(w)
    # a level with q pairs after its first forms one N2 x N2 matrix and
    # q branches of q pairs for each branch that enters it
    entries, branches = size * (k + 1) * n2, size
    for q in range(k, 0, -1):
        entries = max(entries, branches * n2 * max(n2, q * q))
        branches *= q
    if entries > TENSOR_ENTRY_CAP:
        raise RecursionCapError(f"R^{k} probe would hold {entries} entries")
    pairs = _pack_pairs(v.reshape(size, 2 * k + 2, n))
    return _pair_probe(provider, w, pairs).reshape(batch)


def _pair_probe(provider, w, pairs) -> np.ndarray:
    """The kernel of ``r_power_probe``, without its checks: packed pairs of
    shape (b, k+1, N2) and the packed 2-form w give the b values of
    R^k.omega.  A level forms M = sum_P c1_P rho_P for the first pair c1 of
    every branch at once, then branches once per remaining pair c, which
    becomes -M^T c: the derivation R(X_1, Y_1) applied to both of its
    slots.  A leaf is omega(U, V) = <w, c>; each value sums its k! leaves.
    """
    size, m, n2 = pairs.shape
    b = size
    rho = _pair_operator(provider).reshape(n2, n2 * n2)
    for q in range(m - 1, 0, -1):
        mat = (pairs[:, 0] @ rho).reshape(b, n2, n2)
        rest = pairs[:, 1:]
        out = np.repeat(rest[:, None], q, axis=1)
        # the diagonal (i, i) of the q x q branch grid, as a strided view
        out.reshape(b, q * q, n2)[:, ::q + 1] = -(rest @ mat)
        b *= q
        pairs = out.reshape(b, q, n2)
    leaves = pairs.reshape(b, n2) @ w
    return leaves.reshape(size, math.factorial(m - 1)).sum(axis=-1)


def reduce_to_basis(provider, omega, vectors, current) -> tuple:
    """Replace each slot pair of a probe by a unit pair (a row of
    ``np.eye(N2)``) that keeps the value nonzero; returns the basis-index
    tuple, a < b within each pair.  ``current`` is the nonzero value that
    ``r_power_probe`` returned at ``vectors`` after its checks.  The probe
    is linear in each pair c = sum_{a<b} c_ab u_ab, so some unit pair u_ab
    reaches |current| / ||c||_1; candidates are tried in decreasing |c_ab|,
    and if rounding defeats all of them the best one tried is kept.
    """
    a, b = _pairs(provider.dim)
    w = pack_two_form(omega, provider.dim)
    units = np.eye(len(a))
    probe = _pack_pairs(np.asarray(vectors, dtype=float))
    args = []
    for slot, c in enumerate(probe.copy()):
        target = abs(current) / np.sum(np.abs(c))
        best_r, best = None, None
        for r in np.argsort(-np.abs(c), kind="stable"):
            probe[slot] = units[r]
            got = float(_pair_probe(provider, w, probe[None])[0])
            if best is None or abs(got) > abs(best):
                best_r, best = r, got
            if abs(got) >= target:
                break
        probe[slot] = units[best_r]
        args.extend((int(a[best_r]), int(b[best_r])))
        current = best
    return tuple(args)


def r_power_levels(provider, packed, k: int):
    """Yield R.T, R^2.T, ..., R^k.T of a tensor T with one Lambda^2 axis
    per pair slot, one level at a time, from one pair operator.

    A level maps T to -sum over pair axes s of rho(R(e_x, e_y)) applied on
    axis s, with the new pair (x, y) as the leading axis: one tensordot per
    existing axis.  ``pack_two_form(omega, n)`` gives R^0.omega.  The
    checks, ``check_packed_power`` among them, run at the first ``next``.
    """
    t = np.asarray(packed, dtype=float)
    n2 = check_packed_power(provider, provider.dim, t.ndim, k)
    if any(size != n2 for size in t.shape):
        raise ArityError(f"packed axes must have length {n2}, got shape {t.shape}")
    rho = _pair_operator(provider)
    for _ in range(k):
        out = np.zeros((n2,) + t.shape)
        for s in range(t.ndim):
            out -= np.moveaxis(np.tensordot(rho, t, axes=([2], [s])), 1, s + 1)
        t = out
        yield t


# -- covariant derivatives ---------------------------------------------


def nabla_powers(components, structure, k: int) -> list:
    """Dense [nabla^0 T, ..., nabla^k T] at the structure's base point.

    ``components`` is the (0,p) field T as an n x ... x n array of numbers
    and expressions over the coordinates of the structure's scenario.

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
    t = component_jets(components, structure.point, k,
                       structure.scenario.coords)
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
