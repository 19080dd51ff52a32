"""Iterated curvature action and covariant derivatives of (0,p) tensors.

Two operator families over a ``CurvatureProvider`` (algebraic Gauss
model or geometric induced structure):

* the iterated action, defined by the recursion
  (R.T)(X1,...,X_{q+2}) = -sum_{i>=3} T(X3,...,R(X1,X2)X_i,...,X_{q+2}),
  with R^k.T = R.(R^{k-1}.T) and R^0.T = T;
* covariant derivatives, (nabla T)(X1,...) = X1(T(X2,...)) minus the
  connection contractions, iterated as nabla^{k+1} T = nabla(nabla^k T),
  computed on the field's jet coefficient array so no finite differencing
  is needed.

Single components of R^k.T, at basis indices, use the recursion verbatim
(``r_power_action``): a node reads the basis images R(e_x, e_y) e_z of
its slots from the provider's image row of (x, y), and its terms from
the tensor (level 0) or from one memo per level, keyed by basis-index
tuples, in the recursion's own order of operations.  For a 2-form
omega, R^k.omega is antisymmetric in every slot pair and in its last two
slots, so the two other forms of it work on Lambda^2, in one set of
packed coordinates: pairs a < b in ``np.triu_indices`` order,
N2 = n(n-1)/2 of them.  A slot pair (X, Y) is c_ab = X_a Y_b - X_b Y_a,
so omega(X, Y) = <w, c> for w = ``pack_two_form(omega, n)``, and
R(e_x, e_y) acts on Lambda^2 as the N2 x N2 matrix rho_P, P = (x, y)
(``pair_operator``).  R^k.omega is held whole, N2^(k+1) entries, one
level per power (``r_power_levels``, a ladder its caller steps once), or
evaluated at vector arguments, one probe of 2k+2 vectors, k >= 1, in k!
branches: a checked packing step (``pack_probe``) gives K = rho w and
the packed pairs, and the kernel (``pair_probe``) ends in one bilinear
form per probe, -<Z, K> with Z the sum of the branches' last two pairs
c1 c2^T.  ``reduce_to_basis`` tries the unit pairs of basis components
in the kernel, CANDIDATE_BATCH per call.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .canonical import symmetric
from .geometry import gauss_curvature_tensor
from .jets import jet_space
from .model import GaussModel

#: recursion caps; all catalog oracles need small powers only
K_CAP_ALGEBRAIC = 8
K_CAP_GEOMETRIC = 3

#: entry cap for packed R^k.omega and for the arrays of a vector probe
TENSOR_ENTRY_CAP = 40_000_000

#: candidates of a slot that ``reduce_to_basis`` evaluates in one kernel call
CANDIDATE_BATCH = 3


class ArityError(ValueError):
    pass


class RecursionCapError(ValueError):
    pass


class CurvatureProvider:
    """The basis-image rows and pair operator of every curvature provider,
    which supplies ``dim``, ``cap`` (its power cap) and the array
    R[l, t, i, j] as ``R``, and may override ``_image`` with a faster rule.

    The images R(e_i, e_j) e_t are memoized in one row per (i, j), a list
    over t whose entries are None until first read (``basis_image``), so
    that ``r_power_action`` fetches a node's row once and indexes it per
    slot.
    """

    def __init__(self, dim):
        self.dim = dim
        self._rows = {}

    def image_row(self, i, j) -> list:
        """The row [R(e_i, e_j) e_t for t < dim] of the memo, an entry None
        while not yet computed."""
        row = self._rows.get((i, j))
        if row is None:
            row = self._rows[i, j] = [None] * self.dim
        return row

    def basis_image(self, i, j, t):
        """Nonzeros of R(e_i, e_j) e_t as ((index, coeff), ...), computed
        on first use into its image row."""
        row = self.image_row(i, j)
        out = row[t]
        if out is None:
            out = row[t] = self._image(i, j, t)
        return out

    def _image(self, i, j, t):
        """The nonzeros of the column R[:, t, i, j], scanned as one list:
        the same pairs as np.nonzero and float() per entry give, -0.0
        skipped like 0.0."""
        return tuple((m, v) for m, v in enumerate(self.R[:, t, i, j].tolist()) if v != 0.0)

    @cached_property
    def pair_operator(self) -> np.ndarray:
        """rho[P, A, B]: the derivation R(e_x, e_y) on 2-forms, P = (x, y),
        built once per provider and read-only.

        (rho_P w)(e_a, e_b) = w(M e_a, e_b) + w(e_a, M e_b), M = R(e_x, e_y),
        expanded over the packed coefficients w_B.  Only the nonzeros are
        written, from the dimension's index tables (``_pair_tables``): row
        A = (a, b) holds sign(m < b) M[m, a] at B = {m, b} and
        sign(a < m) M[m, b] at B = {a, m}, the two sets meeting at B = A only.
        """
        a, b = _pairs(self.dim)
        r = self.R[:, :, a, b]    # r[m, t, P] = M[m, t]
        rho = np.zeros((len(a),) * 3)
        (row, col, m, t, sign), second = _pair_tables(self.dim)
        rho[:, row, col] = (sign * r[m, t]).T
        row, col, m, t, sign = second
        rho[:, row, col] += (sign * r[m, t]).T
        rho.flags.writeable = False
        return rho


class AlgebraicCurvature(CurvatureProvider):
    """Curvature of a Gauss model: R(X,Y)Z = h(Y,Z) SX - h(X,Z) SY."""

    cap = K_CAP_ALGEBRAIC

    def __init__(self, m: GaussModel):
        super().__init__(m.dim)
        self.model = m

    @cached_property
    def _lists(self):
        """The columns of S and the rows of H as lists."""
        return self.model.S.T.tolist(), self.model.H.tolist()

    def _image(self, i, j, t):
        """Computed in plain Python from the columns of S and the rows of H,
        converted to lists once per provider: the same products and
        subtraction, h[j, t] * S[:, i] - h[i, t] * S[:, j], as the numpy
        expression.  When h[j, t] and h[i, t] are both zero the image is
        () at once; a sip H has one nonzero per row, so most images are.
        """
        s_cols, h_rows = self._lists
        hj, hi = h_rows[j][t], h_rows[i][t]
        if hj == 0.0 and hi == 0.0:
            return ()
        vec = [hj * a - hi * b for a, b in zip(s_cols[i], s_cols[j])]
        return tuple((m, v) for m, v in enumerate(vec) if v != 0.0)

    @cached_property
    def R(self) -> np.ndarray:
        """The whole tensor, built on first read (by ``pair_operator``), so
        a provider whose images alone are read never builds it."""
        return gauss_curvature_tensor(self.model.S, self.model.H)


class GeometricCurvature(CurvatureProvider):
    """Curvature provider backed by a pointwise R^l_{tij} array."""

    cap = K_CAP_GEOMETRIC

    def __init__(self, r):
        self.R = np.asarray(r, dtype=float)
        super().__init__(self.R.shape[0])


def _check_power(cap: int, k: int):
    """The one R^k power gate: ArityError unless k >= 0, RecursionCapError if k > cap."""
    if k < 0:
        raise ArityError("k must be >= 0")
    if k > cap:
        raise RecursionCapError(f"power {k} is beyond the curvature power cap {cap}")


def check_packed_power(cap: int, n: int, axes: int, k: int) -> int:
    """Gate R^k of a tensor with ``axes`` packed Lambda^2 axes on R^n: the
    power against ``cap`` first, so a huge k is never exponentiated, then
    the N2^(axes+k) entries against TENSOR_ENTRY_CAP.  Returns
    N2 = n(n-1)/2."""
    _check_power(cap, k)
    n2 = n * (n - 1) // 2
    entries = n2 ** (axes + k)
    if entries > TENSOR_ENTRY_CAP:
        raise RecursionCapError(f"packed R^{k} tensor would hold {entries} entries, "
                                f"beyond the cap {TENSOR_ENTRY_CAP}")
    return n2


def r_power_action(provider, tensor, k: int, args) -> float:
    """Evaluate (R^k . T)(args) by the defining recursion.

    ``tensor`` is a dense (0,p) component array and ``args`` are 2k+p basis
    indices, ints in 0..dim-1 (vectors go to ``pack_probe``); at k = 0 the
    value is the stored entry.  A node (x, y, rest) at level k fetches the
    image row of (x, y) from the provider once, skips a slot whose image
    is empty (subtracting its 0.0 term is a no-op) and reads each term
    below it inline: a level-0 term straight from the tensor, a memoized
    one from the dict of its level (one per level, keyed by the
    basis-index tuple).  A node starts at +0.0 and only subtracts, so it
    never returns -0.0.
    """
    t = np.asarray(tensor, dtype=float)
    p = t.ndim
    _check_power(provider.cap, k)
    if len(args) != 2 * k + p:
        raise ArityError(f"expected {2 * k + p} arguments, got {len(args)}")
    for pos, arg in enumerate(args):
        if isinstance(arg, bool) or not isinstance(arg, (int, np.integer)) \
                or not 0 <= arg < provider.dim:
            raise ArityError(f"argument {pos} ({type(arg).__name__}) is not a basis index "
                             f"in 0..{provider.dim - 1}")
    idxs, leaf = tuple(map(int, args)), t.item
    if k == 0:
        return leaf(idxs)
    rows, image_row, basis_image = provider._rows, provider.image_row, provider.basis_image
    memos = [None] + [{} for _ in range(k)]

    def eval_idx(k, idxs):
        # (R^k.T)(idxs) for k >= 1, not in its memo yet
        x, y = idxs[0], idxs[1]
        rest = idxs[2:]
        row = rows.get((x, y)) or image_row(x, y)
        below = memos[k - 1]
        total = 0.0
        for slot, z in enumerate(rest):
            image = row[z]
            if image is None:
                image = basis_image(x, y, z)
            if image:
                head, tail = rest[:slot], rest[slot + 1:]
                acc = 0.0
                if below is None:
                    for m, coeff in image:
                        acc += coeff * leaf(head + (m,) + tail)
                else:
                    for m, coeff in image:
                        key = head + (m,) + tail
                        got = below.get(key)
                        if got is None:
                            got = eval_idx(k - 1, key)
                        acc += coeff * got
                total -= acc
        memos[k][idxs] = total
        return total

    try:
        return eval_idx(k, idxs)
    finally:
        # the closure calls itself through its cell: clearing it frees the
        # provider it holds now, not at a later cyclic collection
        eval_idx = None


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple:
    """``np.triu_indices(n, 1)``, the pairs a < b that index Lambda^2 on
    R^n, built once per dimension and read-only."""
    a, b = np.triu_indices(n, 1)
    a.flags.writeable = b.flags.writeable = False
    return a, b


@lru_cache(maxsize=None)
def _pair_index(n: int) -> np.ndarray:
    """pair[a, b] = pair[b, a], the packed index of {a, b} on R^n, and 0
    on the diagonal, built once per dimension and read-only."""
    a, b = _pairs(n)
    pair = np.zeros((n, n), dtype=int)
    pair[a, b] = pair[b, a] = np.arange(len(a))
    pair.flags.writeable = False
    return pair


@lru_cache(maxsize=None)
def _pair_tables(n: int) -> tuple:
    """The part of ``pair_operator`` that depends only on the dimension:
    for each of its two nonzero sets, the rows A, the columns B, the entry
    (m, t) of M that goes there and its sign, as (row, col, m, t, sign)
    with sign a column, built once per dimension."""
    a, b = _pairs(n)
    pair = _pair_index(n)
    row, m = np.nonzero(np.arange(n) != b[:, None])
    first = (row, pair[m, b[row]], m, a[row], np.where(m < b[row], 1.0, -1.0)[:, None])
    row, m = np.nonzero(np.arange(n) != a[:, None])
    second = (row, pair[a[row], m], m, b[row], np.where(a[row] < m, 1.0, -1.0)[:, None])
    for arr in (*first, *second):
        arr.flags.writeable = False
    return first, second


def pack_two_form(omega, n: int) -> np.ndarray:
    """The coefficients omega[a, b], a < b, of a 2-form on R^n.

    Raises ArityError unless omega is an n x n array that
    ``canonical.symmetric(omega, -1)`` accepts, as scenarios and oracle
    params are: the packed form reads only the upper triangle.
    """
    w = np.asarray(omega, dtype=float)
    if w.shape != (n, n):
        raise ArityError(f"expected a 2-form of shape ({n}, {n}), got {w.shape}")
    if not symmetric(w, -1):
        raise ArityError("tensor is not an antisymmetric 2-form")
    return w[_pairs(n)]


def _pack_pairs(vectors) -> np.ndarray:
    """The packed 2-vector c_ab = X_a Y_b - X_b Y_a, a < b, of each slot
    pair (X, Y): vectors of shape (..., 2j, n) give j pairs (..., j, N2)."""
    a, b = _pairs(vectors.shape[-1])
    x, y = vectors[..., 0::2, :], vectors[..., 1::2, :]
    return x[..., a] * y[..., b] - x[..., b] * y[..., a]


def pack_probe(provider, omega, k: int, vectors) -> tuple:
    """The checked packing step of one probe of R^k.omega, k >= 1, at
    ``vectors`` of shape (2k+2, n): returns K = rho w (K[P, A] =
    sum_B rho[P, A, B] w_B, flattened, w = ``pack_two_form(omega, n)``)
    and the packed slot pairs, shape (k+1, N2), the kernel's inputs.

    Raises ArityError unless k >= 1, omega is an n x n 2-form and the
    vectors have that shape, and RecursionCapError if k is beyond the
    provider's cap or a kernel level of a batch of CANDIDATE_BATCH probes
    would hold more than TENSOR_ENTRY_CAP entries.
    """
    v = np.asarray(vectors, dtype=float)
    n = provider.dim
    if k < 1:
        raise ArityError("a probe needs k >= 1")
    _check_power(provider.cap, k)
    w = pack_two_form(omega, n)
    if v.shape != (2 * k + 2, n):
        raise ArityError(f"expected vectors of shape ({2 * k + 2}, {n}), got {v.shape}")
    n2 = len(w)
    # a level with q pairs after its first forms one N2 x N2 matrix and
    # q branches of q pairs for each branch that enters it.  The last level
    # (q = 1) forms one N2 x N2 sum per probe, not a matrix per branch, so
    # this count over-counts it: a batch is refused exactly where a last
    # level of one matrix per branch would be
    entries, branches = CANDIDATE_BATCH * (k + 1) * n2, CANDIDATE_BATCH
    for q in range(k, 0, -1):
        entries = max(entries, branches * n2 * max(n2, q * q))
        branches *= q
    if entries > TENSOR_ENTRY_CAP:
        raise RecursionCapError(f"R^{k} probe batch of {CANDIDATE_BATCH} would hold "
                                f"{entries} entries")
    return provider.pair_operator.reshape(n2 * n2, n2) @ w, _pack_pairs(v)


def pair_probe(provider, k_mat, pairs) -> np.ndarray:
    """The kernel of a probe, without its checks: packed pairs of shape
    (b, k+1, N2), k >= 1, and the K of ``pack_probe`` give the b values of
    R^k.omega.  A level with more than two pairs forms M = sum_P c1_P rho_P
    for the first pair c1 of every branch at once, then branches once per
    remaining pair c, which becomes -M^T c: the derivation R(X_1, Y_1)
    applied to both of its slots.  The last level, pairs (c1, c2), is
    bilinear: its leaf <w, -M^T c2> is -c1^T K c2, so each probe sums
    Z = c1 c2^T over its k! branches and its value is -<Z, K>.
    """
    size, m, n2 = pairs.shape
    flat = provider.pair_operator.reshape(n2, n2 * n2)
    b = size
    for q in range(m - 1, 1, -1):
        mat = (pairs[:, 0] @ flat).reshape(b, n2, n2)
        rest = pairs[:, 1:]
        out = rest[:, None].repeat(q, axis=1)
        # the diagonal (i, i) of the q x q branch grid, as a strided view
        out.reshape(b, q * q, n2)[:, ::q + 1] = -(rest @ mat)
        b *= q
        pairs = out.reshape(b, q, n2)
    last = pairs.reshape(size, math.factorial(m - 1), 2, n2)
    z = last[:, :, 0].transpose(0, 2, 1) @ last[:, :, 1]
    return -(z.reshape(size, n2 * n2) @ k_mat)


def _candidate_values(provider, k_mat, probe, slot, units, order):
    """Yield (r, value of the probe with unit pair ``units[r]`` in
    ``slot``) for each r in ``order``, CANDIDATE_BATCH candidates per
    ``pair_probe`` call, so a caller that stops early evaluates at most
    one batch beyond need."""
    for start in range(0, len(order), CANDIDATE_BATCH):
        rs = order[start:start + CANDIDATE_BATCH]
        batch = probe[None].repeat(len(rs), axis=0)
        batch[:, slot] = units[rs]
        yield from zip(rs, pair_probe(provider, k_mat, batch).tolist())


def reduce_to_basis(provider, k_mat, pairs, current) -> tuple:
    """Replace each slot pair of a probe by a unit pair (a row of
    ``np.eye(N2)``) that keeps the value nonzero; returns the basis-index
    tuple, a < b within each pair.  ``k_mat`` and ``pairs`` are one probe
    as ``pack_probe`` returned them, and ``current`` is the nonzero value
    the kernel gave there.  The probe is linear in each pair
    c = sum_{a<b} c_ab u_ab, so some unit pair u_ab reaches
    |current| / ||c||_1; candidates are tried in decreasing |c_ab| (a
    stable order), CANDIDATE_BATCH per kernel call, and the first one that
    reaches the target is taken.  If rounding defeats all of them the first
    largest one is kept; values after the taken one are ignored.
    """
    a, b = _pairs(provider.dim)
    units = np.eye(len(a))
    probe = pairs.copy()
    args = []
    for slot, c in enumerate(pairs):
        mags = np.abs(c)
        target = abs(current) / mags.sum()
        best_r, best = None, None
        order = (-mags).argsort(kind="stable")
        for r, got in _candidate_values(provider, k_mat, probe, slot, units, order):
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
    n2 = check_packed_power(provider.cap, provider.dim, t.ndim, k)
    if any(size != n2 for size in t.shape):
        raise ArityError(f"packed axes must have length {n2}, got shape {t.shape}")
    for _ in range(k):
        # built on the first level only, so k = 0 builds no pair operator
        rho, out = provider.pair_operator, np.zeros((n2,) + t.shape)
        for s in range(t.ndim):
            out -= np.moveaxis(np.tensordot(rho, t, axes=([2], [s])), 1, s + 1)
        t = out
        yield t


# -- covariant derivatives ---------------------------------------------


def nabla_powers(t, structure, k: int) -> list:
    """Dense [nabla^0 T, ..., nabla^k T] at the structure's base point.

    ``t`` is the (0,p) field T as a jet coefficient array at that point,
    coefficient axis first (``jets.component_jets``), of jet order k or
    higher; a lower order raises ArityError.

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
    if len(t) < jet_space(n, k).size:
        raise ArityError(f"nabla^{k} needs field jets of order {k}, got {len(t)} coefficients")
    powers = [t[0]]
    for q in range(k - 1, -1, -1):
        space = jet_space(n, q)
        slots = "abcdefgh"[: t.ndim - 1]
        out = jet_space(n, q + 1).gradient(t)
        for s, r in enumerate(slots):
            out -= space.einsum(f"mi{r},{slots[:s]}m{slots[s + 1:]}->i{slots}",
                                structure.gamma, t)
        t = out
        powers.append(t[0])
    return powers


def alternating_sum_identity(packed_rk, nabla, k: int, x_pairs, y_idxs):
    """Both sides of the curvature-vs-derivative alternating identity for
    a 2-form omega, broadcast over trials: ``x_pairs`` of shape (..., k, 2)
    and ``y_idxs`` of shape (..., 2) give both sides of shape (...).
    ``packed_rk`` is packed R^k omega (a level of ``r_power_levels``, or
    ``pack_two_form(omega, n)`` at k = 0) and ``nabla`` the dense
    nabla^{2k} omega at the point; both sides are gathers.

    lhs = (R^k . omega)(X^1_1, X^1_{-1}, ..., Y...), an entry of
          ``packed_rk`` times the orientation sign of each slot pair, 0
          where x = y;
    rhs = sum over sign assignments a of sgn(a) *
          (nabla^{2k} omega)(X^1_{a(1)}, X^1_{-a(1)}, ..., Y...),
          one gather of ``nabla`` per assignment.
    Arrays of other shapes raise ArityError.
    """
    r, nabla, x, y = (np.asarray(v) for v in (packed_rk, nabla, x_pairs, y_idxs))
    n = nabla.shape[0] if nabla.ndim else 0
    want = ((n * (n - 1) // 2,) * (k + 1), (n,) * (2 * k + 2), y.shape[:-1] + (k, 2), (2,))
    if (r.shape, nabla.shape, x.shape, y.shape[-1:]) != want:
        raise ArityError(f"need packed R^{k} omega, its nabla^{2 * k}, pairs (..., {k}, 2) "
                         f"and ys (..., 2), got shapes {r.shape}, {nabla.shape}, "
                         f"{x.shape} and {y.shape}")
    slots = np.concatenate([x, y[..., None, :]], axis=-2)
    s, t = slots[..., 0], slots[..., 1]
    pair = _pair_index(n)    # s = t reads entry 0, times sign 0
    lhs = np.sign(t - s).prod(axis=-1) * r[tuple(np.moveaxis(pair[s, t], -1, 0))]

    rhs = 0.0
    for bits in range(2 ** k):
        flip = [(bits >> q) & 1 for q in range(k)] + [0]
        args = np.where(np.array(flip)[:, None], slots[..., ::-1], slots)
        args = np.moveaxis(args.reshape(slots.shape[:-2] + (-1,)), -1, 0)
        rhs = rhs + (-1.0) ** sum(flip) * nabla[tuple(args)]
    return lhs, rhs
