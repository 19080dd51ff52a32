"""Truncated multivariate Taylor jets: forward-mode higher-order derivatives.

A jet stores the value and all Taylor-normalized partial derivatives of a
scalar at a point, up to a fixed total degree: the coefficient attached to
multi-index m is (d^m f)(x) / m!.  Jets, and jet-valued tensors, are plain
float arrays with the coefficient axis first; ``JetSpace.einsum``
multiplies and contracts them over one cached table of coefficient pairs
by target (a contraction, each index at most once per operand, is one
batched matmul over all pairs, each target coefficient summing its pairs
in place on the matmul output, rank by rank, in ``np.add.reduceat``'s
order wherever a target has at most 8 pairs, as at every order up to 3)
and ``JetSpace.gradient`` differentiates them, whole, along every
coordinate in one gather.

``eval_jets`` evaluates expressions straight into such arrays, each
distinct subtree once, all at the pass's order, and cuts each result to
the order it keeps: a jet is the prefix of its higher orders, bit for
bit.  Sums are array sums, products and quotients the jet product, and
reciprocals, non-integer powers and the elementary functions one Horner
series over that product (Griewank & Walther, *Evaluating Derivatives*,
2nd ed., ch. 13), or, when the argument is a coordinate plus a constant,
its coefficients placed on that coordinate's powers with no product.
Arithmetic is exact for polynomials up to the truncation order.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from . import expr as ex

#: Build-time cap on the jet order; order k covariant derivatives need
#: immersion jets of order k+2, so 5 covers everything up to nabla^3.
MAX_JET_ORDER = 5


class JetError(ValueError):
    pass


class JetDomainError(JetError):
    """Function argument outside its domain (ln/sqrt/tan/division)."""


class JetOrderError(JetError):
    """Requested order exceeds the configured maximum."""


@lru_cache(maxsize=None)
def jet_space(dim: int, order: int) -> "JetSpace":
    return JetSpace(dim, order)


def _degree_indices(total, parts):
    """Weak compositions of ``total`` into ``parts`` slots, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _degree_indices(total - first, parts - 1):
            yield (first,) + rest


class JetSpace:
    """Index bookkeeping shared by all jets of a given (dim, order).

    Multi-indices are kept in graded order (by total degree, then lex), so
    truncation to a lower order is a prefix slice.
    """

    def __init__(self, dim, order):
        self.dim = dim
        self.order = order
        indices = []
        for deg in range(order + 1):
            indices.extend(_degree_indices(deg, dim))
        self.multi_indices = indices
        self.size = len(indices)
        self.index_of = {m: i for i, m in enumerate(indices)}
        self.degrees = np.array([sum(m) for m in indices])
        # prefix length of the coefficient table for each truncation order
        self.prefix = [int(np.sum(self.degrees <= q)) for q in range(order + 1)]

    @cached_property
    def _by_target(self):
        """``(ii, jj, tt, starts)``: the coefficient pairs (i, j) of a
        product, deg i + deg j <= order, and their targets t, sorted by t
        and each target's pairs by i; ``starts[t]`` is target t's first
        row (every t receives the pair (t, 0), so no segment is empty)."""
        # multi-index sums have component sums <= order, so encoding in
        # base order+1 makes index keys additive with no carries
        keys = np.array(self.multi_indices, dtype=np.int64) @ (
            (self.order + 1) ** np.arange(self.dim, dtype=np.int64))
        by_key = np.argsort(keys)
        ii, jj = np.nonzero(self.degrees[:, None] + self.degrees <= self.order)
        tt = by_key[np.searchsorted(keys[by_key], keys[ii] + keys[jj])]
        # the pairs came by i, so a stable sort keeps each target's by i
        by_target = np.argsort(tt, kind="stable")
        ii, jj, tt = ii[by_target], jj[by_target], tt[by_target]
        return ii, jj, tt, np.searchsorted(tt, np.arange(self.size))

    def horner_step(self, acc, tilde, c):
        """c + acc * tilde, for a coefficient array ``tilde`` of this space
        whose constant term is zero, summing only the pairs whose ``tilde``
        coefficient is not zero, in ``einsum``'s order for the
        coefficient-wise product; a target with no such pair is +0.0, and
        the constant term is c itself.  So coefficient d reads only the
        coefficients of acc below d and is the same at every order >= d,
        and for tilde = x_i the step moves each coefficient of acc up by
        x_i exactly."""
        ii, jj, tt, _ = self._by_target
        hit = tilde[jj] != 0.0
        ii, jj, tt = ii[hit], jj[hit], tt[hit]
        out = np.zeros(self.size)
        if len(tt):
            starts = np.flatnonzero(np.diff(tt, prepend=-1))
            out[tt[starts]] = np.add.reduceat(acc[ii] * tilde[jj], starts)
        out[0] = c
        return out

    @cached_property
    def _rank_plan(self):
        """The coefficient pairs ordered by their rank in their target's
        segment, then by target, longest segment first: rank r is rows
        ``lo:hi`` of ``blocks[r - 1]`` (rank 0 the first ``size`` rows), and
        ``back`` takes the rank-0 rows back to target order."""
        ii, jj, _, starts = self._by_target
        lengths = np.diff(starts, append=len(ii))
        by_length = np.argsort(-lengths, kind="stable")
        counts = [int(np.sum(lengths > r)) for r in range(lengths.max())]
        pairs = np.concatenate([starts[by_length[:n]] + r for r, n in enumerate(counts)])
        ends = np.cumsum(counts).tolist()
        back = np.argsort(by_length, kind="stable")
        return ii[pairs], jj[pairs], list(zip(ends[:-1], ends[1:])), back

    def einsum(self, subscripts, a, b):
        """Jet product of two coefficient arrays, contracted like ``np.einsum``.

        ``a`` and ``b`` hold the coefficient axis first, of this space or of
        a higher order in the same dimension (graded order makes truncation
        a prefix).  ``subscripts`` names the other axes, each index at most
        once per operand and every index of one operand only in the output;
        ``...,...->...`` is the coefficient-wise product.  A contraction is
        one batched matmul, (shared, free, contracted) of the gathered pairs
        of a by (shared, contracted, free) of b.  The result carries this
        space's coefficient axis first.

        A contraction takes the pairs rank by rank (``_rank_plan``), so
        each target coefficient sums its pairs a0, ..., a_{L-1} as
        a0 + (a1 + ... + a_{L-1}), the inner sum left to right, in
        whole-block in-place adds on the contiguous matmul output, then one
        gather back to target order.  For L <= 8, which holds at every order
        up to 3, that is ``np.add.reduceat``'s association bit for bit; the
        coefficient-wise product sums with ``reduceat`` itself.
        """
        if subscripts == _PRODUCT:
            ii, jj, _, starts = self._by_target
            return np.add.reduceat(a[ii] * b[jj], starts, axis=0)
        perm_a, perm_b, perm_out, lead, mid = _contraction_plan(subscripts)
        ii, jj, blocks, back = self._rank_plan
        # gathering from the transposed views leaves x and y contiguous
        x, y = a.transpose(perm_a)[ii], b.transpose(perm_b)[jj]
        k = math.prod(x.shape[mid:])
        terms = x.reshape(x.shape[:lead] + (-1, k)) @ y.reshape(y.shape[:lead] + (k, -1))
        terms = terms.reshape(x.shape[:mid] + y.shape[lead + x.ndim - mid:])
        if blocks:
            (lo, hi), *rest = blocks
            # the rank-1 rows take a1 + ... + a_{L-1} left to right, then a0 adds it
            tail = terms[lo:hi]
            for r_lo, r_hi in rest:
                tail[: r_hi - r_lo] += terms[r_lo:r_hi]
            terms[: hi - lo] += tail
        # the coefficient axis is the first of the output and of the product
        return terms.transpose(perm_out)[back]

    def gradient(self, c):
        """Every first partial of a coefficient array (coefficient axis
        first, this order or higher) in one gather: the derivative along
        coordinate l, one order lower, at index l of a new axis 1.  The
        result is C-contiguous."""
        src, scale = self.gradient_map
        return scale.reshape(scale.shape + (1,) * (c.ndim - 1)) * c[src]

    @cached_property
    def coordinate_powers(self):
        """Row r: the indices of x_i^0, ..., x_i^order, x_i the coordinate
        of the degree-1 coefficient r + 1."""
        return np.array([[self.index_of[tuple(j * v for v in m)] for j in range(self.order + 1)]
                         for m in self.multi_indices[1: self.dim + 1]], dtype=int)

    @cached_property
    def gradient_map(self):
        """(src, scale), each of shape (size one order lower, dim):
        coefficient k of the derivative along coordinate l is
        ``scale[k, l] * c[src[k, l]]``."""
        if self.order == 0:
            raise JetOrderError("cannot differentiate an order-0 jet")
        lower = jet_space(self.dim, self.order - 1).multi_indices
        src = [[self.index_of[m[:l] + (m[l] + 1,) + m[l + 1:]] for l in range(self.dim)]
               for m in lower]
        scale = [[m[l] + 1 for l in range(self.dim)] for m in lower]
        return np.array(src, dtype=int), np.array(scale, dtype=float)


#: subscripts of the coefficient-wise jet product, for ``JetSpace.einsum``
_PRODUCT = "...,...->..."


@lru_cache(maxsize=None)
def _contraction_plan(subscripts):
    """The matmul layout of a ``JetSpace.einsum`` contraction: the axis
    permutations of a, b and the product back to the output (z first), and
    the ends of the leading (z and shared) axes and of a's free axes."""
    operands, out = subscripts.split("->")
    left, right, out = ("z" + s for s in (*operands.split(","), out))
    shared, free_a, free_b = ([c for c in out if (c in left, c in right) == key]
                              for key in ((True, True), (True, False), (False, True)))
    summed = [c for c in left if c in right and c not in out]
    product = "".join(shared + free_a + free_b)
    return (tuple(left.index(c) for c in shared + free_a + summed),
            tuple(right.index(c) for c in shared + summed + free_b),
            tuple(product.index(c) for c in out), len(shared), len(shared + free_a))


def _constant(space, value):
    c = np.zeros(space.size)
    c[0] = value
    return c


def _series(space, u, coeffs):
    """sum_j coeffs[j] * (u - u0)^j by Horner over the jet product, u0 being
    the constant term of ``u``: a univariate Taylor series composed with u.

    When u - u0 is exactly the monomial x_i (u a coordinate plus a
    constant), the coefficients go straight onto x_i^0, ..., x_i^order with
    no product: the same bits Horner's steps give, as each moves acc up by
    x_i exactly.  Each Horner step is ``JetSpace.horner_step``, which sums
    only the pairs with a coefficient of u - u0 that is not zero, so
    coefficient d of the result is computed alike at every order >= d:
    a jet is the prefix of its higher orders, bit for bit, whichever way
    the series takes at each order.  Horner sums only the coefficients
    before the first that is not finite, and either way every degree from
    that index on is NaN."""
    tilde = u.copy()
    tilde[0] = 0.0
    hits = np.flatnonzero(tilde)
    top = next((j for j, c in enumerate(coeffs) if not math.isfinite(c)), len(coeffs))
    if len(hits) == 1 and hits[0] <= space.dim and tilde[hits[0]] == 1.0:
        acc = np.zeros(space.size)
        acc[space.coordinate_powers[hits[0] - 1]] = coeffs
    else:
        acc = _constant(space, coeffs[top - 1] if top else math.nan)
        for c in reversed(coeffs[: max(top - 1, 0)]):
            acc = space.horner_step(acc, tilde, c)
    if top < len(coeffs):
        acc[space.degrees >= top] = math.nan
    return acc


def _libm(fn, x):
    """``fn(x)``, or NaN where ``math`` raises instead (sin or cos of an
    infinite argument, exp beyond the double range)."""
    try:
        return fn(x)
    except (OverflowError, ValueError):
        return math.nan


# Series coefficients are computed from u0 as a numpy scalar, so that an
# overflow or underflow yields inf or NaN (reported by eval_jets' finite
# check) rather than a Python arithmetic error.


def _reciprocal(space, u):
    u0 = u[0]
    if u0 == 0.0:
        raise JetDomainError("division by a jet with zero constant term")
    return _series(space, u, [(-1.0) ** j / u0 ** (j + 1)
                              for j in range(space.order + 1)])


def _power(space, u, exponent):
    e = float(exponent)
    if e.is_integer():
        # left-to-right binary powering: one squaring per bit of |e|, not
        # |e| products; 1 * u equals u, so |e| <= 3 gives the products of
        # repeated multiplication
        base = u if e >= 0 else _reciprocal(space, u)
        out = _constant(space, 1.0)
        for bit in bin(int(abs(e)))[2:]:
            out = space.einsum(_PRODUCT, out, out)
            if bit == "1":
                out = space.einsum(_PRODUCT, out, base)
        return out
    u0 = u[0]
    if u0 <= 0.0:
        raise JetDomainError("non-integer power of a non-positive base")
    coeffs, binom = [], 1.0
    for j in range(space.order + 1):
        coeffs.append(binom * u0 ** (e - j))
        binom *= (e - j) / (j + 1)
    return _series(space, u, coeffs)


def _call(space, func, u):
    """One of the elementary functions of ``expr.FUNCTIONS`` applied to ``u``."""
    u0, k = u[0], space.order
    if func == "tan":
        if abs(_libm(math.cos, u0)) < 1e-12:
            raise JetDomainError("tan at an odd multiple of pi/2")
        return space.einsum(_PRODUCT, _call(space, "sin", u),
                            _reciprocal(space, _call(space, "cos", u)))
    if func in ("ln", "sqrt") and u0 <= 0.0:
        raise JetDomainError(f"{func} of a non-positive value")
    if func == "sqrt":
        return _power(space, u, 0.5)
    if func == "exp":
        e0 = _libm(math.exp, u0)
        coeffs = [e0 / math.factorial(j) for j in range(k + 1)]
    elif func == "ln":
        coeffs = [math.log(u0)]
        coeffs += [(-1.0) ** (j - 1) / (j * u0 ** j) for j in range(1, k + 1)]
    else:
        s, c = _libm(math.sin, u0), _libm(math.cos, u0)
        cycle = (s, c, -s, -c) if func == "sin" else (c, -s, -c, s)
        coeffs = [cycle[j % 4] / math.factorial(j) for j in range(k + 1)]
    return _series(space, u, coeffs)


def _fields(e):
    """Key fields and children of an expression node, told apart by exact
    type, the most frequent first."""
    t = type(e)
    if t is ex.Bin:
        return (t, e.op), (e.lhs, e.rhs)
    if t is ex.Num:
        # 0.0 and -0.0 compare equal but are different constants
        return (t, e.value, math.copysign(1.0, e.value)), ()
    if t is ex.Var:
        return (t, e.name), ()
    if t is ex.Call:
        return (t, e.func), (e.arg,)
    if t is ex.Neg:
        return (t,), (e.operand,)
    if t is ex.Pow:
        return (t, e.exponent), (e.base,)
    raise TypeError(f"not an expression node: {e!r}")


def _tape(exprs):
    """The distinct subtrees of ``exprs`` in evaluation order.

    Returns ``(tape, roots)``: ``tape[i]`` is ``(node, child ids)``, every
    child before its parent and siblings left to right, as a recursive
    evaluation meets them; ``roots[k]`` is the id of ``exprs[k]``.  A
    subtree is keyed by its node's own fields and its children's integer
    ids, so a key costs O(1), where the hash and equality of the dataclass
    nodes walk the whole subtree.
    """
    ids, tape, roots = {}, [], []
    done = {}  # id() of a node object already keyed -> its tape id
    for root in exprs:
        stack = [root]
        while stack:
            e = stack.pop()
            if type(e) is tuple:
                # (node, fields, children), its children keyed by now
                e, fields, kids = e
                kid_ids = tuple([done[id(k)] for k in kids])
            elif id(e) in done:
                continue
            else:
                fields, kids = _fields(e)
                if kids:
                    stack.append((e, fields, kids))
                    stack.extend(kids[::-1])
                    continue
                kid_ids = ()
            i = done[id(e)] = ids.setdefault(fields + kid_ids, len(tape))
            if i == len(tape):
                tape.append((e, kid_ids))
        roots.append(done[id(root)])
    return tape, roots


def _apply(e, args, space, env):
    """One tape node, given the coefficient arrays of its children."""
    t = type(e)
    if t is ex.Bin:
        a, b = args
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "/":
            b = _reciprocal(space, b)
        return space.einsum(_PRODUCT, a, b)
    if t is ex.Num:
        return _constant(space, e.value)
    if t is ex.Var:
        return env[e.name]
    if t is ex.Call:
        return _call(space, e.func, args[0])
    if t is ex.Neg:
        return -args[0]
    return _power(space, args[0], e.exponent)


def eval_jets(exprs, point, order: int, coords, keep=None, labels=None) -> list:
    """Coefficient arrays of the expressions ``exprs`` at ``point``.

    ``coords`` names the coordinates in the order matching ``point``.
    Result k holds the coefficients of ``exprs[k]`` to order ``keep[k]``
    (default ``order``, and at most ``order``), shape
    ``(jet_space(len(coords), keep[k]).size,)``; its order-0 coefficient
    is the value.  Every distinct subtree is evaluated once, to ``order``;
    graded order makes a lower order the prefix of a higher one, and a
    jet's lower coefficients are the same bits at every order, so result
    k is the first coefficients of its root's jet.

    Raises JetDomainError for an argument outside a function's domain, and
    if a kept coefficient is not finite (an integer power that overflows,
    say), for the first expression at fault in list order.  The message
    names that expression's label (``labels[k]``, default ``expression k``),
    the point and, for a coefficient that is not finite, the head of the
    first node to fail (``_first_not_finite``), not the whole expression.
    """
    if order < 0:
        raise JetOrderError("order must be >= 0")
    if order > MAX_JET_ORDER:
        raise JetOrderError(f"order {order} exceeds the maximum {MAX_JET_ORDER}")
    keep = [order] * len(exprs) if keep is None else list(keep)
    if labels is None:
        labels = [f"expression {k}" for k in range(len(exprs))]
    if len(keep) != len(exprs) or len(labels) != len(exprs):
        raise JetError("need one kept order and one label per expression")
    if not all(0 <= q <= order for q in keep):
        raise JetOrderError(f"kept orders must lie in 0..{order}")
    point = tuple(float(v) for v in point)
    if len(point) != len(coords):
        raise JetError("point dimension does not match coordinate count")
    space = jet_space(len(coords), order)
    env = {name: _constant(space, v) for name, v in zip(coords, point)}
    if order >= 1:
        # src[0, l]: the index of coordinate l's degree-1 coefficient
        for name, unit in zip(coords, space.gradient_map[0][0]):
            env[name][unit] = 1.0
    tape, roots = _tape(exprs)
    values, out = [], []
    # an overflow or invalid operation is reported once, as the error below
    with np.errstate(all="ignore"):
        for root, q, label in zip(roots, keep, labels):
            # the subtrees that this expression is the first to hold
            try:
                for node, kids in tape[len(values): root + 1]:
                    values.append(_apply(node, [values[k] for k in kids], space, env))
            except JetDomainError as err:
                raise JetDomainError(f"{label}: {err} at {point}") from None
            jet = values[root][: space.prefix[q]].copy()
            if not np.all(np.isfinite(jet)):
                head = _head(_first_not_finite(tape, values, root, jet.size))
                raise JetDomainError(f"{label}: {head} is not finite at {point}")
            out.append(jet)
    return out


def _first_not_finite(tape, values, root, size):
    """The first node under ``root``, children before parents and left to
    right as a recursive evaluation meets them, whose first ``size``
    coefficients are not all finite; ``root`` itself must be such a node."""
    stack, seen = [(root, False)], set()
    while stack:
        i, done = stack.pop()
        if done:
            if not np.all(np.isfinite(values[i][:size])):
                return tape[i][0]
        elif i not in seen:
            seen.add(i)
            stack.append((i, True))
            stack.extend((k, False) for k in reversed(tape[i][1]))


def _head(e) -> str:
    """The top of an expression node as the source writes it: ``^3000``,
    ``exp``, an operator, a name or a number."""
    if isinstance(e, ex.Pow):
        return f"^{e.exponent:g}"
    if isinstance(e, ex.Num):
        return f"{e.value:g}"
    if isinstance(e, ex.Neg):
        return "-"
    if isinstance(e, ex.Bin):
        return e.op
    return e.func if isinstance(e, ex.Call) else e.name


def component_jets(components, point, order: int, coords) -> np.ndarray:
    """Jets at ``point`` of an array whose entries are numbers or
    expressions, as one coefficient array ``(ncoeff,) + shape``: a number
    stays a constant, the expressions go through one ``eval_jets``.  Every
    caller passes a 2-form field, so an entry's label is ``omega[i][j]``."""
    components = np.asarray(components, dtype=object)
    out = np.zeros((jet_space(len(point), order).size,) + components.shape)
    exprs, where, labels = [], [], []
    for idx, c in np.ndenumerate(components):
        if isinstance(c, (int, float)):
            out[(0,) + idx] = c
        else:
            exprs.append(c)
            where.append((slice(None),) + idx)
            labels.append("omega" + "".join(f"[{i}]" for i in idx))
    for idx, jet in zip(where, eval_jets(exprs, point, order, coords, labels=labels)):
        out[idx] = jet
    return out
