"""Truncated multivariate Taylor jets: forward-mode higher-order derivatives.

A jet stores the value and all Taylor-normalized partial derivatives of a
scalar at a point, up to a fixed total degree: the coefficient attached to
multi-index m is (d^m f)(x) / m!.  Jets, and jet-valued tensors, are plain
float arrays with the coefficient axis first; ``JetSpace.einsum``
multiplies and contracts them and ``JetSpace.partial`` differentiates
them, whole.

``eval_jets`` evaluates expressions straight into such arrays, each
distinct subtree once: sums are array sums, products and quotients the
jet product, and reciprocals, non-integer powers and the elementary
functions one Horner series over that product (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 13).  Arithmetic is exact for
polynomials up to the truncation order.
"""

from __future__ import annotations

import math
from functools import lru_cache

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
        self._mul_table = None
        self._product_plan = None
        self._partial_maps = None

    @property
    def mul_table(self):
        if self._mul_table is None:
            # multi-index sums have component sums <= order, so encoding in
            # base order+1 makes index keys additive with no carries
            m = np.array(self.multi_indices, dtype=np.int64)
            powers = (self.order + 1) ** np.arange(self.dim, dtype=np.int64)
            keys = m @ powers
            by_key = np.argsort(keys, kind="stable")
            sorted_keys = keys[by_key]
            ii, jj, tt = [], [], []
            for i in range(self.size):
                nj = self.prefix[self.order - int(self.degrees[i])]
                if nj == 0:
                    continue
                sums = keys[i] + keys[:nj]
                ii.append(np.full(nj, i, dtype=np.int64))
                jj.append(np.arange(nj, dtype=np.int64))
                tt.append(by_key[np.searchsorted(sorted_keys, sums)])
            self._mul_table = (np.concatenate(ii), np.concatenate(jj),
                               np.concatenate(tt))
        return self._mul_table

    def einsum(self, subscripts, a, b):
        """Jet product of two coefficient arrays, contracted like ``np.einsum``.

        ``a`` and ``b`` hold the coefficient axis first, of this space or of
        a higher order in the same dimension (graded order makes truncation
        a prefix).  ``subscripts`` names the other axes and must not use
        ``z``; the result carries this space's coefficient axis first.
        """
        if self._product_plan is None:
            # every target t receives the pair (t, 0), so no segment is empty
            ii, jj, tt = self.mul_table
            by_target = np.argsort(tt, kind="stable")
            starts = np.searchsorted(tt[by_target], np.arange(self.size))
            self._product_plan = (ii[by_target], jj[by_target], starts)
        ii, jj, starts = self._product_plan
        operands, out = subscripts.split("->")
        left, right = operands.split(",")
        terms = np.einsum(f"z{left},z{right}->z{out}", a[ii], b[jj])
        return np.add.reduceat(terms, starts, axis=0)

    def partial(self, c, axis):
        """Derivative along a coordinate of a coefficient array (coefficient
        axis first, this order or higher); the result is one order lower."""
        if self.order == 0:
            raise JetOrderError("cannot differentiate an order-0 jet")
        src, dst, scale = self.partial_maps[axis]
        out = np.zeros((jet_space(self.dim, self.order - 1).size,) + c.shape[1:])
        out[dst] = scale.reshape((-1,) + (1,) * (c.ndim - 1)) * c[src]
        return out

    @property
    def partial_maps(self):
        if self._partial_maps is None:
            maps = []
            lower = jet_space(self.dim, self.order - 1) if self.order > 0 else None
            for axis in range(self.dim):
                src, dst, scale = [], [], []
                if lower is not None:
                    for t, m in enumerate(lower.multi_indices):
                        up = tuple(v + (1 if a == axis else 0)
                                   for a, v in enumerate(m))
                        src.append(self.index_of[up])
                        dst.append(t)
                        scale.append(m[axis] + 1)
                maps.append((np.array(src, dtype=int), np.array(dst, dtype=int),
                             np.array(scale, dtype=float)))
            self._partial_maps = maps
        return self._partial_maps


#: subscripts of the coefficient-wise jet product, for ``JetSpace.einsum``
_PRODUCT = "...,...->..."


def _constant(space, value):
    c = np.zeros(space.size)
    c[0] = value
    return c


def _series(space, u, coeffs):
    """sum_j coeffs[j] * (u - u0)^j by Horner over the jet product, u0 being
    the constant term of ``u``: a univariate Taylor series composed with u."""
    tilde = u.copy()
    tilde[0] = 0.0
    acc = _constant(space, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = space.einsum(_PRODUCT, acc, tilde)
        acc[0] += c
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
    """Key fields and children of an expression node."""
    if isinstance(e, ex.Bin):
        return (ex.Bin, e.op), (e.lhs, e.rhs)
    if isinstance(e, ex.Neg):
        return (ex.Neg,), (e.operand,)
    if isinstance(e, ex.Pow):
        return (ex.Pow, e.exponent), (e.base,)
    if isinstance(e, ex.Call):
        return (ex.Call, e.func), (e.arg,)
    if isinstance(e, ex.Num):
        # 0.0 and -0.0 compare equal but are different constants
        return (ex.Num, e.value, math.copysign(1.0, e.value)), ()
    if isinstance(e, ex.Var):
        return (ex.Var, e.name), ()
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
                i = ids.get(fields + kid_ids)
                if i is None:
                    i = ids[fields + kid_ids] = len(tape)
                    tape.append((e, kid_ids))
                done[id(e)] = i
            elif id(e) not in done:
                fields, kids = _fields(e)
                stack.append((e, fields, kids))
                stack.extend(kids[::-1])
        roots.append(done[id(root)])
    return tape, roots


def _apply(e, args, space, env):
    """One tape node, given the coefficient arrays of its children."""
    if isinstance(e, ex.Num):
        return _constant(space, e.value)
    if isinstance(e, ex.Var):
        return env[e.name][: space.size]
    if isinstance(e, ex.Neg):
        return -args[0]
    if isinstance(e, ex.Bin):
        a, b = args
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "/":
            b = _reciprocal(space, b)
        return space.einsum(_PRODUCT, a, b)
    if isinstance(e, ex.Pow):
        return _power(space, args[0], e.exponent)
    return _call(space, e.func, args[0])


def eval_jets(exprs, point, order: int, coords, keep=None, labels=None) -> list:
    """Coefficient arrays of the expressions ``exprs`` at ``point``.

    ``coords`` names the coordinates in the order matching ``point``.
    Result k holds the coefficients of ``exprs[k]`` to order ``keep[k]``
    (default ``order``, and at most ``order``), shape
    ``(jet_space(len(coords), keep[k]).size,)``; its order-0 coefficient
    is the value.  Every distinct subtree is evaluated once, to the highest
    order kept of an expression that holds it; graded order makes a lower
    order the prefix of a higher one, which is how an expression kept to a
    lower order reads such a subtree.

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
    env = {}
    for i, name in enumerate(coords):
        env[name] = _constant(space, point[i])
        if order >= 1:
            env[name][space.index_of[tuple(int(a == i) for a in range(space.dim))]] = 1.0
    tape, roots = _tape(exprs)
    need = [0] * len(tape)
    for root, q in zip(roots, keep):
        need[root] = max(need[root], q)
    for i in range(len(tape) - 1, -1, -1):
        for k in tape[i][1]:
            need[k] = max(need[k], need[i])
    spaces = [jet_space(len(coords), q) for q in range(order + 1)]
    values, out = [], []
    # an overflow or invalid operation is reported once, as the error below
    with np.errstate(all="ignore"):
        for root, q, label in zip(roots, keep, labels):
            # the subtrees that this expression is the first to hold
            try:
                for node, kids in tape[len(values): root + 1]:
                    at = spaces[need[len(values)]]
                    values.append(_apply(node, [values[k][: at.size] for k in kids],
                                         at, env))
            except JetDomainError as err:
                raise JetDomainError(f"{label}: {err} at {point}") from None
            jet = values[root][: spaces[q].size].copy()
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
