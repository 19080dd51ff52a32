"""Truncated multivariate Taylor jets: forward-mode higher-order derivatives.

A jet stores the value and all Taylor-normalized partial derivatives of a
scalar at a point, up to a fixed total degree: the coefficient attached to
multi-index m is (d^m f)(x) / m!.  Jets, and jet-valued tensors, are plain
float arrays with the coefficient axis first; ``JetSpace.einsum``
multiplies and contracts them and ``JetSpace.partial`` differentiates
them, whole.

``eval_jet`` evaluates an expression straight into such an array: sums are
array sums, products and quotients the jet product, and reciprocals,
non-integer powers and the elementary functions one Horner series over
that product (Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
ch. 13).  Arithmetic is exact for polynomials up to the truncation order.
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
# overflow or underflow yields inf or NaN (reported by eval_jet's finite
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
        base = u if e >= 0 else _reciprocal(space, u)
        out = _constant(space, 1.0)
        for _ in range(int(abs(e))):
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


def _eval(e, env, space):
    if isinstance(e, ex.Num):
        return _constant(space, e.value)
    if isinstance(e, ex.Var):
        return env[e.name]
    if isinstance(e, ex.Neg):
        return -_eval(e.operand, env, space)
    if isinstance(e, ex.Bin):
        a = _eval(e.lhs, env, space)
        b = _eval(e.rhs, env, space)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "/":
            b = _reciprocal(space, b)
        return space.einsum(_PRODUCT, a, b)
    if isinstance(e, ex.Pow):
        return _power(space, _eval(e.base, env, space), e.exponent)
    if isinstance(e, ex.Call):
        return _call(space, e.func, _eval(e.arg, env, space))
    raise TypeError(f"not an expression node: {e!r}")


def eval_jet(e, point, order: int, coords, max_order: int = MAX_JET_ORDER) -> np.ndarray:
    """Coefficient array of expression ``e`` at ``point`` to the given order.

    ``coords`` names the coordinates in the order matching ``point``; the
    result has shape ``(jet_space(len(coords), order).size,)``, and its
    order-0 coefficient is the value of ``e``.  Raises JetDomainError for
    an argument outside a function's domain, and if a coefficient of the
    result is not finite (an integer power that overflows, say).
    """
    if order < 0:
        raise JetOrderError("order must be >= 0")
    if order > max_order:
        raise JetOrderError(f"order {order} exceeds the configured maximum {max_order}")
    point = tuple(float(v) for v in point)
    if len(point) != len(coords):
        raise JetError("point dimension does not match coordinate count")
    space = jet_space(len(coords), order)
    env = {}
    for i, name in enumerate(coords):
        env[name] = _constant(space, point[i])
        if order >= 1:
            env[name][space.index_of[tuple(int(a == i) for a in range(space.dim))]] = 1.0
    # an overflow or invalid operation is reported once, as the error below
    with np.errstate(all="ignore"):
        out = _eval(e, env, space)
    if not np.all(np.isfinite(out)):
        raise JetDomainError(f"'{ex.to_source(e)}' is not finite at {point}")
    return out
