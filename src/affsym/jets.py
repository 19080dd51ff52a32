"""Truncated multivariate Taylor jets: forward-mode higher-order derivatives.

A jet stores the value and all Taylor-normalized partial derivatives of a
scalar at a point, up to a fixed total degree: the coefficient attached to
multi-index m is (d^m f)(x) / m!.  Arithmetic is exact for polynomials up
to the truncation order; elementary functions are propagated through their
univariate Taylor series.

Jet-valued tensors are plain float arrays with the coefficient axis first;
``JetSpace.einsum`` multiplies and contracts them and ``JetSpace.partial``
differentiates them, whole.  ``Jet`` wraps one scalar for expression
evaluation.
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


class Jet:
    __slots__ = ("space", "c")

    def __init__(self, space, coeffs):
        self.space = space
        self.c = coeffs

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(space, value):
        c = np.zeros(space.size)
        c[0] = value
        return Jet(space, c)

    @staticmethod
    def variable(space, axis, value):
        c = np.zeros(space.size)
        c[0] = value
        if space.order >= 1:
            unit = tuple(1 if a == axis else 0 for a in range(space.dim))
            c[space.index_of[unit]] = 1.0
        return Jet(space, c)

    # -- accessors ----------------------------------------------------

    @property
    def order(self):
        return self.space.order

    @property
    def value(self):
        return float(self.c[0])

    def coefficient(self, multi_index):
        return float(self.c[self.space.index_of[tuple(multi_index)]])

    def derivative(self, multi_index):
        """Un-normalized partial derivative for the given multi-index."""
        m = tuple(multi_index)
        fact = 1.0
        for v in m:
            fact *= math.factorial(v)
        return self.coefficient(m) * fact

    def coefficients(self):
        """Mapping multi-index -> Taylor-normalized coefficient."""
        return {m: float(v) for m, v in zip(self.space.multi_indices, self.c)}

    def truncate(self, order):
        if order == self.order:
            return self
        if order > self.order:
            raise JetOrderError(f"cannot extend a jet of order {self.order} to {order}")
        sub = jet_space(self.space.dim, order)
        return Jet(sub, self.c[: sub.size].copy())

    def partial(self, axis):
        """Derivative jet along a coordinate; drops one order."""
        return Jet(jet_space(self.space.dim, self.order - 1),
                   self.space.partial(self.c, axis))

    # -- ring arithmetic ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise JetError("jet order/dimension mismatch")
            return other
        return Jet.constant(self.space, float(other))

    def __add__(self, other):
        o = self._coerce(other)
        return Jet(self.space, self.c + o.c)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet(self.space, self.c - o.c)

    def __rsub__(self, other):
        o = self._coerce(other)
        return Jet(self.space, o.c - self.c)

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.c * float(other))
        o = self._coerce(other)
        ii, jj, tt = self.space.mul_table
        out = np.zeros(self.space.size)
        np.add.at(out, tt, self.c[ii] * o.c[jj])
        return Jet(self.space, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.c / float(other))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self):
        if self.c[0] == 0.0:
            raise JetDomainError("division by a jet with zero constant term")
        u0 = self.c[0]
        derivs = [(-1.0) ** j / u0 ** (j + 1) for j in range(self.order + 1)]
        return self._series(derivs)

    def _series(self, coeffs):
        """Evaluate sum_j coeffs[j] * (self - value)^j by Horner."""
        tilde = Jet(self.space, self.c.copy())
        tilde.c[0] = 0.0
        acc = Jet.constant(self.space, coeffs[-1])
        for k in range(len(coeffs) - 2, -1, -1):
            acc = acc * tilde + coeffs[k]
        return acc

    def __pow__(self, exponent):
        e = float(exponent)
        if e == int(e):
            n = int(e)
            if n >= 0:
                out = Jet.constant(self.space, 1.0)
                for _ in range(n):
                    out = out * self
                return out
            return self.reciprocal() ** (-n)
        if self.c[0] <= 0.0:
            raise JetDomainError("non-integer power of a non-positive base")
        u0 = self.c[0]
        derivs, binom = [], 1.0
        for j in range(self.order + 1):
            derivs.append(binom * u0 ** (e - j))
            binom *= (e - j) / (j + 1)
        return self._series(derivs)

    def __repr__(self):
        return f"Jet(order={self.order}, value={self.value!r})"


# -- elementary functions ---------------------------------------------


def jet_sin(u: Jet) -> Jet:
    cycle = (math.sin(u.value), math.cos(u.value),
             -math.sin(u.value), -math.cos(u.value))
    derivs = [cycle[j % 4] / math.factorial(j) for j in range(u.order + 1)]
    return u._series(derivs)


def jet_cos(u: Jet) -> Jet:
    cycle = (math.cos(u.value), -math.sin(u.value),
             -math.cos(u.value), math.sin(u.value))
    derivs = [cycle[j % 4] / math.factorial(j) for j in range(u.order + 1)]
    return u._series(derivs)


def jet_tan(u: Jet) -> Jet:
    if abs(math.cos(u.value)) < 1e-12:
        raise JetDomainError("tan at an odd multiple of pi/2")
    return jet_sin(u) / jet_cos(u)


def jet_exp(u: Jet) -> Jet:
    try:
        e0 = math.exp(u.value)
    except OverflowError as err:
        raise JetDomainError(f"exp overflows at {u.value!r}") from err
    return u._series([e0 / math.factorial(j) for j in range(u.order + 1)])


def jet_ln(u: Jet) -> Jet:
    if u.value <= 0.0:
        raise JetDomainError("ln of a non-positive value")
    u0 = u.value
    derivs = [math.log(u0)]
    derivs += [(-1.0) ** (j - 1) / (j * u0 ** j) for j in range(1, u.order + 1)]
    return u._series(derivs)


def jet_sqrt(u: Jet) -> Jet:
    if u.value <= 0.0:
        raise JetDomainError("sqrt of a non-positive value")
    return u ** 0.5


_CALLS = {"sin": jet_sin, "cos": jet_cos, "tan": jet_tan,
          "exp": jet_exp, "ln": jet_ln, "sqrt": jet_sqrt}


def _eval(e, env, space):
    if isinstance(e, ex.Num):
        return Jet.constant(space, e.value)
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
        if e.op == "*":
            return a * b
        return a / b
    if isinstance(e, ex.Pow):
        return _eval(e.base, env, space) ** e.exponent
    if isinstance(e, ex.Call):
        return _CALLS[e.func](_eval(e.arg, env, space))
    raise TypeError(f"not an expression node: {e!r}")


def eval_jet(e, point, order: int, coords, max_order: int = MAX_JET_ORDER) -> Jet:
    """Evaluate expression ``e`` at ``point`` as a jet of the given order.

    ``coords`` names the coordinates in the order matching ``point``.
    Raises JetDomainError if a coefficient of the result is not finite
    (an integer power that overflows, say).
    """
    if order < 0:
        raise JetOrderError("order must be >= 0")
    if order > max_order:
        raise JetOrderError(f"order {order} exceeds the configured maximum {max_order}")
    point = tuple(float(v) for v in point)
    if len(point) != len(coords):
        raise JetError("point dimension does not match coordinate count")
    space = jet_space(len(coords), order)
    env = {name: Jet.variable(space, i, point[i])
           for i, name in enumerate(coords)}
    # an overflow is reported once, as the error below
    with np.errstate(over="ignore", invalid="ignore"):
        out = _eval(e, env, space)
    if not np.all(np.isfinite(out.c)):
        raise JetDomainError(f"'{ex.to_source(e)}' is not finite at {point}")
    return out
