"""Closed-form oracle catalog and theorem checks for the block identities.

Each catalog family pins one closed-form identity for the iterated
curvature action on a block-built Gauss model: the brute value comes from
the recursion at basis indices (tensor_ops.r_power_action), the pair kernel
at vectors (pack_probe, pair_probe) or, at power 1, one basis image of the
model's AlgebraicCurvature, the closed value from the formula, and the
absolute error is the reported quantity.

A family is declared once, beside its closed form: its fields, in draw
order, state the lead block(s) (``Lead``), the trailing 1x1 blocks
(``Trail``), each parameter with its allowed values (``Choice``: the power
parameter, the variants, and each slot as a set in terms of (k, dim)),
the slots whose blocks are null directions (``Nulls``), the coefficient
vectors of the power steps (``Vectors``) and the 2-form with its zero
pairs (``Omega``); its ``power`` is the R^p a draw exercises.
sample_spec draws the fields in order, and run_oracle checks each of them
and reports the power on its result.

Index convention: everything here is 0-based; a block of size k occupies
indices 0..k-1, so the "end vector" of the lead block is index k-1.

Beyond the catalog there are two theorem-level checks: a witness search
that exhibits nonzero R^p omega components on inadmissible block shapes
(one Gaussian probe of the operator on vectors, packed once with its
K = rho w, reduced one slot pair at a time to a unit pair (e_a, e_b),
a < b, so to a basis component), and the rank check that reads the
packed R^q omega ladder its caller stepped and ties the first vanishing
operator to rank(S) <= 1 with an admissible canonical shape.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import canonical
from .model import ComplexBlock, ModelError, RealBlock, assemble, random_omega
from .tensor_ops import (AlgebraicCurvature, pack_probe, pair_probe, r_power_action,
                         reduce_to_basis)

#: per-draw tolerance: abs_err <= ORACLE_RTOL * max(1, |closed|)
ORACLE_RTOL = 1e-9

WITNESS_THRESHOLD = 1e-9


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class OracleSpec:
    id: str
    params: dict


@dataclass(frozen=True)
class OracleResult:
    id: str
    brute: float
    closed: float
    abs_err: float
    params: dict
    power: int

    @property
    def scaled_err(self):
        return self.abs_err / max(1.0, abs(self.closed))


def _require(cond, hypothesis):
    """OracleError naming the hypothesis, text or a function that words it
    (so that a check that holds formats nothing), unless ``cond`` holds."""
    if not cond:
        raise OracleError("hypothesis violated: "
                          + (hypothesis() if callable(hypothesis) else hypothesis))


def _plain(v):
    """An int that is no bool, a str, or a list of them: a slot 1 is not
    1.0 or True."""
    if isinstance(v, list):
        return all(map(_plain, v))
    return isinstance(v, str) or isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _pick(rng, seq):
    """One uniform pick from ``seq``: the draw ``rng.choice(seq)`` makes,
    without its array conversion, so the generator stream is unchanged.
    ``rng.integers(n)`` draws as ``rng.integers(0, n)`` does, at less cost."""
    return seq[int(rng.integers(len(seq)))]


def _uniform(rng, lo, hi):
    """The draw ``rng.uniform(lo, hi)`` makes, bit for bit: numpy computes
    a scalar uniform as lo + (hi - lo) * next_double, and ``rng.random()``
    is that next_double, so the value and the stream position match."""
    return lo + (hi - lo) * rng.random()


def _sign(rng):
    return _pick(rng, (-1, 1))


def _nonzero(rng):
    return _uniform(rng, 0.3, 2.0) * _pick(rng, (-1, 1))


def _extra(rng):
    """One trailing 1x1 real block."""
    return RealBlock(1, _uniform(rng, -2.0, 2.0), _sign(rng))


def _pairs(pair, count):
    return tuple(pair) * count


def _without(seq, *drop):
    return [t for t in seq if t not in drop]


def _size(block):
    return block.size if isinstance(block, RealBlock) else block.half_size


def _decode(entry):
    kind, size, a, b = entry

    def integer(v, what):
        # a size or sign of 6.5, 6.0 or True is refused, not truncated; inf
        # and nan fail in int(), as it words them
        n = int(v)
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"block {entry!r}: {what} {v!r} is not an integer")
        return n

    if kind == "real":
        return RealBlock(integer(size, "size"), float(a), integer(b, "sign"))
    if kind == "complex":
        return ComplexBlock(integer(size, "size"), float(a), float(b))
    raise ValueError(f"unknown block kind {kind!r}")


# -- family fields: each draws itself into a _Draw and checks itself ----

NONZERO, ANY, ZERO = "nonzero", "zero or nonzero", "zero"

_EIG = {
    NONZERO: _nonzero,
    ANY: lambda rng: _pick(rng, (0.0, _nonzero(rng))),
    ZERO: lambda rng: 0.0,
}


class _Draw:
    """One draw's params ``q``, blocks and lead size ``k``: being drawn from
    ``rng`` under ``p_max``, or being checked with its 2-form ``w``."""

    def __init__(self, fam, q, blocks, k, dim=0, rng=None, p_max=None, w=None):
        self.fam, self.q, self.blocks, self.k, self.dim = fam, q, blocks, k, dim
        self.rng, self.p_max, self.w = rng, p_max, w

    def add(self, blocks):
        self.blocks += blocks
        self.dim += sum([b.dim for b in blocks])


@dataclass(frozen=True)
class Lead:
    """``count`` real lead blocks of ``size``, or one complex block of
    half-size ``size``; a (lo, hi) size is drawn first of all, as params
    ``k``, and the identity holds for every size >= lo.  The real
    eigenvalues are drawn ``eig`` (ZERO: nilpotent), then the signs."""
    kind: str
    size: int | tuple
    eig: str = NONZERO
    count: int = 1

    def draw(self, d):
        if self.kind == "complex":
            d.add([ComplexBlock(d.k, _nonzero(d.rng), _nonzero(d.rng))])
            return
        eigs = [_EIG[self.eig](d.rng) for _ in range(self.count)]
        d.add([RealBlock(d.k, a, _sign(d.rng)) for a in eigs])

    def check(self, d):
        ranged = isinstance(self.size, tuple)
        lo = self.size[0] if ranged else self.size
        kind = RealBlock if self.kind == "real" else ComplexBlock
        lead = d.blocks[:self.count]
        _require(all(isinstance(b, kind) and (_size(b) >= lo if ranged else _size(b) == lo)
                     for b in lead),
                 lambda: f"lead block must be {self.kind} of size {'>= ' if ranged else ''}{lo}")
        _require(self.eig != ZERO or all(b.eigenvalue == 0.0 for b in lead),
                 "lead block must be nilpotent")
        _require(not ranged or _plain(d.q["k"]) and d.q["k"] == d.k,
                 "k must be the lead block size")


@dataclass(frozen=True)
class Trail:
    """Trailing 1x1 real blocks: step * n of them for n drawn from lo..hi,
    and one more if the dimension would be odd."""
    lo: int
    hi: int
    step: int = 1

    def draw(self, d):
        count = self.step * _pick(d.rng, range(self.lo, self.hi + 1))
        count += (d.dim + count) % 2
        d.add([_extra(d.rng) for _ in range(count)])

    def check(self, d):
        tail = d.blocks[d.fam.lead.count if d.fam.lead else 0:]
        _require(all(isinstance(b, RealBlock) and b.size == 1 for b in tail),
                 "trailing blocks must be real of size 1")


@dataclass(frozen=True)
class Choice:
    """Parameter drawn uniformly from ``values``: fixed options (a power
    parameter or a variant), or a slot's ``values(k, dim, params so far)``.
    Fixed options are kept to those that can still exercise a power <=
    p_max.  ``rule`` words the hypothesis where the set alone does not."""
    name: str
    values: object
    rule: str = ""

    def draw(self, d):
        if callable(self.values):
            values = self.values(d.k, d.dim, d.q)
        elif d.p_max >= d.fam.most:
            values = self.values
        else:
            values = [v for v in self.values
                      if d.fam.least_power({**d.q, self.name: v}) <= d.p_max]
        d.q[self.name] = _pick(d.rng, values)

    def check(self, d):
        values = self.values(d.k, d.dim, d.q) if callable(self.values) else self.values
        _require(_plain(d.q[self.name]) and d.q[self.name] in values,
                 lambda: f"{self.name} must be {self.rule or f'one of {list(values)}'}")


@dataclass(frozen=True)
class Nulls:
    """The 1x1 blocks at the named slots, drawn before it, are null
    directions: drawn with eigenvalue 0, checked to have it."""
    names: tuple

    def draw(self, d):
        for name in self.names:
            d.blocks[d.q[name]] = RealBlock(1, 0.0, d.blocks[d.q[name]].sign)

    def check(self, d):
        for name in self.names:
            _require(d.blocks[d.q[name]].eigenvalue == 0.0,
                     lambda: f"{name} must be a null direction (eigenvalue 0)")


@dataclass(frozen=True)
class Vectors:
    """One vector of k coefficients per power step."""
    name: str

    def draw(self, d):
        d.q[self.name] = [d.rng.uniform(-1, 1, size=d.k).tolist()
                          for _ in range(d.fam.power(d.q))]

    def check(self, d):
        xs = d.q[self.name]
        _require(isinstance(xs, list) and len(xs) == d.fam.power(d.q) and all(
            isinstance(x, list) and len(x) == d.k
            and all(isinstance(c, (int, float)) and math.isfinite(c) for c in x)
            for x in xs), lambda: f"{self.name} must hold k finite numbers per power step")


@dataclass(frozen=True)
class Omega:
    """The 2-form, zero on ``pairs(k, params so far)``."""
    pairs: object = lambda k, q: ()

    def draw(self, d):
        d.q["omega"] = random_omega(d.dim, d.rng, self.pairs(d.k, d.q)).tolist()

    def check(self, d):
        _require(d.w.shape == (d.dim, d.dim) and np.max(np.abs(d.w + d.w.T)) < 1e-12,
                 "omega must be antisymmetric of the model dimension")
        pairs = self.pairs(d.k, d.q)
        _require(all(d.w[i, j] == 0.0 for i, j in pairs),
                 lambda: f"omega must vanish on the pairs {pairs}")


# -- catalog ------------------------------------------------------------


@dataclass
class OracleFamily:
    id: str
    description: str
    fields: tuple = field(repr=False)
    closed: object = field(repr=False)
    power: object = field(repr=False)

    def __post_init__(self):
        self.lead = next((f for f in self.fields if isinstance(f, Lead)), None)
        self.least, self.most = self.least_power({}), max(self._powers({}))

    def _powers(self, q):
        """The powers of the completions of the partial params ``q``."""
        free = [f for f in self.fields if isinstance(f, Choice)
                and not callable(f.values) and f.name not in q]
        for values in itertools.product(*(f.values for f in free)):
            yield self.power({**q, **{f.name: v for f, v in zip(free, values)}})

    def least_power(self, q):
        return min(self._powers(q))


CATALOG = {}


def _family(oracle_id, description, *fields, power=lambda q: q["p"]):
    """Declare a family: its fields in draw order, its power and, below, its
    closed form.  That takes the params, the model ``m``, the form ``w``, the
    lead block's ``alpha`` with ``eps`` (real) or ``beta`` (complex), the
    ``power``, ``act(args, k=power)`` = R^k omega(args) at basis indices and
    ``probe(rows)`` = R^power omega at the 2 power + 2 vectors ``rows``, and
    returns the brute and the closed value."""
    def register(closed):
        CATALOG[oracle_id] = OracleFamily(oracle_id, description, fields, closed, power)
        return closed
    return register


P = Choice("p", range(1, 5))
OMEGA = Omega()


def _cx_hyp_pairs(k, full):
    """omega zero-pairs for the strong side condition on a 2k-block."""
    return [(j, t) for j in (range(2, 2 * k) if full else (2,)) for t in (2 * k - 2, 2 * k - 1)]


@_family("with_pi_x", "single real block: projection-weighted power formula "
         "against the block end vector",
         P, Lead("real", (2, 5)), Trail(1, 3), Vectors("xs"),
         Choice("i", lambda k, dim, q: range(1, dim)), OMEGA)
def _with_pi_x(probe, m, w, k, p, xs, i, alpha, eps, **_):
    # rows x_1, e_k, ..., x_p, e_k, e_i, e_k
    rows = np.zeros((2 * p + 2, m.dim))
    rows[:-2:2, :k] = xs
    rows[1::2, k - 1] = 1.0
    rows[-2, i] = 1.0
    proj = math.prod(c[0] for c in xs)
    return probe(rows), proj * eps ** p * alpha ** p * w[i, k - 1]


@_family("rp_ei_ek", "single real block: (eps*alpha)^p scaling of omega against "
         "the block end vector",
         P, Lead("real", (2, 5)), Trail(1, 3),
         Choice("i", lambda k, dim, q: range(1, dim)), OMEGA)
def _rp_ei_ek(act, w, k, p, i, alpha, eps, **_):
    return act(_pairs((0, k - 1), p) + (i, k - 1)), eps ** p * alpha ** p * w[i, k - 1]


@_family("kgt3_basics", "real block of size > 3: the six basic curvature images",
         Lead("real", (4, 6)), Trail(1, 2), Choice("formula", (1, 2, 3, 4, 5, 6)),
         Choice("variant", (0, 1)), Choice("component", lambda k, dim, q: range(dim)),
         OMEGA, power=lambda q: 1)
def _kgt3_basics(m, prov, k, formula, variant, component, alpha, eps, **_):
    e = np.eye(m.dim)
    zero = np.zeros(m.dim)
    table = {
        1: ((0, k - 2, 0 if variant == 0 else k - 2), zero),
        2: ((0, k - 2, 1), eps * alpha * e[0] + eps * e[1]),
        3: ((0, k - 2, k - 1), -eps * alpha * e[k - 2] - eps * e[k - 1]),
        4: ((k - 2, k - 1, 0), eps * alpha * e[k - 2] + eps * e[k - 1]),
        5: ((k - 2, k - 1, 1), -eps * alpha * e[k - 1]),
        6: ((k - 2, k - 1, k - 2 if variant == 0 else k - 1), zero),
    }
    args, expected = table[formula]
    return dict(prov.basis_image(*args)).get(component, 0.0), float(expected[component])


@_family("lemma34", "real block of size > 3: repeated-pair vanishing and "
         "first-order closed forms",
         P, Lead("real", (4, 6), ANY), Trail(1, 2),
         Choice("formula", ("repeat", "e2", "eik")),
         Choice("i", lambda k, dim, q: _without(range(dim), 1, k - 1)), OMEGA)
def _lemma34(act, w, k, p, formula, i, alpha, eps, **_):
    lead = _pairs((0, k - 2), p)
    if formula == "repeat":
        return act(lead + (0, k - 2)), 0.0
    if formula == "e2":
        closed = (-1.0) ** p * eps ** p * (alpha * w[0, k - 2] + w[1, k - 2])
        return act(lead + (1, k - 2)), closed
    return act(lead + (i, k - 1)), eps ** p * (alpha * w[i, k - 2] + w[i, k - 1])


@_family("even_odd", "real block of size > 3: odd/even power closed forms on the "
         "(e1, e_{k-1}) pair",
         Choice("pp", (0, 1)), Lead("real", (4, 6)), Trail(1, 2),
         Choice("parity", ("odd", "even")), OMEGA,
         power=lambda q: 2 * q["pp"] + (1 if q["parity"] == "odd" else 2))
def _even_odd(act, w, power, k, parity, alpha, eps, **_):
    args = _pairs((0, k - 2), power) + (1, k - 1)
    if parity == "odd":
        return act(args), -eps * alpha * (w[0, k - 1] - w[1, k - 2])
    return act(args), -alpha * (2 * alpha * w[0, k - 2] + w[1, k - 2] + w[0, k - 1])


@_family("lemma36", "real block of size > 3: closed form with the top pair leading",
         P, Lead("real", (4, 6)), Trail(1, 2), OMEGA)
def _lemma36(act, w, k, p, alpha, eps, **_):
    closed = eps ** p * alpha * (w[0, k - 1] + w[1, k - 2]) + eps ** p * w[1, k - 1]
    return act((k - 2, k - 1) + _pairs((0, k - 2), p - 1) + (0, 1)), closed


@_family("lematD", "real block of size > 3: vanishing against (e1, e3)",
         P, Lead("real", (4, 6)), Trail(1, 2), OMEGA)
def _lematd(act, k, p, **_):
    return act(_pairs((0, k - 2), p) + (0, 2)), 0.0


@_family("blk3_12", "3-dimensional real block: factorial power formula on (e1, e2)",
         P, Lead("real", 3, ANY), Trail(1, 3), OMEGA)
def _blk3_12(act, w, p, eps, **_):
    closed = (-1.0) ** p * eps ** p * math.factorial(p) * w[0, 1]
    return act(_pairs((0, 1), p + 1)), closed


@_family("blk3_12ij", "3-dimensional real block paired against outside directions",
         Choice("p", range(2, 5)), Lead("real", 3, ANY), Trail(3, 5),
         Choice("i", lambda k, dim, q: range(3, dim)),
         Choice("j", lambda k, dim, q: range(3, dim)), OMEGA)
def _blk3_12ij(act, m, w, p, i, j, alpha, eps, **_):
    closed = ((-1.0) ** p * eps ** (p - 1) * math.factorial(p - 1)
              * m.H[i, j] * (2 * alpha * w[0, 1] + w[0, 2]))
    return act(_pairs((0, 1), p - 1) + (1, i, 0, j)), closed


@_family("blk3_122i", "nilpotent 3-dimensional block: factorial formula with a free "
         "trailing slot",
         P, Lead("real", 3, ZERO), Trail(1, 3),
         Choice("i", lambda k, dim, q: _without(range(dim), 2)), OMEGA)
def _blk3_122i(act, w, p, i, eps, **_):
    closed = (-1.0) ** p * eps ** p * math.factorial(p) * w[1, i]
    return act(_pairs((0, 1), p) + (1, i)), closed


@_family("blk3_2312", "nilpotent 3-dimensional block: (e2, e3) leading pair formula",
         P, Lead("real", 3, ZERO), Trail(1, 3), OMEGA)
def _blk3_2312(act, w, p, eps, **_):
    closed = (-1.0) ** (p + 1) * eps ** p * math.factorial(p - 1) * w[1, 2]
    return act(_pairs((0, 1), p - 1) + (1, 2, 0, 1)), closed


@_family("two_blk2", "two 2-dimensional real blocks: vanishing and odd-power cross "
         "formulas",
         Choice("variant", ("zero", "odd")), Lead("real", 2, ANY, count=2),
         Trail(0, 2, step=2), Choice("i", lambda k, dim, q: _without(range(dim), 1, 3)),
         Choice("pp", (0, 1)), P, OMEGA,
         power=lambda q: q["p"] if q["variant"] == "zero" else 2 * q["pp"] + 1)
def _two_blk2(act, m, w, power, variant, i, pp, alpha, eps, **_):
    if variant == "zero":
        return act(_pairs((0, 2), power) + (i, 2)), 0.0
    eta = m.blocks[1].sign
    closed = ((-1.0) ** (pp + 1) * eta ** (pp + 1) * eps ** pp
              * (alpha * w[i, 0] + w[i, 1]))
    return act(_pairs((0, 2), power) + (i, 3)), closed


@_family("rw_double", "two nilpotent 2-dimensional blocks: powers-of-two even formulas",
         Lead("real", 2, ZERO, count=2), Trail(0, 1, step=2), Choice("pp", (1, 2)),
         Choice("variant", ("e2", "e4")), OMEGA, power=lambda q: 2 * q["pp"])
def _rw_double(act, m, w, pp, variant, eps, **_):
    eta = m.blocks[1].sign
    lead = _pairs((0, 2), 2 * pp - 1)
    if variant == "e2":
        closed = (-1.0) ** pp * (eps * eta) ** (pp - 1) * 2.0 ** (2 * pp - 2) * w[1, 3]
        return act(lead + (0, 1, 0, 1)), closed
    closed = (-1.0) ** (pp + 1) * (eps * eta) ** pp * 2.0 ** (2 * pp - 2) * w[1, 3]
    return act(lead + (0, 3, 0, 3)), closed


@_family("cx_basic", "2-dimensional complex block: basic curvature images",
         Lead("complex", 1), Trail(1, 2, step=2), Choice("formula", (1, 2, 3)),
         Choice("i", lambda k, dim, q: range(2, dim)),
         Choice("component", lambda k, dim, q: range(dim)), OMEGA, power=lambda q: 1)
def _cx_basic(m, prov, formula, i, component, alpha, beta, **_):
    e = np.eye(m.dim)
    if formula == 1:
        t, expected = 0, alpha * e[0] - beta * e[1]
    elif formula == 2:
        t, expected = 1, -beta * e[0] - alpha * e[1]
    else:
        t, expected = i, np.zeros(m.dim)
    return dict(prov.basis_image(0, 1, t)).get(component, 0.0), float(expected[component])


@_family("cx_detpow", "2-dimensional complex block: determinant power formula",
         Lead("complex", 1), Trail(1, 2, step=2), Choice("pp", (1, 2, 3, 4)),
         Choice("i", lambda k, dim, q: range(2, dim)), Choice("variant", ("e1", "e2")),
         OMEGA, power=lambda q: 2 * q["pp"])
def _cx_detpow(act, w, pp, i, variant, alpha, beta, **_):
    det = alpha * alpha + beta * beta
    first = 0 if variant == "e1" else 1
    return act(_pairs((0, 1), 2 * pp) + (first, i)), det ** pp * w[first, i]


@_family("cx_other", "2-dimensional complex block against outside directions",
         Lead("complex", 1), Trail(1, 2, step=2), Choice("pp", (1, 2)),
         Choice("i", lambda k, dim, q: range(2, dim)),
         Choice("j", lambda k, dim, q: range(2, dim)), Choice("variant", (1, 2, 3)),
         OMEGA, power=lambda q: 2 * q["pp"])
def _cx_other(act, m, w, pp, i, j, variant, alpha, beta, **_):
    det = alpha * alpha + beta * beta
    lead = _pairs((0, 1), 2 * pp - 1)
    hij = m.H[i, j]
    if variant == 3:
        brute = act(lead + (0, i, 0, j)) - act(lead + (1, i, 1, j))
        return brute, -(2.0 ** (2 * pp)) * alpha * beta * det ** (pp - 1) * hij * w[0, 1]
    brute = act(lead + ((0, i, 1, j) if variant == 1 else (1, i, 0, j)))
    return brute, 2.0 ** (2 * pp - 1) * beta ** 2 * det ** (pp - 1) * hij * w[0, 1]


@_family("cx_c1", "large complex block with an outside slot: shear pair "
         "vanishing/transfer",
         Lead("complex", (2, 3)), Trail(2, 2),
         Choice("i", lambda k, dim, q: _without(range(2 * k - 1), 2)), P,
         Choice("s", lambda k, dim, q: range(2 * k)),
         Choice("j", lambda k, dim, q: range(2 * k, dim)), OMEGA)
def _cx_c1(act, m, w, k, p, i, s, j, **_):
    closed = 0.0 if s < 2 * k - 1 else -float(m.S[:, i] @ w[:, j])
    return act(_pairs((0, 2 * k - 3), p - 1) + (i, s, 0, j)), closed


@_family("cx_c2", "large complex block: (e3, e_2k) pair against an outside slot",
         Lead("complex", (2, 3)), Trail(2, 2), P,
         Choice("j", lambda k, dim, q: range(2 * k, dim)), OMEGA)
def _cx_c2(act, m, w, k, p, j, beta, **_):
    closed = -((-beta) ** (p - 1)) * float(m.S[:, 2] @ w[:, j])
    return act(_pairs((0, 2 * k - 2), p - 1) + (2, 2 * k - 1, 0, j)), closed


@_family("cx_c3", "large complex block: (e2, e_2k) pair against an outside slot",
         Lead("complex", (2, 3)), Trail(2, 2), P,
         Choice("i", lambda k, dim, q: range(2 * k)),
         Choice("j", lambda k, dim, q: range(2 * k, dim)), OMEGA)
def _cx_c3(act, m, w, k, p, i, j, beta, **_):
    closed = (-beta) ** (p - 1) * float(m.S[:, 2 * k - 1] @ w[:, j]) if i == 0 else 0.0
    return act(_pairs((1, 2 * k - 1), p - 1) + (i, 2 * k - 1, 2 * k - 1, j)), closed


@_family("cx_b2", "large complex block: trailing-pair formulas on (e1, e_{2k-1})",
         Lead("complex", (2, 3)), Trail(0, 1, step=2),
         Choice("i", lambda k, dim, q: _without(range(2 * k - 1), 1)), P,
         Choice("variant", ("q1", "q2")), OMEGA)
def _cx_b2(act, m, w, k, p, i, variant, beta, **_):
    lead = _pairs((0, 2 * k - 2), p)
    if variant == "q1":
        return act(lead + (i, 2 * k - 2)), 0.0
    closed = (-beta) ** (p - 1) * float(w[i, :] @ m.S[:, 2 * k - 2])
    return act(lead + (i, 2 * k - 1)), closed


@_family("cx_b3", "large complex block: trailing-pair formulas on (e2, e_2k)",
         Lead("complex", (2, 3)), Trail(0, 1, step=2),
         Choice("i", lambda k, dim, q: _without(range(1, 2 * k), 2 * k - 2)), P,
         Choice("variant", ("t1", "t2")), OMEGA)
def _cx_b3(act, m, w, k, p, i, variant, beta, **_):
    lead = _pairs((1, 2 * k - 1), p)
    if variant == "t1":
        return act(lead + (i, 2 * k - 1)), 0.0
    closed = beta ** (p - 1) * float(w[i, :] @ m.S[:, 2 * k - 1])
    return act(lead + (i, 2 * k - 2)), closed


@_family("cx_b4", "large complex block under form side conditions: displaced-pair "
         "vanishing",
         Lead("complex", (2, 3)), Trail(0, 1, step=2), P,
         Choice("pos", lambda k, dim, q: range(1, q["p"] + 1)),
         Omega(lambda k, q: _cx_hyp_pairs(k, True)))
def _cx_b4(act, k, p, pos, **_):
    s = (0, 2 * k - 2)
    return act(_pairs(s, pos - 1) + (2 * k - 2, 2 * k - 1) + _pairs(s, p - pos) + (0, 2)), 0.0


@_family("cx_b45", "large complex block under form side conditions: beta-power "
         "closed forms",
         Lead("complex", (2, 3)), Trail(0, 1, step=2), P,
         Choice("variant", ("a", "b", "cor")),
         Omega(lambda k, q: _cx_hyp_pairs(k, False)))
def _cx_b45(act, probe, m, w, k, p, variant, alpha, beta, **_):
    s, ss = 2 * k - 2, 2 * k - 1  # 0-based penultimate/last block vectors
    lead = _pairs((0, s), p)
    if variant == "a":
        closed = beta ** (p - 1) * (-alpha * w[0, s] + beta * w[1, s])
        return act(lead + (1, s)), closed
    if variant == "b":
        closed = (alpha * beta ** (p - 2) * (-alpha * w[0, s] + beta * w[1, s])
                  - alpha ** 2 * (-beta) ** (p - 2) * w[0, s]
                  - alpha * (-beta) ** (p - 1) * w[0, ss])
        return act(lead + (1, ss)), closed
    closed = (-1.0) ** p * beta ** (p - 1) * alpha * (alpha * w[0, s] - beta * w[0, ss])
    rows = np.eye(m.dim)[list(lead + (1, 1))]
    rows[-1] = m.S[:, s]
    return probe(rows), closed


@_family("cx_b5", "large complex block under form side conditions: first-position "
         "displaced pair",
         Lead("complex", (2, 3)), Trail(0, 1, step=2), P,
         Choice("pos", lambda k, dim, q: range(1, q["p"] + 1)),
         Omega(lambda k, q: _cx_hyp_pairs(k, False)))
def _cx_b5(act, m, w, k, p, pos, beta, **_):
    s, ss = 2 * k - 2, 2 * k - 1
    closed = 0.0
    if pos == 1:
        closed = (-beta) ** (p - 1) * (-float(m.S[:, s] @ w[:, 1]) + float(w[0, :] @ m.S[:, ss]))
    return act(_pairs((0, s), pos - 1) + (s, ss) + _pairs((0, s), p - pos) + (0, 1)), closed


@_family("cx_aij", "large complex block: a_ij component recurrences and corollary forms",
         Lead("complex", (2, 3)), Trail(0, 1, step=2),
         Choice("variant", ("zero", "rec12", "rec21", "rec23", "rec32", "rec22",
                            "cor12", "cor21", "cor22")),
         Choice("zero_ij", lambda k, dim, q: [[0, 0], [0, 2], [2, 0], [2, 2]]),
         Omega(lambda k, q: _cx_hyp_pairs(k, True) if q["variant"].startswith("cor")
               else ()),
         Choice("p", range(1, 4)),
         power=lambda q: q["p"] + (q["variant"] not in ("zero", "cor12", "cor21")))
def _cx_aij(act, w, k, p, variant, zero_ij, alpha, beta, **_):
    s, ss = 2 * k - 2, 2 * k - 1

    def a_val(pw, i, j):
        return act(_pairs((0, s), pw - 1) + (i, s, j, s), pw)

    if variant == "zero":
        return a_val(p, *zero_ij), 0.0
    if variant.startswith("rec"):
        i, j = int(variant[3]) - 1, int(variant[4]) - 1
        brute = a_val(p + 1, i, j)
        if variant == "rec22":
            closed = (-alpha * (a_val(p, 0, 1) + a_val(p, 1, 0))
                      + 2 * beta * a_val(p, 1, 1)
                      - (a_val(p, 2, 1) + a_val(p, 1, 2)))
        else:
            closed = beta * a_val(p, i, j)
        return brute, closed
    if variant == "cor12":
        return a_val(p, 0, 1), beta ** (p - 1) * (-alpha * w[0, s] + beta * w[1, s])
    if variant == "cor21":
        return a_val(p, 1, 0), beta ** (p - 1) * (alpha * w[0, s] - beta * w[0, ss])
    closed = (-alpha * beta ** p * (w[1, s] - w[0, ss]) + 2 * beta * a_val(p, 1, 1))
    return a_val(p + 1, 1, 1), closed


@_family("diag_pair", "diagonalizable pair of eigendirections: even-power eigenvalue "
         "formula",
         Trail(2, 4, step=2), Choice("kk", lambda k, dim, q: range(dim)),
         Choice("jj", lambda k, dim, q: _without(range(dim), q["kk"]), "distinct from kk"),
         Choice("i", lambda k, dim, q: _without(range(dim), q["kk"], q["jj"]),
                "distinct from kk and jj"),
         Choice("l", (1, 2)), OMEGA, power=lambda q: 2 * q["l"])
def _diag_pair(act, m, w, l, kk, jj, i, **_):
    lam_k, eps_k = m.blocks[kk].eigenvalue, m.blocks[kk].sign
    lam_j, eps_j = m.blocks[jj].eigenvalue, m.blocks[jj].sign
    closed = ((-1.0) ** l * eps_k ** l * eps_j ** l
              * lam_k ** l * lam_j ** l * w[kk, i])
    return act(_pairs((kk, jj), 2 * l) + (kk, i)), closed


@_family("x_z1z2_y", "eigendirection against two null directions: even-power formula",
         Trail(2, 4, step=2), Choice("x", lambda k, dim, q: range(dim)),
         Choice("z1", lambda k, dim, q: _without(range(dim), q["x"]), "distinct from x"),
         Choice("z2", lambda k, dim, q: _without(range(dim), q["x"], q["z1"]),
                "distinct from x and z1"),
         Nulls(("z1", "z2")),
         Choice("y", lambda k, dim, q: _without(range(dim), q["z2"]),
                "h-orthogonal to the second null direction z2"),
         Choice("l", (1, 2)), OMEGA, power=lambda q: 2 * q["l"])
def _x_z1z2_y(act, m, w, l, x, z1, z2, y, **_):
    lam, h1, h2 = m.blocks[x].eigenvalue, m.blocks[z1].sign, m.blocks[z2].sign
    closed = (-1.0) ** l * lam ** (2 * l) * h1 ** l * h2 ** l * w[x, y]
    return act((x,) + _pairs((z1, z2), 2 * l) + (y,)), closed


@_family("blk2_1x1", "2-dimensional block plus eigendirection: (2 eta alpha)^(p-1) "
         "formula",
         Lead("real", 2), Trail(1, 2, step=2), P, OMEGA)
def _blk2_1x1(act, m, w, p, **_):
    alpha, eta = m.blocks[0].eigenvalue, m.blocks[0].sign
    closed = (-1.0) ** p * (2 * eta * alpha) ** (p - 1) * m.blocks[1].sign * w[0, 1]
    return act(_pairs((0, 1), p - 1) + (0, 2, 0, 2)), closed


@_family("blk2_a0", "nilpotent 2-dimensional block plus eigendirections: eigenvalue "
         "power formula",
         Lead("real", 2, ZERO), Trail(1, 2, step=2), P,
         Choice("i", lambda k, dim, q: range(2, dim)), OMEGA)
def _blk2_a0(act, m, w, p, i, **_):
    closed = -(m.blocks[0].sign ** p) * m.blocks[1].eigenvalue ** p * w[i, 2]
    return act((2, 0) + _pairs((0, 1), p - 1) + (i, 1)), closed


@_family("blk2_a0n", "nilpotent 2-dimensional block plus eigendirections: "
         "parity-split formulas",
         Lead("real", 2, ZERO), Trail(1, 2, step=2), P, Choice("variant", ("a", "b")),
         OMEGA)
def _blk2_a0n(act, m, w, p, variant, **_):
    eta, lam1 = m.blocks[0].sign, m.blocks[1].eigenvalue
    if variant == "a":
        closed = (-1.0) ** p * eta ** p * lam1 ** p * w[2, 1]
        return act((2, 1) + _pairs((0, 1), p)), closed
    closed = (-(eta ** p) * lam1 ** p * w[0, 2]
              + 0.5 * ((-1.0) ** p + 1.0) * eta ** p * lam1 ** (p - 1) * w[1, 2])
    return act((2, 0) + _pairs((0, 1), p)), closed


def list_oracles():
    """The full registry as (id, description) pairs."""
    return [(f.id, f.description) for f in CATALOG.values()]


def _family_of(oracle_id):
    fam = CATALOG.get(oracle_id)
    if fam is None:
        raise OracleError(f"unknown oracle id '{oracle_id}'")
    return fam


def sample_spec(oracle_id: str, rng, p_max: int = 4) -> OracleSpec:
    """Draw a family's fields in declaration order, every exercised power
    <= p_max; OracleError if the family's least power is above p_max."""
    fam = _family_of(oracle_id)
    if fam.least > p_max:
        raise OracleError(f"{oracle_id} needs p_max >= {fam.least}, got {p_max}")
    d = _Draw(fam, {}, [], fam.lead.size if fam.lead else 1, rng=rng, p_max=p_max)
    if isinstance(d.k, tuple):
        d.k = d.q["k"] = _pick(rng, range(d.k[0], d.k[1] + 1))
    for f in fam.fields:
        f.draw(d)
    d.q["blocks"] = [["real", b.size, b.eigenvalue, b.sign] if isinstance(b, RealBlock)
                     else ["complex", b.half_size, b.alpha, b.beta] for b in d.blocks]
    return OracleSpec(oracle_id, d.q)


def run_oracle(spec: OracleSpec) -> OracleResult:
    """Check the params against every declared hypothesis, on a model
    decoded and assembled once, then compare the brute and closed values."""
    fam = _family_of(spec.id)
    q = spec.params
    try:
        m = assemble([_decode(entry) for entry in q["blocks"]])
        _require(all(isinstance(key, str) for key in q), "params keys must be strings")
        d = _Draw(fam, q, m.blocks, _size(m.blocks[0]), m.dim,
                  w=np.asarray(q["omega"], dtype=float))
        for f in fam.fields:
            f.check(d)
        power = fam.power(q)
    except OracleError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise OracleError(f"malformed params: {err!r}") from None
    lead, w, prov = m.blocks[0], d.w, AlgebraicCurvature(m)
    symbols = ({"alpha": lead.alpha, "beta": lead.beta} if isinstance(lead, ComplexBlock)
               else {"alpha": lead.eigenvalue, "eps": lead.sign})

    def probe(rows):
        k_mat, pairs = pack_probe(prov, w, power, rows)
        return pair_probe(prov, k_mat, pairs[None])[0]

    brute, closed = fam.closed(**{**q, **symbols, "m": m, "prov": prov, "w": w, "power": power,
                                  "act": lambda args, k=power: r_power_action(prov, w, k, args),
                                  "probe": probe})
    return OracleResult(spec.id, float(brute), float(closed),
                        abs(float(brute) - float(closed)), spec.params, power)


def run_family(oracle_id: str, draws: int, seed: int = 0, p_max: int = 4):
    """Seeded independent draws of one family."""
    out = []
    index = list(CATALOG).index(_family_of(oracle_id).id)
    for d in range(draws):
        rng = np.random.default_rng((seed, index, d))
        out.append(run_oracle(sample_spec(oracle_id, rng, p_max)))
    return out


# -- theorem witnesses ---------------------------------------------------


@dataclass(frozen=True)
class WitnessEntry:
    power: int
    trial: int
    found: bool
    args: tuple
    value: float
    source: str


@dataclass(frozen=True)
class WitnessReport:
    blocks: tuple
    p_max: int
    trials: int
    seed: int
    entries: tuple
    degenerate_omegas: int = 0

    @property
    def all_found(self):
        return all(e.found for e in self.entries)


def theorem_witness(blocks, p_max: int, trials: int, seed: int = 0) -> WitnessReport:
    """Exhibit nonzero R^p omega components on a block shape.

    For every power p <= p_max and every seeded nondegenerate form draw,
    evaluate R^p omega once at 2p+2 Gaussian vectors drawn from the same
    generator (Schwartz-Zippel: nonzero with probability 1 exactly when the
    tensor is nonzero), reduce that probe one slot pair at a time to a unit
    pair (e_a, e_b), a < b (``reduce_to_basis``), and take the component's
    value from the basis-index recursion.  The probe and its reduction read
    one packing of omega, K = rho w, and the vectors (``pack_probe``).  A
    missing witness is reported as a finding, never silently dropped.  Raises
    OracleError unless p_max and trials are at least 1 (a search over
    nothing finds nothing), and where the probe or the component's value
    is not finite, which shows no vanishing; the search runs under one
    ``np.errstate``, so an overflow does not warn.
    """
    if p_max < 1:
        raise OracleError(f"witness power p_max {p_max} is below 1")
    if trials < 1:
        raise OracleError(f"witness trials {trials} is below 1")
    m = assemble(tuple(blocks))
    prov = AlgebraicCurvature(m)
    dim = m.dim
    entries = []
    degenerate = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for power in range(1, p_max + 1):
            for trial in range(trials):
                rng = np.random.default_rng((seed, power, trial))
                try:
                    w = random_omega(dim, rng)
                except ModelError:
                    degenerate += 1
                    entries.append(WitnessEntry(power, trial, False, (), 0.0, "degenerate"))
                    continue
                k_mat, pairs = pack_probe(prov, w, power,
                                          rng.standard_normal((2 * power + 2, dim)))
                value = float(pair_probe(prov, k_mat, pairs[None])[0])
                found = None
                if math.isfinite(value) and abs(value) > WITNESS_THRESHOLD:
                    args = reduce_to_basis(prov, k_mat, pairs, value)
                    value = r_power_action(prov, w, power, args)
                    if abs(value) > WITNESS_THRESHOLD:
                        found = WitnessEntry(power, trial, True, args, value, "probe")
                if not math.isfinite(value):
                    raise OracleError(f"witness at power {power}, trial {trial}: "
                                      f"R^{power} omega is not finite ({value})")
                entries.append(found if found is not None else
                               WitnessEntry(power, trial, False, (), 0.0, "exhausted"))
    return WitnessReport(tuple(blocks), p_max, trials, seed, tuple(entries), degenerate)


# -- rank theorem check --------------------------------------------------


@dataclass(frozen=True)
class RankVerdict:
    verdict: str            # PASS / FAIL / WARN / VACUOUS
    power: int
    max_r_power: float
    max_nabla: float | None
    rank_s: int
    final_form: str | None
    reason: str | None = None   # why a WARN is no FAIL


def check_rank_theorem(levels, s_op, h, nablas, tol: float = 1e-8) -> RankVerdict:
    """Tie the first vanishing operator power q <= p to the rank-one conclusion.

    ``levels`` = [R^1 omega, ..., R^p omega], p >= 1, packed, of a point or
    a Gauss model: the caller steps ``r_power_levels`` once, so levels past
    the first vanishing q are computed but not read.  ``s_op`` and ``h``
    are its shape operator and second fundamental form, ``nablas`` =
    [omega, nabla omega, ...] its omega chain, as far as it is known:
    check-geometry hands over ``nabla_powers`` of the point, a Gauss model
    [omega] alone.

    The scan stops at the first q at which R^q omega or nabla^q omega (for
    q < len(nablas)) vanishes.  R^q omega scales like
    (|S| |h|)^q |omega|, so it counts as vanishing when
    max |R^q omega| <= tol * (max |S| * max |h|)^q * max |omega| (an exact
    zero does so at S = 0), and nabla^q omega when max |nabla^q omega| <
    tol * max |omega|.  R^{q+1} omega = R.(R^q omega) vanishes with R^q
    omega, and nabla^{q+1} omega with nabla^q omega where that vanishes
    identically, so no power beyond q is needed.  Verdict PASS means the
    operator vanished at q and the shape conclusions hold, FAIL that R^q
    omega vanished and they do not, VACUOUS (reported at p) that neither
    operator vanished up to p.  WARN, with a ``reason``, is the case that
    only nabla^q omega vanished and the shape conclusions do not hold (a
    zero at one point does not make the field vanish identically, which the
    theorem assumes), or that (S, h) has no canonical form to check.
    """
    w = nablas[0]
    if not canonical.nondegenerate(w):
        raise OracleError("degenerate 2-form in rank check")
    p = len(levels)
    if p < 1:
        raise OracleError(f"rank check power {p} is below 1")

    rank_s = canonical.rank(s_op)
    scale = float(np.max(np.abs(s_op))) * float(np.max(np.abs(h)))
    w_max = float(np.max(np.abs(w)))
    for q, packed in enumerate(levels, start=1):
        max_r = float(np.max(np.abs(packed)))
        max_nabla = float(np.max(np.abs(nablas[q]))) if q < len(nablas) else None
        r_zero = max_r <= tol * scale ** q * w_max
        if r_zero or (max_nabla is not None and max_nabla < tol * w_max):
            break
    else:
        return RankVerdict("VACUOUS", p, max_r, max_nabla, rank_s, None)
    try:
        summary = canonical.classify(canonical.decompose(s_op, h))
    except canonical.CanonicalError as err:
        return RankVerdict("WARN", q, max_r, max_nabla, rank_s, None,
                           f"(S, h) has no canonical form: {err}")
    ok = rank_s <= 1 and summary.admissible_shape
    verdict, reason = ("PASS" if ok else "FAIL"), None
    if not ok and not r_zero:
        verdict, reason = "WARN", (
            f"pointwise zero of nabla^{q} omega: the theorem assumes "
            f"nabla^{q} omega = 0 as a field, which one point does not show")
    return RankVerdict(verdict, q, max_r, max_nabla, rank_s, summary.final_form,
                       reason)
