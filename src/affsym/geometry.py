"""Induced affine structure of a parametrized hypersurface.

Given an immersion f: U in R^(2n) -> R^(2n+1) and a transversal field xi,
the flat ambient derivative splits along the moving frame
{d_1 f, ..., d_2n f, xi}:

    d_i d_j f = Gamma^k_ij d_k f + h_ij xi
    d_i xi    = -S^k_i d_k f + tau_i xi

Both splittings come from one solve against the frame matrix, with every
right-hand side stacked.  Carrying the solve over jet coefficient arrays
(the constant-term LU is factored once, higher coefficients follow degree
by degree from the jet product) yields the coordinate partials of Gamma,
h, S, tau to roundoff, with no step-size tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .canonical import RCOND_MIN, nondegenerate, symmetric
from .jets import component_jets, eval_jets, jet_space

#: frames with condition number beyond this are rejected
FRAME_COND_LIMIT = 1e12


class GeometryError(ValueError):
    pass


class SingularFrameError(GeometryError):
    pass


class ConstraintError(GeometryError):
    def __init__(self, name, point):
        super().__init__(f"constraint '{name}' violated at sample point {tuple(point)}")
        self.name = name
        self.point = tuple(point)


@dataclass(frozen=True, eq=False)
class Scenario:
    """An immersion-with-transversal plus the data needed to check it."""

    name: str
    dim: int
    coords: tuple
    immersion: tuple        # 2n+1 expressions
    transversal: tuple      # 2n+1 expressions
    omega: np.ndarray       # (2n, 2n) object array of expressions / floats
    sample_points: tuple
    constraints: tuple = field(default=())   # (name, expression) pairs, require > 0
    checks: tuple = field(default=())     # resolved by scenario_from_dict
    jet_order: int = 1      # the structure jet order the checks need
    r_power: int = 0        # the top power of the R^q omega ladder they read
    digest: str = ""        # sha256 of the bytes load_scenario parsed, if it did

    def check_constraints(self, point):
        for name, e in self.constraints:
            [value] = eval_jets([e], point, 0, self.coords, labels=[f"constraint '{name}'"])
            if value[0] <= 0.0:
                raise ConstraintError(name, point)

    def validate(self, order: int) -> tuple:
        """Reject bad sample points up front: constraints, frame,
        degenerate h, omega not finite, antisymmetry, degenerate omega.

        Each point is solved once, to ``order``, and its omega evaluated
        once, to ``order + 1`` (``component_jets``): the orders its checks
        read.  Returns each point's (StructureJets, omega jets) in order.
        """
        solved = []
        for pt in self.sample_points:
            # raises ConstraintError or SingularFrameError if bad
            sj = structure_jets(self, pt, order)
            at = f"at sample point {tuple(pt)}"
            # the one nondegeneracy and (anti)symmetry tests, which decompose
            # applies to H
            if not nondegenerate(sj.h[0]):
                raise GeometryError(f"h degenerate {at}: 1/cond at or below {RCOND_MIN:g}")
            omega = component_jets(self.omega, pt, order + 1, self.coords)
            w = omega[0]
            if not symmetric(w, -1):
                raise GeometryError(f"omega not antisymmetric {at}")
            if not nondegenerate(w):
                raise GeometryError(f"omega degenerate {at}: 1/cond at or below {RCOND_MIN:g}")
            solved.append((sj, omega))
        return tuple(solved)


class StructureJets:
    """Gamma, h, S, tau at one point of a scenario as jet coefficient arrays.

    Each array carries the coefficient axis of ``jet_space(dim, order)``
    first: ``gamma[c, k, i, j]`` is coefficient c of Gamma^k_ij,
    ``S[c, k, i]`` of S^k_i, and ``h[c, i, j]``, ``tau[c, i]`` likewise.
    ``frame`` holds the frame matrix {d_1 f, ..., d_n f, xi} and ``rhs`` the
    stacked right-hand sides (d_i d_j f for i <= j, then d_i xi), both as
    coefficient arrays, and ``solution`` the solve's order-0 coefficient.
    The scenario is read while solving, not kept.
    """

    def __init__(self, scenario, point, order):
        n = scenario.dim
        self.point = tuple(float(v) for v in point)
        self.dim = n
        self.order = order

        # one pass over the immersion and transversal: f to order+2, xi to
        # order+1, each shared subtree evaluated once
        nf, nxi = len(scenario.immersion), len(scenario.transversal)
        jets = eval_jets([*scenario.immersion, *scenario.transversal], point, order + 2,
                         scenario.coords, keep=[order + 2] * nf + [order + 1] * nxi,
                         labels=[f"immersion[{i}]" for i in range(nf)]
                         + [f"transversal[{i}]" for i in range(nxi)])
        if nf != n + 1 or nxi != n + 1:
            raise GeometryError("immersion/transversal must have 2n+1 components")

        space = jet_space(n, order)
        up = jet_space(n, order + 1)
        f = np.stack(jets[:nf], axis=1)
        # frame[c, r, j]: d_j f_r for j < n and xi_r for j = n, to order + 1
        frame = np.empty((up.size, n + 1, n + 1))
        frame[:, :, :n] = np.moveaxis(jet_space(n, order + 2).gradient(f), 1, 2)
        frame[:, :, n] = np.stack(jets[nf:], axis=1)
        self.frame = frame[: space.size]
        # rhs column p is d_j of frame column i: d_i d_j f_r over i <= j, then
        # d_i xi_r; one gather over the stacked partial map of order + 1
        iu = np.triu_indices(n)
        along = np.concatenate([iu[1], np.arange(n)])
        column = np.concatenate([iu[0], np.full(n, n)])
        src, scale = up.gradient_map
        self.rhs = scale[:, None, along] * frame[src[:, None, along],
                                                 np.arange(n + 1)[:, None], column]

        self.cond = float(np.linalg.cond(self.frame[0]))
        if not np.isfinite(self.cond) or self.cond > FRAME_COND_LIMIT:
            raise SingularFrameError(
                f"frame condition {self.cond:.3e} at point {self.point}")
        # a solution past the double range is refused below, so it does not warn
        with np.errstate(over="ignore", invalid="ignore"):
            sol = _graded_solve(space, self.frame, self.rhs)
        if not np.isfinite(sol).all():
            raise GeometryError(
                f"Gamma, h, S or tau is not finite at sample point {self.point}")

        self.solution = sol[0]
        npairs = len(iu[0])
        self.gamma = np.empty((space.size, n, n, n))
        self.gamma[:, :, iu[0], iu[1]] = sol[:, :n, :npairs]
        self.gamma[:, :, iu[1], iu[0]] = sol[:, :n, :npairs]
        self.h = np.empty((space.size, n, n))
        self.h[:, iu[0], iu[1]] = sol[:, n, :npairs]
        self.h[:, iu[1], iu[0]] = sol[:, n, :npairs]
        self.S = -sol[:, :n, npairs:]
        self.tau = sol[:, n, npairs:]


def _lu_factor(a):
    """Partial-pivoting LU of a square matrix, packed as LAPACK's getrf
    packs it: U on and above the diagonal, the unit-lower L below it, and
    ``piv[i]`` the row swapped with row i at step i.

    Each multiplier is a quotient by the pivot, rounded once, not a
    product with its reciprocal.  Plain lists: at frame sizes a numpy row
    update costs more in calls than in arithmetic.
    """
    lu = np.asarray(a, dtype=float).tolist()
    n = len(lu)
    piv = []
    for i in range(n):
        p = max(range(i, n), key=lambda r: abs(lu[r][i]))
        if lu[p][i] == 0.0:
            raise SingularFrameError(f"frame has a zero pivot in column {i}")
        piv.append(p)
        lu[i], lu[p] = lu[p], lu[i]
        top = lu[i]
        for row in lu[i + 1:]:
            m = row[i] = row[i] / top[i]
            for j in range(i + 1, n):
                row[j] -= m * top[j]
    return np.array(lu), piv


def _graded_solve(space, frame, rhs):
    """Solve frame @ sol = rhs for jet coefficient arrays, degree by degree.

    frame: (ncoeff, N, N); rhs: (ncoeff, N, K).  The constant-term frame is
    factored once, its row swaps composed into one permutation; the
    coefficients of degree d subtract the jet product of the frame's higher
    terms with the lower-degree solution found so far, formed in
    ``jet_space(dim, d)``, whose coefficients end at degree d.
    """
    lu, piv = _lu_factor(frame[0])
    perm = list(range(len(piv)))
    for i, p in enumerate(piv):
        perm[i], perm[p] = perm[p], perm[i]
    higher = frame.copy()
    higher[0] = 0.0
    sol = np.zeros_like(rhs)
    lo = 0
    for d, hi in enumerate(space.prefix):
        acc = rhs[lo:hi] - jet_space(space.dim, d).einsum("rs,sk->rk", higher, sol)[lo:]
        # one column per (coefficient, right-hand side) pair, rows pivoted
        x = np.moveaxis(acc, 1, 0)[perm].reshape(acc.shape[1], -1)
        for i in range(1, len(x)):
            x[i] -= lu[i, :i] @ x[:i]
        # divide by the pivots: a batched triangular solve multiplies by
        # their reciprocals, which makes exact solutions (h = 2 Id on a
        # paraboloid) inexact in the last bit
        for i in range(len(x) - 1, -1, -1):
            x[i] = (x[i] - lu[i, i + 1:] @ x[i + 1:]) / lu[i, i]
        sol[lo:hi] = np.moveaxis(x.reshape(acc.shape[1], hi - lo, -1), 0, 1)
        lo = hi
    return sol


def structure_jets(scenario, point, order: int) -> StructureJets:
    scenario.check_constraints(point)
    return StructureJets(scenario, point, order)


def first_partials(sj: StructureJets, coeffs) -> np.ndarray:
    """First partials at the point of one of ``sj.gamma``, ``sj.h``,
    ``sj.S``, ``sj.tau``: its degree-1 coefficients, d_l on a leading axis l."""
    if sj.order < 1:
        raise GeometryError("the induced structure needs structure jets of order >= 1")
    # gradient_map src[0, l] is coordinate l's degree-1 coefficient
    return coeffs[jet_space(sj.dim, sj.order).gradient_map[0][0]]


def curvature(sj: StructureJets) -> np.ndarray:
    """R[l, t, i, j], the d_l component of R(d_i, d_j) d_t."""
    g, dg = sj.gamma[0], first_partials(sj, sj.gamma)
    term1 = np.transpose(dg, (1, 3, 0, 2))   # d_i Gamma^l_{jt}
    term2 = np.transpose(dg, (1, 3, 2, 0))   # d_j Gamma^l_{it}
    term3 = np.einsum("lim,mjt->ltij", g, g)
    term4 = np.einsum("ljm,mit->ltij", g, g)
    return term1 - term2 + term3 - term4


def gauss_curvature_tensor(s_op, h) -> np.ndarray:
    """Algebraic curvature of a pointwise (S, h) pair, same index layout."""
    return np.einsum("jt,li->ltij", h, s_op) - np.einsum("it,lj->ltij", h, s_op)


@dataclass(frozen=True)
class FundamentalResiduals:
    gauss: float
    codazzi_h: float
    codazzi_s: float
    ricci: float
    dtau: float             # max |d_i tau_j - d_j tau_i|
    h_selfadjoint: float    # max |h S - (h S)^T|


def fundamental_residuals(sj: StructureJets, r: np.ndarray) -> FundamentalResiduals:
    """Max-abs residuals of the four structural identities at the point of
    a solved ``sj`` (order >= 1), given its ``curvature`` ``r``, beside the
    max-abs of both sides of the Ricci identity (``dtau``, ``h_selfadjoint``).

    The identities hold exactly for any induced structure, so the residuals
    measure only numerical error of the frame solve and differentiation.
    """
    g, h, s_op, tau = sj.gamma[0], sj.h[0], sj.S[0], sj.tau[0]
    dh, ds = first_partials(sj, sj.h), first_partials(sj, sj.S)

    gauss = float(np.max(np.abs(r - gauss_curvature_tensor(s_op, h))))

    nabla_h = dh - np.einsum("mij,mk->ijk", g, h) - np.einsum("mik,jm->ijk", g, h)
    cod_h = nabla_h + np.einsum("i,jk->ijk", tau, h)
    codazzi_h = float(np.max(np.abs(cod_h - np.transpose(cod_h, (1, 0, 2)))))

    nabla_s = ds + np.einsum("kim,mj->ikj", g, s_op) - np.einsum("mij,km->ikj", g, s_op)
    cod_s = nabla_s - np.einsum("i,kj->ikj", tau, s_op)
    codazzi_s = float(np.max(np.abs(cod_s - np.transpose(cod_s, (2, 1, 0)))))

    # Ricci: h(X, SY) - h(SX, Y) = dtau(X, Y), with dtau(X, Y) =
    # X tau(Y) - Y tau(X) - tau([X, Y]) (no factor 1/2), so on coordinate
    # fields (h S - (h S)^T)_ij = d_i tau_j - d_j tau_i
    hs, d = h @ s_op, first_partials(sj, sj.tau)   # d[l, i] = d_l tau_i
    selfadj, dtau = hs - hs.T, d - d.T
    ricci = float(np.max(np.abs(selfadj - dtau)))

    return FundamentalResiduals(gauss, codazzi_h, codazzi_s, ricci,
                                float(np.max(np.abs(dtau))), float(np.max(np.abs(selfadj))))


def frame_residual(sj: StructureJets) -> float:
    """Relative reconstruction error of the two splitting formulas."""
    rhs = sj.rhs[0]
    err = np.max(np.abs(rhs - sj.frame[0] @ sj.solution), axis=0)
    return float(np.max(err / np.maximum(1.0, np.max(np.abs(rhs), axis=0))))
