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

from .canonical import H_RCOND_MIN
from .jets import component_jets, eval_jets, jet_space

#: frames with condition number beyond this are rejected
FRAME_COND_LIMIT = 1e12

#: a 2-form with |det| below this counts as degenerate
OMEGA_DET_MIN = 1e-12

#: a 2-form with |w + w^T| above this counts as not antisymmetric
OMEGA_ANTISYM_TOL = 1e-10


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
    checks: tuple = field(default=())
    digest: str = ""        # sha256 of the bytes load_scenario parsed, if it did

    def check_constraints(self, point):
        for name, e in self.constraints:
            [value] = eval_jets([e], point, 0, self.coords, labels=[f"constraint '{name}'"])
            if value[0] <= 0.0:
                raise ConstraintError(name, point)

    def validate(self, order: int) -> tuple:
        """Reject bad sample points up front: constraints, frame,
        degenerate h, antisymmetry, degenerate omega.

        The constraint and frame checks are one structure solve per point,
        to ``order``; the solves are returned in sample-point order, so a
        caller that validates at the order its checks need solves each
        point once.
        """
        solved = []
        for pt in self.sample_points:
            # raises ConstraintError or SingularFrameError if bad
            sj = structure_jets(self, pt, order)
            solved.append(sj)
            # the singularity test canonical.decompose applies to h
            if 1.0 / np.linalg.cond(sj.h[0]) <= H_RCOND_MIN:
                raise GeometryError(
                    f"h degenerate at sample point {tuple(pt)}: "
                    f"1/cond at or below {H_RCOND_MIN:g}")
            w = component_jets(self.omega, pt, 0, self.coords)[0]
            if np.max(np.abs(w + w.T)) > OMEGA_ANTISYM_TOL:
                raise GeometryError(
                    f"omega not antisymmetric at sample point {tuple(pt)}")
            if not abs(np.linalg.det(w)) >= OMEGA_DET_MIN:
                raise GeometryError(
                    f"omega degenerate at sample point {tuple(pt)}: "
                    f"|det| below {OMEGA_DET_MIN:g}")
        return tuple(solved)


class StructureJets:
    """Gamma, h, S, tau at one point of a scenario as jet coefficient arrays.

    Each array carries the coefficient axis of ``jet_space(dim, order)``
    first: ``gamma[c, k, i, j]`` is coefficient c of Gamma^k_ij,
    ``S[c, k, i]`` of S^k_i, and ``h[c, i, j]``, ``tau[c, i]`` likewise.
    ``frame`` holds the frame matrix {d_1 f, ..., d_n f, xi} and ``rhs`` the
    stacked right-hand sides (d_i d_j f for i <= j, then d_i xi), both as
    coefficient arrays.
    """

    def __init__(self, scenario, point, order):
        n = scenario.dim
        coords = scenario.coords
        self.scenario = scenario
        self.point = tuple(float(v) for v in point)
        self.dim = n
        self.order = order

        # one pass over the immersion and transversal: f to order+2, xi to
        # order+1, each shared subtree evaluated once
        nf, nxi = len(scenario.immersion), len(scenario.transversal)
        jets = eval_jets([*scenario.immersion, *scenario.transversal], point,
                         order + 2, coords, keep=[order + 2] * nf + [order + 1] * nxi,
                         labels=[f"immersion[{i}]" for i in range(nf)]
                         + [f"transversal[{i}]" for i in range(nxi)])
        if nf != n + 1 or nxi != n + 1:
            raise GeometryError("immersion/transversal must have 2n+1 components")

        space = jet_space(n, order)
        up = jet_space(n, order + 1)
        f = np.stack(jets[:nf], axis=1)
        xi = np.stack(jets[nf:], axis=1)
        df = [jet_space(n, order + 2).partial(f, j) for j in range(n)]
        iu = np.triu_indices(n)
        self.frame = np.stack(df + [xi], axis=2)[: space.size]
        self.rhs = np.stack([up.partial(df[i], j) for i, j in zip(*iu)]
                            + [up.partial(xi, i) for i in range(n)], axis=2)

        f0 = self.frame[0]
        self.cond = float(np.linalg.cond(f0))
        if not np.isfinite(self.cond) or self.cond > FRAME_COND_LIMIT:
            raise SingularFrameError(
                f"frame condition {self.cond:.3e} at point {self.point}")
        sol = _graded_solve(space, self.frame, self.rhs)

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
    factored once; the coefficients of each degree subtract the jet product
    of the frame's higher terms with the lower-degree solution found so far.
    """
    lu, piv = _lu_factor(frame[0])
    higher = frame.copy()
    higher[0] = 0.0
    sol = np.zeros_like(rhs)
    lo = 0
    for hi in space.prefix:
        acc = rhs[lo:hi] - space.einsum("rs,sk->rk", higher, sol)[lo:hi]
        # one column per (coefficient, right-hand side) pair
        x = np.moveaxis(acc, 1, 0).reshape(acc.shape[1], -1)
        for i, p in enumerate(piv):
            x[[i, p]] = x[[p, i]]
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


@dataclass(frozen=True)
class InducedStructure:
    """Pointwise induced data; gamma[k,i,j] = Gamma^k_ij, dgamma[l,...] its d_l."""

    point: tuple
    gamma: np.ndarray
    dgamma: np.ndarray
    h: np.ndarray
    S: np.ndarray
    tau: np.ndarray
    dtau: np.ndarray
    dh: np.ndarray
    dS: np.ndarray
    cond: float


def induced_structure(sj: StructureJets) -> InducedStructure:
    """Pointwise values and first partials of the induced structure, read
    from a solved StructureJets of order >= 1."""
    if sj.order < 1:
        raise GeometryError("the induced structure needs structure jets of order >= 1")
    index_of = jet_space(sj.dim, sj.order).index_of
    units = [index_of[tuple(int(a == l) for a in range(sj.dim))]
             for l in range(sj.dim)]
    dtau_src = sj.tau[units]  # dtau_src[l, i] = d_l tau_i
    return InducedStructure(
        point=sj.point,
        gamma=sj.gamma[0],
        dgamma=sj.gamma[units],
        h=sj.h[0],
        S=sj.S[0],
        tau=sj.tau[0],
        dtau=dtau_src - dtau_src.T,  # dtau[i, j] = d_i tau_j - d_j tau_i
        dh=sj.h[units],
        dS=sj.S[units],
        cond=sj.cond,
    )


def curvature(st: InducedStructure) -> np.ndarray:
    """R[l, t, i, j], the d_l component of R(d_i, d_j) d_t."""
    g, dg = st.gamma, st.dgamma
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


def fundamental_residuals(st: InducedStructure, r: np.ndarray) -> FundamentalResiduals:
    """Max-abs residuals of the four structural identities, given the
    structure's ``curvature`` ``r``.

    These hold exactly for any induced structure, so the residuals measure
    only numerical error of the frame solve and differentiation.
    """
    g, h, s_op, tau = st.gamma, st.h, st.S, st.tau

    gauss = float(np.max(np.abs(r - gauss_curvature_tensor(s_op, h))))

    nabla_h = st.dh - np.einsum("mij,mk->ijk", g, h) - np.einsum("mik,jm->ijk", g, h)
    cod_h = nabla_h + np.einsum("i,jk->ijk", tau, h)
    codazzi_h = float(np.max(np.abs(cod_h - np.transpose(cod_h, (1, 0, 2)))))

    nabla_s = st.dS + np.einsum("kim,mj->ikj", g, s_op) - np.einsum("mij,km->ikj", g, s_op)
    cod_s = nabla_s - np.einsum("i,kj->ikj", tau, s_op)
    codazzi_s = float(np.max(np.abs(cod_s - np.transpose(cod_s, (2, 1, 0)))))

    # h(X, SY) - h(SX, Y) = (d_i tau_j - d_j tau_i); the shipped scenarios
    # all have tau = 0, see the ledger for the convention note.
    hs = h @ s_op
    ricci = float(np.max(np.abs(hs - hs.T - st.dtau)))

    return FundamentalResiduals(gauss, codazzi_h, codazzi_s, ricci)


def frame_residual(sj: StructureJets) -> float:
    """Relative reconstruction error of the two splitting formulas."""
    n = sj.dim
    frame, rhs = sj.frame[0], sj.rhs[0]
    iu = np.triu_indices(n)
    coeffs = np.concatenate([
        np.vstack([sj.gamma[0][:, iu[0], iu[1]], sj.h[0][iu]]),
        np.vstack([-sj.S[0], sj.tau[0]])], axis=1)
    err = np.max(np.abs(rhs - frame @ coeffs), axis=0)
    return float(np.max(err / np.maximum(1.0, np.max(np.abs(rhs), axis=0))))
