import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from affsym import geometry as geo
from affsym.jets import jet_space
from affsym.model import ComplexBlock, RealBlock, assemble
from affsym.scenarios import load_scenario, scenario_from_dict
from affsym.tensor_ops import (AlgebraicCurvature, GeometricCurvature, pack_two_form,
                               r_power_levels)
from test_verify import INADMISSIBLE


def _linear(coeffs, coords):
    """``sum c * coord`` over the nonzero c, or "0"; repr(float(c)), since a
    numpy scalar prints as np.float64(...), which the parser rejects."""
    terms = [f"{float(c)!r}*{x}" for c, x in zip(coeffs, coords) if c != 0]
    return " + ".join(terms) or "0"


def graph_twin(blocks, points, name="twin"):
    """The scenario dict of the graph twin of a block list: immersion
    (u, u^T H u / 2) and transversal (-S u, 1) for the (S, H) of
    ``assemble(blocks)``, with tridiagonal omega and a rank_theorem check.
    At u = 0 it induces S and h = H, with Gamma = 0 and tau = 0."""
    m = assemble(blocks)
    coords = [f"u{i}" for i in range(m.dim)]
    quadratic = [f"u{i}*u{j}" for i in range(m.dim) for j in range(m.dim)]
    return {
        "name": name, "dim": m.dim, "coords": coords,
        "immersion": coords + [_linear((0.5 * m.H).ravel(), quadratic)],
        "transversal": [_linear(-row, coords) for row in m.S] + ["1"],
        "omega": (np.eye(m.dim, k=1) - np.eye(m.dim, k=-1)).astype(int).tolist(),
        "sample_points": [list(p) for p in points],
        "checks": [{"name": "rank_theorem"}],
    }


def test_paraboloid_structure():
    sc = load_scenario("paraboloid")
    for point in sc.sample_points:
        st = geo.induced_structure(geo.structure_jets(sc, point, 1))
        assert np.max(np.abs(st.gamma)) == 0.0
        assert np.array_equal(st.h, 2.0 * np.eye(4))
        assert np.max(np.abs(st.S)) == 0.0
        assert np.max(np.abs(st.tau)) == 0.0
        assert np.max(np.abs(geo.curvature(st))) == 0.0


def test_worked_example_structure():
    sc = load_scenario("paper_example_n2")
    for point in sc.sample_points:
        x, y, z0, z1 = point
        st = geo.induced_structure(geo.structure_jets(sc, point, 1))
        expected_s = np.zeros((4, 4))
        expected_s[1, 0] = 1.0
        assert np.max(np.abs(st.S - expected_s)) < 1e-10
        assert np.max(np.abs(st.tau)) < 1e-10
        expected_h = np.zeros((4, 4))
        expected_h[0, 1] = expected_h[1, 0] = 1.0
        expected_h[2, 2] = x * y
        expected_h[3, 3] = y * math.sin(z0) / math.cos(z1)
        assert np.max(np.abs(st.h - expected_h) / np.maximum(1.0, np.abs(expected_h))) < 1e-9


def test_centroaffine_sphere_structure():
    sc = load_scenario("centroaffine_sphere")
    for point in sc.sample_points:
        t1, t2, t3, _ = point
        st = geo.induced_structure(geo.structure_jets(sc, point, 1))
        assert np.max(np.abs(st.S - np.eye(4))) < 1e-10
        assert np.max(np.abs(st.tau)) < 1e-10
        round_metric = np.diag([
            1.0, math.sin(t1) ** 2, (math.sin(t1) * math.sin(t2)) ** 2,
            (math.sin(t1) * math.sin(t2) * math.sin(t3)) ** 2])
        assert np.max(np.abs(st.h - round_metric)) < 1e-10
        # constant-curvature form of the Gauss rule with S = identity
        r = geo.curvature(st)
        expected = (np.einsum("jt,li->ltij", st.h, np.eye(4))
                    - np.einsum("it,lj->ltij", st.h, np.eye(4)))
        assert np.max(np.abs(r - expected)) < 1e-8


def test_fundamental_residuals_all_scenarios():
    for name in ("paraboloid", "paper_example_n2", "paper_example_n3",
                 "centroaffine_sphere"):
        sc = load_scenario(name)
        for point in sc.sample_points:
            st = geo.induced_structure(geo.structure_jets(sc, point, 1))
            res = geo.fundamental_residuals(st, geo.curvature(st))
            assert max(astuple(res)) < 1e-8, (name, point, res)


def test_gauss_model_equivalence():
    for name in ("paraboloid", "paper_example_n2", "paper_example_n3",
                 "centroaffine_sphere"):
        sc = load_scenario(name)
        for point in sc.sample_points:
            st = geo.induced_structure(geo.structure_jets(sc, point, 1))
            r = geo.curvature(st)
            assert np.max(np.abs(r - geo.gauss_curvature_tensor(st.S, st.h))) < 1e-8


def test_curvature_antisymmetry_and_gamma_symmetry():
    sc = load_scenario("paper_example_n3")
    st = geo.induced_structure(geo.structure_jets(sc, sc.sample_points[0], 1))
    assert np.max(np.abs(st.gamma - np.transpose(st.gamma, (0, 2, 1)))) == 0.0
    assert np.max(np.abs(st.h - st.h.T)) == 0.0
    r = geo.curvature(st)
    assert np.max(np.abs(r + np.transpose(r, (0, 1, 3, 2)))) < 1e-10


def test_frame_consistency():
    for name in ("paraboloid", "paper_example_n2", "centroaffine_sphere"):
        sc = load_scenario(name)
        for point in sc.sample_points:
            assert geo.frame_residual(geo.structure_jets(sc, point, 1)) < 1e-9


def test_locally_equiaffine_implies_h_selfadjoint():
    for name in ("paper_example_n2", "paper_example_n3", "centroaffine_sphere"):
        sc = load_scenario(name)
        for point in sc.sample_points:
            st = geo.induced_structure(geo.structure_jets(sc, point, 1))
            assert np.max(np.abs(st.dtau)) < 1e-10   # locally equiaffine
            hs = st.h @ st.S
            assert np.max(np.abs(hs - hs.T)) < 1e-9


def test_constraint_violation_is_named():
    sc = load_scenario("paper_example_n2")
    with pytest.raises(geo.ConstraintError) as err:
        geo.induced_structure(geo.structure_jets(sc, (0.0, 1.0, 0.5, 0.5), 1))
    assert err.value.name == "x_nonzero"


def test_induced_structure_needs_first_order_jets():
    sc = load_scenario("paraboloid")
    sj = geo.structure_jets(sc, sc.sample_points[0], 0)
    with pytest.raises(geo.GeometryError, match="needs structure jets of order >= 1"):
        geo.induced_structure(sj)


def test_singular_frame_rejected():
    coords = ("u1", "u2", "u3", "u4")
    # transversal lies in the tangent plane: frame is singular
    data = {
        "name": "bad", "dim": 4, "coords": list(coords),
        "immersion": ["u1", "u2", "u3", "u4", "u1^2"],
        "transversal": ["1", "0", "0", "0", "0"],
        "omega": [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]],
        "sample_points": [[0.0, 0.0, 0.0, 0.0]],
    }
    with pytest.raises(geo.SingularFrameError):
        scenario_from_dict(data).validate(0)


def test_jet_domain_error_propagates():
    data = {
        "name": "dom", "dim": 4, "coords": ["a", "b", "c", "d"],
        "immersion": ["a", "b", "c", "d", "ln(a)"],
        "transversal": ["0", "0", "0", "0", "1"],
        "omega": [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]],
        "sample_points": [[-1.0, 0.0, 0.0, 0.0]],
    }
    from affsym.jets import JetDomainError
    with pytest.raises(JetDomainError):
        scenario_from_dict(data).validate(0)


def test_structure_jets_carry_gamma_partials():
    # dGamma from the order-1 solve matches central differences of Gamma
    sc = load_scenario("centroaffine_sphere")
    point = sc.sample_points[0]
    st = geo.induced_structure(geo.structure_jets(sc, point, 1))
    h = 1e-5
    for axis in (0, 2):
        up = list(point)
        dn = list(point)
        up[axis] += h
        dn[axis] -= h
        fd = (geo.induced_structure(geo.structure_jets(sc, up, 1)).gamma
              - geo.induced_structure(geo.structure_jets(sc, dn, 1)).gamma) / (2 * h)
        assert np.max(np.abs(st.dgamma[axis] - fd)) < 1e-7


def _general_family(n, epsilons):
    """The sine-curve immersion family at arbitrary n (dim 2n)."""
    dim = 2 * n
    coords = ["x", "y"] + [f"z{i}" for i in range(dim - 2)]
    terms = {0: ["x*sin(z0)"]}
    for i, eps in enumerate(epsilons, start=1):
        terms.setdefault(i - 1, []).append(
            ("+ " if eps > 0 else "- ") + f"cos(z{i})")
        terms.setdefault(i, []).append(("" if eps > 0 else "-") + f"sin(z{i})")
    immersion = ["-y*sin(x)", "y*cos(x)", "x*cos(z0)"]
    immersion += [" ".join(terms.get(i, ["0"])) for i in range(dim - 2)]
    omega = [[1.0 if j == i + 1 else (-1.0 if j == i - 1 else 0.0)
              for j in range(dim)] for i in range(dim)]
    return scenario_from_dict({
        "name": f"family_n{n}", "dim": dim, "coords": coords,
        "immersion": immersion,
        "transversal": ["-cos(x)", "-sin(x)"] + ["0"] * (dim - 1),
        "omega": omega,
        "sample_points": [[1.0, 2.0] + [0.3 + 0.1 * i for i in range(dim - 2)]],
    })


def test_family_generalizes_to_higher_dimension():
    sc = _general_family(4, (1, -1, 1, -1, 1))
    point = sc.sample_points[0]
    st = geo.induced_structure(geo.structure_jets(sc, point, 1))
    expected_s = np.zeros((8, 8))
    expected_s[1, 0] = 1.0
    assert np.max(np.abs(st.S - expected_s)) < 1e-10
    assert np.max(np.abs(st.tau)) < 1e-10
    res = geo.fundamental_residuals(st, geo.curvature(st))
    assert max(astuple(res)) < 1e-8


def test_structure_solve_at_dimension_twelve():
    dim = 12
    coords = [f"u{i}" for i in range(1, dim + 1)]
    sq = " + ".join(f"u{i}^2" for i in range(1, dim + 1))
    omega = [[1.0 if j == i + 1 else (-1.0 if j == i - 1 else 0.0)
              for j in range(dim)] for i in range(dim)]
    sc = scenario_from_dict({
        "name": "paraboloid12", "dim": dim, "coords": coords,
        "immersion": coords + [sq],
        "transversal": ["0"] * dim + ["1"],
        "omega": omega,
        "sample_points": [[0.05 * i for i in range(1, dim + 1)]],
    })
    st = geo.induced_structure(geo.structure_jets(sc, sc.sample_points[0], 1))
    assert np.array_equal(st.h, 2.0 * np.eye(dim))
    assert max(astuple(geo.fundamental_residuals(st, geo.curvature(st)))) < 1e-12


def _random_matrix(n, seed, kind, scale):
    """An n x n matrix: Gaussian, small integers (ties between pivot
    candidates), or Gaussian with about half its entries zero."""
    rng = np.random.default_rng(seed)
    if kind == "integers":
        a = rng.integers(-3, 4, size=(n, n)).astype(float)
    else:
        a = rng.normal(size=(n, n))
        if kind == "sparse":
            a[rng.random((n, n)) < 0.5] = 0.0
    return np.ldexp(a, scale)


def _unpack(lu, piv):
    """L, U and the row order of P A from the packed factors."""
    n = len(lu)
    order = np.arange(n)
    for i, p in enumerate(piv):
        order[[i, p]] = order[[p, i]]
    return np.tril(lu, -1) + np.eye(n), np.triu(lu), order


@settings(max_examples=200, deadline=None)
@given(hst.integers(2, 15), hst.integers(0, 2 ** 32 - 1),
       hst.sampled_from(("normal", "integers", "sparse")), hst.integers(-30, 30))
def test_lu_factor_is_partial_pivoting(n, seed, kind, scale):
    a = _random_matrix(n, seed, kind, scale)
    assume(np.linalg.cond(a) <= geo.FRAME_COND_LIMIT)
    lu, piv = geo._lu_factor(a)
    low, up, order = _unpack(lu, piv)
    size = np.max(np.abs(a))
    assert np.all(np.abs(np.tril(lu, -1)) <= 1.0)
    # at step i the pivot is the largest entry of column i of what is left
    # of P A after steps 0..i-1, recomputed here from the factors
    pa = a[order]
    for i in range(n):
        assert i <= piv[i] < n
        left = pa[i:, i] - low[i:, :i] @ up[:i, i]
        assert abs(up[i, i]) >= np.max(np.abs(left)) - 1e-13 * size
    assert np.max(np.abs(pa - low @ up)) <= 1e-13 * size


@settings(max_examples=60, deadline=None)
@given(hst.integers(1, 3), hst.integers(0, 2), hst.integers(2, 8),
       hst.integers(1, 4), hst.integers(0, 2 ** 32 - 1))
def test_graded_solve_matches_dense_solve(dim, order, n, k, seed):
    space = jet_space(dim, order)
    rng = np.random.default_rng(seed)
    # a well-conditioned constant term whose rows need pivoting
    frame = rng.normal(size=(space.size, n, n))
    frame[0] = (np.diag(rng.uniform(2.0, 4.0, n))
                + 0.3 * frame[0])[rng.permutation(n)]
    rhs = rng.normal(size=(space.size, n, k))
    sol = geo._graded_solve(space, frame, rhs)
    # the graded system as one dense linear map, column by column
    dense = np.empty((space.size * n, space.size * n))
    for col in range(space.size * n):
        unit = np.zeros((space.size * n, 1))
        unit[col] = 1.0
        dense[:, col] = space.einsum(
            "rs,sk->rk", frame, unit.reshape(space.size, n, 1)).ravel()
    ref = np.linalg.solve(dense, rhs.reshape(space.size * n, k))
    ref = ref.reshape(space.size, n, k)
    for c in range(space.size):
        assert np.max(np.abs(sol[c] - ref[c])) <= \
            1e-12 * max(1.0, np.max(np.abs(ref[c])))


def test_lu_factor_names_the_zero_pivot():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]])
    with pytest.raises(geo.SingularFrameError, match="zero pivot in column 1"):
        geo._lu_factor(a)
    with pytest.raises(geo.SingularFrameError, match="zero pivot in column 0"):
        geo._lu_factor(np.zeros((3, 3)))


# 0 twice, so that zero eigenvalues, and with them rank-deficient S, are common
_EIGENVALUES = hst.sampled_from([-2.1, -0.8, 0.0, 0.0, 0.6, 1.3])


@hst.composite
def twin_blocks(draw):
    """Block lists of even dim 4 to 8: real blocks of size 1 to 4 with grid
    eigenvalues (0 among them) and either sip sign, complex blocks of
    half-size 1 to 2."""
    left, blocks = draw(hst.sampled_from((4, 6, 8))), []
    while left:
        if left >= 2 and draw(hst.booleans()):
            half = draw(hst.integers(1, min(2, left // 2)))
            blocks.append(ComplexBlock(half, draw(hst.sampled_from((-1.0, 0.0, 0.9))),
                                       draw(hst.sampled_from((0.7, 1.6)))))
            left -= 2 * half
        else:
            size = draw(hst.integers(1, min(4, left)))
            blocks.append(RealBlock(size, draw(_EIGENVALUES),
                                    draw(hst.sampled_from((1, -1)))))
            left -= size
    return blocks


def _assert_twin_is_exact(blocks):
    """The geometric half (jets, frame solve, Gamma/h/S/tau, R) and the
    algebraic half (AlgebraicCurvature of the blocks) agree exactly at the
    twin's origin, and so do the rank check's R-side maxima."""
    m = assemble(blocks)
    sc = scenario_from_dict(graph_twin(blocks, []))
    sj = geo.structure_jets(sc, (0.0,) * m.dim, 2)
    assert np.array_equal(sj.S[0], m.S) and np.array_equal(sj.h[0], m.H)
    assert not np.any(sj.gamma[0])
    r = geo.curvature(geo.induced_structure(sj))
    algebraic = AlgebraicCurvature(m)
    assert np.array_equal(r, algebraic.full_tensor())
    w = pack_two_form(np.eye(m.dim, k=1) - np.eye(m.dim, k=-1), m.dim)
    maxima = [[float(np.max(np.abs(t))) for t in r_power_levels(prov, w, 3)]
              for prov in (GeometricCurvature(r), algebraic)]
    assert maxima[0] == maxima[1]


@settings(max_examples=40, deadline=None)
@given(twin_blocks())
def test_twin_induces_its_block_model_exactly(blocks):
    _assert_twin_is_exact(blocks)


def test_criterion_5_twins_induce_their_block_models_exactly():
    for blocks in INADMISSIBLE.values():
        _assert_twin_is_exact(blocks)
