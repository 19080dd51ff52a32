import itertools
import math
import struct
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from affsym import geometry as geo
from affsym.model import (ComplexBlock, GaussModel, RealBlock, assemble,
                          direct_sum, random_omega)
from affsym.scenarios import BUILTIN_NAMES, load_scenario
from affsym.expr import parse_expr
from affsym.jets import component_jets
from affsym.tensor_ops import (CANDIDATE_BATCH, K_CAP_GEOMETRIC, AlgebraicCurvature,
                               ArityError, GeometricCurvature, RecursionCapError,
                               _pack_pairs, _pairs, alternating_sum_identity,
                               nabla_powers, pack_probe, pack_two_form, pair_probe,
                               r_power_action, r_power_levels, reduce_to_basis)

pytestmark = pytest.mark.contract


def tridiagonal_omega(dim):
    """Test form: antisymmetric, superdiagonal ones, Pfaffian 1."""
    return np.eye(dim, k=1) - np.eye(dim, k=-1)


def _omega_at(sc, point):
    return component_jets(sc.omega, point, 0, sc.coords)[0]


def _nablas(field, sc, sj, k):
    """nabla_powers of a field of numbers and expressions over the
    coordinates of ``sc``, from its jets at the point of ``sj``."""
    return nabla_powers(component_jets(field, sj.point, k, sc.coords), sj, k)


def _model():
    return assemble([RealBlock(2, 0.7, 1), RealBlock(1, -0.4, -1),
                     RealBlock(1, 1.2, 1)])


def test_k_zero_is_identity():
    m = _model()
    prov = AlgebraicCurvature(m)
    w = tridiagonal_omega(4)
    for i in range(4):
        for j in range(4):
            assert r_power_action(prov, w, 0, (i, j)) == w[i, j]


def test_arity_checks():
    prov = AlgebraicCurvature(_model())
    w = tridiagonal_omega(4)
    with pytest.raises(ArityError):
        r_power_action(prov, w, 1, (0, 1, 2))
    with pytest.raises(RecursionCapError):
        r_power_action(prov, w, 9, tuple(0 for _ in range(20)))
    # basis indices only: an index outside 0..3 is not read as w[3, 2]
    # or left to a bare IndexError, and a vector goes to the pair kernel
    for arg, kind in ((-1, "int"), (4, "int"), (np.int64(7), "int64"), (True, "bool"),
                      (2.0, "float"), (np.ones(4), "ndarray"),
                      (np.ones((20, 20)), "ndarray"), ([0, 1], "list")):
        for k in (0, 1):
            args = [0] * (2 * k + 2)
            args[-1] = arg
            with pytest.raises(ArityError) as err:
                r_power_action(prov, w, k, tuple(args))
            assert str(err.value) == f"argument {2 * k + 1} ({kind}) is not a basis index in 0..3"
    assert r_power_action(prov, w, 0, (np.int64(1), np.int32(2))) == w[1, 2]


def test_pair_swap_negates_exactly():
    prov = AlgebraicCurvature(_model())
    rng = np.random.default_rng(2)
    w = rng.uniform(-1, 1, (4, 4))
    w = w - w.T
    for _ in range(50):
        k = int(rng.integers(1, 4))
        args = tuple(int(v) for v in rng.integers(0, 4, size=2 * k + 2))
        base = r_power_action(prov, w, k, args)
        for pair in range(k):
            swapped = list(args)
            swapped[2 * pair], swapped[2 * pair + 1] = \
                swapped[2 * pair + 1], swapped[2 * pair]
            assert r_power_action(prov, w, k, tuple(swapped)) == -base


def test_multilinearity():
    # at vectors R^k omega is the pair kernel's; linear in each slot, it is
    # the combination of the basis-index recursion's values
    prov = AlgebraicCurvature(_model())
    rng = np.random.default_rng(3)
    w = rng.uniform(-1, 1, (4, 4))
    w = w - w.T
    e = np.eye(4)
    for _ in range(20):
        k = int(rng.integers(1, 3))
        args = [int(v) for v in rng.integers(0, 4, size=2 * k + 2)]
        slot = int(rng.integers(0, len(args)))
        i, j = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        c1, c2 = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        rows = e[args]
        rows[slot] = c1 * e[i] + c2 * e[j]
        a1 = list(args)
        a1[slot] = i
        a2 = list(args)
        a2[slot] = j
        ref = c1 * r_power_action(prov, w, k, a1) + c2 * r_power_action(prov, w, k, a2)
        assert abs(_probe(prov, w, k, rows) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_memoized_matches_plain_bit_for_bit():
    prov = AlgebraicCurvature(_model())
    rng = np.random.default_rng(4)
    w = rng.uniform(-1, 1, (4, 4))
    w = w - w.T
    for _ in range(30):
        k = int(rng.integers(1, 4))
        args = tuple(int(v) for v in rng.integers(0, 4, size=2 * k + 2))
        assert r_power_action(prov, w, k, args) == \
            _numpy_reference_r_power_action(prov, w, k, args, memo=False)


def test_tensor_mode_matches_recursion():
    m = assemble([RealBlock(2, 0.3, 1), ComplexBlock(1, 0.5, 1.1)])
    prov = AlgebraicCurvature(m)
    rng = np.random.default_rng(5)
    w = rng.uniform(-1, 1, (4, 4))
    w = w - w.T
    for k in (1, 2, 3):
        tensor = _unpacked_r_power(prov, w, k)
        for _ in range(25):
            args = tuple(int(v) for v in rng.integers(0, 4, size=2 * k + 2))
            assert abs(tensor[args] - r_power_action(prov, w, k, args)) < 1e-12


def test_geometric_example_values():
    sc = load_scenario("paper_example_n2")
    point = sc.sample_points[0]
    sj = geo.structure_jets(sc, point, 1)
    prov = GeometricCurvature(geo.curvature(sj))
    w = _omega_at(sc, point)
    x, y = point[0], point[1]
    assert abs(r_power_action(prov, w, 1, (0, 2, 0, 2)) - (-x * y * w[0, 1])) < 1e-12
    assert abs(r_power_action(prov, w, 2, (0, 2, 0, 2, 0, 2)) - x * y * w[1, 2]) < 1e-12
    assert np.max(np.abs(_unpacked_r_power(prov, w, 3))) < 1e-8


# -- covariant derivatives ----------------------------------------------


def _fd_nabla(field, scenario, k, point, idxs, h=1e-5):
    """Index-formula oracle with central-difference coordinate derivatives."""
    if k == 0:
        return component_jets(field, point, 0, scenario.coords)[0][tuple(idxs)]
    i0, rest = idxs[0], tuple(idxs[1:])
    up = list(point)
    dn = list(point)
    up[i0] += h
    dn[i0] -= h
    out = (_fd_nabla(field, scenario, k - 1, tuple(up), rest, h)
           - _fd_nabla(field, scenario, k - 1, tuple(dn), rest, h)) / (2 * h)
    gamma = geo.structure_jets(scenario, point, 1).gamma[0]
    for t, it in enumerate(rest):
        for m in range(scenario.dim):
            if gamma[m, i0, it] != 0.0:
                out -= gamma[m, i0, it] * _fd_nabla(
                    field, scenario, k - 1, point, rest[:t] + (m,) + rest[t + 1:], h)
    return out


def test_nabla_zero_is_component():
    sc = load_scenario("paper_example_n2")
    sj = geo.structure_jets(sc, sc.sample_points[0], 0)
    w = _omega_at(sc, sc.sample_points[0])
    assert _nablas(w, sc, sj, 0)[0][1, 2] == w[1, 2]


def test_flat_connection_constant_form():
    sc = load_scenario("paraboloid")
    sj = geo.structure_jets(sc, sc.sample_points[0], 1)
    field = _omega_at(sc, sc.sample_points[0])
    assert np.max(np.abs(_nablas(field, sc, sj, 1)[1])) == 0.0


def test_nabla_matches_finite_differences_on_sphere():
    sc = load_scenario("centroaffine_sphere")
    point = sc.sample_points[0]
    field = _omega_at(sc, point)
    sj = geo.structure_jets(sc, point, 1)
    nabla = _nablas(field, sc, sj, 1)[1]
    for i in range(4):
        for j in range(4):
            for k in range(4):
                got = nabla[i, j, k]
                ref = _fd_nabla(field, sc, 1, point, (i, j, k))
                assert abs(got - ref) < 1e-7


def test_nabla_two_matches_finite_differences():
    sc = load_scenario("centroaffine_sphere")
    point = sc.sample_points[2]
    field = _omega_at(sc, point)
    sj = geo.structure_jets(sc, point, 1)
    nabla = _nablas(field, sc, sj, 2)[2]
    rng = np.random.default_rng(6)
    for _ in range(8):
        idxs = tuple(int(v) for v in rng.integers(0, 4, size=4))
        got = nabla[idxs]
        ref = _fd_nabla(field, sc, 2, point, idxs, h=2e-4)
        assert abs(got - ref) < 1e-5 * max(1.0, abs(ref))


def test_nabla_order_cap():
    sc = load_scenario("paraboloid")
    sj = geo.structure_jets(sc, sc.sample_points[0], 1)
    field = tridiagonal_omega(4)
    with pytest.raises(RecursionCapError):
        _nablas(field, sc, sj, 3)


def test_nabla_needs_field_jets_of_order_k():
    # an order-1 array is too short for nabla^2, by its coefficient count
    sc = load_scenario("paraboloid")
    sj = geo.structure_jets(sc, sc.sample_points[0], 1)
    jets = component_jets(tridiagonal_omega(4), sj.point, 1, sc.coords)
    assert len(nabla_powers(jets, sj, 1)) == 2
    with pytest.raises(ArityError, match="order 2, got 5 coefficients"):
        nabla_powers(jets, sj, 2)


def test_nabla_of_expression_field_matches_finite_differences():
    # a non-constant 2-form: the d(omega) term must enter nabla omega
    sc = load_scenario("centroaffine_sphere")
    point = sc.sample_points[0]
    src = [["0", "1 + t1*t2", "0", "sin(t3)"],
           ["-(1 + t1*t2)", "0", "exp(t1)", "0"],
           ["0", "-exp(t1)", "0", "t2^2"],
           ["-sin(t3)", "0", "-t2^2", "0"]]
    field = [[parse_expr(c, sc.coords) for c in row] for row in src]
    sj = geo.structure_jets(sc, point, 1)
    nabla = _nablas(field, sc, sj, 1)[1]
    for idxs in np.ndindex(4, 4, 4):
        assert abs(nabla[idxs] - _fd_nabla(field, sc, 1, point, idxs)) < 1e-7
    nabla = _nablas(field, sc, sj, 2)[2]
    rng = np.random.default_rng(16)
    for _ in range(8):
        idxs = tuple(int(v) for v in rng.integers(0, 4, size=4))
        ref = _fd_nabla(field, sc, 2, point, idxs, h=2e-4)
        assert abs(nabla[idxs] - ref) < 1e-5 * max(1.0, abs(ref))


def _codazzi_sides(sj):
    """side[i, k, j] = ((nabla_i S) e_j - tau_i S e_j)^k from pointwise data."""
    g, s_op = sj.gamma[0], sj.S[0]
    return (geo.first_partials(sj, sj.S) + np.einsum("kim,mj->ikj", g, s_op)
            - np.einsum("mij,km->ikj", g, s_op)
            - np.einsum("i,kj->ikj", sj.tau[0], s_op))


def test_codazzi_shape_sides():
    for name, tol in (("paraboloid", 1e-14), ("paper_example_n2", 1e-8),
                      ("centroaffine_sphere", 1e-12)):
        sc = load_scenario(name)
        sj = geo.structure_jets(sc, sc.sample_points[0], 1)
        assert geo.fundamental_residuals(sj, geo.curvature(sj)).codazzi_s < tol
        side = _codazzi_sides(sj)
        assert np.max(np.abs(side - np.transpose(side, (2, 1, 0)))) < tol


def test_sphere_codazzi_sides_vanish():
    # S = identity is parallel and tau = 0, so both sides are zero
    sc = load_scenario("centroaffine_sphere")
    sj = geo.structure_jets(sc, sc.sample_points[1], 1)
    side = _codazzi_sides(sj)
    assert np.max(np.abs(side[0, :, 2])) < 1e-12
    assert np.max(np.abs(side[2, :, 0])) < 1e-12


def test_nabla_powers_chain_matches_single_passes():
    # one chain to nabla^3 gives every power bit for bit as a pass of its own
    cases = []
    for name in BUILTIN_NAMES:
        sc = load_scenario(name)
        cases += [(sc, sc.omega, point) for point in sc.sample_points]
    sc = load_scenario("paraboloid")
    src = [["0", "1 + u1*u1*sin(u2)", "0", "0"],
           ["-(1 + u1*u1*sin(u2))", "0", "0", "0"],
           ["0", "0", "0", "exp(u3)*(1 + u4*u4)"],
           ["0", "0", "-(exp(u3)*(1 + u4*u4))", "0"]]
    field = [[parse_expr(c, sc.coords) for c in row] for row in src]
    cases += [(sc, field, point) for point in sc.sample_points]
    for sc, field, point in cases:
        sj = geo.structure_jets(sc, point, 2)
        chain = _nablas(field, sc, sj, 3)
        assert len(chain) == 4
        for q, nabla in enumerate(chain):
            assert np.array_equal(nabla, _nablas(field, sc, sj, q)[q])


def test_alternating_identity_on_scenarios():
    for name in ("paraboloid", "paper_example_n2", "paper_example_n3",
                 "centroaffine_sphere"):
        sc = load_scenario(name)
        point = sc.sample_points[0]
        sj = geo.structure_jets(sc, point, 1)
        prov = GeometricCurvature(geo.curvature(sj))
        w = _omega_at(sc, point)
        nabla = _nablas(w, sc, sj, 2)[2]
        r1 = _packed_r_power(prov, w, 1)
        rng = np.random.default_rng(8)
        for _ in range(20):
            pair = (int(rng.integers(0, sc.dim)), int(rng.integers(0, sc.dim)))
            ys = tuple(int(v) for v in rng.integers(0, sc.dim, size=2))
            lhs, rhs = alternating_sum_identity(r1, nabla, 1, [pair], ys)
            assert abs(lhs - rhs) < 1e-7


def test_alternating_identity_example_value():
    sc = load_scenario("paper_example_n2")
    point = sc.sample_points[0]
    sj = geo.structure_jets(sc, point, 1)
    prov = GeometricCurvature(geo.curvature(sj))
    w = _omega_at(sc, point)
    nabla = _nablas(w, sc, sj, 2)[2]
    lhs, rhs = alternating_sum_identity(_packed_r_power(prov, w, 1), nabla, 1,
                                        [(0, 2)], (0, 2))
    assert abs(lhs - (-2.0)) < 1e-12
    assert abs(lhs - rhs) < 1e-7
    with pytest.raises(ArityError):  # k = 2 needs nabla^4, not nabla^2
        alternating_sum_identity(_packed_r_power(prov, w, 2), nabla, 2,
                                 [(0, 2), (1, 3)], (0, 2))


def test_alternating_identity_depth_two():
    # rhs sums four sign assignments of nabla^4, exercising order-5 jets
    sc = load_scenario("centroaffine_sphere")
    point = sc.sample_points[0]
    prov = GeometricCurvature(geo.curvature(geo.structure_jets(sc, point, 1)))
    sj = geo.structure_jets(sc, point, 3)
    w = _omega_at(sc, point)
    nabla = _nablas(w, sc, sj, 4)[4]
    r2 = _packed_r_power(prov, w, 2)
    rng = np.random.default_rng(14)
    for _ in range(6):
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, 4, size=(2, 2))]
        ys = tuple(int(v) for v in rng.integers(0, 4, size=2))
        lhs, rhs = alternating_sum_identity(r2, nabla, 2, pairs, ys)
        assert abs(lhs - rhs) < 1e-7


@lru_cache(maxsize=None)
def _identity_case(source, k):
    """A provider, its 2-form and a nabla^{2k} of matching arity: the
    algebraic model with a random omega (a random stand-in for nabla), or
    ``paper_example_n3``'s first sample point with its own omega chain."""
    rng = np.random.default_rng(31)
    if source == "algebraic":
        model = _model()
        return (AlgebraicCurvature(model), random_omega(model.dim, rng),
                rng.normal(size=(model.dim,) * (2 * k + 2)))
    sc = load_scenario(source)
    point = sc.sample_points[0]
    sj = geo.structure_jets(sc, point, 2 * k - 1)
    chain = nabla_powers(component_jets(sc.omega, point, 2 * k, sc.coords), sj, 2 * k)
    return GeometricCurvature(geo.curvature(sj)), chain[0], chain[2 * k]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("source", ["algebraic", "paper_example_n3"])
def test_alternating_identity_lhs_matches_the_recursion(source, k):
    """The broadcast lhs, read from packed R^k omega with orientation signs,
    agrees with ``r_power_action`` trial by trial, x = y pairs among them;
    and a batch equals its trials taken one by one, bit for bit."""
    prov, w, nabla = _identity_case(source, k)
    n = prov.dim
    rng = np.random.default_rng(k)
    x, y = rng.integers(0, n, size=(40, k, 2)), rng.integers(0, n, size=(40, 2))
    x[::4, 0, 1] = x[::4, 0, 0]          # a repeated index in the first pair
    y[1::5, 1] = y[1::5, 0]              # ... in the last pair
    x[2::7, k - 1, 0] = x[2::7, k - 1, 1]
    packed = _packed_r_power(prov, w, k)
    lhs, rhs = alternating_sum_identity(packed, nabla, k, x, y)
    assert lhs.shape == rhs.shape == (40,)
    scale = max(1.0, float(np.max(np.abs(packed))))
    for i in range(40):
        want = r_power_action(prov, w, k, [*x[i].ravel().tolist(), *y[i].tolist()])
        assert abs(lhs[i] - want) <= 1e-13 * scale
        if len(set(y[i].tolist())) == 1 or any(a == b for a, b in x[i].tolist()):
            assert lhs[i] == 0.0
        one = alternating_sum_identity(packed, nabla, k, x[i], y[i])
        assert one[0] == lhs[i] and one[1] == rhs[i]


def test_alternating_identity_takes_matching_shapes_only():
    prov, w, nabla = _identity_case("algebraic", 1)
    r1 = _packed_r_power(prov, w, 1)
    with pytest.raises(ArityError, match=r"got shapes \(6, 6\), \(4, 4, 4\)"):
        alternating_sum_identity(r1, nabla[..., 0], 1, [(0, 1)], (2, 3))
    with pytest.raises(ArityError, match=r"got shapes \(6,\), \(4, 4, 4, 4\)"):
        alternating_sum_identity(r1[0], nabla, 1, [(0, 1)], (2, 3))
    with pytest.raises(ArityError, match=r"\(2, 2\) and \(2,\)"):
        alternating_sum_identity(r1, nabla, 1, [(0, 1), (1, 2)], (2, 3))


# -- R^k.T at vector arguments -------------------------------------------


def _contract(tensor, vectors):
    """Full contraction of a dense tensor with one vector per slot."""
    out = tensor
    for vec in vectors:
        out = np.tensordot(vec, out, axes=([0], [0]))
    return float(out)


def _probe(prov, omega, k, vectors):
    """R^k.omega at the vectors of one probe: the packing step, then the
    kernel on its pairs."""
    k_mat, pairs = pack_probe(prov, omega, k, vectors)
    return float(pair_probe(prov, k_mat, pairs[None])[0])


def _assert_probe_matches_dense(prov, w, k, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((2 * k + 2, prov.dim))
    got = _probe(prov, w, k, vectors)
    ref = _contract(_unpacked_r_power(prov, w, k), vectors)
    assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (got, ref)


VALUES = hst.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)


@hst.composite
def block_models(draw, dims=(2, 4, 6)):
    """A block-built Gauss model whose dim is drawn from ``dims``."""
    left = draw(hst.sampled_from(dims))
    blocks = []
    while left:
        if left >= 2 and draw(hst.booleans()):
            half = draw(hst.integers(1, left // 2))
            blocks.append(ComplexBlock(half, draw(VALUES), draw(hst.floats(0.3, 1.5))))
            left -= 2 * half
        else:
            size = draw(hst.integers(1, left))
            blocks.append(RealBlock(size, draw(VALUES), draw(hst.sampled_from((1, -1)))))
            left -= size
    # assemble() starts at dim 4, so direct-sum the block pairs here
    s_op, h = direct_sum(blocks)
    return GaussModel(len(s_op), s_op, h, tuple(blocks))


@hst.composite
def drawn_geometric(draw, dims=(4, 5, 6, 7, 8)):
    """A ``GeometricCurvature`` of a drawn R[l, t, i, j]: about half its
    entries zero, some of them -0.0, the rest standard normal."""
    n = draw(hst.sampled_from(dims))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    r = rng.standard_normal((n,) * 4)
    r[rng.random(r.shape) < 0.5] = 0.0
    r[rng.random(r.shape) < 0.05] = -0.0
    return GeometricCurvature(r)


def test_algebraic_images_do_not_build_the_tensor():
    # R is built on its first read, by the pair operator: a draw that reads
    # basis images only never builds it
    prov = AlgebraicCurvature(_model())
    prov.basis_image(0, 1, 2)
    assert "R" not in vars(prov)
    prov.pair_operator
    assert "R" in vars(prov)


@settings(max_examples=60, deadline=None)
@given(hst.one_of(block_models().map(AlgebraicCurvature), drawn_geometric()))
def test_basis_image_is_the_full_tensor_column(prov):
    # the Gauss rule's two forms, lazy per image and whole tensor, agree
    # bit for bit: the same products h[j, t] * S[l, i] and h[i, t] * S[l, j];
    # a drawn R is read as it is, its -0.0 entries skipped like zeros.
    # Each image is computed once, into its row
    full = prov.R
    for i, j, t in np.ndindex(full.shape[1:]):
        col = full[:, t, i, j]
        want = tuple((int(l), float(col[l])) for l in np.nonzero(col)[0])
        assert prov.basis_image(i, j, t) == want, (i, j, t)
        assert prov.basis_image(i, j, t) is prov.image_row(i, j)[t]


@settings(max_examples=40, deadline=None)
@given(block_models(), hst.integers(1, 3), hst.integers(0, 2 ** 32 - 1))
def test_probe_matches_dense_contraction_on_models(model, k, seed):
    prov = AlgebraicCurvature(model)
    w = random_omega(model.dim, np.random.default_rng(seed))
    _assert_probe_matches_dense(prov, w, k, seed)


@lru_cache(maxsize=None)
def _scenario_curvature(name):
    sc = load_scenario(name)
    point = sc.sample_points[0]
    sj = geo.structure_jets(sc, point, 1)
    return GeometricCurvature(geo.curvature(sj)), _omega_at(sc, point)


@settings(max_examples=25, deadline=None)
@given(hst.sampled_from(BUILTIN_NAMES), hst.integers(1, 3), hst.integers(0, 2 ** 32 - 1))
def test_probe_matches_dense_contraction_on_scenarios(name, k, seed):
    prov, w = _scenario_curvature(name)
    _assert_probe_matches_dense(prov, w, k, seed)


def _reference_r_power_probe(provider, tensor, k, vectors):
    """Reference: (R^k . T) at vector arguments by the recursion on the
    vectors, for a (0,p) tensor of any order.  Each level forms R(X, Y) for
    every branch at once, then branches once per remaining slot Z, which
    becomes -R(X, Y)Z: (2k+p-2)(2k+p-4)...p branches.  The leaves contract
    the last p vectors with T."""
    t = np.asarray(tensor, dtype=float)
    v = np.asarray(vectors, dtype=float)
    p, n = t.ndim, provider.dim
    batch = v.shape[:-2]
    r2 = provider.R.reshape(n * n, n * n)
    v = v.reshape(-1, 2 * k + p, n)
    for _ in range(k):
        b, q = v.shape[0], v.shape[1] - 2
        xy = (v[:, 0, :, None] * v[:, 1, None, :]).reshape(b, n * n)
        r_xy = (xy @ r2.T).reshape(b, n, n)
        rest = v[:, 2:]
        out = np.repeat(rest[:, None], q, axis=1)
        diag = np.arange(q)
        out[:, diag, diag] = -(rest @ r_xy.transpose(0, 2, 1))
        v = out.reshape(b * q, q, n)
    leaves = np.broadcast_to(t.reshape(1, -1), (len(v), t.size))
    for s in range(p):
        leaves = np.einsum("bi,bij->bj", v[:, s],
                           leaves.reshape(len(v), n, n ** (p - s - 1)))
    return leaves.reshape(batch + (-1,)).sum(axis=-1)


def _assert_probe_matches_reference(prov, w, k, seed):
    vectors = np.random.default_rng(seed).standard_normal((2 * k + 2, prov.dim))
    got = _probe(prov, w, k, vectors)
    ref = float(_reference_r_power_probe(prov, w, k, vectors))
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (got, ref)


@settings(max_examples=40, deadline=None)
@given(block_models(dims=(4, 5, 6, 7, 8)), hst.integers(1, 4), hst.integers(0, 2 ** 32 - 1))
def test_probe_matches_vector_reference_on_models(model, k, seed):
    prov = AlgebraicCurvature(model)
    _assert_probe_matches_reference(prov, _random_two_form(model.dim, seed), k, seed)


@settings(max_examples=25, deadline=None)
@given(hst.sampled_from(BUILTIN_NAMES), hst.integers(1, K_CAP_GEOMETRIC),
       hst.integers(0, 2 ** 32 - 1))
def test_probe_matches_vector_reference_on_scenarios(name, k, seed):
    prov, w = _scenario_curvature(name)
    _assert_probe_matches_reference(prov, w, k, seed)


def test_probe_batch_matches_single_calls():
    # the kernel on the stacked pairs of several probes of one omega gives
    # each probe's value alone; every probe packs the same K
    prov = AlgebraicCurvature(_model())
    rng = np.random.default_rng(5)
    w = random_omega(4, rng)
    for k in range(1, 4):
        probes = [pack_probe(prov, w, k, rng.standard_normal((2 * k + 2, 4)))
                  for _ in range(6)]
        k_mat = probes[0][0]
        batched = pair_probe(prov, k_mat, np.stack([pairs for _, pairs in probes]))
        assert batched.shape == (6,)
        for got, (k_one, pairs) in zip(batched, probes):
            assert np.array_equal(k_one, k_mat)
            single = pair_probe(prov, k_mat, pairs[None])[0]
            assert abs(got - single) <= 1e-12 * max(1.0, abs(single))


def test_probe_of_basis_vectors_is_the_component():
    prov = AlgebraicCurvature(_model())
    e = np.eye(4)
    rng = np.random.default_rng(6)
    w = tridiagonal_omega(4)
    for k in range(1, 5):
        args = tuple(int(v) for v in rng.integers(0, 4, size=2 * k + 2))
        ref = r_power_action(prov, w, k, args)
        got = _probe(prov, w, k, e[list(args)])
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
    # the recursion takes (0,p) tensors of any order, the probe 2-forms only
    for t in (np.array(1.5), rng.standard_normal(4), rng.standard_normal((4, 4, 4))):
        with pytest.raises(ArityError):
            pack_probe(prov, t, 1, np.ones((4, 4)))


def test_unit_two_vector_is_the_pair_of_basis_vectors():
    # the unit pair of (a, b), a < b, a row of np.eye(N2), is the packed
    # 2-vector the pair helper forms from (e_a, e_b), signed zeros
    # included, and the kernel's value on unit pairs is the probe's at
    # those basis vectors
    prov = AlgebraicCurvature(_model())
    w = tridiagonal_omega(4)
    e = np.eye(4)
    a, b = np.triu_indices(4, 1)
    units = np.eye(len(a))
    for r, (x, y) in enumerate(zip(a, b)):
        assert units[r].tobytes() == _pack_pairs(e[[x, y]])[0].tobytes()
    rng = np.random.default_rng(8)
    for k in range(1, 4):
        picks = rng.integers(0, len(units), size=k + 1)
        args = [int(i) for r in picks for i in (a[r], b[r])]
        k_mat, _ = pack_probe(prov, w, k, e[args])
        got = pair_probe(prov, k_mat, units[picks][None])[0]
        assert got == _probe(prov, w, k, e[args])


def _reference_reduce_to_basis(provider, omega, vectors, current):
    """Reference: the witness reduction one candidate per kernel call, in
    decreasing |c_ab| (stable order), taking the first value that reaches
    |current| / ||c||_1 and otherwise the first largest.  Returns the
    basis-index tuple and the number of candidates tried per slot."""
    a, b = _pairs(provider.dim)
    vectors = np.asarray(vectors, dtype=float)
    k_mat, _ = pack_probe(provider, omega, len(vectors) // 2 - 1, vectors)
    units = np.eye(len(a))
    probe = _pack_pairs(vectors)
    args, tries = [], []
    for slot, c in enumerate(probe.copy()):
        target = abs(current) / np.sum(np.abs(c))
        best_r, best = None, None
        for count, r in enumerate(np.argsort(-np.abs(c), kind="stable"), 1):
            probe[slot] = units[r]
            got = float(pair_probe(provider, k_mat, probe[None])[0])
            if best is None or abs(got) > abs(best):
                best_r, best = r, got
            if abs(got) >= target:
                break
        probe[slot] = units[best_r]
        args.extend((int(a[best_r]), int(b[best_r])))
        tries.append(count)
        current = best
    return tuple(args), tries


def _assert_reduction_matches_reference(prov, w, vectors):
    k = len(vectors) // 2 - 1
    value = _probe(prov, w, k, vectors)
    args, tries = _reference_reduce_to_basis(prov, w, vectors, value)
    k_mat, pairs = pack_probe(prov, w, k, vectors)
    assert reduce_to_basis(prov, k_mat, pairs, value) == args
    return tries


@settings(max_examples=40, deadline=None)
@given(block_models(dims=(4, 5, 6, 7, 8)), hst.integers(1, 4), hst.integers(0, 2 ** 32 - 1))
def test_reduction_matches_one_candidate_reference_on_models(model, k, seed):
    vectors = np.random.default_rng(seed).standard_normal((2 * k + 2, model.dim))
    _assert_reduction_matches_reference(AlgebraicCurvature(model),
                                        _random_two_form(model.dim, seed), vectors)


def test_reduction_across_candidate_batches():
    # at dim 8 the second slot of this k = 1 probe is settled by its 11th
    # candidate, in the fourth batch, and the first slot by its 3rd, the
    # last of the first batch
    model = assemble([RealBlock(4, 0.7, 1)] + [RealBlock(1, 0.0, 1)] * 4)
    rng = np.random.default_rng(1)
    w = random_omega(8, rng)
    vectors = rng.standard_normal((4, 8))
    tries = _assert_reduction_matches_reference(AlgebraicCurvature(model), w, vectors)
    assert tries == [3, 11] and max(tries) > CANDIDATE_BATCH


def test_kernel_of_an_empty_batch_is_empty():
    # the last level's k! branch count does not come from the batch size
    prov = AlgebraicCurvature(_model())
    for k in range(1, 4):
        k_mat, _ = pack_probe(prov, tridiagonal_omega(4), k, np.ones((2 * k + 2, 4)))
        assert pair_probe(prov, k_mat, np.ones((0, k + 1, 6))).shape == (0,)


def test_probe_arity_and_cap_checks():
    prov = AlgebraicCurvature(_model())
    w = tridiagonal_omega(4)
    with pytest.raises(ArityError):
        pack_probe(prov, w, 1, np.ones((3, 4)))
    with pytest.raises(ArityError):
        pack_probe(prov, w, 1, np.ones((4, 3)))
    with pytest.raises(ArityError):
        pack_probe(prov, w, -1, np.ones((0, 4)))
    # a probe is of R^k omega, k >= 1, at the vectors of one probe
    with pytest.raises(ArityError, match="k >= 1"):
        pack_probe(prov, w, 0, np.ones((2, 4)))
    with pytest.raises(ArityError, match=r"got \(2, 4, 4\)"):
        pack_probe(prov, w, 1, np.ones((2, 4, 4)))
    with pytest.raises(RecursionCapError):
        pack_probe(prov, w, 9, np.ones((20, 4)))
    sc_prov, sc_w = _scenario_curvature("paraboloid")
    with pytest.raises(RecursionCapError):
        pack_probe(sc_prov, sc_w, 4, np.ones((10, 4)))
    # k! branches: at k = 8 and dim 8 (N2 = 28) one probe peaks at its last
    # level, where 8! branches each form a 28 x 28 matrix (31610880
    # entries).  The reduction runs the kernel on CANDIDATE_BATCH probes,
    # three times that, beyond the entry cap, so the probe is refused at
    # its packing; at k = 7 a batch peaks at 3 * 7! * 28^2 = 11854080
    big = AlgebraicCurvature(assemble([RealBlock(4, 0.7, 1)] + [RealBlock(1, 0.0, 1)] * 4))
    with pytest.raises(RecursionCapError, match="batch of 3 would hold 94832640 entries"):
        pack_probe(big, tridiagonal_omega(8), 8, np.ones((18, 8)))
    k_mat, pairs = pack_probe(big, tridiagonal_omega(8), 7, np.ones((16, 8)))
    assert k_mat.shape == (28 * 28,) and pairs.shape == (8, 28)
    # a form antisymmetric only to 1e-6 is no 2-form
    bent = w.copy()
    bent[0, 3] += 1e-6
    with pytest.raises(ArityError, match="antisymmetric"):
        pack_probe(prov, bent, 1, np.ones((4, 4)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-300, 1e-11, 1.0, 1.7e308])
def test_a_two_form_is_told_apart_at_every_scale(scale):
    # the test reads w + w^T on the scale max|w|: a symmetric form is
    # refused at every scale, a 2-form packed, and neither overflows
    w = scale * tridiagonal_omega(4)
    assert np.array_equal(pack_two_form(w, 4), w[_pairs(4)])
    with pytest.raises(ArityError, match="antisymmetric"):
        pack_two_form(np.abs(w), 4)
    assert np.array_equal(pack_two_form(np.zeros((4, 4)), 4), np.zeros(6))


# -- R^k.omega packed on Lambda^2 ------------------------------------------


def _gather_pair_operator(provider):
    """Reference: the pair operator rho[P, A, B] as four dense gathers over
    [A, B, P], one per term of (rho_P w)(e_a, e_b) = w(R e_a, e_b) +
    w(e_a, R e_b) with its Kronecker deltas."""
    c, d = np.triu_indices(provider.dim, 1)
    a, b = c[:, None], d[:, None]
    r = provider.R[:, :, c, d]
    rho = (r[c, a] * (b == d)[..., None] - r[d, a] * (b == c)[..., None]
           + r[d, b] * (a == c)[..., None] - r[c, b] * (a == d)[..., None])
    return np.moveaxis(rho, 2, 0)


@settings(max_examples=60, deadline=None)
@given(block_models(dims=tuple(range(2, 11))))
def test_pair_operator_matches_gather_reference_on_models(model):
    prov = AlgebraicCurvature(model)
    assert np.array_equal(prov.pair_operator, _gather_pair_operator(prov))


def test_pair_operator_matches_gather_reference_on_sample_points():
    # every sample point of every shipped scenario; built once per provider
    for name in BUILTIN_NAMES:
        sc = load_scenario(name)
        for point in sc.sample_points:
            sj = geo.structure_jets(sc, point, 1)
            prov = GeometricCurvature(geo.curvature(sj))
            rho = prov.pair_operator
            assert np.array_equal(rho, _gather_pair_operator(prov)), (name, point)
            assert prov.pair_operator is rho and not rho.flags.writeable


def _packed_r_power(provider, omega, k):
    """Packed R^k.omega: the last level of ``r_power_levels``, omega
    itself for k = 0."""
    t = pack_two_form(omega, provider.dim)
    for t in r_power_levels(provider, t, k):
        pass
    return t


def _unpacked_r_power(provider, omega, k):
    """R^k.omega as a dense array of arity 2k+2: ``_packed_r_power``, each
    pair axis unpacked to its antisymmetric n x n slots."""
    n = provider.dim
    t = _packed_r_power(provider, omega, k)
    a, b = np.triu_indices(n, 1)
    unpack = np.zeros((len(a), n, n))
    unpack[np.arange(len(a)), a, b] = 1.0
    unpack[np.arange(len(a)), b, a] = -1.0
    for _ in range(t.ndim):
        # consume the leading pair axis, append its (n, n) slots at the end
        t = np.tensordot(t, unpack, axes=([0], [0]))
    return t


def _dense_r_power(provider, tensor, k):
    """Reference: R^k.T as a dense array, one contraction per slot."""
    t = np.asarray(tensor, dtype=float)
    n = provider.dim
    r_full = provider.R
    for _ in range(k):
        out = np.zeros((n, n) + t.shape)
        for slot in range(t.ndim):
            contrib = np.tensordot(r_full, t, axes=([0], [slot]))
            out -= np.moveaxis(contrib, [1, 2, 0], [0, 1, slot + 2])
        t = out
    return t


def _reference_r_power_action(provider, tensor, k, args):
    """Reference: the basis-index recursion with one closure call per
    term: basis images memoized on (i, j, t) tuples and one memo per level
    checked at the node's entry."""
    t = np.asarray(tensor, dtype=float)
    images = {}

    def image_of(i, j, z):
        if (i, j, z) not in images:
            images[i, j, z] = provider._image(i, j, z)
        return images[i, j, z]

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

    return eval_idx(k, tuple(args))


def _numpy_reference_r_power_action(provider, tensor, k, args, memo=True):
    """Reference: the basis-index recursion with one cache keyed by (k,
    idxs), every slot visited, and images taken from numpy arrays."""
    t = np.asarray(tensor, dtype=float)
    images, cache = {}, {} if memo else None

    def image(i, j, z):
        if (i, j, z) not in images:
            if isinstance(provider, AlgebraicCurvature):
                s, h = provider.model.S, provider.model.H
                vec = h[j, z] * s[:, i] - h[i, z] * s[:, j]
            else:
                vec = provider.R[:, z, i, j]
            images[i, j, z] = tuple((int(m), float(vec[m])) for m in np.nonzero(vec)[0])
        return images[i, j, z]

    def eval_idx(k, idxs):
        if k == 0:
            return float(t[idxs])
        if cache is not None and (k, idxs) in cache:
            return cache[k, idxs]
        x, y, rest = idxs[0], idxs[1], idxs[2:]
        total = 0.0
        for slot in range(len(rest)):
            acc = 0.0
            for m, coeff in image(x, y, rest[slot]):
                acc += coeff * eval_idx(k - 1, rest[:slot] + (m,) + rest[slot + 1:])
            total -= acc
        if cache is not None:
            cache[k, idxs] = total
        return total

    return eval_idx(k, tuple(args))


def _assert_recursion_matches_reference(prov, w, k, seed):
    rng = np.random.default_rng(seed)
    args = [int(v) for v in rng.integers(0, prov.dim, size=2 * k + np.ndim(w))]
    got = r_power_action(prov, w, k, args)
    for memo in (True, False):
        assert got == _numpy_reference_r_power_action(prov, w, k, args, memo=memo)


@settings(max_examples=40, deadline=None)
@given(block_models(dims=(4, 6, 8)), hst.integers(0, 3), hst.integers(0, 2 ** 32 - 1))
def test_recursion_matches_numpy_reference_bit_for_bit(model, k, seed):
    prov = AlgebraicCurvature(model)
    _assert_recursion_matches_reference(prov, _random_two_form(model.dim, seed), k, seed)


@settings(max_examples=25, deadline=None)
@given(hst.sampled_from(BUILTIN_NAMES), hst.integers(0, 3), hst.integers(0, 2 ** 32 - 1))
def test_geometric_recursion_matches_numpy_reference_bit_for_bit(name, k, seed):
    prov, w = _scenario_curvature(name)
    _assert_recursion_matches_reference(prov, w, k, seed)


def _signed_zero_two_form(dim, seed):
    """A 2-form with -0.0 at (0, 1) and (1, 0), and at about a third of its
    other off-diagonal entries (both of each pair, which the recursion
    does not check)."""
    w = _random_two_form(dim, seed)
    zero = np.triu(np.random.default_rng(seed + 1).random((dim, dim)) < 0.3, 1)
    zero[0, 1] = True
    w[zero | zero.T] = -0.0
    return w


@settings(max_examples=150, deadline=None)
@given(hst.one_of(block_models(dims=(4, 5, 6, 7, 8)).map(AlgebraicCurvature),
                  drawn_geometric()),
       hst.integers(0, 4), hst.integers(0, 2 ** 32 - 1), hst.data())
def test_recursion_matches_term_by_term_reference_bytes(prov, k, seed, data):
    # struct bytes, so that a -0.0 where the reference gives 0.0 fails
    k = min(k, prov.cap)
    w = _signed_zero_two_form(prov.dim, seed)
    args = data.draw(hst.lists(hst.integers(0, prov.dim - 1), min_size=2 * k + 2,
                               max_size=2 * k + 2))
    got = r_power_action(prov, w, k, args)
    assert struct.pack("<d", got) == \
        struct.pack("<d", _reference_r_power_action(prov, w, k, args))


def test_recursion_keeps_the_stored_sign_of_zero():
    # k = 0 reads the stored entry, -0.0 included; a node at k >= 1 starts
    # at +0.0 and only subtracts, so it never gives -0.0
    prov = AlgebraicCurvature(_model())
    w = _signed_zero_two_form(4, 0)
    for args in itertools.product(range(4), repeat=2):
        assert struct.pack("<d", r_power_action(prov, w, 0, args)) == \
            struct.pack("<d", w[args]), args
    assert struct.pack("<d", r_power_action(prov, w, 0, (0, 1))) == struct.pack("<d", -0.0)
    # a tensor of order 0 has no argument at all: its value as it is
    assert struct.pack("<d", r_power_action(prov, np.array(-0.0), 0, ())) == \
        struct.pack("<d", -0.0)
    zeros = 0
    for k in (1, 2):
        for args in itertools.product(range(4), repeat=2 * k + 2):
            got = r_power_action(prov, w, k, args)
            assert math.copysign(1.0, got) == 1.0 or got != 0.0, args
            zeros += got == 0.0
    assert zeros


def _random_three_tensor(dim, seed):
    return np.random.default_rng(seed).uniform(-1, 1, (dim, dim, dim))


@settings(max_examples=40, deadline=None)
@given(block_models(dims=(4, 6)), hst.integers(0, 3), hst.integers(0, 2 ** 32 - 1))
def test_recursion_on_three_tensors_matches_plain_recursion(model, k, seed):
    # (0,3) tensors: the tests above draw only 2-forms
    prov = AlgebraicCurvature(model)
    _assert_recursion_matches_reference(prov, _random_three_tensor(model.dim, seed), k, seed)


@settings(max_examples=25, deadline=None)
@given(hst.sampled_from(BUILTIN_NAMES), hst.integers(0, 3), hst.integers(0, 2 ** 32 - 1))
def test_geometric_recursion_on_three_tensors_matches_plain_recursion(name, k, seed):
    prov, _ = _scenario_curvature(name)
    _assert_recursion_matches_reference(prov, _random_three_tensor(prov.dim, seed), k, seed)


def _random_two_form(dim, seed):
    w = np.triu(np.random.default_rng(seed).uniform(-1, 1, (dim, dim)), 1)
    return w - w.T


@settings(max_examples=40, deadline=None)
@given(block_models(dims=(2, 3, 4, 5, 6)), hst.integers(0, 3),
       hst.integers(0, 2 ** 32 - 1))
def test_packed_power_matches_dense_reference(model, k, seed):
    prov = AlgebraicCurvature(model)
    w = _random_two_form(model.dim, seed)
    got, ref = _unpacked_r_power(prov, w, k), _dense_r_power(prov, w, k)
    assert got.shape == ref.shape == (model.dim,) * (2 * k + 2)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    n2 = model.dim * (model.dim - 1) // 2
    levels = r_power_levels(prov, pack_two_form(w, model.dim), k)
    assert [t.shape for t in levels] == [(n2,) * (q + 2) for q in range(k)]


@settings(max_examples=40, deadline=None)
@given(block_models(dims=(2, 3, 4, 5, 6)), hst.integers(0, 3),
       hst.integers(0, 2 ** 32 - 1))
def test_packed_power_matches_recursion(model, k, seed):
    prov = AlgebraicCurvature(model)
    w = _random_two_form(model.dim, seed)
    tensor = _unpacked_r_power(prov, w, k)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        args = tuple(int(v) for v in rng.integers(0, model.dim, size=2 * k + 2))
        ref = r_power_action(prov, w, k, args)
        assert abs(tensor[args] - ref) <= 1e-12 * max(1.0, abs(ref))


@settings(max_examples=20, deadline=None)
@given(block_models(dims=(2, 3, 4, 5, 6)), hst.integers(0, 3),
       hst.integers(0, 2 ** 32 - 1))
def test_packed_power_rejects_non_two_forms(model, k, seed):
    prov = AlgebraicCurvature(model)
    n = model.dim
    w = _random_two_form(n, seed)
    w[0, n - 1] += 1e-6   # antisymmetric only to 1e-6
    with pytest.raises(ArityError):
        _unpacked_r_power(prov, w, k)
    with pytest.raises(ArityError):
        _unpacked_r_power(prov, np.zeros((n, n, n)), k)


def test_packed_power_checks():
    prov = AlgebraicCurvature(_model())
    packed = pack_two_form(tridiagonal_omega(4), 4)
    assert list(r_power_levels(prov, packed, 0)) == []
    with pytest.raises(ArityError):
        list(r_power_levels(prov, packed, -1))
    with pytest.raises(ArityError):   # a pair axis of the wrong length
        list(r_power_levels(prov, np.zeros(5), 1))
    with pytest.raises(RecursionCapError):
        list(r_power_levels(prov, packed, 9))
    with pytest.raises(RecursionCapError, match="entries"):
        list(r_power_levels(prov, np.broadcast_to(0.0, (6,) * 10), 1))
    sc_prov, sc_w = _scenario_curvature("paraboloid")
    with pytest.raises(RecursionCapError):
        list(r_power_levels(sc_prov, pack_two_form(sc_w, 4), 4))
