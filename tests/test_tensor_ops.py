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
from affsym.tensor_ops import (K_CAP_GEOMETRIC, AlgebraicCurvature, ArityError,
                               GeometricCurvature, RecursionCapError,
                               _pack_pairs, _pair_operator, _pair_probe,
                               alternating_sum_identity, nabla_powers,
                               pack_two_form, r_power_action, r_power_levels,
                               r_power_probe)


def tridiagonal_omega(dim):
    """Test form: antisymmetric, superdiagonal ones, Pfaffian 1."""
    return np.eye(dim, k=1) - np.eye(dim, k=-1)


def _omega_at(sc, point):
    return component_jets(sc.omega, point, 0, sc.coords)[0]


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
    with pytest.raises(ArityError, match=r"argument vector has shape \(3,\), expected \(4,\)"):
        r_power_action(prov, w, 1, (0, 1, 2, np.ones(3)))
    with pytest.raises(RecursionCapError):
        r_power_action(prov, w, 9, tuple(0 for _ in range(20)))


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
        # power-of-two coefficients: scaling commutes with rounding, so exact
        combo = list(args)
        combo[slot] = 2.0 * e[i] + 0.5 * e[j]
        lhs = r_power_action(prov, w, k, combo)
        a1 = list(args)
        a1[slot] = i
        a2 = list(args)
        a2[slot] = j
        assert lhs == 2.0 * r_power_action(prov, w, k, a1) \
            + 0.5 * r_power_action(prov, w, k, a2)
        # arbitrary real coefficients agree to relative 1e-12
        c1, c2 = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        combo[slot] = c1 * e[i] + c2 * e[j]
        lhs = r_power_action(prov, w, k, combo)
        ref = c1 * r_power_action(prov, w, k, a1) + c2 * r_power_action(prov, w, k, a2)
        assert abs(lhs - ref) <= 1e-12 * max(1.0, abs(ref))


def test_memoized_matches_plain_bit_for_bit():
    prov = AlgebraicCurvature(_model())
    rng = np.random.default_rng(4)
    w = rng.uniform(-1, 1, (4, 4))
    w = w - w.T
    for _ in range(30):
        k = int(rng.integers(1, 4))
        args = tuple(int(v) for v in rng.integers(0, 4, size=2 * k + 2))
        assert r_power_action(prov, w, k, args) == \
            _reference_r_power_action(prov, w, k, args, memo=False)


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
    st = geo.induced_structure(geo.structure_jets(sc, point, 1))
    prov = GeometricCurvature(geo.curvature(st))
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
    gamma = geo.induced_structure(geo.structure_jets(scenario, point, 1)).gamma
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
    assert nabla_powers(w, sj, 0)[0][1, 2] == w[1, 2]


def test_flat_connection_constant_form():
    sc = load_scenario("paraboloid")
    sj = geo.structure_jets(sc, sc.sample_points[0], 1)
    field = _omega_at(sc, sc.sample_points[0])
    assert np.max(np.abs(nabla_powers(field, sj, 1)[1])) == 0.0


def test_nabla_matches_finite_differences_on_sphere():
    sc = load_scenario("centroaffine_sphere")
    point = sc.sample_points[0]
    field = _omega_at(sc, point)
    sj = geo.structure_jets(sc, point, 1)
    nabla = nabla_powers(field, sj, 1)[1]
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
    nabla = nabla_powers(field, sj, 2)[2]
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
        nabla_powers(field, sj, 3)


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
    nabla = nabla_powers(field, sj, 1)[1]
    for idxs in np.ndindex(4, 4, 4):
        assert abs(nabla[idxs] - _fd_nabla(field, sc, 1, point, idxs)) < 1e-7
    nabla = nabla_powers(field, sj, 2)[2]
    rng = np.random.default_rng(16)
    for _ in range(8):
        idxs = tuple(int(v) for v in rng.integers(0, 4, size=4))
        ref = _fd_nabla(field, sc, 2, point, idxs, h=2e-4)
        assert abs(nabla[idxs] - ref) < 1e-5 * max(1.0, abs(ref))


def _codazzi_sides(st):
    """side[i, k, j] = ((nabla_i S) e_j - tau_i S e_j)^k from pointwise data."""
    return (st.dS + np.einsum("kim,mj->ikj", st.gamma, st.S)
            - np.einsum("mij,km->ikj", st.gamma, st.S)
            - np.einsum("i,kj->ikj", st.tau, st.S))


def test_codazzi_shape_sides():
    for name, tol in (("paraboloid", 1e-14), ("paper_example_n2", 1e-8),
                      ("centroaffine_sphere", 1e-12)):
        sc = load_scenario(name)
        st = geo.induced_structure(geo.structure_jets(sc, sc.sample_points[0], 1))
        assert geo.fundamental_residuals(st, geo.curvature(st)).codazzi_s < tol
        side = _codazzi_sides(st)
        assert np.max(np.abs(side - np.transpose(side, (2, 1, 0)))) < tol


def test_sphere_codazzi_sides_vanish():
    # S = identity is parallel and tau = 0, so both sides are zero
    sc = load_scenario("centroaffine_sphere")
    st = geo.induced_structure(geo.structure_jets(sc, sc.sample_points[1], 1))
    side = _codazzi_sides(st)
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
        chain = nabla_powers(field, sj, 3)
        assert len(chain) == 4
        for q, nabla in enumerate(chain):
            assert np.array_equal(nabla, nabla_powers(field, sj, q)[q])


def test_alternating_identity_on_scenarios():
    for name in ("paraboloid", "paper_example_n2", "paper_example_n3",
                 "centroaffine_sphere"):
        sc = load_scenario(name)
        point = sc.sample_points[0]
        st = geo.induced_structure(geo.structure_jets(sc, point, 1))
        prov = GeometricCurvature(geo.curvature(st))
        sj = geo.structure_jets(sc, point, 1)
        w = _omega_at(sc, point)
        nabla = nabla_powers(w, sj, 2)[2]
        rng = np.random.default_rng(8)
        for _ in range(20):
            pair = (int(rng.integers(0, sc.dim)), int(rng.integers(0, sc.dim)))
            ys = tuple(int(v) for v in rng.integers(0, sc.dim, size=2))
            lhs, rhs = alternating_sum_identity(w, nabla, prov, 1, [pair], ys)
            assert abs(lhs - rhs) < 1e-7


def test_alternating_identity_example_value():
    sc = load_scenario("paper_example_n2")
    point = sc.sample_points[0]
    st = geo.induced_structure(geo.structure_jets(sc, point, 1))
    prov = GeometricCurvature(geo.curvature(st))
    sj = geo.structure_jets(sc, point, 1)
    w = _omega_at(sc, point)
    nabla = nabla_powers(w, sj, 2)[2]
    lhs, rhs = alternating_sum_identity(w, nabla, prov, 1, [(0, 2)], (0, 2))
    assert abs(lhs - (-2.0)) < 1e-12
    assert abs(lhs - rhs) < 1e-7
    with pytest.raises(ArityError):  # k = 2 needs nabla^4, not nabla^2
        alternating_sum_identity(w, nabla, prov, 2, [(0, 2), (1, 3)], (0, 2))


def test_alternating_identity_depth_two():
    # rhs sums four sign assignments of nabla^4, exercising order-5 jets
    sc = load_scenario("centroaffine_sphere")
    point = sc.sample_points[0]
    st = geo.induced_structure(geo.structure_jets(sc, point, 1))
    prov = GeometricCurvature(geo.curvature(st))
    sj = geo.structure_jets(sc, point, 3)
    w = _omega_at(sc, point)
    nabla = nabla_powers(w, sj, 4)[4]
    rng = np.random.default_rng(14)
    for _ in range(6):
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, 4, size=(2, 2))]
        ys = tuple(int(v) for v in rng.integers(0, 4, size=2))
        lhs, rhs = alternating_sum_identity(w, nabla, prov, 2, pairs, ys)
        assert abs(lhs - rhs) < 1e-7


# -- R^k.T at vector arguments -------------------------------------------


def _contract(tensor, vectors):
    """Full contraction of a dense tensor with one vector per slot."""
    out = tensor
    for vec in vectors:
        out = np.tensordot(vec, out, axes=([0], [0]))
    return float(out)


def _assert_probe_matches_dense(prov, w, k, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((2 * k + 2, prov.dim))
    got = float(r_power_probe(prov, w, k, vectors))
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


@settings(max_examples=60, deadline=None)
@given(block_models())
def test_basis_image_is_the_full_tensor_column(model):
    # the Gauss rule's two forms, lazy per image and whole tensor, agree
    # bit for bit: the same products h[j, t] * S[l, i] and h[i, t] * S[l, j]
    prov = AlgebraicCurvature(model)
    full = prov.full_tensor()
    for i, j, t in np.ndindex(full.shape[1:]):
        col = full[:, t, i, j]
        assert prov.basis_image(i, j, t) == \
            tuple((int(l), float(col[l])) for l in np.nonzero(col)[0]), (i, j, t)


@settings(max_examples=40, deadline=None)
@given(block_models(), hst.integers(0, 3), hst.integers(0, 2 ** 32 - 1))
def test_probe_matches_dense_contraction_on_models(model, k, seed):
    prov = AlgebraicCurvature(model)
    w = random_omega(model.dim, np.random.default_rng(seed))
    _assert_probe_matches_dense(prov, w, k, seed)


@lru_cache(maxsize=None)
def _scenario_curvature(name):
    sc = load_scenario(name)
    point = sc.sample_points[0]
    structure = geo.induced_structure(geo.structure_jets(sc, point, 1))
    return GeometricCurvature(geo.curvature(structure)), _omega_at(sc, point)


@settings(max_examples=25, deadline=None)
@given(hst.sampled_from(BUILTIN_NAMES), hst.integers(0, 3), hst.integers(0, 2 ** 32 - 1))
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
    r2 = provider.full_tensor().reshape(n * n, n * n)
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


def _assert_probe_matches_reference(prov, w, k, batch, seed):
    vectors = np.random.default_rng(seed).standard_normal(batch + (2 * k + 2, prov.dim))
    got = r_power_probe(prov, w, k, vectors)
    ref = _reference_r_power_probe(prov, w, k, vectors)
    assert got.shape == ref.shape == batch
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), (got, ref)


BATCHES = hst.sampled_from(((), (2, 3)))


@settings(max_examples=40, deadline=None)
@given(block_models(dims=(4, 5, 6, 7, 8)), hst.integers(0, 4), BATCHES,
       hst.integers(0, 2 ** 32 - 1))
def test_probe_matches_vector_reference_on_models(model, k, batch, seed):
    prov = AlgebraicCurvature(model)
    _assert_probe_matches_reference(prov, _random_two_form(model.dim, seed), k,
                                    batch, seed)


@settings(max_examples=25, deadline=None)
@given(hst.sampled_from(BUILTIN_NAMES), hst.integers(0, K_CAP_GEOMETRIC), BATCHES,
       hst.integers(0, 2 ** 32 - 1))
def test_probe_matches_vector_reference_on_scenarios(name, k, batch, seed):
    prov, w = _scenario_curvature(name)
    _assert_probe_matches_reference(prov, w, k, batch, seed)


def test_probe_batch_matches_single_calls():
    prov = AlgebraicCurvature(_model())
    rng = np.random.default_rng(5)
    w = random_omega(4, rng)
    for k in range(4):
        vectors = rng.standard_normal((2, 3, 2 * k + 2, 4))
        batched = r_power_probe(prov, w, k, vectors)
        assert batched.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            single = r_power_probe(prov, w, k, vectors[idx])
            assert single.shape == ()
            assert abs(batched[idx] - single) <= 1e-12 * max(1.0, abs(single))


def test_probe_of_basis_vectors_is_the_component():
    prov = AlgebraicCurvature(_model())
    e = np.eye(4)
    rng = np.random.default_rng(6)
    w = tridiagonal_omega(4)
    for k in range(5):
        args = tuple(int(v) for v in rng.integers(0, 4, size=2 * k + 2))
        ref = r_power_action(prov, w, k, args)
        got = r_power_probe(prov, w, k, e[list(args)])
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
    # the recursion takes (0,p) tensors of any order, the probe 2-forms only
    for t in (np.array(1.5), rng.standard_normal(4), rng.standard_normal((4, 4, 4))):
        with pytest.raises(ArityError):
            r_power_probe(prov, t, 1, np.ones((2 + t.ndim, 4)))


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
    for k in range(4):
        picks = rng.integers(0, len(units), size=k + 1)
        args = [int(i) for r in picks for i in (a[r], b[r])]
        got = _pair_probe(prov, pack_two_form(w, 4), units[picks][None])[0]
        assert got == r_power_probe(prov, w, k, e[args])


def test_probe_of_an_empty_batch_is_empty():
    prov = AlgebraicCurvature(_model())
    w = tridiagonal_omega(4)
    for shape, batch in (((0, 4, 4), (0,)), ((3, 0, 4, 4), (3, 0))):
        got = r_power_probe(prov, w, 1, np.ones(shape))
        assert got.shape == batch


def test_probe_arity_and_cap_checks():
    prov = AlgebraicCurvature(_model())
    w = tridiagonal_omega(4)
    with pytest.raises(ArityError):
        r_power_probe(prov, w, 1, np.ones((3, 4)))
    with pytest.raises(ArityError):
        r_power_probe(prov, w, 1, np.ones((4, 3)))
    with pytest.raises(ArityError):
        r_power_probe(prov, w, -1, np.ones((0, 4)))
    with pytest.raises(RecursionCapError):
        r_power_probe(prov, w, 9, np.ones((20, 4)))
    sc_prov, sc_w = _scenario_curvature("paraboloid")
    with pytest.raises(RecursionCapError):
        r_power_probe(sc_prov, sc_w, 4, np.ones((10, 4)))
    # k! branches: at k = 8 and dim 8 (N2 = 28) one probe peaks at its last
    # level, where 8! branches each form a 28 x 28 matrix (31610880
    # entries), so ten of them exceed the entry cap
    big = AlgebraicCurvature(assemble([RealBlock(4, 0.7, 1)] + [RealBlock(1, 0.0, 1)] * 4))
    with pytest.raises(RecursionCapError, match="316108800 entries"):
        r_power_probe(big, tridiagonal_omega(8), 8, np.ones((10, 18, 8)))
    # a form antisymmetric only to 1e-6 is no 2-form
    bent = w.copy()
    bent[0, 3] += 1e-6
    with pytest.raises(ArityError, match="antisymmetric"):
        r_power_probe(prov, bent, 1, np.ones((4, 4)))


# -- R^k.omega packed on Lambda^2 ------------------------------------------


def _gather_pair_operator(provider):
    """Reference: the pair operator rho[P, A, B] as four dense gathers over
    [A, B, P], one per term of (rho_P w)(e_a, e_b) = w(R e_a, e_b) +
    w(e_a, R e_b) with its Kronecker deltas."""
    c, d = np.triu_indices(provider.dim, 1)
    a, b = c[:, None], d[:, None]
    r = provider.full_tensor()[:, :, c, d]
    rho = (r[c, a] * (b == d)[..., None] - r[d, a] * (b == c)[..., None]
           + r[d, b] * (a == c)[..., None] - r[c, b] * (a == d)[..., None])
    return np.moveaxis(rho, 2, 0)


@settings(max_examples=60, deadline=None)
@given(block_models(dims=tuple(range(2, 11))))
def test_pair_operator_matches_gather_reference_on_models(model):
    prov = AlgebraicCurvature(model)
    assert np.array_equal(_pair_operator(prov), _gather_pair_operator(prov))


def test_pair_operator_matches_gather_reference_on_sample_points():
    # every sample point of every shipped scenario; built once per provider
    for name in BUILTIN_NAMES:
        sc = load_scenario(name)
        for point in sc.sample_points:
            st = geo.induced_structure(geo.structure_jets(sc, point, 1))
            prov = GeometricCurvature(geo.curvature(st))
            rho = _pair_operator(prov)
            assert np.array_equal(rho, _gather_pair_operator(prov)), (name, point)
            assert _pair_operator(prov) is rho and not rho.flags.writeable


def _unpacked_r_power(provider, omega, k):
    """R^k.omega as a dense array of arity 2k+2: the last packed level of
    ``r_power_levels`` (omega itself for k = 0), each pair axis unpacked
    to its antisymmetric n x n slots."""
    n = provider.dim
    t = pack_two_form(omega, n)
    for t in r_power_levels(provider, t, k):
        pass
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
    r_full = provider.full_tensor()
    for _ in range(k):
        out = np.zeros((n, n) + t.shape)
        for slot in range(t.ndim):
            contrib = np.tensordot(r_full, t, axes=([0], [slot]))
            out -= np.moveaxis(contrib, [1, 2, 0], [0, 1, slot + 2])
        t = out
    return t


def _reference_r_power_action(provider, tensor, k, args, memo=True):
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

    def eval_args(pos, idxs):
        if pos == len(args):
            return eval_idx(k, idxs)
        arg = args[pos]
        if isinstance(arg, int):
            terms = ((arg, 1.0),)
        else:
            terms = tuple((int(m), float(arg[m])) for m in np.nonzero(arg)[0])
        out = 0.0
        for m, coeff in terms:
            out += coeff * eval_args(pos + 1, idxs + (m,))
        return out

    return eval_args(0, ())


def _assert_recursion_matches_reference(prov, w, k, vectors, seed):
    rng = np.random.default_rng(seed)
    args = [int(v) for v in rng.integers(0, prov.dim, size=2 * k + np.ndim(w))]
    for slot in rng.choice(len(args), size=vectors, replace=False):
        args[slot] = rng.standard_normal(prov.dim)
    got = r_power_action(prov, w, k, args)
    for memo in (True, False):
        assert got == _reference_r_power_action(prov, w, k, args, memo=memo)


@settings(max_examples=40, deadline=None)
@given(block_models(dims=(4, 6, 8)), hst.integers(0, 3), hst.integers(0, 2),
       hst.integers(0, 2 ** 32 - 1))
def test_recursion_matches_numpy_reference_bit_for_bit(model, k, vectors, seed):
    prov = AlgebraicCurvature(model)
    _assert_recursion_matches_reference(prov, _random_two_form(model.dim, seed), k,
                                        vectors, seed)


@settings(max_examples=25, deadline=None)
@given(hst.sampled_from(BUILTIN_NAMES), hst.integers(0, 3), hst.integers(0, 2),
       hst.integers(0, 2 ** 32 - 1))
def test_geometric_recursion_matches_numpy_reference_bit_for_bit(name, k, vectors, seed):
    prov, w = _scenario_curvature(name)
    _assert_recursion_matches_reference(prov, w, k, vectors, seed)


def _random_three_tensor(dim, seed):
    return np.random.default_rng(seed).uniform(-1, 1, (dim, dim, dim))


@settings(max_examples=40, deadline=None)
@given(block_models(dims=(4, 6)), hst.integers(0, 3), hst.integers(0, 2),
       hst.integers(0, 2 ** 32 - 1))
def test_recursion_on_three_tensors_matches_plain_recursion(model, k, vectors, seed):
    # (0,3) tensors: the tests above draw only 2-forms
    prov = AlgebraicCurvature(model)
    _assert_recursion_matches_reference(prov, _random_three_tensor(model.dim, seed), k,
                                        vectors, seed)


@settings(max_examples=25, deadline=None)
@given(hst.sampled_from(BUILTIN_NAMES), hst.integers(0, 3), hst.integers(0, 2),
       hst.integers(0, 2 ** 32 - 1))
def test_geometric_recursion_on_three_tensors_matches_plain_recursion(name, k, vectors,
                                                                      seed):
    prov, _ = _scenario_curvature(name)
    _assert_recursion_matches_reference(prov, _random_three_tensor(prov.dim, seed), k,
                                        vectors, seed)


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
