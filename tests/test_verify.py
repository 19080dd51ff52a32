import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from affsym import verify
from affsym import geometry as geo
from affsym.jets import component_jets
from affsym.model import ComplexBlock, ModelError, RealBlock, assemble, random_omega
from affsym.scenarios import load_scenario
from affsym.tensor_ops import (AlgebraicCurvature, GeometricCurvature, nabla_powers,
                               pack_two_form, r_power_action, r_power_levels)
from affsym.verify import (OracleError, OracleSpec, check_rank_theorem,
                           list_oracles, run_family, run_oracle, sample_spec,
                           theorem_witness)
from test_tensor_ops import block_models, tridiagonal_omega

pytestmark = pytest.mark.contract

EXPECTED_IDS = [
    "with_pi_x", "rp_ei_ek", "kgt3_basics", "lemma34", "even_odd", "lemma36",
    "lematD", "blk3_12", "blk3_12ij", "blk3_122i", "blk3_2312", "two_blk2",
    "rw_double", "cx_basic", "cx_detpow", "cx_other", "cx_c1", "cx_c2",
    "cx_c3", "cx_b2", "cx_b3", "cx_b4", "cx_b45", "cx_b5", "cx_aij",
    "diag_pair", "x_z1z2_y", "blk2_1x1", "blk2_a0", "blk2_a0n",
]


def test_catalog_is_complete_and_unique():
    ids = [oid for oid, _ in list_oracles()]
    assert ids == EXPECTED_IDS
    assert len(set(ids)) == 30


def test_unknown_oracle_id():
    with pytest.raises(OracleError):
        run_oracle(OracleSpec("nope", {}))
    with pytest.raises(OracleError):
        sample_spec("nope", np.random.default_rng(0))
    with pytest.raises(OracleError):
        run_family("nope", 1)


@pytest.mark.parametrize("change, words", [
    (lambda q: q["blocks"][0].__setitem__(2, float("nan")), "is not finite"),
    (lambda q: q["blocks"][0].__setitem__(0, "triangle"), "unknown block kind 'triangle'"),
    (lambda q: q.pop("omega"), "KeyError('omega')"),
    (lambda q: q["blocks"][0].__setitem__(1, float("inf")), "cannot convert float infinity"),
    (lambda q: q["blocks"][0].__setitem__(3, float("inf")), "cannot convert float infinity")],
    ids=["nan_entry", "unknown_kind", "no_omega", "inf_size", "inf_sign"])
def test_malformed_spec_is_an_oracle_error(change, words):
    spec = sample_spec("lemma34", np.random.default_rng(0))
    params = {**spec.params, "blocks": [list(b) for b in spec.params["blocks"]]}
    change(params)
    with pytest.raises(OracleError, match="malformed params: ") as err:
        run_oracle(OracleSpec(spec.id, params))
    assert words in str(err.value)


@pytest.mark.parametrize("size, sign", [(6.5, -1.5), (6, -1.5), (True, -1), (6, -1.0)],
                         ids=["float_size_and_sign", "float_sign", "bool_size",
                              "integral_float_sign"])
def test_block_size_or_sign_that_is_no_int_is_refused(size, sign):
    # the lead block is ["real", 6, 0.0, -1]; int() used to truncate these,
    # so the record named a block that was never built
    spec = sample_spec("lemma34", np.random.default_rng(0))
    params = {**spec.params, "blocks": [list(b) for b in spec.params["blocks"]]}
    params["blocks"][0] = ["real", size, 0.0, sign]
    entry = repr(params["blocks"][0])
    with pytest.raises(OracleError, match="malformed params: ") as err:
        run_oracle(OracleSpec(spec.id, params))
    assert entry in str(err.value) and "is not an integer" in str(err.value)


def test_hypothesis_violations_are_named():
    w4 = tridiagonal_omega(4).tolist()
    cases = [
        ("rp_ei_ek", {"blocks": [["real", 1, 1.0, 1]] * 4,
                      "k": 1, "p": 1, "i": 1, "omega": w4}, "size >= 2"),
        ("blk3_122i", {"blocks": [["real", 3, 0.5, 1], ["real", 1, 0, 1]],
                       "p": 1, "i": 0, "omega": w4}, "nilpotent"),
        ("cx_b45", {"blocks": [["complex", 2, 1.0, 1.0]],
                    "k": 2, "p": 1, "variant": "a", "omega": w4}, "vanish"),
        ("diag_pair", {"blocks": [["real", 1, 1.0, 1]] * 4, "l": 1,
                       "kk": 0, "jj": 0, "i": 2, "omega": w4}, "distinct"),
    ]
    # one valid draw per family, with one slot or power moved out of range
    assert sorted({oid for oid, _, _ in MUTATIONS}) == sorted(EXPECTED_IDS)
    for oid, change, name in MUTATIONS:
        spec = sample_spec(oid, np.random.default_rng((0, EXPECTED_IDS.index(oid), 0)))
        run_oracle(spec)
        params = dict(spec.params)
        params.update(change(params) if callable(change) else change)
        cases.append((oid, params, f"{name} must be"))
    lematd = sample_spec("lematD", np.random.default_rng(0)).params
    cases.append(("lematD", {**lematd, 1: 0}, "keys must be strings"))
    for oid, params, fragment in cases:
        with pytest.raises(OracleError) as err:
            run_oracle(OracleSpec(oid, params))
        assert fragment in str(err.value), (oid, str(err.value))


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e200])
def test_symmetric_omega_is_refused_at_every_scale(scale):
    # antisymmetry is read on the scale max|omega|: a symmetric 1e-13 omega
    # passed the absolute max|w + w^T| < 1e-12 and ran to a PASS
    spec = sample_spec("lemma36", np.random.default_rng(0))
    dim = len(spec.params["omega"])
    params = {**spec.params, "omega": (scale * np.ones((dim, dim))).tolist()}
    with pytest.raises(OracleError, match="omega must be antisymmetric"):
        run_oracle(OracleSpec(spec.id, params))
    # an antisymmetric omega at that scale is a 2-form
    run_oracle(OracleSpec(spec.id, {**spec.params, "omega": (
        scale * np.asarray(spec.params["omega"])).tolist()}))


#: (id, params change, parameter named in the error) outside the family's
#: hypotheses; the first five gave a FAIL or a stray exception before the
#: hypotheses were declared
MUTATIONS = [
    ("cx_detpow", {"i": 1}, "i"),
    ("cx_basic", {"formula": 3, "i": 0}, "i"),
    ("two_blk2", {"variant": "odd", "i": 1}, "i"),
    ("cx_c3", {"i": 99}, "i"),
    ("lemma36", {"p": 0}, "p"),
    ("with_pi_x", {"i": 0}, "i"),
    ("rp_ei_ek", {"i": 0}, "i"),
    ("kgt3_basics", {"component": 99}, "component"),
    ("lemma34", {"i": 1}, "i"),
    ("even_odd", {"pp": -1}, "pp"),
    ("lematD", {"p": 5}, "p"),
    ("blk3_12", {"p": 0}, "p"),
    ("blk3_12ij", {"p": 1}, "p"),
    ("blk3_122i", {"i": 2}, "i"),
    ("blk3_2312", {"p": 0}, "p"),
    ("rw_double", {"pp": 0}, "pp"),
    ("cx_other", {"j": 1}, "j"),
    ("cx_c1", {"i": 2}, "i"),
    ("cx_c2", {"j": 0}, "j"),
    ("cx_b2", {"i": 1}, "i"),
    ("cx_b3", {"i": 0}, "i"),
    ("cx_b4", {"pos": 5}, "pos"),
    ("cx_b45", {"p": 0}, "p"),
    ("cx_b5", {"pos": 0}, "pos"),
    ("cx_aij", {"zero_ij": [1, 1]}, "zero_ij"),
    ("diag_pair", lambda q: {"i": q["kk"]}, "i"),
    ("x_z1z2_y", lambda q: {"y": q["z2"]}, "y"),
    ("x_z1z2_y", lambda q: {"z1": q["x"]}, "z1"),
    ("x_z1z2_y", lambda q: {"z2": next(t for t, b in enumerate(q["blocks"])
                                       if b[2] != 0.0 and t != q["x"])}, "z2"),
    ("blk2_1x1", {"p": 0}, "p"),
    ("blk2_a0", {"i": 1}, "i"),
    ("blk2_a0n", {"variant": "c"}, "variant"),
]


@settings(max_examples=200, deadline=None)
@given(hst.integers(0, 2 ** 64 - 1), hst.floats(-1e6, 1e6), hst.floats(0.0, 1e6),
       hst.integers(1, 2 ** 40))
def test_sampler_draws_match_numpy_bit_for_bit(seed, lo, width, n):
    hi = lo + width
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    a, b = verify._uniform(got, lo, hi), want.uniform(lo, hi)
    assert type(a) is type(b) and a == b and np.signbit(a) == np.signbit(b)
    assert got.random() == want.random()
    assert got.integers(n) == want.integers(0, n)
    assert got.random() == want.random()


@pytest.mark.parametrize("p_max", [1, 2, 3, 4])
def test_draws_honour_p_max(p_max):
    for index, oid in enumerate(EXPECTED_IDS):
        try:
            specs = [sample_spec(oid, np.random.default_rng((0, index, d)), p_max)
                     for d in range(25)]
        except OracleError as err:
            # only a family whose least power is 2 is refused, at p_max 1
            assert p_max == 1 and f"{oid} needs p_max >= 2" in str(err)
            continue
        assert max(verify.CATALOG[oid].power(s.params) for s in specs) <= p_max, oid


def _omega_list(dim):
    return tridiagonal_omega(dim).tolist()


def test_rp_ei_ek_pinned_example():
    # k = 2, alpha = 2, eps = +1, p = 2, dim 4, slot pair (e_i, e_k) with
    # i the third basis vector: closed form is 4 * omega(e3, e2) (1-based).
    params = {
        "blocks": [["real", 2, 2.0, 1], ["real", 1, 0.0, 1], ["real", 1, 0.0, 1]],
        "k": 2, "p": 2, "i": 2, "omega": _omega_list(4),
    }
    res = run_oracle(OracleSpec("rp_ei_ek", params))
    w = tridiagonal_omega(4)
    assert res.closed == 4.0 * w[2, 1]
    assert res.abs_err < 1e-10


def test_blk3_12_pinned_example():
    # p = 3, eps = +1: closed form is -6 * omega(e1, e2), any alpha
    for alpha in (0.0, 1.7, -0.4):
        params = {
            "blocks": [["real", 3, alpha, 1], ["real", 1, 0.5, 1],
                       ["real", 1, -1.0, -1], ["real", 1, 0.0, 1]],
            "p": 3, "omega": _omega_list(6),
        }
        res = run_oracle(OracleSpec("blk3_12", params))
        assert abs(res.closed - (-6.0)) < 1e-12
        assert res.abs_err < 1e-10


def test_cx_detpow_pinned_example():
    # alpha = 1, beta = 2, p = 1: closed form is 5 * omega(e1, e_i)
    params = {
        "blocks": [["complex", 1, 1.0, 2.0], ["real", 1, 0.0, 1],
                   ["real", 1, 0.0, 1]],
        "pp": 1, "i": 2, "variant": "e1", "omega": _omega_list(4),
    }
    res = run_oracle(OracleSpec("cx_detpow", params))
    w = tridiagonal_omega(4)
    assert res.closed == 5.0 * w[0, 2]
    assert res.abs_err < 1e-10


@pytest.mark.parametrize("oracle_id", EXPECTED_IDS)
def test_every_family_holds_on_seeded_draws(oracle_id):
    for res in run_family(oracle_id, draws=25, seed=11, p_max=4):
        assert res.scaled_err <= verify.ORACLE_RTOL, (oracle_id, res.params)


def _term_by_term(prov, w, k, args):
    """Reference: R^k omega at basis indices and vectors, each vector
    expanded into its nonzeros and the multilinear sum taken term by term
    over the basis-index recursion."""
    terms = [((arg, 1.0),) if isinstance(arg, int) else
             tuple((int(m), float(arg[m])) for m in np.flatnonzero(arg)) for arg in args]
    total = 0.0
    for combo in itertools.product(*terms):
        coeff = math.prod(c for _, c in combo)
        total += coeff * r_power_action(prov, w, k, tuple(m for m, _ in combo))
    return total


def _vector_args(res):
    """The arguments of the two families that read the pair kernel, from a
    draw's params: with_pi_x's (x_1, e_k, ..., x_p, e_k, e_i, e_k) and
    cx_b45 cor's ((e_1, e_s) p times, e_2, S e_s), s = 2k - 1, 1-based."""
    q = res.params
    m = assemble([verify._decode(entry) for entry in q["blocks"]])
    k, p = q["k"], q["p"]
    if res.id == "with_pi_x":
        args = []
        for x in q["xs"]:
            vec = np.zeros(m.dim)
            vec[:k] = x
            args += [vec, k - 1]
        return m, args + [q["i"], k - 1]
    return m, [0, 2 * k - 2] * p + [1, m.S[:, 2 * k - 2]]


def test_kernel_brute_matches_term_by_term_reference():
    draws = run_family("with_pi_x", 25) + [res for res in run_family("cx_b45", 25)
                                           if res.params["variant"] == "cor"]
    assert len(draws) > 25
    for res in draws:
        m, args = _vector_args(res)
        ref = _term_by_term(AlgebraicCurvature(m), np.array(res.params["omega"]), res.power,
                            args)
        assert abs(res.brute - ref) <= 1e-12 * max(1.0, abs(ref)), (res.id, res.params)


def test_brute_invariant_under_trailing_permutation():
    """Permuting trailing 1x1 blocks together with omega leaves brute unchanged."""
    rng = np.random.default_rng(21)
    lead = [["real", 2, 0.9, 1]]
    tails = [["real", 1, 0.4, 1], ["real", 1, -1.2, -1],
             ["real", 1, 0.0, 1], ["real", 1, 2.0, -1]]
    w = rng.uniform(-1, 1, (6, 6))
    w = (w - w.T).tolist()
    params = {"blocks": lead + tails, "k": 2, "p": 3, "i": 4, "omega": w}
    base = run_oracle(OracleSpec("rp_ei_ek", params)).brute

    order = [2, 0, 3, 1]
    perm = [0, 1] + [2 + t for t in order]
    w_arr = np.array(w)
    w_perm = w_arr[np.ix_(perm, perm)]
    inv = {old: new for new, old in enumerate(perm)}
    params2 = {"blocks": lead + [tails[t] for t in order], "k": 2, "p": 3,
               "i": inv[4], "omega": w_perm.tolist()}
    assert run_oracle(OracleSpec("rp_ei_ek", params2)).brute == base


def test_power_of_mapping():
    power = {oid: fam.power for oid, fam in verify.CATALOG.items()}
    assert power["even_odd"]({"pp": 1, "parity": "odd"}) == 3
    assert power["rw_double"]({"pp": 2}) == 4
    assert power["diag_pair"]({"l": 2}) == 4
    assert power["kgt3_basics"]({}) == 1
    assert power["lemma36"]({"p": 3}) == 3


INADMISSIBLE = {
    "real_size4": [RealBlock(4, 0.7, 1)] + [RealBlock(1, 0.0, 1)] * 4,
    "real_size3_nilpotent": [RealBlock(3, 0.0, 1)] + [RealBlock(1, 0.0, -1)] * 3,
    "real_size3_nonzero": [RealBlock(3, -1.1, -1)] + [RealBlock(1, 0.0, 1)] * 3,
    "two_real_2blocks": [RealBlock(2, 0.4, 1), RealBlock(2, -0.9, 1)],
    "complex_2x2": [ComplexBlock(1, 0.3, 1.2)] + [RealBlock(1, 0.0, 1)] * 2,
    "complex_4x4": [ComplexBlock(2, 0.5, 0.8)] + [RealBlock(1, 0.0, 1)] * 2,
    "diag_rank2": [RealBlock(1, 1.0, 1), RealBlock(1, -0.5, -1),
                   RealBlock(1, 0.0, 1), RealBlock(1, 0.0, 1)],
}


@pytest.mark.parametrize("shape", sorted(INADMISSIBLE))
def test_witness_found_on_inadmissible_shape(shape):
    # each slot pair reduces to a unit 2-vector e_a^e_b, a < b, whose
    # component the recursion reproduces above the threshold
    blocks = INADMISSIBLE[shape]
    prov = AlgebraicCurvature(assemble(blocks))
    reports = [theorem_witness(blocks, p_max=4, trials=3, seed=5)]
    reports += [theorem_witness(blocks, p_max=4, trials=1, seed=seed) for seed in range(20)]
    for report in reports:
        assert report.all_found, [e for e in report.entries if not e.found]
        assert sorted({e.power for e in report.entries}) == [1, 2, 3, 4]
        for entry in report.entries:
            assert len(entry.args) == 2 * entry.power + 2
            assert all(a < b for a, b in zip(entry.args[0::2], entry.args[1::2]))
            rng = np.random.default_rng((report.seed, entry.power, entry.trial))
            w = random_omega(prov.dim, rng)
            assert r_power_action(prov, w, entry.power, entry.args) == entry.value
            assert abs(entry.value) > verify.WITNESS_THRESHOLD


@pytest.mark.parametrize("c", [1e-3, 1e-6])
def test_witness_floor_moves_with_the_scale_of_s(c):
    # R^p omega scales like max|S|^p: with an absolute floor of 1e-9 the
    # search reported "exhausted" at p = 3 and 4 for c = 1e-3
    blocks = [RealBlock(1, c, 1), RealBlock(1, -0.5 * c, -1),
              RealBlock(1, 0.0, 1), RealBlock(1, 0.0, 1)]
    report = theorem_witness(blocks, p_max=4, trials=3)
    assert report.all_found, [e for e in report.entries if not e.found]
    assert sorted({e.power for e in report.entries}) == [1, 2, 3, 4]


def test_vanishing_bound_is_held_at_the_largest_double():
    s, h, w = np.diag([2.0, 0.5]), np.eye(2), np.array([[0.0, 3.0], [-3.0, 0.0]])
    assert verify.vanishing_bound(1e-8, 0, s, h, w) == 1e-8 * 3.0
    assert verify.vanishing_bound(1e-8, 2, s, h, w) == 1e-8 * 4.0 * 3.0
    # (1e200)^2 raises OverflowError in Python floats
    assert verify.vanishing_bound(1e-8, 2, 1e200 * s, h, w) == sys.float_info.max
    assert verify.vanishing_bound(1e300, 0, s, h, 1e300 * w) == sys.float_info.max


def test_witness_value_is_reproducible():
    from affsym.model import random_omega
    from affsym.tensor_ops import AlgebraicCurvature, r_power_action
    blocks = INADMISSIBLE["two_real_2blocks"]
    report = theorem_witness(blocks, p_max=2, trials=2, seed=9)
    m = assemble(blocks)
    prov = AlgebraicCurvature(m)
    for entry in report.entries:
        rng = np.random.default_rng((9, entry.power, entry.trial))
        w = random_omega(m.dim, rng)
        assert r_power_action(prov, w, entry.power, entry.args) == entry.value


def test_witness_is_deterministic_and_found_by_probe():
    blocks = INADMISSIBLE["complex_4x4"]
    first = theorem_witness(blocks, p_max=3, trials=2, seed=21)
    assert first == theorem_witness(blocks, p_max=3, trials=2, seed=21)
    assert first.all_found
    assert {e.source for e in first.entries} == {"probe"}


@pytest.mark.parametrize("p_max, trials", [(0, 1), (-1, 1), (1, 0), (1, -3)])
def test_witness_search_over_nothing_is_an_error(p_max, trials):
    with pytest.raises(OracleError, match="below 1"):
        theorem_witness(INADMISSIBLE["diag_rank2"], p_max=p_max, trials=trials)


@pytest.mark.parametrize("eigenvalue, power", [(1e200, 2), (1e80, 4)])
def test_overflowing_witness_probe_is_an_oracle_error(eigenvalue, power):
    # rank S = 2, so R^p omega is nonzero at every power: a probe that
    # overflows shows nothing, and is neither "exhausted" nor a warning
    blocks = [RealBlock(2, eigenvalue, 1), RealBlock(1, 0.0, 1), RealBlock(1, 0.0, 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OracleError, match=f"at power {power}, trial 0: .* not finite"):
            theorem_witness(blocks, p_max=4, trials=1)


def test_degenerate_form_draws_are_reported(monkeypatch):
    def no_form(*args, **kwargs):
        raise ModelError("could not draw a nondegenerate form")

    monkeypatch.setattr(verify, "random_omega", no_form)
    report = theorem_witness(INADMISSIBLE["diag_rank2"], p_max=2, trials=3)
    assert [e.source for e in report.entries] == ["degenerate"] * 6
    assert report.degenerate_omegas == 6 and not report.all_found


def test_no_false_witness_on_admissible_rank_one_shape():
    # nilpotent 2-block with (+1) and (-1): R^3 omega = 0, so the probe is
    # zero and no component may be reported
    blocks = [RealBlock(2, 0.0, 1), RealBlock(1, 0.0, 1), RealBlock(1, 0.0, -1)]
    report = theorem_witness(blocks, p_max=4, trials=3, seed=2)
    late = [e for e in report.entries if e.power >= 3]
    assert len(late) == 6
    assert all(not e.found and e.source == "exhausted" for e in late)
    assert not report.all_found


def _rank_check(prov, s_op, h, nablas, p):
    """check_rank_theorem handed the ladder R^1 omega .. R^p omega that
    its caller steps, omega = nablas[0]."""
    levels = r_power_levels(prov, pack_two_form(nablas[0], prov.dim), p)
    return check_rank_theorem(list(levels), s_op, h, nablas)


def _rank_on_model(m, p, nablas=None):
    """check_rank_theorem on a Gauss model, by default with the tridiagonal
    form."""
    nablas = [tridiagonal_omega(m.dim)] if nablas is None else nablas
    return _rank_check(AlgebraicCurvature(m), m.S, m.H, nablas, p)


def test_check_rank_theorem_on_models():
    final = assemble([RealBlock(2, 0.0, 1), RealBlock(1, 0.0, 1),
                      RealBlock(1, 0.0, -1)])
    verdict = _rank_on_model(final, 3)
    assert verdict.verdict == "PASS"
    assert verdict.rank_s == 1 and verdict.final_form == "rank_one_nilpotent"

    identity = assemble([RealBlock(1, 1.0, 1)] * 4)
    assert _rank_on_model(identity, 3).verdict == "VACUOUS"

    zero = assemble([RealBlock(1, 0.0, 1)] * 4)
    verdict = _rank_on_model(zero, 1)
    assert verdict.verdict == "PASS" and verdict.rank_s == 0

    with pytest.raises(OracleError):
        _rank_on_model(zero, 1, [np.zeros((4, 4))])
    with pytest.raises(OracleError, match="rank check power 0 is below 1"):
        _rank_on_model(zero, 0)


def test_check_rank_theorem_at_dimension_ten():
    # packed R^3 omega holds 45^4 entries, the dense form 10^8
    nilpotent = assemble([RealBlock(2, 0.0, 1)]
                         + [RealBlock(1, 0.0, (-1) ** i) for i in range(8)])
    verdict = _rank_on_model(nilpotent, 3)
    assert verdict.verdict == "PASS" and verdict.rank_s == 1
    assert verdict.final_form == "rank_one_nilpotent"

    identity = assemble([RealBlock(1, 1.0, 1)] * 10)
    verdict = _rank_on_model(identity, 3)
    assert verdict.verdict == "VACUOUS" and verdict.power == 3


@settings(max_examples=40, deadline=None)
@given(block_models(dims=(4, 6, 8)), hst.integers(1, 3), hst.integers(0, 2 ** 32 - 1))
def test_rank_check_never_fails_on_block_models(model, p, seed):
    # the paper's theorem: R^q omega = 0 for a nondegenerate omega forces
    # rank S <= 1 with an admissible canonical shape
    w = random_omega(model.dim, np.random.default_rng(seed))
    assert _rank_on_model(model, p, [w]).verdict != "FAIL"


@settings(max_examples=20, deadline=None)
@given(hst.sampled_from((4, 6, 8)), hst.data())
def test_rank_check_passes_on_nilpotent_two_block(dim, data):
    # R^3 omega vanishes for every omega here, so the scan stops by p = 3
    signs = data.draw(hst.lists(hst.sampled_from((1, -1)), min_size=dim - 1,
                                max_size=dim - 1))
    m = assemble([RealBlock(2, 0.0, signs[0])]
                 + [RealBlock(1, 0.0, s) for s in signs[1:]])
    w = random_omega(dim, np.random.default_rng(data.draw(hst.integers(0, 2 ** 32 - 1))))
    verdict = _rank_on_model(m, 3, [w])
    assert verdict.verdict == "PASS" and verdict.final_form == "rank_one_nilpotent"


def _rank_at_first_point(name, p):
    """check_rank_theorem at a scenario's first sample point, handed the
    curvature and nabla chain as check-geometry solves them."""
    sc = load_scenario(name)
    sj = geo.structure_jets(sc, sc.sample_points[0], 2)
    nablas = nabla_powers(component_jets(sc.omega, sj.point, 3, sc.coords), sj, 3)
    return _rank_check(GeometricCurvature(geo.curvature(sj)), sj.S[0], sj.h[0], nablas, p)


def test_check_rank_theorem_on_scenarios():
    v = _rank_at_first_point("paper_example_n2", 3)
    assert v.verdict == "PASS" and v.rank_s == 1
    assert v.max_nabla is not None

    v = _rank_at_first_point("paraboloid", 1)
    assert v.verdict == "PASS" and v.rank_s == 0

    for p in (1, 2, 3):
        assert _rank_at_first_point("centroaffine_sphere", p).verdict == "VACUOUS"
