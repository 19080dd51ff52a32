"""Acceptance suite: one test per criterion, one printed verdict line each.

Tolerances are pinned here, not configured elsewhere; wall-clock budgets
are asserted where the criterion states one.
"""

import json
import math
import time
from dataclasses import astuple

import numpy as np
from affsym import geometry as geo
from affsym import verify
from affsym.canonical import decompose
from affsym.cli import main as cli_main
from affsym.jets import component_jets
from affsym.model import ComplexBlock, RealBlock, assemble, direct_sum
from affsym.scenarios import load_scenario
from affsym.tensor_ops import (GeometricCurvature, alternating_sum_identity,
                               nabla_powers, pack_two_form, r_power_action,
                               r_power_levels)

SHIPPED = ("paper_example_n2", "paper_example_n3", "paraboloid",
           "centroaffine_sphere")


def _verdict(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_criterion_1_worked_example_reproduction():
    t0 = time.perf_counter()
    sc = load_scenario("paper_example_n2")
    points = ((1.0, 2.0, math.pi / 4, math.pi / 6),
              (-1.0, 1.0, math.pi / 3, math.pi / 4),
              (2.0, 0.5, math.pi / 6, math.pi / 3))
    worst = {"s_off": 0.0, "tau": 0.0, "h": 0.0, "r1": 0.0, "r2": 0.0, "r3": 0.0}
    for point in points:
        x, y, z0, z1 = point
        sj = geo.structure_jets(sc, point, 1)

        s_expected = np.zeros((4, 4))
        s_expected[1, 0] = 1.0
        worst["s_off"] = max(worst["s_off"],
                             float(np.max(np.abs(sj.S[0] - s_expected))))
        worst["tau"] = max(worst["tau"], float(np.max(np.abs(sj.tau[0]))))

        h_expected = np.zeros((4, 4))
        h_expected[0, 1] = h_expected[1, 0] = 1.0
        h_expected[2, 2] = x * y
        h_expected[3, 3] = y * math.sin(z0) / math.cos(z1)
        rel = np.max(np.abs(sj.h[0] - h_expected) / np.maximum(1.0, np.abs(h_expected)))
        worst["h"] = max(worst["h"], float(rel))

        w = component_jets(sc.omega, point, 0, sc.coords)[0]
        prov = GeometricCurvature(geo.curvature(sj))
        r1 = r_power_action(prov, w, 1, (0, 2, 0, 2))
        worst["r1"] = max(worst["r1"], abs(r1 - (-x * y * w[0, 1])))
        r2 = r_power_action(prov, w, 2, (0, 2, 0, 2, 0, 2))
        worst["r2"] = max(worst["r2"], abs(r2 - x * y * w[1, 2]))
        *_, r3 = r_power_levels(prov, pack_two_form(w, 4), 3)
        worst["r3"] = max(worst["r3"], float(np.max(np.abs(r3))))
    elapsed = time.perf_counter() - t0
    ok = (worst["s_off"] < 1e-10 and worst["tau"] < 1e-10 and worst["h"] < 1e-9
          and worst["r1"] < 1e-8 and worst["r2"] < 1e-8 and worst["r3"] < 1e-8
          and elapsed < 30.0)
    _verdict(1, ok, f"worked-example reproduction {worst} in {elapsed:.1f}s")


def test_criterion_2_fundamental_residuals():
    t0 = time.perf_counter()
    worst = 0.0
    for name in SHIPPED:
        sc = load_scenario(name)
        for point in sc.sample_points:
            sj = geo.structure_jets(sc, point, 1)
            res = geo.fundamental_residuals(sj, geo.curvature(sj))
            worst = max(worst, *astuple(res))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 60.0
    _verdict(2, ok, f"max residual {worst:.3e} across shipped scenarios in {elapsed:.1f}s")


def test_criterion_3_full_oracle_catalog():
    t0 = time.perf_counter()
    ids = [oid for oid, _ in verify.list_oracles()]
    assert len(ids) >= 30
    worst = (0.0, None)
    for oid in ids:
        for res in verify.run_family(oid, draws=100, seed=2024, p_max=4):
            if res.scaled_err > worst[0]:
                worst = (res.scaled_err, oid)
    elapsed = time.perf_counter() - t0
    ok = worst[0] <= 1e-9 and elapsed < 300.0
    _verdict(3, ok, f"{len(ids)} families x 100 draws, worst scaled error "
                    f"{worst[0]:.3e} ({worst[1]}) in {elapsed:.1f}s")


_EIG_GRID = [-2.1, -1.4, -0.8, 0.0, 0.6, 1.3, 2.0]


def _random_assembly(rng):
    dim = int(rng.choice([4, 6, 8, 10]))
    lams = list(rng.permutation(_EIG_GRID))
    cplx = [(a, b) for a in (-1.0, 0.0, 0.9) for b in (0.7, 1.6)]
    rng.shuffle(cplx)
    blocks = []
    left = dim
    while left > 0:
        if left >= 4 and cplx and rng.random() < 0.3:
            half = int(rng.integers(1, min(3, left // 2) + 1))
            a, b = cplx.pop()
            blocks.append(ComplexBlock(half, a, b))
            left -= 2 * half
            continue
        size = int(rng.integers(1, min(4, left) + 1))
        lam = lams.pop() if lams and rng.random() < 0.85 else 0.0
        blocks.append(RealBlock(size, lam, int(rng.choice((-1, 1)))))
        left -= size
    return blocks


def _key(b):
    if isinstance(b, RealBlock):
        return ("real", b.size, round(b.eigenvalue, 5), b.sign)
    return ("complex", b.half_size, round(b.alpha, 5), round(abs(b.beta), 5))


def test_criterion_4_canonical_roundtrip():
    rng = np.random.default_rng(777)
    failures = []
    worst_res = 0.0
    for trial in range(500):
        blocks = _random_assembly(rng)
        m = assemble(blocks)
        u, _, vt = np.linalg.svd(rng.normal(size=(m.dim, m.dim)))
        q = u @ np.diag(rng.uniform(0.4, 2.5, size=m.dim)) @ vt
        qi = np.linalg.inv(q)
        pair = decompose(q @ m.S @ qi, qi.T @ m.H @ qi)
        worst_res = max(worst_res, pair.residual_jordan, pair.residual_h)
        if sorted(map(_key, pair.blocks)) != sorted(map(_key, blocks)):
            failures.append((trial, blocks, pair.blocks))
    # the H of a real block of sign +1 is the sip matrix
    sips = [np.linalg.eigvalsh(direct_sum([RealBlock(n, 0.0, 1)])[1]) for n in range(1, 13)]
    sig_ok = all((int(np.sum(w > 0.5)), int(np.sum(w < -0.5))) == ((n + 1) // 2, n // 2)
                 for n, w in enumerate(sips, 1))
    ok = not failures and worst_res < 1e-6 and sig_ok
    _verdict(4, ok, f"500 round trips, {len(failures)} mismatches, "
                    f"worst residual {worst_res:.3e}, sip signatures n=1..12 ok={sig_ok}")


INADMISSIBLE = (
    ("real_size4", [RealBlock(4, 0.7, 1)] + [RealBlock(1, 0.0, 1)] * 4),
    ("real_size3_nilpotent", [RealBlock(3, 0.0, 1)] + [RealBlock(1, 0.0, -1)] * 3),
    ("real_size3_nonzero", [RealBlock(3, -1.1, -1)] + [RealBlock(1, 0.0, 1)] * 3),
    ("two_real_2blocks", [RealBlock(2, 0.4, 1), RealBlock(2, -0.9, 1)]),
    ("complex_2x2", [ComplexBlock(1, 0.3, 1.2)] + [RealBlock(1, 0.0, 1)] * 2),
    ("complex_4x4", [ComplexBlock(2, 0.5, 0.8)] + [RealBlock(1, 0.0, 1)] * 2),
    ("diag_rank2", [RealBlock(1, 1.0, 1), RealBlock(1, -0.5, -1),
                    RealBlock(1, 0.0, 1), RealBlock(1, 0.0, 1)]),
)


def test_criterion_5_theorem_witnesses_and_rank_verdicts():
    missing = []
    for name, blocks in INADMISSIBLE:
        report = verify.theorem_witness(blocks, p_max=4, trials=20, seed=13)
        if not report.all_found:
            missing.append((name, [e for e in report.entries if not e.found]))

    verdicts = {}
    for scenario_name, expected in (("paper_example_n2", "PASS"),
                                    ("paper_example_n3", "PASS"),
                                    ("paraboloid", "PASS"),
                                    ("centroaffine_sphere", "VACUOUS")):
        sc = load_scenario(scenario_name)
        outcome = []
        for point in sc.sample_points:
            sj = geo.structure_jets(sc, point, 2)
            prov = GeometricCurvature(geo.curvature(sj))
            nablas = nabla_powers(component_jets(sc.omega, point, 3, sc.coords), sj, 3)
            levels = list(r_power_levels(prov, pack_two_form(nablas[0], sc.dim), 3))
            per_power = [verify.check_rank_theorem(levels[:p], sj.S[0], sj.h[0], nablas, 1e-8)
                         for p in range(1, 4)]
            assert all(v.verdict != "FAIL" for v in per_power), (scenario_name, point)
            triggered = [v.verdict for v in per_power if v.verdict != "VACUOUS"]
            outcome.append(triggered[0] if triggered else "VACUOUS")
        verdicts[scenario_name] = outcome
        assert all(v == expected for v in outcome), (scenario_name, outcome)
    ok = not missing
    _verdict(5, ok, f"witnesses for every p<=4 on {len(INADMISSIBLE)} shapes "
                    f"x 20 draws; rank verdicts {verdicts}")


def test_criterion_6_alternating_identity():
    worst = 0.0
    for name in ("centroaffine_sphere", "paper_example_n2"):
        sc = load_scenario(name)
        rng = np.random.default_rng(99)
        for point in sc.sample_points[:1]:
            sj = geo.structure_jets(sc, point, 1)
            prov = GeometricCurvature(geo.curvature(sj))
            w = component_jets(sc.omega, point, 0, sc.coords)[0]
            nabla = nabla_powers(component_jets(sc.omega, point, 2, sc.coords), sj, 2)[2]
            [r1] = r_power_levels(prov, pack_two_form(w, sc.dim), 1)
            for _ in range(50):
                pair = (int(rng.integers(0, sc.dim)), int(rng.integers(0, sc.dim)))
                ys = tuple(int(v) for v in rng.integers(0, sc.dim, size=2))
                lhs, rhs = alternating_sum_identity(r1, nabla, 1, [pair], ys)
                worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-7
    _verdict(6, ok, f"k=1 identity over 50 tuples per scenario, worst gap {worst:.3e}")


def _strip_timing(report):
    report.pop("generated_unix", None)
    for rec in report.get("checks", []):
        rec.pop("wall_ms", None)
    return report


def test_criterion_7_deterministic_reports(tmp_path):
    pairs = []
    for tag, argv in (("geom", ["check-geometry", "--scenario", "paper_example_n2",
                                "--seed", "5"]),
                      ("oracles", ["oracles", "--trials", "25", "--seed", "5"])):
        outs = []
        for run in (0, 1):
            out = tmp_path / f"{tag}{run}.json"
            assert cli_main(argv + ["--output", str(out)]) == 0
            with open(out) as fh:
                outs.append(json.dumps(_strip_timing(json.load(fh)),
                                       sort_keys=True))
        pairs.append(outs[0] == outs[1])
    ok = all(pairs)
    _verdict(7, ok, f"byte-identical reports modulo timing fields: {pairs}")
