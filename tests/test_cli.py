import json

import numpy as np
import pytest
from affsym import geometry
from affsym.cli import _structure_order, main
from affsym.model import RealBlock, assemble
from affsym.scenarios import scenario_from_dict


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_check_geometry_paraboloid(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["check-geometry", "--scenario", "paraboloid",
                 "--output", str(out)]) == 0
    rep = _load(out)
    assert rep["summary"]["fail"] == 0
    assert rep["command"] == "check-geometry"
    assert any(r["name"].startswith("rank_theorem") and r["status"] == "PASS"
               for r in rep["checks"])


def test_check_geometry_sphere_is_vacuous_not_failing(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["check-geometry", "--scenario", "centroaffine_sphere",
                 "--output", str(out)]) == 0
    rep = _load(out)
    ranks = [r for r in rep["checks"] if r["name"].startswith("rank_theorem")]
    assert ranks and all(r["status"] == "VACUOUS" for r in ranks)


def test_missing_scenario_is_usage_error(capsys):
    assert main(["check-geometry", "--scenario", "missing_thing"]) == 2
    assert "missing_thing" in capsys.readouterr().err


def test_malformed_expression_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad", "dim": 4, "coords": ["a", "b", "c", "d"],
        "immersion": ["a", "b", "c", "d", "a +"],
        "transversal": ["0", "0", "0", "0", "1"],
        "omega": [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]],
        "sample_points": [[0, 0, 0, 0]],
    }))
    assert main(["check-geometry", "--scenario", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "immersion[4]" in err and "offset" in err


def test_oracles_filter_and_exit(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["oracles", "--filter", "blk3_*", "--trials", "10",
                 "--output", str(out)]) == 0
    rep = _load(out)
    families = {r["name"].split("[")[0] for r in rep["checks"]}
    assert families == {"blk3_12", "blk3_12ij", "blk3_122i", "blk3_2312"}
    assert rep["summary"]["fail"] == 0

    assert main(["oracles", "--filter", "zzz*"]) == 2
    assert "matches no oracle" in capsys.readouterr().err


def test_oracles_per_power_records(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["oracles", "--filter", "cx_detpow", "--trials", "30",
                 "--p-max", "3", "--output", str(out)]) == 0
    rep = _load(out)
    names = [r["name"] for r in rep["checks"]]
    assert all(n.startswith("cx_detpow[p=") for n in names)
    assert len(names) >= 2          # several powers exercised
    assert all(r["status"] == "PASS" for r in rep["checks"])


def test_list_oracles(capsys):
    assert main(["list-oracles"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["oracles"]) == 30


def test_decompose_command(tmp_path):
    mat = tmp_path / "mat.json"
    mat.write_text(json.dumps({
        "dim": 4,
        "A": [0.0] * 16,
        "H": np.diag([1.0, -1.0, 1.0, -1.0]).ravel().tolist(),
    }))
    out = tmp_path / "rep.json"
    assert main(["decompose", str(mat), "--output", str(out)]) == 0
    rep = _load(out)
    rec = {r["name"]: r for r in rep["checks"]}
    blocks = rec["decompose"]["params"]["blocks"]
    assert sorted(b["sign"] for b in blocks) == [-1, -1, 1, 1]
    assert rec["rank"]["value"] == 0
    assert rec["classify"]["params"]["final_form"] == "zero"


def test_decompose_roundtrip_file(tmp_path):
    rng = np.random.default_rng(12)
    m = assemble([RealBlock(2, 0.5, -1), RealBlock(1, 1.5, 1),
                  RealBlock(1, -0.7, 1)])
    u, _, vt = np.linalg.svd(rng.normal(size=(4, 4)))
    q = u @ np.diag([0.7, 1.0, 1.4, 2.0]) @ vt
    qi = np.linalg.inv(q)
    mat = tmp_path / "mat.json"
    mat.write_text(json.dumps({
        "dim": 4,
        "A": (q @ m.S @ qi).ravel().tolist(),
        "H": (qi.T @ m.H @ qi).ravel().tolist(),
    }))
    out = tmp_path / "rep.json"
    assert main(["decompose", str(mat), "--output", str(out)]) == 0
    rep = _load(out)
    rec = {r["name"]: r for r in rep["checks"]}
    got = sorted((b["kind"], b.get("size", 2 * b.get("half_size", 0)),
                  round(b.get("eigenvalue", 0.0), 4), b.get("sign"))
                 for b in rec["decompose"]["params"]["blocks"])
    assert got == [("real", 1, -0.7, 1), ("real", 1, 1.5, 1), ("real", 2, 0.5, -1)]


def test_decompose_rejects_bad_pair(tmp_path, capsys):
    mat = tmp_path / "mat.json"
    a = np.zeros((2, 2))
    a[0, 1] = 1.0
    mat.write_text(json.dumps({"dim": 2, "A": a.ravel().tolist(),
                               "H": np.eye(2).ravel().tolist()}))
    assert main(["decompose", str(mat)]) == 2
    assert "selfadjoint" in capsys.readouterr().err


def _strip_timing(report):
    report.pop("generated_unix", None)
    for rec in report.get("checks", []):
        rec.pop("wall_ms", None)
    return report


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["check-geometry", "--scenario", "paper_example_n2",
                     "--seed", "42", "--output", str(out)]) == 0
    ra, rb = _strip_timing(_load(a)), _strip_timing(_load(b))
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    for out in (a, b):
        assert main(["oracles", "--trials", "15", "--seed", "7",
                     "--output", str(out)]) == 0
    ra, rb = _strip_timing(_load(a)), _strip_timing(_load(b))
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_strict_flag_promotes_warnings(tmp_path):
    # an unknown check name produces a WARN record
    sc = tmp_path / "warn.json"
    sc.write_text(json.dumps({
        "name": "warny", "dim": 4, "coords": ["a", "b", "c", "d"],
        "immersion": ["a", "b", "c", "d", "a^2 + b^2 + c^2 + d^2"],
        "transversal": ["0", "0", "0", "0", "1"],
        "omega": [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]],
        "sample_points": [[0.0, 0.0, 0.0, 0.0]],
        "checks": [{"name": "no_such_check"}],
    }))
    assert main(["check-geometry", "--scenario", str(sc)]) == 0
    assert main(["check-geometry", "--scenario", str(sc), "--strict"]) == 1


def _shipped(name, **changes):
    from importlib import resources
    data = json.loads(resources.files("affsym").joinpath(
        "data", f"{name}.json").read_bytes())
    data.update(changes)
    return data


def _usage_error(argv, capsys):
    """Exit code and the stderr lines of a run expected to fail on input."""
    rc = main(argv)
    return rc, capsys.readouterr().err.strip().splitlines()


def test_rank_theorem_differentiates_the_omega_field(tmp_path):
    # Gamma = 0 on the paraboloid, so nabla omega = d omega, and
    # d_1 omega_01 = 2 u1 = 0.6 at the first sample point
    omega = _shipped("paraboloid")["omega"]
    omega[0][1], omega[1][0] = "1 + u1*u1", "-(1 + u1*u1)"
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(_shipped("paraboloid", omega=omega)))
    out = tmp_path / "rep.json"
    assert main(["check-geometry", "--scenario", str(sc), "--output", str(out)]) == 0
    rec = {r["name"]: r for r in _load(out)["checks"]}
    assert abs(rec["rank_theorem@point0"]["params"]["max_nabla"] - 0.6) < 1e-12
    assert rec["alternating_identity@point0"]["status"] == "PASS"


@pytest.mark.parametrize("scenario, check", [
    # structure jets of order 5 (immersion order 7) beyond the jet cap
    ("paraboloid", {"name": "alternating_identity", "p_max": 3}),
    # R^4 omega at dim 6 is beyond the curvature power cap 3 (packed, it
    # would hold 15^5 entries, within the tensor cap)
    ("paper_example_n3", {"name": "rank_theorem", "p_max": 4}),
    # checks that would run on nothing
    ("paraboloid", {"name": "rank_theorem", "p_max": 0}),
    ("paraboloid", {"name": "alternating_identity", "p_max": 1, "trials": 0}),
])
def test_check_beyond_caps_is_usage_error(scenario, check, tmp_path, capsys):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(_shipped(scenario, checks=[check])))
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    assert rc == 2 and len(err) == 1 and check["name"] in err[0]


def test_jet_domain_error_at_sample_point_is_usage_error(tmp_path, capsys):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({
        "name": "dom", "dim": 4, "coords": ["a", "b", "c", "d"],
        "immersion": ["a", "b", "c", "d", "ln(a)"],
        "transversal": ["0", "0", "0", "0", "1"],
        "omega": [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]],
        "sample_points": [[-1.0, 0.0, 0.0, 0.0]],
    }))
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    assert rc == 2 and len(err) == 1 and "ln" in err[0]


def test_oracles_zero_trials_is_usage_error(capsys):
    rc, err = _usage_error(["oracles", "--trials", "0"], capsys)
    assert rc == 2 and len(err) == 1 and "--trials" in err[0]


def test_oracles_zero_p_max_is_usage_error(capsys):
    rc, err = _usage_error(["oracles", "--p-max", "0"], capsys)
    assert rc == 2 and len(err) == 1 and "--p-max" in err[0]


def test_decompose_applies_tol(tmp_path, capsys):
    # ||A^T H - H A|| = 1e-6: rejected at the default 1e-8, accepted at 1e-4
    mat = tmp_path / "mat.json"
    mat.write_text(json.dumps({"dim": 2, "A": [1.0, 1e-6, 0.0, 2.0],
                               "H": [1.0, 0.0, 0.0, 1.0]}))
    rc, err = _usage_error(["decompose", str(mat)], capsys)
    assert rc == 2 and len(err) == 1 and "selfadjoint" in err[0]
    out = tmp_path / "rep.json"
    assert main(["decompose", str(mat), "--tol", "1e-4", "--output", str(out)]) == 0
    assert _load(out)["parameters"]["tol"] == 1e-4


def test_degenerate_omega_is_usage_error(tmp_path, capsys):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(_shipped("paraboloid", omega=[[0] * 4] * 4)))
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    assert rc == 2 and len(err) == 1 and "degenerate" in err[0]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_sample_point_is_usage_error(value, tmp_path, capsys):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(_shipped("paraboloid",
                                      sample_points=[[value, 0.0, 0.0, 0.0]])))
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    assert rc == 2 and len(err) == 1 and "finite" in err[0]


@pytest.mark.parametrize("key", ["A", "H"])
def test_non_finite_decompose_matrix_is_usage_error(key, tmp_path, capsys):
    data = {"dim": 2, "A": [1.0, 0.0, 0.0, 2.0], "H": [1.0, 0.0, 0.0, 1.0]}
    data[key][1] = float("nan")
    mat = tmp_path / "mat.json"
    mat.write_text(json.dumps(data))
    rc, err = _usage_error(["decompose", str(mat)], capsys)
    assert rc == 2 and len(err) == 1 and "finite" in err[0]


@pytest.mark.parametrize("command", ["check-geometry", "decompose"])
@pytest.mark.parametrize("dim", [4.5, "4", "four", None, "array"])
def test_dim_must_be_json_integer(command, dim, tmp_path, capsys):
    if command == "check-geometry":
        data = _shipped("paraboloid", dim=dim)
    else:
        data = {"dim": dim, "A": [0.0] * 16, "H": np.eye(4).ravel().tolist()}
    path = tmp_path / "in.json"
    path.write_text(json.dumps([data] if dim == "array" else data))
    argv = ["check-geometry", "--scenario", str(path)] if command == "check-geometry" \
        else ["decompose", str(path)]
    rc, err = _usage_error(argv, capsys)
    assert rc == 2 and len(err) == 1
    assert ("JSON object" if dim == "array" else "JSON integer") in err[0]


@pytest.mark.parametrize("field", ["immersion", "omega"])
def test_exp_overflow_at_sample_point_is_usage_error(field, tmp_path, capsys):
    # exp(800) overflows a double, in a jet (immersion) and a plain value (omega)
    data = _shipped("paraboloid", sample_points=[[800.0, 0.0, 0.0, 0.0]])
    if field == "immersion":
        data["immersion"][-1] = "exp(u1)"
    else:
        data["omega"][0][1], data["omega"][1][0] = "exp(u1)", "-exp(u1)"
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(data))
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    assert rc == 2 and len(err) == 1 and "exp" in err[0]


@pytest.mark.parametrize("field", ["immersion", "omega", "constraint", "ln_underflow",
                                   "omega_ln_underflow"])
def test_integer_power_overflow_at_sample_point_is_usage_error(field, tmp_path, capsys):
    # 800^400 overflows a double through repeated jet products; at
    # u1 = 1e-200, u1^2 underflows to 0 and the second coefficient of
    # ln(u1), -1/(2 u1^2), overflows (in omega's nabla chain, not its value)
    u1, entry = (1e-200, "ln(u1)") if field.endswith("ln_underflow") \
        else (800.0, "u1^400")
    data = _shipped("paraboloid", sample_points=[[u1, 0.0, 0.0, 0.0]])
    if field.startswith("omega"):
        data["omega"][0][1], data["omega"][1][0] = entry, f"-{entry}"
    elif field == "constraint":
        data["constraints"] = [{"name": "big", "expr": entry}]
    else:
        data["immersion"][-1] = entry
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(data))
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    assert rc == 2 and len(err) == 1 and "not finite" in err[0]


def test_check_geometry_solves_each_point_once(monkeypatch, tmp_path):
    calls = {"solve": 0, "induced": 0}
    solve, induced = geometry.StructureJets.__init__, geometry.induced_structure

    def counted_solve(self, *args):
        calls["solve"] += 1
        solve(self, *args)

    def counted_induced(*args):
        calls["induced"] += 1
        return induced(*args)

    monkeypatch.setattr(geometry.StructureJets, "__init__", counted_solve)
    monkeypatch.setattr(geometry, "induced_structure", counted_induced)
    assert main(["check-geometry", "--scenario", "paper_example_n2",
                 "--output", str(tmp_path / "rep.json")]) == 0
    assert calls == {"solve": 3, "induced": 3}


def test_degenerate_second_fundamental_form_is_usage_error(tmp_path, capsys):
    # the last immersion entry does not curve along u4, so h = diag(2, 2, 2, 0)
    data = _shipped("paraboloid")
    data["immersion"][-1] = "u1^2 + u2^2 + u3^2"
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(data))
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    assert rc == 2 and len(err) == 1 and "h degenerate" in err[0]


@pytest.mark.parametrize("changes, words", [
    ({"sample_points": [[None, 0.0, 0.0, 0.0]]}, "non-numeric coordinate None"),
    ({"sample_points": [["one", 0.0, 0.0, 0.0]]}, "non-numeric coordinate 'one'"),
    ({"constraints": [{"expr": "u1 + 10"}]}, "needs keys 'name' and 'expr'"),
    ({"omega": [5, [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]}, "dim x dim matrix"),
    ({"checks": ["frame"]}, "needs a key 'name'"),
    ({"checks": [{"name": "rank_theorem", "p_max": "three"}]}, "'rank_theorem': p_max"),
    ({"checks": [{"name": "rank_theorem", "p_max": 2.5}]}, "'rank_theorem': p_max"),
    ({"checks": [{"name": "rank_theorem", "p_max": True}]}, "'rank_theorem': p_max"),
    ({"checks": [{"name": "alternating_identity", "trials": "many"}]},
     "'alternating_identity': trials"),
    ({"checks": [{"name": "frame", "tol": "tiny"}]}, "'frame': tol"),
    ({"checks": [{"name": "frame", "tol": 0}]}, "'frame': tol"),
    ({"checks": [{"name": "frame", "tol": float("nan")}]}, "'frame': tol"),
    ({"coords": 5}, "coords must be a JSON list"),
    ({"immersion": "u1"}, "immersion must be a JSON list"),
    ({"transversal": "1"}, "transversal must be a JSON list"),
    ({"constraints": 5}, "constraints must be a JSON list"),
    ({"checks": 5}, "checks must be a JSON list"),
    ({"omega": [[0, True, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]},
     "omega[0][1] must be a number or an expression, got True"),
], ids=["null_coordinate", "string_coordinate", "nameless_constraint",
        "scalar_omega_row", "string_check", "string_p_max", "float_p_max",
        "bool_p_max", "string_trials", "string_tol", "zero_tol", "nan_tol",
        "scalar_coords", "string_immersion", "string_transversal",
        "scalar_constraints", "scalar_checks", "bool_omega_entry"])
def test_malformed_scenario_field_is_usage_error(changes, words, tmp_path, capsys):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(_shipped("paraboloid", **changes)))
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    assert rc == 2 and len(err) == 1 and words in err[0]


def _paraboloid(dim, p_max):
    coords = [f"u{i}" for i in range(1, dim + 1)]
    return {
        "name": f"paraboloid{dim}", "dim": dim, "coords": coords,
        "immersion": coords + [" + ".join(f"{c}^2" for c in coords)],
        "transversal": ["0"] * dim + ["1"],
        "omega": [[float(j == i + 1) - float(j == i - 1) for j in range(dim)]
                  for i in range(dim)],
        "sample_points": [[0.1 * i for i in range(1, dim + 1)]],
        "checks": [{"name": "rank_theorem", "p_max": p_max}],
    }


def test_rank_theorem_cap_counts_packed_entries(tmp_path, capsys):
    # dim 10: packed R^3 omega holds 45^4 = 4.1M entries (dense 10^8)
    assert _structure_order(scenario_from_dict(_paraboloid(10, 3)), 3) == 2
    # ... and R^4 omega 45^5 = 184.5M, beyond the cap
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(_paraboloid(10, 4)))
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    assert rc == 2 and len(err) == 1 and "184528125 entries" in err[0]
