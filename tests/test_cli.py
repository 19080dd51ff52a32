import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as hst

import affsym
from affsym import cli, geometry, scenarios
from affsym.cli import TRIALS_CAP, _identity_trials, _resolve_checks, main
from affsym.expr import MAX_NESTING
from affsym.model import RealBlock, assemble
from affsym.scenarios import scenario_from_dict
from test_geometry import graph_twin
from test_verify import INADMISSIBLE


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


def _powers(report):
    return [int(r["name"].split("[p=")[1].rstrip("]")) for r in report["checks"]]


def test_oracles_per_power_records(tmp_path):
    # cx_detpow exercises the even powers 2 pp, so p_max 4 gives two groups
    out = tmp_path / "rep.json"
    assert main(["oracles", "--filter", "cx_detpow", "--trials", "30",
                 "--p-max", "4", "--output", str(out)]) == 0
    rep = _load(out)
    names = [r["name"] for r in rep["checks"]]
    assert all(n.startswith("cx_detpow[p=") for n in names)
    assert len(names) >= 2          # several powers exercised
    assert max(_powers(rep)) <= 4
    assert all(r["status"] == "PASS" for r in rep["checks"])


def test_oracles_readme_example_honours_p_max(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["oracles", "--filter", "cx_*", "--trials", "50", "--p-max", "3",
                 "--output", str(out)]) == 0
    rep = _load(out)
    assert rep["summary"]["fail"] == 0
    assert max(_powers(rep)) == 3


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
    assert "master_seed" not in rep   # decompose draws nothing


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
    # 10 is beyond the algebraic power cap 8; blk3_12ij draws powers >= 2
    for p_max, needle in (("0", "--p-max"), ("10", "--p-max"), ("1", "blk3_12ij")):
        rc, err = _usage_error(["oracles", "--p-max", p_max], capsys)
        assert rc == 2 and len(err) == 1 and needle in err[0], p_max
    # every family whose least power is 2 names the p_max it needs
    for oid in ("blk3_12ij", "rw_double", "cx_detpow", "cx_other", "diag_pair", "x_z1z2_y"):
        rc, err = _usage_error(["oracles", "--filter", oid, "--p-max", "1"], capsys)
        assert rc == 2 and err == [f"error: {oid} needs p_max >= 2, got 1"], oid


_FILTERS = hst.one_of(hst.sampled_from([oid for oid, _ in affsym.list_oracles()]),
                     hst.sampled_from(["cx_*", "blk?_*", "*", "nothing", "cx_", "zz*"]))


@settings(max_examples=60, deadline=None)
@given(_FILTERS, hst.integers(-2, 3), hst.integers(-1, 10), hst.integers(-3, 2 ** 70))
def test_any_oracles_flags_exit_cleanly(pattern, trials, p_max, seed):
    """No oracles flags end in a traceback: exit 0 or 1 writes nothing to
    stderr, exit 2 exactly one ``error:`` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["oracles", "--filter", pattern, "--trials", str(trials),
                   "--p-max", str(p_max), "--seed", str(seed)])
    event(f"exit code {rc}")
    lines = err.getvalue().splitlines()
    assert rc in (0, 1, 2)
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert lines == []


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


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_decompose_tol_must_be_finite_and_positive(tol, tmp_path, capsys):
    # not H-selfadjoint: ||A^T H - H A|| = 0.5, which nan and inf used to skip
    mat = tmp_path / "mat.json"
    mat.write_text(json.dumps({"dim": 2, "A": [1, 0.5, 0, 2], "H": [1, 0, 0, 1]}))
    rc, err = _usage_error(["decompose", str(mat), "--tol", tol], capsys)
    assert rc == 2 and len(err) == 1 and "--tol" in err[0]


@pytest.mark.parametrize("argv", [
    ["check-geometry", "--scenario", "paraboloid"],
    ["oracles", "--filter", "rp_ei_ek", "--trials", "1"],
], ids=["check-geometry", "oracles"])
def test_negative_seed_is_usage_error(argv, capsys):
    rc, err = _usage_error(argv + ["--seed", "-1"], capsys)
    assert rc == 2 and len(err) == 1 and "--seed" in err[0]


def test_each_subcommand_takes_only_its_flags(tmp_path, capsys):
    with pytest.raises(SystemExit) as stop:
        main(["oracles", "--help"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "maximum operator power (default 4)" in text
    mat = tmp_path / "mat.json"
    mat.write_text(json.dumps({"dim": 2, "A": [0.0] * 4, "H": [1.0, 0.0, 0.0, 1.0]}))
    # check-geometry takes each check's power and tolerance from the scenario
    for argv in (["decompose", str(mat), "--p-max", "3"],
                 ["decompose", str(mat), "--seed", "1"],
                 ["oracles", "--tol", "1e-3"],
                 ["check-geometry", "--scenario", "paraboloid", "--p-max", "3"],
                 ["check-geometry", "--scenario", "paraboloid", "--tol", "1e-8"]):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


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


@pytest.mark.parametrize("key, value", [
    ("H", {"a": 1}),
    ("A", [1, 0, 0, {"x": 1}]),
    ("A", [1, 0, 0, "2"]),
    ("H", [1, 0, 0, True]),
    ("H", None),
], ids=["H_object", "A_object_entry", "A_string_entry", "H_boolean_entry", "H_null"])
def test_matrix_entries_must_be_numbers(key, value, tmp_path, capsys):
    data = {"dim": 2, "A": [1.0, 0.0, 0.0, 2.0], "H": [1.0, 0.0, 0.0, 1.0], key: value}
    mat = tmp_path / "mat.json"
    mat.write_text(json.dumps(data))
    rc, err = _usage_error(["decompose", str(mat)], capsys)
    assert rc == 2 and len(err) == 1
    assert err[0].startswith(f"error: cannot read matrix file: {key} must hold JSON numbers")


def test_matrix_may_be_given_in_rows(tmp_path, capsys):
    flat, rows = tmp_path / "flat.json", tmp_path / "rows.json"
    flat.write_text(json.dumps({"dim": 2, "A": [1, 0, 0, 2], "H": [1, 0, 0, -1]}))
    rows.write_text(json.dumps({"dim": 2, "A": [[1, 0], [0, 2]], "H": [[1, 0], [0, -1]]}))
    reports = []
    for path in (flat, rows):
        assert main(["decompose", str(path)]) == 0
        reports.append(_strip_timing(json.loads(capsys.readouterr().out)))
        del reports[-1]["matrix_file"]
    assert reports[0] == reports[1]


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
                                   "omega_ln_underflow", "huge_exponent"])
def test_integer_power_overflow_at_sample_point_is_usage_error(field, tmp_path, capsys):
    # 800^400 overflows a double through jet products; at u1 = 1e-200, u1^2
    # underflows to 0 and the second coefficient of ln(u1), -1/(2 u1^2),
    # overflows (in omega's nabla chain, not its value); an exponent of
    # 10^9 must cost its bit length in products, not 10^9 of them
    u1, entry = (1e-200, "ln(u1)") if field.endswith("ln_underflow") \
        else (800.0, "u1^1000000000" if field == "huge_exponent" else "u1^400")
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


def test_check_geometry_reads_its_scenario_once(monkeypatch, tmp_path):
    # the digest describes the very bytes that were checked
    calls, read = [], scenarios._scenario_bytes

    def counted_read(path_or_name):
        calls.append(path_or_name)
        return read(path_or_name)

    monkeypatch.setattr(scenarios, "_scenario_bytes", counted_read)
    sc, out = tmp_path / "sc.json", tmp_path / "rep.json"
    sc.write_text(json.dumps(_shipped("paraboloid")))
    assert main(["check-geometry", "--scenario", str(sc), "--output", str(out)]) == 0
    assert calls == [str(sc)]
    assert _load(out)["scenario_digest"] == hashlib.sha256(sc.read_bytes()).hexdigest()


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
    ({"checks": [{"name": "frame", "tol": 10 ** 400}]}, "'frame': tol"),
    ({"omega": [[0, 10 ** 400, 0, 0], [-10 ** 400, 0, 1, 0], [0, -1, 0, 1],
                [0, 0, -1, 0]]}, "omega[0][1] is too large for a double"),
    ({"sample_points": [[10 ** 400, 0.0, 0.0, 0.0]]},
     "a coordinate of sample point 0 is too large for a double"),
    ({"checks": [{"name": ["frame"]}]}, "needs a key 'name'"),
    ({"coords": 5}, "coords must be a JSON list"),
    ({"immersion": "u1"}, "immersion must be a JSON list"),
    ({"transversal": "1"}, "transversal must be a JSON list"),
    ({"constraints": 5}, "constraints must be a JSON list"),
    ({"checks": 5}, "checks must be a JSON list"),
    ({"omega": [[0, True, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]},
     "omega[0][1] must be a number or an expression, got True"),
    # a field the check does not read would leave its default in force
    ({"checks": [{"name": "frame", "tolerance": 1e-30}]},
     "check 'frame' takes no field 'tolerance'"),
    ({"checks": [{"name": "frame", "p_max": 2}]}, "check 'frame' takes no field 'p_max'"),
    ({"checks": [{"name": "rank_theorem", "trials": 5}]},
     "check 'rank_theorem' takes no field 'trials'"),
], ids=["null_coordinate", "string_coordinate", "nameless_constraint",
        "scalar_omega_row", "string_check", "string_p_max", "float_p_max",
        "bool_p_max", "string_trials", "string_tol", "zero_tol", "nan_tol",
        "huge_tol", "huge_omega_entry", "huge_coordinate", "list_check_name",
        "scalar_coords", "string_immersion", "string_transversal",
        "scalar_constraints", "scalar_checks", "bool_omega_entry", "frame_tolerance",
        "frame_p_max", "rank_theorem_trials"])
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
    assert _resolve_checks(scenario_from_dict(_paraboloid(10, 3)))[1] == 2
    # ... and at dim 14 91^4 = 68.6M, beyond the cap; a power beyond the
    # curvature power cap 3 is refused before its entries are counted
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(_paraboloid(14, 3)))
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    assert rc == 2 and len(err) == 1 and "68574961 entries" in err[0]


def test_huge_p_max_exits_two(tmp_path):
    # N2 ** (p_max + 1) for this p_max would not finish
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(_shipped(
        "paraboloid", checks=[{"name": "rank_theorem", "p_max": 10 ** 400}])))
    run = _affsym_python(_RUN_CLI, "check-geometry", "--scenario", str(sc))
    err = run.stderr.strip().splitlines()
    assert run.returncode == 2 and len(err) == 1 and "power cap 3" in err[0], run.stderr


def _long_literal_scenario():
    """The shipped paraboloid with a 5000-digit first sample coordinate:
    json.loads refuses an integer literal beyond 4300 digits."""
    data = _shipped("paraboloid")
    data["sample_points"][0][0] = "LONG"
    return json.dumps(data).replace('"LONG"', "1" * 5000)


@pytest.mark.parametrize("text, words", [
    # without the cap this alternating_identity check would not finish
    (json.dumps(_shipped("paraboloid", checks=[
        {"name": "alternating_identity", "trials": 10 ** 12}])), "cap 10000"),
    (_long_literal_scenario(), "4300 digits"),
], ids=["huge_trials", "long_integer_literal"])
def test_oversized_input_exits_two(text, words, tmp_path):
    sc = tmp_path / "sc.json"
    sc.write_text(text)
    run = _affsym_python(_RUN_CLI, "check-geometry", "--scenario", str(sc))
    err = run.stderr.strip().splitlines()
    assert run.returncode == 2 and len(err) == 1 and words in err[0], run.stderr


@pytest.mark.parametrize("trials", [TRIALS_CAP + 1, 10 ** 12])
def test_oracles_trials_beyond_cap_exits_two(trials):
    # without the cap run_family would keep 10**12 results and not finish
    run = _affsym_python(_RUN_CLI, "oracles", "--filter", "rp_ei_ek",
                         "--trials", str(trials), timeout=30)
    err = run.stderr.strip().splitlines()
    assert run.returncode == 2 and err == [
        f"error: --trials {trials} is beyond the cap {TRIALS_CAP}"], run.stderr


def _check_records(data, tmp_path):
    """The check records of ``check-geometry --seed 0`` on ``data``,
    timing aside."""
    sc, out = tmp_path / "sc.json", tmp_path / "rep.json"
    sc.write_text(json.dumps(data))
    assert main(["check-geometry", "--scenario", str(sc), "--output", str(out)]) == 0
    return _strip_timing(_load(out))["checks"]


@pytest.mark.parametrize("name, tol, params", [
    ("alternating_identity", 1e-7, {"k": 1, "trials": 50}),
    ("rank_theorem", 1e-8, {"power": 3}),
    ("frame", 1e-9, {}),
], ids=["alternating_identity", "rank_theorem", "frame"])
def test_bare_check_takes_its_defaults(name, tol, params, tmp_path):
    # R^3 omega is the first power that vanishes on paper_example_n2, so
    # power 3 shows p_max 3; the shipped file sets every field
    bare = _check_records(_shipped("paper_example_n2", checks=[{"name": name}]),
                          tmp_path)
    shipped = [r for r in _check_records(_shipped("paper_example_n2"), tmp_path)
               if r["name"].startswith(f"{name}@")]
    assert bare == shipped and len(bare) == 3
    for r in bare:
        assert r["tol"] == tol and params.items() <= r["params"].items(), r


def test_scenario_without_checks_runs_the_table(tmp_path):
    data = _shipped("paraboloid")
    del data["checks"]
    assert _check_records(data, tmp_path) == \
        _check_records(_shipped("paraboloid"), tmp_path)


def test_unknown_check_keeps_its_own_tol(tmp_path):
    records = _check_records(_shipped("paraboloid", checks=[
        {"name": "no_such_check"}, {"name": "other_check", "tol": 0.5}]), tmp_path)
    assert {(r["name"].split("@")[0], r["status"], r["tol"]) for r in records} == \
        {("no_such_check", "WARN", None), ("other_check", "WARN", 0.5)}


@pytest.mark.parametrize("dim", [0, -2])
def test_decompose_dim_must_be_positive(dim, tmp_path, capsys):
    mat = tmp_path / "mat.json"
    mat.write_text(json.dumps({"dim": dim, "A": [], "H": []}))
    rc, err = _usage_error(["decompose", str(mat)], capsys)
    assert rc == 2 and err == [f"error: cannot read matrix file: dim must be >= 1, got {dim}"]


def test_decompose_huge_integer_entry_is_usage_error(tmp_path, capsys):
    mat = tmp_path / "mat.json"
    mat.write_text(json.dumps({"dim": 1, "A": [10 ** 400], "H": [1]}))
    rc, err = _usage_error(["decompose", str(mat)], capsys)
    assert rc == 2 and len(err) == 1 and "too large" in err[0]


def _affsym_python(code, *args, timeout=60):
    """Run ``code`` in a fresh interpreter that imports this affsym; a hang
    fails after ``timeout`` s."""
    src = str(Path(affsym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=timeout)


_RUN_CLI = "import sys; from affsym.cli import main; sys.exit(main(sys.argv[1:]))"


def _overflowing_power_pair():
    """A nilpotent 3-block with entries 1e110 and its sip matrix, rotated by
    an orthogonal Q: within ENTRY_MAX, but the cube of A overflows."""
    a = np.zeros((3, 3))
    a[1, 0] = a[2, 1] = 1e110
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))
    return q.T @ a @ q, q.T @ np.fliplr(np.eye(3)) @ q


@pytest.mark.parametrize("case", ["jordan_1e160", "diag_1e308", "diag_1e200",
                                  "power_overflow"])
def test_decompose_large_entries_exit_two(case, tmp_path):
    if case == "power_overflow":
        a, h = _overflowing_power_pair()
        a, h = a.ravel().tolist(), h.ravel().tolist()
        words = "double-precision range"
    else:
        words = "at most 1e+150 in magnitude"
        a, h = {
            "jordan_1e160": ([1e160, 0, 0, 0, 1, 1e160, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1],
                             [0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]),
            "diag_1e308": ([1e308, 0, 0, 1e308], [1, 0, 0, 1]),
            "diag_1e200": ([1e200, 0, 0, -1e200], [1, 0, 0, 1]),
        }[case]
    mat = tmp_path / "mat.json"
    mat.write_text(json.dumps({"dim": int(len(a) ** 0.5), "A": a, "H": h}))
    run = _affsym_python(_RUN_CLI, "decompose", str(mat))
    # one line: a RuntimeWarning would add two more
    err = run.stderr.strip().splitlines()
    assert run.returncode == 2 and len(err) == 1 and words in err[0], run.stderr


def test_cli_runs_without_scipy(tmp_path):
    run = _affsym_python(
        "import sys, affsym, affsym.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run.returncode == 0 and run.stdout == "[]\n", run.stderr
    mat = tmp_path / "mat.json"
    mat.write_text(json.dumps({"dim": 4, "A": [0.0] * 16,
                               "H": np.eye(4).ravel().tolist()}))
    # a None entry makes every import of scipy raise ImportError
    blocked = "import sys; sys.modules['scipy'] = None; " + _RUN_CLI
    for argv in (["list-oracles"],
                 ["oracles", "--filter", "cx_*", "--trials", "5"],
                 ["check-geometry", "--scenario", "paper_example_n3"],
                 ["decompose", str(mat)]):
        run = _affsym_python(blocked, *argv, "--output", str(tmp_path / "rep.json"))
        assert run.returncode == 0, (argv, run.stderr)


def _diag_rank2_twin(point, eps=1.0):
    """The graph twin of S = diag(eps, -eps/2, 0, 0), H = diag(1, -1, 1, 1):
    at u = 0 it induces S and H with Gamma = 0, so a constant omega has
    nabla omega = 0 there and nowhere near it."""
    blocks = [RealBlock(1, eps, 1), RealBlock(1, -eps / 2, -1),
              RealBlock(1, 0.0, 1), RealBlock(1, 0.0, 1)]
    return graph_twin(blocks, [point], name="diag_rank2_twin")


def test_pointwise_nabla_zero_is_a_warning_not_a_failure(tmp_path):
    sc = tmp_path / "twin.json"
    sc.write_text(json.dumps(_diag_rank2_twin([0.0, 0.0, 0.0, 0.0])))
    out = tmp_path / "rep.json"
    assert main(["check-geometry", "--scenario", str(sc), "--output", str(out)]) == 0
    rec = _load(out)["checks"]
    assert [r["status"] for r in rec] == ["WARN"]
    params = rec[0]["params"]
    assert params["max_nabla"] == 0.0 and params["rank_S"] == 2 and params["power"] == 1
    assert rec[0]["value"] > rec[0]["tol"]     # R omega did not vanish
    assert "pointwise" in params["reason"]
    assert main(["check-geometry", "--scenario", str(sc), "--strict",
                 "--output", str(out)]) == 1


def test_twin_off_the_origin_stays_vacuous(tmp_path):
    # R^3 omega is about 1.5 eps^3 here: below an absolute 1e-8 from
    # eps = 1e-3 on, but never below the threshold scaled by (|S| |h|)^3 |omega|
    for eps in (1.0, 1e-2, 1e-3, 1e-4):
        sc = tmp_path / "twin.json"
        sc.write_text(json.dumps(_diag_rank2_twin([0.1, 0.2, -0.1, 0.3], eps)))
        out = tmp_path / "rep.json"
        assert main(["check-geometry", "--scenario", str(sc), "--strict",
                     "--output", str(out)]) == 0, eps
        rec = _load(out)["checks"]
        assert [r["status"] for r in rec] == ["VACUOUS"], eps
        assert "reason" not in rec[0]["params"]
        assert rec[0]["params"]["rank_S"] == 2 and rec[0]["tol"] == 1e-8


@pytest.mark.parametrize("shape", sorted(INADMISSIBLE))
def test_criterion_5_twins_warn_at_the_origin_only(shape, tmp_path):
    # Gamma = 0 and a constant omega make nabla omega vanish at the origin
    # alone: WARN at power 1 there, VACUOUS at power 3 just off it
    blocks = INADMISSIBLE[shape]
    dim = sum(b.dim for b in blocks)
    off = [0.1, -0.05, 0.08, 0.02, -0.1, 0.07, -0.03, 0.06][:dim]
    for point, status, power in (([0.0] * dim, "WARN", 1), (off, "VACUOUS", 3)):
        sc, out = tmp_path / "twin.json", tmp_path / "rep.json"
        sc.write_text(json.dumps(graph_twin(blocks, [point])))
        assert main(["check-geometry", "--scenario", str(sc), "--output", str(out)]) == 0
        [rec] = _load(out)["checks"]
        assert (rec["status"], rec["params"]["power"]) == (status, power), point


def _report_of(argv, capsys):
    assert main(argv) == 0, argv
    return _strip_timing(json.loads(capsys.readouterr().out))


@pytest.mark.parametrize("first, second", [
    (["oracles", "--trials", "3"], ["oracles"]),
    (["check-geometry", "--scenario", "paper_example_n2", "--seed", "5"],
     ["check-geometry", "--scenario", "paper_example_n2"]),
    (["decompose", "MAT", "--tol", "1e-4"], ["decompose", "MAT"]),
], ids=["oracles", "check-geometry", "decompose"])
def test_parser_is_reused_without_leaking_flags(first, second, tmp_path, capsys):
    mat = tmp_path / "mat.json"
    mat.write_text(json.dumps({"dim": 2, "A": [1.0, 0.0, 0.0, 2.0],
                               "H": [1.0, 0.0, 0.0, -1.0]}))
    first, second = ([str(mat) if a == "MAT" else a for a in argv]
                     for argv in (first, second))
    cli._parser.cache_clear()
    reused = [_report_of(argv, capsys) for argv in (first, second)]
    assert cli._parser.cache_info().misses == 1    # one parser for both calls
    fresh = []
    for argv in (first, second):
        cli._parser.cache_clear()
        fresh.append(_report_of(argv, capsys))
    assert reused == fresh
    assert reused[0] != reused[1]    # the flag of the first call was applied


@pytest.mark.parametrize("dim", [2, 4, 6, 3 * 2 ** 30 + 1],
                         ids=["dim2", "dim4", "dim6", "rejection_heavy"])
@pytest.mark.parametrize("p_max", [1, 2])
def test_identity_trials_are_the_per_trial_draws(dim, p_max):
    """One block draw gives the integers of two draws per trial, and leaves
    the generator where they leave it; 3 * 2^30 + 1 rejects about a third
    of the bit generator's values."""
    for seed in range(40):
        ref_rng = np.random.default_rng((seed, 17, 0))
        want = []
        for _ in range(9):
            pairs = [(int(a), int(b)) for a, b in
                     ref_rng.integers(0, dim, size=(p_max, 2))]
            ys = [int(v) for v in ref_rng.integers(0, dim, size=2)]
            want.append((pairs, ys))
        rng = np.random.default_rng((seed, 17, 0))
        assert _identity_trials(rng, dim, p_max, 9) == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("entry, words", [
    ("(" * 3000 + "u1" + ")" * 3000, "nesting deeper than 100"),
    ("-" * 3000 + "u1", "nesting deeper than 100"),
    ("sin(" * 2000 + "u1" + ")" * 2000, "nesting deeper than 100"),
    # exp(0.3)^3000 overflows, and the error names the 3000-term sum
    (" + ".join(["u1"] + ["exp(u1)^3000"] * 2999), "not finite"),
], ids=["parentheses", "unary_minus", "calls", "overflowing_sum"])
def test_deep_or_overflowing_expression_is_usage_error(entry, words, tmp_path, capsys):
    data = _shipped("paraboloid")
    data["immersion"][0] = entry
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(data))
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    assert rc == 2 and len(err) == 1 and words in err[0]


@pytest.mark.parametrize("field, entry, words", [
    ("immersion", " + ".join(["u1"] + ["exp(u1)^3000"] * 2999),
     "immersion[0]: ^3000 is not finite at (0.3, -0.7, 1.2, 0.5)"),
    ("transversal", "1 + exp(u1)^3000", "transversal[4]: ^3000 is not finite at"),
    ("omega", "exp(exp(u3)*300)", "omega[0][1]: exp is not finite at"),
    ("constraint", "ln(u1 - 10)",
     "constraint 'y_positive': ln of a non-positive value at (0.3, -0.7, 1.2, 0.5)"),
    ("immersion", "u1 + 1/(u2 - u2)", "immersion[0]: division by a jet with zero "
                                      "constant term at (0.3, -0.7, 1.2, 0.5)"),
    ("immersion", "tan(u1 - u1 + 1.5707963267948966)",
     "immersion[0]: tan at an odd multiple of pi/2 at"),
], ids=["sum", "transversal", "omega", "constraint", "division", "tan"])
def test_evaluation_error_names_field_node_and_point(field, entry, words, tmp_path,
                                                     capsys):
    # the field and the head of the failing node, not the whole expression
    data = _shipped("paraboloid")
    if field == "immersion":
        data["immersion"][0] = entry
    elif field == "transversal":
        data["transversal"][4] = entry
    elif field == "omega":
        data["omega"][0][1], data["omega"][1][0] = entry, f"-{entry}"
    else:
        data["constraints"] = [{"name": "y_positive", "expr": entry}]
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(data))
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    assert rc == 2 and len(err) == 1 and len(err[0].encode()) < 200, err
    assert err[0].startswith("error: " + words), err


def test_literal_beyond_double_range_is_a_load_error(tmp_path, capsys):
    data = _shipped("paraboloid")
    data["immersion"][0] = "u1 + 1e400"
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(data))
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    assert rc == 2 and err == [
        "error: in immersion[0]: at offset 5: numeric literal beyond the double range"]


def test_singular_canonical_basis_is_usage_error(tmp_path, capsys):
    # A[0, 1] = 2^63 keeps A H-selfadjoint within the relative tol, and
    # every clustering gives a singular basis T (a LinAlgError traceback
    # once, found by the matrix-file property)
    mat = tmp_path / "pair.json"
    mat.write_text(json.dumps(dict(_PAIR, A=[0.0, 2 ** 63] + _PAIR["A"][2:])))
    rc, err = _usage_error(["decompose", str(mat)], capsys)
    assert rc == 2 and err == ["error: no clustering attempt produced a decomposition"]


def _shear_scenario(checks):
    """A graph immersion whose transversal (u1/2, 0, 0, 0, 1) gives, at the
    origin, nabla omega = 0 and a rank-one S that is not h-selfadjoint."""
    return {
        "name": "shear", "dim": 4, "coords": ["u0", "u1", "u2", "u3"],
        "immersion": ["u0", "u1", "u2", "u3",
                      "0.5*u0*u0 + 0.5*u1*u1 + 0.5*u2*u2 + 0.5*u3*u3"],
        "transversal": ["0.5*u1", "0", "0", "0", "1"],
        "omega": [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]],
        "sample_points": [[0, 0, 0, 0]], "checks": checks,
    }


def test_rank_check_warns_on_shape_operator_without_canonical_form(tmp_path):
    sc = tmp_path / "shear.json"
    sc.write_text(json.dumps(_shear_scenario([{"name": "rank_theorem"}])))
    out = tmp_path / "rep.json"
    assert main(["check-geometry", "--scenario", str(sc), "--output", str(out)]) == 0
    rec = _load(out)["checks"]
    assert [r["status"] for r in rec] == ["WARN"]
    params = rec[0]["params"]
    assert params["final_form"] is None and params["rank_S"] == 1
    assert params["power"] == 1 and params["max_nabla"] == 0.0
    assert "no canonical form" in params["reason"] and "selfadjoint" in params["reason"]
    assert main(["check-geometry", "--scenario", str(sc), "--strict",
                 "--output", str(out)]) == 1
    # with every check, the report is written and equiaffine fails on h S
    sc.write_text(json.dumps(_shear_scenario([])))
    assert main(["check-geometry", "--scenario", str(sc), "--output", str(out)]) == 1
    status = {r["name"]: r["status"] for r in _load(out)["checks"]}
    assert status["equiaffine@point0"] == "FAIL"
    assert status["rank_theorem@point0"] == "WARN"


def _nested(kind, depth):
    return {"parens": "(" * depth + "u1" + ")" * depth,
            "calls": "sin(" * depth + "u1" + ")" * depth,
            "minus": "-" * depth + "u1"}[kind]


_TERMS = hst.sampled_from(["u1", "u2*u3", "sin(u1)", "exp(u1)^3000", "u1^1e400",
                           "1e400", "1e400*u1", "exp(exp(u4))", "ln(u2)", "w9",
                           "sqrt(u1 - u1)", "u1/0", "tan(u4)^2"])
_EXPRESSIONS = hst.one_of(
    hst.builds(lambda term, n: " + ".join([term] * n), _TERMS, hst.integers(1, 3000)),
    hst.builds(_nested, hst.sampled_from(["parens", "calls", "minus"]),
               hst.integers(1, 2 * MAX_NESTING)),
    hst.lists(_TERMS, min_size=1, max_size=6).map(" * ".join))
_JUNK = hst.sampled_from([None, True, -1, 0, 2.5, "4", "x", [], {}, 10 ** 400, 1e308])
# scenarios that stay valid: a transversal entry i (of 0..3) that depends
# on coordinate u_j, j != i + 1, makes the shape operator S fail to be
# h-selfadjoint, so ``equiaffine`` FAILs (exit 1); an omega entry of
# nonzero derivative keeps every check passing on the paraboloid, where
# S = 0.  |coefficient| <= 0.1 keeps the frame regular at the sample points.
_SMALL = hst.sampled_from(["0.05", "0.1", "-0.1"])
_BREAKING = hst.builds(
    lambda i, d, c, g: ("transversal", i, f"{c}*{g}(u{(i + d) % 4 + 1})"),
    hst.integers(0, 3), hst.integers(1, 3), _SMALL, hst.sampled_from(["", "sin"]))
_OMEGA_FIELDS = hst.builds(lambda j, c: ("omega_field", 0, f"1 + {c}*u{j}"),
                           hst.integers(1, 4), _SMALL)
_FIELDS = hst.one_of(
    _BREAKING, _OMEGA_FIELDS,
    hst.builds(lambda i, e: ("immersion", i, e), hst.integers(0, 4), _EXPRESSIONS),
    hst.builds(lambda e: ("omega", 0, e), _EXPRESSIONS),
    hst.builds(lambda v: ("dim", None, v), _JUNK),
    hst.builds(lambda key, v: ("checks", key, v),
               hst.sampled_from(["p_max", "tol", "trials", "name"]), _JUNK),
    hst.builds(lambda v: ("sample_points", None, v),
               hst.one_of(_JUNK, hst.lists(_JUNK, max_size=5))))


def _mutated_paraboloid(changes):
    data = _shipped("paraboloid")
    for field, key, value in changes:
        if field in ("immersion", "transversal"):
            data[field][key] = value
        elif field in ("omega", "omega_field"):
            data["omega"][0][1], data["omega"][1][0] = value, f"-({value})"
        elif field == "checks":
            data["checks"] = [{"name": "alternating_identity", key: value}]
        elif field == "sample_points":
            data["sample_points"] = value if isinstance(value, list) else [[value] * 4]
        else:
            data[field] = value
    return data


def test_any_scenario_text_exits_cleanly():
    """No scenario text ends in a traceback: main returns 0, 1 or 2, and an
    exit 2 prints exactly one stderr line.  Half the examples change only
    valid fields: one breaking transversal entry (with or without omega
    fields) exits 1, omega fields alone exit 0, and exit 1 comes in at
    least a tenth of all examples (about a third in practice)."""
    codes = []

    @settings(max_examples=60, deadline=None)
    @given(hst.one_of(hst.lists(hst.one_of(_BREAKING, _OMEGA_FIELDS), min_size=1,
                                max_size=2),
                      hst.lists(_FIELDS, min_size=1, max_size=3)))
    def run(changes):
        with tempfile.TemporaryDirectory() as tmp:
            sc = Path(tmp) / "sc.json"
            sc.write_text(json.dumps(_mutated_paraboloid(changes)))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["check-geometry", "--scenario", str(sc)])
        event(f"exit code {rc}")
        codes.append(rc)
        assert rc in (0, 1, 2)
        if rc == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        kinds = [c[0] for c in changes]
        if set(kinds) <= {"transversal", "omega_field"}:
            if kinds.count("transversal") == 1:
                assert rc == 1, changes
            elif "transversal" not in kinds:
                assert rc == 0, changes

    run()
    assert codes.count(1) >= len(codes) / 10, codes


# one H-selfadjoint pair, a complex pair 0.3 +- 1.2i beside (+1) and (-1),
# and mutations of its matrix file
_PAIR = {"dim": 4, "A": [0.3, 1.2, 0, 0, -1.2, 0.3, 0, 0, 0, 0, 0.5, 0, 0, 0, 0, -0.7],
         "H": [0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1]}
_ENTRIES = hst.one_of(
    hst.sampled_from([None, True, False, "1", "NaN", [], [1.0], {}, {"x": 1},
                      10 ** 400, -(10 ** 400), 2 ** 63, float("nan"), float("inf"),
                      -float("inf"), 1e308, -1e308, 5e-324, 0, 1]),
    hst.floats(allow_nan=True, allow_infinity=True))
_MATRIX_CHANGES = hst.one_of(
    hst.builds(lambda v: ("dim", v), hst.one_of(
        _ENTRIES, hst.integers(-3, 6), hst.sampled_from([10 ** 400, 2 ** 40, 4.0]))),
    hst.builds(lambda key, n: ("length", key, n), hst.sampled_from("AH"),
               hst.integers(0, 20)),
    hst.builds(lambda key, i, v: ("entry", key, i, v), hst.sampled_from("AH"),
               hst.integers(0, 15), _ENTRIES),
    hst.builds(lambda key, w: ("rows", key, w), hst.sampled_from("AH"),
               hst.integers(1, 5)),
    hst.builds(lambda key: ("drop", key), hst.sampled_from(["dim", "A", "H"])),
    hst.builds(lambda v: ("top", v), hst.sampled_from([[], [1, 2], 3, "pair", None])))


def _mutated_pair(changes):
    data = json.loads(json.dumps(_PAIR))
    for change in changes:
        kind, args = change[0], change[1:]
        if not isinstance(data, dict):
            break
        if kind == "dim":
            data["dim"] = args[0]
        elif kind == "length" and isinstance(data.get(args[0]), list):
            entries = data[args[0]]
            data[args[0]] = (entries * 2)[: args[1]]
        elif kind == "entry" and isinstance(data.get(args[0]), list):
            entries = data[args[0]]
            if entries:
                entries[args[1] % len(entries)] = args[2]
        elif kind == "rows" and isinstance(data.get(args[0]), list):
            entries, w = data[args[0]], args[1]
            data[args[0]] = [entries[i:i + w] for i in range(0, len(entries), w)]
        elif kind == "drop":
            data.pop(args[0], None)
        elif kind == "top":
            data = args[0]
    return data


@settings(max_examples=60, deadline=None)
@given(hst.lists(_MATRIX_CHANGES, min_size=1, max_size=3))
def test_any_matrix_file_exits_cleanly(changes):
    """No matrix file ends ``decompose`` in a traceback: main returns 0, 1
    or 2, and an exit 2 prints exactly one ``error:`` line on stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        mat = Path(tmp) / "pair.json"
        mat.write_text(json.dumps(_mutated_pair(changes)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["decompose", str(mat)])
    event(f"exit code {rc}")
    assert rc in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert lines == [] and json.loads(out.getvalue())["command"] == "decompose"
