import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as hst

import affsym
from affsym import cli, geometry, scenarios, tensor_ops, verify
from affsym.cli import _identity_trials, main
from affsym.expr import FUNCTIONS, MAX_NESTING
from affsym.model import RealBlock, assemble
from affsym.scenarios import TRIALS_CAP, scenario_from_dict
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
    assert capsys.readouterr().err == (
        "error: no such scenario file or builtin name: 'missing_thing' (builtins: "
        "paper_example_n2, paper_example_n3, paraboloid, centroaffine_sphere)\n")


def test_directory_as_scenario_is_usage_error(tmp_path, capsys):
    assert main(["check-geometry", "--scenario", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read scenario file {str(tmp_path)!r}: Is a directory\n")


def test_unreadable_scenario_is_usage_error(tmp_path, capsys, monkeypatch):
    # a root process reads a file whatever its mode, so the refusal is
    # made by open itself
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(_shipped("paraboloid")))

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(scenarios, "open", refuse, raising=False)
    assert main(["check-geometry", "--scenario", str(sc)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read scenario file {str(sc)!r}: Permission denied\n")


def test_non_utf8_scenario_is_unreadable_json(tmp_path, capsys):
    sc = tmp_path / "sc.json"
    sc.write_bytes(b'{"name": "\xff"}')
    assert main(["check-geometry", "--scenario", str(sc)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unreadable JSON: "), err


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
    assert rec["decompose"]["params"]["threshold_step"] == 0
    assert "master_seed" not in rep   # decompose draws nothing


def _rotated(blocks):
    """The matrix file of ``assemble(blocks)`` under a seeded orthogonal Q."""
    m = assemble(blocks)
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(m.dim, m.dim)))
    return {"dim": m.dim, "A": (q.T @ m.S @ q).ravel().tolist(),
            "H": (q.T @ m.H @ q).ravel().tolist()}


def _decompose_records(pair, tmp_path):
    """Each record of ``decompose`` on ``pair`` by name, after exit 0."""
    mat, out = tmp_path / "mat.json", tmp_path / "rep.json"
    mat.write_text(json.dumps(pair))
    assert main(["decompose", str(mat), "--output", str(out)]) == 0
    return {r["name"]: r for r in _load(out)["checks"]}


def test_decompose_reports_its_threshold_step(tmp_path):
    # a rotated size-3 Jordan block escalates the clustering threshold
    params = _decompose_records(_rotated([RealBlock(3, 0.7, 1), RealBlock(1, -0.5, 1)]),
                                tmp_path)["decompose"]["params"]
    assert params["threshold_step"] >= 1
    assert any("clustering threshold escalated" in w for w in params["warnings"])


# the sip matrix of a 2-block beside (+1) and (-1)
_SIP_H = [0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1]
# a rank-one nilpotent 2-block with that H
_NILPOTENT_PAIR = {"dim": 4, "A": [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                   "H": _SIP_H}
# a complex pair 0.3 +- 1.2i beside (+1) and (-1)
_PAIR = {"dim": 4, "A": [0.3, 1.2, 0, 0, -1.2, 0.3, 0, 0, 0, 0, 0.5, 0, 0, 0, 0, -0.7],
         "H": _SIP_H}


@pytest.mark.parametrize("pair, holds", [
    (_NILPOTENT_PAIR, lambda classify, dec: classify["final_form"] == "rank_one_nilpotent"),
    # the complex clustering and root-space path
    (_PAIR, lambda classify, dec: classify["has_complex"] is True),
    # every root space has dimension 1, so every stage takes the 1x1
    # shortcut and every chain fills its stage
    ({"dim": 4, "A": np.diag([1.5, -0.7, 0.4, -2.2]).ravel().tolist(),
      "H": np.diag([1.0, -1.0, 1.0, -1.0]).ravel().tolist()},
     lambda classify, dec: dec["threshold_step"] == 0 and dec["warnings"] == []
     and [(b["kind"], b["size"], b["eigenvalue"], b["sign"]) for b in dec["blocks"]]
     == [("real", 1, -2.2, -1), ("real", 1, -0.7, -1), ("real", 1, 0.4, 1), ("real", 1, 1.5, 1)]),
    # the scattered eigenvalues of a nilpotent 4-block fail the first
    # clustering, and the escalated one reuses the simple eigenvalues' chains
    (_rotated([RealBlock(4, 0.0, 1), RealBlock(1, 1.3, 1), RealBlock(1, -0.8, -1)]),
     lambda classify, dec: any("clustering threshold escalated" in w for w in dec["warnings"])
     and 4 in [b["size"] for b in dec["blocks"]]),
], ids=["rank_one_nilpotent", "complex_pair", "diagonal", "rotated_nilpotent_4_block"])
def test_decompose_reports_its_pair(pair, holds, tmp_path):
    rec = _decompose_records(pair, tmp_path)
    assert [r["status"] for r in rec.values()] == ["PASS"] * 3, rec
    assert holds(rec["classify"]["params"], rec["decompose"]["params"]), rec


@pytest.mark.parametrize("command", ["list-oracles", "oracles", "check-geometry",
                                     "decompose"])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_output_is_usage_error(command, target, tmp_path, capsys):
    mat = tmp_path / "mat.json"
    mat.write_text(json.dumps({"dim": 2, "A": [0.0] * 4, "H": [1.0, 0.0, 0.0, 1.0]}))
    argv = {"list-oracles": ["list-oracles"],
            "oracles": ["oracles", "--filter", "lemma36", "--trials", "1"],
            "check-geometry": ["check-geometry", "--scenario", "paraboloid"],
            "decompose": ["decompose", str(mat)]}[command]
    path = str(tmp_path / "nowhere" / "r.json") if target == "missing" else str(tmp_path)
    rc, err = _usage_error(argv + ["--output", path], capsys)
    reason = "No such file or directory" if target == "missing" else "Is a directory"
    assert rc == 2 and err == [f"error: cannot write report {path!r}: {reason}"]


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1.0, 1e-11, 1e-300, 1.7e308])
def test_symmetric_omega_is_usage_error_at_every_scale(scale, tmp_path, capsys):
    # antisymmetry is read on the scale max|omega|, so no scale makes a
    # symmetric form a 2-form, and w + w^T at 1.7e308 does not overflow
    sym = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(_shipped("paraboloid",
                                      omega=[[scale * v for v in row] for row in sym])))
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    point = tuple(_shipped("paraboloid")["sample_points"][0])
    assert rc == 2 and err == [f"error: omega not antisymmetric at sample point {point}"]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_sample_point_is_usage_error(value, tmp_path, capsys):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(_shipped("paraboloid",
                                      sample_points=[[value, 0.0, 0.0, 0.0]])))
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    assert rc == 2 and len(err) == 1 and "finite" in err[0]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_omega_entry_is_usage_error(value, tmp_path, capsys):
    # json writes and reads these as the literals NaN and Infinity
    omega = _shipped("paraboloid")["omega"]
    omega[0][1] = value
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(_shipped("paraboloid", omega=omega)))
    assert ("NaN" if np.isnan(value) else "Infinity") in sc.read_text()
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    assert rc == 2 and err == ["error: omega[0][1] is not finite"]


def test_scenario_without_sample_points_is_usage_error(tmp_path, capsys):
    # the loader takes it, but check-geometry would report no checks at all
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(_shipped("paraboloid", sample_points=[])))
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    assert rc == 2 and err == [
        "error: scenario 'paraboloid' has no sample points to check"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_omega_beyond_the_determinant_range_is_nondegenerate(tmp_path, capsys):
    # det(1e200 * omega) = 1e800 overflows a double; the nondegeneracy test
    # reads 1/cond of omega / max|omega|, which no scale moves
    omega = [[1e200 * v for v in row] for row in _shipped("paraboloid")["omega"]]
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(_shipped("paraboloid", omega=omega)))
    out = tmp_path / "rep.json"
    assert main(["check-geometry", "--scenario", str(sc), "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert _load(out)["summary"]["fail"] == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, scale, q, index", [
    ("paper_example_n2", 1e307, 3, 1),
    ("paper_example_n2", 1.7e308, 1, 0),
    ("centroaffine_sphere", 1e307, 3, 0),
    ("centroaffine_sphere", 1.7e308, 1, 0),
])
def test_derivatives_of_omega_past_the_double_range_are_usage_errors(name, scale, q, index,
                                                                     tmp_path, capsys):
    # omega itself is finite; nabla^q omega overflows at a sample point,
    # which is refused before any check reads it, with no numpy warning
    data = _shipped(name)
    data["omega"] = [[scale * v for v in row] for row in data["omega"]]
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(data))
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    point = tuple(data["sample_points"][index])
    assert rc == 2 and err == [f"error: nabla^{q} omega is not finite at sample point {point}"]


def test_a_report_with_nan_is_refused(tmp_path):
    # json would write the non-JSON literal NaN
    with pytest.raises(ValueError, match="Out of range float values"):
        cli._emit({"value": float("nan")}, str(tmp_path / "rep.json"))


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
    # one structure solve and curvature per point, and one packing of omega
    # and one R^q omega ladder that rank_theorem and alternating_identity share
    calls = {"solve": 0, "curvature": 0, "pack_two_form": 0, "r_power_levels": 0}
    solve, curvature = geometry.StructureJets.__init__, geometry.curvature

    def counted_solve(self, *args):
        calls["solve"] += 1
        solve(self, *args)

    def counted_curvature(*args):
        calls["curvature"] += 1
        return curvature(*args)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(geometry.StructureJets, "__init__", counted_solve)
    monkeypatch.setattr(geometry, "curvature", counted_curvature)
    for name in ("pack_two_form", "r_power_levels"):
        wrapper = counted(name, getattr(tensor_ops, name))
        for module in (cli, verify, tensor_ops):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    assert main(["check-geometry", "--scenario", "paper_example_n2",
                 "--output", str(tmp_path / "rep.json")]) == 0
    assert calls == {"solve": 3, "curvature": 3, "pack_two_form": 3, "r_power_levels": 3}


def test_check_geometry_reads_omega_once_per_point(monkeypatch, tmp_path):
    # Scenario.validate evaluates omega to the order the checks read and
    # the records take those jets: the chain needs no second evaluation
    calls, evaluate = [], geometry.component_jets

    def counted(components, point, order, coords):
        calls.append((tuple(point), order))
        return evaluate(components, point, order, coords)

    monkeypatch.setattr(geometry, "component_jets", counted)
    assert main(["check-geometry", "--scenario", "paper_example_n2",
                 "--output", str(tmp_path / "rep.json")]) == 0
    # rank_theorem at p_max 3 needs structure jets of order 2, so nabla^3 omega
    # reads omega's jets of order 3
    points = _shipped("paper_example_n2")["sample_points"]
    assert calls == [(tuple(p), 3) for p in points]
    assert "component_jets" not in vars(cli)


@pytest.mark.parametrize("checks", [[{"name": "frame"}], [{"name": "rank_theorem"}], []])
def test_omega_derivative_not_finite_exits_two_under_every_check_list(
        checks, tmp_path, capsys):
    # d^2/du1^2 sqrt(u1) overflows at u1 = 1e-300 while the value does not;
    # omega is evaluated once, at load, to the order the checks read
    omega = _shipped("paraboloid")["omega"]
    omega[0][1], omega[1][0] = "1 + sqrt(u1)", "-(1 + sqrt(u1))"
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(_shipped("paraboloid", omega=omega, checks=checks,
                                      sample_points=[[1e-300, 0.1, 0.2, 0.3]])))
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    assert rc == 2 and len(err) == 1 and "omega[0][1]" in err[0]


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
    assert scenario_from_dict(_paraboloid(10, 3)).jet_order == 2
    # ... and at dim 14 91^4 = 68.6M, beyond the cap; a power beyond the
    # curvature power cap 3 is refused before its entries are counted
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(_paraboloid(14, 3)))
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    assert rc == 2 and len(err) == 1 and "68574961 entries" in err[0]


def test_alternating_identity_cap_counts_packed_entries(monkeypatch, tmp_path, capsys):
    # the identity's lhs reads packed R^p_max omega: at dim 26 and p_max 2
    # that holds 325^3 = 34.3M entries, within the cap ...
    data = _paraboloid(26, 2)
    data["checks"] = [{"name": "alternating_identity", "p_max": 2}]
    assert scenario_from_dict(data).jet_order == 3
    # ... and at dim 28 378^3 = 54.0M, beyond it, refused before any jet
    data = _paraboloid(28, 2)
    data["checks"] = [{"name": "alternating_identity", "p_max": 2}]
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(data))

    def no_jets(*args):
        raise AssertionError("sample points solved before the cap was checked")

    monkeypatch.setattr(geometry.Scenario, "validate", no_jets)
    rc, err = _usage_error(["check-geometry", "--scenario", str(sc)], capsys)
    assert rc == 2 and len(err) == 1, err
    assert "alternating_identity" in err[0] and "54010152 entries" in err[0]
    assert "cap 40000000" in err[0]


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


def _paraboloid_text(**changes):
    return json.dumps(_shipped("paraboloid", **changes))


def _first_immersion_entry(entry):
    return [entry] + _shipped("paraboloid")["immersion"][1:]


def _nan_omega():
    omega = _shipped("paraboloid")["omega"]
    omega[0][1] = float("nan")
    return omega


# immersion[0] entries nested beyond MAX_NESTING or overflowing in a sum
_DEEP_OR_OVERFLOWING = [
    ("(" * 3000 + "u1" + ")" * 3000, "nesting deeper than 100"),
    ("-" * 3000 + "u1", "nesting deeper than 100"),
    ("sin(" * 2000 + "u1" + ")" * 2000, "nesting deeper than 100"),
    # exp(0.3)^3000 overflows, and the error names the 3000-term sum
    (" + ".join(["u1"] + ["exp(u1)^3000"] * 2999), "immersion[0]: ^3000 is not finite"),
]
_DEEP_IDS = ["parentheses", "unary_minus", "calls", "overflowing_sum"]
_SCENARIO_IN = ["check-geometry", "--scenario", "IN"]


@pytest.mark.parametrize("text, argv, words", [
    # without the cap this alternating_identity check would not finish
    (_paraboloid_text(checks=[{"name": "alternating_identity", "trials": 10 ** 12}]),
     _SCENARIO_IN, "cap 10000"),
    (_long_literal_scenario(), _SCENARIO_IN, "4300 digits"),
    *[(_paraboloid_text(immersion=_first_immersion_entry(entry)), _SCENARIO_IN, words)
      for entry, words in _DEEP_OR_OVERFLOWING],
    (_paraboloid_text(immersion=_first_immersion_entry("u1 + 1e400")), _SCENARIO_IN,
     "offset"),
    (_paraboloid_text(sample_points=[]), _SCENARIO_IN, "no sample points"),
    (_paraboloid_text(omega=_nan_omega()), _SCENARIO_IN, "omega[0][1] is not finite"),
    (None, ["check-geometry", "--scenario", "paraboloid", "--seed", "-1"], "--seed"),
    (None, ["oracles", "--filter", "rp_ei_ek", "--trials", "1", "--seed", "-1"], "--seed"),
    (json.dumps(_NILPOTENT_PAIR), ["decompose", "IN", "--tol", "nan"], "--tol"),
    (json.dumps({"dim": 2, "A": [1, 0, 0, {"x": 1}], "H": [1, 0, 0, 1]}), ["decompose", "IN"],
     "must hold JSON numbers"),
], ids=["huge_trials", "long_integer_literal", *_DEEP_IDS, "literal_beyond_double_range",
        "no_sample_points", "nan_omega_entry", "check_geometry_negative_seed",
        "oracles_negative_seed", "nan_tol", "object_matrix_entry"])
def test_refused_input_exits_two_within_20_s(text, argv, words, tmp_path):
    """In a fresh interpreter, where a RuntimeWarning prints instead of
    raising, a refused input (the file IN holds ``text``) ends in exit 2
    and one stderr line of under 200 bytes, within 20 s."""
    path = tmp_path / "in.json"
    if text is not None:
        path.write_text(text)
    run = _affsym_python(_RUN_CLI, *[str(path) if a == "IN" else a for a in argv],
                         timeout=20)
    assert run.returncode == 2 and run.stderr.count("\n") == 1, run.stderr
    assert words in run.stderr and len(run.stderr.encode()) < 200, run.stderr


@pytest.mark.parametrize("trials", [TRIALS_CAP + 1, 10 ** 12])
def test_oracles_trials_beyond_cap_exits_two(trials):
    # without the cap run_family would keep 10**12 results and not finish
    run = _affsym_python(_RUN_CLI, "oracles", "--filter", "rp_ei_ek",
                         "--trials", str(trials), timeout=20)
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
    # a frame record's jet_order is its point's one structure solve, whose
    # order the whole check list sets: 1 for frame alone, 2 for the shipped
    # list (rank_theorem at p_max 3)
    orders = [(b["params"].pop("jet_order", None), s["params"].pop("jet_order", None))
              for b, s in zip(bare, shipped)]
    assert orders == [(1, 2) if name == "frame" else (None, None)] * len(shipped)
    assert bare == shipped and len(bare) == 3
    for r in bare:
        assert r["tol"] == tol and params.items() <= r["params"].items(), r


def test_scenario_without_checks_runs_the_table(tmp_path):
    data = _shipped("paraboloid")
    del data["checks"]
    shipped = _check_records(_shipped("paraboloid"), tmp_path)
    assert _check_records(data, tmp_path) == shipped
    # checks that name no field take the table's defaults, which the
    # shipped file spells out
    names = ("rank_theorem", "alternating_identity")
    bare = _shipped("paraboloid", checks=[{"name": name} for name in names])
    assert _check_records(bare, tmp_path) == \
        [r for r in shipped if r["name"].split("@")[0] in names]


@pytest.mark.parametrize("rank_p, identity_p", [(1, 2), (3, 1)])
def test_checks_that_share_a_ladder_report_as_alone(rank_p, identity_p, tmp_path):
    # rank_theorem and alternating_identity read one R^q omega ladder per
    # point, stepped to the larger p_max; each reports as it does alone
    rank = {"name": "rank_theorem", "p_max": rank_p}
    identity = {"name": "alternating_identity", "p_max": identity_p}
    both = _check_records(_shipped("paper_example_n2", checks=[rank, identity]), tmp_path)
    for check in (rank, identity):
        alone = _check_records(_shipped("paper_example_n2", checks=[check]), tmp_path)
        assert [r for r in both if r["name"].startswith(check["name"] + "@")] == alone
        assert len(alone) == 3


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


def _affsym_python(code, *args, timeout=60, env=None):
    """Run ``code`` in a fresh interpreter that imports this affsym, with
    ``env`` added to the environment; a hang fails after ``timeout`` s."""
    src = str(Path(affsym.__file__).resolve().parents[1])
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
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


def test_reports_do_not_depend_on_blas_threads(tmp_path):
    # jet contractions run through BLAS matmul, whose threading must not
    # reach the report
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"rep{threads}.json"
        run = _affsym_python(_RUN_CLI, "check-geometry", "--scenario", "paper_example_n3",
                             "--output", str(out), env={"OPENBLAS_NUM_THREADS": threads})
        assert run.returncode == 0, run.stderr
        reports.append(json.dumps(_strip_timing(_load(out)), sort_keys=True))
    assert reports[0] == reports[1]


def test_cli_runs_without_scipy(tmp_path):
    run = _affsym_python(
        "import sys, affsym, affsym.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run.returncode == 0 and run.stdout == "[]\n", run.stderr
    mat, pair = tmp_path / "mat.json", tmp_path / "pair.json"
    mat.write_text(json.dumps({"dim": 4, "A": [0.0] * 16,
                               "H": np.eye(4).ravel().tolist()}))
    pair.write_text(json.dumps(_NILPOTENT_PAIR))
    # a None entry makes every import of scipy raise ImportError
    blocked = "import sys; sys.modules['scipy'] = None; " + _RUN_CLI
    for argv in (["list-oracles"],
                 ["oracles", "--filter", "cx_*", "--trials", "5"],
                 ["check-geometry", "--scenario", "paper_example_n3"],
                 ["decompose", str(mat)],
                 ["decompose", str(pair)]):
        run = _affsym_python(blocked, *argv, "--output", str(tmp_path / "rep.json"))
        assert run.returncode == 0, (argv, run.stderr)


def test_induced_structure_is_not_exported():
    # the induced structure at a point is read from StructureJets, the one
    # structure object per point
    for name in ("InducedStructure", "induced_structure"):
        assert not hasattr(affsym, name) and name not in affsym.__all__, name


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
        want_pairs, want_ys = [], []
        for _ in range(9):
            want_pairs.append(ref_rng.integers(0, dim, size=(p_max, 2)).tolist())
            want_ys.append(ref_rng.integers(0, dim, size=2).tolist())
        rng = np.random.default_rng((seed, 17, 0))
        pairs, ys = _identity_trials(rng, dim, p_max, 9)
        assert pairs.tolist() == want_pairs and ys.tolist() == want_ys
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("entry, words", _DEEP_OR_OVERFLOWING, ids=_DEEP_IDS)
def test_deep_or_overflowing_expression_is_usage_error(entry, words, tmp_path, capsys):
    sc = tmp_path / "sc.json"
    sc.write_text(_paraboloid_text(immersion=_first_immersion_entry(entry)))
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


def test_singular_canonical_basis_is_usage_error(monkeypatch, tmp_path, capsys):
    # a singular basis T in every clustering (a LinAlgError traceback once,
    # found by the matrix-file property) is one error line
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    mat = tmp_path / "pair.json"
    mat.write_text(json.dumps(_PAIR))
    rc, err = _usage_error(["decompose", str(mat)], capsys)
    assert rc == 2 and err == ["error: no clustering attempt produced a decomposition"]


def test_one_huge_entry_does_not_widen_the_selfadjoint_gate(tmp_path, capsys):
    # A[0, 1] = 2^63 leaves a 0.3 mismatch at (0, 1) and (1, 0), within the
    # normwise bound 9.2e10 but not the entrywise one
    mat = tmp_path / "pair.json"
    mat.write_text(json.dumps(dict(_PAIR, A=[0.0, 2 ** 63] + _PAIR["A"][2:])))
    rc, err = _usage_error(["decompose", str(mat)], capsys)
    assert rc == 2 and err == [
        "error: A is not H-selfadjoint: ||A^T H - H A|| = 3.000e-01"]


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
    assert params["reason"].startswith("(S, h) has no canonical form")
    assert "selfadjoint" in params["reason"]
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


# mutations of the matrix file of _PAIR
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


# -- every input ends in one error line or a report JSON reads ---------

#: expression leaves: the coordinates of the dim-4 shipped scenarios and
#: constants at the edges of the double range
_FUZZ_ATOMS = ("1e300", "1e-300", "1e-8", "0", "2", "0.5")


def _fuzz_sources(coords):
    """Expression sources over ``coords``, every function, ``^`` and ``/``."""
    return hst.recursive(
        hst.sampled_from((*coords, *_FUZZ_ATOMS)),
        lambda sub: hst.one_of(
            hst.builds("({}) {} ({})".format, sub, hst.sampled_from("+-*/"), sub),
            hst.builds("-({})".format, sub),
            hst.builds("({})^{}".format, sub, hst.sampled_from(("2", "3", "0.5", "1.5", "3000"))),
            hst.builds("{}({})".format, hst.sampled_from(FUNCTIONS), sub)),
        max_leaves=5)


@hst.composite
def _scenario_runs(draw):
    """check-geometry on a shipped scenario, dim 4 or 6, with 0-3 immersion
    or transversal entries replaced by random expressions, at times an
    expression in omega or omega scaled towards the edges of the double
    range, one sample point and at times random rank and identity checks."""
    data = _shipped(draw(hst.sampled_from(
        ("paraboloid", "paper_example_n2", "centroaffine_sphere", "paper_example_n3"))))
    dim = data["dim"]
    sources = _fuzz_sources(data["coords"])
    for _ in range(draw(hst.integers(0, 3))):
        field = draw(hst.sampled_from(("immersion", "transversal")))
        data[field][draw(hst.integers(0, dim))] = draw(sources)
    omega = data["omega"]
    if draw(hst.booleans()):
        i, j = draw(hst.sampled_from([(i, j) for i in range(dim) for j in range(i + 1, dim)]))
        src = draw(sources)
        omega[i][j], omega[j][i] = src, f"-({src})"
    scale = draw(hst.sampled_from((1.0, 1.0, 1e-12, 1e9, 1e280, 1e307, 1.7e308)))
    data["omega"] = [[v * scale if isinstance(v, (int, float)) else f"{scale!r}*({v})"
                      for v in row] for row in omega]
    values = hst.sampled_from((0.0, 1.0, -1.0, 0.3, -0.7, 1e-8, 2.5, 710.0, 1e3))
    data["sample_points"] = [draw(hst.sampled_from(data["sample_points"]))
                             if draw(hst.booleans()) else [draw(values) for _ in range(dim)]]
    if draw(hst.booleans()):
        data["checks"] = [{"name": "rank_theorem", "p_max": draw(hst.integers(1, 3))},
                          {"name": "alternating_identity", "p_max": draw(hst.integers(1, 2)),
                           "trials": draw(hst.integers(1, 5))}][: draw(hst.integers(1, 2))]
    argv = ["check-geometry", "--scenario", "FILE", "--seed", str(draw(hst.integers(0, 9)))]
    return argv + ["--strict"] * draw(hst.booleans()), json.dumps(data)


@hst.composite
def _decompose_runs(draw):
    """decompose on a congruent pair of a block shape, scaled towards the
    edges of the double range, at times with one entry replaced by an edge
    value or by no number, written flat or in rows, under several tols."""
    blocks = draw(hst.sampled_from((
        [RealBlock(1, 0.6, 1), RealBlock(1, 0.6, -1), RealBlock(2, 0.0, 1)],
        [RealBlock(2, 0.0, 1), RealBlock(1, 0.0, 1), RealBlock(1, 0.0, -1)],
        [RealBlock(3, 1.3, -1), RealBlock(1, -0.8, 1)],
        [RealBlock(4, 0.0, 1)])))
    m = assemble(blocks)
    q = np.random.default_rng(draw(hst.integers(0, 99))).normal(size=(4, 4))
    qi = np.linalg.inv(q)
    scale = draw(hst.sampled_from((1.0, 1e-300, 1e-8, 1e8, 1e150, 1e151, 1e300)))
    a, h = ((q @ m.S @ qi) * scale).ravel().tolist(), (qi.T @ m.H @ qi).ravel().tolist()
    if draw(hst.booleans()):
        entries = draw(hst.sampled_from((a, h)))
        entries[draw(hst.integers(0, 15))] = draw(hst.sampled_from(
            (0.0, -0.0, 5e-324, 1e308, -1e308, 2 ** 63, 10 ** 400, "x", None, True)))
    if draw(hst.booleans()):
        a, h = ([row[i:i + 4] for i in range(0, 16, 4)] for row in (a, h))
    tol = draw(hst.sampled_from(("1e-8", "1e-300", "1", "1e300")))
    return ["decompose", "FILE", "--tol", tol], json.dumps({"dim": 4, "A": a, "H": h})


@hst.composite
def _oracle_runs(draw):
    """oracles with a catalog id or pattern and small or refused flags."""
    argv = ["oracles", "--filter", draw(_FILTERS), "--trials", str(draw(hst.integers(-1, 3))),
            "--p-max", str(draw(hst.integers(-1, 6))), "--seed", str(draw(hst.integers(-2, 99)))]
    return argv, None


def _refuse_constant(name):
    raise ValueError(f"the report holds the non-JSON constant {name}")


@settings(max_examples=150, deadline=None)
@given(hst.one_of(_scenario_runs(), _decompose_runs(), _oracle_runs()))
# the structure solve overflowed with numpy warnings before a later error line
@example((["check-geometry", "--scenario", "FILE", "--seed", "0"],
          json.dumps(_shipped("paraboloid", transversal=["(u1) * (1e300)", "0", "0", "0", "1"],
                              sample_points=[[0.0, 0.0, 0.0, 0.0]]))))
# a determinant test of omega overflowed, and underflowed to log 0, with
# numpy warnings; 1/cond of the prescaled omega does neither
@example((["check-geometry", "--scenario", "FILE", "--seed", "0"],
          json.dumps(_shipped("paraboloid", sample_points=[[0.3, -0.7, 1.2, 0.5]], omega=[
              [0.0, 1.7e308, 0.0, "1.7e+308*(u1)"], [-1.7e308, 0.0, 1.7e308, 0.0],
              [0.0, -1.7e308, 0.0, 1.7e308], ["1.7e+308*(-(u1))", 0.0, -1.7e308, 0.0]]))))
@example((["check-geometry", "--scenario", "FILE", "--seed", "0"],
          json.dumps(_shipped("paraboloid", sample_points=[[0.3, -0.7, 1.2, 0.5]], omega=[
              [0.0, "1e-12*(1e-300)", 0.0, 0.0], ["1e-12*(-(1e-300))", 0.0, 1e-12, 0.0],
              [0.0, -1e-12, 0.0, 1e-12], [0.0, 0.0, -1e-12, 0.0]]))))
# the selfadjointness bound tol * |A| |H| overflowed with a numpy warning
@example((["decompose", "FILE", "--tol", "1e300"],
          json.dumps({"dim": 2, "A": [1e9, 0, 0, 2e9], "H": [1, 0, 0, -1]})))
def test_every_run_gives_one_error_line_or_a_json_report(tmp_path_factory, run):
    """Mutated scenario files, decompose matrix files and oracles flags,
    every numpy warning raised as an error: a run exits 2 with exactly one
    ``error:`` line, or 0 or 1 with nothing on stderr and a report that
    JSON reads without NaN or Infinity."""
    argv, text = run
    if text is not None:
        path = tmp_path_factory.mktemp("fuzz") / "input.json"
        path.write_text(text)
        argv = [str(path) if a == "FILE" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    event(f"{argv[0]} exit {rc}")
    lines = err.getvalue().splitlines()
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert rc in (0, 1) and lines == []
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
