"""omega -> c omega as a metamorphic oracle for check-geometry.

The paper's hypotheses R^p omega = 0 and nabla^p omega = 0 are linear in
omega, so for c != 0 the form c omega gets the verdicts omega gets: the
same exit code, record names and statuses, and the same rank_theorem
conclusions.  The records that never read omega (frame, fundamental,
gauss_model, equiaffine, codazzi_shape) are the same bits, and the values
linear in omega (max |R^q omega|, max |nabla^q omega|, the alternating
identity's worst gap and its bound) are c times those at c = 1.
"""

import contextlib
import functools
import io
import json
from importlib import resources

from hypothesis import example, given, settings
from hypothesis import strategies as hst

from affsym.cli import main

SCENARIOS = ("paraboloid", "paper_example_n2", "centroaffine_sphere", "paper_example_n3")

#: the checks that never read omega, compared bit for bit
OMEGA_FREE = ("frame", "fundamental.", "gauss_model", "equiaffine", "codazzi_shape")


def _shipped(name):
    return json.loads(resources.files("affsym").joinpath("data", f"{name}.json").read_bytes())


def _scaled(data, c):
    """``data`` with each numeric omega entry times c and each expression
    entry written as ``c*(...)``."""
    data = dict(data)
    data["omega"] = [[v * c if isinstance(v, (int, float)) else f"{c!r}*({v})" for v in row]
                     for row in data["omega"]]
    return data


def _check_geometry(path, data):
    """Exit code and report of check-geometry on ``data``, run in process."""
    path.write_text(json.dumps(data))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["check-geometry", "--scenario", str(path), "--output", "-"])
    return rc, (json.loads(out.getvalue()) if rc in (0, 1) else None)


def _with_field(data, field):
    """At ``field``, omega[0][1] = 1 + x^2 in the first coordinate x, and
    omega[1][0] its negation: an omega field that moves from point to point."""
    if field:
        x = data["coords"][0]
        data["omega"][0][1], data["omega"][1][0] = f"1 + {x}*{x}", f"-(1 + {x}*{x})"
    return data


@functools.lru_cache(maxsize=None)
def _at_one(path, name, field):
    """The report at c = 1, where every shipped scenario exits 0, as JSON
    text: each caller reads a fresh copy."""
    rc, report = _check_geometry(path, _with_field(_shipped(name), field))
    assert rc == 0, name
    return json.dumps(report)


def _close(scaled, one, c):
    return abs(scaled - c * one) <= 1e-12 * c * max(1.0, abs(one))


@settings(max_examples=100, deadline=None)
@given(name=hst.sampled_from(SCENARIOS), field=hst.booleans(),
       m=hst.floats(1.0, 10.0, exclude_max=True), e=hst.integers(-12, 12))
# the scales at which |det| below 1e-12 refused every scenario, and at
# which an absolute identity bound failed the alternating identity
@example(name="paraboloid", field=False, m=1.0, e=-6)
@example(name="paper_example_n2", field=False, m=1.0, e=-12)
@example(name="paper_example_n2", field=False, m=1.0, e=9)
@example(name="centroaffine_sphere", field=False, m=1.0, e=9)
@example(name="paper_example_n3", field=False, m=1.0, e=12)
def test_check_geometry_verdicts_do_not_move_with_the_scale_of_omega(tmp_path_factory, name,
                                                                     field, m, e):
    c = m * 10.0 ** e
    base = tmp_path_factory.getbasetemp()
    one = json.loads(_at_one(base / f"{name}-{field}.json", name, field))
    rc, report = _check_geometry(base / "scaled.json",
                                 _scaled(_with_field(_shipped(name), field), c))
    assert rc == 0, (name, c)
    assert [(r["name"], r["status"]) for r in report["checks"]] == \
        [(r["name"], r["status"]) for r in one["checks"]]
    for r, r1 in zip(report["checks"], one["checks"]):
        r.pop("wall_ms"), r1.pop("wall_ms")
        if r["name"].startswith(OMEGA_FREE):
            assert r == r1
        elif r["name"].startswith("rank_theorem"):
            assert _close(r["value"], r1["value"], c)
            nabla, nabla1 = r["params"].pop("max_nabla"), r1["params"].pop("max_nabla")
            assert (nabla is None) == (nabla1 is None)
            assert nabla is None or _close(nabla, nabla1, c)
            assert r["params"] == r1["params"] and r["tol"] == r1["tol"]
        else:
            assert r["name"].startswith("alternating_identity")
            assert _close(r["value"], r1["value"], c) and _close(r["tol"], r1["tol"], c)
            assert r["params"] == r1["params"]


def test_an_identity_bound_past_the_double_range_is_the_largest_double(tmp_path):
    # tol * max|omega| = 1e300 * 1e300 is inf, which a JSON report cannot hold
    data = _scaled(_shipped("paraboloid"), 1e300)
    data["checks"] = [{"name": "alternating_identity", "p_max": 1, "tol": 1e300, "trials": 5}]
    rc, report = _check_geometry(tmp_path / "sc.json", data)
    assert rc == 0
    assert {r["tol"] for r in report["checks"]} == {1.7976931348623157e308}
