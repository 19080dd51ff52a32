import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affsym.geometry import ConstraintError, GeometryError
from affsym.jets import component_jets
from affsym.scenarios import (BUILTIN_NAMES, CHECKS, ScenarioFormatError,
                              load_matrix_pair, load_scenario, scenario_from_dict)

pytestmark = pytest.mark.contract


def test_builtins_load_and_validate():
    for name in BUILTIN_NAMES:
        sc = load_scenario(name)
        sc.validate(0)
        assert sc.name == name
        assert sc.dim in (4, 6)
        assert len(sc.sample_points) >= 3
        w = component_jets(sc.omega, sc.sample_points[0], 0, sc.coords)[0]
        assert np.max(np.abs(w + w.T)) == 0.0


def test_unknown_name_errors():
    with pytest.raises(ScenarioFormatError):
        load_scenario("no_such_scenario")


def _minimal(**overrides):
    data = {
        "name": "tiny", "dim": 4, "coords": ["a", "b", "c", "d"],
        "immersion": ["a", "b", "c", "d", "a^2 + b^2 + c^2 + d^2"],
        "transversal": ["0", "0", "0", "0", "1"],
        "omega": [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]],
        "sample_points": [[0.1, 0.2, 0.3, 0.4]],
    }
    data.update(overrides)
    return data


def test_dimension_checks():
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(_minimal(dim=5))
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(_minimal(coords=["a", "b", "c"]))
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(_minimal(immersion=["a", "b"]))
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(_minimal(sample_points=[[0.0, 0.0]]))
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(_minimal(omega=[[0, 1], [-1, 0]]))


@pytest.mark.parametrize("change, words", [
    (lambda d: d.pop("omega"), "missing scenario key 'omega'"),
    (lambda d: d.update(sample_points=[0.1, 0.2, 0.3, 0.4]),
     "sample_points must be a list of coordinate lists"),
    (lambda d: d["transversal"].pop(0), "expected 5 transversal components, got 4"),
    (lambda d: d.update(coords=["a", "b", "a", "d"]), "coords[2] 'a' repeats coords[0]"),
    (lambda d: d.update(coords=["a", "b", "c", "d d"]), "coords[3] 'd d' is not an identifier"),
    (lambda d: d.update(coords=["a", 1, "c", "d"]), "coords[1] '1' is not an identifier"),
    (lambda d: d.update(coords=[" a", "b", "c", "d"]), "coords[0] ' a' is not an identifier")],
    ids=["no_omega", "flat_sample_points", "short_transversal", "repeated_coord",
         "coord_with_a_space", "numeric_coord", "coord_with_a_leading_space"])
def test_malformed_fields_are_named(change, words):
    data = _minimal()
    change(data)
    with pytest.raises(ScenarioFormatError) as err:
        scenario_from_dict(data)
    assert str(err.value) == words


def test_expression_errors_carry_context():
    with pytest.raises(ScenarioFormatError) as err:
        scenario_from_dict(_minimal(immersion=["a", "b", "c", "d", "a +"]))
    assert "immersion[4]" in str(err.value)
    with pytest.raises(ScenarioFormatError) as err:
        scenario_from_dict(_minimal(transversal=["0", "0", "0", "0", "q"]))
    assert "q" in str(err.value)


def test_constraint_rejection_names_the_constraint():
    data = _minimal(constraints=[{"name": "a_positive", "expr": "a"}],
                    sample_points=[[-1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ConstraintError) as err:
        scenario_from_dict(data).validate(0)
    assert err.value.name == "a_positive"
    assert err.value.point == (-1.0, 0.0, 0.0, 0.0)


def test_non_antisymmetric_omega_rejected():
    data = _minimal(omega=[[0, 1, 0, 0], [1, 0, 1, 0], [0, -1, 0, 1],
                           [0, 0, -1, 0]])
    with pytest.raises(GeometryError):
        scenario_from_dict(data).validate(0)


def test_file_roundtrip(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(_minimal()))
    sc = load_scenario(str(path))
    assert sc.name == "tiny"
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ScenarioFormatError) as err:
        load_scenario(str(bad))
    assert "line" in str(err.value)


def test_expression_valued_omega():
    data = _minimal(omega=[[0, "a^2 + 1", 0, 0], ["-a^2 - 1", 0, 1, 0],
                           [0, -1, 0, 1], [0, 0, -1, 0]])
    sc = scenario_from_dict(data)
    w = component_jets(sc.omega, (0.5, 0, 0, 0), 0, sc.coords)[0]
    assert w[0, 1] == 1.25 and w[1, 0] == -1.25


def test_a_scenario_without_checks_runs_them_all():
    sc = scenario_from_dict(_minimal())
    assert sc.checks == tuple({"name": name, **fields} for name, fields in CHECKS.items())
    # rank_theorem's p_max 3 reads structure jets of order 2
    assert sc.jet_order == 2


@pytest.mark.parametrize("check, words", [
    ({"name": "rank_theorem", "p_max": "three"},
     "check 'rank_theorem': p_max must be an integer >= 1, got 'three'"),
    ({"name": "frame", "tolerance": 1e-30}, "check 'frame' takes no field 'tolerance'"),
    ({"name": "rank_theorem", "p_max": 4},
     "check 'rank_theorem', p_max at dim 4: power 4 is beyond the curvature power "
     "cap 3"),
    ({"name": "alternating_identity", "p_max": 3},
     "check 'alternating_identity': p_max 3 needs structure jets of order 5, "
     "beyond the cap 3"),
    ({"name": "alternating_identity", "trials": 10_001},
     "check 'alternating_identity': trials 10001 is beyond the cap 10000"),
], ids=["string_p_max", "unknown_field", "power_cap", "jet_order_cap", "trials_cap"])
def test_load_scenario_refuses_bad_checks(check, words, tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(_minimal(checks=[check])))
    with pytest.raises(ScenarioFormatError) as err:
        load_scenario(str(path))
    assert str(err.value) == words


_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 12) | st.text(max_size=3)
                | st.sampled_from([10 ** 400, math.nan, -math.inf]) | st.floats())


def _rarely(draw, common, rare):
    """A draw of ``common`` most of the time, else of ``rare``."""
    return draw(common if draw(st.integers(0, 7)) else rare)


#: check field values: valid ones and one of each kind a field may not take
_CHECK_VALUES = st.sampled_from([1, 2, 3, 1e-9, 0.5, 0, -1, 2.5, True, False, None, "2",
                                 10 ** 400, math.nan, math.inf]) | _JSON_LEAVES


@st.composite
def _check_lists(draw):
    """Check lists of known and unknown names and fields, whose values are
    of every JSON kind (10**400 and NaN among them); now and then an entry
    is no check object at all."""
    checks = []
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from([*CHECKS, "no_such_check"]))
        keys = st.sampled_from([*CHECKS.get(name, {}), "p_max", "tol", "trials", "tolerance"])
        fields = {draw(keys): draw(_CHECK_VALUES) for _ in range(draw(st.integers(0, 2)))}
        checks.append(_rarely(draw, st.just({"name": name, **fields}), _JSON_LEAVES))
    return checks


def _structure_order(check):
    """The structure jet order a resolved check reads."""
    if check["name"] == "rank_theorem":
        return check["p_max"] - 1
    if check["name"] == "alternating_identity":
        return 2 * check["p_max"] - 1
    return 1


@settings(max_examples=300, deadline=None)
@given(_check_lists())
@example([{"name": "rank_theorem", "p_max": True}])
@example([{"name": "frame", "tol": 1}, {"name": "no_such_check", "tol": 10 ** 400}])
@example([{"name": "alternating_identity", "tol": math.nan, "trials": 2}])
@example([{"name": "rank_theorem", "p_max": 2}, {"name": "alternating_identity"}])
def test_checks_resolve_or_give_one_check_line(checks):
    try:
        sc = scenario_from_dict(_minimal(checks=checks))
    except ScenarioFormatError as err:
        unknown = [c["name"] for c in checks
                   if isinstance(c, dict) and c.get("name") not in CHECKS]
        if unknown and str(err).startswith("unknown check"):
            assert str(err) == f"unknown check {unknown[0]!r} (checks: {', '.join(CHECKS)})"
        else:
            assert str(err).startswith("check ") and "\n" not in str(err)
        return
    given_checks = checks or [{"name": name} for name in CHECKS]
    assert len(sc.checks) == len(given_checks)
    for got, given_check in zip(sc.checks, given_checks):
        assert got == {**CHECKS[given_check["name"]], **given_check}
        assert got.keys() == {"name", *CHECKS[got["name"]]}
        for key, value in got.items():
            if key == "tol":
                assert type(value) is float and 0 < value < math.inf
            elif key in ("p_max", "trials"):
                assert type(value) is int and value >= 1
    assert sc.jet_order == max([1, *map(_structure_order, sc.checks)])
    assert sc.r_power == max([0, *(c["p_max"] for c in sc.checks
                                   if c["name"] in ("rank_theorem", "alternating_identity"))])


def _matrix(draw, dim):
    """A matrix of side ``dim`` as JSON: numbers flat or in rows, now and
    then an entry of any JSON kind, or any JSON value at all."""
    numbers = st.floats(-1e3, 1e3) | st.integers(-5, 5)
    if not (isinstance(dim, int) and 1 <= dim <= 3 and draw(st.integers(0, 3))):
        return draw(st.recursive(_JSON_LEAVES, lambda kids: st.lists(kids, max_size=4),
                                 max_leaves=9))
    flat = [_rarely(draw, numbers, _JSON_LEAVES) for _ in range(dim * dim)]
    return [flat[i:i + dim] for i in range(0, dim * dim, dim)] if draw(st.booleans()) \
        else flat


@st.composite
def _matrix_files(draw):
    """The text of a matrix file: mostly a JSON object with dim, A and H,
    at times without one of them, not an object or not JSON at all."""
    dim = _rarely(draw, st.integers(1, 3), st.integers(-1, 0) | _JSON_LEAVES)
    data = {"dim": dim, "A": _matrix(draw, dim), "H": _matrix(draw, dim)}
    if not draw(st.integers(0, 7)):
        del data[draw(st.sampled_from(sorted(data)))]
    return _rarely(draw, st.just(json.dumps(data)),
                   st.sampled_from([json.dumps([data]), "{", "[1, 2"]))


@settings(max_examples=300, deadline=None)
@given(_matrix_files())
def test_matrix_files_give_finite_pairs_or_one_line(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "matrix.json"
    path.write_text(text)
    try:
        a, h = load_matrix_pair(str(path))
    except ScenarioFormatError as err:
        assert str(err).startswith("cannot read matrix file: ") and "\n" not in str(err)
        return
    dim = json.loads(text)["dim"]
    for m in (a, h):
        assert m.dtype == float and m.shape == (dim, dim) and np.all(np.isfinite(m))
