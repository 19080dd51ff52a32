import json

import numpy as np
import pytest

from affsym.geometry import ConstraintError, GeometryError
from affsym.jets import component_jets
from affsym.scenarios import (BUILTIN_NAMES, ScenarioFormatError, load_scenario,
                              scenario_from_dict)


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
    (lambda d: d["transversal"].pop(0), "expected 5 transversal components, got 4")],
    ids=["no_omega", "flat_sample_points", "short_transversal"])
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
