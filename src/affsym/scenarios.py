"""The JSON input contract: scenario files, their checks, and matrix files.

Every JSON input a command reads is checked here, and any it refuses is
one ``ScenarioFormatError`` line.  Scenario schema (all keys required
except constraints/checks)::

    {
      "name": str,
      "dim": even int >= 4,
      "coords": [str, ...],                  # dim distinct identifiers
      "immersion": [expr, ...],              # dim+1 expressions
      "transversal": [expr, ...],            # dim+1 expressions
      "omega": [[num-or-expr, ...], ...],    # dim x dim, antisymmetric
      "sample_points": [[num, ...], ...],
      "constraints": [{"name": str, "expr": expr}, ...],   # require expr > 0
      "checks": [{"name": str, "p_max": int, "tol": num, "trials": int}, ...]
    }

Expressions use the calculus grammar over the declared coordinates.
Loading resolves the checks of check-geometry (``CHECKS``, all of them if
none is given) into ``Scenario.checks``, each field omitted taking its
``CHECKS`` value, and their structure jet order into ``Scenario.jet_order``;
a check of unknown name is kept as given.  ``Scenario.validate`` checks
the sample points.  A ``decompose`` matrix file (``load_matrix_pair``)
holds an integer ``dim`` >= 1 and ``A`` and ``H``, each dim x dim finite
JSON numbers, flat row-major or in rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from importlib import resources

import numpy as np

from .expr import ExprError, is_identifier, parse_expr
from .geometry import Scenario
from .jets import MAX_JET_ORDER, repeated_coordinate
from .tensor_ops import GeometricCurvature, RecursionCapError, check_packed_power

BUILTIN_NAMES = ("paper_example_n2", "paper_example_n3", "paraboloid",
                 "centroaffine_sphere")

#: the checks of check-geometry in run order, each with the values that the
#: fields a scenario check omits take; a scenario without checks runs them all
CHECKS = {
    "frame": {"tol": 1e-9},
    "fundamental": {"tol": 1e-8},
    "gauss_model": {"tol": 1e-8},
    "equiaffine": {"tol": 1e-9},
    "codazzi_shape": {"tol": 1e-8},
    "rank_theorem": {"p_max": 3, "tol": 1e-8},
    "alternating_identity": {"p_max": 1, "tol": 1e-7, "trials": 50},
}

#: most trials an alternating_identity check (200 times its default) or
#: ``oracles --trials`` (100 times its default) may ask for
TRIALS_CAP = 10_000


class ScenarioFormatError(ValueError):
    pass


# a decoded JSON integer or number; Python's bool is an int, JSON's is not
def _json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: the numeric check fields in the order they are checked, each with its
#: test and the wording of its error
_COUNT = (lambda v: _json_int(v) and v >= 1, "an integer >= 1")
_CHECK_FIELDS = {"p_max": _COUNT, "trials": _COUNT,
                 "tol": (lambda v: _json_number(v) and 0 < v <= sys.float_info.max,
                         "a finite number > 0")}


def _parse_field(source, coords, where):
    try:
        return parse_expr(str(source), coords)
    except ExprError as err:
        raise ScenarioFormatError(f"in {where}: {err}") from err


def json_dim(data) -> int:
    """The ``dim`` of a decoded JSON object; it must be a JSON integer."""
    if not isinstance(data, dict):
        raise ScenarioFormatError(
            f"expected a JSON object at the top level, got {type(data).__name__}")
    dim = data["dim"]
    if not _json_int(dim):
        raise ScenarioFormatError(f"dim must be a JSON integer, got {dim!r}")
    return dim


def _json_list(data, key, default=None) -> list:
    """``data[key]``, which must be a JSON list; ``default`` stands in for
    an optional key that is absent."""
    value = data[key] if default is None else data.get(key, default)
    if not isinstance(value, list):
        raise ScenarioFormatError(f"{key} must be a JSON list, got {value!r}")
    return value


def _to_float(value, where) -> float:
    """A JSON number as a float; an integer beyond the double range is a
    format error, not an OverflowError."""
    try:
        return float(value)
    except OverflowError:
        raise ScenarioFormatError(f"{where} is too large for a double") from None


def _sample_points(raw) -> tuple:
    """Sample points as float tuples; every coordinate must be a JSON number."""
    if not isinstance(raw, list) or not all(isinstance(p, list) for p in raw):
        raise ScenarioFormatError("sample_points must be a list of coordinate lists")
    for p in raw:
        for v in p:
            if not _json_number(v):
                raise ScenarioFormatError(
                    f"sample point {p} has a non-numeric coordinate {v!r}")
    return tuple(tuple(_to_float(v, f"a coordinate of sample point {i}") for v in p)
                 for i, p in enumerate(raw))


def scenario_from_dict(data: dict) -> Scenario:
    try:
        dim = json_dim(data)
        name = str(data["name"])
        coords = tuple(str(c) for c in _json_list(data, "coords"))
        imm_src = _json_list(data, "immersion")
        trans_src = _json_list(data, "transversal")
        omega_src = data["omega"]
        points = _sample_points(data["sample_points"])
        constraint_src = _json_list(data, "constraints", [])
        check_src = _json_list(data, "checks", [])
    except KeyError as err:
        raise ScenarioFormatError(f"missing scenario key {err}") from err
    if dim % 2 != 0 or dim < 4:
        raise ScenarioFormatError(f"dim must be an even integer >= 4, got {dim}")
    if len(coords) != dim:
        raise ScenarioFormatError(f"expected {dim} coords, got {len(coords)}")
    for i, c in enumerate(coords):
        if not is_identifier(c):
            raise ScenarioFormatError(f"coords[{i}] {c!r} is not an identifier")
    i = repeated_coordinate(coords)
    if i is not None:
        raise ScenarioFormatError(
            f"coords[{i}] {coords[i]!r} repeats coords[{coords.index(coords[i])}]")
    if len(imm_src) != dim + 1:
        raise ScenarioFormatError(
            f"expected {dim + 1} immersion components, got {len(imm_src)}")
    if len(trans_src) != dim + 1:
        raise ScenarioFormatError(
            f"expected {dim + 1} transversal components, got {len(trans_src)}")
    if not isinstance(omega_src, list) or len(omega_src) != dim or any(
            not isinstance(row, list) or len(row) != dim for row in omega_src):
        raise ScenarioFormatError("omega must be a dim x dim matrix")
    for p in points:
        if len(p) != dim:
            raise ScenarioFormatError(f"sample point {p} has wrong dimension")
        if not np.all(np.isfinite(p)):
            raise ScenarioFormatError(f"sample point {p} is not finite")

    immersion = tuple(_parse_field(s, coords, f"immersion[{i}]")
                      for i, s in enumerate(imm_src))
    transversal = tuple(_parse_field(s, coords, f"transversal[{i}]")
                        for i, s in enumerate(trans_src))
    omega = np.empty((dim, dim), dtype=object)
    for i in range(dim):
        for j in range(dim):
            v = omega_src[i][j]
            if isinstance(v, bool):
                raise ScenarioFormatError(
                    f"omega[{i}][{j}] must be a number or an expression, got {v!r}")
            omega[i, j] = _to_float(v, f"omega[{i}][{j}]") if _json_number(v) \
                else _parse_field(v, coords, f"omega[{i}][{j}]")
            if isinstance(omega[i, j], float) and not np.isfinite(omega[i, j]):
                raise ScenarioFormatError(f"omega[{i}][{j}] is not finite")
    for c in constraint_src:
        if not isinstance(c, dict) or not {"name", "expr"} <= c.keys():
            raise ScenarioFormatError(f"constraint {c!r} needs keys 'name' and 'expr'")
    constraints = tuple(
        (str(c["name"]), _parse_field(c["expr"], coords, f"constraint '{c['name']}'"))
        for c in constraint_src)

    for c in check_src:
        if not isinstance(c, dict) or not isinstance(c.get("name"), str):
            raise ScenarioFormatError(
                f"check {c!r} needs a key 'name' with a string value")
    # each check with the CHECKS values of the fields it omits, and the
    # structure jet order all of them fit in: each point is solved once
    checks, jet_order = [], 1
    for c in check_src or [{"name": key} for key in CHECKS]:
        kind = c["name"]
        unread = sorted(set(c) - {"name", *CHECKS[kind]}) if kind in CHECKS else []
        if unread:
            raise ScenarioFormatError(f"check '{kind}' takes no field '{unread[0]}'")
        for key, (ok, want) in _CHECK_FIELDS.items():
            if key in c and not ok(c[key]):
                raise ScenarioFormatError(
                    f"check '{kind}': {key} must be {want}, got {c[key]!r}")
        check = {**CHECKS.get(kind, {}), **c}
        if "tol" in check:
            check["tol"] = float(check["tol"])
        checks.append(check)
        if kind not in ("rank_theorem", "alternating_identity"):
            continue
        # both read the packed R^p_max omega of each point
        p_max = check["p_max"]
        try:
            check_packed_power(GeometricCurvature, dim, 1, p_max)
        except RecursionCapError as err:
            raise ScenarioFormatError(f"check '{kind}', p_max at dim {dim}: {err}") from None
        if kind == "alternating_identity" and check["trials"] > TRIALS_CAP:
            raise ScenarioFormatError(
                f"check 'alternating_identity': trials {check['trials']} is "
                f"beyond the cap {TRIALS_CAP}")
        need = p_max - 1 if kind == "rank_theorem" else 2 * p_max - 1
        if need + 2 > MAX_JET_ORDER:
            raise ScenarioFormatError(
                f"check '{kind}': p_max {p_max} needs structure jets of order "
                f"{need}, beyond the cap {MAX_JET_ORDER - 2}")
        jet_order = max(jet_order, need)

    return Scenario(name, dim, coords, immersion, transversal, omega,
                    points, constraints, tuple(checks), jet_order)


def _scenario_bytes(path_or_name: str) -> bytes:
    """The bytes of a scenario file, given by path or by shipped-gallery name."""
    if os.path.exists(path_or_name):
        try:
            with open(path_or_name, "rb") as fh:
                return fh.read()
        except OSError as err:
            # a directory, or a file this process may not read
            raise ScenarioFormatError(
                f"cannot read scenario file {path_or_name!r}: {err.strerror or err}") from err
    if path_or_name in BUILTIN_NAMES:
        return resources.files("affsym").joinpath(
            "data", f"{path_or_name}.json").read_bytes()
    raise ScenarioFormatError(
        f"no such scenario file or builtin name: {path_or_name!r} "
        f"(builtins: {', '.join(BUILTIN_NAMES)})")


def load_scenario(path_or_name: str) -> Scenario:
    """Parse a scenario from a file path or by shipped-gallery name; its
    ``digest`` is the sha256 of the bytes parsed."""
    raw = _scenario_bytes(path_or_name)
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ScenarioFormatError(
            f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}") from err
    except ValueError as err:
        # an integer literal beyond the interpreter's digit limit, or bytes
        # that are not UTF-8
        raise ScenarioFormatError(f"unreadable JSON: {err}") from err
    return dataclasses.replace(scenario_from_dict(data),
                               digest=hashlib.sha256(raw).hexdigest())


def load_matrix_pair(path: str) -> tuple:
    """The (A, H) float matrices of a ``decompose`` matrix file.  Any misfit,
    an entry that is no JSON number (a string, a boolean, an object) among
    them, is a ScenarioFormatError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        dim = json_dim(data)
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        pair = []
        for key in ("A", "H"):
            entries = np.asarray(data[key], dtype=object)
            for x in entries.flat:
                if not _json_number(x):
                    raise ValueError(f"{key} must hold JSON numbers, got {x!r}")
            pair.append(entries.astype(float).reshape(dim, dim))
        if not all(np.all(np.isfinite(m)) for m in pair):
            raise ValueError("A and H must have finite entries")
    except (OSError, KeyError, ValueError, OverflowError) as err:
        raise ScenarioFormatError(f"cannot read matrix file: {err}") from None
    return tuple(pair)
