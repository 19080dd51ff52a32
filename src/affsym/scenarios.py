"""Scenario files: JSON schema, loading, and the shipped gallery.

Schema (all keys required except constraints/checks; every check field
but ``name`` is optional, and a known check given a field it does not
take, one outside its entry in ``cli.CHECKS``, exits 2)::

    {
      "name": str,
      "dim": even int >= 4,
      "coords": [str, ...],                  # dim entries
      "immersion": [expr, ...],              # dim+1 expressions
      "transversal": [expr, ...],            # dim+1 expressions
      "omega": [[num-or-expr, ...], ...],    # dim x dim, antisymmetric
      "sample_points": [[num, ...], ...],
      "constraints": [{"name": str, "expr": expr}, ...],   # require expr > 0
      "checks": [{"name": str, "p_max": int, "tol": num, "trials": int}, ...]
    }

Expressions use the calculus grammar over the declared coordinates.
Loading only parses: ``Scenario.validate`` checks the sample points.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from importlib import resources

import numpy as np

from .expr import ExprError, parse_expr
from .geometry import Scenario

BUILTIN_NAMES = ("paper_example_n2", "paper_example_n3", "paraboloid",
                 "centroaffine_sphere")


class ScenarioFormatError(ValueError):
    pass


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
    if isinstance(dim, bool) or not isinstance(dim, int):
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
            if isinstance(v, bool) or not isinstance(v, (int, float)):
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
            omega[i, j] = _to_float(v, f"omega[{i}][{j}]") \
                if isinstance(v, (int, float)) \
                else _parse_field(v, coords, f"omega[{i}][{j}]")
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
    checks = tuple(dict(c) for c in check_src)

    return Scenario(name, dim, coords, immersion, transversal, omega,
                    points, constraints, checks)


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
