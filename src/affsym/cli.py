"""Scenario-driven command line front end.

Subcommands:

* ``check-geometry --scenario PATH`` — induced structure, curvature,
  fundamental residuals, operator checks and the rank theorem at every
  sample point of a scenario; emits a JSON report.
* ``oracles [--filter GLOB]`` — seeded draws of the closed-form oracle
  catalog, grouped per family and operator power.
* ``decompose FILE`` — canonical pair, classification and rank for a
  matrix file (JSON with row-major ``A``, ``H`` and ``dim``).
* ``list-oracles`` — the catalog as JSON.

Exit codes: 0 no failures, 1 at least one FAIL record (or WARN under
``--strict``), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import sys
import time

import numpy as np

from . import __version__, canonical, geometry, verify
from .expr import ExprError
from .jets import MAX_JET_ORDER, JetError
from .model import RealBlock
from .scenarios import (ScenarioFormatError, json_dim, load_scenario,
                        scenario_digest)
from .tensor_ops import (K_CAP_GEOMETRIC, TENSOR_ENTRY_CAP, CovariantField,
                         GeometricCurvature, alternating_sum_identity,
                         nabla_powers)

_DEFAULT_CHECKS = (
    {"name": "frame", "tol": 1e-9},
    {"name": "fundamental", "tol": 1e-8},
    {"name": "gauss_model", "tol": 1e-8},
    {"name": "equiaffine", "tol": 1e-9},
    {"name": "codazzi_shape", "tol": 1e-8},
    {"name": "rank_theorem", "p_max": 3, "tol": 1e-8},
    {"name": "alternating_identity", "p_max": 1, "tol": 1e-7, "trials": 50},
)


def _to_jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    return value


def _record(name, status, value=None, tol=None, params=None, wall_ms=0.0):
    return {
        "name": name,
        "status": status,
        "value": _to_jsonable(value),
        "tol": tol,
        "params": _to_jsonable(params or {}),
        "wall_ms": round(wall_ms, 3),
    }


def _emit(report, output):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _finish(records, base, output, strict):
    records.sort(key=lambda r: (r["name"], json.dumps(r["params"], sort_keys=True)))
    counts = {"pass": 0, "fail": 0, "vacuous": 0, "warn": 0}
    for r in records:
        counts[r["status"].lower()] = counts.get(r["status"].lower(), 0) + 1
    base["checks"] = records
    base["summary"] = counts
    base["generated_unix"] = round(time.time(), 3)
    _emit(base, output)
    if counts["fail"] > 0:
        return 1
    if strict and counts["warn"] > 0:
        return 1
    return 0


def _check_field(name, key, value):
    """Raise unless a check's ``p_max`` or ``trials`` is a JSON integer
    >= 1, or its ``tol`` a finite JSON number > 0."""
    if key == "tol":
        ok = isinstance(value, (int, float)) and math.isfinite(value) and value > 0
        want = "a finite number > 0"
    else:
        ok = isinstance(value, int) and value >= 1
        want = "an integer >= 1"
    if isinstance(value, bool) or not ok:
        raise ScenarioFormatError(f"check '{name}': {key} must be {want}, got {value!r}")


def _structure_order(sc, p_max_cli):
    """Structure jet order that every check of ``sc`` fits in.

    Each sample point is solved once at this order.  A check field of the
    wrong type, or a check whose power lies beyond the jet order cap, the
    packed-tensor entry cap or the geometric curvature power cap, or that
    would run on nothing, is rejected here as a scenario error.
    """
    order = 1
    for check in sc.checks or _DEFAULT_CHECKS:
        name = check["name"]
        for key in ("p_max", "trials", "tol"):
            if key in check:
                _check_field(name, key, check[key])
        if name not in ("rank_theorem", "alternating_identity"):
            continue
        p_max = check.get("p_max", p_max_cli)
        if p_max < 1:
            raise ScenarioFormatError(f"check '{name}': p_max must be >= 1, got {p_max}")
        if name == "rank_theorem":
            need = min(p_max, verify.NABLA_RANK_CAP) - 1
            entries = (sc.dim * (sc.dim - 1) // 2) ** (p_max + 1)
            if entries > TENSOR_ENTRY_CAP:
                raise ScenarioFormatError(
                    f"check 'rank_theorem': p_max {p_max} needs packed R^{p_max} "
                    f"omega with {entries} entries at dim {sc.dim}, beyond the "
                    f"cap {TENSOR_ENTRY_CAP}")
            if p_max > K_CAP_GEOMETRIC:
                raise ScenarioFormatError(
                    f"check 'rank_theorem': p_max {p_max} is beyond the "
                    f"curvature power cap {K_CAP_GEOMETRIC}")
        else:
            need = 2 * p_max - 1
        if need + 2 > MAX_JET_ORDER:
            raise ScenarioFormatError(
                f"check '{name}': p_max {p_max} needs structure jets of order "
                f"{need}, beyond the cap {MAX_JET_ORDER - 2}")
        order = max(order, need)
    return order


def _omega_chains(sc, structures):
    """Per sample point, omega and its nabla powers to the deepest one the
    point's solve carries, or None if no check reads them.

    This evaluates omega's jets, so an entry whose derivatives are not
    finite at a sample point raises JetDomainError here, at load.
    """
    checks = sc.checks if sc.checks else _DEFAULT_CHECKS
    if not any(c["name"] in ("rank_theorem", "alternating_identity") for c in checks):
        return [None] * len(structures)
    omega = CovariantField(2, sc.omega, sc.coords)
    return [nabla_powers(omega, sj, sj.order + 1) for sj in structures]


def _geometry_records(sc, structures, chains, seed, tol_cli, p_max_cli):
    """Records of every check at every sample point, from the point's one
    structure solve in ``structures`` (``Scenario.validate``) and its
    omega chain in ``chains`` (``_omega_chains``)."""
    checks = sc.checks if sc.checks else _DEFAULT_CHECKS
    records = []
    for pi, (point, sj, nablas) in enumerate(zip(sc.sample_points, structures, chains)):
        st = geometry.induced_structure(sj)
        curv = geometry.curvature(st)
        res = geometry.fundamental_residuals(st, curv)
        for check in checks:
            name = check["name"]
            tol = float(check.get("tol", tol_cli))
            p_max = check.get("p_max", p_max_cli)
            label = f"{name}@point{pi}"
            t0 = time.perf_counter()
            if name in ("frame", "gauss_model", "codazzi_shape"):
                if name == "frame":
                    value = geometry.frame_residual(sj)
                else:
                    value = res.gauss if name == "gauss_model" else res.codazzi_s
                records.append(_record(label, "PASS" if value < tol else "FAIL",
                                       value, tol, {"point": point},
                                       (time.perf_counter() - t0) * 1e3))
            elif name == "fundamental":
                for part in ("gauss", "codazzi_h", "codazzi_s", "ricci"):
                    value = getattr(res, part)
                    records.append(_record(
                        f"fundamental.{part}@point{pi}",
                        "PASS" if value < tol else "FAIL", value, tol,
                        {"point": point}, (time.perf_counter() - t0) * 1e3))
            elif name == "equiaffine":
                dtau = float(np.max(np.abs(st.dtau)))
                hs = st.h @ st.S
                selfadj = float(np.max(np.abs(hs - hs.T)))
                value = max(dtau, selfadj)
                records.append(_record(label, "PASS" if value < tol else "FAIL",
                                       value, tol,
                                       {"point": point, "dtau": dtau,
                                        "h_selfadjoint": selfadj},
                                       (time.perf_counter() - t0) * 1e3))
            elif name == "rank_theorem":
                v = verify.check_rank_theorem(st, p_max, tol, curv=curv,
                                              nablas=nablas)
                records.append(_record(
                    label, v.verdict, v.max_r_power, tol,
                    {"point": point, "power": v.power, "rank_S": v.rank_s,
                     "max_nabla": v.max_nabla, "final_form": v.final_form},
                    (time.perf_counter() - t0) * 1e3))
            elif name == "alternating_identity":
                trials = check.get("trials", 50)
                rng = np.random.default_rng((seed, 17, pi))
                prov = GeometricCurvature(curv.R)
                worst = 0.0
                for _ in range(trials):
                    pairs = [(int(a), int(b)) for a, b in
                             rng.integers(0, sc.dim, size=(p_max, 2))]
                    ys = [int(v) for v in rng.integers(0, sc.dim, size=2)]
                    lhs, rhs = alternating_sum_identity(
                        nablas[0], nablas[2 * p_max], prov, p_max, pairs, ys)
                    worst = max(worst, abs(lhs - rhs))
                records.append(_record(label, "PASS" if worst < tol else "FAIL",
                                       worst, tol,
                                       {"point": point, "k": p_max,
                                        "trials": trials},
                                       (time.perf_counter() - t0) * 1e3))
            else:
                records.append(_record(label, "WARN", None, tol,
                                       {"reason": f"unknown check '{name}'"},
                                       (time.perf_counter() - t0) * 1e3))
    return records


def cmd_check_geometry(args):
    try:
        sc = load_scenario(args.scenario, validate=False)
        order = _structure_order(sc, args.p_max)
        structures = sc.validate(order)
        chains = _omega_chains(sc, structures)
    except (ScenarioFormatError, geometry.GeometryError, JetError, ExprError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    base = {
        "tool": "affsym",
        "version": __version__,
        "command": "check-geometry",
        "scenario": sc.name,
        "scenario_digest": scenario_digest(args.scenario),
        "master_seed": args.seed,
        "parameters": {"tol": args.tol, "p_max": args.p_max},
    }
    records = _geometry_records(sc, structures, chains, args.seed, args.tol,
                                args.p_max)
    return _finish(records, base, args.output, args.strict)


def cmd_oracles(args):
    if args.trials < 1 or args.p_max < 1:
        print("error: --trials and --p-max must be >= 1", file=sys.stderr)
        return 2
    pattern = args.filter or "*"
    matched = [oid for oid, _ in verify.list_oracles()
               if fnmatch.fnmatch(oid, pattern)]
    if not matched:
        print(f"error: filter {pattern!r} matches no oracle id", file=sys.stderr)
        return 2
    base = {
        "tool": "affsym",
        "version": __version__,
        "command": "oracles",
        "filter": pattern,
        "master_seed": args.seed,
        "parameters": {"draws": args.trials, "p_max": args.p_max},
    }
    records = []
    for oid in matched:
        t0 = time.perf_counter()
        results = verify.run_family(oid, args.trials, seed=args.seed,
                                    p_max=args.p_max)
        by_power = {}
        for r in results:
            by_power.setdefault(verify.power_of(oid, r.params), []).append(r)
        for power in sorted(by_power):
            group = by_power[power]
            worst = max(group, key=lambda r: r.scaled_err)
            status = "PASS" if worst.scaled_err <= verify.ORACLE_RTOL else "FAIL"
            records.append(_record(
                f"{oid}[p={power}]", status, worst.scaled_err, verify.ORACLE_RTOL,
                {"draws": len(group), "worst_abs_err": worst.abs_err,
                 "worst_brute": worst.brute, "worst_closed": worst.closed},
                (time.perf_counter() - t0) * 1e3))
    return _finish(records, base, args.output, args.strict)


def cmd_decompose(args):
    try:
        with open(args.matrix_file) as fh:
            data = json.load(fh)
        dim = json_dim(data)
        a = np.asarray(data["A"], dtype=float).reshape(dim, dim)
        h = np.asarray(data["H"], dtype=float).reshape(dim, dim)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(h))):
            raise ValueError("A and H must have finite entries")
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as err:
        print(f"error: cannot read matrix file: {err}", file=sys.stderr)
        return 2
    base = {
        "tool": "affsym",
        "version": __version__,
        "command": "decompose",
        "matrix_file": args.matrix_file,
        "master_seed": args.seed,
        "parameters": {"tol": args.tol},
    }
    t0 = time.perf_counter()
    try:
        pair = canonical.decompose(a, h, tol=args.tol)
    except canonical.CanonicalError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    wall = (time.perf_counter() - t0) * 1e3
    summary = canonical.classify(pair)
    blocks = []
    for b in pair.blocks:
        if isinstance(b, RealBlock):
            blocks.append({"kind": "real", "size": b.size,
                           "eigenvalue": b.eigenvalue, "sign": b.sign})
        else:
            blocks.append({"kind": "complex", "half_size": b.half_size,
                           "alpha": b.alpha, "beta": b.beta})
    records = [
        _record("decompose", "PASS" if max(pair.residual_jordan,
                                           pair.residual_h) < 1e-6 else "WARN",
                max(pair.residual_jordan, pair.residual_h), 1e-6,
                {"blocks": blocks,
                 "residual_jordan": pair.residual_jordan,
                 "residual_h": pair.residual_h,
                 "warnings": list(pair.warnings)}, wall),
        _record("classify", "PASS", None, None, {
            "counts": [list(c) for c in summary.counts],
            "max_real_size": summary.max_real_size,
            "has_complex": summary.has_complex,
            "admissible_shape": summary.admissible_shape,
            "final_form": summary.final_form,
            "sign_classes": [[lam, size, list(signs)]
                             for lam, size, signs in summary.sign_classes]}),
        _record("rank", "PASS", canonical.rank(a), None, {}),
    ]
    return _finish(records, base, args.output, args.strict)


def cmd_list_oracles(args):
    base = {
        "tool": "affsym",
        "version": __version__,
        "command": "list-oracles",
        "oracles": [{"id": oid, "description": desc}
                    for oid, desc in verify.list_oracles()],
    }
    _emit(base, args.output)
    return 0


def _add_common(p):
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="default residual tolerance (default 1e-8)")
    p.add_argument("--p-max", dest="p_max", type=int, default=3,
                   help="maximum operator power (default 3)")
    p.add_argument("--output", default=None,
                   help="report path (default stdout)")
    p.add_argument("--strict", action="store_true",
                   help="treat WARN records as failures")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="affsym",
        description="Induced affine structure workbench: geometry checks, "
                    "closed-form oracles, canonical pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-geometry", help="run all checks on a scenario")
    p.add_argument("--scenario", required=True,
                   help="scenario file path or builtin name")
    _add_common(p)
    p.set_defaults(func=cmd_check_geometry)

    p = sub.add_parser("oracles", help="run the closed-form oracle catalog")
    p.add_argument("--filter", default=None, help="glob over oracle ids")
    p.add_argument("--trials", type=int, default=100,
                   help="seeded draws per family (default 100)")
    _add_common(p)
    p.set_defaults(func=cmd_oracles, p_max=4)

    p = sub.add_parser("decompose", help="canonical pair of an (A, H) file")
    p.add_argument("matrix_file", help="JSON file with dim, A, H (row-major)")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("list-oracles", help="print the oracle registry")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_list_oracles)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
