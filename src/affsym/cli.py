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
import dataclasses
import fnmatch
import functools
import json
import operator
import sys
import time

import numpy as np

from . import __version__, canonical, geometry, verify
from .expr import ExprError
from .jets import MAX_JET_ORDER, JetError, component_jets
from .model import RealBlock
from .scenarios import ScenarioFormatError, json_dim, load_scenario
from .tensor_ops import (K_CAP_ALGEBRAIC, GeometricCurvature, RecursionCapError,
                         alternating_sum_identity, check_packed_power,
                         nabla_powers)

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

#: json.dumps ``default``: numpy scalars and arrays print as plain numbers and lists
_TOLIST = operator.methodcaller("tolist")


class UsageError(ValueError):
    """A flag value or an input file that a command refuses."""


#: the errors that ``main`` reports as one ``error:`` line and exit 2
INPUT_ERRORS = (UsageError, ScenarioFormatError, geometry.GeometryError, JetError,
                ExprError, verify.OracleError, canonical.CanonicalError)


def _header(command, **fields):
    return {"tool": "affsym", "version": __version__, "command": command, **fields}


def _record(name, status, value=None, tol=None, params=None, wall_ms=0.0):
    return {
        "name": name,
        "status": status,
        "value": value,
        "tol": tol,
        "params": params or {},
        "wall_ms": round(wall_ms, 3),
    }


def _emit(report, output):
    text = json.dumps(report, indent=2, sort_keys=True, default=_TOLIST) + "\n"
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _finish(records, base, output, strict):
    records.sort(key=lambda r: (r["name"],
                                json.dumps(r["params"], sort_keys=True, default=_TOLIST)))
    counts = {"pass": 0, "fail": 0, "vacuous": 0, "warn": 0}
    for r in records:
        counts[r["status"].lower()] = counts.get(r["status"].lower(), 0) + 1
    base["checks"] = records
    base["summary"] = counts
    base["generated_unix"] = round(time.time(), 3)
    _emit(base, output)
    return 1 if counts["fail"] or (strict and counts["warn"]) else 0


def _check_field(name, key, value):
    """Raise unless a check's ``p_max`` or ``trials`` is a JSON integer
    >= 1, or its ``tol`` a JSON number > 0 within the double range."""
    if key == "tol":
        ok = isinstance(value, (int, float)) and 0 < value <= sys.float_info.max
        want = "a finite number > 0"
    else:
        ok = isinstance(value, int) and value >= 1
        want = "an integer >= 1"
    if isinstance(value, bool) or not ok:
        raise ScenarioFormatError(f"check '{name}': {key} must be {want}, got {value!r}")


def _resolve_checks(sc):
    """The checks of ``sc``, each with the ``CHECKS`` values of the fields
    it omits, and the structure jet order that all of them fit in.

    Each sample point is solved once at this order.  A field that a known
    check does not take (one outside its ``CHECKS`` entry), a check field
    of the wrong type, a rank_theorem power that ``check_packed_power`` refuses
    for the geometric curvature, a power beyond the jet order cap and
    alternating_identity trials beyond TRIALS_CAP are rejected here as
    scenario errors.
    """
    checks, order = [], 1
    for check in sc.checks or [{"name": name} for name in CHECKS]:
        name = check["name"]
        unread = sorted(set(check) - {"name", *CHECKS[name]}) if name in CHECKS else []
        if unread:
            raise ScenarioFormatError(f"check '{name}' takes no field '{unread[0]}'")
        for key in ("p_max", "trials", "tol"):
            if key in check:
                _check_field(name, key, check[key])
        check = {**CHECKS.get(name, {}), **check}
        if "tol" in check:
            check["tol"] = float(check["tol"])
        checks.append(check)
        p_max = check.get("p_max")
        if name == "rank_theorem":
            try:
                check_packed_power(GeometricCurvature, sc.dim, 1, p_max)
            except RecursionCapError as err:
                raise ScenarioFormatError(
                    f"check 'rank_theorem', p_max at dim {sc.dim}: {err}") from None
            need = p_max - 1
        elif name == "alternating_identity":
            if check["trials"] > TRIALS_CAP:
                raise ScenarioFormatError(
                    f"check 'alternating_identity': trials {check['trials']} is "
                    f"beyond the cap {TRIALS_CAP}")
            need = 2 * p_max - 1
        else:
            continue
        if need + 2 > MAX_JET_ORDER:
            raise ScenarioFormatError(
                f"check '{name}': p_max {p_max} needs structure jets of order "
                f"{need}, beyond the cap {MAX_JET_ORDER - 2}")
        order = max(order, need)
    return checks, order


def _identity_trials(rng, dim, p_max, trials):
    """The (pairs, ys) arguments of each alternating-identity trial: p_max
    index pairs, then two indices, all below ``dim``.  One draw of a
    (trials, 2 p_max + 2) block gives the same integers, and leaves ``rng``
    in the same state, as drawing the pairs and then the ys per trial:
    numpy's bounded int64 draws take the bit generator's values one by one
    either way."""
    rows = rng.integers(0, dim, size=(trials, 2 * p_max + 2)).tolist()
    return [(list(zip(r[0:2 * p_max:2], r[1:2 * p_max:2])), r[2 * p_max:])
            for r in rows]


def _geometry_records(sc, checks, structures, seed):
    """Records of every resolved check (``_resolve_checks``) at every
    sample point, from the point's one structure solve in ``structures``
    (``Scenario.validate``).

    Each check yields (name, value, params) rows, PASS below its ``tol`` and
    FAIL otherwise unless the check sets its own verdict.  Where a check
    reads omega's nabla chain, omega's jets and the chain are built here,
    once per point, so an omega entry whose derivatives are not finite at
    a sample point raises JetDomainError in this loop.
    """
    with_chain = any(c["name"] in ("rank_theorem", "alternating_identity")
                     for c in checks)
    records = []
    for pi, (point, sj) in enumerate(zip(sc.sample_points, structures)):
        k = sj.order + 1
        nablas = (nabla_powers(component_jets(sc.omega, point, k, sc.coords), sj, k)
                  if with_chain else None)
        prov = GeometricCurvature(geometry.curvature(sj))
        res = geometry.fundamental_residuals(sj, prov.R)
        for check in checks:
            name, tol, p_max = check["name"], check.get("tol"), check.get("p_max")
            label = f"{name}@point{pi}"
            t0 = time.perf_counter()
            status = None
            if name == "frame":
                rows = [(label, geometry.frame_residual(sj), {"point": point})]
            elif name in ("gauss_model", "codazzi_shape"):
                value = res.gauss if name == "gauss_model" else res.codazzi_s
                rows = [(label, value, {"point": point})]
            elif name == "fundamental":
                rows = [(f"fundamental.{part}@point{pi}", getattr(res, part),
                         {"point": point})
                        for part in ("gauss", "codazzi_h", "codazzi_s", "ricci")]
            elif name == "equiaffine":
                rows = [(label, max(res.dtau, res.h_selfadjoint),
                         {"point": point, "dtau": res.dtau,
                          "h_selfadjoint": res.h_selfadjoint})]
            elif name == "rank_theorem":
                v = verify.check_rank_theorem(prov, sj.S[0], sj.h[0], nablas, p_max, tol)
                params = {"point": point, "power": v.power, "rank_S": v.rank_s,
                          "max_nabla": v.max_nabla, "final_form": v.final_form}
                if v.reason is not None:
                    params["reason"] = v.reason
                status, rows = v.verdict, [(label, v.max_r_power, params)]
            elif name == "alternating_identity":
                trials = check["trials"]
                rng = np.random.default_rng((seed, 17, pi))
                worst = 0.0
                for pairs, ys in _identity_trials(rng, sc.dim, p_max, trials):
                    lhs, rhs = alternating_sum_identity(
                        nablas[0], nablas[2 * p_max], prov, p_max, pairs, ys)
                    worst = max(worst, abs(lhs - rhs))
                rows = [(label, worst, {"point": point, "k": p_max, "trials": trials})]
            else:
                status = "WARN"
                rows = [(label, None, {"reason": f"unknown check '{name}'"})]
            wall_ms = (time.perf_counter() - t0) * 1e3
            records.extend(
                _record(row, status or ("PASS" if value < tol else "FAIL"),
                        value, tol, params, wall_ms)
                for row, value, params in rows)
    return records


def cmd_check_geometry(args):
    sc = load_scenario(args.scenario)
    if not sc.sample_points:
        raise UsageError(f"scenario {sc.name!r} has no sample points to check")
    checks, order = _resolve_checks(sc)
    structures = sc.validate(order)
    base = _header("check-geometry", scenario=sc.name,
                   scenario_digest=sc.digest,
                   master_seed=args.seed)
    records = _geometry_records(sc, checks, structures, args.seed)
    return _finish(records, base, args.output, args.strict)


def cmd_oracles(args):
    if args.trials < 1 or args.p_max < 1:
        raise UsageError("--trials and --p-max must be >= 1")
    if args.trials > TRIALS_CAP:
        raise UsageError(f"--trials {args.trials} is beyond the cap {TRIALS_CAP}")
    if args.p_max > K_CAP_ALGEBRAIC:
        raise UsageError(f"--p-max {args.p_max} is beyond the curvature power cap "
                         f"{K_CAP_ALGEBRAIC}")
    pattern = args.filter or "*"
    matched = [oid for oid, _ in verify.list_oracles()
               if fnmatch.fnmatch(oid, pattern)]
    if not matched:
        raise UsageError(f"filter {pattern!r} matches no oracle id")
    base = _header("oracles", filter=pattern, master_seed=args.seed,
                   parameters={"draws": args.trials, "p_max": args.p_max})
    records = []
    for oid in matched:
        t0 = time.perf_counter()
        results = verify.run_family(oid, args.trials, seed=args.seed, p_max=args.p_max)
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


def _read_matrix(data, key, dim):
    """``data[key]``, dim x dim JSON numbers (flat or in rows), as a float
    matrix; an entry that is no JSON number (a string, a boolean, an object)
    is a ValueError like any other misfit."""
    entries = np.asarray(data[key], dtype=object)
    for x in entries.flat:
        if type(x) not in (int, float):
            raise ValueError(f"{key} must hold JSON numbers, got {x!r}")
    return entries.astype(float).reshape(dim, dim)


def cmd_decompose(args):
    if not 0 < args.tol <= sys.float_info.max:
        raise UsageError(f"--tol must be a finite number > 0, got {args.tol}")
    try:
        with open(args.matrix_file) as fh:
            data = json.load(fh)
        dim = json_dim(data)
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        a, h = _read_matrix(data, "A", dim), _read_matrix(data, "H", dim)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(h))):
            raise ValueError("A and H must have finite entries")
    except (OSError, KeyError, ValueError, OverflowError) as err:
        raise UsageError(f"cannot read matrix file: {err}") from None
    base = _header("decompose", matrix_file=args.matrix_file,
                   parameters={"tol": args.tol})
    t0 = time.perf_counter()
    pair = canonical.decompose(a, h, tol=args.tol)
    wall = (time.perf_counter() - t0) * 1e3
    summary = canonical.classify(pair)
    blocks = [{"kind": "real" if isinstance(b, RealBlock) else "complex",
               **dataclasses.asdict(b)} for b in pair.blocks]
    residual = max(pair.residual_jordan, pair.residual_h)
    records = [
        _record("decompose", "PASS" if residual < 1e-6 else "WARN", residual, 1e-6,
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
    _emit(_header("list-oracles", oracles=[{"id": oid, "description": desc}
                                           for oid, desc in verify.list_oracles()]),
          args.output)
    return 0


def _add_seed(p):
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")


def _add_report(p):
    p.add_argument("--output", default=None,
                   help="report path (default stdout)")
    p.add_argument("--strict", action="store_true",
                   help="treat WARN records as failures")


@functools.cache
def _parser():
    """The command line parser, built on first use and kept for the process:
    each parse gets a fresh namespace, so no flag value outlives its call."""
    parser = argparse.ArgumentParser(
        prog="affsym",
        description="Induced affine structure workbench: geometry checks, "
                    "closed-form oracles, canonical pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-geometry", help="run all checks on a scenario")
    p.add_argument("--scenario", required=True,
                   help="scenario file path or builtin name")
    _add_seed(p)
    _add_report(p)
    p.set_defaults(func=cmd_check_geometry)

    p = sub.add_parser("oracles", help="run the closed-form oracle catalog")
    p.add_argument("--filter", default=None, help="glob over oracle ids")
    p.add_argument("--trials", type=int, default=100,
                   help=f"seeded draws per family (default 100, at most {TRIALS_CAP})")
    _add_seed(p)
    p.add_argument("--p-max", dest="p_max", type=int, default=4,
                   help="maximum operator power (default 4)")
    _add_report(p)
    p.set_defaults(func=cmd_oracles)

    p = sub.add_parser("decompose", help="canonical pair of an (A, H) file")
    p.add_argument("matrix_file", help="JSON file with dim, A, H (row-major)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="H-selfadjointness tolerance (default 1e-8)")
    _add_report(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("list-oracles", help="print the oracle registry")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_list_oracles)
    return parser


def main(argv=None):
    """Run one subcommand; every input it refuses (an ``INPUT_ERRORS``
    exception from any command) ends here in one ``error:`` line on stderr
    and exit code 2."""
    args = _parser().parse_args(argv)
    try:
        # numpy's seeded generators take only seeds >= 0
        if getattr(args, "seed", 0) < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except INPUT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
