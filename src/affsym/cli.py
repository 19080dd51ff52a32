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
import functools
import json
import operator
import sys
import time
from collections import Counter

import numpy as np

from . import __version__, canonical, geometry, verify
from .expr import ExprError
from .jets import JetError
from .model import RealBlock
from .scenarios import TRIALS_CAP, ScenarioFormatError, load_matrix_pair, load_scenario
from .tensor_ops import (K_CAP_ALGEBRAIC, GeometricCurvature, alternating_sum_identity,
                         nabla_powers, pack_two_form, r_power_levels)

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
    """Write the report to stdout or to the ``--output`` path; a path that
    cannot be written is a UsageError."""
    text = json.dumps(report, indent=2, sort_keys=True, default=_TOLIST,
                      allow_nan=False) + "\n"
    if output in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise UsageError(f"cannot write report {output!r}: {err.strerror or err}") from None


def _finish(records, base, output, strict):
    # by name, and by the params' JSON only where a name repeats
    names = Counter(r["name"] for r in records)
    records.sort(key=lambda r: (r["name"], "" if names[r["name"]] == 1 else
                                json.dumps(r["params"], sort_keys=True, default=_TOLIST)))
    counts = {"pass": 0, "fail": 0, "vacuous": 0, "warn": 0}
    for r in records:
        counts[r["status"].lower()] = counts.get(r["status"].lower(), 0) + 1
    base["checks"] = records
    base["summary"] = counts
    base["generated_unix"] = round(time.time(), 3)
    _emit(base, output)
    return 1 if counts["fail"] or (strict and counts["warn"]) else 0


def _identity_trials(rng, dim, p_max, trials):
    """The arguments of the alternating-identity trials, all below ``dim``:
    index pairs of shape (trials, p_max, 2) and the last two indices of
    shape (trials, 2).  One draw of a (trials, 2 p_max + 2) block gives the
    same integers, and leaves ``rng`` in the same state, as drawing the
    pairs and then the ys per trial: numpy's bounded int64 draws take the
    bit generator's values one by one either way."""
    rows = rng.integers(0, dim, size=(trials, 2 * p_max + 2))
    return rows[:, :2 * p_max].reshape(trials, p_max, 2), rows[:, 2 * p_max:]


def _require_finite(point, nablas, levels, res):
    """GeometryError naming the sample point and the first nabla^q omega,
    R^q omega or residual there that is not finite: a value past the double
    range shows nothing about any check."""
    named = [(f"nabla^{q} omega", v) for q, v in enumerate(nablas)]
    named += [(f"R^{q} omega", v) for q, v in enumerate(levels, start=1)]
    named += [(f"residual {name}", v) for name, v in vars(res).items()]
    for what, value in named:
        if not np.isfinite(value).all():
            raise geometry.GeometryError(f"{what} is not finite at sample point {tuple(point)}")


def _geometry_records(sc, structures, seed):
    """Records of every check of ``sc`` at every sample point, from the
    point's one structure solve and omega jets in ``structures``
    (``Scenario.validate``).

    Each check yields (name, value, params) rows, PASS below its ``tol`` and
    FAIL otherwise unless the check sets its own verdict.  Each point steps
    one packed R^q omega ladder, to ``sc.r_power``.
    """
    records = []
    for pi, (point, (sj, omega)) in enumerate(zip(sc.sample_points, structures)):
        # a value past the double range is refused below, so it does not warn
        with np.errstate(over="ignore", invalid="ignore"):
            nablas = nabla_powers(omega, sj, sj.order + 1)
            prov = GeometricCurvature(geometry.curvature(sj))
            levels = list(r_power_levels(prov, pack_two_form(nablas[0], sc.dim), sc.r_power))
            res = geometry.fundamental_residuals(sj, prov.R)
        _require_finite(point, nablas, levels, res)
        for check in sc.checks:
            name, tol, p_max = check["name"], check["tol"], check.get("p_max")
            label = f"{name}@point{pi}"
            t0 = time.perf_counter()
            status = None
            if name == "frame":
                rows = [(label, geometry.frame_residual(sj),
                         {"point": point, "cond": sj.cond, "jet_order": sj.order})]
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
                v = verify.check_rank_theorem(levels[:p_max], sj.S[0], sj.h[0], nablas, tol)
                params = {"point": point, "power": v.power, "rank_S": v.rank_s,
                          "max_nabla": v.max_nabla, "final_form": v.final_form}
                if v.reason is not None:
                    params["reason"] = v.reason
                status, rows = v.verdict, [(label, v.max_r_power, params)]
            else:    # alternating_identity
                trials = check["trials"]
                rng = np.random.default_rng((seed, 17, pi))
                lhs, rhs = alternating_sum_identity(levels[p_max - 1], nablas[2 * p_max], p_max,
                                                    *_identity_trials(rng, sc.dim, p_max, trials))
                worst = float(np.max(np.abs(lhs - rhs)))
                tol = verify.vanishing_bound(tol, 0, sj.S[0], sj.h[0], nablas[0])
                rows = [(label, worst, {"point": point, "k": p_max, "trials": trials})]
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
    base = _header("check-geometry", scenario=sc.name, scenario_digest=sc.digest,
                   master_seed=args.seed)
    records = _geometry_records(sc, sc.validate(sc.jet_order), args.seed)
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
        by_power = {}
        for r in verify.run_family(oid, args.trials, seed=args.seed, p_max=args.p_max):
            by_power.setdefault(r.power, []).append(r)
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
    if not 0 < args.tol <= sys.float_info.max:
        raise UsageError(f"--tol must be a finite number > 0, got {args.tol}")
    a, h = load_matrix_pair(args.matrix_file)
    base = _header("decompose", matrix_file=args.matrix_file, parameters={"tol": args.tol})
    t0 = time.perf_counter()
    pair = canonical.decompose(a, h, tol=args.tol)
    wall = (time.perf_counter() - t0) * 1e3
    # vars, here and for classify, not dataclasses.asdict, which deep-copies
    # every leaf at many times the cost; json.dumps writes tuples as lists
    blocks = [{"kind": "real" if isinstance(b, RealBlock) else "complex", **vars(b)}
              for b in pair.blocks]
    residual = max(pair.residual_jordan, pair.residual_h)
    records = [
        _record("decompose", "PASS" if residual < canonical.RESIDUAL_MAX else "WARN",
                residual, canonical.RESIDUAL_MAX,
                {"blocks": blocks,
                 "residual_jordan": pair.residual_jordan,
                 "residual_h": pair.residual_h,
                 "threshold_step": pair.threshold_step,
                 "warnings": list(pair.warnings)}, wall),
        _record("classify", "PASS", None, None, vars(canonical.classify(pair))),
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
