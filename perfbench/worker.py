"""One workload process: set up, then measure or trace.

    python3 perfbench/worker.py MANIFEST {setup,measure,trace} SECONDS

Set-up imports affsym and runs the workload's warm-up ops, which fill lazy
caches; then the worker prints ``ready``.  ``setup`` exits there.
``measure`` runs whole passes, at least the workload's ``min_passes``,
until the ops have taken SECONDS, and prints the op latencies and the
reference timings (see speed.py) made between them.  ``trace`` runs
pass 0 three times (untraced, traced, traced under cProfile) and prints
per-layer metrics and the tracer self-check.
The last line of output is one JSON object.
"""

from __future__ import annotations

import cProfile
import json
import os
import resource
import sys
import time

sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

import speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, pass_ops  # noqa: E402


def run_op(workload, op):
    """Time one op; returns (seconds, error text or None)."""
    t0 = time.perf_counter()
    try:
        out = workload.call(op)
    except Exception as err:
        return time.perf_counter() - t0, f"{op}: {err!r}"
    took = time.perf_counter() - t0
    try:
        workload.check(op, out)
    except Exception as err:
        return took, f"{op}: {err}"
    return took, None


def run_pass(workload, ops, tracer=None):
    """Run ops in order; returns (wall seconds, latencies, errors)."""
    latencies, errors = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        took, err = run_op(workload, op)
        latencies.append(took)
        if err is not None:
            errors.append(err)
    return time.perf_counter() - start, latencies, errors


def measure(workload, manifest, seconds):
    """Whole passes, at least ``min_passes``, until SECONDS of op time.
    Per op: its start, its latency and its cycle (latency plus check); and
    the reference timings made between ops."""
    start, latency, cycle, errors = [], [], [], []
    ref_at, ref_s = [], []
    busy, passes = 0.0, 0
    while passes < workload.min_passes or busy < seconds:
        for op in pass_ops(workload, manifest["inputs"], manifest["seed"], passes):
            if not ref_at or time.perf_counter() - ref_at[-1] >= speed.EVERY_S:
                ref_at.append(time.perf_counter())
                ref_s.append(speed.reference())
            t0 = time.perf_counter()
            took, err = run_op(workload, op)
            start.append(t0)
            latency.append(took)
            cycle.append(time.perf_counter() - t0)
            busy += cycle[-1]
            if err is not None:
                errors.append(err)
        passes += 1
    ref_at.append(time.perf_counter())
    ref_s.append(speed.reference())
    return {"passes": passes, "start_s": start, "latency_s": latency,
            "cycle_s": cycle, "ref_at_s": ref_at, "ref_s": ref_s,
            "failed": len(errors), "errors": errors[:5],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def _profiled_calls(prof, tracer):
    """cProfile's ncalls of each traced function's original code."""
    prof.create_stats()
    out = []
    for fn in tracer.originals:
        if fn is None:
            out.append(0)
            continue
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        out.append(prof.stats.get(key, (0, 0))[1])
    return out


def trace(workload, manifest):
    ops = pass_ops(workload, manifest["inputs"], manifest["seed"], 0)
    plain_s, _, errors = run_pass(workload, ops)
    with Tracer() as first:
        traced_s, _, err = run_pass(workload, ops, first)
    errors += err
    prof = cProfile.Profile()
    with Tracer() as second:
        prof.enable()
        _, _, err = run_pass(workload, ops, second)
        prof.disable()
    errors += err

    a, b = first.summary(), second.summary()
    problems = []
    for layer, ca, cb, cp in zip(first.layers, a["calls"], b["calls"],
                                 _profiled_calls(prof, second)):
        if not ca == cb == cp:
            problems.append(f"{layer}: traced calls {ca} then {cb}, cProfile {cp}")
    if a["value"] != b["value"]:
        problems.append(f"hook values differ between traced passes: "
                        f"{a['value']} then {b['value']}")

    metrics = {}
    for layer, calls, own in zip(first.layers, a["calls"], a["self_s"]):
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = own
    value = dict(zip(first.layers, a["value"]))
    calls = dict(zip(first.layers, a["calls"]))
    entries = int(value["tensor_ops.r_power_tensor"])
    metrics["tensor_ops.r_power_tensor.entries"] = entries
    metrics["tensor_ops.r_power_tensor.bytes"] = 8 * entries
    metrics["canonical.decompose.escalated_frac"] = (
        value["canonical.decompose"] / calls["canonical.decompose"]
        if calls["canonical.decompose"] else 0.0)
    found = value["verify.theorem_witness"]
    metrics["verify.witness.probes_per_found"] = (
        a["witness_probes"] / found if found else 0.0)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0

    np.savez(manifest["spans"], seed=manifest["seed"], **first.arrays())
    return {"per_layer": metrics, "selfcheck": problems,
            "attempted": 3 * len(ops), "failed": len(errors), "errors": errors[:5]}


def main(argv):
    manifest_path, mode, seconds = argv
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    workload = WORKLOADS[manifest["workload"]]
    # warm-up outcomes are not counted: the same inputs fail again, and
    # are counted, in the measured passes
    for op in workload.warmup(manifest["inputs"]):
        run_op(workload, op)
    print("ready", flush=True)
    if mode == "measure":
        print(json.dumps(measure(workload, manifest, float(seconds))))
    elif mode == "trace":
        print(json.dumps(trace(workload, manifest)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
