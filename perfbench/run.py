"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a checkout; affsym is imported from ``src/``.  The
inputs are generated from the seed under ``perfbench/out/`` and removed
afterwards.  Workload processes run one at a time with BLAS pinned to one
thread.  ``--trace 0`` launches the workload process SETUP_SAMPLES times,
timing each from launch to ready, and once more to measure whole passes;
times are rescaled to a reference speed of the machine (speed.py).
``--trace 1`` launches it once for the traced run.  The metrics
printed in the result are the ``end_to_end`` (trace 0) or ``per_layer``
(trace 1) lists of BENCHMARK.json; every other line starts with ``#``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
#: one BLAS thread; and glibc's mmap and trim thresholds fixed where its
#: dynamic thresholds end up (32 MiB and twice that), so that peak memory
#: does not depend on when in the op order they happened to rise (witness
#: peaked at 101 MB or 109 MB by seed without it)
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
          "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}
SETUP_SAMPLES = 5
#: every run must end within 180 s; processes still running then are killed
DEADLINE_S = 170.0
#: the tail percentile must have at least this many samples above it
TAIL_SAMPLES = 10


class BenchError(RuntimeError):
    pass


def _git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            # stop at ROOT rather than report an enclosing repository
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": openblas, "commit": _git_commit(), **PINNED}


def launch(manifest, mode, seconds, deadline):
    """Start a workload process; returns (seconds from launch to ready,
    parsed last output line or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), manifest, mode,
           str(seconds)]
    env = dict(os.environ, **PINNED)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            bufsize=0)
    try:
        waiting = deadline - time.monotonic()
        if not select.select([proc.stdout], [], [], max(waiting, 0.0))[0]:
            raise BenchError(f"{mode} process not ready before the deadline")
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise BenchError(f"{mode} process failed during set-up")
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process still running at the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def end_to_end(workload, setups, setup_refs, res):
    """The end-to-end metrics, with every time rescaled to the reference
    speed (see speed.py); the measured times are printed on a # line."""
    attempted = len(res["latency_s"])
    ok = attempted - res["failed"]
    if ok == 0:
        raise BenchError("no op completed")
    measured = {"setup_s": statistics.median(setups)}
    scaled = {"setup_s": statistics.median(
        t * speed.REFERENCE_S / statistics.mean(pair)
        for t, pair in zip(setups, zip(setup_refs, setup_refs[1:])))}
    refs = res["ref_at_s"], res["ref_s"]
    for out, latency, cycle in (
            (measured, res["latency_s"], res["cycle_s"]),
            (scaled, speed.rescale(res["start_s"], res["latency_s"], *refs),
             speed.rescale(res["start_s"], res["cycle_s"], *refs))):
        latency_ms = [float(x) * 1e3 for x in latency]
        tail = statistics.quantiles(latency_ms, n=100,
                                    method="inclusive")[workload.tail_pct - 1]
        above = sum(x > tail for x in latency_ms)
        if above < TAIL_SAMPLES:
            raise BenchError(f"only {above} of {attempted} samples above "
                             f"p{workload.tail_pct}, fewer than {TAIL_SAMPLES}")
        out.update(ops_per_s=ok / float(sum(cycle)),
                   op_p50_ms=statistics.median(latency_ms), op_tail_ms=tail)
    print(f"# {workload.name} measured, not rescaled: {json.dumps(measured)}; "
          f"reference median {statistics.median(res['ref_s'])} s over "
          f"{len(res['ref_s'])} timings, {speed.REFERENCE_S} s at the "
          f"reference speed")
    return attempted, res["failed"], {
        **scaled,
        "failed_frac": res["failed"] / attempted,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def run_workload(name, seed, seconds, trace, deadline):
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        manifest = os.path.join(workdir, "manifest.json")
        with open(manifest, "w") as fh:
            json.dump({"workload": name, "seed": seed,
                       "inputs": workload.inputs(seed, workdir),
                       "spans": os.path.join(OUT, f"spans-{name}.npz")}, fh)
        if trace:
            _, res = launch(manifest, "trace", seconds, deadline)
            for problem in res["selfcheck"]:
                print(f"# selfcheck failed: {problem}", file=sys.stderr)
            if res["failed"] == res["attempted"]:
                raise BenchError("no op completed")
            correct = res["failed"] == 0 and not res["selfcheck"]
            attempted, failed, metrics = res["attempted"], res["failed"], res["per_layer"]
        else:
            # the machine's speed is read before and after each set-up
            # launch, while no workload process runs
            setups, refs = [], [speed.reference_now()]
            for _ in range(SETUP_SAMPLES):
                setups.append(launch(manifest, "setup", seconds, deadline)[0])
                refs.append(speed.reference_now())
            _, res = launch(manifest, "measure", seconds, deadline)
            attempted, failed, metrics = end_to_end(workload, setups, refs, res)
            correct = failed == 0
            print(f"# {name}: {res['passes']} passes, {attempted} ops, "
                  f"setup samples {setups}")
            print(f"# {name} failed_frac {metrics['failed_frac']} frac")
        for err in res["errors"]:
            print(f"# op failed: {err}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return correct, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that launch() stops its process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "affsym", "__init__.py")):
        print(f"error: no affsym package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED)
    sys.path.insert(1, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names + ['all']}")
    print(f"# env {json.dumps(environment())}")

    status = 0
    for name in names if args.workload == "all" else [args.workload]:
        if args.workload == "all":
            deadline = time.monotonic() + DEADLINE_S
        try:
            correct, attempted, failed, metrics = run_workload(
                name, args.seed, args.seconds, args.trace, deadline)
            missing = [m["name"] for m in wanted if m["name"] not in metrics]
            if missing:
                raise BenchError(f"metrics not computed: {missing}")
        except BenchError as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            status = 1
            continue
        for m in wanted:
            print(f"# {name} {m['name']} {metrics[m['name']]} {m['unit']}")
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted}}))
    return status


if __name__ == "__main__":
    sys.exit(main())
