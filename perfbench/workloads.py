"""The four benchmark workloads: seeded inputs, one op each, and its check.

Every workload is a closed loop with one client in one process and no
worker threads; each op waits for the one before.  Work is split into
passes.  A pass runs every input of the workload ``reps`` times, in an
order and with op seeds drawn from (run seed, pass index).  Timed runs
cover whole passes, at least ``min_passes`` of them, so every run seed
measures the same mix of inputs and at least ten samples lie above the
``tail_pct`` percentile.  The warm-up runs one op for each lazily filled
cache, so set-up time is import plus cache filling, not op work.

The inputs are fixed here rather than imported from the tests, so that a
change to the tests cannot change what the benchmark measures.

The program is driven only through ``affsym.cli.main`` and public
functions, looked up on their module at call time so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from importlib import resources

import numpy as np

from affsym import cli, verify
from affsym.model import ComplexBlock, RealBlock, assemble

RESIDUAL_LIMIT = 1e-6


def _cli(argv):
    """Run the command line in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as err:
            rc = err.code
    return rc, buf.getvalue()


def _report(rc, text):
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    report = json.loads(text)
    if not report["checks"]:
        raise ValueError("report holds no checks")
    return report


class Geometry:
    """``check-geometry`` on one-point scenarios cut from the shipped ones.

    The only workload that drives jets, geometry and nabla_tensor.  The
    three n=6 points of paper_example_n3 take most of a pass and are the
    slowest quarter of the ops, so p79 over 4 passes (10 samples above it)
    falls among them; the n=4 points set the median.
    """

    name = "geometry"
    reps = 1
    min_passes = 4
    tail_pct = 79
    #: rank_theorem verdict each shipped scenario must reach at every point
    RANK_VERDICT = {"paper_example_n2": "PASS", "paper_example_n3": "PASS",
                    "paraboloid": "PASS", "centroaffine_sphere": "VACUOUS"}

    def inputs(self, seed, workdir):
        files = []
        for scenario in self.RANK_VERDICT:
            data = json.loads(resources.files("affsym").joinpath(
                "data", f"{scenario}.json").read_bytes())
            for i, point in enumerate(data["sample_points"]):
                path = os.path.join(workdir, f"{scenario}-p{i}.json")
                with open(path, "w") as fh:
                    json.dump(dict(data, sample_points=[point]), fh)
                files.append({"file": path, "scenario": scenario})
        return files

    def warmup(self, inputs):
        # jets.jet_space is filled per dimension: one n=4 and one n=6 point
        return [dict(x, seed=0) for x in inputs
                if x["file"].endswith(("paper_example_n2-p0.json",
                                       "paper_example_n3-p0.json"))]

    def call(self, op):
        return _cli(["check-geometry", "--scenario", op["file"],
                     "--seed", str(op["seed"])])

    def check(self, op, out):
        report = _report(*out)
        bad = [r["name"] for r in report["checks"]
               if r["status"] not in ("PASS", "VACUOUS")]
        if bad:
            raise ValueError(f"records not PASS/VACUOUS: {bad}")
        rank = [r["status"] for r in report["checks"]
                if r["name"].startswith("rank_theorem@")]
        want = self.RANK_VERDICT[op["scenario"]]
        if rank != [want]:
            raise ValueError(f"rank_theorem {rank}, expected {want}")


class Oracles:
    """``oracles --filter ID`` for each catalog id, default draws and p_max.

    Drives model.assemble, random_omega and basis-index r_power_action; it
    never calls jets or geometry, so it is the control for their changes.
    The tail is p95, not the highest percentile with ten samples above it
    (p97 at 6 passes): p97 falls among the dozen ops of with_pi_x, whose
    cost varies up to 1.8-fold with their draws, so it swung by a quarter
    across run seeds.
    """

    name = "oracles"
    reps = 2
    min_passes = 4
    tail_pct = 95

    def inputs(self, seed, workdir):
        return [{"id": oid} for oid, _ in verify.list_oracles()]

    def warmup(self, inputs):
        # no cache outlives an op: one op covers the first-use costs
        return [dict(inputs[0], seed=0)]

    def call(self, op):
        return _cli(["oracles", "--filter", op["id"], "--seed", str(op["seed"])])

    def check(self, op, out):
        report = _report(*out)
        bad = [r["name"] for r in report["checks"] if r["status"] != "PASS"]
        if bad:
            raise ValueError(f"records not PASS: {bad}")


class Witness:
    """``verify.theorem_witness(blocks, p_max=4, trials=1)`` on the seven
    inadmissible shapes of acceptance criterion 5 (dims 4 to 8).

    Dominated by dense r_power_tensor scans and, at dims 6 to 8, the
    named-candidate r_power_action search.
    """

    name = "witness"
    reps = 8
    min_passes = 4
    tail_pct = 95
    P_MAX = 4
    SHAPES = {
        "real_size4": [RealBlock(4, 0.7, 1)] + [RealBlock(1, 0.0, 1)] * 4,
        "real_size3_nilpotent": [RealBlock(3, 0.0, 1)] + [RealBlock(1, 0.0, -1)] * 3,
        "real_size3_nonzero": [RealBlock(3, -1.1, -1)] + [RealBlock(1, 0.0, 1)] * 3,
        "two_real_2blocks": [RealBlock(2, 0.4, 1), RealBlock(2, -0.9, 1)],
        "complex_2x2": [ComplexBlock(1, 0.3, 1.2)] + [RealBlock(1, 0.0, 1)] * 2,
        "complex_4x4": [ComplexBlock(2, 0.5, 0.8)] + [RealBlock(1, 0.0, 1)] * 2,
        "diag_rank2": [RealBlock(1, 1.0, 1), RealBlock(1, -0.5, -1),
                       RealBlock(1, 0.0, 1), RealBlock(1, 0.0, 1)],
    }

    def inputs(self, seed, workdir):
        return [{"shape": name} for name in self.SHAPES]

    def warmup(self, inputs):
        return [dict(inputs[0], seed=0)]

    def call(self, op):
        return verify.theorem_witness(self.SHAPES[op["shape"]], p_max=self.P_MAX,
                                      trials=1, seed=op["seed"])

    def check(self, op, report):
        if len(report.entries) != self.P_MAX or not report.all_found:
            missing = [e.power for e in report.entries if not e.found]
            raise ValueError(f"no witness for powers {missing}")


_EIG_GRID = (-2.1, -1.4, -0.8, 0.0, 0.6, 1.3, 2.0)


def _random_assembly(rng, dim):
    """A random Jordan/sip block list of the given dim, as in acceptance
    criterion 4."""
    lams = list(rng.permutation(_EIG_GRID))
    cplx = [(a, b) for a in (-1.0, 0.0, 0.9) for b in (0.7, 1.6)]
    rng.shuffle(cplx)
    blocks = []
    left = dim
    while left > 0:
        if left >= 4 and cplx and rng.random() < 0.3:
            half = int(rng.integers(1, min(3, left // 2) + 1))
            a, b = cplx.pop()
            blocks.append(ComplexBlock(half, a, b))
            left -= 2 * half
            continue
        size = int(rng.integers(1, min(4, left) + 1))
        lam = float(lams.pop()) if lams and rng.random() < 0.85 else 0.0
        blocks.append(RealBlock(size, lam, int(rng.choice((-1, 1)))))
        left -= size
    return blocks


def _block_key(kind, size, a, b):
    """Comparable block identity; b is the sign (real) or |beta| (complex)."""
    return [kind, int(size), round(float(a), 5), round(abs(float(b)), 5)
            if kind == "complex" else int(b)]


class Decompose:
    """``decompose FILE`` on seeded H-selfadjoint pairs: a random Jordan/sip
    assembly of dim 4 to 10 under a random congruence.

    canonical.decompose is most of each op; its size-3 and size-4 Jordan
    blocks exercise the threshold-escalation ladder.
    """

    name = "decompose"
    reps = 1
    min_passes = 3
    tail_pct = 99
    PAIRS = 400
    DIMS = (4, 6, 8, 10)

    def inputs(self, seed, workdir):
        rng = np.random.default_rng(seed)
        pairs = []
        for i in range(self.PAIRS):
            # equal shares of each dim, so that seeds differ only in blocks
            blocks = _random_assembly(rng, self.DIMS[i % len(self.DIMS)])
            m = assemble(blocks)
            u, _, vt = np.linalg.svd(rng.normal(size=(m.dim, m.dim)))
            q = u @ np.diag(rng.uniform(0.4, 2.5, size=m.dim)) @ vt
            qi = np.linalg.inv(q)
            path = os.path.join(workdir, f"pair-{i}.json")
            with open(path, "w") as fh:
                json.dump({"dim": m.dim, "A": (q @ m.S @ qi).ravel().tolist(),
                           "H": (qi.T @ m.H @ qi).ravel().tolist()}, fh)
            expect = sorted(
                _block_key("real", b.size, b.eigenvalue, b.sign)
                if isinstance(b, RealBlock) else
                _block_key("complex", b.half_size, b.alpha, b.beta)
                for b in blocks)
            pairs.append({"file": path, "expect": expect})
        return pairs

    def warmup(self, inputs):
        return [dict(inputs[0], seed=0)]

    def call(self, op):
        return _cli(["decompose", op["file"]])

    def check(self, op, out):
        rec = next(r for r in _report(*out)["checks"] if r["name"] == "decompose")
        params = rec["params"]
        got = sorted(
            _block_key("real", b["size"], b["eigenvalue"], b["sign"])
            if b["kind"] == "real" else
            _block_key("complex", b["half_size"], b["alpha"], b["beta"])
            for b in params["blocks"])
        if got != op["expect"]:
            raise ValueError(f"blocks {got}, expected {op['expect']}")
        worst = max(params["residual_jordan"], params["residual_h"])
        if not worst < RESIDUAL_LIMIT:
            raise ValueError(f"residual {worst:.3e} not below {RESIDUAL_LIMIT}")


WORKLOADS = {w.name: w for w in (Geometry(), Oracles(), Witness(), Decompose())}


def pass_ops(workload, inputs, seed, index):
    """The ops of pass ``index``: every input ``reps`` times, seeded order."""
    pool = [x for x in inputs for _ in range(workload.reps)]
    rng = np.random.default_rng((seed, index))
    order = rng.permutation(len(pool))
    op_seeds = rng.integers(0, 1_000_000, size=len(pool))
    return [dict(pool[i], seed=int(s)) for i, s in zip(order, op_seeds)]
