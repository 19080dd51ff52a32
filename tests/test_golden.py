"""Fresh reports against the committed golden reports in tests/golden/.

Timing fields (``wall_ms``, ``generated_unix``) are dropped.  Record
names, statuses and every non-float field must be identical; a float may
differ from its golden value by at most 1e-12 * max(1, |golden|).

``oracle_draws.json`` pins every draw, not only the worst one per power
group that a report shows: the sha256 of ``json.dumps(params,
sort_keys=True)`` for each family's draws at the seeds ``oracles`` uses.

``witness_criterion5.json`` pins every ``WitnessEntry`` of
``theorem_witness`` on the seven inadmissible shapes of acceptance
criterion 5, bit for bit: power, trial, found, args and ``value.hex()``.

``oracle_brute.json`` pins the brute value of every draw, bit for bit, as
``brute.hex()`` for each family's ``run_family(oid, 25, seed=0)``: the
draws whose worst error per power group ``oracles_trials25`` reports.

``decompose_pairs.json`` pins the canonical pair of 60 seeded congruent
pairs of dims 4-10 (``cases``: the blocks and the ``_conjugate`` seed of
each), bit for bit: blocks with their floats as ``.hex()``,
``threshold_step``, warnings, both residuals as ``.hex()`` and the sha256
of ``transform.tobytes()``.  The cases hold 1x1 real blocks of both signs,
complex blocks, and size-3 and size-4 Jordan blocks that climb the
clustering ladder.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from affsym.canonical import decompose
from affsym.cli import main
from affsym.model import ComplexBlock, RealBlock, assemble
from affsym.verify import list_oracles, run_family, sample_spec, theorem_witness
from test_canonical import _conjugate
from test_verify import INADMISSIBLE

pytestmark = pytest.mark.contract

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-12

RUNS = {
    f"check-geometry_{name}": ["check-geometry", "--scenario", name, "--seed", "0"]
    for name in ("paper_example_n2", "paper_example_n3", "paraboloid",
                 "centroaffine_sphere")
}
RUNS["oracles_trials25"] = ["oracles", "--trials", "25", "--seed", "0"]


def _strip_timing(report):
    report.pop("generated_unix", None)
    for rec in report.get("checks", []):
        rec.pop("wall_ms", None)
    return report


def _mismatches(got, want, path="$"):
    """Paths at which ``got`` departs from ``want`` under the golden rule."""
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if math.isfinite(want):
            ok = abs(got - want) <= RTOL * max(1.0, abs(want))
        else:
            ok = got == want
        return [] if ok else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: type {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in sorted(want)
                for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("tag", sorted(RUNS))
def test_report_matches_golden(tag, tmp_path):
    out = tmp_path / "report.json"
    assert main(RUNS[tag] + ["--output", str(out)]) == 0
    got = _strip_timing(json.loads(out.read_text()))
    want = json.loads((GOLDEN / f"{tag}.json").read_text())
    assert [(r["name"], r["status"]) for r in got["checks"]] == \
        [(r["name"], r["status"]) for r in want["checks"]]
    bad = _mismatches(got, want)
    assert not bad, "\n".join(bad[:20])


def test_golden_rule_flags_drift():
    want = {"a": 1.0, "b": [2.0, "x"], "c": 3}
    assert not _mismatches({"a": 1.0 + 5e-13, "b": [2.0, "x"], "c": 3}, want)
    assert _mismatches({"a": 1.0 + 5e-12, "b": [2.0, "x"], "c": 3}, want)
    assert _mismatches({"a": 1.0, "b": [2.0, "y"], "c": 3}, want)
    assert _mismatches({"a": 1.0, "b": [2.0, "x"], "c": 4}, want)


def test_draws_match_golden_digests():
    want = json.loads((GOLDEN / "oracle_draws.json").read_text())
    got = {}
    for index, (oid, _) in enumerate(list_oracles()):
        got[oid] = [hashlib.sha256(json.dumps(
            sample_spec(oid, np.random.default_rng((want["seed"], index, d)),
                        want["p_max"]).params, sort_keys=True).encode()).hexdigest()
            for d in range(want["draws"])]
    assert list(got) == list(want["sha256"])
    assert [oid for oid in got if got[oid] != want["sha256"][oid]] == []


def witness_entries(p_max, trials, seeds):
    """The witness entries of each criterion-5 shape and seed, as the
    golden fixture stores them."""
    return {name: {str(seed): [[e.power, e.trial, e.found, list(e.args), e.value.hex()]
                               for e in theorem_witness(INADMISSIBLE[name], p_max=p_max,
                                                        trials=trials, seed=seed).entries]
                   for seed in seeds}
            for name in sorted(INADMISSIBLE)}


def test_witness_entries_match_golden():
    want = json.loads((GOLDEN / "witness_criterion5.json").read_text())
    got = witness_entries(want["p_max"], want["trials"], want["seeds"])
    assert list(got) == list(want["entries"])
    assert {name: seeds for name, seeds in got.items() if seeds != want["entries"][name]} == {}


def oracle_brutes(draws, seed, p_max):
    """``brute.hex()`` of every draw of each family, as the golden fixture
    stores them."""
    return {oid: [r.brute.hex() for r in run_family(oid, draws, seed=seed, p_max=p_max)]
            for oid, _ in list_oracles()}


def test_oracle_brutes_match_golden():
    want = json.loads((GOLDEN / "oracle_brute.json").read_text())
    got = oracle_brutes(want["draws"], want["seed"], want["p_max"])
    assert list(got) == list(want["brute"])
    assert {oid: hexes for oid, hexes in got.items() if hexes != want["brute"][oid]} == {}


def decompose_pairs(cases):
    """The canonical pair of each case, as the golden fixture stores it."""
    out = []
    for case in cases:
        blocks = [RealBlock(size, a, b) if kind == "real" else ComplexBlock(size, a, b)
                  for kind, size, a, b in case["blocks"]]
        a, h, _ = _conjugate(np.random.default_rng(case["seed"]), assemble(blocks))
        pair = decompose(a, h)
        out.append({
            "blocks": [["real", b.size, b.eigenvalue.hex(), b.sign] if isinstance(b, RealBlock)
                       else ["complex", b.half_size, b.alpha.hex(), b.beta.hex()]
                       for b in pair.blocks],
            "threshold_step": pair.threshold_step,
            "warnings": list(pair.warnings),
            "residual_jordan": pair.residual_jordan.hex(),
            "residual_h": pair.residual_h.hex(),
            "transform_sha256": hashlib.sha256(pair.transform.tobytes()).hexdigest(),
        })
    return out


def test_decompose_pairs_match_golden():
    want = json.loads((GOLDEN / "decompose_pairs.json").read_text())
    got = decompose_pairs(want["cases"])
    assert len(got) == len(want["pairs"])
    assert [i for i, (g, w) in enumerate(zip(got, want["pairs"])) if g != w] == []
