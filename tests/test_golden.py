"""Fresh reports against the committed golden reports in tests/golden/.

Timing fields (``wall_ms``, ``generated_unix``) are dropped.  Record
names, statuses and every non-float field must be identical; a float may
differ from its golden value by at most 1e-12 * max(1, |golden|).

``oracle_draws.json`` pins every draw, not only the worst one per power
group that a report shows: the sha256 of ``json.dumps(params,
sort_keys=True)`` for each family's draws at the seeds ``oracles`` uses.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from affsym.cli import main
from affsym.verify import list_oracles, sample_spec

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
    main(RUNS[tag] + ["--output", str(out)])
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
