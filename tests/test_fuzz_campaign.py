"""Campaign evidence: the RTR-005 survived-audit entry, pinned.

The PR 7 campaign ran the fast-vs-legacy solver differential across
thousands of programs with zero verdict divergences
(``benchmark-results/fuzz_campaign.json`` holds the full run).  These
tests re-run a fixed slice of that campaign so the evidence stays
live: the slice must remain divergence-free and must reproduce the
committed digests exactly — a changed digest means the slice no
longer checks what the audit checked.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.fuzz import FuzzConfig, run_fuzz
from repro.fuzz.campaign import CAMPAIGN_SEED, DEFAULT_PLAN, run_campaign

REPO = Path(__file__).resolve().parent.parent

#: the audited slice (seed 2016 of the campaign), frozen with its
#: digests — byte-identical across any shard/process layout of 2
PINNED_SLICE = FuzzConfig(
    seed=2016, count=80, shards=2, mutants=False,
    solver_oracle=True, coverage=True,
)
PINNED_DIGEST = "daeb21b873760c751ae1e55d9f96ca7779b61aa9cca788c483d498b7ff3317b6"
PINNED_COVERAGE_DIGEST = (
    "9a80c3b641750a180780f66f82b528f3ef918797ad1784501e908bc9056f11ca"
)
#: the same slice's digest with the coverage term left out: counts,
#: features and violations only.  Coverage buckets the kernel's work
#: per program, so it moves when the checker does less work for the
#: same verdicts; this pin does not.
PINNED_VERDICT_DIGEST = (
    "29663c0102cbd91290e6f7226128f53a2c4cbd890de02249fe5f8f6ed5ba42f1"
)


def test_solver_oracle_campaign_no_divergence():
    report = run_fuzz(PINNED_SLICE)
    divergences = [v for v in report.violations if v.oracle == "solver"]
    assert not divergences, "\n".join(v.describe() for v in divergences)
    assert report.ok
    assert report.digest() == PINNED_DIGEST
    assert report.coverage["digest"] == PINNED_COVERAGE_DIGEST
    assert replace(report, coverage=None).digest() == PINNED_VERDICT_DIGEST


def test_campaign_artifact_is_committed_and_clean():
    """The committed campaign summary backs the survived-audit entries."""
    artifact = REPO / "benchmark-results" / "fuzz_campaign.json"
    assert artifact.exists(), "campaign artifact missing"
    summary = json.loads(artifact.read_text())
    assert summary["total_generated_programs"] >= 5000
    solver_runs = [
        run for run in summary["runs"] if run.get("solver_oracle")
    ]
    assert solver_runs, "campaign must include solver-oracle runs"
    assert all(run["violations"] == 0 for run in solver_runs)
    farm_runs = [run for run in summary["runs"] if run["mode"] == "farm"]
    assert farm_runs, "campaign must include a farm run"
    assert all(run["divergences"] == 0 for run in farm_runs)


@pytest.mark.fuzz
def test_campaign_slice_scaled():
    """CI farm job: a larger seed sweep of the same differential."""
    for seed in (0, 42):
        report = run_fuzz(
            FuzzConfig(seed=seed, count=150, shards=2, mutants=False,
                       solver_oracle=True)
        )
        assert report.ok, "\n".join(v.describe() for v in report.violations)


def test_committed_artifact_is_the_default_campaign_plan():
    """The artifact is ``python -m repro.fuzz.campaign``'s output, intact."""
    summary = json.loads(
        (REPO / "benchmark-results" / "fuzz_campaign.json").read_text()
    )
    runs = [(run["mode"], run["seed"], run["programs"]) for run in summary["runs"]]
    assert runs == [
        (mode, CAMPAIGN_SEED + index, count)
        for index, (mode, count) in enumerate(DEFAULT_PLAN)
    ]
    body = {key: value for key, value in summary.items() if key != "digest"}
    blob = json.dumps(body, sort_keys=True).encode()
    assert summary["digest"] == hashlib.sha256(blob).hexdigest()


def test_campaign_writer_is_deterministic():
    plan = (("plain", 3), ("solver-oracle", 3), ("guided", 3), ("farm", 2))
    first = run_campaign(plan, seed=7)
    assert first == run_campaign(plan, seed=7)
    assert first["total_generated_programs"] == 11
    assert [run["mode"] for run in first["runs"]] == [mode for mode, _ in plan]
    for run in first["runs"]:
        counter = "divergences" if run["mode"] == "farm" else "violations"
        assert isinstance(run[counter], int)
        assert "duration_seconds" not in run
    assert [run.get("solver_oracle", False) for run in first["runs"]] == [
        False, True, False, False,
    ]
