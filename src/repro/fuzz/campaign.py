"""The committed fuzz campaign: one seeded run of every fuzzing mode.

``python -m repro.fuzz.campaign OUT`` runs :data:`DEFAULT_PLAN` —
plain (with mutants), solver-oracle, coverage-guided and farm (a
spawned ``repro serve`` against a local reference checker) — and
writes the JSON summary to ``OUT``; the exit code is 1 if any run
found a violation.  Run ``i`` uses seed ``CAMPAIGN_SEED + i`` and every
field is deterministic (no wall clock), so reruns write byte-identical
files.  ``benchmark-results/fuzz_campaign.json`` is the committed run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from .farm import FarmConfig, run_farm
from .runner import FuzzConfig, run_fuzz

__all__ = ["CAMPAIGN_SEED", "DEFAULT_PLAN", "run_campaign", "main"]

CAMPAIGN_SEED = 2016

#: (mode, programs) per run; 5,000 generated programs in total
DEFAULT_PLAN: Tuple[Tuple[str, int], ...] = (
    ("plain", 1500),
    ("solver-oracle", 1500),
    ("guided", 1500),
    ("farm", 500),
)

#: in-process runs shard over two workers; part of the campaign's
#: definition, since a guided run's coverage digest depends on it
SHARDS = 2


def _run(mode: str, seed: int, count: int) -> Dict[str, object]:
    """One run's record: its configuration, totals and report digest."""
    if mode == "farm":
        farm = run_farm(FarmConfig(seed=seed, count=count, guided=True))
        return {
            "mode": mode, "seed": seed, "programs": farm.programs,
            "checks": farm.checks, "daemon_accepted": farm.daemon_accepted,
            "daemon_rejected": farm.daemon_rejected,
            "divergences": len(farm.divergences), "digest": farm.digest(),
        }
    config = FuzzConfig(
        seed=seed, count=count, shards=SHARDS, mutants=mode == "plain",
        solver_oracle=mode == "solver-oracle", guided=mode == "guided",
    )
    report = run_fuzz(config)
    return {
        "mode": mode, "seed": seed, "shards": SHARDS,
        "solver_oracle": config.solver_oracle, "guided": config.guided,
        "programs": report.programs, "accepted": report.accepted,
        "mutants_checked": report.mutants_checked,
        "violations": len(report.violations), "digest": report.digest(),
    }


def run_campaign(
    plan: Sequence[Tuple[str, int]] = DEFAULT_PLAN, seed: int = CAMPAIGN_SEED
) -> Dict[str, object]:
    """Run every ``(mode, programs)`` entry of ``plan``; the summary."""
    runs = [_run(mode, seed + i, count) for i, (mode, count) in enumerate(plan)]
    summary: Dict[str, object] = {
        "seed": seed,
        "total_generated_programs": sum(int(run["programs"]) for run in runs),
        "runs": runs,
    }
    blob = json.dumps(summary, sort_keys=True).encode()
    summary["digest"] = hashlib.sha256(blob).hexdigest()
    return summary


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.fuzz.campaign")
    parser.add_argument("out", help="where to write the JSON summary")
    args = parser.parse_args(argv)
    summary = run_campaign()
    Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    failed = any(
        run.get("violations") or run.get("divergences") for run in summary["runs"]
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
