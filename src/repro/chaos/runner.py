"""The chaos campaign runner: scenarios in, reproducible summary out.

A campaign is a seeded workload (generated programs with fresh-engine
reference verdicts) plus an ordered subset of
:data:`~repro.chaos.scenarios.SCENARIOS`.  The report digest covers
the seed, the scenario list and each scenario's pass/fail — so two
runs of the same campaign on the same code agree byte-for-byte on
everything except wall-clock durations.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .scenarios import SCENARIOS, ScenarioContext, ScenarioResult, build_workload

__all__ = ["ChaosConfig", "ChaosReport", "run_chaos"]


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos campaign."""

    seed: int = 0
    #: scenario names to run, in order (None = all, documentation order)
    scenarios: Optional[Sequence[str]] = None
    #: generated programs in the verification workload
    workload_count: int = 6

    def __post_init__(self) -> None:
        if self.workload_count < 1:
            raise ValueError("workload_count must be >= 1")

    def scenario_names(self) -> List[str]:
        if self.scenarios is None:
            return list(SCENARIOS)
        unknown = [name for name in self.scenarios if name not in SCENARIOS]
        if unknown:
            raise ValueError(
                f"unknown chaos scenarios: {unknown}; "
                f"known: {', '.join(SCENARIOS)}"
            )
        return list(self.scenarios)


@dataclass
class ChaosReport:
    """The campaign summary (:meth:`as_dict` is the JSON artifact)."""

    config: ChaosConfig
    results: List[ScenarioResult] = field(default_factory=list)
    duration_seconds: float = 0.0

    @property
    def passed(self) -> int:
        return sum(1 for result in self.results if result.ok)

    @property
    def failed(self) -> int:
        return sum(1 for result in self.results if not result.ok)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and bool(self.results)

    def digest(self) -> str:
        """Stable over everything but wall-clock time."""
        body = json.dumps(
            {
                "seed": self.config.seed,
                "workload_count": self.config.workload_count,
                "scenarios": [
                    {"name": result.name, "ok": result.ok}
                    for result in self.results
                ],
            },
            sort_keys=True,
        )
        return hashlib.sha256(body.encode()).hexdigest()[:16]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.config.seed,
            "workload_count": self.config.workload_count,
            "scenarios": [result.as_dict() for result in self.results],
            "passed": self.passed,
            "failed": self.failed,
            "ok": self.ok,
            "duration_seconds": round(self.duration_seconds, 3),
            "digest": self.digest(),
        }


def run_chaos(
    config: ChaosConfig, progress: Optional[Any] = None
) -> ChaosReport:
    """Run the campaign; ``progress`` (a callable) gets one line per scenario."""
    report = ChaosReport(config=config)
    started = time.monotonic()
    names = config.scenario_names()
    workload = build_workload(config.seed, config.workload_count)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmpdir:
        for name in names:
            ctx = ScenarioContext(seed=config.seed, tmpdir=tmpdir, workload=workload)
            result = SCENARIOS[name](ctx)
            report.results.append(result)
            if progress is not None:
                status = "PASS" if result.ok else f"FAIL ({result.error})"
                progress(
                    f"chaos[{name}] {status} in {result.duration_seconds:.1f}s"
                )
    report.duration_seconds = time.monotonic() - started
    return report
