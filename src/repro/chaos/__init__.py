"""Deterministic fault injection against the checking service.

The recovery seams this repo grew over time — corrupt-shard tolerance,
epoch-guarded sessions, deadlines, load shedding and lane supervision
— stay broken until something systematically provokes them.  This package is that something: seeded
fault injectors (:mod:`~repro.chaos.faults`), scripted failure
scenarios (:mod:`~repro.chaos.scenarios`) and a campaign runner
(:mod:`~repro.chaos.runner`) with a reproducible JSON summary.

Every scenario ends with the same three assertions: the daemon still
answers, its verdicts equal a fresh engine's, and no connection is
left waiting.  Drive it with ``repro chaos``.
"""

from .runner import ChaosConfig, ChaosReport, run_chaos
from .scenarios import SCENARIOS

__all__ = ["ChaosConfig", "ChaosReport", "run_chaos", "SCENARIOS"]
