"""Differential fuzzing of the λRTR checker against its own semantics.

The subsystem turns the interpreter (:mod:`repro.interp`) and the
model relation (:mod:`repro.model`) into machine-checked oracles for
the type checker, at scale:

* :mod:`repro.fuzz.gen`      — well-typed-by-construction generation;
* :mod:`repro.fuzz.mutate`   — ill-typed-by-construction mutants;
* :mod:`repro.fuzz.oracles`  — the three soundness oracles;
* :mod:`repro.fuzz.shrink`   — greedy counterexample minimisation;
* :mod:`repro.fuzz.runner`   — deterministic sharded campaigns;
* :mod:`repro.fuzz.coverage` — engine coverage vectors, the novelty
  corpus, and the coverage-guided family scheduler;
* :mod:`repro.fuzz.farm`     — continuous campaigns against a live
  ``repro serve`` daemon, with triage via :mod:`repro.study.bugs`;
* :mod:`repro.fuzz.campaign` — the committed campaign mix of all modes.

Entry points: ``python -m repro fuzz ...`` or :func:`run_fuzz` /
:func:`repro.fuzz.farm.run_farm`.
"""

from .coverage import (
    CoverageMap,
    CoverageScheduler,
    CoverageVector,
    coverage_from_delta,
    coverage_from_stats_dict,
)
from .farm import FarmConfig, FarmReport, run_farm
from .gen import DefSpec, FAMILIES, ProgramSpec, generate_program, program_seed
from .mutate import Mutant, assemble_mutants
from .oracles import (
    OracleOutcome,
    Violation,
    fresh_checker_factory,
    refinement_blind_factory,
    resolve_factory,
    run_program_oracles,
    shard_factory,
    shared_checker_factory,
)
from .runner import FuzzConfig, FuzzReport, ShardResult, run_fuzz, run_shard
from .shrink import shrink

__all__ = [
    "CoverageMap",
    "CoverageScheduler",
    "CoverageVector",
    "DefSpec",
    "FAMILIES",
    "FarmConfig",
    "FarmReport",
    "FuzzConfig",
    "FuzzReport",
    "Mutant",
    "OracleOutcome",
    "ProgramSpec",
    "ShardResult",
    "Violation",
    "assemble_mutants",
    "coverage_from_delta",
    "coverage_from_stats_dict",
    "fresh_checker_factory",
    "generate_program",
    "program_seed",
    "refinement_blind_factory",
    "resolve_factory",
    "run_farm",
    "run_fuzz",
    "run_program_oracles",
    "run_shard",
    "shard_factory",
    "shared_checker_factory",
    "shrink",
]
