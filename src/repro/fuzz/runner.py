"""Deterministic, shardable execution of the fuzz pipeline.

Program ``i`` is a pure function of ``(seed, i)`` (see
:func:`repro.fuzz.gen.program_seed`), shard ``k`` of ``S`` owns the
indices ``i ≡ k (mod S)``, and aggregation sorts everything by program
index — so the merged :class:`FuzzReport` (and its :meth:`digest`) is
byte-for-byte identical for any shard count and for multi-process vs
in-process execution.  Shards run as forked worker processes through
the batch layer's :class:`~repro.batch.WorkerPool` when the platform
provides ``fork``; otherwise — or if a worker dies — they run
sequentially in-process with identical results.

Each shard builds one :class:`~repro.logic.prove.Logic` for its
checker factory, so the PR 1 incremental proof engine is exercised
across programs exactly as a long-lived service would exercise it —
and the cache-transparency property tests pin down that this sharing
cannot change any verdict.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .coverage import CoverageMap, CoverageScheduler, coverage_from_delta
from .gen import FAMILIES, generate_program
from .oracles import (
    CheckerFactory,
    OracleOutcome,
    Violation,
    check_source,
    check_verdict,
    resolve_factory,
    run_program_oracles,
    shard_factory,
    solver_oracle_factories,
)
from .shrink import shrink
from ..batch.pipeline import WorkerPool, effective_jobs
from ..checker.errors import CheckError
from ..interp.eval import run_program
from ..interp.values import RacketError, UnsafeMemoryError
from ..syntax.parser import ParseError, parse_program

__all__ = ["FuzzConfig", "ShardResult", "FuzzReport", "run_shard", "run_fuzz",
           "violation_predicate"]

_DYNAMIC_FAILURES = (RacketError, UnsafeMemoryError, RecursionError)


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzz campaign, fully determined by its fields."""

    seed: int = 0
    count: int = 100
    shards: int = 1
    checker: str = "fresh"            # fresh | shared | blind (injected bug)
    mutants: bool = True
    max_mutants: Optional[int] = 4    # per program; None = all
    shrink_failures: bool = True
    max_shrinks: int = 5              # failing programs to minimise
    max_reported: int = 50            # violations kept verbatim in the report
    #: differential solver oracle: additionally check every generated
    #: program under both the ``fast`` and ``legacy`` solver backends
    #: and report any verdict divergence as a ``solver`` violation
    solver_oracle: bool = False
    #: persistent proof-cache directory: campaigns stop re-proving
    #: queries already decided by earlier shards and earlier runs (the
    #: cache is verdict-transparent, so the report digest is unchanged)
    cache_dir: Optional[str] = None
    #: collect per-program kernel-rule/theory/solver coverage vectors
    #: and the coverage-novel seed corpus (:mod:`repro.fuzz.coverage`)
    coverage: bool = False
    #: coverage-guided scheduling: per-shard family weights follow the
    #: novelty feedback instead of the static table (implies coverage)
    guided: bool = False
    #: enable the engine's per-stage wall-clock timers on each shard's
    #: engine and report the summed ``stage_ns`` breakdown (timings are
    #: hardware-dependent, so they never join the report digest)
    profile: bool = False

    def __post_init__(self) -> None:
        if self.count < 0 or self.shards < 1:
            raise ValueError("count must be >= 0 and shards >= 1")
        if self.guided and not self.coverage:
            object.__setattr__(self, "coverage", True)


@dataclass
class ShardResult:
    """What one shard measured (deterministic fields only)."""

    shard: int
    programs: int = 0
    accepted: int = 0
    evaluated: int = 0
    model_checked: int = 0
    mutants_checked: int = 0
    mutants_rejected: int = 0
    features: Dict[str, int] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)
    #: persistent-cache entries this shard learned (parent-flushed;
    #: never part of the report digest)
    cache_delta: Dict[str, object] = field(default_factory=dict)
    #: campaign coverage (``FuzzConfig.coverage``): this shard's
    #: accumulated coverage map and — when guided — final weights
    coverage_map: Optional[CoverageMap] = None
    family_weights: Optional[Dict[str, float]] = None
    #: per-stage engine wall-clock (``FuzzConfig.profile``)
    stage_ns: Dict[str, int] = field(default_factory=dict)


@dataclass
class FuzzReport:
    """The merged campaign outcome."""

    config: FuzzConfig
    programs: int
    accepted: int
    evaluated: int
    model_checked: int
    mutants_checked: int
    mutants_rejected: int
    features: Dict[str, int]
    violations: Tuple[Violation, ...]
    #: merged coverage summary (only with ``FuzzConfig.coverage``):
    #: point count, campaign digest, novelty corpus, per-shard weights
    coverage: Optional[Dict[str, object]] = None
    #: summed per-stage engine wall-clock (only with
    #: ``FuzzConfig.profile``); hardware-dependent, so deliberately
    #: excluded from :meth:`digest` and :meth:`as_dict`
    stage_ns: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def soundness_violations(self) -> Tuple[Violation, ...]:
        """The subset that indicts the checker (not the generator)."""
        return tuple(v for v in self.violations if v.oracle != "generator")

    def digest(self) -> str:
        """A stable fingerprint of everything deterministic in the run.

        Two runs with the same (seed, count, checker, mutant settings)
        must produce the same digest no matter how they were sharded.
        """
        payload = {
            "seed": self.config.seed,
            "count": self.config.count,
            "checker": self.config.checker,
            "solver_oracle": self.config.solver_oracle,
            "programs": self.programs,
            "accepted": self.accepted,
            "evaluated": self.evaluated,
            "model_checked": self.model_checked,
            "mutants_checked": self.mutants_checked,
            "mutants_rejected": self.mutants_rejected,
            "features": dict(sorted(self.features.items())),
            "violations": [
                (v.program, v.oracle, v.kind, v.message, v.source)
                for v in self.violations
            ],
        }
        if self.coverage is not None:
            # Coverage is only deterministic per (seed, shard count) —
            # warmth-sensitive — so it joins the digest only when the
            # campaign opted into collecting it.
            payload["coverage"] = self.coverage.get("digest")
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def as_dict(self) -> Dict[str, object]:
        """The campaign summary as JSON-ready data (``fuzz --json``).

        Everything deterministic lands here — config, totals, feature
        histogram, violations (with shrunk repros), the coverage
        summary and the report digest — so two runs with the same
        (seed, count, shards, mode) write byte-identical files.
        """
        cfg = self.config
        summary: Dict[str, object] = {
            "config": {
                "seed": cfg.seed,
                "count": cfg.count,
                "shards": cfg.shards,
                "checker": cfg.checker,
                "mutants": cfg.mutants,
                "max_mutants": cfg.max_mutants,
                "solver_oracle": cfg.solver_oracle,
                "coverage": cfg.coverage,
                "guided": cfg.guided,
            },
            "programs": self.programs,
            "accepted": self.accepted,
            "evaluated": self.evaluated,
            "model_checked": self.model_checked,
            "mutants_checked": self.mutants_checked,
            "mutants_rejected": self.mutants_rejected,
            "features": dict(sorted(self.features.items())),
            "violations": [
                {
                    "oracle": v.oracle,
                    "program": v.program,
                    "seed": v.seed,
                    "kind": v.kind,
                    "message": v.message,
                    "source": v.source,
                    "shrunk": v.shrunk,
                }
                for v in self.violations
            ],
            "digest": self.digest(),
        }
        if self.coverage is not None:
            summary["coverage"] = self.coverage
        return summary


# ----------------------------------------------------------------------
# shard execution
# ----------------------------------------------------------------------
def run_shard(
    config: FuzzConfig,
    shard: int,
    factory: Optional[CheckerFactory] = None,
) -> ShardResult:
    """Run the pipeline over this shard's residue class of indices."""
    cache = None
    cached_logic = None
    if factory is None:
        factory = shard_factory(config.checker)
        if config.cache_dir is not None:
            from ..batch import ProofCache, logic_config_key

            cached_logic = factory().logic  # the shard-shared engine
            cache = ProofCache(config.cache_dir, logic_config_key(cached_logic))
            cached_logic.attach_persistent_cache(cache)
    solver_factories = solver_oracle_factories() if config.solver_oracle else None
    result = ShardResult(shard=shard)
    profile_logic = None
    if config.profile:
        # Same shard_factory contract as coverage: one engine per
        # shard, so its stage_ns is the whole shard's breakdown.
        profile_logic = factory().logic
        profile_logic.enable_stage_timers()
    coverage_logic = None
    scheduler = None
    if config.coverage:
        # Coverage reads per-program EngineStats deltas off the shard's
        # engine, so it relies on the shard_factory contract (one Logic
        # for the whole shard).  A caller-supplied per-call factory
        # would make every delta empty; still harmless, just blind.
        coverage_logic = factory().logic
        result.coverage_map = CoverageMap()
        if config.guided:
            scheduler = CoverageScheduler(tuple(FAMILIES))
    try:
        for index in range(shard, config.count, config.shards):
            weights = scheduler.weights() if scheduler is not None else None
            spec = generate_program(config.seed, index, weights)
            baseline = (
                coverage_logic.stats.copy() if coverage_logic is not None else None
            )
            outcome = run_program_oracles(
                spec,
                factory,
                include_mutants=config.mutants,
                max_mutants=config.max_mutants,
                solver_factories=solver_factories,
            )
            result.programs += 1
            result.accepted += int(outcome.accepted)
            result.evaluated += int(outcome.evaluated)
            result.model_checked += outcome.model_checked
            result.mutants_checked += outcome.mutants_checked
            result.mutants_rejected += outcome.mutants_rejected
            for feature in spec.features:
                result.features[feature] = result.features.get(feature, 0) + 1
            result.violations.extend(outcome.violations)
            if coverage_logic is not None:
                delta = coverage_logic.stats.delta_from(baseline)
                vector = coverage_from_delta(delta)
                new = result.coverage_map.observe(
                    vector, index, spec.seed, spec.features
                )
                if scheduler is not None:
                    scheduler.observe(spec.features, len(new))
    finally:
        if cache is not None:
            result.cache_delta = cache.delta()
            cached_logic.detach_persistent_cache()
    if scheduler is not None:
        result.family_weights = scheduler.snapshot()
    if profile_logic is not None:
        result.stage_ns = dict(profile_logic.stats.stage_ns)
    return result


def _shard_worker(args: Tuple[FuzzConfig, int]) -> ShardResult:
    config, shard = args
    return run_shard(config, shard)


def run_fuzz(
    config: FuzzConfig,
    factory: Optional[CheckerFactory] = None,
    parallel: Optional[bool] = None,
) -> FuzzReport:
    """Run every shard and merge: the campaign entry point.

    ``factory`` forces an in-process (sequential) run — injected-bug
    demos pass the buggy factory directly, and worker processes could
    not receive it anyway (they re-resolve from ``config.checker``).
    ``parallel`` overrides the default "processes iff >1 shard"; it is
    ignored when a factory is supplied.  Shards fork through
    :class:`~repro.batch.WorkerPool` (one worker per shard, at most one
    per core); without ``fork``, on one core, or if a worker dies, they
    run in-process instead — a shard is a pure function of
    ``(config, k)``, so the digest is the same either way.
    """
    if factory is not None:
        parallel = False
    elif parallel is None:
        parallel = config.shards > 1
    shards: Optional[List[ShardResult]] = None
    if parallel:
        with WorkerPool(effective_jobs(config.shards)) as pool:
            shards = pool.map(
                _shard_worker, [(config, k) for k in range(config.shards)]
            )
    if shards is None:
        shards = [run_shard(config, k, factory) for k in range(config.shards)]

    features: Dict[str, int] = {}
    violations: List[Violation] = []
    totals = dict.fromkeys(
        ("programs", "accepted", "evaluated", "model_checked",
         "mutants_checked", "mutants_rejected"), 0
    )
    cache_delta: Dict[str, object] = {}
    merged_coverage = CoverageMap() if config.coverage else None
    weights_by_shard: Dict[str, Dict[str, float]] = {}
    stage_totals: Dict[str, int] = {}
    for shard_result in sorted(shards, key=lambda s: s.shard):
        for key in totals:
            totals[key] += getattr(shard_result, key)
        for feature, count in shard_result.features.items():
            features[feature] = features.get(feature, 0) + count
        violations.extend(shard_result.violations)
        cache_delta.update(shard_result.cache_delta)
        for stage, elapsed in shard_result.stage_ns.items():
            stage_totals[stage] = stage_totals.get(stage, 0) + elapsed
        if merged_coverage is not None and shard_result.coverage_map is not None:
            merged_coverage.merge(shard_result.coverage_map)
        if shard_result.family_weights is not None:
            weights_by_shard[str(shard_result.shard)] = shard_result.family_weights
    coverage_summary: Optional[Dict[str, object]] = None
    if merged_coverage is not None:
        coverage_summary = merged_coverage.as_dict()
        if weights_by_shard:
            coverage_summary["family_weights"] = weights_by_shard
    if config.cache_dir is not None and cache_delta:
        # Single-writer discipline: only the parent flushes to disk.
        # Shard deltas carry fully-namespaced keys, so no engine needs
        # to be built here just to derive a namespace.
        from ..batch import ProofCache

        parent_cache = ProofCache(config.cache_dir)
        parent_cache.absorb(cache_delta)
        parent_cache.flush()
    violations.sort(key=lambda v: (v.program, v.oracle, v.kind, v.message))
    violations = violations[: config.max_reported]

    if config.shrink_failures and violations:
        shrink_factory = factory or resolve_factory(config.checker)
        # A sound reference makes accepted-mutant shrinking differential;
        # when the campaign checker *is* the reference there is nothing
        # to differ against and only crash-witnessed rejects shrink.
        reference = None if config.checker == "fresh" and factory is None else (
            resolve_factory("fresh")
        )
        shrunk: List[Violation] = []
        budget = config.max_shrinks
        for violation in violations:
            predicate = violation_predicate(violation, shrink_factory, reference)
            if budget > 0 and predicate is not None:
                minimal = shrink(violation.source, predicate)
                violation = dataclasses.replace(violation, shrunk=minimal)
                budget -= 1
            shrunk.append(violation)
        violations = shrunk

    return FuzzReport(
        config=config,
        features=dict(sorted(features.items())),
        violations=tuple(violations),
        coverage=coverage_summary,
        stage_ns=stage_totals if config.profile else None,
        **totals,
    )


# ----------------------------------------------------------------------
# shrinking predicates
# ----------------------------------------------------------------------
def violation_predicate(
    violation: Violation,
    factory: CheckerFactory,
    reference: Optional[CheckerFactory] = None,
) -> Optional[Callable[[str], bool]]:
    """"Still fails the same oracle" as a predicate over source text.

    For accepted-mutant (``reject``) violations the failing property
    must stay *differential* while shrinking — "the campaign checker
    accepts" alone would shrink to any trivially well-typed program.
    The witness is either a runtime crash under acceptance, or (when a
    sound ``reference`` factory is supplied, e.g. against an injected
    bug) acceptance by the campaign checker with rejection by the
    reference.  Returns None when no sharp predicate exists.
    """
    if violation.oracle == "solver":
        # "the backends still disagree" — sharp and self-contained, so
        # divergences shrink like any other differential witness
        fast_factory, legacy_factory = solver_oracle_factories()

        def backends_diverge(source: str) -> bool:
            return check_verdict(source, fast_factory) != check_verdict(
                source, legacy_factory
            )

        return backends_diverge

    crashed = violation.oracle == "reject" and "crashed" in violation.message
    if violation.oracle == "reject" and not crashed and reference is None:
        return None

    def reference_rejects(source: str) -> bool:
        try:
            check_source(source, reference)
        except (ParseError, CheckError, RecursionError):
            return True
        return False

    def still_fails(source: str) -> bool:
        try:
            program, types = check_source(source, factory)
        except (ParseError, CheckError, RecursionError) as exc:
            # Rejected: only the generator oracle counts that as
            # failing, and only when it is the *same* rejection —
            # "any ill-typed candidate" would let pass 2 of the
            # shrinker degrade the program into an unrelated type
            # error and report that as the counterexample.
            return (
                violation.oracle == "generator"
                and type(exc).__name__ == violation.kind
                and str(exc) == violation.message
            )
        if violation.oracle == "generator":
            return False
        if violation.oracle == "reject":
            if crashed:
                try:
                    run_program(program)
                except _DYNAMIC_FAILURES:
                    return True
                return False
            return reference_rejects(source)
        try:
            values, _ = run_program(program)
        except _DYNAMIC_FAILURES:
            return violation.oracle == "eval"
        if violation.oracle == "model":
            from ..model.satisfies import value_has_type

            for name, ty in types.items():
                if name in values:
                    try:
                        if not value_has_type(values[name], ty, values):
                            return True
                    except TypeError:
                        return True
        return False

    return still_fails
