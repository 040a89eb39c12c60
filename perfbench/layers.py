"""The per-layer metrics: which public functions are wrapped, how each
metric is derived, and which end-to-end metric it should move.

Span-derived metrics (``calls``, ``self_s``, ``rejected``) come from
wrapping the functions in :data:`WRAPPED`; counts and ratios come from
the public :class:`~repro.logic.prove.EngineStats` fields.  A metric a
workload never exercises reads 0.
"""

from __future__ import annotations

import importlib
from typing import Dict

#: (span name, module, class or ``None`` for module-level functions,
#: attributes wrapped under that span name)
WRAPPED = (
    ("sexp.read_all", "repro.sexp.reader", None, ("read_all",)),
    ("syntax.expand", "repro.syntax.macros", None, ("expand",)),
    ("syntax.parse_program", "repro.syntax.parser", None, ("parse_program",)),
    ("checker.check_program", "repro.checker.check", "Checker", ("check_program",)),
    ("logic.extend", "repro.logic.prove", "Logic", ("extend",)),
    ("logic.proves", "repro.logic.prove", "Logic", ("proves",)),
    ("logic.subtype", "repro.logic.prove", "Logic", ("subtype", "result_subtype")),
    ("logic.theory_session", "repro.logic.prove", "Logic", ("theory_session",)),
    ("theories.entails", "repro.theories.registry", "RegistrySession", ("entails",)),
    ("theories.entails_batch", "repro.theories.registry", "RegistrySession",
     ("entails_batch",)),
    ("solvers.linear", "repro.solvers.linear", "IncrementalConstraintSet",
     ("satisfiable", "entails", "entails_many")),
    ("solvers.sat", "repro.solvers.sat", "IncrementalSatSolver",
     ("check_sat", "check_many")),
    ("solvers.sat", "repro.solvers.bitblast", "BitBlaster", ("check_sat",)),
    ("batch.check_many", "repro.batch.pipeline", None, ("check_many",)),
    ("batch.check_one", "repro.batch.pipeline", None, ("check_one",)),
    ("batch.cache.get_prove", "repro.batch.cache", "ProofCache", ("get_prove",)),
    ("batch.cache.put_prove", "repro.batch.cache", "ProofCache", ("put_prove",)),
    ("batch.cache.flush", "repro.batch.cache", "ProofCache", ("flush",)),
    ("study.analyze_instance", "repro.study.casestudy", None, ("analyze_instance",)),
    ("study.safe_replace", "repro.study.casestudy", None, ("safe_replace",)),
    ("server.client.request", "repro.server.client", "Client", ("request",)),
)

#: per-layer metric → the end-to-end metric and workload it should move
PREDICTIONS: Dict[str, str] = {
    "sexp.read_all.calls": "ops_per_s, p95_ms on study; ~0 elsewhere",
    "sexp.read_all.self_s": "ops_per_s, p95_ms on study; ~0 elsewhere",
    "syntax.expand.self_s": "ops_per_s, p95_ms on study; ~0 elsewhere",
    "syntax.parse_program.calls": "ops_per_s, p95_ms on study",
    "syntax.parse_program.self_s": "ops_per_s, p95_ms on study",
    "checker.check_program.calls": "cold_ops_per_s on batch, ops_per_s on study",
    "checker.check_program.self_s": "cold_ops_per_s on batch, ops_per_s on study",
    "checker.check_program.rejected": "cold_ops_per_s on batch, ops_per_s on study",
    "logic.extend.calls": "cold_ops_per_s on batch, ops_per_s on study",
    "logic.extend.self_s": "cold_ops_per_s on batch, ops_per_s on study",
    "logic.proves.calls": "cold_ops_per_s on batch, ops_per_s on study; p50_ms on serve slightly",
    "logic.proves.self_s": "cold_ops_per_s on batch, ops_per_s on study",
    "logic.proves.hit_ratio": "cold_ops_per_s on batch, ops_per_s on study; p50_ms on serve slightly",
    "logic.subtype.self_s": "cold_ops_per_s on batch, ops_per_s on study",
    "logic.theory_session.self_s": "cold_ops_per_s on batch, ops_per_s on study",
    "logic.session.reuse_ratio": "cold_ops_per_s on batch, ops_per_s on study; p50_ms on serve slightly",
    "theories.entails.calls": "cold_ops_per_s, edit_ops_per_s on batch; <5% of study",
    "theories.entails.self_s": "cold_ops_per_s, edit_ops_per_s on batch; <5% of study",
    "theories.entails_batch.self_s": "cold_ops_per_s, edit_ops_per_s on batch",
    "theories.goals": "cold_ops_per_s, edit_ops_per_s on batch",
    "theories.goals_per_batch": "cold_ops_per_s, edit_ops_per_s on batch",
    "solvers.linear.self_s": "cold_ops_per_s, edit_ops_per_s on batch",
    "solvers.sat.self_s": "cold_ops_per_s, edit_ops_per_s on batch",
    "solvers.simplex.pivots": "cold_ops_per_s, edit_ops_per_s on batch",
    "solvers.cdcl.conflicts": "cold_ops_per_s, edit_ops_per_s on batch",
    "batch.check_one.self_s": "batch only",
    "batch.pool.idle_frac": "batch only",
    "batch.cache.hit_ratio": "edit_ops_per_s on batch",
    "batch.cache.entries_written": "cold_ops_per_s on batch",
    "batch.cache.get_prove.self_s": "edit_ops_per_s on batch (benefit of reads)",
    "batch.cache.put_prove.self_s": "cold_ops_per_s on batch (cost of writes)",
    "batch.cache.flush.self_s": "cold_ops_per_s on batch (cost of writes)",
    "server.lane.busy_s": "ops_per_s, p50_ms, p95_ms on serve",
    "server.lane.utilization": "ops_per_s, p50_ms, p95_ms on serve",
    "server.wait_s": "ops_per_s, p50_ms, p95_ms on serve",
    "server.session.cached_frac": "ops_per_s, p50_ms on serve",
    "server.group.coalesce_ratio": "ops_per_s, p95_ms on serve",
    "server.goal_batcher.merged_frac": "ops_per_s on serve",
    "server.robustness.shed": "failed requests on serve",
    "server.robustness.deadline_exceeded": "failed requests on serve",
    "server.client.retries": "p95_ms on serve",
    "study.safe_replace.self_s": "ops_per_s on study",
    "study.checks_per_site": "ops_per_s on study",
    "trace.overhead_frac": "none (traced wall / untraced wall - 1)",
    "trace.uncovered_frac": "none (share of traced wall no program span covers)",
}


def install(tracer) -> None:
    """Wrap every function in :data:`WRAPPED` (inactive until enabled)."""
    for name, module_name, owner, attributes in WRAPPED:
        module = importlib.import_module(module_name)
        for attribute in attributes:
            if owner is None:
                tracer.wrap_function(module, attribute, name)
            else:
                tracer.wrap_method(getattr(module, owner), attribute, name)


def span_layers(summary) -> Dict[str, float]:
    """Metrics measured by spans."""
    calls, self_s = summary.calls, summary.self_s
    return {
        "sexp.read_all.calls": calls.get("sexp.read_all", 0),
        "sexp.read_all.self_s": self_s("sexp.read_all"),
        "syntax.expand.self_s": self_s("syntax.expand"),
        "syntax.parse_program.calls": calls.get("syntax.parse_program", 0),
        "syntax.parse_program.self_s": self_s("syntax.parse_program"),
        "checker.check_program.calls": calls.get("checker.check_program", 0),
        "checker.check_program.self_s": self_s("checker.check_program"),
        "checker.check_program.rejected": summary.raised.get("checker.check_program", 0),
        "logic.extend.calls": calls.get("logic.extend", 0),
        "logic.extend.self_s": self_s("logic.extend"),
        "logic.proves.self_s": self_s("logic.proves"),
        "logic.subtype.self_s": self_s("logic.subtype"),
        "logic.theory_session.self_s": self_s("logic.theory_session"),
        "theories.entails.calls": calls.get("theories.entails", 0),
        "theories.entails.self_s": self_s("theories.entails"),
        "theories.entails_batch.self_s": self_s("theories.entails_batch"),
        "solvers.linear.self_s": self_s("solvers.linear"),
        "solvers.sat.self_s": self_s("solvers.sat"),
        "batch.check_one.self_s": self_s("batch.check_one"),
        "batch.cache.get_prove.self_s": self_s("batch.cache.get_prove"),
        "batch.cache.put_prove.self_s": self_s("batch.cache.put_prove"),
        "batch.cache.flush.self_s": self_s("batch.cache.flush"),
        "study.safe_replace.self_s": self_s("study.safe_replace"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def engine_layers(stats) -> Dict[str, float]:
    """Metrics read from an ``EngineStats`` (or its ``as_dict()``)."""
    get = stats.get if isinstance(stats, dict) else lambda key, default=0: getattr(stats, key, default)
    solver = get("solver_counters", {}) or {}
    reused = get("session_hits", 0) + get("session_derives", 0)
    return {
        "logic.proves.calls": get("prove_calls", 0),
        "logic.proves.hit_ratio": _ratio(get("prove_hits", 0), get("prove_calls", 0)),
        "logic.session.reuse_ratio": _ratio(reused, reused + get("session_builds", 0)),
        "theories.goals": get("theory_goals", 0),
        "theories.goals_per_batch": _ratio(get("theory_goals", 0), get("theory_batches", 0)),
        "solvers.simplex.pivots": solver.get("simplex.pivots", 0),
        "solvers.cdcl.conflicts": solver.get("cdcl.conflicts", 0),
    }
