"""Textual reports matching the paper's evaluation artifacts.

Beyond the paper's tables, :func:`engine_stats_table` renders the
incremental proof engine's counters (cache hit rates, theory-session
reuse, per-theory query counts) — the observability surface for the
``--stats`` CLI flag and the benchmark harness.
"""

from __future__ import annotations

from typing import Dict, List

from ..corpus.profiles import PAPER_CORPUS, PAPER_FIGURE9
from ..logic.prove import EngineStats
from ..tr.intern import intern_stats
from .casestudy import LibraryResult, StudyResult

__all__ = [
    "figure9_table",
    "corpus_table",
    "math_categories_table",
    "headline",
    "engine_stats_table",
    "fuzz_table",
    "server_latency_table",
    "bug_study_table",
]

_ORDER = ("plot", "pict3d", "math")


def figure9_table(result: StudyResult) -> str:
    """Figure 9: % of vector ops verifiable, stacked by tier."""
    lines: List[str] = []
    lines.append("Figure 9 — safe-vec-ref case study  (measured vs paper)")
    lines.append(
        f"{'library':<10}{'automatic':>22}{'+annotations':>22}{'+modifications':>22}"
    )
    for name in _ORDER:
        if name not in result.libraries:
            continue
        lib = result.libraries[name]
        paper = PAPER_FIGURE9[name]
        row = f"{name:<10}"
        for tier, key in (
            ("auto", "auto"),
            ("annotation", "annotation"),
            ("modification", "modification"),
        ):
            measured = lib.percentage(tier)
            row += f"{measured:>10.0f}% ({paper[key]:>4.0f}%)"
        lines.append(row)
    lines.append("(parenthesised numbers are the paper's)")
    return "\n".join(lines)


def corpus_table(result: StudyResult) -> str:
    """The §5 in-text corpus statistics (LoC and unique vector ops)."""
    lines = ["Corpus statistics (measured vs paper)"]
    lines.append(f"{'library':<10}{'LoC':>18}{'vector ops':>22}")
    total_loc = total_paper_loc = total_ops = total_paper_ops = 0
    for name in _ORDER:
        if name not in result.libraries:
            continue
        lib = result.libraries[name]
        paper_loc, paper_ops = PAPER_CORPUS[name]
        lines.append(
            f"{name:<10}{lib.loc:>9} ({paper_loc:>6}){lib.ops:>13} ({paper_ops:>4})"
        )
        total_loc += lib.loc
        total_paper_loc += paper_loc
        total_ops += lib.ops
        total_paper_ops += paper_ops
    lines.append(
        f"{'total':<10}{total_loc:>9} ({total_paper_loc:>6})"
        f"{total_ops:>13} ({total_paper_ops:>4})"
    )
    return "\n".join(lines)


def math_categories_table(result: StudyResult) -> str:
    """§5.1: the category breakdown for the math library."""
    if "math" not in result.libraries:
        return "math library not analysed"
    lib = result.libraries["math"]
    paper = {
        "auto": 25.0,
        "annotation": 34.0,
        "modification": 13.0,
        "beyond-scope": 22.0,
        "unimplemented": 6.0,
    }
    lines = ["§5.1 math library — category breakdown (measured vs paper)"]
    for tier, label in (
        ("auto", "Automatically verified"),
        ("annotation", "Annotations added"),
        ("modification", "Code modified"),
        ("beyond-scope", "Beyond our scope"),
        ("unimplemented", "Unimplemented features"),
    ):
        lines.append(
            f"  {label:<26}{lib.percentage(tier):>6.0f}%   (paper: {paper[tier]:>4.0f}%)"
        )
    unsafe_ops = lib.tier_counts.get("unsafe", 0)
    lines.append(f"  {'Unsafe code':<26}{unsafe_ops:>5} ops  (paper:    2 ops)")
    verified = sum(lib.percentage(t) for t in ("auto", "annotation", "modification"))
    lines.append(f"  {'Total verifiable':<26}{verified:>6.0f}%   (paper:   72%)")
    return "\n".join(lines)


def headline(result: StudyResult) -> str:
    """§1/§5 headline: ~50% verified automatically, corpus-wide."""
    return (
        f"Automatically verified vector accesses across the corpus: "
        f"{result.auto_percentage():.0f}% of {result.total_ops} ops "
        f"(paper: ≈50% of 1085 ops)"
    )


def fuzz_table(report) -> str:
    """Campaign statistics for a :class:`repro.fuzz.runner.FuzzReport`.

    Accepts the report duck-typed so this module needs no import of the
    fuzz subsystem (the CLI hands us the real thing).
    """
    cfg = report.config
    lines = [
        "Differential fuzzing campaign",
        f"  {'seed / count / shards':<24}{cfg.seed} / {cfg.count} / {cfg.shards}",
        f"  {'checker under test':<24}{cfg.checker}",
        f"  {'programs generated':<24}{report.programs:>8}",
        f"  {'accepted (well-typed)':<24}{report.accepted:>8}",
        f"  {'evaluated cleanly':<24}{report.evaluated:>8}",
        f"  {'model-checked defs':<24}{report.model_checked:>8}",
        f"  {'mutants rejected':<24}{report.mutants_rejected:>8} / {report.mutants_checked}",
        f"  {'violations':<24}{len(report.violations):>8}",
    ]
    if report.features:
        lines.append("  feature coverage:")
        for feature, count in sorted(report.features.items()):
            lines.append(f"    {feature:<22}{count:>8} programs")
    coverage = getattr(report, "coverage", None)
    if coverage:
        lines.append("  engine coverage:")
        lines.append(f"    {'points reached':<22}{coverage.get('points', 0):>8}")
        corpus = coverage.get("corpus") or []
        lines.append(f"    {'novel seeds (corpus)':<22}{len(corpus):>8}")
        lines.append(f"    coverage digest       {coverage.get('digest', '')}")
        weights = coverage.get("family_weights") or {}
        for shard in sorted(weights):
            ranked = sorted(
                weights[shard].items(), key=lambda kv: (-kv[1], kv[0])
            )[:3]
            top = ", ".join(f"{name} {weight:g}" for name, weight in ranked)
            lines.append(f"    shard {shard} top weights  {top}")
    lines.append(f"  {'digest':<24}{report.digest()}")
    return "\n".join(lines)


def server_latency_table(results: Dict[str, object]) -> str:
    """Served-vs-cold check latency, the daemon's raison d'être.

    ``results`` is the artifact written by
    ``benchmarks/test_bench_server_latency.py``: per-mode ``p50_ms`` /
    ``p95_ms`` / ``mean_ms`` over the same corpus slice, where *cold*
    is one ``repro check`` process per module (interpreter + engine
    start-up every time) and *warm* is per-module requests against a
    resident ``repro serve`` daemon.
    """
    modes = [
        ("cold", "cold process / check"),
        ("warm", "warm daemon / check"),
    ]
    lines = [
        "Checking service — served vs cold per-module latency",
        f"  corpus: {results.get('corpus_programs', '?')} modules"
        f"  (seed {results.get('corpus_seed', '?')})",
        f"  {'mode':<26}{'p50':>10}{'p95':>10}{'mean':>10}",
    ]
    for key, label in modes:
        mode = results.get(key)
        if not isinstance(mode, dict):
            continue
        lines.append(
            f"  {label:<26}"
            f"{mode.get('p50_ms', 0.0):>8.1f}ms"
            f"{mode.get('p95_ms', 0.0):>8.1f}ms"
            f"{mode.get('mean_ms', 0.0):>8.1f}ms"
        )
    speedup = results.get("speedup_warm_over_cold_p50")
    if speedup is not None:
        lines.append(f"  warm daemon speedup (p50): {speedup:.1f}x")
    return "\n".join(lines)


def server_saturation_table(results: Dict[str, object]) -> str:
    """Clients × lanes throughput, the multi-lane daemon's honesty table.

    ``results`` is the artifact written by
    ``benchmarks/test_bench_server_saturation.py``: one row per
    (clients, lanes) point with ``requests_per_second``.  The ratio
    column is multi-lane over single-lane at the same client count.
    Lanes are processes, so the ratio can exceed 1 up to the core
    count; the gate the table backs is "never worse beyond noise".
    """
    matrix = results.get("matrix") or []
    multi = results.get("multi_lanes", "?")
    lines = [
        "Checking service — saturation throughput (clients × lanes)",
        f"  corpus: {results.get('corpus_programs', '?')} modules"
        f"  (seed {results.get('corpus_seed', '?')}),"
        f" {results.get('requests_per_client', '?')} requests/client,"
        f" {results.get('cpu_count', '?')} cpus",
        f"  {'clients':>9}{'1 lane':>14}{f'{multi} lanes':>14}{'ratio':>9}",
    ]
    by_key = {}
    for row in matrix:
        if isinstance(row, dict):
            by_key[(row.get("clients"), row.get("lanes"))] = row
    client_counts = sorted({c for c, _ in by_key})
    for clients in client_counts:
        single = by_key.get((clients, 1), {}).get("requests_per_second", 0.0)
        fleet = by_key.get((clients, multi), {}).get("requests_per_second", 0.0)
        ratio = fleet / single if single else 0.0
        lines.append(
            f"  {clients:>9}{single:>10.1f}ips{fleet:>10.1f}ips{ratio:>8.2f}x"
        )
    gate = results.get("min_ratio_gate")
    median_gate = results.get("min_median_ratio_gate")
    if gate is not None:
        line = f"  gate: multi-lane ≥ {gate}x single-lane at every point"
        if median_gate is not None:
            line += f", median ratio ≥ {median_gate}"
        lines.append(line)
    return "\n".join(lines)


def bug_study_table(records=None) -> str:
    """The committed bug catalog, rendered (``repro.study.bugs``).

    ``records`` defaults to :data:`repro.study.bugs.BUG_CATALOG`; the
    farm CLI also renders freshly triaged groups through the same
    shape before they are promoted to catalog entries.
    """
    if records is None:
        from .bugs import BUG_CATALOG

        records = BUG_CATALOG
    fixed = sum(1 for r in records if r.status == "fixed")
    audited = sum(1 for r in records if r.status == "survived-audit")
    lines = [
        "Fuzz-farm bug catalog",
        f"  {len(records)} entries: {fixed} fixed, {audited} survived audit",
    ]
    for record in records:
        lines.append("")
        lines.append(f"  {record.bug_id}  [{record.status}]  {record.title}")
        lines.append(f"    category    {record.category}   oracle: {record.oracle}")
        lines.append(f"    symptom     {record.symptom}")
        lines.append(f"    root cause  {record.root_cause}")
        lines.append(f"    repro       {record.repro}")
        lines.append(f"    first seen  {record.first_seen}")
        lines.append(f"    pinned by   {record.regression_test}")
    return "\n".join(lines)


def engine_stats_table(stats: EngineStats) -> str:
    """The incremental proof engine's counters, rendered as a table."""
    lines = ["Incremental proof engine statistics"]
    lines.append(
        f"  {'proof cache':<22}{stats.prove_hits:>8} hits /"
        f"{stats.prove_calls:>8} queries  ({stats.prove_hit_rate:5.1f}%)"
    )
    lines.append(
        f"  {'subtype cache':<22}{stats.subtype_hits:>8} hits /"
        f"{stats.subtype_calls:>8} queries  ({stats.subtype_hit_rate:5.1f}%)"
    )
    lines.append(
        f"  {'lookup cache':<22}{stats.lookup_hits:>8} hits /"
        f"{stats.lookup_calls:>8} queries  ({stats.lookup_hit_rate:5.1f}%)"
    )
    sessions_total = stats.session_hits + stats.session_builds
    lines.append(
        f"  {'theory sessions':<22}{stats.session_hits:>8} reused /"
        f"{stats.session_builds:>6} built  (of {sessions_total})"
    )
    lines.append(f"  {'theory goals':<22}{stats.theory_goals:>8}")
    for name in sorted(stats.theory_queries):
        lines.append(
            f"    {name + ' queries':<20}{stats.theory_queries[name]:>8}"
        )
    if stats.solver_counters:
        lines.append("  solver cores")
        for name in sorted(stats.solver_counters):
            lines.append(f"    {name:<20}{stats.solver_counters[name]:>8}")
    # budget aborts and skipped cache shards ride in rule_hits under
    # reserved prefixes; render them as robustness, not kernel rules
    robust = {
        name: count
        for name, count in stats.rule_hits.items()
        if name.startswith(("budget.", "cache."))
    }
    rules = {
        name: count
        for name, count in stats.rule_hits.items()
        if name not in robust
    }
    if rules:
        lines.append("  kernel rules")
        for name in sorted(rules):
            lines.append(f"    {name:<20}{rules[name]:>8}")
    if robust:
        lines.append("  robustness")
        for name in sorted(robust):
            lines.append(f"    {name:<20}{robust[name]:>8}")
    persist_total = stats.persist_hits + stats.persist_misses
    if persist_total:
        lines.append(
            f"  {'persistent cache':<22}{stats.persist_hits:>8} hits /"
            f"{persist_total:>8} probes  "
            f"({EngineStats._rate(stats.persist_hits, persist_total):5.1f}%)"
        )
    interning = intern_stats()
    lines.append(
        f"  {'interned nodes':<22}{interning['nodes']:>8} distinct /"
        f"{interning['shared']:>8} shared"
    )
    return "\n".join(lines)
