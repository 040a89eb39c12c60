"""The ``study`` workload: the paper's section 5 vector-access case study.

Three libraries (math, plot, pict3d) at full scale: about 890 programs
and exactly 1085 access sites, whatever the seed, because the per-tier
quotas fix them; ``--seed`` is mixed into each library profile's seed,
which changes every program's constants and names.

One pass runs every program on a fresh engine, single-threaded, in a
process forked for that pass, in two steps per program:

* cold: the program as written is expanded, parsed and checked — the
  engine has not seen it;
* edit: ``analyze_instance`` re-checks it once per access site with
  that one access swapped for its safe counterpart.

Known answers, independent of the checker: each program checks unless
its idiom is one the checker does not implement (then it raises
``UnsupportedFeature``); every site lands in the tier the corpus
assigned it; a pass covers 1085 sites of which 577 (53.18%) are
verified automatically.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List

from repro.checker.check import Checker
from repro.checker.errors import CheckError, UnsupportedFeature
from repro.corpus.generator import build_library
from repro.corpus.patterns import PatternInstance
from repro.corpus.profiles import PROFILES, LibraryProfile
from repro.logic.prove import Logic
from repro.sexp.reader import read_all
from repro.study import casestudy
from repro.syntax.macros import expand
from repro.syntax.parser import ParseError, parse_program

from .common import (
    Context,
    Outcome,
    peak_rss_with_children_mb,
    percentile,
    timed_median,
    uncorrected_note,
)
from .speed import factor

EXPECTED_SITES = 1085
EXPECTED_AUTO = 577  # 53.18% of 1085
#: passes per run at least, so every program has a median of three
MIN_PASSES = 3
#: programs between two speed probes
CHUNK = 100


def build_corpus(seed: int) -> List[PatternInstance]:
    programs: List[PatternInstance] = []
    for _name, profile in sorted(PROFILES.items()):
        mixed = LibraryProfile(
            name=profile.name,
            loc_target=profile.loc_target,
            tier_ops=dict(profile.tier_ops),
            seed=profile.seed * 1_000_003 + seed,
        )
        programs.extend(build_library(mixed).programs)
    return programs


def _check_base(instance: PatternInstance, logic: Logic) -> str:
    forms = [expand(form) for form in read_all(instance.base)]
    try:
        Checker(logic=logic).check_program(parse_program(forms))
    except UnsupportedFeature:
        return "unsupported"
    except (CheckError, ParseError) as exc:
        return f"rejected: {str(exc).splitlines()[0]}"
    return "ok"


@dataclass
class PassResult:
    """Timings and answers of one pass over the corpus."""

    wall_s: float = 0.0
    sites: int = 0
    auto: int = 0
    #: per program, in corpus order, as measured: seconds of the cold
    #: check and of the ``analyze_instance`` call
    cold_s: List[float] = field(default_factory=list)
    edit_s: List[float] = field(default_factory=list)
    #: per program: the speed correction of its chunk
    factors: List[float] = field(default_factory=list)

    def times(self, series: str, corrected: bool = True) -> List[float]:
        """``cold_s`` or ``edit_s``, corrected for machine speed or not."""
        measured = getattr(self, series)
        if not corrected:
            return list(measured)
        return [t * f for t, f in zip(measured, self.factors)]


def run_pass(corpus: List[PatternInstance], out: Outcome, probe, tracer=None):
    """One pass on a fresh engine; returns (PassResult, the engine).

    The speed probe runs after every :data:`CHUNK` programs; each
    program's correction comes from the probes around its chunk.
    """
    result = PassResult()
    logic = Logic()

    def factory() -> Checker:
        return Checker(logic=logic)

    last_probe = probe.sample()
    chunk_start = 0
    started = time.perf_counter()
    for index, instance in enumerate(corpus):
        with tracer.span("bench.program") if tracer else nullcontext():
            t0 = time.perf_counter()
            verdict = _check_base(instance, logic)
            t1 = time.perf_counter()
            observed = casestudy.analyze_instance(instance, factory)
            t2 = time.perf_counter()
        result.cold_s.append(t1 - t0)
        result.edit_s.append(t2 - t1)
        if (index + 1) % CHUNK == 0 or index + 1 == len(corpus):
            now = probe.sample()
            result.factors.extend([factor(last_probe, now)] * (index + 1 - chunk_start))
            chunk_start, last_probe = index + 1, now
        out.attempted += 2
        expected_verdict = (
            "unsupported" if "unimplemented" in instance.expected else "ok"
        )
        if verdict != expected_verdict:
            out.wrong(f"{instance.name}: base {verdict}, expected {expected_verdict}")
        if observed != list(instance.expected):
            out.wrong(f"{instance.name}: tiers {observed} != {instance.expected}")
        result.sites += len(observed)
        result.auto += observed.count("auto")
    result.wall_s = time.perf_counter() - started
    if result.sites != EXPECTED_SITES or result.auto != EXPECTED_AUTO:
        out.wrong(
            f"pass covered {result.sites} sites with {result.auto} auto; "
            f"expected {EXPECTED_SITES} with {EXPECTED_AUTO}"
        )
    return result, logic


def _pass_child(corpus: List[PatternInstance], probe, cpu: int, conn) -> None:
    out = Outcome()
    try:
        os.sched_setaffinity(0, {cpu})
        result, _ = run_pass(corpus, out, probe)
        conn.send((result, out.attempted, out.failed, out.errors))
    except BaseException as exc:  # reported to the parent, which raises
        conn.send(f"{type(exc).__name__}: {exc}")
        raise
    finally:
        conn.close()


def forked_pass(corpus: List[PatternInstance], out: Outcome, probe, number: int) -> PassResult:
    """Pass ``number`` in a child forked from this process.

    Interned terms live in process-wide tables that only grow, so
    passes run back to back in one process get slower; a child forked
    from a parent that never checked anything starts every pass from
    the same state.  The child is pinned to one CPU (passes take the
    CPUs in turn), so the probe times the CPU the work runs on.
    """
    cpus = sorted(os.sched_getaffinity(0))
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(
        target=_pass_child, args=(corpus, probe, cpus[number % len(cpus)], send)
    )
    child.start()
    send.close()
    try:
        message = receive.recv()
    finally:
        receive.close()
        child.join()
    if isinstance(message, str):
        raise RuntimeError(f"study pass failed: {message}")
    result, attempted, failed, errors = message
    out.attempted += attempted
    out.failed += failed
    out.errors.extend(errors[: max(0, 20 - len(out.errors))])
    return result


def time_metrics(passes: List[PassResult], programs: int, sites: int,
                 corrected: bool = True) -> Dict[str, float]:
    """Rates and latency percentiles over the passes.

    Each program's time is its median over the passes: a burst of
    machine noise during one pass does not move it.
    """
    cold = [median(t) for t in zip(*(p.times("cold_s", corrected) for p in passes))]
    edit = [median(t) for t in zip(*(p.times("edit_s", corrected) for p in passes))]
    latencies = [seconds * 1e3 for seconds in edit]
    return {
        "ops_per_s": sites / (sum(cold) + sum(edit)),
        "cold_ops_per_s": programs / sum(cold),
        "edit_ops_per_s": sites / sum(edit),
        "p50_ms": percentile(latencies, 50),
        "p95_ms": percentile(latencies, 95),
    }


def run(ctx: Context) -> Outcome:
    out = Outcome()
    setup_s, raw_setup_s, corpus = timed_median(lambda: build_corpus(ctx.seed), ctx.probe)
    passes: List[PassResult] = []
    deadline = time.perf_counter() + ctx.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(forked_pass(corpus, out, ctx.probe, len(passes)))
    sites = passes[0].sites
    out.metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_with_children_mb()}
    out.metrics.update(time_metrics(passes, len(corpus), sites))
    uncorrected = {"setup_s": raw_setup_s}
    uncorrected.update(time_metrics(passes, len(corpus), sites, corrected=False))
    out.notes.append(uncorrected_note("study", uncorrected))
    out.notes.append(
        f"study: {len(passes)} passes x {len(corpus)} programs, each pass in a "
        f"fresh process; {sites} sites/pass, auto "
        f"{100.0 * passes[0].auto / sites:.2f}%; raw pass walls "
        + ", ".join(f"{p.wall_s:.2f}s" for p in passes)
        + f"; latency samples {len(corpus)} (analyze_instance calls, "
        "median over passes)"
    )
    return out


def run_traced(ctx: Context) -> Outcome:
    """An untraced pass in a child, then a traced pass in this process."""
    from .layers import engine_layers, span_layers

    out = Outcome()
    corpus = build_corpus(ctx.seed)
    untraced = forked_pass(corpus, out, ctx.probe, 0)
    os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[0]})
    tracer = ctx.tracer
    tracer.active = True
    window_start = time.perf_counter_ns()
    traced, logic = run_pass(corpus, out, ctx.probe, tracer)
    window = (window_start, time.perf_counter_ns())
    tracer.active = False
    summary = tracer.summary(window)
    out.layers.update(span_layers(summary))
    out.layers.update(engine_layers(logic.stats))
    checks = summary.calls.get("checker.check_program", 0) - len(corpus)
    out.layers["study.checks_per_site"] = checks / traced.sites
    out.layers["trace.overhead_frac"] = (
        (sum(traced.times("cold_s")) + sum(traced.times("edit_s")))
        / (sum(untraced.times("cold_s")) + sum(untraced.times("edit_s"))) - 1.0
    )
    out.layers["trace.uncovered_frac"] = summary.uncovered_frac
    return out
