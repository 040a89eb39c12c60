"""The ``batch`` workload: CI-style waves through ``repro.batch.check_many``.

The corpus comes from ``repro.fuzz.gen.generate_program``: programs
that are well-typed by construction, each with up to two mutants that
are ill-typed by construction.  Those labels come from
the generator, not the checker, and are the known answers.

The corpus is split into waves.  Each wave runs in two phases with
``jobs = nproc`` forked workers against a fresh persistent cache
directory:

* cold: the wave's well-typed programs are checked and the proof
  cache is written;
* edit: the mutants are checked against the same directory, so the
  cache is read at proof granularity (a mutant's source differs, so
  the whole-module entry never hits).

Writes and reads sit side by side, so a cache change that helps one
phase and hurts the other shows.  The latency of a wave is the time a
caller waits for both phases.  Peak memory is that of the largest pool
worker, where the checking happens.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Dict, List, Tuple

import repro.batch as batch
from repro.fuzz.gen import generate_program
from repro.logic.prove import EngineStats

from .common import (
    NPROC,
    POPULATION_SEED,
    Context,
    Outcome,
    children_peak_rss_mb,
    percentile,
    timed_median,
    uncorrected_note,
)
from .speed import factor

WAVES = 6
PROGRAMS_PER_WAVE = 48
#: each wave runs at least this often, so its time is a median of three
MIN_ROUNDS = 3
MUTANTS_PER_PROGRAM = 2


@dataclass
class Wave:
    programs: List[str]
    mutants: List[str]


def write_corpus(seed: int, root: Path) -> List[Wave]:
    """The fixed population, each wave's programs in a seed-drawn order.

    Checking costs of generated programs are heavy-tailed (a few
    bitvector-heavy programs dominate), so fresh programs per seed
    would make seed-to-seed spread exceed the bounds.  Every seed
    therefore checks the same waves; the seed orders each wave, which
    decides how the round-robin deal splits it between the workers.
    Files already under ``root`` are overwritten.
    """
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    waves = []
    for w in range(WAVES):
        indices = list(range(w * PROGRAMS_PER_WAVE, (w + 1) * PROGRAMS_PER_WAVE))
        rng.shuffle(indices)
        wave = Wave([], [])
        for index in indices:
            spec = generate_program(POPULATION_SEED, index)
            path = root / f"p{index}.rtr"
            path.write_text(spec.source)
            wave.programs.append(str(path))
            for m, mutant in enumerate(spec.mutants[:MUTANTS_PER_PROGRAM]):
                path = root / f"p{index}_m{m}.rtr"
                path.write_text(mutant.source)
                wave.mutants.append(str(path))
        waves.append(wave)
    return waves


@dataclass
class WaveResult:
    #: seconds of each phase, as measured, and their speed corrections
    cold_s: float
    edit_s: float
    cold_factor: float
    edit_factor: float
    stats: EngineStats
    entries_written: int
    edit_hits: int
    edit_misses: int


def run_wave(wave: Wave, cache_dir: Path, out: Outcome, probe) -> WaveResult:
    """Both phases of one wave, with the probes around each phase.

    ``cache_dir`` must not exist yet.  It is left in place: deleting
    files during the run makes the file system's later metadata
    operations stall, so everything is removed when the run ends.  For
    the same reason each phase starts after an untimed ``sync``, so the
    journal commits and block discards that earlier phases caused do
    not land inside it.
    """
    cache_dir.mkdir(parents=True)
    os.sync()
    p0 = probe.sample(slowest=True)
    t0 = time.perf_counter()
    cold = batch.check_many(wave.programs, jobs=NPROC, cache_dir=str(cache_dir))
    t1 = time.perf_counter()
    p1 = probe.sample(slowest=True)
    os.sync()
    p1b = probe.sample(slowest=True)
    t2 = time.perf_counter()
    edit = batch.check_many(wave.mutants, jobs=NPROC, cache_dir=str(cache_dir))
    t3 = time.perf_counter()
    p2 = probe.sample(slowest=True)
    out.attempted += len(cold.verdicts) + len(edit.verdicts)
    for verdict in cold.verdicts:
        if not verdict.ok:
            out.wrong(f"{verdict.path}: well-typed program rejected: {verdict.error}")
    for verdict in edit.verdicts:
        if verdict.ok:
            out.wrong(f"{verdict.path}: ill-typed mutant accepted")
    missing = len(wave.programs) + len(wave.mutants) - len(cold.verdicts) - len(edit.verdicts)
    for _ in range(missing):
        out.wrong("a verdict is missing")
    return WaveResult(
        cold_s=t1 - t0,
        edit_s=t3 - t2,
        cold_factor=factor(p0, p1),
        edit_factor=factor(p1b, p2),
        stats=EngineStats().merge(cold.stats).merge(edit.stats),
        entries_written=cold.cache_entries_written + edit.cache_entries_written,
        edit_hits=edit.stats.persist_hits,
        edit_misses=edit.stats.persist_misses,
    )


def _setup(ctx: Context, dirs) -> List[Wave]:
    # Every repetition writes the corpus over the same files: creating
    # 864 files costs up to three times more or less depending on the
    # state earlier runs left the disk in, which would swamp the rest.
    waves = write_corpus(ctx.seed, ctx.work_dir / "corpus")
    # warm-up: the first fork pool and lazily imported modules, without
    # run_wave's probes and syncs, which a user does not pay
    warm_dir = str(next(dirs))
    batch.check_many(waves[0].programs[:NPROC], jobs=NPROC, cache_dir=warm_dir)
    batch.check_many(waves[0].mutants[:NPROC], jobs=NPROC, cache_dir=warm_dir)
    return waves


def _fresh_dirs(ctx: Context):
    """New directory paths under the run's work directory, one per use."""
    return (ctx.work_dir / f"d{n}" for n in itertools.count())


def time_metrics(rounds: List[List[WaveResult]], programs: int, mutants: int,
                 corrected: bool = True) -> Dict[str, float]:
    """Rates and latency percentiles over the waves.

    Each wave's phase times are medians over its rounds: a burst of
    machine noise during one round does not move them.
    """

    def phase(r: WaveResult, name: str) -> float:
        seconds = getattr(r, f"{name}_s")
        return seconds * getattr(r, f"{name}_factor") if corrected else seconds

    cold = [median(phase(r, "cold") for r in results) for results in rounds]
    edit = [median(phase(r, "edit") for r in results) for results in rounds]
    latencies = [(c + e) * 1e3 for c, e in zip(cold, edit)]
    return {
        "ops_per_s": (programs + mutants) / (sum(cold) + sum(edit)),
        "cold_ops_per_s": programs / sum(cold),
        "edit_ops_per_s": mutants / sum(edit),
        "p50_ms": percentile(latencies, 50),
        "p95_ms": percentile(latencies, 95),
    }


def run(ctx: Context) -> Outcome:
    out = Outcome()
    dirs = _fresh_dirs(ctx)
    setup_s, raw_setup_s, waves = timed_median(lambda: _setup(ctx, dirs), ctx.probe)
    rounds: List[List[WaveResult]] = [[] for _ in waves]
    deadline = time.perf_counter() + ctx.seconds
    done = 0
    while done < MIN_ROUNDS * len(waves) or time.perf_counter() < deadline:
        index = done % len(waves)
        rounds[index].append(run_wave(waves[index], next(dirs), out, ctx.probe))
        done += 1
    programs = sum(len(w.programs) for w in waves)
    mutants = sum(len(w.mutants) for w in waves)
    out.metrics = {"setup_s": setup_s, "peak_rss_mb": children_peak_rss_mb()}
    out.metrics.update(time_metrics(rounds, programs, mutants))
    uncorrected = {"setup_s": raw_setup_s}
    uncorrected.update(time_metrics(rounds, programs, mutants, corrected=False))
    out.notes.append(uncorrected_note("batch", uncorrected))
    out.notes.append(
        f"batch: {len(waves)} waves x {done // len(waves)}+ rounds, "
        f"{programs} programs + {mutants} mutants per round, jobs={NPROC}; "
        f"latency samples {len(waves)} (waves, median over rounds)"
    )
    return out


def run_traced(ctx: Context) -> Outcome:
    """A warm-up unit, an untraced unit and a traced unit of waves."""
    from .layers import engine_layers, span_layers

    out = Outcome()
    dirs = _fresh_dirs(ctx)
    waves = write_corpus(ctx.seed, next(dirs))

    def unit() -> Tuple[float, List[WaveResult]]:
        done = [run_wave(w, next(dirs), out, ctx.probe) for w in waves]
        return sum(r.cold_s * r.cold_factor + r.edit_s * r.edit_factor for r in done), done

    unit()
    untraced_s, _ = unit()
    tracer = ctx.tracer
    tracer.active = True
    window_start = time.perf_counter_ns()
    traced_s, done = unit()
    window = (window_start, time.perf_counter_ns())
    tracer.active = False
    summary = tracer.summary(window)
    stats = EngineStats()
    for result in done:
        stats.merge(result.stats)
    hits = sum(r.edit_hits for r in done)
    misses = sum(r.edit_misses for r in done)
    pool_s = NPROC * summary.total_s("batch.check_many")
    out.layers.update(span_layers(summary))
    out.layers.update(engine_layers(stats))
    out.layers["batch.pool.idle_frac"] = (
        1.0 - summary.total_s("batch.check_one") / pool_s if pool_s else 0.0
    )
    out.layers["batch.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out.layers["batch.cache.entries_written"] = sum(r.entries_written for r in done)
    out.layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    out.layers["trace.uncovered_frac"] = summary.uncovered_frac
    return out
