"""Batch-checking throughput: programs/sec at jobs=1 vs jobs=4.

Two contracts are measured, not assumed:

* verdicts must be identical however the corpus is sharded, and on
  hardware with ≥4 cores the 4-worker run must clear 2x the
  sequential throughput (hardware-gated — a 1-core container cannot
  parallelise anything and must not fail CI for it);
* the single-core rate must beat the committed pre-optimization
  baseline (``benchmark-results/perf_baseline.json``) by the floor
  below, after scaling the baseline by the calibration spin so the
  gate follows the machine rather than the wall clock.  The spin is
  timed right before and after every jobs=1 repetition, and each
  repetition is scaled by the spins beside it: on a shared box, load
  that slows one repetition slows its spins too.  The
  profile-guided kernel PR measured 1.6–1.7x over its baseline on the
  reference container (the issue aimed for 3x; the honest measured
  multiple is recorded in the JSON artifact every run); the gate floor
  sits under that with margin for timer noise.
"""

import json
import os
import time

import pytest

from perf_common import calibration_spin_seconds, load_baseline, write_run_artifact

from repro.batch import check_many
from repro.fuzz.gen import generate_program
from repro.logic.prove import Logic

CORPUS_SIZE = 200
CORPUS_SEED = 2016

#: required single-core speedup over the committed baseline (the
#: measured multiple on the reference container was 1.6-1.7x)
REQUIRED_SPEEDUP = 1.35


@pytest.fixture(scope="module")
def corpus_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("batch-corpus")
    paths = []
    for index in range(CORPUS_SIZE):
        spec = generate_program(CORPUS_SEED, index)
        path = root / f"prog{index:04}.rkt"
        path.write_text(spec.source)
        paths.append(str(path))
    return paths


def _timed(paths, jobs):
    start = time.perf_counter()
    report = check_many(paths, jobs=jobs, logic=Logic() if jobs == 1 else None)
    elapsed = time.perf_counter() - start
    return report, elapsed


def _paired_repetitions(paths, baseline_spin, repetitions=3):
    """(report, seconds, machine scale) per jobs=1 repetition.

    The spin is timed before and after each repetition; a repetition's
    machine scale is the baseline spin over the mean of those two.
    """
    pairs = []
    spin_before = calibration_spin_seconds()
    for _ in range(repetitions):
        report, elapsed = _timed(paths, jobs=1)
        spin_after = calibration_spin_seconds()
        scale = baseline_spin / ((spin_before + spin_after) / 2)
        pairs.append((report, elapsed, scale))
        spin_before = spin_after
    return pairs


def test_bench_batch_throughput(benchmark, corpus_paths, capsys):
    # Warm interpreter/caches, then take the best of three paired
    # sequential runs — single-core rates on shared machines are noisy
    # and the gate should measure the code, not a scheduler hiccup.
    check_many(corpus_paths[:30], jobs=1, logic=Logic())
    baseline = load_baseline()
    pairs = _paired_repetitions(
        corpus_paths, baseline["calibration_spin_seconds"]
    )
    sequential = pairs[0][0]
    seq_seconds = min(elapsed for _, elapsed, _ in pairs)
    parallel, par_seconds = _timed(corpus_paths, jobs=4)

    # Hard invariant on any hardware: sharding never changes a verdict.
    assert [(v.path, v.ok, v.error) for v in sequential.verdicts] == [
        (v.path, v.ok, v.error) for v in parallel.verdicts
    ]

    seq_rate = len(corpus_paths) / seq_seconds
    par_rate = len(corpus_paths) / par_seconds
    speedup = par_rate / seq_rate
    cores = os.cpu_count() or 1

    base_rate = baseline["batch_jobs1_programs_per_sec"]
    # per pair: the repetition's rate over the baseline rate, scaled by
    # the machine speed that repetition's own spins measured
    paired = [
        (len(corpus_paths) / elapsed / (base_rate * scale), scale)
        for _, elapsed, scale in pairs
    ]
    speedup_vs_baseline, scale = max(paired)
    scaled_baseline_rate = base_rate * scale

    results = {
        "corpus_programs": len(corpus_paths),
        "cpu_count": cores,
        "jobs1_seconds": round(seq_seconds, 3),
        "jobs4_seconds": round(par_seconds, 3),
        "jobs1_programs_per_sec": round(seq_rate, 2),
        "jobs4_programs_per_sec": round(par_rate, 2),
        "speedup_jobs4_over_jobs1": round(speedup, 3),
        "baseline_jobs1_programs_per_sec": base_rate,
        "machine_scale_vs_baseline": round(scale, 3),
        "speedup_vs_baseline": round(speedup_vs_baseline, 3),
        "paired_speedups_vs_baseline": [round(r, 3) for r, _ in paired],
    }
    write_run_artifact("batch_throughput.json", results)

    with capsys.disabled():
        print()
        print(
            f"batch throughput: jobs=1 {seq_rate:7.1f} prog/s | "
            f"jobs=4 {par_rate:7.1f} prog/s | "
            f"speedup {speedup:4.2f}x on {cores} core(s) | "
            f"{speedup_vs_baseline:4.2f}x vs baseline"
        )

    # Time one representative unit for the pytest-benchmark artifact.
    sample = corpus_paths[:20]
    benchmark(lambda: check_many(sample, jobs=1, logic=Logic()))

    assert speedup_vs_baseline >= REQUIRED_SPEEDUP, (
        f"single-core throughput regressed: "
        f"{speedup_vs_baseline * scaled_baseline_rate:.1f} prog/s is "
        f"{speedup_vs_baseline:.2f}x the scaled baseline "
        f"({scaled_baseline_rate:.1f} prog/s), need ≥{REQUIRED_SPEEDUP}x "
        f"({json.dumps(results)})"
    )

    if cores >= 4:
        assert speedup >= 2.0, (
            f"expected ≥2x at jobs=4 on {cores} cores, got {speedup:.2f}x "
            f"({json.dumps(results)})"
        )


def test_bench_cache_warm_rerun(corpus_paths, tmp_path_factory, capsys):
    """Persistent-cache effect: a warm re-run must beat the cold run."""
    cache_dir = str(tmp_path_factory.mktemp("proof-cache"))
    _, cold_seconds = _timed_with_cache(corpus_paths, cache_dir)
    warm_report, warm_seconds = _timed_with_cache(corpus_paths, cache_dir)
    assert all(v.from_cache for v in warm_report.verdicts)
    with capsys.disabled():
        print(
            f"\npersistent cache: cold {cold_seconds:6.2f}s → "
            f"warm {warm_seconds:6.2f}s "
            f"({cold_seconds / max(warm_seconds, 1e-9):5.1f}x)"
        )
    assert warm_seconds < cold_seconds


def _timed_with_cache(paths, cache_dir):
    start = time.perf_counter()
    report = check_many(paths, jobs=1, logic=Logic(), cache_dir=cache_dir)
    return report, time.perf_counter() - start
