"""Front-end throughput: sources per second through read + expand + parse.

The §5 harness reads, expands and parses every module about 2.5 times
(once as written, once per checked site swap), and the batch pipeline
and the daemon parse every source they check, so the front end's speed
is a direct share of both.  Two source sets:

* ``study``: the study corpus at seed 1 — every base, annotated and
  modified source (the ``study`` benchmark workload's corpus);
* ``batch``: ``generate_program(2016, i)`` for ``i < 300`` with all of
  its mutants (the ``batch`` workload's population).

Each round reads every source, expands every form and parses the
expanded forms — the path the §5 harness takes.  The figure is the
median of :data:`ROUNDS` rounds after one untimed warm-up round, on
one thread; the artifact records the core count and interpreter next
to it.  Writes ``benchmark-results/run/front_end.json``.
"""

import os
import platform
import statistics
import time

from perf_common import write_run_artifact

from repro.corpus.generator import build_library
from repro.corpus.profiles import PROFILES, LibraryProfile
from repro.fuzz.gen import generate_program
from repro.sexp.reader import read_all
from repro.syntax.macros import expand
from repro.syntax.parser import parse_program

ROUNDS = 5


def study_sources(seed=1):
    sources = []
    for _name, profile in sorted(PROFILES.items()):
        mixed = LibraryProfile(
            name=profile.name,
            loc_target=profile.loc_target,
            tier_ops=dict(profile.tier_ops),
            seed=profile.seed * 1_000_003 + seed,
        )
        for instance in build_library(mixed).programs:
            sources.extend(
                source
                for source in (instance.base, instance.annotated, instance.modified)
                if source is not None
            )
    return sources


def batch_sources(seed=2016, count=300):
    sources = []
    for index in range(count):
        spec = generate_program(seed, index)
        sources.append(spec.source)
        sources.extend(mutant.source for mutant in spec.mutants)
    return sources


def front_end(sources):
    for source in sources:
        parse_program([expand(form) for form in read_all(source)])


def measure(sources):
    front_end(sources)  # warm-up: lazily built tables, atom cache
    seconds = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        front_end(sources)
        seconds.append(time.perf_counter() - start)
    median_s = statistics.median(seconds)
    return {
        "sources": len(sources),
        "bytes": sum(len(source) for source in sources),
        "rounds": ROUNDS,
        "round_s": [round(s, 6) for s in seconds],
        "median_s": round(median_s, 6),
        "sources_per_s": round(len(sources) / median_s, 1),
    }


def test_bench_front_end(benchmark, capsys):
    sets = {"study": study_sources(), "batch": batch_sources()}

    def run():
        return {name: measure(sources) for name, sources in sets.items()}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    write_run_artifact(
        "front_end.json",
        {
            "sets": results,
            "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    )

    with capsys.disabled():
        print()
        print("front end: read + expand + parse, sources/s (median of rounds)")
        for name, row in results.items():
            print(
                f"  {name:<6} {row['sources']:>5} sources  "
                f"{row['median_s'] * 1000:8.1f} ms  {row['sources_per_s']:>9.1f}/s"
            )

    assert results["study"]["sources"] > 1000
    assert results["batch"]["sources"] > 300
    for row in results.values():
        assert row["sources_per_s"] > 0
