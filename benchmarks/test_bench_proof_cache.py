"""Persistent proof-cache costs at 1k, 10k and 100k stored entries.

The batch pipeline's parent flushes the merged worker deltas once per
``check_many`` call, and every worker opens the store cold and reads it
on its first probe, so both costs sit on the critical path of a batch
wave.  For each store size the bench builds a store of that many
``proves`` entries in :data:`BUILD_FLUSHES` flushes, then times, as the
median of :data:`ROUNDS` rounds:

* ``flush_s``: a parent-style handle (opened, never read) absorbs a
  :data:`DELTA`-entry delta and flushes it;
* ``cold_read_s``: opening a new handle and answering its first
  ``get_prove`` (which loads the store);
* ``compact_s``: the parent-style flush that finds more segments than
  the compaction threshold and folds them into one.

``files_per_flush`` counts the ``.json`` names a parent-style flush
creates or rewrites.  Writes ``benchmark-results/run/proof_cache.json``.
"""

import hashlib
import os
import platform
import shutil
import statistics
import tempfile
import time

from perf_common import write_run_artifact

from repro.batch.cache import ProofCache

SIZES = (1_000, 10_000, 100_000)
BUILD_FLUSHES = 8
DELTA = 500
ROUNDS = 5
#: flushes tried per round before giving up on seeing a compaction
COMPACT_ATTEMPTS = 40


def _key(n):
    return hashlib.sha256(b"%d" % n).hexdigest()


def _files(cache_dir):
    """``.json`` segment names mapped to their inode numbers."""
    shard_dir = os.path.join(cache_dir, "shards")
    return {
        name: os.stat(os.path.join(shard_dir, name)).st_ino
        for name in os.listdir(shard_dir)
        if name.endswith(".json")
    }


def _build(cache_dir, size):
    per_flush = size // BUILD_FLUSHES
    for flush in range(BUILD_FLUSHES):
        cache = ProofCache(cache_dir, "bench")
        cache.absorb({_key(n): n % 3 != 0
                      for n in range(flush * per_flush, (flush + 1) * per_flush)})
        cache.flush()


def _delta(start):
    return {_key(n): True for n in range(start, start + DELTA)}


def measure(size, root):
    cache_dir = os.path.join(root, f"store-{size}")
    _build(cache_dir, size)
    flush_s, files, cold_s = [], [], []
    fresh = size
    for _ in range(ROUNDS):
        before = _files(cache_dir)
        start = time.perf_counter()
        parent = ProofCache(cache_dir, "bench")
        parent.absorb(_delta(fresh))
        parent.flush()
        flush_s.append(time.perf_counter() - start)
        after = _files(cache_dir)
        files.append(sum(before.get(name) != inode for name, inode in after.items()))
        fresh += DELTA

        start = time.perf_counter()
        reader = ProofCache(cache_dir, "bench")
        assert reader.get_prove(_key(size - 1)) is not None
        cold_s.append(time.perf_counter() - start)

    compact_s = []
    for _ in range(ROUNDS):
        # parent-style flushes until one finds more segments than the
        # threshold and compacts them (the segment count drops)
        for _ in range(COMPACT_ATTEMPTS):
            segments = len(_files(cache_dir))
            start = time.perf_counter()
            parent = ProofCache(cache_dir, "bench")
            parent.absorb(_delta(fresh))
            parent.flush()
            elapsed = time.perf_counter() - start
            fresh += DELTA
            if len(_files(cache_dir)) < segments:
                compact_s.append(elapsed)
                break
    stored = len(ProofCache(cache_dir, "bench"))
    shutil.rmtree(cache_dir)
    return {
        "entries": size,
        "entries_after": stored,
        "delta": DELTA,
        "rounds": ROUNDS,
        "flush_s": round(statistics.median(flush_s), 6),
        "cold_read_s": round(statistics.median(cold_s), 6),
        "compact_s": round(statistics.median(compact_s), 6) if compact_s else None,
        "files_per_flush": statistics.median(files),
    }


def test_bench_proof_cache(benchmark, capsys):
    root = tempfile.mkdtemp(prefix="proof-cache-bench-")
    try:
        results = benchmark.pedantic(
            lambda: [measure(size, root) for size in SIZES], rounds=1, iterations=1
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    write_run_artifact(
        "proof_cache.json",
        {
            "sizes": results,
            "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    )

    with capsys.disabled():
        print()
        print(f"proof cache: {DELTA}-entry flush, cold open + first read "
              "(median of rounds)")
        for row in results:
            print(
                f"  {row['entries']:>7} entries  flush {row['flush_s'] * 1e3:8.2f} ms"
                f"  files/flush {row['files_per_flush']:>5}"
                f"  cold read {row['cold_read_s'] * 1e3:8.2f} ms"
                f"  compacting flush {(row['compact_s'] or 0) * 1e3:8.2f} ms"
            )

    for row in results:
        assert row["entries_after"] >= row["entries"] + DELTA * ROUNDS
        assert row["flush_s"] > 0 and row["cold_read_s"] > 0
        assert row["files_per_flush"] == 1
        assert row["compact_s"] is not None
