"""Corruption-recovery tests for the persistent proof cache.

A crash mid-flush (or a hostile disk) can leave a truncated
``meta.json``, a stranded ``.tmp`` file, or a garbage shard.  The
cache must treat all of them as "entry absent": checks succeed by
recomputing, the damage is counted, and the next flush rewrites the
shard whole.
"""

import json
import os
import time

from repro.batch import check_many, logic_config_key
from repro.batch.cache import ProofCache
from repro.logic.prove import Logic

GOOD = """
(: max : [x : Int] [y : Int]
   -> [z : Int #:where (and (>= z x) (>= z y))])
(define (max x y) (if (> x y) x y))
"""


def _prime(cache_dir, tmp_path):
    """Flush one checked module into the cache; returns its path."""
    module = tmp_path / "good.rkt"
    module.write_text(GOOD)
    report = check_many([str(module)], jobs=1, cache_dir=str(cache_dir),
                        logic=Logic())
    assert all(v.ok for v in report.verdicts)
    return module


def _shard_paths(cache_dir):
    shard_dir = os.path.join(str(cache_dir), "shards")
    return sorted(
        os.path.join(shard_dir, name)
        for name in os.listdir(shard_dir)
        if name.endswith(".json")
    )


class TestTruncatedMeta:
    def test_check_succeeds_and_meta_is_repaired(self, tmp_path):
        cache_dir = tmp_path / "cache"
        module = _prime(cache_dir, tmp_path)
        meta = cache_dir / "meta.json"
        meta.write_text('{"format"')  # killed mid-write
        report = check_many([str(module)], jobs=1, cache_dir=str(cache_dir),
                            logic=Logic())
        assert all(v.ok for v in report.verdicts)
        # opening rewrote a valid meta.json
        assert json.loads(meta.read_text())["format"] >= 1

    def test_truncated_meta_is_counted(self, tmp_path):
        cache_dir = tmp_path / "cache"
        _prime(cache_dir, tmp_path)
        (cache_dir / "meta.json").write_text('{"format"')
        cache = ProofCache(str(cache_dir))
        assert cache.shards_skipped == 1


class TestGarbageShard:
    def test_check_succeeds_over_garbage_shards(self, tmp_path):
        cache_dir = tmp_path / "cache"
        module = _prime(cache_dir, tmp_path)
        shards = _shard_paths(cache_dir)
        assert shards, "priming flushed no shards"
        for path in shards:
            with open(path, "w") as handle:
                handle.write('{"torn": tru')  # mid-token truncation
        report = check_many([str(module)], jobs=1, cache_dir=str(cache_dir),
                            logic=Logic())
        assert all(v.ok for v in report.verdicts)

    def test_garbage_shard_is_counted_and_served_empty(self, tmp_path):
        cache_dir = tmp_path / "cache"
        _prime(cache_dir, tmp_path)
        victim = _shard_paths(cache_dir)[0]
        with open(victim, "w") as handle:
            handle.write("not json at all")
        cache = ProofCache(str(cache_dir))
        rule_hits = {}
        cache.bind_stats(rule_hits)
        key_prefix = os.path.basename(victim)[:2]
        assert cache.get_prove(key_prefix + "0" * 62) is None
        assert cache.shards_skipped == 1
        assert rule_hits["cache.shard-skipped"] == 1
        # the same shard is not re-counted on every probe
        assert cache.get_prove(key_prefix + "1" * 62) is None
        assert cache.shards_skipped == 1

    def test_wrong_shape_shard_is_skipped(self, tmp_path):
        cache_dir = tmp_path / "cache"
        _prime(cache_dir, tmp_path)
        victim = _shard_paths(cache_dir)[0]
        with open(victim, "w") as handle:
            json.dump([1, 2, 3], handle)  # valid JSON, not a dict
        cache = ProofCache(str(cache_dir))
        assert cache.get_prove(os.path.basename(victim)[:2] + "0" * 62) is None
        assert cache.shards_skipped == 1

    def test_missing_shard_is_not_corruption(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ProofCache(str(cache_dir))
        assert cache.get_prove("ab" + "0" * 62) is None
        assert cache.shards_skipped == 0

    def test_next_flush_repairs_the_shard(self, tmp_path):
        cache_dir = tmp_path / "cache"
        module = _prime(cache_dir, tmp_path)
        shards = _shard_paths(cache_dir)
        for path in shards:
            with open(path, "w") as handle:
                handle.write('{"torn": tru')
        # a fresh engine re-checks (recomputing everything) and flushes:
        # the rewrite replaces the garbage with valid shards
        report = check_many([str(module)], jobs=1, cache_dir=str(cache_dir),
                            logic=Logic())
        assert all(v.ok for v in report.verdicts)
        repaired = 0
        for path in _shard_paths(cache_dir):
            with open(path) as handle:
                json.load(handle)  # raises if still garbage
            repaired += 1
        assert repaired >= 1


class TestStaleTmpSweep:
    def test_old_tmp_is_swept_at_open(self, tmp_path):
        cache_dir = tmp_path / "cache"
        _prime(cache_dir, tmp_path)
        stale = cache_dir / "shards" / "ab.crashed.tmp"
        stale.write_text('{"half": ')
        old = time.time() - 2 * ProofCache.STALE_TMP_SECONDS
        os.utime(stale, (old, old))
        ProofCache(str(cache_dir))
        assert not stale.exists()

    def test_young_tmp_is_left_alone(self, tmp_path):
        # a young .tmp may be a live concurrent flush mid-write
        cache_dir = tmp_path / "cache"
        _prime(cache_dir, tmp_path)
        young = cache_dir / "shards" / "ab.inflight.tmp"
        young.write_text('{"half": ')
        ProofCache(str(cache_dir))
        assert young.exists()


def _plant_segment(cache_dir, entries):
    """Write one segment by hand, as a hostile disk or a bit flip would.

    Its name sorts before every stamped segment a flush writes, as an
    old segment's would.
    """
    path = os.path.join(str(cache_dir), "shards", "0000000000000000.planted.json")
    with open(path, "w") as handle:
        json.dump(entries, handle)


class TestMalformedEntries:
    HOSTILE_PROGRAMS = [
        [True, "", 5],  # types not a dict
        [1, "", {}],  # ok not a bool
        [True, 3, {}],  # error not a str
        [True, "", {"f": 3}],  # a type not a str
        [True, ""],  # too short
        "ok",  # not a list
    ]

    def test_malformed_program_entry_is_served_absent(self, tmp_path):
        cache_dir = tmp_path / "cache"
        ProofCache(str(cache_dir))
        keys = ["%064x" % index for index in range(len(self.HOSTILE_PROGRAMS))]
        _plant_segment(cache_dir, dict(zip(keys, self.HOSTILE_PROGRAMS)))
        cache = ProofCache(str(cache_dir))
        rule_hits = {}
        cache.bind_stats(rule_hits)
        for key in keys:
            assert cache.get_program(key) is None
        assert cache.shards_skipped == len(keys)
        assert rule_hits["cache.shard-skipped"] == len(keys)
        # each bad entry is counted once, then simply absent
        for key in keys:
            assert cache.get_program(key) is None
        assert cache.shards_skipped == len(keys)

    def test_non_bool_proves_value_is_served_absent(self, tmp_path):
        cache_dir = tmp_path / "cache"
        ProofCache(str(cache_dir))
        _plant_segment(cache_dir, {"a" * 64: 1, "b" * 64: "yes", "c" * 64: True})
        cache = ProofCache(str(cache_dir))
        assert cache.get_prove("a" * 64) is None
        assert cache.get_prove("b" * 64) is None
        assert cache.get_prove("c" * 64) is True
        assert cache.shards_skipped == 2

    def test_check_succeeds_over_a_malformed_program_entry(self, tmp_path):
        cache_dir = tmp_path / "cache"
        module = tmp_path / "good.rkt"
        module.write_text(GOOD)
        key = ProofCache(str(cache_dir), logic_config_key(Logic())).program_key(GOOD)
        _plant_segment(cache_dir, {key: [True, "", 5]})
        report = check_many([str(module)], jobs=1, cache_dir=str(cache_dir),
                            logic=Logic())
        assert [(v.ok, v.from_cache) for v in report.verdicts] == [(True, False)]
        assert report.stats.rule_hits["cache.shard-skipped"] == 1
        # the recomputed verdict was flushed over the bad entry
        reread = ProofCache(str(cache_dir), logic_config_key(Logic()))
        stored = reread.get_program(key)
        assert stored is not None and stored[0] is True
