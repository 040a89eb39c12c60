"""The multi-process batch checker and its persistent proof cache.

The contract under test: ``check_many`` produces verdicts identical to
sequential checking no matter how work is sharded or cached, merges
worker statistics exactly, and the on-disk cache is verdict-
transparent across runs.
"""

import hashlib
import json
import multiprocessing
import os

import pytest

from repro.batch import ProofCache, check_many, env_digest, logic_config_key
from repro.batch.cache import CACHE_FORMAT, COMPACT_SEGMENTS
from repro.fuzz.gen import generate_program
from repro.logic.env import Env
from repro.logic.prove import Logic
from repro.tr.objects import Var
from repro.tr.props import IsType, lin_le
from repro.tr.types import INT

GOOD = """
(: max : [x : Int] [y : Int]
   -> [z : Int #:where (and (>= z x) (>= z y))])
(define (max x y) (if (> x y) x y))
(max 3 7)
"""

BAD = """
(: f : Int -> Bool)
(define (f x) x)
"""


@pytest.fixture
def corpus(tmp_path):
    """A mixed corpus: generated modules plus one known-bad module."""
    paths = []
    for index in range(14):
        spec = generate_program(3, index)
        path = tmp_path / f"gen{index:02}.rkt"
        path.write_text(spec.source)
        paths.append(str(path))
    good = tmp_path / "good.rkt"
    good.write_text(GOOD)
    bad = tmp_path / "bad.rkt"
    bad.write_text(BAD)
    paths.extend([str(good), str(bad)])
    return paths


def _summary(report):
    return [(v.path, v.ok, v.error) for v in report.verdicts]


class TestCheckMany:
    def test_parallel_verdicts_identical_to_sequential(self, corpus):
        sequential = check_many(corpus, jobs=1, logic=Logic())
        parallel = check_many(corpus, jobs=4)
        assert _summary(parallel) == _summary(sequential)
        assert not sequential.ok  # bad.rkt fails
        assert len(sequential.failures) == 1

    def test_verdicts_come_back_in_input_order(self, corpus):
        report = check_many(list(reversed(corpus)), jobs=3)
        assert [v.path for v in report.verdicts] == list(reversed(corpus))

    def test_worker_stats_merge_covers_all_work(self, corpus):
        sequential = check_many(corpus, jobs=1, logic=Logic())
        parallel = check_many(corpus, jobs=4)
        # Fresh per-worker engines do exactly the sequential work, just
        # partitioned — the merged counters must account for all of it.
        assert parallel.stats.prove_calls == sequential.stats.prove_calls
        assert parallel.stats.theory_goals == sequential.stats.theory_goals

    def test_missing_file_is_a_verdict_not_a_crash(self, tmp_path):
        report = check_many([str(tmp_path / "absent.rkt")], jobs=1, logic=Logic())
        assert not report.ok
        assert "cannot read" in report.verdicts[0].error

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            check_many([], jobs=0)

    def test_custom_logic_is_never_swapped_for_the_default(self, corpus):
        # A caller-supplied engine cannot cross the fork boundary, so
        # jobs>1 with an explicit logic must run through that engine
        # (in-process) rather than silently using default workers.
        engine = Logic(use_representatives=False)
        report = check_many(corpus, jobs=4, logic=engine)
        assert report.stats.prove_calls == engine.stats.prove_calls
        assert engine.stats.prove_calls > 0


class TestPersistentCache:
    def test_cache_is_verdict_transparent(self, corpus, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = check_many(corpus, jobs=2, cache_dir=cache_dir)
        warm = check_many(corpus, jobs=2, cache_dir=cache_dir)
        plain = check_many(corpus, jobs=1, logic=Logic())
        assert _summary(cold) == _summary(plain)
        assert _summary(warm) == _summary(plain)
        assert cold.cache_entries_written > 0
        assert all(v.from_cache for v in warm.verdicts)

    def test_cache_survives_runs_on_disk(self, corpus, tmp_path):
        cache_dir = str(tmp_path / "cache")
        check_many(corpus, jobs=1, logic=Logic(), cache_dir=cache_dir)
        store = ProofCache(cache_dir, logic_config_key(Logic()))
        assert len(store) > 0

    def test_theory_parameters_change_the_namespace(self):
        # A different bitvector width or linear work bound changes
        # verdicts (groundability / UNKNOWN cutoffs); the cache key
        # must not collapse the two configurations.
        from repro.theories.bitvec import BitvectorTheory
        from repro.theories.congruence import CongruenceTheory
        from repro.theories.linarith import LinearArithmeticTheory
        from repro.theories.registry import TheoryRegistry

        def key(width, bound):
            registry = TheoryRegistry(
                [LinearArithmeticTheory(bound), BitvectorTheory(width),
                 CongruenceTheory()]
            )
            return logic_config_key(Logic(registry=registry))

        assert key(8, 6000) != key(16, 6000)
        assert key(8, 6000) != key(8, 100)
        assert key(8, 6000) == key(8, 6000)

    def test_config_namespaces_do_not_mix(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = ProofCache(cache_dir, "config-a")
        second = ProofCache(cache_dir, "config-b")
        source = "(+ 1 2)"
        # Every key embeds the configuration namespace...
        assert first.program_key(source) != second.program_key(source)
        # ...so two configurations share one directory without either
        # serving (or wiping) the other's entries.
        first.put_program(first.program_key(source), True, "", {})
        first.flush()
        reread_a = ProofCache(cache_dir, "config-a")
        reread_b = ProofCache(cache_dir, "config-b")
        assert reread_a.get_program(reread_a.program_key(source)) is not None
        assert reread_b.get_program(reread_b.program_key(source)) is None

    def test_delta_absorb_flush_roundtrip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        worker = ProofCache(cache_dir, "k")
        key = worker.program_key("(+ 1 2)")
        worker.put_program(key, True, "", {"f": "Int"})
        delta = worker.delta()
        parent = ProofCache(cache_dir, "k")
        parent.absorb(delta)
        assert parent.flush() == 1
        reopened = ProofCache(cache_dir, "k")
        assert reopened.get_program(key) == (True, "", {"f": "Int"})

    def test_concurrent_flushes_are_lossless(self, tmp_path):
        # Forked writers flush into one directory at once, compacting
        # as they go; no entry any of them wrote may go missing.
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        cache_dir = str(tmp_path / "cache")
        ProofCache(cache_dir, "k")  # lay out the directory once
        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(target=_flush_cycles, args=(cache_dir, writer))
            for writer in range(_WRITERS)
        ]
        for process in writers:
            process.start()
        for process in writers:
            process.join(120)
        assert [process.exitcode for process in writers] == [0] * _WRITERS
        reopened = ProofCache(cache_dir, "k")
        found = sum(
            reopened.get_prove(_key(writer, cycle, index)) == _verdict(index)
            for writer in range(_WRITERS)
            for cycle in range(_CYCLES)
            for index in range(_KEYS_PER_CYCLE)
        )
        assert found == _WRITERS * _CYCLES * _KEYS_PER_CYCLE == 4000
        assert len(reopened) == 4000
        assert reopened.shards_skipped == 0


_WRITERS, _CYCLES, _KEYS_PER_CYCLE = 4, 20, 50


def _key(writer, cycle, index):
    return hashlib.sha256(f"{writer}/{cycle}/{index}".encode()).hexdigest()


def _verdict(index):
    return index % 3 != 0


def _flush_cycles(cache_dir, writer):
    for cycle in range(_CYCLES):
        cache = ProofCache(cache_dir, "k")
        for index in range(_KEYS_PER_CYCLE):
            cache.put_prove(_key(writer, cycle, index), _verdict(index))
        cache.flush()


def _segments(cache_dir):
    return {
        name
        for name in os.listdir(os.path.join(cache_dir, "shards"))
        if name.endswith(".json")
    }


class TestSegmentLog:
    def test_flush_appends_one_segment(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cache = ProofCache(cache_dir, "k")
        cache.put_prove(_key(0, 0, 0), True)
        assert cache.flush() == 1
        first = _segments(cache_dir)
        assert len(first) == 1
        cache.put_prove(_key(0, 0, 1), False)
        cache.flush()
        second = _segments(cache_dir)
        # the first segment is left as it was: flushes append
        assert first < second and len(second) == 2
        assert cache.flush() == 0 and _segments(cache_dir) == second

    def test_a_flush_creates_one_file_even_when_compacting(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        compactions = 0
        for cycle in range(3 * COMPACT_SEGMENTS):
            before = _segments(cache_dir) if cycle else set()
            cache = ProofCache(cache_dir, "k")
            cache.put_prove(_key(0, cycle, 0), True)
            cache.flush()
            after = _segments(cache_dir)
            assert len(after - before) == 1
            if before - after:
                # a compaction: the merged segment replaced all the others
                compactions += 1
                assert before - after == before and len(after) == 1
        assert compactions >= 2

    def test_hundred_fresh_flushes_stay_compact(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        for cycle in range(100):
            cache = ProofCache(cache_dir, "k")
            for index in range(5):
                cache.put_program(_key(1, cycle, index), True, "", {"f": "Int"})
            cache.flush()
            assert len(_segments(cache_dir)) <= COMPACT_SEGMENTS + 1
        reopened = ProofCache(cache_dir, "k")
        assert len(reopened) == 500
        for cycle in range(100):
            for index in range(5):
                assert reopened.get_program(_key(1, cycle, index)) == (
                    True, "", {"f": "Int"}
                )

    def test_len_counts_distinct_keys(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        for _ in range(2):
            # two handles that never read store the same key twice
            cache = ProofCache(cache_dir, "k")
            cache.put_program(_key(2, 0, 0), True, "", {})
            cache.flush()
        assert len(_segments(cache_dir)) == 2
        cache = ProofCache(cache_dir, "k")
        assert len(cache) == 1
        cache.put_prove(_key(2, 0, 1), True)  # unflushed entries count too
        assert len(cache) == 2

    def test_older_format_opens_empty(self, tmp_path):
        assert CACHE_FORMAT == 3
        cache_dir = tmp_path / "cache"
        (cache_dir / "shards").mkdir(parents=True)
        (cache_dir / "meta.json").write_text(json.dumps({"format": 2, "epoch": 0}))
        key = "ab" + "0" * 62
        # a format-2 prefix shard: a dict keyed by digests starting "ab"
        (cache_dir / "shards" / "ab.json").write_text(json.dumps({key: True}))
        cache = ProofCache(str(cache_dir), "k")
        assert cache.get_prove(key) is None
        assert len(cache) == 0
        assert cache.shards_skipped == 0
        assert _segments(str(cache_dir)) == set()
        assert json.loads((cache_dir / "meta.json").read_text())["format"] == 3


class TestEnvDigest:
    def test_equal_content_equal_digest_any_build_order(self):
        logic = Logic()
        x, y = Var("x"), Var("y")
        one = logic.extend(logic.extend(Env(), IsType(x, INT)), IsType(y, INT))
        two = logic.extend(logic.extend(Env(), IsType(y, INT)), IsType(x, INT))
        assert env_digest(one) == env_digest(two)

    def test_different_content_different_digest(self):
        logic = Logic()
        x = Var("x")
        base = logic.extend(Env(), IsType(x, INT))
        more = logic.extend(base, lin_le(x, Var("y")))
        assert env_digest(base) != env_digest(more)

    def test_digest_is_stable_across_processes(self, tmp_path):
        # The digest must be a pure function of content: compute it in
        # a subprocess and compare (intern ids would differ there).
        import subprocess
        import sys

        script = (
            "from repro.batch import env_digest\n"
            "from repro.logic.env import Env\n"
            "from repro.logic.prove import Logic\n"
            "from repro.tr.objects import Var\n"
            "from repro.tr.props import IsType\n"
            "from repro.tr.types import INT\n"
            "logic = Logic()\n"
            "env = logic.extend(Env(), IsType(Var('x'), INT))\n"
            "print(env_digest(env))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        ).stdout.strip()
        logic = Logic()
        local = env_digest(logic.extend(Env(), IsType(Var("x"), INT)))
        assert out == local
