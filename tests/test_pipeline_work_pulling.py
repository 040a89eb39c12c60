"""Batch workers pull files from one shared cursor.

``WorkerPool`` creates the cursor before it forks; every worker takes
positions from it until the list runs out, so one slow file holds back
only the worker checking it.  These tests pin the three properties
that rest on it: each position gets exactly one verdict (and the merge
refuses anything else), the verdicts equal sequential checking, and
the other workers keep pulling while one is stuck on a slow file.

Faults and tags are injected the way ``test_pipeline_worker_death.py``
injects a dying worker: a module-level wrapper is monkeypatched into
``repro.batch.pipeline`` before the pool forks, so workers inherit it.
"""

import dataclasses
import multiprocessing
import os
import time

import pytest

from repro.batch import pipeline
from repro.batch.pipeline import FileVerdict, WorkerPool, check_many, effective_jobs
from repro.logic.prove import EngineStats, Logic
from test_pipeline_worker_death import _bounded

pytestmark = pytest.mark.skipif(
    not pipeline._fork_available(), reason="fork start method unavailable"
)

#: the one-shot path clamps ``jobs`` to the usable CPUs
needs_two_cpus = pytest.mark.skipif(
    effective_jobs(2) < 2, reason="one-shot check_many needs two usable CPUs"
)

_RUN_CHUNK = pipeline._run_chunk
_CHECK_ONE = pipeline.check_one

SLOW_NAME = "slow.rkt"
SLOW_S = 3.0


def _lossy_run_chunk(args):
    """A one-shot worker that loses the last verdict it produced."""
    results, stats, delta = _RUN_CHUNK(args)
    return results[:-1], stats, delta


def _echoing_run_chunk(args):
    """A one-shot worker that reports its first verdict twice."""
    results, stats, delta = _RUN_CHUNK(args)
    return results + results[:1], stats, delta


def _pid_tagging_check_one(checker, path, cache=None):
    """``check_one`` that records the worker's pid; the slow file sleeps."""
    if path.endswith(SLOW_NAME):
        time.sleep(SLOW_S)
    verdict = _CHECK_ONE(checker, path, cache)
    return dataclasses.replace(verdict, error=str(os.getpid()))


def _modules(tmp_path, count):
    paths = []
    for i in range(count):
        path = tmp_path / f"mod{i:03}.rkt"
        if i % 5 == 3:  # ill-typed: the verdicts are not all alike
            path.write_text(f"(: f{i} : Int -> Bool)\n(define (f{i} x) x)\n")
        else:
            path.write_text(f"(define x{i} {i})\n(+ x{i} 1)\n")
        paths.append(str(path))
    return paths


def _summary(report):
    return [(v.path, v.ok, v.error) for v in report.verdicts]


class TestMergeRefusesLostVerdicts:
    def test_missing_position_is_named(self):
        indexed = [(0, "a.rkt"), (1, "b.rkt"), (2, "c.rkt")]
        verdicts = [(0, FileVerdict("a.rkt", True)), (2, FileVerdict("c.rkt", True))]
        outcomes = [(verdicts, EngineStats(), {})]
        with pytest.raises(RuntimeError, match=r"no verdict for positions \[1\]"):
            pipeline._merge_outcomes(indexed, outcomes, None, jobs=2)

    def test_repeated_position_is_named(self):
        indexed = [(0, "a.rkt"), (1, "b.rkt")]
        verdicts = [(0, FileVerdict("a.rkt", True)), (1, FileVerdict("b.rkt", True))]
        outcomes = [(verdicts, EngineStats(), {}), (verdicts[1:], EngineStats(), {})]
        with pytest.raises(RuntimeError, match=r"more than one for positions \[1\]"):
            pipeline._merge_outcomes(indexed, outcomes, None, jobs=2)

    @needs_two_cpus
    def test_one_shot_check_many_raises_on_a_lost_verdict(self, tmp_path, monkeypatch):
        paths = _modules(tmp_path, 6)
        monkeypatch.setattr(pipeline, "_run_chunk", _lossy_run_chunk)
        with pytest.raises(RuntimeError, match="no verdict for positions"):
            _bounded(lambda: check_many(paths, jobs=2))
        assert multiprocessing.active_children() == []

    @needs_two_cpus
    def test_one_shot_check_many_raises_on_a_repeated_verdict(
        self, tmp_path, monkeypatch
    ):
        paths = _modules(tmp_path, 6)
        monkeypatch.setattr(pipeline, "_run_chunk", _echoing_run_chunk)
        with pytest.raises(RuntimeError, match="more than one for positions"):
            _bounded(lambda: check_many(paths, jobs=2))


class TestEffectiveJobs:
    def test_clamps_to_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert effective_jobs(4) == 1
        assert effective_jobs(1) == 1

    def test_falls_back_to_the_core_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert effective_jobs(4) == 3
        assert effective_jobs(2) == 2

    def test_check_many_degrades_under_a_one_cpu_mask(self, tmp_path, monkeypatch):
        paths = _modules(tmp_path, 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        report = check_many(paths, jobs=4)
        assert report.jobs == 1 and report.jobs_requested == 4
        assert report.jobs_degraded
        assert _summary(report) == _summary(check_many(paths, jobs=1, logic=Logic()))


class TestSlowFileHoldsBackOnlyItsWorker:
    """At ``jobs=2`` a slow first file leaves every other file to the other worker."""

    def _paths(self, tmp_path):
        slow = tmp_path / SLOW_NAME
        slow.write_text("(define slow 0)\n")
        return [str(slow)] + _modules(tmp_path, 8)

    def _assert_other_worker_took_the_rest(self, report, paths):
        assert [v.path for v in report.verdicts] == paths
        slow_pid = report.verdicts[0].error
        other_pids = {v.error for v in report.verdicts[1:]}
        assert len(other_pids) == 1 and slow_pid not in other_pids

    @needs_two_cpus
    def test_one_shot(self, tmp_path, monkeypatch):
        paths = self._paths(tmp_path)
        monkeypatch.setattr(pipeline, "check_one", _pid_tagging_check_one)
        report = _bounded(lambda: check_many(paths, jobs=2))
        assert report.jobs == 2
        self._assert_other_worker_took_the_rest(report, paths)


def test_shared_cursor_stress(tmp_path):
    """Eight workers on few CPUs, many tiny files, repeated pulls.

    Every pull on the one pool must return each position exactly once
    (the merge raises otherwise) with the sequential verdicts: a lost
    update on the cursor, or a cursor not reset between pulls, would
    check a file twice or skip it.
    """
    paths = _modules(tmp_path, 240)
    indexed = list(enumerate(paths))
    reference = _summary(check_many(paths, jobs=1, logic=Logic()))
    with WorkerPool(jobs=8) as pool:
        for _ in range(6):
            outcomes = _bounded(
                lambda: pool._pull(pipeline._run_chunk, indexed), seconds=120
            )
            assert outcomes is not None  # no worker died
            report = pipeline._merge_outcomes(indexed, outcomes, None, jobs=8)
            assert _summary(report) == reference
            assert pool.alive
