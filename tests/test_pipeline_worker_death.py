"""RTR-003 / RTR-007: every fork pool must survive a dying worker.

On Python 3.11, ``multiprocessing.Pool.map`` never completes if a
worker process dies mid-task — the dead worker's chunk is silently
lost (RTR-003); the one-shot ``check_many(jobs>1)`` and sharded
``run_fuzz`` paths, which built their own pools, hung the same way
(RTR-007).  Both now map through ``WorkerPool.map``, which detects the
death (liveness + PID-set watchdog), tears the broken pool down, and
lets the caller re-run the tasks in-process.

The dying worker is injected by monkeypatching the chunk runner with a
self-``SIGKILL``: fork workers inherit the patched module, so the
first pooled chunk kills its worker exactly the way an OOM kill would.
"""

import multiprocessing
import os
import signal
import threading

import pytest

from repro.batch import pipeline
from repro.batch.pipeline import WorkerPool
from repro.fuzz import runner
from repro.fuzz.runner import FuzzConfig, run_fuzz


def _fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:
        return False


pytestmark = pytest.mark.skipif(
    not _fork_available(), reason="fork start method unavailable"
)


def _suicidal_chunk_runner(args):
    """Simulates an OOM-killed / segfaulted worker: dies mid-task."""
    os.kill(os.getpid(), signal.SIGKILL)


def _bounded(call, seconds=60):
    """Run ``call`` in a daemon thread: a hung pool fails, not hangs."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as exc:  # re-raised in the test thread
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds}s: pool hung"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _modules(tmp_path, count=4):
    paths = []
    for i in range(count):
        path = tmp_path / f"mod{i}.rkt"
        path.write_text(f"(define x{i} {i})\n")
        paths.append(str(path))
    return paths


def test_map_survives_worker_death():
    with WorkerPool(jobs=2) as pool:
        # the map gives up instead of hanging forever ...
        assert _bounded(lambda: pool.map(_suicidal_chunk_runner, range(4))) is None
        # ... and tears the broken pool down
        assert not pool.alive
        # the next map re-forks a healthy pool
        assert pool.map(abs, [-1, -2, -3]) == [1, 2, 3]
        assert pool.alive


def test_one_shot_check_many_survives_worker_death(tmp_path, monkeypatch):
    paths = _modules(tmp_path)
    monkeypatch.setattr(pipeline, "_run_chunk", _suicidal_chunk_runner)
    report = _bounded(lambda: pipeline.check_many(paths, jobs=2))
    assert report.ok
    assert [v.path for v in report.verdicts] == paths
    assert multiprocessing.active_children() == []


def test_sharded_fuzz_survives_worker_death(monkeypatch):
    config = FuzzConfig(seed=1, count=4, shards=2)
    expected = run_fuzz(config, parallel=False)
    monkeypatch.setattr(runner, "_shard_worker", _suicidal_chunk_runner)
    report = _bounded(lambda: run_fuzz(config))
    assert report.programs == config.count
    assert report.digest() == expected.digest()
    assert multiprocessing.active_children() == []
