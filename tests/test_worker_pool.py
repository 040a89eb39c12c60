"""The fork pool behind one-shot ``check --jobs`` and ``fuzz --shards``.

``WorkerPool.map`` returns results in task order, or ``None`` when it
cannot run, so callers fall back in-process.
"""

import pytest

from repro.batch import WorkerPool, pipeline


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three")
    return x


needs_fork = pytest.mark.skipif(
    not pipeline._fork_available(), reason="fork start method unavailable"
)


class TestWorkerPool:
    def test_close_is_idempotent(self):
        pool = WorkerPool(jobs=2)
        pool.close()
        pool.close()
        assert not pool.alive

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(jobs=0)


class TestWorkerPoolMap:
    """The fork primitive every pooled caller maps through."""

    @needs_fork
    def test_results_in_task_order_with_more_tasks_than_workers(self):
        with WorkerPool(jobs=2) as pool:
            assert pool.map(_square, range(20)) == [x * x for x in range(20)]

    def test_jobs1_returns_none_without_forking(self):
        with WorkerPool(jobs=1) as pool:
            assert pool.map(_square, [1, 2, 3]) is None
            assert not pool.alive

    @needs_fork
    def test_exception_in_fn_propagates_and_pool_stays_usable(self):
        with WorkerPool(jobs=2) as pool:
            with pytest.raises(ValueError, match="three"):
                pool.map(_fail_on_three, range(6))
            assert pool.alive
            assert pool.map(_square, range(5)) == [0, 1, 4, 9, 16]
