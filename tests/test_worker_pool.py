"""The resident fork pool behind ``repro serve --jobs``.

``WorkerPool`` keeps fork workers alive across batches; its verdicts
must equal sequential ``check_many`` whatever the worker count.
"""

import pytest

from repro.batch import WorkerPool, check_many, pipeline
from repro.logic.prove import Logic


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
    def _corpus(self, tmp_path, count=6):
        from repro.fuzz.gen import generate_program

        paths = []
        for index in range(count):
            path = tmp_path / f"prog{index}.rkt"
            path.write_text(generate_program(2016, index).source)
            paths.append(str(path))
        return paths

    def test_jobs1_pool_matches_check_many(self, tmp_path):
        paths = self._corpus(tmp_path)
        with WorkerPool(jobs=1) as pool:
            report = pool.check_many(paths)
        reference = check_many(paths, jobs=1, logic=Logic())
        assert [(v.path, v.ok, v.error) for v in report.verdicts] == [
            (v.path, v.ok, v.error) for v in reference.verdicts
        ]

    def test_resident_pool_reused_across_batches(self, tmp_path):
        paths = self._corpus(tmp_path)
        with WorkerPool(jobs=2) as pool:
            first = pool.check_many(paths)
            resident_pool = pool._pool
            second = pool.check_many(paths)
            assert pool._pool is resident_pool  # no re-fork
            assert pool.batches == 2
        assert [(v.path, v.ok) for v in first.verdicts] == [
            (v.path, v.ok) for v in second.verdicts
        ]

    def test_pool_verdicts_match_sequential(self, tmp_path):
        paths = self._corpus(tmp_path)
        reference = check_many(paths, jobs=1, logic=Logic())
        with WorkerPool(jobs=3) as pool:
            report = pool.check_many(paths)
        assert [(v.path, v.ok, v.error) for v in report.verdicts] == [
            (v.path, v.ok, v.error) for v in reference.verdicts
        ]

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
