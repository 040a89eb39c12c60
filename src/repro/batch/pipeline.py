"""The multi-process batch-checking pipeline.

``check_many`` turns "check these N modules" into a first-class
workload: ``jobs`` forked workers pull files one at a time from a
cursor the pool shares with them, each worker threads **one**
:class:`~repro.logic.prove.Logic` through every file it takes (the
long-lived-service shape the incremental engine is built for), and the
parent merges per-worker :class:`~repro.logic.prove.EngineStats`
(exact aggregate hit rates) and persistent-cache deltas.  Checking
costs are heavy-tailed, so pulling matters: a call takes about the
total work over ``jobs`` plus at most one file, where a fixed share
per worker would wait on whichever share drew the slow files.
Verdicts come back in input order and are bit-identical to sequential
checking — worker engines share nothing, and the cache-transparency
property tests pin that a shared engine cannot change any verdict.

With ``jobs=1`` the same code path runs in-process (no fork, no
pickling), so the CLI's single-process behaviour — including the
process-wide shared engine and its ``--stats`` counters — is
unchanged.

:class:`WorkerPool` is the only code in the package that forks worker
pools (the checking daemon forks its engine lanes itself).  Its
:meth:`WorkerPool.map` serves two callers — one-shot ``check_many``
and the fuzz runner's shards — with one rule: if a worker dies
mid-map, the pool is torn down and the caller re-runs the tasks
in-process.  Fork is the only start method used: workers inherit the
parsed module cache and warm intern tables for free.  Platforms without fork run in-process with identical results.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..checker.check import Checker
from ..checker.errors import CheckError
from ..logic.prove import EngineStats, Logic
from ..syntax.parser import ParseError, parse_program
from ..tr.pretty import pretty_type
from .cache import ProofCache

__all__ = [
    "FileVerdict",
    "BatchReport",
    "WorkerPool",
    "check_many",
    "check_one",
    "effective_jobs",
    "logic_config_key",
]


def logic_config_key(logic: Logic) -> str:
    """The cache namespace of an engine configuration.

    Delegates to :meth:`Logic.config_key`: two engines share persistent
    entries only when nothing that can influence a verdict differs.
    """
    return logic.config_key()


@dataclass(frozen=True)
class FileVerdict:
    """One module's outcome, independent of which worker produced it."""

    path: str
    ok: bool
    error: str = ""
    #: definition name → pretty-printed type (for ``--verbose``)
    types: Dict[str, str] = field(default_factory=dict)
    from_cache: bool = False


def effective_jobs(jobs: int) -> int:
    """Clamp an over-subscribed ``--jobs`` to the CPUs this process may use.

    Forking more workers than cores only adds scheduler churn and
    memory; single-core boxes silently ran 4-way "parallel" batches
    slower than sequential ones.  The usable CPUs are the affinity
    mask where the platform has one (``taskset``, cgroup cpusets),
    else the machine's core count.  The degradation is recorded on the
    report (``jobs_requested`` vs ``jobs``) so callers can surface it.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, cpus))


@dataclass
class BatchReport:
    """What ``check_many`` measured."""

    verdicts: List[FileVerdict]
    stats: EngineStats
    jobs: int
    cache_entries_written: int = 0
    #: what the caller asked for before the core-count clamp
    jobs_requested: int = 0

    def __post_init__(self) -> None:
        if not self.jobs_requested:
            self.jobs_requested = self.jobs

    @property
    def jobs_degraded(self) -> bool:
        return self.jobs_requested > self.jobs

    @property
    def ok(self) -> bool:
        return all(verdict.ok for verdict in self.verdicts)

    @property
    def failures(self) -> List[FileVerdict]:
        return [verdict for verdict in self.verdicts if not verdict.ok]


# ----------------------------------------------------------------------
# one module
# ----------------------------------------------------------------------
def check_one(
    checker: Checker, path: str, cache: Optional[ProofCache] = None
) -> FileVerdict:
    """Check one module with the given (worker-shared) checker."""
    try:
        source = Path(path).read_text()
    except OSError as exc:
        return FileVerdict(path, False, f"cannot read: {exc}")
    program_key = None
    if cache is not None:
        program_key = cache.program_key(source)
        stored = cache.get_program(program_key)
        if stored is not None:
            ok, error, types = stored
            return FileVerdict(path, ok, error, types, from_cache=True)
    try:
        program = parse_program(source)
        types = checker.check_program(program)
    except (ParseError, CheckError) as exc:
        verdict = FileVerdict(path, False, str(exc))
    else:
        verdict = FileVerdict(
            path, True, "", {name: pretty_type(ty) for name, ty in types.items()}
        )
    if cache is not None and program_key is not None:
        cache.put_program(program_key, verdict.ok, verdict.error, verdict.types)
    return verdict


# ----------------------------------------------------------------------
# work pulling (one worker)
# ----------------------------------------------------------------------
#: In a pool worker, the cursor its :class:`WorkerPool` shares with every
#: worker: the position of the next unclaimed file.  Installed by the
#: pool initializer; a synchronized value can only reach a worker by
#: inheritance, never as a pickled task argument.
_worker_cursor = None


def _install_cursor(cursor) -> None:
    global _worker_cursor
    _worker_cursor = cursor


def _claimed(indexed: Sequence[Tuple[int, str]]) -> Iterator[Tuple[int, str]]:
    """The items of ``indexed`` this worker takes from the shared cursor.

    Each position goes to exactly one worker: the read and the bump
    happen under the cursor's lock.  Pulling stops when the list runs
    out (the cursor may overshoot; the parent resets it per call).
    """
    while True:
        with _worker_cursor.get_lock():
            position = _worker_cursor.value
            _worker_cursor.value = position + 1
        if position >= len(indexed):
            return
        yield indexed[position]


def _run_chunk(
    args: Tuple[Sequence[Tuple[int, str]], Optional[str]],
) -> Tuple[List[Tuple[int, FileVerdict]], EngineStats, Dict[str, object]]:
    """One-shot worker: a fresh engine through every file it pulls."""
    indexed, cache_dir = args
    logic = Logic()
    cache: Optional[ProofCache] = None
    if cache_dir is not None:
        cache = ProofCache(cache_dir, logic_config_key(logic))
        logic.attach_persistent_cache(cache)
    checker = Checker(logic=logic)
    results = [
        (index, check_one(checker, path, cache)) for index, path in _claimed(indexed)
    ]
    delta = cache.delta() if cache is not None else {}
    return results, logic.stats, delta


def _fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:
        return False


def _merge_outcomes(
    indexed: Sequence[Tuple[int, str]],
    outcomes,
    cache_dir: Optional[str],
    jobs: int,
) -> BatchReport:
    """Fold the workers' results into one report, in input order.

    Raises ``RuntimeError`` naming the positions when any input has no
    verdict or more than one: a lost verdict must never read as a pass.
    """
    ordered: List[Optional[FileVerdict]] = [None] * len(indexed)
    counts = [0] * len(indexed)
    stats = EngineStats()
    parent_cache: Optional[ProofCache] = None
    if cache_dir is not None:
        # Worker deltas carry fully-namespaced keys, so the parent's
        # own config namespace is irrelevant for absorb + flush.
        parent_cache = ProofCache(cache_dir)
    for results, worker_stats, delta in outcomes:
        for index, verdict in results:
            ordered[index] = verdict
            counts[index] += 1
        stats.merge(worker_stats)
        if parent_cache is not None:
            parent_cache.absorb(delta)
    missing = [index for index, count in enumerate(counts) if count == 0]
    repeated = [index for index, count in enumerate(counts) if count > 1]
    if missing or repeated:
        raise RuntimeError(
            f"batch workers returned no verdict for positions {missing} "
            f"and more than one for positions {repeated}"
        )
    written = parent_cache.flush() if parent_cache is not None else 0
    return BatchReport(ordered, stats, jobs=jobs, cache_entries_written=written)


class WorkerPool:
    """The one fork pool, with a worker-death-safe map.

    ``check --jobs`` and ``fuzz --shards`` each open a pool for one
    call.  Creation is lazy: the pool forks on first use, so workers
    inherit whatever the parent process has already built up.

    Batches are pulled, not dealt: before it forks, the pool creates
    one shared cursor and installs it in every worker, and
    :meth:`_pull` hands each worker the whole file list to take
    positions from until it runs out.  Pulls of one pool must not
    overlap.

    Every forked map goes through :meth:`map`, which returns ``None``
    when it cannot run (``jobs=1``, no ``fork``) or when a worker died
    mid-map; callers then run the same tasks in-process with identical
    results.
    """

    def __init__(self, jobs: int, cache_dir: Optional[str] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache_dir = cache_dir
        self._pool = None
        self._cursor = None

    @property
    def alive(self) -> bool:
        return self._pool is not None

    def _ensure(self):
        if self._pool is None and self.jobs > 1 and _fork_available():
            ctx = multiprocessing.get_context("fork")
            # a fresh cursor per fork: a worker killed mid-pull may
            # have died holding the old one's lock
            self._cursor = ctx.Value("q", 0)
            self._pool = ctx.Pool(
                processes=self.jobs,
                initializer=_install_cursor,
                initargs=(self._cursor,),
            )
        return self._pool

    def _pull(
        self, fn: Callable, indexed: Sequence[Tuple[int, str]]
    ) -> Optional[list]:
        """Every worker runs ``fn`` over ``indexed``, pulling positions.

        One task per worker, each carrying the whole list; the cursor
        starts at 0, so together the workers claim every position once.
        Returns the per-worker outcomes, or ``None`` as :meth:`map` does.
        """
        if self._ensure() is None:
            return None
        self._cursor.value = 0
        return self.map(fn, [(indexed, self.cache_dir)] * self.jobs)

    def map(self, fn: Callable, tasks: Sequence) -> Optional[list]:
        """``pool.map(fn, tasks)`` on the workers; None if it cannot finish.

        Returns the results in task order, or ``None`` when there is no
        pool (``jobs=1``, no ``fork``) or a worker died mid-map — the
        caller then runs the tasks in-process.  An exception raised by
        ``fn`` propagates, as ``pool.map``'s does, and leaves the pool
        usable.

        A plain ``pool.map`` blocks forever when a worker dies: Pool's
        supervisor thread replaces the dead worker, but the replacement
        never inherits the lost task.  So this is ``map_async`` plus a
        watchdog: between polls the worker processes are checked for
        liveness *and* identity (a replaced worker restores "all alive"
        moments later, but changes the PID set).  Detection tears the
        pool down — fresh workers on the next call — before returning
        ``None``; nothing from the broken map has been handed back, and
        ``fn`` must be safe to re-run.
        """
        pool = self._ensure()
        if pool is None:
            return None
        # PIDs before submitting: a worker that dies on its first task
        # may be replaced before map_async returns
        baseline = {worker.pid for worker in pool._pool}
        result = pool.map_async(fn, tasks)
        while not result.ready():
            result.wait(0.05)
            alive = {w.pid for w in list(pool._pool) if w.is_alive()}
            if alive != baseline:
                self.close()
                return None
        return result.get()

    def close(self) -> None:
        """Tear the workers down (idempotent)."""
        pool, self._pool = self._pool, None
        self._cursor = None
        if pool is not None:
            pool.terminate()
            pool.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------
def check_many(
    paths: Sequence[str],
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    logic: Optional[Logic] = None,
) -> BatchReport:
    """Check every module; returns verdicts in input order.

    ``jobs=1`` checks in-process through ``logic`` (default: the
    process-wide shared engine), matching the plain CLI loop exactly.
    ``jobs>1`` forks workers that pull files from a shared cursor, each
    with its own engine and a view of the persistent cache; the parent
    merges stats and flushes the combined cache delta once.  A
    caller-supplied ``logic`` cannot cross the fork boundary (workers
    need independent engines), so supplying one forces the in-process
    path — a custom engine is never silently swapped for the default.
    Without ``fork``, or if a worker dies, a ``jobs>1`` call runs
    in-process with the same verdicts and reports ``jobs=1``.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    requested = jobs
    jobs = effective_jobs(jobs)
    indexed = list(enumerate(paths))
    outcomes = None
    if jobs > 1 and logic is None and len(indexed) > 1:
        with WorkerPool(min(jobs, len(indexed)), cache_dir) as pool:
            outcomes = pool._pull(_run_chunk, indexed)

    if outcomes is not None:
        report = _merge_outcomes(indexed, outcomes, cache_dir, jobs=jobs)
    else:
        if logic is not None:
            engine = logic
        elif requested > 1:
            # A degraded parallel request emulates the fork path it
            # replaces: fresh per-worker engines, batch-scoped stats —
            # not the process-wide engine's lifetime counters.
            engine = Logic()
        else:
            engine = Checker().logic
        cache: Optional[ProofCache] = None
        if cache_dir is not None:
            cache = ProofCache(cache_dir, logic_config_key(engine))
            engine.attach_persistent_cache(cache)
        try:
            checker = Checker(logic=engine)
            verdicts = [check_one(checker, path, cache) for _, path in indexed]
            written = cache.flush() if cache is not None else 0
        finally:
            # the engine may be the process-wide shared one: never leave
            # the cache attached past this call, even on an escaping error
            if cache is not None:
                engine.detach_persistent_cache()
        stats = EngineStats().merge(engine.stats)
        report = BatchReport(verdicts, stats, jobs=1, cache_entries_written=written)
    report.jobs_requested = requested
    if requested > jobs:
        hits = report.stats.rule_hits
        hits["batch.jobs-degraded"] = hits.get("batch.jobs-degraded", 0) + 1
    return report
