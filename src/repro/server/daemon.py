"""The checking daemon: N warm engine lanes serving many connections.

Threading model — chosen for the engine we actually have, not the one
we wish we had:

* **Connection threads** do I/O only: they frame requests off the
  socket, validate them, enqueue :class:`_Job`\\ s on their routed
  lane and write responses back.  They never touch an engine.
  ``ping`` is answered here directly — a health probe must work even
  when every engine lane is wedged.
* **Engine lanes** (``--lanes N``) each own a warm
  :class:`~repro.logic.prove.Logic` — lane 0 the engine the server was
  built over, lanes 1..N-1 replicas of it
  (:meth:`~repro.logic.prove.Logic.replica`).  An engine's solver
  contexts are not thread-safe, so each lane's work is serialized on
  its own thread; the value layer underneath is shared safely (intern
  ids are allocated atomically, the fresh-name stream is thread-local)
  and every judgment cache is content-addressed, so lanes cannot
  observe each other through the engine — verdicts are bit-identical
  to a fresh single engine, pinned by the differential suite in
  ``tests/test_server_lanes.py``.
* **Routing is sticky with optional affinity.**  A connection is
  assigned a lane at its first queued request — by the request's
  ``affinity`` key (stable hash, so one logical session always lands
  on the same warm lane across reconnects) or to the least-loaded lane
  — and keeps it for the connection's lifetime, so session-scoped
  incremental re-checking keeps hitting the same warm module store and
  engine caches.
* **One request per lane turn**: a lane takes one queued job, runs
  it to a response, then takes the next.  A multi-file ``check`` on a
  ``--jobs`` daemon fans out to the resident
  :class:`~repro.batch.pipeline.WorkerPool`, which all lanes share
  under a lock.  Theory goals need no cross-request coalescing: a lane
  is one thread, so its engine's own dispatch stage (one
  ``entails_batch`` per conjunction frame) is already the only
  crossing of each session.

Epoch coordination — how replicas converge after ``reset``:

* The server keeps one **epoch**; ``reset`` (from any lane) bumps it,
  immediately resets the serving lane's engine, records the new epoch
  in the persistent cache's ``meta.json`` (so epochs stay monotone
  across daemon restarts over one cache directory) and tears down the
  shared pool.  Every *other* lane syncs lazily: before running any
  job it compares its engine's epoch to the server's and calls
  ``reset_caches(epoch=...)`` if behind.  A request enqueued after the
  reset response was sent is therefore always served post-reset state
  — no lane can ever serve a stale proof — while requests already
  in flight on other lanes complete under the old epoch, which is the
  usual linearizability for operations that overlap the reset.

Robustness layer (deadlines, backpressure, supervision) — all per lane:

* Every lane request carries a :class:`~repro.budget.Budget`; expired
  requests abort mid-proof with a structured, retryable
  ``deadline_exceeded`` while the lane stays warm.
* Each lane's job queue is **bounded** (``max_queue_depth``); a full
  lane rejects immediately with retryable ``overloaded``.
* A single **watchdog** thread supervises every lane: it cancels any
  job running past ``hang_seconds`` via its budget, and respawns any
  lane whose thread died — over the same warm engine replica — so one
  impossible request can never take a lane (let alone the daemon)
  down.  Robustness counters are kept per lane and merged for the
  ``stats`` op.
* ``stop()`` wakes every blocked connection wait immediately: queued
  jobs are failed, in-flight jobs are failed, and connection threads
  block on a plain ``Event.wait()`` with no polling timeout.

Isolation and resets are session concerns — see
:mod:`repro.server.session`; the wire protocol is
:mod:`repro.server.protocol`; the spec with examples is
``docs/SERVER.md``.
"""

from __future__ import annotations

import hashlib
import os
import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from ..batch.cache import ProofCache
from ..batch.pipeline import BatchReport, WorkerPool, check_many, logic_config_key
from ..budget import Budget, CancelledError
from ..checker.check import Checker
from ..logic.prove import EngineStats, Logic
from .protocol import (
    DEADLINE_OPS,
    PROTOCOL_VERSION,
    MessageStream,
    ProtocolError,
    error_response,
    validate_request,
)
from .session import ServerSession

__all__ = ["ServerConfig", "CheckingServer"]


@dataclass
class ServerConfig:
    """Everything ``repro serve`` can configure."""

    #: unix-domain socket path; mutually exclusive with host/port
    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    #: TCP port (0 = ephemeral); ignored when ``socket_path`` is set
    port: int = 0
    #: worker processes for fanned-out multi-file ``check`` requests;
    #: 1 keeps everything on the engine lanes
    jobs: int = 1
    #: warm engine lanes; each owns a Logic replica and a bounded queue
    lanes: int = 1
    #: persistent proof-cache directory (see :mod:`repro.batch.cache`)
    cache_dir: Optional[str] = None
    #: bounded per-lane job queue; a full lane sheds load with a
    #: retryable ``overloaded`` error instead of queueing unboundedly
    #: (0 = unbounded)
    max_queue_depth: int = 64
    #: deadline applied to engine requests that carry none (ms; None =
    #: no default — such requests run until the watchdog objects)
    default_deadline_ms: Optional[float] = None
    #: watchdog: cancel any job running longer than this (seconds;
    #: 0 disables hang detection)
    hang_seconds: float = 30.0
    #: watchdog poll interval (seconds)
    watchdog_interval: float = 0.05


class _Job:
    """One validated request waiting for an engine lane."""

    __slots__ = (
        "request", "session", "response", "done", "budget", "started_at",
        "poison",
    )

    def __init__(
        self,
        request: Dict[str, Any],
        session: Optional[ServerSession],
        budget: Optional[Budget] = None,
        poison: bool = False,
    ) -> None:
        self.request = request
        self.session = session
        self.response: Dict[str, Any] = {}
        self.done = threading.Event()
        #: deadline / cancellation token (None for stats/shutdown)
        self.budget = budget
        #: monotonic time the engine lane picked the job up (0 = queued)
        self.started_at = 0.0
        #: chaos hook: a poison job kills its lane thread outright
        #: (``poison_lane``), exercising the watchdog's respawn path
        self.poison = poison


class _LanePoison(BaseException):
    """Raised by a poison job; escapes the per-job ``except Exception``
    so the lane thread genuinely dies (threads cannot be SIGKILLed)."""


#: the per-lane robustness counters; merged (summed) for ``stats``
_LANE_COUNTERS = (
    "deadline_exceeded",
    "cancelled",
    "shed_overloaded",
    "watchdog_cancels",
    "lane_restarts",
)


def _snapshot_stats(stats: EngineStats) -> EngineStats:
    """Copy another lane's live counters without stopping that lane.

    A lane mutates its dict-valued counters while we iterate; CPython
    then raises ``RuntimeError`` from the iteration, never corrupts —
    so retry a few times and fall back to a zero snapshot rather than
    failing the ``stats`` request.
    """
    for _ in range(8):
        try:
            return stats.copy()
        except RuntimeError:
            continue
    return EngineStats()


def _check_result(report: BatchReport, pooled: bool = False) -> Dict[str, Any]:
    """A ``check`` response body: one verdict row per path, in order."""
    return {
        "ok": report.ok,
        "verdicts": [
            {
                "path": v.path,
                "ok": v.ok,
                "error": v.error,
                "types": v.types,
                "from_cache": v.from_cache,
            }
            for v in report.verdicts
        ],
        "pooled": pooled,
    }


class _Lane:
    """One warm engine lane: a Logic, a bounded queue, one thread."""

    def __init__(self, server: "CheckingServer", index: int, logic: Logic) -> None:
        self.server = server
        self.index = index
        self.logic = logic
        config = server.config
        #: per-lane handle over the *shared* cache directory; flushes
        #: are atomic per shard with re-read-before-write, so
        #: concurrent lane flushes lose nothing but the race
        self.persist: Optional[ProofCache] = None
        if config.cache_dir is not None:
            self.persist = ProofCache(config.cache_dir, logic_config_key(logic))
            logic.attach_persistent_cache(self.persist)
        depth = max(0, config.max_queue_depth)
        self.queue: "queue.Queue[_Job]" = queue.Queue(maxsize=depth)
        self.thread: Optional[threading.Thread] = None
        #: the job this lane is currently running (watchdog input)
        self.current_job: Optional[_Job] = None
        self.failure: Optional[str] = None
        self.requests_total = 0
        #: engine-busy wall clock, for the utilization figure in stats
        self.busy_seconds = 0.0
        #: live connections routed here (router input)
        self.connections = 0
        #: per-lane robustness counters (guarded by server._robust_lock)
        self.robustness: Dict[str, int] = {key: 0 for key in _LANE_COUNTERS}

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.thread is not None and self.thread.is_alive()

    def count(self, key: str, amount: int = 1) -> None:
        with self.server._robust_lock:
            self.robustness[key] = self.robustness.get(key, 0) + amount

    def spawn(self) -> None:
        thread = threading.Thread(
            target=self._engine_loop,
            name=f"repro-server-lane-{self.index}",
            daemon=True,
        )
        self.thread = thread
        self.server._threads.append(thread)
        thread.start()

    # ------------------------------------------------------------------
    # epoch coordination
    # ------------------------------------------------------------------
    def sync_epoch(self) -> None:
        """Catch this lane's engine up to the server epoch (lazy).

        Called before any job runs; a lane that missed resets while
        busy (or respawning) converges in one ``reset_caches`` call, so
        a job enqueued after a reset response can never see pre-reset
        engine state, whichever lane it lands on.
        """
        target = self.server._epoch
        if self.logic.epoch < target:
            self.logic.reset_caches(epoch=target)

    # ------------------------------------------------------------------
    # the engine loop
    # ------------------------------------------------------------------
    def _engine_loop(self) -> None:
        server = self.server
        try:
            self._engine_loop_inner()
        except BaseException as exc:  # lane death: supervised, not fatal
            if not server._stop.is_set():
                # per-job exceptions are caught in _run_job, so this
                # is loop bookkeeping dying (or a poison job); record
                # why and let the watchdog respawn a fresh lane thread
                # over the warm engine.
                self.failure = f"{type(exc).__name__}: {exc}"
                return
            raise
        finally:
            if server._stop.is_set():
                # jobs enqueued around the moment of shutdown still get
                # a response (stop() sweeps once more for the race)
                server._fail_lane_queue(self, "server is stopping")

    def _engine_loop_inner(self) -> None:
        server = self.server
        while not server._stop.is_set():
            try:
                job = self.queue.get(timeout=0.1)
            except queue.Empty:
                continue
            self.sync_epoch()
            self.requests_total += 1
            busy_from = time.monotonic()
            try:
                self._run_job(job)
            finally:
                self.current_job = None
                self.busy_seconds += time.monotonic() - busy_from
                # only reachable when the job was abandoned: the lane is
                # dying (watchdog respawns it) or the server stopping
                if not job.done.is_set():
                    job.response = error_response(
                        job.request,
                        "internal-error",
                        "engine lane died mid-request; lane restarting",
                        retryable=True,
                    )
                    job.response.setdefault("lane", self.index)
                    job.done.set()

    def _begin_job(self, job: _Job) -> None:
        job.started_at = time.monotonic()
        self.current_job = job

    def _cancelled_response(
        self, request: Dict[str, Any], exc: CancelledError
    ) -> Dict[str, Any]:
        self.count(
            "deadline_exceeded" if exc.code == "deadline_exceeded" else "cancelled"
        )
        return error_response(request, exc.code, str(exc), retryable=True)

    def _run_job(self, job: _Job) -> None:
        if job.poison:
            raise _LanePoison(f"lane {self.index} poisoned (chaos)")
        self._begin_job(job)
        try:
            self._execute(job)
        except CancelledError as exc:
            # belt-and-braces: _execute turns cancellations into
            # responses itself; a late tick (e.g. inside the stats
            # delta) must still leave the lane alive.
            job.response = self._cancelled_response(job.request, exc)
        except Exception as exc:  # the lane must survive anything
            job.response = error_response(
                job.request, "internal-error", f"{type(exc).__name__}: {exc}"
            )
        job.response.setdefault("lane", self.index)
        job.done.set()

    def _execute(self, job: _Job) -> None:
        request = job.request
        op = request["op"]
        session = job.session
        budget = job.budget
        if budget is not None:
            try:
                # expired while queued: answer without touching the
                # engine (or the pool — budgets do not cross the fork)
                budget.check()
            except CancelledError as exc:
                job.response = self._cancelled_response(request, exc)
                return
        baseline = self.logic.stats.copy()
        try:
            with self.logic.budgeted(budget):
                result = self._execute_op(op, request, session)
        except CancelledError as exc:
            # mid-proof abort: the budget raise unwound through
            # exception-safe paths only (push/pop brackets, cache
            # writes that happen after success), so the lane stays
            # warm; report retryably and keep serving.
            response = self._cancelled_response(request, exc)
            response["stats"] = self.logic.stats.delta_from(baseline).as_dict()
            job.response = response
            return
        if op in ("check", "check_text", "eval"):
            # a pooled check already carries its workers' merged stats
            result.setdefault(
                "stats", self.logic.stats.delta_from(baseline).as_dict()
            )
        job.response = self.server._respond(request, **result)

    def _execute_op(
        self, op: str, request: Dict[str, Any], session: ServerSession
    ) -> Dict[str, Any]:
        if op == "check":
            return self._check_paths(request["paths"])
        if op == "check_text":
            return session.check_text(request["name"], request["text"])
        if op == "eval":
            return session.eval(request["expr"])
        if op == "stats":
            return self.server._stats(session, self)
        if op == "reset":
            return self.server._reset(self)
        if op == "shutdown":
            self.server._shutdown_requested.set()
            return {"ok": True, "stopping": True}
        # unreachable: validate_request gates ops
        return error_response(request, "bad-request", f"unknown op {op!r}")

    def _check_paths(self, paths: List[str]) -> Dict[str, Any]:
        pool = self.server.pool
        if pool is None or len(paths) < 2:
            return _check_result(check_many(paths, jobs=1, logic=self.logic))
        # one pool, many lanes: dispatches are serialized — the fork
        # pool's map/watchdog machinery is not reentrant
        with self.server._pool_lock:
            report = pool.check_many(paths)
        result = _check_result(report, pooled=True)
        result["stats"] = report.stats.as_dict()
        return result

    def describe(self, uptime: float) -> Dict[str, Any]:
        """This lane's row in the ``stats`` response."""
        with self.server._robust_lock:
            robustness = dict(self.robustness)
        return {
            "index": self.index,
            "engine_alive": self.alive,
            "queue_depth": self.queue.qsize(),
            "connections": self.connections,
            "requests_total": self.requests_total,
            "utilization": round(self.busy_seconds / uptime, 4) if uptime > 0 else 0.0,
            "epoch": self.logic.epoch,
            "robustness": robustness,
        }


class CheckingServer:
    """A long-running checking service over N warm engine lanes.

    Lifecycle: :meth:`start` binds the socket and spins up the lane
    and accept threads (returns the bound address);
    :meth:`serve_forever` additionally blocks until a ``shutdown``
    request or :meth:`stop`.  Safe to run in-process for tests — every
    thread is a daemon thread and :meth:`stop` is idempotent.
    """

    def __init__(self, config: ServerConfig, logic: Optional[Logic] = None) -> None:
        self.config = config
        #: lane 0's engine is the caller's (default: the process-wide
        #: shared one, so pool workers fork with every cache the daemon
        #: has built up); extra lanes get configuration-equal replicas.
        base = logic if logic is not None else Checker().logic
        lane_count = max(1, config.lanes)
        self._robust_lock = threading.Lock()
        self._lanes: List[_Lane] = []
        self._threads: List[threading.Thread] = []
        for index in range(lane_count):
            engine = base if index == 0 else base.replica()
            self._lanes.append(_Lane(self, index, engine))
        self.pool: Optional[WorkerPool] = (
            WorkerPool(config.jobs, config.cache_dir) if config.jobs > 1 else None
        )
        self._pool_lock = threading.Lock()
        #: the server epoch every lane converges to; resumed from the
        #: cache directory's meta.json so it is monotone across daemon
        #: restarts over one cache dir
        self._epoch = base.epoch
        self._persist = self._lanes[0].persist
        if self._persist is not None:
            self._epoch = max(self._epoch, self._persist.epoch)
        self._epoch_lock = threading.Lock()
        for lane in self._lanes:
            lane.logic.epoch = self._epoch
        self._sessions: Dict[str, ServerSession] = {}
        self._sessions_lock = threading.Lock()
        self._route_lock = threading.Lock()
        self._conn_threads: set = set()
        self._streams: List[MessageStream] = []
        self._listener: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._shutdown_requested = threading.Event()
        self._started = False
        self._session_counter = 0
        self._started_at = 0.0
        #: server-level robustness counters (everything else is per lane)
        self._server_robustness: Dict[str, int] = {"pings": 0}
        #: jobs whose connection thread is blocked on ``done`` — stop()
        #: fails and wakes every one of them so no wait outlives the server
        self._inflight: Set[_Job] = set()
        self._inflight_lock = threading.Lock()
        self.address: Optional[Tuple[str, Any]] = None

    # ------------------------------------------------------------------
    # single-lane compatibility surface (lane 0 is "the" engine)
    # ------------------------------------------------------------------
    @property
    def logic(self) -> Logic:
        return self._lanes[0].logic

    @property
    def lanes(self) -> List[_Lane]:
        return self._lanes

    @property
    def requests_total(self) -> int:
        return sum(lane.requests_total for lane in self._lanes)

    @property
    def robustness(self) -> Dict[str, int]:
        """Merged robustness counters across lanes (+ server-level)."""
        with self._robust_lock:
            merged = dict(self._server_robustness)
            for lane in self._lanes:
                for key, value in lane.robustness.items():
                    merged[key] = merged.get(key, 0) + value
        return merged

    def _count(self, key: str, amount: int = 1) -> None:
        with self._robust_lock:
            self._server_robustness[key] = (
                self._server_robustness.get(key, 0) + amount
            )

    @staticmethod
    def lane_index_for(affinity: str, lanes: int) -> int:
        """The lane an ``affinity`` key routes to — a *stable* hash.

        sha256 rather than Python's ``hash()``: the mapping must agree
        across processes and interpreter runs (``PYTHONHASHSEED``), so
        a client can rely on one affinity key always warming one lane.
        """
        digest = hashlib.sha256(affinity.encode("utf-8")).hexdigest()
        return int(digest[:8], 16) % max(1, lanes)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Bind, start the lane/accept threads; returns the address.

        The address is ``("unix", path)`` or ``("tcp", (host, port))``
        with the actually-bound port (useful with ``port=0``).
        """
        if self._started:
            return self.address
        self._started = True
        self._started_at = time.monotonic()
        if self.config.socket_path is not None:
            path = self.config.socket_path
            if os.path.exists(path):
                os.unlink(path)  # a stale socket from a dead daemon
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(path)
            self.address = ("unix", path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.config.host, self.config.port))
            self.address = ("tcp", listener.getsockname())
        listener.listen(64)
        listener.settimeout(0.2)  # so the accept loop can observe stop
        self._listener = listener
        for lane in self._lanes:
            lane.spawn()
        for target, name in (
            (self._accept_loop, "repro-server-accept"),
            (self._shutdown_watcher, "repro-server-shutdown"),
            (self._watchdog_loop, "repro-server-watchdog"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self.address

    def serve_forever(self) -> None:
        self.start()
        self._stop.wait()

    def stop(self) -> None:
        """Shut everything down (idempotent)."""
        if self._stop.is_set():
            return
        self._stop.set()
        # wake the shutdown watcher (it blocks on this event forever);
        # with _stop already set it exits instead of re-entering stop().
        # Without the wake, every stop() paid the full join timeout
        # below waiting on a thread that could never observe it.
        self._shutdown_requested.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for stream in list(self._streams):
            stream.close()
        self._fail_queued_jobs("server is stopping")
        # wake every blocked connection wait *now*: connection threads
        # block on a plain Event.wait(), so without this they would
        # only notice the shutdown when their job completed.
        with self._inflight_lock:
            inflight = list(self._inflight)
        for job in inflight:
            if not job.done.is_set():
                if job.budget is not None:
                    job.budget.cancel("server is stopping")
                job.response = error_response(
                    job.request, "internal-error", "server is stopping"
                )
                job.done.set()
        current = threading.current_thread()
        for thread in list(self._threads) + list(self._conn_threads):
            if thread is not current:
                thread.join(timeout=5.0)
        if self.pool is not None:
            with self._pool_lock:
                self.pool.close()
        for lane in self._lanes:
            if lane.persist is not None:
                lane.logic.detach_persistent_cache()
                lane.persist.flush()
                lane.persist = None
        self._persist = None
        if self.config.socket_path and os.path.exists(self.config.socket_path):
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass

    def _shutdown_watcher(self) -> None:
        self._shutdown_requested.wait()
        if not self._stop.is_set():
            time.sleep(0.05)  # let the shutdown response reach its client
            self.stop()

    # ------------------------------------------------------------------
    # watchdog: hung-job cancellation + lane supervision, all lanes
    # ------------------------------------------------------------------
    def _watchdog_loop(self) -> None:
        interval = max(0.01, self.config.watchdog_interval)
        hang = self.config.hang_seconds
        while not self._stop.wait(interval):
            for lane in self._lanes:
                job = lane.current_job
                if job is not None and hang > 0:
                    started = job.started_at
                    budget = job.budget
                    if (
                        started
                        and budget is not None
                        and not budget.cancelled
                        and time.monotonic() - started > hang
                    ):
                        # cooperative abort: the lane notices at its next
                        # budget tick and answers with a retryable error.
                        budget.cancel(
                            "watchdog: job exceeded hang threshold "
                            f"({hang:g}s); aborted to keep the lane live"
                        )
                        lane.count("watchdog_cancels")
                if (
                    lane.thread is not None
                    and not lane.thread.is_alive()
                    and not self._stop.is_set()
                ):
                    self._restart_lane(lane)

    def _restart_lane(self, lane: _Lane) -> None:
        """A lane thread died: fail its job, respawn over the warm engine.

        The engine's memo tables only ever hold complete entries
        (verdicts are cached after the kernel returns), so the warm
        caches are safe to keep.
        """
        lane.count("lane_restarts")
        job = lane.current_job
        lane.current_job = None
        if job is not None and not job.done.is_set():
            job.response = error_response(
                job.request,
                "internal-error",
                f"engine lane {lane.index} died "
                f"({lane.failure or 'unknown'}); lane restarted",
            )
            job.done.set()
        lane.failure = None
        lane.spawn()

    # ------------------------------------------------------------------
    # chaos hook
    # ------------------------------------------------------------------
    def poison_lane(self, index: int) -> None:
        """Kill lane ``index``'s thread via a poison job (chaos only).

        Threads cannot be SIGKILLed, so the poison job raises a
        ``BaseException`` subclass that escapes the lane's per-job
        exception handling — the closest honest analogue of a lane
        crash.  The watchdog detects the dead thread and respawns it;
        surviving lanes keep answering throughout.
        """
        job = _Job({"op": "ping"}, None, poison=True)
        self._lanes[index].queue.put(job, timeout=5.0)

    # ------------------------------------------------------------------
    # connection side
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(
                target=self._handle_connection,
                args=(conn,),
                name="repro-server-conn",
                daemon=True,
            )
            self._conn_threads.add(thread)
            thread.start()

    def _job_budget(self, request: Dict[str, Any]) -> Optional[Budget]:
        """The request's budget: its deadline, or the default, or
        cancel-only (the watchdog needs a token even without a deadline)."""
        op = request["op"]
        if op not in DEADLINE_OPS:
            return None
        deadline_ms = request.get("deadline_ms", self.config.default_deadline_ms)
        return Budget(deadline_ms)

    def _ping_response(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self._count("pings")
        lanes_alive = sum(1 for lane in self._lanes if lane.alive)
        return self._respond(
            request,
            ok=True,
            protocol=PROTOCOL_VERSION,
            uptime_seconds=round(time.monotonic() - self._started_at, 3),
            queue_depth=sum(lane.queue.qsize() for lane in self._lanes),
            engine_alive=lanes_alive == len(self._lanes),
            lanes=len(self._lanes),
            lanes_alive=lanes_alive,
        )

    def _route(self, request: Dict[str, Any]) -> _Lane:
        """Pick the connection's lane, once, at its first queued request.

        An ``affinity`` key pins the connection to a stable lane (one
        logical session always lands on the same warm module/engine
        caches, across reconnects); without one the least-loaded lane
        (fewest connections, then shortest queue) wins.
        """
        affinity = request.get("affinity")
        with self._route_lock:
            if isinstance(affinity, str):
                lane = self._lanes[self.lane_index_for(affinity, len(self._lanes))]
            else:
                lane = min(
                    self._lanes,
                    key=lambda l: (l.connections, l.queue.qsize(), l.index),
                )
            lane.connections += 1
        return lane

    def _make_session(self, lane: _Lane) -> ServerSession:
        with self._sessions_lock:
            self._session_counter += 1
            session = ServerSession(
                f"s{self._session_counter}", lane.logic, lane_index=lane.index
            )
            self._sessions[session.id] = session
        return session

    def _handle_connection(self, conn: socket.socket) -> None:
        stream = MessageStream(conn)
        self._streams.append(stream)
        lane: Optional[_Lane] = None
        session: Optional[ServerSession] = None
        try:
            while not self._stop.is_set():
                try:
                    message = stream.receive()
                except ProtocolError as exc:
                    # framing is broken; report and drop the connection
                    try:
                        stream.send(error_response(None, "protocol-error", str(exc)))
                    except OSError:
                        pass
                    return
                if message is None:
                    return
                try:
                    request = validate_request(message)
                except ProtocolError as exc:
                    stream.send(error_response(message, "bad-request", str(exc)))
                    continue
                if request["op"] == "ping":
                    # answered right here: the health probe must work
                    # even when every engine lane is wedged.
                    stream.send(self._ping_response(request))
                    continue
                if lane is None:
                    # routed once, at the first queued request; sticky
                    # for the connection's (= the session's) lifetime
                    lane = self._route(request)
                    session = self._make_session(lane)
                job = _Job(request, session, self._job_budget(request))
                with self._inflight_lock:
                    self._inflight.add(job)
                try:
                    if self._stop.is_set():
                        job.response = error_response(
                            request, "internal-error", "server is stopping"
                        )
                    else:
                        try:
                            lane.queue.put_nowait(job)
                        except queue.Full:
                            # load shedding: reject now, retryably,
                            # instead of queueing unboundedly
                            lane.count("shed_overloaded")
                            job.response = error_response(
                                request,
                                "overloaded",
                                f"lane {lane.index} job queue is full "
                                f"(max_queue_depth={self.config.max_queue_depth}); "
                                "retry with backoff",
                                retryable=True,
                            )
                            job.response.setdefault("lane", lane.index)
                        else:
                            # no polling: stop() fails + wakes in-flight
                            # jobs, so this wait cannot outlive the server
                            job.done.wait()
                finally:
                    with self._inflight_lock:
                        self._inflight.discard(job)
                stream.send(job.response)
                if request["op"] == "shutdown":
                    return
        except OSError:
            return  # peer vanished mid-conversation
        finally:
            stream.close()
            if stream in self._streams:
                self._streams.remove(stream)
            if session is not None:
                with self._sessions_lock:
                    self._sessions.pop(session.id, None)
            if lane is not None:
                with self._route_lock:
                    lane.connections -= 1
            self._conn_threads.discard(threading.current_thread())

    # ------------------------------------------------------------------
    # queue sweeping
    # ------------------------------------------------------------------
    def _fail_lane_queue(self, lane: _Lane, reason: str) -> None:
        """Answer every job still queued on ``lane``."""
        while True:
            try:
                job = lane.queue.get_nowait()
            except queue.Empty:
                return
            job.response = error_response(job.request, "internal-error", reason)
            job.done.set()

    def _fail_queued_jobs(self, reason: str) -> None:
        """Answer every still-queued job so no connection waits forever."""
        for lane in self._lanes:
            self._fail_lane_queue(lane, reason)

    # ------------------------------------------------------------------
    # ops that need the whole server (run on the serving lane's thread)
    # ------------------------------------------------------------------
    def _reset(self, lane: _Lane) -> Dict[str, Any]:
        """Bump the server epoch; converge this lane now, others lazily.

        The serving lane resets immediately, so the connection that
        asked observes cold state on its very next request.  Every
        other lane converges via :meth:`_Lane.sync_epoch` before its
        next job — which is exactly strong enough: any request
        enqueued after this response was sent runs post-reset,
        wherever it lands.  The epoch is also recorded in the shared
        cache's ``meta.json``, so a restarted daemon resumes the count.
        """
        with self._epoch_lock:
            self._epoch += 1
            target = self._epoch
        lane.logic.reset_caches(epoch=target)
        if lane.persist is not None:
            lane.persist.bump_epoch(target)
        with self._sessions_lock:
            live_sessions = list(self._sessions.values())
        for live in live_sessions:
            # stale sessions self-heal via guard_epoch on their own
            # lane; the serving lane's can be guarded right here
            if live.lane_index == lane.index:
                live.guard_epoch()
        if self.pool is not None:
            # resident workers hold pre-reset engine caches; tear
            # them down so the next pooled check re-forks cold
            # from the freshly-reset parent.
            with self._pool_lock:
                self.pool.close()
        return {"ok": True, "epoch": target}

    def _stats(self, session: ServerSession, lane: _Lane) -> Dict[str, Any]:
        uptime = time.monotonic() - self._started_at
        with self._sessions_lock:
            sessions = len(self._sessions)
        pool_info: Dict[str, Any] = {"jobs": self.config.jobs, "resident": False}
        if self.pool is not None:
            pool_info = {
                "jobs": self.pool.jobs,
                "resident": self.pool.alive,
                "batches": self.pool.batches,
            }
        robustness = self.robustness
        robustness["cache_shards_skipped"] = sum(
            l.persist.shards_skipped for l in self._lanes if l.persist is not None
        )
        engine = EngineStats()
        for peer in self._lanes:
            # other lanes keep mutating their counters; snapshot with
            # retries rather than pausing the fleet for a stats call
            engine.merge(
                peer.logic.stats if peer is lane
                else _snapshot_stats(peer.logic.stats)
            )
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "epoch": self._epoch,
            "engine": engine.as_dict(),
            "server": {
                "uptime_seconds": round(uptime, 3),
                "requests_total": self.requests_total,
                "sessions": sessions,
                "pool": pool_info,
                "queue": {
                    "depth": sum(l.queue.qsize() for l in self._lanes),
                    "max_depth": self.config.max_queue_depth,
                },
                "robustness": robustness,
                "lanes": [l.describe(uptime) for l in self._lanes],
            },
            "session": session.describe(),
        }

    @staticmethod
    def _respond(request: Dict[str, Any], **fields) -> Dict[str, Any]:
        response: Dict[str, Any] = {"op": request["op"]}
        if "id" in request:
            response["id"] = request["id"]
        response.update(fields)
        response.setdefault("ok", True)
        return response
