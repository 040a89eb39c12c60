"""The checking daemon: N engine lanes, each its own forked process.

Process model — one concurrency model, chosen so checking throughput
grows with cores on CPython:

* **The parent process** does I/O, routing and supervision only.
  Connection threads frame requests off the socket, validate them,
  enqueue :class:`_Job`\\ s on their routed lane's bounded queue and
  write the responses back.  ``ping`` is answered right there — a
  health probe must work even when every engine lane is wedged.
* **Engine lanes** (``--lanes N``) are processes forked from the
  parent's warm :class:`~repro.logic.prove.Logic` by :meth:`start`,
  before any server thread exists.  Each lane process owns its copy of
  the engine and the :class:`~repro.server.session.ServerSession`\\ s
  of the connections routed to it, and checks on its own interpreter,
  so lanes never share a GIL.  In the parent, each lane has a **driver
  thread**: it takes one job off the lane's queue, sends it over a
  socket pair to the lane process and blocks on the reply.  Every
  judgment cache is content-addressed, so verdicts are bit-identical to
  a fresh single engine whatever lane answers — pinned by the
  differential suite in ``tests/test_server_lanes.py``.
* **Routing is sticky with optional affinity.**  A connection is
  assigned a lane at its first queued request — by the request's
  ``affinity`` key (stable hash, so one logical session always lands
  on the same warm lane across reconnects) or to the least-loaded lane
  — and keeps it for the connection's lifetime, so session-scoped
  incremental re-checking keeps hitting the same warm module store and
  engine caches.  When the connection closes, its lane drops the
  session.
* **One request per lane turn**: a lane runs one job to a response,
  then takes the next.  Every engine request, a multi-file ``check``
  included, runs on its routed lane; the parent never checks.

Epoch coordination — how lanes converge after ``reset``:

* The server keeps one **epoch**.  ``reset`` (from any lane) bumps it,
  the serving lane resets its engine at once and records the new epoch
  in the persistent cache's ``meta.json`` (so epochs stay monotone
  across daemon restarts over one cache directory).  Every job message
  carries the server epoch; a lane behind it calls
  ``reset_caches(epoch=...)`` before running the job.  A request enqueued after the reset response was sent is
  therefore always served post-reset state, while requests already in
  flight on other lanes complete under the old epoch — the usual
  linearizability for operations that overlap the reset.

Robustness layer (deadlines, backpressure, supervision) — all per lane:

* Every engine request carries a :class:`~repro.budget.Budget`; its
  absolute deadline crosses the pipe with the job (``time.monotonic``
  is system-wide on Linux, so queue wait counts against it).  Expired
  requests abort mid-proof with a structured, retryable
  ``deadline_exceeded`` while the lane stays warm.
* Each lane's job queue is **bounded** (``max_queue_depth``); a full
  lane rejects immediately with retryable ``overloaded``.
* A single **watchdog** thread sends ``SIGUSR1`` to a lane whose job
  runs past ``hang_seconds``; the lane's handler cancels that job's
  budget, which answers a retryable ``cancelled``.
* A lane process that dies (EOF on its pipe) fails its in-flight job
  with a retryable error and is re-forked from the parent's engine by
  its driver; surviving lanes keep serving throughout.
* ``stats`` never waits on a busy lane: every reply carries that
  lane's engine-counter delta and robustness counters, and the parent
  keeps per-lane totals.
* ``stop()`` fails queued and in-flight jobs, shuts the lane pipes,
  sends ``SIGTERM``, waits a short grace period, sends ``SIGKILL`` and
  reaps every lane before it returns.  On Linux each lane also asks to
  be ``SIGKILL``\\ ed when its parent dies (``PR_SET_PDEATHSIG``), so
  no lane outlives its daemon.

Isolation and resets are session concerns — see
:mod:`repro.server.session`; the wire protocol is
:mod:`repro.server.protocol`; the spec with examples is
``docs/SERVER.md``.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import pickle
import queue
import signal
import socket
import struct
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from ..batch.cache import ProofCache
from ..batch.pipeline import BatchReport, check_many, logic_config_key
from ..budget import Budget, CancelledError, valid_deadline_ms
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
    #: engine lanes; each is a process with its own engine and a
    #: bounded queue
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

    __slots__ = ("request", "session_id", "response", "done", "budget",
                 "started_at")

    def __init__(
        self,
        request: Dict[str, Any],
        session_id: Optional[str],
        budget: Optional[Budget] = None,
    ) -> None:
        self.request = request
        self.session_id = session_id
        self.response: Dict[str, Any] = {}
        self.done = threading.Event()
        #: deadline / cancellation token (None for stats/shutdown); a
        #: copy crosses the pipe with the job
        self.budget = budget
        #: monotonic time the driver started the job (0 = queued)
        self.started_at = 0.0


#: the per-lane robustness counters; merged (summed) for ``stats``
_LANE_COUNTERS = (
    "deadline_exceeded",
    "cancelled",
    "shed_overloaded",
    "watchdog_cancels",
    "lane_restarts",
)

#: how long ``stop()`` waits after SIGTERM before it SIGKILLs a lane
_STOP_GRACE_SECONDS = 1.0

#: ``prctl`` option: signal this process when its parent dies (Linux)
_PR_SET_PDEATHSIG = 1

_HEADER = struct.Struct("!Q")


def _send(sock: socket.socket, message: Any) -> None:
    """Write one length-prefixed pickle to a lane pipe."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv(sock: socket.socket) -> Any:
    """Read one message from a lane pipe; ``EOFError`` once it closed."""
    (size,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    return pickle.loads(_recv_exact(sock, size))


def _recv_exact(sock: socket.socket, size: int) -> bytearray:
    buffer = bytearray(size)
    view = memoryview(buffer)
    got = 0
    while got < size:
        count = sock.recv_into(view[got:])
        if count == 0:
            raise EOFError("lane pipe closed")
        got += count
    return buffer


def _respond(request: Dict[str, Any], **fields) -> Dict[str, Any]:
    response: Dict[str, Any] = {"op": request["op"]}
    if "id" in request:
        response["id"] = request["id"]
    response.update(fields)
    response.setdefault("ok", True)
    return response


def _check_result(report: BatchReport) -> Dict[str, Any]:
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
    }


def _die_with_parent(parent_pid: int) -> None:
    """Make the calling lane process exit when its parent does.

    On Linux the kernel SIGKILLs the lane the moment the parent dies
    (``PR_SET_PDEATHSIG``; strictly, when the parent *thread* that
    forked it exits — drivers live as long as the daemon).  Elsewhere
    the lane still exits on EOF from its pipe.
    """
    if sys.platform.startswith("linux"):
        try:
            prctl = ctypes.CDLL(None, use_errno=True).prctl
            prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
            prctl.restype = ctypes.c_int
            prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
        except (OSError, AttributeError):
            pass
    if os.getppid() != parent_pid:  # the parent died before the prctl
        os._exit(0)


def _exit_reason(status: Optional[int]) -> str:
    if status is None:
        return "unknown"
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"killed by {signal.Signals(-code).name}"
    return f"exit status {code}"


def _peak_rss_mb(pid: Optional[int]) -> Optional[float]:
    """A process's peak resident set (``VmHWM``), or None if unreadable."""
    if pid is None:
        return None
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024.0, 1)
    except OSError:
        pass
    return None


class _LaneEngine:
    """The engine half of a lane; exists only in the lane process."""

    def __init__(self, index: int, logic: Logic, config: ServerConfig) -> None:
        self.index = index
        self.logic = logic
        self.hang_seconds = config.hang_seconds
        #: this lane's handle over the *shared* cache directory; each
        #: flush appends one new segment and compaction only unlinks
        #: segments this handle loaded, so concurrent lane flushes
        #: lose nothing
        self.persist: Optional[ProofCache] = None
        if config.cache_dir is not None:
            self.persist = ProofCache(config.cache_dir, logic_config_key(logic))
            logic.attach_persistent_cache(self.persist)
        self.sessions: Dict[str, ServerSession] = {}
        #: the running job's budget — what the signal handlers cancel
        self.budget: Optional[Budget] = None
        self.stopping = False
        self._shards_reported = 0

    def install_signal_handlers(self) -> None:
        # Ctrl-C reaches the whole process group; the parent stops lanes
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGUSR1, self._on_hang)
        signal.signal(signal.SIGTERM, self._on_term)

    def _on_hang(self, signum, frame) -> None:
        budget = self.budget
        if budget is not None:
            # cooperative abort: the job notices at its next budget tick
            budget.cancel(
                "watchdog: job exceeded hang threshold "
                f"({self.hang_seconds:g}s); aborted to keep the lane live"
            )

    def _on_term(self, signum, frame) -> None:
        self.stopping = True
        budget = self.budget
        if budget is not None:
            budget.cancel("server is stopping")

    def serve(self, sock: socket.socket) -> None:
        """Answer jobs until the parent closes the pipe."""
        try:
            while not self.stopping:
                try:
                    message = _recv(sock)
                except (EOFError, OSError):
                    return
                for session_id in message["drop"]:
                    self.sessions.pop(session_id, None)
                job = message["job"]
                if job is None:
                    continue
                reply = self.run(**job)
                try:
                    _send(sock, reply)
                except OSError:
                    return
        finally:
            if self.persist is not None:
                self.logic.detach_persistent_cache()
                self.persist.flush()

    def run(
        self,
        request: Dict[str, Any],
        session_id: str,
        epoch: int,
        budget: Optional[Budget],
    ) -> Dict[str, Any]:
        """One job: the response plus what the parent's totals need."""
        # set first, so a watchdog signal landing at any point of the
        # job finds the budget to cancel
        self.budget = budget
        baseline = self.logic.stats.copy()
        counts: Dict[str, int] = {}
        carries_stats = request["op"] in ("check", "check_text", "eval")
        try:
            if self.logic.epoch < epoch:
                # lazy epoch sync: a lane that missed resets converges
                # in one call, before the job can see pre-reset state
                self.logic.reset_caches(epoch=epoch)
            session = self.sessions.get(session_id)
            if session is None:
                session = self.sessions[session_id] = ServerSession(
                    session_id, self.logic, lane_index=self.index
                )
            with self.logic.budgeted(budget):
                response = self._execute(request, session, epoch)
        except CancelledError as exc:
            # mid-proof abort: the budget raise unwound through
            # exception-safe paths only (push/pop brackets, cache
            # writes that happen after success), so the lane stays
            # warm; report retryably and keep serving.
            counts[exc.code] = 1
            carries_stats = True
            response = error_response(request, exc.code, str(exc), retryable=True)
        except Exception as exc:  # the lane must survive anything
            response = error_response(
                request, "internal-error", f"{type(exc).__name__}: {exc}"
            )
        finally:
            self.budget = None
        delta = self.logic.stats.delta_from(baseline)
        if carries_stats:
            response["stats"] = delta.as_dict()
        if self.persist is not None:
            skipped = self.persist.shards_skipped
            counts["cache_shards_skipped"] = skipped - self._shards_reported
            self._shards_reported = skipped
        return {
            "response": response,
            "stats": delta,
            "counts": counts,
            "epoch": self.logic.epoch,
        }

    def _execute(
        self, request: Dict[str, Any], session: ServerSession, epoch: int
    ) -> Dict[str, Any]:
        op = request["op"]
        if op == "check":
            result = _check_result(check_many(request["paths"], jobs=1, logic=self.logic))
        elif op == "check_text":
            result = session.check_text(request["name"], request["text"])
        elif op == "eval":
            result = session.eval(request["expr"])
        elif op == "stats":
            result = {"session": session.describe()}
        elif op == "reset":
            # the epoch sync above already reset this engine
            if self.persist is not None:
                self.persist.bump_epoch(epoch)
            for live in self.sessions.values():
                live.guard_epoch()
            result = {}
        else:  # unreachable: the parent answers every other op
            return error_response(request, "bad-request", f"unknown op {op!r}")
        return _respond(request, **result)


class _Lane:
    """One engine lane, parent side: a bounded queue, a driver thread
    and the lane process it drives."""

    def __init__(self, server: "CheckingServer", index: int) -> None:
        self.server = server
        self.index = index
        depth = max(0, server.config.max_queue_depth)
        self.queue: "queue.Queue[_Job]" = queue.Queue(maxsize=depth)
        #: the job this lane is currently running (watchdog input)
        self.current_job: Optional[_Job] = None
        self.requests_total = 0
        #: driver-busy wall clock, for the utilization figure in stats
        self.busy_seconds = 0.0
        #: live connections routed here (router input)
        self.connections = 0
        #: per-lane robustness counters (guarded by server._robust_lock)
        self.robustness: Dict[str, int] = {key: 0 for key in _LANE_COUNTERS}
        #: engine counters summed over every reply (server._robust_lock)
        self.engine = EngineStats()
        self.shards_skipped = 0
        #: the lane engine's epoch as of its last reply
        self.epoch = 0
        #: the lane process; ``_lock`` guards it against the watchdog,
        #: ``ping`` and ``stop()``, which signal or reap it
        self.pid: Optional[int] = None
        self.sock: Optional[socket.socket] = None
        self._exit_status: Optional[int] = None
        self._lock = threading.Lock()
        #: sessions closed since the last message to the lane
        self._dropped: List[str] = []

    # ------------------------------------------------------------------
    # the lane process
    # ------------------------------------------------------------------
    def fork(self) -> None:
        """Fork the lane process from the parent's engine.

        Callers hold ``server._fork_lock``.
        """
        server = self.server
        parent_pid = os.getpid()
        parent_end, child_end = socket.socketpair()
        pid = os.fork()
        if pid == 0:  # the lane process; never returns
            code = 1
            try:
                parent_end.close()
                server._close_in_lane()
                _die_with_parent(parent_pid)
                engine = _LaneEngine(self.index, server.logic, server.config)
                engine.install_signal_handlers()
                engine.serve(child_end)
                code = 0
            finally:
                os._exit(code)
        child_end.close()
        with self._lock:
            self.pid, self.sock, self._exit_status = pid, parent_end, None
        self.epoch = server.logic.epoch

    @property
    def alive(self) -> bool:
        return self.pid is not None and not self.reap(block=False)

    def reap(self, block: bool) -> bool:
        """True once the lane process has exited (reaping it if needed)."""
        with self._lock:
            if self._exit_status is None and self.pid is not None:
                if block:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(self.pid, signal.SIGKILL)
                try:
                    pid, status = os.waitpid(self.pid, 0 if block else os.WNOHANG)
                except ChildProcessError:
                    pid, status = self.pid, 0
                if pid == self.pid:
                    self._exit_status = status
            return self._exit_status is not None

    def signal(self, signum: int) -> None:
        with self._lock:
            if self.pid is not None and self._exit_status is None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(self.pid, signum)

    def shutdown_pipe(self) -> None:
        """Wake both ends: the driver and the lane process read EOF."""
        if self.sock is not None:
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def respawn(self) -> str:
        """Reap the dead lane process, fork a fresh one; says why it died."""
        self.reap(block=True)
        reason = _exit_reason(self._exit_status)
        with self.server._fork_lock:
            if not self.server._stop.is_set():
                # counted before the new process exists, so a ping that
                # sees every lane alive again also sees the restart
                self.count("lane_restarts")
                self.sock.close()
                self.fork()
        return reason

    # ------------------------------------------------------------------
    def count(self, key: str, amount: int = 1) -> None:
        with self.server._robust_lock:
            self.robustness[key] = self.robustness.get(key, 0) + amount

    def drop_session(self, session_id: str) -> None:
        with self._lock:
            self._dropped.append(session_id)

    def _take_dropped(self) -> List[str]:
        with self._lock:
            dropped, self._dropped = self._dropped, []
        return dropped

    def cancel_if_hung(self, hang: float) -> None:
        """Watchdog: cancel the current job once it runs past ``hang``."""
        with self._lock:
            job = self.current_job
            budget = job.budget if job is not None else None
            if (
                budget is None
                or budget.cancelled
                or time.monotonic() - job.started_at <= hang
            ):
                return
            # the parent's copy records the cancel; the lane's copy is
            # cancelled by SIGUSR1 and aborts at its next budget tick
            budget.cancel("watchdog")
            if self._exit_status is None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(self.pid, signal.SIGUSR1)
        self.count("watchdog_cancels")

    # ------------------------------------------------------------------
    # the driver loop
    # ------------------------------------------------------------------
    def spawn_driver(self) -> None:
        thread = threading.Thread(
            target=self._drive,
            name=f"repro-server-lane-{self.index}",
            daemon=True,
        )
        self.server._threads.append(thread)
        thread.start()

    def _drive(self) -> None:
        server = self.server
        while not server._stop.is_set():
            try:
                job = self.queue.get(timeout=0.1)
            except queue.Empty:
                self._idle()
                continue
            self.requests_total += 1
            busy_from = time.monotonic()
            try:
                response = self._run(job)
            except Exception as exc:  # the driver must survive anything
                response = error_response(
                    job.request, "internal-error", f"{type(exc).__name__}: {exc}"
                )
            self.busy_seconds += time.monotonic() - busy_from
            response.setdefault("lane", self.index)
            server._finish(job, response)
        # jobs enqueued around the moment of shutdown still get a
        # response (stop() sweeps once more for the race)
        server._fail_lane_queue(self, "server is stopping")

    def _idle(self) -> None:
        if self.reap(block=False):  # died between jobs
            self.respawn()
            return
        dropped = self._take_dropped()
        if dropped:
            try:
                _send(self.sock, {"drop": dropped, "job": None})
            except OSError:
                pass  # a dead lane is noticed on the next idle turn

    def _run(self, job: _Job) -> Dict[str, Any]:
        server = self.server
        request = job.request
        op = request["op"]
        if op == "shutdown":
            server._shutdown_requested.set()
            return _respond(request, stopping=True)
        if job.budget is not None:
            try:
                # expired while queued: answer without touching the engine
                job.budget.check()
            except CancelledError as exc:
                self.count(exc.code)
                return error_response(request, exc.code, str(exc), retryable=True)
        with server._epoch_lock:
            if op == "reset":
                server._epoch += 1
            epoch = server._epoch
        response = self._call(job, epoch)
        if not response.get("ok"):
            return response
        if op == "stats":
            return _respond(request, **server._stats(response["session"]))
        if op == "reset":
            return _respond(request, epoch=epoch)
        return response

    def _call(self, job: _Job, epoch: int) -> Dict[str, Any]:
        """Run one job in the lane process; re-fork the lane if it dies."""
        server = self.server
        message = {
            "drop": self._take_dropped(),
            "job": {
                "request": job.request,
                "session_id": job.session_id,
                "epoch": epoch,
                "budget": job.budget,
            },
        }
        with self._lock:
            job.started_at = time.monotonic()
            self.current_job = job
        try:
            _send(self.sock, message)
            reply = _recv(self.sock)
        except (EOFError, OSError):
            reply = None
        finally:
            with self._lock:
                self.current_job = None
        if reply is None:
            if server._stop.is_set():
                return error_response(job.request, "internal-error", "server is stopping")
            reason = self.respawn()
            return error_response(
                job.request,
                "internal-error",
                f"engine lane {self.index} died ({reason}); lane restarted",
                retryable=True,
            )
        with server._robust_lock:
            self.engine.merge(reply["stats"])
            for key, amount in reply["counts"].items():
                if key == "cache_shards_skipped":
                    self.shards_skipped += amount
                else:
                    self.robustness[key] = self.robustness.get(key, 0) + amount
        self.epoch = reply["epoch"]
        return reply["response"]

    def describe(self, uptime: float) -> Dict[str, Any]:
        """This lane's row in the ``stats`` response."""
        with self.server._robust_lock:
            robustness = dict(self.robustness)
        return {
            "index": self.index,
            "engine_alive": self.alive,
            "pid": self.pid,
            "peak_rss_mb": _peak_rss_mb(self.pid),
            "queue_depth": self.queue.qsize(),
            "connections": self.connections,
            "requests_total": self.requests_total,
            "utilization": round(self.busy_seconds / uptime, 4) if uptime > 0 else 0.0,
            "epoch": self.epoch,
            "robustness": robustness,
        }


class CheckingServer:
    """A long-running checking service over N engine lane processes.

    Lifecycle: :meth:`start` binds the socket, forks the lanes and
    spins up the driver and accept threads (returns the bound address);
    :meth:`serve_forever` additionally blocks until a ``shutdown``
    request or :meth:`stop`.  Safe to run in-process for tests — every
    thread is a daemon thread, :meth:`stop` is idempotent and reaps
    every lane process.
    """

    def __init__(self, config: ServerConfig, logic: Optional[Logic] = None) -> None:
        default_deadline = config.default_deadline_ms
        if default_deadline is not None and not valid_deadline_ms(default_deadline):
            # rejected here, not per request: Budget() would raise in
            # every connection thread that applies the default
            raise ValueError(
                f"default_deadline_ms must be a positive finite number, "
                f"not {default_deadline!r}"
            )
        self.config = config
        #: the engine every lane process is forked from (default: the
        #: process-wide shared one, so lanes start with every cache the
        #: process has built up).  The parent never checks on it once
        #: the lanes exist.
        self.logic = logic if logic is not None else Checker().logic
        self._robust_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._lanes = [_Lane(self, index) for index in range(max(1, config.lanes))]
        #: the server epoch every lane converges to; resumed from the
        #: cache directory's meta.json so it is monotone across daemon
        #: restarts over one cache dir
        self._epoch = self.logic.epoch
        if config.cache_dir is not None:
            self._epoch = max(self._epoch, ProofCache(config.cache_dir).epoch)
        self.logic.epoch = self._epoch
        self._epoch_lock = threading.Lock()
        #: serializes lane forks against stop(), so no lane is forked
        #: after stop() has shut the others down
        self._fork_lock = threading.Lock()
        #: live session id → its lane's index
        self._sessions: Dict[str, int] = {}
        self._sessions_lock = threading.Lock()
        self._route_lock = threading.Lock()
        self._conn_threads: set = set()
        self._streams: List[MessageStream] = []
        self._listener: Optional[socket.socket] = None
        self._stop = threading.Event()
        #: set once stop() has reaped every lane
        self._stopped = threading.Event()
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
        """Bind, fork the lanes, start the threads; returns the address.

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
        # every lane forks before any server thread exists
        with self._fork_lock:
            for lane in self._lanes:
                lane.fork()
        for lane in self._lanes:
            lane.spawn_driver()
        for target, name in (
            (self._accept_loop, "repro-server-accept"),
            (self._shutdown_watcher, "repro-server-shutdown"),
            (self._watchdog_loop, "repro-server-watchdog"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self.address

    def _close_in_lane(self) -> None:
        """In a freshly forked lane: drop the parent's sockets.

        Plain ``close()``, never ``shutdown()`` — these sockets are
        shared with the parent, which keeps using them.
        """
        if self._listener is not None:
            self._listener.close()
        for lane in self._lanes:
            if lane.sock is not None:
                lane.sock.close()

    def serve_forever(self) -> None:
        """Serve until stopped; returns once every lane is reaped."""
        self.start()
        self._stopped.wait()

    def stop(self) -> None:
        """Shut everything down and reap every lane (idempotent).

        A second caller waits for the first one to finish.
        """
        if self._stop.is_set():
            self._stopped.wait()
            return
        self._stop.set()
        try:
            self._shut_down()
        finally:
            self._stopped.set()

    def _shut_down(self) -> None:
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
            self._finish(
                job, error_response(job.request, "internal-error", "server is stopping")
            )
        with self._fork_lock:
            for lane in self._lanes:
                lane.shutdown_pipe()
        current = threading.current_thread()
        for thread in list(self._threads) + list(self._conn_threads):
            if thread is not current:
                thread.join(timeout=5.0)
        self._stop_lanes()
        if self.config.socket_path and os.path.exists(self.config.socket_path):
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass

    def _stop_lanes(self) -> None:
        """SIGTERM, a short grace period, SIGKILL; reap every lane."""
        for lane in self._lanes:
            lane.signal(signal.SIGTERM)
        deadline = time.monotonic() + _STOP_GRACE_SECONDS
        while time.monotonic() < deadline:
            if all(lane.reap(block=False) for lane in self._lanes):
                break
            time.sleep(0.01)
        for lane in self._lanes:
            lane.reap(block=True)
            if lane.sock is not None:
                lane.sock.close()

    def _shutdown_watcher(self) -> None:
        self._shutdown_requested.wait()
        if not self._stop.is_set():
            time.sleep(0.05)  # let the shutdown response reach its client
            self.stop()

    def _watchdog_loop(self) -> None:
        interval = max(0.01, self.config.watchdog_interval)
        hang = self.config.hang_seconds
        if hang <= 0:
            return
        while not self._stop.wait(interval):
            for lane in self._lanes:
                lane.cancel_if_hung(hang)

    # ------------------------------------------------------------------
    # chaos hook
    # ------------------------------------------------------------------
    def poison_lane(self, index: int) -> None:
        """SIGKILL lane ``index``'s process and reap it (chaos only).

        Its driver notices the death, fails the in-flight job (if any)
        retryably and re-forks the lane; surviving lanes keep answering
        throughout.
        """
        self._lanes[index].reap(block=True)

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
        return _respond(
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

    def _new_session(self, lane: _Lane) -> str:
        with self._sessions_lock:
            self._session_counter += 1
            session_id = f"s{self._session_counter}"
            self._sessions[session_id] = lane.index
        return session_id

    def _handle_connection(self, conn: socket.socket) -> None:
        stream = MessageStream(conn)
        self._streams.append(stream)
        lane: Optional[_Lane] = None
        session_id: Optional[str] = None
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
                    session_id = self._new_session(lane)
                job = _Job(request, session_id, self._job_budget(request))
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
            if session_id is not None:
                with self._sessions_lock:
                    self._sessions.pop(session_id, None)
                lane.drop_session(session_id)
            if lane is not None:
                with self._route_lock:
                    lane.connections -= 1
            self._conn_threads.discard(threading.current_thread())

    # ------------------------------------------------------------------
    # job completion and queue sweeping
    # ------------------------------------------------------------------
    def _finish(self, job: _Job, response: Dict[str, Any]) -> None:
        """Answer ``job`` once; a later answer (a driver racing stop())
        is dropped."""
        with self._inflight_lock:
            if not job.done.is_set():
                job.response = response
                job.done.set()

    def _fail_lane_queue(self, lane: _Lane, reason: str) -> None:
        """Answer every job still queued on ``lane``."""
        while True:
            try:
                job = lane.queue.get_nowait()
            except queue.Empty:
                return
            self._finish(job, error_response(job.request, "internal-error", reason))

    def _fail_queued_jobs(self, reason: str) -> None:
        """Answer every still-queued job so no connection waits forever."""
        for lane in self._lanes:
            self._fail_lane_queue(lane, reason)

    # ------------------------------------------------------------------
    def _stats(self, session: Dict[str, Any]) -> Dict[str, Any]:
        """The ``stats`` body; ``session`` comes from the serving lane,
        everything else from the parent's per-lane totals."""
        uptime = time.monotonic() - self._started_at
        with self._sessions_lock:
            sessions = len(self._sessions)
        robustness = self.robustness
        engine = EngineStats()
        with self._robust_lock:
            robustness["cache_shards_skipped"] = sum(
                lane.shards_skipped for lane in self._lanes
            )
            for lane in self._lanes:
                engine.merge(lane.engine)
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "epoch": self._epoch,
            "engine": engine.as_dict(),
            "server": {
                "uptime_seconds": round(uptime, 3),
                "requests_total": self.requests_total,
                "sessions": sessions,
                "queue": {
                    "depth": sum(lane.queue.qsize() for lane in self._lanes),
                    "max_depth": self.config.max_queue_depth,
                },
                "robustness": robustness,
                "lanes": [lane.describe(uptime) for lane in self._lanes],
            },
            "session": session,
        }
