"""The ``serve`` workload: editor sessions replayed against the daemon.

``python -m repro serve --lanes <nproc>`` runs in its own process.  The
benchmark opens ``nproc`` connections, each with its own affinity key
(chosen so every lane gets one connection), and drives them closed-loop
from one thread each: a connection sends its next request only after
the previous answer.  Each connection replays editor sessions over
``check_text``; every program goes through four steps:

* open: a new module; the engine misses its caches;
* edit: a mutant is swapped in and must be rejected;
* revert: the original source again; the session store misses but the
  engine caches are warm;
* resend: the same source unchanged; the session store hits and the
  engine is skipped.

Known answers: each response's ``ok`` and ``cached`` flags follow that
plan, and its ``lane`` is the one the connection's affinity key maps to.
The program labels come from the generator, not the checker.
"""

from __future__ import annotations

import itertools
import os
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro.fuzz.gen import generate_program
from repro.server import CheckingServer, Client, ServerError

from .common import (
    NPROC,
    POPULATION_SEED,
    SETUP_REPEATS,
    SRC,
    Context,
    Outcome,
    percentile,
    uncorrected_note,
    vm_hwm_mb,
)
from .speed import factor

#: a connection's population comes in blocks of this many programs,
#: each block in a seed-drawn order; the daemon's peak RSS is read once
#: every connection has done the first block
POPULATION = 250
#: programs per connection generated during set-up (rounded up to whole
#: blocks), more than a run on the current code gets through; later
#: ones are generated when reached
PREPARED = 900
#: the load pauses for a speed probe this often
WINDOW_S = 1.0
#: programs per connection in each unit of the traced run
TRACE_PROGRAMS = 100
#: how long a spawned daemon may take to answer ``ping``
READY_TIMEOUT_S = 60.0
STEPS = ("open", "edit", "revert", "resend")
#: (ok, cached) each step must answer
EXPECTED = {
    "open": (True, False),
    "edit": (False, False),
    "revert": (True, False),
    "resend": (True, True),
}
WARMUP_SOURCE = "(: warm : Int -> Int)\n(define (warm x) (+ x 1))\n(warm 2)\n"


def affinity_keys(lanes: int) -> List[str]:
    """One affinity key per lane, each routed to its own lane."""
    keys = []
    for lane in range(lanes):
        n = 0
        while CheckingServer.lane_index_for(f"editor-{lane}-{n}", lanes) != lane:
            n += 1
        keys.append(f"editor-{lane}-{n}")
    return keys


class Plan:
    """One connection's (source, mutant source) pairs, without end.

    Checking costs of generated programs are heavy-tailed, so fresh
    programs per seed would make seed-to-seed spread exceed the bounds.
    Every seed therefore replays the same population, the programs of
    ``generate_program(POPULATION_SEED, ...)`` that have a mutant, in
    blocks of :data:`POPULATION`; the seed only orders each block.  A
    faster daemon gets further into the same population, never onto
    other programs.
    """

    def __init__(self, seed: int, connection: int) -> None:
        self._seed, self._connection = seed, connection
        self._next_index = connection * 10_000_000
        self._pairs: List[Tuple[str, str]] = []

    def _extend(self) -> None:
        block = []
        while len(block) < POPULATION:
            spec = generate_program(POPULATION_SEED, self._next_index)
            self._next_index += 1
            if spec.mutants:
                block.append((spec.source, spec.mutants[0].source))
        number = len(self._pairs) // POPULATION
        random.Random(f"{self._seed}/{self._connection}/{number}").shuffle(block)
        self._pairs.extend(block)

    def prepare(self, count: int) -> "Plan":
        while len(self._pairs) < count:
            self._extend()
        return self

    def __getitem__(self, index: int) -> Tuple[str, str]:
        self.prepare(index + 1)
        return self._pairs[index]


@dataclass
class Daemon:
    proc: subprocess.Popen
    port: int
    clients: List[Client] = field(default_factory=list)
    lanes: List[int] = field(default_factory=list)

    def stop(self) -> None:
        """Clean ``shutdown`` op, then wait; kill only if that fails."""
        try:
            if self.clients:
                self.clients[0].shutdown()
        except (OSError, ServerError):
            pass
        finally:
            for client in self.clients:
                client.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def spawn(work_dir: Path) -> Daemon:
    log = work_dir / "daemon.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work_dir)
    with open(log, "w") as handle:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--lanes", str(NPROC)],
            cwd=str(work_dir), env=env, stdout=handle, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
    deadline = time.monotonic() + READY_TIMEOUT_S
    port: Optional[int] = None
    try:
        while port is None:
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"daemon did not start: {log.read_text()[-2000:]}")
            match = re.search(r"listening on [\d.]+:(\d+)", log.read_text())
            if match:
                port = int(match.group(1))
            else:
                time.sleep(0.01)
        daemon = Daemon(proc, port)
        while True:
            try:
                with Client(port=port, timeout=5.0) as probe:
                    if probe.ping().get("ok"):
                        break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return daemon


def _setup(ctx: Context):
    plans = [Plan(ctx.seed, c).prepare(PREPARED) for c in range(NPROC)]
    daemon = spawn(ctx.work_dir)
    try:
        for key in affinity_keys(NPROC):
            client = Client(port=daemon.port, timeout=60.0, affinity=key)
            daemon.clients.append(client)
            response = client.check_text("warmup", WARMUP_SOURCE)
            if not response.get("ok"):
                raise RuntimeError(f"warm-up check failed: {response}")
            daemon.lanes.append(response.get("lane"))
    except BaseException:
        daemon.stop()
        raise
    return daemon, plans


@dataclass
class Record:
    step: str
    latency_ms: float
    cached: bool
    window: int  # the window the request's program started in


class Gate:
    """Pauses every connection between two programs.

    While the gate is paused no request is in flight, so the speed
    probe times CPUs that the load is not using.  Windows are numbered
    by the resumes.
    """

    def __init__(self, parties: int) -> None:
        self._cond = threading.Condition()
        self._open = True
        self._parked = 0
        self._parties = parties
        self.window = 0

    def checkpoint(self) -> int:
        """Wait while paused; returns the current window."""
        with self._cond:
            if not self._open:
                self._parked += 1
                self._cond.notify_all()
                while not self._open:
                    self._cond.wait()
                self._parked -= 1
            return self.window

    def hold(self, released: threading.Event) -> None:
        """Count as parked until ``released`` is set."""
        with self._cond:
            self._parked += 1
            self._cond.notify_all()
        released.wait()
        with self._cond:
            self._parked -= 1

    def leave(self) -> None:
        with self._cond:
            self._parties -= 1
            self._cond.notify_all()

    def pause(self) -> None:
        with self._cond:
            self._open = False
            while self._parked < self._parties:
                self._cond.wait()

    def resume(self) -> None:
        with self._cond:
            self.window += 1
            self._open = True
            self._cond.notify_all()


class Connection(threading.Thread):
    """One closed-loop editor session replay.

    Replays ``plan[first:]`` until at least ``minimum`` programs are done
    and, when a ``deadline`` is given, until it has passed; ``reached``
    is set once ``minimum`` programs are done.
    """

    def __init__(self, client: Client, lane: int, plan, first: int, minimum: int,
                 deadline: Optional[float], gate: Gate, released: threading.Event,
                 out: Outcome, lock: threading.Lock) -> None:
        super().__init__(daemon=True)
        self.client, self.lane, self.plan = client, lane, plan
        self.first, self.minimum, self.deadline = first, minimum, deadline
        self.gate, self.released, self.out, self.lock = gate, released, out, lock
        self.records: List[Record] = []
        self.reached = threading.Event()

    def _step(self, name: str, step: str, text: str, window: int) -> None:
        started = time.perf_counter()
        try:
            response = self.client.check_text(name, text)
        except (OSError, ServerError) as exc:
            with self.lock:
                self.out.attempted += 1
                self.out.wrong(f"{name} {step}: {exc}")
            return
        latency_ms = (time.perf_counter() - started) * 1e3
        ok, cached = bool(response.get("ok")), bool(response.get("cached"))
        self.records.append(Record(step, latency_ms, cached, window))
        with self.lock:
            self.out.attempted += 1
            if (ok, cached) != EXPECTED[step]:
                self.out.wrong(f"{name} {step}: ok={ok} cached={cached}")
            elif not ok and response.get("code") != "check-error":
                self.out.wrong(f"{name} {step}: {response.get('code')}")
            elif response.get("lane") != self.lane:
                self.out.wrong(f"{name} {step}: lane {response.get('lane')}")

    def run(self) -> None:
        try:
            for done, i in enumerate(itertools.count(self.first)):
                if done == self.minimum:
                    self.reached.set()
                    if self.deadline is not None:
                        # wait here while the daemon's memory is read
                        self.gate.hold(self.released)
                if done >= self.minimum and (
                    self.deadline is None or time.perf_counter() >= self.deadline
                ):
                    return
                window = self.gate.checkpoint()
                source, mutant = self.plan[i]
                for step, text in zip(STEPS, (source, mutant, source, source)):
                    self._step(f"m{i}", step, text, window)
        finally:
            self.reached.set()
            self.gate.leave()


def drive(daemon: Daemon, plans, first: int, minimum: int,
          deadline: Optional[float], out: Outcome, probe=None):
    """Run every connection; (wall seconds, records, windows, RSS).

    With a ``probe``, the load pauses every :data:`WINDOW_S` seconds for
    a probe sample; ``windows`` lists (seconds of load, the correction
    from the samples before and after it) per window.  The daemon's
    VmHWM is read when every connection has done exactly ``minimum``
    programs; with a ``deadline``, connections that get there first
    wait for the others.
    """
    lock = threading.Lock()
    gate = Gate(len(daemon.clients))
    released = threading.Event()
    threads = [
        Connection(client, lane, plan, first, minimum, deadline, gate, released,
                   out, lock)
        for client, lane, plan in zip(daemon.clients, daemon.lanes, plans)
    ]
    windows: List[Tuple[float, float]] = []
    last_sample = probe.sample() if probe is not None else 0.0
    peak_rss: Optional[float] = None
    started = window_start = time.perf_counter()
    for thread in threads:
        thread.start()
    while any(thread.is_alive() for thread in threads):
        window_end = time.perf_counter() + WINDOW_S
        for thread in threads:
            thread.join(timeout=max(0.0, window_end - time.perf_counter()))
        if probe is not None:
            gate.pause()
            load_s = time.perf_counter() - window_start
        if peak_rss is None and all(thread.reached.is_set() for thread in threads):
            peak_rss = vm_hwm_mb(daemon.proc.pid)
            released.set()
        if probe is not None:
            sample = probe.sample()
            windows.append((load_s, factor(last_sample, sample)))
            last_sample = sample
            gate.resume()
            window_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if peak_rss is None:
        peak_rss = vm_hwm_mb(daemon.proc.pid)
    records = [record for thread in threads for record in thread.records]
    return wall, records, windows, peak_rss


def time_metrics(records: List[Record], windows: List[Tuple[float, float]],
                 corrected: bool = True) -> Dict[str, float]:
    """Throughput, step rates and latency percentiles over the run.

    With ``corrected``, each request's latency, and each window's
    seconds of load, are corrected by the probe samples around the
    window.  Throughput is
    requests per corrected second of load, leaving out the last window,
    which ends with idle connections.  A step's rate is ``nproc`` over
    its median latency: the step's latencies are heavy-tailed (a garbage
    collection in the daemon lands on whichever request is in flight),
    so a mean-based rate would depend on where a few pauses fell.
    """
    corrections = [c if corrected else 1.0 for _, c in windows]
    latencies: Dict[str, List[float]] = {step: [] for step in STEPS}
    completed = [0] * len(windows)
    for record in records:
        latencies[record.step].append(record.latency_ms * corrections[record.window])
        completed[record.window] += 1
    every = [ms for step in STEPS for ms in latencies[step]]
    body = slice(0, max(1, len(windows) - 1))
    load_s = sum(seconds * c for (seconds, _), c in zip(windows[body], corrections[body]))
    return {
        "ops_per_s": sum(completed[body]) / load_s,
        "cold_ops_per_s": NPROC * 1e3 / median(latencies["open"]),
        "edit_ops_per_s": NPROC * 1e3 / median(latencies["edit"]),
        "p50_ms": percentile(every, 50),
        "p95_ms": percentile(every, 95),
    }


def run(ctx: Context) -> Outcome:
    out = Outcome()
    durations: List[float] = []
    corrections: List[float] = []
    daemon: Optional[Daemon] = None
    try:
        for _ in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
                daemon = None
            before = ctx.probe.sample()
            t0 = time.perf_counter()
            daemon, plans = _setup(ctx)
            durations.append(time.perf_counter() - t0)
            corrections.append(factor(before, ctx.probe.sample()))
        deadline = time.perf_counter() + ctx.seconds
        wall, records, windows, peak_rss = drive(
            daemon, plans, 0, POPULATION, deadline, out, ctx.probe
        )
    finally:
        if daemon is not None:
            daemon.stop()
    out.metrics = {
        "setup_s": median(d * c for d, c in zip(durations, corrections)),
        "peak_rss_mb": peak_rss,
    }
    out.metrics.update(time_metrics(records, windows))
    uncorrected = {"setup_s": median(durations)}
    uncorrected.update(time_metrics(records, windows, corrected=False))
    out.notes.append(uncorrected_note("serve", uncorrected))
    out.notes.append(
        f"serve: {NPROC} connections on {NPROC} lanes (lanes {daemon.lanes}), "
        f"{len(records)} requests in {len(windows)} windows over {wall:.1f}s; "
        f"latency samples {len(records)} (requests); peak RSS after "
        f"{POPULATION} programs per connection"
    )
    return out


def _stats_delta(before: Dict, after: Dict) -> Dict:
    delta = {}
    for key, value in after.items():
        if isinstance(value, dict):
            delta[key] = _stats_delta(before.get(key, {}), value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            delta[key] = value - before.get(key, 0)
    return delta


def _lane_busy_s(server: Dict) -> float:
    uptime = server["uptime_seconds"]
    return sum(lane["utilization"] * uptime for lane in server["lanes"])


def _unit(ctx: Context, out: Outcome, tracer=None):
    """A fresh daemon, a warm-up unit, then one measured unit of sessions.

    Returns (wall seconds, records, ``stats`` before and after, client
    retries, the measured unit's span window).  With a ``tracer`` the
    measured unit is traced.
    """
    daemon, plans = _setup(ctx)
    try:
        drive(daemon, plans, 0, TRACE_PROGRAMS, None, out)
        before = daemon.clients[0].stats()
        if tracer is not None:
            tracer.active = True
        window_start = time.perf_counter_ns()
        wall, records, _, _ = drive(daemon, plans, TRACE_PROGRAMS, TRACE_PROGRAMS, None, out)
        window = (window_start, time.perf_counter_ns())
        if tracer is not None:
            tracer.active = False
        after = daemon.clients[0].stats()
        retries = sum(client.retries_total for client in daemon.clients)
    finally:
        daemon.stop()
    return wall, records, before, after, retries, window


def run_traced(ctx: Context) -> Outcome:
    """The same sessions on two fresh daemons, untraced and then traced."""
    from .layers import engine_layers

    out = Outcome()
    untraced_s = _unit(ctx, out)[0]
    traced_s, records, before, after, retries, window = _unit(ctx, out, ctx.tracer)
    summary = ctx.tracer.summary(window)
    server = _stats_delta(before["server"], after["server"])
    busy = _lane_busy_s(after["server"]) - _lane_busy_s(before["server"])
    round_trips = sum(r.latency_ms for r in records) / 1e3
    batcher = server.get("goal_batcher", {})
    robustness = server.get("robustness", {})
    out.layers.update(engine_layers(_stats_delta(before["engine"], after["engine"])))
    out.layers.update({
        "server.lane.busy_s": busy,
        "server.lane.utilization": busy / (NPROC * traced_s),
        "server.wait_s": round_trips - busy,
        "server.session.cached_frac": sum(r.cached for r in records) / len(records),
        "server.group.coalesce_ratio": (
            server["requests_total"] / server["groups_total"]
            if server.get("groups_total") else 0.0
        ),
        "server.goal_batcher.merged_frac": (
            batcher.get("merged", 0) / batcher["submissions"]
            if batcher.get("submissions") else 0.0
        ),
        "server.robustness.shed": robustness.get("shed_overloaded", 0),
        "server.robustness.deadline_exceeded": robustness.get("deadline_exceeded", 0),
        "server.client.retries": retries,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.uncovered_frac": summary.uncovered_frac,
    })
    return out
