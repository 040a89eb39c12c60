"""Scripted failure scenarios against an in-process checking daemon.

Each scenario boots its own :class:`~repro.server.daemon.CheckingServer`
over a fresh engine, injects one class of fault
(:mod:`~repro.chaos.faults`), and then proves the service recovered by
running the same three closing assertions:

1. **the daemon still answers** — a ``ping`` (served off-lane) and a
   real engine request both succeed;
2. **verdicts equal a fresh engine** — the seeded workload re-checked
   through the daemon matches verdicts computed by a brand-new
   :class:`~repro.checker.check.Checker` outside the server;
3. **no connection waits forever** — every connection thread and
   in-flight job drains within a bounded grace period.

Scenarios run in-process (not against a spawned subprocess like the
fuzz farm) precisely so faults can be injected surgically: killing a
known engine lane, wrapping the theory dispatch of the engine the lanes
are forked from, corrupting the exact shard files the daemon just
flushed.
"""

from __future__ import annotations

import json
import os
import random
import socket as socket_mod
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..checker.errors import CheckError
from ..fuzz.gen import generate_program
from ..fuzz.oracles import check_source, fresh_checker_factory
from ..logic.prove import Logic
from ..server.client import Client, ServerError
from ..server.daemon import CheckingServer, ServerConfig
from ..tr.pretty import pretty_type
from . import faults

__all__ = ["SCENARIOS", "ScenarioContext", "ScenarioResult", "build_workload"]

#: a source every theory backend must consult (refinement subtyping
#: forces linear-arithmetic entailments through the dispatch stage) —
#: used by the stall scenarios, which need a guaranteed dispatch call.
THEORY_HEAVY_SOURCE = """\
(: clamp : [x : Int] [y : Int]
   -> [z : Int #:where (and (>= z x) (>= z y))])
(define (clamp x y) (if (> x y) x y))
(define a (clamp 3 7))
(define b (clamp a 11))
"""


@dataclass
class WorkloadProgram:
    name: str
    source: str
    ok: bool
    types: Dict[str, str]


@dataclass
class ScenarioContext:
    seed: int
    tmpdir: str
    workload: List[WorkloadProgram]
    #: harnesses started by the running scenario; the runner stops every
    #: one of them even when the scenario body raises mid-setup
    active: List["_Scenario"] = field(default_factory=list)

    def rng(self, salt: str) -> random.Random:
        return random.Random(f"{self.seed}:{salt}")


@dataclass
class ScenarioResult:
    name: str
    ok: bool
    duration_seconds: float
    details: Dict[str, Any] = field(default_factory=dict)
    error: str = ""

    def as_dict(self) -> Dict[str, Any]:
        summary = {
            "name": self.name,
            "ok": self.ok,
            "duration_seconds": round(self.duration_seconds, 3),
            "details": self.details,
        }
        if self.error:
            summary["error"] = self.error
        return summary


def build_workload(seed: int, count: int) -> List[WorkloadProgram]:
    """``count`` seeded generator programs with fresh-engine verdicts."""
    workload: List[WorkloadProgram] = []
    for index in range(count):
        spec = generate_program(seed, index)
        try:
            _program, types = check_source(spec.source, fresh_checker_factory)
            ok, pretty = True, {n: pretty_type(t) for n, t in types.items()}
        except (SyntaxError, CheckError, RecursionError):
            ok, pretty = False, {}
        workload.append(
            WorkloadProgram(f"chaos_w{index}", spec.source, ok, pretty)
        )
    return workload


class _Scenario:
    """Owns one in-process server + client pair and the closing checks."""

    def __init__(
        self,
        ctx: ScenarioContext,
        name: str,
        logic: Optional[Logic] = None,
        **config_overrides,
    ) -> None:
        self.ctx = ctx
        self.name = name
        self.socket_path = os.path.join(ctx.tmpdir, f"{name}.sock")
        settings = dict(
            socket_path=self.socket_path,
            hang_seconds=0.0,  # scenarios opt in explicitly
        )
        settings.update(config_overrides)
        # a fresh engine per scenario: no cross-scenario contamination,
        # and the "fresh engine" reference stays an honest comparison.
        # Faults go into it before start(): the lanes fork from it.
        self.server = CheckingServer(
            ServerConfig(**settings), logic=logic or Logic()
        )
        ctx.active.append(self)
        self.server.start()

    def client(self, **kwargs) -> Client:
        kwargs.setdefault("timeout", 60.0)
        return Client(socket_path=self.socket_path, **kwargs)

    # closing assertions ------------------------------------------------
    def assert_recovered(self, details: Dict[str, Any]) -> None:
        with self.client(retries=3, jitter_seed=self.ctx.seed) as client:
            ping = client.ping()
            if not ping.get("ok"):
                raise AssertionError("daemon did not answer ping")
            details["engine_alive"] = ping.get("engine_alive")
            mismatches = []
            for program in self.ctx.workload:
                response = client.check_text(program.name, program.source)
                got_ok = bool(response.get("ok"))
                got_types = dict(response.get("types") or {})
                if got_ok != program.ok or (got_ok and got_types != program.types):
                    mismatches.append(program.name)
            if mismatches:
                raise AssertionError(
                    f"daemon verdicts diverged from fresh engine: {mismatches}"
                )
        details["workload_verified"] = len(self.ctx.workload)
        self._assert_drained(details)

    def _assert_drained(self, details: Dict[str, Any], grace: float = 10.0) -> None:
        """No connection thread or in-flight job outlives its request."""
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            threads = len(self.server._conn_threads)
            with self.server._inflight_lock:
                inflight = len(self.server._inflight)
            if threads == 0 and inflight == 0:
                details["connections_drained"] = True
                return
            time.sleep(0.05)
        raise AssertionError(
            f"connections did not drain: {threads} threads, "
            f"{inflight} in-flight jobs still live after {grace}s"
        )

    def stop(self) -> None:
        self.server.stop()


def _run(name: str):
    """Decorator: wrap a scenario body with timing/teardown/reporting."""

    def wrap(body: Callable[[ScenarioContext, Dict[str, Any]], "_Scenario"]):
        def scenario(ctx: ScenarioContext) -> ScenarioResult:
            started = time.monotonic()
            details: Dict[str, Any] = {}
            try:
                harness = body(ctx, details)
                harness.assert_recovered(details)
                return ScenarioResult(
                    name, True, time.monotonic() - started, details
                )
            except Exception as exc:
                return ScenarioResult(
                    name,
                    False,
                    time.monotonic() - started,
                    details,
                    error=f"{type(exc).__name__}: {exc}",
                )
            finally:
                # stop every harness the body started, even on a
                # mid-setup exception
                while ctx.active:
                    ctx.active.pop().stop()

        scenario.__name__ = name
        return scenario

    return wrap


# ----------------------------------------------------------------------
# 1. tear/corrupt cache shard writes
# ----------------------------------------------------------------------
@_run("torn_cache_shard")
def scenario_torn_cache(ctx: ScenarioContext, details: Dict[str, Any]) -> _Scenario:
    cache_dir = os.path.join(ctx.tmpdir, "chaos-cache")
    harness = _Scenario(ctx, "torn_cache_shard", cache_dir=cache_dir)
    with harness.client() as client:
        for program in ctx.workload:
            client.check_text(program.name, program.source)
        client.reset()  # flush the persistent shards to disk
        victims = faults.corrupt_shards(cache_dir, limit=2)
        torn = faults.plant_torn_tmp(cache_dir)
        details["corrupted_shards"] = len(victims)
        if not victims:
            raise AssertionError("no shards were flushed; nothing to corrupt")
        client.reset()  # drop the in-memory view: re-reads hit the garbage
        for program in ctx.workload:
            response = client.check_text(program.name, program.source)
            if bool(response.get("ok")) != program.ok:
                raise AssertionError(
                    f"verdict changed over corrupt cache: {program.name}"
                )
        stats = client.stats()
        skipped = stats["server"]["robustness"].get("cache_shards_skipped", 0)
        details["cache_shards_skipped"] = skipped
        if not skipped:
            raise AssertionError("corrupt shards were never detected")
        client.reset()  # flush again: the rewrite repairs the shards
        for path in victims:
            if os.path.exists(path):
                with open(path) as handle:
                    json.load(handle)  # raises if still garbage
        details["repaired"] = True
        details["torn_tmp_planted"] = os.path.basename(torn)
    return harness


# ----------------------------------------------------------------------
# 2. hang a theory-goal batch (deadline + watchdog recovery)
# ----------------------------------------------------------------------
@_run("hung_goal")
def scenario_hung_goal(ctx: ScenarioContext, details: Dict[str, Any]) -> _Scenario:
    # two hung consultations: one for (a), one for (b)
    logic = Logic()
    logic.dispatch = faults.ChaosDispatch(logic.dispatch, hang=True, max_faults=2)
    harness = _Scenario(ctx, "hung_goal", logic, hang_seconds=0.75)
    with harness.client() as client:
        # (a) a hung consultation + deadline_ms → structured
        # deadline_exceeded within the deadline plus scheduling slack
        started = time.monotonic()
        try:
            client.check_text("hung_a", THEORY_HEAVY_SOURCE, deadline_ms=400)
        except ServerError as exc:
            elapsed = time.monotonic() - started
            if exc.code != "deadline_exceeded" or not exc.retryable:
                raise AssertionError(f"expected deadline_exceeded, got {exc}")
            details["deadline_elapsed_seconds"] = round(elapsed, 3)
            if elapsed > 5.0:
                raise AssertionError(f"deadline abort took {elapsed:.1f}s")
        else:
            raise AssertionError("hung request did not hit its deadline")
        # (b) the same hang with no deadline → the watchdog cancels it
        try:
            client.check_text("hung_b", THEORY_HEAVY_SOURCE)
        except ServerError as exc:
            if exc.code != "cancelled" or not exc.retryable:
                raise AssertionError(f"expected watchdog cancel, got {exc}")
        else:
            raise AssertionError("watchdog never cancelled the hung request")
        stats = client.stats()["server"]["robustness"]
        details["deadline_exceeded"] = stats["deadline_exceeded"]
        details["watchdog_cancels"] = stats["watchdog_cancels"]
        # (c) the very next request on the same lane is correct
        response = client.check_text("hung_after", THEORY_HEAVY_SOURCE)
        if not response.get("ok"):
            raise AssertionError("lane did not recover after cancellations")
    return harness


# ----------------------------------------------------------------------
# 3. drop the client socket mid-request
# ----------------------------------------------------------------------
@_run("client_disconnect")
def scenario_client_disconnect(
    ctx: ScenarioContext, details: Dict[str, Any]
) -> _Scenario:
    harness = _Scenario(ctx, "client_disconnect")
    program = ctx.workload[0]
    # (a) full request sent, socket dropped before reading the response
    raw = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
    raw.connect(harness.socket_path)
    request = {"op": "check_text", "name": "dropped", "text": program.source}
    raw.sendall((json.dumps(request) + "\n").encode())
    raw.close()
    # (b) half a frame, then gone
    raw = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
    raw.connect(harness.socket_path)
    raw.sendall(b'{"op": "check_te')
    raw.close()
    details["dropped_connections"] = 2
    return harness


# ----------------------------------------------------------------------
# 4. reset storm under concurrent load
# ----------------------------------------------------------------------
@_run("reset_storm")
def scenario_reset_storm(ctx: ScenarioContext, details: Dict[str, Any]) -> _Scenario:
    harness = _Scenario(ctx, "reset_storm", max_queue_depth=128)
    workers = 4
    iterations = 6
    errors: List[str] = []

    def storm(worker: int) -> None:
        rng = ctx.rng(f"storm{worker}")
        try:
            with harness.client(retries=4, jitter_seed=worker) as client:
                for step in range(iterations):
                    if rng.random() < 0.3:
                        client.reset()
                        continue
                    program = rng.choice(ctx.workload)
                    response = client.check_text(
                        f"{program.name}_t{worker}", program.source
                    )
                    if bool(response.get("ok")) != program.ok:
                        errors.append(
                            f"worker {worker} step {step}: verdict flipped "
                            f"for {program.name}"
                        )
        except Exception as exc:  # noqa: BLE001 — report, don't hang the storm
            errors.append(f"worker {worker}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=storm, args=(w,), daemon=True)
        for w in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    if any(thread.is_alive() for thread in threads):
        raise AssertionError("a storm thread is still blocked")
    if errors:
        raise AssertionError("; ".join(errors[:4]))
    details["storm_requests"] = workers * iterations
    return harness


# ----------------------------------------------------------------------
# 5. overload: shed past the queue cap, recover after
# ----------------------------------------------------------------------
@_run("overload_shed")
def scenario_overload_shed(ctx: ScenarioContext, details: Dict[str, Any]) -> _Scenario:
    # the first two theory consultations stall 0.4s (cooperatively), so
    # the lane stays busy long enough for the burst below to overflow
    # the queue
    logic = Logic()
    logic.dispatch = faults.ChaosDispatch(
        logic.dispatch, delay_seconds=0.4, max_faults=2
    )
    harness = _Scenario(ctx, "overload_shed", logic, max_queue_depth=1)
    outcomes: List[str] = []
    lock = threading.Lock()

    def submit(worker: int) -> None:
        try:
            with harness.client() as client:  # no retries: observe the shed
                client.check_text(f"burst{worker}", THEORY_HEAVY_SOURCE)
                outcome = "ok"
        except ServerError as exc:
            outcome = exc.code
        except Exception as exc:  # noqa: BLE001
            outcome = f"{type(exc).__name__}"
        with lock:
            outcomes.append(outcome)

    threads = [
        threading.Thread(target=submit, args=(w,), daemon=True) for w in range(6)
    ]
    for thread in threads:
        thread.start()
        time.sleep(0.02)  # a burst, but an ordered one (deterministic-ish)
    for thread in threads:
        thread.join(timeout=60.0)
    if any(thread.is_alive() for thread in threads):
        raise AssertionError("a burst connection is still blocked")
    shed = sum(1 for outcome in outcomes if outcome == "overloaded")
    served = sum(1 for outcome in outcomes if outcome == "ok")
    details["burst_outcomes"] = outcomes
    if shed == 0:
        raise AssertionError(f"queue cap never shed load: {outcomes}")
    if served == 0:
        raise AssertionError(f"every burst request failed: {outcomes}")
    with harness.client() as client:
        stats_shed = client.stats()["server"]["robustness"]["shed_overloaded"]
    if stats_shed < shed:
        raise AssertionError(
            f"shed counter ({stats_shed}) disagrees with responses ({shed})"
        )
    details["shed"] = shed
    details["served"] = served
    return harness


# ----------------------------------------------------------------------
# 6. kill one engine lane of a multi-lane daemon mid-campaign
# ----------------------------------------------------------------------
@_run("lane_kill")
def scenario_lane_kill(ctx: ScenarioContext, details: Dict[str, Any]) -> _Scenario:
    harness = _Scenario(ctx, "lane_kill", lanes=3, watchdog_interval=0.02)
    server = harness.server
    lanes = len(server.lanes)
    # derive one affinity key per lane from the daemon's own stable hash
    keys: Dict[int, str] = {}
    attempt = 0
    while len(keys) < lanes:
        key = f"chaos-key-{attempt}"
        keys.setdefault(CheckingServer.lane_index_for(key, lanes), key)
        attempt += 1
    details["affinity_keys"] = {str(l): k for l, k in sorted(keys.items())}
    program = ctx.workload[0]
    # warm every lane and pin the routing: each keyed client must land
    # on the lane its key hashes to
    for lane_index, key in sorted(keys.items()):
        with harness.client(affinity=key) as client:
            response = client.check_text(program.name, program.source)
            if response.get("lane") != lane_index:
                raise AssertionError(
                    f"affinity {key!r} landed on lane {response.get('lane')}, "
                    f"expected {lane_index}"
                )
    victim = 1
    server.poison_lane(victim)
    # while the victim is down (or respawning), the surviving lanes
    # keep answering — each through its pinned client
    for lane_index, key in sorted(keys.items()):
        if lane_index == victim:
            continue
        with harness.client(affinity=key) as client:
            response = client.check_text(f"{program.name}_during", program.source)
            if bool(response.get("ok")) != program.ok:
                raise AssertionError(
                    f"surviving lane {lane_index} verdict flipped during outage"
                )
    details["survivors_served"] = lanes - 1
    # the lane's driver re-forks the dead lane from the parent engine
    deadline = time.monotonic() + 10.0
    with harness.client() as probe:
        while time.monotonic() < deadline:
            ping = probe.ping()
            if ping.get("lanes_alive") == lanes:
                break
            time.sleep(0.05)
        else:
            raise AssertionError("poisoned lane never respawned")
        restarts = probe.stats()["server"]["robustness"]["lane_restarts"]
    if restarts < 1:
        raise AssertionError("lane respawn was not counted")
    details["lane_restarts"] = restarts
    # and the respawned lane itself answers correctly again
    with harness.client(affinity=keys[victim]) as client:
        response = client.check_text(f"{program.name}_after", program.source)
        if response.get("lane") != victim:
            raise AssertionError("affinity no longer routes to the respawned lane")
        if bool(response.get("ok")) != program.ok:
            raise AssertionError("respawned lane verdict diverged")
    details["respawned_lane_serves"] = True
    return harness


#: name → scenario callable, in documentation order
SCENARIOS: Dict[str, Callable[[ScenarioContext], ScenarioResult]] = {
    "torn_cache_shard": scenario_torn_cache,
    "hung_goal": scenario_hung_goal,
    "client_disconnect": scenario_client_disconnect,
    "reset_storm": scenario_reset_storm,
    "overload_shed": scenario_overload_shed,
    "lane_kill": scenario_lane_kill,
}
