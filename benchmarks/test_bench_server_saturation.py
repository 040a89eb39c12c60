"""Saturation throughput of the multi-lane daemon: clients × lanes.

Engine lanes are processes forked from the daemon's engine, so on a
multi-core machine N lanes check in parallel instead of taking turns
on one GIL; they also buy *isolation* (one slow session cannot
head-of-line-block every other connection behind a single queue) and
*fairness* (each lane drains its own bounded queue).  This benchmark
measures the whole curve:

* **clients** ∈ {1, 2, 4, 8} concurrent connections, each pinned to a
  lane by its own affinity key and issuing a fixed stream of
  ``check_text`` requests (unique module names, so every request is a
  genuine session-store miss served by the warm engine);
* **lanes** ∈ {1, N}: the same workload against a single-lane and a
  multi-lane daemon.

Each client stream runs in its own forked process, forked before the
daemon starts: client threads in the pytest process would share its
GIL with the daemon's own threads and cap the multi-lane figure.

The full matrix lands in ``benchmark-results/run/server_saturation.json``
(rendered by ``repro.study.report.server_saturation_table``) and CI
uploads it next to the latency artifact.  The gate is
hardware-tolerant: at every client count, multi-lane throughput must
stay within a loose noise floor of single-lane (≥ ``MIN_RATIO``×),
and the *median* ratio across the client curve must clear the tighter
``MIN_MEDIAN_RATIO`` — lanes must never cost throughput — and nothing
more is asserted on a one-core box.
"""

import multiprocessing
import os
import queue
import statistics
import time

import pytest

from perf_common import write_run_artifact

from repro.fuzz.gen import generate_program
from repro.logic.prove import Logic
from repro.server import CheckingServer, Client, ServerConfig
from repro.study.report import server_saturation_table

CORPUS_SIZE = 6
CORPUS_SEED = 2016
CLIENT_COUNTS = (1, 2, 4, 8)
MULTI_LANES = 4
REQUESTS_PER_CLIENT = 24
#: each (clients, lanes) point is measured this many times; the best
#: run is reported (standard practice for throughput under scheduler
#: noise — the best run is the one least perturbed by the machine)
REPEATS = 2
#: multi-lane may not lose to single-lane beyond noise.  One-core CI
#: boxes jitter hard (single-lane itself varies ±40% between runs), so
#: the per-point floor is deliberately loose and the tighter check is
#: on the median ratio across the whole client curve.
MIN_RATIO = 0.4
MIN_MEDIAN_RATIO = 0.6


@pytest.fixture(scope="module")
def corpus():
    return [generate_program(CORPUS_SEED, index).source for index in range(CORPUS_SIZE)]


def _stream(socket_path, worker, corpus, go, barrier, results):
    """One client stream; runs in its own forked process.

    Puts ``(error or None, perf_counter at the end)`` on ``results``.
    """
    error = None
    try:
        if not go.wait(timeout=120.0):
            raise TimeoutError("the daemon never started")
        with Client(
            socket_path=socket_path,
            affinity=f"bench-{worker}",
            retries=4,
            jitter_seed=worker,
        ) as client:
            # warm this connection's lane over the whole corpus, so
            # the timed region measures steady-state service
            # throughput, not each lane's one-time cache warming
            for index, source in enumerate(corpus):
                client.check_text(f"warm-{worker}-{index}", source)
            barrier.wait(timeout=120.0)
            for step in range(REQUESTS_PER_CLIENT):
                source = corpus[(worker + step) % len(corpus)]
                response = client.check_text(f"w{worker}-r{step}", source)
                if "ok" not in response:
                    error = f"worker {worker}: malformed response"
    except Exception as exc:  # noqa: BLE001 — surfaced in the assert
        error = f"worker {worker}: {type(exc).__name__}: {exc}"
        barrier.abort()
    # perf_counter is CLOCK_MONOTONIC on Linux: comparable across processes
    results.put((error, time.perf_counter()))


def _run_config(tmp_path, tag, lanes, clients, corpus):
    """Throughput of ``clients`` concurrent streams against ``lanes``."""
    socket_path = str(tmp_path / f"{tag}.sock")
    ctx = multiprocessing.get_context("fork")
    go = ctx.Event()
    barrier = ctx.Barrier(clients + 1)
    results = ctx.Queue()
    # fork the clients first, so none inherits the daemon's sockets
    streams = [
        ctx.Process(
            target=_stream,
            args=(socket_path, worker, corpus, go, barrier, results),
            daemon=True,
        )
        for worker in range(clients)
    ]
    for process in streams:
        process.start()
    daemon = CheckingServer(
        ServerConfig(socket_path=socket_path, lanes=lanes, max_queue_depth=256),
        logic=Logic(),
    )
    errors = []
    try:
        daemon.start()
        go.set()
        try:
            barrier.wait(timeout=120.0)  # all warmed: start the clock together
        except Exception as exc:  # noqa: BLE001 — a stream failed to warm
            errors.append(f"barrier: {type(exc).__name__}")
        started = time.perf_counter()
        finished = []
        for _ in streams:
            try:
                error, ended = results.get(timeout=600.0)
            except queue.Empty:
                errors.append("a client stream never reported")
                break
            finished.append(ended)
            if error:
                errors.append(error)
        elapsed = max(finished, default=started) - started
    finally:
        daemon.stop()
        for process in streams:
            process.join(timeout=30.0)
            if process.is_alive():
                process.kill()
                process.join()
    assert not errors, errors[:3]
    total = clients * REQUESTS_PER_CLIENT
    return {
        "clients": clients,
        "lanes": lanes,
        "requests": total,
        "elapsed_seconds": round(elapsed, 3),
        "requests_per_second": round(total / elapsed, 2) if elapsed else 0.0,
    }


def test_bench_server_saturation(benchmark, corpus, tmp_path, capsys):
    matrix = []
    for clients in CLIENT_COUNTS:
        for lanes in (1, MULTI_LANES):
            runs = [
                _run_config(
                    tmp_path,
                    f"sat-l{lanes}-c{clients}-r{attempt}",
                    lanes,
                    clients,
                    corpus,
                )
                for attempt in range(REPEATS)
            ]
            best = max(runs, key=lambda row: row["requests_per_second"])
            best["runs"] = len(runs)
            matrix.append(best)

    results = {
        "corpus_programs": len(corpus),
        "corpus_seed": CORPUS_SEED,
        "cpu_count": os.cpu_count() or 1,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "multi_lanes": MULTI_LANES,
        "min_ratio_gate": MIN_RATIO,
        "min_median_ratio_gate": MIN_MEDIAN_RATIO,
        "matrix": matrix,
    }
    write_run_artifact("server_saturation.json", results)

    with capsys.disabled():
        print()
        print(server_saturation_table(results))

    # the hardware-tolerant gate: lanes must never cost throughput
    # beyond noise — a loose floor at every point on the client curve,
    # and a tighter bound on the median ratio across the whole curve
    # (robust against one scheduler hiccup hitting one configuration)
    by_key = {(row["clients"], row["lanes"]): row for row in matrix}
    ratios = []
    for clients in CLIENT_COUNTS:
        single = by_key[(clients, 1)]["requests_per_second"]
        multi = by_key[(clients, MULTI_LANES)]["requests_per_second"]
        ratios.append(multi / single if single else 1.0)
        assert multi >= MIN_RATIO * single, (
            f"{clients} clients: {MULTI_LANES}-lane throughput "
            f"{multi} req/s fell below {MIN_RATIO}x single-lane {single} req/s"
        )
    median_ratio = statistics.median(ratios)
    assert median_ratio >= MIN_MEDIAN_RATIO, (
        f"median multi/single throughput ratio {median_ratio:.2f} across "
        f"{list(CLIENT_COUNTS)} clients fell below {MIN_MEDIAN_RATIO}"
    )

    # one representative warm multi-lane round-trip for pytest-benchmark
    daemon = CheckingServer(
        ServerConfig(socket_path=str(tmp_path / "unit.sock"), lanes=MULTI_LANES),
        logic=Logic(),
    )
    daemon.start()
    try:
        client = Client(socket_path=daemon.config.socket_path, affinity="unit")
        client.check_text("unit-warm", corpus[0])
        counter = iter(range(1 << 30))
        benchmark(
            lambda: client.check_text(f"unit-{next(counter)}", corpus[0])
        )
        client.close()
    finally:
        daemon.stop()
