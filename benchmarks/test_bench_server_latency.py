"""Served vs cold check latency: the daemon's reason to exist.

Every one-shot ``repro check`` invocation pays interpreter start-up,
prim-environment construction and proof-engine cold-start before it
checks a single line.  The persistent service pays all of that once.
This benchmark measures the difference end to end, per module, over
the same generated corpus family the batch benchmarks use:

* **cold** — one ``python -m repro check <module>`` subprocess per
  module (exactly what a naive editor integration would shell out to);
* **warm** — one ``check`` request per module against a resident
  ``repro serve`` daemon over a unix socket, after a warm-up pass.

p50/p95/mean land in ``benchmark-results/run/server_latency.json`` and the
§-style table (``repro.study.report.server_latency_table``) is printed.
The assertion is conservative — warm median strictly below cold median
— because interpreter start-up alone dwarfs a warm round-trip on any
hardware.
"""

import os
import statistics
import subprocess
import sys
import time

import pytest

from perf_common import write_run_artifact

import repro
from repro.fuzz.gen import generate_program
from repro.logic.prove import Logic
from repro.server import CheckingServer, Client, ServerConfig
from repro.study.report import server_latency_table

CORPUS_SIZE = 8
CORPUS_SEED = 2016


@pytest.fixture(scope="module")
def corpus_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("server-latency-corpus")
    paths = []
    for index in range(CORPUS_SIZE):
        path = root / f"prog{index:03}.rkt"
        path.write_text(generate_program(CORPUS_SEED, index).source)
        paths.append(str(path))
    return paths


def _percentiles(samples_ms):
    ordered = sorted(samples_ms)
    rank = lambda q: ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    return {
        "p50_ms": round(statistics.median(ordered), 2),
        "p95_ms": round(rank(0.95), 2),
        "mean_ms": round(statistics.fmean(ordered), 2),
        "samples": len(ordered),
    }


def _cold_samples(paths):
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    samples = []
    for path in paths:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "repro", "check", path],
            capture_output=True,
            env=env,
        )
        samples.append((time.perf_counter() - start) * 1000.0)
        assert done.returncode == 0, done.stderr.decode()
    return samples


def _warm_samples(paths, tmp_path):
    daemon = CheckingServer(
        ServerConfig(socket_path=str(tmp_path / "bench.sock")), logic=Logic()
    )
    daemon.start()
    try:
        with Client(socket_path=daemon.config.socket_path) as client:
            warm_verdicts = [
                client.try_check([path])["verdicts"][0] for path in paths
            ]
            samples = []
            served_verdicts = []
            for path in paths:
                start = time.perf_counter()
                response = client.try_check([path])
                samples.append((time.perf_counter() - start) * 1000.0)
                served_verdicts.append(response["verdicts"][0])
    finally:
        daemon.stop()
    # warm-up and timed passes must agree (re-checking is idempotent)
    assert [(v["path"], v["ok"]) for v in warm_verdicts] == [
        (v["path"], v["ok"]) for v in served_verdicts
    ]
    return samples


def test_bench_server_latency(benchmark, corpus_paths, tmp_path, capsys):
    cold = _percentiles(_cold_samples(corpus_paths))
    warm = _percentiles(_warm_samples(corpus_paths, tmp_path))

    speedup = cold["p50_ms"] / warm["p50_ms"] if warm["p50_ms"] else float("inf")
    results = {
        "corpus_programs": len(corpus_paths),
        "corpus_seed": CORPUS_SEED,
        "cpu_count": os.cpu_count() or 1,
        "cold": cold,
        "warm": warm,
        "speedup_warm_over_cold_p50": round(speedup, 2),
    }
    write_run_artifact("server_latency.json", results)

    with capsys.disabled():
        print()
        print(server_latency_table(results))

    # The service must beat cold-process invocation on the same corpus.
    assert warm["p50_ms"] < cold["p50_ms"], (
        f"warm daemon p50 {warm['p50_ms']}ms did not beat "
        f"cold process p50 {cold['p50_ms']}ms"
    )

    # One representative warm round-trip for the pytest-benchmark artifact.
    daemon = CheckingServer(
        ServerConfig(socket_path=str(tmp_path / "unit.sock")), logic=Logic()
    )
    daemon.start()
    try:
        client = Client(socket_path=daemon.config.socket_path)
        client.try_check([corpus_paths[0]])  # warm the engine
        benchmark(lambda: client.try_check([corpus_paths[0]]))
        client.close()
    finally:
        daemon.stop()
