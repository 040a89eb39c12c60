"""No engine lane outlives its daemon.

Lanes are processes forked by the daemon.  Each test reads the lane
pids from the ``stats`` op, ends the daemon one way, and checks that no
lane process is left:

* an in-process server's ``stop()`` reaps every lane before it returns;
* a spawned ``repro serve`` answering the ``shutdown`` op reaps its
  lanes before it exits;
* a spawned daemon that is SIGKILLed cannot reap anything — its lanes
  die with it (``PR_SET_PDEATHSIG``) within seconds.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.logic.prove import Logic
from repro.server import CheckingServer, Client, ServerConfig

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)

SRC = str(Path(__file__).resolve().parents[1] / "src")
SOURCE = "(: inc : Int -> Int)\n(define (inc x) (+ x 1))\n"


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def _lane_pids(socket_path):
    with Client(socket_path=socket_path, timeout=30.0) as client:
        client.check_text("m", SOURCE)
        lanes = client.stats()["server"]["lanes"]
    pids = [row["pid"] for row in lanes]
    assert len(set(pids)) == len(pids) == 2
    assert all(isinstance(pid, int) and pid > 0 for pid in pids)
    return pids


def _spawn(socket_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
         "--lanes", "2"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    deadline = time.monotonic() + 60.0
    while True:
        assert process.poll() is None, "daemon exited during start-up"
        try:
            with Client(socket_path=socket_path, timeout=5.0) as probe:
                if probe.ping()["ok"]:
                    return process
        except OSError:
            pass  # not bound or not listening yet
        assert time.monotonic() < deadline, "daemon never answered ping"
        time.sleep(0.02)


def test_stop_reaps_every_lane(tmp_path):
    socket_path = str(tmp_path / "inproc.sock")
    daemon = CheckingServer(
        ServerConfig(socket_path=socket_path, lanes=2), logic=Logic()
    )
    daemon.start()
    try:
        pids = _lane_pids(socket_path)
        assert all(_running(pid) for pid in pids)
    finally:
        daemon.stop()
    # reaped, not merely dead: no zombie entry either
    assert not [pid for pid in pids if os.path.exists(f"/proc/{pid}")]


def test_shutdown_op_leaves_no_lane(tmp_path):
    socket_path = str(tmp_path / "spawned.sock")
    process = _spawn(socket_path)
    try:
        pids = _lane_pids(socket_path)
        with Client(socket_path=socket_path) as client:
            assert client.shutdown()["stopping"] is True
        assert process.wait(timeout=30.0) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert not [pid for pid in pids if os.path.exists(f"/proc/{pid}")]


def test_killed_daemon_takes_its_lanes_down(tmp_path):
    socket_path = str(tmp_path / "killed.sock")
    process = _spawn(socket_path)
    try:
        pids = _lane_pids(socket_path)
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30.0)
        deadline = time.monotonic() + 5.0
        while [pid for pid in pids if _running(pid)]:
            assert time.monotonic() < deadline, (
                f"lanes {[p for p in pids if _running(p)]} outlived their daemon"
            )
            time.sleep(0.05)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
