"""Fuzz farm: continuous campaigns against a live checking daemon.

The in-process campaign (:mod:`repro.fuzz.runner`) fuzzes the checker
*library*; the farm fuzzes the checker *service*.  Every generated
program (and optionally its ill-typed mutants) is submitted to a
running ``repro serve`` daemon over the wire and the daemon's verdict
is compared against a local reference checker — a divergence means the
serving path (session store, epoch guard, lane routing)
changed an answer, which the daemon's core invariant says can never
happen.

The daemon is either spawned as a subprocess for the campaign's
lifetime (the default: a true end-to-end test of ``python -m repro
serve``) or an already-running one is used via ``connect_socket``.

Coverage guidance works over the wire at no extra cost: every
``check_text`` response already carries the per-request engine-stats
delta, which :func:`repro.fuzz.coverage.coverage_from_stats_dict`
projects onto the same coverage points the in-process campaign uses,
and a :class:`~repro.fuzz.coverage.CoverageScheduler` feeds the
novelty back into generator family weights.

Budgets: a campaign stops at ``count`` programs or after
``budget_seconds`` of wall clock, whichever comes first.  Program
``i`` is still the pure function of ``(seed, i)`` it always is, so the
campaign summary (:meth:`FarmReport.as_dict`) is deterministic given
the number of programs actually completed — count-bounded runs are
fully reproducible, time-bounded runs are reproducible per completed
prefix (the digest covers exactly that prefix).
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .coverage import (
    CoverageMap,
    CoverageScheduler,
    CoverageVector,
    coverage_from_stats_dict,
)
from .gen import FAMILIES, generate_program
from .oracles import CheckerFactory, Violation, check_source, resolve_factory
from ..checker.errors import CheckError
from ..syntax.parser import ParseError

__all__ = ["FarmConfig", "FarmReport", "run_farm"]


@dataclass(frozen=True)
class FarmConfig:
    """One farm campaign against a live daemon."""

    seed: int = 0
    count: int = 200                   # max programs (the residue budget)
    budget_seconds: Optional[float] = None  # wall-clock budget (None = off)
    checker: str = "fresh"             # local reference factory
    mutants: bool = True
    max_mutants: Optional[int] = 2     # per program, over the wire
    #: unix socket of an already-running daemon; None spawns one
    connect_socket: Optional[str] = None
    #: coverage-guided scheduling from the daemon's per-request deltas
    guided: bool = False
    #: seconds to wait for a spawned daemon to come up
    spawn_timeout: float = 20.0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be >= 0")


@dataclass
class FarmReport:
    """What a farm campaign measured."""

    config: FarmConfig
    programs: int = 0                  # generated programs completed
    checks: int = 0                    # wire requests (programs + mutants)
    daemon_accepted: int = 0
    daemon_rejected: int = 0
    divergences: List[Violation] = field(default_factory=list)
    spawned: bool = False              # daemon subprocess vs --connect
    duration_seconds: float = 0.0      # wall clock (never in the digest)
    coverage: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return not self.divergences

    def digest(self) -> str:
        """Deterministic given (config, completed-program prefix)."""
        payload = {
            "seed": self.config.seed,
            "checker": self.config.checker,
            "mutants": self.config.mutants,
            "max_mutants": self.config.max_mutants,
            "guided": self.config.guided,
            "programs": self.programs,
            "checks": self.checks,
            "daemon_accepted": self.daemon_accepted,
            "daemon_rejected": self.daemon_rejected,
            "divergences": [
                (v.program, v.kind, v.message, v.source)
                for v in self.divergences
            ],
        }
        if self.coverage is not None:
            payload["coverage"] = self.coverage.get("digest")
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def as_dict(self) -> Dict[str, object]:
        """The campaign summary (``fuzz --farm --json``)."""
        cfg = self.config
        summary: Dict[str, object] = {
            "mode": "farm",
            "config": {
                "seed": cfg.seed,
                "count": cfg.count,
                "budget_seconds": cfg.budget_seconds,
                "checker": cfg.checker,
                "mutants": cfg.mutants,
                "max_mutants": cfg.max_mutants,
                "guided": cfg.guided,
                "connected": cfg.connect_socket is not None,
            },
            "programs": self.programs,
            "checks": self.checks,
            "daemon_accepted": self.daemon_accepted,
            "daemon_rejected": self.daemon_rejected,
            "spawned": self.spawned,
            "duration_seconds": round(self.duration_seconds, 3),
            "divergences": [
                {
                    "program": v.program,
                    "seed": v.seed,
                    "kind": v.kind,
                    "message": v.message,
                    "source": v.source,
                    "shrunk": v.shrunk,
                }
                for v in self.divergences
            ],
            "digest": self.digest(),
        }
        if self.coverage is not None:
            summary["coverage"] = self.coverage
        return summary


# ----------------------------------------------------------------------
# verdict comparison
# ----------------------------------------------------------------------
def _local_verdict(source: str, factory: CheckerFactory) -> Tuple[bool, Dict[str, str]]:
    """The reference checker's verdict in the daemon's response shape."""
    from ..tr.pretty import pretty_type

    try:
        _program, types = check_source(source, factory)
    except (SyntaxError, CheckError, RecursionError):
        return False, {}
    return True, {name: pretty_type(ty) for name, ty in types.items()}


def _daemon_verdict(response: Dict[str, object]) -> Tuple[bool, Dict[str, str]]:
    ok = bool(response.get("ok"))
    types = response.get("types") if ok else {}
    return ok, dict(types or {})


def _accepts(socket_path: str) -> bool:
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
        try:
            probe.connect(socket_path)
        except (ConnectionRefusedError, FileNotFoundError):
            return False
    return True


def _spawn_daemon(socket_path: str, timeout: float) -> subprocess.Popen:
    """Start ``python -m repro serve`` and wait until it accepts connections."""
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
    )
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        # the socket file appears at bind(), a moment before listen()
        if _accepts(socket_path):
            return process
        if process.poll() is not None:
            output = (process.stdout.read() or b"").decode(errors="replace")
            raise RuntimeError(
                f"daemon exited during startup (code {process.returncode}): {output}"
            )
        time.sleep(0.02)
    process.terminate()
    raise RuntimeError(f"daemon did not bind {socket_path} within {timeout}s")


# ----------------------------------------------------------------------
# the farm loop
# ----------------------------------------------------------------------
def run_farm(config: FarmConfig) -> FarmReport:
    """Run one farm campaign; spawns a daemon unless one is supplied."""
    from ..server import Client

    report = FarmReport(config=config)
    started = time.monotonic()
    process = None
    tmpdir = None
    socket_path = config.connect_socket
    if socket_path is None:
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-farm-")
        socket_path = os.path.join(tmpdir.name, "daemon.sock")
        process = _spawn_daemon(socket_path, config.spawn_timeout)
        report.spawned = True
    factory = resolve_factory(config.checker)
    coverage_map = CoverageMap()
    scheduler = CoverageScheduler(tuple(FAMILIES)) if config.guided else None
    try:
        with Client(socket_path=socket_path, timeout=120.0) as client:
            for index in range(config.count):
                if (
                    config.budget_seconds is not None
                    and time.monotonic() - started >= config.budget_seconds
                ):
                    break
                weights = scheduler.weights() if scheduler is not None else None
                spec = generate_program(config.seed, index, weights)
                sources = [("base", spec.source)]
                if config.mutants:
                    mutants = spec.mutants
                    if config.max_mutants is not None:
                        mutants = mutants[: config.max_mutants]
                    sources.extend(
                        (f"mutant:{m.kind}", m.source) for m in mutants
                    )
                vector_points = set()
                for label, source in sources:
                    response = client.check_text(f"farm-{index}-{label}", source)
                    report.checks += 1
                    daemon_ok, daemon_types = _daemon_verdict(response)
                    report.daemon_accepted += int(daemon_ok)
                    report.daemon_rejected += int(not daemon_ok)
                    local_ok, local_types = _local_verdict(source, factory)
                    if (daemon_ok, daemon_types) != (local_ok, local_types):
                        report.divergences.append(
                            Violation(
                                oracle="farm",
                                program=index,
                                seed=spec.seed,
                                kind=f"{label}:daemon-divergence",
                                message=(
                                    f"daemon ok={daemon_ok} types={sorted(daemon_types)} "
                                    f"vs local ok={local_ok} types={sorted(local_types)}"
                                ),
                                source=source,
                            )
                        )
                    stats = response.get("stats")
                    if isinstance(stats, dict):
                        vector_points |= coverage_from_stats_dict(stats).points
                new = coverage_map.observe(
                    CoverageVector(frozenset(vector_points)),
                    index,
                    spec.seed,
                    spec.features,
                )
                if scheduler is not None:
                    scheduler.observe(spec.features, len(new))
                report.programs += 1
    finally:
        if process is not None:
            try:
                with Client(socket_path=socket_path, timeout=5.0) as closer:
                    closer.shutdown()
            except Exception:
                process.terminate()
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10.0)
            if process.stdout is not None:
                process.stdout.close()
        if tmpdir is not None:
            tmpdir.cleanup()
        report.duration_seconds = time.monotonic() - started
    report.coverage = coverage_map.as_dict()
    if scheduler is not None:
        report.coverage["family_weights"] = {"0": scheduler.snapshot()}
    return report
