"""Shared helpers: the run context, percentiles, memory and results."""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence

from .speed import SpeedProbe, factor

#: the checkout the benchmark runs in (``perfbench/..``)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: every file the benchmark writes lives under here, removed at exit
WORK = ROOT / ".perfbench-work"

#: load never exceeds the machine's core count
NPROC = max(1, os.cpu_count() or 1)

#: base seed of the fixed program populations that ``batch`` and
#: ``serve`` draw their orders from
POPULATION_SEED = 2016

#: set-up is repeated this many times per run and the median reported
SETUP_REPEATS = 7


@dataclass
class Context:
    """What every workload module receives."""

    seed: int
    seconds: float
    work_dir: Path
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    tracer: Optional[object] = None  # a trace.Tracer in the traced run


@dataclass
class Outcome:
    """What a workload module returns."""

    attempted: int = 0
    failed: int = 0
    #: end-to-end metric name → value (the untraced run)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: per-layer metric name → value (the traced run)
    layers: Dict[str, float] = field(default_factory=dict)
    #: human-readable lines printed above the result
    notes: List[str] = field(default_factory=list)
    #: a wrong answer that makes the whole run incorrect
    errors: List[str] = field(default_factory=list)

    def wrong(self, message: str) -> None:
        """Record one operation whose output differs from its known answer."""
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def timed_median(setup: Callable[[], object], probe, repeats: int = SETUP_REPEATS):
    """Run ``setup`` ``repeats`` times.

    Returns (median corrected seconds, median measured seconds, the last
    result).
    """
    durations, corrections = [], []
    result = None
    for _ in range(repeats):
        before = probe.sample()
        started = time.perf_counter()
        result = setup()
        durations.append(time.perf_counter() - started)
        corrections.append(factor(before, probe.sample()))
    return (median(d * c for d, c in zip(durations, corrections)),
            median(durations), result)


def uncorrected_note(workload: str, metrics: Dict[str, float]) -> str:
    """The time metrics as measured, without the speed correction."""
    return f"{workload}: uncorrected " + json.dumps(metrics, sort_keys=True)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest child this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def peak_rss_with_children_mb() -> float:
    """Peak RSS of this process or any child it has waited for."""
    return max(vm_hwm_mb(os.getpid()), children_peak_rss_mb())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def require_source() -> None:
    """Exit non-zero unless the program's sources are next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
