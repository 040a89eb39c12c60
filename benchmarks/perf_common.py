"""Shared helpers for the hardware-tolerant performance gates.

The committed baseline (``benchmark-results/perf_baseline.json``)
records, for the representation that preceded the profile-guided
kernel work, the single-core throughput numbers *and* the duration of
a fixed pure-Python calibration spin on the machine that measured
them.  A gate re-times the same spin on the current machine and scales
the baseline by the ratio, so the comparison tracks "how much faster
is this code" rather than "how fast is this box" — a slower CI runner
lowers both sides of the inequality together.

Every bench writes its measurements through :func:`write_run_artifact`
into ``benchmark-results/run/``, which git ignores: a bench run never
rewrites the tracked baselines beside it.
"""

import json
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmark-results"
BASELINE_PATH = RESULTS_DIR / "perf_baseline.json"
#: where each bench run's measurements land (untracked)
RUN_DIR = RESULTS_DIR / "run"


def write_run_artifact(name: str, results: dict) -> None:
    """Write one bench's ``results`` to ``benchmark-results/run/NAME``."""
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    with open(RUN_DIR / name, "w") as handle:
        json.dump(results, handle, indent=2)


def load_baseline() -> dict:
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


def calibration_spin_seconds(rounds: int = 3) -> float:
    """Best-of-N duration of the fixed calibration workload."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best


def machine_scale(baseline: dict) -> float:
    """How fast this machine is relative to the baseline machine.

    ``> 1`` means the current machine is faster, so the baseline's
    rates are scaled *up* (and its latencies down) before comparing.
    """
    return baseline["calibration_spin_seconds"] / calibration_spin_seconds()
