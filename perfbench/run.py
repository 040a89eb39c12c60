"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload study|batch|serve --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` wraps the program's
public functions (see ``perfbench/layers.py``) and prints the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A wrong answer makes the run exit 1; missing program
sources make it exit 2 without a result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("study", "batch", "serve")


def _spec() -> dict:
    with open(common.ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.require_source()
    spec = _spec()
    module = importlib.import_module(f"perfbench.{args.workload}")
    from perfbench.layers import PREDICTIONS, install
    from perfbench.trace import Tracer

    work_dir = common.fresh_dir(common.WORK / f"{args.workload}-{args.seed}")
    ctx = common.Context(seed=args.seed, seconds=args.seconds, work_dir=work_dir)
    try:
        if args.trace:
            spill = common.fresh_dir(work_dir / "spans")
            ctx.tracer = Tracer(spill)
            install(ctx.tracer)
            outcome = module.run_traced(ctx)
            ctx.tracer.uninstall()
            wanted, values = spec["per_layer"], outcome.layers
        else:
            outcome = module.run(ctx)
            wanted, values = spec["end_to_end"], outcome.metrics
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            common.WORK.rmdir()
        except OSError:
            pass
        # Deleting thousands of files leaves the file system busy
        # committing and discarding for a while; wait for that here
        # rather than let it slow the next run's disk operations.
        os.sync()

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": metric["unit"]}
    for note in outcome.notes:
        print(note)
    attempted = max(outcome.attempted, 1)
    print(f"{args.workload}: failed_frac {outcome.failed / attempted:.6f} "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for name, metric in metrics.items():
        line = f"  {name:40s} {metric['value']:14.6f} {metric['unit']}"
        if args.trace:
            line += f"   -> {PREDICTIONS.get(name, '')}"
        print(line)
    for error in outcome.errors:
        print(f"WRONG: {error}", file=sys.stderr)
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
