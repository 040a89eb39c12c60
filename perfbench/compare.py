"""Compare two checkouts on the benchmark, or measure one's spread.

    python3 perfbench/compare.py --parent PARENT_DIR --change CHANGE_DIR \\
        [--workloads study,batch,serve] [--pairs 10] [--seed 1000] [--out runs.json]
    python3 perfbench/compare.py --change DIR [--pairs 10] ...   # spread only

Each checkout runs its own ``perfbench/run.py`` (a change that claims a
gain may not edit the benchmark, so both copies must be identical; a
warning is printed otherwise).  Runs come in alternating pairs: pair
``i`` runs both sides on seed ``seed + i``, the parent first when ``i``
is even and the change first when it is odd.

One row per workload and end-to-end metric: each side's median and
quartiles (``statistics.quantiles(n=4)``), the change's win fraction
(ties count for neither side) and a verdict:

* ``gain``: the change wins at least 9 in 10 pairs and the medians
  differ by more than the parent's quartile spread;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved``: either side's quartile spread, as a share of its
  median, is wider than the bound — unless every change run reads
  better than every parent run;
* ``same``: none of the above.

With ``--change`` alone the rows show the spread of that one checkout
against each bound (below a third of the bound reads ``steady``).
"""

from __future__ import annotations

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

RUN_TIMEOUT_S = 900


def load_spec(checkout: Path) -> dict:
    with open(checkout / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_once(checkout: Path, spec: dict, workload: str, seed: int) -> Dict[str, float]:
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    if command[0] in ("python3", "python"):
        command[0] = sys.executable
    done = subprocess.run(
        command, cwd=str(checkout), capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{checkout} {workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: wrong answers")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def better(a: float, b: float, direction: str) -> bool:
    return a > b if direction == "higher" else a < b


def verdict(parent: List[float], change: List[float], metric: dict) -> str:
    direction, bound = metric["better"], metric["bound"]
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    if wins >= 0.9 * len(parent) and better(cmed, pmed, direction) and abs(cmed - pmed) > pq3 - pq1:
        return "gain"
    worse_by = (pmed - cmed) if direction == "higher" else (cmed - pmed)
    if worse_by > bound * abs(pmed):
        return "regression"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--parent", type=Path, default=None)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: every workload)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--out", type=Path, default=None,
                        help="write every run's metrics here as JSON")
    args = parser.parse_args(argv)

    spec = load_spec(args.change)
    sides = {"change": args.change}
    if args.parent is not None:
        sides["parent"] = args.parent
        diff = filecmp.dircmp(args.parent / "perfbench", args.change / "perfbench")
        if diff.left_only or diff.right_only or diff.diff_files:
            print("warning: the two checkouts' benchmarks differ", file=sys.stderr)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    runs: Dict[str, Dict[str, List[Dict[str, float]]]] = {
        side: {w: [] for w in workloads} for side in sides
    }
    for workload in workloads:
        for i in range(args.pairs):
            order = list(sides)
            if "parent" in sides and i % 2 == 0:
                order.reverse()  # parent first on even pairs
            for side in order:
                metrics = run_once(sides[side], spec, workload, args.seed + i)
                runs[side][workload].append(metrics)
                print(f"{workload} pair {i} {side}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()),
                      file=sys.stderr)
    if args.out is not None:
        args.out.write_text(json.dumps(runs, indent=1))

    for workload in workloads:
        print(f"\n== {workload}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            change = [r[name] for r in runs["change"][workload]]
            c1, cmed, c3 = quartiles(change)
            row = f"  {name:16s} change {cmed:11.4f} [{c1:.4f}, {c3:.4f}]"
            if "parent" in sides:
                parent = [r[name] for r in runs["parent"][workload]]
                p1, pmed, p3 = quartiles(parent)
                wins = sum(better(c, p, metric["better"]) for p, c in zip(parent, change))
                row += (f"  parent {pmed:11.4f} [{p1:.4f}, {p3:.4f}]"
                        f"  wins {wins}/{len(parent)}  {verdict(parent, change, metric)}")
            else:
                width = spread(change)
                state = ("steady" if width < metric["bound"] / 3
                         else "within bound" if width <= metric["bound"] else "too wide")
                row += f"  spread {width:.4f} of bound {metric['bound']}  {state}"
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
