"""Supporting micro-benchmarks: solver throughput on checker-shaped
queries (the paper's solvers are Fourier-Motzkin and Z3's bitvectors;
ours are dual simplex / CDCL with Fourier-Motzkin / DPLL as the
``legacy`` reference backends).

``test_bench_solver_cores_artifact`` is the fast-vs-legacy shoot-out:
it times both backends on the same checker-shaped workloads, writes
``benchmark-results/run/solver_cores.json``, and gates the ratios (the
stress shapes are where the incremental cores earn their keep; the
tier-1 micro shape is where they must at least break even).  The
artifact also records, ungated, the clause count and time of the
linear goal that falls through to bit-blasting.
"""

import json
import os
import random
import time

from perf_common import write_run_artifact

from repro.solvers.bitblast import BitBlaster
from repro.solvers.linear import (
    Constraint,
    IncrementalConstraintSet,
    fm_entails,
    fm_satisfiable,
)
from repro.solvers.sat import IncrementalSatSolver, solve
from repro.theories.bitvec import DEFAULT_WIDTH, BitvectorTheory
from repro.tr.objects import BVExpr, Var, obj_int
from repro.tr.props import BVProp, lin_le


def _index_query(n_vars: int):
    """0 ≤ x0 < x1 < ... < x(n-1) ≤ bound ⊨ x0 < bound — FM's daily work."""
    assumptions = [Constraint.make({"x0": -1}, 0)]
    for i in range(n_vars - 1):
        assumptions.append(Constraint.make({f"x{i}": 1, f"x{i+1}": -1}, 1))
    assumptions.append(Constraint.make({f"x{n_vars-1}": 1, "bound": -1}, 0))
    goal = Constraint.make({"x0": 1, "bound": -1}, 1)
    return assumptions, goal


def test_bench_fm_entailment(benchmark):
    assumptions, goal = _index_query(8)
    result = benchmark(fm_entails, assumptions, goal)
    assert result is True


def test_bench_fm_satisfiable_random(benchmark):
    rng = random.Random(42)
    constraints = [
        Constraint.make(
            {f"v{rng.randrange(6)}": rng.choice([-2, -1, 1, 2]) for _ in range(3)},
            rng.randrange(-10, 10),
        )
        for _ in range(20)
    ]

    verdict = benchmark(fm_satisfiable, constraints)
    assert verdict in ("sat", "unsat", "unknown")


def test_bench_sat_pigeonhole(benchmark):
    holes = 5
    pigeons = holes + 1

    def var(p, h):
        return p * holes + h + 1

    cnf = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.append([-var(p1, h), -var(p2, h)])

    result = benchmark.pedantic(solve, args=(cnf,), rounds=1, iterations=1)
    assert not result.sat


def _checker_stress(seed=3, goals=400):
    """A vector-bounds proof context the checker produces constantly.

    31 assumptions: eight index variables with zero lower bounds, four
    length variables boxed above and below, a difference chain over the
    indices, and ``index ≤ length - 1`` links.  The goal stream cycles
    interval-dischargeable, relational, loose-difference and trivial
    lower-bound obligations — every goal distinct so facade memoisation
    cannot mask engine throughput.
    """
    rng = random.Random(seed)
    idx = [f"i{k}" for k in range(8)]
    lens = [f"n{k}" for k in range(4)]
    assumptions = [Constraint.make({v: -1}, 0) for v in idx]
    for k, v in enumerate(lens):
        assumptions.append(Constraint.make({v: 1}, -(16 + 8 * k)))
        assumptions.append(Constraint.make({v: -1}, 4 + k))
    for k in range(len(idx) - 1):
        assumptions.append(
            Constraint.make({idx[k]: 1, idx[k + 1]: -1}, -rng.randint(0, 2))
        )
    while len(assumptions) < 31:
        assumptions.append(
            Constraint.make({rng.choice(idx): 1, rng.choice(lens): -1}, 1)
        )
    stream = []
    for k in range(goals):
        mode = k % 4
        if mode == 0:
            # length cap — dischargeable from the asserted interval
            stream.append(Constraint.make({rng.choice(lens): 1}, -(41 + k)))
        elif mode == 1:
            # 3-atom capacity sum — interval arithmetic over the box
            a, b = rng.sample(lens, 2)
            stream.append(
                Constraint.make({a: 1, b: 1, rng.choice(idx): -1}, -(90 + k))
            )
        elif mode == 2:
            # loose length difference — still bounds-dischargeable
            a, b = rng.sample(lens, 2)
            stream.append(Constraint.make({a: 1, b: -1}, -(30 + k)))
        else:
            # index-vs-length relational: the genuine pivoting path
            stream.append(
                Constraint.make(
                    {rng.choice(idx): 1, rng.choice(lens): -1}, -(1 + k)
                )
            )
    return assumptions, stream


def _random_3sat(seed=42, n_vars=60, n_clauses=300):
    rng = random.Random(seed)
    return [
        [v if rng.random() < 0.5 else -v
         for v in rng.sample(range(1, n_vars + 1), 3)]
        for _ in range(n_clauses)
    ]


def _time_linear_stream(backend, assumptions, stream):
    ics = IncrementalConstraintSet(backend=backend)
    for con in assumptions:
        ics.add(con)
    ics.satisfiable()  # pay assert/first-check cost before the clock
    start = time.perf_counter()
    proved = sum(1 for goal in stream if ics.entails(goal))
    elapsed = time.perf_counter() - start
    return proved, elapsed


def _time_sat(backend, cnf, repeats=3):
    best, verdict = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = solve(cnf, backend=backend)
        best = min(best, time.perf_counter() - start)
        verdict = result.sat
    return verdict, best


def _time_micro(backend, repeats=200):
    assumptions, goal = _index_query(8)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        ics = IncrementalConstraintSet(backend=backend)
        for con in assumptions:
            ics.add(con)
        assert ics.entails(goal) is True
        best = min(best, time.perf_counter() - start)
    return best


def _time_warm(backend, rounds=50):
    """Warm incremental reuse: one context re-solving a fixed goal set
    against assumptions translated once.  Nothing below the theory
    session memoises goals, so every round is a real re-solve."""
    idx = [f"i{k}" for k in range(8)]
    assumptions = [Constraint.make({v: -1}, 0) for v in idx]
    assumptions.append(Constraint.make({"n0": 1}, -16))
    assumptions.append(Constraint.make({"n0": -1}, 4))
    # every index linked below its length: i ≤ n0 - 1 ≤ 15 < 50 + k
    assumptions.extend(Constraint.make({v: 1, "n0": -1}, 1) for v in idx)
    goals = [Constraint.make({f"i{k % 8}": 1}, -(50 + k)) for k in range(20)]
    ics = IncrementalConstraintSet(backend=backend)
    for con in assumptions:
        ics.add(con)
    ics.add(Constraint.make({"i0": -1, "n0": 1}, -64))
    for goal in goals:
        ics.entails(goal)  # warm-up round, off the clock
    start = time.perf_counter()
    for _ in range(rounds):
        for goal in goals:
            assert ics.entails(goal) is True
    elapsed = time.perf_counter() - start
    return elapsed / (rounds * len(goals))


def _time_fallthrough(backend, repeats=30):
    """The linear goal linarith leaves to bit-blasting, end to end.

    Γ = ``0 ≤ L ≤ 0`` with goal ``1 ≤ L`` through a fresh
    ``BitvectorContext`` at the default width — the only shape of the
    generated corpus that reaches the SAT core.  Returns the best time
    of one query and the clause count of Γ's encoding.
    """
    theory = BitvectorTheory(backend=backend)
    length = Var("L")
    best, clauses = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        context = theory.context()
        context.assert_prop(lin_le(obj_int(0), length))
        context.assert_prop(lin_le(length, obj_int(0)))
        assert context.entails(lin_le(obj_int(1), length)) is False
        best = min(best, time.perf_counter() - start)
        clauses = len(context._encoded[0].clauses)
    return best, clauses


def test_bench_solver_cores_artifact(capsys):
    assumptions, stream = _checker_stress()

    proved_fast, fast_s = _time_linear_stream("fast", assumptions, stream)
    proved_legacy, legacy_s = _time_linear_stream("legacy", assumptions, stream)
    # the fast core proves a superset of FM (integer reasoning), so
    # equality is asserted per-mode via the ratio workload being fixed
    assert proved_fast >= proved_legacy
    linear_ratio = legacy_s / fast_s

    cnf = _random_3sat()
    sat_fast, sat_fast_s = _time_sat("fast", cnf)
    sat_legacy, sat_legacy_s = _time_sat("legacy", cnf)
    assert sat_fast == sat_legacy
    sat_ratio = sat_legacy_s / sat_fast_s

    micro_fast = _time_micro("fast")
    micro_legacy = _time_micro("legacy")

    warm_fast = _time_warm("fast")
    warm_legacy = _time_warm("legacy")

    fall_fast, fall_clauses = _time_fallthrough("fast")
    fall_legacy, _ = _time_fallthrough("legacy")

    results = {
        "cpu_count": os.cpu_count() or 1,
        "linear_stress": {
            "assumptions": len(assumptions),
            "goals": len(stream),
            "proved_fast": proved_fast,
            "proved_legacy": proved_legacy,
            "fast_us_per_goal": round(fast_s / len(stream) * 1e6, 2),
            "legacy_us_per_goal": round(legacy_s / len(stream) * 1e6, 2),
            "speedup_fast_over_legacy": round(linear_ratio, 2),
        },
        "sat_300_clauses": {
            "clauses": len(cnf),
            "verdict": "sat" if sat_fast else "unsat",
            "fast_ms": round(sat_fast_s * 1e3, 3),
            "legacy_ms": round(sat_legacy_s * 1e3, 3),
            "speedup_fast_over_legacy": round(sat_ratio, 2),
        },
        "micro_index_query": {
            "fast_us": round(micro_fast * 1e6, 2),
            "legacy_us": round(micro_legacy * 1e6, 2),
        },
        "warm_incremental": {
            "fast_us_per_goal": round(warm_fast * 1e6, 3),
            "legacy_us_per_goal": round(warm_legacy * 1e6, 3),
        },
        "bitvec_linear_fallthrough": {
            "width": DEFAULT_WIDTH,
            "clauses": fall_clauses,
            "fast_us_per_query": round(fall_fast * 1e6, 2),
            "legacy_us_per_query": round(fall_legacy * 1e6, 2),
        },
    }
    write_run_artifact("solver_cores.json", results)

    with capsys.disabled():
        print()
        print(
            f"solver cores: linear stress {linear_ratio:5.1f}x | "
            f"sat-300 {sat_ratio:4.2f}x | "
            f"micro fast {micro_fast * 1e6:6.1f}us vs "
            f"legacy {micro_legacy * 1e6:6.1f}us | "
            f"warm {warm_fast * 1e6:5.2f}us/goal | "
            f"bv fall-through {fall_clauses} clauses "
            f"{fall_fast * 1e6:7.1f}us"
        )

    # Hardware-tolerant gates: the stress ratios are backend-vs-backend
    # on the same machine, so they survive slow containers; the micro
    # gate allows timer noise but not a regression.
    assert linear_ratio >= 5.0, json.dumps(results)
    assert sat_ratio >= 2.0, json.dumps(results)
    assert micro_fast <= micro_legacy * 1.25, json.dumps(results)
    assert warm_fast <= warm_legacy * 2.0, json.dumps(results)


def test_bench_incremental_sat_reuse(benchmark):
    """Warm assumption-based reuse on the SAT side: repeated
    check_sat under push/pop must stay cheap (learned clauses and
    watches survive the frame)."""
    cnf = _random_3sat(seed=7, n_vars=40, n_clauses=160)
    inc = IncrementalSatSolver(backend="fast")
    inc.add_clauses(cnf)
    assert inc.check_sat() in (True, False)

    def reuse():
        inc.push()
        inc.add_clause([1, 2, 3])
        verdict = inc.check_sat()
        inc.pop()
        return verdict

    benchmark(reuse)


def test_bench_bitblast_xtime_query(benchmark):
    """The exact solver query behind xtime's Byte obligation."""
    theory = BitvectorTheory()
    num = Var("num")
    assumptions = [lin_le(obj_int(0), num), lin_le(num, obj_int(255))]
    masked = BVExpr("and", (BVExpr("mul", (2, num), 8), 0xFF), 8)
    goal = lin_le(BVExpr("xor", (masked, 0x1B), 8), obj_int(255))

    result = benchmark.pedantic(
        theory.entails, args=(assumptions, goal), rounds=1, iterations=1
    )
    assert result is True
