"""Auto-triaged bug catalog for the fuzzing pipeline.

Two halves:

* **Triage** — machinery turning raw oracle :class:`Violation`\\ s into
  distinct :class:`TriagedBug` groups.  Every violation is
  fingerprinted by *what the engine did* on its failing trace — the
  kernel rules fired and the theories consulted while re-checking its
  (shrunk) repro — plus the oracle and outcome, so two programs that
  tickle the same defect through different surface syntax collapse
  into one group, while two defects that happen to share an exception
  class stay apart.
* **The catalog** — :data:`BUG_CATALOG`, the curated, committed record
  of every bug the fuzz farm has surfaced: symptom, root cause,
  category, minimal repro, where it was first seen, and the regression
  test that pins the fix.  ``status`` distinguishes ``fixed`` bugs
  from ``survived-audit`` entries — seams the campaign targeted with
  real budget and failed to break, filed with the evidence (a stress
  test or a zero-divergence campaign digest) so the next reader knows
  the seam was audited rather than ignored.

Rendered for humans by :func:`repro.study.report.bug_study_table`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..checker.check import Checker
from ..checker.errors import CheckError
from ..logic.prove import Logic
from ..sexp.reader import ReaderError
from ..syntax.parser import ParseError, parse_program

__all__ = [
    "trace_fingerprint",
    "TriagedBug",
    "triage",
    "BugRecord",
    "BUG_CATALOG",
]


def trace_fingerprint(source: str, oracle: str = "") -> str:
    """Fingerprint a repro by its failing trace, not its text.

    The repro is re-checked on a fresh engine and the fingerprint is
    taken over (oracle, check outcome, kernel rules fired, theories
    consulted) — the :attr:`EngineStats.rule_hits` /
    ``theory_queries`` key sets of the trace.  Counts are deliberately
    excluded: a defect reached through 3 or 30 rule firings is the
    same defect.
    """
    logic = Logic()
    baseline = logic.stats.copy()
    outcome = "accept"
    try:
        program = parse_program(source)
        Checker(logic=logic).check_program(program)
    except (ReaderError, ParseError, CheckError, RecursionError) as exc:
        outcome = f"raise:{type(exc).__name__}"
    delta = logic.stats.delta_from(baseline)
    payload = {
        "oracle": oracle,
        "outcome": outcome,
        "rules": sorted(delta.rule_hits),
        "theories": sorted(delta.theory_queries),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class TriagedBug:
    """One distinct group of oracle violations."""

    fingerprint: str
    oracle: str
    count: int
    first_program: int
    first_seed: int
    kinds: Tuple[str, ...]       # distinct violation kinds in the group
    repro: str                   # minimal (shrunk when available) source
    messages: Tuple[str, ...]    # one representative message per kind

    def as_dict(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "oracle": self.oracle,
            "count": self.count,
            "first_program": self.first_program,
            "first_seed": self.first_seed,
            "kinds": list(self.kinds),
            "repro": self.repro,
            "messages": list(self.messages),
        }


def triage(violations: Sequence) -> List[TriagedBug]:
    """Deduplicate violations into per-defect groups.

    Accepts any sequence of :class:`repro.fuzz.oracles.Violation`
    (duck-typed).  Violations sharing (oracle, trace fingerprint of
    their best repro) form one group; the group keeps the smallest
    repro seen and the earliest (program, seed) sighting.
    """
    groups: Dict[Tuple[str, str], Dict[str, object]] = {}
    for violation in violations:
        repro = violation.shrunk or violation.source
        key = (violation.oracle, trace_fingerprint(repro, violation.oracle))
        group = groups.get(key)
        if group is None:
            group = {
                "count": 0,
                "first_program": violation.program,
                "first_seed": violation.seed,
                "repro": repro,
                "kinds": {},
            }
            groups[key] = group
        group["count"] += 1
        if violation.program < group["first_program"]:
            group["first_program"] = violation.program
            group["first_seed"] = violation.seed
        if len(repro) < len(group["repro"]):
            group["repro"] = repro
        group["kinds"].setdefault(violation.kind, violation.message)
    bugs = [
        TriagedBug(
            fingerprint=fingerprint,
            oracle=oracle,
            count=group["count"],
            first_program=group["first_program"],
            first_seed=group["first_seed"],
            kinds=tuple(sorted(group["kinds"])),
            repro=group["repro"],
            messages=tuple(
                group["kinds"][kind] for kind in sorted(group["kinds"])
            ),
        )
        for (oracle, fingerprint), group in groups.items()
    ]
    bugs.sort(key=lambda b: (b.oracle, -b.count, b.fingerprint))
    return bugs


# ----------------------------------------------------------------------
# the committed catalog
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BugRecord:
    """One catalog entry: a bug found (or a seam audited) by fuzzing."""

    bug_id: str          # stable identifier, e.g. "RTR-001"
    title: str
    category: str        # shrinker | batch | server | solver | checker
    status: str          # "fixed" | "survived-audit"
    oracle: str          # which oracle/harness surfaced it
    symptom: str
    root_cause: str
    repro: str           # minimal repro source, or the audit command
    first_seen: str      # campaign coordinates (seed/mode) or audit name
    regression_test: str # test that pins the fix (or the audit evidence)

    def as_dict(self) -> Dict[str, object]:
        return {
            "bug_id": self.bug_id,
            "title": self.title,
            "category": self.category,
            "status": self.status,
            "oracle": self.oracle,
            "symptom": self.symptom,
            "root_cause": self.root_cause,
            "repro": self.repro,
            "first_seen": self.first_seen,
            "regression_test": self.regression_test,
        }


#: Every bug the fuzz farm has surfaced, in discovery order.  Grown by
#: hand per campaign batch: triage proposes, a human (or the campaign
#: harness) confirms root cause and files the record with its pinned
#: regression test.
BUG_CATALOG: Tuple[BugRecord, ...] = (
    BugRecord(
        bug_id="RTR-001",
        title="Shrinker cannot reduce multi-clause let binding lists",
        category="shrinker",
        status="fixed",
        oracle="shrink-audit",
        symptom=(
            "Counterexamples containing (let ([a ...] [b ...] ...) body) "
            "never lose unused bindings: shrunk repros stay several "
            "clauses wide even when one binding suffices."
        ),
        root_cause=(
            "shrink.py had no drop-one-element move for list nodes whose "
            "elements are all lists (the binding-list shape); hoisting a "
            "single binding produced unparseable candidates, so every "
            "reduction attempt on the spine failed and the bindings "
            "survived verbatim."
        ),
        repro="(let ([a 1] [b 2] [c 3]) a)",
        first_seen="shrinker seam audit, PR 7 campaign (seed 2016)",
        regression_test="tests/test_fuzz_shrink.py::test_let_binding_list_drops_unused_clauses",
    ),
    BugRecord(
        bug_id="RTR-002",
        title="Shrinker atom replacement oscillates and burns its budget",
        category="shrinker",
        status="fixed",
        oracle="shrink-audit",
        symptom=(
            "Shrinking long programs hit max_checks without converging; "
            "traces showed the same positions flipping 0 -> 1 -> 0 -> ... "
            "across fixpoint passes."
        ),
        root_cause=(
            "_try_simplify offered every replacement atom except the "
            "current node, so 0 could become 1 and 1 become 0 whenever "
            "either kept the predicate true; the fixpoint loop then "
            "re-offered the inverse swap each pass.  Replacements now "
            "follow a strict simplicity ranking (0 < 1 < #t < #f) and "
            "only ever move down it."
        ),
        repro="any predicate true under both 0 and 1 at one position",
        first_seen="shrinker seam audit, PR 7 campaign (seed 2016)",
        regression_test="tests/test_fuzz_shrink.py::test_atom_replacement_terminates_without_oscillation",
    ),
    BugRecord(
        bug_id="RTR-003",
        title="Resident worker pool hangs forever if a fork worker dies",
        category="batch",
        status="fixed",
        oracle="farm-audit",
        symptom=(
            "A worker process killed mid-batch (OOM kill, segfault in a "
            "native extension) left the pool's Pool.map blocked "
            "forever; under the daemon this wedged the single engine "
            "lane, turning one lost worker into a dead service."
        ),
        root_cause=(
            "The standard library's Pool.map has no liveness handling on "
            "Python 3.11: a dead worker's chunk is never resubmitted "
            "and the MapResult never completes.  WorkerPool.map now "
            "uses map_async with a liveness watchdog: if any worker "
            "process dies before the result lands, the pool is torn "
            "down and the batch re-runs in-process (slow but sound)."
        ),
        repro="kill -9 one pool worker mid check_many batch",
        first_seen="daemon seam audit, PR 7 (worker-death drill)",
        regression_test="tests/test_pipeline_worker_death.py::test_map_survives_worker_death",
    ),
    BugRecord(
        bug_id="RTR-004",
        title="Daemon reset racing in-flight farm connections",
        category="server",
        status="survived-audit",
        oracle="farm",
        symptom=(
            "Audited: reset requests interleaved with a farm "
            "connection's check_text stream could plausibly replay "
            "stale session verdicts or serve half-reset engine state."
        ),
        root_cause=(
            "No defect found.  The single engine lane serializes reset "
            "against every in-flight request, and the epoch guard "
            "(Logic.epoch bump + per-session guard_epoch) forces stale "
            "sessions to drop module stores before serving again.  "
            "The stress test interleaves resets from a "
            "second connection with a farm-style check stream and "
            "verdicts stay bit-identical to a reset-free run."
        ),
        repro="tests/test_server_reset_race.py (interleaved reset stress)",
        first_seen="daemon seam audit, PR 7",
        regression_test="tests/test_server_reset_race.py::test_reset_storm_preserves_verdicts",
    ),
    BugRecord(
        bug_id="RTR-005",
        title="Fast-vs-legacy solver backends: no divergence at campaign scale",
        category="solver",
        status="survived-audit",
        oracle="solver",
        symptom=(
            "Audited: the PR 6 solver cores (incremental dual simplex, "
            "CDCL) could diverge from the Fourier-Motzkin/DPLL "
            "references on some generated program."
        ),
        root_cause=(
            "No divergence found.  The PR 7 campaign ran the "
            "--solver-oracle differential across multiple seeds and "
            "shard layouts (thousands of programs, every generator "
            "family) with zero verdict divergences; campaign digests "
            "are pinned in tests and CI re-runs a fixed slice."
        ),
        repro="python -m repro fuzz --solver-oracle --seed 2016 --count 400",
        first_seen="PR 7 campaign (seeds 0/42/2016/31337)",
        regression_test="tests/test_fuzz_campaign.py::test_solver_oracle_campaign_no_divergence",
    ),
    BugRecord(
        bug_id="RTR-006",
        title="Every daemon stop() stalls 5s on the shutdown watcher",
        category="server",
        status="fixed",
        oracle="farm-audit",
        symptom=(
            "Stopping a daemon — farm teardown, test teardown, service "
            "restart — always took a hair over 5 seconds even with no "
            "connections open (~70s of pure teardown across the server "
            "test suite)."
        ),
        root_cause=(
            "The shutdown-watcher thread blocks forever on the "
            "_shutdown_requested event, but stop() only set _stop; the "
            "join(timeout=5.0) over server threads then waited the "
            "full timeout on a thread structurally unable to observe "
            "the stop.  stop() now wakes the watcher (which sees _stop "
            "set and exits) before joining."
        ),
        repro="CheckingServer.start(); time stop()  # 5.2s before, 0.2s after",
        first_seen="daemon seam audit, PR 7 (test-duration profile)",
        regression_test="tests/test_server.py::TestStopLatency::test_stop_completes_promptly",
    ),
    BugRecord(
        bug_id="RTR-007",
        title="One-shot check --jobs and fuzz --shards hang if a fork worker dies",
        category="batch",
        status="fixed",
        oracle="farm-audit",
        symptom=(
            "With a chunk runner that SIGKILLs its own worker, "
            "check_many(paths, jobs=2) and run_fuzz with shards=2 never "
            "returned (killed by a 20s timeout), while the resident "
            "WorkerPool survived the same fault."
        ),
        root_cause=(
            "The RTR-003 fix lived only in WorkerPool; the one-shot "
            "check_many and the fuzz runner each built their own fork "
            "pool and called plain Pool.map, which waits forever on a "
            "dead worker's lost task.  Both now map through "
            "WorkerPool.map, the package's one fork site: a dead worker "
            "tears the pool down and the tasks re-run in-process (same "
            "verdicts, same fuzz digest)."
        ),
        repro="patch pipeline._run_chunk to SIGKILL itself; check_many(paths, jobs=2)",
        first_seen="fork-site audit (one-shot pools vs WorkerPool)",
        regression_test="tests/test_pipeline_worker_death.py::test_one_shot_check_many_survives_worker_death",
    ),
    BugRecord(
        bug_id="RTR-008",
        title="A deadline inside the SAT core leaves a goal's negation in the session",
        category="solver",
        status="fixed",
        oracle="deadline-sweep",
        symptom=(
            "After a request deadline expired inside a bitvector "
            "goal's CDCL solve, the same engine proved num ≤ 3 from "
            "0 ≤ num ≤ 255: 188 false proofs in 189 cancelled trials "
            "of a 400-trial sweep of deadlines from 0.2 to 4.1 ms. "
            "Logic._proves_miss then stored the wrong True in its memo "
            "and in any attached persistent cache."
        ),
        root_cause=(
            "The SAT facade asked each goal inside a push/check/pop "
            "frame with no finally: the cancellation raised out of the "
            "solve, pop never ran, and the frame's selector (the "
            "negated goal) stayed active in the cached theory session, "
            "so every later goal was refuted against an unsatisfiable "
            "Γ ∧ ¬goal.  Goals are now SAT assumptions on an "
            "append-only solver (check_sat([-goal])), which hold for "
            "one query only; the push/pop frames and the encoder "
            "rollback are gone.  The chaos stall injector never finds "
            "this bug: it wraps the theory dispatch seam, so it cancels "
            "before any solver core runs."
        ),
        repro=(
            "Γ = 0 ≤ num ≤ 255; cancel a Budget(stride=1) on entry to "
            "CDCL.solve while proving ((2·num) AND 0xFF) XOR 0x1B ≤ 255; "
            "then logic.proves(env, num ≤ 3)"
        ),
        first_seen="request-deadline sweep over one cached engine (400 trials)",
        regression_test="tests/test_budget.py::TestLogicBudgeted::test_cancel_inside_sat_core_leaves_no_false_proof",
    ),
)
