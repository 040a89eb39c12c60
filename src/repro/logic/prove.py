"""The λRTR proof system (Figure 6) and subtyping (Figure 5).

:class:`Logic` is the façade the type checker talks to; since the
kernel refactor it *drives* the layered proof kernel under
:mod:`repro.logic.kernel` rather than implementing the judgments
itself:

* ``extend``  — assimilate a proposition into a hybrid environment via
  the **normalization** and **saturation** stages (worklist-driven;
  L-RefE, L-Update±, L-TypeFork / L-ObjFork, alias maintenance);
* ``proves``  — Γ ⊢ ψ, evaluated by the kernel's iterative and/or
  machine (L-Sub, L-Not, L-Bot, L-Transport) with theory atoms batched
  per session through the **dispatch** stage (L-Theory);
* ``subtype`` / ``result_subtype`` — Figure 5, including S-Refine1/2
  and SR-Exists.

No judgment recurses over proposition structure — deep programs
produce deep propositions, and the kernel walks them with explicit
stacks.  Search effort (case splits, refutations, refinement
subtyping) is still fuel-bounded by ``max_depth``; saturation is
bounded by the ``max_steps`` worklist budget.  Exhausting either
answers "not derivable"/"learn less", which only ever makes the
checker more conservative.

The engine is *incremental* (the scalability discipline of section 4):
one :class:`Logic` instance is threaded through a whole program check,
and it memoises its judgments across queries.

* ``proves`` and ``subtype`` answers are cached keyed by the
  environment's exact structural fingerprint
  (:meth:`repro.logic.env.Env.fingerprint`) and the goal — learning any
  new fact changes the fingerprint, so invalidation is automatic and a
  stale answer can never be served.
* Depth-bounded internal judgments additionally record the fuel they
  were decided with: a negative ("not derivable") answer is only reused
  when at least as much fuel was available, so caching never makes the
  checker *more* conservative than the uncached search.
* L-Theory goes through per-environment
  :class:`~repro.theories.registry.RegistrySession` objects —
  append-only solver contexts into which Γ's theory projection is
  asserted once per environment state instead of once per goal; the
  session memoises each goal's answer.
* An optional **persistent proof cache**
  (:class:`repro.batch.cache.ProofCache`) can be attached; top-level
  ``proves`` verdicts are then shared across processes and across
  runs, keyed by content digests of (Γ, ψ).

:class:`EngineStats` counts calls, cache hits and per-theory queries;
it merges across batch workers (:meth:`EngineStats.merge`) and the
CLI's ``--stats`` flag and :mod:`repro.study.report` surface it.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, Iterator, List, Optional, Tuple

from ..budget import Budget, activate as activate_budget
from ..theories.registry import RegistrySession, TheoryRegistry, default_registry
from ..tr.objects import FST, LEN, SND, Obj, PairObj, obj_field, obj_int
from ..tr.props import (
    And,
    Prop,
    TheoryProp,
    lin_eq,
    lin_le,
)
from ..tr.results import TypeResult
from ..tr.subst import prop_subst
from ..tr.types import Pair, Refine, Type, Vec
from ..tr.types import Str as StrT
from .env import Env, EnvKey
from .kernel.dispatch import TheoryDispatch
from .kernel.prover import ProofKernel
from .kernel.saturate import Saturator

__all__ = ["EngineStats", "Logic", "StageTimers"]


class EngineStats:
    """Counters for the incremental engine's hot paths.

    ``theory_queries`` maps theory name → number of solver consultations
    (a session memo hit never reaches a solver, so the counts measure
    real work).  ``solver_counters`` maps solver-core counter name →
    count (``simplex.pivots``, ``cdcl.conflicts``, …), flushed in by the
    solver facades after every core query.  ``rule_hits`` maps kernel
    rule name → times fired (``sat.type+``, ``sat.alias-merge``,
    ``dispatch.batch``, …) — the per-program coverage signal the
    coverage-guided fuzzer schedules on (:mod:`repro.fuzz.coverage`).
    Instances are picklable and mergeable, so batch workers can each
    keep their own counters and the parent process can report exact
    aggregate hit rates (:meth:`merge`).
    """

    __slots__ = (
        "prove_calls",
        "prove_hits",
        "subtype_calls",
        "subtype_hits",
        "lookup_calls",
        "lookup_hits",
        "theory_goals",
        "theory_batches",
        "session_builds",
        "session_hits",
        "persist_hits",
        "persist_misses",
        "theory_queries",
        "solver_counters",
        "rule_hits",
        "stage_ns",
    )

    #: dict-valued slots: merged key-wise, not by integer addition
    _DICT_SLOTS = ("theory_queries", "solver_counters", "rule_hits", "stage_ns")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.prove_calls = 0
        self.prove_hits = 0
        self.subtype_calls = 0
        self.subtype_hits = 0
        self.lookup_calls = 0
        self.lookup_hits = 0
        self.theory_goals = 0
        self.theory_batches = 0
        self.session_builds = 0
        self.session_hits = 0
        self.persist_hits = 0
        self.persist_misses = 0
        self.theory_queries: Dict[str, int] = {}
        self.solver_counters: Dict[str, int] = {}
        self.rule_hits: Dict[str, int] = {}
        #: kernel stage → wall-clock nanoseconds, filled only while a
        #: :class:`StageTimers` is attached (``repro profile``, ``fuzz
        #: --profile``); empty — and costing nothing — otherwise.
        self.stage_ns: Dict[str, int] = {}

    @staticmethod
    def _rate(hits: int, calls: int) -> float:
        return (100.0 * hits / calls) if calls else 0.0

    @property
    def prove_hit_rate(self) -> float:
        return self._rate(self.prove_hits, self.prove_calls)

    @property
    def subtype_hit_rate(self) -> float:
        return self._rate(self.subtype_hits, self.subtype_calls)

    @property
    def lookup_hit_rate(self) -> float:
        return self._rate(self.lookup_hits, self.lookup_calls)

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Fold another worker's counters into this one (in place).

        Every counter is additive, so hit *rates* computed after the
        merge are the exact aggregate rates across workers.  Returns
        ``self`` so merges chain.
        """
        for slot in self.__slots__:
            if slot in self._DICT_SLOTS:
                mine = getattr(self, slot)
                for name, count in getattr(other, slot).items():
                    mine[name] = mine.get(name, 0) + count
            else:
                setattr(self, slot, getattr(self, slot) + getattr(other, slot))
        return self

    def copy(self) -> "EngineStats":
        """An independent snapshot of the current counters."""
        return EngineStats().merge(self)

    def delta_from(self, baseline: "EngineStats") -> "EngineStats":
        """Counters accumulated since ``baseline`` (a prior :meth:`copy`).

        A long-lived engine's counters only ever grow; per-request
        reporting (the checking daemon's lanes) snapshots
        before a request and subtracts after, so every response can
        carry exactly the work that request caused.
        """
        delta = EngineStats()
        for slot in self.__slots__:
            if slot in self._DICT_SLOTS:
                mine = getattr(delta, slot)
                base = getattr(baseline, slot)
                for name, count in getattr(self, slot).items():
                    before = base.get(name, 0)
                    if count - before:
                        mine[name] = count - before
            else:
                setattr(delta, slot, getattr(self, slot) - getattr(baseline, slot))
        return delta

    # pickling support: __slots__ classes need explicit state plumbing
    # for protocol-independence (batch workers ship these to the parent)
    def __getstate__(self) -> Dict[str, object]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.reset()
        for slot, value in state.items():
            setattr(self, slot, value)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for slot in self.__slots__:
            value = getattr(self, slot)
            out[slot] = dict(value) if slot in self._DICT_SLOTS else value
        return out


class StageTimers:
    """Wall-clock accounting per kernel stage, re-entrancy aware.

    Attached to a :class:`Logic` via :meth:`Logic.enable_stage_timers`;
    the kernel stages bracket their work with :meth:`enter`/:meth:`exit`
    only when an instance is attached, so the default (detached) hot
    path pays a single ``is None`` test.  Stages recurse into each
    other (``prove`` case-splits re-enter ``saturate`` which re-enters
    ``prove``): a per-stage depth counter ensures only the *outermost*
    bracket of each stage accumulates, so ``stage_ns["prove"]`` is the
    total wall-clock spent with the prover on the stack — nested
    re-entries are not double-counted.
    """

    __slots__ = ("stats", "_depths")

    def __init__(self, stats: EngineStats) -> None:
        self.stats = stats
        self._depths: Dict[str, int] = {}

    def enter(self, stage: str) -> int:
        """Open a bracket; returns a start stamp (0 when nested)."""
        depths = self._depths
        depth = depths.get(stage, 0)
        depths[stage] = depth + 1
        return perf_counter_ns() if depth == 0 else 0

    def exit(self, stage: str, started: int) -> None:
        """Close a bracket opened by :meth:`enter`."""
        self._depths[stage] -= 1
        if started:
            stage_ns = self.stats.stage_ns
            stage_ns[stage] = (
                stage_ns.get(stage, 0) + perf_counter_ns() - started
            )


class Logic:
    """The proof, subtyping and environment-extension judgments."""

    def __init__(
        self,
        registry: Optional[TheoryRegistry] = None,
        use_representatives: bool = True,
        max_depth: int = 64,
        max_splits: int = 5,
        cache_limit: int = 1 << 17,
        session_limit: int = 1 << 12,
        max_steps: int = 200_000,
    ):
        self.registry = registry if registry is not None else default_registry()
        #: section 4.1 "Representative objects"; disabled for the ablation study.
        self.use_representatives = use_representatives
        #: fuel for the proof *search* (case splits, refutations); the
        #: structural walk over propositions costs no fuel.
        self.max_depth = max_depth
        self.max_splits = max_splits
        #: worklist budget per environment extension — the saturation
        #: stage's termination backstop (replaces the old recursion depth).
        self.max_steps = max_steps
        self.stats = EngineStats()
        #: bumped by every :meth:`reset_caches`; long-lived callers
        #: compare it to detect that their derived state is stale.
        self.epoch = 0
        #: bound on each memo table; exceeding it clears the table (the
        #: simplest policy that can never serve a stale entry).
        self._cache_limit = cache_limit
        self._session_limit = session_limit
        # The judgment caches are keyed by (environment fingerprint,
        # stable intern id(s) of the goal terms): ids hash and compare
        # at C speed and never outlive the canonical node they denote
        # (ids are drawn from a monotone counter and never reused, so
        # after an intern-table clear an id-keyed entry can only miss,
        # never answer for a different value).
        self._prove_cache: Dict[Tuple[EnvKey, int], bool] = {}
        self._subtype_cache: Dict[Tuple[EnvKey, int, int], Tuple[bool, int]] = {}
        self._lookup_cache: Dict[
            Tuple[EnvKey, int], Tuple[Optional[Type], int]
        ] = {}
        #: ``obj ∈ ty`` (by intern ids) → derived theory atoms;
        #: environment-independent once the object is canonical, so
        #: shared across all queries.
        self._numeric_cache: Dict[Tuple[int, int], Tuple[TheoryProp, ...]] = {}
        self._sessions: Dict[EnvKey, RegistrySession] = {}
        #: optional per-stage wall-clock accounting; ``None`` (the
        #: default) keeps the hot path timer-free.
        self.timers: Optional[StageTimers] = None
        #: optional cross-run verdict store (attached by the batch layer)
        self._persist = None
        #: active request budget (deadline / cancellation token); the
        #: kernel stages read it directly, the solver cores read the
        #: thread-local mirror set by :meth:`budgeted`.
        self.budget: Optional[Budget] = None
        # the layered kernel (normalize → saturate → dispatch → prove)
        self.kernel = ProofKernel(self)
        self.saturator = Saturator(self)
        self.dispatch = TheoryDispatch(self)

    # ------------------------------------------------------------------
    # cache lifecycle
    # ------------------------------------------------------------------
    def reset_caches(self, epoch: Optional[int] = None) -> None:
        """Drop every memoised judgment and invalidate theory sessions.

        Sessions already handed out (``theory_session`` results held by
        callers) are invalidated too: clearing :attr:`_sessions` means
        they will never be served again, and their memo tables are
        cleared so a stale answer cannot leak through a retained
        reference.  An attached persistent cache is flushed and its
        in-memory view dropped, so a reset engine re-reads only what is
        actually on disk.

        ``epoch`` lets a coordinator (the multi-lane daemon) drive a
        *fleet* of engines to one shared epoch: the engine's epoch
        still advances by at least one, but never lands below the
        target, so lane engines that missed intermediate resets
        converge in a single call.
        """
        self.epoch += 1
        if epoch is not None and epoch > self.epoch:
            self.epoch = epoch
        self._prove_cache.clear()
        self._subtype_cache.clear()
        self._lookup_cache.clear()
        self._numeric_cache.clear()
        for session in self._sessions.values():
            session.invalidate()  # a retained handle recomputes, never replays
        self._sessions.clear()
        if self._persist is not None:
            self._persist.flush()
            self._persist.drop_memory()

    def config_key(self) -> str:
        """The persistent-cache namespace of this engine configuration.

        Covers everything that can influence a verdict: the Logic
        subclass (an injected-bug engine must never poison the sound
        namespace), the search/saturation bounds, representative mode,
        and each registered theory's own parameters
        (:meth:`~repro.theories.base.Theory.config_key`).
        """
        theories = ",".join(theory.config_key() for theory in self.registry.theories)
        return (
            f"{type(self).__module__}.{type(self).__qualname__}"
            f"|reps={int(self.use_representatives)}"
            f"|depth={self.max_depth}|splits={self.max_splits}"
            f"|steps={self.max_steps}|theories={theories}"
        )

    @contextmanager
    def budgeted(self, budget: Optional[Budget]):
        """Run a block under a request budget (deadline / cancellation).

        Installs ``budget`` both on the façade (for the kernel stages)
        and in the thread-local slot the solver cores consult, binds it
        to this engine's ``rule_hits`` so aborts are counted, and
        restores the previous budget on exit.  A :class:`CancelledError`
        raised inside the block unwinds through exception-safe paths
        only (see :mod:`repro.budget`), so the engine stays warm and
        consistent — callers turn the exception into a structured,
        retryable error and keep serving.
        """
        if budget is None:
            yield None
            return
        previous = self.budget
        budget.bind_stats(self.stats.rule_hits)
        self.budget = budget
        try:
            with activate_budget(budget):
                yield budget
        finally:
            self.budget = previous

    def enable_stage_timers(self) -> StageTimers:
        """Attach per-stage wall-clock timers (``EngineStats.stage_ns``).

        Idempotent; returns the attached :class:`StageTimers`.  Only
        profiling entry points (``repro profile``, ``fuzz --profile``)
        call this — a timer-free engine pays one ``is None`` test per
        stage.
        """
        if self.timers is None:
            self.timers = StageTimers(self.stats)
        return self.timers

    def attach_persistent_cache(self, cache) -> None:
        """Attach a cross-run proof cache (see :mod:`repro.batch.cache`).

        Only top-level ``proves`` verdicts go through it; they are
        content-addressed by (Γ digest, goal digest), so a hit returns
        exactly what the search would recompute.
        """
        self._persist = cache
        bind = getattr(cache, "bind_stats", None)
        if bind is not None:
            # corruption-recovery events show up in rule_hits
            # (``cache.shard-skipped``) next to the kernel's counters
            bind(self.stats.rule_hits)

    def detach_persistent_cache(self):
        cache, self._persist = self._persist, None
        return cache

    # ==================================================================
    # environment extension (proposition assimilation)
    # ==================================================================
    def extend(self, env: Env, prop: Prop) -> Env:
        """Return a new environment assuming ``prop`` (Γ, ψ)."""
        return self.saturator.extend(env, prop)

    # ==================================================================
    # the proof judgment Γ ⊢ ψ
    # ==================================================================
    def proves(self, env: Env, goal: Prop) -> bool:
        """Γ ⊢ ψ, memoised.

        Top-level queries always run with full fuel, so the cached
        answer is exactly what the search would recompute; the key pairs
        the environment's structural fingerprint with the goal, which
        makes invalidation automatic — extending Γ yields a different
        fingerprint, never a stale hit.
        """
        self.stats.prove_calls += 1
        key = (env.fingerprint(), goal._iid)
        cached = self._prove_cache.get(key)
        if cached is not None:
            self.stats.prove_hits += 1
            return cached
        timers = self.timers
        if timers is not None:
            started = timers.enter("prove")
            try:
                return self._proves_miss(env, goal, key)
            finally:
                timers.exit("prove", started)
        return self._proves_miss(env, goal, key)

    def _proves_miss(self, env: Env, goal: Prop, key) -> bool:
        persist_key = None
        if self._persist is not None:
            persist_key = self._persist.prove_key(env, goal)
            stored = self._persist.get_prove(persist_key)
            if stored is not None:
                self.stats.persist_hits += 1
                if len(self._prove_cache) >= self._cache_limit:
                    self._prove_cache.clear()
                self._prove_cache[key] = stored
                return stored
            self.stats.persist_misses += 1
        result = self.kernel.prove(env, goal, 0)
        if len(self._prove_cache) >= self._cache_limit:
            self._prove_cache.clear()
        self._prove_cache[key] = result
        if persist_key is not None:
            self._persist.put_prove(persist_key, result)
        return result

    # ==================================================================
    # lookups (used by the checker for variable references)
    # ==================================================================
    def _lookup(self, env: Env, obj: Obj, depth: int) -> Optional[Type]:
        return self.kernel._lookup(env, obj, depth)

    # ==================================================================
    # subtyping (Figure 5) and result subtyping (SR-Result, SR-Exists)
    # ==================================================================
    def subtype(self, env: Env, sub: Type, sup: Type) -> bool:
        return self.kernel._subtype(env, sub, sup, 0)

    def result_subtype(self, env: Env, sub: TypeResult, sup: TypeResult) -> bool:
        return self.kernel._result_subtype(env, sub, sup, 0)

    # ==================================================================
    # theory sessions and the projection [[Γ]]_T
    # ==================================================================
    def theory_session(self, env: Env) -> RegistrySession:
        """The incremental theory session holding ``[[Γ]]_T``.

        One session is kept per environment state.  On a miss a fresh
        session is built and ``[[Γ]]_T`` is asserted into it; the
        environments ``env`` was extended from play no part.
        """
        key = env.fingerprint()
        session = self._sessions.get(key)
        if session is not None:
            self.stats.session_hits += 1
            return session
        timers = self.timers
        if timers is None:
            return self._session_miss(env, key)
        started = timers.enter("session")
        try:
            return self._session_miss(env, key)
        finally:
            timers.exit("session", started)

    def _session_miss(self, env: Env, key: EnvKey) -> RegistrySession:
        session = self.registry.session(
            self.stats.theory_queries, self.stats.solver_counters
        )
        session.assert_all(self.theory_assumptions(env))
        self.stats.session_builds += 1
        if len(self._sessions) >= self._session_limit:
            self._sessions.clear()
        self._sessions[key] = session
        return session

    def theory_assumptions(self, env: Env) -> List[Prop]:
        if env._theory_cache is not None:
            return env._theory_cache
        facts: List[Prop] = []
        seen: set = set()
        canon = self.kernel._canon

        def push(prop: Prop) -> None:
            if isinstance(prop, TheoryProp) and prop not in seen:
                seen.add(prop)
                facts.append(prop)

        for fact in env.theory_facts:
            push(self.kernel._canon_theory(env, fact))
        for obj, ty in env.types.items():
            canonical = canon(env, obj)
            key = (canonical._iid, ty._iid)
            derived = self._numeric_cache.get(key)
            if derived is None:
                derived = tuple(self._numeric_facts(canonical, ty, 0))
                if len(self._numeric_cache) >= self._cache_limit:
                    self._numeric_cache.clear()
                self._numeric_cache[key] = derived
            for fact in derived:
                push(fact)
        if not self.use_representatives:
            # Without representative substitution, alias classes are
            # exported to the theories as explicit equations.
            for members in env.aliases.classes():
                rep = env.aliases.find(members[0])
                for member in members:
                    if member == rep:
                        continue
                    if isinstance(member, PairObj) or isinstance(rep, PairObj):
                        continue
                    for atom in _theory_atoms(lin_eq(member, rep)):
                        push(atom)
        env._theory_cache = facts
        return facts

    def _numeric_facts(self, obj: Obj, ty: Type, depth: int) -> Iterator[TheoryProp]:
        """Theory atoms implied by ``obj ∈ ty`` (recursing into structure)."""
        if depth > 12 or obj.is_null():
            return
        if isinstance(ty, Refine):
            yield from _theory_atoms(prop_subst(ty.prop, {ty.var: obj}))
            yield from self._numeric_facts(obj, ty.base, depth + 1)
        elif isinstance(ty, Pair):
            yield from self._numeric_facts(obj_field(FST, obj), ty.fst, depth + 1)
            yield from self._numeric_facts(obj_field(SND, obj), ty.snd, depth + 1)
        elif isinstance(ty, (Vec, StrT)):
            fact = lin_le(obj_int(0), obj_field(LEN, obj))
            if isinstance(fact, TheoryProp):
                yield fact


def _theory_atoms(prop: Prop) -> Iterator[TheoryProp]:
    """The theory atoms in the positive conjunctive fragment of ``prop``."""
    if isinstance(prop, TheoryProp):
        yield prop
    elif isinstance(prop, And):
        for conjunct in prop.conjuncts:
            yield from _theory_atoms(conjunct)
