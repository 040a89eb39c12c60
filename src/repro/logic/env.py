"""Hybrid type environments (section 4.1).

The model treats Γ as a bag of propositions; "in a real implementation
it is useful to separate the environment into two portions: a
traditional mapping of variables to types along with a set of currently
known propositions".  :class:`Env` is exactly that split:

* ``types``   — positive type information per symbolic object,
  iteratively refined with the ``update`` metafunction;
* ``negs``    — negative type information per object;
* ``theory_facts`` — atomic theory propositions (``[[Γ]]_T``);
* ``compounds``    — disjunctions awaiting case splits;
* ``aliases`` — the object-equivalence classes, collapsed onto
  representative members (section 4.1, "Representative objects").

Environments are persistent: :meth:`snapshot` copies are taken before
extension so branches of a conditional reason independently.
Assimilation of new propositions (the logic of L-Update±, L-RefE,
L-ObjFork, L-TypeFork) lives in :mod:`repro.logic.prove`, which drives
these containers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..tr.intern import node_id
from ..tr.objects import (
    BVExpr,
    FieldRef,
    LinExpr,
    NULL,
    Obj,
    PairObj,
    Var,
    lin_add,
    lin_scale,
    obj_field,
    obj_int,
)
from ..tr.props import Prop, TheoryProp
from ..tr.types import Type
from .alias import AliasClasses

__all__ = ["Env", "EnvKey", "split_path"]


def split_path(obj: Obj) -> Tuple[Obj, Tuple[str, ...]]:
    """Unwind a field-reference chain: ``(fst (snd x))`` ↦ (x, (snd, fst)).

    The returned path is root-outward, matching
    :func:`repro.logic.update.update`.
    """
    path: List[str] = []
    current = obj
    while isinstance(current, FieldRef):
        path.append(current.field)
        current = current.base
    path.reverse()
    return current, tuple(path)


class EnvKey:
    """An environment fingerprint: exact content, O(1) to hash/compare.

    Captures the environment's per-category id sets (frozen from the
    moment of capture by the environment's copy-on-write discipline)
    together with a hash derived from incrementally-maintained
    accumulators, so taking and probing a fingerprint is O(1).  The
    sets are compared only on hash collision, which keeps cache answers
    *exact* (structural, never probabilistic).
    """

    __slots__ = (
        "_hash",
        "inconsistent",
        "types",
        "negs",
        "facts",
        "compounds",
        "alias_key",
    )

    def __init__(
        self,
        inconsistent: bool,
        types: set,
        negs: set,
        facts: set,
        compounds: set,
        alias_key,
        hash_value: int,
    ) -> None:
        self.inconsistent = inconsistent
        self.types = types
        self.negs = negs
        self.facts = facts
        self.compounds = compounds
        self.alias_key = alias_key
        self._hash = hash_value

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, EnvKey):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.inconsistent == other.inconsistent
            and self.alias_key == other.alias_key
            and self.types == other.types
            and self.negs == other.negs
            and self.facts == other.facts
            and self.compounds == other.compounds
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EnvKey(0x{self._hash & 0xFFFFFFFF:08x})"


class Env:
    """A hybrid environment; extended via ``Logic.extend`` only."""

    __slots__ = (
        "types",
        "negs",
        "theory_facts",
        "compounds",
        "aliases",
        "inconsistent",
        "_fingerprint",
        "_fp_types",
        "_fp_negs",
        "_fp_facts",
        "_fp_compounds",
        "_fph_types",
        "_fph_negs",
        "_fph_facts",
        "_fph_compounds",
        "_fp_owned",
    )

    def __init__(self) -> None:
        self.types: Dict[Obj, Type] = {}
        self.negs: Dict[Obj, Tuple[Type, ...]] = {}
        self.theory_facts: List[TheoryProp] = []
        self.compounds: List[Prop] = []
        self.aliases = AliasClasses()
        self.inconsistent = False
        self._fingerprint: Optional[EnvKey] = None
        # Fingerprint components, maintained *incrementally* by the
        # record-keeping methods below: each is a set of stable intern
        # ids mirroring the corresponding container, paired with an
        # XOR-fold hash accumulator so taking a fingerprint is O(1).
        # The sets are shared copy-on-write by snapshots *and* by
        # issued fingerprints (an EnvKey captures them by reference, so
        # a later mutation must copy first).
        self._fp_types: set = set()
        self._fp_negs: set = set()
        self._fp_facts: set = set()
        self._fp_compounds: set = set()
        self._fph_types = 0
        self._fph_negs = 0
        self._fph_facts = 0
        self._fph_compounds = 0
        self._fp_owned = True

    def snapshot(self) -> "Env":
        dup = Env.__new__(Env)
        dup.types = dict(self.types)
        dup.negs = dict(self.negs)
        dup.theory_facts = list(self.theory_facts)
        dup.compounds = list(self.compounds)
        dup.aliases = self.aliases.copy()
        dup.inconsistent = self.inconsistent
        # Identical content: the fingerprint and its components carry
        # over; the id sets are shared copy-on-write (neither side may
        # mutate them in place until it owns a private copy).
        dup._fingerprint = self._fingerprint
        dup._fp_types = self._fp_types
        dup._fp_negs = self._fp_negs
        dup._fp_facts = self._fp_facts
        dup._fp_compounds = self._fp_compounds
        dup._fph_types = self._fph_types
        dup._fph_negs = self._fph_negs
        dup._fph_facts = self._fph_facts
        dup._fph_compounds = self._fph_compounds
        self._fp_owned = False
        dup._fp_owned = False
        return dup

    def _own_fp(self) -> None:
        """Take private ownership of the fingerprint id sets (COW)."""
        if not self._fp_owned:
            self._fp_types = set(self._fp_types)
            self._fp_negs = set(self._fp_negs)
            self._fp_facts = set(self._fp_facts)
            self._fp_compounds = set(self._fp_compounds)
            self._fp_owned = True

    # ------------------------------------------------------------------
    # fingerprinting (the incremental engine's cache key)
    # ------------------------------------------------------------------
    def fingerprint(self) -> EnvKey:
        """The exact structural key of this environment's contents.

        Assembled from the incrementally-maintained id sets and their
        XOR-fold hash accumulators, so taking a fingerprint is O(1) —
        no frozenset is built and nothing is re-hashed.  The issued
        :class:`EnvKey` captures the id sets by reference and marks
        them unowned: the next mutation copies them first, so the key
        is immutable from the moment it is handed out.  Equal
        fingerprints guarantee equal contents, so query caches keyed on
        them can never serve a stale answer: learning any new fact
        yields a different key.
        """
        fp = self._fingerprint
        if fp is None:
            alias_key = self.aliases.state_key()
            fp = EnvKey(
                self.inconsistent,
                self._fp_types,
                self._fp_negs,
                self._fp_facts,
                self._fp_compounds,
                alias_key,
                hash(
                    (
                        self.inconsistent,
                        self._fph_types,
                        self._fph_negs,
                        self._fph_facts,
                        self._fph_compounds,
                        alias_key,
                    )
                ),
            )
            self._fingerprint = fp
            self._fp_owned = False  # the key now aliases the id sets
        return fp

    # ------------------------------------------------------------------
    # canonicalisation through alias representatives
    # ------------------------------------------------------------------
    def canon_obj(self, obj: Obj) -> Obj:
        """Rewrite ``obj`` onto alias-class representatives, recursively.

        Memoised against the alias structure (the only state the
        rewrite reads): the memo is shared across snapshots and dropped
        by :class:`AliasClasses` the moment a class merge changes the
        representative map.
        """
        if not self.aliases._parent:
            return obj  # no aliases: every object is its own rep
        cache = self.aliases._canon_cache
        hit = cache.get(obj)
        if hit is None:
            hit = self._canon_obj(obj)
            cache[obj] = hit
        return hit

    def _canon_obj(self, obj: Obj) -> Obj:
        if obj.is_null():
            return NULL
        if isinstance(obj, Var):
            return self.aliases.find(obj)
        if isinstance(obj, FieldRef):
            base = self.canon_obj(obj.base)
            return self.aliases.find(obj_field(base=base, field=obj.field))
        if isinstance(obj, PairObj):
            fst = self.canon_obj(obj.fst)
            snd = self.canon_obj(obj.snd)
            return self.aliases.find(PairObj(fst, snd))
        if isinstance(obj, LinExpr):
            acc: Obj = obj_int(obj.const)
            for atom, coeff in obj.terms:
                canon_atom = self.canon_obj(atom)
                if canon_atom.is_null():
                    return NULL
                acc = lin_add(acc, lin_scale(coeff, canon_atom))
            return self.aliases.find(acc)
        if isinstance(obj, BVExpr):
            args = tuple(
                self.canon_obj(a) if isinstance(a, Obj) else a for a in obj.args
            )
            return self.aliases.find(BVExpr(obj.op, args, obj.width))
        return self.aliases.find(obj)

    # ------------------------------------------------------------------
    # raw record-keeping (Logic decides what to record)
    # ------------------------------------------------------------------
    def set_type(self, obj: Obj, ty: Type) -> None:
        old = self.types.get(obj)
        if old is ty or old == ty:
            self.types[obj] = ty
            return
        self.types[obj] = ty
        self._own_fp()
        fp = self._fp_types
        if old is not None:
            stale = (node_id(obj), node_id(old))
            if stale in fp:
                fp.discard(stale)
                self._fph_types ^= hash(stale)
        pair = (node_id(obj), node_id(ty))
        if pair not in fp:
            fp.add(pair)
            self._fph_types ^= hash(pair)
        self._fingerprint = None

    def add_neg(self, obj: Obj, ty: Type) -> None:
        existing = self.negs.get(obj, ())
        if ty in existing:
            return
        self.negs[obj] = existing + (ty,)
        self._own_fp()
        pair = (node_id(obj), node_id(ty))
        if pair not in self._fp_negs:
            self._fp_negs.add(pair)
            self._fph_negs ^= hash(pair)
        self._fingerprint = None

    def add_theory_fact(self, fact: TheoryProp) -> None:
        if fact not in self.theory_facts:
            self.theory_facts.append(fact)
            self._own_fp()
            fact_id = node_id(fact)
            if fact_id not in self._fp_facts:
                self._fp_facts.add(fact_id)
                self._fph_facts ^= hash(fact_id)
            self._fingerprint = None

    def add_compound(self, prop: Prop) -> None:
        if prop not in self.compounds:
            self.compounds.append(prop)
            self._own_fp()
            prop_id = node_id(prop)
            if prop_id not in self._fp_compounds:
                self._fp_compounds.add(prop_id)
                self._fph_compounds ^= hash(prop_id)
            self._fingerprint = None

    def drop_compound(self, index: int) -> None:
        """Remove a stored disjunction (used while case-splitting)."""
        prop = self.compounds.pop(index)
        self._own_fp()
        prop_id = node_id(prop)
        if prop_id in self._fp_compounds:
            self._fp_compounds.discard(prop_id)
            self._fph_compounds ^= hash(prop_id)
        self._fingerprint = None

    def mark_inconsistent(self) -> None:
        self.inconsistent = True
        self._fingerprint = None

    def merge_alias_with_changes(self, left: Obj, right: Obj) -> Tuple[Obj, Tuple[Obj, ...]]:
        """Merge two alias classes; also report re-canonicalisation work.

        Returns ``(representative, changed_members)`` where
        ``changed_members`` lists the objects whose representative is
        different after the merge (see
        :meth:`AliasClasses.union_with_changes`).
        """
        self._fingerprint = None
        return self.aliases.union_with_changes(left, right)

    def reset_records(self) -> None:
        """Drop type/negative/theory records before re-canonicalisation."""
        self.types = {}
        self.negs = {}
        self.theory_facts = []
        self._own_fp()
        self._fp_types.clear()
        self._fp_negs.clear()
        self._fp_facts.clear()
        self._fph_types = 0
        self._fph_negs = 0
        self._fph_facts = 0
        self._fingerprint = None

    def var_type(self, name: str) -> Optional[Type]:
        return self.types.get(Var(name))
