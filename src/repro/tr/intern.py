"""Interning (hash-consing) support for the ``tr`` value layer.

Propositions, types and symbolic objects are immutable trees that the
proof engine compares, hashes and fingerprints constantly: every
environment key, proof-cache key and theory-session key is built from
them.  The original representation — frozen dataclasses with *lazily*
cached hashes — made every cold probe pay a Python-level ``__hash__``
(guarded by an ``AttributeError``), every deep value a priming walk,
and every content digest a memo-dict lookup.  Profiling the checker on
the fuzz corpus showed those frames (the hash-priming walk, the lazy
``__hash__``/``__eq__`` wrappers, ``dataclasses.fields`` walks and the
digest memo) dominating the hot path.

This module replaces that machinery with true interning:

* :func:`interned` — a class decorator for ``__slots__`` value classes
  that generates a per-class ``__new__`` performing hash-consing.  On
  a table hit the canonical instance comes back from one dict probe;
  on a miss the node is built **once**, with its structural hash and
  stable intern id computed at construction.  ``hash()`` is a slot
  read, equality is almost always an identity check, and there is no
  lazy-initialisation exception path left anywhere.
* :func:`node_id` — the stable id, now just the ``_iid`` slot stamped
  at construction.  Ids are drawn from a monotone counter and never
  reused, so ``node_id(a) == node_id(b)`` implies ``a == b`` (the
  property cache keys rely on); the converse holds except across an
  intern-table clear, which cache keys must not (and do not) assume.
* :func:`node_digest` — the cross-process content digest, cached in a
  ``_digest`` slot on the node itself (no memo dict): one attribute
  read per probe after the first, computed by an explicit post-order
  walk so deep values cost O(1) Python stack.

The intern tables keep one canonical instance per structural value for
as long as the process runs — this is what lets proof caches hit
across whole re-checks of a program.  The tables are bounded: when the
total number of live entries outgrows :data:`INTERN_LIMIT` they are
cleared, after which later constructions simply build fresh nodes with
fresh ids.  Callers may only rely on ``node_id(a) == node_id(b)``
implying ``a == b``, never on the converse, which is exactly what
cache keys need.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Any, Dict, List

__all__ = [
    "InternedValue",
    "interned",
    "node_id",
    "node_digest",
    "intern_stats",
    "reset_intern_stats",
    "register_clear_hook",
    "INTERN_LIMIT",
]

#: entries retained (across all classes) before the intern tables are
#: dropped and restarted
INTERN_LIMIT = 1 << 20

#: interning counters, surfaced through the engine stats report
_stats: Dict[str, int] = {"nodes": 0, "shared": 0}

#: every per-class intern table, for the global bound
_tables: List[Dict[Any, Any]] = []
_live = [0]  # total entries across _tables

# Intern ids are allocated by a single C-level call (``next`` on an
# ``itertools.count``), which CPython executes atomically under the
# GIL.  Callers may construct values from several threads at once; a
# Python-level read-modify-write here could stamp the same
# id on two *different* values, and every id-keyed judgment cache would
# then be unsound.  The other construction races are benign: two
# threads interning the same value concurrently may build two canonical
# instances (last table write wins), but they carry distinct ids and
# compare structurally equal, so caches can only miss, never lie.
_next_id = itertools.count(1).__next__


class InternedValue:
    """Marker base of every interned value class.

    Declares no slots of its own; the value-layer base classes
    (``Obj``, ``Prop``, ``Type``, ``TypeResult``) declare the four
    cache slots::

        __slots__ = ("_hash", "_iid", "_repr", "_digest")

    ``_hash`` and ``_iid`` are stamped at construction; ``_repr`` and
    ``_digest`` are filled on first demand (their cost is proportional
    to output size, and most nodes never need either).
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            f"{type(self).__name__} is immutable (interned value)"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"{type(self).__name__} is immutable (interned value)"
        )


#: callbacks run whenever the intern tables are dropped — caches keyed
#: by intern ids (or holding canonical instances) register here so they
#: never outlive the table generation that produced their entries
_clear_hooks: List[Any] = []


def register_clear_hook(fn) -> None:
    """Run ``fn()`` whenever the intern tables are cleared."""
    _clear_hooks.append(fn)


def _clear_tables() -> None:
    for table in _tables:
        table.clear()
    _live[0] = 0
    for hook in _clear_hooks:
        hook()


def interned(cls):
    """Generate hash-consing ``__new__``/``__hash__``/``__eq__`` for ``cls``.

    ``cls`` must inherit :class:`InternedValue` (via one of the value-
    layer bases) and declare its payload fields — and nothing else — in
    its own ``__slots__``.  The decorator generates, specialised to the
    exact field list (the same trick :mod:`dataclasses` uses):

    * ``__new__`` — probes the per-class intern table and returns the
      canonical instance on a hit; on a miss builds the node with
      ``_hash`` (salted per class) and ``_iid`` computed up front;
    * ``__hash__`` — one slot read;
    * ``__eq__`` — identity, then class, then field-wise comparison
      (the structural fallback only matters across intern-table
      clears and pickle boundaries mid-construction);
    * ``__reduce__`` — pickles as ``(cls, fields)`` so unpickling runs
      back through the interning constructor: a round-tripped node is
      *identical* to the local canonical instance, in any process;
    * a caching wrapper over the class's own ``__repr__`` (reprs are
      used as canonical sort keys by the linear forms, so they are
      cached, but never computed up front: a repr's text can double per
      level on values with shared subtrees).

    A class may define ``_validate`` (a ``staticmethod`` taking the
    field values) to reject malformed nodes; it runs only on table
    misses — an interned value was already validated.  Trailing fields
    may carry default values via a ``_field_defaults`` class attribute
    (a mapping from field name to default).
    """
    fields = tuple(cls.__slots__)
    table: Dict[Any, Any] = {}
    _tables.append(table)
    salt = hash((cls.__module__, cls.__qualname__))
    validate = cls.__dict__.get("_validate")
    defaults = cls.__dict__.get("_field_defaults", {})
    if defaults:
        tail = fields[len(fields) - len(defaults):]
        if set(defaults) != set(tail):
            raise TypeError(
                f"{cls.__name__}: defaulted fields must be trailing"
            )

    args = ", ".join(fields)
    sig_args = ", ".join(
        f"{name}=_dflt_{name}" if name in defaults else name
        for name in fields
    )
    key_expr = (
        "()" if not fields else fields[0] if len(fields) == 1 else f"({args})"
    )
    field_tuple = (
        "()" if not fields else f"(self.{fields[0]},)" if len(fields) == 1
        else "(" + ", ".join(f"self.{name}" for name in fields) + ")"
    )
    lines = [
        f"def __new__(cls, {sig_args}):" if fields else "def __new__(cls):",
        f"    key = {key_expr}",
        "    self = _get(key)",
        "    if self is not None:",
        "        _stats['shared'] += 1",
        "        return self",
        "    if _live[0] >= INTERN_LIMIT:",
        "        _clear()",
    ]
    if validate is not None:
        lines.append(f"    _validate({args})")
    lines.append("    self = _new(_cls)")
    for name in fields:
        lines.append(f"    _set(self, {name!r}, {name})")
    lines += [
        "    _set(self, '_hash', hash(key) ^ _salt)",
        "    _set(self, '_iid', _next_id())",
        "    _table[key] = self",
        "    _live[0] += 1",
        "    _stats['nodes'] += 1",
        "    return self",
        "",
        "def __hash__(self):",
        "    return self._hash",
        "",
        "def __eq__(self, other):",
        "    if self is other:",
        "        return True",
        "    if other.__class__ is not _cls:",
        "        return NotImplemented",
    ]
    if fields:
        cmp = " and ".join(f"self.{f} == other.{f}" for f in fields)
        lines.append(f"    return {cmp}")
    else:
        lines.append("    return True")
    lines += [
        "",
        "def __reduce__(self):",
        f"    return (_cls, {field_tuple})",
    ]
    namespace = {
        "_get": table.get,
        "_table": table,
        "_set": object.__setattr__,
        "_new": object.__new__,
        "_salt": salt,
        "_next_id": _next_id,
        "_live": _live,
        "_stats": _stats,
        "_clear": _clear_tables,
        "_validate": validate.__func__ if validate is not None else None,
        "INTERN_LIMIT": INTERN_LIMIT,
        "_cls": None,  # patched below, after cls is final
    }
    for name, value in defaults.items():
        namespace[f"_dflt_{name}"] = value
    exec("\n".join(lines), namespace)

    struct_repr = cls.__repr__

    def __repr__(self):
        try:
            return self._repr
        except AttributeError:
            rendered = struct_repr(self)
            object.__setattr__(self, "_repr", rendered)
            return rendered

    cls.__new__ = namespace["__new__"]
    cls.__hash__ = namespace["__hash__"]
    cls.__eq__ = namespace["__eq__"]
    cls.__reduce__ = namespace["__reduce__"]
    cls.__repr__ = __repr__
    cls._intern_fields = fields
    namespace["_cls"] = cls
    return cls


def node_id(node: Any) -> int:
    """The stable intern id of ``node``, stamped at construction.

    Structurally equal live nodes share an id (they are the same
    instance); distinct ids always mean distinct values.  One slot
    read — no table probe, ever.
    """
    return node._iid


def node_digest(node: Any) -> str:
    """A stable, cross-process content digest of a structural value.

    Unlike :func:`node_id` — a process-local counter — the digest is a
    pure function of the value's structure, so it can address content
    in *persistent* caches shared between batch workers and across
    runs.  It is computed Merkle-style — each node hashes its class
    name and its fields' digests — by an explicit post-order walk:
    linear in the number of *distinct* nodes and O(1) stack, where
    hashing a serialisation would recurse per level and explode
    exponentially on values with shared subtrees (a ``repr`` of a
    ``PairObj(t, t)`` tower doubles per level).

    The result is cached in the node's ``_digest`` slot, so after the
    first computation a probe is a single attribute read — the memo
    dict (and its per-probe hashing) of the old representation is
    gone.  The digest scheme is byte-identical to the frozen-dataclass
    representation's, so persistent caches written before the
    representation rewrite stay valid (pinned by
    ``tests/test_intern.py``).
    """
    try:
        return node._digest
    except AttributeError:
        pass
    sha256 = hashlib.sha256
    set_ = object.__setattr__
    stack = [(node, False)]
    while stack:
        current, ready = stack.pop()
        if ready:
            parts = [type(current).__name__]
            for name in current._intern_fields:
                parts.append(_child_digest(getattr(current, name)))
            blob = "\x1f".join(parts)
            set_(current, "_digest", sha256(blob.encode()).hexdigest())
            continue
        try:
            current._digest
            continue
        except AttributeError:
            pass
        stack.append((current, True))
        pending = [
            getattr(current, name) for name in current._intern_fields
        ]
        while pending:
            value = pending.pop()
            if isinstance(value, tuple):
                pending.extend(value)
            elif isinstance(value, InternedValue):
                stack.append((value, False))
    return node._digest


def _child_digest(value: Any) -> str:
    """The digest fragment of one field value (children pre-digested)."""
    if isinstance(value, InternedValue):
        return value._digest
    if isinstance(value, tuple):
        return "(" + ",".join(_child_digest(item) for item in value) + ")"
    return repr(value)


def intern_stats() -> Dict[str, int]:
    """Counters: distinct ``nodes`` interned, ``shared`` rediscoveries."""
    return dict(_stats)


def reset_intern_stats() -> None:
    _stats["nodes"] = 0
    _stats["shared"] = 0
