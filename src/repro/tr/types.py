"""The λRTR type grammar (Figure 2), extended as section 4 requires.

Beyond the model's grammar we include the extensions the paper's
implementation (RTR) needed for its examples and case study:

* n-ary dependent function types (the model is unary only to simplify
  the presentation),
* vector types with a ``len`` field,
* a ``Void`` type for effectful primitives such as ``vec-set!``,
* ``Str`` for error messages,
* prenex polymorphism (``∀ {A} ...``) with type variables, checked via
  local type inference (section 4.3).

Derived types from the paper: ``Bool = (U True False)``, the bottom
type ``⊥ = (U)``, ``Nat = {x:Int | 0 ≤ x}`` and ``Byte = {b:Int |
0 ≤ b ≤ 255}`` (built in :mod:`repro.checker.prims`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Tuple

from .intern import InternedValue, interned
from .objects import FST, LEN, SND

if TYPE_CHECKING:  # pragma: no cover - import cycle broken via annotations
    from .props import Prop
    from .results import TypeResult

__all__ = [
    "Type",
    "Top",
    "Int",
    "TrueT",
    "FalseT",
    "Str",
    "Void",
    "Pair",
    "Vec",
    "Union",
    "Fun",
    "Refine",
    "TVar",
    "Poly",
    "TOP",
    "INT",
    "TRUE",
    "FALSE",
    "STR",
    "VOID",
    "BOOL",
    "BOT",
    "make_union",
    "union_members",
    "field_component",
]


class Type(InternedValue):
    """Base class of all λRTR types.

    ``_hash``/``_iid`` are stamped at construction; ``_repr`` and
    ``_digest`` cache the printed form and content digest on first
    demand (:mod:`repro.tr.intern`).
    """

    __slots__ = ("_hash", "_iid", "_repr", "_digest", "_fvs")


@interned
class Top(Type):
    """⊤, the type of all well-typed terms (``Any`` in Typed Racket)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Any"


@interned
class Int(Type):
    """The type of (arbitrary precision) integers."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Int"


@interned
class TrueT(Type):
    """The singleton type of ``#t``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "True"


@interned
class FalseT(Type):
    """The singleton type of ``#f``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "False"


@interned
class Str(Type):
    """The type of strings (used for error messages)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Str"


@interned
class Void(Type):
    """The unit type returned by effectful operations."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Void"


@interned
class Pair(Type):
    """``τ × σ`` — the type of ``(cons τ σ)`` values."""

    __slots__ = ("fst", "snd")
    fst: Type
    snd: Type

    def __repr__(self) -> str:
        return f"(Pairof {self.fst!r} {self.snd!r})"


@interned
class Vec(Type):
    """``(Vecof τ)`` — mutable vectors, hence invariant in ``τ``."""

    __slots__ = ("elem",)
    elem: Type

    def __repr__(self) -> str:
        return f"(Vecof {self.elem!r})"


@interned
class Union(Type):
    """A true (untagged) ad-hoc union ``(U τ ...)``.

    The empty union is the uninhabited bottom type ⊥.  Members are kept
    flat (no nested unions) and duplicate-free; use :func:`make_union`
    to construct unions in this normal form.
    """

    __slots__ = ("members",)
    members: Tuple[Type, ...]

    def __repr__(self) -> str:
        if not self.members:
            return "Bot"
        if self == BOOL:
            return "Bool"
        return "(U " + " ".join(repr(m) for m in self.members) + ")"


@interned
class Fun(Type):
    """An n-ary dependent function type ``([x:τ] ... -> R)``.

    Argument names are in scope in later argument types and in the
    range type-result, which is how the paper expresses dependencies
    between domain and range (e.g. Figure 1's ``max``).
    """

    __slots__ = ("args", "result")
    args: Tuple[Tuple[str, Type], ...]
    result: "TypeResult"

    def __repr__(self) -> str:
        doms = " ".join(f"[{name} : {ty!r}]" for name, ty in self.args)
        return f"({doms} -> {self.result!r})"

    @property
    def arity(self) -> int:
        return len(self.args)

    def arg_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.args)

    def arg_types(self) -> Tuple[Type, ...]:
        return tuple(ty for _, ty in self.args)


@interned
class Refine(Type):
    """``{x:τ | ψ}`` — the values of ``τ`` satisfying ``ψ``."""

    __slots__ = ("var", "base", "prop")
    var: str
    base: Type
    prop: "Prop"

    def __repr__(self) -> str:
        return f"{{{self.var} : {self.base!r} | {self.prop!r}}}"


@interned
class TVar(Type):
    """A type variable bound by an enclosing :class:`Poly`."""

    __slots__ = ("name",)
    name: str

    def __repr__(self) -> str:
        return self.name


@interned
class Poly(Type):
    """A prenex-polymorphic type ``(∀ {A ...} fun-type)``."""

    __slots__ = ("tvars", "body")
    tvars: Tuple[str, ...]
    body: Type

    def __repr__(self) -> str:
        return "(All (" + " ".join(self.tvars) + f") {self.body!r})"


TOP = Top()
INT = Int()
TRUE = TrueT()
FALSE = FalseT()
STR = Str()
VOID = Void()


def union_members(ty: Type) -> Tuple[Type, ...]:
    """The members of ``ty`` viewed as a union (itself if not a union)."""
    if isinstance(ty, Union):
        return ty.members
    return (ty,)


def make_union(members: Iterable[Type]) -> Type:
    """Build ``(U members...)`` in flat, duplicate-free normal form.

    A single-member union collapses to that member; if ⊤ appears the
    union is ⊤.
    """
    flat: list = []
    for member in members:
        for part in union_members(member):
            if isinstance(part, Top):
                return TOP
            if part not in flat:
                flat.append(part)
    if len(flat) == 1:
        return flat[0]
    return Union(tuple(flat))


def field_component(ty: Type, field: str) -> Optional[Type]:
    """The type of ``(field o)`` given ``o``'s type, if determined.

    ``fst``/``snd`` of a pair (through refinements and unions whose
    every member is a pair), and ``len`` of a vector or string.
    """
    if isinstance(ty, Refine):
        return field_component(ty.base, field)
    if isinstance(ty, Union):
        parts = [field_component(m, field) for m in ty.members]
        if all(p is not None for p in parts) and parts:
            return make_union(parts)  # type: ignore[arg-type]
        return None
    if isinstance(ty, Pair):
        if field == FST:
            return ty.fst
        if field == SND:
            return ty.snd
    if isinstance(ty, (Vec, Str)) and field == LEN:
        return INT
    return None


BOOL = Union((TRUE, FALSE))
BOT = Union(())
