"""Concrete syntax for types, propositions and symbolic objects.

Parses the annotation language used throughout the paper::

    (: max : [x : Int] [y : Int] -> [z : Int #:where (∧ (≥ z x) (≥ z y))])
    (: safe-vec-ref : (∀ {A} [v : (Vecof A)]
                             [i : Int #:where (∧ (≤ 0 i) (< i (len v)))]
                             -> [res : A]))
    (Refine [i : Nat] (≤ i (len ds)))

ASCII aliases are accepted everywhere (``and``/``∧``, ``or``/``∨``,
``<=``/``≤``, ``>=``/``≥``, ``All``/``∀``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..sexp.reader import SExp, Symbol, read
from .objects import FST, LEN, SND, Obj, Var, lin_add, lin_scale, lin_sub, obj_field, obj_int
from .props import (
    FF,
    IsType,
    NotType,
    Prop,
    TT,
    make_congruence,
    lin_eq,
    lin_ge,
    lin_gt,
    lin_le,
    lin_lt,
    make_and,
    make_not,
    make_or,
    negate_prop,
)
from .results import TypeResult, fresh_name, true_result
from .types import (
    BOOL,
    BOT,
    FALSE,
    INT,
    STR,
    TOP,
    TRUE,
    VOID,
    Fun,
    Pair,
    Poly,
    Refine,
    TVar,
    Type,
    Union,
    Vec,
    make_union,
)

__all__ = [
    "TypeSyntaxError",
    "parse_type",
    "parse_type_text",
    "parse_prop",
    "parse_obj",
    "NAT",
    "BYTE",
    "FIXNUM",
    "POS",
    "index_type",
]


class TypeSyntaxError(SyntaxError):
    """Raised on malformed type/prop/object syntax."""


def _nat() -> Type:
    return Refine("n", INT, lin_le(obj_int(0), Var("n")))


def _pos() -> Type:
    return Refine("n", INT, lin_le(obj_int(1), Var("n")))


def _byte() -> Type:
    return Refine(
        "b",
        INT,
        make_and((lin_le(obj_int(0), Var("b")), lin_le(Var("b"), obj_int(255)))),
    )


def _fixnum() -> Type:
    bound = 2**62
    return Refine(
        "fx",
        INT,
        make_and(
            (lin_le(obj_int(-bound), Var("fx")), lin_lt(Var("fx"), obj_int(bound)))
        ),
    )


NAT = _nat()
POS = _pos()
BYTE = _byte()
FIXNUM = _fixnum()


def index_type(vec_name: str, index_var: str = "i") -> Type:
    """``{i : Int | 0 ≤ i ∧ i < (len vec_name)}`` — a valid index."""
    var = Var(index_var)
    length = obj_field(LEN, Var(vec_name))
    return Refine(
        index_var, INT, make_and((lin_le(obj_int(0), var), lin_lt(var, length)))
    )


_BASE_TYPES: Dict[str, Type] = {
    "Int": INT,
    "Integer": INT,
    "Nat": NAT,
    "Natural": NAT,
    "Pos": POS,
    "Byte": BYTE,
    "Fixnum": FIXNUM,
    "Bool": BOOL,
    "Boolean": BOOL,
    "True": TRUE,
    "False": FALSE,
    "Any": TOP,
    "Str": STR,
    "String": STR,
    "Void": VOID,
    "Bot": BOT,
    "Nothing": BOT,
}

_AND = {"∧", "and"}
_OR = {"∨", "or"}
_ALL = {"∀", "All"}
_ARROW = Symbol("->")
_WHERE = Symbol("#:where")
_COLON = Symbol(":")

_CMP_CHAIN = {
    "≤": lin_le,
    "<=": lin_le,
    "<": lin_lt,
    "≥": lin_ge,
    ">=": lin_ge,
    ">": lin_gt,
    "=": lin_eq,
}


# ----------------------------------------------------------------------
# symbolic objects
# ----------------------------------------------------------------------
def parse_obj(sexp: SExp, tvars: FrozenSet[str] = frozenset()) -> Obj:
    """Parse the object sub-language of annotations."""
    if isinstance(sexp, bool):
        raise TypeSyntaxError(f"not an object: {sexp!r}")
    if isinstance(sexp, int):
        return obj_int(sexp)
    if isinstance(sexp, Symbol):
        return Var(sexp.name)
    if isinstance(sexp, list) and sexp:
        head = sexp[0]
        if isinstance(head, Symbol):
            name = head.name
            if name == "len" and len(sexp) == 2:
                return obj_field(LEN, parse_obj(sexp[1], tvars))
            if name in ("fst", "car") and len(sexp) == 2:
                return obj_field(FST, parse_obj(sexp[1], tvars))
            if name in ("snd", "cdr") and len(sexp) == 2:
                return obj_field(SND, parse_obj(sexp[1], tvars))
            if name == "+" and len(sexp) >= 3:
                acc = parse_obj(sexp[1], tvars)
                for arg in sexp[2:]:
                    acc = lin_add(acc, parse_obj(arg, tvars))
                return acc
            if name == "-" and len(sexp) >= 3:
                acc = parse_obj(sexp[1], tvars)
                for arg in sexp[2:]:
                    acc = lin_sub(acc, parse_obj(arg, tvars))
                return acc
            if name == "-" and len(sexp) == 2:
                return lin_scale(-1, parse_obj(sexp[1], tvars))
            if name == "*" and len(sexp) == 3:
                lhs, rhs = sexp[1], sexp[2]
                if isinstance(lhs, int):
                    return lin_scale(lhs, parse_obj(rhs, tvars))
                if isinstance(rhs, int):
                    return lin_scale(rhs, parse_obj(lhs, tvars))
                raise TypeSyntaxError("(* ...) in types needs a literal factor")
    raise TypeSyntaxError(f"not an object: {sexp!r}")


# ----------------------------------------------------------------------
# propositions
# ----------------------------------------------------------------------
def parse_prop(sexp: SExp, tvars: FrozenSet[str] = frozenset()) -> Prop:
    """Parse the proposition sub-language of annotations."""
    if isinstance(sexp, Symbol):
        if sexp.name == "tt":
            return TT
        if sexp.name == "ff":
            return FF
        raise TypeSyntaxError(f"unknown proposition {sexp!r}")
    if not isinstance(sexp, list) or not sexp or not isinstance(sexp[0], Symbol):
        raise TypeSyntaxError(f"bad proposition: {sexp!r}")
    head = sexp[0].name
    if head in _AND:
        return make_and(parse_prop(p, tvars) for p in sexp[1:])
    if head in _OR:
        return make_or(parse_prop(p, tvars) for p in sexp[1:])
    if head == "not" and len(sexp) == 2:
        return negate_prop(parse_prop(sexp[1], tvars))
    if head in _CMP_CHAIN:
        if len(sexp) < 3:
            raise TypeSyntaxError(f"comparison needs two operands: {sexp!r}")
        builder = _CMP_CHAIN[head]
        objs = [parse_obj(arg, tvars) for arg in sexp[1:]]
        return make_and(builder(a, b) for a, b in zip(objs, objs[1:]))
    if head in ("≠", "!="):
        objs = [parse_obj(arg, tvars) for arg in sexp[1:]]
        return negate_prop(lin_eq(objs[0], objs[1]))
    if head in ("is", ":") and len(sexp) == 3:
        return IsType(parse_obj(sexp[1], tvars), parse_type(sexp[2], tvars))
    if head in ("is-not", "!") and len(sexp) == 3:
        return NotType(parse_obj(sexp[1], tvars), parse_type(sexp[2], tvars))
    if head == "even" and len(sexp) == 2:
        return make_congruence(parse_obj(sexp[1], tvars), 2, 0)
    if head == "odd" and len(sexp) == 2:
        return make_congruence(parse_obj(sexp[1], tvars), 2, 1)
    if head == "divisible" and len(sexp) == 3 and isinstance(sexp[2], int):
        _check_modulus(sexp)
        return make_congruence(parse_obj(sexp[1], tvars), sexp[2], 0)
    if (
        head == "congruent"
        and len(sexp) == 4
        and isinstance(sexp[2], int)
        and isinstance(sexp[3], int)
    ):
        _check_modulus(sexp)
        return make_congruence(parse_obj(sexp[1], tvars), sexp[2], sexp[3])
    raise TypeSyntaxError(f"bad proposition: {sexp!r}")


def _check_modulus(sexp: list) -> None:
    if sexp[2] <= 0:
        raise TypeSyntaxError(f"modulus must be positive: {sexp!r}")


# ----------------------------------------------------------------------
# types
# ----------------------------------------------------------------------
def _parse_refine_binder(sexp: SExp, tvars: FrozenSet[str]) -> Tuple[str, Type]:
    if (
        isinstance(sexp, list)
        and len(sexp) == 3
        and isinstance(sexp[0], Symbol)
        and sexp[1] == _COLON
    ):
        return sexp[0].name, parse_type(sexp[2], tvars)
    raise TypeSyntaxError(f"bad refinement binder: {sexp!r}")


def _split_arrow(items: Sequence[SExp]) -> Optional[Tuple[List[SExp], SExp]]:
    """Split ``dom ... -> rng`` at the top-level arrow, if present."""
    for i, item in enumerate(items):
        if item == _ARROW:
            if i != len(items) - 2:
                raise TypeSyntaxError("exactly one range type must follow ->")
            return list(items[:i]), items[i + 1]
    return None


def _parse_arg(sexp: SExp, tvars: FrozenSet[str]) -> Tuple[str, Type]:
    """An argument: ``[x : τ]``, ``[x : τ #:where ψ]`` or a bare type."""
    if isinstance(sexp, list) and len(sexp) >= 3 and sexp[1] == _COLON:
        if not isinstance(sexp[0], Symbol):
            raise TypeSyntaxError(f"bad argument name in {sexp!r}")
        name = sexp[0].name
        base = parse_type(sexp[2], tvars)
        if len(sexp) == 3:
            return name, base
        if len(sexp) == 5 and sexp[3] == _WHERE:
            prop = parse_prop(sexp[4], tvars)
            return name, Refine(name, base, prop)
        raise TypeSyntaxError(f"bad argument form: {sexp!r}")
    return fresh_name("arg"), parse_type(sexp, tvars)


def _parse_range(sexp: SExp, tvars: FrozenSet[str]) -> TypeResult:
    """The range: ``[z : τ #:where ψ]`` sugar or a bare type."""
    if (
        isinstance(sexp, list)
        and len(sexp) == 5
        and isinstance(sexp[0], Symbol)
        and sexp[1] == _COLON
        and sexp[3] == _WHERE
    ):
        name = sexp[0].name
        base = parse_type(sexp[2], tvars)
        prop = parse_prop(sexp[4], tvars)
        return TypeResult(Refine(name, base, prop))
    if isinstance(sexp, list) and len(sexp) == 3 and sexp[1] == _COLON:
        return TypeResult(parse_type(sexp[2], tvars))
    return TypeResult(parse_type(sexp, tvars))


def _parse_fun(items: Sequence[SExp], tvars: FrozenSet[str]) -> Optional[Type]:
    split = _split_arrow(items)
    if split is None:
        return None
    dom_items, rng_item = split
    args = tuple(_parse_arg(item, tvars) for item in dom_items)
    result = _parse_range(rng_item, tvars)
    return Fun(args, result)


def parse_type(sexp: SExp, tvars: FrozenSet[str] = frozenset()) -> Type:
    """Parse a type from its S-expression form."""
    if isinstance(sexp, Symbol):
        if sexp.name in tvars:
            return TVar(sexp.name)
        ty = _BASE_TYPES.get(sexp.name)
        if ty is None:
            raise TypeSyntaxError(f"unknown type {sexp.name!r}")
        return ty
    if not isinstance(sexp, list) or not sexp:
        raise TypeSyntaxError(f"bad type: {sexp!r}")
    head = sexp[0]
    if isinstance(head, Symbol):
        name = head.name
        if name == "U":
            return make_union(parse_type(t, tvars) for t in sexp[1:])
        if name == "Pairof" and len(sexp) == 3:
            return Pair(parse_type(sexp[1], tvars), parse_type(sexp[2], tvars))
        if name in ("Vecof", "Vectorof") and len(sexp) == 2:
            return Vec(parse_type(sexp[1], tvars))
        if name == "Refine" and len(sexp) == 3:
            var, base = _parse_refine_binder(sexp[1], tvars)
            prop = parse_prop(sexp[2], tvars)
            return Refine(var, base, prop)
        if name in _ALL and len(sexp) >= 3:
            binder = sexp[1]
            if not isinstance(binder, list) or not all(
                isinstance(v, Symbol) for v in binder
            ):
                raise TypeSyntaxError(f"bad ∀ binder: {sexp[1]!r}")
            names = tuple(v.name for v in binder)
            inner_tvars = tvars | frozenset(names)
            if len(sexp) == 3:
                body = parse_type(sexp[2], inner_tvars)
            else:
                fun = _parse_fun(sexp[2:], inner_tvars)
                if fun is None:
                    raise TypeSyntaxError(f"bad ∀ body: {sexp!r}")
                body = fun
            return Poly(names, body)
    fun = _parse_fun(sexp, tvars)
    if fun is not None:
        return fun
    raise TypeSyntaxError(f"bad type: {sexp!r}")


def parse_type_text(text: str, tvars: FrozenSet[str] = frozenset()) -> Type:
    """Parse a type from program text (convenience for tests/examples)."""
    return parse_type(read(text), tvars)
