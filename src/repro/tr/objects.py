"""Symbolic objects: the program terms that may be lifted into types.

This implements the object grammar of Figure 2 together with both
theory extensions from section 3.4 of the paper:

* the base grammar — the null object, variables, field references
  (``fst``/``snd`` for pairs, plus the ``len`` field the vector case
  study required), and pair objects;
* the linear-arithmetic extension — integer literals ``n``, scalings
  ``n * o`` and sums ``o + o``, kept in a canonical linear-combination
  normal form (:class:`LinExpr`);
* the bitvector extension — fixed-width bitvector terms
  (:class:`BVExpr`) over other objects and literals.

Objects are immutable, *interned* values (:mod:`repro.tr.intern`):
structurally equal objects are the same instance, hashes and stable
ids are computed at construction, and equality is (almost always)
an identity check.  Substitution keeps the normal forms the paper
requires: ``(fst <x, y>)`` reduces to ``x``, and any object that comes
to mention the null object collapses to the null object (its enclosing
proposition is then discarded as ``tt``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Tuple, Union

from .intern import InternedValue, interned

__all__ = [
    "Obj",
    "NullObj",
    "NULL",
    "Var",
    "FieldRef",
    "PairObj",
    "LinExpr",
    "BVExpr",
    "FST",
    "SND",
    "LEN",
    "obj_var",
    "obj_int",
    "obj_field",
    "obj_pair",
    "lin_add",
    "lin_sub",
    "lin_scale",
    "lin_of",
    "as_linexpr",
    "obj_free_vars",
    "obj_subst",
]

FST = "fst"
SND = "snd"
LEN = "len"

_FIELDS = (FST, SND, LEN)


class Obj(InternedValue):
    """Base class for symbolic objects.

    The ``_hash``/``_iid`` slots hold the structural hash and stable
    intern id, stamped at construction; ``_repr``/``_digest`` cache
    the printed form and content digest on first demand (see
    :mod:`repro.tr.intern`).
    """

    __slots__ = ("_hash", "_iid", "_repr", "_digest", "_fvs")

    def is_null(self) -> bool:
        return isinstance(self, NullObj)


@interned
class NullObj(Obj):
    """The null object: a term the type system will not reason about."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "∅"


NULL = NullObj()


@interned
class Var(Obj):
    """A reference to an in-scope (immutable) variable."""

    __slots__ = ("name",)
    name: str

    def __repr__(self) -> str:
        return self.name


@interned
class FieldRef(Obj):
    """A field access path: ``(fst o)``, ``(snd o)``, or ``(len o)``."""

    __slots__ = ("field", "base")
    field: str
    base: Obj

    @staticmethod
    def _validate(field: str, base: Obj) -> None:
        if field not in _FIELDS:
            raise ValueError(f"unknown field {field!r}")

    def __repr__(self) -> str:
        return f"({self.field} {self.base!r})"


@interned
class PairObj(Obj):
    """A pair of objects ``<o1, o2>``."""

    __slots__ = ("fst", "snd")
    fst: Obj
    snd: Obj

    def __repr__(self) -> str:
        return f"⟨{self.fst!r}, {self.snd!r}⟩"


@interned
class LinExpr(Obj):
    """A canonical linear combination ``const + Σ coeff·o``.

    ``terms`` maps each non-:class:`LinExpr` atom to a non-zero integer
    coefficient, stored as a tuple sorted by the atom's printed form so
    that structurally equal combinations are ``==``-equal.  Integer
    literals are represented as a :class:`LinExpr` with no terms, which
    is exactly the paper's lifting of literals into objects.
    """

    __slots__ = ("const", "terms")
    const: int
    terms: Tuple[Tuple[Obj, int], ...]

    def __repr__(self) -> str:
        if not self.terms:
            return str(self.const)
        parts = []
        for atom, coeff in self.terms:
            parts.append(f"{coeff}·{atom!r}" if coeff != 1 else repr(atom))
        body = " + ".join(parts)
        if self.const:
            body = f"{self.const} + {body}"
        return f"({body})"

    def atoms(self) -> Tuple[Obj, ...]:
        return tuple(atom for atom, _ in self.terms)

    def is_constant(self) -> bool:
        return not self.terms

    def constant_value(self) -> int:
        if self.terms:
            raise ValueError(f"{self!r} is not a constant")
        return self.const


@interned
class BVExpr(Obj):
    """A fixed-width bitvector term over objects and integer literals.

    ``op`` is one of ``and`` / ``or`` / ``xor`` / ``not`` / ``add`` /
    ``mul`` / ``shl`` / ``lshr``; ``args`` mixes :class:`Obj` operands
    with plain ``int`` literals.  The width records the bitvector sort
    the operation was typed at (bytes, for the AES case study).
    """

    __slots__ = ("op", "args", "width")
    op: str
    args: Tuple[Union[Obj, int], ...]
    width: int

    def __repr__(self) -> str:
        rendered = " ".join(
            repr(a) if isinstance(a, Obj) else f"#x{a:02x}" for a in self.args
        )
        return f"(bv{self.op}[{self.width}] {rendered})"


def obj_var(name: str) -> Var:
    return Var(name)


#: interned literal cache for the hottest constants (0, 1, -1, …)
_ZERO: "LinExpr"


def obj_int(value: int) -> LinExpr:
    """Lift an integer literal into an object (theory-enriched T-Int)."""
    return LinExpr(value, ())


def obj_field(field: str, base: Obj) -> Obj:
    """Build ``(field base)`` in normal form.

    ``(fst <a, b>)`` reduces to ``a`` (and symmetrically for ``snd``);
    a field of the null object is the null object.
    """
    if base.is_null():
        return NULL
    if isinstance(base, PairObj):
        if field == FST:
            return base.fst
        if field == SND:
            return base.snd
    return FieldRef(field, base)


def obj_pair(fst: Obj, snd: Obj) -> Obj:
    return PairObj(fst, snd)


def _atom_key(obj: Obj) -> str:
    return repr(obj)


def _make_lin(const: int, coeffs: Dict[Obj, int]) -> Obj:
    terms = tuple(
        sorted(
            ((atom, c) for atom, c in coeffs.items() if c != 0),
            key=lambda pair: _atom_key(pair[0]),
        )
    )
    if len(terms) == 1 and const == 0 and terms[0][1] == 1:
        # 0 + 1·o is just o.
        return terms[0][0]
    return LinExpr(const, terms)


def as_linexpr(obj: Obj) -> Optional[LinExpr]:
    """View ``obj`` as a linear expression, or ``None`` if it is null.

    Non-arithmetic atoms (variables, field references, bitvector terms)
    become single-term combinations with coefficient 1.
    """
    if obj.is_null():
        return None
    if isinstance(obj, LinExpr):
        return obj
    return LinExpr(0, ((obj, 1),))


def lin_of(obj: Obj) -> LinExpr:
    lin = as_linexpr(obj)
    if lin is None:
        raise ValueError("the null object has no linear form")
    return lin


def lin_add(left: Obj, right: Obj) -> Obj:
    """``left + right`` as a canonical object (null-propagating)."""
    if left.is_null() or right.is_null():
        return NULL
    a, b = lin_of(left), lin_of(right)
    coeffs: Dict[Obj, int] = {}
    for atom, coeff in a.terms + b.terms:
        coeffs[atom] = coeffs.get(atom, 0) + coeff
    return _make_lin(a.const + b.const, coeffs)


def lin_scale(factor: int, obj: Obj) -> Obj:
    """``factor * obj`` as a canonical object (null-propagating)."""
    if obj.is_null():
        return NULL
    if factor == 0:
        return obj_int(0)
    lin = lin_of(obj)
    coeffs = {atom: factor * coeff for atom, coeff in lin.terms}
    return _make_lin(factor * lin.const, coeffs)


def lin_sub(left: Obj, right: Obj) -> Obj:
    return lin_add(left, lin_scale(-1, right))


def obj_free_vars(obj: Obj) -> FrozenSet[str]:
    """The free program variables mentioned by ``obj`` (slot-cached)."""
    try:
        return obj._fvs
    except AttributeError:
        out = _obj_free_vars(obj)
        object.__setattr__(obj, "_fvs", out)
        return out


def _obj_free_vars(obj: Obj) -> FrozenSet[str]:
    if isinstance(obj, Var):
        return frozenset((obj.name,))
    if isinstance(obj, FieldRef):
        return obj_free_vars(obj.base)
    if isinstance(obj, PairObj):
        return obj_free_vars(obj.fst) | obj_free_vars(obj.snd)
    if isinstance(obj, LinExpr):
        out: FrozenSet[str] = frozenset()
        for atom, _ in obj.terms:
            out |= obj_free_vars(atom)
        return out
    if isinstance(obj, BVExpr):
        out = frozenset()
        for arg in obj.args:
            if isinstance(arg, Obj):
                out |= obj_free_vars(arg)
        return out
    return frozenset()


def obj_subst(obj: Obj, mapping: Mapping[str, Obj]) -> Obj:
    """Capture-avoiding substitution of objects for variables.

    Mapping a variable to :data:`NULL` erases every object mentioning
    it (the enclosing proposition then reads the null object and is
    discarded, per section 3.1).
    """
    if not mapping or obj_free_vars(obj).isdisjoint(mapping):
        return obj
    if isinstance(obj, NullObj):
        return NULL
    if isinstance(obj, Var):
        return mapping.get(obj.name, obj)
    if isinstance(obj, FieldRef):
        base = obj_subst(obj.base, mapping)
        if base.is_null():
            return NULL
        if base is obj.base:
            return obj
        return obj_field(obj.field, base)
    if isinstance(obj, PairObj):
        fst = obj_subst(obj.fst, mapping)
        snd = obj_subst(obj.snd, mapping)
        if fst.is_null() or snd.is_null():
            return NULL
        if fst is obj.fst and snd is obj.snd:
            return obj
        return PairObj(fst, snd)
    if isinstance(obj, LinExpr):
        acc: Obj = obj_int(obj.const)
        for atom, coeff in obj.terms:
            replaced = obj_subst(atom, mapping)
            if replaced.is_null():
                return NULL
            acc = lin_add(acc, lin_scale(coeff, replaced))
            if acc.is_null():
                return NULL
        return acc
    if isinstance(obj, BVExpr):
        new_args = []
        changed = False
        for arg in obj.args:
            if isinstance(arg, Obj):
                replaced = obj_subst(arg, mapping)
                if replaced.is_null():
                    return NULL
                changed = changed or replaced is not arg
                new_args.append(replaced)
            else:
                new_args.append(arg)
        if not changed:
            return obj
        return BVExpr(obj.op, tuple(new_args), obj.width)
    raise TypeError(f"not an object: {obj!r}")
