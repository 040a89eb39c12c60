"""Surface parser: expanded S-expressions → core AST.

Responsibilities beyond shape-checking:

* **α-renaming.**  Every local binder is renamed to a globally unique
  name the first time a name is reused, so the checker and logic never
  have to reason about shadowing (the paper's "standard convention of
  choosing fresh names" in T-Abs, made concrete).
* **Annotation collection.**  Top-level ``(: name : ...)`` declarations
  attach to the following ``define``.
* **Struct registration.**  ``(struct Name (field ...))`` registers
  accessors that parse to :class:`~repro.syntax.ast.StructRefE` — the
  feature the checker reports as unsupported (section 5.1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..checker.prims import is_prim_name, resolve_prim_name
from ..sexp.reader import SExp, Symbol, read_all
from ..tr.results import fresh_watermark, reset_fresh_names
from ..tr.parse import TypeSyntaxError, parse_type
from ..tr.types import Type
from .ast import (
    AnnE,
    AppE,
    BoolE,
    Define,
    Expr,
    FstE,
    IfE,
    IntE,
    LamE,
    LetE,
    LetRecE,
    PairE,
    PrimE,
    Program,
    SetE,
    SndE,
    StrE,
    StructRefE,
    VarE,
    VecE,
)
from .macros import Expanded, MacroError, expand, expand_body

__all__ = ["ParseError", "parse_program", "parse_expr_text"]

_COLON = Symbol(":")
_ARROW = Symbol("->")


class ParseError(SyntaxError):
    """Raised on malformed surface syntax."""


@dataclass
class _Scope:
    """Lexical scope mapping source names to unique names."""

    bindings: Dict[str, str]
    parent: Optional["_Scope"] = None

    def lookup(self, name: str) -> Optional[str]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        return None

    def child(self) -> "_Scope":
        return _Scope({}, self)


class _Parser:
    def __init__(self) -> None:
        self._used_names: Set[str] = set()
        self._struct_fields: Dict[str, str] = {}  # accessor -> field name
        self._struct_ctors: Set[str] = set()

    # ------------------------------------------------------------------
    def fresh_binding(self, scope: _Scope, name: str) -> str:
        unique = name
        counter = 1
        while unique in self._used_names:
            unique = f"{name}~{counter}"
            counter += 1
        self._used_names.add(unique)
        scope.bindings[name] = unique
        return unique

    # ------------------------------------------------------------------
    def parse_program(self, forms: Sequence[SExp]) -> Program:
        annotations: Dict[str, Type] = {}
        #: (name, right-hand side, whether the define was already expanded)
        defines: List[Tuple[str, SExp, bool]] = []
        body_forms: List[SExp] = []
        top = _Scope({})

        for form in forms:
            if _is_form(form, ":"):
                name, ty = self._parse_annotation(form)
                annotations[name] = ty
            elif _is_form(form, "struct"):
                self._register_struct(form)
            elif _is_form(form, "define"):
                name, rhs = self._normalize_define(form)
                defines.append((name, rhs, type(form) is Expanded))
                self._used_names.add(name)
                top.bindings[name] = name
            elif _is_form(form, "require") or _is_form(form, "provide"):
                continue
            else:
                body_forms.append(form)

        parsed_defines: List[Define] = []
        for name, rhs, expanded in defines:
            expr = self.parse_expr(rhs if expanded else expand(rhs), top)
            parsed_defines.append(Define(name, expr, annotations.get(name)))
        # ``expand`` hands an already expanded form straight back.
        body = tuple(self.parse_expr(expand(form), top) for form in body_forms)
        return Program(tuple(parsed_defines), body)

    def _parse_annotation(self, form: list) -> Tuple[str, Type]:
        # (: name τ)  or  (: name : dom ... -> rng)
        if len(form) < 3 or not isinstance(form[1], Symbol):
            raise ParseError(f"bad annotation: {form!r}")
        name = form[1].name
        if len(form) == 3:
            return name, parse_type(form[2])
        if form[2] == _COLON:
            return name, parse_type(form[3:] if len(form) > 4 else form[3])
        raise ParseError(f"bad annotation: {form!r}")

    def _normalize_define(self, form: list) -> Tuple[str, SExp]:
        if len(form) < 3:
            raise ParseError(f"bad define: {form!r}")
        target = form[1]
        if isinstance(target, Symbol):
            if len(form) == 3:
                return target.name, form[2]
            raise ParseError(f"bad define: {form!r}")
        if isinstance(target, list) and target and isinstance(target[0], Symbol):
            lam: SExp = [Symbol("λ"), target[1:]] + list(form[2:])
            return target[0].name, lam
        raise ParseError(f"bad define: {form!r}")

    def _register_struct(self, form: list) -> None:
        if len(form) < 3 or not isinstance(form[1], Symbol):
            raise ParseError(f"bad struct: {form!r}")
        struct_name = form[1].name
        fields = form[2]
        if not isinstance(fields, list):
            raise ParseError(f"bad struct fields: {form!r}")
        self._struct_ctors.add(struct_name)
        for field_form in fields:
            field_name = (
                field_form.name if isinstance(field_form, Symbol) else
                field_form[0].name
            )
            self._struct_fields[f"{struct_name}-{field_name}"] = field_name

    # ------------------------------------------------------------------
    def parse_expr(self, sexp: SExp, scope: _Scope) -> Expr:
        # most common shapes first; bool before int (bool is an int)
        if isinstance(sexp, list):
            if sexp:
                return self._parse_compound(sexp, scope)
        elif isinstance(sexp, Symbol):
            return self._parse_symbol(sexp, scope)
        elif isinstance(sexp, bool):
            return BoolE(sexp)
        elif isinstance(sexp, int):
            return IntE(sexp)
        elif isinstance(sexp, str):
            return StrE(sexp)
        raise ParseError(f"cannot parse {sexp!r}")

    def _parse_symbol(self, sym: Symbol, scope: _Scope) -> Expr:
        bound = scope.lookup(sym.name)
        if bound is not None:
            return VarE(bound)
        prim = resolve_prim_name(sym.name)
        if prim is not None:
            return PrimE(prim)
        raise ParseError(f"unbound identifier {sym.name!r}")

    def _parse_compound(self, sexp: list, scope: _Scope) -> Expr:
        head = sexp[0]
        if isinstance(head, Symbol) and scope.lookup(head.name) is None:
            name = head.name
            handler = _SPECIAL_FORMS.get(name)
            if handler is not None:
                return handler(self, sexp, scope)
            if name in self._struct_fields:
                if len(sexp) != 2:
                    raise ParseError(f"bad struct accessor use: {sexp!r}")
                return StructRefE(
                    self.parse_expr(sexp[1], scope), self._struct_fields[name]
                )
            if name in self._struct_ctors:
                return StructRefE(
                    self.parse_expr(sexp[1], scope) if len(sexp) > 1 else BoolE(False),
                    "make",
                )
        fn = self.parse_expr(head, scope)
        args = tuple(self.parse_expr(arg, scope) for arg in sexp[1:])
        return AppE(fn, args)

    # ---------------------------------------------------------- special forms
    def _parse_lambda(self, sexp: list, scope: _Scope) -> Expr:
        if len(sexp) < 3:
            raise ParseError(f"bad λ: {sexp!r}")
        params_form = sexp[1]
        if not isinstance(params_form, list):
            raise ParseError(f"bad λ parameter list: {params_form!r}")
        inner = scope.child()
        params: List[Tuple[str, Optional[Type]]] = []
        annotations: Dict[str, Type] = {}
        raw: List[Tuple[str, Optional[SExp]]] = []
        for param in params_form:
            if isinstance(param, Symbol):
                raw.append((param.name, None))
            elif (
                isinstance(param, list)
                and len(param) == 3
                and isinstance(param[0], Symbol)
                and param[1] == _COLON
            ):
                raw.append((param[0].name, param[2]))
            else:
                raise ParseError(f"bad λ parameter: {param!r}")
        rename: Dict[str, str] = {}
        for name, ann in raw:
            unique = self.fresh_binding(inner, name)
            rename[name] = unique
        for name, ann in raw:
            ty = None
            if ann is not None:
                try:
                    ty = parse_type(ann)
                except TypeSyntaxError as exc:
                    raise ParseError(str(exc)) from exc
            params.append((rename[name], ty))
        body = self.parse_expr(
            expand(expand_body(sexp[2:])) if len(sexp) > 3 else sexp[2], inner
        )
        return LamE(tuple(params), body)

    def _parse_if(self, sexp: list, scope: _Scope) -> Expr:
        if len(sexp) != 4:
            raise ParseError(f"if needs exactly three sub-expressions: {sexp!r}")
        return IfE(
            self.parse_expr(sexp[1], scope),
            self.parse_expr(sexp[2], scope),
            self.parse_expr(sexp[3], scope),
        )

    def _parse_let(self, sexp: list, scope: _Scope) -> Expr:
        # Core let produced by the expander: (let (x rhs) body) or
        # (let (x : τ rhs) body).  Whole let *spines* are parsed by one
        # call — macro towers (`let*`, internal defines, `begin`) lower
        # to chains whose length tracks the source program, and parsing
        # must not recurse once per link.  The whole spine binds into
        # one child scope: each right-hand side is parsed before its
        # own name is (re)bound, so overwriting a name there shadows
        # exactly as a scope per link would, and a lookup costs O(1)
        # rather than O(spine length).
        spine: List[Tuple[str, Expr]] = []
        current = sexp
        inner = scope.child()
        while True:
            if len(current) != 3 or not isinstance(current[1], list):
                raise ParseError(f"bad core let: {current!r}")
            binding = current[1]
            if len(binding) == 2 and isinstance(binding[0], Symbol):
                name_sym, rhs_form = binding
                ann = None
            elif (
                len(binding) == 4
                and isinstance(binding[0], Symbol)
                and binding[1] == _COLON
            ):
                name_sym, ann, rhs_form = binding[0], binding[2], binding[3]
            else:
                raise ParseError(f"bad core let binding: {binding!r}")
            rhs = self.parse_expr(rhs_form, inner)
            if ann is not None:
                rhs = AnnE(rhs, parse_type(ann))
            unique = self.fresh_binding(inner, name_sym.name)
            spine.append((unique, rhs))
            body_form = current[2]
            if _is_form(body_form, "let1") and inner.lookup("let1") is None:
                current = body_form
                continue
            body = self.parse_expr(body_form, inner)
            break
        for unique, rhs in reversed(spine):
            body = LetE(unique, rhs, body)
        return body

    def _parse_letrec(self, sexp: list, scope: _Scope) -> Expr:
        if len(sexp) < 3 or not isinstance(sexp[1], list):
            raise ParseError(f"bad letrec: {sexp!r}")
        inner = scope.child()
        names: List[str] = []
        annotations: List[Optional[Type]] = []
        lam_forms: List[SExp] = []
        for binding in sexp[1]:
            if not (isinstance(binding, list) and len(binding) in (2, 4)):
                raise ParseError(f"bad letrec binding: {binding!r}")
            if len(binding) == 4 and binding[1] == _COLON:
                name_sym, ann_form, rhs = binding[0], binding[2], binding[3]
                annotations.append(parse_type(ann_form))
            else:
                name_sym, rhs = binding
                annotations.append(None)
            if not isinstance(name_sym, Symbol):
                raise ParseError(f"bad letrec binding name: {binding!r}")
            names.append(self.fresh_binding(inner, name_sym.name))
            lam_forms.append(rhs)
        bindings = []
        for name, ann, lam_form in zip(names, annotations, lam_forms):
            lam = self.parse_expr(lam_form, inner)
            if not isinstance(lam, LamE):
                raise ParseError("letrec bindings must be λ expressions")
            bindings.append((name, ann, lam))
        body = self.parse_expr(
            expand(expand_body(sexp[2:])) if len(sexp) > 3 else sexp[2], inner
        )
        return LetRecE(tuple(bindings), body)

    def _parse_cons(self, sexp: list, scope: _Scope) -> Expr:
        if len(sexp) != 3:
            raise ParseError(f"cons takes two arguments: {sexp!r}")
        return PairE(self.parse_expr(sexp[1], scope), self.parse_expr(sexp[2], scope))

    def _parse_fst(self, sexp: list, scope: _Scope) -> Expr:
        if len(sexp) != 2:
            raise ParseError(f"fst takes one argument: {sexp!r}")
        return FstE(self.parse_expr(sexp[1], scope))

    def _parse_snd(self, sexp: list, scope: _Scope) -> Expr:
        if len(sexp) != 2:
            raise ParseError(f"snd takes one argument: {sexp!r}")
        return SndE(self.parse_expr(sexp[1], scope))

    def _parse_vector(self, sexp: list, scope: _Scope) -> Expr:
        return VecE(tuple(self.parse_expr(e, scope) for e in sexp[1:]))

    def _parse_set(self, sexp: list, scope: _Scope) -> Expr:
        if len(sexp) != 3 or not isinstance(sexp[1], Symbol):
            raise ParseError(f"bad set!: {sexp!r}")
        bound = scope.lookup(sexp[1].name)
        if bound is None:
            raise ParseError(f"set! of unbound identifier {sexp[1].name!r}")
        return SetE(bound, self.parse_expr(sexp[2], scope))

    def _parse_ann(self, sexp: list, scope: _Scope) -> Expr:
        if len(sexp) != 3:
            raise ParseError(f"bad ann: {sexp!r}")
        return AnnE(self.parse_expr(sexp[1], scope), parse_type(sexp[2]))

    def _parse_error(self, sexp: list, scope: _Scope) -> Expr:
        if len(sexp) < 2:
            raise ParseError("error needs a message")
        message = sexp[1]
        msg_expr = (
            StrE(message) if isinstance(message, str)
            else self.parse_expr(message, scope)
        )
        return AppE(PrimE("error"), (msg_expr,))

    def _parse_struct_ref(self, sexp: list, scope: _Scope) -> Expr:
        if len(sexp) != 3 or not isinstance(sexp[2], Symbol):
            raise ParseError(f"bad struct-ref: {sexp!r}")
        return StructRefE(self.parse_expr(sexp[1], scope), sexp[2].name)


_SPECIAL_FORMS = {
    "λ": _Parser._parse_lambda,
    "lambda": _Parser._parse_lambda,
    "if": _Parser._parse_if,
    "let1": _Parser._parse_let,
    "letrec": _Parser._parse_letrec,
    "cons": _Parser._parse_cons,
    "fst": _Parser._parse_fst,
    "car": _Parser._parse_fst,
    "snd": _Parser._parse_snd,
    "cdr": _Parser._parse_snd,
    "vector": _Parser._parse_vector,
    "vec": _Parser._parse_vector,
    "set!": _Parser._parse_set,
    "ann": _Parser._parse_ann,
    "error": _Parser._parse_error,
    "struct-ref": _Parser._parse_struct_ref,
}


def _is_form(sexp: SExp, name: str) -> bool:
    return (
        isinstance(sexp, list)
        and bool(sexp)
        and isinstance(sexp[0], Symbol)
        and sexp[0].name == name
    )


#: a name the shared fresh-name counter could itself produce
_FRESHLIKE_NAME = re.compile(r"%(\d+)$")


def _max_embedded_index(forms: Sequence[SExp]) -> int:
    """The largest trailing ``%N`` index among the source's symbols.

    Guards the freshness floor against *user-written* names that look
    like generated ones (the reader does accept ``%`` in symbols).
    """
    best = -1
    stack: List[Sequence[SExp]] = [forms]
    pop = stack.pop
    push = stack.append
    while stack:
        for item in pop():
            kind = type(item)
            if kind is Symbol:
                # only a name with a ``%`` can match; test that first
                if "%" in item.name:
                    match = _FRESHLIKE_NAME.search(item.name)
                    if match and int(match.group(1)) > best:
                        best = int(match.group(1))
            elif kind is list or isinstance(item, list):
                push(item)
    return best


def parse_program(source) -> Program:
    """Parse a whole module from text or a list of S-expressions.

    The shared fresh-name counter restarts at 0 so the generated names
    embedded in the program (macro gensyms, unnamed type arguments)
    are deterministic per source, and the returned program carries a
    ``fresh_floor`` exceeding every ``%``-name it contains — the
    checker restarts the counter there (see
    :func:`repro.tr.results.reset_fresh_names`).
    """
    forms = read_all(source) if isinstance(source, str) else list(source)
    reset_fresh_names()
    try:
        program = _Parser().parse_program(forms)
    except (MacroError, TypeSyntaxError) as exc:
        raise ParseError(str(exc)) from exc
    floor = max(fresh_watermark(), _max_embedded_index(forms) + 1)
    return Program(program.defines, program.body, floor)


def parse_expr_text(text: str) -> Expr:
    """Parse a single expression (convenience for tests/examples)."""
    program = parse_program(text)
    if program.defines or len(program.body) != 1:
        raise ParseError("expected exactly one expression")
    return program.body[0]
