"""The macro expander: Racket's derived forms → core forms.

Typed Racket "type checks programs after macro expansion" (section
4.4), and the paper's central inference challenge is the ``letrec`` +
``λ`` residue of the ``for`` iteration macros.  This expander produces
exactly that residue: ``for/sum`` becomes the ``letrec`` loop shown in
section 4.4 (start/end/step/loop/pos/acc are fresh, unannotatable
identifiers), and the conditional/binding sugar (``cond``, ``when``,
``unless``, ``and``, ``or``, ``let*``, named ``let``, ``begin``,
internal ``define``) lowers to ``if``/``let``/``letrec``.

Variadic arithmetic and chained comparisons are also lowered to the
binary primitives the Δ table types.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..sexp.reader import SExp, Symbol
from ..tr.results import fresh_name

__all__ = ["Expanded", "MacroError", "expand", "expand_body", "gensym"]


class MacroError(SyntaxError):
    """Raised on a malformed use of a derived form."""


class Expanded(list):
    """The root list of a form :func:`expand` returned.

    Expansion is a fixpoint — expanding an expanded form changes
    nothing and draws no ``gensym`` — so the tag lets :func:`expand`
    and :func:`~repro.syntax.parser.parse_program` skip a form that is
    already expanded instead of walking it again.  The tag is sound
    because expanded forms are never mutated: the parser builds new
    lists, and :func:`~repro.study.casestudy.safe_replace` copies the
    spine it swaps a head on (``vec-ref`` and ``safe-vec-ref`` are
    both core names, so the copy is still expanded).
    """

    __slots__ = ()


def gensym(hint: str = "g") -> Symbol:
    """A fresh identifier, drawn from the shared fresh-name counter.

    Sharing the counter with :mod:`repro.tr.results` means the
    program's ``fresh_floor`` watermark covers macro-introduced names
    too, so check-time witnesses can never collide with them.
    """
    return Symbol(fresh_name(hint))


def _sym(name: str) -> Symbol:
    return Symbol(name)


_LET = _sym("let")
_LET1 = _sym("let1")  # core single-binding let (macro output only)
_IF = _sym("if")
_LAMBDA = _sym("λ")
_LETREC = _sym("letrec")
_VOID = [_sym("void")]
_AND = _sym("and")
_OR = _sym("or")
_COND = _sym("cond")
_ELSE = _sym("else")
_DEFINE = _sym("define")
_COLON = _sym(":")
_PLUS = _sym("+")
_TIMES = _sym("*")
_LT = _sym("<")
_GT = _sym(">")
_EQ = _sym("=")
_LEN = _sym("len")
_IN_RANGE = _sym("in-range")
_VEC_REF = _sym("vec-ref")

_VARIADIC_ARITH = {"+", "*"}
_CHAINED_CMP = {"<", "<=", "≤", ">", ">=", "≥", "="}


def _rewrite_head(sexp: SExp) -> SExp:
    """Apply root-level rewrites (macros, variadic/chain lowering) to a
    fixpoint, without descending into children."""
    while isinstance(sexp, list) and sexp and isinstance(sexp[0], Symbol):
        name = sexp[0].name
        expander = _MACROS.get(name)
        if expander is not None:
            sexp = expander(sexp)
            continue
        if name in _VARIADIC_ARITH and len(sexp) > 3:
            lowered = _lower_variadic(sexp)
            if lowered is not sexp:
                sexp = lowered
                continue
        if name in _CHAINED_CMP and len(sexp) > 3:
            sexp = _lower_chain(sexp)
            continue
        break
    return sexp


def expand(sexp: SExp) -> SExp:
    """Fully expand one form.

    Type positions — annotation declarations, ``ann`` types, λ-parameter
    and binding annotations, ``struct`` field lists — are left
    untouched: their ``and``/``or`` are propositions, not expressions.

    The traversal is an explicit work stack (depth-first, left to
    right — the same order, and therefore the same ``gensym`` stream,
    as the old recursive expander): nesting depth is a property of the
    *program*, and the ``for``-loop and ``cond`` towers of real modules
    must not be limited by the Python stack.  Each stack entry is a
    ``(container, index)`` slot to expand in place, or a deferred
    body-splice ``(container, index, forms)`` that runs
    :func:`expand_body` only after the slots pushed above it (a
    ``letrec``'s binding expressions) have fully expanded.

    A list result comes back tagged :class:`Expanded`, and a tagged
    argument is returned as is.
    """
    if type(sexp) is Expanded:
        return sexp
    root: List[SExp] = [sexp]
    stack: List[tuple] = [(root, 0, None)]
    while stack:
        container, index, body_forms = stack.pop()
        if body_forms is not None:
            # Deferred splice: turn a body sequence into one expression
            # now (its gensyms must come after the sibling slots
            # already expanded), then expand it.
            container[index] = expand_body(body_forms)
            stack.append((container, index, None))
            continue
        node = container[index]
        if not isinstance(node, list) or not node:
            continue  # atoms and () expand to themselves
        head = node[0]
        if isinstance(head, Symbol) and head.name in _REWRITTEN_HEADS:
            node = _rewrite_head(node)
            container[index] = node
            if not isinstance(node, list) or not node:
                continue
            head = node[0]
        if isinstance(head, Symbol):
            name = head.name
            if name in (":", "struct", "require", "provide"):
                continue
            if name in ("λ", "lambda") and len(node) >= 3:
                new = [head, node[1], None]
                container[index] = new
                stack.append((new, 2, node[2:]))
                continue
            if name == "ann" and len(node) == 3:
                new = [head, node[1], node[2]]
                container[index] = new
                stack.append((new, 1, None))
                continue
            if name == "let1" and len(node) == 3 and isinstance(node[1], list):
                binding = node[1]
                if len(binding) == 2:
                    new_binding: SExp = [binding[0], binding[1]]
                    rhs_index = 1
                elif len(binding) == 4:
                    new_binding = list(binding)
                    rhs_index = 3
                else:
                    raise MacroError(f"bad let1 binding: {binding!r}")
                new = [head, new_binding, node[2]]
                container[index] = new
                stack.append((new, 2, None))  # body (expanded after rhs)
                stack.append((new_binding, rhs_index, None))
                continue
            if name == "letrec" and len(node) >= 3 and isinstance(node[1], list):
                new_bindings: List[SExp] = []
                slots: List[tuple] = []
                for binding in node[1]:
                    if isinstance(binding, list) and len(binding) == 2:
                        new_binding = list(binding)
                        slots.append((new_binding, 1, None))
                    elif isinstance(binding, list) and len(binding) == 4:
                        new_binding = list(binding)
                        slots.append((new_binding, 3, None))
                    else:
                        raise MacroError(f"bad letrec binding: {binding!r}")
                    new_bindings.append(new_binding)
                new = [head, new_bindings, None]
                container[index] = new
                stack.append((new, 2, node[2:]))  # body splice, deferred
                for slot in reversed(slots):
                    stack.append(slot)
                continue
            if name == "define" and len(node) >= 3:
                new = [head, node[1], None]
                container[index] = new
                stack.append((new, 2, node[2:]))
                continue
        # default: expand every item, left to right (only lists can
        # change, so atoms get no slot)
        new = list(node)
        container[index] = new
        for item_index in reversed(range(len(new))):
            if isinstance(new[item_index], list):
                stack.append((new, item_index, None))
    result = root[0]
    if isinstance(result, list):
        return Expanded(result)
    return result


def expand_body(forms: Sequence[SExp]) -> SExp:
    """A body sequence → one expression (internal defines become lets).

    Two passes, both iterative: the first walks front to back building
    each form's binding (calling ``gensym``/:func:`_begin` in the same
    order the old front-recursive version did), the second folds the
    bindings around the tail expression right to left.
    """
    if not forms:
        raise MacroError("empty body")
    last = len(forms) - 1
    pieces: List[Tuple[Symbol, SExp]] = []
    for position, form in enumerate(forms):
        is_define = (
            isinstance(form, list)
            and form
            and isinstance(form[0], Symbol)
            and form[0].name == "define"
        )
        if is_define:
            if position == last:
                raise MacroError("a body cannot end with a definition")
            if len(form) >= 3 and isinstance(form[1], Symbol):
                pieces.append((_LET1, [form[1], _begin(form[2:])]))
            elif len(form) >= 3 and isinstance(form[1], list):
                # (define (f a ...) body ...) internal function
                name = form[1][0]
                lam = [_LAMBDA, form[1][1:]] + list(form[2:])
                pieces.append((_LETREC, [[name, lam]]))
            else:
                raise MacroError(f"bad internal define: {form!r}")
        elif position == last:
            break
        else:
            pieces.append((_LET1, [gensym("ignore"), form]))
    body = forms[last]
    for binder, payload in reversed(pieces):
        body = [binder, payload, body]
    return body


def _begin(forms: Sequence[SExp]) -> SExp:
    return expand_body(list(forms))


def _lower_variadic(sexp: list) -> SExp:
    op = sexp[0]
    acc = sexp[1]
    for arg in sexp[2:]:
        acc = [op, acc, arg]
    return acc


def _lower_chain(sexp: list) -> SExp:
    """``(< a b c)`` → ``(and (< a b) (< b c))``.

    Middle operands that are not atoms are let-bound first so they are
    evaluated once (as Racket does).
    """
    op = sexp[0]
    operands = list(sexp[1:])
    bindings: List[list] = []
    names: List[SExp] = []
    for i, operand in enumerate(operands):
        if 0 < i < len(operands) - 1 and isinstance(operand, list):
            name = gensym("cmp")
            bindings.append([name, operand])
            names.append(name)
        else:
            names.append(operand)
    body: SExp = [_AND] + [
        [op, a, b] for a, b in zip(names, names[1:])
    ]
    for name, rhs in reversed(bindings):
        body = [_LET1, [name, rhs], body]
    return body


# ----------------------------------------------------------------------
# individual macros
# ----------------------------------------------------------------------
def _expand_cond(sexp: list) -> SExp:
    clauses = sexp[1:]
    if not clauses:
        return _VOID
    clause = clauses[0]
    if not isinstance(clause, list) or not clause:
        raise MacroError(f"bad cond clause: {clause!r}")
    test = clause[0]
    if test == _ELSE:
        if len(clauses) != 1:
            raise MacroError("cond: else clause must be last")
        return _begin(clause[1:])
    rest = [_COND] + clauses[1:]
    return [_IF, test, _begin(clause[1:]), rest]


def _expand_when(sexp: list) -> SExp:
    if len(sexp) < 3:
        raise MacroError("when needs a test and a body")
    return [_IF, sexp[1], _begin(sexp[2:]), _VOID]


def _expand_unless(sexp: list) -> SExp:
    if len(sexp) < 3:
        raise MacroError("unless needs a test and a body")
    return [_IF, sexp[1], _VOID, _begin(sexp[2:])]


def _expand_and(sexp: list) -> SExp:
    args = sexp[1:]
    if not args:
        return True
    if len(args) == 1:
        return args[0]
    return [_IF, args[0], [_AND] + args[1:], False]


def _expand_or(sexp: list) -> SExp:
    args = sexp[1:]
    if not args:
        return False
    if len(args) == 1:
        return args[0]
    tmp = gensym("or")
    return [_LET1, [tmp, args[0]], [_IF, tmp, tmp, [_OR] + args[1:]]]


def _expand_let(sexp: list) -> SExp:
    if len(sexp) >= 4 and isinstance(sexp[1], Symbol):
        return _expand_named_let(sexp)
    if len(sexp) < 3:
        raise MacroError(f"bad let: {sexp!r}")
    bindings = sexp[1]
    body = _begin(sexp[2:])
    if not isinstance(bindings, list):
        raise MacroError(f"bad let bindings: {bindings!r}")
    # Parallel scope: since the parser α-renames everything, sequential
    # nesting of distinct names is equivalent.
    for binding in reversed(bindings):
        if isinstance(binding, list) and len(binding) in (2, 4):
            body = [_LET1, binding, body]
        else:
            raise MacroError(f"bad let binding: {binding!r}")
    return body


def _expand_let_star(sexp: list) -> SExp:
    if len(sexp) < 3:
        raise MacroError(f"bad let*: {sexp!r}")
    body = _begin(sexp[2:])
    for binding in reversed(sexp[1]):
        body = [_LET1, binding, body]
    return body


def _expand_named_let(sexp: list) -> SExp:
    """``(let loop ([x init] ...) body)`` → ``letrec`` + call.

    Annotated bindings ``[x : τ init]`` become annotated λ params.
    """
    loop_name = sexp[1]
    bindings = sexp[2]
    params: List[SExp] = []
    inits: List[SExp] = []
    for binding in bindings:
        if isinstance(binding, list) and len(binding) == 2:
            params.append(binding[0])
            inits.append(binding[1])
        elif (
            isinstance(binding, list)
            and len(binding) == 4
            and binding[1] == _COLON
        ):
            params.append([binding[0], _COLON, binding[2]])
            inits.append(binding[3])
        else:
            raise MacroError(f"bad named-let binding: {binding!r}")
    lam = [_LAMBDA, params, _begin(sexp[3:])]
    return [_LETREC, [[loop_name, lam]], [loop_name] + inits]


def _parse_range_clause(clause: SExp):
    """``[i (in-range ...)]`` → (var, start, end, step)."""
    if (
        not isinstance(clause, list)
        or len(clause) != 2
        or not isinstance(clause[0], Symbol)
    ):
        raise MacroError(f"bad for clause: {clause!r}")
    var, seq = clause
    if not (isinstance(seq, list) and seq and seq[0] == _IN_RANGE):
        raise MacroError(f"only (in-range ...) sequences are supported: {seq!r}")
    args = seq[1:]
    if len(args) == 1:
        return var, 0, args[0], 1
    if len(args) == 2:
        return var, args[0], args[1], 1
    if len(args) == 3:
        if not isinstance(args[2], int):
            raise MacroError("in-range step must be a literal integer")
        return var, args[0], args[1], args[2]
    raise MacroError(f"bad in-range: {seq!r}")


def _expand_for_loop(clause: SExp, body: Sequence[SExp], accumulate: str) -> SExp:
    """The section 4.4 expansion shared by for / for/sum / for/product."""
    var, start, end, step = _parse_range_clause(clause)
    loop = gensym("loop")
    pos = gensym("pos")
    acc = gensym("acc")
    start_name = gensym("start")
    end_name = gensym("end")
    test_op = _LT if step > 0 else _GT
    if accumulate == "sum":
        initial: SExp = 0
        combine: SExp = [_PLUS, acc, _begin(body)]
        base: SExp = acc
    elif accumulate == "product":
        initial = 1
        combine = [_TIMES, acc, _begin(body)]
        base = acc
    else:  # plain for: accumulate nothing
        initial = 0
        combine = [_LET1, [gensym("ignore"), _begin(body)], 0]
        base = _VOID
    recur = [loop, [_PLUS, step, pos], combine]
    lam = [
        _LAMBDA,
        [pos, acc],
        [
            _COND,
            [[test_op, pos, end_name], [_DEFINE, var, pos], recur],
            [_ELSE, base],
        ],
    ]
    return [
        _LET1,
        [start_name, start],
        [
            _LET1,
            [end_name, end],
            [[_LETREC, [[loop, lam]], loop], start_name, initial],
        ],
    ]


def _expand_for_sum(sexp: list) -> SExp:
    if len(sexp) < 3 or not isinstance(sexp[1], list) or len(sexp[1]) != 1:
        raise MacroError("for/sum supports exactly one clause")
    return _expand_for_loop(sexp[1][0], sexp[2:], "sum")


def _expand_for_product(sexp: list) -> SExp:
    if len(sexp) < 3 or not isinstance(sexp[1], list) or len(sexp[1]) != 1:
        raise MacroError("for/product supports exactly one clause")
    return _expand_for_loop(sexp[1][0], sexp[2:], "product")


def _expand_for(sexp: list) -> SExp:
    if len(sexp) < 3 or not isinstance(sexp[1], list) or len(sexp[1]) != 1:
        raise MacroError("for supports exactly one clause")
    return _expand_for_loop(sexp[1][0], sexp[2:], "void")


def _expand_for_fold(sexp: list) -> SExp:
    """``(for/fold ([acc init]) ([i (in-range ...)]) body)``."""
    if len(sexp) < 4 or not isinstance(sexp[1], list) or len(sexp[1]) != 1:
        raise MacroError("for/fold supports exactly one accumulator")
    if not isinstance(sexp[2], list) or len(sexp[2]) != 1:
        raise MacroError("for/fold supports exactly one clause")
    acc_binding = sexp[1][0]
    acc_name, acc_init = acc_binding[0], acc_binding[1]
    var, start, end, step = _parse_range_clause(sexp[2][0])
    loop = gensym("loop")
    pos = gensym("pos")
    start_name = gensym("start")
    end_name = gensym("end")
    test_op = _LT if step > 0 else _GT
    recur = [loop, [_PLUS, step, pos], _begin(sexp[3:])]
    lam = [
        _LAMBDA,
        [pos, acc_name],
        [
            _COND,
            [[test_op, pos, end_name], [_DEFINE, var, pos], recur],
            [_ELSE, acc_name],
        ],
    ]
    return [
        _LET1,
        [start_name, start],
        [
            _LET1,
            [end_name, end],
            [[_LETREC, [[loop, lam]], loop], start_name, acc_init],
        ],
    ]


def _expand_vec_match(sexp: list) -> SExp:
    """``(vec-match v [(x y z) body] [else e])``.

    The "pattern matching on vectors" idiom the paper credits for
    plot's high automatic-verification rate: an explicit length test
    guards constant-index accesses.
    """
    if len(sexp) != 4:
        raise MacroError("vec-match needs a subject and two clauses")
    subject, pat_clause, else_clause = sexp[1], sexp[2], sexp[3]
    if not (isinstance(pat_clause, list) and len(pat_clause) >= 2):
        raise MacroError(f"bad vec-match clause: {pat_clause!r}")
    pattern = pat_clause[0]
    if not (isinstance(else_clause, list) and else_clause[0] == _ELSE):
        raise MacroError("vec-match needs an else clause")
    vec_name = gensym("vec")
    body = _begin(pat_clause[1:])
    for index in reversed(range(len(pattern))):
        body = [_LET1, [pattern[index], [_VEC_REF, vec_name, index]], body]
    return [
        _LET1,
        [vec_name, subject],
        [
            _IF,
            [_EQ, [_LEN, vec_name], len(pattern)],
            body,
            _begin(else_clause[1:]),
        ],
    ]


_MACROS = {
    "cond": _expand_cond,
    "when": _expand_when,
    "unless": _expand_unless,
    "and": _expand_and,
    "or": _expand_or,
    "let": _expand_let,
    "let*": _expand_let_star,
    "begin": lambda sexp: _begin(sexp[1:]),
    "for/sum": _expand_for_sum,
    "for/product": _expand_for_product,
    "for": _expand_for,
    "for/fold": _expand_for_fold,
    "vec-match": _expand_vec_match,
}

#: every head name :func:`_rewrite_head` can act on
_REWRITTEN_HEADS = frozenset(_MACROS) | _VARIADIC_ARITH | _CHAINED_CMP
