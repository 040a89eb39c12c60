"""S-expression reader for the RTR surface language.

The reader turns program text into a tree of Python values:

* symbols   -> :class:`Symbol` (interned: one live instance per name)
* integers  -> :class:`int`
* booleans  -> :class:`bool` (``#t``/``#true``, ``#f``/``#false``)
* hex bytes -> :class:`int` (``#x1b`` style bitvector literals)
* strings   -> :class:`str`
* lists     -> :class:`list` (``(...)`` and ``[...]`` both read as lists,
  matching Racket's convention that brackets are interchangeable)

The hot path is one ``findall`` over the text, which returns every
lexeme (whitespace is skipped by the regex search itself, so there is
no per-token call for it), then one loop over the lexemes that builds
the tree on an explicit stack of open lists: nesting depth is a
property of the program and never touches the Python stack.
:func:`read`, :func:`read_many` and :func:`read_all` all run that one
loop.  Atom lexemes go through a bounded lexeme → value table; every
value it holds (ints, bools, interned symbols) is immutable, so sharing
them between trees is safe.

Offsets are not kept on the hot path.  An error re-scans the text
with ``finditer`` to find the offending lexeme's offset, and
line/column follow from counting newlines up to it.  The rare text
containing ``#|`` takes that positional scan from the start, because a
nested block comment is not a regular language.
"""

from __future__ import annotations

import re
import threading
import weakref
from typing import Iterator, List, Tuple, Union

__all__ = [
    "Symbol",
    "ReaderError",
    "read",
    "read_all",
    "read_many",
]


class ReaderError(SyntaxError):
    """Raised when the input text is not a well-formed S-expression."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


#: name → weak reference to the live :class:`Symbol` of that name
_SYMBOLS: "dict[str, weakref.ref]" = {}
#: serialises creating a symbol and sweeping dead entries; a lookup of
#: a live symbol never takes it.  Re-entrant, because an allocation
#: under it can run a collection whose finalizers create symbols.
_SYMBOLS_LOCK = threading.RLock()
#: the table size at which the next creation sweeps dead entries
_sweep_at = 1024


class Symbol:
    """An interned Racket symbol: one live instance per name.

    ``Symbol(name)`` returns the live instance of ``name`` if there is
    one, so equality is identity and hashing is by identity — both
    C-level slots.  Two live instances of one name can never exist at
    once: the table holds weak references, creation runs under a lock
    and re-checks the table there, and a dead entry is only ever
    replaced or swept under that lock.  The table therefore shrinks
    back when a long-lived process stops using names, while identity
    equality stays sound.

    Instances are immutable; ``copy``, ``deepcopy`` and unpickling all
    return the canonical instance.
    """

    __slots__ = ("name", "__weakref__")

    def __new__(cls, name: str) -> "Symbol":
        ref = _SYMBOLS.get(name)
        if ref is not None:
            symbol = ref()
            if symbol is not None:
                return symbol
        return _create_symbol(cls, name)

    def __setattr__(self, attr, value):
        raise AttributeError(f"Symbol is immutable (cannot set {attr!r})")

    def __delattr__(self, attr):
        raise AttributeError(f"Symbol is immutable (cannot delete {attr!r})")

    def __reduce__(self):
        return (Symbol, (self.name,))

    def __copy__(self) -> "Symbol":
        return self

    def __deepcopy__(self, memo) -> "Symbol":
        return self

    def __repr__(self) -> str:
        return self.name

    def __str__(self) -> str:
        return self.name


def _create_symbol(cls, name: str) -> Symbol:
    global _sweep_at
    with _SYMBOLS_LOCK:
        ref = _SYMBOLS.get(name)
        symbol = ref() if ref is not None else None
        if symbol is None:
            if len(_SYMBOLS) >= _sweep_at:
                dead = [key for key, entry in list(_SYMBOLS.items()) if entry() is None]
                for key in dead:
                    del _SYMBOLS[key]
                _sweep_at = max(1024, 2 * len(_SYMBOLS))
            symbol = object.__new__(cls)
            object.__setattr__(symbol, "name", name)
            _SYMBOLS[name] = weakref.ref(symbol)
        return symbol


SExp = Union[Symbol, int, bool, str, list]

_DELIMS = {"(": ")", "[": "]", "{": "}"}

#: One alternative per lexeme shape; whitespace matches none of them,
#: so a ``findall`` search skips it.  Order matters: block comments and
#: quotes must come before the catch-all atom class (``#`` and ``'``
#: are legal *inside* an atom, so only a match at lexeme start makes
#: them special).  Every other character starts some alternative, so
#: the search never skips anything but whitespace.  A lone ``"`` is an
#: unterminated string (a well-formed one is at least two characters).
_TOKEN_RE = re.compile(
    r"""
      ;[^\n]*
    | [(\[{]
    | [)\]}]
    | "(?:[^"\\]|\\[\s\S])*"
    | "
    | \#\|
    | '
    | [^()\[\]{}"'; \t\n\r\f\v][^()\[\]{}"; \t\n\r\f\v]*
    """,
    re.VERBOSE,
)

_ESCAPE_RE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}

#: atom lexeme → value; cleared whenever it reaches the cap
_ATOMS: dict = {}
_ATOM_CACHE_MAX = 1 << 14
_MISSING = object()
_QUOTE = Symbol("quote")


def _location(text: str, pos: int) -> Tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    column = pos - text.rfind("\n", 0, pos)
    return line, column


def _error(text: str, message: str, pos: int) -> ReaderError:
    line, column = _location(text, pos)
    return ReaderError(message, line, column)


def _error_at(text: str, message: str, index: int) -> ReaderError:
    """A :class:`ReaderError` at the ``index``-th lexeme of ``text``."""
    return _error(text, message, _scan(text)[1][index])


def _unescape(match: "re.Match[str]") -> str:
    ch = match.group(1)
    return _ESCAPES.get(ch, ch)


def _skip_block_comment(text: str, pos: int) -> int:
    """Skip a (nested) ``#| ... |#`` comment; return the end offset."""
    start = pos
    depth = 0
    n = len(text)
    while pos < n:
        two = text[pos : pos + 2]
        if two == "#|":
            depth += 1
            pos += 2
        elif two == "|#":
            depth -= 1
            pos += 2
            if depth == 0:
                return pos
        else:
            pos += 1
    raise _error(text, "unterminated block comment", start)


def _scan(text: str) -> Tuple[List[str], List[int]]:
    """The lexemes of ``text`` and their offsets, block comments skipped.

    Raises the first unterminated string or block comment in text
    order.
    """
    lexemes: List[str] = []
    offsets: List[int] = []
    pos = 0
    while True:
        for match in _TOKEN_RE.finditer(text, pos):
            lexeme = match.group()
            if lexeme == "#|":
                pos = _skip_block_comment(text, match.start())
                break
            if lexeme == '"':
                raise _error(text, "unterminated string", match.start())
            lexemes.append(lexeme)
            offsets.append(match.start())
        else:
            return lexemes, offsets


def _lex(text: str) -> List[str]:
    """The lexemes of ``text`` (line comments included, as ``;...``)."""
    if "#|" in text:
        return _scan(text)[0]
    lexemes = _TOKEN_RE.findall(text)
    if '"' in lexemes:
        raise _error_at(text, "unterminated string", lexemes.index('"'))
    return lexemes


def _parse_atom(text: str, lexeme: str, index: int) -> SExp:
    if lexeme in ("#t", "#true", "#T"):
        return True
    if lexeme in ("#f", "#false", "#F"):
        return False
    if lexeme.startswith(("#x", "#X")):
        try:
            return int(lexeme[2:], 16)
        except ValueError:
            raise _error_at(text, f"bad hex literal {lexeme!r}", index) from None
    if lexeme.startswith(("#b", "#B")):
        try:
            return int(lexeme[2:], 2)
        except ValueError:
            raise _error_at(text, f"bad binary literal {lexeme!r}", index) from None
    try:
        return int(lexeme)
    except ValueError:
        pass
    return Symbol(lexeme)


def _read_data(text: str, lexemes: List[str]) -> Iterator[Tuple[SExp, int]]:
    """Yield each top-level datum with the index of the lexeme after it.

    ``stack`` holds one ``[items, closer, index]`` frame per open list;
    a quote is a frame whose closer is ``None`` and which closes by
    itself once it holds its one datum.
    """
    atoms = _ATOMS
    delims = _DELIMS
    stack: List[list] = []
    for index, lexeme in enumerate(lexemes):
        first = lexeme[0]
        if first in delims:
            stack.append([[], delims[first], index])
            continue
        if first == ")" or first == "]" or first == "}":
            if not stack or stack[-1][1] is None:
                raise _error_at(text, f"unexpected {lexeme!r}", index)
            items, closer, _ = stack.pop()
            if lexeme != closer:
                raise _error_at(
                    text,
                    f"mismatched delimiter: expected {closer!r}, got {lexeme!r}",
                    index,
                )
            datum = items
        elif first == ";":
            continue
        elif first == '"':
            datum = lexeme[1:-1]
            if "\\" in datum:
                datum = _ESCAPE_RE.sub(_unescape, datum)
        elif first == "'":
            stack.append([[_QUOTE], None, index])
            continue
        else:
            datum = atoms.get(lexeme, _MISSING)
            if datum is _MISSING:
                datum = _parse_atom(text, lexeme, index)
                if len(atoms) >= _ATOM_CACHE_MAX:
                    atoms.clear()
                atoms[lexeme] = datum
        # Hand the finished datum to its enclosing frame, closing any
        # quote frames it completes.
        while stack:
            frame = stack[-1]
            frame[0].append(datum)
            if frame[1] is not None:
                break
            stack.pop()
            datum = frame[0]
        else:
            yield datum, index + 1
    if stack:
        if stack[-1][1] is None:
            raise _error(text, "unexpected end of input", len(text))
        raise _error_at(text, "unclosed parenthesis", stack[-1][2])


def read(text: str) -> SExp:
    """Read a single S-expression from ``text``.

    Raises :class:`ReaderError` if there is no datum or if there is
    trailing (non-comment) input after the first datum.
    """
    lexemes = _lex(text)
    for datum, end in _read_data(text, lexemes):
        for index in range(end, len(lexemes)):
            if lexemes[index][0] != ";":
                raise _error_at(text, "unexpected trailing input", index)
        return datum
    raise _error(text, "unexpected end of input", len(text))


def read_many(text: str) -> Iterator[SExp]:
    """Yield every top-level datum in ``text``."""
    for datum, _ in _read_data(text, _lex(text)):
        yield datum


def read_all(text: str) -> List[SExp]:
    """Read every top-level datum in ``text`` into a list."""
    return [datum for datum, _ in _read_data(text, _lex(text))]
