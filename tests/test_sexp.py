"""Tests for the S-expression reader and printer."""

import copy
import pickle
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.sexp.printer import pretty_sexp, write_sexp
from repro.sexp import reader
from repro.sexp.reader import ReaderError, Symbol, read, read_all


class TestReaderAtoms:
    def test_integer(self):
        assert read("42") == 42

    def test_negative_integer(self):
        assert read("-7") == -7

    def test_true(self):
        assert read("#t") is True

    def test_true_long(self):
        assert read("#true") is True

    def test_false(self):
        assert read("#f") is False

    def test_hex_literal(self):
        assert read("#x1b") == 0x1B

    def test_hex_uppercase(self):
        assert read("#xFF") == 255

    def test_binary_literal(self):
        assert read("#b1010") == 10

    def test_symbol(self):
        assert read("foo") == Symbol("foo")

    def test_symbol_with_punctuation(self):
        assert read("vec-set!") == Symbol("vec-set!")

    def test_keyword_symbol(self):
        assert read("#:where") == Symbol("#:where")

    def test_string(self):
        assert read('"hello"') == "hello"

    def test_string_with_escapes(self):
        assert read(r'"a\nb\"c"') == 'a\nb"c'

    def test_unicode_symbols(self):
        assert read("∧") == Symbol("∧")
        assert read("λ") == Symbol("λ")


class TestReaderLists:
    def test_empty_list(self):
        assert read("()") == []

    def test_flat_list(self):
        assert read("(+ 1 2)") == [Symbol("+"), 1, 2]

    def test_nested(self):
        assert read("(a (b c) d)") == [
            Symbol("a"),
            [Symbol("b"), Symbol("c")],
            Symbol("d"),
        ]

    def test_brackets_are_lists(self):
        assert read("[x : Int]") == [Symbol("x"), Symbol(":"), Symbol("Int")]

    def test_mixed_brackets(self):
        assert read("(f [x 1])") == [Symbol("f"), [Symbol("x"), 1]]

    def test_quote_sugar(self):
        assert read("'x") == [Symbol("quote"), Symbol("x")]

    def test_line_comment(self):
        assert read("(a ; comment\n b)") == [Symbol("a"), Symbol("b")]

    def test_block_comment(self):
        assert read("(a #| hi |# b)") == [Symbol("a"), Symbol("b")]

    def test_nested_block_comment(self):
        assert read("(a #| x #| y |# z |# b)") == [Symbol("a"), Symbol("b")]

    def test_read_all(self):
        assert read_all("1 2 3") == [1, 2, 3]

    def test_read_all_empty(self):
        assert read_all("  ; nothing\n") == []


class TestReaderErrors:
    def test_unclosed(self):
        with pytest.raises(ReaderError):
            read("(a b")

    def test_mismatched(self):
        with pytest.raises(ReaderError):
            read("(a]")

    def test_trailing(self):
        with pytest.raises(ReaderError):
            read("a b")

    def test_stray_closer(self):
        with pytest.raises(ReaderError):
            read(")")

    def test_unterminated_string(self):
        with pytest.raises(ReaderError):
            read('"abc')

    def test_empty_input(self):
        with pytest.raises(ReaderError):
            read("   ")

    def test_error_location(self):
        with pytest.raises(ReaderError) as exc:
            read("(a\n   ")
        assert exc.value.line == 1

    def test_bad_hex(self):
        with pytest.raises(ReaderError):
            read("#xZZ")


class TestSymbolInterning:
    def test_one_instance_per_name(self):
        assert Symbol("interned-a") is Symbol("interned-a")
        assert Symbol("interned-a") is not Symbol("interned-b")
        assert read("(interned-a interned-a)")[1] is Symbol("interned-a")

    def test_a_read_symbol_finds_its_dict_key(self):
        table = {Symbol("k"): 1}
        assert table[read("k")] == 1
        assert Symbol("k") != "k"

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_returns_the_canonical_instance(self, protocol):
        symbol = Symbol("pickled")
        assert pickle.loads(pickle.dumps(symbol, protocol)) is symbol
        tree = [symbol, [symbol, 1]]
        assert pickle.loads(pickle.dumps(tree, protocol))[1][0] is symbol

    def test_copy_and_deepcopy_return_self(self):
        symbol = Symbol("copied")
        assert copy.copy(symbol) is symbol
        assert copy.deepcopy(symbol) is symbol
        assert copy.deepcopy([symbol])[0] is symbol

    def test_immutable(self):
        symbol = Symbol("frozen")
        with pytest.raises(AttributeError):
            symbol.name = "thawed"
        with pytest.raises(AttributeError):
            symbol.extra = 1
        with pytest.raises(AttributeError):
            del symbol.name
        assert symbol.name == "frozen"

    def test_concurrent_creation_yields_one_instance_per_name(self):
        names = [f"threaded-{index}" for index in range(1000)]
        barrier = threading.Barrier(8, timeout=60)
        results = [None] * 8

        def create(slot):
            barrier.wait()
            results[slot] = [Symbol(name) for name in names]

        threads = [threading.Thread(target=create, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for column in zip(*results):
            assert all(symbol is column[0] for symbol in column)
        assert [symbol.name for symbol in results[0]] == names

    def test_table_stays_bounded_when_names_are_dropped(self):
        before = len(reader._SYMBOLS)
        for index in range(10**6):
            Symbol(f"transient-{index}")
        assert len(reader._SYMBOLS) <= 2 * before + 1024
        # a live symbol survives every sweep with its identity
        kept = Symbol("kept-across-sweeps")
        for index in range(10_000):
            Symbol(f"transient-again-{index}")
        assert Symbol("kept-across-sweeps") is kept


class TestPrinter:
    def test_atoms(self):
        assert write_sexp(42) == "42"
        assert write_sexp(True) == "#t"
        assert write_sexp(False) == "#f"
        assert write_sexp(Symbol("foo")) == "foo"
        assert write_sexp("hi") == '"hi"'

    def test_list(self):
        assert write_sexp([Symbol("+"), 1, 2]) == "(+ 1 2)"

    def test_string_escaping(self):
        assert read(write_sexp('a"b\nc')) == 'a"b\nc'

    def test_pretty_short_stays_flat(self):
        assert "\n" not in pretty_sexp([Symbol("+"), 1, 2])

    def test_pretty_long_wraps(self):
        datum = [Symbol("define")] + [Symbol(f"very-long-name-{i}") for i in range(20)]
        assert "\n" in pretty_sexp(datum, width=40)


_atoms = st.one_of(
    st.integers(-10**6, 10**6),
    st.booleans(),
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
        min_size=0,
        max_size=8,
    ),
    st.builds(
        Symbol,
        st.text(alphabet="abcdefghijklmnop-?!*<>=", min_size=1, max_size=10).filter(
            lambda s: not _reads_as_number(s)
        ),
    ),
)


def _reads_as_number(text: str) -> bool:
    try:
        int(text)
        return True
    except ValueError:
        return False


_sexps = st.recursive(_atoms, lambda inner: st.lists(inner, max_size=5), max_leaves=25)


@given(_sexps)
def test_print_read_roundtrip(datum):
    assert read(write_sexp(datum)) == datum


@given(_sexps)
def test_pretty_read_roundtrip(datum):
    assert read(pretty_sexp(datum, width=30)) == datum
