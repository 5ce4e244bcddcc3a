"""Reader (lexemes, forms, positions, errors) and printer behavior."""

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clz import NIL, Cons, EvalError, Interpreter, Keyword, Symbol, T, print_value
from clz.errors import ReadError
from clz.reader import Reader, form_to_value, read_source


def data(text):
    """The atoms, or nested lists of atoms, that ``text`` reads as."""
    return data_of(read_source(text))


def data_of(forms):
    def strip(form):
        if isinstance(form.datum, list):
            return [strip(f) for f in form.datum]
        return form.datum
    return [strip(f) for f in forms]


def one(text):
    forms = read_source(text)
    assert len(forms) == 1
    return forms[0]


def read_error(text):
    with pytest.raises(ReadError) as exc:
        read_source(text)
    return exc.value


def sym(name):
    return Symbol.intern(name)


class TestTokenize:
    """Lexical behaviour, checked on the forms the reader builds."""

    def test_arithmetic_form(self):
        assert data("(+ 1 2)") == [[sym("+"), 1, 2]]

    def test_sharp_quote(self):
        form = one("#'si")
        head, target = form.datum
        assert head.datum is sym("FUNCTION") and target.datum is sym("SI")
        assert [(f.line, f.col) for f in (form, head, target)] == [(1, 1), (1, 1), (1, 3)]

    def test_keyword(self):
        assert data(":y :Y") == [Keyword.intern("Y")] * 2

    def test_quote_mark(self):
        assert data("'x") == [[sym("QUOTE"), sym("X")]]
        quoted = one("'x").datum[1]
        assert (quoted.line, quoted.col) == (1, 2)

    def test_signed_integers(self):
        assert data("-5 +7 12 -0 007") == [-5, 7, 12, 0, 7]

    def test_sign_alone_is_a_symbol(self):
        assert data("+ - * +-1") == [sym("+"), sym("-"), sym("*"), sym("+-1")]

    def test_digits_then_letters_is_a_symbol(self):
        # the successor function's name starts with a digit
        assert data("1+ 1a 1_000") == [sym("1+"), sym("1A"), sym("1_000")]

    def test_string_with_escapes(self):
        assert data(r'"a\"b\\c" "" "(;)"') == ['a"b\\c', "", "(;)"]
        # a string may span lines, and later positions follow it
        forms = read_source('"a\nb" x')
        assert forms[0].datum == "a\nb"
        assert (forms[1].line, forms[1].col) == (2, 4)

    def test_comment_to_end_of_line(self):
        forms = read_source("1 ; two (three\n4 ;")
        assert [f.datum for f in forms] == [1, 4]
        assert (forms[1].line, forms[1].col) == (2, 1)

    def test_positions_are_one_based_and_monotonic(self):
        form = one("(a\n\t b)")
        a, b = form.datum
        assert [(f.line, f.col) for f in (form, a, b)] == [(1, 1), (1, 2), (2, 3)]

    def test_eof_token_terminates_stream(self):
        # the end of the text ends the forms, with or without trailing blanks
        assert read_source("") == []
        assert read_source(" \t\r\n ; only a comment") == []
        assert data("x") == data("x \n") == [sym("X")]

    def test_unterminated_string_is_incomplete(self):
        for text in ('"abc', '"abc\\', '"a\nb'):
            err = read_error(text)
            assert err.incomplete and err.message == "unterminated string literal"
            assert (err.line, err.col) == (1, 1)

    def test_unknown_escape_rejected(self):
        err = read_error('(x\n "a\\nb")')
        assert not err.incomplete
        assert err.message == "unknown string escape '\\n'"
        assert (err.line, err.col) == (2, 4)

    def test_hash_without_quote_rejected(self):
        err = read_error("#(1 2)")
        assert (err.line, err.col) == (1, 1) and not err.incomplete
        err = read_error("(a#b)")
        assert (err.line, err.col) == (1, 3)

    def test_control_character_rejected(self):
        for text, col in (("a\x01b", 2), ("\x0b", 1), ("12\x1f", 3), (":\x01", 2),
                          ("99999999999999999999\x01", 21)):
            err = read_error(text)
            assert err.message.startswith("illegal character (codepoint")
            assert (err.line, err.col) == (1, col)

    def test_integer_out_of_64bit_range(self):
        assert data(str(2 ** 63 - 1)) == [2 ** 63 - 1]
        assert data(str(-(2 ** 63))) == [-(2 ** 63)]
        for text in (str(2 ** 63), str(-(2 ** 63) - 1)):
            err = read_error(f"(x {text})")
            assert (err.line, err.col) == (1, 4)

    def test_literal_past_the_host_digit_limit_is_out_of_range(self):
        # int() refuses more than 4,300 digits; the reader decides first
        for text in ("1" * 5000, "-" + "0" * 5000 + "1" + "0" * 19):
            err = read_error(f"(x {text})")
            assert err.message == f"integer literal {text[:77]}... outside the 64-bit signed range"
            assert (err.line, err.col) == (1, 4) and not err.incomplete
        assert data("0" * 5000 + "1") == [1]
        assert data("-" + "0" * 5000 + str(2 ** 63)) == [-(2 ** 63)]
        assert data("+" + "0" * 5000) == [0]

    def test_lexemes_reassemble_to_equivalent_program(self):
        # lexemes need no blanks between them, and extra blanks change nothing
        src = "(deflazy si (c e a) (if c e a)) #'si ':k \"s\""
        spaced = "( deflazy si ( c e a ) ( if c e a ) ) #' si ' :k \"s\" "
        assert data(spaced) == data(src)

    def test_only_ascii_digits_make_integers(self):
        assert data("\u00b2 \u0661\u0662") == [sym("\u00b2"), sym("\u0661\u0662")]
        with pytest.raises(EvalError) as exc:
            Interpreter(prelude=False).run("(+ 1 \u00b2)")
        assert exc.value.kind == "unbound-symbol"

    def test_first_error_in_source_order_is_reported(self):
        err = read_error(') "abc')
        assert err.message == "unbalanced close parenthesis"
        assert (err.line, err.col) == (1, 1) and not err.incomplete
        err = read_error("(') #")
        assert err.message == "' with no following form"
        assert (err.line, err.col) == (1, 3)

    def test_an_atom_read_before_does_not_change_how_an_integer_reads(self):
        assert data("1+") == [sym("1+")]
        assert data("+1") == [1]
        assert data("(1+ +1)") == [[sym("1+"), 1]]

    def test_integer_spellings_read_the_same_on_every_read(self):
        # each row twice in one text, then again in a second read, which finds
        # the spelling already seen
        for text, datum in [("0", 0), ("-0", 0), ("+7", 7), ("007", 7),
                            ("000000000000000000000001", 1),
                            ("9223372036854775807", 2 ** 63 - 1),
                            ("-9223372036854775808", -(2 ** 63)),
                            ("+-1", sym("+-1")), ("1+", sym("1+")), ("1a", sym("1A")),
                            ("+", sym("+")), ("-", sym("-")),
                            ("\u0663", sym("\u0663")), ("\u00b2", sym("\u00b2"))]:
            for _ in range(2):
                forms = read_source(f"{text} {text}")
                assert [(type(f.datum), f.datum) for f in forms] == [(type(datum), datum)] * 2
                assert [(f.line, f.col) for f in forms] == [(1, 1), (1, len(text) + 2)]
        # a spelling that raises is never stored, so it raises at its own column each time
        text = "9223372036854775808"
        for source, where in [(text, (1, 1)), (f"(x\n  {text})", (2, 3)), (text, (1, 1))]:
            err = read_error(source)
            assert err.message == f"integer literal {text} outside the 64-bit signed range"
            assert (err.line, err.col) == where and not err.incomplete

    def test_blanks_before_a_lexeme_leave_its_position(self):
        err = read_error("  \x0b")
        assert err.message == "illegal character (codepoint 11)"
        assert (err.line, err.col) == (1, 3) and not err.incomplete
        err = read_error("(a\t#b)")
        assert err.message == "illegal character '#' (only #' is supported)"
        assert (err.line, err.col) == (1, 4)
        err = read_error(' \n  "abc')
        assert err.message == "unterminated string literal"
        assert (err.line, err.col) == (2, 3) and err.incomplete


class TestParse:
    def test_list_form_shape(self):
        form = one("(si t 42 (loop))")
        d = form.datum
        assert isinstance(d, list) and len(d) == 4
        assert d[0].datum is Symbol.intern("SI")
        assert d[1].datum is T
        assert d[2].datum == 42
        assert isinstance(d[3].datum, list)
        assert d[3].datum[0].datum is Symbol.intern("LOOP")

    def test_quote_sugar(self):
        form = one("'(1 2)")
        d = form.datum
        assert d[0].datum is Symbol.intern("QUOTE")
        assert [f.datum for f in d[1].datum] == [1, 2]

    def test_sharp_quote_sugar(self):
        form = one("#'si")
        d = form.datum
        assert d[0].datum is Symbol.intern("FUNCTION")
        assert d[1].datum is Symbol.intern("SI")

    def test_symbols_fold_to_upper_case(self):
        assert one("foo").datum is one("FOO").datum is one("Foo").datum
        assert one("foo").datum.name == "FOO"

    def test_t_and_nil_read_as_constants(self):
        assert one("t").datum is T
        assert one("NIL").datum is NIL

    def test_empty_list_reads_as_nil(self):
        assert one("()").datum is NIL

    def test_keywords_intern(self):
        assert one(":y").datum is Keyword.intern("Y")
        # each class interns in its own table, and a keyword is no symbol
        assert not isinstance(Keyword.intern("Y"), Symbol)
        assert one("y").datum is Symbol.intern("Y") is not Keyword.intern("Y")

    def test_unclosed_list_points_at_innermost_open(self):
        with pytest.raises(ReadError) as exc:
            read_source("(a (b")
        assert exc.value.incomplete
        assert (exc.value.line, exc.value.col) == (1, 4)

    def test_unbalanced_close(self):
        with pytest.raises(ReadError) as exc:
            read_source("a)")
        assert not exc.value.incomplete

    def test_quote_with_nothing_following(self):
        with pytest.raises(ReadError) as exc:
            read_source("'")
        assert exc.value.incomplete
        with pytest.raises(ReadError):
            read_source("(')")

    def test_lone_dot_is_an_error_at_the_dot(self):
        # surface lists are proper: '(1 . 2) must not read as a list of three
        for text, where in [("'(1 . 2)", (1, 5)), ("(a\n  . b)", (2, 3)), (".", (1, 1))]:
            err = read_error(text)
            assert err.message == "lone '.': dotted lists are not supported"
            assert (err.line, err.col) == where
        assert data(".a a.b ...") == [sym(".A"), sym("A.B"), sym("...")]

    def test_every_spelling_of_an_atom_reads_as_one_datum(self):
        # each spelling twice, so that the second read finds it already seen
        for spellings, datum in [("foo FOO Foo", sym("FOO")), (":k :K", Keyword.intern("K")),
                                 ("t T", T), ("nil Nil", NIL)]:
            for _ in range(2):
                for text in spellings.split():
                    assert one(text).datum is datum

    def test_lone_colon_and_dot_raise_on_every_read(self):
        for text, message in [(":", "lone ':' is not a keyword"),
                              (".", "lone '.': dotted lists are not supported")]:
            for source, where in [(text, (1, 1)), (f"(a\n {text})", (2, 2)), (text, (1, 1))]:
                err = read_error(source)
                assert err.message == message and not err.incomplete
                assert (err.line, err.col) == where

    def test_multiple_top_level_forms_in_order(self):
        forms = read_source("1 2 (3)")
        assert [type(f.datum) for f in forms] == [int, int, list]

    def test_form_positions(self):
        form = one("\n  (a b)")
        assert (form.line, form.col) == (2, 3)

    def test_string_decoding(self):
        assert one(r'"a\"b\\c"').datum == 'a"b\\c'

    def test_deep_nesting_needs_no_host_recursion(self):
        depth = 100_000
        form = one("(" * depth + ")" * depth)
        for level in range(1, depth):
            assert (form.line, form.col) == (1, level)
            (form,) = form.datum
        assert form.datum is NIL and form.col == depth

    def test_deeply_nested_program_is_a_tagged_recursion_error(self):
        with pytest.raises(EvalError) as exc:
            Interpreter().run("(" * 20_000 + ")" * 20_000)
        assert exc.value.kind == "recursion-limit"

    def test_deep_form_prints_in_an_error_message(self):
        binding = "(" * 100_000 + ")" * 100_000
        with pytest.raises(EvalError) as exc:
            Interpreter(prelude=False).run(f"(let ({binding}) 1)")
        assert exc.value.kind == "malformed-special-form"
        assert (exc.value.line, exc.value.col) == (1, 7)
        assert exc.value.message == "malformed let binding " + "(" * 77 + "..."


class TestFormToValue:
    def test_atom_passthrough(self):
        assert form_to_value(one("42")) == 42
        assert form_to_value(one("t")) is T

    def test_list_becomes_cons_chain(self):
        v = form_to_value(one("(1 (2) 3)"))
        assert isinstance(v, Cons)
        assert v.car == 1
        assert isinstance(v.cdr.car, Cons)
        assert v.cdr.cdr.car == 3
        assert v.cdr.cdr.cdr is NIL

    def test_empty_list_is_nil(self):
        assert form_to_value(one("()")) is NIL

    def test_deep_quoted_data_needs_no_host_recursion(self):
        interp = Interpreter(prelude=False)
        text = "(" * 12_000 + "1" + ")" * 12_000
        assert print_value(interp.run("'" + text)) == text
        value = interp.run("'" + "(" * 12_000 + ")" * 12_000)
        assert print_value(value) == "(" * 11_999 + "NIL" + ")" * 11_999


class TestPrintValue:
    def test_atoms_print_as_read(self):
        assert print_value(42) == "42"
        assert print_value(-7) == "-7"
        assert print_value(NIL) == "NIL"
        assert print_value(T) == "T"
        assert print_value(Symbol.intern("si")) == "SI"
        assert print_value(Keyword.intern("y")) == ":Y"
        assert print_value('a"b\\c') == r'"a\"b\\c"'

    def test_proper_list(self):
        v = Cons(1, Cons(2, NIL))
        assert print_value(v) == "(1 2)"

    def test_deeply_nested_cons_prints(self):
        value = NIL
        for _ in range(100_000):
            value = Cons(value, Cons(1, NIL))
        assert print_value(value) == "(" * 100_000 + "NIL" + " 1)" * 100_000

    def test_dotted_tails_inside_nested_lists(self):
        value = Cons(Cons(1, 2), Cons(Cons(Cons(3, NIL), 4), 5))
        assert print_value(value) == "((1 . 2) ((3) . 4) . 5)"

    def test_pair_with_thunk_cdr(self, interp):
        v = interp.run("(cons 1 (delay (diverge)))")
        assert print_value(v) == "(1 . #<thunk>)"

    def test_thunk_prints_without_forcing(self, interp):
        v = interp.run("(delay (tick!))")
        assert print_value(v) == "#<thunk>"
        assert interp.tick_count == 0

    def test_function_printing(self, interp):
        assert print_value(interp.run("#'car")) == "#<function CAR>"
        assert print_value(interp.run("(lambda (x) x)")) == "#<lambda>"
        interp.run("(defun my-fn (x) x)")
        assert print_value(interp.run("#'my-fn")) == "#<function MY-FN>"

    def test_repr_is_the_printed_form(self, interp):
        # every value but a string, which is a host str with Python's repr
        interp.run("(defun my-fn (x) x)")
        values = [42, NIL, T, Symbol.intern("si"), Keyword.intern("y"),
                  interp.run("'(1 (2 (3)) \"s\")"), interp.run("(cons 1 (cons 2 3))"),
                  interp.run("(delay (tick!))"), interp.run("#'my-fn"),
                  interp.run("#'car"), interp.run("(lambda (x) x)")]
        for v in values:
            assert repr(v) == print_value(v)
        assert interp.tick_count == 0

    def test_round_trip_over_random_data(self):
        rng = random.Random(20260817)
        interp = Interpreter(prelude=False)

        def gen(depth):
            roll = rng.random()
            if depth == 0 or roll < 0.45:
                return rng.choice([
                    rng.randint(-999, 999),
                    Symbol.intern(rng.choice("ABC") + rng.choice("XYZ")),
                    Keyword.intern(rng.choice("KLM")),
                    "s t r\\\"",
                    NIL,
                    T,
                ])
            items = [gen(depth - 1) for _ in range(rng.randrange(4))]
            out = NIL
            for item in reversed(items):
                out = Cons(item, out)
            return out

        for _ in range(300):
            value = gen(3)
            text = print_value(value)
            again = interp.run(f"(quote {text})")
            assert print_value(again) == text


def pieces(text):
    """``text`` cut after each newline, as a REPL reads it."""
    return re.split(r"(?<=\n)", text)


class TestReader:
    def test_feed_returns_the_forms_each_piece_finishes(self):
        reader = Reader()
        assert data_of(reader.feed("(+ 1 2) (car\n")) == [[sym("+"), 1, 2]]
        assert reader.open
        assert data_of(reader.feed("'(9)) x\n")) == [
            [sym("CAR"), [sym("QUOTE"), [9]]], sym("X")]
        assert not reader.open
        reader.close()

    def test_a_string_across_pieces_keeps_its_lines_and_columns(self):
        reader = Reader()
        assert reader.feed('  ("ab\n') == []
        assert reader.open
        assert reader.feed("\n") == []
        [form] = reader.feed('c" y)\n')
        text, y = form.datum
        assert (text.datum, text.line, text.col) == ("ab\n\nc", 1, 4)
        assert (y.datum, y.line, y.col) == (sym("Y"), 3, 4)

    def test_an_escape_error_lines_after_the_quote_is_placed_on_its_line(self):
        text = '(x "a\nb\n c\\q")'
        assert (read_error(text).line, read_error(text).col) == (3, 3)
        first, second, third = pieces(text)
        reader = Reader()
        reader.feed(first)
        reader.feed(second)
        with pytest.raises(ReadError) as exc:
            reader.feed(third)
        assert exc.value.message == "unknown string escape '\\q'"
        assert (exc.value.line, exc.value.col) == (3, 3)


# Characters that mean something to the reader, and a few that do not.
_READER_ALPHABET = "()'#\";\\ \t\r\n:+-019azTnil\x01\x0b²"

_ATOM_SOURCES = st.one_of(
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1).map(str),
    st.text(alphabet="aznil+*<=/!-019²١", min_size=1, max_size=6),
    st.text(alphabet="az019", min_size=1, max_size=4).map(lambda s: ":" + s),
    st.text(alphabet='ab "\\\n;()', max_size=6).map(
        lambda s: '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'),
)

_FORM_SOURCES = st.recursive(
    _ATOM_SOURCES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda items: "(" + " ".join(items) + ")"),
        inner.map(lambda text: "'" + text),
        inner.map(lambda text: "#'" + text),
    ),
    max_leaves=12,
)


# Blanks, comments and strings that span lines, to put between forms.
_BLANK_RUNS = st.lists(st.sampled_from([" ", "\t", "\r", "\n", "; note (\n", '"x\ny"', '"\n"']),
                       max_size=5).map("".join)

_SPACED_SOURCES = st.lists(
    st.tuples(_BLANK_RUNS, st.sampled_from(" \t\r\n"), _FORM_SOURCES), min_size=1, max_size=4,
).map(lambda parts: "".join(blanks + gap + form for blanks, gap, form in parts))

_ATOM_LEXEME = re.compile(r"""[^ \t\r\n()'";#]+""")
_STRING_LEXEME = re.compile(r'"(?:[^"\\]|\\.)*"')


def same_value(a, b):
    if isinstance(a, Cons) and isinstance(b, Cons):
        return same_value(a.car, b.car) and same_value(a.cdr, b.cdr)
    return type(a) is type(b) and a == b


def assert_round_trips(forms):
    for form in forms:
        value = form_to_value(form)
        again = read_source(print_value(value))
        assert len(again) == 1
        assert same_value(form_to_value(again[0]), value)


class TestReaderProperties:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.text(alphabet=_READER_ALPHABET, max_size=60))
    def test_any_text_reads_or_raises_read_error(self, text):
        try:
            forms = read_source(text)
        except ReadError:
            return
        assert_round_trips(forms)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(_FORM_SOURCES, min_size=1, max_size=4).map(" ".join))
    def test_printed_forms_read_back_as_the_same_value(self, text):
        forms = read_source(text)
        assert forms
        assert_round_trips(forms)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_SPACED_SOURCES)
    def test_every_form_is_positioned_at_the_first_character_of_its_lexeme(self, text):
        line_starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
        pending = read_source(text)
        assert pending
        while pending:
            form = pending.pop()
            at = line_starts[form.line - 1] + form.col - 1
            rest, datum = text[at:], form.datum
            if isinstance(datum, list) and rest[0] in "'#":
                # quote sugar: its head sits at the mark too
                head, target = datum
                assert (head.line, head.col) == (form.line, form.col)
                assert head.datum is sym("QUOTE" if rest[0] == "'" else "FUNCTION")
                pending.append(target)
            elif isinstance(datum, list):
                assert rest[0] == "("
                pending.extend(datum)
            elif rest[0] == "(":
                assert datum is NIL and rest[1] == ")"
            elif rest[0] == '"':
                assert data(_STRING_LEXEME.match(rest).group()) == [datum]
            else:
                assert at == 0 or not _ATOM_LEXEME.match(text, at - 1)
                assert data(_ATOM_LEXEME.match(rest).group()) == [datum]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.from_regex(r"[+-]?0{0,3}[0-9]{17,22}", fullmatch=True))
    @example("9223372036854775807")
    @example("-9223372036854775808")
    @example("9223372036854775808")
    @example("-0009223372036854775809")
    def test_integer_spellings_read_as_python_int_says(self, text):
        # 17 to 26 characters: values on both sides of the 64-bit edges, and
        # spellings both shorter and longer than 20 characters
        value = int(text)
        if -(2 ** 63) <= value < 2 ** 63:
            assert data(f"(x {text})") == [[sym("X"), value]]
        else:
            err = read_error(f"(x {text})")
            assert err.message == f"integer literal {text} outside the 64-bit signed range"
            assert (err.line, err.col) == (1, 4) and not err.incomplete

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.one_of(st.text(alphabet=_READER_ALPHABET, max_size=60), _SPACED_SOURCES))
    def test_text_fed_line_by_line_reads_as_the_whole_text(self, text):
        whole = read_outcome(lambda: read_source(text))

        def fed():
            reader = Reader()
            forms = [form for piece in pieces(text) for form in reader.feed(piece)]
            opened = reader.open
            reader.close()
            assert not opened   # close raised, as the whole text did, if a form was open
            return forms
        assert read_outcome(fed) == whole


def read_outcome(read):
    """The forms ``read`` returns, with positions at every depth, or its error."""
    def shape(form):
        datum = [shape(f) for f in form.datum] if isinstance(form.datum, list) else form.datum
        return (datum, form.line, form.col)
    try:
        return [shape(form) for form in read()]
    except ReadError as err:
        return ("error", err.message, err.line, err.col, err.incomplete)
