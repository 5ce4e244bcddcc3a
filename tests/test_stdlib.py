"""Primitives, instrumentation counters, and the lazy stream library."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clz import (
    NIL,
    Cons,
    DivergenceError,
    EvalError,
    Interpreter,
    T,
)
from clz.prelude import PRELUDE_SOURCE
from tests.conftest import to_py

INT_MAX = 2 ** 63 - 1
INT_MIN = -(2 ** 63)

# Operand sources for the two-operand property: the 64-bit edges, and each
# non-integer with the text a type error prints for it.
_EDGES = [INT_MIN, INT_MIN + 1, -1, 0, 1, INT_MAX - 1, INT_MAX]
_NOT_INTS = {'"x"': '"x"', "nil": "NIL", "'(1)": "(1)"}
_TWO_OPERAND_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                    "<": operator.lt, "=": operator.eq}


def _two_operand_reference(op, a, b):
    """What (OP A B) gives: its value, or an error's (kind, message)."""
    for x in (a, b):
        if type(x) is not int:
            return "type-error", f"{op} expects integers, got {_NOT_INTS[x]}"
    value = _TWO_OPERAND_OPS[op](a, b)
    if type(value) is bool:
        return T if value else NIL
    if not INT_MIN <= value <= INT_MAX:
        return "overflow", f"{op}: result exceeds the 64-bit signed range"
    return value


class TestArithmetic:
    def test_addition(self, interp):
        assert interp.run("(+ 20 20 2)") == 42
        assert interp.run("(+)") == 0
        assert interp.run("(+ 5)") == 5

    def test_subtraction(self, interp):
        assert interp.run("(- 10 3 2)") == 5
        assert interp.run("(- 5)") == -5

    def test_multiplication(self, interp):
        assert interp.run("(* 2 3 7)") == 42
        assert interp.run("(*)") == 1

    def test_increment(self, interp):
        assert interp.run("(1+ 41)") == 42
        assert interp.run("(1+ -1)") == 0

    def test_numeric_equality(self, interp):
        assert interp.run("(= 3 3 3)") is T
        assert interp.run("(= 3 4)") is NIL
        assert interp.run("(= 3)") is T

    def test_less_than_chain(self, interp):
        assert interp.run("(< 1 2 3)") is T
        assert interp.run("(< 1 3 2)") is NIL
        assert interp.run("(< 2 2)") is NIL

    def test_64_bit_boundaries(self, interp):
        assert interp.run(f"(+ {INT_MAX} 0)") == INT_MAX
        assert interp.run(f"(- {INT_MIN} 0)") == INT_MIN

    @pytest.mark.parametrize("src", [
        f"(1+ {INT_MAX})",
        f"(+ {INT_MAX} 1)",
        f"(- {INT_MIN} 1)",
        f"(* {INT_MAX} 2)",
        f"(- {INT_MIN})",
    ])
    def test_overflow_is_an_error(self, interp, src):
        with pytest.raises(EvalError) as exc:
            interp.run(src)
        assert exc.value.kind == "overflow"

    def test_type_error_on_non_integers(self, interp):
        with pytest.raises(EvalError) as exc:
            interp.run('(+ 1 "two")')
        assert exc.value.kind == "type-error"
        with pytest.raises(EvalError):
            interp.run("(1+ 'a)")

    @pytest.mark.parametrize("src, message", [
        ('(+ 1 "two")', '+ expects integers, got "two"'),
        ("(- 'a)", "- expects integers, got A"),
        ("(- 5 1 :k)", "- expects integers, got :K"),
        ("(* 2 t)", "* expects integers, got T"),
        ("(1+ nil)", "1+ expects integers, got NIL"),
        ("(= '(1))", "= expects integers, got (1)"),
        ("(= 1 1 \"x\")", '= expects integers, got "x"'),
        ("(< 1 2 'b)", "< expects integers, got B"),
        ("(< :k)", "< expects integers, got :K"),
    ])
    def test_type_error_messages(self, interp, src, message):
        with pytest.raises(EvalError) as exc:
            interp.run(f"(progn\n  {src})")
        assert (exc.value.kind, exc.value.message, exc.value.where()) == (
            "type-error", message, "2:3")

    @pytest.mark.parametrize("src, message", [
        (f"(+ {INT_MAX} 1)", "+: result exceeds the 64-bit signed range"),
        (f"(+ {INT_MAX} 1 -1)", "+: result exceeds the 64-bit signed range"),
        (f"(- {INT_MIN})", "-: result exceeds the 64-bit signed range"),
        (f"(- 0 {INT_MAX} 2 -5)", "-: result exceeds the 64-bit signed range"),
        (f"(* {INT_MAX} 2 0)", "*: result exceeds the 64-bit signed range"),
        (f"(1+ {INT_MAX})", "1+: result exceeds the 64-bit signed range"),
    ])
    def test_overflow_messages_at_the_partial_result(self, interp, src, message):
        with pytest.raises(EvalError) as exc:
            interp.run(src)
        assert (exc.value.kind, exc.value.message) == ("overflow", message)

    def test_overflow_before_a_later_type_error(self, interp):
        with pytest.raises(EvalError) as exc:
            interp.run(f'(+ {INT_MAX} 1 "x")')
        assert exc.value.kind == "overflow"

    def test_comparisons_stop_before_later_operands(self, interp):
        assert interp.run('(= 1 2 "x")') is NIL
        assert interp.run('(< 2 1 "x")') is NIL

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(st.sampled_from(sorted(_TWO_OPERAND_OPS)),
           *[st.sampled_from(_EDGES + sorted(_NOT_INTS)) | st.integers(INT_MIN, INT_MAX)] * 2)
    def test_two_operands_match_a_python_reference(self, op, a, b):
        interp = Interpreter(prelude=False)
        expected = _two_operand_reference(op, a, b)
        try:
            got = interp.run(f"(progn\n  ({op} {a} {b}))")
        except EvalError as err:
            assert err.where() == "2:3"
            got = err.kind, err.message
        assert got == expected


class TestListsAndPredicates:
    def test_cons_car_cdr(self, interp):
        assert interp.run("(car (cons 1 2))") == 1
        assert interp.run("(cdr (cons 1 2))") == 2

    def test_car_cdr_of_nil(self, interp):
        assert interp.run("(car nil)") is NIL
        assert interp.run("(cdr nil)") is NIL

    def test_car_of_non_list(self, interp):
        with pytest.raises(EvalError) as exc:
            interp.run("(car 5)")
        assert exc.value.kind == "type-error"

    def test_list_builds_proper_lists(self, interp):
        assert to_py(interp.run("(list 1 2 3)")) == [1, 2, 3]
        assert interp.run("(list)") is NIL

    def test_not_and_null(self, interp):
        assert interp.run("(not nil)") is T
        assert interp.run("(not 0)") is NIL
        assert interp.run("(null nil)") is T
        assert interp.run("(null (list 1))") is NIL

    def test_funcall_applies(self, interp):
        v = interp.run("(funcall #'cons 1 2)")
        assert isinstance(v, Cons) and v.car == 1 and v.cdr == 2

    def test_funcall_accepts_a_symbol_designator(self, interp):
        assert interp.run("(funcall 'car '(5))") == 5

    def test_funcall_arity(self, interp):
        with pytest.raises(EvalError) as exc:
            interp.run("(funcall #'cons 1)")
        assert exc.value.kind == "arity-mismatch"


class TestInstrumentation:
    def test_ticks_starts_at_zero(self, interp):
        assert interp.run("(ticks)") == 0

    def test_tick_increments_and_returns_new_count(self, interp):
        assert interp.run("(tick!)") == 1
        assert interp.run("(tick!)") == 2
        assert interp.run("(ticks)") == 2
        assert interp.run("(progn (tick!) (tick!) (ticks))") == 4

    def test_counters_are_per_instance(self):
        a, b = Interpreter(), Interpreter()
        a.run("(tick!)")
        assert b.run("(ticks)") == 0

    def test_diverge_raises(self, interp):
        with pytest.raises(DivergenceError):
            interp.run("(diverge)")

    def test_print_writes_value_and_newline(self, interp, capsys):
        result = interp.run("(print (list 1 2))")
        assert capsys.readouterr().out == "(1 2)\n"
        assert to_py(result) == [1, 2]

    def test_print_returns_its_value_through(self, interp, capsys):
        assert interp.run("(+ 1 (print 2))") == 3
        assert capsys.readouterr().out == "2\n"


class TestStreams:
    def ll(self, interp):
        interp.run(
            "(defparameter ll (lazy-call 'conc 1"
            " (lazy-call 'conc (diverge)"
            "  (lazy-call 'conc 3 (diverge)))))"
        )

    def test_building_with_divergent_holes_raises_nothing(self, interp):
        self.ll(interp)

    def test_first_element(self, interp):
        self.ll(interp)
        assert interp.run("(head ll)") == 1

    def test_third_element_skips_the_hole(self, interp):
        self.ll(interp)
        assert interp.run("(head (tail (tail ll)))") == 3

    def test_second_element_is_the_hole(self, interp):
        self.ll(interp)
        with pytest.raises(DivergenceError):
            interp.run("(head (tail ll))")

    def test_selector_other_than_car_cdr(self, interp):
        self.ll(interp)
        with pytest.raises(EvalError) as exc:
            interp.run("(funcall ll 'middle)")
        assert exc.value.kind == "ecase-no-match"

    def test_stream_take_prefix_law(self, interp):
        # oracle: a strict finite unfold, i.e. Python's range
        for k in (0, 1, 17, -3):
            for n in (0, 1, 2, 5, 64):
                got = to_py(interp.run(f"(stream-take (integers-from {k}) {n})"))
                assert got == list(range(k, k + n))

    def test_stream_is_not_consumed_by_reading(self, interp):
        interp.run("(defparameter s (integers-from 5))")
        assert to_py(interp.run("(stream-take s 3)")) == [5, 6, 7]
        assert to_py(interp.run("(stream-take s 3)")) == [5, 6, 7]

    def test_conc_construction_does_not_tick(self, interp):
        interp.run("(defparameter p (lazy-call 'conc (tick!) (tick!)))")
        assert interp.tick_count == 0

    def test_one_head_forces_exactly_once(self, interp):
        interp.run("(defparameter p (lazy-call 'conc (tick!) (tick!)))")
        interp.run("(head p)")
        assert interp.tick_count == 1

    def test_head_reads_twice_without_memoization(self, interp):
        interp.run("(defparameter p (lazy-call 'conc (tick!) (tick!)))")
        interp.run("(head p)")
        interp.run("(head p)")
        assert interp.tick_count == 2

    def test_head_reads_once_with_memoization(self, interp_memo):
        interp_memo.run("(defparameter p (lazy-call 'conc (tick!) (tick!)))")
        interp_memo.run("(head p)")
        interp_memo.run("(head p)")
        assert interp_memo.tick_count == 1


class TestPreludeLoading:
    def test_prelude_is_optional(self):
        bare = Interpreter(prelude=False)
        with pytest.raises(EvalError) as exc:
            bare.run("(integers-from 0)")
        assert exc.value.kind == "unbound-symbol"

    def test_prelude_loadable_from_a_file(self, tmp_path):
        path = tmp_path / "streams.lisp"
        path.write_text(PRELUDE_SOURCE, encoding="utf-8")
        bare = Interpreter(prelude=False)
        bare.run(path.read_text(encoding="utf-8"))
        assert to_py(bare.run("(stream-take (integers-from 2) 3)")) == [2, 3, 4]

    def test_prelude_names_are_ordinary_definitions(self, interp):
        # the stream library is surface-level code: its names are normal
        # bindings, and the deflazy ones are lazily callable by symbol
        assert interp.run("(lazy-call 'head (lazy-call 'conc 7 (diverge)))") == 7
        assert interp.run("(lazy-call 'tail (lazy-call 'conc (diverge) 8))") == 8
        with pytest.raises(EvalError) as exc:
            interp.run("(lazy-call 'integers-from 1)")
        assert exc.value.kind == "no-lazy-version"
