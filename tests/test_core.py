"""Evaluator: atoms, special forms, application, binding, budgets."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clz import (
    NIL,
    BuiltinFunction,
    DivergenceError,
    EvalError,
    Interpreter,
    Keyword,
    LispError,
    ReadError,
    StepLimitExceeded,
    Symbol,
    T,
    print_value,
)
from clz.core import MAX_RECURSION_LIMIT
from clz.reader import read_source
from tests.conftest import to_py


class TestAtoms:
    def test_self_evaluating(self, interp):
        assert interp.run("42") == 42
        assert interp.run('"hi"') == "hi"
        assert interp.run(":k").name == "K"
        assert interp.run("t") is T
        assert interp.run("nil") is NIL
        assert interp.run("()") is NIL

    def test_symbol_reads_binding(self, interp):
        interp.run("(defparameter x 7)")
        assert interp.run("x") == 7

    def test_unbound_symbol(self, interp):
        with pytest.raises(EvalError) as exc:
            interp.run("(undefined-fn 1)")
        assert exc.value.kind == "unbound-symbol"
        assert "UNDEFINED-FN" in exc.value.message

    def test_case_insensitive_lookup(self, interp):
        interp.run("(defparameter BigName 3)")
        assert interp.run("bigname") == 3


class TestSpecialForms:
    def test_quote(self, interp):
        assert interp.run("'x") is Symbol.intern("X")
        assert to_py(interp.run("'(1 2 (3))")) == [1, 2, [3]]
        assert interp.run("''a").car is Symbol.intern("QUOTE")

    def test_if_branches(self, interp):
        assert interp.run("(if nil 1 2)") == 2
        assert interp.run("(if t 1 2)") == 1
        assert interp.run("(if 0 1 2)") == 1  # only nil is false
        assert interp.run("(if nil 1)") is NIL

    def test_if_evaluates_exactly_one_branch(self, interp):
        interp.run("(if t (tick!) (tick!))")
        assert interp.tick_count == 1

    def test_if_arity(self, interp):
        with pytest.raises(EvalError) as exc:
            interp.run("(if t)")
        assert exc.value.kind == "malformed-special-form"

    def test_progn(self, interp):
        assert interp.run("(progn 1 2 3)") == 3
        assert interp.run("(progn)") is NIL
        interp.run("(progn (tick!) (tick!))")
        assert interp.tick_count == 2

    def test_let_parallel(self, interp):
        interp.run("(defparameter x 1)")
        assert interp.run("(let ((x 2) (y x)) y)") == 1

    def test_let_shapes(self, interp):
        assert interp.run("(let () 5)") == 5
        assert interp.run("(let (x) x)") is NIL
        assert interp.run("(let ((x)) x)") is NIL
        assert interp.run("(let ((x 1) (y 2)) (+ x y))") == 3

    # Reported at the second binding, before its initializer runs.
    @pytest.mark.parametrize("source, where, ticks", [
        ("(let ((x 1) (x 2)) x)", "1:13", 0),
        ("(let (x x) x)", "1:9", 0),
        ("(let ((x (tick!)) (x (tick!))) x)", "1:19", 1),
    ], ids=["pairs", "bare", "ticks-once"])
    def test_let_binding_one_name_twice_is_malformed(self, interp, source, where, ticks):
        with pytest.raises(EvalError) as exc:
            interp.run(source)
        assert (exc.value.kind, exc.value.message, exc.value.where()) == (
            "malformed-special-form", "duplicate let variable X", where)
        assert interp.tick_count == ticks

    def test_let_scoping_restores(self, interp):
        interp.run("(defparameter x 10)")
        assert interp.run("(let ((x 1)) x)") == 1
        assert interp.run("x") == 10

    def test_closure_sees_let_frame(self, interp):
        interp.run("(defparameter f (let ((n 5)) (lambda (m) (+ n m))))")
        interp.run("(defparameter n 100)")
        assert interp.run("(funcall f 1)") == 6

    def test_lambda_direct_application(self, interp):
        assert interp.run("((lambda (x) x) 7)") == 7
        assert interp.run("((lambda (x &optional (y 1)) (+ x y)) 2)") == 3

    def test_function_on_symbol_and_lambda(self, interp):
        fn = interp.run("#'car")
        assert interp.apply(fn, [interp.run("'(9)")]) == 9
        assert interp.run("(funcall (function (lambda (x) (* x x))) 5)") == 25

    def test_function_on_non_function(self, interp):
        interp.run("(defparameter x 5)")
        with pytest.raises(EvalError) as exc:
            interp.run("#'x")
        assert exc.value.kind == "not-a-function"

    def test_defun_returns_name_and_installs(self, interp):
        assert interp.run("(defun add2 (x) (+ x 2))") is Symbol.intern("ADD2")
        assert interp.run("(add2 40)") == 42

    def test_defun_redefinition(self, interp):
        interp.run("(defun g () 1)")
        interp.run("(defun g () 2)")
        assert interp.run("(g)") == 2

    def test_defparameter_returns_name(self, interp):
        assert interp.run("(defparameter v (+ 1 2))") is Symbol.intern("V")
        assert interp.run("v") == 3

    def test_defun_inside_body_hits_global_frame(self, interp):
        interp.run("(progn (defun h () 9))")
        assert interp.run("(h)") == 9

    def test_ecase_matches_symbol_identity(self, interp):
        assert interp.run("(ecase 'car (car 1) (cdr 2))") == 1
        assert interp.run("(ecase 'cdr (car 1) (cdr 2))") == 2

    def test_ecase_no_match(self, interp):
        with pytest.raises(EvalError) as exc:
            interp.run("(ecase 'foo (car 1))")
        assert exc.value.kind == "ecase-no-match"

    def test_ecase_key_evaluated_once_bodies_lazy(self, interp):
        assert interp.run("(ecase (progn (tick!) 'b) (a (tick!) 10) (b 20))") == 20
        assert interp.tick_count == 1

    def test_ecase_t_and_nil_keys(self, interp):
        assert interp.run("(ecase t (t 1) (nil 2))") == 1
        assert interp.run("(ecase nil (t 1) (nil 2))") == 2

    def test_ecase_multi_form_body(self, interp):
        assert interp.run("(ecase 'a (a 1 2 3))") == 3

    # An atom key is read as an operand is: a lazy slot is forced, by need
    # once, a strict frame's thunk is not, and an unbound key is positioned.
    _TWICE = ("(deflazy f (k) (list (ecase k (a 1)) (ecase k (a 2))))"
              " (lazy-call 'f (progn (tick!) 'a))")
    _SLOT = "(deflazy f (k) (ecase k (a 1))) (lazy-call 'f (delay 'a))"

    @pytest.mark.parametrize("memoize, source, expected, ticks", [
        (False, _TWICE, ("(1 2)", 18, 1), 2),
        (True, _TWICE, ("(1 2)", 14, 1), 1),
        (False, _SLOT, ("1", 7, 2), 0),
        (True, _SLOT, ("1", 7, 2), 0),
        (False, "(let ((k (delay 'a))) (ecase k (a 1)))",
         (("ecase-no-match", "#<thunk> matched no ecase clause", "1:23"), 4, 1), 0),
        (False, "(ecase\n  nope (a 1))",
         (("unbound-symbol", "unbound symbol NOPE", "2:3"), 2, 0), 0),
    ], ids=["slot-read-twice-by-name", "slot-read-twice-by-need", "slot-thunk-by-name",
            "slot-thunk-by-need", "strict-frame-thunk", "unbound"])
    def test_an_atom_ecase_key(self, memoize, source, expected, ticks):
        interp = Interpreter(memoize=memoize, prelude=False)
        assert _outcome(interp, source) == expected
        assert interp.tick_count == ticks

    def test_loop_rejects_clauses(self, interp):
        with pytest.raises(EvalError) as exc:
            interp.run("(loop 1)")
        assert exc.value.kind == "malformed-special-form"

    def test_loop_trips_step_limit(self):
        interp = Interpreter(step_limit=1000, prelude=False)
        with pytest.raises(StepLimitExceeded):
            interp.run("(loop)")


_IF_SHAPE = "if takes a condition, a then-form, and an optional else-form"
_FUNCTION_SHAPE = "function takes exactly one name or lambda form"
_DEFPARAMETER_SHAPE = "defparameter takes a name and one value form"

# One form of each head with too few items and, where the head has a
# most, one with too many. progn takes any number of forms, and no list
# is shorter than (loop).
_BAD_SHAPES = [
    ("(quote)", "quote takes exactly one form"),
    ("(quote a b)", "quote takes exactly one form"),
    ("(if t)", _IF_SHAPE),
    ("(if t 1 2 3)", _IF_SHAPE),
    ("(let)", "let needs a binding list"),
    ("(lambda)", "lambda needs a lambda list"),
    ("(function)", _FUNCTION_SHAPE),
    ("(function car cdr)", _FUNCTION_SHAPE),
    ("(defun f)", "defun needs a name and a lambda list"),
    ("(deflazy f)", "deflazy needs a name and a lambda list"),
    ("(defparameter x)", _DEFPARAMETER_SHAPE),
    ("(defparameter x 1 2)", _DEFPARAMETER_SHAPE),
    ("(ecase)", "ecase needs a key form"),
    ("(loop 1)", "only the empty (loop) form is supported"),
    ("(lazy-call)", "lazy-call needs an operator"),
    ("(lazy)", "lazy takes exactly one expression"),
    ("(lazy car cdr)", "lazy takes exactly one expression"),
    ("(delay)", "delay takes exactly one expression"),
    ("(delay 1 2)", "delay takes exactly one expression"),
]

_HEADS = ["quote", "if", "progn", "let", "lambda", "function", "defun",
          "deflazy", "defparameter", "ecase", "loop", "lazy-call", "lazy",
          "delay"]
_OPERANDS = ["x", "1", '"s"', ":k", "nil", "t", "'a", "()", "(x)", "(1 2)",
             "((x 1))", "(x &optional (y 2))", "(&rest)", "(a 1)", "(car 1)",
             "#'car", "#'(lambda)", "(lambda)", "(lambda (x) x)", "(loop)",
             "(diverge)"]


def _special_form(operands):
    return st.builds(lambda head, ops: f"({' '.join([head, *ops])})",
                     st.sampled_from(_HEADS), st.lists(operands, max_size=4))


class TestSpecialFormShapes:
    def _malformed(self, interp, source):
        with pytest.raises(EvalError) as exc:
            interp.run(source)
        assert exc.value.kind == "malformed-special-form"
        return exc.value.message, exc.value.where()

    @pytest.mark.parametrize("source, message", _BAD_SHAPES)
    def test_bad_item_count(self, interp, source, message):
        assert self._malformed(interp, source) == (message, "1:1")
        assert self._malformed(interp, f"(progn 1 {source})") == (message, "1:10")

    @pytest.mark.parametrize("source, message, where", [
        ("(ecase 'a 5)", "malformed ecase clause 5", "1:11"),
        ("(ecase 'a ((b) 1))", "ecase clause keys must be unevaluated symbols", "1:12"),
    ])
    def test_bad_ecase_clause(self, interp, source, message, where):
        assert self._malformed(interp, source) == (message, where)

    def test_ecase_clauses_after_the_match_are_not_checked(self, interp):
        assert interp.run("(ecase 'a (a 1) 5)") == 1

    def test_unevaluated_lambda_in_function_is_checked(self, interp):
        message = "lambda needs a lambda list"
        assert self._malformed(interp, "#'(lambda)") == (message, "1:3")
        assert self._malformed(interp, "(function (lambda))") == (message, "1:11")

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_special_form(st.sampled_from(_OPERANDS)
                         | _special_form(st.sampled_from(_OPERANDS))),
           st.booleans(), st.booleans())
    def test_any_item_count_returns_or_raises_lisp_error(self, source, lazy, memoize):
        interp = Interpreter(memoize=memoize, step_limit=10_000, prelude=False)
        if lazy:
            interp.run("(deflazy f (&optional a b) (list a b))")
            source = f"(lazy-call 'f {source} 2)"
        try:
            value = interp.run(source)
        except LispError:
            return
        assert isinstance(print_value(value), str)


class TestApplication:
    def test_strict_args_left_to_right_once_each(self, interp):
        v = interp.run("(list (tick!) (tick!) (tick!))")
        assert to_py(v) == [1, 2, 3]
        assert interp.tick_count == 3

    def test_calling_a_non_function(self, interp):
        with pytest.raises(EvalError) as exc:
            interp.run("(42 1)")
        assert exc.value.kind == "not-a-function"

    def test_arity_too_few(self, interp):
        interp.run("(defun two (x y) x)")
        with pytest.raises(EvalError) as exc:
            interp.run("(two 1)")
        assert exc.value.kind == "arity-mismatch"

    def test_arity_too_many(self, interp):
        interp.run("(defun one (x) x)")
        with pytest.raises(EvalError) as exc:
            interp.run("(one 1 2)")
        assert exc.value.kind == "arity-mismatch"

    @pytest.mark.parametrize("source, message", [
        ("(-)", "- takes at least 1 argument(s), got 0"),
        ("(funcall)", "FUNCALL takes at least 1 argument(s), got 0"),
    ])
    def test_builtin_with_too_few_arguments(self, interp, source, message):
        with pytest.raises(EvalError) as exc:
            interp.run(source)
        assert (exc.value.kind, exc.value.message) == ("arity-mismatch", message)

    # A builtin's arity message, the same when called, through funcall and
    # through lazy-call of its lazy copy (apply's lazy path).
    @pytest.mark.parametrize("template", [
        "({}{})", "(funcall #'{}{})", "(lazy-call (lazy #'{}){})",
    ], ids=["call", "funcall", "lazy-call"])
    @pytest.mark.parametrize("name, args, message", [
        ("car", " 1 2", "CAR takes 1 argument(s), got 2"),
        ("ticks", " 1", "TICKS takes 0 argument(s), got 1"),
        ("-", "", "- takes at least 1 argument(s), got 0"),
        ("two", " 1 2 3", "TWO takes 1 to 2 argument(s), got 3"),
    ], ids=["exact", "none", "at-least", "range"])
    def test_builtin_arity_messages(self, template, name, args, message):
        interp = Interpreter(prelude=False)
        two = Symbol.intern("TWO")
        interp.global_env[two] = BuiltinFunction(two, lambda interp, args: NIL, 1, 2)
        source = "\n  " + template.format(name, args)
        assert _outcome(interp, source)[0] == ("arity-mismatch", message, "2:3")

    def test_error_carries_position(self, interp):
        with pytest.raises(EvalError) as exc:
            interp.run("\n  (boom)")
        # the position names the unbound symbol itself, inside the form
        assert (exc.value.line, exc.value.col) == (2, 4)

    def test_divergence_carries_call_site_position(self, interp):
        with pytest.raises(DivergenceError) as exc:
            interp.run("\n   (diverge)")
        assert (exc.value.line, exc.value.col) == (2, 4)

    @pytest.mark.parametrize("source, printed", [
        # a strict frame's thunk is passed on as it is, unforced
        ("(let ((d (delay (diverge)))) (cons 1 d))", "(1 . #<thunk>)"),
        # so is a global's, and a strict default's, read in a copy of its frame
        ("(defparameter d (delay 1)) (cons 1 d)", "(1 . #<thunk>)"),
        ("(defun g (x &optional (y x)) y) (cons 1 (g (delay 1)))", "(1 . #<thunk>)"),
        # a lazy default's copy of its frame is lazy too, and forces the slot
        ("(deflazy k (x &optional (y (list x))) y) (lazy-call 'k (+ 1 2))", "(3)"),
        # a parameter shadows the global function of the same name
        ("(defun f (car) (+ car 1)) (f 2)", "3"),
        # A is bound two frames above the innermost body's frame
        ("(defun adder (a) (lambda (b) (lambda (c) (list a b c))))"
         " (funcall (funcall (adder 1) 2) 3)", "(1 2 3)"),
    ], ids=["strict-thunk", "global-thunk", "strict-default-thunk", "lazy-default",
            "shadowed-global", "two-frames-up"])
    def test_operand_symbols_read_as_lookup_does(self, interp, source, printed):
        assert print_value(interp.run(source)) == printed

    # (OP ARGS...) enters a strict function or an in-arity builtin in
    # evaluate's loop, and (funcall OP ARGS...) a strict function too; apply
    # takes every other funcall.
    @pytest.mark.parametrize("op, args, expected", [
        ("sq", "3", "9"),
        ("sq", "", "arity-mismatch"),
        ("sq", "1 2", "arity-mismatch"),
        ("(lambda (&optional (x 2)) x)", "", "2"),
        ("car", "", "arity-mismatch"),
        ("car", "'(1 2)", "1"),
        ("car", "1 2", "arity-mismatch"),
        ("car", "1", "type-error"),
        ("-", "", "arity-mismatch"),
        ("-", "5 2 1", "2"),
        ("+", "", "0"),
        ("list", "1 2 3 4 5", "(1 2 3 4 5)"),
        ("(lazy #'car)", "'(1)", "lazy-through-strict"),
        ("(lazy #'sq)", "3", "lazy-through-strict"),
        ("1", "2", "not-a-function"),
        ('"s"', "", "not-a-function"),
        ("funcall", "#'car '(1 2)", "1"),
        ("funcall", "", "arity-mismatch"),
        ("funcall", "#'sq 4", "16"),
    ])
    def test_a_call_and_its_funcall_agree(self, op, args, expected):
        def outcome(source):
            interp = Interpreter(prelude=False)
            interp.run("(defun sq (x) (* x x))")
            try:
                return print_value(interp.run(source))
            except LispError as err:
                return err.kind, err.message, f"{err.line}:{err.col}"

        direct = outcome(f"\n  ({op} {args})")
        assert direct == outcome(f"\n  (funcall {op} {args})")
        if isinstance(direct, tuple):
            assert (direct[0], direct[2]) == (expected, "2:3")
        else:
            assert direct == expected


# Every malformed-lambda-list message, with the line:col it is reported at.
_BAD_LAMBDA_LISTS = [
    ("(lambda 5 1)", "lambda list must be a list, got 5", "1:9"),
    ("(defun f x x)", "lambda list must be a list, got X", "1:10"),
    ("(lambda (1) 1)", "expected a parameter name, got 1", "1:10"),
    ('(lambda (x &optional ("s")) 1)', 'expected a parameter name, got "s"', "1:23"),
    ("(lambda (&optional (x 1 2)) 1)", "expected a parameter name, got 2", "1:25"),
    ("(lambda (&key ((:k 1))) 1)", "expected a parameter name, got 1", "1:20"),
    ("(lambda (&rest 1) 1)", "expected a parameter name, got 1", "1:16"),
    ("(lambda (x x) x)", "duplicate parameter name X", "1:12"),
    ("(lambda (x &optional (y 1 x)) 1)", "duplicate parameter name X", "1:27"),
    ("(lambda (x &rest x) 1)", "duplicate parameter name X", "1:18"),
    ("(lambda (&key x (x)) 1)", "duplicate parameter name X", "1:18"),
    ("(lambda (x &key ((:k x))) 1)", "duplicate parameter name X", "1:18"),  # at the pair
    ("(lambda (&aux y) y)", "unknown lambda-list marker &AUX", "1:10"),
    ("(lambda (&rest r &key &aux) 1)", "unknown lambda-list marker &AUX", "1:23"),
    ("(lambda (&key &optional) 1)", "&OPTIONAL out of order", "1:15"),
    ("(lambda (&optional x &optional) 1)", "&OPTIONAL out of order", "1:22"),
    ("(lambda (&key &rest r) 1)", "&REST out of order", "1:15"),
    ("(lambda (&rest) 1)", "&rest must be followed by one parameter name", "1:10"),
    ("(lambda (x &rest &key) 1)", "&rest must be followed by one parameter name", "1:12"),
    ("(lambda (&rest &aux) 1)", "&rest must be followed by one parameter name", "1:10"),
    ("(lambda (&optional &rest) 1)", "&rest must be followed by one parameter name", "1:20"),
    ("(lambda (&rest r x) 1)", "only &key may follow the &rest parameter", "1:18"),
    ("(lambda (&rest r &optional) 1)", "only &key may follow the &rest parameter", "1:18"),
    ("(lambda (&rest r &rest s) 1)", "only &key may follow the &rest parameter", "1:18"),
    ("(lambda (&rest r &aux) 1)", "only &key may follow the &rest parameter", "1:18"),
    ("(lambda (&optional 5) 1)", "malformed &optional parameter 5", "1:20"),
    ("(lambda (&optional ()) 1)", "malformed &optional parameter NIL", "1:20"),
    ("(lambda (&optional (a 1 b c)) 1)", "malformed &optional parameter (A 1 B C)", "1:20"),
    ("(lambda (&key 5) 1)", "malformed &key parameter 5", "1:15"),
    ('(lambda (&key ("k")) 1)', 'malformed &key parameter ("k")', "1:15"),
    ("(lambda (&key (&key)) 1)", "malformed &key parameter (&KEY)", "1:15"),
    ("(lambda (&key ((k x))) 1)", "malformed &key name pair (K X)", "1:16"),
    ("(lambda (&key ((:k))) 1)", "malformed &key name pair (:K)", "1:16"),
    ("(lambda (&key ((:k x y))) 1)", "malformed &key name pair (:K X Y)", "1:16"),
    ("(defun f (&optional (&aux 1)) &aux)", "expected a parameter name, got &AUX", "1:22"),
    ("(lambda (&key ((:k &aux))) 1)", "expected a parameter name, got &AUX", "1:20"),
]

_LAMBDA_LIST_ITEMS = ["&optional", "&rest", "&key", "&aux", "x", "y", "1",
                      ":k", "nil", '"s"', "(:k x)", "()"]


class TestLambdaListBinding:
    def test_optional_default_eager_left_to_right(self, interp):
        assert interp.run("((lambda (x &optional (y (+ x 1))) (+ x y)) 2)") == 5
        assert interp.run("((lambda (x &optional (y (+ x 1))) (+ x y)) 2 10)") == 12

    def test_optional_supplied_p(self, interp):
        interp.run("(defun s (&optional (x 0 sp)) (if sp 'yes 'no))")
        assert interp.run("(s)") is Symbol.intern("NO")
        assert interp.run("(s 1)") is Symbol.intern("YES")

    def test_optional_without_default_binds_nil(self, interp):
        assert interp.run("((lambda (&optional y) y))") is NIL

    def test_rest_collects(self, interp):
        interp.run("(defun r (x &rest more) more)")
        assert to_py(interp.run("(r 1 2 3)")) == [2, 3]
        assert interp.run("(r 1)") is NIL

    def test_keyword_binding(self, interp):
        interp.run("(defun k (x &key (y 10)) (+ x y))")
        assert interp.run("(k 1)") == 11
        assert interp.run("(k 1 :y 2)") == 3

    def test_keyword_alias(self, interp):
        interp.run("(defun k2 (x &key ((:y yy) 10)) (+ x yy))")
        assert interp.run("(k2 1 :y 5)") == 6

    def test_keyword_supplied_p(self, interp):
        interp.run("(defun k3 (&key (y 0 sp)) (if sp y 'missing))")
        assert interp.run("(k3)") is Symbol.intern("MISSING")
        assert interp.run("(k3 :y nil)") is NIL

    def test_first_keyword_occurrence_wins(self, interp):
        interp.run("(defun k4 (&key y) y)")
        assert interp.run("(k4 :y 1 :y 2)") == 1

    def test_unknown_keyword(self, interp):
        interp.run("(defun k5 (&key y) y)")
        with pytest.raises(EvalError) as exc:
            interp.run("(k5 :z 1)")
        assert exc.value.kind == "unknown-keyword-argument"

    def test_odd_keyword_tail(self, interp):
        interp.run("(defun k6 (&key y) y)")
        with pytest.raises(EvalError) as exc:
            interp.run("(k6 :y)")
        assert exc.value.kind == "odd-keyword-arguments"

    def test_rest_then_keys(self, interp):
        interp.run("(defun rk (&rest r &key y) (list r y))")
        v = to_py(interp.run("(rk :y 3)"))
        assert v == [[Keyword.intern("Y"), 3], 3]

    def test_empty_key_section_still_takes_keyword_arguments(self, interp):
        # &key with no parameters is not the same as no &key at all
        interp.run("(defun rk (&rest r &key) r) (defun k (&key) 1)")
        assert interp.run("(k)") == 1
        for call, kind, message in [
            ("(rk :a 1)", "unknown-keyword-argument", "RK does not accept the keyword :A"),
            ("(k :a 1)", "unknown-keyword-argument", "K does not accept the keyword :A"),
            ("(k :a)", "odd-keyword-arguments", "K received an odd number of keyword arguments"),
        ]:
            with pytest.raises(EvalError) as exc:
                interp.run(call)
            assert (exc.value.kind, exc.value.message) == (kind, message)
        assert interp.run("(rk)") is NIL

    def test_duplicate_parameter_rejected(self, interp):
        with pytest.raises(EvalError) as exc:
            interp.run("(defun bad (x x) x)")
        assert exc.value.kind == "malformed-lambda-list"

    def test_section_order_enforced(self, interp):
        with pytest.raises(EvalError) as exc:
            interp.run("(defun bad2 (&rest r &optional y) r)")
        assert exc.value.kind == "malformed-lambda-list"

    def test_unknown_marker_rejected(self, interp):
        with pytest.raises(EvalError) as exc:
            interp.run("(defun bad3 (&aux y) y)")
        assert exc.value.kind == "malformed-lambda-list"

    def test_rest_needs_a_name(self, interp):
        with pytest.raises(EvalError) as exc:
            interp.run("(defun bad4 (&rest) 1)")
        assert exc.value.kind == "malformed-lambda-list"

    @pytest.mark.parametrize("args, message", [
        ("", "F expected at least 2 argument(s), got 0"),
        (" 1", "F expected at least 2 argument(s), got 1"),
        (" 1 2 3", "F expected at most 2 argument(s), got 3"),
    ])
    def test_required_only_arity_errors_agree_across_modes(self, args, message):
        seen = set()
        for memoize, call in [(False, "(f"), (False, "(lazy-call 'f"), (True, "(lazy-call 'f")]:
            interp = Interpreter(memoize=memoize, prelude=False)
            interp.run("(deflazy f (a b) (list a b))")
            with pytest.raises(EvalError) as exc:
                interp.run(f"(progn\n  {call}{args}))")
            seen.add((exc.value.kind, exc.value.message, exc.value.where()))
        assert seen == {("arity-mismatch", message, "2:3")}

    @pytest.mark.parametrize("memoize", [False, True])
    def test_required_only_lazy_call_leaves_an_unread_parameter_alone(self, memoize):
        interp = Interpreter(memoize=memoize, prelude=False)
        interp.run("(deflazy f (a b) a) (deflazy g (a b) (+ b b))")
        assert interp.run("(lazy-call 'f (+ 1 2) (diverge))") == 3
        assert interp.run("(lazy-call 'g (diverge) (+ 1 2))") == 6

    @pytest.mark.parametrize("memoize", [False, True])
    def test_other_lambda_lists_still_bind_flags_and_rest_lists(self, memoize):
        interp = Interpreter(memoize=memoize, prelude=False)
        interp.run("(deflazy o (a &optional (b 5 bp)) (list a b bp))"
                   "(deflazy r (a &rest more) (list a more))"
                   "(deflazy k (a &key (b 7 bp)) (list a b bp))")
        for call, expected in [
            ("o 1", [1, 5, []]),
            ("o 1 2", [1, 2, True]),
            ("r 1", [1, []]),
            ("r 1 2 3", [1, [2, 3]]),
            ("k 1", [1, 7, []]),
            ("k 1 :b 2", [1, 2, True]),
        ]:
            for source in (f"({call})", f"(lazy-call '{call})"):
                assert to_py(interp.run(source)) == expected, source

    @pytest.mark.parametrize("source, message, where", _BAD_LAMBDA_LISTS)
    def test_malformed_lambda_list_message_and_position(self, interp, source, message, where):
        with pytest.raises(EvalError) as exc:
            interp.run(source)
        assert (exc.value.kind, exc.value.message, exc.value.where()) == \
            ("malformed-lambda-list", message, where)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_LAMBDA_LIST_ITEMS)
                    | st.lists(st.sampled_from(_LAMBDA_LIST_ITEMS), max_size=4)
                    .map(lambda items: f"({' '.join(items)})"), max_size=6))
    def test_any_lambda_list_parses_or_is_malformed_on_line_one(self, items):
        interp = Interpreter(prelude=False)
        try:
            interp.run(f"(lambda ({' '.join(items)}) 1)")
        except EvalError as err:
            assert err.kind == "malformed-lambda-list"
            assert err.line == 1


class TestBudgets:
    @pytest.mark.parametrize("budget", ["step_limit", "recursion_limit"])
    def test_a_budget_must_be_positive(self, budget):
        with pytest.raises(ValueError, match=f"^{budget} must be positive$"):
            Interpreter(**{budget: 0}, prelude=False)

    def test_recursion_limit_has_a_maximum(self):
        Interpreter(recursion_limit=MAX_RECURSION_LIMIT, prelude=False)
        with pytest.raises(ValueError, match=f"^recursion_limit must be at most "
                                             f"{MAX_RECURSION_LIMIT}$"):
            Interpreter(recursion_limit=MAX_RECURSION_LIMIT + 1, prelude=False)

    def test_a_host_limit_near_the_largest_c_int_stays_valid(self):
        # the caller's own limit plus eval_top's raise would pass 2**31 - 1
        found = sys.getrecursionlimit()
        sys.setrecursionlimit(2**31 - 10)
        try:
            interp = Interpreter(recursion_limit=MAX_RECURSION_LIMIT, prelude=False)
            assert interp.run("(+ 1 2)") == 3
            assert sys.getrecursionlimit() == 2**31 - 10
        finally:
            sys.setrecursionlimit(found)

    def test_recursion_limit_kind(self):
        interp = Interpreter(recursion_limit=300, prelude=False)
        interp.run("(defun down (n) (if (= n 0) 0 (down (- n 1))))")
        with pytest.raises(EvalError) as exc:
            interp.run("(down 100000)")
        assert exc.value.kind == "recursion-limit"

    def test_depth_within_limit_is_fine(self):
        interp = Interpreter(recursion_limit=2000, prelude=False)
        interp.run("(defun down (n) (if (= n 0) 0 (down (- n 1))))")
        assert interp.run("(down 400)") == 0

    def test_host_recursion_error_is_tagged(self):
        # 3 depth units per stream element: under the default limits the
        # depth guard stops this long before the host ceiling would; the
        # failure carries the recursion-limit kind, and the interpreter
        # stays usable afterwards
        interp = Interpreter()
        with pytest.raises(EvalError) as exc:
            interp.run("(stream-take (integers-from 0) 30000)")
        assert exc.value.kind == "recursion-limit"
        assert interp.run("(+ 1 1)") == 2

    @pytest.mark.parametrize("memoize", [False, True], ids=["by-name", "by-need"])
    @pytest.mark.parametrize("link", [
        "(deflazy link (x) (lambda (k) (if k x (lazy-call 'link x))))",
        "(deflazy link (x &optional (y x)) (lambda (k) (if k y (lazy-call 'link y))))",
    ], ids=["across-forms", "optional-default"])
    def test_chains_of_thunks_over_variables_cost_no_depth(self, link, memoize):
        # a chain of thunks over a variable, each in the lazy frame of the
        # one before, built across top-level forms: force follows it in its
        # own loop, so forcing its end needs neither depth nor host stack
        interp = Interpreter(memoize=memoize, recursion_limit=10, prelude=False)
        interp.run(link)
        interp.run("(defparameter f (lazy-call 'link 0))")
        for _ in range(2500):
            interp.run("(defparameter f (funcall f nil))")
        assert interp.run("(funcall f t)") == 0
        assert interp.run("(funcall f t)") == 0

    def test_host_recursion_error_names_the_recursion_limit(self):
        def blow(interp, args):
            raise RecursionError("maximum recursion depth exceeded")

        interp = Interpreter(prelude=False)
        name = Symbol.intern("BLOW")
        interp.global_env[name] = BuiltinFunction(name, blow, 0, 0)
        found = sys.getrecursionlimit()
        with pytest.raises(EvalError) as exc:
            interp.run("1\n  (progn (+ 1 (blow)))")
        assert exc.value.kind == "recursion-limit"
        assert exc.value.message == ("host recursion limit hit (deep nesting or forcing); "
                                     "lower the program's depth or raise the recursion limit")
        assert (exc.value.line, exc.value.col) == (2, 3)
        assert sys.getrecursionlimit() == found
        assert interp.run("(+ 1 1)") == 2

    # Each runaway construction nests at most 5 host frames per unit of
    # depth, the ceiling eval_top sets, so the depth guard stops every one.
    @pytest.mark.parametrize("setup, program", [
        ("(defun f (n) (+ 1 (f n)))", "(f 1)"),
        ("(defun f (n) (+ 1 (funcall #'f n)))", "(f 1)"),
        ("(defun d (&optional (x (d))) x)", "(d)"),
        ("(defun d (&optional (x (funcall #'d))) x)", "(d)"),
        ("(deflazy d (&optional (x (lazy-call 'd))) x)", "(lazy-call 'd)"),
        ("(defun f () (lazy-call (lazy #'+) 1 (f)))", "(f)"),
        ("(deflazy k (&key a) a) (defun f () (lazy-call 'k (f) 1))", "(f)"),
        ("(deflazy g (x) #'x) (defun f () (lazy-call 'g (f)))", "(f)"),
        ("(defun f () (force (delay (f))))", "(f)"),
        ("(defun f () (if (f) 1 2))", "(f)"),
        ("(defun f () (let ((x (f))) x))", "(f)"),
        ("(defun f () (ecase (f) (a 1)))", "(f)"),
        ("(defun f () (defparameter p (f)))", "(f)"),
        ("(defun f () (lazy (f)))", "(f)"),
        ("(defun f () (lazy-call (f)))", "(f)"),
        ("", "(" * 50_000 + ")" * 50_000),
    ], ids=["argument", "funcall-argument", "strict-optional-default",
            "funcall-optional-default", "lazy-optional-default", "lazy-builtin", "key-marker",
            "function-of-a-lazy-slot", "force-delay", "if-test", "let-initializer",
            "ecase-key", "defparameter-value", "lazy", "lazy-call-operator",
            "nested-parens"])
    def test_runaway_recursion_meets_the_depth_guard(self, setup, program):
        interp = Interpreter(recursion_limit=5000, prelude=False)
        interp.run(setup)
        with pytest.raises(EvalError) as exc:
            interp.run(program)
        assert exc.value.message == "recursion depth exceeded the limit of 5000"

    # The shapes that nest the most host frames per unit of depth, 5 on Python
    # 3.11: forms nested inside lazy-call, as a lazy builtin's argument, as a
    # keyword marker, and under a lazy funcall's strict default. A lazy slot
    # that a strict default reads by name nests 4: evaluate runs its form itself.
    @pytest.mark.parametrize("setup, program", [
        ("", "(lazy-call (lazy #'+) 1 " * 6000 + "1" + ")" * 6000),
        ("(deflazy k (&key a) a)", "(lazy-call 'k " * 6000 + ":a" + " 1)" * 6000),
        ("(defun d (&optional (x (lazy-call (lazy #'funcall) #'d))) x)", "(d)"),
        ("(deflazy outer (x) (progn (defun inner (&optional (y x)) y) (inner)))",
         "(lazy-call 'outer (inner))"),
    ], ids=["lazy-builtin-argument", "keyword-marker", "lazy-funcall-default",
            "lazy-slot-as-default"])
    def test_the_deepest_host_shapes_meet_the_depth_guard(self, setup, program):
        interp = Interpreter(recursion_limit=5000, prelude=False)
        interp.run(setup)
        with pytest.raises(EvalError) as exc:
            interp.run(program)
        assert exc.value.message == "recursion depth exceeded the limit of 5000"

    def test_deep_forcing_on_a_thread_with_a_small_stack(self):
        # a Python-to-Python call takes no C stack, so any thread gets the
        # ceiling its recursion limit sets, whatever the thread's stack size
        outcome = {}

        def work():
            interp = Interpreter(recursion_limit=100_000)
            outcome["value"] = interp.run("(stream-take (integers-from 0) 30000)")

        old_size = threading.stack_size(256 * 1024)
        try:
            worker = threading.Thread(target=work)
            worker.start()
            worker.join()
        finally:
            threading.stack_size(old_size)
        assert to_py(outcome["value"]) == list(range(30_000))

    # Tail positions run in evaluate's own loop, so on the calling thread
    # these reach the depth guard, or finish, before the host ceiling.
    def test_long_stream_prefix_on_the_calling_thread(self):
        value = Interpreter(recursion_limit=100_000).run("(stream-take (integers-from 0) 10000)")
        assert to_py(value) == list(range(10_000))

    def test_deep_funcall_recursion_on_the_calling_thread(self):
        interp = Interpreter(recursion_limit=100_000, prelude=False)
        interp.run("(defun down (n) (if (= n 0) 0 (+ 1 (funcall #'down (- n 1)))))")
        assert interp.run("(down 5000)") == 5000

    def test_tail_recursion_meets_the_depth_guard_not_the_host_limit(self):
        interp = Interpreter(prelude=False)
        interp.run("(defun down (n) (if (= n 0) 0 (down (- n 1))))")
        with pytest.raises(EvalError) as exc:
            interp.run("(down 20000)")
        assert exc.value.message == "recursion depth exceeded the limit of 10000"
        assert (exc.value.line, exc.value.col) == (1, 21)

    def test_interpreters_leave_the_host_recursion_limit_alone(self):
        found = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            interp = Interpreter()
            assert sys.getrecursionlimit() == 1000
            interp.run("(stream-take (integers-from 0) 500)")
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(found)

    @pytest.mark.parametrize("memoize, program, col", [
        (False, "(defun down (n) (if (= n 0) 0 (funcall #'down (- n 1))))"
                "(down 100000)", 21),
        (True, "(deflazy chain (x n) (if (= n 0) x (lazy-call 'chain x (- n 1))))"
               "(lazy-call 'chain 7 100000)", 26),
    ])
    def test_depth_guard_fires_before_the_host_limit(self, memoize, program, col):
        # funcall recursion, and a by-need chain of thunks over a symbol
        interp = Interpreter(memoize=memoize, recursion_limit=1000)
        with pytest.raises(EvalError) as exc:
            interp.run(program)
        assert exc.value.message == "recursion depth exceeded the limit of 1000"
        assert (exc.value.line, exc.value.col) == (1, col)

    def test_step_budget_resets_per_top_level_form(self):
        interp = Interpreter(step_limit=2000, prelude=False)
        src = "(+ 1 2)" * 3
        interp.run(src)  # three cheap forms, each under the budget

    def test_step_limit_carries_position(self):
        interp = Interpreter(step_limit=50, prelude=False)
        with pytest.raises(StepLimitExceeded) as exc:
            interp.run("(loop)")
        assert (exc.value.line, exc.value.col) == (1, 1)

    def test_interpreters_are_independent(self):
        a, b = Interpreter(), Interpreter()
        a.run("(tick!)")
        assert a.tick_count == 1
        assert b.tick_count == 0
        a.run("(defparameter only-a 1)")
        with pytest.raises(EvalError):
            b.run("only-a")
        # every interpreter's global frame holds the same builtin objects
        a.run("(defun car (x) 0) (defparameter + 1) (defparameter c (lazy #'cdr))")
        assert b.run("(car '(1 2))") == 1
        assert b.run("(+ 1 2)") == 3
        assert print_value(b.run("(cdr '(1 2))")) == "(2)"
        assert print_value(a.run("(lazy-call c '(1 2))")) == "(2)"


class TestFormCache:
    """What a form's first evaluation keeps on it changes no later outcome."""

    @staticmethod
    def _errors(interp, source, times=2):
        outcomes = []
        for _ in range(times):
            with pytest.raises(EvalError) as exc:
                interp.run(source)
            outcomes.append((exc.value.kind, exc.value.message, exc.value.where()))
        return outcomes

    def test_malformed_form_in_a_body_raises_on_every_call(self, interp):
        interp.run("(defun f (x)\n  (if x (if)))")
        expected = ("malformed-special-form",
                    "if takes a condition, a then-form, and an optional else-form", "2:9")
        assert self._errors(interp, "(f 1)") == [expected, expected]
        assert interp.run("(f nil)") is NIL

    def test_bad_lambda_list_in_a_body_raises_on_every_call(self, interp):
        interp.run("(defun f (x) (funcall (lambda (y y) y) x))")
        expected = ("malformed-lambda-list", "duplicate parameter name Y", "1:34")
        assert self._errors(interp, "(f 1)", 3) == [expected] * 3

    def test_quoted_list_returned_twice_prints_the_same(self, interp):
        interp.run("(defun q () '(1 (2 \"s\") :k))")
        assert [print_value(interp.run("(q)")) for _ in range(2)] == ['(1 (2 "s") :K)'] * 2

    def test_each_lambda_list_is_parsed_once(self, interp, monkeypatch):
        from clz import lambdalist
        calls = []
        parse = lambdalist.parse_lambda_list
        monkeypatch.setattr(lambdalist, "parse_lambda_list",
                            lambda form: calls.append(form) or parse(form))
        interp.run("(defun adder (n) (lambda (x &optional (y n)) (+ x y)))")
        assert interp.run("(+ (funcall (adder 1) 10) (funcall (adder 2) 10 5))") == 26
        assert [repr(form) for form in calls] == ["(N)", "(X &OPTIONAL (Y N))"]

    def test_one_form_in_two_interpreters_calls_each_ones_function(self):
        (form,) = read_source("(list (g 1) '(a) (funcall (lambda (x) (* x 2)) 4))")
        results = []
        for body in ("(+ x 1)", "(- x 1)"):
            interp = Interpreter(prelude=False)
            interp.run(f"(defun g (x) {body})")
            results.append(print_value(interp.eval_top(form)))
            results.append(print_value(interp.eval_top(form)))
        assert results == ["(2 (A) 8)"] * 2 + ["(0 (A) 8)"] * 2


_FIB = "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
_LFIB = ("(deflazy lfib (n) (if (< n 2) n "
         "(+ (lazy-call 'lfib (- n 1)) (lazy-call 'lfib (- n 2)))))")

# A call-heavy form: constants, a keyword, globals, locals, lazy-parameter
# reads and nested calls, on several lines so that positions differ. The
# bodies of sq and mix run inside it, so their positions show up too.
_WALK_SETUP = """(defparameter g 10)
(defun sq (x) (* x x))
(deflazy mix (a b) (list a (sq b) g))"""
_WALK_FORM = """(list 1 g
      (sq (+ g 2))
      (lazy-call 'mix g (sq 3))
      ((lambda (y) (cons y g)) :k))"""
# Where the step after the first k runs out, for k = 1, 2, ...: each item
# costs one step where it stands, and a thunk's steps come where it is forced.
_WALK_STOPS = (
    "1:2 1:7 1:9 2:7 2:8 2:11 2:12 2:14 2:16 2:15 2:16 2:18 2:20 3:7 3:18 "
    "3:20 3:21 3:26 3:23 3:28 3:29 3:32 3:25 3:26 3:29 2:15 2:16 2:18 2:20 "
    "2:15 2:16 2:18 2:20 3:35 4:7 4:8 4:32 4:20 4:21 4:26 4:28").split()


class TestStepAccounting:
    """One step per form evaluated, and thunks as the lazy convention makes them."""

    @staticmethod
    def _counts(interp, source):
        before = interp.thunk_allocations
        interp.run(source)
        return interp._steps, interp.thunk_allocations - before

    def test_strict_fib(self):
        interp = Interpreter(prelude=False)
        interp.run(_FIB)
        assert self._counts(interp, "(fib 10)") == (2209, 0)

    @pytest.mark.parametrize("memoize, steps", [(False, 8001), (True, 2209)])
    def test_lazy_fib(self, memoize, steps):
        interp = Interpreter(memoize=memoize, prelude=False)
        interp.run(_LFIB)
        assert self._counts(interp, "(lazy-call 'lfib 10)") == (steps, 176)

    @pytest.mark.parametrize("memoize, second", [(False, (4210, 200)), (True, (3310, 0))])
    def test_two_passes_over_a_stream(self, memoize, second):
        interp = Interpreter(memoize=memoize)
        interp.run("(defparameter nats (integers-from 0))")
        assert self._counts(interp, "(stream-take nats 100)") == (4210, 200)
        assert self._counts(interp, "(stream-take nats 100)") == second

    def test_step_limit_stops_at_every_step_in_order(self):
        interp = Interpreter(prelude=False)
        interp.run(_WALK_SETUP)
        assert print_value(interp.run(_WALK_FORM)) == "(1 10 144 (10 81 10) (:K . 10))"
        total = interp._steps
        assert total == len(_WALK_STOPS) + 1
        for limit, stop in enumerate(_WALK_STOPS, start=1):
            interp.step_limit = limit
            with pytest.raises(StepLimitExceeded) as exc:
                interp.run(_WALK_FORM)
            assert f"{exc.value.line}:{exc.value.col}" == stop, limit
        interp.step_limit = total
        assert print_value(interp.run(_WALK_FORM)) == "(1 10 144 (10 81 10) (:K . 10))"


# A body that reads a quote, an atom ecase key (a symbol, then a constant) and
# a quoted lazy-call operator in evaluate's loop, with no nested evaluate. A
# body's forms are kept, so from the second call on each quote is read from
# its cache.
_IN_PLACE_SETUP = ("(defparameter k 'a) (deflazy h (x) x)\n"
                   "(defun walk ()\n  (list 'a\n    (ecase k (a 1))\n"
                   "    (ecase nil (nil 2))\n    (lazy-call 'h 3)))")
# Where the step after the first k runs out, as nested evaluation puts it.
_IN_PLACE_STOPS = "1:2 3:3 3:4 3:9 4:5 4:12 4:17 5:5 5:12 5:21 6:5 6:16 6:19 1:36".split()


def _outcome(interp, source):
    """The printed value, or the error's kind, message and line:col; then the
    steps taken and the thunks made."""
    before = interp.thunk_allocations
    try:
        value = print_value(interp.run(source))
    except LispError as err:
        value = (err.kind, err.message, err.where())
    return value, interp._steps, interp.thunk_allocations - before


class TestReadsInTheLoop:
    """A lazy slot, a quote and a funcall are read or entered in evaluate's
    loop, with the value, steps, thunks and errors (kind, message, line:col)
    that nested evaluation gives."""

    @pytest.mark.parametrize("memoize", [False, True], ids=["by-name", "by-need"])
    @pytest.mark.parametrize("body, printed, steps, thunks", [
        ("(+ x 0)", "1", 8, 2),
        ("x", "1", 5, 2),
        ("(if t x 0)", "1", 7, 2),
    ], ids=["operand", "tail", "if-branch"])
    def test_a_slot_whose_form_gives_a_thunk_is_forced_through(self, memoize, body, printed,
                                                                steps, thunks):
        interp = Interpreter(memoize=memoize, prelude=False)
        interp.run(f"(deflazy f (x) {body})")
        assert _outcome(interp, "(lazy-call 'f (delay 1))") == (printed, steps, thunks)

    @pytest.mark.parametrize("memoize, steps, thunks", [(False, 10, 3), (True, 8, 2)],
                             ids=["by-name", "by-need"])
    def test_a_slot_read_twice_runs_its_form_twice_only_by_name(self, memoize, steps, thunks):
        interp = Interpreter(memoize=memoize, prelude=False)
        interp.run("(deflazy f (x) (list x x))")
        assert _outcome(interp, "(lazy-call 'f (delay 1))") == ("(1 1)", steps, thunks)

    def test_step_limit_on_a_quote_an_ecase_key_and_a_quoted_operator(self):
        interp = Interpreter(prelude=False)
        interp.run(_IN_PLACE_SETUP)
        assert print_value(interp.run("(walk)")) == "(A 1 2 3)"
        assert interp._steps == len(_IN_PLACE_STOPS) + 1
        for limit, stop in enumerate(_IN_PLACE_STOPS, start=1):
            interp.step_limit = limit
            with pytest.raises(StepLimitExceeded) as exc:
                interp.run("(walk)")
            assert exc.value.where() == stop, limit
        interp.step_limit = len(_IN_PLACE_STOPS) + 1
        assert print_value(interp.run("(walk)")) == "(A 1 2 3)"

    # Each body is run once under a roomy limit first, so its quote is cached.
    @pytest.mark.parametrize("call, limit, expected", [
        ("(q)", 1, ("recursion-limit", "recursion depth exceeded the limit of 1", "2:13")),
        ("(q)", 2, ("recursion-limit", "recursion depth exceeded the limit of 2", "2:19")),
        ("(q)", 3, "(A)"),
        ("(o)", 2, ("recursion-limit", "recursion depth exceeded the limit of 2", "3:24")),
        ("(o)", 3, "3"),
        ("(e)", 2, ("recursion-limit", "recursion depth exceeded the limit of 2", "4:20")),
        ("(e)", 3, "1"),
    ], ids=["body-over", "quote-over", "quote-within", "operator-over", "operator-within",
            "ecase-key-over", "ecase-key-within"])
    def test_depth_limit_at_a_quote(self, call, limit, expected):
        interp = Interpreter(prelude=False)
        interp.run("(deflazy h (x) x)\n(defun q () (list 'a))\n"
                   "(defun o () (lazy-call 'h 3))\n(defun e () (ecase 'a (a 1)))")
        interp.run(call)
        interp.recursion_limit = limit
        assert _outcome(interp, call)[0] == expected

    @pytest.mark.parametrize("setup, source, printed, steps", [
        ("", "(list 'a)", "(A)", 3),
        ("(deflazy h (x) x)", "(lazy-call 'h 3)", "3", 4),
    ], ids=["operand", "lazy-call-operator"])
    def test_an_interrupt_while_a_quote_is_dispatched_keeps_nothing(
            self, monkeypatch, setup, source, printed, steps):
        # A Ctrl-C while a quote's value is made leaves the quote undispatched
        # and its operand without a value, so the next evaluation starts afresh.
        interp = Interpreter(prelude=False)
        interp.run(setup)
        (form,) = read_source(source)
        quote = form.datum[1]

        def interrupt(form):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr("clz.core.form_to_value", interrupt)
            with pytest.raises(KeyboardInterrupt):
                interp.eval_top(form)
        assert quote.cache is None
        assert quote.datum[1].cache is None
        for _ in range(2):  # the second evaluation reads the quote in place
            assert print_value(interp.eval_top(form)) == printed
            assert interp._steps == steps

    @pytest.mark.parametrize("source, expected", [
        ("(funcall 'nope)", ("unbound-symbol", "unbound symbol NOPE", "2:3")),
        ("(funcall (lazy #'f))", ("lazy-through-strict", "#<function F> has the lazy "
                                  "calling convention; call it with lazy-call", "2:3")),
        ("(funcall)", ("arity-mismatch", "FUNCALL takes at least 1 argument(s), got 0", "2:3")),
        ("(funcall #'f 1 2)", ("arity-mismatch", "F expected at most 1 argument(s), got 2",
                               "2:3")),
        ("(funcall 'f 1)", "1"),
        ("(funcall #'funcall #'f 1)", "1"),
        ("(funcall #'f (delay 1))", "#<thunk>"),  # a strict frame: its slot is not forced
    ], ids=["unbound", "lazy-only", "no-function", "too-many", "symbol", "funcall-funcall",
            "strict-frame"])
    def test_funcall_outcomes(self, source, expected):
        interp = Interpreter(prelude=False)
        interp.run("(defun f (x) x)")
        assert _outcome(interp, "\n  " + source)[0] == expected

    @pytest.mark.parametrize("memoize, last", [
        (False, ("type-error", "car expects a cons or nil, got 8", "1:87")),
        (True, "7"),
    ], ids=["by-name", "by-need"])
    def test_a_thunk_that_fails_at_a_loop_top_read_is_unevaluated_again(self, memoize, last):
        interp = Interpreter(memoize=memoize, prelude=False)
        interp.run("(defparameter v 1) (deflazy keep (x) (lambda () x))"
                   " (defparameter th (lazy-call 'keep (car v)))")
        # the closure's body is the bare symbol x, read at the loop's top
        assert _outcome(interp, "\n  (funcall th)") == (
            ("type-error", "car expects a cons or nil, got 1", "1:87"), 7, 0)
        interp.run("(defparameter v '(7))")
        assert _outcome(interp, "(funcall th)") == ("7", 7, 0)
        # by need the value is now its memo cell; by name the form runs again
        assert _outcome(interp, "(defparameter v 8) (funcall th)")[0] == last


class TestErrorKinds:
    def test_every_error_class_carries_its_kind(self):
        assert LispError("m").kind == "error"
        assert ReadError("m").kind == "read-error"
        assert DivergenceError("m").kind == "divergence"
        assert StepLimitExceeded("m").kind == "step-limit"
        assert EvalError("m", kind="type-error").kind == "type-error"

    @pytest.mark.parametrize("source, kind, start", [
        ("(+ 1 big)", "type-error", "+ expects integers, got (0 1 2 "),
        (f'(car "{"x" * 2000}")', "type-error", 'car expects a cons or nil, got "xxx'),
        (f'(cdr "{"x" * 2000}")', "type-error", 'cdr expects a cons or nil, got "xxx'),
        ("(funcall big)", "not-a-function", "(0 1 2 "),
        ("(lazy big)", "not-a-function", "(0 1 2 "),
        (f"(funcall (lazy #'{'f' * 2000}))", "lazy-through-strict", "#<function FFF"),
        ("(ecase big (a 1))", "ecase-no-match", "(0 1 2 "),
        ("(k big 1)", "type-error", "K expected a keyword marker, got (0 1 2 "),
    ], ids=["+", "car", "cdr", "funcall", "lazy", "lazy-through-strict", "ecase", "keyword"])
    def test_a_quoted_value_is_cut_to_80_characters(self, interp, source, kind, start):
        interp.run(f"(defparameter big (stream-take (integers-from 0) 2000))"
                   f"(defun {'f' * 2000} () 1) (defun k (&key y) y)")
        with pytest.raises(EvalError) as exc:
            interp.run(source)
        assert exc.value.kind == kind
        assert exc.value.message.startswith(start)
        # the value printed is 77 characters and "...", in a one-line message
        assert "..." in exc.value.message and len(exc.value.message) < 140

    @pytest.mark.parametrize("source, kind, message", [
        (f"({'U' * 2000} 1)", "unbound-symbol", f"unbound symbol {'U' * 77}..."),
        (f"#'{'V' * 2000}", "not-a-function", f"{'V' * 77}... does not name a function"),
        (f"({'F' * 2000})", "arity-mismatch",
         f"{'F' * 77}... expected at least 1 argument(s), got 0"),
        (f"(k :{'K' * 2000} 1)", "unknown-keyword-argument",
         f"K does not accept the keyword :{'K' * 76}..."),
        (f"(lazy-call '{'U' * 2000})", "no-lazy-version",
         f"{'U' * 77}... has no lazy version (define it with deflazy)"),
        (f"(lambda ({'F' * 2000} {'F' * 2000}) 1)", "malformed-lambda-list",
         f"duplicate parameter name {'F' * 77}..."),
        (f"(lambda (&{'U' * 2000}) 1)", "malformed-lambda-list",
         f"unknown lambda-list marker &{'U' * 76}..."),
    ], ids=["lookup", "function", "label", "keyword", "lazy-call", "duplicate", "marker"])
    def test_a_name_is_cut_to_80_characters(self, interp, source, kind, message):
        interp.run(f"(defparameter {'V' * 2000} 1) (defun {'F' * 2000} (x) x)"
                   "(defun k (&key y) y)")
        with pytest.raises(EvalError) as exc:
            interp.run(source)
        assert (exc.value.kind, exc.value.message) == (kind, message)

    # evaluate's except positions a call-level error at the innermost call
    # form, and one check names each definition's symbol.
    @pytest.mark.parametrize("limit, source, kind, where, message", [
        (3, "(+ 1 (+ 1 (+ 1 (+ 1 2))))", "recursion-limit", "1:16",
         "recursion depth exceeded the limit of 3"),
        (None, "(ecase (quote b)\n  (a 1))", "ecase-no-match", "1:1",
         "B matched no ecase clause"),
        (None, "(defun 1 (x) x)", "malformed-special-form", "1:8",
         "defun name must be a symbol"),
        (None, '(deflazy "f" () 1)', "malformed-special-form", "1:10",
         "deflazy name must be a symbol"),
        (None, "(defparameter :k 1)", "malformed-special-form", "1:15",
         "defparameter name must be a symbol"),
    ], ids=["depth", "ecase", "defun", "deflazy", "defparameter"])
    def test_kind_position_and_message(self, limit, source, kind, where, message):
        interp = Interpreter(recursion_limit=limit or 10_000, prelude=False)
        with pytest.raises(EvalError) as exc:
            interp.run(source)
        assert (exc.value.kind, exc.value.where(), exc.value.message) == (kind, where, message)
