"""Thunks, delay/force, deflazy dual definitions, lazy-call, and lazy."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clz import (
    NIL,
    BuiltinFunction,
    Cons,
    DivergenceError,
    EvalError,
    FunctionObject,
    Interpreter,
    StepLimitExceeded,
    Symbol,
    Thunk,
    print_value,
)
from clz.lazy import force
from tests.conftest import corpus, to_py


class TestDelayForce:
    def test_delay_defers_divergence(self, interp):
        v = interp.run("(delay (diverge))")
        assert isinstance(v, Thunk)

    def test_delay_constant_then_force(self, interp):
        assert interp.run("(force (delay 5))") == 5

    def test_delay_captures_environment(self, interp):
        interp.run("(defparameter th (let ((x 2)) (delay (+ x 1))))")
        interp.run("(defparameter x 99)")
        assert interp.run("(force th)") == 3

    def test_force_evaluates_delayed_arithmetic(self, interp):
        assert interp.run("(force (delay (+ 20 20 2)))") == 42

    def test_force_on_non_thunk_is_identity(self, interp):
        assert interp.run("(force 42)") == 42
        assert interp.run("(force nil)") is NIL
        v = interp.run("(force (cons 1 2))")
        assert isinstance(v, Cons)

    def test_force_is_idempotent(self, interp):
        assert interp.run("(force (force (delay 7)))") == 7

    def test_force_resolves_chained_thunks(self, interp):
        interp.run("(defparameter inner (delay 9))")
        v = interp.run("(force (delay inner))")
        # symbol reads are plain for defparameter bindings, so the inner
        # delay comes back as a value and force must chase it
        assert v == 9

    def test_call_by_name_reevaluates(self, interp):
        interp.run("(defparameter th (delay (tick!)))")
        assert interp.run("(force th)") == 1
        assert interp.run("(force th)") == 2
        assert interp.tick_count == 2

    def test_call_by_need_memoizes(self, interp_memo):
        interp_memo.run("(defparameter th (delay (tick!)))")
        assert interp_memo.run("(force th)") == 1
        assert interp_memo.run("(force th)") == 1
        assert interp_memo.tick_count == 1

    def test_memo_cell_never_holds_a_thunk(self, interp_memo):
        interp_memo.run("(defparameter inner (delay (+ 1 2)))")
        outer = interp_memo.run("(delay inner)")
        assert force(interp_memo, outer) == 3
        assert outer.expr is None and not isinstance(outer.value, Thunk)

    def test_forcing_propagates_errors(self, interp):
        with pytest.raises(DivergenceError):
            interp.run("(force (delay (diverge)))")

    def test_memo_thunk_forcing_itself_is_reentrant_force(self, interp_memo):
        src = "(defparameter x (delay (if (< (tick!) 3) (+ 100 (force x)) 0)))"
        interp_memo.run(src)
        x = interp_memo.global_env[Symbol.intern("X")]
        form = x.expr
        for ticks in (1, 2):
            with pytest.raises(EvalError) as exc:
                interp_memo.run("(force x)")
            assert exc.value.kind == "reentrant-force"
            # positioned at the inner force form
            assert (exc.value.line, exc.value.col) == (1, src.index("(force x)") + 1)
            # the failed force left x unevaluated, so the next one re-runs it
            assert x.expr is form
            assert interp_memo.tick_count == ticks

    def test_memo_thunk_depending_on_itself_is_reentrant_force(self, interp_memo):
        interp_memo.run("(defparameter y (delay (+ 1 (force y))))")
        with pytest.raises(EvalError) as exc:
            interp_memo.run("(force y)")
        assert exc.value.kind == "reentrant-force"

    def test_reentrant_force_in_a_tail_is_positioned_at_the_enclosing_form(self, interp_memo):
        # x is read in a tail position, which adds no position of its own:
        # the error takes the innermost list form's, the if or the call
        interp_memo.run("(deflazy g (x)\n  (if t x 0))\n(deflazy h (x) x)")
        for op, where in [("g", "2:3"), ("h", "1:24")]:
            interp_memo.run(f"(defparameter y (delay (lazy-call '{op} y)))")
            with pytest.raises(EvalError) as exc:
                interp_memo.run("(force y)")
            assert (exc.value.kind, exc.value.where()) == ("reentrant-force", where)

    def test_by_name_thunk_may_force_itself(self, interp):
        interp.run("(defparameter x (delay (if (< (tick!) 3) (+ 100 (force x)) 0)))")
        assert interp.run("(force x)") == 200
        assert interp.tick_count == 3


    # A chain of thunks over a variable, one link per top-level form; force
    # follows it in one loop, and the memo rules hold along all of it.
    LINK = "(deflazy link (x) (lambda (k) (if k x (lazy-call 'link x))))"
    X = Symbol.intern("X")

    def chain(self, interp, root, links=1000):
        interp.run(self.LINK)
        first = interp.run(f"(defparameter f (lazy-call 'link {root}))")
        first = interp.global_env[first].closure[self.X]
        for _ in range(links):
            interp.run("(defparameter f (funcall f nil))")
        last = interp.global_env[Symbol.intern("F")].closure[self.X]
        return first, last

    @pytest.mark.parametrize("memoize, ticks", [(False, 2), (True, 1)],
                             ids=["by-name", "by-need"])
    def test_a_chain_over_variables_runs_its_root_once_by_need(self, memoize, ticks):
        interp = Interpreter(memoize=memoize, prelude=False)
        first, last = self.chain(interp, "(tick!)")
        assert interp.run("(funcall f t)") == 1
        assert interp.run("(funcall f t)") == ticks
        assert interp.tick_count == ticks
        # by need, every memo cell on the chain, root and end, holds the value
        assert (first.expr is None, last.expr is None) == (memoize, memoize)
        if memoize:
            assert (first.value, last.value) == (1, 1)

    def test_a_chain_whose_root_forces_its_end_is_reentrant_force(self):
        interp = Interpreter(memoize=True, prelude=False)
        first, last = self.chain(interp, "(progn (tick!) (funcall f t))")
        forms = (first.expr, last.expr)
        for ticks in (1, 2):
            with pytest.raises(EvalError) as exc:
                interp.run("(funcall f t)")
            assert exc.value.kind == "reentrant-force"
            # the failed force reset the chain, so the next one runs it again
            assert interp.tick_count == ticks
            assert first.expr is forms[0] and last.expr is forms[1]

    # A force cut short by anything, not only a reentrant force, leaves the
    # thunk as it was, so the next force runs it again.
    @pytest.mark.parametrize("memoize, ticks", [(False, 3), (True, 2)],
                             ids=["by-name", "by-need"])
    def test_an_interrupted_force_runs_again(self, memoize, ticks):
        calls = []

        def stop(interp, args):
            calls.append(None)
            if len(calls) == 1:
                raise KeyboardInterrupt
            return 7

        interp = Interpreter(memoize=memoize, prelude=False)
        name = Symbol.intern("STOP")
        interp.global_env[name] = BuiltinFunction(name, stop, 0, 0)
        interp.run("(defparameter x (delay (progn (tick!) (stop))))")
        with pytest.raises(KeyboardInterrupt):
            interp.run("(force x)")
        assert interp.run("(force x)") == 7
        assert interp.tick_count == 2
        assert interp.run("(force x)") == 7
        assert interp.tick_count == ticks
        assert interp._depth == 0

    def test_a_force_out_of_steps_runs_again_by_need(self):
        interp = Interpreter(memoize=True, step_limit=50, prelude=False)
        interp.run("(defparameter x (delay (progn (tick!) (loop))))")
        x = interp.global_env[Symbol.intern("X")]
        form = x.expr
        for ticks in (1, 2):
            with pytest.raises(StepLimitExceeded):
                interp.run("(force x)")
            assert interp.tick_count == ticks
            assert x.expr is form


class TestDeflazy:
    def test_returns_name_and_installs_both_halves(self, interp):
        assert interp.run("(deflazy si (c e a) (if c e a))") is Symbol.intern("SI")
        # strict half: an ordinary call evaluating every argument
        assert interp.run("(si t 42 1)") == 42
        assert interp.run("(funcall #'si nil 1 2)") == 2
        # lazy half: reachable through lazy-call
        assert interp.run("(lazy-call #'si t 42 (diverge))") == 42

    def test_strict_half_diverges_on_unused_argument(self, interp):
        interp.run("(deflazy si (c e a) (if c e a))")
        with pytest.raises(DivergenceError):
            interp.run("(si t 42 (diverge))")

    def test_lazy_call_by_symbol(self, interp):
        interp.run("(deflazy k (x y) x)")
        assert interp.run("(lazy-call 'k 1 (diverge))") == 1

    def test_redefinition_swaps_both_halves(self, interp):
        interp.run("(deflazy f (x) 1)")
        interp.run("(deflazy f (x) 2)")
        assert interp.run("(f 0)") == 2
        assert interp.run("(lazy-call #'f (diverge))") == 2

    def test_deflazy_installs_one_dual_function(self, interp):
        interp.run("(deflazy k (x y) x)")
        fn = interp.run("#'k")
        assert isinstance(fn, FunctionObject) and fn.strict and fn.lazy
        assert not interp.run("(lazy (lambda (x) x))").strict

    def test_lazy_face_belongs_to_the_function_value(self, interp):
        # a captured function value keeps its own body, strict and lazy,
        # after the name is redefined
        interp.run("(deflazy f (x) 1)")
        interp.run("(defparameter g #'f)")
        interp.run("(deflazy f (x) 2)")
        assert interp.run("(funcall g 0)") == 1
        assert interp.run("(lazy-call g 0)") == 1
        assert interp.run("(lazy-call 'f 0)") == 2

    def test_symbol_operator_means_its_current_binding(self, interp):
        interp.run("(deflazy f (x) 1)")
        interp.run("(defparameter f 5)")
        with pytest.raises(EvalError) as exc:
            interp.run("(lazy-call 'f 0)")
        assert exc.value.kind == "not-a-function"

    def test_unbound_symbol_operator_has_no_lazy_version(self, interp):
        with pytest.raises(EvalError) as exc:
            interp.run("(lazy-call 'never-defined 1)")
        assert exc.value.kind == "no-lazy-version"

    def test_defun_razes_the_lazy_twin(self, interp):
        interp.run("(deflazy f (x) x)")
        interp.run("(defun f (x) x)")
        with pytest.raises(EvalError) as exc:
            interp.run("(lazy-call #'f 1)")
        assert exc.value.kind == "no-lazy-version"

    def test_malformed_lambda_list_fails_at_definition(self, interp):
        with pytest.raises(EvalError) as exc:
            interp.run("(deflazy bad (x x) x)")
        assert exc.value.kind == "malformed-lambda-list"
        with pytest.raises(EvalError):
            interp.run("bad")  # nothing was installed


class TestLazyCall:
    def test_projection_skips_divergent_argument(self, interp):
        interp.run("(deflazy k (x y) x)")
        assert interp.run("(lazy-call #'k 1 (diverge))") == 1

    def test_unused_argument_never_ticks(self, interp):
        interp.run("(deflazy k (x y) x)")
        interp.run("(lazy-call #'k 1 (tick!))")
        assert interp.tick_count == 0
        assert interp.run("(ticks)") == 0

    def test_parameter_read_forces(self, interp):
        interp.run("(deflazy id (x) x)")
        assert interp.run("(lazy-call #'id (+ 20 20 2))") == 42

    def test_each_read_forces_again_without_memoization(self, interp):
        interp.run("(deflazy thrice (x) (+ x x x))")
        assert interp.run("(lazy-call #'thrice (tick!))") == 1 + 2 + 3
        assert interp.tick_count == 3

    def test_memoization_forces_once(self, interp_memo):
        interp_memo.run("(deflazy thrice (x) (+ x x x))")
        assert interp_memo.run("(lazy-call #'thrice (tick!))") == 3
        assert interp_memo.tick_count == 1

    def test_constants_pass_through_without_thunks(self, interp):
        interp.run("(deflazy si (c e a) (if c e a))")
        before = interp.thunk_allocations
        interp.run("(lazy-call #'si t 1 2)")
        assert interp.thunk_allocations == before

    def test_non_constant_allocates_exactly_one_thunk(self, interp):
        interp.run("(deflazy si (c e a) (if c e a))")
        before = interp.thunk_allocations
        interp.run("(lazy-call #'si t 1 (+ 1 1))")
        assert interp.thunk_allocations == before + 1

    def test_quoted_forms_are_constants(self, interp):
        interp.run("(deflazy id (x) x)")
        before = interp.thunk_allocations
        assert to_py(interp.run("(lazy-call #'id '(1 2))")) == [1, 2]
        assert interp.thunk_allocations == before

    def test_thunk_economy_counts_only_non_constants(self, interp):
        interp.run("(deflazy f (a b c d) a)")
        before = interp.thunk_allocations
        interp.run('(lazy-call #\'f 1 "s" (+ 1 1) unbound-later)')
        assert interp.thunk_allocations == before + 2

    def test_nested_lazy_call_arguments_stay_delayed(self, interp):
        interp.run("(deflazy k (x y) x)")
        before = interp.thunk_allocations
        assert interp.run("(lazy-call #'k 1 (lazy-call #'k (diverge) 2))") == 1
        assert interp.thunk_allocations == before + 1

    def test_operator_expression_is_evaluated_strictly(self, interp):
        interp.run("(deflazy k (x y) x)")
        assert interp.run("(lazy-call (if t #'k #'k) 5 (diverge))") == 5

    @pytest.mark.parametrize("op, kind, message, thunks", [
        ("#'plain", "no-lazy-version", "PLAIN is strict and has no lazy version", 3),
        ("(lambda (a b) a)", "no-lazy-version",
         "anonymous function is strict and has no lazy version", 3),
        ("'+", "no-lazy-version", "+ is strict and has no lazy version", 3),
        ("5", "not-a-function", "5 is not a function", 3),
        # an unbound operator symbol is refused before any argument is thunked
        ("'nope", "no-lazy-version", "NOPE has no lazy version (define it with deflazy)", 0),
    ], ids=["defun", "lambda", "builtin", "non-function", "unbound-symbol"])
    def test_refusals_name_the_operator_at_the_call(self, interp, op, kind, message, thunks):
        interp.run("(defun plain (a b) a)")
        before = interp.thunk_allocations
        with pytest.raises(EvalError) as exc:
            interp.run(f"(progn\n  (lazy-call {op} 1 (+ 1 1) x (diverge)))")
        assert (exc.value.kind, exc.value.message, exc.value.where()) == (kind, message, "2:3")
        assert interp.thunk_allocations == before + thunks

    def test_lazy_builtin_gets_forced_arguments(self, interp):
        before = interp.thunk_allocations
        assert interp.run("(lazy-call (lazy #'-) 5 (+ 1 1))") == 3
        assert interp.thunk_allocations == before + 1

    def test_keyword_markers_pass_through(self, interp):
        interp.run("(deflazy f (x &key ((:y yy) (diverge))) (if x (+ x 21) yy))")
        assert interp.run("(lazy-call #'f 21)") == 42
        assert interp.run("(lazy-call #'f nil :y 42)") == 42

    def test_computed_keyword_marker_is_forced(self, interp):
        interp.run("(deflazy f (&key a b) b) (defparameter k :b)")
        assert interp.run("(f k 1)") == 1
        assert interp.run("(lazy-call 'f k 1)") == 1
        # the value after a computed marker stays delayed
        assert interp.run("(lazy-call 'f (car '(:a)) (diverge) :b 2)") == 2

    def test_keyword_default_stays_delayed(self, interp):
        interp.run("(deflazy f (x &key (y (diverge) ysp)) (if ysp y x))")
        assert interp.run("(lazy-call #'f 42)") == 42
        assert interp.run("(lazy-call #'f 1 :y 42)") == 42

    def test_supplied_p_readable_without_forcing(self, interp):
        interp.run("(deflazy f (&key (y (tick!) sp)) (if sp 'given 'defaulted))")
        assert interp.run("(lazy-call #'f)") is Symbol.intern("DEFAULTED")
        assert interp.run("(lazy-call #'f :y (tick!))") is Symbol.intern("GIVEN")
        assert interp.tick_count == 0

    def test_optional_default_may_reference_earlier_parameter(self, interp):
        interp.run("(deflazy f (x &optional (y x)) y)")
        assert interp.run("(lazy-call #'f (+ 1 2))") == 3
        interp.run("(deflazy g (x &optional (y x)) 'done)")
        assert interp.run("(lazy-call #'g (tick!))") is Symbol.intern("DONE")
        assert interp.tick_count == 0

    @pytest.mark.parametrize("memoize", [False, True])
    def test_defaults_do_not_see_later_parameters(self, memoize):
        # a default names a global that a later parameter shadows; only
        # the parameters before it are in scope, as in a strict call
        interp = Interpreter(memoize=memoize, prelude=False)
        interp.run("(defparameter b 100)"
                   "(deflazy f (&optional (a b) b) a)"
                   "(deflazy k (&key (a b) (b 7)) a)")
        for call in ("(f)", "(lazy-call 'f)", "(k)", "(lazy-call 'k)"):
            assert interp.run(call) == 100, call

    @pytest.mark.parametrize("memoize", [False, True])
    def test_closures_made_in_defaults_do_not_see_later_parameters(self, memoize):
        # the closure runs after the later parameter X is bound, and still
        # reads the global X, in a strict call as in a lazy one
        interp = Interpreter(memoize=memoize, prelude=False)
        interp.run("(defparameter x 1)"
                   "(deflazy f (&optional (g (lambda () x)) x) (funcall g))"
                   "(deflazy k (&key (g (lambda () x)) (x 2)) (funcall g))")
        for call in ("(f)", "(lazy-call 'f)", "(k)", "(lazy-call 'k)"):
            assert interp.run(call) == 1, call

    def test_rest_holds_raw_thunks(self, interp):
        interp.run("(deflazy grab (&rest r) r)")
        v = interp.run("(lazy-call #'grab (tick!) (tick!))")
        assert interp.tick_count == 0
        elements = to_py(v)
        assert len(elements) == 2
        assert all(isinstance(e, Thunk) for e in elements)
        assert force(interp, elements[0]) == 1
        assert interp.tick_count == 1

    def test_rest_constants_stay_plain(self, interp):
        interp.run("(deflazy grab (&rest r) r)")
        assert to_py(interp.run("(lazy-call #'grab 1 2)")) == [1, 2]

    def test_arity_checked_after_thunking(self, interp):
        interp.run("(deflazy one (x) x)")
        with pytest.raises(EvalError) as exc:
            interp.run("(lazy-call #'one 1 2)")
        assert exc.value.kind == "arity-mismatch"


class TestLazyOperator:
    def test_lazy_lambda_literal(self, interp):
        assert interp.run(
            "(lazy-call (lazy (lambda (c e a) (if c e a))) t (+ 20 20 2) (diverge))"
        ) == 42

    def test_lazy_sharp_quoted_lambda(self, interp):
        fn = interp.run("(lazy #'(lambda (c e a) (if c e a)))")
        assert isinstance(fn, FunctionObject) and fn.lazy
        interp.run("(defparameter lf (lazy #'(lambda (x y) y)))")
        assert interp.run("(lazy-call lf (diverge) 8)") == 8

    def test_lazy_on_named_function_rewraps_as_lazy(self, interp):
        interp.run("(deflazy si (c e a) (if c e a))")
        fn = interp.run("(lazy #'si)")
        assert isinstance(fn, FunctionObject) and fn.lazy
        assert interp.run("(lazy-call (lazy #'si) t 42 (diverge))") == 42
        with pytest.raises(EvalError) as exc:
            interp.run("(funcall (lazy #'si) t 42 1)")
        assert exc.value.kind == "lazy-through-strict"

    def test_lazy_on_plain_strict_function_rewraps(self, interp):
        interp.run("(defun second-of (x y) y)")
        fn = interp.run("(lazy #'second-of)")
        assert fn.lazy
        interp.run("(defparameter lf (lazy #'second-of))")
        assert interp.run("(lazy-call lf (diverge) 5)") == 5

    def test_lazy_identity_forces_its_argument(self, interp):
        with pytest.raises(DivergenceError):
            interp.run("(lazy-call (lazy (lambda (x) x)) (diverge))")

    def test_lazy_function_through_strict_call_is_rejected(self, interp):
        with pytest.raises(EvalError) as exc:
            interp.run("(funcall (lazy (lambda (x) x)) 1)")
        assert exc.value.kind == "lazy-through-strict"

    def test_lazy_function_in_operator_position_rejected(self, interp):
        interp.run("(defparameter lf (lazy (lambda (x) x)))")
        with pytest.raises(EvalError) as exc:
            interp.run("(lf 1)")
        assert exc.value.kind == "lazy-through-strict"

    def test_lazy_on_builtin_forces_all_arguments(self, interp):
        interp.run("(defparameter lc (lazy #'cons))")
        v = interp.run("(lazy-call lc (+ 1 1) (+ 2 2))")
        assert isinstance(v, Cons) and v.car == 2 and v.cdr == 4
        with pytest.raises(DivergenceError):
            interp.run("(lazy-call lc 1 (diverge))")

    def test_lazy_on_non_function(self, interp):
        with pytest.raises(EvalError) as exc:
            interp.run("(lazy 17)")
        assert exc.value.kind == "not-a-function"

    def test_lazy_result_is_first_class(self, interp):
        interp.run("(deflazy k (x y) x)")
        interp.run("(defparameter table (list (lazy #'k)))")
        assert interp.run("(lazy-call (car table) 9 (diverge))") == 9

    def test_lazy_on_already_lazy_value_passes_through(self, interp):
        interp.run("(defparameter lf (lazy (lambda (x) x)))")
        assert interp.run("(lazy lf)") is interp.run("lf")

    def test_lazy_on_bare_name(self, interp):
        interp.run("(deflazy si (c e a) (if c e a))")
        interp.run("(defparameter lsi (lazy si))")
        assert interp.run("lsi").lazy
        assert interp.run("(lazy-call lsi t 42 (diverge))") == 42
        with pytest.raises(EvalError) as exc:
            interp.run("(lsi t 42 1)")
        assert exc.value.kind == "lazy-through-strict"

    def test_lazy_rejects_a_quoted_symbol(self, interp):
        # (lazy 'si) evaluates to the symbol, and a symbol is not a function
        interp.run("(deflazy si (c e a) (if c e a))")
        with pytest.raises(EvalError) as exc:
            interp.run("(lazy 'si)")
        assert exc.value.kind == "not-a-function"


# Each kind of value, called in call position, through funcall and through
# lazy-call: the printed value, or the error kind. Every operator error is
# reported at the call form.
_CALL_MATRIX = {
    "#'plain": ("(1 2)", "(1 2)", "no-lazy-version"),
    "(lambda (x y) (list x y))": ("(1 2)", "(1 2)", "no-lazy-version"),
    "#'dual": ("(1 2)", "(1 2)", "(1 2)"),
    "(lazy #'plain)": ("lazy-through-strict", "lazy-through-strict", "(1 2)"),
    "#'cons": ("(1 . 2)", "(1 . 2)", "no-lazy-version"),
    "(lazy #'cons)": ("lazy-through-strict", "lazy-through-strict", "(1 . 2)"),
    "5": ("not-a-function", "not-a-function", "not-a-function"),
    "'never-defined": ("not-a-function", "unbound-symbol", "no-lazy-version"),
}


class TestCallProtocol:
    @pytest.mark.parametrize("value", list(_CALL_MATRIX))
    @pytest.mark.parametrize("call", range(3), ids=["call", "funcall", "lazy-call"])
    def test_who_may_enter_each_value(self, interp, value, call):
        interp.run("(defun plain (x y) (list x y))")
        interp.run("(deflazy dual (x y) (list x y))")
        interp.run(f"(defparameter v {value})")
        source = ["(v 1 2)", "(funcall v 1 2)", "(lazy-call v 1 2)"][call]
        expected = _CALL_MATRIX[value][call]
        if expected.startswith("("):
            assert print_value(interp.run(source)) == expected
            return
        with pytest.raises(EvalError) as exc:
            interp.run(source)
        assert exc.value.kind == expected
        assert (exc.value.line, exc.value.col) == (1, 1)


class TestModesAgree:
    def test_equivalence_on_generated_pure_programs(self):
        plain = Interpreter(prelude=False)
        memo = Interpreter(memoize=True, prelude=False)
        for n, (body, arg_srcs, expected) in enumerate(corpus(250, seed=7)):
            defn = f"(deflazy gen{n} (a b c) {body})"
            call_args = " ".join(arg_srcs)
            strict_call = f"(gen{n} {call_args})"
            lazy_call = f"(lazy-call #'gen{n} {call_args})"
            for machine in (plain, memo):
                machine.run(defn)
                assert machine.run(strict_call) == expected, defn
                assert machine.run(lazy_call) == expected, defn

    def test_pure_results_do_not_depend_on_memoization(self):
        src = """(deflazy blend (a b c) (if (< a b) (+ (* a b) c) (- c b)))
                 (lazy-call #'blend (+ 1 2) (* 2 3) (- 10 4))"""
        assert Interpreter().run(src) == Interpreter(memoize=True).run(src)


# ------------------------------------------------ binder, strict vs lazy

_MAX_NAMES = 16  # more than the variables and later names a case can use
_ARG_FORMS = st.sampled_from(["7", "-2", "(+ 0 8)", "'a", "(list 1 2)", "nil"])


@st.composite
def _binder_cases(draw):
    """A lambda list, an argument list, and the error kind it must raise.

    Returns (lambda_list, diverging, reads, supplied, args, kind):
    ``diverging`` is the lambda list with every default replaced by
    (diverge); ``reads`` reads each variable it binds, forcing the
    elements of the rest list; ``supplied`` are its supplied-p variables;
    ``kind`` is None when the arguments bind. A default may name a
    later parameter, which is then out of its scope: the test binds every
    name globally too.
    """
    counter = iter(range(100))
    reads, supplied, visible = [], [], []

    def fresh():
        name = f"v{next(counter)}"
        reads.append(name)
        return name

    required = [fresh() for _ in range(draw(st.integers(0, 2)))]
    visible += required

    def param(keyed):
        """One &optional or &key parameter: (text, diverging text, keyword)."""
        name = fresh()
        head, keyword = name, ":" + name
        if keyed and draw(st.booleans()):
            keyword = f":k{name}"
            head = f"({keyword} {name})"
        shape = draw(st.sampled_from(["bare", "default", "supplied"]))
        if shape == "bare":
            text = name if head == name else f"({head})"
            diverging = f"({head} (diverge))"
        else:
            later = f"v{int(name[1:]) + draw(st.integers(1, 2))}"
            default = draw(st.sampled_from(
                ["5", "(+ 1 2)"] + [f"(list {v})" for v in visible + [later]]))
            flag = ""
            if shape == "supplied":
                supplied.append(fresh())
                visible.append(supplied[-1])
                flag = " " + supplied[-1]
            text = f"({head} {default}{flag})"
            diverging = f"({head} (diverge){flag})"
        visible.append(name)
        return text, diverging, keyword

    optional = [param(False) for _ in range(draw(st.integers(0, 2)))]
    rest = None
    if draw(st.booleans()):
        rest = fresh()
        reads[-1] = f"(force-all {rest})"
    keys = [param(True) for _ in range(draw(st.integers(0, 2)))]

    def lambda_list(index):
        parts = list(required)
        if optional:
            parts += ["&optional"] + [p[index] for p in optional]
        if rest:
            parts += ["&rest", rest]
        if keys:
            parts += ["&key"] + [p[index] for p in keys]
        return "(" + " ".join(parts) + ")"

    def arg():
        return draw(_ARG_FORMS)

    def marker(keyword):
        """A keyword marker, written as itself or as an expression."""
        return draw(st.sampled_from([keyword, f"(car '({keyword}))"]))

    faults = []
    if required:
        faults.append("too-few")
    if keys:
        faults += ["odd", "unknown", "not-a-keyword"]
    elif not rest:
        faults.append("too-many")
    fault = None
    if faults and draw(st.booleans()):
        fault = draw(st.sampled_from(faults))

    if fault == "too-few":
        args = [arg() for _ in range(len(required) - 1)]
        return lambda_list(0), lambda_list(1), reads, supplied, args, "arity-mismatch"
    filled = draw(st.integers(0, len(optional))) if fault is None else len(optional)
    args = [arg() for _ in range(len(required) + filled)]
    if filled == len(optional):
        if keys:
            for _ in range(draw(st.integers(0, 3))):
                args += [marker(draw(st.sampled_from(keys))[2]), arg()]
        elif rest:
            args += [arg() for _ in range(draw(st.integers(0, 2)))]
    kind = None
    if fault == "too-many":
        args.append(arg())
        kind = "arity-mismatch"
    elif fault == "odd":
        args.append(marker(keys[0][2]))
        kind = "odd-keyword-arguments"
    elif fault == "unknown":
        args += [marker(":nokey"), arg()]
        kind = "unknown-keyword-argument"
    elif fault == "not-a-keyword":
        args += [arg(), arg()]
        kind = "type-error"
    return lambda_list(0), lambda_list(1), reads, supplied, args, kind


def _printed_items(value):
    items = []
    while isinstance(value, Cons):
        items.append(print_value(value.car))
        value = value.cdr
    return items


class TestBinderModesAgree:
    """A strict call and lazy-call of the same deflazy function bind alike."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_binder_cases(), st.booleans())
    def test_strict_and_lazy_binding_agree(self, case, memoize):
        lambda_list, diverging, reads, supplied, args, kind = case
        args = " ".join(args)
        interp = Interpreter(memoize=memoize, prelude=False)
        interp.run("".join(f"(defparameter v{n} 'global{n})" for n in range(_MAX_NAMES)))
        interp.run("(defun force-all (xs)"
                   " (if xs (cons (force (car xs)) (force-all (cdr xs))) nil))")
        interp.run(f"(deflazy f {lambda_list} (list {' '.join(reads)}))")
        outcomes = []
        for call in (f"(f {args})", f"(lazy-call 'f {args})"):
            try:
                outcomes.append(print_value(interp.run(call)))
            except EvalError as err:
                outcomes.append(err.kind)
        if kind is not None:
            assert outcomes == [kind, kind]
            return
        assert outcomes[0] == outcomes[1]
        # a (diverge) default that the body does not read never fires
        interp.run(f"(deflazy g {diverging} (list {' '.join(supplied)}))")
        flags = _printed_items(interp.run(f"(lazy-call 'g {args})"))
        bound = dict(zip(reads, _printed_items(interp.run(f"(f {args})"))))
        assert flags == [bound[name] for name in supplied]
