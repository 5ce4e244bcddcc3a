"""Evaluator core: environments, special forms, application, binding.

A lexical frame is a plain dict from symbols to values. Its private key
_PARENT holds the enclosing frame, None in the global frame; a lazy call's
frame also holds the private key _LAZY. An Interpreter owns a global frame,
the effect/thunk counters, and the step and depth budgets. Laziness shows
up here in two places: a symbol read forces a thunk found in a lazy frame's
slot (one rule: lookup applies it, and evaluate's loop applies it in place
for a bare symbol or an operand), and the binder has a lazy mode that builds
that frame. evaluate's loop enters a strict function, a builtin given an
argument count in its arity, and a funcall of a strict function itself,
and reads a quoted operand's value, which the quote's first dispatch made;
lazy-call enters a lazy function; apply decides every other call.
"""

from __future__ import annotations

import sys

from .builtins import BUILTINS
from .errors import EvalError, LispError, StepLimitExceeded, _malformed
from .lambdalist import Param, lambda_list_of
from .lazy import delay, eval_delay, eval_lazify, eval_lazy_call, force
from .prelude import PRELUDE_SOURCE
from .reader import Form, form_to_value, read_source
from .values import (
    NIL,
    T,
    BuiltinFunction,
    FunctionObject,
    Keyword,
    Symbol,
    Thunk,
    brief,
    cons_list,
    cut,
)

# The host stack: each host recursion passes through a list form that the
# depth guard counts; force follows thunks over variables in its own loop.
# Measured on Python 3.11, the most host frames per unit of depth is 5, in
# forms nested inside lazy-call: a lazy builtin's argument (evaluate,
# eval_lazy_call, apply, its list comprehension, force), a keyword marker
# (..., bind_lambda_list, _keyword_pairs, force) and a lazy funcall's strict
# default (..., apply, bind_lambda_list, _bind_param). A Python-to-Python
# call takes no C stack, so any thread may take the ceiling;
# sys.setrecursionlimit takes at most 2**31 - 1, which a caller's own large
# limit plus the raise could pass.
_FRAMES_PER_DEPTH, _MAX_CEILING = 5, 2**31 - 1
# Peak memory per unit of depth (Python 3.11 to 3.13): 0.4 KB for a plain
# recursion, up to 2.6 KB for an &optional default recursing through a lazy
# funcall. At the maximum the depth guard stops the worst within about 280 MB,
# before memory runs out and CPython fails with a SystemError traceback.
MAX_RECURSION_LIMIT = 100_000
_MISSING = object()
_PARENT, _LAZY = object(), object()  # a frame's private keys: see the module docstring
_PRELUDE = read_source(PRELUDE_SOURCE)  # read once; evaluation never mutates a Form


class Interpreter:
    """One evaluation universe: bindings, counters, budgets.

    Its global frame starts as a copy of the builtin table. Instances are
    independent and single-threaded; never share one across threads.
    Construction changes no process state; while a top-level form runs, the
    process-wide host recursion limit is raised by 5 frames per unit of
    ``recursion_limit``, so no two interpreters may evaluate on two threads
    at once.
    ``memoize`` selects call-by-need thunks instead of the default
    call-by-name. ``step_limit`` bounds evaluator steps plus loop
    iterations per top-level form; ``recursion_limit``, at most
    MAX_RECURSION_LIMIT, bounds nested list-form evaluations. ``print``
    writes to ``sys.stdout`` as it is when called.
    """

    def __init__(self, memoize: bool = False, step_limit: int = 10_000_000,
                 recursion_limit: int = 10_000, prelude: bool = True):
        if step_limit <= 0:
            raise ValueError("step_limit must be positive")
        if recursion_limit <= 0:
            raise ValueError("recursion_limit must be positive")
        if recursion_limit > MAX_RECURSION_LIMIT:
            raise ValueError(f"recursion_limit must be at most {MAX_RECURSION_LIMIT}")
        self.memoize = memoize
        self.step_limit = step_limit
        self.recursion_limit = recursion_limit
        self.global_env = {_PARENT: None, **BUILTINS}
        self.tick_count = 0
        self.thunk_allocations = 0
        self._steps = 0
        self._depth = 0
        if prelude:
            for form in _PRELUDE:
                self.eval_top(form)

    # ---------------------------------------------------------------- API

    def run(self, text: str):
        """Evaluate every form in ``text``; return the last value."""
        result = NIL
        for form in read_source(text):
            result = self.eval_top(form)
        return result

    def eval_top(self, form: Form):
        """Evaluate one top-level form with fresh step/depth budgets."""
        self._steps = 0
        found = sys.getrecursionlimit()
        sys.setrecursionlimit(min(found + self.recursion_limit * _FRAMES_PER_DEPTH, _MAX_CEILING))
        try:
            return self.evaluate(form, self.global_env)
        except RecursionError:
            raise EvalError(
                "host recursion limit hit (deep nesting or forcing); "
                "lower the program's depth or raise the recursion limit",
                form.line, form.col, kind="recursion-limit") from None
        finally:
            sys.setrecursionlimit(found)

    # ---------------------------------------------------------- evaluator

    def evaluate(self, form: Form, env: dict):
        """The value of ``form`` in frame ``env``. ``if``, a symbol read (a lazy slot's
        memo cell, or its by-name form with one nested evaluate), a quoted
        operand, and a strict call of a strict function, of a builtin within its
        arity or of a strict function through funcall run in this loop, with no
        handler, lookup or force call; apply takes every other call. A tail,
        the chosen if branch or a body's last form, goes round the loop instead
        of nesting, with the steps, depth and error position nesting would give."""
        depth = self._depth
        try:
            # Not the loop first: an interrupt at its back jump would escape the try (3.11)
            call = None  # the innermost list form entered: it positions errors
            while True:
                self._steps += 1
                if self._steps > self.step_limit:
                    raise self._out_of_steps(form)
                datum = form.datum
                if type(datum) is not list:  # a symbol, or a constant
                    if type(datum) is not Symbol:
                        return datum
                    frame = env  # lookup's rule, read in place
                    while (value := frame.get(datum, _MISSING)) is _MISSING:
                        frame = frame[_PARENT]
                        if frame is None:
                            self.lookup(datum, env, form)  # unbound: raises
                    if type(value) is Thunk and _LAZY in frame:  # force's rule, read in place
                        if value.expr is None:  # a memo cell
                            value = value.value
                        elif self.memoize or type(value.expr.datum) is Symbol:
                            value = force(self, value)
                        elif type(value := self.evaluate(value.expr, value.env)) is Thunk:
                            value = force(self, value)  # by name: its form, forced through
                    return value
                call = form
                self._depth += 1
                if self._depth > self.recursion_limit:
                    raise EvalError(
                        f"recursion depth exceeded the limit of {self.recursion_limit}",
                        kind="recursion-limit")
                handler = form.cache
                if handler is None:
                    handler = form.cache = _dispatch(form)
                if handler is _CALL:
                    # The head, then the arguments, left to right. An atom
                    # item is evaluated here, as evaluate would: one step,
                    # then its value; only a list item costs a nested evaluate.
                    args = []
                    for item in datum:
                        d = item.datum
                        if type(d) is list:
                            if (item.cache is not _sf_quote or self._steps >= self.step_limit
                                    or self._depth >= self.recursion_limit):
                                args.append(self.evaluate(item, env))
                            else:  # a quote, whose nested evaluate's checks would pass
                                self._steps += 1
                                args.append(d[1].cache)
                            continue
                        self._steps += 1
                        if self._steps > self.step_limit:
                            raise self._out_of_steps(item)
                        if type(d) is Symbol:
                            frame = env  # as at the loop's top
                            while (slot := frame.get(d, _MISSING)) is _MISSING:
                                frame = frame[_PARENT]
                                if frame is None:
                                    self.lookup(d, env, item)  # unbound: raises
                            d = slot
                            if type(d) is Thunk and _LAZY in frame:
                                if d.expr is None:
                                    d = d.value
                                elif self.memoize or type(d.expr.datum) is Symbol:
                                    d = force(self, d)
                                elif type(d := self.evaluate(d.expr, d.env)) is Thunk:
                                    d = force(self, d)
                        args.append(d)
                    fn = args.pop(0)
                    if type(fn) is FunctionObject and fn.strict:
                        result = fn.body, self.bind_lambda_list(fn, args, False)
                    elif (type(fn) is BuiltinFunction and fn.strict and fn.fn is not None
                          and fn.min_args <= len(args)
                          and (fn.max_args is None or len(args) <= fn.max_args)):
                        result = fn.fn(self, args)
                    elif (type(fn) is BuiltinFunction and fn.fn is None and fn.strict and args
                          and type(args[0]) is FunctionObject and args[0].strict):
                        fn = args.pop(0)  # funcall of a strict function, entered here too
                        result = fn.body, self.bind_lambda_list(fn, args, False)
                    else:
                        result = self.apply(fn, args)
                elif handler is _IF:  # the chosen branch is a tail
                    if self.evaluate(datum[1], env) is not NIL:
                        form = datum[2]
                    elif len(datum) == 4:
                        form = datum[3]
                    else:
                        return NIL
                    continue
                else:
                    result = handler(self, form, env)
                if type(result) is not tuple:
                    return result
                body, env = result  # a tail: the body to run and its frame
                if not body:
                    return NIL
                if len(body) > 1:
                    for item in body[:-1]:
                        self.evaluate(item, env)
                form = body[-1]
        except LispError as err:
            if err.line is None and call is not None:
                err.line, err.col = call.line, call.col
            raise
        finally:
            self._depth = depth

    def lookup(self, symbol: Symbol, env: dict, form: Form | None = None, follow=True):
        """``symbol``'s value, read from ``env`` out along each frame's _PARENT; a
        thunk in a slot of a frame that holds _LAZY is forced only if ``follow``."""
        frame = env
        while frame is not None:
            slot = frame.get(symbol, _MISSING)
            if slot is not _MISSING:
                if follow and type(slot) is Thunk and _LAZY in frame:
                    return force(self, slot)
                return slot
            frame = frame[_PARENT]
        where = (form.line, form.col) if form is not None else ()
        raise EvalError(f"unbound symbol {cut(symbol.name)}", *where, kind="unbound-symbol")

    def _out_of_steps(self, form: Form) -> StepLimitExceeded:
        return StepLimitExceeded(f"step limit of {self.step_limit} exceeded",
                                 form.line, form.col)

    # -------------------------------------------------------- application

    def apply(self, fn, args: list, lazy: bool = False):
        """Apply a function to its arguments: the one place that refuses a
        call, forces a lazy call's arguments for a builtin, or calls through
        funcall.

        evaluate's loop enters a strict call of a strict function, of a
        builtin given an argument count in its arity, or of a strict function
        through funcall, and lazy-call a lazy function, without coming here.
        A strict call passes evaluated
        values; a lazy call (from lazy-call) passes values and thunks, and
        a builtin gets its arguments forced. A function's body is not run
        here: the result is the tail (body, bound frame). funcall becomes a
        strict call of its first argument, where a symbol names a global
        function. An error raised here has no position; the evaluate call
        around it gives it the calling form's.
        """
        while True:
            kind = type(fn)
            if kind is not FunctionObject and kind is not BuiltinFunction:
                raise EvalError(f"{brief(fn)} is not a function", kind="not-a-function")
            if not (fn.lazy if lazy else fn.strict):
                if lazy:
                    raise EvalError(f"{_label(fn)} is strict and has no lazy version",
                                    kind="no-lazy-version")
                raise EvalError(f"{brief(fn)} has the lazy calling convention; "
                                "call it with lazy-call", kind="lazy-through-strict")
            if kind is FunctionObject:
                return fn.body, self.bind_lambda_list(fn, args, lazy)
            if lazy:
                args = [force(self, a) for a in args]
            n = len(args)
            if n < fn.min_args or (fn.max_args is not None and n > fn.max_args):
                self._check_builtin_arity(fn, n)
            if fn.fn is not None:
                return fn.fn(self, args)
            fn, args, lazy = args[0], args[1:], False  # funcall
            if type(fn) is Symbol:
                fn = self.lookup(fn, self.global_env)

    def _check_builtin_arity(self, fn: BuiltinFunction, n: int):
        """Raise the arity-mismatch error of a builtin given ``n`` arguments."""
        if fn.max_args is None:
            shape = f"at least {fn.min_args}"
        elif fn.min_args == fn.max_args:
            shape = str(fn.min_args)
        else:
            shape = f"{fn.min_args} to {fn.max_args}"
        raise EvalError(f"{_label(fn)} takes {shape} argument(s), got {n}", kind="arity-mismatch")

    # ------------------------------------------------------------ binding

    def bind_lambda_list(self, fn: FunctionObject, args: list, lazy: bool) -> dict:
        """Build the frame in which ``fn``'s body runs on ``args``: a dict whose
        _PARENT is ``fn``'s closure.

        Strict mode: missing defaults evaluated eagerly, left to right,
        with earlier parameters visible. Lazy mode: the frame holds _LAZY
        (values may be raw thunks); a missing optional/keyword parameter
        gets a thunk over its default expression closed over a copy of
        the bindings made so far; supplied-p slots hold t/nil; the rest
        slot is a list of raw arguments; keyword markers are forced,
        their values not.
        """
        ll = fn.lambda_list
        frame = {_PARENT: fn.closure, _LAZY: True} if lazy else {_PARENT: fn.closure}
        n = len(args)
        nreq = len(ll.required)
        if n < nreq:
            raise EvalError(f"{_label(fn)} expected at least {nreq} argument(s), got {n}",
                            kind="arity-mismatch")
        i = 0
        for name in ll.required:
            frame[name] = args[i]
            i += 1
        if n == nreq and ll.simple:  # required parameters only, all given
            return frame
        for param in ll.optional:
            self._bind_param(frame, param, args[i] if i < n else _MISSING)
            i += 1
        tail = args[i:]
        if ll.rest is not None:
            frame[ll.rest] = cons_list(tail)
        if ll.keys is not None:
            pairs = self._keyword_pairs(frame, fn, tail)
            for param in ll.keys:
                self._bind_param(frame, param, pairs.get(param.keyword, _MISSING))
        elif tail and ll.rest is None:
            raise EvalError(
                f"{_label(fn)} expected at most {len(ll.required) + len(ll.optional)} "
                f"argument(s), got {n}", kind="arity-mismatch")
        return frame

    def _keyword_pairs(self, frame: dict, fn: FunctionObject, tail: list) -> dict:
        label = _label(fn)
        if len(tail) % 2 != 0:
            raise EvalError(f"{label} received an odd number of keyword arguments",
                            kind="odd-keyword-arguments")
        known = {key.keyword for key in fn.lambda_list.keys}
        pairs: dict = {}
        for marker, value in zip(tail[0::2], tail[1::2]):
            if type(marker) is Thunk and _LAZY in frame:
                marker = force(self, marker)
            if not isinstance(marker, Keyword):
                raise EvalError(f"{label} expected a keyword marker, got {brief(marker)}",
                                kind="type-error")
            if marker not in known:
                raise EvalError(f"{label} does not accept the keyword {brief(marker)}",
                                kind="unknown-keyword-argument")
            if marker not in pairs:  # first occurrence wins
                pairs[marker] = value
        return pairs

    def _bind_param(self, frame: dict, param: Param, value):
        """Bind an &optional or &key parameter, and its supplied-p flag.

        A ``value`` of _MISSING means no argument was given: the default
        is evaluated now in a strict frame, thunked in a lazy one.
        """
        supplied = T
        if value is _MISSING:
            supplied = NIL
            if param.default is None:
                value = NIL
            else:
                # the default sees the parameters bound so far, not later ones
                seen = frame.copy()
                if _LAZY in frame:
                    value = delay(self, param.default, seen)
                else:
                    value = self.evaluate(param.default, seen)
        frame[param.name] = value
        if param.supplied is not None:
            frame[param.supplied] = supplied


def _label(fn) -> str:
    """How call, arity and keyword errors name a function."""
    return cut(fn.name.name) if fn.name is not None else "anonymous function"


# ------------------------------------------------------------ special forms
# A handler returns a value, or a tail: (forms left to run, their env).

def _sf_quote(interp, form, env):
    return form.datum[1].cache  # made by _dispatch


def _sf_progn(interp, form, env):
    return form.datum[1:], env


def _sf_let(interp, form, env):
    items = form.datum
    bindings = items[1].datum
    if bindings is NIL:
        bindings = ()
    elif not isinstance(bindings, list):
        raise _malformed("let bindings must be a list", items[1])
    frame = {_PARENT: env}
    # parallel let: initializers see the outer environment only
    for binding in bindings:
        d = binding.datum
        if isinstance(d, Symbol):
            name, init = d, None
        elif isinstance(d, list) and 1 <= len(d) <= 2 and isinstance(d[0].datum, Symbol):
            name, init = d[0].datum, d[1] if len(d) == 2 else None
        else:
            raise _malformed(f"malformed let binding {binding!r}", binding)
        if name in frame:
            raise _malformed(f"duplicate let variable {cut(name.name)}", binding)
        frame[name] = NIL if init is None else interp.evaluate(init, env)
    return items[2:], frame


def _sf_lambda(interp, form, env) -> FunctionObject:
    """(lambda (params...) body...) -> a strict closure over ``env``."""
    items = form.datum
    return FunctionObject(None, lambda_list_of(items[1]), items[2:], env)


def _sf_function(interp, form, env):
    target = form.datum[1]
    d = target.datum
    if isinstance(d, Symbol):
        value = interp.lookup(d, env, target)
        if isinstance(value, (FunctionObject, BuiltinFunction)):
            return value
        raise EvalError(f"{cut(d.name)} does not name a function",
                        target.line, target.col, kind="not-a-function")
    if isinstance(d, list) and d[0].datum is _LAMBDA:
        _dispatch(target)  # #'(lambda ...) is not evaluated, so check its shape here
        return _sf_lambda(interp, target, env)
    raise _malformed("function expects a symbol or a lambda form", target)


def _sf_defun(interp, form, env):
    """(defun name (params...) body...) or (deflazy ...) -> name

    Both install one function object as the name's global binding that a
    strict call may enter; deflazy's lazy-call may enter too. A later
    defun of the name replaces the object, and with it the lazy face.
    """
    items = form.datum
    name = _defined_name(form)
    fn = FunctionObject(name, lambda_list_of(items[2]), items[3:], env,
                        lazy=items[0].datum is _DEFLAZY)
    interp.global_env[name] = fn
    return name


def _sf_defparameter(interp, form, env):
    name = _defined_name(form)
    interp.global_env[name] = interp.evaluate(form.datum[2], env)
    return name


def _defined_name(form: Form) -> Symbol:
    """The symbol that a defun, deflazy or defparameter form defines."""
    head, name_form = form.datum[0].datum, form.datum[1]
    if not isinstance(name_form.datum, Symbol):
        raise _malformed(f"{head.name.lower()} name must be a symbol", name_form)
    return name_form.datum


def _sf_ecase(interp, form, env):
    items = form.datum
    key = interp.evaluate(items[1], env)
    for clause in items[2:]:
        d = clause.datum
        if not isinstance(d, list) or not d:
            raise _malformed(f"malformed ecase clause {clause!r}", clause)
        clause_key = d[0].datum
        if not (isinstance(clause_key, Symbol) or clause_key is T or clause_key is NIL):
            raise _malformed("ecase clause keys must be unevaluated symbols", d[0])
        if clause_key is key:
            return d[1:], env
    raise EvalError(f"{brief(key)} matched no ecase clause", kind="ecase-no-match")


def _sf_loop(interp, form, env):
    while True:
        interp._steps += 1
        if interp._steps > interp.step_limit:
            raise interp._out_of_steps(form)


def _dispatch(form: Form):
    """The handler of list ``form``'s special form, _IF for an if, or _CALL for
    a call. A malformed special form raises, so a failed check is never cached;
    a quote's value is made here, so a quote whose dispatch is cached has one."""
    head = form.datum[0].datum
    special = _SPECIAL_FORMS.get(head) if type(head) is Symbol else None
    if special is None:
        return _CALL
    handler, fewest, most, message = special
    if not fewest <= len(form.datum) <= most:
        raise _malformed(message, form)
    if handler is _sf_quote:
        # One value serves every evaluation: a Cons is immutable, and clz has no eq.
        form.datum[1].cache = form_to_value(form.datum[1])
    return handler


_CALL = object()  # form.cache of a list form that is a call
_IF = object()  # form.cache of an if, which evaluate runs itself
_DEFLAZY = Symbol.intern("DEFLAZY")
_LAMBDA = Symbol.intern("LAMBDA")
_ANY = sys.maxsize  # no upper bound on a form's item count

# Each special form's handler (or _IF) and shape: the fewest and the most items
# its list may have, head included, and the malformed-special-form
# message for any other count. _dispatch checks the count before a handler
# first runs, so a handler may index every item its shape guarantees.
_SPECIAL_FORMS = {
    Symbol.intern("QUOTE"): (_sf_quote, 2, 2, "quote takes exactly one form"),
    Symbol.intern("IF"): (_IF, 3, 4, "if takes a condition, a then-form, "
                          "and an optional else-form"),
    Symbol.intern("PROGN"): (_sf_progn, 1, _ANY, None),
    Symbol.intern("LET"): (_sf_let, 2, _ANY, "let needs a binding list"),
    _LAMBDA: (_sf_lambda, 2, _ANY, "lambda needs a lambda list"),
    Symbol.intern("FUNCTION"): (_sf_function, 2, 2,
                                "function takes exactly one name or lambda form"),
    Symbol.intern("DEFUN"): (_sf_defun, 3, _ANY, "defun needs a name and a lambda list"),
    Symbol.intern("DEFPARAMETER"): (_sf_defparameter, 3, 3,
                                    "defparameter takes a name and one value form"),
    Symbol.intern("ECASE"): (_sf_ecase, 2, _ANY, "ecase needs a key form"),
    Symbol.intern("LOOP"): (_sf_loop, 1, 1, "only the empty (loop) form is supported"),
    _DEFLAZY: (_sf_defun, 3, _ANY, "deflazy needs a name and a lambda list"),
    Symbol.intern("LAZY-CALL"): (eval_lazy_call, 2, _ANY, "lazy-call needs an operator"),
    Symbol.intern("LAZY"): (eval_lazify, 2, 2, "lazy takes exactly one expression"),
    Symbol.intern("DELAY"): (eval_delay, 2, 2, "delay takes exactly one expression"),
}
