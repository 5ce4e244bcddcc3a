"""Lazy calling convention: thunks, lazy-call, lazy, delay.

A function defined with ``deflazy`` is one function object with two
faces: ordinary calls run it strictly, and ``lazy-call`` enters the same
object lazily. ``lazy-call`` passes constants through and wraps every
other argument form as a thunk; the body then forces a parameter only
when it actually reads it.
"""

from __future__ import annotations

from .errors import EvalError, _malformed
from .reader import Form
from .values import BuiltinFunction, FunctionObject, Symbol, Thunk, print_value

_QUOTE = Symbol.intern("QUOTE")


def delay(interp, form: Form, env) -> Thunk:
    """Capture a form and its environment without evaluating anything."""
    interp.thunk_allocations += 1
    return Thunk(form, env, interp.memoize)


def force(interp, value):
    """Resolve thunk chains to a plain value; identity on non-thunks.

    Every memoizing thunk along the chain is backfilled with the final
    value, so a memo cell never holds another thunk. While its value is
    being computed a memoizing thunk is marked, and forcing it again from
    inside that computation is a reentrant-force error, because its memo
    cell would otherwise be written more than once. If the computation
    fails, the thunks on the chain go back to unevaluated.
    """
    pending = None
    try:
        while isinstance(value, Thunk):
            t = value
            if t.done:
                value = t.value
                break
            if t.memoizing:
                if t.forcing:
                    raise EvalError("thunk forced again while its value is being computed",
                                    None, None, kind="reentrant-force")
                t.forcing = True
                if pending is None:
                    pending = []
                pending.append(t)
            value = interp.evaluate(t.expr, t.env)
    except BaseException:
        if pending is not None:
            for t in pending:
                t.forcing = False
        raise
    if pending is not None:
        for t in pending:
            t.done = True
            t.forcing = False
            t.value = value
            t.expr = None
            t.env = None
    return value


def constant_p(form: Form) -> bool:
    """Self-evaluating atoms and (quote _) forms pass through unthunked.

    Integers, strings, keywords, t, and nil are constants; symbols and
    every unquoted compound form are not. (t and nil parse directly to
    their singleton values, so the Symbol test covers them.)
    """
    datum = form.datum
    if isinstance(datum, list):
        return len(datum) == 2 and datum[0].datum is _QUOTE
    return not isinstance(datum, Symbol)


def lazy_callee(interp, op, form: Form) -> "FunctionObject | BuiltinFunction":
    """Find the function lazy-call enters for the operator value ``op``.

    A symbol means its current global binding, looked up as funcall does.
    A lazy function, or a dual one made by deflazy, is entered lazily as
    it is; any other function has no lazy version.
    """
    if isinstance(op, Symbol):
        try:
            op = interp.lookup(op, interp.global_env)
        except EvalError:
            raise EvalError(f"{op.name} has no lazy version (define it with deflazy)",
                            form.line, form.col, kind="no-lazy-version") from None
    if isinstance(op, FunctionObject):
        if op.lazy or op.dual:
            return op
        label = op.name.name if op.name is not None else "anonymous function"
        raise EvalError(f"{label} is strict and has no lazy version",
                        form.line, form.col, kind="no-lazy-version")
    if isinstance(op, BuiltinFunction):
        if op.lazy:
            return op
        raise EvalError(f"builtin {op.name} has no lazy version",
                        form.line, form.col, kind="no-lazy-version")
    raise EvalError(f"{print_value(op)} is not a function",
                    form.line, form.col, kind="not-a-function")


def eval_lazy_call(interp, form: Form, env):
    """(lazy-call OP ARGS...) -> apply OP lazily to thunked args.

    The operator expression is evaluated strictly. Constant argument
    forms (and keyword markers, which are constants) pass through as
    values; everything else becomes a thunk over the unevaluated form.
    """
    items = form.datum
    if len(items) < 2:
        raise _malformed("lazy-call needs an operator", form)
    op = interp.evaluate(items[1], env)
    fn = lazy_callee(interp, op, items[1])
    args = []
    for arg_form in items[2:]:
        if constant_p(arg_form):
            args.append(interp.evaluate(arg_form, env))
        else:
            args.append(delay(interp, arg_form, env))
    return interp.apply(fn, args, lazy=True)


def eval_lazify(interp, form: Form, env):
    """(lazy EXPR) -> a lazy-mode function value.

    EXPR is evaluated: a lazy function passes through, a strict one
    (deflazy's and a fresh lambda's included) is re-wrapped as lazy over
    the same lambda list, body and closure, and a builtin gets a
    force-all-arguments wrapper.
    """
    items = form.datum
    if len(items) != 2:
        raise _malformed("lazy takes exactly one expression", form)
    value = interp.evaluate(items[1], env)
    if isinstance(value, (FunctionObject, BuiltinFunction)) and value.lazy:
        return value
    if isinstance(value, FunctionObject):
        return FunctionObject(value.name, value.lambda_list, value.body,
                              value.closure, lazy=True)
    if isinstance(value, BuiltinFunction):
        return value.lazified()
    raise EvalError(f"{print_value(value)} is not a function",
                    items[1].line, items[1].col, kind="not-a-function")


def eval_delay(interp, form: Form, env) -> Thunk:
    """(delay EXPR) -> #<thunk> capturing EXPR and the current environment."""
    items = form.datum
    if len(items) != 2:
        raise _malformed("delay takes exactly one expression", form)
    return delay(interp, items[1], env)
