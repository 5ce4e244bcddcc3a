"""Lazy calling convention: thunks, lazy-call, lazy, delay.

A function defined with ``deflazy`` is one function object that both
kinds of call may enter, as its two flags say: ordinary calls run it
strictly, and ``lazy-call`` enters it lazily, passing constants through
and wrapping every other argument form as a thunk that the body forces
only when it reads the parameter. evaluate's loop reads a memo cell, or
runs a by-name thunk's form, in place; force takes every other thunk.
"""

from __future__ import annotations

from .errors import EvalError
from .reader import Form
from .values import BuiltinFunction, FunctionObject, Symbol, Thunk, brief

_QUOTE = Symbol.intern("QUOTE")
_BLACKHOLE = object()  # a by-need thunk's expr while force computes its value


def delay(interp, form: Form, env) -> Thunk:
    """Capture a form and its environment without evaluating anything."""
    interp.thunk_allocations += 1
    return Thunk(form, env)


def force(interp, value):
    """Resolve thunk chains to a plain value; identity on non-thunks.

    A thunk over a variable costs the step evaluate would charge, then its
    slot, unforced, goes round this loop: such a chain nests no host frames.
    By need (``interp.memoize``), every thunk along the chain is backfilled
    with the final value, so a memo cell never holds another thunk. While
    its value is being computed a thunk's ``expr`` is the black hole, and
    forcing it again from inside that computation is a reentrant-force
    error, because its memo cell would otherwise be written more than once.
    If the computation fails, each thunk on the chain not yet filled gets its form back.
    """
    pending = None  # by need: each thunk on the chain, with its form
    try:
        # A statement first, as in evaluate; pending is set before the try,
        # so the handler can read it wherever an interrupt lands.
        memoize = interp.memoize
        while isinstance(value, Thunk):
            t = value
            expr = t.expr
            if expr is None:  # a memo cell
                value = t.value
                break
            if memoize:
                if expr is _BLACKHOLE:
                    raise EvalError("thunk forced again while its value is being computed",
                                    kind="reentrant-force")
                if pending is None:
                    pending = []
                pending.append((t, expr))  # first, so no black hole is left unlisted
                t.expr = _BLACKHOLE
            if type(expr.datum) is not Symbol:
                value = interp.evaluate(expr, t.env)
                continue
            interp._steps += 1
            if interp._steps > interp.step_limit:
                raise interp._out_of_steps(expr)
            value = interp.lookup(expr.datum, t.env, expr, follow=False)
        if pending is not None:
            for t, _ in pending:
                t.value = value
                t.expr = t.env = None
    except BaseException:
        if pending is not None:  # an interrupted backfill leaves its filled thunks filled
            for t, expr in pending:
                if t.expr is _BLACKHOLE:
                    t.expr = expr
        raise
    return value


def eval_lazy_call(interp, form: Form, env):
    """(lazy-call OP ARGS...) -> apply OP lazily to thunked args.

    The operator is evaluated strictly, a quote read in place as evaluate's
    loop reads one; a symbol means its current binding, read from the global
    frame, which is never lazy. A constant argument form (a self-evaluating
    atom, such as a keyword marker, or a quote) passes through as its value;
    a symbol or any other list form becomes a thunk over the unevaluated form.
    A function with the lazy flag is bound here, and its body is the tail;
    apply forces a builtin's arguments and refuses every other operator.
    """
    items = form.datum
    op_form = items[1]
    d = op_form.datum
    if (type(d) is list and d[0].datum is _QUOTE and op_form.cache is not None
            and interp._steps < interp.step_limit and interp._depth < interp.recursion_limit):
        interp._steps += 1  # a quote, whose nested evaluate's checks would pass
        op = d[1].cache
    else:
        op = interp.evaluate(op_form, env)
    if type(op) is Symbol:
        if (fn := interp.global_env.get(op)) is None:
            raise EvalError(f"{brief(op)} has no lazy version (define it with deflazy)",
                            kind="no-lazy-version")
        op = fn
    args = []
    for arg_form in items[2:]:
        d = arg_form.datum
        if type(d) is Symbol or type(d) is list and (len(d) != 2 or d[0].datum is not _QUOTE):
            interp.thunk_allocations += 1
            args.append(Thunk(arg_form, env))
        else:
            args.append(interp.evaluate(arg_form, env))
    if type(op) is FunctionObject and op.lazy:
        return op.body, interp.bind_lambda_list(op, args, True)
    return interp.apply(op, args, lazy=True)


def eval_lazify(interp, form: Form, env):
    """(lazy EXPR) -> a function that only lazy-call may enter.

    EXPR is evaluated. A function that a strict call may enter (defun's,
    deflazy's, a lambda's, a builtin) is copied as lazy-only; any other
    function, already lazy-only, passes through.
    """
    items = form.datum
    value = interp.evaluate(items[1], env)
    if type(value) is not FunctionObject and type(value) is not BuiltinFunction:
        raise EvalError(f"{brief(value)} is not a function",
                        items[1].line, items[1].col, kind="not-a-function")
    if value.strict:
        import copy   # here, so that starting clz does not load it
        value = copy.copy(value)
        value.strict, value.lazy = False, True
    return value


def eval_delay(interp, form: Form, env) -> Thunk:
    """(delay EXPR) -> #<thunk> capturing EXPR and the current environment."""
    return delay(interp, form.datum[1], env)
