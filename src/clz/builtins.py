"""Primitive functions: one table of builtin objects, built at import,
that every Interpreter's global frame starts as a copy of.

Arithmetic is signed 64-bit. Two integer operands with an in-range
result take a direct path; any other call folds, checking each
operand's type and each partial result's range where the fold reaches
it. car/cdr of nil are nil; funcall is a strict call that evaluate's
loop or Interpreter.apply resolves, so it cannot enter a lazy-only function.
tick!/ticks expose the per-interpreter effect counter, and diverge is
the testable stand-in for a non-terminating form.
"""

from __future__ import annotations

import operator

from .errors import DivergenceError, EvalError
from .lazy import force
from .values import (
    INT_MAX,
    INT_MIN,
    NIL,
    T,
    BuiltinFunction,
    Cons,
    Symbol,
    brief,
    cons_list,
    print_value,
)


def _not_int(who: str, value) -> EvalError:
    return EvalError(f"{who} expects integers, got {brief(value)}", kind="type-error")


def _overflow(who: str) -> EvalError:
    return EvalError(f"{who}: result exceeds the 64-bit signed range", kind="overflow")


def _fold(name: str, op, unit):
    """The checked fold of +, - or *. It starts from the first operand when
    there are two or more, from ``unit`` otherwise, so (- x) is 0 - x."""
    def _bi_fold(interp, args):
        if len(args) == 2:  # two integers and an in-range result: no loop
            a, b = args
            if type(a) is int and type(b) is int:
                total = op(a, b)
                if INT_MIN <= total <= INT_MAX:
                    return total
        total, rest = (args[0], args[1:]) if len(args) > 1 else (unit, args)
        if type(total) is not int:
            raise _not_int(name, total)
        for a in rest:
            if type(a) is not int:
                raise _not_int(name, a)
            total = op(total, a)
            if not INT_MIN <= total <= INT_MAX:
                raise _overflow(name)
        return total
    return _bi_fold


def _bi_add1(interp, args):
    a = args[0]
    if type(a) is not int:
        raise _not_int("1+", a)
    if a == INT_MAX:
        raise _overflow("1+")
    return a + 1


def _bi_num_eq(interp, args):
    if len(args) == 2 and type(args[0]) is int and type(args[1]) is int:
        return T if args[0] == args[1] else NIL
    first = args[0]
    for a in args:
        if type(a) is not int:
            raise _not_int("=", a)
        if a != first:
            return NIL
    return T


def _bi_num_lt(interp, args):
    if len(args) == 2 and type(args[0]) is int and type(args[1]) is int:
        return T if args[0] < args[1] else NIL
    prev = None
    for a in args:
        if type(a) is not int:
            raise _not_int("<", a)
        if prev is not None and not prev < a:
            return NIL
        prev = a
    return T


def _bi_cons(interp, args):
    return Cons(args[0], args[1])


def _bi_car(interp, args):
    v = args[0]
    if v is NIL:
        return NIL
    if isinstance(v, Cons):
        return v.car
    raise EvalError(f"car expects a cons or nil, got {brief(v)}", kind="type-error")


def _bi_cdr(interp, args):
    v = args[0]
    if v is NIL:
        return NIL
    if isinstance(v, Cons):
        return v.cdr
    raise EvalError(f"cdr expects a cons or nil, got {brief(v)}", kind="type-error")


def _bi_list(interp, args):
    return cons_list(args)


def _bi_not(interp, args):
    return T if args[0] is NIL else NIL


def _bi_force(interp, args):
    return force(interp, args[0])


def _bi_diverge(interp, args):
    raise DivergenceError("diverge was evaluated: this path does not terminate")


def _bi_tick(interp, args):
    interp.tick_count += 1
    return interp.tick_count


def _bi_ticks(interp, args):
    return interp.tick_count


def _bi_print(interp, args):
    print(print_value(args[0]))
    return args[0]


# Each builtin's symbol and its object, which no interpreter changes.
BUILTINS = {Symbol.intern(name): BuiltinFunction(Symbol.intern(name), fn, lo, hi)
            for name, fn, lo, hi in [
    ("+", _fold("+", operator.add, 0), 0, None),
    ("-", _fold("-", operator.sub, 0), 1, None),
    ("*", _fold("*", operator.mul, 1), 0, None),
    ("1+", _bi_add1, 1, 1),
    ("=", _bi_num_eq, 1, None),
    ("<", _bi_num_lt, 1, None),
    ("cons", _bi_cons, 2, 2),
    ("car", _bi_car, 1, 1),
    ("cdr", _bi_cdr, 1, 1),
    ("list", _bi_list, 0, None),
    ("funcall", None, 1, None),  # evaluate or apply calls its first argument
    ("not", _bi_not, 1, 1),
    ("null", _bi_not, 1, 1),
    ("force", _bi_force, 1, 1),
    ("diverge", _bi_diverge, 0, 0),
    ("tick!", _bi_tick, 0, 0),
    ("ticks", _bi_ticks, 0, 0),
    ("print", _bi_print, 1, 1),
]}
