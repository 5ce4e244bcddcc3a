"""Runtime data: symbols, keywords, conses, functions, thunks, and the printer.

Integers are host ints restricted to the signed 64-bit range by the
arithmetic primitives; strings are host str. Everything else is a class
below. NIL is the sole false value and doubles as the empty list.
"""

from __future__ import annotations

INT_MIN = -(2 ** 63)
INT_MAX = 2 ** 63 - 1


class _Value:
    """Base of the value classes: a value's repr is its printed form."""

    __slots__ = ()

    def __repr__(self):
        return print_value(self)


class _Interned(_Value):
    """One instance per upper-cased name, in its class's ``_table``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    @classmethod
    def intern(cls, name: str):
        key = name.upper()
        found = cls._table.get(key)
        if found is None:
            found = cls._table[key] = cls(key)
        return found


class Symbol(_Interned):
    """Interned, case-canonicalized (upper) symbol."""

    __slots__ = ()
    _table: dict[str, "Symbol"] = {}


class Keyword(_Interned):
    """Interned keyword (``:name``); self-evaluating."""

    __slots__ = ()
    _table: dict[str, "Keyword"] = {}


class _Nil(_Value):
    __slots__ = ()

    def __bool__(self):
        return False


NIL = _Nil()
T = _Value()


class Cons(_Value):
    """Immutable pair. Proper lists are cons chains ending in NIL."""

    __slots__ = ("car", "cdr")

    def __init__(self, car, cdr):
        self.car = car
        self.cdr = cdr


class Thunk(_Value):
    """A delayed expression closed over its environment.

    Whether it memoizes is its interpreter's ``memoize``, read by force.
    By name, force never touches the thunk. By need, ``expr`` is its
    state: the form while unevaluated, force's black hole while force
    computes it, and None once ``value`` holds it. Force writes ``value``
    at most once, and never another thunk (it resolves chains fully
    before memoizing).
    """

    __slots__ = ("expr", "env", "value")

    def __init__(self, expr, env):
        self.expr = expr
        self.env = env
        self.value = None


class FunctionObject(_Value):
    """Interpreted function: lambda list + body + closure.

    ``strict`` says a strict call (call position, funcall) may enter it,
    ``lazy`` that lazy-call may. defun and lambda make strict-only
    functions, deflazy one that is both, and (lazy X) a lazy-only copy.
    Interpreter.evaluate's call loop, eval_lazy_call and
    Interpreter.apply read them.
    """

    __slots__ = ("name", "lambda_list", "body", "closure", "strict", "lazy")

    def __init__(self, name, lambda_list, body, closure, lazy: bool = False):
        self.name = name
        self.lambda_list = lambda_list
        self.body = body
        self.closure = closure
        self.strict = True
        self.lazy = lazy


class BuiltinFunction(_Value):
    """Native primitive: ``fn`` takes (interpreter, args), or is None for
    funcall, which evaluate's loop or apply resolves. Built strict-only, one
    object per process that is never changed: (lazy X) flips a copy's flags."""

    __slots__ = ("name", "fn", "min_args", "max_args", "strict", "lazy")

    def __init__(self, name, fn, min_args: int, max_args: int | None):
        self.name = name
        self.fn = fn
        self.min_args = min_args
        self.max_args = max_args
        self.strict = True
        self.lazy = False


def cons_list(items: list):
    """Build a proper list from a Python list."""
    result = NIL
    for item in reversed(items):
        result = Cons(item, result)
    return result


def brief(value) -> str:
    """The printed value, cut to 80 characters, as a diagnostic quotes it."""
    return cut(print_value(value))


def cut(text: str) -> str:
    """``text``, cut to 80 characters for diagnostics."""
    return text if len(text) <= 80 else text[:77] + "..."


def print_value(value) -> str:
    """Readable rendering of a value.

    Total and side-effect free: thunks print as #<thunk> without being
    forced, so printing can never diverge or advance a memo cell.
    """
    if value is NIL:
        return "NIL"
    if value is T:
        return "T"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, Symbol):
        return value.name
    if isinstance(value, Keyword):
        return ":" + value.name
    if isinstance(value, Thunk):
        return "#<thunk>"
    if isinstance(value, Cons):
        return _print_list(value)
    if isinstance(value, (FunctionObject, BuiltinFunction)):
        if value.name is not None:
            return f"#<function {value.name.name}>"
        return "#<lambda>"
    raise TypeError(f"not a lisp value: {value!r}")


def _print_list(value: Cons) -> str:
    """Print a list, walking nested lists with an explicit stack, so that
    any depth prints."""
    out = ["("]
    pending = []  # the unprinted rest of each enclosing list
    cur = value
    while True:
        car = cur.car
        if isinstance(car, Cons):
            pending.append(cur.cdr)
            out.append("(")
            cur = car
            continue
        out.append(print_value(car))
        cur = cur.cdr
        while not isinstance(cur, Cons):
            if cur is not NIL:
                out.append(" . ")
                out.append(print_value(cur))
            out.append(")")
            if not pending:
                return "".join(out)
            cur = pending.pop()
        out.append(" ")
