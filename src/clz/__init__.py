"""clz — a small Lisp with a lazy calling convention.

A function defined with ``deflazy`` is one function with two modes: strict
for ordinary calls, and lazy when entered through ``lazy-call``, which
passes constants through and wraps every other argument as a thunk forced
only when the body reads the parameter.
"""

from .core import Interpreter
from .errors import (
    DivergenceError,
    EvalError,
    LispError,
    ReadError,
    StepLimitExceeded,
)
from .values import (
    NIL,
    T,
    BuiltinFunction,
    Cons,
    FunctionObject,
    Keyword,
    Symbol,
    Thunk,
    print_value,
)

__version__ = "0.1.0"

__all__ = [
    "Interpreter",
    "LispError",
    "ReadError",
    "EvalError",
    "DivergenceError",
    "StepLimitExceeded",
    "NIL",
    "T",
    "Symbol",
    "Keyword",
    "Cons",
    "Thunk",
    "FunctionObject",
    "BuiltinFunction",
    "print_value",
    "__version__",
]
