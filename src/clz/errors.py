"""Error conditions raised by the reader, the evaluator, and the runtime."""

from __future__ import annotations


class LispError(Exception):
    """Base class for every condition the interpreter signals.

    ``line``/``col`` are 1-based source coordinates when known; the evaluator
    fills them in from the innermost form that carries a position. ``kind``
    is the machine-readable tag that error reports print.
    """

    kind = "error"

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def where(self) -> str:
        if self.line is None:
            return "?:?"
        return f"{self.line}:{self.col}"


class ReadError(LispError):
    """Lexical or syntactic error in source text.

    ``incomplete`` is set when the error was triggered by running out of
    input (unclosed list, unterminated string, dangling quote): more text
    could still complete the form.
    """

    kind = "read-error"

    def __init__(self, message: str, line: int | None = None, col: int | None = None,
                 incomplete: bool = False):
        super().__init__(message, line, col)
        self.incomplete = incomplete


class EvalError(LispError):
    """Evaluation-time error, tagged with a machine-readable ``kind``.

    Kinds in use: unbound-symbol, not-a-function, arity-mismatch,
    unknown-keyword-argument, odd-keyword-arguments, type-error, overflow,
    ecase-no-match, lazy-through-strict, no-lazy-version,
    malformed-special-form, malformed-lambda-list, recursion-limit,
    reentrant-force.
    """

    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None, *, kind: str):
        super().__init__(message, line, col)
        self.kind = kind


def _malformed(message: str, form) -> EvalError:
    """A malformed-special-form error positioned at ``form``."""
    return EvalError(message, form.line, form.col, kind="malformed-special-form")


class DivergenceError(LispError):
    """Raised by (diverge): the testable stand-in for a non-terminating form."""

    kind = "divergence"


class StepLimitExceeded(LispError):
    """The configured evaluation step budget was exhausted."""

    kind = "step-limit"
