"""Command line: REPL by default, or run a file, or evaluate strings.

Evaluation runs on the main thread, so Ctrl-C reaches it: the REPL drops
the running or the unclosed form and keeps the session; a file or --eval
stops. Exit codes: 0 success, 1 evaluation or read error or a standard
output closed early, 2 I/O error or a bad option, 3 step limit,
130 interrupted.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import MAX_RECURSION_LIMIT, Interpreter
from .errors import LispError, StepLimitExceeded
from .reader import Reader, read_source
from .values import print_value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clz",
        description="A small Lisp whose functions can take their arguments lazily.",
    )
    parser.add_argument("file", nargs="?",
                        help="script to run; omit (and no --eval) for a REPL")
    parser.add_argument("--eval", metavar="FORM", dest="eval_texts", action="append",
                        help="evaluate the given form(s), print each value; repeatable")
    parser.add_argument("--memoize", action="store_true",
                        help="memoize thunks: call-by-need instead of call-by-name")
    parser.add_argument("--step-limit", type=int, default=10_000_000,
                        metavar="N",
                        help="evaluator steps + loop iterations allowed per "
                             "top-level form (default 10000000)")
    parser.add_argument("--recursion-limit", type=int, default=10_000,
                        metavar="N",
                        help="maximum nested evaluation depth (default 10000, "
                             f"at most {MAX_RECURSION_LIMIT})")
    return parser


def _repl(interp: Interpreter) -> int:
    """Read, evaluate and print until EOF.

    Each line is fed once to a reader that keeps what is open. A form left
    open at a line's end continues on the next, and a line's forms run once
    none is left open. At EOF an open form's read-error is printed and its
    lines are dropped unrun; the next EOF ends the session. A read error or
    Ctrl-C drops what is open, and Ctrl-C stops a running form.
    """
    out = sys.stdout
    reader, forms = Reader(), []   # forms read while a form is open
    while True:
        try:
            out.write("...  " if reader.open else "clz> ")
            out.flush()
            line = sys.stdin.readline()
            if line == "":
                reader.close()   # raises the open form's read-error
                out.write("\n")
                return 0
            if reader.open or line.strip():   # a blank line at the prompt is skipped
                forms += reader.feed(line)
                if reader.open:
                    continue
                for form in forms:
                    out.write(print_value(interp.eval_top(form)) + "\n")
        except LispError as err:   # a read error, or the first form that failed
            out.write(f"{err.kind} at {err.where()}: {err.message}\n")
        except KeyboardInterrupt:  # at the prompt, or while a form runs
            out.write("interrupted\n")
        reader, forms = Reader(), []


def _run_text(interp: Interpreter, text: str, origin: str, echo: bool) -> int:
    try:
        for form in read_source(text):  # the whole text is read first
            value = interp.eval_top(form)
            if echo:
                print(print_value(value))
    except LispError as err:
        print(f"{origin}:{err.where()}: {err.kind}: {err.message}",
              file=sys.stderr)
        return 3 if isinstance(err, StepLimitExceeded) else 1
    except KeyboardInterrupt:
        print(f"{origin}: interrupted", file=sys.stderr)
        return 130
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.file is not None and args.eval_texts is not None:
        parser.error("give a FILE or --eval, not both")
    try:
        interp = Interpreter(memoize=args.memoize, step_limit=args.step_limit,
                             recursion_limit=args.recursion_limit)
    except ValueError as err:   # "step_limit must be positive": name the option
        name, _, reason = str(err).partition(" ")
        parser.error(f"argument --{name.replace('_', '-')}: {reason}")
    texts, origin = args.eval_texts, "<eval>"
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8-sig") as fh:
                texts = [fh.read()]
        except (OSError, UnicodeDecodeError) as err:
            reason = err.strerror if isinstance(err, OSError) else err
            print(f"clz: cannot read {args.file}: {reason}", file=sys.stderr)
            return 2
        origin = args.file
    try:
        code = _repl(interp) if texts is None else 0
        for text in texts or ():  # each in order, up to the first that fails
            code = _run_text(interp, text, origin, echo=args.file is None)
            if code:
                break
        sys.stdout.flush()
    except BrokenPipeError:   # stdout's reader left; what is still buffered goes nowhere
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    return code
