"""Command line: REPL by default, or run a file, or evaluate one string.

Evaluation runs on the main thread, so Ctrl-C reaches it: the REPL drops
the running or the unclosed form and keeps the session; a file or --eval
stops. Exit codes: 0 success, 1 evaluation or read error, 2 I/O error,
3 step limit, 130 interrupted.
"""

from __future__ import annotations

import argparse
import sys

from .core import Interpreter
from .errors import LispError, StepLimitExceeded
from .reader import Reader, read_source
from .values import print_value


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if n <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clz",
        description="A small Lisp whose functions can take their arguments lazily.",
    )
    parser.add_argument("file", nargs="?",
                        help="script to run; omit (and no --eval) for a REPL")
    parser.add_argument("--eval", metavar="FORM", dest="eval_text",
                        help="evaluate the given form(s) and print each value")
    parser.add_argument("--memoize", action="store_true",
                        help="memoize thunks: call-by-need instead of call-by-name")
    parser.add_argument("--step-limit", type=_positive_int, default=10_000_000,
                        metavar="N",
                        help="evaluator steps + loop iterations allowed per "
                             "top-level form (default 10000000)")
    parser.add_argument("--recursion-limit", type=_positive_int, default=10_000,
                        metavar="N",
                        help="maximum nested evaluation depth (default 10000)")
    return parser


def _repl(interp: Interpreter) -> int:
    """Read, evaluate and print until EOF.

    Each line is fed once to a reader that keeps what is open. A form left
    open at a line's end continues on the next, and a line's forms run once
    none is left open. If EOF comes first, the open form's read-error is
    printed, and the lines after the one it began on are read again. A read
    error or Ctrl-C drops what is open, and Ctrl-C stops a running form.
    """
    out = sys.stdout
    reader, lines, forms = Reader(), [], []  # lines fed and forms read while open
    replay: list[str] = []                   # lines read again after an unclosed form, last first
    while True:
        try:
            if replay:
                line = replay.pop()
            else:
                out.write("...  " if reader.open else "clz> ")
                out.flush()
                line = sys.stdin.readline()
            if line == "":
                if not reader.open:
                    out.write("\n")
                    return 0
                replay.extend(reversed(lines[1:]))
                reader.close()   # raises the open form's read-error
            elif reader.open or line.strip():   # a blank line at the prompt is skipped
                lines.append(line)
                forms += reader.feed(line)
                if reader.open:
                    continue
                for form in forms:
                    out.write(print_value(interp.eval_top(form)) + "\n")
        except LispError as err:   # a read error, or the first form that failed
            out.write(f"{err.kind} at {err.where()}: {err.message}\n")
        except KeyboardInterrupt:  # at the prompt, or while a form runs
            out.write("interrupted\n")
        reader, lines, forms = Reader(), [], []


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
    if args.file is not None and args.eval_text is not None:
        parser.error("give a FILE or --eval, not both")
    interp = Interpreter(
        memoize=args.memoize,
        step_limit=args.step_limit,
        recursion_limit=args.recursion_limit,
    )
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            reason = err.strerror if isinstance(err, OSError) else err
            print(f"clz: cannot read {args.file}: {reason}", file=sys.stderr)
            return 2
        return _run_text(interp, text, args.file, echo=False)
    if args.eval_text is not None:
        return _run_text(interp, args.eval_text, "<eval>", echo=True)
    return _repl(interp)
