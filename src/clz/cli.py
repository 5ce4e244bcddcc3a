"""Command line: REPL by default, or run a file, or evaluate strings.

Evaluation runs on the main thread, so Ctrl-C reaches it: the REPL drops
the running or the unclosed form and keeps the session; a file or --eval
stops. Exit codes: 0 success, 1 evaluation or read error or a standard
output closed early, 2 I/O error or a bad option, 3 step limit,
130 interrupted.
"""

from __future__ import annotations

import os
import sys

from .core import MAX_RECURSION_LIMIT, Interpreter
from .errors import LispError, StepLimitExceeded
from .reader import Reader, read_source
from .values import print_value


_USAGE = "usage: clz [FILE] [--eval FORM]... [--memoize] [--step-limit N] [--recursion-limit N]\n"
_HELP = f"""{_USAGE}
A small Lisp whose functions can take their arguments lazily. FILE is a
script to run; with no FILE and no --eval, a REPL starts.

  --eval FORM          evaluate the forms in FORM, print each value; repeatable
  --memoize            memoize thunks: call-by-need instead of call-by-name
  --step-limit N       steps + loop iterations per top-level form (default 10000000)
  --recursion-limit N  nested evaluation depth (default 10000, at most {MAX_RECURSION_LIMIT})
  -h, --help           show this help and exit

Options are spelled in full; a VALUE follows its option, after a space or '='.
"""


def _parse(argv: list[str]):
    """The options in ``argv`` by name, with "interp" the Interpreter they
    configure; None for -h; or a usage error's message."""
    opts = {"FILE": None, "--step-limit": 10_000_000, "--recursion-limit": 10_000}
    args = iter(argv)
    for arg in args:
        name, eq, value = arg.partition("=") if arg.startswith("--") else (arg, "", "")
        if name in ("--eval", "--step-limit", "--recursion-limit"):
            if not eq and (value := next(args, None)) is None:
                return f"argument {name}: expected one argument"
            if name == "--eval":
                opts.setdefault(name, []).append(value)
                continue
            try:
                opts[name] = int(value)
            except ValueError:
                return f"argument {name}: invalid int value: {value!r}"
        elif arg in ("-h", "--help"):
            return None
        elif arg == "--memoize":
            opts[arg] = True
        elif opts["FILE"] is None and not arg.startswith("-"):
            opts["FILE"] = arg
        else:
            return f"unrecognized arguments: {arg}"
    if opts["FILE"] is not None and "--eval" in opts:
        return "give a FILE or --eval, not both"
    try:
        opts["interp"] = Interpreter(memoize="--memoize" in opts, step_limit=opts["--step-limit"],
                                     recursion_limit=opts["--recursion-limit"])
    except ValueError as err:   # "step_limit must be positive": name the option
        name, _, reason = str(err).partition(" ")
        return f"argument --{name.replace('_', '-')}: {reason}"
    return opts


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


def _run(opts: dict) -> int:
    """Run the file, the --eval texts or the REPL that ``opts`` asks for."""
    interp, path, texts, origin = opts["interp"], opts["FILE"], opts.get("--eval"), "<eval>"
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8-sig") as fh:
                texts = [fh.read()]
        except (OSError, UnicodeDecodeError) as err:
            reason = err.strerror if isinstance(err, OSError) else err
            print(f"clz: cannot read {path}: {reason}", file=sys.stderr)
            return 2
        origin = path
    code = _repl(interp) if texts is None else 0
    for text in texts or ():  # each in order, up to the first that fails
        code = _run_text(interp, text, origin, echo=path is None)
        if code:
            break
    return code


def main(argv=None) -> int:
    opts = _parse(sys.argv[1:] if argv is None else argv)
    if type(opts) is str:
        sys.stderr.write(f"{_USAGE}clz: error: {opts}\n")
        return 2
    try:
        if opts is None:
            sys.stdout.write(_HELP)
        code = 0 if opts is None else _run(opts)
        sys.stdout.flush()
    except BrokenPipeError:   # stdout's reader left; what is still buffered goes nowhere
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    return code
