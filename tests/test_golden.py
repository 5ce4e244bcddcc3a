"""Golden-behaviour corpus: seeded programs run three ways, pinned in a file.

Each program defines a global, a strict function, a lazy function with a
&rest parameter and a lazy function whose body is a conftest arithmetic
body mixed with locals, globals, unbound symbols, non-functions, quote,
let, lambda (some lambda lists malformed), lazy-call, tick!, diverge,
stream reads, malformed special forms and arithmetic type and overflow
errors. It then calls every function at least twice. Every program runs
strictly, by name and by need, half of them under a small step limit; a
run continues past an error to its next top-level form. Each run is one
line of golden.txt: the outcome of every form (its printed value, or the
error's kind, line:col and message), then steps, thunks and ticks.

A change meant to keep behaviour leaves the file byte-identical. A change
that moves a counter on purpose regenerates it, and the diff shows which
runs moved:

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import os
import random
import sys

from clz import Interpreter, LispError, print_value
from clz.reader import read_source

from tests.conftest import generate_program

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.txt")
SEED = 20261018
PROGRAMS = 320
MODES = (("strict", False), ("by-name", False), ("by-need", True))

_CONSTANTS = ("0", "1", "-3", "7", ":k", '"s"', "t", "nil",
              "9223372036854775807", "-9223372036854775808", "4611686018427387904")
_ODD_ITEMS = ("zz", "(zz 1)", "(g 2)", "(1 2)", "(:k)", "(tick!)", "(diverge)",
              "'(1 (2 3))", "'x", "(car '(4 5))", "(cdr '(4 5))", "#'h",
              "(if)", "(if 1 2 3 4)", "(let)", "(let (1) 2)", "(quote 1 2)",
              "(progn)", "(function 1)", "(lambda)", "(ecase)", "(defparameter 1 2)",
              "(lazy-call 'h 1)", "(lazy-call 'zz 1)", "(head (integers-from 5))",
              "(head (tail (integers-from g)))")
_LAMBDA_LISTS = ("(x)", "(x &optional (y 2))", "(&rest xs)", "(x &key (y 3))",
                 "(x x)", "(&rest)", "(&key &optional)", "1", "((x))", "(&foo)")


def _leaf(rng: random.Random, local_names: list) -> str:
    roll = rng.random()
    if roll < 0.4:
        return rng.choice(_CONSTANTS)
    if roll < 0.7 and local_names:
        return rng.choice(local_names)
    if roll < 0.8:
        return "g"
    return rng.choice(_ODD_ITEMS)


def _expr(rng: random.Random, depth: int, local_names: list, callees: str = "") -> str:
    """One random expression whose free variables are ``local_names`` and g.

    It calls only the functions named in ``callees``, so that no generated
    function recurses.
    """
    if depth <= 0 or rng.random() < 0.3:
        return _leaf(rng, local_names)

    def sub(names=local_names):
        return _expr(rng, depth - 1, names, callees)

    roll = rng.randrange(12)
    if roll == 0:
        return f"({rng.choice(('+', '-', '*', '=', '<'))} {sub()} {sub()} {sub()})"
    if roll == 1:
        return f"({rng.choice(('+', '-', '*', '=', '<'))} {sub()} {sub()})"
    if roll == 2:
        return f"({rng.choice(('1+', '-'))} {sub()})"
    if roll == 3:
        return f"(if {sub()} {sub()} {sub()})"
    if roll == 4:
        name = f"l{depth}"
        return f"(let (({name} {sub()})) {sub([*local_names, name])})"
    if roll == 5:
        ll = rng.choice(_LAMBDA_LISTS)
        inner = sub([*local_names, "x", "y", "xs"])
        return f"(funcall (lambda {ll} {inner}) {sub()} {sub()})"
    if roll == 6:
        return f"((lambda (x &optional (y {sub()})) (list x y)) {sub()})"
    if roll == 7 and "r" in callees:
        return f"(lazy-call 'r {sub()} {sub()} {sub()})"
    if roll == 8 and "h" in callees:
        return f"(h {sub()})"
    if roll == 9:
        return f"(progn (tick!) {sub()})"
    if roll == 10:
        return f"(ecase (car '({rng.choice('abz')})) (a {sub()}) (b {sub()}))"
    return f"(force (delay {sub()}))"


def program(rng: random.Random) -> tuple[str, str]:
    """The source of one program for a strict run, and for a lazy one."""
    body, args, _ = generate_program(rng)
    mixed = _expr(rng, 3, ["a", "b", "c"], "hr")
    defs = [
        f"(defparameter g {rng.randint(-5, 5)})",
        f"(defun h (x) {_expr(rng, 2, ['x'])})",
        f"(deflazy r (a &rest xs)\n  {_expr(rng, 2, ['a', '(car xs)', '(cdr xs)'], 'h')})",
        f"(deflazy f (a b &optional (c {_expr(rng, 1, ['a', 'b'], 'hr')}))\n"
        f"  (+ {body}\n     {mixed}))",
    ]
    extra = [_expr(rng, 1, []) for _ in range(3)]
    calls = [
        (f"(f {args[0]} {args[1]} {args[2]})", f"(lazy-call 'f {args[0]} {args[1]} {args[2]})"),
        (f"(f {extra[0]} {args[1]})", f"(lazy-call 'f {extra[0]} {args[1]})"),
        (f"(r {extra[1]} 1 {extra[2]})", f"(lazy-call 'r {extra[1]} 1 {extra[2]})"),
        (f"(r {args[0]})", f"(lazy-call 'r {args[0]})"),
        (f"(h {extra[2]})", f"(h {extra[2]})"),
        (f"(h {args[1]})", f"(h {args[1]})"),
    ]
    rng.shuffle(calls)
    head = "\n".join(defs)
    return (head + "\n" + "\n".join(s for s, _ in calls),
            head + "\n" + "\n".join(lz for _, lz in calls))


def run(source: str, memoize: bool, step_limit: int) -> str:
    """One line: every form's outcome, then steps, thunks and ticks."""
    interp = Interpreter(memoize=memoize, step_limit=step_limit)
    outcomes, steps = [], 0
    for form in read_source(source):
        try:
            outcomes.append(print_value(interp.eval_top(form)))
        except LispError as err:
            outcomes.append(f"!{err.kind}@{err.where()} {err.message}")
        steps += interp._steps
    return (" | ".join(outcomes)
            + f" || steps={steps} thunks={interp.thunk_allocations} ticks={interp.tick_count}")


def golden_lines(n: int = PROGRAMS, seed: int = SEED) -> list[str]:
    rng = random.Random(seed)
    lines = []
    for i in range(n):
        strict, lazy = program(rng)
        step_limit = rng.randint(1, 80) if i % 2 else 10_000
        for mode, memoize in MODES:
            source = strict if mode == "strict" else lazy
            lines.append(f"{i} {mode} {step_limit}: {run(source, memoize, step_limit)}")
    return lines


def test_golden_corpus_is_unchanged():
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = fh.read().splitlines()
    actual = golden_lines()
    differing = [(i + 1, old, new) for i, (old, new) in enumerate(zip(expected, actual))
                 if old != new]
    report = "\n".join(f"line {n}:\n  golden: {old}\n  now:    {new}"
                       for n, old, new in differing[:5])
    assert not differing, f"{len(differing)} runs differ from golden.txt:\n{report}"
    assert len(actual) == len(expected), "golden.txt has a different number of runs"


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("\n".join(golden_lines()) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
