"""The benchmark's workloads: seeded inputs, the ops that run them, references.

An op is one unit of timed work: one top-level form, one corpus program, or
one CLI invocation. A round is a fixed list of ops drawn once from the seed;
the benchmark repeats the same round until its time is up, so every count per
round repeats exactly. Each op carries the printed result of every form it
evaluates, computed here in Python without the interpreter, and, where the
benchmark has a step model, the evaluator steps and thunk allocations the
ROADMAP baseline implies.

Step models count one evaluator step per form evaluated, the unit
`Interpreter._steps` counts and `eval_top` resets for each top-level form.
"""

from __future__ import annotations

import functools
from array import array
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass

from clz import Interpreter, LispError, print_value
from clz.reader import read_source

import corpus
import hostspeed

clock = time.perf_counter


@dataclass
class Op:
    text: str              # source handed to the interpreter
    expected: list         # printed value of each top-level form, in order
    steps: int | None = None
    thunks: int | None = None


class Tally:
    """Failure accounting over every op a run attempts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.model_mismatches = 0
        self.notes: list[str] = []

    def fail(self, op: Op, why: str) -> None:
        self.failed += 1
        self.note(f"{op.text[:60]!r}: {why}")

    def note(self, text: str) -> None:
        if len(self.notes) < 10:
            self.notes.append(text)


@dataclass
class RoundResult:
    steps: int
    thunks: int
    latencies_s: array     # wall time of each op
    samples: array         # the host clock's latest sample before each op


# ------------------------------------------------------------ step models

def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


FIB_DEF = "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
LFIB_DEF = ("(deflazy lfib (n) (if (< n 2) n "
            "(+ (lazy-call 'lfib (- n 1)) (lazy-call 'lfib (- n 2)))))")


def fib_strict_steps(n: int) -> int:
    """Steps of `(fib n)` under FIB_DEF.

    The call form, `fib` and the literal are 3 steps. A body is `if` (1),
    `(< n 2)` (4) and then either `n` (1), or `(+ A B)` (2) where each
    recursive call is the call form, `fib` and `(- n k)` (6) plus its body.
    By-need `(lazy-call 'lfib n)` takes the same steps: each argument thunk
    `(- n k)` (4 steps) is forced once, in place of the strict evaluation.
    """
    body = [6, 6]
    for k in range(2, n + 1):
        body.append(19 + body[k - 1] + body[k - 2])
    return 3 + body[n]


@functools.lru_cache(maxsize=None)
def _lfib_by_name_body(n: int, read_cost: int) -> int:
    # read_cost: steps one read of `n` spends below its symbol. By name,
    # each read re-evaluates the `(- n k)` thunk chain up to the root.
    steps = 1 + 4 + read_cost                  # if, (< n 2)
    if n < 2:
        return steps + 1 + read_cost           # n
    child = read_cost + 4                      # (- n k) and its own read of n
    return (steps + 2                          # (+ ...), +
            + 2 + _lfib_by_name_body(n - 1, child)   # lazy-call form, 'lfib
            + 2 + _lfib_by_name_body(n - 2, child))


def lfib_by_name_steps(n: int) -> int:
    """Steps of `(lazy-call 'lfib n)` under call-by-name."""
    return 3 + _lfib_by_name_body(n, 0)


def lfib_thunks(n: int) -> int:
    """Thunks `(lazy-call 'lfib n)` allocates: two per non-base call."""
    return 2 * (fib(n + 1) - 1)


# The ROADMAP item 1 baseline counts.
ROADMAP_COUNTS = {
    "strict (fib 20) steps": 273_634,
    "by-name lfib 20 steps": 1_934_514,
    "by-name lfib 20 thunks": 21_890,
    "by-need lfib 20 steps": 273_634,
    "by-need nats 1000 first pass steps": 42_010,
    "by-need nats 1000 second pass steps": 33_010,
}

# What the step models say for the same programs; they must agree.
MODEL_COUNTS = {
    "strict (fib 20) steps": fib_strict_steps(20),
    "by-name lfib 20 steps": lfib_by_name_steps(20),
    "by-name lfib 20 thunks": lfib_thunks(20),
    "by-need lfib 20 steps": fib_strict_steps(20),
}


def list_text(items) -> str:
    return "(" + " ".join(str(x) for x in items) + ")" if items else "NIL"


def stratified(rng: random.Random, lo: int, hi: int, count: int) -> list:
    """`count` integers from [lo, hi), one from each of `count` equal strata.

    Seeded, but with a round total that barely moves between seeds.
    """
    width = (hi - lo) / count
    return [int(lo + width * (i + rng.random())) for i in range(count)]


# -------------------------------------------------------------- running ops

# Ops start at one of this many extra Python frames, in turn. CPython keeps
# frames in 16 KB chunks and frees a chunk whenever the stack drops back out
# of it, so where a recursion crosses a chunk boundary, which depends on the
# caller's depth, can double its time. Starting each op at another depth
# averages over boundary positions, so a change to frame sizes elsewhere
# does not show up as a speed change.
ALIGNMENTS = 128


def at_depth(extra: int, fn, *args):
    """Call `fn(*args)` from `extra` Python frames deeper."""
    if extra:
        return at_depth(extra - 1, fn, *args)
    return fn(*args)


class NullTracer:
    """Tracer for untraced rounds: records nothing."""

    def open(self, name, parent=None):
        return None

    def close(self, span) -> None:
        pass


NULL_TRACER = NullTracer()


def run_source(interp, text: str, tracer, parent):
    """Read, evaluate and print every form of `text`: the REPL's path.

    Returns the printed values and the evaluator steps of all forms.
    """
    span = tracer.open("read_source", parent)
    forms = read_source(text)
    tracer.close(span)
    printed = []
    steps = 0
    for form in forms:
        span = tracer.open("eval_top", parent)
        value = interp.eval_top(form)
        tracer.close(span)
        steps += interp._steps
        span = tracer.open("print_value", parent)
        printed.append(print_value(value))
        tracer.close(span)
    return printed, steps


class Workload:
    """An in-process workload on one interpreter made by `setup`."""

    name = ""
    memoize = False
    definitions = ""
    fresh_interpreter = False   # each op builds its own Interpreter()
    _ops_run = 0

    def __init__(self, rng: random.Random, root: str):
        self.root = root
        self.ops = self.make_ops(rng)

    def make_ops(self, rng: random.Random) -> list:
        raise NotImplementedError

    def new_interpreter(self):
        return Interpreter(memoize=self.memoize)

    def setup(self, tracer=NULL_TRACER):
        """A fresh interpreter with the workload's definitions loaded."""
        span = tracer.open("interpreter", None)
        interp = self.new_interpreter()
        tracer.close(span)
        if self.definitions:
            run_source(interp, self.definitions, tracer, None)
        return interp

    def host_clock(self):
        """The clock the ops are timed against; None for the in-process
        clock that set-ups use too."""
        return None

    def layer_view(self) -> "Workload":
        """The in-process workload that stands for this one in the trace."""
        return self

    def warmup(self, interp, tally: Tally, host) -> None:
        """One untimed round, so that lazy set-up finishes before timing."""
        self.run_round(interp, tally, host)

    def run_round(self, interp, tally: Tally, host,
                  tracer=NULL_TRACER) -> RoundResult:
        """Run every op once; `host` samples the host's speed between ops."""
        latencies, samples = [], []
        steps = thunks = 0
        round_span = tracer.open("round", None)
        for op in self.ops:
            samples.append(host.tick())
            self._ops_run += 1
            latency, counts = at_depth(self._ops_run * 79 % ALIGNMENTS,
                                       self._run_op, interp, op, tally,
                                       tracer, round_span)
            latencies.append(latency)
            if counts is not None:
                steps += counts[0]
                thunks += counts[1]
                self._check_model(op, *counts, tally)
        tracer.close(round_span)
        # Arrays, so that the run's bookkeeping barely adds to peak memory.
        return RoundResult(steps, thunks, array("d", latencies),
                           array("q", samples))

    def _run_op(self, interp, op: Op, tally: Tally, tracer, round_span):
        """Time one op; return its latency and (steps, thunks), or None."""
        tally.attempted += 1
        op_span = tracer.open("op", round_span)
        t0 = clock()
        try:
            if self.fresh_interpreter:
                span = tracer.open("interpreter", op_span)
                interp = self.new_interpreter()
                tracer.close(span)
            thunks0 = interp.thunk_allocations
            printed, steps = run_source(interp, op.text, tracer, op_span)
        except (LispError, RecursionError) as err:
            latency = clock() - t0
            tracer.close(op_span)
            tally.fail(op, f"{type(err).__name__}: {err}")
            return latency, None
        latency = clock() - t0
        tracer.close(op_span)
        if printed != op.expected:
            tally.fail(op, f"printed {str(printed)[:80]}")
        return latency, (steps, interp.thunk_allocations - thunks0)

    @staticmethod
    def _check_model(op: Op, steps: int, thunks: int, tally: Tally) -> None:
        for what, want, got in (("steps", op.steps, steps),
                                ("thunks", op.thunks, thunks)):
            if want is not None and want != got:
                tally.model_mismatches += 1
                tally.note(f"{op.text!r}: {got} {what}, the model says {want}")


def balanced_sizes(rng: random.Random, centre: int, reps: int) -> list:
    """centre-1, centre and centre+1, `reps` times each, in seeded order."""
    sizes = [centre + d for d in (-1, 0, 1) for _ in range(reps)]
    rng.shuffle(sizes)
    return sizes


class FibStrict(Workload):
    """Strict `(fib n)`, n around 16 in seeded order.

    Evaluator dispatch, lookup, `apply_strict`, binding and arithmetic
    builtins do the work; no thunks, so it bypasses the lazy layer.
    """

    name = "fib-strict"
    definitions = FIB_DEF

    def make_ops(self, rng):
        return [Op(f"(fib {n})", [str(fib(n))], fib_strict_steps(n), 0)
                for n in balanced_sizes(rng, 16, 2)]


class FibLazyName(Workload):
    """By-name `(lazy-call 'lfib n)`, n around 12 in seeded order.

    Re-forcing chains of thunks dominate; the bypass workload for changes
    to by-need alone.
    """

    name = "fib-lazy-name"
    definitions = LFIB_DEF

    def make_ops(self, rng):
        return [Op(f"(lazy-call 'lfib {n})", [str(fib(n))],
                   lfib_by_name_steps(n), lfib_thunks(n))
                for n in balanced_sizes(rng, 12, 2)]


class StreamsNeed(Workload):
    """By-need prelude streams: prefixes of a shared and of fresh streams.

    The shared stream's memo cells are written by the first prefix and hit
    by the later ones. Closures called through funcall/ecase, recursion
    1,000 deep, and long printed lists.
    """

    name = "streams-need"
    memoize = True

    def make_ops(self, rng):
        shared = stratified(rng, 500, 1000, 5)
        fresh = stratified(rng, 500, 1000, 5)
        first = shared.pop()
        ops = [Op(f"(stream-take nats {k})", [list_text(range(k))])
               for k in shared]
        for k in fresh:
            start = rng.randrange(0, 100_000)
            ops.append(Op(f"(stream-take (integers-from {start}) {k})",
                          [list_text(range(start, start + k))]))
        rng.shuffle(ops)
        # Each round rebinds the shared stream, so its first prefix writes
        # memo cells and the later ones hit them.
        ops.insert(0, Op(f"(defparameter nats (integers-from 0)) "
                         f"(stream-take nats {first})",
                         ["NATS", list_text(range(first))]))
        return ops


class Corpus(Workload):
    """1,000 seeded random programs; an op defines one with deflazy and
    calls it strictly and with lazy-call.

    The reader dominates and every function runs once, so per-definition
    costs show here.
    """

    name = "corpus"

    def make_ops(self, rng):
        ops = []
        for i in range(1000):
            body, args, expected = corpus.generate_program(rng)
            name = f"gen{i % 10}"
            params = " ".join(corpus.PARAMS)
            arg_text = " ".join(args)
            ops.append(Op(f"(deflazy {name} ({params}) {body})\n"
                          f"({name} {arg_text})\n"
                          f"(lazy-call '{name} {arg_text})",
                          [name.upper(), str(expected), str(expected)]))
        return ops


class CliCold(Workload):
    """`python -m clz --eval` on a tiny form, one child process at a time.

    Import, the CLI's big-stack thread and the prelude load are the cost.
    """

    name = "cli-cold"

    def __init__(self, rng, root):
        super().__init__(rng, root)
        self.twin = CliTwin(self.ops, root)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), self.env.get("PYTHONPATH"))
            if p)

    def make_ops(self, rng):
        ops = []
        for _ in range(3):
            a, b = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
            ops.append(Op(f"(+ {a} {b})", [str(a + b)]))
        return ops

    def host_clock(self):
        return hostspeed.python_start_clock(self.root, self.env)

    def layer_view(self):
        return self.twin

    def warmup(self, interp, tally, host):
        # Steps and thunks per round are the in-process twin's.
        twin = self.twin.run_round(interp, tally, host)
        self.twin_steps, self.twin_thunks = twin.steps, twin.thunks
        self.run_round(interp, tally, host)

    def run_round(self, interp, tally, host, tracer=NULL_TRACER):
        result = super().run_round(interp, tally, host, tracer)
        result.steps, result.thunks = self.twin_steps, self.twin_thunks
        return result

    def _run_op(self, interp, op, tally, tracer, round_span):
        tally.attempted += 1
        op_span = tracer.open("op", round_span)
        t0 = clock()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "clz", "--eval", op.text],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            proc = None
        latency = clock() - t0
        tracer.close(op_span)
        if proc is None:
            tally.fail(op, "timed out")
        elif proc.returncode != 0 or proc.stdout.splitlines() != op.expected:
            tally.fail(op, f"exit {proc.returncode}, stdout {proc.stdout[:40]!r}, "
                           f"stderr {proc.stderr[-80:]!r}")
        return latency, None


class CliTwin(Workload):
    """What each cli-cold child does, in process: Interpreter() and the form."""

    name = "cli-cold-in-process"
    fresh_interpreter = True

    def __init__(self, ops: list, root: str):
        self.root = root
        self.ops = ops


WORKLOADS = {cls.name: cls for cls in
             (FibStrict, FibLazyName, StreamsNeed, Corpus, CliCold)}
