"""A KeyboardInterrupt at any point of an evaluation leaves the interpreter
whole: its depth counter back where it was and no thunk black-holed, so the
next form runs as it would have. A Ctrl-C reaches the evaluator this way,
through Python's own SIGINT handler."""

import gc
import linecache
import os
import random
import signal
import sys

import pytest

import clz
from clz import Interpreter
from clz.lazy import _BLACKHOLE
from clz.reader import read_source
from clz.values import NIL, Cons, FunctionObject, Thunk

COUNT = "(defun count (n) (if (= n 0) 0 (count (- n 1))))"
# A by-need stream whose every head is a thunk over a lazy frame's variable:
# forcing one goes through a two-thunk chain.
CHAINED = """
(deflazy my-cons (a b) (lazy-call 'conc a b))
(defun my-ints (n) (lazy-call 'my-cons n (my-ints (+ n 1))))
"""
CHAINED_STREAM = CHAINED + "(defparameter s (my-ints 0))"
PICK = "(deflazy pick (c a &optional (b (+ a 1)) &key (k 3)) (if c (+ a k) b))"


def run(interp, text):
    value = None
    for form in read_source(text):
        value = interp.eval_top(form)
    return value


def to_list(value):
    items = []
    while value is not NIL:
        items.append(value.car)
        value = value.cdr
    return items


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
class TestTimedInterrupts:
    """SIGALRM raises KeyboardInterrupt after a random 0.1 to 12 ms."""

    @pytest.fixture
    def alarm(self):
        armed = [False]

        def on_alarm(signum, frame):
            if armed[0]:
                raise KeyboardInterrupt

        def interrupted(interp, text, delay):
            """Run ``text`` under a timer: True if the timer interrupted it."""
            armed[0] = True
            signal.setitimer(signal.ITIMER_REAL, delay)
            try:
                try:
                    run(interp, text)
                finally:  # an interrupt from here on still lands in the outer try
                    armed[0] = False
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except KeyboardInterrupt:
                return True
            return False

        # gc off: a handler run inside a gc callback would raise where
        # Python only reports the exception and carries on
        previous, collecting = signal.signal(signal.SIGALRM, on_alarm), gc.isenabled()
        gc.disable()
        yield interrupted
        if collecting:
            gc.enable()
        signal.signal(signal.SIGALRM, previous)

    def test_a_tail_loop_and_a_chained_stream_survive_interrupts(self, alarm):
        rng = random.Random(1)
        interp = Interpreter(memoize=True)
        run(interp, COUNT + CHAINED)
        hits = sum(alarm(interp, "(count 3000)", rng.uniform(0.0001, 0.012))
                   for _ in range(100))
        assert interp._depth == 0
        assert run(interp, "(count 3000)") == 0
        for _ in range(60):
            run(interp, "(defparameter s (my-ints 0))")
            hits += alarm(interp, "(stream-take s 300)", rng.uniform(0.0001, 0.012))
            assert interp._depth == 0
            assert to_list(run(interp, "(stream-take s 300)")) == list(range(300))
        assert hits > 40  # the timers land inside the runs, not only around them


class Injector:
    """A trace hook that raises KeyboardInterrupt at the ``at``-th line event
    in clz's own source; with ``at`` None it only counts the events.

    A hook raises before a line's first instruction. Python runs a signal
    handler only at a call or a backward jump, so no Ctrl-C can land on the
    line of evaluate's finally that restores the depth, which holds neither:
    that line is not counted."""

    SRC = os.path.dirname(clz.__file__)

    def __init__(self, at=None):
        self.at, self.seen = at, 0

    def __call__(self, frame, event, arg):
        return self.line if frame.f_code.co_filename.startswith(self.SRC) else None

    def line(self, frame, event, arg):
        if event == "line" and linecache.getline(
                frame.f_code.co_filename, frame.f_lineno).strip() != "self._depth = depth":
            if self.seen == self.at:
                raise KeyboardInterrupt
            self.seen += 1
        return self.line


def traced(interp, text, hook):
    sys.settrace(hook)
    try:
        return run(interp, text)
    finally:
        sys.settrace(None)


def black_holes(interp):
    """How many thunks reachable from the global frame are black-holed."""
    seen, todo, found = set(), [interp.global_env], 0
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if type(x) is dict:
            todo += x.values()
        elif type(x) is Thunk:
            found += x.expr is _BLACKHOLE
            todo += [x.env, x.value]
        elif type(x) is Cons:
            todo += [x.car, x.cdr]
        elif type(x) is FunctionObject:
            todo.append(x.closure)
    return found


class TestInjectedInterrupts:
    """A KeyboardInterrupt injected at each line event, one run per event,
    over tick-free programs (so a rerun may repeat every effect)."""

    @pytest.mark.parametrize("memoize", [False, True], ids=["by-name", "by-need"])
    @pytest.mark.parametrize("setup, text", [
        (COUNT, "(count 1)"),
        (CHAINED_STREAM, "(head s)"),
        (PICK, "(lazy-call 'pick t 1 (diverge) :k (car '(4)))"),
    ], ids=["tail-loop", "chained-stream", "optional-and-key"])
    def test_every_line_point_leaves_the_interpreter_whole(self, setup, text, memoize):
        expected = run(Interpreter(memoize=memoize), setup + text)
        counter = Injector()
        interp = Interpreter(memoize=memoize)
        run(interp, setup)
        traced(interp, text, counter)
        assert counter.seen > 100
        for at in range(counter.seen):
            interp = Interpreter(memoize=memoize)
            run(interp, setup)
            with pytest.raises(KeyboardInterrupt):
                traced(interp, text, Injector(at))
            assert (interp._depth, black_holes(interp)) == (0, 0), f"line event {at}"
            assert run(interp, text) == expected, f"line event {at}"
