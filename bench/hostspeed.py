"""Host speed, measured on fixed references and used to correct op times.

The shared 2-vCPU host the bounds were set on runs everything 1.5 to 2
times slower in spells of 10 to 30 seconds, with CPU time slowed as much as
wall time. Neither best-of-N nor CPU time removes such spells from a run of
tens of seconds, and whole runs fall in them: the best round of a 20 s run
spread by 40% over ten runs.

So each op is timed next to a reference, work kept in this file and never
changed with the interpreter, that slows as clz does:

- In-process ops and set-ups take `format_s`, writing 1,500 integers as
  one line of text. In 60 to 120 s recordings of four workloads, each
  crossing both speeds, the median round time of each 5 s stretch varied
  by 15 to 20% (standard deviation of logs); corrected by this reference,
  by 4 to 7%. A tree-walking evaluator running `(fib 8)`, a list of small
  dicts, and a mix of either with this reference did worse, 6 to 12%: the
  pure-Python ones slowed by up to 2 times where clz slowed by 1.5.
- CLI invocations take `python_start_s`, a bare `python -c pass`. Over a
  minute, one `python -m clz --eval` took 1.59 to 1.64 times it in every
  10 s stretch; against an in-process reference the ratio moved by 18%.

A `HostClock` takes reference samples between ops, spread evenly over the
time the ops take. An op's corrected time is its wall time times the
reference's nominal time over the median of the samples around the op: the
time the op would take at the speed the host has in its fast spells. A
change to the interpreter moves the corrected time one for one. A change
that slowed or sped up all Python code in the process alike would be hidden.
"""

from __future__ import annotations

import functools
import statistics
import subprocess
import sys
import time

clock = time.perf_counter

# Nominal reference times: about what each takes in the host's fast spells
# (2-vCPU VM, Python 3.11.7).
FORMAT_S = 0.20e-3
PYTHON_START_S = 0.040


def format_s() -> float:
    """Wall time of writing 1,500 integers as one line of text."""
    t0 = clock()
    " ".join(str(i) for i in range(1500))
    return clock() - t0


def python_start_s(cwd: str, env: dict) -> float:
    """Wall time of a bare `python -c pass`, started as the CLI ops are."""
    t0 = clock()
    # Output pipes, as the ops have: without them a wait with a timeout
    # polls, in sleeps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, env=env,
                   stdin=subprocess.DEVNULL, capture_output=True, check=True,
                   timeout=60)
    return clock() - t0


class HostClock:
    """Reference samples taken between ops, and the corrections they give.

    `tick` takes one sample for every `interval_s` of time since the last
    samples, at most `burst` at once, so that samples spread evenly over
    the ops' time. A correction takes the median of the `window` samples on
    each side.
    """

    def __init__(self, name="format", reference=format_s, nominal_s=FORMAT_S,
                 interval_s=0.01, burst=30, window=10):
        self.name, self.reference, self.nominal_s = name, reference, nominal_s
        self.interval_s, self.burst, self.window = interval_s, burst, window
        self.samples: list = []
        self._last = 0.0

    def tick(self) -> int:
        """Sample as due; return the index of the latest sample."""
        due = (1 if not self.samples else
               min(self.burst, int((clock() - self._last) / self.interval_s)))
        if due:
            self.samples.extend(self.reference() for _ in range(due))
            self._last = clock()
        return len(self.samples) - 1

    def factors(self) -> list:
        """For each sample, the nominal time over the median around it.

        Call once the run is over, so that every sample has neighbours on
        both sides.
        """
        s, w = self.samples, self.window
        return [self.nominal_s / statistics.median(s[max(0, i - w):i + w + 1])
                for i in range(len(s))]

    def describe(self) -> str:
        return (f"{self.name} reference took "
                f"{statistics.median(self.samples) * 1e3:.3f} ms (median of "
                f"{len(self.samples)}), {self.nominal_s * 1e3:.3f} ms nominal")


def python_start_clock(cwd: str, env: dict) -> HostClock:
    """A clock for CLI ops: one process start per op, median of five."""
    return HostClock("python -c pass",
                     functools.partial(python_start_s, cwd, env),
                     PYTHON_START_S, interval_s=0.05, burst=1, window=2)
