"""Per-layer measurement from outside the interpreter.

Spans time the benchmark's calls into each layer's entry point
(`Interpreter()`, `read_source`, `eval_top`, `print_value`); a cProfile pass
over one round gives call counts, self-time shares and caller edges of the
functions each layer is made of; probes time single layers on their own.
Nothing here reaches into the interpreter beyond what a caller can see.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import statistics
import subprocess
import sys
import time

from clz import Interpreter, LispError
from clz.reader import read_source

from hostspeed import HostClock
from workloads import FIB_DEF, LFIB_DEF, NULL_TRACER, run_source


class Tracer:
    """Spans kept in memory as [id, parent id, name, start_ns, end_ns]."""

    def __init__(self):
        self.spans: list = []

    def open(self, name: str, parent=None):
        span = [len(self.spans), None if parent is None else parent[0], name,
                time.perf_counter_ns(), 0]
        self.spans.append(span)
        return span

    def close(self, span) -> None:
        span[4] = time.perf_counter_ns()

    def totals(self, since: int = 0) -> dict:
        """Seconds spent in each span name, over the spans from `since` on."""
        out: dict = {}
        for _, _, name, start, end in self.spans[since:]:
            out[name] = out.get(name, 0.0) + (end - start) / 1e9
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"))


# ------------------------------------------------------------------ profile
#
# The functions each layer metric covers, as (module under clz, name); a
# name ending in "*" is a prefix. A metric whose functions no longer exist
# reads None, so a refactor that renames them does not break the run.

CALLS = {
    "core.lookup.calls": [("core", "lookup")],
    "core.apply.calls": [("core", "apply_strict"), ("core", "apply")],
    "core.bind.calls": [("core", "bind_lambda_list")],
    "lambdalist.parse.calls": [("lambdalist", "parse_lambda_list")],
    "lazy.force.calls": [("lazy", "force")],
    "lazy.lazy_call.calls": [("lazy", "eval_lazy_call")],
    "builtins.calls": [("builtins", "_bi_*")],
}

SELF_SHARES = {
    "core.evaluate.self_share": [("core", "evaluate"), ("core", "_sf_*")],
    "core.bind.self_share": [("core", "bind_lambda_list")],
    "lambdalist.parse.self_share": [("lambdalist", "parse_lambda_list")],
    "lazy.force.self_share": [("lazy", "force")],
    "lazy.lazy_call.self_share": [("lazy", "eval_lazy_call")],
    "builtins.self_share": [("builtins", "_bi_*"), ("builtins", "_check_int"),
                            ("builtins", "_check_range"),
                            ("core", "_check_builtin_arity")],
}

# Calls of the second function made by the first: evaluations of thunk bodies.
CALLER_EDGES = {
    "lazy.thunk_evals": (("lazy", "force"), ("core", "evaluate")),
}


def _name_matches(pattern: str, name: str) -> bool:
    if pattern.endswith("*"):
        return name.startswith(pattern[:-1])
    return name == pattern


def _module(short: str):
    return sys.modules.get("clz." + short)


def _defined_names(module) -> set:
    """Function names defined in `module`, methods of its classes included."""
    names = set()
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            names.update(k for k, v in vars(obj).items() if callable(v))
        elif callable(obj):
            names.add(obj.__name__)
    return names


class Profile:
    """cProfile statistics of one round, looked up by (module, name)."""

    def __init__(self, profile: cProfile.Profile):
        self.stats = pstats.Stats(profile).stats
        self.total_tt = sum(entry[2] for entry in self.stats.values())

    @staticmethod
    def _matches(key, matchers) -> bool:
        filename, _, name = key
        for short, pattern in matchers:
            module = _module(short)
            if (module is not None and _name_matches(pattern, name)
                    and os.path.realpath(module.__file__)
                    == os.path.realpath(filename)):
                return True
        return False

    @staticmethod
    def _defined(matchers) -> bool:
        for short, pattern in matchers:
            module = _module(short)
            if module is not None and any(_name_matches(pattern, n)
                                          for n in _defined_names(module)):
                return True
        return False

    def calls(self, matchers):
        if not self._defined(matchers):
            return None
        return sum(entry[1] for key, entry in self.stats.items()
                   if self._matches(key, matchers))

    def self_share(self, matchers):
        if not self._defined(matchers):
            return None
        tt = sum(entry[2] for key, entry in self.stats.items()
                 if self._matches(key, matchers))
        return tt / self.total_tt if self.total_tt else 0.0

    def edge_calls(self, caller, callee):
        if not (self._defined([caller]) and self._defined([callee])):
            return None
        count = 0
        for key, entry in self.stats.items():
            if self._matches(key, [callee]):
                count += sum(edge[0] for caller_key, edge in entry[4].items()
                             if self._matches(caller_key, [caller]))
        return count

    def metrics(self) -> dict:
        out = {name: self.calls(m) for name, m in CALLS.items()}
        out.update((name, self.self_share(m)) for name, m in SELF_SHARES.items())
        out.update((name, self.edge_calls(*edge))
                   for name, edge in CALLER_EDGES.items())
        return out


LAYER_ROUNDS = 5  # spanned rounds of a workload's in-process view, if separate


def layer_metrics(workload, interp, tally, tracer, spanned, root) -> dict:
    """Every per-layer metric of BENCHMARK.json but trace.overhead_frac.

    `spanned` are the timed phase's rounds with spans, each with its
    seconds per span name.
    """
    view = workload.layer_view()
    host = HostClock()   # samples apart from the timed phase's
    if view is not workload:
        layer_interp = view.setup()
        layer_rounds = []
        for _ in range(LAYER_ROUNDS):
            gc.collect()
            mark = len(tracer.spans)
            result = view.run_round(layer_interp, tally, host, tracer)
            layer_rounds.append((result, tracer.totals(mark)))
    else:
        layer_interp, layer_rounds = interp, spanned

    def span_s(name: str) -> float:
        return statistics.median(totals.get(name, 0.0)
                                 for _, totals in layer_rounds)

    text_kb = sum(len(op.text.encode()) for op in view.ops) / 1e3
    last = layer_rounds[-1][0]
    read_s, eval_s = span_s("read_source"), span_s("eval_top")
    metrics = {
        "reader.read_s": read_s,
        "reader.kb_per_s": text_kb / read_s,
        "reader.forms": sum(count_forms(op.text) for op in view.ops),
        "core.eval_s": eval_s,
        "core.steps": last.steps,
        "core.steps_per_s": last.steps / eval_s,
        "lazy.thunks": last.thunks,
        "values.print_s": span_s("print_value"),
        "values.print_chars": sum(len(p) for op in view.ops for p in op.expected),
    }
    gc.collect()
    metrics.update(profile_round(view, layer_interp, tally, host))
    metrics["core.max_stream_prefix"] = max_stream_prefix()
    metrics["prelude.load_s"] = prelude_load_s()
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    metrics.update(cli_floors(root, env))
    return metrics


def profile_round(workload, interp, tally, host) -> dict:
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        workload.run_round(interp, tally, host)
    finally:
        profiler.disable()
    return Profile(profiler).metrics()


# ------------------------------------------------------------------- probes

def count_forms(text: str) -> int:
    """Form nodes the reader produces for `text`, nested ones included."""
    count = 0
    stack = list(read_source(text))
    while stack:
        form = stack.pop()
        count += 1
        if isinstance(form.datum, list):
            stack.extend(form.datum)
    return count


def max_stream_prefix(limit: int = 16_384) -> int:
    """Largest n for which `(stream-take (integers-from 0) n)` completes.

    Bisection, each probe in a default `Interpreter()` on the calling
    thread; the host frames per stream element set the answer.
    """
    def completes(n: int) -> bool:
        try:
            Interpreter().run(f"(stream-take (integers-from 0) {n})")
        except LispError:
            return False
        return True

    if completes(limit):
        return limit
    lo, hi = 0, limit
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if completes(mid):
            lo = mid
        else:
            hi = mid
    return lo


def prelude_load_s(reps: int = 31) -> float:
    """Median `Interpreter()` minus median `Interpreter(prelude=False)`."""
    with_prelude, bare = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        Interpreter()
        t1 = time.perf_counter()
        Interpreter(prelude=False)
        t2 = time.perf_counter()
        with_prelude.append(t1 - t0)
        bare.append(t2 - t1)
    return statistics.median(with_prelude) - statistics.median(bare)


_IMPORT_PROBE = ("import time; t = time.perf_counter(); import clz.cli; "
                 "print(time.perf_counter() - t)")


def cli_floors(root: str, env: dict, reps: int = 7) -> dict:
    """Bare interpreter start-up, and `import clz.cli` timed in the child."""
    floors, imports = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env,
                       stdin=subprocess.DEVNULL, capture_output=True,
                       check=True, timeout=60)
        floors.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=root,
                             env=env, stdin=subprocess.DEVNULL, check=True,
                             capture_output=True, text=True, timeout=60)
        imports.append(float(out.stdout))
    return {"cli.python_floor_s": statistics.median(floors),
            "cli.import_s": statistics.median(imports)}


def reconcile() -> dict:
    """Counts of the ROADMAP item 1 baseline programs, run in process.

    Keys are those of `workloads.ROADMAP_COUNTS`.
    """
    def counts(memoize: bool, definition: str, *texts):
        interp = Interpreter(memoize=memoize)
        run_source(interp, definition, NULL_TRACER, None)
        out = []
        for text in texts:
            thunks0 = interp.thunk_allocations
            _, steps = run_source(interp, text, NULL_TRACER, None)
            out.append((steps, interp.thunk_allocations - thunks0))
        return out

    [(strict, _)] = counts(False, FIB_DEF, "(fib 20)")
    [(by_name, by_name_thunks)] = counts(False, LFIB_DEF, "(lazy-call 'lfib 20)")
    [(by_need, _)] = counts(True, LFIB_DEF, "(lazy-call 'lfib 20)")
    (writes, _), (hits, _) = counts(True, "(defparameter nats (integers-from 0))",
                                    "(stream-take nats 1000)",
                                    "(stream-take nats 1000)")
    return {
        "strict (fib 20) steps": strict,
        "by-name lfib 20 steps": by_name,
        "by-name lfib 20 thunks": by_name_thunks,
        "by-need lfib 20 steps": by_need,
        "by-need nats 1000 first pass steps": writes,
        "by-need nats 1000 second pass steps": hits,
    }
