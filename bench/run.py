"""Benchmark of the clz interpreter: one workload per run, one JSON result.

    python3 bench/run.py --workload fib-strict --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the interpreter is imported from its
`src/`. The workload's inputs are drawn from `--seed`. After set-up and one
untimed warm-up round, rounds of the same ops run back to back in one
thread, closed loop, until `--seconds` have passed. Op times are corrected
for host speed against fixed references timed between ops (hostspeed.py).
Every op's printed results are checked against references computed in
Python. With `--trace 0` the result holds the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it holds the per-layer metrics, from
rounds with spans interleaved with plain ones, one cProfile round, and
probes of single layers. Spans are written to bench/out/ at the end.
bench/README.md defines every metric.

The last line of standard output is the JSON result; notes go to stderr.
The exit code is 0 when a result was printed, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

MIN_ROUNDS = 5
# op_tail_ms: a 20 s run of any workload leaves at least 10 op times beyond it.
TAIL_PCT = 90.0


def note(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def percentile(sorted_values: list, pct: float) -> tuple:
    """Nearest-rank percentile of an ascending list, and how many lie beyond."""
    rank = max(1, math.ceil(len(sorted_values) * pct / 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def timed_rounds(workload, interp, tally, host, setup_host, seconds: float,
                 tracer=None):
    """Rounds back to back until `seconds` pass, at least MIN_ROUNDS each kind.

    Each plain round is preceded by one timed set-up, so that set-up is
    sampled across the whole run. With a tracer, plain and spanned rounds
    alternate. Ops sample `host`, set-ups `setup_host`. Returns the plain
    rounds, the spanned ones as (RoundResult, seconds per span name), and
    the set-ups as (seconds, sample).
    """
    plain, spanned, setups = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        if tracer is not None and len(spanned) < len(plain):
            mark = len(tracer.spans)
            result = workload.run_round(interp, tally, host, tracer)
            spanned.append((result, tracer.totals(mark)))
        else:
            sample = setup_host.tick()
            t0 = time.perf_counter()
            workload.setup()
            setups.append((time.perf_counter() - t0, sample))
            gc.collect()
            plain.append(workload.run_round(interp, tally, host))
        if (time.perf_counter() >= deadline and len(plain) >= MIN_ROUNDS
                and (tracer is None or len(spanned) >= MIN_ROUNDS)):
            return plain, spanned, setups


def corrected_ops(result, factors: list) -> list:
    """The round's op times, corrected for host speed."""
    return [s * factors[i] for s, i in zip(result.latencies_s, result.samples)]


def end_to_end(workload, rounds: list, factors: list, setups: list,
               setup_factors: list, peak_rss_mb: float) -> dict:
    """Medians of host-corrected times over the run: see bench/README.md."""
    ops = [corrected_ops(r, factors) for r in rounds]
    pooled = sorted(s for round_ops in ops for s in round_ops)
    tail, beyond = percentile(pooled, TAIL_PCT)
    note(f"{workload.name}: {len(rounds)} rounds of {len(workload.ops)} ops; "
         f"op_tail_ms is p{TAIL_PCT:g} of {len(pooled)} op times, "
         f"with {beyond} beyond it")
    run_s = statistics.median(sum(round_ops) for round_ops in ops)
    return {
        "setup_s": statistics.median(s * setup_factors[i] for s, i in setups),
        "run_s": run_s,
        "op_p50_ms": statistics.median(pooled) * 1e3,
        "op_tail_ms": tail * 1e3,
        "steps_per_s": rounds[0].steps / run_s,
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "clz", "__init__.py")):
        note(f"no clz sources under {SRC}; run from a checkout of the repository")
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import hostspeed
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        note(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
        return 2
    workload = workloads.WORKLOADS[args.workload](
        random.Random(f"clz-bench/{args.workload}/{args.seed}"), ROOT)
    tally = workloads.Tally()
    correct = True
    for what, count in workloads.MODEL_COUNTS.items():
        if count != workloads.ROADMAP_COUNTS[what]:
            correct = False
            note(f"step model disagrees with the ROADMAP baseline: {what} "
                 f"{count}, not {workloads.ROADMAP_COUNTS[what]}")

    setup_host = hostspeed.HostClock()
    host = workload.host_clock() or setup_host
    interp = workload.setup()
    workload.warmup(interp, tally, host)
    if args.trace:
        tracer = layers.Tracer()
        workload.setup(tracer)
        plain, spanned, _ = timed_rounds(workload, interp, tally, host,
                                         setup_host, args.seconds, tracer)
        factors = host.factors()
        metrics = layers.layer_metrics(workload, interp, tally, tracer,
                                       spanned, ROOT)
        metrics["trace.overhead_frac"] = (
            statistics.median(sum(corrected_ops(r, factors)) for r, _ in spanned)
            / statistics.median(sum(corrected_ops(r, factors)) for r in plain))
        for what, count in layers.reconcile().items():
            want = workloads.ROADMAP_COUNTS[what]
            note(f"reconcile: {what} = {count}"
                 + ("" if count == want else f", ROADMAP says {want}"))
            correct = correct and count == want
        tracer.write(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  "out", f"spans-{args.workload}.json"))
        declared = spec["per_layer"]
    else:
        plain, _, setups = timed_rounds(workload, interp, tally, host,
                                        setup_host, args.seconds)
        # Read before the statistics below allocate.
        who = (resource.RUSAGE_CHILDREN if args.workload == "cli-cold"
               else resource.RUSAGE_SELF)
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        metrics = end_to_end(workload, plain, host.factors(), setups,
                             setup_host.factors(), peak_rss_mb)
        for clock in (host,) if host is setup_host else (host, setup_host):
            note(f"host speed: {clock.describe()}")
        declared = spec["end_to_end"]

    for text in tally.notes:
        note(text)
    note(f"fail_rate {tally.failed}/{tally.attempted} ops")
    correct = correct and tally.failed == 0 and tally.model_mismatches == 0
    missing = {m["name"] for m in declared} ^ set(metrics)
    if missing:
        raise SystemExit(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
