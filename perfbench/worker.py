"""One workload in one fresh process; started by run.py, not by hand.

Modes:
  run    set up, then time operations in a closed loop (one client, no
         threads) for the given seconds; with --trace 1, time the first half
         with the tracer installed and the second half without it.
  setup  set up and exit; run.py starts a few of these to take the median
         set-up time.

The last line of standard output is one JSON object with the results.
"""
from __future__ import annotations

import argparse
import bisect
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from reference import nominal_s, time_kernel  # noqa: E402

MAX_REPORTED_FAILURES = 5
REFERENCE_PERIOD_S = 0.5
REFERENCE_NEIGHBOURS = 8


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples): the highest percentile that still has
    at least ten samples above it, or the maximum below eleven samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def timed_loop(workload, state, budget: float, reference: str, tracer=None,
               min_ops: int = 0):
    """Run whole rounds of operations until `budget` seconds have passed
    and at least `min_ops` ran.  Only the library call and its checks are
    inside each latency; input generation is not.  The `reference` kernel
    is timed between operations about twice a second; each latency comes
    back with the scale factor of the kernel samples nearest to it."""
    latencies: list[float] = []
    midpoints: list[float] = []
    failures: list = []
    samples: list[tuple[float, float]] = []  # (time taken, kernel seconds)
    snapshot = None
    clock = time.perf_counter
    k = 0
    start = clock()
    last_sample = start - REFERENCE_PERIOD_S
    while True:
        for _ in range(workload.round_ops):
            if clock() - last_sample >= REFERENCE_PERIOD_S:
                last_sample = clock()
                samples.append((last_sample, time_kernel(reference)))
            prepared = workload.prepare(state, "run", k)
            if tracer is not None:
                tracer.op = k
            began = clock()
            try:
                bad = workload.run(state, prepared)
            except Exception as exc:  # a raising op counts as failed; the run goes on
                bad = [f"raised {type(exc).__name__}: {exc}"]
            ended = clock()
            latencies.append(ended - began)
            midpoints.append((began + ended) / 2)
            if bad:
                failures.append({"op": k, "checks": bad})
            k += 1
            if tracer is not None and k == min_ops:
                snapshot = (dict(tracer.counters), dict(tracer.gauges))
        if clock() - start >= budget and k >= min_ops:
            samples.append((clock(), time_kernel(reference)))
            return latencies, failures, snapshot, scale_factors(midpoints, samples, reference)


def scale_factors(midpoints, samples, reference) -> list[float]:
    """Per operation, NOMINAL / median of the REFERENCE_NEIGHBOURS kernel
    samples nearest in time (half before, half after): the host's speed
    while that operation ran, against the reference speed."""
    times = [t for t, _ in samples]
    half = REFERENCE_NEIGHBOURS // 2
    factors = []
    for mid in midpoints:
        i = bisect.bisect(times, mid)
        near = samples[max(0, i - half):i + half]
        factors.append(nominal_s(reference) / statistics.median(s for _, s in near))
    return factors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    parser.add_argument("--t0", type=float, required=True,
                        help="wall-clock time at which the parent started this process")
    parser.add_argument("--out", required=True, help="directory for run artifacts")
    args = parser.parse_args(argv)

    import probdiag
    if not Path(probdiag.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"probdiag imported from {probdiag.__file__}, not from this checkout")
    from tracer import Tracer, counter_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out_dir = Path(args.out)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    origin = time.perf_counter()

    state = workload.setup(args.seed, out_dir)
    bad = workload.run(state, workload.prepare(state, "warmup", 0))
    if bad:
        raise SystemExit(f"{args.workload}: warm-up operation failed its checks: {bad}")
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_s": time.time() - args.t0}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if tracer is None:
        latencies, failures, _, factors = timed_loop(workload, state, args.seconds,
                                                     workload.reference)
        scaled = [lat * f for lat, f in zip(latencies, factors)]
        tail, percentile, samples = tail_latency(scaled)
        raw_tail = tail_latency(latencies)[0]
        result.update({
            "ops_per_s": len(scaled) / sum(scaled),
            "op_p50_ms": 1000.0 * statistics.median(scaled),
            "op_tail_ms": 1000.0 * tail,
            "raw": {"ops_per_s": len(latencies) / sum(latencies),
                    "op_p50_ms": 1000.0 * statistics.median(latencies),
                    "op_tail_ms": 1000.0 * raw_tail},
            "speed": statistics.median(factors),
            "speed_factors": factors,
            "tail_percentile": percentile,
            "tail_samples": samples,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    else:
        window = workload.trace_ops
        traced, failures, snapshot, traced_factors = timed_loop(
            workload, state, args.seconds / 2, workload.reference, tracer, min_ops=window)
        tracer.uninstall()
        untraced, more_failures, _, untraced_factors = timed_loop(
            workload, state, args.seconds / 2, workload.reference)
        latencies = traced + untraced
        failures += more_failures
        layers = tracer.layer_metrics({"setup", *range(window)})
        layers.update(counter_metrics(*snapshot))
        traced_rate = len(traced) / sum(x * f for x, f in zip(traced, traced_factors))
        untraced_rate = len(untraced) / sum(x * f for x, f in zip(untraced, untraced_factors))
        layers["trace.ops_per_s_traced"] = (traced_rate, "1/s")
        layers["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
        layers["trace.ops_per_s_ratio"] = (traced_rate / untraced_rate, "ratio")
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path, origin)
        result["layers"] = {name: {"value": value, "unit": unit}
                            for name, (value, unit) in layers.items()}
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["span_count"] = len(tracer.spans)
        result["window_ops"] = window
    result["latencies_ms"] = [1000.0 * x for x in latencies]
    result["attempted"] = len(latencies)
    result["failed"] = len(failures)
    result["failures"] = failures[:MAX_REPORTED_FAILURES]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
