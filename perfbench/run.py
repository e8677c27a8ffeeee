"""probdiag benchmark.

    python3 perfbench/run.py --workload contract_regime --seed 1 --seconds 20 --trace 0

Runs one workload (or `all`, one after another) in its own fresh process,
checks every operation's output, and prints each metric with its unit.
The last line of standard output is one JSON object: with --trace 0 it holds
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
Run artifacts (results, spans) go to .perfbench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("contract_regime", "roundtrip_loaded", "distance_bounds", "tails_fan")
SETUP_SAMPLES = 3  # the timed run's own set-up plus two set-up-only processes
DEADLINE_S = 170.0  # one invocation per workload must end well within 180 s

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def start_worker(args, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # set iteration order, and so exact counts, repeat
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--mode", mode, "--out", str(OUT_DIR),
               "--t0", repr(time.time())]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args.workload} {mode} process timed out") from exc
    if done.returncode != 0:
        raise BenchError(f"{args.workload} {mode} process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    result = start_worker(args, "run", deadline)
    if not args.trace:
        samples = [result["setup_s"]]
        samples += [start_worker(args, "setup", deadline)["setup_s"]
                     for _ in range(SETUP_SAMPLES - 1)]
        result["setup_samples_s"] = samples
        result["setup_s"] = statistics.median(samples)
        result["metrics"] = {name: {"value": result[name], "unit": unit}
                             for name, unit in END_TO_END}
    else:
        result["metrics"] = result.pop("layers")
    result["failed_ratio"] = result["failed"] / result["attempted"]
    result["env"] = environment()
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    return result


def report(result: dict) -> None:
    name = result["workload"]
    if not result["trace"]:
        m, raw = result["metrics"], result["raw"]
        print(f"{name}: ops_per_s {m['ops_per_s']['value']:.4g} 1/s | "
              f"op_p50_ms {m['op_p50_ms']['value']:.4g} ms | "
              f"op_tail_ms {m['op_tail_ms']['value']:.4g} ms "
              f"(p{result['tail_percentile']:.1f} of {result['tail_samples']} ops) | "
              f"setup_s {m['setup_s']['value']:.4g} s (median of {SETUP_SAMPLES}) | "
              f"peak_rss_mb {m['peak_rss_mb']['value']:.4g} MB | "
              f"failed_ratio {result['failed_ratio']:.4g} "
              f"({result['failed']}/{result['attempted']})")
        print(f"  unscaled (median host speed {result['speed']:.4g} of reference): "
              f"ops_per_s {raw['ops_per_s']:.4g} 1/s | op_p50_ms {raw['op_p50_ms']:.4g} ms | "
              f"op_tail_ms {raw['op_tail_ms']:.4g} ms")
    else:
        print(f"{name} traced: {result['span_count']} spans in {result['spans_file']}; "
              f"failed_ratio {result['failed_ratio']:.4g} "
              f"({result['failed']}/{result['attempted']})")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} {entry['value']:.6g} {entry['unit']}")
    for failure in result["failures"]:
        print(f"  failed op {failure['op']}: {'; '.join(failure['checks'])}")
    env = result["env"]
    print(f"  env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"cpu {env['cpu']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "probdiag" / "__init__.py").is_file():
        print(f"no probdiag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            report(result)
            results.append(result)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
