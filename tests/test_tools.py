"""The command-line tools under tools/ parse their arguments before doing
any work."""
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
BENCH = TOOLS / "bench_contract.py"
DIGEST = TOOLS / "output_digest.py"


def _run(tool, *argv):
    return subprocess.run([sys.executable, str(tool), *argv], capture_output=True,
                          text=True, timeout=60)


def _bench(*argv):
    return _run(BENCH, *argv)


def test_bench_contract_help():
    done = _bench("--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: tools/bench_contract.py")
    assert "--case {regime,roundtrip}" in done.stdout


@pytest.mark.parametrize("argv, message", [
    (("--ops",), "expected one argument"),
    (("--rounds", "0"), "must be a positive integer"),
    (("--case", "nope"), "invalid choice"),
    (("no/such/checkout",), "has no src/probdiag"),
])
def test_bench_contract_usage_errors_exit_2(argv, message):
    done = _bench(*argv)
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""


def test_output_digest_help():
    done = _run(DIGEST, "--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: tools/output_digest.py")
    assert "CHECKOUT" in done.stdout


@pytest.mark.parametrize("argv, message", [
    (("no/such/checkout",), "has no src/probdiag"),
    (("--workers",), "unrecognized arguments"),
])
def test_output_digest_usage_errors_exit_2(argv, message):
    # a set that ran would have printed its digest
    done = _run(DIGEST, *argv)
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""


def test_gc_meter_counts_and_times_collector_passes():
    import gc
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_contract", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    meter = bench._GcMeter()
    try:
        meter.take()
        gc.collect()
        gc.collect(0)
        taken = meter.take()
        assert taken["gc_passes"] >= 2 and taken["gc"] > 0
        assert meter.take() == {"gc_passes": 0, "gc": 0.0}
    finally:
        gc.callbacks.remove(meter._callback)
