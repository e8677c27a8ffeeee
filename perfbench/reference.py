"""Reference kernels that measure how fast the host runs right now.

On a virtual machine that shares its CPUs and memory with other machines'
work, their load moves the speed of memory-heavy Python by 20-30% over
minutes.  The worker times a kernel between operations about
twice a second and scales each operation's latency by NOMINAL_MS / (median
of the kernel samples nearest to it), so reported op times are at the
reference speed and a host that is slower for a while does not read as a
regression.  The kernels use no probdiag code, so a change to probdiag
moves the scaled times exactly as much as the raw ones.  Raw times are
reported next to the scaled ones.

NOMINAL_MS is each kernel's median time, collector off, on the host where
the benchmark was defined: Intel Xeon Processor at 2.1 GHz, 2 vCPUs,
Python 3.11.7, numpy 2.4.6.
"""
from __future__ import annotations

import gc
import time
from fractions import Fraction

import numpy as np


def fraction_kernel() -> Fraction:
    """Exact-measure work like a pushforward: Fraction sums into dict
    buckets keyed by tuples."""
    acc: dict = {}
    for i in range(1, 1 << 13):
        key = (i & 2047, i >> 11)
        w = Fraction(i, 1 + (i & 63))
        acc[key] = acc[key] + w if key in acc else w
    return sum(acc.values(), Fraction(0))


_MASK = (np.arange(8)[:, None] == (np.arange(4096) % 8)[None, :]).astype(np.int64)
_PVALS = np.full(8, 1.0 / 8)


def numpy_kernel() -> float:
    """Dense Monte-Carlo batch like a tail cell: multinomial draws, an
    integer matrix product onto 4096 columns, and a row reduction."""
    gen = np.random.Generator(np.random.PCG64(12345))
    counts = gen.multinomial(1151, _PVALS, size=500) @ _MASK
    return float(np.abs(counts / 1151.0 - 1.0 / 4096).sum(axis=1).max())


KERNELS = {"fraction": (fraction_kernel, 25.0), "numpy": (numpy_kernel, 35.0)}


def time_kernel(kind: str) -> float:
    """Seconds one run of the named kernel takes now.  The cyclic garbage
    collector is off while it runs, because a collection's cost depends on
    the workload's heap, not on the host."""
    kernel = KERNELS[kind][0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def nominal_s(kind: str) -> float:
    return KERNELS[kind][1] / 1000.0
