"""Deterministic seeding protocol and exact categorical sampling.

Sub-seeds are derived from a root seed by hashing a versioned label and a
counter, so independent units of work (runs in a sweep, cells in a tail
grid) get reproducible streams regardless of execution order or thread
schedule.  Categorical draws use integer rejection sampling on the exact
integer masses, so the sampled law is exact, not a float approximation.
"""
from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .spaces import ProbSpace

PROTOCOL = "pd1"


def subseed(root: int, label: str, counter: int) -> int:
    """64-bit sub-seed for one unit of work under the pd1 protocol."""
    payload = f"{PROTOCOL}|{root}|{label}|{counter}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def rng_for(root: int, label: str, counter: int) -> random.Random:
    return random.Random(subseed(root, label, counter))


def np_rng_for(root: int, label: str, counter: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(subseed(root, label, counter)))


def _randbelow(rng: random.Random, n: int) -> int:
    """Uniform integer in [0, n) by rejection on getrandbits; exact, and
    rejection-free when n is a power of two."""
    if n == 1:
        return 0
    bits = (n - 1).bit_length()
    while True:
        value = rng.getrandbits(bits)
        if value < n:
            return value


class CategoricalSampler:
    """Exact sampler for a finite probability space.

    The space's integer masses over its denominator D partition [0, D); a
    uniform integer below D selects an atom by binary search, so every atom
    is drawn with exactly its rational probability.
    """

    __slots__ = ("space", "_denominator", "_cumulative")

    def __init__(self, space: ProbSpace):
        self.space = space
        self._denominator = space.denom
        self._cumulative = list(accumulate(space.masses))

    def draw(self, rng: random.Random):
        point = _randbelow(rng, self._denominator)
        return self.space.atoms[bisect_right(self._cumulative, point)]

    def draw_many(self, rng: random.Random, n: int) -> list:
        return [self.draw(rng) for _ in range(n)]


def sample_atoms(space: ProbSpace, rng: random.Random, n: int) -> list:
    return CategoricalSampler(space).draw_many(rng, n)
