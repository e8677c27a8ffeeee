"""Deterministic seeding protocol and exact categorical sampling.

Sub-seeds are derived from a root seed by hashing a versioned label and a
counter, so independent units of work (runs in a sweep, cells in a tail
grid) get reproducible streams regardless of execution order or thread
schedule.  Categorical draws use integer rejection sampling on the exact
integer masses, so the sampled law is exact, not a float approximation.

One draw from a space over denominator D takes b = bit_length(D - 1) bits
from the rng (none when D = 1), rejecting values of D or more.  The rng is
`random.Random`, the Mersenne Twister MT19937, which yields 32-bit words,
and CPython's `getrandbits(b)` reads them so: for b <= 32 it is the next
word shifted right by 32 - b; for b > 32 it takes the next w = ceil(b / 32)
words as the limbs of one int, least significant first, the last shifted
right by 32 w - b.  So `getrandbits(32 w k)` holds, as its little-endian
32-bit limbs, exactly the k w words that k such reads consume, and
`draw_positions` combines each draw's w limbs by the same rule in array
operations (`_randbelow_many`).  Asking each block only for the draws still
missing, it consumes no word past the n-th accepted draw: the draws, and
the rng's state after them, are those of n scalar `draw` calls.
"""
from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .spaces import ProbSpace

PROTOCOL = "pd1"
# cap on the bytes of random words one block of draws asks the rng for
DRAW_BATCH_BYTES = 2 ** 20


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


def _randbelow_many(rng: random.Random, n: int, count: int) -> np.ndarray:
    """The integers of count `_randbelow(rng, n)` calls, leaving the rng in
    the same state, drawn in blocks of at most DRAW_BATCH_BYTES of words.
    Values of up to 62 bits are combined in int64, wider ones as Python ints
    in an object array."""
    bits = (n - 1).bit_length()
    dtype = np.int64 if bits <= 62 else object
    if bits == 0:  # n = 1 takes no bits
        return np.zeros(max(count, 0), dtype=dtype)
    width = -(-bits // 32)
    block = max(1, DRAW_BATCH_BYTES // (4 * width))
    drawn, missing = [np.zeros(0, dtype=dtype)], count
    while missing > 0:
        k = min(missing, block)
        raw = rng.getrandbits(32 * width * k).to_bytes(4 * width * k, "little")
        words = np.frombuffer(raw, "<u4").reshape(k, width).astype(dtype)
        value = words[:, -1] >> (32 * width - bits)
        for limb in range(width - 2, -1, -1):
            value = (value << 32) | words[:, limb]
        value = value[value < n]
        drawn.append(value)
        missing -= value.size
    return np.concatenate(drawn)


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

    def draw_positions(self, rng: random.Random, n: int) -> np.ndarray:
        """n draws, as int64 positions into the space's atoms: the draws of
        n `draw` calls, leaving the rng in the same state."""
        points = _randbelow_many(rng, self._denominator, n)
        cumulative = np.array(self._cumulative, dtype=points.dtype)
        return np.searchsorted(cumulative, points, side="right").astype(np.int64, copy=False)

    def draw_many(self, rng: random.Random, n: int) -> list:
        return list(map(self.space.atoms.__getitem__, self.draw_positions(rng, n).tolist()))


def sample_atoms(space: ProbSpace, rng: random.Random, n: int) -> list:
    return CategoricalSampler(space).draw_many(rng, n)
