"""Counter-based random streams.

All stochastic code in the package draws from numpy's Philox4x64-10 (Salmon
et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011), keyed by
(seed, *stream) through SeedSequence spawn keys: distinct stream paths under
the same seed are statistically independent, and every draw is a
reproducible function of (seed, stream path, counter).

Because the generator is counter-based, drawing a stream in pieces gives the
same doubles in the same order as one call: `uniform_blocks` streams
philox(seed).random(n) through a buffer of at most BLOCK doubles. For the
same reason one key per (seed, stream) serves every game: random-stream
contract v2 gives game g the block Philox(key, counter=g) reads first (see
`draws`), which no other game reads. For one game the word comes from
numpy's own C Philox, re-keyed through its public `state`; for an array of
games from the rounds written here as array expressions, one lane per game.
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Iterator

import numpy as np

from .errors import DomainError, check_int

# 512 KiB of float64, small enough to stay in a per-core L2 cache
BLOCK = 1 << 16

_MASK32, _MASK64 = 0xFFFF_FFFF, 0xFFFF_FFFF_FFFF_FFFF
# Philox4x64-10: round multipliers and Weyl key increments
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10
# game indices, for an int and an array alike: g + 1, the counter of game g's block, fits counter word 0
MAX_GAME = 2**64 - 2
# (seed, stream) pairs whose Philox key `_key` keeps; bounded, as a run may use many seeds
KEYS = 256

# `draws` re-keys this one C generator per int counter and reads its word
# under _LOCK (random_raw takes Philox's own lock, which is not reentrant)
_BIT_GENERATOR = np.random.Philox(0)
_LOCK = threading.Lock()


def philox(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the given seed and stream path."""
    ss = np.random.SeedSequence(check_int(seed, "seed"), spawn_key=tuple(check_int(s, "stream") for s in stream))
    return np.random.Generator(np.random.Philox(ss))


@functools.lru_cache(maxsize=KEYS)
def _key(seed: int, stream: int) -> tuple[int, int]:
    """K(seed, stream): the key numpy's Philox(SeedSequence(seed, spawn_key=(stream,))) uses, as two ints."""
    return tuple(np.random.SeedSequence(seed, spawn_key=(stream,)).generate_state(2, np.uint64).tolist())


def _mulhilo(m: int, x):
    """Low and high 64-bit halves of m·x."""
    if type(x) is int:  # a word that is still 0 or the key, in the first two rounds
        p = m * x
        return p & _MASK64, p >> 64
    # a uint64 array: from 32-bit partial products
    m_lo, m_hi = m & _MASK32, m >> 32
    x_lo, x_hi = x & _MASK32, x >> 32
    t = x_lo * m_hi + (x_lo * m_lo >> 32)
    u = x_hi * m_lo + (t & _MASK32)
    return x * m, x_hi * m_hi + (t >> 32) + (u >> 32)


def _philox_rounds(counter: np.ndarray, key0: int, key1: int) -> np.ndarray:
    """Word 0 of the Philox4x64-10 blocks at counters (c, 0, 0, 0), c in a uint64 array, under one key."""
    c0, c1, c2, c3, k0, k1 = counter, 0, 0, 0, key0, key1
    for _ in range(_ROUNDS):
        lo0, hi0 = _mulhilo(_M0, c0)
        lo1, hi1 = _mulhilo(_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0, k1 = k0 + _W0 & _MASK64, k1 + _W1 & _MASK64
    return c0


def draws(seed: int, stream: int, counter, k: int):
    """The low k bits of Philox(key=K(seed, stream), counter=counter).random_raw(); draw i is bit i.

    Random-stream contract v2: game g's first k <= 64 draws on a stream are
    draws(seed, stream, g, k), the bits of word 0 of the Philox block at
    counter g + 1 under the stream's one key (see `_key`). `counter` is one
    int in 0..2**256 - 1, which takes the dealer's widening counters too, or a
    1-d integer array of game indices in 0..MAX_GAME, whose masks are uint64.
    """
    k = check_int(k, "draw count", 0, 64)
    # checked before the cache, which takes True for 1
    key0, key1 = _key(check_int(seed, "seed"), check_int(stream, "stream"))
    if isinstance(counter, np.ndarray):
        if counter.ndim != 1 or counter.dtype.kind not in "iu":
            raise DomainError("game indices must be a 1-d integer array")
        if counter.size and (counter.min() < 0 or counter.max() > MAX_GAME):
            raise DomainError(f"game indices must lie in 0..{MAX_GAME}")
        word = _philox_rounds(counter.astype(np.uint64) + 1, key0, key1)
    else:
        counter = check_int(counter, "Philox counter", 0, 2**256 - 1)
        with _LOCK:
            # an empty buffer, so the word read is word 0 of the block at counter + 1
            _BIT_GENERATOR.state = {
                "bit_generator": "Philox",
                "state": {"counter": [counter >> 64 * i & _MASK64 for i in range(4)], "key": (key0, key1)},
                "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
            }
            word = _BIT_GENERATOR.random_raw()
    return word & (1 << k) - 1


def uniform_blocks(seed: int, n: int) -> Iterator[np.ndarray]:
    """philox(seed).random(n) as successive views of one reused buffer.

    Each view holds at most BLOCK doubles and is overwritten by the next one,
    so consume it before advancing; the concatenated views equal the one-shot
    draw exactly.
    """
    gen = philox(seed)
    buf = np.empty(min(n, BLOCK))
    for start in range(0, n, BLOCK):
        view = buf[: min(BLOCK, n - start)]
        gen.random(out=view)
        yield view
