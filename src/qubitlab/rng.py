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
`draws`), so consecutive games read consecutive blocks of numpy's own C
Philox: one re-key through its public `state` and one `random_raw` read per
run of consecutive game indices (an int index is a run of one).
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Iterator

import numpy as np

from .errors import DomainError, check_int

# 512 KiB of float64, small enough to stay in a per-core L2 cache
BLOCK = 1 << 16

# game indices, for an int and an array alike: g + 1, the counter of game g's block, fits counter word 0
MAX_GAME = 2**64 - 2
# (seed, stream) pairs whose Philox key `_key` keeps; bounded, as a run may use many seeds
KEYS = 256

# `draws` re-keys this one C generator per run of consecutive counters and reads
# its words under _LOCK (random_raw takes Philox's own lock, which is not reentrant)
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


def _rekey(key: tuple[int, int], counter: int) -> np.random.Philox:
    """The C generator, re-keyed to read word 0 of the block at counter + 1 next (its buffer empty); hold _LOCK."""
    _BIT_GENERATOR.state = {
        "bit_generator": "Philox",
        "state": {"counter": [counter >> 64 * i & 2**64 - 1 for i in range(4)], "key": key},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return _BIT_GENERATOR


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
    key = _key(check_int(seed, "seed"), check_int(stream, "stream"))
    if isinstance(counter, np.ndarray):
        if counter.ndim != 1 or counter.dtype.kind not in "iu":
            raise DomainError("game indices must be a 1-d integer array")
        if counter.size and (counter.min() < 0 or counter.max() > MAX_GAME):
            raise DomainError(f"game indices must lie in 0..{MAX_GAME}")
        games = counter.astype(np.uint64)
        word = np.empty(games.size, dtype=np.uint64)
        # a run of consecutive games reads consecutive blocks: one re-key at its first game, word 0 of each block
        cuts = [0, *(np.flatnonzero(np.diff(games) != 1) + 1).tolist(), games.size] if games.size else []
        with _LOCK:
            for lo, hi in zip(cuts, cuts[1:]):
                word[lo:hi] = _rekey(key, int(games[lo])).random_raw(4 * (hi - lo))[::4]
    else:
        counter = check_int(counter, "Philox counter", 0, 2**256 - 1)
        with _LOCK:
            word = _rekey(key, counter).random_raw()
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
