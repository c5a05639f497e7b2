"""Counter-based random streams: every draw in the package is a raw 64-bit word of one numpy C Philox.

The words are Philox4x64-10's (Salmon et al., "Parallel Random Numbers: As
Easy as 1, 2, 3", SC 2011) under the key `_key` derives from (seed, *stream),
the key numpy's Philox(SeedSequence(seed, spawn_key=stream)) uses, so each
word is a reproducible function of (seed, stream path, counter). Every word
comes from `_run`, which re-keys the one generator through its public `state`
and reads a run of consecutive words under one lock: `word_blocks` reads the
seed's words 0..n-1 (numpy's Philox(seed) draws) a block at a time, and
`draws` reads word 0 of game g's block (random-stream contract v2), a block of
GAME_BLOCK games (a range) in one run. An int counter reads the aligned run of
CHUNK blocks that holds it, kept for reuse, so games replayed one at a time at
consecutive indices share a read.
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Iterator

import numpy as np

from .errors import DomainError, check_int

# 512 KiB of 64-bit words, small enough to stay in a per-core L2 cache
BLOCK = 1 << 16

# game indices, for an int and a range alike: g + 1, the counter of game g's block, fits counter word 0
MAX_GAME = 2**64 - 2
# (seed, *stream) paths whose Philox key `_key` keeps; bounded, as a run may use many seeds
KEYS = 256
# an int counter c reads word 0 of the CHUNK blocks at counters c - c % CHUNK onwards (a power of 2, so
# a run never crosses 2**256); `_chunk` keeps the last CHUNKS runs, each about 1 KiB of Python ints
CHUNK = 16
CHUNKS = 128

# `_run` re-keys this one C generator and reads its words under _LOCK
# (random_raw takes Philox's own lock, which is not reentrant)
_BIT_GENERATOR = np.random.Philox(0)
_LOCK = threading.Lock()


@functools.lru_cache(maxsize=KEYS)
def _key(seed: int, *stream: int) -> tuple[int, int]:
    """K(seed, *stream): the key numpy's Philox(SeedSequence(seed, spawn_key=stream)) uses, as two ints."""
    return tuple(np.random.SeedSequence(seed, spawn_key=stream).generate_state(2, np.uint64).tolist())


def _run(key: tuple[int, int], counter: int, n: int) -> np.ndarray:
    """n raw words from word 0 of the block at counter + 1 on: one re-key and one read under _LOCK."""
    with _LOCK:
        _BIT_GENERATOR.state = {
            "bit_generator": "Philox",
            "state": {"counter": [counter >> 64 * i & 2**64 - 1 for i in range(4)], "key": key},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return _BIT_GENERATOR.random_raw(n)


@functools.lru_cache(maxsize=CHUNKS)
def _chunk(key: tuple[int, int], start: int) -> tuple[int, ...]:
    """Word 0 of each block at counters start, start + 1, ... (CHUNK of them; start a multiple of CHUNK) as ints."""
    return tuple(_run(key, start, 4 * CHUNK)[::4].tolist())


def draws(seed: int, stream: int, counter, k: int):
    """The low k bits of Philox(key=K(seed, stream), counter=counter).random_raw(); draw i is bit i.

    Random-stream contract v2: game g's first k <= 64 draws on a stream are
    draws(seed, stream, g, k), the bits of word 0 of the Philox block at
    counter g + 1 under the stream's one key (see `_key`). `counter` is one
    int in 0..2**256 - 1, which takes the dealer's widening counters too, or
    a block of GAME_BLOCK games: a range by step 1 within 0..MAX_GAME, whose
    masks are uint64. A range is one run, an int its cached chunk.
    """
    k = check_int(k, "draw count", 0, 64)
    seed, stream = check_int(seed, "seed"), check_int(stream, "stream")
    if isinstance(counter, range) and (counter.step != 1 or counter.start < 0 or counter.stop > MAX_GAME + 1):
        raise DomainError(f"a range of game indices must step by 1 within 0..{MAX_GAME}, got {counter!r}")
    # seed, stream and a range are checked before the cache, which takes True for 1
    key = _key(seed, stream)
    if isinstance(counter, range):
        word = _run(key, counter.start, 4 * len(counter))[::4]
    else:
        counter = check_int(counter, "Philox counter", 0, 2**256 - 1)
        word = _chunk(key, counter - counter % CHUNK)[counter % CHUNK]
    return word & (1 << k) - 1


def word_blocks(seed: int, n: int) -> Iterator[np.ndarray]:
    """numpy's Philox(seed).random_raw(n) as blocks of at most BLOCK words, one `_run` each.

    numpy's Generator(Philox(seed)).random(n) is the same words as doubles, (w >> 11) * 2**-53.
    """
    n = check_int(n, "word count", 0)
    key = _key(check_int(seed, "seed"))
    # BLOCK is a multiple of 4, so word `start` opens the block at counter start // 4 + 1
    return (_run(key, start // 4, min(BLOCK, n - start)) for start in range(0, n, BLOCK))
