"""Counter-based random streams.

All stochastic code in the package draws from Philox generators keyed by
(seed, *stream): distinct stream paths under the same seed are statistically
independent (SeedSequence spawn keys), and every draw is a reproducible
function of (seed, stream path, draw index). Callers that need per-trial or
per-game purity spawn one stream per index.

Because the generator is counter-based, drawing a stream in pieces gives the
same doubles in the same order as one call: `uniform_blocks` streams
philox(seed).random(n) through a buffer of at most BLOCK doubles. For the
same reason any draw can be computed straight from its key and counter:
`draws` gives philox(seed, stream, g).integers(0, 2, k) as a bit mask for
one game index g (an int) or an array of them. One key derivation, numpy's
SeedSequence (NEP 19) recomputed on Python ints or uint64 arrays, serves
both; the Philox4x64-10 words (Salmon et al., "Parallel Random Numbers: As
Easy as 1, 2, 3", SC 2011) then come from numpy's own C Philox, re-keyed
through its public `state`, for an int, and from the rounds written here as
array expressions, one lane per index, for an array.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections.abc import Iterator

import numpy as np

from .errors import DomainError, check_int

# 512 KiB of float64, small enough to stay in a per-core L2 cache
BLOCK = 1 << 16

# numpy's SeedSequence hash over uint32 words, pool of 4 words
_MASK32, _MASK64 = 0xFFFF_FFFF, 0xFFFF_FFFF_FFFF_FFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# Philox4x64-10: round multipliers and Weyl key increments
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10
# (seed, stream) pairs whose SeedSequence pool state `_prefix` keeps; bounded, as a run may use many seeds
PREFIXES = 256
# draws of one int game index: its Philox words are allocated at once, 4 per 8 draws
MAX_DRAWS = 1 << 12

# `draws` re-keys the one C generator of `_bit_generator` and reads its words
# under _LOCK (random_raw takes Philox's own lock, which is not reentrant)
_LOCK = threading.Lock()


def philox(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the given seed and stream path."""
    ss = np.random.SeedSequence(check_int(seed, "seed"), spawn_key=tuple(check_int(s, "stream") for s in stream))
    return np.random.Generator(np.random.Philox(ss))


@functools.cache
def _bit_generator() -> np.random.Philox:
    """The one Philox that `draws` re-keys per int game index, made on first use.

    Importing numpy.random takes about 15 ms, which a process that replays no
    single game, such as `game simulate`, then does not pay.
    """
    return np.random.Philox(0)


def _words(n: int) -> list[int]:
    """Little-endian uint32 words of a nonnegative int, at least one."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _chain(h: int, mult: int, n: int) -> list[int]:
    """h and the next n constants of a SeedSequence hash chain, each the last times mult."""
    chain = [h]
    for _ in range(n):
        chain.append(chain[-1] * mult & _MASK32)
    return chain


# hash i of a chain xors with constant i and multiplies by constant i + 1;
# generate_state's chain B hashes the four pool words
_HASH_B = _chain(_INIT_B, _MULT_B, _POOL)


# the kernel below runs on Python ints for one stream and on uint64 arrays for many
def _hashmix(value, xor: int, mult: int):
    value = (value ^ xor) * mult & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ (r >> 16)


def _absorb(pool: list, h: int, words) -> int:
    """Mix the entropy words after the first four into the pool, from chain A's constant h; the next constant."""
    for word in words:
        for dst in range(_POOL):
            mult = h * _MULT_A & _MASK32
            v = (word ^ h) * mult & _MASK32
            v = _MIX_MULT_R * (v ^ v >> 16) & _MASK32
            r = (_MIX_MULT_L * pool[dst] & _MASK32) - v & _MASK32
            pool[dst], h = r ^ r >> 16, mult
    return h


@functools.lru_cache(maxsize=PREFIXES)
def _prefix(seed: int, stream: int) -> tuple[tuple[int, ...], int]:
    """The pool after the seed's words (zero-padded to the pool size) and the stream's, and the next constant."""
    seed_words = _words(seed)
    entropy = seed_words + [0] * (_POOL - len(seed_words)) + _words(stream)
    # chain A: one constant per hash of the pool's words, then of its 12 ordered pairs
    chain = _chain(_INIT_A, _MULT_A, _POOL * _POOL)
    pool = [_hashmix(word, chain[i], chain[i + 1]) for i, word in enumerate(entropy[:_POOL])]
    pairs = [(src, dst) for src, dst in itertools.product(range(_POOL), repeat=2) if src != dst]
    for i, (src, dst) in enumerate(pairs, _POOL):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], chain[i], chain[i + 1]))
    h = _absorb(pool, chain[-1], entropy[_POOL:])
    return tuple(pool), h


def _indices(games) -> np.ndarray:
    """A 1-d array of game indices in 0..2**32 - 1, one uint32 word each, as uint64."""
    games = np.asarray(games)
    if games.ndim != 1 or games.dtype.kind not in "iu":
        raise DomainError("game indices must be a 1-d integer array")
    if games.size and (games.min() < 0 or games.max() > _MASK32):
        raise DomainError("game indices must lie in 0..2**32 - 1")
    return games.astype(np.uint64)


def _keys(seed: int, stream: int, game):
    """Philox key of SeedSequence(seed, spawn_key=(stream, game)), as two 64-bit words."""
    # checked before the cache, which takes True for 1
    pool, h = _prefix(check_int(seed, "seed"), check_int(stream, "stream"))
    pool = list(pool)
    _absorb(pool, h, (_indices(game),) if isinstance(game, np.ndarray) else _words(check_int(game, "game index")))
    # generate_state(2, uint64): four uint32 outputs of chain B, paired little-endian
    out = [_hashmix(word, _HASH_B[i], _HASH_B[i + 1]) for i, word in enumerate(pool)]
    return out[0] | out[1] << 32, out[2] | out[3] << 32


def _mulhilo(m: int, x):
    """Low and high 64-bit halves of m·x."""
    if type(x) is int:  # a round's inputs are ints until the key reaches them
        p = m * x
        return p & _MASK64, p >> 64
    # a uint64 array: from 32-bit partial products
    m_lo, m_hi = m & _MASK32, m >> 32
    x_lo, x_hi = x & _MASK32, x >> 32
    t = x_lo * m_hi + (x_lo * m_lo >> 32)
    u = x_hi * m_lo + (t & _MASK32)
    return x * m, x_hi * m_hi + (t >> 32) + (u >> 32)


def _philox_rounds(key0: np.ndarray, key1: np.ndarray, blocks: int) -> list[np.ndarray]:
    """The words of Philox4x64-10 blocks 1..blocks under an array of keys, four per block."""
    words = []
    for counter in range(1, blocks + 1):
        c0, c1, c2, c3, k0, k1 = counter, 0, 0, 0, key0, key1
        for _ in range(_ROUNDS):
            lo0, hi0 = _mulhilo(_M0, c0)
            lo1, hi1 = _mulhilo(_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
            k0, k1 = k0 + _W0, k1 + _W1
        words += (c0, c1, c2, c3)
    return words


def draws(seed: int, stream: int, game, k: int):
    """philox(seed, stream, game).integers(0, 2, k) as a mask, draw i in bit i.

    `game` is an int of any size, for one stream (then k <= MAX_DRAWS), or a
    1-d array of indices in 0..2**32 - 1, for one stream each (then k <= 64,
    and the masks are uint64). The key comes from the SeedSequence
    derivation above; for an int the words come from numpy's Philox re-keyed
    to it, for an array from the rounds above, one lane per index.

    Philox starts at counter 1 and yields four words per block;
    `Generator.integers(0, 2)` takes one uint32 per draw, low half first, and
    returns its top bit, so word j holds draws 2j (bit 31) and 2j + 1 (bit 63).
    """
    many = isinstance(game, np.ndarray)
    k = check_int(k, "draw count", 0, 64 if many else MAX_DRAWS)
    key0, key1 = _keys(seed, stream, game)
    blocks = -(-k // 8)
    if many:
        words = _philox_rounds(key0, key1, blocks)
    else:
        with _LOCK:
            gen = _bit_generator()
            # counter 0 and an empty buffer, so the first word read is block 1's
            gen.state = {
                "bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": (key0, key1)},
                "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
            }
            words = gen.random_raw(4 * blocks).tolist()
    mask = key0 & 0  # the zero mask of an int or of each index
    for w in reversed(words):
        mask = mask << 2 | w >> 62 & 2 | w >> 31 & 1
    return mask & (1 << k) - 1


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
