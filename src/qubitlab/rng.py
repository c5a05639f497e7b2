"""Counter-based random streams.

All stochastic code in the package draws from Philox generators keyed by
(seed, *stream): distinct stream paths under the same seed are statistically
independent (SeedSequence spawn keys), and every draw is a reproducible
function of (seed, stream path, draw index). Callers that need per-trial or
per-game purity spawn one stream per index.

Because the generator is counter-based, drawing a stream in pieces gives the
same doubles in the same order as one call: `uniform_blocks` streams
philox(seed).random(n) through a buffer of at most BLOCK doubles. For the
same reason any draw can be computed straight from its counter: one kernel
recomputes numpy's SeedSequence key derivation (NEP 19) and Philox4x64-10
(Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011), and
gives philox(seed, stream, g).integers(0, 2, k) as a bit mask, in `draws`,
for one game index g (an int) or an array of them.
"""

from __future__ import annotations

import functools
import itertools
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


def philox(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the given seed and stream path."""
    ss = np.random.SeedSequence(check_int(seed, "seed"), spawn_key=tuple(check_int(s, "stream") for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def _words(n: int) -> list[int]:
    """Little-endian uint32 words of a nonnegative int, at least one."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_consts(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """Successive (xor, multiply) constants of one SeedSequence hash chain."""
    h = init
    while True:
        nxt = h * mult & _MASK32
        yield h, nxt
        h = nxt


# the kernel below runs on Python ints for one stream and on uint64 arrays for many
def _hashmix(value, consts):
    xor, mult = next(consts)
    value = (value ^ xor) * mult & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ (r >> 16)


def _absorb(pool: list, consts, words) -> None:
    """Mix the entropy words after the first four into the pool."""
    for word in words:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))


@functools.lru_cache(maxsize=PREFIXES)
def _prefix(seed: int, stream: int) -> tuple[tuple[int, ...], int]:
    """The pool after the seed's words (zero-padded to the pool size) and the stream's, and the next constant."""
    seed_words = _words(seed)
    entropy = seed_words + [0] * (_POOL - len(seed_words)) + _words(stream)
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in entropy[:_POOL]]
    for src, dst in itertools.product(range(_POOL), repeat=2):
        if src != dst:
            pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    _absorb(pool, consts, entropy[_POOL:])
    return tuple(pool), next(consts)[0]


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
    pool, consts = list(pool), _hash_consts(h, _MULT_A)
    words = (_indices(game),) if isinstance(game, np.ndarray) else _words(check_int(game, "game index"))
    _absorb(pool, consts, words)
    # generate_state(2, uint64): four uint32 outputs, paired little-endian
    consts = _hash_consts(_INIT_B, _MULT_B)
    out = [_hashmix(word, consts) for word in pool]
    return out[0] | out[1] << 32, out[2] | out[3] << 32


def _mulhilo(m: int, x):
    """Low and high 64-bit halves of m·x."""
    if type(x) is int:
        p = m * x
        return p & _MASK64, p >> 64
    # a uint64 array: from 32-bit partial products
    m_lo, m_hi = m & _MASK32, m >> 32
    x_lo, x_hi = x & _MASK32, x >> 32
    t = x_lo * m_hi + (x_lo * m_lo >> 32)
    u = x_hi * m_lo + (t & _MASK32)
    return x * m, x_hi * m_hi + (t >> 32) + (u >> 32)


def _philox_blocks(seed: int, stream: int, game, k: int) -> Iterator:
    """Each Philox4x64-10 block that holds one of the first k draws, as the mask of its 8 draws.

    Philox starts at counter 1 and yields four words per block;
    `Generator.integers(0, 2)` takes one uint32 per draw, low half first, and
    returns its top bit, so word j holds draws 2j (bit 31) and 2j + 1 (bit 63).
    """
    key0, key1 = _keys(seed, stream, game)
    for counter in range(1, -(-k // 8) + 1):
        c0, c1, c2, c3, k0, k1 = counter, 0, 0, 0, key0, key1
        for _ in range(_ROUNDS):
            lo0, hi0 = _mulhilo(_M0, c0)
            lo1, hi1 = _mulhilo(_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
            k0, k1 = k0 + _W0 & _MASK64, k1 + _W1 & _MASK64
        yield sum((w >> 31 & 1) << 2 * j | (w >> 63) << 2 * j + 1 for j, w in enumerate((c0, c1, c2, c3)))


def draws(seed: int, stream: int, game, k: int):
    """philox(seed, stream, game).integers(0, 2, k) as a mask, draw i in bit i.

    `game` is an int of any size, for one stream, or a 1-d array of indices in
    0..2**32 - 1, for one stream each (then k <= 64, and the masks are uint64).
    """
    many = isinstance(game, np.ndarray)
    k = check_int(k, "draw count", 0, 64 if many else None)
    zero = _indices(game) & 0 if many else 0  # the masks of k = 0 draws, which take no Philox block
    masks = (mask << 8 * b for b, mask in enumerate(_philox_blocks(seed, stream, game, k)))
    return sum(masks, zero) & (1 << k) - 1


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
