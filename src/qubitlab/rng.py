"""Counter-based random streams.

All stochastic code in the package draws from Philox generators keyed by
(seed, *stream): distinct stream paths under the same seed are statistically
independent (SeedSequence spawn keys), and every draw is a reproducible
function of (seed, stream path, draw index). Callers that need per-trial or
per-game purity spawn one stream per index.

Because the generator is counter-based, drawing a stream in pieces gives the
same doubles in the same order as one call: `uniform_blocks` streams
philox(seed).random(n) through a buffer of at most BLOCK doubles. For the
same reason any draw can be computed straight from its counter: `game_bits`
recomputes numpy's SeedSequence key derivation (NEP 19) and Philox4x64-10
(Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011) as
array expressions, giving philox(seed, stream, g).integers(0, 2, k) for a
whole array of indices g at once.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from .errors import DomainError, check_int

# 512 KiB of float64, small enough to stay in a per-core L2 cache
BLOCK = 1 << 16

# numpy's SeedSequence hash over uint32 words, pool of 4 words
_MASK32 = 0xFFFF_FFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# Philox4x64-10: round multipliers and Weyl key increments
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10


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


# the three hash steps work on Python ints and on uint32 arrays alike
def _hashmix(value, consts):
    xor, mult = next(consts)
    value = (value ^ xor) * mult & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ (r >> 16)


def _philox_keys(seed: int, stream: int, games: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Philox keys of SeedSequence(seed, spawn_key=(stream, g)) for each uint32 g.

    The entropy is the seed's words zero-padded to the pool size, then the
    stream's words, then g. Every word before g is hashed once with Python
    ints; only the four mixes of g and the four output hashes are arrays.
    """
    seed_words = _words(seed)
    entropy = seed_words + [0] * (_POOL - len(seed_words)) + _words(stream) + [games]
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in entropy[:_POOL]]
    for src, dst in itertools.product(range(_POOL), repeat=2):
        if src != dst:
            pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    # generate_state(2, uint64): four uint32 outputs, paired little-endian
    consts = _hash_consts(_INIT_B, _MULT_B)
    out = [_hashmix(word, consts).astype(np.uint64) for word in pool]
    return out[0] | out[1] << np.uint64(32), out[2] | out[3] << np.uint64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high uint64 halves of m·x, from 32-bit partial products."""
    m_lo, m_hi = m & _MASK32, m >> 32
    x_lo, x_hi = x & _MASK32, x >> np.uint64(32)
    t = x_lo * m_hi + (x_lo * m_lo >> np.uint64(32))
    u = x_hi * m_lo + (t & _MASK32)
    return x * m, x_hi * m_hi + (t >> np.uint64(32)) + (u >> np.uint64(32))


def game_bits(seed: int, stream: int, games, k: int) -> np.ndarray:
    """Row i is philox(seed, stream, games[i]).integers(0, 2, k), as uint8.

    Philox starts at counter 1 and yields four uint64 words per block;
    `Generator.integers(0, 2)` takes one uint32 per draw, low half first,
    and returns its top bit. Indices must lie in 0..2**32 - 1.
    """
    seed, stream, k = check_int(seed, "seed"), check_int(stream, "stream"), check_int(k, "draw count")
    games = np.asarray(games)
    if games.ndim != 1 or games.dtype.kind not in "iu":
        raise DomainError("game indices must be a 1-d integer array")
    if games.size and (games.min() < 0 or games.max() > _MASK32):
        raise DomainError("game indices must lie in 0..2**32 - 1")
    key0, key1 = _philox_keys(seed, stream, games.astype(np.uint32))
    blocks = -(-k // 8)  # 8 draws per block
    c0 = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), (len(games), 1))
    c1 = c2 = c3 = np.zeros_like(c0)
    key0, key1 = key0[:, None], key1[:, None]
    for r in range(_ROUNDS):
        if r:
            key0, key1 = key0 + np.uint64(_W0), key1 + np.uint64(_W1)
        lo0, hi0 = _mulhilo(_M0, c0)
        lo1, hi1 = _mulhilo(_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0
    # word j of a block splits into draws 2j (low half) and 2j + 1 (high half)
    bits = np.empty((len(games), blocks, 4, 2), dtype=np.uint8)
    for j, word in enumerate((c0, c1, c2, c3)):
        bits[:, :, j, 0] = word >> np.uint64(31) & np.uint64(1)
        bits[:, :, j, 1] = word >> np.uint64(63)
    return bits.reshape(len(games), 8 * blocks)[:, :k]


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
