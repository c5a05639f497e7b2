"""Counter-based random streams.

All stochastic code in the package draws from Philox generators keyed by
(seed, *stream): distinct stream paths under the same seed are statistically
independent (SeedSequence spawn keys), and every draw is a reproducible
function of (seed, stream path, draw index). Callers that need per-trial or
per-game purity spawn one stream per index.

Because the generator is counter-based, drawing a stream in pieces gives the
same doubles in the same order as one call: `uniform_blocks` streams
philox(seed).random(n) through a buffer of at most BLOCK doubles.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# 512 KiB of float64, small enough to stay in a per-core L2 cache
BLOCK = 1 << 16


def philox(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the given seed and stream path."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


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
