"""Deterministic sampling streams built on the Philox counter-based generator.

Sampling work is split into fixed-size chunks of samples.  Chunk c of a run
with a given seed always draws from the generator keyed (seed, c), so the
position of a sample inside the run determines its randomness and estimates
merge identically for any worker count or completion order.  This is the
(seed, worker, sample-index) keying with the chunk index as the worker slot.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["CHUNK", "KEY_LIMIT", "chunk_layout", "stream_generator"]

CHUNK = 4096
KEY_LIMIT = 1 << 64  # seeds and streams are 64-bit keys


def stream_generator(seed: int, stream: int) -> np.random.Generator:
    """Generator for the given stream of a seeded run (keys are 64-bit)."""
    if not (0 <= seed < KEY_LIMIT and 0 <= stream < KEY_LIMIT):
        raise ValueError(f"seed {seed} and stream {stream} must lie in [0, 2**64)")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_layout(total: int) -> Iterator[tuple[int, int]]:
    """Yield (stream_index, sample_count) pairs covering `total` samples, CHUNK
    samples per stream (the last one may hold fewer)."""
    if total < 0:
        raise ValueError("total must be nonnegative")
    stream = 0
    remaining = total
    while remaining > 0:
        size = min(CHUNK, remaining)
        yield stream, size
        stream += 1
        remaining -= size
