"""Deterministic sampling streams built on the Philox counter-based generator,
and the two vertex-set draws behind every sampler.

Sampling work is split into fixed-size chunks of samples.  Chunk c of a run
with a given seed always draws from the generator keyed (seed, c), so the
position of a sample inside the run determines its randomness and estimates
merge identically for any worker count or completion order.  This is the
(seed, worker, sample-index) keying with the chunk index as the worker slot.

The draws return an n x count boolean membership matrix, one sample per
column; hypergraph.sample_vp / sample_vm are their one-column forms, so each
law is drawn one way.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "CHUNK",
    "KEY_LIMIT",
    "chunk_layout",
    "m_subset_members",
    "p_keep",
    "p_subset_members",
    "stream_generator",
]

CHUNK = 4096
KEY_LIMIT = 1 << 64  # seeds and streams are 64-bit keys
DRAW_BLOCK = 128  # samples per step of p_subset_members


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


def p_keep(raw: np.ndarray, p: float) -> np.ndarray:
    """raw < C << 11 with C = ceil(p 2^53): where Generator.random() < p for
    the doubles behind the raw 64-bit words, an integer compare with no float
    conversion, since random() is (raw >> 11) / 2^53.  p = 1 keeps every
    word, since its C << 11 = 2^64 overflows uint64."""
    c = math.ceil(p * 2.0**53)
    return raw < np.uint64(c << 11) if c < 1 << 53 else np.ones(raw.shape, dtype=bool)


def p_subset_members(
    gen: np.random.Generator, n: int, free: Sequence[int], p: float, count: int
) -> np.ndarray:
    """Membership of `count` subsets of range(n) keeping each free vertex with
    probability p, the rest always.

    The draw is gen.random((count, |free|)) < p, read off the raw words
    behind those doubles by p_keep.  DRAW_BLOCK samples at a time: the same
    words as one (count, |free|) draw, without its count * |free| * 8-byte
    temporary.
    """
    member = np.ones((n, count), dtype=bool)
    for lo in range(0, count, DRAW_BLOCK):
        rows = min(DRAW_BLOCK, count - lo)
        raw = gen.bit_generator.random_raw((rows, len(free)))
        member[free, lo : lo + rows] = p_keep(raw, p).T
    return member


def m_subset_members(gen: np.random.Generator, n: int, m: int, count: int) -> np.ndarray:
    """Membership of `count` uniform m-subsets of range(n).

    Batched partial Fisher-Yates: row r's first m entries are its m-subset.
    int32 entries (n < 2^31) halve the (count, n) table.
    """
    arr = np.tile(np.arange(n, dtype=np.int32), (count, 1))
    rows = np.arange(count)
    for i in range(m):
        j = gen.integers(i, n, size=count)
        picked = arr[rows, j]
        arr[rows, j] = arr[:, i]
        arr[:, i] = picked
    member = np.zeros((n, count), dtype=bool)
    member[arr[:, :m], rows[:, None]] = True
    return member
