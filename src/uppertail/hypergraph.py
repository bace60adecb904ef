"""k-uniform hypergraphs on {0, ..., n-1} with packed-bitset vertex subsets.

Vertices are 0-based everywhere in this package; the integer-family builders
in :mod:`uppertail.families` translate from {1, ..., n} at construction time.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CapacityError",
    "Hypergraph",
    "VertexSet",
    "codegrees",
    "degree",
    "delta_j",
    "from_text",
    "induced_edge_count",
    "induced_edges",
    "max_degree",
    "sample_vm",
    "sample_vp",
    "to_text",
]


class CapacityError(RuntimeError):
    """Raised when an exact routine is asked to exceed its declared budget."""


class VertexSet:
    """Subset of {0, ..., n-1} stored as a packed little-endian bit vector."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if bits < 0 or bits >> n != 0:
            raise ValueError("bit vector has members outside range(n)")
        self.n = n
        self.bits = bits

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "VertexSet":
        bits = 0
        for v in indices:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} outside range({n})")
            bits |= 1 << v
        return cls(n, bits)

    @classmethod
    def from_bool_array(cls, mask) -> "VertexSet":
        arr = np.asarray(mask, dtype=bool)
        if arr.ndim != 1:
            raise ValueError("membership mask must be one-dimensional")
        packed = np.packbits(arr, bitorder="little").tobytes()
        return cls(arr.size, int.from_bytes(packed, "little"))

    def indices(self) -> tuple[int, ...]:
        bits = self.bits
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return tuple(out)

    def to_bool_array(self) -> np.ndarray:
        nbytes = (self.n + 7) // 8
        raw = np.frombuffer(self.bits.to_bytes(max(nbytes, 1), "little"), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[: self.n].astype(bool)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.bits >> v) & 1 == 1

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"VertexSet(n={self.n}, members={list(self.indices())})"


class Hypergraph:
    """Immutable k-uniform hypergraph in canonical form.

    Edges are sorted k-tuples of distinct vertices from range(n), stored in
    lexicographic order with duplicates removed.  Per-vertex incidence lists
    (ascending edge ids) and per-edge bitmasks are built eagerly.
    """

    __slots__ = ("k", "n", "edges", "incidence", "edge_masks", "_hash")

    def __init__(self, k: int, n: int, edges: Iterable[Sequence[int]]):
        if k < 1:
            raise ValueError("uniformity k must be at least 1")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        for edge in edges:
            tup = tuple(sorted(int(v) for v in edge))
            if len(tup) != k:
                raise ValueError(f"edge {tup} does not have exactly {k} vertices")
            if any(a == b for a, b in zip(tup, tup[1:])):
                raise ValueError(f"edge {tup} repeats a vertex")
            if tup[0] < 0 or tup[-1] >= n:
                raise ValueError(f"edge {tup} leaves range({n})")
            seen.add(tup)
        canon = tuple(sorted(seen))
        incidence = [[] for _ in range(n)]
        for idx, edge in enumerate(canon):
            for v in edge:
                incidence[v].append(idx)
        self.k = k
        self.n = n
        self.edges = canon
        self.incidence = tuple(tuple(ids) for ids in incidence)
        self.edge_masks = tuple(sum(1 << v for v in edge) for edge in canon)
        self._hash = hash((k, n, canon))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.k == other.k
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Hypergraph(k={self.k}, n={self.n}, edges={len(self.edges)})"


def _check_universe(h: Hypergraph, s: VertexSet) -> None:
    if s.n != h.n:
        raise ValueError(f"vertex set over range({s.n}) does not match range({h.n})")


def induced_edge_count(h: Hypergraph, s: VertexSet) -> int:
    """Count edges of h with all k vertices inside s."""
    return len(induced_edges(h, s))


def induced_edges(h: Hypergraph, s: VertexSet) -> tuple[int, ...]:
    """Ids of edges with all vertices inside s, ascending."""
    _check_universe(h, s)
    bits = s.bits
    out = []
    for idx, mask in enumerate(h.edge_masks):
        if bits & mask == mask:
            out.append(idx)
    return tuple(out)


def degree(h: Hypergraph, v: int) -> int:
    """Number of edges containing vertex v."""
    if not 0 <= v < h.n:
        raise ValueError(f"vertex {v} outside range({h.n})")
    return len(h.incidence[v])


def max_degree(h: Hypergraph) -> int:
    return max((len(ids) for ids in h.incidence), default=0)


def codegrees(h: Hypergraph, j: int) -> Counter:
    """codeg(T), the number of edges containing T, for each j-set T inside an edge.

    Iterates over the j-subsets of each edge (never over all C(n, j) vertex
    subsets), so the cost is e(H) * C(k, j) counter updates.
    """
    if not 1 <= j <= h.k:
        raise ValueError(f"j must be in [1, {h.k}]")
    return Counter(sub for edge in h.edges for sub in combinations(edge, j))


def delta_j(h: Hypergraph, j: int) -> int:
    """Largest number of edges sharing some j common vertices."""
    return max(codegrees(h, j).values(), default=0)


def sample_vp(h: Hypergraph, p: float, rng: np.random.Generator) -> VertexSet:
    """Include each vertex independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return VertexSet.from_bool_array(rng.random(h.n) < p)


def sample_vm(h: Hypergraph, m: int, rng: np.random.Generator) -> VertexSet:
    """Uniform m-subset of the vertices via partial Fisher-Yates."""
    if not 0 <= m <= h.n:
        raise ValueError(f"m must lie in [0, {h.n}]")
    arr = list(range(h.n))
    for i in range(m):
        j = int(rng.integers(i, h.n))
        arr[i], arr[j] = arr[j], arr[i]
    return VertexSet.from_indices(h.n, arr[:m])


def to_text(h: Hypergraph) -> str:
    """Serialize: header 'k n e', then one line of k vertex ids per edge."""
    lines = [f"{h.k} {h.n} {len(h.edges)}"]
    lines.extend(" ".join(str(v) for v in edge) for edge in h.edges)
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Hypergraph:
    """Parse the to_text format; strict about counts and shapes."""
    rows = text.splitlines()
    if not rows:
        raise ValueError("empty hypergraph text")
    head = rows[0].split()
    if len(head) != 3:
        raise ValueError("header must be 'k n e'")
    k, n, e = (int(x) for x in head)
    if e < 0 or len(rows) < 1 + e:
        raise ValueError(f"expected {e} edge lines, found {len(rows) - 1}")
    if any(line.strip() for line in rows[1 + e :]):
        raise ValueError("trailing content after edge lines")
    edges = []
    for line in rows[1 : 1 + e]:
        parts = line.split()
        if len(parts) != k:
            raise ValueError(f"edge line {line!r} does not have {k} entries")
        edges.append(tuple(int(x) for x in parts))
    h = Hypergraph(k, n, edges)
    if len(h.edges) != e:
        raise ValueError("edge lines contain duplicates")
    return h
