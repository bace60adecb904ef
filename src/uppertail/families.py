"""Integer edge families on {1, ..., n} and small-witness constructions.

Builders accept 1-based n and emit hypergraphs on 0-based vertices, so vertex
v represents the integer v + 1.  The built edge array is the only model of a
family: interval witnesses read their prefix off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph, VertexSet, induced_edge_count

__all__ = [
    "KINDS",
    "FamilySpec",
    "Witness",
    "build",
    "build_ap",
    "build_ell_sum",
    "build_schur",
    "greedy_witness",
    "interval_witness",
]

KINDS = ("ap", "schur", "ell_sum")


@dataclass(frozen=True)
class FamilySpec:
    """Which integer family to build: ap(n, k), schur(n), or ell_sum(n, ell)."""

    kind: str
    n: int
    k: int = 3
    ell: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.kind == "ap":
            if self.k < 2:
                raise ValueError("ap requires uniformity k >= 2")
        elif self.k != 3:
            raise ValueError(f"{self.kind} is 3-uniform")
        if self.kind == "ell_sum" and self.ell < 1:
            raise ValueError("ell must be at least 1")


@dataclass(frozen=True)
class Witness:
    """Vertex set W with e(H[W]) >= x and |W| <= d_used * max(sqrt(x), 1)."""

    hypergraph: Hypergraph
    subset: VertexSet
    d_used: float
    x: float

    def __post_init__(self):
        if self.d_used < 0:
            raise ValueError("d_used must be nonnegative")
        achieved = induced_edge_count(self.hypergraph, self.subset)
        if achieved < self.x:
            raise ValueError(f"witness induces {achieved} < {self.x} edges")
        cap = self.d_used * max(math.sqrt(max(self.x, 0.0)), 1.0)
        if len(self.subset) > cap + 1e-9:
            raise ValueError(f"witness size {len(self.subset)} exceeds {cap}")


def build(spec: FamilySpec) -> Hypergraph:
    if spec.kind == "ap":
        return build_ap(spec.n, spec.k)
    if spec.kind == "schur":
        return build_schur(spec.n)
    return build_ell_sum(spec.n, spec.ell)


def _group_positions(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(group, position in group) of every element of groups of the given sizes."""
    group = np.repeat(np.arange(len(counts)), counts)
    firsts = np.cumsum(counts) - counts
    return group, np.arange(len(group)) - firsts[group]


def build_ap(n: int, k: int) -> Hypergraph:
    """k-term arithmetic progressions {a, a+d, ..., a+(k-1)d}, a >= 1, d >= 1.

    k > n yields the empty hypergraph on n vertices, not an error.
    """
    if k < 2:
        raise ValueError("ap requires uniformity k >= 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    d = np.arange(1, (n - 1) // (k - 1) + 1)
    group, start = _group_positions(n - (k - 1) * d)
    return Hypergraph(k, n, start[:, None] + d[group, None] * np.arange(k))


def build_schur(n: int) -> Hypergraph:
    """Triples {x, y, x+y} with x < y and x + y <= n: the ell = 1 member of build_ell_sum."""
    return build_ell_sum(n, 1)


def build_ell_sum(n: int, ell: int) -> Hypergraph:
    """Triples {x, y, z} of distinct integers with x < y and x + y = ell * z.

    Since x + y <= 2n - 1, only z <= (2n - 1) // ell can carry a triple.  That
    bound is taken in Python ints before any array exists, so ell * z stays
    below 2n for any ell, and ell > 2n - 1 gives the empty family.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    z = np.arange(1, min(n, (2 * n - 1) // ell) + 1)
    if not len(z):
        return Hypergraph(3, n, [])
    s = ell * z
    lo = np.maximum(1, s - n)
    group, offset = _group_positions(np.maximum((s - 1) // 2 - lo + 1, 0))
    x = lo[group] + offset
    z = z[group]
    y = s[group] - x
    triples = np.stack([x, y, z], axis=1)[(z != x) & (z != y)]
    return Hypergraph(3, n, triples - 1)


def interval_witness(spec: FamilySpec, x: float, h: Hypergraph | None = None) -> Witness | None:
    """Smallest prefix {1, ..., m} inducing at least x edges, or None.

    An edge lies in the prefix exactly when its largest vertex does, so m is
    one more than the ceil(x)-th smallest largest vertex of an edge.  d_used
    is recovered from the size as m / max(sqrt(x), 1).  h is build(spec),
    built here unless the caller already holds it.
    """
    if h is None:
        h = build(spec)
    if x <= 0:
        return Witness(h, VertexSet(spec.n, 0), 0.0, float(x))
    if h.num_edges < x:
        return None
    rank = math.ceil(x) - 1
    m = int(np.partition(h.edge_array[:, -1], rank)[rank]) + 1
    subset = VertexSet(spec.n, (1 << m) - 1)
    d_used = m / max(math.sqrt(x), 1.0)
    return Witness(h, subset, d_used, float(x))


def greedy_witness(h: Hypergraph, x: float) -> Witness | None:
    """Grow W by the vertex completing the most new edges (ties: lowest id).

    No size guarantee; d_used is computed a posteriori.  Returns None when
    the whole hypergraph has fewer than x edges.
    """
    if x <= 0:
        return Witness(h, VertexSet(h.n, 0), 0.0, float(x))
    if h.num_edges < x:
        return None
    in_w = [False] * h.n
    missing = [h.k] * h.num_edges
    count = 0
    chosen = 0
    while count < x:
        best_v = -1
        best_gain = -1
        for v in range(h.n):
            if in_w[v]:
                continue
            gain = sum(1 for idx in h.incidence[v] if missing[idx] == 1)
            if gain > best_gain:
                best_v, best_gain = v, gain
        in_w[best_v] = True
        chosen += 1
        for idx in h.incidence[best_v]:
            missing[idx] -= 1
            if missing[idx] == 0:
                count += 1
    subset = VertexSet.from_bool_array(in_w)
    d_used = chosen / max(math.sqrt(x), 1.0)
    return Witness(h, subset, d_used, float(x))
