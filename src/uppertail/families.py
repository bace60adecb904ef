"""Integer edge families on {1, ..., n} and small-witness constructions.

Builders accept 1-based n and emit hypergraphs on 0-based vertices, so vertex
v represents the integer v + 1.  The built edge array is the only model of a
family: interval witnesses read their prefix off it.  Each builder refuses a
bad shape by constructing its FamilySpec, then takes its edge count in closed
form, in Python ints, and raises CapacityError past EDGE_BUDGET before any
array exists.  The AP and Schur builders then write canonical rows (each
sorted, the rows in strictly increasing lexicographic order) straight into one
int64 array, which the hypergraph keeps after a one-pass check, with no copy
and no sort; only ell_sum with ell >= 3 is sorted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypergraph import CapacityError, Hypergraph, VertexSet, check_count, check_threshold
from .hypergraph import induced_edge_count

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
# AP(2000,3) and Schur(2000) peak under tracemalloc at about 1.7 times their
# 24-byte-per-edge array (the array plus two int64 run temporaries), so 2^22
# edges stay near 0.2 GB: four times AP(2000,3), the largest family the
# README, demos, benchmark and tests build.  ell_sum with ell >= 3 sorts its
# rows and peaks higher.  The budget bounds the array's e * k entries: a
# k-uniform family may hold 3 * EDGE_BUDGET // max(k, 3) edges, so AP(n, k)
# with k >= 4 keeps to the same bytes as a 3-uniform family at the budget.
EDGE_BUDGET = 1 << 22


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
        check_count(n=self.n, k=self.k, ell=self.ell)
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
        if not self.d_used >= 0:
            raise ValueError("d_used must be nonnegative")
        achieved = induced_edge_count(self.hypergraph, self.subset)  # refuses another range(n)
        if not achieved >= self.x:  # NaN is refused
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


def _check_edges(edges: int, k: int = 3) -> None:
    cap = 3 * EDGE_BUDGET // max(k, 3)  # edges * max(k, 3) <= 3 * EDGE_BUDGET
    if edges > cap:
        raise CapacityError(f"{edges} edges exceed budget {cap}")


def _ap_edge_count(n: int, k: int) -> int:
    """e(build_ap(n, k)): the sum over d = 1..D of n - (k - 1)d, D = (n - 1) // (k - 1)."""
    d = max((n - 1) // (k - 1), 0)
    return d * n - (k - 1) * d * (d + 1) // 2


def _ell_sum_edge_count(n: int, ell: int) -> int:
    """e(build_ell_sum(n, ell)), summed over z in closed form.

    Each z = 1..min(n, (2n - 1) // ell), with s = ell * z, carries the x in
    [max(1, s - n), (s - 1) // 2]: (s - 1) // 2 = s // 2 - [s even] of them
    while s <= n + 1 (z <= a), else n - s // 2.  With ell >= 3 the x = z in
    that range, there exactly when (ell - 1)z <= n, is dropped by the builder.
    """
    top = max(min(n, (2 * n - 1) // ell), 0)
    a = min(top, (n + 1) // ell)

    def halves(b: int) -> int:  # sum of (ell * z) // 2 over z = 1..b
        return (ell * b * (b + 1) // 2 - (b - b // 2 if ell % 2 else 0)) // 2

    evens = a if ell % 2 == 0 else a // 2  # z <= a with ell * z even
    dropped = min(top, n // (ell - 1)) if ell >= 3 else 0
    return halves(a) - evens + (top - a) * n - (halves(top) - halves(a)) - dropped


def _group_positions(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(group, position in group) of every element of groups of the given sizes."""
    group = np.repeat(np.arange(len(counts)), counts)
    position = np.arange(len(group))
    position -= (np.cumsum(counts) - counts)[group]
    return group, position


def build_ap(n: int, k: int) -> Hypergraph:
    """k-term arithmetic progressions {a, a+d, ..., a+(k-1)d}, a >= 1, d >= 1.

    Rows come ordered by start a, then by difference d, which is their
    lexicographic order.  k > n yields the empty hypergraph on n vertices,
    not an error.
    """
    FamilySpec("ap", n, k)
    _check_edges(_ap_edge_count(n, k), k)
    # 0-based start s carries d = 1 .. (n - 1 - s) // (k - 1).
    start, d = _group_positions((n - 1 - np.arange(n)) // (k - 1))
    d += 1
    rows = np.empty((len(d), k), dtype=np.int64)
    rows[:, 0] = start
    for i in range(1, k):
        np.multiply(d, i, out=rows[:, i])
        rows[:, i] += start
    return Hypergraph._adopt(k, n, rows)


def build_schur(n: int) -> Hypergraph:
    """Triples {x, y, x+y} with x < y and x + y <= n: the ell = 1 member of build_ell_sum.

    Rows come ordered by x, then by y, which is their lexicographic order.
    """
    FamilySpec("schur", n)
    _check_edges(_ell_sum_edge_count(n, 1))
    # 0-based x0 = x - 1 carries the n - 2x values y0 = x0 + 1 + offset.
    x0, offset = _group_positions(n - 2 * np.arange(1, (n - 1) // 2 + 1))
    rows = np.empty((len(x0), 3), dtype=np.int64)
    rows[:, 0] = x0
    np.add(x0, offset, out=rows[:, 1])
    rows[:, 1] += 1
    np.add(rows[:, 0], rows[:, 1], out=rows[:, 2])
    rows[:, 2] += 1
    return Hypergraph._adopt(3, n, rows)


def build_ell_sum(n: int, ell: int) -> Hypergraph:
    """Triples {x, y, z} of distinct integers with x < y and x + y = ell * z.

    ell = 1 is build_schur(n) and ell = 2 is build_ap(n, 3).  Otherwise,
    since x + y <= 2n - 1, only z <= (2n - 1) // ell can carry a triple.  That
    bound is taken in Python ints before any array exists, so ell * z stays
    below 2n for any ell, and ell > 2n - 1 gives the empty family.  These
    rows are grouped by z and go through the constructor's sort.
    """
    FamilySpec("ell_sum", n, ell=ell)
    if ell == 1:
        return build_schur(n)
    if ell == 2:
        return build_ap(n, 3)
    _check_edges(_ell_sum_edge_count(n, ell))
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
    triples -= 1
    return Hypergraph._adopt(3, n, triples)


def interval_witness(spec: FamilySpec, x: float, h: Hypergraph | None = None) -> Witness | None:
    """Smallest prefix {1, ..., m} inducing at least x edges, or None.

    An edge lies in the prefix exactly when its largest vertex does, so m is
    one more than the ceil(x)-th smallest largest vertex of an edge.  d_used
    is recovered from the size as m / max(sqrt(x), 1).  h is build(spec),
    built here unless the caller already holds it.
    """
    check_threshold(x=x)  # before any build
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
    check_threshold(x=x)
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
