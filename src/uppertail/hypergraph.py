"""k-uniform hypergraphs on {0, ..., n-1} with packed-bitset vertex subsets.

Vertices are 0-based everywhere in this package; the integer-family builders
in :mod:`uppertail.families` translate from {1, ..., n} at construction time.
"""

from __future__ import annotations

import math
import operator
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .rng import m_subset_members, p_keep

__all__ = [
    "CapacityError",
    "Hypergraph",
    "VertexSet",
    "check_count",
    "check_finite",
    "check_nonnegative",
    "check_open_rate",
    "check_positive",
    "check_probability",
    "check_rate",
    "check_subset_size",
    "check_threshold",
    "delta_j",
    "induced_edge_count",
    "induced_edges",
    "induced_mask",
    "membership_table",
    "sample_vm",
    "sample_vp",
]


class CapacityError(RuntimeError):
    """Raised when an exact routine is asked to exceed its declared budget."""


def check_probability(p: float) -> None:
    """Refuse a vertex density p outside [0, 1], NaN included."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")


def check_threshold(**values: float) -> None:
    """Refuse NaN, the one value unequal to itself, which no count meets.
    Nothing is compared with a float, so +-inf and any int pass."""
    for name, value in values.items():
        if value != value:
            raise ValueError(f"{name} must not be NaN")


def check_finite(**values: float) -> None:
    """Refuse NaN, +-inf and an int past the float range.  The compares run
    first, so a value that does not compare with a float still raises TypeError."""
    for name, value in values.items():
        if not -math.inf < value < math.inf:
            raise ValueError(f"{name} must be finite, not {value}")
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{name} must be finite, not an int past the float range") from None


def check_positive(**values: float) -> None:
    """Refuse what check_finite refuses, then a value that is not > 0 (-0.0 included)."""
    for name, value in values.items():
        if not (type(value) is float and 0 < value < math.inf):  # X_r and M_r call this per sample
            check_finite(**{name: value})
            if not value > 0:
                raise ValueError(f"{name} must be positive, not {value}")


def check_nonnegative(**values: float) -> None:
    """Refuse what check_finite refuses, then a value below 0 (-0.0 passes)."""
    check_finite(**values)
    for name, value in values.items():
        if not value >= 0:
            raise ValueError(f"{name} must be nonnegative, not {value}")


def check_rate(**values: float) -> None:
    """Refuse a rate outside (0, 1], NaN included."""
    for name, value in values.items():
        if not 0 < value <= 1:
            raise ValueError(f"{name} must lie in (0, 1], not {value}")


def check_open_rate(**values: float) -> None:
    """Refuse a rate outside (0, 1), NaN included."""
    for name, value in values.items():
        if not 0 < value < 1:
            raise ValueError(f"{name} must lie in (0, 1), not {value}")


def check_count(**values: int) -> None:
    """Refuse a negative count, or one operator.index rejects (a float, however whole)."""
    for name, value in values.items():
        if not (hasattr(value, "__index__") and operator.index(value) >= 0):
            raise ValueError(f"{name} must be a nonnegative integer, not {value!r}")


def check_subset_size(m: int, n: int) -> None:
    """Refuse a subset size m that is not a count in [0, n]."""
    check_count(m=m)
    if not m <= n:
        raise ValueError(f"m must lie in [0, {n}]")


MEMBERSHIP_VERTEX_BUDGET = 16  # membership_table's int64 (2^n, n) temporary is 8 MiB here


class VertexSet:
    """Subset of {0, ..., n-1} stored as a packed little-endian bit vector."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        check_count(n=n)
        if bits < 0 or bits >> n != 0:
            raise ValueError("bit vector has members outside range(n)")
        self.n = n
        self.bits = bits

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


def _lex_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rows in lexicographic order, and the index where each run of equal rows starts."""
    rows = rows[np.lexsort(rows.T[::-1])]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows, np.flatnonzero(new)


def _edge_rows(k: int, edges) -> np.ndarray:
    """The edges as a fresh C-ordered (e, k) int64 array, rows as given."""
    if isinstance(edges, np.ndarray):
        if not np.issubdtype(edges.dtype, np.integer) or edges.ndim != 2 or edges.shape[1] != k:
            raise ValueError(f"edge array must be integer with shape (e, {k})")
        return edges.astype(np.int64, order="C")
    listed = [tuple(int(v) for v in edge) for edge in edges]
    for tup in listed:
        if len(tup) != k:
            raise ValueError(f"edge {tuple(sorted(tup))} does not have exactly {k} vertices")
    try:
        return np.array(listed, dtype=np.int64).reshape(-1, k)
    except OverflowError as exc:
        raise ValueError("an edge has a vertex outside the int64 range") from exc


def _is_canonical(rows: np.ndarray, n: int) -> bool:
    """Whether rows is already canonical: each row strictly increases inside
    range(n), and each row is lexicographically above the one before it.
    One pass of column compares, each making one length-e mask."""
    if not len(rows):
        return True
    k = rows.shape[1]
    if rows[:, 0].min() < 0 or rows[:, -1].max() >= n:
        return False
    if not all((rows[:, c] < rows[:, c + 1]).all() for c in range(k - 1)):
        return False
    prev, nxt = rows[:-1], rows[1:]
    above = prev[:, -1] < nxt[:, -1]
    for c in range(k - 2, -1, -1):
        above &= prev[:, c] == nxt[:, c]
        above |= prev[:, c] < nxt[:, c]
    return bool(above.all())


def _canonical(rows: np.ndarray, n: int) -> np.ndarray:
    """rows, a fresh (e, k) int64 array handed over, in canonical form and
    read-only: kept as it is when one pass finds it canonical, else sorted
    within and across rows, checked, and stripped of repeated rows."""
    if not _is_canonical(rows, n):
        rows.sort(axis=1)
        repeats = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
        bad = repeats | (rows[:, 0] < 0) | (rows[:, -1] >= n)
        if bad.any():
            i = int(np.argmax(bad))
            tup = tuple(rows[i].tolist())
            raise ValueError(f"edge {tup} repeats a vertex" if repeats[i] else f"edge {tup} leaves range({n})")
        rows, starts = _lex_runs(rows)
        rows = rows[starts]
    rows.setflags(write=False)
    return rows


def _dense(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(the rank of each value among the distinct values, how many there are)."""
    distinct, ranks = np.unique(values, return_inverse=True)
    return ranks, len(distinct)


def _set_keys(h: "Hypergraph", j: int) -> np.ndarray:
    """One int64 key for each j-subset of each edge, equal exactly where the
    j-sets are equal.  Digit c of every key is the c-th vertex of its j-set,
    in base n.  The keys fill one preallocated array, a row per column set,
    one row at a time, so no full-length digit column is built.  Where one
    more digit could pass int64, the partial keys (and, for n near 2^63, the
    digits) are first replaced by their dense ranks, which stay below the
    number of keys.  h has at least one edge."""
    arr = h.edge_array
    combos = list(combinations(range(h.k), j))
    keys = np.empty((len(combos), len(arr)), dtype=np.int64)
    for row, cols in zip(keys, combos):
        row[:] = arr[:, cols[0]]
    span = h.n
    for c in range(1, j):
        base = h.n
        if span * base >= 1 << 63:
            ranks, span = _dense(keys.reshape(-1))
            keys = ranks.reshape(keys.shape)
        if span * base < 1 << 63:
            for row, cols in zip(keys, combos):
                row *= base
                row += arr[:, cols[c]]
        else:
            ranks, base = _dense(np.concatenate([arr[:, cols[c]] for cols in combos]))
            keys *= base
            keys += ranks.reshape(keys.shape)
        span *= base
    return keys.reshape(-1)


def _codegrees(h: "Hypergraph", j: int) -> np.ndarray:
    """codeg(T) for every j-set T inside an edge, in no fixed order; j = 1
    may also list zeros, for vertices in no edge."""
    if not 1 <= j <= h.k:
        raise ValueError(f"j must be in [1, {h.k}]")
    if j == h.k or not h.num_edges:  # each edge is its own k-set
        return np.ones(h.num_edges, dtype=np.int64)
    if j == 1 and h.n <= h.edge_array.size:
        return np.bincount(h.edge_array.ravel())
    keys = _set_keys(h, j)
    keys.sort()
    total = len(keys)
    new = np.empty(total, dtype=bool)  # where a run of equal keys starts
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    del keys  # the peak is the keys and this mask, never an int64 copy beside them
    runs = np.flatnonzero(new)  # each run's start, turned into its length in place
    del new
    np.subtract(runs[1:], runs[:-1], out=runs[:-1])
    runs[-1] = total - runs[-1]
    return runs


def _incidence(h: "Hypergraph") -> tuple[tuple[int, ...], ...]:
    flat = h.edge_array.ravel()
    ids = (np.argsort(flat, kind="stable") // h.k).tolist()
    ends = np.cumsum(np.bincount(flat, minlength=h.n)).tolist()
    return tuple(tuple(ids[a:b]) for a, b in zip([0] + ends, ends))


def _codegree_sums(h: "Hypergraph") -> tuple[int, ...]:
    # sum codeg^2 <= (e * C(k, j))^2: no int64 overflow for any e that fits in memory
    return tuple(int(np.square(_codegrees(h, j)).sum()) for j in range(1, h.k + 1))


_VIEWS = {
    "edges": lambda h: tuple(map(tuple, h.edge_array.tolist())),
    "edge_masks": lambda h: tuple(sum(1 << v for v in edge) for edge in h.edge_array.tolist()),
    "incidence": _incidence,
    "codegree_sums": _codegree_sums,
    "_hash": lambda h: hash((h.k, h.n, h.edge_array.tobytes())),
}


class Hypergraph:
    """Immutable k-uniform hypergraph in canonical form.

    The one edge store is ``edge_array``: a read-only (e, k) int64 array whose
    rows are sorted k-sets of distinct vertices from range(n), in lexicographic
    order with duplicates removed.  The constructor copies its input to int64
    and checks that form in one pass; only input that fails the check is
    sorted and deduplicated.  The family builders hand over rows already in
    that form (``_adopt``), which are kept without a copy or a sort.
    Everything else is derived from the array on first
    read and then kept as a plain attribute: ``edges`` (sorted tuples),
    ``edge_masks`` (one int bitmask per edge), ``incidence`` (ascending edge ids
    per vertex) and ``codegree_sums`` (sum over j-sets T of codeg(T)^2, for
    j = 1..k).  Induced edge ids and counts read the array and never build
    the Python views.
    """

    __slots__ = ("k", "n", "edge_array", *_VIEWS)

    def __init__(self, k: int, n: int, edges: Iterable[Sequence[int]] | np.ndarray):
        check_count(k=k, n=n)
        if k < 1:
            raise ValueError("uniformity k must be at least 1")
        self.k = k
        self.n = n
        self.edge_array = _canonical(_edge_rows(k, edges), n)

    @classmethod
    def _adopt(cls, k: int, n: int, rows: np.ndarray) -> "Hypergraph":
        """The hypergraph on rows, a fresh (e, k) int64 array that its maker
        hands over: stored without a copy when it is already canonical."""
        h = cls.__new__(cls)
        h.k = k
        h.n = n
        h.edge_array = _canonical(rows, n)
        return h

    def __getattr__(self, name: str):
        # Reached only while a derived view is unset: build it once and store
        # it in its slot, so every later read is a plain attribute read.
        view = _VIEWS.get(name)
        if view is None:
            raise AttributeError(name)
        value = view(self)
        setattr(self, name, value)
        return value

    @property
    def num_edges(self) -> int:
        return len(self.edge_array)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.k == other.k
            and self.n == other.n
            and np.array_equal(self.edge_array, other.edge_array)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Hypergraph(k={self.k}, n={self.n}, edges={self.num_edges})"


def induced_mask(h: Hypergraph, member: np.ndarray) -> np.ndarray:
    """inside[..., i]: whether edge i has all k vertices in member, a boolean
    mask over range(n) or a stack of such masks (one row of inside each)."""
    return member[..., h.edge_array].all(axis=-1)


def membership_table(n: int) -> np.ndarray:
    """member[code, v]: whether bit v of code is set, for all 2^n subset codes."""
    if n > MEMBERSHIP_VERTEX_BUDGET:
        raise CapacityError(f"{n} vertices exceed membership budget {MEMBERSHIP_VERTEX_BUDGET}")
    return np.arange(1 << n)[:, None] & (1 << np.arange(n)) != 0


def _inside(h: Hypergraph, s: VertexSet) -> np.ndarray:
    """inside[i]: whether edge i has all k vertices in s."""
    if s.n != h.n:
        raise ValueError(f"vertex set over range({s.n}) does not match range({h.n})")
    return induced_mask(h, s.to_bool_array())


def induced_edge_count(h: Hypergraph, s: VertexSet) -> int:
    """Count edges of h with all k vertices inside s."""
    return int(np.count_nonzero(_inside(h, s)))


def induced_edges(h: Hypergraph, s: VertexSet) -> tuple[int, ...]:
    """Ids of edges with all vertices inside s, ascending."""
    return tuple(np.flatnonzero(_inside(h, s)).tolist())


def delta_j(h: Hypergraph, j: int) -> int:
    """Largest number of edges sharing some j common vertices."""
    return int(_codegrees(h, j).max(initial=0))


def sample_vp(h: Hypergraph, p: float, rng: np.random.Generator) -> VertexSet:
    """Include each vertex independently with probability p: rng.p_keep on
    n raw words, the same words as the one-column rng.p_subset_members draw
    with every vertex free."""
    check_probability(p)
    return VertexSet.from_bool_array(p_keep(rng.bit_generator.random_raw(h.n), p))


def sample_vm(h: Hypergraph, m: int, rng: np.random.Generator) -> VertexSet:
    """Uniform m-subset of the vertices via partial Fisher-Yates (the
    one-sample rng.m_subset_members draw)."""
    check_subset_size(m, h.n)
    return VertexSet.from_bool_array(m_subset_members(rng, h.n, m, 1)[:, 0])

