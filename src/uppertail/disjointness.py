"""Extensional events on {0,1}^m and disjoint-certificate composition.

Outcomes are integers whose bit i is coordinate i; an event is a 2^m-bit
membership table.  A certificate for omega in E is a coordinate set K such
that every outcome agreeing with omega on K lies in E; the disjoint
occurrence of two events asks for certificates on disjoint coordinate sets.
verify's bk suite checks the BK inequality and M_r <= Z with these events.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .hypergraph import CapacityError, Hypergraph, VertexSet, induced_mask, membership_table

__all__ = [
    "EventTable",
    "box",
    "degree_event",
    "degree_events",
    "event_probabilities",
    "z_disjoint",
]

EVENT_COORD_BUDGET = 20
BOX_COORD_BUDGET = 14
Z_EVENT_BUDGET = 8


def _check_coords(m: int) -> None:
    """Refuse a coordinate count before any 2^m table is built."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > EVENT_COORD_BUDGET:
        raise CapacityError(f"{m} coordinates exceed budget {EVENT_COORD_BUDGET}")


class EventTable:
    """Event over m binary coordinates as an extensional 2^m membership table.

    Bit omega of `table` is set iff outcome omega belongs to the event.
    """

    __slots__ = ("m", "table")

    def __init__(self, m: int, table: int):
        _check_coords(m)
        size = 1 << m
        if not 0 <= table < (1 << size):
            raise ValueError("membership table wider than 2^m outcomes")
        self.m = m
        self.table = table

    @classmethod
    def from_indicator(cls, m: int, indicator: Callable[[int], bool]) -> "EventTable":
        _check_coords(m)
        table = 0
        for omega in range(1 << m):
            if indicator(omega):
                table |= 1 << omega
        return cls(m, table)

    @classmethod
    def empty(cls, m: int) -> "EventTable":
        return cls(m, 0)

    @classmethod
    def full(cls, m: int) -> "EventTable":
        _check_coords(m)
        return cls(m, (1 << (1 << m)) - 1)

    def count(self) -> int:
        return self.table.bit_count()

    def to_bool_array(self) -> np.ndarray:
        return VertexSet(1 << self.m, self.table).to_bool_array()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EventTable)
            and self.m == other.m
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.m, self.table))

    def __repr__(self) -> str:
        return f"EventTable(m={self.m}, outcomes={self.count()})"


@lru_cache(maxsize=None)
def _coord_zero_mask(i: int, m: int) -> int:
    """Mask over outcome codes whose coordinate i is 0: 2^i ones, 2^i zeros, repeated."""
    block = (1 << (1 << i)) - 1
    return ((1 << (1 << m)) - 1) // ((1 << (2 << i)) - 1) * block


def _universal_tables(event: EventTable) -> list[int]:
    """tables[K] has bit omega set iff every outcome agreeing with omega on K
    lies in the event.

    Built by doubling over the coordinates.  Before coordinate 0 the list is
    the event alone, the table of K = every coordinate.  Before coordinate i
    it is indexed by K's bits below i, with every coordinate from i up in K;
    step i puts the earlier tables with coordinate i dropped from K (each
    must then hold at both settings of i) in front of the earlier tables.
    """
    m = event.m
    tables = [event.table]
    for i in range(m):
        shift, zero = 1 << i, _coord_zero_mask(i, m)
        tables = [(both := t & (t >> shift) & zero) | (both << shift) for t in tables] + tables
    return tables


def box(a: EventTable, b: EventTable) -> EventTable:
    """Disjoint occurrence: outcomes certifiable for a and b on disjoint K, L.

    Since certificates are monotone in K, it suffices to pair each K with the
    full complement, so the scan is one pass over the 2^m coordinate sets.
    K's complement is full - K, so a's list pairs with b's read backwards.
    Each call builds its tables afresh: at BOX_COORD_BUDGET coordinates one
    list holds 2^m tables of 2^m bits.
    """
    if a.m != b.m:
        raise ValueError("events live on different coordinate counts")
    m = a.m
    if m > BOX_COORD_BUDGET:
        raise CapacityError(f"{m} coordinates exceed box budget {BOX_COORD_BUDGET}")
    ta = _universal_tables(a)
    tb = _universal_tables(b)
    out = 0
    for x, y in zip(ta, reversed(tb)):
        out |= x & y
    return EventTable(m, out)


def _minimal_certificates(event: EventTable, omega: int) -> tuple[int, ...]:
    """The minimal certificates K of omega for the event, in ascending K.

    Bit K of `fails` ends up set iff some outside outcome agrees with omega on
    K.  It starts as the outside's table; coordinate i then turns each bit's
    y_i into K_i: K without i takes either half, K with i the half where
    y_i = omega_i.  K is minimal iff no certificate lies one coordinate below.
    """
    m = event.m
    outcomes_full = (1 << (1 << m)) - 1
    fails = outcomes_full ^ event.table
    for i in range(m):
        shift, zero = 1 << i, _coord_zero_mask(i, m)
        low, high = fails & zero, (fails >> shift) & zero
        fails = low | high | ((high if (omega >> i) & 1 else low) << shift)
    cert = outcomes_full ^ fails
    grown = 0
    for i in range(m):
        grown |= (cert & _coord_zero_mask(i, m)) << (1 << i)
    return VertexSet(1 << m, cert & ~grown).indices()


def z_disjoint(
    events: Sequence[EventTable], omega: int, max_events: int = Z_EVENT_BUDGET
) -> int:
    """Maximum number of events holding at omega with pairwise-disjoint
    certificates, via minimal certificates and exhaustive assignment."""
    if not events:
        return 0
    m = events[0].m
    if any(e.m != m for e in events):
        raise ValueError("events live on different coordinate counts")
    if m > BOX_COORD_BUDGET:
        raise CapacityError(f"{m} coordinates exceed budget {BOX_COORD_BUDGET}")
    if len(events) > max_events:
        raise CapacityError(f"{len(events)} events exceed budget {max_events}")
    if not 0 <= omega < (1 << m):
        raise ValueError("outcome outside {0,1}^m")

    certs = sorted((_minimal_certificates(event, omega) for event in events), key=len)
    best = 0

    def dfs(pos: int, used: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if pos == len(certs) or count + (len(certs) - pos) <= best:
            return
        for kmask in certs[pos]:
            if kmask & used == 0:
                dfs(pos + 1, used | kmask, count + 1)
        dfs(pos + 1, used, count)

    dfs(0, 0, 0)
    return best


def _outcome_weights(m: int, probs: Sequence[float]) -> np.ndarray:
    arr = np.asarray(probs, dtype=float)
    if arr.shape != (m,):
        raise ValueError(f"need exactly {m} coordinate probabilities")
    if not np.all((arr >= 0) & (arr <= 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    w = np.array([1.0])
    for i in range(m):
        w = np.concatenate([w * (1.0 - arr[i]), w * arr[i]])
    return w


def event_probabilities(events: Sequence[EventTable], probs: Sequence[float]) -> list[float]:
    """Exact probability of each event under one product measure, whose
    outcome weights are built once."""
    if not events:
        return []
    weights = _outcome_weights(events[0].m, probs)
    return [float(np.dot(event.to_bool_array(), weights)) for event in events]


def _degree_tables(h: Hypergraph, vertices: Sequence[int], c: int) -> tuple[EventTable, ...]:
    """degree_event(h, v, c) for each v, read off one induced-edge mask over
    all 2^n codes: v's degree in each code sums the mask's rows at v's edges,
    whole contiguous rows once the mask is stored edge-major, in the smallest
    dtype that holds v's edge count."""
    if h.n > BOX_COORD_BUDGET:
        raise CapacityError(f"{h.n} vertices exceed budget {BOX_COORD_BUDGET}")
    inside = np.ascontiguousarray(induced_mask(h, membership_table(h.n)).T)
    incident = (list(h.incidence[v]) for v in vertices)
    degrees = (inside[ids].sum(axis=0, dtype=np.min_scalar_type(len(ids))) for ids in incident)
    return tuple(EventTable(h.n, VertexSet.from_bool_array(d >= c).bits) for d in degrees)


def degree_event(h: Hypergraph, v: int, c: int) -> EventTable:
    """Event (over vertex subsets as outcomes) that v has >= c induced edges."""
    if not 0 <= v < h.n:
        raise ValueError(f"vertex {v} outside range({h.n})")
    return _degree_tables(h, [v], c)[0]


def degree_events(h: Hypergraph, c: int) -> tuple[EventTable, ...]:
    """degree_event(h, v, c) of every vertex v with at least c edges, all read
    off one induced-edge mask.  Nothing is cached: a caller that repeats (h, c)
    holds the tuple."""
    return _degree_tables(h, [v for v in range(h.n) if len(h.incidence[v]) >= c], c)
