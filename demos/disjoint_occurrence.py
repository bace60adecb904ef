"""Disjoint occurrence of events on independent coordinates.

Two events occur disjointly when they hold for reasons certified by disjoint
coordinate sets.  The script builds the box product of two threshold events,
computes the exact probabilities behind the BK inequality
Pr(box(A, B)) <= Pr(A) Pr(B) under several product measures, and ties star
matchings to disjoint occurrence: M_r >= y forces y degree events to occur
disjointly, so M_r <= Z, the number of degree events held with disjoint
certificates.
"""

import math

from uppertail.decompose import mr_exact
from uppertail.disjointness import (
    EventTable,
    box,
    degree_event,
    degree_events,
    event_probabilities,
    z_disjoint,
)
from uppertail.families import FamilySpec, build
from uppertail.hypergraph import VertexSet


def popcount_event(m: int, c: int) -> EventTable:
    return EventTable.from_indicator(m, lambda w: bin(w).count("1") >= c)


def main() -> None:
    m = 8
    a = popcount_event(m, 3)
    b = EventTable.from_indicator(m, lambda w: (w & 0b111) == 0b111)
    ab = box(a, b)
    print(f"{m} independent coordinates")
    print(f"A = 'at least 3 ones'          |A| = {a.count()}")
    print(f"B = 'coordinates 0-2 all one'  |B| = {b.count()}")
    print(f"box(A, B)                      |.| = {ab.count()}")

    for probs in ([0.5] * m, [0.2] * m, [0.1 + 0.08 * i for i in range(m)]):
        p_box, p_a, p_b = event_probabilities([ab, a, b], probs)
        print(f"  p={probs[0]:.2f}{'...' if len(set(probs)) > 1 else '   '}  "
              f"Pr(box)={p_box:.5f} <= Pr(A)Pr(B)={p_a * p_b:.5f}  "
              f"ok={p_box <= p_a * p_b + 1e-12}")

    omega = 0b00111011
    z = z_disjoint([a, b], omega)
    print(f"\nat outcome {omega:08b}: {z} of the two events hold with "
          f"disjoint certificates")

    h = build(FamilySpec("ap", 10, 3))
    s = VertexSet(h.n, (1 << h.n) - 1)
    r = 2.0
    events = degree_events(h, math.ceil(r))
    m_r = mr_exact(h, s, r)
    z = z_disjoint(events, s.bits, max_events=len(events))
    print(f"\nap(n=10, k=3), full vertex set, r={r}:")
    print(f"  star matching M_r = {m_r}, disjointly-held degree events "
          f"Z = {z}, M_r <= Z holds: {m_r <= z}")
    ev = degree_event(h, 4, 2)
    print(f"  degree event 'vertex 4 keeps >= 2 edges' holds on "
          f"{ev.count()} of {1 << h.n} outcomes, "
          f"probability {event_probabilities([ev], [0.3] * h.n)[0]:.5f} at p=0.3")


if __name__ == "__main__":
    main()
