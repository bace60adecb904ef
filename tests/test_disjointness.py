import math
import random
import tracemalloc

import numpy as np
import pytest

import oracles
from uppertail import disjointness
from uppertail.disjointness import (
    BOX_COORD_BUDGET,
    EVENT_COORD_BUDGET,
    Z_EVENT_BUDGET,
    EventTable,
    box,
    degree_event,
    degree_events,
    event_probabilities,
    z_disjoint,
)
from uppertail.decompose import mr_exact
from uppertail.families import build_ap, build_ell_sum, build_schur
from uppertail.hypergraph import CapacityError, VertexSet, delta_j, sample_vp


def _random_table(m: int, rng: random.Random, density: float = 0.5) -> EventTable:
    table = 0
    for w in range(1 << m):
        if rng.random() < density:
            table |= 1 << w
    return EventTable(m, table)


def _outcomes(e: EventTable) -> set[int]:
    return {w for w in range(1 << e.m) if (e.table >> w) & 1}


def _z_at(h, s: VertexSet, r: float) -> int:
    """Z over the degree events of ceil(r) edges at omega = S."""
    events = degree_events(h, math.ceil(r))
    return z_disjoint(events, s.bits, max_events=len(events))


class TestEventTable:
    def test_from_indicator(self):
        e = EventTable.from_indicator(3, lambda w: bin(w).count("1") >= 2)
        assert e.count() == 4
        assert (e.table >> 0b011) & 1 and not (e.table >> 0b001) & 1

    def test_empty_full(self):
        assert EventTable.empty(3).count() == 0
        assert EventTable.full(3).count() == 8

    def test_bool_array(self):
        e = EventTable(2, 0b1010)
        assert list(e.to_bool_array()) == [False, True, False, True]

    def test_validation(self):
        with pytest.raises(CapacityError):
            EventTable(21, 0)
        with pytest.raises(ValueError):
            EventTable(2, 1 << 16)

    def test_budget_checked_before_any_table(self):
        def never(omega):
            raise AssertionError(f"indicator called at {omega}")

        with pytest.raises(CapacityError):
            EventTable.from_indicator(EVENT_COORD_BUDGET + 1, never)
        # full(26) would build a 2^26-bit (8 MB) int before the constructor's check.
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                EventTable.full(26)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestBox:
    def test_spec_single_coordinate_pair(self):
        # {w0=1} box {w1=1} at m=2 is exactly the all-ones outcome.
        a = EventTable.from_indicator(2, lambda w: bool(w & 1))
        b = EventTable.from_indicator(2, lambda w: bool(w & 2))
        assert box(a, b) == EventTable.from_indicator(2, lambda w: w == 3)

    def test_box_with_full_is_identity(self):
        rng = random.Random(0)
        for m in (2, 3, 4):
            a = _random_table(m, rng)
            assert box(a, EventTable.full(m)) == a
            assert box(EventTable.full(m), a) == a

    def test_box_with_empty_is_empty(self):
        a = _random_table(3, random.Random(1))
        assert box(a, EventTable.empty(3)) == EventTable.empty(3)

    def test_single_coordinate_self_box_is_empty(self):
        for m in (1, 2, 4):
            for i in range(m):
                a = EventTable.from_indicator(m, lambda w, i=i: bool((w >> i) & 1))
                assert box(a, a) == EventTable.empty(m)

    def test_matches_naive_random(self):
        rng = random.Random(2)
        for m in (2, 3, 4):
            for _ in range(6):
                a = _random_table(m, rng, density=rng.choice([0.3, 0.6, 0.9]))
                b = _random_table(m, rng, density=rng.choice([0.3, 0.6, 0.9]))
                got = box(a, b)
                want = oracles.naive_box(_outcomes(a), _outcomes(b), m)
                assert _outcomes(got) == want

    def test_universal_tables_match_cylinder_forces(self):
        # Every K at m <= 4: bit omega of table K is set iff every outcome
        # agreeing with omega on K lies in the event.
        rng = random.Random(25)
        for m in range(5):
            events = [EventTable.empty(m), EventTable.full(m)]
            events += [_random_table(m, rng, density) for density in (0.3, 0.6, 0.9) for _ in range(3)]
            for event in events:
                tables = disjointness._universal_tables(event)
                assert len(tables) == 1 << m
                outcomes = _outcomes(event)
                for k, table in enumerate(tables):
                    for omega in range(1 << m):
                        want = oracles.cylinder_forces(omega, k, outcomes, m)
                        assert (table >> omega) & 1 == want, (m, k, omega)
                    assert table >> (1 << m) == 0

    def test_commutes_and_contained(self):
        rng = random.Random(3)
        for _ in range(15):
            a = _random_table(5, rng)
            b = _random_table(5, rng)
            ab = box(a, b)
            assert ab == box(b, a)
            assert ab.table & ~(a.table & b.table) == 0

    def test_monotone(self):
        rng = random.Random(4)
        for _ in range(10):
            small = _random_table(4, rng, density=0.3)
            grown = EventTable(4, small.table | _random_table(4, rng, 0.3).table)
            other = _random_table(4, rng)
            assert box(small, other).table & ~box(grown, other).table == 0

    def test_budget(self):
        with pytest.raises(CapacityError):
            box(EventTable.empty(15), EventTable.empty(15))


class TestZDisjoint:
    def test_matches_naive(self):
        rng = random.Random(5)
        m = 4
        for _ in range(8):
            events = [_random_table(m, rng, 0.7) for _ in range(3)]
            for omega in (0, 5, 15, 9):
                got = z_disjoint(events, omega)
                want = oracles.naive_z_disjoint(
                    [_outcomes(e) for e in events], omega, m
                )
                assert got == want

    def test_matches_naive_at_every_size(self):
        # m = 0..8 coordinates and 1..Z_EVENT_BUDGET events, the full and the
        # empty event among them; every omega up to m = 4, seeded ones above.
        rng = random.Random(23)
        for m in range(9):
            full, empty = EventTable.full(m), EventTable.empty(m)
            for count in range(1, Z_EVENT_BUDGET + 1):
                events = [_random_table(m, rng, rng.choice((0.5, 0.8, 0.95))) for _ in range(count)]
                events[rng.randrange(count)] = full
                if count > 1:
                    events[rng.randrange(count)] = empty
                outcomes = [_outcomes(e) for e in events]
                omegas = range(1 << m) if m <= 4 else rng.sample(range(1 << m), 2)
                for omega in omegas:
                    assert z_disjoint(events, omega) == oracles.naive_z_disjoint(outcomes, omega, m)

    def test_minimal_certificates_match_naive_in_order(self):
        rng = random.Random(24)
        for m in range(7):
            for _ in range(6):
                event = _random_table(m, rng, rng.choice((0.3, 0.7, 0.95)))
                for omega in rng.sample(range(1 << m), min(4, 1 << m)):
                    got = disjointness._minimal_certificates(event, omega)
                    assert got == tuple(oracles.naive_minimal_certificates(_outcomes(event), omega, m))

    def test_pair_consistency_with_box(self):
        rng = random.Random(6)
        m = 4
        for _ in range(10):
            a = _random_table(m, rng, 0.6)
            b = _random_table(m, rng, 0.6)
            boxed = box(a, b)
            for omega in range(1 << m):
                assert (z_disjoint([a, b], omega) >= 2) == bool((boxed.table >> omega) & 1)

    def test_empty_and_budget(self):
        assert z_disjoint([], 0) == 0
        events = [EventTable.full(3)] * 4
        with pytest.raises(CapacityError):
            z_disjoint(events, 0, max_events=3)


class TestProbability:
    def test_uniform_counts(self):
        e = EventTable(3, 0b10110100)
        assert event_probabilities([e], [0.5] * 3)[0] == pytest.approx(
            e.count() / 8.0, rel=1e-15
        )

    def test_matches_naive(self):
        rng = random.Random(7)
        for _ in range(8):
            e = _random_table(4, rng)
            probs = [rng.uniform(0.05, 0.95) for _ in range(4)]
            assert event_probabilities([e], probs)[0] == pytest.approx(
                oracles.naive_event_probability(_outcomes(e), probs), rel=1e-12
            )

    def test_batch_equals_one_event_at_a_time(self):
        rng = random.Random(9)
        for m in (0, 1, 4, 8):
            events = [_random_table(m, rng) for _ in range(12)] + [EventTable.full(m)]
            probs = [rng.uniform(0.05, 0.95) for _ in range(m)]
            batch = event_probabilities(events, probs)
            assert len(batch) == len(events)
            for event, value in zip(events, batch):
                assert value == event_probabilities([event], probs)[0]
        assert event_probabilities([], [0.5]) == []

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            event_probabilities([EventTable.full(2), EventTable.full(3)], [0.5] * 2)
        with pytest.raises(ValueError):
            event_probabilities([EventTable.full(3)], [0.5, 0.5])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            event_probabilities([EventTable.full(3)], [0.5, float("nan"), 0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            event_probabilities([EventTable.full(3)], [0.5, 0.5])
        with pytest.raises(ValueError):
            event_probabilities([EventTable.full(2)], [0.5, 1.5])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            event_probabilities([EventTable.full(3)], [float("nan")] * 3)


class TestBK:
    def test_random_pairs_hold(self):
        rng = random.Random(8)
        for _ in range(20):
            a = _random_table(6, rng, 0.5)
            b = _random_table(6, rng, 0.5)
            probs = [rng.uniform(0.1, 0.9) for _ in range(6)]
            p_box, p_a, p_b = event_probabilities([box(a, b), a, b], probs)
            assert p_box <= p_a * p_b + 1e-12

    def test_equality_for_coordinate_disjoint_events(self):
        a = EventTable.from_indicator(4, lambda w: bool(w & 0b0011 == 0b0011))
        b = EventTable.from_indicator(4, lambda w: bool(w & 0b1100 == 0b1100))
        probs = [0.3, 0.7, 0.4, 0.9]
        p_box, p_a, p_b = event_probabilities([box(a, b), a, b], probs)
        assert p_box == pytest.approx(p_a * p_b, rel=1e-12)


class TestHypergraphEvents:
    def test_degree_event_matches_indicator(self):
        h = build_ap(5, 3)
        for v in range(5):
            for c in (1, 2, 3):
                expected = EventTable.from_indicator(
                    5,
                    lambda bits, v=v, c=c: sum(
                        1
                        for i in h.incidence[v]
                        if bits & h.edge_masks[i] == h.edge_masks[i]
                    )
                    >= c,
                )
                assert degree_event(h, v, c) == expected

    @pytest.mark.parametrize("n", [5, 9, 12, 14])
    def test_degree_events_are_exact(self, n):
        for h in (build_ap(n, 3), build_schur(n), build_ell_sum(n, 3)):
            for v in range(n):
                degree = oracles.superset_counts_brute([h.edge_masks[i] for i in h.incidence[v]], n, 0)
                for c in (1, 2, 3, 4):
                    assert degree_event(h, v, c) == EventTable(n, VertexSet.from_bool_array(degree >= c).bits)

    def test_degree_event_refuses_a_vertex_outside_range(self):
        h = build_ap(8, 3)
        for v in (-1, 8):
            with pytest.raises(ValueError, match="outside range"):
                degree_event(h, v, 1)

    @pytest.mark.parametrize("n", [4, 6, 9, 12])
    def test_degree_events_are_the_vertices_with_c_edges(self, n):
        above_max_degree = 0
        for h in (build_ap(n, 3), build_schur(n), build_ell_sum(n, 3)):
            for c in (1, 2, 3, 4):
                events = degree_events(h, c)
                want = tuple(degree_event(h, v, c) for v in range(h.n) if len(h.incidence[v]) >= c)
                assert events == want
                if c > delta_j(h, 1):
                    assert events == ()
                    above_max_degree += 1
        # AP(4,3) and x + y = 3z on 6 have maximum degree 2.
        assert above_max_degree > 0 or n > 6

    @pytest.mark.parametrize("build", [lambda n: build_ap(n, 3), build_schur, lambda n: build_ell_sum(n, 3)])
    def test_degree_events_refuse_past_box_budget(self, build, monkeypatch):
        def unreachable(n):
            raise AssertionError("2^n table built past the budget")

        monkeypatch.setattr(disjointness, "membership_table", unreachable)
        h = build(BOX_COORD_BUDGET + 1)
        for c in (1, 2, 3, 4):
            with pytest.raises(CapacityError):
                degree_events(h, c)

    def test_mr_le_z_on_samples(self):
        rng = np.random.default_rng(9)
        for h in (build_ap(8, 3), build_schur(8)):
            for _ in range(40):
                s = sample_vp(h, 0.6, rng)
                for r in (1.0, 2.0):
                    assert mr_exact(h, s, r) <= _z_at(h, s, r)

    def test_mr_le_z_full_set(self):
        h = build_ap(7, 3)
        s = VertexSet(7, (1 << 7) - 1)
        assert mr_exact(h, s, 2.0) <= _z_at(h, s, 2.0)
