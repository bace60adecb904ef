import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from uppertail.families import (
    FamilySpec,
    Witness,
    build,
    build_ap,
    build_ell_sum,
    build_schur,
    greedy_witness,
    interval_witness,
)
from uppertail.hypergraph import VertexSet, induced_edge_count


class TestBuilders:
    def test_ap_small_frozen(self):
        h = build_ap(5, 3)
        assert h.edges == ((0, 1, 2), (0, 2, 4), (1, 2, 3), (2, 3, 4))

    def test_schur_small_frozen(self):
        h = build_schur(5)
        assert h.edges == ((0, 1, 2), (0, 2, 3), (0, 3, 4), (1, 2, 4))

    def test_ap_matches_oracle(self):
        for n in range(3, 26):
            for k in (3, 4, 5):
                assert build_ap(n, k).edges == tuple(oracles.ap_edges(n, k))

    def test_schur_matches_oracle(self):
        for n in range(1, 30):
            assert build_schur(n).edges == tuple(oracles.schur_edges(n))

    def test_ell_sum_matches_oracle(self):
        for n in range(1, 24):
            for ell in (1, 2, 3, 4):
                assert build_ell_sum(n, ell).edges == tuple(
                    oracles.ell_sum_edges(n, ell)
                )

    def test_array_builders_match_the_loop_builders(self):
        for n in range(61):
            for k in (2, 3, 4, 5):
                want = oracles.canonical_edges(k, n, oracles.loop_ap_edges(n, k))
                assert build_ap(n, k).edges == want, (n, k)
            assert build_schur(n).edges == oracles.canonical_edges(3, n, oracles.loop_schur_edges(n))
            for ell in (1, 2, 3):
                want = oracles.canonical_edges(3, n, oracles.loop_ell_sum_edges(n, ell))
                assert build_ell_sum(n, ell).edges == want, (n, ell)

    def test_ell_sum_for_any_ell_matches_the_loop_builder(self):
        # x + y <= 2n - 1: no ell, however far past int64, may wrap into edges.
        for n in range(31):
            for ell in (1, 2, 3, 2 * n - 1, 2 * n, 2**62, 6148914691236517207, 2**63 - 1,
                        2**64, 10**20):
                if ell >= 1:
                    want = oracles.canonical_edges(3, n, oracles.loop_ell_sum_edges(n, ell))
                    assert build_ell_sum(n, ell).edges == want, (n, ell)

    def test_ell_one_is_schur(self):
        for n in (5, 9, 14):
            assert build_ell_sum(n, 1) == build_schur(n)

    def test_ell_two_is_three_ap(self):
        for n in (5, 9, 14, 21):
            assert build_ell_sum(n, 2) == build_ap(n, 3)

    def test_degenerate_sizes(self):
        assert build_ap(2, 3).num_edges == 0
        assert build_ap(0, 3).num_edges == 0
        assert build_schur(2).num_edges == 0
        assert build_ell_sum(2, 3).num_edges == 0

    def test_build_dispatch(self):
        assert build(FamilySpec("ap", 7, 4)) == build_ap(7, 4)
        assert build(FamilySpec("schur", 7)) == build_schur(7)
        assert build(FamilySpec("ell_sum", 7, ell=3)) == build_ell_sum(7, 3)


class TestFamilySpec:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            FamilySpec("clique", 5)

    def test_rejects_bad_uniformity(self):
        with pytest.raises(ValueError):
            FamilySpec("ap", 5, k=1)
        with pytest.raises(ValueError):
            FamilySpec("schur", 5, k=4)
        with pytest.raises(ValueError):
            FamilySpec("ell_sum", 5, ell=0)


def _prefix_counts(spec, m):
    """Edges of build(spec) inside {1, ..., m}: by enumeration, by the largest
    vertex (what interval_witness reads), and as the family built on m."""
    h = build(spec)
    cut = min(m, spec.n)
    enumerated = sum(1 for e in h.edges if all(v < cut for v in e))
    by_last = int((h.edge_array[:, -1] < cut).sum())
    rebuilt = build(FamilySpec(spec.kind, cut, spec.k, spec.ell)).num_edges
    return enumerated, by_last, rebuilt


class TestPrefixCount:
    @given(
        st.sampled_from(["ap", "schur", "ell_sum"]),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=34),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_enumeration(self, kind, n, m):
        spec = (
            FamilySpec("ap", n, 3)
            if kind == "ap"
            else FamilySpec(kind, n)
            if kind == "schur"
            else FamilySpec("ell_sum", n, ell=2)
        )
        enumerated, by_last, rebuilt = _prefix_counts(spec, m)
        assert by_last == enumerated
        assert rebuilt == enumerated

    def test_ap4_and_ell3(self):
        for spec in (FamilySpec("ap", 19, 4), FamilySpec("ell_sum", 19, ell=3)):
            for m in range(20):
                enumerated, by_last, rebuilt = _prefix_counts(spec, m)
                assert by_last == enumerated
                assert rebuilt == enumerated


class TestWitnesses:
    SPECS = (
        [FamilySpec("ap", n, k) for k in (2, 3, 4) for n in range(61)]
        + [FamilySpec("schur", n) for n in range(61)]
        + [FamilySpec("ell_sum", n, ell=ell) for ell in (1, 2, 3, 5) for n in range(61)]
    )

    def test_interval_witness_minimal_prefix(self):
        # Counting the prefixes m and m - 1 on the built graph checks the
        # witness against the builders.
        for spec in self.SPECS:
            h = build(spec)
            e = h.num_edges
            for x in (0.5, 1.0, 1.0000001, 2.5, 3.0, e / 3, e / 2 + 0.5, e - 1.0, e, e + 0.5):
                if x <= 0:
                    continue
                w = interval_witness(spec, float(x), h)
                if x > e:
                    assert w is None, (spec, x)
                    continue
                m = len(w.subset)
                assert w.subset.bits == (1 << m) - 1
                assert induced_edge_count(h, w.subset) >= x, (spec, x)
                assert induced_edge_count(h, VertexSet(spec.n, (1 << (m - 1)) - 1)) < x, (spec, x)
                assert w.d_used == m / max(math.sqrt(x), 1.0)

    def test_interval_witness_unreachable(self):
        spec = FamilySpec("ap", 6, 3)
        total = build(spec).num_edges
        assert interval_witness(spec, total + 1) is None
        assert interval_witness(spec, float(total)) is not None

    def test_zero_target_is_empty(self):
        w = interval_witness(FamilySpec("schur", 9), 0.0)
        assert w is not None and len(w.subset) == 0 and w.d_used == 0.0

    def test_greedy_witness_achieves_target(self):
        h = build_ap(15, 3)
        for x in (1, 4, 9):
            w = greedy_witness(h, float(x))
            assert w is not None
            assert induced_edge_count(h, w.subset) >= x

    def test_greedy_witness_unreachable(self):
        h = build_ap(5, 3)
        assert greedy_witness(h, h.num_edges + 0.5) is None

    def test_witness_validation(self):
        h = build_ap(10, 3)
        full = VertexSet(10, (1 << 10) - 1)
        with pytest.raises(ValueError):
            Witness(h, full, 0.5, 4.0)  # 10 vertices exceed 0.5 * sqrt(4)
        with pytest.raises(ValueError):
            Witness(h, VertexSet(10, 0), 3.0, 1.0)  # induces no edge
