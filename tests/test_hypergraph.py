from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from uppertail.bounds import exact_mean, exact_variance, moment_report
from uppertail.estimate import conditioned_tail, mc_tail, planted_tail
from uppertail.families import FamilySpec, build, build_ap, build_schur, interval_witness
from uppertail.hypergraph import (
    Hypergraph,
    VertexSet,
    delta_j,
    induced_edge_count,
    induced_edges,
    max_degree,
    sample_vm,
    sample_vp,
)

TRIANGLE_PAIR = Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])


class TestVertexSet:
    def test_roundtrip_indices(self):
        s = VertexSet.from_indices(10, [0, 3, 9])
        assert s.indices() == (0, 3, 9)
        assert len(s) == 3
        assert 3 in s and 4 not in s and 10 not in s

    def test_bool_array_roundtrip(self):
        mask = np.array([True, False, False, True, True, False, False, False, True])
        s = VertexSet.from_bool_array(mask)
        assert s.indices() == (0, 3, 4, 8)
        assert np.array_equal(s.to_bool_array(), mask)

    def test_empty(self):
        s = VertexSet(4)
        assert len(s) == 0
        assert s.indices() == ()

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            VertexSet(3, 1 << 3)
        with pytest.raises(ValueError):
            VertexSet.from_indices(3, [3])

    def test_equality_and_hash(self):
        a = VertexSet.from_indices(6, [1, 4])
        b = VertexSet(6, (1 << 1) | (1 << 4))
        assert a == b and hash(a) == hash(b)
        assert a != VertexSet(7, b.bits)


class TestHypergraph:
    def test_canonicalizes_edges(self):
        h = Hypergraph(3, 5, [(2, 1, 0), (0, 1, 2), (4, 3, 2)])
        assert h.edges == ((0, 1, 2), (2, 3, 4))
        assert h.num_edges == 2
        assert h.edge_masks == (0b00111, 0b11100)

    def test_incidence_lists(self):
        assert TRIANGLE_PAIR.incidence == ((0,), (0,), (0, 1), (1,), (1,))

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 5, [(0, 1)])
        with pytest.raises(ValueError):
            Hypergraph(3, 5, [(0, 1, 1)])
        with pytest.raises(ValueError):
            Hypergraph(3, 5, [(0, 1, 5)])
        with pytest.raises(ValueError):
            Hypergraph(0, 5, [])

    def test_degree_helpers(self):
        assert max_degree(TRIANGLE_PAIR) == 2
        assert max_degree(Hypergraph(3, 4, [])) == 0

    def test_delta_j(self):
        h = Hypergraph(3, 6, [(0, 1, 2), (0, 1, 3), (0, 4, 5)])
        assert delta_j(h, 1) == 3
        assert delta_j(h, 2) == 2
        assert delta_j(h, 3) == 1
        with pytest.raises(ValueError):
            delta_j(h, 4)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_codegrees_match_brute_force(self, data):
        k = data.draw(st.integers(min_value=1, max_value=4))
        n = data.draw(st.integers(min_value=k, max_value=9))
        pool = list(combinations(range(n), k))
        edges = sorted(data.draw(st.sets(st.sampled_from(pool), max_size=min(len(pool), 30))))
        h = Hypergraph(k, n, edges)
        for j in range(1, k + 1):
            want = oracles.naive_codegrees(edges, n, j)
            assert h.codegree_sums[j - 1] == sum(c * c for c in want.values())
            assert delta_j(h, j) == max(want.values(), default=0)

    def test_delta_j_families_brute_force(self):
        for h in (build_ap(14, 3), build_schur(14), build_ap(12, 4)):
            edges = [tuple(e) for e in h.edges]
            for j in range(1, h.k + 1):
                assert delta_j(h, j) == max(oracles.naive_codegrees(edges, h.n, j).values())


def built(h: Hypergraph, view: str) -> bool:
    """Whether a derived view has been materialised (reads the slot without building it)."""
    try:
        object.__getattribute__(h, view)
    except AttributeError:
        return False
    return True


class TestEdgeArrayStore:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_array_build_matches_tuple_oracle(self, data):
        k = data.draw(st.integers(min_value=1, max_value=5))
        n = data.draw(st.integers(min_value=0, max_value=16))
        edges = []
        if n >= k:
            rows = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
            edges = data.draw(st.lists(rows, max_size=40))
            if edges:
                edges += data.draw(st.lists(st.sampled_from(edges), max_size=10))
                edges = data.draw(st.permutations(edges))
        want = oracles.canonical_edges(k, n, edges)
        from_array = Hypergraph(k, n, np.array(edges, dtype=np.int32).reshape(-1, k))
        from_lists = Hypergraph(k, n, edges)
        for h in (from_array, from_lists):
            assert h.edges == want
            assert h.num_edges == len(want)
            assert h.edge_masks == tuple(oracles.edge_bitmasks(list(want)))
            assert h.incidence == oracles.incidence_lists(n, want)
        assert from_array == from_lists and hash(from_array) == hash(from_lists)
        assert from_array.edge_array.dtype == np.int64 and not from_array.edge_array.flags.writeable

    def test_views_are_python_ints(self):
        h = Hypergraph(3, 70, np.array([[69, 0, 35], [1, 2, 3]]))
        assert h.edges == ((0, 35, 69), (1, 2, 3))
        assert h.edge_masks == (1 | 1 << 35 | 1 << 69, 0b1110)
        assert all(type(v) is int for edge in h.edges for v in edge)
        assert all(type(m) is int for m in Hypergraph(3, 5, np.array([[0, 1, 2]])).edge_masks)
        assert all(type(i) is int for ids in h.incidence for i in ids)

    def test_views_are_built_once(self):
        h = build_ap(20, 3)
        assert not built(h, "edge_masks")
        masks = h.edge_masks
        assert built(h, "edge_masks") and h.edge_masks is masks

    def test_rejects_bad_arrays(self):
        for bad in (
            np.array([[0, 1, 1]]),
            np.array([[0, 1, 5]]),
            np.array([[-1, 1, 2]]),
            np.array([[0, 1]]),
            np.array([0, 1, 2]),
            np.array([[0.0, 1.0, 2.0]]),
        ):
            with pytest.raises(ValueError):
                Hypergraph(3, 5, bad)

    def test_does_not_alias_the_input(self):
        arr = np.array([[2, 1, 0]])
        h = Hypergraph(3, 5, arr)
        arr[0, 0] = 4
        assert h.edges == ((0, 1, 2),)

    def test_variance_matches_the_counter_formula_bit_for_bit(self):
        h = build_ap(200, 3)
        edges = list(h.edges)
        for i in range(21):
            p = i / 20
            assert exact_variance(h, p) == oracles.codegree_variance(edges, 3, p)

    def test_large_n_paths_never_build_masks_or_incidence(self):
        spec = FamilySpec("ap", 300)
        h = build(spec)
        p = 0.05
        mu = exact_mean(h, p)
        mc_tail(h, p, mu + 2, 256, seed=1)
        conditioned_tail(h, p, mu + 2, 256, seed=1)
        witness = interval_witness(spec, mu + 2, h)
        planted_tail(h, p, mu + 2, 256, seed=1, witness=witness)
        moment_report(h, p)
        ids = induced_edges(h, witness.subset)
        assert len(ids) == induced_edge_count(h, witness.subset) > 0
        assert not built(h, "edge_masks")
        assert not built(h, "incidence")
        assert not built(h, "edges")


class TestInducedEdges:
    def test_count_matches_ids(self):
        s = VertexSet.from_indices(5, [0, 1, 2, 3])
        assert induced_edges(TRIANGLE_PAIR, s) == (0,)
        assert induced_edge_count(TRIANGLE_PAIR, s) == 1

    def test_full_and_empty(self):
        full = VertexSet(5, (1 << 5) - 1)
        assert induced_edge_count(TRIANGLE_PAIR, full) == 2
        assert induced_edge_count(TRIANGLE_PAIR, VertexSet(5)) == 0

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            induced_edge_count(TRIANGLE_PAIR, VertexSet(4))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_count_is_the_number_of_ids(self, data):
        n = data.draw(st.integers(min_value=0, max_value=24))
        h = build_ap(n, data.draw(st.integers(min_value=2, max_value=4)))
        s = VertexSet(n, data.draw(st.integers(min_value=0, max_value=(1 << n) - 1)))
        assert induced_edge_count(h, s) == len(induced_edges(h, s))

    @given(st.integers(min_value=0, max_value=(1 << 7) - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_membership(self, bits):
        h = Hypergraph(3, 7, [(0, 1, 2), (1, 2, 3), (2, 4, 6), (3, 5, 6)])
        s = VertexSet(7, bits)
        expected = sum(
            1 for e in h.edges if all((bits >> v) & 1 for v in e)
        )
        assert induced_edge_count(h, s) == expected
        assert len(induced_edges(h, s)) == expected


class TestSampling:
    def test_vp_bounds_and_determinism(self):
        a = sample_vp(TRIANGLE_PAIR, 0.5, np.random.default_rng(7))
        b = sample_vp(TRIANGLE_PAIR, 0.5, np.random.default_rng(7))
        assert a == b
        assert sample_vp(TRIANGLE_PAIR, 0.0, np.random.default_rng(0)).bits == 0
        assert len(sample_vp(TRIANGLE_PAIR, 1.0, np.random.default_rng(0))) == 5

    def test_vm_size_exact(self):
        rng = np.random.default_rng(3)
        for m in range(6):
            assert len(sample_vm(TRIANGLE_PAIR, m, rng)) == m

    def test_vm_uniformity(self):
        # Every 2-subset of 4 vertices should appear at roughly equal rates.
        h = Hypergraph(3, 4, [(0, 1, 2)])
        rng = np.random.default_rng(11)
        counts: dict[int, int] = {}
        runs = 6000
        for _ in range(runs):
            s = sample_vm(h, 2, rng)
            counts[s.bits] = counts.get(s.bits, 0) + 1
        assert len(counts) == 6
        expected = runs / 6
        assert all(abs(c - expected) < 5 * expected**0.5 for c in counts.values())

    def test_rejects_invalid(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_vp(TRIANGLE_PAIR, 1.5, rng)
        with pytest.raises(ValueError):
            sample_vm(TRIANGLE_PAIR, 6, rng)

