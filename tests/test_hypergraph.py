import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from uppertail import hypergraph
from uppertail.bounds import exact_mean, exact_variance, moment_report
from uppertail.estimate import conditioned_tail, mc_tail, planted_tail
from uppertail.families import FamilySpec, build, build_ap, build_schur, interval_witness
from uppertail.hypergraph import (
    CapacityError,
    Hypergraph,
    VertexSet,
    delta_j,
    induced_edge_count,
    induced_edges,
    induced_mask,
    membership_table,
    sample_vm,
    sample_vp,
)

TRIANGLE_PAIR = Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])


class TestVertexSet:
    def test_roundtrip_indices(self):
        s = VertexSet(10, (1 << 0) | (1 << 3) | (1 << 9))
        assert s.indices() == (0, 3, 9)
        assert len(s) == 3
        assert (s.bits >> 3) & 1 and not (s.bits >> 4) & 1 and not s.bits >> 10

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

    def test_equality_and_hash(self):
        a = VertexSet.from_bool_array([False, True, False, False, True, False])
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
        assert delta_j(TRIANGLE_PAIR, 1) == 2
        assert delta_j(Hypergraph(3, 4, []), 1) == 0

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


def _relabeled(h: Hypergraph) -> tuple[list[tuple[int, ...]], int]:
    """h's edges on its used vertices renamed 0, 1, ... in order (codegrees
    do not change), and how many vertices are used."""
    used = sorted({v for edge in h.edges for v in edge})
    rank = {v: i for i, v in enumerate(used)}
    return [tuple(rank[v] for v in edge) for edge in h.edges], len(used)


class TestCodegreeKeys:
    """Codegrees count 1-D keys: a bincount at j = 1, ones at j = k, and
    sorted mixed-radix keys in between, which must not wrap for any n."""

    def assert_codegrees(self, h: Hypergraph):
        edges, used = _relabeled(h)
        for j in range(1, h.k + 1):
            want = oracles.naive_codegrees(edges, used, j)
            assert h.codegree_sums[j - 1] == sum(c * c for c in want.values()), j
            assert delta_j(h, j) == max(want.values(), default=0), j

    def test_k4_at_three_million_vertices(self):
        n = 3_000_000
        assert (n - 1) * n * n > 2**63  # a j = 3 key in base n would wrap
        top = (n - 3, n - 2, n - 1)
        h = Hypergraph(4, n, [(n - 4, *top), (n - 5, *top), (0, *top), (0, 1, 2, n - 1), (0, 1, n - 2, n - 1)])
        self.assert_codegrees(h)
        assert [delta_j(h, j) for j in (1, 2, 3, 4)] == [5, 4, 3, 1]

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_sparse_graphs_at_any_n(self, data):
        k = data.draw(st.integers(min_value=1, max_value=6))
        n = data.draw(st.sampled_from([k, 9, 3_000_000, 2**31 + 5, 2**62, 2**63 - 1, 2**70]))
        top = min(n, 2**63 - 1)
        pool = sorted({v for v in (0, 1, 2, 3, 4, 5, top // 2, top - 4, top - 3, top - 2, top - 1) if 0 <= v < top})
        edge = st.lists(st.sampled_from(pool), min_size=k, max_size=k, unique=True)
        h = Hypergraph(k, n, data.draw(st.lists(edge, max_size=14)))
        self.assert_codegrees(h)

    @pytest.mark.parametrize("n, k, j", [(1000, 3, 2), (300, 4, 2), (300, 4, 3)])
    def test_keys_fill_one_array(self, n, k, j):
        """The keys are the one full-length array a call allocates (one per
        digit column was alive before, two at AP(1000,3) and j = 2), and they
        are the base-n numbers of each column set's j-sets, column set by
        column set."""
        h = build_ap(n, k)
        tracemalloc.start()
        try:
            keys = hypergraph._set_keys(h, j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * keys.nbytes
        combos = list(combinations(range(k), j))
        want = np.concatenate(
            [sum(h.edge_array[:, col] * n ** (j - 1 - c) for c, col in enumerate(cols)) for cols in combos]
        )
        assert np.array_equal(keys, want)

    @pytest.mark.parametrize("n, k, j", [(1000, 3, 2), (300, 4, 2), (300, 4, 3)])
    def test_runs_peak_at_the_keys_and_one_mask(self, n, k, j):
        """Counting the runs of the sorted keys adds one bool mask beside them,
        and the run starts, turned into lengths in place, come after the keys
        are freed: no int64 array beside the keys (the peak was 2.8 times the
        keys at AP(2000,3) and j = 2 with three of them)."""
        h = build_ap(n, k)
        total = h.num_edges * math.comb(k, j)
        tracemalloc.start()
        try:
            runs = hypergraph._codegrees(h, j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * 8 * total
        _, want = np.unique(hypergraph._set_keys(h, j), return_counts=True)
        assert np.array_equal(runs, want)

    def test_codegrees_do_not_lexsort(self, monkeypatch):
        h = build_ap(40, 4)
        want = (h.codegree_sums, [delta_j(h, j) for j in range(1, 5)])

        def refuse(rows):
            raise AssertionError("lexsorted")

        monkeypatch.setattr(hypergraph, "_lex_runs", refuse)
        fresh = build_ap(40, 4)
        assert (fresh.codegree_sums, [delta_j(fresh, j) for j in range(1, 5)]) == want


# (k, n, rows, bad): inputs that fail the one-pass order check, and a bad edge
# that, inserted anywhere, must raise the oracle's ValueError.
FALLBACK_CASES = {
    "last_two_rows_swapped": (3, 6, [(0, 1, 2), (0, 2, 4), (2, 3, 4), (1, 3, 5)], (1, 3, 6)),
    "equal_adjacent_rows": (3, 6, [(0, 1, 2), (1, 2, 3), (1, 2, 3), (3, 4, 5)], (3, 3, 5)),
    "row_unsorted_inside": (3, 6, [(0, 1, 2), (1, 4, 3), (3, 4, 5)], (4, 1, 4)),
    "k_is_one": (1, 4, [(0,), (3,), (1,), (3,)], (-1,)),
    "one_row_unsorted": (3, 6, [(2, 0, 1)], (2, 0, 2)),
}
# Inputs that pass it: kept as they are, with no sort.
CANONICAL_CASES = {
    "no_rows": (3, 6, []),
    "one_row": (3, 6, [(0, 2, 5)]),
    "k_is_one": (1, 4, [(0,), (1,), (3,)]),
    "column_order": (3, 7, [(0, 1, 6), (0, 2, 3), (0, 5, 6), (1, 2, 3), (1, 2, 4)]),
    "ap": (3, 9, list(build_ap(9, 3).edges)),
}


class TestCanonicalCheck:
    @pytest.fixture
    def sorts(self, monkeypatch):
        """The list of row counts that went through the lexicographic sort."""
        calls = []
        real = hypergraph._lex_runs

        def spy(rows):
            calls.append(len(rows))
            return real(rows)

        monkeypatch.setattr(hypergraph, "_lex_runs", spy)
        return calls

    @staticmethod
    def inputs(k, rows):
        return rows, np.array(rows, dtype=np.int32).reshape(-1, k)

    @pytest.mark.parametrize("case", FALLBACK_CASES)
    def test_fallback_sorts_like_the_oracle(self, case, sorts):
        k, n, rows, bad = FALLBACK_CASES[case]
        want = oracles.canonical_edges(k, n, rows)
        for edges in self.inputs(k, rows):
            h = Hypergraph(k, n, edges)
            assert h.edges == want
            assert np.array_equal(h.edge_array, np.array(want, dtype=np.int64).reshape(-1, k))
        assert sorts == [len(rows)] * 2
        for at in range(len(rows) + 1):
            broken = rows[:at] + [bad] + rows[at:]
            with pytest.raises(ValueError) as oracle:
                oracles.canonical_edges(k, n, broken)
            for edges in self.inputs(k, broken):
                with pytest.raises(ValueError) as got:
                    Hypergraph(k, n, edges)
                assert str(got.value) == str(oracle.value)

    @pytest.mark.parametrize("case", CANONICAL_CASES)
    def test_canonical_input_is_not_sorted(self, case, sorts):
        k, n, rows = CANONICAL_CASES[case]
        for edges in self.inputs(k, rows):
            h = Hypergraph(k, n, edges)
            assert h.edges == tuple(rows) == oracles.canonical_edges(k, n, rows)
            assert h.edge_array.dtype == np.int64 and h.edge_array.flags.c_contiguous
        assert sorts == []

    def test_out_of_range_canonical_rows_are_refused(self):
        for rows in ([(0, 1, 6)], [(-1, 0, 1), (0, 1, 2)], [(0, 1, 2), (3, 4, 9)]):
            with pytest.raises(ValueError, match=r"leaves range\(6\)"):
                Hypergraph(3, 6, np.array(rows))

    def test_copies_a_canonical_array(self):
        arr = np.array([[0, 1, 2], [1, 2, 3]])
        h = Hypergraph(3, 5, arr)
        arr[1, 2] = 4
        assert h.edges == ((0, 1, 2), (1, 2, 3))
        assert not np.shares_memory(h.edge_array, arr)
        fortran = np.asfortranarray(np.array([[0, 1, 2], [1, 2, 3]]))
        assert Hypergraph(3, 5, fortran).edge_array.flags.c_contiguous


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
        planted_tail(h, p, mu + 2, 256, seed=1, forced=witness.subset)
        moment_report(h, p)
        ids = induced_edges(h, witness.subset)
        assert len(ids) == induced_edge_count(h, witness.subset) > 0
        assert not built(h, "edge_masks")
        assert not built(h, "incidence")
        assert not built(h, "edges")


class TestInducedEdges:
    def test_count_matches_ids(self):
        s = VertexSet(5, 0b01111)
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

    @pytest.mark.parametrize("n", [0, 1, 5, 9])
    def test_membership_table_rows_are_the_subset_codes(self, n):
        member = membership_table(n)
        assert member.shape == (1 << n, n) and member.dtype == bool
        h = build_ap(n, 3)
        for code in range(1 << n):
            s = VertexSet(n, code)
            assert np.array_equal(member[code], s.to_bool_array())
        # induced_mask over the whole table gives every code's induced edges.
        inside = induced_mask(h, member)
        for code in range(1 << n):
            assert tuple(np.flatnonzero(inside[code]).tolist()) == induced_edges(h, VertexSet(n, code))

    def test_membership_table_refuses_past_its_budget(self):
        """The int64 (2^n, n) temporary is 8 MiB at the budget of 16 vertices;
        17 is refused before any array exists."""
        assert hypergraph.MEMBERSHIP_VERTEX_BUDGET == 16
        assert membership_table(16).shape == (1 << 16, 16)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="17 vertices exceed membership budget 16"):
                membership_table(17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


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
        for p in (1.5, -0.5, math.nan):
            with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
                sample_vp(TRIANGLE_PAIR, p, rng)
        with pytest.raises(ValueError):
            sample_vm(TRIANGLE_PAIR, 6, rng)


# Counts that are not nonnegative integers, each refused by name.  Hypergraph(3,
# 10.5, []) was accepted (and printed n=10.5); the other floats raised TypeError
# from deeper in.
NON_INTEGER_COUNTS = {
    "vertexset-n": (lambda: VertexSet(10.5), "n", "10.5"),
    "hypergraph-n": (lambda: Hypergraph(3, 10.5, []), "n", "10.5"),
    "hypergraph-k": (lambda: Hypergraph(3.0, 10, []), "k", "3.0"),
    "sample_vm-m": (lambda: sample_vm(TRIANGLE_PAIR, 2.5, np.random.default_rng(0)), "m", "2.5"),
    "vertexset-negative-n": (lambda: VertexSet(-1), "n", "-1"),
}


class TestCounts:
    @pytest.mark.parametrize("case", NON_INTEGER_COUNTS)
    def test_refused_by_name(self, case):
        make, name, shown = NON_INTEGER_COUNTS[case]
        with pytest.raises(ValueError, match=f"^{name} must be a nonnegative integer, not {shown}$"):
            make()

    def test_numpy_ints_pass(self):
        h = Hypergraph(np.int64(3), np.int32(5), [(0, 1, 2)])
        assert h.num_edges == 1 and VertexSet(np.int64(4), 0b1001).indices() == (0, 3)
        assert len(sample_vm(h, np.int64(2), np.random.default_rng(0))) == 2

