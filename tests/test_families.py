import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from uppertail import families, hypergraph
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
from uppertail.hypergraph import CapacityError, VertexSet, induced_edge_count


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


class TestEdgeBudget:
    """e(H) in closed form, checked against EDGE_BUDGET before any array exists."""

    @given(st.integers(0, 90), st.integers(2, 8), st.integers(1, 200))
    @settings(max_examples=300, deadline=None)
    def test_closed_form_is_num_edges(self, n, k, ell):
        assert families._ap_edge_count(n, k) == build_ap(n, k).num_edges
        assert families._ell_sum_edge_count(n, ell) == build_ell_sum(n, ell).num_edges

    @staticmethod
    def first_over_budget(entries, start: int = 0) -> int:
        """The least m >= start + 1 whose family's edge array holds more than
        3 * EDGE_BUDGET entries, counted as e * max(k, 3) (entries is
        nondecreasing in m and within the budget at start)."""
        budget = 3 * families.EDGE_BUDGET
        lo, hi = start, start + 1
        while entries(hi) <= budget:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if entries(mid) <= budget else (lo, mid)
        return hi

    @staticmethod
    def refused_before_any_array(spec, edges) -> None:
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"{edges} edges exceed budget"):
                build(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "kind, k, ell",
        [("ap", 3, 1), ("ap", 4, 1), ("ap", 5, 1), ("schur", 3, 1), ("ell_sum", 3, 3)],
    )
    def test_one_over_budget_allocates_nothing(self, kind, k, ell):
        def count(n):
            if kind == "ap":
                return families._ap_edge_count(n, k)
            return families._ell_sum_edge_count(n, 1 if kind == "schur" else ell)

        n = self.first_over_budget(lambda n: count(n) * max(k, 3))
        self.refused_before_any_array(FamilySpec(kind, n, k=k, ell=ell), count(n))

    def test_half_length_progressions_one_over_budget_allocate_nothing(self):
        """AP(2k, k) has k + 3 edges of k vertices: its e * k entries, not its
        edge count, are what the budget must refuse (at the least such k,
        k = 3,546: 3,549 edges holding 96 MiB)."""
        k = self.first_over_budget(lambda k: families._ap_edge_count(2 * k, k) * k, start=2)
        edges = families._ap_edge_count(2 * k, k)
        assert edges == k + 3 < families.EDGE_BUDGET
        self.refused_before_any_array(FamilySpec("ap", 2 * k, k=k), edges)

    def test_budget_boundary(self, monkeypatch):
        """The least EDGE_BUDGET that admits a family is e * max(k, 3) / 3, rounded up."""
        specs = (FamilySpec("ap", 30, 4), FamilySpec("schur", 30), FamilySpec("ell_sum", 30, ell=3))
        for spec, h in [(spec, build(spec)) for spec in specs]:
            least = -(-h.num_edges * max(h.k, 3) // 3)
            monkeypatch.setattr(families, "EDGE_BUDGET", least)
            assert build(spec).num_edges == h.num_edges
            monkeypatch.setattr(families, "EDGE_BUDGET", least - 1)
            with pytest.raises(CapacityError):
                build(spec)


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

    @pytest.mark.parametrize(
        "spec, builder, name",
        [
            (lambda: FamilySpec("ap", 10.5), lambda: build_ap(10.5, 3), "n"),
            (lambda: FamilySpec("ap", 10, k=3.0), lambda: build_ap(10, 3.0), "k"),
            (lambda: FamilySpec("ell_sum", 10, ell=1.5), lambda: build_ell_sum(10, 1.5), "ell"),
            (lambda: FamilySpec("schur", -1), lambda: build_schur(-1), "n"),
        ],
        ids=["n", "k", "ell", "negative-n"],
    )
    def test_counts_must_be_integers(self, spec, builder, name):
        # FamilySpec("ap", 10.5) was accepted, and build_ap(10.5, 3) then raised
        # numpy's float-to-int cast TypeError.
        for make in (spec, builder):
            with pytest.raises(ValueError, match=f"^{name} must be a nonnegative integer, not "):
                make()

    @pytest.mark.parametrize(
        "builder, spec",
        [
            (lambda: build_ap(10, 1), lambda: FamilySpec("ap", 10, k=1)),
            (lambda: build_ell_sum(10, 0), lambda: FamilySpec("ell_sum", 10, ell=0)),
            (lambda: build_schur(-3), lambda: FamilySpec("schur", -3)),
        ],
        ids=["ap-k", "ell_sum-ell", "schur-n"],
    )
    def test_builders_refuse_as_their_spec(self, builder, spec):
        with pytest.raises(ValueError) as want:
            spec()
        with pytest.raises(ValueError) as got:
            builder()
        assert str(got.value) == str(want.value)


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

    def test_interval_witness_refuses_nan(self):
        spec = FamilySpec("ap", 10)
        for h in (None, build(spec)):
            with pytest.raises(ValueError, match="x must not be NaN"):
                interval_witness(spec, math.nan, h)

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

    def test_greedy_witness_refuses_nan(self):
        with pytest.raises(ValueError, match="x must not be NaN"):
            greedy_witness(build_ap(10, 3), math.nan)

    def test_witness_validation(self):
        h = build_ap(10, 3)
        full = VertexSet(10, (1 << 10) - 1)
        with pytest.raises(ValueError):
            Witness(h, full, 0.5, 4.0)  # 10 vertices exceed 0.5 * sqrt(4)
        with pytest.raises(ValueError):
            Witness(h, VertexSet(10, 0), 3.0, 1.0)  # induces no edge
        with pytest.raises(ValueError, match=r"range\(9\) does not match range\(10\)"):
            Witness(h, VertexSet(9, 0), 0.0, 0.0)  # a subset of another ground set
        with pytest.raises(ValueError, match=r"induces \d+ < nan edges"):
            Witness(h, full, 1.0, math.nan)
        with pytest.raises(ValueError, match="d_used must be nonnegative"):
            Witness(h, full, math.nan, 1.0)

    def test_nonpositive_target_accepts_the_empty_set(self):
        # Every set induces at least x <= 0 edges.
        h = build_ap(300, 3)
        for x in (0.0, -1.0, -0.0):
            assert len(Witness(h, VertexSet(300, 0), 0.0, x).subset) == 0
        assert interval_witness(FamilySpec("ap", 300), 0.0, h).d_used == 0.0


def _oracle_rows(k: int, n: int, edges) -> np.ndarray:
    return np.array(oracles.canonical_edges(k, n, edges), dtype=np.int64).reshape(-1, k)


class TestCanonicalRows:
    """The builders hand over canonical int64 rows, which the hypergraph keeps as they are."""

    SIZES = [*range(13), 40, 300]

    @staticmethod
    def assert_rows(h, want: np.ndarray):
        arr = h.edge_array
        assert arr.dtype == np.int64 and arr.shape == want.shape
        assert arr.flags.c_contiguous and not arr.flags.writeable
        assert np.array_equal(arr, want)

    @pytest.mark.parametrize("n", SIZES)
    def test_ap_and_schur_match_the_loop_builders(self, n):
        for k in range(2, 8):
            self.assert_rows(build_ap(n, k), _oracle_rows(k, n, oracles.loop_ap_edges(n, k)))
        self.assert_rows(build_schur(n), _oracle_rows(3, n, oracles.loop_schur_edges(n)))

    @pytest.mark.parametrize("n", SIZES)
    def test_ell_sum_matches_the_loop_builder(self, n):
        for ell in (*range(1, 7), max(2 * n, 1), 2 * n + 7):  # the last two exceed 2n - 1
            want = _oracle_rows(3, n, oracles.loop_ell_sum_edges(n, ell))
            self.assert_rows(build_ell_sum(n, ell), want)

    def test_ap_and_schur_rows_skip_the_sort(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("canonical rows were sorted")

        monkeypatch.setattr(hypergraph, "_lex_runs", refuse)
        for n in (0, 1, 7, 40):
            for h in (build_ap(n, 3), build_ap(n, 5), build_schur(n), build_ell_sum(n, 1), build_ell_sum(n, 2)):
                assert not h.edge_array.flags.writeable
        with pytest.raises(AssertionError, match="sorted"):
            build_ell_sum(40, 3)  # grouped by z, so it goes through the sort

    @pytest.mark.parametrize("build_2000", [lambda: build_ap(2000, 3), lambda: build_schur(2000)],
                             ids=["ap", "schur"])
    def test_build_peaks_below_two_and_a_half_arrays(self, build_2000):
        # The builder's array is adopted, not copied and not sorted: the run
        # temporaries are the rest of the peak.
        tracemalloc.start()
        try:
            h = build_2000()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.num_edges == 999_000
        assert peak <= 2.5 * h.edge_array.nbytes
