import math
import re
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from uppertail import decompose
from uppertail.decompose import (
    CascadeParams,
    Star,
    cascade_prune,
    check_cascade_event,
    degree_prune,
    greedy_star_matching,
    induced_max_degree,
    mr_exact,
    xr_exact,
    xr_or_lower,
)
from uppertail.families import build_ap, build_schur
from uppertail.hypergraph import CapacityError, Hypergraph, VertexSet, induced_edges, sample_vp
from uppertail.rng import stream_generator

AP5 = build_ap(5, 3)
FULL5 = VertexSet(5, (1 << 5) - 1)


def _search_nodes(fn, *args):
    """fn(*args) and the number of calls of decompose's inner dfs it made."""
    nodes = 0

    def count(frame, event, arg):
        nonlocal nodes
        code = frame.f_code
        if event == "call" and code.co_name == "dfs" and code.co_filename == decompose.__file__:
            nodes += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return result, nodes


def _random_cases(n, count, seed, p=0.5):
    rng = np.random.default_rng(seed)
    hs = (build_ap(n, 3), build_schur(n))
    for i in range(count):
        h = hs[i % 2]
        yield h, sample_vp(h, p, rng)


class TestXr:
    def test_all_ap5_edges_share_a_vertex(self):
        # Every 3-AP in [5] contains the middle integer 3, so X_1 = 1, X_4 = 4.
        assert xr_exact(AP5, FULL5, 1.0) == 1
        assert xr_exact(AP5, FULL5, 4.0) == 4
        assert xr_exact(AP5, FULL5, 3.9) == 3

    def test_empty_subset(self):
        assert xr_exact(AP5, VertexSet(5), 2.0) == 0

    def test_matches_oracle_random(self):
        for h, s in _random_cases(9, 40, seed=2):
            ids = induced_edges(h, s)
            sub_edges = [h.edges[i] for i in ids]
            for r in (1.0, 1.5, 2.0, 3.0):
                assert xr_exact(h, s, r) == oracles.naive_xr(sub_edges, r)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_any_uniformity(self, data):
        # The bound divides by k: check it on k = 1..4, edges in any search order.
        k = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(k, 9))
        pool = list(combinations(range(n), k))
        edges = data.draw(st.lists(st.sampled_from(pool), max_size=12, unique=True))
        h = Hypergraph(k, n, edges)
        ids = tuple(data.draw(st.permutations(range(h.num_edges))))
        r = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
        ordered = [h.edges[i] for i in ids]
        got, nodes = _search_nodes(xr_exact, h, ids, r)
        assert got == oracles.naive_xr(ordered, r)
        # The carried bound equals the one recounted at every node, so the
        # search visits exactly the nodes of the recounting search.
        assert (got, nodes) == oracles.xr_search(ordered, r)

    def test_budget_refusal(self):
        h = build_ap(16, 3)
        full = VertexSet(16, (1 << 16) - 1)
        assert h.num_edges > decompose.XR_EDGE_BUDGET
        with pytest.raises(CapacityError):
            xr_exact(h, full, 2.0)

    def test_budget_refusal_on_edge_ids(self):
        # 30 ids: past the budget, the search would run unbounded.
        h = build_ap(12, 3)
        assert h.num_edges == 30 > decompose.XR_EDGE_BUDGET
        with pytest.raises(CapacityError):
            xr_exact(h, tuple(range(h.num_edges)), 2.0)

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.99])
    def test_radius_below_one_is_exactly_zero_past_the_budget(self, r):
        # floor(r) = 0 admits no edge, so X_r = 0 exactly at any edge count.
        h = build_ap(12, 3)
        ids = tuple(range(h.num_edges))
        assert len(ids) == 30 > decompose.XR_EDGE_BUDGET
        assert xr_exact(h, ids, r) == 0
        assert xr_or_lower(h, ids, r) == (0, True)

    def test_or_lower_modes(self):
        exact, flag = xr_or_lower(AP5, FULL5, 2.0)
        assert flag is True and exact == xr_exact(AP5, FULL5, 2.0)
        # Saturated degree cap: whole induced set counts, exactly.
        val, flag = xr_or_lower(AP5, FULL5, 10.0)
        assert (val, flag) == (4, True)
        # Over budget: the greedy pruned-edge count stands in as a lower bound.
        h = build_ap(16, 3)
        full = VertexSet(16, (1 << 16) - 1)
        val, flag = xr_or_lower(h, full, 2.0)
        assert flag is False
        assert val == len(degree_prune(h, induced_edges(h, full), 2.0).kept_edge_ids)
        assert val < len(induced_edges(h, full))


class TestEdgeIdForms:
    @staticmethod
    def _python_max_degree(h, ids):
        deg: dict[int, int] = {}
        for i in ids:
            for v in h.edges[i]:
                deg[v] = deg.get(v, 0) + 1
        return max(deg.values(), default=0)

    def test_induced_max_degree_matches_a_python_count(self):
        rng = np.random.default_rng(9)
        for p in (0.0, 0.2, 0.5, 0.8, 1.0):
            for h, s in _random_cases(24, 20, seed=int(p * 10), p=p):
                ids = induced_edges(h, s)
                assert induced_max_degree(h, ids) == self._python_max_degree(h, ids)
                # Any id set, not only an induced one.
                some = tuple(sorted(rng.choice(h.num_edges, rng.integers(0, 12), replace=False).tolist()))
                assert induced_max_degree(h, some) == self._python_max_degree(h, some)
        assert induced_max_degree(AP5, ()) == 0

    @staticmethod
    def _steps(r):
        """Each structure step, with the radius or cascade parameters it takes."""
        params = CascadeParams(beta=0.5, gamma=0.125, r=r, t=9.0, p=0.6)
        return [(xr_exact, r), (xr_or_lower, r), (greedy_star_matching, r), (mr_exact, r),
                (degree_prune, r), (cascade_prune, params), (check_cascade_event, params)]

    @staticmethod
    def _outcome(step, *args):
        try:
            return step(*args)
        except CapacityError:
            return CapacityError

    def test_each_step_gives_one_answer_from_s_and_from_its_edge_ids(self):
        refused = set()
        for h, s in _random_cases(16, 30, seed=10, p=0.6):
            ids = induced_edges(h, s)
            for r in (1.0, 1.5, 2.0, 3.0):
                for step, arg in self._steps(r):
                    got = self._outcome(step, h, s, arg)
                    assert got == self._outcome(step, h, ids, arg), (step.__name__, s, r)
                    if got is CapacityError:
                        refused.add(step.__name__)
        # Past XR_EDGE_BUDGET edges both forms refuse the exact search alike.
        assert refused == {"xr_exact"}

    @pytest.mark.parametrize("bad", [(3, 3), (-1,), (12,), (0, 5, 40), (1.5,)], ids=["repeated", "negative", "e", "past_e", "fraction"])
    def test_steps_refuse_ids_that_are_not_distinct_edge_ids(self, bad):
        # Trusted, (3, 3) would count edge 3 twice, -1 would read edge 11 and
        # xr_or_lower would read 1.5 as edge 1.
        h = build_ap(8, 3)
        assert h.num_edges == 12
        for step, arg in self._steps(2.0):
            with pytest.raises(ValueError, match=re.escape(f"edge ids {bad} are not distinct ids in range(12)")):
                step(h, bad, arg)

    def test_steps_take_ids_in_any_order(self):
        # xr_exact's search follows the ids' order; the answers do not.
        for h, s in _random_cases(12, 20, seed=12, p=0.6):
            ids = induced_edges(h, s)
            back = ids[::-1]
            for step, arg in self._steps(2.0):
                if step is not degree_prune and step is not cascade_prune:
                    assert self._outcome(step, h, back, arg) == self._outcome(step, h, s, arg), step.__name__
            assert degree_prune(h, back, 2.0).kept_edge_ids == degree_prune(h, ids, 2.0).kept_edge_ids[::-1]


class TestStarMatching:
    def test_greedy_on_ap5(self):
        m = greedy_star_matching(AP5, FULL5, 1.0)
        assert m.size == 1
        assert m.stars[0].center == 0
        assert m.stars[0].edge_ids == (0,)

    def test_high_radius_gives_central_star(self):
        m = greedy_star_matching(AP5, FULL5, 4.0)
        assert m.size == 1
        assert m.stars[0].center == 2
        assert len(m.stars[0].edge_ids) == 4

    def test_greedy_never_exceeds_exact(self):
        for h, s in _random_cases(10, 60, seed=3):
            for r in (1.0, 2.0, 2.5):
                greedy = greedy_star_matching(h, s, r).size
                assert greedy <= mr_exact(h, s, r)

    def test_greedy_is_maximal(self):
        # After blocking, no vertex retains ceil(r) unblocked induced edges.
        for h, s in _random_cases(11, 30, seed=4):
            r = 2.0
            m = greedy_star_matching(h, s, r)
            blocked = m.vertex_bits
            ids = induced_edges(h, s)
            for v in range(h.n):
                if (blocked >> v) & 1:
                    continue
                free = [
                    i
                    for i in ids
                    if v in h.edges[i] and h.edge_masks[i] & blocked == 0
                ]
                assert len(free) < math.ceil(r)

    def test_mr_matches_oracle_random(self):
        for h, s in _random_cases(9, 30, seed=5):
            ids = induced_edges(h, s)
            sub_edges = [h.edges[i] for i in ids]
            for r in (1.0, 2.0, 3.0):
                assert mr_exact(h, s, r) == oracles.naive_mr(sub_edges, r)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_mr_matches_oracle_hypothesis(self, data):
        k = data.draw(st.integers(2, 4))
        n = data.draw(st.integers(k, 9))
        edge = st.sampled_from(list(combinations(range(n), k)))
        h = Hypergraph(k, n, data.draw(st.lists(edge, max_size=12)))
        edges = list(h.edges)
        for r in (1.0, 1.5, 2.0, 3.0):
            assert mr_exact(h, tuple(range(h.num_edges)), r) == oracles.naive_mr(edges, r)

    @staticmethod
    def _assert_mr_nodes(h, ids, r):
        # Testing #live before building the union decides each prune as the
        # minimum recounted at every node does, so the nodes match too.
        ordered = [h.edges[i] for i in ids]
        got, nodes = _search_nodes(mr_exact, h, ids, r)
        assert got == oracles.naive_mr(ordered, r)
        assert (got, nodes) == oracles.mr_search(ordered, r)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_mr_visits_the_nodes_of_the_recounting_search(self, data):
        k = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(k, 9))
        pool = list(combinations(range(n), k))
        edges = data.draw(st.lists(st.sampled_from(pool), max_size=12, unique=True))
        h = Hypergraph(k, n, edges)
        ids = tuple(data.draw(st.permutations(range(h.num_edges))))
        r = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
        self._assert_mr_nodes(h, ids, r)

    def test_mr_nodes_where_the_live_count_ties_the_best(self):
        # About 1 % of random instances reach a node where count + #live equals
        # the best and the union does not prune; this one visits 17 nodes, and
        # 25 without the prune on #live.
        h = Hypergraph(2, 8, [(0, 5), (2, 7), (4, 7), (6, 7)])
        self._assert_mr_nodes(h, (2, 0, 1, 3), 0.5)

    def test_mr_star_narrower_than_k_plus_c_minus_1(self):
        # Four 3-APs through 4 cover only {0, 2, 4, 6, 8}: 5 vertices, not
        # k + ceil(r) - 1 = 6, so a bound by that width would prune the star.
        h = build_ap(9, 3)
        s = VertexSet(9, 0b101010101)
        assert mr_exact(h, s, 4.0) == 1
        # Three triples through 0 on just four vertices.
        h = Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        assert mr_exact(h, (0, 1, 2), 3.0) == 1

    def test_mr_dropped_center_stays_a_leaf(self):
        # The only two disjoint cherries are 0-1-3 and 5-2-6: the search must
        # drop 0 as a center without blocking it, since it is a leaf at 1.
        h = Hypergraph(2, 7, [(0, 1), (0, 2), (1, 3), (2, 5), (2, 6)])
        assert mr_exact(h, tuple(range(h.num_edges)), 2.0) == 2

    def test_mr_finishes_where_the_candidate_star_search_ran_long(self):
        # Subset 38 of 60 p = 0.3 draws from AP(60,3) on Philox (5, 0).  The
        # earlier search, seeded by the greedy matching and bounded only by
        # the centers left, needed about 30 s on a 2-core host to return 6;
        # this one visits about 200 nodes.
        h = build_ap(60, 3)
        gen = stream_generator(5, 0)
        subsets = [sample_vp(h, 0.3, gen) for _ in range(39)]
        assert mr_exact(h, subsets[38], 2.0) == 6

    def test_mr_budget_refusal(self, monkeypatch):
        h = build_ap(18, 3)
        full = VertexSet(18, (1 << 18) - 1)
        monkeypatch.setattr(decompose, "MR_NODE_BUDGET", 3)
        with pytest.raises(CapacityError):
            mr_exact(h, full, 1.0)

    def test_mr_huge_radius_has_no_star(self):
        # No vertex has 1e20 edges; the star-width loop would otherwise run ~1e10 times.
        h = build_ap(10, 3)
        assert mr_exact(h, VertexSet(10, (1 << 10) - 1), 1e20) == 0

    def test_greedy_output_is_a_star_matching(self):
        # What the greedy scan hands over unchecked: ceil(r) induced edges per
        # star, all through its center, on pairwise disjoint vertex sets whose
        # union is vertex_bits.
        sizes = set()
        for h, s in _random_cases(12, 40, seed=11, p=0.6):
            ids = set(induced_edges(h, s))
            for r in (1.0, 1.5, 2.0, 3.0):
                m = greedy_star_matching(h, s, r)
                sizes.add(m.size)
                union = 0
                for star in m.stars:
                    assert len(star.edge_ids) == math.ceil(r)
                    assert set(star.edge_ids) <= ids
                    assert all(star.center in h.edges[i] for i in star.edge_ids)
                    bits = 0
                    for i in star.edge_ids:
                        bits |= h.edge_masks[i]
                    assert union & bits == 0
                    union |= bits
                assert m.vertex_bits == union
        assert max(sizes) >= 2

    def test_star_validation(self):
        with pytest.raises(ValueError):
            Star(0, ())
        with pytest.raises(ValueError):
            Star(0, (3, 1))


class TestDegreePrune:
    def test_identity_below_threshold(self):
        # Delta_1 < ceil(r) leaves everything in place.
        for h, s in _random_cases(12, 40, seed=6, p=0.35):
            ids = induced_edges(h, s)
            deltas = {}
            for i in ids:
                for v in h.edges[i]:
                    deltas[v] = deltas.get(v, 0) + 1
            delta1 = max(deltas.values(), default=0)
            res = degree_prune(h, induced_edges(h, s), delta1 + 0.5)
            assert res.matching.size == 0
            assert res.kept_edge_ids == ids

    def test_post_degree_cap(self):
        for h, s in _random_cases(12, 40, seed=7):
            for r in (1.0, 1.5, 2.0):
                kept = degree_prune(h, induced_edges(h, s), r).kept_edge_ids
                deg: dict[int, int] = {}
                for i in kept:
                    for v in h.edges[i]:
                        deg[v] = deg.get(v, 0) + 1
                assert max(deg.values(), default=0) <= math.ceil(r) - 1

    def test_removed_edges_touch_matching(self):
        for h, s in _random_cases(12, 20, seed=8):
            res = degree_prune(h, induced_edges(h, s), 2.0)
            blocked = res.matching.vertex_bits
            kept = set(res.kept_edge_ids)
            for i in induced_edges(h, s):
                if i not in kept:
                    assert h.edge_masks[i] & blocked


class TestCascade:
    def test_params_validation(self):
        # The other ranges are cells of tests/test_bounds.py's boundary table.
        CascadeParams(beta=0.5, gamma=0.125, r=1.0, t=1.0, p=0.5)
        with pytest.raises(ValueError, match="gamma"):
            CascadeParams(beta=0.5, gamma=math.nextafter(0.125, 1.0), r=1.0, t=1.0, p=0.5)

    def test_level_count_and_radii(self):
        params = CascadeParams(beta=0.5, gamma=0.1, r=1.0, t=16.0, p=0.3)
        assert params.level_count == 2  # 1 -> 2 -> 4 = sqrt(16)
        assert [params.r_level(j) for j in range(3)] == [1.0, 2.0, 4.0]
        assert params.s == pytest.approx(1.0 + 0.1 * math.log(1 / 0.3), rel=1e-15)

    def test_single_level_when_t_small(self):
        params = CascadeParams(beta=0.5, gamma=0.1, r=2.0, t=4.0, p=0.5)
        assert params.level_count == 0
        h = build_ap(12, 3)
        s = VertexSet(12, (1 << 12) - 1)
        ids = induced_edges(h, s)
        res = cascade_prune(h, ids, params)
        assert len(res.levels) == 1 and res.levels[0].r_j == 2.0
        assert res.kept_edge_ids == degree_prune(h, ids, 2.0).kept_edge_ids

    def test_final_degree_and_accounting(self):
        h = build_ap(25, 3)
        rng = np.random.default_rng(9)
        params = CascadeParams(beta=1.0, gamma=0.125, r=1.5, t=25.0, p=0.3)
        for _ in range(20):
            s = sample_vp(h, 0.3, rng)
            ids = induced_edges(h, s)
            res = cascade_prune(h, ids, params)
            assert sum(lv.removed for lv in res.levels) == len(ids) - len(
                res.kept_edge_ids
            )
            assert [lv.r_j for lv in res.levels] == sorted(
                (lv.r_j for lv in res.levels), reverse=True
            )
            deg: dict[int, int] = {}
            for i in res.kept_edge_ids:
                for v in h.edges[i]:
                    deg[v] = deg.get(v, 0) + 1
            assert max(deg.values(), default=0) <= math.floor(params.r)
            for lv in res.levels:
                assert lv.removed <= lv.matching_size * h.k * math.ceil(lv.r_j) * max(
                    lv.delta1_before, 1
                )

    def test_check_event_verdicts(self):
        h = build_ap(10, 3)
        params = CascadeParams(beta=1.0 / 96.0, gamma=0.125, r=1.0, t=9.0, p=0.25)
        rng = np.random.default_rng(10)
        seen = set()
        for _ in range(200):
            s = sample_vp(h, 0.25, rng)
            check = check_cascade_event(h, s, params)
            seen.add(check.verdict)
            if check.verdict is True:
                x = len(induced_edges(h, s))
                assert x <= xr_exact(h, s, 1.0) + params.t / 2.0 + 1e-9
            if check.verdict is False:
                assert any(lv.passed is False for lv in check.levels)
        assert True in seen and False in seen

    def test_check_event_indeterminate_on_budget(self, monkeypatch):
        # t large enough that every per-level threshold clears the small greedy
        # matchings.  A budget of one search node stops the exact search at
        # levels 0-3, which have live centers; at levels 4 and 5 no vertex has
        # r_j edges, so there is nothing to search.
        h = build_ap(14, 3)
        s = VertexSet(14, (1 << 14) - 1)
        params = CascadeParams(beta=1.0, gamma=0.125, r=1.0, t=400.0, p=0.5)
        with monkeypatch.context() as patch:
            patch.setattr(decompose, "MR_NODE_BUDGET", 1)
            check = check_cascade_event(h, s, params)
        assert check.verdict is None
        assert [lv.passed for lv in check.levels] == [None, None, None, None, True, True]
        # The default budget decides every level, so the None comes from the budget alone.
        full = check_cascade_event(h, s, params)
        assert full.verdict is True
        assert all(lv.passed is True for lv in full.levels)

