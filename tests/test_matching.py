import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saps.core import AdjacencyMatrix, Matching, TimestampMatrix, symmetrize_bandwidth
from saps.coordinator import get_new_connected_graph
from saps.errors import ValidationError
from saps.matching import (
    AdaptiveSelector,
    RandomSelector,
    RingSelector,
    get_over_time_matrix,
    get_unmatch,
    if_connected,
    max_matching,
    randomly_max_match,
)
from saps.verify import brute_force_matching_size


def complete_graph(n):
    return AdjacencyMatrix.from_pairs(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def uniform_bandwidth(n, seed, lo=1.0, hi=10.0):
    rng = np.random.default_rng(seed)
    return symmetrize_bandwidth(hi - rng.uniform(0, hi - lo, size=(n, n)))


class TestMaxMatching:
    def test_complete_four_is_perfect(self):
        m = max_matching(complete_graph(4))
        assert len(m) == 2 and not m.unmatched

    def test_odd_path(self):
        m = max_matching(AdjacencyMatrix.from_pairs(3, [(0, 1), (1, 2)]))
        assert len(m) == 1 and len(m.unmatched) == 1

    def test_five_cycle_cardinality_two(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        assert brute_force_matching_size(5, edges) == 2  # the frozen oracle value
        assert len(max_matching(AdjacencyMatrix.from_pairs(5, edges))) == 2

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_cardinality_matches_exhaustive_search(self, data):
        n = data.draw(st.integers(2, 10))
        p = data.draw(st.sampled_from([0.2, 0.5, 0.8]))
        seed = data.draw(st.integers(0, 1 << 32))
        rng = np.random.default_rng(seed)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = AdjacencyMatrix.from_pairs(n, edges)
        want = brute_force_matching_size(n, edges)
        assert len(max_matching(g)) == want
        assert len(randomly_max_match(g, random.Random(seed))) == want

    def test_blossom_odd_cycle_with_stem(self):
        # triangle 0-1-2 plus stem 2-3: must match both pairs
        g = AdjacencyMatrix.from_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert len(max_matching(g)) == 2


class TestRandomlyMaxMatch:
    def test_four_cycle_hits_both_pairings(self):
        g = AdjacencyMatrix.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        rng = random.Random(99)
        counts = {frozenset({(0, 1), (2, 3)}): 0, frozenset({(1, 2), (0, 3)}): 0}
        trials = 10_000
        for _ in range(trials):
            counts[frozenset(randomly_max_match(g, rng).pairs)] += 1
        for k in counts:
            assert 0.4 <= counts[k] / trials <= 0.6

    def test_single_edge_always_taken(self):
        g = AdjacencyMatrix.from_pairs(2, [(0, 1)])
        rng = random.Random(1)
        for _ in range(20):
            assert randomly_max_match(g, rng).pairs == {(0, 1)}

    def test_empty_graph_leaves_all_unmatched(self):
        m = randomly_max_match(AdjacencyMatrix.from_pairs(4, []), random.Random(0))
        assert not m.pairs and m.unmatched == {0, 1, 2, 3}


class TestRecentlyConnected:
    def test_all_recent_is_connected(self):
        n, t = 4, 7
        r = TimestampMatrix.initial(n, 3).with_pairs(
            [(i, j) for i in range(n) for j in range(i + 1, n)], t
        )
        assert if_connected(r, 3, t)

    def test_initial_matrix_has_no_recent_edges(self):
        assert not if_connected(TimestampMatrix.initial(4, 3), 3, 0)

    def test_stale_cross_edges_disconnect(self):
        r = TimestampMatrix.initial(4, 3)
        r = r.with_pairs([(0, 1), (2, 3)], t=10)  # fresh inside components
        r = r.with_pairs([(0, 2)], t=2)  # stale cross edge
        assert not if_connected(r, 3, t=10)


class TestBridging:
    def test_cross_component_edges_only(self):
        r = TimestampMatrix.initial(4, 3).with_pairs([(0, 1), (2, 3)], t=10)
        avail = complete_graph(4)
        e = get_over_time_matrix(r, avail, 3, 10)
        want = {(0, 2), (0, 3), (1, 2), (1, 3)}
        got = {(i, j) for i in range(4) for j in range(i + 1, 4) if e.edges[i, j]}
        assert got == want

    def test_all_singletons_offer_every_available_edge(self):
        r = TimestampMatrix.initial(4, 3)
        avail = complete_graph(4)
        e = get_over_time_matrix(r, avail, 3, 0)
        assert np.array_equal(e.edges, avail.edges)

    def test_respects_availability(self):
        r = TimestampMatrix.initial(4, 3).with_pairs([(0, 1), (2, 3)], t=10)
        avail = AdjacencyMatrix.from_pairs(4, [(0, 2)])  # only one positive link
        e = get_over_time_matrix(r, avail, 3, 10)
        assert {(i, j) for i in range(4) for j in range(i + 1, 4) if e.edges[i, j]} == {(0, 2)}


class TestGetUnmatch:
    def test_all_matched_gives_empty(self):
        b = uniform_bandwidth(4, 1)
        e = get_unmatch(b, Matching.from_pairs(4, [(0, 1), (2, 3)]))
        assert not e.edges.any()

    def test_two_free_workers_connect(self):
        b = uniform_bandwidth(4, 2)
        e = get_unmatch(b, Matching.from_pairs(4, [(0, 1)]))
        assert e.edges[2, 3] and e.edges[3, 2] and e.edges.sum() == 2

    def test_single_free_worker_stays_alone(self):
        b = uniform_bandwidth(3, 3)
        e = get_unmatch(b, Matching.from_pairs(3, [(0, 1)]))
        assert not e.edges.any()


class TestGenerateGossipMatrix:
    """One round of the paper's GenerateGossipMatrix: AdaptiveSelector.next_round."""

    def test_two_workers_forced_pair(self):
        b = symmetrize_bandwidth(np.array([[0.0, 5.0], [5.0, 0.0]]))
        w, m = AdaptiveSelector(b, b.positive_edges(), 3, random.Random(0)).next_round()
        assert m.pairs == {(0, 1)}
        assert np.array_equal(w.weights, [[0.5, 0.5], [0.5, 0.5]])

    def test_even_n_complete_graph_matches_everyone(self):
        b = uniform_bandwidth(4, 5)
        sel = AdaptiveSelector(b, b.positive_edges(), 3, random.Random(7))
        for _ in range(10):
            w, m = sel.next_round()
            assert len(m) == 2 and not m.unmatched
            w.validate()

    def test_odd_n_leaves_one_self_loop(self):
        b = uniform_bandwidth(3, 6)
        w, m = AdaptiveSelector(b, b.positive_edges(), 3, random.Random(1)).next_round()
        assert len(m) == 1 and len(m.unmatched) == 1
        w.validate()
        lone = next(iter(m.unmatched))
        assert w.weights[lone, lone] == 1.0

    def test_too_few_workers_rejected(self):
        b = symmetrize_bandwidth(np.zeros((1, 1)))
        with pytest.raises(ValidationError):
            AdaptiveSelector(b, b.positive_edges(), 1, random.Random(0))

    def test_fallback_fills_in_when_bstar_is_sparse(self):
        # B* has one edge; once the recently-connected graph spans the
        # workers, the rest must still pair via the full B
        b = uniform_bandwidth(6, 8)
        b_star = AdjacencyMatrix.from_pairs(6, [(0, 1)])
        sel = AdaptiveSelector(b, b_star, 20, random.Random(3))
        on_bstar = 0
        for _ in range(40):
            connected = if_connected(sel.r, sel.t_thres, sel.t)
            w, m = sel.next_round()
            assert len(m) == 3 and not m.unmatched
            w.validate()
            on_bstar += connected
        assert on_bstar > 0


class TestSelectors:
    def test_adaptive_matched_edges_have_positive_bandwidth_even_without_bstar(self):
        b = uniform_bandwidth(8, 11)
        empty_bstar = get_new_connected_graph(b, b_thres=np.inf)
        assert not empty_bstar.edges.any()
        sel = AdaptiveSelector(b, empty_bstar, 4, random.Random(2))
        for _ in range(30):
            _, m = sel.next_round()
            assert len(m) == 4  # after round 0, through get_unmatch
            for i, j in m.pairs:
                assert b.speeds[i, j] > 0

    @pytest.mark.parametrize("n", [3, 5, 8, 16])
    def test_cumulative_matched_union_connects(self, n):
        # sparse but connected bandwidth graph: a random spanning tree + extras
        rng = np.random.default_rng(n)
        raw = np.zeros((n, n))
        order = rng.permutation(n)
        for k in range(1, n):
            a, b_ = order[k], order[rng.integers(0, k)]
            raw[a, b_] = raw[b_, a] = rng.uniform(1, 10)
        for _ in range(n // 2):
            i, j = rng.integers(0, n, 2)
            if i != j:
                raw[i, j] = raw[j, i] = rng.uniform(1, 10)
        b = symmetrize_bandwidth(raw)
        b_thres = float(np.median(b.speeds[b.speeds > 0]))
        sel = AdaptiveSelector(b, get_new_connected_graph(b, b_thres), 5, random.Random(n))
        union = np.zeros((n, n), dtype=bool)
        rounds = 50 * int(np.ceil(np.log2(n)))
        for _ in range(rounds):
            _, m = sel.next_round()
            for i, j in m.pairs:
                union[i, j] = union[j, i] = True
        from saps.matching import _components

        assert len(np.unique(_components(n, union))) == 1

    def test_adaptive_updates_timestamps_only_for_matched_pairs(self):
        b = uniform_bandwidth(5, 4)
        sel = AdaptiveSelector(b, b.positive_edges(), 3, random.Random(9))
        _, m = sel.next_round()
        for i in range(5):
            for j in range(i + 1, 5):
                expected = 0 if (i, j) in m.pairs else -3
                assert sel.r.last_round[i, j] == expected

    def test_ring_alternates_fixed_pairings(self):
        sel = RingSelector(6)
        _, m0 = sel.next_round()
        _, m1 = sel.next_round()
        _, m2 = sel.next_round()
        assert m0.pairs == {(0, 1), (2, 3), (4, 5)}
        assert m1.pairs == {(1, 2), (3, 4), (0, 5)}
        assert m2.pairs == m0.pairs

    def test_ring_requires_even_n(self):
        with pytest.raises(ValidationError):
            RingSelector(5)

    def test_random_selector_emits_valid_gossip(self):
        sel = RandomSelector(uniform_bandwidth(7, 3), random.Random(5))
        for _ in range(20):
            w, m = sel.next_round()
            w.validate()
            assert len(m) == 3  # complete graph on 7: floor(7/2)
