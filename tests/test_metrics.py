import tracemalloc

import numpy as np
import pytest

from commselect import (Graph, Partition, local_clustering_uw,
                        local_clustering_w, mean_clustering, modularity, nmi)
from conftest import build_complete, build_star, build_two_k3_bridge, random_graph
from oracles import (brute_force_max_modularity, clustering_uw_reference,
                     modularity_reference, nmi_reference)


class TestClusteringUnweighted:
    def test_triangle_vertex(self):
        g = build_complete(3)
        assert local_clustering_uw(g, 0) == 1.0

    def test_star_center(self):
        g = build_star(4)
        assert local_clustering_uw(g, 0) == 0.0

    def test_one_of_three_pairs(self):
        # v=0 with neighbors a,b,c and only a-b present
        g = Graph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0)])
        assert local_clustering_uw(g, 0) == pytest.approx(1 / 3)

    def test_degree_below_two(self):
        g = Graph(3, [(0, 1, 1.0)])
        assert local_clustering_uw(g, 0) == 0.0
        assert local_clustering_uw(g, 2) == 0.0

    def test_matches_pair_enumeration(self, rng):
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(3, 14)))
            for v in range(g.n):
                assert local_clustering_uw(g, v) == pytest.approx(
                    clustering_uw_reference(g, v))


class TestClusteringWeighted:
    def test_hand_value(self):
        # neighbor weights 1,2,3; only the 1-2 pair connected:
        # (1+2) / ((1+2+3) * 2) = 0.25
        g = Graph(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0), (1, 2, 1.0)])
        assert local_clustering_w(g, 0) == 0.25

    def test_degree_one(self):
        g = Graph(2, [(0, 1, 5.0)])
        assert local_clustering_w(g, 0) == 0.0

    def test_reduces_to_unweighted_on_equal_weights(self, rng):
        for w in (0.5, 1.0, 2.0):
            g = random_graph(rng, 10, weighted=False)
            g = Graph(g.n, [(u, v, w) for u, v, _ in g.edges])
            for v in range(g.n):
                assert local_clustering_w(g, v) == local_clustering_uw(g, v)

    def test_bounded_in_unit_interval(self, rng):
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(3, 12)))
            for v in range(g.n):
                assert 0.0 <= local_clustering_w(g, v) <= 1.0


class TestMeanClustering:
    def test_complete_graph(self):
        s = mean_clustering(build_complete(4))
        assert s.mean_c_uw == 1.0
        assert s.mean_c_w == 1.0

    def test_edgeless(self):
        s = mean_clustering(Graph(3, []))
        assert (s.mean_c_uw, s.mean_c_w) == (0.0, 0.0)

    def test_two_k3_bridge_hand_sum(self):
        # per-node values 1, 1, 1/3, 1/3, 1, 1 -> mean 14/18 = 7/9
        s = mean_clustering(build_two_k3_bridge())
        assert s.mean_c_uw == pytest.approx(7 / 9)
        assert s.mean_c_w == pytest.approx(7 / 9)

    def test_mean_of_local_values(self):
        g = build_complete(3)
        s = mean_clustering(g)
        per_node_uw = tuple(local_clustering_uw(g, v) for v in range(g.n))
        per_node_w = tuple(local_clustering_w(g, v) for v in range(g.n))
        assert per_node_uw == (1.0, 1.0, 1.0)
        assert len(per_node_w) == 3
        assert (s.mean_c_uw, s.mean_c_w) == (sum(per_node_uw) / 3,
                                             sum(per_node_w) / 3)


class TestNMI:
    def test_perfect_match(self):
        p = Partition([0, 0, 1, 1])
        assert nmi(p, p) == 1.0

    def test_four_node_case(self):
        a = Partition([0, 0, 1, 1])
        b = Partition([0, 0, 0, 1])
        assert nmi(a, b) == pytest.approx(0.3437, abs=5e-4)

    def test_single_community_rules(self):
        flat = Partition([0, 0, 0, 0])
        split = Partition([0, 0, 1, 1])
        assert nmi(split, flat) == 0.0
        assert nmi(flat, split) == 0.0
        assert nmi(flat, flat) == 1.0

    def test_node_set_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            nmi(Partition([0, 1]), Partition([0, 1, 1]))

    def test_matches_reference(self, rng):
        for _ in range(40):
            n = int(rng.integers(3, 30))
            a = Partition.from_labels(rng.integers(0, 4, size=n))
            b = Partition.from_labels(rng.integers(0, 4, size=n))
            assert nmi(a, b) == pytest.approx(
                nmi_reference(list(a.membership), list(b.membership)),
                abs=1e-12)
        # many communities, most cells of the contingency table empty
        for _ in range(40):
            n = int(rng.integers(2, 200))
            a = Partition.from_labels(rng.integers(0, rng.integers(1, 40), size=n))
            b = Partition.from_labels(rng.integers(0, rng.integers(1, 40), size=n))
            assert nmi(a, b) == pytest.approx(
                nmi_reference(list(a.membership), list(b.membership)),
                abs=1e-12)
            relabelled = Partition(rng.permutation(a.community_count)[a.membership])
            assert nmi(a, relabelled) == 1.0

    def test_memory_linear_in_nodes(self):
        # singletons against groups of 10: a dense contingency table would
        # hold 10^5 x 10^4 counts (8 GB)
        n = 10 ** 5
        a, b = Partition(np.arange(n)), Partition(np.arange(n) // 10)
        tracemalloc.start()
        try:
            value = nmi(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A determines B, so I(A;B) = H(B) = ln(n / 10), and H(A) = ln(n)
        h_a, h_b = np.log(n), np.log(n / 10)
        assert value == pytest.approx(2 * h_b / (h_a + h_b), abs=1e-12)
        assert peak < 8 * 2 ** 20


class TestModularity:
    def test_single_community_zero(self, two_k3_bridge):
        p = Partition([0] * 6)
        assert modularity(two_k3_bridge, p) == pytest.approx(0.0, abs=1e-15)

    def test_two_k3_half(self, two_k3):
        q = modularity(two_k3, Partition([0, 0, 0, 1, 1, 1]))
        assert q == 0.5

    def test_scale_invariance(self, two_k3_bridge):
        p = Partition([0, 0, 0, 1, 1, 1])
        q1 = modularity(two_k3_bridge, p)
        scaled = Graph(6, [(u, v, w * 37.5) for u, v, w in two_k3_bridge.edges])
        assert modularity(scaled, p) == pytest.approx(q1, abs=1e-12)

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            modularity(Graph(3, []), Partition([0, 1, 2]))

    def test_matches_double_sum(self, rng):
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(3, 12)))
            p = Partition.from_labels(rng.integers(0, 3, size=g.n))
            assert modularity(g, p) == pytest.approx(
                modularity_reference(g, list(p.membership)), abs=1e-9)

    def test_detects_brute_force_optimum_structure(self, two_k3_bridge):
        q_best, memb = brute_force_max_modularity(two_k3_bridge)
        assert memb == (0, 0, 0, 1, 1, 1)
        assert modularity(two_k3_bridge, Partition(list(memb))) == \
            pytest.approx(q_best, abs=1e-12)
