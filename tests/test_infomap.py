import math
import tracemalloc

import numpy as np
import pytest

from commselect import (Graph, InfomapConfig, Partition, infomap,
                        infomap_detect, map_equation, visit_rates,
                        with_unit_weights)
from conftest import build_path, random_graph
from oracles import (all_partitions, brute_force_min_code_length,
                     map_equation_reference)


class TestVisitRates:
    def test_regular_graph_uniform(self, two_k3):
        assert np.allclose(visit_rates(two_k3), 1 / 6)

    def test_path_proportional_to_degree(self):
        g = build_path(3)
        assert np.allclose(visit_rates(g), [0.25, 0.5, 0.25])

    def test_single_edge_scale_cancels(self):
        g = Graph(2, [(0, 1, 7.0)])
        assert np.allclose(visit_rates(g), [0.5, 0.5])

    def test_sums_to_one(self, rng):
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 15)))
            assert abs(visit_rates(g).sum() - 1.0) < 1e-12

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            visit_rates(Graph(3, []))


class TestMapEquation:
    def test_single_module_is_rate_entropy(self, two_k3):
        val = map_equation(two_k3, Partition([0] * 6))
        assert val == pytest.approx(math.log2(6), abs=1e-12)

    def test_two_clique_partition_beats_single_module(self, two_k3_bridge):
        split = map_equation(two_k3_bridge, Partition([0, 0, 0, 1, 1, 1]))
        merged = map_equation(two_k3_bridge, Partition([0] * 6))
        assert split < merged

    def test_scale_invariance(self, two_k3_bridge):
        p = Partition([0, 0, 0, 1, 1, 1])
        base = map_equation(two_k3_bridge, p)
        scaled = Graph(6, [(u, v, w * 11.0) for u, v, w in two_k3_bridge.edges])
        assert map_equation(scaled, p) == pytest.approx(base, abs=1e-12)

    def test_nonnegative_and_matches_reference(self, rng):
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(3, 9)))
            for memb in list(all_partitions(g.n))[:40]:
                val = map_equation(g, Partition.from_labels(memb))
                assert val >= 0.0
                assert val == pytest.approx(
                    map_equation_reference(g, memb), abs=1e-10)


class TestDetect:
    def test_two_disjoint_k3(self, two_k3):
        p = infomap_detect(two_k3, InfomapConfig(seed=0))
        assert tuple(p.membership) == (0, 0, 0, 1, 1, 1)
        best_len, _ = brute_force_min_code_length(two_k3)
        assert map_equation(two_k3, p) == pytest.approx(best_len, abs=1e-9)

    def test_two_k3_bridge(self, two_k3_bridge):
        p = infomap_detect(two_k3_bridge, InfomapConfig(seed=0))
        assert tuple(p.membership) == (0, 0, 0, 1, 1, 1)
        best_len, _ = brute_force_min_code_length(two_k3_bridge)
        assert map_equation(two_k3_bridge, p) == pytest.approx(best_len, abs=1e-9)

    def test_single_isolated_node(self):
        p = infomap_detect(Graph(1, []), InfomapConfig(seed=0))
        assert p.community_count == 1

    def test_edgeless_graph_singletons(self):
        p = infomap_detect(Graph(4, []), InfomapConfig(seed=0))
        assert p.community_count == 4

    def test_determinism(self, two_k3_bridge, rng):
        for _ in range(5):
            g = random_graph(rng, 12)
            cfg = InfomapConfig(seed=77)
            assert infomap_detect(g, cfg) == infomap_detect(g, cfg)

    def test_never_worse_than_singletons(self, rng):
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(3, 12)))
            cfg = InfomapConfig(seed=3)
            p = infomap_detect(g, cfg)
            singles = Partition(list(range(g.n)))
            assert (map_equation(g, p)
                    <= map_equation(g, singles) + infomap.MOVE_TOLERANCE)

    def test_unweighted_flag_ignores_weights(self, rng):
        g = random_graph(rng, 10, weighted=True)
        cfg = InfomapConfig(seed=5, weighted=False)
        assert infomap_detect(g, cfg) == infomap_detect(
            with_unit_weights(g), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InfomapConfig(outer_passes=0)

    def test_memory_is_linear_in_links(self):
        # a ring of 2000 10-cliques, n = 2 * 10^4 and m = 92,000: one
        # restart holds fewer than forty 8-byte numbers per link at once
        g, p, peak = detect_ring_of_cliques(10, 2000, outer_passes=1)
        assert peak < 40 * 8 * g.edge_count
        assert p == Partition.from_labels(np.arange(g.n) // 10)

    def test_memory_is_linear_in_links_over_restarts(self):
        # the same ring with the default ten restarts: a graph this large
        # runs them one at a time, so the bound per link does not grow
        g, p, peak = detect_ring_of_cliques(10, 2000)
        assert peak < 40 * 8 * g.edge_count
        assert p == Partition.from_labels(np.arange(g.n) // 10)


def detect_ring_of_cliques(k, cliques, **cfg):
    """(graph, partition, traced peak bytes) of ``infomap_detect`` on a
    ring of ``cliques`` k-cliques, each joined to the next by one link."""
    edges = [(b + i, b + j, 1.0) for b in range(0, k * cliques, k)
             for i in range(k) for j in range(i + 1, k)]
    edges += [(b + k - 1, (b + k) % (k * cliques), 1.0)
              for b in range(0, k * cliques, k)]
    g = Graph(k * cliques, edges)
    tracemalloc.start()
    try:
        p = infomap_detect(g, InfomapConfig(seed=0, **cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return g, p, peak
