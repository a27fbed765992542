import tracemalloc

import numpy as np
import pytest

from commselect import (CopraConfig, GenParams, Graph, copra_detect,
                        generate, propagate_step, run_once, with_unit_weights)
from commselect.seeds import spawn_rng
from conftest import build_complete, random_graph
from oracles import brute_force_max_modularity


class TestPropagateStep:
    def test_strict_majority(self):
        # center 0 sees labels {5, 7, 5} -> 5; label values near 2^60 make
        # the step sort its pairs without packing them into one integer
        g = Graph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        for offset in (0, 2 ** 60):
            labels = np.array([9, 5, 7, 5]) + offset
            out = propagate_step(g, labels, False, spawn_rng(0))
            assert out[0] == 5 + offset
            assert list(out[1:]) == [9 + offset] * 3
            # one step returns new labels and leaves its input as it was
            assert out is not labels
            assert list(labels) == [9 + offset, 5 + offset, 7 + offset,
                                    5 + offset]

    def test_weighted_support_wins(self):
        g = Graph(3, [(0, 1, 1.0), (0, 2, 5.0)])
        out = propagate_step(g, np.array([9, 3, 4]), True, spawn_rng(0))
        assert out[0] == 4

    def test_unweighted_tie_is_uniform(self):
        g = Graph(3, [(0, 1, 1.0), (0, 2, 5.0)])
        picks = [int(propagate_step(g, np.array([9, 3, 4]), False,
                                    spawn_rng(s))[0])
                 for s in range(200)]
        counts = {lab: picks.count(lab) for lab in set(picks)}
        assert set(counts) == {3, 4}
        assert min(counts.values()) >= 60  # ~binomial(200, 1/2)

    def test_fixed_point_on_uniform_labels(self, two_k3):
        # on the ring every node ties between its own label and its other
        # neighbour's, so it keeps its own
        ring = Graph(8, [(i, (i + 1) % 8, 1.0) for i in range(8)])
        cases = [(two_k3, (0, 0, 0, 1, 1, 1)),
                 (ring, (0, 0, 1, 1, 2, 2, 3, 3))]
        for g, labels in cases:
            for weighted in (False, True):
                out = propagate_step(g, np.array(labels), weighted,
                                     spawn_rng(1))
                assert tuple(out) == labels

    def test_isolated_keeps_label(self):
        # an isolated node has no support for any label, whatever its label
        cases = [(Graph(3, [(0, 1, 1.0)]), [4, 4, 8]),
                 (Graph(4, [(0, 1, 1.0), (1, 2, 1.0)]), [0, 0, 0, 3])]
        for g, labels in cases:
            out = propagate_step(g, np.array(labels), False, spawn_rng(0))
            assert out[-1] == labels[-1]

    def test_memory_is_linear_in_links(self):
        # ring lattice at n=10^4 with unique labels: every node ties, and a
        # dense (n, n) support table alone would take 763 MiB
        n = 10_000
        g = Graph(n, [(v, (v + d) % n, 1.0) for v in range(n)
                      for d in (1, 2, 3)])
        labels = np.arange(n)
        tracemalloc.start()
        try:
            out = propagate_step(g, labels, False, spawn_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        offset = (out - labels) % n
        assert np.isin(offset, [1, 2, 3, n - 3, n - 2, n - 1]).all()


class TestRunOnce:
    def test_two_k3_monte_carlo(self, two_k3):
        cfg = CopraConfig(weighted=False)
        hits = sum(
            tuple(run_once(two_k3, cfg, spawn_rng(s)).membership)
            == (0, 0, 0, 1, 1, 1)
            for s in range(100))
        assert hits >= 95

    def test_k5_collapses(self):
        g = build_complete(5)
        cfg = CopraConfig(weighted=False)
        hits = sum(run_once(g, cfg, spawn_rng(s)).community_count == 1
                   for s in range(100))
        assert hits >= 95

    def test_singleton_node(self):
        p = run_once(Graph(1, []), CopraConfig(), spawn_rng(0))
        assert p.community_count == 1

    def test_disconnected_shared_label_is_split(self):
        # force one label across two components via zero iterations: a
        # two-node edgeless graph keeps unique labels; instead check the
        # splitter on a path where oscillation leaves a repeated label
        g = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        p = run_once(g, CopraConfig(weighted=False), spawn_rng(0))
        # each K2 is one community or two singletons, never merged across
        for a, b in ((0, 2), (0, 3), (1, 2), (1, 3)):
            assert p[a] != p[b]

    def test_oscillation_settles_to_fixed_point(self):
        # two unit triangles joined by all nine cross links at weight 3:
        # synchronous updates swap the two triangles' labels forever
        edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
                 (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0)]
        edges += [(u, v, 3.0) for u in range(3) for v in range(3, 6)]
        # an unweighted ring with unique labels keeps drawing among tied
        # labels, so a small cap stops the synchronous phase early
        ring = Graph(8, [(i, (i + 1) % 8, 1.0) for i in range(8)])
        # a generated network on which every weighted run oscillates
        net = generate(GenParams(n=100, mu_t=0.1, mu_w=0.6, seed=1)).graph
        cases = [(Graph(6, edges), CopraConfig(weighted=True)),
                 (net, CopraConfig(weighted=True))]
        cases += [(ring, CopraConfig(weighted=False, max_iters=k))
                  for k in (1, 3)]
        for g, cfg in cases:
            for s in range(20):
                p = run_once(g, cfg, spawn_rng(s))
                for v in range(g.n):
                    support = {}
                    for u, w in g.neighbors(v):
                        w = w if cfg.weighted else 1.0
                        support[p[u]] = support.get(p[u], 0.0) + w
                    assert support.get(p[v], 0.0) == max(support.values()), \
                        (cfg, s, v)


class TestDetect:
    def test_two_k3_bridge_is_modularity_optimum(self, two_k3_bridge):
        q_best, memb = brute_force_max_modularity(two_k3_bridge)
        p = copra_detect(two_k3_bridge, CopraConfig(seed=0, weighted=False))
        assert tuple(p.membership) == memb == (0, 0, 0, 1, 1, 1)

    def test_runs_one_equals_run_once(self, two_k3):
        cfg = CopraConfig(seed=9, runs=1, weighted=False)
        direct = run_once(with_unit_weights(two_k3), cfg, spawn_rng(9, 0))
        assert copra_detect(two_k3, cfg) == direct

    def test_weighted_equals_unweighted_on_unit_graph(self, rng):
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(3, 12)), weighted=False)
            w = copra_detect(g, CopraConfig(seed=4, weighted=True))
            uw = copra_detect(g, CopraConfig(seed=4, weighted=False))
            assert w == uw

    def test_determinism(self, rng):
        g = random_graph(rng, 14)
        cfg = CopraConfig(seed=123)
        assert copra_detect(g, cfg) == copra_detect(g, cfg)

    def test_output_is_total_dense_partition(self, rng):
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 15)))
            p = copra_detect(g, CopraConfig(seed=1))
            assert p.n == g.n  # Partition construction enforces density

    def test_edgeless_graph(self):
        p = copra_detect(Graph(3, []), CopraConfig(seed=0))
        assert p.community_count == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CopraConfig(runs=0)
