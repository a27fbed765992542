import numpy as np
import pytest

from commselect import (GenParams, GenerationError, Graph, Partition,
                        assign_weights, build_topology, generate,
                        measured_mixing, sample_community_sizes,
                        sample_truncated_power_law, solve_k_min)
from commselect.lfr import _split_stubs, truncated_power_law_mean
from commselect.seeds import spawn_rng
from conftest import build_complete, build_two_k3_bridge
from oracles import truncated_power_law_mean_reference


class TestPowerLawSampling:
    def test_degenerate_support(self):
        draws = sample_truncated_power_law(2.0, 25, 25, 100, spawn_rng(0))
        assert (draws == 25).all()

    def test_empirical_mean_matches_direct_sum(self):
        rng = spawn_rng(7)
        draws = sample_truncated_power_law(2.0, 2, 50, 10 ** 6, rng)
        exact = truncated_power_law_mean_reference(2.0, 2, 50)
        assert abs(draws.mean() - exact) / exact < 0.01

    def test_empty_count(self):
        assert sample_truncated_power_law(2.0, 2, 9, 0, spawn_rng(0)).size == 0

    def test_support_bounds_respected(self):
        draws = sample_truncated_power_law(1.0, 5, 11, 5000, spawn_rng(3))
        assert draws.min() >= 5 and draws.max() <= 11

    def test_bad_support_rejected(self):
        with pytest.raises(ValueError, match="support"):
            sample_truncated_power_law(2.0, 9, 5, 1, spawn_rng(0))

    def test_deterministic_given_state(self):
        a = sample_truncated_power_law(2.5, 2, 30, 50, spawn_rng(11))
        b = sample_truncated_power_law(2.5, 2, 30, 50, spawn_rng(11))
        assert (a == b).all()


class TestSolveKMin:
    def test_degenerate_equals_kmax(self):
        assert solve_k_min(2.0, 25.0, 25) == 25

    def test_matches_exact_scan_oracle(self):
        k_max = 50
        best = min(range(2, k_max + 1),
                   key=lambda lo: abs(
                       truncated_power_law_mean_reference(2.0, lo, k_max) - 25.0))
        assert solve_k_min(2.0, 25.0, k_max) == best
        # and the cutoff really produces a close mean
        mean = truncated_power_law_mean(2.0, solve_k_min(2.0, 25.0, 50), 50)
        assert abs(mean - 25.0) <= 1.0

    def test_unreachable_mean_rejected(self):
        # even lo=2 gives a mean above 2; a target of 1.05 is out of reach
        with pytest.raises(ValueError, match="achievable"):
            solve_k_min(5.0, 1.05, 25)

    def test_avg_above_kmax_rejected(self):
        with pytest.raises(ValueError):
            solve_k_min(2.0, 30.0, 25)


class TestCommunitySizes:
    def test_single_community_when_bounds_pin(self):
        p = GenParams(n=40, mu_t=0.0, mu_w=0.0, avg_k=4.0, k_max=8,
                      s_min=40, s_max=40)
        assert sample_community_sizes(p, spawn_rng(0)) == [40]

    def test_sizes_sum_and_bounds(self):
        p = GenParams(n=100, mu_t=0.1, mu_w=0.1, s_min=10, s_max=50)
        for seed in range(50):
            sizes = sample_community_sizes(p, spawn_rng(seed))
            assert sum(sizes) == 100
            assert all(10 <= s <= 50 for s in sizes)

    def test_n_below_minimum_rejected(self):
        # parameter validation already refuses size bounds exceeding n
        with pytest.raises(ValueError):
            GenParams(n=5, mu_t=0.1, mu_w=0.1, avg_k=2.0, k_max=4, s_min=10,
                      s_max=10)


class TestBuildTopology:
    def test_mu_zero_two_communities_no_cross_edges(self):
        degrees = [4] * 20
        sizes = [10, 10]
        g, truth = build_topology(degrees, sizes, 0.0, spawn_rng(4))
        mu_t, _ = measured_mixing(g, truth)
        assert mu_t == 0.0

    def test_two_k3_bridge_hand_mixing(self):
        g = build_two_k3_bridge()
        truth = Partition([0, 0, 0, 1, 1, 1])
        mu_t, mu_w = measured_mixing(g, truth)
        assert mu_t == pytest.approx(1 / 7, abs=1e-15)
        assert mu_w == pytest.approx(1 / 7, abs=1e-15)

    def test_single_community_with_external_target_rejected(self):
        with pytest.raises(GenerationError):
            build_topology([4] * 12, [12], 1.0, spawn_rng(0))

    def test_simple_graph_and_tolerance(self):
        cases = []
        for seed in range(10):
            degrees = list(sample_truncated_power_law(2.0, 4, 12, 60,
                                                      spawn_rng(seed, 1)))
            if sum(degrees) % 2:
                degrees[0] += 1
            cases.append((degrees, [20, 20, 20], 0.3, spawn_rng(seed, 2)))
        # near-complete communities: half the nodes have internal degree 18
        # or 19 in communities of 20, so swaps inside a community stall
        cases.append(([21] * 20 + [16] * 20, [20, 20], 0.1, spawn_rng(0)))
        # one community holds more than half the external stubs, so some of
        # them cannot be matched across communities
        hubs = [int(k) for k in sample_truncated_power_law(2.0, 15, 50, 100,
                                                            spawn_rng(3, 1))]
        hubs[0] += sum(hubs) % 2
        cases.append((hubs, [55, 45], 0.1, spawn_rng(3, 2)))
        for degrees, sizes, mu_t_target, rng in cases:
            g, truth = build_topology(degrees, sizes, mu_t_target, rng)
            # Graph construction itself validates simplicity
            assert np.array_equal(g.degrees, degrees)
            mu_t, _ = measured_mixing(g, truth)
            assert abs(mu_t - mu_t_target) <= 0.02
        # in the last case one community really holds most external stubs
        ext = _split_stubs(hubs, 0.1)[1]
        assert np.bincount(truth.membership, weights=ext).max() > ext.sum() / 2


class TestAssignWeights:
    def test_trivial_all_internal(self):
        degrees = [4] * 20
        g, truth = build_topology(degrees, [10, 10], 0.0, spawn_rng(4))
        out = assign_weights(g, truth, beta=1.0, mu_w=0.0)
        _, mu_w = measured_mixing(out, truth)
        assert mu_w == 0.0

    def test_regular_graph_beta_one_gives_unit_weights(self):
        # fixed point of the scaling recurrence: strengths k^1 match the
        # degree exactly when every weight is 1
        degrees = [6] * 24
        g, truth = build_topology(degrees, [12, 12], 0.5, spawn_rng(8))
        out = assign_weights(g, truth, beta=1.0, mu_w=0.5, tolerance=1e-6)
        weights = np.array([w for _, _, w in out.edges])
        assert np.allclose(weights, 1.0, atol=0.05)

    def test_infeasible_target_rejected(self):
        # a node with only external links cannot reach mu_w = 0
        g = Graph(2, [(0, 1, 1.0)])
        truth = Partition([0, 1])
        with pytest.raises(GenerationError, match="weights"):
            assign_weights(g, truth, beta=1.0, mu_w=0.0)

    def test_oversubscribed_leaf_edges_rejected(self):
        # with mu_w=0.9 and only 1-2 external links per node, leaf edges
        # force their full weight onto shared endpoints: unreachable targets
        # (mu_t=0.3 splits degree 5 into 1.5 external stubs, so half the
        # nodes get one and half get two)
        degrees = [5] * 30
        g, truth = build_topology(degrees, [15, 15], 0.3, spawn_rng(2))
        with pytest.raises(GenerationError, match="weights"):
            assign_weights(g, truth, beta=1.5, mu_w=0.9)

    def test_weights_stay_positive(self):
        # denser external subgraph keeps extreme mixing feasible
        degrees = [8] * 30
        g, truth = build_topology(degrees, [15, 15], 0.5, spawn_rng(2))
        out = assign_weights(g, truth, beta=1.5, mu_w=0.9)
        assert min(w for _, _, w in out.edges) > 0.0


class TestMeasuredMixing:
    def test_single_community_zero(self, two_k3_bridge):
        g = build_complete(5)
        assert measured_mixing(g, Partition([0] * 5)) == (0.0, 0.0)

    def test_weighted_bridge(self):
        g = build_two_k3_bridge(bridge_w=3.0)
        truth = Partition([0, 0, 0, 1, 1, 1])
        mu_t, mu_w = measured_mixing(g, truth)
        assert mu_t == pytest.approx(1 / 7)
        assert mu_w == pytest.approx(1 / 3)


class TestGenerate:
    def test_bit_identical_repeats(self):
        p = GenParams(n=60, mu_t=0.3, mu_w=0.2, avg_k=8.0, k_max=16, seed=5)
        a = generate(p)
        b = generate(p)
        assert a.graph == b.graph
        assert a.truth == b.truth
        assert (a.achieved_mu_t, a.achieved_mu_w) == \
            (b.achieved_mu_t, b.achieved_mu_w)

    def test_fig_scale_parameters_hit_tolerance(self):
        p = GenParams(n=100, mu_t=0.1, mu_w=0.1, seed=9)
        net = generate(p)
        assert abs(net.achieved_mu_t - 0.1) <= 0.02
        mu_t, mu_w = measured_mixing(net.graph, net.truth)
        assert mu_t == net.achieved_mu_t
        assert mu_w == net.achieved_mu_w

    def test_mu_zero_gives_component_communities(self):
        p = GenParams(n=60, mu_t=0.0, mu_w=0.0, avg_k=6.0, k_max=10,
                      s_min=15, s_max=30, seed=3)
        net = generate(p)
        mu_t, _ = measured_mixing(net.graph, net.truth)
        assert mu_t == 0.0

    def test_achieved_values_recomputable(self):
        p = GenParams(n=80, mu_t=0.4, mu_w=0.6, avg_k=10.0, k_max=20, seed=21)
        net = generate(p)
        assert measured_mixing(net.graph, net.truth) == \
            (net.achieved_mu_t, net.achieved_mu_w)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GenParams(n=3, mu_t=0.1, mu_w=0.1)
        with pytest.raises(ValueError):
            GenParams(n=100, mu_t=1.2, mu_w=0.1)
        with pytest.raises(ValueError):
            GenParams(n=100, mu_t=0.1, mu_w=0.1, avg_k=60.0)  # >= k_max
        with pytest.raises(ValueError):
            GenParams(n=100, mu_t=0.1, mu_w=0.1, tau1=1.0)
        with pytest.raises(ValueError):
            GenParams(n=100, mu_t=0.1, mu_w=0.1, beta=0.0)

    def test_failure_names_stage(self):
        # all-external targets with mu_w pinned to zero conflict in the
        # weight fit; community sizes that cannot exist fail earlier
        p = GenParams(n=20, mu_t=0.1, mu_w=0.1, avg_k=4.0, k_max=8,
                      s_min=19, s_max=19, seed=0)
        with pytest.raises(GenerationError) as err:
            generate(p)
        assert err.value.stage in ("community_sizes", "assignment", "topology")
