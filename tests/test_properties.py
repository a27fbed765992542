"""Randomized invariant suites, runnable standalone:

    pytest tests/test_properties.py

Each suite draws at least 500 seeded cases, except the comparison of whole
detector runs with their reference inner loops, which takes three generated
n=100 networks. Weight-scale checks use power-of-two factors for the
bit-identical detector assertions (exact in floating point) and general
factors for the metric tolerances.
"""

import numpy as np
import pytest

from commselect import (CopraConfig, GenParams, Graph, InfomapConfig,
                        Partition, copra, copra_detect, generate, infomap,
                        infomap_detect, local_clustering_uw,
                        local_clustering_w, map_equation, mean_clustering,
                        modularity, nmi)
from conftest import random_graph
from oracles import (clustering_uw_reference, clustering_w_reference,
                     local_move_reference, propagate_step_reference)

CASES = 500


def case_rng(suite: int, case: int):
    return np.random.default_rng(np.random.SeedSequence(987, spawn_key=(suite, case)))


def small_cfgs(seed):
    return (CopraConfig(seed=seed, runs=3, max_iters=40),
            InfomapConfig(seed=seed, outer_passes=2))


def test_uniform_weight_equivalence():
    """On unit-weight graphs the weighted and unweighted detector variants
    are bit-identical for every seed."""
    for case in range(CASES):
        rng = case_rng(1, case)
        g = random_graph(rng, int(rng.integers(4, 11)), p=0.45, weighted=False)
        seed = int(rng.integers(2 ** 32))
        copra_cfg, info_cfg = small_cfgs(seed)
        from dataclasses import replace
        assert copra_detect(g, replace(copra_cfg, weighted=True)) == \
            copra_detect(g, replace(copra_cfg, weighted=False))
        assert infomap_detect(g, replace(info_cfg, weighted=True)) == \
            infomap_detect(g, replace(info_cfg, weighted=False))


def test_weight_scale_invariance():
    """Scaling every weight by c > 0 changes neither metric values (within
    1e-12) nor seeded detector outputs (bit-identical for exact scalings)."""
    from dataclasses import replace
    for case in range(CASES):
        rng = case_rng(2, case)
        g = random_graph(rng, int(rng.integers(4, 11)), p=0.5, weighted=True)
        p = Partition.from_labels(rng.integers(0, 3, size=g.n))
        c_general = float(10.0 ** rng.uniform(-2, 2))
        scaled_g = Graph(g.n, [(u, v, w * c_general) for u, v, w in g.edges])
        assert modularity(scaled_g, p) == pytest.approx(
            modularity(g, p), abs=1e-12)
        assert map_equation(scaled_g, p) == pytest.approx(
            map_equation(g, p), abs=1e-12)

        c_exact = float(2.0 ** rng.integers(-6, 8))
        exact_g = Graph(g.n, [(u, v, w * c_exact) for u, v, w in g.edges])
        seed = int(rng.integers(2 ** 32))
        copra_cfg, info_cfg = small_cfgs(seed)
        assert copra_detect(exact_g, copra_cfg) == copra_detect(g, copra_cfg)
        assert infomap_detect(exact_g, info_cfg) == infomap_detect(g, info_cfg)


def test_weighted_clustering_reduces_to_unweighted():
    """With all weights equal the weighted coefficient equals the unweighted
    one at every node (exactly, for power-of-two weights)."""
    for case in range(CASES):
        rng = case_rng(3, case)
        g0 = random_graph(rng, int(rng.integers(3, 14)), p=0.4, weighted=False)
        w = float(2.0 ** rng.integers(-3, 4))
        g = Graph(g0.n, [(u, v, w) for u, v, _ in g0.edges])
        for v in range(g.n):
            assert local_clustering_w(g, v) == local_clustering_uw(g, v)


def test_nmi_symmetry_and_relabel_invariance():
    for case in range(CASES):
        rng = case_rng(4, case)
        n = int(rng.integers(3, 40))
        a = Partition.from_labels(rng.integers(0, 5, size=n))
        b = Partition.from_labels(rng.integers(0, 5, size=n))
        ab = nmi(a, b)
        assert nmi(b, a) == pytest.approx(ab, abs=1e-12)
        assert 0.0 <= ab <= 1.0
        # relabeling either side must not move the value
        perm = rng.permutation(a.community_count)
        relabeled = Partition.from_labels([int(perm[c]) for c in a.membership])
        assert nmi(relabeled, b) == pytest.approx(ab, abs=1e-12)
        if a.community_count > 1:
            assert nmi(a, a) == 1.0


def test_generator_determinism():
    """generate() is a pure function of its parameters."""
    for case in range(CASES):
        rng = case_rng(5, case)
        params = GenParams(
            n=int(rng.integers(36, 61)),
            mu_t=float(rng.uniform(0.35, 0.6)),
            mu_w=float(rng.uniform(0.1, 0.7)),
            avg_k=8.0,
            k_max=14,
            beta=float(rng.uniform(0.5, 2.0)),
            seed=int(rng.integers(2 ** 32)),
        )
        a = generate(params)
        b = generate(params)
        assert a.graph == b.graph
        assert a.truth == b.truth
        assert (a.achieved_mu_t, a.achieved_mu_w) == \
            (b.achieved_mu_t, b.achieved_mu_w)


def scrambled_edges(rng, g):
    """g's edge triples in random order, each in a random orientation."""
    edges = [(v, u, w) if rng.random() < 0.5 else (u, v, w)
             for u, v, w in g.edges]
    return [edges[i] for i in rng.permutation(len(edges))]


def test_graph_storage_agrees_with_edges():
    """The edge arrays are sorted u < v pairs, the CSR rows list each node's
    neighbours in ascending order, and both agree with ``edges``; strengths
    and the total weight equal sums taken one weight at a time."""
    for case in range(CASES):
        rng = case_rng(6, case)
        g0 = random_graph(rng, int(rng.integers(1, 16)),
                          p=float(rng.uniform(0.0, 1.0)), ensure_edge=False)
        n = g0.n + int(rng.integers(0, 3))  # trailing isolated nodes
        g = Graph(n, scrambled_edges(rng, g0))
        u, v, w = g.edge_arrays()
        assert (u < v).all()
        keys = u * n + v
        assert (np.diff(keys) > 0).all()
        assert g.edges == tuple(zip(u.tolist(), v.tolist(), w.tolist()))
        assert g.edges == g0.edges
        indptr, nbr, wt = g.csr()
        assert indptr[0] == 0 and np.array_equal(np.diff(indptr), g.degrees)
        weight = {}
        for a, b, x in g.edges:
            weight[(a, b)] = weight[(b, a)] = x
        total = 0.0
        for a, b, x in g.edges:
            total += x
        assert g.total_weight == total
        for node in range(n):
            row = nbr[indptr[node]:indptr[node + 1]]
            assert (np.diff(row) > 0).all()
            expected = tuple((b, weight[(node, b)])
                             for b in sorted(b for a, b in weight if a == node))
            assert g.neighbors(node) == expected
            assert tuple(wt[indptr[node]:indptr[node + 1]]) == \
                tuple(x for _, x in expected)
            strength = 0.0
            for _, x in expected:
                strength += x
            assert g.strengths[node] == strength


def test_clustering_matches_brute_force():
    """Both local clustering coefficients equal the pair enumeration of
    their definitions, on sparse to complete graphs; the dense ones need
    several chunks of candidate lookups."""
    several_chunks = 0
    for case in range(CASES):
        rng = case_rng(7, case)
        g = random_graph(rng, int(rng.integers(1, 15)),
                         p=float(rng.uniform(0.05, 1.0)), ensure_edge=False)
        u, v, _ = g.edge_arrays()
        candidates = np.minimum(g.degrees[u], g.degrees[v]).sum()
        several_chunks += bool(candidates > 4 * g.edge_count)
        c_uw = [local_clustering_uw(g, x) for x in range(g.n)]
        c_w = [local_clustering_w(g, x) for x in range(g.n)]
        for x in range(g.n):
            assert c_uw[x] == pytest.approx(clustering_uw_reference(g, x),
                                            rel=1e-12, abs=0.0)
            assert c_w[x] == pytest.approx(clustering_w_reference(g, x),
                                           rel=1e-12, abs=0.0)
            if g.degrees[x] < 2:
                assert c_uw[x] == c_w[x] == 0.0
        summary = mean_clustering(g)
        assert summary.mean_c_uw == pytest.approx(np.mean(c_uw), abs=1e-15)
        assert summary.mean_c_w == pytest.approx(np.mean(c_w), abs=1e-15)
    assert several_chunks >= CASES // 4


def test_clustering_and_modularity_match_networkx():
    """networkx ``average_clustering`` and ``modularity`` as outside
    oracles."""
    nx = pytest.importorskip("networkx")
    for case in range(CASES):
        rng = case_rng(8, case)
        g = random_graph(rng, int(rng.integers(2, 15)),
                         p=float(rng.uniform(0.1, 1.0)))
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_weighted_edges_from(g.edges)
        assert mean_clustering(g).mean_c_uw == pytest.approx(
            nx.average_clustering(h), abs=1e-12)
        p = Partition.from_labels(rng.integers(0, 3, size=g.n))
        groups = [set(members) for members in p.members()]
        assert modularity(g, p) == pytest.approx(
            nx.community.modularity(h, groups, weight="weight"), abs=1e-12)


def test_graph_rejects_bad_edges():
    """A self-loop, an out-of-range id, a non-positive or NaN weight, or a
    pair given twice in either orientation is rejected with a message naming
    it. The edges around the bad one are valid, so it is the only fault; a
    duplicate is named the same whichever copy comes first."""
    for case in range(CASES):
        rng = case_rng(9, case)
        g = random_graph(rng, int(rng.integers(3, 12)), p=0.5)
        edges = scrambled_edges(rng, g)
        a, b, x = edges[int(rng.integers(len(edges)))]
        kind = int(rng.integers(5))
        if kind == 0:
            bad, message = (a, a, x), f"self-loop on node {a}"
        elif kind == 1:
            c = int(rng.choice([-1, g.n, g.n + 7]))
            bad = (a, c, x) if rng.random() < 0.5 else (c, a, x)
            message = f"edge ({bad[0]},{bad[1]}) outside node range [0,{g.n})"
        elif kind == 2:
            y = float(rng.choice([0.0, -1.5, np.nan]))
            bad, message = (a, b, y), f"non-positive weight {y} on edge ({a},{b})"
        else:
            bad = (b, a, 2.0 * x) if kind == 3 else (a, b, x)
            message = f"duplicate edge ({min(a, b)},{max(a, b)})"
        at = int(rng.integers(len(edges) + 1))
        with pytest.raises(ValueError) as err:
            Graph(g.n, edges[:at] + [bad] + edges[at:])
        assert str(err.value) == message


def same_stream_position(a, b) -> bool:
    """Whether two generators go on to draw the same values, including a
    buffered 32-bit half word."""
    return (np.array_equal(a.integers(0, 2 ** 31, size=3),
                           b.integers(0, 2 ** 31, size=3))
            and np.array_equal(a.random(3), b.random(3)))


def test_propagate_step_matches_reference():
    """The sorted-pair step returns the per-node reference's labels and
    leaves the generator where the reference does, with labels small enough
    to pack into one sort key and labels near 2^60 that are not; enough
    cases have a node that keeps a tied label and one that draws among
    tied labels."""
    kept_tie = drew_tie = 0
    for case in range(CASES):
        rng = case_rng(10, case)
        n = int(rng.integers(1, 40))
        g = random_graph(rng, n, p=float(rng.uniform(0.02, 0.9)),
                         weighted=bool(rng.integers(2)), ensure_edge=False)
        if rng.random() < 0.5:  # weights that tie on sums
            g = Graph(n, [(u, v, float(rng.choice([0.5, 1.0, 1.5])))
                          for u, v, _ in g.edges])
        labels = rng.integers(0, int(rng.integers(1, 3 * n + 2)), size=n)
        if rng.random() < 0.1:
            labels += 2 ** 60
        weighted = bool(rng.integers(2))
        seed = int(rng.integers(2 ** 32))
        ref_rng = np.random.default_rng(seed)
        new_rng = np.random.default_rng(seed)
        want = propagate_step_reference(g, labels, weighted, ref_rng)
        got = copra.propagate_step(g, labels, weighted, new_rng)
        assert np.array_equal(got, want), case
        assert same_stream_position(ref_rng, new_rng), case
        peaks = [peak_labels(g, labels, weighted, v) for v in range(n)]
        kept_tie += any(len(p) > 1 and labels[v] in p
                        for v, p in enumerate(peaks))
        drew_tie += any(len(p) > 1 and labels[v] not in p
                        for v, p in enumerate(peaks))
    assert kept_tie >= CASES // 4
    assert drew_tie >= CASES // 2


def peak_labels(g, labels, weighted, v):
    """The most supported labels among v's neighbours."""
    support = {}
    for u, w in g.neighbors(v):
        support[labels[u]] = support.get(labels[u], 0.0) + (w if weighted
                                                            else 1.0)
    return {lab for lab, x in support.items() if x == max(support.values())}


def infomap_case(case, monkeypatch):
    """A random graph, the case's generator after drawing it, and what one
    Infomap restart on it passes through: the (links, visit rates, modules)
    of each level's node moving, and the graph and result of each
    contraction."""
    rng = case_rng(11, case)
    g = random_graph(rng, int(rng.integers(2, 30)),
                     p=float(rng.uniform(0.05, 0.7)),
                     weighted=bool(rng.integers(2)))
    moves, contractions = [], []
    move, contract = infomap._local_move, infomap._contract

    def record_move(links, rate, move_rng, tol):
        module = move(links, rate, move_rng, tol)
        moves.append((links, rate, module))
        return module

    def record_contract(level_g, rate, module):
        up = contract(level_g, rate, module)
        contractions.append((level_g, up))
        return up

    with monkeypatch.context() as patch:
        patch.setattr(infomap, "_local_move", record_move)
        patch.setattr(infomap, "_contract", record_contract)
        infomap_detect(g, InfomapConfig(seed=int(rng.integers(2 ** 32)),
                                        outer_passes=1))
    return rng, g, moves, contractions


def test_local_move_matches_reference(monkeypatch):
    """Infomap's node moving with cached module terms returns the module
    lists of the reference that recomputes every term, on base levels built
    by ``detect`` and on levels contracted by ``_contract``, and draws the
    same visiting orders."""
    contracted = 0
    for case in range(CASES):
        rng, _, moves, _ = infomap_case(case, monkeypatch)
        links, rate, _ = moves[0]
        if rng.random() < 0.3 and len(moves) > 1:
            links, rate, _ = moves[1]
            contracted += 1
        tol = float(rng.choice([1e-10, 1e-3]))
        seed = int(rng.integers(2 ** 32))
        ref_rng = np.random.default_rng(seed)
        new_rng = np.random.default_rng(seed)
        assert infomap._local_move(links, rate, new_rng, tol) == \
            local_move_reference(links, rate, ref_rng, tol), case
        assert same_stream_position(ref_rng, new_rng), case
    assert contracted >= CASES // 4


def test_agglomeration_never_raises_code_length(monkeypatch):
    """On the graphs of the local-move suite, the code length of the base
    partition composed through the levels never rises from one level to the
    next, and ``_contract`` conserves flow: every level's visit rates sum to
    1, and a contracted graph's total weight is the rate on the links between
    modules of the level below."""
    contracted = 0
    for case in range(CASES):
        _, g, moves, contractions = infomap_case(case, monkeypatch)
        assert len(contractions) == len(moves) - 1, case
        assignment = np.arange(g.n)  # base node -> node of the level
        length = map_equation(g, Partition(assignment))
        for k, (links, rate, module) in enumerate(moves):
            assert rate.sum() == pytest.approx(1.0, abs=1e-12), case
            module = np.asarray(module)
            composed = Partition.from_labels(module[assignment])
            composed_length = map_equation(g, composed)
            assert composed_length <= length, (case, k)
            length = composed_length
            if k == len(contractions):
                break
            level_g, (up_g, up_rate, dense) = contractions[k]
            assert infomap._links(level_g) == links, case
            assert up_rate is moves[k + 1][1], case
            u, v, w = level_g.edge_arrays()
            assert up_g.total_weight == pytest.approx(
                w[module[u] != module[v]].sum(), abs=1e-12), case
            assignment = dense[assignment]
            contracted += 1
    assert contracted >= CASES


def test_detectors_match_reference_loops(monkeypatch):
    """Both detectors, weighted and unweighted, return the same partitions
    on generated n=100 networks with the reference inner loops swapped
    in."""
    copra_cfgs = [CopraConfig(seed=7, weighted=w) for w in (True, False)]
    info_cfgs = [InfomapConfig(seed=7, weighted=w) for w in (True, False)]
    for mu_t, mu_w in ((0.2, 0.2), (0.5, 0.3), (0.7, 0.7)):
        g = generate(GenParams(n=100, mu_t=mu_t, mu_w=mu_w, seed=11)).graph
        got = ([copra_detect(g, cfg) for cfg in copra_cfgs]
               + [infomap_detect(g, cfg) for cfg in info_cfgs])
        with monkeypatch.context() as patch:
            patch.setattr(copra, "propagate_step", propagate_step_reference)
            patch.setattr(infomap, "_local_move", local_move_reference)
            want = ([copra_detect(g, cfg) for cfg in copra_cfgs]
                    + [infomap_detect(g, cfg) for cfg in info_cfgs])
        assert got == want, (mu_t, mu_w)
