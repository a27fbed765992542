"""Randomized invariant suites, runnable standalone:

    pytest tests/test_properties.py

Each suite draws at least 500 seeded cases, except the comparison of whole
detector runs with their reference inner loops and the check of COPRA's
settling steps, which take three generated n=100 networks each. Weight-scale
checks use power-of-two factors for the bit-identical detector assertions
(exact in floating point) and general factors for the metric tolerances.
"""

import math
import re

import numpy as np
import pytest

from commselect import (BinarySVM, CopraConfig, FeatureVector, GenParams,
                        Graph, InfomapConfig, Partition, SelectorModel, copra,
                        copra_detect, decision_margins, generate, infomap,
                        infomap_detect, local_clustering, map_equation,
                        mean_clustering, modularity, nmi, parse_edge_list,
                        predict, visit_rates)
from commselect.seeds import spawn_rng
from commselect.selector import PAIR_ORDER
from conftest import random_graph
from oracles import (clustering_uw_reference, clustering_w_reference,
                     edge_list_reference, local_move_reference,
                     propagate_step_reference, split_reference, vote_reference)

CASES = 500
# (mu_t, mu_w, seed) of n=100 networks on which every weighted COPRA run
# tried oscillates: two node groups swap labels at every synchronous step
OSCILLATING = ((0.1, 0.6, 1), (0.8, 0.3, 2), (0.2, 0.8, 3))


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
        c_uw, c_w = local_clustering(g)
        for v in range(g.n):
            assert c_w[v] == c_uw[v]


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
        c_uw, c_w = local_clustering(g)
        for x in range(g.n):
            assert c_uw[x] == pytest.approx(clustering_uw_reference(g, x),
                                            rel=1e-12, abs=0.0)
            assert c_w[x] == pytest.approx(clustering_w_reference(g, x),
                                           rel=1e-12, abs=0.0)
            if g.degrees[x] < 2:
                assert c_uw[x] == c_w[x] == 0.0
        summary = mean_clustering(g)
        assert summary.c_uw == pytest.approx(np.mean(c_uw), abs=1e-15)
        assert summary.c_w == pytest.approx(np.mean(c_w), abs=1e-15)
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
        assert mean_clustering(g).c_uw == pytest.approx(
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


# the kinds of fault an edge-list error can name: three that Graph finds in
# the edges, six in the tokens, and a declared count the ids do not meet
EDGE_LIST_FAULTS = ("self-loop", "non-positive weight", "duplicate edge",
                    "expected 'u v [w]'", "malformed node id",
                    "node id out of range", "malformed weight",
                    "negative node count", "bad node count comment",
                    "nodes declared")


def edge_list_fault(message):
    """(line number, kind) named by an edge-list error."""
    number = re.match(r"line (\d+): ", message)
    kinds = [k for k in EDGE_LIST_FAULTS if k in message]
    assert number and len(kinds) == 1, message
    return int(number.group(1)), kinds[0]


def faulty_line(rng, kind, ids, lines):
    """One line holding a fault of the given kind (an index into
    EDGE_LIST_FAULTS, but for the last), on ids of the file."""
    a, b = (int(x) for x in rng.choice(ids, 2, replace=False))
    if kind == 0:
        return f"{a} {a} 1.5"
    if kind == 1:
        return f"{a}\t{b}\t{rng.choice(['0', '-0.0', '-1.5', 'nan'])}"
    if kind == 2:
        u, v = lines[int(rng.integers(len(lines)))].split()[:2]
        return " ".join([v, u] if rng.random() < 0.5 else [u, v]) + " 2.5"
    if kind == 3:
        return f"{a} {b} 1.0 7"
    if kind == 4:
        return rng.choice([f"{a} x{b}", f"{a}.5 {b} 1.0", f"{a} 0x{b}"])
    if kind == 5:
        return rng.choice([f"-{a + 1} {b}", f"{a} {2 ** 63 + b} 1.0"])
    if kind == 6:
        return rng.choice([f"{a} {b} abc", f"{a} {b} 1,5"])
    if kind == 7:
        return f"# nodes -{a + 1}"
    return f"# nodes {a}.5"


def test_parser_names_first_fault():
    """Random edge-list files, with ids as node indices or as sparse labels,
    with or without ``# nodes N``, comments, blank lines and missing
    weights, carry zero, one or two faults of different kinds on random
    lines, and some declared counts miss the ids by one. The parser names
    the line and the kind of fault that the line-by-line reference names
    first, and parses a clean file as the reference does."""
    won, masked = {}, 0
    for case in range(CASES):
        rng = case_rng(10, case)
        g = random_graph(rng, int(rng.integers(3, 12)), p=0.5)
        if rng.random() < 0.5:
            ids = np.arange(g.n)
            declared = g.n
        else:
            high = int(rng.choice([50, 10 ** 6]))
            ids = (rng.choice(high, size=g.n, replace=False)
                   + rng.choice([0, 2 ** 63 - high]))
            declared = int(np.count_nonzero(g.degrees))
        sep = rng.choice([" ", "\t", "  ", " \t "])
        lines = [f"{ids[u]}{sep}{ids[v]}" + (f"{sep}{w!r}" if rng.random() < 0.8
                                              else "")
                 for u, v, w in scrambled_edges(rng, g)]
        # a count that may miss the ids by one
        declared += int(rng.choice([0, 0, 0, 0, 1, -1]))
        extras = ["# a comment", "", "   "] + (
            [rng.choice([f"# nodes {declared}", f"#\tnodes {declared}"])]
            if rng.random() < 0.5 else [])
        kinds = rng.choice(9, size=int(rng.integers(3)), replace=False)
        extras += [faulty_line(rng, int(k), ids, lines) for k in kinds]
        for extra in extras:
            lines.insert(int(rng.integers(len(lines) + 1)), extra)
        text = "\n".join(lines) + rng.choice(["", "\n"])
        try:
            n, rows, labels = edge_list_reference(text)
        except ValueError as exc:
            expected = edge_list_fault(str(exc))
            with pytest.raises(ValueError) as err:
                parse_edge_list(text)
            assert edge_list_fault(str(err.value)) == expected, text
            won[expected[1]] = won.get(expected[1], 0) + 1
            # an edge fault met before a line that does not scan
            masked += (EDGE_LIST_FAULTS.index(expected[1]) < 3
                       and any(k >= 3 for k in kinds))
        else:
            assert kinds.size == 0, text
            g = parse_edge_list(text)
            assert g == Graph(n, rows) and g.labels == labels
    assert min(won.get(k, 0) for k in EDGE_LIST_FAULTS) >= 15, won
    assert masked >= 20, masked


def same_stream_position(a, b) -> bool:
    """Whether two generators go on to draw the same values, including a
    buffered 32-bit half word."""
    return (np.array_equal(a.integers(0, 2 ** 31, size=3),
                           b.integers(0, 2 ** 31, size=3))
            and np.array_equal(a.random(3), b.random(3)))


def test_predict_matches_vote_reference():
    """On random models and features ``predict`` gives the reference vote.
    Half the models draw weights and biases from -1, 0 and 1, so some
    features at the training mean (x = 0) meet a zero bias, giving a decision
    of exactly 0, and some 1-1-1 splits tie on |decision|; the classifiers
    come in a random order."""
    at_zero = tied_splits = 0
    for case in range(CASES):
        rng = case_rng(15, case)
        mean = tuple(float(x) for x in rng.uniform(0.1, 0.9, 2))
        std = tuple(float(x) for x in rng.uniform(0.05, 2.0, 2))
        if rng.random() < 0.5:
            params = rng.choice([-1.0, 0.0, 1.0], size=(3, 3))
        else:
            params = rng.normal(0.0, 2.0, size=(3, 3))
        svms = tuple(BinarySVM(weights=(float(params[i, 0]),
                                        float(params[i, 1])),
                               bias=float(params[i, 2]),
                               positive_class=PAIR_ORDER[i][0],
                               negative_class=PAIR_ORDER[i][1])
                     for i in rng.permutation(3))
        model = SelectorModel(svms=svms, feature_mean=mean, feature_std=std)
        f = FeatureVector(*(mean if rng.random() < 0.3
                            else (float(x) for x in rng.uniform(0, 1, 2))))
        assert predict(model, f) == vote_reference(model, f.c_uw, f.c_w)
        margins = list(decision_margins(model, f).values())
        votes = {svm.positive_class if d >= 0 else svm.negative_class
                 for svm, d in zip(model.svms, margins)}
        size = np.sort(np.abs(margins))
        at_zero += bool(size[0] == 0.0)
        tied_splits += len(votes) == 3 and bool(size[2] == size[1])
    assert at_zero >= CASES // 10 and tied_splits >= 10


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


def test_split_matches_reference():
    """The numpy split of a labelling into connected communities returns
    exactly the depth-first reference's partition, with a few labels shared
    across components, with many labels, and with labels near 2^60; enough
    cases hold a label that is split."""
    split = 0
    for case in range(CASES):
        rng = case_rng(14, case)
        n = int(rng.integers(1, 40))
        g = random_graph(rng, n, p=float(rng.uniform(0.02, 0.4)),
                         weighted=False, ensure_edge=False)
        many = bool(rng.integers(2))
        labels = rng.integers(0, 3 * n if many else int(rng.integers(1, 4)),
                              size=n)
        if rng.random() < 0.1:
            labels += 2 ** 60
        got = copra._split_into_communities(g, labels)
        assert got == Partition(split_reference(g, labels)), case
        split += got.community_count > np.unique(labels).size
    assert split >= CASES // 4


def inside_weight(g, labels) -> float:
    """Summed weight of the links whose ends share a label."""
    u, v, w = g.edge_arrays()
    return math.fsum(w[labels[u] == labels[v]].tolist())


def test_settling_raises_inside_weight(monkeypatch):
    """On generated n=100 weighted networks whose synchronous steps
    oscillate, and with a cap of 2 steps, every step of a run from its first
    repeated state (or from the cap) strictly raises the weight of links
    inside labels, and of two linked nodes that both move in such a step,
    neither takes the other's old label."""
    step, settled = copra.propagate_step, 0
    for mu_t, mu_w, seed in OSCILLATING:
        g = generate(GenParams(n=100, mu_t=mu_t, mu_w=mu_w, seed=seed)).graph
        for cfg in (CopraConfig(), CopraConfig(max_iters=2)):
            for run in range(10):
                states = []

                def record(*args):
                    states.append(args[1].copy())
                    return step(*args)

                with monkeypatch.context() as patch:
                    patch.setattr(copra, "propagate_step", record)
                    copra.run_once(g, cfg, spawn_rng(seed, run))
                first = next((i for i in range(2, len(states))
                              if np.array_equal(states[i], states[i - 2])),
                             cfg.max_iters)
                case = (mu_t, mu_w, seed, cfg.max_iters, run)
                weight = [inside_weight(g, x) for x in states[first:]]
                assert all(a < b for a, b in zip(weight, weight[1:])), case
                u, v, _ = g.edge_arrays()
                for old, new in zip(states[first:], states[first + 1:]):
                    both = (new[u] != old[u]) & (new[v] != old[v])
                    assert not ((new[u] == old[v]) | (new[v] == old[u]))[
                        both].any(), case
                settled += len(weight) > 2
    assert settled == 2 * 10 * len(OSCILLATING)


def infomap_case(case, monkeypatch):
    """A random graph, the case's generator after drawing it, and what one
    Infomap restart on it passes through: the (level graph, visit rates,
    modules) of each level's node moving, and the graph and result of each
    contraction."""
    rng = case_rng(11, case)
    g = random_graph(rng, int(rng.integers(2, 30)),
                     p=float(rng.uniform(0.05, 0.7)),
                     weighted=bool(rng.integers(2)))
    moves, contractions = [], []
    move, contract = infomap._local_move, infomap._contract

    def record_move(level_g, rate, start, rngs, tol):
        module = move(level_g, rate, start, rngs, tol)
        moves.append((level_g, rate, module))
        return module

    def record_contract(level_g, rate, module, keep):
        up = contract(level_g, rate, module, keep)
        contractions.append((level_g, up))
        return up

    with monkeypatch.context() as patch:
        patch.setattr(infomap, "_local_move", record_move)
        patch.setattr(infomap, "_contract", record_contract)
        infomap_detect(g, InfomapConfig(seed=int(rng.integers(2 ** 32)),
                                        outer_passes=1))
    return rng, g, moves, contractions


def one_copy(level_g):
    """Copy bounds of a level that holds a single copy."""
    return np.array([0, level_g.n])


def union_of(levels):
    """The disjoint union of (level graph, visit rates) pairs: (graph, rates,
    first node of each copy and the node count)."""
    start = np.cumsum([0] + [g.n for g, _ in levels])
    edges = [(a + lo, b + lo, w) for (g, _), lo in zip(levels, start)
             for a, b, w in g.edges]
    return (Graph(int(start[-1]), edges),
            np.concatenate([rate for _, rate in levels]), start)


def copy_of(g, rate, start, c):
    """Copy c of a union level, as a (level graph, visit rates) pair."""
    lo, hi = int(start[c]), int(start[c + 1])
    return (Graph(hi - lo, [(a - lo, b - lo, w) for a, b, w in g.edges
                            if lo <= a < hi]), rate[lo:hi])


def union_move_reference(g, rate, start, rngs, tol):
    """``local_move_reference`` run on each copy of a union level alone."""
    return np.concatenate([
        start[c] + local_move_reference(*copy_of(g, rate, start, c), rng, tol)
        for c, rng in enumerate(rngs)])


def test_local_move_matches_reference(monkeypatch):
    """Infomap's batched node moving returns the module of each node that
    the reference's plain loop over the nodes and moves of each round
    returns, on base levels built by ``detect`` and on levels contracted by
    ``_contract``, and draws the same permutations."""
    contracted = 0
    for case in range(CASES):
        rng, _, moves, _ = infomap_case(case, monkeypatch)
        level_g, rate, _ = moves[0]
        if rng.random() < 0.3 and len(moves) > 1:
            level_g, rate, _ = moves[1]
            contracted += 1
        tol = float(rng.choice([1e-10, 1e-3]))
        seed = int(rng.integers(2 ** 32))
        ref_rng = np.random.default_rng(seed)
        new_rng = np.random.default_rng(seed)
        got = infomap._local_move(level_g, rate, one_copy(level_g),
                                  [new_rng], tol)
        assert np.array_equal(
            got, local_move_reference(level_g, rate, ref_rng, tol)), case
        assert same_stream_position(ref_rng, new_rng), case
    assert contracted >= CASES // 4


def test_union_local_move_matches_reference(monkeypatch):
    """On a union of levels of the local-move suite, of unequal sizes, each
    with its own generator, every copy's modules are the reference's on
    that copy alone, and every generator ends where the reference's does."""
    for case in range(0, CASES, 5):
        levels = []
        for k in range(case, case + 5):
            rng, _, moves, _ = infomap_case(k, monkeypatch)
            levels.append(moves[int(rng.integers(len(moves)))][:2])
        g, rate, start = union_of(levels)
        tol = float(case_rng(13, case).choice([1e-10, 1e-3]))
        seeds = case_rng(13, case).integers(2 ** 32, size=len(levels))
        ref_rngs = [np.random.default_rng(s) for s in seeds]
        new_rngs = [np.random.default_rng(s) for s in seeds]
        got = infomap._local_move(g, rate, start, new_rngs, tol)
        for c, ref_rng in enumerate(ref_rngs):
            want = local_move_reference(*copy_of(g, rate, start, c), ref_rng,
                                        tol)
            assert np.array_equal(got[start[c]:start[c + 1]] - start[c],
                                  want), (case, c)
            assert same_stream_position(ref_rng, new_rngs[c]), (case, c)


def test_local_move_rounds_lower_code_length(monkeypatch):
    """On every level of the local-move suite, base and contracted: each
    round of node moving that is kept lowers the map equation of the base
    partition the level's modules stand for by more than ``MOVE_TOLERANCE``;
    every code length the move computes equals that map equation plus the
    node term sum_v plogp(p_v), within 1e-12; and in the returned modules
    no single node's move to an adjacent module, checked one by one with
    ``map_equation``, lowers it by more than ``MOVE_TOLERANCE`` + 1e-12."""
    tol = infomap.MOVE_TOLERANCE
    code_length = infomap._module_code_length
    kept = contracted = 0
    for case in range(CASES):
        _, g, moves, contractions = infomap_case(case, monkeypatch)
        rates = visit_rates(g)
        rates = rates[rates > 0.0]  # isolated nodes are never visited
        node_term = float((rates * np.log2(rates)).sum())
        assignment = np.arange(g.n)  # base node -> node of the level
        for k, (level_g, rate, _) in enumerate(moves):
            if k:
                assignment = contractions[k - 1][1][2][assignment]

            def base_length(module):
                return map_equation(g, Partition.from_labels(
                    np.asarray(module)[assignment]))

            tracked = []

            def record(*args):
                out = code_length(*args)
                tracked.append((args[4].copy(), float(out[0][0, 0])))
                return out

            with monkeypatch.context() as patch:
                patch.setattr(infomap, "_module_code_length", record)
                module = infomap._local_move(level_g, rate,
                                             one_copy(level_g),
                                             [case_rng(12, case)], tol)
            for tried, length in tracked:
                assert length - node_term == pytest.approx(
                    base_length(tried), abs=1e-12), (case, k)
            current, current_length = tracked[0]
            for tried, length in tracked[1:]:
                if length < current_length - tol:
                    assert base_length(tried) < base_length(current) - tol
                    current, current_length = tried, length
                    kept += 1
            assert np.array_equal(current, module), (case, k)
            length = base_length(module)
            for v in range(level_g.n):
                for b in {module[x] for x, _ in level_g.neighbors(v)}:
                    moved = module.copy()
                    moved[v] = b
                    assert base_length(moved) > length - tol - 1e-12, \
                        (case, k, v, b)
            contracted += k > 0
    assert contracted >= CASES
    assert kept >= 2 * CASES


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
        for k, (moved_g, rate, module) in enumerate(moves):
            assert rate.sum() == pytest.approx(1.0, abs=1e-12), case
            module = np.asarray(module)
            composed = Partition.from_labels(module[assignment])
            composed_length = map_equation(g, composed)
            assert composed_length <= length, (case, k)
            length = composed_length
            if k == len(contractions):
                break
            level_g, (up_g, up_rate, dense) = contractions[k]
            assert level_g is moved_g, case
            assert up_g is moves[k + 1][0] and up_rate is moves[k + 1][1], case
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
            patch.setattr(infomap, "_local_move", union_move_reference)
            want = ([copra_detect(g, cfg) for cfg in copra_cfgs]
                    + [infomap_detect(g, cfg) for cfg in info_cfgs])
        assert got == want, (mu_t, mu_w)


def test_link_budget_does_not_change_partitions(monkeypatch):
    """On the networks of the reference-loop comparison, weighted and
    unweighted, Infomap returns the same partitions whether all restarts
    share one union level, two share each union, or each runs alone."""
    cfgs = [InfomapConfig(seed=7, weighted=w) for w in (True, False)]
    for mu_t, mu_w in ((0.2, 0.2), (0.5, 0.3), (0.7, 0.7)):
        g = generate(GenParams(n=100, mu_t=mu_t, mu_w=mu_w, seed=11)).graph
        got = []
        for per_union in (cfgs[0].outer_passes, 2, 1):
            with monkeypatch.context() as patch:
                patch.setattr(infomap, "LINK_BUDGET",
                              per_union * g.edge_count)
                got.append([infomap_detect(g, cfg) for cfg in cfgs])
        assert got[0] == got[1] == got[2], (mu_t, mu_w)
