"""Two-level map-equation community detection.

A partition is scored by the expected per-step description length of a random
walk under a two-level codebook (one index codebook across modules, one
codebook per module). On an undirected graph the walk's stationary visit rate
of a node is its strength over twice the total edge weight, so the code length
has a closed form and the search reduces to minimising it. The optimizer
moves nodes in batches with agglomeration and seeded random restarts; each
level is a ``Graph`` of links in rate units plus a vector of visit rates.
A round of node moving is numpy work over the (node, neighbour module)
pairs of the level: it scores every node's best move at once, applies a
batch of them in which no module both loses and gains nodes, and keeps the
batch only when the exact code length, recomputed in O(m), falls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (Graph, Partition, neighbour_label_sums, runs,
                    with_unit_weights)
from .seeds import check_seed, spawn_rng

# bits; the smallest code-length gain a move must make. At 0, detect was seen
# never to return: a node moved back and forth on gains made by rounding
MOVE_TOLERANCE = 1e-10


def _plogp(x):
    """x log2 x of each entry of x, and 0 where x <= 0."""
    x = np.asarray(x, dtype=np.float64)
    log = np.zeros_like(x)
    np.log2(x, out=log, where=x > 0.0)
    return x * log


def _sum_plogp(x: np.ndarray) -> float:
    return float(_plogp(x).sum())


@dataclass(frozen=True)
class InfomapConfig:
    """Optimizer settings for map-equation detection."""
    seed: int = 0
    outer_passes: int = 10
    weighted: bool = True

    def __post_init__(self):
        check_seed(self.seed)
        if self.outer_passes < 1:
            raise ValueError("outer_passes must be >= 1")


def visit_rates(g: Graph) -> np.ndarray:
    """Stationary visit rates p_v = strength(v) / (2 W) of the weighted walk."""
    if g.edge_count == 0:
        raise ValueError("visit rates undefined on an edgeless graph")
    return g.strengths / (2.0 * g.total_weight)


def map_equation(g: Graph, p: Partition) -> float:
    """Two-level code length L(M) of partition p on g, in bits.

    L(M) = q H(Q) + sum_m p_m H(P_m), with module exit rates
    q_m = (weight leaving m) / 2W, q = sum_m q_m, p_m = q_m + sum_{v in m} p_v,
    H(Q) the entropy of {q_m / q} and H(P_m) the entropy of
    {q_m / p_m} plus {p_v / p_m}. Empty terms contribute zero. Expanding
    the entropies gives the form summed here, with plogp(x) = x log2 x:
    L = plogp(q) - 2 sum_m plogp(q_m) + sum_m plogp(p_m) - sum_v plogp(p_v).
    """
    if p.n != g.n:
        raise ValueError(f"partition covers {p.n} nodes, graph has {g.n}")
    if g.edge_count == 0:
        return 0.0
    u, v, w = g.edge_arrays()
    rates = visit_rates(g)
    length, _, _ = _module_code_length(u, v, w / (2.0 * g.total_weight), rates,
                                       p.membership, p.community_count)
    return length - _sum_plogp(rates)


def _module_code_length(u, v, w, rate, module, size):
    """(L + sum_v plogp(p_v), exit rate q_m of each module, summed visit
    rate of each module's nodes) for the partition ``module`` of a level with
    links (u, v, w) in rate units and node visit rates ``rate``; ``size``
    bounds the module ids. The node term added to L is the same for every
    partition of the level's nodes, and contracting a level leaves the sum
    unchanged, since a module keeps its exit and visit rates.
    """
    cross = module[u] != module[v]
    exits = w[cross]
    q_mod = (np.bincount(module[u][cross], exits, size)
             + np.bincount(module[v][cross], exits, size))
    visits = np.bincount(module, rate, size)
    length = (_sum_plogp(q_mod.sum()) - 2.0 * _sum_plogp(q_mod)
              + _sum_plogp(q_mod + visits))
    return length, q_mod, visits


def _best_moves(g: Graph, rate: np.ndarray, module: np.ndarray,
                q_mod: np.ndarray, visits: np.ndarray, tol: float):
    """(node, target module, delta) of each node's best move to an adjacent
    module, by ascending node, where that delta is below ``-tol``. The
    smallest module id wins among equal deltas. ``q_mod`` and ``visits``
    are the exit and summed visit rates of each module of ``module``."""
    node, target, _, k_in = neighbour_label_sums(g, module)
    own = target == module[node]
    k_own = np.zeros(g.n)  # rate on each node's links inside its module
    k_own[node[own]] = k_in[own]
    node, target, k_in = node[~own], target[~own], k_in[~own]
    start, size = runs(node)
    # the terms of leaving the source module, once per node
    mover = node[start]
    source = module[mover]
    d_v, p_v, k_out = g.strengths[mover], rate[mover], k_own[mover]
    sum_q = q_mod.sum()
    plp_q, plp_qp = _plogp(q_mod), _plogp(q_mod + visits)
    q_a = q_mod[source] - d_v + 2.0 * k_out
    # module-rate terms use q_m + p_m: the module codebook is read once per
    # exit as well as once per node visit
    leave = (-2.0 * (_plogp(q_a) - plp_q[source])
             + _plogp(q_a + visits[source] - p_v) - plp_qp[source])
    owner = np.repeat(np.arange(start.size), size)  # pair -> its mover
    q_b = q_mod[target] + d_v[owner] - 2.0 * k_in
    delta = (_plogp(sum_q + 2.0 * (k_out[owner] - k_in)) - _plogp(sum_q)
             + leave[owner]
             - 2.0 * (_plogp(q_b) - plp_q[target])
             + _plogp(q_b + visits[target] + p_v[owner]) - plp_qp[target])
    best = np.minimum.reduceat(delta, start)
    at_best = np.flatnonzero(delta == np.repeat(best, size))
    # pairs are sorted by module within a node: the first is the smallest
    pick = at_best[runs(node[at_best])[0]][best < -tol]
    return node[pick], target[pick], delta[pick]


def _local_move(g: Graph, rate: np.ndarray, rng, tol: float) -> np.ndarray:
    """Batched node moving on one level; returns the module of each node.

    Every node starts in a module of its own. Each round takes the best
    moves of ``_best_moves`` in the order of one ``rng.permutation`` draw,
    and each module takes the role, source or target, of the first of them
    that names it. The batch is the moves whose source and target both kept
    the role the move needs, so no module of the batch both loses and gains
    nodes. The exact code length of the moved state is then computed; when
    it did not fall by more than ``tol``, the half of the batch with the
    largest gains is tried in its place. Moving stops when no node has an
    improving move, or when a batch of one move fails.
    """
    u, v, w = g.edge_arrays()
    module = np.arange(g.n)
    length, q_mod, visits = _module_code_length(u, v, w, rate, module, g.n)
    while True:
        node, target, delta = _best_moves(g, rate, module, q_mod, visits, tol)
        if not node.size:
            return module
        order = rng.permutation(node.size)
        node, target, delta = node[order], target[order], delta[order]
        source = module[node]
        named, first = np.unique(np.column_stack((source, target)),
                                 return_index=True)
        is_source = np.zeros(g.n, dtype=bool)
        is_source[named] = first % 2 == 0
        batch = np.flatnonzero(is_source[source] & ~is_source[target])
        while True:
            moved = module.copy()
            moved[node[batch]] = target[batch]
            new_length, new_q, new_visits = _module_code_length(
                u, v, w, rate, moved, g.n)
            if new_length < length - tol:
                break
            if batch.size == 1:
                return module
            keep = (batch.size + 1) // 2
            batch = batch[np.argsort(delta[batch], kind="stable")[:keep]]
        module, length, q_mod, visits = moved, new_length, new_q, new_visits


def _contract(g: Graph, rate: np.ndarray, module):
    """Merge modules into super-nodes: (level graph, visit rates, dense module
    of each node). Rates keep the flow of the links inside each module."""
    dense = Partition.from_labels(module).membership
    nc = int(dense.max()) + 1
    u, v, w = g.edge_arrays()
    lo, hi = np.minimum(dense[u], dense[v]), np.maximum(dense[u], dense[v])
    cross = lo != hi
    keys, link = np.unique(lo[cross] * nc + hi[cross], return_inverse=True)
    edges = np.column_stack((keys // nc, keys % nc,
                             np.bincount(link, w[cross], keys.size)))
    return Graph(nc, edges), np.bincount(dense, rate, nc), dense


def _optimize_once(g: Graph, rate: np.ndarray, rng) -> Partition:
    """Modules of the base nodes after moving and agglomerating to a halt."""
    assignment = np.arange(g.n)  # base node -> node of the current level
    while True:
        module = _local_move(g, rate, rng, MOVE_TOLERANCE)
        if np.unique(module).size == g.n:
            return Partition.from_labels(assignment)
        g, rate, dense = _contract(g, rate, module)
        assignment = dense[assignment]


def detect(g: Graph, cfg: InfomapConfig) -> Partition:
    """Minimise the map equation by batched moving + agglomeration restarts.

    Runs ``cfg.outer_passes`` seeded restarts and returns the partition with
    the smallest code length (earliest restart wins ties). With
    ``weighted=False`` the graph's weights are ignored. An edgeless graph
    yields all-singleton communities.
    """
    if g.n == 0:
        raise ValueError("cannot partition a graph with zero nodes")
    if g.edge_count == 0:
        return Partition(list(range(g.n)))
    work = g if cfg.weighted else with_unit_weights(g)
    # the base level, links in rate units w / 2W, is shared by the restarts
    u, v, w = work.edge_arrays()
    base = Graph(work.n, np.column_stack((u, v, w / (2.0 * work.total_weight))))
    rate = visit_rates(work)
    parts = (_optimize_once(base, rate, spawn_rng(cfg.seed, r))
             for r in range(cfg.outer_passes))
    # min keeps the first of equal code lengths
    return min(parts, key=lambda part: map_equation(work, part))
