"""Two-level map-equation community detection.

A partition is scored by the expected per-step description length of a random
walk under a two-level codebook (one index codebook across modules, one
codebook per module). On an undirected graph the walk's stationary visit rate
of a node is its strength over twice the total edge weight, so the code length
has a closed form and the search reduces to minimising it. The optimizer
moves nodes in batched numpy rounds with agglomeration and seeded restarts,
which run side by side as copies in a disjoint union of each level (a
``Graph`` of links in rate units plus visit rates) up to ``LINK_BUDGET``
links. Each copy keeps its own random stream, batches, code length and stop,
so it moves as it would alone.
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

# links per union level: n=100 runs two unions of five restarts (one of ten
# was no faster and held twice the extra memory), n=1000 one at a time
LINK_BUDGET = 1 << 13


def _plogp(x):
    """x log2 x of each entry of x, and 0 where x <= 0."""
    x = np.asarray(x, dtype=np.float64)
    return x * np.log2(np.where(x > 0.0, x, 1.0))  # log2(1) = 0


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
    copies, _ = _module_code_length(u, v, w / (2.0 * g.total_weight), rates,
                                    p.membership, [0, p.community_count], [0])
    return float(copies[0, 0] - _plogp(rates).sum())


def _module_code_length(u, v, w, rate, module, start, copies):
    """Rows L + sum_v plogp(p_v), q and plogp(q) of each of the ``copies``
    (copy c sums its module ids start[c]:start[c+1] alone) and rows q_m,
    plogp(q_m), plogp(q_m + p_m) and p_m of each module, for the partition
    ``module`` of a level with links (u, v, w) in rate units and visit rates
    ``rate``. The node term in L is the same for every partition of the
    level, and contracting keeps it, as a module keeps q_m and p_m."""
    size = start[-1]
    cross = module[u] != module[v]
    exits = w[cross]
    q_mod = (np.bincount(module[u][cross], exits, size)
             + np.bincount(module[v][cross], exits, size))
    visits = np.bincount(module, rate, size)
    rates = np.stack((q_mod, _plogp(q_mod), _plogp(q_mod + visits), visits))
    sum_q, plp, plp_qp = np.array([rates[:3, start[c]:start[c + 1]].sum(1)
                                   for c in copies]).T
    plp_q = _plogp(sum_q)
    return np.stack((plp_q - 2.0 * plp + plp_qp, sum_q, plp_q)), rates


def _best_moves(csr, strengths, rate, module, rates, start, copy_q, tol):
    """(node, target module, delta) of each node's best move to an adjacent
    module, by ascending node, where that delta is below ``-tol``, over CSR
    entries ``csr``; the smallest module id wins among equal deltas."""
    node, target, _, k_in = neighbour_label_sums(*csr, module)
    own = target == module[node]
    k_own = np.zeros(module.size)  # rate on each node's links inside its module
    k_own[node[own]] = k_in[own]
    node, target, k_in = node[~own], target[~own], k_in[~own]
    first, size = runs(node)
    # the terms of leaving the source module, once per node
    mover = node[first]
    source = module[mover]
    d_v, p_v, k_out = strengths[mover], rate[mover], k_own[mover]
    q_mod, plp_q, plp_qp, visits = rates
    q_a = q_mod[source] - d_v + 2.0 * k_out
    # module-rate terms use q_m + p_m: the module codebook is read once per
    # exit as well as once per node visit
    leave = (-2.0 * (_plogp(q_a) - plp_q[source])
             + _plogp(q_a + visits[source] - p_v) - plp_qp[source])
    owner = np.repeat(np.arange(first.size), size)  # pair -> its mover
    per_copy = np.diff(np.searchsorted(node, start))  # pairs of each copy
    q_b = q_mod[target] + d_v[owner] - 2.0 * k_in
    delta = (_plogp(np.repeat(copy_q[0], per_copy)
                    + 2.0 * (k_out[owner] - k_in))
             - np.repeat(copy_q[1], per_copy) + leave[owner]
             - 2.0 * (_plogp(q_b) - plp_q[target])
             + _plogp(q_b + visits[target] + p_v[owner]) - plp_qp[target])
    best = np.minimum.reduceat(delta, first)
    at_best = np.flatnonzero(delta == np.repeat(best, size))
    # pairs are sorted by module within a node: the first is the smallest
    pick = at_best[runs(node[at_best])[0]][best < -tol]
    return node[pick], target[pick], delta[pick]


def _local_move(g: Graph, rate: np.ndarray, start: np.ndarray, rngs,
                tol: float) -> np.ndarray:
    """Module of each node after batched moving from singletons on a level
    holding one copy per generator of ``rngs`` (nodes start[c]:start[c+1]).
    Each round a copy orders its best moves by one ``rng.permutation`` draw,
    each module takes the role, source or target, of the first move naming
    it, and the batch is the moves whose modules kept the role they need.
    Unless the copy's exact code length falls by more than ``tol``, the half
    of the batch with the largest gains is tried instead. A copy stops when
    no node has an improving move or a batch of one fails."""
    copy = np.repeat(np.arange(len(rngs)), np.diff(start))
    live = np.arange(len(rngs))  # the copies that csr and (u, v, w) hold
    u, v, w = g.edge_arrays()
    csr = (g.csr_rows, *g.csr()[1:])
    module = np.arange(g.n)
    copies, rates = _module_code_length(u, v, w, rate, module, start, live)
    while live.size:
        node, target, delta = _best_moves(csr, g.strengths, rate, module,
                                          rates, start, copies[1:], tol)
        first = np.searchsorted(node, start)
        count = np.diff(first)  # moves of each copy
        moving = live[count[live] > 0]
        if not moving.size:
            return module
        order = np.concatenate([first[c] + rngs[c].permutation(count[c])
                                for c in moving])
        node, target, delta = node[order], target[order], delta[order]
        source = module[node]
        named, named_at = np.unique(np.column_stack((source, target)),
                                    return_index=True)
        is_source = np.zeros(g.n, dtype=bool)
        is_source[named] = named_at % 2 == 0
        batch = np.flatnonzero(is_source[source] & ~is_source[target])
        take = batch
        while True:
            moved = module.copy()
            moved[node[take]] = target[take]
            new, new_rates = _module_code_length(u, v, w, rate, moved, start,
                                                 moving)
            fell = new[0] < copies[0, moving] - tol
            if take is batch and not fell.all():  # each copy's batch
                parts = np.split(batch, np.searchsorted(
                    batch, np.cumsum(count[moving])[:-1]))
            if all(parts[i].size <= 1 for i in np.flatnonzero(~fell)):
                break
            for i in np.flatnonzero(~fell):  # a failed batch of one stops
                keep = (parts[i].size + 1) // 2 if parts[i].size > 1 else 0
                parts[i] = parts[i][np.argsort(delta[parts[i]],
                                               kind="stable")[:keep]]
            take = np.concatenate(parts)
        for c in moving[~fell]:  # undo each failed batch of one
            moved[start[c]:start[c + 1]] = module[start[c]:start[c + 1]]
        module, rates = moved, new_rates
        copies[:, moving[fell]] = new[:, fell]
        if fell.sum() < live.size:  # drop the copies that stopped
            live = moving[fell]
            entry, link = np.isin(copy[csr[0]], live), np.isin(copy[u], live)
            csr, (u, v, w) = (tuple(a[entry] for a in csr),
                              (u[link], v[link], w[link]))
    return module


def _contract(g: Graph, rate: np.ndarray, module, keep):
    """Merge the modules of the nodes where ``keep`` is set into super-nodes
    and drop the other nodes: (level graph, visit rates, dense module of each
    node or -1). Rates keep the flow of the links inside each module."""
    dense = np.full(g.n, -1)
    dense[keep] = Partition.from_labels(module[keep]).membership
    nc = int(dense.max()) + 1
    u, v, w = g.edge_arrays()
    lo, hi = np.minimum(dense[u], dense[v]), np.maximum(dense[u], dense[v])
    cross = lo != hi  # a dropped link has both ends at -1
    keys, link = np.unique(lo[cross] * nc + hi[cross], return_inverse=True)
    edges = np.column_stack((keys // nc, keys % nc,
                             np.bincount(link, w[cross], keys.size)))
    return Graph(nc, edges), np.bincount(dense[keep], rate[keep], nc), dense


def _optimize(g: Graph, rate: np.ndarray, rngs) -> list[Partition]:
    """Modules of the base nodes of each restart after moving and
    agglomerating to a halt, on a union of one copy of the base level per
    generator; a copy that merged no nodes is done and leaves the union."""
    n = g.n // len(rngs)
    restarts, sizes = np.arange(len(rngs)), np.full(len(rngs), n)
    assignment = np.arange(g.n)  # base node -> node of the current level
    parts = [None] * len(rngs)
    while True:
        start = np.concatenate(([0], np.cumsum(sizes)))
        module = _local_move(g, rate, start, [rngs[r] for r in restarts],
                             MOVE_TOLERANCE)
        modules = np.diff(np.searchsorted(np.unique(module), start))
        for c in np.flatnonzero(modules == sizes):
            parts[restarts[c]] = Partition.from_labels(
                assignment[c * n:(c + 1) * n])
        if (more := modules < sizes).any():
            g, rate, dense = _contract(g, rate, module, np.repeat(more, sizes))
            assignment = dense[assignment[np.repeat(more, n)]]
            restarts, sizes = restarts[more], modules[more]
        else:
            return parts


def detect(g: Graph, cfg: InfomapConfig) -> Partition:
    """Minimise the map equation by batched moving + agglomeration restarts.

    Runs ``cfg.outer_passes`` seeded restarts and returns the partition with
    the smallest code length (earliest restart wins ties). They run in
    equal batches, each a union of copies within ``LINK_BUDGET`` links, and
    give the partitions they would give one at a time. With
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
    w, n, passes = w / (2.0 * work.total_weight), work.n, cfg.outer_passes
    per = max(k for k in range(1, passes + 1) if passes % k == 0
              and k <= max(1, LINK_BUDGET // u.size))
    shift = np.repeat(np.arange(per) * n, u.size)  # copies side by side
    union = Graph(per * n, np.column_stack((
        np.tile(u, per) + shift, np.tile(v, per) + shift, np.tile(w, per))))
    parts = (part for r in range(0, passes, per) for part in _optimize(
        union, np.tile(visit_rates(work), per),
        [spawn_rng(cfg.seed, i) for i in range(r, r + per)]))
    # min keeps the first of equal code lengths
    return min(parts, key=lambda part: map_equation(work, part))
