"""Two-level map-equation community detection.

A partition is scored by the expected per-step description length of a random
walk under a two-level codebook (one index codebook across modules, one
codebook per module). On an undirected graph the walk's stationary visit rate
of a node is its strength over twice the total edge weight, so the code length
has a closed form and the search reduces to minimising it. The optimizer is
greedy node moving with agglomeration and seeded random restarts. Node
moving keeps each module's plogp terms between moves and refreshes only the
two modules a move touches; a node whose neighbours all share its module is
passed over without evaluating any move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, Partition, with_unit_weights
from .seeds import check_seed, spawn_rng

_LOG2 = math.log(2.0)
# bits; the smallest code-length gain a move must make. At 0, detect was seen
# never to return: a node moved back and forth on gains made by rounding
MOVE_TOLERANCE = 1e-10


def _plogp(x: float) -> float:
    if x <= 0.0:
        return 0.0
    return x * math.log(x) / _LOG2


def _sum_plogp(x: np.ndarray) -> float:
    x = x[x > 0.0]
    return float((x * np.log(x)).sum() / _LOG2)


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
    m = p.membership
    nc = p.community_count
    cross = m[u] != m[v]
    exits = w[cross] / (2.0 * g.total_weight)
    q_mod = (np.bincount(m[u][cross], weights=exits, minlength=nc)
             + np.bincount(m[v][cross], weights=exits, minlength=nc))
    rates = visit_rates(g)
    p_mod = q_mod + np.bincount(m, weights=rates, minlength=nc)
    return (_plogp(float(q_mod.sum())) - 2.0 * _sum_plogp(q_mod)
            + _sum_plogp(p_mod) - _sum_plogp(rates))


class _Level:
    """Working graph for one agglomeration level, in rate units (w / 2W)."""

    __slots__ = ("n", "adj", "rate", "out_rate")

    def __init__(self, n, adj, rate):
        self.n = n
        self.adj = adj            # list[dict[node, rate]] without self-loops
        self.rate = rate          # visit rate incl. self-loop contribution
        self.out_rate = [sum(a.values()) for a in adj]


def _level_from_graph(g: Graph) -> _Level:
    two_w = 2.0 * g.total_weight
    indptr, nbr, wt = g.csr()
    nbr, link_rate = nbr.tolist(), (wt / two_w).tolist()
    bounds = zip(indptr[:-1].tolist(), indptr[1:].tolist())
    adj = [dict(zip(nbr[lo:hi], link_rate[lo:hi])) for lo, hi in bounds]
    return _Level(g.n, adj, (g.strengths / two_w).tolist())


def _local_move(level: _Level, rng, tol: float) -> list[int]:
    """One level of greedy node moving; returns the module of each node.

    plogp(q_m) and plogp(q_m + p_m) of every module, and plogp of the summed
    exit rate, are kept between moves (``plp_q``, ``plp_qp``, ``plp_sum_q``)
    and refreshed where a move changes them, so each delta adds the same
    terms in the same order as when every one is computed afresh.
    """
    n = level.n
    module = list(range(n))
    q_mod = list(level.out_rate)
    p_mod = list(level.rate)
    sum_q = sum(q_mod)
    plp = _plogp
    plp_q = [plp(q) for q in q_mod]
    plp_qp = [plp(q + p) for q, p in zip(q_mod, p_mod)]
    plp_sum_q = plp(sum_q)

    moved_any = True
    while moved_any:
        moved_any = False
        for v in rng.permutation(n).tolist():
            a = module[v]
            # rate flowing from v to each adjacent module
            to_mod: dict[int, float] = {}
            for u, w in level.adj[v].items():
                cu = module[u]
                to_mod[cu] = to_mod.get(cu, 0.0) + w
            if to_mod.keys() <= {a}:
                continue  # no other module to move to
            d_v = level.out_rate[v]
            p_v = level.rate[v]
            k_va = to_mod.get(a, 0.0)
            q_a, p_a = q_mod[a], p_mod[a]
            q_a_new = q_a - d_v + 2.0 * k_va
            # module-rate terms use q_m + p_m: the module codebook is read
            # once per exit as well as once per node visit
            base_a = (-2.0 * (plp(q_a_new) - plp_q[a])
                      + plp(q_a_new + p_a - p_v) - plp_qp[a])
            best_gain = -tol
            best_mod = a
            for b, k_vb in sorted(to_mod.items()):
                if b == a:
                    continue
                q_b, p_b = q_mod[b], p_mod[b]
                q_b_new = q_b + d_v - 2.0 * k_vb
                sum_q_new = sum_q + 2.0 * (k_va - k_vb)
                delta = (plp(sum_q_new) - plp_sum_q
                         + base_a
                         - 2.0 * (plp(q_b_new) - plp_q[b])
                         + plp(q_b_new + p_b + p_v) - plp_qp[b])
                if delta < best_gain:
                    best_gain = delta
                    best_mod = b
            if best_mod != a:
                b = best_mod
                k_vb = to_mod[b]
                q_mod[a] = q_a - d_v + 2.0 * k_va
                p_mod[a] = p_a - p_v
                q_mod[b] = q_mod[b] + d_v - 2.0 * k_vb
                p_mod[b] = p_mod[b] + p_v
                sum_q = sum_q + 2.0 * (k_va - k_vb)
                for c in (a, b):
                    plp_q[c] = plp(q_mod[c])
                    plp_qp[c] = plp(q_mod[c] + p_mod[c])
                plp_sum_q = plp(sum_q)
                module[v] = b
                moved_any = True
    return module


def _contract(level: _Level, module: list[int]) -> tuple[_Level, list[int]]:
    """Merge modules into super-nodes; returns (new level, dense module ids)."""
    dense = Partition.from_labels(module).membership.tolist()
    m = max(dense) + 1
    adj: list[dict[int, float]] = [dict() for _ in range(m)]
    rate = [0.0] * m
    for v in range(level.n):
        cv = dense[v]
        rate[cv] += level.rate[v]
        for u, w in level.adj[v].items():
            cu = dense[u]
            if cu != cv:
                adj[cv][cu] = adj[cv].get(cu, 0.0) + w
    return _Level(m, adj, rate), dense


def _optimize_once(base: _Level, rng) -> list[int]:
    """Module of each base node after moving and agglomerating to a halt."""
    assignment = list(range(base.n))  # node -> module at the base level
    level = base
    while True:
        module = _local_move(level, rng, MOVE_TOLERANCE)
        n_mod = len(set(module))
        if n_mod == level.n:
            return assignment
        level, dense = _contract(level, module)
        # dense[a] is the super-node of level node a, so composing through it
        # keeps `assignment` mapping base nodes to current-level nodes
        assignment = [dense[a] for a in assignment]


def detect(g: Graph, cfg: InfomapConfig) -> Partition:
    """Minimise the map equation by greedy moving + agglomeration restarts.

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
    base = _level_from_graph(work)
    parts = (Partition.from_labels(_optimize_once(base, spawn_rng(cfg.seed, r)))
             for r in range(cfg.outer_passes))
    # min keeps the first of equal code lengths
    return min(parts, key=lambda part: map_equation(work, part))
