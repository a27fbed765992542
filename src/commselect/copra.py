"""Label-propagation community detection in hard-partition mode.

Every node starts with a unique label. A node's support for a label is the
number of its neighbours holding it (unweighted) or the summed weight of the
links to them (weighted). One rule updates a node, as in Raghavan et al. 2007
(arXiv:0709.2938): it keeps its label when that label is among its most
supported, and otherwise takes one of those uniformly at random. A state the
rule leaves unchanged is a fixed point. Runs are stochastic, so detection
repeats them and keeps the one with the highest weighted modularity.

A run applies the rule to all nodes at once (synchronous steps, each O(m)
memory) until a fixed point, a state equal to the one two steps back (two
node groups can swap labels forever), or the step cap. The last two exits
are settled by asynchronous sweeps of the same rule in random node order;
each change there strictly raises the weight of links inside labels, so the
sweeps cannot cycle. All draws come from the run's own stream, so a run is a
pure function of its seed. Nodes left sharing a label without being
connected are split into separate communities at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (Graph, Partition, neighbour_label_sums, runs,
                    with_unit_weights)
from .metrics import modularity
from .seeds import check_seed, spawn_rng


@dataclass(frozen=True)
class CopraConfig:
    """Settings for repeated label-propagation detection."""
    seed: int = 0
    runs: int = 10
    max_iters: int = 100
    weighted: bool = True

    def __post_init__(self):
        check_seed(self.seed)
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


def propagate_step(g: Graph, labels: np.ndarray, weighted: bool,
                   rng) -> np.ndarray:
    """One synchronous update of the per-node ``labels``; returns the new
    labels. A node keeps its label when that label is among its most
    supported, and so does an isolated node. Every other node takes one of
    its most supported labels, the ``floor(r * count)``-th smallest counting
    from 0, with one ``r = rng.random()`` per such node in ascending order.

    Support is summed over the m (node, neighbour label) pairs, each sum
    adding its links in adjacency order.
    """
    node, pair_lab, links, weight = neighbour_label_sums(
        g.csr_rows, *g.csr()[1:], labels)
    support = weight if weighted else links
    node_start, node_size = runs(node)
    peak = np.maximum.reduceat(support, node_start)
    at_peak = support == np.repeat(peak, node_size)
    cand, cand_node = pair_lab[at_peak], node[at_peak]
    first, n_peak = runs(cand_node)
    moves = ~np.logical_or.reduceat(cand == labels[cand_node], first)
    first, n_peak = first[moves], n_peak[moves]
    pick = first + (rng.random(n_peak.size) * n_peak).astype(np.int64)
    new = labels.copy()
    new[cand_node[pick]] = cand[pick]
    return new


def _settle(g: Graph, labels: np.ndarray, weighted: bool, max_sweeps: int,
            rng) -> np.ndarray:
    """Asynchronous sweeps from ``labels`` until one changes nothing, or
    ``max_sweeps`` have run."""
    indptr, nbr, wt = g.csr()
    indptr, nbr = indptr.tolist(), nbr.tolist()
    wt = wt.tolist() if weighted else [1.0] * len(nbr)
    labels = labels.tolist()
    for _ in range(max_sweeps):
        changed = False
        for v in rng.permutation(g.n).tolist():
            lo, hi = indptr[v], indptr[v + 1]
            support: dict[int, float] = {}
            for u, w in zip(nbr[lo:hi], wt[lo:hi]):
                support[labels[u]] = support.get(labels[u], 0.0) + w
            if not support:
                continue
            peak = max(support.values())
            if support.get(labels[v]) != peak:
                best = sorted(lab for lab, x in support.items() if x == peak)
                labels[v] = best[int(rng.random() * len(best))]
                changed = True
        if not changed:
            break
    return np.array(labels, dtype=np.int64)


def _split_into_communities(g: Graph, labels: np.ndarray) -> Partition:
    # connected nodes sharing a label form one community; a shared label on
    # disconnected node sets is split
    indptr, nbr, _ = g.csr()
    indptr, nbr, labels = indptr.tolist(), nbr.tolist(), labels.tolist()
    comm = [-1] * g.n
    next_id = 0
    for start in range(g.n):
        if comm[start] >= 0:
            continue
        lab = labels[start]
        stack = [start]
        comm[start] = next_id
        while stack:
            v = stack.pop()
            for u in nbr[indptr[v]:indptr[v + 1]]:
                if comm[u] < 0 and labels[u] == lab:
                    comm[u] = next_id
                    stack.append(u)
        next_id += 1
    return Partition(comm)


def run_once(g: Graph, cfg: CopraConfig, rng) -> Partition:
    """Single seeded propagation run, returning the resulting hard partition.

    Synchronous steps run until one changes nothing (a fixed point), the
    state equals the one two steps back, or ``cfg.max_iters`` steps have run.
    The last two exits are settled into a fixed point by at most
    ``cfg.max_iters`` asynchronous sweeps drawing from the same ``rng``.
    """
    if g.n == 0:
        raise ValueError("cannot partition a graph with zero nodes")
    labels = prev = np.arange(g.n, dtype=np.int64)
    for _ in range(cfg.max_iters):
        new = propagate_step(g, labels, cfg.weighted, rng)
        if np.array_equal(new, labels):
            return _split_into_communities(g, labels)
        oscillating = np.array_equal(new, prev)
        prev, labels = labels, new
        if oscillating:
            break
    return _split_into_communities(
        g, _settle(g, labels, cfg.weighted, cfg.max_iters, rng))


def detect(g: Graph, cfg: CopraConfig) -> Partition:
    """Best-of-``cfg.runs`` label propagation.

    Each run gets an RNG stream derived from (seed, run index); the partition
    with the highest weighted modularity wins, earlier runs winning ties. With
    ``weighted=False`` both the propagation and the modularity selection see
    the graph with unit weights.
    """
    work = g if cfg.weighted else with_unit_weights(g)
    parts = (run_once(work, cfg, spawn_rng(cfg.seed, run))
             for run in range(cfg.runs))
    if work.edge_count == 0:
        return next(parts)
    # max keeps the first of equal modularities
    return max(parts, key=lambda part: modularity(work, part))
