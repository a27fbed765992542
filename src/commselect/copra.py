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
node groups can swap labels forever), or ``max_iters`` steps. The last two
exits are settled by semi-synchronous steps of the same rule (Cordasco &
Gargano 2010, arXiv:1103.4550), each of which strictly raises the weight of
links inside labels, so settling needs no cap and ends at a fixed point
(``run_once`` gives the argument). All draws come from the run's own stream,
so a run is a pure function of its seed. Nodes left sharing a label without
being connected are split into separate communities at the end.
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
    """Settings for repeated label-propagation detection. ``max_iters`` caps
    only a run's synchronous steps; settling after them ends on its own."""
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


def _split_into_communities(g: Graph, labels: np.ndarray) -> Partition:
    # connected nodes sharing a label form one community, numbered by their
    # smallest node: min-id propagation over same-label links, pointer jumping
    same = labels[g.csr_rows] == labels[g.csr()[1]]
    a, b = g.csr_rows[same], g.csr()[1][same]
    root, prev = np.arange(g.n), None
    while not np.array_equal(root, prev):
        prev, root = root, root.copy()
        np.minimum.at(root, a, prev[b])
        root = root[root]
    return Partition.from_labels(root)


def run_once(g: Graph, cfg: CopraConfig, rng) -> Partition:
    """Single seeded propagation run, returning the resulting hard partition.

    Synchronous steps run until a fixed point, a state equal to the one two
    steps back, or ``cfg.max_iters`` steps. The last two exits are settled:
    each further step calls ``propagate_step`` and holds back every mover
    that moves into the current label of a moving neighbour, or whose label
    such a neighbour moves into, when that neighbour has the higher priority
    (one ``rng.random(n)`` per step, ties to the higher id).

    Why settling ends at a fixed point: a mover's new label has more support
    than its old one. W, the weight of links inside labels, changes on a
    link with one moving end by that end's gain. On a link of weight w
    between two movers, their gains add to -2w if the ends shared a label
    and to 0 otherwise, and W changes by at least -w or 0 respectively. So W
    rises by at least the movers' summed gains; the top-priority mover always
    moves, so W rises at every step and no state repeats.
    """
    if g.n == 0:
        raise ValueError("cannot partition a graph with zero nodes")
    a, b = g.csr_rows, g.csr()[1]
    labels = prev = np.arange(g.n, dtype=np.int64)
    steps = 0  # jumps to the cap on an oscillation: settle from then on
    while True:
        new = propagate_step(g, labels, cfg.weighted, rng)
        if np.array_equal(new, labels):
            return _split_into_communities(g, labels)
        if steps >= cfg.max_iters:
            prio = rng.random(g.n)
            moved = new != labels
            held = (moved[a] & moved[b]
                    & ((new[a] == labels[b]) | (new[b] == labels[a]))
                    & ((prio[b] > prio[a]) | (prio[b] == prio[a]) & (b > a)))
            new[a[held]] = labels[a[held]]
        steps = cfg.max_iters if np.array_equal(new, prev) else steps + 1
        prev, labels = labels, new


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
