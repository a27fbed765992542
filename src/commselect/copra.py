"""Label-propagation community detection in hard-partition mode.

Every node starts with a unique label; synchronous iterations then reassign
each node the label with the largest support among its neighbours, where
support is the neighbour count (unweighted) or the sum of connecting link
weights (weighted). Ties are broken uniformly at random. Because single runs
are stochastic, detection repeats the propagation several times and keeps the
run with the highest weighted modularity.

Updates are synchronous. Iteration stops at a fixed point (every node's label
is among its neighbourhood's most supported), on an exact deterministic
two-step oscillation, or at the iteration cap, whichever comes first. The
last two exits leave a state that is not a fixed point (an oscillation on
near-bipartite structure swaps the labels of two node groups; at the cap the
run may still be rolling ties), so it is settled by asynchronous sweeps as in
Raghavan et al. 2007 (arXiv:0709.2938): nodes are visited in random order and
see the labels already updated in that sweep; a node keeps its label when it
is among its most supported, otherwise it takes one of those uniformly at
random. Every change strictly raises the weight of links inside labels, so
the sweeps cannot cycle. All draws come from the run's own stream, so a run is
a pure function of its seed. Nodes left sharing a label without being
connected are split into separate communities at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, Partition, with_unit_weights
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
                   rng) -> tuple[np.ndarray, bool]:
    """One synchronous update of the per-node ``labels``; returns (new labels,
    whether a tie was rolled). Isolated nodes keep their label."""
    n = g.n
    indptr, nbr, wt = g.csr()
    rows = np.repeat(np.arange(n), g.degrees)
    vals = wt if weighted else np.ones(nbr.size)
    width = int(labels.max()) + 1 if labels.size else 1
    support = np.bincount(rows * width + labels[nbr], weights=vals,
                          minlength=n * width).reshape(n, width)
    peak = support.max(axis=1)
    at_peak = support == peak[:, None]
    tie_rolled = bool((at_peak.sum(axis=1) > 1).any())
    # uniform choice among tied labels via random keys
    keys = np.where(at_peak, rng.random((n, width)), -1.0)
    new = np.where(g.degrees == 0, labels, keys.argmax(axis=1))
    return new, tie_rolled


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
                labels[v] = best[rng.integers(len(best))]
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

    Synchronous steps run until a fixed point, an exact two-step oscillation
    or ``cfg.max_iters`` steps. Both exits that are not a fixed point are then
    settled into one by at most ``cfg.max_iters`` asynchronous sweeps drawing
    from the same ``rng``.
    """
    if g.n == 0:
        raise ValueError("cannot partition a graph with zero nodes")
    labels = np.arange(g.n, dtype=np.int64)
    prev = None
    tie_cur = False
    for _ in range(cfg.max_iters):
        new, tie = propagate_step(g, labels, cfg.weighted, rng)
        if np.array_equal(new, labels):
            return _split_into_communities(g, labels)
        oscillating = (prev is not None and np.array_equal(new, prev)
                       and not tie and not tie_cur)
        prev = labels
        labels, tie_cur = new, tie
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
