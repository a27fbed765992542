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

A synchronous step works on the m (node, neighbour label) pairs of the
adjacency, not on an n x (max label + 1) table, so it takes O(m) memory plus
one fixed-size block of random keys. Its tie keys are still the entries of
one ``rng.random((n, max label + 1))`` draw per step: only the entries at
tied (node, label) pairs are read, block by block, and the generator is
moved past the rest (PCG64 is advanced without drawing), so every run returns
what the dense table would give.
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


# tie keys are read from the stream of rng.random((n, width)) in pieces of
# at most this many doubles, so a step's memory stays O(m + _KEY_BLOCK)
_KEY_BLOCK = 1 << 16


def _skip_doubles(rng, count: int) -> None:
    """Move ``rng`` past ``count`` doubles of ``rng.random`` without keeping
    them."""
    bits = rng.bit_generator
    # the PCG64 generators take one state step per double; advance() drops
    # a buffered 32-bit half word, so it is only used when none is held
    if (isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM))
            and not bits.state["has_uint32"]):
        bits.advance(count)
        return
    for start in range(0, count, _KEY_BLOCK):
        rng.random(min(_KEY_BLOCK, count - start))


def _stream_at(rng, total: int, pos: np.ndarray) -> np.ndarray:
    """Values of ``rng.random(total)`` at the ascending positions ``pos``,
    leaving ``rng`` where that draw would have."""
    out = np.empty(pos.size)
    done = 0
    if pos.size:
        block = pos // _KEY_BLOCK
        cuts = (np.flatnonzero(block[1:] != block[:-1]) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, pos.size]):
            first, last = int(pos[lo]), int(pos[hi - 1])
            _skip_doubles(rng, first - done)
            out[lo:hi] = rng.random(last - first + 1)[pos[lo:hi] - first]
            done = last + 1
    _skip_doubles(rng, total - done)
    return out


def _group_starts(sorted_ids: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values."""
    head = np.empty(sorted_ids.size, dtype=bool)
    head[:1] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=head[1:])
    return np.flatnonzero(head)


def _group_sizes(start: np.ndarray, total: int) -> np.ndarray:
    """Length of each run, from the runs' ``start`` indices."""
    sizes = np.empty_like(start)
    np.subtract(start[1:], start[:-1], out=sizes[:-1])
    sizes[-1:] = total - start[-1:]
    return sizes


def propagate_step(g: Graph, labels: np.ndarray, weighted: bool,
                   rng) -> tuple[np.ndarray, bool]:
    """One synchronous update of the per-node ``labels``; returns (new labels,
    whether a node with links had a tie to roll). Isolated nodes keep their
    label.

    Support is summed over the m (node, neighbour label) pairs, sorted stably
    so each sum adds its links in adjacency order. A tie is broken by the
    largest key among the tied labels, where node v's key for label l is
    entry (v, l) of ``rng.random((n, max label + 1))``; only the tied entries
    are read, piece by piece, but the stream always moves past the whole
    table.
    """
    n = g.n
    _, nbr, wt = g.csr()
    width = int(labels.max()) + 1 if labels.size else 1
    # pair id v * width + label: its position in the (n, width) key table
    pair = np.repeat(np.arange(0, n * width, width), g.degrees) + labels[nbr]
    shift = nbr.size.bit_length()
    if (n * width) >> (63 - shift) == 0:
        # a stable sort as one int64 sort: each id carries its index below
        key = np.sort((pair << shift) | np.arange(nbr.size))
        order, pair = key & ((1 << shift) - 1), key >> shift
    else:
        order = np.argsort(pair, kind="stable")
        pair = pair[order]
    start = _group_starts(pair)
    ids, support = pair[start], _group_sizes(start, pair.size)
    if weighted:
        # bincount adds in input order: each label's links in adjacency order
        support = np.bincount(np.repeat(np.arange(ids.size), support),
                              weights=wt[order])
    node = ids // width
    node_start = _group_starts(node)
    peak = np.maximum.reduceat(support, node_start)
    at_peak = support == np.repeat(peak, _group_sizes(node_start, ids.size))
    n_peak = np.add.reduceat(at_peak, node_start)
    cand, cand_node = ids[at_peak], node[at_peak]
    tied = np.repeat(n_peak > 1, n_peak)
    keys = np.zeros(cand.size)
    keys[tied] = _stream_at(rng, n * width, cand[tied])
    # per node, the first (lowest-label) candidate with the largest key
    best = np.maximum.reduceat(keys, np.cumsum(n_peak) - n_peak)
    won = np.flatnonzero(keys == np.repeat(best, n_peak))
    won = won[_group_starts(cand_node[won])]
    new = labels.copy()
    new[cand_node[won]] = cand[won] - cand_node[won] * width
    return new, bool(tied.any())


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
