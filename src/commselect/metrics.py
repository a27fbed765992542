"""Partition scoring and the two observable clustering-coefficient features.

The unweighted local clustering coefficient of a node is the fraction of its
neighbor pairs that are themselves linked. The weighted variant (Barrat et
al. 2004, arXiv:cond-mat/0311416) rescales each linked pair by the weights of
the links from the node to that pair, so it responds to how strongly the
node's weight is concentrated on triangle-closing links:

    C_uw(v) = sum_{i<j in N(v)} e_ij / (k_v (k_v - 1) / 2)
    C_w(v)  = sum_{i<j in N(v)} (w_vi + w_vj) e_ij / (s_v (k_v - 1))

Both are computed for every node at once from the graph's arrays. With t_e
the number of common neighbours of edge e's endpoints (the triangles on e),
each triangle at v is counted once by each of its two links at v, so

    C_uw(v) = sum_{e at v} t_e / (k_v (k_v - 1))
    C_w(v)  = sum_{e at v} w_e t_e / (s_v (k_v - 1))

Nodes of degree < 2 contribute 0 and are included in network means, the
``FeatureVector`` the selector classifies. Modularity sums weights over the
edge arrays with a cross-community mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, Partition


@dataclass(frozen=True)
class FeatureVector:
    """Mean unweighted / weighted clustering coefficients of a network."""
    c_uw: float
    c_w: float

    def __post_init__(self):
        for name, val in (("c_uw", self.c_uw), ("c_w", self.c_w)):
            if not math.isfinite(val) or not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must be finite in [0,1], got {val}")

    def as_array(self) -> np.ndarray:
        return np.array([self.c_uw, self.c_w], dtype=np.float64)


def _triangles_per_edge(g: Graph) -> np.ndarray:
    """Number of common neighbours of each edge's endpoints.

    Each neighbour of an edge's lower-degree endpoint is looked up among the
    other endpoint's links in the sorted CSR keys. Edges are taken in chunks
    of at most 2m candidate lookups, so the working memory stays O(m).
    """
    u, v, _ = g.edge_arrays()
    indptr, nbr, _ = g.csr()
    n, deg = g.n, g.degrees
    keys = g.csr_rows * n + nbr  # ascending: CSR is sorted
    x = np.where(deg[u] <= deg[v], u, v)
    y = u + v - x
    cand = deg[x]
    ends = np.cumsum(cand)
    t = np.zeros(u.size)
    start = 0
    while start < u.size:
        # a single edge has at most m candidates, so every chunk advances
        stop = int(np.searchsorted(ends, ends[start] - cand[start]
                                   + 2 * u.size, side="right"))
        c = cand[start:stop]
        first = np.cumsum(c) - c
        edge = np.repeat(np.arange(stop - start), c)
        pos = np.arange(int(c.sum())) + np.repeat(indptr[x[start:stop]] - first, c)
        query = y[start:stop][edge] * n + nbr[pos]
        at = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        t[start:stop] = np.bincount(edge, weights=keys[at] == query,
                                    minlength=stop - start)
        start = stop
    return t


def local_clustering(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(C_uw, C_w) of every node; 0 where the degree is below 2."""
    u, v, w = g.edge_arrays()
    t = _triangles_per_edge(g)
    n, k = g.n, g.degrees
    closed = np.bincount(u, t, n) + np.bincount(v, t, n)
    closed_w = np.bincount(u, w * t, n) + np.bincount(v, w * t, n)
    wide = k > 1
    c_uw = np.divide(closed, k * (k - 1), out=np.zeros(n), where=wide)
    c_w = np.divide(closed_w, g.strengths * (k - 1), out=np.zeros(n), where=wide)
    return c_uw, c_w


def mean_clustering(g: Graph) -> FeatureVector:
    """Arithmetic means of both local clustering coefficients over all nodes.

    Degree-0/1 nodes enter the mean with value 0; an edgeless graph therefore
    scores (0, 0).
    """
    if g.n < 1:
        raise ValueError("graph must have at least one node")
    c_uw, c_w = local_clustering(g)
    return FeatureVector(c_uw=float(c_uw.mean()), c_w=float(c_w.mean()))


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(a: Partition, b: Partition) -> float:
    """Normalized mutual information 2*I(A;B)/(H(A)+H(B)) between partitions.

    Computed from the nonzero cells of the co-membership contingency table,
    found by one sort of packed (a, b) keys, so memory stays O(n); the log
    base cancels. Degenerate conventions: both partitions single-community
    -> 1.0, exactly one single-community -> 0.0. Raises if the node sets
    differ.
    """
    if a.n != b.n:
        raise ValueError(f"node-set mismatch: {a.n} vs {b.n} nodes")
    n = a.n
    ca, cb = a.community_count, b.community_count
    cell, nij = np.unique(a.membership * cb + b.membership, return_counts=True)
    row = np.bincount(a.membership, minlength=ca)
    col = np.bincount(b.membership, minlength=cb)
    h_a = _entropy(row, n)
    h_b = _entropy(col, n)
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    if h_a == 0.0 or h_b == 0.0:
        return 0.0
    if cell.size == ca == cb:
        # identical partitions up to relabeling (ids are dense, so each
        # community meets exactly one of the other's): exactly 1 by
        # definition, and this sidesteps last-ulp rounding in the entropy sums
        return 1.0
    outer = row[cell // cb] * col[cell % cb]
    nij = nij.astype(np.float64)
    info = float((nij / n * np.log(nij * n / outer)).sum())
    val = 2.0 * info / (h_a + h_b)
    return min(max(val, 0.0), 1.0)


def modularity(g: Graph, p: Partition) -> float:
    """Weighted Newman modularity of a partition.

    Q = sum_c [ W_c / W - (S_c / 2W)^2 ] with W_c the intra-community weight,
    S_c the community's total node strength, and W the total edge weight.
    """
    if g.edge_count == 0:
        raise ValueError("modularity undefined on an edgeless graph")
    if p.n != g.n:
        raise ValueError(f"partition covers {p.n} nodes, graph has {g.n}")
    w_total = g.total_weight
    u, v, w = g.edge_arrays()
    m = p.membership
    inside = m[u] == m[v]
    intra = np.bincount(m[u][inside], weights=w[inside],
                        minlength=p.community_count)
    s_c = np.bincount(m, weights=g.strengths, minlength=p.community_count)
    q = intra / w_total - (s_c / (2.0 * w_total)) ** 2
    return float(q.sum())
