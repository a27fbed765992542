"""Seeded planted-partition networks for the ``observed_large`` workload.

The generator is the benchmark's own, so the workload exercises the package's
parser, features, selector and detectors without any ``lfr`` work. Community
sizes and node degrees follow truncated power laws (mixed sizes, heavy-tailed
degrees); degrees are drawn by stratified sampling, one uniform draw in each
of n equal slices of [0, 1), so the degree sum and the hubs vary little from
seed to seed. Each node's degree is split into internal and external stubs by
the topological cross-link share ``mu_t``; internal stubs are paired inside
their community and external stubs across the whole network, and self-loops,
repeated pairs and external pairs that land inside one community are dropped.
Weights are log-normal around 1, then the cross links are scaled together so
that they carry exactly the share ``mu_w`` of the total weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PlantedSpec:
    n: int
    mu_t: float
    mu_w: float
    k_min: int = 8
    k_max: int = 80
    s_min: int = 30
    s_max: int = 250


@dataclass(frozen=True)
class PlantedEdges:
    """Edges as parallel arrays with u < v, sorted by (u, v)."""
    spec: PlantedSpec
    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    membership: np.ndarray


def _power_law(exponent, lo, hi, uniform):
    """Inverse-CDF draws of P(x) ~ x^-exponent on the integers [lo, hi]."""
    xs = np.arange(lo, hi + 1, dtype=np.float64)
    cdf = np.cumsum(xs ** -exponent)
    cdf /= cdf[-1]
    return lo + np.searchsorted(cdf, uniform, side="right")


def _sizes(spec: PlantedSpec, rng) -> list[int]:
    sizes: list[int] = []
    while sum(sizes) < spec.n:
        sizes.append(int(_power_law(1.0, spec.s_min, spec.s_max, rng.random())))
    excess = sum(sizes) - spec.n
    sizes[-1] -= excess
    if sizes[-1] < spec.s_min:
        # fold a short last community into the others, one node each
        rest = sizes.pop()
        for i in range(rest):
            sizes[i % len(sizes)] += 1
    return sizes


def _pairs(stubs: np.ndarray, rng) -> np.ndarray:
    stubs = rng.permutation(stubs)
    if stubs.size % 2:
        stubs = stubs[:-1]
    return stubs.reshape(-1, 2)


def planted_network(spec: PlantedSpec, rng) -> PlantedEdges:
    """Draw one network; a pure function of ``spec`` and the rng state."""
    sizes = _sizes(spec, rng)
    membership = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    size_of = np.asarray(sizes)[membership]
    slices = (rng.permutation(spec.n) + rng.random(spec.n)) / spec.n
    degree = _power_law(2.0, spec.k_min, spec.k_max, slices)
    internal = np.minimum(np.rint((1.0 - spec.mu_t) * degree).astype(np.int64),
                          size_of - 1)
    external = degree - internal

    pairs = [_pairs(np.flatnonzero(membership == c).repeat(
        internal[membership == c]), rng) for c in range(len(sizes))]
    cross = _pairs(np.arange(spec.n).repeat(external), rng)
    cross = cross[membership[cross[:, 0]] != membership[cross[:, 1]]]
    pairs.append(cross)
    edges = np.concatenate(pairs)
    edges = edges[edges[:, 0] != edges[:, 1]]
    edges.sort(axis=1)
    edges = np.unique(edges, axis=0)
    u, v = edges[:, 0], edges[:, 1]

    w = rng.lognormal(0.0, 0.25, size=u.size)
    is_cross = membership[u] != membership[v]
    inside, across = w[~is_cross].sum(), w[is_cross].sum()
    if 0.0 < spec.mu_w < 1.0 and inside > 0 and across > 0:
        w[is_cross] *= spec.mu_w * inside / ((1.0 - spec.mu_w) * across)
    return PlantedEdges(spec=spec, n=spec.n, u=u, v=v, w=w,
                        membership=membership)


def edge_list_text(n: int, u, v, w) -> str:
    """The package's edge-list format: a ``# nodes N`` line, then one
    ``u<TAB>v<TAB>w`` line per edge with weights at 9 significant digits."""
    lines = [f"# nodes {n}"]
    lines += [f"{a}\t{b}\t{x:.9g}"
              for a, b, x in zip(u.tolist(), v.tolist(), w.tolist())]
    return "\n".join(lines) + "\n"
