"""Weighted benchmark networks with planted power-law community structure.

Generation follows the classic recipe: draw community sizes and node degrees
from truncated power laws, split each degree into internal and external
stubs by the topological mixing parameter, and realise them with one
configuration model: stub matching per community and globally, then batched
double-edge swaps that repair self-loops, parallel edges and external links
inside one community, widen their partners when the repair stalls, and
steer the cross-link count toward mu_t. An attempt that still stalls is
rejected and ``generate`` retries; no edge is ever dropped. Weights are
fitted afterwards: each node gets a target strength k^beta, split into
internal and external parts by the weight mixing parameter, and an
iterative proportional scheme scales edge weights (geometric mean of the two
endpoint factors) until node strengths match.

Only mu_t is enforced, within ``mix_tolerance``. mu_w is fitted but not
checked: it falls short of the request, at times by more than the tolerance,
when ``_balance_external_targets`` scales external targets down, and
``PlantedNetwork`` reports the value reached. Per-node mixing is approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, Partition
from .seeds import check_seed, spawn_rng


class GenerationError(Exception):
    """Raised when a generation stage cannot satisfy its contract.

    Attributes:
        stage: name of the failing stage (degrees, community_sizes,
            assignment, topology, weights). The message names the stage and
            any value measured at failure, such as the mixing reached.
    """

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


@dataclass(frozen=True)
class GenParams:
    """Benchmark parameter vector.

    ``k_max``, ``s_min`` and ``s_max`` may be left unset; they default to
    n // 2, max(2, ceil(avg_k / 2)) and n // 2 respectively (community sizes
    must be able to exceed the largest internal degree, which at low mixing
    approaches k_max, so the size cap defaults to the degree cap).
    """
    n: int
    mu_t: float
    mu_w: float
    avg_k: float = 25.0
    tau1: float = 2.0
    tau2: float = 1.0
    beta: float = 1.5
    k_max: int | None = None
    s_min: int | None = None
    s_max: int | None = None
    seed: int = 0
    mix_tolerance: float = 0.02

    def __post_init__(self):
        check_seed(self.seed)
        if self.n < 4:
            raise ValueError(f"n must be >= 4, got {self.n}")
        if not 0.0 <= self.mu_t <= 1.0:
            raise ValueError(f"mu_t must be in [0,1], got {self.mu_t}")
        if not 0.0 <= self.mu_w <= 1.0:
            raise ValueError(f"mu_w must be in [0,1], got {self.mu_w}")
        if not self.tau1 > 1.0:
            raise ValueError(f"tau1 must be > 1, got {self.tau1}")
        if not self.tau2 >= 1.0:
            raise ValueError(f"tau2 must be >= 1, got {self.tau2}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        k_max = self.resolved_k_max
        if not 1.0 < self.avg_k < k_max:
            raise ValueError(
                f"need 1 < avg_k < k_max, got avg_k={self.avg_k}, k_max={k_max}")
        if k_max >= self.n:
            raise ValueError(f"k_max must be < n, got {k_max} >= {self.n}")
        s_min, s_max = self.resolved_s_min, self.resolved_s_max
        if s_min < 2:
            raise ValueError(f"s_min must be >= 2, got {s_min}")
        if s_max > self.n:
            raise ValueError(f"s_max must be <= n, got {s_max}")
        if s_min > s_max:
            raise ValueError(f"s_min {s_min} exceeds s_max {s_max}")
        if not self.mix_tolerance > 0.0:
            raise ValueError("mix_tolerance must be > 0")

    @property
    def resolved_k_max(self) -> int:
        return self.k_max if self.k_max is not None else self.n // 2

    @property
    def resolved_s_min(self) -> int:
        return self.s_min if self.s_min is not None else max(2, math.ceil(self.avg_k / 2))

    @property
    def resolved_s_max(self) -> int:
        if self.s_max is not None:
            return self.s_max
        cap = self.n // 2
        return cap if cap >= self.resolved_s_min else self.n


@dataclass(frozen=True)
class PlantedNetwork:
    """A generated graph with its planted ground-truth communities."""
    graph: Graph
    truth: Partition
    achieved_mu_t: float
    achieved_mu_w: float
    params: GenParams


def truncated_power_law_mean(exponent: float, lo: int, hi: int) -> float:
    """Exact mean of P(x) proportional to x^-exponent on integers [lo, hi]."""
    xs = np.arange(lo, hi + 1, dtype=np.float64)
    p = xs ** -exponent
    return float((xs * p).sum() / p.sum())


def sample_truncated_power_law(exponent: float, lo: int, hi: int,
                               count: int, rng) -> np.ndarray:
    """Draw ``count`` integers with probability proportional to x^-exponent
    on [lo, hi], by inverse-CDF lookup. Deterministic given the rng state."""
    if lo > hi:
        raise ValueError(f"empty support: lo={lo} > hi={hi}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    xs = np.arange(lo, hi + 1, dtype=np.float64)
    pmf = xs ** -exponent
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    draws = np.searchsorted(cdf, rng.random(count), side="right")
    return (lo + draws).astype(np.int64)


def solve_k_min(tau1: float, avg_k: float, k_max: int) -> int:
    """Lower degree cutoff whose truncated power-law mean best matches avg_k.

    Scans lo in [2, k_max] against the exact truncated mean and returns the
    minimiser of |mean(lo) - avg_k|; rejects when even the best is more than
    one away from the target.
    """
    if avg_k > k_max:
        raise ValueError(f"avg_k {avg_k} exceeds k_max {k_max}")
    means = np.array([truncated_power_law_mean(tau1, lo, k_max)
                      for lo in range(2, k_max + 1)])
    best = int(np.argmin(np.abs(means - avg_k)))
    if abs(means[best] - avg_k) > 1.0:
        raise ValueError(
            f"no lower cutoff reaches mean degree {avg_k}; achievable range "
            f"is [{means[0]:.3f}, {means[-1]:.3f}] for k_max={k_max}")
    return best + 2


def sample_community_sizes(params: GenParams, rng) -> list[int]:
    """Power-law community sizes adjusted to sum exactly to n.

    Sizes are drawn one at a time from the truncated power law on
    [s_min, s_max] until they cover n nodes; the overshoot is then removed
    from the last draw, or the last draw is merged away and the deficit
    spread over the others, keeping every size inside [s_min, s_max].
    """
    n, s_min, s_max = params.n, params.resolved_s_min, params.resolved_s_max
    if n < s_min:
        raise GenerationError(
            "community_sizes", f"n={n} smaller than minimum size {s_min}")
    sizes: list[int] = []
    total = 0
    while total < n:
        s = int(sample_truncated_power_law(params.tau2, s_min, s_max, 1, rng)[0])
        sizes.append(s)
        total += s
    excess = total - n
    if excess > 0:
        if sizes[-1] - excess >= s_min:
            sizes[-1] -= excess
        else:
            deficit = n - (total - sizes.pop())
            order = [int(i) for i in rng.permutation(len(sizes))]
            while deficit > 0 and any(x < s_max for x in sizes):
                for i in order:
                    if deficit > 0 and sizes[i] < s_max:
                        sizes[i] += 1
                        deficit -= 1
            if deficit > 0:
                if s_min <= deficit <= s_max:
                    sizes.append(deficit)
                else:
                    raise GenerationError(
                        "community_sizes",
                        f"cannot fit {n} nodes into sizes within "
                        f"[{s_min},{s_max}]")
    return sizes


def _fit_sizes_to_internal_degrees(sizes, int_degs, s_min, s_max):
    """Repair drawn sizes so that every node fits in a community larger than
    its internal degree.

    The size draw knows nothing about degrees: at low mixing the internal
    degrees may exceed the smallest sizes. Communities of ascending size can
    all be filled when every prefix of them fits inside the nodes whose
    internal degree is below that prefix's largest size. Repairs: grow the
    largest community to host the largest internal degree (shaving others
    toward s_min), then dissolve the smallest community into the headroom
    below s_max until the prefix condition holds. Sizes stay within
    [s_min, s_max]; rejects when no repair exists.
    """
    need = max(int_degs) + 1
    if need > s_max:
        raise GenerationError(
            "community_sizes",
            f"internal degree {need - 1} cannot fit in any community "
            f"(s_max={s_max}); raise s_max or mu_t, or lower k_max")
    sizes = sorted(sizes)
    if sizes[-1] < need:
        deficit = need - sizes[-1]
        for i in range(len(sizes) - 2, -1, -1):
            take = min(deficit, sizes[i] - s_min)
            sizes[i] -= take
            sizes[-1] += take
            deficit -= take
        if deficit > 0:
            raise GenerationError(
                "community_sizes",
                f"cannot grow any community to host internal degree {need - 1}")
        sizes.sort()

    int_sorted = np.sort(int_degs)
    while True:
        if (np.cumsum(sizes) <= np.searchsorted(int_sorted, sizes)).all():
            return sizes
        if len(sizes) == 1:
            raise GenerationError(
                "community_sizes",
                "no community-size vector can absorb these internal degrees")
        quota = sizes.pop(0)
        for i in range(len(sizes) - 1, -1, -1):
            take = min(s_max - sizes[i], quota)
            sizes[i] += take
            quota -= take
        if quota > 0:
            raise GenerationError(
                "community_sizes",
                f"sizes capped at s_max={s_max} cannot absorb a dissolved "
                f"community of {quota} leftover nodes")
        sizes.sort()


def _assign_communities(int_deg, sizes, rng) -> np.ndarray:
    """Place nodes into size quotas so every internal degree fits strictly
    inside its community.

    Each node in turn takes a community larger than its internal degree,
    chosen proportionally to the remaining quota, like filling slots. Nodes
    go in random order; when that gets stuck, the largest internal degrees
    go first, so the big communities are still open when they are needed.
    """
    n, sizes = len(int_deg), np.asarray(sizes, dtype=np.int64)
    for order in (rng.permutation(n), np.argsort(-int_deg, kind="stable")):
        quota = sizes.copy()
        membership = np.full(n, -1, dtype=np.int64)
        for v in order:
            free = np.where(sizes > int_deg[v], quota, 0)
            if not free.any():
                break
            membership[v] = c = rng.choice(sizes.size, p=free / free.sum())
            quota[c] -= 1
        else:
            return membership
    raise GenerationError(
        "assignment",
        "some internal degree is too large for every community with "
        "spare capacity; raise s_max or mu_t")


def _split_stubs(degrees, mu_t: float) -> tuple[np.ndarray, np.ndarray]:
    """Split each node's degree into (internal, external) stub counts: node
    v gets floor(mu_t * k_v) external stubs and the nodes with the largest
    remainders one more (ties to the lower id), so the external total is
    exactly round(mu_t * sum(k)); rounding each node on its own would bias
    it, by up to n/2 stubs at mu_t = 0.5.
    """
    k = np.asarray(degrees, dtype=np.int64)
    ext = np.floor(mu_t * k).astype(np.int64)
    short = int(round(mu_t * int(k.sum()))) - int(ext.sum())
    ext[np.argsort(ext - mu_t * k, kind="stable")[:max(short, 0)]] += 1
    return k - ext, ext


def _fix_parity(degrees, int_deg, ext_deg, membership, mu_t, rng):
    """Make every community's internal stub count even, in place: in each
    odd community one node moves one stub between its internal and external
    parts, toward the external total it started with, so no degree changes.
    The exception is mu_t = 0: with no external part to trade with, one
    internal stub is dropped, lowering one node's degree by one.
    """
    target, sizes = int(ext_deg.sum()), np.bincount(membership)
    for c in np.flatnonzero(np.bincount(membership, weights=int_deg) % 2):
        members = np.flatnonzero(membership == c)
        inward = members[(ext_deg[members] > 0) & (int_deg[members] < sizes[c] - 1)]
        step = 1 if inward.size and ext_deg.sum() > target else -1
        v = rng.choice(inward if step == 1 else members[int_deg[members] > 0])
        int_deg[v] += step
        if mu_t == 0:
            degrees[v] -= 1
        else:
            ext_deg[v] -= step


# rounds without a new lowest count after which a phase counts as stalled
_STALL_ROUNDS = 10
# fewest partners drawn per link to repair in a round (a round draws ~m)
_PARTNERS = 8
# strength-fit sweeps before assign_weights gives up
_WEIGHT_SWEEPS = 500
# seed-perturbed attempts before generate gives up
_ATTEMPTS = 10


def build_topology(degrees, sizes, mu_t, rng,
                   mix_tolerance: float = GenParams.mix_tolerance
                   ) -> tuple[Graph, Partition]:
    """Build a simple unit-weight graph realising the requested mixing.

    Degrees are split by ``_split_stubs`` and nodes placed into communities
    of the given sizes. One lexsort over (pool, random key) matches internal
    stubs within their community and external stubs globally; ``_repair``
    swaps away self-loops, parallel edges and misplaced external links, and
    ``_steer`` brings the cross-link count into the middle half of the
    tolerance band. Degrees never change (except at mu_t = 0, see
    ``_fix_parity``) and no edge is dropped: a stalled repair, or a mixing
    outside ``mix_tolerance``, raises ``GenerationError("topology")``.
    """
    degrees = np.array(degrees, dtype=np.int64)
    sizes = [int(s) for s in sizes]
    n = degrees.size
    if sum(sizes) != n:
        raise GenerationError("topology", f"sizes sum to {sum(sizes)}, need {n}")
    if int(degrees.sum()) % 2 == 1:
        raise GenerationError("topology", "degree sum must be even")
    int_deg, ext_deg = _split_stubs(degrees, mu_t)
    if len(sizes) == 1 and ext_deg.any():
        raise GenerationError(
            "topology", "external links are impossible with a single community")

    membership = _assign_communities(int_deg, sizes, rng)
    _fix_parity(degrees, int_deg, ext_deg, membership, mu_t, rng)
    stubs = np.repeat(np.tile(np.arange(n), 2), np.concatenate([int_deg, ext_deg]))
    pool = np.concatenate([membership[stubs[:int(int_deg.sum())]],
                           np.full(int(ext_deg.sum()), len(sizes))])
    # every pool holds an even number of stubs, so neighbours in this order
    # pair up within one pool
    order = np.lexsort((rng.random(stubs.size), pool))
    a, b = stubs[order[0::2]], stubs[order[1::2]]
    kind = pool[order[0::2]] == len(sizes)      # True: external link
    _repair(a, b, kind, membership, ext_deg, rng)
    total = int(degrees.sum())          # X cross links give mixing 2X / total
    _steer(a, b, kind, membership, ext_deg, mu_t * total / 2,
           max(1.0, mix_tolerance * total / 4), rng)

    graph = Graph(n, np.column_stack((a, b, np.ones(a.size))))
    truth = Partition(membership)
    achieved = measured_mixing(graph, truth)[0]
    if abs(achieved - mu_t) > mix_tolerance:
        raise GenerationError(
            "topology",
            f"reached mu_t={achieved:.4f}, target {mu_t} +- {mix_tolerance}")
    return graph, truth


def _same_pool(pool, picks, rng):
    """For each index in ``picks``, a random index from the same pool."""
    count, p = np.bincount(pool), pool[picks]
    offset = (rng.random(p.size) * count[p]).astype(np.int64)
    return np.argsort(pool, kind="stable")[(np.cumsum(count) - count)[p] + offset]


def _absent(keys, k):
    """Whether each of ``k`` is missing from the sorted array ``keys``."""
    at = np.minimum(np.searchsorted(keys, k), keys.size - 1)
    return keys[at] != k


def _swap(a, b, kind, comm, key, e, f, u1, v1, u2, v2, ok, plan=None,
          limit=None):
    """Batched double-edge swap, in place: link e[i] becomes (u1, u2) and
    link f[i] becomes (v1, v2), where {u1, v1} and {u2, v2} are the
    endpoints of e[i] and f[i]. A candidate qualifies where ``ok`` holds and
    it makes no self-loop and no link already in ``key`` (the sorted packed
    keys of the current links, looked up only for candidates that pass the
    cheap tests). In candidate order, each qualifying swap is taken,
    up to ``limit``, when no earlier one uses its links or new links. With
    ``plan``, each node's planned cross links, no earlier one may use its
    nodes, and none may take the last cross link of a node planned to have
    one. New links are tagged by whether they cross communities.
    """
    n = comm.size
    k1 = np.minimum(u1, u2) * n + np.maximum(u1, u2)
    k2 = np.minimum(v1, v2) * n + np.maximum(v1, v2)
    i = np.flatnonzero(ok & (u1 != u2) & (v1 != v2))
    i = i[_absent(key, k1[i])]
    i = i[_absent(key, k2[i])]
    units = (e, f, -1 - k1, -1 - k2) if plan is None else (u1, v1, u2, v2)
    _, first, inverse = np.unique(np.stack([x[i] for x in units], axis=1),
                                  return_index=True, return_inverse=True)
    owner = (first // 4)[inverse].reshape(-1, 4)      # first swap using a unit
    i = i[(owner == np.arange(i.size)[:, None]).all(axis=1)]
    if plan is not None:
        cross = comm[a] != comm[b]
        have = np.bincount(np.concatenate([a[cross], b[cross]]), minlength=n)
        ends = np.stack([u1[i], v1[i], u2[i], v2[i]])
        new = np.tile([comm[u1[i]] != comm[u2[i]], comm[v1[i]] != comm[v2[i]]], (2, 1))
        lost = cross[np.stack([e[i], e[i], f[i], f[i]])] & ~new
        short = have - np.bincount(ends[lost], minlength=n) < np.minimum(plan, 1)
        i = i[~(lost & short[ends]).any(axis=0)]
    i = i[:limit]
    e, f = e[i], f[i]
    a[e], b[e], a[f], b[f] = u1[i], u2[i], v1[i], v2[i]
    kind[e] = comm[a[e]] != comm[b[e]]
    kind[f] = comm[a[f]] != comm[b[f]]


def _repair(a, b, kind, comm, plan, rng):
    """Swap away self-loops, repeated links and external links inside one
    community. Each draws partners from its own pool (its community's
    internal links, or all external links), keeping both links' kinds. After
    ``_STALL_ROUNDS`` rounds without a new lowest count the partners widen:
    an internal link may swap with any link, and an external one trades with
    an internal link of another community, making two cross links, while no
    node loses its last planned cross link. Raises when that stalls too.
    Each round sorts the link keys once: the sort finds the repeats and
    serves ``_swap``'s lookups.
    """
    n, nc = comm.size, int(comm.max()) + 1
    for widened in (False, True):
        best, since = math.inf, 0
        while True:
            key = np.minimum(a, b) * n + np.maximum(a, b)
            by_key = np.argsort(key, kind="stable")
            key = key[by_key]
            bad = np.zeros(a.size, dtype=bool)
            bad[by_key[1:]] = key[1:] == key[:-1]   # all but the first copy
            bad |= (a == b) | (kind & (comm[a] == comm[b]))
            count = int(bad.sum())
            if count == 0:
                return
            best, since = (count, 0) if count < best else (best, since + 1)
            if since == _STALL_ROUNDS:
                break
            e = np.repeat(np.flatnonzero(bad), max(_PARTNERS, a.size // count))
            if widened:
                f = rng.integers(a.size, size=e.size)
                ok = ~kind[e] | (~kind[f] & (comm[a[f]] != comm[a[e]]))
            else:
                f = _same_pool(np.where(kind, nc, comm[a]), e, rng)
            flip = rng.random(e.size) < 0.5
            u2, v2 = np.where(flip, b[f], a[f]), np.where(flip, a[f], b[f])
            cross1, cross2 = comm[a[e]] != comm[u2], comm[b[e]] != comm[v2]
            if not widened:
                ok = (cross1 == kind[e]) & (cross2 == kind[f])
            # a link takes its first valid partner: swaps that keep the
            # number of cross links go first
            moved = cross1.astype(int) + cross2 != kind[e].astype(int) + kind[f]
            order = np.lexsort((moved, e))
            e, f, u2, v2, ok = e[order], f[order], u2[order], v2[order], ok[order]
            _swap(a, b, kind, comm, key, e, f, a[e], b[e], u2, v2, ok,
                  plan if widened else None)
    raise GenerationError("topology", f"{count} self-loops, parallel or "
                          f"misplaced links left when the swaps stalled")


def _steer(a, b, kind, comm, plan, target, slack, rng):
    """Lower the number of cross links to within ``slack`` of ``target``,
    stopping early when that stalls. The repair only adds cross links, so
    steering only removes them: two cross links that meet in one community
    become an internal link plus another link. Swaps that take no node below
    its ``plan`` of cross links go first, and none takes a planned last one.
    """
    n, m = comm.size, a.size
    best, since = math.inf, 0
    while True:
        gap = int(kind.sum()) - target
        best, since = (gap, 0) if gap < best else (best, since + 1)
        if gap <= slack or since == _STALL_ROUNDS:
            return
        # halves (near, far) of every cross link; partners share the near
        # community
        link = np.tile(np.flatnonzero(kind), 2)
        near = np.concatenate([a[kind], b[kind]])
        far = np.concatenate([b[kind], a[kind]])
        h = rng.integers(link.size, size=m)
        g = _same_pool(comm[near], h, rng)
        # nodes that lose a cross link: both near ends, and the far ends
        # when they share a community
        ends = np.stack([near[h], near[g], far[h], far[g]])
        lost = np.ones(ends.shape, dtype=bool)
        lost[2:] = comm[far[h]] == comm[far[g]]
        have = np.bincount(near, minlength=n)[ends]
        below = (lost & (have <= plan[ends])).sum(axis=0)
        order = np.lexsort((rng.random(m), below))
        h, g = h[order], g[order]
        key = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
        _swap(a, b, kind, comm, key, link[h], link[g], near[h], far[h],
              near[g], far[g], np.ones(m, dtype=bool), plan,
              math.ceil((gap - slack) / 2))


def _balance_external_targets(t_ext: np.ndarray, truth: Partition) -> np.ndarray:
    """Scale per-community external-strength targets into a realisable range.

    External edges connect different communities, so community c's external
    strength total can never exceed everyone else's combined, and with
    exactly two communities the two totals must be equal (the external
    subgraph is bipartite). The per-node targets are scaled by a
    per-community factor: with two communities both totals move to their
    mean, which keeps the external total; with more, a community whose total
    exceeds all the others' combined is scaled down to their sum, which
    lowers the external total and so the weight mixing reached.
    """
    out = np.zeros(truth.community_count)
    np.add.at(out, truth.membership, t_ext)
    total = float(out.sum())
    if total <= 0.0:
        return t_ext
    scale = np.ones(truth.community_count)
    if truth.community_count == 2:
        half = total / 2.0
        scale = np.where(out > 0, half / np.maximum(out, 1e-300), 1.0)
    else:
        for c in range(truth.community_count):
            rest = total - out[c]
            if out[c] > rest > 0:
                scale[c] = rest / out[c]
    return t_ext * scale[truth.membership]


def assign_weights(g: Graph, truth: Partition, beta: float, mu_w: float,
                   tolerance: float = 0.01) -> Graph:
    """Fit strictly positive edge weights to the strength targets.

    Node v's target strength is degree(v)^beta, split into an internal part
    (1 - mu_w) and an external part mu_w. Each sweep scales every edge by the
    geometric mean of its two endpoints' correction factors until the mean
    relative strength error drops below ``tolerance``. Multiplicative updates
    keep every weight positive. Rejects with the residual error if the
    targets are unreachable on this topology (for instance a node with only
    external links and mu_w = 0).
    """
    if truth.n != g.n:
        raise GenerationError("weights", "partition does not cover the graph")
    if g.edge_count == 0:
        return g
    eu, ev, _ = g.edge_arrays()
    m = truth.membership
    n = g.n
    # strength parts live in one length-2n array: v internal, n + v external
    side = np.where(m[eu] == m[ev], 0, n)
    bu, bv = eu + side, ev + side
    deg = g.degrees.astype(np.float64)
    s_target = np.where(deg > 0, deg ** beta, 0.0)
    target = np.concatenate(((1.0 - mu_w) * s_target,
                             _balance_external_targets(mu_w * s_target, truth)))

    w = np.ones(g.edge_count, dtype=np.float64)
    active = deg > 0
    err = math.inf
    for _ in range(_WEIGHT_SWEEPS):
        s = np.bincount(bu, w, 2 * n) + np.bincount(bv, w, 2 * n)
        gap = np.abs(s - target)
        gap = gap[:n] + gap[n:]
        err = float((gap[active] / s_target[active]).mean()) if active.any() else 0.0
        if err < tolerance:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.where(s > 0, target / np.maximum(s, 1e-300), 1.0)
        f = np.clip(f, 0.05, 20.0)
        w = np.maximum(w * np.sqrt(f[bu] * f[bv]), 1e-12)
    else:
        raise GenerationError(
            "weights",
            f"strength fit stalled at mean relative error {err:.4f} "
            f"(tolerance {tolerance})")
    return Graph(g.n, np.column_stack((eu, ev, w)))


def measured_mixing(g: Graph, p: Partition) -> tuple[float, float]:
    """Global mixing actually present in (g, p).

    Returns (mu_t, mu_w): the fraction of link endpoints attached to
    cross-community links, and the fraction of total strength carried by
    them.
    """
    if p.n != g.n:
        raise ValueError(f"partition covers {p.n} nodes, graph has {g.n}")
    if g.edge_count == 0:
        return 0.0, 0.0
    u, v, w = g.edge_arrays()
    cross = p.membership[u] != p.membership[v]
    return (2.0 * int(cross.sum()) / int(g.degrees.sum()),
            float(w[cross].sum()) / g.total_weight)


def generate(params: GenParams) -> PlantedNetwork:
    """Produce a planted benchmark network for ``params``.

    Composes degree sampling, community-size sampling, topology construction
    and weight fitting, retrying up to ``_ATTEMPTS`` times with seed-perturbed
    RNG streams when a stage rejects. The result is a pure function of
    ``params`` (byte-identical across repeats); the final error names the
    stage that kept failing.
    """
    last: GenerationError | None = None
    for attempt in range(_ATTEMPTS):
        rng = spawn_rng(params.seed, attempt)
        try:
            return _generate_once(params, rng)
        except GenerationError as exc:
            last = exc
    raise GenerationError(
        last.stage if last else "generate",
        f"all {_ATTEMPTS} attempts failed; last failure: {last}")


def _generate_once(params: GenParams, rng) -> PlantedNetwork:
    k_max = params.resolved_k_max
    try:
        k_min = solve_k_min(params.tau1, params.avg_k, k_max)
    except ValueError as exc:
        raise GenerationError("degrees", str(exc))
    degrees = sample_truncated_power_law(
        params.tau1, k_min, k_max, params.n, rng)
    if int(degrees.sum()) % 2 == 1:
        v = int(rng.integers(params.n))
        degrees[v] += 1 if degrees[v] < k_max else -1
    sizes = sample_community_sizes(params, rng)
    sizes = _fit_sizes_to_internal_degrees(
        sizes, _split_stubs(degrees, params.mu_t)[0].tolist(),
        params.resolved_s_min, params.resolved_s_max)
    graph, truth = build_topology(degrees, sizes, params.mu_t, rng,
                                  params.mix_tolerance)
    graph = assign_weights(graph, truth, params.beta, params.mu_w)
    mu_t, mu_w = measured_mixing(graph, truth)
    return PlantedNetwork(graph=graph, truth=truth, achieved_mu_t=mu_t,
                          achieved_mu_w=mu_w, params=params)
