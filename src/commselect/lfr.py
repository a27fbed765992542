"""Weighted benchmark networks with planted power-law community structure.

Generation follows the classic recipe: draw community sizes and node degrees
from truncated power laws, split each node's degree into an internal and an
external part according to the topological mixing parameter, realise the two
parts by configuration-model stub matching (per community and globally), then
rewire until the graph is simple and the measured mixing is on target.
Weights are fitted afterwards: each node gets a target strength k^beta, split
into internal and external parts by the weight mixing parameter, and an
iterative proportional scheme scales edge weights (geometric mean of the two
endpoint factors) until node strengths match.

Only mu_t is enforced, within ``mix_tolerance``. mu_w is fitted but not
checked: it falls short of the request, at times by more than the tolerance,
when ``_balance_external_targets`` scales external targets down, and
``PlantedNetwork`` reports the value reached. Per-node mixing is approximate.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, Partition
from .seeds import check_seed, spawn_rng


class GenerationError(Exception):
    """Raised when a generation stage cannot satisfy its contract.

    Attributes:
        stage: name of the failing stage (degrees, community_sizes,
            assignment, topology, weights).
        achieved: optional measured value at failure (e.g. the mixing
            actually reached).
    """

    def __init__(self, stage: str, message: str, achieved: float | None = None):
        self.stage = stage
        self.achieved = achieved
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
    max_rewire_sweeps: int = 200

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
        if self.max_rewire_sweeps < 1:
            raise ValueError("max_rewire_sweeps must be >= 1")

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
    best_lo, best_err = 2, math.inf
    means = []
    for lo in range(2, k_max + 1):
        mean = truncated_power_law_mean(tau1, lo, k_max)
        means.append(mean)
        err = abs(mean - avg_k)
        if err < best_err:
            best_lo, best_err = lo, err
    if best_err > 1.0:
        raise ValueError(
            f"no lower cutoff reaches mean degree {avg_k}; achievable range "
            f"is [{means[0]:.3f}, {means[-1]:.3f}] for k_max={k_max}")
    return best_lo


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
            progress = True
            while deficit > 0 and progress:
                progress = False
                for i in order:
                    if deficit == 0:
                        break
                    if sizes[i] < s_max:
                        sizes[i] += 1
                        deficit -= 1
                        progress = True
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
    """Repair a drawn size vector so the node-to-community assignment with
    every internal degree strictly below its community size can actually be
    completed.

    The power-law size draw knows nothing about degrees: at low mixing every
    internal degree may exceed the smallest drawn sizes, leaving those
    communities impossible to fill. Communities of ascending size s_1 <= ...
    can all be filled exactly when every prefix quota fits inside the set of
    nodes whose internal degree is below that prefix's largest size. Repairs:
    grow the largest community until it can host the largest internal degree
    (shaving others toward s_min), then repeatedly dissolve the smallest
    community into whatever headroom remains below s_max until the prefix
    condition holds. Sizes stay within [s_min, s_max]; rejects when no repair
    exists.
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
            if deficit == 0:
                break
            take = min(deficit, sizes[i] - s_min)
            sizes[i] -= take
            sizes[-1] += take
            deficit -= take
        if deficit > 0:
            raise GenerationError(
                "community_sizes",
                f"cannot grow any community to host internal degree {need - 1}")
        sizes.sort()

    int_sorted = sorted(int_degs)
    while True:
        cum = 0
        feasible = True
        for s in sizes:
            cum += s
            if cum > bisect.bisect_left(int_sorted, s):
                feasible = False
                break
        if feasible:
            return sizes
        if len(sizes) == 1:
            raise GenerationError(
                "community_sizes",
                "no community-size vector can absorb these internal degrees")
        quota = sizes.pop(0)
        for i in range(len(sizes) - 1, -1, -1):
            room = s_max - sizes[i]
            take = min(room, quota)
            sizes[i] += take
            quota -= take
            if quota == 0:
                break
        if quota > 0:
            raise GenerationError(
                "community_sizes",
                f"sizes capped at s_max={s_max} cannot absorb a dissolved "
                f"community of {quota} leftover nodes")
        sizes.sort()


def _assign_communities(int_deg, sizes, rng) -> np.ndarray:
    """Place nodes into size quotas so every internal degree fits strictly
    inside its community."""
    n = len(int_deg)
    nc = len(sizes)

    def attempt(order):
        quota = list(sizes)
        membership = np.full(n, -1, dtype=np.int64)
        for v in order:
            feasible = [c for c in range(nc)
                        if quota[c] > 0 and sizes[c] > int_deg[v]]
            if not feasible:
                return None
            # choose proportionally to remaining quota, like filling slots
            weights = np.array([quota[c] for c in feasible], dtype=np.float64)
            pick = int(rng.choice(len(feasible), p=weights / weights.sum()))
            c = feasible[pick]
            membership[v] = c
            quota[c] -= 1
        return membership

    membership = attempt([int(v) for v in rng.permutation(n)])
    if membership is None:
        # retry with large internal degrees placed first so the big
        # communities are still open when they are needed
        order = sorted(range(n), key=lambda v: -int_deg[v])
        membership = attempt(order)
    if membership is None:
        raise GenerationError(
            "assignment",
            "some internal degree is too large for every community with "
            "spare capacity; raise s_max or mu_t")
    return membership


def _fix_parity(degrees, int_deg, ext_deg, members, sizes, rng):
    """Make each community's internal stub count even, then the external
    total even, nudging single stubs (or dropping one) as needed."""
    for c in range(len(sizes)):
        if sum(int_deg[v] for v in members[c]) % 2 == 0:
            continue
        size_c = sizes[c]
        plus = [v for v in members[c]
                if ext_deg[v] >= 1 and int_deg[v] < min(degrees[v], size_c - 1)]
        if plus:
            v = plus[int(rng.integers(len(plus)))]
            int_deg[v] += 1
            ext_deg[v] -= 1
            continue
        holders = [v for v in members[c] if int_deg[v] >= 1]
        v = holders[int(rng.integers(len(holders)))]
        if any(ext_deg[u] > 0 for u in members[c]):
            int_deg[v] -= 1
            ext_deg[v] += 1
        else:
            # no external stubs in this community (mu_t ~ 0): drop the stub
            # outright rather than manufacture a cross link
            int_deg[v] -= 1
            degrees[v] -= 1
    if sum(ext_deg) % 2 == 1:
        holders = [v for v in range(len(degrees)) if ext_deg[v] >= 1]
        v = holders[int(rng.integers(len(holders)))]
        ext_deg[v] -= 1
        degrees[v] -= 1


class _EdgePool:
    """Mutable edge multiset used during rewiring.

    Records are [a, b] lists tagged internal/external; a count table over
    unordered pairs detects parallels and self-loops.
    """

    def __init__(self, membership):
        self.membership = membership
        self.records: list[list[int]] = []
        self.kind: list[int] = []        # 0 internal, 1 external
        self.counts: dict[tuple[int, int], int] = {}

    @staticmethod
    def _key(a, b):
        return (a, b) if a <= b else (b, a)

    def add(self, a, b, kind):
        self.records.append([a, b])
        self.kind.append(kind)
        k = self._key(a, b)
        self.counts[k] = self.counts.get(k, 0) + 1

    def _dec(self, a, b):
        k = self._key(a, b)
        c = self.counts[k] - 1
        if c:
            self.counts[k] = c
        else:
            del self.counts[k]

    def _inc(self, a, b):
        k = self._key(a, b)
        self.counts[k] = self.counts.get(k, 0) + 1

    def try_swap(self, e, f, flip):
        """Double-edge swap of records e and f; keeps the graph simple.

        With flip False pairs (e.a, f.a) and (e.b, f.b), with True
        (e.a, f.b) and (e.b, f.a). Returns the two new endpoint pairs or
        None when the swap would create a self-loop or parallel edge.
        """
        ea, eb = self.records[e]
        fa, fb = self.records[f]
        if flip:
            fa, fb = fb, fa
        p1, p2 = (ea, fa), (eb, fb)
        if p1[0] == p1[1] or p2[0] == p2[1]:
            return None
        self._dec(ea, eb)
        self._dec(*self.records[f])
        k1, k2 = self._key(*p1), self._key(*p2)
        if self.counts.get(k1, 0) or self.counts.get(k2, 0) or k1 == k2:
            self._inc(ea, eb)
            self._inc(*self.records[f])
            return None
        self._inc(*p1)
        self._inc(*p2)
        self.records[e][0], self.records[e][1] = p1
        self.records[f][0], self.records[f][1] = p2
        return p1, p2

    def is_cross(self, idx):
        a, b = self.records[idx]
        return self.membership[a] != self.membership[b]

    def problem_indices(self):
        """Self-loops, parallel duplicates, and external records that landed
        inside one community."""
        seen: dict[tuple[int, int], int] = {}
        bad = []
        for i, (a, b) in enumerate(self.records):
            k = self._key(a, b)
            if a == b:
                bad.append(i)
                continue
            if k in seen:
                bad.append(i)
                continue
            seen[k] = i
            if self.kind[i] == 1 and not self.is_cross(i):
                bad.append(i)
        return bad


def _stub_match(stubs, rng):
    stubs = np.array(stubs, dtype=np.int64)
    rng.shuffle(stubs)
    return [(int(stubs[i]), int(stubs[i + 1])) for i in range(0, len(stubs) - 1, 2)]


def build_topology(degrees, sizes, mu_t, rng,
                   mix_tolerance: float = 0.02,
                   max_rewire_sweeps: int = 200) -> tuple[Graph, Partition]:
    """Build a simple unit-weight graph realising the requested mixing.

    Internal stubs are matched within each community and external stubs
    globally; rewiring sweeps then remove self-loops and parallel edges by
    double-edge swaps, repair external edges that fell inside one community,
    and finally steer the global cross-link fraction into the tolerance band
    around ``mu_t``. Rejects (carrying the achieved value) if the band cannot
    be reached within ``max_rewire_sweeps``.
    """
    degrees = [int(k) for k in degrees]
    sizes = [int(s) for s in sizes]
    n = len(degrees)
    if sum(sizes) != n:
        raise GenerationError("topology", f"sizes sum to {sum(sizes)}, need {n}")
    if sum(degrees) % 2 == 1:
        raise GenerationError("topology", "degree sum must be even")

    int_deg = [int(math.floor((1.0 - mu_t) * k + 0.5)) for k in degrees]
    ext_deg = [k - i for k, i in zip(degrees, int_deg)]
    if len(sizes) == 1 and (mu_t > 0 and any(e > 0 for e in ext_deg)):
        raise GenerationError(
            "topology", "external links are impossible with a single community")

    membership = _assign_communities(int_deg, sizes, rng)
    truth = Partition(membership)
    members = truth.members()
    _fix_parity(degrees, int_deg, ext_deg, members, sizes, rng)

    pool = _EdgePool(membership)
    for nodes in members:
        stubs = [v for v in nodes for _ in range(int_deg[v])]
        for a, b in _stub_match(stubs, rng):
            pool.add(a, b, 0)
    ext_stubs = [v for v in range(n) for _ in range(ext_deg[v])]
    for a, b in _stub_match(ext_stubs, rng):
        pool.add(a, b, 1)

    _rewire(pool, members, mu_t, mix_tolerance, max_rewire_sweeps, rng)

    edges = [(a, b, 1.0) for a, b in pool.records]
    graph = Graph(n, edges)
    achieved = measured_mixing(graph, truth)[0]
    if abs(achieved - mu_t) > mix_tolerance:
        raise GenerationError(
            "topology",
            f"reached mu_t={achieved:.4f}, target {mu_t} +- {mix_tolerance}",
            achieved=achieved)
    return graph, truth


def _rewire(pool: _EdgePool, members, mu_t, tol, max_sweeps, rng):
    nc = len(members)
    membership = pool.membership
    n_edges = len(pool.records)
    if n_edges == 0:
        return

    def random_partner(indices, forbid):
        if not indices:
            return None
        for _ in range(24):
            f = indices[int(rng.integers(len(indices)))]
            if f != forbid:
                return f
        return None

    for _ in range(max_sweeps):
        internal_by_comm = [[] for _ in range(nc)]
        external_idx = []
        for i, k in enumerate(pool.kind):
            if k == 0:
                internal_by_comm[membership[pool.records[i][0]]].append(i)
            else:
                external_idx.append(i)
        problems = pool.problem_indices()
        if not problems:
            # the graph is simple now; retag every edge by whether it truly
            # crosses communities so steering works from ground truth
            internal_by_comm = [[] for _ in range(nc)]
            external_idx = []
            for i in range(len(pool.records)):
                if pool.is_cross(i):
                    pool.kind[i] = 1
                    external_idx.append(i)
                else:
                    pool.kind[i] = 0
                    internal_by_comm[membership[pool.records[i][0]]].append(i)
            steered = _steer_mixing(pool, internal_by_comm, external_idx,
                                    mu_t, tol, rng)
            if steered:
                break
            continue
        order = rng.permutation(len(problems))
        for pi in order:
            e = problems[int(pi)]
            a, b = pool.records[e]
            if pool.kind[e] == 0:
                candidates = internal_by_comm[membership[a]]
            else:
                candidates = external_idx
            fixed = False
            for _ in range(40):
                f = random_partner(candidates, e)
                if f is None:
                    break
                flip = bool(rng.integers(2))
                for orient in (flip, not flip):
                    res = pool.try_swap(e, f, orient)
                    if res is None:
                        continue
                    if pool.kind[e] == 1 and not (pool.is_cross(e) and pool.is_cross(f)):
                        # keep external edges cross-community when possible;
                        # re-pairing first-with-first restores the originals
                        pool.try_swap(e, f, False)
                        continue
                    fixed = True
                    break
                if fixed:
                    break
            if not fixed and pool.kind[e] == 1 and nc > 1:
                # stuck external edge inside community c: trade with an
                # internal edge of another community, yielding two cross links
                c = membership[a]
                others = [i for cc in range(nc) if cc != c
                          for i in internal_by_comm[cc]]
                for _ in range(40):
                    f = random_partner(others, e)
                    if f is None:
                        break
                    res = pool.try_swap(e, f, bool(rng.integers(2)))
                    if res is not None:
                        pool.kind[f] = 1
                        fixed = True
                        break
    else:
        _drop_unfixable(pool)


def _steer_mixing(pool: _EdgePool, internal_by_comm, external_idx,
                  mu_t, tol, rng) -> bool:
    """Nudge the cross-link fraction toward mu_t; True when within band."""
    membership = pool.membership
    n_edges = len(pool.records)
    band = 0.5 * tol
    budget = 4 * n_edges
    cross = sum(1 for i in range(n_edges) if pool.is_cross(i))
    while budget > 0:
        current = cross / n_edges
        if abs(current - mu_t) <= band:
            return True
        budget -= 1
        if current < mu_t:
            # convert two internal edges of different communities into two
            # cross links
            comms = [c for c, lst in enumerate(internal_by_comm) if lst]
            if len(comms) < 2:
                return abs(current - mu_t) <= tol
            picks = rng.choice(len(comms), size=2, replace=False)
            lst1 = internal_by_comm[comms[int(picks[0])]]
            lst2 = internal_by_comm[comms[int(picks[1])]]
            e = lst1[int(rng.integers(len(lst1)))]
            f = lst2[int(rng.integers(len(lst2)))]
            res = pool.try_swap(e, f, bool(rng.integers(2)))
            if res is not None:
                pool.kind[e] = pool.kind[f] = 1
                lst1.remove(e)
                lst2.remove(f)
                external_idx.extend((e, f))
                cross += 2
        else:
            # pair two cross links sharing a community side into one internal
            # link plus one other link
            if len(external_idx) < 2:
                return abs(current - mu_t) <= tol
            e = external_idx[int(rng.integers(len(external_idx)))]
            ea, eb = pool.records[e]
            mates = [i for i in external_idx if i != e and (
                membership[pool.records[i][0]] == membership[ea]
                or membership[pool.records[i][1]] == membership[ea]
                or membership[pool.records[i][0]] == membership[eb]
                or membership[pool.records[i][1]] == membership[eb])]
            if not mates:
                continue
            f = mates[int(rng.integers(len(mates)))]
            fa, fb = pool.records[f]
            # orient so that same-community endpoints meet
            flip = not (membership[fa] == membership[ea]
                        or membership[fb] == membership[eb])
            res = pool.try_swap(e, f, flip)
            if res is not None:
                cross -= 2
                for idx in (e, f):
                    if not pool.is_cross(idx):
                        pool.kind[idx] = 0
                        external_idx.remove(idx)
                        a0 = pool.records[idx][0]
                        internal_by_comm[membership[a0]].append(idx)
                    else:
                        cross += 1
    return abs(cross / n_edges - mu_t) <= tol


def _drop_unfixable(pool: _EdgePool):
    """Last resort after the sweep budget: delete leftover self-loops and
    duplicate parallels (one survivor per pair is kept)."""
    keep_records = []
    keep_kind = []
    seen = set()
    for i, (a, b) in enumerate(pool.records):
        if a == b:
            continue
        k = pool._key(a, b)
        if k in seen:
            continue
        seen.add(k)
        keep_records.append([a, b])
        keep_kind.append(pool.kind[i])
    pool.records = keep_records
    pool.kind = keep_kind
    pool.counts = {pool._key(a, b): 1 for a, b in keep_records}


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
                   tolerance: float = 0.01, max_sweeps: int = 500) -> Graph:
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
    internal = m[eu] == m[ev]
    n = g.n
    deg = g.degrees.astype(np.float64)
    s_target = np.where(deg > 0, deg ** beta, 0.0)
    t_int = (1.0 - mu_w) * s_target
    t_ext = mu_w * s_target
    t_ext = _balance_external_targets(t_ext, truth)

    w = np.ones(g.edge_count, dtype=np.float64)
    active = deg > 0
    err = math.inf
    for _ in range(max_sweeps):
        s_int = (np.bincount(eu[internal], weights=w[internal], minlength=n)
                 + np.bincount(ev[internal], weights=w[internal], minlength=n))
        s_ext = (np.bincount(eu[~internal], weights=w[~internal], minlength=n)
                 + np.bincount(ev[~internal], weights=w[~internal], minlength=n))
        gap = np.abs(s_int - t_int) + np.abs(s_ext - t_ext)
        err = float((gap[active] / s_target[active]).mean()) if active.any() else 0.0
        if err < tolerance:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            f_int = np.where(s_int > 0, t_int / np.maximum(s_int, 1e-300), 1.0)
            f_ext = np.where(s_ext > 0, t_ext / np.maximum(s_ext, 1e-300), 1.0)
        f_int = np.clip(f_int, 0.05, 20.0)
        f_ext = np.clip(f_ext, 0.05, 20.0)
        factor = np.where(internal,
                          np.sqrt(f_int[eu] * f_int[ev]),
                          np.sqrt(f_ext[eu] * f_ext[ev]))
        w = np.maximum(w * factor, 1e-12)
    else:
        raise GenerationError(
            "weights",
            f"strength fit stalled at mean relative error {err:.4f} "
            f"(tolerance {tolerance})",
            achieved=err)
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
    and weight fitting, retrying up to ten times with seed-perturbed RNG
    streams when a stage rejects. The result is a pure function of
    ``params`` (byte-identical across repeats); the final error names the
    stage that kept failing.
    """
    last: GenerationError | None = None
    for attempt in range(10):
        rng = spawn_rng(params.seed, attempt)
        try:
            return _generate_once(params, rng)
        except GenerationError as exc:
            last = exc
    raise GenerationError(
        last.stage if last else "generate",
        f"all 10 attempts failed; last failure: {last}")


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
    int_degs = [int(math.floor((1.0 - params.mu_t) * int(k) + 0.5))
                for k in degrees]
    sizes = _fit_sizes_to_internal_degrees(sizes, int_degs,
                                           params.resolved_s_min,
                                           params.resolved_s_max)
    graph, truth = build_topology(
        [int(k) for k in degrees], sizes, params.mu_t, rng,
        params.mix_tolerance, params.max_rewire_sweeps)
    graph = assign_weights(graph, truth, params.beta, params.mu_w)
    mu_t, mu_w = measured_mixing(graph, truth)
    if abs(mu_t - params.mu_t) > params.mix_tolerance:
        raise GenerationError(
            "topology", f"mixing drifted to {mu_t:.4f}", achieved=mu_t)
    return PlantedNetwork(graph=graph, truth=truth, achieved_mu_t=mu_t,
                          achieved_mu_w=mu_w, params=params)
