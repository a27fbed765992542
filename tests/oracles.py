"""Independent brute-force oracles the implementation is checked against.

Everything here is written straight from definitions with no code shared
with the package internals: exhaustive partition enumeration, the map
equation in raw entropy form, modularity as the full double sum, and NMI via
an explicit contingency table. The two detector inner loops are kept here in
their plain forms (a per-node loop for the label-propagation step, every
code-length term recomputed for each Infomap move), so that the optimised
loops can be required to return exactly the same results.
"""

import math
from itertools import combinations

import numpy as np


def all_partitions(n):
    """Yield every set partition of range(n) as a dense membership tuple
    (restricted growth strings)."""
    a = [0] * n
    b = [1] * n  # b[i] = 1 + max(a[:i])
    while True:
        yield tuple(a)
        # find rightmost position that can be incremented
        i = n - 1
        while i > 0 and a[i] == b[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        m = max(b[i], a[i] + 1)
        for j in range(i + 1, n):
            a[j] = 0
            b[j] = m


def entropy_bits(probs):
    return -sum(p * math.log2(p) for p in probs if p > 0)


def map_equation_reference(g, membership):
    """Two-level code length, straight from the entropy definition."""
    two_w = 2.0 * sum(w for _, _, w in g.edges)
    rates = [g.strength(v) / two_w for v in range(g.n)]
    mods = sorted(set(membership))
    q = {}
    for m in mods:
        exit_w = sum(w for u, v, w in g.edges
                     if (membership[u] == m) != (membership[v] == m))
        q[m] = exit_w / two_w
    q_total = sum(q.values())
    total = 0.0
    if q_total > 0:
        total += q_total * entropy_bits([q[m] / q_total for m in mods])
    for m in mods:
        members = [v for v in range(g.n) if membership[v] == m]
        p_m = q[m] + sum(rates[v] for v in members)
        if p_m <= 0:
            continue
        probs = [q[m] / p_m] + [rates[v] / p_m for v in members]
        total += p_m * entropy_bits(probs)
    return total


def brute_force_min_code_length(g):
    """Exhaustive map-equation minimum over every partition of g's nodes."""
    best_len = math.inf
    best = None
    for memb in all_partitions(g.n):
        val = map_equation_reference(g, memb)
        if val < best_len:
            best_len = val
            best = memb
    return best_len, best


def modularity_reference(g, membership):
    """Q = (1/2W) sum_ij (A_ij - s_i s_j / 2W) delta(c_i, c_j)."""
    n = g.n
    adj = np.zeros((n, n))
    for u, v, w in g.edges:
        adj[u, v] = w
        adj[v, u] = w
    s = adj.sum(axis=1)
    two_w = s.sum()
    total = 0.0
    for i in range(n):
        for j in range(n):
            if membership[i] == membership[j]:
                total += adj[i, j] - s[i] * s[j] / two_w
    return total / two_w


def brute_force_max_modularity(g):
    best_q = -math.inf
    best = None
    for memb in all_partitions(g.n):
        val = modularity_reference(g, memb)
        if val > best_q:
            best_q = val
            best = memb
    return best_q, best


def nmi_reference(a, b):
    """2 I(A;B) / (H(A) + H(B)) from an explicit contingency table."""
    n = len(a)
    table = {}
    for ca, cb in zip(a, b):
        table[(ca, cb)] = table.get((ca, cb), 0) + 1
    row = {}
    col = {}
    for (ca, cb), cnt in table.items():
        row[ca] = row.get(ca, 0) + cnt
        col[cb] = col.get(cb, 0) + cnt
    h_a = entropy_bits([c / n for c in row.values()])
    h_b = entropy_bits([c / n for c in col.values()])
    if h_a == 0 and h_b == 0:
        return 1.0
    if h_a == 0 or h_b == 0:
        return 0.0
    info = 0.0
    for (ca, cb), cnt in table.items():
        info += (cnt / n) * math.log2(cnt * n / (row[ca] * col[cb]))
    return 2 * info / (h_a + h_b)


def _weight_table(g):
    """{(a, b): w} over both orientations of every edge."""
    table = {}
    for u, v, w in g.edges:
        table[(u, v)] = table[(v, u)] = w
    return table


def clustering_uw_reference(g, v):
    """Pair enumeration of Eq-style unweighted clustering."""
    table = _weight_table(g)
    nbrs = sorted(b for a, b in table if a == v)
    k = len(nbrs)
    if k < 2:
        return 0.0
    closed = sum(1 for i, j in combinations(nbrs, 2) if (i, j) in table)
    return closed / (k * (k - 1) / 2)


def clustering_w_reference(g, v):
    """Pair enumeration of Barrat's weighted clustering,
    sum over linked neighbour pairs i < j of (w_vi + w_vj), over s_v (k_v - 1)."""
    table = _weight_table(g)
    nbrs = sorted(b for a, b in table if a == v)
    k = len(nbrs)
    if k < 2:
        return 0.0
    strength = sum(table[(v, i)] for i in nbrs)
    num = sum(table[(v, i)] + table[(v, j)]
              for i, j in combinations(nbrs, 2) if (i, j) in table)
    return num / (strength * (k - 1))


def truncated_power_law_mean_reference(exponent, lo, hi):
    num = sum(x * x ** -exponent for x in range(lo, hi + 1))
    den = sum(x ** -exponent for x in range(lo, hi + 1))
    return num / den


def propagate_step_reference(g, labels, weighted, rng):
    """Synchronous label-propagation step, node by node: a node keeps its
    label when it is among its most supported, otherwise it takes the
    ``floor(r * count)``-th smallest of its most supported labels, drawing
    ``r = rng.random()``."""
    new = [int(x) for x in labels]
    for v in range(g.n):
        support = {}
        for u, w in g.neighbors(v):
            lab = int(labels[u])
            support[lab] = support.get(lab, 0.0) + (w if weighted else 1.0)
        if not support:
            continue
        peak = max(support.values())
        if support.get(new[v]) == peak:
            continue
        best = sorted(lab for lab, x in support.items() if x == peak)
        new[v] = best[int(rng.random() * len(best))]
    return np.array(new, dtype=np.int64)


def _plogp(x):
    return x * math.log(x) / math.log(2.0) if x > 0.0 else 0.0


def local_move_reference(level, rng, tol):
    """Greedy map-equation node moving on an Infomap working level (``n``,
    ``adj`` as per-node {neighbour: rate} dicts, ``rate``, ``out_rate``),
    recomputing every plogp term of each candidate move's code-length
    change; returns the module of each node."""
    n = level.n
    module = list(range(n))
    q_mod = list(level.out_rate)
    p_mod = list(level.rate)
    sum_q = sum(q_mod)
    plp = _plogp

    moved_any = True
    while moved_any:
        moved_any = False
        for v in rng.permutation(n):
            v = int(v)
            a = module[v]
            links = level.adj[v]
            if not links:
                continue
            to_mod = {}
            for u, w in links.items():
                cu = module[u]
                to_mod[cu] = to_mod.get(cu, 0.0) + w
            d_v = level.out_rate[v]
            p_v = level.rate[v]
            k_va = to_mod.get(a, 0.0)
            q_a, p_a = q_mod[a], p_mod[a]
            q_a_new = q_a - d_v + 2.0 * k_va
            base_a = (-2.0 * (plp(q_a_new) - plp(q_a))
                      + plp(q_a_new + p_a - p_v) - plp(q_a + p_a))
            best_gain = -tol
            best_mod = a
            for b, k_vb in sorted(to_mod.items()):
                if b == a:
                    continue
                q_b, p_b = q_mod[b], p_mod[b]
                q_b_new = q_b + d_v - 2.0 * k_vb
                sum_q_new = sum_q + 2.0 * (k_va - k_vb)
                delta = (plp(sum_q_new) - plp(sum_q)
                         + base_a
                         - 2.0 * (plp(q_b_new) - plp(q_b))
                         + plp(q_b_new + p_b + p_v) - plp(q_b + p_b))
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
                module[v] = b
                moved_any = True
    return module
