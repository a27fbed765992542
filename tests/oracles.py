"""Independent brute-force oracles the implementation is checked against.

Everything here is written straight from definitions with no code shared
with the package internals: exhaustive partition enumeration, the map
equation in raw entropy form, modularity as the full double sum, and NMI via
an explicit contingency table. The two detector inner loops are kept here in
their plain forms (a per-node loop for the label-propagation step, and a
per-node, per-move loop for each batched round of Infomap's node moving,
every code-length term recomputed), and so is the depth-first split of a
labelling into connected communities, so that the optimised loops can be
required to return exactly the same results. The selector's vote is counted
here ballot by ballot from a model's fields, and an edge-list file is read
line by line with every edge check made on the line it names.
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


def split_reference(g, labels):
    """Depth-first split of a labelling into communities: connected nodes
    sharing a label form one, numbered in the order their first node is
    reached scanning node ids upward."""
    comm = [-1] * g.n
    next_id = 0
    for start in range(g.n):
        if comm[start] >= 0:
            continue
        stack = [start]
        comm[start] = next_id
        while stack:
            v = stack.pop()
            for u, _ in g.neighbors(v):
                if comm[u] < 0 and labels[u] == labels[start]:
                    comm[u] = next_id
                    stack.append(u)
        next_id += 1
    return comm


def vote_reference(model, c_uw, c_w):
    """Class voted by a three-SVM selector model, from its fields alone: each
    classifier's decision w . x + b on the standardized features votes for
    its positive class when >= 0, two votes of three win, and a 1-1-1 split
    goes to the first classifier with the largest |decision|."""
    x0 = (c_uw - model.feature_mean[0]) / model.feature_std[0]
    x1 = (c_w - model.feature_mean[1]) / model.feature_std[1]
    ballots = []
    for svm in model.svms:
        d = svm.weights[0] * x0 + svm.weights[1] * x1 + svm.bias
        ballots.append((svm.positive_class if d >= 0 else svm.negative_class,
                        abs(d)))
    for cls, _ in ballots:
        if sum(1 for c, _ in ballots if c == cls) >= 2:
            return cls
    best = ballots[0]
    for ballot in ballots[1:]:
        if ballot[1] > best[1]:
            best = ballot
    return best[0]


def edge_list_reference(text):
    """Edge-list text read line by line, each check made on its own line: a
    ``ValueError`` naming the first faulty line, or ``(n, rows, labels)``
    with the (u, v, w) rows in input order. When the ids are labels, rows
    hold their ranks among the sorted ids and ``labels`` those ids; when they
    are node indices, ``labels`` is None."""
    declared = None  # (line number, N)
    rows, seen = [], set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].split()
            if len(body) == 2 and body[0] == "nodes":
                try:
                    declared = (lineno, int(body[1]))
                except ValueError:
                    raise ValueError(f"line {lineno}: bad node count comment")
                if declared[1] < 0:
                    raise ValueError(f"line {lineno}: negative node count")
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u v [w]', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed node id in {raw!r}")
        if not (0 <= u < 2 ** 63 and 0 <= v < 2 ** 63):
            raise ValueError(f"line {lineno}: node id out of range in {raw!r}")
        try:
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise ValueError(f"line {lineno}: malformed weight in {raw!r}")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop on node {u}")
        if not w > 0.0:
            raise ValueError(f"line {lineno}: non-positive weight {w}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate edge {key}")
        seen.add(key)
        rows.append((u, v, w))
    ids = sorted({x for u, v, _ in rows for x in (u, v)})
    line, n = declared or (None, len(ids))
    if not ids or ids[-1] < n:
        return n, rows, None
    if len(ids) != n:
        raise ValueError(f"line {line}: {n} nodes declared, but the "
                         f"{len(ids)} distinct ids are not all below {n}")
    rank = {x: i for i, x in enumerate(ids)}
    return n, [(rank[u], rank[v], w) for u, v, w in rows], tuple(ids)

def _plogp(x):
    return x * np.log2(x) if x > 0.0 else 0.0


def _level_code_length(g, rate, module):
    """(code length plus the node term, exit rate of each module, summed
    visit rate of each module's nodes) of an Infomap level, one link and one
    node at a time. Sums over all modules are taken by numpy, as in the
    package, so the two agree to the bit."""
    n = g.n
    q_u, q_v, visits = [0.0] * n, [0.0] * n, [0.0] * n
    for a, b, w in g.edges:
        if module[a] != module[b]:
            q_u[module[a]] += w
            q_v[module[b]] += w
    q = [x + y for x, y in zip(q_u, q_v)]
    for v in range(n):
        visits[module[v]] += float(rate[v])
    length = (_plogp(float(np.sum(q)))
              - 2.0 * float(np.sum([_plogp(x) for x in q]))
              + float(np.sum([_plogp(x + y) for x, y in zip(q, visits)])))
    return length, q, visits


def local_move_reference(g, rate, rng, tol):
    """Batched map-equation node moving on an Infomap level (a graph of links
    in rate units, and the visit rate of each node), written as plain loops
    over the nodes and moves of each round; returns the module of each node.

    A round takes each node's best move to an adjacent module (the smallest
    module among equal deltas), keeps the moves with delta below ``-tol`` in
    ascending node order, and shuffles them with one ``rng.permutation``.
    Each module takes the role (source or target) of the first move naming
    it, and the batch is the moves whose modules kept the role they need.
    The batch runs when the recomputed code length falls by more than
    ``tol``; otherwise the half with the largest gains is tried, and a
    failing batch of one move ends the moving."""
    n = g.n
    module = list(range(n))
    length, q, visits = _level_code_length(g, rate, module)
    while True:
        sum_q = float(np.sum(q))
        moves = []  # (node, source, target, delta), by ascending node
        for v in range(n):
            a = module[v]
            to_mod = {}
            for u, w in g.neighbors(v):
                to_mod[module[u]] = to_mod.get(module[u], 0.0) + w
            k_out = to_mod.pop(a, 0.0)
            if not to_mod:
                continue
            d_v, p_v = g.strength(v), float(rate[v])
            q_a = q[a] - d_v + 2.0 * k_out
            leave = (-2.0 * (_plogp(q_a) - _plogp(q[a]))
                     + _plogp(q_a + visits[a] - p_v) - _plogp(q[a] + visits[a]))
            best = None
            for b in sorted(to_mod):
                k_in = to_mod[b]
                q_b = q[b] + d_v - 2.0 * k_in
                delta = (_plogp(sum_q + 2.0 * (k_out - k_in)) - _plogp(sum_q)
                         + leave
                         - 2.0 * (_plogp(q_b) - _plogp(q[b]))
                         + _plogp(q_b + visits[b] + p_v)
                         - _plogp(q[b] + visits[b]))
                if best is None or delta < best[3]:
                    best = (v, a, b, delta)
            if best[3] < -tol:
                moves.append(best)
        if not moves:
            return np.array(module)
        moves = [moves[i] for i in rng.permutation(len(moves))]
        role = {}
        for _, a, b, _ in moves:
            role.setdefault(a, "source")
            role.setdefault(b, "target")
        batch = [m for m in moves
                 if role[m[1]] == "source" and role[m[2]] == "target"]
        while True:
            moved = list(module)
            for v, _, b, _ in batch:
                moved[v] = b
            new_length, new_q, new_visits = _level_code_length(g, rate, moved)
            if new_length < length - tol:
                break
            if len(batch) == 1:
                return np.array(module)
            batch = sorted(batch, key=lambda m: m[3])[:(len(batch) + 1) // 2]
        module, length, q, visits = moved, new_length, new_q, new_visits
