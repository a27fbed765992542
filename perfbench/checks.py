"""Output checks of the benchmark.

Each check recomputes what the program returned, from the definitions in the
package's docstrings, or tests a property the method must have. None compares
against a stored copy of earlier output. A check raises ``CheckFailure`` with
a message naming what was wrong.
"""

from __future__ import annotations

import math

import numpy as np

CLASSES = ("weighted", "unweighted", "none")


class CheckFailure(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def edge_arrays(g):
    """(u, v, w) arrays of a graph's edge tuples."""
    if not g.edges:
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.float64))
    e = np.array(g.edges, dtype=np.float64)
    return e[:, 0].astype(np.int64), e[:, 1].astype(np.int64), e[:, 2]


def mixing(u, v, w, membership) -> tuple[float, float]:
    """Share of links and share of weight on cross-community links."""
    cross = membership[u] != membership[v]
    return float(cross.sum()) / u.size, float(w[cross].sum() / w.sum())


# --- generated networks ------------------------------------------------------

def check_network(net, n: int, mu_t: float, mix_tolerance: float) -> None:
    """Check one ``PlantedNetwork``.

    The graph must be simple with ``n`` nodes and positive weights, the
    truth must cover every node, the reported mixing must equal the mixing
    recomputed from the returned edges, and mu_t must be within
    ``mix_tolerance`` of its target. mu_w is not checked against its target
    (``lfr.mu_w_off_target`` counts the misses).
    """
    g, truth = net.graph, net.truth
    require(g.n == n, f"graph has {g.n} nodes, expected {n}")
    u, v, w = edge_arrays(g)
    require(u.size > 0, "generated graph has no edges")
    require(bool((u != v).all()), "generated graph has a self-loop")
    require(bool(((u >= 0) & (v >= 0) & (u < n) & (v < n)).all()),
            "edge endpoint outside the node range")
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    require(np.unique(lo * n + hi).size == u.size,
            "generated graph has a repeated pair")
    require(bool((np.isfinite(w) & (w > 0)).all()),
            "generated graph has a non-positive weight")
    m = np.asarray(truth.membership)
    require(m.size == n and bool((m >= 0).all()),
            f"truth covers {m.size} of {n} nodes")
    mu_t_own, mu_w_own = mixing(u, v, w, m)
    require(math.isclose(net.achieved_mu_t, mu_t_own, rel_tol=1e-12,
                         abs_tol=1e-15),
            f"reported mu_t {net.achieved_mu_t!r} != recomputed {mu_t_own!r}")
    require(math.isclose(net.achieved_mu_w, mu_w_own, rel_tol=1e-9,
                         abs_tol=1e-12),
            f"reported mu_w {net.achieved_mu_w!r} != recomputed {mu_w_own!r}")
    require(abs(mu_t_own - mu_t) <= mix_tolerance + 1e-12,
            f"mu_t {mu_t_own:.4f} misses target {mu_t} by more than "
            f"{mix_tolerance}")


# --- features ----------------------------------------------------------------

def clustering_means(n: int, u, v, w) -> tuple[float, float]:
    """Means of the two local clustering coefficients in matrix form.

    With A the adjacency matrix, a_v and w_v row v of A and of the weight
    matrix, k_v the degree and s_v the strength:
    C_uw(v) = a_v' A a_v / (k_v (k_v - 1)) and
    C_w(v) = w_v' A a_v / (s_v (k_v - 1)); nodes of degree < 2 count as 0.
    Row v only touches the k_v x k_v block of A on v's neighbours.
    """
    adj = np.zeros((n, n), dtype=bool)
    adj[u, v] = adj[v, u] = True
    order = np.argsort(np.concatenate([u, v]), kind="stable")
    nbr = np.concatenate([v, u])[order]
    wt = np.concatenate([w, w])[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(
        np.concatenate([u, v]), minlength=n))])
    c_uw = c_w = 0.0
    for x in range(n):
        lo, hi = indptr[x], indptr[x + 1]
        k = hi - lo
        if k < 2:
            continue
        idx = nbr[lo:hi]
        closed = adj[np.ix_(idx, idx)].sum(axis=1)     # (A a_v) on N(v)
        c_uw += closed.sum() / (k * (k - 1))
        c_w += (wt[lo:hi] * closed).sum() / (wt[lo:hi].sum() * (k - 1))
    return float(c_uw / n), float(c_w / n)


def check_features(features, n: int, u, v, w) -> None:
    c_uw, c_w = clustering_means(n, u, v, w)
    require(abs(features.c_uw - c_uw) <= 1e-12,
            f"c_uw {features.c_uw!r} != matrix form {c_uw!r}")
    require(abs(features.c_w - c_w) <= 1e-12,
            f"c_w {features.c_w!r} != matrix form {c_w!r}")


# --- detector output ---------------------------------------------------------

def check_covers(membership, n: int) -> None:
    m = np.asarray(membership)
    require(m.shape == (n,), f"partition covers {m.size} of {n} nodes")
    require(bool((m >= 0).all()), "partition has a negative community id")


def check_connected_communities(membership, u, v) -> None:
    """Every community must induce a connected subgraph."""
    m = np.asarray(membership)
    inside = m[u] == m[v]
    a, b = u[inside], v[inside]
    root = np.arange(m.size)
    while True:           # min-label propagation over links inside communities
        low = np.minimum(root[a], root[b])
        new = root.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, root):
            break
        root = new
    pieces = np.unique(root).size
    require(pieces == np.unique(m).size,
            f"{pieces} connected pieces in {np.unique(m).size} communities")


def _plogp(x):
    x = np.asarray(x, dtype=np.float64)
    x = x[x > 0]
    return float((x * np.log2(x)).sum())


def code_length(membership, n: int, u, v, w) -> float:
    """Two-level map equation L = q H(Q) + sum_m p_m H(P_m), in bits, with
    visit rates p_v = s_v / 2W, exit rates q_m = (weight leaving m) / 2W and
    p_m = q_m + sum of p_v over m."""
    m = np.asarray(membership)
    two_w = 2.0 * w.sum()
    rate = (np.bincount(u, weights=w, minlength=n)
            + np.bincount(v, weights=w, minlength=n)) / two_w
    cross = m[u] != m[v]
    c = int(m.max()) + 1
    q_m = (np.bincount(m[u[cross]], weights=w[cross], minlength=c)
           + np.bincount(m[v[cross]], weights=w[cross], minlength=c)) / two_w
    p_m = q_m + np.bincount(m, weights=rate, minlength=c)
    q = q_m.sum()
    index = q * -_plogp(q_m / q) if q > 0 else 0.0
    modules = 0.0
    for k in np.flatnonzero(p_m > 0):
        parts = np.concatenate([[q_m[k]], rate[m == k]]) / p_m[k]
        modules += p_m[k] * -_plogp(parts)
    return index + modules


def check_code_length(membership, n: int, u, v, w,
                      move_tolerance: float = 1e-10) -> None:
    """Infomap starts from singletons and accepts only moves that lower the
    code length by more than ``move_tolerance``, so its partition is either
    the singletons or below their code length by more than that.

    (Being no larger than the singletons' code length alone holds for every
    partition of an undirected graph: the code length grows with each
    module's exit rate, which is largest when no link stays inside.)
    """
    m = np.asarray(membership)
    if np.unique(m).size == n:
        return
    found = float(code_length(m, n, u, v, w))
    start = float(code_length(np.arange(n), n, u, v, w))
    require(found <= start - 0.5 * move_tolerance,
            f"code length {found!r} is not below the singletons' {start!r}")


def modularity(membership, n: int, u, v, w) -> float:
    """Q = sum_c [W_c / W - (S_c / 2W)^2] over communities c."""
    m = np.asarray(membership)
    c = int(m.max()) + 1
    total = w.sum()
    inside = m[u] == m[v]
    w_c = np.bincount(m[u[inside]], weights=w[inside], minlength=c)
    s_c = (np.bincount(m[u], weights=w, minlength=c)
           + np.bincount(m[v], weights=w, minlength=c))
    return float((w_c / total - (s_c / (2.0 * total)) ** 2).sum())


def check_modularity(value: float, membership, n: int, u, v, w) -> None:
    own = modularity(membership, n, u, v, w)
    require(abs(value - own) <= 1e-9, f"modularity {value!r} != own {own!r}")


def own_nmi(a, b) -> float:
    """2 I(A;B) / (H(A) + H(B)) from the contingency table; 1 when both
    partitions have one community, 0 when only one does."""
    a, b = np.asarray(a), np.asarray(b)
    n = a.size
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    table = np.zeros((ia.max() + 1, ib.max() + 1))
    np.add.at(table, (ia, ib), 1.0)
    row, col = table.sum(axis=1) / n, table.sum(axis=0) / n
    h_a, h_b = -_plogp(row), -_plogp(col)
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    if h_a == 0.0 or h_b == 0.0:
        return 0.0
    p = table / n
    nz = p > 0
    info = float((p[nz] * np.log2(p[nz] / np.outer(row, col)[nz])).sum())
    return 2.0 * info / (h_a + h_b)


def check_nmi(value: float, a, b) -> None:
    own = own_nmi(a, b)
    require(abs(value - own) <= 1e-9, f"nmi {value!r} != own {own!r}")


# --- selector ----------------------------------------------------------------

def vote(model, c_uw: float, c_w: float) -> str:
    """Class from the model's standardisation and three linear votes: the
    majority class, or on a 1-1-1 split the vote with the largest |margin|."""
    x = ((c_uw - model.feature_mean[0]) / model.feature_std[0],
         (c_w - model.feature_mean[1]) / model.feature_std[1])
    votes = []
    for svm in model.svms:
        d = svm.weights[0] * x[0] + svm.weights[1] * x[1] + svm.bias
        cls = svm.positive_class if d >= 0 else svm.negative_class
        votes.append((cls.value, d))
    names = [c for c, _ in votes]
    for c in CLASSES:
        if names.count(c) >= 2:
            return c
    return max(votes, key=lambda t: abs(t[1]))[0]


def check_prediction(predicted: str, model, c_uw: float, c_w: float) -> None:
    own = vote(model, c_uw, c_w)
    require(predicted == own, f"predicted {predicted}, votes give {own}")


def true_class(scores: dict, threshold: float) -> str:
    """Class of the best-scoring algorithm; none below the threshold, and
    unweighted on an exact tie across classes."""
    best = max(scores.values())
    if best < threshold:
        return "none"
    top = {a for a, s in scores.items() if s == best}
    return "unweighted" if any(a.endswith("_uw") for a in top) else "weighted"


def group_rows(rows) -> dict:
    """Sweep rows grouped per network, (mu_t, mu_w, rep) -> rows, in order."""
    nets: dict = {}
    for r in rows:
        nets.setdefault((r["mu_t"], r["mu_w"], r["rep"]), []).append(r)
    return nets


def check_sweep_rows(rows, networks: int, own: list, algorithms) -> int:
    """Compare sweep rows with what the benchmark computed itself for each
    generated network (``own``: features, achieved mixing and NMI per
    variant); return how many networks failed."""
    nets = group_rows(rows)
    require(len(nets) == networks, f"{len(nets)} networks in the sweep rows")
    ok = [rs for rs in nets.values() if all(r["status"] == "ok" for r in rs)]
    require(len(ok) == len(own),
            f"{len(ok)} ok networks in the rows, {len(own)} generated")
    for rs, rec in zip(ok, own):
        require([r["algorithm"] for r in rs] == list(algorithms),
                f"rows list {[r['algorithm'] for r in rs]}")
        for r, score in zip(rs, rec["scores"]):
            require(abs(r["nmi"] - score) <= 1e-9,
                    f"row nmi {r['nmi']!r} != own {score!r}")
        for r in rs:
            require(abs(r["c_uw"] - rec["features"][0]) <= 1e-12
                    and abs(r["c_w"] - rec["features"][1]) <= 1e-12,
                    "row features differ from the matrix form")
            require((r["achieved_mu_t"], r["achieved_mu_w"]) == rec["achieved"],
                    "row mixing differs from the generated network")
    return len(nets) - len(ok)


def check_training(rows, predictions, model, threshold: float) -> None:
    """Test predictions must carry the right true class and the votes'
    class; on the training split the votes must beat the most frequent
    class."""
    test = {(p["mu_t"], p["mu_w"], p["rep"]): p for p in predictions}
    predicted, truth = [], []
    for key, rs in group_rows(rows).items():
        own = true_class({r["algorithm"]: r["nmi"] for r in rs}, threshold)
        c_uw, c_w = rs[0]["c_uw"], rs[0]["c_w"]
        if key in test:
            require(test[key]["true_class"] == own,
                    f"test network {key} labelled {test[key]['true_class']}, "
                    f"not {own}")
            check_prediction(test[key]["predicted_class"], model, c_uw, c_w)
        else:
            predicted.append(vote(model, c_uw, c_w))
            truth.append(own)
    check_training_accuracy(predicted, truth)


def check_report(rows, report, model) -> None:
    """Recompute each cell of the selection report: best weighted and best
    unweighted NMI, the class the votes pick (none falls back to
    unweighted), and the count of none votes."""
    cells: dict = {}
    for rs in group_rows(rows).values():
        cells.setdefault((rs[0]["mu_t"], rs[0]["mu_w"]), []).append(rs)
    require(len(report) == len(cells),
            f"report has {len(report)} cells, rows {len(cells)}")
    for line in report:
        nets = cells[(line["mu_t"], line["mu_w"])]
        best_w = [max(r["nmi"] for r in rs if not r["algorithm"].endswith("_uw"))
                  for rs in nets]
        best_uw = [max(r["nmi"] for r in rs if r["algorithm"].endswith("_uw"))
                   for rs in nets]
        picks = [vote(model, rs[0]["c_uw"], rs[0]["c_w"]) for rs in nets]
        selected = [bw if p == "weighted" else bu
                    for bw, bu, p in zip(best_w, best_uw, picks)]
        own = {"n": len(nets), "none_fallbacks": picks.count("none"),
               "mean_best_weighted": float(np.mean(best_w)),
               "mean_best_unweighted": float(np.mean(best_uw)),
               "mean_selected": float(np.mean(selected))}
        for key, value in own.items():
            require(abs(line[key] - value) <= 1e-12,
                    f"report {key} {line[key]!r} != own {value!r}")


def check_training_accuracy(predicted: list, truth: list) -> None:
    """Accuracy on the training split must beat the most frequent class."""
    hits = sum(p == t for p, t in zip(predicted, truth))
    top = max(truth.count(c) for c in CLASSES)
    require(hits > top,
            f"training accuracy {hits}/{len(truth)} does not beat the most "
            f"frequent class ({top}/{len(truth)})")


# --- observed networks -------------------------------------------------------

def check_parsed(g, n: int, u, v, w) -> None:
    """A parsed graph equals the written one, weights to 9 significant
    digits."""
    require(g.n == n, f"parsed {g.n} nodes, wrote {n}")
    pu, pv, pw = edge_arrays(g)
    require(pu.size == u.size, f"parsed {pu.size} edges, wrote {u.size}")
    require(bool((pu == u).all() and (pv == v).all()),
            "parsed edge endpoints differ from the written ones")
    rel = np.abs(pw - w) / w
    require(bool((rel <= 5e-9 * (1 + 1e-6)).all()),
            f"parsed weight off by {rel.max():.2e} relative")


def check_separated(best_nmi: float) -> None:
    require(best_nmi >= 0.9,
            f"best NMI {best_nmi:.3f} < 0.9 on well-separated communities")
