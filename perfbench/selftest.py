#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Run from the root of a checkout (a few seconds):

    python3 perfbench/selftest.py

Every check first gets a right output, which it must accept, and then one or
more deliberately wrong outputs, each of which it must reject. The fixed-point
test behind ``copra.run_once.unsettled`` is tried the same way. Exits 0 when
every case behaves, 1 otherwise.
"""

import os
import sys
from dataclasses import replace
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from commselect import (Graph, harness, lfr, modularity, nmi,  # noqa: E402
                        parse_edge_list, selector)

import checks  # noqa: E402
from planted import PlantedSpec, edge_list_text, planted_network  # noqa: E402
from tracing import is_fixed_point  # noqa: E402
from workloads import MODEL_FILE  # noqa: E402


def fake_network(net, edges=None, truth=None, **fields):
    """A copy of a generated network with some of its output replaced."""
    g = net.graph if edges is None else SimpleNamespace(n=net.graph.n,
                                                        edges=tuple(edges))
    t = net.truth if truth is None else SimpleNamespace(membership=truth)
    values = dict(graph=g, truth=t, achieved_mu_t=net.achieved_mu_t,
                  achieved_mu_w=net.achieved_mu_w, params=net.params)
    values.update(fields)
    return SimpleNamespace(**values)


def synthetic_sweep(model):
    """Sweep rows, test predictions and a report for six networks whose
    true classes agree with the model's votes."""
    rows, own, predictions, cells = [], [], [], {}
    scores_for = {"weighted": (0.1, 0.9, 0.1, 0.2),
                  "unweighted": (0.9, 0.1, 0.2, 0.1),
                  "none": (0.1, 0.2, 0.3, 0.1)}
    for i, (dx, dy) in enumerate(((-2, 0), (2, 0), (0, -2), (0, 2),
                                  (1, 1), (-1, -1))):
        c_uw = model.feature_mean[0] + dx * model.feature_std[0] / 4
        c_w = model.feature_mean[1] + dy * model.feature_std[1] / 4
        cls = checks.vote(model, c_uw, c_w)
        mu_t, mu_w = (0.2, 0.5)[i % 2], 0.2
        for name, s in zip(harness.ALGORITHM_ORDER, scores_for[cls]):
            rows.append({"mu_t": mu_t, "mu_w": mu_w, "rep": i // 2,
                         "algorithm": name, "status": "ok", "nmi": s,
                         "c_uw": c_uw, "c_w": c_w, "achieved_mu_t": mu_t,
                         "achieved_mu_w": mu_w})
        own.append({"scores": list(scores_for[cls]), "features": (c_uw, c_w),
                     "achieved": (mu_t, mu_w)})
        if i >= 4:
            predictions.append({"mu_t": mu_t, "mu_w": mu_w, "rep": i // 2,
                                "true_class": cls, "predicted_class": cls})
        cells.setdefault((mu_t, mu_w), []).append((cls, scores_for[cls]))
    report = []
    for (mu_t, mu_w), nets in cells.items():
        bw = [max(s[1], s[3]) for _, s in nets]
        bu = [max(s[0], s[2]) for _, s in nets]
        sel = [w if c == "weighted" else u for (c, _), w, u in zip(nets, bw, bu)]
        report.append({"mu_t": mu_t, "mu_w": mu_w, "n": len(nets),
                       "none_fallbacks": sum(c == "none" for c, _ in nets),
                       "mean_best_weighted": float(np.mean(bw)),
                       "mean_best_unweighted": float(np.mean(bu)),
                       "mean_selected": float(np.mean(sel))})
    return rows, own, predictions, report


def cases():
    """(name, whether the check must accept, thunk) triples."""
    net = lfr.generate(lfr.GenParams(n=100, mu_t=0.3, mu_w=0.3, seed=3))
    g, p = net.graph, net.params
    u, v, w = checks.edge_arrays(g)
    truth = np.asarray(net.truth.membership)
    f = selector.extract_features(g)
    copra = harness.run_algorithm("copra_w", g, 0).membership
    infomap = harness.run_algorithm("infomap_w", g, 0).membership
    score = nmi(harness.run_algorithm("infomap_w", g, 0), net.truth)
    model = selector.load_model(MODEL_FILE)
    cls = selector.predict(model, f).value
    edges = list(g.edges)

    def network(n):
        return lambda: checks.check_network(n, p.n, p.mu_t, p.mix_tolerance)

    yield "generated network", True, network(net)
    yield "network with a repeated pair", False, network(
        fake_network(net, edges + [edges[0]]))
    yield "network with a self-loop", False, network(
        fake_network(net, edges + [(5, 5, 1.0)]))
    yield "network with a zero weight", False, network(
        fake_network(net, [edges[0][:2] + (0.0,)] + edges[1:]))
    yield "network missing a node", False, lambda: checks.check_network(
        net, p.n + 1, p.mu_t, p.mix_tolerance)
    yield "truth missing a node", False, network(
        fake_network(net, truth=truth[:-1]))
    yield "misreported mu_t", False, network(
        fake_network(net, achieved_mu_t=net.achieved_mu_t + 1e-3))
    yield "misreported mu_w", False, network(
        fake_network(net, achieved_mu_w=net.achieved_mu_w * (1 + 1e-6)))
    yield "mu_t off target", False, lambda: checks.check_network(
        net, p.n, p.mu_t + 0.05, p.mix_tolerance)

    yield "features", True, lambda: checks.check_features(f, p.n, u, v, w)
    yield "features, c_uw off by 1e-9", False, lambda: checks.check_features(
        replace(f, c_uw=f.c_uw + 1e-9), p.n, u, v, w)
    yield "features swapped", False, lambda: checks.check_features(
        replace(f, c_uw=f.c_w, c_w=f.c_uw), p.n, u, v, w)

    yield "partition covers", True, lambda: checks.check_covers(copra, p.n)
    yield "partition one node short", False, lambda: checks.check_covers(
        copra[:-1], p.n)
    yield "COPRA communities connected", True, (
        lambda: checks.check_connected_communities(copra, u, v))
    path = np.array([0, 1, 2]), np.array([1, 2, 3])
    yield "path 0-1-2-3, nodes 0 and 3 in one community", False, (
        lambda: checks.check_connected_communities(
            np.array([0, 1, 1, 0]), *path))
    yield "Infomap code length", True, lambda: checks.check_code_length(
        infomap, p.n, u, v, w)
    yield "singletons", True, lambda: checks.check_code_length(
        np.arange(p.n), p.n, u, v, w)
    two_k3 = np.array([0, 0, 1, 3, 3, 4, 2]), np.array([1, 2, 2, 4, 5, 5, 3])
    yield "two triangles, modules of unlinked nodes", False, (
        lambda: checks.check_code_length(
            np.array([0, 1, 2, 0, 1, 2]), 6, *two_k3, np.ones(7)))
    yield "nmi", True, lambda: checks.check_nmi(score, infomap, truth)
    yield "nmi off by 0.01", False, lambda: checks.check_nmi(
        score - 0.01, infomap, truth)
    yield "nmi of identical partitions", True, lambda: checks.check_nmi(
        1.0, truth, truth)
    q = modularity(g, net.truth)
    yield "modularity", True, lambda: checks.check_modularity(
        q, truth, p.n, u, v, w)
    yield "modularity of another partition", False, (
        lambda: checks.check_modularity(q, np.arange(p.n), p.n, u, v, w))

    yield "prediction", True, lambda: checks.check_prediction(
        cls, model, f.c_uw, f.c_w)
    for wrong in sorted(set(checks.CLASSES) - {cls}):
        yield f"prediction {wrong} instead of {cls}", False, (
            lambda wrong=wrong: checks.check_prediction(
                wrong, model, f.c_uw, f.c_w))
    yield "training accuracy", True, lambda: checks.check_training_accuracy(
        ["none", "weighted", "weighted"], ["none", "weighted", "weighted"])
    yield "training accuracy at the majority share", False, (
        lambda: checks.check_training_accuracy(
            ["weighted"] * 3, ["none", "weighted", "weighted"]))

    rows, own, predictions, report = synthetic_sweep(model)
    yield "sweep rows", True, lambda: checks.check_sweep_rows(
        rows, 6, own, harness.ALGORITHM_ORDER)
    bad = [dict(r) for r in rows]
    bad[5]["nmi"] += 1e-6
    yield "sweep row with a wrong nmi", False, lambda: checks.check_sweep_rows(
        bad, 6, own, harness.ALGORITHM_ORDER)
    bad = [dict(r, c_w=r["c_w"] + 1e-9) if i < 4 else r
           for i, r in enumerate(rows)]
    yield "sweep row with wrong features", False, (
        lambda: checks.check_sweep_rows(bad, 6, own, harness.ALGORITHM_ORDER))
    yield "sweep rows missing a network", False, (
        lambda: checks.check_sweep_rows(rows[:-4], 6, own,
                                        harness.ALGORITHM_ORDER))
    yield "test split and training", True, lambda: checks.check_training(
        rows, predictions, model, 0.6)
    flipped = [dict(predictions[0], predicted_class=next(
        c for c in checks.CLASSES
        if c != predictions[0]["predicted_class"]))] + predictions[1:]
    yield "test prediction flipped", False, lambda: checks.check_training(
        rows, flipped, model, 0.6)
    yield "report", True, lambda: checks.check_report(rows, report, model)
    bad = [dict(report[0], mean_selected=report[0]["mean_selected"] + 0.01)]
    yield "report with a wrong mean_selected", False, (
        lambda: checks.check_report(rows, bad + report[1:], model))

    obs = planted_network(PlantedSpec(n=200, mu_t=0.3, mu_w=0.3, s_min=20,
                                      s_max=60), np.random.default_rng(0))
    parsed = parse_edge_list(edge_list_text(obs.n, obs.u, obs.v, obs.w))
    yield "parsed edge list", True, lambda: checks.check_parsed(
        parsed, obs.n, obs.u, obs.v, obs.w)
    yield "parsed weight off by 1e-7", False, lambda: checks.check_parsed(
        parsed, obs.n, obs.u, obs.v, obs.w * (1 + 1e-7))
    yield "parsed graph missing an edge", False, lambda: checks.check_parsed(
        parsed, obs.n, obs.u[1:], obs.v[1:], obs.w[1:])
    yield "best NMI 0.95 when separated", True, (
        lambda: checks.check_separated(0.95))
    yield "best NMI 0.5 when separated", False, (
        lambda: checks.check_separated(0.5))

    path_graph = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    yield "fixed point", True, lambda: checks.require(
        is_fixed_point(path_graph, [0, 0, 1, 1], False), "not fixed")
    yield "not a fixed point", False, lambda: checks.require(
        is_fixed_point(path_graph, [0, 1, 1, 1], False), "not fixed")


def main() -> int:
    bad = 0
    for name, accept, thunk in cases():
        try:
            thunk()
            rejected = None
        except checks.CheckFailure as exc:
            rejected = str(exc)
        ok = (rejected is None) == accept
        bad += not ok
        verdict = "accepted" if rejected is None else f"rejected ({rejected})"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}")
    print(f"{'all cases behave' if not bad else f'{bad} case(s) misbehave'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
