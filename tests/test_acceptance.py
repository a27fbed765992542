"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with:

    pytest tests/test_acceptance.py -v -s

The grid sweep backing criteria 3-5 generates 8 x 8 x 18 = 1152 networks and
runs all four detector variants on each; the whole file took 130 s in one
process on a 2-core Intel Xeon. Every seed is fixed; reruns are
bit-identical.
Every test here is marked ``slow``: ``pytest -m "not slow"`` skips them.
"""

import math
import time

import numpy as np
import pytest

from commselect import (CopraConfig, GenParams, Graph, InfomapConfig,
                        Partition, SweepConfig, assign_weights, copra_detect,
                        generate, infomap_detect, local_clustering,
                        map_equation, measured_mixing, modularity, nmi,
                        report_selection, run_sweep, train_eval)
from commselect.harness import collect_networks
from conftest import (build_complete, build_path, build_star, build_two_k3,
                      build_two_k3_bridge)
from oracles import brute_force_min_code_length
import test_properties

pytestmark = pytest.mark.slow

GRID = tuple(round(0.1 * i, 1) for i in range(1, 9))
FIG_BASE = GenParams(n=100, mu_t=0.0, mu_w=0.0, avg_k=25.0, tau1=2.0,
                     tau2=1.0, beta=1.5)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def grid_sweep_rows():
    config = SweepConfig(base=FIG_BASE, mu_t_grid=GRID, mu_w_grid=GRID,
                         reps=18, master_seed=20240, workers=1)
    return run_sweep(config)


@pytest.fixture(scope="module")
def trained(grid_sweep_rows):
    return train_eval(grid_sweep_rows, train_fraction=0.8, split_seed=0,
                      threshold=0.6)


def best_of_class(record):
    w = max(record.scores["copra_w"], record.scores["infomap_w"])
    uw = max(record.scores["copra_uw"], record.scores["infomap_uw"])
    return w, uw


def test_criterion_1_regime_crossover():
    start = time.time()
    config = SweepConfig(base=FIG_BASE, mu_t_grid=(0.1, 0.6),
                         mu_w_grid=(0.3,), reps=25, master_seed=2024,
                         workers=1)
    records = collect_networks(run_sweep(config))
    means = {}
    for mu_t in (0.1, 0.6):
        sel = [best_of_class(r) for r in records if r.mu_t == mu_t]
        means[mu_t] = (float(np.mean([w for w, _ in sel])),
                       float(np.mean([uw for _, uw in sel])))
    elapsed = time.time() - start
    w_low, uw_low = means[0.1]
    w_high, uw_high = means[0.6]
    ok = (uw_low - w_low >= 0.05 and w_high - uw_high >= 0.05
          and elapsed < 600.0)
    report(1, ok,
           f"mu_t=0.1: best_uw={uw_low:.3f} vs best_w={w_low:.3f} "
           f"(margin {uw_low - w_low:+.3f}); mu_t=0.6: best_w={w_high:.3f} "
           f"vs best_uw={uw_high:.3f} (margin {w_high - uw_high:+.3f}); "
           f"elapsed {elapsed:.0f}s < 600s")


def test_criterion_2_unweighted_insensitive_to_reweighting():
    net = generate(GenParams(n=100, mu_t=0.3, mu_w=0.1, seed=77))
    copra_cfg = CopraConfig(seed=5, weighted=False)
    info_cfg = InfomapConfig(seed=5, weighted=False)
    baseline = None
    identical = True
    for mu_w in [round(0.1 * i, 1) for i in range(1, 10)]:
        reweighted = assign_weights(net.graph, net.truth, beta=1.5, mu_w=mu_w)
        pair = (copra_detect(reweighted, copra_cfg),
                infomap_detect(reweighted, info_cfg))
        if baseline is None:
            baseline = pair
        elif pair != baseline:
            identical = False
            break
    report(2, identical,
           "copra_uw and infomap_uw partitions exactly identical across "
           "mu_w in {0.1..0.9} on a fixed topology, same seeds")


def test_criterion_3_feature_parameter_correlation(grid_sweep_rows):
    records = [r for r in collect_networks(grid_sweep_rows) if r.rep < 10]
    c_uw = np.array([r.features.c_uw for r in records])
    c_w = np.array([r.features.c_w for r in records])
    amt = np.array([r.achieved_mu_t for r in records])
    amw = np.array([r.achieved_mu_w for r in records])
    r1 = float(np.corrcoef(c_uw, amt)[0, 1])
    r2 = float(np.corrcoef(c_w, amw)[0, 1])
    ok = abs(r1) >= 0.8 and abs(r2) >= 0.6
    report(3, ok,
           f"|pearson(c_uw, mu_t)| = {abs(r1):.3f} >= 0.8, "
           f"|pearson(c_w, mu_w)| = {abs(r2):.3f} >= 0.6 "
           f"({len(records)} networks, reps=10)")


def test_criterion_4_classifier_accuracy(grid_sweep_rows, trained):
    result = trained
    lines = result.report.splitlines()
    layout_ok = any("rows = true class" in ln for ln in lines)
    names_ok = any(ln.split() == ["Weighted", "Unweighted", "None"]
                   for ln in lines)
    ok = (result.accuracy >= 0.75 and result.confusion.shape == (3, 3)
          and layout_ok and names_ok)
    report(4, ok,
           f"held-out accuracy {result.accuracy:.3f} >= 0.75 on "
           f"{result.n_train} train / {result.n_test} test networks; "
           f"confusion rows (true W/U/N): {result.confusion.tolist()}")


def test_criterion_5_near_oracle_selection(grid_sweep_rows, trained):
    cells = report_selection(grid_sweep_rows, trained.model)
    worst = -math.inf
    detail = []
    ok = True
    for mu_w in GRID:
        curve = [c for c in cells if c["mu_w"] == mu_w]
        avg_w = float(np.mean([c["mean_best_weighted"] for c in curve]))
        avg_uw = float(np.mean([c["mean_best_unweighted"] for c in curve]))
        avg_sel = float(np.mean([c["mean_selected"] for c in curve]))
        gap = max(avg_w, avg_uw) - avg_sel
        worst = max(worst, gap)
        if gap > 0.05:
            ok = False
        detail.append(f"mu_w={mu_w}: gap={gap:+.3f}")
    report(5, ok, f"worst curve gap {worst:+.3f} <= 0.05 ({'; '.join(detail)})")


def test_criterion_6_metric_oracles():
    checks = []

    val = nmi(Partition([0, 0, 1, 1]), Partition([0, 0, 0, 1]))
    checks.append(("nmi 4-node = 0.3437 +- 5e-4", abs(val - 0.3437) <= 5e-4))

    q = modularity(build_two_k3(), Partition([0, 0, 0, 1, 1, 1]))
    checks.append(("two-K3 modularity = 0.5 exactly", q == 0.5))

    g = Graph(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0), (1, 2, 1.0)])
    checks.append(("weighted clustering example = 0.25 exactly",
                   local_clustering(g)[1][0] == 0.25))

    mu_t, _ = measured_mixing(build_two_k3_bridge(),
                              Partition([0, 0, 0, 1, 1, 1]))
    checks.append(("two-K3+bridge mixing = 1/7 exactly", mu_t == 1 / 7))

    ok = all(flag for _, flag in checks)
    report(6, ok, "; ".join(f"{name}: {'ok' if flag else 'FAILED'}"
                            for name, flag in checks))


def test_criterion_7_optimizer_vs_brute_force():
    def two_k4_bridge():
        edges = [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
        edges += [(i, j, 1.0) for i in range(4, 8) for j in range(i + 1, 8)]
        edges.append((3, 4, 1.0))
        return Graph(8, edges)

    two_clique = [("two K3", build_two_k3()),
                  ("two K3 + bridge", build_two_k3_bridge()),
                  ("two K3 + heavy bridge", build_two_k3_bridge(bridge_w=3.0)),
                  ("two K4 + bridge", two_k4_bridge())]
    others = ([(f"path P{n}", build_path(n)) for n in range(4, 9)]
              + [(f"star S{k}", build_star(k)) for k in range(4, 8)]
              + [(f"complete K{n}", build_complete(n)) for n in range(4, 9)])

    cfg = InfomapConfig(seed=0)
    worst_clique_gap = 0.0
    worst_other_gap = 0.0
    ok = True
    for name, g in two_clique:
        best, _ = brute_force_min_code_length(g)
        got = map_equation(g, infomap_detect(g, cfg))
        gap = got - best
        worst_clique_gap = max(worst_clique_gap, gap)
        if gap > 1e-9:
            ok = False
    for name, g in others:
        best, _ = brute_force_min_code_length(g)
        got = map_equation(g, infomap_detect(g, cfg))
        gap = got - best
        worst_other_gap = max(worst_other_gap, gap)
        if gap >= 0.05:
            ok = False
    report(7, ok,
           f"two-clique family worst gap {worst_clique_gap:.2e} <= 1e-9 bits; "
           f"paths/stars/completes worst gap {worst_other_gap:.4f} < 0.05 bits")


def test_criterion_8_property_suites():
    suites = [
        ("uniform-weight equivalence", test_properties.test_uniform_weight_equivalence),
        ("weight-scale invariance", test_properties.test_weight_scale_invariance),
        ("weighted->unweighted clustering reduction",
         test_properties.test_weighted_clustering_reduces_to_unweighted),
        ("nmi symmetry/relabel invariance",
         test_properties.test_nmi_symmetry_and_relabel_invariance),
        ("generator determinism", test_properties.test_generator_determinism),
    ]
    for name, fn in suites:
        fn()  # each runs >= 500 randomized cases and asserts internally
    report(8, True,
           f"all {len(suites)} property suites passed "
           f"({test_properties.CASES} randomized cases each)")
