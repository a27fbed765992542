"""The benchmark's three workloads.

Each workload feeds networks one after another through public functions of
the package, in one process. A round is a fixed list of networks; the runner
repeats rounds until the run's time is used. Time counts only inside
``busy()``; the output checks run with the clock stopped. ``predict_samples``
holds the times from an edge-list file to a predicted class.
"""

from __future__ import annotations

import os
import time
import traceback
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from commselect import copra, graph, harness, infomap, lfr, metrics, selector

import checks
from planted import PlantedSpec, edge_list_text, planted_network

HERE = os.path.dirname(os.path.abspath(__file__))
MODEL_FILE = os.path.join(HERE, "selector_model.txt")
ALGORITHMS = harness.ALGORITHM_ORDER
THRESHOLD = 0.6                 # train_eval's default NMI threshold

# paper_grid: the paper's n=100 setting on cells where unweighted detectors
# win (mu_t 0.2), weighted ones win (mu_w 0.2) and neither does (mu_w 0.7)
GRID_MU_T = (0.2, 0.5, 0.7)
GRID_MU_W = (0.2, 0.7)
GRID_REPS = 3

# generate_large: one degree sequence (generator seed 1) at three mixing
# levels, two of them in the rewiring-stall regime; the run seed picks mu_w
LARGE_N = 1000
LARGE_MU_T = (0.2, 0.3, 0.5)
LARGE_GEN_SEED = 1
LARGE_MU_W = (0.2, 0.3, 0.4)

# observed_large: well separated, weighted detectors win, neither wins
OBSERVED = (PlantedSpec(n=1000, mu_t=0.2, mu_w=0.2),
            PlantedSpec(n=1000, mu_t=0.5, mu_w=0.2),
            PlantedSpec(n=1000, mu_t=0.7, mu_w=0.7))
SEPARATED = OBSERVED[0]
WARM_SPEC = PlantedSpec(n=100, mu_t=0.3, mu_w=0.3, k_min=5, k_max=30,
                        s_min=10, s_max=40)


def derived_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key)
               .generate_state(1, np.uint32)[0])


def tracemalloc_peak_mib(fn) -> float:
    """Peak MiB that ``fn()`` holds at once, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def detector_peaks(g) -> dict:
    """tracemalloc peaks of one unweighted COPRA and one unweighted Infomap
    detect call on ``g``, each with a single run. Runs and restarts follow
    one another and free their working memory, so more of them do not raise
    the peak; one run keeps the measurement short under tracemalloc."""
    return {
        "copra.detect.peak_mib": tracemalloc_peak_mib(lambda: copra.detect(
            g, copra.CopraConfig(seed=0, runs=1, weighted=False))),
        "infomap.detect.peak_mib": tracemalloc_peak_mib(
            lambda: infomap.detect(g, infomap.InfomapConfig(
                seed=0, outer_passes=1, weighted=False))),
    }


def check_partition(name, part, n, u, v, w):
    """Checks of one detector output against the graph it ran on."""
    checks.check_covers(part.membership, n)
    if name.startswith("copra"):
        checks.check_connected_communities(part.membership, u, v)
    else:
        seen = w if name.endswith("_w") else np.ones_like(w)
        checks.check_code_length(part.membership, n, u, v, seen)


class Workload:
    # file-to-class passes at each point of a round where predict_s is
    # sampled. The machine's speed drifts within seconds, so the median is
    # steady across runs only when its samples cover much of the run: many
    # sampling points where the workload has them, long bunches where not
    predict_passes = 1

    def __init__(self, seed: int, workdir: str, clock):
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.busy_s = 0.0
        self.predict_samples: list[float] = []

    @contextmanager
    def busy(self):
        start = self.clock.now()
        try:
            yield
        finally:
            self.busy_s += self.clock.now() - start

    def write(self, index: int, n: int, u, v, w) -> str:
        path = os.path.join(self.workdir, f"net{index}.edges")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(edge_list_text(n, u, v, w))
        return path

    def predict_file(self, path, model):
        """Edge-list file to predicted class, timed into predict_samples."""
        start = time.perf_counter()
        g = graph.load_edge_list(path)
        f = selector.extract_features(g)
        cls = selector.predict(model, f)
        self.predict_samples.append(time.perf_counter() - start)
        return g, f, cls

    def sample_predict(self, path, model):
        """``predict_passes`` timed passes of predict_file with the clock
        stopped, so that they stay out of busy time and traced times; returns
        the last pass's graph, features and class."""
        with self.clock.stopped():
            for _ in range(self.predict_passes):
                out = self.predict_file(path, model)
        return out

    def check_predict_path(self, g, f, cls, model, n, u, v, w):
        checks.check_parsed(g, n, u, v, w)
        pu, pv, pw = checks.edge_arrays(g)
        checks.check_features(f, n, pu, pv, pw)
        checks.check_prediction(cls.value, model, f.c_uw, f.c_w)

    def install(self):
        """Patch in this workload's output checks; the default has none."""

    def uninstall(self):
        pass


class PaperGrid(Workload):
    """Sweep, training and selection report at the paper's n=100 scale."""

    name = "paper_grid"
    networks_per_round = len(GRID_MU_T) * len(GRID_MU_W) * GRID_REPS
    predict_passes = 2

    def setup(self):
        self.model = selector.load_model(MODEL_FILE)
        self.base = lfr.GenParams(n=100, mu_t=0.0, mu_w=0.0)
        harness.run_sweep(harness.SweepConfig(
            self.base, (0.5,), (0.2,), reps=1, master_seed=0))

    def install(self):
        self._saved = (harness.generate, harness.run_algorithm)
        generate, run_algorithm = self._saved
        clock = self.clock

        def checked_generate(params):
            net = generate(params)
            with clock.stopped():
                self._generated(net)
            return net

        def checked_run_algorithm(name, g, seed):
            part = run_algorithm(name, g, seed)
            with clock.stopped():
                n, u, v, w, truth = self._current
                check_partition(name, part, n, u, v, w)
                self._records[-1]["scores"].append(
                    checks.own_nmi(part.membership, truth))
            return part

        harness.generate = checked_generate
        harness.run_algorithm = checked_run_algorithm

    def uninstall(self):
        harness.generate, harness.run_algorithm = self._saved

    def _generated(self, net):
        p = net.params
        checks.check_network(net, p.n, p.mu_t, p.mix_tolerance)
        u, v, w = checks.edge_arrays(net.graph)
        truth = np.asarray(net.truth.membership)
        self._current = (p.n, u, v, w, truth)
        self._records.append({
            "features": checks.clustering_means(p.n, u, v, w),
            "achieved": (net.achieved_mu_t, net.achieved_mu_w),
            "scores": []})
        # predict_s is sampled after every network, spread over the run
        path = self.write(0, p.n, u, v, w)
        g, f, cls = self.sample_predict(path, self.model)
        self.check_predict_path(g, f, cls, self.model, p.n, u, v, w)

    def run_round(self, index: int):
        self._records = []
        config = harness.SweepConfig(
            self.base, GRID_MU_T, GRID_MU_W, reps=GRID_REPS,
            master_seed=derived_seed(self.seed, index), workers=1)
        try:
            with self.busy():
                rows = harness.run_sweep(config)
                result = harness.train_eval(rows)
                report = harness.report_selection(rows, result.model)
        except checks.CheckFailure:
            raise
        except Exception:
            traceback.print_exc()
            return self.networks_per_round, self.networks_per_round
        with self.clock.stopped():
            failed = checks.check_sweep_rows(rows, self.networks_per_round,
                                             self._records, ALGORITHMS)
            checks.check_training(rows, result.predictions, result.model,
                                  THRESHOLD)
            checks.check_report(rows, report, result.model)
        return self.networks_per_round, failed

    def peaks(self) -> dict:
        params = replace(self.base, mu_t=GRID_MU_T[-1], mu_w=GRID_MU_W[-1],
                         seed=derived_seed(self.seed, 1 << 20))
        g = lfr.generate(params).graph
        return {"lfr.generate.peak_mib":
                tracemalloc_peak_mib(lambda: lfr.generate(params)),
                **detector_peaks(g)}


class GenerateLarge(Workload):
    """Generation and features at n=1000, with no detector."""

    name = "generate_large"
    networks_per_round = len(LARGE_MU_T)
    predict_passes = 15

    def setup(self):
        self.model = selector.load_model(MODEL_FILE)
        net = lfr.generate(lfr.GenParams(n=100, mu_t=0.3, mu_w=0.3, seed=0))
        selector.extract_features(net.graph)

    def params(self, index: int):
        rng = np.random.default_rng(derived_seed(self.seed, index))
        return [lfr.GenParams(n=LARGE_N, mu_t=mu_t,
                              mu_w=float(rng.choice(LARGE_MU_W)),
                              seed=LARGE_GEN_SEED) for mu_t in LARGE_MU_T]

    def run_round(self, index: int):
        failed = 0
        for i, p in enumerate(self.params(index)):
            try:
                with self.busy():
                    net = lfr.generate(p)
                    f = selector.extract_features(net.graph)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            with self.clock.stopped():
                checks.check_network(net, p.n, p.mu_t, p.mix_tolerance)
                u, v, w = checks.edge_arrays(net.graph)
                checks.check_features(f, p.n, u, v, w)
                path = self.write(i, p.n, u, v, w)
                del net
            # one long bunch per network: generate() cannot be split
            g, f, cls = self.sample_predict(path, self.model)
            with self.clock.stopped():
                self.check_predict_path(g, f, cls, self.model, p.n, u, v, w)
        return self.networks_per_round, failed

    def peaks(self) -> dict:
        # all inputs have n=1000; the one at the highest mu_t generates fastest
        params = self.params(0)[-1]
        return {"lfr.generate.peak_mib":
                tracemalloc_peak_mib(lambda: lfr.generate(params)),
                "copra.detect.peak_mib": 0.0,
                "infomap.detect.peak_mib": 0.0}


class ObservedLarge(Workload):
    """Choose from the observed network: file to class, then every variant
    scored against the planted partition."""

    name = "observed_large"
    networks_per_round = len(OBSERVED)
    predict_passes = 2

    def _planted(self, spec, index, seed):
        net = planted_network(spec, np.random.default_rng(
            derived_seed(seed, index)))
        path = self.write(index, net.n, net.u, net.v, net.w)
        return net, path, graph.Partition(net.membership)

    def setup(self):
        self.model = selector.load_model(MODEL_FILE)
        self.inputs = [self._planted(spec, i, self.seed)
                       for i, spec in enumerate(OBSERVED)]
        _, path, _ = self._planted(WARM_SPEC, len(OBSERVED), 0)
        g = graph.load_edge_list(path)
        selector.predict(self.model, selector.extract_features(g))
        for name in ALGORITHMS:
            metrics.modularity(g, harness.run_algorithm(name, g, 0))

    def run_round(self, index: int):
        failed = 0
        for i, (net, path, truth) in enumerate(self.inputs):
            try:
                with self.busy():
                    g, f, cls = self.predict_file(path, self.model)
                    parts, scores, qs = [], [], []
                    for slot, name in enumerate(ALGORITHMS):
                        part = harness.run_algorithm(
                            name, g, derived_seed(self.seed, index, i, slot))
                        parts.append(part)
                        scores.append(metrics.nmi(part, truth))
                        qs.append(metrics.modularity(g, part))
                        self.sample_predict(path, self.model)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            with self.clock.stopped():
                self._check(net, g, f, cls, parts, scores, qs)
        return self.networks_per_round, failed

    def _check(self, net, g, f, cls, parts, scores, qs):
        self.check_predict_path(g, f, cls, self.model, net.n,
                                net.u, net.v, net.w)
        u, v, w = checks.edge_arrays(g)
        for name, part, score, q in zip(ALGORITHMS, parts, scores, qs):
            check_partition(name, part, net.n, u, v, w)
            checks.check_nmi(score, part.membership, net.membership)
            checks.check_modularity(q, part.membership, net.n, u, v, w)
        if net.spec == SEPARATED:
            checks.check_separated(max(scores))

    def peaks(self) -> dict:
        g = max((graph.load_edge_list(p) for _, p, _ in self.inputs),
                key=lambda x: x.edge_count)
        return {"lfr.generate.peak_mib": 0.0, **detector_peaks(g)}


WORKLOADS = {w.name: w for w in (PaperGrid, GenerateLarge, ObservedLarge)}
