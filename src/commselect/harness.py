"""Experiment pipeline: mixing-parameter sweeps, classifier training and
evaluation, and selection-quality reports, all with derived seeding so any
run is reproducible bit for bit.

Seed derivation: the network of grid cell (i, j), repetition r is generated
with the seed ``seeds.derive_seed(master_seed, i, j, r, 0)``; algorithm slot
a (1-based position in the canonical algorithm order) runs with
``derive_seed(master_seed, i, j, r, a)``. Parallel workers therefore cannot
change any result, only the wall-clock time.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import copra, infomap
from .graph import Graph
from .lfr import GenParams, GenerationError, generate
from .metrics import nmi
from .selector import (CLASS_ORDER, ClassLabel, FeatureVector, SelectorModel,
                       SvmHyper, algorithm_class, class_to_run,
                       extract_features, label_network, predict,
                       train_selector)
from .seeds import check_seed, derive_seed, spawn_rng

ALGORITHM_ORDER = ("copra_uw", "copra_w", "infomap_uw", "infomap_w")

DETAIL_COLUMNS = ("mu_t", "mu_w", "rep", "algorithm", "status", "nmi",
                  "c_uw", "c_w", "achieved_mu_t", "achieved_mu_w")
AGG_COLUMNS = ("mu_t", "mu_w", "algorithm", "n", "nmi_mean", "nmi_std")
SELECTION_COLUMNS = ("mu_t", "mu_w", "n", "mean_best_weighted",
                     "mean_best_unweighted", "mean_selected",
                     "none_fallbacks", "mean_copra_uw", "mean_copra_w",
                     "mean_infomap_uw", "mean_infomap_w")


def run_algorithm(name: str, g: Graph, seed: int):
    """Run one of the four named detector variants with the given seed."""
    if name == "copra_uw":
        return copra.detect(g, copra.CopraConfig(seed=seed, weighted=False))
    if name == "copra_w":
        return copra.detect(g, copra.CopraConfig(seed=seed, weighted=True))
    if name == "infomap_uw":
        return infomap.detect(g, infomap.InfomapConfig(seed=seed, weighted=False))
    if name == "infomap_w":
        return infomap.detect(g, infomap.InfomapConfig(seed=seed, weighted=True))
    raise ValueError(f"unknown algorithm {name!r}")


@dataclass(frozen=True)
class SweepConfig:
    """A grid of (mu_t, mu_w) cells swept with repeated generated networks."""
    base: GenParams
    mu_t_grid: tuple[float, ...]
    mu_w_grid: tuple[float, ...]
    reps: int = 25
    algorithms: tuple[str, ...] = ALGORITHM_ORDER
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        check_seed(self.master_seed)
        if not self.mu_t_grid or not self.mu_w_grid:
            raise ValueError("mixing grids must be non-empty")
        for v in (*self.mu_t_grid, *self.mu_w_grid):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"grid value {v} outside [0,1]")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        unknown = set(self.algorithms) - set(ALGORITHM_ORDER)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if not self.algorithms:
            raise ValueError("select at least one algorithm")


def _network_task(args) -> list[dict]:
    """Generate one network and score every selected algorithm on it."""
    base, i, j, rep, mu_t, mu_w, algorithms, master_seed = args
    params = replace(base, mu_t=mu_t, mu_w=mu_w,
                     seed=derive_seed(master_seed, i, j, rep, 0))
    common = {"mu_t": mu_t, "mu_w": mu_w, "rep": rep}
    try:
        net = generate(params)
    except GenerationError as exc:
        return [dict(common, algorithm=alg, status=f"failed:{exc.stage}",
                     nmi=None, c_uw=None, c_w=None,
                     achieved_mu_t=None, achieved_mu_w=None)
                for alg in algorithms]
    feats = extract_features(net.graph)
    rows = []
    for alg in algorithms:
        slot = 1 + ALGORITHM_ORDER.index(alg)
        part = run_algorithm(alg, net.graph,
                             derive_seed(master_seed, i, j, rep, slot))
        rows.append(dict(common, algorithm=alg, status="ok",
                         nmi=nmi(part, net.truth),
                         c_uw=feats.c_uw, c_w=feats.c_w,
                         achieved_mu_t=net.achieved_mu_t,
                         achieved_mu_w=net.achieved_mu_w))
    return rows


def run_sweep(config: SweepConfig) -> list[dict]:
    """Execute the sweep; returns detail rows in deterministic cell order.

    Each (cell, rep) yields one row per selected algorithm; when generation
    exhausts its retries the rows are flagged ``failed:<stage>`` and the
    sweep continues.
    """
    tasks = [(config.base, i, j, rep,
              config.mu_t_grid[i], config.mu_w_grid[j],
              tuple(config.algorithms), config.master_seed)
             for i in range(len(config.mu_t_grid))
             for j in range(len(config.mu_w_grid))
             for rep in range(config.reps)]
    if config.workers == 1:
        chunks = [_network_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunks = list(pool.map(_network_task, tasks, chunksize=4))
    rows: list[dict] = []
    for chunk in chunks:
        rows.extend(chunk)
    return rows


def aggregate_rows(rows: list[dict]) -> list[dict]:
    """Per (cell, algorithm) mean and sample standard deviation of NMI."""
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        if r["status"] == "ok":
            key = (r["mu_t"], r["mu_w"], r["algorithm"])
            groups.setdefault(key, []).append(r["nmi"])
    out = []
    for key, vals in groups.items():
        vals = np.array(vals)
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        out.append({"mu_t": key[0], "mu_w": key[1], "algorithm": key[2],
                    "n": int(vals.size), "nmi_mean": float(vals.mean()),
                    "nmi_std": std})
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def rows_to_csv(rows: list[dict], columns) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for r in rows:
        writer.writerow([_fmt(r.get(c)) for c in columns])
    return buf.getvalue()


def write_detail_csv(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(rows_to_csv(rows, DETAIL_COLUMNS))


def write_agg_csv(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(rows_to_csv(aggregate_rows(rows), AGG_COLUMNS))


def read_detail_csv(path) -> list[dict]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in DETAIL_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        for rec in reader:
            row = dict(rec)
            row["rep"] = int(row["rep"])
            for col in ("mu_t", "mu_w", "nmi", "c_uw", "c_w",
                        "achieved_mu_t", "achieved_mu_w"):
                row[col] = float(row[col]) if row[col] != "" else None
            rows.append(row)
    return rows


@dataclass
class NetworkRecord:
    """All per-network information extracted from detail rows."""
    mu_t: float
    mu_w: float
    rep: int
    features: FeatureVector
    scores: dict[str, float]
    achieved_mu_t: float
    achieved_mu_w: float


def collect_networks(rows: list[dict]) -> list[NetworkRecord]:
    """Group OK detail rows into one record per generated network."""
    grouped: dict[tuple, list[dict]] = {}
    for r in rows:
        if r["status"] == "ok":
            grouped.setdefault((r["mu_t"], r["mu_w"], r["rep"]), []).append(r)
    records = []
    for key, rs in grouped.items():
        records.append(NetworkRecord(
            mu_t=key[0], mu_w=key[1], rep=key[2],
            features=FeatureVector(c_uw=rs[0]["c_uw"], c_w=rs[0]["c_w"]),
            scores={r["algorithm"]: r["nmi"] for r in rs},
            achieved_mu_t=rs[0]["achieved_mu_t"],
            achieved_mu_w=rs[0]["achieved_mu_w"]))
    return records


@dataclass
class TrainEvalResult:
    model: SelectorModel
    accuracy: float
    confusion: np.ndarray          # rows = true, cols = predicted, W/U/N
    report: str
    predictions: list[dict] = field(default_factory=list)
    n_train: int = 0
    n_test: int = 0


def _class_grid(records_by_cell, mu_t_values, mu_w_values, pick) -> str:
    lines = ["mu_t\\mu_w " + " ".join(f"{w:>5.3g}" for w in mu_w_values)]
    for t in mu_t_values:
        cells = []
        for w in mu_w_values:
            recs = records_by_cell.get((t, w), [])
            if not recs:
                cells.append("-")
            else:
                labs = [pick(r) for r in recs]
                # modal class, ties to the canonical order W/U/N
                counts = {c: labs.count(c) for c in ClassLabel}
                top = max(counts.values())
                modal = next(c for c in CLASS_ORDER if counts[c] == top)
                cells.append(modal.value[0].upper())
        lines.append(f"{t:>9.3g} " + " ".join(f"{c:>5}" for c in cells))
    return "\n".join(lines)


def train_eval(rows: list[dict], train_fraction: float = 0.8,
               split_seed: int = 0, threshold=SelectorModel.nmi_threshold,
               hyper: SvmHyper = SvmHyper()) -> TrainEvalResult:
    """Label networks, split, train the selector, and report test accuracy.

    The report carries the overall accuracy, the 3x3 confusion matrix
    (rows = true class, columns = predicted, order Weighted / Unweighted /
    None), and modal true/predicted class grids per (mu_t, mu_w) cell.
    """
    records = collect_networks(rows)
    if not records:
        raise ValueError("no usable networks in the results")
    labels = [label_network(r.scores, threshold) for r in records]

    rng = spawn_rng(split_seed)
    perm = rng.permutation(len(records))
    n_train = int(round(train_fraction * len(records)))
    train_idx = sorted(int(i) for i in perm[:n_train])
    test_idx = sorted(int(i) for i in perm[n_train:])
    if not test_idx:
        raise ValueError("train_fraction leaves no test networks")

    model = train_selector(
        [(records[i].features, labels[i]) for i in train_idx],
        hyper=hyper, nmi_threshold=threshold)

    idx_of = {c: k for k, c in enumerate(CLASS_ORDER)}
    confusion = np.zeros((3, 3), dtype=np.int64)
    predictions = []
    cells: dict[tuple, list[dict]] = {}
    for i in test_idx:
        rec = records[i]
        pred = predict(model, rec.features)
        confusion[idx_of[labels[i]], idx_of[pred]] += 1
        p = {"mu_t": rec.mu_t, "mu_w": rec.mu_w, "rep": rec.rep,
             "c_uw": rec.features.c_uw, "c_w": rec.features.c_w,
             "true_class": labels[i].value, "predicted_class": pred.value}
        predictions.append(p)
        cells.setdefault((rec.mu_t, rec.mu_w), []).append(p)

    total = int(confusion.sum())
    accuracy = float(np.trace(confusion)) / total
    mu_t_values = sorted({r.mu_t for r in records})
    mu_w_values = sorted({r.mu_w for r in records})

    names = ("Weighted", "Unweighted", "None")
    lines = [f"networks: {len(records)} "
             f"(train {len(train_idx)}, test {len(test_idx)})",
             f"nmi threshold for 'none': {_fmt(threshold)}",
             f"test accuracy: {_fmt(accuracy)}",
             "",
             "Confusion matrix (rows = true class, columns = predicted class)",
             f"{'':>12}" + "".join(f"{n:>12}" for n in names)]
    for r, name in enumerate(names):
        lines.append(f"{name:>12}" + "".join(
            f"{int(confusion[r, c]):>12}" for c in range(3)))
    lines += ["", "Modal true class per cell (test networks)",
              _class_grid(cells, mu_t_values, mu_w_values,
                          lambda p: ClassLabel(p["true_class"])),
              "", "Modal predicted class per cell (test networks)",
              _class_grid(cells, mu_t_values, mu_w_values,
                          lambda p: ClassLabel(p["predicted_class"])), ""]
    return TrainEvalResult(model=model, accuracy=accuracy,
                           confusion=confusion, report="\n".join(lines),
                           predictions=predictions,
                           n_train=len(train_idx), n_test=len(test_idx))


PREDICTION_COLUMNS = ("mu_t", "mu_w", "rep", "c_uw", "c_w",
                      "true_class", "predicted_class")


def report_selection(rows: list[dict], model: SelectorModel) -> list[dict]:
    """Per-cell comparison of best-weighted, best-unweighted, and the class
    the classifier picks per network.

    Each network scores the class ``class_to_run`` picks for its vote (the
    unweighted class for a None vote), and the per-cell count of None votes
    is recorded. Per-algorithm means are included so single-algorithm curves
    can be read off the same file.
    """
    records = collect_networks(rows)
    if not records:
        raise ValueError("no usable networks in the results")
    cells: dict[tuple, list[NetworkRecord]] = {}
    for rec in records:
        cells.setdefault((rec.mu_t, rec.mu_w), []).append(rec)

    out = []
    for key, recs in cells.items():
        best_w, best_uw, selected = [], [], []
        fallbacks = 0
        per_alg: dict[str, list[float]] = {a: [] for a in ALGORITHM_ORDER}
        for rec in recs:
            w_scores = [s for a, s in rec.scores.items()
                        if algorithm_class(a) == ClassLabel.WEIGHTED]
            uw_scores = [s for a, s in rec.scores.items()
                         if algorithm_class(a) == ClassLabel.UNWEIGHTED]
            if not w_scores or not uw_scores:
                raise ValueError(
                    "selection report needs both algorithm classes per network")
            best_w.append(max(w_scores))
            best_uw.append(max(uw_scores))
            vote = predict(model, rec.features)
            fallbacks += vote == ClassLabel.NONE
            weighted = class_to_run(vote) == ClassLabel.WEIGHTED
            selected.append(best_w[-1] if weighted else best_uw[-1])
            for a, s in rec.scores.items():
                per_alg[a].append(s)
        row = {"mu_t": key[0], "mu_w": key[1], "n": len(recs),
               "mean_best_weighted": float(np.mean(best_w)),
               "mean_best_unweighted": float(np.mean(best_uw)),
               "mean_selected": float(np.mean(selected)),
               "none_fallbacks": fallbacks}
        for a in ALGORITHM_ORDER:
            row[f"mean_{a}"] = (float(np.mean(per_alg[a]))
                                if per_alg[a] else None)
        out.append(row)
    return out
