"""Algorithm-class selection from the two observable clustering features.

A network is labeled Weighted, Unweighted, or None according to which
algorithm class scored best against ground truth (None when even the best
score is below a threshold, since a poor partition makes the choice moot).
Prediction works from the observable features alone: the mean unweighted and
weighted clustering coefficients, held in ``metrics.FeatureVector``. Three
pairwise linear SVMs, one per unordered class pair, vote on standardized
features; ``predict`` counts the votes from ``decision_margins``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .graph import Graph
from .metrics import FeatureVector, mean_clustering
from .seeds import check_seed, derive_seed, spawn_rng

MODEL_HEADER = "commselect-svm v1"


class ClassLabel(Enum):
    WEIGHTED = "weighted"
    UNWEIGHTED = "unweighted"
    NONE = "none"

    def __str__(self):
        return self.value


CLASS_ORDER = (ClassLabel.WEIGHTED, ClassLabel.UNWEIGHTED, ClassLabel.NONE)
PAIR_ORDER = (
    (ClassLabel.WEIGHTED, ClassLabel.UNWEIGHTED),
    (ClassLabel.WEIGHTED, ClassLabel.NONE),
    (ClassLabel.UNWEIGHTED, ClassLabel.NONE),
)


@dataclass(frozen=True)
class SvmHyper:
    """Soft-margin and subgradient-descent settings."""
    c: float = 1.0
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        check_seed(self.seed)
        if not self.c > 0:
            raise ValueError("c must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class BinarySVM:
    """One trained pairwise linear classifier on standardized features."""
    weights: tuple[float, float]
    bias: float
    positive_class: ClassLabel
    negative_class: ClassLabel

    def __post_init__(self):
        if self.positive_class == self.negative_class:
            raise ValueError("class pair must be distinct")
        if not all(math.isfinite(x) for x in (*self.weights, self.bias)):
            raise ValueError("SVM parameters must be finite")

    def decision(self, x: np.ndarray) -> float:
        return float(self.weights[0] * x[0] + self.weights[1] * x[1] + self.bias)

    @property
    def pair_name(self) -> str:
        return f"{self.positive_class.value}:{self.negative_class.value}"


@dataclass(frozen=True)
class SelectorModel:
    """Three pairwise SVMs plus the feature standardization that trained them."""
    svms: tuple[BinarySVM, BinarySVM, BinarySVM]
    feature_mean: tuple[float, float]
    feature_std: tuple[float, float]
    nmi_threshold: float = 0.6

    def __post_init__(self):
        if any(s <= 0 for s in self.feature_std):
            raise ValueError("feature standard deviations must be > 0")
        pairs = {(m.positive_class, m.negative_class) for m in self.svms}
        if pairs != set(PAIR_ORDER):
            raise ValueError("model must contain exactly the three class pairs")

    def standardize(self, f: FeatureVector) -> np.ndarray:
        x = f.as_array()
        return (x - np.array(self.feature_mean)) / np.array(self.feature_std)


def algorithm_class(name: str) -> ClassLabel:
    """Class of an algorithm id: trailing ``_uw`` means unweighted, ``_w``
    weighted."""
    if name.endswith("_uw"):
        return ClassLabel.UNWEIGHTED
    if name.endswith("_w"):
        return ClassLabel.WEIGHTED
    raise ValueError(f"cannot classify algorithm name {name!r}")


def extract_features(g: Graph) -> FeatureVector:
    """Observable feature vector of a graph (no community knowledge needed)."""
    return mean_clustering(g)


def label_network(scores: Mapping[str, float], threshold: float) -> ClassLabel:
    """True class of a network given per-algorithm NMI scores.

    The class of the best-scoring algorithm wins unless even the best score
    is below ``threshold``, which yields None. An exact best-score tie across
    the two classes resolves to Unweighted (the cheaper default).
    """
    if not scores:
        raise ValueError("scores must be non-empty")
    for name, s in scores.items():
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"score {name}={s} outside [0,1]")
    best = max(scores.values())
    if best < threshold:
        return ClassLabel.NONE
    best_classes = {algorithm_class(name)
                    for name, s in scores.items() if s == best}
    if ClassLabel.UNWEIGHTED in best_classes:
        return ClassLabel.UNWEIGHTED
    return ClassLabel.WEIGHTED


def train_binary(data: Sequence[tuple[Sequence[float], int]],
                 hyper: SvmHyper = SvmHyper(),
                 positive_class: ClassLabel = ClassLabel.WEIGHTED,
                 negative_class: ClassLabel = ClassLabel.UNWEIGHTED) -> BinarySVM:
    """Train one soft-margin linear SVM by seeded stochastic subgradient
    descent.

    Minimises 0.5 ||w||^2 + c * sum_i hinge(y_i (w x_i + b)) with the
    1/(lambda t) step schedule, lambda = 1 / (c n). Each x is a coordinate
    pair, standardized already. Deterministic given ``hyper.seed``.
    """
    xs = np.array([x for x, _ in data], dtype=np.float64)
    ys = np.array([int(y) for _, y in data], dtype=np.float64)
    if set(np.unique(ys)) != {-1.0, 1.0}:
        raise ValueError("training data must contain both classes (+1 and -1)")
    n = len(ys)
    lam = 1.0 / (hyper.c * n)
    rng = spawn_rng(hyper.seed)
    w = np.zeros(2)
    b = 0.0
    t = 0
    for _ in range(hyper.epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            x, y = xs[i], ys[i]
            if y * (w @ x + b) < 1.0:
                w = (1.0 - 1.0 / t) * w + (eta * y) * x
                b = b + eta * y
            else:
                w = (1.0 - 1.0 / t) * w
    return BinarySVM(weights=(float(w[0]), float(w[1])), bias=float(b),
                     positive_class=positive_class,
                     negative_class=negative_class)


def train_selector(dataset: Sequence[tuple[FeatureVector, ClassLabel]],
                   hyper: SvmHyper = SvmHyper(),
                   nmi_threshold=SelectorModel.nmi_threshold) -> SelectorModel:
    """Fit the full three-way selector on (features, class) examples.

    Standardization is computed from the whole training set; each class pair
    then gets its own SVM trained on that pair's subset with a derived seed.
    Raises if any class is missing from the data.
    """
    labels = [lab for _, lab in dataset]
    for cls in CLASS_ORDER:
        if cls not in labels:
            raise ValueError(
                f"class '{cls.value}' missing from the training split")
    raw = np.array([f.as_array() for f, _ in dataset])
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    if (std <= 0).any():
        raise ValueError("degenerate training features: zero variance")
    standardized = (raw - mean) / std

    svms = []
    for idx, (pos, neg) in enumerate(PAIR_ORDER):
        pair_data = [
            (standardized[i], 1 if labels[i] == pos else -1)
            for i in range(len(dataset)) if labels[i] in (pos, neg)]
        svm = train_binary(
            pair_data, replace(hyper, seed=derive_seed(hyper.seed, idx)),
            positive_class=pos, negative_class=neg)
        svms.append(svm)
    return SelectorModel(svms=tuple(svms),
                         feature_mean=(float(mean[0]), float(mean[1])),
                         feature_std=(float(std[0]), float(std[1])),
                         nmi_threshold=nmi_threshold)


def decision_margins(model: SelectorModel, f: FeatureVector) -> dict[str, float]:
    """Raw decision values of the three classifiers on a feature vector."""
    x = model.standardize(f)
    return {svm.pair_name: svm.decision(x) for svm in model.svms}


def predict(model: SelectorModel, f: FeatureVector) -> ClassLabel:
    """Majority vote of the three pairwise SVMs.

    A decision >= 0 votes for the classifier's positive class. A three-way
    1-1-1 tie is resolved by the classifier with the largest absolute
    decision value (the first such one in ``model.svms`` order).
    """
    margins = list(decision_margins(model, f).values())
    votes = [svm.positive_class if d >= 0 else svm.negative_class
             for svm, d in zip(model.svms, margins)]
    for lab in votes:
        if votes.count(lab) >= 2:
            return lab
    # 1-1-1: strongest conviction wins
    return votes[int(np.argmax(np.abs(margins)))]


def class_to_run(vote: ClassLabel) -> ClassLabel:
    """The class whose detectors run for a predicted ``vote``: a None vote
    (neither class expected to do well) runs the unweighted class."""
    return ClassLabel.UNWEIGHTED if vote == ClassLabel.NONE else vote


def write_model(model: SelectorModel) -> str:
    """Serialise a model to the versioned line-oriented text format."""
    lines = [MODEL_HEADER]
    lines.append(f"mean_c_uw {model.feature_mean[0]!r}")
    lines.append(f"mean_c_w {model.feature_mean[1]!r}")
    lines.append(f"std_c_uw {model.feature_std[0]!r}")
    lines.append(f"std_c_w {model.feature_std[1]!r}")
    for svm in model.svms:
        lines.append(f"{svm.pair_name} {svm.weights[0]!r} {svm.weights[1]!r} "
                     f"{svm.bias!r}")
    lines.append(f"threshold {model.nmi_threshold!r}")
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> SelectorModel:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != MODEL_HEADER:
        raise ValueError(f"model file must start with {MODEL_HEADER!r}")
    fields: dict[str, list[str]] = {}
    for ln in lines[1:]:
        parts = ln.split()
        fields[parts[0]] = parts[1:]
    try:
        mean = (float(fields["mean_c_uw"][0]), float(fields["mean_c_w"][0]))
        std = (float(fields["std_c_uw"][0]), float(fields["std_c_w"][0]))
        threshold = float(fields["threshold"][0])
        svms = []
        for pos, neg in PAIR_ORDER:
            vals = fields[f"{pos.value}:{neg.value}"]
            svms.append(BinarySVM(
                weights=(float(vals[0]), float(vals[1])), bias=float(vals[2]),
                positive_class=pos, negative_class=neg))
    except (KeyError, IndexError, ValueError) as exc:
        raise ValueError(f"malformed model file: {exc}") from exc
    return SelectorModel(svms=tuple(svms), feature_mean=mean,
                         feature_std=std, nmi_threshold=threshold)


def save_model(model: SelectorModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_model(model))


def load_model(path) -> SelectorModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())
