import math

import numpy as np
import pytest

from commselect import (BinarySVM, ClassLabel, FeatureVector, SelectorModel,
                        SvmHyper, extract_features, label_network, predict,
                        train_binary, train_selector)
from commselect.selector import (decision_margins, parse_model, write_model,
                                 algorithm_class, class_to_run)
from conftest import build_complete, build_star
from commselect.graph import Graph


def make_clusters(rng, centers, n_per, spread=0.02):
    """Synthetic separable dataset: one fuzzy blob per class."""
    data = []
    for center, label in centers:
        for _ in range(n_per):
            x = np.clip(center[0] + rng.normal(0, spread), 0, 1)
            y = np.clip(center[1] + rng.normal(0, spread), 0, 1)
            data.append((FeatureVector(float(x), float(y)), label))
    return data


CENTERS = [((0.2, 0.7), ClassLabel.WEIGHTED),
           ((0.7, 0.6), ClassLabel.UNWEIGHTED),
           ((0.3, 0.15), ClassLabel.NONE)]


class TestFeatureVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            FeatureVector(-0.1, 0.5)
        with pytest.raises(ValueError):
            FeatureVector(0.5, float("nan"))

    def test_extract_complete_graph(self):
        f = extract_features(build_complete(4))
        assert (f.c_uw, f.c_w) == (1.0, 1.0)

    def test_extract_star(self):
        f = extract_features(build_star(4))
        assert (f.c_uw, f.c_w) == (0.0, 0.0)

    def test_unit_weight_graph_features_coincide(self):
        g = Graph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0),
                      (3, 4, 1.0)])
        f = extract_features(g)
        assert f.c_uw == f.c_w


class TestLabelNetwork:
    SCORES = {"infomap_w": 0.9, "copra_w": 0.8,
              "infomap_uw": 0.7, "copra_uw": 0.6}

    def test_max_rule(self):
        assert label_network(self.SCORES, 0.6) == ClassLabel.WEIGHTED

    def test_none_below_threshold(self):
        scores = {k: 0.55 for k in self.SCORES}
        assert label_network(scores, 0.6) == ClassLabel.NONE

    def test_tie_breaks_unweighted(self):
        assert label_network({"a_w": 0.8, "b_uw": 0.8}, 0.6) == \
            ClassLabel.UNWEIGHTED

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            label_network({}, 0.6)

    def test_score_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            label_network({"a_w": 1.5}, 0.6)

    def test_algorithm_class_suffixes(self):
        assert algorithm_class("copra_uw") == ClassLabel.UNWEIGHTED
        assert algorithm_class("infomap_w") == ClassLabel.WEIGHTED
        with pytest.raises(ValueError):
            algorithm_class("louvain")


class TestTrainBinary:
    def test_separable_pair(self):
        data = [((0.0, 0.0), -1), ((1.0, 1.0), 1)]
        # already-standardized coordinates
        svm = train_binary(data, SvmHyper(seed=1))
        for x, y in data:
            d = svm.decision(x)
            assert (d >= 0) == (y == 1)

    def test_degenerate_identical_points(self):
        data = [((0.5, 0.5), 1), ((0.5, 0.5), -1), ((0.5, 0.5), -1)]
        svm = train_binary(data, SvmHyper(seed=2))
        assert all(math.isfinite(v) for v in (*svm.weights, svm.bias))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_binary([((0.1, 0.1), 1)], SvmHyper())

    def test_deterministic(self):
        data = [((0.1 * i % 1, 0.07 * i % 1), 1 if i % 2 else -1)
                for i in range(20)]
        a = train_binary(data, SvmHyper(seed=33))
        b = train_binary(data, SvmHyper(seed=33))
        assert a == b


class TestTrainSelector:
    def test_separable_holdout_accuracy(self, rng):
        train = make_clusters(rng, CENTERS, 60)
        test = make_clusters(rng, CENTERS, 20)
        model = train_selector(train, SvmHyper(seed=7))
        correct = sum(predict(model, f) == lab for f, lab in test)
        assert correct / len(test) >= 0.95

    def test_missing_class_rejected(self):
        data = make_clusters(np.random.default_rng(0), CENTERS[:2], 10)
        with pytest.raises(ValueError, match="none"):
            train_selector(data, SvmHyper())

    def test_deterministic(self, rng):
        data = make_clusters(rng, CENTERS, 15)
        a = train_selector(data, SvmHyper(seed=5))
        b = train_selector(data, SvmHyper(seed=5))
        assert a == b

    def test_centroid_classification(self, rng):
        data = make_clusters(rng, CENTERS, 40)
        model = train_selector(data, SvmHyper(seed=3))
        for center, label in CENTERS:
            assert predict(model, FeatureVector(*center)) == label


def manual_model(biases, threshold=0.6):
    """Model with zero weight vectors: votes are decided by the biases."""
    pairs = [(ClassLabel.WEIGHTED, ClassLabel.UNWEIGHTED),
             (ClassLabel.WEIGHTED, ClassLabel.NONE),
             (ClassLabel.UNWEIGHTED, ClassLabel.NONE)]
    svms = tuple(BinarySVM(weights=(0.0, 0.0), bias=b,
                           positive_class=p, negative_class=n)
                 for (p, n), b in zip(pairs, biases))
    return SelectorModel(svms=svms, feature_mean=(0.5, 0.5),
                         feature_std=(1.0, 1.0), nmi_threshold=threshold)


class TestPredictVoting:
    def test_majority_two_of_three(self):
        # votes: W (W:U), W (W:N), N (U:N with negative bias)
        model = manual_model([0.3, 0.4, -0.2])
        assert predict(model, FeatureVector(0.5, 0.5)) == ClassLabel.WEIGHTED

    def test_three_way_tie_margin_rule(self):
        # votes W / U / N with margins 0.1 / -0.9 / 0.2: U has conviction 0.9
        model = manual_model([0.1, -0.9, 0.2])
        votes = decision_margins(model, FeatureVector(0.5, 0.5))
        assert votes["weighted:none"] == pytest.approx(-0.9)
        # weighted:unweighted votes W, weighted:none votes N, unweighted:none
        # votes U -> 1-1-1, largest |margin| belongs to weighted:none -> N
        assert predict(model, FeatureVector(0.5, 0.5)) == ClassLabel.NONE

    def test_three_way_tie_alternate_winner(self):
        # same structure, strongest classifier is unweighted:none voting U
        model = manual_model([0.1, -0.2, 0.9])
        assert predict(model, FeatureVector(0.5, 0.5)) == ClassLabel.UNWEIGHTED

    def test_class_to_run(self):
        # a None vote runs the unweighted class; the other votes run theirs
        assert class_to_run(ClassLabel.NONE) == ClassLabel.UNWEIGHTED
        for vote in (ClassLabel.WEIGHTED, ClassLabel.UNWEIGHTED):
            assert class_to_run(vote) == vote


class TestModelIO:
    def test_roundtrip_exact(self, rng):
        data = make_clusters(rng, CENTERS, 12)
        model = train_selector(data, SvmHyper(seed=11))
        back = parse_model(write_model(model))
        assert back == model

    def test_header_required(self):
        with pytest.raises(ValueError, match="commselect-svm"):
            parse_model("not a model\n")

    def test_malformed_rejected(self, rng):
        data = make_clusters(rng, CENTERS, 12)
        text = write_model(train_selector(data, SvmHyper(seed=11)))
        broken = "\n".join(ln for ln in text.splitlines()
                           if not ln.startswith("threshold"))
        with pytest.raises(ValueError, match="malformed"):
            parse_model(broken)

    def test_standardization_invariance(self, rng):
        raw = make_clusters(rng, CENTERS, 30)
        test_points = make_clusters(rng, CENTERS, 10)
        model_a = train_selector(raw, SvmHyper(seed=2))
        # affine rescaling of both train and test features
        a, c = 0.5, 0.25

        def squash(f):
            return FeatureVector(a * f.c_uw + c, a * f.c_w + c)
        model_b = train_selector([(squash(f), lab) for f, lab in raw],
                                 SvmHyper(seed=2))
        for f, _ in test_points:
            assert predict(model_a, f) == predict(model_b, squash(f))
