import numpy as np
import pytest

from segbench.metrics import (
    ConfusionCounts,
    UndefinedAUC,
    confusion,
    dice_index,
    f_measure,
    jaccard_index,
    pair_count_auc,
    precision,
    recall,
    roc_auc,
    specificity,
)


def random_counts(rng):
    return ConfusionCounts(*(int(x) for x in rng.integers(0, 50, size=4)))


class TestConfusion:
    def test_perfect_prediction(self):
        g = np.array([[1, 0], [0, 1]])
        c = confusion(g.astype(float), g, 0.5)
        assert c.fp == 0 and c.fn == 0
        assert c.tp == 2 and c.tn == 2

    def test_hand_enumerated(self):
        c = confusion([0.9, 0.2, 0.8, 0.1], [1, 1, 0, 0], 0.5)
        assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)

    def test_threshold_zero_everything_positive(self):
        c = confusion([0.3, 0.0, 0.9], [1, 0, 0], 0.0)
        assert c.tn == 0
        assert c.fp == 2

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            confusion([0.5], [1], 1.5)

    def test_total(self):
        c = confusion(np.full((4, 4), 0.7), np.ones((4, 4), dtype=int), 0.5)
        assert c.total == 16


class TestScalarMetrics:
    def test_balanced_counts(self):
        c = ConfusionCounts(1, 1, 1, 1)
        assert jaccard_index(c) == pytest.approx(1 / 3)
        assert dice_index(c) == pytest.approx(0.5)
        assert recall(c) == pytest.approx(0.5)
        assert specificity(c) == pytest.approx(0.5)
        assert f_measure(c) == pytest.approx(0.5)

    def test_perfect(self):
        c = ConfusionCounts(10, 0, 10, 0)
        for m in (jaccard_index, dice_index, recall, specificity, precision, f_measure):
            assert m(c) == 1.0

    def test_disjoint(self):
        c = ConfusionCounts(0, 5, 0, 5)
        assert jaccard_index(c) == 0.0

    def test_zero_denominator_convention(self):
        c = ConfusionCounts(0, 0, 4, 0)  # no positives anywhere
        assert recall(c) == 1.0
        assert jaccard_index(c) == 1.0

    def test_dice_jaccard_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = random_counts(rng)
            j = jaccard_index(c)
            assert dice_index(c) == pytest.approx(2 * j / (1 + j), abs=1e-12)

    def test_jaccard_le_dice_and_unit_range(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            c = random_counts(rng)
            vals = [m(c) for m in (jaccard_index, dice_index, recall, specificity, precision, f_measure)]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert jaccard_index(c) <= dice_index(c) + 1e-15


class TestRocAuc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(scores, labels).auc == pytest.approx(1.0)

    def test_all_ties(self):
        scores = np.full(10, 0.4)
        labels = np.array([0, 1] * 5)
        assert roc_auc(scores, labels).auc == pytest.approx(0.5)

    def test_pair_counting_example(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        assert pair_count_auc(scores, labels) == pytest.approx(0.75)
        assert roc_auc(scores, labels).auc == pytest.approx(0.75, abs=1 / 256)

    def test_trapezoid_matches_pair_counting(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(8, 60))
            scores = np.round(rng.uniform(size=n), 2)
            labels = (rng.uniform(size=n) < 0.5).astype(int)
            if labels.sum() in (0, n):
                continue
            a = roc_auc(scores, labels, n_thresholds=256).auc
            b = pair_count_auc(scores, labels)
            assert abs(a - b) <= 1 / 256 + 1e-12

    def test_single_class_raises(self):
        with pytest.raises(UndefinedAUC):
            roc_auc(np.array([0.1, 0.9]), np.array([1, 1]))

    def test_curve_endpoints_and_ranges(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=100)
        labels = (rng.uniform(size=100) < 0.3).astype(int)
        curve = roc_auc(scores, labels)
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        assert all(0 <= x <= 1 and 0 <= y <= 1 for x, y in curve.points)
        assert 0.0 <= curve.auc <= 1.0

    def test_pixel_order_invariance(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(size=64)
        labels = (rng.uniform(size=64) < 0.4).astype(int)
        perm = rng.permutation(64)
        assert roc_auc(scores, labels).auc == roc_auc(scores[perm], labels[perm]).auc

    def test_pools_across_images(self):
        preds = [np.array([[0.9, 0.1]]), np.array([[0.8, 0.2]])]
        masks = [np.array([[1, 0]]), np.array([[1, 0]])]
        assert roc_auc(preds, masks).auc == pytest.approx(1.0)

    def test_points_and_auc_equal_threshold_loop(self):
        # reference: one full pass over the pooled scores per threshold
        def loop_roc(scores, labels, n_thresholds):
            pos, neg = scores[labels == 1], scores[labels == 0]
            n_pos = int(np.sum(labels == 1))
            n_neg = labels.size - n_pos
            points = [(0.0, 0.0)]
            for t in np.linspace(1.0, 0.0, n_thresholds):
                points.append((float(np.sum(neg >= t)) / n_neg, float(np.sum(pos >= t)) / n_pos))
            points.append((1.0, 1.0))
            points = sorted(set(points))
            xs = np.array([pt[0] for pt in points])
            ys = np.array([pt[1] for pt in points])
            return points, float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))

        rng = np.random.default_rng(6)
        on_thresholds = np.linspace(1.0, 0.0, 256)
        cases = []
        for _ in range(20):
            n = int(rng.integers(20, 400))
            cases.append((rng.uniform(size=n), 256))  # random
            cases.append((np.round(rng.uniform(size=n), 1), 256))  # tied
            cases.append((rng.choice(on_thresholds, size=n), 256))  # exactly on a threshold
            cases.append((rng.choice(np.linspace(0.0, 1.0, 7), size=n), int(rng.integers(2, 30))))  # few thresholds
        scores = rng.uniform(size=200)
        scores[::7] = np.nan  # a NaN score is below every threshold
        cases.append((scores, 256))
        for scores, n_thresholds in cases:
            labels = (rng.uniform(size=scores.size) < 0.3).astype(int)
            labels[:2] = (0, 1)
            curve = roc_auc(scores, labels, n_thresholds=n_thresholds)
            assert (curve.points, curve.auc) == loop_roc(scores, labels, n_thresholds)

    def test_bad_n_thresholds(self):
        with pytest.raises(ValueError):
            roc_auc(np.array([0.1, 0.9]), np.array([0, 1]), n_thresholds=1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(-1, 0, 0, 0)
