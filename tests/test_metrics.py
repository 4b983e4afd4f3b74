import tracemalloc

import numpy as np
import pytest

from segbench.losses import Masks
from segbench.metrics import (
    SCORES,
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


    @pytest.mark.parametrize("shape", [(50,), (7, 9), (3, 5, 4)], ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.5, 1.0])
    def test_equals_four_sums(self, shape, threshold):
        # NaN predictions are never positive; mask values other than 1 (0, 2, 255) are negatives
        rng = np.random.default_rng(17)
        for _ in range(5):
            exact = rng.choice([0.0, 0.3, 0.5, 1.0, np.nan], size=shape)
            p = np.where(rng.uniform(size=shape) < 0.5, exact, rng.uniform(size=shape))
            g = rng.choice(np.array([0, 1, 2, 255], dtype=np.uint8), size=shape)
            pred, truth = p >= threshold, g == 1
            want = ConfusionCounts(
                tp=int(np.sum(pred & truth)),
                fp=int(np.sum(pred & ~truth)),
                tn=int(np.sum(~pred & ~truth)),
                fn=int(np.sum(~pred & truth)),
            )
            assert confusion(p, g, threshold) == want
            assert want.total == p.size


class TestStackedConfusion:
    SCORES = (jaccard_index, dice_index, recall, specificity, precision, f_measure)

    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)], ids=["images", "runs", "2x2"])
    def test_counts_each_image_as_a_call_on_it(self, lead):
        rng = np.random.default_rng(18)
        g = rng.choice(np.array([0, 1, 2], dtype=np.uint8), size=(5, 4, 6))
        g[1], g[2] = 0, 1  # an empty mask and a full one
        p = rng.choice([0.0, 0.3, 0.5, 0.9, np.nan], size=(*lead, 5, 4, 6))
        p[..., 3, :, :] = 0.1  # nothing above the threshold
        c = confusion(p, g.view(Masks))
        assert all(np.shape(x) == (*lead, 5) and x.dtype == np.int64 for x in (c.tp, c.fp, c.tn, c.fn))
        for idx in np.ndindex(*lead, 5):
            one = confusion(p[idx], g[idx[-1]])
            assert (c.tp[idx], c.fp[idx], c.tn[idx], c.fn[idx]) == (one.tp, one.fp, one.tn, one.fn)
            for score in self.SCORES:
                assert score(c)[idx].hex() == score(one).hex()

    def test_warnings_are_the_per_element_lines_in_any_order(self, caplog):
        rng = np.random.default_rng(19)
        c = ConfusionCounts(*(np.where(rng.uniform(size=(4, 6)) < 0.5, 0, rng.integers(1, 9, size=(4, 6)))
                              for _ in range(4)))
        caplog.set_level("WARNING", logger="segbench.metrics")
        got = {name: score(c) for name, score in SCORES.items()}
        got_log = [r.getMessage() for r in caplog.records]
        caplog.clear()
        for idx in np.ndindex(4, 6):
            one = ConfusionCounts(*(int(x[idx]) for x in (c.tp, c.fp, c.tn, c.fn)))
            for name, score in SCORES.items():
                assert got[name][idx].hex() == score(one).hex()
        assert sorted(got_log) == sorted(r.getMessage() for r in caplog.records)
        assert len(set(got_log)) == 6  # every kind of event

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            confusion(np.zeros((2, 3, 4, 4)), np.zeros((3, 4, 5)).view(Masks))
        with pytest.raises(ValueError, match="shape mismatch"):
            confusion(np.zeros((3, 4)), np.zeros((2, 3, 4)).view(Masks))


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


def _threshold_loop_cases():
    """``(scores, labels, n_thresholds)``: random, tied and on-threshold scores, few thresholds, NaN scores, and
    scores of exactly 0.0 or 1.0, each with both classes."""
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
    for n_thresholds in (2, 3, 256):
        # scores of exactly 1.0 give (0,0)'s point or pass it; scores of exactly 0.0 reach (1,1) at the last
        # threshold, as the endpoint already does
        cases.append((rng.choice([0.0, 1.0], size=50), n_thresholds))
        cases.append((rng.choice([0.0, 0.5, 1.0], size=50), n_thresholds))
        cases.append((np.where(rng.uniform(size=80) < 0.3, 1.0, rng.uniform(size=80)), n_thresholds))
        cases.append((np.where(rng.uniform(size=80) < 0.3, 0.0, rng.uniform(size=80)), n_thresholds))
    cases.append((rng.uniform(size=60), 2))
    out = []
    for scores, n_thresholds in cases:
        labels = (rng.uniform(size=scores.size) < 0.3).astype(int)
        labels[:2] = (0, 1)
        out.append((scores, labels, n_thresholds))
    return out


def _as_images(rng, scores, labels):
    """``scores`` and ``labels`` cut at random points into runs of images of mixed sizes: 2-D where a piece has an
    even length, some empty, many of one class."""
    cuts = np.sort(rng.integers(0, scores.size + 1, size=rng.integers(1, 12)))
    pieces = [(p.reshape(2, -1), g.reshape(2, -1)) if p.size % 2 == 0 else (p, g)
              for p, g in zip(np.split(scores, cuts), np.split(labels, cuts))]
    return [p for p, _ in pieces], [g for _, g in pieces]


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

        for scores, labels, n_thresholds in _threshold_loop_cases():
            curve = roc_auc(scores, labels, n_thresholds=n_thresholds)
            assert (curve.points, curve.auc) == loop_roc(scores, labels, n_thresholds)
            assert all(type(x) is float and type(y) is float for x, y in curve.points)

    def test_a_run_of_images_scores_as_its_pooled_pixels(self):
        # roc_auc counts per block of images with at least n_thresholds pixels: the same points and area, bit for
        # bit, as the pixels in one array, for blocks of one image or of many (1e4 thresholds exceed every image)
        rng = np.random.default_rng(10)
        for scores, labels, n_thresholds in _threshold_loop_cases():
            order = np.argsort(labels, kind="stable")  # also with the classes in two runs: one-class images
            for s, g in ((scores, labels), (scores[order], labels[order])):
                for n in (n_thresholds, 10_000):
                    got, want = roc_auc(*_as_images(rng, s, g), n), roc_auc(s, g, n)
                    assert repr((got.points, got.auc)) == repr((want.points, want.auc))

    @pytest.mark.parametrize("n_thresholds", [2, 256])
    @pytest.mark.parametrize("auc", [roc_auc, pair_count_auc], ids=["roc_auc", "pair_count_auc"])
    def test_errors_come_in_order(self, auc, n_thresholds):
        # a length mismatch in any pair, then a mask value (here in a later block of two one-pixel images), then a
        # class without pixels
        one_class, bad = (np.array([[0.5]]), np.array([[1]])), (np.array([[0.5]]), np.array([[2]]))
        short = (np.array([[0.5, 0.6]]), np.array([[1]]))
        kwargs = {"n_thresholds": n_thresholds} if auc is roc_auc else {}
        for images, error in (([bad, one_class, short], "prediction/mask length mismatch"),
                              ([one_class, one_class, bad], "mask values must be exactly 0 or 1"),
                              ([one_class] * 3, "need at least one positive and one negative pixel")):
            with pytest.raises(ValueError, match=error) as exc:
                auc(*(list(a) for a in zip(*images)), **kwargs)
            assert isinstance(exc.value, UndefinedAUC) == error.startswith("need")

    def test_peak_memory_a_block_at_a_time(self):
        # eval-large's shape, 48 maps of 128x128: each image is a block, so the call holds one image's sorted
        # scores and labels, not a pooled copy of every score
        rng = np.random.default_rng(11)
        preds = [rng.uniform(size=(128, 128)) for _ in range(48)]
        masks = [(rng.uniform(size=(128, 128)) < 0.3).astype(np.uint8) for _ in range(48)]
        tracemalloc.start()
        try:
            roc_auc(preds, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sum(p.nbytes for p in preds) / 8

    @pytest.mark.parametrize("auc", [roc_auc, pair_count_auc], ids=["roc_auc", "pair_count_auc"])
    @pytest.mark.parametrize("bad", [2, -1, 255, 0.5, np.nan])
    def test_mask_values_other_than_0_or_1_rejected(self, auc, bad):
        # a value of neither class would count in no rate: FPR would never reach 1
        with pytest.raises(ValueError, match="mask values must be exactly 0 or 1"):
            auc(np.array([0.2, 0.9, 0.5]), np.array([1, 0, bad]))
        with pytest.raises(ValueError, match="mask values must be exactly 0 or 1"):
            auc([np.array([[0.2, 0.9]]), np.array([[0.5]])], [np.array([[1, 0]]), np.array([[bad]])])

    def test_bad_n_thresholds(self):
        with pytest.raises(ValueError):
            roc_auc(np.array([0.1, 0.9]), np.array([0, 1]), n_thresholds=1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(-1, 0, 0, 0)
