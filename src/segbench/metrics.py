"""Threshold-based segmentation metrics and pooled-pixel ROC-AUC."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


class UndefinedAUC(ValueError):
    """ROC is undefined: all pixels belong to a single class."""


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class RocCurve:
    """(FPR, TPR) points ordered from (0,0) to (1,1), plus the trapezoidal area."""

    points: list[tuple[float, float]]
    auc: float


def confusion(p, g, threshold: float = 0.5) -> ConfusionCounts:
    """Tally pixels, classifying positive iff p_i >= threshold."""
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    p = np.asarray(p, dtype=np.float64)
    g = np.asarray(g)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")
    pred = p >= threshold
    truth = g == 1
    return ConfusionCounts(
        tp=int(np.sum(pred & truth)),
        fp=int(np.sum(pred & ~truth)),
        tn=int(np.sum(~pred & ~truth)),
        fn=int(np.sum(~pred & truth)),
    )


def _ratio(num: int, denom: int, what: str) -> float:
    # Convention: 1.0 on an empty denominator (nothing to get wrong).
    if denom == 0:
        log.warning("%s has zero denominator; reporting 1.0 by convention", what)
        return 1.0
    return num / denom


def jaccard_index(c: ConfusionCounts) -> float:
    return _ratio(c.tp, c.tp + c.fp + c.fn, "jaccard")


def dice_index(c: ConfusionCounts) -> float:
    return _ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn, "dice")


def recall(c: ConfusionCounts) -> float:
    return _ratio(c.tp, c.tp + c.fn, "recall")


def specificity(c: ConfusionCounts) -> float:
    return _ratio(c.tn, c.tn + c.fp, "specificity")


def precision(c: ConfusionCounts) -> float:
    return _ratio(c.tp, c.tp + c.fp, "precision")


def f_measure(c: ConfusionCounts) -> float:
    pr = precision(c)
    rc = recall(c)
    if pr + rc == 0:
        log.warning("f-measure has zero denominator; reporting 0.0")
        return 0.0
    return 2.0 * pr * rc / (pr + rc)


def roc_auc(preds, masks, n_thresholds: int = 256) -> RocCurve:
    """Micro-averaged ROC: pool all pixels, sweep evenly spaced thresholds.

    ``preds``/``masks`` are matching sequences of probability maps and binary
    masks (single arrays also accepted).  The area is the trapezoidal
    integral of TPR against FPR.
    """
    if n_thresholds < 2:
        raise ValueError("n_thresholds must be >= 2")
    scores, labels = _pool(preds, masks)
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAUC("need at least one positive and one negative pixel")

    thresholds = np.linspace(1.0, 0.0, n_thresholds)
    tpr = _count_at_least(scores, labels == 1, thresholds) / n_pos
    fpr = _count_at_least(scores, labels == 0, thresholds) / n_neg
    points = sorted({(0.0, 0.0), (1.0, 1.0), *zip(fpr.tolist(), tpr.tolist())})
    xs = np.array([pt[0] for pt in points])
    ys = np.array([pt[1] for pt in points])
    auc = float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))
    return RocCurve(points=points, auc=auc)


def _count_at_least(scores: np.ndarray, mask: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """How many of ``scores[mask]`` are >= each threshold, from one sort; a NaN score counts for none."""
    ordered = scores[mask]
    ordered.sort()  # in place: the pooled scores can be the largest array of a run; NaNs go last
    return np.searchsorted(ordered, np.nan) - np.searchsorted(ordered, thresholds, side="left")


def pair_count_auc(preds, masks) -> float:
    """AUC by the pair-counting (Mann-Whitney) definition.

    Fraction of (positive, negative) pixel pairs where the positive scores
    higher; ties count half.  Quadratic over distinct scores; intended as the
    independent cross-check on small inputs.
    """
    scores, labels = _pool(preds, masks)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise UndefinedAUC("need at least one positive and one negative pixel")
    wins = 0.0
    for s in pos:
        wins += float(np.sum(s > neg)) + 0.5 * float(np.sum(s == neg))
    return wins / (pos.size * neg.size)


def _pool(preds, masks) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(preds, np.ndarray) and preds.ndim <= 2:
        preds, masks = [preds], [masks]
    ps, gs = [], []
    for p, g in zip(preds, masks, strict=True):
        p = np.asarray(p, dtype=np.float64).ravel()
        g = np.asarray(g).ravel()
        if p.shape != g.shape:
            raise ValueError("prediction/mask length mismatch")
        ps.append(p)
        gs.append(g)
    return np.concatenate(ps), np.concatenate(gs)
