"""Threshold-based segmentation metrics and pooled-pixel ROC-AUC."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .losses import Masks

log = logging.getLogger(__name__)


class UndefinedAUC(ValueError):
    """ROC is undefined: all pixels belong to a single class."""


@dataclass(frozen=True)
class ConfusionCounts:
    """Pixel tallies: ints, or arrays of one shape holding each image's, as :func:`confusion` counts a stack."""

    tp: int | np.ndarray
    fp: int | np.ndarray
    tn: int | np.ndarray
    fn: int | np.ndarray

    def __post_init__(self):
        if np.min([self.tp, self.fp, self.tn, self.fn]) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int | np.ndarray:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class RocCurve:
    """(FPR, TPR) points ordered from (0,0) to (1,1), plus the trapezoidal area."""

    points: list[tuple[float, float]]
    auc: float


def confusion(p, g, threshold: float = 0.5) -> ConfusionCounts:
    """Tally pixels, classifying positive iff p_i >= threshold. Against a ``Masks`` stack of n masks, count each image
    of ``p`` (n, H, W) or of ``p`` stacked on leading axes, say (R, n, H, W): each count is then an (n,) or (R, n)
    array."""
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    per_image = isinstance(g, Masks)  # tested before np.asarray drops the view
    p = np.asarray(p, dtype=np.float64)
    g = np.asarray(g)
    lead = p.ndim - g.ndim if per_image else 0  # the stack's leading axes
    if lead < 0 or p.shape[lead:] != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")
    axes = tuple(range(1 - g.ndim, 0)) if per_image else None  # an image's axes; None counts into one int
    pred = p >= threshold
    truth = g == 1
    # per image, a 32-bit sum of the bytes: faster than count_nonzero's int64 sum along axes
    tp, n_pred, n_true = (np.count_nonzero(a) if axes is None else
                          a.view(np.uint8).sum(axis=axes, dtype=np.uint32).astype(np.int64)
                          for a in (pred & truth, pred, truth))
    size = g[:1].size if per_image else g.size  # pixels per image
    return ConfusionCounts(tp=tp, fp=n_pred - tp, tn=size - n_pred - n_true + tp, fn=n_true - tp)


_RATIO = "%s has zero denominator; reporting 1.0 by convention"  # 1.0: nothing to get wrong


def _divide(num, denom, fill: float, events: list | None, *message) -> float | np.ndarray:
    """``num / denom`` of one image's counts or, elementwise, of arrays of them, and ``fill`` by convention where
    ``denom`` is 0: there a score logs ``message`` once per element or, given ``events``, adds it there."""
    zero = np.equal(denom, 0)
    if events is None:
        for _ in range(np.count_nonzero(zero)):
            log.warning(*message)
    else:
        events.append((zero, message))
    out = np.divide(num, denom, out=np.full(zero.shape, fill), where=~zero)
    return float(out) if out.ndim == 0 else out


def jaccard_index(c: ConfusionCounts, events: list | None = None) -> float | np.ndarray:
    return _divide(c.tp, c.tp + c.fp + c.fn, 1.0, events, _RATIO, "jaccard")


def dice_index(c: ConfusionCounts, events: list | None = None) -> float | np.ndarray:
    return _divide(2 * c.tp, 2 * c.tp + c.fp + c.fn, 1.0, events, _RATIO, "dice")


def recall(c: ConfusionCounts, events: list | None = None) -> float | np.ndarray:
    return _divide(c.tp, c.tp + c.fn, 1.0, events, _RATIO, "recall")


def specificity(c: ConfusionCounts, events: list | None = None) -> float | np.ndarray:
    return _divide(c.tn, c.tn + c.fp, 1.0, events, _RATIO, "specificity")


def precision(c: ConfusionCounts, events: list | None = None) -> float | np.ndarray:
    return _divide(c.tp, c.tp + c.fp, 1.0, events, _RATIO, "precision")


def f_measure(c: ConfusionCounts, events: list | None = None) -> float | np.ndarray:
    pr, rc = precision(c, events), recall(c, events)
    return _divide(2.0 * pr * rc, pr + rc, 0.0, events, "f-measure has zero denominator; reporting 0.0")


SCORES = {"jaccard": jaccard_index, "dice": dice_index, "recall": recall, "specificity": specificity, "f1": f_measure}


def scores(c: ConfusionCounts) -> dict[str, float | np.ndarray]:
    """Every score of :data:`SCORES`, with their warnings logged element by element, as one call per element would."""
    events = []
    values = {name: score(c, events) for name, score in SCORES.items()}
    held = np.stack(np.broadcast_arrays(*(zero for zero, _ in events)), axis=-1)
    for k in np.nonzero(held)[-1].tolist():  # row-major, so the last axis orders each element's events
        log.warning(*events[k][1])
    return values


def roc_auc(preds, masks, n_thresholds: int = 256) -> RocCurve:
    """Micro-averaged ROC: pool all pixels, sweep evenly spaced thresholds.

    ``preds``/``masks`` are matching sequences of probability maps and binary
    masks (single arrays also accepted).  The area is the trapezoidal
    integral of TPR against FPR.
    """
    if n_thresholds < 2:
        raise ValueError("n_thresholds must be >= 2")
    pos, neg = _pool(preds, masks)
    thresholds = np.linspace(1.0, 0.0, n_thresholds)
    for s in (pos, neg):
        s.sort()  # in place: the pooled scores can be the largest array of a run; NaNs go last
    # per class, the share of scores >= each threshold; a NaN score counts for none
    tpr, fpr = ((np.searchsorted(s, np.nan) - np.searchsorted(s, thresholds, side="left")) / s.size for s in (pos, neg))
    # both rates rise as the thresholds fall, so the points come in order: a repeated point follows its equal
    xs, ys = (np.concatenate([[0.0], rate, [1.0]]) for rate in (fpr, tpr))
    new = np.concatenate([[True], (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])])
    xs, ys = xs[new], ys[new]
    auc = float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))
    return RocCurve(points=list(zip(xs.tolist(), ys.tolist())), auc=auc)


def pair_count_auc(preds, masks) -> float:
    """AUC by the pair-counting (Mann-Whitney) definition.

    Fraction of (positive, negative) pixel pairs where the positive scores
    higher; ties count half.  Quadratic over distinct scores; intended as the
    independent cross-check on small inputs.
    """
    pos, neg = _pool(preds, masks)
    wins = 0.0
    for s in pos:
        wins += float(np.sum(s > neg)) + 0.5 * float(np.sum(s == neg))
    return wins / (pos.size * neg.size)


def _pool(preds, masks) -> tuple[np.ndarray, np.ndarray]:
    """The pooled scores of the positive and of the negative pixels, as new arrays; any other mask value raises."""
    if isinstance(preds, np.ndarray) and preds.ndim <= 2:
        preds, masks = [preds], [masks]
    pairs = [(np.asarray(p, dtype=np.float64).ravel(), np.asarray(g).ravel())
             for p, g in zip(preds, masks, strict=True)]
    if any(p.shape != g.shape for p, g in pairs):
        raise ValueError("prediction/mask length mismatch")
    scores, labels = (np.concatenate(a) for a in zip(*pairs))
    pos, neg = scores[labels == 1], scores[labels == 0]
    if pos.size + neg.size != labels.size:
        raise ValueError("mask values must be exactly 0 or 1")
    if pos.size == 0 or neg.size == 0:
        raise UndefinedAUC("need at least one positive and one negative pixel")
    return pos, neg
