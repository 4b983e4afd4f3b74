"""Tiny convolutional pixel segmenter with manual backprop and Adam.

Architecture: 3x3 conv (1 -> 8 channels, zero-padded "same") -> ReLU ->
3x3 conv (8 -> 1) -> sigmoid.  Small enough that a full training run on
desk-scale synthetic data takes seconds, yet it learns blob segmentation.

All arithmetic is float64 numpy. Training is deterministic given the config seed (seeded init and shuffles).
Reductions are sequential sums or BLAS contractions, one per image. Bits repeat exactly on one host but depend on
its BLAS kernel and on numpy's SIMD exp and log; across hosts, the CSVs as printed are what is promised.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .adaptive import AdaptiveLogParams, wrap_loss_fn
from .losses import Masks, make_loss

HIDDEN_CHANNELS = 8
KSIZE = 3
_CENTRE = KSIZE * KSIZE // 2  # index of the unshifted tap
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Pixels per chunk of images. Per pixel of its chunk, a training step holds 34 floats: the 9 input taps, the 8
# hidden maps, the 9 taps of dz2 (first the 9 maps w2ᵀ @ h) and the 8 maps of dz1. A forward call holds its
# input, its output and one chunk's taps and hidden maps, so evaluate hands it every run of same-shaped images.
CHUNK_PIXELS = 2 * 48 * 48


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, batch: int, what: str):
        super().__init__(f"non-finite {what} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
        self.what = what

    def __reduce__(self):  # RuntimeError would pickle only the message, which __init__ does not take
        return type(self), (self.epoch, self.batch, self.what)


@dataclass
class TinyNet:
    """Weights as a dict of arrays: w1 (8,3,3), b1 (8,), w2 (8,3,3), b2 ()."""

    params: dict[str, np.ndarray]

    @classmethod
    def init(cls, seed: int = 0) -> "TinyNet":
        rng = np.random.default_rng([seed, 7])
        # He-style uniform: limit = sqrt(6 / fan_in)
        lim1 = np.sqrt(6.0 / (KSIZE * KSIZE * 1))
        lim2 = np.sqrt(6.0 / (KSIZE * KSIZE * HIDDEN_CHANNELS))
        return cls(
            params={
                "w1": rng.uniform(-lim1, lim1, size=(HIDDEN_CHANNELS, KSIZE, KSIZE)),
                "b1": np.zeros(HIDDEN_CHANNELS),
                "w2": rng.uniform(-lim2, lim2, size=(HIDDEN_CHANNELS, KSIZE, KSIZE)),
                "b2": np.zeros(()),
            }
        )


@functools.lru_cache(maxsize=16)  # at 16x16, working them out takes as long as stacking a chunk's taps
def _shifts(hgt: int, wid: int) -> tuple:
    """Per 3x3 tap (i, j), row-major, ``(to, frm)`` with ``tap[to] = map[frm]`` for flat H*W maps shifted by
    (i - 1) * W + j - 1. A column shift also wraps one column in from the next or previous row: callers zero it."""
    n, offs = hgt * wid, [i * wid + j for i in (-1, 0, 1) for j in (-1, 0, 1)]
    spans = [(off, min(max(-off, 0), n), min(max(n - off, 0), n)) for off in offs]  # rows off the image are clipped
    return tuple(((..., slice(lo, hi)), (..., slice(lo + off, hi + off))) for off, lo, hi in spans)


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    e = np.exp(-np.abs(z))  # never overflows: the argument is at most 0
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=out)


def _as_batch(image) -> np.ndarray:
    """A (B, H, W) float64 view of one (H, W) image or a (B, H, W) batch."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim not in (2, 3):
        raise ValueError("image must be 2-D (H, W) or 3-D (B, H, W)")
    return image.reshape((-1,) + image.shape[-2:])


def _sum_images(per_image: np.ndarray) -> np.ndarray:
    """Sum over the leading image axis in image order (np.sum is pairwise over a 1-D axis), as an array."""
    return np.cumsum(per_image, axis=0)[-1, ...]  # the ellipsis keeps a 1-D input's sum a 0-d array


def _stacked_taps(out: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """The nine zero-padded taps of (b, H, W) maps, stacked into ``out[:b]`` and viewed as (b, 9, H*W)."""
    taps = out[: len(maps)]
    flat, src = taps.reshape(len(maps), KSIZE * KSIZE, -1), maps.reshape(len(maps), -1)
    for k, (to, frm) in enumerate(_shifts(*maps.shape[1:])):
        flat[:, k][to] = src[frm]
    # what the copies left out or wrapped in lies on the frame: the rows and columns off the image
    taps[:, :KSIZE, 0] = taps[:, -KSIZE:, -1] = taps[:, ::KSIZE, :, 0] = taps[:, KSIZE - 1 :: KSIZE, :, -1] = 0.0
    return flat


def _chunk_buffers(x: np.ndarray, n: int, ws: list):
    """Images per chunk of x, and ``ws`` as ``n`` (b, 9, H, W) tap and ``n`` (b, 8, H*W) hidden buffers for at
    least its first (largest) chunk: replaced when the images' shape changes or their chunk is larger."""
    # one image at least; every chunk reuses the buffers, as fresh buffers per chunk re-fault their pages
    b = max(1, min(len(x), CHUNK_PIXELS // max(1, x[:1].size)))
    if not ws or ws[0].shape[1] < b or ws[0].shape[3:] != x.shape[1:]:
        ws[:] = np.empty((n, b, KSIZE * KSIZE, *x.shape[1:])), np.empty((n, b, HIDDEN_CHANNELS, x[:1].size))
    return b, *ws


def _hidden(net: TinyNet, t: np.ndarray, h: np.ndarray, x: np.ndarray):
    """Taps T of (b, H, W) images into ``t`` and hidden maps relu(w1 @ T + b1) into ``h``, one matmul per image."""
    tb = _stacked_taps(t, x)
    hb = np.matmul(net.params["w1"].reshape(HIDDEN_CHANNELS, -1), tb, out=h[: len(tb)])
    hb += net.params["b1"][:, None]
    return tb, np.maximum(hb, 0.0, out=hb)


def _output(net: TinyNet, hb: np.ndarray, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The (b, H, W) chunk ``out`` from its hidden maps ``hb``, with the nine maps w2ᵀ @ h written into ``u``."""
    # U_k = sum_c w2[c, k] h_c. conv2 sums the nine flat U_k, each read through its tap's slices, centre first.
    ub = u[: len(hb)]
    flat, of = ub.reshape(len(hb), KSIZE * KSIZE, -1), out.reshape(len(hb), -1)
    np.matmul(net.params["w2"].reshape(HIDDEN_CHANNELS, -1).T, hb, out=flat)
    ub[:, ::KSIZE, :, -1] = ub[:, KSIZE - 1 :: KSIZE, :, 0] = 0.0  # the columns wrapped in add exact zeros
    of[...] = flat[:, _CENTRE]
    for k, (to, frm) in enumerate(_shifts(*out.shape[1:])):
        if k != _CENTRE:
            of[to] += flat[:, k][frm]
    out += net.params["b2"]
    return _sigmoid(out, out=out)  # chunk by chunk, so its temporaries stay chunk-sized


def forward(net: TinyNet, image: np.ndarray) -> np.ndarray:
    """Predicted probability map for one (H, W) image or a (B, H, W) batch."""
    x = _as_batch(image)
    b, (t,), (h,) = _chunk_buffers(x, 1, [])
    p = np.empty(x.shape)
    for s in range(0, len(x), b):
        _output(net, _hidden(net, t, h, x[s : s + b])[1], t, p[s : s + b])  # U overwrites the taps
    return p.reshape(np.shape(image))


def _step(net: TinyNet, x: np.ndarray, upstream, ws: list) -> dict[str, np.ndarray]:
    """Weight gradients of (B, H, W) images x, summed over them, from one pass per chunk on the same taps and
    hidden maps. ``upstream(rows, p)`` is d(loss)/d(p) of ``x[rows]``, given its output p; ``ws`` holds the buffers."""
    b, (t, d), (h, dz1) = _chunk_buffers(x, 2, ws)
    g = {k: [] for k in net.params}  # per-image gradients, summed in image order at the end
    for s in range(0, len(x), b):
        rows = slice(s, s + b)
        tb, hb = _hidden(net, t, h, x[rows])
        p = _output(net, hb, d, np.empty(x[rows].shape))  # U goes to the dz2 taps: T is still needed
        dz2 = upstream(rows, p) * p * (1.0 - p)
        db = _stacked_taps(d, dz2)
        # Each image's products are its own matmul, so a batch sums what per-image calls return.
        # Backprop through "same" cross-correlation = cross-correlation with the 180-degree-flipped
        # kernel, so tap k of dz2 pairs with w2's tap 8 - k.
        g["w2"].append(np.matmul(hb, db.transpose(0, 2, 1))[..., ::-1])
        zb = np.matmul(net.params["w2"][:, ::-1, ::-1].reshape(HIDDEN_CHANNELS, -1), db, out=dz1[: len(db)])
        zb *= hb > 0.0
        g["w1"].append(np.matmul(zb, tb.transpose(0, 2, 1)))
        g["b1"].append(zb.sum(axis=-1))
        g["b2"].append(dz2.sum(axis=(-2, -1)))
    return {k: _sum_images(np.concatenate(v)).reshape(net.params[k].shape) for k, v in g.items()}


def backward(net: TinyNet, image: np.ndarray, upstream_grad: np.ndarray) -> dict[str, np.ndarray]:
    """Weight gradients given d(loss)/d(p_i) per output pixel, summed over the images of a batch."""
    up = np.asarray(upstream_grad, dtype=np.float64)
    if up.shape != np.shape(image):
        raise ValueError(f"upstream grad shape {up.shape} != output shape {np.shape(image)}")
    return _step(net, _as_batch(image), lambda rows, p: _as_batch(up)[rows], [])


@dataclass
class AdamState:
    lr: float = 1e-4
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(state: AdamState, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
    """Standard bias-corrected Adam update, in place."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    for k, g in grads.items():
        if k not in state.m:
            state.m[k] = np.zeros_like(params[k])
            state.v[k] = np.zeros_like(params[k])
        state.m[k] = ADAM_BETA1 * state.m[k] + (1.0 - ADAM_BETA1) * g
        state.v[k] = ADAM_BETA2 * state.v[k] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[k] / bc1
        v_hat = state.v[k] / bc2
        params[k] = params[k] - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 16
    max_epochs: int = 50
    loss: str = "dice"
    loss_params: dict = field(default_factory=dict)
    adaptive_params: AdaptiveLogParams | None = None  # the loss is wrapped exactly when these are set
    seed: int = 0

    def __post_init__(self):
        if not self.lr > 0:  # written so that nan fails
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (1 <= self.max_epochs <= 50):
            raise ValueError("max_epochs must be in [1, 50]")
        self.loss_fn()  # a bad loss selector or option fails here, not mid-training

    def loss_fn(self):
        fn = make_loss(self.loss, **self.loss_params)
        if self.adaptive_params is not None:
            fn = wrap_loss_fn(fn, self.adaptive_params)
        return fn


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    val_jaccard: float
    val_dice: float
    val_recall: float
    val_specificity: float
    val_f1: float


@dataclass
class RunRecord:
    epochs: list[EpochRow]
    final_auc: float
    val_preds: list[np.ndarray] = field(default_factory=list)  # from the final epoch
    val_masks: list[np.ndarray] = field(default_factory=list)


def evaluate(net: TinyNet, val_set):
    """Macro-averaged metrics at :func:`metrics.confusion`'s default threshold, plus pooled-pixel AUC inputs."""
    if not val_set:
        raise ValueError("validation set must be non-empty")
    runs = itertools.groupby((s.image for s in val_set), key=np.shape)
    preds = [p for _, run in runs for p in forward(net, np.stack(list(run)))]
    scores = {"jaccard": metrics.jaccard_index, "dice": metrics.dice_index, "recall": metrics.recall,
              "specificity": metrics.specificity, "f1": metrics.f_measure}
    per_image = []
    for p, s in zip(preds, val_set):
        c = metrics.confusion(p, s.mask)
        per_image.append([score(c) for score in scores.values()])
    means = {k: float(np.mean(v)) for k, v in zip(scores, zip(*per_image))}
    return means, preds


def train(config: TrainConfig, train_set, val_set) -> RunRecord:
    """Mini-batch Adam training; per-epoch validation at threshold 0.5."""
    if not train_set or not val_set:
        raise ValueError("train and validation sets must be non-empty")
    net = TinyNet.init(seed=config.seed)
    opt = AdamState(lr=config.lr)
    loss_fn = config.loss_fn()
    n = len(train_set)
    rows = []
    ws = []  # the step's chunk buffers: allocated at the first (largest) batch, reused by every step of this call
    for epoch in range(config.max_epochs):
        order = np.random.default_rng([config.seed, 11, epoch]).permutation(n)
        epoch_losses = []
        # a divergence is reported by the isfinite checks, not by numpy's overflow warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for b_idx, start in enumerate(range(0, n, config.batch_size)):
                batch = [train_set[i] for i in order[start : start + config.batch_size]]
                masks = np.stack([s.mask for s in batch]).view(Masks)
                batch_loss = 0.0

                def upstream(chunk, p):
                    nonlocal batch_loss
                    # checked before the loss sees it, so plain and wrapped losses diverge the same way
                    if not np.isfinite(p).all():
                        raise TrainingDiverged(epoch, b_idx, "network output")
                    ev = loss_fn(p, masks[chunk])  # one value per image; a scalar stands for each of them
                    for value in np.broadcast_to(ev.value, len(p)).tolist():  # as Python floats, in image order
                        batch_loss += value
                    return ev.grad / len(batch)

                grads = _step(net, np.stack([s.image for s in batch]), upstream, ws)
                batch_loss /= len(batch)
                if not np.isfinite(batch_loss):  # a finite p can still give 0/0 (Tversky at alpha=0, smooth=0)
                    raise TrainingDiverged(epoch, b_idx, f"loss {batch_loss}")
                adam_step(opt, net.params, grads)
                epoch_losses.append(batch_loss)
            means, preds = evaluate(net, val_set)
        if not all(np.isfinite(p).all() for p in preds):  # the epoch's last step diverged
            raise TrainingDiverged(epoch, b_idx, "validation output")
        rows.append(EpochRow(epoch, float(np.mean(epoch_losses)), **{f"val_{k}": v for k, v in means.items()}))
    masks = [s.mask for s in val_set]
    try:
        auc = metrics.roc_auc(preds, masks).auc
    except metrics.UndefinedAUC:
        auc = float("nan")
    return RunRecord(epochs=rows, final_auc=auc, val_preds=preds, val_masks=masks)
