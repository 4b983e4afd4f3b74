"""Tiny convolutional pixel segmenter with manual backprop and Adam.

Architecture: 3x3 conv (1 -> 8 channels, zero-padded "same") -> ReLU ->
3x3 conv (8 -> 1) -> sigmoid.  Small enough that a full training run on
desk-scale synthetic data takes seconds, yet it learns blob segmentation.

All arithmetic is float64 numpy; training is fully deterministic given the
config seed (seeded init, seeded per-epoch shuffles, sequential reductions).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .adaptive import AdaptiveLogParams, wrap_loss_fn
from .losses import make_loss

HIDDEN_CHANNELS = 8
KSIZE = 3


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, batch: int, value: float):
        super().__init__(f"non-finite loss {value} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass
class TinyNet:
    """Weights as a dict of arrays: w1 (8,3,3), b1 (8,), w2 (8,3,3), b2 ()."""

    params: dict[str, np.ndarray]

    @classmethod
    def init(cls, seed: int = 0) -> "TinyNet":
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 7])))
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

    def zero_like_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}


def _conv3x3_same(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Cross-correlate a 2-D map with a 3x3 kernel, zero-padded to same size."""
    h, w = x.shape
    xp = np.pad(x, 1)
    out = np.zeros((h, w))
    for i in range(KSIZE):
        for j in range(KSIZE):
            out += k[i, j] * xp[i : i + h, j : j + w]
    return out


def _conv3x3_weight_grad(x: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Gradient of sum(dz * conv3x3_same(x, k)) w.r.t. the kernel k."""
    h, w = x.shape
    xp = np.pad(x, 1)
    dk = np.zeros((KSIZE, KSIZE))
    for i in range(KSIZE):
        for j in range(KSIZE):
            dk[i, j] = np.sum(dz * xp[i : i + h, j : j + w])
    return dk


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward(net: TinyNet, image: np.ndarray, keep_activations: bool = False):
    """Predicted probability map for one image; optionally returns activations."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("image must be 2-D")
    w1, b1, w2, b2 = net.params["w1"], net.params["b1"], net.params["w2"], net.params["b2"]
    z1 = np.stack([_conv3x3_same(image, w1[c]) + b1[c] for c in range(HIDDEN_CHANNELS)])
    a1 = np.maximum(z1, 0.0)
    z2 = sum(_conv3x3_same(a1[c], w2[c]) for c in range(HIDDEN_CHANNELS)) + b2
    p = _sigmoid(z2)
    if keep_activations:
        return p, {"z1": z1, "a1": a1, "z2": z2, "p": p}
    return p


def backward(net: TinyNet, image: np.ndarray, upstream_grad: np.ndarray, acts=None) -> dict[str, np.ndarray]:
    """Weight gradients given d(loss)/d(p_i) per output pixel."""
    image = np.asarray(image, dtype=np.float64)
    if acts is None:
        _, acts = forward(net, image, keep_activations=True)
    up = np.asarray(upstream_grad, dtype=np.float64)
    if up.shape != acts["p"].shape:
        raise ValueError(f"upstream grad shape {up.shape} != output shape {acts['p'].shape}")
    w2 = net.params["w2"]
    p, z1, a1 = acts["p"], acts["z1"], acts["a1"]

    dz2 = up * p * (1.0 - p)
    grads = {
        "w2": np.stack([_conv3x3_weight_grad(a1[c], dz2) for c in range(HIDDEN_CHANNELS)]),
        "b2": np.array(np.sum(dz2)),
    }
    # Backprop through "same" cross-correlation = cross-correlation with the
    # 180-degree-flipped kernel.
    da1 = np.stack([_conv3x3_same(dz2, w2[c, ::-1, ::-1]) for c in range(HIDDEN_CHANNELS)])
    dz1 = da1 * (z1 > 0)
    grads["w1"] = np.stack([_conv3x3_weight_grad(image, dz1[c]) for c in range(HIDDEN_CHANNELS)])
    grads["b1"] = dz1.sum(axis=(1, 2))
    return grads


@dataclass
class AdamState:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(state: AdamState, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
    """Standard bias-corrected Adam update, in place."""
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    for k, g in grads.items():
        if k not in state.m:
            state.m[k] = np.zeros_like(params[k])
            state.v[k] = np.zeros_like(params[k])
        state.m[k] = state.beta1 * state.m[k] + (1.0 - state.beta1) * g
        state.v[k] = state.beta2 * state.v[k] + (1.0 - state.beta2) * g * g
        m_hat = state.m[k] / bc1
        v_hat = state.v[k] / bc2
        params[k] = params[k] - state.lr * m_hat / (np.sqrt(v_hat) + state.eps_adam)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 16
    max_epochs: int = 50
    loss: str = "dice"
    loss_params: dict = field(default_factory=dict)
    adaptive_wrap: bool = False
    adaptive_params: AdaptiveLogParams = AdaptiveLogParams()
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (1 <= self.max_epochs <= 50):
            raise ValueError("max_epochs must be in [1, 50]")
        self.loss_fn()  # a bad loss selector or option fails here, not mid-training

    def loss_fn(self):
        fn = make_loss(self.loss, **self.loss_params)
        if self.adaptive_wrap:
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
    net: TinyNet | None = None
    val_preds: list[np.ndarray] = field(default_factory=list)  # from the final epoch
    val_masks: list[np.ndarray] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(
                ["epoch", "train_loss", "val_jaccard", "val_dice", "val_recall", "val_specificity", "val_f1"]
            )
            for r in self.epochs:
                w.writerow(
                    [r.epoch]
                    + ["%.6g" % v for v in (r.train_loss, r.val_jaccard, r.val_dice, r.val_recall, r.val_specificity, r.val_f1)]
                )


def evaluate(net: TinyNet, val_set, threshold: float = 0.5):
    """Macro-averaged threshold metrics plus pooled-pixel AUC inputs."""
    preds = [forward(net, s.image) for s in val_set]
    per_image = {"jaccard": [], "dice": [], "recall": [], "specificity": [], "f1": []}
    for p, s in zip(preds, val_set):
        c = metrics.confusion(p, s.mask, threshold)
        per_image["jaccard"].append(metrics.jaccard_index(c))
        per_image["dice"].append(metrics.dice_index(c))
        per_image["recall"].append(metrics.recall(c))
        per_image["specificity"].append(metrics.specificity(c))
        per_image["f1"].append(metrics.f_measure(c))
    means = {k: float(np.mean(v)) for k, v in per_image.items()}
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
    for epoch in range(config.max_epochs):
        order = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([config.seed, 11, epoch]))
        ).permutation(n)
        epoch_losses = []
        for b_idx, start in enumerate(range(0, n, config.batch_size)):
            batch = [train_set[i] for i in order[start : start + config.batch_size]]
            grads = net.zero_like_grads()
            batch_loss = 0.0
            for s in batch:
                p, acts = forward(net, s.image, keep_activations=True)
                ev = loss_fn(p, s.mask)
                batch_loss += ev.value
                g = backward(net, s.image, ev.grad / len(batch), acts=acts)
                for k in grads:
                    grads[k] += g[k]
            batch_loss /= len(batch)
            if not np.isfinite(batch_loss):
                raise TrainingDiverged(epoch, b_idx, batch_loss)
            adam_step(opt, net.params, grads)
            epoch_losses.append(batch_loss)
        means, preds = evaluate(net, val_set)
        rows.append(
            EpochRow(
                epoch=epoch,
                train_loss=float(np.mean(epoch_losses)),
                val_jaccard=means["jaccard"],
                val_dice=means["dice"],
                val_recall=means["recall"],
                val_specificity=means["specificity"],
                val_f1=means["f1"],
            )
        )
    masks = [s.mask for s in val_set]
    try:
        auc = metrics.roc_auc(preds, masks).auc
    except metrics.UndefinedAUC:
        auc = float("nan")
    return RunRecord(epochs=rows, final_auc=auc, net=net, val_preds=preds, val_masks=masks)
