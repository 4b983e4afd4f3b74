"""Tiny convolutional pixel segmenter with manual backprop and Adam.

Architecture: 3x3 conv (1 -> 8 channels, zero-padded "same") -> ReLU ->
3x3 conv (8 -> 1) -> sigmoid.  Small enough that a full training run on
desk-scale synthetic data takes seconds, yet it learns blob segmentation.

All arithmetic is float64 numpy; training is fully deterministic given the
config seed (seeded init, seeded per-epoch shuffles, sequential reductions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .adaptive import AdaptiveLogParams, wrap_loss_fn
from .losses import make_loss

HIDDEN_CHANNELS = 8
KSIZE = 3


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


_CENTRE = KSIZE * KSIZE // 2  # index of the unshifted tap


def _padded_taps(shape: tuple[int, ...]) -> list[np.ndarray]:
    """The nine 3x3 taps, row-major, of one zeroed (..., H + 2, W + 2) buffer for (..., H, W) maps.

    Tap (i, j) is the interior shifted by (i - 1, j - 1). The centre tap is the interior itself,
    so maps written into ``taps[_CENTRE]`` are read zero-padded through all nine.
    """
    h, w = shape[-2:]
    xp = np.zeros(shape[:-2] + (h + 2, w + 2))  # np.pad costs more than the taps at these sizes
    return [xp[..., i : i + h, j : j + w] for i in range(KSIZE) for j in range(KSIZE)]


def _conv3x3_into(out: np.ndarray, taps: list[np.ndarray], k: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Cross-correlate the maps behind ``taps`` with a 3x3 kernel into ``out``; ``tmp`` is scratch."""
    out.fill(0.0)
    for kij, tap in zip(k.ravel(), taps):
        np.multiply(tap, kij, out=tmp)
        out += tmp
    return out


def _conv3x3_weight_grad(taps: list[np.ndarray], dz: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the kernel k of sum(dz * conv3x3(x, k)), one (3, 3) per leading index.

    ``taps`` are x's; ``tmp`` is scratch.
    """
    dk = np.stack([np.multiply(dz, tap, out=tmp).sum(axis=(-2, -1)) for tap in taps], axis=-1)
    return dk.reshape(dk.shape[:-1] + (KSIZE, KSIZE))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _as_batch(image) -> np.ndarray:
    """A (B, H, W) float64 view of one (H, W) image or a (B, H, W) batch."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim not in (2, 3):
        raise ValueError("image must be 2-D (H, W) or 3-D (B, H, W)")
    return image.reshape((-1,) + image.shape[-2:])


def _hidden_into(out: np.ndarray, net: TinyNet, x_taps: list[np.ndarray], c: int, tmp: np.ndarray) -> np.ndarray:
    """ReLU map of hidden channel c, written into the contiguous ``out``."""
    _conv3x3_into(out, x_taps, net.params["w1"][c], tmp)
    out += net.params["b1"][c]
    return np.maximum(out, 0.0, out=out)


def _sum_images(per_image: np.ndarray) -> np.ndarray:
    """Sum over the leading image axis in image order (np.sum is pairwise over a 1-D axis)."""
    return np.cumsum(per_image, axis=0)[-1]


def forward(net: TinyNet, image: np.ndarray) -> np.ndarray:
    """Predicted probability map for one (H, W) image or a (B, H, W) batch."""
    x = _as_batch(image)
    x_taps, h_taps = _padded_taps(x.shape), _padded_taps(x.shape)
    x_taps[_CENTRE][...] = x
    # Each channel's hidden map and conv output go through one contiguous buffer; writing the
    # conv straight into the strided padded interior is slower.
    conv, tmp, z2 = np.empty(x.shape), np.empty(x.shape), np.zeros(x.shape)
    for c in range(HIDDEN_CHANNELS):
        h_taps[_CENTRE][...] = _hidden_into(conv, net, x_taps, c, tmp)
        z2 += _conv3x3_into(conv, h_taps, net.params["w2"][c], tmp)
    z2 += net.params["b2"]
    return _sigmoid(z2).reshape(np.shape(image))


def backward(net: TinyNet, image: np.ndarray, upstream_grad: np.ndarray, p=None) -> dict[str, np.ndarray]:
    """Weight gradients given d(loss)/d(p_i) per output pixel, summed over the images of a batch.

    ``p`` is ``forward(net, image)`` when the caller already has it.
    """
    if p is None:
        p = forward(net, image)
    up = np.asarray(upstream_grad, dtype=np.float64)
    if up.shape != np.shape(p):
        raise ValueError(f"upstream grad shape {up.shape} != output shape {np.shape(p)}")
    x, p, up = _as_batch(image), _as_batch(p), _as_batch(up)
    dz2 = up * p * (1.0 - p)
    x_taps, dz2_taps, h_taps = _padded_taps(x.shape), _padded_taps(x.shape), _padded_taps(x.shape)
    x_taps[_CENTRE][...] = x
    dz2_taps[_CENTRE][...] = dz2
    conv, tmp, active = np.empty(x.shape), np.empty(x.shape), np.empty(x.shape, dtype=bool)
    gw1, gb1, gw2 = [], [], []
    for c in range(HIDDEN_CHANNELS):
        # The hidden map is recomputed here rather than kept from forward: (B, 8, H, W) of them
        # would raise peak memory more than the training run can afford.
        a1 = _hidden_into(conv, net, x_taps, c, tmp)
        h_taps[_CENTRE][...] = a1
        np.greater(a1, 0.0, out=active)
        gw2.append(_conv3x3_weight_grad(h_taps, dz2, tmp))
        # Backprop through "same" cross-correlation = cross-correlation with the
        # 180-degree-flipped kernel.
        dz1 = _conv3x3_into(conv, dz2_taps, net.params["w2"][c, ::-1, ::-1], tmp)
        dz1 *= active
        gw1.append(_conv3x3_weight_grad(x_taps, dz1, tmp))
        gb1.append(dz1.sum(axis=(-2, -1)))
    return {
        "w1": _sum_images(np.stack(gw1, axis=1)),
        "b1": _sum_images(np.stack(gb1, axis=1)),
        "w2": _sum_images(np.stack(gw2, axis=1)),
        "b2": np.array(_sum_images(dz2.sum(axis=(-2, -1)))),
    }


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


def evaluate(net: TinyNet, val_set, threshold: float = 0.5):
    """Macro-averaged threshold metrics plus pooled-pixel AUC inputs."""
    # one image at a time: stacking 48 validation images of 128x128 would hold ~6 MB per live array
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
        # a divergence is reported by the isfinite checks, not by numpy's overflow warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for b_idx, start in enumerate(range(0, n, config.batch_size)):
                batch = [train_set[i] for i in order[start : start + config.batch_size]]
                images = np.stack([s.image for s in batch])
                p = forward(net, images)
                # checked before the loss sees it, so plain and wrapped losses diverge the same way
                if not np.isfinite(p).all():
                    raise TrainingDiverged(epoch, b_idx, "network output")
                upstream = np.empty_like(p)
                batch_loss = 0.0
                for k, s in enumerate(batch):
                    ev = loss_fn(p[k], s.mask)
                    batch_loss += ev.value
                    upstream[k] = ev.grad / len(batch)
                batch_loss /= len(batch)
                if not np.isfinite(batch_loss):  # a finite p can still give 0/0 (Tversky at alpha=0, smooth=0)
                    raise TrainingDiverged(epoch, b_idx, f"loss {batch_loss}")
                adam_step(opt, net.params, backward(net, images, upstream, p=p))
                epoch_losses.append(batch_loss)
            means, preds = evaluate(net, val_set)
        if not all(np.isfinite(p).all() for p in preds):  # the epoch's last step diverged
            raise TrainingDiverged(epoch, b_idx, "validation output")
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
