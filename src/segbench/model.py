"""Tiny convolutional pixel segmenter with manual backprop and Adam.

Architecture: 3x3 conv (1 -> 8 channels, zero-padded "same") -> ReLU ->
3x3 conv (8 -> 1) -> sigmoid.  Small enough that a full training run on
desk-scale synthetic data takes seconds, yet it learns blob segmentation.

All arithmetic is float64 numpy. Training is deterministic given the config seed (seeded init and shuffles).
Reductions are sequential sums or BLAS contractions, one per image. Bits repeat exactly on one host but depend on
its BLAS kernel and on numpy's SIMD exp and log; across hosts, the CSVs as printed are what is promised.

Every pass works on weights stacked on a leading run axis. Runs that share a seed, a batch size and an epoch count
see the same images in the same order, so :func:`train` trains them side by side: each chunk's input taps are
stacked once for every run, each run's products are still its own matrix products, and each run gets the bits it
would get alone. One config trains as a stack of one run, and :func:`forward`, :func:`backward` and
:func:`evaluate` run a net without a run axis as a one-run stack.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .adaptive import BaseValueOutOfRange, RowParams, _compose, split_wrapped
from .losses import LossEval, Masks, _check_masks, _CheckedMasks, copy_axes, loss_key, make_loss
from .synthdata import _check_integers

HIDDEN_CHANNELS = 8
KSIZE = 3
TAPS = KSIZE * KSIZE
_CENTRE = TAPS // 2  # index of the unshifted tap
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Pixels per run per chunk of images. Per pixel of its chunk, a training step holds the 9 input taps and a one
# (b1's row), shared by every run, and per run 17 floats: the 8 hidden maps (then dz1) and the 9 taps of dz2 (first
# the 9 maps w2ᵀ @ h); one run holds 27. A one-run forward call holds its input, its output and one chunk's taps and
# hidden maps (w2ᵀ @ h overwrites the taps), so evaluate hands it every run of same-shaped images.
CHUNK_PIXELS = 2 * 48 * 48
# Pixels of runs x images per chunk of a stacked net: runs beyond it go to the chunk's next block of runs, which
# reuses its taps. A block holds at least one run, so only an image larger than this makes a larger chunk. Of caps
# from 1 to 12 CHUNK_PIXELS, 2 trained groups of 2 and 6 runs at 48x48 and of 6 and 24 at 16x16 as fast as any
# (2-vCPU Xeon, in-process timings).
GROUP_PIXELS = 2 * CHUNK_PIXELS


class TrainingDiverged(RuntimeError):
    """A run stopped at ``epoch`` and ``batch`` because ``what`` went wrong, as ``state`` says."""

    state = "non-finite {}"

    def __init__(self, epoch: int, batch: int, what: str):
        super().__init__(f"{self.state.format(what)} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
        self.what = what

    def __reduce__(self):  # RuntimeError would pickle only the message, which __init__ does not take
        return type(self), (self.epoch, self.batch, self.what)


class _OutsideWrapper(TrainingDiverged):
    """A wrapped run whose base loss value left [0, 1], where the wrapper is defined."""

    state = "{} outside [0, 1]"


@dataclass
class TinyNet:
    """Weights as a dict of arrays: w1 (8,3,3), b1 (8,), w2 (8,3,3), b2 (); with a run axis, (R,8,3,3) and so on."""

    params: dict[str, np.ndarray]

    @classmethod
    def init(cls, seed: int = 0, runs: int | None = None) -> "TinyNet":
        """The seed's weights; with ``runs``, stacked that many times on a leading run axis."""
        rng = np.random.default_rng([seed, 7])
        # He-style uniform: limit = sqrt(6 / fan_in)
        lim1 = np.sqrt(6.0 / (KSIZE * KSIZE * 1))
        lim2 = np.sqrt(6.0 / (KSIZE * KSIZE * HIDDEN_CHANNELS))
        params = {
            "w1": rng.uniform(-lim1, lim1, size=(HIDDEN_CHANNELS, KSIZE, KSIZE)),
            "b1": np.zeros(HIDDEN_CHANNELS),
            "w2": rng.uniform(-lim2, lim2, size=(HIDDEN_CHANNELS, KSIZE, KSIZE)),
            "b2": np.zeros(()),
        }
        if runs is not None:
            params = {k: np.repeat(v[None], runs, axis=0) for k, v in params.items()}
        return cls(params=params)

    @property
    def runs(self) -> int | None:
        """How many runs the weights stack, or None for one run's weights without a run axis."""
        b2 = self.params["b2"]
        return len(b2) if np.ndim(b2) else None


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


def _sum_images(per_image: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum over the image axis in image order (np.sum is pairwise over a 1-D axis), as an array."""
    # the ellipsis keeps a 1-D input's sum a 0-d array
    return np.cumsum(per_image, axis=axis)[(slice(None),) * axis + (-1, ...)]


def _stacked_taps(taps: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """The nine zero-padded taps of (..., H, W) maps, written into ``taps`` (..., 9, H, W) and viewed as
    (..., 9, H*W)."""
    flat, src = taps.reshape(*taps.shape[:-2], -1), maps.reshape(*maps.shape[:-2], -1)
    for k, (to, frm) in enumerate(_shifts(*maps.shape[-2:])):
        flat[..., k, :][to] = src[frm]
    # what the copies left out or wrapped in lies on the frame: the rows and columns off the image
    taps[..., :KSIZE, 0, :] = taps[..., -KSIZE:, -1, :] = 0.0
    taps[..., ::KSIZE, :, 0] = taps[..., KSIZE - 1 :: KSIZE, :, -1] = 0.0
    return flat


def _input_taps(taps: np.ndarray, images: np.ndarray) -> np.ndarray:
    """The nine taps of (b, H, W) images and a last row of ones, written into ``taps`` (b, 10, H, W) and viewed as
    (b, 10, H*W): ``[w1 | b1]`` multiplies them as one matrix, so the product adds b1 last, as ``w1 @ T + b1``."""
    _stacked_taps(taps[:, :TAPS], images)
    taps[:, TAPS] = 1.0  # on every chunk: nothing else keeps the buffer's rows
    return taps.reshape(*taps.shape[:2], -1)


def _chunk_buffers(x: np.ndarray, runs: int, step: bool, ws: list):
    """Images per run per chunk of x, runs per block, and ``ws`` as the buffers of at least its first (largest)
    chunk and block: the (b, 10, H, W) input taps and ones, the (rc, b, 9, H, W) taps of w2ᵀ @ h and then of dz2,
    and the (rc, b, 8, H*W) hidden maps and then dz1. A one-run forward writes w2ᵀ @ h over the input taps. The
    buffers are replaced when the images' shape changes or their chunk or block is larger."""
    hw = max(1, x[:1].size)
    # one image at least; every chunk reuses the buffers, as fresh buffers per chunk re-fault their pages
    b = max(1, min(len(x), CHUNK_PIXELS // hw))
    rc = max(1, min(runs, GROUP_PIXELS // (b * hw)))
    one_run_forward = not step and runs == 1
    # the taps hold the chunk's images and the hidden maps, before them, the block's runs
    if len(ws) != 3 - one_run_forward or ws[0].shape[0] < b or ws[0].shape[2:] != x.shape[1:] or len(ws[-1]) < rc:
        ws[:] = [np.empty((b, TAPS + 1, *x.shape[1:])),
                 *([] if one_run_forward else [np.empty((rc, b, TAPS, *x.shape[1:]))]),
                 np.empty((rc, b, HIDDEN_CHANNELS, hw))]
    if one_run_forward:
        return b, rc, (ws[0], ws[0][None, :, :TAPS], ws[1])
    return b, rc, ws


def _weights(params: dict[str, np.ndarray], rc: int, step: bool) -> list[tuple]:
    """The weights as the passes multiply by them, per block of ``rc`` runs: ``(sel, runs, [w1 | b1] (r, 1, 8, 10),
    w2ᵀ (r, 1, 9, 8), b2 (r, 1, 1, 1), w2 flipped (r, 1, 8, 9) for a step or None)``. ``sel`` slices the block's runs
    and ``runs`` is their range; the run axis is followed by a broadcast image axis."""
    n, out = len(params["b2"]), []
    w1b = np.concatenate([params["w1"].reshape(n, HIDDEN_CHANNELS, -1), params["b1"][..., None]], axis=-1)
    for r in range(0, n, rc):
        sel, runs = slice(r, r + rc), range(r, min(r + rc, n))
        ext = (len(runs), 1)
        w2 = params["w2"][sel].reshape(*ext, HIDDEN_CHANNELS, -1)
        # Backprop through "same" cross-correlation = cross-correlation with the 180-degree-flipped kernel, whose
        # flat taps are w2's in reverse order
        out.append((sel, runs, w1b[sel, None], w2.swapaxes(-1, -2), params["b2"][sel].reshape(*ext, 1, 1),
                    w2[..., ::-1].copy() if step else None))
    return out


def _one_run(net: TinyNet) -> TinyNet:
    """A net without a run axis as a stack of one run, on views of its weights; a stacked net as it is."""
    if net.runs is not None:
        return net
    return TinyNet({k: v[None] for k, v in net.params.items()})


def _hidden(w1b: np.ndarray, tb: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Hidden maps relu([w1 | b1] @ [T; 1]) of taps T and ones (b, 10, H*W) into ``h``, one matmul per run and
    image."""
    hb = np.matmul(w1b, tb, out=h)
    return np.maximum(hb, 0.0, out=hb)


def _output(w2t: np.ndarray, b2: np.ndarray, hb: np.ndarray, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The (…, H, W) chunk ``out`` from its hidden maps ``hb``, with the nine maps w2ᵀ @ h written into ``u``."""
    # U_k = sum_c w2[c, k] h_c. conv2 sums the nine flat U_k, each read through its tap's slices, centre first.
    flat, of = u.reshape(*u.shape[:-2], -1), out.reshape(*out.shape[:-2], -1)
    np.matmul(w2t, hb, out=flat)
    u[..., ::KSIZE, :, -1] = u[..., KSIZE - 1 :: KSIZE, :, 0] = 0.0  # the columns wrapped in add exact zeros
    of[...] = flat[..., _CENTRE, :]
    for k, (to, frm) in enumerate(_shifts(*out.shape[-2:])):
        if k != _CENTRE:
            of[to] += flat[..., k, :][frm]
    out += b2
    return _sigmoid(out, out=out)  # chunk by chunk, so its temporaries stay chunk-sized


def forward(net: TinyNet, image: np.ndarray) -> np.ndarray:
    """Predicted probability map for one (H, W) image or a (B, H, W) batch; per run on a leading axis for a net
    with a run axis. A net without one runs as a one-run stack, whose axis the map drops."""
    stack = _one_run(net)
    n = stack.runs
    x = _as_batch(image)
    b, rc, (t, u, h) = _chunk_buffers(x, n, False, [])
    p = np.empty((n, *x.shape))
    blocks = _weights(stack.params, rc, False)
    for s in range(0, len(x), b):
        rows, xs = slice(s, s + b), x[s : s + b]
        tb = _input_taps(t[: len(xs)], xs)
        for sel, runs, w1b, w2t, b2, _ in blocks:
            lim = (slice(len(runs)), slice(len(xs)))  # the chunk's buffers
            _output(w2t, b2, _hidden(w1b, tb, h[lim]), u[lim], p[sel, rows])
    p = p.reshape(n, *np.shape(image))
    return p if net.runs is not None else p[0]


def _by_weight(flat: np.ndarray, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Views of ``flat``, whose last axis holds every weight's values in ``shapes``' order, one per weight."""
    cuts = list(itertools.accumulate(math.prod(s) for s in shapes.values()))
    parts = np.split(flat, cuts[:-1], axis=-1)
    return {k: v.reshape((*flat.shape[:-1], *s)) for (k, s), v in zip(shapes.items(), parts)}


def _step(net: TinyNet, x: np.ndarray, upstream, ws: list) -> dict[str, np.ndarray]:
    """Weight gradients of (B, H, W) images x per run, summed over the images, from one pass per chunk on the same
    taps and hidden maps. ``upstream(runs, rows, p)`` is d(loss)/d(p) of ``x[rows]`` for a block of the net's runs,
    the range ``runs``, given their outputs p (runs, images, H, W): one call per chunk and block. The rows of a run
    that has stopped may hold anything: its gradients are then left undefined. ``ws`` holds the buffers."""
    n = net.runs
    b, rc, (t, d, h) = _chunk_buffers(x, n, True, ws)
    # per-image gradients: the 153 of a run and image in one row of `flat`, summed in image order at the end
    shapes = {"w1": (HIDDEN_CHANNELS, TAPS), "b1": (HIDDEN_CHANNELS,), "w2": (HIDDEN_CHANNELS, TAPS), "b2": ()}
    flat = np.empty((n, len(x), sum(math.prod(s) for s in shapes.values())))
    g = _by_weight(flat, shapes)
    blocks = _weights(net.params, rc, True)
    for s in range(0, len(x), b):
        rows, xs = slice(s, s + b), x[s : s + b]
        tb = _input_taps(t[: len(xs)], xs)
        for sel, runs, w1b, w2t, b2, w2f in blocks:
            at, lim = (sel, rows), (slice(len(runs)), slice(len(xs)))  # the chunk's gradients and buffers
            hb = _hidden(w1b, tb, h[lim])
            p = _output(w2t, b2, hb, d[lim], np.empty(hb.shape[:-2] + xs.shape[1:]))  # T is still needed
            dz2 = upstream(runs, rows, p) * p
            dz2 *= 1.0 - p
            db = _stacked_taps(d[lim], dz2)
            # Each image's products are its own matmul, so a batch sums what per-image calls return.
            np.matmul(hb, db.swapaxes(-1, -2), out=g["w2"][at])
            relu = hb > 0.0
            zb = np.matmul(w2f, db, out=hb)  # dz1 over the hidden maps, which only the ReLU mask still needs
            zb *= relu
            np.matmul(zb, tb[:, :TAPS].swapaxes(-1, -2), out=g["w1"][at])
            zb.sum(axis=-1, out=g["b1"][at])  # not the product's ones column: that would sum in another order
            dz2.sum(axis=(-2, -1), out=g["b2"][at])
    out = _by_weight(_sum_images(flat, 1), shapes)
    out["w2"] = out["w2"][..., ::-1]  # tap k of dz2 pairs with w2's tap 8 - k
    return {k: v.reshape(net.params[k].shape) for k, v in out.items()}


def backward(net: TinyNet, image: np.ndarray, upstream_grad: np.ndarray) -> dict[str, np.ndarray]:
    """Weight gradients given d(loss)/d(p_i) per output pixel, summed over the images of a non-empty batch; per run
    on a leading axis for a net with a run axis. A net without one runs as a one-run stack, whose axis they drop."""
    up = np.asarray(upstream_grad, dtype=np.float64)
    if up.shape != np.shape(image):
        raise ValueError(f"upstream grad shape {up.shape} != output shape {np.shape(image)}")
    x = _as_batch(image)
    if not len(x):
        raise ValueError("image batch must be non-empty")
    grads = _step(_one_run(net), x, lambda runs, rows, p: _as_batch(up)[rows], [])
    return grads if net.runs is not None else {k: v[0, ...] for k, v in grads.items()}


@dataclass
class AdamState:
    lr: float | np.ndarray = 1e-4  # stacked weights may take one rate per run, shape (R,)
    step: int = 0
    m: np.ndarray | None = None  # flat, as :func:`adam_step` makes them at the first step
    v: np.ndarray | None = None


def adam_step(state: AdamState, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
    """Standard bias-corrected Adam update, in place; a per-run rate steps each run of stacked weights. Every step's
    gradients, of the same weights, are one vector in sorted key order (per run for a per-run rate), as are ``m`` and
    ``v``; only the final subtraction is split back into the weights."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    lead = np.shape(state.lr)  # a per-run rate keeps the run axis
    shapes = {k: np.shape(grads[k])[len(lead) :] for k in sorted(grads)}
    g = np.concatenate([np.reshape(grads[k], (*lead, -1)) for k in shapes], axis=-1)
    if state.m is None:
        state.m, state.v = np.zeros_like(g), np.zeros_like(g)
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    step = copy_axes(state.lr, g) * (state.m / bc1) / (np.sqrt(state.v / bc2) + ADAM_EPS)
    for k, d in _by_weight(step, shapes).items():
        params[k] = params[k] - d


@dataclass(frozen=True)
class TrainConfig:
    """One run's settings. ``loss_fn`` is a built loss, as :func:`losses.make_loss` or :func:`adaptive.wrap_loss_fn`
    returns it (plain Dice by default): its options were checked then, so neither a config nor ``train`` builds one."""

    lr: float = 1e-4
    batch_size: int = 16
    max_epochs: int = 50
    loss_fn: Callable = make_loss("dice")
    seed: int = 0

    def __post_init__(self):
        _check_integers(self, "batch_size", "max_epochs", "seed")
        if not self.lr > 0:  # written so that nan fails
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (1 <= self.max_epochs <= 50):
            raise ValueError("max_epochs must be in [1, 50]")


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
    """Macro-averaged :data:`metrics.SCORES` at :func:`metrics.confusion`'s default threshold, plus pooled-pixel AUC
    inputs. For a net with a run axis, a list of them, one per run: each run of same-shaped images takes one forward
    pass and one confusion count for every run. A net without one runs as a one-run stack and gets its one item."""
    if not val_set:
        raise ValueError("validation set must be non-empty")
    bad = next((s for s in val_set if np.shape(s.mask) != np.shape(s.image)), None)
    if bad is not None:
        raise ValueError(f"shape mismatch: {np.shape(bad.image)} vs {np.shape(bad.mask)}")
    stack = _one_run(net)
    groups = [list(group) for _, group in itertools.groupby(val_set, key=lambda s: np.shape(s.image))]
    maps = [forward(stack, np.stack([s.image for s in group])) for group in groups]
    counts = [metrics.confusion(m, np.stack([s.mask for s in group]).view(Masks)) for m, group in zip(maps, groups)]
    per_image = metrics.ConfusionCounts(*(np.concatenate(f, axis=-1) for f in zip(*(vars(k).values() for k in counts))))
    means = {k: np.mean(v, axis=-1).tolist() for k, v in metrics.scores(per_image).items()}  # per run
    results = [({k: v[r] for k, v in means.items()}, [p for m in maps for p in m[r]]) for r in range(stack.runs)]
    return results if net.runs is not None else results[0]


def _shared_loss(split: list[tuple], p: np.ndarray, g) -> tuple[LossEval, dict[int, float]]:
    """The loss of runs that share a base loss, each given as the ``(base, params)`` of :func:`split_wrapped`, on
    their outputs p (runs, images, H, W): one value per run and image, or a scalar that stands for each. It takes
    one call of the base and one composition, which gives each wrapped run its own parameters and each plain run
    the identity; a lone run scores its (images, H, W) output as when it trains alone. Also returns, by row, each
    wrapped run whose base value left [0, 1], with its first such value; the loss of its row is left undefined."""
    base, params = split[0][0], tuple(q for _, q in split)
    if len(split) == 1:
        ev = base(p[0], g)
        try:
            return (ev if params[0] is None else _compose(ev, params[0])), {}
        except BaseValueOutOfRange as exc:
            return ev, {0: exc.value}
    ev = base(p, g)
    if all(q is None for q in params):
        return ev, {}
    try:
        return _compose(ev, RowParams.of(params)), {}
    except BaseValueOutOfRange as exc:  # those rows compose with the identity instead
        return _compose(ev, RowParams.of(tuple(None if i in exc.rows else q for i, q in enumerate(params)))), exc.rows


def train(configs, train_set, val_set) -> list[RunRecord | TrainingDiverged]:
    """Mini-batch Adam training; per-epoch validation at threshold 0.5.

    ``configs`` share a seed, a batch size and an epoch count, and train side by side on one net with a run axis
    (one config on a stack of one run). Returns, per config, its record or the :class:`TrainingDiverged` it
    would raise if trained alone: a run that diverges leaves the stack, and the others go on with the bits they
    would have alone. Each chunk and block of runs takes one finiteness check and one loss call per shared base
    loss (:func:`losses.loss_key`): plain and wrapped runs of one base share it, and the wrapper's composition
    gives each wrapped run its own parameters.
    """
    configs = list(configs)
    if not train_set or not val_set:
        raise ValueError("train and validation sets must be non-empty")
    if len({(c.seed, c.batch_size, c.max_epochs) for c in configs}) != 1:
        raise ValueError("train takes one or more configs that share seed, batch_size and max_epochs")
    seed, batch_size, max_epochs = configs[0].seed, configs[0].batch_size, configs[0].max_epochs
    # once: every loss call on a chunk's masks then skips the scan, and the final AUC takes masks of 0 and 1 only
    _check_masks(s.mask for s in (*train_set, *val_set))
    split = [split_wrapped(c.loss_fn) for c in configs]  # each config's base loss and wrapper parameters
    keys = [loss_key(base) for base, _ in split]
    net = TinyNet.init(seed=seed, runs=len(configs))
    opt = AdamState(lr=np.array([c.lr for c in configs]))
    live = list(range(len(configs)))  # the config of each run the net stacks
    out: list = [None] * len(configs)
    rows = [[] for _ in configs]

    def drop(failed: dict[int, TrainingDiverged]) -> list[int]:
        """Record the failed runs and take them off the stack; returns the stack rows kept."""
        keep = [r for r in range(len(live)) if r not in failed]
        for r, exc in failed.items():
            out[live[r]] = exc
        live[:] = [live[r] for r in keep]
        net.params, opt.lr = {k: v[keep] for k, v in net.params.items()}, opt.lr[keep]
        opt.m, opt.v = (None, None) if opt.m is None else (opt.m[keep], opt.v[keep])
        return keep

    n = len(train_set)
    ws = []  # the step's chunk buffers: allocated at the first (largest) batch, reused by every step of this call
    for epoch in range(max_epochs):
        order = np.random.default_rng([seed, 11, epoch]).permutation(n)
        epoch_losses = [[] for _ in configs]
        # a divergence is reported by the isfinite checks, not by numpy's overflow warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for b_idx, start in enumerate(range(0, n, batch_size)):
                batch = [train_set[i] for i in order[start : start + batch_size]]
                masks = np.stack([s.mask for s in batch]).view(_CheckedMasks)
                values = np.zeros((len(live), 1 + len(batch)))  # per run: 0.0, then the batch's loss values
                failed = {}

                def upstream(runs, chunk, p):  # runs are the block's stack rows
                    up, g = np.empty_like(p), masks[chunk]
                    # checked before a loss sees it, so plain and wrapped losses diverge the same way; a sigmoid output
                    # is NaN or in [0, 1], so a run's sum is finite exactly when its output is
                    finite = np.isfinite(np.add.reduce(p.reshape(len(p), -1), axis=1))
                    shared = {}  # base key -> the block rows of the live runs that score with that base
                    for i, r in enumerate(runs):
                        if r not in failed and not finite[i]:
                            failed[r] = TrainingDiverged(epoch, b_idx, "network output")
                        if r in failed:
                            up[i] = 0.0  # a stopped run's gradients are dropped
                        else:
                            shared.setdefault(keys[live[r]], []).append(i)
                    for idx in shared.values():
                        at = slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == len(idx) - 1 else idx  # a view if it can
                        ev, outside = _shared_loss([split[live[runs[i]]] for i in idx], p[at], g)
                        for j, value in outside.items():  # a wrapped base loss that is not confined to [0, 1]
                            failed[runs[idx[j]]] = _OutsideWrapper(epoch, b_idx, f"base loss value {value}")
                        values[runs.start : runs.stop, 1 + chunk.start : 1 + chunk.stop][at] = ev.value
                        up[at] = ev.grad / len(batch)
                    return up

                grads = _step(net, np.stack([s.image for s in batch]), upstream, ws)
                batch_loss = (_sum_images(values, 1) / len(batch)).tolist()  # each run's values added in image order
                for r in range(len(live)):
                    if r not in failed and not math.isfinite(batch_loss[r]):  # a finite p can still give 0/0
                        failed[r] = TrainingDiverged(epoch, b_idx, f"loss {batch_loss[r]}")
                if failed:
                    keep = drop(failed)
                    if not live:
                        return out
                    grads = {k: v[keep] for k, v in grads.items()}
                    batch_loss = [batch_loss[r] for r in keep]
                adam_step(opt, net.params, grads)
                for c, value in zip(live, batch_loss):
                    epoch_losses[c].append(value)
            results = dict(zip(live, evaluate(net, val_set)))
        failed = {r: TrainingDiverged(epoch, b_idx, "validation output") for r, c in enumerate(live)
                  if not all(np.isfinite(p).all() for p in results[c][1])}  # the epoch's last step diverged
        if failed:
            drop(failed)
            if not live:
                return out
        for c in live:
            means = {f"val_{k}": v for k, v in results[c][0].items()}
            rows[c].append(EpochRow(epoch, float(np.mean(epoch_losses[c])), **means))
    masks = [s.mask for s in val_set]
    for c in live:
        preds = results[c][1]
        try:
            auc = metrics.roc_auc(preds, masks).auc
        except metrics.UndefinedAUC:
            auc = float("nan")
        out[c] = RunRecord(epochs=rows[c], final_auc=auc, val_preds=preds, val_masks=masks)
    return out
