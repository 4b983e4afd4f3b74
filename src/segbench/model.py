"""Tiny convolutional pixel segmenter with manual backprop and Adam.

Architecture: 3x3 conv (1 -> 8 channels, zero-padded "same") -> ReLU ->
3x3 conv (8 -> 1) -> sigmoid.  Small enough that a full training run on
desk-scale synthetic data takes seconds, yet it learns blob segmentation.

All arithmetic is float64 numpy. Training is deterministic given the config seed (seeded init and shuffles).
Reductions are sequential sums or BLAS contractions, one per image. Bits repeat exactly on one host but depend on
its BLAS kernel and on numpy's SIMD exp and log; across hosts, the CSVs as printed are what is promised.

Every pass works on weights stacked on a leading run axis. Runs that share a batch size and an epoch count take
steps of the same sizes, so :func:`train` trains them side by side, whatever their seeds: each chunk's input taps
are stacked once per seed for that seed's runs, each run's products are still its own matrix products, and each
run gets the bits it would get alone. One config trains as a stack of one run, and :func:`forward`,
:func:`backward` and :func:`evaluate` run a net without a run axis as a one-run stack.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import metrics
from .adaptive import BaseValueOutOfRange, RowParams, _branches, split_wrapped
from .losses import Masks, _check_masks, _CheckedMasks, copy_axes, loss_key, make_loss
from .synthdata import _check_integers

HIDDEN_CHANNELS = 8
KSIZE = 3
TAPS = KSIZE * KSIZE
_CENTRE = TAPS // 2  # index of the unshifted tap
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Pixels per run per chunk of images. Per pixel of its chunk, a training step holds per seed the 9 input taps and a
# one (b1's row), shared by that seed's runs, and per run 17 floats: the 8 hidden maps (then dz1) and the 9 taps of
# dz2 (first the 9 maps w2ᵀ @ h); one run holds 27. A block whose runs mix seeds other than one per seed in seed
# order reads a gathered copy of their taps. A one-run forward call holds its output and one chunk's images, taps
# and hidden maps (w2ᵀ @ h overwrites the taps), so evaluate hands it every run of same-shaped images as a list.
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
    return np.divide(np.maximum(e, z >= 0), 1.0 + e, out=out)  # 1 where z >= 0, as e <= 1; NaN passes through


def _as_batch(image) -> tuple:
    """One (H, W) image or a (B, H, W) batch as a (B, H, W) float64 view, or a list of arrays of one 2-D shape as
    itself, whose chunks the caller stacks one at a time; and the shape the images came in."""
    if isinstance(image, list) and len({np.shape(a) for a in image}) == 1 and np.ndim(image[0]) == 2:
        return image, (len(image), *np.shape(image[0]))
    image = np.asarray(image, dtype=np.float64)
    if image.ndim not in (2, 3):
        raise ValueError("image must be 2-D (H, W) or 3-D (B, H, W)")
    return image.reshape((-1,) + image.shape[-2:]), image.shape


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
    """The nine taps of (..., b, H, W) images and a last row of ones, written into ``taps`` (..., b, 10, H, W) and
    viewed as (..., b, 10, H*W): ``[w1 | b1]`` multiplies them as one matrix, so the product adds b1 last, as
    ``w1 @ T + b1``."""
    _stacked_taps(taps[..., :TAPS, :, :], images)
    taps[..., TAPS, :, :] = 1.0  # on every chunk: nothing else keeps the buffer's rows
    return taps.reshape(*taps.shape[:-2], -1)


def _chunk_buffers(shape: tuple, runs: int, step: bool, ws: list):
    """Images per run per chunk of (..., B, H, W) images of that ``shape``, runs per block, and ``ws`` as the buffers
    of at least its first (largest) chunk and block: the (..., b, 10, H, W) input taps and ones, the (rc, b, 9, H, W)
    taps of w2ᵀ @ h and then of dz2, and the (rc, b, 8, H*W) hidden maps and then dz1. A one-run forward writes
    w2ᵀ @ h over the input taps. The buffers are replaced when the images' shape or leading axes change or their
    chunk or block is larger."""
    lead, img = shape[:-3], shape[-2:]
    hw = math.prod(img) if math.prod(shape) else 1
    # one image at least; every chunk reuses the buffers, as fresh buffers per chunk re-fault their pages
    b = max(1, min(shape[-3], CHUNK_PIXELS // hw))
    rc = max(1, min(runs, GROUP_PIXELS // (b * hw)))
    one_run_forward = not step and runs == 1
    # the taps hold the chunk's images and the hidden maps, before them, the block's runs
    if (len(ws) != 3 - one_run_forward or ws[0].shape[:-4] != lead or ws[0].shape[-4] < b
            or ws[0].shape[-2:] != img or len(ws[-1]) < rc):
        ws[:] = [np.empty((*lead, b, TAPS + 1, *img)),
                 *([] if one_run_forward else [np.empty((rc, b, TAPS, *img))]),
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


def _hidden_maps(net: TinyNet, x, shape: tuple, step: bool, ws: list, seed_of=None):
    """The chunk loop of :func:`forward` and :func:`_step`: per chunk of images x of ``shape`` (..., B, H, W), a list
    stacked one chunk at a time, and block of the net's runs, ``(at, runs, tk, hb, u, w2t, b2, w2f)``: ``at`` indexes
    the block's runs and the chunk's images, ``runs`` is the runs' range, tk and hb the input taps and hidden maps, u
    the buffer for w2ᵀ @ h, and the rest :func:`_weights`'. Of (seeds, B, H, W) images, a run reads its seed index
    ``seed_of[run]``'s taps. ``ws`` holds the buffers."""
    b, rc, (t, u, h) = _chunk_buffers(shape, net.runs, step, ws)
    blocks = [(_seed_taps(seed_of[sel]) if len(shape) == 4 else ..., sel, *rest)
              for sel, *rest in _weights(net.params, rc, step)]
    for s in range(0, shape[-3], b):
        rows = slice(s, s + b)
        xs = np.asarray(x[rows], dtype=np.float64) if isinstance(x, list) else x[..., rows, :, :]
        size = xs.shape[-3]
        tb = _input_taps(t[..., :size, :, :, :], xs)
        for pick, sel, runs, w1b, w2t, b2, w2f in blocks:
            lim, tk = (slice(len(runs)), slice(size)), tb[pick]  # the chunk's buffers; the block's taps
            yield (sel, rows), runs, tk, _hidden(w1b, tk, h[lim]), u[lim], w2t, b2, w2f


def forward(net: TinyNet, image: np.ndarray) -> np.ndarray:
    """Predicted probability map for one (H, W) image, a (B, H, W) batch or a list of B same-shaped (H, W) arrays,
    which it stacks one chunk at a time; per run on a leading axis for a net with a run axis. A net without one
    runs as a one-run stack, whose axis the map drops."""
    stack = _one_run(net)
    x, shape = _as_batch(image)
    p = np.empty((stack.runs, len(x), *shape[-2:]))
    for at, _, _, hb, u, w2t, b2, _ in _hidden_maps(stack, x, (len(x), *shape[-2:]), False, []):
        _output(w2t, b2, hb, u, p[at])
    p = p.reshape(stack.runs, *shape)
    return p if net.runs is not None else p[0]


def _by_weight(flat: np.ndarray, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Views of ``flat``, whose last axis holds every weight's values in ``shapes``' order, one per weight."""
    cuts = list(itertools.accumulate(math.prod(s) for s in shapes.values()))
    parts = np.split(flat, cuts[:-1], axis=-1)
    return {k: v.reshape((*flat.shape[:-1], *s)) for (k, s), v in zip(shapes.items(), parts)}


def _seed_taps(seeds: list[int]):
    """What reads a block's input taps from a chunk's (seeds, b, 10, H*W), given its runs' seed indices: a view of
    one seed's taps, which every run reads, or of consecutive seeds' taps, one per run; any other mix a gathered
    copy."""
    if len(set(seeds)) == 1:
        return seeds[0]
    if seeds == list(range(seeds[0], seeds[0] + len(seeds))):
        return slice(seeds[0], seeds[0] + len(seeds))
    return seeds


def _step(net: TinyNet, x: np.ndarray, upstream, ws: list, seed_of=None) -> dict[str, np.ndarray]:
    """Weight gradients of (B, H, W) images x per run, summed over the images, from one pass per chunk and block of
    :func:`_hidden_maps` on its taps and hidden maps; for (seeds, B, H, W) images x, each run takes those of its seed
    index ``seed_of[run]``. ``upstream(runs, rows, p)`` is d(loss)/d(p) of the images ``rows`` for a block of the
    net's runs, the range ``runs``, given their outputs p (runs, images, H, W): one call per chunk and block. The rows
    of a run that has stopped may hold anything: its gradients are then left undefined. ``ws`` holds the buffers."""
    # per-image gradients: the 153 of a run and image in one row of `flat`, summed in image order at the end
    shapes = {"w1": (HIDDEN_CHANNELS, TAPS), "b1": (HIDDEN_CHANNELS,), "w2": (HIDDEN_CHANNELS, TAPS), "b2": ()}
    flat = np.empty((net.runs, x.shape[-3], sum(math.prod(s) for s in shapes.values())))
    g = _by_weight(flat, shapes)
    for at, runs, tk, hb, d, w2t, b2, w2f in _hidden_maps(net, x, x.shape, True, ws, seed_of):
        p = _output(w2t, b2, hb, d, np.empty(hb.shape[:-2] + x.shape[-2:]))  # T is still needed
        dz2 = upstream(runs, at[1], p) * p
        dz2 *= 1.0 - p
        db = _stacked_taps(d, dz2)
        # Each image's products are its own matmul, so a batch sums what per-image calls return.
        np.matmul(hb, db.swapaxes(-1, -2), out=g["w2"][at])
        relu = hb > 0.0
        zb = np.matmul(w2f, db, out=hb)  # dz1 over the hidden maps, which only the ReLU mask still needs
        zb *= relu
        np.matmul(zb, tk[..., :TAPS, :].swapaxes(-1, -2), out=g["w1"][at])
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
    x = np.asarray(_as_batch(image)[0], dtype=np.float64)
    if not len(x):
        raise ValueError("image batch must be non-empty")
    grads = _step(_one_run(net), x, lambda runs, rows, p: up.reshape(x.shape)[rows], [])
    return grads if net.runs is not None else {k: v[0, ...] for k, v in grads.items()}


@dataclass
class AdamState:
    lr: float | np.ndarray = 1e-4  # stacked weights may take one rate per run, shape (R,)
    step: int = 0
    m: np.ndarray | None = None  # flat (per run for a per-run rate); None is zeros of the first step's shape
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
    val_preds: list[np.ndarray]  # from the final epoch
    val_masks: list[np.ndarray]

    @functools.cached_property
    def final_auc(self) -> float:
        """The pooled-pixel ROC-AUC of the final epoch's validation output, worked out when first read: nan when
        the validation masks hold one class only."""
        try:
            return metrics.roc_auc(self.val_preds, self.val_masks).auc
        except metrics.UndefinedAUC:
            return float("nan")


def evaluate(net: TinyNet, val_set, runs=None):
    """Macro-averaged :data:`metrics.SCORES` at :func:`metrics.confusion`'s default threshold, plus pooled-pixel AUC
    inputs. For a net with a run axis, a list of them, one per item of ``runs`` (by default each run once, in order),
    each scoring that run of the stack: each run of same-shaped images takes one forward pass, which stacks one chunk
    of their images at a time, and one confusion count for every run, and each run's counts are scored once per item
    that names it, one score at a time for every item and image, so the warnings come score by score. A net without
    one runs as a one-run stack and gets its one item."""
    if not val_set:
        raise ValueError("validation set must be non-empty")
    bad = next((s for s in val_set if np.shape(s.mask) != np.shape(s.image)), None)
    if bad is not None:
        raise ValueError(f"shape mismatch: {np.shape(bad.image)} vs {np.shape(bad.mask)}")
    stack = _one_run(net)
    runs = list(range(stack.runs) if runs is None else runs)
    groups = [list(group) for _, group in itertools.groupby(val_set, key=lambda s: np.shape(s.image))]
    maps = [forward(stack, [s.image for s in group]) for group in groups]  # forward stacks one chunk at a time
    counts = [metrics.confusion(m, np.stack([s.mask for s in group]).view(Masks)) for m, group in zip(maps, groups)]
    per_image = metrics.ConfusionCounts(*(np.concatenate(f, axis=-1)[runs]
                                          for f in zip(*(vars(k).values() for k in counts))))
    means = {k: np.mean(score(per_image), axis=-1).tolist() for k, score in metrics.SCORES.items()}  # per item
    results = [({k: v[i] for k, v in means.items()}, [p for m in maps for p in m[r]]) for i, r in enumerate(runs)]
    return results if net.runs is not None else results[0]


def _shared_loss(split: list[tuple], rows: list[int], p: np.ndarray, g: Masks) -> tuple:
    """The loss of runs that share a base loss, on the outputs p (rows, images, H, W) of their stack rows and each
    row's masks g of p's shape: per run, in row order, its ``(base, params)`` of :func:`split_wrapped` and its row of
    p. One call of the base on rows x images as the images of one :class:`Masks` stack (for one row, the call its run
    makes alone), then one :func:`adaptive._branches` through :class:`RowParams` (a plain run gets the identity's,
    whose ``x - 0.0`` and slope 1.0 are exact), and one more if a wrapped run left [0, 1]. Returns the runs' values
    (runs, images), or (runs, 1) from a base that gives one value per call; p's upstream gradient, each row's scaled
    by the slope of its first run in range; by run, each wrapped run that left [0, 1], with its first such value; and
    by row, when its runs' slopes differ, its runs of each slope in turn: the row's gradient is then left undefined."""
    base, params = split[0][0], tuple(q for _, q in split)
    per_image = base(p.reshape(-1, *p.shape[2:]), g.reshape(-1, *g.shape[2:]))
    value, grad = per_image.value, per_image.grad.reshape(p.shape)
    if np.ndim(value):
        value = value.reshape(p.shape[:2])[rows]
    try:
        outside, (value, slope) = {}, _branches(value, RowParams.of(params))
    except BaseValueOutOfRange as exc:  # those runs compose with the identity instead
        outside = exc.rows
        value, slope = _branches(value, RowParams.of(tuple(None if i in outside else q for i, q in enumerate(params))))
    slopes = {}  # row -> slope bytes -> the runs in range with that slope
    for i, j in enumerate(rows):
        if i not in outside:
            slopes.setdefault(j, {}).setdefault(slope[i].tobytes(), []).append(i)
    # a row with no run in range is leaving the stack: any of its runs' slopes will do
    first = [next(iter(slopes[j].values()))[0] if j in slopes else rows.index(j) for j in range(len(p))]
    return (value, copy_axes(slope[first], grad) * grad, outside,
            {j: list(c.values()) for j, c in slopes.items() if len(c) > 1})


def train(configs, train_set, val_set) -> list[RunRecord | TrainingDiverged]:
    """Mini-batch Adam training; per-epoch validation at threshold 0.5.

    ``configs`` share a batch size and an epoch count, and train side by side on one net with a run axis (one
    config on a stack of one run); configs of different seeds, or a batch size above 1, need training images of one
    shape. Each stack row carries its seed: it starts from that seed's weights, and each epoch and step takes that
    seed's batch. Returns, per config, its record or the :class:`TrainingDiverged` it would raise if trained alone: a
    run that diverges leaves the stack, and the others go on with the bits they would have alone. Configs that share
    a seed, an ``lr`` and a base loss (:func:`losses.loss_key`) start on one row of the stack, which trains their one
    trajectory while their upstream gradients are equal, that is while their wrapper slopes are equal on every
    image (a plain run's slope is 1, as is the linear branch's). A step where they differ is rerun with the row
    copied once per slope. The seeds that still have a row are read from the rows at each batch: each chunk builds
    their input taps once, as a one-seed call does when one seed is left. Each chunk and block of rows takes one
    finiteness check and one loss call per shared base loss, on each row's own masks, and the wrapper's composition
    gives each wrapped run its own parameters. Validation and Adam take one call for every row. No AUC is worked
    out here: a record works out its final AUC when it is first read (:attr:`RunRecord.final_auc`).
    """
    configs = list(configs)
    if not train_set or not val_set:
        raise ValueError("train and validation sets must be non-empty")
    if len({(c.batch_size, c.max_epochs) for c in configs}) != 1:
        raise ValueError("train takes one or more configs that share batch_size and max_epochs")
    seeds = list(dict.fromkeys(c.seed for c in configs))
    batch_size, max_epochs = configs[0].batch_size, configs[0].max_epochs
    if len({np.shape(s.image) for s in train_set}) > 1 and (len(seeds) > 1 or batch_size > 1):
        raise ValueError("configs of different seeds need training images of one shape, as does a batch size above 1")
    # once: every loss call on a chunk's masks then skips the scan, and a record's final AUC reads masks of 0 and 1
    _check_masks(s.mask for s in (*train_set, *val_set))
    split = [split_wrapped(c.loss_fn) for c in configs]  # each config's base loss and wrapper parameters
    keys = [loss_key(base) for base, _ in split]
    members = {}  # the configs of each row the net stacks, in config order
    for c, (config, key) in enumerate(zip(configs, keys)):
        members.setdefault((config.seed, config.lr, key), []).append(c)
    members = list(members.values())
    weights = {seed: TinyNet.init(seed).params for seed in seeds}
    net = TinyNet({k: np.stack([weights[configs[ms[0]].seed][k] for ms in members]) for k in weights[seeds[0]]})
    moments = (len(members), sum(v[0].size for v in net.params.values()))  # Adam's flat m and v, zero per row
    opt = AdamState(lr=np.array([configs[ms[0]].lr for ms in members]), m=np.zeros(moments), v=np.zeros(moments))
    out: list = [None] * len(configs)
    epoch_rows = [[] for _ in configs]

    def restack(rows: list[tuple[int, list[int]]]) -> list[int]:
        """Stack, per ``(row, configs)`` of ``rows``, a copy of that row with those configs; returns the rows."""
        index = [r for r, _ in rows]
        members[:], net.params = [ms for _, ms in rows], {k: v[index] for k, v in net.params.items()}
        opt.lr, opt.m, opt.v = opt.lr[index], opt.m[index], opt.v[index]
        return index

    def drop(failed: dict[int, TrainingDiverged]) -> list[int]:
        """Record the failed configs and take them off the stack; returns the stack rows kept."""
        for c, exc in failed.items():
            out[c] = exc
        kept = [(r, [c for c in ms if c not in failed]) for r, ms in enumerate(members)]
        return restack([(r, ms) for r, ms in kept if ms])

    def upstream(runs, chunk, p):  # runs are the block's stack rows
        up = np.empty_like(p)
        # checked before a loss sees it, so plain and wrapped losses diverge the same way; a sigmoid output is NaN
        # or in [0, 1], so a row's sum is finite exactly when its output is
        finite = np.isfinite(np.add.reduce(p.reshape(len(p), -1), axis=1))
        shared = {}  # base key -> the block rows of the rows that have a live config
        for i, r in enumerate(runs):
            for c in members[r] if not finite[i] else ():
                failed.setdefault(c, TrainingDiverged(epoch, b_idx, "network output"))
            if all(c in failed for c in members[r]):
                up[i] = 0.0  # a stopped row's gradients are dropped
            else:
                shared.setdefault(keys[members[r][0]], []).append(i)
        for idx in shared.values():
            at = slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == len(idx) - 1 else idx  # a view if it can
            cs, at_rows = zip(*((c, j) for j, i in enumerate(idx) for c in members[runs[i]] if c not in failed))
            g = masks[:, chunk][[seed_of[runs[i]] for i in idx]]  # each row's masks of the chunk
            value, grad, outside, slopes = _shared_loss([split[c] for c in cs], list(at_rows), p[at], g)
            for k, v in outside.items():  # a wrapped base loss that is not confined to [0, 1]
                failed[cs[k]] = _OutsideWrapper(epoch, b_idx, f"base loss value {v}")
            for j, classes in slopes.items():  # the first part takes the row's failed configs too
                r, parts = runs[idx[j]], [[cs[k] for k in ks] for ks in classes]
                rest = set(itertools.chain(*parts[1:]))
                splits.setdefault(r, [[c for c in members[r] if c not in rest], *parts[1:]])
            values[list(cs), 1 + chunk.start : 1 + chunk.stop] = value
            up[at] = grad / m
        return up

    n = len(train_set)
    ws = []  # the step's chunk buffers: allocated at the first (largest) batch, reused by every step of this call
    for epoch in range(max_epochs):
        orders = {seed: np.random.default_rng([seed, 11, epoch]).permutation(n)  # per seed that has a row
                  for seed in {configs[ms[0]].seed for ms in members}}
        epoch_losses = [[] for _ in configs]
        # a divergence is reported by the isfinite checks, not by numpy's overflow warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for b_idx, start in enumerate(range(0, n, batch_size)):
                live = sorted({configs[ms[0]].seed for ms in members}, key=seeds.index)  # the seeds with a row
                batch = [train_set[i] for seed in live for i in orders[seed][start : start + batch_size]]
                m = len(batch) // len(live)  # images per seed
                shape = (len(live), m, *np.shape(batch[0].image))  # per seed, its batch
                images = np.stack([s.image for s in batch]).reshape(shape)
                masks = np.stack([s.mask for s in batch]).reshape(shape).view(_CheckedMasks)
                while True:  # a step where a row's configs part is rerun, with one row more at least
                    values = np.zeros((len(configs), 1 + m))  # per config: 0.0, then the batch's loss values
                    failed, splits = {}, {}  # by config; by row, its configs of each slope
                    seed_of = [live.index(configs[ms[0]].seed) for ms in members]  # each row's seed index
                    # one seed's images without the seed axis, so every block reads its taps as they are
                    grads = _step(net, images if len(live) > 1 else images[0], upstream, ws, seed_of)
                    if not splits:
                        break
                    restack([(r, part) for r, ms in enumerate(members) for part in splits.get(r, [ms])])
                batch_loss = (_sum_images(values, 1) / m).tolist()  # each config's values in image order
                for c in itertools.chain(*members):
                    if c not in failed and not math.isfinite(batch_loss[c]):  # a finite p can still give 0/0
                        failed[c] = TrainingDiverged(epoch, b_idx, f"loss {batch_loss[c]}")
                if failed:
                    keep = drop(failed)
                    if not members:
                        return out
                    grads = {k: v[keep] for k, v in grads.items()}
                adam_step(opt, net.params, grads)
                for c in itertools.chain(*members):
                    epoch_losses[c].append(batch_loss[c])
            row_of = {c: r for r, ms in enumerate(members) for c in ms}
            results = dict(zip(sorted(row_of), evaluate(net, val_set, [row_of[c] for c in sorted(row_of)])))
        failed = {c: TrainingDiverged(epoch, b_idx, "validation output") for ms in members
                  if not all(np.isfinite(p).all() for p in results[ms[0]][1]) for c in ms}  # the last step diverged
        if failed:
            drop(failed)
            if not members:
                return out
        for c in itertools.chain(*members):
            means = {f"val_{k}": v for k, v in results[c][0].items()}
            epoch_rows[c].append(EpochRow(epoch, float(np.mean(epoch_losses[c])), **means))
    masks = [s.mask for s in val_set]
    for c in itertools.chain(*members):
        out[c] = RunRecord(epochs=epoch_rows[c], val_preds=results[c][1], val_masks=masks)
    return out
