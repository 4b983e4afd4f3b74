"""Differentiable binary-segmentation losses with analytic gradients.

Every loss takes a predicted probability map ``p`` (floats in [0, 1]) and a
ground-truth mask ``g`` (values in {0, 1}), and returns a :class:`LossEval`
carrying the loss and d(loss)/d(p_i) for every pixel.  ``p`` may carry leading
copy axes, ``p.shape == (*copies, *g.shape)``: each copy is scored against the
same ``g`` over ``g``'s axes, and the value is an array of shape ``copies``,
one per copy.  Without copy axes the value is a Python float.  A stacked call
and one call per copy run the same numpy operations, so they agree bit for
bit.  Averaging over a batch of images is the caller's job.

Set cardinalities are soft-relaxed (|G ∩ P| -> sum g_i * p_i) so gradients
exist, and overlap losses take a smoothing constant to avoid 0/0 on empty
masks.
"""

from __future__ import annotations

import inspect
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

# Clamp for probabilities entering a log; keeps loss and gradient finite.
PROB_CLIP = 1e-7

DEFAULT_SMOOTH = 1e-6

# Pixels per perturbed-copy array in one finite_difference_grad call: sets how
# many copies share a loss call, and so the size of each loss temporary.
FD_BLOCK = 4096


class DegenerateDenominator(ValueError):
    """Overlap loss denominator is zero (empty masks with smooth=0)."""


@dataclass
class LossEval:
    """Loss value (a float, or one per copy) plus its gradient w.r.t. every predicted pixel."""

    value: float | np.ndarray
    grad: np.ndarray


@dataclass(frozen=True)
class TverskyParams:
    """Asymmetric error weights: alpha on false negatives, beta on false positives."""

    alpha: float = 0.7
    beta: float = 0.3

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta == 0:
            raise ValueError(f"invalid Tversky weights alpha={self.alpha}, beta={self.beta}")


@dataclass(frozen=True)
class FocalParams:
    alpha_balance: float = 1.0
    gamma_focus: float = 2.0

    def __post_init__(self):
        if not (0 < self.alpha_balance <= 1):
            raise ValueError(f"alpha_balance must be in (0, 1], got {self.alpha_balance}")
        if self.gamma_focus < 0:
            raise ValueError(f"gamma_focus must be >= 0, got {self.gamma_focus}")


@dataclass(frozen=True)
class ComboParams:
    """mix weights the cross-entropy term; (1 - mix) weights the Dice term."""

    mix: float = 0.5

    def __post_init__(self):
        if not (0 <= self.mix <= 1):
            raise ValueError(f"mix must be in [0, 1], got {self.mix}")


def _check_pair(p: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Validate once per call; return ``p`` as ``(*copies, g.size)`` rows, ``g`` flat, ``p.shape``."""
    p = np.asarray(p, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    lead = p.ndim - g.ndim
    if lead < 0 or p.shape[lead:] != g.shape:
        raise ValueError(f"shape mismatch: prediction {p.shape} vs mask {g.shape}")
    if p.size == 0:
        raise ValueError("empty input")
    if np.min(p) < 0 or np.max(p) > 1:
        raise ValueError("predicted probabilities must lie in [0, 1]")
    if not np.all((g == 0) | (g == 1)):
        raise ValueError("mask values must be exactly 0 or 1")
    return p.reshape(*p.shape[:lead], g.size), g.ravel(), p.shape


def _check_overlap(p, g, smooth: float) -> tuple[np.ndarray, np.ndarray, tuple]:
    """:func:`_check_pair` plus the smoothing rules every overlap loss shares."""
    p, g, shape = _check_pair(p, g)
    if smooth < 0:
        raise ValueError(f"smooth must be >= 0, got {smooth}")
    if smooth == 0 and np.sum(g) == 0:
        raise DegenerateDenominator("empty ground-truth mask with smooth=0")
    return p, g, shape


def _row_sum(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(x, axis=-1, keepdims=True)  # np.sum's reduction, without its dispatch


def copy_axes(x, grad: np.ndarray) -> np.ndarray:
    """A per-copy ``x`` (a float, or one value per copy) shaped to broadcast against ``grad``."""
    return np.reshape(x, np.shape(x) + (1,) * (grad.ndim - np.ndim(x)))


def _eval(value: np.ndarray, grad: np.ndarray, shape: tuple) -> LossEval:
    # value rows are (*copies, 1); without copies the value is a Python float
    value = value[..., 0]
    return LossEval(float(value) if value.ndim == 0 else value, grad.reshape(shape))


def _quotient_loss(num, denom, d_num, d_denom, shape: tuple) -> LossEval:
    """1 - num/denom, with d/dp_i by the quotient rule from each pixel's d num and d denom."""
    return _eval(1.0 - num / denom, -(d_num * denom - num * d_denom) / (denom * denom), shape)


def soft_dice_loss(p, g, smooth: float = DEFAULT_SMOOTH) -> LossEval:
    """1 - (2 sum(g*p) + s) / (sum(g) + sum(p) + s)."""
    p, g, shape = _check_overlap(p, g, smooth)
    inter = _row_sum(g * p)
    denom = np.sum(g) + _row_sum(p) + smooth
    return _quotient_loss(2.0 * inter + smooth, denom, 2.0 * g, 1.0, shape)


def soft_jaccard_loss(p, g, smooth: float = DEFAULT_SMOOTH) -> LossEval:
    """1 - (sum(g*p) + s) / (sum(g) + sum(p) - sum(g*p) + s)."""
    p, g, shape = _check_overlap(p, g, smooth)
    inter = _row_sum(g * p)
    denom = np.sum(g) + _row_sum(p) - inter + smooth
    return _quotient_loss(inter + smooth, denom, g, 1.0 - g, shape)


def tversky_loss(p, g, tp: TverskyParams = TverskyParams(), smooth: float = DEFAULT_SMOOTH) -> LossEval:
    """1 - (TP + s) / (TP + alpha*FN + beta*FP + s) with soft TP/FN/FP."""
    p, g, shape = _check_overlap(p, g, smooth)
    inter = _row_sum(g * p)
    fn = _row_sum(g * (1.0 - p))
    fp = _row_sum((1.0 - g) * p)
    denom = inter + tp.alpha * fn + tp.beta * fp + smooth
    return _quotient_loss(inter + smooth, denom, g, g - tp.alpha * g + tp.beta * (1.0 - g), shape)


def focal_loss(p, g, fp: FocalParams = FocalParams()) -> LossEval:
    """Mean of -alpha * (1 - p_t)^gamma_focus * ln(p_t), p_t = p where g=1 else 1-p."""
    p, g, shape = _check_pair(p, g)
    pc = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    clamped = pc != p
    pt = np.where(g == 1, pc, 1.0 - pc)
    a, gf = fp.alpha_balance, fp.gamma_focus
    one_minus = 1.0 - pt
    value = np.mean(-a * one_minus**gf * np.log(pt), axis=-1, keepdims=True)
    # d/dpt of -a (1-pt)^gf ln(pt); dpt/dp = +1 where g=1, -1 where g=0. At gf = 0 the
    # first term is -0.0 (pt is clipped below 1), so d_pt is exactly -a / pt.
    d_pt = a * gf * one_minus ** (gf - 1.0) * np.log(pt) - a * one_minus**gf / pt
    grad = np.where(g == 1, d_pt, -d_pt) / g.size
    grad = np.where(clamped, 0.0, grad)
    return _eval(value, grad, shape)


def bce_loss(p, g) -> LossEval:
    """Mean binary cross-entropy with probability clipping."""
    p, g, shape = _check_pair(p, g)
    pc = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    clamped = pc != p
    value = np.mean(-(g * np.log(pc) + (1.0 - g) * np.log(1.0 - pc)), axis=-1, keepdims=True)
    grad = -(g / pc - (1.0 - g) / (1.0 - pc)) / g.size
    grad = np.where(clamped, 0.0, grad)
    return _eval(value, grad, shape)


def combo_loss(p, g, cp: ComboParams = ComboParams(), smooth: float = DEFAULT_SMOOTH) -> LossEval:
    """mix * mean-BCE + (1 - mix) * soft Dice loss."""
    bce = bce_loss(p, g)
    dice = soft_dice_loss(p, g, smooth)
    value = cp.mix * bce.value + (1.0 - cp.mix) * dice.value
    grad = cp.mix * bce.grad + (1.0 - cp.mix) * dice.grad
    return LossEval(value, grad)


def focal_tversky_loss(
    p, g, tp: TverskyParams = TverskyParams(), ft_gamma: float = 4.0 / 3.0, smooth: float = DEFAULT_SMOOTH
) -> LossEval:
    """(1 - Tversky index)^(1/ft_gamma), gradient via chain rule."""
    if ft_gamma <= 0:
        raise ValueError(f"ft_gamma must be > 0, got {ft_gamma}")
    base = tversky_loss(p, g, tp, smooth)
    v = np.asarray(base.value)
    expo = 1.0 / ft_gamma
    # at its exact minimum a copy's one-sided slope is unbounded (expo < 1): take the subgradient 0
    at_min = v == 0.0
    slope = expo * np.where(at_min, 1.0, v) ** (expo - 1.0)
    grad = np.where(copy_axes(at_min, base.grad), 0.0, copy_axes(slope, base.grad) * base.grad)
    value = v**expo
    return LossEval(float(value) if value.ndim == 0 else value, grad)


def finite_difference_grad(loss_fn, p, g, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient estimate of ``loss_fn(p, g).value``.

    Pixels too close to 0 or 1 for a symmetric perturbation to stay in [0, 1]
    fall back to a one-sided difference.

    ``loss_fn`` is called once per block of pixels, with a ``(2, k, *p.shape)``
    stack: the k up-perturbed copies of ``p`` then the k down-perturbed ones.
    It returns one value per copy, shape ``(2, k)``, as every loss here does,
    or a scalar, which stands for every copy.
    """
    if not (0 < step <= 0.5):
        raise ValueError("step must be in (0, 0.5]")  # above 0.5 neither side may stay in [0, 1]
    p = np.asarray(p, dtype=np.float64)
    flat = p.ravel()
    n = flat.size
    up, down = flat + step <= 1.0, flat - step >= 0.0
    sides = np.stack([np.where(up, flat + step, flat), np.where(down, flat - step, flat)])
    width = np.where(up & down, 2.0 * step, step)
    out = np.zeros_like(flat)
    k = max(1, FD_BLOCK // max(n, 1))
    for i in range(0, n, k):
        j = min(i + k, n)
        copy = np.arange(j - i)
        block = np.broadcast_to(flat, (2, j - i, n)).copy()
        block[:, copy, i + copy] = sides[:, i:j]
        f = np.broadcast_to(loss_fn(block.reshape(2, j - i, *p.shape), g).value, (2, j - i))
        out[i:j] = (f[0] - f[1]) / width[i:j]
    return out.reshape(p.shape)


# Builders take every option their selector reads and return loss_fn(p, g), which looks
# its kernel up by module-level name at call time, so rebinding a kernel takes effect.


def _tversky(smooth, tversky_alpha, tversky_beta):
    tp = TverskyParams(tversky_alpha, tversky_beta)
    return lambda p, g: tversky_loss(p, g, tp, smooth)


def _focal(focal_alpha, focal_gamma):
    fp = FocalParams(focal_alpha, focal_gamma)
    return lambda p, g: focal_loss(p, g, fp)


def _combo(smooth, mix):
    cp = ComboParams(mix)
    return lambda p, g: combo_loss(p, g, cp, smooth)


def _focal_tversky(smooth, tversky_alpha, tversky_beta, ft_gamma):
    tp = TverskyParams(tversky_alpha, tversky_beta)
    if ft_gamma <= 0:
        raise ValueError(f"ft_gamma must be > 0, got {ft_gamma}")
    return lambda p, g: focal_tversky_loss(p, g, tp, ft_gamma, smooth)


# options: the option names a selector reads -> default; build(**options) -> loss_fn
LossSpec = namedtuple("LossSpec", ["options", "build"])

_SMOOTH = {"smooth": DEFAULT_SMOOTH}
_TVERSKY = {**_SMOOTH, "tversky_alpha": TverskyParams.alpha, "tversky_beta": TverskyParams.beta}
_FOCAL = {"focal_alpha": FocalParams.alpha_balance, "focal_gamma": FocalParams.gamma_focus}
_FT_GAMMA = inspect.signature(focal_tversky_loss).parameters["ft_gamma"].default

# The loss set.  Option names double as CLI flags, config keys and
# TrainConfig.loss_params keys.
LOSSES = {
    "jaccard": LossSpec(_SMOOTH, lambda smooth: lambda p, g: soft_jaccard_loss(p, g, smooth)),
    "dice": LossSpec(_SMOOTH, lambda smooth: lambda p, g: soft_dice_loss(p, g, smooth)),
    "tversky": LossSpec(_TVERSKY, _tversky),
    "focal": LossSpec(_FOCAL, _focal),
    "combo": LossSpec({**_SMOOTH, "mix": ComboParams.mix}, _combo),
    "focal-tversky": LossSpec({**_TVERSKY, "ft_gamma": _FT_GAMMA}, _focal_tversky),
    "bce": LossSpec({}, lambda: lambda p, g: bce_loss(p, g)),
}

LOSS_NAMES = tuple(LOSSES)


def make_loss(name: str, **options):
    """Build a ``loss_fn(p, g) -> LossEval`` for a selector of :data:`LOSSES`.

    Keyword arguments override the selector's option defaults.  An unknown
    selector, an option the selector does not read, or an invalid option
    value raises ValueError here, not at the first call.
    """
    if name not in LOSSES:
        raise ValueError(f"unknown loss selector {name!r} (known: {', '.join(LOSSES)})")
    spec = LOSSES[name]
    extra = sorted(set(options) - set(spec.options))
    if extra:
        raise ValueError(f"unexpected parameters for loss {name!r}: {extra}")
    options = {**spec.options, **options}
    if options.get("smooth", 0.0) < 0:
        raise ValueError(f"smooth must be >= 0, got {options['smooth']}")
    return spec.build(**options)
