"""Differentiable binary-segmentation losses with analytic gradients.

Every loss takes a predicted probability map ``p`` (floats in [0, 1]) and a
ground-truth mask ``g`` (values in {0, 1}) of the same shape, and returns a
:class:`LossEval` carrying the scalar loss and d(loss)/d(p_i) for every pixel.
Inputs are per-image; batch averaging is the caller's job.

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


class DegenerateDenominator(ValueError):
    """Overlap loss denominator is zero (empty masks with smooth=0)."""


@dataclass
class LossEval:
    """Scalar loss value plus its gradient w.r.t. every predicted pixel."""

    value: float
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


def _check_pair(p: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: prediction {p.shape} vs mask {g.shape}")
    if p.size == 0:
        raise ValueError("empty input")
    if np.min(p) < 0 or np.max(p) > 1:
        raise ValueError("predicted probabilities must lie in [0, 1]")
    if not np.all((g == 0) | (g == 1)):
        raise ValueError("mask values must be exactly 0 or 1")
    return p, g


def soft_dice_loss(p, g, smooth: float = DEFAULT_SMOOTH) -> LossEval:
    """1 - (2 sum(g*p) + s) / (sum(g) + sum(p) + s)."""
    p, g = _check_pair(p, g)
    if smooth < 0:
        raise ValueError("smooth must be >= 0")
    inter = float(np.sum(g * p))
    denom = float(np.sum(g) + np.sum(p)) + smooth
    if smooth == 0 and np.sum(g) == 0:
        raise DegenerateDenominator("empty ground-truth mask with smooth=0")
    num = 2.0 * inter + smooth
    value = 1.0 - num / denom
    # d/dp_i of num/denom via quotient rule; d num = 2 g_i, d denom = 1.
    grad = -(2.0 * g * denom - num) / denom**2
    return LossEval(value, grad)


def soft_jaccard_loss(p, g, smooth: float = DEFAULT_SMOOTH) -> LossEval:
    """1 - (sum(g*p) + s) / (sum(g) + sum(p) - sum(g*p) + s)."""
    p, g = _check_pair(p, g)
    if smooth < 0:
        raise ValueError("smooth must be >= 0")
    inter = float(np.sum(g * p))
    num = inter + smooth
    denom = float(np.sum(g) + np.sum(p)) - inter + smooth
    if smooth == 0 and np.sum(g) == 0:
        raise DegenerateDenominator("empty ground-truth mask with smooth=0")
    value = 1.0 - num / denom
    grad = -(g * denom - num * (1.0 - g)) / denom**2
    return LossEval(value, grad)


def tversky_loss(p, g, tp: TverskyParams = TverskyParams(), smooth: float = DEFAULT_SMOOTH) -> LossEval:
    """1 - (TP + s) / (TP + alpha*FN + beta*FP + s) with soft TP/FN/FP."""
    p, g = _check_pair(p, g)
    inter = float(np.sum(g * p))
    fn = float(np.sum(g * (1.0 - p)))
    fp = float(np.sum((1.0 - g) * p))
    num = inter + smooth
    denom = inter + tp.alpha * fn + tp.beta * fp + smooth
    if smooth == 0 and np.sum(g) == 0:
        raise DegenerateDenominator("empty ground-truth mask with smooth=0")
    value = 1.0 - num / denom
    d_denom = g - tp.alpha * g + tp.beta * (1.0 - g)
    grad = -(g * denom - num * d_denom) / denom**2
    return LossEval(value, grad)


def focal_loss(p, g, fp: FocalParams = FocalParams()) -> LossEval:
    """Mean of -alpha * (1 - p_t)^gamma_focus * ln(p_t), p_t = p where g=1 else 1-p."""
    p, g = _check_pair(p, g)
    pc = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    clamped = pc != p
    pt = np.where(g == 1, pc, 1.0 - pc)
    a, gf = fp.alpha_balance, fp.gamma_focus
    n = p.size
    one_minus = 1.0 - pt
    value = float(np.mean(-a * one_minus**gf * np.log(pt)))
    # d/dpt of -a (1-pt)^gf ln(pt); dpt/dp = +1 where g=1, -1 where g=0.
    if gf == 0:
        d_pt = -a / pt
    else:
        d_pt = a * gf * one_minus ** (gf - 1.0) * np.log(pt) - a * one_minus**gf / pt
    grad = np.where(g == 1, d_pt, -d_pt) / n
    grad = np.where(clamped, 0.0, grad)
    return LossEval(value, grad)


def bce_loss(p, g) -> LossEval:
    """Mean binary cross-entropy with probability clipping."""
    p, g = _check_pair(p, g)
    pc = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    clamped = pc != p
    n = p.size
    value = float(np.mean(-(g * np.log(pc) + (1.0 - g) * np.log(1.0 - pc))))
    grad = -(g / pc - (1.0 - g) / (1.0 - pc)) / n
    grad = np.where(clamped, 0.0, grad)
    return LossEval(value, grad)


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
    expo = 1.0 / ft_gamma
    if base.value == 0.0:
        # exact minimum; the exponent < 1 case has an unbounded one-sided
        # derivative here, so report the subgradient 0
        return LossEval(0.0, np.zeros_like(base.grad))
    value = base.value**expo
    grad = expo * base.value ** (expo - 1.0) * base.grad
    return LossEval(value, grad)


def finite_difference_grad(loss_fn, p, g, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient estimate of ``loss_fn(p, g).value``.

    Pixels too close to 0 or 1 for a symmetric perturbation to stay in [0, 1]
    fall back to a one-sided difference.
    """
    if not (0 < step <= 0.5):
        raise ValueError("step must be in (0, 0.5]")  # above 0.5 neither side may stay in [0, 1]
    p = np.asarray(p, dtype=np.float64)
    flat = p.ravel().copy()
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        up, down = orig + step <= 1.0, orig - step >= 0.0
        flat[i] = orig + step if up else orig
        f_hi = loss_fn(flat.reshape(p.shape), g).value
        flat[i] = orig - step if down else orig
        f_lo = loss_fn(flat.reshape(p.shape), g).value
        flat[i] = orig
        out[i] = (f_hi - f_lo) / (2.0 * step if up and down else step)
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
