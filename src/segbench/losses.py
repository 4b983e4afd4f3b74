"""Differentiable binary-segmentation losses with analytic gradients.

Every loss takes a predicted probability map ``p`` (floats in [0, 1]) and a
ground-truth mask ``g`` (values in {0, 1}), and returns a :class:`LossEval`
carrying the loss and d(loss)/d(p_i) for every pixel; the gradient is built on
the first read of ``.grad``.  It has three call forms.
One image, ``p.shape == g.shape``, gives a Python float.  Copies over one mask,
``p.shape == (*copies, *g.shape)``, give one value per copy.  One mask per
image, ``p`` and ``g`` both ``(b, *img)`` with ``g`` viewed as :class:`Masks`
(the view alone marks it: by shape it is one image), gives one value per image.
Each copy or image reduces along its own row, so a stacked call agrees bit for
bit with one call per copy or image.  Averaging over a batch is the caller's job.

Set cardinalities are soft-relaxed (|G ∩ P| -> sum g_i * p_i) so gradients
exist, and overlap losses take a smoothing constant to avoid 0/0 on empty
masks.

A loss's options are its parameters after ``(p, g)``, named like the CLI
flags (``smooth``, ``tversky_alpha``, ``focal_gamma``, ...), and each kernel
checks its own.  :data:`LOSSES` maps a selector to its kernel's name, so a
selector's options and their defaults are read from that signature.
"""

from __future__ import annotations

import functools
import inspect

import numpy as np

# Clamp for probabilities entering a log; keeps loss and gradient finite.
PROB_CLIP = 1e-7

DEFAULT_SMOOTH = 1e-6

# Pixels per perturbed-copy array in one finite_difference_grad call: sets how
# many copies share a loss call, and so the size of each loss temporary.
FD_BLOCK = 4096


class DegenerateDenominator(ValueError):
    """Overlap loss denominator is zero (empty masks with smooth=0)."""


class LossEval:
    """Loss value (a float, or one per copy or image) plus its gradient w.r.t. every predicted pixel.

    ``grad`` is an array, or a zero-argument function that builds it.  The
    kernels compute ``value`` (and validate their input) at call time and pass
    a function, which runs on the first read of ``.grad``; that read keeps the
    array, so later reads return the same object.  The function works on the
    arrays passed to the call, so a caller must not modify ``p`` or ``g`` in
    place before reading ``.grad``.
    """

    def __init__(self, value: float | np.ndarray, grad):
        self.value, self._grad = value, grad

    @property
    def grad(self) -> np.ndarray:
        if callable(self._grad):
            self._grad = self._grad()
        return self._grad


class Masks(np.ndarray):
    """A ``(b, *img)`` stack of masks, one per image of ``p``: ``stack.view(Masks)`` selects that call form."""


class _CheckedMasks(Masks):
    """Masks of 0 and 1 scored against a ``p`` in [0, 1], so a call on them skips the scans of ``p``'s range and of
    the mask values; the shape check and the smoothing rules stay per call.  ``model.train`` makes them for masks
    :func:`_check_masks` has passed, scoring finite sigmoid outputs; :func:`_checked` for input a call has passed."""


class _CheckedMask(np.ndarray):
    """:class:`_CheckedMasks` for the one-image and copies forms: one mask, known to be 0 or 1."""


def _checked(g) -> np.ndarray:
    """``g`` marked as checked, in its call form: for input that a loss call on it has passed."""
    return np.asarray(g).view(_CheckedMasks if isinstance(g, Masks) else _CheckedMask)


def _check_masks(masks) -> None:
    """Raise what a loss call raises on the first of ``masks`` whose values are not all 0 or 1."""
    for g in masks:
        error = _input_error(np.zeros(1), np.asarray(g), None, False)  # a p in range: only g's values are checked
        if error is not None:
            raise error


def _check_pair(p: np.ndarray, g: np.ndarray, smooth: float | None = None) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Validate once per call; return ``p`` as rows of one image's pixels, ``g`` as its rows, ``p.shape``.

    An overlap loss passes its ``smooth``, which adds the smoothing rules.
    """
    per_image = isinstance(g, Masks)  # its first axis counts images, not pixels
    checked = isinstance(g, (_CheckedMasks, _CheckedMask))  # a view, so tested before np.asarray drops it
    p = np.asarray(p, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    lead = p.ndim - g.ndim  # copy axes
    if lead < 0 or p.shape[lead:] != g.shape:
        raise ValueError(f"shape mismatch: prediction {p.shape} vs mask {g.shape}")
    if p.size == 0:
        raise ValueError("empty input")
    rows = p.reshape(*p.shape[: lead + per_image], -1)
    g = g.reshape(rows.shape[lead:])
    if _input_error(rows, g, smooth, checked) is not None:
        # only now find the first offending copy or image, and raise what it would raise alone
        errors = (_input_error(rows[k], g[k[lead:]], smooth, checked) for k in np.ndindex(rows.shape[:-1]))
        raise next(e for e in errors if e is not None)
    return rows, g, p.shape


def _input_error(p: np.ndarray, g: np.ndarray, smooth: float | None, checked: bool) -> ValueError | None:
    """What a call on these rows raises, checked in order: ``p``'s range, ``g``'s values (both skipped for
    ``checked`` masks), the smoothing rules."""
    if not checked and not (np.min(p) >= 0 and np.max(p) <= 1):  # written so that a NaN fails it
        return ValueError("predicted probabilities must lie in [0, 1]")
    if not checked and not np.all((g == 0) | (g == 1)):
        return ValueError("mask values must be exactly 0 or 1")
    if smooth is not None and not smooth >= 0:  # written so that a NaN fails it
        return ValueError(f"smooth must be >= 0, got {smooth}")
    if smooth == 0 and not _row_sum(g).all():
        return DegenerateDenominator("empty ground-truth mask with smooth=0")
    return None


def _row_sum(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(x, axis=-1, keepdims=True)  # np.sum's reduction, without its dispatch


def copy_axes(x, grad: np.ndarray) -> np.ndarray:
    """A per-copy ``x`` (a float, or one value per copy) shaped to broadcast against ``grad``."""
    return np.reshape(x, np.shape(x) + (1,) * (grad.ndim - np.ndim(x)))


def _eval(value: np.ndarray, grad, shape: tuple) -> LossEval:
    # value rows are (*copies, 1) or (images, 1); for one image the value is a Python float.
    # grad() builds the gradient rows on the first read of .grad
    value = value[..., 0]
    return LossEval(float(value) if value.ndim == 0 else value, lambda: grad().reshape(shape))


# the two values a mask pixel takes, where the overlap losses' gradients are worked out
_MASK_LEVELS = np.array([0.0, 1.0])


def _quotient_loss(num, denom, d_parts, g, shape: tuple) -> LossEval:
    """1 - num/denom, with d/dp_i by the quotient rule from ``d_parts(g)``: the (d num, d denom) of pixels of mask
    value g.  A pixel's gradient depends on it only through g_i, so each row's is worked out at the two mask values
    and selected per pixel: the same operations on the same operands as pixel by pixel."""

    def grad():
        d_num, d_denom = d_parts(_MASK_LEVELS)
        levels = -(d_num * denom - num * d_denom) / (denom * denom)  # (..., 2) per row
        return np.where(g == 1.0, levels[..., 1:], levels[..., :1])

    return _eval(1.0 - num / denom, grad, shape)


def soft_dice_loss(p, g, smooth: float = DEFAULT_SMOOTH) -> LossEval:
    """1 - (2 sum(g*p) + s) / (sum(g) + sum(p) + s)."""
    p, g, shape = _check_pair(p, g, smooth)
    inter = _row_sum(g * p)
    denom = _row_sum(g) + _row_sum(p) + smooth
    return _quotient_loss(2.0 * inter + smooth, denom, lambda m: (2.0 * m, 1.0), g, shape)


def soft_jaccard_loss(p, g, smooth: float = DEFAULT_SMOOTH) -> LossEval:
    """1 - (sum(g*p) + s) / (sum(g) + sum(p) - sum(g*p) + s)."""
    p, g, shape = _check_pair(p, g, smooth)
    inter = _row_sum(g * p)
    denom = _row_sum(g) + _row_sum(p) - inter + smooth
    return _quotient_loss(inter + smooth, denom, lambda m: (m, 1.0 - m), g, shape)


def tversky_loss(
    p, g, smooth: float = DEFAULT_SMOOTH, tversky_alpha: float = 0.7, tversky_beta: float = 0.3
) -> LossEval:
    """1 - (TP + s) / (TP + alpha*FN + beta*FP + s) with soft TP/FN/FP."""
    if not (tversky_alpha >= 0 and tversky_beta >= 0 and tversky_alpha + tversky_beta > 0):  # a NaN fails it
        raise ValueError(f"invalid Tversky weights tversky_alpha={tversky_alpha}, tversky_beta={tversky_beta}")
    p, g, shape = _check_pair(p, g, smooth)
    inter = _row_sum(g * p)
    fn = _row_sum(g * (1.0 - p))
    fp = _row_sum((1.0 - g) * p)
    denom = inter + tversky_alpha * fn + tversky_beta * fp + smooth
    return _quotient_loss(inter + smooth, denom, lambda m: (m, m - tversky_alpha * m + tversky_beta * (1.0 - m)), g,
                          shape)


def focal_loss(p, g, focal_alpha: float = 1.0, focal_gamma: float = 2.0) -> LossEval:
    """Mean of -alpha * (1 - p_t)^gamma * ln(p_t), p_t = p where g=1 else 1-p."""
    if not (0 < focal_alpha <= 1):
        raise ValueError(f"focal_alpha must be in (0, 1], got {focal_alpha}")
    if not focal_gamma >= 0:  # written so that a NaN fails it
        raise ValueError(f"focal_gamma must be >= 0, got {focal_gamma}")
    p, g, shape = _check_pair(p, g)
    pc = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    pt = np.where(g == 1, pc, 1.0 - pc)
    a, gf = focal_alpha, focal_gamma
    one_minus = 1.0 - pt
    weight, log_pt = one_minus**gf, np.log(pt)
    value = np.mean(-a * weight * log_pt, axis=-1, keepdims=True)

    def grad():
        # d/dpt of -a (1-pt)^gf ln(pt); dpt/dp = +1 where g=1, -1 where g=0. At gf = 0 the
        # first term is -0.0 (pt is clipped below 1), so d_pt is exactly -a / pt.
        d_pt = a * gf * one_minus ** (gf - 1.0) * log_pt - a * weight / pt
        return np.where(pc != p, 0.0, np.where(g == 1, d_pt, -d_pt) / p.shape[-1])

    return _eval(value, grad, shape)


def bce_loss(p, g) -> LossEval:
    """Mean binary cross-entropy with probability clipping."""
    p, g, shape = _check_pair(p, g)
    pc = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    value = np.mean(-(g * np.log(pc) + (1.0 - g) * np.log(1.0 - pc)), axis=-1, keepdims=True)

    def grad():
        return np.where(pc != p, 0.0, -(g / pc - (1.0 - g) / (1.0 - pc)) / p.shape[-1])

    return _eval(value, grad, shape)


def combo_loss(p, g, smooth: float = DEFAULT_SMOOTH, mix: float = 0.5) -> LossEval:
    """mix * mean-BCE + (1 - mix) * soft Dice loss."""
    if not (0 <= mix <= 1):
        raise ValueError(f"mix must be in [0, 1], got {mix}")
    # Dice first: its checks are BCE's plus the smoothing rules, so a stacked call raises what its first
    # offending image would raise alone, and BCE need not scan the input again
    dice = soft_dice_loss(p, g, smooth)
    bce = bce_loss(p, _checked(g))
    value = mix * bce.value + (1.0 - mix) * dice.value
    return LossEval(value, lambda: mix * bce.grad + (1.0 - mix) * dice.grad)


def focal_tversky_loss(
    p, g, smooth: float = DEFAULT_SMOOTH, tversky_alpha: float = 0.7, tversky_beta: float = 0.3,
    ft_gamma: float = 4.0 / 3.0,
) -> LossEval:
    """(1 - Tversky index)^(1/ft_gamma), gradient via chain rule."""
    if not ft_gamma > 0:  # written so that a NaN fails it
        raise ValueError(f"ft_gamma must be > 0, got {ft_gamma}")
    base = tversky_loss(p, g, smooth, tversky_alpha, tversky_beta)
    v = np.asarray(base.value)
    expo = 1.0 / ft_gamma

    def grad():
        # at its exact minimum a copy's one-sided slope is unbounded (expo < 1): take the subgradient 0
        at_min = v == 0.0
        slope = expo * np.where(at_min, 1.0, v) ** (expo - 1.0)
        return np.where(copy_axes(at_min, base.grad), 0.0, copy_axes(slope, base.grad) * base.grad)

    value = v**expo
    return LossEval(float(value) if value.ndim == 0 else value, grad)


def finite_difference_grad(loss_fn, p, g, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient estimate of ``loss_fn(p, g).value``.

    Pixels too close to 0 or 1 for a symmetric perturbation to stay in [0, 1]
    fall back to a one-sided difference.

    ``loss_fn`` is called once per block of pixels, with a ``(2, k, *p.shape)``
    stack: the k up-perturbed copies of ``p`` then the k down-perturbed ones.
    It returns one value per copy, shape ``(2, k)``, as every loss here does,
    or a scalar, which stands for every copy.  Only ``.value`` is read, so
    the copies' gradients are never built.

    ``p`` is one image and ``g`` its mask; copies of ``p`` over one mask, or
    a :class:`Masks` ``g`` (one mask per image), raise ValueError before any
    loss call.

    ``loss_fn`` must score the copies it is given: one buffer, rewritten in
    place, holds every block.  The first block holds every pixel of ``p``,
    unperturbed or with both sides in [0, 1], and gets ``g`` as given, so it
    raises what ``loss_fn(p, g)`` would; a ``p`` without pixels, which has no
    block, is scored by that call itself.  Later copies differ from ``p`` only
    by perturbations that stay in [0, 1], so they get ``g`` marked as checked.
    """
    if not (0 < step <= 0.5):
        raise ValueError("step must be in (0, 0.5]")  # above 0.5 neither side may stay in [0, 1]
    if isinstance(g, Masks) or np.ndim(p) > np.ndim(g):  # a loss would return several values per copy, not one
        raise ValueError("finite_difference_grad takes one image and its mask, and scores the image's perturbed "
                         "copies over that mask (the copies form); it does not take one mask per image (Masks) or "
                         "copies of p over one mask")
    p = np.asarray(p, dtype=np.float64)
    flat = p.ravel()
    n = flat.size
    if n == 0:  # no block to score: one call raises what the loss raises on input without pixels
        loss_fn(p, g)
    up, down = flat + step <= 1.0, flat - step >= 0.0
    sides = np.stack([np.where(up, flat + step, flat), np.where(down, flat - step, flat)])
    width = np.where(up & down, 2.0 * step, step)
    out = np.zeros_like(flat)
    k = max(1, FD_BLOCK // max(n, 1))
    block = np.empty((2, min(k, n), n))
    block[...] = flat
    f = np.empty((2, k))
    for i in range(0, n, k):
        m = min(k, n - i)
        # copy c of each side perturbs pixel i + c: flat offset i + c * (n + 1) of that side's copies
        diagonal = block.reshape(2, -1)[:, i : i + m * (n + 1) : n + 1]
        diagonal[...] = sides[:, i : i + m]
        f[:, :m] = loss_fn(block[:, :m].reshape(2, m, *p.shape), g).value
        g = _checked(g)
        diagonal[...] = flat[i : i + m]
        out[i : i + m] = (f[0, :m] - f[1, :m]) / width[i : i + m]
    return out.reshape(p.shape)


# The loss set: selector -> kernel name.  Option names double as CLI flags, config keys
# and make_loss keyword arguments.
LOSSES = {
    "jaccard": "soft_jaccard_loss",
    "dice": "soft_dice_loss",
    "tversky": "tversky_loss",
    "focal": "focal_loss",
    "combo": "combo_loss",
    "focal-tversky": "focal_tversky_loss",
    "bce": "bce_loss",
}

LOSS_NAMES = tuple(LOSSES)


def loss_options(name: str) -> dict:
    """The options selector ``name`` reads, mapped to their defaults, in its kernel's order."""
    if name not in LOSSES:
        raise ValueError(f"unknown loss selector {name!r} (known: {', '.join(LOSSES)})")
    params = list(inspect.signature(globals()[LOSSES[name]]).parameters.values())
    return {q.name: q.default for q in params[2:]}


def _call(kernel: str, options: dict, p, g) -> LossEval:
    return globals()[kernel](p, g, **options)  # looked up by name on every call


def loss_key(loss_fn):
    """What tells a loss function's results apart: a :func:`make_loss` partial's kernel and options as given, or
    another function itself.  Functions with equal keys score the same input with the same bits."""
    if isinstance(loss_fn, functools.partial) and loss_fn.func is _call:
        kernel, options = loss_fn.args
        return kernel, tuple(sorted(options.items()))
    return id(loss_fn)


def make_loss(name: str, **options):
    """Build a ``loss_fn(p, g) -> LossEval`` for a selector of :data:`LOSSES`.

    Keyword arguments override the selector's option defaults.  An unknown
    selector, an option the selector does not read, or an invalid option
    value raises ValueError here, not at the first call.  ``loss_fn`` is a
    picklable ``functools.partial`` (so is :func:`adaptive.wrap_loss_fn`'s)
    that looks its kernel up by module-level name at call time, so rebinding
    a kernel takes effect.
    """
    extra = sorted(set(options) - set(loss_options(name)))
    if extra:
        raise ValueError(f"unexpected parameters for loss {name!r}: {extra}")
    _call(LOSSES[name], options, np.full(1, 0.5), np.ones(1))  # a one-pixel call runs the option checks
    return functools.partial(_call, LOSSES[name], options)
