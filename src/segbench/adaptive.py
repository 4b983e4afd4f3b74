"""Adaptive logarithmic wrapper over a base segmentation loss.

For a base loss value x in [0, 1] the wrapped loss is

    omega * ln(1 + |x| / epsilon)   if |x| < gamma
    |x| - C                         otherwise

with C = gamma - omega * ln(1 + gamma / epsilon) chosen so the two branches
meet in value at |x| = gamma.  (|x| is vacuous since x is constrained to
[0, 1]; the precondition is enforced instead of handling negatives.)

Note the join is value-continuous but not C^1: the derivative drops from
omega / (epsilon + gamma) to 1 across the threshold unless
omega = epsilon + gamma.  :func:`derivative_jump` reports the size of that
drop; with the default parameters it is about 15.667.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .losses import LossEval, copy_axes


@dataclass(frozen=True)
class AdaptiveLogParams:
    """Hyperparameters: branch threshold gamma, log scale omega, log offset epsilon."""

    gamma: float = 0.1
    omega: float = 10.0
    epsilon: float = 0.5

    def __post_init__(self):
        if not (0 < self.gamma < 1):
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if not self.omega > 0:  # written so that nan fails
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        # log1p(y) <= y, so this bounds every value, slope, c and derivative_jump
        if not math.isfinite(max(1.0, self.omega) / self.epsilon):
            raise ValueError(f"max(1, omega) / epsilon must be finite, got omega={self.omega}, epsilon={self.epsilon}")

    @property
    def c(self) -> float:
        """Join constant; always recomputed from (gamma, omega, epsilon)."""
        return self.gamma - self.omega * math.log(1.0 + self.gamma / self.epsilon)


DEFAULT_PARAMS = AdaptiveLogParams()


class BaseValueOutOfRange(ValueError):
    """A base loss value outside [0, 1], where the wrapper is defined: ``value`` is the first such one.  Under
    :class:`RowParams`, ``rows`` maps each wrapped row that left [0, 1] to its first such value."""

    def __init__(self, value: float, rows: dict[int, float] | None = None):
        super().__init__(f"base loss value {value} outside [0, 1]; upstream loss is broken")
        self.value = value
        self.rows = rows

    def __reduce__(self):  # ValueError would pickle only the message, which __init__ does not take
        return type(self), (self.value, self.rows)


class RowParams(NamedTuple):
    """Wrapper parameters per row of a (rows, images) stack of base values, as (rows, 1) columns.  A plain run's
    row composes with the identity: the linear branch (gamma -inf, which also leaves it out of the range check)
    with c = 0 and slope 1, so ``x - 0.0`` gives back every value, those above 1 and NaN too."""

    gamma: np.ndarray
    omega: np.ndarray
    epsilon: np.ndarray
    c: np.ndarray

    @classmethod
    @functools.lru_cache(maxsize=256)  # training asks for the same rows on every chunk
    def of(cls, params: tuple[AdaptiveLogParams | None, ...]) -> "RowParams":
        """One row per item of ``params``: its parameters, or None for a plain run. Cached, so read-only."""
        table = np.array([(-math.inf, 1.0, 1.0, 0.0) if q is None else (q.gamma, q.omega, q.epsilon, q.c)
                          for q in params])
        table.flags.writeable = False
        return cls(*table.T[..., None])


def _branches(x, params: AdaptiveLogParams | RowParams) -> tuple:
    """(wrapped value, slope) of a base value or an array of them, as arrays; a float gives floats.  Raises
    :class:`BaseValueOutOfRange` for a base value outside [0, 1], except on a :class:`RowParams` identity row."""
    x = np.asarray(x, dtype=np.float64)
    outside = ~((x >= 0.0) & (x <= 1.0)) & (params.gamma > -math.inf)  # NaN is outside too
    if outside.any():
        xs = np.broadcast_to(x, outside.shape)
        rows = ({i: float(xs[i][outside[i]][0]) for i in np.flatnonzero(outside.any(axis=-1)).tolist()}
                if isinstance(params, RowParams) else None)
        raise BaseValueOutOfRange(float(xs[outside][0]), rows)
    below = x < params.gamma
    value = np.where(below, params.omega * np.log(1.0 + x / params.epsilon), x - params.c)
    slope = np.where(below, params.omega / (params.epsilon + x), 1.0)
    return (float(value), float(slope)) if value.ndim == 0 else (value, slope)


def adaptive_log_forward(base_loss_value, params: AdaptiveLogParams = DEFAULT_PARAMS):
    """Wrapped loss value (elementwise on an array); 0 iff the base loss is 0, strictly increasing."""
    return _branches(base_loss_value, params)[0]


def adaptive_log_derivative(base_loss_value, params: AdaptiveLogParams = DEFAULT_PARAMS):
    """d(wrapped)/d(base) (elementwise on an array): omega / (epsilon + x) below gamma, 1 above."""
    return _branches(base_loss_value, params)[1]


def derivative_jump(params: AdaptiveLogParams = DEFAULT_PARAMS) -> float:
    """Drop in slope across the branch threshold: omega/(epsilon+gamma) - 1."""
    return params.omega / (params.epsilon + params.gamma) - 1.0


def _compose(base: LossEval, params: AdaptiveLogParams | RowParams) -> LossEval:
    value, slope = _branches(base.value, params)
    return LossEval(value, lambda: copy_axes(slope, base.grad) * base.grad)


def adaptive_log_wrap(base: LossEval, params: AdaptiveLogParams = DEFAULT_PARAMS) -> LossEval:
    """Compose the wrapper with an evaluated base loss via the chain rule; a stacked base (one value per copy or
    image) has each copy or image wrapped on its own."""
    return _compose(base, params)


def _wrapped(loss_fn, params: AdaptiveLogParams, p, g) -> LossEval:
    # not through adaptive_log_wrap: perfbench's tracer rebinds that name, and its log-branch probe reads
    # float(base.value), which a stacked call does not have
    return _compose(loss_fn(p, g), params)


def wrap_loss_fn(loss_fn, params: AdaptiveLogParams = DEFAULT_PARAMS):
    """Lift a ``loss_fn(p, g) -> LossEval`` into its wrapped form, in every call form, by the same composition."""
    return functools.partial(_wrapped, loss_fn, params)


def split_wrapped(loss_fn) -> tuple:
    """``(base, params)`` of a :func:`wrap_loss_fn` partial, ``(loss_fn, None)`` of any other loss."""
    if isinstance(loss_fn, functools.partial) and loss_fn.func is _wrapped:
        return loss_fn.args
    return loss_fn, None
