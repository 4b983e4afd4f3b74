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

import math
from dataclasses import dataclass

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
        if self.omega <= 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")

    @property
    def c(self) -> float:
        """Join constant; always recomputed from (gamma, omega, epsilon)."""
        return self.gamma - self.omega * math.log(1.0 + self.gamma / self.epsilon)


DEFAULT_PARAMS = AdaptiveLogParams()


class BaseValueOutOfRange(ValueError):
    """A base loss value outside [0, 1], where the wrapper is defined: ``value`` is the first such one."""

    def __init__(self, value: float):
        super().__init__(f"base loss value {value} outside [0, 1]; upstream loss is broken")
        self.value = value

    def __reduce__(self):  # ValueError would pickle only the message, which __init__ does not take
        return type(self), (self.value,)


def _branches(x, params: AdaptiveLogParams) -> tuple:
    """(wrapped value, slope) of a base value or an array of them; a float gives floats."""
    x = np.asarray(x, dtype=np.float64)
    outside = ~((x >= 0.0) & (x <= 1.0))  # NaN is outside too
    if outside.any():
        raise BaseValueOutOfRange(float(x[outside][0]))
    below = x < params.gamma
    value = np.where(below, params.omega * np.log(1.0 + x / params.epsilon), x - params.c)
    slope = np.where(below, params.omega / (params.epsilon + x), 1.0)
    return (float(value), float(slope)) if x.ndim == 0 else (value, slope)


def adaptive_log_forward(base_loss_value, params: AdaptiveLogParams = DEFAULT_PARAMS):
    """Wrapped loss value (elementwise on an array); 0 iff the base loss is 0, strictly increasing."""
    return _branches(base_loss_value, params)[0]


def adaptive_log_derivative(base_loss_value, params: AdaptiveLogParams = DEFAULT_PARAMS):
    """d(wrapped)/d(base) (elementwise on an array): omega / (epsilon + x) below gamma, 1 above."""
    return _branches(base_loss_value, params)[1]


def derivative_jump(params: AdaptiveLogParams = DEFAULT_PARAMS) -> float:
    """Drop in slope across the branch threshold: omega/(epsilon+gamma) - 1."""
    return params.omega / (params.epsilon + params.gamma) - 1.0


def adaptive_log_wrap(base: LossEval, params: AdaptiveLogParams = DEFAULT_PARAMS) -> LossEval:
    """Compose the wrapper with an evaluated base loss (one float value) via the chain rule."""
    value, slope = _branches(base.value, params)
    return LossEval(value, lambda: slope * np.asarray(base.grad))


def wrap_loss_fn(loss_fn, params: AdaptiveLogParams = DEFAULT_PARAMS):
    """Lift a ``loss_fn(p, g) -> LossEval`` into its wrapped form.

    A stacked call (copies over one mask, or one mask per image) gives one
    base value per copy or image, and each is wrapped on its own.
    """

    def wrapped(p, g):
        base = loss_fn(p, g)
        if np.ndim(base.value) == 0:
            # one-image calls (gradcheck's analytic gradients and its network check) go through
            # adaptive_log_wrap, whose argument the benchmark's log-branch probe reads; training does not
            return adaptive_log_wrap(base, params)
        value, slope = _branches(base.value, params)
        return LossEval(value, lambda: copy_axes(slope, base.grad) * base.grad)

    return wrapped
