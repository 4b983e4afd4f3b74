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

from .losses import LossEval, copy_axes, per_copy


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


def _check_base_value(x: float) -> float:
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"base loss value {x} outside [0, 1]; upstream loss is broken")
    return x


def adaptive_log_forward(base_loss_value: float, params: AdaptiveLogParams = DEFAULT_PARAMS) -> float:
    """Wrapped loss value; 0 iff the base loss is 0, strictly increasing."""
    x = _check_base_value(base_loss_value)
    if x < params.gamma:
        return params.omega * math.log(1.0 + x / params.epsilon)
    return x - params.c


def adaptive_log_derivative(base_loss_value: float, params: AdaptiveLogParams = DEFAULT_PARAMS) -> float:
    """d(wrapped)/d(base): omega / (epsilon + x) below gamma, 1 above."""
    x = _check_base_value(base_loss_value)
    if x < params.gamma:
        return params.omega / (params.epsilon + x)
    return 1.0


def derivative_jump(params: AdaptiveLogParams = DEFAULT_PARAMS) -> float:
    """Drop in slope across the branch threshold: omega/(epsilon+gamma) - 1."""
    return params.omega / (params.epsilon + params.gamma) - 1.0


def adaptive_log_wrap(base: LossEval, params: AdaptiveLogParams = DEFAULT_PARAMS) -> LossEval:
    """Compose the wrapper with an evaluated base loss via the chain rule."""
    value = adaptive_log_forward(base.value, params)
    scale = adaptive_log_derivative(base.value, params)
    return LossEval(value, scale * np.asarray(base.grad))


def wrap_loss_fn(loss_fn, params: AdaptiveLogParams = DEFAULT_PARAMS):
    """Lift a ``loss_fn(p, g) -> LossEval`` into its wrapped form.

    A ``p`` with leading copy axes gives one base value per copy, and each is
    wrapped on its own; :func:`adaptive_log_wrap` takes only a float value.
    """

    def wrapped(p, g):
        base = loss_fn(p, g)
        if np.ndim(base.value) == 0:
            return adaptive_log_wrap(base, params)
        value = per_copy(lambda x: adaptive_log_forward(x, params), base.value)
        scale = per_copy(lambda x: adaptive_log_derivative(x, params), base.value)
        return LossEval(value, copy_axes(scale, base.grad) * base.grad)

    return wrapped
