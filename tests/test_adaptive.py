import math

import numpy as np
import pytest

from segbench.adaptive import (
    AdaptiveLogParams,
    adaptive_log_derivative,
    adaptive_log_forward,
    adaptive_log_wrap,
    derivative_jump,
    wrap_loss_fn,
)
from segbench.losses import LossEval, finite_difference_grad, soft_dice_loss

DEFAULTS = AdaptiveLogParams()


class TestJoinConstant:
    def test_default_value(self):
        assert DEFAULTS.c == pytest.approx(0.1 - 10.0 * math.log(1.2), abs=1e-15)

    def test_small_gamma_limit(self):
        p = AdaptiveLogParams(gamma=1e-12, omega=10.0, epsilon=0.5)
        assert abs(p.c) < 1e-10

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveLogParams(omega=0.0)
        with pytest.raises(ValueError):
            AdaptiveLogParams(gamma=0.0)
        with pytest.raises(ValueError):
            AdaptiveLogParams(gamma=1.0)
        with pytest.raises(ValueError):
            AdaptiveLogParams(epsilon=-0.5)


class TestForward:
    def test_zero_fixed_point(self):
        assert adaptive_log_forward(0.0) == 0.0

    def test_log_branch(self):
        assert adaptive_log_forward(0.05) == pytest.approx(10.0 * math.log(1.1), abs=1e-15)

    def test_linear_branch(self):
        assert adaptive_log_forward(0.3) == pytest.approx(0.3 - DEFAULTS.c, abs=1e-15)

    def test_branches_agree_at_threshold(self):
        log_side = DEFAULTS.omega * math.log(1.0 + DEFAULTS.gamma / DEFAULTS.epsilon)
        lin_side = DEFAULTS.gamma - DEFAULTS.c
        assert abs(log_side - lin_side) < 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            adaptive_log_forward(1.5)
        with pytest.raises(ValueError):
            adaptive_log_forward(-0.01)

    def test_continuity_at_join(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = AdaptiveLogParams(
                gamma=rng.uniform(0.02, 0.9),
                omega=rng.uniform(0.5, 20),
                epsilon=rng.uniform(0.05, 3),
            )
            for delta in (1e-6, 1e-9, 1e-12):
                gap = abs(adaptive_log_forward(p.gamma - delta, p) - adaptive_log_forward(p.gamma + delta, p))
                # both branches have slope <= omega/epsilon near the join
                assert gap <= 3 * delta * max(p.omega / p.epsilon, 1.0)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = AdaptiveLogParams(
                gamma=rng.uniform(0.02, 0.9),
                omega=rng.uniform(0.5, 20),
                epsilon=rng.uniform(0.05, 3),
            )
            xs = np.linspace(0, 1, 501)
            ys = [adaptive_log_forward(x, p) for x in xs]
            assert all(b > a for a, b in zip(ys, ys[1:]))

    def test_nonnegative_zero_only_at_zero(self):
        for x in np.linspace(0.001, 1, 200):
            assert adaptive_log_forward(x) > 0


class TestDerivative:
    def test_large_near_zero(self):
        assert adaptive_log_derivative(0.0) == pytest.approx(20.0)

    def test_linear_branch_slope_one(self):
        for x in (0.1, 0.2, 0.5, 1.0):
            assert adaptive_log_derivative(x) == 1.0

    def test_log_branch_value(self):
        assert adaptive_log_derivative(0.05) == pytest.approx(10.0 / 0.55, abs=1e-12)

    def test_amplifies_small_errors(self):
        # below the threshold the backpropagated error is scaled up
        for x in np.linspace(0, DEFAULTS.gamma - 1e-9, 100):
            assert adaptive_log_derivative(x) > 1.0

    def test_jump_at_threshold(self):
        jump = adaptive_log_derivative(DEFAULTS.gamma - 1e-15) - adaptive_log_derivative(DEFAULTS.gamma)
        assert jump == pytest.approx(10.0 / 0.6 - 1.0, abs=1e-9)
        assert derivative_jump(DEFAULTS) == pytest.approx(10.0 / 0.6 - 1.0, abs=1e-15)

    def test_c1_iff_omega_equals_epsilon_plus_gamma(self):
        p = AdaptiveLogParams(gamma=0.1, omega=0.6, epsilon=0.5)
        assert derivative_jump(p) == pytest.approx(0.0, abs=1e-15)


class TestWrap:
    def test_zero_base(self):
        wrapped = adaptive_log_wrap(LossEval(0.0, np.zeros(5)))
        assert wrapped.value == 0.0
        np.testing.assert_array_equal(wrapped.grad, np.zeros(5))

    def test_linear_branch_passes_grad_through(self):
        p = np.array([0.8, 0.2, 0.6, 0.4])
        g = np.array([1, 0, 1, 0])
        base = soft_dice_loss(p, g, smooth=0)  # value 0.3, above the threshold
        wrapped = adaptive_log_wrap(base)
        np.testing.assert_allclose(wrapped.grad, base.grad, rtol=1e-15)

    def test_log_branch_scales_grad(self):
        base = LossEval(0.05, np.array([0.1, -0.2]))
        wrapped = adaptive_log_wrap(base)
        np.testing.assert_allclose(wrapped.grad, (10.0 / 0.55) * base.grad, rtol=1e-12)

    def _fd_check(self, p, g):
        fn = wrap_loss_fn(soft_dice_loss)
        ev = fn(p, g)
        fd = finite_difference_grad(fn, p, g, step=1e-6)
        denom = np.maximum(np.abs(ev.grad), np.abs(fd))
        mask = denom > 1e-10
        assert np.max(np.abs(ev.grad - fd)[mask] / denom[mask]) < 1e-6

    def test_composed_finite_differences_linear_branch(self):
        self._fd_check(np.array([0.8, 0.2, 0.6, 0.4]), np.array([1, 0, 1, 0]))

    def test_composed_finite_differences_log_branch(self):
        # base dice value well below the threshold
        rng = np.random.default_rng(2)
        g = (rng.uniform(size=32) < 0.5).astype(np.int64)
        p = np.clip(np.where(g == 1, 0.97, 0.03) + rng.uniform(-0.02, 0.02, 32), 0.01, 0.99)
        base = soft_dice_loss(p, g)
        assert base.value < DEFAULTS.gamma - 1e-3
        self._fd_check(p, g)

    def test_near_threshold_log_side(self):
        # base value just below the branch point stays on the log branch
        g = np.ones(10, dtype=np.int64)
        # dice = 1 - 2s/(1+s) where all p equal s; solve for dice ~ 0.0999
        target = 0.0999
        s = (1 - target) / (1 + target)
        p = np.full(10, s)
        base = soft_dice_loss(p, g, smooth=0)
        assert 0 < base.value < DEFAULTS.gamma
        fn = wrap_loss_fn(lambda pp, gg: soft_dice_loss(pp, gg, 0))
        ev = fn(p, g)
        fd = finite_difference_grad(fn, p, g, step=1e-8)
        np.testing.assert_allclose(ev.grad, fd, rtol=1e-5)


class TestArrays:
    XS = np.array([[0.0, 0.03, 0.05, DEFAULTS.gamma], [np.nextafter(DEFAULTS.gamma, 0.0), 0.2, 0.7, 1.0]])

    @pytest.mark.parametrize("fn", [adaptive_log_forward, adaptive_log_derivative])
    def test_array_equals_per_element_calls(self, fn):
        got = fn(self.XS)
        assert got.shape == self.XS.shape
        assert got.tobytes() == np.array([[fn(float(x)) for x in row] for row in self.XS]).tobytes()

    @pytest.mark.parametrize("fn", [adaptive_log_forward, adaptive_log_derivative])
    @pytest.mark.parametrize("bad", [np.nan, 1.5])
    def test_out_of_range_element_rejected(self, fn, bad):
        with pytest.raises(ValueError, match="outside"):
            fn(np.array([0.05, bad, 0.5]))
