import math

import numpy as np
import pytest

from segbench.losses import (
    LOSS_NAMES,
    ComboParams,
    DegenerateDenominator,
    FocalParams,
    TverskyParams,
    bce_loss,
    combo_loss,
    finite_difference_grad,
    focal_loss,
    focal_tversky_loss,
    make_loss,
    soft_dice_loss,
    soft_jaccard_loss,
    tversky_loss,
)

# the running four-pixel example
P4 = np.array([0.8, 0.2, 0.6, 0.4])
G4 = np.array([1, 0, 1, 0])


def rel_err(a, b):
    # the 1e-3 denominator floor acts as a 1e-9 absolute tolerance for
    # components down at the finite-difference noise level
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)
    return float(np.max(np.abs(a - b) / denom))


def random_pair(rng, n=None):
    n = n or int(rng.integers(4, 65))
    p = rng.uniform(0.01, 0.99, size=n)
    g = (rng.uniform(size=n) < 0.5).astype(np.int64)
    if g.sum() == 0:
        g[0] = 1
    if g.sum() == g.size:
        g[-1] = 0
    return p, g


class TestSoftDice:
    def test_identity_is_zero(self):
        g = np.array([1, 0, 1, 1])
        assert soft_dice_loss(g.astype(float), g, smooth=0).value == pytest.approx(0.0, abs=1e-15)

    def test_four_pixel_value(self):
        # 1 - 2*1.4/4.0, evaluated by hand
        assert soft_dice_loss(P4, G4, smooth=0).value == pytest.approx(0.3, abs=1e-12)

    def test_grad_matches_finite_differences(self):
        ev = soft_dice_loss(P4, G4, smooth=0)
        fd = finite_difference_grad(lambda p, g: soft_dice_loss(p, g, 0), P4, G4, step=1e-6)
        assert rel_err(ev.grad, fd) < 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            soft_dice_loss([0.5, 0.5], [1, 0, 1])

    def test_empty_mask_smooth_zero(self):
        with pytest.raises(DegenerateDenominator):
            soft_dice_loss([0.5, 0.5], [0, 0], smooth=0)

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p, g = random_pair(rng)
            assert 0.0 <= soft_dice_loss(p, g, smooth=0).value <= 1.0


class TestSoftJaccard:
    def test_identity_is_zero(self):
        g = np.array([1, 1, 0, 1])
        assert soft_jaccard_loss(g.astype(float), g, smooth=0).value == pytest.approx(0.0, abs=1e-15)

    def test_disjoint_hard_masks(self):
        assert soft_jaccard_loss([0.0, 1.0], [1, 0], smooth=0).value == pytest.approx(1.0)

    def test_four_pixel_value(self):
        expected = 1.0 - 1.4 / (2.0 + 2.0 - 1.4)
        assert soft_jaccard_loss(P4, G4, smooth=0).value == pytest.approx(expected, abs=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p, g = random_pair(rng)
            ev = soft_jaccard_loss(p, g)
            fd = finite_difference_grad(soft_jaccard_loss, p, g, step=1e-6)
            assert rel_err(ev.grad, fd) < 1e-6


class TestTversky:
    def test_reduces_to_dice_at_half_half(self):
        # exact algebraic identity at smooth=0 (the smoothing constant enters
        # the two formulas differently)
        rng = np.random.default_rng(2)
        tp = TverskyParams(0.5, 0.5)
        for _ in range(100):
            p, g = random_pair(rng)
            assert abs(tversky_loss(p, g, tp, smooth=0).value - soft_dice_loss(p, g, smooth=0).value) < 1e-12

    def test_identity_is_zero(self):
        g = np.array([1, 0, 0, 1])
        assert tversky_loss(g.astype(float), g, smooth=0).value == pytest.approx(0.0, abs=1e-15)

    def test_four_pixel_value(self):
        # inter=1.4, fn=0.6, fp=0.6 -> 1 - 1.4/(1.4 + 0.7*0.6 + 0.3*0.6)
        ev = tversky_loss(P4, G4, TverskyParams(0.7, 0.3), smooth=0)
        assert ev.value == pytest.approx(1.0 - 1.4 / 2.0, abs=1e-12)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TverskyParams(-0.1, 0.5)
        with pytest.raises(ValueError):
            TverskyParams(0.0, 0.0)


class TestFocal:
    def test_identity_near_zero(self):
        g = np.array([1, 0, 1])
        ev = focal_loss(g.astype(float), g, FocalParams(1.0, 2.0))
        assert abs(ev.value) < 1e-12  # bounded by the clip term

    def test_gamma_zero_is_bce(self):
        rng = np.random.default_rng(3)
        fp = FocalParams(1.0, 0.0)
        for _ in range(100):
            p, g = random_pair(rng)
            assert abs(focal_loss(p, g, fp).value - bce_loss(p, g).value) < 1e-12

    def test_two_pixel_value(self):
        # both pixels have p_t = 0.9: mean of -(0.1)^2 * ln(0.9)
        expected = -0.01 * math.log(0.9)
        ev = focal_loss(np.array([0.9, 0.1]), np.array([1, 0]), FocalParams(1.0, 2.0))
        assert ev.value == pytest.approx(expected, rel=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        fp = FocalParams(1.0, 2.0)
        for _ in range(20):
            p, g = random_pair(rng)
            ev = focal_loss(p, g, fp)
            fd = finite_difference_grad(lambda pp, gg: focal_loss(pp, gg, fp), p, g, step=1e-6)
            assert rel_err(ev.grad, fd) < 1e-6


class TestCombo:
    def test_endpoints(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p, g = random_pair(rng)
            assert abs(combo_loss(p, g, ComboParams(0.0)).value - soft_dice_loss(p, g).value) < 1e-12
            assert abs(combo_loss(p, g, ComboParams(1.0)).value - bce_loss(p, g).value) < 1e-12

    def test_four_pixel_value(self):
        dice = soft_dice_loss(P4, G4).value
        bce = bce_loss(P4, G4).value
        assert combo_loss(P4, G4, ComboParams(0.5)).value == pytest.approx(0.5 * (dice + bce), abs=1e-12)

    def test_grad_is_convex_combination(self):
        ev = combo_loss(P4, G4, ComboParams(0.25))
        expect = 0.25 * bce_loss(P4, G4).grad + 0.75 * soft_dice_loss(P4, G4).grad
        np.testing.assert_allclose(ev.grad, expect, rtol=1e-12)


class TestFocalTversky:
    def test_exponent_one_is_tversky(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p, g = random_pair(rng)
            a = focal_tversky_loss(p, g, ft_gamma=1.0).value
            b = tversky_loss(p, g).value
            assert abs(a - b) < 1e-12

    def test_identity_is_zero(self):
        g = np.array([1, 0, 1, 1])
        assert focal_tversky_loss(g.astype(float), g, smooth=0).value == 0.0

    def test_four_pixel_value(self):
        base = tversky_loss(P4, G4, TverskyParams(0.7, 0.3), smooth=0).value
        ev = focal_tversky_loss(P4, G4, TverskyParams(0.7, 0.3), ft_gamma=4.0 / 3.0, smooth=0)
        assert ev.value == pytest.approx(base ** 0.75, rel=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p, g = random_pair(rng)
            ev = focal_tversky_loss(p, g)
            fd = finite_difference_grad(focal_tversky_loss, p, g, step=1e-6)
            assert rel_err(ev.grad, fd) < 1e-6


class TestFiniteDifference:
    def test_constant_loss_zero_grad(self):
        from segbench.losses import LossEval

        fd = finite_difference_grad(lambda p, g: LossEval(0.42, None), P4, G4)
        np.testing.assert_array_equal(fd, np.zeros(4))

    def test_boundary_pixels_one_sided(self):
        p = np.array([0.0, 0.5, 1.0])
        g = np.array([1, 0, 1])
        fd = finite_difference_grad(soft_dice_loss, p, g, step=1e-6)
        assert np.all(np.isfinite(fd))

    def test_bad_step(self):
        for step in (0, 0.6):  # above 0.5 neither side of a pixel at 0.5 stays in [0, 1]
            with pytest.raises(ValueError):
                finite_difference_grad(soft_dice_loss, P4, G4, step=step)


class TestMakeLoss:
    def test_known_selectors(self):
        for name in ("jaccard", "dice", "tversky", "focal", "combo", "focal-tversky", "bce"):
            ev = make_loss(name)(P4, G4)
            assert np.isfinite(ev.value)
            assert ev.grad.shape == P4.shape

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            make_loss("hinge")

    def test_extra_params_rejected(self):
        cases = [
            ("jaccard", {"tversky_alpha": 0.5}),
            ("dice", {"mix": 0.5}),
            ("tversky", {"focal_gamma": 2.0}),
            ("focal", {"mix": 0.5}),
            ("focal", {"smooth": 1e-6}),
            ("combo", {"ft_gamma": 1.0}),
            ("focal-tversky", {"mix": 0.5}),
            ("bce", {"smooth": 1e-6}),
        ]
        assert {name for name, _ in cases} == set(LOSS_NAMES)
        for name, options in cases:
            with pytest.raises(ValueError, match="unexpected parameters"):
                make_loss(name, **options)
        with pytest.raises(ValueError, match="smooth"):
            make_loss("tversky", smooth=-1.0)

    @pytest.mark.parametrize("name, options", [
        ("dice", {"smooth": -1.0}),
        ("tversky", {"tversky_alpha": -1.0}),
        ("focal", {"focal_alpha": 2.0}),
        ("combo", {"mix": 1.5}),
        ("focal-tversky", {"ft_gamma": 0.0}),
    ])
    def test_bad_option_rejected_at_build(self, name, options):
        with pytest.raises(ValueError):
            make_loss(name, **options)

    def test_options_reach_the_kernel(self):
        ev = make_loss("focal-tversky", tversky_alpha=0.4, tversky_beta=0.6, ft_gamma=2.0, smooth=0.0)(P4, G4)
        ref = focal_tversky_loss(P4, G4, TverskyParams(0.4, 0.6), ft_gamma=2.0, smooth=0.0)
        assert ev.value == ref.value
        np.testing.assert_array_equal(ev.grad, ref.grad)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            soft_dice_loss([1.5, 0.5], [1, 0])
        with pytest.raises(ValueError):
            soft_dice_loss([0.5, 0.5], [2, 0])
