import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from segbench import losses
from segbench.adaptive import AdaptiveLogParams, adaptive_log_derivative, wrap_loss_fn
from segbench.losses import (
    DEFAULT_SMOOTH,
    FD_BLOCK,
    LOSS_NAMES,
    LOSSES,
    DegenerateDenominator,
    LossEval,
    Masks,
    bce_loss,
    combo_loss,
    finite_difference_grad,
    focal_loss,
    focal_tversky_loss,
    loss_options,
    make_loss,
    soft_dice_loss,
    soft_jaccard_loss,
    tversky_loss,
)
from segbench.synthdata import SynthSpec

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
        fd = finite_difference_grad(lambda p, g: soft_dice_loss(p, g, smooth=0), P4, G4, step=1e-6)
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
        tp = {"tversky_alpha": 0.5, "tversky_beta": 0.5}
        for _ in range(100):
            p, g = random_pair(rng)
            assert abs(tversky_loss(p, g, smooth=0, **tp).value - soft_dice_loss(p, g, smooth=0).value) < 1e-12

    def test_identity_is_zero(self):
        g = np.array([1, 0, 0, 1])
        assert tversky_loss(g.astype(float), g, smooth=0).value == pytest.approx(0.0, abs=1e-15)

    def test_four_pixel_value(self):
        # inter=1.4, fn=0.6, fp=0.6 -> 1 - 1.4/(1.4 + 0.7*0.6 + 0.3*0.6)
        ev = tversky_loss(P4, G4, tversky_alpha=0.7, tversky_beta=0.3, smooth=0)
        assert ev.value == pytest.approx(1.0 - 1.4 / 2.0, abs=1e-12)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            tversky_loss(P4, G4, tversky_alpha=-0.1, tversky_beta=0.5)
        with pytest.raises(ValueError):
            tversky_loss(P4, G4, tversky_alpha=0.0, tversky_beta=0.0)


class TestFocal:
    def test_identity_near_zero(self):
        g = np.array([1, 0, 1])
        ev = focal_loss(g.astype(float), g, focal_alpha=1.0, focal_gamma=2.0)
        assert abs(ev.value) < 1e-12  # bounded by the clip term

    def test_gamma_zero_is_bce(self):
        rng = np.random.default_rng(3)
        fp = {"focal_alpha": 1.0, "focal_gamma": 0.0}
        for _ in range(100):
            p, g = random_pair(rng)
            assert abs(focal_loss(p, g, **fp).value - bce_loss(p, g).value) < 1e-12

    def test_two_pixel_value(self):
        # both pixels have p_t = 0.9: mean of -(0.1)^2 * ln(0.9)
        expected = -0.01 * math.log(0.9)
        ev = focal_loss(np.array([0.9, 0.1]), np.array([1, 0]), focal_alpha=1.0, focal_gamma=2.0)
        assert ev.value == pytest.approx(expected, rel=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        fp = {"focal_alpha": 1.0, "focal_gamma": 2.0}
        for _ in range(20):
            p, g = random_pair(rng)
            ev = focal_loss(p, g, **fp)
            fd = finite_difference_grad(lambda pp, gg: focal_loss(pp, gg, **fp), p, g, step=1e-6)
            assert rel_err(ev.grad, fd) < 1e-6


class TestCombo:
    def test_endpoints(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p, g = random_pair(rng)
            assert abs(combo_loss(p, g, mix=0.0).value - soft_dice_loss(p, g).value) < 1e-12
            assert abs(combo_loss(p, g, mix=1.0).value - bce_loss(p, g).value) < 1e-12

    def test_four_pixel_value(self):
        dice = soft_dice_loss(P4, G4).value
        bce = bce_loss(P4, G4).value
        assert combo_loss(P4, G4, mix=0.5).value == pytest.approx(0.5 * (dice + bce), abs=1e-12)

    def test_grad_is_convex_combination(self):
        ev = combo_loss(P4, G4, mix=0.25)
        expect = 0.25 * bce_loss(P4, G4).grad + 0.75 * soft_dice_loss(P4, G4).grad
        np.testing.assert_allclose(ev.grad, expect, rtol=1e-12)

    def test_checks_its_input_once(self, monkeypatch):
        # Dice scans p and g; BCE, whose checks are a subset of Dice's, gets g marked as checked
        p, g = per_image_case((3, 4, 5), seed=81)
        scans = spy_scans(monkeypatch)
        for args in ((p[0], g[0]), (p, g[0]), (p, g.view(Masks))):
            want = 0.5 * bce_loss(*args).value + 0.5 * soft_dice_loss(*args).value
            scans.clear()
            assert np.array_equal(combo_loss(*args).value, want)
            assert scans == [False, True]


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
        tp = {"tversky_alpha": 0.7, "tversky_beta": 0.3}
        base = tversky_loss(P4, G4, smooth=0, **tp).value
        ev = focal_tversky_loss(P4, G4, ft_gamma=4.0 / 3.0, smooth=0, **tp)
        assert ev.value == pytest.approx(base ** 0.75, rel=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p, g = random_pair(rng)
            ev = focal_tversky_loss(p, g)
            fd = finite_difference_grad(focal_tversky_loss, p, g, step=1e-6)
            assert rel_err(ev.grad, fd) < 1e-6

    def test_stacked_copy_at_minimum_gets_zero_grad(self):
        g = np.array([[1, 0], [1, 1]])
        stack = np.stack([g.astype(float), np.array([[0.7, 0.2], [0.9, 0.6]])])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no divide-by-zero at the minimum
            ev = focal_tversky_loss(stack, g, smooth=0)
        assert ev.value[0] == 0.0 and ev.value[1] > 0.0
        assert not np.any(ev.grad[0]) and np.all(np.isfinite(ev.grad))
        assert ev.grad[1].tobytes() == focal_tversky_loss(stack[1], g, smooth=0).grad.tobytes()


@pytest.mark.parametrize("kernel", [soft_dice_loss, soft_jaccard_loss, tversky_loss, focal_tversky_loss])
def test_negative_smooth_rejected(kernel):
    # tversky and focal-tversky used to divide by a zero denominator here
    with pytest.raises(ValueError, match="smooth must be >= 0"):
        kernel([0.5, 0.5], [1, 0], smooth=-1.0)


def per_pixel_finite_difference(loss_fn, p, g, step=1e-6):
    """Reference: the per-pixel loop, two unbatched loss calls per pixel."""
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


def spy_scans(monkeypatch):
    """The ``checked`` flag of every input check from here on: where it is True, the scans of ``p``'s range and of
    the mask values are skipped."""
    scans = []
    check = losses._input_error
    monkeypatch.setattr(losses, "_input_error", lambda p, g, smooth, checked: scans.append(checked)
                        or check(p, g, smooth, checked))
    return scans


def oracle_case(shape, seed):
    """Predictions near their mask (so every base value stays in [0, 1] for the
    wrapper), with pixels at 0, 1 and 5e-7 where the size allows."""
    rng = np.random.default_rng(seed)
    g = (rng.uniform(size=shape) < 0.5).astype(np.int64)
    p = np.where(g == 1, rng.uniform(0.5, 0.99, size=shape), rng.uniform(0.01, 0.5, size=shape))
    flat_p, flat_g = p.reshape(-1), g.reshape(-1)
    for i, (pv, gv) in enumerate([(0.0, 0), (1.0, 1), (5e-7, 0)][: flat_p.size]):
        flat_p[i], flat_g[i] = pv, gv
    return p, g


class TestFiniteDifference:
    @pytest.mark.parametrize("shape", [(1,), (4,), (257,), (8, 8)])
    @pytest.mark.parametrize("wrapped", [False, True])
    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_matches_per_pixel_loop_bit_for_bit(self, name, wrapped, shape):
        assert 257 % max(1, FD_BLOCK // 257) != 0  # the last block is a short one
        fn = wrap_loss_fn(make_loss(name)) if wrapped else make_loss(name)
        p, g = oracle_case(shape, seed=len(shape) * 1000 + shape[0])
        fd = finite_difference_grad(fn, p, g, step=1e-6)
        assert fd.shape == p.shape
        assert fd.tobytes() == per_pixel_finite_difference(fn, p, g, step=1e-6).tobytes()

    @pytest.mark.parametrize("name, wrapped", [("dice", False), ("focal", True)])
    def test_one_copy_per_block_matches_per_pixel_loop(self, name, wrapped):
        self.test_matches_per_pixel_loop_bit_for_bit(name, wrapped, (FD_BLOCK + 1,))

    @pytest.mark.parametrize("n", [257, FD_BLOCK + 1])
    def test_foreign_loss_fn_matches_per_pixel_loop(self, n):
        # a loss_fn that knows nothing of the mask views it is given
        fn = lambda p, g: LossEval(np.asarray(p).sum(axis=-1) + np.asarray(g).sum(), None)  # noqa: E731
        p, g = oracle_case((n,), seed=n)
        assert finite_difference_grad(fn, p, g).tobytes() == per_pixel_finite_difference(fn, p, g).tobytes()

    @pytest.mark.parametrize("n", [257, FD_BLOCK + 1], ids=["copies", "one-copy"])
    @pytest.mark.parametrize("wrapped", [False, True])
    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_raises_what_the_loss_raises(self, name, wrapped, n):
        fn = wrap_loss_fn(make_loss(name)) if wrapped else make_loss(name)
        for at in (0, n // 2, n - 1):  # in the first, a middle and the last block
            for bad in (-5e-7, 1.0 + 5e-7, 1.5, np.nan, "mask"):
                p, g = oracle_case((n,), seed=n)
                if bad == "mask":
                    g[at] = 2
                else:
                    p[at] = bad
                assert error_of(lambda: finite_difference_grad(fn, p, g)) == error_of(lambda: fn(p, g))

    # a p without pixels has no block to score: the oracle still calls the loss once, which rejects it
    @pytest.mark.parametrize("name, p, g", [("dice", np.array([]), np.array([1, 0, 1])),
                                            ("focal", np.zeros((0, 4)), np.full((0, 4), 7))],
                             ids=["shape-mismatch", "empty"])
    def test_input_without_pixels_raises_what_the_loss_raises(self, name, p, g):
        fn = make_loss(name)
        assert error_of(lambda: finite_difference_grad(fn, p, g)) == error_of(lambda: fn(p, g))

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_scans_its_input_on_the_first_block_only(self, name, monkeypatch):
        fn = wrap_loss_fn(make_loss(name))
        p, g = oracle_case((257,), seed=9)
        blocks = -(-257 // (FD_BLOCK // 257))
        scans = spy_scans(monkeypatch)
        finite_difference_grad(fn, p, g)
        checks_per_call = 2 if name == "combo" else 1
        assert scans.count(False) == 1 and scans.count(True) == checks_per_call * blocks - 1

    @pytest.mark.parametrize("wrapped", [False, True])
    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_stacked_call_matches_per_copy_calls(self, name, wrapped):
        fn = wrap_loss_fn(make_loss(name)) if wrapped else make_loss(name)
        p, g = oracle_case((3, 5), seed=11)
        rng = np.random.default_rng(12)
        stack = np.clip(p + rng.uniform(-0.05, 0.05, size=(2, 4, 3, 5)), 0.0, 1.0)
        ev = fn(stack, g)
        assert ev.value.shape == (2, 4) and ev.grad.shape == stack.shape
        for idx in np.ndindex(2, 4):
            one = fn(stack[idx], g)
            assert type(one.value) is float
            assert ev.value[idx] == one.value
            assert ev.grad[idx].tobytes() == one.grad.tobytes()

    def test_peak_memory_bounded_by_block(self):
        # the block size caps the loss temporaries; one stack of all 2n
        # copies peaks at 7.5 MB for this case
        p, g = oracle_case((256,), seed=3)
        for fn in (wrap_loss_fn(make_loss("focal")), make_loss("combo"), wrap_loss_fn(make_loss("tversky"))):
            finite_difference_grad(fn, p, g)
            tracemalloc.start()
            try:
                finite_difference_grad(fn, p, g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1_000_000

    def test_constant_loss_zero_grad(self):
        fd = finite_difference_grad(lambda p, g: LossEval(0.42, None), P4, G4)
        np.testing.assert_array_equal(fd, np.zeros(4))

    def test_boundary_pixels_one_sided(self):
        p = np.array([0.0, 0.5, 1.0])
        g = np.array([1, 0, 1])
        fd = finite_difference_grad(soft_dice_loss, p, g, step=1e-6)
        assert np.all(np.isfinite(fd))

    def test_one_mask_per_image_is_refused_before_any_loss_call(self):
        calls = []
        p, g = oracle_case((2, 3, 3), seed=5)
        with pytest.raises(ValueError, match=r"takes one image and its mask, .* \(the copies form\); it does not take "
                                             r"one mask per image \(Masks\)"):
            finite_difference_grad(lambda pp, gg: calls.append(1) or soft_dice_loss(pp, gg), p, g.view(Masks))
        assert calls == []
        assert finite_difference_grad(soft_dice_loss, p[0], g[0]).shape == (3, 3)

    def test_copies_over_one_mask_are_refused_before_any_loss_call(self):
        # p of (2, 3, 3) over a (3, 3) mask would make each block's loss return (2, k, 2) values, not (2, k)
        calls = []
        p, g = oracle_case((2, 3, 3), seed=5)
        for mask in (g[0], g.view(Masks)):
            with pytest.raises(ValueError, match=r"takes one image and its mask, .* \(the copies form\); it does not "
                                                 r"take one mask per image \(Masks\) or copies of p over one mask"):
                finite_difference_grad(lambda pp, gg: calls.append(1) or soft_dice_loss(pp, gg), p, mask)
        assert calls == []

    def test_bad_step(self):
        for step in (0, 0.6):  # above 0.5 neither side of a pixel at 0.5 stays in [0, 1]
            with pytest.raises(ValueError):
                finite_difference_grad(soft_dice_loss, P4, G4, step=step)



class TestLazyGradient:
    @pytest.mark.parametrize("wrapped", [False, True])
    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_finite_differences_build_no_gradient(self, name, wrapped, monkeypatch):
        fn = wrap_loss_fn(make_loss(name)) if wrapped else make_loss(name)
        p, g = oracle_case((8, 8), seed=7)
        reads = []
        read = LossEval.grad.fget
        monkeypatch.setattr(LossEval, "grad", property(lambda ev: reads.append(ev) or read(ev)))
        finite_difference_grad(fn, p, g)
        assert reads == []
        fn(p, g).grad
        assert reads  # the patched property sees a read

    @pytest.mark.parametrize("wrapped", [False, True])
    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_grad_is_built_once(self, name, wrapped):
        fn = wrap_loss_fn(make_loss(name)) if wrapped else make_loss(name)
        p, g = per_image_case((2, 3, 5), seed=13)
        for ev in (fn(p[0], g[0]), fn(np.stack([p[0], p[0]]), g[0]), fn(p, g.view(Masks))):
            assert isinstance(ev.grad, np.ndarray) and ev.grad is ev.grad

    @pytest.mark.parametrize("wrapped", [False, True])
    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_late_reads_give_the_same_bytes(self, name, wrapped):
        # every call is made before any gradient is read, and the reads run in reverse order
        fn = wrap_loss_fn(make_loss(name)) if wrapped else make_loss(name)
        p, g = per_image_case((3, 4, 5), seed=17)
        calls = [lambda: fn(p, g.view(Masks))] + [lambda k=k: fn(p[k], g[k]) for k in range(3)]
        late = [call() for call in calls]
        for ev, call in reversed(list(zip(late, calls))):
            assert ev.grad.tobytes() == call().grad.tobytes()


def per_image_case(shape, seed, empty=None):
    """A ``(b, *img)`` stack of oracle cases, one seed per image; image ``empty`` gets an all-zero mask, with its
    predictions flipped where the mask was 1 so they stay near it."""
    p, g = (np.stack(x) for x in zip(*(oracle_case(shape[1:], seed + k) for k in range(shape[0]))))
    if empty is not None:
        p[empty] = np.where(g[empty] == 1, 1.0 - p[empty], p[empty])
        g[empty] = 0
    return p, g


def error_of(call):
    """Type and message of the ValueError that ``call()`` raises."""
    with pytest.raises(ValueError) as exc:
        call()
    return exc.type, str(exc.value)


class TestPerImageMasks:
    # (stack shape, image with an empty mask): the images carry pixels at exactly 0 and 1, which the focal and
    # BCE clamp
    CASES = {"empty-mask": ((3, 4, 5), 1), "one-image": ((1, 4, 5), None), "one-row": ((3, 1, 6), None)}

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("wrapped", [False, True])
    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_stacked_call_matches_per_image_calls(self, name, wrapped, case):
        fn = wrap_loss_fn(make_loss(name)) if wrapped else make_loss(name)
        shape, empty = self.CASES[case]
        p, g = per_image_case(shape, seed=21, empty=empty)
        assert {0.0, 1.0} <= set(p.ravel())
        ev = fn(p, g.view(Masks))
        assert ev.value.shape == shape[:1] and ev.grad.shape == shape
        for k in range(shape[0]):
            one = fn(p[k], g[k])
            assert type(one.value) is float
            assert ev.value[k] == one.value
            assert ev.grad[k].tobytes() == one.grad.tobytes()

    def test_the_mask_type_marks_the_form(self):
        p, g = per_image_case((2, 3, 3), seed=5)
        assert type(soft_dice_loss(p, g).value) is float  # by shape alone, one image of 2x3x3
        assert soft_dice_loss(p, g.view(Masks)).value.shape == (2,)
        with pytest.raises(ValueError, match="shape mismatch"):
            soft_dice_loss(p, g[:1].view(Masks))  # one mask for two images

    @pytest.mark.parametrize("name", [name for name in LOSS_NAMES if "smooth" in loss_options(name)])
    def test_second_empty_mask_at_smooth_zero(self, name):
        fn = make_loss(name, smooth=0.0)
        p, g = per_image_case((3, 4, 5), seed=31, empty=1)
        want = error_of(lambda: fn(p[1], g[1]))
        assert error_of(lambda: fn(p, g.view(Masks))) == want and want[0] is DegenerateDenominator

    @pytest.mark.parametrize("wrapped", [False, True])
    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_nan_pixel(self, name, wrapped):
        fn = wrap_loss_fn(make_loss(name)) if wrapped else make_loss(name)
        p, g = per_image_case((3, 4, 5), seed=41)
        p[1, 2, 3] = np.nan
        assert error_of(lambda: fn(p, g.view(Masks))) == error_of(lambda: fn(p[1], g[1]))

    @pytest.mark.parametrize("offence", ["nan-pixel", "bad-mask-value"])
    @pytest.mark.parametrize("empty_first", [True, False])
    @pytest.mark.parametrize("name", [name for name in LOSS_NAMES if "smooth" in loss_options(name)])
    def test_first_offending_image_decides_the_error(self, name, empty_first, offence):
        # one image has an empty mask at smooth 0, the other a NaN pixel or a mask value of 2
        fn = make_loss(name, smooth=0.0)
        p, g = per_image_case((2, 48, 48), seed=61, empty=0 if empty_first else 1)
        k = 1 if empty_first else 0
        if offence == "nan-pixel":
            p[k, 5, 7] = np.nan
        else:
            g[k, 5, 7] = 2
        want = error_of(lambda: fn(p[0], g[0]))
        assert (want[0] is DegenerateDenominator) == empty_first
        assert error_of(lambda: fn(p, g.view(Masks))) == want

    def test_first_offending_copy_decides_the_error(self):
        # copies share one mask: with a bad mask value, copy 0 alone raises the mask error before copy 1's NaN
        p, g = per_image_case((2, 4, 5), seed=71)
        g = g[0].copy()
        g[2, 2] = 2
        p[1, 0, 0] = np.nan
        want = error_of(lambda: soft_dice_loss(p[0], g))
        assert "mask values" in want[1]
        assert error_of(lambda: soft_dice_loss(p, g)) == want

    def test_wrapped_base_value_out_of_range_names_the_first_image(self):
        # images 1 and 2 predict the opposite of their masks, so their BCE exceeds 1 by different amounts
        fn = wrap_loss_fn(make_loss("bce"))
        p, g = per_image_case((3, 4, 5), seed=51)
        p[1:] = 1.0 - p[1:]
        p[2, 0, 3] = 0.5
        assert 1.0 < bce_loss(p[2], g[2]).value != bce_loss(p[1], g[1]).value > 1.0
        assert error_of(lambda: fn(p, g.view(Masks))) == error_of(lambda: fn(p[1], g[1]))


def quotient_grad_by_pixel(name, p, g, smooth):
    """An overlap loss's gradient as the quotient rule reads pixel by pixel, each pixel's (d num, d denom) from its own
    g_i, on rows of one image each; Tversky at its default weights."""
    g = g.astype(np.float64)
    inter = np.add.reduce(g * p, axis=-1, keepdims=True)
    size = np.add.reduce(g, axis=-1, keepdims=True) + np.add.reduce(p, axis=-1, keepdims=True)
    if name == "dice":
        num, denom, d_num, d_denom = 2.0 * inter + smooth, size + smooth, 2.0 * g, 1.0
    elif name == "jaccard":
        num, denom, d_num, d_denom = inter + smooth, size - inter + smooth, g, 1.0 - g
    else:
        a, b = 0.7, 0.3
        fn, fp = (np.add.reduce(x, axis=-1, keepdims=True) for x in (g * (1.0 - p), (1.0 - g) * p))
        num, denom, d_num, d_denom = inter + smooth, inter + a * fn + b * fp + smooth, g, g - a * g + b * (1.0 - g)
    return -(d_num * denom - num * d_denom) / (denom * denom)


class TestTwoLevelGradients:
    @pytest.mark.parametrize("smooth", [0.0, DEFAULT_SMOOTH])
    @pytest.mark.parametrize("wrapped", [False, True])
    @pytest.mark.parametrize("name", ["dice", "jaccard", "tversky", "focal-tversky"])
    def test_equal_the_per_pixel_formula(self, name, wrapped, smooth):
        # images with a mixed, an all-foreground and (where smoothing defines its loss) an empty mask, and
        # predictions at exactly 0 and 1
        rng = np.random.default_rng(81)
        p = rng.uniform(size=(3, 6, 7))
        p[:, 0, :2] = 0.0, 1.0
        g = (rng.uniform(size=p.shape) < 0.3).astype(np.uint8)
        g[1] = 1
        if smooth:
            g[2] = 0
        else:
            p, g = p[:2], g[:2]
        want = quotient_grad_by_pixel(name.removeprefix("focal-"), p.reshape(len(p), -1), g.reshape(len(g), -1),
                                      smooth)
        fn = make_loss(name, smooth=smooth)
        if name == "focal-tversky":  # the chain rule through v ** (1 / ft_gamma), as focal_tversky_loss takes it
            v = make_loss("tversky", smooth=smooth)(p, g.view(Masks)).value[:, None]
            expo = 1.0 / (4.0 / 3.0)
            want = np.where(v == 0.0, 0.0, expo * np.where(v == 0.0, 1.0, v) ** (expo - 1.0) * want)
        if wrapped:
            want = adaptive_log_derivative(fn(p, g.view(Masks)).value)[:, None] * want
            fn = wrap_loss_fn(fn)
        want = want.reshape(p.shape)
        got = fn(p, g.view(Masks)).grad
        np.testing.assert_array_equal(got, want, strict=True)
        assert got.tobytes() == want.tobytes()
        for k in range(len(p)):
            assert fn(p[k], g[k]).grad.tobytes() == want[k].tobytes()


class TestCheckedMasks:
    # the form model.train makes for masks it has checked, scoring outputs it has checked to be finite
    def test_skips_the_range_and_mask_scans(self):
        p, g = per_image_case((2, 4, 5), seed=91)
        want = soft_dice_loss(p, g.view(Masks))
        g = g.view(losses._CheckedMasks)
        got = soft_dice_loss(p, g)
        assert got.value.tobytes() == want.value.tobytes() and got.grad.tobytes() == want.grad.tobytes()
        g[0, 0, 0] = 2  # not checked again: a mask stays as it was checked
        soft_dice_loss(p, g)
        with pytest.raises(ValueError, match="mask values"):
            soft_dice_loss(p, np.asarray(g).view(Masks))

    @pytest.mark.parametrize("name", [name for name in LOSS_NAMES if "smooth" in loss_options(name)])
    def test_keep_the_shape_check_and_smoothing_rules(self, name):
        p, g = per_image_case((3, 4, 5), seed=31, empty=1)
        fn = make_loss(name, smooth=0.0)
        assert error_of(lambda: fn(p, g.view(losses._CheckedMasks))) == error_of(lambda: fn(p[1], g[1]))
        with pytest.raises(ValueError, match="shape mismatch"):
            fn(p, g[:2].view(losses._CheckedMasks))


# (selector, bad options): one case per range rule, and negative smooth on every selector that reads it
BAD_OPTIONS = [
    ("tversky", {"tversky_alpha": 0.0, "tversky_beta": 0.0}),
    ("focal-tversky", {"tversky_alpha": 0.0, "tversky_beta": 0.0}),
    ("tversky", {"tversky_beta": -0.1}),
    ("focal-tversky", {"tversky_beta": -0.1}),
    ("focal", {"focal_gamma": -0.5}),
    ("focal", {"focal_alpha": 0.0}),
    ("focal", {"focal_alpha": 1.5}),
    ("combo", {"mix": -0.1}),
    ("combo", {"mix": 1.5}),
    ("focal-tversky", {"ft_gamma": 0.0}),
    ("focal-tversky", {"ft_gamma": -1.0}),
] + [(name, {"smooth": -1.0}) for name in ("jaccard", "dice", "tversky", "combo", "focal-tversky")]


class TestMakeLoss:
    def test_known_selectors(self):
        for name in ("jaccard", "dice", "tversky", "focal", "combo", "focal-tversky", "bce"):
            ev = make_loss(name)(P4, G4)
            assert np.isfinite(ev.value)
            assert ev.grad.shape == P4.shape

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            make_loss("hinge")

    def test_unknown_selector_has_no_options(self):
        # loss_options raises make_loss's error, not a bare KeyError
        with pytest.raises(ValueError) as built:
            make_loss("nope")
        with pytest.raises(ValueError) as options:
            loss_options("nope")
        assert type(options.value) is ValueError and str(options.value) == str(built.value)
        assert str(options.value) == f"unknown loss selector 'nope' (known: {', '.join(LOSSES)})"

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

    @pytest.mark.parametrize("name, options", BAD_OPTIONS)
    def test_bad_option_rejected_at_build(self, name, options):
        # the rule lives in the kernel: make_loss raises its message before any call
        with pytest.raises(ValueError) as built:
            make_loss(name, **options)
        with pytest.raises(ValueError) as direct:
            getattr(losses, LOSSES[name])(P4, G4, **options)
        assert str(built.value) == str(direct.value)
        assert any(option in str(built.value) for option in options)

    def test_bad_option_table_covers_smooth_everywhere(self):
        reads_smooth = {name for name in LOSS_NAMES if "smooth" in loss_options(name)}
        assert reads_smooth == {"jaccard", "dice", "tversky", "combo", "focal-tversky"}
        assert {name for name, options in BAD_OPTIONS if "smooth" in options} == reads_smooth

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_nan_prediction_rejected(self, name):
        with pytest.raises(ValueError, match="predicted probabilities"):
            make_loss(name)(np.array([np.nan, 0.5]), np.array([1, 0]))

    def test_options_reach_the_kernel(self):
        ev = make_loss("focal-tversky", tversky_alpha=0.4, tversky_beta=0.6, ft_gamma=2.0, smooth=0.0)(P4, G4)
        ref = focal_tversky_loss(P4, G4, tversky_alpha=0.4, tversky_beta=0.6, ft_gamma=2.0, smooth=0.0)
        assert ev.value == ref.value
        np.testing.assert_array_equal(ev.grad, ref.grad)

    def test_loss_key(self):
        # one selector with equal options gives one key however often it is built; another function is its own key
        assert losses.loss_key(make_loss("tversky", tversky_alpha=0.4, smooth=0.0)) == losses.loss_key(
            make_loss("tversky", smooth=0.0, tversky_alpha=0.4))
        keys = [losses.loss_key(fn) for fn in (make_loss("dice"), make_loss("dice", smooth=0.0), make_loss("jaccard"),
                                               soft_dice_loss)]
        assert len(set(keys)) == len(keys)
        assert losses.loss_key(soft_dice_loss) == losses.loss_key(soft_dice_loss)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            soft_dice_loss([1.5, 0.5], [1, 0])
        with pytest.raises(ValueError):
            soft_dice_loss([0.5, 0.5], [2, 0])


# the library's owners of a float option: a selector name stands for make_loss(name, ...)
OPTION_OWNERS = {"AdaptiveLogParams": AdaptiveLogParams, "SynthSpec": SynthSpec,
                 **{name: functools.partial(make_loss, name) for name in LOSS_NAMES}}


@pytest.mark.parametrize("owner, option", [
    ("AdaptiveLogParams", "omega"), ("AdaptiveLogParams", "epsilon"), ("dice", "smooth"), ("focal", "focal_gamma"),
    ("tversky", "tversky_alpha"), ("tversky", "tversky_beta"), ("focal-tversky", "ft_gamma"),
    ("SynthSpec", "noise_sigma"),
])
def test_nan_option_rejected(owner, option):
    # a library caller passes floats unchecked: a NaN must fail the range check, not reach the arithmetic
    with pytest.raises(ValueError, match=option):
        OPTION_OWNERS[owner](**{option: math.nan})
