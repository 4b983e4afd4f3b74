import math
import pickle
import sys

import numpy as np
import pytest

from segbench import adaptive, cli, model
from segbench.adaptive import (
    AdaptiveLogParams,
    adaptive_log_derivative,
    adaptive_log_forward,
    adaptive_log_wrap,
    derivative_jump,
    wrap_loss_fn,
)
from segbench.losses import LOSS_NAMES, LossEval, Masks, finite_difference_grad, make_loss, soft_dice_loss
from segbench.synthdata import SynthSpec, generate, train_val_split
from test_model import built

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

    @pytest.mark.parametrize("form", ["one-image", "copies", "Masks"])
    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_composed_finite_differences_log_branch(self, name, form):
        # every base value below gamma, where the slope omega/(epsilon+x) reaches 20x. Focal misses by more: at 0.03
        # its base is about 3e-5 and its finite differences keep fewer digits (errors up to 1e-6)
        rng = np.random.default_rng(2)
        lead = () if form == "one-image" else (3,)
        g = (rng.uniform(size=(lead if form == "Masks" else ()) + (32,)) < 0.5).astype(np.int64)
        miss = 0.15 if name == "focal" else 0.03
        p = np.clip(np.where(g == 1, 1.0 - miss, miss) + rng.uniform(-0.02, 0.02, lead + (32,)), 0.01, 0.99)
        fn = make_loss(name)
        stacked = g.view(Masks) if form == "Masks" else g
        assert (np.asarray(fn(p, stacked).value) < DEFAULTS.gamma).all()
        grad = wrap_loss_fn(fn)(p, stacked).grad
        for k in np.ndindex(lead):  # each copy or image against the finite differences of its own call
            fd = finite_difference_grad(wrap_loss_fn(fn), p[k], g[k] if form == "Masks" else g, step=1e-6)
            assert cli._max_rel_err(grad[k], fd) < 1e-6

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


def _misses(shape, img, seed, per_image=False):
    """Predictions of ``shape`` over ``img``-shaped masks, each about as far from its mask as its Dice loss, from 0.02
    (below gamma) to 0.45 (above), and the masks: one of its own per prediction, or else one for all."""
    rng = np.random.default_rng(seed)
    if per_image:
        g = (rng.uniform(size=shape + img) < 0.5).astype(np.uint8)
    else:
        g = np.zeros(img, dtype=np.uint8)
        g.flat[::2] = 1
    miss = np.linspace(0.02, 0.45, math.prod(shape)).reshape(shape + (1,) * len(img))
    return np.where(g == 1, 1.0 - miss, miss) + rng.uniform(-0.01, 0.01, shape + img), g


def _wrapped(how, loss_fn, p, g):
    return adaptive_log_wrap(loss_fn(p, g)) if how == "adaptive_log_wrap" else wrap_loss_fn(loss_fn)(p, g)


@pytest.mark.parametrize("how", ["adaptive_log_wrap", "wrap_loss_fn"])
class TestStackedBase:
    """A stacked base wraps each copy or image on its own: bit for bit what one call per copy or image gives."""

    @staticmethod
    def _assert_as_alone(how, p, g, lead):
        """``g`` is one mask, or one per image of ``p``, which the call views as Masks."""
        per_image = g.ndim == p.ndim
        stacked = g.view(Masks) if per_image else g
        base = soft_dice_loss(p, stacked).value
        assert (base < DEFAULTS.gamma).any() and (base > DEFAULTS.gamma).any()
        got = _wrapped(how, soft_dice_loss, p, stacked)
        alone = [_wrapped(how, soft_dice_loss, p[k], g[k] if per_image else g) for k in np.ndindex(lead)]
        assert got.value.tobytes() == np.array([a.value for a in alone]).tobytes()
        assert got.grad.tobytes() == np.stack([a.grad for a in alone]).tobytes()

    @pytest.mark.parametrize("images", [5, 3])
    def test_masks_stack(self, how, images):
        p, g = _misses((images,), (5, 5), seed=images, per_image=True)
        self._assert_as_alone(how, p, g, (images,))

    @pytest.mark.parametrize("copies, img", [((4,), (4,)), ((2, 3), (5, 5))])
    def test_copies_stack(self, how, copies, img):
        p, g = _misses(copies, img, seed=len(copies))
        self._assert_as_alone(how, p, g, copies)


@pytest.mark.parametrize("name", LOSS_NAMES)
def test_one_image_wrap_loss_fn_is_adaptive_log_wrap(name):
    fn = make_loss(name)
    p, g = _misses((2,), (6, 6), seed=5)
    for k in range(2):
        got, want = wrap_loss_fn(fn)(p[k], g), adaptive_log_wrap(fn(p[k], g))
        assert type(got.value) is float and np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
        assert got.grad.tobytes() == want.grad.tobytes()


def _rebind(monkeypatch, original, replacement):
    """Rebind every name a segbench module has for ``original``, as perfbench's tracer does."""
    for name, module in list(sys.modules.items()):
        if name == "segbench" or name.startswith("segbench."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


class TestProbeContract:
    """perfbench's tracer rebinds ``adaptive_log_wrap`` and reads ``float(base.value)`` on each call, so only a
    caller holding one image's base may call it by that name: gradcheck, never a wrapped loss."""

    def test_wrapped_losses_and_training_do_not_call_it(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("adaptive_log_wrap called")

        _rebind(monkeypatch, adaptive.adaptive_log_wrap, refuse)
        fn = wrap_loss_fn(soft_dice_loss)
        p, g = _misses((3,), (5, 5), seed=3, per_image=True)
        for ev in (fn(p[0], g[0]), fn(p, g[0]), fn(p, g.view(Masks))):
            assert np.isfinite(ev.grad).all()
        halves = train_val_split(generate(SynthSpec(width=16, height=16, n_images=10, fg_fraction_target=0.2)), 0.8)
        configs = [model.TrainConfig(lr=0.01, batch_size=4, max_epochs=2,
                                     loss_fn=wrap_loss_fn(make_loss("dice"), AdaptiveLogParams(omega=w)))
                   for w in (6.0, 10.0)]
        assert all(isinstance(rec, model.RunRecord) for rec in model.train(configs, *halves))

    def test_gradcheck_hands_it_one_float_per_checked_wrapped_trial(self, monkeypatch):
        seen, original = [], adaptive.adaptive_log_wrap

        def spy(base, params=DEFAULTS):
            seen.append(type(base.value))
            return original(base, params)

        _rebind(monkeypatch, original, spy)
        lines = []
        assert cli.run_gradcheck(trials=5, tolerance=1e-6, net_tolerance=1e-4, seed=0, report=lines.append)
        checked = sum(int(line.split()[-2]) for line in lines if "+wrap:" in line and line.endswith(" trials"))
        assert checked > 0 and seen == [float] * checked


def _built(name, wrapped):
    return built(name, AdaptiveLogParams(omega=8.0) if wrapped else None)


class TestBuiltLosses:
    """``--jobs`` pickles each config's built loss into its workers, and perfbench's tracer rebinds the kernels after
    the losses are built: a built loss survives both."""

    @pytest.mark.parametrize("wrapped", [False, True], ids=["plain", "wrapped"])
    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_pickle_round_trip(self, name, wrapped):
        fn = _built(name, wrapped)
        clone = pickle.loads(pickle.dumps(fn))
        p, g = _misses((3,), (5, 5), seed=4, per_image=True)
        for args in ((p[0], g[0]), (p, g.view(Masks))):
            want, got = fn(*args), clone(*args)
            assert np.asarray(got.value).tobytes() == np.asarray(want.value).tobytes()
            assert got.grad.tobytes() == want.grad.tobytes()

    @pytest.mark.parametrize("wrapped", [False, True], ids=["plain", "wrapped"])
    def test_a_built_loss_calls_the_rebound_kernel(self, monkeypatch, wrapped):
        fn, real, seen = _built("dice", wrapped), soft_dice_loss, []
        _rebind(monkeypatch, real, lambda p, g, **options: seen.append(np.shape(p)) or real(p, g, **options))
        p, g = _misses((3,), (5, 5), seed=4, per_image=True)
        ev = fn(p, g.view(Masks))
        assert seen == [(3, 5, 5)]
        assert np.asarray(ev.value).tobytes() == np.asarray(_built("dice", wrapped)(p, g.view(Masks)).value).tobytes()

    @pytest.mark.parametrize("wrapped", [False, True], ids=["plain", "wrapped"])
    def test_training_calls_the_rebound_kernel(self, monkeypatch, wrapped):
        # 8 training images in batches of 4 for 2 epochs: one loss call per batch
        halves = train_val_split(generate(SynthSpec(width=16, height=16, n_images=10, fg_fraction_target=0.2)), 0.8)
        config = model.TrainConfig(lr=0.01, batch_size=4, max_epochs=2, loss_fn=_built("dice", wrapped))
        real, seen = soft_dice_loss, []
        _rebind(monkeypatch, real, lambda p, g, **options: seen.append(np.shape(p)) or real(p, g, **options))
        (rec,) = model.train([config], *halves)
        assert isinstance(rec, model.RunRecord)
        assert seen == [(4, 16, 16)] * 4


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
