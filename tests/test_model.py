import multiprocessing
import pickle
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import segbench.model as model
from segbench.adaptive import AdaptiveLogParams
from segbench.cli import EXIT_OK, main
from segbench.losses import LossEval, make_loss
from segbench.model import AdamState, EpochRow, TinyNet, TrainConfig, TrainingDiverged, adam_step, backward, forward, train
from segbench.synthdata import SynthSpec, generate, train_val_split


def zero_net():
    net = TinyNet.init(seed=0)
    for k in net.params:
        net.params[k] = np.zeros_like(net.params[k])
    return net


class TestForward:
    def test_zero_weights_give_half(self):
        img = np.random.default_rng(0).uniform(size=(10, 10))
        p = forward(zero_net(), img)
        np.testing.assert_array_equal(p, np.full((10, 10), 0.5))

    def test_output_shape_matches_input(self):
        net = TinyNet.init(seed=1)
        for shape in ((8, 8), (16, 24)):
            assert forward(net, np.zeros(shape)).shape == shape

    def test_outputs_are_probabilities(self):
        net = TinyNet.init(seed=2)
        p = forward(net, np.random.default_rng(1).uniform(size=(16, 16)))
        assert np.all((p > 0) & (p < 1))

    def test_golden_regression(self):
        # frozen from the first correct build; guards bit-stability of
        # init + forward across refactors
        net = TinyNet.init(seed=123)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([99])))
        img = rng.uniform(0, 1, size=(12, 12))
        p = forward(net, img)
        assert float(p.sum()) == pytest.approx(75.17168513205226, abs=1e-12)
        assert float(p[3, 4]) == pytest.approx(0.482487175964123, abs=1e-15)
        assert float(p[11, 0]) == pytest.approx(0.6935847800762827, abs=1e-15)

    def test_rejects_non_2d_or_3d(self):
        with pytest.raises(ValueError):
            forward(TinyNet.init(), np.zeros((2, 3, 3, 3)))
        with pytest.raises(ValueError):
            forward(TinyNet.init(), np.zeros(9))


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        net = TinyNet.init(seed=3)
        img = np.random.default_rng(2).uniform(size=(8, 8))
        grads = backward(net, img, np.zeros((8, 8)))
        for v in grads.values():
            assert not np.any(v)

    def test_linearity_in_upstream(self):
        net = TinyNet.init(seed=4)
        rng = np.random.default_rng(3)
        img = rng.uniform(size=(8, 8))
        up = rng.normal(size=(8, 8))
        g1 = backward(net, img, up)
        g2 = backward(net, img, 2.0 * up)
        for k in g1:
            np.testing.assert_allclose(g2[k], 2.0 * g1[k], rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        net = TinyNet.init(seed=5)
        with pytest.raises(ValueError):
            backward(net, np.zeros((8, 8)), np.zeros((4, 4)))

    def test_batch_equals_per_image_sum(self):
        # one (B, H, W) call gives each image's forward and the image-order sum of
        # its per-image gradients, bit for bit
        net = TinyNet.init(seed=7)
        rng = np.random.default_rng(5)
        imgs = rng.uniform(size=(16, 48, 48))
        ups = rng.normal(size=(16, 48, 48))
        p = forward(net, imgs)
        for b in range(16):
            np.testing.assert_array_equal(p[b], forward(net, imgs[b]))
        total = {k: np.zeros_like(v) for k, v in net.params.items()}
        for b in range(16):
            for k, g in backward(net, imgs[b], ups[b]).items():
                total[k] = total[k] + g
        batched = backward(net, imgs, ups, p=p)
        assert set(batched) == {"w1", "b1", "w2", "b2"}
        for k in total:
            assert batched[k].shape == net.params[k].shape
            np.testing.assert_array_equal(batched[k], total[k])

    def test_inputs_and_earlier_results_untouched(self):
        # forward and backward write into per-call buffers: none of them may be an input,
        # the net's weights or an array a previous call returned
        net = TinyNet.init(seed=8)
        rng = np.random.default_rng(6)
        imgs = rng.uniform(size=(4, 12, 12))
        ups = rng.normal(size=(4, 12, 12))
        saved = {k: v.copy() for k, v in net.params.items()}
        imgs_copy, ups_copy = imgs.copy(), ups.copy()
        p = forward(net, imgs)
        p_copy = p.copy()
        g = backward(net, imgs, ups, p=p)
        g_copy = {k: v.copy() for k, v in g.items()}
        backward(net, imgs[::-1], ups[::-1])
        for b in range(4):  # later forward calls, each checked against the batch's first result
            np.testing.assert_array_equal(forward(net, imgs[b]), p_copy[b])
        np.testing.assert_array_equal(imgs, imgs_copy)
        np.testing.assert_array_equal(ups, ups_copy)
        np.testing.assert_array_equal(p, p_copy)
        for k in saved:
            np.testing.assert_array_equal(net.params[k], saved[k])
            np.testing.assert_array_equal(g[k], g_copy[k])

    def test_peak_memory_bounded_by_batch_size(self):
        # guards against keeping (B, 8, H, W) hidden activations, which breaks the
        # training run's memory budget; a few batch-sized buffers per call are fine
        net = TinyNet.init(seed=9)
        rng = np.random.default_rng(7)
        imgs = rng.uniform(size=(16, 48, 48))
        ups = rng.normal(size=(16, 48, 48))
        p = forward(net, imgs)
        for call in (lambda: forward(net, imgs), lambda: backward(net, imgs, ups, p=p)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 12 * imgs.nbytes

    @pytest.mark.parametrize("loss_name", ["dice", "jaccard", "focal"])
    def test_full_network_gradient_vs_finite_differences(self, loss_name):
        net = TinyNet.init(seed=6)
        rng = np.random.default_rng(4)
        img = rng.uniform(size=(8, 8))
        g = (rng.uniform(size=(8, 8)) < 0.4).astype(np.int64)
        loss_fn = make_loss(loss_name)
        p = forward(net, img)
        analytic = backward(net, img, loss_fn(p, g).grad, p=p)
        step = 1e-5
        for _ in range(20):
            key = ("w1", "b1", "w2", "b2")[int(rng.integers(4))]
            arr = net.params[key]
            idx = tuple(int(rng.integers(s)) for s in arr.shape)
            orig = arr[idx] if arr.shape else float(arr)
            arr[idx if arr.shape else ...] = orig + step
            f_hi = loss_fn(forward(net, img), g).value
            arr[idx if arr.shape else ...] = orig - step
            f_lo = loss_fn(forward(net, img), g).value
            arr[idx if arr.shape else ...] = orig
            fd = (f_hi - f_lo) / (2 * step)
            a = analytic[key][idx] if arr.shape else float(analytic[key])
            assert abs(a - fd) / max(abs(a), abs(fd), 1e-3) < 1e-4


class TestAdam:
    def test_zero_gradient_no_update(self):
        state = AdamState(lr=0.1)
        params = {"w": np.array([1.0, -2.0])}
        adam_step(state, params, {"w": np.zeros(2)})
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_first_step_is_lr_times_sign(self):
        state = AdamState(lr=1e-3)
        params = {"w": np.zeros(3)}
        g = np.array([0.5, -2.0, 1e-3])
        adam_step(state, params, {"w": g})
        # bias-corrected first step: -lr * g / (|g| + eps') ~ -lr * sign(g)
        np.testing.assert_allclose(params["w"], -1e-3 * np.sign(g), rtol=1e-4)

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        state = AdamState(lr=1e-3)
        params = {"w": np.array([0.0])}
        g = {"w": np.array([0.37])}
        prev = params["w"].copy()
        for _ in range(10_000):
            prev = params["w"].copy()
            adam_step(state, params, g)
        step_mag = abs(params["w"][0] - prev[0])
        assert abs(step_mag - 1e-3) < 1e-3 * 1e-3

    def test_step_counter(self):
        state = AdamState()
        adam_step(state, {"w": np.zeros(1)}, {"w": np.ones(1)})
        assert state.step == 1


def tiny_dataset(fg=0.3, sigma=0.05, n=16, seed=0, size=16):
    spec = SynthSpec(width=size, height=size, fg_fraction_target=fg, n_images=n, noise_sigma=sigma, seed=seed)
    return train_val_split(generate(spec), 0.8, seed=seed)


class TestTrain:
    def test_optimizer_step_count(self, monkeypatch):
        calls = []
        real = model.adam_step
        monkeypatch.setattr(model, "adam_step", lambda *a: calls.append(1) or real(*a))
        spec = SynthSpec(width=16, height=16, fg_fraction_target=0.3, n_images=40, noise_sigma=0.05, seed=1)
        train_set, val_set = train_val_split(generate(spec), 0.8, seed=1)  # 32 train images
        cfg = TrainConfig(batch_size=16, max_epochs=1, seed=0)
        train(cfg, train_set, val_set)
        assert len(calls) == 2

    def test_golden_epoch_rows(self):
        # frozen from the per-image training loop; guards the batched loop's bit-stability
        # (12 training images in batches of 5, so the last batch holds 2)
        train_set, val_set = tiny_dataset(seed=2)
        cfg = TrainConfig(lr=0.1, batch_size=5, max_epochs=2, loss="dice", seed=5)
        rec = train(cfg, train_set, val_set)
        assert rec.epochs == [
            EpochRow(0, 0.5572122181715223, 0.2869561887254902, 0.44551993570369985, 1.0,
                     0.004072187691835482, 0.44551993570369985),
            EpochRow(1, 0.47037081988400425, 0.7630353169447519, 0.8651058670075416, 0.9831045462213226,
                     0.8834444039218932, 0.8651058670075416),
        ]
        assert rec.final_auc == 0.9914605734348665

    def test_determinism(self):
        train_set, val_set = tiny_dataset(seed=2)
        cfg = TrainConfig(lr=1e-2, batch_size=8, max_epochs=3, loss="dice", seed=5)
        a = train(cfg, train_set, val_set)
        b = train(cfg, train_set, val_set)
        assert a.epochs == b.epochs
        assert a.final_auc == b.final_auc

    def test_learns_easy_data(self):
        # easy synthetic blobs: final validation Jaccard > 0.8
        spec = SynthSpec(width=16, height=16, fg_fraction_target=0.3, n_images=64, noise_sigma=0.05, seed=3)
        train_set, val_set = train_val_split(generate(spec), 0.8, seed=3)
        cfg = TrainConfig(lr=1e-2, batch_size=16, max_epochs=30, loss="dice", seed=0)
        rec = train(cfg, train_set, val_set)
        assert rec.epochs[-1].val_jaccard > 0.8

    def test_record_schema(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["train", "--width", "16", "--height", "16", "--n-images", "16", "--fg-fraction", "0.3",
                     "--noise-sigma", "0.05", "--data-seed", "4", "--batch-size", "8", "--epochs", "2",
                     "--seed", "1", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_jaccard,val_dice,val_recall,val_specificity,val_f1"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]

    def test_divergence_diagnostic(self, monkeypatch):
        def nan_loss(name, **kw):
            return lambda p, g: LossEval(float("nan"), np.zeros_like(np.asarray(p)))

        monkeypatch.setattr(model, "make_loss", nan_loss)
        train_set, val_set = tiny_dataset(seed=5)
        cfg = TrainConfig(batch_size=8, max_epochs=2, seed=0)
        with pytest.raises(TrainingDiverged) as exc:
            train(cfg, train_set, val_set)
        assert exc.value.epoch == 0
        assert exc.value.batch == 0

    def test_adaptive_wrapped_training_runs(self):
        train_set, val_set = tiny_dataset(seed=6)
        cfg = TrainConfig(
            lr=1e-2, batch_size=8, max_epochs=3, loss="dice",
            adaptive_wrap=True, adaptive_params=AdaptiveLogParams(), seed=0,
        )
        rec = train(cfg, train_set, val_set)
        assert all(np.isfinite(r.train_loss) for r in rec.epochs)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=51)


def _raise_diverged(epoch):
    raise TrainingDiverged(epoch, 3, "loss nan")


class TestTrainingDiverged:
    def _same(self, got, want):
        assert type(got) is TrainingDiverged
        assert (str(got), got.epoch, got.batch) == (str(want), want.epoch, want.batch)

    def test_pickle_round_trip(self):
        err = TrainingDiverged(2, 3, "loss nan")
        self._same(pickle.loads(pickle.dumps(err)), err)

    def test_crosses_a_process_pool(self):
        # raised in a worker, it must reach the parent intact rather than break the pool
        with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn")) as pool:
            with pytest.raises(TrainingDiverged) as exc:
                pool.submit(_raise_diverged, 2).result(timeout=120)
        self._same(exc.value, TrainingDiverged(2, 3, "loss nan"))
