import dataclasses
import itertools
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import segbench.adaptive as adaptive
import segbench.losses as losses
import segbench.metrics as metrics
import segbench.model as model
from segbench.adaptive import AdaptiveLogParams, split_wrapped, wrap_loss_fn
from segbench.cli import EXIT_OK, main
from segbench.losses import LOSS_NAMES, LossEval, make_loss
from segbench.model import (AdamState, EpochRow, RunRecord, TinyNet, TrainConfig, TrainingDiverged, adam_step,
                            backward, evaluate, forward, train)
from segbench.synthdata import Sample, SynthSpec, generate, train_val_split


def built(name, params=None):
    """The loss ``segbench`` builds for selector ``name``, wrapped with ``params`` when they are given."""
    return make_loss(name) if params is None else wrap_loss_fn(make_loss(name), params)


def train_alone(config, train_set, val_set):
    """One config trained by itself, as ``segbench train`` does: its record, or its divergence raised."""
    (rec,) = train([config], train_set, val_set)
    if isinstance(rec, TrainingDiverged):
        raise rec
    return rec


def zero_net():
    net = TinyNet.init(seed=0)
    for k in net.params:
        net.params[k] = np.zeros_like(net.params[k])
    return net


def _reference_forward(net, image):
    """forward by definition: zero-pad with np.pad, then sum every 3x3 tap of every channel in a loop."""
    hgt, wid = image.shape[-2:]

    def padded(a):
        return np.pad(a, [(0, 0)] * (a.ndim - 2) + [(1, 1), (1, 1)])

    xp = padded(image)
    z = np.full(image.shape, float(net.params["b2"]))
    for c in range(8):
        hc = np.full(image.shape, net.params["b1"][c])
        for i in range(3):
            for j in range(3):
                hc = hc + net.params["w1"][c, i, j] * xp[..., i : i + hgt, j : j + wid]
        hp = padded(np.maximum(hc, 0.0))
        for i in range(3):
            for j in range(3):
                z = z + net.params["w2"][c, i, j] * hp[..., i : i + hgt, j : j + wid]
    return 1.0 / (1.0 + np.exp(-z))


def _masked_sigmoid(z):
    """The boolean-mask form of the sigmoid: each branch evaluated only where it applies."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _clipped_slices(hgt, wid):
    """Per 3x3 tap (i, j), row-major, ``(to, frm)`` with ``tap[to] = map[frm]`` for 2-D maps shifted by
    (i - 1, j - 1) and clipped at the image edge."""
    rows, cols = ([(slice(max(-d, 0), n - max(d, 0)), slice(max(d, 0), n - max(-d, 0))) for d in (-1, 0, 1)]
                  for n in (hgt, wid))
    return [((..., yt, xt), (..., yf, xf)) for (yt, yf), (xt, xf) in itertools.product(rows, cols)]


def _clipped_taps(maps):
    """The nine zero-padded taps of (b, H, W) maps as (b, 9, H*W): each copied through its clipped 2-D slices
    into a zeroed stack."""
    taps = np.zeros((len(maps), 9, *maps.shape[1:]))
    for k, (to, frm) in enumerate(_clipped_slices(*maps.shape[1:])):
        taps[:, k][to] = maps[frm]
    return taps.reshape(len(maps), 9, -1)


def _clipped_hidden(net, images):
    """Taps and hidden maps relu(w1 @ T + b1) of (B, H, W) images, one matmul per image."""
    tb = _clipped_taps(images)
    return tb, np.maximum(np.matmul(net.params["w1"].reshape(8, -1), tb) + net.params["b1"][:, None], 0.0)


def _clipped_forward(net, images):
    """forward of (B, H, W) images by clipped 2-D slices: conv2 starts from the centre map of U = w2ᵀ @ h and adds
    the other eight, each through its tap's clipped slices, in tap order; then b2 and the sigmoid."""
    u = np.matmul(net.params["w2"].reshape(8, -1).T, _clipped_hidden(net, images)[1])
    u = u.reshape(-1, 9, *images.shape[1:])
    z = u[:, 4].copy()
    for k, (to, frm) in enumerate(_clipped_slices(*images.shape[1:])):
        if k != 4:
            z[to] += u[:, k][frm]
    return _masked_sigmoid(z + net.params["b2"])


def _same_bytes(got, want):
    np.testing.assert_array_equal(got, want, strict=True)  # reports the first values that differ
    assert got.tobytes() == want.tobytes()  # and the signs of zeros


def _reference_backward(net, images, up, p):
    """Gradients as two passes computed them: dz2 from forward's output p, then the taps and hidden maps rebuilt
    from the images, one matmul per image, summed in image order."""
    dz2 = up * p * (1.0 - p)
    tb, hb = _clipped_hidden(net, images)
    db = _clipped_taps(dz2)
    zb = np.matmul(net.params["w2"][:, ::-1, ::-1].reshape(8, -1), db) * (hb > 0.0)
    per_image = {"w1": np.matmul(zb, tb.transpose(0, 2, 1)), "b1": zb.sum(axis=-1),
                 "w2": np.matmul(hb, db.transpose(0, 2, 1))[..., ::-1], "b2": dz2.sum(axis=(-2, -1))}
    return {k: model._sum_images(v).reshape(net.params[k].shape) for k, v in per_image.items()}


def _reference_step(net, batch, loss_fn):
    """A training step as two passes: forward on the whole batch, one loss call per image, then backward."""
    images = np.stack([s.image for s in batch])
    p = _clipped_forward(net, images)
    up, total = np.empty_like(p), 0.0
    for k, s in enumerate(batch):
        ev = loss_fn(p[k], s.mask)
        total += ev.value
        up[k] = ev.grad / len(batch)
    return total / len(batch), _reference_backward(net, images, up, p)


def _reference_train(config, train_set, val_set):
    """train's record from a loop of reference steps, each epoch validated one image at a time by clipped slices."""
    net, opt, loss_fn, rows = TinyNet.init(seed=config.seed), AdamState(lr=config.lr), config.loss_fn, []
    # as train does: a divergence shows in the records, not in numpy's overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.max_epochs):
            order = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, 11, epoch])))
            order = order.permutation(len(train_set))
            losses = []
            for start in range(0, len(train_set), config.batch_size):
                batch = [train_set[i] for i in order[start : start + config.batch_size]]
                loss, grads = _reference_step(net, batch, loss_fn)
                adam_step(opt, net.params, grads)
                losses.append(loss)
            means, preds = _per_image_evaluate(net, val_set, lambda net, image: _clipped_forward(net, image[None])[0])
            rows.append(EpochRow(epoch, float(np.mean(losses)), **{f"val_{k}": v for k, v in means.items()}))
    return RunRecord(epochs=rows, val_preds=preds, val_masks=[s.mask for s in val_set])


def _loss_upstream(masks, loss_fn, values):
    """A training step's ``upstream`` for model._step on a one-run stack: one loss call per image of the block's one
    run, its value appended to ``values``."""
    def upstream(runs, rows, p):
        assert len(runs) == len(p) == 1
        up = np.empty_like(p)
        for k, g in enumerate(masks[rows]):
            ev = loss_fn(p[0, k], g)
            values.append(ev.value)
            up[0, k] = ev.grad / len(masks)
        return up
    return upstream


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

    # (1, 1) clips every shifted tap to nothing; (1, 100, 100) exceeds the chunk budget
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2), (3, 7, 11), (1, 100, 100)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_matches_padded_loop_reference(self, shape):
        net = TinyNet.init(seed=16)
        rng = np.random.default_rng(12)
        net.params["b1"], net.params["b2"] = rng.normal(size=8), np.array(rng.normal())
        img = rng.uniform(size=shape)
        np.testing.assert_allclose(forward(net, img), _reference_forward(net, img), rtol=1e-13)

    # the shapes above, plus batches of several chunks: 16 images of 48x48 in chunks of 2, 8 of 16x16 in one
    # chunk, 3 of 128x128 in chunks of 1
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2), (3, 7, 11), (1, 100, 100), (16, 48, 48),
                                       (8, 16, 16), (3, 128, 128)], ids=lambda s: "x".join(map(str, s)))
    def test_bytes_equal_clipped_slices(self, shape):
        # the flat shifts copy the same taps and add the same terms, plus exact zeros where the clipped
        # slices skip one, so the taps, the output and the gradients keep every bit
        net = TinyNet.init(seed=16)
        rng = np.random.default_rng(12)
        net.params["b1"], net.params["b2"] = rng.normal(size=8), np.array(rng.normal())
        img, up = rng.uniform(-1.0, 1.0, size=shape), rng.normal(size=shape)
        x, ups = img.reshape(-1, *shape[-2:]), up.reshape(-1, *shape[-2:])
        _same_bytes(model._stacked_taps(np.empty((len(x), 9, *x.shape[1:])), x), _clipped_taps(x))
        p = _clipped_forward(net, x)
        _same_bytes(forward(net, img), p.reshape(shape))
        got, want = backward(net, img, up), _reference_backward(net, x, ups, p)
        for k in want:
            _same_bytes(got[k], want[k])

    # 5 images of 48x48 run as chunks of 2, 2 and 1; in the one-row and one-column images the frame rows and the
    # wrapped columns overlap
    # and three runs side by side: at 48x48 they make blocks of two runs and one
    @pytest.mark.parametrize("runs", [None, 3])
    @pytest.mark.parametrize("shape", [(5, 48, 48), (3, 1, 1), (3, 1, 7), (3, 7, 1)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_stale_buffers_are_rewritten(self, shape, runs, monkeypatch):
        # every chunk buffer starts as NaN: a frame or wrapped-column element that a chunk does not rewrite
        # would reach the output or the gradients
        net = TinyNet.init(seed=18, runs=runs)
        rng = np.random.default_rng(16)
        img, up = rng.uniform(size=shape), rng.normal(size=shape)
        want_p, want = forward(net, img), backward(net, img, up)
        real = model._chunk_buffers

        def nan_buffers(x, runs, step, ws):
            out = real(x, runs, step, ws)
            for a in ws:
                a.fill(np.nan)
            return out

        monkeypatch.setattr(model, "_chunk_buffers", nan_buffers)
        _same_bytes(forward(net, img), want_p)
        got = backward(net, img, up)
        for k in want:
            _same_bytes(got[k], want[k])

    def test_sigmoid_bytes_equal_the_where_form(self):
        # the numerator max(e, z >= 0) is np.where(z >= 0, 1.0, e): e <= 1, and a NaN passes through
        edges = np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 1e-300, -1e-300, np.inf, -np.inf, np.nan,
                          5e-324, -5e-324, 2.2e-308, -2.2e-308])
        for z in (edges, np.random.default_rng(14).normal(scale=30.0, size=(2, 2, 48, 48))):
            e = np.exp(-np.abs(z))
            assert model._sigmoid(z).tobytes() == (np.where(z >= 0, 1.0, e) / (1.0 + e)).tobytes()

    def test_sigmoid_bytes_equal_masked_form(self):
        edges = np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 1e-300, -1e-300, np.inf, -np.inf, 5e-324, -5e-324])
        for z in (edges, np.random.default_rng(13).normal(scale=10.0, size=(16, 48, 48))):
            assert model._sigmoid(z).tobytes() == _masked_sigmoid(z).tobytes()

    def test_peak_memory_near_output_size(self):
        # a batch of eval-large's shape, 48 images of 128x128: beside its input and output, a call may hold one
        # chunk's buffers, not a batch-sized z2 or sigmoid temporaries (evaluate hands forward a list of the
        # images, which it stacks one chunk at a time: TestEvaluate's guard)
        net = TinyNet.init(seed=9)
        imgs = np.random.default_rng(7).uniform(size=(48, 128, 128))
        tracemalloc.start()
        try:
            forward(net, imgs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * imgs.nbytes


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

    @pytest.mark.parametrize("runs", [None, 3])
    def test_empty_batch_rejected(self, runs):
        # forward maps an empty batch to an empty map; a gradient summed over no images is rejected by name
        net = TinyNet.init(seed=5, runs=runs)
        assert forward(net, np.zeros((0, 4, 4))).shape == ((0, 4, 4) if runs is None else (runs, 0, 4, 4))
        with pytest.raises(ValueError, match="image batch must be non-empty"):
            backward(net, np.zeros((0, 4, 4)), np.zeros((0, 4, 4)))

    # the training batch; a batch that is not a multiple of backward's chunk; one image larger
    # than the chunk budget; non-square images
    @pytest.mark.parametrize("shape", [(16, 48, 48), (5, 48, 48), (1, 100, 100), (3, 7, 11)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_batch_equals_per_image_sum(self, shape):
        # one (B, H, W) call gives each image's forward and the image-order sum of
        # its per-image gradients, bit for bit
        net = TinyNet.init(seed=7)
        rng = np.random.default_rng(5)
        imgs = rng.uniform(size=shape)
        ups = rng.normal(size=shape)
        p = forward(net, imgs)
        _same_bytes(forward(net, list(imgs)), p)  # a list of the images, stacked one chunk at a time
        for b in range(shape[0]):
            np.testing.assert_array_equal(p[b], forward(net, imgs[b]))
        total = {k: np.zeros_like(v) for k, v in net.params.items()}
        for b in range(shape[0]):
            for k, g in backward(net, imgs[b], ups[b]).items():
                total[k] = total[k] + g
        batched = backward(net, imgs, ups)
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
        g = backward(net, imgs, ups)
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
        masks = (rng.uniform(size=imgs.shape) < 0.3).astype(np.int64)
        step = _loss_upstream(masks, make_loss("dice"), [])
        for call in (lambda: forward(net, imgs), lambda: backward(net, imgs, ups),
                     lambda: model._step(model._one_run(net), imgs, step, [])):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 12 * imgs.nbytes

    @pytest.mark.parametrize("wrapped", [False, True], ids=["dice", "dice+wrap"])
    def test_fused_step_equals_two_passes(self, wrapped):
        # 7 images of 48x48 make chunks of 2, 2, 2 and 1: the fused step's loss values and gradient bytes, on a
        # one-run stack, equal forward on the whole batch, one loss call per image, then a separate backward
        net = TinyNet.init(seed=17)
        batch = _random_samples(np.random.default_rng(14), [(48, 48)] * 7)
        loss_fn = built("dice", AdaptiveLogParams() if wrapped else None)
        want_loss, want = _reference_step(net, batch, loss_fn)
        values = []
        got = model._step(model._one_run(net), np.stack([s.image for s in batch]),
                          _loss_upstream(np.stack([s.mask for s in batch]), loss_fn, values), [])
        assert len(values) == 7
        assert model._sum_images(np.array(values)) / 7 == want_loss
        for k in want:
            assert got[k].shape == (1, *want[k].shape)
            assert got[k].tobytes() == want[k].tobytes()

    @pytest.mark.parametrize("loss_name", ["dice", "jaccard", "focal"])
    def test_full_network_gradient_vs_finite_differences(self, loss_name):
        # the non-square image catches a swapped H/W or a wrong tap flip
        for shape in ((8, 8), (7, 11)):
            net = TinyNet.init(seed=6)
            rng = np.random.default_rng(4)
            img = rng.uniform(size=shape)
            g = (rng.uniform(size=shape) < 0.4).astype(np.int64)
            loss_fn = make_loss(loss_name)
            p = forward(net, img)
            analytic = backward(net, img, loss_fn(p, g).grad)
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

    def test_gradients_do_not_depend_on_blas_threads(self):
        # OpenBLAS may split a matrix product over threads; the output and gradient bytes must not change
        script = (
            "import hashlib, numpy as np\n"
            "from segbench.model import TinyNet, TrainConfig, backward, forward, train\n"
            "from segbench.synthdata import SynthSpec, generate, train_val_split\n"
            "rng = np.random.default_rng(11)\n"
            "for shape in ((16, 48, 48), (1, 100, 100), (3, 7, 11)):\n"
            "    net, img, up = TinyNet.init(seed=12), rng.uniform(size=shape), rng.normal(size=shape)\n"
            "    p = forward(net, img)\n"
            "    g = backward(net, img, up)\n"
            "    print(shape, 'p:' + hashlib.sha1(p.tobytes()).hexdigest(),\n"
            "          *(k + ':' + hashlib.sha1(v.tobytes()).hexdigest() for k, v in sorted(g.items())))\n"
            "spec = SynthSpec(width=48, height=48, fg_fraction_target=0.05, n_images=16, noise_sigma=0.1, seed=3)\n"
            "halves = train_val_split(generate(spec), 0.8, seed=3)\n"
            "(rec,) = train([TrainConfig(lr=0.01, batch_size=5, max_epochs=2, seed=1)], *halves)\n"
            "print('train:' + hashlib.sha1(repr(rec.epochs).encode()).hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(model.__file__))
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            outs.append(run.stdout)
        assert len(outs[0].splitlines()) == 4
        assert outs[0] == outs[1]


def _per_image_evaluate(net, val_set, predict=forward):
    """evaluate's results from one ``predict`` call per image: the reference for its chunking."""
    preds = [predict(net, s.image) for s in val_set]
    per_image = {"jaccard": [], "dice": [], "recall": [], "specificity": [], "f1": []}
    for p, s in zip(preds, val_set):
        c = metrics.confusion(p, s.mask)
        per_image["jaccard"].append(metrics.jaccard_index(c))
        per_image["dice"].append(metrics.dice_index(c))
        per_image["recall"].append(metrics.recall(c))
        per_image["specificity"].append(metrics.specificity(c))
        per_image["f1"].append(metrics.f_measure(c))
    return {k: float(np.mean(v)) for k, v in per_image.items()}, preds


def _random_samples(rng, shapes):
    return [Sample(rng.uniform(size=s), (rng.uniform(size=s) < 0.3).astype(np.int64)) for s in shapes]


class TestBiasFold:
    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("images", [1, 3])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 13), (48, 48)], ids=lambda s: "x".join(map(str, s)))
    def test_hidden_equals_product_plus_bias(self, runs, images, shape):
        # [w1 | b1] @ [T; 1] against w1 @ T + b1, before and after the ReLU, byte for byte
        rng = np.random.default_rng([19, runs, images, *shape])
        params = {k: rng.normal(size=v.shape) for k, v in TinyNet.init(seed=0, runs=runs).params.items()}
        x = rng.uniform(size=(images, *shape))
        tb = model._input_taps(np.full((images, 10, *shape), np.nan), x)  # the ones row is written, not kept
        _same_bytes(tb[:, :9], _clipped_taps(x))
        assert (tb[:, 9] == 1.0).all()
        ((_, _, w1b, *_),) = model._weights(params, runs, False)
        want = np.matmul(params["w1"].reshape(runs, 1, 8, 9), tb[:, :9]) + params["b1"].reshape(runs, 1, 8, 1)
        _same_bytes(np.matmul(w1b, tb), want)
        _same_bytes(model._hidden(w1b, tb, np.full(want.shape, np.nan)), np.maximum(want, 0.0))


class TestEvaluate:
    def _same_as_per_image(self, net, val_set):
        means, preds = evaluate(net, val_set)
        want_means, want_preds = _per_image_evaluate(net, val_set)
        assert means == want_means
        assert len(preds) == len(want_preds)
        for got, want in zip(preds, want_preds):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("side", [48, 200])
    def test_equals_per_image_forward(self, side):
        # at 48x48 a chunk holds several images and the last one is partial; at 200x200 one
        # image exceeds the chunk budget, so each chunk holds a single image
        per_chunk = model.CHUNK_PIXELS // (side * side)
        n = 2 * per_chunk + 3 if per_chunk > 1 else 3
        assert (per_chunk > 1) == (side == 48)
        self._same_as_per_image(TinyNet.init(seed=13), _random_samples(np.random.default_rng(8), [(side, side)] * n))

    def test_peak_memory_near_output_size(self):
        # eval-large's shape, 48 samples of 128x128: evaluate reads the images from the samples one chunk at a time,
        # so beside its (48, 128, 128) output it holds one chunk's buffers (a stacked image, its 10 taps and ones and
        # 8 hidden maps) and the stacked masks with the bool arrays of one confusion count, not a stack of the images
        rng, pixels = np.random.default_rng(17), 48 * 128 * 128
        samples = [Sample(rng.uniform(size=(128, 128)), (rng.uniform(size=(128, 128)) < 0.3).astype(np.uint8))
                   for _ in range(48)]  # uint8 masks, as load_dataset makes them
        net = TinyNet.init(seed=9)
        tracemalloc.start()
        try:
            evaluate(net, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * pixels + 8 * 19 * 128 * 128 + 4 * pixels

    def test_mixed_image_shapes(self):
        # load_dataset reads PGMs of any size, so one validation set can mix shapes
        shapes = [(16, 16), (16, 16), (12, 20), (16, 16), (20, 12), (20, 12), (16, 16)]
        self._same_as_per_image(TinyNet.init(seed=14), _random_samples(np.random.default_rng(9), shapes))

    def test_empty_validation_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate(TinyNet.init(seed=15), [])

    @pytest.mark.parametrize("runs", [1, 2, 3])
    def test_stacked_scoring_equals_per_image_scoring(self, caplog, runs):
        # every run and image of a same-shaped group is scored by one confusion call; each run's means and maps must
        # be those of one call per image, and the zero-denominator warnings those of one call per run and image
        rng = np.random.default_rng([21, runs])
        shapes = [(16, 16)] * 4 + [(12, 20)] * 2 + [(16, 16)] * 3 + [(20, 12)] + [(16, 16)] * 3  # 13: mean unrolls
        val_set = _random_samples(rng, shapes)
        val_set[1] = Sample(val_set[1].image, np.zeros((16, 16), dtype=np.uint8))  # an empty mask
        val_set[5] = Sample(val_set[5].image, np.ones((12, 20), dtype=np.uint8))  # a full one
        stack = TinyNet.init(seed=16, runs=runs)
        stack.params["b2"][:] = [-50.0, 0.0, 50.0][:runs]  # run 0 predicts nothing above the threshold
        caplog.set_level("WARNING", logger="segbench.metrics")
        got = evaluate(stack, val_set)
        got_log = [r.getMessage() for r in caplog.records]
        caplog.clear()
        want = [_per_image_evaluate(TinyNet({k: v[r] for k, v in stack.params.items()}), val_set)
                for r in range(runs)]
        assert sorted(got_log) == sorted(r.getMessage() for r in caplog.records)
        assert {"precision has zero denominator; reporting 1.0 by convention",
                "recall has zero denominator; reporting 1.0 by convention"} <= set(got_log)
        assert len(got) == runs
        for (means, preds), (want_means, want_preds) in zip(got, want):
            assert list(means) == list(want_means)
            assert [v.hex() for v in means.values()] == [v.hex() for v in want_means.values()]
            assert [(p.shape, p.tobytes()) for p in preds] == [(p.shape, p.tobytes()) for p in want_preds]

    def test_runs_name_the_row_each_result_scores(self, caplog):
        # a row named twice is forwarded and counted once, and each result scores it with its own warnings
        val_set = _random_samples(np.random.default_rng(22), [(16, 16)] * 3)
        stack = TinyNet.init(seed=16, runs=2)
        stack.params["b2"][:] = [-50.0, 0.0]  # row 0 predicts nothing above the threshold
        caplog.set_level("WARNING", logger="segbench.metrics")
        want = []
        for r in (1, 0, 0):
            caplog.clear()
            alone = evaluate(TinyNet({k: v[r] for k, v in stack.params.items()}), val_set)
            want.append((alone, [m.getMessage() for m in caplog.records]))
        caplog.clear()
        got = evaluate(stack, val_set, [1, 0, 0])
        assert [m.getMessage() for m in caplog.records] == [m for _, log in want for m in log] != []
        for (means, preds), ((want_means, want_preds), _) in zip(got, want, strict=True):
            assert [v.hex() for v in means.values()] == [v.hex() for v in want_means.values()]
            assert [p.tobytes() for p in preds] == [p.tobytes() for p in want_preds]

    def test_mask_of_another_shape_rejected(self):
        val_set = _random_samples(np.random.default_rng(22), [(16, 16)] * 3)
        val_set[1] = Sample(val_set[1].image, np.zeros((16, 15), dtype=np.uint8))
        for net in (TinyNet.init(seed=17), TinyNet.init(seed=17, runs=2)):
            with pytest.raises(ValueError, match=r"^shape mismatch: \(16, 16\) vs \(16, 15\)$"):
                evaluate(net, val_set)


class TestOneRunStack:
    # 48 images of 128x128 as eval-large evaluates them, a training batch of 48x48 images, and one 1x7 image
    @pytest.mark.parametrize("shape", [(48, 128, 128), (16, 48, 48), (1, 7)], ids=lambda s: "x".join(map(str, s)))
    def test_equals_the_unstacked_net(self, shape):
        # a net without a run axis and the same weights stacked as one run give the same bytes
        rng = np.random.default_rng(19)
        net, stack = TinyNet.init(seed=20), TinyNet.init(seed=20, runs=1)
        net.params["b1"], net.params["b2"] = rng.normal(size=8), np.array(rng.normal())
        stack.params["b1"], stack.params["b2"] = net.params["b1"][None].copy(), net.params["b2"][None].copy()
        img, up = rng.uniform(size=shape), rng.normal(size=shape)
        got = forward(stack, img)
        assert got.shape == (1, *shape)
        _same_bytes(got[0], forward(net, img))
        want = backward(net, img, up)
        for k, v in backward(stack, img, up).items():
            assert v.shape == (1, *net.params[k].shape)
            _same_bytes(v[0], want[k])
        images = img.reshape(-1, *shape[-2:])
        val_set = [Sample(x, (rng.uniform(size=x.shape) < 0.3).astype(np.uint8)) for x in images]
        (means, preds), (want_means, want_preds) = *evaluate(stack, val_set), evaluate(net, val_set)
        assert means == want_means
        assert [p.tobytes() for p in preds] == [p.tobytes() for p in want_preds]

    @pytest.mark.parametrize("runs", [1, 3])
    def test_init_stacks_the_seeds_weights_on_a_run_axis(self, runs):
        stack, alone = TinyNet.init(seed=5, runs=runs), TinyNet.init(seed=5)
        assert {k: v.shape for k, v in stack.params.items()} == {
            "w1": (runs, 8, 3, 3), "b1": (runs, 8), "w2": (runs, 8, 3, 3), "b2": (runs,)}
        assert (stack.runs, alone.runs) == (runs, None)
        for k, v in alone.params.items():
            for r in range(runs):
                _same_bytes(stack.params[k][r], v)

    def test_a_public_call_is_counted_once(self, monkeypatch):
        # an unstacked net runs as a one-run stack inside the call, without calling the public function again
        calls = []
        for name in ("forward", "backward", "evaluate"):
            real = getattr(model, name)
            monkeypatch.setattr(model, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        net, (train_set, val_set) = TinyNet.init(seed=3), tiny_dataset(seed=3)
        img = np.random.default_rng(4).uniform(size=(2, 16, 16))
        model.forward(net, img)
        assert calls == ["forward"]
        model.backward(net, img, np.ones_like(img))
        assert calls == ["forward", "backward"]
        model.evaluate(net, val_set)  # one forward on the stacked net for its one run of same-shaped images
        assert calls == ["forward", "backward", "evaluate", "forward"]


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

    @staticmethod
    def _per_key_step(lr, step, m, v, params, grads):
        """Adam as one update per weight, the reference for the flat vector: new (m, v, params) dicts."""
        bc1, bc2 = 1.0 - model.ADAM_BETA1**step, 1.0 - model.ADAM_BETA2**step
        m, v, params = dict(m), dict(v), dict(params)
        for k, g in grads.items():
            m[k] = model.ADAM_BETA1 * m.get(k, np.zeros_like(g)) + (1.0 - model.ADAM_BETA1) * g
            v[k] = model.ADAM_BETA2 * v.get(k, np.zeros_like(g)) + (1.0 - model.ADAM_BETA2) * g * g
            lr_k = np.reshape(lr, np.shape(lr) + (1,) * (g.ndim - np.ndim(lr)))
            params[k] = params[k] - lr_k * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + model.ADAM_EPS)
        return m, v, params

    @pytest.mark.parametrize("stacked", [True, False])
    def test_flat_update_equals_per_key_update(self, stacked):
        rng = np.random.default_rng(23)
        if stacked:  # 3 runs, a rate each
            params, lr = TinyNet.init(seed=18, runs=3).params, np.array([0.01, 0.3, 1e-4])
        else:  # arbitrary keys and shapes, one rate
            params, lr = {"w": rng.normal(size=(2, 3)), "a": rng.normal(size=4), "s": np.array(0.5)}, 0.02
        state, m, v, want = AdamState(lr=lr), {}, {}, dict(params)
        for step in range(1, 8):
            grads = {k: rng.normal(size=np.shape(p)) * 10.0 ** rng.integers(-6, 3) for k, p in params.items()}
            adam_step(state, params, grads)
            m, v, want = self._per_key_step(lr, step, m, v, want, grads)
            for k in want:
                _same_bytes(params[k], want[k])

    def test_flat_update_equals_per_key_update_after_a_run_leaves(self, monkeypatch):
        # the middle of 3 runs diverges at epoch 0, batch 1 and leaves the stack; every step before and after takes
        # the per-key update from the state train hands it
        real, steps = model.adam_step, []

        def per_key(flat, grads):  # the flat moments as one array per weight, in sorted key order
            keys = sorted(grads)
            cuts = itertools.accumulate(grads[k][0].size for k in keys)  # per run: the rates are per run
            return {k: part.reshape(grads[k].shape) for k, part in zip(keys, np.split(flat, list(cuts)[:-1], axis=-1))}

        def checked(state, params, grads):
            m, v = ({}, {}) if state.m is None else (per_key(state.m, grads), per_key(state.v, grads))
            want_m, want_v, want = self._per_key_step(state.lr, state.step + 1, m, v, params, grads)
            real(state, params, grads)
            for got, wanted in ((params, want), (per_key(state.m, grads), want_m), (per_key(state.v, grads), want_v)):
                for k in grads:
                    _same_bytes(got[k], wanted[k])
            steps.append(len(state.lr))

        monkeypatch.setattr(model, "adam_step", checked)
        configs = [TrainConfig(lr=lr, batch_size=8, max_epochs=3, seed=7) for lr in (0.01, 1e300, 0.02)]
        got = train(configs, *tiny_dataset(seed=12))
        assert isinstance(got[1], TrainingDiverged) and (got[1].epoch, got[1].batch) == (0, 1)
        assert steps == [3, 2, 2, 2, 2, 2]


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
        train_alone(cfg, train_set, val_set)
        assert len(calls) == 2

    def test_golden_epoch_rows(self):
        # frozen from the per-image training loop; guards the batched loop's bit-stability
        # (12 training images in batches of 5, so the last batch holds 2)
        # pinned to the host CPU type: OpenBLAS (DYNAMIC_ARCH) picks the GEMM kernel of forward and
        # backward per CPU
        train_set, val_set = tiny_dataset(seed=2)
        cfg = TrainConfig(lr=0.1, batch_size=5, max_epochs=2, loss_fn=built("dice"), seed=5)
        rec = train_alone(cfg, train_set, val_set)
        assert rec.epochs == [
            EpochRow(0, 0.5572122181715223, 0.2869561887254902, 0.44551993570369985, 1.0,
                     0.004072187691835482, 0.44551993570369985),
            EpochRow(1, 0.47037081988400425, 0.7630353169447519, 0.8651058670075416, 0.9831045462213226,
                     0.8834444039218932, 0.8651058670075416),
        ]
        assert rec.final_auc == 0.9914605734348665

    def test_determinism(self):
        train_set, val_set = tiny_dataset(seed=2)
        cfg = TrainConfig(lr=1e-2, batch_size=8, max_epochs=3, loss_fn=built("dice"), seed=5)
        a = train_alone(cfg, train_set, val_set)
        b = train_alone(cfg, train_set, val_set)
        assert a.epochs == b.epochs
        assert a.final_auc == b.final_auc

    def test_final_auc_is_worked_out_when_read(self, monkeypatch):
        train_set, val_set = tiny_dataset(seed=2)
        cfg = TrainConfig(lr=1e-2, batch_size=8, max_epochs=1, loss_fn=built("dice"), seed=5)
        calls, real = [], metrics.roc_auc
        monkeypatch.setattr(metrics, "roc_auc", lambda *a, **k: calls.append(a) or real(*a, **k))
        rec = train_alone(cfg, train_set, val_set)
        assert calls == []
        auc = rec.final_auc
        assert auc == real(rec.val_preds, rec.val_masks).auc and len(calls) == 1
        assert rec.final_auc == auc and len(calls) == 1  # read once, then kept
        copy = pickle.loads(pickle.dumps(rec))
        assert copy.final_auc == auc and len(calls) == 1  # the pickled record carries it
        assert pickle.loads(pickle.dumps(train_alone(cfg, train_set, val_set))).final_auc == auc

    def test_final_auc_of_one_class_is_nan(self):
        train_set, val_set = tiny_dataset(seed=2)
        background = [Sample(s.image, np.zeros_like(s.mask)) for s in val_set]
        rec = train_alone(TrainConfig(lr=1e-2, batch_size=8, max_epochs=1, seed=5), train_set, background)
        assert math.isnan(rec.final_auc)
        assert math.isnan(pickle.loads(pickle.dumps(rec)).final_auc)

    def test_learns_easy_data(self):
        # easy synthetic blobs: final validation Jaccard > 0.8
        spec = SynthSpec(width=16, height=16, fg_fraction_target=0.3, n_images=64, noise_sigma=0.05, seed=3)
        train_set, val_set = train_val_split(generate(spec), 0.8, seed=3)
        cfg = TrainConfig(lr=1e-2, batch_size=16, max_epochs=30, loss_fn=built("dice"), seed=0)
        rec = train_alone(cfg, train_set, val_set)
        assert rec.epochs[-1].val_jaccard > 0.8

    def test_record_schema(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["train", "--width", "16", "--height", "16", "--n-images", "16", "--fg-fraction", "0.3",
                     "--noise-sigma", "0.05", "--data-seed", "4", "--batch-size", "8", "--epochs", "2",
                     "--seed", "1", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_jaccard,val_dice,val_recall,val_specificity,val_f1"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]

    def test_divergence_diagnostic(self):
        def nan_loss(p, g):
            return LossEval(float("nan"), np.zeros_like(np.asarray(p)))

        train_set, val_set = tiny_dataset(seed=5)
        cfg = TrainConfig(batch_size=8, max_epochs=2, loss_fn=nan_loss, seed=0)
        with pytest.raises(TrainingDiverged) as exc:
            train_alone(cfg, train_set, val_set)
        assert exc.value.epoch == 0
        assert exc.value.batch == 0

    @pytest.mark.parametrize("name, wrapped", [(name, wrapped) for name in LOSS_NAMES for wrapped in (False, True)],
                             ids=[name + "+wrap" * wrapped for name in LOSS_NAMES for wrapped in (False, True)])
    def test_epoch_rows_equal_two_pass_loop(self, name, wrapped):
        # 48x48 batches of 5, 5 and 2 images run as chunks of 2, 2 and 1, each scored in one loss call
        train_set, val_set = tiny_dataset(seed=8, size=48)
        cfg = TrainConfig(lr=0.01, batch_size=5, max_epochs=2,
                          loss_fn=built(name, AdaptiveLogParams() if wrapped else None), seed=3)
        assert train_alone(cfg, train_set, val_set).epochs == _reference_train(cfg, train_set, val_set).epochs

    @pytest.mark.parametrize("size, batch_size, chunks", [(16, 8, [8, 4]), (48, 5, [2, 2, 1, 2, 2, 1, 2])],
                             ids=["16x16-batch8", "48x48-batch5"])
    def test_one_loss_call_per_chunk(self, size, batch_size, chunks):
        # 12 training images: a 16x16 batch of 8 is one chunk, and 48x48 batches of 5 run as chunks of 2, 2 and 1
        train_set, val_set = tiny_dataset(seed=11, size=size)
        assert len(train_set) == 12
        seen, real = [], built("dice")
        train_alone(TrainConfig(lr=0.01, batch_size=batch_size, max_epochs=2,
                                loss_fn=lambda p, g: seen.append(len(p)) or real(p, g), seed=0), train_set, val_set)
        assert seen == chunks * 2

    def test_mixed_image_shapes_equal_two_pass_loop(self):
        # load_dataset reads PGMs of any size, and batches of one image train on them: the step's buffers
        # follow the image shape
        rng = np.random.default_rng(15)
        samples = _random_samples(rng, [(16, 16), (12, 20), (16, 16), (20, 12), (12, 20), (16, 16)])
        cfg = TrainConfig(lr=0.01, batch_size=1, max_epochs=2, seed=6)
        want = _reference_train(cfg, samples[:4], samples[4:]).epochs
        assert train_alone(cfg, samples[:4], samples[4:]).epochs == want

    def test_step_buffers_are_replaced_only_when_too_small(self):
        # a step's buffers: the input taps and their row of ones, then per run the taps of w2ᵀ @ h and dz2, and the
        # hidden maps and dz1
        ws = []
        model._chunk_buffers((1, 48, 48), 1, True, ws)  # a chunk of one image
        small = list(ws)
        model._chunk_buffers((5, 48, 48), 1, True, ws)  # a chunk of two: larger buffers
        assert ws[0].shape == (2, 10, 48, 48) and ws[0] is not small[0]
        large = list(ws)
        model._chunk_buffers((1, 48, 48), 1, True, ws)
        assert all(a is b for a, b in zip(ws, large))
        model._chunk_buffers((1, 40, 50), 1, True, ws)  # another image shape
        assert [a.shape for a in ws] == [(1, 10, 40, 50), (1, 1, 9, 40, 50), (1, 1, 8, 40 * 50)]
        model._chunk_buffers((5, 48, 48), 2, True, ws)  # two runs: larger buffers
        assert [a.shape for a in ws] == [(2, 10, 48, 48), (2, 2, 9, 48, 48), (2, 2, 8, 48 * 48)]
        large = list(ws)
        for runs in (5, 1):  # blocks of two runs; then the group's other runs have left it
            model._chunk_buffers((5, 48, 48), runs, True, ws)
            assert all(a is b for a, b in zip(ws, large))

    def test_divergence_in_a_later_chunk(self):
        # a NaN pixel in the third image of the first batch: the batch's first chunk (two 48x48 images)
        # has run its losses and gradients before the second chunk's output fails the check
        train_set, val_set = tiny_dataset(seed=9, size=48)
        cfg = TrainConfig(lr=0.01, batch_size=8, max_epochs=2, seed=4)
        clean = train_alone(cfg, train_set, val_set).epochs
        assert model.CHUNK_PIXELS // (48 * 48) == 2
        third = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 11, 0])))
        third = third.permutation(len(train_set))[2]
        bad = list(train_set)
        img = bad[third].image.copy()
        img[10, 10] = np.nan
        bad[third] = Sample(img, bad[third].mask)
        calls = []
        spy = dataclasses.replace(cfg, loss_fn=lambda p, g: calls.append(1) or cfg.loss_fn(p, g))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would fail here
            with pytest.raises(TrainingDiverged) as exc:
                train_alone(spy, bad, val_set)
        assert (exc.value.epoch, exc.value.batch, exc.value.what) == (0, 0, "network output")
        assert len(calls) == 1  # the first chunk's one call
        assert train_alone(cfg, train_set, val_set).epochs == clean  # the diverged call left nothing behind

    def test_one_workspace_per_train_call(self, monkeypatch):
        # 3 epochs of 3 batches: every step reuses the buffers the call's first step allocated, and a second
        # call allocates its own
        seen = []
        real = model._chunk_buffers

        def spy(x, runs, step, ws):
            out = real(x, runs, step, ws)
            if step:  # the step's three buffers, not those of evaluate's forward calls
                seen.append(list(ws))
            return out

        monkeypatch.setattr(model, "_chunk_buffers", spy)
        train_set, val_set = tiny_dataset(seed=10, size=48)
        cfg = TrainConfig(lr=0.01, batch_size=5, max_epochs=3, seed=0)
        for _ in range(2):
            train_alone(cfg, train_set, val_set)
        assert len(seen) == 2 * 3 * 3
        first, second = seen[:9], seen[9:]
        assert [a.shape for a in first[0]] == [(2, 10, 48, 48), (1, 2, 9, 48, 48), (1, 2, 8, 48 * 48)]
        for call in (first, second):
            assert all(a is b for bufs in call for a, b in zip(bufs, call[0], strict=True))
        assert not any(a is b for a, b in zip(first[0], second[0]))

    def test_bad_training_mask_is_rejected_before_the_first_step(self, monkeypatch):
        # train checks its masks once, so a loss call on a chunk does not scan them; the error is a loss call's
        self._rejected_before_the_first_step(monkeypatch, 0)

    def test_bad_validation_mask_is_rejected_before_the_first_step(self, monkeypatch):
        # the final AUC takes masks of 0 and 1 only, so train checks the validation masks with the training ones
        self._rejected_before_the_first_step(monkeypatch, 1)

    @staticmethod
    def _rejected_before_the_first_step(monkeypatch, half):
        halves = list(tiny_dataset(seed=12))
        bad = halves[half] = list(halves[half])
        mask = bad[-1].mask.copy()
        mask[3, 4] = 2
        bad[-1] = Sample(bad[-1].image, mask)
        with pytest.raises(ValueError) as want:
            make_loss("dice")(np.full(mask.shape, 0.5), mask)
        steps = []
        monkeypatch.setattr(model, "_step", lambda *a: steps.append(1))
        with pytest.raises(ValueError) as got:
            train([TrainConfig(lr=0.01, batch_size=4, max_epochs=2, seed=0)], *halves)
        assert (got.type, str(got.value)) == (want.type, str(want.value))
        assert str(got.value) == "mask values must be exactly 0 or 1" and not steps

    def test_mixed_shapes_in_batches_above_one_are_rejected_before_the_first_step(self, monkeypatch):
        # a step stacks its batch, so a batch of two shapes cannot be trained; the order of the images decides at
        # which step one comes, so train refuses mixed shapes up front rather than partway through an epoch
        samples = _random_samples(np.random.default_rng(0), [(16, 16)] * 10 + [(24, 16)])
        steps, real = [], model._step
        monkeypatch.setattr(model, "_step", lambda *a: steps.append(1) or real(*a))
        with pytest.raises(ValueError, match="one shape, as does a batch size above 1"):
            train([TrainConfig(lr=0.01, batch_size=4, max_epochs=1, seed=0)], samples, samples[:2])
        assert not steps
        train([TrainConfig(lr=0.01, batch_size=1, max_epochs=1, seed=0)], samples, samples[:2])  # a batch of one
        assert len(steps) == len(samples)

    def test_adaptive_wrapped_training_runs(self):
        train_set, val_set = tiny_dataset(seed=6)
        cfg = TrainConfig(lr=1e-2, batch_size=8, max_epochs=3, loss_fn=built("dice", AdaptiveLogParams()), seed=0)
        rec = train_alone(cfg, train_set, val_set)
        assert all(np.isfinite(r.train_loss) for r in rec.epochs)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=51)
        for lr in (0.0, -0.01, float("nan")):
            with pytest.raises(ValueError, match="lr must be > 0"):
                TrainConfig(lr=lr)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("owner, field, value", [
        (SynthSpec, "width", 16.5), (SynthSpec, "height", 20.0), (SynthSpec, "n_images", 2.5),
        (SynthSpec, "blob_count_range", (1.5, 3)), (SynthSpec, "blob_count_range", (1, 3.0)), (SynthSpec, "seed", 1.5),
        (TrainConfig, "batch_size", 2.5), (TrainConfig, "max_epochs", 2.0), (TrainConfig, "seed", 1.5),
    ])
    def test_non_integral_counts_rejected(self, owner, field, value):
        # a count or seed that is not an integer fails at construction, not later in generate or train
        with pytest.raises(ValueError, match=f"{field} must be integral"):
            owner(**{field: value})
        owner(**{field: np.int64(20) if field != "blob_count_range" else (np.int32(1), np.int64(3))})  # numpy ints pass


def _wrapped(loss, **params):
    return {"loss_fn": built(loss, AdaptiveLogParams(**params))}


def _scalar_dice(p, g):
    """Dice's gradient with one value that stands for every image and row, as a stacked call may return."""
    return LossEval(0.5, make_loss("dice")(p, g).grad)


# grid cells: one loss, wrapped with each (gamma, omega, epsilon)
GRID_VARIANTS = [_wrapped("dice", gamma=0.1, omega=w, epsilon=e) for w in (6.0, 10.0, 14.0) for e in (0.3, 1.0)]
# compare's selectors jaccard, dice, focal, combo, focal-tversky and all (wrapped dice)
COMPARE_VARIANTS = [*({"loss_fn": built(name)} for name in ("jaccard", "dice", "focal", "combo", "focal-tversky")),
                    _wrapped("dice")]


def _same_record(got, want):
    """The same record, or a divergence with the same fields: epoch rows, AUC, and prediction and mask bytes."""
    assert type(got) is type(want)
    if isinstance(want, TrainingDiverged):
        assert (got.epoch, got.batch, got.what, str(got)) == (want.epoch, want.batch, want.what, str(want))
        return
    assert got.epochs == want.epochs
    assert got.final_auc == want.final_auc or (np.isnan(got.final_auc) and np.isnan(want.final_auc))
    assert [p.tobytes() for p in got.val_preds] == [p.tobytes() for p in want.val_preds]
    assert [m.tobytes() for m in got.val_masks] == [m.tobytes() for m in want.val_masks]


class TestSideBySide:
    def _solo_and_group(self, variants, size, batch_size, lrs=(0.01,), seeds=(7,)):
        """Each variant's run alone and the runs side by side; with several ``seeds``, each variant at each seed
        (the variant's ``lr`` cycles through ``lrs``), one seed's runs after another's, as the CLI deals them."""
        train_set, val_set = tiny_dataset(seed=12, size=size)
        configs = [TrainConfig(**{"lr": lrs[i % len(lrs)], "batch_size": batch_size, "max_epochs": 2, "seed": seed,
                                  **v})
                   for seed in seeds for i, v in enumerate(variants)]
        return [train([c], train_set, val_set)[0] for c in configs], train(configs, train_set, val_set)

    # at 16x16 a chunk of 8 images per run makes blocks of 4 and 2 runs; at 48x48 batches of 5 make chunks of 2, 2
    # and 1 images per run, in blocks of 2 runs
    @pytest.mark.parametrize("size, batch_size", [(16, 8), (48, 5)], ids=["16x16", "48x48"])
    @pytest.mark.parametrize("variants", [GRID_VARIANTS, COMPARE_VARIANTS], ids=["grid", "compare"])
    def test_group_trains_like_its_runs_alone(self, variants, size, batch_size):
        solo, group = self._solo_and_group(variants, size, batch_size, lrs=(0.01, 0.003, 0.02))
        assert len(group) == len(variants)
        for got, want in zip(group, solo):
            _same_record(got, want)

    # three seeds of each variant, in the CLI's order: at 16x16 blocks of 4 rows span seeds, and so do some blocks of
    # 2 at 48x48; in the interleaved order a block's rows mix seeds out of order and read gathered taps
    @pytest.mark.parametrize("interleaved", [False, True], ids=["seed-major", "interleaved"])
    @pytest.mark.parametrize("size, batch_size", [(16, 8), (48, 5)], ids=["16x16", "48x48"])
    @pytest.mark.parametrize("variants", [GRID_VARIANTS, COMPARE_VARIANTS], ids=["grid", "compare"])
    def test_runs_of_several_seeds_train_like_their_runs_alone(self, variants, size, batch_size, interleaved):
        seeds, lrs = (7, 8, 3), (0.01, 0.003, 0.02)
        if interleaved:  # each variant at every seed in turn
            variants = [{**v, "seed": seed} for v in variants for seed in seeds]
            seeds, lrs = (0,), [lr for lr in lrs for _ in range(3)]
        solo, group = self._solo_and_group(variants, size, batch_size, lrs=lrs, seeds=seeds)
        assert len(group) == len(solo) == 18
        for got, want in zip(group, solo):
            _same_record(got, want)

    def test_a_run_diverges_in_one_seed_only(self):
        # at lr 1e300 the second variant's output turns nan at seed 7 (epoch 0, batch 1) but not at seed 8: one run
        # leaves the stack, and seed 8's run of that variant and every other run go on
        solo, group = self._solo_and_group(COMPARE_VARIANTS[:3], 16, 8, lrs=(0.01, 1e300, 0.02), seeds=(7, 8))
        assert [type(r) for r in solo] == [RunRecord, TrainingDiverged] + [RunRecord] * 4
        assert solo[1].what == "network output"
        for got, want in zip(group, solo):
            _same_record(got, want)

    def test_a_seed_that_leaves_mid_epoch_leaves_the_others_alone(self, monkeypatch):
        # lr 1e300 sends both of seed 7's runs to nan at epoch 0, batch 1 of 3: from batch 2 on, the steps build
        # seed 8's taps only, without a seed axis, and seed 8's runs keep the bits they have alone
        train_set, val_set = tiny_dataset(seed=12)
        configs = [TrainConfig(lr=lr, batch_size=4, max_epochs=2, seed=seed, **v)
                   for seed, lr in ((7, 1e300), (8, 0.01)) for v in COMPARE_VARIANTS[:2]]
        solo = [train([c], train_set, val_set)[0] for c in configs]
        assert [(r.epoch, r.batch) for r in solo[:2]] == [(0, 1)] * 2
        seen, real = [], model._input_taps
        monkeypatch.setattr(model, "_input_taps", lambda t, images: seen.append(images.shape) or real(t, images))
        for got, want in zip(train(configs, train_set, val_set), solo):
            _same_record(got, want)
        assert seen[:3] == [(2, 4, 16, 16), (2, 4, 16, 16), (4, 16, 16)]
        assert all(len(shape) == 3 for shape in seen[2:])

    def test_rows_that_split_and_leave_across_seeds_train_like_their_runs_alone(self, monkeypatch):
        # at lr 1 each seed's row of plain and wrapped bce splits at the first step (2 -> 4 rows); at epoch 0, batch 1
        # seed 1's split-off row and both seeds' gamma 0.3 and 0.05 configs leave, whose base values left [0, 1]
        # (3 rows: seed 1's, then seed 2's two, a block that reads gathered taps); at epoch 1, batch 2 seed 2's
        # split-off row leaves too
        train_set, val_set = train_val_split(generate(SynthSpec(16, 16, 0.2, 16, 0.05, seed=3)), 0.8, seed=3)
        variants = [built("bce"), *(built("bce", AdaptiveLogParams(gamma=g)) for g in (0.99, 0.3, 0.05))]
        configs = [TrainConfig(lr=1.0, batch_size=4, max_epochs=4, seed=seed, loss_fn=fn)
                   for seed in (1, 2) for fn in variants]
        solo = [train([c], train_set, val_set)[0] for c in configs]
        assert [(r.epoch, r.batch) if isinstance(r, TrainingDiverged) else None for r in solo] == [
            None, (0, 1), (0, 1), (0, 1), None, (1, 2), (0, 1), (0, 1)]
        seen, real = [], model._step
        monkeypatch.setattr(model, "_step", lambda net, *args: seen.append(net.runs) or real(net, *args))
        for got, want in zip(train(configs, train_set, val_set), solo):
            _same_record(got, want)
        assert seen == [2, 4, 4] + [3] * 4 + [2] * 6  # three batches per epoch, the first step rerun

    def test_mixed_image_shapes(self):
        # batches of one image of any shape: the group's buffers follow the shape, as one run's do
        shapes = [(16, 16), (12, 20), (16, 16), (20, 12), (12, 20), (16, 16)]
        samples = _random_samples(np.random.default_rng(15), shapes)
        configs = [TrainConfig(lr=lr, batch_size=1, max_epochs=2, seed=6, **v)
                   for lr, v in zip((0.01, 0.02, 0.005), COMPARE_VARIANTS[3:])]
        for got, config in zip(train(configs, samples[:4], samples[4:]), configs):
            _same_record(got, train_alone(config, samples[:4], samples[4:]))

    def test_diverging_run_leaves_the_others_alone(self):
        # lr 1e300 sends that run's output to nan at epoch 0, batch 1 (see tests/test_cli.py's DIVERGING_LR)
        solo, group = self._solo_and_group(COMPARE_VARIANTS[:3], 16, 8, lrs=(0.01, 1e300, 0.02))
        assert isinstance(solo[1], TrainingDiverged) and solo[1].what == "network output"
        for got, want in zip(group, solo):
            _same_record(got, want)
        with pytest.raises(TrainingDiverged) as exc:  # alone, through the CLI's train, it raises
            train_alone(TrainConfig(lr=1e300, batch_size=8, max_epochs=2, seed=7), *tiny_dataset(seed=12))
        _same_record(exc.value, solo[1])

    def test_loss_divergence_and_a_group_that_all_diverges(self):
        # focal's value turns nan at the third call: its run leaves the group at that batch, the others go on
        focal, calls = COMPARE_VARIANTS[2]["loss_fn"], []

        def nan_third(p, g):
            calls.append(1)
            ev = focal(p, g)
            return LossEval(float("nan"), ev.grad) if len(calls) == 3 else ev

        train_set, val_set = tiny_dataset(seed=12)
        variants = [*COMPARE_VARIANTS[:2], {"loss_fn": nan_third}]
        configs = [TrainConfig(lr=0.01, batch_size=8, max_epochs=2, seed=7, **v) for v in variants]
        solo = []
        for config in configs:
            calls.clear()
            solo.append(train([config], train_set, val_set)[0])
        assert (solo[2].epoch, solo[2].batch, solo[2].what) == (1, 0, "loss nan")
        calls.clear()
        for got, want in zip(train(configs, train_set, val_set), solo):
            _same_record(got, want)
        configs = [TrainConfig(lr=1e300, batch_size=8, max_epochs=2, seed=7, loss_fn=built(n))
                   for n in ("dice", "jaccard")]
        assert all(isinstance(r, TrainingDiverged) for r in train(configs, train_set, val_set))

    def test_a_wrapped_run_leaves_a_shared_base_call_alone(self):
        # four runs share each block's bce call; at lr 10 the output saturates and the wrapped run's base value
        # leaves [0, 1], while the plain run at lr 10 and the wrapped runs at lr 0.01 go on as they do alone
        variants = [{"loss_fn": built("bce", params)} for params in
                    (AdaptiveLogParams(), None, AdaptiveLogParams(), AdaptiveLogParams(gamma=0.3))]
        solo, group = self._solo_and_group(variants, 16, 8, lrs=(10.0, 10.0, 0.01, 0.01))
        assert [type(r) for r in solo] == [model._OutsideWrapper, RunRecord, RunRecord, RunRecord]
        for got, want in zip(group, solo):
            _same_record(got, want)

    def test_members_must_share_batch_size_and_epochs(self):
        train_set, val_set = tiny_dataset(seed=12)
        base = TrainConfig(lr=0.01, batch_size=8, max_epochs=2, seed=7)
        for other in ({"batch_size": 4}, {"max_epochs": 1}):
            with pytest.raises(ValueError, match="share batch_size and max_epochs"):
                train([base, TrainConfig(**{**vars(base), **other})], train_set, val_set)
        with pytest.raises(ValueError, match="one or more configs"):
            train([], train_set, val_set)
        other_seed = TrainConfig(**{**vars(base), "seed": 8})
        for got, config in zip(train([base, other_seed], train_set, val_set), (base, other_seed)):
            _same_record(got, train_alone(config, train_set, val_set))
        # each seed takes its own batches, which stack only when every training image has one shape
        samples = _random_samples(np.random.default_rng(15), [(16, 16), (12, 20), (16, 16), (16, 16)])
        one_batch = TrainConfig(**{**vars(base), "batch_size": 1})
        with pytest.raises(ValueError, match="different seeds need training images of one shape"):
            train([one_batch, TrainConfig(**{**vars(one_batch), "seed": 8})], samples[:3], samples[3:])
        train([one_batch, TrainConfig(**{**vars(one_batch), "lr": 0.02})], samples[:3], samples[3:])  # one seed

    @pytest.mark.parametrize("size, runs", [(16, 6), (16, 24), (48, 2), (48, 6), (200, 3)])
    def test_chunks_stay_within_the_group_cap(self, monkeypatch, size, runs):
        # 24 runs at 16x16 or 6 at 48x48 exceed the cap in one block; a 200x200 image alone exceeds it
        chunks, real = [], model._hidden
        monkeypatch.setattr(model, "_hidden", lambda w1b, tb, h: chunks.append(h.shape) or real(w1b, tb, h))
        images = np.random.default_rng(3).uniform(size=(5, size, size))
        model._step(TinyNet.init(seed=1, runs=runs), images, lambda runs, rows, p: np.ones_like(p), [])
        for shape in chunks:
            assert np.prod(shape[:-2]) * size * size <= max(model.GROUP_PIXELS, size * size)
        assert sum(np.prod(shape[:-2]) for shape in chunks) == runs * len(images)  # each run's images, once
        per_run = min(len(images), max(1, model.CHUNK_PIXELS // (size * size)))
        assert max(shape[1] for shape in chunks) == per_run  # a run's chunk holds as many images as alone

    def test_each_run_makes_its_solo_loss_calls(self):
        # grid-sweep's shape: 16x16, 12 training images in batches of 8 and 4, six runs side by side
        calls, made = [], []

        def spy(fn):  # each config's loss function, made once, in config order
            key = len(made)
            made.append(key)
            return lambda p, g: calls.append((key, len(p))) or fn(p, g)

        train_set, val_set = tiny_dataset(seed=11)
        assert len(train_set) == 12
        configs = [TrainConfig(lr=0.01, batch_size=8, max_epochs=3, seed=0, loss_fn=spy(v["loss_fn"]))
                   for v in GRID_VARIANTS]
        train(configs, train_set, val_set)
        assert made == list(range(6))  # train made none
        for run in range(6):
            assert [n for k, n in calls if k == run] == [8, 4] * 3  # one call per chunk of each step

    @pytest.mark.parametrize("variants, want", [
        # grid-sweep's six wrapped-dice runs stay in the linear branch, so they train on one row: one call of the
        # row's (images, H, W) output per chunk, on a batch of 8 images and then of 4
        (GRID_VARIANTS, {"soft_dice_loss": [(8, 16, 16), (4, 16, 16)] * 3}),
        # plain and wrapped dice share their base, and here their row too; dice and focal do not, and each calls its
        # own as it does alone
        ([{"loss_fn": built("dice")}, {"loss_fn": built("dice", AdaptiveLogParams())}],
         {"soft_dice_loss": [(8, 16, 16), (4, 16, 16)] * 3}),
        ([{"loss_fn": built("dice")}, {"loss_fn": built("focal")}],
         {"soft_dice_loss": [(8, 16, 16), (4, 16, 16)] * 3, "focal_loss": [(8, 16, 16), (4, 16, 16)] * 3}),
        # at gamma 0.99 the wrapped run's slope exceeds 1 on the first chunk: the row's call, then the rerun's
        # stacked call on the two rows it split into, rows x images as the images of one call
        ([{"loss_fn": built("dice")}, _wrapped("dice", gamma=0.99)],
         {"soft_dice_loss": [(8, 16, 16), (16, 16, 16), (8, 16, 16)] + [(16, 16, 16), (8, 16, 16)] * 2}),
        # grid-sweep's runs of three seeds train on one row per seed, and their block's one call scores each row on
        # its own masks: rows x images, as the images of one call
        ([{**v, "seed": seed} for seed in (0, 1, 2) for v in GRID_VARIANTS],
         {"soft_dice_loss": [(24, 16, 16), (12, 16, 16)] * 3}),
    ], ids=["grid", "dice+all", "dice+focal", "dice+split", "grid-3-seeds"])
    def test_a_block_makes_one_base_call_per_shared_base(self, monkeypatch, variants, want):
        # 12 training images in batches of 8 and 4 at 16x16, for 3 epochs; the kernels are spied on through the
        # name make_loss's functions look up on every call
        calls = {}
        for kernel in ("soft_dice_loss", "focal_loss"):
            real = getattr(losses, kernel)
            monkeypatch.setattr(losses, kernel, lambda p, g, real=real, seen=calls.setdefault(kernel, []), **options:
                                seen.append(np.shape(p)) or real(p, g, **options))
        train_set, val_set = tiny_dataset(seed=11)
        configs = [TrainConfig(**{"lr": 0.01, "batch_size": 8, "max_epochs": 3, "seed": 0, **v}) for v in variants]
        assert all(isinstance(r, RunRecord) for r in train(configs, train_set, val_set))
        assert {k: v for k, v in calls.items() if v} == want

    @pytest.mark.parametrize("base, lr, want", [("dice", 0.01, (7, 0)), ("bce", 0.3, (8, 1))], ids=["dice", "bce"])
    def test_one_composition_per_shared_base_call(self, monkeypatch, base, lr, want):
        # plain, and wrapped at gamma 0.5 and 0.9, at two seeds: a shared-base call composes its wrapped runs once,
        # and once more when a wrapped run's base value leaves [0, 1], as one bce run at lr 0.3 does
        calls, real_branches, real_shared = [], adaptive._branches, model._shared_loss

        def branches(*args):
            calls[-1][0] += 1
            return real_branches(*args)

        def shared(split, *args):
            calls.append([0, any(q is not None for _, q in split), False])
            out = real_shared(split, *args)
            calls[-1][2] = bool(out[2])
            return out

        for owner in (adaptive, model):
            monkeypatch.setattr(owner, "_branches", branches)
        monkeypatch.setattr(model, "_shared_loss", shared)
        train_set, val_set = train_val_split(generate(SynthSpec(16, 16, 0.2, 16, 0.05, seed=3)), 0.8, seed=3)
        variants = [built(base), *(built(base, AdaptiveLogParams(gamma=g)) for g in (0.5, 0.9))]
        train([TrainConfig(lr=lr, batch_size=4, max_epochs=2, seed=seed, loss_fn=fn)
               for seed in (1, 2) for fn in variants], train_set, val_set)
        assert [n for n, _, _ in calls] == [wrapped + left for _, wrapped, left in calls]
        assert (len(calls), sum(left for _, _, left in calls)) == want

    @staticmethod
    def _rows_per_step(monkeypatch, variants):
        """The stack rows of each ``_step`` call of one train call at grid-sweep's shape, and its records."""
        seen, real = [], model._step
        monkeypatch.setattr(model, "_step", lambda net, *args: seen.append(net.runs) or real(net, *args))
        train_set, val_set = tiny_dataset(seed=11)
        configs = [TrainConfig(**{"lr": 0.01, "batch_size": 8, "max_epochs": 3, "seed": 0, **v}) for v in variants]
        records = train(configs, train_set, val_set)
        monkeypatch.setattr(model, "_step", real)
        for got, config in zip(records, configs):
            _same_record(got, train_alone(config, train_set, val_set))
        return seen

    def test_grid_cells_at_one_lr_train_on_one_row(self, monkeypatch):
        # every base value stays above gamma, so each cell's slope is 1, as a plain run's: one trajectory
        assert self._rows_per_step(monkeypatch, GRID_VARIANTS) == [1] * 6  # batches of 8 and 4, three epochs

    def test_configs_of_one_row_get_views_of_one_output(self):
        # two grid cells on one row, as in the test above, and the first cell again at another lr, on a row of its own
        train_set, val_set = tiny_dataset(seed=11)
        configs = [TrainConfig(lr=lr, batch_size=8, max_epochs=3, seed=0, **v)
                   for lr, v in ((0.01, GRID_VARIANTS[0]), (0.01, GRID_VARIANTS[1]), (0.02, GRID_VARIANTS[0]))]
        a, b, other = train(configs, train_set, val_set)
        for p, q, r in zip(a.val_preds, b.val_preds, other.val_preds, strict=True):
            assert np.shares_memory(p, q) and not np.shares_memory(p, r)

    @pytest.mark.parametrize("base", [make_loss("dice"), _scalar_dice], ids=["dice", "scalar"])
    def test_a_row_splits_where_the_slopes_differ(self, monkeypatch, base):
        # below gamma 0.99 from the first chunk on, the wrapped run's slope exceeds 1: that step is rerun on two rows,
        # whose stacked call the plain and the wrapped run share
        seen = self._rows_per_step(monkeypatch, [{"loss_fn": base},
                                                 {"loss_fn": wrap_loss_fn(base, AdaptiveLogParams(gamma=0.99))}])
        assert seen == [1] + [2] * 6

    def test_a_row_splits_in_one_seed_only(self, monkeypatch):
        # seed 0's wrapped run (gamma 0.99) parts from its plain partner at the first chunk; seed 5's (gamma 0.1)
        # stays on its row: from the rerun on, seed 0 has two rows and seed 5 one
        dice, variants = make_loss("dice"), []
        for seed, gamma in ((0, 0.99), (5, 0.1)):
            variants += [{"loss_fn": dice, "seed": seed},
                         {"loss_fn": wrap_loss_fn(dice, AdaptiveLogParams(gamma=gamma)), "seed": seed}]
        assert self._rows_per_step(monkeypatch, variants) == [2] + [3] * 6

    def test_shared_rows_change_no_record_or_warning(self, monkeypatch, caplog):
        # a duplicate, a wrapped run that leaves the row at its third step (gamma 0.87), one that stays (gamma 0.1)
        # and one at another lr; then each loss behind a function of its own, whose loss_key no config shares
        variants = [{"loss_fn": built("dice")}, {"loss_fn": built("dice")}, _wrapped("dice", gamma=0.87),
                    _wrapped("dice", omega=6.0), {"loss_fn": built("dice")}, {"loss_fn": built("focal")}]

        def opaque(loss_fn):
            base, params = split_wrapped(loss_fn)
            fn = lambda p, g: base(p, g)  # noqa: E731
            return fn if params is None else wrap_loss_fn(fn, params)

        train_set, val_set = tiny_dataset(fg=0.05, seed=11)
        seen, real, got = [], model._step, []
        monkeypatch.setattr(model, "_step", lambda net, *args: seen.append(net.runs) or real(net, *args))
        caplog.set_level("WARNING", logger="segbench.metrics")
        for wrap in (lambda fn: fn, opaque):
            caplog.clear()
            configs = [TrainConfig(lr=0.02 if i == 4 else 0.01, batch_size=8, max_epochs=3, seed=0,
                                   loss_fn=wrap(v["loss_fn"])) for i, v in enumerate(variants)]
            got.append((train(configs, train_set, val_set), [r.getMessage() for r in caplog.records]))
        # rows of dice at 0.01 with both wrapped runs, of dice at 0.02 and of focal; the third step is rerun
        assert seen == [3, 3, 3] + [4] * 4 + [6] * 6
        assert got[0][1] == got[1][1] and got[0][1]
        for shared, alone in zip(got[0][0], got[1][0]):
            _same_record(shared, alone)


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
