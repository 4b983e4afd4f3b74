import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from segbench.losses import LOSS_NAMES, make_loss
from segbench.metrics import confusion, roc_auc
from segbench.synthdata import (
    MAX_ATTEMPTS,
    GenerationFailure,
    PGMDepthError,
    PGMFormatError,
    PGMHeaderError,
    Sample,
    SynthSpec,
    _draw_mask,
    generate,
    generate_sample,
    load_dataset,
    load_pgm_pair,
    read_pgm,
    split_size,
    train_val_split,
    write_dataset,
    write_pgm,
)


class TestSpecValidation:
    def test_defaults_valid(self):
        SynthSpec()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width": 8},
            {"fg_fraction_target": 0.0},
            {"fg_fraction_target": 0.6},
            {"n_images": 0},
            {"noise_sigma": -0.1},
            {"blob_count_range": (0, 2)},
            {"blob_count_range": (3, 1)},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SynthSpec(**kwargs)


class TestGenerate:
    def test_determinism(self):
        spec = SynthSpec(width=24, height=24, n_images=4, seed=42)
        a = generate(spec)
        b = generate(spec)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.image, sb.image)
            np.testing.assert_array_equal(sa.mask, sb.mask)

    def test_order_independent_per_sample_streams(self):
        spec = SynthSpec(width=24, height=24, n_images=4, seed=9)
        direct = generate_sample(spec, 3)
        via_batch = generate(spec)[3]
        np.testing.assert_array_equal(direct.image, via_batch.image)

    def test_fg_fraction_realized(self):
        spec = SynthSpec(width=48, height=48, fg_fraction_target=0.02, n_images=100, seed=3)
        fracs = [s.fg_fraction for s in generate(spec)]
        assert 0.016 <= np.mean(fracs) <= 0.024

    def test_noiseless_two_level_image(self):
        spec = SynthSpec(width=24, height=24, noise_sigma=0.0, n_images=2, seed=1)
        for s in generate(spec):
            assert set(np.unique(s.image)) == {0.2, 0.8}

    def test_noisy_image_clipped_to_unit_range(self):
        spec = SynthSpec(width=24, height=24, noise_sigma=0.5, n_images=2, seed=1)
        for s in generate(spec):
            assert (s.image.dtype, s.image.min(), s.image.max()) == (np.float64, 0.0, 1.0)

    def test_masks_nondegenerate(self):
        spec = SynthSpec(width=32, height=32, fg_fraction_target=0.05, n_images=20, seed=4)
        for s in generate(spec):
            assert 0 < s.mask.sum() < s.mask.size

    def test_imbalance_monotone_in_target(self):
        means = []
        for target in (0.01, 0.05, 0.2):
            spec = SynthSpec(width=48, height=48, fg_fraction_target=target, n_images=30, seed=5)
            means.append(np.mean([s.fg_fraction for s in generate(spec)]))
        assert means[0] < means[1] < means[2]

    def test_unreachable_fraction(self):
        # on a 16x16 grid a 0.002 target needs between 0.41 and 0.61 foreground
        # pixels; no integer pixel count qualifies
        spec = SynthSpec(width=16, height=16, fg_fraction_target=0.002, n_images=1, seed=0)
        with pytest.raises(GenerationFailure):
            generate(spec)


def _full_grid_mask(spec, rng):
    """Reference rasterizer: tests every pixel of the image against every blob."""
    h, w = spec.height, spec.width
    lo, hi = spec.blob_count_range
    target_px = spec.fg_fraction_target * w * h
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(MAX_ATTEMPTS):
        k = int(rng.integers(lo, hi + 1))
        mask = np.zeros((h, w), dtype=np.uint8)
        base_r = np.sqrt(target_px / k / np.pi)
        for _ in range(k):
            a = base_r * rng.uniform(0.6, 1.4)
            b = (target_px / k / np.pi) / a * rng.uniform(0.9, 1.1)
            cx = rng.uniform(0, w - 1)
            cy = rng.uniform(0, h - 1)
            inside = ((xx - cx) / max(a, 0.5)) ** 2 + ((yy - cy) / max(b, 0.5)) ** 2 <= 1.0
            mask[inside] = 1
        frac = mask.mean()
        if frac == 0.0 or frac == 1.0:
            continue
        if abs(frac - spec.fg_fraction_target) <= 0.2 * spec.fg_fraction_target:
            return mask
    raise GenerationFailure(
        f"no mask within 20% of fg fraction {spec.fg_fraction_target} "
        f"after {MAX_ATTEMPTS} attempts (blob range {spec.blob_count_range})"
    )


class TestBoundingBoxRaster:
    """``_draw_mask`` tests each blob on its bounding box only; the masks equal the full-grid ones."""

    @pytest.mark.parametrize(
        "spec",
        [
            SynthSpec(width=16, height=16, fg_fraction_target=0.2, n_images=12, seed=1),
            SynthSpec(width=48, height=48, fg_fraction_target=0.02, n_images=12, seed=2),
            SynthSpec(width=128, height=128, fg_fraction_target=0.05, n_images=6, seed=3),
            SynthSpec(width=17, height=40, fg_fraction_target=0.5, n_images=12, blob_count_range=(1, 6), seed=4),
            # three blobs on about one pixel: every blob's radius a is below 0.5 and floored to it
            SynthSpec(width=32, height=32, fg_fraction_target=1 / 1024, n_images=6, blob_count_range=(3, 3), seed=5),
        ],
        ids=["16x16", "48x48", "128x128", "17x40", "radius-floor"],
    )
    def test_matches_full_grid(self, spec):
        for i in range(spec.n_images):
            got = _draw_mask(spec, np.random.default_rng([spec.seed, i]))
            want = _full_grid_mask(spec, np.random.default_rng([spec.seed, i]))
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_failure_message_unchanged(self):
        spec = SynthSpec(width=16, height=16, fg_fraction_target=0.002, n_images=1, seed=0)
        with pytest.raises(GenerationFailure) as want:
            _full_grid_mask(spec, np.random.default_rng([0, 0]))
        with pytest.raises(GenerationFailure) as got:
            generate(spec)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "spec, mask_sha, image_sha",
        [
            (SynthSpec(),
             "b8a22942043d4683296133d71238d771c192d77fe7c4ebae37bdc4960dd8bf87",
             "3e3f10e1fb1455def8ab6b26db126d91f97b2f7ef31b3bb2e6aaab429d387c52"),
            (SynthSpec(width=128, height=128, fg_fraction_target=0.05, n_images=8, seed=1),
             "7aba5010e45f7a9ead0a58c3857618275455576285f25601d42a51db25d3292c",
             "202001b5ab36de5ac4642a33cd451918c7de966f6930dd9870ff38f1707fe52e"),
        ],
        ids=["default", "128x128"],
    )
    def test_pinned_digests(self, spec, mask_sha, image_sha):
        # the noise is drawn after the mask, so the masks are the noisy spec's; noiseless images need no exp/log
        samples = generate(replace(spec, noise_sigma=0.0))
        assert hashlib.sha256(b"".join(s.mask.tobytes() for s in samples)).hexdigest() == mask_sha
        assert hashlib.sha256(b"".join(s.image.tobytes() for s in samples)).hexdigest() == image_sha


class TestSplit:
    def test_sizes(self):
        samples = list(range(10))
        train, val = train_val_split(samples, 0.8, seed=0)
        assert (len(train), len(val)) == (8, 2)
        assert sorted(train + val) == samples

    def test_determinism(self):
        samples = list(range(20))
        assert train_val_split(samples, 0.8, seed=7) == train_val_split(samples, 0.8, seed=7)

    def test_ratio_one_rejected(self):
        with pytest.raises(ValueError):
            train_val_split(list(range(10)), 1.0)

    def test_tiny_set_rejected(self):
        with pytest.raises(ValueError):
            train_val_split([1], 0.8)

    @pytest.mark.parametrize("ratio", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_ratio_rejected(self, ratio):
        # checked before int(n * ratio), which raises OverflowError or ValueError of its own
        with pytest.raises(ValueError, match="leaves an empty partition"):
            split_size(10, ratio)


class TestPGM:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 256, size=(20, 30)).astype(np.uint8)
        path = tmp_path / "x.pgm"
        write_pgm(path, arr)
        np.testing.assert_array_equal(read_pgm(path), arr)

    def test_round_trip_bytes(self, tmp_path):
        arr = np.arange(256, dtype=np.uint8).reshape(16, 16)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(p1, arr)
        write_pgm(p2, read_pgm(p1))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("value", [300, -1, 2.5, float("nan")])
    def test_write_rejects_values_outside_8_bits(self, tmp_path, value):
        # a uint8 cast would wrap 300 to 44 and -1 to 255, and truncate 2.5 to 2
        arr = np.array([[0, 255], [1, value]])
        with pytest.raises(ValueError, match="whole numbers in \\[0, 255\\]"):
            write_pgm(tmp_path / "x.pgm", arr)
        assert not (tmp_path / "x.pgm").exists()

    def test_write_accepts_whole_numbers_of_any_dtype(self, tmp_path):
        arr = np.array([[0, 1], [254, 255]], dtype=np.uint8)
        write_pgm(tmp_path / "u8.pgm", arr)
        for dtype in (np.int64, np.float64, np.uint16):
            write_pgm(tmp_path / "x.pgm", arr.astype(dtype))
            assert (tmp_path / "x.pgm").read_bytes() == (tmp_path / "u8.pgm").read_bytes()

    def test_ascii_pgm_rejected(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(PGMFormatError):
            read_pgm(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(PGMDepthError):
            read_pgm(path)

    @pytest.mark.parametrize("data", [b"P5\nnot numbers\n", b"# only a comment", b"  \n\t"],
                             ids=["not-numbers", "comment-only", "whitespace-only"])
    def test_malformed_header(self, tmp_path, data):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(PGMHeaderError, match=re.escape(str(path))):
            read_pgm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(PGMHeaderError):
            read_pgm(path)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 64, 128, 255]))
        arr = read_pgm(path)
        assert arr.shape == (2, 2)
        assert arr[1, 1] == 255

    def test_load_pair_all_white_mask(self, tmp_path):
        img = np.full((16, 16), 100, dtype=np.uint8)
        msk = np.full((16, 16), 255, dtype=np.uint8)
        write_pgm(tmp_path / "i.pgm", img)
        write_pgm(tmp_path / "m.pgm", msk)
        s = load_pgm_pair(tmp_path / "i.pgm", tmp_path / "m.pgm")
        assert np.all(s.mask == 1)
        assert s.image[0, 0] == pytest.approx(100 / 255)

    def test_sample_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5\n2 2\n1\n" + bytes([0, 1, 200, 0]))
        with pytest.raises(PGMHeaderError, match="sample 200 above maxval 1"):
            read_pgm(path)

    def test_load_pair_scales_by_each_files_maxval(self, tmp_path):
        # a mask of maxval 1 marks foreground with 1; at maxval 255 the threshold stays at 128
        (tmp_path / "i.pgm").write_bytes(b"P5\n2 2\n100\n" + bytes([0, 25, 50, 100]))
        (tmp_path / "m.pgm").write_bytes(b"P5\n2 2\n1\n" + bytes([0, 1, 1, 0]))
        s = load_pgm_pair(tmp_path / "i.pgm", tmp_path / "m.pgm")
        np.testing.assert_array_equal(s.image, [[0.0, 0.25], [0.5, 1.0]])
        np.testing.assert_array_equal(s.mask, [[0, 1], [1, 0]])
        write_pgm(tmp_path / "i.pgm", np.array([[0, 127], [128, 255]], dtype=np.uint8))
        write_pgm(tmp_path / "m.pgm", np.array([[0, 127], [128, 255]], dtype=np.uint8))
        s = load_pgm_pair(tmp_path / "i.pgm", tmp_path / "m.pgm")
        assert s.image.tobytes() == (np.array([[0, 127], [128, 255]]) / 255.0).tobytes()
        np.testing.assert_array_equal(s.mask, [[0, 0], [1, 1]])

    def test_load_pair_dimension_mismatch(self, tmp_path):
        write_pgm(tmp_path / "i.pgm", np.zeros((4, 4), dtype=np.uint8))
        write_pgm(tmp_path / "m.pgm", np.zeros((4, 5), dtype=np.uint8))
        with pytest.raises(ValueError):
            load_pgm_pair(tmp_path / "i.pgm", tmp_path / "m.pgm")


class TestDatasetFiles:
    def test_manifest_and_recount(self, tmp_path):
        spec = SynthSpec(width=24, height=24, n_images=4, seed=11)
        samples = generate(spec)
        manifest = write_dataset(samples, tmp_path / "ds")
        loaded = load_dataset(manifest)
        assert len(loaded) == 4
        # fg_fraction column matches a recount from the mask files
        import csv

        with open(manifest, newline="") as f:
            rows = list(csv.DictReader(f))
        for row, s in zip(rows, loaded):
            assert float(row["fg_fraction"]) == pytest.approx(s.fg_fraction, abs=1e-6)

    def test_rewrite_is_byte_identical(self, tmp_path):
        spec = SynthSpec(width=24, height=24, n_images=3, seed=2)
        d = tmp_path / "ds"
        write_dataset(generate(spec), d)
        before = {p.name: p.read_bytes() for p in d.iterdir()}
        write_dataset(generate(spec), d)
        after = {p.name: p.read_bytes() for p in d.iterdir()}
        assert before == after

    def test_mask_binarization_survives_round_trip(self, tmp_path):
        spec = SynthSpec(width=24, height=24, n_images=2, seed=6)
        samples = generate(spec)
        manifest = write_dataset(samples, tmp_path / "ds")
        for orig, loaded in zip(samples, load_dataset(manifest)):
            np.testing.assert_array_equal(orig.mask, loaded.mask)

    def test_masks_are_uint8_and_score_as_int64_masks(self, tmp_path):
        # one byte per mask pixel; every loss and metric reads it as it reads the same mask in int64
        samples = generate(SynthSpec(width=24, height=24, n_images=2, seed=6))
        loaded = load_dataset(write_dataset(samples, tmp_path / "ds"))
        assert [s.mask.dtype for s in samples + loaded] == [np.uint8] * 4
        p = np.random.default_rng(0).uniform(size=(24, 24))
        mask, wide = samples[0].mask, samples[0].mask.astype(np.int64)
        for name in LOSS_NAMES:
            got, want = make_loss(name)(p, mask), make_loss(name)(p, wide)
            assert (got.value, got.grad.tobytes()) == (want.value, want.grad.tobytes())
        assert confusion(p, mask) == confusion(p, wide)
        assert roc_auc(p, mask) == roc_auc(p, wide)
