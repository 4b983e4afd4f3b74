"""Synthetic imbalanced binary-segmentation data, plus PGM ingestion.

Masks are unions of random axis-aligned ellipses, resampled until the
foreground fraction lands within 20% (relative) of the requested target.
Images are two-level intensity (0.2 background, 0.8 foreground) plus optional
Gaussian noise, clamped to [0, 1].

Randomness comes from numpy's PCG64 (the published PCG XSL-RR 128/64
generator), with each sample drawing from its own stream seeded by
``SeedSequence([seed, sample_index])``.  Identical specs therefore reproduce
identical datasets bit-for-bit, independent of generation order or
parallelism.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
import re
from dataclasses import dataclass

import numpy as np

BG_LEVEL = 0.2
FG_LEVEL = 0.8
MAX_ATTEMPTS = 500


class GenerationFailure(RuntimeError):
    """Could not hit the requested foreground fraction with the given blob range."""


class PGMError(ValueError):
    """Base for PGM parsing problems."""


class PGMFormatError(PGMError):
    """Not a binary (P5) PGM file."""


class PGMDepthError(PGMError):
    """Sample depth other than 8 bits."""


class PGMHeaderError(PGMError):
    """Malformed or truncated header/payload."""


def _check_integers(owner, *names) -> None:
    """Raise ValueError for the first field of ``owner`` in ``names`` that is not an integer or a tuple of them."""
    for name in names:
        value = getattr(owner, name)
        if not all(isinstance(v, numbers.Integral) for v in (value if isinstance(value, tuple) else (value,))):
            raise ValueError(f"{name} must be integral, got {value!r}")


@dataclass(frozen=True)
class SynthSpec:
    width: int = 48
    height: int = 48
    fg_fraction_target: float = 0.05
    n_images: int = 32
    noise_sigma: float = 0.1
    blob_count_range: tuple[int, int] = (1, 3)
    seed: int = 0

    def __post_init__(self):
        _check_integers(self, "width", "height", "n_images", "blob_count_range", "seed")
        if self.width < 16 or self.height < 16:
            raise ValueError("width and height must be >= 16")
        if not (0.0 < self.fg_fraction_target <= 0.5):
            raise ValueError("fg_fraction_target must be in (0, 0.5]")
        if self.n_images < 1:
            raise ValueError("n_images must be >= 1")
        if not 0 <= self.noise_sigma < math.inf:  # written so that a NaN fails it
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        lo, hi = self.blob_count_range
        if lo < 1 or hi < lo:
            raise ValueError(f"bad blob_count_range {self.blob_count_range}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass
class Sample:
    image: np.ndarray  # float64 in [0, 1], shape (H, W)
    mask: np.ndarray  # uint8, values {0, 1}, same shape

    @property
    def fg_fraction(self) -> float:
        return np.count_nonzero(self.mask) / self.mask.size


def _draw_mask(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    h, w = spec.height, spec.width
    lo, hi = spec.blob_count_range
    target_px = spec.fg_fraction_target * w * h
    for _ in range(MAX_ATTEMPTS):
        k = int(rng.integers(lo, hi + 1))
        mask = np.zeros((h, w), dtype=np.uint8)
        base_r = np.sqrt(target_px / k / np.pi)
        for _ in range(k):
            a = base_r * rng.uniform(0.6, 1.4)
            b = (target_px / k / np.pi) / a * rng.uniform(0.9, 1.1)
            cx = rng.uniform(0, w - 1)
            cy = rng.uniform(0, h - 1)
            ra, rb = max(a, 0.5), max(b, 0.5)
            # only the bounding box can hold the ellipse: outside it each term is above 1
            x0, x1 = max(0, int(cx - ra) - 1), min(w, int(cx + ra) + 2)
            y0, y1 = max(0, int(cy - rb) - 1), min(h, int(cy + rb) + 2)
            xx, yy = np.arange(x0, x1)[None, :], np.arange(y0, y1)[:, None]
            mask[y0:y1, x0:x1] |= ((xx - cx) / ra) ** 2 + ((yy - cy) / rb) ** 2 <= 1.0
        frac = np.count_nonzero(mask) / mask.size  # the quotient mask.mean() rounds to, without a float sum
        if frac == 0.0 or frac == 1.0:
            continue
        if abs(frac - spec.fg_fraction_target) <= 0.2 * spec.fg_fraction_target:
            return mask
    raise GenerationFailure(
        f"no mask within 20% of fg fraction {spec.fg_fraction_target} "
        f"after {MAX_ATTEMPTS} attempts (blob range {spec.blob_count_range})"
    )


def generate_sample(spec: SynthSpec, index: int) -> Sample:
    """Generate one sample; depends only on (spec, index)."""
    rng = np.random.default_rng([spec.seed, index])
    mask = _draw_mask(spec, rng)
    image = BG_LEVEL + (FG_LEVEL - BG_LEVEL) * mask.astype(np.float64)
    if spec.noise_sigma > 0:
        image += rng.normal(0.0, spec.noise_sigma, size=image.shape)
        np.clip(image, 0.0, 1.0, out=image)
    return Sample(image=image, mask=mask)


def generate(spec: SynthSpec) -> list[Sample]:
    return [generate_sample(spec, i) for i in range(spec.n_images)]


def split_size(n: int, ratio: float) -> int:
    """Training-set size of :func:`train_val_split` for n samples; ValueError if a half is empty."""
    n_train = int(n * ratio) if 0 < ratio < 1 else 0  # int() of n * inf or n * nan raises
    if n_train == 0 or n_train == n:
        raise ValueError(f"split ratio {ratio} leaves an empty partition for {n} samples")
    return n_train


def train_val_split(samples, ratio: float = 0.8, seed: int = 0):
    """Deterministic shuffle then split; both halves must be non-empty."""
    n = len(samples)
    n_train = split_size(n, ratio)
    order = np.random.default_rng([seed, 2**32]).permutation(n)
    train = [samples[i] for i in order[:n_train]]
    val = [samples[i] for i in order[n_train:]]
    return train, val


# ---------------------------------------------------------------------------
# PGM (P5, 8-bit) I/O


def write_pgm(path, values: np.ndarray) -> None:
    """Write a 2-D array of whole numbers in [0, 255] as a binary PGM; other values raise ValueError."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError("PGM payload must be 2-D")
    if arr.dtype != np.uint8 and not np.all((arr >= 0) & (arr <= 255) & (np.round(arr) == arr)):  # nan fails
        raise ValueError("PGM samples must be whole numbers in [0, 255]")
    arr = arr.astype(np.uint8, copy=False)
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii") + arr.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) 8-bit PGM into a uint8 array of shape (H, W)."""
    return _read_pgm(path)[0]


# Whitespace and '#' comments, then one header token (empty only at the end of the file).
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def _read_pgm(path) -> tuple[np.ndarray, int]:
    """:func:`read_pgm`'s raster and the file's maxval."""
    with open(path, "rb") as f:
        data = f.read()
    tokens, pos = [], 0
    for _ in range(4):  # magic, width, height, maxval; the one whitespace byte after maxval precedes the raster
        m = _HEADER_TOKEN.match(data, pos)
        tokens.append(m[1])
        pos = m.end() + 1
    magic, w_tok, h_tok, maxval_tok = tokens
    if not magic:
        raise PGMHeaderError(f"{path}: unexpected end of header")
    if magic == b"P2":
        raise PGMFormatError(f"{path}: ASCII (P2) PGM is not supported")
    if magic != b"P5":
        raise PGMFormatError(f"{path}: not a PGM file (magic {magic!r})")
    try:
        w, h, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    except ValueError as exc:
        raise PGMHeaderError(f"{path}: malformed header") from exc
    if w <= 0 or h <= 0:
        raise PGMHeaderError(f"{path}: bad dimensions {w}x{h}")
    if maxval > 255:
        raise PGMDepthError(f"{path}: 16-bit samples (maxval {maxval}) not supported")
    if maxval <= 0:
        raise PGMHeaderError(f"{path}: bad maxval {maxval}")
    data = data[pos:]
    if len(data) < w * h:
        raise PGMHeaderError(f"{path}: truncated payload ({len(data)} < {w * h} bytes)")
    raster = np.frombuffer(data[: w * h], dtype=np.uint8).reshape(h, w)
    if raster.max() > maxval:
        raise PGMHeaderError(f"{path}: sample {raster.max()} above maxval {maxval}")
    return raster, maxval


def load_pgm_pair(image_path, mask_path) -> Sample:
    """Load an (image, mask) PGM pair scaled by each file's maxval; mask pixels above half of it are foreground."""
    (img, img_max), (msk, msk_max) = _read_pgm(image_path), _read_pgm(mask_path)
    if img.shape != msk.shape:
        raise PGMError(f"dimension mismatch: image {img.shape} vs mask {msk.shape}")
    return Sample(image=img / img_max, mask=(msk > msk_max // 2).astype(np.uint8))  # 2 * raw > maxval


_PAIR_NAME = re.compile(r"(image|mask)_(\d+)\.pgm")


def write_dataset(samples, out_dir) -> str:
    """Materialize samples as PGM pairs plus a manifest CSV; returns the manifest path.

    The ``image_NNNN.pgm`` and ``mask_NNNN.pgm`` files of an earlier, larger dataset in ``out_dir`` that the new
    manifest does not list are deleted; every other file is left alone.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest = os.path.join(out_dir, "manifest.csv")
    with open(manifest, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["index", "image_path", "mask_path", "fg_fraction"])
        for i, s in enumerate(samples):
            img_name = f"image_{i:04d}.pgm"
            msk_name = f"mask_{i:04d}.pgm"
            write_pgm(os.path.join(out_dir, img_name), np.round(s.image * 255.0).astype(np.uint8))
            write_pgm(os.path.join(out_dir, msk_name), (s.mask * 255).astype(np.uint8))
            writer.writerow([i, img_name, msk_name, "%.6g" % s.fg_fraction])
    with os.scandir(out_dir) as entries:
        for entry in entries:
            m = _PAIR_NAME.fullmatch(entry.name)
            # only a name this function writes: the index as it formats it, past the new manifest's last
            if m and entry.name == f"{m[1]}_{int(m[2]):04d}.pgm" and int(m[2]) >= len(samples) and entry.is_file():
                os.remove(entry.path)
    return manifest


def load_dataset(manifest_path) -> list[Sample]:
    """Load every pair listed in a manifest produced by :func:`write_dataset`."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    out = []
    with open(manifest_path, newline="") as f:
        for row in csv.DictReader(f):
            out.append(
                load_pgm_pair(
                    os.path.join(base, row["image_path"]),
                    os.path.join(base, row["mask_path"]),
                )
            )
    return out
