"""Deterministic dataset I/O (IDX read and write, CIFAR read), subset
selection, batching, and CutMix.

Loaders are bit-exact functions of the file bytes; batching and augmentation
are pure functions of (data, seed), which is what keeps the training
landscape identical across compared strategies.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import InputError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 32 * 32 pixels


class DataFormatError(InputError):
    """Malformed dataset file: bad magic, truncation, count mismatch, or a
    label outside the class range."""


def _check_labels(labels: np.ndarray, path, num_classes: int) -> None:
    if len(labels) and labels.max() >= num_classes:
        raise DataFormatError(f"{path}: label {labels.max()} outside [0, {num_classes})")


@dataclass
class Dataset:
    """Images in [0, 1] shaped n x C x H x W with integer class labels."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be n x C x H x W, got {self.images.shape}")
        if len(self.labels) != len(self.images):
            raise ValueError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(
                f"labels outside [0, {self.num_classes}): "
                f"min {self.labels.min()}, max {self.labels.max()}"
            )

    @property
    def n(self) -> int:
        return len(self.images)

    def subset(self, count: int) -> "Dataset":
        """First ``count`` samples, deterministic."""
        if count > self.n:
            raise ValueError(f"requested {count} samples from a dataset of {self.n}")
        return Dataset(self.images[:count].copy(), self.labels[:count].copy(), self.num_classes)


def _read_idx_header(blob: bytes, path, expected_magic: int, rank: int) -> tuple[tuple[int, ...], int]:
    header = 4 + 4 * rank
    if len(blob) < header:
        raise DataFormatError(f"{path}: truncated IDX header")
    (magic,) = struct.unpack_from(">I", blob, 0)
    if magic != expected_magic:
        raise DataFormatError(
            f"{path}: bad IDX magic 0x{magic:08x} (expected 0x{expected_magic:08x})"
        )
    dims = struct.unpack_from(f">{rank}I", blob, 4)
    return dims, header


def load_idx(images_path, labels_path, num_classes: int | None = None) -> Dataset:
    """Load an IDX image/label file pair (big-endian dims, byte pixels).

    Pixels are scaled by 1/255; a missing channel axis becomes C=1.
    """
    with open(images_path, "rb") as fh:
        iblob = fh.read()
    with open(labels_path, "rb") as fh:
        lblob = fh.read()
    (n, h, w), ioff = _read_idx_header(iblob, images_path, IDX_IMAGES_MAGIC, 3)
    if len(iblob) - ioff != n * h * w:
        raise DataFormatError(
            f"{images_path}: expected {n * h * w} pixel bytes, found {len(iblob) - ioff}"
        )
    (ln,), loff = _read_idx_header(lblob, labels_path, IDX_LABELS_MAGIC, 1)
    if len(lblob) - loff != ln:
        raise DataFormatError(f"{labels_path}: expected {ln} label bytes, found {len(lblob) - loff}")
    if ln != n:
        raise DataFormatError(f"count mismatch: {n} images vs {ln} labels")
    pixels = np.frombuffer(iblob, dtype=np.uint8, offset=ioff).reshape(n, 1, h, w)
    labels = np.frombuffer(lblob, dtype=np.uint8, offset=loff).astype(np.int64)
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if n else 0
    _check_labels(labels, labels_path, num_classes)
    return Dataset(pixels.astype(np.float64) / 255.0, labels, num_classes)


def write_idx_images(path, images: np.ndarray) -> None:
    images = np.asarray(images, dtype=np.uint8)
    n, h, w = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        fh.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    if labels.size and not (labels.min() >= 0 and labels.max() <= 255):  # one byte each
        raise ValueError(f"labels must lie in 0..255, got {labels.min()}..{labels.max()}")
    labels = labels.astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        fh.write(labels.tobytes())


def load_cifar_binary(paths: list, num_classes: int = 10) -> Dataset:
    """Load a list of CIFAR-10 style binary files (3073-byte records,
    plane-major RGB) as one dataset, in list order."""
    images, labels = [], []
    for path in paths:
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) % CIFAR_RECORD_BYTES != 0:
            raise DataFormatError(
                f"{path}: length {len(blob)} is not a multiple of {CIFAR_RECORD_BYTES}"
            )
        records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        _check_labels(records[:, 0], path, num_classes)
        labels.append(records[:, 0].astype(np.int64))
        images.append(records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0)
    return Dataset(np.concatenate(images), np.concatenate(labels), num_classes)


def make_batches(dataset: Dataset, batch_size: int, epoch_seed: int) -> list[np.ndarray]:
    """Seeded shuffle of all indices, sliced into batches; the short final
    batch is kept."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(epoch_seed)
    order = rng.permutation(dataset.n)
    return [order[i : i + batch_size] for i in range(0, dataset.n, batch_size)]


@dataclass
class MixedBatch:
    """A CutMix-augmented batch with its label pair and realized mix ratio."""

    images: np.ndarray
    label_a: np.ndarray
    label_b: np.ndarray
    lam: float

    @classmethod
    def plain(cls, images: np.ndarray, labels: np.ndarray) -> "MixedBatch":
        """An unaugmented batch expressed in mixed form (lam = 1)."""
        labels = np.asarray(labels, dtype=np.int64)
        return cls(np.asarray(images, dtype=np.float64), labels, labels.copy(), 1.0)


def cut_box(lam0: float, height: int, width: int, cx: int, cy: int) -> tuple[int, int, int, int]:
    """Clipped box of target area (1 - lam0) * H * W centered at (cx, cy)."""
    cut_ratio = np.sqrt(1.0 - lam0)
    cut_h = int(height * cut_ratio)
    cut_w = int(width * cut_ratio)
    y1 = int(np.clip(cy - cut_h // 2, 0, height))
    y2 = int(np.clip(cy + cut_h // 2, 0, height))
    x1 = int(np.clip(cx - cut_w // 2, 0, width))
    x2 = int(np.clip(cx + cut_w // 2, 0, width))
    return y1, y2, x1, x2


def cutmix(images: np.ndarray, labels: np.ndarray, alpha: float, seed: int) -> MixedBatch:
    """Paste one random box from a permuted partner batch into every image.

    Draw order from a generator seeded with ``seed``: partner permutation,
    Beta(alpha, alpha) ratio, box center x, box center y. The reported lam is
    recomputed from the clipped box so label weights always agree with
    surviving pixels.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(images) < 2:
        raise ValueError("cutmix needs a batch of at least 2 samples")
    rng = np.random.default_rng(seed)
    height, width = images.shape[2], images.shape[3]
    partner = rng.permutation(len(images))
    lam0 = float(rng.beta(alpha, alpha))
    cx = int(rng.integers(0, width))
    cy = int(rng.integers(0, height))
    y1, y2, x1, x2 = cut_box(lam0, height, width, cx, cy)
    mixed = images.copy()
    mixed[:, :, y1:y2, x1:x2] = images[partner, :, y1:y2, x1:x2]
    lam = 1.0 - ((y2 - y1) * (x2 - x1)) / (height * width)
    return MixedBatch(mixed, labels.copy(), labels[partner].copy(), lam)
