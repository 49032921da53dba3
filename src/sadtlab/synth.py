"""Synthetic image-classification data.

Stands in for downloaded digit datasets on machines without network access:
each class gets a fixed template of Gaussian blobs plus an oriented bar, and
samples are shifted, intensity-jittered, noisy renderings of their template.
Saved as standard IDX pairs (``data`` writes them) so the loaders and CLI
treat them exactly like the real thing.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .data import write_idx_images, write_idx_labels


def _class_templates(num_classes: int, height: int, width: int, rng: np.random.Generator) -> np.ndarray:
    yy, xx = np.mgrid[0:height, 0:width]
    templates = np.zeros((num_classes, height, width))
    for c in range(num_classes):
        img = np.zeros((height, width))
        for _ in range(3):
            cy = rng.uniform(0.2 * height, 0.8 * height)
            cx = rng.uniform(0.2 * width, 0.8 * width)
            sig = rng.uniform(0.06, 0.14) * height
            img += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sig * sig))
        angle = np.pi * c / num_classes
        d = (yy - height / 2) * np.cos(angle) + (xx - width / 2) * np.sin(angle)
        img += 0.8 * np.exp(-(d * d) / (2 * (0.05 * height) ** 2))
        templates[c] = img / img.max()
    return templates


def make_synthetic_digits(
    n: int,
    num_classes: int = 10,
    height: int = 28,
    width: int = 28,
    seed: int = 0,
    noise: float = 0.35,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (uint8 images, labels) drawn round-robin over classes."""
    if not 1 <= num_classes <= 256:  # the labels are returned as bytes
        raise ValueError(f"num_classes must be in 1..256, got {num_classes}")
    rng = np.random.default_rng(seed)
    templates = _class_templates(num_classes, height, width, rng)
    labels = np.arange(n) % num_classes
    labels = rng.permutation(labels)
    images = np.zeros((n, height, width))
    for i, c in enumerate(labels):
        dy, dx = rng.integers(-3, 4, size=2)
        img = np.roll(np.roll(templates[c], dy, axis=0), dx, axis=1)
        img = img * rng.uniform(0.6, 1.0) + rng.normal(0.0, noise, size=img.shape)
        images[i] = np.clip(img, 0.0, 1.0)
    return np.round(images * 255.0).astype(np.uint8), labels.astype(np.uint8)


def generate_dataset_files(
    out_dir,
    train_n: int = 4096,
    test_n: int = 1000,
    num_classes: int = 10,
    height: int = 28,
    width: int = 28,
    seed: int = 0,
    noise: float = 0.35,
) -> dict[str, str]:
    """Write train/test IDX pairs under out_dir; returns the four paths."""
    for name, count in (("train_n", train_n), ("test_n", test_n)):
        if count < 0:  # checked before out_dir is made
            raise ValueError(f"{name} must be >= 0, got {count}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # one draw stream; test samples differ from train by position, not seed
    images, labels = make_synthetic_digits(
        train_n + test_n, num_classes, height, width, seed, noise
    )
    paths = {
        "train_images": str(out / "train-images-idx3-ubyte"),
        "train_labels": str(out / "train-labels-idx1-ubyte"),
        "test_images": str(out / "t10k-images-idx3-ubyte"),
        "test_labels": str(out / "t10k-labels-idx1-ubyte"),
    }
    write_idx_images(paths["train_images"], images[:train_n])
    write_idx_labels(paths["train_labels"], labels[:train_n])
    write_idx_images(paths["test_images"], images[train_n:])
    write_idx_labels(paths["test_labels"], labels[train_n:])
    return paths
