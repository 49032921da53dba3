"""Quantitative probes: one-step sharpness, model divergence, accuracy/loss.

Sharpness approximates the worst loss increase inside an L2 ball of radius
rho by one normalized ascent step, averaged over batches. Per batch it runs,
with no loss callback, a taped cross-entropy pass at w, ``sam_point`` and an
off-tape forward at the ascent point. A mean that is not finite is ``None``:
an empty cell in a run's probe row, a one-line error from ``sadtlab probe``.
Divergence is the mean KL between two models' output distributions, from
their per-batch logits; the sharpness pass supplies the model's own, so a
probe runs one forward at w per batch, not two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, Tensor, backward, log_softmax_rows, softmax_cross_entropy
from .data import Dataset
from .nn import Model
from .optim import GradSet
from .strategies import one_hot, sam_point


@dataclass
class SharpnessEstimate:
    value: float | None  # None when the mean is not finite
    rho: float
    batches: int
    zero_grad_batches: int = 0
    # each batch's logits at w, from the taped pass of the ascent
    logits: list[np.ndarray] = field(default_factory=list, repr=False)


@dataclass
class DivergenceEstimate:
    value: float
    samples: int


@dataclass
class EvalResult:
    accuracy: float
    mean_loss: float


def probe_batches(
    dataset: Dataset, batches: int, batch_size: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The first ``batches`` batches of ``dataset`` in order, as (images, labels)."""
    count = min(batches * batch_size, dataset.n)
    return [
        (dataset.images[i : i + batch_size], dataset.labels[i : i + batch_size])
        for i in range(0, count, batch_size)
    ]


def probe_logits(
    model: Model, data_batches: list[tuple[np.ndarray, np.ndarray]]
) -> list[np.ndarray]:
    """``model``'s logits on each batch's images, one off-tape forward each."""
    return [model.forward(Tensor(images)).data for images, _ in data_batches]


def estimate_sharpness(
    model: Model, data_batches: list[tuple[np.ndarray, np.ndarray]], rho: float
) -> SharpnessEstimate:
    """Mean over batches of CE(w + rho * g/||g||) - CE(w) on a copy: w never
    moves, and a zero gradient skips the ascent and counts 0. ``logits`` holds
    each batch's logits at w, the bits ``probe_logits`` gives without its forwards."""
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if not data_batches:
        raise ValueError("estimate_sharpness needs at least one batch")
    values: list[float] = []
    zero_batches = 0
    logits: list[np.ndarray] = []
    for images, labels in data_batches:
        targets = Tensor(one_hot(labels, model.num_classes))
        with Tape():
            base = model.forward(Tensor(images))
            loss = softmax_cross_entropy(base, targets)
        logits.append(base.data)
        shifted = sam_point(model, GradSet.from_backward(model.params, backward(loss)), rho)
        if shifted is None:  # zero gradient
            zero_batches += 1
            values.append(0.0)
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mean gives None
            ascent = softmax_cross_entropy(shifted.forward(Tensor(images)), targets)
        values.append(ascent.item() - loss.item())
    try:  # inf - inf, or a sum beyond the float range, is not finite either
        mean = math.fsum(values) / len(values)
    except (OverflowError, ValueError):
        mean = math.nan
    value = mean if math.isfinite(mean) else None
    return SharpnessEstimate(value, rho, len(values), zero_batches, logits)


def model_divergence(
    logits_a: list[np.ndarray], logits_b: list[np.ndarray]
) -> DivergenceEstimate:
    """Mean over all samples of KL(softmax(a) || softmax(b)), from two models'
    logits on the same batches; runs no forward pass."""
    per_sample: list[float] = []
    for la, lb in zip(logits_a, logits_b, strict=True):
        if la.shape != lb.shape:
            raise ValueError(f"logits of shape {la.shape} against {lb.shape}")
        lp = log_softmax_rows(la)
        lq = log_softmax_rows(lb)
        rows = np.sum(np.exp(lp) * (lp - lq), axis=1)
        per_sample.extend(float(r) for r in rows)
    if not per_sample:
        raise ValueError("model_divergence needs at least one sample")
    return DivergenceEstimate(math.fsum(per_sample) / len(per_sample), len(per_sample))


def evaluate(model: Model, dataset: Dataset, batch_size: int = 256) -> EvalResult:
    """Top-1 accuracy and mean cross-entropy with hard labels.

    Per-sample losses are summed with exact (fsum) accumulation, so the
    result does not depend on dataset ordering.
    """
    if dataset.n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    correct = 0
    losses: list[float] = []
    for i in range(0, dataset.n, batch_size):
        images = dataset.images[i : i + batch_size]
        labels = dataset.labels[i : i + batch_size]
        logits = model.forward(Tensor(images)).data
        ls = log_softmax_rows(logits)
        correct += int(np.sum(logits.argmax(axis=1) == labels))
        losses.extend(float(v) for v in -ls[np.arange(len(labels)), labels])
    return EvalResult(correct / dataset.n, math.fsum(losses) / dataset.n)
