"""Quantitative probes: one-step sharpness, model divergence, accuracy/loss.

Sharpness approximates the worst loss increase inside an L2 ball of radius
rho by a single normalized ascent step, averaged over batches. Divergence is
the mean KL between two models' output distributions over the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import Tape, Tensor, backward, log_softmax_rows, softmax_cross_entropy
from .data import Dataset
from .nn import Model
from .optim import GradSet
from .strategies import one_hot, sam_point


@dataclass
class SharpnessEstimate:
    value: float
    rho: float
    batches: int
    zero_grad_batches: int = 0


@dataclass
class DivergenceEstimate:
    value: float
    samples: int


@dataclass
class EvalResult:
    accuracy: float
    mean_loss: float


def one_step_sharpness(loss_fn: Callable[[Model], Tensor], model: Model, rho: float) -> tuple[float, bool]:
    """loss(w + rho * g/||g||) - loss(w) for one loss; ascends a copy, so w never moves.

    Returns (estimate, zero_grad): a zero gradient skips the ascent and
    contributes 0.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    with Tape():
        loss = loss_fn(model)
        base = loss.item()
        grads = GradSet.from_backward(model.params, backward(loss))
    shifted = sam_point(model, grads, rho)
    if shifted is None:
        return 0.0, True
    return loss_fn(shifted).item() - base, False


def _hard_label_loss(model: Model, images: np.ndarray, labels: np.ndarray) -> Tensor:
    logits = model.forward(Tensor(images))
    return softmax_cross_entropy(logits, Tensor(one_hot(labels, model.num_classes)))


def probe_batches(
    dataset: Dataset, batches: int, batch_size: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The first ``batches`` batches of ``dataset`` in order, as (images, labels)."""
    count = min(batches * batch_size, dataset.n)
    return [
        (dataset.images[i : i + batch_size], dataset.labels[i : i + batch_size])
        for i in range(0, count, batch_size)
    ]


def estimate_sharpness(
    model: Model, data_batches: list[tuple[np.ndarray, np.ndarray]], rho: float
) -> SharpnessEstimate:
    """Average one-step sharpness of the mean cross-entropy over batches."""
    if not data_batches:
        raise ValueError("estimate_sharpness needs at least one batch")
    values = []
    zero_batches = 0
    for images, labels in data_batches:
        value, zero = one_step_sharpness(
            lambda m: _hard_label_loss(m, images, labels), model, rho
        )
        values.append(value)
        zero_batches += int(zero)
    return SharpnessEstimate(
        math.fsum(values) / len(values), rho, len(values), zero_batches
    )


def model_divergence(
    model_a: Model, model_b: Model, data_batches: list[np.ndarray]
) -> DivergenceEstimate:
    """Mean over all samples of KL(softmax(a(x)) || softmax(b(x)))."""
    shapes_a = [(e.name, e.tensor.shape) for e in model_a.params.entries]
    shapes_b = [(e.name, e.tensor.shape) for e in model_b.params.entries]
    if shapes_a != shapes_b:
        raise ValueError("model architectures differ; divergence is undefined")
    per_sample: list[float] = []
    for images in data_batches:
        la = model_a.forward(Tensor(images)).data
        lb = model_b.forward(Tensor(images)).data
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
