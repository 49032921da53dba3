"""The promises of the ``metrics`` docstrings, on an 8x8 ``simple_cnn``:
the sharpness probe leaves the weights bitwise as they were, a model's
divergence from itself is exactly 0, and evaluation does not depend on
dataset order."""

import numpy as np
import pytest

from sadtlab.data import Dataset
from sadtlab.metrics import (
    _hard_label_loss,
    estimate_sharpness,
    evaluate,
    model_divergence,
    one_step_sharpness,
    probe_batches,
)
from sadtlab.nn import build_simple_cnn

CLASSES = 3


@pytest.fixture
def model():
    return build_simple_cnn((1, 8, 8), CLASSES, seed=5)


@pytest.fixture
def dataset():
    gen = np.random.default_rng(9)
    return Dataset(gen.uniform(0.0, 1.0, (10, 1, 8, 8)), gen.integers(0, CLASSES, 10), CLASSES)


def _bits(model) -> dict[str, bytes]:
    return {e.name: e.tensor.data.tobytes() for e in model.params}


def test_one_step_sharpness_restores_params_bitwise(model, dataset):
    before = _bits(model)
    images, labels = dataset.images[:4], dataset.labels[:4]
    value, zero_grad = one_step_sharpness(
        lambda m: _hard_label_loss(m, images, labels), model, rho=0.05
    )
    assert not zero_grad and value != 0.0  # the ascent step really moved the weights
    assert _bits(model) == before


def test_estimate_sharpness_restores_params_bitwise(model, dataset):
    before = _bits(model)
    estimate = estimate_sharpness(model, probe_batches(dataset, 3, 4), rho=0.05)
    assert estimate.batches == 3 and estimate.zero_grad_batches == 0
    assert _bits(model) == before


def test_divergence_from_itself_is_exactly_zero(model, dataset):
    batches = [images for images, _ in probe_batches(dataset, 3, 4)]
    result = model_divergence(model, model, batches)
    assert result.value == 0.0
    assert result.samples == dataset.n


def test_evaluate_does_not_depend_on_order(model, dataset):
    order = np.random.default_rng(2).permutation(dataset.n)
    permuted = Dataset(dataset.images[order], dataset.labels[order], CLASSES)
    plain = evaluate(model, dataset, batch_size=4)
    shuffled = evaluate(model, permuted, batch_size=4)
    assert shuffled.accuracy == plain.accuracy
    assert shuffled.mean_loss.hex() == plain.mean_loss.hex()
