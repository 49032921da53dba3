"""Desk-scale training laboratory for noisy self-teacher strategies.

A minimal reverse-mode autodiff engine, a small model zoo, gradient
transforms with exact-rollback noise, seven pluggable training strategies,
sharpness/divergence probes, deterministic data handling with CutMix, and a
reproducible experiment harness.
"""

__version__ = "0.1.0"

from .autodiff import (
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    backward,
    conv2d,
    kl_divergence,
    log_softmax,
    matmul,
    max_pool2x2,
    relu,
    softmax_cross_entropy,
)
from .data import Dataset, MixedBatch, cutmix, load_cifar_binary, load_idx, make_batches
from .metrics import estimate_sharpness, evaluate, model_divergence
from .nn import (
    Model,
    ParamSet,
    build_simple_cnn,
    build_tiny_mlp,
    load_checkpoint,
    model_from_params,
    save_checkpoint,
)
from .optim import (
    AdamState,
    GradSet,
    NoiseRecord,
    Schedule,
    adam_step,
    adaptive_gradient_clip,
    add_noise,
    aggregate_gradients,
    cosine_lr,
    gradient_centralize,
    subtract_noise,
)
from .strategies import STRATEGY_IDS, StepReport, StepTrace, Strategy

__all__ = [
    "__version__",
    "ShapeError", "Tape", "TapeError", "Tensor", "backward", "conv2d",
    "kl_divergence", "log_softmax", "matmul", "max_pool2x2", "relu",
    "softmax_cross_entropy",
    "Dataset", "MixedBatch", "cutmix", "load_cifar_binary", "load_idx",
    "make_batches",
    "estimate_sharpness", "evaluate", "model_divergence",
    "Model", "ParamSet", "build_simple_cnn", "build_tiny_mlp",
    "load_checkpoint", "model_from_params", "save_checkpoint",
    "AdamState", "GradSet", "NoiseRecord", "Schedule", "adam_step",
    "adaptive_gradient_clip", "add_noise", "aggregate_gradients", "cosine_lr",
    "gradient_centralize", "subtract_noise",
    "STRATEGY_IDS", "StepReport", "StepTrace", "Strategy",
]
