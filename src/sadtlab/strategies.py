"""Per-batch training strategies: one step pipeline driven by a preset table.

Seven strategies: plain mixed-label descent, the same with centralized or
adaptively clipped gradients, two-pass ascent-descent (sam), and the three
noisy self-teacher variants (sadt_v1/v2/v3) that aggregate the task gradient
with soft-label KL gradients taken against perturbed copies of the freshly
updated weights.

``PRESETS`` maps each id to a gradient transform (none, "gc" or "agc"), a
flag for the sam ascent, and a tuple of teacher perturbations named by the
``add_noise`` filters. ``Strategy.step`` runs every id through one order:

1. task pass: forward and backward of the mixed-label loss at w;
2. the gradient transform, or the sam ascent (move rho along the normalized
   gradient, take the gradient there, restore w exactly);
3. with teachers: a transient update on an optimizer clone gives the
   self-teacher weights w_up; each teacher perturbs w_up, differentiates the
   KL between the pre-update logits (held constant) and its own logits, and
   is undone exactly; the task and KL gradients are summed, and with
   rollback_to_w the weights return to w;
4. one update with the persistent optimizer state.

Parameter-noise teachers ("all", "last-conv", "last-dense") add
N(0, sigma_w^2) to the selected layers and subtract it bitwise afterwards.
The gradient-noise teacher ("gradient-all") ascends ascent_lr along a copy of
the task gradient carrying N(0, sigma_g^2) noise and restores a snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .autodiff import Tape, Tensor, add, backward, kl_divergence, scale, softmax_cross_entropy
from .data import MixedBatch
from .nn import Model
from .optim import (
    PARAM_FILTERS,
    AdamState,
    GradSet,
    NoiseRecord,
    adam_step,
    adaptive_gradient_clip,
    add_noise,
    aggregate_gradients,
    gradient_centralize,
    subtract_noise,
)

# Strategy.step calls backward and the optim functions above through this
# module's globals, never through a local alias or a stored reference, so a
# profiler can wrap any of them by reassigning the attribute on
# sadtlab.strategies (perfbench/tracing.py does).


class Preset(NamedTuple):
    transform: str | None  # None, "gc" or "agc"
    sam: bool
    teachers: tuple[str, ...]  # one add_noise filter per KL pass


PRESETS = {
    "baseline": Preset(None, False, ()),
    "gc": Preset("gc", False, ()),
    "agc": Preset("agc", False, ()),
    "sam": Preset(None, True, ()),
    "sadt_v1": Preset(None, False, ("all",)),
    "sadt_v2": Preset(None, False, ("last-conv", "last-dense")),
    "sadt_v3": Preset(None, False, ("gradient-all",)),
}
STRATEGY_IDS = tuple(PRESETS)


class NonFiniteLossError(RuntimeError):
    """A step produced a non-finite loss; carries diagnostics for the log."""


@dataclass
class StepReport:
    """Per-batch record: losses, learning rate, final gradient norm, timing."""

    task_loss: float
    kl_loss: float
    lr: float
    grad_norm: float
    wall_ms: float
    flags: tuple[str, ...] = ()


class StepTrace:
    """Optional instrumentation: named parameter snapshots taken mid-step,
    the noise records drawn, and the gradient fed to the final update."""

    def __init__(self):
        self.marks: dict[str, dict[str, np.ndarray]] = {}
        self.records: list = []
        self.final_grads: GradSet | None = None

    def mark(self, name: str, params) -> None:
        self.marks[name] = params.snapshot()


def _mark(trace: StepTrace | None, name: str, params) -> None:
    if trace is not None:
        trace.mark(name, params)


@dataclass
class Strategy:
    """Strategy id plus the hyperparameters its step consumes."""

    id: str
    rho: float = 0.05
    sigma_w: float = 0.0001
    sigma_g: float = 0.0001
    ascent_lr: float | None = None  # None: use the scheduled learning rate
    agc_lambda: float = 0.01
    rollback_to_w: bool = False

    def __post_init__(self):
        if self.id not in PRESETS:
            raise ValueError(f"unknown strategy id {self.id!r} (choose from {STRATEGY_IDS})")

    def step(
        self,
        model: Model,
        batch: MixedBatch,
        state: AdamState,
        lr: float,
        noise_seed: np.random.SeedSequence | int | None = None,
        trace: StepTrace | None = None,
    ) -> StepReport:
        transform, sam, teachers = PRESETS[self.id]
        ascent_lr = lr if self.ascent_lr is None else self.ascent_lr
        self._validate(model, sam, teachers, ascent_lr)
        start = time.perf_counter()
        logits_w, task_loss, grads = _task_pass(model, batch)
        flags: tuple[str, ...] = ()
        if transform == "gc":
            grads = gradient_centralize(grads)
        elif transform == "agc":
            grads = adaptive_gradient_clip(model.params, grads, self.agc_lambda)
        if sam:
            grads, flags = _sam_ascent(model, batch, grads, self.rho, trace)
        kl_loss = 0.0
        if teachers:
            rngs = _noise_rngs(noise_seed, len(teachers))
            w_snap = model.params.snapshot() if self.rollback_to_w else None
            # transient clone: the initial update must not advance persistent moments
            adam_step(model.params, grads, state.clone(), lr)
            _mark(trace, "w_up", model.params)
            parts = [grads]
            for i, (layer_filter, rng) in enumerate(zip(teachers, rngs)):
                record, undo = self._perturb(model, grads, layer_filter, rng, ascent_lr)
                if trace is not None:
                    trace.records.append(record)
                _mark(trace, f"aux_{i}", model.params)
                kl, g_aux = _kl_pass(model, batch, logits_w)
                undo()
                _mark(trace, f"rollback_{i}", model.params)
                kl_loss += kl
                parts.append(g_aux)
            grads = aggregate_gradients(parts)
            if w_snap is not None:
                model.params.restore(w_snap)
        if trace is not None:
            trace.final_grads = grads
        adam_step(model.params, grads, state, lr)
        return StepReport(
            task_loss, kl_loss, lr, grads.global_norm(), (time.perf_counter() - start) * 1e3, flags
        )

    def _validate(
        self, model: Model, sam: bool, teachers: tuple[str, ...], ascent_lr: float
    ) -> None:
        """Reject bad hyperparameters before the step changes any weight."""
        if sam and self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if any(f in PARAM_FILTERS for f in teachers) and self.sigma_w < 0:
            raise ValueError(f"sigma_w must be >= 0, got {self.sigma_w}")
        if "gradient-all" in teachers:
            if self.sigma_g < 0:
                raise ValueError(f"sigma_g must be >= 0, got {self.sigma_g}")
            if ascent_lr < 0:
                raise ValueError(f"ascent_lr must be >= 0, got {ascent_lr}")
        if "last-conv" in teachers and model.params.last_conv_layer() is None:
            raise ValueError(f"{self.id} requires an architecture with a conv layer")

    def _perturb(
        self, model: Model, grads: GradSet, layer_filter: str, rng: np.random.Generator,
        ascent_lr: float,
    ) -> tuple[NoiseRecord, Callable[[], None]]:
        """Move the weights to one auxiliary teacher; return the noise record
        and a callable that restores the weights bitwise."""
        if layer_filter in PARAM_FILTERS:
            record = add_noise(model.params, self.sigma_w, layer_filter, rng)
            return record, lambda: subtract_noise(model.params, record)
        g_noisy = grads.clone()
        record = add_noise(g_noisy, self.sigma_g, layer_filter, rng)
        up_snap = model.params.snapshot()
        model.params.add_scaled(g_noisy, ascent_lr)
        return record, lambda: model.params.restore(up_snap)


def _sam_ascent(
    model: Model, batch: MixedBatch, grads: GradSet, rho: float, trace: StepTrace | None
) -> tuple[GradSet, tuple[str, ...]]:
    """Ascend rho along the normalized gradient, take the gradient there and
    restore the weights exactly. A zero gradient skips the ascent (the step
    degenerates to baseline) and is flagged."""
    norm = grads.global_norm()
    if norm == 0.0:
        return grads, ("zero-gradient",)
    snap = model.params.snapshot()
    _mark(trace, "w", model.params)
    model.params.add_scaled(grads, rho / norm)
    _mark(trace, "perturbed", model.params)
    _, _, grads = _task_pass(model, batch)
    model.params.restore(snap)
    _mark(trace, "restored", model.params)
    return grads, ()


def _noise_rngs(noise_seed, count: int) -> list[np.random.Generator]:
    if noise_seed is None:
        noise_seed = np.random.SeedSequence(0)
    elif isinstance(noise_seed, int):
        noise_seed = np.random.SeedSequence(noise_seed)
    return [np.random.default_rng(child) for child in noise_seed.spawn(count)]


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    return np.eye(num_classes, dtype=np.float64)[np.asarray(labels, dtype=np.int64)]


def mixed_cross_entropy(logits: Tensor, batch: MixedBatch, num_classes: int) -> Tensor:
    """lam * CE(label_a) + (1 - lam) * CE(label_b) with hard one-hot targets."""
    ce_a = softmax_cross_entropy(logits, Tensor(one_hot(batch.label_a, num_classes)))
    ce_b = softmax_cross_entropy(logits, Tensor(one_hot(batch.label_b, num_classes)))
    return add(scale(ce_a, batch.lam), scale(ce_b, 1.0 - batch.lam))


def _task_pass(model: Model, batch: MixedBatch) -> tuple[np.ndarray, float, GradSet]:
    """Forward + backward of the mixed-label task loss at the current weights."""
    with Tape():
        logits = model.forward(Tensor(batch.images))
        loss = mixed_cross_entropy(logits, batch, model.num_classes)
    task_loss = loss.item()
    if not np.isfinite(task_loss):
        raise NonFiniteLossError(f"task loss is {task_loss!r}")
    grads = GradSet.from_backward(model.params, backward(loss))
    return logits.data.copy(), task_loss, grads


def _kl_pass(model: Model, batch: MixedBatch, teacher_logits: np.ndarray) -> tuple[float, GradSet]:
    """KL(teacher || current model) with the teacher side held constant."""
    with Tape():
        aux_logits = model.forward(Tensor(batch.images))
        kl = kl_divergence(Tensor(teacher_logits), aux_logits, detach_p=True)
    kl_loss = kl.item()
    if not np.isfinite(kl_loss):
        raise NonFiniteLossError(f"KL loss is {kl_loss!r}")
    grads = GradSet.from_backward(model.params, backward(kl))
    return kl_loss, grads
