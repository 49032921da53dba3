"""Per-batch training strategies: one step pipeline driven by a preset table.

Seven strategies: plain mixed-label descent, the same with centralized or
adaptively clipped gradients, two-pass ascent-descent (sam), and the three
noisy self-teacher variants (sadt_v1/v2/v3) that aggregate the task gradient
with soft-label KL gradients taken against perturbed copies of the freshly
updated weights.

``PRESETS`` maps each id to a gradient transform (none, "gc" or "agc"), a
flag for the sam ascent, and a tuple of teacher perturbations (``noise_targets``
filters or "gradient-all"). ``Strategy.step`` runs every id through one order:

0. with teachers: the lane worker starts drawing each teacher's noise, an
   array per entry it shifts, from its own rng spawned from the step's noise
   seed, in teacher order (on one CPU the draws run here, before step 1);
1. task pass: forward and backward of the mixed-label loss at w;
2. the gradient transform, or the sam ascent (the gradient at a copy of w
   moved rho along the normalized gradient);
3. with teachers: a transient update of a copy of w, on an optimizer clone,
   gives the self-teacher weights w_up. The teachers share the forward up to
   the first layer any of them shifts, recorded once, at w_up, on one tape
   (for a teacher of every entry, only the input's entry transform). Once the
   draws have ended, each teacher shifts the copy by its drawn arrays
   (``add_noise``), records its head from that layer on, on that tape,
   differentiates the KL between the pre-update logits (held constant) and
   its own logits, and removes its shift; the task and KL gradients, each
   ``{name: array}``, are summed name by name;
4. one update of the live weights with the persistent optimizer state, from
   w_up (copied in) or, with rollback_to_w, from w. Nothing moves them before
   it, so a step that raises leaves them as they were.

Every teacher is one recorded shift of w_up, removed with a bitwise check.
Parameter-noise teachers ("all", "last-conv", "last-dense") add N(0, sigma_w^2)
to the selected layers. The gradient-noise teacher ("gradient-all") adds
ascent_lr times the task gradient plus N(0, sigma_g^2), to every entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from .autodiff import (
    Tape,
    Tensor,
    _in_background,
    add,
    backward,
    kl_divergence,
    lane_busy_s,
    scale,
    softmax_cross_entropy,
)
from .data import MixedBatch
from .nn import Model
from .optim import (
    PARAM_FILTERS,
    AdamState,
    GradSet,
    adam_step,
    adaptive_gradient_clip,
    add_noise,
    aggregate_gradients,
    gradient_centralize,
    noise_targets,
    subtract_noise,
)

# Strategy.step calls backward, sam_point and the optim functions above through
# this module's globals, never through a local alias or a stored reference, so
# an observer wraps any of them by reassigning the attribute on sadtlab.strategies:
# perfbench/tracing.py times them, and the tests' spy_step records the shifted
# copies, shift records and final gradient. All of them run on the caller's thread;
# the lane worker runs only _draw (Generator.normal), never a name one may wrap.


class Preset(NamedTuple):
    transform: str | None  # None, "gc" or "agc"
    sam: bool
    teachers: tuple[str, ...]  # per KL pass: a noise_targets filter or "gradient-all"


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
    """Per-batch record: losses, learning rate, final gradient norm, timing:
    the step's wall time, the lane worker's busy time within it (0 without
    a worker), and the process's minor page faults during it (0 where the
    ``resource`` module is missing)."""

    task_loss: float
    kl_loss: float
    lr: float
    grad_norm: float
    wall_ms: float
    lane_ms: float
    minor_faults: int
    flags: tuple[str, ...] = ()


def _minor_faults() -> int:
    return 0 if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


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
        transform, sam, teachers = PRESETS[self.id]  # check only what this preset reads
        noisy, ascent = any(f in PARAM_FILTERS for f in teachers), "gradient-all" in teachers
        for name, read, positive in (
            ("agc_lambda", transform == "agc", True),
            ("rho", sam, True),
            ("sigma_w", noisy, False),
            ("sigma_g", ascent, False),
            ("ascent_lr", ascent and self.ascent_lr is not None, False),  # None: the lr
        ):
            value = getattr(self, name)
            if read and not (value > 0 if positive else value >= 0):
                raise ValueError(f"{name} must be {'positive' if positive else '>= 0'}, got {value}")
            if read and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    def step(
        self,
        model: Model,
        batch: MixedBatch,
        state: AdamState,
        lr: float,
        noise_seed: np.random.SeedSequence | None = None,
    ) -> StepReport:
        transform, sam, teachers = PRESETS[self.id]
        ascent_lr = lr if self.ascent_lr is None else self.ascent_lr
        self._validate(teachers, ascent_lr, noise_seed)
        start, busy, faults = time.perf_counter(), lane_busy_s(), _minor_faults()
        split, noise, drawn = self._draw_ahead(model, teachers, noise_seed)
        try:
            task = lambda z: mixed_cross_entropy(z, batch, model.num_classes)  # noqa: E731
            logits_w, task_loss, grads = _grad_pass(model, Tensor(batch.images), task, "task")
            flags: tuple[str, ...] = ()
            if transform == "gc":
                grads = gradient_centralize(grads)
            elif transform == "agc":
                grads = adaptive_gradient_clip(model.params, grads, self.agc_lambda)
            if sam:  # the gradient at the sam point
                shifted = sam_point(model, grads, self.rho)
                if shifted is None:  # skip the ascent: the step degenerates to baseline
                    flags = ("zero-gradient",)
                else:
                    _, _, grads = _grad_pass(shifted, Tensor(batch.images), task, "task")
            kl_loss = 0.0
            if teachers:
                # transient update of a copy on a state clone: w and the moments stay put
                teacher = model.clone()
                adam_step(teacher.params, grads, state.clone(), lr)
                parts = [grads]
                kl_of = lambda z: kl_divergence(Tensor(logits_w), z, detach_p=True)  # noqa: E731
                # the teachers share the forward of the layers before ``split``
                with Tape() as tape:
                    x = teacher.forward(Tensor(batch.images), stop=split)
                drawn()
                for layer_filter, shift in zip(teachers, noise):
                    if layer_filter == "gradient-all":  # a noisy ascent step
                        shift = {n: ascent_lr * (g + shift[n]) for n, g in grads.items()}
                    record = add_noise(teacher.params, shift)
                    _, kl, g_aux = _grad_pass(teacher, x, kl_of, "KL", tape, split)
                    subtract_noise(teacher.params, record)
                    kl_loss += kl
                    parts.append(g_aux)
                grads = aggregate_gradients(parts)
                if not self.rollback_to_w:  # the final update starts from w_up
                    model.params.restore(teacher.params.snapshot())
        finally:
            drawn()  # no draw outlives its step
        adam_step(model.params, grads, state, lr)
        wall_ms, lane_ms = (time.perf_counter() - start) * 1e3, (lane_busy_s() - busy) * 1e3
        faults = _minor_faults() - faults
        return StepReport(task_loss, kl_loss, lr, grads.global_norm(), wall_ms, lane_ms, faults,
                          flags)

    def _validate(self, teachers: tuple[str, ...], ascent_lr: float, noise_seed) -> None:
        """Reject what depends on the step's arguments before any pass runs."""
        if teachers and noise_seed is None:
            # a fixed default would draw the same teacher noise at every step
            raise ValueError(f"strategy {self.id!r} draws teacher noise and needs a noise_seed")
        if "gradient-all" in teachers and ascent_lr < 0:  # the scheduled lr
            raise ValueError(f"ascent_lr must be >= 0, got {ascent_lr}")

    def _draw_ahead(
        self, model: Model, teachers: tuple[str, ...], noise_seed
    ) -> tuple[str | None, list[dict[str, np.ndarray]], Callable[[], None]]:
        """The first layer that a teacher shifts (its filter's ``noise_targets``,
        or all for "gradient-all"): the teachers' forwards match before it.
        Then the list the lane worker starts filling now, one ``{name:
        normals}`` dict per teacher in teacher order, drawn at sigma_w or
        sigma_g from its own rng, spawned from ``noise_seed``; and the wait."""
        if not teachers:
            return None, [], lambda: None
        jobs, noise = [], []
        for layer_filter, child in zip(teachers, noise_seed.spawn(len(teachers))):
            noisy = layer_filter in PARAM_FILTERS
            entries = noise_targets(model.params, layer_filter if noisy else "all")
            shapes = {name: a.shape for name, a in entries.items()}
            sigma = self.sigma_w if noisy else self.sigma_g
            jobs.append((np.random.default_rng(child), sigma, shapes))
        wait = _in_background(lambda: noise.extend(_draw(*job) for job in jobs))
        shifted = {model.params.entry(name).layer for _, _, shapes in jobs for name in shapes}
        return next(layer for layer in model.layers() if layer in shifted), noise, wait


def _draw(rng: np.random.Generator, sigma: float, shapes: dict) -> dict[str, np.ndarray]:
    """One teacher's N(0, sigma^2) normals, an array per entry in entry order."""
    return {name: rng.normal(0.0, sigma, shape) for name, shape in shapes.items()}


def sam_point(model: Model, grads: GradSet, rho: float) -> Model | None:
    """A copy of the model at w + rho * g/||g||, or None for a zero gradient."""
    norm = grads.global_norm()
    if norm == 0.0:
        return None
    shifted = model.clone()
    shifted.params.add_scaled(grads, rho / norm)
    return shifted


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    return np.eye(num_classes, dtype=np.float64)[np.asarray(labels, dtype=np.int64)]


def mixed_cross_entropy(logits: Tensor, batch: MixedBatch, num_classes: int) -> Tensor:
    """lam * CE(label_a) + (1 - lam) * CE(label_b) with hard one-hot targets."""
    ce_a = softmax_cross_entropy(logits, Tensor(one_hot(batch.label_a, num_classes)))
    ce_b = softmax_cross_entropy(logits, Tensor(one_hot(batch.label_b, num_classes)))
    return add(scale(ce_a, batch.lam), scale(ce_b, 1.0 - batch.lam))


def _grad_pass(
    model: Model, x: Tensor, loss_of: Callable[[Tensor], Tensor], what: str,
    tape: Tape | None = None, start: str | None = None,
) -> tuple[np.ndarray, float, GradSet]:
    """Logits, loss and gradient of ``loss_of(logits)`` at the current weights;
    a non-finite loss raises ``NonFiniteLossError`` naming ``what``.

    The forward records on ``tape`` (a fresh one by default). With ``start``
    it begins at that layer, and ``x`` is that layer's input recorded on the
    same tape; otherwise ``x`` holds the images."""
    with Tape() if tape is None else tape:
        logits = model.forward(x, start=start)
        loss = loss_of(logits)
    value = loss.item()
    if not np.isfinite(value):
        raise NonFiniteLossError(f"{what} loss is {value!r}")
    return logits.data, value, GradSet.from_backward(model.params, backward(loss))
