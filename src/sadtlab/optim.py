"""Adam with cosine decay, gradient transforms, and exact-rollback noise.

Gradient sets mirror a ParamSet entry-for-entry; every operation re-checks
alignment. Noise injection keeps the drawn noise, the pre-noise values, and
the post-noise values, so removal restores the target bitwise and detects
application against the wrong tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nn import ParamSet

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
AGC_EPS = 1e-3

PARAM_FILTERS = ("all", "last-conv", "last-dense")
GRAD_FILTERS = ("gradient-all",)


class AlignmentError(ValueError):
    """A GradSet does not line up with its ParamSet (names or shapes)."""


class NoiseError(ValueError):
    """Noise record misuse: bad filter, wrong target, or reuse."""


class GradSet:
    """Ordered gradients aligned 1:1 with a ParamSet (same names and shapes)."""

    def __init__(self, entries: list[tuple[str, np.ndarray, str]]):
        self.entries = [(name, np.asarray(arr, dtype=np.float64), kind) for name, arr, kind in entries]
        self._by_name = {name: arr for name, arr, _ in self.entries}

    @classmethod
    def zeros_like(cls, params: ParamSet) -> "GradSet":
        return cls([(e.name, np.zeros(e.tensor.shape), e.kind) for e in params.entries])

    @classmethod
    def from_backward(cls, params: ParamSet, leaf_grads) -> "GradSet":
        """Collect leaf gradients for each parameter; absent leaves get exact zeros."""
        entries = []
        for e in params.entries:
            g = leaf_grads.get(e.tensor)
            if g is None:
                g = np.zeros(e.tensor.shape)
            else:
                if g.shape != e.tensor.shape:
                    raise AlignmentError(f"gradient for {e.name} has shape {g.shape}")
                g = np.array(g)
            entries.append((e.name, g, e.kind))
        return cls(entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, name: str) -> np.ndarray:
        return self._by_name[name]

    def names(self) -> list[str]:
        return [name for name, _, _ in self.entries]

    def clone(self) -> "GradSet":
        return GradSet([(name, arr.copy(), kind) for name, arr, kind in self.entries])

    def check_aligned(self, other) -> None:
        if isinstance(other, ParamSet):
            pairs = [(e.name, e.tensor.shape) for e in other.entries]
        else:
            pairs = [(name, arr.shape) for name, arr, _ in other.entries]
        mine = [(name, arr.shape) for name, arr, _ in self.entries]
        if mine != pairs:
            raise AlignmentError(f"gradient entries {mine} do not align with {pairs}")

    def global_norm(self) -> float:
        """L2 norm over the concatenation of all entries, fixed summation order."""
        total = math.fsum(float(np.dot(arr.ravel(), arr.ravel())) for _, arr, _ in self.entries)
        return math.sqrt(total)


def aggregate_gradients(parts: list[GradSet]) -> GradSet:
    """Elementwise sum across gradient sets, in the given part order."""
    if not parts:
        raise ValueError("aggregate_gradients needs at least one part")
    first = parts[0]
    for other in parts[1:]:
        other.check_aligned(first)
    out = first.clone()
    for other in parts[1:]:
        for (_, acc, _), (_, arr, _) in zip(out.entries, other.entries):
            acc += arr
    return out


# ---------------------------------------------------------------------------
# learning-rate schedule and Adam
# ---------------------------------------------------------------------------


@dataclass
class Schedule:
    """Cosine decay from initial_lr at step 0 to exactly 0 at total_steps."""

    total_steps: int
    initial_lr: float = 0.0001

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")


def cosine_lr(schedule: Schedule, t: int) -> float:
    if t < 0 or t > schedule.total_steps:
        raise ValueError(f"step {t} outside [0, {schedule.total_steps}]")
    return schedule.initial_lr * 0.5 * (1.0 + math.cos(math.pi * t / schedule.total_steps))


class AdamState:
    """First/second moment estimates per parameter plus the step counter."""

    def __init__(self, params: ParamSet):
        self.m = {e.name: np.zeros(e.tensor.shape) for e in params.entries}
        self.v = {e.name: np.zeros(e.tensor.shape) for e in params.entries}
        self.t = 0

    def clone(self) -> "AdamState":
        dup = AdamState.__new__(AdamState)
        dup.m = {k: v.copy() for k, v in self.m.items()}
        dup.v = {k: v.copy() for k, v in self.v.items()}
        dup.t = self.t
        return dup


def adam_step(params: ParamSet, grads: GradSet, state: AdamState, lr: float) -> ParamSet:
    """One bias-corrected Adam update, in place; advances the state by one step."""
    grads.check_aligned(params)
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for e, (_, g, _) in zip(params.entries, grads):
        m = state.m[e.name]
        v = state.v[e.name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        e.tensor.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return params


# ---------------------------------------------------------------------------
# gradient transforms
# ---------------------------------------------------------------------------


def gradient_centralize(grads: GradSet) -> GradSet:
    """Subtract the per-filter (conv) or per-output-unit (dense) mean from
    weight gradients; bias and other gradients pass through untouched."""
    entries = []
    for name, arr, kind in grads.entries:
        if kind == "conv":
            arr = arr - arr.mean(axis=(1, 2, 3), keepdims=True)
        elif kind == "dense":
            arr = arr - arr.mean(axis=0, keepdims=True)
        else:
            arr = arr.copy()
        entries.append((name, arr, kind))
    return GradSet(entries)


def _unit_norms(arr: np.ndarray) -> np.ndarray:
    if arr.ndim <= 1:
        return np.sqrt(np.sum(arr * arr, keepdims=True))
    if arr.ndim == 2:  # dense weights (in, out): one unit per output column
        return np.sqrt(np.sum(arr * arr, axis=0, keepdims=True))
    axes = tuple(range(1, arr.ndim))  # conv kernels (F, C, kh, kw): per filter
    return np.sqrt(np.sum(arr * arr, axis=axes, keepdims=True))


def adaptive_gradient_clip(params: ParamSet, grads: GradSet, lam: float = 0.01) -> GradSet:
    """Per unit, rescale g so that ||g|| <= lam * max(||w||, 1e-3)."""
    if lam <= 0:
        raise ValueError(f"clip ratio must be positive, got {lam}")
    grads.check_aligned(params)
    entries = []
    for e, (name, g, kind) in zip(params.entries, grads):
        wn = np.maximum(_unit_norms(e.tensor.data), AGC_EPS)
        gn = _unit_norms(g)
        bound = lam * wn
        mask = gn > bound
        if np.any(mask):
            factor = np.ones_like(gn)
            np.divide(bound, gn, out=factor, where=mask)
            g = g * factor
        else:
            g = g.copy()
        entries.append((name, g, kind))
    return GradSet(entries)


# ---------------------------------------------------------------------------
# noise injection with exact rollback
# ---------------------------------------------------------------------------


@dataclass
class NoiseRecord:
    """Exact noise added to named tensors, retained for exact removal.

    Keeps the drawn noise, the pre-noise values, and the post-noise values.
    Removal verifies the target still holds the post-noise values, restores
    the originals bitwise, and consumes the record.
    """

    sigma: float
    layer_filter: str
    entries: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(default_factory=dict)
    consumed: bool = False

    def names(self) -> list[str]:
        return list(self.entries)

    def noise(self, name: str) -> np.ndarray:
        return self.entries[name][0]


def _noise_targets(target, layer_filter: str) -> list[tuple[str, np.ndarray]]:
    if isinstance(target, ParamSet):
        if layer_filter not in PARAM_FILTERS:
            raise NoiseError(f"filter {layer_filter!r} does not apply to parameters")
        if layer_filter == "all":
            return [(e.name, e.tensor.data) for e in target.entries]
        layer = target.last_conv_layer() if layer_filter == "last-conv" else target.last_dense_layer()
        if layer is None:
            raise NoiseError(f"filter {layer_filter!r} selects nothing in this model")
        return [(e.name, e.tensor.data) for e in target.layer_entries(layer)]
    if isinstance(target, GradSet):
        if layer_filter not in GRAD_FILTERS:
            raise NoiseError(f"filter {layer_filter!r} does not apply to gradients")
        return [(name, arr) for name, arr, _ in target.entries]
    raise TypeError(f"cannot add noise to {type(target).__name__}")


def add_noise(
    target,
    sigma: float,
    layer_filter: str,
    rng: np.random.Generator,
) -> NoiseRecord:
    """Add elementwise N(0, sigma^2) noise to the selected tensors in place.

    Selection: parameter sets accept "all", "last-conv", "last-dense";
    gradient sets accept "gradient-all". Entries are perturbed in their
    stored order so the draw sequence is reproducible from the given rng.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    selected = _noise_targets(target, layer_filter)
    if not selected:
        raise NoiseError(f"filter {layer_filter!r} selected no tensors")
    record = NoiseRecord(sigma=sigma, layer_filter=layer_filter)
    for name, arr in selected:
        noise = rng.normal(0.0, sigma, size=arr.shape)
        before = arr.copy()
        arr += noise
        record.entries[name] = (noise, before, arr.copy())
    return record


def subtract_noise(target, record: NoiseRecord) -> None:
    """Remove recorded noise, restoring the pre-noise values bitwise.

    The record is single-use and must match the target's current noised
    state; otherwise the call fails without modifying anything.
    """
    if record.consumed:
        raise NoiseError("noise record already applied (single-use)")
    live = dict(_noise_targets(target, record.layer_filter))
    if set(record.entries) != set(live):
        raise NoiseError(
            f"record names {sorted(record.entries)} do not match target {sorted(live)}"
        )
    for name, (_, _, after) in record.entries.items():
        arr = live[name]
        if arr.shape != after.shape:
            raise NoiseError(f"shape mismatch for {name}: {arr.shape} vs {after.shape}")
        if not np.array_equal(arr, after):
            raise NoiseError(f"target {name} is not in the state this record was taken from")
    for name, (_, before, _) in record.entries.items():
        live[name][...] = before
    record.consumed = True
