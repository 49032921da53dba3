"""Adam with cosine decay, gradient transforms, and parameter shifts.

Gradient sets mirror a ParamSet entry-for-entry; every operation re-checks
alignment. ``noise_targets`` names the entries a layer filter selects. A
parameter shift (drawn noise, or a noisy ascent step), added by ``add_noise``,
keeps the shift and the values before it; removal checks bitwise that the
parameters hold their sum, which detects the wrong tensors, and restores the
values before it. Strategies shift only a copy of the live weights, never the
live ones.
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
    def from_backward(cls, params: ParamSet, leaf_grads) -> "GradSet":
        """Collect each parameter's leaf gradient, uncopied (``backward`` returns
        fresh arrays); absent leaves get exact zeros."""
        entries = []
        for e in params.entries:
            g = leaf_grads.get(e.tensor)
            if g is None:
                g = np.zeros(e.tensor.shape)
            elif g.shape != e.tensor.shape:
                raise AlignmentError(f"gradient for {e.name} has shape {g.shape}")
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
# parameter noise with exact removal
# ---------------------------------------------------------------------------


@dataclass
class NoiseRecord:
    """A shift added in place to named parameters, kept for exact removal:
    each entry holds the shift and the values before it. Single-use."""

    entries: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    consumed: bool = False

    def names(self) -> list[str]:
        return list(self.entries)

    def noise(self, name: str) -> np.ndarray:
        return self.entries[name][0]


def noise_targets(params: ParamSet, layer_filter: str) -> dict[str, np.ndarray]:
    if not isinstance(params, ParamSet):
        raise NoiseError(f"noise applies to parameters, not to {type(params).__name__}")
    if layer_filter not in PARAM_FILTERS:
        raise NoiseError(f"filter {layer_filter!r} does not apply to parameters")
    if layer_filter == "all":
        return {e.name: e.tensor.data for e in params.entries}
    layers = params.layers("conv" if layer_filter == "last-conv" else "dense")
    if not layers:
        raise NoiseError(f"filter {layer_filter!r} selects nothing in this model")
    return {e.name: e.tensor.data for e in params.entries if e.layer == layers[-1]}


def add_noise(params: ParamSet, shifts: dict[str, np.ndarray]) -> NoiseRecord:
    """Add each named shift to its parameter in place, after checking every
    name and shape. The caller draws the shifts: a teacher's noise, or a noisy
    ascent step."""
    arrays = noise_targets(params, "all")
    record = NoiseRecord()
    for name, shift in shifts.items():
        if name not in arrays or shift.shape != arrays[name].shape:
            raise NoiseError(f"no parameter {name!r} of shape {shift.shape}")
        record.entries[name] = (shift, arrays[name].copy())
    for name, (shift, _) in record.entries.items():
        arrays[name] += shift
    return record


def subtract_noise(params: ParamSet, record: NoiseRecord) -> None:
    """Remove a recorded shift, restoring the values before it bitwise.

    Fails, modifying nothing, unless the record is unused and each parameter
    it names holds exactly ``before + shift``, the IEEE sum the add made.
    """
    if record.consumed:
        raise NoiseError("noise record already applied (single-use)")
    arrays = noise_targets(params, "all")
    for name, (shift, before) in record.entries.items():
        if name not in arrays or not np.array_equal(arrays[name], before + shift):
            raise NoiseError(f"target {name} is not in the state this record was taken from")
    for name, (_, before) in record.entries.items():
        arrays[name][...] = before
    record.consumed = True
