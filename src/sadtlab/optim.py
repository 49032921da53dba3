"""Adam with cosine decay, gradient transforms, and parameter shifts.

Adam updates the parameters and both moments in place, each entry through
two scratch buffers rather than a temporary per operation, and splits the
entries over the lane worker when both lanes are large enough.

A gradient set is ``{name: array}`` in parameter order, like every other
per-parameter set; every operation on one re-checks its alignment. Gradient
centralization and adaptive clipping share one unit, picked by shape
(``_unit_axes``): a conv filter, a dense output column, or a whole bias.
``noise_targets`` names the entries a layer filter selects. A parameter shift
(drawn noise, or a noisy ascent step), added by ``add_noise``, keeps the shift
and the values before it; removal checks bitwise that the parameters hold
their sum, which detects the wrong tensors, and restores the values before
it. Strategies shift only a copy of the live weights, never the live ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import _both
from .nn import ParamEntry, ParamSet

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
AGC_EPS = 1e-3
# Least elements each lane of an Adam step must hold, or the step runs on one
# lane. A 28x28 simple_cnn's lanes hold 147k and 90k elements; an 8x8 one's
# about 53k each, and stay on one lane, where a split saved about 0.05 ms of a
# 2.3-6.7 ms step.
_ADAM_LANE_MIN = 64_000

PARAM_FILTERS = ("all", "last-conv", "last-dense")


class AlignmentError(ValueError):
    """A GradSet does not line up with its ParamSet (names or shapes)."""


class NoiseError(ValueError):
    """Noise record misuse: bad filter, wrong target, or reuse."""


class GradSet(dict):
    """Gradients by parameter name, ``{name: array}`` in parameter order, like
    a snapshot or the Adam moments. What a dict lacks is here: collecting
    them from ``backward``, the alignment check and the global norm."""

    @classmethod
    def from_backward(cls, params: ParamSet, leaf_grads) -> "GradSet":
        """Collect each parameter's leaf gradient, uncopied (``backward`` returns
        fresh arrays); absent leaves get exact zeros."""
        grads = cls()
        for e in params.entries:
            g = leaf_grads.get(e.tensor)
            if g is None:
                g = np.zeros(e.tensor.shape)
            elif g.shape != e.tensor.shape:
                raise AlignmentError(f"gradient for {e.name} has shape {g.shape}")
            grads[e.name] = g
        return grads

    def check_aligned(self, other) -> None:
        arrays = {e.name: e.tensor for e in other.entries} if isinstance(other, ParamSet) else other
        pairs = [(name, arr.shape) for name, arr in arrays.items()]
        mine = [(name, arr.shape) for name, arr in self.items()]
        if mine != pairs:
            raise AlignmentError(f"gradient entries {mine} do not align with {pairs}")

    def global_norm(self) -> float:
        """L2 norm over the concatenation of all entries, fixed summation order."""
        total = math.fsum(float(np.dot(arr.ravel(), arr.ravel())) for arr in self.values())
        return math.sqrt(total)


def aggregate_gradients(parts: list[GradSet]) -> GradSet:
    """Elementwise sum across gradient sets, in the given part order."""
    if not parts:
        raise ValueError("aggregate_gradients needs at least one part")
    out = GradSet({name: arr.copy() for name, arr in parts[0].items()})
    for other in parts[1:]:
        other.check_aligned(out)
        for name, arr in other.items():
            out[name] += arr
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
    """One bias-corrected Adam update, in place; advances the state by one step.

    Per entry, ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``p -= lr*(m/c1) / (sqrt(v/c2) + eps)``, each ufunc in that order, writing
    into two scratch buffers per lane. The entries are dealt, largest first,
    to the lighter of two lanes; when each lane holds at least
    ``_ADAM_LANE_MIN`` elements, the lane worker runs one of them.
    """
    grads.check_aligned(params)
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t

    def update(entries: list[ParamEntry]) -> None:
        most = max((e.tensor.data.size for e in entries), default=0)
        t_buf, u_buf = np.empty(most), np.empty(most)
        for e in entries:
            p, g, m, v = e.tensor.data, grads[e.name], state.m[e.name], state.v[e.name]
            t, u = t_buf[: p.size].reshape(p.shape), u_buf[: p.size].reshape(p.shape)
            m *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=t)
            m += t
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=t)
            t *= g
            v += t
            np.divide(v, c2, out=t)
            np.sqrt(t, out=t)
            t += ADAM_EPS
            np.divide(m, c1, out=u)
            u *= lr
            u /= t
            p -= u

    lanes: tuple[list[ParamEntry], list[ParamEntry]] = ([], [])
    loads = [0, 0]
    for e in sorted(params.entries, key=lambda e: -e.tensor.data.size):
        lane = loads.index(min(loads))
        lanes[lane].append(e)
        loads[lane] += e.tensor.data.size
    if min(loads) < _ADAM_LANE_MIN:
        update(params.entries)
    else:
        _both(lambda: update(lanes[0]), lambda: update(lanes[1]))
    return params


# ---------------------------------------------------------------------------
# gradient transforms
# ---------------------------------------------------------------------------


def _unit_axes(arr: np.ndarray) -> tuple[int, ...] | None:
    """The axes one unit spans: None for a bias (<= 1-D), one whole unit;
    (0,) for a dense weight (in, out), one unit per output column; the
    trailing axes for a conv kernel (F, C, kh, kw), one unit per filter."""
    if arr.ndim <= 1:
        return None
    return (0,) if arr.ndim == 2 else tuple(range(1, arr.ndim))


def gradient_centralize(grads: GradSet) -> GradSet:
    """Subtract each unit's mean from a weight gradient (``_unit_axes``);
    bias gradients pass through, copied."""
    out = GradSet()
    for name, arr in grads.items():
        axes = _unit_axes(arr)
        out[name] = arr.copy() if axes is None else arr - arr.mean(axis=axes, keepdims=True)
    return out


def _unit_norms(arr: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(arr * arr, axis=_unit_axes(arr), keepdims=True))


def adaptive_gradient_clip(params: ParamSet, grads: GradSet, lam: float = 0.01) -> GradSet:
    """Per unit (``_unit_axes``), rescale g so that ||g|| <= lam * max(||w||, 1e-3)."""
    if lam <= 0:
        raise ValueError(f"clip ratio must be positive, got {lam}")
    grads.check_aligned(params)
    out = GradSet()
    for e in params.entries:
        g = grads[e.name]
        gn = _unit_norms(g)
        bound = lam * np.maximum(_unit_norms(e.tensor.data), AGC_EPS)
        factor = np.ones_like(gn)  # g * 1.0 is g, bit for bit, in the units inside the bound
        np.divide(bound, gn, out=factor, where=gn > bound)
        out[e.name] = g * factor
    return out


# ---------------------------------------------------------------------------
# parameter noise with exact removal
# ---------------------------------------------------------------------------


@dataclass
class NoiseRecord:
    """A shift added in place to named parameters, kept for exact removal:
    ``shifts`` and the values ``before`` it, each ``{name: array}``. Single-use."""

    shifts: dict[str, np.ndarray] = field(default_factory=dict)
    before: dict[str, np.ndarray] = field(default_factory=dict)
    consumed: bool = False


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
        record.shifts[name], record.before[name] = shift, arrays[name].copy()
    for name, shift in record.shifts.items():
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
    for name, shift in record.shifts.items():
        if name not in arrays or not np.array_equal(arrays[name], record.before[name] + shift):
            raise NoiseError(f"target {name} is not in the state this record was taken from")
    for name, before in record.before.items():
        arrays[name][...] = before
    record.consumed = True
