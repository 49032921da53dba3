"""Layer and model definitions with named, ordered parameter access.

Two architectures: the 3-conv/3-dense CNN used throughout the experiments,
and a dense stack that serves as a fast fixture for gradient and property
suites. Parameters are He-uniform initialized from an explicit seed so that
compared training runs share one initial point.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import InputError
from .autodiff import (
    ShapeError,
    Tensor,
    add,
    conv2d,
    matmul,
    max_pool2x2_relu,
    relu,
    reshape,
    transpose,
)

CHECKPOINT_MAGIC = b"SADTCKPT"
CHECKPOINT_VERSION = 1

SIMPLE_CNN_CONV_WIDTHS = (32, 64, 64)
SIMPLE_CNN_DENSE_WIDTHS = (256, 128)


class CheckpointError(InputError):
    """Malformed or truncated checkpoint file."""


@dataclass
class ParamEntry:
    name: str  # path like "conv1.weight"
    tensor: Tensor
    kind: str  # one of {conv, dense, bias, other}
    layer: str  # name prefix, e.g. "conv1"


def _kind_for(name: str) -> tuple[str, str]:
    layer, _, role = name.partition(".")
    if role == "bias":
        return "bias", layer
    if layer.startswith("conv"):
        return "conv", layer
    if layer.startswith("dense"):
        return "dense", layer
    return "other", layer


class ParamSet:
    """Ordered, uniquely named collection of leaf parameter tensors."""

    def __init__(self, entries: list[ParamEntry]):
        names = [e.name for e in entries]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {names}")
        self.entries = list(entries)
        self._by_name = {e.name: e for e in self.entries}

    @classmethod
    def from_named_arrays(cls, named: list[tuple[str, np.ndarray]]) -> "ParamSet":
        entries = []
        for name, arr in named:
            kind, layer = _kind_for(name)
            entries.append(ParamEntry(name, Tensor(arr, requires_grad=True), kind, layer))
        return cls(entries)

    def __iter__(self):
        return iter(self.entries)

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def get(self, name: str) -> Tensor:
        return self._by_name[name].tensor

    def entry(self, name: str) -> ParamEntry:
        return self._by_name[name]

    def layers(self, kind: str) -> list[str]:
        """Names of the layers whose weights are of ``kind`` ("conv" or
        "dense"), in parameter order."""
        return list(dict.fromkeys(e.layer for e in self.entries if e.kind == kind))

    def clone(self) -> "ParamSet":
        return ParamSet(
            [
                ParamEntry(e.name, Tensor(e.tensor.data.copy(), requires_grad=True), e.kind, e.layer)
                for e in self.entries
            ]
        )

    def snapshot(self) -> dict[str, np.ndarray]:
        """Bitwise copy of every parameter array."""
        return {e.name: e.tensor.data.copy() for e in self.entries}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        """Write a snapshot back into the live parameter buffers."""
        if set(snap) != set(self._by_name):
            raise ValueError("snapshot does not match this parameter set")
        for e in self.entries:
            e.tensor.data[...] = snap[e.name]

    def add_scaled(self, grads, coeff: float) -> None:
        """In-place ``p += coeff * g`` over aligned gradient entries."""
        grads.check_aligned(self)
        for e in self.entries:
            e.tensor.data += coeff * grads[e.name]


class Model:
    """A ParamSet plus the deterministic forward rule its layers imply.

    With any conv layers, the forward runs each conv layer as conv, then 2x2
    max pool and ReLU as one op (``max_pool2x2_relu``), then flattens into the
    dense stack; without, it flattens the input straight into the dense stack.
    Layers run in parameter order.

    Pooling before the ReLU is the same function as the usual conv, ReLU,
    pool, bit for bit in values and gradients: ReLU is monotone, so it
    commutes with a max, and a window whose max is <= 0 passes zeros with
    g's sign in either order. The ReLU just runs at a quarter of the size,
    on the images each lane has just pooled.
    """

    def __init__(self, params: ParamSet, input_shape: tuple[int, ...]):
        self.params = params
        self.input_shape = input_shape  # (C, H, W) or (input_dim,)

    def layers(self) -> list[str]:
        """Layer names in forward order: the conv layers, then the dense ones."""
        return self.params.layers("conv") + self.params.layers("dense")

    def forward(self, x: Tensor, start: str | None = None, stop: str | None = None) -> Tensor:
        """Raw pre-softmax logits for a batch, recorded on the active tape.

        ``stop`` ends the forward before that layer and returns the activation
        the layer would take; ``start`` resumes at that layer from such an
        activation ``x`` instead of a batch of images. Every layer runs the same
        ops either way, so a forward split in two gives the whole one's bits.
        """
        layers = self.layers()
        lo = 0 if start is None else layers.index(start)
        hi = len(layers) if stop is None else layers.index(stop)
        if start is None:
            x = self._entry(x)
        for layer in layers[lo:hi]:
            x = self._layer(layer, x, last=layer == layers[-1])
        return x

    def _entry(self, images: Tensor) -> Tensor:
        """The first layer's input. A CNN takes images N x C x H x W and carries
        them channels last (N x H x W x C) through every conv, pool and ReLU;
        an MLP takes them flattened."""
        if self.params.layers("conv"):
            if images.data.ndim != 4 or images.shape[1:] != tuple(self.input_shape):
                raise ShapeError(
                    f"expected batch of shape N x {self.input_shape}, got {images.shape}"
                )
            return transpose(images, (0, 2, 3, 1))
        x = images
        if x.data.ndim > 2:
            x = reshape(x, (x.shape[0], int(np.prod(x.shape[1:]))))
        if x.data.ndim != 2 or x.shape[1] != self.input_shape[0]:
            raise ShapeError(
                f"expected batch of {self.input_shape[0]} features, got {images.shape}"
            )
        return x

    def _layer(self, layer: str, x: Tensor, last: bool) -> Tensor:
        """One layer: conv, 2x2 max pool and ReLU, or dense with a ReLU unless
        it is the last. A dense layer flattens a channels-last input, transposed
        back to channels first, so ``dense1.weight`` rows keep their (C, H, W)
        order and checkpoints stay interchangeable."""
        w = self.params.get(f"{layer}.weight")
        b = self.params.get(f"{layer}.bias")
        if self.params.entry(f"{layer}.weight").kind == "conv":
            return max_pool2x2_relu(conv2d(x, w, b))
        if x.data.ndim == 4:
            x = transpose(x, (0, 3, 1, 2))
            x = reshape(x, (x.shape[0], int(np.prod(x.shape[1:]))))
        if x.shape[1] != w.shape[0]:
            raise ShapeError(f"{layer} expects {w.shape[0]} features, got {x.shape[1]}")
        x = add(matmul(x, w), b)
        return x if last else relu(x)

    @property
    def num_classes(self) -> int:
        last = self.params.layers("dense")[-1]
        return self.params.get(f"{last}.weight").shape[1]

    def clone(self) -> "Model":
        return Model(self.params.clone(), self.input_shape)


def _he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def build_simple_cnn(
    input_shape: tuple[int, int, int], num_classes: int, seed: int
) -> Model:
    """3x(3x3 conv, 2x2 max pool, ReLU) then 3 dense layers with ReLU between.

    Conv, pool, ReLU computes exactly what conv, ReLU, pool does (see
    :class:`Model`), with the ReLU on the pooled quarter.

    Channel widths 32/64/64 and dense widths 256/128/num_classes; He-uniform
    weights from the given seed, zero biases. Requires spatial extents >= 8 so
    all three pools stay non-degenerate.
    """
    c, h, w = (int(v) for v in input_shape)
    if h < 8 or w < 8:
        raise ShapeError(f"input {c}x{h}x{w} too small for three 2x2 pools (need H,W >= 8)")
    rng = np.random.default_rng(seed)
    named: list[tuple[str, np.ndarray]] = []
    in_ch = c
    for i, out_ch in enumerate(SIMPLE_CNN_CONV_WIDTHS, start=1):
        fan_in = in_ch * 3 * 3
        named.append((f"conv{i}.weight", _he_uniform(rng, (out_ch, in_ch, 3, 3), fan_in)))
        named.append((f"conv{i}.bias", np.zeros(out_ch)))
        in_ch = out_ch
    flat = in_ch * (h // 8) * (w // 8)
    dims = (flat, *SIMPLE_CNN_DENSE_WIDTHS, int(num_classes))
    for i in range(1, len(dims)):
        named.append((f"dense{i}.weight", _he_uniform(rng, (dims[i - 1], dims[i]), dims[i - 1])))
        named.append((f"dense{i}.bias", np.zeros(dims[i])))
    return Model(ParamSet.from_named_arrays(named), (c, h, w))


def build_tiny_mlp(
    input_dim: int, hidden_dims: list[int], num_classes: int, seed: int
) -> Model:
    """Dense/ReLU stack; empty hidden_dims gives a single linear layer."""
    dims = [int(input_dim), *(int(d) for d in hidden_dims), int(num_classes)]
    if any(d <= 0 for d in dims):
        raise ValueError(f"dimensions must be positive, got {dims}")
    rng = np.random.default_rng(seed)
    named: list[tuple[str, np.ndarray]] = []
    for i in range(1, len(dims)):
        named.append((f"dense{i}.weight", _he_uniform(rng, (dims[i - 1], dims[i]), dims[i - 1])))
        named.append((f"dense{i}.bias", np.zeros(dims[i])))
    return Model(ParamSet.from_named_arrays(named), (dims[0],))


def model_from_params(params: ParamSet, input_shape: tuple[int, ...] | None = None) -> Model:
    """Rebuild a model from parameters alone, e.g. a loaded checkpoint.

    The forward rule follows from the layers (see :class:`Model`). The input
    shape is inferred from the first layer when not given (conv kernels fix
    channels only, so H and W are required for CNNs). Parameters that no
    model runs raise ``CheckpointError``: no dense layer, a layer without its
    weight or bias, an entry no layer runs, a weight and bias of a shape no
    conv or dense layer has, a conv kernel that is not odd and square, or a
    layer whose inputs differ from the previous layer's outputs (except the
    first dense layer after a conv, whose inputs the image size sets).
    """
    if not params.layers("dense"):
        raise CheckpointError("no model runs parameters without a dense layer")
    for layer in dict.fromkeys(e.layer for e in params):
        missing = {f"{layer}.weight", f"{layer}.bias"} - set(params.names())
        if missing:
            raise CheckpointError(f"layer {layer} lacks {', '.join(sorted(missing))}")
    convs = params.layers("conv")
    runs = convs + params.layers("dense")
    stray = set(params.names()) - {f"{layer}.{r}" for layer in runs for r in ("weight", "bias")}
    if stray:
        raise CheckpointError(f"no layer runs {', '.join(sorted(stray))}")
    prev, gives = None, 0  # the previous layer and its output count
    for layer in runs:
        w, b = params.get(f"{layer}.weight").shape, params.get(f"{layer}.bias").shape
        conv = layer in convs
        rank, out = (4, 0) if conv else (2, 1)  # F x C x k x k, or in x out
        if len(w) != rank or b != (w[out],):
            raise CheckpointError(f"layer {layer} has weight {w} and bias {b}")
        if conv and not (w[2] == w[3] and w[2] % 2):
            raise CheckpointError(f"layer {layer} has a {w[2]}x{w[3]} kernel, not an odd square")
        takes = w[1 - out]  # the dense layer after a conv takes C x H x W, set by the image size
        if prev and (conv or prev not in convs) and takes != gives:
            raise CheckpointError(f"layer {layer} takes {takes} inputs, but {prev} gives {gives}")
        prev, gives = layer, w[out]
    if convs:
        if input_shape is None:
            raise ValueError("input_shape (C, H, W) is required to rebuild a conv model")
        return Model(params, tuple(int(v) for v in input_shape))
    return Model(params, (params.get(f"{runs[0]}.weight").shape[0],))


# ---------------------------------------------------------------------------
# checkpoint format: magic, version u32; per entry name-length u32, name,
# rank u32, extents u64[], little-endian f64 payload
# ---------------------------------------------------------------------------


@contextmanager
def replace_whole(path):
    """Yield ``<path>.part`` to write ``path`` whole or not at all: the part
    replaces ``path`` after the block, and is removed if the block fails."""
    part = Path(f"{path}.part")
    try:
        yield part
        part.replace(path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def save_checkpoint(params: ParamSet, path) -> None:
    with replace_whole(path) as part, open(part, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION))
        for e in params.entries:
            name, arr = e.name.encode("utf-8"), e.tensor.data
            head = struct.pack(f"<I{len(name)}sI{arr.ndim}Q", len(name), name, arr.ndim, *arr.shape)
            fh.write(head)
            fh.write(arr.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> ParamSet:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic in {path}")
    offset = len(CHECKPOINT_MAGIC)
    try:
        (version,) = struct.unpack_from("<I", blob, offset)
    except struct.error as exc:
        raise CheckpointError(f"truncated checkpoint {path}: {exc}") from exc
    offset += 4
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    named: list[tuple[str, np.ndarray]] = []
    while offset < len(blob):
        try:
            (name_len,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            name = blob[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            extents = struct.unpack_from(f"<{rank}Q", blob, offset)
            offset += 8 * rank
            count = math.prod(extents)  # exact: a corrupt extent overflows any C integer
            if 8 * count > len(blob) - offset:
                raise ValueError(f"{name!r} needs {8 * count} bytes, {len(blob) - offset} left")
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(extents)
            offset += 8 * count
        except (struct.error, ValueError) as exc:
            raise CheckpointError(f"truncated checkpoint {path}: {exc}") from exc
        named.append((name, arr.astype(np.float64)))
    try:
        return ParamSet.from_named_arrays(named)
    except ValueError as exc:  # e.g. a name corrupted into another entry's
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
