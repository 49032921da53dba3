"""Layer and model definitions with named, ordered parameter access.

Two architectures: the 3-conv/3-dense CNN used throughout the experiments,
and a dense stack that serves as a fast fixture for gradient and property
suites. Parameters are He-uniform initialized from an explicit seed so that
compared training runs share one initial point.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    add,
    conv2d,
    matmul,
    max_pool2x2,
    relu,
    reshape,
)

CHECKPOINT_MAGIC = b"SADTCKPT"
CHECKPOINT_VERSION = 1

SIMPLE_CNN_CONV_WIDTHS = (32, 64, 64)
SIMPLE_CNN_DENSE_WIDTHS = (256, 128)


class CheckpointError(ValueError):
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

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def get(self, name: str) -> Tensor:
        return self._by_name[name].tensor

    def entry(self, name: str) -> ParamEntry:
        return self._by_name[name]

    def total_count(self) -> int:
        return sum(e.tensor.size for e in self.entries)

    def last_conv_layer(self) -> str | None:
        layers = [e.layer for e in self.entries if e.kind == "conv"]
        return layers[-1] if layers else None

    def last_dense_layer(self) -> str | None:
        layers = [e.layer for e in self.entries if e.kind == "dense"]
        return layers[-1] if layers else None

    def layer_entries(self, layer: str) -> list[ParamEntry]:
        return [e for e in self.entries if e.layer == layer]

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
        for e, (_, garr, _) in zip(self.entries, grads):
            e.tensor.data += coeff * garr


class Model:
    """Architecture id plus a ParamSet and a deterministic forward rule."""

    def __init__(self, arch: str, params: ParamSet, input_shape: tuple[int, ...]):
        self.arch = arch
        self.params = params
        self.input_shape = input_shape  # (C, H, W) or (input_dim,)

    def forward(self, images: Tensor) -> Tensor:
        """Raw pre-softmax logits for a batch, recorded on the active tape."""
        if self.arch == "simple_cnn":
            return self._forward_cnn(images)
        return self._forward_mlp(images)

    def _forward_cnn(self, images: Tensor) -> Tensor:
        if images.data.ndim != 4 or images.shape[1:] != tuple(self.input_shape):
            raise ShapeError(
                f"expected batch of shape N x {self.input_shape}, got {images.shape}"
            )
        x = images
        for layer in self._conv_layers():
            w = self.params.get(f"{layer}.weight")
            b = self.params.get(f"{layer}.bias")
            kh = w.shape[2]
            x = conv2d(x, w, stride=1, padding=kh // 2)
            x = add(x, reshape(b, (b.shape[0], 1, 1)))
            x = relu(x)
            x = max_pool2x2(x)
        x = reshape(x, (x.shape[0], int(np.prod(x.shape[1:]))))
        return self._dense_stack(x)

    def _forward_mlp(self, images: Tensor) -> Tensor:
        x = images
        if x.data.ndim > 2:
            x = reshape(x, (x.shape[0], int(np.prod(x.shape[1:]))))
        if x.data.ndim != 2 or x.shape[1] != self.input_shape[0]:
            raise ShapeError(
                f"expected batch of {self.input_shape[0]} features, got {images.shape}"
            )
        return self._dense_stack(x)

    def _dense_stack(self, x: Tensor) -> Tensor:
        layers = self._dense_layers()
        for i, layer in enumerate(layers):
            w = self.params.get(f"{layer}.weight")
            b = self.params.get(f"{layer}.bias")
            if x.shape[1] != w.shape[0]:
                raise ShapeError(f"{layer} expects {w.shape[0]} features, got {x.shape[1]}")
            x = add(matmul(x, w), b)
            if i < len(layers) - 1:
                x = relu(x)
        return x

    def _conv_layers(self) -> list[str]:
        seen: list[str] = []
        for e in self.params.entries:
            if e.kind == "conv" and e.layer not in seen:
                seen.append(e.layer)
        return seen

    def _dense_layers(self) -> list[str]:
        seen: list[str] = []
        for e in self.params.entries:
            if e.kind == "dense" and e.layer not in seen:
                seen.append(e.layer)
        return seen

    @property
    def num_classes(self) -> int:
        last = self._dense_layers()[-1]
        return self.params.get(f"{last}.weight").shape[1]

    def clone(self) -> "Model":
        return Model(self.arch, self.params.clone(), self.input_shape)


def _he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def build_simple_cnn(
    input_shape: tuple[int, int, int], num_classes: int, seed: int
) -> Model:
    """3x(3x3 conv, ReLU, 2x2 pool) then 3 dense layers with ReLU between.

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
    return Model("simple_cnn", ParamSet.from_named_arrays(named), (c, h, w))


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
    return Model("tiny_mlp", ParamSet.from_named_arrays(named), (dims[0],))


def model_from_params(params: ParamSet, input_shape: tuple[int, ...] | None = None) -> Model:
    """Rebuild a model from parameters alone, e.g. a loaded checkpoint.

    Any conv entries imply the conv/pool/dense forward rule; an all-dense set
    is treated as an MLP. The input shape is inferred from the first layer
    when not given (conv kernels fix channels only, so H and W are required
    for CNNs).
    """
    has_conv = any(e.kind == "conv" for e in params.entries)
    if has_conv:
        if input_shape is None:
            raise ValueError("input_shape (C, H, W) is required to rebuild a conv model")
        return Model("simple_cnn", params, tuple(int(v) for v in input_shape))
    first = next(e for e in params.entries if e.kind == "dense")
    dim = params.get(f"{first.layer}.weight").shape[0]
    return Model("tiny_mlp", params, (dim,))


# ---------------------------------------------------------------------------
# checkpoint format: magic, version u32; per entry name-length u32, name,
# rank u32, extents u64[], little-endian f64 payload
# ---------------------------------------------------------------------------


def save_checkpoint(params: ParamSet, path) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        for e in params.entries:
            name = e.name.encode("utf-8")
            arr = e.tensor.data
            fh.write(struct.pack("<I", len(name)))
            fh.write(name)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> ParamSet:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic in {path}")
    offset = len(CHECKPOINT_MAGIC)
    (version,) = struct.unpack_from("<I", blob, offset)
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
            count = int(np.prod(extents)) if rank else 1
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(extents)
            offset += 8 * count
        except (struct.error, ValueError) as exc:
            raise CheckpointError(f"truncated checkpoint {path}: {exc}") from exc
        named.append((name, arr.astype(np.float64)))
    return ParamSet.from_named_arrays(named)
