"""Every conv walks its images a block at a time, with a whole-batch product's bits.

``conv2d``'s forward and input gradient walk each lane's images in blocks of
at least the lane floor, recorded or not. A recorded conv's output, kernel
gradient and x-gradient are compared by ``tobytes`` with plain numpy on the
whole batch: one im2col product plus the bias, one kernel-gradient product,
and one column-gradient product through ``conftest.col2im``. An off-tape
output is compared with the recorded one. Each case runs once with a lane
worker (made even on a one-CPU machine) and once with ``autodiff._WORKER``
off, where one lane walks every block.
"""

import math
import tracemalloc

import numpy as np
import pytest

from sadtlab import autodiff
from sadtlab.autodiff import Tape, Tensor, backward, conv2d
from sadtlab.nn import build_simple_cnn

from conftest import col2im, mul

# simple_cnn's conv layers as (input channels, output channels), and the side
# each one sees in a model whose input side is 8, 16 or 28
LAYERS = ((1, 32), (32, 64), (64, 64))
SHAPES = [(side >> i, c, f) for side in (8, 16, 28) for i, (c, f) in enumerate(LAYERS)]


def _images_per_block(side: int, c: int, f: int) -> tuple[int, int]:
    """The lane floor in images, and the images of one ~1 MiB block of columns."""
    floor = math.ceil(autodiff._LANE_MIN_WORK / (side * side * f * c * 9))
    return floor, max(floor, autodiff._BLOCK_BYTES // (side * side * c * 9 * 8))


def _batches(side: int, c: int, f: int) -> list[int]:
    floor, block = _images_per_block(side, c, f)
    tail = max(1, floor // 2)
    sizes = {1, floor - 1, floor, floor + tail, 2 * block - 1, 2 * block + tail, 37, 64, 128, 256}
    return sorted(n for n in sizes if n >= 1)


CASES = [(side, c, f, n) for side, c, f in SHAPES for n in _batches(side, c, f)]


# made even on a one-CPU machine, where the module has none; one for every case
WORKER = autodiff._WORKER or autodiff._Worker()


@pytest.fixture(params=["worker", "one-lane"])
def lanes(request, monkeypatch):
    """Each case with a lane worker and without one."""
    monkeypatch.setattr(autodiff, "_WORKER", WORKER if request.param == "worker" else None)


def _operands(n: int, side: int, c: int, f: int) -> tuple[Tensor, Tensor, Tensor]:
    gen = np.random.default_rng([n, side, c, f])
    x = Tensor(gen.normal(size=(n, side, side, c)))
    kernel = Tensor(gen.normal(size=(f, c, 3, 3)) / math.sqrt(9 * c), requires_grad=True)
    return x, kernel, Tensor(gen.normal(size=f), requires_grad=True)


@pytest.mark.parametrize("side, c, f, n", CASES,
                         ids=[f"{s}x{s}-{c}to{f}-n{n}" for s, c, f, n in CASES])
def test_off_tape_forward_matches_the_taped_one(lanes, side, c, f, n):
    x, kernel, bias = _operands(n, side, c, f)
    off_tape = conv2d(x, kernel, bias)
    with Tape() as tape:
        taped = conv2d(x, kernel, bias)
    assert off_tape.node is None and taped.node is tape.nodes[0]
    assert off_tape.data.tobytes() == taped.data.tobytes()


def _whole_batch_cols(x: np.ndarray, k: int) -> np.ndarray:
    """The whole batch's im2col columns: one row per output pixel, in
    (c, kh, kw) column order."""
    n, h, w, c = x.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    return np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2)).reshape(n * h * w, -1)


class _CountingNumpy:
    """numpy as ``autodiff`` sees it, noting each matmul's multiply-adds."""

    def __init__(self):
        self.products: list[int] = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        self.products.append(a.shape[0] * a.shape[1] * b.shape[1])
        return np.matmul(a, b, **kwargs)


@pytest.mark.parametrize("side, c, f, n", CASES,
                         ids=[f"{s}x{s}-{c}to{f}-n{n}" for s, c, f, n in CASES])
def test_a_recorded_conv_matches_whole_batch_products(lanes, monkeypatch, side, c, f, n):
    x, kernel, bias = _operands(n, side, c, f)
    x.requires_grad = True
    weights = np.random.default_rng(n).normal(size=(n, side, side, f))
    counting = _CountingNumpy()
    monkeypatch.setattr(autodiff, "np", counting)
    with Tape():
        out = conv2d(x, kernel, bias)
        loss = mul(out, Tensor(weights)).sum()
    grads = backward(loss)
    monkeypatch.setattr(autodiff, "np", np)
    # every block's product holds the lane floor, unless it is the whole product
    whole = n * side * side * f * c * 9
    assert counting.products
    assert all(p == whole or p >= autodiff._LANE_MIN_WORK for p in counting.products)
    gm, wmat = weights.reshape(-1, f), kernel.data.reshape(f, -1)
    cols = _whole_batch_cols(x.data, 3)
    expected = cols @ wmat.T
    expected += bias.data
    assert out.data.tobytes() == expected.tobytes()
    assert grads[kernel].tobytes() == (gm.T @ cols).tobytes()
    del cols, expected
    gx = col2im(gm @ wmat, x.shape, 3)
    assert np.ascontiguousarray(grads[x]).tobytes() == np.ascontiguousarray(gx).tobytes()


def _x_only(n: int, side: int, c: int, f: int, track_params: bool) -> list[bytes]:
    """A conv under a tape that tracks x (and the kernel and bias only if
    ``track_params``): its output and the gradient of x."""
    x, kernel, bias = _operands(n, side, c, f)
    x.requires_grad = True
    kernel.requires_grad = bias.requires_grad = track_params
    with Tape() as tape:
        out = conv2d(x, kernel, bias)
        assert out.node is tape.nodes[0]
        loss = mul(out, Tensor(np.random.default_rng(n).normal(size=out.shape))).sum()
    grads = backward(loss)
    assert (kernel in grads) == track_params
    return [out.data.tobytes(), np.ascontiguousarray(grads[x]).tobytes()]


@pytest.mark.parametrize("side, c, f, n", [(16, 1, 32, 64), (8, 32, 64, 128), (14, 32, 64, 9)])
def test_a_tape_tracking_only_x_records_with_the_same_bits(lanes, side, c, f, n):
    assert _x_only(n, side, c, f, False) == _x_only(n, side, c, f, True)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_tape_tracking_no_parent_walks_blocks_and_records_nothing(lanes):
    # 14x14, 32 -> 64: two images a block, so 32 blocks on one lane, 16 on each of two
    x, kernel, bias = _operands(64, 14, 32, 64)
    kernel.requires_grad = bias.requires_grad = False
    with Tape() as tape:
        peak = _traced_peak(lambda: conv2d(x, kernel, bias))
        out = conv2d(x, kernel, bias)
    assert tape.nodes == [] and out.node is None
    cols_bytes = 64 * 14 * 14 * 32 * 9 * 8
    assert peak < out.data.nbytes + cols_bytes / 4
    kernel.requires_grad = True
    with Tape():
        assert conv2d(x, kernel, bias).data.tobytes() == out.data.tobytes()


def test_a_recorded_conv_backward_keeps_no_whole_batch_column_gradient(lanes):
    # 14x14, 32 -> 64: two images a block; the whole batch's column gradient
    # would be 28 MiB against gp's 4 MiB
    x, kernel, bias = _operands(64, 14, 32, 64)
    x.requires_grad = True
    with Tape():
        out = conv2d(x, kernel, bias)
    g = np.random.default_rng(0).normal(size=out.shape)
    peak = _traced_peak(lambda: out.node.backward_fn(g, out.node.needs))
    gp_bytes = 64 * 16 * 16 * 32 * 8
    gcols_bytes = 64 * 14 * 14 * 32 * 9 * 8
    assert peak < gp_bytes + gcols_bytes / 4


def test_an_off_tape_simple_cnn_forward_keeps_no_whole_batch_columns(lanes):
    # conv2's whole-batch columns alone are 36 MiB here: with them, the
    # forward's peak is 54 MiB
    model = build_simple_cnn((1, 16, 16), 10, seed=0)
    images = Tensor(np.random.default_rng(0).normal(size=(256, 1, 16, 16)))
    assert _traced_peak(lambda: model.forward(images)) < 32 * 2**20
