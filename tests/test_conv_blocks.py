"""Every conv walks its images a block at a time, with a whole-batch product's bits.

``conv2d``'s forward and input gradient walk each lane's images in blocks of
at least the lane floor, recorded or not. A recorded conv's output, kernel
gradient and x-gradient are compared by ``tobytes`` with plain numpy on the
whole batch: one im2col product plus the bias, one kernel-gradient product,
and one column-gradient product through ``conftest.col2im``. An off-tape
output is compared with the recorded one. Each case runs once with a lane
worker (made even on a one-CPU machine) and once with ``autodiff._WORKER``
off, where one lane walks every block.

A recorded conv drops its whole-batch columns once its kernel gradient is
computed when it was recorded in its tape's latest ``with tape:`` session; a
conv of an earlier session keeps them until its graph is released, and a
conv walked again after the drop raises ``TapeError`` without gathering them
again.
In training and in the sharpness probe, each conv's images are gathered
once per conv forward: no walk gathers them again.

A recorded conv's output lives only until its pool's forward returns: the
pool routes in its forward, and a tape node links to its parents' nodes, not
their tensors. So a recorded 28x28 ``simple_cnn`` forward holds little more
than its convs' columns and its pools' routing masks.
"""

import gc
import math
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from sadtlab import autodiff
from sadtlab.autodiff import (
    Tape,
    TapeError,
    Tensor,
    backward,
    conv2d,
    max_pool2x2,
    max_pool2x2_relu,
    softmax_cross_entropy,
)
from sadtlab.data import MixedBatch
from sadtlab.metrics import estimate_sharpness
from sadtlab.nn import build_simple_cnn
from sadtlab.optim import AdamState
from sadtlab.strategies import STRATEGY_IDS, Strategy

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
    """numpy as ``autodiff`` sees it, noting each matmul's multiply-adds and
    each im2col gather's (input channels, images)."""

    def __init__(self):
        self.products: list[int] = []
        self.gathers: list[tuple[int, int]] = []
        self.lib = SimpleNamespace(stride_tricks=SimpleNamespace(sliding_window_view=self._windows))

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        self.products.append(a.shape[0] * a.shape[1] * b.shape[1])
        return np.matmul(a, b, **kwargs)

    def _windows(self, padded, *args, **kwargs):
        self.gathers.append((padded.shape[-1], len(padded)))
        return np.lib.stride_tricks.sliding_window_view(padded, *args, **kwargs)

    def images_gathered(self) -> dict[int, int]:
        """Images gathered per input channel count, that is per conv layer."""
        totals: dict[int, int] = {}
        for channels, images in self.gathers:
            totals[channels] = totals.get(channels, 0) + images
        return totals


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


def test_a_walk_from_the_convs_own_session_frees_its_columns(lanes):
    # 14x14, 32 -> 64: the whole batch's columns are 28.9 MB
    x, kernel, bias = _operands(64, 14, 32, 64)
    weights = Tensor(np.random.default_rng(0).normal(size=(64, 14, 14, 64)))
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = mul(conv2d(x, kernel, bias), weights).sum()
        recorded = tracemalloc.get_traced_memory()[0]
        backward(loss)  # the gradients are dropped at once
        walked = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert tape.nodes[0].backward_fn is not None  # the graph is still referenced
    cols_bytes = 64 * 14 * 14 * 32 * 9 * 8
    assert recorded - walked > 0.9 * cols_bytes


@pytest.mark.parametrize("pool", [max_pool2x2, max_pool2x2_relu], ids=["pool", "pool-relu"])
def test_a_recorded_convs_output_dies_once_its_pool_returns(lanes, pool):
    # 28x28, 1 -> 32: the conv's and the pool's lanes split when a worker runs
    x, kernel, bias = _operands(64, 28, 1, 32)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with Tape() as tape:
            out = conv2d(x, kernel, bias)
            probe = weakref.ref(out.data)
            pooled = pool(out)
            del out
            assert probe() is None  # no node holds it, and the pool routed in its forward
            loss = pooled.sum()
    finally:
        if was_enabled:
            gc.enable()
    assert not tape.walked
    assert set(backward(loss)) == {kernel, bias}


def test_a_recorded_simple_cnn_forward_keeps_its_columns_and_routing_masks_only(lanes):
    # 28x28, batch 64: the convs' columns are 44.8 MiB and the pools' one-byte
    # routing masks 2.4 MiB; the convs' outputs (19.9 MiB) and the pools'
    # (4.9 MiB) are not kept
    model = build_simple_cnn((1, 28, 28), 10, seed=0)
    images = Tensor(np.random.default_rng(0).normal(size=(64, 1, 28, 28)))
    tracemalloc.start()
    try:
        with Tape():
            logits = model.forward(images)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    sides = (28, 14, 7)
    cols = sum(64 * s * s * c * 9 * 8 for s, (c, _) in zip(sides, LAYERS))
    masks = sum(64 * (s // 2 * 2) ** 2 * f for s, (_, f) in zip(sides, LAYERS))
    assert logits.node is not None
    assert retained < cols + masks + 2 * 2**20


def _heads(model, x, targets, split: str | None) -> list[list[bytes]]:
    """Leaf-gradient bytes of one cross-entropy head per target. Without
    ``split`` each head runs the whole forward on a tape of its own. With it,
    the forward before ``split`` is recorded in a session of one shared tape,
    and each head from ``split`` on in a later session."""
    tape, out = Tape(), []
    if split is not None:
        with tape:
            prefix = model.forward(Tensor(x), stop=split)
    for target in targets:
        with tape if split is not None else Tape():
            logits = (model.forward(prefix, start=split) if split is not None
                      else model.forward(Tensor(x)))
            loss = softmax_cross_entropy(logits, Tensor(target))
        grads = backward(loss)
        out.append([grads[e.tensor].tobytes() for e in model.params])
    return out


def _model_and_batch(n: int = 32):
    model = build_simple_cnn((1, 16, 16), 10, seed=0)
    gen = np.random.default_rng(n)
    targets = [np.eye(10)[gen.integers(0, 10, n)] for _ in range(2)]
    return model, gen.normal(size=(n, 1, 16, 16)), targets


def test_heads_over_a_prefix_of_its_own_session_gather_it_once(lanes, monkeypatch):
    model, x, targets = _model_and_batch()
    separate = _heads(model, x, targets, None)
    counting = _CountingNumpy()
    monkeypatch.setattr(autodiff, "np", counting)
    shared = _heads(model, x, targets, "conv3")
    monkeypatch.setattr(autodiff, "np", np)
    assert shared == separate
    assert separate[0] != separate[1]  # the heads really differ
    # conv1 and conv2 (1 and 32 input channels) once; conv3 once per head
    assert counting.images_gathered() == {1: 32, 32: 32, 64: 64}


def test_a_conv_walked_after_its_columns_were_dropped_raises(lanes, monkeypatch):
    model, x, targets = _model_and_batch()
    counting = _CountingNumpy()
    monkeypatch.setattr(autodiff, "np", counting)
    # the prefix and the first head in one session: the first walk drops the
    # prefix convs' columns, and the second head's walk cannot gather them again
    with Tape() as tape:
        prefix = model.forward(Tensor(x), stop="conv3")
        first = softmax_cross_entropy(model.forward(prefix, start="conv3"), Tensor(targets[0]))
    backward(first)
    with tape:
        second = softmax_cross_entropy(model.forward(prefix, start="conv3"), Tensor(targets[1]))
    with pytest.raises(TapeError, match="earlier walk of its session freed this conv's columns"):
        backward(second)
    monkeypatch.setattr(autodiff, "np", np)
    assert counting.images_gathered() == {1: 32, 32: 32, 64: 64}  # nothing gathered twice


def test_a_conv_whose_tape_is_entered_again_before_its_walk_keeps_its_columns(lanes,
                                                                             monkeypatch):
    model, x, targets = _model_and_batch()
    fresh = _heads(model, x, targets, None)
    counting = _CountingNumpy()
    monkeypatch.setattr(autodiff, "np", counting)
    # both heads are recorded before either is walked: when the first head's
    # loss is walked, its session is no longer the tape's latest, so the prefix
    # convs keep their columns for the second head
    tape, losses = Tape(), []
    with tape:
        prefix = model.forward(Tensor(x), stop="conv3")
        losses.append(softmax_cross_entropy(model.forward(prefix, start="conv3"),
                                            Tensor(targets[0])))
    with tape:
        losses.append(softmax_cross_entropy(model.forward(prefix, start="conv3"),
                                            Tensor(targets[1])))
    grads = [backward(loss) for loss in losses]
    monkeypatch.setattr(autodiff, "np", np)
    assert [[g[e.tensor].tobytes() for e in model.params] for g in grads] == fresh
    assert counting.images_gathered() == {1: 32, 32: 32, 64: 64}  # no walk gathers again


def _training_batch() -> MixedBatch:
    gen = np.random.default_rng(0)
    return MixedBatch.plain(gen.uniform(0.0, 1.0, (32, 1, 16, 16)), gen.integers(0, 10, 32))


# simple_cnn's conv forwards (conv1, conv2, conv3) in one step of each strategy:
# sadt_v2's two heads share one conv1-conv2 forward
STEP_CONV_FORWARDS = {"baseline": (1, 1, 1), "gc": (1, 1, 1), "agc": (1, 1, 1),
                      "sam": (2, 2, 2), "sadt_v1": (2, 2, 2), "sadt_v2": (2, 2, 3),
                      "sadt_v3": (2, 2, 2)}


@pytest.mark.parametrize("strategy_id", STRATEGY_IDS)
def test_a_training_step_gathers_each_conv_once_per_forward(lanes, monkeypatch, strategy_id):
    model = build_simple_cnn((1, 16, 16), 10, seed=0)
    counting = _CountingNumpy()
    monkeypatch.setattr(autodiff, "np", counting)
    Strategy(strategy_id).step(model, _training_batch(), AdamState(model.params), lr=0.001,
                               noise_seed=np.random.SeedSequence(0))
    monkeypatch.setattr(autodiff, "np", np)
    forwards = STEP_CONV_FORWARDS[strategy_id]
    assert counting.images_gathered() == {c: 32 * k for (c, _), k in zip(LAYERS, forwards)}


def test_a_sharpness_probe_gathers_each_conv_once_per_forward(lanes, monkeypatch):
    model, batch = build_simple_cnn((1, 16, 16), 10, seed=0), _training_batch()
    counting = _CountingNumpy()
    monkeypatch.setattr(autodiff, "np", counting)
    estimate_sharpness(model, [(batch.images, batch.label_a)], rho=0.05)
    monkeypatch.setattr(autodiff, "np", np)
    # a recorded forward at w and an off-tape one at the ascent point
    assert counting.images_gathered() == {1: 64, 32: 64, 64: 64}


@pytest.mark.parametrize("strategy_id", STRATEGY_IDS)
def test_a_training_step_leaves_no_whole_batch_columns_behind(strategy_id):
    # simple_cnn at 16x16, batch 32: conv1-conv3 record 7.3 MiB of columns; with
    # them, a baseline step left 12.6 MiB allocated, without them 5.3 MiB. The
    # columns of sadt_v2's shared conv1-conv2 prefix (5.06 MiB) stay one tape
    # behind by design
    model, batch = build_simple_cnn((1, 16, 16), 10, seed=0), _training_batch()
    state, strategy = AdamState(model.params), Strategy(strategy_id)
    strategy.step(model, batch, state, lr=0.001, noise_seed=np.random.SeedSequence(0))
    tracemalloc.start()
    try:
        strategy.step(model, batch, state, lr=0.001, noise_seed=np.random.SeedSequence(1))
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    prefix = 32 * (16 * 16 * 1 + 8 * 8 * 32) * 9 * 8 if strategy_id == "sadt_v2" else 0
    assert left < 8 * 2**20 + prefix
