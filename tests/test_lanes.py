"""Lanes: kernels split over two threads give the same bits.

Every value and gradient of ``conv2d``, ``max_pool2x2``, ``max_pool2x2_relu``
and ``matmul``, and every array ``adam_step`` updates, is compared by
``tobytes`` with a lane worker and with ``autodiff._WORKER`` off, where every
kernel runs on one lane. The worker fixture makes a worker even on a one-CPU
machine, so these tests run the two-lane path everywhere, and it counts the
lanes handed over, so a case that should split is known to have split.
"""

import math
import os
import signal
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from sadtlab import autodiff
from sadtlab.autodiff import (
    Tape,
    Tensor,
    backward,
    conv2d,
    matmul,
    max_pool2x2,
    max_pool2x2_relu,
    relu,
)
from sadtlab.nn import build_simple_cnn
from sadtlab.optim import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, GradSet, adam_step

from conftest import mul

# simple_cnn's conv layers as (input channels, output channels)
LAYERS = ((1, 32), (32, 64), (64, 64))


def _stack(n: int, side: int) -> list[bytes]:
    """simple_cnn's conv stack (conv, then pool and ReLU as one op, per layer)
    on a seeded batch: every conv and pooled output, then the gradients of
    the input, each kernel and each bias."""
    gen = np.random.default_rng([n, side])
    x = Tensor(gen.normal(size=(n, side, side, 1)), requires_grad=True)
    params = [
        (Tensor(gen.normal(size=(f, c, 3, 3)) / math.sqrt(9 * c), requires_grad=True),
         Tensor(gen.normal(size=f), requires_grad=True))
        for c, f in LAYERS
    ]
    values = []
    with Tape():
        t = x
        for kernel, bias in params:
            t = conv2d(t, kernel, bias)
            values.append(t.data)
            t = max_pool2x2_relu(t)
            values.append(t.data)
        loss = mul(t, Tensor(gen.normal(size=t.shape))).sum()
    grads = backward(loss)
    leaves = [x, *(leaf for pair in params for leaf in pair)]
    return [v.tobytes() for v in values] + [np.ascontiguousarray(grads[leaf]).tobytes()
                                            for leaf in leaves]


def _one_lane(monkeypatch, fn, *args):
    with monkeypatch.context() as m:
        m.setattr(autodiff, "_WORKER", None)
        return fn(*args)


STACK_CASES = [(side, n) for side in (8, 12, 16, 28) for n in (1, 2, 3, 17, 64)]
STACK_CASES += [(8, 256), (12, 256), (16, 256)]


# 12 -> 6 -> 3 -> 1 pools odd extents; 28 -> 14 -> 7 -> 3 does at the last two
@pytest.mark.parametrize("side, n", STACK_CASES, ids=[f"{s}x{s}-n{n}" for s, n in STACK_CASES])
def test_conv_stack_values_and_gradients_match_one_lane(worker, monkeypatch, side, n):
    assert _stack(n, side) == _one_lane(monkeypatch, _stack, n, side)
    if n >= 64 and side >= 16:
        assert worker.handed > 0


def _conv(n: int, needs_x: bool, c: int = 32, f: int = 64) -> list[bytes]:
    """One 8x8, c -> f conv: its output, then its gradients."""
    gen = np.random.default_rng(n)
    x = Tensor(gen.normal(size=(n, 8, 8, c)), requires_grad=needs_x)
    kernel = Tensor(gen.normal(size=(f, c, 3, 3)), requires_grad=True)
    bias = Tensor(gen.normal(size=f), requires_grad=True)
    with Tape():
        out = conv2d(x, kernel, bias)
        loss = mul(out, Tensor(gen.normal(size=out.shape))).sum()
    grads = backward(loss)
    leaves = [x, kernel, bias] if needs_x else [kernel, bias]
    return [out.data.tobytes()] + [np.ascontiguousarray(grads[leaf]).tobytes() for leaf in leaves]


# one image of an 8x8, 32 -> 64 conv is 64 * 64 * 288 multiply-adds
PER_IMAGE = 8 * 8 * 64 * 32 * 9
LANE_IMAGES = math.ceil(autodiff._LANE_MIN_WORK / PER_IMAGE)


@pytest.mark.parametrize("n, splits", [(2 * LANE_IMAGES - 2, False), (2 * LANE_IMAGES, True)],
                         ids=["below", "above"])
@pytest.mark.parametrize("needs_x", [True, False], ids=["gx", "no-gx"])
def test_forward_splits_from_the_threshold_and_matches_one_lane(worker, monkeypatch, n, splits,
                                                                 needs_x):
    gen = np.random.default_rng(0)
    x = Tensor(gen.normal(size=(n, 8, 8, 32)))
    conv2d(x, Tensor(gen.normal(size=(64, 32, 3, 3))), Tensor(gen.normal(size=64)))
    assert worker.handed == int(splits)
    assert _conv(n, needs_x) == _one_lane(monkeypatch, _conv, n, needs_x)


def test_a_two_filter_kernel_gradient_stays_on_one_lane(worker, monkeypatch):
    # one filter per lane would make numpy multiply each lane as a gemv
    n = 2 * math.ceil(autodiff._LANE_MIN_WORK / (8 * 8 * 64 * 9))
    assert _conv(n, False, 64, 2) == _one_lane(monkeypatch, _conv, n, False, 64, 2)
    assert worker.handed == 1  # the forward, split by images


def test_a_kernel_gradient_too_narrow_to_release_the_gil_stays_on_one_lane(worker, monkeypatch):
    # simple_cnn's conv1 (1 -> 32 channels): each lane's product would write
    # 16 x 9 elements, under the GIL, so the lanes would run one after the other
    n = 2 * math.ceil(autodiff._LANE_MIN_WORK / (8 * 8 * 32 * 9))
    assert 16 * (n * 8 * 8 * 9) >= autodiff._LANE_MIN_WORK  # enough work to split
    assert 16 * 9 <= autodiff._MATMUL_GIL_MAX_OUT
    assert _conv(n, False, 1, 32) == _one_lane(monkeypatch, _conv, n, False, 1, 32)
    assert worker.handed == 2  # the forward, split by images, and the bias gradient's sum


def _pool(x: np.ndarray, op=max_pool2x2) -> list[bytes]:
    g = np.random.default_rng(1).normal(size=(len(x), x.shape[1] // 2, x.shape[2] // 2, x.shape[3]))
    t = Tensor(x, requires_grad=True)
    with Tape():
        out = op(t)
        loss = mul(out, Tensor(g)).sum()
    return [out.data.tobytes(), backward(loss)[t].tobytes()]


@pytest.mark.parametrize("shape", [(64, 28, 28, 32), (64, 15, 13, 32), (256, 8, 8, 32)],
                         ids=["28x28", "odd", "8x8-n256"])
def test_pool_with_ties_and_signed_zeros_matches_one_lane(worker, monkeypatch, shape):
    x = np.random.default_rng(2).choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=shape)
    assert _pool(x) == _one_lane(monkeypatch, _pool, x)
    assert worker.handed == 2


# conv1's and conv2's outputs at 28x28, batch 64, and conv3's 7 -> 3 at batch 256
@pytest.mark.parametrize("shape", [(64, 28, 28, 32), (64, 14, 14, 64), (256, 7, 7, 64)],
                         ids=["conv1-28x28", "conv2-28x28", "odd-7x7-n256"])
def test_pool_relu_with_ties_signed_zeros_and_nan_matches_one_lane_and_relu_of_pool(
        worker, monkeypatch, shape):
    x = np.random.default_rng(3).choice([-1.0, -0.0, 0.0, 0.5, 2.0, math.nan], size=shape)
    fused = _pool(x, max_pool2x2_relu)
    assert worker.handed == 2
    assert fused == _one_lane(monkeypatch, _pool, x, max_pool2x2_relu)
    assert fused == _one_lane(monkeypatch, _pool, x, lambda t: relu(max_pool2x2(t)))


def _backward_time_routing(x: np.ndarray, out: np.ndarray, g: np.ndarray,
                           rectify: bool) -> np.ndarray:
    """The pool's input gradient as its backward found the routing when the
    pool kept its input and output: each cell equal to its window's output,
    the earliest in scan order, takes g, masked by ``out > 0`` after a ReLU."""
    n, h, w, c = x.shape
    h2, w2 = h // 2, w // 2

    def windows(a):
        return a[:, : h2 * 2, : w2 * 2].reshape(len(a), h2, 2, w2, 2, c)

    gx = np.empty(x.shape) if (h, w) == (h2 * 2, w2 * 2) else np.zeros(x.shape)
    cells = np.empty((n, h2, 2, w2, 2, c), dtype=bool)
    np.equal(windows(x), out[:, :, None, :, None, :], out=cells)
    seen = cells[:, :, 0, :, 0].copy()
    for i, j in ((0, 1), (1, 0), (1, 1)):
        cell = cells[:, :, i, :, j]
        np.greater(cell, seen, out=cell)
        np.logical_or(seen, cell, out=seen)
    masked = g * (out > 0.0) if rectify else g
    np.multiply(masked[:, :, None, :, None, :], cells, out=windows(gx))
    return gx


# two lanes at the first three (7x7 and 15x13 are odd), one at the last
ROUTING_SHAPES = [(64, 28, 28, 32), (64, 15, 13, 32), (256, 7, 7, 64), (3, 5, 7, 2)]


@pytest.mark.parametrize("lanes", ["worker", "one-lane"])
@pytest.mark.parametrize("op, rectify", [(max_pool2x2, False), (max_pool2x2_relu, True)],
                         ids=["pool", "pool-relu"])
@pytest.mark.parametrize("shape", ROUTING_SHAPES, ids=["28x28", "odd", "7x7-n256", "tiny-odd"])
def test_forward_time_routing_gives_the_backward_time_routings_bits(request, monkeypatch, lanes,
                                                                     op, rectify, shape):
    if lanes == "worker":
        worker = request.getfixturevalue("worker")
    else:
        monkeypatch.setattr(autodiff, "_WORKER", None)
    gen = np.random.default_rng(list(shape))
    # ties, signed zeros and NaN windows; g of both signs, with a few infinities and NaNs
    x = gen.choice([-1.0, -0.0, 0.0, 0.5, 2.0, math.nan], size=shape)
    g = gen.normal(size=(shape[0], shape[1] // 2, shape[2] // 2, shape[3]))
    g.flat[::101], g.flat[1::101], g.flat[2::101] = math.inf, -math.inf, math.nan
    t = Tensor(x, requires_grad=True)
    with np.errstate(invalid="ignore"):  # inf * 0
        with Tape():
            out = op(t)
            loss = mul(out, Tensor(g)).sum()
        gx = backward(loss)[t]
        assert gx.tobytes() == _backward_time_routing(x, out.data, g, rectify).tobytes()
    if lanes == "worker":
        assert worker.handed == (2 if shape[0] > 3 else 0)  # the forward and the backward


def _bias_grad(x: np.ndarray, kernel: np.ndarray) -> bytes:
    """The bias gradient of a conv whose input and kernel take none."""
    bias = Tensor(np.zeros(len(kernel)), requires_grad=True)
    g = np.random.default_rng(4).normal(size=(*x.shape[:3], len(kernel)))
    with Tape():
        loss = mul(conv2d(Tensor(x), Tensor(kernel), bias), Tensor(g)).sum()
    return backward(loss)[bias].tobytes()


def test_the_conv_bias_gradient_splits_by_image_row_and_matches_one_lane(worker, monkeypatch):
    # simple_cnn's conv1 at 28x28, batch 64: 14 rows of 64 x 28 x 32 addends per lane
    gen = np.random.default_rng(5)
    x, kernel = gen.normal(size=(64, 28, 28, 1)), gen.normal(size=(32, 1, 3, 3))
    assert _bias_grad(x, kernel) == _one_lane(monkeypatch, _bias_grad, x, kernel)
    assert worker.handed == 2  # the forward, and the bias gradient's batch sum


def _dense(n: int) -> list[bytes]:
    """dense1 of a 28x28 simple_cnn on n rows: the product, then both gradients."""
    gen = np.random.default_rng(n)
    a = Tensor(gen.normal(size=(n, 576)), requires_grad=True)
    w = Tensor(gen.normal(size=(576, 256)), requires_grad=True)
    with Tape():
        out = matmul(a, w)
        loss = mul(out, Tensor(gen.normal(size=out.shape))).sum()
    grads = backward(loss)
    return [out.data.tobytes(), grads[a].tobytes(), grads[w].tobytes()]


@pytest.mark.parametrize("n", [64, 67], ids=["n64", "odd-n67"])
def test_dense_products_split_by_row_and_match_one_lane(worker, monkeypatch, n):
    # 67 rows split at row 32, not 33: the upper lane starts at an even row
    assert _dense(n) == _one_lane(monkeypatch, _dense, n)
    assert worker.handed == 3  # the product, and each of its gradients


def _adam_case(steps: int, update) -> list[bytes]:
    """``steps`` updates of a 28x28 simple_cnn by ``update(params, grads,
    state, lr)`` from seeded gradients, a fifth of their entries +-0: the
    parameters and both moments after them."""
    model = build_simple_cnn((1, 28, 28), 10, seed=0)
    state = AdamState(model.params)
    gen = np.random.default_rng(6)
    for step in range(steps):
        grads = GradSet()
        for e in model.params:
            g = gen.normal(scale=1e-3, size=e.tensor.shape)
            zeros = gen.random(g.shape) < 0.2
            g[zeros] = np.copysign(0.0, gen.choice([-1.0, 1.0], size=int(zeros.sum())))
            grads[e.name] = g
        update(model.params, grads, state, 1e-3 / (step + 1))
    return [a.tobytes() for e in model.params
            for a in (e.tensor.data, state.m[e.name], state.v[e.name])]


def test_adam_on_a_28x28_simple_cnn_matches_one_lane(worker, monkeypatch):
    assert _adam_case(3, adam_step) == _one_lane(monkeypatch, _adam_case, 3, adam_step)
    assert worker.handed == 3  # one lane of entries per step


def _adam_reference(params, grads, state, lr):
    """The Adam update as one expression per moment and parameter."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for e in params.entries:
        g, m, v = grads[e.name], state.m[e.name], state.v[e.name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        e.tensor.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def test_adam_gives_the_bits_of_the_one_expression_update_over_20_steps(worker):
    assert _adam_case(20, adam_step) == _adam_case(20, _adam_reference)
    assert worker.handed == 20


def test_a_failure_in_either_lane_reraises_in_the_caller(worker, monkeypatch):
    def fail_upper(lo, hi):
        if lo > 0:
            raise ValueError(f"lane {lo}:{hi}")

    with pytest.raises(ValueError, match="lane 5:10"):
        autodiff._lanes(10, autodiff._LANE_MIN_WORK, fail_upper)

    done = []

    def fail_lower(lo, hi):
        if lo == 0:
            raise ValueError("lower lane")
        time.sleep(0.05)
        done.append(hi)

    with pytest.raises(ValueError, match="lower lane"):
        autodiff._lanes(10, autodiff._LANE_MIN_WORK, fail_lower)
    assert done == [10]  # the caller waited for the worker's lane
    # the worker serves the next op
    assert _conv(2 * LANE_IMAGES, True) == _one_lane(monkeypatch, _conv, 2 * LANE_IMAGES, True)
    assert worker.handed == 5


def test_when_both_lanes_fail_the_workers_failure_wins_chained_to_the_callers(worker):
    def fail(lo, hi):
        raise ValueError(f"lane {lo}:{hi}")

    with pytest.raises(ValueError, match="lane 5:10") as raised:
        autodiff._lanes(10, autodiff._LANE_MIN_WORK, fail)
    assert str(raised.value.__context__) == "lane 0:5"
    assert worker.handed == 1


def test_callers_on_several_threads_share_the_worker(worker):
    # each caller waits on its own reply: a reply handed to the wrong caller
    # would let it read rows the worker has not written yet
    n = 2 * LANE_IMAGES
    expected = _conv(n, True)
    results = []

    def caller():
        results.extend(_conv(n, True) == expected for _ in range(3))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 12
    assert worker.handed > 0


def test_the_worker_keeps_no_lane_once_it_ends(worker):
    # a lane's closure holds its op's buffers
    class Lane:
        def __call__(self, lo, hi):
            pass

    lane = Lane()
    ref = weakref.ref(lane)
    autodiff._lanes(4, autodiff._LANE_MIN_WORK, lane)
    del lane
    assert ref() is None and worker.handed == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork of a process with threads
def test_a_forked_child_runs_laned_ops(worker):
    expected = _conv(2 * LANE_IMAGES, True)  # the parent's worker thread is running
    assert worker.handed > 0
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            same = _conv(2 * LANE_IMAGES, True) == expected
            child_worker = autodiff._WORKER
            code = 0 if same and child_worker._thread.is_alive() else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung in a laned conv")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


def _overflow_upper(out: np.ndarray) -> None:
    """A laned op whose overflow is all in the worker's lane."""
    big = np.r_[np.ones(4), np.full(4, 1e300)]
    autodiff._lanes(8, autodiff._LANE_MIN_WORK, lambda lo, hi: np.multiply(
        big[lo:hi], big[lo:hi], out=out[lo:hi]))


def test_the_worker_lane_runs_under_the_callers_errstate(worker):
    out = np.zeros(8)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _overflow_upper(out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            _overflow_upper(out)
    assert out.tolist() == [1.0] * 4 + [math.inf] * 4
    calls = []
    with np.errstate(over="call", call=lambda kind, flag: calls.append(kind)):
        _overflow_upper(out)
    assert calls == ["overflow"]
    assert worker.handed == 3
