"""Lanes: the conv stack's kernels split over two threads give the same bits.

Every value and gradient of ``conv2d`` and ``max_pool2x2`` is compared by
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
from sadtlab.autodiff import Tape, Tensor, backward, conv2d, max_pool2x2, relu

from conftest import mul

# simple_cnn's conv layers as (input channels, output channels)
LAYERS = ((1, 32), (32, 64), (64, 64))


def _stack(n: int, side: int) -> list[bytes]:
    """simple_cnn's conv stack (conv, pool, ReLU per layer) on a seeded batch:
    every conv and pool output, then the gradients of the input, each kernel
    and each bias."""
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
            t = max_pool2x2(t)
            values.append(t.data)
            t = relu(t)
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
    assert worker.handed == 1  # the forward, split by images


def _pool(x: np.ndarray) -> list[bytes]:
    g = np.random.default_rng(1).normal(size=(len(x), x.shape[1] // 2, x.shape[2] // 2, x.shape[3]))
    t = Tensor(x, requires_grad=True)
    with Tape():
        out = max_pool2x2(t)
        loss = mul(out, Tensor(g)).sum()
    return [out.data.tobytes(), backward(loss)[t].tobytes()]


@pytest.mark.parametrize("shape", [(64, 28, 28, 32), (64, 15, 13, 32), (256, 8, 8, 32)],
                         ids=["28x28", "odd", "8x8-n256"])
def test_pool_with_ties_and_signed_zeros_matches_one_lane(worker, monkeypatch, shape):
    x = np.random.default_rng(2).choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=shape)
    assert _pool(x) == _one_lane(monkeypatch, _pool, x)
    assert worker.handed == 2


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
