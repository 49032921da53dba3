# The golden fixture and perfbench/reference.json pin float results made with
# one BLAS thread; OpenBLAS splits a matmul's sums differently with more.
# pytest imports this file before any test module loads numpy.
import os

from sadtlab import BLAS_THREAD_VARS  # imports no numpy

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np
import pytest

from sadtlab import autodiff
from sadtlab.autodiff import Tensor, _apply, _col2im_add, _unbroadcast
from sadtlab.nn import Model, ParamSet
from sadtlab.optim import GradSet


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, a taped op: tests weight an output by a fixed
    gradient with it."""
    out = a.data * b.data

    def bw(g, needs):
        return (
            _unbroadcast(g * b.data, a.data.shape) if needs[0] else None,
            _unbroadcast(g * a.data, b.data.shape) if needs[1] else None,
        )

    return _apply(out, (a, b), bw)


def col2im(gcols: np.ndarray, xshape: tuple[int, ...], k: int) -> np.ndarray:
    """The input gradient of a "same"-padded conv from its im2col gradient."""
    n, h, w, c = xshape
    pad = k // 2
    gp = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
    _col2im_add(gp, gcols, k)
    return gp[:, pad : pad + h, pad : pad + w, :]


def total_count(params: ParamSet) -> int:
    return sum(e.tensor.data.size for e in params.entries)


def zero_grads(params: ParamSet) -> GradSet:
    return GradSet({e.name: np.zeros(e.tensor.shape) for e in params.entries})


def finite_diff_grads(loss_fn, params: ParamSet, h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradient oracle, independent of the tape."""
    out = {}
    for entry in params.entries:
        arr = entry.tensor.data
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            saved = arr[ix]
            arr[ix] = saved + h
            f_plus = loss_fn()
            arr[ix] = saved - h
            f_minus = loss_fn()
            arr[ix] = saved
            grad[ix] = (f_plus - f_minus) / (2 * h)
        out[entry.name] = grad
    return out


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


@pytest.fixture
def worker(monkeypatch):
    """A lane worker, made even on a one-CPU machine, whose ``handed`` counts
    the jobs (lanes and background draws) it was given."""
    jobs = autodiff._WORKER or autodiff._lane_worker()
    monkeypatch.setattr(autodiff, "_WORKER", jobs)
    submit = jobs.submit

    def counting_submit(*args):
        counting_submit.handed += 1
        return submit(*args)

    counting_submit.handed = 0
    monkeypatch.setattr(jobs, "submit", counting_submit)
    return counting_submit


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_conv_model():
    """1-conv CNN (conv -> pool -> dense), small enough for exhaustive FD."""
    gen = np.random.default_rng(7)
    named = [
        ("conv1.weight", gen.uniform(-0.5, 0.5, (2, 1, 3, 3))),
        ("conv1.bias", gen.uniform(-0.5, 0.5, 2)),
        ("dense1.weight", gen.uniform(-0.5, 0.5, (2 * 4 * 4, 3))),
        ("dense1.bias", gen.uniform(-0.5, 0.5, 3)),
    ]
    return Model(ParamSet.from_named_arrays(named), (1, 8, 8))
