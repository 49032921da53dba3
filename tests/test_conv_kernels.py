"""The conv stack's elementwise kernels, pinned bitwise against naive loops.

``max_pool2x2`` backward routes each window's gradient to its earliest
maximum in scan order, ``relu`` and ``max_pool2x2`` commute bit for bit
(values and gradients), and both orders give the bits of the fused
``max_pool2x2_relu``. ``col2im`` (``autodiff._col2im_add``) sums each input
cell's window contributions in (i, j) order from zero, over whatever images
it is handed: ``conv2d`` hands it one block of images at a time.
Arrays are compared by ``tobytes``, so the sign of a zero counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sadtlab.autodiff import Tape, Tensor, backward, max_pool2x2, max_pool2x2_relu, relu

from conftest import col2im, mul

SCAN_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


def _grad_through(op, x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """op(x) and d/dx of sum(op(x) * g): the op's backward receives g exactly."""
    xt = Tensor(x, requires_grad=True)
    with Tape():
        out = op(xt)
        loss = mul(out, Tensor(g)).sum()
    return out.data, backward(loss)[xt]


def _naive_pool_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    n, h, w, c = x.shape
    gx = np.zeros(x.shape)
    for b in range(n):
        for i in range(h // 2):
            for j in range(w // 2):
                for ch in range(c):
                    cells = [(2 * i + di, 2 * j + dj) for di, dj in SCAN_ORDER]
                    best = 0
                    for k in range(1, 4):
                        if x[(b, *cells[k], ch)] > x[(b, *cells[best], ch)]:
                            best = k
                    for k, cell in enumerate(cells):
                        gx[(b, *cell, ch)] = g[b, i, j, ch] * (1.0 if k == best else 0.0)
    return gx


def _pool_case(name: str) -> np.ndarray:
    gen = np.random.default_rng(sum(map(ord, name)))
    if name == "ties":
        return gen.choice([-1.0, 0.5, 2.0], size=(2, 6, 6, 3))
    if name == "all-equal":
        x = np.full((2, 4, 6, 2), 0.75)
        x[1] = -3.0
        return x
    if name == "all-negative":
        return -gen.uniform(0.5, 2.0, size=(2, 4, 4, 3))
    if name == "signed-zeros":
        return gen.choice([-0.0, 0.0, -1.0], size=(3, 4, 4, 2))
    if name == "odd-extents":
        return gen.choice([-2.0, -0.0, 0.0, 1.0, 3.0], size=(2, 7, 5, 2))
    raise KeyError(name)


class TestMaxPoolRouting:
    @pytest.mark.parametrize(
        "case", ["ties", "all-equal", "all-negative", "signed-zeros", "odd-extents"]
    )
    def test_gradient_goes_to_the_earliest_max(self, case):
        x = _pool_case(case)
        n, h, w, c = x.shape
        gen = np.random.default_rng(1)
        # both signs, so an unrouted cell's g * 0 is -0.0 or +0.0
        gshape = (n, h // 2, w // 2, c)
        g = gen.uniform(0.5, 1.5, gshape) * gen.choice([-1.0, 1.0], gshape)
        _, gx = _grad_through(max_pool2x2, x, g)
        assert gx.tobytes() == _naive_pool_grad(x, g).tobytes()

    def test_odd_extents_leave_the_last_row_and_column_at_plus_zero(self):
        x = _pool_case("odd-extents")
        g = -np.ones((2, 3, 2, 2))
        _, gx = _grad_through(max_pool2x2, x, g)
        assert gx[:, 6].tobytes() == np.zeros((2, 5, 2)).tobytes()
        assert gx[:, :, 4].tobytes() == np.zeros((2, 7, 2)).tobytes()


TIE_PRONE = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])


@st.composite
def _pool_inputs(draw):
    n = draw(st.integers(1, 2))
    h = draw(st.integers(2, 7))
    w = draw(st.integers(2, 7))
    c = draw(st.integers(1, 3))
    values = st.one_of(TIE_PRONE, st.floats(-3.0, 3.0, allow_nan=False))
    x = np.array(draw(st.lists(values, min_size=n * h * w * c, max_size=n * h * w * c)))
    g_values = st.floats(-2.0, 2.0, allow_nan=False)
    gsize = n * (h // 2) * (w // 2) * c
    g = np.array(draw(st.lists(g_values, min_size=gsize, max_size=gsize)))
    return x.reshape(n, h, w, c), g.reshape(n, h // 2, w // 2, c)


class TestPoolReluCommute:
    @settings(max_examples=100, deadline=None)
    @given(_pool_inputs())
    def test_relu_of_pool_equals_pool_of_relu(self, xg):
        x, g = xg
        out_a, gx_a = _grad_through(lambda t: relu(max_pool2x2(t)), x, g)
        out_b, gx_b = _grad_through(lambda t: max_pool2x2(relu(t)), x, g)
        out_c, gx_c = _grad_through(max_pool2x2_relu, x, g)  # the one op the models run
        assert out_a.tobytes() == out_b.tobytes() == out_c.tobytes()
        assert gx_a.tobytes() == gx_b.tobytes() == gx_c.tobytes()


def _naive_col2im(gcols: np.ndarray, xshape, k: int) -> np.ndarray:
    """Each input cell's window contributions summed in (i, j) order from
    zero; vectorised over batch and channel only, which keeps that order."""
    n, h, w, c = xshape
    pad = k // 2
    gwin = gcols.reshape(n, h, w, c, k, k)
    gx = np.zeros(xshape)
    for y in range(h):
        for x in range(w):
            acc = np.zeros((n, c))
            for i in range(k):
                for j in range(k):
                    yo, xo = y + pad - i, x + pad - j
                    if 0 <= yo < h and 0 <= xo < w:
                        acc = acc + gwin[:, yo, xo, :, i, j]
            gx[:, y, x, :] = acc
    return gx


class TestCol2im:
    @pytest.mark.parametrize(
        "xshape, k",
        [
            # 16 images of conv2's input in an 8x8 model
            ((16, 8, 8, 32), 3),
            # one image's gcols alone exceed 1 MiB: conv2d hands these over one at a time
            ((3, 28, 28, 32), 3),
            ((2, 5, 7, 3), 1),
            ((3, 6, 5, 2), 5),
        ],
    )
    def test_equals_ordered_per_element_sum(self, xshape, k):
        n, h, w, c = xshape
        gen = np.random.default_rng(k)
        gcols = gen.normal(size=(n * h * w, c * k * k))
        gcols[gen.random(gcols.shape) < 0.1] = -0.0
        expected = _naive_col2im(gcols, xshape, k)
        assert col2im(gcols, xshape, k).tobytes() == expected.tobytes()
