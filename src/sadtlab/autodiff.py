"""Dense float64 tensors with define-by-run reverse-mode differentiation.

A fresh :class:`Tape` is opened per forward pass; operations record onto the
innermost active tape whenever a participating tensor needs gradients. A tape
is consumed by a single :func:`backward` call, which walks the recorded nodes
in reverse append order exactly once. A consumed tape's graph (each node's
parents and backward function, and with them the pass's activations and
im2col columns) is released at the next :func:`backward` on the same thread,
so reference counting frees it; the most recently consumed graph stays alive
until then. ``tape.nodes`` itself is kept.

Image tensors are channels last (N x H x W x C) throughout the convolution
and pooling ops: the im2col matmul produces its rows in that order, so a
conv's output and its incoming gradient need no layout copy. Convolutions
have the one geometry the models use: stride 1 and zero "same" padding from
an odd, square kernel, so a conv keeps its input's spatial extent.

Tapes stay single-threaded: an op records on its caller's tape, and
:func:`backward` runs every backward function on the caller's thread. Inside
one op, when the process may run on more than one CPU, the per-image kernels
of the conv stack run as two lanes: the caller takes the first half of the
images, one worker thread the rest. They are the padding, the im2col gather,
both conv matmuls, ``col2im`` and the pool forward and backward; the kernel
gradient splits by output channel instead. Lanes split only rows and
channels, never a sum: each lane writes its own rows of buffers the caller
allocated, with the kernel the whole array would get, and each lane's matmul
is large enough (``_LANE_MIN_WORK``) that OpenBLAS multiplies it with the
kernel it uses for the whole product. So one lane or two give the same bits.
The bias gradient sums over the batch and stays on one lane.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class TapeError(RuntimeError):
    """Backward misuse: non-scalar loss, missing tape, or consumed tape."""


def _as_f64(values) -> np.ndarray:
    # order="C" keeps 0-d scalars 0-d (ascontiguousarray would promote to 1-d)
    return np.asarray(values, dtype=np.float64, order="C")


class Tensor:
    """Shape-tagged dense f64 array, row-major, optionally on a tape.

    Leaf tensors created with ``requires_grad=True`` receive gradients from
    :func:`backward`; tensors produced by operations carry the tape node that
    made them.
    """

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_f64(values)
        self.requires_grad = requires_grad
        self.node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def sum(self) -> "Tensor":
        return tensor_sum(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("parents", "backward_fn", "needs", "tape", "index")

    def __init__(self, parents, backward_fn, needs, tape, index):
        self.parents: tuple[Tensor, ...] = parents
        self.backward_fn: Callable[[np.ndarray, tuple], tuple] = backward_fn
        self.needs: tuple[bool, ...] = needs
        self.tape: Tape = tape
        self.index: int = index


_ACTIVE = threading.local()


def _tape_stack() -> list:
    stack = getattr(_ACTIVE, "stack", None)
    if stack is None:
        stack = []
        _ACTIVE.stack = stack
    return stack


def _current_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Append-ordered operation record for one forward pass.

    Used as a context manager; nested tapes are allowed and the innermost
    one records. Single-threaded by construction (thread-local stack).
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack().pop()
        assert popped is self

    def _record(self, out: Tensor, parents: tuple[Tensor, ...], backward_fn, needs) -> None:
        node = _Node(parents, backward_fn, needs, self, len(self.nodes))
        self.nodes.append(node)
        out.node = node


def _tracked(t: Tensor, tape: Tape) -> bool:
    return t.requires_grad or (t.node is not None and t.node.tape is tape)


def _apply(out_data, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(out_data)
    tape = _current_tape()
    if tape is not None:
        needs = tuple(_tracked(p, tape) for p in parents)
        if any(needs):
            tape._record(out, parents, backward_fn, needs)
    return out


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse sweep from a scalar loss; consumes the loss's tape.

    Returns gradients for every leaf tensor (``requires_grad=True``) reached
    from the loss. Leaves not on any path to the loss are simply absent.
    Afterwards it releases the graph of the tape consumed before this one on
    the same thread; this tape's graph is released by the next call.
    """
    if loss.node is None:
        raise TapeError("loss is not recorded on any tape")
    tape = loss.node.tape
    if tape.consumed:
        raise TapeError("backward already ran on this tape")
    if loss.data.shape != ():
        raise TapeError(f"loss must be a scalar, got shape {loss.data.shape}")
    tape.consumed = True

    grads_by_node: dict[int, np.ndarray] = {loss.node.index: np.ones((), dtype=np.float64)}
    leaf_grads: dict[Tensor, np.ndarray] = {}
    for idx in range(loss.node.index, -1, -1):
        grad = grads_by_node.pop(idx, None)
        if grad is None:
            continue
        node = tape.nodes[idx]
        parent_grads = node.backward_fn(grad, node.needs)
        for parent, pgrad in zip(node.parents, parent_grads):
            if pgrad is None:
                continue
            if parent.node is not None and parent.node.tape is tape:
                j = parent.node.index
                held = grads_by_node.get(j)
                grads_by_node[j] = pgrad if held is None else held + pgrad
            elif parent.requires_grad:
                held = leaf_grads.get(parent)
                leaf_grads[parent] = np.array(pgrad) if held is None else held + pgrad
    # One tape behind, not this one: a whole pass freed at once goes back to the
    # OS and the next pass faults it in again. The older graph freed here sits
    # below the newer pass's buffers in the heap and is reused warm (28x28,
    # batch 64: 10.7k-21k minor faults per baseline/sadt step against 0-3.6k).
    previous = getattr(_ACTIVE, "consumed", None)
    if previous is not None:
        for node in previous.nodes:
            node.parents = ()
            node.backward_fn = None
    _ACTIVE.consumed = tape
    return leaf_grads


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bw(g, needs):
        return (
            _unbroadcast(g, a.data.shape) if needs[0] else None,
            _unbroadcast(g, b.data.shape) if needs[1] else None,
        )

    return _apply(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bw(g, needs):
        return (
            _unbroadcast(g * b.data, a.data.shape) if needs[0] else None,
            _unbroadcast(g * a.data, b.data.shape) if needs[1] else None,
        )

    return _apply(out, (a, b), bw)


def scale(t: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(g, needs):
        return (g * c,)

    return _apply(t.data * c, (t,), bw)


def reshape(t: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)

    def bw(g, needs):
        return (g.reshape(t.data.shape),)

    return _apply(t.data.reshape(shape), (t,), bw)


def transpose(t: Tensor, axes) -> Tensor:
    """Axis permutation.

    The result is a C-contiguous copy of ``t``'s values, since every tensor
    is row-major. Only a permutation that leaves the values in row-major
    order, such as the N x 1 x H x W -> N x H x W x 1 entry transpose of a
    one-channel image, is a view.
    """
    axes = tuple(int(a) for a in axes)
    inverse = tuple(np.argsort(axes))

    def bw(g, needs):
        return (g.transpose(inverse),)

    return _apply(t.data.transpose(axes), (t,), bw)


def relu(t: Tensor) -> Tensor:
    out = np.maximum(t.data, 0.0)

    def bw(g, needs):
        return (g * (t.data > 0.0),)

    return _apply(out, (t,), bw)


def tensor_sum(t: Tensor) -> Tensor:
    def bw(g, needs):
        return (np.full(t.data.shape, float(g)),)

    return _apply(np.sum(t.data), (t,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard matrix product of two rank-2 tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def bw(g, needs):
        return (
            g @ b.data.T if needs[0] else None,
            a.data.T @ g if needs[1] else None,
        )

    return _apply(out, (a, b), bw)


# ---------------------------------------------------------------------------
# lanes: a kernel's images or channels split over two cores
# ---------------------------------------------------------------------------

# Least multiply-adds each lane must hold, or a kernel runs on one lane. It is
# a correctness rule as well as a speed one: OpenBLAS multiplies a product of
# up to ~1e6 M*N*K with its small-matrix kernel, which rounds differently from
# the whole product's kernel. The margin keeps the 8x8 training convs, where
# a handoff costs about what the split saves, on one lane.
_LANE_MIN_WORK = 4_000_000
# a pool cell's forward takes about as long as this many multiply-adds of a
# one-thread BLAS product
_POOL_WORK_PER_CELL = 32


class _Worker:
    """One daemon thread that runs the upper lane of split kernels.

    It runs numpy kernels only, never a tape op, under the errstate of the
    thread that handed it the lane. Jobs go in on one queue; each reply comes
    back on a queue of its own, so callers on several threads share it.
    """

    def __init__(self):
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._thread: threading.Thread | None = None
        self._starting = threading.Lock()

    def _serve(self) -> None:
        while True:
            fn, lo, hi, errstate, reply = self._jobs.get()
            failure = None
            try:
                with np.errstate(**errstate):
                    fn(lo, hi)
            except BaseException as exc:  # re-raised in the caller
                failure = exc
            # fn's closure holds the op's buffers: they must not outlive the op
            del fn
            reply.put(failure)
            del failure

    def submit(self, fn: Callable[[int, int], None], lo: int, hi: int) -> queue.SimpleQueue:
        with self._starting:
            if self._thread is None:
                self._thread = threading.Thread(target=self._serve, name="sadtlab-lane",
                                                daemon=True)
                self._thread.start()
        reply: queue.SimpleQueue = queue.SimpleQueue()
        errstate = {**np.geterr(), "call": np.geterrcall()}
        self._jobs.put((fn, lo, hi, errstate, reply))
        return reply


def _new_worker() -> _Worker | None:
    affinity = getattr(os, "sched_getaffinity", None)
    return _Worker() if affinity is not None and len(affinity(0)) > 1 else None


_WORKER = _new_worker()


def _reset_worker() -> None:
    # a forked child has no worker thread; a fresh worker starts its own
    global _WORKER
    if _WORKER is not None:
        _WORKER = _Worker()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_worker)


def _lanes(n: int, work_per_item: int, fn: Callable[[int, int], None]) -> None:
    """Run ``fn(lo, hi)`` over the items ``[0, n)``: the caller runs
    ``fn(0, n // 2)`` while the worker runs ``fn(n // 2, n)``, or the caller
    runs ``fn(0, n)`` alone when there is no worker or a lane would hold
    fewer than ``_LANE_MIN_WORK`` multiply-adds.

    ``fn`` writes only items ``[lo, hi)`` of buffers the caller allocated,
    with numpy kernels only. A failure in the worker's lane re-raises here.
    """
    half = n // 2
    worker = _WORKER
    # one item per lane never splits: a kernel-gradient lane of one channel
    # would turn numpy's gemm into a gemv, which sums in another order
    if worker is None or half < 2 or half * work_per_item < _LANE_MIN_WORK:
        fn(0, n)
        return
    reply = worker.submit(fn, half, n)
    try:
        fn(0, half)
    finally:
        failure = reply.get()  # the worker's lane must end before the buffers are used
    if failure is not None:
        raise failure


# ---------------------------------------------------------------------------
# convolution / pooling
# ---------------------------------------------------------------------------


_COL2IM_BLOCK_BYTES = 1 << 20


def _col2im_add(gp: np.ndarray, gcols: np.ndarray, k: int) -> None:
    """Add the windows of ``gcols`` into the zeroed, padded ``gp``."""
    n, hp, wp, c = gp.shape
    h, w = hp - k + 1, wp - k + 1
    gwin = gcols.reshape(n, h, w, c, k, k)
    # overlapping windows accumulate through k*k shifted adds, fixed order. The
    # adds read gcols at a stride of k*k, so they run a few images at a time:
    # a block's ~1 MiB of gcols stays in cache for all k*k reads, where the
    # whole array would come from DRAM k*k times. Each cell's sum is unchanged.
    block = max(1, _COL2IM_BLOCK_BYTES // (h * w * c * k * k * gcols.itemsize))
    for start in range(0, n, block):
        gb = gwin[start : start + block]
        pb = gp[start : start + block]
        for i in range(k):
            for j in range(k):
                pb[:, i : i + h, j : j + w, :] += gb[:, :, :, :, i, j]


def _col2im(gcols: np.ndarray, xshape: tuple[int, ...], k: int) -> np.ndarray:
    n, h, w, c = xshape
    pad = k // 2
    gp = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
    _col2im_add(gp, gcols, k)
    return gp[:, pad : pad + h, pad : pad + w, :]


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """2-D cross-correlation (no kernel flip), stride 1, optional bias.

    Channels last: x is N x H x W x C and the output N x H x W x F, so the
    im2col matmul's rows are already the output's memory order and neither
    the output nor the incoming gradient is transposed. kernel is
    F x C x k x k with k odd; the input is zero-padded by k // 2 on each
    side ("same" padding), so the output keeps the input's H and W. bias
    (if given) has F entries and is added per output channel.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError(f"conv2d expects rank-4 operands, got {x.shape} and {kernel.shape}")
    n, h, w, c = x.shape
    f, ck, kh, kw = kernel.shape
    if ck != c:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape}, kernel {kernel.shape}")
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"conv2d needs an odd, square kernel, got {kh}x{kw}")
    if bias is not None and bias.shape != (f,):
        raise ShapeError(f"conv2d bias {bias.shape} does not match kernel {kernel.shape}")

    k, pad, hw = kh, kh // 2, h * w
    wmat = kernel.data.reshape(f, c * k * k)
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
    # one im2col row per output pixel, in (c, kh, kw) column order: that order
    # fixes the matmuls' sum order
    cols = np.empty((n * hw, c * k * k))
    out = np.empty((n, h, w, f))
    out_rows = out.reshape(n * hw, f)

    def forward(lo, hi):
        rows = slice(lo * hw, hi * hw)
        xp[lo:hi, pad : pad + h, pad : pad + w] = x.data[lo:hi]
        win = np.lib.stride_tricks.sliding_window_view(xp[lo:hi], (k, k), axis=(1, 2))
        cols[rows].reshape(win.shape)[...] = win  # one gathering copy
        np.matmul(cols[rows], wmat.T, out=out_rows[rows])
        if bias is not None:
            out_rows[rows] += bias.data

    _lanes(n, hw * f * c * k * k, forward)

    def bw(g, needs):
        gm = g.reshape(-1, f)
        gk = gx = None
        if needs[1]:
            gk = np.empty(kernel.data.shape)
            gk_rows = gk.reshape(f, c * k * k)

            def kernel_grad(lo, hi):
                np.matmul(gm[:, lo:hi].T, cols, out=gk_rows[lo:hi])

            _lanes(f, n * hw * c * k * k, kernel_grad)
        if needs[0]:
            gp = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
            gcols = np.empty(cols.shape)

            def input_grad(lo, hi):
                rows = slice(lo * hw, hi * hw)
                np.matmul(gm[rows], wmat, out=gcols[rows])
                _col2im_add(gp[lo:hi], gcols[rows], k)

            _lanes(n, hw * f * c * k * k, input_grad)
            gx = gp[:, pad : pad + h, pad : pad + w, :]
        if bias is None:
            return gx, gk
        gb = None
        if needs[2]:
            # batch first, then a pairwise sum over each channel's contiguous
            # h*w values; the golden fixture pins this summation order
            per_pixel = g.sum(axis=0).reshape(h * w, f)
            gb = np.ascontiguousarray(per_pixel.T).sum(axis=1)
        return gx, gk, gb

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return _apply(out, parents, bw)


def max_pool2x2(t: Tensor) -> Tensor:
    """2x2 max pooling over the spatial axes of an N x H x W x C tensor,
    stride 2, floor semantics on odd extents.

    The gradient is an exact partition: each window routes its gradient to
    one cell, the earliest maximum in window scan order; every other cell
    gets g * 0, a zero with g's sign. A window holding NaN routes nowhere
    (its max, and so the loss, is NaN).
    """
    n, h, w, c = t.shape
    h2, w2 = h // 2, w // 2
    if h2 < 1 or w2 < 1:
        raise ShapeError(f"max_pool2x2 needs extents >= 2, got {t.shape}")

    def windows(a: np.ndarray) -> np.ndarray:
        # N x H2 x 2 x W2 x 2 x C view of the cells the windows cover
        return a[:, : h2 * 2, : w2 * 2].reshape(len(a), h2, 2, w2, 2, c)

    x = t.data
    out = np.empty((n, h2, w2, c))
    work = h * w * c * _POOL_WORK_PER_CELL

    def forward(lo, hi):
        win, top = windows(x[lo:hi]), out[lo:hi]
        np.maximum(win[:, :, 0, :, 0], win[:, :, 0, :, 1], out=top)
        np.maximum(top, np.maximum(win[:, :, 1, :, 0], win[:, :, 1, :, 1]), out=top)

    _lanes(n, work, forward)

    def bw(g, needs):
        # odd extents leave a last row or column that no window covers: +0.0
        even = h == h2 * 2 and w == w2 * 2
        gx = np.empty(x.shape) if even else np.zeros(x.shape)
        routed = np.empty((n, h2, 2, w2, 2, c), dtype=bool)

        def backward_lane(lo, hi):
            # one pass over x: a cell is a max where it equals the window's max
            cells = routed[lo:hi]
            np.equal(windows(x[lo:hi]), out[lo:hi, :, None, :, None, :], out=cells)
            seen = cells[:, :, 0, :, 0].copy()
            for i, j in ((0, 1), (1, 0), (1, 1)):
                cell = cells[:, :, i, :, j]
                np.greater(cell, seen, out=cell)  # on bools: cell and not seen
                np.logical_or(seen, cell, out=seen)
            np.multiply(g[lo:hi, :, None, :, None, :], cells, out=windows(gx[lo:hi]))

        _lanes(n, work, backward_lane)
        return (gx,)

    return _apply(out, (t,), bw)


# ---------------------------------------------------------------------------
# classification losses
# ---------------------------------------------------------------------------


def log_softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax with max subtraction, plain numpy."""
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax_cross_entropy(logits: Tensor, target_dist: Tensor) -> Tensor:
    """Mean over the batch of -sum_c target * log_softmax(logits).

    Each row of ``target_dist`` must be a probability vector (soft targets
    permitted); enforced to 1e-9.
    """
    if logits.data.ndim != 2 or target_dist.data.ndim != 2:
        raise ShapeError(
            f"cross entropy expects rank-2 operands, got {logits.shape} and {target_dist.shape}"
        )
    if logits.shape != target_dist.shape:
        raise ShapeError(
            f"cross entropy shape mismatch: logits {logits.shape}, targets {target_dist.shape}"
        )
    row_sums = target_dist.data.sum(axis=1)
    bad = np.where(np.abs(row_sums - 1.0) > 1e-9)[0]
    if bad.size:
        raise ValueError(
            f"target row {bad[0]} is not a probability vector (sums to {row_sums[bad[0]]!r})"
        )
    n = logits.shape[0]
    ls = log_softmax_rows(logits.data)
    out = -np.sum(target_dist.data * ls) / n

    def bw(g, needs):
        glogits = None
        if needs[0]:
            glogits = (np.exp(ls) - target_dist.data) * (float(g) / n)
        gtarget = ls * (-float(g) / n) if needs[1] else None
        return glogits, gtarget

    return _apply(out, (logits, target_dist), bw)


def kl_divergence(p_logits: Tensor, q_logits: Tensor, detach_p: bool = False) -> Tensor:
    """Mean over the batch of sum_c softmax(p) * (log_softmax(p) - log_softmax(q)).

    With ``detach_p`` the p side is treated as a constant and receives no
    gradient, the usual soft-label-matching convention.
    """
    if p_logits.shape != q_logits.shape or p_logits.data.ndim != 2:
        raise ShapeError(
            f"kl_divergence shape mismatch: {p_logits.shape} vs {q_logits.shape}"
        )
    n = p_logits.shape[0]
    lp = log_softmax_rows(p_logits.data)
    lq = log_softmax_rows(q_logits.data)
    p = np.exp(lp)
    row_kl = np.sum(p * (lp - lq), axis=1)
    out = np.sum(row_kl) / n

    def bw(g, needs):
        gq = (np.exp(lq) - p) * (float(g) / n) if needs[1] else None
        if detach_p or not needs[0]:
            return None, gq
        gp = p * ((lp - lq) - row_kl[:, None]) * (float(g) / n)
        return gp, gq

    return _apply(out, (p_logits, q_logits), bw)
