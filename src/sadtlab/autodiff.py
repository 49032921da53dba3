"""Dense float64 tensors with define-by-run reverse-mode differentiation.

A :class:`Tape` records a forward pass; operations record onto the innermost
active tape whenever a participating tensor needs gradients. A tape is walked
once per loss: :func:`backward` walks the nodes below its loss in reverse
append order, each at most once, and a second walk from the same loss
raises. So several heads can share one recorded prefix: each head's loss is
walked on its own, and the nodes of another head, which hold no gradient
from this loss, are skipped.

A node links each parent to its node on the tape, or, for a leaf that takes
a gradient, to the leaf; it holds no other tensor. So a graph holds what its
backward functions read and nothing else, and an activation lives only as
long as one of them reads it or the caller holds it: a recorded conv's
output, which its pool reads only in its forward, is freed once the pool
returns. A walked tape's graph (each node's links and backward function, and
with them what those read) is released at the next :func:`backward` of
another tape on the same thread, so reference counting frees it; the most
recently walked tape's graph stays alive until then, however often it is
walked. ``tape.nodes`` itself is kept.

Each ``with tape:`` block is a recording session. One rule frees a recorded
conv's im2col columns, its largest buffer: a conv recorded in its tape's
latest session drops them as soon as its kernel gradient is computed; a conv
of an earlier session keeps them until its graph is released. A walk that
needs freed columns raises ``TapeError``: shared layers go in their own session.

Image tensors are channels last (N x H x W x C) throughout the convolution
and pooling ops: the im2col matmul produces its rows in that order, so a
conv's output and its incoming gradient need no layout copy. Convolutions
have the one geometry the models use: stride 1 and zero "same" padding from
an odd, square kernel, so a conv keeps its input's spatial extent.

Tapes stay single-threaded: an op records on its caller's tape, and
:func:`backward` runs every backward function on the caller's thread. Inside
one op, when the process may run on more than one CPU, a kernel may run as two
lanes: the caller takes the first half of its items, one worker thread the
rest. One rule decides every split (``_lane_split``): each lane holds at least
two items and ``_LANE_MIN_WORK`` multiply-adds (or their cost), starts where
the caller's ``align`` allows and, in a matmul, writes more than
``_MATMUL_GIL_MAX_OUT`` elements, so that numpy releases the GIL. It splits by
images the padding, the im2col gather, both conv matmuls, the input
gradient's zeroing and ``col2im``, and the pool (and ReLU) forward and
backward; by image row the conv bias gradient's batch sum; by row the dense
products and the conv kernel gradient, whose rows are its output channels;
and by element ``optim.adam_step``. Lanes never split a sum: each lane writes its own items
of buffers the caller allocated, with the kernel the whole array would get,
and each lane's matmul is large enough that OpenBLAS multiplies it with the
kernel it uses for the whole product, and starts at an even row. So one lane
or two give the same bits. A conv lane walks its images in blocks of at least
``_LANE_MIN_WORK`` multiply-adds, forward and input gradient alike, so each
block's product has the whole product's bits.

The worker is a one-thread ``ThreadPoolExecutor``, started at its first job.
Every job reaches it through ``_in_background``: the upper lane, and the
teachers' noise draw that a training step hands it at its start; the lanes of
the step's passes queue behind that draw. Without a worker the draw runs on
the caller first. A job calls numpy only, under its caller's errstate, and
the worker drops it (its closure holds the op's buffers) and counts its time
before the caller's wait returns. ``lane_busy_s`` reads the worker's time in
jobs, which a training step reports.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class TapeError(RuntimeError):
    """Backward misuse: non-scalar loss, missing tape, a loss walked twice, a
    released tape, or a conv whose columns an earlier walk freed."""


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

    def item(self) -> float:
        return float(self.data)

    def sum(self) -> "Tensor":
        return tensor_sum(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("links", "backward_fn", "needs", "tape", "index")

    def __init__(self, links, backward_fn, needs, tape, index):
        # per parent, as _link gives it
        self.links: tuple[_Node | Tensor | None, ...] = links
        self.backward_fn: Callable[[np.ndarray, tuple], tuple] = backward_fn
        self.needs: tuple[bool, ...] = needs
        self.tape: Tape = tape
        self.index: int = index


class _ThreadTapes(threading.local):
    def __init__(self):
        self.stack: list[Tape] = []  # the active tapes, innermost last
        self.walked: Tape | None = None  # released by the next backward of another tape


_ACTIVE = _ThreadTapes()


class Tape:
    """Append-ordered operation record for one forward pass.

    Each node links to its parents' nodes, or to a parent leaf that takes a
    gradient, never to an intermediate tensor: the tape keeps what its
    backward functions read. Used as a context manager; nested tapes are
    allowed and the innermost one records. A tape may be entered again to
    record a further head onto it; each entry starts a recording session at
    the current node count, and ``session`` holds the latest one's first
    node index. No later session has recorded a loss over the nodes from
    there on, so a conv among them frees its columns when walked: shared
    layers go in a session of their own. Single-threaded by construction
    (thread-local stack).
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.session = 0  # the first node index of the latest recording session
        self.walked: set[int] = set()  # node indices of the losses walked so far
        self.released = False

    def __enter__(self) -> "Tape":
        self.session = len(self.nodes)
        _ACTIVE.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _ACTIVE.stack.pop()
        assert popped is self

    def _record(self, out: Tensor, links: tuple, backward_fn) -> None:
        needs = tuple(link is not None for link in links)
        node = _Node(links, backward_fn, needs, self, len(self.nodes))
        self.nodes.append(node)
        out.node = node


def _link(t: Tensor, tape: Tape) -> _Node | Tensor | None:
    """What a node on ``tape`` keeps of its parent ``t``: the parent's node on
    that tape, else the parent itself when it is a leaf that takes a gradient."""
    if t.node is not None and t.node.tape is tape:
        return t.node
    return t if t.requires_grad else None


def _recording(parents: tuple[Tensor, ...]) -> tuple[Tape, tuple] | None:
    """The tape that records an op over ``parents``, with each parent's link
    (None for a parent that takes no gradient); None when no active tape
    tracks any of them."""
    tape = _ACTIVE.stack[-1] if _ACTIVE.stack else None
    links = () if tape is None else tuple(_link(p, tape) for p in parents)
    return (tape, links) if any(link is not None for link in links) else None


def _apply(out_data, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(out_data)
    recording = _recording(parents)
    if recording is not None:
        recording[0]._record(out, recording[1], backward_fn)
    return out


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse sweep from a scalar loss, once per loss.

    Returns gradients for every leaf tensor (``requires_grad=True``) reached
    from the loss. Leaves not on any path to the loss are simply absent.
    During the walk, a conv of the tape's latest recording session frees its
    im2col columns once its kernel gradient is computed; a conv of an earlier
    session keeps them for the losses of later ones; a walk that needs
    columns an earlier walk freed raises ``TapeError``. Afterwards, unless the
    loss is on the tape walked last, it releases that tape's graph; this
    tape's graph is released by the next walk of another.
    """
    if loss.node is None:
        raise TapeError("loss is not recorded on any tape")
    tape = loss.node.tape
    if loss.node.index in tape.walked:
        raise TapeError("backward already ran from this loss")
    if tape.released:
        raise TapeError("this tape's graph was released by a later backward")
    if loss.data.shape != ():
        raise TapeError(f"loss must be a scalar, got shape {loss.data.shape}")
    tape.walked.add(loss.node.index)

    grads_by_node: dict[int, np.ndarray] = {loss.node.index: np.ones((), dtype=np.float64)}
    leaf_grads: dict[Tensor, np.ndarray] = {}
    for idx in range(loss.node.index, -1, -1):
        grad = grads_by_node.pop(idx, None)
        if grad is None:
            continue
        node = tape.nodes[idx]
        parent_grads = node.backward_fn(grad, node.needs)
        for link, pgrad in zip(node.links, parent_grads):
            if pgrad is None or link is None:
                continue
            if type(link) is _Node:
                held = grads_by_node.get(link.index)
                grads_by_node[link.index] = pgrad if held is None else held + pgrad
            else:
                held = leaf_grads.get(link)
                leaf_grads[link] = np.array(pgrad) if held is None else held + pgrad
    # One tape behind, not this one: a whole pass freed at once goes back to the
    # OS and the next pass faults it in again. The older graph freed here sits
    # below the newer pass's buffers in the heap and is reused warm (28x28,
    # batch 64, wall_times.csv's minor_faults: a median of 3.0k-4.5k per
    # baseline, sam or sadt step when each graph is freed after its own walk,
    # against 0-2 here).
    previous = _ACTIVE.walked
    if previous is not None and previous is not tape:
        for node in previous.nodes:
            node.links = ()
            node.backward_fn = None
        previous.released = True
    _ACTIVE.walked = tape
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
    a_shape, b_shape = a.shape, b.shape

    def bw(g, needs):
        return (
            _unbroadcast(g, a_shape) if needs[0] else None,
            _unbroadcast(g, b_shape) if needs[1] else None,
        )

    return _apply(out, (a, b), bw)


def scale(t: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(g, needs):
        return (g * c,)

    return _apply(t.data * c, (t,), bw)


def reshape(t: Tensor, shape) -> Tensor:
    shape, in_shape = tuple(int(s) for s in shape), t.shape

    def bw(g, needs):
        return (g.reshape(in_shape),)

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
    shape = t.shape

    def bw(g, needs):
        return (np.full(shape, float(g)),)

    return _apply(np.sum(t.data), (t,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard matrix product of two rank-2 tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    out = _matmul(a.data, b.data)

    def bw(g, needs):
        return (
            _matmul(g, b.data.T) if needs[0] else None,
            _matmul(a.data.T, g) if needs[1] else None,
        )

    return _apply(out, (a, b), bw)


# ---------------------------------------------------------------------------
# lanes: a kernel's images, rows, channels or elements split over two cores
# ---------------------------------------------------------------------------

# Least multiply-adds each lane must hold, or a kernel runs on one lane. It is
# a correctness rule as well as a speed one: OpenBLAS's SkylakeX dgemm (AVX-512)
# multiplies a product of up to ~1e6 M*N*K with its small-matrix kernel, which
# rounds differently from the whole product's kernel. Its Haswell dgemm (AVX2)
# also rounds a run of rows that starts at an odd row differently, so lanes and
# blocks of conv images and rows of dense products start at an even row. The
# margin keeps the 8x8 training convs and dense products, where a handoff costs
# about what the split saves, on one lane. For a kernel without BLAS it is the
# speed rule alone, in the multiply-adds its cells cost (a lane of about 0.1 ms
# against a handoff of about 0.02 ms).
_LANE_MIN_WORK = 4_000_000
# a pool cell, pooled and rectified, takes about as long as this many
# multiply-adds of a one-thread BLAS product. Measured on 28x28 conv1 and conv2
# outputs: 27 in an off-tape forward, 60-78 in a recording one, which also
# finds the routed cell, and 26-39 in its backward's masked multiply. One value
# serves all three: at 64, the recording pools of conv3 at 28x28, batch 64 and
# of conv2 at 16x16, batch 32 would split, and two lanes took 0.40-0.52 against
# 0.45 ms and 0.29 against 0.25 ms there. One addend of the bias gradient's
# batch sum costs about 10 (9.4)
_POOL_WORK_PER_CELL = 32
_SUM_WORK_PER_CELL = 10
# numpy's matmul releases the GIL only for a product of more output elements
# than this (numpy 2.4.6: a 500-element product kept it, a 501-element one
# released it). The worker's lane of a narrower product would start only once
# the caller's lane had returned, so such a product runs on one lane.
_MATMUL_GIL_MAX_OUT = 500


# the lane worker: one thread, started at its first job, that runs jobs in turn
_lane_worker = functools.partial(ThreadPoolExecutor, 1, thread_name_prefix="sadtlab-lane")


def _new_worker() -> ThreadPoolExecutor | None:
    affinity = getattr(os, "sched_getaffinity", None)
    return _lane_worker() if affinity is not None and len(affinity(0)) > 1 else None


_WORKER = _new_worker()
_BUSY_S = 0.0  # seconds in jobs, written by the worker thread only


def lane_busy_s() -> float:
    """Seconds the lane worker has spent in jobs so far; 0 without a worker."""
    return 0.0 if _WORKER is None else _BUSY_S


def _reset_worker() -> None:
    # a forked child has no worker thread; a fresh worker starts its own
    global _WORKER
    if _WORKER is not None:
        _WORKER = _lane_worker()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_worker)


def _lane_split(n: int, work_per_item: float, align: int = 1,
                out_per_item: float = np.inf) -> int:
    """Where ``_lanes`` splits the items ``[0, n)``, by the rule the module
    docstring states: at ``n // 2`` rounded down to a multiple of ``align``,
    or at 0, one lane. Each item costs ``work_per_item`` multiply-adds and, in
    a matmul, writes ``out_per_item`` elements."""
    # One item per lane never splits: a one-channel kernel-gradient lane would
    # turn numpy's gemm into a gemv, which sums in another order. align is per
    # call, 2 where OpenBLAS must see a lane start at an even row: aligning
    # every split would drop conv2's bias-gradient sum at 28x28 to one lane
    # (6 rows x 573,440 multiply-adds < 4e6).
    half = n // 2 // align * align
    one_lane = (_WORKER is None or half < 2 or half * work_per_item < _LANE_MIN_WORK
                or half * out_per_item <= _MATMUL_GIL_MAX_OUT)
    return 0 if one_lane else half


def _lanes(n: int, work_per_item: float, fn: Callable[[int, int], None], align: int = 1,
           out_per_item: float = np.inf) -> None:
    """Run ``fn(0, half)`` here while the worker runs ``fn(half, n)``, split
    where ``_lane_split`` says, or ``fn(0, n)`` here alone. ``fn`` writes only
    items ``[lo, hi)`` of buffers the caller allocated, with numpy kernels
    only. A failure in either lane re-raises here once both have ended; when
    both fail, the worker's failure wins, chained to the caller's."""
    half = _lane_split(n, work_per_item, align, out_per_item)
    if not half:
        fn(0, n)
        return
    wait = _in_background(lambda: fn(half, n))
    try:
        fn(0, half)
    finally:
        wait()  # the worker's lane must end before the buffers are used


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of rank-2 arrays, its rows split over the lanes from an even row."""
    n, k, m = *a.shape, b.shape[1]
    if not _lane_split(n, k * m, 2, m):
        return a @ b  # one lane, without the row walk's ~1 us (an 8x8 product takes 1.5-15 us)
    out = np.empty((n, m))

    def rows(lo, hi):
        np.matmul(a[lo:hi], b, out=out[lo:hi])

    _lanes(n, k * m, rows, align=2, out_per_item=m)
    return out


def _in_background(fn: Callable[[], None]) -> Callable[[], None]:
    """Start ``fn()`` on the lane worker and return a wait for it, or run it
    here first when there is no worker.

    ``fn`` calls numpy only, never a tape op or anything a profiler may wrap,
    and runs under the errstate of the thread that hands it over. Jobs run in
    turn: lanes handed to the worker meanwhile queue behind it. Before the
    wait returns, the worker has dropped ``fn`` (its closure holds the op's
    buffers) and added its seconds to ``lane_busy_s``. The wait blocks until
    ``fn`` has ended and re-raises a failure from it; calling it again
    returns, or raises, at once.
    """
    worker = _WORKER
    if worker is None:
        fn()
        return lambda: None
    job, errstate = [fn], {**np.geterr(), "call": np.geterrcall()}

    def run() -> None:
        global _BUSY_S
        start = time.perf_counter()
        try:
            with np.errstate(**errstate):
                job.pop()()
        finally:
            _BUSY_S += time.perf_counter() - start

    return worker.submit(run).result


# ---------------------------------------------------------------------------
# convolution / pooling
# ---------------------------------------------------------------------------


# im2col columns a kernel walks at a time: about what stays in one core's cache
_BLOCK_BYTES = 1 << 20


def _blocks(lo: int, hi: int, block: int) -> tuple[list[tuple[int, int]], int]:
    """``[lo, hi)`` as runs of ``block`` items, a short tail joining the last
    run, and the length of that last, largest run."""
    starts = range(lo, max(lo + 1, hi - block + 1), block)
    return list(zip(starts, [*starts[1:], hi])), hi - starts[-1]


def _im2col_blocks(x: np.ndarray, k: int, lo: int, hi: int, block: int,
                   cols: np.ndarray | None):
    """Gather the im2col columns of images ``[lo, hi)`` of ``x`` a block at a
    time, yielding ``(start, stop, block_cols)`` per block.

    One row per output pixel, in (c, kh, kw) column order: that order fixes
    the conv matmuls' sum order. A block's columns go to its rows of ``cols``
    or, without it, to scratch that the next block overwrites. The zero
    padding is scratch too.
    """
    blocks, most = _blocks(lo, hi, block)
    _, h, w, c = x.shape
    pad, hw = k // 2, h * w
    xp = np.zeros((most, h + 2 * pad, w + 2 * pad, c))
    scratch = np.empty((most * hw, c * k * k)) if cols is None else None
    for start, stop in blocks:
        m = stop - start
        xp[:m, pad : pad + h, pad : pad + w] = x[start:stop]
        win = np.lib.stride_tricks.sliding_window_view(xp[:m], (k, k), axis=(1, 2))
        block_cols = scratch[: m * hw] if cols is None else cols[start * hw : stop * hw]
        block_cols.reshape(win.shape)[...] = win  # one gathering copy
        yield start, stop, block_cols


def _col2im_add(gp: np.ndarray, gcols: np.ndarray, k: int) -> None:
    """Add the windows of ``gcols`` into the zeroed, padded ``gp``: overlapping
    windows accumulate through k*k shifted adds, in a fixed order."""
    n, hp, wp, c = gp.shape
    h, w = hp - k + 1, wp - k + 1
    gwin = gcols.reshape(n, h, w, c, k, k)
    for i in range(k):
        for j in range(k):
            gp[:, i : i + h, j : j + w, :] += gwin[:, :, :, :, i, j]


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """2-D cross-correlation (no kernel flip), stride 1, plus a bias.

    Channels last: x is N x H x W x C and the output N x H x W x F, so the
    im2col matmul's rows are already the output's memory order and neither
    the output nor the incoming gradient is transposed. kernel is
    F x C x k x k with k odd; the input is zero-padded by k // 2 on each
    side ("same" padding), so the output keeps the input's H and W. bias has
    F entries and is added per output channel.

    The forward and the input gradient walk the same blocks of images, each of
    about ``_BLOCK_BYTES`` of im2col columns and at least ``_LANE_MIN_WORK``
    multiply-adds, so they round as the whole product does; a short tail joins
    the last. Whole-batch columns are written only when the kernel gradient
    will read them. The kernel gradient drops them when the conv's node is in
    its tape's latest recording session (``Tape.session``); a conv of an
    earlier session keeps them until its graph is released. Each conv gathers
    its columns once: a kernel-gradient walk after the drop raises
    ``TapeError``, so layers several losses share go in their own session.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError(f"conv2d expects rank-4 operands, got {x.shape} and {kernel.shape}")
    n, h, w, c = x.shape
    f, ck, kh, kw = kernel.shape
    if ck != c:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape}, kernel {kernel.shape}")
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"conv2d needs an odd, square kernel, got {kh}x{kw}")
    if bias.shape != (f,):
        raise ShapeError(f"conv2d bias {bias.shape} does not match kernel {kernel.shape}")

    k, pad, hw, ckk = kh, kh // 2, h * w, c * kh * kw
    wmat = kernel.data.reshape(f, ckk)
    padded = (h + 2 * pad, w + 2 * pad, c)
    out = np.empty((n, h, w, f))
    out_rows = out.reshape(n * hw, f)
    work = hw * f * ckk  # multiply-adds per image
    block = max(-(-_LANE_MIN_WORK // work), _BLOCK_BYTES // (hw * ckk * out.itemsize))
    align = 2 if hw % 2 else 1  # every lane and block starts at an even row
    block += block % align
    parents = (x, kernel, bias)
    recording = _recording(parents)
    keep = recording is not None and recording[1][1] is not None  # the kernel gradient reads cols
    cols = np.empty((n * hw, ckk)) if keep else None
    index = len(recording[0].nodes) if keep else -1  # the node _apply records

    def forward(lo, hi):
        for start, stop, block_cols in _im2col_blocks(x.data, k, lo, hi, block, cols):
            rows = out_rows[start * hw : stop * hw]
            np.matmul(block_cols, wmat.T, out=rows)
            rows += bias.data

    _lanes(n, work, forward, align)

    def bw(g, needs):
        nonlocal cols
        gm = g.reshape(-1, f)
        gx = gk = gb = None
        if needs[1]:
            if cols is None:
                raise TapeError("an earlier walk of its session freed this conv's columns; "
                                "layers several losses share go in their own `with tape:` session")
            # by output channel; conv1's lanes would write 16 x 9, under the GIL
            gk = _matmul(gm.T, cols).reshape(kernel.data.shape)
            if index >= recording[0].session:  # no later session reads them: free them now
                cols = None
        if needs[0]:
            gp = np.empty((n, *padded))

            def input_grad(lo, hi):
                # each block's images of gp are zeroed, then its column
                # gradient is added into them, while in cache
                blocks, most = _blocks(lo, hi, block)
                gcols = np.empty((most * hw, ckk))
                for start, stop in blocks:
                    block_gcols = gcols[: (stop - start) * hw]
                    np.matmul(gm[start * hw : stop * hw], wmat, out=block_gcols)
                    gp[start:stop] = 0.0
                    _col2im_add(gp[start:stop], block_gcols, k)

            _lanes(n, work, input_grad, align)
            gx = gp[:, pad : pad + h, pad : pad + w, :]
        if needs[2]:
            # batch first, split by image row, then a pairwise sum over each
            # channel's contiguous h*w values; the golden fixture pins this
            # summation order
            per_pixel = np.empty((h, w, f))

            def batch_sum(lo, hi):  # np.sum's reduction, without its wrapper's ~1 us
                np.add.reduce(g[:, lo:hi], axis=0, out=per_pixel[lo:hi])

            _lanes(h, n * w * f * _SUM_WORK_PER_CELL, batch_sum)
            gb = np.ascontiguousarray(per_pixel.reshape(hw, f).T).sum(axis=1)
        return gx, gk, gb

    return _apply(out, parents, bw)


def max_pool2x2(t: Tensor) -> Tensor:
    """2x2 max pooling over the spatial axes of an N x H x W x C tensor,
    stride 2, floor semantics on odd extents.

    The gradient is an exact partition: each window routes its gradient to
    one cell, the earliest maximum in window scan order; every other cell
    gets g * 0, a zero with g's sign. A window holding NaN routes nowhere
    (its max, and so the loss, is NaN). A recorded pool finds that cell in
    its forward and keeps a one-byte mask per input cell, not its input or
    output, so its backward is one masked multiply.
    """
    return _pool(t, rectify=False)


def max_pool2x2_relu(t: Tensor) -> Tensor:
    """``relu(max_pool2x2(t))`` as one op, the same bits in values and
    gradients: each lane pools and then rectifies its own images. A recorded
    one masks its routing with ``max > 0`` in the same forward pass, so its
    backward multiplies g by that one mask, and it keeps one tape node.

    Masking the routed cell by ``max > 0`` gives the bits of ``relu``'s
    ``g * (out > 0)`` followed by the pool's routing: both leave g where the
    max is > 0 and routed, and elsewhere a zero with g's sign (or NaN).
    """
    return _pool(t, rectify=True)


def _pool(t: Tensor, rectify: bool) -> Tensor:
    n, h, w, c = t.shape
    h2, w2 = h // 2, w // 2
    if h2 < 1 or w2 < 1:
        raise ShapeError(f"max_pool2x2 needs extents >= 2, got {t.shape}")

    def windows(a: np.ndarray) -> np.ndarray:
        # N x H2 x 2 x W2 x 2 x C view of the cells the windows cover
        return a[:, : h2 * 2, : w2 * 2].reshape(len(a), h2, 2, w2, 2, c)

    x = t.data
    out = np.empty((n, h2, w2, c))
    # a recording pool routes in its forward, so its graph holds neither x nor out
    routed = None if _recording((t,)) is None else np.empty((n, h2, 2, w2, 2, c), dtype=bool)
    work = h * w * c * _POOL_WORK_PER_CELL

    def forward(lo, hi):
        win, top = windows(x[lo:hi]), out[lo:hi]
        np.maximum(win[:, :, 0, :, 0], win[:, :, 0, :, 1], out=top)
        np.maximum(top, np.maximum(win[:, :, 1, :, 0], win[:, :, 1, :, 1]), out=top)
        if routed is not None:
            # one pass over x: a cell is a max where it equals the window's max
            cells = routed[lo:hi]
            np.equal(win, top[:, :, None, :, None, :], out=cells)
            seen = cells[:, :, 0, :, 0].copy()
            for i, j in ((0, 1), (1, 0), (1, 1)):
                cell = cells[:, :, i, :, j]
                np.greater(cell, seen, out=cell)  # on bools: cell and not seen
                np.logical_or(seen, cell, out=seen)
            if rectify:
                cells &= (top > 0.0)[:, :, None, :, None, :]
        if rectify:
            np.maximum(top, 0.0, out=top)

    _lanes(n, work, forward)

    def bw(g, needs):
        # odd extents leave a last row or column that no window covers: +0.0
        gx = np.empty((n, h, w, c)) if (h2 * 2, w2 * 2) == (h, w) else np.zeros((n, h, w, c))

        def backward_lane(lo, hi):
            np.multiply(g[lo:hi, :, None, :, None, :], routed[lo:hi], out=windows(gx[lo:hi]))

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
