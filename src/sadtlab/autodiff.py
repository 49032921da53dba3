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
"""

from __future__ import annotations

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
# convolution / pooling
# ---------------------------------------------------------------------------


_COL2IM_BLOCK_BYTES = 1 << 20


def _im2col(xd: np.ndarray, k: int) -> np.ndarray:
    n, h, w, c = xd.shape
    pad = k // 2
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
    xp[:, pad : pad + h, pad : pad + w, :] = xd
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    # one gathering copy; the (c, kh, kw) column order fixes the matmuls' sum order
    return win.reshape(n * h * w, c * k * k)


def _col2im(gcols: np.ndarray, xshape: tuple[int, ...], k: int) -> np.ndarray:
    n, h, w, c = xshape
    pad = k // 2
    gwin = gcols.reshape(n, h, w, c, k, k)
    gp = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
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

    cols = _im2col(x.data, kh)
    wmat = kernel.data.reshape(f, c * kh * kw)
    out = (cols @ wmat.T).reshape(n, h, w, f)
    if bias is not None:
        out += bias.data

    def bw(g, needs):
        gm = g.reshape(-1, f)
        gk = (gm.T @ cols).reshape(kernel.data.shape) if needs[1] else None
        gx = _col2im(gm @ wmat, x.data.shape, kh) if needs[0] else None
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
        return a[:, : h2 * 2, : w2 * 2].reshape(n, h2, 2, w2, 2, c)

    x = t.data
    win = windows(x)
    out = np.maximum(
        np.maximum(win[:, :, 0, :, 0], win[:, :, 0, :, 1]),
        np.maximum(win[:, :, 1, :, 0], win[:, :, 1, :, 1]),
    )

    def bw(g, needs):
        # one pass over x: a cell is a max where it equals the window's max
        routed = np.equal(win, out[:, :, None, :, None, :])
        seen = routed[:, :, 0, :, 0].copy()
        for i, j in ((0, 1), (1, 0), (1, 1)):
            cell = routed[:, :, i, :, j]
            np.greater(cell, seen, out=cell)  # on bools: cell and not seen
            np.logical_or(seen, cell, out=seen)
        # odd extents leave a last row or column that no window covers: +0.0
        even = h == h2 * 2 and w == w2 * 2
        gx = np.empty(x.shape) if even else np.zeros(x.shape)
        np.multiply(g[:, :, None, :, None, :], routed, out=windows(gx))
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
