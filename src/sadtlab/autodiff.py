"""Dense float64 tensors with define-by-run reverse-mode differentiation.

A fresh :class:`Tape` is opened per forward pass; operations record onto the
innermost active tape whenever a participating tensor needs gradients. A tape
is consumed by a single :func:`backward` call, which walks the recorded nodes
in reverse append order exactly once.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

EPS = 1e-12


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

    def detach(self) -> "Tensor":
        """A constant view of this tensor's values, off every tape."""
        return Tensor(self.data)

    def item(self) -> float:
        return float(self.data)

    def sum(self) -> "Tensor":
        return tensor_sum(self)

    def mean(self) -> "Tensor":
        return tensor_mean(self)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

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


def relu(t: Tensor) -> Tensor:
    out = np.maximum(t.data, 0.0)

    def bw(g, needs):
        return (g * (t.data > 0.0),)

    return _apply(out, (t,), bw)


def tensor_sum(t: Tensor) -> Tensor:
    def bw(g, needs):
        return (np.full(t.data.shape, float(g)),)

    return _apply(np.sum(t.data), (t,), bw)


def tensor_mean(t: Tensor) -> Tensor:
    n = t.data.size

    def bw(g, needs):
        return (np.full(t.data.shape, float(g) / n),)

    return _apply(np.sum(t.data) / n, (t,), bw)


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


def _im2col(xd: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    n, c, h, w = xd.shape
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else xd
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (w + 2 * pad - kw) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # n,c,h_out,w_out,kh,kw
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(
        n * h_out * w_out, c * kh * kw
    )
    return cols, h_out, w_out


def _col2im(gcols, xshape, kh, kw, stride, pad, h_out, w_out) -> np.ndarray:
    n, c, h, w = xshape
    gwin = gcols.reshape(n, h_out, w_out, c, kh, kw)
    gp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    # overlapping windows accumulate through kh*kw strided adds, fixed order
    for i in range(kh):
        for j in range(kw):
            gp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += (
                gwin[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            )
    if pad:
        return gp[:, :, pad : pad + h, pad : pad + w]
    return gp


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation (no kernel flip), zero padding.

    x: N x C x H x W, kernel: F x C x kh x kw. Output spatial extent is
    floor((H + 2*padding - kh)/stride) + 1, same with W.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError(f"conv2d expects rank-4 operands, got {x.shape} and {kernel.shape}")
    n, c, h, w = x.shape
    f, ck, kh, kw = kernel.shape
    if ck != c:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape}, kernel {kernel.shape}")
    if stride < 1:
        raise ShapeError(f"conv2d stride must be >= 1, got {stride}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ShapeError(
            f"kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}"
        )

    cols, h_out, w_out = _im2col(x.data, kh, kw, stride, padding)
    wmat = kernel.data.reshape(f, c * kh * kw)
    out = np.ascontiguousarray(
        (cols @ wmat.T).reshape(n, h_out, w_out, f).transpose(0, 3, 1, 2)
    )

    def bw(g, needs):
        gm = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, f)
        gk = (gm.T @ cols).reshape(kernel.data.shape) if needs[1] else None
        gx = None
        if needs[0]:
            gx = _col2im(gm @ wmat, x.data.shape, kh, kw, stride, padding, h_out, w_out)
        return gx, gk

    return _apply(out, (x, kernel), bw)


def max_pool2x2(t: Tensor) -> Tensor:
    """2x2 max pooling, stride 2, floor semantics on odd extents.

    The gradient is an exact partition: each window routes its gradient to
    one cell, the earliest maximum in window scan order.
    """
    n, c, h, w = t.shape
    h2, w2 = h // 2, w // 2
    if h2 < 1 or w2 < 1:
        raise ShapeError(f"max_pool2x2 needs extents >= 2, got {t.shape}")
    x = t.data
    cells = (
        x[:, :, 0 : h2 * 2 : 2, 0 : w2 * 2 : 2],
        x[:, :, 0 : h2 * 2 : 2, 1 : w2 * 2 : 2],
        x[:, :, 1 : h2 * 2 : 2, 0 : w2 * 2 : 2],
        x[:, :, 1 : h2 * 2 : 2, 1 : w2 * 2 : 2],
    )
    top = np.maximum(cells[0], cells[1])
    bottom = np.maximum(cells[2], cells[3])
    out = np.maximum(top, bottom)

    def bw(g, needs):
        gx = np.zeros(t.data.shape)
        use_top = top >= bottom
        mask = cells[0] >= cells[1]
        np.logical_and(use_top, mask, out=mask)
        np.multiply(g, mask, out=gx[:, :, 0 : h2 * 2 : 2, 0 : w2 * 2 : 2])
        np.less(cells[0], cells[1], out=mask)
        np.logical_and(use_top, mask, out=mask)
        np.multiply(g, mask, out=gx[:, :, 0 : h2 * 2 : 2, 1 : w2 * 2 : 2])
        np.logical_not(use_top, out=use_top)
        np.greater_equal(cells[2], cells[3], out=mask)
        np.logical_and(use_top, mask, out=mask)
        np.multiply(g, mask, out=gx[:, :, 1 : h2 * 2 : 2, 0 : w2 * 2 : 2])
        np.less(cells[2], cells[3], out=mask)
        np.logical_and(use_top, mask, out=mask)
        np.multiply(g, mask, out=gx[:, :, 1 : h2 * 2 : 2, 1 : w2 * 2 : 2])
        return (gx,)

    return _apply(out, (t,), bw)


# ---------------------------------------------------------------------------
# classification losses
# ---------------------------------------------------------------------------


def log_softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax with max subtraction, plain numpy."""
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def log_softmax(t: Tensor) -> Tensor:
    """Row-wise log-softmax of an N x C tensor."""
    if t.data.ndim != 2:
        raise ShapeError(f"log_softmax expects rank-2 input, got {t.shape}")
    out = log_softmax_rows(t.data)

    def bw(g, needs):
        p = np.exp(out)
        return (g - p * g.sum(axis=1, keepdims=True),)

    return _apply(out, (t,), bw)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax_rows(x))


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
