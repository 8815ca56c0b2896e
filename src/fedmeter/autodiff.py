"""Reverse-mode automatic differentiation over float64 numpy arrays.

A :class:`Tensor` wraps an ndarray.  Primitive operations record a node on
an implicit tape (the chain of nodes hanging off each result) whenever any
input participates in gradient tracking.  :func:`backward` replays the tape
once, in reverse topological order, accumulating gradients into the leaf
tensors that requested them.  The tape is single-use: a fresh forward pass
is required for every gradient evaluation.

Which gradients a node produces is decided when it is recorded.  Each
primitive reads its inputs' ``requires_grad`` at that moment, saves only the
arrays the requested gradients read, and its backward rule returns ``None``
for every input that needs no gradient.  Nodes link to their parent nodes and
to the leaves that require grad, never to intermediate tensors, so an
intermediate array is freed after the forward pass unless a backward rule
saved it.  Flipping ``requires_grad`` between the forward and the backward
pass is unsupported: the flags at record time win.

Freed tape memory stays in the process heap for the next tape.  On glibc,
importing this module raises malloc's mmap threshold to 32 MiB and its trim
threshold to 256 MiB, so the 1-5 MB activation arrays come from the heap
and one 64-row Transformer tape (~75 MB) is not handed back to the kernel
after every backward pass, only to be faulted in again by the next forward
pass.  Setting any of ``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_``
or ``MALLOC_TOP_PAD_`` leaves glibc's policy to the environment.

Broadcasting is deliberately restricted to two patterns -- scalar with
tensor, and a trailing-suffix operand (bias/gain application).  Anything
else must go through an explicit :func:`broadcast_to`.  All data is
float64.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "backward",
    "no_grad",
    "add",
    "sub",
    "mul",
    "matmul",
    "sigmoid",
    "relu",
    "log",
    "power",
    "softmax",
    "mean",
    "reshape",
    "transpose",
    "broadcast_to",
    "clip",
    "custom_op",
]


class ShapeError(ValueError):
    """Raised when operand shapes do not conform to a primitive's rules."""


# glibc malloc policy (see the module docstring).  Arrays below the mmap
# threshold come from the heap; 32 MiB is the largest value glibc accepts on
# 64-bit.  The heap top is returned to the kernel only once more than the
# trim threshold is free; it must exceed one tape, or glibc still trims.
# Setting the trim threshold alone would pin the mmap threshold at 128 KiB
# and mmap every large array, so the two are set together, mmap first.
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 256 << 20


def _retain_freed_memory() -> bool:
    """Apply the heap policy; True when glibc accepted both thresholds."""
    if any(var in os.environ for var in
           ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_")):
        return False
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return False
    import ctypes
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD is -3, M_TRIM_THRESHOLD is -1; mallopt returns 1 on success
    return mallopt(-3, _MMAP_THRESHOLD) == 1 and mallopt(-1, _TRIM_THRESHOLD) == 1


_HEAP_RETAINED = _retain_freed_memory()


class _Node:
    """One recorded primitive: where its input gradients go, and its rule.

    ``inputs`` holds, per input, the parent ``_Node`` of an intermediate, the
    leaf ``Tensor`` when that leaf requires grad, or ``None`` for a constant.
    Nodes hold no tensors other than such leaves, and no reference to their
    output (the output holds the node), so the graph is cycle-free and an
    intermediate's array lives only as long as a backward rule needs it.
    """

    __slots__ = ("inputs", "backward_fn", "consumed")

    def __init__(self, inputs: tuple["_Node | Tensor | None", ...],
                 backward_fn: Callable[[np.ndarray], tuple]):
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.consumed = False


class Tensor:
    """Immutable-by-convention float64 array with optional gradient."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("Tensor data must be finite (no NaN/Inf)")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


# ---------------------------------------------------------------------------
# recording machinery

class _GradMode(threading.local):
    """Whether ops record a tape; each thread starts with recording on."""

    enabled = True


_grad_mode = _GradMode()


class no_grad:
    """Context manager that suspends tape recording (evaluation mode).

    It acts on the calling thread only: another thread's tape keeps recording.
    """

    def __enter__(self):
        self._prev = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, *exc):
        _grad_mode.enabled = self._prev
        return False


def _make(out_data: np.ndarray, inputs: tuple[Tensor, ...],
          backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    """Wrap an op result; record a node when any input tracks gradients."""
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out._node = None
    out.requires_grad = _grad_mode.enabled and any(t.requires_grad for t in inputs)
    if out.requires_grad:
        out._node = _Node(tuple(_grad_target(t) for t in inputs), backward_fn)
    return out


def _grad_target(t: Tensor) -> "_Node | Tensor | None":
    """Where a node sends its input gradient: parent node, leaf, or nowhere."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def backward(loss: Tensor) -> None:
    """Run the reverse pass from a scalar loss.

    Every leaf tensor that had ``requires_grad`` when the ops reading it were
    recorded accumulates its gradient into ``.grad`` (summed when the leaf
    feeds the graph more than once).  The tape is consumed; calling backward
    twice on the same graph raises.
    """
    if loss.data.shape not in ((), (1,)):
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    root = loss._node
    if root is None:
        raise ValueError("backward on a tensor with an empty tape (no recorded operations)")
    if root.consumed:
        raise RuntimeError("backward called twice on a consumed tape; rerun the forward pass")

    # Iterative post-order DFS: inputs appear before the nodes that use them.
    tape: list[_Node] = []
    visited: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            tape.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        if node.consumed:
            raise RuntimeError("graph reuses a consumed tape; rerun the forward pass")
        stack.append((node, True))
        for parent in node.inputs:
            if type(parent) is _Node and id(parent) not in visited:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    for node in reversed(tape):
        node.consumed = True
        g = grads.pop(id(node), None)
        if g is not None:
            for target, ig in zip(node.inputs, node.backward_fn(g)):
                if ig is None or target is None:
                    continue
                if type(target) is _Node:
                    nid = id(target)
                    acc = grads.get(nid)
                    grads[nid] = ig if acc is None else acc + ig
                else:
                    target.grad = ig.copy() if target.grad is None else target.grad + ig
        # release saved activations as soon as this node is done
        node.inputs = ()
        node.backward_fn = _consumed_fn


def _consumed_fn(_g):
    raise RuntimeError("backward rule already consumed")


# ---------------------------------------------------------------------------
# broadcasting rules for elementwise ops

def _is_scalar_shape(shape: tuple[int, ...]) -> bool:
    return shape == () or shape == (1,)


def _elementwise_shapes(name: str, a: Tensor, b: Tensor) -> tuple[int, ...]:
    """Output shape for add/sub/mul under the restricted broadcast rules."""
    sa, sb = a.data.shape, b.data.shape
    if sa == sb:
        return sa
    if _is_scalar_shape(sb):
        return sa
    if _is_scalar_shape(sa):
        return sb
    # trailing-suffix operand (bias or gain over the last axes)
    if len(sb) < len(sa) and sa[len(sa) - len(sb):] == sb:
        return sa
    if len(sa) < len(sb) and sb[len(sb) - len(sa):] == sa:
        return sb
    raise ShapeError(
        f"{name}: shapes {sa} and {sb} do not conform "
        f"(allowed: equal, scalar, or trailing-suffix broadcast)")


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape of a broadcast operand."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    if grad.shape != shape:  # remaining size-1 axes (broadcast_to case)
        axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# primitives

def add(a: Tensor, b: Tensor) -> Tensor:
    _elementwise_shapes("add", a, b)
    out = a.data + b.data
    sa, sb = a.data.shape, b.data.shape
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        return (_reduce_to(g, sa) if need_a else None,
                _reduce_to(g, sb) if need_b else None)

    return _make(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _elementwise_shapes("subtract", a, b)
    out = a.data - b.data
    sa, sb = a.data.shape, b.data.shape
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        return (_reduce_to(g, sa) if need_a else None,
                -_reduce_to(g, sb) if need_b else None)

    return _make(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _elementwise_shapes("multiply", a, b)
    out = a.data * b.data
    sa, sb = a.data.shape, b.data.shape
    # each operand's gradient reads the other operand only
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def bw(g):
        return (None if bd is None else _reduce_to(g * bd, sa),
                None if ad is None else _reduce_to(g * ad, sb))

    return _make(out, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: 2D@2D, 3D@3D (matching batch), or 3D@2D (shared weights)."""
    sa, sb = a.data.shape, b.data.shape
    # each operand's gradient reads the other operand only
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    if len(sa) == 2 and len(sb) == 2 and sa[1] == sb[0]:
        out = a.data @ b.data

        def bw(g):
            return (None if bd is None else g @ bd.T,
                    None if ad is None else ad.T @ g)

    elif len(sa) == 3 and len(sb) == 3 and sa[0] == sb[0] and sa[2] == sb[1]:
        out = np.matmul(a.data, b.data)

        def bw(g):
            return (None if bd is None else np.matmul(g, bd.swapaxes(-1, -2)),
                    None if ad is None else np.matmul(ad.swapaxes(-1, -2), g))

    elif len(sa) == 3 and len(sb) == 2 and sa[2] == sb[0]:
        # flatten the batch so the whole product is one gemm
        batch, rows, inner = sa
        out = (a.data.reshape(batch * rows, inner) @ b.data).reshape(batch, rows, sb[1])
        a2 = None if ad is None else ad.reshape(batch * rows, inner)

        def bw(g):
            g2 = g.reshape(batch * rows, sb[1])
            return (None if bd is None else (g2 @ bd.T).reshape(sa),
                    None if a2 is None else a2.T @ g2)

    else:
        raise ShapeError(f"matmul: shapes {sa} and {sb} do not conform")

    return _make(out, (a, b), bw)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # overflow-free for any finite input
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(t: Tensor) -> Tensor:
    out = _sigmoid_np(t.data)

    def bw(g):
        return (g * out * (1.0 - out),)

    return _make(out, (t,), bw)


def relu(t: Tensor) -> Tensor:
    out = np.maximum(t.data, 0.0)
    mask = t.data > 0

    def bw(g):
        return (g * mask,)

    return _make(out, (t,), bw)


def log(t: Tensor) -> Tensor:
    with np.errstate(divide="raise", invalid="raise"):
        try:
            out = np.log(t.data)
        except FloatingPointError:
            raise ValueError("log: input must be strictly positive") from None
    x = t.data

    def bw(g):
        return (g / x,)

    return _make(out, (t,), bw)


def power(t: Tensor, p: float) -> Tensor:
    """Elementwise ``t ** p`` for a constant real exponent."""
    p = float(p)
    out = t.data ** p
    _check_finite("power", out)
    x = t.data

    def bw(g):
        if p == 0.0:
            return (np.zeros_like(x),)
        return (g * p * x ** (p - 1.0),)

    return _make(out, (t,), bw)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _make(out, (t,), bw)


def mean(t: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = t.data.mean(axis=axis, keepdims=keepdims)
    shape = t.data.shape
    count = t.data.size if axis is None else shape[axis]

    def bw(g):
        if axis is None:
            return (np.full(shape, float(g) / count),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, shape).copy(),)

    return _make(np.asarray(out), (t,), bw)


def reshape(t: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = t.data.reshape(shape)
    orig = t.data.shape

    def bw(g):
        return (g.reshape(orig),)

    return _make(out, (t,), bw)


def transpose(t: Tensor, axes: Sequence[int]) -> Tensor:
    out = np.transpose(t.data, axes)
    inverse = tuple(np.argsort(axes))

    def bw(g):
        return (np.transpose(g, inverse),)

    return _make(out, (t,), bw)


def broadcast_to(t: Tensor, shape: Sequence[int]) -> Tensor:
    """Explicit broadcast; the backward pass sums over the expanded axes."""
    shape = tuple(shape)
    try:
        out = np.broadcast_to(t.data, shape).copy()
    except ValueError:
        raise ShapeError(f"broadcast_to: cannot broadcast {t.data.shape} to {shape}") from None
    orig = t.data.shape

    def bw(g):
        return (_reduce_to(g, orig),)

    return _make(out, (t,), bw)


def clip(t: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values into [lo, hi]; gradient passes through the interior only."""
    out = np.clip(t.data, lo, hi)
    mask = (t.data >= lo) & (t.data <= hi)

    def bw(g):
        return (g * mask,)

    return _make(out, (t,), bw)


def custom_op(out_data: np.ndarray, inputs: tuple[Tensor, ...],
              backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    """Record a caller-defined primitive with its own backward rule.

    ``backward_fn`` receives the output gradient and must return one
    gradient (or None) per input, each matching that input's shape.  It
    should return None for every input whose ``requires_grad`` was False
    when the op was recorded (such gradients are discarded), and close over
    only the arrays the remaining gradients read.  Flags are read at record
    time; flipping them before :func:`backward` is unsupported.
    """
    return _make(np.asarray(out_data, dtype=np.float64), tuple(inputs), backward_fn)


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"{name}: produced non-finite values")
