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

This module is the tape mechanism only.  Every primitive is a fused
kernel with its own backward rule, recorded by :func:`custom_op`: the
models' kernels live in :mod:`fedmeter.models`.  All data is float64.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

__all__ = ["Tensor", "ShapeError", "backward", "custom_op"]


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
        if id(node) in grads:
            # no local holds the gradient: the rule's parameter is its only
            # reference (from CPython 3.11), so the rule may free it early
            for target, ig in zip(node.inputs, node.backward_fn(grads.pop(id(node)))):
                if ig is None or target is None:
                    continue
                if type(target) is _Node:
                    nid = id(target)
                    acc = grads.get(nid)
                    grads[nid] = ig if acc is None else acc + ig
                else:
                    target.grad = ig.copy() if target.grad is None else target.grad + ig
            # nor do the loop's locals: ``ig`` may be what the next rule receives
            ig = acc = None
        # release saved activations as soon as this node is done
        node.inputs = ()
        node.backward_fn = _consumed_fn


def _consumed_fn(_g):
    raise RuntimeError("backward rule already consumed")


def custom_op(out_data: np.ndarray, inputs: tuple[Tensor, ...],
              backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    """Record a caller-defined primitive with its own backward rule.

    Wraps ``out_data`` in a Tensor, which records a node when any input
    tracks gradients.  ``backward_fn`` receives the output gradient and must
    return one gradient (or None) per input, each matching that input's
    shape.  It should return None for every input whose ``requires_grad``
    was False when the op was recorded (such gradients are discarded), and
    close over only the arrays the remaining gradients read.  Flags are read
    at record time; flipping them before :func:`backward` is unsupported.
    """
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(out_data, dtype=np.float64)
    out.grad = None
    out._node = None
    out.requires_grad = any(t.requires_grad for t in inputs)
    if out.requires_grad:
        out._node = _Node(tuple(_grad_target(t) for t in inputs), backward_fn)
    return out
