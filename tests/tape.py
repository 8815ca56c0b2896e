"""The reverse-mode tape the test oracles are built on.

A :class:`Tensor` wraps a float64 ndarray.  Primitive operations, recorded
by :func:`custom_op`, add a node on an implicit tape (the chain of nodes
hanging off each result) whenever any input participates in gradient
tracking.  :func:`backward` replays the tape once, in reverse topological
order, accumulating gradients into the leaf tensors that requested them.
The tape is single-use: a fresh forward pass is required for every
gradient evaluation.

Which gradients a node produces is decided when it is recorded.  Each
primitive reads its inputs' ``requires_grad`` at that moment, saves only the
arrays the requested gradients read, and its backward rule returns ``None``
for every input that needs no gradient.  Nodes link to their parent nodes and
to the leaves that require grad, never to intermediate tensors, so an
intermediate array is freed after the forward pass unless a backward rule
saved it.

The program itself has no tape: each kernel of ``fedmeter.models`` returns
a backward closure.  :func:`record` wraps such a kernel as one tape op, so
that the composed oracles (``composed.py``) and the fused kernels can be
chained and compared on one tape.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from fedmeter import models as md


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


def record(kernel: Callable, x: Tensor, weights: dict[str, Tensor], *args) -> Tensor:
    """Record ``kernel(x, weights, *args, want)``, a closure kernel of
    ``fedmeter.models``, as one tape op over ``x`` and the named ``weights``.

    A kernel gives the weight gradients ("weights") or the input gradient
    ("input"), as its caller asks.  The op asks for what the flags request;
    when both ``x`` and a weight need a gradient, it runs the kernel once in
    each mode, whose outputs have the same bits.  Weights that need no
    gradient get none.
    """
    arrays = {name: w.data for name, w in weights.items()}
    modes = [want for want, needed in (
        ("weights", any(w.requires_grad for w in weights.values())),
        ("input", x.requires_grad)) if needed]
    runs = [kernel(x.data, arrays, *args, want) for want in modes or [None]]

    def rule(g):
        d_in, grads = None, {}
        for _, bw in runs:
            d, found = bw(g)
            d_in = d_in if d is None else d
            grads.update(found)
        return (d_in, *(grads.get(name) for name in weights))

    return custom_op(runs[0][0], (x, *weights.values()), rule)


def lstm_sequence(x, wx, wh, b):
    return record(md.lstm_sequence, x, {"lstm.wx": wx, "lstm.wh": wh, "lstm.b": b})


def sigmoid_head(h, w, b):
    return record(lambda h, p, want: md.sigmoid_head(h, p, "head.", want), h,
                  {"head.w": w, "head.b": b})


def transformer_encoder(x, params):
    return record(md.transformer_encoder, x, params)


def focal_loss(p, y, alpha=0.25, gamma=2.0):
    return record(lambda p, _, want: md.focal_loss(p, y, alpha, gamma, want), p, {})
