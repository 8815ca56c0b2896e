"""Composed tape oracles for the fused model kernels, shared by the test modules.

Each oracle builds its result from elementary tape primitives, one node per
numpy expression, as the models did before their kernels were fused.  The
fused kernels in ``fedmeter.models`` must reproduce them bit for bit.  The
primitives live here, recorded on the test-side tape (``tape.py``): the
elementwise ``add``, ``sub``, ``mul``, ``log``, ``power``,
``clip``, ``sigmoid`` and ``relu``, and ``mean``, ``reshape``,
``broadcast_to``, ``matmul``, ``softmax`` and ``transpose``.  So do
``linear`` and ``layer_norm``, which wrap the arithmetic that the models'
kernels run inline, each as one primitive, so that their bit tests pin it.

Broadcasting in ``add``, ``sub`` and ``mul`` is deliberately restricted to
two patterns -- scalar with tensor, and a trailing-suffix operand (bias/gain
application).  Anything else raises :class:`fedmeter.autodiff.ShapeError`.
"""

from __future__ import annotations

import numpy as np

from fedmeter import models as md
from fedmeter.autodiff import ShapeError

from tape import Tensor, custom_op


def _is_scalar_shape(shape: tuple[int, ...]) -> bool:
    return shape == () or shape == (1,)


def _elementwise_shapes(name: str, a, b) -> tuple[int, ...]:
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
    if grad.shape != shape:  # remaining size-1 axes: a (1,)-shaped scalar operand
        axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    _elementwise_shapes("add", a, b)
    out = a.data + b.data
    sa, sb = a.data.shape, b.data.shape
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        return (_reduce_to(g, sa) if need_a else None,
                _reduce_to(g, sb) if need_b else None)

    return custom_op(out, (a, b), bw)


def sub(a, b):
    _elementwise_shapes("subtract", a, b)
    out = a.data - b.data
    sa, sb = a.data.shape, b.data.shape
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        return (_reduce_to(g, sa) if need_a else None,
                -_reduce_to(g, sb) if need_b else None)

    return custom_op(out, (a, b), bw)


def mul(a, b):
    _elementwise_shapes("multiply", a, b)
    out = a.data * b.data
    sa, sb = a.data.shape, b.data.shape
    # each operand's gradient reads the other operand only
    a_saved = a.data if b.requires_grad else None
    b_saved = b.data if a.requires_grad else None

    def bw(g):
        return (None if b_saved is None else _reduce_to(g * b_saved, sa),
                None if a_saved is None else _reduce_to(g * a_saved, sb))

    return custom_op(out, (a, b), bw)


def log(t):
    with np.errstate(divide="raise", invalid="raise"):
        try:
            out = np.log(t.data)
        except FloatingPointError:
            raise ValueError("log: input must be strictly positive") from None
    x = t.data
    return custom_op(out, (t,), lambda g: (g / x,))


def power(t, p: float):
    """Elementwise ``t ** p`` for a constant real exponent."""
    p = float(p)
    out = t.data ** p
    md._check_finite("power", out)
    x = t.data

    def bw(g):
        if p == 0.0:
            return (np.zeros_like(x),)
        return (g * p * x ** (p - 1.0),)

    return custom_op(out, (t,), bw)


def clip(t, lo: float, hi: float):
    """Clamp values into [lo, hi]; gradient passes through the interior only."""
    out = np.clip(t.data, lo, hi)
    mask = (t.data >= lo) & (t.data <= hi)
    return custom_op(out, (t,), lambda g: (g * mask,))


def sigmoid(t):
    out = md._sigmoid_np(t.data)
    return custom_op(out, (t,), lambda g: (g * out * (1.0 - out),))


def relu(t):
    out = np.maximum(t.data, 0.0)
    mask = t.data > 0
    return custom_op(out, (t,), lambda g: (g * mask,))


def mean(t, axis: int | None = None, keepdims: bool = False):
    out = t.data.mean(axis=axis, keepdims=keepdims)
    shape = t.data.shape
    count = t.data.size if axis is None else shape[axis]

    def bw(g):
        if axis is None:
            return (np.full(shape, float(g) / count),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, shape).copy(),)

    return custom_op(np.asarray(out), (t,), bw)


def reshape(t, shape):
    orig = t.data.shape
    return custom_op(t.data.reshape(tuple(shape)), (t,), lambda g: (g.reshape(orig),))


def broadcast_to(t, shape):
    """``t`` expanded along its size-1 axes to ``shape`` of the same rank; the
    backward pass sums the gradient back over those axes."""
    orig = t.data.shape

    def bw(g):
        axes = tuple(i for i, (n, o) in enumerate(zip(g.shape, orig)) if o == 1 and n != 1)
        return (g.sum(axis=axes, keepdims=True),)

    return custom_op(np.broadcast_to(t.data, shape).copy(), (t,), bw)


def matmul(a, b):
    """Matrix product: 2D@2D, 3D@3D (matching batch), or 3D@2D (shared weights)."""
    sa, sb = a.data.shape, b.data.shape
    # each operand's gradient reads the other operand only
    a_saved = a.data if b.requires_grad else None
    b_saved = b.data if a.requires_grad else None

    if len(sa) == 2 and len(sb) == 2 and sa[1] == sb[0]:
        out = a.data @ b.data

        def bw(g):
            return (None if b_saved is None else g @ b_saved.T,
                    None if a_saved is None else a_saved.T @ g)

    elif len(sa) == 3 and len(sb) == 3 and sa[0] == sb[0] and sa[2] == sb[1]:
        out = np.matmul(a.data, b.data)

        def bw(g):
            return (None if b_saved is None else np.matmul(g, b_saved.swapaxes(-1, -2)),
                    None if a_saved is None else np.matmul(a_saved.swapaxes(-1, -2), g))

    elif len(sa) == 3 and len(sb) == 2 and sa[2] == sb[0]:
        # flatten the batch so the whole product is one gemm
        batch, rows, inner = sa
        out = (a.data.reshape(batch * rows, inner) @ b.data).reshape(batch, rows, sb[1])
        a2 = None if a_saved is None else a_saved.reshape(batch * rows, inner)

        def bw(g):
            g2 = g.reshape(batch * rows, sb[1])
            return (None if b_saved is None else (g2 @ b_saved.T).reshape(sa),
                    None if a2 is None else a2.T @ g2)

    else:
        raise ShapeError(f"matmul: shapes {sa} and {sb} do not conform")

    return custom_op(out, (a, b), bw)


def softmax(t, axis: int = -1):
    """``e / e.sum(axis)`` with ``e = exp(t - t.max(axis))``, its gradient
    ``out * (g - (g * out).sum(axis))``, both bit for bit.

    The forward shifts, exponentiates and normalises in one array, the
    output, which is all the backward saves.  The backward holds one more
    array the size of ``t``: ``g * out``, reused for ``g - inner`` and the
    result (IEEE products commute, so ``(g - inner) * out`` has the bits of
    ``out * (g - inner)``).
    """
    x = t.data
    out = np.subtract(x, x.max(axis=axis, keepdims=True))
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def bw(g):
        d = g * out
        inner = d.sum(axis=axis, keepdims=True)
        np.subtract(g, inner, out=d)
        d *= out
        return (d,)

    return custom_op(out, (t,), bw)


def transpose(t, axes):
    out = np.transpose(t.data, axes)
    inverse = tuple(np.argsort(axes))
    return custom_op(out, (t,), lambda g: (np.transpose(g, inverse),))


def linear(x, w, b):
    """``x @ w + b`` for a 2-D or 3-D ``x`` as one primitive over the
    models' ``_affine`` arithmetic, which their kernels run inline.  Saved
    for backward: ``x`` when ``w`` requires grad and ``w`` when ``x`` does;
    nothing for ``b``."""
    sx, sw, sb = x.shape, w.shape, b.shape
    if x.ndim not in (2, 3) or w.ndim != 2 or sx[-1] != sw[0] or sb != sw[1:]:
        raise ShapeError(f"linear: shapes {sx}, {sw} and {sb} do not conform")
    x_saved = x.data if w.requires_grad else None
    w_saved = w.data if x.requires_grad else None
    need_b = b.requires_grad
    return custom_op(md._affine(x.data, w.data, b.data), (x, w, b),
                        lambda g: md._affine_grads(g, x_saved, w_saved, need_b))


def layer_norm(t, gamma, beta):
    """Normalise over the last axis, then scale by ``gamma`` and shift by ``beta``.

    ``(t - mean) * (var + 1e-6) ** -0.5 * gamma + beta`` as one fused tape
    primitive.  The forward runs the numpy expressions of the composed
    version in the same order, and the backward replays that version's
    arithmetic step for step, so values and gradients are bit-identical to
    it.  Saved for backward: ``centered`` (the shape of ``t``) and ``inv``
    (one value per row) when ``t`` or ``gamma`` requires grad, and
    ``var + 1e-6`` and ``gamma`` only when ``t`` does.  ``normed`` is not
    saved: the gradient of ``gamma`` recomputes it as ``centered * inv``,
    the forward's own product.  ``md.transformer_encoder`` runs the same
    arithmetic inline, so this pins it.
    """
    d = t.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: gamma {gamma.shape} and beta {beta.shape} "
                            f"must both have shape ({d},)")
    need_t, need_gamma, need_beta = t.requires_grad, gamma.requires_grad, beta.requires_grad
    centered, ve, inv = md._layer_norm_stats(t.data)
    out = md._layer_norm_out(centered, inv, gamma.data, beta.data)
    gd = gamma.data
    if not need_t:
        ve = gd = None
        if not need_gamma:
            centered = inv = None
    return custom_op(out, (t, gamma, beta), lambda g: md._layer_norm_grads(
        g, centered, ve, inv, gd, need_gamma, need_beta))


def composed_layer_norm(t, gamma, beta):
    """Layer norm from elementary primitives: the oracle for ``layer_norm``."""
    mu = mean(t, axis=-1, keepdims=True)
    centered = sub(t, broadcast_to(mu, t.shape))
    var = mean(mul(centered, centered), axis=-1, keepdims=True)
    inv = power(add(var, Tensor(1e-6)), -0.5)
    normed = mul(centered, broadcast_to(inv, t.shape))
    return add(mul(normed, gamma), beta)


def composed_linear(x, w, b):
    """Matmul then bias from elementary primitives: the oracle for ``linear``."""
    return add(matmul(x, w), b)


def composed_focal_loss(p, y, alpha: float = 0.25, gamma: float = 2.0):
    """The focal loss as a chain of 12 elementwise nodes: the oracle for
    ``md.focal_loss``, which validates its inputs."""
    y = np.asarray(y, dtype=np.float64)
    yt = Tensor(y)
    pt = add(mul(p, yt), mul(sub(Tensor(1.0), p), Tensor(1.0 - y)))
    pt = clip(pt, md._P_EPS, 1.0 - md._P_EPS)
    alpha_t = Tensor(alpha * y + (1.0 - alpha) * (1.0 - y))
    weight = mul(alpha_t, power(sub(Tensor(1.0), pt), gamma))
    return mean(mul(Tensor(-1.0), mul(weight, log(pt))))


def composed_sigmoid_head(h, w, b):
    """The linear, sigmoid and reshape nodes: the oracle for
    ``md.sigmoid_head``."""
    return reshape(sigmoid(linear(h, w, b)), (h.shape[0],))


def composed_attention(h, p, k):
    """Block ``k``'s multi-head self-attention, one tape node per step."""
    batch = h.shape[0]
    nh, hd, d, steps = md.NUM_HEADS, md.HEAD_DIM, md.D_MODEL, md.SEQ_LEN

    def heads(t):
        t = reshape(t, (batch, steps, nh, hd))
        return reshape(transpose(t, (0, 2, 1, 3)), (batch * nh, steps, hd))

    q = heads(linear(h, p[f"blk{k}.attn.wq"], p[f"blk{k}.attn.qb"]))
    key = heads(linear(h, p[f"blk{k}.attn.wk"], p[f"blk{k}.attn.kb"]))
    v = heads(linear(h, p[f"blk{k}.attn.wv"], p[f"blk{k}.attn.vb"]))
    weights = softmax(mul(matmul(q, transpose(key, (0, 2, 1))),
                          Tensor(1.0 / np.sqrt(hd))), axis=-1)
    ctx = reshape(matmul(weights, v), (batch, nh, steps, hd))
    merged = reshape(transpose(ctx, (0, 2, 1, 3)), (batch, steps, d))
    return linear(merged, p[f"blk{k}.attn.wo"], p[f"blk{k}.attn.ob"])


def composed_transformer_encoder(x, params):
    """The Transformer encoder and its ReLU dense head as a tape of
    elementary nodes: the oracle for ``md.transformer_encoder``.  Its linear
    and layer-norm nodes are looked up on this module, so a test may swap in
    their composed oracles too."""
    batch, d = x.shape[0], md.D_MODEL
    p = params
    flat = reshape(x, (batch * md.SEQ_LEN, 1))
    emb = linear(flat, p["emb.w"], p["emb.b"])
    emb = mul(emb, Tensor(np.sqrt(float(d))))
    h = add(reshape(emb, (batch, md.SEQ_LEN, d)), Tensor(md.POSITIONS))
    for k in range(md.NUM_BLOCKS):
        h = layer_norm(add(h, composed_attention(h, p, k)),
                       p[f"blk{k}.ln1.gamma"], p[f"blk{k}.ln1.beta"])
        ffn = linear(relu(linear(h, p[f"blk{k}.ffn.w1"], p[f"blk{k}.ffn.b1"])),
                        p[f"blk{k}.ffn.w2"], p[f"blk{k}.ffn.b2"])
        h = layer_norm(add(h, ffn), p[f"blk{k}.ln2.gamma"], p[f"blk{k}.ln2.beta"])
    return relu(linear(mean(h, axis=1), p["head.dense.w"], p["head.dense.b"]))
