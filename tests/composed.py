"""Composed tape oracles for the fused model kernels, shared by the test modules.

Each oracle builds its result from elementary tape primitives, one node per
numpy expression, as the models did before their kernels were fused.  The
fused kernels in ``fedmeter.models`` must reproduce them bit for bit.  The
primitives that only these oracles use live here, not in
``fedmeter.autodiff``: ``broadcast_to``, ``matmul``, ``softmax`` and
``transpose``.
"""

from __future__ import annotations

import numpy as np

from fedmeter import autodiff as ad
from fedmeter import models as md


def broadcast_to(t, shape):
    """``t`` expanded along its size-1 axes to ``shape`` of the same rank; the
    backward pass sums the gradient back over those axes."""
    orig = t.data.shape

    def bw(g):
        axes = tuple(i for i, (n, o) in enumerate(zip(g.shape, orig)) if o == 1 and n != 1)
        return (g.sum(axis=axes, keepdims=True),)

    return ad.custom_op(np.broadcast_to(t.data, shape).copy(), (t,), bw)


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
        raise ad.ShapeError(f"matmul: shapes {sa} and {sb} do not conform")

    return ad.custom_op(out, (a, b), bw)


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

    return ad.custom_op(out, (t,), bw)


def transpose(t, axes):
    out = np.transpose(t.data, axes)
    inverse = tuple(np.argsort(axes))
    return ad.custom_op(out, (t,), lambda g: (np.transpose(g, inverse),))


def composed_layer_norm(t, gamma, beta):
    """Layer norm from elementary primitives: the oracle for ``md.layer_norm``."""
    mu = ad.mean(t, axis=-1, keepdims=True)
    centered = ad.sub(t, broadcast_to(mu, t.shape))
    var = ad.mean(ad.mul(centered, centered), axis=-1, keepdims=True)
    inv = ad.power(ad.add(var, ad.Tensor(1e-6)), -0.5)
    normed = ad.mul(centered, broadcast_to(inv, t.shape))
    return ad.add(ad.mul(normed, gamma), beta)


def composed_linear(x, w, b):
    """Matmul then bias from elementary primitives: the oracle for ``md.linear``."""
    return ad.add(matmul(x, w), b)


def composed_attention(h, p, k):
    """Block ``k``'s multi-head self-attention, one tape node per step."""
    batch = h.shape[0]
    nh, hd, d, steps = md.NUM_HEADS, md.HEAD_DIM, md.D_MODEL, md.SEQ_LEN

    def heads(t):
        t = ad.reshape(t, (batch, steps, nh, hd))
        return ad.reshape(transpose(t, (0, 2, 1, 3)), (batch * nh, steps, hd))

    q = heads(md.linear(h, p[f"blk{k}.attn.wq"], p[f"blk{k}.attn.qb"]))
    key = heads(md.linear(h, p[f"blk{k}.attn.wk"], p[f"blk{k}.attn.kb"]))
    v = heads(md.linear(h, p[f"blk{k}.attn.wv"], p[f"blk{k}.attn.vb"]))
    weights = softmax(ad.mul(matmul(q, transpose(key, (0, 2, 1))),
                             ad.Tensor(1.0 / np.sqrt(hd))), axis=-1)
    ctx = ad.reshape(matmul(weights, v), (batch, nh, steps, hd))
    merged = ad.reshape(transpose(ctx, (0, 2, 1, 3)), (batch, steps, d))
    return md.linear(merged, p[f"blk{k}.attn.wo"], p[f"blk{k}.attn.ob"])


def composed_transformer_encoder(x, params, pos):
    """The Transformer encoder as a tape of elementary nodes: the oracle for
    ``md.transformer_encoder``.  Its linear and layer-norm nodes are looked
    up on ``md``, so a test may swap in their composed oracles too."""
    batch, d = x.shape[0], md.D_MODEL
    p = params
    flat = ad.reshape(x, (batch * md.SEQ_LEN, 1))
    emb = md.linear(flat, p["emb.w"], p["emb.b"])
    emb = ad.mul(emb, ad.Tensor(np.sqrt(float(d))))
    h = ad.add(ad.reshape(emb, (batch, md.SEQ_LEN, d)), ad.Tensor(pos))
    for k in range(md.NUM_BLOCKS):
        h = md.layer_norm(ad.add(h, composed_attention(h, p, k)),
                          p[f"blk{k}.ln1.gamma"], p[f"blk{k}.ln1.beta"])
        ffn = md.linear(ad.relu(md.linear(h, p[f"blk{k}.ffn.w1"], p[f"blk{k}.ffn.b1"])),
                        p[f"blk{k}.ffn.w2"], p[f"blk{k}.ffn.b2"])
        h = md.layer_norm(ad.add(h, ffn), p[f"blk{k}.ln2.gamma"], p[f"blk{k}.ln2.beta"])
    return h
