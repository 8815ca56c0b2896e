"""Differentiable binary anomaly classifiers over 24-step load profiles.

Two architectures: a single-layer LSTM (100 units) and a 5-block Transformer
encoder (width 160, 8 heads of 20, FFN 128, dense head 256), both ending in a
sigmoid unit that outputs the anomaly probability.  Training uses binary
focal loss and RMSprop with a step learning-rate schedule.

A model's weights are a plain ``dict[str, ndarray]``, ``model.params``.  Each
fused kernel takes float64 arrays and one caller mode, ``want``: "weights"
(training), "input" (an attack) or None (inference).  It returns its output
and, unless ``want`` is None, a backward closure ``g -> (d_in, {name:
grad})``, which ``autodiff.backward`` runs.  Training gets the weight
gradients and no input gradient; an attack the input gradient and none of
the weights'.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError
from .seeding import rng_for

SEQ_LEN = 24
LSTM_HIDDEN = 100
NUM_BLOCKS = 5
D_MODEL = 160
NUM_HEADS = 8
HEAD_DIM = D_MODEL // NUM_HEADS
FFN_HIDDEN = 128
DENSE_HIDDEN = 256
LR_MILESTONES = (50, 70, 90)  # the reference step schedule: at each of these
LR_DECAY = 0.1                # epochs the learning rate is multiplied by this
RMSPROP_RHO = 0.9             # RmsProp's mean-square decay, and the term it
RMSPROP_EPS = 1e-7            # adds to the mean square's root


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    base_lr: float = 0.01
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for a 1-indexed global epoch under the step schedule."""
    passed = sum(1 for m in LR_MILESTONES if epoch >= m)
    return cfg.base_lr * LR_DECAY ** passed


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _checked_batch(x) -> np.ndarray:
    """``x`` as a float64 batch of profiles; ValueError when it holds a NaN or
    infinite value, ShapeError when it is not (rows, SEQ_LEN)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("the batch must be finite (no NaN/Inf)")
    if x.ndim != 2 or x.shape[1] != SEQ_LEN:
        raise ShapeError(f"expected a batch of {SEQ_LEN}-step profiles, got shape {x.shape}")
    return x


def _check_weights(params: dict[str, np.ndarray]) -> None:
    """FloatingPointError naming the first weight that holds a NaN or infinity."""
    for name, arr in params.items():
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError(f"weight {name}: holds a non-finite value")


def _sigmoid_np(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Overflow-free logistic sigmoid of any finite input, into ``out`` (which
    may be ``x``) when given.

    ``max(e, x >= 0) / (1 + e)`` with ``e = exp(-|x|) <= 1`` is
    ``1 / (1 + e)`` where ``x >= 0`` and ``e / (1 + e)`` elsewhere, bit for
    bit, in one division and with one float temporary the size of ``x``.
    """
    nonneg = x >= 0
    e = np.abs(x, out=np.empty_like(x) if out is None else out)
    # not np.negative: in place on a column view with a 64-byte row stride,
    # numpy 2.4.6 reads the column as if it were contiguous
    np.multiply(e, -1.0, out=e)
    np.exp(e, out=e)
    denom = e + 1.0
    np.maximum(e, nonneg, out=e)
    e /= denom
    return e


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"{name}: produced non-finite values")


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over its leading axes down to ``shape``, its trailing
    suffix (the gradient of a bias or gain)."""
    extra = grad.ndim - len(shape)
    return grad.sum(axis=tuple(range(extra))) if extra > 0 else grad


def lstm_sequence(x: np.ndarray, w: dict[str, np.ndarray], want: str | None = None):
    """Full LSTM recurrence over the sequence as one fused kernel.

    Runs backpropagation-through-time by hand instead of composing ~400
    elementary tape nodes; the analytic gradients are pinned against the
    finite-difference oracle in the test suite.  Gate order inside the fused
    kernels: input, forget, candidate, output.  Returns the final hidden
    state [batch, hidden], with the hidden size read from ``lstm.wh``, and
    its backward closure: the gradients of ``lstm.wx``, ``lstm.wh`` and
    ``lstm.b`` for "weights", of ``x`` for "input".

    The closure holds a tape of the gates, one (batch, steps, 4 * hidden)
    array in gate order, and the cell state ``c`` of every step, nothing for
    ``want`` None.  Each step takes one sigmoid pass over all four gates and
    writes the candidate's tanh over its columns.  Backward recomputes
    ``tanh(c)`` once per step, and the previous hidden state from it only for
    the weights.  It overwrites each step's gates with that step's gate
    gradient once it has read them (as memory-efficient backpropagation
    through time does), so the tape becomes the gradient buffer over the
    whole sequence that ``d_x`` and ``d_wx`` are each one product over, and
    the closure can run only once.  These few wide numpy calls, rather than
    many narrow ones, let a second worker thread run while one holds the GIL.
    """
    wx_np, wh_np, b_np = w["lstm.wx"], w["lstm.wh"], w["lstm.b"]
    batch, steps = x.shape
    h_size = wh_np.shape[0]
    train = want == "weights"

    i_, f_, g_, o_ = (slice(k * h_size, (k + 1) * h_size) for k in range(4))
    zeros = np.zeros((batch, h_size))
    h = c = zeros
    tape = np.empty((batch, steps, 4 * h_size)) if want else None
    cells = []
    for t in range(steps):
        # the K=1 product is exact and the sums commute, so the pre-activation
        # has the bits of one (batch * steps, 1) @ wx gemm plus h @ wh plus b
        gates = h @ wh_np
        gates += x[:, t:t + 1] * wx_np
        gates += b_np
        # one sigmoid pass over all four gates in place, then the
        # candidate's tanh over its sigmoid
        gg = np.tanh(gates[:, g_])
        _sigmoid_np(gates, out=gates)
        gates[:, g_] = gg
        c = gates[:, f_] * c
        c += gates[:, i_] * gg
        h = np.tanh(c)
        h *= gates[:, o_]
        if want:
            # computed contiguous and copied in: the same arithmetic on the
            # strided slot itself made fl_lstm_pgd rounds 12-21% slower
            tape[:, t] = gates
            cells.append(c)
    if not want:
        return h, None

    def bw(grad_h):
        nonlocal tape
        if tape is None:
            raise RuntimeError("lstm_sequence: the backward closure has already run")
        buf, tape = tape, None  # gates in, gate gradients out, step by step
        d_wh = np.zeros_like(wh_np) if train else None
        d_b = np.zeros_like(b_np) if train else None
        dz = np.empty((batch, 4 * h_size))
        dh, dc = grad_h, zeros
        tc = np.tanh(cells[-1]) if steps else None
        for t in range(steps - 1, -1, -1):
            gates = buf[:, t]
            gi, gg, go = gates[:, i_], gates[:, g_], gates[:, o_]
            c_prev = cells[t - 1] if t else zeros
            tc_prev = np.tanh(c_prev) if t else zeros
            # each product in the order of ((dc * gg) * gi) * (1 - gi) and
            # its like
            np.multiply(dh, tc, out=dz[:, o_])
            dz[:, o_] *= go
            # dc + (dh * go) * (1 - tc * tc)
            dtanh = tc * tc
            np.subtract(1.0, dtanh, out=dtanh)
            dc_in = dh * go
            dc_in *= dtanh
            dc = np.add(dc, dc_in, out=dc_in)
            np.multiply(dc, gg, out=dz[:, i_])
            np.multiply(dc, c_prev, out=dz[:, f_])
            np.multiply(dc, gi, out=dz[:, g_])
            dz[:, :2 * h_size] *= gates[:, :2 * h_size]  # the i and f columns
            # 1 - gate, and 1 - gg * gg for the candidate
            slope = np.subtract(1.0, gates)
            np.multiply(gg, gg, out=slope[:, g_])
            np.subtract(1.0, slope[:, g_], out=slope[:, g_])
            dz *= slope
            if train:
                h_prev = buf[:, t - 1, o_] * tc_prev if t else zeros
                d_wh += h_prev.T @ dz
                d_b += dz.sum(axis=0)
            dh = dz @ wh_np.T
            dc *= gates[:, f_]
            buf[:, t] = dz  # this step's gates are read: the slot takes dz
            tc = tc_prev
        d_z = buf.reshape(batch * steps, 4 * h_size)  # rows in (batch, step) order
        if not train:
            return (d_z @ wx_np.T).reshape(batch, steps), {}
        d_wx = x.reshape(batch * steps, 1).T @ d_z
        return None, {"lstm.wx": d_wx, "lstm.wh": d_wh, "lstm.b": d_b}

    return h, bw


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` over the last axis of ``x``, one gemm on ``x`` flattened
    to 2-D: the bits of a matmul node followed by a bias add."""
    out = x.reshape(-1, w.shape[0]) @ w
    out += b
    return out.reshape(x.shape[:-1] + w.shape[1:])


def _affine_grads(g: np.ndarray, x: np.ndarray | None, w: np.ndarray | None,
                  need_b: bool) -> tuple:
    """The gradients of ``_affine(x, w, b)`` for the output gradient ``g``:
    of ``x`` when ``w`` is given, of ``w`` when ``x`` is given, of ``b`` when
    ``need_b``, and None for the others (each reads the other operand only)."""
    g2 = g.reshape(-1, g.shape[-1])
    return (None if w is None else (g2 @ w.T).reshape(g.shape[:-1] + w.shape[:1]),
            None if x is None else x.reshape(-1, x.shape[-1]).T @ g2,
            _reduce_to(g, g.shape[-1:]) if need_b else None)


def sigmoid_head(h: np.ndarray, params: dict[str, np.ndarray], prefix: str,
                 want: str | None = None):
    """The anomaly probabilities ``sigmoid(h @ w + b)`` of a (batch, features)
    ``h`` and the one-unit weights ``w`` and ``b``, named ``prefix + "w"`` and
    ``prefix + "b"`` in ``params``, as one fused kernel; returns (batch,) and
    the backward closure, which gives the gradient of ``h`` and, for
    "weights", those of ``w`` and ``b``.

    The forward runs the numpy expressions of the composed linear, sigmoid
    and reshape nodes, and the backward replays their rules in the reverse
    order, so values and gradients are bit-identical to that chain, which
    the test suite keeps as the oracle.  Saved for backward: the
    probabilities, and ``h`` for the weights.
    """
    w, b = params[prefix + "w"], params[prefix + "b"]
    sh, sw, sb = h.shape, w.shape, b.shape
    if h.ndim != 2 or sw != (sh[1], 1) or sb != (1,):
        raise ShapeError(f"sigmoid_head: shapes {sh}, {sw} and {sb} do not conform")
    p = _sigmoid_np(_affine(h, w, b))
    if not want:
        return p.reshape(sh[0]), None
    train = want == "weights"
    h_saved = h if train else None

    def bw(g):
        g = g.reshape(p.shape)
        d_h, d_w, d_b = _affine_grads(g * p * (1.0 - p), h_saved, w, train)
        return d_h, {prefix + "w": d_w, prefix + "b": d_b} if train else {}

    return p.reshape(sh[0]), bw


def _layer_norm_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``centered``, ``var + 1e-6`` and ``inv = (var + 1e-6) ** -0.5`` of
    layer norm over the last axis of ``x``.  Besides them, only the square of
    ``centered`` is held, until the variance is formed."""
    centered = x - x.mean(axis=-1, keepdims=True)
    ve = (centered * centered).mean(axis=-1, keepdims=True) + 1e-6
    inv = ve ** -0.5
    _check_finite("layer_norm", inv)
    return centered, ve, inv


def _layer_norm_out(centered: np.ndarray, inv: np.ndarray, gamma: np.ndarray,
                    beta: np.ndarray) -> np.ndarray:
    """Layer norm's output from its statistics; backward passes that need
    it again recompute it with this same expression, so it has the same bits."""
    out = centered * inv
    out *= gamma
    out += beta
    return out


def _layer_norm_grads(g: np.ndarray, centered: np.ndarray, ve: np.ndarray | None,
                      inv: np.ndarray, gamma: np.ndarray | None, need_gamma: bool,
                      need_beta: bool, out: np.ndarray | None = None) -> tuple:
    """Gradients of layer norm's input (when ``ve`` and ``gamma`` are given),
    ``gamma`` and ``beta`` for the output gradient ``g``, each None when not
    requested.  The input gradient is written into ``out`` when it is given,
    which may be ``g`` itself (with a leading row axis, so that the gradient
    of ``beta`` is a new array).

    The arithmetic of the composed tape, step for step.  The gradients of
    ``gamma`` and ``beta`` come first, since they read ``g``; then the input
    gradient, which may overwrite it.  Besides ``g`` and the statistics, it
    holds ``normed * g`` for the gradient of ``gamma``, then the input
    gradient (``out``, or a new array) and one scratch array, each the shape
    of ``g``: with ``out=g``, two such arrays at most.
    """
    d = g.shape[-1]
    d_gamma = None
    if need_gamma:
        # g * (centered * inv), not (g * centered) * inv: the same rounding
        # as the composed tape's saved normed
        normed = centered * inv
        normed *= g
        d_gamma = _reduce_to(normed, (d,))
        del normed
    d_beta = _reduce_to(g, (d,)) if need_beta else None
    d_t = None
    if gamma is not None:
        # in place, in the composed tape's order: the gradient of normed,
        # of centered (mul, then both operands of centered * centered;
        # 2 * d_sq * centered would round differently), then of t
        d_t = np.multiply(g, gamma, out=out)
        # one scratch array holds d_t * centered, d_sq * centered and -d_t
        scratch = d_t * centered
        d_inv = scratch.sum(axis=-1, keepdims=True)
        d_sq = d_inv * -0.5 * ve ** -1.5 / d
        d_t *= inv
        np.multiply(d_sq, centered, out=scratch)
        d_t += scratch
        d_t += scratch
        # not np.negative in place: see _sigmoid_np
        np.multiply(d_t, -1.0, out=scratch)
        d_t += scratch.sum(axis=-1, keepdims=True) / d
    return d_t, d_gamma, d_beta


def _sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    angles = np.arange(length)[:, None] / np.power(10000.0, 2.0 * np.arange(dim // 2) / dim)
    pe = np.zeros((length, dim))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    pe.flags.writeable = False
    return pe


# the Transformer's fixed sinusoidal positional code, (SEQ_LEN, D_MODEL)
POSITIONS = _sinusoidal_positions(SEQ_LEN, D_MODEL)


def transformer_encoder(x: np.ndarray, params: dict[str, np.ndarray], want: str | None = None):
    """The Transformer from its batch of readings to its dense head's ReLU
    output, as one fused kernel; returns (batch, DENSE_HIDDEN) and the
    backward closure, which gives the gradients of every weight it reads for
    "weights" and of ``x`` for "input".

    Each reading is embedded by ``emb.w`` and ``emb.b``, scaled by
    sqrt(D_MODEL) so that it is not drowned out by the unit-magnitude
    positional code ``POSITIONS``, and summed with it.  Then come NUM_BLOCKS
    post-norm blocks, ``blk{k}.*`` in ``params``: multi-head self-attention,
    then a ReLU feed-forward layer, each added to its input and layer-normed.
    The last block's output is averaged over time and passed through the
    ReLU dense layer ``head.dense.*``; :func:`sigmoid_head` classifies it.

    The forward runs the numpy expressions of the composed tape in its order
    (``_affine``'s arithmetic, layer norm's in ``_layer_norm_stats``,
    ``_layer_norm_out`` and ``_layer_norm_grads``, softmax, the copies that
    split and merge the heads, and the mean over time), and the backward
    replays that tape's arithmetic step for step.  Gradients that meet at
    one array are summed in the tape's order: at a block's input, the
    residual's first, then those through q, k and v.  So values and
    gradients are bit-identical to the composed tape, which the test suite
    keeps as the oracle.

    Saved for backward, one record per block: the softmax's row max and sum,
    the first layer norm's ``centered``, ``var + 1e-6`` and ``inv``, the ReLU
    mask, the second layer norm's three, and for an attack q, k and v in head
    layout (an empty tuple otherwise).  A 32-row forward holds 10.55 MiB of
    traced allocations in its closures for training and 24.51 MiB for an
    attack.  The backward re-forms the attention weights from q, k and the row
    max and sum, and recomputes each layer-norm output, the merged attention
    context and, for ``ffn.w2``'s gradient, the ReLU output, with the forward's
    own expressions, so with the same bits.  Training's backward also rebuilds
    each block's input (block 0's from ``x``) for the weight gradients of q, k
    and v, and re-forms q, k and v from it (Chen et al., 2016,
    rematerialization): 15 more (rows x 24, 160) x (160, 160) gemms per step
    for 14.1 MiB less at 32 rows.  An attack's backward rebuilds no block
    input, and rebuilding it there made a PGD call 25% slower, so an attack
    keeps them.  Keeping the row max and sum (0.5 MiB at 32 rows) spares
    backward two of the softmax's five passes.  The head saves its ReLU mask,
    and the pooled block output only for the weights.  For ``want`` None it
    saves nothing.

    The backward drops each array after its last reader and pops one record
    per block, so its closure runs once.  It drops ``v`` once the attention
    weights' gradient ``d_ctx @ vᵀ`` is formed, before ``d_v``; training
    drops the rebuilt block input once q, k and v are re-formed from it, and
    rebuilds it again (three elementwise passes) for their weight gradients;
    each layer norm writes its input gradient over its output gradient.  A
    32-row training step, forward and backward, peaks at 16.5 MiB of traced
    allocations (18.1 MiB when all three were held).
    """
    w = params
    batch = x.shape[0]
    nh, hd, d = NUM_HEADS, HEAD_DIM, D_MODEL
    train = want == "weights"
    emb_scale = np.sqrt(float(d))
    att_scale = 1.0 / np.sqrt(hd)

    def split(t: np.ndarray) -> np.ndarray:
        """(batch, SEQ_LEN, d) -> (batch * heads, SEQ_LEN, head dim), a copy."""
        t = np.transpose(t.reshape(batch, SEQ_LEN, nh, hd), (0, 2, 1, 3))
        return t.reshape(batch * nh, SEQ_LEN, hd)

    def merge(t: np.ndarray) -> np.ndarray:
        """The inverse of ``split``, and its backward: also a copy."""
        t = np.transpose(t.reshape(batch, nh, SEQ_LEN, hd), (0, 2, 1, 3))
        return t.reshape(batch, SEQ_LEN, d)

    def embed() -> np.ndarray:
        h = _affine(x.reshape(batch * SEQ_LEN, 1), w["emb.w"], w["emb.b"])
        h *= emb_scale
        h = h.reshape(batch, SEQ_LEN, d)
        h += POSITIONS
        return h

    def block_input(k: int) -> np.ndarray:
        """Block ``k``'s input, rebuilt with the forward's own expressions:
        block ``k - 1``'s output, from the second layer norm's statistics in
        its record, or block 0's from ``x``."""
        if k == 0:
            return embed()
        centered, _, inv = saved[k - 1][3]
        return _layer_norm_out(centered, inv, w[f"blk{k - 1}.ln2.gamma"],
                               w[f"blk{k - 1}.ln2.beta"])

    def attention(q: np.ndarray, key: np.ndarray, peak: np.ndarray | None = None,
                  total: np.ndarray | None = None) -> tuple:
        """The attention weights, softmax over the keys of the scaled scores
        worked in one array, e / total with e = exp(s - peak), and the rows'
        ``peak`` (max) and ``total`` (sum).  Backward passes the forward's
        pair back in and skips the two reductions."""
        att = np.matmul(q, np.transpose(key, (0, 2, 1)))
        att *= att_scale
        if peak is None:
            peak = att.max(axis=-1, keepdims=True)
        att -= peak
        np.exp(att, out=att)
        if total is None:
            total = att.sum(axis=-1, keepdims=True)
        att /= total
        return att, peak, total

    def project(h: np.ndarray, p: str, c: str) -> np.ndarray:
        """Block ``p``'s projection ``c`` ("q", "k" or "v") of ``h``, split
        into heads."""
        return split(_affine(h, w[p + f"attn.w{c}"], w[p + f"attn.{c}b"]))

    def relu_out(h: np.ndarray, p: str) -> np.ndarray:
        out = _affine(h, w[p + "ffn.w1"], w[p + "ffn.b1"])
        np.maximum(out, 0.0, out=out)
        return out

    saved: list[tuple] = []  # the blocks' records, for backward
    attack = want == "input"
    # each intermediate is dropped after its last reader, and worked in place
    # where the composed tape's next node made a new array of the same values
    h = embed()
    for k in range(NUM_BLOCKS):
        p = f"blk{k}."
        q = project(h, p, "q")
        key = project(h, p, "k")
        att, *softmax = attention(q, key)
        qkv = (q, key) if attack else ()
        del q, key
        v = project(h, p, "v")
        res = _affine(merge(np.matmul(att, v)), w[p + "attn.wo"], w[p + "attn.ob"])
        if attack:
            qkv += (v,)
        del v, att
        res += h
        del h
        ln1 = _layer_norm_stats(res)
        del res
        h = _layer_norm_out(ln1[0], ln1[2], w[p + "ln1.gamma"], w[p + "ln1.beta"])
        relu = relu_out(h, p)
        res = _affine(relu, w[p + "ffn.w2"], w[p + "ffn.b2"])
        mask = relu > 0 if want else None
        del relu
        res += h
        del h
        ln2 = _layer_norm_stats(res)
        del res
        h = _layer_norm_out(ln2[0], ln2[2], w[p + "ln2.gamma"], w[p + "ln2.beta"])
        if want:
            saved.append((softmax, ln1, mask, ln2, qkv))
        del softmax, ln1, mask, ln2, qkv
    pooled = h.mean(axis=1)
    del h
    out = _affine(pooled, w["head.dense.w"], w["head.dense.b"])
    live = out > 0
    np.maximum(out, 0.0, out=out)
    if not want:
        return out, None
    if not train:
        pooled = None

    def bw(g):
        # each block's record leaves saved as backward reaches it
        if len(saved) < NUM_BLOCKS:
            raise RuntimeError("transformer_encoder: the backward closure has already run")
        grads: dict[str, np.ndarray] = {}

        def dense(g, x_in, wname: str, bname: str, need_in: bool = True):
            """Record the weight gradients of one ``_affine`` and return its
            input's; ``x_in`` makes the input, only for the weights."""
            d_in, grads[wname], grads[bname] = _affine_grads(
                g, x_in() if train else None, w[wname] if need_in else None, train)
            return d_in

        def norm(g, stats, prefix: str):
            """The input gradient of one layer norm, written over its output
            gradient ``g``, which no later step reads."""
            d_t, grads[prefix + ".gamma"], grads[prefix + ".beta"] = _layer_norm_grads(
                g, *stats, w[prefix + ".gamma"], train, train, out=g)
            return d_t

        g = dense(g * live, lambda: pooled, "head.dense.w", "head.dense.b")
        # the mean's backward over time
        g = np.broadcast_to(np.expand_dims(g, 1) / SEQ_LEN, (batch, SEQ_LEN, d)).copy()
        for k in reversed(range(NUM_BLOCKS)):
            p = f"blk{k}."
            (peak, total), ln1, mask, ln2, qkv = saved.pop()
            g = norm(g, ln2, p + "ln2")
            del ln2
            # the first layer norm's output, formed once for both weights of
            # the feed-forward layer
            h1 = None
            if train:
                h1 = _layer_norm_out(ln1[0], ln1[2], w[p + "ln1.gamma"], w[p + "ln1.beta"])
            # g reaches the first layer norm's output through the residual
            # and through the feed-forward layer: two terms sum either way
            d_ffn = dense(g, lambda: relu_out(h1, p), p + "ffn.w2", p + "ffn.b2")
            d_ffn *= mask
            del mask
            d_ffn = dense(d_ffn, lambda: h1, p + "ffn.w1", p + "ffn.b1")
            d_ffn += g
            del g, h1
            g = norm(d_ffn, ln1, p + "ln1")
            del d_ffn, ln1
            if train:
                # q, k and v, re-formed through the forward's project from the
                # block's input, which is rebuilt again for their weight
                # gradients rather than held through the attention core
                h_in = block_input(k)
                qkv = [project(h_in, p, c) for c in "qkv"]
                del h_in
            q, key, v = qkv
            del qkv
            att = attention(q, key, peak, total)[0]
            del peak, total
            d_ctx = split(dense(g, lambda: merge(np.matmul(att, v)), p + "attn.wo", p + "attn.ob"))
            d_att = np.matmul(d_ctx, v.swapaxes(-1, -2))
            del v
            d_v = np.matmul(att.swapaxes(-1, -2), d_ctx)
            del d_ctx
            # softmax's backward, (g - (g * att).sum()) * att, then the scale's
            inner = d_att * att
            inner = inner.sum(axis=-1, keepdims=True)
            d_att -= inner
            d_att *= att
            d_att *= att_scale
            del att, inner
            # the operands of the composed tape's matmul backward
            d_q = np.matmul(d_att, key)
            d_key = np.transpose(np.matmul(q.swapaxes(-1, -2), d_att), (0, 2, 1))
            del d_att, q, key
            h_in = block_input(k) if train else None
            # the block input's gradient sums the residual's, then q's, k's
            # and v's, in the composed tape's order
            g += dense(merge(d_q), lambda: h_in, p + "attn.wq", p + "attn.qb")
            del d_q
            g += dense(merge(d_key), lambda: h_in, p + "attn.wk", p + "attn.kb")
            del d_key
            g += dense(merge(d_v), lambda: h_in, p + "attn.wv", p + "attn.vb")
            del d_v, h_in
        # the positional code is a constant
        g *= emb_scale
        d_flat = dense(g.reshape(batch * SEQ_LEN, d), lambda: x.reshape(batch * SEQ_LEN, 1),
                       "emb.w", "emb.b", need_in=not train)
        return (None, grads) if train else (d_flat.reshape(batch, SEQ_LEN), {})

    return out, bw


class _Classifier:
    """What both models share: the weight map ``params``, one float64 array
    per name, its copies in and out, and the one ``forward``.

    A subclass declares its weights, its ``ROW_BLOCK``, its encoder kernel
    ``ENCODER(x, params, want) -> (features, backward)`` and the prefix
    ``HEAD`` of the weights of its :func:`sigmoid_head`.
    """

    params: dict[str, np.ndarray]
    ENCODER: Callable
    HEAD: str

    def forward(self, x, want: str | None = None) -> tuple[np.ndarray, list]:
        """The anomaly probabilities of the batch ``x``, and its kernels'
        backward closures in order (each None for ``want`` None)."""
        h, encoder = self.ENCODER(_checked_batch(x), self.params, want)
        probs, head = sigmoid_head(h, self.params, self.HEAD, want)
        return probs, [encoder, head]

    def get_weights(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}

    def set_weights(self, weights: dict[str, np.ndarray]) -> None:
        """Replace the weight map by a new one of copies of ``weights``, so no
        array handed out before (see ``federation.run_round``) changes."""
        if set(self.params) != set(weights):
            missing = sorted(set(self.params) ^ set(weights))
            raise ValueError(f"weight map names do not match the model: {missing}")
        new = {}
        for name, old in self.params.items():
            arr = np.asarray(weights[name], dtype=np.float64)
            if arr.shape != old.shape:
                raise ValueError(f"weight {name}: shape {arr.shape} != expected {old.shape}")
            new[name] = arr.copy()
        self.params = new


class LstmClassifier(_Classifier):
    """Sequence-to-one LSTM: 24 scalar steps -> hidden state -> sigmoid unit."""

    # Rows an attack or inference keeps in flight (see _by_row_blocks).  At
    # 16 rows an input_gradient cost 0.37 ms per row, at 32-64 rows 0.27-0.31.
    ROW_BLOCK = 64
    ENCODER = staticmethod(lstm_sequence)
    HEAD = "head."

    def __init__(self, seed: int = 0):
        rng = rng_for(seed, "init", "lstm")
        h = LSTM_HIDDEN
        self.params = {
            "lstm.wx": _glorot(rng, (1, 4 * h)),
            "lstm.wh": _glorot(rng, (h, 4 * h)),
            "lstm.b": np.zeros(4 * h),
            "head.w": _glorot(rng, (h, 1)),
            "head.b": np.zeros(1),
        }


class TransformerClassifier(_Classifier):
    """Post-norm Transformer encoder over embedded hourly readings.

    Scalar readings are linearly embedded to the model width, summed with the
    fixed sinusoidal positional code ``POSITIONS``, passed through the
    encoder blocks, averaged over time and fed to a ReLU dense layer, all as
    one fused kernel (:func:`transformer_encoder`); a sigmoid unit
    (:func:`sigmoid_head`) classifies the result.  A forward's closures hold
    what :func:`transformer_encoder` lists, because the encoder's backward
    recomputes its layer-norm outputs, attention weights, merged attention
    contexts, ReLU outputs and, for training, q, k and v instead of saving
    them.
    """

    # Rows an attack or inference keeps in flight (see _by_row_blocks).  A
    # row's closures hold about 1 MiB, 8x the LSTM's, and an input_gradient
    # costs about the same per row at 16 rows as at 32.
    ROW_BLOCK = 32
    ENCODER = staticmethod(transformer_encoder)
    HEAD = "head.out."

    def __init__(self, seed: int = 0):
        rng = rng_for(seed, "init", "transformer")
        d, ffn, dense = D_MODEL, FFN_HIDDEN, DENSE_HIDDEN
        params = {"emb.w": _glorot(rng, (1, d)), "emb.b": np.zeros(d)}
        for k in range(NUM_BLOCKS):
            for proj in ("wq", "wk", "wv", "wo"):
                params[f"blk{k}.attn.{proj}"] = _glorot(rng, (d, d))
                params[f"blk{k}.attn.{proj[1]}b"] = np.zeros(d)
            params[f"blk{k}.ln1.gamma"] = np.ones(d)
            params[f"blk{k}.ln1.beta"] = np.zeros(d)
            params[f"blk{k}.ffn.w1"] = _glorot(rng, (d, ffn))
            params[f"blk{k}.ffn.b1"] = np.zeros(ffn)
            params[f"blk{k}.ffn.w2"] = _glorot(rng, (ffn, d))
            params[f"blk{k}.ffn.b2"] = np.zeros(d)
            params[f"blk{k}.ln2.gamma"] = np.ones(d)
            params[f"blk{k}.ln2.beta"] = np.zeros(d)
        params["head.dense.w"] = _glorot(rng, (d, dense))
        params["head.dense.b"] = np.zeros(dense)
        params["head.out.w"] = _glorot(rng, (dense, 1))
        params["head.out.b"] = np.zeros(1)
        self.params = params


MODEL_FACTORIES = {
    "lstm": LstmClassifier,
    "transformer": TransformerClassifier,
}


def make_model(name: str, seed: int = 0):
    try:
        return MODEL_FACTORIES[name](seed=seed)
    except KeyError:
        raise ValueError(f"unknown model {name!r}; choose from {sorted(MODEL_FACTORIES)}") from None


# ---------------------------------------------------------------------------
# loss, optimizer, training

_P_EPS = 1e-12


def focal_loss(p: np.ndarray, y: np.ndarray, alpha: float = 0.25,
               gamma: float = 2.0, want: str | None = None):
    """Mean binary focal loss -alpha_t * (1 - p_t)^gamma * log(p_t), and
    the backward closure that gives the gradient of ``p``.

    ``p_t`` is the probability assigned to the true class and ``alpha_t`` is
    ``alpha`` for positives, ``1 - alpha`` for negatives.  Probabilities are
    clamped 1e-12 away from the 0/1 boundary before the log.

    One fused kernel.  The forward runs the numpy expressions of the
    composed chain of elementwise nodes in its order, and the backward
    replays that chain's gradient arithmetic step for step, so the loss and
    the gradient of ``p`` are bit-identical to it.  Gradients meet at
    ``p_t`` and at ``p``, two terms each, and IEEE sums of two terms do not
    depend on their order.
    """
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise ShapeError(f"focal loss: probabilities {p.shape} vs labels {y.shape}")
    if np.any((y != 0.0) & (y != 1.0)):
        raise ValueError("focal loss labels must be 0 or 1")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("focal loss probabilities must lie in [0, 1]")
    gamma = float(gamma)
    not_y = 1.0 - y
    pt_raw = p * y + (1.0 - p) * not_y
    pt = np.clip(pt_raw, _P_EPS, 1.0 - _P_EPS)
    inside = (pt_raw >= _P_EPS) & (pt_raw <= 1.0 - _P_EPS)
    alpha_t = alpha * y + (1.0 - alpha) * not_y
    far = 1.0 - pt
    weight = alpha_t * far ** gamma
    _check_finite("focal loss", weight)
    log_pt = np.log(pt)
    loss = (-1.0 * (weight * log_pt)).mean()

    def bw(g):
        d_prod = np.full(y.shape, -float(g) / y.size)
        d_pt = d_prod * weight / pt
        if gamma != 0.0:  # else the power's gradient is 0, and x - 0 is x
            d_pt -= d_prod * log_pt * alpha_t * gamma * far ** (gamma - 1.0)
        d_pt *= inside
        return d_pt * y - d_pt * not_y, {}

    return loss, bw if want else None


class RmsProp:
    """Per-parameter mean-square accumulator: v <- rho v + (1-rho) g^2."""

    def __init__(self):
        self.state: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr: float) -> None:
        """Update each array of ``params`` named in ``grads``, in place."""
        for name, g in grads.items():
            p = params[name]
            if g.shape != p.shape:
                raise ValueError(f"{name}: gradient shape {g.shape} != parameter "
                                 f"shape {p.shape}")
            v = self.state.get(name)
            if v is None:
                v = np.zeros_like(p)
                self.state[name] = v
            v *= RMSPROP_RHO
            v += (1.0 - RMSPROP_RHO) * g * g
            p -= lr * g / (np.sqrt(v) + RMSPROP_EPS)


def train_local(model, x: np.ndarray, y: np.ndarray, cfg: TrainConfig, *,
                seed: int, epoch: int, optimizer: RmsProp | None = None) -> float:
    """Train global epoch ``epoch`` once in mini-batches; returns its mean loss.

    The epoch picks the learning rate and the shuffle order, so a federated
    round and a centralized epoch of the same number train alike.  The model
    is trained in place, so training owns it: no other thread may use it
    meanwhile.  No step's weight gradients outlive its optimizer step, so
    they are not held while the next forward pass saves its arrays: one
    Transformer client over 2 x 32 rows peaks at 22.4 MiB of traced
    allocations.  Raises FloatingPointError when a weight or the loss is not
    finite.
    """
    _check_weights(model.params)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    opt = optimizer if optimizer is not None else RmsProp()
    lr = lr_at_epoch(cfg, epoch)
    perm = rng_for(seed, "shuffle", epoch).permutation(n)
    batch_losses = []
    for start in range(0, n, cfg.batch_size):
        idx = perm[start:start + cfg.batch_size]
        probs, steps = model.forward(x[idx], "weights")
        loss, step = focal_loss(probs, y[idx], cfg.focal_alpha, cfg.focal_gamma, "weights")
        value = float(loss)
        if not np.isfinite(value):
            raise FloatingPointError(f"non-finite loss at epoch {epoch}")
        steps.append(step)
        opt.step(model.params, ad.backward(steps)[1], lr)
        batch_losses.append(value)
    return float(np.mean(batch_losses))


def input_gradient(model, x: np.ndarray, y: np.ndarray, alpha: float = 0.25,
                   gamma: float = 2.0) -> np.ndarray:
    """Gradient of the focal loss w.r.t. the input batch.

    Raises FloatingPointError when a weight is not finite.  The forward
    pass asks for no weight gradient, so it writes nothing to ``model``:
    any number of threads may read one model at once.
    """
    _check_weights(model.params)
    probs, steps = model.forward(x, "input")
    steps.append(focal_loss(probs, y, alpha, gamma, "input")[1])
    return ad.backward(steps)[0]


# ---------------------------------------------------------------------------
# workers: a federated round's clients and an attack's row blocks

# Each worker holds the arrays one forward pass saved for its backward pass
# (its tape), and a round's worker also its own model's weight map and its
# client's RmsProp state, 5.85 MiB each for the Transformer.  A Transformer
# training worker's tape is a 32-row forward's (see transformer_encoder), and
# one client's train_local over 2 x 32 rows, RmsProp state included, peaks at
# 22.4 MiB above the weight map it trains, so peak memory grows by about 28
# MiB per worker, and by a map for each client finished while an earlier one
# still trains; row-block workers share their model's ROW_BLOCK rows and the
# model itself, and a 16-row Transformer input_gradient peaks at 13.4 MiB.
# Two workers against one were measured on 2 cores only (BENCH_9.json and
# BENCH_10.json for the Transformer, BENCH_12.json and BENCH_15.json for the
# LSTM; BENCH_33.json, BENCH_37.json and BENCH_43.json have today's figures);
# more workers stay unmeasured.
MAX_WORKERS = 2


class _TaskThread(threading.local):
    """Whether this thread is running one of :func:`_in_order`'s tasks."""

    busy = False


_task_thread = _TaskThread()


def blas_build() -> dict[str, str]:
    """The name and version of the BLAS numpy was built against, each ""
    where numpy does not say."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    return {"name": str(blas.get("name", "")), "version": str(blas.get("version", ""))}


def _bundled_openblas() -> list[str]:
    """The paths of the OpenBLAS a numpy wheel bundles, the library numpy
    loaded: under ``numpy.libs`` on Linux, ``numpy/.dylibs`` on macOS."""
    import glob
    here = os.path.dirname(np.__file__)
    return sorted(glob.glob(os.path.join(here, os.pardir, "numpy.libs", "*openblas*"))
                  + glob.glob(os.path.join(here, ".dylibs", "*openblas*")))


def _blas_thread_calls() -> tuple[Callable, Callable] | None:
    """The thread-count setter and getter of the OpenBLAS bundled with numpy,
    the library numpy loaded; None for another BLAS or a numpy without one."""
    import ctypes
    for path in _bundled_openblas():
        lib = ctypes.CDLL(path)  # numpy has loaded it: the same handle
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            setter = getattr(lib, name.format("set"), None)
            getter = getattr(lib, name.format("get"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                getter.argtypes, getter.restype = (), ctypes.c_int
                return setter, getter
    return None


# Process-wide policy, applied at import: numpy's BLAS runs one thread per
# call whatever the shell's thread variables say, so two BLAS threads never
# round a gemm differently from one, and the cores go to _in_order's workers.
_BLAS_THREAD_CALLS = _blas_thread_calls()
if _BLAS_THREAD_CALLS is not None:
    _BLAS_THREAD_CALLS[0](1)


def blas_threads() -> int | None:
    """The thread count numpy's BLAS reports, 1 unless a caller raised it
    after importing fedmeter; None when it cannot be asked."""
    return None if _BLAS_THREAD_CALLS is None else int(_BLAS_THREAD_CALLS[1]())


def _workers() -> int:
    """How many workers run a round's clients or an attack's row blocks at
    once: up to :data:`MAX_WORKERS` cores, or one.

    More than one only when BLAS reports one thread per call (fedmeter sets
    it so at import, where the build has a setter) and the calling thread is
    not already one of :func:`_in_order`'s workers: a malicious client's PGD
    inside a concurrent round stays on its worker, in whole blocks of its
    model's ``ROW_BLOCK`` rows.  A BLAS whose thread count cannot be asked,
    or that a caller raised, gets one worker: with 2-thread BLAS on 2 cores,
    two Transformer workers made a round 72% slower than one
    (``selection_sides`` in BENCH_9.json).  No environment variable is read.
    """
    if _task_thread.busy or blas_threads() != 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(cores, MAX_WORKERS)


def _in_order(task: Callable[[object, int], object], count: int, models: list,
              consume: Callable[[int, object], None]) -> None:
    """Run ``task(model, i)`` for each ``i`` in ``range(count)`` and hand each
    result to ``consume(i, result)`` in index order, one call at a time.

    One worker per entry of ``models``: the calling thread works with
    ``models[0]`` and one helper thread with each of the others (a round's
    workers each own a model; row-block workers share one).  A worker takes
    the next untaken index.  The worker whose finished task completes the
    ordered prefix consumes it, and every later result already finished,
    before it takes its next index: a result waits only while an earlier
    task still runs, and none outlives its ``consume`` call unless
    ``consume`` keeps it.  When a task or ``consume`` raises, or the caller
    is interrupted, no worker takes another index, the helpers are joined,
    and the caller's exception, or else the first a helper met, reaches the
    caller with its own type.
    While a thread runs a task, :func:`_workers` there returns 1, so a task
    starts no workers of its own.
    """
    lock = threading.Lock()
    results: dict[int, object] = {}
    errors: list[BaseException] = []
    taken = head = 0  # head: the next index to consume

    def take() -> int | None:
        nonlocal taken
        with lock:
            if errors or taken == count:
                return None
            taken += 1
            return taken - 1

    def run(model, i: int) -> None:
        # a function, out deleted: once consumed, no worker local holds it
        nonlocal head
        out = task(model, i)
        with lock:
            results[i] = out
            del out
            while head in results:
                consume(head, results.pop(head))
                head += 1

    def helper(model) -> None:
        _task_thread.busy = True
        while (i := take()) is not None:
            try:
                run(model, i)
            except BaseException as exc:  # handed to the caller, which raises it
                with lock:
                    errors.append(exc)
                return

    helpers = [threading.Thread(target=helper, args=(m,), daemon=True) for m in models[1:]]
    for t in helpers:
        t.start()
    busy = _task_thread.busy
    _task_thread.busy = True
    try:
        while (i := take()) is not None:
            run(models[0], i)
    finally:
        _task_thread.busy = busy
        with lock:
            taken = count  # no worker takes another index
        for t in helpers:
            t.join()
    if errors:
        raise errors[0]


# Block edges fall on multiples of this many rows.  The BLAS matrix-vector
# kernel behind the sigmoid heads works through rows in groups of 4 and
# rounds the 1-3 rows left over at the end of a call differently (OpenBLAS
# 0.3.31, Haswell and SkylakeX kernels), so a block that ends off the grid
# would change the last bits of its final rows.  Any multiple of 4 kept them
# when probed (CHANGES.md); 8 rows leave a two-worker Transformer block of 16
# rows two grid units.
_ROW_ALIGN = 8


def row_blocks(n: int, cap: int) -> list[slice]:
    """Consecutive slices of at most ``cap`` rows that cover ``range(n)``.

    ``cap`` is a positive multiple of ``_ROW_ALIGN``.  Blocks are near-equal
    in whole ``_ROW_ALIGN``-row units, and only the last block can end off
    that grid, where a whole-batch call ends too.  So every row is computed
    exactly as in one call over ``n`` rows, whatever the cap, and any
    ``n <= cap`` is one block, the whole batch.  With a cap of at least two
    units no block is a small remainder: each has at least half the rows of
    the largest.
    """
    count = -(-n // cap)
    units = -(-n // _ROW_ALIGN)
    edges = [0] + [min(n, _ROW_ALIGN * (units * i // count)) for i in range(1, count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _by_row_blocks(model, out: np.ndarray,
                   task: Callable[[object, slice], np.ndarray]) -> np.ndarray:
    """Fill ``out[rows] = task(model, rows)`` for the row blocks of ``out``.

    Each model class sizes its blocks: at most ``model.ROW_BLOCK`` rows are
    in flight at once, so activation memory is bounded by the block, not by
    the batch.  The blocks run on up to :func:`_workers` workers, and every
    worker is handed ``model`` itself: tasks only read it.  A block holds at
    most ``ROW_BLOCK // workers`` rows, rounded down to the ``_ROW_ALIGN``
    grid, and every row keeps its bits (see :func:`row_blocks`) whatever the
    number of workers.  No more than ``ROW_BLOCK // (2 * _ROW_ALIGN)``
    workers share the blocks, so a cap holds at least two grid units and no
    block is one row split off a larger batch: numpy runs a one-row product
    as a BLAS matrix-vector call, which rounds that row differently.  Both
    models share the blocks: for the LSTM too, two workers ran a 304-row PGD
    call and a 1520-row predict_proba no slower than one (BENCH_15.json).
    """
    block = model.ROW_BLOCK
    workers = min(_workers(), block // (2 * _ROW_ALIGN))
    blocks = row_blocks(len(out), block // workers // _ROW_ALIGN * _ROW_ALIGN)
    models = [model] * min(workers, len(blocks))

    def write(i: int, result: np.ndarray) -> None:
        out[blocks[i]] = result

    _in_order(lambda m, i: task(m, blocks[i]), len(blocks), models, write)
    return out


def predict_proba(model, x: np.ndarray) -> np.ndarray:
    """Anomaly probability per row, one forward pass per row block, asking
    for no gradient, so no kernel saves anything.  Raises
    FloatingPointError when a weight is not finite.

    Both models are row-independent, so the blocks (see
    :func:`_by_row_blocks`) give the same values as one pass over the whole
    batch, while activations are held for at most the model's ``ROW_BLOCK``
    rows at a time.
    """
    _check_weights(model.params)
    x = np.asarray(x, dtype=np.float64)
    return _by_row_blocks(model, np.empty(len(x)), lambda m, rows: m.forward(x[rows])[0])


# ---------------------------------------------------------------------------
# weight checkpoints: named tensor map with a versioned binary header

_MAGIC = b"FMWT"
_VERSION = 1


def weights_to_bytes(weights: dict[str, np.ndarray]) -> bytes:
    chunks = [_MAGIC, struct.pack("<II", _VERSION, len(weights))]
    for name in sorted(weights):
        arr = np.asarray(weights[name], dtype="<f8")  # keeps a 0-d shape; tobytes is C order
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    return b"".join(chunks)


def weights_from_bytes(blob: bytes) -> dict[str, np.ndarray]:
    """Decode a checkpoint; a malformed, truncated or padded blob raises ValueError."""
    if blob[:4] != _MAGIC:
        raise ValueError("not a weight checkpoint (bad magic)")
    view = memoryview(blob)  # slices without copying
    offset = 4

    def take(size: int, what: str) -> memoryview:
        nonlocal offset
        if offset + size > len(blob):
            raise ValueError(f"truncated weight checkpoint: {what} needs {size} bytes "
                             f"at offset {offset}, only {len(blob) - offset} remain")
        chunk = view[offset:offset + size]
        offset += size
        return chunk

    version, count = struct.unpack("<II", take(8, "header"))
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"tensor {i} name length"))
        try:
            name = bytes(take(name_len, f"tensor {i} name")).decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"corrupt weight checkpoint: tensor {i} name is not UTF-8") from None
        if name in out:
            raise ValueError(f"corrupt weight checkpoint: duplicate tensor {name!r}")
        (ndim,) = struct.unpack("<B", take(1, f"tensor {name!r} rank"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"tensor {name!r} shape"))
        values = take(8 * math.prod(shape), f"tensor {name!r} values")
        out[name] = np.frombuffer(values, dtype="<f8").reshape(shape).astype(np.float64)
    if offset != len(blob):
        raise ValueError(f"corrupt weight checkpoint: {len(blob) - offset} trailing bytes "
                         f"after the last of {count} tensors")
    return out


def save_weights(weights: dict[str, np.ndarray], path) -> None:
    with open(path, "wb") as fh:
        fh.write(weights_to_bytes(weights))


def load_weights(path) -> dict[str, np.ndarray]:
    """Read a checkpoint file; a malformed one, or one that holds a NaN or
    infinite value, raises ValueError naming what is wrong."""
    with open(path, "rb") as fh:
        weights = weights_from_bytes(fh.read())
    for name, arr in weights.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"corrupt weight checkpoint: tensor {name!r} holds a "
                             f"non-finite value")
    return weights
