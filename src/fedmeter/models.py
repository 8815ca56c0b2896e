"""Differentiable binary anomaly classifiers over 24-step load profiles.

Two architectures: a single-layer LSTM (100 units) and a 5-block Transformer
encoder (width 160, 8 heads of 20, FFN 128, dense head 256), both ending in a
sigmoid unit that outputs the anomaly probability.  Training uses binary
focal loss and RMSprop with a step learning-rate schedule.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .seeding import rng_for

SEQ_LEN = 24
LSTM_HIDDEN = 100
NUM_BLOCKS = 5
D_MODEL = 160
NUM_HEADS = 8
HEAD_DIM = D_MODEL // NUM_HEADS
FFN_HIDDEN = 128
DENSE_HIDDEN = 256


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    base_lr: float = 0.01
    lr_milestones: tuple[int, ...] = (50, 70, 90)
    lr_decay: float = 0.1
    rho: float = 0.9            # RMSprop mean-square decay
    eps_opt: float = 1e-7
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    seed: int = 0


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for a 1-indexed global epoch under the step schedule."""
    passed = sum(1 for m in cfg.lr_milestones if epoch >= m)
    return cfg.base_lr * cfg.lr_decay ** passed


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _wrap_batch(x) -> Tensor:
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    if t.ndim != 2 or t.shape[1] != SEQ_LEN:
        raise ad.ShapeError(f"expected a batch of {SEQ_LEN}-step profiles, got shape {t.shape}")
    return t


def lstm_sequence(x: Tensor, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """Full LSTM recurrence over the sequence as one fused tape primitive.

    Runs backpropagation-through-time by hand instead of composing ~400
    elementary tape nodes; the analytic gradients are pinned against the
    finite-difference oracle in the test suite.  Gate order inside the fused
    kernels: input, forget, candidate, output.  Returns the final hidden
    state [batch, hidden], with the hidden size read from ``wh``.

    Like every primitive, it reads ``requires_grad`` when it records: the
    backward rule returns None for inputs that need no gradient and skips
    their work.  With frozen weights it forms neither ``d_wx``, ``d_wh`` nor
    ``d_b`` and does not save the hidden states they read.
    """
    x_np, wx_np, wh_np, b_np = x.data, wx.data, wh.data, b.data
    batch, steps = x_np.shape
    h_size = wh_np.shape[0]
    need_x, need_wx = x.requires_grad, wx.requires_grad
    need_wh, need_b = wh.requires_grad, b.requires_grad

    zx = (x_np.reshape(batch * steps, 1) @ wx_np).reshape(batch, steps, 4 * h_size)
    h = np.zeros((batch, h_size))
    c = np.zeros((batch, h_size))
    saved = []
    for t in range(steps):
        z = zx[:, t, :] + h @ wh_np + b_np
        gi = ad._sigmoid_np(z[:, :h_size])
        gf = ad._sigmoid_np(z[:, h_size:2 * h_size])
        gg = np.tanh(z[:, 2 * h_size:3 * h_size])
        go = ad._sigmoid_np(z[:, 3 * h_size:])
        c_prev, h_prev = c, h
        c = gf * c_prev + gi * gg
        tc = np.tanh(c)
        h = go * tc
        saved.append((gi, gf, gg, go, c_prev, tc, h_prev if need_wh else None))

    def bw(grad_h):
        d_wh = np.zeros_like(wh_np) if need_wh else None
        d_b = np.zeros_like(b_np) if need_b else None
        d_zx = np.empty((batch, steps, 4 * h_size))
        dh = grad_h
        dc = np.zeros((batch, h_size))
        for t in range(steps - 1, -1, -1):
            gi, gf, gg, go, c_prev, tc, h_prev = saved[t]
            do = dh * tc
            dc = dc + dh * go * (1.0 - tc * tc)
            dz = np.concatenate([
                dc * gg * gi * (1.0 - gi),
                dc * c_prev * gf * (1.0 - gf),
                dc * gi * (1.0 - gg * gg),
                do * go * (1.0 - go),
            ], axis=1)
            if need_wh:
                d_wh += h_prev.T @ dz
            if need_b:
                d_b += dz.sum(axis=0)
            d_zx[:, t, :] = dz
            dh = dz @ wh_np.T
            dc = dc * gf
        flat = d_zx.reshape(batch * steps, 4 * h_size)
        d_wx = x_np.reshape(batch * steps, 1).T @ flat if need_wx else None
        d_x = (flat @ wx_np.T).reshape(batch, steps) if need_x else None
        return d_x, d_wx, d_wh, d_b

    return ad.custom_op(h, (x, wx, wh, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for a 2-D or 3-D ``x`` as one fused tape primitive.

    A 3-D ``x`` is flattened so the product is one gemm.  The result and the
    gradients are bit-identical to ``add(matmul(x, w), b)``.  Saved for
    backward: ``x`` when ``w`` requires grad and ``w`` when ``x`` does;
    nothing for ``b``.
    """
    sx, sw, sb = x.shape, w.shape, b.shape
    if x.ndim not in (2, 3) or w.ndim != 2 or sx[-1] != sw[0] or sb != sw[1:]:
        raise ad.ShapeError(f"linear: shapes {sx}, {sw} and {sb} do not conform")
    x2 = x.data.reshape(-1, sw[0])
    out = x2 @ w.data
    out += b.data
    # each gradient of the product reads the other operand only
    x_saved = x2 if w.requires_grad else None
    w_saved = w.data if x.requires_grad else None
    need_b = b.requires_grad

    def bw(g):
        g2 = g.reshape(-1, sw[1])
        return (None if w_saved is None else (g2 @ w_saved.T).reshape(sx),
                None if x_saved is None else x_saved.T @ g2,
                ad._reduce_to(g, sb) if need_b else None)

    return ad.custom_op(out.reshape(sx[:-1] + sw[1:]), (x, w, b), bw)


def layer_norm(t: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalise over the last axis, then scale by ``gamma`` and shift by ``beta``.

    ``(t - mean) * (var + 1e-6) ** -0.5 * gamma + beta`` as one fused tape
    primitive.  The forward runs the numpy expressions of the composed
    version in the same order, and the backward replays that version's
    arithmetic step for step, so values and gradients are bit-identical to
    it.  Saved for backward, when ``t`` requires grad: ``centered`` (the
    shape of ``t``), ``inv`` and ``var + 1e-6`` (one value per row) and
    ``gamma``.  ``normed`` (the shape of ``t``) is saved only when ``gamma``
    requires grad.
    """
    x = t.data
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ad.ShapeError(f"layer_norm: gamma {gamma.shape} and beta {beta.shape} "
                            f"must both have shape ({d},)")
    need_t, need_gamma, need_beta = t.requires_grad, gamma.requires_grad, beta.requires_grad
    centered = x - x.mean(axis=-1, keepdims=True)
    ve = (centered * centered).mean(axis=-1, keepdims=True) + 1e-6
    inv = ve ** -0.5
    ad._check_finite("layer_norm", inv)
    normed = centered * inv
    # scale in place when backward does not read normed
    out = np.multiply(normed, gamma.data, out=None if need_gamma else normed)
    out += beta.data
    gd = gamma.data
    if not need_t:
        centered = inv = ve = gd = None
    if not need_gamma:
        normed = None

    def bw(g):
        d_t = None
        if need_t:
            # in place, in the composed tape's order: the gradient of normed,
            # of centered (mul, then both operands of centered * centered;
            # 2 * d_sq * centered would round differently), then of t
            d_t = g * gd
            d_inv = (d_t * centered).sum(axis=-1, keepdims=True)
            d_sq = d_inv * -0.5 * ve ** -1.5 / d
            d_t *= inv
            d_sq_c = d_sq * centered
            d_t += d_sq_c
            d_t += d_sq_c
            d_t += (-d_t).sum(axis=-1, keepdims=True) / d
        return (d_t,
                None if normed is None else ad._reduce_to(g * normed, (d,)),
                ad._reduce_to(g, (d,)) if need_beta else None)

    return ad.custom_op(out, (t, gamma, beta), bw)


class LstmClassifier:
    """Sequence-to-one LSTM: 24 scalar steps -> hidden state -> sigmoid unit."""

    name = "lstm"
    # A federated round trains its clients one after another.  Two client
    # threads made an fl_lstm_pgd round 20% shorter but raised its peak RSS
    # from 57 to 70 MB (+22%, 10 pairs in BENCH_9.json), beyond the
    # benchmark's 10% memory bound.
    concurrent_clients = False

    def __init__(self, seed: int = 0):
        rng = rng_for(seed, "init", "lstm")
        h = LSTM_HIDDEN
        self.params: dict[str, Tensor] = {
            "lstm.wx": Tensor(_glorot(rng, (1, 4 * h)), requires_grad=True),
            "lstm.wh": Tensor(_glorot(rng, (h, 4 * h)), requires_grad=True),
            "lstm.b": Tensor(np.zeros(4 * h), requires_grad=True),
            "head.w": Tensor(_glorot(rng, (h, 1)), requires_grad=True),
            "head.b": Tensor(np.zeros(1), requires_grad=True),
        }

    def forward(self, x) -> Tensor:
        xt = _wrap_batch(x)
        batch = xt.shape[0]
        p = self.params
        h = lstm_sequence(xt, p["lstm.wx"], p["lstm.wh"], p["lstm.b"])
        logits = linear(h, p["head.w"], p["head.b"])
        return ad.reshape(ad.sigmoid(logits), (batch,))

    def get_weights(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.params.items()}

    def set_weights(self, weights: dict[str, np.ndarray]) -> None:
        _assign_weights(self.params, weights)


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    pos = np.arange(length)[:, None]
    i = np.arange(dim // 2)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / dim)
    pe = np.zeros((length, dim))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


class TransformerClassifier:
    """Post-norm Transformer encoder over embedded hourly readings.

    Scalar readings are linearly embedded to the model width, summed with a
    fixed sinusoidal positional code, passed through the encoder blocks,
    averaged over time, and classified by a ReLU dense layer plus sigmoid unit.
    """

    name = "transformer"
    # A federated round trains its clients on several cores when BLAS runs
    # one thread per call: the time goes to gemms, which release the GIL.
    concurrent_clients = True

    def __init__(self, seed: int = 0):
        rng = rng_for(seed, "init", "transformer")
        d, ffn, dense = D_MODEL, FFN_HIDDEN, DENSE_HIDDEN
        params: dict[str, Tensor] = {
            "emb.w": Tensor(_glorot(rng, (1, d)), requires_grad=True),
            "emb.b": Tensor(np.zeros(d), requires_grad=True),
        }
        for k in range(NUM_BLOCKS):
            for proj in ("wq", "wk", "wv", "wo"):
                params[f"blk{k}.attn.{proj}"] = Tensor(_glorot(rng, (d, d)), requires_grad=True)
                params[f"blk{k}.attn.{proj[1]}b"] = Tensor(np.zeros(d), requires_grad=True)
            params[f"blk{k}.ln1.gamma"] = Tensor(np.ones(d), requires_grad=True)
            params[f"blk{k}.ln1.beta"] = Tensor(np.zeros(d), requires_grad=True)
            params[f"blk{k}.ffn.w1"] = Tensor(_glorot(rng, (d, ffn)), requires_grad=True)
            params[f"blk{k}.ffn.b1"] = Tensor(np.zeros(ffn), requires_grad=True)
            params[f"blk{k}.ffn.w2"] = Tensor(_glorot(rng, (ffn, d)), requires_grad=True)
            params[f"blk{k}.ffn.b2"] = Tensor(np.zeros(d), requires_grad=True)
            params[f"blk{k}.ln2.gamma"] = Tensor(np.ones(d), requires_grad=True)
            params[f"blk{k}.ln2.beta"] = Tensor(np.zeros(d), requires_grad=True)
        params["head.dense.w"] = Tensor(_glorot(rng, (d, dense)), requires_grad=True)
        params["head.dense.b"] = Tensor(np.zeros(dense), requires_grad=True)
        params["head.out.w"] = Tensor(_glorot(rng, (dense, 1)), requires_grad=True)
        params["head.out.b"] = Tensor(np.zeros(1), requires_grad=True)
        self.params = params
        self.pos_encoding = sinusoidal_positions(SEQ_LEN, d)

    def _attention(self, h: Tensor, k: int) -> Tensor:
        p = self.params
        batch = h.shape[0]
        nh, hd, d = NUM_HEADS, HEAD_DIM, D_MODEL

        def heads(t: Tensor) -> Tensor:
            t = ad.reshape(t, (batch, SEQ_LEN, nh, hd))
            return ad.reshape(ad.transpose(t, (0, 2, 1, 3)), (batch * nh, SEQ_LEN, hd))

        q = heads(linear(h, p[f"blk{k}.attn.wq"], p[f"blk{k}.attn.qb"]))
        key = heads(linear(h, p[f"blk{k}.attn.wk"], p[f"blk{k}.attn.kb"]))
        v = heads(linear(h, p[f"blk{k}.attn.wv"], p[f"blk{k}.attn.vb"]))
        scores = ad.mul(ad.matmul(q, ad.transpose(key, (0, 2, 1))), Tensor(1.0 / np.sqrt(hd)))
        weights = ad.softmax(scores, axis=-1)
        ctx = ad.matmul(weights, v)
        ctx = ad.reshape(ctx, (batch, nh, SEQ_LEN, hd))
        merged = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (batch, SEQ_LEN, d))
        return linear(merged, p[f"blk{k}.attn.wo"], p[f"blk{k}.attn.ob"])

    def forward(self, x) -> Tensor:
        xt = _wrap_batch(x)
        batch = xt.shape[0]
        p = self.params
        d = D_MODEL

        flat = ad.reshape(xt, (batch * SEQ_LEN, 1))
        emb = linear(flat, p["emb.w"], p["emb.b"])
        # conventional sqrt(d) embedding scale, so the reading is not drowned
        # out by the unit-magnitude positional code
        emb = ad.mul(emb, Tensor(np.sqrt(float(d))))
        h = ad.add(ad.reshape(emb, (batch, SEQ_LEN, d)), Tensor(self.pos_encoding))
        for k in range(NUM_BLOCKS):
            attn = self._attention(h, k)
            h = layer_norm(ad.add(h, attn), p[f"blk{k}.ln1.gamma"], p[f"blk{k}.ln1.beta"])
            ff = ad.relu(linear(h, p[f"blk{k}.ffn.w1"], p[f"blk{k}.ffn.b1"]))
            ff = linear(ff, p[f"blk{k}.ffn.w2"], p[f"blk{k}.ffn.b2"])
            h = layer_norm(ad.add(h, ff), p[f"blk{k}.ln2.gamma"], p[f"blk{k}.ln2.beta"])
        pooled = ad.mean(h, axis=1)
        dense = ad.relu(linear(pooled, p["head.dense.w"], p["head.dense.b"]))
        logits = linear(dense, p["head.out.w"], p["head.out.b"])
        return ad.reshape(ad.sigmoid(logits), (batch,))

    def get_weights(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.params.items()}

    def set_weights(self, weights: dict[str, np.ndarray]) -> None:
        _assign_weights(self.params, weights)


MODEL_FACTORIES = {
    "lstm": LstmClassifier,
    "transformer": TransformerClassifier,
}


def make_model(name: str, seed: int = 0):
    try:
        return MODEL_FACTORIES[name](seed=seed)
    except KeyError:
        raise ValueError(f"unknown model {name!r}; choose from {sorted(MODEL_FACTORIES)}") from None


def _assign_weights(params: dict[str, Tensor], weights: dict[str, np.ndarray]) -> None:
    if set(params) != set(weights):
        missing = sorted(set(params) ^ set(weights))
        raise ValueError(f"weight map names do not match the model: {missing}")
    for name, tensor in params.items():
        arr = np.asarray(weights[name], dtype=np.float64)
        if arr.shape != tensor.data.shape:
            raise ValueError(f"weight {name}: shape {arr.shape} != expected {tensor.data.shape}")
        tensor.data = arr.copy()
        tensor.grad = None


# ---------------------------------------------------------------------------
# loss, optimizer, training

_P_EPS = 1e-12


def focal_loss(p: Tensor, y: np.ndarray, alpha: float = 0.25,
               gamma: float = 2.0) -> Tensor:
    """Mean binary focal loss -alpha_t * (1 - p_t)^gamma * log(p_t).

    ``p_t`` is the probability assigned to the true class and ``alpha_t`` is
    ``alpha`` for positives, ``1 - alpha`` for negatives.  Probabilities are
    clamped 1e-12 away from the 0/1 boundary before the log.
    """
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise ad.ShapeError(f"focal loss: probabilities {p.shape} vs labels {y.shape}")
    if np.any((y != 0.0) & (y != 1.0)):
        raise ValueError("focal loss labels must be 0 or 1")
    if np.any(p.data < 0.0) or np.any(p.data > 1.0):
        raise ValueError("focal loss probabilities must lie in [0, 1]")
    yt = Tensor(y)
    pt = ad.add(ad.mul(p, yt), ad.mul(ad.sub(Tensor(1.0), p), Tensor(1.0 - y)))
    pt = ad.clip(pt, _P_EPS, 1.0 - _P_EPS)
    alpha_t = Tensor(alpha * y + (1.0 - alpha) * (1.0 - y))
    weight = ad.mul(alpha_t, ad.power(ad.sub(Tensor(1.0), pt), gamma))
    return ad.mean(ad.mul(Tensor(-1.0), ad.mul(weight, ad.log(pt))))


class RmsProp:
    """Per-parameter mean-square accumulator: v <- rho v + (1-rho) g^2."""

    def __init__(self, rho: float = 0.9, eps: float = 1e-7):
        self.rho = rho
        self.eps = eps
        self.state: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor], lr: float) -> None:
        for name, p in params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ValueError(f"{name}: gradient shape {g.shape} != parameter "
                                 f"shape {p.data.shape}")
            v = self.state.get(name)
            if v is None:
                v = np.zeros_like(p.data)
                self.state[name] = v
            v *= self.rho
            v += (1.0 - self.rho) * g * g
            p.data -= lr * g / (np.sqrt(v) + self.eps)


class NumericError(RuntimeError):
    """Training produced a non-finite loss."""


def train_local(model, x: np.ndarray, y: np.ndarray, cfg: TrainConfig, *,
                seed: int | None = None, epochs: int | None = None,
                epoch_offset: int = 0, optimizer: RmsProp | None = None) -> list[float]:
    """Mini-batch training; returns the mean loss of each epoch.

    ``epoch_offset`` shifts the learning-rate schedule so federated rounds
    advance the same global schedule as centralized epochs.  The model is
    trained in place, so a model instance belongs to one thread at a time.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    seed = cfg.seed if seed is None else seed
    epochs = cfg.epochs if epochs is None else epochs
    opt = optimizer if optimizer is not None else RmsProp(cfg.rho, cfg.eps_opt)
    history = []
    for local_epoch in range(1, epochs + 1):
        global_epoch = epoch_offset + local_epoch
        lr = lr_at_epoch(cfg, global_epoch)
        perm = rng_for(seed, "shuffle", global_epoch).permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            probs = model.forward(x[idx])
            loss = focal_loss(probs, y[idx], cfg.focal_alpha, cfg.focal_gamma)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(f"non-finite loss at epoch {global_epoch}")
            for p in model.params.values():
                p.grad = None
            ad.backward(loss)
            opt.step(model.params, lr)
            batch_losses.append(value)
        history.append(float(np.mean(batch_losses)))
    return history


def input_gradient(model, x: np.ndarray, y: np.ndarray, alpha: float = 0.25,
                   gamma: float = 2.0) -> np.ndarray:
    """Gradient of the focal loss w.r.t. the input batch; weights untouched.

    The weights' ``requires_grad`` flags are switched off for the call, so a
    model instance belongs to one thread at a time.
    """
    x = np.asarray(x, dtype=np.float64)
    flags = {name: p.requires_grad for name, p in model.params.items()}
    for p in model.params.values():
        p.requires_grad = False
    try:
        xt = Tensor(x, requires_grad=True)
        loss = focal_loss(model.forward(xt), y, alpha, gamma)
        ad.backward(loss)
    finally:
        for name, p in model.params.items():
            p.requires_grad = flags[name]
    return xt.grad if xt.grad is not None else np.zeros_like(x)


# Attacks and inference push at most this many rows through one forward pass,
# so their activation memory is bounded by the block, not by the batch.  A
# 64-row block's working set also fits a 2 MB L2 cache.
ROW_BLOCK = 64
# Block edges fall on multiples of this many rows.  The BLAS matrix-vector
# kernel behind the sigmoid heads works through rows in small groups and
# rounds the rows left over at the end of a call differently, so a block that
# ends off the grid would change the last bits of its final rows.
_ROW_ALIGN = 16


def row_blocks(n: int) -> list[slice]:
    """Consecutive slices of at most ``ROW_BLOCK`` rows that cover ``range(n)``.

    Blocks are near-equal in whole ``_ROW_ALIGN``-row units, and only the last
    block can end off that grid, where a whole-batch call ends too.  So every
    row is computed exactly as in one call over ``n`` rows, no block is a
    small remainder (each has at least half the rows of the largest), and any
    ``n <= ROW_BLOCK`` is one block, the whole batch.
    """
    count = -(-n // ROW_BLOCK)
    units = -(-n // _ROW_ALIGN)
    edges = [0] + [min(n, _ROW_ALIGN * (units * i // count)) for i in range(1, count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def predict_proba(model, x: np.ndarray) -> np.ndarray:
    """Anomaly probability per row, one no-grad forward pass per row block.

    Both models are row-independent, so the blocks (see :func:`row_blocks`)
    give the same values as one pass over the whole batch, while activations
    are held for at most ``ROW_BLOCK`` rows at a time.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(len(x))
    with ad.no_grad():
        for block in row_blocks(len(x)):
            out[block] = model.forward(x[block]).data
    return out


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
    with open(path, "rb") as fh:
        return weights_from_bytes(fh.read())
