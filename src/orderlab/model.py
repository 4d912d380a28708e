"""Miniature transformer cross-encoder with switchable position information.

BERT-style post-layer-norm encoder: token + segment (+ optionally
learned position) embeddings, multi-head self-attention with padding
mask, GELU feed-forward, and a binary relevance classifier on the final
[CLS] state. With position_mode="none" the position table and every
position-index input are absent, so the forward pass is structurally
invariant to within-span reordering. There is no dropout: training and
scoring run the same pass. Two segments (query and passage) and the
initial weights' scale are module constants, not config fields.

Four passes, hand-written in numpy: `_encode` and `_encode_backward` for
the encoder, `_forward` and `_backward` for the [CLS] classifier on top.
Unless hidden states are captured, the encoder's last layer keeps rows 0
and 1 (see `_forward`). The logits and loss are the full pass's bytes;
the gradients agree to rounding, as some two-row products go to other
BLAS kernels. `train.grad_check` checks `loss_and_grads` against central
finite differences.

A model runs in its weights' dtype (`Model.dtype`): `init` and `load`
give float32, and `train.grad_check` casts a float64 copy. The kernels
are float32-native: in float32 GELU's erf is a rational within 1e-6 of
erf, while float64 takes the standard library's `math.erf`, exact for the
gradient check; row sums are one einsum and the softmax row max is exact
(see numerics).
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, asdict
from itertools import chain

import numpy as np

from .tokenizer import MIN_MAX_LEN, TokenizedPair, PAD_ID, SEP_ID

LN_EPS = 1e-12
N_SEGMENTS = 2  # query and passage
INIT_SCALE = 0.02  # sd of the initial weights; no config sets it
_MAGIC = b"ORDERLAB-CKPT\n"
_VERSION = 3
POSITION_MODES = ("learned", "none")


@dataclass
class ModelConfig:
    n_layers: int = 2
    n_heads: int = 2
    hidden: int = 32
    ff_dim: int = 64
    vocab_size: int = 1000
    max_len: int = 64
    position_mode: str = "learned"  # one of POSITION_MODES

    def validate(self):
        # sizes first: a checkpoint header may hold any JSON value
        for name in ("n_layers", "n_heads", "hidden", "ff_dim", "vocab_size", "max_len"):
            value = getattr(self, name)
            if type(value) is not int or value <= 0:  # a JSON true is no size
                raise ValueError(f"{name} must be a positive integer")
        if self.max_len < MIN_MAX_LEN:
            raise ValueError(f"max_len must be >= {MIN_MAX_LEN}")
        if self.hidden % self.n_heads != 0:
            raise ValueError("hidden must be divisible by n_heads")
        if self.position_mode not in POSITION_MODES:
            raise ValueError(f"unknown position_mode {self.position_mode!r}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.n_heads


@dataclass
class Model:
    config: ModelConfig
    params: dict[str, np.ndarray]

    @property
    def dtype(self):  # the weights' dtype, in which every pass runs
        return self.params["tok_emb"].dtype


@dataclass
class ForwardOutput:
    logits: np.ndarray            # [B, 2]
    relevance_prob: np.ndarray    # [B], softmax(logits)[:, 1]
    activations: list[np.ndarray] | None = None  # L+1 arrays [B, T, d]


def _param_shapes(cfg: ModelConfig) -> dict[str, tuple]:
    d, ff = cfg.hidden, cfg.ff_dim
    shapes = {
        "tok_emb": (cfg.vocab_size, d),
        "seg_emb": (N_SEGMENTS, d),
        "emb_ln_g": (d,),
        "emb_ln_b": (d,),
        "cls_W": (d, 2),
        "cls_b": (2,),
    }
    if cfg.position_mode == "learned":
        shapes["pos_emb"] = (cfg.max_len, d)
    for l in range(cfg.n_layers):
        p = f"layer{l}."
        shapes.update({
            p + "Wq": (d, d), p + "bq": (d,),
            p + "Wk": (d, d), p + "bk": (d,),
            p + "Wv": (d, d), p + "bv": (d,),
            p + "Wo": (d, d), p + "bo": (d,),
            p + "ln1_g": (d,), p + "ln1_b": (d,),
            p + "W1": (d, ff), p + "b1": (ff,),
            p + "W2": (ff, d), p + "b2": (d,),
            p + "ln2_g": (d,), p + "ln2_b": (d,),
        })
    return shapes


def init(cfg: ModelConfig, seed: int) -> Model:
    """Deterministic init: scaled-normal weights, zero biases, unit LN gains."""
    cfg.validate()
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in _param_shapes(cfg).items():
        if name.endswith("_g"):
            arr = np.ones(shape)
        elif len(shape) == 1:
            arr = np.zeros(shape)
        elif name == "pos_emb":
            # position embeddings start an order of magnitude smaller than
            # token embeddings: token identity then dominates the early
            # input geometry and positional structure is grown by the
            # optimizer only where the task rewards it
            arr = rng.normal(0.0, INIT_SCALE * 0.1, size=shape)
        else:
            arr = rng.normal(0.0, INIT_SCALE, size=shape)
        params[name] = arr.astype(np.float32)
    return Model(cfg, params)


# ---------------------------------------------------------------------------
# batch assembly


def pad_batch(pairs: list[TokenizedPair]):
    """Stack pairs into ids/segments/mask arrays padded with [PAD].

    Row i holds pair i's ids in its first `len(ids)` columns, then
    [PAD]; the boolean mask is True over those columns. One
    masked assignment fills every row: a boolean mask visits its cells
    row by row, the order in which the pairs' ids are chained. Segments
    follow the BERT convention: columns up to and including a row's
    first [SEP] get segment 0, the rest of the pair segment 1, and
    padding segment 0.
    """
    lengths = np.fromiter((len(p.ids) for p in pairs), dtype=np.int64, count=len(pairs))
    cols = np.arange(lengths.max())
    real = cols < lengths[:, None]
    ids = np.full(real.shape, PAD_ID, dtype=np.int64)
    ids[real] = np.fromiter(chain.from_iterable(p.ids for p in pairs), dtype=np.int64,
                            count=int(lengths.sum()))
    first_sep = (ids == SEP_ID).argmax(axis=1)
    segs = ((cols > first_sep[:, None]) & real).astype(np.int64)
    return ids, segs, real


# ---------------------------------------------------------------------------
# numerics


# The helpers below and the hot lines of `_encode`/`_encode_backward` write
# into arrays they have just allocated (`out=`, `+=`, `*=`) instead of making
# a fresh temporary per operator. Each keeps the operand order of a plain
# one-line expression (tests/test_model.py holds those as references), so
# every result is that expression's bytes; none writes to an array it was
# given. The kernels are cheap in float32 too:
# - `gelu_cdf2` evaluates erf as a float32 rational in float32 (within 1e-6
#   of 1 + erf in float64) and takes `math.erf` element by element in
#   float64, where the gradient check needs it exact;
# - every sum along the last axis is `_rowsum`, one einsum whose SIMD sum
#   groups a row's elements the same way at any address, so runs repeat;
# - softmax takes its row max from a key-major copy; a max is exact in any
#   order, so that moves no byte.

# float32 erf(c) = c * P(c^2) / Q(c^2) on [-4, 4], outside which erf rounds
# to +-1: Eigen's and XLA's coefficients, highest power first
_ERF_P = np.array([-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                   -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                   -1.60960333262415e-02], dtype=np.float32)
_ERF_Q = np.array([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                   -7.37332916720468e-03, -1.42647390514189e-02], dtype=np.float32)


def _horner(coeffs, x2):
    """coeffs[0] * x2^n + ... + coeffs[n], in its own array."""
    y = np.multiply(x2, coeffs[0])
    for a in coeffs[1:-1]:
        y += a
        y *= x2
    y += coeffs[-1]
    return y


# float64 erf: `math.erf` of each element
_erf64 = np.vectorize(math.erf, otypes=[np.float64])


def gelu_cdf2(x):
    """1 + erf(x / sqrt 2): twice the standard normal CDF, GELU's gate."""
    # exact (erf-based) GELU; a tanh approximation is not accurate enough
    # for 1e-4 finite-difference gradient checks
    c = x / np.asarray(math.sqrt(2.0), dtype=x.dtype)
    if x.dtype != np.float32:
        c = _erf64(c)
        c += 1.0
        return c
    np.clip(c, -4.0, 4.0, out=c)
    x2 = c * c
    y = _horner(_ERF_P, x2)
    y *= c
    y /= _horner(_ERF_Q, x2)
    y += 1.0
    return y


def gelu(x, cdf2):
    """GELU, given its gate `cdf2 = gelu_cdf2(x)`."""
    y = np.multiply(x, 0.5)
    y *= cdf2
    return y


def gelu_grad(x, cdf2):
    # 0.5 * cdf2 + x * phi(x)
    phi = np.multiply(x, -0.5)
    phi *= x
    np.exp(phi, out=phi)
    phi /= math.sqrt(2.0 * math.pi)
    phi *= x
    phi += np.multiply(cdf2, 0.5)
    return phi


def _rowsum(x):
    """The sum of each row along the last axis, keeping that axis (size 1)."""
    return np.einsum("...j->...", x)[..., None]


def layer_norm_fwd(x, g, b):
    d = x.shape[-1]
    mu = _rowsum(x)
    mu /= d
    xc = x - mu
    sq = xc * xc
    var = _rowsum(sq)
    # var = sum / d; inv = 1 / sqrt(var + eps); xhat = xc * inv; y = g * xhat + b
    var /= d
    var += LN_EPS
    inv = np.sqrt(var, out=var)
    np.divide(1.0, inv, out=inv)
    xhat = xc
    xhat *= inv
    y = np.multiply(xhat, g, out=sq)
    y += b
    return y, (xhat, inv, g)


def layer_norm_bwd(dy, cache):
    xhat, inv, g = cache
    d = dy.shape[-1]
    axes = tuple(range(dy.ndim - 1))
    t = dy * xhat
    dg = t.sum(axis=axes)
    db = dy.sum(axis=axes)
    dxhat = dy * g
    m1 = _rowsum(dxhat)
    m1 /= d
    np.multiply(dxhat, xhat, out=t)
    m2 = _rowsum(t)
    m2 /= d
    # dx = inv * (dxhat - m1 - xhat * m2)
    np.multiply(xhat, m2, out=t)
    dx = dxhat
    dx -= m1
    dx -= t
    dx *= inv
    return dx, dg, db


def softmax(x):
    """Softmax along the last axis."""
    # the row max of a key-major copy: one elementwise max per key
    # instead of one short reduction per row
    m = np.ascontiguousarray(np.moveaxis(x, -1, 0)).max(axis=0)
    e = x - m[..., None]
    np.exp(e, out=e)
    e /= _rowsum(e)
    return e


def scatter_rows(ids, values, n_rows):
    """Sum `values` [..., d] into an [n_rows, d] array at rows `ids` [...].

    The same bytes as `np.add.at` into zeros in float64: `np.bincount`
    over `id * d + column` keys adds each key's values in index order,
    as `np.add.at` does. `np.bincount` sums in float64, so a float32
    result is float64 sums rounded once.
    """
    d = values.shape[-1]
    keys = ids[..., None] * d + np.arange(d)
    sums = np.bincount(keys.ravel(), weights=values.ravel(), minlength=n_rows * d)
    return sums.reshape(n_rows, d).astype(values.dtype, copy=False)


# ---------------------------------------------------------------------------
# forward / backward


def _split_heads(x, n_heads):
    B, T, d = x.shape
    return x.reshape(B, T, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    B, H, T, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, T, H * dh)


def _encode(model: Model, ids, segs, mask, rows=None):
    """Run the encoder; returns its tape of each layer's cache (`h_in` is
    its input) and the output `h_final`. The last layer keeps the first
    `rows` rows past its keys and values, or every row if `rows` is None."""
    cfg = model.config
    P = model.params
    T = ids.shape[1]
    if T > cfg.max_len:
        raise ValueError(f"sequence length {T} exceeds max_len {cfg.max_len}")
    if ids.max() >= cfg.vocab_size or ids.min() < 0:
        raise ValueError("token id out of range")

    tape: dict = {"ids": ids, "segs": segs, "layers": []}

    emb = np.take(P["tok_emb"], ids, axis=0)
    emb += np.take(P["seg_emb"], segs, axis=0)
    if cfg.position_mode == "learned":
        emb += P["pos_emb"][:T]
    h, tape["emb_ln"] = layer_norm_fwd(emb, P["emb_ln_g"], P["emb_ln_b"])

    # additive key mask: 0 where attendable, -inf where padded
    neg = np.where(mask[:, None, None, :], 0.0, -np.inf).astype(model.dtype)
    scale = 1.0 / math.sqrt(cfg.head_dim)

    for l in range(cfg.n_layers):
        p = f"layer{l}."
        hq = h if rows is None or l < cfg.n_layers - 1 else h[:, :rows].copy()
        q = hq @ P[p + "Wq"]
        q += P[p + "bq"]
        k = h @ P[p + "Wk"]
        k += P[p + "bk"]
        v = h @ P[p + "Wv"]
        v += P[p + "bv"]
        qh, kh, vh = (_split_heads(x, cfg.n_heads) for x in (q, k, v))
        scores = qh @ kh.transpose(0, 1, 3, 2)
        scores *= scale
        scores += neg
        A = softmax(scores)
        ctx = _merge_heads(A @ vh)
        attn = ctx @ P[p + "Wo"]
        attn += P[p + "bo"]
        attn += hq  # the residual; attn is this pass's own array
        h1, ln1_cache = layer_norm_fwd(attn, P[p + "ln1_g"], P[p + "ln1_b"])

        z = h1 @ P[p + "W1"]
        z += P[p + "b1"]
        cdf2 = gelu_cdf2(z)
        a = gelu(z, cdf2)
        ff = a @ P[p + "W2"]
        ff += P[p + "b2"]
        ff += h1
        h2, ln2_cache = layer_norm_fwd(ff, P[p + "ln2_g"], P[p + "ln2_b"])

        tape["layers"].append(dict(
            h_in=h, hq=hq, qh=qh, kh=kh, vh=vh, A=A, ctx=ctx, ln1=ln1_cache, h1=h1, z=z,
            cdf2=cdf2, a=a, ln2=ln2_cache))
        h = h2

    tape["h_final"] = h
    return tape


def _encode_backward(model: Model, tape, dh, grads):
    """Backpropagate `dh`, dloss/d`h_final`, through the encoder's tape;
    adds each encoder parameter's gradient into `grads` and returns it."""
    cfg = model.config
    P = model.params
    ids, segs = tape["ids"], tape["segs"]
    scale = 1.0 / math.sqrt(cfg.head_dim)

    for l in range(cfg.n_layers - 1, -1, -1):
        p = f"layer{l}."
        lt = tape["layers"][l]

        # a residual sum's gradient is its branch's and its residual's
        dff, dg2, db2 = layer_norm_bwd(dh, lt["ln2"])
        grads[p + "ln2_g"] += dg2
        grads[p + "ln2_b"] += db2
        a2d = lt["a"].reshape(-1, cfg.ff_dim)
        dff2d = dff.reshape(-1, cfg.hidden)
        grads[p + "W2"] += a2d.T @ dff2d
        grads[p + "b2"] += dff2d.sum(axis=0)
        dz = dff @ P[p + "W2"].T
        dz *= gelu_grad(lt["z"], lt["cdf2"])
        h12d = lt["h1"].reshape(-1, cfg.hidden)
        dz2d = dz.reshape(-1, cfg.ff_dim)
        grads[p + "W1"] += h12d.T @ dz2d
        grads[p + "b1"] += dz2d.sum(axis=0)
        # dff is read for the last time above, so it can take dh1's sum
        dh1 = dff
        dh1 += dz @ P[p + "W1"].T

        dattn, dg1, db1 = layer_norm_bwd(dh1, lt["ln1"])
        grads[p + "ln1_g"] += dg1
        grads[p + "ln1_b"] += db1
        # the layer's input has every row; its output, dattn and dq may
        # have only the first rows (the last layer of a pruned pass)
        h_in, hq = lt["h_in"], lt["hq"]
        dh_in = np.zeros_like(h_in)
        dh_in[:, :hq.shape[1]] = dattn
        ctx2d = lt["ctx"].reshape(-1, cfg.hidden)
        dattn2d = dattn.reshape(-1, cfg.hidden)
        grads[p + "Wo"] += ctx2d.T @ dattn2d
        grads[p + "bo"] += dattn2d.sum(axis=0)
        dctx = _split_heads(dattn @ P[p + "Wo"].T, cfg.n_heads)

        A = lt["A"]
        dA = dctx @ lt["vh"].transpose(0, 1, 3, 2)
        dvh = A.transpose(0, 1, 3, 2) @ dctx
        # dscores = A * (dA - (dA * A).sum(-1)), in dA's own array
        dscores = dA
        dscores -= _rowsum(dA * A)
        dscores *= A
        dqh = dscores @ lt["kh"]
        dqh *= scale
        dkh = dscores.transpose(0, 1, 3, 2) @ lt["qh"]
        dkh *= scale

        dq = _merge_heads(dqh)
        dk = _merge_heads(dkh)
        dv = _merge_heads(dvh)
        for W, b, x, dx in ((p + "Wq", p + "bq", hq, dq), (p + "Wk", p + "bk", h_in, dk),
                            (p + "Wv", p + "bv", h_in, dv)):
            dx2d = dx.reshape(-1, cfg.hidden)
            grads[W] += x.reshape(-1, cfg.hidden).T @ dx2d
            grads[b] += dx2d.sum(axis=0)
            dh_in[:, :dx.shape[1]] += dx @ P[W].T

        dh = dh_in

    demb, dg, db = layer_norm_bwd(dh, tape["emb_ln"])
    grads["emb_ln_g"] += dg
    grads["emb_ln_b"] += db

    grads["tok_emb"] += scatter_rows(ids, demb, cfg.vocab_size)
    grads["seg_emb"] += scatter_rows(segs, demb, N_SEGMENTS)
    if cfg.position_mode == "learned":
        grads["pos_emb"][:ids.shape[1]] += demb.sum(axis=0)
    return grads


def _forward(model: Model, ids, segs, mask, capture=False):
    """The [CLS] classifier on the encoder: (logits, activations, tape).

    With `capture` the encoder keeps every row and the activations are
    each layer's input, then the last output; else they are None and the
    last layer keeps rows 0 and 1. Not row 0 alone: numpy sends a one-row
    product to gemv, which rounds differently from the full pass's gemm."""
    tape = _encode(model, ids, segs, mask, rows=None if capture else 2)
    h = tape["h_final"]
    logits = h[:, 0, :] @ model.params["cls_W"] + model.params["cls_b"]
    acts = [lt["h_in"] for lt in tape["layers"]] + [h] if capture else None
    return logits, acts, tape


def _backward(model: Model, tape, dlogits, grads=None):
    """Backpropagate dloss/dlogits through the classifier and the encoder;
    returns the gradients, in `grads` (zeroed first) if given."""
    if grads is None:
        grads = {name: np.zeros_like(p) for name, p in model.params.items()}
    else:
        for g in grads.values():
            g.fill(0.0)
    h = tape["h_final"]
    grads["cls_W"] += h[:, 0, :].T @ dlogits
    grads["cls_b"] += dlogits.sum(axis=0)
    dh = np.zeros_like(h)
    dh[:, 0, :] = dlogits @ model.params["cls_W"].T
    return _encode_backward(model, tape, dh, grads)


# ---------------------------------------------------------------------------
# public entry points


def forward(model: Model, pairs: list[TokenizedPair], capture=False) -> ForwardOutput:
    """Score a batch; `capture=True` records all per-layer hidden states."""
    ids, segs, mask = pad_batch(pairs)
    logits, acts, _ = _forward(model, ids, segs, mask, capture=capture)
    return ForwardOutput(logits=logits, relevance_prob=softmax(logits)[:, 1],
                         activations=acts)


def loss_and_grads(model: Model, pairs: list[TokenizedPair], labels, grads=None):
    """Mean cross-entropy over the batch and gradients for every parameter.

    `grads`, if given, maps each parameter name to an array of its shape;
    the gradients are written there and that dict is returned.
    """
    ids, segs, mask = pad_batch(pairs)
    logits, _, tape = _forward(model, ids, segs, mask)
    B = logits.shape[0]
    probs = softmax(logits)
    y = np.asarray(labels, dtype=np.int64)
    # floored at the dtype's smallest normal, so an underflow gives a finite loss
    tiny = np.finfo(probs.dtype).tiny
    loss = float(-np.log(np.clip(probs[np.arange(B), y], tiny, None)).mean())
    dlogits = probs.copy()
    dlogits[np.arange(B), y] -= 1.0
    dlogits /= B
    grads = _backward(model, tape, dlogits, grads)
    return loss, grads


# ---------------------------------------------------------------------------
# checkpoint format: magic, version, config JSON, named little-endian arrays


def save(model: Model, path):
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        cfg_blob = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
        f.write(struct.pack("<Q", len(cfg_blob)))
        f.write(cfg_blob)
        f.write(struct.pack("<I", len(model.params)))
        for name in sorted(model.params):
            arr = model.params[name]
            name_b = name.encode("utf-8")
            f.write(struct.pack("<H", len(name_b)))
            f.write(name_b)
            f.write(b"f4")
            f.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                f.write(struct.pack("<Q", dim))
            f.write(arr.astype("<f4").tobytes())


def _read(f, n: int, what: str) -> bytes:
    # checked before the read: a corrupt length would otherwise allocate n bytes
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise ValueError(f"truncated checkpoint: {what} needs {n} bytes, {left} left")
    return f.read(n)


def load(path) -> Model:
    with open(path, "rb") as f:
        if f.read(len(_MAGIC)) != _MAGIC:
            raise ValueError("not an orderlab checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read(f, 4, "version"))
        if version != _VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (cfg_len,) = struct.unpack("<Q", _read(f, 8, "config length"))
        header = json.loads(_read(f, cfg_len, "config").decode("utf-8"))
        try:
            cfg = ModelConfig(**header)
        except TypeError as exc:
            # an unknown key or a header that is not a JSON object
            raise ValueError(f"checkpoint config is not a ModelConfig: {exc}") from None
        cfg.validate()
        (n_params,) = struct.unpack("<I", _read(f, 4, "parameter count"))
        params = {}
        for _ in range(n_params):
            (name_len,) = struct.unpack("<H", _read(f, 2, "parameter name length"))
            name = _read(f, name_len, "parameter name").decode("utf-8")
            dtype_code = _read(f, 2, f"{name} dtype")
            if dtype_code != b"f4":
                raise ValueError(f"checkpoint array {name} has dtype {dtype_code!r}, not f4")
            (ndim,) = struct.unpack("<B", _read(f, 1, f"{name} rank"))
            shape = tuple(struct.unpack("<Q", _read(f, 8, f"{name} shape"))[0]
                          for _ in range(ndim))
            data = np.frombuffer(_read(f, math.prod(shape) * 4, f"{name} data"), dtype="<f4")
            params[name] = data.reshape(shape).astype(np.float32)
    expected = _param_shapes(cfg)
    if set(params) != set(expected):
        raise ValueError("checkpoint parameter names do not match config")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise ValueError(f"shape mismatch for {name}: {params[name].shape} vs {shape}")
    return Model(cfg, params)
