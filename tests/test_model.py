import math

import numpy as np
import pytest

from orderlab import model as M
from orderlab import perturb
from orderlab.model import Model, ModelConfig, forward, init
from orderlab.tokenizer import CLS_ID, RESERVED, SEP_ID, TokenizedPair, Vocab, encode_pair


def small_cfg(**kw):
    base = dict(n_layers=2, n_heads=2, hidden=16, ff_dim=32, vocab_size=50,
                max_len=32)
    base.update(kw)
    return ModelConfig(**base)


def cast(mdl, bits):
    """`mdl` with its weights cast to float`bits`, as `train.grad_check` casts them."""
    return Model(mdl.config, {name: p.astype(f"float{bits}") for name, p in mdl.params.items()})


VOCAB = Vocab(list(RESERVED) + [f"t{i}" for i in range(46)])


def pair_of(q, p, max_len=32):
    return encode_pair(q, p, VOCAB, max_len)


def prob(mdl, pair):
    """The relevance probability of one pair, scored alone."""
    return float(forward(mdl, [pair]).relevance_prob[0])


class TestConfig:
    def test_validate_rejects_bad_values(self):
        with pytest.raises(ValueError):
            small_cfg(hidden=15).validate()
        with pytest.raises(ValueError):
            small_cfg(position_mode="sinusoidal").validate()
        with pytest.raises(ValueError):
            small_cfg(n_layers=0).validate()
        with pytest.raises(ValueError, match="max_len must be >= 8"):
            small_cfg(max_len=4).validate()
        with pytest.raises(ValueError, match="n_layers must be a positive integer"):
            small_cfg(n_layers=True, n_heads=True).validate()

    def test_dtype(self):
        # init gives float32 weights, and a cast copy runs every pass in float64
        mdl = init(small_cfg(), 0)
        assert mdl.dtype == np.float32
        assert {p.dtype for p in mdl.params.values()} == {np.dtype(np.float32)}
        copy = cast(mdl, 64)
        assert copy.dtype == np.float64 and copy.config == mdl.config
        pair = pair_of("t0 t1", "t2 t3")
        out = forward(copy, [pair], capture=True)
        assert out.logits.dtype == np.float64
        assert {a.dtype for a in out.activations} == {np.dtype(np.float64)}
        loss, grads = M.loss_and_grads(copy, [pair], [1])
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float64)}
        assert loss == pytest.approx(M.loss_and_grads(mdl, [pair], [1])[0], rel=1e-5)


def n_params(mdl):
    return sum(p.size for p in mdl.params.values())


class TestInit:
    def test_param_count_closed_form(self):
        # embeddings + classifier + per-layer attention/FF/LN blocks
        cfg = ModelConfig(n_layers=2, n_heads=2, hidden=32, ff_dim=64,
                          vocab_size=1000, max_len=64)
        d, ff, V = 32, 64, 1000
        per_layer = 4 * (d * d + d) + 2 * d + (d * ff + ff) + (ff * d + d) + 2 * d
        want = V * d + 2 * d + 2 * d + (d * 2 + 2) + 64 * d + 2 * per_layer
        assert n_params(init(cfg, 0)) == want

    def test_position_mode_none_drops_table(self):
        cfg_l = small_cfg()
        cfg_n = small_cfg(position_mode="none")
        diff = n_params(init(cfg_l, 0)) - n_params(init(cfg_n, 0))
        assert diff == cfg_l.max_len * cfg_l.hidden
        assert "pos_emb" not in init(cfg_n, 0).params

    def test_deterministic(self):
        a, b = init(small_cfg(), 7), init(small_cfg(), 7)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])
        c = init(small_cfg(), 8)
        assert not np.array_equal(a.params["tok_emb"], c.params["tok_emb"])

    def test_ln_gains_ones_biases_zero(self):
        mdl = init(small_cfg(), 0)
        assert np.all(mdl.params["emb_ln_g"] == 1.0)
        assert np.all(mdl.params["layer0.bq"] == 0.0)
        assert np.all(mdl.params["cls_b"] == 0.0)


def gelu(x):
    return M.gelu(x, M.gelu_cdf2(x))


class TestNumerics:
    def test_gelu_values(self):
        assert gelu(np.array([0.0]))[0] == 0.0
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, abs=1e-9)
        assert gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-9)
        assert gelu(np.array([1.0]))[0] == pytest.approx(0.8413447460685429, abs=1e-12)

    def test_gelu_grad_matches_finite_difference(self):
        x = np.linspace(-3, 3, 13)
        eps = 1e-6
        fd = (gelu(x + eps) - gelu(x - eps)) / (2 * eps)
        assert np.abs(M.gelu_grad(x, M.gelu_cdf2(x)) - fd).max() < 1e-8

    def test_layer_norm_normalizes(self):
        x = np.random.default_rng(0).normal(2.0, 3.0, (4, 8))
        y, _ = M.layer_norm_fwd(x, np.ones(8), np.zeros(8))
        assert np.abs(y.mean(axis=-1)).max() < 1e-12
        assert np.abs(y.std(axis=-1) - 1.0).max() < 1e-6

    def test_softmax_rows_sum_to_one(self):
        x = np.array([[1.0, 2.0, 3.0], [1000.0, 1000.0, -np.inf]])
        s = M.softmax(x)
        assert np.allclose(s.sum(axis=-1), 1.0)
        assert s[1, 2] == 0.0


class TestForward:
    def test_shapes_and_capture(self):
        mdl = init(small_cfg(), 0)
        pairs = [pair_of("t0 t1", "t2 t3 t4"), pair_of("t5", "t6"),
                 pair_of("t7 t8 t9", "t1")]
        out = forward(mdl, pairs, capture=True)
        assert out.logits.shape == (3, 2)
        assert out.relevance_prob.shape == (3,)
        assert len(out.activations) == mdl.config.n_layers + 1
        T = max(len(p.ids) for p in pairs)
        assert out.activations[0].shape == (3, T, mdl.config.hidden)

    def test_probability_range(self):
        mdl = init(small_cfg(), 1)
        for q, p in [("t0", "t1"), ("t2 t3", "t4 t5 t6 t7")]:
            assert 0.0 < prob(mdl, pair_of(q, p)) < 1.0

    def test_padding_invariance(self):
        mdl = init(small_cfg(), 2)
        short = pair_of("t0 t1", "t2")
        long = pair_of("t3 t4 t5", " ".join(f"t{i}" for i in range(6, 20)))
        alone = prob(mdl, short)
        batched = float(forward(mdl, [short, long]).relevance_prob[0])
        assert abs(alone - batched) < 1e-9

    def test_out_of_range_ids_rejected(self):
        mdl = init(small_cfg(vocab_size=10), 0)
        bad = TokenizedPair([2, 40, 3, 5, 3])
        with pytest.raises((ValueError, IndexError)):
            forward(mdl, [bad])

    def test_sequence_longer_than_max_len_rejected(self):
        mdl = init(small_cfg(max_len=8), 0)
        pair = pair_of("t0 t1 t2", " ".join(f"t{i}" for i in range(3, 12)), max_len=32)
        with pytest.raises(ValueError):
            forward(mdl, [pair])


class TestLoss:
    @pytest.mark.parametrize("precision, margin", [(32, 300.0), (64, 800.0)])
    def test_underflowed_true_class_gives_finite_loss(self, precision, margin):
        # the true class's probability underflows to 0; the loss is that of
        # the dtype's smallest normal probability, not inf
        mdl = cast(init(small_cfg(), 0), precision)
        mdl.params["cls_b"][:] = [0.0, margin]
        loss, grads = M.loss_and_grads(mdl, [pair_of("t0 t1", "t2 t3")], [0])
        assert loss == pytest.approx(-math.log(np.finfo(mdl.dtype).tiny), rel=1e-6)
        assert all(np.isfinite(g).all() for g in grads.values())


class TestOrderSensitivity:
    def test_no_position_model_is_order_invariant(self):
        mdl = init(small_cfg(position_mode="none"), 4)
        pair = pair_of("t0 t1 t2 t3", "t4 t5 t6 t7 t8 t9")
        base = forward(mdl, [pair]).logits
        for i in range(50):
            shuffled = perturb.apply(pair, perturb.shuffle_mode(i), str(i))
            got = forward(mdl, [shuffled]).logits
            assert np.abs(got - base).max() == 0.0

    def test_learned_position_model_is_order_sensitive(self):
        mdl = init(small_cfg(), 4)
        pair = pair_of("t0 t1 t2 t3", "t4 t5 t6 t7 t8 t9")
        base = forward(mdl, [pair]).logits
        deltas = []
        for i in range(20):
            shuffled = perturb.apply(pair, perturb.shuffle_mode(i), str(i))
            deltas.append(np.abs(forward(mdl, [shuffled]).logits - base).max())
        assert max(deltas) > 1e-6

    def test_segment_assignment_matters(self):
        # same token multiset, token moved across the [SEP] boundary
        mdl = init(small_cfg(position_mode="none"), 5)
        a = pair_of("t0 t1", "t2 t3 t4")
        b = pair_of("t0 t1 t2", "t3 t4")
        assert prob(mdl, a) != prob(mdl, b)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        mdl = init(small_cfg(), 6)
        path = tmp_path / "m.ckpt"
        M.save(mdl, path)
        loaded = M.load(path)
        assert loaded.config == mdl.config
        for name in mdl.params:
            assert loaded.params[name].dtype == mdl.params[name].dtype
            assert np.array_equal(loaded.params[name], mdl.params[name])
        pair = pair_of("t0 t1", "t2 t3")
        assert forward(mdl, [pair]).logits.tobytes() == forward(loaded, [pair]).logits.tobytes()

    def test_save_is_byte_deterministic(self, tmp_path):
        mdl = init(small_cfg(), 6)
        M.save(mdl, tmp_path / "a.ckpt")
        M.save(mdl, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_float32_round_trip(self, tmp_path):
        # a float64 copy saves f4 arrays too, and loads as the float32 weights
        mdl = init(small_cfg(), 6)
        for bits in (32, 64):
            M.save(cast(mdl, bits), tmp_path / "m.ckpt")
            loaded = M.load(tmp_path / "m.ckpt")
            assert loaded.params["tok_emb"].dtype == np.float32
            assert np.array_equal(loaded.params["tok_emb"], mdl.params["tok_emb"])

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        mdl = init(small_cfg(), 0)
        M.save(mdl, p)
        blob = bytearray(p.read_bytes())
        blob[0] ^= 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            M.load(p)

    def test_bad_version_rejected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        M.save(init(small_cfg(), 0), p)
        blob = bytearray(p.read_bytes())
        magic_len = blob.index(10) + 1  # header line ends at the newline
        blob[magic_len] = 99
        p.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            M.load(p)

    def test_missing_param_rejected(self, tmp_path):
        mdl = init(small_cfg(), 0)
        del mdl.params["cls_b"]
        p = tmp_path / "m.ckpt"
        M.save(mdl, p)
        with pytest.raises(ValueError, match="names"):
            M.load(p)

    @pytest.mark.parametrize("where", ["header", "config", "array"])
    def test_truncated_checkpoint_rejected(self, tmp_path, where):
        p = tmp_path / "m.ckpt"
        M.save(init(small_cfg(), 0), p)
        blob = p.read_bytes()
        magic_len = blob.index(10) + 1
        config_start = magic_len + 4 + 8
        cut = {
            "header": 16,                                     # inside the version field
            "config": config_start + 10,                      # inside the config JSON
            "array": len(blob) - 5,                           # inside the last array
        }[where]
        assert blob[config_start:config_start + 1] == b"{"
        p.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match="truncated checkpoint"):
            M.load(p)


# The kernel helpers' plain one-line expressions: the references that the
# helpers must match byte for byte in float32 and float64. Row sums are
# einsum's, float32 erf is the rational of `M._ERF_P`/`M._ERF_Q` and float64
# erf is `math.erf` of each element.


def math_erf(x):
    return np.array([math.erf(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _horner(coeffs, x2):
    return coeffs[0] if len(coeffs) == 1 else coeffs[-1] + x2 * _horner(coeffs[:-1], x2)


def ref_gelu_cdf2(x):
    c = x / np.asarray(math.sqrt(2.0), dtype=x.dtype)
    if x.dtype == np.float64:
        return 1.0 + math_erf(c)
    c = np.clip(c, -4.0, 4.0)
    return 1.0 + c * _horner(M._ERF_P, c * c) / _horner(M._ERF_Q, c * c)


def ref_gelu(x, cdf2):
    return 0.5 * x * cdf2


def ref_gelu_grad(x, cdf2):
    phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return 0.5 * cdf2 + x * phi


def ref_mean(x):
    return np.einsum("...j->...", x)[..., None] / x.shape[-1]


def ref_layer_norm_fwd(x, g, b):
    xc = x - ref_mean(x)
    inv = 1.0 / np.sqrt(ref_mean(xc * xc) + M.LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def ref_layer_norm_bwd(dy, cache):
    xhat, inv, g = cache
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    return inv * (dxhat - ref_mean(dxhat) - xhat * ref_mean(dxhat * xhat)), dg, db


def ref_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / np.einsum("...j->...", e)[..., None]


# The same expressions as numpy's reductions and `math.erf` write them:
# the float64 references of the float32 kernels' accuracy tests.


def math_gelu_cdf2(x):
    return 1.0 + math_erf(x / np.asarray(math.sqrt(2.0), dtype=x.dtype))


def numpy_layer_norm_fwd(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + M.LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def numpy_layer_norm_bwd(dy, cache):
    xhat, inv, g = cache
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2), dg, db


def numpy_softmax(x):
    x = x - x.max(axis=-1, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=-1, keepdims=True)


def ref_pad_batch(pairs, dtype):
    T = max(len(p.ids) for p in pairs)
    ids = np.full((len(pairs), T), 0, dtype=np.int64)
    segs = np.zeros((len(pairs), T), dtype=np.int64)
    mask = np.zeros((len(pairs), T), dtype=dtype)
    for i, p in enumerate(pairs):
        n, first_sep = len(p.ids), p.ids.index(SEP_ID)
        ids[i, :n] = p.ids
        segs[i, :n] = [0] * (first_sep + 1) + [1] * (n - first_sep - 1)
        mask[i, :n] = 1.0
    return ids, segs, mask


def _frozen(*arrays):
    return [a.tobytes() for a in arrays]


# hidden-state, FFN and pruned-layer shapes of a B=16, T=23 training step
# and a B=64 scoring batch
KERNEL_SHAPES = [(16, 23, 32), (16, 23, 64), (16, 2, 32), (64, 23, 32)]
# attention scores of the same batches, full and pruned, and (5, 2) logits
SOFTMAX_SHAPES = [(16, 2, 23, 23), (16, 2, 2, 23), (64, 2, 23, 23), (5, 2)]


def _softmax_input(shape, dtype):
    x = np.random.default_rng(shape[0]).normal(0.0, 3.0, shape).astype(dtype)
    # masked keys, as the attention scores carry them
    x[..., shape[-1] // 2 + 1:] = -np.inf
    return x


def _layer_norm_inputs(shape, dtype):
    rng = np.random.default_rng(shape[0] + shape[1])
    d = shape[-1]
    x, dy = (rng.normal(0.5, 2.0, shape).astype(dtype) for _ in range(2))
    g, b = rng.normal(1.0, 0.1, d).astype(dtype), rng.normal(0.0, 0.1, d).astype(dtype)
    return x, dy, g, b


class TestKernelBytes:
    """Each helper gives its reference expression's bytes and leaves its
    inputs as they were."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_gelu(self, dtype, shape):
        x = np.random.default_rng(shape[-1]).normal(0.0, 2.0, shape).astype(dtype)
        before = _frozen(x)
        cdf2 = M.gelu_cdf2(x)
        want = ref_gelu_cdf2(x)
        assert cdf2.dtype == want.dtype and cdf2.tobytes() == want.tobytes()
        for got, ref in ((M.gelu(x, cdf2), ref_gelu(x, want)),
                         (M.gelu_grad(x, cdf2), ref_gelu_grad(x, want))):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert _frozen(x, cdf2) == before + [want.tobytes()]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_layer_norm(self, dtype, shape):
        x, dy, g, b = _layer_norm_inputs(shape, dtype)
        before = _frozen(x, dy, g, b)
        y, cache = M.layer_norm_fwd(x, g, b)
        y_ref, cache_ref = ref_layer_norm_fwd(x, g, b)
        for got, ref in zip((y,) + cache, (y_ref,) + cache_ref):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        cache_bytes = _frozen(*cache)
        for got, ref in zip(M.layer_norm_bwd(dy, cache), ref_layer_norm_bwd(dy, cache_ref)):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert _frozen(x, dy, g, b) == before
        assert _frozen(*cache) == cache_bytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SOFTMAX_SHAPES)
    def test_softmax(self, dtype, shape):
        x = _softmax_input(shape, dtype)
        before = _frozen(x)
        got, ref = M.softmax(x), ref_softmax(x)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert _frozen(x) == before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lengths", [[23] * 16, [4], [9, 23, 5, 23, 17, 4],
                                         list(range(4, 32)) * 2 + [4] * 8])
    def test_pad_batch(self, dtype, lengths):
        rng = np.random.default_rng(len(lengths))
        pairs = [_random_pair(rng, n) for n in lengths]
        ids, segs, mask = M.pad_batch(pairs)
        # the mask is boolean; cast to a model dtype it is the 1.0/0.0 mask
        assert mask.dtype == bool
        for got, ref in zip((ids, segs, mask.astype(dtype)), ref_pad_batch(pairs, dtype)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    # (n_rows, id range): tok_emb rows at the matrix vocabulary, seg_emb rows
    @pytest.mark.parametrize("n_rows", [1000, 2])
    @pytest.mark.parametrize("B,T", [(16, 23), (64, 23), (3, 5)])
    def test_scatter_rows_matches_add_at(self, n_rows, B, T):
        rng = np.random.default_rng(n_rows + B)
        # few distinct ids so that rows repeat, and a padded tail of id 0
        ids = rng.integers(0, min(n_rows, 12), (B, T))
        ids[:, T - 2:] = 0
        values = rng.normal(0.0, 1.0, (B, T, 32))
        before = _frozen(ids, values)
        want = np.zeros((n_rows, 32))
        np.add.at(want, ids, values)
        got = M.scatter_rows(ids, values, n_rows)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert _frozen(ids, values) == before
        # float32 values are summed in float64 and rounded once
        v32 = values.astype(np.float32)
        got32 = M.scatter_rows(ids, v32, n_rows)
        want32 = np.zeros((n_rows, 32), dtype=np.float32)
        np.add.at(want32, ids, v32)
        assert got32.dtype == np.float32
        assert np.abs(got32 - want32).max() <= 1e-5 * max(1.0, np.abs(want32).max())


class TestKernelAccuracy:
    """The float32 kernels against numpy's and `math.erf`'s expressions
    in float64, and the float64 erf against `math.erf`."""

    def test_float32_gelu_cdf2_within_1e6_of_erf(self):
        x = np.linspace(-12.0, 12.0, 2_000_001, dtype=np.float32)
        got = M.gelu_cdf2(x)
        assert got.dtype == np.float32
        assert np.abs(got - math_gelu_cdf2(x.astype(np.float64))).max() <= 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_cdf2_at_infinities_and_nan(self, dtype):
        # a diverged pre-activation stays NaN, which train's DivergenceError reads
        got = M.gelu_cdf2(np.array([np.inf, -np.inf, np.nan], dtype=dtype))
        assert got[0] == 2.0 and got[1] == 0.0 and np.isnan(got[2])

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_float64_gelu_cdf2_is_math_erf(self, shape):
        x = np.random.default_rng(shape[-1]).normal(0.0, 2.0, shape)
        assert M.gelu_cdf2(x).tobytes() == math_gelu_cdf2(x).tobytes()

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_float32_layer_norm(self, shape):
        x, dy, g, b = _layer_norm_inputs(shape, np.float32)
        y, cache = M.layer_norm_fwd(x, g, b)
        y64, cache64 = numpy_layer_norm_fwd(*(a.astype(np.float64) for a in (x, g, b)))
        _assert_close(y, y64)
        dy64 = dy.astype(np.float64)
        dx, dg, db = M.layer_norm_bwd(dy, cache)
        dx64, dg64, db64 = numpy_layer_norm_bwd(dy64, cache64)
        _assert_close(dx, dx64)
        # dg and db are numpy's float32 sums over all B*T rows, one row at a
        # time; at B=64 dg is 1.1e-6 off its largest entry. They are held to
        # 1e-6 of the largest sum of their terms' magnitudes instead.
        axes = tuple(range(len(shape) - 1))
        for got, ref, terms in ((dg, dg64, dy64 * cache64[0]), (db, db64, dy64)):
            assert got.dtype == np.float32
            assert np.abs(got - ref).max() <= 1e-6 * np.abs(terms).sum(axis=axes).max()

    @pytest.mark.parametrize("shape", SOFTMAX_SHAPES)
    def test_float32_softmax(self, shape):
        x = _softmax_input(shape, np.float32)
        _assert_close(M.softmax(x), numpy_softmax(x.astype(np.float64)))


def _assert_close(got, ref):
    """Within 1e-6 of ref's largest entry."""
    assert got.dtype == np.float32 and got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-6 * np.abs(ref).max()


def _random_pair(rng, n):
    """A pair of exactly n ids (n >= 4) over VOCAB's word ids."""
    nq = int(rng.integers(1, min(8, n - 3) + 1))
    np_ = n - 3 - nq
    return TokenizedPair([CLS_ID] + rng.integers(len(RESERVED), 50, nq).tolist()
                         + [SEP_ID] + rng.integers(len(RESERVED), 50, np_).tolist() + [SEP_ID])


SWEEP_MODELS = [
    dict(bits=prec, n_layers=layers, position_mode=pos, hidden=width,
         ff_dim=2 * width)
    for prec in (32, 64) for layers in (1, 2, 3) for pos in ("learned", "none")
    for width in (16, 32)
]


def _sweep_id(kw):
    return "fp{bits}-L{n_layers}-{position_mode}-d{hidden}".format(**kw)


def _sweep_model(kw, seed):
    """The sweep model `kw` names, initialised from `seed`, in its precision."""
    cfg = small_cfg(max_len=64, **{k: v for k, v in kw.items() if k != "bits"})
    return cast(init(cfg, seed), kw["bits"])


class TestClsOnlyPass:
    """Without capture, the last layer runs past its keys and values on
    rows 0 and 1 only, forward and backward; the logits and the loss must
    be the full pass's bytes, the gradients the full pass's to rounding."""

    @pytest.mark.parametrize("kw", SWEEP_MODELS, ids=_sweep_id)
    def test_logits_match_capture_path_bytewise(self, kw):
        mdl = _sweep_model(kw, kw["n_layers"] * 7 + kw["hidden"])
        rng = np.random.default_rng(kw["n_layers"] + kw["hidden"])
        mismatched = []
        for B in (1, 2, 3, 5, 8, 13, 16, 31, 32, 33, 64, 100):
            for T in (4, 17, 40, 64):
                # the first pair sets the padded length; the rest are shorter
                pairs = [_random_pair(rng, T)] + [
                    _random_pair(rng, int(rng.integers(4, T + 1))) for _ in range(B - 1)]
                pruned = forward(mdl, pairs).logits
                full = forward(mdl, pairs, capture=True).logits
                if pruned.tobytes() != full.tobytes():
                    mismatched.append((B, T))
        assert mismatched == []

    @pytest.mark.parametrize("kw", SWEEP_MODELS, ids=_sweep_id)
    def test_gradients_match_capture_path_tape(self, kw):
        # the reference is _backward on the capture path's full tape;
        # products over two rows may take another BLAS kernel than over
        # every row, so gradients agree to rounding
        tol = 1e-13 if kw["bits"] == 64 else 1e-5
        rng = np.random.default_rng(kw["n_layers"] * 3 + kw["hidden"])
        worst = 0.0
        mdl = _sweep_model(kw, kw["hidden"] + 1)
        for B in (2, 5, 16, 33):
            for T in (4, 23, 64):
                pairs = [_random_pair(rng, T)] + [
                    _random_pair(rng, int(rng.integers(4, T + 1))) for _ in range(B - 1)]
                labels = rng.integers(0, 2, B)
                loss, grads = M.loss_and_grads(mdl, pairs, labels)
                ids, segs, mask = M.pad_batch(pairs)
                logits, _, tape = M._forward(mdl, ids, segs, mask, capture=True)
                probs = M.softmax(logits)
                full_loss = -np.log(np.clip(probs[np.arange(B), labels], 1e-300, None)).mean()
                assert loss == float(full_loss), (B, T)
                dlogits = probs.copy()
                dlogits[np.arange(B), labels] -= 1.0
                dlogits /= B
                full = M._backward(mdl, tape, dlogits.astype(mdl.dtype))
                top = max(np.abs(g).max() for g in full.values())
                worst = max(worst, max(np.abs(grads[n] - full[n]).max() for n in full) / top)
        assert worst <= tol

    def test_training_tape_holds_two_query_rows(self):
        mdl = init(small_cfg(n_layers=2), 6)
        pairs = [pair_of("t0 t1", "t2 t3 t4 t5"), pair_of("t6", "t7 t8")]
        ids, segs, mask = M.pad_batch(pairs)
        B, T = ids.shape
        d, H = mdl.config.hidden, mdl.config.n_heads
        logits, acts, tape = M._forward(mdl, ids, segs, mask)
        assert acts is None and logits.shape == (B, 2)
        first, last = tape["layers"]
        assert first["hq"].shape == first["h1"].shape == (B, T, d)
        assert last["h_in"].shape == (B, T, d)
        assert last["kh"].shape == last["vh"].shape == (B, H, T, d // H)
        assert last["hq"].shape == last["h1"].shape == last["ctx"].shape == (B, 2, d)
        assert last["qh"].shape == (B, H, 2, d // H)
        assert last["A"].shape == (B, H, 2, T)
        assert tape["h_final"].shape == (B, 2, d)
        _, _, full = M._forward(mdl, ids, segs, mask, capture=True)
        assert full["layers"][-1]["hq"].shape == full["h_final"].shape == (B, T, d)


class TestEncodeBackward:
    """The encoder's backward on a tape that keeps every row, with a
    gradient on every row of `h_final`, as a token-level head seeds it."""

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("position_mode", ["learned", "none"])
    def test_every_row_matches_finite_differences(self, n_layers, position_mode):
        mdl = cast(init(small_cfg(n_layers=n_layers, position_mode=position_mode), 11), 64)
        rng = np.random.default_rng(n_layers)
        # the first pair sets the padded length; the others have padding
        ids, segs, mask = M.pad_batch([_random_pair(rng, n) for n in (12, 7, 9)])
        B, T = ids.shape
        R = rng.normal(size=(B, T, mdl.config.hidden)) / (B * T)

        def objective():
            return float((M._encode(mdl, ids, segs, mask)["h_final"] * R).sum())

        grads = {name: np.zeros_like(p) for name, p in mdl.params.items()}
        assert M._encode_backward(mdl, M._encode(mdl, ids, segs, mask), R, grads) is grads
        assert not grads["cls_W"].any() and not grads["cls_b"].any()
        eps, worst = 1e-5, 0.0
        for name, p in mdl.params.items():
            flat = p.reshape(-1)
            for c in rng.choice(flat.size, size=min(8, flat.size), replace=False):
                orig = flat[c]
                flat[c] = orig + eps
                up = objective()
                flat[c] = orig - eps
                down = objective()
                flat[c] = orig
                numeric = (up - down) / (2 * eps)
                analytic = grads[name].reshape(-1)[c]
                # criterion 4's bound and its 1e-6 floor on the denominator
                denom = max(abs(analytic), abs(numeric), 1e-6)
                worst = max(worst, abs(analytic - numeric) / denom)
        assert worst <= 1e-4
