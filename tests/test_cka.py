import numpy as np
import pytest

from orderlab import cka, perturb
from orderlab import model as M
from orderlab.tokenizer import RESERVED, Vocab, encode_pair

VOCAB = Vocab(list(RESERVED) + [f"t{i}" for i in range(30)])


def pairs_of(n, rng):
    out = []
    for _ in range(n):
        q = " ".join(f"t{int(i)}" for i in rng.integers(0, 30, 4))
        p = " ".join(f"t{int(i)}" for i in rng.integers(0, 30, 8))
        out.append(encode_pair(q, p, VOCAB, 32))
    return out


def small_model(seed=0, **kw):
    cfg = M.ModelConfig(n_layers=2, n_heads=2, hidden=16, ff_dim=32,
                        vocab_size=len(VOCAB.tokens), max_len=32, **kw)
    return M.init(cfg, seed)


class TestCkaLinear:
    def test_identity_is_one(self):
        x = np.random.default_rng(0).normal(size=(40, 8))
        assert cka.cka_linear(x, x) == pytest.approx(1.0, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(30, 6)), rng.normal(size=(30, 9))
        assert abs(cka.cka_linear(x, y) - cka.cka_linear(y, x)) <= 1e-12

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(50, 8)), rng.normal(size=(50, 8))
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        assert cka.cka_linear(x @ q, y) == pytest.approx(cka.cka_linear(x, y), abs=1e-7)

    def test_isotropic_scaling_invariance(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(50, 8)), rng.normal(size=(50, 5))
        assert cka.cka_linear(3.7 * x, y) == pytest.approx(cka.cka_linear(x, y), abs=1e-7)
        assert cka.cka_linear(x, 0.01 * y) == pytest.approx(cka.cka_linear(x, y), abs=1e-7)

    def test_range_zero_one(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(3, 20))
            x = rng.normal(size=(n, int(rng.integers(1, 6))))
            y = rng.normal(size=(n, int(rng.integers(1, 6))))
            v = cka.cka_linear(x, y)
            assert 0.0 <= v <= 1.0 + 1e-9

    def test_independent_features_near_zero(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(5000, 2)), rng.normal(size=(5000, 2))
        assert cka.cka_linear(x, y) < 0.05

    def test_input_validation(self):
        x = np.zeros((10, 3))
        with pytest.raises(ValueError):
            cka.cka_linear(x, np.zeros((9, 3)))
        with pytest.raises(ValueError):
            cka.cka_linear(np.zeros(10), np.zeros(10))
        with pytest.raises(ValueError):
            cka.cka_linear(np.zeros((1, 3)), np.zeros((1, 3)))
        bad = x.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            cka.cka_linear(bad, x)

    def test_constant_columns_degenerate(self):
        x = np.ones((10, 3))
        y = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(cka.DegenerateInputError):
            cka.cka_linear(x, y)

    def test_identical_rows_degenerate_despite_centring_residue(self):
        # five copies of one float64 row centre to rounding residue of
        # their mean, not to 0; the CKA of that residue would be noise
        x = np.tile(np.random.default_rng(1).normal(size=4), (5, 1))
        assert np.abs(x - x.mean(axis=0)).max() > 0
        y = np.random.default_rng(0).normal(size=(5, 3))
        for a, b in ((x, y), (y, x)):
            with pytest.raises(cka.DegenerateInputError):
                cka.cka_linear(a, b)


class TestCompare:
    def test_same_model_same_condition_all_layers_one(self):
        # layer 0 is the [CLS] embedding, the same row for every example:
        # NaN in either precision
        data = pairs_of(24, np.random.default_rng(0))
        for precision in (32, 64):
            mdl = small_model(1, numeric_precision=precision)
            rep = cka.compare(mdl, perturb.NATURAL, mdl, perturb.NATURAL, data,
                              selector="cls_only", batch_size=12)
            assert len(rep.per_layer) == mdl.config.n_layers + 1
            assert rep.n_batches == 2
            assert np.isnan(rep.per_layer[0])
            for v in rep.per_layer[1:]:
                assert v == pytest.approx(1.0, abs=1e-9)

    def test_different_inits_below_one(self):
        # layer 0 is skipped: the CLS state before any attention is the
        # same embedding sum for every example, so it scores NaN
        data = pairs_of(32, np.random.default_rng(1))
        rep = cka.compare(small_model(1), perturb.NATURAL,
                          small_model(2), perturb.NATURAL, data)
        assert all(v < 1.0 - 1e-6 for v in rep.per_layer[1:])

    def test_no_position_model_shuffle_invariant_cls(self):
        mdl = small_model(3, position_mode="none")
        data = pairs_of(24, np.random.default_rng(2))
        rep = cka.compare(mdl, perturb.NATURAL, mdl, perturb.shuffle_mode(5), data)
        assert rep.per_layer[-1] == pytest.approx(1.0, abs=1e-9)

    def test_all_tokens_selector_uses_every_position(self):
        mdl = small_model(4)
        data = pairs_of(16, np.random.default_rng(3))
        rep = cka.compare(mdl, perturb.NATURAL, mdl, perturb.NATURAL, data,
                          selector="all_tokens")
        assert all(v == pytest.approx(1.0, abs=1e-9) for v in rep.per_layer)

    def test_conditions_applied(self):
        # each side's perturbation, keyed by the example's index, is
        # applied to that side's inputs only
        mdl, other = small_model(5), small_model(6)
        data = pairs_of(8, np.random.default_rng(4))
        rep = cka.compare(mdl, perturb.NATURAL, other, perturb.SORT_DESC, data)
        sorted_data = [perturb.apply(p, perturb.SORT_DESC, str(i)) for i, p in enumerate(data)]
        want = cka.score(cka.capture(mdl, data), cka.capture(other, sorted_data), "cls_only")
        np.testing.assert_array_equal(rep.per_layer, want.per_layer)
        assert rep.per_layer[-1] < 1.0 - 1e-6

    def test_bad_selector_and_empty_dataset(self):
        mdl = small_model(0)
        with pytest.raises(ValueError):
            cka.compare(mdl, perturb.NATURAL, mdl, perturb.NATURAL, [], )
        with pytest.raises(ValueError):
            cka.compare(mdl, perturb.NATURAL, mdl, perturb.NATURAL,
                        pairs_of(4, np.random.default_rng(0)), selector="pooled")

    def test_constant_layer_scores_nan_and_keeps_the_batch(self):
        # two batches whose layer 0 is the same row for every example, as
        # the [CLS] embedding is: that layer is NaN, the others count
        rng = np.random.default_rng(7)
        pairs = pairs_of(6, rng)

        def capture_of():
            batches = []
            for start in (0, 3):
                const = np.broadcast_to(rng.normal(size=(1, 5, 4)), (3, 5, 4)).astype(np.float32)
                batches.append((start, pairs[start:start + 3],
                                [const, rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 5, 6))]))
            return batches

        a, b = capture_of(), capture_of()
        rep = cka.score(a, b, "cls_only")
        assert rep.n_batches == 2 and len(rep.per_batch) == 2
        assert np.isnan(rep.per_layer[0]) and all(np.isnan(v[0]) for v in rep.per_batch)
        for layer in (1, 2):
            want = [cka.cka_linear(xa[layer][:, 0, :], xb[layer][:, 0, :])
                    for (_, _, xa), (_, _, xb) in zip(a, b)]
            assert [v[layer] for v in rep.per_batch] == want
            assert rep.per_layer[layer] == sum(want) / 2

    def test_max_len_mismatch_rejected(self):
        a = small_model(0)
        b = M.init(M.ModelConfig(n_layers=2, n_heads=2, hidden=16, ff_dim=32,
                                 vocab_size=len(VOCAB.tokens), max_len=16), 0)
        with pytest.raises(ValueError):
            cka.compare(a, perturb.NATURAL, b, perturb.NATURAL,
                        pairs_of(4, np.random.default_rng(0)))


class TestReportCsv:
    def test_layout(self, tmp_path):
        mdl = small_model(6)
        data = pairs_of(8, np.random.default_rng(5))
        rep = cka.compare(mdl, perturb.NATURAL, mdl, perturb.NATURAL, data)
        p = tmp_path / "cka.csv"
        cka.write_report_csv(rep, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "layer,cka_mean,n_batches"
        assert len(lines) == 1 + mdl.config.n_layers + 1
        rows = [line.split(",") for line in lines[1:]]
        assert [(layer, n) for layer, _, n in rows] == [("0", "1"), ("1", "1"), ("2", "1")]
        assert rows[0][1] == "nan"
        assert all(float(value) == pytest.approx(1.0, abs=1e-6) for _, value, _ in rows[1:])
