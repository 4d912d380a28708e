import math

import numpy as np
import pytest

from orderlab import model as M
from orderlab import tokenizer
from orderlab import train as T
from orderlab.tokenizer import RESERVED, Vocab, encode_pair

VOCAB = Vocab(list(RESERVED) + [f"t{i}" for i in range(60)])


def toy_triples(n=20):
    # positive passages share terms with the query; negatives are disjoint
    out = []
    for i in range(n):
        a, b = f"t{i % 20}", f"t{(i + 1) % 20}"
        out.append((f"{a} {b}", f"{a} {b} t{(i + 2) % 20}", f"t{20 + i % 20} t{40 + i % 10}"))
    return out


def examples(query, pos, neg):
    """A triple's two labelled examples, natural order, as (pairs, labels)."""
    return [encode_pair(query, pos, VOCAB, 32), encode_pair(query, neg, VOCAB, 32)], [1, 0]


def small_model(seed=0, bits=32, **kw):
    """A small model whose weights are cast to float`bits`, as `train.grad_check` casts them."""
    cfg = M.ModelConfig(n_layers=2, n_heads=2, hidden=16, ff_dim=32,
                        vocab_size=len(VOCAB.tokens), max_len=32, **kw)
    mdl = M.init(cfg, seed)
    return M.Model(cfg, {name: p.astype(f"float{bits}") for name, p in mdl.params.items()})


class TestSchedule:
    def test_linear_warmup_then_decay(self):
        cfg = T.TrainConfig(lr_peak=1e-3, warmup_steps=100, total_steps=1000)
        assert T.lr_at(0, cfg) == 0.0
        assert T.lr_at(50, cfg) == pytest.approx(5e-4)
        assert T.lr_at(100, cfg) == pytest.approx(1e-3)
        assert T.lr_at(550, cfg) == pytest.approx(5e-4)
        assert T.lr_at(1000, cfg) == pytest.approx(0.0)

    def test_no_warmup(self):
        cfg = T.TrainConfig(lr_peak=1e-3, warmup_steps=0, total_steps=10)
        assert T.lr_at(5, cfg) == pytest.approx(5e-4)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            T.TrainConfig(warmup_steps=10, total_steps=5).validate()
        for batch_size in (1, 17):
            with pytest.raises(ValueError):
                T.TrainConfig(batch_size=batch_size).validate()
        for bad in (dict(epoch_size=0), dict(total_steps=-3, warmup_steps=-5),
                    dict(warmup_steps=-1)):
            with pytest.raises(ValueError):
                T.TrainConfig(**bad).validate()
        T.TrainConfig(total_steps=0, warmup_steps=0, epoch_size=1).validate()


class TestTrainLoop:
    def test_deterministic(self):
        cfg = T.TrainConfig(batch_size=4, lr_peak=1e-3, warmup_steps=5,
                            total_steps=30, epoch_size=30, seed=5)
        runs = []
        for _ in range(2):
            mdl, log = T.train(small_model(3), toy_triples(), cfg, VOCAB)
            runs.append((mdl, log))
        for name in runs[0][0].params:
            assert np.array_equal(runs[0][0].params[name], runs[1][0].params[name])
        assert runs[0][1].steps == runs[1][1].steps

    def test_initial_loss_near_coin_flip(self):
        cfg = T.TrainConfig(batch_size=4, total_steps=1, warmup_steps=1, epoch_size=1)
        _, log = T.train(small_model(1), toy_triples(), cfg, VOCAB)
        assert abs(log.steps[0][1] - math.log(2)) < 0.1

    def test_loss_decreases(self):
        cfg = T.TrainConfig(batch_size=8, lr_peak=3e-3, warmup_steps=10,
                            total_steps=120, epoch_size=120, seed=2)
        _, log = T.train(small_model(2), toy_triples(), cfg, VOCAB)
        first = np.mean([s[1] for s in log.steps[:10]])
        last = np.mean([s[1] for s in log.steps[-10:]])
        assert last < first * 0.5

    def test_best_checkpoint_selected(self):
        canned = iter([0.4, 0.9, 0.2, 0.1])
        cfg = T.TrainConfig(batch_size=4, total_steps=40, warmup_steps=5, epoch_size=10)
        mdl, log = T.train(small_model(0), toy_triples(), cfg, VOCAB,
                           eval_hook=lambda m: next(canned))
        assert log.best_metric == 0.9
        assert log.best_step == 20
        assert [s for s, _ in log.evals] == [10, 20, 30, 40]

    def test_first_of_tied_best_checkpoints_kept(self):
        # evals at 20 and 30 tie on the best metric: the earlier is kept
        canned = iter([0.5, 0.9, 0.9, 0.1])
        seen = []

        def hook(m):
            seen.append({name: p.copy() for name, p in m.params.items()})
            return next(canned)

        cfg = T.TrainConfig(batch_size=4, total_steps=40, warmup_steps=5, epoch_size=10)
        mdl, log = T.train(small_model(0), toy_triples(), cfg, VOCAB, eval_hook=hook)
        assert (log.best_step, log.best_metric) == (20, 0.9)
        assert all(np.array_equal(mdl.params[name], seen[1][name]) for name in mdl.params)
        assert not all(np.array_equal(seen[1][name], seen[2][name]) for name in mdl.params)

    def test_divergence_raises(self):
        cfg = T.TrainConfig(batch_size=4, lr_peak=1e6, warmup_steps=1,
                            total_steps=200, epoch_size=200)
        with pytest.raises(T.DivergenceError), np.errstate(all="ignore"):
            import warnings
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                T.train(small_model(0), toy_triples(), cfg, VOCAB)

    def test_non_finite_grad_norm_raises(self, monkeypatch):
        # a finite loss with an overflowed gradient stops the run as well
        loss_and_grads = M.loss_and_grads

        def overflowing(*args, grads, **kw):
            loss, _ = loss_and_grads(*args, grads=grads, **kw)
            grads["tok_emb"][0, 0] = np.inf
            return loss, grads

        monkeypatch.setattr(M, "loss_and_grads", overflowing)
        cfg = T.TrainConfig(batch_size=4, total_steps=5, warmup_steps=1, epoch_size=5)
        with pytest.raises(T.DivergenceError, match="grad norm inf at step 0"):
            T.train(small_model(0), toy_triples(), cfg, VOCAB)

    def test_triples_encoded_on_first_draw(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[:2])
            return encode_pair(*args, **kwargs)

        monkeypatch.setattr(tokenizer, "encode_pair", counting)
        cfg = T.TrainConfig(batch_size=4, total_steps=3, warmup_steps=1, epoch_size=3)
        T.train(small_model(0), toy_triples(), cfg, VOCAB)
        # 3 steps draw 6 of the 20 triples, two pairs each, each encoded once
        assert len(calls) == 12

    def test_empty_triples_rejected(self):
        with pytest.raises(ValueError):
            T.train(small_model(0), [], T.TrainConfig(), VOCAB)

    def test_log_written(self, tmp_path):
        cfg = T.TrainConfig(batch_size=4, total_steps=5, warmup_steps=1, epoch_size=5)
        _, log = T.train(small_model(0), toy_triples(), cfg, VOCAB)
        p = tmp_path / "log.tsv"
        T.write_train_log(log, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "step\tloss\tlr\tgrad_norm"
        assert len(lines) == 6
        grad_norms = [float(line.split("\t")[3]) for line in lines[1:]]
        assert all(math.isfinite(g) and g > 0 for g in grad_norms)


def reference_train(mdl, triples, cfg, vocab):
    """The per-parameter Adam loop, for batches that each hold every triple
    once (batch_size = 2 * len(triples), natural order).

    Returns the final parameters and the pre-clip grad norm of each step.
    """
    params = {k: v.copy() for k, v in mdl.params.items()}
    ref = M.Model(mdl.config, params)
    encoded = [[(encode_pair(q, text, vocab, mdl.config.max_len), label)
                for text, label in ((pos, 1), (neg, 0))] for q, pos, neg in triples]
    order_rng = np.random.default_rng(cfg.seed)
    m_state = {k: np.zeros_like(v) for k, v in params.items()}
    v_state = {k: np.zeros_like(v) for k, v in params.items()}
    norms = []
    for step in range(cfg.total_steps):
        pairs, labels = [], []
        for idx in order_rng.permutation(len(encoded)):
            for pair, label in encoded[idx]:
                pairs.append(pair)
                labels.append(label)
        _, grads = M.loss_and_grads(ref, pairs, labels)
        gnorm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        norms.append(float(gnorm))
        if gnorm > T.GRAD_CLIP_NORM:
            scale = T.GRAD_CLIP_NORM / gnorm
            for g in grads.values():
                g *= scale
        lr = T.lr_at(step, cfg)
        t = step + 1
        bc1 = 1.0 - T.ADAM_BETA1 ** t
        bc2 = 1.0 - T.ADAM_BETA2 ** t
        for name, p in params.items():
            g = grads[name]
            m_state[name] = T.ADAM_BETA1 * m_state[name] + (1 - T.ADAM_BETA1) * g
            v_state[name] = T.ADAM_BETA2 * v_state[name] + (1 - T.ADAM_BETA2) * g * g
            update = (m_state[name] / bc1) / (np.sqrt(v_state[name] / bc2) + T.ADAM_EPS)
            if p.ndim >= 2:
                update = update + T.WEIGHT_DECAY * p
            p -= lr * update
    return params, norms


class TestFlatAdam:
    @pytest.mark.parametrize("precision", [64, 32])
    def test_matches_per_parameter_adam_exactly(self, precision, monkeypatch):
        # a strong decay, and a clip norm below every step's gradient norm
        monkeypatch.setattr(T, "WEIGHT_DECAY", 0.05)
        monkeypatch.setattr(T, "GRAD_CLIP_NORM", 0.05)
        triples = toy_triples(6)
        cfg = T.TrainConfig(batch_size=2 * len(triples), lr_peak=1e-2, warmup_steps=2,
                            total_steps=8, epoch_size=8, seed=4)
        start = small_model(5, bits=precision)
        before = {k: v.copy() for k, v in start.params.items()}
        expected, norms = reference_train(start, triples, cfg, VOCAB)
        mdl, log = T.train(start, triples, cfg, VOCAB)
        # clipping was active on every step, and the log holds the pre-clip norm
        assert [s[3] for s in log.steps] == norms
        assert min(norms) > T.GRAD_CLIP_NORM
        assert list(mdl.params) == list(expected)
        for name, value in expected.items():
            assert mdl.params[name].dtype == value.dtype
            assert mdl.params[name].tobytes() == value.tobytes(), name
        # the model passed in is left as it was
        for name, value in before.items():
            assert start.params[name].tobytes() == value.tobytes()


class TestGradCheck:
    def test_small_model_passes(self):
        mdl = small_model(7)
        assert T.grad_check(mdl, examples("t0 t1", "t0 t1 t2", "t30 t31"), n_coords=150) < 1e-4

    def test_float32_model_checked_on_its_float64_copy(self):
        mdl = small_model(0)
        before = {name: p.copy() for name, p in mdl.params.items()}
        copy = small_model(0, bits=64)
        example = examples("t0 t1", "t0 t1 t2", "t30 t31")
        assert T.grad_check(mdl, example, n_coords=60) == T.grad_check(copy, example, n_coords=60)
        for name, p in mdl.params.items():
            assert p.dtype == np.float32
            assert p.tobytes() == before[name].tobytes()

    def test_error_shrinks_with_eps(self):
        # central differences are O(eps^2): a much larger eps gives a
        # clearly worse agreement
        mdl = small_model(9)
        example = examples("t0 t1", "t0 t1 t2", "t30 t31")
        coarse = T.grad_check(mdl, example, eps=1e-1, n_coords=60)
        fine = T.grad_check(mdl, example, eps=1e-5, n_coords=60)
        assert fine < coarse
