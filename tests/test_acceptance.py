"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion, asserts it at the
stated tolerance and time budget, and prints a single pass/fail line.
The full condition-matrix experiment (criterion 8) runs once in a
session-scoped fixture; criterion 9 reads its CKA artifacts.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from orderlab import bm25, cka, corpus, experiment, metrics, perturb, tokenizer
from orderlab import model as M
from orderlab import train as T
from orderlab.corpus import Collection, Qrels, QuerySet, Run, RunEntry, SyntheticSpec


def report(n, name, ok, detail=""):
    line = f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print("\n" + line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. metric oracles


def ref_ndcg(ranking, grades, k):
    dcg = sum(grades.get(d, 0) / math.log2(i + 1)
              for i, d in enumerate(ranking[:k], start=1))
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)
    idcg = sum(g / math.log2(i + 1) for i, g in enumerate(ideal[:k], start=1))
    return None if idcg == 0 else dcg / idcg


def ref_ap(ranking, grades):
    rel = {d for d, g in grades.items() if g >= 1}
    if not rel:
        return None
    hits, total = 0, 0.0
    for i, d in enumerate(ranking, start=1):
        if d in rel:
            hits += 1
            total += hits / i
    return total / len(rel)


def ref_recall(ranking, grades, k):
    rel = {d for d, g in grades.items() if g >= 1}
    return len(rel & set(ranking[:k])) / len(rel) if rel else None


def ref_mrr(ranking, grades, k):
    rel = {d for d, g in grades.items() if g >= 1}
    if not rel:
        return None
    for i, d in enumerate(ranking[:k], start=1):
        if d in rel:
            return 1.0 / i
    return 0.0


def make_run(ranking, qid="q1"):
    return Run({qid: [RunEntry(d, float(len(ranking) - i), i + 1, "t")
                      for i, d in enumerate(ranking)]})


def test_criterion_1_metric_oracles():
    t0 = time.monotonic()
    run = make_run(["dx", "d1", "dy"])
    per_q, _ = metrics.ndcg_at_k(run, Qrels({("q1", "d1"): 1}), k=10)
    assert abs(per_q["q1"] - 0.63093) <= 1e-5 + 1e-9
    assert abs(per_q["q1"] - 1 / math.log2(3)) <= 1e-9
    per_q, _ = metrics.map_metric(make_run(["d1", "dx", "d3", "dy"]),
                                  Qrels({("q1", "d1"): 1, ("q1", "d3"): 2}))
    assert abs(per_q["q1"] - 5 / 6) <= 1e-9

    rng = np.random.default_rng(42)
    docs = [f"d{i}" for i in range(60)]
    worst = 0.0
    for _ in range(100):
        ranking = list(rng.permutation(docs)[: int(rng.integers(10, 60))])
        grades = {d: int(rng.integers(0, 4)) for d in rng.choice(docs, size=20)}
        rep = metrics.evaluate(make_run(ranking), Qrels(
            {("q1", d): g for d, g in grades.items()}),
            ndcg_k=10, recall_k=100, mrr_k=10)
        for name, want in (("ndcg@10", ref_ndcg(ranking, grades, 10)),
                           ("map", ref_ap(ranking, grades)),
                           ("recall@100", ref_recall(ranking, grades, 100)),
                           ("mrr@10", ref_mrr(ranking, grades, 10))):
            if want is None:
                assert "q1" not in rep.per_query[name]
            else:
                worst = max(worst, abs(rep.per_query[name]["q1"] - want))
    elapsed = time.monotonic() - t0
    report(1, "metric oracle equivalence", worst <= 1e-12 and elapsed < 10,
           f"max err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. BM25


def test_criterion_2_bm25():
    t0 = time.monotonic()
    idx = bm25.build_index(Collection({"d1": "cat sat", "d2": "cat cat sat",
                                       "d3": "dog"}))
    params = bm25.Bm25Params(k1=1.2, b=0.75)
    idf = math.log(1 + (3 - 2 + 0.5) / (2 + 0.5))
    d1 = idf  # tf=1, dl=avgdl: the length-normalized tf term is exactly 1
    d2 = idf * (2 * 2.2) / (2 + 1.2 * (0.25 + 0.75 * 3 / 2))
    assert abs(bm25.score_one(idx, ["cat"], "d1", params) - d1) <= 1e-9
    assert abs(bm25.score_one(idx, ["cat"], "d2", params) - d2) <= 1e-9

    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(15)]
    for _ in range(50):
        docs = {f"d{i:03d}": " ".join(rng.choice(words, size=int(rng.integers(2, 20))))
                for i in range(int(rng.integers(5, 40)))}
        coll = Collection(docs)
        idx = bm25.build_index(coll)
        q = " ".join(rng.choice(words, size=3))
        got = bm25.retrieve(idx, q, k=len(coll))
        terms = bm25.text_tokens(q)
        want = sorted(((d, bm25.score_one(idx, terms, d, params)) for d in docs),
                      key=lambda kv: (-kv[1], kv[0]))
        want = [(d, s) for d, s in want if s > 0.0]
        assert [d for d, _ in got] == [d for d, _ in want]
        assert all(abs(a - b) <= 1e-9 for (_, a), (_, b) in zip(got, want))
    elapsed = time.monotonic() - t0
    report(2, "bm25 hand case + exhaustive sort", elapsed < 10, f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. CKA


def test_criterion_3_cka():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    x = rng.normal(size=(50, 8))
    y = rng.normal(size=(50, 8))
    assert abs(cka.cka_linear(x, x) - 1.0) <= 1e-9
    assert abs(cka.cka_linear(x, y) - cka.cka_linear(y, x)) <= 1e-12
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    base = cka.cka_linear(x, y)
    assert abs(cka.cka_linear(x @ q, y) - base) <= 1e-7
    assert abs(cka.cka_linear(2.5 * x, 0.3 * y) - base) <= 1e-7
    for _ in range(10_000):
        n = int(rng.integers(3, 12))
        a = rng.normal(size=(n, int(rng.integers(1, 5))))
        b = rng.normal(size=(n, int(rng.integers(1, 5))))
        v = cka.cka_linear(a, b)
        assert 0.0 <= v <= 1.0 + 1e-9
    elapsed = time.monotonic() - t0
    report(3, "cka suite", elapsed < 30, f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# shared tiny vocab/model helpers


VOCAB = tokenizer.Vocab(list(tokenizer.RESERVED) + [f"t{i}" for i in range(40)])


def random_pair(rng, max_len=48):
    q = " ".join(f"t{int(i)}" for i in rng.integers(0, 40, int(rng.integers(2, 6))))
    p = " ".join(f"t{int(i)}" for i in rng.integers(0, 40, int(rng.integers(4, 16))))
    return tokenizer.encode_pair(q, p, VOCAB, max_len)


def small_model(rng_seed, position_mode="learned"):
    cfg = M.ModelConfig(n_layers=2, n_heads=2, hidden=16, ff_dim=32,
                        vocab_size=len(VOCAB.tokens), max_len=48,
                        position_mode=position_mode)
    return M.init(cfg, rng_seed)


# ---------------------------------------------------------------------------
# 4. gradient check


def test_criterion_4_gradient_check():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    mdl = small_model(3)
    pairs = [random_pair(rng) for _ in range(4)]
    labels = np.array([1, 0, 1, 0])
    err = T.grad_check(mdl, (pairs, labels), eps=1e-5, n_coords=200)
    elapsed = time.monotonic() - t0
    report(4, "gradient check", err < 1e-4 and elapsed < 60,
           f"max rel err {err:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. structural bag-of-words invariance


def permute_within_spans(pair, rng):
    ids = list(pair.ids)
    for span in (pair.query_span, pair.passage_span):
        lo, hi = span
        if hi > lo:
            seg = ids[lo:hi + 1]
            rng.shuffle(seg)
            ids[lo:hi + 1] = seg
    return replace(pair, ids=ids)


def test_criterion_5_bow_invariance():
    t0 = time.monotonic()
    rng = np.random.default_rng(19)
    worst = 0.0
    for m in range(20):
        mdl = small_model(100 + m, position_mode="none")
        pair = random_pair(rng)
        base = float(M.forward(mdl, [pair]).relevance_prob[0])
        for _ in range(50):
            s = float(M.forward(mdl, [permute_within_spans(pair, rng)]).relevance_prob[0])
            worst = max(worst, abs(s - base))
    elapsed = time.monotonic() - t0
    report(5, "bag-of-words invariance", worst <= 1e-6 and elapsed < 60,
           f"max |Δscore| {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. perturbation contracts


def test_criterion_6_perturbation_contracts():
    t0 = time.monotonic()
    rng = np.random.default_rng(23)
    modes = [perturb.SORT_DESC, perturb.shuffle_mode(0), perturb.shuffle_mode(5)]
    for case in range(10_000):
        pair = random_pair(rng)
        mode = modes[case % len(modes)]
        key = f"k{case}"
        out = perturb.apply(pair, mode, key)
        # multiset preserved overall and per span
        assert sorted(out.ids) == sorted(pair.ids)
        for span in ("query_span", "passage_span"):
            assert sorted(out.span_ids(getattr(out, span))) == \
                   sorted(pair.span_ids(getattr(pair, span)))
        # specials fixed in place
        assert out.ids[0] == pair.ids[0]
        assert out.sep_positions == pair.sep_positions
        if mode is perturb.SORT_DESC:
            again = perturb.apply(out, mode, key)
            assert again.ids == out.ids  # idempotent
            for span in (out.query_span, out.passage_span):
                seg = out.span_ids(span)
                assert seg == sorted(seg, reverse=True)
        else:
            assert perturb.apply(pair, mode, key).ids == out.ids  # deterministic
    elapsed = time.monotonic() - t0
    report(6, "perturbation contracts", elapsed < 30, f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. position information is real when order matters


def test_criterion_7_bigram_order_task():
    t0 = time.monotonic()
    spec = SyntheticSpec(relevance_rule="bigram_order")
    coll, qs, qrels, triples = corpus.generate_synthetic(spec)
    vocab = experiment._vocab_for(coll, qs)
    train_ids, _, test_ids = experiment._split_queries(qs, 50, 50)
    t2q = {t: qid for qid, t in qs.entries.items()}
    train_tr = [t for t in triples if t2q[t[0]] in set(train_ids)]
    test_tr = [t for t in triples if t2q[t[0]] in set(test_ids)]
    accs = {}
    for pos_mode in ("learned", "none"):
        mdl = M.init(M.ModelConfig(vocab_size=len(vocab.tokens),
                                   position_mode=pos_mode), 13)
        mdl, _ = T.train(mdl, train_tr, T.TrainConfig(seed=13, epoch_size=10**9),
                         vocab)
        accs[pos_mode] = experiment.held_out_accuracy(mdl, test_tr, vocab)
    elapsed = time.monotonic() - t0
    ok = accs["learned"] >= 0.90 and accs["none"] <= 0.60 and elapsed < 300
    report(7, "order task needs positions", ok,
           f"learned {accs['learned']:.3f}, none {accs['none']:.3f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8 + 9. the full condition matrix


@pytest.fixture(scope="session")
def matrix(tmp_path_factory):
    out = tmp_path_factory.mktemp("matrix")
    t0 = time.monotonic()
    experiment.run_experiment(experiment.ExperimentSpec(), out, log=lambda *a: None)
    elapsed = time.monotonic() - t0
    rows = {}
    lines = (out / "summary.tsv").read_text().splitlines()
    for line in lines[1:]:
        parts = line.split("\t")
        rows[tuple(parts[:3])] = float(parts[3])  # ndcg@10
    return out, rows, elapsed


def test_criterion_8_condition_matrix(matrix):
    out, ndcg, elapsed = matrix
    base = ndcg[("learned", "natural", "natural")]
    nopos = ndcg[("none", "natural", "natural")]
    nat_shuf = ndcg[("learned", "natural", "shuffle:13")]
    shuf_shuf = ndcg[("learned", "shuffle:13", "shuffle:13")]
    sort_sort = ndcg[("learned", "sort", "sort")]
    sort_nat = ndcg[("learned", "sort", "natural")]
    a = abs(nopos - base) <= 0.05
    b = base - nat_shuf >= 0.10
    c = abs(shuf_shuf - base) <= 0.05 and abs(sort_sort - base) <= 0.05
    d = abs(sort_nat - sort_sort) <= 0.05
    ok = a and b and c and d and elapsed < 900
    report(8, "condition matrix", ok,
           f"base {base:.3f}, nopos {nopos:.3f} ({'a✓' if a else 'a✗'}), "
           f"nat/shuf {nat_shuf:.3f} ({'b✓' if b else 'b✗'}), "
           f"shuf/shuf {shuf_shuf:.3f} sort/sort {sort_sort:.3f} ({'c✓' if c else 'c✗'}), "
           f"sort/nat {sort_nat:.3f} ({'d✓' if d else 'd✗'}), {elapsed:.0f}s")


def test_criterion_9_representation_similarity(matrix):
    out, _, _ = matrix
    t0 = time.monotonic()
    cls_rows = {}
    lines = (out / "cka" / "cls_similarity.tsv").read_text().splitlines()
    for line in lines[1:]:
        pos, tp, comp, val = line.split("\t")
        cls_rows[(pos, tp, comp)] = float(val)
    shuf_trained = cls_rows[("learned", "shuffle:13", "shuffle")]
    nat_trained = cls_rows[("learned", "natural", "shuffle")]

    layer_rows = []
    for line in (out / "cka" / "layers_sort.csv").read_text().splitlines()[1:]:
        layer_rows.append(float(line.split(",")[1]))
    early = max(layer_rows[:-1])
    final = layer_rows[-1]
    elapsed = time.monotonic() - t0
    ok = (shuf_trained > 0.95 and shuf_trained > nat_trained
          and early > final and elapsed < 300)
    report(9, "representation similarity", ok,
           f"cls shuffle-trained {shuf_trained:.4f} vs natural-trained "
           f"{nat_trained:.4f}, layers early {early:.4f} > final {final:.4f}")


# ---------------------------------------------------------------------------
# 10. round trips


def test_criterion_10_round_trips(tmp_path):
    rng = np.random.default_rng(31)
    mdl = small_model(9)
    pairs = [random_pair(rng) for _ in range(6)]
    before = M.forward(mdl, pairs).logits
    M.save(mdl, tmp_path / "m.ckpt")
    after = M.forward(M.load(tmp_path / "m.ckpt"), pairs).logits
    assert np.array_equal(before, after)  # bitwise

    run = Run({"q1": [RunEntry("d1", 2.5, 1, "t"), RunEntry("d2", 1.25, 2, "t")]})
    corpus.write_run(run, tmp_path / "a.run")
    corpus.write_run(corpus.load_run(tmp_path / "a.run"), tmp_path / "b.run")
    assert (tmp_path / "a.run").read_bytes() == (tmp_path / "b.run").read_bytes()
    qrels = Qrels({("q1", "d1"): 2, ("q2", "d9"): 0})
    corpus.write_qrels(qrels, tmp_path / "q.txt")
    assert corpus.load_qrels(tmp_path / "q.txt").grades == qrels.grades

    # a small end-to-end experiment rerun is byte-identical
    spec = experiment.ExperimentSpec(
        synthetic=SyntheticSpec(vocab_size=80, n_docs=200, n_queries=20,
                                doc_len_range=(10, 16), query_len_range=(6, 6),
                                seed=5),
        train=T.TrainConfig(total_steps=40, warmup_steps=5, epoch_size=20,
                            batch_size=8),
        conditions=[experiment.parse_condition("learned/natural/natural"),
                    experiment.parse_condition("none/natural/natural")],
        rerank_k=20, dev_queries=4, test_queries=6,
    )
    blobs = []
    for sub in ("one", "two"):
        experiment.run_experiment(spec, tmp_path / sub, log=lambda *a: None)
        blobs.append((tmp_path / sub / "summary.tsv").read_bytes())
    report(10, "round trips", blobs[0] == blobs[1])
