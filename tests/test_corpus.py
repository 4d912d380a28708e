import hashlib

import numpy as np
import pytest

from orderlab import corpus, experiment, tokenizer
from orderlab.corpus import (Collection, ParseError, Qrels, Run, RunEntry,
                             SyntheticSpec, ValidationError, generate_synthetic)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestCollectionIO:
    def test_two_lines(self, tmp_path):
        p = write(tmp_path, "c.tsv", "d1\thello world\nd2\tfoo\n")
        coll = corpus.load_collection(p)
        assert len(coll) == 2
        assert coll.entries["d1"] == "hello world"

    def test_empty_file(self, tmp_path):
        coll = corpus.load_collection(write(tmp_path, "c.tsv", ""))
        assert len(coll) == 0

    def test_missing_tab(self, tmp_path):
        p = write(tmp_path, "c.tsv", "d1 hello\n")
        with pytest.raises(ParseError, match=":1:"):
            corpus.load_collection(p)

    def test_duplicate_doc_id(self, tmp_path):
        p = write(tmp_path, "c.tsv", "d1\ta\nd1\tb\n")
        with pytest.raises(ParseError, match="duplicate"):
            corpus.load_collection(p)

    def test_round_trip(self, tmp_path):
        coll = Collection({"d2": "foo bar", "d1": "hello"})
        p = tmp_path / "c.tsv"
        corpus.write_collection(coll, p)
        assert corpus.load_collection(p).entries == coll.entries


class TestQrelsIO:
    def test_parse_line(self, tmp_path):
        qrels = corpus.load_qrels(write(tmp_path, "q.txt", "q1 0 d7 2\n"))
        assert qrels.grade("q1", "d7") == 2

    def test_non_integer_rel(self, tmp_path):
        p = write(tmp_path, "q.txt", "q1 0 d7 high\n")
        with pytest.raises(ParseError, match=":1:"):
            corpus.load_qrels(p)

    def test_duplicate_pair(self, tmp_path):
        p = write(tmp_path, "q.txt", "q1 0 d7 2\nq1 0 d7 1\n")
        with pytest.raises(ParseError, match="duplicate"):
            corpus.load_qrels(p)

    def test_round_trip(self, tmp_path):
        qrels = Qrels({("q1", "d1"): 2, ("q2", "d9"): 0})
        p = tmp_path / "q.txt"
        corpus.write_qrels(qrels, p)
        assert corpus.load_qrels(p).grades == qrels.grades


class TestRunIO:
    def test_parse_line(self, tmp_path):
        run = corpus.load_run(write(tmp_path, "r.run", "q1 Q0 d7 1 13.37 bm25\n"))
        e = run.entries["q1"][0]
        assert (e.doc_id, e.rank, e.score, e.tag) == ("d7", 1, 13.37, "bm25")

    def test_non_contiguous_ranks(self, tmp_path):
        p = write(tmp_path, "r.run", "q1 Q0 d7 1 2.0 t\nq1 Q0 d8 3 1.0 t\n")
        with pytest.raises(ValidationError):
            corpus.load_run(p)

    def test_increasing_scores_rejected(self, tmp_path):
        p = write(tmp_path, "r.run", "q1 Q0 d7 1 1.0 t\nq1 Q0 d8 2 2.0 t\n")
        with pytest.raises(ValidationError):
            corpus.load_run(p)

    def test_non_numeric_score(self, tmp_path):
        p = write(tmp_path, "r.run", "q1 Q0 d7 1 high t\n")
        with pytest.raises(ParseError, match=":1:"):
            corpus.load_run(p)

    def test_write_load_identity(self, tmp_path):
        run = Run({"q1": [RunEntry("d1", 2.123456789, 1, "t"),
                          RunEntry("d2", 1.0, 2, "t")]})
        p = tmp_path / "r.run"
        corpus.write_run(run, p)
        loaded = corpus.load_run(p)
        assert loaded.entries["q1"][0].score == pytest.approx(2.123457, abs=1e-9)
        assert [e.doc_id for e in loaded.entries["q1"]] == ["d1", "d2"]
        # a second write/load cycle is byte-stable
        p2 = tmp_path / "r2.run"
        corpus.write_run(loaded, p2)
        assert p.read_text() == p2.read_text()


# independent re-application of the relevance rules, written from the
# rule definitions rather than by calling the generator's helpers
def oracle_overlap(query, doc):
    q = set(query.split())
    frac = len(q & set(doc.split())) / len(q)
    for grade, lo in ((3, 1.0), (2, 0.75), (1, 0.5)):
        if frac >= lo:
            return grade
    return 0


def oracle_bigram(query, doc):
    q = query.split()
    a, b = q[0], q[1]
    d = doc.split()
    n = 0
    for i in range(len(d) - 1):
        if d[i] == a and d[i + 1] == b:
            n += 1
    return min(n, 3)


class TestSyntheticGeneration:
    def test_determinism_byte_identical(self, tmp_path):
        spec = SyntheticSpec(vocab_size=300, n_docs=300, n_queries=20, seed=11)
        blobs = []
        for i in range(2):
            coll, qs, qrels, triples = generate_synthetic(spec)
            d = tmp_path / f"run{i}"
            d.mkdir()
            corpus.write_collection(coll, d / "c.tsv")
            corpus.write_queries(qs, d / "q.tsv")
            corpus.write_qrels(qrels, d / "qr.txt")
            corpus.write_triples(triples, d / "t.tsv")
            blobs.append(b"".join(p.read_bytes() for p in sorted(d.iterdir())))
        assert blobs[0] == blobs[1]

    def test_overlap_doc_equal_to_query_is_max_grade(self):
        assert oracle_overlap("w1 w2 w3 w4", "w1 w2 w3 w4 " * 3) == 3

    def test_qrels_match_independent_rule_application(self):
        spec = SyntheticSpec(vocab_size=1000, n_docs=2000, n_queries=200, seed=7)
        coll, qs, qrels, _ = generate_synthetic(spec)
        # every emitted judgment agrees with the oracle
        for (qid, doc_id), grade in qrels.grades.items():
            assert oracle_overlap(qs.entries[qid], coll.entries[doc_id]) == grade
        # no positively-graded pair is missing: full-scan histogram match
        doc_sets = {d: set(t.split()) for d, t in coll.entries.items()}
        n_positive = 0
        for qid, qtext in qs.entries.items():
            q = set(qtext.split())
            for doc_id in coll.entries:
                if len(q & doc_sets[doc_id]) / len(q) >= 0.5:
                    n_positive += 1
        assert n_positive == sum(1 for g in qrels.grades.values() if g > 0)

    def test_overlap_grade_permutation_invariant(self):
        spec = SyntheticSpec(vocab_size=300, n_docs=300, n_queries=20, seed=5)
        coll, qs, qrels, _ = generate_synthetic(spec)
        rng = np.random.default_rng(0)
        items = sorted(qrels.grades.items())
        for (qid, doc_id), grade in items[:200]:
            tokens = coll.entries[doc_id].split()
            rng.shuffle(tokens)
            assert oracle_overlap(qs.entries[qid], " ".join(tokens)) == grade

    @pytest.mark.parametrize("rule", ["overlap", "bigram_order"])
    def test_every_query_has_all_grades(self, rule):
        spec = SyntheticSpec(vocab_size=300, n_docs=300, n_queries=20, seed=3,
                             relevance_rule=rule)
        coll, qs, qrels, _ = generate_synthetic(spec)
        by_q = qrels.by_query()
        for qid in qs.entries:
            assert {0, 1, 2, 3} <= set(by_q[qid].values())

    def test_bigram_qrels_match_oracle(self):
        spec = SyntheticSpec(vocab_size=400, n_docs=400, n_queries=30, seed=9,
                             relevance_rule="bigram_order")
        coll, qs, qrels, _ = generate_synthetic(spec)
        for (qid, doc_id), grade in qrels.grades.items():
            assert oracle_bigram(qs.entries[qid], coll.entries[doc_id]) == grade

    @pytest.mark.parametrize("rule,oracle,zero_slots,n_planted", [
        ("overlap", oracle_overlap, [8], 9),
        ("bigram_order", oracle_bigram, [3, 4], 5),
    ])
    def test_qrels_equal_a_full_scan(self, rule, oracle, zero_slots, n_planted):
        # every query against every doc, in query then doc-id order, then
        # the planted grade-0 docs: the judgments and their order must be
        # exactly these, so no pair the postings miss can go unnoticed
        spec = SyntheticSpec(vocab_size=400, n_docs=400, n_queries=30, seed=9,
                             relevance_rule=rule)
        coll, qs, qrels, _ = generate_synthetic(spec)
        expected = {}
        for qi, qid in enumerate(sorted(qs.entries)):
            for doc_id in sorted(coll.entries):
                grade = oracle(qs.entries[qid], coll.entries[doc_id])
                if grade > 0:
                    expected[(qid, doc_id)] = grade
            for slot in zero_slots:
                expected.setdefault((qid, f"d{qi * n_planted + slot:06d}"), 0)
        assert list(qrels.grades.items()) == list(expected.items())

    def test_triples_pair_positive_with_nonrelevant(self):
        spec = SyntheticSpec(vocab_size=300, n_docs=300, n_queries=20, seed=3)
        coll, qs, qrels, triples = generate_synthetic(spec)
        assert triples
        for q, pos, neg in triples:
            assert q and pos and neg
            assert oracle_overlap(q, pos) >= 2
            # negatives are non-relevant or marginal near-misses
            assert oracle_overlap(q, neg) <= 1

    def test_bigram_triples_marker_counts_match(self):
        # positives and their paired negatives carry identical marker
        # multisets, so only order separates them
        spec = SyntheticSpec(vocab_size=400, n_docs=400, n_queries=30, seed=9,
                             relevance_rule="bigram_order")
        _, _, _, triples = generate_synthetic(spec)
        for q, pos, neg in triples:
            a, b = q.split()[:2]
            for marker in (a, b):
                assert pos.split().count(marker) == neg.split().count(marker)

    def test_infeasible_specs(self):
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticSpec(vocab_size=0))
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticSpec(query_len_range=(50, 40)))
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticSpec(vocab_size=4, query_len_range=(6, 8)))
        with pytest.raises(ValueError):
            # too few docs to plant graded docs for every query
            generate_synthetic(SyntheticSpec(n_docs=20, n_queries=100))


class TestSameDraws:
    """The generator's draws equal `Generator.choice`'s and leave the stream
    where choice leaves it: the next draw of both generators agrees."""

    @pytest.mark.parametrize("m", [1, 2, 7, 150, 300])
    @pytest.mark.parametrize("exponent", [1.1, 0.5])
    def test_cdf_draw_equals_choice_with_p(self, m, exponent):
        probs = corpus._zipf_probs(m, exponent)
        cdf = corpus._zipf_cdf(m, exponent)
        for seed in range(200):
            for n in (1, 8, 23):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                got = corpus._draw(ours, cdf, n)
                want = theirs.choice(m, size=n, p=probs)
                assert got.tolist() == want.tolist()
                assert ours.random() == theirs.random()

    @pytest.mark.parametrize("seq", [[5], [3, 9], list(range(100, 117)),
                                     np.arange(150, 300, 4)], ids=["1", "2", "17", "array"])
    def test_pick_equals_choice(self, seq):
        for seed in range(200):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            assert corpus._pick(ours, seq) == theirs.choice(seq)
            assert ours.random() == theirs.random()


def _file_digests(spec, tmp_path):
    coll, qs, qrels, triples = generate_synthetic(spec)
    vocab = experiment._vocab_for(coll, qs)
    for name, write, obj in (("collection.tsv", corpus.write_collection, coll),
                             ("queries.tsv", corpus.write_queries, qs),
                             ("qrels.txt", corpus.write_qrels, qrels),
                             ("triples.tsv", corpus.write_triples, triples),
                             ("vocab.txt", tokenizer.save_vocab, vocab)):
        write(obj, tmp_path / name)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}


# sha256 of each file generated from three specs, recorded from the
# generator as it drew through `Generator.choice`
GOLDEN = {
    # the benchmark's matrix corpus (perfbench/workloads.matrix_spec(1).synthetic)
    "matrix_1": (SyntheticSpec(n_docs=2000, n_queries=200, seed=1), {
        "collection.tsv": "9194f8f90af0fa968fd1da83d14ed49f8c35bf201e95cff07d4536d8e1b7477f",
        "queries.tsv": "843852d256f4234e4f942d9523d7bc97076fef336470541498d555191ac05ce9",
        "qrels.txt": "14ca76bcd3eef50aa93ccfb66f9bba4f4c18a04fdb75c905336605e610c65a2a",
        "triples.tsv": "8268d52bc45d02bbafba6cd9d004147ff7830bc65585f44f6c738953274bebbe",
        "vocab.txt": "7ca8262509072766052d9a44435dfb526794356ec8ec7354a3834db98ed2158b",
    }),
    "overlap_3000": (SyntheticSpec(n_docs=3000, n_queries=300, seed=4), {
        "collection.tsv": "ea7c658a7fb678cefe4520066faf52c59c5f78cd431fce4ce01e59770fca78cd",
        "queries.tsv": "280ace62f1c6d16659393e3ce901d311d3148294f33d45f29a263055a249f5a7",
        "qrels.txt": "a6f9cd7041e88a9e19cff025d8ee73c12863a8ef108d0ab3310ab1f8c11a6e0a",
        "triples.tsv": "81819a8f4fb06f72754632f74d1839c310f3c6f8404137d766f4f15498e7b174",
        "vocab.txt": "0689551e98c988d98ee73c7c04afed314f506f245a41d3ab2ab15dbedbcf3bef",
    }),
    "bigram_order": (SyntheticSpec(relevance_rule="bigram_order", n_docs=2000, n_queries=200,
                                   seed=2), {
        "collection.tsv": "c5fdaa18a8c641d7ba369b9a644f5b00ada9ea650aa4b34c430bcb543304e97d",
        "queries.tsv": "4415b097d4f2cdfa956550f81fc519e47e548d20a12bf94195d0c43866d07f26",
        "qrels.txt": "bff085a55faf5d92106e5047a403005675c76cce545ce16f64c95747536ed134",
        "triples.tsv": "0bff20f2b7e574ddc57d72e670f7ce53e87b884ba132d0cc80cd261d9ecc1b25",
        "vocab.txt": "53a3e6db462a5448c07ce013adbd58f6bfef672bc9457ac2d8cd9068770e2d0d",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generated_files_match_golden_digests(name, tmp_path):
    spec, want = GOLDEN[name]
    assert _file_digests(spec, tmp_path) == want
