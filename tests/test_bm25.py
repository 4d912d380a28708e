import numpy as np
import pytest

from orderlab import bm25
from orderlab.bm25 import Bm25Params, build_index, retrieve, retrieve_run, score_one
from orderlab.corpus import Collection, QuerySet


CATS = Collection({"d1": "cat sat", "d2": "cat cat sat", "d3": "dog"})


def random_collection(rng, n_docs=30, vocab=12):
    words = [f"w{i}" for i in range(vocab)]
    docs = {}
    for i in range(n_docs):
        n = int(rng.integers(2, 15))
        docs[f"d{i:03d}"] = " ".join(rng.choice(words, size=n))
    return Collection(docs)


class TestTokenization:
    def test_lowercase_and_split(self):
        assert bm25.text_tokens("The CAT, sat-down.") == ["the", "cat", "sat", "down"]

    def test_numbers_kept(self):
        assert bm25.text_tokens("v2 beats v1!") == ["v2", "beats", "v1"]


class TestIndex:
    def test_stats(self):
        idx = build_index(CATS)
        assert idx.n_docs == 3
        assert idx.avgdl == pytest.approx(2.0)
        assert idx.doc_lengths == {"d1": 2, "d2": 3, "d3": 1}
        assert idx.df("cat") == 2
        assert idx.df("unicorn") == 0

    def test_postings_sorted_by_doc(self):
        idx = build_index(CATS)
        assert idx.postings["cat"] == [("d1", 1), ("d2", 2)]

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            build_index(Collection())


class TestScoring:
    # three-doc corpus scored from the formula by hand:
    #   idf(cat) = ln(1 + (3 - 2 + 0.5)/(2 + 0.5)) = ln(1.6)
    #   d1: tf 1, dl 2 = avgdl -> idf * 2.2/2.2
    #   d2: tf 2, dl 3 -> idf * 4.4/3.65
    def test_hand_computed_cat_scores(self):
        idx = build_index(CATS)
        params = Bm25Params(k1=1.2, b=0.75)
        assert score_one(idx, ["cat"], "d1", params) == pytest.approx(
            0.47000362924573563, abs=1e-9)
        assert score_one(idx, ["cat"], "d2", params) == pytest.approx(
            0.5665797174469143, abs=1e-9)
        assert score_one(idx, ["cat"], "d3", params) == 0.0

    def test_ranking_d2_d1_d3_absent(self):
        idx = build_index(CATS)
        ranked = retrieve(idx, "cat", k=10)
        assert [d for d, _ in ranked] == ["d2", "d1"]

    def test_duplicate_query_terms_counted_twice(self):
        idx = build_index(CATS)
        one = retrieve(idx, "cat", k=3)
        two = retrieve(idx, "cat cat", k=3)
        for (d1, s1), (d2, s2) in zip(one, two):
            assert d1 == d2
            assert s2 == pytest.approx(2 * s1)

    @pytest.mark.parametrize("k1,b", [(1.2, 0.75), (2.0, 0.3), (0.9, 0.0), (1.2, 1.0)])
    def test_retrieve_matches_exhaustive_oracle(self, k1, b):
        # full-depth retrieval from an index built for (k1, b) equals
        # scoring every document directly under the same params
        params = Bm25Params(k1=k1, b=b)
        rng = np.random.default_rng(1)
        for trial in range(20):
            coll = random_collection(rng)
            idx = build_index(coll, params)
            q = " ".join(rng.choice([f"w{i}" for i in range(12)], size=3))
            got = retrieve(idx, q, k=len(coll))
            terms = bm25.text_tokens(q)
            want = sorted(
                ((d, score_one(idx, terms, d, params)) for d in coll.entries),
                key=lambda kv: (-kv[1], kv[0]),
            )
            # the same floats: the index's norm is the oracle's expression
            assert got == [(d, s) for d, s in want if s > 0.0]

    def test_idf_nonnegative_for_ubiquitous_term(self):
        coll = Collection({f"d{i}": "cat" for i in range(5)})
        idx = build_index(coll)
        assert idx.idf("cat") > 0.0

    def test_b_zero_ignores_length(self):
        idx = build_index(Collection({"d1": "cat", "d2": "cat " + "pad " * 40}))
        params = Bm25Params(k1=1.2, b=0.0)
        s1 = score_one(idx, ["cat"], "d1", params)
        s2 = score_one(idx, ["cat"], "d2", params)
        assert s1 == pytest.approx(s2)

    def test_param_validation(self):
        for k1 in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="k1 must be finite and >= 0"):
                Bm25Params(k1=k1).validate()
        with pytest.raises(ValueError):
            Bm25Params(b=1.5).validate()
        with pytest.raises(ValueError):
            retrieve(build_index(CATS), "cat", k=0)
        for params in (Bm25Params(k1=-1.0), Bm25Params(k1=float("nan")), Bm25Params(b=1.5)):
            with pytest.raises(ValueError):
                build_index(CATS, params)


class TestRun:
    def test_retrieve_run_format(self):
        idx = build_index(CATS)
        qs = QuerySet({"q2": "dog", "q1": "cat sat"})
        run = retrieve_run(idx, qs, k=5, tag="first")
        assert sorted(run.entries) == ["q1", "q2"]
        e = run.entries["q1"][0]
        assert e.rank == 1
        assert e.tag == "first"
        run.validate()

    def test_tie_break_by_doc_id(self):
        coll = Collection({"db": "cat", "da": "cat"})
        run = retrieve_run(build_index(coll), QuerySet({"q": "cat"}), k=2)
        assert [e.doc_id for e in run.entries["q"]] == ["da", "db"]
