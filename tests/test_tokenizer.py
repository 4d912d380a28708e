import numpy as np
import pytest

from orderlab import tokenizer as tok
from orderlab.corpus import SyntheticSpec, generate_synthetic
from orderlab.tokenizer import (CLS_ID, PAD_ID, SEP_ID, UNK, UNK_ID, Vocab,
                                build_vocab, detokenize, encode_pair, tokenize)


def make_vocab(extra):
    return Vocab(list(tok.RESERVED) + list(extra))


class TestBuildVocab:
    def test_tiny_corpus_tiers(self):
        # chars by frequency (a appears 5x, b 2x), then whole words by
        # frequency, then suffix pieces; target 8 leaves room for exactly
        # two post-char entries
        vocab = build_vocab(["aa", "aa", "ab"], target_size=8)
        assert vocab.tokens[:4] == tok.RESERVED
        assert vocab.tokens[4:6] == ["a", "b"]
        assert vocab.tokens[6] == "aa"   # freq 2 beats ab freq 1
        assert vocab.tokens[7] == "ab"

    def test_suffix_tier_reached(self):
        vocab = build_vocab(["aa", "aa", "ab"], target_size=10)
        assert "##a" in vocab.tokens and "##b" in vocab.tokens

    def test_deterministic(self):
        texts = ["the cat sat", "the dog ran", "cats and dogs"]
        assert build_vocab(texts, 30).tokens == build_vocab(texts, 30).tokens

    def test_target_below_char_count(self):
        with pytest.raises(ValueError):
            build_vocab(["abcdefgh"], target_size=6)

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            build_vocab([], target_size=10)

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocab(["hello world", "hello there"], 20)
        p = tmp_path / "vocab.txt"
        tok.save_vocab(vocab, p)
        assert tok.load_vocab(p).tokens == vocab.tokens


class TestTokenize:
    def test_whole_word(self):
        vocab = make_vocab(["white"])
        assert tokenize("White", vocab) == ["white"]

    def test_greedy_pieces(self):
        vocab = make_vocab(["b", "##lea", "##ch", "##l"])
        assert tokenize("bleach", vocab) == ["b", "##lea", "##ch"]

    def test_unknown_word(self):
        vocab = make_vocab(["b"])
        assert tokenize("xyz", vocab) == [UNK]

    def test_punctuation_split(self):
        vocab = make_vocab(["white", ",", "clothes", "."])
        assert tokenize("white, clothes.", vocab) == ["white", ",", "clothes", "."]

    @pytest.mark.parametrize("text", ["white bleach", "Bleach, xyz white.", "bl WHITE bleachl",
                                      "q7 , .", ""])
    def test_token_ids_match_tokenize(self, text):
        # whole words, "##" pieces and [UNK]: one id per token, in order
        vocab = make_vocab(["white", "b", "##lea", "##ch", "##l", ",", "."])
        assert tok.token_ids(text, vocab) == [vocab.id(t) for t in tokenize(text, vocab)]

    def test_token_ids_match_tokenize_on_a_split_corpus(self):
        # 20 whole words; every other word splits into "w" and digit
        # pieces, and a word with a letter outside the vocab is [UNK]
        coll, qs, _, _ = generate_synthetic(SyntheticSpec(vocab_size=200, n_docs=60,
                                                          n_queries=6, seed=4))
        texts = list(coll.entries.values()) + list(qs.entries.values())
        digits = "0123456789"
        words = sorted({w for t in texts for w in t.split()})
        vocab = make_vocab(["w", *digits, *words[:20], *(f"##{d}" for d in digits),
                            *(f"##{a}{b}" for a in "01" for b in digits)])
        split = [t for x in texts for t in tokenize(x, vocab)]
        assert "##0" in split and "[UNK]" not in split and "w" in split
        for text in texts + ["w0001 zz w17x"]:
            assert tok.token_ids(text, vocab) == [vocab.id(t) for t in tokenize(text, vocab)]

    def test_detokenize_inverse(self):
        vocab = make_vocab(["b", "##lea", "##ch", "white"])
        tokens = tokenize("white bleach", vocab)
        assert detokenize(tokens) == "white bleach"


class TestEncodePair:
    vocab = make_vocab([f"t{i}" for i in range(30)])

    def test_layout(self):
        pair = encode_pair("t0", "t1 t2", self.vocab, 16)
        assert pair.ids[0] == CLS_ID
        assert pair.ids[pair.sep_positions[0]] == SEP_ID
        assert pair.ids[-1] == SEP_ID
        assert pair.query_span == (1, 1)
        assert pair.passage_span == (3, 4)
        assert pair.segments == [0, 0, 0, 1, 1, 1]
        assert pair.n_total == 6

    def test_span_ids(self):
        pair = encode_pair("t0", "t1 t2", self.vocab, 16)
        assert pair.span_ids(pair.query_span) == [self.vocab.id("t0")]
        assert pair.span_ids(pair.passage_span) == [self.vocab.id("t1"), self.vocab.id("t2")]

    def test_truncation_passage_tail_first(self):
        q = "t0 t1"
        p = " ".join(f"t{i}" for i in range(2, 22))
        pair = encode_pair(q, p, self.vocab, 10)
        assert pair.n_total == 10
        # full query survives, passage keeps its head
        assert pair.span_ids(pair.query_span) == [self.vocab.id("t0"), self.vocab.id("t1")]
        assert pair.span_ids(pair.passage_span) == [self.vocab.id(f"t{i}") for i in range(2, 7)]

    def test_very_long_query_leaves_one_passage_token(self):
        q = " ".join(f"t{i}" for i in range(20))
        pair = encode_pair(q, "t25 t26", self.vocab, 12)
        assert pair.n_total == 12
        assert pair.span_ids(pair.passage_span) == [self.vocab.id("t25")]

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            encode_pair("", "t1", self.vocab, 16)

    def test_max_len_floor(self):
        with pytest.raises(ValueError):
            encode_pair("t0", "t1", self.vocab, 4)

    def test_round_trip_on_synthetic_pairs(self):
        spec = SyntheticSpec(vocab_size=200, n_docs=120, n_queries=12, seed=2)
        coll, qs, qrels, _ = generate_synthetic(spec)
        texts = list(coll.entries.values()) + list(qs.entries.values())
        vocab = build_vocab(texts, 4 + 10 + 200)
        rng = np.random.default_rng(0)
        qids = sorted(qs.entries)
        doc_ids = sorted(coll.entries)
        for _ in range(100):
            qid = qids[rng.integers(len(qids))]
            doc_id = doc_ids[rng.integers(len(doc_ids))]
            pair = encode_pair(qs.entries[qid], coll.entries[doc_id], vocab, 128)
            assert pair.n_total <= 128
            pair.validate()
            decoded = tok.decode_ids(pair.span_ids(pair.passage_span), vocab)
            assert detokenize(decoded) == coll.entries[doc_id].lower()
            decoded_q = tok.decode_ids(pair.span_ids(pair.query_span), vocab)
            assert detokenize(decoded_q) == qs.entries[qid].lower()

    def test_multiset_of_ids_matches_token_stream(self):
        pair = encode_pair("t3 t1", "t2 t2 t9", self.vocab, 32)
        want = sorted([CLS_ID, SEP_ID, SEP_ID, self.vocab.id("t3"), self.vocab.id("t1"),
                       self.vocab.id("t2"), self.vocab.id("t2"), self.vocab.id("t9")])
        assert sorted(pair.ids) == want


class TestVocabClass:
    def test_reserved_ids_pinned(self):
        assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID) == (0, 1, 2, 3)

    def test_reserved_prefix_required(self):
        with pytest.raises(ValueError):
            Vocab(["a", "b", "c", "d"])

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError):
            Vocab(list(tok.RESERVED) + ["x", "x"])
