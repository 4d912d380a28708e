from collections import Counter

import numpy as np
import pytest

from orderlab import experiment
from orderlab import model as M
from orderlab import tokenizer as tok
from orderlab.corpus import Collection, QuerySet, SyntheticSpec, generate_synthetic
from orderlab.tokenizer import (CLS_ID, PAD_ID, SEP_ID, UNK, UNK_ID, Vocab,
                                build_vocab, encode_pair)


def make_vocab(extra):
    return Vocab(list(tok.RESERVED) + list(extra))


class TestBuildVocab:
    def test_tiny_corpus_tiers(self):
        # chars by frequency (a appears 5x, b 2x), then whole words by
        # frequency
        vocab = build_vocab(["aa", "aa", "ab"])
        assert vocab.tokens[:4] == tok.RESERVED
        assert vocab.tokens[4:6] == ["a", "b"]
        assert vocab.tokens[6] == "aa"   # freq 2 beats ab freq 1
        assert vocab.tokens[7] == "ab"

    def test_stops_after_whole_words(self):
        # every char and every word, once each, and nothing more: a
        # one-char word is its char's token
        vocab = build_vocab(["aa", "aa", "ab", "b"])
        assert vocab.tokens == [*tok.RESERVED, "a", "b", "aa", "ab"]

    def test_deterministic(self):
        texts = ["the cat sat", "the dog ran", "cats and dogs"]
        assert build_vocab(texts).tokens == build_vocab(texts).tokens

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            build_vocab([])

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocab(["hello world", "hello there"])
        p = tmp_path / "vocab.txt"
        tok.save_vocab(vocab, p)
        assert tok.load_vocab(p).tokens == vocab.tokens


def per_text_vocab(texts):
    """The vocab built here tier by tier, with words counted by
    pretokenizing each text on its own: the reserved tokens, every
    character, then every word not already a token, each tier by
    descending count and then lexicographically."""
    word_freq = Counter()
    for text in texts:
        word_freq.update(tok._pretokenize(text))
    char_freq = Counter()
    for word, n in word_freq.items():
        char_freq.update({ch: n * word.count(ch) for ch in set(word)})
    chars = sorted(char_freq, key=lambda c: (-char_freq[c], c))
    words = sorted((w for w in word_freq if w not in chars),
                   key=lambda w: (-word_freq[w], w))
    return Vocab([*tok.RESERVED, *chars, *words])


class TestOnePassCount:
    """Counting words in one pass over the joined texts gives the vocab
    that pretokenizing each text gives, token for token."""

    def test_default_corpus(self):
        coll, qs, _, _ = generate_synthetic(SyntheticSpec())
        texts = list(coll.entries.values()) + list(qs.entries.values())
        assert experiment._vocab_for(coll, qs).tokens == per_text_vocab(texts).tokens

    TEXTS = ["Hello WORLD, hello world!", "it's a TEST: isn't it?", "a b c I x",
             "unbelievable believable unbelief", "Ends with punctuation.", "...",
             "ΟΔΟΣ ΣΟΦΟΣ", "Σ", "ΑΣ", "x\ty\nz", "", "  spaced   out  "]

    def test_mixed_texts(self):
        got = experiment._vocab_for(
            Collection({f"d{i}": t for i, t in enumerate(self.TEXTS[:-4])}),
            QuerySet({f"q{i}": t for i, t in enumerate(self.TEXTS[-4:])}))
        assert got.tokens == per_text_vocab(self.TEXTS).tokens

    def test_every_word_is_a_token(self):
        # the experiment's sizing leaves no corpus word to [UNK]
        vocab = experiment._vocab_for(Collection({f"d{i}": t for i, t in enumerate(self.TEXTS)}),
                                      QuerySet({}))
        words = {w for text in self.TEXTS for w in tok._pretokenize(text)}
        assert words <= set(vocab.tokens)


class TestTokenize:
    def test_whole_word(self):
        vocab = make_vocab(["white"])
        assert tok.token_ids("White", vocab) == [vocab.token_to_id["white"]]

    def test_unknown_word(self):
        # every letter is a token, the word is not: one [UNK], no pieces
        vocab = make_vocab(["b", "x", "y", "z"])
        assert tok.token_ids("xyz", vocab) == [UNK_ID]

    def test_punctuation_split(self):
        vocab = make_vocab(["white", ",", "clothes", "."])
        assert tok.token_ids("white, clothes.", vocab) == [vocab.token_to_id[t] for t in
                                                            ["white", ",", "clothes", "."]]

    TOKENS = {"white bleach": ["white", UNK], "Bleach, xyz white.": [UNK, ",", UNK, "white", "."],
              "bl WHITE bleachl": [UNK, "white", UNK], "q7 , .": [UNK, ",", "."], "": []}

    @pytest.mark.parametrize("text", ["white bleach", "Bleach, xyz white.", "bl WHITE bleachl",
                                      "q7 , .", ""])
    def test_token_ids_match_tokenize(self, text):
        # whole words and [UNK], one id per word in order, whatever
        # characters or prefixes of a word the vocab holds
        vocab = make_vocab(["white", "b", "l", "bleac", ",", "."])
        assert tok.token_ids(text, vocab) == [vocab.token_to_id[t] for t in self.TOKENS[text]]

    def test_detokenize_inverse(self):
        vocab = make_vocab(["bleach", "white"])
        decoded = tok.decode_ids(tok.token_ids("White bleach", vocab), vocab)
        assert " ".join(decoded) == "white bleach"


class TestEncodePair:
    vocab = make_vocab([f"t{i}" for i in range(30)])
    tid = vocab.token_to_id

    def test_layout(self):
        pair = encode_pair("t0", "t1 t2", self.vocab, 16)
        assert pair.ids == [CLS_ID, self.tid["t0"], SEP_ID, self.tid["t1"], self.tid["t2"], SEP_ID]
        assert pair.sep_positions == (2, 5)
        assert pair.query_span == (1, 1)
        assert pair.passage_span == (3, 4)
        assert M.pad_batch([pair])[1].tolist() == [[0, 0, 0, 1, 1, 1]]

    def test_span_ids(self):
        pair = encode_pair("t0", "t1 t2", self.vocab, 16)
        assert pair.span_ids(pair.query_span) == [self.tid["t0"]]
        assert pair.span_ids(pair.passage_span) == [self.tid["t1"], self.tid["t2"]]

    def test_truncation_passage_tail_first(self):
        q = "t0 t1"
        p = " ".join(f"t{i}" for i in range(2, 22))
        pair = encode_pair(q, p, self.vocab, 10)
        assert len(pair.ids) == 10
        # full query survives, passage keeps its head
        assert pair.span_ids(pair.query_span) == [self.tid["t0"], self.tid["t1"]]
        assert pair.span_ids(pair.passage_span) == [self.tid[f"t{i}"] for i in range(2, 7)]

    def test_very_long_query_leaves_one_passage_token(self):
        q = " ".join(f"t{i}" for i in range(20))
        pair = encode_pair(q, "t25 t26", self.vocab, 12)
        assert len(pair.ids) == 12
        assert pair.span_ids(pair.passage_span) == [self.tid["t25"]]

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
        vocab = build_vocab(texts)
        rng = np.random.default_rng(0)
        qids = sorted(qs.entries)
        doc_ids = sorted(coll.entries)
        for _ in range(100):
            qid = qids[rng.integers(len(qids))]
            doc_id = doc_ids[rng.integers(len(doc_ids))]
            pair = encode_pair(qs.entries[qid], coll.entries[doc_id], vocab, 128)
            assert len(pair.ids) <= 128
            assert pair.ids[0] == CLS_ID
            assert [i for i, t in enumerate(pair.ids) if t == SEP_ID] == list(pair.sep_positions)
            decoded = tok.decode_ids(pair.span_ids(pair.passage_span), vocab)
            assert " ".join(decoded) == coll.entries[doc_id].lower()
            decoded_q = tok.decode_ids(pair.span_ids(pair.query_span), vocab)
            assert " ".join(decoded_q) == qs.entries[qid].lower()

    def test_multiset_of_ids_matches_token_stream(self):
        pair = encode_pair("t3 t1", "t2 t2 t9", self.vocab, 32)
        want = sorted([CLS_ID, SEP_ID, SEP_ID, self.tid["t3"], self.tid["t1"],
                       self.tid["t2"], self.tid["t2"], self.tid["t9"]])
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
