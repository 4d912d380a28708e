"""Whole-word tokenizer and paired-input encoding.

A vocabulary holds the reserved tokens, then every character of the
corpus, then every word of it, each tier by frequency, so that every
corpus word is a whole token. A word is its own token, else [UNK]. The
character tier holds the ids after the reserved ones in every
vocabulary the lab builds.
`PairMemo` keeps a run's encoded pairs and their perturbed forms, each
made once.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import islice
from dataclasses import dataclass, field

from . import perturb

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
RESERVED = [PAD, UNK, CLS, SEP]
PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3

_WORD_SPLIT = re.compile(r"\w+|[^\w\s]")
_COUNT_CHUNK = 256  # texts per regex pass of `word_counts`


@dataclass
class Vocab:
    tokens: list[str]
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.token_to_id = {t: i for i, t in enumerate(self.tokens)}
        if len(self.token_to_id) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")
        for i, t in enumerate(RESERVED):
            if self.tokens[i] != t:
                raise ValueError(f"reserved token {t} missing at id {i}")

    def __len__(self):
        return len(self.tokens)


def save_vocab(vocab: Vocab, path):
    with open(path, "w", encoding="utf-8") as f:
        for t in vocab.tokens:
            f.write(t + "\n")


def load_vocab(path) -> Vocab:
    with open(path, "r", encoding="utf-8") as f:
        tokens = f.read().splitlines()
    return Vocab(tokens)


def _pretokenize(text: str) -> list[str]:
    """Lowercase and split into words and single punctuation marks."""
    return _WORD_SPLIT.findall(text.lower())


def word_counts(texts) -> Counter:
    """How often each pretokenized word occurs in `texts`.

    One lowercasing and one regex pass per `_COUNT_CHUNK` texts joined
    by newlines. A newline is whitespace: it is no token, it ends any
    word, and lowercasing reads no context across it (as it does for a
    final sigma), so the counts equal those of pretokenizing each text
    alone. Chunks keep the list of words in hand small: a single pass
    over a whole corpus holds every word of it at once.
    """
    counts = Counter()
    texts = iter(texts)
    while chunk := list(islice(texts, _COUNT_CHUNK)):
        counts.update(_pretokenize("\n".join(chunk)))
    return counts


def build_vocab(texts) -> Vocab:
    """The reserved tokens, every character of the words of `texts`
    (`word_counts`), then every word, each tier by frequency.

    Ties broken lexicographically within each tier, so the result is
    deterministic for a given corpus.
    """
    word_freq = word_counts(texts)
    if not word_freq:
        raise ValueError("empty corpus")

    char_freq = Counter()
    for word, n in word_freq.items():
        for ch in word:
            char_freq[ch] += n

    def by_freq(counter):
        return sorted(counter, key=lambda t: (-counter[t], t))

    tokens = [*RESERVED, *by_freq(char_freq)]
    present = set(tokens)
    words = [w for w in by_freq(word_freq) if w not in present]
    return Vocab(tokens + words)


def token_ids(text: str, vocab: Vocab) -> list[int]:
    """One id per pretokenized word: the word's own, or [UNK]'s."""
    lookup = vocab.token_to_id
    return [lookup.get(word, UNK_ID) for word in _pretokenize(text)]


@dataclass
class TokenizedPair:
    """Encoded [CLS] query [SEP] passage [SEP] input: its ids alone.

    The layout is read from the ids. No word maps to [SEP], since the
    pretokenizer splits "[SEP]" into "[", "sep" and "]", so the first
    [SEP] closes the query and the last id is the second [SEP]. Spans
    are inclusive (start, end) index pairs over `ids`, excluding the
    special-token positions; an empty side has span (start, start-1).
    """

    ids: list[int]

    @property
    def sep_positions(self) -> tuple[int, int]:
        return self.ids.index(SEP_ID), len(self.ids) - 1

    @property
    def query_span(self) -> tuple[int, int]:
        return 1, self.ids.index(SEP_ID) - 1

    @property
    def passage_span(self) -> tuple[int, int]:
        return self.ids.index(SEP_ID) + 1, len(self.ids) - 2

    def span_ids(self, span: tuple[int, int]) -> list[int]:
        return self.ids[span[0]:span[1] + 1]


def encode_pair(query_text: str, passage_text: str, vocab: Vocab, max_len: int) -> TokenizedPair:
    """Encode a query/passage pair, truncating the passage tail first."""
    if max_len < 8:
        raise ValueError("max_len must be >= 8")
    q_ids = token_ids(query_text, vocab)
    if not q_ids:
        raise ValueError("query is empty after tokenization")
    p_ids = token_ids(passage_text, vocab)

    budget = max_len - 3
    if len(q_ids) + len(p_ids) > budget:
        keep_p = max(min(1, len(p_ids)), budget - len(q_ids))
        p_ids = p_ids[:keep_p]
        q_ids = q_ids[:budget - len(p_ids)]
    return TokenizedPair([CLS_ID, *q_ids, SEP_ID, *p_ids, SEP_ID])


class PairMemo:
    """The one place a run's examples are encoded and perturbed, for one
    vocabulary and max_len.

    `encode` encodes a (query, passage) pair on first use and keeps it
    for the memo's lifetime. `perturbed` does the same for each
    (pair, mode, example key): it calls `perturb.apply` once per key, so
    dev evals, conditions and any other caller that asks for the same
    perturbed example again get the pair made the first time. A natural
    example is the encoded pair itself. The returned pairs are shared:
    treat them as read-only.
    """

    def __init__(self, vocab: Vocab, max_len: int):
        self.vocab = vocab
        self.max_len = max_len
        self._pairs: dict[tuple[str, str], TokenizedPair] = {}
        self._perturbed: dict[tuple, TokenizedPair] = {}

    def __len__(self):
        """The number of distinct (query, passage) pairs encoded."""
        return len(self._pairs)

    def encode(self, query_text: str, passage_text: str) -> TokenizedPair:
        key = (query_text, passage_text)
        pair = self._pairs.get(key)
        if pair is None:
            pair = self._pairs[key] = encode_pair(query_text, passage_text,
                                                  self.vocab, self.max_len)
        return pair

    def perturbed(self, query_text: str, passage_text: str, mode: perturb.PerturbMode,
                  example_key: str) -> TokenizedPair:
        """`perturb.apply(self.encode(query_text, passage_text), mode, example_key)`,
        made once per (query, passage, mode, example key)."""
        if mode.kind == "natural":
            return self.encode(query_text, passage_text)
        key = (query_text, passage_text, mode, example_key)
        pair = self._perturbed.get(key)
        if pair is None:
            pair = self._perturbed[key] = perturb.apply(
                self.encode(query_text, passage_text), mode, example_key)
        return pair


def memo_for(memo: PairMemo | None, vocab: Vocab, max_len: int) -> PairMemo:
    """`memo`, once the caller's vocab and max_len are its own, or else a
    new memo for them."""
    if memo is None:
        return PairMemo(vocab, max_len)
    if vocab is not memo.vocab or max_len != memo.max_len:
        raise ValueError("pair memo was built for another vocabulary or max_len")
    return memo


def decode_ids(ids: list[int], vocab: Vocab) -> list[str]:
    return [vocab.tokens[i] for i in ids]
