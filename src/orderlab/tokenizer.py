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
MIN_MAX_LEN = 8  # the least max_len of `encode_pair` and of `model.ModelConfig`

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
    """Lowercase and split into words and single punctuation marks.

    This is `_WORD_SPLIT.findall(text.lower())`, one whitespace chunk at
    a time: no match spans whitespace, and a chunk of word characters
    alone (`str.isalnum`, as `\\w` reads them, less "_") is one word, so
    only the other chunks go through the regex.
    """
    words = []
    for chunk in text.lower().split():
        if chunk.isalnum():
            words.append(chunk)
        else:
            words += _WORD_SPLIT.findall(chunk)
    return words


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


def encode_pair(query_text: str, passage_text: str, vocab: Vocab, max_len: int,
                text_ids: dict[str, list[int]] | None = None) -> TokenizedPair:
    """Encode a query/passage pair, truncating the passage tail first.

    `text_ids`, if given, maps texts to their `token_ids` under `vocab`:
    a text found there is not tokenized again, and a new one is added.
    """
    if max_len < MIN_MAX_LEN:
        raise ValueError(f"max_len must be >= {MIN_MAX_LEN}")
    if text_ids is None:
        text_ids = {}
    for text in (query_text, passage_text):
        if text not in text_ids:
            text_ids[text] = token_ids(text, vocab)
    q_ids, p_ids = text_ids[query_text], text_ids[passage_text]
    if not q_ids:
        raise ValueError("query is empty after tokenization")

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
    for the memo's lifetime; each text is tokenized once, however many
    pairs it is in. `perturbed` does the same for each
    (pair, mode, example key), a batch of them per `perturb.apply_many`
    call, so dev evals, conditions and any other caller that asks for the
    same perturbed example again get the pair made the first time. A natural
    example is the encoded pair itself. Perturbed pairs are kept per mode,
    under (query, passage, example key). The returned pairs are shared:
    treat them as read-only.
    """

    def __init__(self, vocab: Vocab, max_len: int):
        self.vocab = vocab
        self.max_len = max_len
        self._pairs: dict[tuple[str, str], TokenizedPair] = {}
        self._text_ids: dict[str, list[int]] = {}
        self._perturbed: dict[perturb.PerturbMode,
                              dict[tuple[str, str, str], TokenizedPair]] = {}

    def encode(self, query_text: str, passage_text: str) -> TokenizedPair:
        key = (query_text, passage_text)
        pair = self._pairs.get(key)
        if pair is None:
            pair = self._pairs[key] = encode_pair(query_text, passage_text, self.vocab,
                                                  self.max_len, self._text_ids)
        return pair

    def perturbed(self, texts: list[tuple[str, str]], mode: perturb.PerturbMode,
                  example_keys: list[str]) -> list[TokenizedPair]:
        """`perturb.apply_many` of the encoded (query, passage) `texts`
        under their example keys, each (query, passage, mode, key) made
        once: the ones this memo lacks are perturbed in one call, and a
        key that repeats within `texts` is perturbed once."""
        if mode.kind == "natural":
            return [self.encode(query, passage) for query, passage in texts]
        done = self._perturbed.setdefault(mode, {})
        keys = [(query, passage, key)
                for (query, passage), key in zip(texts, example_keys, strict=True)]
        new = {key: self.encode(key[0], key[1]) for key in keys if key not in done}
        done.update(zip(new, perturb.apply_many(list(new.values()), mode,
                                                [key[2] for key in new])))
        return [done[key] for key in keys]


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
