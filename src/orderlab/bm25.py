"""BM25 first-stage retrieval over an inverted index.

Indexing tokenization: lowercase, split on non-alphanumeric, no
stemming, no stopword removal. Scoring uses the Robertson formulation
with idf = ln(1 + (N - df + 0.5)/(df + 0.5)), which keeps scores
non-negative even for very frequent terms.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .corpus import Collection, Run, RunEntry

_TOKEN = re.compile(r"[0-9a-z]+")


def text_tokens(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def validate(self):
        if self.k1 < 0:
            raise ValueError("k1 must be >= 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


@dataclass
class InvertedIndex:
    postings: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    doc_lengths: dict[str, int] = field(default_factory=dict)
    avgdl: float = 0.0
    n_docs: int = 0
    params: Bm25Params = field(default_factory=Bm25Params)
    # each doc's length norm under `params`: k1 * (1 - b + b * dl / avgdl)
    norms: dict[str, float] = field(default_factory=dict)

    def df(self, term: str) -> int:
        return len(self.postings.get(term, ()))

    def idf(self, term: str) -> float:
        df = self.df(term)
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))


def build_index(collection: Collection, params: Bm25Params = Bm25Params()) -> InvertedIndex:
    """Index the collection for scoring under `params`, which are
    validated here and fixed for the index's life.

    Postings are sorted by doc_id, each doc's terms in order of first
    occurrence. Each doc's length norm is computed once, here, by the
    expression `score_one` evaluates per call, so `retrieve` adds the
    same floats.
    """
    if not collection.entries:
        raise ValueError("empty collection")
    params.validate()
    index = InvertedIndex(params=params)
    for doc_id in sorted(collection.entries):
        tokens = text_tokens(collection.entries[doc_id])
        index.doc_lengths[doc_id] = len(tokens)
        tf: dict[str, int] = {}
        for t in tokens:
            tf[t] = tf.get(t, 0) + 1
        for term, n in tf.items():
            index.postings.setdefault(term, []).append((doc_id, n))
    index.n_docs = len(collection.entries)
    index.avgdl = sum(index.doc_lengths.values()) / index.n_docs
    index.norms = {doc_id: params.k1 * (1 - params.b + params.b * dl / index.avgdl)
                   for doc_id, dl in index.doc_lengths.items()}
    return index


def score_one(index: InvertedIndex, query_terms: list[str], doc_id: str,
              params: Bm25Params) -> float:
    """Exhaustive per-document scoring; used as the retrieval oracle."""
    dl = index.doc_lengths[doc_id]
    norm = params.k1 * (1 - params.b + params.b * dl / index.avgdl)
    s = 0.0
    for t in query_terms:  # duplicates counted with multiplicity
        tf = next((n for d, n in index.postings.get(t, ()) if d == doc_id), 0)
        if tf:
            s += index.idf(t) * tf * (params.k1 + 1) / (tf + norm)
    return s


def retrieve(index: InvertedIndex, query_text: str, k: int) -> list[tuple[str, float]]:
    """Top-k (doc_id, score) under the index's params, score descending,
    ties by doc_id ascending. Each posting adds `idf * tf * (k1 + 1) /
    (tf + norm)` with the doc's norm from `build_index`."""
    if k < 1:
        raise ValueError("k must be >= 1")
    k1_plus_1 = index.params.k1 + 1
    norms = index.norms
    scores: dict[str, float] = {}
    for t in text_tokens(query_text):
        idf = index.idf(t)
        for doc_id, tf in index.postings.get(t, ()):
            scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * k1_plus_1 / (tf + norms[doc_id])
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def retrieve_run(index: InvertedIndex, queries, k: int, tag: str = "bm25") -> Run:
    """Retrieve for every query and package results as a TREC run."""
    run = Run()
    for qid in sorted(queries.entries):
        ranked = retrieve(index, queries.entries[qid], k)
        run.entries[qid] = [
            RunEntry(doc_id, score, rank, tag)
            for rank, (doc_id, score) in enumerate(ranked, start=1)
        ]
    run.validate()
    return run
