"""Corpus ingestion, TREC file formats, and synthetic corpus generation.

File conventions:
- collection / queries: one `id<TAB>text` record per line
- qrels: `qid 0 docid rel` (whitespace separated)
- run:   `qid Q0 docid rank score tag` (whitespace separated, scores
  serialized with 6 decimal places)
- triples: `query<TAB>positive<TAB>negative`
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ParseError(ValueError):
    """Raised for malformed data files; message carries the line number."""


class ValidationError(ValueError):
    """Raised when loaded data violates a structural invariant."""


# ---------------------------------------------------------------------------
# domain types


@dataclass
class Collection:
    """Docs by id; a `QuerySet` holds queries the same way."""
    entries: dict[str, str] = field(default_factory=dict)

    def __len__(self):
        return len(self.entries)


class QuerySet(Collection):
    """Queries by id."""


@dataclass
class Qrels:
    grades: dict[tuple[str, str], int] = field(default_factory=dict)

    def by_query(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for (qid, doc_id), g in self.grades.items():
            out.setdefault(qid, {})[doc_id] = g
        return out


@dataclass
class RunEntry:
    doc_id: str
    score: float
    rank: int
    tag: str


@dataclass
class Run:
    entries: dict[str, list[RunEntry]] = field(default_factory=dict)

    def validate(self):
        for qid, lst in self.entries.items():
            seen = set()
            for i, e in enumerate(lst):
                if e.rank != i + 1:
                    raise ValidationError(
                        f"query {qid}: rank {e.rank} at position {i + 1} (ranks must be contiguous from 1)"
                    )
                if i > 0 and e.score > lst[i - 1].score:
                    raise ValidationError(
                        f"query {qid}: score increases at rank {e.rank}"
                    )
                if e.doc_id in seen:
                    raise ValidationError(f"query {qid}: duplicate doc {e.doc_id}")
                seen.add(e.doc_id)


Triple = tuple[str, str, str]  # (query_text, positive_text, negative_text)


@dataclass
class SyntheticSpec:
    vocab_size: int = 600
    n_docs: int = 8000
    n_queries: int = 800
    doc_len_range: tuple[int, int] = (8, 16)
    query_len_range: tuple[int, int] = (4, 4)
    relevance_rule: str = "overlap"  # overlap | bigram_order
    zipf_exponent: float = 1.1
    seed: int = 0

    def validate(self):
        if self.vocab_size <= 0 or self.n_docs <= 0 or self.n_queries <= 0:
            raise ValueError("sizes must be positive")
        for lo, hi in (self.doc_len_range, self.query_len_range):
            if lo <= 0 or hi < lo:
                raise ValueError("length ranges must be valid positive intervals")
        if 2 * self.query_len_range[1] > self.vocab_size - self.vocab_size // 2:
            raise ValueError("the rarer half of the vocabulary needs two words per query-term class")
        if self.relevance_rule not in ("overlap", "bigram_order"):
            raise ValueError(f"unknown relevance rule {self.relevance_rule!r}")
        if self.relevance_rule == "bigram_order" and self.doc_len_range[0] < 8:
            raise ValueError("bigram_order rule needs doc_len_range lower bound >= 8")
        if self.relevance_rule == "overlap" and self.query_len_range[0] < 4:
            raise ValueError("overlap rule needs queries of >= 4 terms for all grade bands")


# ---------------------------------------------------------------------------
# loaders / writers


def _lines(path):
    with open(path, "r", encoding="utf-8") as f:
        return f.read().splitlines()


def _load_texts(path, kind: str) -> dict[str, str]:
    """{id: text} of an `id<TAB>text` file; `kind` names the ids in errors."""
    entries = {}
    for ln, line in enumerate(_lines(path), start=1):
        if "\t" not in line:
            raise ParseError(f"{path}:{ln}: expected `id<TAB>text`")
        key, text = line.split("\t", 1)
        if not key or not text:
            raise ParseError(f"{path}:{ln}: empty id or text")
        if key in entries:
            raise ParseError(f"{path}:{ln}: duplicate {kind} id {key}")
        entries[key] = text
    return entries


def load_collection(path) -> Collection:
    return Collection(_load_texts(path, "doc"))


def load_queries(path) -> QuerySet:
    return QuerySet(_load_texts(path, "query"))


def write_texts(texts: Collection, path):
    """An `id<TAB>text` file of a collection or query set, in id order."""
    with open(path, "w", encoding="utf-8") as f:
        for key in sorted(texts.entries):
            f.write(f"{key}\t{texts.entries[key]}\n")


def load_qrels(path) -> Qrels:
    qrels = Qrels()
    for ln, line in enumerate(_lines(path), start=1):
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"{path}:{ln}: expected `qid 0 docid rel`")
        qid, _, doc_id, rel = parts
        try:
            grade = int(rel)
        except ValueError:
            raise ParseError(f"{path}:{ln}: non-integer relevance {rel!r}") from None
        if grade < 0:
            raise ParseError(f"{path}:{ln}: negative relevance grade")
        if (qid, doc_id) in qrels.grades:
            raise ParseError(f"{path}:{ln}: duplicate judgment for ({qid}, {doc_id})")
        qrels.grades[(qid, doc_id)] = grade
    return qrels


def write_qrels(qrels: Qrels, path):
    with open(path, "w", encoding="utf-8") as f:
        for (qid, doc_id) in sorted(qrels.grades):
            f.write(f"{qid} 0 {doc_id} {qrels.grades[(qid, doc_id)]}\n")


def load_run(path) -> Run:
    run = Run()
    for ln, line in enumerate(_lines(path), start=1):
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(f"{path}:{ln}: expected `qid Q0 docid rank score tag`")
        qid, _, doc_id, rank, score, tag = parts
        try:
            rank_i = int(rank)
        except ValueError:
            raise ParseError(f"{path}:{ln}: non-integer rank {rank!r}") from None
        try:
            score_f = float(score)
        except ValueError:
            raise ParseError(f"{path}:{ln}: non-numeric score {score!r}") from None
        run.entries.setdefault(qid, []).append(RunEntry(doc_id, score_f, rank_i, tag))
    for lst in run.entries.values():
        lst.sort(key=lambda e: e.rank)
    run.validate()
    return run


def write_run(run: Run, path):
    run.validate()
    with open(path, "w", encoding="utf-8") as f:
        for qid in sorted(run.entries):
            for e in run.entries[qid]:
                f.write(f"{qid} Q0 {e.doc_id} {e.rank} {e.score:.6f} {e.tag}\n")


def load_triples(path) -> list[Triple]:
    triples = []
    for ln, line in enumerate(_lines(path), start=1):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"{path}:{ln}: expected `query<TAB>positive<TAB>negative`")
        if not all(parts):
            raise ParseError(f"{path}:{ln}: empty field in triple")
        triples.append((parts[0], parts[1], parts[2]))
    return triples


def write_triples(triples: list[Triple], path):
    with open(path, "w", encoding="utf-8") as f:
        for q, pos, neg in triples:
            f.write(f"{q}\t{pos}\t{neg}\n")


# ---------------------------------------------------------------------------
# relevance rules: a grade from a count of what the doc matches. The
# generator counts each query's matches in postings of the final texts,
# so a rule re-applied to the texts gives the emitted grade


def overlap_grade_from_count(n_matched: int, n_terms: int) -> int:
    """Overlap grade of a doc holding `n_matched` of `n_terms` distinct query terms."""
    frac = n_matched / n_terms
    if frac >= 1.0:
        return 3
    if frac >= 0.75:
        return 2
    if frac >= 0.5:
        return 1
    return 0


def bigram_grade_from_count(n_bigrams: int) -> int:
    """Bigram grade of a doc holding the marker bigram `n_bigrams` times."""
    return min(3, n_bigrams)


# ---------------------------------------------------------------------------
# synthetic generation


def _zipf_probs(vocab_size: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    p = ranks ** (-exponent)
    return p / p.sum()


def _zipf_cdf(vocab_size: int, exponent: float) -> np.ndarray:
    """The CDF `Generator.choice` computes from `_zipf_probs`: its cumsum,
    divided by its last value."""
    cdf = _zipf_probs(vocab_size, exponent).cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    """`rng.choice(len(cdf), size=n, p=probs)` for the `probs` whose CDF is
    `cdf`: the same indices from the same `n` uniforms, without choice's
    per-call checks of `probs`."""
    return cdf.searchsorted(rng.random(n), side="right")


def _pick(rng: np.random.Generator, seq) -> int:
    """`rng.choice(seq)` for a non-empty sequence of ints: the same single draw."""
    return int(seq[rng.integers(len(seq))])


def generate_synthetic(spec: SyntheticSpec) -> tuple[Collection, QuerySet, Qrels, list[Triple]]:
    """Generate a deterministic corpus with planted graded documents.

    Every query gets planted relevant docs plus style-matched grade-0
    docs. Grades in the emitted qrels are computed by re-applying the
    relevance rule to the final texts, so an independent re-application
    always agrees.

    Word order follows one fixed rule: rare words come in class order,
    one per class, so each rare word has one lead slot in every doc and
    one rank in every query that uses it (see the class comment below).
    Under the overlap rule that order is regular but tells nothing about
    relevance beyond the bag of words.

    The returned triples pair planted positives with the generator's own
    grade-0 docs. Under the overlap rule these are the zero-overlap doc,
    a decoy, another query's doc and a background doc; most share no
    query term, so they are easy negatives, and `experiment.run_experiment`
    keeps the positives but trains on negatives mined from BM25 instead.
    Under the bigram_order rule each negative matches its positive's
    marker count, and the runner trains on these triples as they are.

    Every draw comes from one `np.random.default_rng(spec.seed)` stream.
    Filler words are drawn from the Zipf CDF of the commoner half,
    computed once (`_zipf_cdf`), as `cdf.searchsorted(rng.random(n),
    side="right")` (`_draw`); a lead word is `seq[rng.integers(len(seq))]`
    of its class's words (`_pick`). These are the computations
    `rng.choice(m, size=n, p=probs)` and `rng.choice(seq)` run after
    their per-call checks, so they give the same words and leave the
    stream at the same place.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    words = [f"w{i:04d}" for i in range(spec.vocab_size)]
    # filler/background text draws only on the commoner half of the
    # vocabulary; query terms come from the rarer half, so any overlap
    # with a query is deliberate (planted), never accidental
    common_hi = max(1, spec.vocab_size // 2)
    cdf = _zipf_cdf(common_hi, spec.zipf_exponent)

    def sample_words(n, exclude=()):
        # batches of max(n, 8) draws, as many as it takes to keep n words
        # outside `exclude`; the rest of the last batch is dropped
        out = []
        excl = set(exclude)
        while len(out) < n:
            batch = _draw(rng, cdf, max(n, 8)).tolist()
            out.extend(w for w in map(words.__getitem__, batch) if w not in excl)
        del out[n:]
        return out

    # natural word order: each word of the rarer half belongs to one of
    # `query_len_range[1]` classes (its index modulo the class count), and
    # text always lists rare words in class order, one per class, the way
    # syntax gives each word class its place in a sentence. A rare word
    # therefore sits at the same lead slot in every doc that carries it
    rare_lo = spec.vocab_size // 2
    n_classes = spec.query_len_range[1]
    class_members = [list(range(rare_lo + c, spec.vocab_size, n_classes)) for c in range(n_classes)]
    word_class = {words[i]: (i - rare_lo) % n_classes for i in range(rare_lo, spec.vocab_size)}

    # queries: distinct terms from distinct classes, in class order, drawn
    # from the rarer half of the vocabulary so background (common-half)
    # docs never match by chance; among many candidate draws keep the one
    # sharing the fewest 2+-term overlaps with earlier queries, so one
    # query's relevant docs rarely look relevant to another query
    queries = QuerySet()
    query_terms: dict[str, list[str]] = {}
    query_idxs: dict[str, list[int]] = {}
    term_users: dict[int, list[int]] = {}
    for qi in range(spec.n_queries):
        qlen = int(rng.integers(spec.query_len_range[0], spec.query_len_range[1] + 1))
        best_idxs, best_conflicts = None, None
        for _attempt in range(200):
            classes = np.sort(rng.choice(n_classes, size=qlen, replace=False))
            idxs = [_pick(rng, class_members[c]) for c in classes]
            shared: dict[int, int] = {}
            for i in idxs:
                for u in term_users.get(i, ()):
                    shared[u] = shared.get(u, 0) + 1
            conflicts = sum(1 for v in shared.values() if v > 1)
            if best_conflicts is None or conflicts < best_conflicts:
                best_idxs, best_conflicts = idxs, conflicts
            if conflicts == 0:
                break
        for i in best_idxs:
            term_users.setdefault(i, []).append(qi)
        terms = [words[i] for i in best_idxs]
        qid = f"q{qi:04d}"
        queries.entries[qid] = " ".join(terms)
        query_terms[qid] = terms
        query_idxs[qid] = best_idxs

    # planted docs, in query order, then background docs
    docs: list[str] = []

    def plant_overlap(terms: list[str], idxs: list[int]):
        # four fully-matching docs, one doc per partial grade, two one-term
        # decoys (below the relevance cutoff) and one zero-overlap doc. Every
        # planted doc leads with one rare word per class, in class order: the
        # query's own term for each class the doc matches, another word of
        # that class for the rest. The rare-term count and the lead layout
        # thus separate nothing, and a matched term sits at the slot it holds
        # in every other doc too, so word order tells nothing that the bag
        # of words does not: only how many lead words match the query does
        n_q = len(terms)
        term_of_class = {word_class[t]: t for t in terms}
        # each class's words but the query's term; the terms come from
        # distinct classes, so each is taken out of its own class only
        others = list(class_members)
        for i in idxs:
            c = (i - rare_lo) % n_classes
            others[c] = others[c].copy()
            others[c].remove(i)
        k2, k1 = math.ceil(0.75 * n_q), math.ceil(0.5 * n_q)
        matched = [terms] * 4 + [terms[:k2], terms[:k1]]
        matched += [[terms[int(j)]] for j in rng.choice(n_q, size=2, replace=False)]
        matched.append([])
        planted = []
        for kept in matched:
            lead = [term_of_class[c] if term_of_class.get(c) in kept
                    else words[_pick(rng, others[c])] for c in range(n_classes)]
            dlen = int(rng.integers(spec.doc_len_range[0], spec.doc_len_range[1] + 1))
            dlen = max(dlen, len(lead))
            planted.append(" ".join(lead + sample_words(dlen - len(lead), exclude=terms)))
        return planted

    def plant_bigram(terms: list[str]):
        a, b = terms[0], terms[1]
        dlen = int(rng.integers(spec.doc_len_range[0], spec.doc_len_range[1] + 1))
        filler = lambda n: sample_words(n, exclude=(a, b))
        x1, x2, x3 = filler(3)
        prefixes = [
            [a, b],                            # grade 1
            [a, b, a, b],                      # grade 2
            [a, b, a, b, a, b],                # grade 3
            [b, a, x1, b, a],                  # grade 0, marker counts match grade 2
            [b, a, x2, b, a, x3, b, a],        # grade 0, marker counts match grade 3
        ]
        planted = []
        for pre in prefixes:
            planted.append(" ".join(pre + filler(max(0, dlen - len(pre)))))
        return planted

    for qi in range(spec.n_queries):
        qid = f"q{qi:04d}"
        terms = query_terms[qid]
        planted = (plant_overlap(terms, query_idxs[qid]) if spec.relevance_rule == "overlap"
                   else plant_bigram(terms))
        if len(docs) + len(planted) > spec.n_docs:
            raise ValueError(
                f"n_docs={spec.n_docs} too small to plant graded docs for {spec.n_queries} queries"
            )
        docs.extend(planted)

    while len(docs) < spec.n_docs:
        dlen = int(rng.integers(spec.doc_len_range[0], spec.doc_len_range[1] + 1))
        docs.append(" ".join(sample_words(dlen)))

    collection = Collection({f"d{i:06d}": text for i, text in enumerate(docs)})

    # qrels: the rule applied to every doc that holds at least half of a
    # query's distinct terms (overlap) or holds the marker bigram
    # (bigram_order), found through postings; no other doc can grade above
    # 0, since an overlap grade is 0 below half the terms. Grade-0 rows are
    # kept only for the planted zero-grade docs, so every query has a
    # judged non-relevant doc. `query_grades` holds each query's grades
    # above 0, for the triples below
    qrels = Qrels()
    query_grades: dict[str, dict[str, int]] = {}
    n_planted = 9 if spec.relevance_rule == "overlap" else 5
    doc_items = sorted(collection.entries.items())
    # postings, each in doc-id order
    if spec.relevance_rule == "overlap":
        wanted = {t for terms in query_terms.values() for t in terms}
        docs_with: dict[str, list[str]] = {}
        for doc_id, text in doc_items:
            for w in set(text.split()) & wanted:
                docs_with.setdefault(w, []).append(doc_id)
    else:
        wanted = {(terms[0], terms[1]) for terms in query_terms.values()}
        bigram_counts: dict[tuple[str, str], dict[str, int]] = {}
        for doc_id, text in doc_items:
            toks = text.split()
            for key in zip(toks, toks[1:]):
                if key in wanted:
                    counts = bigram_counts.setdefault(key, {})
                    counts[doc_id] = counts.get(doc_id, 0) + 1

    for qi in range(spec.n_queries):
        qid = f"q{qi:04d}"
        terms = query_terms[qid]
        if spec.relevance_rule == "overlap":
            distinct = set(terms)
            n_matched: dict[str, int] = {}
            for t in distinct:
                for doc_id in docs_with.get(t, ()):
                    n_matched[doc_id] = n_matched.get(doc_id, 0) + 1
            graded = [(d, overlap_grade_from_count(n_matched[d], len(distinct)))
                      for d in sorted(d for d, n in n_matched.items() if 2 * n >= len(distinct))]
        else:
            graded = [(d, bigram_grade_from_count(n))
                      for d, n in bigram_counts.get((terms[0], terms[1]), {}).items()]
        grades = query_grades[qid] = {}
        for doc_id, grade in graded:
            if grade > 0:
                qrels.grades[(qid, doc_id)] = grades[doc_id] = grade
        # planted grade-0 docs for this query
        base = qi * n_planted
        zero_slots = [8] if spec.relevance_rule == "overlap" else [3, 4]
        for slot in zero_slots:
            doc_id = f"d{base + slot:06d}"
            qrels.grades.setdefault((qid, doc_id), 0)

    # triples: each rule-verified grade>=2 planted doc paired with a
    # grade-0 doc of the same query
    triples: list[Triple] = []
    n_bg_start = spec.n_queries * n_planted
    for qi in range(spec.n_queries):
        qid = f"q{qi:04d}"
        base = qi * n_planted
        grade_of = query_grades[qid].get
        planted_ids = [f"d{base + s:06d}" for s in range(n_planted)]
        positives = [d for d in planted_ids if grade_of(d, 0) >= 2]
        negatives = [d for d in planted_ids if grade_of(d, 0) == 0]
        if not positives or not negatives:
            continue
        if spec.relevance_rule == "bigram_order":
            # pair by matching marker counts: grade-2 with the first zero
            # doc, grade-3 with the second
            pairs = list(zip(positives, negatives))
        else:
            # vary the negative type so no query-independent cue separates
            # the classes: the zero-overlap doc, a one-term decoy, another
            # query's planted positive, and a random background doc; all
            # negatives are strictly grade 0
            neg_pool = [negatives[-1]]  # the zero-overlap doc
            if len(negatives) > 1:
                neg_pool.append(negatives[qi % (len(negatives) - 1)])  # a decoy
            other_pos = f"d{((qi + 1) % spec.n_queries) * n_planted:06d}"
            if grade_of(other_pos, 0) == 0:
                neg_pool.append(other_pos)
            attempts = 0
            while len(neg_pool) < 4 and n_bg_start < spec.n_docs and attempts < 100:
                cand = f"d{int(rng.integers(n_bg_start, spec.n_docs)):06d}"
                attempts += 1
                if grade_of(cand, 0) == 0 and cand not in neg_pool:
                    neg_pool.append(cand)
            # ~8 triples per query, cycling the pairing so every negative
            # type appears against several positives: with the fixed step
            # budget this gives the loop a few full passes over the data
            pairs = [
                (positives[i % len(positives)],
                 neg_pool[(i + i // len(neg_pool)) % len(neg_pool)])
                for i in range(8)
            ]
        for pos_id, neg_id in pairs:
            triples.append(
                (queries.entries[qid], collection.entries[pos_id], collection.entries[neg_id])
            )

    return collection, queries, qrels, triples
