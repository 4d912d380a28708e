"""Ranking metrics over TREC runs and qrels.

NDCG uses linear graded gain with a log2(rank+1) discount (the common
trec-tool convention). MAP, Recall@k and MRR@k binarize grades at the
lab's one relevance cut, `RELEVANT_GRADE`: a doc at grade >= 1 is
relevant. Means are taken over queries that have at least one relevant
(or, for NDCG, positively graded) document; other queries are skipped
and counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .corpus import Qrels, Run


RELEVANT_GRADE = 1  # MAP, Recall and MRR count a doc at this grade or above as relevant


@dataclass
class MetricsReport:
    per_query: dict[str, dict[str, float]] = field(default_factory=dict)  # metric -> qid -> value
    mean: dict[str, float] = field(default_factory=dict)
    skipped: dict[str, int] = field(default_factory=dict)


def _mean_over(values: dict[str, float]) -> float:
    return sum(values.values()) / len(values) if values else 0.0


def _grades(qrels_or_map):
    if isinstance(qrels_or_map, Qrels):
        return qrels_or_map.by_query()
    return qrels_or_map


def ndcg_at_k(run: Run, qrels: Qrels, k: int = 10):
    """Per-query NDCG@k; queries with zero ideal DCG are skipped."""
    grades_by_q = _grades(qrels)
    per_query = {}
    skipped = 0
    for qid, entries in run.entries.items():
        grades = grades_by_q.get(qid, {})
        ideal = sorted((g for g in grades.values() if g > 0), reverse=True)
        idcg = sum(g / math.log2(i + 2) for i, g in enumerate(ideal[:k]))
        if idcg == 0:
            skipped += 1
            continue
        dcg = sum(
            grades.get(e.doc_id, 0) / math.log2(i + 2)
            for i, e in enumerate(entries[:k])
        )
        per_query[qid] = dcg / idcg
    return per_query, skipped


def _binarized(run: Run, qrels: Qrels, measure):
    """Per-query `measure(entries, relevant)` over the queries with a doc at
    grade >= RELEVANT_GRADE; returns it with the count of queries skipped."""
    grades_by_q = _grades(qrels)
    per_query = {}
    skipped = 0
    for qid, entries in run.entries.items():
        relevant = {d for d, g in grades_by_q.get(qid, {}).items() if g >= RELEVANT_GRADE}
        if not relevant:
            skipped += 1
            continue
        per_query[qid] = measure(entries, relevant)
    return per_query, skipped


def map_metric(run: Run, qrels: Qrels):
    """Average precision over the full run depth, per relevant-bearing query."""
    def average_precision(entries, relevant):
        hits = 0
        ap = 0.0
        for i, e in enumerate(entries, start=1):
            if e.doc_id in relevant:
                hits += 1
                ap += hits / i
        return ap / len(relevant)

    return _binarized(run, qrels, average_precision)


def recall_at_k(run: Run, qrels: Qrels, k: int = 100):
    def recall(entries, relevant):
        top = {e.doc_id for e in entries[:k]}
        return len(relevant & top) / len(relevant)

    return _binarized(run, qrels, recall)


def mrr_at_k(run: Run, qrels: Qrels, k: int = 10):
    def reciprocal_rank(entries, relevant):
        for i, e in enumerate(entries[:k], start=1):
            if e.doc_id in relevant:
                return 1.0 / i
        return 0.0

    return _binarized(run, qrels, reciprocal_rank)


def evaluate(run: Run, qrels: Qrels | dict[str, dict[str, int]], ndcg_k: int = 10,
             recall_k: int = 100, mrr_k: int = 10) -> MetricsReport:
    """Full report: ndcg@k, map, recall@k, mrr@k, per query and mean.

    `qrels` is a `Qrels` or its `by_query()` map; a caller that evaluates
    many runs against the same judgments builds the map once.
    """
    grades_by_q = _grades(qrels)
    report = MetricsReport()
    parts = {
        f"ndcg@{ndcg_k}": ndcg_at_k(run, grades_by_q, ndcg_k),
        "map": map_metric(run, grades_by_q),
        f"recall@{recall_k}": recall_at_k(run, grades_by_q, recall_k),
        f"mrr@{mrr_k}": mrr_at_k(run, grades_by_q, mrr_k),
    }
    for name, (per_query, skipped) in parts.items():
        report.per_query[name] = per_query
        report.skipped[name] = skipped
        report.mean[name] = _mean_over(per_query)
    return report


def write_report(report: MetricsReport, path, per_query: bool = False):
    """TSV: `metric<TAB>qid|all<TAB>value` with 4 decimals."""
    with open(path, "w", encoding="utf-8") as f:
        for metric in report.mean:
            if per_query:
                for qid in sorted(report.per_query[metric]):
                    f.write(f"{metric}\t{qid}\t{report.per_query[metric][qid]:.4f}\n")
            f.write(f"{metric}\tall\t{report.mean[metric]:.4f}\n")
