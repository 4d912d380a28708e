import math

import numpy as np
import pytest

from orderlab import metrics
from orderlab.corpus import Qrels, Run, RunEntry


def make_run(ranking, qid="q1", tag="t"):
    entries = [RunEntry(d, float(len(ranking) - i), i + 1, tag)
               for i, d in enumerate(ranking)]
    return Run({qid: entries})


def make_qrels(grades, qid="q1"):
    return Qrels({(qid, d): g for d, g in grades.items()})


# ---------------------------------------------------------------------------
# brute-force reference, written directly from the metric definitions


def ref_ndcg(ranking, grades, k):
    dcg = 0.0
    for i, d in enumerate(ranking[:k], start=1):
        dcg += grades.get(d, 0) / math.log2(i + 1)
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)
    idcg = sum(g / math.log2(i + 1) for i, g in enumerate(ideal[:k], start=1))
    return None if idcg == 0 else dcg / idcg


def ref_ap(ranking, grades, threshold=1):
    rel = {d for d, g in grades.items() if g >= threshold}
    if not rel:
        return None
    hits, total = 0, 0.0
    for i, d in enumerate(ranking, start=1):
        if d in rel:
            hits += 1
            total += hits / i
    return total / len(rel)


def ref_recall(ranking, grades, k, threshold=1):
    rel = {d for d, g in grades.items() if g >= threshold}
    if not rel:
        return None
    return len(rel & set(ranking[:k])) / len(rel)


def ref_mrr(ranking, grades, k, threshold=1):
    rel = {d for d, g in grades.items() if g >= threshold}
    if not rel:
        return None
    for i, d in enumerate(ranking[:k], start=1):
        if d in rel:
            return 1.0 / i
    return 0.0


class TestHandCases:
    def test_single_relevant_at_rank_2(self):
        run = make_run(["d9", "d1", "d2"])
        qrels = make_qrels({"d1": 1})
        per_q, _ = metrics.ndcg_at_k(run, qrels, k=10)
        assert per_q["q1"] == pytest.approx(0.6309297535714575, abs=1e-9)

    def test_ap_relevants_at_ranks_1_and_3(self):
        run = make_run(["d1", "dx", "d3", "dy"])
        qrels = make_qrels({"d1": 1, "d3": 2})
        per_q, _ = metrics.map_metric(run, qrels)
        assert per_q["q1"] == pytest.approx(0.8333333333333333, abs=1e-9)

    def test_perfect_ranking_is_one(self):
        run = make_run(["d1", "d2", "d3"])
        qrels = make_qrels({"d1": 3, "d2": 2, "d3": 1})
        per_q, _ = metrics.ndcg_at_k(run, qrels, k=10)
        assert per_q["q1"] == pytest.approx(1.0)

    def test_mrr_first_relevant_rank_3(self):
        run = make_run(["da", "db", "d1"])
        per_q, _ = metrics.mrr_at_k(run, make_qrels({"d1": 1}), k=10)
        assert per_q["q1"] == pytest.approx(1 / 3)

    def test_mrr_zero_if_outside_k(self):
        run = make_run(["da", "db", "d1"])
        per_q, _ = metrics.mrr_at_k(run, make_qrels({"d1": 1}), k=2)
        assert per_q["q1"] == 0.0

    def test_recall_counts_full_relevant_set(self):
        run = make_run(["d1", "dx"])
        per_q, _ = metrics.recall_at_k(run, make_qrels({"d1": 1, "d2": 1}), k=2)
        assert per_q["q1"] == pytest.approx(0.5)


class TestSkipsAndThresholds:
    def test_query_without_judgments_skipped(self):
        run = make_run(["d1"])
        per_q, skipped = metrics.ndcg_at_k(run, Qrels(), k=10)
        assert per_q == {} and skipped == 1

    def test_all_zero_grades_skipped(self):
        run = make_run(["d1"])
        per_q, skipped = metrics.map_metric(run, make_qrels({"d1": 0}))
        assert per_q == {} and skipped == 1

    def test_rel_threshold_binarization(self):
        run = make_run(["d1", "d2"])
        qrels = make_qrels({"d1": 1, "d2": 2})
        strict, _ = metrics.map_metric(run, qrels, rel_threshold=2)
        assert strict["q1"] == pytest.approx((1 / 2) / 1)

    def test_unjudged_doc_is_grade_zero(self):
        run = make_run(["dunknown", "d1"])
        per_q, _ = metrics.ndcg_at_k(run, make_qrels({"d1": 1}), k=10)
        assert per_q["q1"] == pytest.approx(0.6309297535714575, abs=1e-9)

    def test_exponential_gain_flag(self):
        run = make_run(["d1", "d2"])
        qrels = make_qrels({"d1": 1, "d2": 3})
        lin, _ = metrics.ndcg_at_k(run, qrels, k=10)
        exp, _ = metrics.ndcg_at_k(run, qrels, k=10, exponential=True)
        want = (1 + 7 / math.log2(3)) / (7 + 1 / math.log2(3))
        assert exp["q1"] == pytest.approx(want, abs=1e-12)
        assert exp["q1"] != pytest.approx(lin["q1"])


class TestAgainstReference:
    def test_random_runs_match_brute_force(self):
        rng = np.random.default_rng(3)
        docs = [f"d{i}" for i in range(40)]
        for trial in range(60):
            ranking = list(rng.permutation(docs)[: int(rng.integers(5, 40))])
            grades = {d: int(rng.integers(0, 4)) for d in rng.choice(docs, size=12)}
            run = make_run(ranking)
            qrels = make_qrels(grades)
            report = metrics.evaluate(run, qrels, ndcg_k=10, recall_k=15, mrr_k=10)
            for name, want in (
                ("ndcg@10", ref_ndcg(ranking, grades, 10)),
                ("map", ref_ap(ranking, grades)),
                ("recall@15", ref_recall(ranking, grades, 15)),
                ("mrr@10", ref_mrr(ranking, grades, 10)),
            ):
                if want is None:
                    assert "q1" not in report.per_query[name]
                else:
                    assert abs(report.per_query[name]["q1"] - want) <= 1e-12

    def test_mean_over_evaluated_queries_only(self):
        run = Run({
            "q1": make_run(["d1"], "q1").entries["q1"],
            "q2": make_run(["dx"], "q2").entries["q2"],
        })
        qrels = Qrels({("q1", "d1"): 1})  # q2 has no judgments
        report = metrics.evaluate(run, qrels)
        assert report.mean["ndcg@10"] == pytest.approx(1.0)
        assert report.skipped["ndcg@10"] == 1


    def test_by_query_map_gives_the_same_report(self):
        rng = np.random.default_rng(5)
        docs = [f"d{i}" for i in range(30)]
        run = Run({f"q{j}": make_run(list(rng.permutation(docs)[:20]), f"q{j}").entries[f"q{j}"]
                   for j in range(6)})
        qrels = Qrels({(f"q{j}", d): int(rng.integers(0, 4))
                       for j in range(5) for d in rng.choice(docs, size=8)})
        for kwargs in ({}, {"ndcg_k": 5, "recall_k": 10, "rel_threshold": 2,
                            "exponential_gain": True}):
            want = metrics.evaluate(run, qrels, **kwargs)
            got = metrics.evaluate(run, qrels.by_query(), **kwargs)
            assert got == want


class TestReportFile:
    def test_tsv_layout(self, tmp_path):
        run = make_run(["d1"])
        report = metrics.evaluate(run, make_qrels({"d1": 1}))
        p = tmp_path / "report.tsv"
        metrics.write_report(report, p, per_query=True)
        lines = p.read_text().splitlines()
        assert "ndcg@10\tq1\t1.0000" in lines
        assert "ndcg@10\tall\t1.0000" in lines
        assert all(len(l.split("\t")) == 3 for l in lines)
