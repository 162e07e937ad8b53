from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragsift.corpus import Qrels
from ragsift.metrics import (
    MetricsReport,
    answer_em_f1,
    answer_tokens,
    evaluate_answers,
    evidence_scores,
    ndcg_at_k,
    ndcg_query,
    normalize_answer,
)
from tests.conftest import make_candidates


class TestNormalizeAnswer:
    def test_case_punct_article(self):
        assert normalize_answer("The Cat!") == ["cat"]

    def test_empty(self):
        assert normalize_answer("") == []

    def test_articles_only(self):
        assert normalize_answer("a  an the") == []

    def test_answer_tokens_keep_articles(self):
        assert answer_tokens("The Cat!") == ["the", "cat"]


class TestAnswerEmF1:
    def test_normalized_equality(self):
        assert answer_em_f1("barack obama.", ["Barack Obama"]) == (1, 1.0)

    def test_partial_overlap(self):
        em, f1 = answer_em_f1("the cat sat", ["cat sat down"])
        assert em == 0
        assert f1 == pytest.approx(2 / 3)

    def test_empty_prediction(self):
        assert answer_em_f1("", ["x"]) == (0, 0.0)

    def test_both_empty(self):
        assert answer_em_f1("", ["the"]) == (0, 0.0)
        assert answer_em_f1("the", ["a"]) == (0, 0.0)

    def test_best_reference_wins(self):
        _, f1 = answer_em_f1("blue whale", ["red fox", "blue whale calf"])
        assert f1 == pytest.approx(0.8)

    @settings(max_examples=250, deadline=None)
    @given(st.text(max_size=40), st.lists(st.text(max_size=40), min_size=1, max_size=4))
    def test_em_implies_perfect_f1(self, pred, golds):
        em, f1 = answer_em_f1(pred, golds)
        assert 0.0 <= f1 <= 1.0
        if em == 1:
            assert f1 == 1.0

    def test_missing_queries_reported(self):
        metrics = evaluate_answers(
            {"q1": "x", "q3": "y"}, {"q1": ["x"], "q2": ["z"]}
        )
        assert metrics.missing_gold == ["q3"]
        assert metrics.missing_predictions == ["q2"]
        assert metrics.evaluated == 2
        assert metrics.per_query["q2"] == {"em": 0.0, "f1": 0.0}


class TestEvidenceScores:
    def test_hand_counts(self):
        metrics = evidence_scores({"q1": ["d1", "d2"]}, {"q1": {"d1"}})
        assert metrics.recall == 1.0
        assert metrics.precision == 0.5
        assert metrics.micro_f1 == pytest.approx(2 / 3)

    def test_perfect_selection(self):
        gold = {"q1": {"d1", "d2"}, "q2": {"d3"}}
        metrics = evidence_scores({"q1": ["d2", "d1"], "q2": ["d3"]}, gold)
        assert metrics.recall == metrics.precision == metrics.micro_f1 == 1.0

    def test_pooled_micro_f1(self):
        # (tp=1, fp=0, fn=1) and (tp=1, fp=1, fn=0) pool to 2*2/(4+1+1)
        gold = {"q1": {"d1", "d2"}, "q2": {"d3"}}
        selected = {"q1": ["d1"], "q2": ["d3", "d4"]}
        metrics = evidence_scores(selected, gold)
        assert metrics.micro_f1 == pytest.approx(2 / 3)

    def test_empty_selection_allowed(self):
        metrics = evidence_scores({}, {"q1": {"d1"}})
        assert metrics.per_query["q1"]["tp"] == 0
        assert metrics.per_query["q1"]["fp"] == 0
        assert metrics.recall == 0.0

    def test_micro_equals_per_query_f1_for_single_query(self):
        rng = random.Random(5)
        for _ in range(50):
            gold = {f"d{i}" for i in rng.sample(range(10), rng.randint(1, 5))}
            sel = [f"d{i}" for i in rng.sample(range(10), rng.randint(0, 6))]
            metrics = evidence_scores({"q": sel}, {"q": gold})
            tp = len(set(sel) & gold)
            p = tp / len(sel) if sel else 0.0
            r = tp / len(gold)
            f1 = 2 * p * r / (p + r) if p + r else 0.0
            assert metrics.micro_f1 == pytest.approx(f1)


def brute_force_ndcg(run_grades: list[int], all_grades: list[int], k: int) -> float:
    """Oracle: best DCG over explicit enumeration of all grade orderings."""

    def dcg(seq):
        return sum((2**g - 1) / math.log2(i + 2) for i, g in enumerate(seq[:k]))

    best = max(dcg(list(p)) for p in set(itertools.permutations(all_grades)))
    if best == 0:
        return 0.0
    return dcg(run_grades) / best


class TestNdcg:
    def test_already_ideal(self):
        grades = {"a": 3, "b": 2, "c": 0}
        assert ndcg_query(["a", "b", "c"], grades, 3) == pytest.approx(1.0)

    def test_hand_derived_value(self):
        # DCG = 7/log2(3), IDCG = 7
        value = ndcg_query(["a", "b"], {"a": 0, "b": 3}, 2)
        assert value == pytest.approx(7 / math.log2(3) / 7)
        assert value == pytest.approx(0.6309, abs=5e-5)

    def test_no_relevant_docs_scores_zero(self):
        assert ndcg_query(["a", "b"], {"a": 0, "b": 0}, 2) == 0.0

    def test_query_missing_from_qrels_counts_as_zero(self):
        qrels = Qrels({"q1": {"d1": 2}})
        run = {
            "q1": make_candidates("q1", ["d1"]),
            "q2": make_candidates("q2", ["d9"]),
        }
        assert ndcg_at_k(run, qrels, 10) == pytest.approx(0.5)

    def test_ideal_uses_grades_outside_run(self):
        # a grade-3 doc missing from the ranking must deflate the score
        grades = {"a": 1, "b": 3}
        assert ndcg_query(["a"], grades, 2) < 1.0

    def test_matches_brute_force_oracle(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(1, 8)
            grades = [rng.randint(0, 3) for _ in range(n)]
            k = rng.randint(1, 8)
            doc_ids = [f"d{i}" for i in range(n)]
            order = list(range(n))
            rng.shuffle(order)
            run_ids = [doc_ids[i] for i in order]
            grade_map = dict(zip(doc_ids, grades))
            expected = brute_force_ndcg([grade_map[d] for d in run_ids], grades, k)
            assert ndcg_query(run_ids, grade_map, k) == pytest.approx(expected, abs=1e-9)

    def test_mean_insensitive_to_iteration_order(self):
        qrels = Qrels({"q1": {"d1": 2}, "q2": {"d2": 1, "d3": 3}})
        run_a = {
            "q1": make_candidates("q1", ["d1", "d2"]),
            "q2": make_candidates("q2", ["d3", "d2"]),
        }
        run_b = dict(reversed(list(run_a.items())))
        assert ndcg_at_k(run_a, qrels, 5) == ndcg_at_k(run_b, qrels, 5)


class TestReport:
    def test_aggregates_and_percent_formatting(self):
        report = MetricsReport(
            evidence=evidence_scores({"q1": ["d1", "d2"]}, {"q1": {"d1"}})
        )
        doc = report.to_json_dict()
        assert doc["percent"]["evidence_micro_f1"] == "66.67"

    def test_per_query_rows_sorted(self):
        report = MetricsReport(
            evidence=evidence_scores(
                {"q2": ["d1"], "q1": ["d2"]}, {"q1": {"d2"}, "q2": {"d1"}}
            )
        )
        columns, rows = report.per_query_rows()
        assert columns[0] == "query_id"
        assert [r[0] for r in rows] == ["q1", "q2"]
