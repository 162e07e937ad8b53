"""Evaluation arithmetic: answer EM/F1, evidence recall/precision/micro-F1, nDCG@k.

All scores live in [0, 1] internally; percentage formatting happens only in
the report writers. Everything here is a pure computation over immutable
inputs and is insensitive to query iteration order.
"""

from __future__ import annotations

import json
import math
import string
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from pathlib import Path
from typing import Collection, Mapping, Sequence

from .corpus import CandidateList, load_query_field

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def answer_tokens(text: str) -> list[str]:
    """Lowercase, strip punctuation, collapse whitespace, split."""
    return text.lower().translate(_PUNCT_TABLE).split()


def _token_bag_f1(pred: list[str], gold: list[str]) -> float:
    if not pred or not gold:
        return 1.0 if pred == gold else 0.0
    overlap = sum((Counter(pred) & Counter(gold)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(gold)
    return 2 * precision * recall / (precision + recall)


def answer_em_f1(prediction: str, references: Sequence[str]) -> tuple[int, float]:
    """Exact match and best token-bag F1 of a prediction against references.

    Both scores compare lowercased, punctuation-stripped token bags; EM is 1
    iff the prediction's bag equals some reference's bag exactly, which makes
    em=1 imply f1=1.
    """
    if not references:
        raise ValueError("references must be non-empty")
    pred = answer_tokens(prediction)
    em = 0
    f1 = 0.0
    for ref in references:
        gold = answer_tokens(ref)
        if pred == gold:
            em = 1
        f1 = max(f1, _token_bag_f1(pred, gold))
    return em, f1


@dataclass
class AnswerMetrics:
    per_query: dict[str, dict[str, float]]  # query id -> {"em", "f1"}
    missing_gold: list[str] = field(default_factory=list)
    missing_predictions: list[str] = field(default_factory=list)


def evaluate_answers(
    predictions: Mapping[str, str], gold: Mapping[str, Sequence[str]]
) -> AnswerMetrics:
    """Score one prediction per query against gold references.

    Predictions whose query has no gold entry cannot be scored; they are
    reported in ``missing_gold`` and excluded from the means. Gold queries
    with no prediction score 0 and are listed in ``missing_predictions``.
    """
    per_query: dict[str, dict[str, float]] = {}
    for qid in sorted(gold):
        em, f1 = answer_em_f1(predictions[qid], gold[qid]) if qid in predictions else (0, 0.0)
        per_query[qid] = {"em": float(em), "f1": f1}
    return AnswerMetrics(
        per_query,
        missing_gold=sorted(q for q in predictions if q not in gold),
        missing_predictions=sorted(q for q in gold if q not in predictions),
    )


@dataclass
class EvidenceMetrics:
    per_query: dict[str, tuple[int, int, int]]  # query id -> (tp, fp, fn)
    missing_gold: list[str] = field(default_factory=list)


def evidence_scores(
    selected: Mapping[str, Sequence[str]], gold: Mapping[str, set[str]]
) -> EvidenceMetrics:
    """True positive, false positive and false negative counts per gold query.

    A gold query with no selection counts as an empty one; selections for
    queries without gold are listed in ``missing_gold``.
    """
    per_query = {}
    for qid in sorted(gold):
        sel, gold_set = set(selected.get(qid, ())), gold[qid]
        per_query[qid] = (len(sel & gold_set), len(sel - gold_set), len(gold_set - sel))
    return EvidenceMetrics(per_query, missing_gold=sorted(q for q in selected if q not in gold))


def dcg(grades: Sequence[int], k: int) -> float:
    return sum((2**g - 1) / math.log2(i + 2) for i, g in enumerate(grades[:k]))


def ndcg_query(ranked_doc_ids: Sequence[str], grades: Mapping[str, int], k: int) -> float:
    """nDCG@k for one query: exponential gain, log2(rank+1) discount.

    The ideal ordering uses every judged grade for the query, not just the
    documents present in the ranking. Queries with no relevant document
    score 0.
    """
    run_grades = [grades.get(d, 0) for d in ranked_doc_ids]
    ideal = sorted(grades.values(), reverse=True)
    idcg = dcg(ideal, k)
    if idcg == 0:
        return 0.0
    return dcg(run_grades, k) / idcg


def ndcg_at_k(
    run: Mapping[str, CandidateList], qrels: Mapping[str, Mapping[str, int]], k: int
) -> float:
    """Mean nDCG@k over every query in the run.

    Queries absent from the qrels (or with no relevant document) contribute
    0 and stay in the denominator.
    """
    return mean_in_order(ndcg_per_query(run, qrels, k).values())


def ndcg_per_query(
    run: Mapping[str, CandidateList], qrels: Mapping[str, Mapping[str, int]], k: int
) -> dict[str, float]:
    if k < 1:
        raise ValueError("k must be >= 1")
    return {qid: ndcg_query(cl.ids, qrels.get(qid, {}), k) for qid, cl in run.items()}


def mean_in_order(values: Collection[float]) -> float:
    """Mean of ``values``, added one by one in their order; 0 when empty."""
    return reduce(add, values, 0.0) / len(values) if values else 0.0


def _rate(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def load_predictions(path: str | Path) -> dict[str, str]:
    """Load answer predictions: JSONL ``{query_id, answer}``, one per query."""
    return load_query_field(path, "answer", _answer_text)


def _answer_text(value: object) -> str:
    if not isinstance(value, str):
        raise ValueError("is not a string")
    return value


@dataclass
class MetricsReport:
    """Per-query scores and counts of one evaluation; every mean, rate and cell is derived."""

    answers: AnswerMetrics | None = None
    evidence: EvidenceMetrics | None = None
    ndcg_queries: dict[int, dict[str, float]] | None = None

    def aggregates(self) -> dict[str, float]:
        """Per-query means in query-id order; the micro scores pool the counts of every query.

        Recall and precision are 0 for a query with no gold or no selection;
        micro-F1 = 2*TP / (2*TP + FP + FN).
        """
        out: dict[str, float] = {}
        if self.answers is not None:
            rows = self.answers.per_query.values()
            out["em"] = mean_in_order([r["em"] for r in rows])
            out["f1"] = mean_in_order([r["f1"] for r in rows])
        if self.evidence is not None:
            counts = self.evidence.per_query.values()
            out["evidence_recall"] = mean_in_order([_rate(tp, tp + fn) for tp, _, fn in counts])
            out["evidence_precision"] = mean_in_order([_rate(tp, tp + fp) for tp, fp, _ in counts])
            tp, fp, fn = map(sum, zip((0, 0, 0), *counts))
            out["evidence_micro_f1"] = _rate(2 * tp, 2 * tp + fp + fn)
            out["evidence_micro_recall"] = _rate(tp, tp + fn)
            out["evidence_micro_precision"] = _rate(tp, tp + fp)
        for k, scores in sorted((self.ndcg_queries or {}).items()):
            out[f"ndcg@{k}"] = mean_in_order(scores.values())
        return out

    def to_json_dict(self) -> dict:
        aggregates = self.aggregates()
        doc: dict = {
            "aggregates": aggregates,
            "percent": {k: f"{100 * v:.2f}" for k, v in aggregates.items()},
        }
        if self.answers is not None:
            doc["answers"] = {
                "evaluated": len(self.answers.per_query),
                "missing_gold": self.answers.missing_gold,
                "missing_predictions": self.answers.missing_predictions,
            }
        if self.evidence is not None:
            doc["evidence"] = {
                "evaluated": len(self.evidence.per_query),
                "missing_gold": self.evidence.missing_gold,
            }
        return doc

    def per_query_rows(self) -> tuple[list[str], list[list[str]]]:
        """Flat per-query table: a column union of the computed sections.

        A query absent from a section has blank cells in that section's columns.
        """
        sections: list[tuple[list[str], dict[str, list[str]]]] = []
        if self.answers is not None:
            sections.append((["em", "f1"], {
                qid: [f"{r['em']:.0f}", f"{r['f1']:.4f}"]
                for qid, r in self.answers.per_query.items()
            }))
        if self.evidence is not None:
            sections.append((["tp", "fp", "fn", "recall", "precision"], {
                # recall tp / (tp + fn), then precision tp / (tp + fp)
                qid: [str(tp), str(fp), str(fn), *(f"{_rate(tp, tp + x):.4f}" for x in (fn, fp))]
                for qid, (tp, fp, fn) in self.evidence.per_query.items()
            }))
        for k, scores in sorted((self.ndcg_queries or {}).items()):
            sections.append(([f"ndcg@{k}"], {qid: [f"{v:.4f}"] for qid, v in scores.items()}))

        columns = ["query_id", *(c for cols, _ in sections for c in cols)]
        rows = [
            [qid, *(c for cols, cells in sections for c in cells.get(qid, [""] * len(cols)))]
            for qid in sorted(set().union(*(cells for _, cells in sections)))
        ]
        return columns, rows


def write_report(report: MetricsReport, out_dir: str | Path) -> tuple[Path, Path]:
    """Write report.json plus a flat per_query.tsv; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "report.json"
    tsv_path = out_dir / "per_query.tsv"
    json_path.write_text(
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    columns, rows = report.per_query_rows()
    with tsv_path.open("w", encoding="utf-8") as fh:
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")
    return json_path, tsv_path
