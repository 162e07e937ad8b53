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
    mean_em: float
    mean_f1: float
    evaluated: int
    per_query: dict[str, dict[str, float]]
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
    missing_gold = sorted(q for q in predictions if q not in gold)
    missing_predictions = sorted(q for q in gold if q not in predictions)
    for qid in sorted(gold):
        if qid in predictions:
            em, f1 = answer_em_f1(predictions[qid], gold[qid])
        else:
            em, f1 = 0, 0.0
        per_query[qid] = {"em": float(em), "f1": f1}
    n = len(per_query)
    return AnswerMetrics(
        mean_em=sum(r["em"] for r in per_query.values()) / n if n else 0.0,
        mean_f1=sum(r["f1"] for r in per_query.values()) / n if n else 0.0,
        evaluated=n,
        per_query=per_query,
        missing_gold=missing_gold,
        missing_predictions=missing_predictions,
    )


@dataclass
class EvidenceMetrics:
    recall: float
    precision: float
    micro_f1: float
    micro_recall: float
    micro_precision: float
    evaluated: int
    per_query: dict[str, dict[str, float]]
    missing_gold: list[str] = field(default_factory=list)


def evidence_scores(
    selected: Mapping[str, Sequence[str]], gold: Mapping[str, set[str]]
) -> EvidenceMetrics:
    """Evidence selection quality against gold doc-id sets.

    Recall and precision are per-query means (an empty selection scores
    precision 0); micro scores pool true/false positive/negative counts over
    all evaluated queries: micro-F1 = 2*TP / (2*TP + FP + FN).
    """
    per_query: dict[str, dict[str, float]] = {}
    missing_gold = sorted(q for q in selected if q not in gold)
    tp_total = fp_total = fn_total = 0
    for qid in sorted(gold):
        sel = set(selected.get(qid, ()))
        gold_set = gold[qid]
        tp = len(sel & gold_set)
        fp = len(sel - gold_set)
        fn = len(gold_set - sel)
        tp_total += tp
        fp_total += fp
        fn_total += fn
        per_query[qid] = {
            "tp": float(tp),
            "fp": float(fp),
            "fn": float(fn),
            "recall": tp / len(gold_set) if gold_set else 0.0,
            "precision": tp / len(sel) if sel else 0.0,
        }
    n = len(per_query)
    denom = 2 * tp_total + fp_total + fn_total
    return EvidenceMetrics(
        recall=sum(r["recall"] for r in per_query.values()) / n if n else 0.0,
        precision=sum(r["precision"] for r in per_query.values()) / n if n else 0.0,
        micro_f1=2 * tp_total / denom if denom else 0.0,
        micro_recall=tp_total / (tp_total + fn_total) if tp_total + fn_total else 0.0,
        micro_precision=tp_total / (tp_total + fp_total) if tp_total + fp_total else 0.0,
        evaluated=n,
        per_query=per_query,
        missing_gold=missing_gold,
    )


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
    return {qid: ndcg_query(cl.doc_ids(), qrels.get(qid, {}), k) for qid, cl in run.items()}


def mean_in_order(values: Collection[float]) -> float:
    """Mean of ``values``, added one by one in their order; 0 when empty."""
    return reduce(add, values, 0.0) / len(values) if values else 0.0


def load_predictions(path: str | Path) -> dict[str, str]:
    """Load answer predictions: JSONL ``{query_id, answer}``, one per query."""
    return load_query_field(path, "answer", _answer_text)


def _answer_text(value: object) -> str:
    if not isinstance(value, str):
        raise ValueError("is not a string")
    return value


@dataclass
class MetricsReport:
    """Everything one evaluation run produced, recomputable from per-query rows."""

    answers: AnswerMetrics | None = None
    evidence: EvidenceMetrics | None = None
    ndcg_queries: dict[int, dict[str, float]] | None = None

    def aggregates(self) -> dict[str, float]:
        out: dict[str, float] = {}
        if self.answers is not None:
            out["em"] = self.answers.mean_em
            out["f1"] = self.answers.mean_f1
        if self.evidence is not None:
            out["evidence_recall"] = self.evidence.recall
            out["evidence_precision"] = self.evidence.precision
            out["evidence_micro_f1"] = self.evidence.micro_f1
            out["evidence_micro_recall"] = self.evidence.micro_recall
            out["evidence_micro_precision"] = self.evidence.micro_precision
        if self.ndcg_queries is not None:
            for k, scores in sorted(self.ndcg_queries.items()):
                out[f"ndcg@{k}"] = mean_in_order(scores.values())
        return out

    def to_json_dict(self) -> dict:
        doc: dict = {
            "aggregates": self.aggregates(),
            "percent": {k: f"{100 * v:.2f}" for k, v in self.aggregates().items()},
        }
        if self.answers is not None:
            doc["answers"] = {
                "evaluated": self.answers.evaluated,
                "missing_gold": self.answers.missing_gold,
                "missing_predictions": self.answers.missing_predictions,
            }
        if self.evidence is not None:
            doc["evidence"] = {
                "evaluated": self.evidence.evaluated,
                "missing_gold": self.evidence.missing_gold,
            }
        return doc

    def per_query_rows(self) -> tuple[list[str], list[list[str]]]:
        """Flat per-query table: a column union of the computed sections."""
        columns = ["query_id"]
        if self.answers is not None:
            columns += ["em", "f1"]
        if self.evidence is not None:
            columns += ["tp", "fp", "fn", "recall", "precision"]
        ndcg_ks = sorted(self.ndcg_queries) if self.ndcg_queries else []
        columns += [f"ndcg@{k}" for k in ndcg_ks]

        qids: set[str] = set()
        if self.answers is not None:
            qids.update(self.answers.per_query)
        if self.evidence is not None:
            qids.update(self.evidence.per_query)
        for k in ndcg_ks:
            qids.update(self.ndcg_queries[k])  # type: ignore[index]

        rows = []
        for qid in sorted(qids):
            row = [qid]
            if self.answers is not None:
                rec = self.answers.per_query.get(qid)
                row += ["" if rec is None else f"{rec['em']:.0f}", ""]
                if rec is not None:
                    row[-1] = f"{rec['f1']:.4f}"
            if self.evidence is not None:
                rec = self.evidence.per_query.get(qid)
                if rec is None:
                    row += [""] * 5
                else:
                    row += [
                        f"{rec['tp']:.0f}",
                        f"{rec['fp']:.0f}",
                        f"{rec['fn']:.0f}",
                        f"{rec['recall']:.4f}",
                        f"{rec['precision']:.4f}",
                    ]
            for k in ndcg_ks:
                value = self.ndcg_queries[k].get(qid)  # type: ignore[index]
                row.append("" if value is None else f"{value:.4f}")
            rows.append(row)
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
