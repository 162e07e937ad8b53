"""Passage re-ranking and utility-based selection for RAG pipelines."""

from .corpus import (
    CandidateList,
    LoadError,
    Passage,
    Query,
    evidence_from_qrels,
    load_answers,
    load_corpus,
    load_evidence,
    load_qrels,
    load_queries,
    load_run,
)
from .judge import (
    Judge,
    JudgeTransportError,
    JudgeVerdict,
    OracleJudge,
    RemoteJudge,
    TranscriptJudge,
    judge_window,
    parse_ranking,
    parse_selection,
)
from .metrics import (
    MetricsReport,
    answer_em_f1,
    evaluate_answers,
    evidence_scores,
    ndcg_at_k,
)
from .prompting import PromptTemplate, RenderedPrompt, load_templates, render
from .windowing import (
    WindowConfig,
    WindowTrace,
    plan_ranking_windows,
    rerank,
    select,
    window_count_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateList",
    "Judge",
    "JudgeTransportError",
    "JudgeVerdict",
    "LoadError",
    "MetricsReport",
    "OracleJudge",
    "Passage",
    "PromptTemplate",
    "Query",
    "RemoteJudge",
    "RenderedPrompt",
    "TranscriptJudge",
    "WindowConfig",
    "WindowTrace",
    "answer_em_f1",
    "evaluate_answers",
    "evidence_from_qrels",
    "evidence_scores",
    "judge_window",
    "load_answers",
    "load_corpus",
    "load_evidence",
    "load_qrels",
    "load_queries",
    "load_run",
    "load_templates",
    "ndcg_at_k",
    "parse_ranking",
    "parse_selection",
    "plan_ranking_windows",
    "render",
    "rerank",
    "select",
    "window_count_bounds",
]
