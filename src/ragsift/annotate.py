"""Teacher-annotation export for distillation training.

Each training query's top candidates are judged in a single window, run by
the shared batch runner, and the teacher output is validated strictly:
unlike inference-time parsing, nothing is repaired, and any output whose one
parse needed repair is rejected with defect tags read off the verdict.
Passing targets are canonicalized so they re-parse with zero repairs.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import CandidateList, Corpus, Passage, Query
from .judge import (
    DEDUP,
    FREE_TEXT_STRIPPED,
    MISSING_APPENDED,
    OUT_OF_RANGE_DROPPED,
    RANKING,
    SELECTION,
    UNPARSEABLE,
    Judge,
    JudgeTransportError,
    JudgeVerdict,
    canonical_text,
    judge_window,
    verdict_from_text,
)
from .pipeline import run_batch
from .prompting import PromptBudget, PromptTemplate, default_templates, render
from .windowing import WindowConfig

logger = logging.getLogger(__name__)

IMPROPER_FORMAT = "improper_format"
MISSING_IDENTIFIERS = "missing_identifiers"
REPETITIVE = "repetitive"
TRANSPORT = "transport"


@dataclass
class TrainingRecord:
    query_id: str
    kind: str
    system_text: str
    prompt_text: str
    raw_text: str
    target_text: str
    passed: bool
    defects: list[str] = field(default_factory=list)

    def to_messages(self) -> dict:
        return {
            "messages": [
                {"role": "system", "content": self.system_text},
                {"role": "user", "content": self.prompt_text},
                {"role": "assistant", "content": self.target_text},
            ]
        }


def verdict_defects(verdict: JudgeVerdict) -> list[str]:
    """Strict training-time defects of a teacher verdict, read off its repairs.

    A verdict passes only if its parse needed no repair: ``improper_format``
    covers output whose identifiers had to be scavenged from free text (or
    were absent, or sat outside the window, or, for selection, came without a
    pseudo answer); ``missing_identifiers`` flags ranking output that does not
    cover 1..n exactly; ``repetitive`` flags any identifier emitted twice.
    """
    tags = set(verdict.repairs)
    defects: set[str] = set()
    if verdict.kind == RANKING:
        if tags & {FREE_TEXT_STRIPPED, UNPARSEABLE}:
            defects.add(IMPROPER_FORMAT)
        if tags & {MISSING_APPENDED, OUT_OF_RANGE_DROPPED}:
            defects.add(MISSING_IDENTIFIERS)
    elif verdict.kind == SELECTION:
        if tags & {FREE_TEXT_STRIPPED, UNPARSEABLE, OUT_OF_RANGE_DROPPED}:
            defects.add(IMPROPER_FORMAT)
        if verdict.pseudo_answer is None or not verdict.pseudo_answer.strip():
            # the training target must teach answer drafting, not just picking
            defects.add(IMPROPER_FORMAT)
    else:
        raise ValueError(f"unknown annotation kind {verdict.kind!r}")
    if DEDUP in tags:
        defects.add(REPETITIVE)
    return [d for d in (IMPROPER_FORMAT, MISSING_IDENTIFIERS, REPETITIVE) if d in defects]


def validate_generation(text: str, kind: str, n: int) -> tuple[bool, list[str]]:
    """Strict training-time validation of a raw teacher generation."""
    defects = verdict_defects(verdict_from_text(text, kind, n))
    return not defects, defects


def annotate_query(
    query: Query,
    passages: Sequence[Passage],
    judge: Judge,
    cfg: WindowConfig,
    templates: tuple[PromptTemplate, PromptTemplate] | None,
    budget: PromptBudget | None,
    *,
    kind: str,
) -> TrainingRecord:
    """Judge one query's top ``cfg.depth`` passages in a single window.

    A judge transport failure yields a failed record tagged ``transport``
    instead of aborting the batch.
    """
    ranking_template, selection_template = templates or default_templates()
    template = ranking_template if kind == RANKING else selection_template
    window = passages[: cfg.depth]
    prompt = render(template, query, window, budget)
    try:
        verdict = judge_window(judge, prompt, kind, len(window))
    except JudgeTransportError as exc:
        logger.warning("teacher unreachable for query %s: %s", query.query_id, exc)
        raw_text, target_text, defects = "", "", [TRANSPORT]
    else:
        defects = verdict_defects(verdict)
        raw_text = verdict.raw_text
        target_text = "" if defects else canonical_text(verdict)
    return TrainingRecord(
        query_id=query.query_id,
        kind=kind,
        system_text=prompt.system,
        prompt_text=prompt.user,
        raw_text=raw_text,
        target_text=target_text,
        passed=not defects,
        defects=defects,
    )


def annotate(
    queries: Sequence[Query],
    run: Mapping[str, CandidateList],
    corpus: Corpus,
    judge: Judge,
    kind: str,
    cfg: WindowConfig,
    templates: tuple[PromptTemplate, PromptTemplate] | None = None,
    budget: PromptBudget | None = None,
    parallel: int = 1,
) -> list[TrainingRecord]:
    """Judge each query's top candidates once and build training records.

    Annotation uses a single window, so the configured depth must not exceed
    the window size; candidate lists are truncated to the depth. Queries run
    on the shared batch runner (``pipeline.run_batch``), so records come back
    sorted by query_id regardless of ``parallel``.
    """
    if kind not in (RANKING, SELECTION):
        raise ValueError(f"unknown annotation kind {kind!r}")
    if cfg.depth > cfg.window_size:
        raise ValueError(
            f"annotation is single-window: depth ({cfg.depth}) must be <= "
            f"window_size ({cfg.window_size})"
        )
    engine = partial(annotate_query, kind=kind)
    batch = run_batch(engine, queries, run, corpus, judge, cfg, templates, budget, parallel)
    return list(batch.results.values())


def write_training_files(
    records: Iterable[TrainingRecord], train_path: str | Path, rejected_path: str | Path
) -> tuple[int, int]:
    """Write passing records as conversation JSONL and failures to a sidecar.

    Returns (passed, rejected) counts.
    """
    train_path = Path(train_path)
    rejected_path = Path(rejected_path)
    passed = rejected = 0
    with train_path.open("w", encoding="utf-8") as train_fh, rejected_path.open(
        "w", encoding="utf-8"
    ) as rej_fh:
        for rec in records:
            if rec.passed:
                train_fh.write(json.dumps(rec.to_messages(), ensure_ascii=False) + "\n")
                passed += 1
            else:
                rej_fh.write(
                    json.dumps(
                        {
                            "query_id": rec.query_id,
                            "kind": rec.kind,
                            "defects": rec.defects,
                            "raw_text": rec.raw_text,
                        },
                        ensure_ascii=False,
                    )
                    + "\n"
                )
                rejected += 1
    return passed, rejected
