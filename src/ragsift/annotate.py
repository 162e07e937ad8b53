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
from typing import Sequence

from .corpus import Passage, Query
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
from .prompting import PromptBudget, PromptTemplate, default_templates, render
from .windowing import WindowConfig

logger = logging.getLogger(__name__)

IMPROPER_FORMAT = "improper_format"
MISSING_IDENTIFIERS = "missing_identifiers"
REPETITIVE = "repetitive"
TRANSPORT = "transport"

# the files an annotation run writes; training_line picks one per record
TRAINING_FILES = ("train.jsonl", "rejected.jsonl")


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


def training_line(record: TrainingRecord) -> tuple[int, str]:
    """The record's JSONL line, and the index of its file in ``TRAINING_FILES``.

    A passing record is a conversation for ``train.jsonl``; a failed one goes
    to ``rejected.jsonl`` with its defect tags and the raw teacher text.
    """
    if record.passed:
        return 0, json.dumps(record.to_messages(), ensure_ascii=False) + "\n"
    rejected = {
        "query_id": record.query_id,
        "kind": record.kind,
        "defects": record.defects,
        "raw_text": record.raw_text,
    }
    return 1, json.dumps(rejected, ensure_ascii=False) + "\n"
