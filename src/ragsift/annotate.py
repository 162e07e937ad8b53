"""Teacher-annotation export for distillation training.

Each training query is judged by the ``select`` or ``rerank`` engine on the
shared batch runner, one record per judged window, carried queue members
included. The teacher output is validated strictly: unlike inference-time
parsing, nothing is repaired, and any output whose one parse needed repair
is rejected with defect tags read off the verdict. Passing targets are
canonicalized so they re-parse with zero repairs.
"""

from __future__ import annotations

import logging
from typing import Sequence

from .corpus import Passage, Query, jsonl_line
from .judge import (
    DEDUP,
    FREE_TEXT_STRIPPED,
    MISSING_APPENDED,
    OUT_OF_RANGE_DROPPED,
    RANKING,
    SELECTION,
    UNPARSEABLE,
    Judge,
    JudgeVerdict,
    canonical_text,
    verdict_from_text,
)
from .prompting import PromptTemplate, RenderedPrompt
from .windowing import QueryFailure, WindowConfig, rerank, select

logger = logging.getLogger(__name__)

IMPROPER_FORMAT = "improper_format"
MISSING_IDENTIFIERS = "missing_identifiers"
REPETITIVE = "repetitive"
TRANSPORT = "transport"

# the files an annotation run writes; training_line picks one per window
TRAINING_FILES = ("train.jsonl", "rejected.jsonl")


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


class _WindowLog(Judge):
    """Judges with ``inner``, keeping each window's prompt and verdict (``None`` if it raised).

    The prompt is kept here, not on ``WindowRecord``: there every ``rerank``
    and ``select`` outcome waiting in ``run_batch`` (up to 32 per worker)
    would hold 100-150 kchars of prompt text. Tried that way, peak RSS of one
    endpoint-stub benchmark run (2 cores) rose from 32.9 to 34.1 MB.
    """

    def __init__(self, inner: Judge):
        self.inner = inner
        self.windows: list[tuple[RenderedPrompt, JudgeVerdict | None]] = []

    def judge(self, prompt: RenderedPrompt) -> JudgeVerdict:
        self.windows.append((prompt, None))
        verdict = self.inner.judge(prompt)
        self.windows[-1] = (prompt, verdict)
        return verdict


def annotate_query(
    query: Query,
    passages: Sequence[Passage],
    judge: Judge,
    cfg: WindowConfig,
    templates: tuple[PromptTemplate, PromptTemplate] | None,
    *,
    kind: str,
) -> list[tuple[RenderedPrompt, JudgeVerdict | None]]:
    """The prompt and verdict of each window the ``kind`` engine judges for ``query``, in window order.

    ``select`` judges a selection annotation and ``rerank`` a ranking one,
    with the prompts that command judges at ``cfg``. The teacher's verdict
    steers the sweep, repaired if need be, even when its window is rejected.
    A transport failure ends the sweep, not the batch: the windows judged
    before it are kept, and the failed one's verdict is ``None``.
    """
    log = _WindowLog(judge)
    try:
        (rerank if kind == RANKING else select)(query, passages, log, cfg, templates)
    except QueryFailure as failure:
        logger.warning("teacher unreachable for query %s: %s", query.query_id, failure.error)
    return log.windows


def training_line(window: tuple[RenderedPrompt, JudgeVerdict | None]) -> tuple[int, str]:
    """The JSONL line of a judged window, and the index of its file in ``TRAINING_FILES``.

    A verdict without defects is a conversation for ``train.jsonl``, its
    target canonicalized; any other goes to ``rejected.jsonl`` with its
    defect tags and the raw teacher text, a ``None`` verdict tagged
    ``transport``.
    """
    prompt, verdict = window
    defects = [TRANSPORT] if verdict is None else verdict_defects(verdict)
    if not defects:
        messages = [
            {"role": "system", "content": prompt.system},
            {"role": "user", "content": prompt.user},
            {"role": "assistant", "content": canonical_text(verdict)},
        ]
        return 0, jsonl_line({"messages": messages})
    rejected = {
        "query_id": prompt.query_id,
        "kind": prompt.kind,
        "defects": defects,
        "raw_text": "" if verdict is None else verdict.raw_text,
    }
    return 1, jsonl_line(rejected)
