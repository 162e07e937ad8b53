"""The two sliding-window judging engines.

Re-ranking sweeps the candidate list back to front: the last ``window_size``
passages are permuted by the judge, then the window slides toward the head
by ``stride``, bubbling the best passages upward until the window anchored
at position 0 has been judged.

Selection sweeps front to back instead. Each window is judged for useful
passages; those are prepended to an ordered, duplicate-free queue. The next
window carries the first ``min(stride, len(queue))`` queue members forward
as context and fills the rest with the next unprocessed candidates, until
every candidate has been seen. The final queue is the selection result, so
the number of selected passages adapts per query instead of being a fixed
cutoff, and sparse selection means fewer windows than re-ranking needs.

Windows within a query are strictly sequential; run distinct queries
concurrently instead. All per-query state lives in the returned trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .corpus import Passage, Query, load_query_field
from .judge import (
    RANKING,
    SELECTION,
    Judge,
    JudgeTransportError,
    JudgeVerdict,
    judge_window,
)
from .prompting import PromptBudget, PromptTemplate, RenderedPrompt, default_templates, render


@dataclass(frozen=True)
class WindowConfig:
    """Sliding-window geometry: candidate depth, window size and stride."""

    depth: int = 100
    window_size: int = 20
    stride: int = 10

    def __post_init__(self) -> None:
        if self.depth < 1 or self.window_size < 1 or self.stride < 1:
            raise ValueError("depth, window_size and stride must all be positive")
        if self.depth > self.window_size and self.stride >= self.window_size:
            raise ValueError(
                f"stride ({self.stride}) must be smaller than window_size "
                f"({self.window_size}) when depth exceeds the window"
            )


@dataclass(frozen=True)
class WindowRecord:
    """One judged window: what was carried in, what was fresh, and the outcome.

    ``queue_after`` is the selection queue state after the window (selection
    engine); ``window_after`` is the permuted window slice (ranking engine).
    """

    window_index: int
    carried: tuple[str, ...]
    fresh: tuple[str, ...]
    verdict: JudgeVerdict
    queue_after: tuple[str, ...] | None = None
    window_after: tuple[str, ...] | None = None


@dataclass
class WindowTrace:
    """Per-query audit trail plus the cost counters behind run reports."""

    query_id: str
    windows: list[WindowRecord]
    prompt_char_count: int = 0

    @property
    def window_count(self) -> int:
        return len(self.windows)

    def record(self, rec: WindowRecord, prompt: RenderedPrompt) -> None:
        self.windows.append(rec)
        self.prompt_char_count += prompt.char_count()

    def to_jsonl_records(self) -> list[dict]:
        out = []
        for rec in self.windows:
            v = rec.verdict
            out.append(
                {
                    "query_id": self.query_id,
                    "window_index": rec.window_index,
                    "carried": list(rec.carried),
                    "fresh": list(rec.fresh),
                    "verdict": {
                        "kind": v.kind,
                        "permutation": list(v.permutation) if v.permutation else None,
                        "selected": list(v.selected) if v.selected is not None else None,
                        "pseudo_answer": v.pseudo_answer,
                        "repairs": list(v.repairs),
                        "raw_text": v.raw_text,
                    },
                    "queue_after": list(rec.queue_after) if rec.queue_after is not None else None,
                    "window_after": (
                        list(rec.window_after) if rec.window_after is not None else None
                    ),
                }
            )
        return out


class EngineAbort(RuntimeError):
    """A query was aborted mid-run; carries the partial trace for auditing."""

    def __init__(self, query_id: str, trace: WindowTrace, cause: JudgeTransportError):
        super().__init__(f"query {query_id} aborted at window {trace.window_count}: {cause}")
        self.query_id = query_id
        self.trace = trace
        self.cause = cause


class PreselectedQueue:
    """Ordered, duplicate-free pool of doc ids judged useful so far.

    Selections are prepended as a block in the judge's emission order;
    duplicates keep the newest-block occurrence and later ones are dropped.
    Membership is monotone: prepending never removes anything, so a passage
    once selected stays selected for the rest of the run.
    """

    __slots__ = ("_ids",)

    def __init__(self, ids: Sequence[str] = ()):
        self._ids = list(dict.fromkeys(ids))

    def prepend(self, selected: Sequence[str]) -> None:
        self._ids = list(dict.fromkeys(list(selected) + self._ids))

    def head(self, count: int) -> list[str]:
        return self._ids[:count]

    def to_list(self) -> list[str]:
        return list(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self):
        return iter(self._ids)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._ids

    def __repr__(self) -> str:
        return f"PreselectedQueue({self._ids!r})"


def plan_ranking_windows(cfg: WindowConfig) -> list[tuple[int, int]]:
    """Half-open index ranges of the back-to-front re-ranking sweep.

    The first window covers the list tail; each subsequent start moves toward
    the head by the stride, clamped at 0, and the sweep stops once the window
    anchored at 0 has been emitted. A list no longer than the window is a
    single range.
    """
    m, w, s = cfg.depth, cfg.window_size, cfg.stride
    if m <= w:
        return [(0, m)]
    ranges = []
    start = m - w
    while True:
        ranges.append((start, start + w))
        if start == 0:
            break
        start = max(0, start - s)
    return ranges


def window_count_bounds(cfg: WindowConfig) -> tuple[int, int]:
    """(min, max) window counts for the selection engine.

    The minimum assumes nothing is ever selected, so every window consumes
    ``window_size`` fresh candidates. The maximum assumes the queue always
    supplies a full stride of carried passages after the first window.
    """
    m, w, s = cfg.depth, cfg.window_size, cfg.stride
    if m <= w:
        return 1, 1
    return math.ceil(m / w), 1 + math.ceil((m - w) / (w - s))


@dataclass
class RerankResult:
    ranked_ids: list[str]
    trace: WindowTrace


@dataclass
class SelectionResult:
    selected_ids: list[str]
    pseudo_answers: list[str | None]
    trace: WindowTrace


def _per_query_cfg(cfg: WindowConfig, actual_depth: int) -> WindowConfig:
    # candidate lists can be shorter than the configured depth
    return cfg if actual_depth == cfg.depth else replace(cfg, depth=actual_depth)


def rerank(
    query: Query,
    candidates: Sequence[Passage],
    judge: Judge,
    cfg: WindowConfig,
    templates: tuple[PromptTemplate, PromptTemplate] | None = None,
    budget: PromptBudget | None = None,
) -> RerankResult:
    """Re-rank candidates with the back-to-front sliding window.

    Each window's verdict permutation is applied in place to the working
    list before the next window is formed, so high-grade passages bubble
    toward the head across overlapping windows. The output is always a
    permutation of the input ids, whatever the judge emits.
    """
    if not candidates:
        raise ValueError("rerank needs at least one candidate")
    ranking_template = (templates or default_templates())[0]
    cfg = _per_query_cfg(cfg, len(candidates))
    order = list(candidates)
    trace = WindowTrace(query_id=query.query_id, windows=[])

    prev_start: int | None = None
    for idx, (start, end) in enumerate(plan_ranking_windows(cfg)):
        window = order[start:end]
        n = len(window)
        prompt = render(ranking_template, query, window, budget)
        try:
            verdict = judge_window(judge, prompt, RANKING, n)
        except JudgeTransportError as exc:
            raise EngineAbort(query.query_id, trace, exc) from exc
        permuted = [window[i - 1] for i in verdict.permutation or ()]
        order[start:end] = permuted

        fresh_end = end if prev_start is None else prev_start
        trace.record(
            WindowRecord(
                window_index=idx,
                carried=tuple(p.doc_id for p in window[fresh_end - start :]),
                fresh=tuple(p.doc_id for p in window[: fresh_end - start]),
                verdict=verdict,
                window_after=tuple(p.doc_id for p in permuted),
            ),
            prompt,
        )
        prev_start = start

    return RerankResult(ranked_ids=[p.doc_id for p in order], trace=trace)


def select(
    query: Query,
    candidates: Sequence[Passage],
    judge: Judge,
    cfg: WindowConfig,
    templates: tuple[PromptTemplate, PromptTemplate] | None = None,
    budget: PromptBudget | None = None,
) -> SelectionResult:
    """Select useful candidates with the forward-propagating sliding window.

    Window 1 holds the top-ranked candidates. After each verdict, the
    selected documents are prepended as a block (in the judge's emission
    order) to the queue, deduplicated keeping the first occurrence; queue
    membership is monotone, so a passage once selected is never dropped.
    Each later window carries the first ``min(stride, len(queue))`` queue
    members and fills up with the next unprocessed candidates, in their
    original order, until all candidates have been processed.
    """
    if not candidates:
        raise ValueError("select needs at least one candidate")
    selection_template = (templates or default_templates())[1]
    cfg = _per_query_cfg(cfg, len(candidates))
    by_id = {p.doc_id: p for p in candidates}

    queue = PreselectedQueue()
    pseudo_answers: list[str | None] = []
    trace = WindowTrace(query_id=query.query_id, windows=[])

    pos = 0
    idx = 0
    while pos < len(candidates):
        carried_ids = queue.head(min(cfg.stride, len(queue)))
        fresh = list(candidates[pos : pos + cfg.window_size - len(carried_ids)])
        window = [by_id[d] for d in carried_ids] + fresh
        n = len(window)

        prompt = render(selection_template, query, window, budget)
        try:
            verdict = judge_window(judge, prompt, SELECTION, n)
        except JudgeTransportError as exc:
            raise EngineAbort(query.query_id, trace, exc) from exc

        queue.prepend([window[i - 1].doc_id for i in verdict.selected or ()])
        pseudo_answers.append(verdict.pseudo_answer)

        trace.record(
            WindowRecord(
                window_index=idx,
                carried=tuple(carried_ids),
                fresh=tuple(p.doc_id for p in fresh),
                verdict=verdict,
                queue_after=tuple(queue),
            ),
            prompt,
        )
        pos += len(fresh)
        idx += 1

    return SelectionResult(
        selected_ids=queue.to_list(), pseudo_answers=pseudo_answers, trace=trace
    )


def cut(ranked_ids: Sequence[str], k: int) -> list[str]:
    """First k ids of a ranking, order preserved."""
    if not 1 <= k <= len(ranked_ids):
        raise ValueError(f"k must be in 1..{len(ranked_ids)}, got {k}")
    return list(ranked_ids[:k])


def trace_lines(trace: WindowTrace) -> str:
    """One query's audit trail: one JSONL window record per line."""
    return "".join(
        json.dumps(rec, ensure_ascii=False) + "\n" for rec in trace.to_jsonl_records()
    )


def selection_line(query_id: str, result: SelectionResult) -> str:
    """One query's selection JSONL line: the final queue and per-window pseudo answers."""
    return (
        json.dumps(
            {
                "query_id": query_id,
                "selected": result.selected_ids,
                "pseudo_answers": result.pseudo_answers,
                "windows": result.trace.window_count,
            },
            ensure_ascii=False,
        )
        + "\n"
    )


def read_selection_file(path: str | Path) -> dict[str, list[str]]:
    """Read a selection JSONL back into query_id -> selected doc ids."""
    return load_query_field(path, "selected", _doc_id_list)


def _doc_id_list(value: object) -> list[str]:
    if not isinstance(value, list):
        raise ValueError("must be a list")
    return [str(d) for d in value]
