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

import math
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Sequence

from .corpus import Passage, Query, id_list, jsonl_line, load_query_field
from .judge import Judge, JudgeTransportError, JudgeVerdict, judge_window
from .prompting import PromptTemplate, default_templates, render


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

    A record's window index is its position in ``WindowTrace.windows``.
    ``queue_after`` is the selection queue after the window (selection
    engine); ``window_after`` is the permuted window slice (ranking engine).
    """

    carried: tuple[str, ...]
    fresh: tuple[str, ...]
    verdict: JudgeVerdict
    queue_after: tuple[str, ...] | None = None
    window_after: tuple[str, ...] | None = None


@dataclass
class WindowTrace:
    """Per-query audit trail: the judged windows, in order."""

    query_id: str
    windows: list[WindowRecord]


class QueryFailure(RuntimeError):
    """A query the judge transport aborted; carries the trace of the windows judged before."""

    def __init__(self, error: str, partial_trace: WindowTrace):
        super().__init__(
            f"query {partial_trace.query_id} aborted at window "
            f"{len(partial_trace.windows)}: {error}"
        )
        self.error = error
        self.partial_trace = partial_trace

    @property
    def query_id(self) -> str:
        return self.partial_trace.query_id


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
    for start, end in plan_ranking_windows(cfg):
        window = order[start:end]
        prompt = render(ranking_template, query, window)
        try:
            verdict = judge_window(judge, prompt)
        except JudgeTransportError as exc:
            raise QueryFailure(str(exc), trace) from exc
        permutation = verdict.permutation or ()
        order[start:end] = [window[i - 1] for i in permutation]

        ids = prompt.doc_ids
        fresh_count = (end if prev_start is None else prev_start) - start
        trace.windows.append(
            WindowRecord(
                carried=ids[fresh_count:],
                fresh=ids[:fresh_count],
                verdict=verdict,
                window_after=tuple([ids[i - 1] for i in permutation]),
            )
        )
        prev_start = start

    return RerankResult(ranked_ids=[p.doc_id for p in order], trace=trace)


def select(
    query: Query,
    candidates: Sequence[Passage],
    judge: Judge,
    cfg: WindowConfig,
    templates: tuple[PromptTemplate, PromptTemplate] | None = None,
) -> SelectionResult:
    """Select useful candidates with the forward-propagating sliding window.

    Window 1 holds the top-ranked candidates. After each verdict, the
    selected documents are prepended as a block (in the judge's emission
    order) to the queue, deduplicated keeping the first occurrence; queue
    membership is monotone, so a passage once selected is never dropped.
    Each later window carries the first ``min(stride, len(queue))`` queue
    members and fills up with the next unprocessed candidates, in their
    original order, until all candidates have been processed. The final
    queue is ``selected_ids``; each window's pseudo answer is on its verdict.
    """
    if not candidates:
        raise ValueError("select needs at least one candidate")
    selection_template = (templates or default_templates())[1]
    # re-checks stride < window_size for the actual candidate count
    cfg = _per_query_cfg(cfg, len(candidates))
    queue: dict[str, Passage] = {}  # doc id -> passage selected so far, newest block first
    trace = WindowTrace(query_id=query.query_id, windows=[])

    pos = 0
    while pos < len(candidates):
        carried = list(islice(queue.values(), cfg.stride))
        fresh = candidates[pos : pos + cfg.window_size - len(carried)]
        window = [*carried, *fresh]

        prompt = render(selection_template, query, window)
        try:
            verdict = judge_window(judge, prompt)
        except JudgeTransportError as exc:
            raise QueryFailure(str(exc), trace) from exc

        picked = {window[i - 1].doc_id: window[i - 1] for i in verdict.selected or ()}
        picked.update(queue)
        queue = picked

        ids = prompt.doc_ids
        trace.windows.append(
            WindowRecord(
                carried=ids[: len(carried)],
                fresh=ids[len(carried) :],
                verdict=verdict,
                queue_after=tuple(queue),
            )
        )
        pos += len(fresh)

    return SelectionResult(selected_ids=list(queue), trace=trace)


def trace_lines(trace: WindowTrace) -> str:
    """One query's audit trail: one JSONL window record per line."""
    lines = []
    for index, rec in enumerate(trace.windows):
        v = rec.verdict
        record = {
            "query_id": trace.query_id,
            "window_index": index,
            "carried": rec.carried,
            "fresh": rec.fresh,
            "verdict": {
                "kind": v.kind,
                "permutation": v.permutation or None,
                "selected": v.selected,
                "pseudo_answer": v.pseudo_answer,
                "repairs": v.repairs,
                "raw_text": v.raw_text,
            },
            "queue_after": rec.queue_after,
            "window_after": rec.window_after,
        }
        lines.append(jsonl_line(record))
    return "".join(lines)


def selection_line(query_id: str, result: SelectionResult) -> str:
    """One query's selection JSONL line: the final queue and per-window pseudo answers."""
    return jsonl_line(
        {
            "query_id": query_id,
            "selected": result.selected_ids,
            "pseudo_answers": [rec.verdict.pseudo_answer for rec in result.trace.windows],
            "windows": len(result.trace.windows),
        }
    )


def read_selection_file(path: str | Path) -> dict[str, list[str]]:
    """Read a selection JSONL back into query_id -> selected doc ids."""
    return load_query_field(path, "selected", id_list)
