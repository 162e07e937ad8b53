"""Batch orchestration: run an engine over many queries with bounded parallelism.

One runner serves every per-query engine: ``run_batch(rerank, ...)``,
``run_batch(select, ...)``, and annotation's single-window
``annotate_query``. It owns the policy they share: queries in query_id
order, queries without candidates skipped and summarised in one warning.
Per-query work stays sequential (each window depends on the previous state);
queries run concurrently on a thread pool. Failures follow a skip-and-record
policy: a query whose judge transport dies is recorded with its partial
trace and the batch keeps going, since long judged runs must survive
transient endpoint faults.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Generic, Mapping, Sequence, TypeVar

from .corpus import CandidateList, Corpus, Query, check_run_resolves, resolve_candidates
from .judge import Judge
from .prompting import PromptBudget, PromptTemplate
from .windowing import EngineAbort, WindowConfig, WindowTrace

logger = logging.getLogger(__name__)

T = TypeVar("T")

# skipped query ids named in the summary warning; the full list is in BatchResult
_LOGGED_IDS = 5


@dataclass
class QueryFailure:
    query_id: str
    error: str
    partial_trace: WindowTrace | None = None


@dataclass
class BatchResult(Generic[T]):
    """Per-query outcomes keyed by query_id, plus recorded failures."""

    results: dict[str, T] = field(default_factory=dict)
    failures: list[QueryFailure] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def traces(self) -> list[WindowTrace]:
        ordered = [self.results[qid].trace for qid in sorted(self.results)]
        ordered.extend(
            f.partial_trace
            for f in sorted(self.failures, key=lambda f: f.query_id)
            if f.partial_trace is not None
        )
        return ordered


def run_batch(
    engine: Callable[..., T],
    queries: Sequence[Query],
    run: Mapping[str, CandidateList],
    corpus: Corpus,
    judge: Judge,
    cfg: WindowConfig,
    templates: tuple[PromptTemplate, PromptTemplate] | None = None,
    budget: PromptBudget | None = None,
    parallel: int = 1,
) -> BatchResult[T]:
    """Run ``engine`` over every query that has candidates, ``parallel`` at a time.

    ``engine`` is called as ``engine(query, passages, judge, cfg, templates,
    budget)``: ``rerank``, ``select``, or a single-window engine such as
    ``annotate_query``. Results come back keyed and ordered by query_id
    whatever ``parallel`` is; queries without candidates are skipped and
    listed in ``skipped``.
    """
    check_run_resolves(corpus, run)
    batch: BatchResult[T] = BatchResult()
    jobs: list[tuple[Query, list]] = []
    for query in sorted(queries, key=lambda q: q.query_id):
        candidates = run.get(query.query_id)
        if candidates is None or not candidates.entries:
            batch.skipped.append(query.query_id)
            continue
        jobs.append((query, resolve_candidates(corpus, candidates)))
    if batch.skipped:
        more = ", ..." if len(batch.skipped) > _LOGGED_IDS else ""
        logger.warning(
            "skipped %d queries with no candidates: %s%s",
            len(batch.skipped),
            ", ".join(batch.skipped[:_LOGGED_IDS]),
            more,
        )

    def _one(job: tuple[Query, list]) -> tuple[str, T | None, QueryFailure | None]:
        query, passages = job
        try:
            return query.query_id, engine(query, passages, judge, cfg, templates, budget), None
        except EngineAbort as exc:
            return query.query_id, None, QueryFailure(
                query_id=query.query_id, error=str(exc.cause), partial_trace=exc.trace
            )

    if parallel <= 1:
        outcomes = [_one(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            outcomes = list(pool.map(_one, jobs))

    for qid, result, failure in outcomes:
        if failure is not None:
            logger.warning("query %s aborted: %s", qid, failure.error)
            batch.failures.append(failure)
        elif result is not None:
            batch.results[qid] = result
    return batch
