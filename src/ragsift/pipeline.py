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

Outcomes stream: each query's outcome is handed back, in query_id order, as
soon as it and every query before it are done, so a caller that writes and
drops each one holds only the queries in flight.
"""

from __future__ import annotations

import logging
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Generator, Mapping, Sequence, TypeVar

from .corpus import (
    CandidateList,
    Corpus,
    Passage,
    Query,
    check_run_resolves,
    resolve_candidates,
)
from .judge import Judge
from .prompting import PromptBudget, PromptTemplate
from .windowing import EngineAbort, WindowConfig, WindowTrace

logger = logging.getLogger(__name__)

T = TypeVar("T")

# skipped query ids named in the summary warning
_LOGGED_IDS = 5

# queries submitted per worker ahead of the oldest unfinished one; bounds
# the finished outcomes that wait for a slow query before them
_AHEAD_PER_WORKER = 32


@dataclass
class QueryFailure:
    query_id: str
    error: str
    partial_trace: WindowTrace | None = None


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
) -> Generator[tuple[str, T | QueryFailure], None, None]:
    """Run ``engine`` over every query that has candidates, ``parallel`` at a time.

    ``engine`` is called as ``engine(query, passages, judge, cfg, templates,
    budget)``: ``rerank``, ``select``, or a single-window engine such as
    ``annotate_query``. Returns a generator of ``(query_id, outcome)`` in
    query_id order whatever ``parallel`` is; the outcome is the engine's
    result, or a ``QueryFailure`` for a query the judge transport aborted.
    The run is checked against the corpus, and queries without candidates
    are skipped with one warning, before this returns; judging starts on the
    first ``next()``. Close the generator before closing the judge, so that
    no worker is still judging.
    """
    check_run_resolves(corpus, run)
    jobs: list[tuple[Query, list[Passage]]] = []
    skipped: list[str] = []
    for query in sorted(queries, key=lambda q: q.query_id):
        candidates = run.get(query.query_id)
        if candidates is None or not candidates.entries:
            skipped.append(query.query_id)
        else:
            jobs.append((query, resolve_candidates(corpus, candidates)))
    if skipped:
        more = ", ..." if len(skipped) > _LOGGED_IDS else ""
        logger.warning(
            "skipped %d queries with no candidates: %s%s",
            len(skipped),
            ", ".join(skipped[:_LOGGED_IDS]),
            more,
        )

    def one(job: tuple[Query, list[Passage]]) -> tuple[str, T | QueryFailure]:
        query, passages = job
        try:
            return query.query_id, engine(query, passages, judge, cfg, templates, budget)
        except EngineAbort as exc:
            logger.warning("query %s aborted: %s", query.query_id, exc.cause)
            return query.query_id, QueryFailure(query.query_id, str(exc.cause), exc.trace)

    if parallel <= 1:
        return (one(job) for job in jobs)
    return _in_order(one, jobs, parallel)


def _in_order(
    fn: Callable[[tuple[Query, list[Passage]]], T],
    jobs: list[tuple[Query, list[Passage]]],
    parallel: int,
) -> Generator[T, None, None]:
    """``fn`` over ``jobs`` on ``parallel`` threads, yielded in job order.

    When the consumer stops early or a job raises, queued jobs are cancelled
    and the running ones finish before the exception propagates.
    """
    pool = ThreadPoolExecutor(max_workers=parallel)
    pending: deque[Future[T]] = deque()
    try:
        for job in jobs:
            pending.append(pool.submit(fn, job))
            if len(pending) > parallel * _AHEAD_PER_WORKER:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
