from __future__ import annotations

import logging
import threading
import time

import pytest

from ragsift import pipeline
from ragsift.corpus import LoadError, Passage, Query
from ragsift.judge import Judge, JudgeTransportError, OracleJudge, verdict_from_text
from ragsift.pipeline import QueryFailure, run_batch
from ragsift.windowing import WindowConfig, rerank, select
from tests.conftest import make_candidates


def _inputs(n_queries=4, depth=6):
    corpus = {
        f"p{q}_{i}": Passage(f"p{q}_{i}", f"body {q} {i}")
        for q in range(n_queries)
        for i in range(depth)
    }
    queries = [Query(f"q{q}", f"question {q}") for q in range(n_queries)]
    run = {
        f"q{q}": make_candidates(f"q{q}", [f"p{q}_{i}" for i in range(depth)])
        for q in range(n_queries)
    }
    qrels = {f"q{q}": {f"p{q}_{i}": (i + q) % 3 for i in range(depth)} for q in range(n_queries)}
    return corpus, queries, run, qrels


CFG = WindowConfig(depth=6, window_size=3, stride=1)


class FlakyJudge(Judge):
    """Dies on one query, answers identity rankings elsewhere."""

    def __init__(self, bad_query_id: str):
        self.bad_query_id = bad_query_id

    def judge(self, prompt):
        if prompt.query_id == self.bad_query_id:
            raise JudgeTransportError("endpoint melted")
        ids = " > ".join(f"[{i}]" for i in range(1, prompt.n + 1))
        return verdict_from_text(ids, prompt.kind, prompt.n)


def _split(outcomes):
    """(results by query_id, failures) of a streamed batch, checking the order."""
    outcomes = list(outcomes)
    qids = [qid for qid, _ in outcomes]
    assert qids == sorted(qids)
    results = {qid: o for qid, o in outcomes if not isinstance(o, QueryFailure)}
    failures = [o for _, o in outcomes if isinstance(o, QueryFailure)]
    return results, failures


class TestBatches:
    def test_skips_queries_without_candidates(self):
        corpus, queries, run, qrels = _inputs()
        del run["q2"]
        results, failures = _split(run_batch(rerank, queries, run, corpus, OracleJudge(qrels), CFG))
        assert sorted(results) == ["q0", "q1", "q3"]
        assert not failures

    def test_transport_failure_recorded_not_fatal(self):
        corpus, queries, run, qrels = _inputs()
        results, failures = _split(run_batch(rerank, queries, run, corpus, FlakyJudge("q1"), CFG))
        assert [f.query_id for f in failures] == ["q1"]
        assert failures[0].partial_trace is not None
        assert sorted(results) == ["q0", "q2", "q3"]

    def test_parallelism_does_not_change_results(self):
        corpus, queries, run, qrels = _inputs(n_queries=8)
        judge = OracleJudge(qrels)
        serial, _ = _split(run_batch(select, queries, run, corpus, judge, CFG, parallel=1))
        threaded, _ = _split(run_batch(select, queries, run, corpus, judge, CFG, parallel=4))
        assert serial.keys() == threaded.keys()
        for qid in serial:
            assert serial[qid].selected_ids == threaded[qid].selected_ids

    def test_unresolvable_candidates_fail_fast(self):
        corpus, queries, run, qrels = _inputs()
        run["q0"] = make_candidates("q0", ["ghost_doc"])
        # raised by the call itself, before any outcome is asked for
        with pytest.raises(LoadError, match="ghost_doc"):
            run_batch(rerank, queries, run, corpus, OracleJudge(qrels), CFG)

    def test_traces_ordered_by_query_id(self):
        corpus, queries, run, qrels = _inputs()
        outcomes = run_batch(select, list(reversed(queries)), run, corpus, OracleJudge(qrels), CFG)
        trace_ids = [res.trace.query_id for _, res in outcomes]
        assert trace_ids == sorted(trace_ids)

    def test_skipped_queries_summarised_in_one_warning(self, caplog):
        corpus, queries, run, qrels = _inputs(n_queries=5)
        for qid in ("q1", "q2", "q4"):
            del run[qid]
        with caplog.at_level(logging.WARNING):
            outcomes = run_batch(rerank, queries, run, corpus, OracleJudge(qrels), CFG)
            skips = [r.getMessage() for r in caplog.records if "no candidates" in r.getMessage()]
            # the warning is logged before any query is judged
            assert skips == ["skipped 3 queries with no candidates: q1, q2, q4"]
        assert [qid for qid, _ in outcomes] == ["q0", "q3"]

    def test_run_queries_without_query_text_summarised_in_one_warning(self, caplog):
        corpus, queries, run, qrels = _inputs(n_queries=8)
        with caplog.at_level(logging.WARNING):
            outcomes = run_batch(rerank, queries[:1], run, corpus, OracleJudge(qrels), CFG)
            skips = [r.getMessage() for r in caplog.records if "no query text" in r.getMessage()]
            assert skips == ["skipped 7 run queries with no query text: q1, q2, q3, q4, q5, ..."]
        assert [qid for qid, _ in outcomes] == ["q0"]


class TestStreaming:
    def test_serial_outcome_arrives_before_next_query_runs(self):
        corpus, queries, run, qrels = _inputs(n_queries=3)
        calls = []

        def engine(query, *args):
            calls.append(query.query_id)
            return rerank(query, *args)

        outcomes = run_batch(engine, queries, run, corpus, OracleJudge(qrels), CFG)
        assert calls == []
        assert next(outcomes)[0] == "q0"
        assert calls == ["q0"]
        assert next(outcomes)[0] == "q1"
        assert calls == ["q0", "q1"]

    def test_parallel_runs_a_bounded_distance_ahead_of_a_slow_query(self):
        n_queries = 200
        corpus, queries, run, qrels = _inputs(n_queries=n_queries, depth=3)
        first = min(q.query_id for q in queries)
        release = threading.Event()
        calls = []

        def engine(query, *args):
            calls.append(query.query_id)
            if query.query_id == first:
                release.wait(10)
            return rerank(query, *args)

        parallel = 2
        bound = parallel * pipeline._AHEAD_PER_WORKER + 1
        outcomes = run_batch(engine, queries, run, corpus, OracleJudge(qrels), CFG, parallel=parallel)
        consumer = threading.Thread(target=lambda: next(outcomes))
        consumer.start()
        deadline = time.monotonic() + 10
        while len(calls) < bound and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)
        try:
            assert len(calls) == bound < n_queries
        finally:
            release.set()
            consumer.join()
        assert len(list(outcomes)) == n_queries - 1

    def test_closing_early_cancels_queued_queries(self):
        corpus, queries, run, qrels = _inputs(n_queries=100, depth=3)
        release = threading.Event()
        calls = []

        def engine(query, *args):
            calls.append(query.query_id)
            if query.query_id != "q0":
                release.wait(10)
            return rerank(query, *args)

        outcomes = run_batch(engine, queries, run, corpus, OracleJudge(qrels), CFG, parallel=2)
        assert next(outcomes)[0] == "q0"
        releaser = threading.Timer(0.1, release.set)
        releaser.start()
        outcomes.close()
        releaser.join()
        # only the queries already running (at most one per worker) finish
        settled = len(calls)
        assert settled <= 3
        time.sleep(0.05)
        assert len(calls) == settled

    def test_engine_error_propagates_in_order(self):
        corpus, queries, run, qrels = _inputs(n_queries=6)

        def engine(query, *args):
            if query.query_id == "q2":
                raise ValueError("judge broke")
            return rerank(query, *args)

        for parallel in (1, 3):
            outcomes = run_batch(engine, queries, run, corpus, OracleJudge(qrels), CFG, parallel=parallel)
            assert [next(outcomes)[0], next(outcomes)[0]] == ["q0", "q1"]
            with pytest.raises(ValueError, match="judge broke"):
                next(outcomes)
