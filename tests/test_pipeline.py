from __future__ import annotations

import logging

import pytest

from ragsift.corpus import Corpus, LoadError, Passage, Qrels, Query, ranking_to_candidates
from ragsift.judge import Judge, JudgeTransportError, OracleJudge, verdict_from_text
from ragsift.pipeline import run_batch
from ragsift.windowing import WindowConfig, rerank, select


def _inputs(n_queries=4, depth=6):
    corpus = Corpus(
        Passage(f"p{q}_{i}", f"body {q} {i}") for q in range(n_queries) for i in range(depth)
    )
    queries = [Query(f"q{q}", f"question {q}") for q in range(n_queries)]
    run = {
        f"q{q}": ranking_to_candidates(f"q{q}", [f"p{q}_{i}" for i in range(depth)])
        for q in range(n_queries)
    }
    qrels = Qrels(
        {f"q{q}": {f"p{q}_{i}": (i + q) % 3 for i in range(depth)} for q in range(n_queries)}
    )
    return corpus, queries, run, qrels


CFG = WindowConfig(depth=6, window_size=3, stride=1)


class FlakyJudge(Judge):
    """Dies on one query, answers identity rankings elsewhere."""

    def __init__(self, bad_query_id: str):
        self.bad_query_id = bad_query_id

    def judge(self, prompt, kind, n):
        if prompt.query_id == self.bad_query_id:
            raise JudgeTransportError("endpoint melted", query_id=prompt.query_id)
        ids = " > ".join(f"[{i}]" for i in range(1, n + 1))
        return verdict_from_text(ids, kind, n)


class TestBatches:
    def test_skips_queries_without_candidates(self):
        corpus, queries, run, qrels = _inputs()
        del run["q2"]
        batch = run_batch(rerank, queries, run, corpus, OracleJudge(qrels), CFG)
        assert batch.skipped == ["q2"]
        assert sorted(batch.results) == ["q0", "q1", "q3"]
        assert batch.ok

    def test_transport_failure_recorded_not_fatal(self):
        corpus, queries, run, qrels = _inputs()
        batch = run_batch(rerank, queries, run, corpus, FlakyJudge("q1"), CFG)
        assert not batch.ok
        assert [f.query_id for f in batch.failures] == ["q1"]
        assert batch.failures[0].partial_trace is not None
        assert sorted(batch.results) == ["q0", "q2", "q3"]

    def test_parallelism_does_not_change_results(self):
        corpus, queries, run, qrels = _inputs(n_queries=8)
        judge = OracleJudge(qrels)
        serial = run_batch(select, queries, run, corpus, judge, CFG, parallel=1)
        threaded = run_batch(select, queries, run, corpus, judge, CFG, parallel=4)
        assert serial.results.keys() == threaded.results.keys()
        for qid in serial.results:
            assert serial.results[qid].selected_ids == threaded.results[qid].selected_ids

    def test_unresolvable_candidates_fail_fast(self):
        corpus, queries, run, qrels = _inputs()
        run["q0"] = ranking_to_candidates("q0", ["ghost_doc"])
        with pytest.raises(LoadError, match="ghost_doc"):
            run_batch(rerank, queries, run, corpus, OracleJudge(qrels), CFG)

    def test_traces_ordered_by_query_id(self):
        corpus, queries, run, qrels = _inputs()
        batch = run_batch(select, list(reversed(queries)), run, corpus, OracleJudge(qrels), CFG)
        trace_ids = [t.query_id for t in batch.traces()]
        assert trace_ids == sorted(trace_ids)

    def test_skipped_queries_summarised_in_one_warning(self, caplog):
        corpus, queries, run, qrels = _inputs(n_queries=5)
        for qid in ("q1", "q2", "q4"):
            del run[qid]
        with caplog.at_level(logging.WARNING):
            batch = run_batch(rerank, queries, run, corpus, OracleJudge(qrels), CFG)
        assert batch.skipped == ["q1", "q2", "q4"]
        skips = [r.getMessage() for r in caplog.records if "no candidates" in r.getMessage()]
        assert skips == ["skipped 3 queries with no candidates: q1, q2, q4"]
