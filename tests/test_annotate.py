from __future__ import annotations

import json
from functools import partial

import pytest

from ragsift.annotate import (
    IMPROPER_FORMAT,
    MISSING_IDENTIFIERS,
    REPETITIVE,
    TRAINING_FILES,
    TRANSPORT,
    annotate_query,
    training_line,
    validate_generation,
)
from ragsift.cli import main
from ragsift.corpus import Corpus, Passage, Query
from ragsift.judge import (
    RANKING,
    SELECTION,
    Judge,
    JudgeTransportError,
    JudgeVerdict,
    verdict_from_text,
)
from ragsift.pipeline import run_batch
from ragsift.windowing import WindowConfig
from tests.conftest import RawTextJudge, make_candidates
from tests.test_cli import _mini_flags

# a leaked file handle fails the test
pytestmark = pytest.mark.filterwarnings("error")


class TestValidateGeneration:
    def test_complete_permutation_passes(self):
        assert validate_generation("[2] > [1]", RANKING, 2) == (True, [])

    def test_missing_identifier_fails(self):
        passed, defects = validate_generation("[2] > [1]", RANKING, 3)
        assert not passed and defects == [MISSING_IDENTIFIERS]

    def test_repetitive_ranking_fails(self):
        passed, defects = validate_generation("[1] > [1] > [1]", RANKING, 3)
        assert not passed
        assert REPETITIVE in defects
        assert MISSING_IDENTIFIERS in defects

    def test_free_text_ranking_is_improper_format(self):
        passed, defects = validate_generation("order: 2, 1", RANKING, 2)
        assert not passed and IMPROPER_FORMAT in defects

    def test_out_of_range_ranking_flags_missing_identifiers(self):
        passed, defects = validate_generation("[1] > [2] > [9]", RANKING, 3)
        assert not passed and MISSING_IDENTIFIERS in defects

    def test_selection_with_answer_passes(self):
        assert validate_generation("short answer\nSelected: [1], [2]", SELECTION, 3) == (True, [])

    def test_selection_repetitive_fails(self):
        passed, defects = validate_generation("answer text\nSelected: [1], [1]", SELECTION, 3)
        assert not passed and defects == [REPETITIVE]

    def test_selection_empty_is_legal(self):
        assert validate_generation("nothing helps here\nSelected: none", SELECTION, 3) == (
            True,
            [],
        )

    def test_selection_without_pseudo_answer_fails(self):
        passed, defects = validate_generation("Selected: [1]", SELECTION, 3)
        assert not passed and defects == [IMPROPER_FORMAT]

    def test_selection_out_of_range_is_improper(self):
        passed, defects = validate_generation("answer\nSelected: [7]", SELECTION, 3)
        assert not passed and defects == [IMPROPER_FORMAT]

    def test_unparseable_is_improper(self):
        passed, defects = validate_generation("no ids anywhere", RANKING, 2)
        assert not passed and defects == [IMPROPER_FORMAT]


def _mini_inputs(n_queries=3, depth=4):
    corpus = Corpus(
        Passage(f"p{q}_{i}", f"text {q} {i}") for q in range(n_queries) for i in range(depth)
    )
    queries = [Query(f"q{q}", f"question {q}") for q in range(n_queries)]
    run = {
        f"q{q}": make_candidates(f"q{q}", [f"p{q}_{i}" for i in range(depth)])
        for q in range(n_queries)
    }
    return corpus, queries, run


class FailingJudge(Judge):
    def judge(self, prompt):
        raise JudgeTransportError("down")


def annotate(queries, run, corpus, judge, kind, cfg, parallel=1):
    """Every query's training record, in query_id order, from the shared batch runner."""
    engine = partial(annotate_query, kind=kind)
    batch = run_batch(engine, queries, run, corpus, judge, cfg, parallel=parallel)
    return [record for _, record in batch]


class TestAnnotate:
    def test_partition_and_canonical_targets(self):
        corpus, queries, run = _mini_inputs()
        judge = RawTextJudge(
            by_query={
                "q0": "sure thing: [2] > [1] > [4] > [3]",
                "q1": "[1] > [1] > [2] > [3]",
                "q2": "I rank them 2 1 4 3",
            }
        )
        records = annotate(queries, run, corpus, judge, RANKING, WindowConfig(4, 4, 2))
        by_id = {r.query_id: r for r in records}
        assert by_id["q0"].passed
        assert by_id["q0"].target_text == "[2] > [1] > [4] > [3]"
        assert not by_id["q1"].passed and REPETITIVE in by_id["q1"].defects
        assert not by_id["q2"].passed and IMPROPER_FORMAT in by_id["q2"].defects

    def test_targets_reparse_with_zero_repairs(self):
        corpus, queries, run = _mini_inputs()
        judge = RawTextJudge(
            by_query={
                "q0": "the answer is alpha\nSelected: [2], [3]",
                "q1": "beta is the answer\nSelected: none",
                "q2": "Selected: [1]",
            }
        )
        records = annotate(queries, run, corpus, judge, SELECTION, WindowConfig(4, 4, 2))
        for rec in records:
            if rec.passed:
                verdict = verdict_from_text(rec.target_text, SELECTION, 4)
                assert verdict.repairs == ()

    def test_records_sorted_by_query_id(self):
        corpus, queries, run = _mini_inputs()
        records = annotate(
            list(reversed(queries)),
            run,
            corpus,
            RawTextJudge(texts=["[1] > [2] > [3] > [4]"]),
            RANKING,
            WindowConfig(4, 4, 2),
        )
        assert [r.query_id for r in records] == ["q0", "q1", "q2"]

    def test_parallel_annotation_matches_serial(self):
        corpus, queries, run = _mini_inputs(n_queries=8)
        by_query = {f"q{q}": f"[{(q % 4) + 1}] > [1] > [2] > [3]" for q in range(8)}
        cfg = WindowConfig(4, 4, 2)
        serial = annotate(queries, run, corpus, RawTextJudge(by_query=by_query), RANKING, cfg)
        threaded = annotate(
            queries, run, corpus, RawTextJudge(by_query=by_query), RANKING, cfg, parallel=4
        )
        assert serial == threaded

    def test_transport_failure_tagged_not_fatal(self):
        corpus, queries, run = _mini_inputs(n_queries=1)
        records = annotate(queries, run, corpus, FailingJudge(), RANKING, WindowConfig(4, 4, 2))
        assert len(records) == 1
        assert not records[0].passed and records[0].defects == [TRANSPORT]

    def test_invalid_verdict_is_rejected_like_the_engines(self):
        class DuplicatingJudge(Judge):
            def judge(self, prompt):
                return JudgeVerdict(kind=RANKING, raw_text="[1] > [2]", permutation=(1, 1))

        corpus, queries, run = _mini_inputs(n_queries=1)
        with pytest.raises(ValueError, match="not a permutation"):
            annotate(queries, run, corpus, DuplicatingJudge(), RANKING, WindowConfig(4, 4, 2))

    def test_depth_must_fit_single_window(self, mini_dir, tmp_path, capsys):
        out = tmp_path / "out"
        flags = ["--kind", "ranking", "--depth", "30", "--w", "20", "--out", str(out)]
        assert main(["annotate", *_mini_flags(mini_dir), *flags]) == 1
        err = capsys.readouterr().err
        assert err == "error: annotation is single-window: depth (30) must be <= window_size (20)\n"
        assert not out.exists()

    def test_writer_splits_streams(self):
        corpus, queries, run = _mini_inputs()
        judge = RawTextJudge(
            by_query={
                "q0": "[1] > [2] > [3] > [4]",
                "q1": "nope",
                "q2": "[4] > [3] > [2] > [1]",
            }
        )
        records = annotate(queries, run, corpus, judge, RANKING, WindowConfig(4, 4, 2))
        lines = [training_line(record) for record in records]
        assert [TRAINING_FILES[i] for i, _ in lines] == ["train.jsonl", "rejected.jsonl", "train.jsonl"]
        assert all(text.endswith("\n") and text.count("\n") == 1 for _, text in lines)

        train_lines = [json.loads(text) for i, text in lines if i == 0]
        assert all(
            [m["role"] for m in rec["messages"]] == ["system", "user", "assistant"]
            for rec in train_lines
        )
        rejected_lines = [json.loads(text) for i, text in lines if i == 1]
        assert rejected_lines[0]["query_id"] == "q1"
        assert rejected_lines[0]["defects"] == [IMPROPER_FORMAT]
