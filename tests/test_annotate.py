from __future__ import annotations

import json
import random
import re
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
from ragsift.corpus import Passage, Query
from ragsift.judge import (
    RANKING,
    SELECTION,
    Judge,
    JudgeTransportError,
    JudgeVerdict,
    canonical_ranking_text,
    verdict_from_text,
)
from ragsift.pipeline import run_batch
from ragsift.windowing import WindowConfig
from tests.conftest import RawTextJudge, make_candidates
from tests.test_cli import _mini_flags


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
    corpus = {
        f"p{q}_{i}": Passage(f"p{q}_{i}", f"text {q} {i}")
        for q in range(n_queries)
        for i in range(depth)
    }
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
    """Every judged window, in query_id and window order, from the shared batch runner."""
    engine = partial(annotate_query, kind=kind)
    batch = run_batch(engine, queries, run, corpus, judge, cfg, parallel=parallel)
    return [window for _, windows in batch for window in windows]


def decoded(window):
    """The name of the file ``window``'s training line goes to, and the line's JSON."""
    i, text = training_line(window)
    return TRAINING_FILES[i], json.loads(text)


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
        windows = annotate(queries, run, corpus, judge, RANKING, WindowConfig(4, 4, 2))
        by_id = {window[0].query_id: decoded(window) for window in windows}
        assert by_id["q0"][0] == "train.jsonl"
        assert by_id["q0"][1]["messages"][2]["content"] == "[2] > [1] > [4] > [3]"
        assert by_id["q1"][0] == "rejected.jsonl" and REPETITIVE in by_id["q1"][1]["defects"]
        assert by_id["q2"][0] == "rejected.jsonl" and IMPROPER_FORMAT in by_id["q2"][1]["defects"]

    def test_targets_reparse_with_zero_repairs(self):
        corpus, queries, run = _mini_inputs()
        judge = RawTextJudge(
            by_query={
                "q0": "the answer is alpha\nSelected: [2], [3]",
                "q1": "beta is the answer\nSelected: none",
                "q2": "Selected: [1]",
            }
        )
        windows = annotate(queries, run, corpus, judge, SELECTION, WindowConfig(4, 4, 2))
        for name, line in map(decoded, windows):
            if name == "train.jsonl":
                verdict = verdict_from_text(line["messages"][2]["content"], SELECTION, 4)
                assert verdict.repairs == ()

    def test_records_sorted_by_query_id(self):
        corpus, queries, run = _mini_inputs()
        windows = annotate(
            list(reversed(queries)),
            run,
            corpus,
            RawTextJudge(texts=["[1] > [2] > [3] > [4]"]),
            RANKING,
            WindowConfig(4, 4, 2),
        )
        assert [prompt.query_id for prompt, _ in windows] == ["q0", "q1", "q2"]

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
        windows = annotate(queries, run, corpus, FailingJudge(), RANKING, WindowConfig(4, 4, 2))
        assert len(windows) == 1 and windows[0][1] is None
        assert decoded(windows[0]) == (
            "rejected.jsonl",
            {"query_id": "q0", "kind": RANKING, "defects": [TRANSPORT], "raw_text": ""},
        )

    def test_invalid_verdict_is_rejected_like_the_engines(self):
        class DuplicatingJudge(Judge):
            def judge(self, prompt):
                return JudgeVerdict(kind=RANKING, raw_text="[1] > [2]", permutation=(1, 1))

        corpus, queries, run = _mini_inputs(n_queries=1)
        with pytest.raises(ValueError, match="not a permutation"):
            annotate(queries, run, corpus, DuplicatingJudge(), RANKING, WindowConfig(4, 4, 2))

    def test_deep_annotate_needs_w_above_the_stride(self, mini_dir, tmp_path, capsys):
        # deeper than --w, annotate sweeps at the engines' stride of 10
        flags = ["--kind", "ranking", "--depth", "30", "--w", "20", "--out", str(tmp_path / "a")]
        assert main(["annotate", *_mini_flags(mini_dir), *flags]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        flags = ["--kind", "ranking", "--depth", "30", "--w", "8", "--out", str(out)]
        assert main(["annotate", *_mini_flags(mini_dir), *flags]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: stride (10) must be smaller than window_size (8) when depth exceeds the window\n"
        )
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
        windows = annotate(queries, run, corpus, judge, RANKING, WindowConfig(4, 4, 2))
        lines = [training_line(window) for window in windows]
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


class CleanTeacherFailingAt(Judge):
    """A teacher whose answers need no repair, until its transport fails at window ``fail_at``."""

    def __init__(self, fail_at: int):
        self.fail_at = fail_at
        self.calls = 0

    def judge(self, prompt):
        self.calls += 1
        if self.calls >= self.fail_at:
            raise JudgeTransportError("down")
        if prompt.kind == RANKING:
            text = canonical_ranking_text(range(prompt.n, 0, -1))
        else:
            text = "alpha\nSelected: [1]"
        return verdict_from_text(text, prompt.kind, prompt.n)


def _deep_dataset(root, n_queries=4, depth=120):
    """Input flags for ``n_queries`` queries of ``depth`` candidates, about one in eight relevant."""
    rng = random.Random(7)
    files = {"corpus.jsonl": [], "queries.jsonl": [], "run.trec": [], "qrels.txt": []}
    for q in range(n_queries):
        qid = f"q{q}"
        files["queries.jsonl"].append(json.dumps({"query_id": qid, "text": f"question {q}"}))
        for i in range(depth):
            doc_id = f"{qid}d{i}"
            files["corpus.jsonl"].append(json.dumps({"doc_id": doc_id, "text": f"passage {doc_id}"}))
            files["run.trec"].append(f"{qid} Q0 {doc_id} {i + 1} {depth - i} bm25")
            if rng.random() < 0.125:
                files["qrels.txt"].append(f"{qid} 0 {doc_id} {rng.randint(1, 2)}")
    for name, lines in files.items():
        (root / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    flags = zip(["--corpus", "--queries", "--run", "--qrels"], files)
    return [part for flag, name in flags for part in (flag, str(root / name))]


def _jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class TestDeepSweep:
    @pytest.mark.parametrize("kind", [RANKING, SELECTION])
    def test_mid_sweep_failure_keeps_earlier_windows(self, kind, caplog):
        corpus, queries, run = _mini_inputs(n_queries=1, depth=40)
        judge = CleanTeacherFailingAt(3)
        windows = annotate(queries, run, corpus, judge, kind, WindowConfig(40, 20, 10))
        lines = [decoded(window) for window in windows]
        assert [name for name, _ in lines] == ["train.jsonl", "train.jsonl", "rejected.jsonl"]
        assert lines[-1][1]["defects"] == [TRANSPORT] and lines[-1][1]["raw_text"] == ""
        assert "teacher unreachable for query q0" in caplog.text
        if kind == SELECTION:
            # window 2 carries the passage window 1 selected ahead of its fresh ones
            prompt = windows[1][0].user
            assert prompt.index("text 0 0\n") < prompt.index("text 0 20\n")

    @pytest.mark.parametrize("command, kind", [("select", SELECTION), ("rerank", RANKING)])
    def test_annotate_replays_the_windows_a_run_judged(self, tmp_path, capsys, command, kind):
        flags = _deep_dataset(tmp_path)
        transcript = str(tmp_path / "t.jsonl")
        geometry = ["--depth", "100", "--w", "20"]
        recorded = [command, *flags, *geometry, "--s", "10", "--trace", "--transcript", transcript]
        assert main([*recorded, "--out", str(tmp_path / "run")]) == 0
        replayed = ["annotate", *flags, *geometry, "--kind", kind, "--judge", "replay"]
        capsys.readouterr()
        assert main([*replayed, "--transcript", transcript, "--out", str(tmp_path / "a")]) == 0

        trace = _jsonl(tmp_path / "run" / "trace.jsonl")
        train, rejected = (_jsonl(tmp_path / "a" / name) for name in TRAINING_FILES)
        assert len(trace) > 4 * 5  # every query sweeps several windows
        assert capsys.readouterr().out.startswith(
            f"annotated 4 queries: {len(train)} records kept, {len(rejected)} rejected"
        )
        if kind == SELECTION:
            # the oracle writes no pseudo answer, so every selection record is rejected
            assert train == []
            assert all(r["defects"] == [IMPROPER_FORMAT] for r in rejected)
            assert [(r["query_id"], r["raw_text"]) for r in rejected] == [
                (t["query_id"], t["verdict"]["raw_text"]) for t in trace
            ]
        else:
            assert rejected == []
            assert [r["messages"][2]["content"] for r in train] == [
                t["verdict"]["raw_text"] for t in trace
            ]
            # a ranking window lists its fresh passages, then those carried up from below
            shown = [re.findall(r"passage (q\d+d\d+)", r["messages"][1]["content"]) for r in train]
            assert shown == [t["fresh"] + t["carried"] for t in trace]

    @pytest.mark.parametrize("kind", [RANKING, SELECTION])
    def test_deep_annotate_is_the_same_at_any_parallelism(self, tmp_path, kind):
        flags = _deep_dataset(tmp_path, n_queries=8)
        outputs = []
        for parallel in ("1", "4"):
            out = tmp_path / f"parallel{parallel}"
            argv = ["annotate", *flags, "--kind", kind, "--depth", "100", "--w", "20"]
            assert main([*argv, "--parallel", parallel, "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in TRAINING_FILES])
        assert outputs[0] == outputs[1]
        assert sum(data.count(b"\n") for data in outputs[0]) > 8 * 5
