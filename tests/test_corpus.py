from __future__ import annotations

import logging

import pytest

from ragsift.corpus import (
    CandidateList,
    Corpus,
    LoadError,
    Passage,
    check_run_resolves,
    evidence_from_qrels,
    load_answers,
    load_corpus,
    load_evidence,
    load_qrels,
    load_queries,
    load_run,
    resolve_candidates,
    trec_lines,
)
from ragsift.judge import TranscriptJudge
from ragsift.metrics import load_predictions
from ragsift.windowing import read_selection_file
from tests.conftest import make_candidates


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCorpus:
    def test_jsonl_three_docs(self, tmp_path):
        path = _write(
            tmp_path,
            "c.jsonl",
            '{"doc_id": "d1", "text": "one"}\n'
            '{"doc_id": "d2", "text": "two", "title": "T"}\n'
            '{"doc_id": "d3", "text": "three"}\n',
        )
        corpus = load_corpus(path)
        assert len(corpus) == 3
        assert corpus["d2"].title == "T"

    def test_duplicate_doc_id_names_line(self, tmp_path):
        path = _write(
            tmp_path,
            "c.jsonl",
            '{"doc_id": "d1", "text": "one"}\n{"doc_id": "d1", "text": "again"}\n',
        )
        with pytest.raises(LoadError, match="duplicate doc_id d1 at line 2"):
            load_corpus(path)

    def test_tsv_row_maps_fields(self, tmp_path):
        path = _write(tmp_path, "c.tsv", "d9\tHello world\n")
        corpus = load_corpus(path)
        assert corpus["d9"] == Passage(doc_id="d9", text="Hello world")

    def test_missing_text_field(self, tmp_path):
        path = _write(tmp_path, "c.jsonl", '{"doc_id": "d1"}\n')
        with pytest.raises(LoadError, match="missing text field at line 1"):
            load_corpus(path)

    def test_underscore_id_accepted(self, tmp_path):
        path = _write(tmp_path, "c.jsonl", '{"_id": "d1", "text": "one"}\n')
        assert "d1" in load_corpus(path)

    def test_empty_text_rejected(self, tmp_path):
        path = _write(tmp_path, "c.jsonl", '{"doc_id": "d1", "text": "   "}\n')
        with pytest.raises(LoadError, match="empty text"):
            load_corpus(path)


# four valid passages d1..d4; a keep set holds d1, d2 and, in the second case, d9
CORPUS_LINES = "".join(f'{{"doc_id": "d{i}", "text": "text {i}"}}\n' for i in range(1, 5))
KEEPS = [{"d1", "d2"}, {"d1", "d2", "d9"}]


class TestLoadCorpusKeep:
    @pytest.mark.parametrize("keep", KEEPS, ids=["d9-dropped", "d9-kept"])
    @pytest.mark.parametrize(
        "line",
        [
            '{"doc_id": "d9",',
            '{"doc_id": "d9"}',
            '{"doc_id": "d9", "text": " "}',
            '{"doc_id": "d3", "text": "again"}',
            '{"doc_id": "d1", "text": "again"}',
        ],
        ids=["bad-json", "missing-text", "empty-text", "duplicate-dropped", "duplicate-kept"],
    )
    def test_same_error_at_same_line_as_full_load(self, tmp_path, keep, line):
        path = _write(tmp_path, "c.jsonl", CORPUS_LINES + line + "\n")
        with pytest.raises(LoadError) as full:
            load_corpus(path)
        with pytest.raises(LoadError) as kept:
            load_corpus(path, keep=keep)
        assert str(kept.value) == str(full.value)
        assert "line 5" in str(kept.value)

    def test_tsv_duplicate_among_dropped(self, tmp_path):
        path = _write(tmp_path, "c.tsv", "d1\tone\nd2\ttwo\nd2\tagain\n")
        with pytest.raises(LoadError, match="duplicate doc_id d2 at line 3"):
            load_corpus(path, keep={"d1"})

    def test_holds_exactly_the_kept_passages(self, tmp_path):
        path = _write(tmp_path, "c.jsonl", CORPUS_LINES)
        full = load_corpus(path)
        kept = load_corpus(path, keep={"d2", "d4", "absent"})
        assert len(kept) == 2
        assert "d1" not in kept and "d3" not in kept and "absent" not in kept
        assert kept["d2"] == full["d2"] and kept["d4"] == full["d4"]

    def test_keep_none_loads_everything(self, tmp_path):
        path = _write(tmp_path, "c.jsonl", CORPUS_LINES)
        full, everything = load_corpus(path), load_corpus(path, keep=None)
        assert len(everything) == len(full) == 4
        assert all(everything[f"d{i}"] == full[f"d{i}"] for i in range(1, 5))


class TestLoadRun:
    def test_line_maps_fields(self, tmp_path):
        path = _write(tmp_path, "r.trec", "q1 Q0 d7 1 12.5 bm25\n")
        run = load_run(path)
        assert run["q1"] == CandidateList(query_id="q1", ids=("d7",))

    def test_truncates_to_max_depth(self, tmp_path):
        lines = "".join(f"q1 Q0 d{i} {i} {1000 - i} x\n" for i in range(1, 151))
        run = load_run(_write(tmp_path, "r.trec", lines), max_depth=100)
        assert len(run["q1"]) == 100
        assert run["q1"].ids[-1] == "d100"

    def test_non_contiguous_rank_rejected(self, tmp_path):
        path = _write(tmp_path, "r.trec", "q1 Q0 d1 1 2.0 x\nq1 Q0 d2 3 1.0 x\n")
        with pytest.raises(LoadError, match="non-contiguous rank"):
            load_run(path)

    def test_non_numeric_rank_rejected(self, tmp_path):
        path = _write(tmp_path, "r.trec", "q1 Q0 d1 one 2.0 x\n")
        with pytest.raises(LoadError, match="non-numeric"):
            load_run(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = _write(tmp_path, "r.trec", "q1 Q0 d1 1 2.0 x\nq1 Q0 d1 2 1.0 x\n")
        with pytest.raises(LoadError, match="duplicate"):
            load_run(path)

    def test_out_of_order_lines_sorted_and_flagged(self, tmp_path, caplog):
        path = _write(tmp_path, "r.trec", "q1 Q0 d2 2 1.0 x\nq1 Q0 d1 1 2.0 x\n")
        with caplog.at_level(logging.WARNING):
            run = load_run(path)
        assert run["q1"].doc_ids() == ["d1", "d2"]
        assert any("line order disagrees" in r.message for r in caplog.records)

    def test_score_inversion_warns_but_rank_wins(self, tmp_path, caplog):
        path = _write(tmp_path, "r.trec", "q1 Q0 d1 1 1.0 x\nq1 Q0 d2 2 5.0 x\n")
        with caplog.at_level(logging.WARNING):
            run = load_run(path)
        assert run["q1"].doc_ids() == ["d1", "d2"]
        assert any("score increases" in r.message for r in caplog.records)

    def test_round_trip(self, tmp_path):
        original = _write(
            tmp_path,
            "r.trec",
            "q1 Q0 d7 1 12.5 bm25\nq1 Q0 d3 2 10 bm25\nq2 Q0 d9 1 3.25 bm25\n",
        )
        run = load_run(original)
        out = tmp_path / "out.trec"
        out.write_text(
            "".join(trec_lines(qid, cl.doc_ids(), tag="bm25") for qid, cl in run.items()),
            encoding="utf-8",
        )
        assert out.read_text(encoding="utf-8").splitlines()[:2] == [
            "q1 Q0 d7 1 1 bm25",
            "q1 Q0 d3 2 0.5 bm25",
        ]
        assert load_run(out) == {qid: make_candidates(qid, cl.doc_ids()) for qid, cl in run.items()}

    @pytest.mark.parametrize("n", [0, 1, 7, 100, 150])
    def test_trec_lines_score_one_over_rank(self, n):
        doc_ids = [f"d{i}" for i in range(n)]
        expected = "".join(
            f"q1 Q0 {doc_id} {rank} {1.0 / rank:g} tag\n" for rank, doc_id in enumerate(doc_ids, 1)
        )
        assert trec_lines("q1", doc_ids, "tag") == expected
        # a shorter ranking after a longer one gets only its own lines
        assert trec_lines("q1", doc_ids[:3], "tag") == "".join(expected.splitlines(True)[:3])


class TestLoadQrels:
    def test_maps_grades(self, tmp_path):
        qrels = load_qrels(_write(tmp_path, "q.txt", "q1 0 d7 2\n"))
        assert qrels.grade("q1", "d7") == 2

    def test_absent_pair_grade_zero(self, tmp_path):
        qrels = load_qrels(_write(tmp_path, "q.txt", "q1 0 d7 2\n"))
        assert qrels.grade("q1", "d9") == 0

    def test_negative_grade_rejected(self, tmp_path):
        with pytest.raises(LoadError, match="negative grade"):
            load_qrels(_write(tmp_path, "q.txt", "q1 0 d7 -1\n"))

    def test_grade_zero_lines_retained(self, tmp_path):
        qrels = load_qrels(_write(tmp_path, "q.txt", "q1 0 d7 0\n"))
        assert "d7" in qrels.grades_for("q1")
        assert qrels.positives("q1") == set()


class TestGoldFiles:
    def test_answers(self, tmp_path):
        path = _write(tmp_path, "a.jsonl", '{"query_id": "q1", "answers": ["x", "y"]}\n')
        assert load_answers(path) == {"q1": ["x", "y"]}

    def test_answers_must_be_non_empty(self, tmp_path):
        path = _write(tmp_path, "a.jsonl", '{"query_id": "q1", "answers": []}\n')
        with pytest.raises(LoadError, match="non-empty"):
            load_answers(path)

    def test_evidence(self, tmp_path):
        path = _write(tmp_path, "e.jsonl", '{"query_id": "q1", "evidence": ["d1", "d2"]}\n')
        assert load_evidence(path) == {"q1": {"d1", "d2"}}

    def test_evidence_from_qrels_threshold(self, tmp_path):
        qrels = load_qrels(_write(tmp_path, "q.txt", "q1 0 d1 2\nq1 0 d2 1\nq1 0 d3 0\nq2 0 d4 0\n"))
        assert evidence_from_qrels(qrels) == {"q1": {"d1", "d2"}}
        assert evidence_from_qrels(qrels, threshold=2) == {"q1": {"d1"}}


class TestResolution:
    def test_resolve_in_rank_order(self):
        corpus = Corpus([Passage("d1", "a"), Passage("d2", "b")])
        cl = CandidateList(query_id="q1", ids=("d2", "d1"))
        assert [p.doc_id for p in resolve_candidates(corpus, cl)] == ["d2", "d1"]

    def test_fail_fast_lists_all_unresolved(self):
        corpus = Corpus([Passage("d1", "a")])
        run = {
            "q1": make_candidates("q1", ["d1", "dX"]),
            "q2": make_candidates("q2", ["dY"]),
        }
        with pytest.raises(LoadError) as exc:
            check_run_resolves(corpus, run)
        assert "q1:dX" in str(exc.value) and "q2:dY" in str(exc.value)

    def test_queries_loader(self, tmp_path):
        path = _write(tmp_path, "q.jsonl", '{"query_id": "q1", "text": "hello"}\n')
        queries = load_queries(path)
        assert queries[0].query_id == "q1" and queries[0].text == "hello"


# reader name -> (reader, file name, a valid first line)
READERS = {
    "corpus-jsonl": (load_corpus, "c.jsonl", '{"doc_id": "d1", "text": "one"}'),
    "corpus-tsv": (load_corpus, "c.tsv", "d1\tone"),
    "queries-jsonl": (load_queries, "q.jsonl", '{"query_id": "q1", "text": "one"}'),
    "queries-tsv": (load_queries, "q.tsv", "q1\tone"),
    "run": (load_run, "r.trec", "q1 Q0 d1 1 2.0 x"),
    "qrels": (load_qrels, "qrels.txt", "q1 0 d1 1"),
    "answers": (load_answers, "a.jsonl", '{"query_id": "q1", "answers": ["x"]}'),
    "evidence": (load_evidence, "e.jsonl", '{"query_id": "q1", "evidence": ["d1"]}'),
    "predictions": (load_predictions, "p.jsonl", '{"query_id": "q1", "answer": "x"}'),
    "selection": (read_selection_file, "s.jsonl", '{"query_id": "q1", "selected": ["d1"]}'),
    "transcript": (TranscriptJudge, "t.jsonl", '{"prompt_sha256": "ab", "response_text": "[1]"}'),
}

# (reader name, defect, a line that follows a valid line and a blank one)
MALFORMED_LINES = [
    ("corpus-jsonl", "bad JSON", '{"doc_id": "d2",'),
    ("corpus-jsonl", "missing field", '{"doc_id": "d2"}'),
    ("corpus-jsonl", "duplicate", '{"doc_id": "d1", "text": "again"}'),
    ("corpus-tsv", "too few columns", "d2"),
    ("corpus-tsv", "duplicate", "d1\tagain"),
    ("queries-jsonl", "bad JSON", '{"query_id": "q2",'),
    ("queries-jsonl", "missing field", '{"query_id": "q2"}'),
    ("queries-jsonl", "duplicate", '{"query_id": "q1", "text": "again"}'),
    ("queries-jsonl", "empty text", '{"query_id": "q2", "text": ""}'),
    ("queries-jsonl", "blank text", '{"query_id": "q2", "text": " \\t "}'),
    ("queries-tsv", "too few columns", "q2"),
    ("queries-tsv", "duplicate", "q1\tagain"),
    ("queries-tsv", "empty text", "q2\t"),
    ("queries-tsv", "blank text", "q2\t  \ttitle"),
    ("run", "too few columns", "q1 Q0 d2 2"),
    ("run", "duplicate", "q1 Q0 d1 2 1.0 x"),
    ("qrels", "too few columns", "q1 0 d2"),
    ("qrels", "duplicate", "q1 0 d1 0"),
    ("answers", "bad JSON", "[}"),
    ("answers", "missing field", '{"query_id": "q2"}'),
    ("answers", "duplicate", '{"query_id": "q1", "answers": ["y"]}'),
    ("evidence", "bad JSON", "[}"),
    ("evidence", "missing field", '{"query_id": "q2"}'),
    ("evidence", "duplicate", '{"query_id": "q1", "evidence": ["d2"]}'),
    ("predictions", "bad JSON", "[}"),
    ("predictions", "missing field", '{"query_id": "q2"}'),
    ("predictions", "duplicate", '{"query_id": "q1", "answer": "y"}'),
    ("selection", "bad JSON", "[}"),
    ("selection", "not an object", '["q2"]'),
    ("selection", "missing field", '{"query_id": "q2"}'),
    ("selection", "not a list", '{"query_id": "q2", "selected": "d1"}'),
    ("selection", "duplicate", '{"query_id": "q1", "selected": []}'),
    ("transcript", "bad JSON", "not json"),
    ("transcript", "missing field", '{"prompt_sha256": "cd"}'),
    # a byte that is not UTF-8 (Latin-1 e-acute)
    ("corpus-jsonl", "not UTF-8", b'{"doc_id": "d2", "text": "caf\xe9"}'),
    ("queries-tsv", "not UTF-8", b"q2\tcaf\xe9"),
    ("run", "not UTF-8", b"q1 Q0 d\xe9 2 1.0 x"),
    ("qrels", "not UTF-8", b"q1 0 d\xe9 1"),
    ("transcript", "not UTF-8", b'{"prompt_sha256": "cd", "response_text": "\xe9"}'),
]


@pytest.mark.parametrize(
    "reader, defect, line",
    MALFORMED_LINES,
    ids=[f"{reader}-{defect}" for reader, defect, _ in MALFORMED_LINES],
)
def test_malformed_line_names_file_and_line(tmp_path, reader, defect, line):
    read, name, first = READERS[reader]
    path = tmp_path / name
    data = line if isinstance(line, bytes) else line.encode()
    path.write_bytes(f"{first}\n\n".encode() + data + b"\n")
    with pytest.raises(LoadError) as exc:
        read(path)
    assert str(path) in str(exc.value)
    assert "line 3" in str(exc.value)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_valid_line_and_blank_lines_load(tmp_path, reader):
    read, name, first = READERS[reader]
    read(_write(tmp_path, name, f"\n{first}\n\n"))
