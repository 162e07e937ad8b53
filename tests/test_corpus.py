from __future__ import annotations

import json
import logging
import tracemalloc

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from ragsift.corpus import (
    CHARS_PER_TOKEN,
    CandidateList,
    LoadError,
    Passage,
    check_run_resolves,
    evidence_from_qrels,
    jsonl_line,
    load_answers,
    load_corpus,
    load_evidence,
    load_qrels,
    load_queries,
    load_run,
    resolve_candidates,
    trec_lines,
    truncate_text,
)
from ragsift.judge import TranscriptJudge
from ragsift.metrics import load_predictions
from ragsift.prompting import PromptTemplate, default_templates, render
from ragsift.windowing import read_selection_file
from tests.conftest import QUERY, make_candidates


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

    def test_integer_id_and_null_title_accepted(self, tmp_path):
        path = _write(tmp_path, "c.jsonl", '{"doc_id": 7, "text": "seven", "title": null}\n')
        assert load_corpus(path)["7"] == Passage(doc_id="7", text="seven")

    def test_empty_text_rejected(self, tmp_path):
        path = _write(tmp_path, "c.jsonl", '{"doc_id": "d1", "text": "   "}\n')
        with pytest.raises(LoadError, match="empty text"):
            load_corpus(path)


# four valid passages d1..d4; a keep set holds d1, d2 and, in the second case, d9
CORPUS_LINES = "".join(f'{{"doc_id": "d{i}", "text": "text {i}"}}\n' for i in range(1, 5))
KEEPS = [{"d1", "d2"}, {"d1", "d2", "d9"}]


class TestLoadCorpusKeep:
    budget = None  # the passage_tokens of every load

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
            load_corpus(path, keep=keep, passage_tokens=self.budget)
        assert str(kept.value) == str(full.value)
        assert "line 5" in str(kept.value)

    def test_tsv_duplicate_among_dropped(self, tmp_path):
        path = _write(tmp_path, "c.tsv", "d1\tone\nd2\ttwo\nd2\tagain\n")
        with pytest.raises(LoadError, match="duplicate doc_id d2 at line 3"):
            load_corpus(path, keep={"d1"}, passage_tokens=self.budget)

    def test_holds_exactly_the_kept_passages(self, tmp_path):
        path = _write(tmp_path, "c.jsonl", CORPUS_LINES)
        full = load_corpus(path, passage_tokens=self.budget)
        kept = load_corpus(path, keep={"d2", "d4", "absent"}, passage_tokens=self.budget)
        assert len(kept) == 2
        assert "d1" not in kept and "d3" not in kept and "absent" not in kept
        assert kept["d2"] == full["d2"] and kept["d4"] == full["d4"]

    def test_keep_none_loads_everything(self, tmp_path):
        path = _write(tmp_path, "c.jsonl", CORPUS_LINES)
        full = load_corpus(path, passage_tokens=self.budget)
        everything = load_corpus(path, keep=None, passage_tokens=self.budget)
        assert len(everything) == len(full) == 4
        assert all(everything[f"d{i}"] == full[f"d{i}"] for i in range(1, 5))


class TestLoadCorpusBudget(TestLoadCorpusKeep):
    """Loads with a ``passage_tokens`` budget: every keep test again at 4 characters, which
    cut "text 1" to "text", then the cut itself."""

    budget = 1

    def test_holds_the_kept_passages_cut_to_the_budget(self, tmp_path):
        path = _write(tmp_path, "c.jsonl", CORPUS_LINES)
        kept = load_corpus(path, keep={"d2", "d4", "absent"}, passage_tokens=self.budget)
        assert kept == {"d2": Passage("d2", "text"), "d4": Passage("d4", "text")}

    @pytest.mark.parametrize("tokens", [0, -3])
    def test_budget_below_one_refused(self, tmp_path, tokens):
        path = _write(tmp_path, "c.jsonl", CORPUS_LINES)
        with pytest.raises(ValueError, match=f"passage_tokens must be at least 1, got {tokens}"):
            load_corpus(path, passage_tokens=tokens)

    def test_mapping_keep_names_the_held_id_object(self, tmp_path):
        path = _write(tmp_path, "c.jsonl", CORPUS_LINES)
        ids = {d: d for d in (f"d{i}" for i in (1, 3, 7))}
        corpus = load_corpus(path, keep=ids)
        assert sorted(corpus) == ["d1", "d3"]
        for key, passage in corpus.items():
            assert key is ids[key] and passage.doc_id is ids[key]

    # ASCII and Unicode whitespace (U+3000 is whitespace, U+200B is not) and non-ASCII letters
    _ALPHABET = "ab  \t\u3000\u200bé中🙂"

    # each example rewrites the one file it loads, so a shared tmp_path is safe
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        text=st.text(alphabet=_ALPHABET, min_size=1, max_size=40),
        title=st.none() | st.text(alphabet="Tt é", min_size=1, max_size=5),
        tokens=st.integers(1, 6),
        tsv=st.booleans(),
    )
    @example(text="ab cd", title=None, tokens=2, tsv=False)  # under the budget
    @example(text="abcd efgh", title=None, tokens=2, tsv=True)  # one over: the cut falls at the space
    @example(text="abcdefgh", title="T", tokens=2, tsv=True)  # exactly at the budget
    @example(text="  " + "x" * 20, title=None, tokens=2, tsv=False)  # leading whitespace
    @example(text="x" * 20 + " y", title="T", tokens=2, tsv=True)  # first token over the limit
    @example(text="é中 🙂" * 9, title="中", tokens=3, tsv=False)
    def test_render_of_budgeted_load_matches_full_text(self, tmp_path, text, title, tokens, tsv):
        if tsv:
            text = text.replace("\t", " ")  # a TSV text column holds no tab
        assume(text.strip())  # whitespace-only text does not load
        if tsv:
            name, line = "c.tsv", "\t".join(["d1", text, title or ""])
        else:
            name, line = "c.jsonl", json.dumps({"doc_id": "d1", "text": text, "title": title})
        path = _write(tmp_path, name, line + "\n")
        full = load_corpus(path)["d1"]
        cut = load_corpus(path, keep={"d1": "d1"}, passage_tokens=tokens)["d1"]
        assert full.text == text and cut.title == full.title
        assert len(cut.text) <= tokens * 4
        # the load cuts by truncate_text, and render shows the held text as it is
        by_rule = Passage("d1", truncate_text(full.text, tokens * CHARS_PER_TOKEN), full.title)
        ranking, _ = default_templates()
        titled = PromptTemplate("ranking", "s", "[{index}] {title}: {text}", "{query} {count}")
        for template in (ranking, titled):
            assert render(template, QUERY, [cut]) == render(template, QUERY, [by_rule])
        assert render(ranking, QUERY, [cut]).user.startswith(f"[1] {by_rule.text}\n\n")

    def test_budget_bounds_held_text_memory(self, tmp_path):
        # 2,000 passages of 400 ASCII characters; a budget of 8 tokens keeps 29 of each, so
        # the cut tails come to 2,000 x 371 bytes, and the bound leaves 3 bytes a passage of slack
        words = " ".join(["abcdefghi"] * 40)[:400]
        lines = "".join(json.dumps({"doc_id": f"d{i}", "text": words}) + "\n" for i in range(2000))
        path = _write(tmp_path, "c.jsonl", lines)

        def traced_size(**kwargs) -> int:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                corpus = load_corpus(path, **kwargs)
                size = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(corpus) == 2000
            return size

        assert traced_size() - traced_size(passage_tokens=8) >= 2000 * 368


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


# pinned before the loader was rewritten: a shuffled, depth-cut run with a
# score inversion past the cut, and a run whose ranks skip one
SHUFFLED_RUN = (
    "q2 Q0 d3 2 4.0 bm25\n"
    "q1 Q0 d5 3 7.5 bm25\n"
    "q1 Q0 d1 1 9.0 bm25\n"
    "q2 Q0 d1 1 5.0 bm25\n"
    "q1 Q0 d6 5 8.0 bm25\n"
    "q1 Q0 d2 2 8.5 bm25\n"
    "q1 Q0 d4 4 7.0 bm25\n"
    "q1 Q0 d3 6 1.0 bm25\n"
    "q3 Q0 d9 1 2.0 bm25\n"
    "q3 Q0 d8 2 2.5 bm25\n"
)
GAPPED_RUN = (
    "q1 Q0 d2 2 2.0 x\n"
    "q1 Q0 d1 1 3.0 x\n"
    "q2 Q0 d1 1 3.0 x\n"
    "q2 Q0 d4 4 1.0 x\n"
    "q2 Q0 d2 2 2.0 x\n"
)


def _warnings(caplog, path):
    return [(r.name, r.levelname, r.getMessage().replace(str(path), "PATH")) for r in caplog.records]


class TestLoadRunPinned:
    def test_shuffled_depth_cut_run(self, tmp_path, caplog):
        path = _write(tmp_path, "r.trec", SHUFFLED_RUN)
        with caplog.at_level(logging.WARNING):
            run = load_run(path, max_depth=4)
        assert run == {
            "q2": CandidateList("q2", ("d1", "d3")),
            "q1": CandidateList("q1", ("d1", "d2", "d5", "d4")),
            "q3": CandidateList("q3", ("d9", "d8")),
        }
        assert list(run) == ["q2", "q1", "q3"]
        assert run["q1"].doc_ids() == ["d1", "d2", "d5", "d4"]
        assert _warnings(caplog, path) == [
            ("ragsift.corpus", "WARNING", "run PATH: line order disagrees with ranks for query q2"),
            ("ragsift.corpus", "WARNING", "run PATH: line order disagrees with ranks for query q1"),
            # d6 is ranked past the cut, but the inversion check sees the whole list
            ("ragsift.corpus", "WARNING", "run PATH: score increases with rank for query q1 (doc d6)"),
            ("ragsift.corpus", "WARNING", "run PATH: score increases with rank for query q3 (doc d8)"),
        ]

    def test_one_string_per_doc_id(self, tmp_path):
        run = load_run(_write(tmp_path, "r.trec", SHUFFLED_RUN + SHUFFLED_RUN.replace("q", "p")))
        ids = [d for cl in run.values() for d in cl.ids]
        assert len({id(d) for d in ids}) == len(set(ids)) < len(ids)

    def test_non_contiguous_ranks_after_warnings(self, tmp_path, caplog):
        path = _write(tmp_path, "r.trec", GAPPED_RUN)
        with caplog.at_level(logging.WARNING), pytest.raises(LoadError) as exc:
            load_run(path)
        assert str(exc.value) == f"{path}: non-contiguous rank sequence for query q2: [1, 2, 4]..."
        assert _warnings(caplog, path) == [
            ("ragsift.corpus", "WARNING", "run PATH: line order disagrees with ranks for query q1"),
            ("ragsift.corpus", "WARNING", "run PATH: line order disagrees with ranks for query q2"),
        ]


class TestLoadQrels:
    def test_maps_grades(self, tmp_path):
        qrels = load_qrels(_write(tmp_path, "q.txt", "q1 0 d7 2\n"))
        assert qrels == {"q1": {"d7": 2}}

    def test_absent_pair_grade_zero(self, tmp_path):
        qrels = load_qrels(_write(tmp_path, "q.txt", "q1 0 d7 2\n"))
        assert qrels.get("q1", {}).get("d9", 0) == 0

    def test_negative_grade_rejected(self, tmp_path):
        with pytest.raises(LoadError, match="negative grade"):
            load_qrels(_write(tmp_path, "q.txt", "q1 0 d7 -1\n"))

    def test_grade_zero_lines_retained(self, tmp_path):
        qrels = load_qrels(_write(tmp_path, "q.txt", "q1 0 d7 0\n"))
        assert "d7" in qrels["q1"]
        assert evidence_from_qrels(qrels) == {}


class TestGoldFiles:
    def test_answers(self, tmp_path):
        path = _write(tmp_path, "a.jsonl", '{"query_id": "q1", "answers": ["x", "y"]}\n')
        assert load_answers(path) == {"q1": ["x", "y"]}

    def test_answers_must_be_non_empty(self, tmp_path):
        path = _write(tmp_path, "a.jsonl", '{"query_id": "q1", "answers": []}\n')
        with pytest.raises(LoadError, match="non-empty"):
            load_answers(path)

    def test_integer_ids_accepted(self, tmp_path):
        path = _write(tmp_path, "a.jsonl", '{"query_id": 7, "answers": ["x", 1984]}\n')
        assert load_answers(path) == {"7": ["x", "1984"]}

    def test_evidence(self, tmp_path):
        path = _write(tmp_path, "e.jsonl", '{"query_id": "q1", "evidence": ["d1", "d2"]}\n')
        assert load_evidence(path) == {"q1": {"d1", "d2"}}

    def test_evidence_from_qrels_threshold(self, tmp_path):
        qrels = load_qrels(_write(tmp_path, "q.txt", "q1 0 d1 2\nq1 0 d2 1\nq1 0 d3 0\nq2 0 d4 0\n"))
        assert evidence_from_qrels(qrels) == {"q1": {"d1", "d2"}}
        assert evidence_from_qrels(qrels, threshold=2) == {"q1": {"d1"}}


class TestResolution:
    def test_resolve_in_rank_order(self):
        corpus = {"d1": Passage("d1", "a"), "d2": Passage("d2", "b")}
        cl = CandidateList(query_id="q1", ids=("d2", "d1"))
        assert [p.doc_id for p in resolve_candidates(corpus, cl)] == ["d2", "d1"]

    def test_fail_fast_lists_all_unresolved(self):
        corpus = {"d1": Passage("d1", "a")}
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
    ("corpus-jsonl", "null text", '{"doc_id": "d2", "text": null}'),
    ("corpus-jsonl", "list text", '{"doc_id": "d2", "text": ["two"]}'),
    ("corpus-jsonl", "object title", '{"doc_id": "d2", "text": "two", "title": {"t": 1}}'),
    ("corpus-jsonl", "float id", '{"doc_id": 2.5, "text": "two"}'),
    ("corpus-jsonl", "boolean id", '{"doc_id": true, "text": "two"}'),
    ("corpus-tsv", "too few columns", "d2"),
    ("corpus-tsv", "duplicate", "d1\tagain"),
    ("queries-jsonl", "bad JSON", '{"query_id": "q2",'),
    ("queries-jsonl", "missing field", '{"query_id": "q2"}'),
    ("queries-jsonl", "duplicate", '{"query_id": "q1", "text": "again"}'),
    ("queries-jsonl", "null text", '{"query_id": "q2", "text": null}'),
    ("queries-jsonl", "list id", '{"query_id": ["q2"], "text": "two"}'),
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
    # gold and selection values are ids or text, never stringified JSON
    ("answers", "boolean id", '{"query_id": true, "answers": ["y"]}'),
    ("answers", "null answer", '{"query_id": "q2", "answers": [null, 3.0]}'),
    ("answers", "float answer", '{"query_id": "q2", "answers": ["y", 3.0]}'),
    ("answers", "not a list", '{"query_id": "q2", "answers": "y"}'),
    ("evidence", "float id", '{"query_id": 2.5, "evidence": ["d2"]}'),
    ("evidence", "boolean doc id", '{"query_id": "q2", "evidence": [false]}'),
    ("predictions", "list id", '{"query_id": ["q2"], "answer": "y"}'),
    ("predictions", "number answer", '{"query_id": "q2", "answer": 3}'),
    ("predictions", "list answer", '{"query_id": "q2", "answer": ["y"]}'),
    ("selection", "null doc id", '{"query_id": "q2", "selected": [null, {"a": 1}]}'),
    ("selection", "object doc id", '{"query_id": "q2", "selected": ["d1", {"a": 1}]}'),
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


# text with lone surrogates and control characters, which the encoder escapes,
# beside non-ASCII characters it writes as they are
_JSON_TEXT = st.text(
    st.characters(exclude_categories=()) | st.sampled_from("\x00\x1f\x7f\u2028é😀\ud800\udfff\"\\")
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _JSON_TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_JSON_TEXT, children, max_size=4),
    max_leaves=12,
)


def _as_lists(value):
    if isinstance(value, (list, tuple)):
        return [_as_lists(v) for v in value]
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    return value


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_jsonl_line_is_json_dumps_plus_newline(value):
    line = jsonl_line(value)
    assert line == json.dumps(value, ensure_ascii=False) + "\n"
    # a tuple is written as the array of its items
    assert line == jsonl_line(_as_lists(value))
