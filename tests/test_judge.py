from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragsift.judge import (
    RANKING,
    SELECTION,
    JudgeEndpointConfig,
    JudgeTransportError,
    JudgeVerdict,
    OracleJudge,
    RecordingJudge,
    RemoteJudge,
    ReplayJudge,
    canonical_text,
    judge_window,
    parse_ranking,
    parse_selection,
    verdict_from_text,
)
from ragsift.prompting import default_templates, render
from tests.conftest import QUERY, make_passages, make_qrels


class TestParseRanking:
    def test_well_formed(self):
        assert parse_ranking("[3] > [1] > [2]", 3) == ([3, 1, 2], [])

    def test_prose_around_brackets_is_clean(self):
        assert parse_ranking("I think [2] > [1] > [3]", 3) == ([2, 1, 3], [])

    def test_dedup_out_of_range_missing(self):
        assert parse_ranking("[2] > [2] > [5]", 3) == (
            [2, 1, 3],
            ["dedup", "out_of_range_dropped", "missing_appended"],
        )

    def test_unbracketed_fallback(self):
        assert parse_ranking("ranking: 1,3,2", 3) == ([1, 3, 2], ["free_text_stripped"])

    def test_unparseable_degrades_to_identity(self):
        assert parse_ranking("no identifiers here", 4) == ([1, 2, 3, 4], ["unparseable"])

    def test_absurd_digit_runs_do_not_crash(self):
        # digit runs beyond CPython's int() conversion limit
        giant = "9" * 5000
        permutation, repairs = parse_ranking(f"[{giant}] > [2] > [1]", 3)
        assert sorted(permutation) == [1, 2, 3]
        assert "out_of_range_dropped" in repairs
        selected, _, _ = parse_selection(f"Selected: [{giant}]", 3)
        assert selected == []

    def test_empty_string(self):
        assert parse_ranking("", 2) == ([1, 2], ["unparseable"])

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=120), st.integers(1, 30))
    def test_totality(self, text, n):
        permutation, _ = parse_ranking(text, n)
        assert sorted(permutation) == list(range(1, n + 1))


class TestParseSelection:
    def test_answer_then_selected_line(self):
        assert parse_selection("Napoleon died in 1821.\nSelected: [2], [4]", 5) == (
            [2, 4],
            "Napoleon died in 1821.",
            [],
        )

    def test_explicit_none(self):
        assert parse_selection("Selected: none", 5) == ([], None, [])

    def test_free_text_scavenge_with_repairs(self):
        assert parse_selection("Useful passages are [4] and [4] and [9]", 5) == (
            [4],
            None,
            ["dedup", "out_of_range_dropped", "free_text_stripped"],
        )

    def test_no_identifiers_at_all(self):
        assert parse_selection("I cannot tell.", 5) == ([], None, ["unparseable"])

    def test_selected_line_first_keeps_trailing_answer(self):
        selected, pseudo, repairs = parse_selection("Selected: [1]\nThe answer is 42.", 3)
        assert selected == [1]
        assert pseudo == "The answer is 42."
        assert repairs == []

    def test_last_selected_line_wins(self):
        text = "Selected: [1]\nwait, revised.\nSelected: [2], [3]"
        selected, pseudo, _ = parse_selection(text, 3)
        assert selected == [2, 3]
        assert pseudo == "Selected: [1]\nwait, revised."

    def test_bare_integers_inside_selected_line(self):
        selected, _, repairs = parse_selection("Selected: 2, 4", 5)
        assert selected == [2, 4]
        assert repairs == ["free_text_stripped"]

    def test_emission_order_preserved(self):
        selected, _, _ = parse_selection("Selected: [4], [1], [3]", 5)
        assert selected == [4, 1, 3]

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=120), st.integers(1, 30))
    def test_totality(self, text, n):
        selected, _, _ = parse_selection(text, n)
        assert len(set(selected)) == len(selected)
        assert all(1 <= i <= n for i in selected)


@st.composite
def ranking_verdicts(draw):
    n = draw(st.integers(1, 12))
    permutation = draw(st.permutations(list(range(1, n + 1))))
    return n, JudgeVerdict(kind=RANKING, raw_text="", permutation=tuple(permutation))


@st.composite
def selection_verdicts(draw):
    n = draw(st.integers(1, 12))
    subset = draw(st.lists(st.integers(1, n), unique=True, max_size=n))
    pseudo = draw(
        st.one_of(st.none(), st.text(min_size=1, max_size=60).filter(lambda t: t.strip()))
    )
    return n, JudgeVerdict(
        kind=SELECTION, raw_text="", selected=tuple(subset), pseudo_answer=pseudo
    )


class TestIdempotence:
    @settings(max_examples=200, deadline=None)
    @given(ranking_verdicts())
    def test_ranking_roundtrip(self, case):
        n, verdict = case
        reparsed = verdict_from_text(canonical_text(verdict), RANKING, n)
        assert reparsed.permutation == verdict.permutation
        assert reparsed.repairs == ()

    @settings(max_examples=200, deadline=None)
    @given(selection_verdicts())
    def test_selection_roundtrip(self, case):
        n, verdict = case
        reparsed = verdict_from_text(canonical_text(verdict), SELECTION, n)
        assert reparsed.selected == verdict.selected
        assert reparsed.repairs == ()
        expected_pseudo = verdict.pseudo_answer.strip() if verdict.pseudo_answer else None
        assert reparsed.pseudo_answer == expected_pseudo


def _prompt(n=3, qid="q1"):
    ranking, _ = default_templates()
    from ragsift.corpus import Query

    return render(ranking, Query(qid, "q text"), make_passages(n))


class TestOracleJudge:
    def test_ranking_sorts_by_grade_desc_ties_by_position(self):
        qrels = make_qrels("q1", {"d1": 0, "d2": 3, "d3": 1})
        verdict = judge_window(OracleJudge(qrels), _prompt(3), RANKING, 3)
        assert verdict.permutation == (2, 3, 1)

    def test_selection_threshold_filter(self):
        qrels = make_qrels("q1", {"d1": 0, "d2": 3, "d3": 1})
        verdict = judge_window(OracleJudge(qrels), _prompt(3), SELECTION, 3)
        assert verdict.selected == (2, 3)

    def test_selection_respects_custom_threshold(self):
        qrels = make_qrels("q1", {"d1": 0, "d2": 3, "d3": 1})
        verdict = judge_window(OracleJudge(qrels, selection_threshold=2), _prompt(3), SELECTION, 3)
        assert verdict.selected == (2,)

    def test_deterministic(self):
        qrels = make_qrels("q1", {"d1": 1, "d2": 2, "d3": 2})
        judge = OracleJudge(qrels)
        first = judge_window(judge, _prompt(3), RANKING, 3)
        for _ in range(5):
            assert judge_window(judge, _prompt(3), RANKING, 3) == first


class TestReplayAndRecording:
    def test_record_then_replay_identical(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        qrels = make_qrels("q1", {"d1": 2, "d2": 0, "d3": 1})
        recorder = RecordingJudge(OracleJudge(qrels), transcript)
        prompt = _prompt(3)
        original = judge_window(recorder, prompt, RANKING, 3)

        replay = ReplayJudge(transcript)
        assert len(replay) == 1
        assert judge_window(replay, prompt, RANKING, 3) == original

    def test_replay_miss_is_transport_error(self, tmp_path):
        transcript = tmp_path / "empty.jsonl"
        transcript.write_text("", encoding="utf-8")
        with pytest.raises(JudgeTransportError):
            judge_window(ReplayJudge(transcript), _prompt(3), RANKING, 3)


class _ChatHandler(BaseHTTPRequestHandler):
    responses: list[tuple[int, str]] = []
    requests_seen: list[dict] = []
    lock = threading.Lock()

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        with self.lock:
            self.requests_seen.append(body)
            status, text = (
                self.responses.pop(0) if self.responses else (200, "[1] > [2] > [3]")
            )
        payload = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": text}}]}
        ).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    _ChatHandler.responses = []
    _ChatHandler.requests_seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1", _ChatHandler
    server.shutdown()
    server.server_close()


@pytest.fixture
def remote_judge():
    """Build RemoteJudges from endpoint settings and close their sessions after the test."""
    judges = []

    def build(**config):
        judges.append(RemoteJudge(JudgeEndpointConfig(**config)))
        return judges[-1]

    yield build
    for judge in judges:
        judge.close()


@pytest.mark.filterwarnings("error")
class TestRemoteJudge:
    def test_payload_and_parse(self, chat_server, remote_judge):
        url, handler = chat_server
        handler.responses = [(200, "I think [2] > [1] > [3]")]
        judge = remote_judge(base_url=url, model_name="m1", api_key="k")
        verdict = judge_window(judge, _prompt(3), RANKING, 3)
        assert verdict.permutation == (2, 1, 3)
        assert verdict.repairs == ()
        sent = handler.requests_seen[0]
        assert sent["model"] == "m1"
        assert sent["temperature"] == 0.0
        assert sent["messages"][0]["role"] == "system"
        assert "[1]" in sent["messages"][1]["content"]

    def test_retries_on_5xx_then_succeeds(self, chat_server, remote_judge):
        url, handler = chat_server
        handler.responses = [(500, "boom"), (200, "[3] > [2] > [1]")]
        judge = remote_judge(
            base_url=url, model_name="m1", api_key="k", max_retries=2, retry_base_delay=0.01
        )
        verdict = judge_window(judge, _prompt(3), RANKING, 3)
        assert verdict.permutation == (3, 2, 1)
        assert len(handler.requests_seen) == 2

    def test_repaired_content_is_not_retried(self, chat_server, remote_judge):
        url, handler = chat_server
        handler.responses = [(200, "garbled 2 then 1 then 3")]
        judge = remote_judge(base_url=url, model_name="m1", api_key="k")
        verdict = judge_window(judge, _prompt(3), RANKING, 3)
        assert verdict.permutation == (2, 1, 3)
        assert "free_text_stripped" in verdict.repairs
        assert len(handler.requests_seen) == 1

    def test_exhausted_retries_raise_transport_error(self, chat_server, remote_judge):
        url, handler = chat_server
        handler.responses = [(500, "x"), (500, "x"), (500, "x")]
        judge = remote_judge(
            base_url=url, model_name="m1", api_key="k", max_retries=2, retry_base_delay=0.01
        )
        with pytest.raises(JudgeTransportError) as exc:
            judge_window(judge, _prompt(3, qid="q9"), RANKING, 3)
        assert exc.value.query_id == "q9"

    def test_unreachable_endpoint(self, remote_judge):
        judge = remote_judge(
            base_url="http://127.0.0.1:1/v1", model_name="m", api_key="k", max_retries=0
        )
        with pytest.raises(JudgeTransportError):
            judge_window(judge, _prompt(2), RANKING, 2)

    def test_recording_close_releases_pooled_connections(self, chat_server, remote_judge, tmp_path):
        url, _ = chat_server
        judge = remote_judge(base_url=url, model_name="m1", api_key="k")
        recorder = RecordingJudge(judge, tmp_path / "t.jsonl")
        judge_window(recorder, _prompt(3), RANKING, 3)
        pools = judge._session.get_adapter(url).poolmanager.pools
        assert len(pools) == 1
        recorder.close()
        assert len(pools) == 0


class TestDegradation:
    def test_unparseable_ranking_is_identity(self):
        verdict = verdict_from_text("total nonsense", RANKING, 4)
        assert verdict.permutation == (1, 2, 3, 4)
        assert verdict.repairs == ("unparseable",)

    def test_unparseable_selection_is_empty(self):
        verdict = verdict_from_text("total nonsense", SELECTION, 4)
        assert verdict.selected == ()
        assert verdict.repairs == ("unparseable",)
