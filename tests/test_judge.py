from __future__ import annotations

import contextlib
import json
import os
import socket
import subprocess
import sys
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ragsift
from ragsift.cli import main
from ragsift.corpus import Query
from ragsift.judge import (
    API_KEY_ENV_VARS,
    RANKING,
    SELECTION,
    JudgeEndpointConfig,
    JudgeTransportError,
    JudgeVerdict,
    OracleJudge,
    RemoteJudge,
    TranscriptJudge,
    canonical_text,
    judge_window,
    parse_ranking,
    parse_selection,
    verdict_from_text,
)
from ragsift.prompting import default_templates, render
from tests.conftest import QUERY, RawTextJudge, make_passages, make_qrels


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


def _prompt(n=3, kind=RANKING):
    ranking, selection = default_templates()
    template = ranking if kind == RANKING else selection
    return render(template, Query("q1", "q text"), make_passages(n))


class TestOracleJudge:
    def test_ranking_sorts_by_grade_desc_ties_by_position(self):
        qrels = make_qrels("q1", {"d1": 0, "d2": 3, "d3": 1})
        verdict = judge_window(OracleJudge(qrels), _prompt(3))
        assert verdict.permutation == (2, 3, 1)

    def test_selection_threshold_filter(self):
        qrels = make_qrels("q1", {"d1": 0, "d2": 3, "d3": 1})
        verdict = judge_window(OracleJudge(qrels), _prompt(3, kind=SELECTION))
        assert verdict.selected == (2, 3)

    def test_selection_respects_custom_threshold(self):
        qrels = make_qrels("q1", {"d1": 0, "d2": 3, "d3": 1})
        judge = OracleJudge(qrels, selection_threshold=2)
        verdict = judge_window(judge, _prompt(3, kind=SELECTION))
        assert verdict.selected == (2,)

    def test_deterministic(self):
        qrels = make_qrels("q1", {"d1": 1, "d2": 2, "d3": 2})
        judge = OracleJudge(qrels)
        first = judge_window(judge, _prompt(3))
        for _ in range(5):
            assert judge_window(judge, _prompt(3)) == first


class TestReplayAndRecording:
    def test_record_then_replay_identical(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        qrels = make_qrels("q1", {"d1": 2, "d2": 0, "d3": 1})
        recorder = TranscriptJudge(transcript, OracleJudge(qrels))
        prompt = _prompt(3)
        original = judge_window(recorder, prompt)

        replay = TranscriptJudge(transcript)
        assert len(replay) == 1
        assert judge_window(replay, prompt) == original

    def test_replay_miss_is_transport_error(self, tmp_path):
        transcript = tmp_path / "empty.jsonl"
        transcript.write_text("", encoding="utf-8")
        with pytest.raises(JudgeTransportError):
            judge_window(TranscriptJudge(transcript), _prompt(3))

    def test_held_prompt_skips_inner_and_new_prompt_is_appended(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        recorder = TranscriptJudge(transcript, RawTextJudge(texts=["[2] > [1] > [3]"]))
        judge_window(recorder, _prompt(3))
        recorded = transcript.read_bytes()
        inner = RawTextJudge(texts=["[2] > [1]"])
        resumed = TranscriptJudge(transcript, inner)
        assert judge_window(resumed, _prompt(3)).permutation == (2, 1, 3)
        assert inner.calls == 0 and transcript.read_bytes() == recorded
        assert judge_window(resumed, _prompt(2)).permutation == (2, 1)
        assert inner.calls == 1
        assert transcript.read_bytes().startswith(recorded)
        assert len(transcript.read_text(encoding="utf-8").splitlines()) == 2

    def test_replies_of_this_run_are_not_looked_up_again(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        inner = RawTextJudge(texts=["[1] > [2] > [3]"])
        recorder = TranscriptJudge(transcript, inner)
        for _ in range(2):
            judge_window(recorder, _prompt(3))
        assert inner.calls == 2
        assert len(transcript.read_text(encoding="utf-8").splitlines()) == 2

    def test_missing_file_is_an_error_only_without_inner(self, tmp_path):
        transcript = tmp_path / "new" / "t.jsonl"
        with pytest.raises(FileNotFoundError):
            TranscriptJudge(transcript)
        recorder = TranscriptJudge(transcript, RawTextJudge(texts=["[1] > [2] > [3]"]))
        assert len(recorder) == 0 and not transcript.exists()
        judge_window(recorder, _prompt(3))
        assert len(TranscriptJudge(transcript)) == 1


class _ChatHandler(BaseHTTPRequestHandler):
    """Scripted chat endpoint; a ``None`` entry in ``responses`` hangs until the test ends.

    Each other entry is (status, message content); the content may be any JSON value.
    """

    responses: list[tuple[int, object] | None] = []
    requests_seen: list[dict] = []
    # (path, Authorization header) per request
    requests_meta: list[tuple[str, str | None]] = []
    # one per TCP connection accepted
    sockets: list[socket.socket] = []
    # the connections close_idle shut down, whose handlers may fail reading
    shut_down: list[socket.socket] = []
    release = threading.Event()
    lock = threading.Lock()

    def setup(self):
        super().setup()
        with self.lock:
            self.sockets.append(self.connection)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        with self.lock:
            self.requests_seen.append(body)
            self.requests_meta.append((self.path, self.headers.get("Authorization")))
            reply = self.responses.pop(0) if self.responses else (200, "[1] > [2] > [3]")
        if reply is None:
            self.release.wait(10)
            self.close_connection = True
            return
        status, text = reply
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


class _KeepAliveChatHandler(_ChatHandler):
    """HTTP/1.1 variant: connections stay open between requests."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 10  # an idle connection the client never closes ends the handler thread

    @classmethod
    def close_idle(cls):
        """Close every connection from the server side, as an idle timeout would."""
        with cls.lock:
            for sock in cls.sockets:
                cls.shut_down.append(sock)
                with contextlib.suppress(OSError):
                    sock.shutdown(socket.SHUT_RDWR)


class _CheckedServer(ThreadingHTTPServer):
    """Records the handler errors ``socketserver`` would only print."""

    def __init__(self, handler):
        super().__init__(("127.0.0.1", 0), handler)
        self.errors: list[str] = []

    def handle_error(self, request, client_address):
        if request not in self.RequestHandlerClass.shut_down:
            self.errors.append(traceback.format_exc())


@contextlib.contextmanager
def _serving(handler):
    """Serve ``handler`` on a local port; a handler error fails the test that caused it."""
    handler.responses, handler.requests_seen, handler.requests_meta = [], [], []
    handler.sockets, handler.shut_down, handler.release = [], [], threading.Event()
    server = _CheckedServer(handler)
    # a short poll interval keeps shutdown() from waiting out the default half second
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1"
    finally:
        handler.release.set()
        server.shutdown()
        server.server_close()
        thread.join(10)
    if server.errors:
        pytest.fail("stub server handler raised:\n" + "\n".join(server.errors))


@pytest.fixture
def chat_server():
    with _serving(_ChatHandler) as url:
        yield url, _ChatHandler


@pytest.fixture
def keepalive_server():
    with _serving(_KeepAliveChatHandler) as url:
        yield url, _KeepAliveChatHandler


@pytest.fixture
def remote_judge():
    """Build RemoteJudges from endpoint settings and close their connections after the test."""
    judges = []

    def build(**config):
        judges.append(RemoteJudge(JudgeEndpointConfig(**config)))
        return judges[-1]

    yield build
    for judge in judges:
        judge.close()


class TestRemoteJudge:
    def test_payload_and_parse(self, chat_server, remote_judge):
        url, handler = chat_server
        handler.responses = [(200, "I think [2] > [1] > [3]")]
        judge = remote_judge(base_url=url, model_name="m1", api_key="k")
        verdict = judge_window(judge, _prompt(3))
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
        verdict = judge_window(judge, _prompt(3))
        assert verdict.permutation == (3, 2, 1)
        assert len(handler.requests_seen) == 2

    def test_repaired_content_is_not_retried(self, chat_server, remote_judge):
        url, handler = chat_server
        handler.responses = [(200, "garbled 2 then 1 then 3")]
        judge = remote_judge(base_url=url, model_name="m1", api_key="k")
        verdict = judge_window(judge, _prompt(3))
        assert verdict.permutation == (2, 1, 3)
        assert "free_text_stripped" in verdict.repairs
        assert len(handler.requests_seen) == 1

    def test_exhausted_retries_raise_transport_error(self, chat_server, remote_judge):
        url, handler = chat_server
        handler.responses = [(500, "x"), (500, "x"), (500, "x")]
        judge = remote_judge(
            base_url=url, model_name="m1", api_key="k", max_retries=2, retry_base_delay=0.01
        )
        with pytest.raises(JudgeTransportError):
            judge_window(judge, _prompt(3))

    @pytest.mark.parametrize(
        "content", [7, ["[1] > [2] > [3]"], {"text": "[1] > [2] > [3]"}], ids=["int", "list", "dict"]
    )
    def test_non_string_content_is_malformed_and_not_retried(
        self, chat_server, remote_judge, content
    ):
        url, handler = chat_server
        handler.responses = [(200, content)]
        judge = remote_judge(
            base_url=url, model_name="m1", api_key="k", max_retries=2, retry_base_delay=0.01
        )
        with pytest.raises(JudgeTransportError, match="malformed endpoint response"):
            judge_window(judge, _prompt(3))
        assert len(handler.requests_seen) == 1

    def test_null_content_reads_as_empty_text(self, chat_server, remote_judge):
        url, handler = chat_server
        handler.responses = [(200, None)]
        judge = remote_judge(base_url=url, model_name="m1", api_key="k")
        verdict = judge_window(judge, _prompt(3))
        assert verdict.raw_text == ""
        assert verdict.repairs == ("unparseable",)

    def test_unreachable_endpoint(self, remote_judge):
        judge = remote_judge(
            base_url="http://127.0.0.1:1/v1", model_name="m", api_key="k", max_retries=0
        )
        with pytest.raises(JudgeTransportError):
            judge_window(judge, _prompt(2))

    def test_recording_close_releases_pooled_connections(
        self, keepalive_server, remote_judge, tmp_path
    ):
        url, _ = keepalive_server
        judge = remote_judge(base_url=url, model_name="m1", api_key="k")
        recorder = TranscriptJudge(tmp_path / "t.jsonl", judge)
        workers = [
            threading.Thread(target=judge_window, args=(recorder, _prompt(3)))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(10)
            assert not worker.is_alive()
        assert len(judge._connections) == 2
        assert all(conn.sock is not None for conn in judge._connections)
        recorder.close()
        assert all(conn.sock is None for conn in judge._connections)


class TestKeepAliveTransport:
    def test_sequential_calls_share_one_connection(self, keepalive_server, remote_judge):
        url, handler = keepalive_server
        judge = remote_judge(base_url=url, model_name="m1", api_key="k")
        for _ in range(5):
            assert judge_window(judge, _prompt(3)).permutation == (1, 2, 3)
        assert len(handler.requests_seen) == 5
        assert len(handler.sockets) == 1

    def test_each_thread_keeps_one_connection_under_contention(
        self, keepalive_server, remote_judge
    ):
        url, handler = keepalive_server
        judge = remote_judge(base_url=url, model_name="m1", api_key="k")
        n_threads, calls = 8, 5
        start = threading.Barrier(n_threads)
        errors = []

        def work():
            try:
                start.wait(10)
                for _ in range(calls):
                    judge_window(judge, _prompt(3))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(n_threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert len(handler.requests_seen) == n_threads * calls
        assert len(judge._connections) == len(handler.sockets) == n_threads

    def test_idle_close_reconnects_at_once(self, keepalive_server, remote_judge):
        url, handler = keepalive_server
        # any backoff sleep would take at least 5 s
        judge = remote_judge(base_url=url, model_name="m1", api_key="k", retry_base_delay=5.0)
        judge_window(judge, _prompt(3))
        handler.close_idle()
        handler.responses = [(200, "[2] > [1] > [3]")]
        started = time.monotonic()
        verdict = judge_window(judge, _prompt(3))
        assert time.monotonic() - started < 2.0
        assert verdict.permutation == (2, 1, 3)
        assert len(handler.requests_seen) == 2
        assert len(handler.sockets) == 2

    def test_hang_past_timeout_spends_every_attempt(self, keepalive_server, remote_judge):
        url, handler = keepalive_server
        judge = remote_judge(
            base_url=url,
            model_name="m1",
            api_key="k",
            timeout=0.2,
            max_retries=2,
            retry_base_delay=0.01,
        )
        # a first call leaves the connection open, so the first hang hits a reused one
        judge_window(judge, _prompt(3))
        handler.responses = [None, None, None]
        with pytest.raises(JudgeTransportError, match="after 3 attempts"):
            judge_window(judge, _prompt(3))
        assert len(handler.requests_seen) == 1 + 3

    def test_base_url_path_prefix_and_trailing_slash(self, keepalive_server, remote_judge):
        url, handler = keepalive_server
        base = url.removesuffix("/v1") + "/prefix/v1/"
        judge = remote_judge(base_url=base, model_name="m1", api_key="k")
        judge_window(judge, _prompt(3))
        assert handler.requests_meta[0][0] == "/prefix/v1/chat/completions"

    @pytest.mark.parametrize("api_key,expected", [("k", "Bearer k"), ("", None)])
    def test_authorization_only_with_api_key(
        self, keepalive_server, remote_judge, monkeypatch, api_key, expected
    ):
        for name in API_KEY_ENV_VARS:
            monkeypatch.delenv(name, raising=False)
        url, handler = keepalive_server
        judge = remote_judge(base_url=url, model_name="m1", api_key=api_key)
        judge_window(judge, _prompt(3))
        assert handler.requests_meta[0][1] == expected


@pytest.mark.parametrize("base_url", ["localhost:8000/v1", "ftp://host/v1", "http:///v1"])
def test_endpoint_url_needs_http_scheme_and_host(base_url):
    with pytest.raises(ValueError, match="http"):
        RemoteJudge(JudgeEndpointConfig(base_url=base_url, model_name="m", api_key="k"))


def test_cli_non_string_content_aborts_only_its_query(
    chat_server, mini_dir, tmp_path, capsys, caplog
):
    url, handler = chat_server
    # the first request judges q001's only window; every later one gets a clean reply
    handler.responses = [(200, 7)]
    out = tmp_path / "out"
    code = main(
        [
            "select",
            *("--corpus", str(mini_dir / "corpus.jsonl"), "--queries", str(mini_dir / "queries.jsonl")),
            *("--run", str(mini_dir / "run.trec"), "--depth", "4", "--w", "4", "--out", str(out)),
            *("--judge", "endpoint", "--endpoint-url", url, "--model", "m1"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "aborted queries (1): q001" in err
    assert "Traceback" not in err
    assert "q001 aborted: malformed endpoint response" in caplog.text
    assert len((out / "selected.jsonl").read_text(encoding="utf-8").splitlines()) == 19


def test_cli_and_remote_judge_do_not_import_requests():
    """The judge transport is stdlib only; keep ``requests`` from creeping back."""
    code = (
        "import sys, ragsift.cli\n"
        "from ragsift.judge import JudgeEndpointConfig, RemoteJudge\n"
        "config = JudgeEndpointConfig(base_url='http://127.0.0.1:1/v1', model_name='m')\n"
        "RemoteJudge(config).close()\n"
        "assert 'requests' not in sys.modules, 'requests was imported'\n"
    )
    src = str(Path(ragsift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


class TestDegradation:
    def test_unparseable_ranking_is_identity(self):
        verdict = verdict_from_text("total nonsense", RANKING, 4)
        assert verdict.permutation == (1, 2, 3, 4)
        assert verdict.repairs == ("unparseable",)

    def test_unparseable_selection_is_empty(self):
        verdict = verdict_from_text("total nonsense", SELECTION, 4)
        assert verdict.selected == ()
        assert verdict.repairs == ("unparseable",)
