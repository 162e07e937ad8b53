"""Judges and the parsers that turn raw judge text into verdicts.

Parsing is total: any unicode string yields a valid verdict for any window
size, with the fixes recorded as repair tags. Repairs are applied in a fixed
order (strip free text, keep first occurrence of each identifier, drop
out-of-range identifiers, append missing ones in ascending order) and the
tag list is reported in a fixed canonical order so fixtures are stable.

Three judge families share one interface: a remote OpenAI-compatible chat
endpoint, a qrels-backed oracle, and a transcript replay for reproducible
tests. Judge calls are retried only on transport failure, never on content
that merely needed repair.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import re
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Sequence
from urllib.parse import urlsplit

from .corpus import LoadError, Qrels, jsonl_records
from .prompting import RenderedPrompt

if TYPE_CHECKING:
    from http.client import HTTPConnection

logger = logging.getLogger(__name__)

RANKING = "ranking"
SELECTION = "selection"

# repair tags, in the canonical reporting order
DEDUP = "dedup"
OUT_OF_RANGE_DROPPED = "out_of_range_dropped"
MISSING_APPENDED = "missing_appended"
FREE_TEXT_STRIPPED = "free_text_stripped"
UNPARSEABLE = "unparseable"

_TAG_ORDER = (DEDUP, OUT_OF_RANGE_DROPPED, MISSING_APPENDED, FREE_TEXT_STRIPPED, UNPARSEABLE)


class JudgeTransportError(RuntimeError):
    """The judge could not be reached (or a replay transcript had no entry)."""

    def __init__(self, message: str, query_id: str | None = None):
        super().__init__(message)
        self.query_id = query_id


@dataclass(frozen=True)
class JudgeVerdict:
    """Parsed judge output for one window.

    Ranking verdicts carry ``permutation``, an exact permutation of 1..n
    listing window-local identifiers from most to least relevant. Selection
    verdicts carry ``selected`` (unique identifiers in 1..n, in the order the
    judge emitted them) and optionally a ``pseudo_answer``.
    """

    kind: str
    raw_text: str
    permutation: tuple[int, ...] | None = None
    selected: tuple[int, ...] | None = None
    pseudo_answer: str | None = None
    repairs: tuple[str, ...] = ()

    def validate(self, n: int) -> None:
        if self.kind == RANKING:
            if self.permutation is None or sorted(self.permutation) != list(range(1, n + 1)):
                raise ValueError(f"ranking verdict is not a permutation of 1..{n}")
        elif self.kind == SELECTION:
            sel = self.selected if self.selected is not None else ()
            if len(set(sel)) != len(sel) or any(not 1 <= i <= n for i in sel):
                raise ValueError(f"selection verdict is not a unique subset of 1..{n}")
        else:
            raise ValueError(f"unknown verdict kind {self.kind!r}")


def _order_tags(tags: set[str]) -> tuple[str, ...]:
    return tuple(t for t in _TAG_ORDER if t in tags)


_BRACKETED = re.compile(r"\[(\d+)\]")
_BARE_INT = re.compile(r"\d+")
_SELECTED_LINE = re.compile(r"^[ \t]*selected[ \t]*:[ \t]*(.*)$", re.IGNORECASE | re.MULTILINE)


def _parse_int(run: str) -> int:
    # int() refuses absurdly long digit runs (CPython's conversion limit);
    # anything this long is out of range for every window anyway
    if len(run) > 1000:
        return 10**1000
    return int(run)


def _find_ids(pattern: re.Pattern[str], text: str) -> list[int]:
    return [_parse_int(run) for run in pattern.findall(text)]


def _dedup_and_bound(ids: list[int], n: int, tags: set[str]) -> list[int]:
    seen: set[int] = set()
    deduped = []
    for i in ids:
        if i not in seen:
            seen.add(i)
            deduped.append(i)
    if len(deduped) != len(ids):
        tags.add(DEDUP)
    bounded = [i for i in deduped if 1 <= i <= n]
    if len(bounded) != len(deduped):
        tags.add(OUT_OF_RANGE_DROPPED)
    return bounded


def parse_ranking(text: str, n: int) -> tuple[list[int], list[str]]:
    """Parse judge text into a permutation of 1..n, repairing as needed.

    Bracketed identifiers are the primary grammar; prose around them is fine.
    Without any brackets, a bare integer sequence is accepted and tagged
    ``free_text_stripped``. With no identifiers at all the identity
    permutation is returned, tagged ``unparseable``.
    """
    if n < 1:
        raise ValueError("window size must be >= 1")
    tags: set[str] = set()
    ids = _find_ids(_BRACKETED, text)
    if not ids:
        ids = _find_ids(_BARE_INT, text)
        if ids:
            tags.add(FREE_TEXT_STRIPPED)
    if not ids:
        return list(range(1, n + 1)), [UNPARSEABLE]

    kept = _dedup_and_bound(ids, n, tags)
    present = set(kept)
    missing = [i for i in range(1, n + 1) if i not in present]
    if missing:
        tags.add(MISSING_APPENDED)
    return kept + missing, list(_order_tags(tags))


def parse_selection(text: str, n: int) -> tuple[list[int], str | None, list[str]]:
    """Parse judge text into (selected identifiers, pseudo answer, repairs).

    The primary grammar is a final ``Selected:`` line; the pseudo answer is
    the text preceding it (or, if the judge answered after the line, the text
    following it). ``Selected: none`` or an empty identifier list is a clean
    empty selection. Without a ``Selected:`` line, bracketed identifiers are
    scavenged from the whole text and tagged ``free_text_stripped``; bare
    integers are not trusted there because prose answers contain numerals.
    """
    if n < 1:
        raise ValueError("window size must be >= 1")
    tags: set[str] = set()

    matches = list(_SELECTED_LINE.finditer(text))
    if matches:
        m = matches[-1]
        rest = m.group(1)
        before = text[: m.start()].strip()
        after = text[m.end() :].strip()
        pseudo = before or after or None

        ids = _find_ids(_BRACKETED, rest)
        if not ids and not re.search(r"\bnone\b", rest, re.IGNORECASE):
            bare = _find_ids(_BARE_INT, rest)
            if bare:
                ids = bare
                tags.add(FREE_TEXT_STRIPPED)
        selected = _dedup_and_bound(ids, n, tags)
        return selected, pseudo, list(_order_tags(tags))

    ids = _find_ids(_BRACKETED, text)
    if not ids:
        return [], None, [UNPARSEABLE]
    tags.add(FREE_TEXT_STRIPPED)
    selected = _dedup_and_bound(ids, n, tags)
    return selected, None, list(_order_tags(tags))


def canonical_ranking_text(permutation: Sequence[int]) -> str:
    return " > ".join(f"[{i}]" for i in permutation)


def canonical_selection_text(selected: Sequence[int], pseudo_answer: str | None = None) -> str:
    line = "Selected: " + (", ".join(f"[{i}]" for i in selected) if selected else "none")
    if pseudo_answer:
        return f"{pseudo_answer}\n{line}"
    return line


def canonical_text(verdict: JudgeVerdict) -> str:
    """Serialize a verdict back into its canonical judge-output form."""
    if verdict.kind == RANKING:
        return canonical_ranking_text(verdict.permutation or ())
    return canonical_selection_text(verdict.selected or (), verdict.pseudo_answer)


def verdict_from_text(text: str, kind: str, n: int) -> JudgeVerdict:
    """Parse raw judge text into a valid verdict for a window of size n."""
    if kind == RANKING:
        permutation, repairs = parse_ranking(text, n)
        return JudgeVerdict(
            kind=RANKING, raw_text=text, permutation=tuple(permutation), repairs=tuple(repairs)
        )
    if kind == SELECTION:
        selected, pseudo, repairs = parse_selection(text, n)
        return JudgeVerdict(
            kind=SELECTION,
            raw_text=text,
            selected=tuple(selected),
            pseudo_answer=pseudo,
            repairs=tuple(repairs),
        )
    raise ValueError(f"unknown judge kind {kind!r}")


class Judge:
    """Interface shared by all judges. Implementations must be thread-safe."""

    def judge(self, prompt: RenderedPrompt, kind: str, n: int) -> JudgeVerdict:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the judge holds open; a no-op unless it owns a connection."""


def judge_window(judge: Judge, prompt: RenderedPrompt, kind: str, n: int) -> JudgeVerdict:
    """Run one window through a judge and validate the verdict invariants."""
    if n < 1:
        raise ValueError("window size must be >= 1")
    if prompt.n != n:
        raise ValueError(f"prompt renders {prompt.n} passages but window size is {n}")
    verdict = judge.judge(prompt, kind, n)
    verdict.validate(n)
    return verdict


class OracleJudge(Judge):
    """Qrels-backed deterministic judge, for tests and pipeline dry runs.

    Ranking sorts window positions by grade descending (ties keep window
    order). Selection keeps positions whose grade is at or above the
    threshold, in the same order. Raw text is emitted in canonical form so
    oracle runs can be recorded and replayed.
    """

    def __init__(self, qrels: Qrels, selection_threshold: int = 1):
        self.qrels = qrels
        self.selection_threshold = selection_threshold

    def _grades(self, prompt: RenderedPrompt) -> list[int]:
        return [self.qrels.grade(prompt.query_id, d) for d in prompt.doc_ids]

    def judge(self, prompt: RenderedPrompt, kind: str, n: int) -> JudgeVerdict:
        grades = self._grades(prompt)
        order = sorted(range(n), key=lambda i: (-grades[i], i))
        if kind == RANKING:
            permutation = tuple(i + 1 for i in order)
            return JudgeVerdict(
                kind=RANKING,
                raw_text=canonical_ranking_text(permutation),
                permutation=permutation,
            )
        if kind == SELECTION:
            selected = tuple(i + 1 for i in order if grades[i] >= self.selection_threshold)
            return JudgeVerdict(
                kind=SELECTION,
                raw_text=canonical_selection_text(selected),
                selected=selected,
            )
        raise ValueError(f"unknown judge kind {kind!r}")


API_KEY_ENV_VARS = ("RAGSIFT_API_KEY", "OPENAI_API_KEY")


def api_key_from_env() -> str:
    for name in API_KEY_ENV_VARS:
        value = os.environ.get(name, "").strip()
        if value:
            return value
    return ""


@dataclass
class JudgeEndpointConfig:
    """Connection settings for an OpenAI-compatible chat-completions endpoint.

    The API key comes from the environment (RAGSIFT_API_KEY or
    OPENAI_API_KEY), never from flags or config files.
    """

    base_url: str
    model_name: str
    api_key: str = field(default="", repr=False)
    max_retries: int = 3
    timeout: float = 60.0
    max_in_flight: int = 4
    temperature: float = 0.0
    retry_base_delay: float = 0.5

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if not self.api_key:
            self.api_key = api_key_from_env()


class RemoteJudge(Judge):
    """Judge backed by an OpenAI-compatible /chat/completions endpoint.

    Requests go out through the stdlib's ``http.client``: each worker thread
    keeps one keep-alive connection (an ``HTTPSConnection``, with the ``ssl``
    default context and so the system CA store, for an ``https`` base URL),
    and ``close()`` closes every connection the judge opened. Proxy
    environment variables are not honoured and redirects are not followed.

    Bounds concurrent in-flight requests and retries transport failures
    (``OSError``, timeouts included, and ``http.client.HTTPException``) and
    5xx replies with exponential backoff plus jitter. A reused connection
    that the server closed while it sat idle is reopened once at once,
    without spending an attempt. Any other non-2xx reply (429 included) and a
    malformed 2xx reply are fatal. A response that parsed, even after repair,
    is never retried.
    """

    def __init__(self, config: JudgeEndpointConfig):
        # imported here, so that oracle and replay runs skip its start-up cost
        from http.client import HTTPConnection, HTTPSConnection

        url = urlsplit(config.base_url.rstrip("/") + "/chat/completions")
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(
                f"endpoint URL needs the form http(s)://host[:port][/path], got {config.base_url!r}"
            )
        connection = HTTPSConnection if url.scheme == "https" else HTTPConnection
        self.config = config
        self._path = url.path
        self._new_connection = partial(connection, url.hostname, url.port, timeout=config.timeout)
        self._gate = threading.BoundedSemaphore(config.max_in_flight)
        self._local = threading.local()
        self._connections: list[HTTPConnection] = []
        self._lock = threading.Lock()

    def _connection(self) -> HTTPConnection:
        """This thread's connection; ``http.client`` reopens it after a close."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._new_connection()
            with self._lock:
                self._connections.append(conn)
        return conn

    def _post(self, body: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """POST on this thread's connection; return the status and the reply body.

        Raises ``OSError`` or ``http.client.HTTPException`` on transport
        failure, and closes the connection on any failure.
        """
        conn = self._connection()
        reused = conn.sock is not None
        try:
            try:
                conn.request("POST", self._path, body, headers)
                resp = conn.getresponse()
            except ConnectionError:
                # an idle keep-alive connection the server has since closed
                # fails before any status line: reopen it once, at once
                if not reused:
                    raise
                conn.close()
                conn.request("POST", self._path, body, headers)
                resp = conn.getresponse()
            # on a reply marked will_close, getresponse() has already dropped
            # the socket, so the next request opens a new one
            with resp:
                return resp.status, resp.read()
        except BaseException:
            # whatever broke the exchange, the connection's state is unknown
            conn.close()
            raise

    def _complete(self, prompt: RenderedPrompt) -> str:
        from http.client import HTTPException

        messages = []
        if prompt.system:
            messages.append({"role": "system", "content": prompt.system})
        messages.append({"role": "user", "content": prompt.user})
        payload = {
            "model": self.config.model_name,
            "messages": messages,
            "temperature": self.config.temperature,
        }
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"

        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                delay = min(30.0, self.config.retry_base_delay * 2**attempt)
                time.sleep(delay * (0.5 + random.random()))
            try:
                with self._gate:
                    status, data = self._post(body, headers)
            except (OSError, HTTPException) as exc:
                last_error = exc
                logger.warning(
                    "judge request failed (attempt %d/%d) for query %s: %s",
                    attempt + 1,
                    self.config.max_retries + 1,
                    prompt.query_id,
                    exc,
                )
                continue
            snippet = data[:200].decode("utf-8", "replace")
            if status >= 500:
                last_error = RuntimeError(f"HTTP {status}: {snippet}")
                logger.warning(
                    "judge returned %d (attempt %d/%d) for query %s",
                    status,
                    attempt + 1,
                    self.config.max_retries + 1,
                    prompt.query_id,
                )
                continue
            if not 200 <= status < 300:
                raise JudgeTransportError(
                    f"endpoint rejected request with HTTP {status}: {snippet}",
                    query_id=prompt.query_id,
                )
            try:
                reply = json.loads(data)
                return reply["choices"][0]["message"]["content"] or ""
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise JudgeTransportError(
                    f"malformed endpoint response: {exc}", query_id=prompt.query_id
                ) from exc
        raise JudgeTransportError(
            f"endpoint unreachable after {self.config.max_retries + 1} attempts: {last_error}",
            query_id=prompt.query_id,
        )

    def judge(self, prompt: RenderedPrompt, kind: str, n: int) -> JudgeVerdict:
        text = self._complete(prompt)
        return verdict_from_text(text, kind, n)

    def close(self) -> None:
        with self._lock:
            for conn in self._connections:
                conn.close()


def prompt_sha256(prompt: RenderedPrompt) -> str:
    return hashlib.sha256(prompt.full_text().encode("utf-8")).hexdigest()


class ReplayJudge(Judge):
    """Replays recorded responses keyed by prompt hash from a transcript file."""

    def __init__(self, transcript_path: str | Path):
        self._responses: dict[str, str] = {}
        for lineno, rec in jsonl_records(Path(transcript_path)):
            digest, text = rec.get("prompt_sha256"), rec.get("response_text")
            if not isinstance(digest, str) or not isinstance(text, str):
                raise LoadError(
                    f"{transcript_path}: missing prompt_sha256 or response_text at line {lineno}"
                )
            self._responses[digest] = text

    def __len__(self) -> int:
        return len(self._responses)

    def judge(self, prompt: RenderedPrompt, kind: str, n: int) -> JudgeVerdict:
        digest = prompt_sha256(prompt)
        if digest not in self._responses:
            raise JudgeTransportError(
                f"transcript has no response for prompt {digest[:12]}...",
                query_id=prompt.query_id,
            )
        return verdict_from_text(self._responses[digest], kind, n)


class RecordingJudge(Judge):
    """Wraps another judge and appends (prompt hash, raw response) to a transcript."""

    def __init__(self, inner: Judge, transcript_path: str | Path):
        self.inner = inner
        self._path = Path(transcript_path)
        self._lock = threading.Lock()
        self._path.parent.mkdir(parents=True, exist_ok=True)

    def judge(self, prompt: RenderedPrompt, kind: str, n: int) -> JudgeVerdict:
        verdict = self.inner.judge(prompt, kind, n)
        record = {"prompt_sha256": prompt_sha256(prompt), "response_text": verdict.raw_text}
        with self._lock, self._path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
        return verdict

    def close(self) -> None:
        self.inner.close()
