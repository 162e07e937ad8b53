"""Judges and the parsers that turn raw judge text into verdicts.

Parsing is total: any unicode string yields a valid verdict for any window
size, with the fixes recorded as repair tags. Repairs are applied in a fixed
order (strip free text, keep first occurrence of each identifier, drop
out-of-range identifiers, append missing ones in ascending order) and the
tag list is reported in a fixed canonical order so fixtures are stable.

Every judge implements one method, ``judge(prompt) -> JudgeVerdict``: the
rendered prompt is the whole description of its window, and a judge reads
the task from ``prompt.kind`` and the window size from ``prompt.n``. Two
live judges share that interface: a remote OpenAI-compatible chat endpoint
and a qrels-backed oracle. A transcript judge answers from a file
of recorded replies and hands any prompt the file lacks to a live judge,
recording its reply; without one it only replays. Rerunning a command with
the same transcript therefore pays only for the windows not yet judged.
Judge calls are retried only on transport failure, never on content that
merely needed repair.
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
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence
from urllib.parse import urlsplit

from .corpus import LoadError, jsonl_line, jsonl_records
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
    """The judge could not be reached (or a transcript with no live judge had no entry)."""


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
    deduped = list(dict.fromkeys(ids))
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


@lru_cache(maxsize=1024)
def _label(i: int) -> str:
    # a verdict's identifiers are bounded by its window size, so few labels are ever made
    return f"[{i}]"


def canonical_ranking_text(permutation: Sequence[int]) -> str:
    return " > ".join(map(_label, permutation))


def canonical_selection_text(selected: Sequence[int], pseudo_answer: str | None = None) -> str:
    line = "Selected: " + (", ".join(map(_label, selected)) if selected else "none")
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

    def judge(self, prompt: RenderedPrompt) -> JudgeVerdict:
        """Answer the window ``prompt`` describes with a verdict of ``prompt.kind``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what the judge holds open; a no-op unless it owns a connection."""


def judge_window(judge: Judge, prompt: RenderedPrompt) -> JudgeVerdict:
    """Run one window through a judge and check that the verdict answers it.

    Raises ``ValueError`` for a verdict of another kind than ``prompt.kind``,
    or one that is not valid for the window's ``prompt.n`` passages.
    """
    verdict = judge.judge(prompt)
    if verdict.kind != prompt.kind:
        raise ValueError(f"judge answered a {prompt.kind} window with a {verdict.kind} verdict")
    verdict.validate(prompt.n)
    return verdict


class OracleJudge(Judge):
    """Qrels-backed deterministic judge, for tests and pipeline dry runs.

    Ranking sorts window positions by grade descending (ties keep window
    order). Selection keeps positions whose grade is at or above the
    threshold, in the same order. Raw text is emitted in canonical form so
    oracle runs can be recorded and replayed.
    """

    def __init__(self, qrels: Mapping[str, Mapping[str, int]], selection_threshold: int = 1):
        self.qrels = qrels
        self.selection_threshold = selection_threshold

    def judge(self, prompt: RenderedPrompt) -> JudgeVerdict:
        # grades[i] is the grade of identifier [i], 0 for a pair absent from the qrels;
        # the 0 in front only pads index 0
        by_doc = self.qrels.get(prompt.query_id, {})
        grades = [0, *map(by_doc.get, prompt.doc_ids, repeat(0))]
        # a reversed sort is still stable, so ties keep window order
        order = sorted(range(1, prompt.n + 1), key=grades.__getitem__, reverse=True)
        if prompt.kind == RANKING:
            permutation = tuple(order)
            return JudgeVerdict(
                kind=RANKING,
                raw_text=canonical_ranking_text(permutation),
                permutation=permutation,
            )
        selected = tuple(i for i in order if grades[i] >= self.selection_threshold)
        return JudgeVerdict(
            kind=SELECTION,
            raw_text=canonical_selection_text(selected),
            selected=selected,
        )


API_KEY_ENV_VARS = ("RAGSIFT_API_KEY", "OPENAI_API_KEY")

# the remote judge's transport policy; no flag sets it
ATTEMPTS = 4  # requests per window, the first included
TIMEOUT_S = 60.0  # socket timeout of each request
BACKOFF_S = 1.0  # the first sleep; each later one doubles, up to 30 s, all times 0.5-1.5


def _reply_content(status: int, data: bytes, error: str) -> str:
    """The message content of a reply below 500, or a fatal ``JudgeTransportError``."""
    if not 200 <= status < 300:
        raise JudgeTransportError(f"endpoint rejected request with {error}")
    try:
        content = json.loads(data)["choices"][0]["message"]["content"]
        if not isinstance(content, (str, type(None))):
            raise TypeError(f"message content is {type(content).__name__}, not a string")
        return content or ""
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise JudgeTransportError(f"malformed endpoint response: {exc}") from exc


class RemoteJudge(Judge):
    """Judge backed by an OpenAI-compatible /chat/completions endpoint.

    Without an ``api_key`` the key comes from the environment (the first
    non-blank of RAGSIFT_API_KEY and OPENAI_API_KEY), never from flags or
    config files, and it shows in no repr or log line.

    Requests go out through the stdlib's ``http.client``: each worker thread
    keeps one keep-alive connection (an ``HTTPSConnection``, with the ``ssl``
    default context and so the system CA store, for an ``https`` base URL),
    and ``close()`` closes every connection the judge opened. Proxy
    environment variables are not honoured and redirects are not followed.

    Each window gets up to ``ATTEMPTS`` requests, each with a ``TIMEOUT_S``
    socket timeout. Transport failures (``OSError``, timeouts included, and
    ``http.client.HTTPException``) and 5xx replies are retried after a sleep
    of ``BACKOFF_S``, doubled for each later retry up to 30 s, times a jitter
    of 0.5 to 1.5. A reused connection that the server closed while it sat
    idle is reopened once at once, without spending an attempt. Any other
    non-2xx reply (429 included) and a malformed 2xx reply, one whose message
    content is neither a string nor null included, are fatal. A response
    that parsed, even after repair, is never retried.
    """

    def __init__(self, base_url: str, model_name: str, api_key: str = ""):
        # imported here, so that oracle and transcript-only runs skip its start-up cost
        from http.client import HTTPConnection, HTTPSConnection

        url = urlsplit(base_url.rstrip("/") + "/chat/completions")
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(
                f"endpoint URL needs the form http(s)://host[:port][/path], got {base_url!r}"
            )
        connection = HTTPSConnection if url.scheme == "https" else HTTPConnection
        self.model_name = model_name
        environ = (os.environ.get(name, "").strip() for name in API_KEY_ENV_VARS)
        api_key = api_key or next(filter(None, environ), "")
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self._path = url.path
        self._new_connection = partial(connection, url.hostname, url.port, timeout=TIMEOUT_S)
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

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """POST on this thread's connection; return the status and the reply body.

        Raises ``OSError`` or ``http.client.HTTPException`` on transport
        failure, and closes the connection on any failure.
        """
        conn = self._connection()
        reused = conn.sock is not None
        try:
            try:
                conn.request("POST", self._path, body, self._headers)
                resp = conn.getresponse()
            except ConnectionError:
                # an idle keep-alive connection the server has since closed
                # fails before any status line: reopen it once, at once
                if not reused:
                    raise
                conn.close()
                conn.request("POST", self._path, body, self._headers)
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
        payload = {"model": self.model_name, "messages": messages, "temperature": 0.0}
        body = json.dumps(payload).encode("utf-8")

        for attempt in range(1, ATTEMPTS + 1):
            if attempt > 1:
                delay = min(30.0, BACKOFF_S * 2 ** (attempt - 2))
                time.sleep(delay * (0.5 + random.random()))
            try:
                status, data = self._post(body)
            except (OSError, HTTPException) as exc:
                error = str(exc)
            else:
                error = f"HTTP {status}: {data[:200].decode('utf-8', 'replace')}"
                if status < 500:
                    return _reply_content(status, data, error)
            logger.warning(
                "judge request failed (attempt %d/%d) for query %s: %s",
                attempt,
                ATTEMPTS,
                prompt.query_id,
                error,
            )
        raise JudgeTransportError(f"endpoint unreachable after {ATTEMPTS} attempts: {error}")

    def judge(self, prompt: RenderedPrompt) -> JudgeVerdict:
        return verdict_from_text(self._complete(prompt), prompt.kind, prompt.n)

    def close(self) -> None:
        with self._lock:
            for conn in self._connections:
                conn.close()


def prompt_sha256(prompt: RenderedPrompt) -> str:
    return hashlib.sha256(prompt.full_text().encode("utf-8")).hexdigest()


class TranscriptJudge(Judge):
    """Answers from a transcript of raw replies keyed by prompt hash; ``inner`` judges the rest.

    The transcript, JSONL ``{prompt_sha256, response_text}``, is read once
    here. A prompt it holds is answered from it. Any other prompt goes to
    ``inner``, and the raw reply is appended as soon as it is judged, so a
    rerun with the same transcript pays only for the windows it lacks. With
    no ``inner`` the file must exist, is never written, and a prompt it
    lacks raises ``JudgeTransportError``. Replies appended during this run
    are not looked up again, so a fresh recording has one line per window.
    """

    def __init__(self, path: str | Path, inner: Judge | None = None):
        self.inner = inner
        self._path = Path(path)
        self._lock = threading.Lock()
        self._responses: dict[str, str] = {}
        try:
            for lineno, rec in jsonl_records(self._path):
                digest, text = rec.get("prompt_sha256"), rec.get("response_text")
                if not isinstance(digest, str) or not isinstance(text, str):
                    raise LoadError(
                        f"{path}: missing prompt_sha256 or response_text at line {lineno}"
                    )
                self._responses[digest] = text
        except FileNotFoundError:
            if inner is None:
                raise

    def __len__(self) -> int:
        return len(self._responses)

    def judge(self, prompt: RenderedPrompt) -> JudgeVerdict:
        digest = prompt_sha256(prompt)
        text = self._responses.get(digest)
        if text is not None:
            return verdict_from_text(text, prompt.kind, prompt.n)
        if self.inner is None:
            raise JudgeTransportError(f"transcript has no response for prompt {digest[:12]}...")
        verdict = self.inner.judge(prompt)
        record = {"prompt_sha256": digest, "response_text": verdict.raw_text}
        with self._lock:
            # made here, not when the judge is built, so a run that fails first leaves no directory
            self._path.parent.mkdir(parents=True, exist_ok=True)
            with self._path.open("a", encoding="utf-8") as fh:
                fh.write(jsonl_line(record))
        return verdict

    def close(self) -> None:
        if self.inner is not None:
            self.inner.close()
