"""Loading and validation of on-disk inputs: corpora, queries, runs, qrels, gold files.

Inputs load as plain dicts. A corpus maps doc_id to its ``Passage``. Qrels
map query_id to ``{doc_id: grade}``; a (query, doc) pair absent from them
has grade 0, so read a grade with ``qrels.get(qid, {}).get(doc_id, 0)``.

Each input is held once, in the form the windows read it. A run holds one
string per distinct doc id across its queries. The passage budget is applied
here and only here: a corpus loaded with ``passage_tokens`` holds each text
cut by ``truncate_text``, and ``prompting.render`` formats it as held. Given
the run's ``{id: id}`` dict as ``keep``, the corpus keys each passage by the
run's own id string.

Everything here is read once at pipeline start and treated as immutable
afterwards, so loaded structures are safe to share across concurrent
per-query pipelines.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Container, Iterator, Mapping, Sequence, TypeVar

logger = logging.getLogger(__name__)

T = TypeVar("T")


class LoadError(ValueError):
    """A file failed validation; the message names the offending line."""


@dataclass(frozen=True, slots=True)
class Passage:
    """A retrievable unit of text with an opaque identifier."""

    doc_id: str
    text: str
    title: str | None = None


@dataclass(frozen=True, slots=True)
class Query:
    query_id: str
    text: str


@dataclass(frozen=True)
class CandidateList:
    """Retrieval candidates for one query: doc ids in rank order."""

    query_id: str
    ids: tuple[str, ...]

    def doc_ids(self) -> list[str]:
        return list(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


# a token is approximated as this many characters
CHARS_PER_TOKEN = 4

# matches up to and including the last whitespace before ``endpos``
_THROUGH_LAST_WHITESPACE = re.compile(r".*\s", re.DOTALL)


def truncate_text(text: str, limit: int) -> str:
    """Truncate ``text`` to ``limit`` characters at a whitespace boundary.

    The cut point is the last whitespace before index ``limit``, so one at
    index ``limit`` itself is not used: ``truncate_text("ab cd ef", 5)`` is
    ``"ab"``. The rule stays as it is because prompt bytes key recorded
    transcripts. A first token over the limit, alone or preceded only by
    whitespace, falls back to a hard cut at ``limit``. Python slicing
    operates on code points, so no unicode scalar is ever split. A text of
    at most ``limit`` characters is returned as it is.
    """
    if len(text) <= limit:
        return text
    m = _THROUGH_LAST_WHITESPACE.match(text, 0, limit)
    kept = text[: m.end() - 1].rstrip() if m else ""
    return kept or text[:limit]


def check_passage_tokens(passage_tokens: int) -> None:
    """Refuse a per-passage budget below one token, naming ``passage_tokens``."""
    if passage_tokens < 1:
        raise ValueError(f"passage_tokens must be at least 1, got {passage_tokens}")


# ---------------------------------------------------------------------------
# line readers and the JSONL line writer: every line-oriented input file is read
# through one of the two readers, and every JSONL line is written by jsonl_line


def jsonl_records(path: Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line of a JSONL file.

    Raises:
        LoadError: on a line that is not UTF-8, not JSON or not a JSON
            object, naming the file and the line.
    """
    with path.open(encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise LoadError(f"{path}: invalid JSON at line {lineno}: {exc}") from exc
                if not isinstance(record, dict):
                    raise LoadError(f"{path}: line {lineno} is not a JSON object")
                yield lineno, record
        except UnicodeDecodeError:
            raise not_utf8(path) from None


_ENCODER = json.JSONEncoder(ensure_ascii=False, check_circular=False)


def jsonl_line(record: Any) -> str:
    """``record`` as one JSONL line: ``json.dumps(record, ensure_ascii=False)`` plus a newline.

    Every JSONL file the program writes goes through here. One encoder is
    shared, and it skips the circular-reference check: the records are trees
    built fresh from strings, numbers, lists, tuples and dicts. A tuple is
    written as a JSON array.
    """
    return _ENCODER.encode(record) + "\n"


def delimited_rows(
    path: Path, min_columns: int, sep: str | None = None
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, columns)`` for each non-blank line of a column file.

    A tab ``sep`` splits TSV (the newline is not part of the last column);
    the default ``None`` splits TREC files on runs of whitespace.

    Raises:
        LoadError: on a line that is not UTF-8 or a row with fewer than
            ``min_columns`` columns, naming the file and the line.
    """
    with path.open(encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                parts = (line.rstrip("\n") if sep else line).split(sep)
                if len(parts) < min_columns:
                    if not line.strip():
                        continue
                    raise LoadError(f"{path}: expected {min_columns} columns at line {lineno}")
                yield lineno, parts
        except UnicodeDecodeError:
            raise not_utf8(path) from None


def not_utf8(path: Path) -> LoadError:
    """The error for a file that is not UTF-8, naming the first line that does not decode.

    Text files are read in decoded chunks, so a decode error does not say
    which line it hit; only a failed read pays for this second, binary pass.
    """
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return LoadError(f"{path}: not UTF-8 at line {lineno}: {exc}")
    return LoadError(f"{path}: not UTF-8")


# ---------------------------------------------------------------------------
# loaders


def _id_text_records(path: Path, id_field: str) -> Iterator[tuple[int, str, str, str | None]]:
    """Yield ``(line number, id, text, title)`` from JSONL ``{<id_field>|_id,
    text, title?}`` or, for a ``.tsv`` file, ``id<TAB>text[<TAB>title]``. A
    missing, empty or mistyped field is a ``LoadError`` naming the line."""
    tsv = path.suffix.lower() == ".tsv"
    for lineno, rec in delimited_rows(path, 2, "\t") if tsv else jsonl_records(path):
        if tsv:
            rid, text, title = rec[0], rec[1], rec[2] if len(rec) > 2 and rec[2] else None
        else:
            rid = rec.get(id_field, rec.get("_id"))
            if rid is None:
                raise LoadError(f"{path}: missing {id_field} field at line {lineno}")
            if "text" not in rec:
                raise LoadError(f"{path}: missing text field at line {lineno}")
            text, title = rec["text"], rec.get("title")
            if not _is_id(rid):
                raise LoadError(f"{path}: {id_field} is not a string or integer at line {lineno}")
            if not isinstance(text, str) or not isinstance(title, (str, type(None))):
                raise LoadError(f"{path}: text or title is not a string at line {lineno}")
            rid = str(rid)
        if not rid:
            raise LoadError(f"{path}: empty {id_field} at line {lineno}")
        if not text.strip():
            raise LoadError(f"{path}: empty text for {id_field} {rid} at line {lineno}")
        yield lineno, rid, text, title


def load_corpus(
    path: str | Path, keep: Container[str] | None = None, passage_tokens: int | None = None
) -> dict[str, Passage]:
    """Load a passage corpus from JSONL (``doc_id``/``_id``, ``text``, optional
    ``title``) or two/three column TSV (``doc_id<TAB>text[<TAB>title]``).

    With ``keep``, only passages whose doc_id is in ``keep`` are held; every
    line is still parsed and validated, so the file fails or loads exactly
    as it would in full. A mapping ``keep`` names the id object to hold: a
    kept passage's doc_id is ``keep[doc_id]``, so the run's ``{id: id}``
    dict makes the corpus share the run's strings.

    With ``passage_tokens``, each held text is cut to that many tokens of
    ``CHARS_PER_TOKEN`` characters by ``truncate_text``; without, each
    passage keeps its full text.

    Raises:
        LoadError: on duplicate doc_id, missing field, or empty text, naming
            the line.
        ValueError: on a ``passage_tokens`` below 1.
    """
    path = Path(path)
    limit = None
    if passage_tokens is not None:
        check_passage_tokens(passage_tokens)
        limit = passage_tokens * CHARS_PER_TOKEN
    own_id = keep.__getitem__ if isinstance(keep, Mapping) else None
    corpus: dict[str, Passage] = {}
    dropped: set[str] = set()
    for lineno, doc_id, text, title in _id_text_records(path, "doc_id"):
        held = keep is None or doc_id in keep
        if doc_id in (corpus if held else dropped):
            raise LoadError(f"duplicate doc_id {doc_id} at line {lineno} of {path}")
        if not held:
            dropped.add(doc_id)
            continue
        if own_id is not None:
            doc_id = own_id(doc_id)
        if limit is not None and len(text) > limit:
            text = truncate_text(text, limit)
        corpus[doc_id] = Passage(doc_id, text, title)
    return corpus


def load_queries(path: str | Path) -> list[Query]:
    """Load queries from JSONL (``query_id``/``_id`` and ``text``) or TSV."""
    path = Path(path)
    queries: dict[str, Query] = {}
    for lineno, query_id, text, _ in _id_text_records(path, "query_id"):
        if query_id in queries:
            raise LoadError(f"{path}: duplicate query_id {query_id} at line {lineno}")
        queries[query_id] = Query(query_id, text)
    return list(queries.values())


def load_run(path: str | Path, max_depth: int = 100) -> dict[str, CandidateList]:
    """Load a TREC run file (``qid Q0 docid rank score tag``, whitespace separated).

    Entries are kept in rank order and truncated to ``max_depth`` per query.
    Ranks must be 1..N contiguous; when the file's line order disagrees with
    the ranks, the ranks win and a warning is logged. Score inversions
    (score increasing with rank) are warned about but the rank order wins.
    A doc id listed under several queries is one string shared by all.
    """
    path = Path(path)
    if max_depth < 1:
        raise LoadError(f"max_depth must be positive, got {max_depth}")
    # per query: doc_id -> rank, and the scores in line order
    raw: dict[str, tuple[dict[str, int], list[float]]] = {}
    ids: dict[str, str] = {}
    for lineno, parts in delimited_rows(path, 6):
        qid, doc_id = parts[0], parts[2]
        try:
            rank = int(parts[3])
            score = float(parts[4])
        except ValueError as exc:
            raise LoadError(f"{path}: non-numeric rank/score at line {lineno}: {exc}") from exc
        entries = raw.get(qid)
        if entries is None:
            entries = raw[qid] = ({}, [])
        elif doc_id in entries[0]:
            raise LoadError(f"{path}: duplicate (qid, docid) ({qid}, {doc_id}) at line {lineno}")
        entries[0][ids.setdefault(doc_id, doc_id)] = rank
        entries[1].append(score)

    run: dict[str, CandidateList] = {}
    for qid, (ranks, scores) in raw.items():
        ordered = sorted(ranks, key=ranks.__getitem__)
        if ordered != list(ranks):
            logger.warning("run %s: line order disagrees with ranks for query %s", path, qid)
        ranked = [ranks[d] for d in ordered]
        if ranked != list(range(1, len(ranked) + 1)):
            raise LoadError(f"{path}: non-contiguous rank sequence for query {qid}: {ranked[:8]}...")
        # the ranks are 1..N, so each one places its line's score
        by_rank = [0.0] * len(scores)
        for rank, score in zip(ranks.values(), scores):
            by_rank[rank - 1] = score
        for i in range(1, len(by_rank)):
            if by_rank[i] > by_rank[i - 1]:
                logger.warning(
                    "run %s: score increases with rank for query %s (doc %s)", path, qid, ordered[i]
                )
                break
        run[qid] = CandidateList(query_id=qid, ids=tuple(ordered[:max_depth]))
    return run


@lru_cache(maxsize=16)
def _rank_score_columns(n: int) -> tuple[str, ...]:
    """The rank and score columns of ranks 1..n, each with its separating spaces."""
    return tuple(f" {rank} {1.0 / rank:g} " for rank in range(1, n + 1))


def trec_lines(query_id: str, doc_ids: Sequence[str], tag: str) -> str:
    """One query's ranking as TREC 6-column lines, scoring 1/rank."""
    head, tail = f"{query_id} Q0 ", f"{tag}\n"
    columns = _rank_score_columns(len(doc_ids))
    return "".join([head + doc_id + cols + tail for doc_id, cols in zip(doc_ids, columns)])


def load_qrels(path: str | Path) -> dict[str, dict[str, int]]:
    """Load TREC 4-column qrels (``qid 0 docid grade``). Grade-0 lines are kept."""
    path = Path(path)
    qrels: dict[str, dict[str, int]] = {}
    for lineno, parts in delimited_rows(path, 4):
        qid, doc_id = parts[0], parts[2]
        try:
            grade = int(parts[3])
        except ValueError as exc:
            raise LoadError(f"{path}: non-integer grade at line {lineno}") from exc
        if grade < 0:
            raise LoadError(f"{path}: negative grade at line {lineno}")
        grades = qrels.get(qid)
        if grades is None:
            grades = qrels[qid] = {}
        elif doc_id in grades:
            raise LoadError(f"{path}: duplicate qrels pair ({qid}, {doc_id}) at line {lineno}")
        grades[doc_id] = grade
    return qrels


def load_query_field(path: str | Path, field: str, convert: Callable[[Any], T]) -> dict[str, T]:
    """Read JSONL ``{query_id, <field>}`` records into ``query_id -> convert(value)``.

    Raises:
        LoadError: on a missing field, a second record for one query, or a
            value ``convert`` rejects with ``ValueError``, naming the line.
    """
    path = Path(path)
    out: dict[str, T] = {}
    for lineno, rec in jsonl_records(path):
        qid, value = rec.get("query_id"), rec.get(field)
        if qid is None or value is None:
            raise LoadError(f"{path}: missing query_id or {field} at line {lineno}")
        if not _is_id(qid):
            raise LoadError(f"{path}: query_id is not a string or integer at line {lineno}")
        qid = str(qid)
        if qid in out:
            raise LoadError(f"{path}: duplicate query {qid} at line {lineno}")
        try:
            out[qid] = convert(value)
        except ValueError as exc:
            raise LoadError(f"{path}: {field} {exc} at line {lineno}") from exc
    return out


def _is_id(value: Any) -> bool:
    """Whether a JSON value may be an id: a string or an integer, not a boolean."""
    return isinstance(value, (str, int)) and not isinstance(value, bool)


def id_list(value: Any) -> list[str]:
    """A JSON list of strings and integers, as strings; anything else is a ``ValueError``."""
    if not isinstance(value, list):
        raise ValueError("must be a list")
    if not all(map(_is_id, value)):
        raise ValueError("has an entry that is not a string or integer")
    return [str(v) for v in value]


def _string_list(value: Any) -> list[str]:
    if value == []:
        raise ValueError("must be a non-empty list")
    return id_list(value)


def load_answers(path: str | Path) -> dict[str, list[str]]:
    """Load gold answers: JSONL ``{query_id, answers: [str, ...]}``."""
    return load_query_field(path, "answers", _string_list)


def load_evidence(path: str | Path) -> dict[str, set[str]]:
    """Load gold evidence: JSONL ``{query_id, evidence: [doc_id, ...]}``."""
    return load_query_field(path, "evidence", lambda v: set(_string_list(v)))


def evidence_from_qrels(
    qrels: Mapping[str, Mapping[str, int]], threshold: int = 1
) -> dict[str, set[str]]:
    """Derive a gold evidence set from qrels entries at or above ``threshold``.

    Used when no dedicated evidence file is supplied; queries with no
    positive judgments are omitted.
    """
    return {
        qid: positives
        for qid, grades in qrels.items()
        if (positives := {d for d, g in grades.items() if g >= threshold})
    }


def resolve_candidates(corpus: Mapping[str, Passage], candidates: CandidateList) -> list[Passage]:
    """Resolve a candidate list against the corpus, in rank order."""
    missing = [d for d in candidates.ids if d not in corpus]
    if missing:
        raise LoadError(
            f"query {candidates.query_id}: {len(missing)} candidate doc_ids not in corpus: "
            + ", ".join(missing[:20])
        )
    return [corpus[d] for d in candidates.ids]


def check_run_resolves(corpus: Mapping[str, Passage], run: Mapping[str, CandidateList]) -> None:
    """Fail fast before any judging if any candidate doc_id is unresolvable.

    Collects every unresolved id across all queries so one pass reports the
    full damage.
    """
    unresolved = [f"{cl.query_id}:{d}" for cl in run.values() for d in cl.ids if d not in corpus]
    if unresolved:
        raise LoadError(
            f"{len(unresolved)} candidate doc_ids do not resolve in the corpus: "
            + ", ".join(unresolved[:50])
        )

