"""Loading and validation of on-disk inputs: corpora, queries, runs, qrels, gold files.

Everything here is read once at pipeline start and treated as immutable
afterwards, so loaded structures are safe to share across concurrent
per-query pipelines.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Container, Iterable, Iterator, Mapping, Sequence, TypeVar

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


class Corpus:
    """Immutable doc_id -> Passage index."""

    def __init__(self, passages: Iterable[Passage] = ()):
        self._by_id: dict[str, Passage] = {}
        for p in passages:
            self._add(p)

    def _add(self, passage: Passage, where: str = "") -> None:
        # ``where`` locates the passage in its file for the duplicate message
        if passage.doc_id in self._by_id:
            raise LoadError(f"duplicate doc_id {passage.doc_id}{where}")
        self._by_id[passage.doc_id] = passage

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    def __getitem__(self, doc_id: str) -> Passage:
        return self._by_id[doc_id]


class Qrels:
    """Graded relevance judgments. Absent (query, doc) pairs have grade 0."""

    def __init__(self, grades: Mapping[str, Mapping[str, int]] | None = None):
        self._grades: dict[str, dict[str, int]] = {
            qid: dict(docs) for qid, docs in (grades or {}).items()
        }

    def grade(self, query_id: str, doc_id: str) -> int:
        return self._grades.get(query_id, {}).get(doc_id, 0)

    def grades_for(self, query_id: str) -> dict[str, int]:
        return dict(self._grades.get(query_id, {}))

    def positives(self, query_id: str, threshold: int = 1) -> set[str]:
        """Doc ids judged at or above ``threshold`` for the query."""
        return {d for d, g in self._grades.get(query_id, {}).items() if g >= threshold}

    def query_ids(self) -> list[str]:
        return list(self._grades)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._grades


# ---------------------------------------------------------------------------
# line readers: every line-oriented input file is read through one of these two


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
    missing field, an empty id or blank text is a ``LoadError`` naming the line."""
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
            rid, text, title = str(rid), str(rec["text"]), rec.get("title")
        if not rid:
            raise LoadError(f"{path}: empty {id_field} at line {lineno}")
        if not text.strip():
            raise LoadError(f"{path}: empty text for {id_field} {rid} at line {lineno}")
        yield lineno, rid, text, title


def load_corpus(path: str | Path, keep: Container[str] | None = None) -> Corpus:
    """Load a passage corpus from JSONL (``doc_id``/``_id``, ``text``, optional
    ``title``) or two/three column TSV (``doc_id<TAB>text[<TAB>title]``).

    With ``keep``, only passages whose doc_id is in ``keep`` are held; every
    line is still parsed and validated, so the file fails or loads exactly
    as it would in full.

    Raises:
        LoadError: on duplicate doc_id, missing field, or empty text, naming
            the line.
    """
    path = Path(path)
    corpus = Corpus()
    # duplicates among held passages are caught by the corpus, among the rest here
    dropped: set[str] = set()
    for lineno, doc_id, text, title in _id_text_records(path, "doc_id"):
        if keep is None or doc_id in keep:
            corpus._add(Passage(doc_id, text, title), f" at line {lineno} of {path}")
        elif doc_id in dropped:
            raise LoadError(f"duplicate doc_id {doc_id} at line {lineno} of {path}")
        else:
            dropped.add(doc_id)
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
    """
    path = Path(path)
    if max_depth < 1:
        raise LoadError(f"max_depth must be positive, got {max_depth}")
    raw: dict[str, dict[str, tuple[int, float]]] = {}
    for lineno, parts in delimited_rows(path, 6):
        qid, doc_id = parts[0], parts[2]
        try:
            rank = int(parts[3])
            score = float(parts[4])
        except ValueError as exc:
            raise LoadError(f"{path}: non-numeric rank/score at line {lineno}: {exc}") from exc
        entries = raw.get(qid)
        if entries is None:
            entries = raw[qid] = {}
        elif doc_id in entries:
            raise LoadError(f"{path}: duplicate (qid, docid) ({qid}, {doc_id}) at line {lineno}")
        entries[doc_id] = (rank, score)

    run: dict[str, CandidateList] = {}
    for qid, by_doc in raw.items():
        ordered = sorted(by_doc, key=lambda d: by_doc[d][0])
        if ordered != list(by_doc):
            logger.warning("run %s: line order disagrees with ranks for query %s", path, qid)
        ranks = [by_doc[d][0] for d in ordered]
        if ranks != list(range(1, len(ranks) + 1)):
            raise LoadError(f"{path}: non-contiguous rank sequence for query {qid}: {ranks[:8]}...")
        for prev, cur in zip(ordered, ordered[1:]):
            if by_doc[cur][1] > by_doc[prev][1]:
                logger.warning(
                    "run %s: score increases with rank for query %s (doc %s)", path, qid, cur
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


def load_qrels(path: str | Path) -> Qrels:
    """Load TREC 4-column qrels (``qid 0 docid grade``). Grade-0 lines are kept."""
    path = Path(path)
    qrels = Qrels()
    for lineno, parts in delimited_rows(path, 4):
        qid, doc_id = parts[0], parts[2]
        try:
            grade = int(parts[3])
        except ValueError as exc:
            raise LoadError(f"{path}: non-integer grade at line {lineno}") from exc
        if grade < 0:
            raise LoadError(f"{path}: negative grade at line {lineno}")
        grades = qrels._grades.get(qid)
        if grades is None:
            grades = qrels._grades[qid] = {}
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
        qid = str(qid)
        if qid in out:
            raise LoadError(f"{path}: duplicate query {qid} at line {lineno}")
        try:
            out[qid] = convert(value)
        except ValueError as exc:
            raise LoadError(f"{path}: {field} {exc} at line {lineno}") from exc
    return out


def _string_list(value: Any) -> list[str]:
    if not isinstance(value, list) or not value:
        raise ValueError("must be a non-empty list")
    return [str(v) for v in value]


def load_answers(path: str | Path) -> dict[str, list[str]]:
    """Load gold answers: JSONL ``{query_id, answers: [str, ...]}``."""
    return load_query_field(path, "answers", _string_list)


def load_evidence(path: str | Path) -> dict[str, set[str]]:
    """Load gold evidence: JSONL ``{query_id, evidence: [doc_id, ...]}``."""
    return load_query_field(path, "evidence", lambda v: set(_string_list(v)))


def evidence_from_qrels(qrels: Qrels, threshold: int = 1) -> dict[str, set[str]]:
    """Derive a gold evidence set from qrels entries at or above ``threshold``.

    Used when no dedicated evidence file is supplied; queries with no
    positive judgments are omitted.
    """
    out: dict[str, set[str]] = {}
    for qid in qrels.query_ids():
        positives = qrels.positives(qid, threshold)
        if positives:
            out[qid] = positives
    return out


def resolve_candidates(corpus: Corpus, candidates: CandidateList) -> list[Passage]:
    """Resolve a candidate list against the corpus, in rank order."""
    missing = [d for d in candidates.ids if d not in corpus]
    if missing:
        raise LoadError(
            f"query {candidates.query_id}: {len(missing)} candidate doc_ids not in corpus: "
            + ", ".join(missing[:20])
        )
    return [corpus[d] for d in candidates.ids]


def check_run_resolves(corpus: Corpus, run: Mapping[str, CandidateList]) -> None:
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

