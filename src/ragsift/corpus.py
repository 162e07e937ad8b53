"""Loading and validation of on-disk inputs: corpora, queries, runs, qrels, gold files.

Everything here is read once at pipeline start and treated as immutable
afterwards, so loaded structures are safe to share across concurrent
per-query pipelines.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

logger = logging.getLogger(__name__)


class LoadError(ValueError):
    """A file failed validation; the message names the offending line."""


@dataclass(frozen=True)
class Passage:
    """A retrievable unit of text with an opaque identifier."""

    doc_id: str
    text: str
    title: str | None = None


@dataclass(frozen=True)
class Query:
    query_id: str
    text: str


@dataclass(frozen=True)
class CandidateEntry:
    doc_id: str
    score: float
    rank: int


@dataclass(frozen=True)
class CandidateList:
    """Ordered retrieval candidates for one query, ranks 1..N contiguous."""

    query_id: str
    entries: tuple[CandidateEntry, ...]

    def doc_ids(self) -> list[str]:
        return [e.doc_id for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


class Corpus:
    """Immutable doc_id -> Passage index."""

    def __init__(self, passages: Iterable[Passage]):
        self._by_id: dict[str, Passage] = {}
        for p in passages:
            if p.doc_id in self._by_id:
                raise LoadError(f"duplicate doc_id {p.doc_id}")
            self._by_id[p.doc_id] = p

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    def __getitem__(self, doc_id: str) -> Passage:
        return self._by_id[doc_id]

    def get(self, doc_id: str) -> Passage | None:
        return self._by_id.get(doc_id)

    def __iter__(self) -> Iterator[Passage]:
        return iter(self._by_id.values())


class Qrels:
    """Graded relevance judgments. Absent (query, doc) pairs have grade 0."""

    def __init__(self, grades: Mapping[str, Mapping[str, int]] | None = None):
        self._grades: dict[str, dict[str, int]] = {
            qid: dict(docs) for qid, docs in (grades or {}).items()
        }

    def grade(self, query_id: str, doc_id: str) -> int:
        return self._grades.get(query_id, {}).get(doc_id, 0)

    def set_grade(self, query_id: str, doc_id: str, grade: int) -> None:
        if grade < 0:
            raise LoadError(f"negative grade {grade} for ({query_id}, {doc_id})")
        self._grades.setdefault(query_id, {})[doc_id] = grade

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
# loaders


def _jsonl_records(path: Path) -> Iterator[tuple[int, dict]]:
    with path.open(encoding="utf-8") as fh:
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


def _infer_format(path: Path, format: str | None) -> str:
    if format is not None:
        if format not in ("jsonl", "tsv"):
            raise LoadError(f"unknown corpus format {format!r} (expected jsonl or tsv)")
        return format
    return "tsv" if path.suffix.lower() == ".tsv" else "jsonl"


def load_corpus(path: str | Path, format: str | None = None) -> Corpus:
    """Load a passage corpus from JSONL (``doc_id``/``_id``, ``text``, optional
    ``title``) or two/three column TSV (``doc_id<TAB>text[<TAB>title]``).

    Raises:
        LoadError: on duplicate doc_id, missing field, or empty text, naming
            the line.
    """
    path = Path(path)
    fmt = _infer_format(path, format)
    passages: list[Passage] = []
    seen: set[str] = set()

    def _add(doc_id: str, text: str, title: str | None, lineno: int) -> None:
        if not doc_id:
            raise LoadError(f"{path}: empty doc_id at line {lineno}")
        if doc_id in seen:
            raise LoadError(f"duplicate doc_id {doc_id} at line {lineno}")
        if not text.strip():
            raise LoadError(f"{path}: empty text for doc_id {doc_id} at line {lineno}")
        seen.add(doc_id)
        passages.append(Passage(doc_id=doc_id, text=text, title=title))

    if fmt == "jsonl":
        for lineno, rec in _jsonl_records(path):
            doc_id = rec.get("doc_id", rec.get("_id"))
            if doc_id is None:
                raise LoadError(f"{path}: missing doc_id field at line {lineno}")
            if "text" not in rec:
                raise LoadError(f"{path}: missing text field at line {lineno}")
            _add(str(doc_id), str(rec["text"]), rec.get("title"), lineno)
    else:
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) < 2:
                    raise LoadError(f"{path}: missing text field at line {lineno}")
                title = parts[2] if len(parts) > 2 and parts[2] else None
                _add(parts[0], parts[1], title, lineno)

    return Corpus(passages)


def load_queries(path: str | Path) -> list[Query]:
    """Load queries from JSONL (``query_id``/``_id`` and ``text``) or TSV."""
    path = Path(path)
    queries: list[Query] = []
    seen: set[str] = set()

    def _add(query_id: str, text: str, lineno: int) -> None:
        if query_id in seen:
            raise LoadError(f"duplicate query_id {query_id} at line {lineno}")
        seen.add(query_id)
        queries.append(Query(query_id=query_id, text=text))

    if path.suffix.lower() == ".tsv":
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) < 2:
                    raise LoadError(f"{path}: missing text field at line {lineno}")
                _add(parts[0], parts[1], lineno)
    else:
        for lineno, rec in _jsonl_records(path):
            qid = rec.get("query_id", rec.get("_id"))
            if qid is None or "text" not in rec:
                raise LoadError(f"{path}: missing query_id or text at line {lineno}")
            _add(str(qid), str(rec["text"]), lineno)
    return queries


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
    raw: dict[str, list[CandidateEntry]] = {}
    seen_pairs: set[tuple[str, str]] = set()

    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) < 6:
                raise LoadError(f"{path}: expected 6 columns at line {lineno}")
            qid, _, doc_id, rank_s, score_s = parts[0], parts[1], parts[2], parts[3], parts[4]
            try:
                rank = int(rank_s)
                score = float(score_s)
            except ValueError as exc:
                raise LoadError(
                    f"{path}: non-numeric rank/score at line {lineno}: {exc}"
                ) from exc
            if (qid, doc_id) in seen_pairs:
                raise LoadError(f"{path}: duplicate (qid, docid) ({qid}, {doc_id}) at line {lineno}")
            seen_pairs.add((qid, doc_id))
            raw.setdefault(qid, []).append(CandidateEntry(doc_id=doc_id, score=score, rank=rank))

    run: dict[str, CandidateList] = {}
    for qid, entries in raw.items():
        ordered = sorted(entries, key=lambda e: e.rank)
        if ordered != entries:
            logger.warning("run %s: line order disagrees with ranks for query %s", path, qid)
        ranks = [e.rank for e in ordered]
        if ranks != list(range(1, len(ranks) + 1)):
            raise LoadError(f"{path}: non-contiguous rank sequence for query {qid}: {ranks[:8]}...")
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.score > prev.score:
                logger.warning(
                    "run %s: score increases with rank for query %s (doc %s)",
                    path,
                    qid,
                    cur.doc_id,
                )
                break
        run[qid] = CandidateList(query_id=qid, entries=tuple(ordered[:max_depth]))
    return run


def write_run(run: Mapping[str, CandidateList], path: str | Path, tag: str = "ragsift") -> None:
    """Write candidate lists back to TREC 6-column format, sorted by query_id."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for qid in sorted(run):
            for e in run[qid].entries:
                fh.write(f"{qid} Q0 {e.doc_id} {e.rank} {e.score:g} {tag}\n")


def ranking_to_candidates(query_id: str, doc_ids: Sequence[str]) -> CandidateList:
    """Build a CandidateList from an engine ranking, scoring 1/rank."""
    entries = tuple(
        CandidateEntry(doc_id=d, score=1.0 / (i + 1), rank=i + 1) for i, d in enumerate(doc_ids)
    )
    return CandidateList(query_id=query_id, entries=entries)


def load_qrels(path: str | Path) -> Qrels:
    """Load TREC 4-column qrels (``qid 0 docid grade``). Grade-0 lines are kept."""
    path = Path(path)
    qrels = Qrels()
    seen: set[tuple[str, str]] = set()
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) < 4:
                raise LoadError(f"{path}: expected 4 columns at line {lineno}")
            qid, _, doc_id, grade_s = parts[0], parts[1], parts[2], parts[3]
            try:
                grade = int(grade_s)
            except ValueError as exc:
                raise LoadError(f"{path}: non-integer grade at line {lineno}") from exc
            if grade < 0:
                raise LoadError(f"{path}: negative grade at line {lineno}")
            if (qid, doc_id) in seen:
                raise LoadError(f"{path}: duplicate qrels pair ({qid}, {doc_id}) at line {lineno}")
            seen.add((qid, doc_id))
            qrels.set_grade(qid, doc_id, grade)
    return qrels


def load_answers(path: str | Path) -> dict[str, list[str]]:
    """Load gold answers: JSONL ``{query_id, answers: [str, ...]}``."""
    path = Path(path)
    answers: dict[str, list[str]] = {}
    for lineno, rec in _jsonl_records(path):
        qid = rec.get("query_id")
        refs = rec.get("answers")
        if qid is None or refs is None:
            raise LoadError(f"{path}: missing query_id or answers at line {lineno}")
        if not isinstance(refs, list) or not refs:
            raise LoadError(f"{path}: answers must be a non-empty list at line {lineno}")
        answers[str(qid)] = [str(a) for a in refs]
    return answers


def load_evidence(path: str | Path) -> dict[str, set[str]]:
    """Load gold evidence: JSONL ``{query_id, evidence: [doc_id, ...]}``."""
    path = Path(path)
    evidence: dict[str, set[str]] = {}
    for lineno, rec in _jsonl_records(path):
        qid = rec.get("query_id")
        docs = rec.get("evidence")
        if qid is None or docs is None:
            raise LoadError(f"{path}: missing query_id or evidence at line {lineno}")
        if not isinstance(docs, list) or not docs:
            raise LoadError(f"{path}: evidence must be a non-empty list at line {lineno}")
        evidence[str(qid)] = {str(d) for d in docs}
    return evidence


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
    missing = [e.doc_id for e in candidates.entries if e.doc_id not in corpus]
    if missing:
        raise LoadError(
            f"query {candidates.query_id}: {len(missing)} candidate doc_ids not in corpus: "
            + ", ".join(missing[:20])
        )
    return [corpus[e.doc_id] for e in candidates.entries]


def check_run_resolves(corpus: Corpus, run: Mapping[str, CandidateList]) -> None:
    """Fail fast before any judging if any candidate doc_id is unresolvable.

    Collects every unresolved id across all queries so one pass reports the
    full damage.
    """
    unresolved: list[str] = []
    for cl in run.values():
        for e in cl.entries:
            if e.doc_id not in corpus:
                unresolved.append(f"{cl.query_id}:{e.doc_id}")
    if unresolved:
        raise LoadError(
            f"{len(unresolved)} candidate doc_ids do not resolve in the corpus: "
            + ", ".join(unresolved[:50])
        )

