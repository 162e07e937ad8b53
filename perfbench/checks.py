"""Correctness checks and quality scores over one command's outputs.

Written against the file formats only, so they stay independent of the code
under test. Each check appends what it finds wrong to ``problems``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from pathlib import Path

ABORTED_LINE = re.compile(r"aborted queries \((\d+)\): (.*)")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def window_count_bounds(depth: int, w: int, s: int) -> tuple[int, int]:
    """(min, max) selection windows for a list of ``depth`` candidates.

    The bounds ragsift documents: every window all fresh at least, a full
    stride carried into every window after the first at most.
    """
    if depth <= w:
        return 1, 1
    return math.ceil(depth / w), 1 + math.ceil((depth - w) / (w - s))


def aborted_from_stderr(stderr: str, problems: list[str]) -> list[str]:
    """The query ids a command listed as aborted."""
    m = ABORTED_LINE.search(stderr)
    if not m:
        return []
    ids = [q.strip() for q in m.group(2).split(",") if q.strip()]
    if len(ids) != int(m.group(1)):
        problems.append(f"aborted list names {len(ids)} queries but counts {m.group(1)}")
    return ids


def _read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_exit(rc: int, aborted: list[str], problems: list[str]) -> None:
    expected = 2 if aborted else 0
    if rc != expected:
        problems.append(f"exit code {rc}, expected {expected} with {len(aborted)} aborted")


def check_coverage(attempted: set[str], done: set[str], aborted: list[str],
                   allowed_aborts: set[str], problems: list[str]) -> None:
    """Every attempted query is either in the output or listed as aborted."""
    if len(set(aborted)) != len(aborted):
        problems.append("aborted list has duplicates")
    listed = set(aborted)
    if done & listed:
        problems.append(f"{len(done & listed)} queries both output and listed as aborted")
    missing = attempted - done - listed
    if missing:
        problems.append(f"{len(missing)} queries silently missing, e.g. {sorted(missing)[:3]}")
    extra = (done | listed) - attempted
    if extra:
        problems.append(f"{len(extra)} unexpected query ids in output, e.g. {sorted(extra)[:3]}")
    unexplained = listed - allowed_aborts
    if unexplained:
        problems.append(f"{len(unexplained)} aborted without an injected fault: {sorted(unexplained)[:5]}")


def check_rerank(out: Path, candidates: dict[str, list[str]], problems: list[str]) -> dict[str, list[str]]:
    ranked: dict[str, list[tuple[int, str]]] = {}
    with (out / "run.trec").open(encoding="utf-8") as fh:
        for line in fh:
            qid, _, doc, rank = line.split()[:4]
            ranked.setdefault(qid, []).append((int(rank), doc))
    result = {}
    for qid, entries in ranked.items():
        entries.sort()
        if [r for r, _ in entries] != list(range(1, len(entries) + 1)):
            problems.append(f"rerank {qid}: ranks not 1..n")
        docs = [d for _, d in entries]
        if sorted(docs) != sorted(candidates.get(qid, [])):
            problems.append(f"rerank {qid}: output is not a permutation of its candidates")
        result[qid] = docs
    return result


def check_select(out: Path, candidates: dict[str, list[str]], w: int, s: int,
                 problems: list[str]) -> dict[str, list[str]]:
    windows = Counter(rec["query_id"] for rec in _read_jsonl(out / "trace.jsonl"))
    result = {}
    for rec in _read_jsonl(out / "selected.jsonl"):
        qid, sel = rec["query_id"], rec["selected"]
        cands = candidates.get(qid, [])
        if len(set(sel)) != len(sel):
            problems.append(f"select {qid}: duplicate selections")
        if not set(sel) <= set(cands):
            problems.append(f"select {qid}: selection is not a subset of its candidates")
        lo, hi = window_count_bounds(len(cands), w, s)
        if not lo <= windows[qid] <= hi:
            problems.append(f"select {qid}: {windows[qid]} windows outside [{lo}, {hi}]")
        if windows[qid] != rec["windows"]:
            problems.append(f"select {qid}: trace has {windows[qid]} windows, selection says {rec['windows']}")
        result[qid] = sel
    return result


def check_annotate(out: Path, attempted: set[str], allowed_transport: set[str],
                   expected_rejects: set[str], problems: list[str]) -> tuple[int, set[str]]:
    """Return the number of records and the queries rejected for transport failures.

    ``expected_rejects`` are the queries whose judge answer annotation must
    reject for its content; every other answered query must pass.
    """
    train = _read_jsonl(out / "train.jsonl")
    rejected = _read_jsonl(out / "rejected.jsonl")
    records = len(train) + len(rejected)
    if records != len(attempted):
        problems.append(f"annotate wrote {records} records for {len(attempted)} queries")
    transport = {r["query_id"] for r in rejected if "transport" in r["defects"]}
    if transport - allowed_transport:
        problems.append(f"annotate: {len(transport - allowed_transport)} transport failures without an injected fault")
    by_content = {r["query_id"] for r in rejected} - transport
    expected = (expected_rejects & attempted) - transport
    if by_content != expected:
        problems.append(f"annotate rejected {len(by_content)} answers for their content, expected "
                        f"{len(expected)}; differing e.g. {sorted(by_content ^ expected)[:3]}")
    if len(train) != len(attempted) - len(transport) - len(expected):
        problems.append(f"annotate passed {len(train)} records, expected "
                        f"{len(attempted) - len(transport) - len(expected)}")
    return records, transport


def ndcg_at_10(ranked: dict[str, list[str]], qrels: dict[str, dict[str, int]]) -> float:
    """Mean nDCG@10 (exponential gain) over the ranked queries."""
    def dcg(grades):
        return sum((2**g - 1) / math.log2(i + 2) for i, g in enumerate(grades[:10]))

    scores = []
    for qid, docs in ranked.items():
        grades = qrels.get(qid, {})
        ideal = dcg(sorted(grades.values(), reverse=True))
        scores.append(dcg([grades.get(d, 0) for d in docs]) / ideal if ideal else 0.0)
    return sum(scores) / len(scores) if scores else 0.0


def evidence_f1(selected: dict[str, list[str]], qrels: dict[str, dict[str, int]]) -> float:
    """Micro F1 of the selections against gold evidence (grade >= 1)."""
    tp = fp = fn = 0
    for qid, sel in selected.items():
        gold = {d for d, g in qrels.get(qid, {}).items() if g >= 1}
        chosen = set(sel)
        tp += len(chosen & gold)
        fp += len(chosen - gold)
        fn += len(gold - chosen)
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0
