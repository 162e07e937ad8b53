"""Deterministic synthetic inputs for the ragsift benchmark.

One ``DataSpec`` plus a seed fully determines the files written: the corpus,
queries, the first-stage run, the qrels and the endpoint fault schedule. The
same spec and seed give the same bytes. ``ensure_inputs`` caches the files under a directory named by
spec, seed and generator version, so generation is never timed.

Every passage text starts with its doc id. The stub endpoint relies on that
to grade the passages of a rendered window without a copy of the corpus.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

GENERATOR_VERSION = 3

FAULT_CLASSES = ("503", "429", "malformed")
# fault classes that abort a query at the seed commit
FATAL_FAULTS = ("429", "malformed")
# candidate slots each referenced passage fills on average
OVERLAP = 2.0
# share of queries with a relevant passage outside their candidates, as
# first-stage retrieval misses some
EXTRA_RELEVANT_SHARE = 0.3


@dataclass(frozen=True)
class DataSpec:
    """Parameters of one generated input set.

    ``corpus_ratio`` is corpus passages per referenced passage (1.0 means
    the corpus is the union of the candidates). Passage lengths in
    characters are log-normal around ``length_median`` with shape
    ``length_sigma``; the default prompt budget truncates at 1200
    characters, so the upper tail exercises truncation.

    ``grade_mix`` lists (grade, share of candidates); relevant candidates
    lean toward the head of each list. The default 4% relevant keeps
    selection sparse and puts the median query at six selection windows and
    the 90th percentile at seven, well inside each count: with a mix whose
    median sits where queries switch between two window counts, latency
    percentiles jump from seed to seed. ``faults`` gives, per judge kind, how
    many queries get each fault class at one of their requests.
    """

    queries: int
    depth: int = 100
    corpus_ratio: float = 1.0
    grade_mix: tuple[tuple[int, float], ...] = ((1, 0.02), (2, 0.015), (3, 0.005))
    length_median: int = 600
    length_sigma: float = 0.6
    faults: tuple[tuple[str, int], ...] = ()

    def key(self) -> str:
        doc = json.dumps([GENERATOR_VERSION, asdict(self)], sort_keys=True)
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:12]


def _vocabulary(rng: random.Random, size: int = 3000) -> list[str]:
    onsets = ["b", "br", "c", "d", "dr", "f", "g", "gl", "h", "k", "l", "m", "n", "p",
              "qu", "r", "s", "st", "t", "tr", "v", "w", "z"]
    vowels = ["a", "e", "i", "o", "u", "ai", "ea", "ou"]
    codas = ["", "n", "r", "s", "l", "th", "nd", "st", "m", "x"]
    words: set[str] = set()
    while len(words) < size:
        syllables = rng.choice((1, 2, 2, 3))
        words.add("".join(rng.choice(onsets) + rng.choice(vowels) + rng.choice(codas)
                          for _ in range(syllables)))
    return sorted(words)


def _passage_text(rng: random.Random, doc_id: str, vocab: list[str], spec: DataSpec) -> str:
    target = rng.lognormvariate(math.log(spec.length_median), spec.length_sigma)
    n_words = max(8, min(700, int(target / 7)))
    return doc_id + " " + " ".join(rng.choices(vocab, k=n_words)) + "."


def _grade(rng: random.Random, rank: int, spec: DataSpec) -> int:
    # relevance twice as likely at the head of the list as on average,
    # falling linearly to zero at the tail
    lean = 2.0 * (1.0 - (rank - 1) / spec.depth)
    u = rng.random()
    acc = 0.0
    for grade, share in spec.grade_mix:
        acc += share * lean
        if u < acc:
            return grade
    return 0


def generate(spec: DataSpec, seed: int, out_dir: Path) -> dict:
    """Write the input files for ``spec`` and ``seed`` into ``out_dir``."""
    rng = random.Random(f"ragsift-bench/{seed}")
    vocab = _vocabulary(rng)
    out_dir.mkdir(parents=True, exist_ok=True)

    n_pool = max(spec.depth, round(spec.queries * spec.depth / OVERLAP))
    pool = [f"p{i:07d}" for i in range(n_pool)]
    qids = [f"q{i:05d}" for i in range(spec.queries)]

    candidates: dict[str, list[str]] = {}
    qrels: dict[str, dict[str, int]] = {}
    referenced: set[str] = set()
    for qid in qids:
        docs = rng.sample(pool, spec.depth)
        candidates[qid] = docs
        referenced.update(docs)
        grades = {}
        for rank, doc in enumerate(docs, 1):
            grade = _grade(rng, rank, spec)
            if grade:
                grades[doc] = grade
        if rng.random() < EXTRA_RELEVANT_SHARE:
            outside = rng.choice(pool)
            if outside not in docs:
                grades[outside] = rng.choice((1, 2))
        qrels[qid] = grades

    n_corpus = max(len(referenced), round(len(referenced) * spec.corpus_ratio))
    corpus_ids = sorted(referenced) + [f"x{i:07d}" for i in range(n_corpus - len(referenced))]
    rng.shuffle(corpus_ids)

    with (out_dir / "corpus.jsonl").open("w", encoding="utf-8") as fh:
        for doc in corpus_ids:
            fh.write(json.dumps({"doc_id": doc, "text": _passage_text(rng, doc, vocab, spec)}) + "\n")
    with (out_dir / "queries.jsonl").open("w", encoding="utf-8") as fh:
        for qid in qids:
            words = " ".join(rng.choices(vocab, k=rng.randint(4, 9)))
            fh.write(json.dumps({"query_id": qid, "text": f"what is the {words} of {qid}"}) + "\n")
    with (out_dir / "run.trec").open("w", encoding="utf-8") as fh:
        for qid in qids:
            score = 40.0 + rng.random()
            for rank, doc in enumerate(candidates[qid], 1):
                fh.write(f"{qid} Q0 {doc} {rank} {score:.4f} bm25\n")
                score -= 0.05 + 0.3 * rng.random()
    with (out_dir / "qrels.txt").open("w", encoding="utf-8") as fh:
        for qid in qids:
            for doc, grade in sorted(qrels[qid].items()):
                fh.write(f"{qid} 0 {doc} {grade}\n")

    faults = fault_schedule(qids, seed, dict(spec.faults))
    (out_dir / "faults.json").write_text(json.dumps(faults, sort_keys=True) + "\n", encoding="utf-8")

    meta = {
        "seed": seed,
        "spec": asdict(spec),
        "generator_version": GENERATOR_VERSION,
        "passages": n_corpus,
        "referenced": len(referenced),
    }
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return meta


def fault_schedule(qids: list[str], seed: int, counts: dict[str, int]) -> dict:
    """Pick, per judge kind, which queries get which fault at which request.

    Returns ``{kind: {query_id: [fault_class, k]}}``: the stub serves the
    fault on the first attempt of the k-th distinct prompt it receives for
    that query and kind. Windows within a query are sequential, so the k-th
    distinct prompt is the k-th window whatever the interleaving of queries.
    """
    rng = random.Random(f"ragsift-bench-faults/{seed}")
    plan: dict[str, dict[str, list]] = {}
    total = sum(counts.values())
    for kind in ("ranking", "selection"):
        chosen = rng.sample(qids, min(total, len(qids)))
        classes = [c for c in FAULT_CLASSES for _ in range(counts.get(c, 0))]
        # annotation judges one window per query, so k=1 faults reach it too;
        # a retried 503 backs off a random 0.5-1.5 s, which would swamp the
        # one-second annotation run, so 503s start at the second window
        plan[kind] = {q: [c, rng.randint(2 if c == "503" else 1, 5)] for q, c in zip(chosen, classes)}
    return plan


def ensure_inputs(spec: DataSpec, seed: int, cache_root: Path, keep: int = 3) -> Path:
    """Generate the inputs unless a complete cached copy exists; return its directory.

    Files are generated in a temporary directory and published by renaming
    it, so a cut-short generation is never reused. Only the ``keep`` most
    recently used input sets stay cached.
    """
    final = cache_root / f"s{seed}-{spec.key()}"
    if (final / "meta.json").exists():
        os.utime(final)
        return final
    tmp = cache_root / f".tmp-{final.name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    generate(spec, seed, tmp)
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    older = sorted((d for d in cache_root.iterdir() if d.is_dir() and not d.name.startswith(".")),
                   key=lambda d: d.stat().st_mtime, reverse=True)
    for stale in older[keep:]:
        shutil.rmtree(stale, ignore_errors=True)
    return final


def read_run(path: Path) -> dict[str, list[str]]:
    """Candidate doc ids per query, in rank order."""
    out: dict[str, list[tuple[int, str]]] = {}
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            qid, _, doc, rank = line.split()[:4]
            out.setdefault(qid, []).append((int(rank), doc))
    return {q: [d for _, d in sorted(v)] for q, v in out.items()}


def read_qrels(path: Path) -> dict[str, dict[str, int]]:
    out: dict[str, dict[str, int]] = {}
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            qid, _, doc, grade = line.split()[:4]
            out.setdefault(qid, {})[doc] = int(grade)
    return out


def read_queries(path: Path) -> dict[str, str]:
    out = {}
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out[rec["query_id"]] = rec["text"]
    return out
