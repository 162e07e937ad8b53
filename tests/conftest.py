from __future__ import annotations

import random
from pathlib import Path

import pytest

from ragsift.corpus import CandidateList, Passage, Query
from ragsift.data import mini_dataset_dir
from ragsift.judge import (
    SELECTION,
    Judge,
    JudgeVerdict,
    canonical_selection_text,
    verdict_from_text,
)


_TESTS_DIR = Path(__file__).parent


def pytest_collection_modifyitems(config, items):
    # any warning fails its test: a file handle or socket left open, on an
    # error path too, and an exception raised where nothing can catch it
    for item in items:
        if _TESTS_DIR in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


@pytest.fixture(scope="session")
def mini_dir():
    return mini_dataset_dir()


def make_passages(n: int, prefix: str = "d", text: str = "t") -> list[Passage]:
    return [Passage(doc_id=f"{prefix}{i + 1}", text=f"{text} {i + 1}") for i in range(n)]


def make_qrels(query_id: str, grades: dict[str, int]) -> dict[str, dict[str, int]]:
    return {query_id: grades}


def make_candidates(query_id: str, doc_ids: list[str]) -> CandidateList:
    """A candidate list in the given order."""
    return CandidateList(query_id, tuple(doc_ids))


QUERY = Query(query_id="q1", text="what is it")


class RawTextJudge(Judge):
    """Replies with canned raw text, per query or from a rotating list."""

    def __init__(self, by_query: dict[str, str] | None = None, texts: list[str] | None = None):
        self.by_query = by_query or {}
        self.texts = list(texts or [])
        self.calls = 0

    def judge(self, prompt):
        if prompt.query_id in self.by_query:
            text = self.by_query[prompt.query_id]
        else:
            text = self.texts[self.calls % len(self.texts)]
        self.calls += 1
        return verdict_from_text(text, prompt.kind, prompt.n)


class ScriptedSelectionJudge(Judge):
    """Selects scripted doc ids (in emission order) window by window."""

    def __init__(self, script: list[list[str]]):
        self.script = [list(s) for s in script]
        self.calls = 0

    def judge(self, prompt):
        wanted = self.script[self.calls] if self.calls < len(self.script) else []
        self.calls += 1
        selected = tuple(
            prompt.doc_ids.index(d) + 1 for d in wanted if d in prompt.doc_ids
        )
        return JudgeVerdict(
            kind=SELECTION,
            raw_text=canonical_selection_text(selected),
            selected=selected,
        )


class NeverSelectJudge(Judge):
    def judge(self, prompt):
        return verdict_from_text("Selected: none", prompt.kind, prompt.n)


class AlwaysSelectJudge(Judge):
    def judge(self, prompt):
        ids = ", ".join(f"[{i}]" for i in range(1, prompt.n + 1))
        return verdict_from_text(f"everything helps\nSelected: {ids}", prompt.kind, prompt.n)


_FUZZ_POOL = (
    "[1] [2] [3] [17] > , . none Selected: selected ranking 0 42 -7 \n \t "
    "passage answer the éü中文\U0001f600 ]][[ [][] [2 2] [x]"
).split(" ")


class FuzzJudge(Judge):
    """Emits pseudo-random garbage; exercises parser repair end to end."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def judge(self, prompt):
        pieces = [self.rng.choice(_FUZZ_POOL) for _ in range(self.rng.randint(0, 24))]
        return verdict_from_text(" ".join(pieces), prompt.kind, prompt.n)


def random_unicode(rng: random.Random, max_len: int = 60) -> str:
    chunks = []
    for _ in range(rng.randint(0, max_len // 3)):
        kind = rng.random()
        if kind < 0.35:
            chunks.append(rng.choice(_FUZZ_POOL))
        elif kind < 0.6:
            chunks.append(f"[{rng.randint(-3, 40)}]")
        elif kind < 0.8:
            chunks.append(str(rng.randint(0, 999)))
        elif kind < 0.998:
            chunks.append(chr(rng.randint(1, 0x10FFF)))
        else:
            # digit run beyond CPython's int() parse limit
            chunks.append("7" * rng.randint(4000, 5000))
        if rng.random() < 0.2:
            chunks.append("\n")
    return " ".join(chunks)


def random_flag_rows(rng: random.Random, depth: int, n: int) -> list[list[bool]]:
    """``n`` rows of ``depth`` useful-flags, each row at its own random density."""
    rows = []
    for _ in range(n):
        density = rng.random()
        rows.append([rng.random() < density for _ in range(depth)])
    return rows
