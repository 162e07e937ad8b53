"""Prompt construction for the two judging tasks.

A window of passages is rendered into a system message plus a user message:
the passages first, each labeled with a bracketed one-based identifier, then
the task instruction. Rendering is a pure function, so identical inputs
always produce byte-identical prompts.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

from .corpus import Passage, Query, not_utf8


class TemplateError(ValueError):
    """A template failed placeholder validation at load time."""


DEFAULT_SYSTEM = (
    "You are an intelligent assistant that evaluates passages retrieved for a query."
)

DEFAULT_PASSAGE = "[{index}] {text}"

DEFAULT_RANKING_INSTRUCTION = (
    "Search query: {query}\n"
    "Rank the {count} passages above by how relevant they are to the search query, "
    "from most to least relevant. Answer with the passage identifiers in descending "
    "order of relevance, in the form [i] > [j] > ..., and say nothing else."
)

DEFAULT_SELECTION_INSTRUCTION = (
    "Question: {query}\n"
    "First, draft a short answer to the question using only the {count} passages "
    "above. Then judge which passages were actually useful for producing that "
    "answer: a passage counts as useful only if the answer needs information from "
    "it. Finish with a single final line of the form Selected: [i], [j], ... "
    "listing the useful passages, or Selected: none if none were useful."
)

_ALLOWED_PLACEHOLDERS = {
    "system": frozenset(),
    "passage": frozenset({"index", "title", "text"}),
    "instruction": frozenset({"query", "count"}),
}
_REQUIRED_PLACEHOLDERS = {
    "system": frozenset(),
    "passage": frozenset({"index", "text"}),
    "instruction": frozenset({"query"}),
}


def _check_placeholders(text: str, section: str) -> None:
    try:
        fields = {f for _, f, _, _ in string.Formatter().parse(text) if f is not None}
    except ValueError as exc:
        raise TemplateError(f"[{section}] section is not a valid template: {exc}") from exc
    unknown = fields - _ALLOWED_PLACEHOLDERS[section]
    if unknown:
        raise TemplateError(
            f"[{section}] section uses unknown placeholder {{{sorted(unknown)[0]}}}"
        )
    missing = _REQUIRED_PLACEHOLDERS[section] - fields
    if missing:
        raise TemplateError(f"[{section}] section is missing placeholder {{{sorted(missing)[0]}}}")


@dataclass(frozen=True)
class PromptTemplate:
    """One task's template: shared system and per-passage text plus the instruction."""

    name: str  # "ranking" or "selection"
    system_text: str
    per_passage_text: str
    instruction_text: str

    def __post_init__(self) -> None:
        if self.name not in ("ranking", "selection"):
            raise TemplateError(f"unknown template name {self.name!r}")
        _check_placeholders(self.system_text, "system")
        _check_placeholders(self.per_passage_text, "passage")
        _check_placeholders(self.instruction_text, "instruction")


@dataclass(frozen=True)
class PromptBudget:
    """Per-passage length budget; a token is approximated as ``chars_per_token`` characters."""

    per_passage_tokens: int = 300
    chars_per_token: float = 4.0

    def __post_init__(self) -> None:
        if self.per_passage_tokens < 1:
            raise ValueError("per_passage_tokens must be >= 1")
        if self.chars_per_token <= 0:
            raise ValueError("chars_per_token must be positive")


@dataclass(frozen=True)
class RenderedPrompt:
    """A rendered window prompt plus the metadata judges may need.

    ``doc_ids`` maps window-local identifiers back to documents: identifier
    [i] is doc_ids[i-1]. Oracle judges rely on this; remote judges ignore it.
    """

    system: str
    user: str
    query_id: str
    doc_ids: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.doc_ids)

    def full_text(self) -> str:
        return self.system + "\n\n" + self.user

    def char_count(self) -> int:
        return len(self.system) + 2 + len(self.user)


# matches up to and including the last whitespace before ``endpos``
_THROUGH_LAST_WHITESPACE = re.compile(r".*\s", re.DOTALL)


def truncate_text(text: str, budget: PromptBudget) -> str:
    """Truncate ``text`` to the per-passage budget at a whitespace boundary.

    The cut point is the last whitespace at or before ``per_passage_tokens *
    chars_per_token`` characters. A first token over budget, alone or
    preceded only by whitespace, falls back to a hard cut at that character
    limit. Python slicing operates on code points, so no unicode scalar is
    ever split.
    """
    limit = int(budget.per_passage_tokens * budget.chars_per_token)
    if len(text) <= limit:
        return text
    m = _THROUGH_LAST_WHITESPACE.match(text, 0, limit)
    kept = text[: m.end() - 1].rstrip() if m else ""
    return kept or text[:limit]


def render(
    template: PromptTemplate,
    query: Query,
    window: Sequence[Passage],
    budget: PromptBudget | None = None,
) -> RenderedPrompt:
    """Render a window of passages into a prompt.

    Passages keep their window order and are labeled [1]..[n]. Passage text
    is truncated to the budget; the query text is never truncated.
    """
    if not window:
        raise ValueError("cannot render an empty window")
    budget = budget or PromptBudget()
    lines = []
    for i, passage in enumerate(window, 1):
        text = truncate_text(passage.text, budget)
        lines.append(
            template.per_passage_text.format(index=i, title=passage.title or "", text=text)
        )
    instruction = template.instruction_text.format(query=query.text, count=len(window))
    user = "\n".join(lines) + "\n\n" + instruction
    return RenderedPrompt(
        system=template.system_text,
        user=user,
        query_id=query.query_id,
        doc_ids=tuple(p.doc_id for p in window),
    )


@lru_cache(maxsize=1)
def default_templates() -> tuple[PromptTemplate, PromptTemplate]:
    ranking = PromptTemplate(
        name="ranking",
        system_text=DEFAULT_SYSTEM,
        per_passage_text=DEFAULT_PASSAGE,
        instruction_text=DEFAULT_RANKING_INSTRUCTION,
    )
    selection = PromptTemplate(
        name="selection",
        system_text=DEFAULT_SYSTEM,
        per_passage_text=DEFAULT_PASSAGE,
        instruction_text=DEFAULT_SELECTION_INSTRUCTION,
    )
    return ranking, selection


_SECTION_RE = re.compile(r"^\[(system|passage|instruction:ranking|instruction:selection)\]\s*$")


def load_templates(path: str | Path | None = None) -> tuple[PromptTemplate, PromptTemplate]:
    """Load (ranking, selection) templates from a sectioned text file.

    The file holds named sections ``[system]``, ``[passage]``,
    ``[instruction:ranking]`` and ``[instruction:selection]``; omitted
    sections fall back to the built-in defaults. With no path, the defaults
    are returned directly.

    Raises:
        LoadError: on a file that is not UTF-8, naming the file and the line.
        TemplateError: on a malformed section or placeholder.
    """
    if path is None:
        return default_templates()

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for lineno, line in enumerate(text.splitlines(), 1):
        m = _SECTION_RE.match(line)
        if m:
            current = m.group(1)
            if current in sections:
                raise TemplateError(f"duplicate section [{current}] at line {lineno}")
            sections[current] = []
            continue
        if line.startswith("[") and line.rstrip().endswith("]") and current is None:
            raise TemplateError(f"unknown section {line.strip()} at line {lineno}")
        if current is None:
            if line.strip():
                raise TemplateError(f"content before any section at line {lineno}")
            continue
        sections[current].append(line)

    def _text(name: str, default: str) -> str:
        if name not in sections:
            return default
        return "\n".join(sections[name]).strip("\n")

    system = _text("system", DEFAULT_SYSTEM)
    passage = _text("passage", DEFAULT_PASSAGE)
    ranking = PromptTemplate(
        name="ranking",
        system_text=system,
        per_passage_text=passage,
        instruction_text=_text("instruction:ranking", DEFAULT_RANKING_INSTRUCTION),
    )
    selection = PromptTemplate(
        name="selection",
        system_text=system,
        per_passage_text=passage,
        instruction_text=_text("instruction:selection", DEFAULT_SELECTION_INSTRUCTION),
    )
    return ranking, selection
