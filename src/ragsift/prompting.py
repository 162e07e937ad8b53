"""Prompt construction for the two judging tasks.

A window of passages is rendered into a system message plus a user message:
the passages first, each labeled with a bracketed one-based identifier, then
the task instruction. Rendering is a pure function, so identical inputs
always produce byte-identical prompts.

Templates are ``str.format`` strings, one per section of a template file.
Each section may use only its own placeholders:

- ``[system]``: none; the text is sent as it stands.
- ``[passage]``: ``{index}`` (int, the one-based identifier) and ``{text}``
  (str, truncated to the budget) are required; ``{title}`` (str, empty for
  an untitled passage) is optional.
- ``[instruction:ranking]`` and ``[instruction:selection]``: ``{query}``
  (str, never truncated) is required; ``{count}`` (int, the window size) is
  optional.

A placeholder may carry a conversion and a format spec, as in ``{index:>3}``
or ``{text!r}``, but a format spec may not hold a placeholder, and the spec
must fit its value's type. Write a literal brace as ``{{`` or ``}}``. Every
check runs when a template is built or loaded, so a bad template fails
before any input is read.
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


# values of each placeholder's type, for trial-formatting a section at load time
_SAMPLE_VALUES = {
    "system": {},
    "passage": {"index": 1, "title": "title", "text": "text"},
    "instruction": {"query": "query", "count": 1},
}


def _check_placeholders(text: str, section: str, where: str = "") -> None:
    # ``section`` may name a task's instruction, as in ``instruction:ranking``
    kind = section.partition(":")[0]
    try:
        parsed = [(f, spec) for _, f, spec, _ in string.Formatter().parse(text) if f is not None]
    except ValueError as exc:
        raise TemplateError(f"[{section}] section{where} is not a valid template: {exc}") from exc
    fields = {f for f, _ in parsed}
    unknown = fields - _ALLOWED_PLACEHOLDERS[kind]
    if unknown:
        raise TemplateError(
            f"[{section}] section{where} uses unknown placeholder {{{sorted(unknown)[0]}}}"
        )
    missing = _REQUIRED_PLACEHOLDERS[kind] - fields
    if missing:
        raise TemplateError(
            f"[{section}] section{where} is missing placeholder {{{sorted(missing)[0]}}}"
        )
    nested = next((f for f, spec in parsed if "{" in spec), None)
    if nested is not None:
        raise TemplateError(
            f"[{section}] section{where} has a placeholder in the format spec of {{{nested}}}"
        )
    try:
        text.format(**_SAMPLE_VALUES[kind])
    except ValueError as exc:
        raise TemplateError(f"[{section}] section{where} does not format: {exc}") from exc


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


# a token is approximated as this many characters
CHARS_PER_TOKEN = 4


@dataclass(frozen=True)
class PromptBudget:
    """Per-passage length budget, in tokens of ``CHARS_PER_TOKEN`` characters."""

    per_passage_tokens: int = 300

    def __post_init__(self) -> None:
        if self.per_passage_tokens < 1:
            raise ValueError("per_passage_tokens must be >= 1")


@dataclass(frozen=True)
class RenderedPrompt:
    """A rendered window prompt: the whole description of one window a judge answers.

    ``kind`` is the task, the template's name. ``doc_ids`` maps window-local
    identifiers back to documents: identifier [i] is doc_ids[i-1]. Oracle
    judges rely on it; remote judges read only its length, ``n``. Only
    ``system`` and ``user`` are sent, and only they are hashed.
    """

    system: str
    user: str
    query_id: str
    doc_ids: tuple[str, ...]
    kind: str

    @property
    def n(self) -> int:
        return len(self.doc_ids)

    def full_text(self) -> str:
        return self.system + "\n\n" + self.user


# matches up to and including the last whitespace before ``endpos``
_THROUGH_LAST_WHITESPACE = re.compile(r".*\s", re.DOTALL)


def truncate_text(text: str, limit: int) -> str:
    """Truncate ``text`` to ``limit`` characters at a whitespace boundary.

    The cut point is the last whitespace at or before ``limit``. A first
    token over the limit, alone or preceded only by whitespace, falls back
    to a hard cut at ``limit``. Python slicing operates on code points, so
    no unicode scalar is ever split.
    """
    if len(text) <= limit:
        return text
    m = _THROUGH_LAST_WHITESPACE.match(text, 0, limit)
    kept = text[: m.end() - 1].rstrip() if m else ""
    return kept or text[:limit]


def _numbered(template: str, slots: dict[str, int]) -> str:
    """``template`` with each named placeholder replaced by its positional slot.

    Conversions and format specs are kept, and literal braces escaped again.
    """
    out = []
    for literal, field, spec, conv in string.Formatter().parse(template):
        out.append(literal.replace("{", "{{").replace("}", "}}"))
        if field is not None:
            conv = f"!{conv}" if conv else ""
            spec = f":{spec}" if spec else ""
            out.append(f"{{{slots[field]}{conv}{spec}}}")
    return "".join(out)


@lru_cache(maxsize=64)
def _window_format(per_passage: str, instruction: str, n: int) -> str:
    """One format string for a whole user message of ``n`` passages.

    Passage k takes positional arguments 3k, 3k+1 and 3k+2 as its index,
    title and text; the instruction takes 3n and 3n+1 as query and count.
    """
    passages = "\n".join(
        _numbered(per_passage, {"index": 3 * k, "title": 3 * k + 1, "text": 3 * k + 2})
        for k in range(n)
    )
    return passages + "\n\n" + _numbered(instruction, {"query": 3 * n, "count": 3 * n + 1})


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
    limit = (budget or PromptBudget()).per_passage_tokens * CHARS_PER_TOKEN
    args: list[int | str] = []
    for i, passage in enumerate(window, 1):
        text = passage.text
        if len(text) > limit:
            text = truncate_text(text, limit)
        args += (i, passage.title or "", text)
    args += (query.text, len(window))
    fmt = _window_format(template.per_passage_text, template.instruction_text, len(window))
    return RenderedPrompt(
        system=template.system_text,
        user=fmt.format(*args),
        query_id=query.query_id,
        doc_ids=tuple(p.doc_id for p in window),
        kind=template.name,
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
# any line shaped like a section header; one that is not a known section is an error
_HEADER_SHAPE_RE = re.compile(r"^\[[a-z]+(:[a-z]+)?\]\s*$")


def load_templates(path: str | Path | None = None) -> tuple[PromptTemplate, PromptTemplate]:
    """Load (ranking, selection) templates from a sectioned text file.

    The file holds named sections ``[system]``, ``[passage]``,
    ``[instruction:ranking]`` and ``[instruction:selection]``; omitted
    sections fall back to the built-in defaults. With no path, the defaults
    are returned directly.

    Raises:
        LoadError: on a file that is not UTF-8, naming the file and the line.
        TemplateError: on a malformed section or placeholder, naming the file
            and the line.
    """
    if path is None:
        return default_templates()

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    try:
        return _parse_templates(text)
    except TemplateError as exc:
        raise TemplateError(f"{path}: {exc}") from None


def _parse_templates(text: str) -> tuple[PromptTemplate, PromptTemplate]:
    sections: dict[str, list[str]] = {}
    starts: dict[str, int] = {}
    current: str | None = None
    for lineno, line in enumerate(text.splitlines(), 1):
        m = _SECTION_RE.match(line)
        if m:
            current = m.group(1)
            if current in sections:
                raise TemplateError(f"duplicate section [{current}] at line {lineno}")
            sections[current], starts[current] = [], lineno
            continue
        if _HEADER_SHAPE_RE.match(line):
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

    for name, start in starts.items():
        _check_placeholders(_text(name, ""), name, f" at line {start}")

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
