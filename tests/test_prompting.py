from __future__ import annotations

import re
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ragsift.corpus import LoadError, Passage, Query
from ragsift.prompting import (
    CHARS_PER_TOKEN,
    PromptBudget,
    PromptTemplate,
    TemplateError,
    default_templates,
    load_templates,
    render,
    truncate_text,
)
from tests.conftest import QUERY, make_passages


def scan_truncate(text: str, limit: int) -> str:
    """Reference for the character-budget path: scan every offset for the last whitespace.

    Text that is over budget and has nothing but whitespace before its cut gets the hard cut.
    """
    if len(text) <= limit:
        return text
    head = text[:limit]
    cut = max((i for i, c in enumerate(head) if c.isspace()), default=-1)
    kept = head[:cut].rstrip() if cut > 0 else ""
    return kept or head


def format_per_passage(
    template: PromptTemplate, query: Query, window: list[Passage], budget: PromptBudget
) -> str:
    """Reference user message: one keyword ``str.format`` per passage, joined."""
    limit = budget.per_passage_tokens * CHARS_PER_TOKEN
    lines = [
        template.per_passage_text.format(
            index=i, title=p.title or "", text=truncate_text(p.text, limit)
        )
        for i, p in enumerate(window, 1)
    ]
    instruction = template.instruction_text.format(query=query.text, count=len(window))
    return "\n".join(lines) + "\n\n" + instruction


def _field(name: str, forms: list[str]) -> st.SearchStrategy[str]:
    return st.sampled_from(forms).map(lambda form: "{" + name + form + "}")


# literal template text: escaped braces, brackets and non-ASCII characters
_LITERAL = st.lists(
    st.sampled_from(["{{", "}}", "[", "]", " ", "\n", "a", "Z", ":", "!", "é", "中", "🙂"]),
    max_size=4,
).map("".join)
# conversions and specs that fit each placeholder's type
_INDEX = _field("index", ["", ":>3", ":03d", ":<2", "!r", "!s:>4", "!a"])
_COUNT = _field("count", ["", ":03d", ":>2", "!r"])
_TEXT_LIKE = ["", "!r", "!s", "!a", ":>4", ":<6", "!r:^8"]
_PASSAGE_FIELDS = st.tuples(
    _INDEX, _field("text", _TEXT_LIKE), st.none() | _field("title", _TEXT_LIKE)
).flatmap(lambda f: st.permutations([x for x in f if x is not None]))
_QUERY_TEXT = st.text(alphabet="ab {}é中\n", max_size=12)
_PASSAGE_TEXT = st.text(alphabet="ab {}[]é中🙂\n\t", max_size=70)


@st.composite
def _templates(draw) -> PromptTemplate:
    def interleave(fields: list[str]) -> str:
        return draw(_LITERAL) + "".join(f + draw(_LITERAL) for f in fields)

    passage = interleave(draw(_PASSAGE_FIELDS))
    counts = draw(st.integers(0, 2))  # {count} may appear more than once
    instruction_fields = [draw(_field("query", _TEXT_LIKE))] + [draw(_COUNT)] * counts
    return PromptTemplate(
        name=draw(st.sampled_from(["ranking", "selection"])),
        system_text=draw(_LITERAL),
        per_passage_text=passage,
        instruction_text=interleave(draw(st.permutations(instruction_fields))),
    )


# ASCII, C1 and Unicode whitespace, plus U+200B, which str.isspace does not count
TRUNCATION_ALPHABET = (
    string.ascii_letters + " \t\n\x0b\x0c\r\x1c\x1f\x85\xa0\u2028\u3000" + "\u200b"
)


class TestRender:
    def test_ranking_identifiers_once_each_and_query(self):
        ranking, _ = default_templates()
        prompt = render(ranking, QUERY, make_passages(3))
        for ident in ("[1]", "[2]", "[3]"):
            assert prompt.user.count(ident) == 1
        assert "[4]" not in prompt.user
        assert QUERY.text in prompt.user

    def test_selection_prompt_asks_answer_then_select(self):
        _, selection = default_templates()
        prompt = render(selection, QUERY, make_passages(2))
        assert prompt.user.count("[1]") == 1 and prompt.user.count("[2]") == 1
        assert "answer" in prompt.user.lower()
        assert "Selected:" in prompt.user

    def test_identifier_sets_for_all_window_sizes(self):
        ranking, _ = default_templates()
        for n in range(1, 21):
            prompt = render(ranking, QUERY, make_passages(n))
            present = {i for i in range(1, 25) if f"[{i}]" in prompt.user}
            assert present == set(range(1, n + 1))

    def test_rendering_is_pure(self):
        ranking, _ = default_templates()
        window = make_passages(5)
        assert render(ranking, QUERY, window) == render(ranking, QUERY, window)

    def test_empty_window_rejected(self):
        ranking, _ = default_templates()
        with pytest.raises(ValueError, match="empty window"):
            render(ranking, QUERY, [])

    def test_doc_ids_follow_window_order(self):
        ranking, _ = default_templates()
        window = [Passage("b", "x"), Passage("a", "y")]
        assert render(ranking, QUERY, window).doc_ids == ("b", "a")

    def test_long_query_never_truncated(self):
        ranking, _ = default_templates()
        query = Query("q1", "needle " * 500 + "END")
        prompt = render(ranking, query, make_passages(1), PromptBudget(per_passage_tokens=1))
        assert query.text in prompt.user

    def test_total_length_bounded_by_per_passage_budget(self):
        ranking, _ = default_templates()
        n = 7
        budget = PromptBudget(per_passage_tokens=50)
        long_window = [Passage(f"d{i}", "lorem ipsum " * 400) for i in range(n)]
        tiny_window = [Passage(f"d{i}", "x") for i in range(n)]
        rendered = render(ranking, QUERY, long_window, budget)
        fixed = len(render(ranking, QUERY, tiny_window, budget).full_text()) - n
        assert len(rendered.full_text()) <= fixed + n * 200


    @settings(max_examples=300, deadline=None)
    @given(
        _templates(),
        _QUERY_TEXT,
        st.lists(
            st.tuples(_PASSAGE_TEXT, st.none() | st.text(alphabet="t {}é", max_size=6)),
            min_size=1,
            max_size=25,
        ),
        st.integers(1, 12),
    )
    def test_matches_per_passage_format(self, template, query_text, passages, tokens):
        window = [Passage(f"d{i}", text, title) for i, (text, title) in enumerate(passages)]
        query = Query("q", query_text)
        budget = PromptBudget(per_passage_tokens=tokens)
        prompt = render(template, query, window, budget)
        assert prompt.user == format_per_passage(template, query, window, budget)
        assert prompt.system == template.system_text


class TestTruncation:
    def test_char_approximation_budget(self):
        text = "word " * 2000
        out = truncate_text(text, 1200)
        assert len(out) <= 1200
        assert not out.endswith(" ")
        assert text.startswith(out)

    def test_short_text_untouched(self):
        assert truncate_text("tiny", 1200) == "tiny"

    def test_unbreakable_token_hard_cut(self):
        text = "x" * 5000
        out = truncate_text(text, 40)
        assert out == "x" * 40

    @pytest.mark.parametrize("lead", [" ", "  ", "\n\n", " \n\t"])
    def test_whitespace_led_unbreakable_token_hard_cut(self, lead):
        text = lead + "x" * 100
        out = truncate_text(text, 40)
        assert out == text[:40]

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=TRUNCATION_ALPHABET, max_size=60), st.integers(1, 48))
    @example("ab cd", 12)  # under the limit
    @example("ab\ncd ef", 6)  # the last whitespace is not a space
    @example("ab cd\tef", 6)
    @example("\u3000" + "x" * 20, 12)  # whitespace only at index 0
    @example("  " + "x" * 20, 12)
    @example("x\u200by" * 10, 12)  # no whitespace at all
    def test_char_budget_matches_scan_reference(self, text, limit):
        out = truncate_text(text, limit)
        assert out == scan_truncate(text, limit)
        tokens, rest = divmod(limit, CHARS_PER_TOKEN)
        if rest == 0:  # a budget of whole tokens renders with this limit
            ranking, _ = default_templates()
            budget = PromptBudget(per_passage_tokens=tokens)
            prompt = render(ranking, QUERY, [Passage("d1", text)], budget)
            assert prompt.user.startswith(f"[1] {out}\n\n")


class TestTemplates:
    def test_defaults_returned_without_path(self):
        ranking, selection = load_templates(None)
        assert ranking.name == "ranking" and selection.name == "selection"

    def test_missing_query_placeholder_named(self):
        with pytest.raises(TemplateError, match=r"\{query\}"):
            PromptTemplate(
                name="ranking",
                system_text="s",
                per_passage_text="[{index}] {text}",
                instruction_text="rank {count} passages",
            )

    def test_unknown_placeholder_named(self):
        with pytest.raises(TemplateError, match=r"\{speed\}"):
            PromptTemplate(
                name="ranking",
                system_text="s",
                per_passage_text="[{index}] {text} {speed}",
                instruction_text="{query}",
            )

    def test_custom_passage_template_accepted(self):
        tpl = PromptTemplate(
            name="ranking",
            system_text="s",
            per_passage_text="[{index}] {text}",
            instruction_text="{query}",
        )
        assert tpl.per_passage_text == "[{index}] {text}"

    def test_load_from_file(self, tmp_path):
        body = (
            "[system]\nsys text\n"
            "[passage]\n<{index}> {text}\n"
            "[instruction:ranking]\nrank for {query} ({count})\n"
            "[instruction:selection]\npick for {query}\n"
        )
        path = tmp_path / "t.txt"
        path.write_text(body, encoding="utf-8")
        ranking, selection = load_templates(path)
        assert ranking.system_text == "sys text"
        assert ranking.per_passage_text == "<{index}> {text}"
        assert "pick for" in selection.instruction_text

    def test_file_with_bad_placeholder_fails_at_load(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("[instruction:ranking]\nno placeholders here\n", encoding="utf-8")
        with pytest.raises(TemplateError, match=r"\{query\}"):
            load_templates(path)

    @pytest.mark.parametrize(
        "body,message",
        [
            ("[system]\na\n[system]\nb\n", "duplicate section [system] at line 3"),
            ("\n[bogus]\n", "unknown section [bogus] at line 2"),
            ("\nhello\n[system]\n", "content before any section at line 2"),
            (
                "[system]\ns\n[passage]\n[{index}] {text} {speed}\n",
                "[passage] section at line 3 uses unknown placeholder {speed}",
            ),
            (
                "[system]\ns\n\n[instruction:ranking]\nrank\n",
                "[instruction:ranking] section at line 4 is missing placeholder {query}",
            ),
            (
                "\n[instruction:selection]\n{query} {\n",
                "[instruction:selection] section at line 2 is not a valid template",
            ),
            (
                "[system]\ns\n[instrucion:ranking]\n{query}\n",
                "unknown section [instrucion:ranking] at line 3",
            ),
            (
                "[passage]\n[{index}] {text:{foo}}\n",
                "[passage] section at line 1 has a placeholder in the format spec of {text}",
            ),
            (
                "[system]\ns\n[instruction:ranking]\n{query:d}\n",
                "[instruction:ranking] section at line 3 does not format: "
                "Unknown format code 'd' for object of type 'str'",
            ),
        ],
    )
    def test_file_errors_name_file_and_line(self, tmp_path, body, message):
        path = tmp_path / "t.txt"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(TemplateError) as exc:
            load_templates(path)
        assert str(exc.value).startswith(f"{path}: {message}")

    def test_file_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"[system]\nsys text\ncaf\xe9\n")
        with pytest.raises(LoadError, match=r"not UTF-8 at line 3") as exc:
            load_templates(path)
        assert str(path) in str(exc.value)

    def test_section_shaped_text_stays_text(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(
            "[instruction:ranking]\n{query}\n[1] > [2]\n[ok]x\n[Bogus]\n", encoding="utf-8"
        )
        ranking, _ = load_templates(path)
        assert ranking.instruction_text == "{query}\n[1] > [2]\n[ok]x\n[Bogus]"

    @pytest.mark.parametrize(
        "passage,message",
        [
            ("[{index}] {text:{foo}}", "has a placeholder in the format spec of {text}"),
            ("[{index:s}] {text}", "does not format: Unknown format code 's'"),
            ("[{index}] {text!x}", "does not format: Unknown conversion specifier x"),
        ],
    )
    def test_bad_format_spec_fails_at_construction(self, passage, message):
        with pytest.raises(TemplateError, match=re.escape(f"[passage] section {message}")):
            PromptTemplate(
                name="ranking",
                system_text="s",
                per_passage_text=passage,
                instruction_text="{query}",
            )

    def test_braces_in_passage_text_are_safe(self):
        ranking, _ = default_templates()
        window = [Passage("d1", "literal {braces} and {query} inside")]
        prompt = render(ranking, QUERY, window)
        assert "literal {braces}" in prompt.user
