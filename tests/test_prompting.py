from __future__ import annotations

import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ragsift.corpus import LoadError, Passage, Query
from ragsift.prompting import (
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
        budget = PromptBudget(per_passage_tokens=50, chars_per_token=4.0)
        long_window = [Passage(f"d{i}", "lorem ipsum " * 400) for i in range(n)]
        tiny_window = [Passage(f"d{i}", "x") for i in range(n)]
        rendered = render(ranking, QUERY, long_window, budget)
        fixed = render(ranking, QUERY, tiny_window, budget).char_count() - n
        assert rendered.char_count() <= fixed + n * 200


class TestTruncation:
    def test_char_approximation_budget(self):
        text = "word " * 2000
        out = truncate_text(text, PromptBudget(per_passage_tokens=300, chars_per_token=4.0))
        assert len(out) <= 1200
        assert not out.endswith(" ")
        assert text.startswith(out)

    def test_short_text_untouched(self):
        assert truncate_text("tiny", PromptBudget(per_passage_tokens=300)) == "tiny"

    def test_unbreakable_token_hard_cut(self):
        text = "x" * 5000
        out = truncate_text(text, PromptBudget(per_passage_tokens=10, chars_per_token=4.0))
        assert out == "x" * 40

    @pytest.mark.parametrize("lead", [" ", "  ", "\n\n", " \n\t"])
    def test_whitespace_led_unbreakable_token_hard_cut(self, lead):
        text = lead + "x" * 100
        out = truncate_text(text, PromptBudget(per_passage_tokens=10))
        assert out == text[:40]

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(alphabet=TRUNCATION_ALPHABET, max_size=60),
        st.integers(1, 12),
        st.sampled_from([1.0, 2.5, 4.0]),
    )
    @example("ab cd", 3, 4.0)  # under the limit
    @example("ab\ncd ef", 2, 3.0)  # the last whitespace is not a space
    @example("ab cd\tef", 2, 3.0)
    @example("\u3000" + "x" * 20, 3, 4.0)  # whitespace only at index 0
    @example("  " + "x" * 20, 3, 4.0)
    @example("x\u200by" * 10, 3, 4.0)  # no whitespace at all
    def test_char_budget_matches_scan_reference(self, text, tokens, chars_per_token):
        budget = PromptBudget(per_passage_tokens=tokens, chars_per_token=chars_per_token)
        out = truncate_text(text, budget)
        assert out == scan_truncate(text, int(tokens * chars_per_token))
        ranking, _ = default_templates()
        prompt = render(ranking, QUERY, [Passage("d1", text)], budget)
        assert prompt.user.startswith(f"[1] {out}\n\n")
        assert prompt.char_count() == len(prompt.full_text())


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

    def test_file_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"[system]\nsys text\ncaf\xe9\n")
        with pytest.raises(LoadError, match=r"not UTF-8 at line 3") as exc:
            load_templates(path)
        assert str(path) in str(exc.value)

    def test_braces_in_passage_text_are_safe(self):
        ranking, _ = default_templates()
        window = [Passage("d1", "literal {braces} and {query} inside")]
        prompt = render(ranking, QUERY, window)
        assert "literal {braces}" in prompt.user
