from __future__ import annotations

import math
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ragsift.corpus import Passage, Query
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


def whitespace_token_count(text: str) -> int:
    # independent oracle for truncation checks
    return len(text.split())


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


def scan_truncate_exact(text: str, tokens: int, count) -> str:
    """Reference for the ``count_tokens`` path: try every whitespace cut, then every hard cut.

    The longest non-empty whitespace-bounded prefix within budget wins; without one, the
    longest character prefix within budget.
    """
    if count(text) <= tokens:
        return text
    cuts = [text[:i].rstrip() for i, c in enumerate(text) if c.isspace()]
    fits = [cut for cut in cuts if cut and count(cut) <= tokens]
    if fits:
        return max(fits, key=len)
    return max((text[:e] for e in range(len(text) + 1) if count(text[:e]) <= tokens), key=len)


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
    def test_long_passage_within_token_budget(self):
        text = ("word " * 2500)[:10000]
        budget = PromptBudget(per_passage_tokens=300, count_tokens=whitespace_token_count)
        out = truncate_text(text, budget)
        assert whitespace_token_count(out) <= 300
        assert text.startswith(out)
        # cut lands on a whitespace boundary: next original char is whitespace
        assert text[len(out)].isspace()

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

    @pytest.mark.parametrize(
        "text, count_tokens, kept",
        [
            (" " + "x" * 100, lambda t: math.ceil(len(t) / 4), 40),
            ("  " + "x" * 100, lambda t: math.ceil(len(t) / 4), 40),
            ("x" * 100, len, 10),
            (" \n" + "x" * 100, len, 10),
        ],
    )
    def test_exact_counter_hard_cut_is_longest_prefix_within_budget(self, text, count_tokens, kept):
        out = truncate_text(text, PromptBudget(per_passage_tokens=10, count_tokens=count_tokens))
        assert out == text[:kept]

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(alphabet=TRUNCATION_ALPHABET, max_size=60),
        st.integers(1, 30),
        st.sampled_from([len, whitespace_token_count, lambda t: math.ceil(len(t) / 4)]),
    )
    @example("  " + "x" * 20, 3, len)  # whitespace, then a token over budget
    @example("ab" + " " * 5 + "cd", 3, len)  # a whitespace run across the limit
    @example("abc def", 3, len)  # whitespace right after the limit
    def test_exact_counter_matches_scan_reference(self, text, tokens, count_tokens):
        budget = PromptBudget(per_passage_tokens=tokens, count_tokens=count_tokens)
        out = truncate_text(text, budget)
        assert out == scan_truncate_exact(text, tokens, count_tokens)

    @settings(max_examples=150, deadline=None)
    @given(st.text(min_size=0, max_size=400), st.integers(1, 40))
    def test_truncation_is_a_prefix_within_budget(self, text, tokens):
        budget = PromptBudget(per_passage_tokens=tokens, count_tokens=whitespace_token_count)
        out = truncate_text(text, budget)
        assert text.startswith(out)
        assert whitespace_token_count(out) <= tokens


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

    def test_braces_in_passage_text_are_safe(self):
        ranking, _ = default_templates()
        window = [Passage("d1", "literal {braces} and {query} inside")]
        prompt = render(ranking, QUERY, window)
        assert "literal {braces}" in prompt.user
