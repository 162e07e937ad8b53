from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragsift.corpus import Query
from ragsift.judge import RANKING, SELECTION, Judge, OracleJudge, verdict_from_text
from ragsift.windowing import (
    PreselectedQueue,
    WindowConfig,
    cut,
    plan_ranking_windows,
    rerank,
    select,
    window_count_bounds,
)
from tests.conftest import (
    QUERY,
    AlwaysSelectJudge,
    FuzzJudge,
    NeverSelectJudge,
    ScriptedSelectionJudge,
    make_passages,
    make_qrels,
)


class TestWindowConfig:
    def test_stride_must_be_below_window_when_deep(self):
        with pytest.raises(ValueError):
            WindowConfig(depth=100, window_size=10, stride=10)

    def test_stride_ignored_when_single_window(self):
        cfg = WindowConfig(depth=10, window_size=20, stride=10)
        assert plan_ranking_windows(cfg) == [(0, 10)]

    def test_all_fields_positive(self):
        with pytest.raises(ValueError):
            WindowConfig(depth=0, window_size=5, stride=1)


class TestPlanRankingWindows:
    def test_figure_geometry(self):
        assert plan_ranking_windows(WindowConfig(8, 4, 2)) == [(4, 8), (2, 6), (0, 4)]

    def test_default_geometry_nine_windows(self):
        plan = plan_ranking_windows(WindowConfig(100, 20, 10))
        assert len(plan) == 9
        assert [start for start, _ in plan] == [80, 70, 60, 50, 40, 30, 20, 10, 0]

    def test_single_window_when_shallow(self):
        assert plan_ranking_windows(WindowConfig(10, 20, 10)) == [(0, 10)]

    def test_clamped_final_window(self):
        # 9 candidates: starts 5, 3, 1 then clamp to 0
        assert plan_ranking_windows(WindowConfig(9, 4, 2)) == [(5, 9), (3, 7), (1, 5), (0, 4)]

    def test_every_position_covered(self):
        for depth, w, s in [(8, 4, 2), (100, 20, 10), (33, 7, 3), (9, 4, 2)]:
            plan = plan_ranking_windows(WindowConfig(depth, w, s))
            covered = set()
            for start, end in plan:
                covered.update(range(start, end))
            assert covered == set(range(depth))


def _grades_qrels(grades: list[int]) -> tuple:
    passages = make_passages(len(grades))
    qrels = make_qrels(QUERY.query_id, {p.doc_id: g for p, g in zip(passages, grades)})
    return passages, qrels


class TestRerank:
    def test_sorted_input_is_fixed_point(self):
        passages, qrels = _grades_qrels([9, 8, 7, 6, 5, 4, 3, 2])
        result = rerank(QUERY, passages, OracleJudge(qrels), WindowConfig(8, 4, 2))
        assert result.ranked_ids == [p.doc_id for p in passages]

    def test_tail_max_bubbles_to_head(self):
        passages, qrels = _grades_qrels([0, 0, 0, 0, 0, 0, 0, 3])
        result = rerank(QUERY, passages, OracleJudge(qrels), WindowConfig(8, 4, 2))
        assert result.ranked_ids[0] == "d8"
        assert result.trace.window_count == 3

    def test_output_is_permutation_of_input(self):
        passages, qrels = _grades_qrels([1, 0, 2, 0, 3, 1, 0, 2, 1, 0])
        result = rerank(QUERY, passages, OracleJudge(qrels), WindowConfig(10, 4, 2))
        assert sorted(result.ranked_ids) == sorted(p.doc_id for p in passages)

    def test_permutation_safety_under_fuzzing(self):
        judge = FuzzJudge(seed=11)
        for trial in range(40):
            passages = make_passages(random.Random(trial).randint(1, 25))
            result = rerank(QUERY, passages, judge, WindowConfig(len(passages), 6, 3))
            assert sorted(result.ranked_ids) == sorted(p.doc_id for p in passages)

    def test_head_correctness_with_distinct_grades(self):
        rng = random.Random(7)
        for _ in range(50):
            m = rng.randint(2, 40)
            w = rng.randint(2, 20)
            s = rng.randint(1, w - 1)
            grades = rng.sample(range(1000), m)
            passages, qrels = _grades_qrels(grades)
            result = rerank(QUERY, passages, OracleJudge(qrels), WindowConfig(m, w, s))
            by_grade = sorted(
                range(m), key=lambda i: -grades[i]
            )
            expected_head = [passages[i].doc_id for i in by_grade[: min(w - s, m)]]
            assert result.ranked_ids[: len(expected_head)] == expected_head

    def test_fresh_positions_partition_candidates(self):
        passages, qrels = _grades_qrels([0, 1, 2, 3, 4, 5, 6, 7, 8])
        result = rerank(QUERY, passages, OracleJudge(qrels), WindowConfig(9, 4, 2))
        fresh = [d for rec in result.trace.windows for d in rec.fresh]
        assert sorted(fresh) == sorted(p.doc_id for p in passages)

    def test_window_count_matches_plan_exactly(self):
        passages, qrels = _grades_qrels([0] * 20)
        cfg = WindowConfig(20, 6, 3)
        result = rerank(QUERY, passages, OracleJudge(qrels), cfg)
        assert result.trace.window_count == len(plan_ranking_windows(cfg))


class OtherKindJudge(Judge):
    """Answers every window with a valid verdict of the other task."""

    def judge(self, prompt):
        kind = SELECTION if prompt.kind == RANKING else RANKING
        return verdict_from_text("[1]", kind, prompt.n)


@pytest.mark.parametrize(
    "engine, asked, answered", [(rerank, RANKING, SELECTION), (select, SELECTION, RANKING)]
)
def test_verdict_of_the_other_kind_is_refused(engine, asked, answered):
    cfg = WindowConfig(depth=5, window_size=5, stride=1)
    with pytest.raises(ValueError, match=f"a {asked} window with a {answered} verdict"):
        engine(QUERY, make_passages(5), OtherKindJudge(), cfg)


class TestSelect:
    def test_never_select_uses_min_windows(self):
        passages = make_passages(8)
        result = select(QUERY, passages, NeverSelectJudge(), WindowConfig(8, 4, 2))
        assert result.selected_ids == []
        assert result.trace.window_count == 2
        assert [len(r.fresh) for r in result.trace.windows] == [4, 4]

    def test_select_everything_uses_max_windows(self):
        passages = make_passages(8)
        result = select(QUERY, passages, AlwaysSelectJudge(), WindowConfig(8, 4, 2))
        assert result.trace.window_count == 3
        assert sorted(result.selected_ids) == sorted(p.doc_id for p in passages)
        assert [len(r.carried) for r in result.trace.windows] == [0, 2, 2]
        assert [len(r.fresh) for r in result.trace.windows] == [4, 2, 2]

    def test_queue_prepend_dedup_keeps_first_occurrence(self):
        # queue [C, A]; next verdict emits [B, C]; queue must become [B, C, A]
        passages = make_passages(4)
        a, _, c, b = (p.doc_id for p in passages)
        judge = ScriptedSelectionJudge([[c, a], [b, c]])
        result = select(QUERY, passages, judge, WindowConfig(4, 3, 2))
        assert result.trace.windows[0].queue_after == (c, a)
        assert result.trace.windows[1].carried == (c, a)
        assert result.trace.windows[1].queue_after == (b, c, a)
        assert result.selected_ids == [b, c, a]

    def test_oracle_selection_matches_positives(self):
        passages, qrels = _grades_qrels([0, 1, 0, 2, 0, 0, 3, 0, 1, 0])
        result = select(QUERY, passages, OracleJudge(qrels), WindowConfig(10, 4, 2))
        assert set(result.selected_ids) == qrels.positives(QUERY.query_id)

    def test_membership_is_monotone_and_duplicate_free(self):
        passages, qrels = _grades_qrels([1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1])
        result = select(QUERY, passages, OracleJudge(qrels), WindowConfig(12, 4, 2))
        previous: set[str] = set()
        for rec in result.trace.windows:
            queue = list(rec.queue_after or ())
            assert len(set(queue)) == len(queue)
            assert previous <= set(queue)
            previous = set(queue)

    def test_every_candidate_fresh_exactly_once(self):
        passages, _ = _grades_qrels([1, 0] * 6)
        result = select(QUERY, passages, AlwaysSelectJudge(), WindowConfig(12, 5, 2))
        fresh = [d for rec in result.trace.windows for d in rec.fresh]
        assert sorted(fresh) == sorted(p.doc_id for p in passages)
        assert len(fresh) == len(set(fresh))

    def test_window_count_within_bounds_under_fuzzing(self):
        judge = FuzzJudge(seed=3)
        for m, w, s in [(20, 5, 2), (17, 6, 3), (30, 8, 4), (5, 8, 4)]:
            passages = make_passages(m)
            cfg = WindowConfig(m, w, s)
            result = select(QUERY, passages, judge, cfg)
            lo, hi = window_count_bounds(cfg)
            assert lo <= result.trace.window_count <= hi
            # every window follows the advance arithmetic the bounds are derived from
            queue_len, remaining = 0, m
            for rec in result.trace.windows:
                assert len(rec.carried) == min(s, queue_len)
                assert len(rec.fresh) == min(w - len(rec.carried), remaining)
                queue_len = len(rec.queue_after)
                remaining -= len(rec.fresh)
            assert remaining == 0

    def test_pseudo_answers_one_per_window(self):
        passages = make_passages(8)
        result = select(QUERY, passages, AlwaysSelectJudge(), WindowConfig(8, 4, 2))
        assert len(result.pseudo_answers) == result.trace.window_count
        assert result.pseudo_answers[0] == "everything helps"

    def test_last_short_window_still_judged(self):
        # 7 candidates, w=4, s=2, never select: windows of 4 then 3
        passages = make_passages(7)
        result = select(QUERY, passages, NeverSelectJudge(), WindowConfig(7, 4, 2))
        assert [len(r.fresh) for r in result.trace.windows] == [4, 3]


class TestWindowCountBounds:
    @pytest.mark.parametrize(
        "cfg,expected",
        [
            (WindowConfig(100, 20, 10), (5, 9)),
            (WindowConfig(8, 4, 2), (2, 3)),
            (WindowConfig(10, 20, 10), (1, 1)),
        ],
    )
    def test_fixtures(self, cfg, expected):
        assert window_count_bounds(cfg) == expected

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 40), st.integers(2, 12), st.data())
    def test_bounds_hold_for_oracle_runs(self, m, w, data):
        s = data.draw(st.integers(1, w - 1))
        grades = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
        passages, qrels = _grades_qrels(grades)
        cfg = WindowConfig(m, w, s)
        result = select(QUERY, passages, OracleJudge(qrels), cfg)
        lo, hi = window_count_bounds(cfg)
        assert lo <= result.trace.window_count <= hi


class TestCut:
    def test_prefix(self):
        assert cut([f"d{i}" for i in range(100)], 5) == ["d0", "d1", "d2", "d3", "d4"]

    def test_full_length_is_identity(self):
        ids = ["a", "b", "c"]
        assert cut(ids, 3) == ids

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            cut(["a"], 0)

    def test_beyond_length_rejected(self):
        with pytest.raises(ValueError):
            cut(["a", "b"], 3)


_doc_ids = st.lists(st.sampled_from([f"d{i}" for i in range(12)]), max_size=8)


class TestPreselectedQueue:
    def test_prepend_block_then_dedup(self):
        queue = PreselectedQueue(["c", "a"])
        queue.prepend(["b", "c"])
        assert queue.to_list() == ["b", "c", "a"]

    def test_head_and_len(self):
        queue = PreselectedQueue(["x", "y", "z"])
        assert queue.head(2) == ["x", "y"]
        assert queue.head(10) == ["x", "y", "z"]
        assert len(queue) == 3

    def test_reselecting_member_moves_nothing_out(self):
        queue = PreselectedQueue(["a", "b"])
        queue.prepend(["b"])
        assert queue.to_list() == ["b", "a"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_doc_ids, max_size=6))
    def test_unique_and_monotone_under_any_prepend_sequence(self, blocks):
        queue = PreselectedQueue()
        members: set[str] = set()
        for block in blocks:
            queue.prepend(block)
            ids = queue.to_list()
            assert len(set(ids)) == len(ids)
            assert members <= set(ids)
            assert set(ids) == members | set(block)
            # the new block occupies the head, in emission order
            fresh_first = [d for d in dict.fromkeys(block)]
            assert ids[: len(fresh_first)] == fresh_first
            members = set(ids)


class TestTraceTotals:
    def test_counters(self):
        passages, qrels = _grades_qrels([1, 0, 2, 0, 1, 0, 0, 2])
        result = rerank(QUERY, passages, OracleJudge(qrels), WindowConfig(8, 4, 2))
        assert result.trace.window_count == len(result.trace.windows)
        assert result.trace.prompt_char_count > 0

    def test_queries_differ(self):
        passages, qrels = _grades_qrels([1, 0, 2, 0])
        other = Query(query_id="q2", text="another")
        res_a = select(QUERY, passages, OracleJudge(qrels), WindowConfig(4, 2, 1))
        res_b = select(other, passages, OracleJudge(qrels), WindowConfig(4, 2, 1))
        assert res_a.trace.query_id == "q1" and res_b.trace.query_id == "q2"
