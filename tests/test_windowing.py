from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragsift.corpus import Query
from ragsift.judge import (
    RANKING,
    SELECTION,
    Judge,
    JudgeVerdict,
    OracleJudge,
    canonical_selection_text,
    verdict_from_text,
)
from ragsift.windowing import (
    WindowConfig,
    plan_ranking_windows,
    rerank,
    select,
    selection_line,
    trace_lines,
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
        for field in ("depth", "window_size", "stride"):
            with pytest.raises(ValueError, match="must all be positive"):
                WindowConfig(**{"depth": 8, "window_size": 5, "stride": 1, field: 0})


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
        assert len(result.trace.windows) == 3

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
        assert len(result.trace.windows) == len(plan_ranking_windows(cfg))


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


class CallLimitJudge(Judge):
    """Delegates to ``inner``, counting calls; fails past ``limit`` calls instead of looping."""

    def __init__(self, inner: Judge, limit: int = 100):
        self.inner = inner
        self.limit = limit
        self.calls = 0

    def judge(self, prompt):
        self.calls += 1
        if self.calls > self.limit:
            raise AssertionError(f"judged more than {self.limit} windows")
        return self.inner.judge(prompt)


@pytest.mark.parametrize("engine", [rerank, select])
def test_more_candidates_than_depth_at_a_wide_stride_is_refused(engine):
    # valid for depth 10 (one window), but 30 candidates need stride < window_size:
    # unchecked, select would judge windows of carried passages only, without end
    judge = CallLimitJudge(AlwaysSelectJudge())
    with pytest.raises(ValueError, match=r"stride \(25\) must be smaller than window_size \(20\)"):
        engine(QUERY, make_passages(30), judge, WindowConfig(10, 20, 25))
    assert judge.calls == 0


class TestSelect:
    def test_never_select_uses_min_windows(self):
        passages = make_passages(8)
        result = select(QUERY, passages, NeverSelectJudge(), WindowConfig(8, 4, 2))
        assert result.selected_ids == []
        assert len(result.trace.windows) == 2
        assert [len(r.fresh) for r in result.trace.windows] == [4, 4]

    def test_select_everything_uses_max_windows(self):
        passages = make_passages(8)
        result = select(QUERY, passages, AlwaysSelectJudge(), WindowConfig(8, 4, 2))
        assert len(result.trace.windows) == 3
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
        assert set(result.selected_ids) == {d for d, g in qrels[QUERY.query_id].items() if g >= 1}

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
            assert lo <= len(result.trace.windows) <= hi
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
        line = json.loads(selection_line(QUERY.query_id, result))
        assert line["windows"] == len(result.trace.windows) == 3
        assert line["pseudo_answers"] == ["everything helps"] * 3

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
        assert lo <= len(result.trace.windows) <= hi


class PickingJudge(Judge):
    """Selects window-local ids that hypothesis draws, in the drawn order."""

    def __init__(self, data):
        self.data = data

    def judge(self, prompt):
        picks = st.lists(st.integers(1, prompt.n), unique=True, max_size=prompt.n)
        selected = tuple(self.data.draw(picks))
        return JudgeVerdict(
            kind=SELECTION, raw_text=canonical_selection_text(selected), selected=selected
        )


class TestPreselectedQueue:
    """``select``'s queue: newest block first, duplicate-free, membership monotone."""

    def test_prepend_block_then_dedup(self):
        d1, d2, d3, d4, d5, d6 = (p.doc_id for p in make_passages(6))
        judge = ScriptedSelectionJudge([[d3, d1], [d4, d1], [d5], []])
        result = select(QUERY, make_passages(6), judge, WindowConfig(6, 3, 2))
        queues = [rec.queue_after for rec in result.trace.windows]
        assert queues == [(d3, d1), (d4, d1, d3), (d5, d4, d1, d3), (d5, d4, d1, d3)]
        assert result.selected_ids == [d5, d4, d1, d3]

    def test_head_and_len(self):
        # a queue shorter than the stride is carried whole, a longer one by its head
        d1, d2, _, _, d5, _, d7, d8, d9 = (p.doc_id for p in make_passages(9))
        judge = ScriptedSelectionJudge([[d2], [d7, d5, d2], [d8], []])
        result = select(QUERY, make_passages(9), judge, WindowConfig(9, 4, 3))
        assert [rec.carried for rec in result.trace.windows] == [
            (),
            (d2,),
            (d7, d5, d2),
            (d8, d7, d5),
        ]
        assert [len(rec.queue_after) for rec in result.trace.windows] == [1, 3, 4, 4]
        assert result.selected_ids == [d8, d7, d5, d2]

    def test_reselecting_member_moves_nothing_out(self):
        d1, d2, *_ = (p.doc_id for p in make_passages(5))
        judge = ScriptedSelectionJudge([[d1, d2], [d2], []])
        result = select(QUERY, make_passages(5), judge, WindowConfig(5, 3, 2))
        assert [rec.queue_after for rec in result.trace.windows] == [
            (d1, d2),
            (d2, d1),
            (d2, d1),
        ]
        assert result.selected_ids == [d2, d1]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 30), st.integers(2, 8), st.data())
    def test_unique_and_monotone_under_any_prepend_sequence(self, m, w, data):
        s = data.draw(st.integers(1, w - 1))
        result = select(QUERY, make_passages(m), PickingJudge(data), WindowConfig(m, w, s))
        previous: tuple[str, ...] = ()
        for rec in result.trace.windows:
            queue = rec.queue_after
            picks = tuple((rec.carried + rec.fresh)[i - 1] for i in rec.verdict.selected)
            assert len(set(queue)) == len(queue)
            assert set(previous) <= set(queue)
            # this window's picks head the queue in emission order, the previous queue follows
            assert queue[: len(picks)] == picks
            assert queue[len(picks) :] == tuple(d for d in previous if d not in picks)
            assert rec.carried == previous[: min(s, len(previous))]
            previous = queue
        assert result.selected_ids == list(previous)


class TestTraceTotals:
    def test_counters(self):
        # one record per judged window, counted alike in selected.jsonl and trace.jsonl
        passages, qrels = _grades_qrels([1, 0, 2, 0, 1, 0, 0, 2])
        judge = CallLimitJudge(OracleJudge(qrels))
        result = select(QUERY, passages, judge, WindowConfig(8, 4, 2))
        assert len(result.trace.windows) == judge.calls == 3
        assert json.loads(selection_line(QUERY.query_id, result))["windows"] == judge.calls
        lines = trace_lines(result.trace).splitlines()
        assert [json.loads(line)["window_index"] for line in lines] == list(range(judge.calls))

    def test_queries_differ(self):
        passages, qrels = _grades_qrels([1, 0, 2, 0])
        other = Query(query_id="q2", text="another")
        res_a = select(QUERY, passages, OracleJudge(qrels), WindowConfig(4, 2, 1))
        res_b = select(other, passages, OracleJudge(qrels), WindowConfig(4, 2, 1))
        assert res_a.trace.query_id == "q1" and res_b.trace.query_id == "q2"
