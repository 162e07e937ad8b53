from __future__ import annotations

import json
import random
import re
from collections import Counter

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from ragsift.corpus import LoadError, Query
from ragsift.costsim import parse_profile_spec, profile_from_trace, ranking_cost, simulate
from ragsift.judge import OracleJudge
from ragsift.windowing import WindowConfig, select, trace_lines, window_count_bounds
from tests.conftest import QUERY, make_passages, make_qrels, random_flag_rows


CFG = WindowConfig(100, 20, 10)


def bernoulli(p: float, trials: int, seed: int, depth: int = CFG.depth):
    rows, fields = parse_profile_spec(f"bernoulli:{p}", depth, trials, seed)
    assert fields == {"seed": seed}
    return rows


class TestProfiles:
    def test_bernoulli_probability_range(self):
        with pytest.raises(ValueError, match="bernoulli:P with 0 <= P <= 1"):
            bernoulli(1.5, trials=10, seed=0)

    def test_replay_follows_the_carry_and_fill_arithmetic(self):
        # depth 10, w 4, s 2: window 1 takes ranks 1-4 and selects 1 and 2, so
        # every later window carries 2 and takes 2 fresh: 1 + 3 windows
        flags = [True, True] + [False] * 8
        assert simulate(WindowConfig(10, 4, 2), [flags]).histogram == {4: 1}
        # selecting only rank 4 carries 1 into window 2 (3 fresh: 5-7), which
        # selects 7; window 3 then carries 2 and takes 8-9, window 4 rank 10
        flags = [False, False, False, True, False, False, True, False, False, False]
        assert simulate(WindowConfig(10, 4, 2), [flags]).histogram == {4: 1}
        # nothing selected: every window takes 4 fresh candidates
        assert simulate(WindowConfig(10, 4, 2), [[False] * 10]).histogram == {3: 1}

    def test_parse_profile_specs(self, tmp_path):
        def rows(spec):
            return [list(row) for row in parse_profile_spec(spec, 5, 3, 0)[0]]

        assert rows("never") == [[False] * 5] * 3
        assert rows("always") == [[True] * 5] * 3
        # the seeded draws, one per rank in order
        rng = random.Random(0)
        assert rows("bernoulli:0.3") == [[rng.random() < 0.3 for _ in range(5)] for _ in range(3)]
        # any existing file is read as a select trace, whatever its suffix
        path = tmp_path / "hist.json"
        path.write_text('{"counts": {"0": 1.0}}\n', encoding="utf-8")
        with pytest.raises(LoadError, match="line 1 is not a selection window"):
            parse_profile_spec(str(path), 100, 10, 0)


class TestSimulate:
    def test_never_profile_hits_min_exactly(self):
        report = simulate(CFG, bernoulli(0.0, trials=200, seed=1))
        assert report.mean_windows == 5.0
        assert report.ci95 == (5.0, 5.0)
        assert report.histogram == {5: 200}

    def test_always_profile_hits_max_exactly(self):
        report = simulate(CFG, bernoulli(1.0, trials=200, seed=1))
        assert report.mean_windows == 9.0
        assert report.histogram == {9: 200}

    def test_saturated_queue_after_first_window_pins_max(self):
        # at least the stride selected in the first window: carry saturates immediately
        rng = random.Random(3)
        rows = [[True] * 10 + [rng.random() < 0.5 for _ in range(90)] for _ in range(300)]
        assert simulate(CFG, rows).histogram == {9: 300}

    def test_counts_stay_in_bounds(self):
        lo, hi = window_count_bounds(CFG)
        for p in (0.02, 0.1, 0.5, 0.9):
            report = simulate(CFG, bernoulli(p, trials=500, seed=7))
            assert all(lo <= c <= hi for c in report.histogram)

    def test_random_histograms_stay_in_bounds(self):
        rng = random.Random(13)
        lo, hi = window_count_bounds(CFG)
        for _ in range(10):
            report = simulate(CFG, random_flag_rows(rng, CFG.depth, 300))
            assert all(lo <= c <= hi for c in report.histogram)

    def test_same_seed_same_histogram(self):
        a = simulate(CFG, bernoulli(0.2, trials=500, seed=42))
        b = simulate(CFG, bernoulli(0.2, trials=500, seed=42))
        assert a.histogram == b.histogram
        assert a.mean_windows == b.mean_windows

    def test_ci_brackets_mean(self):
        report = simulate(CFG, bernoulli(0.05, trials=2000, seed=11))
        assert report.ci95[0] <= report.mean_windows <= report.ci95[1]

    def test_no_rows_is_refused(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            simulate(CFG, bernoulli(0.5, trials=0, seed=0))


@st.composite
def flagged_geometry(draw):
    flags = draw(st.lists(st.booleans(), min_size=1, max_size=60))
    window_size = draw(st.integers(2, 25))
    stride = draw(st.integers(1, window_size - 1))
    return WindowConfig(len(flags), window_size, stride), flags


@settings(max_examples=200, deadline=None)
@given(flagged_geometry())
def test_replay_takes_the_engines_window_count(case):
    cfg, flags = case
    passages = make_passages(cfg.depth)
    grades = {p.doc_id: 1 for p, useful in zip(passages, flags) if useful}
    result = select(QUERY, passages, OracleJudge(make_qrels(QUERY.query_id, grades)), cfg)
    windows = len(result.trace.windows)
    assert simulate(cfg, [flags]).histogram == {windows: 1}
    lo, hi = window_count_bounds(cfg)
    assert lo <= windows <= hi


def write_oracle_trace(path, seed: int, relevance: float, cfg: WindowConfig = CFG):
    """Write an oracle ``select`` trace of 300 queries at ``cfg``, each passage relevant
    with probability ``relevance``; a seed draws the same relevance at any geometry."""
    rng = random.Random(seed)
    passages = make_passages(cfg.depth)
    with path.open("w", encoding="utf-8") as fh:
        for i in range(300):
            qid = f"q{i}"
            qrels = make_qrels(qid, {p.doc_id: 1 for p in passages if rng.random() < relevance})
            result = select(Query(qid, "what is it"), passages, OracleJudge(qrels), cfg)
            fh.write(trace_lines(result.trace))
    return path


def windows_per_query(path) -> list[int]:
    """Each query's window count in a trace, in the order the queries first appear."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return list(Counter(json.loads(line)["query_id"] for line in lines).values())


@pytest.fixture(scope="module")
def oracle_trace(tmp_path_factory):
    return write_oracle_trace(tmp_path_factory.mktemp("trace") / "trace.jsonl", 17, 0.04)


class TestProfileFromTrace:
    def test_prediction_within_five_percent_of_observed(self, oracle_trace):
        rows, observed, _ = profile_from_trace(oracle_trace, CFG.depth)
        report = simulate(CFG, rows)
        assert abs(report.mean_windows / observed - 1) < 0.05
        # at the trace's own geometry the replay is exact
        assert report.mean_windows == observed and report.trials == 300

    def test_flags_are_kept_per_candidate_rank(self, oracle_trace):
        rows, observed, dropped = profile_from_trace(oracle_trace, CFG.depth)
        assert len(rows) == 300 and all(len(row) == CFG.depth for row in rows)
        assert observed == sum(windows_per_query(oracle_trace)) / 300
        # the oracle reselects every carried passage
        assert dropped == 0.0

    @pytest.mark.parametrize("w, s", [(10, 5), (10, 8), (20, 5), (30, 15)])
    def test_one_trace_predicts_other_geometries_query_by_query(self, tmp_path, w, s):
        # the same seed grades the same passages relevant at every geometry
        fit = write_oracle_trace(tmp_path / "fit.jsonl", 19, 0.08)
        target = WindowConfig(CFG.depth, w, s)
        observed = write_oracle_trace(tmp_path / "observed.jsonl", 19, 0.08, target)
        rows, _, _ = profile_from_trace(fit, CFG.depth)
        assert windows_per_query(fit) != windows_per_query(observed)
        predicted = [simulate(target, [row]).mean_windows for row in rows]
        assert predicted == windows_per_query(observed)

    def test_fit_on_one_trace_predicts_another(self, tmp_path):
        fit = write_oracle_trace(tmp_path / "fit.jsonl", 17, 0.08)
        held_out = write_oracle_trace(tmp_path / "held_out.jsonl", 18, 0.08)
        rows, _, _ = profile_from_trace(fit, CFG.depth)
        _, observed, _ = profile_from_trace(held_out, CFG.depth)
        report = simulate(CFG, rows)
        assert abs(report.mean_windows / observed - 1) < 0.015

    def test_no_query_at_depth_is_refused(self, oracle_trace):
        with pytest.raises(LoadError, match="no query in the trace saw --depth 50"):
            profile_from_trace(oracle_trace, 50)

    def test_ids_of_either_json_type_load(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        window = {"query_id": "q", "carried": [], "fresh": [1, "b", 3, "d"]}
        path.write_text(json.dumps({**window, "verdict": {"selected": [1, 3]}}) + "\n")
        assert profile_from_trace(path, 4) == ([[True, False, True, False]], 1.0, 0.0)

    def test_carried_dropped_share_of_a_hand_written_trace(self, tmp_path):
        windows = [
            # q: carried a dropped, b kept; fresh e selected
            ("q", [], ["a", "b", "c", "d"], [1, 2]),
            ("q", ["a", "b"], ["e", "f"], [2, 3]),
            # r: the one carried passage kept, no fresh one selected
            ("r", [], ["a", "b", "c", "d"], [4]),
            ("r", ["d"], ["e", "f"], [1]),
            # s saw 3 fresh candidates, not 6, so its dropped passage is left out
            ("s", ["z"], ["a", "b", "c"], []),
        ]
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "".join(
                json.dumps({"query_id": q, "carried": c, "fresh": f, "verdict": {"selected": v}})
                + "\n"
                for q, c, f, v in windows
            )
        )
        rows, observed, dropped = profile_from_trace(path, 6)
        assert rows == [[True, True, False, False, True, False], [False, False, False, True, False, False]]
        assert observed == 2.0
        assert dropped == 1 / 3

    @pytest.mark.parametrize(
        "field, value",
        [
            ("selected", [True, 2.5]),
            ("selected", [True]),
            ("selected", [2.5]),
            ("selected", ["1"]),
            ("selected", "12"),
            ("selected", None),
            ("carried", "xyz"),
            ("carried", [None]),
            ("fresh", "abcd"),
            ("fresh", [1.5, 2, 3, 4]),
            ("fresh", {"a": 1, "b": 2, "c": 3, "d": 4}),
            ("selected", [3, 3]),
            ("selected", [9]),
            ("selected", [0]),
            ("query_id", 7),
            ("query_id", None),
        ],
    )
    def test_field_of_the_wrong_type_is_refused(self, tmp_path, field, value):
        window = {"query_id": "q", "carried": [], "fresh": ["a", "b", "c", "d"], "selected": [1]}
        window[field] = value
        window["verdict"] = {"selected": window.pop("selected")}
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(window) + "\n")
        with pytest.raises(LoadError, match=re.escape(f"{path}: line 1 is not a selection window")):
            profile_from_trace(path, 4)


class TestRankingCost:
    @pytest.mark.parametrize(
        "cfg,expected",
        [(WindowConfig(100, 20, 10), 9), (WindowConfig(8, 4, 2), 3), (WindowConfig(10, 20, 10), 1)],
    )
    def test_fixtures(self, cfg, expected):
        assert ranking_cost(cfg) == expected

