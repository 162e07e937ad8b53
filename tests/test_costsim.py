from __future__ import annotations

import json
import random
import re
from collections import Counter

import pytest

from ragsift.corpus import LoadError, Query
from ragsift.costsim import (
    SelectionProfile,
    parse_profile_spec,
    profile_from_trace,
    ranking_cost,
    simulate,
)
from ragsift.judge import OracleJudge
from ragsift.windowing import WindowConfig, select, trace_lines, window_count_bounds
from tests.conftest import make_passages, make_qrels, random_profile


CFG = WindowConfig(100, 20, 10)


class TestProfiles:
    def test_bernoulli_probability_range(self):
        with pytest.raises(ValueError):
            SelectionProfile.bernoulli(1.5)

    def test_window_past_the_deepest_index_uses_the_last(self):
        # window 0 selects none and every later window 3, so the carry grows 0, 3,
        # 6, 9 and saturates after window 4: 7 windows (6 if later windows drew 0)
        profile = SelectionProfile(by_window=((0,), (3,)))
        assert simulate(CFG, profile, trials=100, seed=0).histogram == {7: 100}
        # a count above the window's fresh count is clamped to it
        assert SelectionProfile(by_window=((25,),)).draw(random.Random(0), 7, 10) == 10

    def test_parse_profile_specs(self, tmp_path):
        assert parse_profile_spec("never", 100) == (SelectionProfile.bernoulli(0.0), None)
        assert parse_profile_spec("always", 100) == (SelectionProfile.bernoulli(1.0), None)
        assert parse_profile_spec("bernoulli:0.3", 100) == (SelectionProfile.bernoulli(0.3), None)
        # any existing file is read as a select trace, whatever its suffix
        path = tmp_path / "hist.json"
        path.write_text('{"counts": {"0": 1.0}}\n', encoding="utf-8")
        with pytest.raises(LoadError, match="line 1 is not a selection window"):
            parse_profile_spec(str(path), 100)


class TestSimulate:
    def test_never_profile_hits_min_exactly(self):
        report = simulate(CFG, SelectionProfile.bernoulli(0.0), trials=200, seed=1)
        assert report.mean_windows == 5.0
        assert report.ci95 == (5.0, 5.0)
        assert report.histogram == {5: 200}

    def test_always_profile_hits_max_exactly(self):
        report = simulate(CFG, SelectionProfile.bernoulli(1.0), trials=200, seed=1)
        assert report.mean_windows == 9.0
        assert report.histogram == {9: 200}

    def test_saturated_queue_after_first_window_pins_max(self):
        # at least the stride selected every window: carry saturates immediately
        profile = SelectionProfile(by_window=((10, 15),))
        report = simulate(CFG, profile, trials=300, seed=3)
        assert report.histogram == {9: 300}

    def test_counts_stay_in_bounds(self):
        lo, hi = window_count_bounds(CFG)
        for p in (0.02, 0.1, 0.5, 0.9):
            report = simulate(CFG, SelectionProfile.bernoulli(p), trials=500, seed=7)
            assert all(lo <= c <= hi for c in report.histogram)

    def test_random_histograms_stay_in_bounds(self):
        rng = random.Random(13)
        lo, hi = window_count_bounds(CFG)
        for _ in range(10):
            profile = random_profile(rng, CFG.window_size)
            report = simulate(CFG, profile, trials=300, seed=rng.randint(0, 999))
            assert all(lo <= c <= hi for c in report.histogram)

    def test_same_seed_same_histogram(self):
        profile = SelectionProfile.bernoulli(0.2)
        a = simulate(CFG, profile, trials=500, seed=42)
        b = simulate(CFG, profile, trials=500, seed=42)
        assert a.histogram == b.histogram
        assert a.mean_windows == b.mean_windows

    def test_ci_brackets_mean(self):
        report = simulate(CFG, SelectionProfile.bernoulli(0.05), trials=2000, seed=11)
        assert report.ci95[0] <= report.mean_windows <= report.ci95[1]


def write_oracle_trace(path, seed: int, relevance: float):
    """Write an oracle ``select`` trace of 300 queries at CFG, each passage relevant
    with probability ``relevance``."""
    rng = random.Random(seed)
    passages = make_passages(CFG.depth)
    with path.open("w", encoding="utf-8") as fh:
        for i in range(300):
            qid = f"q{i}"
            qrels = make_qrels(qid, {p.doc_id: 1 for p in passages if rng.random() < relevance})
            result = select(Query(qid, "what is it"), passages, OracleJudge(qrels), CFG)
            fh.write(trace_lines(result.trace))
    return path


@pytest.fixture(scope="module")
def oracle_trace(tmp_path_factory):
    return write_oracle_trace(tmp_path_factory.mktemp("trace") / "trace.jsonl", 17, 0.04)


class TestProfileFromTrace:
    def test_prediction_within_five_percent_of_observed(self, oracle_trace):
        profile, observed = profile_from_trace(oracle_trace, CFG.depth)
        assert profile.by_window
        report = simulate(CFG, profile, trials=5000, seed=0)
        assert abs(report.mean_windows / observed - 1) < 0.05

    def test_counts_are_kept_per_window_index(self, oracle_trace):
        profile, observed = profile_from_trace(oracle_trace, CFG.depth)
        # every query has a first window; only the longest reach the deepest index
        assert len(profile.by_window[0]) == 300
        lines = oracle_trace.read_text(encoding="utf-8").splitlines()
        windows = Counter(json.loads(line)["query_id"] for line in lines)
        assert len(profile.by_window) == max(windows.values())
        assert sum(map(len, profile.by_window)) / 300 == observed

    def test_fit_on_one_trace_predicts_another(self, tmp_path):
        # the first window draws from 20 fresh slots and later ones from 10, so a
        # single histogram pooled over every window predicts too few windows
        fit = write_oracle_trace(tmp_path / "fit.jsonl", 17, 0.08)
        held_out = write_oracle_trace(tmp_path / "held_out.jsonl", 18, 0.08)
        profile, _ = profile_from_trace(fit, CFG.depth)
        _, observed = profile_from_trace(held_out, CFG.depth)
        report = simulate(CFG, profile, trials=5000, seed=0)
        assert abs(report.mean_windows / observed - 1) < 0.015

    def test_no_query_at_depth_is_refused(self, oracle_trace):
        with pytest.raises(LoadError, match="no query in the trace saw --depth 50"):
            profile_from_trace(oracle_trace, 50)

    def test_ids_of_either_json_type_load(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        window = {"query_id": "q", "carried": [], "fresh": [1, "b", 3, "d"]}
        path.write_text(json.dumps({**window, "verdict": {"selected": [1, 3]}}) + "\n")
        assert profile_from_trace(path, 4) == (SelectionProfile(by_window=((2,),)), 1.0)

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

