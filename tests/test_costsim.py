from __future__ import annotations

import json
import random

import pytest

from ragsift.corpus import LoadError, Query
from ragsift.costsim import (
    SelectionProfile,
    load_profile,
    parse_profile_spec,
    profile_from_trace,
    ranking_cost,
    simulate,
)
from ragsift.judge import OracleJudge
from ragsift.windowing import WindowConfig, select, trace_lines, window_count_bounds
from tests.conftest import make_passages, make_qrels


CFG = WindowConfig(100, 20, 10)


class TestProfiles:
    def test_histogram_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            SelectionProfile.from_histogram({0: 0.5, 1: 0.4})

    def test_bernoulli_probability_range(self):
        with pytest.raises(ValueError):
            SelectionProfile.bernoulli(1.5)

    def test_support_beyond_window_rejected_at_simulate(self):
        profile = SelectionProfile.from_histogram({25: 1.0})
        with pytest.raises(ValueError, match="support"):
            simulate(CFG, profile, trials=10, seed=0)

    def test_load_profile_file(self, tmp_path):
        path = tmp_path / "hist.json"
        path.write_text(json.dumps({"counts": {"0": 0.25, "3": 0.75}}), encoding="utf-8")
        profile = load_profile(path)
        assert profile.kind == "histogram"
        assert profile.max_support() == 3

    def test_parse_profile_specs(self):
        assert parse_profile_spec("never", 100) == (SelectionProfile.bernoulli(0.0), None)
        assert parse_profile_spec("always", 100) == (SelectionProfile.bernoulli(1.0), None)
        assert parse_profile_spec("bernoulli:0.3", 100) == (SelectionProfile.bernoulli(0.3), None)


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
        profile = SelectionProfile.from_histogram({10: 0.5, 15: 0.5})
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
            support = rng.sample(range(0, 21), rng.randint(1, 5))
            weights = [rng.random() for _ in support]
            total = sum(weights)
            profile = SelectionProfile.from_histogram(
                {c: w / total for c, w in zip(support, weights)}
            )
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


@pytest.fixture(scope="module")
def oracle_trace(tmp_path_factory):
    """An oracle ``select`` trace of 300 queries at CFG, each passage relevant with p 0.04."""
    rng = random.Random(17)
    passages = make_passages(CFG.depth)
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for i in range(300):
            qid = f"q{i}"
            qrels = make_qrels(qid, {p.doc_id: 1 for p in passages if rng.random() < 0.04})
            result = select(Query(qid, "what is it"), passages, OracleJudge(qrels), CFG)
            fh.write(trace_lines(result.trace))
    return path


class TestProfileFromTrace:
    def test_prediction_within_five_percent_of_observed(self, oracle_trace):
        profile, observed = profile_from_trace(oracle_trace, CFG.depth)
        assert profile.kind == "histogram"
        report = simulate(CFG, profile, trials=5000, seed=0)
        assert abs(report.mean_windows / observed - 1) < 0.05

    def test_no_query_at_depth_is_refused(self, oracle_trace):
        with pytest.raises(LoadError, match="no query in the trace saw --depth 50"):
            profile_from_trace(oracle_trace, 50)


class TestRankingCost:
    @pytest.mark.parametrize(
        "cfg,expected",
        [(WindowConfig(100, 20, 10), 9), (WindowConfig(8, 4, 2), 3), (WindowConfig(10, 20, 10), 1)],
    )
    def test_fixtures(self, cfg, expected):
        assert ranking_cost(cfg) == expected

