"""Acceptance suite: one test per release criterion, one printed line each.

Runs entirely on oracle, scripted and replay judges; no network or model
weights involved. Criteria with a stated runtime budget assert it.
"""

from __future__ import annotations

import itertools
import json
import random
import time

import pytest

from ragsift.annotate import (
    IMPROPER_FORMAT,
    MISSING_IDENTIFIERS,
    REPETITIVE,
    validate_generation,
)
from ragsift.cli import main
from ragsift.corpus import evidence_from_qrels, load_qrels, load_run
from ragsift.costsim import parse_profile_spec, simulate
from ragsift.judge import (
    RANKING,
    SELECTION,
    OracleJudge,
    canonical_text,
    parse_ranking,
    parse_selection,
    verdict_from_text,
)
from ragsift.metrics import MetricsReport, answer_em_f1, evidence_scores, ndcg_query
from ragsift.prompting import default_templates
from ragsift.windowing import (
    WindowConfig,
    plan_ranking_windows,
    rerank,
    select,
    window_count_bounds,
)
from tests.conftest import (
    QUERY,
    FuzzJudge,
    make_passages,
    make_qrels,
    random_flag_rows,
    random_unicode,
)
from tests.test_metrics import brute_force_ndcg


def _report(number: int, label: str, started: float) -> None:
    print(f"ACCEPTANCE {number} PASS ({time.perf_counter() - started:.2f}s): {label}")


def test_criterion_1_window_geometry():
    started = time.perf_counter()
    plan = plan_ranking_windows(WindowConfig(100, 20, 10))
    assert len(plan) == 9
    assert plan[0] == (80, 100) and plan[-1] == (0, 20)
    assert plan_ranking_windows(WindowConfig(8, 4, 2)) == [(4, 8), (2, 6), (0, 4)]
    assert time.perf_counter() - started < 1.0
    _report(1, "ranking window plans match the published geometry", started)


def test_criterion_2_selection_cost_bounds():
    started = time.perf_counter()
    cfg = WindowConfig(100, 20, 10)
    lo, hi = window_count_bounds(cfg)
    assert (lo, hi) == (5, 9)

    never = simulate(cfg, parse_profile_spec("never", cfg.depth, 2000, 1)[0])
    assert never.mean_windows == float(lo) and never.histogram == {5: 2000}
    always = simulate(cfg, parse_profile_spec("always", cfg.depth, 2000, 1)[0])
    assert always.mean_windows == float(hi) and always.histogram == {9: 2000}

    rng = random.Random(2024)
    trials_done = 0
    while trials_done < 10_000:
        kind = rng.random()
        if kind < 0.4:
            spec = f"bernoulli:{rng.random()}"
            rows, _ = parse_profile_spec(spec, cfg.depth, 500, rng.randint(0, 10_000))
        else:
            rows = random_flag_rows(rng, cfg.depth, 500)
        report = simulate(cfg, rows)
        assert all(lo <= count <= hi for count in report.histogram)
        trials_done += report.trials

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(2, f"{trials_done} Monte Carlo trials stayed within [{lo}, {hi}]", started)


def test_criterion_3_oracle_selection_completeness_exhaustive():
    started = time.perf_counter()
    templates = default_templates()
    runs = 0
    for m in range(1, 13):
        passages = make_passages(m)
        configs = []
        for w in range(1, 6):
            if m <= w:
                configs.append(WindowConfig(m, w, 1))
            else:
                configs.extend(WindowConfig(m, w, s) for s in range(1, w))
        for grades in itertools.product((0, 1), repeat=m):
            qrels = make_qrels(QUERY.query_id, {p.doc_id: g for p, g in zip(passages, grades)})
            judge = OracleJudge(qrels)
            expected = {p.doc_id for p, g in zip(passages, grades) if g >= 1}
            for cfg in configs:
                result = select(QUERY, passages, judge, cfg, templates)
                assert set(result.selected_ids) == expected
                assert len(set(result.selected_ids)) == len(result.selected_ids)
                seen: set[str] = set()
                for rec in result.trace.windows:
                    queue = set(rec.queue_after or ())
                    assert seen <= queue
                    seen = queue
                runs += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(3, f"final queue equals the grade>=1 set in all {runs} exhaustive runs", started)


def test_criterion_4_ranking_head_correctness_and_permutation_safety():
    started = time.perf_counter()
    templates = default_templates()
    rng = random.Random(41)
    for _ in range(1000):
        m = rng.randint(2, 50)
        w = rng.randint(2, 20)
        s = rng.randint(1, w - 1)
        grades = rng.sample(range(10_000), m)
        passages = make_passages(m)
        qrels = make_qrels(QUERY.query_id, {p.doc_id: g for p, g in zip(passages, grades)})
        result = rerank(QUERY, passages, OracleJudge(qrels), WindowConfig(m, w, s), templates)
        head = min(w - s, m)
        expected = [
            passages[i].doc_id for i in sorted(range(m), key=lambda i: -grades[i])[:head]
        ]
        assert result.ranked_ids[:head] == expected

    judge = FuzzJudge(seed=4242)
    cfg = WindowConfig(24, 6, 3)
    windows_fuzzed = 0
    while windows_fuzzed < 10_000:
        passages = make_passages(24)
        result = rerank(QUERY, passages, judge, cfg, templates)
        assert sorted(result.ranked_ids) == sorted(p.doc_id for p in passages)
        windows_fuzzed += len(result.trace.windows)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(
        4,
        f"1000 oracle heads exact; permutation safety over {windows_fuzzed} fuzzed windows",
        started,
    )


def test_criterion_5_parser_totality_and_repair_fixtures():
    started = time.perf_counter()
    rng = random.Random(777)
    for case in range(100_000):
        text = random_unicode(rng)
        n = rng.randint(1, 30)
        permutation, _ = parse_ranking(text, n)
        assert sorted(permutation) == list(range(1, n + 1))
        selected, _, _ = parse_selection(text, n)
        assert len(set(selected)) == len(selected)
        assert all(1 <= i <= n for i in selected)

    assert parse_ranking("[2] > [2] > [5]", 3) == (
        [2, 1, 3],
        ["dedup", "out_of_range_dropped", "missing_appended"],
    )
    assert parse_ranking("ranking: 1,3,2", 3) == ([1, 3, 2], ["free_text_stripped"])
    assert parse_selection("Useful passages are [4] and [4] and [9]", 5) == (
        [4],
        None,
        ["dedup", "out_of_range_dropped", "free_text_stripped"],
    )
    _report(5, "100000 fuzz cases total; repair fixtures tag exactly", started)


def test_criterion_6_metrics_golden_suite():
    started = time.perf_counter()
    rng = random.Random(606)
    for _ in range(1000):
        n = rng.randint(1, 8)
        grades = [rng.randint(0, 3) for _ in range(n)]
        k = rng.randint(1, 10)
        doc_ids = [f"d{i}" for i in range(n)]
        shuffled = doc_ids[:]
        rng.shuffle(shuffled)
        grade_map = dict(zip(doc_ids, grades))
        expected = brute_force_ndcg([grade_map[d] for d in shuffled], grades, k)
        assert abs(ndcg_query(shuffled, grade_map, k) - expected) < 1e-9

    assert round(ndcg_query(["a", "b"], {"a": 0, "b": 3}, 2), 4) == 0.6309
    _, f1 = answer_em_f1("the cat sat", ["cat sat down"])
    assert round(f1, 4) == round(2 / 3, 4)
    ev = MetricsReport(evidence=evidence_scores({"q1": ["d1", "d2"]}, {"q1": {"d1"}}))
    assert round(ev.aggregates()["evidence_micro_f1"], 4) == round(2 / 3, 4)
    _report(6, "nDCG matches brute force on 1000 instances; fixtures hit at 4 decimals", started)


def test_criterion_7_annotation_filter():
    started = time.perf_counter()
    n = 4
    fixtures = {
        "well_formed_ranking": ("[2] > [1] > [4] > [3]", RANKING, True, []),
        "improper_ranking": ("the order should be 2 1 4 3", RANKING, False, [IMPROPER_FORMAT]),
        "missing_ids_ranking": ("[2] > [1]", RANKING, False, [MISSING_IDENTIFIERS]),
        "repetitive_ranking": (
            "[1] > [1] > [1] > [1]",
            RANKING,
            False,
            [MISSING_IDENTIFIERS, REPETITIVE],
        ),
        "well_formed_selection": ("alpha is the answer\nSelected: [1], [3]", SELECTION, True, []),
        "repetitive_selection": ("answer\nSelected: [1], [1]", SELECTION, False, [REPETITIVE]),
        "improper_selection": ("I pick some of them", SELECTION, False, [IMPROPER_FORMAT]),
    }
    for name, (text, kind, want_pass, want_defects) in fixtures.items():
        passed, defects = validate_generation(text, kind, n)
        assert passed == want_pass, name
        assert defects == want_defects, name
        if passed:
            verdict = verdict_from_text(text, kind, n)
            reparsed = verdict_from_text(canonical_text(verdict), kind, n)
            assert reparsed.repairs == ()
            assert reparsed.permutation == verdict.permutation
            assert reparsed.selected == verdict.selected
    _report(7, "teacher outputs partition into the three defect classes", started)


@pytest.fixture(scope="module")
def mini_e2e(tmp_path_factory, mini_dir):
    """Shared end-to-end artifacts for criterion 8."""
    root = tmp_path_factory.mktemp("e2e")
    flags = [
        "--corpus",
        str(mini_dir / "corpus.jsonl"),
        "--queries",
        str(mini_dir / "queries.jsonl"),
        "--run",
        str(mini_dir / "run.trec"),
        "--qrels",
        str(mini_dir / "qrels.txt"),
        "--judge",
        "oracle",
        "--depth",
        "10",
        "--w",
        "4",
        "--s",
        "2",
    ]
    outputs = {}
    for name, parallel in (("serial", 1), ("parallel", 4), ("repeat", 1)):
        rr_out = root / f"rerank_{name}"
        sel_out = root / f"select_{name}"
        assert main(["rerank", *flags, "--parallel", str(parallel), "--out", str(rr_out)]) == 0
        assert main(["select", *flags, "--parallel", str(parallel), "--out", str(sel_out)]) == 0
        ev_out = root / f"eval_{name}"
        assert (
            main(
                [
                    "evaluate",
                    "--selection",
                    str(sel_out / "selected.jsonl"),
                    "--qrels",
                    str(mini_dir / "qrels.txt"),
                    "--out",
                    str(ev_out),
                ]
            )
            == 0
        )
        outputs[name] = (rr_out, sel_out, ev_out)
    return root, outputs


def test_criterion_8_end_to_end_determinism_and_selection_wins(mini_e2e, mini_dir):
    started = time.perf_counter()
    _, outputs = mini_e2e

    baseline = outputs["serial"]
    for variant in ("parallel", "repeat"):
        other = outputs[variant]
        assert (baseline[0] / "run.trec").read_bytes() == (other[0] / "run.trec").read_bytes()
        assert (baseline[1] / "selected.jsonl").read_bytes() == (
            other[1] / "selected.jsonl"
        ).read_bytes()
        assert (baseline[2] / "report.json").read_bytes() == (
            other[2] / "report.json"
        ).read_bytes()
        assert (baseline[2] / "per_query.tsv").read_bytes() == (
            other[2] / "per_query.tsv"
        ).read_bytes()

    qrels = load_qrels(mini_dir / "qrels.txt")
    gold = evidence_from_qrels(qrels)

    reranked = load_run(baseline[0] / "run.trec", max_depth=10)
    cut_scores = []
    for k in range(1, 11):
        cut_sel = {qid: cl.ids[:k] for qid, cl in reranked.items()}
        cut_scores.append(
            MetricsReport(evidence=evidence_scores(cut_sel, gold)).aggregates()["evidence_micro_f1"]
        )
    best_cut = max(cut_scores)

    report = json.loads((baseline[2] / "report.json").read_text())
    selection_micro_f1 = report["aggregates"]["evidence_micro_f1"]
    assert selection_micro_f1 >= best_cut
    assert selection_micro_f1 == 1.0  # the oracle selects exactly the gold set

    _report(
        8,
        f"byte-stable outputs; selection micro-F1 {selection_micro_f1:.4f} >= "
        f"best top-k {best_cut:.4f}",
        started,
    )
