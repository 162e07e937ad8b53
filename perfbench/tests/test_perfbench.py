"""Tests of the benchmark itself: inputs, fault schedule, metric names and probes."""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import generate  # noqa: E402
import stub  # noqa: E402
import traced  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMALL = generate.DataSpec(queries=12, depth=10, corpus_ratio=3.0, length_median=120,
                          faults=(("503", 1), ("429", 1), ("malformed", 1)))


def _files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_generator_is_deterministic_for_a_seed(tmp_path):
    generate.generate(SMALL, 7, tmp_path / "a")
    generate.generate(SMALL, 7, tmp_path / "b")
    generate.generate(SMALL, 8, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a["corpus.jsonl"] != c["corpus.jsonl"]


def test_generated_inputs_are_consistent(tmp_path):
    meta = generate.generate(SMALL, 3, tmp_path)
    run = generate.read_run(tmp_path / "run.trec")
    corpus = [json.loads(line) for line in (tmp_path / "corpus.jsonl").open()]
    ids = {rec["doc_id"] for rec in corpus}
    referenced = {d for docs in run.values() for d in docs}
    assert len(run) == SMALL.queries
    assert all(len(docs) == len(set(docs)) == SMALL.depth for docs in run.values())
    assert referenced <= ids
    assert meta["passages"] == len(ids) == round(len(referenced) * SMALL.corpus_ratio)
    # the stub finds each passage by the doc id its text starts with
    assert all(rec["text"].split()[0] == rec["doc_id"] for rec in corpus)


def test_cached_inputs_are_reused(tmp_path):
    first = generate.ensure_inputs(SMALL, 5, tmp_path)
    stamp = (first / "corpus.jsonl").stat().st_mtime_ns
    assert generate.ensure_inputs(SMALL, 5, tmp_path) == first
    assert (first / "corpus.jsonl").stat().st_mtime_ns == stamp


def _deliver(plan: dict, streams: dict[str, list[str]], order: list[str]) -> dict:
    schedule = stub.FaultSchedule(plan)
    cursor = {q: 0 for q in streams}
    served = {}
    for qid in order:
        digest = streams[qid][cursor[qid]]
        cursor[qid] += 1
        fault = schedule.decide("ranking", qid, digest)
        if fault is not None:
            served[(qid, cursor[qid])] = fault
            # a faulted first attempt is retried with the same prompt
            assert schedule.decide("ranking", qid, digest) is None
    return served


def test_fault_schedule_does_not_depend_on_request_order():
    qids = [f"q{i}" for i in range(8)]
    plan = generate.fault_schedule(qids, seed=4, counts={"503": 2, "429": 2, "malformed": 2})
    streams = {q: [f"{q}-window{k}" for k in range(1, 10)] for q in qids}
    expected = {(q, k): c for q, (c, k) in plan["ranking"].items()}
    rng = random.Random(0)
    for _ in range(20):
        order = [q for q in qids for _ in range(9)]
        rng.shuffle(order)
        assert _deliver(plan, streams, order) == expected


def test_fault_schedule_is_seeded():
    qids = [f"q{i}" for i in range(50)]
    counts = {"503": 1, "429": 2, "malformed": 2}
    assert generate.fault_schedule(qids, 1, counts) == generate.fault_schedule(qids, 1, counts)
    assert generate.fault_schedule(qids, 1, counts) != generate.fault_schedule(qids, 2, counts)
    for kind_plan in generate.fault_schedule(qids, 1, counts).values():
        assert sorted(c for c, _ in kind_plan.values()) == ["429", "429", "503", "malformed", "malformed"]


def test_stub_answers_cover_every_repair_tag():
    from ragsift.annotate import validate_generation
    from ragsift.judge import verdict_from_text

    grades = [0, 2, 0, 1, 3, 0, 0, 1]
    seen = {"ranking": set(), "selection": set()}
    for i in range(2000):
        for kind in seen:
            text, mess = stub.answer(kind, grades, i / 2000)
            repairs = verdict_from_text(text, kind, len(grades)).repairs
            assert bool(repairs) == (mess != "clean"), (text, repairs)
            # the benchmark expects annotation to reject exactly the messy answers
            assert validate_generation(text, kind, len(grades))[0] == (mess == "clean"), text
            seen[kind].update(repairs)
    assert seen["ranking"] == {"dedup", "out_of_range_dropped", "missing_appended",
                               "free_text_stripped", "unparseable"}
    assert seen["selection"] == {"dedup", "out_of_range_dropped", "free_text_stripped",
                                 "unparseable"}


def test_metric_names_and_units_are_well_formed():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)


def test_traced_metrics_match_the_declared_per_layer_metrics():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    produced, _ = traced.layer_metrics(traced.Tracer(), 2, 0, [0.0])
    produced["stub.overhead_ms"] = (0.0, "ms")  # added by run.py
    assert {k: u for k, (_, u) in produced.items()} == declared


def test_missing_wrappers_are_reported_absent():
    tracer = traced.Tracer()
    tracer.function("ragsift.corpus", "no_such_function", "corpus")
    tracer.method(None, "judge", "judge", "judge.Gone.judge")
    assert tracer.absent == ["corpus.no_such_function", "judge.Gone.judge"]


def test_self_time_subtracts_covered_child_time():
    spans = [
        ["a", "cli", 0.0, 10.0, None, None, 1, None, None],
        ["b", "corpus", 1.0, 4.0, 0, None, 1, None, None],
        ["c", "corpus", 3.0, 6.0, 0, None, 2, None, None],  # overlaps b
        ["d", "judge", 2.0, 3.0, 1, None, 1, None, None],
    ]
    assert traced.self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def test_uninstall_restores_wrapped_functions():
    import ragsift.corpus

    orig = ragsift.corpus.load_run
    tracer = traced.Tracer()
    tracer.function("ragsift.corpus", "load_run", "corpus")
    assert ragsift.corpus.load_run is not orig
    tracer.uninstall()
    assert ragsift.corpus.load_run is orig


FAKE_JUDGE = """
class Judge:
    def {method}(self, prompt, kind, n):
        raise NotImplementedError

class OracleJudge(Judge):
    def {method}(self, prompt, kind, n):
        return kind
"""

FAKE_CLI = """
from ragsift.judge import OracleJudge

class Prompt:
    query_id, system, user = "q1", "ab", "cde"

def main(argv):
    OracleJudge().{method}(prompt=Prompt(), kind="ranking", n=3)
    return int(argv[0])
"""


@pytest.mark.parametrize("method", ["judge", "decide"])
def test_probe_survives_a_changed_judge_api(tmp_path, method):
    # a ragsift whose judge takes keyword arguments, or whose method was renamed
    pkg = tmp_path / "ragsift"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "judge.py").write_text(textwrap.dedent(FAKE_JUDGE.format(method=method)))
    (pkg / "cli.py").write_text(textwrap.dedent(FAKE_CLI.format(method=method)))
    stats = tmp_path / "probe.json"
    proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), str(stats), "2"],
                          env={**os.environ, "PYTHONPATH": str(tmp_path)}, timeout=60)
    assert proc.returncode == 2
    found = json.loads(stats.read_text())
    if method == "judge":
        assert found["attached"] is True
        assert found["per_query"]["q1"][2:] == [1, 5]
    else:
        assert found == {"attached": False, "per_query": {}}
