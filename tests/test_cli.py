from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ragsift
from ragsift.cli import main
from ragsift.corpus import load_run
from ragsift.windowing import read_selection_file


def _mini_flags(mini_dir, extra=()):
    return [
        "--corpus",
        str(mini_dir / "corpus.jsonl"),
        "--queries",
        str(mini_dir / "queries.jsonl"),
        "--run",
        str(mini_dir / "run.trec"),
        "--qrels",
        str(mini_dir / "qrels.txt"),
        *extra,
    ]


def _rerank(mini_dir, out, extra=()):
    return main(
        [
            "rerank",
            *_mini_flags(mini_dir),
            "--judge",
            "oracle",
            "--depth",
            "10",
            "--w",
            "4",
            "--s",
            "2",
            "--out",
            str(out),
            *extra,
        ]
    )


class TestRerankCommand:
    def test_writes_run_trace_manifest(self, mini_dir, tmp_path):
        out = tmp_path / "out"
        assert _rerank(mini_dir, out, ["--trace"]) == 0
        run = load_run(out / "run.trec", max_depth=10)
        assert len(run) == 20
        assert (out / "trace.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "rerank"
        assert manifest["parameters"]["w"] == 4
        assert "sha256" in manifest["inputs"]["corpus"]

    def test_deterministic_across_runs(self, mini_dir, tmp_path):
        assert _rerank(mini_dir, tmp_path / "a") == 0
        assert _rerank(mini_dir, tmp_path / "b") == 0
        assert (tmp_path / "a" / "run.trec").read_bytes() == (
            tmp_path / "b" / "run.trec"
        ).read_bytes()

    def test_manifest_records_geometry(self, mini_dir, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "rerank",
                *_mini_flags(mini_dir),
                "--judge",
                "oracle",
                "--w",
                "20",
                "--s",
                "10",
                "--depth",
                "100",
                "--out",
                str(out),
            ]
        )
        params = json.loads((out / "manifest.json").read_text())["parameters"]
        assert (params["depth"], params["w"], params["s"]) == (100, 20, 10)


class TestSelectCommand:
    def test_oracle_selection_matches_qrels_positives(self, mini_dir, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "select",
                *_mini_flags(mini_dir),
                "--judge",
                "oracle",
                "--depth",
                "10",
                "--w",
                "4",
                "--s",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        selected = read_selection_file(out / "selected.jsonl")
        gold = {}
        for line in (mini_dir / "evidence.jsonl").read_text().splitlines():
            rec = json.loads(line)
            gold[rec["query_id"]] = set(rec["evidence"])
        assert len(selected) == 20
        for qid, ids in selected.items():
            assert set(ids) == gold[qid]

    def test_replay_transcript_reproduces_bytes(self, mini_dir, tmp_path):
        first = tmp_path / "first"
        transcript = tmp_path / "transcript.jsonl"
        args = [
            "select",
            *_mini_flags(mini_dir),
            "--depth",
            "10",
            "--w",
            "4",
            "--s",
            "2",
        ]
        assert main(args + ["--judge", "oracle", "--transcript", str(transcript), "--out", str(first)]) == 0

        second = tmp_path / "second"
        assert main(args + ["--judge", "replay", "--transcript", str(transcript), "--out", str(second)]) == 0
        assert (first / "selected.jsonl").read_bytes() == (second / "selected.jsonl").read_bytes()

    def test_empty_transcript_aborts_with_exit_2(self, mini_dir, tmp_path, capsys):
        transcript = tmp_path / "empty.jsonl"
        transcript.write_text("", encoding="utf-8")
        code = main(
            [
                "select",
                *_mini_flags(mini_dir),
                "--judge",
                "replay",
                "--transcript",
                str(transcript),
                "--depth",
                "10",
                "--w",
                "4",
                "--s",
                "2",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "aborted queries" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_selection_evidence_metrics(self, mini_dir, tmp_path):
        sel_out = tmp_path / "sel"
        main(
            [
                "select",
                *_mini_flags(mini_dir),
                "--judge",
                "oracle",
                "--depth",
                "10",
                "--w",
                "4",
                "--s",
                "2",
                "--out",
                str(sel_out),
            ]
        )
        eval_out = tmp_path / "eval"
        code = main(
            [
                "evaluate",
                "--selection",
                str(sel_out / "selected.jsonl"),
                "--evidence",
                str(mini_dir / "evidence.jsonl"),
                "--out",
                str(eval_out),
            ]
        )
        assert code == 0
        report = json.loads((eval_out / "report.json").read_text())
        assert report["aggregates"]["evidence_micro_f1"] == 1.0

    def test_answers_em_f1(self, mini_dir, tmp_path):
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate",
                "--predictions",
                str(mini_dir / "predictions.jsonl"),
                "--answers",
                str(mini_dir / "answers.jsonl"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 < report["aggregates"]["em"] < 1.0
        assert report["aggregates"]["f1"] >= report["aggregates"]["em"]

    def test_ndcg_on_run(self, mini_dir, tmp_path):
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate",
                "--run",
                str(mini_dir / "run.trec"),
                "--qrels",
                str(mini_dir / "qrels.txt"),
                "--ndcg-k",
                "10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 < report["aggregates"]["ndcg@10"] <= 1.0

    def test_top_k_cut_as_evidence(self, mini_dir, tmp_path):
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate",
                "--run",
                str(mini_dir / "run.trec"),
                "--k",
                "5",
                "--qrels",
                str(mini_dir / "qrels.txt"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 < report["aggregates"]["evidence_micro_f1"] < 1.0

    def test_missing_gold_names_gap(self, mini_dir, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--predictions",
                str(mini_dir / "predictions.jsonl"),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 1
        assert "--answers" in capsys.readouterr().err

    def test_nothing_requested_fails(self, tmp_path, capsys):
        assert main(["evaluate", "--out", str(tmp_path / "x")]) == 1


class TestAnnotateCommand:
    def test_oracle_ranking_annotation(self, mini_dir, tmp_path):
        out = tmp_path / "ann"
        code = main(
            [
                "annotate",
                *_mini_flags(mini_dir),
                "--judge",
                "oracle",
                "--kind",
                "ranking",
                "--depth",
                "10",
                "--w",
                "20",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "train.jsonl").read_text().splitlines()
        assert len(lines) == 20
        first = json.loads(lines[0])
        assert first["messages"][2]["content"].count(">") == 9

    def test_replayed_annotation_deterministic(self, mini_dir, tmp_path):
        transcript = tmp_path / "teacher.jsonl"
        args = [
            "annotate",
            *_mini_flags(mini_dir),
            "--kind",
            "ranking",
            "--depth",
            "10",
            "--w",
            "20",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--judge", "oracle", "--transcript", str(transcript), "--out", str(a)]) == 0
        assert main(args + ["--judge", "replay", "--transcript", str(transcript), "--out", str(b)]) == 0
        assert (a / "train.jsonl").read_bytes() == (b / "train.jsonl").read_bytes()

    def test_replay_gaps_become_transport_records(self, mini_dir, tmp_path):
        args = ["annotate", *_mini_flags(mini_dir), "--kind", "ranking", "--depth", "4", "--w", "4"]
        full, gappy = tmp_path / "full.jsonl", tmp_path / "gappy.jsonl"
        record = ["--judge", "oracle", "--transcript", str(full), "--out", str(tmp_path / "rec")]
        assert main(args + record) == 0
        # recorded at --parallel 1, so line i answers the i-th query in id order
        lines = full.read_text(encoding="utf-8").splitlines(keepends=True)
        dropped = {1, 4, 5, 13}
        kept = [line for i, line in enumerate(lines) if i not in dropped]
        gappy.write_text("".join(kept), encoding="utf-8")
        queries = (mini_dir / "queries.jsonl").read_text(encoding="utf-8").splitlines()
        query_ids = sorted(json.loads(line)["query_id"] for line in queries)

        outputs = []
        for parallel in ("1", "4"):
            out = tmp_path / f"replay{parallel}"
            replay = ["--judge", "replay", "--transcript", str(gappy), "--parallel", parallel]
            assert main(args + replay + ["--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in ("train.jsonl", "rejected.jsonl")])
        assert outputs[0] == outputs[1]

        train, rejected = (blob.decode("utf-8").splitlines() for blob in outputs[0])
        assert len(train) == len(query_ids) - len(dropped)
        records = [json.loads(line) for line in rejected]
        assert [r["query_id"] for r in records] == [query_ids[i] for i in sorted(dropped)]
        assert all(r["defects"] == ["transport"] for r in records)


class TestSimulateCommand:
    @pytest.mark.parametrize("profile,expected", [("never", 5.0), ("always", 9.0)])
    def test_parametric_endpoints(self, tmp_path, profile, expected):
        out = tmp_path / profile
        code = main(
            [
                "simulate",
                "--profile",
                profile,
                "--trials",
                "200",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "cost_report.json").read_text())
        assert report["mean_windows"] == expected
        assert report["ranking_windows"] == 9

    def test_histogram_profile_within_bounds(self, tmp_path):
        hist = tmp_path / "hist.json"
        hist.write_text(json.dumps({"counts": {"0": 0.4, "4": 0.6}}), encoding="utf-8")
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--profile", str(hist), "--trials", "500", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "cost_report.json").read_text())
        lo, hi = report["bounds"]
        assert lo <= report["mean_windows"] <= hi


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        # the child imports the same package as this process, installed or not
        source_root = str(Path(ragsift.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "ragsift", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert "ragsift" in result.stdout

    def test_bad_input_exit_1(self, tmp_path, capsys):
        code = main(
            [
                "rerank",
                "--corpus",
                str(tmp_path / "missing.jsonl"),
                "--queries",
                str(tmp_path / "missing.jsonl"),
                "--run",
                str(tmp_path / "missing.trec"),
                "--judge",
                "oracle",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 1
