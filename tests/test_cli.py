from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ragsift
from ragsift import cli
from ragsift.cli import main
from ragsift.corpus import load_corpus, load_run
from ragsift.judge import OracleJudge, prompt_sha256
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


def _mini_copy(mini_dir, dest, corpus_lines=None, run_text=None):
    """Copy the mini dataset to ``dest``, replacing the corpus lines or the run."""
    dest.mkdir()
    for name in ("queries.jsonl", "run.trec", "qrels.txt"):
        shutil.copy(mini_dir / name, dest / name)
    if corpus_lines is None:
        shutil.copy(mini_dir / "corpus.jsonl", dest / "corpus.jsonl")
    else:
        (dest / "corpus.jsonl").write_text("".join(corpus_lines), encoding="utf-8")
    if run_text is not None:
        (dest / "run.trec").write_text(run_text, encoding="utf-8")
    return dest


def _padded_corpus_lines(mini_dir, pad=150):
    """The mini corpus between ``pad`` unreferenced passages on each side."""
    lines = (mini_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    padding = [
        json.dumps({"doc_id": f"pad{i}", "text": f"unreferenced passage {i}"}) + "\n"
        for i in range(2 * pad)
    ]
    return padding[:pad] + lines + padding[pad:]


class TestRerankCommand:
    def test_writes_run_trace_manifest(self, mini_dir, tmp_path):
        out = tmp_path / "out"
        assert _rerank(mini_dir, out, ["--trace"]) == 0
        run = load_run(out / "run.trec", max_depth=10)
        assert len(run) == 20
        assert (out / "trace.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest) == ["command", "created_utc", "inputs", "parameters", "version"]
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

    def test_run_loaded_once_for_k_and_ndcg(self, mini_dir, tmp_path, monkeypatch):
        calls = []

        def counting_load_run(*args, **kwargs):
            calls.append(args)
            return load_run(*args, **kwargs)

        monkeypatch.setattr("ragsift.cli.load_run", counting_load_run)
        flags = ["--run", str(mini_dir / "run.trec"), "--qrels", str(mini_dir / "qrels.txt")]
        code = main(["evaluate", *flags, "--k", "5", "--ndcg-k", "10", "--out", str(tmp_path)])
        assert code == 0
        assert len(calls) == 1


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
        # the bounds, exactly: pinned byte for byte
        report = {
            "bounds": [5, 9],
            "ci95": [expected, expected],
            "histogram": {str(int(expected)): 200},
            "mean_windows": expected,
            "ranking_windows": 9,
            "seed": 7,
            "trials": 200,
        }
        pinned = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert (out / "cost_report.json").read_bytes() == pinned.encode()

    @pytest.mark.parametrize(
        "spec", ["bernoulli:abc", "bernoulli:1.5", "bernoulli:nan", "nevr", "missing.json"]
    )
    def test_bad_profile_spec_exits_1_listing_forms(self, tmp_path, capsys, spec):
        code = main(["simulate", "--profile", spec, "--out", str(tmp_path / "sim")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: --profile {spec!r} is not one of: never, always, ")
        assert "bernoulli:P with 0 <= P <= 1, or a select trace.jsonl" in err
        assert "Traceback" not in err

    def test_trace_profile_report_is_pinned(self, mini_dir, tmp_path):
        geometry = ["--depth", "10", "--w", "4", "--s", "2"]
        run = tmp_path / "select"
        oracle = ["--judge", "oracle", "--trace", "--out", str(run)]
        assert main(["select", *_mini_flags(mini_dir), *geometry, *oracle]) == 0
        out = tmp_path / "sim"
        profile = ["--profile", str(run / "trace.jsonl"), "--trials", "500", "--seed", "0"]
        assert main(["simulate", *geometry, *profile, "--out", str(out)]) == 0
        # pinned byte for byte: the draw per window index, for a fixed trace and seed
        report = {
            "bounds": [3, 4],
            "ci95": [3.54485719875576, 3.63114280124424],
            "histogram": {"3": 206, "4": 294},
            "mean_windows": 3.588,
            "observed_windows": 3.65,
            "ranking_windows": 4,
            "seed": 0,
            "trials": 500,
        }
        pinned = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert (out / "cost_report.json").read_bytes() == pinned.encode()
        # the seed is recorded once, with the other options
        manifest = json.loads((out / "manifest.json").read_text())
        assert "seed" not in manifest and manifest["parameters"]["seed"] == 0

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            "import json",
            '{"counts": [0.5, 0.5]}',
            '{"counts": {"one": 0.5, "2": 0.5}}',
            '{"counts": {"0": "half", "2": 0.5}}',
            '{"counts": {"0": null, "2": 1.0}}',
            '{"counts": {"0": NaN}}',
            '{"counts": {"0": 0.4}}',
            "ranking-trace",
        ],
        ids=[
            "array", "not-json", "counts-array", "key", "value", "null", "nan", "sum",
            "ranking-trace",
        ],
    )
    def test_bad_profile_exits_1_naming_file(self, mini_dir, tmp_path, capsys, text):
        # every file is read as a select trace, so a JSON histogram is refused too
        hist = tmp_path / "hist.json"
        if text == "ranking-trace":
            assert _rerank(mini_dir, tmp_path / "rerank", ["--trace"]) == 0
            hist = tmp_path / "rerank" / "trace.jsonl"
        else:
            hist.write_text(text, encoding="utf-8")
        code = main(["simulate", "--profile", str(hist), "--out", str(tmp_path / "sim")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {hist}: ") and "line 1" in err, err
        if text.startswith(("{", "ranking")):
            assert err.startswith(f"error: {hist}: line 1 is not a selection window")
        assert "Traceback" not in err

    def test_trace_profile_observes_the_completed_queries(self, mini_dir, tmp_path):
        head = ["select", *_mini_flags(mini_dir), "--depth", "10", "--w", "4", "--s", "2"]
        transcript = tmp_path / "transcript.jsonl"
        clean = ["--judge", "oracle", "--transcript", str(transcript), "--out", str(tmp_path / "a")]
        assert main([*head, *clean]) == 0
        # a replay of a transcript with gaps aborts some queries part way
        lines = _transcript_lines(transcript)
        _write_lines(transcript, [line for i, line in enumerate(lines) if i not in (3, 17, 40)])
        run = tmp_path / "run"
        replay = ["--judge", "replay", "--transcript", str(transcript), "--out", str(run)]
        assert main([*head, "--trace", *replay]) == 2

        out = tmp_path / "sim"
        profile = ["--profile", str(run / "trace.jsonl"), "--trials", "500", "--out", str(out)]
        assert main(["simulate", "--depth", "10", "--w", "4", "--s", "2", *profile]) == 0
        report = json.loads((out / "cost_report.json").read_text())
        windows = [
            json.loads(line)["windows"]
            for line in (run / "selected.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert report["observed_windows"] == sum(windows) / len(windows)
        lo, hi = report["bounds"]
        assert lo <= report["mean_windows"] <= hi and report["ranking_windows"] == 4


# batch command -> (argv head, output files); the mini run references every
# passage at depth 10 and 80 of them at depth 4
BATCH_COMMANDS = {
    "rerank": (
        ["rerank", "--depth", "10", "--w", "4", "--s", "2", "--trace"],
        ["run.trec", "trace.jsonl"],
    ),
    "select": (
        ["select", "--depth", "10", "--w", "4", "--s", "2", "--trace"],
        ["selected.jsonl", "trace.jsonl"],
    ),
    "annotate-ranking": (
        ["annotate", "--kind", "ranking", "--depth", "4", "--w", "4"],
        ["train.jsonl", "rejected.jsonl"],
    ),
    "annotate-selection": (
        ["annotate", "--kind", "selection", "--depth", "4", "--w", "4"],
        ["train.jsonl", "rejected.jsonl"],
    ),
}


class TestReferencedCorpus:
    """Batch commands hold only the passages their run references."""

    @pytest.mark.parametrize("name", sorted(BATCH_COMMANDS))
    def test_unreferenced_passages_change_no_output(self, mini_dir, tmp_path, name):
        head, files = BATCH_COMMANDS[name]
        padded = _mini_copy(mini_dir, tmp_path / "padded", _padded_corpus_lines(mini_dir))
        outputs = []
        for data in (mini_dir, padded):
            out, transcript = tmp_path / f"out-{data.name}", tmp_path / f"{data.name}.jsonl"
            judge = ["--judge", "oracle", "--parallel", "1", "--transcript", str(transcript)]
            assert main([*head, *_mini_flags(data), *judge, "--out", str(out)]) == 0
            outputs.append([(out / f).read_bytes() for f in files] + [transcript.read_bytes()])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("name, depth", [("rerank", 10), ("annotate-ranking", 4)])
    def test_corpus_holds_only_run_passages(self, mini_dir, tmp_path, monkeypatch, name, depth):
        loaded = []

        def spy(*args, **kwargs):
            loaded.append(load_corpus(*args, **kwargs))
            return loaded[-1]

        monkeypatch.setattr("ragsift.cli.load_corpus", spy)
        padded = _mini_copy(mini_dir, tmp_path / "padded", _padded_corpus_lines(mini_dir))
        head, _ = BATCH_COMMANDS[name]
        assert main([*head, *_mini_flags(padded), "--out", str(tmp_path / "out")]) == 0
        run = load_run(padded / "run.trec", max_depth=depth)
        assert len(loaded[0]) == len({d for cl in run.values() for d in cl.doc_ids()})

    @pytest.mark.parametrize("command", ["rerank", "select", "annotate"])
    def test_run_id_missing_from_corpus_exits_1(self, mini_dir, tmp_path, capsys, command):
        run_text = (mini_dir / "run.trec").read_text(encoding="utf-8")
        first = run_text.splitlines()[0]
        qid, _, doc_id = first.split()[:3]
        run_text = run_text.replace(first, first.replace(f" {doc_id} ", " absent "), 1)
        data = _mini_copy(mini_dir, tmp_path / "data", run_text=run_text)
        head = [command, "--kind", "ranking"] if command == "annotate" else [command]
        code = main([*head, *_mini_flags(data), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "1 candidate doc_ids do not resolve in the corpus" in err
        assert f"{qid}:absent" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["rerank", "select", "annotate"])
    @pytest.mark.parametrize(
        "line",
        ['{"doc_id": "pad9",', '{"doc_id": "pad9", "text": ""}', '{"doc_id": "pad0", "text": "again"}'],
        ids=["bad-json", "empty-text", "duplicate"],
    )
    def test_malformed_unreferenced_passage_exits_1(self, mini_dir, tmp_path, capsys, command, line):
        lines = _padded_corpus_lines(mini_dir, pad=2)
        lines.insert(1, line + "\n")
        data = _mini_copy(mini_dir, tmp_path / "data", lines)
        head = [command, "--kind", "ranking"] if command == "annotate" else [command]
        code = main([*head, *_mini_flags(data), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert str(data / "corpus.jsonl") in err
        assert "line 2" in err
        assert "Traceback" not in err


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "flag, line",
        [
            ("selection", '{"query_id": "q1"}'),
            ("transcript", '{"prompt_sha256": "ab"}'),
            ("transcript", "not json"),
            # a live judge checks the transcript it would append to, too
            ("recorded-transcript", '{"prompt_sha256": "ab"}'),
            ("recorded-transcript", "not json"),
        ],
        ids=[
            "selection-missing-field",
            "transcript-missing-field",
            "transcript-bad-json",
            "recorded-transcript-missing-field",
            "recorded-transcript-bad-json",
        ],
    )
    def test_bad_line_exits_1_naming_file_and_line(self, mini_dir, tmp_path, capsys, flag, line):
        bad = tmp_path / f"{flag}.jsonl"
        bad.write_text(line + "\n", encoding="utf-8")
        if flag == "selection":
            command = ["evaluate", "--selection", str(bad), "--qrels", str(mini_dir / "qrels.txt")]
        else:
            judge = "replay" if flag == "transcript" else "oracle"
            command = ["select", *_mini_flags(mini_dir), "--judge", judge, "--transcript", str(bad)]
        code = main([*command, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bad}: ")
        assert "line 1" in err
        assert "Traceback" not in err
        assert bad.read_text(encoding="utf-8") == line + "\n"


    @pytest.mark.parametrize("name", ["corpus.jsonl", "run.trec"])
    def test_undecodable_byte_exits_1_naming_file_and_line(self, mini_dir, tmp_path, capsys, name):
        data = _mini_copy(mini_dir, tmp_path / "data")
        lines = (data / name).read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:-2] + b"\xe9" + lines[2][-2:]
        (data / name).write_bytes(b"".join(lines))
        out = tmp_path / "out"
        assert main(["select", *_mini_flags(data), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data / name}: not UTF-8 at line 3: ")
        assert "Traceback" not in err
        assert not out.exists()


class BrokenOracle(OracleJudge):
    """The oracle, except that it raises a non-transport error on the third query."""

    def judge(self, prompt):
        if prompt.query_id == "q003":
            raise ValueError("judge broke on q003")
        return super().judge(prompt)


# per batch command: flags, and the outputs it writes besides manifest.json
STREAMED = {
    "rerank": (["--depth", "10", "--w", "4", "--s", "2", "--trace"], ["run.trec", "trace.jsonl"]),
    "select": (
        ["--depth", "10", "--w", "4", "--s", "2", "--trace"],
        ["selected.jsonl", "trace.jsonl"],
    ),
    "annotate": (["--kind", "ranking", "--depth", "4", "--w", "4"], ["train.jsonl", "rejected.jsonl"]),
}


class TestStreamedOutputs:
    @pytest.mark.parametrize("parallel", ["1", "4"])
    @pytest.mark.parametrize("command", sorted(STREAMED))
    def test_failed_run_writes_nothing_and_keeps_earlier_outputs(
        self, mini_dir, tmp_path, monkeypatch, capsys, command, parallel
    ):
        out = tmp_path / "out"
        flags, outputs = STREAMED[command]
        flags = [command, *_mini_flags(mini_dir), *flags, "--parallel", parallel, "--out", str(out)]
        assert main(flags) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == sorted([*outputs, "manifest.json"])

        monkeypatch.setattr(
            cli, "_build_judge", lambda args, qrels=None: BrokenOracle(qrels, args.threshold)
        )
        assert main(flags) == 1
        assert "judge broke on q003" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_run_into_a_new_directory_leaves_it_empty(self, mini_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli, "_build_judge", lambda args, qrels=None: BrokenOracle(qrels, args.threshold)
        )
        out = tmp_path / "out"
        assert _rerank(mini_dir, out, ["--trace"]) == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(STREAMED))
    def test_outputs_keep_partial_names_until_the_batch_ends(
        self, mini_dir, tmp_path, monkeypatch, command
    ):
        out = tmp_path / "out"
        flags, outputs = STREAMED[command]
        seen = []

        class Watcher(OracleJudge):
            def judge(self, prompt):
                seen.append(sorted(p.name for p in out.iterdir()))
                return super().judge(prompt)

        monkeypatch.setattr(cli, "_build_judge", lambda args, qrels=None: Watcher(qrels))
        assert main([command, *_mini_flags(mini_dir), *flags, "--out", str(out)]) == 0
        assert seen and all(names == sorted(f"{name}.partial" for name in outputs) for names in seen)
        assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, "manifest.json"])


def _counting_oracle(monkeypatch) -> list[str]:
    """Put an oracle that logs the hash of every prompt it judges into the CLI; return the log."""
    seen: list[str] = []

    class CountingOracle(OracleJudge):
        def judge(self, prompt):
            seen.append(prompt_sha256(prompt))
            return super().judge(prompt)

    monkeypatch.setattr(cli, "OracleJudge", CountingOracle)
    return seen


def _transcript_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


RESUMED_COMMANDS = ["rerank", "select", "annotate-selection"]


class TestResume:
    """Rerunning a command with the same --transcript pays only for the windows it lacks."""

    def _clean_run(self, mini_dir, tmp_path, name):
        """Record a clean run at --parallel 1; return its argv head, outputs and transcript."""
        head, files = BATCH_COMMANDS[name]
        head = [*head, *_mini_flags(mini_dir)]
        out, transcript = tmp_path / "clean", tmp_path / "clean.jsonl"
        argv = [*head, "--judge", "oracle", "--transcript", str(transcript), "--out", str(out)]
        assert main(argv) == 0
        return head, [(out / f).read_bytes() for f in files], transcript

    @pytest.mark.parametrize("parallel", ["1", "4"])
    @pytest.mark.parametrize("name", RESUMED_COMMANDS)
    def test_rerun_pays_exactly_the_dropped_windows(
        self, mini_dir, tmp_path, monkeypatch, name, parallel
    ):
        head, clean, full = self._clean_run(mini_dir, tmp_path, name)
        lines = _transcript_lines(full)
        dropped = [lines[i] for i in (1, 4, 5, 13)]
        gappy = tmp_path / "gappy.jsonl"
        _write_lines(gappy, [line for line in lines if line not in dropped])

        seen = _counting_oracle(monkeypatch)
        out = tmp_path / "resumed"
        judge = ["--judge", "oracle", "--transcript", str(gappy), "--parallel", parallel]
        assert main([*head, *judge, "--out", str(out)]) == 0
        assert sorted(seen) == sorted(json.loads(line)["prompt_sha256"] for line in dropped)
        resumed = _transcript_lines(gappy)
        assert len(resumed) == len(lines)
        assert sorted(resumed) == sorted(lines)
        assert [(out / f).read_bytes() for f in BATCH_COMMANDS[name][1]] == clean

    @pytest.mark.parametrize("parallel", ["1", "4"])
    @pytest.mark.parametrize("name", RESUMED_COMMANDS)
    def test_rerun_after_a_crash_never_pays_twice(
        self, mini_dir, tmp_path, monkeypatch, name, parallel
    ):
        head, clean, full = self._clean_run(mini_dir, tmp_path, name)
        transcript = tmp_path / "crashed.jsonl"
        judge = ["--judge", "oracle", "--transcript", str(transcript), "--parallel", parallel]
        # the crash stands in for a killed run: exit 1 after some windows were recorded
        monkeypatch.setattr(cli, "OracleJudge", BrokenOracle)
        assert main([*head, *judge, "--out", str(tmp_path / "crashed")]) == 1
        recorded = _transcript_lines(transcript)
        assert recorded

        seen = _counting_oracle(monkeypatch)
        out = tmp_path / "resumed"
        assert main([*head, *judge, "--out", str(out)]) == 0
        assert not set(seen) & {json.loads(line)["prompt_sha256"] for line in recorded}
        assert len(recorded) + len(seen) == len(_transcript_lines(full))
        assert sorted(_transcript_lines(transcript)) == sorted(_transcript_lines(full))
        assert [(out / f).read_bytes() for f in BATCH_COMMANDS[name][1]] == clean

    def test_replay_never_writes_the_transcript(self, mini_dir, tmp_path, capsys):
        head, _, full = self._clean_run(mini_dir, tmp_path, "select")
        gappy = tmp_path / "gappy.jsonl"
        _write_lines(gappy, _transcript_lines(full)[1:])
        before = gappy.read_bytes()
        replay = ["--judge", "replay", "--transcript", str(gappy), "--out", str(tmp_path / "out")]
        assert main([*head, *replay]) == 2
        assert "aborted queries" in capsys.readouterr().err
        assert gappy.read_bytes() == before

    def test_replay_of_a_missing_transcript_exits_1(self, mini_dir, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        replay = ["--judge", "replay", "--transcript", str(missing), "--out", str(tmp_path / "out")]
        assert main(["select", *_mini_flags(mini_dir), *replay]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
        assert "Traceback" not in err
        assert not missing.exists()


# the options every batch command shares, as (option strings, default, choices, required)
_HELP = (("-h", "--help"), argparse.SUPPRESS, None, False)
_IO_OPTIONS = [
    (("--corpus",), None, None, True),
    (("--queries",), None, None, True),
    (("--run",), None, None, True),
    (("--qrels",), None, None, False),
    (("--out",), None, None, True),
    (("--parallel",), 1, None, False),
]
_TRACE = (("--trace",), False, None, False)
_WINDOW_OPTIONS = [
    (("--w",), 20, None, False),
    (("--s",), 10, None, False),
    (("--depth",), 100, None, False),
]
_JUDGE_OPTIONS = [
    (("--judge",), "oracle", ["endpoint", "oracle", "replay"], False),
    (("--endpoint-url",), None, None, False),
    (("--model",), None, None, False),
    (("--threshold",), 1, None, False),
    (("--transcript",), None, None, False),
    (("--templates",), None, None, False),
    (("--passage-tokens",), 300, None, False),
]
CLI_SURFACE = {
    "ragsift": [_HELP, (("--version",), argparse.SUPPRESS, None, False)],
    "rerank": [
        _HELP,
        *_IO_OPTIONS,
        _TRACE,
        (("--tag",), "ragsift", None, False),
        *_WINDOW_OPTIONS,
        *_JUDGE_OPTIONS,
    ],
    "select": [_HELP, *_IO_OPTIONS, _TRACE, *_WINDOW_OPTIONS, *_JUDGE_OPTIONS],
    "evaluate": [
        _HELP,
        (("--predictions",), None, None, False),
        (("--answers",), None, None, False),
        (("--selection",), None, None, False),
        (("--run",), None, None, False),
        (("--qrels",), None, None, False),
        (("--evidence",), None, None, False),
        (("--k",), None, None, False),
        (("--ndcg-k",), None, None, False),
        (("--depth",), 100, None, False),
        (("--threshold",), 1, None, False),
        (("--out",), None, None, True),
    ],
    "annotate": [
        _HELP,
        *_IO_OPTIONS,
        (("--kind",), None, ["ranking", "selection"], True),
        (("--w",), 20, None, False),
        (("--depth",), 20, None, False),
        *_JUDGE_OPTIONS,
    ],
    "simulate": [
        _HELP,
        *_WINDOW_OPTIONS,
        (("--profile",), None, None, True),
        (("--trials",), 10000, None, False),
        (("--seed",), 0, None, False),
        (("--out",), None, None, True),
    ],
}


def test_cli_surface_is_pinned():
    """Every option of every command, so that adding, dropping or changing one is a visible edit."""

    def options(parser):
        return [
            (tuple(a.option_strings), a.default, a.choices, a.required)
            for a in parser._actions
            if a.option_strings
        ]

    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {"ragsift": options(parser)}
    surface.update((name, options(sub)) for name, sub in commands.choices.items())
    assert surface == CLI_SURFACE


PUBLIC_SURFACE = [
    "CandidateList",
    "Corpus",
    "Judge",
    "JudgeEndpointConfig",
    "JudgeTransportError",
    "JudgeVerdict",
    "LoadError",
    "MetricsReport",
    "OracleJudge",
    "Passage",
    "PromptBudget",
    "PromptTemplate",
    "Qrels",
    "Query",
    "RemoteJudge",
    "RenderedPrompt",
    "TranscriptJudge",
    "WindowConfig",
    "WindowTrace",
    "answer_em_f1",
    "cut",
    "evaluate_answers",
    "evidence_from_qrels",
    "evidence_scores",
    "judge_window",
    "load_answers",
    "load_corpus",
    "load_evidence",
    "load_qrels",
    "load_queries",
    "load_run",
    "load_templates",
    "ndcg_at_k",
    "parse_ranking",
    "parse_selection",
    "plan_ranking_windows",
    "render",
    "rerank",
    "select",
    "window_count_bounds",
]


def test_public_surface_is_pinned():
    """The package's exported names, so that adding or dropping one is a visible edit."""
    assert sorted(ragsift.__all__) == PUBLIC_SURFACE
    assert all(hasattr(ragsift, name) for name in ragsift.__all__)


class TestEntryPoints:
    def test_batch_commands_close_the_judge(self, mini_dir, tmp_path, monkeypatch):
        closed = []
        monkeypatch.setattr(OracleJudge, "close", lambda self: closed.append(self), raising=False)
        base = [*_mini_flags(mini_dir), "--judge", "oracle", "--depth", "10"]
        assert main(["rerank", *base, "--out", str(tmp_path / "r")]) == 0
        assert main(["select", *base, "--out", str(tmp_path / "s")]) == 0
        assert main(["annotate", *base, "--kind", "ranking", "--out", str(tmp_path / "a")]) == 0
        assert len(closed) == 3

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

    def test_bad_input_exit_1(self, mini_dir, tmp_path, capsys):
        missing = [
            *("--corpus", str(tmp_path / "missing.jsonl")),
            *("--queries", str(tmp_path / "missing.jsonl")),
            *("--run", str(tmp_path / "missing.trec")),
        ]
        bad_inputs = [
            (["rerank", *missing], "missing.trec"),
            # a run tag must fit one TREC column; it is checked before any input is read
            (["rerank", *missing, "--tag", ""], "--tag"),
            (["rerank", *missing, "--tag", "a b"], "--tag"),
            (["select", *_mini_flags(mini_dir), "--parallel", "0"], "got 0"),
            (["select", *_mini_flags(mini_dir), "--parallel", "-1"], "got -1"),
        ]
        out = tmp_path / "out"
        for argv, named in bad_inputs:
            assert main([*argv, "--judge", "oracle", "--out", str(out)]) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err and "Traceback" not in err, err
            assert not out.exists()
