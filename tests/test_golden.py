"""Golden bytes: every output of the mini dataset under the oracle judge, of
replayed runs in which some queries abort, and of evaluate's reports.

Outputs and recorded transcripts must stay byte-identical across refactors.
Transcript bytes pin the rendered prompts, since ``TranscriptJudge`` looks
responses up by prompt hash: any change to rendering breaks recorded runs.
The hashes rest on the bundled mini dataset, so its generator script must
still rebuild it byte for byte.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

from ragsift.cli import main
from tests.test_cli import _mini_flags

GEOMETRY = {
    "rerank": ["--depth", "10", "--w", "4", "--s", "2", "--trace"],
    "select": ["--depth", "10", "--w", "4", "--s", "2", "--trace"],
    # a 32-character cut truncates every mini passage
    "rerank-truncated": ["--depth", "10", "--w", "4", "--s", "2", "--trace", "--passage-tokens", "8"],
    "select-truncated": ["--depth", "10", "--w", "4", "--s", "2", "--trace", "--passage-tokens", "8"],
    "annotate-ranking": ["--kind", "ranking", "--depth", "4", "--w", "4"],
    "annotate-selection": ["--kind", "selection", "--depth", "4", "--w", "4"],
    "annotate-ranking-truncated": ["--kind", "ranking", "--depth", "4", "--w", "4", "--passage-tokens", "8"],
}

OUTPUTS = {
    "rerank": ("run.trec", "trace.jsonl"),
    "select": ("selected.jsonl", "trace.jsonl"),
    "rerank-truncated": ("run.trec", "trace.jsonl"),
    "select-truncated": ("selected.jsonl", "trace.jsonl"),
    "annotate-ranking": ("train.jsonl", "rejected.jsonl"),
    "annotate-selection": ("train.jsonl", "rejected.jsonl"),
    "annotate-ranking-truncated": ("train.jsonl", "rejected.jsonl"),
}

GOLDEN = {
    "rerank": {
        "run.trec": "68567d5a3aa46e1034b954957d7b964827a7ede918dceb204214d2effd762036",
        "trace.jsonl": "d48f9df0e9929380c9f10a90febf70bcad2a9e3826ea1c516a2691d857bcab3b",
        "transcript.jsonl": "55351e6b4bca6e196f86b75b36c5621bb31966c97a16e040f10be592687ce49e",
    },
    "select": {
        "selected.jsonl": "6662cded1b0ea5516d775e65e87cd5ada8174a52f852ec35ffd5beee159cfa54",
        "trace.jsonl": "629897589bbb669c644c6670030e362aa6073bfd9f05cb76794b05328874945b",
        "transcript.jsonl": "f377e1189fbd1428901bc2d5f43603a4897612a7b839a151a77d8dc2733afc30",
    },
    # truncation changes only the prompts: outputs and traces match the untruncated runs
    "rerank-truncated": {
        "run.trec": "68567d5a3aa46e1034b954957d7b964827a7ede918dceb204214d2effd762036",
        "trace.jsonl": "d48f9df0e9929380c9f10a90febf70bcad2a9e3826ea1c516a2691d857bcab3b",
        "transcript.jsonl": "71dc43cca1eb6cc30cfb39e3e50d7bad0a18e4f1c9c567f180b9ba24844a421f",
    },
    "select-truncated": {
        "selected.jsonl": "6662cded1b0ea5516d775e65e87cd5ada8174a52f852ec35ffd5beee159cfa54",
        "trace.jsonl": "629897589bbb669c644c6670030e362aa6073bfd9f05cb76794b05328874945b",
        "transcript.jsonl": "8379da7250e43189360017069e4d728ae981411e1bf2e76d3e2fdfec10d66322",
    },
    # the oracle writes canonical rankings, so every ranking record passes
    "annotate-ranking": {
        "train.jsonl": "9fbcfd06400f2b90604922799e5fdadb874995f9ce755ce61da11fd211497837",
        "rejected.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "transcript.jsonl": "ff27bc4ca2f208091344bdd92d59831dbcef7a6a11f3f2248bbef4c4e53421e2",
    },
    # the oracle writes no pseudo answer, so every selection record is rejected
    "annotate-selection": {
        "train.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "rejected.jsonl": "7dfe45ddfaebb204183383edf9111bf87be002d691c0cf1a377a150964320f20",
        "transcript.jsonl": "d5454d186fb342aa22f95290f567dcdee138ed9fd3b81bc661edf15efca96fcf",
    },
    # the cut reaches the training messages and the transcript, not the verdicts
    "annotate-ranking-truncated": {
        "train.jsonl": "a882697921fb8ba9734f24150cd969ef8b7fbef128f0f655454f0c04d1c85cec",
        "rejected.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "transcript.jsonl": "1ab5d5bd4956a888ba209e3a3be192026f4b41d29fbf1b63996b4ae3f0452fae",
    },
}


def output_digests(name: str, mini_dir, tmp_path) -> dict[str, str]:
    out = tmp_path / name
    transcript = tmp_path / f"{name}-transcript.jsonl"
    command = name.split("-")[0]
    argv = [
        command,
        *_mini_flags(mini_dir),
        *GEOMETRY[name],
        "--judge",
        "oracle",
        "--parallel",
        "1",
        "--transcript",
        str(transcript),
        "--out",
        str(out),
    ]
    assert main(argv) == 0
    files = {f: out / f for f in OUTPUTS[name]}
    files["transcript.jsonl"] = transcript
    return {f: hashlib.sha256(p.read_bytes()).hexdigest() for f, p in files.items()}


@pytest.mark.parametrize("name", sorted(GEOMETRY))
def test_outputs_match_golden_bytes(name, mini_dir, tmp_path):
    assert output_digests(name, mini_dir, tmp_path) == GOLDEN[name]


# Replayed runs whose transcript lacks some windows: each query whose window is
# missing aborts, so these pin the order of the partial traces and the exit-2 report.
# The transcript is recorded at --parallel 1, so its line i is the i-th window
# judged in query_id order.
DROPPED_WINDOWS = {
    "rerank": {0, 6, 45, 79},
    "select": {0, 7, 30, 55},
}

ABORTED_GOLDEN = {
    "rerank": {
        "run.trec": "94c2f993f04f4105028dda4a0189917d1bd638da7afa538c68eb44a891ffec24",
        "trace.jsonl": "9f429b5b7b41824343a1a32aa94a5a304a3d651dbafad4e6d14bf75ddbd8166c",
    },
    "select": {
        "selected.jsonl": "442935a835fed60dd5e1d22c456e8e6029630ee4350c026f862c5f3bceb95165",
        "trace.jsonl": "5c9c3c16043f3717627d3bafb41204f6e671429d1a214e5ab7c896248856555b",
    },
}

ABORTED_LINE = {
    "rerank": "aborted queries (4): q001, q002, q012, q020",
    "select": "aborted queries (4): q001, q003, q009, q016",
}


@pytest.mark.parametrize("parallel", ["1", "4"])
@pytest.mark.parametrize("command", sorted(DROPPED_WINDOWS))
def test_aborted_queries_match_golden_bytes(command, parallel, mini_dir, tmp_path, capsys):
    flags = [command, *_mini_flags(mini_dir), *GEOMETRY[command]]
    full, gappy = tmp_path / "full.jsonl", tmp_path / "gappy.jsonl"
    record = ["--judge", "oracle", "--transcript", str(full), "--out", str(tmp_path / "rec")]
    assert main(flags + record) == 0
    lines = full.read_text(encoding="utf-8").splitlines(keepends=True)
    gappy.write_text(
        "".join(line for i, line in enumerate(lines) if i not in DROPPED_WINDOWS[command]),
        encoding="utf-8",
    )
    capsys.readouterr()

    out = tmp_path / "replay"
    replay = ["--judge", "replay", "--transcript", str(gappy), "--parallel", parallel]
    assert main(flags + replay + ["--out", str(out)]) == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert [line for line in err_lines if line.startswith("aborted queries")] == [
        ABORTED_LINE[command]
    ]
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in OUTPUTS[command]
    }
    assert digests == ABORTED_GOLDEN[command]


# evaluate's flag sets: each input flag takes its mini-dataset file, and
# --selection the selected.jsonl of the "select" case above
MINI_INPUTS = {
    "--predictions": "predictions.jsonl",
    "--answers": "answers.jsonl",
    "--evidence": "evidence.jsonl",
    "--run": "run.trec",
    "--qrels": "qrels.txt",
}

EVALUATE = {
    "answers": ["--predictions", "--answers"],
    "selection-evidence": ["--selection", "--evidence"],
    "selection-qrels": ["--selection", "--qrels"],
    "run-k3": ["--run", "--k", "3", "--qrels"],
    "ndcg": ["--run", "--qrels", "--ndcg-k", "1", "5", "10"],
    "everything": ["--predictions", "--answers", "--run", "--k", "5", "--qrels", "--ndcg-k", "10", "3"],
}

EVALUATE_GOLDEN = {
    "answers": {
        "report.json": "bbfac90864ca66b0fbaf1d49e36cde785edbdf42b84efea84804ff240c75c2c5",
        "per_query.tsv": "99efea5b250d30fe423950b94e88e35026dc3df6750ebe8b26d5082e6d558b04",
    },
    "selection-evidence": {
        "report.json": "02df9382bfeed902d2dc2c31749b0229e590d20d3bef91513b012e163a6e6eb7",
        "per_query.tsv": "8d8e72203b3ddfdd9008b0d5b4d6a141ab4621426bbcef942f8c367212c7ea93",
    },
    # the mini gold evidence is the qrels graded 1 or more, so both selection reports match
    "selection-qrels": {
        "report.json": "02df9382bfeed902d2dc2c31749b0229e590d20d3bef91513b012e163a6e6eb7",
        "per_query.tsv": "8d8e72203b3ddfdd9008b0d5b4d6a141ab4621426bbcef942f8c367212c7ea93",
    },
    "run-k3": {
        "report.json": "9a5bf8870c81ab2ca0b78c03c7f348b141e5a182ffaaa342227e314fd428d72a",
        "per_query.tsv": "ebb76bbb7ae756e8f68e2753c505be8bec39ebb033cd900a8c8aa633b5a408ad",
    },
    "ndcg": {
        "report.json": "630d480c8d384bc3cd6b2b38a03fca25af297a9128f3facd02ce426ea82397b6",
        "per_query.tsv": "e4f0f992c0dab98ed47ebb152dcd628f53d8e511cf1e4115da29cf470d60404d",
    },
    "everything": {
        "report.json": "b4a70efe70a6fe12b2c3483ac34bd3a3e5605e97a308a5c997d5953b5f57c456",
        "per_query.tsv": "2a36423daa28f749909bdc957015063d334ff1bf29f3c02f0bf693756f5f3774",
    },
}


@pytest.mark.parametrize("name", sorted(EVALUATE))
def test_evaluate_matches_golden_bytes(name, mini_dir, tmp_path):
    argv = ["evaluate", "--out", str(tmp_path / "report")]
    for flag in EVALUATE[name]:
        argv.append(flag)
        if flag == "--selection":
            output_digests("select", mini_dir, tmp_path)
            argv.append(str(tmp_path / "select" / "selected.jsonl"))
        elif flag in MINI_INPUTS:
            argv.append(str(mini_dir / MINI_INPUTS[flag]))
    assert main(argv) == 0
    digests = {
        f: hashlib.sha256((tmp_path / "report" / f).read_bytes()).hexdigest()
        for f in ("report.json", "per_query.tsv")
    }
    assert digests == EVALUATE_GOLDEN[name]


def test_mini_dataset_rebuilds_byte_for_byte(mini_dir, tmp_path, monkeypatch):
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_mini_dataset.py"
    spec = importlib.util.spec_from_file_location("make_mini_dataset", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path)
    module.main()
    rebuilt = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    bundled = {p.name: p.read_bytes() for p in mini_dir.iterdir()}
    assert sorted(rebuilt) == sorted(bundled)
    assert [name for name in sorted(bundled) if rebuilt[name] != bundled[name]] == []
