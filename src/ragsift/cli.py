"""Command-line frontend wiring the modules into runnable pipelines.

Every command writes a manifest next to its outputs recording resolved
parameters, input digests, the tool version and, for ``simulate``, the seed;
re-running with the same inputs (and transcript, when judging) reproduces the
output artifacts byte for byte. Exit codes: 0 success, 1 unusable inputs or
configuration, 2 partial success (some queries aborted).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from contextlib import ExitStack, closing, contextmanager
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from . import __version__
from .annotate import TRAINING_FILES, annotate_query, training_line
from .corpus import (
    LoadError,
    check_passage_tokens,
    evidence_from_qrels,
    load_answers,
    load_corpus,
    load_evidence,
    load_qrels,
    load_queries,
    load_run,
    trec_lines,
)
from .costsim import parse_profile_spec, ranking_cost, simulate
from .judge import Judge, OracleJudge, RemoteJudge, TranscriptJudge
from .metrics import (
    MetricsReport,
    evaluate_answers,
    evidence_scores,
    load_predictions,
    ndcg_per_query,
    write_report,
)
from .pipeline import QueryFailure, run_batch
from .prompting import TemplateError, load_templates
from .windowing import (
    WindowConfig,
    read_selection_file,
    rerank,
    select,
    selection_line,
    trace_lines,
)

logger = logging.getLogger(__name__)

# input files hashed into the manifest of every batch command
_BATCH_INPUT_FLAGS = ["corpus", "queries", "run", "qrels", "templates", "transcript"]


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args: argparse.Namespace, input_flags: list[str], out: Path) -> None:
    """Write ``manifest.json`` to ``out``: the parsed options and the digest of each input file."""
    inputs = {}
    for flag in input_flags:
        value = getattr(args, flag, None)
        if value is None:
            continue
        path = Path(value)
        if path.is_file():
            inputs[flag] = {"path": str(path), "sha256": _sha256(path)}
    doc = {
        "command": args.command,
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "parameters": {k: v for k, v in vars(args).items() if k not in ("func", "command")},
        "inputs": inputs,
    }
    (out / "manifest.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _build_judge(args: argparse.Namespace, qrels=None) -> Judge:
    judge: Judge | None = None
    if args.judge == "oracle":
        if qrels is None:
            raise LoadError("--judge oracle requires --qrels")
        judge = OracleJudge(qrels, selection_threshold=args.threshold)
    elif args.judge == "replay":
        if not args.transcript:
            raise LoadError("--judge replay requires --transcript")
    elif args.judge == "endpoint":
        if not args.endpoint_url or not args.model:
            raise LoadError("--judge endpoint requires --endpoint-url and --model")
        judge = RemoteJudge(args.endpoint_url, args.model)
    else:
        raise LoadError(f"unknown judge kind {args.judge!r}")
    if args.transcript:
        # the transcript answers what it holds; a live judge answers and records the rest
        return TranscriptJudge(args.transcript, judge)
    return judge


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _window_cfg(args: argparse.Namespace) -> WindowConfig:
    return WindowConfig(depth=args.depth, window_size=args.w, stride=args.s)


def _report_failures(failures: list[QueryFailure]) -> int:
    if failures:
        ids = ", ".join(f.query_id for f in failures)
        print(f"aborted queries ({len(failures)}): {ids}", file=sys.stderr)
        return 2
    return 0


@contextmanager
def _batch_inputs(args: argparse.Namespace):
    """Yield what every batch command judges: queries, run, corpus, judge and templates.

    Usage errors come first: a ``--parallel`` or ``--passage-tokens`` below
    1, a bad template and a judge that cannot be built fail before the run,
    the corpus or the queries are read. The run is read before the corpus,
    so the corpus holds only the passages it references, keyed by the run's
    own id strings, with text cut to ``--passage-tokens``. The judge is
    closed when the block ends, however it ends.
    """
    if args.parallel < 1:
        raise ValueError(f"--parallel must be at least 1, got {args.parallel}")
    check_passage_tokens(args.passage_tokens)
    templates = load_templates(args.templates)
    qrels = load_qrels(args.qrels) if args.qrels else None
    with closing(_build_judge(args, qrels)) as judge:
        run = load_run(args.run, max_depth=args.depth)
        ids = {d: d for cl in run.values() for d in cl.ids}
        corpus = load_corpus(args.corpus, keep=ids, passage_tokens=args.passage_tokens)
        queries = load_queries(args.queries)
        yield queries, run, corpus, judge, templates


@contextmanager
def _staged(out: Path, names: Sequence[str]) -> Iterator[list[TextIO]]:
    """Open ``<name>.partial`` files in ``out``, renamed to ``name`` if the block succeeds.

    On any exception the partial files are removed, so a failed run leaves
    earlier outputs of the same names untouched.
    """
    partial = [out / f"{name}.partial" for name in names]
    try:
        with ExitStack() as stack:
            yield [stack.enter_context(p.open("w", encoding="utf-8")) for p in partial]
    except BaseException:
        for p in partial:
            p.unlink(missing_ok=True)
        raise
    for p, name in zip(partial, names):
        p.replace(out / name)


def _stream_batch(
    args: argparse.Namespace,
    engine: Callable,
    cfg: WindowConfig,
    outputs: Sequence[str],
    lines: Callable[[str, object], Iterable[tuple[int, str]]],
) -> tuple[Path, int, list[int], list[QueryFailure]]:
    """Judge every query with ``engine``, writing each result's lines to ``outputs``.

    ``lines(query_id, result)`` yields ``(i, text)`` pairs, and ``text`` goes
    to ``outputs[i]``. A query's lines and trace are written as its outcome
    arrives, then the outcome is dropped; the partial traces of aborted
    queries follow, in query_id order. Returns the output directory, the
    queries written, the lines written to each output, and the failures.
    """
    trace = getattr(args, "trace", False)  # annotate writes no trace
    done, counts, failures = 0, [0] * len(outputs), []
    with _batch_inputs(args) as (queries, run, corpus, judge, templates):
        outcomes = run_batch(engine, queries, run, corpus, judge, cfg, templates, args.parallel)
        out = _out_dir(args)
        names = [*outputs, "trace.jsonl"] if trace else outputs
        with closing(outcomes), _staged(out, names) as files:
            for qid, outcome in outcomes:
                if isinstance(outcome, QueryFailure):
                    failures.append(outcome)
                    continue
                done += 1
                for i, text in lines(qid, outcome):
                    files[i].write(text)
                    counts[i] += 1
                if trace:
                    files[-1].write(trace_lines(outcome.trace))
            if trace:
                for failure in failures:
                    files[-1].write(trace_lines(failure.partial_trace))
    _write_manifest(args, _BATCH_INPUT_FLAGS, out)
    return out, done, counts, failures


def cmd_rerank(args: argparse.Namespace) -> int:
    if not args.tag or any(c.isspace() for c in args.tag):
        # the tag is the sixth column of every run line
        raise ValueError(f"--tag must be non-empty with no whitespace, got {args.tag!r}")
    out, done, _, failures = _stream_batch(
        args,
        rerank,
        _window_cfg(args),
        ["run.trec"],
        lambda qid, res: [(0, trec_lines(qid, res.ranked_ids, args.tag))],
    )
    print(f"reranked {done} queries -> {out / 'run.trec'}")
    return _report_failures(failures)


def cmd_select(args: argparse.Namespace) -> int:
    out, done, _, failures = _stream_batch(
        args,
        select,
        _window_cfg(args),
        ["selected.jsonl"],
        lambda qid, res: [(0, selection_line(qid, res))],
    )
    print(f"selected for {done} queries -> {out / 'selected.jsonl'}")
    return _report_failures(failures)


def cmd_evaluate(args: argparse.Namespace) -> int:
    # every usage error is reported before any file is read
    if args.selection and args.k is not None:
        # the selection and the top-k cut would both be scored as the one evidence set
        raise LoadError("--k cannot be combined with --selection: evaluate each in its own call")
    if args.k is not None and not args.run:
        raise LoadError("--k needs --run: it scores the run's top-k cut as evidence")
    if args.k is not None and args.k < 1:
        raise ValueError(f"--k must be at least 1, got {args.k}")
    if args.ndcg_k and min(args.ndcg_k) < 1:
        raise ValueError(f"--ndcg-k must be at least 1, got {min(args.ndcg_k)}")
    if args.predictions and not args.answers:
        raise LoadError("EM/F1 requested (--predictions) but no --answers gold file given")
    if args.answers and not args.predictions:
        raise LoadError("--answers needs --predictions: it is the gold EM/F1 scores them against")
    scores_evidence = bool(args.selection) or args.k is not None
    if args.evidence and not scores_evidence:
        raise LoadError("--evidence needs --selection or --k: there is no evidence set to score")
    if scores_evidence and not (args.evidence or args.qrels):
        raise LoadError("evidence metrics requested but neither --evidence nor --qrels was given")
    if args.ndcg_k and not args.run:
        raise LoadError("nDCG requested (--ndcg-k) but no --run file given")
    if args.ndcg_k and not args.qrels:
        raise LoadError("nDCG requested (--ndcg-k) but no --qrels file given")
    if not (args.predictions or scores_evidence or args.ndcg_k):
        raise LoadError(
            "nothing to evaluate: give --predictions/--answers, --selection or --run with "
            "--k/--ndcg-k"
        )
    if args.run and not (args.k is not None or args.ndcg_k):
        raise LoadError("--run needs --k or --ndcg-k: nothing else reads it")
    if args.qrels and not (args.ndcg_k or (scores_evidence and not args.evidence)):
        raise LoadError(
            "--qrels is read only by --ndcg-k, and as evidence gold by --selection or --k "
            "without --evidence"
        )

    report = MetricsReport()
    qrels = load_qrels(args.qrels) if args.qrels else None
    if args.predictions:
        report.answers = evaluate_answers(load_predictions(args.predictions), load_answers(args.answers))
    run = load_run(args.run, max_depth=args.depth) if args.run else None
    if scores_evidence:
        if args.selection:
            selected = read_selection_file(args.selection)
        else:
            selected = {qid: cl.ids[: args.k] for qid, cl in run.items()}
        if args.evidence:
            gold = load_evidence(args.evidence)
        else:
            gold = evidence_from_qrels(qrels, threshold=args.threshold)
        report.evidence = evidence_scores(selected, gold)
    if args.ndcg_k:
        report.ndcg_queries = {k: ndcg_per_query(run, qrels, k) for k in args.ndcg_k}

    out = _out_dir(args)
    json_path, tsv_path = write_report(report, out)
    _write_manifest(args, ["predictions", "answers", "selection", "run", "qrels", "evidence"], out)
    for name, value in report.aggregates().items():
        print(f"{name}\t{100 * value:.2f}")
    print(f"report -> {json_path}, {tsv_path}")
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    # a teacher transport failure is a rejected line, never an aborted query
    out, done, (passed, rejected), _ = _stream_batch(
        args,
        partial(annotate_query, kind=args.kind),
        WindowConfig(depth=args.depth, window_size=args.w),
        TRAINING_FILES,
        lambda qid, windows: map(training_line, windows),
    )
    print(f"annotated {done} queries: {passed} records kept, {rejected} rejected -> {out}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = WindowConfig(depth=args.depth, window_size=args.w, stride=args.s)
    rows, fields = parse_profile_spec(args.profile, cfg.depth, args.trials, args.seed)
    if fields["seed"] is None:
        args.trials = args.seed = None  # a trace reads neither, so the manifest records neither
    sim = simulate(cfg, rows)
    doc = {**sim.to_json_dict(), "ranking_windows": ranking_cost(cfg), **fields}
    out = _out_dir(args)
    (out / "cost_report.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_manifest(args, ["profile"], out)
    print(sim.table())
    print(f"ranking windows (fixed)  {doc['ranking_windows']}")
    if "observed_windows" in doc:
        print(f"observed windows  {doc['observed_windows']:.4f}")
        print(f"carried dropped share  {doc['carried_dropped_share']:.4f}")
    return 0


def _add_window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--w", type=int, default=20, help="window size (default 20)")
    p.add_argument("--s", type=int, default=10, help="stride (default 10)")
    p.add_argument("--depth", type=int, default=100, help="candidate depth (default 100)")


def _add_judge_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--judge",
        choices=["endpoint", "oracle", "replay"],
        default="oracle",
        help="judge backend (default oracle; API key for endpoint comes from "
        "RAGSIFT_API_KEY or OPENAI_API_KEY)",
    )
    p.add_argument("--endpoint-url", help="chat-completions base URL, e.g. https://host/v1")
    p.add_argument("--model", help="model name sent to the endpoint")
    p.add_argument(
        "--threshold",
        type=int,
        default=1,
        help="oracle selection grade threshold (also used to derive gold evidence from qrels)",
    )
    p.add_argument(
        "--transcript",
        help="transcript JSONL: prompts it holds are answered from it; a live judge "
        "answers the rest and appends them, so a rerun resumes (--judge replay only reads it)",
    )
    p.add_argument("--templates", help="prompt template file (defaults built in)")
    p.add_argument(
        "--passage-tokens", type=int, default=300, help="per-passage token budget (default 300)"
    )


def _add_io_flags(p: argparse.ArgumentParser, trace: bool = True) -> None:
    p.add_argument("--corpus", required=True, help="passage corpus (JSONL or TSV)")
    p.add_argument("--queries", required=True, help="query file (JSONL or TSV)")
    p.add_argument("--run", required=True, help="first-stage TREC run file")
    p.add_argument("--qrels", help="TREC qrels file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--parallel", type=int, default=1, help="concurrent queries (default 1)")
    if trace:
        p.add_argument("--trace", action="store_true", help="write a per-window audit trace")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ragsift",
        description="Sliding-window passage re-ranking and utility-based selection for RAG.",
    )
    parser.add_argument("--version", action="version", version=f"ragsift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rerank", help="back-to-front listwise re-ranking")
    _add_io_flags(p)
    p.add_argument("--tag", default="ragsift", help="run tag for TREC output")
    _add_window_flags(p)
    _add_judge_flags(p)
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("select", help="forward-propagating utility-based selection")
    _add_io_flags(p)
    _add_window_flags(p)
    _add_judge_flags(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evaluate", help="answer EM/F1, evidence scores, nDCG@k")
    p.add_argument("--predictions", help="answer predictions JSONL {query_id, answer}")
    p.add_argument("--answers", help="gold answers JSONL {query_id, answers: [...]}")
    p.add_argument("--selection", help="selection JSONL produced by the select command")
    p.add_argument("--run", help="TREC run file (for --k evidence cuts and nDCG)")
    p.add_argument("--qrels", help="TREC qrels file")
    p.add_argument("--evidence", help="gold evidence JSONL {query_id, evidence: [...]}")
    p.add_argument("--k", type=int, help="evaluate the top-k run cut as evidence (not with --selection)")
    p.add_argument("--ndcg-k", type=int, nargs="+", help="nDCG cutoffs, e.g. --ndcg-k 10")
    p.add_argument("--depth", type=int, default=100, help="run load depth (default 100)")
    p.add_argument("--threshold", type=int, default=1, help="qrels grade treated as positive")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("annotate", help="export teacher annotations for distillation")
    _add_io_flags(p, trace=False)
    p.add_argument("--kind", choices=["ranking", "selection"], required=True)
    p.add_argument("--w", type=int, default=20, help="window size (default 20)")
    p.add_argument(
        "--depth", type=int, default=20, help="candidates per query, swept at stride 10 past --w (default 20)"
    )
    _add_judge_flags(p)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("simulate", help="selection window counts at a geometry, replayed from a profile")
    _add_window_flags(p)
    p.add_argument(
        "--profile",
        required=True,
        help="which candidates are useful: never, always, bernoulli:P, or a select "
        "trace.jsonl (its queries' selections replayed at this geometry)",
    )
    p.add_argument("--trials", type=int, default=10000, help="bernoulli rows drawn (not read for a trace)")
    p.add_argument("--seed", type=int, default=0, help="bernoulli draw seed (not read for a trace)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LoadError, TemplateError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
