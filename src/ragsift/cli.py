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
from typing import Callable, Iterator, Sequence, TextIO

from . import __version__
from .annotate import TRAINING_FILES, annotate_query, training_line
from .corpus import (
    CandidateList,
    LoadError,
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
from .judge import Judge, JudgeEndpointConfig, OracleJudge, RemoteJudge, TranscriptJudge
from .metrics import (
    MetricsReport,
    evaluate_answers,
    evidence_scores,
    load_predictions,
    ndcg_at_k,
    ndcg_per_query,
    write_report,
)
from .pipeline import QueryFailure, run_batch
from .prompting import PromptBudget, TemplateError, load_templates
from .windowing import (
    WindowConfig,
    cut,
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
        judge = RemoteJudge(JudgeEndpointConfig(base_url=args.endpoint_url, model_name=args.model))
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


def _load_batch_inputs(args: argparse.Namespace):
    """Load what every batch command judges: queries, run, corpus, judge, templates, budget.

    The run is read first, so the corpus holds only the passages it references.
    """
    run = load_run(args.run, max_depth=args.depth)
    corpus = load_corpus(args.corpus, keep={d for cl in run.values() for d in cl.ids})
    queries = load_queries(args.queries)
    qrels = load_qrels(args.qrels) if args.qrels else None
    judge = _build_judge(args, qrels)
    templates = load_templates(args.templates)
    budget = PromptBudget(per_passage_tokens=args.passage_tokens)
    return queries, run, corpus, judge, templates, budget


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
    line: Callable[[str, object], tuple[int, str]],
) -> tuple[Path, list[int], list[QueryFailure]]:
    """Judge every query with ``engine``, writing each result's lines to one of ``outputs``.

    ``line(query_id, result)`` returns ``(i, text)``: ``text`` goes to
    ``outputs[i]``. Each query's lines and trace are written as its outcome
    arrives, and the outcome is dropped; the partial traces of aborted
    queries follow, in query_id order. Returns the output directory, the
    number of results written to each output, and the failures.
    """
    queries, run, corpus, judge, templates, budget = _load_batch_inputs(args)
    trace = getattr(args, "trace", False)  # annotate writes no trace
    counts, failures = [0] * len(outputs), []
    with closing(judge):
        outcomes = run_batch(
            engine, queries, run, corpus, judge, cfg, templates, budget, args.parallel
        )
        out = _out_dir(args)
        names = [*outputs, "trace.jsonl"] if trace else outputs
        with closing(outcomes), _staged(out, names) as files:
            for qid, outcome in outcomes:
                if isinstance(outcome, QueryFailure):
                    failures.append(outcome)
                    continue
                i, text = line(qid, outcome)
                files[i].write(text)
                counts[i] += 1
                if trace:
                    files[-1].write(trace_lines(outcome.trace))
            if trace:
                for failure in failures:
                    files[-1].write(trace_lines(failure.partial_trace))
    _write_manifest(args, _BATCH_INPUT_FLAGS, out)
    return out, counts, failures


def cmd_rerank(args: argparse.Namespace) -> int:
    out, (done,), failures = _stream_batch(
        args,
        rerank,
        _window_cfg(args),
        ["run.trec"],
        lambda qid, res: (0, trec_lines(qid, res.ranked_ids, args.tag)),
    )
    print(f"reranked {done} queries -> {out / 'run.trec'}")
    return _report_failures(failures)


def cmd_select(args: argparse.Namespace) -> int:
    out, (done,), failures = _stream_batch(
        args,
        select,
        _window_cfg(args),
        ["selected.jsonl"],
        lambda qid, res: (0, selection_line(qid, res)),
    )
    print(f"selected for {done} queries -> {out / 'selected.jsonl'}")
    return _report_failures(failures)


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .windowing import read_selection_file

    report = MetricsReport()
    qrels = load_qrels(args.qrels) if args.qrels else None

    if args.predictions:
        if not args.answers:
            raise LoadError("EM/F1 requested (--predictions) but no --answers gold file given")
        report.answers = evaluate_answers(load_predictions(args.predictions), load_answers(args.answers))

    selected: dict[str, list[str]] | None = None
    run: dict[str, CandidateList] | None = None
    if args.selection:
        selected = read_selection_file(args.selection)
    elif args.run and args.k:
        run = load_run(args.run, max_depth=args.depth)
        selected = {qid: cut(cl.doc_ids(), min(args.k, len(cl))) for qid, cl in run.items()}
    if selected is not None:
        if args.evidence:
            gold = load_evidence(args.evidence)
        elif qrels is not None:
            gold = evidence_from_qrels(qrels, threshold=args.threshold)
        else:
            raise LoadError(
                "evidence metrics requested but neither --evidence nor --qrels was given"
            )
        report.evidence = evidence_scores(selected, gold)

    if args.ndcg_k:
        if not args.run:
            raise LoadError("nDCG requested (--ndcg-k) but no --run file given")
        if qrels is None:
            raise LoadError("nDCG requested (--ndcg-k) but no --qrels file given")
        if run is None:
            run = load_run(args.run, max_depth=args.depth)
        report.ndcg = {k: ndcg_at_k(run, qrels, k) for k in args.ndcg_k}
        report.ndcg_queries = {k: ndcg_per_query(run, qrels, k) for k in args.ndcg_k}

    if report.answers is None and report.evidence is None and report.ndcg is None:
        raise LoadError(
            "nothing to evaluate: give --predictions/--answers, --selection or --run with "
            "--k/--ndcg-k"
        )

    out = _out_dir(args)
    json_path, tsv_path = write_report(report, out)
    _write_manifest(args, ["predictions", "answers", "selection", "run", "qrels", "evidence"], out)
    for name, value in report.aggregates().items():
        print(f"{name}\t{100 * value:.2f}")
    print(f"report -> {json_path}, {tsv_path}")
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    # annotation judges one window, so the stride never applies
    cfg = WindowConfig(depth=args.depth, window_size=args.w, stride=1)
    if cfg.depth > cfg.window_size:
        raise ValueError(
            f"annotation is single-window: depth ({cfg.depth}) must be <= "
            f"window_size ({cfg.window_size})"
        )
    # a teacher transport failure is a rejected record, never an aborted query
    out, (passed, rejected), _ = _stream_batch(
        args,
        partial(annotate_query, kind=args.kind),
        cfg,
        TRAINING_FILES,
        lambda qid, record: training_line(record),
    )
    print(f"annotated {passed + rejected} queries: {passed} kept, {rejected} rejected -> {out}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _window_cfg(args)
    profile, observed = parse_profile_spec(args.profile, cfg.depth)
    sim = simulate(cfg, profile, trials=args.trials, seed=args.seed)
    doc = sim.to_json_dict()
    doc["ranking_windows"] = ranking_cost(cfg)
    if observed is not None:
        doc["observed_windows"] = observed
    out = _out_dir(args)
    (out / "cost_report.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_manifest(args, ["profile"], out)
    print(sim.table())
    print(f"ranking windows (fixed)  {doc['ranking_windows']}")
    if observed is not None:
        print(f"observed windows  {observed:.4f}")
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
    p.add_argument("--k", type=int, help="evaluate the top-k run cut as evidence")
    p.add_argument("--ndcg-k", type=int, nargs="+", help="nDCG cutoffs, e.g. --ndcg-k 10")
    p.add_argument("--depth", type=int, default=100, help="run load depth (default 100)")
    p.add_argument("--threshold", type=int, default=1, help="qrels grade treated as positive")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("annotate", help="export teacher annotations for distillation")
    _add_io_flags(p, trace=False)
    p.add_argument("--kind", choices=["ranking", "selection"], required=True)
    p.add_argument("--w", type=int, default=20, help="window size (default 20)")
    p.add_argument("--depth", type=int, default=20, help="candidates per query (default 20)")
    _add_judge_flags(p)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("simulate", help="Monte Carlo window-count simulation")
    _add_window_flags(p)
    p.add_argument(
        "--profile",
        required=True,
        help="fresh passages selected per window: never, always, bernoulli:P, a JSON "
        "histogram path, or a select trace.jsonl",
    )
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
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
