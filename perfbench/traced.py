"""Traced run: drive ragsift commands in-process with spans at module boundaries.

Usage: python3 perfbench/traced.py SPEC_JSON LAYERS_JSON

The spec (written by ``run.py``) lists the CLI argument vectors of one
workload and how many rounds to run, an odd number. After one discarded
warm-up command, each round runs every command twice through
``ragsift.cli.main``: once plain and once with the public functions at each
module boundary wrapped, plain first in even rounds and traced first in odd
ones. The tracing overhead is the median over these pairs of traced wall
time over plain wall time, minus one; each pair runs back to back, so the
host's speed changes less within a pair than between pairs. Half the
interquartile range of the pairs is reported beside it as the noise of that
figure: an overhead inside the noise is not the tracer's cost. The
per-layer metrics come from the traced runs of the last round; that round
is even, so its traced runs write the outputs checked last.

A span records name, layer, start, end, parent span, query id and thread.
Spans stay in memory and are written to ``spans.jsonl`` beside LAYERS_JSON
at the end, together with the per-layer metrics. A function that no longer
exists is reported as absent and its metrics read 0; the run goes on.

Layers are the package's modules: corpus, prompting, judge, windowing,
pipeline, annotate and cli. A span's self time is its duration minus the
part of it covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import http.client
import io
import itertools
import json
import math
import shutil
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# span fields; NOTE holds what an on_result hook returned
NAME, LAYER, START, END, PARENT, QID, THREAD, ERROR, NOTE = range(9)
LAYERS = ("corpus", "prompting", "judge", "windowing", "pipeline", "annotate", "cli")
ENGINE_SPANS = ("windowing.rerank", "windowing.select")
BATCH_SPANS = ("pipeline.rerank_batch", "pipeline.select_batch", "annotate.annotate")
# hooks only append to these lists, a single step under the interpreter lock
FACTS = ("passages_loaded", "referenced", "prompt_chars", "windows_rendered", "carried", "slots",
         "selected", "batch", "annotate")


class Tracer:
    """Collects spans and call counts without a lock on the hot path.

    Span ids come from ``itertools.count`` and spans are stored by id in a
    dict; both operations are single steps under the interpreter lock. A
    span started on a pool thread with nothing open on that thread gets the
    open batch span as parent, the span that caused it.
    """

    def __init__(self):
        self._spans: dict[int, list] = {}
        self._ids = itertools.count()
        self._counters: dict[str, itertools.count] = {}
        self._local = threading.local()
        self._batch: int | None = None
        self.absent: list[str] = []
        self._patches: list[tuple] = []
        self.command = 0
        self.facts: dict[str, list] = {k: [] for k in FACTS}

    @property
    def spans(self) -> list[list]:
        return [self._spans[i] for i in sorted(self._spans)]

    def calls(self, name: str) -> int:
        counter = self._counters.get(name)
        # next() on a fresh count returns how many times it was advanced
        return next(counter) if counter is not None else 0

    def call(self, name, layer, qid, fn, args, kwargs, on_result):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._batch
        if qid is None and parent is not None:
            qid = self._spans[parent][QID]
        idx = next(self._ids)
        rec = [name, layer, time.perf_counter(), None, parent, qid, threading.get_ident(), None, None]
        self._spans[idx] = rec
        stack.append(idx)
        if name in BATCH_SPANS:
            self._batch = idx
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec[ERROR] = type(exc).__name__
            raise
        finally:
            rec[END] = time.perf_counter()
            stack.pop()
            if name in BATCH_SPANS:
                self._batch = None
        if on_result is not None:
            rec[NOTE] = on_result(self, args, result)
        return result

    def _absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def uninstall(self) -> None:
        """Put back every function and method the tracer wrapped."""
        for patch in reversed(self._patches):
            if patch[0] == "function":
                self._replace_everywhere(patch[2], patch[1])
            else:
                setattr(patch[1], patch[2], patch[3])
        self._patches.clear()

    def _replace_everywhere(self, orig, wrapper) -> None:
        # modules import each other's functions by name, so rebind every reference
        for mod in [m for n, m in sys.modules.items() if n == "ragsift" or n.startswith("ragsift.")]:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)

    def function(self, modname: str, attr: str, layer: str, qid=None, on_result=None,
                 count_only: bool = False) -> None:
        mod = sys.modules.get(modname)
        orig = getattr(mod, attr, None) if mod is not None else None
        name = f"{modname.rsplit('.', 1)[-1]}.{attr}"
        if not callable(orig):
            self._absent(name)
            return
        if count_only:
            counter = self._counters.setdefault(name, itertools.count())

            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                next(counter)
                return orig(*args, **kwargs)
        else:
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                return self.call(name, layer, _safe(qid, args), orig, args, kwargs, on_result)
        self._replace_everywhere(orig, wrapper)
        self._patches.append(("function", orig, wrapper))

    def method(self, cls, attr: str, layer: str, name: str, qid=None, on_result=None) -> None:
        orig = vars(cls).get(attr) if cls is not None else None
        if orig is None:
            self._absent(name)
            return

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return self.call(name, layer, _safe(qid, args), orig, args, kwargs, on_result)

        setattr(cls, attr, wrapper)
        self._patches.append(("method", cls, attr, orig))


def _safe(getter, args):
    if getter is None:
        return None
    try:
        return getter(args)
    except (AttributeError, IndexError, TypeError):
        return None


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    import ragsift.cli  # noqa: F401 - loads every module the commands use

    def loaded(t, args, corpus):
        t.facts["passages_loaded"].append(len(corpus))

    def run_loaded(t, args, run):
        t.facts["referenced"].append(len({d for cl in run.values() for d in cl.doc_ids()}))

    def rendered(t, args, prompt):
        t.facts["prompt_chars"].append(len(prompt.system) + len(prompt.user))
        t.facts["windows_rendered"].append((t.command, prompt.query_id, prompt.doc_ids))

    def verdict(t, args, v):
        return bool(v.repairs)

    def engine_done(t, args, result):
        windows = result.trace.windows
        t.facts["carried"].append(sum(len(w.carried) for w in windows))
        t.facts["slots"].append(sum(len(w.carried) + len(w.fresh) for w in windows))
        t.facts["selected"].append(len(result.selected_ids))

    def batch_done(t, args, batch):
        t.facts["batch"].append((len(batch.results) + len(batch.failures), len(batch.failures),
                                 len(batch.skipped)))

    def annotated(t, args, records):
        t.facts["annotate"].append((len(records), sum(1 for r in records if not r.passed)))

    c, p, j = "ragsift.corpus", "ragsift.prompting", "ragsift.judge"
    tracer.function(c, "load_corpus", "corpus", on_result=loaded)
    tracer.function(c, "load_queries", "corpus")
    tracer.function(c, "load_run", "corpus", on_result=run_loaded)
    tracer.function(c, "load_qrels", "corpus")
    tracer.function(c, "check_run_resolves", "corpus")
    tracer.function(c, "resolve_candidates", "corpus", qid=lambda a: a[1].query_id)
    tracer.function(c, "write_run", "corpus")
    tracer.function(p, "render", "prompting", qid=lambda a: a[1].query_id, on_result=rendered)
    tracer.function(p, "truncate_text", "prompting", count_only=True)
    tracer.function(j, "judge_window", "judge", qid=lambda a: a[1].query_id)
    tracer.function(j, "verdict_from_text", "judge")
    tracer.function(j, "prompt_sha256", "judge")
    judge_mod = sys.modules[j]
    base = getattr(judge_mod, "Judge", None)
    for cls in (list(_subclasses(base)) if base is not None else []):
        if cls.__module__.startswith("ragsift") and "judge" in vars(cls):
            tracer.method(cls, "judge", "judge", f"judge.{cls.__name__}.judge",
                          qid=lambda a: a[1].query_id, on_result=verdict)
    tracer.method(getattr(judge_mod, "RemoteJudge", None), "_complete", "judge",
                  "judge.transport", qid=lambda a: a[1].query_id)
    w = "ragsift.windowing"
    tracer.function(w, "rerank", "windowing", qid=lambda a: a[0].query_id)
    tracer.function(w, "select", "windowing", qid=lambda a: a[0].query_id, on_result=engine_done)
    tracer.function(w, "write_traces", "windowing")
    tracer.function(w, "write_selection_file", "windowing")
    tracer.function("ragsift.pipeline", "rerank_batch", "pipeline", on_result=batch_done)
    tracer.function("ragsift.pipeline", "select_batch", "pipeline", on_result=batch_done)
    tracer.function("ragsift.annotate", "annotate", "annotate", on_result=annotated)
    tracer.function("ragsift.annotate", "write_training_files", "annotate")


def self_times(spans: list[list]) -> list[float]:
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s[START]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, s[END])
            if b > a:
                covered += b - a
                cursor = b
        out.append(s[END] - s[START] - covered)
    return out


def layer_metrics(tracer: Tracer, parallel: int, endpoint_requests: int,
                  overheads: list[float]) -> tuple[dict, dict]:
    spans = tracer.spans
    selfs = self_times(spans)
    dur = [s[END] - s[START] for s in spans]
    facts = tracer.facts

    def total(*names):
        return sum(d for s, d in zip(spans, dur) if s[NAME] in names)

    def self_total(pred):
        return sum(t for s, t in zip(spans, selfs) if pred(s))

    # flags propagate down the tree; a parent is always recorded before its children
    is_call = [s[NAME].startswith("judge.") and s[NAME].endswith(".judge") for s in spans]
    in_call = [False] * len(spans)
    in_engine = [False] * len(spans)
    for i, s in enumerate(spans):
        par = s[PARENT]
        if par is not None:
            in_call[i] = in_call[par] or is_call[par]
            in_engine[i] = in_engine[par] or spans[par][NAME] in ENGINE_SPANS
    outer = [i for i in range(len(spans)) if is_call[i] and not in_call[i]]
    call_ms = [dur[i] * 1000.0 for i in outer]
    engine_s = total(*ENGINE_SPANS)
    batch_s = total("pipeline.rerank_batch", "pipeline.select_batch")
    judge_in_engine = sum(dur[i] for i in outer if in_engine[i])
    batches = facts["batch"]
    annotated = facts["annotate"]
    loaded = max(facts["passages_loaded"], default=0)
    distinct_pairs = len({(c, q, d) for c, q, docs in facts["windows_rendered"] for d in docs})
    slots = sum(facts["slots"])

    def share(a, b):
        return a / b if b else 0.0

    m = {
        "corpus.load_s": (total("corpus.load_corpus", "corpus.load_queries", "corpus.load_run",
                                "corpus.load_qrels"), "s"),
        "corpus.load_corpus_s": (total("corpus.load_corpus"), "s"),
        "corpus.passages_loaded": (loaded, "count"),
        "corpus.referenced_share": (share(max(facts["referenced"], default=0), loaded), "share"),
        "corpus.resolve_s": (total("corpus.check_run_resolves", "corpus.resolve_candidates"), "s"),
        "corpus.write_run_s": (total("corpus.write_run"), "s"),
        "prompting.render_calls": (sum(1 for s in spans if s[NAME] == "prompting.render"), "count"),
        "prompting.render_s": (total("prompting.render"), "s"),
        "prompting.passage_renders_per_distinct": (
            share(tracer.calls("prompting.truncate_text"), distinct_pairs), "ratio"),
        "prompting.prompt_kchars": (sum(facts["prompt_chars"]) / 1000.0, "kchars"),
        "judge.calls": (len(outer), "count"),
        "judge.call_s": (sum(call_ms) / 1000.0, "s"),
        "judge.call_p50_ms": (percentile(call_ms, 0.5), "ms"),
        "judge.call_p90_ms": (percentile(call_ms, 0.9), "ms"),
        "judge.parse_s": (total("judge.verdict_from_text"), "s"),
        "judge.hash_s": (total("judge.prompt_sha256"), "s"),
        "judge.repaired_share": (share(sum(1 for i in outer if spans[i][NOTE]),
                                       sum(1 for i in outer if spans[i][NOTE] is not None)), "share"),
        "judge.requests_per_call": (share(endpoint_requests, len(outer)), "ratio"),
        "judge.transport_failures": (sum(1 for i in outer if spans[i][ERROR]), "count"),
        "judge.transcript_write_s": (self_total(lambda s: s[NAME] == "judge.RecordingJudge.judge"), "s"),
        "windowing.engine_s": (engine_s, "s"),
        "windowing.engine_self_s": (self_total(lambda s: s[NAME] in ENGINE_SPANS), "s"),
        "windowing.windows": (sum(1 for s in spans if s[NAME] == "judge.judge_window"), "count"),
        "windowing.carried_share": (share(sum(facts["carried"]), slots), "share"),
        "windowing.selected_per_query": (share(sum(facts["selected"]), len(facts["selected"])), "count"),
        "windowing.write_traces_s": (total("windowing.write_traces"), "s"),
        "windowing.write_selection_s": (total("windowing.write_selection_file"), "s"),
        "pipeline.batch_s": (batch_s, "s"),
        "pipeline.queries_attempted": (sum(b[0] for b in batches), "count"),
        "pipeline.queries_failed": (sum(b[1] for b in batches), "count"),
        "pipeline.queries_skipped": (sum(b[2] for b in batches), "count"),
        "pipeline.worker_busy_share": (share(engine_s, batch_s * parallel), "share"),
        "pipeline.judge_wait_share": (share(judge_in_engine, engine_s), "share"),
        "annotate.s": (total("annotate.annotate"), "s"),
        "annotate.records": (sum(a[0] for a in annotated), "count"),
        "annotate.rejected_share": (share(sum(a[1] for a in annotated), sum(a[0] for a in annotated)), "share"),
        "annotate.write_s": (total("annotate.write_training_files"), "s"),
        "trace.overhead_share": (statistics.median(overheads) if overheads else 0.0, "share"),
        "trace.overhead_noise": (half_iqr(overheads), "share"),
        "trace.spans": (len(spans), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_total(lambda s, layer=layer: s[LAYER] == layer), "s")
    summary = {
        "engine_s": round(engine_s, 4),
        "prompting_and_engine_self_share_of_engine": round(share(
            self_total(lambda s: s[NAME] in ENGINE_SPANS) + sum(
                t for s, t, e in zip(spans, selfs, in_engine) if e and s[LAYER] == "prompting"),
            engine_s), 4),
        "judge_share_of_engine": round(share(judge_in_engine, engine_s), 4),
        "overhead_shares": [round(x, 4) for x in overheads],
    }
    return m, summary


def half_iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / 2.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: p90 of 100 samples leaves 10 beyond it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def _stub(port: int, method: str, path: str, body: dict | None = None) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=json.dumps(body).encode() if body is not None else None)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def run_command(spec: dict, idx: int, cli_main, tracer: Tracer | None) -> tuple[float, dict, int]:
    """Run one command; return its wall time, exit code and output, and endpoint requests."""
    cmd = spec["commands"][idx]
    out = Path(cmd["out"])
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if spec["stub_port"]:
        _stub(spec["stub_port"], "POST", "/_bench/reset", {"latency_ms": spec["latency_ms"]})
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            rc = cli_main(cmd["argv"])
        else:
            tracer.command = idx
            rc = tracer.call("cli.main", "cli", None, cli_main, (cmd["argv"],), {}, None)
    wall = time.perf_counter() - t0
    result, requests = {"rc": rc, "stderr": err.getvalue(), "out": cmd["out"]}, 0
    if spec["stub_port"]:
        stats = _stub(spec["stub_port"], "GET", "/_bench/stats")
        requests, result["messy"] = stats["requests"], stats["messy"]
    return wall, result, requests


def main() -> int:
    spec_path, layers_path = Path(sys.argv[1]), Path(sys.argv[2])
    spec = json.loads(spec_path.read_text())
    from ragsift.cli import main as cli_main

    if spec["rounds"] % 2 != 1:
        raise SystemExit("the number of rounds must be odd")
    commands = range(len(spec["commands"]))
    # a discarded first command grows the heap and loads lazy imports, which
    # would otherwise count against the first plain run
    warm = [i for i in commands if spec["commands"][i]["name"].startswith("annotate")][:1] or [0]
    run_command(spec, warm[0], cli_main, None)
    plain: dict[int, list[float]] = defaultdict(list)
    traced: dict[int, list[float]] = defaultdict(list)
    for rnd in range(spec["rounds"]):
        tracer, results, requests = Tracer(), {}, 0
        for idx in commands:
            for with_trace in ((False, True) if rnd % 2 == 0 else (True, False)):
                if not with_trace:
                    plain[idx].append(run_command(spec, idx, cli_main, None)[0])
                    continue
                install(tracer)
                try:
                    wall, results[spec["commands"][idx]["name"]], n = run_command(spec, idx, cli_main, tracer)
                finally:
                    tracer.uninstall()
                traced[idx].append(wall)
                requests += n
    overheads = [t / p - 1.0 for i in commands for p, t in zip(plain[i], traced[i])]
    metrics, summary = layer_metrics(tracer, spec["parallel"], requests, overheads)
    with (layers_path.parent / "spans.jsonl").open("w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s) + "\n")
    layers_path.write_text(json.dumps({
        "metrics": metrics,
        "summary": summary,
        "absent": tracer.absent,
        "commands": results,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
