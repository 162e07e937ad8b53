"""The ragsift benchmark: one workload per run, untraced or traced.

Usage, from the root of a ragsift checkout::

    python3 perfbench/run.py --workload oracle-bulk --seed 1 --seconds 30 --trace 0

The benchmark generates its inputs from the seed (cached under
``.bench_cache/``), then drives the ``ragsift`` CLI from ``src/`` of the
checkout. With ``--trace 0`` every command runs in a fresh child process and
the end-to-end metrics are printed; with ``--trace 1`` the same commands run
in one child through ``ragsift.cli.main``, plain and with spans around each
module's public functions in turn (``traced.py``), and the per-layer
metrics are printed. Either way every output is checked; the last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Annotation must reject exactly the answers the judge made defective. The
stub reports which answers it made messy. The oracle writes selections
without a pseudo answer, so it gets every selection record rejected and
every ranking record passed; on ``oracle-bulk`` the writing of selection
training records is therefore never exercised, only on ``endpoint-stub``.

Workloads (all at depth 100, window 20, stride 10):

* ``oracle-bulk``: 1000 queries, oracle judge, corpus = union of the
  candidates, ``--trace`` on. The judge costs nothing, so rendering, the
  engines and the writers are the whole cost. It runs ``--parallel 1``: the
  work is pure Python, so a second thread only contends for the interpreter
  lock, which made throughput lower and per-query latency bimodal from run
  to run. The thread pool is exercised by ``endpoint-stub``.
* ``endpoint-stub``: 100 queries per engine against the stub endpoint
  (``stub.py``) in its own process, 20 ms injected latency per request,
  ``--parallel`` = nproc, ``--transcript`` recording. A closed loop of nproc
  waiting clients, so it is judge-bound. The answers are LLM-style,
  with a fixed share needing each repair. A fixed number of queries per
  engine get a 503 (retried), a 429 with Retry-After or a 200 with
  malformed JSON (both fatal at the time of writing) on one request. The
  corpus holds 10x the passages the run references, so loading is most of
  ``setup_s`` and ``peak_rss_mb``.

The untraced run repeats the four commands (rerank, select, annotate for
ranking and for selection) for as many passes as fit in ``--seconds``.
Rates divide the queries of all passes by their summed time, which averages
the host's speed swings of a few seconds over the whole run; a pass's rate
would follow the host's speed during that pass alone. Per-query latency
runs from a query's first judge request to its last response: the stub
stamps them for the endpoint; for the in-process judges ``probe.py`` stamps
the judge calls. Latency percentiles are taken over the queries of all
passes together. ``queries_per_s`` divides completed queries by the time
from the command's first judge request to its last output write;
``setup_s`` is the median of the rest of each command's wall time (see
``work_seconds``), so both come from the same command run.

If the probe cannot attach to the judge (a later ragsift renamed what it
wraps), each command is measured from outside instead: ``setup_s`` is the
wall time of the same command over an empty query file, latency is the
mean time per query, and judge calls and prompt characters are read off
``trace.jsonl`` and the corpus (the characters of the query and the
passages of each judged window, an estimate).

``attempted`` counts queries attempted by rerank, select and annotate;
``failed`` counts those that failed other than by a fault the stub injected
on purpose. Aborts caused by injected faults show in
``completed_query_share`` instead.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from traced import percentile  # noqa: E402
from generate import FATAL_FAULTS, DataSpec, ensure_inputs, read_qrels, read_queries, read_run  # noqa: E402

ROOT = Path.cwd()
CACHE = ROOT / ".bench_cache"
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
DEPTH, W, S = 100, 20, 10
ANNOTATE_DEPTH = 20
CHILD_TIMEOUT_S = 150
EMPTY_QUERIES = WORK / "empty-queries.jsonl"
# the stub's own round trip must stay below this share of the injected latency
STUB_OVERHEAD_LIMIT = 0.25
ENGINES = ("rerank", "select")
COMMANDS = ("rerank", "select", "annotate-ranking", "annotate-selection")
KIND = {"rerank": "ranking", "select": "selection",
        "annotate-ranking": "ranking", "annotate-selection": "selection"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: DataSpec
    judge: str
    parallel: int
    latency_ms: float = 0.0
    # rounds of plain and traced runs of each command in the traced run
    trace_rounds: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "oracle-bulk",
            "CPU-bound: free oracle judge, so rendering, engines and writers are the whole "
            "cost; loading is a small share",
            DataSpec(queries=1000, corpus_ratio=1.0, length_median=600),
            judge="oracle",
            parallel=1,
            trace_rounds=3,
        ),
        Workload(
            "endpoint-stub",
            "judge-bound: nproc clients against a 20 ms stub endpoint with LLM-style answers "
            "and a few injected faults; corpus 10x the referenced passages",
            DataSpec(queries=100, corpus_ratio=10.0, length_median=600,
                     faults=(("503", 1), ("429", 2), ("malformed", 2))),
            judge="endpoint",
            parallel=NPROC,
            latency_ms=20.0,
        ),
    )
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONNOUSERSITE"] = "1"
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    # keep the HTTP client from reading a netrc file outside the checkout
    env["NETRC"] = str(WORK / "no-netrc")
    return env


def run_child(argv: list[str], log_dir: Path) -> dict:
    """Run a child to completion; return wall time, exit code, max RSS and stderr."""
    log_dir.mkdir(parents=True, exist_ok=True)
    with (log_dir / "stdout.txt").open("wb") as out, (log_dir / "stderr.txt").open("wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t_end = time.perf_counter()
        clock_offset = time.time() - t_end
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": t_end - t0,
        "t_end": t_end,
        "clock_offset": clock_offset,
        "rc": proc.returncode,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "stderr": (log_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace"),
    }


class Stub:
    """The stub endpoint in its own process."""

    def __init__(self, data: Path, seed: int):
        argv = [sys.executable, str(BENCH / "stub.py"), "--queries", str(data / "queries.jsonl"),
                "--qrels", str(data / "qrels.txt"), "--faults", str(data / "faults.json"),
                "--seed", str(seed)]
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise BenchError(f"stub endpoint did not start: {line!r}")
        self.port = int(line.split()[1])
        self.url = f"http://127.0.0.1:{self.port}/v1"

    def _call(self, method: str, path: str, body: dict | None = None) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body=json.dumps(body).encode() if body is not None else None,
                         headers={"Content-Type": "application/json"})
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def reset(self, latency_ms: float) -> None:
        self._call("POST", "/_bench/reset", {"latency_ms": latency_ms})

    def stats(self) -> dict:
        return self._call("GET", "/_bench/stats")

    def overhead_ms(self, data: Path, rounds: int = 40) -> float:
        """Median round trip at zero injected latency over one keep-alive connection."""
        queries = read_queries(data / "queries.jsonl")
        qid, qtext = next(iter(queries.items()))
        docs = read_run(data / "run.trec")[qid][:W]
        user = "\n".join(f"[{i}] {d} " + "lorem ipsum " * 50 for i, d in enumerate(docs, 1))
        body = json.dumps({"model": "stub", "messages": [
            {"role": "user", "content": f"{user}\n\nSearch query: {qtext}\nRank them."}]}).encode()
        self.reset(0.0)
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        times = []
        try:
            conn.connect()
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for _ in range(rounds):
                t0 = time.perf_counter()
                conn.request("POST", "/v1/chat/completions", body=body,
                             headers={"Content-Type": "application/json"})
                conn.getresponse().read()
                times.append((time.perf_counter() - t0) * 1000.0)
        finally:
            conn.close()
        return statistics.median(times[5:])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def cli_args(wl: Workload, cmd: str, data: Path, out: Path, stub_url: str | None,
             queries: Path | None = None) -> list[str]:
    if cmd.startswith("annotate"):
        args = ["annotate", "--kind", KIND[cmd], "--depth", str(ANNOTATE_DEPTH), "--w", str(W)]
    else:
        args = [cmd, "--depth", str(DEPTH), "--w", str(W), "--s", str(S), "--trace"]
    args += ["--corpus", str(data / "corpus.jsonl"), "--queries", str(queries or data / "queries.jsonl"),
             "--run", str(data / "run.trec"), "--qrels", str(data / "qrels.txt"),
             "--out", str(out), "--parallel", str(wl.parallel), "--judge", wl.judge]
    if wl.judge == "endpoint":
        args += ["--endpoint-url", stub_url, "--model", "stub",
                 "--transcript", str(out / "transcript.jsonl")]
    return args


class Inputs:
    """The generated files of one workload and seed, plus what the checks need."""

    def __init__(self, wl: Workload, seed: int):
        self.dir = ensure_inputs(wl.spec, seed, CACHE / wl.name)
        self.candidates = read_run(self.dir / "run.trec")
        self.qrels = read_qrels(self.dir / "qrels.txt")
        self.query_text = read_queries(self.dir / "queries.jsonl")
        self.queries = set(self.query_text)
        self.attempted = {q for q in self.queries if self.candidates.get(q)}
        plan = json.loads((self.dir / "faults.json").read_text()) if wl.judge == "endpoint" else {}
        self.fatal = {kind: {q for q, (c, _) in plan.get(kind, {}).items() if c in FATAL_FAULTS}
                      for kind in ("ranking", "selection")}
        self.fatal_first = {kind: {q for q, (c, k) in plan.get(kind, {}).items()
                                   if c in FATAL_FAULTS and k == 1}
                            for kind in ("ranking", "selection")}
        self._passage_chars: dict[str, int] | None = None

    def passage_chars(self) -> dict[str, int]:
        if self._passage_chars is None:
            with (self.dir / "corpus.jsonl").open(encoding="utf-8") as fh:
                self._passage_chars = {rec["doc_id"]: len(rec["text"]) for rec in map(json.loads, fh)}
        return self._passage_chars


def verify(cmd: str, res: dict, out: Path, inputs: Inputs, problems: list[str]) -> dict:
    """Check one command's outputs; return what it completed, its quality and hashes.

    ``unexpected`` counts attempted queries that did not complete for any
    reason other than a fatal fault the stub injected on purpose.
    """
    kind = KIND[cmd]
    local: list[str] = []
    info: dict = {"hashes": {}}
    if cmd in ENGINES:
        aborted = checks.aborted_from_stderr(res["stderr"], local)
        checks.check_exit(res["rc"], aborted, local)
        if cmd == "rerank":
            done = checks.check_rerank(out, inputs.candidates, local)
            info["quality"] = checks.ndcg_at_10(done, inputs.qrels)
            files = ("run.trec", "trace.jsonl")
        else:
            done = checks.check_select(out, inputs.candidates, W, S, local)
            info["quality"] = checks.evidence_f1(done, inputs.qrels)
            files = ("selected.jsonl", "trace.jsonl")
        checks.check_coverage(inputs.attempted, set(done), aborted, inputs.fatal[kind], local)
        info["completed"] = set(done)
        info["unexpected"] = len(inputs.attempted - set(done) - inputs.fatal[kind])
        info["hashes"] = {f: checks.sha256_file(out / f) for f in files}
    else:
        files = ("train.jsonl", "rejected.jsonl")
        if res["rc"] != 0:
            local.append(f"annotate exit code {res['rc']}")
        records, transport = checks.check_annotate(out, inputs.attempted, inputs.fatal_first[kind],
                                                   expected_rejects(kind, res, inputs), local)
        info["records"] = records
        info["unexpected"] = (len(inputs.attempted) if res["rc"] != 0 else
                              len(transport - inputs.fatal_first[kind]) + len(inputs.attempted) - records)
        info["hashes"] = {f: checks.sha256_file(out / f) for f in files}
    if "clock_offset" in res:
        # file times are wall-clock; move them onto this process's monotonic clock
        info["written"] = max((out / f).stat().st_mtime_ns for f in files) / 1e9 - res["clock_offset"]
    problems.extend(f"{cmd}: {p}" for p in local[:20])
    return info


def expected_rejects(kind: str, res: dict, inputs: Inputs) -> set[str]:
    """Queries whose judge answer annotation must reject for its content.

    The stub reports which queries it sent an answer needing a repair. The
    oracle writes canonical rankings, which pass, and selections without a
    pseudo answer, which fail, so every oracle selection record is rejected.
    """
    if "messy" in res:
        prefix = kind + "|"
        return {k[len(prefix):] for k in res["messy"] if k.startswith(prefix)}
    return set(inputs.attempted) if kind == "selection" else set()


def launcher(wl: Workload, out: Path) -> list[str]:
    if wl.judge == "endpoint":
        return [sys.executable, "-m", "ragsift"]
    return [sys.executable, str(BENCH / "probe.py"), str(out / "probe.json")]


def run_command(wl: Workload, cmd: str, inputs: Inputs, out: Path, stub: Stub | None) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if stub is not None:
        stub.reset(wl.latency_ms)
    argv = launcher(wl, out) + cli_args(wl, cmd, inputs.dir, out, stub.url if stub else None)
    res = run_child(argv, out)
    if stub is not None:
        stats = stub.stats()
        prefix = KIND[cmd] + "|"
        res["per_query"] = {k[len(prefix):]: v for k, v in stats["per_query"].items()
                            if k.startswith(prefix)}
        res["requests"], res["chars"], res["messy"] = stats["requests"], stats["chars"], stats["messy"]
    else:
        probe = out / "probe.json"
        per_query = json.loads(probe.read_text()).get("per_query") if probe.exists() else None
        if per_query:
            res["per_query"] = per_query
            res["requests"] = sum(v[2] for v in per_query.values())
            res["chars"] = sum(v[3] for v in per_query.values())
        else:
            res.update(measure_outside(wl, cmd, inputs, out))
    return res


def measure_outside(wl: Workload, cmd: str, inputs: Inputs, out: Path) -> dict:
    """What the probe would have given, for a command it could not attach to.

    Set-up is the wall time of the same command over an empty query file;
    judge calls and prompt characters come from the windows in trace.jsonl.
    """
    EMPTY_QUERIES.parent.mkdir(parents=True, exist_ok=True)
    EMPTY_QUERIES.write_text("")
    empty = out.with_name(out.name + "-empty")
    shutil.rmtree(empty, ignore_errors=True)
    empty.mkdir(parents=True)
    argv = launcher(wl, empty) + cli_args(wl, cmd, inputs.dir, empty, None, queries=EMPTY_QUERIES)
    found = {"per_query": None, "empty_wall": run_child(argv, empty)["wall"], "requests": 0, "chars": 0}
    if cmd in ENGINES and (out / "trace.jsonl").exists():
        chars = inputs.passage_chars()
        with (out / "trace.jsonl").open(encoding="utf-8") as fh:
            for rec in map(json.loads, fh):
                docs = rec.get("carried", []) + rec.get("fresh", [])
                found["requests"] += 1
                found["chars"] += len(inputs.query_text.get(rec["query_id"], "")) + sum(
                    chars.get(d, 0) for d in docs)
    return found


def work_seconds(res: dict) -> float:
    """From the command's first judge request to its last write of an output file.

    The probe and the stub stamp requests with the same monotonic clock as
    this process, and the output files' modification times mark when the
    writers finished. This splits each command run into the work that grows
    with the queries (judging and writing) and the rest (start-up, loading
    and validating inputs, hashing them for the manifest, exit), which is
    what the same command spends on an empty query file. Without stamps
    (see ``measure_outside``) it is the wall time beyond that of an empty
    query file.
    """
    if res["per_query"] is None:
        return res["wall"] - res["empty_wall"]
    starts = [v[0] for v in res["per_query"].values()]
    if not starts:
        raise BenchError("a command made no judge request")
    return res["info"]["written"] - min(starts)


def setup_seconds(res: dict) -> float:
    return res["wall"] - work_seconds(res)


def run_untraced(wl: Workload, inputs: Inputs, stub: Stub | None, seconds: float,
                 problems: list[str]) -> tuple[dict, int, int]:
    passes = []
    t_start = time.perf_counter()
    # another pass only if it is expected to end within the measuring time
    while not passes or (time.perf_counter() - t_start) * (len(passes) + 1) / len(passes) <= seconds:
        results = {}
        for cmd in COMMANDS:
            out = WORK / wl.name / f"pass{len(passes)}" / cmd
            res = run_command(wl, cmd, inputs, out, stub)
            res["info"] = verify(cmd, res, out, inputs, problems)
            results[cmd] = res
        passes.append(results)
    setup = [setup_seconds(r) for p in passes for r in p.values()]

    hashes = [{c: r["info"]["hashes"] for c, r in p.items()} for p in passes]
    if any(h != hashes[0] for h in hashes):
        problems.append("outputs differ between passes of the same inputs")
    print("output sha256: " + json.dumps(hashes[0], sort_keys=True))

    metrics: dict[str, tuple[float, str]] = {}
    attempted = sum(len(inputs.attempted) for _ in passes for _ in COMMANDS)
    failed = sum(r["info"]["unexpected"] for p in passes for r in p.values())
    if any(r["per_query"] is None for p in passes for r in p.values()):
        print("probe not attached: set-up, latency, judge calls and prompt characters "
              "measured from outside")
    for cmd in ENGINES:
        rates, latencies, calls, chars, done, work = [], [], 0, 0, 0, 0.0
        for r in (p[cmd] for p in passes):
            completed = r["info"]["completed"]
            rates.append(len(completed) / work_seconds(r))
            work += work_seconds(r)
            mean_ms = work_seconds(r) * wl.parallel * 1000.0 / max(len(completed), 1)
            for qid in inputs.attempted:
                if qid not in completed:
                    latencies.append(math.inf)
                elif r["per_query"] is None:
                    latencies.append(mean_ms)
                else:
                    span = r["per_query"].get(qid)
                    latencies.append((span[1] - span[0]) * 1000.0 if span else math.inf)
            calls += r["requests"]
            chars += r["chars"]
            done += len(completed)
        print(f"{cmd} queries/s per pass: {[round(x, 2) for x in rates]}")
        metrics[f"{cmd}.queries_per_s"] = (done / work, "1/s")
        metrics[f"{cmd}.query_latency_p50_ms"] = (min(percentile(latencies, 0.5), 1e9), "ms")
        metrics[f"{cmd}.query_latency_p90_ms"] = (min(percentile(latencies, 0.9), 1e9), "ms")
        metrics[f"{cmd}.judge_calls_per_query"] = (calls / max(done, 1), "calls/query")
        metrics[f"{cmd}.prompt_kchars_per_query"] = (chars / 1000.0 / max(done, 1), "kchars/query")
    # both annotation kinds make up one user-facing command: pool their rate
    annotations = [p[c] for p in passes for c in COMMANDS if c.startswith("annotate")]
    metrics["annotate.queries_per_s"] = (sum(r["info"]["records"] for r in annotations)
                                         / sum(work_seconds(r) for r in annotations), "1/s")
    completed_total = sum(len(p[c]["info"]["completed"]) for p in passes for c in ENGINES)
    engine_attempted = len(passes) * len(ENGINES) * len(inputs.attempted)
    metrics["completed_query_share"] = (completed_total / engine_attempted, "share")
    metrics["rerank.ndcg_at_10"] = (passes[-1]["rerank"]["info"]["quality"], "score")
    metrics["select.evidence_f1"] = (passes[-1]["select"]["info"]["quality"], "score")
    metrics["setup_s"] = (statistics.median(setup), "s")
    metrics["peak_rss_mb"] = (statistics.median(max(r["maxrss_mb"] for r in p.values()) for p in passes), "MB")
    print(f"passes: {len(passes)}; set-up times (s): {json.dumps([round(x, 4) for x in setup])}")
    return metrics, attempted, failed


def run_traced(wl: Workload, inputs: Inputs, stub: Stub | None, problems: list[str]) -> tuple[dict, int, int]:
    work = WORK / wl.name / "traced"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    commands = []
    for cmd in COMMANDS:
        out = work / cmd
        commands.append({"name": cmd, "out": str(out),
                         "argv": cli_args(wl, cmd, inputs.dir, out, stub.url if stub else None)})
    spec = {"commands": commands, "parallel": wl.parallel, "rounds": wl.trace_rounds,
            "stub_port": stub.port if stub else None, "latency_ms": wl.latency_ms}
    (work / "spec.json").write_text(json.dumps(spec, indent=1))
    res = run_child([sys.executable, str(BENCH / "traced.py"), str(work / "spec.json"),
                     str(work / "layers.json")], work)
    if res["rc"] != 0:
        raise BenchError(f"traced run failed: {res['stderr'][-2000:]}")
    layers = json.loads((work / "layers.json").read_text())
    attempted = failed = 0
    for cmd in COMMANDS:
        run = layers["commands"][cmd]
        info = verify(cmd, run, Path(run["out"]), inputs, problems)
        attempted += len(inputs.attempted)
        failed += info["unexpected"]
    if layers["absent"]:
        print("absent wrappers: " + ", ".join(layers["absent"]))
    print("span summary: " + json.dumps(layers["summary"], sort_keys=True))
    return {k: (v, u) for k, (v, u) in layers["metrics"].items()}, attempted, failed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="ragsift benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ragsift" / "cli.py").is_file():
        print(f"error: no ragsift sources under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 1
    wl = WORKLOADS[args.workload]
    print(json.dumps({"workload": wl.name, "why": wl.why, "seed": args.seed, "nproc": NPROC,
                      "parallel": wl.parallel, "judge": wl.judge, "latency_ms": wl.latency_ms,
                      "python": sys.version.split()[0]}))
    problems: list[str] = []
    try:
        inputs = Inputs(wl, args.seed)
        stub = Stub(inputs.dir, args.seed) if wl.judge == "endpoint" else None
        try:
            overhead = None
            if stub is not None:
                overhead = stub.overhead_ms(inputs.dir)
                print(f"stub overhead at zero latency: {overhead:.3f} ms")
                if overhead > STUB_OVERHEAD_LIMIT * wl.latency_ms:
                    raise BenchError(f"stub round trip {overhead:.2f} ms is not small beside "
                                     f"the injected {wl.latency_ms} ms")
            if args.trace:
                metrics, attempted, failed = run_traced(wl, inputs, stub, problems)
                metrics["stub.overhead_ms"] = (overhead or 0.0, "ms")
            else:
                metrics, attempted, failed = run_untraced(wl, inputs, stub, args.seconds, problems)
        finally:
            if stub is not None:
                stub.stop()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
