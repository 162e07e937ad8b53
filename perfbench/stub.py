"""OpenAI-compatible chat-completions stub that judges like a qrels oracle.

Run it as its own process::

    python3 perfbench/stub.py --queries queries.jsonl --qrels qrels.txt \
        [--faults faults.json] [--seed N]

It binds 127.0.0.1 on a free port and prints ``PORT <n>`` on stdout. The
stub recognises the query from the instruction line of the default prompt
templates and each passage from the doc id its text starts with, and
answers in the judge's output grammar.

Answers are LLM-style: prose around the ranking, a pseudo-answer before
the ``Selected:`` line, and a fixed share of answers that need each repair
tag, chosen per prompt by hashing the seed and the prompt.

The fault schedule (see ``generate.fault_schedule``) is served on the first
attempt of the scheduled prompt only, so a retry succeeds.

Admin paths, used by the benchmark and never by ragsift:
``POST /_bench/reset`` with ``{"latency_ms": x}`` clears all state and sets
the latency injected into every request (none at start); ``GET
/_bench/stats`` returns request counts, message characters, faults served,
per-query first-receipt and last-departure times, and the queries sent an
answer that needs a repair.

Every response goes out in a single write. Sending headers and body in two
writes stalls each keep-alive round trip on Nagle's algorithm and delayed
ACKs (tens of milliseconds), which would swamp the injected latency.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from generate import read_qrels, read_queries  # noqa: E402

QUERY_LINE = re.compile(r"^(Search query|Question): (.*)$", re.MULTILINE)
PASSAGE_LINE = re.compile(r"^\[(\d+)\] (\S+)", re.MULTILINE)
KIND_BY_LABEL = {"Search query": "ranking", "Question": "selection"}

# share of answers that need each repair, in cumulative order
RANKING_MESS = (("dedup", 0.04), ("out_of_range", 0.04), ("missing", 0.04),
                ("free_text", 0.04), ("unparseable", 0.02))
SELECTION_MESS = (("dedup", 0.04), ("out_of_range", 0.04), ("free_text", 0.04),
                  ("unparseable", 0.02))

REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 429: "Too Many Requests",
           503: "Service Unavailable"}


class FaultSchedule:
    """Decides which request gets a fault, independent of request order.

    A fault is planned for the k-th distinct prompt of a (kind, query). A
    prompt is identified by its hash, and only its first attempt is faulted.
    """

    def __init__(self, plan: dict[str, dict[str, list]]):
        self.plan = plan
        self._lock = threading.Lock()
        self._seen: set[str] = set()
        self._ordinal: dict[tuple[str, str], int] = {}

    def decide(self, kind: str, query_id: str, digest: str) -> str | None:
        with self._lock:
            if digest in self._seen:
                return None
            self._seen.add(digest)
            key = (kind, query_id)
            k = self._ordinal[key] = self._ordinal.get(key, 0) + 1
        planned = self.plan.get(kind, {}).get(query_id)
        if planned is not None and planned[1] == k:
            return planned[0]
        return None


def _pick(table, u: float) -> str:
    acc = 0.0
    for name, share in table:
        acc += share
        if u < acc:
            return name
    return "clean"


def answer(kind: str, grades: list[int], u: float) -> tuple[str, str]:
    """Judge text for a window whose passages have ``grades`` (window order).

    ``u`` in [0, 1) picks which repair, if any, the answer will need. Returns
    the text and the repair it needs, ``"clean"`` for none.
    """
    n = len(grades)
    order = sorted(range(1, n + 1), key=lambda i: (-grades[i - 1], i))
    useful = [i for i in order if grades[i - 1] >= 1]
    if kind == "ranking":
        ranking = " > ".join(f"[{i}]" for i in order)
        mess = _pick(RANKING_MESS, u)
        if mess == "dedup":
            return " > ".join(f"[{i}]" for i in order[:3] + order[:1] + order[3:]), mess
        if mess == "out_of_range":
            return f"[{n + 3}] > " + ranking, mess
        if mess == "missing":
            return " > ".join(f"[{i}]" for i in order[: max(1, n - 4)]), mess
        if mess == "free_text":
            return "Ranking: " + ", ".join(str(i) for i in order), mess
        if mess == "unparseable":
            return "I cannot rank these passages without more context.", mess
        return f"Here is my ranking of the {n} passages:\n{ranking}\nThe first ones match best.", "clean"
    pseudo = (f"The answer draws on {len(useful)} of the {n} passages."
              if useful else "None of the passages answers the question.")
    listed = ", ".join(f"[{i}]" for i in useful) or "none"
    mess = _pick(SELECTION_MESS, u)
    if mess == "dedup" and useful:
        return f"{pseudo}\nSelected: " + ", ".join(f"[{i}]" for i in useful + useful[:1]), mess
    if mess == "out_of_range":
        return f"{pseudo}\nSelected: " + ", ".join(f"[{i}]" for i in useful + [n + 2]), mess
    if mess == "free_text" and useful:
        return f"{pseudo} Passages " + " and ".join(f"[{i}]" for i in useful) + " help.", mess
    if mess == "unparseable":
        return "I am not sure which passages help.", mess
    return f"{pseudo}\nSelected: {listed}", "clean"


class StubState:
    def __init__(self, queries: dict[str, str], qrels: dict[str, dict[str, int]],
                 plan: dict, seed: int):
        self.qid_by_text = {text: qid for qid, text in queries.items()}
        self.qrels = qrels
        self.plan = plan
        self.seed = seed
        self.lock = threading.Lock()
        self.reset(0.0)

    def reset(self, latency_ms: float) -> None:
        with self.lock:
            self.latency = latency_ms / 1000.0
            self.faults = FaultSchedule(self.plan)
            self.requests = 0
            self.chars = 0
            self.served = {c: 0 for c in ("503", "429", "malformed")}
            self.per_query: dict[str, list] = {}
            self.messy: set[str] = set()

    def record(self, key: str | None, t_recv: float, t_sent: float, chars: int,
               fault: str | None, messy: bool = False) -> None:
        with self.lock:
            self.requests += 1
            self.chars += chars
            if fault:
                self.served[fault] += 1
            if key is None:
                return
            if messy:
                self.messy.add(key)
            rec = self.per_query.get(key)
            if rec is None:
                self.per_query[key] = [t_recv, t_sent, 1, chars]
            else:
                rec[0] = min(rec[0], t_recv)
                rec[1] = max(rec[1], t_sent)
                rec[2] += 1
                rec[3] += chars

    def stats(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "chars": self.chars,
                "faults_served": dict(self.served),
                "per_query": {k: list(v) for k, v in self.per_query.items()},
                "messy": sorted(self.messy),
            }


def _handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def _send(self, status: int, body: bytes, extra: tuple[str, ...] = ()) -> None:
            head = [f"HTTP/1.1 {status} {REASONS.get(status, 'Error')}",
                    "Content-Type: application/json", f"Content-Length: {len(body)}", *extra]
            self.wfile.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body)

        def do_GET(self):
            if self.path == "/_bench/stats":
                self._send(200, json.dumps(state.stats()).encode("utf-8"))
            else:
                self._send(404, b'{"error": "not found"}')

        def do_POST(self):
            t_recv = time.perf_counter()
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/_bench/reset":
                state.reset(float(json.loads(body or b"{}").get("latency_ms", 0.0)))
                self._send(200, b'{"ok": true}')
                return
            if not self.path.endswith("/chat/completions"):
                self._send(404, b'{"error": "not found"}')
                return
            messages = json.loads(body)["messages"]
            system = "".join(m["content"] for m in messages if m["role"] == "system")
            user = "".join(m["content"] for m in messages if m["role"] == "user")
            chars = len(system) + len(user)
            m = QUERY_LINE.search(user)
            qid = state.qid_by_text.get(m.group(2)) if m else None
            if qid is None:
                self._send(400, b'{"error": "unrecognised prompt"}')
                state.record(None, t_recv, time.perf_counter(), chars, None)
                return
            kind = KIND_BY_LABEL[m.group(1)]
            digest = hashlib.sha256((system + "\n\n" + user).encode("utf-8")).hexdigest()
            fault = state.faults.decide(kind, qid, digest)
            mess = "clean"
            if state.latency:
                time.sleep(state.latency)
            if fault == "503":
                self._send(503, b'{"error": "overloaded"}')
            elif fault == "429":
                self._send(429, b'{"error": "rate limited"}', ("Retry-After: 1",))
            elif fault == "malformed":
                self._send(200, b'{"choices": [{"message": ')
            else:
                grades_by_doc = state.qrels.get(qid, {})
                grades = [grades_by_doc.get(doc, 0) for _, doc in PASSAGE_LINE.findall(user)]
                u = int(hashlib.sha256(f"{state.seed}/{digest}".encode()).hexdigest()[:8], 16) / 2**32
                text, mess = answer(kind, grades, u)
                payload = {"choices": [{"message": {"role": "assistant", "content": text}}]}
                self._send(200, json.dumps(payload).encode("utf-8"))
            state.record(f"{kind}|{qid}", t_recv, time.perf_counter(), chars, fault, mess != "clean")

    return Handler


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--queries", required=True)
    ap.add_argument("--qrels", required=True)
    ap.add_argument("--faults")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    plan = json.loads(Path(args.faults).read_text()) if args.faults else {}
    state = StubState(read_queries(Path(args.queries)), read_qrels(Path(args.qrels)),
                      plan, args.seed)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _handler(state))
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
