"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a ragsift checkout::

    python3 perfbench/collect.py --workloads oracle-bulk endpoint-stub \
        --seeds 1 2 3 4 5 --seconds 20 --out summary.json

For every workload and end-to-end metric it prints the median, the
quartiles and the spread (interquartile range as a share of the median)
next to the bound in BENCHMARK.json, flagging spreads above a third of the
bound. ``--trace 1`` summarises the per-layer metrics instead. Use it to
compare a change against its parent: run it on both checkouts with the
same seeds and settings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict | None]:
    """The result line of one run, and the output hashes it printed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    hashes = next((json.loads(line.split(":", 1)[1]) for line in lines
                   if line.startswith("output sha256:")), None)
    return json.loads(lines[-1]), hashes


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--commit", help="commit id of the checkout, recorded in --out")
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary: dict = {"commit": args.commit, "nproc": run.NPROC, "python": sys.version.split()[0],
                     "run_seconds": seconds, "trace": args.trace, "workloads": {}}
    for wl in args.workloads:
        outcomes = [run_once(wl, seed, seconds, args.trace) for seed in args.seeds]
        runs = [r for r, _ in outcomes]
        if not all(r["correct"] for r in runs):
            print(f"{wl}: some runs reported correct=false")
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarise([r["metrics"][name]["value"] for r in runs])
        w = run.WORKLOADS[wl]
        summary["workloads"][wl] = {
            "why": w.why, "spec": asdict(w.spec), "judge": w.judge, "parallel": w.parallel,
            "latency_ms": w.latency_ms, "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs), "failed": [r["failed"] for r in runs],
            "output_sha256": {str(seed): h for seed, (_, h) in zip(args.seeds, outcomes)},
            "metrics": metrics,
        }
        for name, s in sorted(metrics.items()):
            bound = bounds.get(name)
            flag = " <-- above bound/3" if bound and s["spread"] > bound / 3 else ""
            print(f"{wl:14s} {name:34s} median {s['median']:12.4f}  spread {s['spread']:.4f}"
                  f"  bound {bound}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
