"""Run one ragsift CLI command and time each query's judge calls.

Usage: python3 perfbench/probe.py STATS_JSON <ragsift arguments...>

Used for the judges that run inside the ragsift process (the oracle),
where no endpoint sees the calls. It wraps the ``judge`` method of every
``Judge`` subclass, counting only the outermost call on each thread, and
records per query the start of its first judge call, the end of its last,
the number of calls and the message characters. That costs two clock reads
per window. The command's exit code is passed through.

The probe reaches into ragsift's internals, so it gives way when they
change: if ``ragsift.judge.Judge`` or its ``judge`` method is gone, the
command runs unwrapped and STATS_JSON says ``"attached": false``; a call
whose prompt has no query id is not recorded. ``run.py`` then measures the
command from outside.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _prompt_facts(args: tuple, kwargs: dict) -> tuple[str | None, int]:
    prompt = kwargs.get("prompt", args[0] if args else None)
    qid = getattr(prompt, "query_id", None)
    chars = sum(len(getattr(prompt, part, None) or "") for part in ("system", "user"))
    return (qid if isinstance(qid, str) else None), chars


def install(stats: dict[str, list]) -> bool:
    """Wrap every ``Judge.judge``; return whether any was wrapped."""
    try:
        from ragsift.judge import Judge
    except ImportError:
        return False

    lock = threading.Lock()
    local = threading.local()

    def wrap(orig):
        @functools.wraps(orig)
        def judge(self, *args, **kwargs):
            if getattr(local, "inside", False):
                return orig(self, *args, **kwargs)
            local.inside = True
            t0 = time.perf_counter()
            try:
                return orig(self, *args, **kwargs)
            finally:
                t1 = time.perf_counter()
                local.inside = False
                qid, chars = _prompt_facts(args, kwargs)
                if qid is not None:
                    with lock:
                        rec = stats.get(qid)
                        if rec is None:
                            stats[qid] = [t0, t1, 1, chars]
                        else:
                            rec[0] = min(rec[0], t0)
                            rec[1] = max(rec[1], t1)
                            rec[2] += 1
                            rec[3] += chars

        return judge

    wrapped = 0
    for cls in [Judge, *_subclasses(Judge)]:
        if callable(vars(cls).get("judge")):
            cls.judge = wrap(vars(cls)["judge"])
            wrapped += 1
    return wrapped > 0


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    from ragsift.cli import main as cli_main

    stats: dict[str, list] = {}
    attached = install(stats)
    try:
        code = cli_main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"attached": attached, "per_query": stats}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
