"""Replayed and closed-form accounting of sliding-window inference cost.

A profile is one row of useful-flags per query, one flag per candidate rank.
Each row is replayed through the selection engine's window arithmetic: carry
``min(stride, queue_len)`` queue members, fill the window with the next fresh
candidates, and grow the queue by the flagged ones among them. A ``select``
trace gives the flags its judge chose, so one trace predicts any window size
and stride, assuming that a passage's usefulness does not depend on the other
passages in its window; ``bernoulli:P`` draws them. The ranking engine's cost
is fixed by geometry alone.
"""

from __future__ import annotations

import contextlib
import logging
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import LoadError, id_list, jsonl_records
from .windowing import WindowConfig, plan_ranking_windows, window_count_bounds

logger = logging.getLogger(__name__)


def profile_from_trace(path: str | Path, depth: int) -> tuple[list[list[bool]], float, float]:
    """Read one row of useful-flags per query from a ``select`` trace.

    A fresh id is useful if the window that brought it in selected it; a
    query's row is its windows' fresh flags, in rank order. Only queries
    whose windows hold ``depth`` fresh candidates count, so partial traces of
    aborted queries and queries with other list lengths are left out, with
    one warning naming them. Returns those queries' rows, their mean
    window count, and the share of their carried passages that the window
    did not select again (0.0 when none were carried). The replay treats that
    share as 0, so a high one says the prediction is optimistic.

    A record that is not a selection window (a string ``query_id``, its
    ``carried`` and ``fresh`` lists of ids, its ``verdict.selected`` a list
    of distinct window positions), or a trace in which no query saw
    ``depth`` candidates, is a ``LoadError``.
    """
    path = Path(path)
    rows: dict[str, list[bool]] = {}  # query id -> useful-flag per fresh candidate judged
    windows: Counter[str] = Counter()
    carried_seen: Counter[str] = Counter()
    carried_dropped: Counter[str] = Counter()
    for lineno, rec in jsonl_records(path):
        try:
            carried, fresh = id_list(rec["carried"]), id_list(rec["fresh"])
            selected = rec["verdict"]["selected"]
            n = len(carried) + len(fresh)
            chosen = set(selected)
            if len(chosen) < len(selected) or not all(type(i) is int and 0 < i <= n for i in chosen):
                raise ValueError("selected must list distinct window positions")
            qid = rec["query_id"]
            if not isinstance(qid, str):
                raise TypeError("query_id is not a string")
            rows.setdefault(qid, []).extend(i in chosen for i in range(len(carried) + 1, n + 1))
            windows[qid] += 1
            carried_seen[qid] += len(carried)
            carried_dropped[qid] += len(carried) - sum(i <= len(carried) for i in chosen)
        except (KeyError, TypeError, ValueError):
            raise LoadError(f"{path}: line {lineno} is not a selection window") from None
    complete = [qid for qid, row in rows.items() if len(row) == depth]
    if not complete:
        raise LoadError(f"{path}: no query in the trace saw --depth {depth} candidates")
    left_out = [qid for qid, row in rows.items() if len(row) != depth]
    if left_out:  # named as the batch runner names skipped queries: count, then the first 5
        logger.warning(
            "%s: left out %d of %d queries, which did not see --depth %d candidates: %s%s",
            path, len(left_out), len(rows), depth, ", ".join(left_out[:5]),
            ", ..." if len(left_out) > 5 else "",
        )
    carried_total = sum(carried_seen[qid] for qid in complete)
    dropped = sum(carried_dropped[qid] for qid in complete)
    return (
        [rows[qid] for qid in complete],
        sum(windows[qid] for qid in complete) / len(complete),
        dropped / carried_total if carried_total else 0.0,
    )


def parse_profile_spec(
    spec: str, depth: int, trials: int, seed: int
) -> tuple[Iterable[Sequence[bool]], dict]:
    """Parse a CLI profile spec: never, always, bernoulli:P, or a ``select``
    trace path.

    ``never`` is ``bernoulli:0`` and ``always`` is ``bernoulli:1``. A
    bernoulli form draws ``trials`` rows of ``depth`` flags in rank order from
    ``random.Random(seed)``. Any existing file is read as a trace, one row per
    complete query; ``trials`` and ``seed`` are not read. Returns the rows
    and the fields they add to the cost report: ``seed`` (``None`` for a
    trace) and, for a trace, ``observed_windows`` and ``carried_dropped_share``.

    Raises:
        ValueError: naming the spec and the accepted forms, for a bernoulli
            probability that is not a number in [0, 1] and for a spec that
            is none of the named forms and no existing file.
        LoadError: from ``profile_from_trace``, for a file that is not a
            ``select`` trace.
    """
    form = {"never": "bernoulli:0", "always": "bernoulli:1"}.get(spec, spec)
    if form.startswith("bernoulli:"):
        with contextlib.suppress(ValueError):
            p = float(form.split(":", 1)[1])
            if 0.0 <= p <= 1.0:
                rng = random.Random(seed)
                rows = ([rng.random() < p for _ in range(depth)] for _ in range(trials))
                return rows, {"seed": seed}
    elif Path(spec).is_file():
        rows, observed, dropped = profile_from_trace(spec, depth)
        return rows, {"seed": None, "observed_windows": observed, "carried_dropped_share": dropped}
    raise ValueError(
        f"--profile {spec!r} is not one of: never, always, bernoulli:P with 0 <= P <= 1, "
        "or a select trace.jsonl"
    )


@dataclass
class SimulationReport:
    mean_windows: float
    ci95: tuple[float, float]
    histogram: dict[int, int]
    trials: int
    bounds: tuple[int, int]

    def to_json_dict(self) -> dict:
        return {
            "mean_windows": self.mean_windows,
            "ci95": list(self.ci95),
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "trials": self.trials,
            "bounds": list(self.bounds),
        }

    def table(self) -> str:
        lines = [
            f"trials        {self.trials}",
            f"mean windows  {self.mean_windows:.4f}",
            f"95% CI        [{self.ci95[0]:.4f}, {self.ci95[1]:.4f}]",
            f"bounds        [{self.bounds[0]}, {self.bounds[1]}]",
            "windows  trials",
        ]
        for count in sorted(self.histogram):
            lines.append(f"{count:>7}  {self.histogram[count]}")
        return "\n".join(lines)


def _windows(cfg: WindowConfig, flags: Sequence[bool]) -> int:
    pos = queue_len = windows = 0
    while pos < cfg.depth:
        fresh = cfg.window_size - min(cfg.stride, queue_len)
        queue_len += sum(flags[pos : pos + fresh])
        pos += fresh
        windows += 1
    return windows


def simulate(cfg: WindowConfig, rows: Iterable[Sequence[bool]]) -> SimulationReport:
    """The selection engine's window count distribution over rows of
    useful-flags, one trial per row of ``cfg.depth`` flags.

    A carried passage is already in the queue, so only the flags of fresh
    candidates grow it.
    """
    counts = Counter(_windows(cfg, flags) for flags in rows)
    trials = counts.total()
    if trials < 1:
        raise ValueError("trials must be >= 1")

    mean = sum(k * v for k, v in counts.items()) / trials
    var = sum(v * (k - mean) ** 2 for k, v in counts.items()) / trials
    half = 1.96 * math.sqrt(var / trials)
    return SimulationReport(
        mean_windows=mean,
        ci95=(mean - half, mean + half),
        histogram=dict(counts),
        trials=trials,
        bounds=window_count_bounds(cfg),
    )


def ranking_cost(cfg: WindowConfig) -> int:
    """Window count of the back-to-front re-ranking sweep (geometry only)."""
    return len(plan_ranking_windows(cfg))
