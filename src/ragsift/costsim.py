"""Monte Carlo and closed-form accounting of sliding-window inference cost.

The selection engine's window count depends on how much the queue grows, so
it is simulated: each trial replays the window-advance arithmetic (carry
``min(stride, queue_len)`` queue members, fill with fresh candidates) and
grows the queue by the fresh passages each window selects, a count drawn
from a profile. The ranking engine's cost is fixed by geometry alone.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .corpus import LoadError, id_list, jsonl_records
from .windowing import WindowConfig, plan_ranking_windows, window_count_bounds


@dataclass(frozen=True)
class SelectionProfile:
    """Distribution over the count of fresh passages selected per window.

    With ``by_window`` empty, each fresh passage is selected independently
    with probability ``p``. Otherwise window ``i`` draws a count uniformly
    from ``by_window[i]``, the counts observed at that window index (the last
    entry past its end), clamped to the window's fresh count.
    """

    p: float = 0.0
    by_window: tuple[tuple[int, ...], ...] = ()

    @staticmethod
    def bernoulli(p: float) -> "SelectionProfile":
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli probability must be in [0, 1], got {p}")
        return SelectionProfile(p=p)

    def draw(self, rng: random.Random, window: int, fresh: int) -> int:
        if self.by_window:
            return min(rng.choice(self.by_window[min(window, len(self.by_window) - 1)]), fresh)
        return sum(1 for _ in range(fresh) if rng.random() < self.p)


def profile_from_trace(path: str | Path, depth: int) -> tuple[SelectionProfile, float]:
    """Measure a per-window-index profile from a ``select`` trace.

    Each window counts the ids it selected after its carried ones; the counts
    are grouped by the window's index within its query. Only queries whose
    windows hold ``depth`` fresh candidates count, so partial traces of
    aborted queries are left out. Returns the profile and the mean window
    count of those queries. A record that is not a selection window (its
    ``carried`` and ``fresh`` lists of ids, its ``verdict.selected`` a list
    of integers), or a trace in which no query saw ``depth`` candidates, is
    a ``LoadError``.
    """
    path = Path(path)
    picked: dict[str, list[int]] = {}  # query id -> fresh ids selected per window
    seen: Counter[str] = Counter()  # query id -> fresh candidates judged
    for lineno, rec in jsonl_records(path):
        try:
            carried, fresh = id_list(rec["carried"]), id_list(rec["fresh"])
            selected = rec["verdict"]["selected"]
            if not isinstance(selected, list) or not all(type(i) is int for i in selected):
                raise ValueError("selected must be a list of integers")
            picked.setdefault(rec["query_id"], []).append(sum(i > len(carried) for i in selected))
            seen[rec["query_id"]] += len(fresh)
        except (KeyError, TypeError, ValueError):
            raise LoadError(f"{path}: line {lineno} is not a selection window") from None
    complete = [counts for qid, counts in picked.items() if seen[qid] == depth]
    if not complete:
        raise LoadError(f"{path}: no query in the trace saw --depth {depth} candidates")
    by_window = tuple(
        tuple(sorted(counts[i] for counts in complete if i < len(counts)))
        for i in range(max(map(len, complete)))
    )
    return SelectionProfile(by_window=by_window), sum(map(len, complete)) / len(complete)


def parse_profile_spec(spec: str, depth: int) -> tuple[SelectionProfile, float | None]:
    """Parse a CLI profile spec: never, always, bernoulli:P, or a ``select``
    trace path.

    ``never`` is ``bernoulli:0`` and ``always`` is ``bernoulli:1``. Any
    existing file is read as a trace. Returns the profile and, for a trace,
    the mean window count it observed.

    Raises:
        ValueError: naming the spec and the accepted forms, for a bernoulli
            probability that is not a number in [0, 1] and for a spec that
            is none of the named forms and no existing file.
        LoadError: from ``profile_from_trace``, for a file that is not a
            ``select`` trace.
    """
    form = {"never": "bernoulli:0", "always": "bernoulli:1"}.get(spec, spec)
    if form.startswith("bernoulli:"):
        try:
            return SelectionProfile.bernoulli(float(form.split(":", 1)[1])), None
        except ValueError:
            pass
    elif Path(spec).is_file():
        return profile_from_trace(spec, depth)
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
    seed: int
    bounds: tuple[int, int]

    def to_json_dict(self) -> dict:
        return {
            "mean_windows": self.mean_windows,
            "ci95": list(self.ci95),
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "trials": self.trials,
            "seed": self.seed,
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


def _one_trial(cfg: WindowConfig, profile: SelectionProfile, rng: random.Random) -> int:
    remaining = cfg.depth
    queue_len = 0
    windows = 0
    while remaining > 0:
        fresh = min(cfg.window_size - min(cfg.stride, queue_len), remaining)
        queue_len += profile.draw(rng, windows, fresh)
        remaining -= fresh
        windows += 1
    return windows


def simulate(
    cfg: WindowConfig, profile: SelectionProfile, trials: int, seed: int
) -> SimulationReport:
    """Estimate the selection engine's window count distribution.

    The profile drives fresh passages only: each window's draw is the count
    of queue members it adds. Fixed seed implies an identical histogram.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    counts: Counter[int] = Counter()
    for _ in range(trials):
        counts[_one_trial(cfg, profile, rng)] += 1

    mean = sum(k * v for k, v in counts.items()) / trials
    var = sum(v * (k - mean) ** 2 for k, v in counts.items()) / trials
    half = 1.96 * math.sqrt(var / trials)
    return SimulationReport(
        mean_windows=mean,
        ci95=(mean - half, mean + half),
        histogram=dict(counts),
        trials=trials,
        seed=seed,
        bounds=window_count_bounds(cfg),
    )


def ranking_cost(cfg: WindowConfig) -> int:
    """Window count of the back-to-front re-ranking sweep (geometry only)."""
    return len(plan_ranking_windows(cfg))
