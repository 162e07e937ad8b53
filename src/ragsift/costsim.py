"""Monte Carlo and closed-form accounting of sliding-window inference cost.

The selection engine's window count depends on how much the queue grows, so
it is simulated: each trial replays the window-advance arithmetic (carry
``min(stride, queue_len)`` queue members, fill with fresh candidates) and
grows the queue by the fresh passages each window selects, a count drawn
from a profile. The ranking engine's cost is fixed by geometry alone.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .corpus import LoadError, jsonl_records
from .windowing import WindowConfig, plan_ranking_windows, window_count_bounds

_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SelectionProfile:
    """Distribution over the count of fresh passages selected per window.

    ``bernoulli`` selects each fresh passage independently with probability
    p. ``histogram`` draws a count from an empirical histogram, clamped to
    the window's fresh count.
    """

    kind: str
    p: float | None = None
    histogram: tuple[tuple[int, float], ...] | None = None

    @staticmethod
    def bernoulli(p: float) -> "SelectionProfile":
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli probability must be in [0, 1], got {p}")
        return SelectionProfile(kind="bernoulli", p=p)

    @staticmethod
    def from_histogram(counts: dict[int, float]) -> "SelectionProfile":
        if not counts:
            raise ValueError("histogram profile needs at least one entry")
        total = sum(counts.values())
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise ValueError(f"histogram probabilities sum to {total}, expected 1")
        if any(c < 0 for c in counts) or any(p < 0 for p in counts.values()):
            raise ValueError("histogram counts and probabilities must be non-negative")
        return SelectionProfile(kind="histogram", histogram=tuple(sorted(counts.items())))

    def max_support(self) -> int | None:
        if self.kind == "histogram" and self.histogram:
            return max(c for c, p in self.histogram if p > 0)
        return None

    def draw(self, rng: random.Random, fresh: int) -> int:
        if self.kind == "bernoulli":
            return sum(1 for _ in range(fresh) if rng.random() < (self.p or 0.0))
        if self.kind == "histogram":
            r = rng.random()
            acc = 0.0
            count = 0
            for count, prob in self.histogram or ():
                acc += prob
                if r < acc:
                    break
            return min(count, fresh)
        raise ValueError(f"unknown profile kind {self.kind!r}")


def load_profile(path: str | Path) -> SelectionProfile:
    """Load an empirical profile: JSON ``{"counts": {"0": p0, "1": p1, ...}}``.

    Raises:
        LoadError: naming the file, when it is not JSON, has no ``counts``
            object, maps a key that is not an integer or a value that is not
            a finite number, or is not a valid histogram.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8 or not JSON
        raise LoadError(f"{path}: profile file is not JSON: {exc}") from exc
    counts = data.get("counts") if isinstance(data, dict) else None
    if not isinstance(counts, dict):
        raise LoadError(f"{path}: profile file needs a JSON object with a 'counts' object")
    histogram: dict[int, float] = {}
    for key, value in counts.items():
        try:
            count, prob = int(key), float(value)
            if not math.isfinite(prob):
                raise ValueError(prob)
        except (TypeError, ValueError):
            raise LoadError(
                f"{path}: counts entry {key!r}: {value!r} needs an integer key and a "
                "finite number"
            ) from None
        histogram[count] = prob
    try:
        return SelectionProfile.from_histogram(histogram)
    except ValueError as exc:
        raise LoadError(f"{path}: {exc}") from exc


def profile_from_trace(path: str | Path, depth: int) -> tuple[SelectionProfile, float]:
    """Measure a histogram profile from a ``select`` trace.

    Each window counts the ids it selected after its carried ones. Only
    queries whose windows hold ``depth`` fresh candidates count, so partial
    traces of aborted queries are left out. Returns the profile and the mean
    window count of those queries. A record that is not a selection window,
    or a trace in which no query saw ``depth`` candidates, is a ``LoadError``.
    """
    path = Path(path)
    picked: dict[str, list[int]] = {}  # query id -> fresh ids selected per window
    seen: Counter[str] = Counter()  # query id -> fresh candidates judged
    for lineno, rec in jsonl_records(path):
        try:
            carried, selected = len(rec["carried"]), rec["verdict"]["selected"]
            picked.setdefault(rec["query_id"], []).append(sum(i > carried for i in selected))
            seen[rec["query_id"]] += len(rec["fresh"])
        except (KeyError, TypeError):
            raise LoadError(f"{path}: line {lineno} is not a selection window") from None
    complete = [counts for qid, counts in picked.items() if seen[qid] == depth]
    if not complete:
        raise LoadError(f"{path}: no query in the trace saw --depth {depth} candidates")
    histogram = Counter(n for counts in complete for n in counts)
    windows = sum(histogram.values())
    profile = SelectionProfile.from_histogram({n: k / windows for n, k in histogram.items()})
    return profile, windows / len(complete)


def parse_profile_spec(spec: str, depth: int) -> tuple[SelectionProfile, float | None]:
    """Parse a CLI profile spec: never, always, bernoulli:P, a JSON histogram
    path, or a ``select`` trace path ending in ``.jsonl``.

    ``never`` is ``bernoulli:0`` and ``always`` is ``bernoulli:1``. Returns
    the profile and, for a trace, the mean window count it observed.

    Raises:
        ValueError: naming the spec and the accepted forms, for a bernoulli
            probability that is not a number in [0, 1] and for a spec that
            is none of the named forms and no existing file.
        LoadError: from ``load_profile`` or ``profile_from_trace``, for a
            file that is not a profile.
    """
    form = {"never": "bernoulli:0", "always": "bernoulli:1"}.get(spec, spec)
    if form.startswith("bernoulli:"):
        try:
            return SelectionProfile.bernoulli(float(form.split(":", 1)[1])), None
        except ValueError:
            pass
    elif Path(spec).is_file():
        if spec.endswith(".jsonl"):
            return profile_from_trace(spec, depth)
        return load_profile(spec), None
    raise ValueError(
        f"--profile {spec!r} is not one of: never, always, bernoulli:P with 0 <= P <= 1, "
        "a JSON profile file, or a select trace.jsonl"
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
        queue_len += profile.draw(rng, fresh)
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
    support = profile.max_support()
    if support is not None and support > cfg.window_size:
        raise ValueError(
            f"profile support reaches {support}, beyond window_size {cfg.window_size}"
        )
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
