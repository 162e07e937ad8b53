"""Monte Carlo and closed-form accounting of sliding-window inference cost.

The selection engine's window count depends on how much the queue grows, so
it is simulated: each trial replays the window-advance arithmetic (carry
``min(stride, queue_len)`` queue members, fill with fresh candidates) with
per-window selected counts drawn from a profile. The ranking engine's cost
is fixed by geometry alone.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .corpus import LoadError
from .windowing import WindowConfig, WindowTrace, plan_ranking_windows, window_count_bounds

_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SelectionProfile:
    """Distribution over per-window selected counts.

    Parametric kinds: ``never`` (select nothing), ``always`` (select the
    whole window), ``bernoulli`` (each passage selected independently with
    probability p). ``histogram`` draws a count from an empirical histogram,
    clamped to the actual window size.
    """

    kind: str
    p: float | None = None
    histogram: tuple[tuple[int, float], ...] | None = None

    @staticmethod
    def never() -> "SelectionProfile":
        return SelectionProfile(kind="never")

    @staticmethod
    def always() -> "SelectionProfile":
        return SelectionProfile(kind="always")

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

    def draw(self, rng: random.Random, window_size: int) -> int:
        if self.kind == "never":
            return 0
        if self.kind == "always":
            return window_size
        if self.kind == "bernoulli":
            return sum(1 for _ in range(window_size) if rng.random() < (self.p or 0.0))
        if self.kind == "histogram":
            r = rng.random()
            acc = 0.0
            count = 0
            for count, prob in self.histogram or ():
                acc += prob
                if r < acc:
                    break
            return min(count, window_size)
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


def parse_profile_spec(spec: str) -> SelectionProfile:
    """Parse a CLI profile spec: never, always, bernoulli:P, or a JSON path.

    Raises:
        ValueError: naming the spec and the accepted forms, for a bernoulli
            probability that is not a number in [0, 1] and for a spec that
            is none of the named forms and no existing file.
        LoadError: from ``load_profile``, for a file that is not a profile.
    """
    if spec == "never":
        return SelectionProfile.never()
    if spec == "always":
        return SelectionProfile.always()
    if spec.startswith("bernoulli:"):
        try:
            return SelectionProfile.bernoulli(float(spec.split(":", 1)[1]))
        except ValueError:
            pass
    elif Path(spec).is_file():
        return load_profile(spec)
    raise ValueError(
        f"--profile {spec!r} is not one of: never, always, bernoulli:P with 0 <= P <= 1, "
        "or a JSON profile file"
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


def _one_trial(
    cfg: WindowConfig, profile: SelectionProfile, rng: random.Random, fresh_only: bool
) -> int:
    remaining = cfg.depth
    queue_len = 0
    windows = 0
    while remaining > 0:
        carry = min(cfg.stride, queue_len)
        fresh = min(cfg.window_size - carry, remaining)
        n = fresh if fresh_only else carry + fresh
        drawn = min(profile.draw(rng, n), n)
        if fresh_only:
            new_members = drawn
        else:
            # selections land uniformly across the window; only fresh slots
            # add queue members, reselecting carried ones is a dedup no-op
            picked = rng.sample(range(carry + fresh), drawn)
            new_members = sum(1 for i in picked if i >= carry)
        queue_len += new_members
        remaining -= fresh
        windows += 1
    return windows


def simulate(
    cfg: WindowConfig,
    profile: SelectionProfile,
    trials: int,
    seed: int,
    fresh_only: bool = False,
) -> SimulationReport:
    """Estimate the selection engine's window count distribution.

    ``fresh_only`` switches to the sticky-carry bracket where the profile
    drives fresh passages only (carried ones are assumed independently
    reselected, which never changes the queue length). Fixed seed implies an
    identical histogram.
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
        counts[_one_trial(cfg, profile, rng, fresh_only)] += 1

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


def replay_trace(cfg: WindowConfig, trace: WindowTrace) -> int:
    """Re-derive a selection trace's window count from the advance arithmetic.

    Walks the recorded windows, checking carried/fresh sizes against what the
    arithmetic dictates given each window's queue growth. Raises ValueError
    if the trace is inconsistent with the geometry.
    """
    remaining = sum(len(rec.fresh) for rec in trace.windows)
    queue_len = 0
    windows = 0
    for rec in trace.windows:
        carry = min(cfg.stride, queue_len)
        fresh = min(cfg.window_size - carry, remaining)
        if len(rec.carried) != carry or len(rec.fresh) != fresh:
            raise ValueError(
                f"trace window {rec.window_index} has carried/fresh "
                f"{len(rec.carried)}/{len(rec.fresh)}, arithmetic says {carry}/{fresh}"
            )
        queue_len = len(rec.queue_after or ())
        remaining -= fresh
        windows += 1
    if remaining:
        raise ValueError(f"trace ends with {remaining} candidates unprocessed")
    return windows
