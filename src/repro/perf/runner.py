"""Minimal benchmark runner: warmup/repeat wall-clock timing.

The harness is deliberately tiny -- ``time.perf_counter`` around a
callable, a few warmup calls to populate caches (device libraries and
the lru-cached DCT matrices), then best/mean/std over the timed repeats.
Best-of-N is the headline number (least scheduler noise); mean and std
are kept so regressions can be judged against run-to-run jitter.
:func:`write_bench_json` is the one writer every bench payload goes
through.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple, Union

from repro.store.atomic import atomic_write

__all__ = ["TimingStats", "time_callable", "write_bench_json"]


@dataclass(frozen=True)
class TimingStats:
    """Wall-clock statistics for one benchmarked callable."""

    best_s: float
    mean_s: float
    std_s: float
    repeats: int

    def throughput(self, units: float) -> float:
        """Units processed per second at the best-of-N time."""
        if self.best_s <= 0:
            return float("inf")
        return units / self.best_s

    def to_dict(self) -> Dict[str, float]:
        return {
            "best_s": self.best_s,
            "mean_s": self.mean_s,
            "std_s": self.std_s,
            "repeats": self.repeats,
        }


def time_callable(
    fn: Callable[[], Any],
    repeats: int = 3,
    warmup: int = 1,
) -> Tuple[TimingStats, Any]:
    """Time ``fn()`` with warmup; returns (stats, last result).

    Args:
        fn: Zero-argument callable to measure.
        repeats: Timed repetitions (>= 1).
        warmup: Untimed calls beforehand (>= 0).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        fn()
    samples = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    mean = sum(samples) / len(samples)
    var = sum((s - mean) ** 2 for s in samples) / len(samples)
    return (
        TimingStats(
            best_s=min(samples),
            mean_s=mean,
            std_s=var**0.5,
            repeats=repeats,
        ),
        result,
    )


def write_bench_json(payload: Dict, path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write a bench payload to disk atomically; returns the resolved path.

    Parent directories are created, so ``--output`` may point into an
    artifact directory that does not exist yet.
    """
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(out, json.dumps(payload, indent=2) + "\n")
    return out.resolve()
