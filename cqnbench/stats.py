"""The benchmark's arithmetic, kept free of clocks and sockets.

Every number the benchmark reports passes through one of these
functions, so the unit tests in ``cqnbench/tests`` can pin them with
injected timings.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with >= q% at or below it.

    ``q`` is in percent (50, 90, 99).  Nearest rank never interpolates,
    so the reported value is one that was actually measured.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q``th.

    A tail percentile is only reported as measured when at least ten
    samples lie beyond it: p99 needs >= 1000 samples, p90 needs >= 100.
    """
    if n < 1:
        return 0
    return n - max(math.ceil(q / 100.0 * n), 1)


def slice_bounds(n: int, min_slice: int) -> List[Tuple[int, int]]:
    """``[a, b)`` index ranges cutting ``n`` samples into equal slices.

    As many slices as leave every slice at least ``min_slice`` samples;
    one slice when there are fewer.
    """
    k = max(1, n // min_slice)
    edges = [round(i * n / k) for i in range(k + 1)]
    return list(zip(edges, edges[1:]))


def sliced_percentile(values: Sequence[float], q: float, min_slice: int) -> float:
    """Median, over consecutive slices of ``values``, of each slice's percentile.

    ``values`` are in time order.  Taking the median over slices means a
    burst of machine noise that covers less than half the run cannot
    move the result.  With ``min_slice`` = 1000 and q = 99, every slice
    has >= 10 samples beyond its own p99.
    """
    return statistics.median(
        percentile(values[a:b], q) for a, b in slice_bounds(len(values), min_slice)
    )


def sliced_rate(
    done: Sequence[float], sizes: Sequence[int], start: float, min_slice: int
) -> float:
    """Median, over consecutive slices of completions, of items per second.

    ``done`` are completion times in time order and ``sizes`` the items
    each completion delivered.  A slice's rate is its items over the
    time since the previous slice's last completion (``start`` for the
    first slice), so the slices tile the run without gaps.
    """
    if not done:
        raise ValueError("rate of an empty sample")
    rates = []
    for a, b in slice_bounds(len(done), min_slice):
        since = done[a - 1] if a else start
        rates.append(sum(sizes[a:b]) / (done[b - 1] - since))
    return statistics.median(rates)


def covered(children: Iterable[Interval], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``children``.

    Children may overlap (parallel shard fills run in several threads
    under one parent), so the union is measured, not the sum.
    """
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in children if b > start and a < end
    )
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for a, b in clipped:
        if run_start is None or a > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_time(start: float, end: float, children: Iterable[Interval]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered(children, start, end)


def failed_share(attempted: int, failed: int) -> float:
    """Failed operations over attempted operations (0.0 when none ran)."""
    if failed < 0 or failed > attempted:
        raise ValueError(f"failed={failed} is outside [0, attempted={attempted}]")
    return failed / attempted if attempted else 0.0


def due_times(start: float, period: float, horizon: float) -> List[float]:
    """The writer's schedule: one step every ``period`` in ``[start, start+horizon)``."""
    count = math.ceil(horizon / period - 1e-9)
    return [start + k * period for k in range(max(count, 0))]


def lateness(due: Sequence[float], began: Sequence[float]) -> List[float]:
    """How far behind schedule each step started (never negative).

    A step that starts early (the writer slept until its due time and
    woke a hair before it) counts as on time.
    """
    if len(due) != len(began):
        raise ValueError("one start time per due time")
    return [max(0.0, b - d) for d, b in zip(due, began)]


def since_due(due: Sequence[float], done: Sequence[float]) -> List[float]:
    """Publish latency: from when a step was *due* until it was adopted.

    Measuring from the due time (not the actual start) charges a stall
    to every step queued behind it, as an open-loop schedule requires.
    """
    if len(due) != len(done):
        raise ValueError("one completion time per due time")
    return [c - d for d, c in zip(due, done)]


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` (exclusive method), the
    same rule the benchmark's acceptance check applies across runs.
    """
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)

