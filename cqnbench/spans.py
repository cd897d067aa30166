"""Span recording around the program's public entry points.

The benchmark never edits ``src/``: in a traced run it replaces a few
module and class attributes with wrappers that time the original call
and record a span ``(name, span_id, parent_id, request_id, start, end,
cpu, extra)``, where ``cpu`` is the calling thread's CPU seconds.
Parents come from a context variable, which the serving stack already
copies into its executor threads, so a shard fill that runs in a pool
thread still lands under the ``fetch_batch`` that started it.  The request id is the CRC-32 of the FETCH payload, which
both processes see byte for byte; it joins client and server spans of
one batch without touching the wire format.

Spans stay in memory and are summarised when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
import zlib
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from stats import self_time

Span = Tuple[str, int, Optional[int], Optional[int], float, float, float, object]

_parent: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "cqnbench_parent", default=None
)
_request: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "cqnbench_request", default=None
)


def request_id(payload: bytes) -> int:
    """The id both processes derive for one FETCH payload."""
    return zlib.crc32(payload)


class Recorder:
    """Installs wrappers and collects the spans they record."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        extra: Optional[Callable[[tuple, object], object]] = None,
        sets_request: Optional[Callable[[tuple, object], int]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timed wrapper recording ``name``.

        ``extra(args, result)`` attaches a value (bytes, pulse count) to
        the span.  ``sets_request(args, result)`` marks the call that
        identifies a request: its span, and every span that ends later
        in the same context, carries the id it returns.
        """
        original = getattr(owner, attr)
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        cpu_clock = time.thread_time

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            token = _parent.set(span_id)
            cpu = cpu_clock()
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                cpu = cpu_clock() - cpu
                _parent.reset(token)
            if sets_request is not None:
                _request.set(sets_request(args, result))
            spans.append(
                (
                    name,
                    span_id,
                    _parent.get(),
                    _request.get(),
                    start,
                    end,
                    cpu,
                    None if extra is None else extra(args, result),
                )
            )
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap(self) -> None:
        """Put every original attribute back (last wrapped, first restored)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def per_request(spans: List[Span]) -> Dict[int, Dict[str, float]]:
    """Fold spans into one row per request id.

    For each span name the row holds ``<name>`` (summed duration, s),
    ``<name>.self`` (summed self time: duration minus the union of its
    direct children), ``<name>.cpu`` (summed thread CPU seconds, which
    parallel fills contending for the GIL do not inflate), ``<name>.n``
    (calls) and ``<name>.extra`` (summed extra values, when numeric).
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _name, _sid, parent, _rid, start, end, _cpu, _extra in spans:
        if parent is not None:
            children[parent].append((start, end))
    rows: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for name, sid, _parent_id, rid, start, end, cpu, extra in spans:
        if rid is None:
            continue
        row = rows[rid]
        row[name] += end - start
        row[name + ".self"] += self_time(start, end, children.get(sid, ()))
        row[name + ".cpu"] += cpu
        row[name + ".n"] += 1
        if isinstance(extra, (int, float)):
            row[name + ".extra"] += extra
    return {rid: dict(row) for rid, row in rows.items()}
