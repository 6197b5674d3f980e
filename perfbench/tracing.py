"""In-memory span recorder and the self-time arithmetic over its spans.

A span is one call into a layer boundary: ``[name, start, end, parent,
data]`` with ``perf_counter`` times and ``parent`` the index of the span
that was open when the call began (-1 at the root).  Spans stay in a
list for the whole traced run and are written out once it ends.

A span's *self time* is its duration minus the part of its interval
that its child spans cover.  Children are merged as intervals, clipped
to the parent, so overlapping children are counted once and self time
is never negative.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Records nested spans of one process's calls into wrapped functions."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self._stack: "list[int]" = []

    def wrap(self, name, fn, measure=None):
        """``fn`` inside a span called ``name``.

        ``name`` is a string, or ``name(args, kwargs)`` picking the span's
        name from the call (the ring's trace policy and scheduler class).

        ``measure(args, kwargs, result)`` may return a dict stored as the
        span's data (counts taken from the call's arguments and result).
        A call made while a span of the same name is already the open
        span is passed straight through, so a layer that calls itself
        (a method calling its base class's version, ``load`` inside
        ``load_campaign``) counts once.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name_of(args, kwargs) if name_of else name
            if stack and spans[stack[-1]][0] == label:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [label, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, kwargs, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, data."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, data in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "data": data,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> "list[float]":
    """Each span's duration minus the union of its children's intervals."""
    children: "dict[int, list]" = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, *_) in enumerate(spans):
        duration = max(end - start, 0.0)
        out.append(max(duration - covered(children[index], start, end), 0.0))
    return out


def totals(spans) -> "dict[str, dict]":
    """Per span name: call count, self seconds and inclusive seconds."""
    acc: "dict[str, dict]" = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        entry = acc[span[0]]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += max(span[2] - span[1], 0.0)
    return dict(acc)
