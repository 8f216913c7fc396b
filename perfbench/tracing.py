"""In-memory spans recorded by wrappers around the engine's layers.

The traced run replaces public entry points *on the instances the
benchmark builds* (never on classes or modules) with wrappers that
record a span per call: name, start, end and the span open when the
call began.  Nothing under ``src/`` knows it is being traced.

A layer's self time is the duration of its spans minus the time their
child spans cover; since wrapped calls nest strictly on one thread,
the children's cover is the sum of their durations.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

#: Span name -> layer.  ``run`` and ``setup`` are the roots; their
#: self time is the engine glue no wrapper covers (``other``).
LAYER_OF = {
    "run": "other",
    "setup": "other",
    "lang.parse": "lang",
    "match.compile": "match.attach",
    "match.attach": "match.attach",
    "match.delta": "match",
    "match.batch": "match",
    "select.eligible": "select",
    "select.strategy": "select",
    "select.order": "select",
    "locks.acquire": "locks.acquire",
    "locks.acquire_phase": "locks.acquire",
    "locks.commit": "locks.commit",
    "locks.abort": "locks.abort",
    "rhs.execute": "rhs",
    "wm.mutate": "wm",
    "wm.undo": "wm",
    "storage.append": "storage",
    "storage.checkpoint": "storage",
}


class Tracer:
    """Collects spans as ``(name, start, end, parent_index)`` tuples."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            # The bookkeeping sits inside the span, so tracing cost is
            # charged to the traced layer rather than to its caller.
            start = clock()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index] = (name, start, clock(), parent)

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """One span covering the ``with`` block."""
        spans, stack = self.spans, self._stack
        start = self.clock()
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            spans[index] = (name, start, self.clock(), parent)

    def count(self, name: str, fn: Callable, amount=None) -> Callable:
        """``fn`` adding to the count ``name`` on each call, without a
        span: 1, or ``amount(args, result)`` when given."""
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1 if amount is None else amount(args, result)
            return result

        return counted

    def finished(self) -> list[tuple[str, float, float, int]]:
        """Every span; raises if one is still open."""
        if self._stack or any(s is None for s in self.spans):
            raise RuntimeError("tracer has open spans")
        return self.spans  # type: ignore[return-value]

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(
                self.finished()
            ):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start,
                    "end": end, "parent": parent,
                }) + "\n")


def self_times(
    spans: list[tuple[str, float, float, int]],
) -> list[float]:
    """Per-span self time: duration minus the children's durations."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [
        (end - start) - covered[index]
        for index, (_, start, end, _) in enumerate(spans)
    ]


def subtree(spans, root: int) -> list[int]:
    """Indices of ``root`` and every span below it."""
    inside = {root}
    # Parents precede children in the list (a span is appended when it
    # opens), so one forward pass finds the whole subtree.
    for index in range(root + 1, len(spans)):
        if spans[index][3] in inside:
            inside.add(index)
    return sorted(inside)


def layer_seconds(spans, selves, indices) -> dict[str, float]:
    """Self time per layer over the spans at ``indices``."""
    totals: dict[str, float] = {}
    for index in indices:
        layer = LAYER_OF[spans[index][0]]
        totals[layer] = totals.get(layer, 0.0) + selves[index]
    return totals
