"""In-process span recorder that times nextphrase from the outside.

``Recorder.patch`` replaces module attributes with timing wrappers: the
function in its defining module and every other ``nextphrase`` module
that imported the same object (``nextphrase.cli`` above all), so both
direct calls from the CLI and calls between library functions are
seen.  Spans stay in memory as ``(name, start, end, parent)`` tuples and
are written out when the run ends; ``self_times`` derives each name's
self time, its span time minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from typing import Callable, Iterable, Sequence

Span = tuple[str, float, float, int]  # name, start, end, parent index (-1 = none)


class Recorder:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # open spans hold end = None until closed
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order (top was {popped})")

    def finished(self) -> list[Span]:
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open")
        return [tuple(span) for span in self.spans]

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """Timing wrapper; ``count(result, counts)`` records boundary counts."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                count(result, self.counts)
            return result

        return timed

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        """One span per resumption, so the consumer's work between
        items is never charged to the generator."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    index = self.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(index)
                    yield item
            finally:
                inner.close()

        return timed

    def patch(self, module_name: str, attr: str, name: str, count: Callable | None = None) -> None:
        """Wrap ``module.attr`` wherever a loaded nextphrase module holds it."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = self.wrap(name, original, count)
        holders = [
            module
            for key, module in sorted(sys.modules.items())
            if (key == "nextphrase" or key.startswith("nextphrase."))
            and getattr(module, attr, None) is original
        ]
        for module in holders:
            self._patched.append((module, attr, original))
            setattr(module, attr, wrapped)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def _covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls`` and ``self_s`` (duration minus child coverage)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        own = (end - start) - _covered(children.get(index, ()), start, end)
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
    return totals
