"""The builders' fan-out and their one write-and-count loop.

A builder hands ``fan_out`` a function ``outcomes_of(item)`` that gives
each input item's outcomes.  An outcome is either a skip reason (a
``str``) or a ``(sink index, records written, lines)`` triple whose
lines go to that sink; each outcome counts as one record read.
Contiguous ranges of items are built in this process or by a process
pool into part files that are appended in input order, so the output
bytes and counts do not depend on the worker count.
"""

from __future__ import annotations

import collections
import functools
import itertools
import os
import shutil
from contextlib import ExitStack
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

# a worker task is a contiguous range of this many input records (the
# last range may be shorter): the parent and each worker hold a few
# ranges at a time, so their memory does not grow with the input, while
# each range still costs one task and one part file per output
RANGE_RECORDS = 256


class RangeCounts(NamedTuple):
    """What building a contiguous range of input records wrote."""

    read: int
    written: tuple[int, ...]  # records written to each data output
    skips: dict[str, int]  # unwritten records per reason, in order of first occurrence


def add_counts(first: RangeCounts, then: RangeCounts) -> RangeCounts:
    """The counts of two adjacent ranges, ``then`` after ``first``, as one range's."""
    skips = dict(first.skips)
    for reason, count in then.skips.items():
        skips[reason] = skips.get(reason, 0) + count
    written = tuple(a + b for a, b in zip(first.written, then.written))
    return RangeCounts(first.read + then.read, written, skips)


def open_sink(path) -> TextIO:
    """A text output file: UTF-8, ``\\n`` line ends."""
    return open(path, "w", encoding="utf-8", newline="\n")


def remove_parts(directory: Path, tmp_names: Iterable[str]) -> None:
    """Delete every part file ``<tmp name>.<task>`` in directory.

    Only regular files go: anything else under such a name is not a part.
    """
    prefixes = tuple(f"{name}." for name in tmp_names)
    for path in directory.iterdir():
        if path.name.startswith(prefixes) and path.suffix[1:].isdigit() and path.is_file():
            path.unlink(missing_ok=True)


def _write_range(outcomes_of: Callable, records: Iterable, sinks: Sequence[TextIO]) -> RangeCounts:
    """Write the outcomes of each record to sinks and count them."""
    read = 0
    written = [0] * len(sinks)
    skips: dict[str, int] = {}
    for record in records:
        for outcome in outcomes_of(record):
            read += 1
            if isinstance(outcome, str):
                skips[outcome] = skips.get(outcome, 0) + 1
            else:
                sink, count, lines = outcome
                sinks[sink].writelines(lines)
                written[sink] += count
    return RangeCounts(read, tuple(written), skips)


def _ranges(items: Iterable) -> Iterator[tuple[int, list]]:
    """(task, records) of each contiguous range of RANGE_RECORDS items, read
    from items only as they are asked for."""
    items = iter(items)
    for task in itertools.count():
        records = list(itertools.islice(items, RANGE_RECORDS))
        if not records:
            return
        yield task, records


def _build_part(
    outcomes_of: Callable, tmp_names: Sequence[str], task: int, records: list
) -> RangeCounts:
    """Write one range into the part files ``<tmp name>.<task>``."""
    with ExitStack() as stack:
        parts = [stack.enter_context(open_sink(f"{name}.{task}")) for name in tmp_names]
        return _write_range(outcomes_of, records, parts)


def _in_task_order(pool, build: Callable, ranges: Iterator, ahead: int) -> Iterator[tuple]:
    """(task, future) of each range submitted to pool, in task order.

    At most ``ahead`` ranges are submitted and not yet handed out, so the
    ranges are read only as the workers need them.
    """
    window: collections.deque = collections.deque()
    for task, records in ranges:
        window.append((task, pool.submit(build, task, records)))
        if len(window) == ahead:
            yield window.popleft()
    yield from window


def _append_part(sink: TextIO, path: str) -> None:
    """Append the bytes of the part file at path to sink, then delete the part."""
    sink.flush()
    with open(path, "rb") as part:
        shutil.copyfileobj(part, sink.buffer)
    os.unlink(path)


def fan_out(
    outcomes_of: Callable,
    items: Iterable,
    sinks: Sequence[TextIO],
    workers: int,
    initializer: Callable | None = None,
    initargs: tuple = (),
) -> RangeCounts:
    """Write the outcomes of the items to sinks; bytes and counts do not depend on workers.

    ``outcomes_of(item)`` gives an item's outcomes (see the module
    docstring); it must be a module-level function or a partial of one,
    so that a worker process can unpickle it.  ``initializer(*initargs)``
    runs once in every process that builds.  A worker that dies fails
    the build with ``BrokenProcessPool``.  A failed run can leave part
    files behind: the caller deletes them with ``remove_parts`` once
    this returns or raises.
    """
    if workers == 1:
        if initializer is not None:
            initializer(*initargs)
        return _write_range(outcomes_of, items, sinks)
    # imported here: a serial run, the common case, never starts a pool
    from concurrent.futures import ProcessPoolExecutor

    build = functools.partial(_build_part, outcomes_of, [sink.name for sink in sinks])
    counts = RangeCounts(0, (0,) * len(sinks), {})
    with ProcessPoolExecutor(workers, initializer=initializer, initargs=initargs) as pool:
        try:
            for task, future in _in_task_order(pool, build, _ranges(items), 2 * workers):
                # the result comes first: the parts are whole once it is in
                counts = add_counts(counts, future.result())
                for sink in sinks:
                    _append_part(sink, f"{sink.name}.{task}")
        except BaseException:
            # drop the queued ranges; the with block waits for the running
            # ones, so none writes a part after the caller's remove_parts
            pool.shutdown(wait=False, cancel_futures=True)
            raise
    return counts
