"""The builders' fan-out: contiguous ranges of input records, built in
this process or by a Pool into part files that are appended in input
order, so the output bytes and counts do not depend on the worker count.
"""

from __future__ import annotations

import functools
import itertools
import os
import shutil
from contextlib import ExitStack
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

# a Pool task is a contiguous range of this many input records (the last
# range may be shorter): the parent and each worker hold a few ranges at
# a time, so their memory does not grow with the input, while each range
# still costs one task and one part file per output
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


def _ranges(items: Iterable) -> Iterator[tuple[int, list]]:
    """(task, records) of each contiguous range of RANGE_RECORDS items, read
    from items only as they are asked for."""
    items = iter(items)
    for task in itertools.count():
        records = list(itertools.islice(items, RANGE_RECORDS))
        if not records:
            return
        yield task, records


def _build_part(build: Callable, tmp_names: Sequence[str], task: tuple[int, list]) -> RangeCounts:
    """Build one range into the part files ``<tmp name>.<task>``."""
    index, records = task
    with ExitStack() as stack:
        parts = [stack.enter_context(open_sink(f"{name}.{index}")) for name in tmp_names]
        return build(records, parts)


def _append_part(sink: TextIO, path: str) -> None:
    """Append the bytes of the part file at path to sink, then delete the part."""
    sink.flush()
    with open(path, "rb") as part:
        shutil.copyfileobj(part, sink.buffer)
    os.unlink(path)


def fan_out(
    build: Callable,
    items: Iterable,
    sinks: Sequence[TextIO],
    workers: int,
    initializer: Callable | None = None,
    initargs: tuple = (),
) -> RangeCounts:
    """Build the items into sinks; bytes and counts do not depend on workers.

    ``build(records, sinks)`` writes a contiguous range of records to one
    sink per data output and returns its RangeCounts; it must be a
    module-level function or a partial of one, so that a Pool can pickle
    it.  ``initializer(*initargs)`` runs once in every process that
    builds.  A failed Pool run can leave part files behind: the caller
    deletes them with ``remove_parts`` once this returns or raises.
    """
    if workers == 1:
        if initializer is not None:
            initializer(*initargs)
        return build(items, sinks)
    # imported here: a serial run, the common case, never starts a Pool
    from multiprocessing import Pool

    tmp_names = [sink.name for sink in sinks]
    task = functools.partial(_build_part, build, tmp_names)
    counts = RangeCounts(0, (0,) * len(sinks), {})
    with Pool(workers, initializer, initargs) as pool:
        for index, part_counts in enumerate(pool.imap(task, _ranges(items))):
            for sink in sinks:
                _append_part(sink, f"{sink.name}.{index}")
            counts = add_counts(counts, part_counts)
    return counts
