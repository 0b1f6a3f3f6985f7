"""The builders' fan-out and their one write-and-count loop.

A builder hands ``fan_out`` a function ``outcomes_of(item)`` that gives
each input item's outcomes.  An outcome is either a skip reason (a
``str``) or a ``(sink index, records written, lines)`` triple whose
lines go to that sink; each outcome counts as one record read.
The items are built in this process, or cut into contiguous ranges
that forked worker processes build into part files: each worker reads
the items itself and builds every Nth range, and the parent, which reads
no item, appends the parts in input order.  So the output bytes and
counts do not depend on the worker count.  The part files are written
next to the sinks, so the sinks' directory must be the caller's own.
"""

from __future__ import annotations

import functools
import itertools
import marshal
import os
import shutil
from contextlib import ExitStack, contextmanager
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

# a worker task is a contiguous range of this many input records (the
# last range may be shorter): a worker holds one range at a time, so its
# memory does not grow with the input, while each range still costs one
# message and one part file per output
RANGE_RECORDS = 256


class WorkerDied(RuntimeError):
    """A worker process ended before its range was built."""


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
    outcomes_of: Callable, sink_names: Sequence[str], task: int, records: list
) -> RangeCounts:
    """Write one range into the part files ``<sink name>.<task>``."""
    with ExitStack() as stack:
        parts = [stack.enter_context(open_sink(f"{name}.{task}")) for name in sink_names]
        return _write_range(outcomes_of, records, parts)


def _serve(
    outcomes_of: Callable,
    open_items: Callable[[], Iterable],
    sink_names: Sequence[str],
    workers: int,
    worker: int,
    results: BinaryIO,
) -> None:
    """Worker ``worker``'s loop: read the items, build each range whose
    task is ``worker`` mod ``workers`` into its part files and send its
    counts as a plain tuple, then send None.  An exception, in a range of
    its own or while reading one it skips, is sent pickled in their
    place, and ends the loop."""
    try:
        for task, records in _ranges(open_items()):
            if task % workers == worker:
                marshal.dump(tuple(_build_part(outcomes_of, sink_names, task, records)), results)
                results.flush()
        marshal.dump(None, results)
    except Exception as exc:
        import pickle  # only a failed worker sends an exception

        marshal.dump(pickle.dumps(exc), results)


def _worker(serve: Callable, worker: int, result_fd: int):
    """The body of a forked worker, which ends only through os._exit: it
    never unwinds into the parent's frames, runs the parent's atexit
    handlers or flushes the parent's buffers."""
    code = 1
    try:
        with open(result_fd, "wb") as results:
            serve(worker, results)
        code = 0
    finally:
        os._exit(code)


@contextmanager
def _forked(serve: Callable, count: int) -> Iterator[tuple[list, dict]]:
    """count forked workers, worker k running serve(k, results) on a
    result pipe of its own; the parent gets (the result streams,
    {worker: pid}), worker k's stream at index k.

    On leaving, every worker is reaped; when the block raised, the
    workers still running are killed first.  So no worker runs, or
    writes a part, once this has returned.
    """
    import signal  # only a build with workers forks

    results: list[BinaryIO] = []
    pids: dict[int, int] = {}
    try:
        # SIGINT waits while the workers start, so that every worker forked
        # has its pid recorded, and it stays blocked in the workers: on
        # Ctrl-C the parent stops them
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for worker in range(count):
                result_end, result_fd = os.pipe()
                results.append(open(result_end, "rb"))
                try:
                    pids[worker] = os.fork()
                    if pids[worker] == 0:
                        _worker(serve, worker, result_fd)
                finally:
                    os.close(result_fd)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield results, pids
    except BaseException:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in pids.values():
            os.waitpid(pid, 0)
        for stream in results:
            stream.close()


def _result(results: list, pids: dict, task: int) -> RangeCounts | None:
    """The counts of a range, read from its worker, or None past the last
    range; raises what failed it."""
    worker = task % len(results)
    try:
        reply = marshal.load(results[worker])
    except EOFError:
        # the worker's pipe closed before its message: reap it and name its status
        _, status = os.waitpid(pids.pop(worker), 0)
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise WorkerDied(f"a worker process died: {how}") from None
    if isinstance(reply, bytes):
        import pickle

        raise pickle.loads(reply)
    return None if reply is None else RangeCounts(*reply)


def _append_part(sink: TextIO, path: str) -> None:
    """Append the bytes of the part file at path to sink, then delete the part."""
    sink.flush()
    with open(path, "rb") as part:
        shutil.copyfileobj(part, sink.buffer)
    os.unlink(path)


def fan_out(
    outcomes_of: Callable, open_items: Callable, sinks: Sequence[TextIO], workers: int
) -> RangeCounts:
    """Write the outcomes of the items to sinks; bytes and counts do not depend on workers.

    ``outcomes_of(item)`` gives an item's outcomes (see the module
    docstring), and each call of ``open_items()`` gives a new iterator
    over the items.  With more than one worker, the workers are forked
    (POSIX only), so the caller must run no other thread; they inherit
    ``outcomes_of`` and ``open_items``, and each worker reads the items
    itself.  That is why the items come from a call: an iterator that
    had read from a file before the fork would share the file's offset
    with every worker.  An exception in a worker is raised here in task order, and
    a worker that dies fails the build with ``WorkerDied``.  Workers
    write their part files ``<sink name>.<task>`` next to the sinks, and
    a failed run can leave some behind, so the sinks' directory must be
    the caller's own.
    """
    if workers == 1:
        return _write_range(outcomes_of, open_items(), sinks)
    serve = functools.partial(
        _serve, outcomes_of, open_items, [sink.name for sink in sinks], workers
    )
    counts = RangeCounts(0, (0,) * len(sinks), {})
    with _forked(serve, workers) as (results, pids):
        task = 0
        # the counts come first: the parts are whole once they are in
        while (built := _result(results, pids, task)) is not None:
            counts = add_counts(counts, built)
            for sink in sinks:
                _append_part(sink, f"{sink.name}.{task}")
            task += 1
    return counts
