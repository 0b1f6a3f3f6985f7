"""The builders' fan-out and their one write-and-count loop.

A builder hands ``fan_out`` a function ``outcomes_of(item)`` that gives
each input item's outcomes.  An outcome is either a skip reason (a
``str``) or a ``(sink index, records written, lines)`` triple whose
lines go to that sink; each outcome counts as one record read.
Contiguous ranges of items are built in this process or by forked worker
processes into part files that are appended in input order, so the
output bytes and counts do not depend on the worker count.  The part
files are written next to the sinks, so the sinks' directory must be the
caller's own.
"""

from __future__ import annotations

import collections
import functools
import itertools
import marshal
import os
import shutil
from contextlib import ExitStack, contextmanager, suppress
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

# a worker task is a contiguous range of this many input records (the
# last range may be shorter): the parent and each worker hold a few
# ranges at a time, so their memory does not grow with the input, while
# each range still costs one task and one part file per output
RANGE_RECORDS = 256

# a message on a worker pipe is its length in this many little-endian
# bytes, then its marshal bytes
_LENGTH_BYTES = 8


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


def _send(stream: BinaryIO, message) -> None:
    data = marshal.dumps(message)
    stream.write(len(data).to_bytes(_LENGTH_BYTES, "little"))
    stream.write(data)
    stream.flush()


def _receive(stream: BinaryIO):
    """The next message on stream, or None when its writer closed it first."""
    header = stream.read(_LENGTH_BYTES)
    if len(header) < _LENGTH_BYTES:
        return None
    size = int.from_bytes(header, "little")
    data = stream.read(size)
    return marshal.loads(data) if len(data) == size else None


def _serve(
    outcomes_of: Callable, sink_names: Sequence[str], tasks: BinaryIO, results: BinaryIO
) -> None:
    """A worker's loop: build each range that tasks sends into its part
    files, and send back its counts as a plain tuple, or the pickled
    exception that failed it.  After a failure the worker reads its tasks
    to their end and builds none, so the parent, which raises the failure
    in task order, never finds a closed pipe before it."""
    failed = False
    while (message := _receive(tasks)) is not None:
        if failed:
            continue
        task, records = message
        try:
            reply = tuple(_build_part(outcomes_of, sink_names, task, records))
        except Exception as exc:
            import pickle  # only a failed range sends an exception

            reply, failed = pickle.dumps(exc), True
        _send(results, reply)


def _worker(serve: Callable, task_fd: int, result_fd: int, inherited: Sequence[BinaryIO]):
    """The body of a forked worker, which ends only through os._exit: it
    never unwinds into the parent's frames, runs the parent's atexit
    handlers or flushes the parent's buffers."""
    code = 1
    try:
        # the parent's ends of the pipes, an earlier sibling's among them:
        # while a worker holds a task pipe open, its reader never sees its end
        for stream in inherited:
            os.close(stream.fileno())
        with open(task_fd, "rb") as tasks, open(result_fd, "wb") as results:
            serve(tasks, results)
        code = 0
    finally:
        os._exit(code)


def _died(pids: dict[int, int], worker: int) -> WorkerDied:
    """The failure of a worker whose pipe closed: reap it and name its status."""
    _, status = os.waitpid(pids.pop(worker), 0)
    code = os.waitstatus_to_exitcode(status)
    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
    return WorkerDied(f"a worker process died: {how}")


@contextmanager
def _forked(serve: Callable, count: int) -> Iterator[tuple[list, list, dict]]:
    """count forked workers that each run serve(tasks, results) on a task
    pipe and a result pipe of its own; the parent gets (the task streams,
    the result streams, {worker: pid}), worker k's at index k.

    On leaving, the task pipes are closed, so each worker reads their end
    and exits, and every worker is reaped; when the block raised, the
    workers still running are killed first.  So no worker runs, or writes
    a part, once this has returned.
    """
    import signal  # only a build with workers forks

    tasks: list[BinaryIO] = []
    results: list[BinaryIO] = []
    pids: dict[int, int] = {}
    try:
        # SIGINT waits while the workers start, so that every worker forked
        # has its pid recorded, and it stays blocked in the workers: on
        # Ctrl-C the parent stops them
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for worker in range(count):
                task_fd, task_end = os.pipe()
                result_end, result_fd = os.pipe()
                tasks.append(open(task_end, "wb"))
                results.append(open(result_end, "rb"))
                try:
                    pids[worker] = os.fork()
                    if pids[worker] == 0:
                        _worker(serve, task_fd, result_fd, tasks + results)
                finally:
                    os.close(task_fd)
                    os.close(result_fd)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield tasks, results, pids
    except BaseException:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for stream in tasks:
            # a worker killed or dead mid-task leaves a part of it unsent
            with suppress(BrokenPipeError):
                stream.close()
        for pid in pids.values():
            os.waitpid(pid, 0)
        for stream in results:
            stream.close()


def _in_task_order(tasks: list, pids: dict, ranges: Iterator, ahead: int) -> Iterator[int]:
    """Send each range to worker task % N and yield its task once at most
    ``ahead`` ranges are sent and not yet handed out, so the ranges are
    read only as the workers need them."""
    window: collections.deque = collections.deque()
    for task, records in ranges:
        worker = task % len(tasks)
        try:
            _send(tasks[worker], (task, records))
        except BrokenPipeError:
            raise _died(pids, worker) from None
        window.append(task)
        if len(window) == ahead:
            yield window.popleft()
    yield from window


def _result(results: list, pids: dict, task: int) -> RangeCounts:
    """The counts of a range, read from its worker; raises what failed it."""
    worker = task % len(results)
    reply = _receive(results[worker])
    if reply is None:
        raise _died(pids, worker)
    if isinstance(reply, bytes):
        import pickle

        raise pickle.loads(reply)
    return RangeCounts(*reply)


def _append_part(sink: TextIO, path: str) -> None:
    """Append the bytes of the part file at path to sink, then delete the part."""
    sink.flush()
    with open(path, "rb") as part:
        shutil.copyfileobj(part, sink.buffer)
    os.unlink(path)


def fan_out(
    outcomes_of: Callable, items: Iterable, sinks: Sequence[TextIO], workers: int
) -> RangeCounts:
    """Write the outcomes of the items to sinks; bytes and counts do not depend on workers.

    ``outcomes_of(item)`` gives an item's outcomes (see the module
    docstring).  With more than one worker, the workers are forked
    (POSIX only), so the caller must run no other thread; they inherit
    ``outcomes_of``, and the items travel to them by ``marshal``, so
    they are built of str, int, tuples and lists.  An exception in a
    worker is raised here in task order, and a worker that dies fails
    the build with ``WorkerDied``.  Workers write their part files
    ``<sink name>.<task>`` next to the sinks, and a failed run can leave
    some behind, so the sinks' directory must be the caller's own.
    """
    if workers == 1:
        return _write_range(outcomes_of, items, sinks)
    serve = functools.partial(_serve, outcomes_of, [sink.name for sink in sinks])
    counts = RangeCounts(0, (0,) * len(sinks), {})
    with _forked(serve, workers) as (tasks, results, pids):
        for task in _in_task_order(tasks, pids, _ranges(items), 2 * workers):
            # the result comes first: the parts are whole once it is in
            counts = add_counts(counts, _result(results, pids, task))
            for sink in sinks:
                _append_part(sink, f"{sink.name}.{task}")
    return counts
