"""The builders' fan-out and their one write-and-count loop.

A builder hands ``fan_out`` a function ``outcomes_of(item)`` that gives
each input item's outcomes.  An outcome is either a skip reason (a
``str``) or a ``(sink index, records written, lines)`` triple whose
lines go to that sink; each outcome counts as one record read.
The items are cut into one contiguous block per worker, or one per
item when there are fewer items than workers, so that no block is
empty.  This process builds block 0 straight into the sinks; each other
block k is built by a forked worker process, which reads the items
itself, up to the end of block k, and writes its block into part files
and its counts into a file of their own.  This process reaps the
workers in block order: a worker that exited 0 has its counts read and
its parts appended, and any other exit fails the build.  So the output
bytes and counts do not depend on the worker count.  Each process reads
the items anew, through ``corpus.unchanged``, so a block fails with
``InputChanged`` when one of its items is not the one the caller
counted, when its items end before it does, or, the last block, when
they go on past it.  The workers' files are written next to the sinks,
so the sinks' directory must be the caller's own.
"""

from __future__ import annotations

import functools
import marshal
import os
import shutil
from contextlib import ExitStack, contextmanager
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from .corpus import open_sink, unchanged


class WorkerDied(ChildProcessError):
    """A worker process could not be forked, or did not exit 0."""


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
    written = tuple([a + b for a, b in zip(first.written, then.written)])
    return RangeCounts(first.read + then.read, written, skips)


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


def _serve(
    outcomes_of: Callable,
    open_items: Callable[[], Iterable],
    hashes: Sequence[int],
    sink_names: Sequence[str],
    bounds: Sequence[int],
    worker: int,
) -> None:
    """Worker ``worker``'s body: build the items from ``bounds[worker]`` up
    to ``bounds[worker + 1]``, checked against hashes, into the part files
    ``<sink name>.<worker>``, and write its counts file, with ``marshal``,
    the counts as a plain tuple or, when the block failed, the exception
    pickled."""
    try:
        with ExitStack() as stack:
            parts = [stack.enter_context(open_sink(f"{name}.{worker}")) for name in sink_names]
            items = unchanged(open_items(), hashes, bounds[worker], bounds[worker + 1])
            reply = tuple(_write_range(outcomes_of, items, parts))
    except Exception as exc:
        import pickle  # only a failed worker writes an exception

        reply = pickle.dumps(exc)
    with open(f"{sink_names[0]}.{worker}.counts", "wb") as counts:
        marshal.dump(reply, counts)


def _worker(serve: Callable, worker: int):
    """The body of a forked worker, which ends only through os._exit, with
    status 0 once serve has returned: it never unwinds into the parent's
    frames, runs the parent's atexit handlers or flushes the parent's
    buffers.  SIGTERM ends it at once, whatever handler the parent set;
    SIGINT stays blocked, since the parent stops its workers on Ctrl-C."""
    code = 1
    try:
        import signal  # loaded already: the parent imported it to fork

        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        serve(worker)
        code = 0
    finally:
        os._exit(code)


@contextmanager
def _forked(serve: Callable, workers: int) -> Iterator[dict[int, int]]:
    """Workers 1 to workers - 1 forked, none at one worker, worker k
    running serve(k); the parent gets {worker: pid}, from which whoever
    reaps a worker removes it.

    On leaving, every worker still in it is reaped; when the with body
    raised, those workers are killed first.  So no worker runs, or
    writes a file, once this has returned.  A fork that fails raises
    WorkerDied.
    """
    pids: dict[int, int] = {}
    try:
        if workers > 1:
            import signal  # only a build with workers forks

            # SIGINT and SIGTERM wait while the workers start, so that every
            # worker forked has its pid recorded when the parent stops them
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
            try:
                for worker in range(1, workers):
                    try:
                        pids[worker] = os.fork()
                    except OSError as exc:
                        raise WorkerDied(f"could not start a worker process: {exc}") from exc
                    if pids[worker] == 0:
                        _worker(serve, worker)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield pids
    except BaseException:
        # pids is empty unless signal was imported above
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in pids.values():
            os.waitpid(pid, 0)


def _result(pids: dict[int, int], worker: int, path: str) -> RangeCounts:
    """The counts of a worker's block: reap the worker, and remove it from
    pids, then read its counts file at path and delete it; raises what
    failed the block, or WorkerDied when the worker did not exit 0."""
    _, status = os.waitpid(pids[worker], 0)
    del pids[worker]
    code = os.waitstatus_to_exitcode(status)
    if code:
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise WorkerDied(f"a worker process died: {how}")
    with open(path, "rb") as counts:
        reply = marshal.load(counts)
    os.unlink(path)
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
    outcomes_of: Callable,
    open_items: Callable,
    sinks: Sequence[TextIO],
    workers: int,
    hashes: Sequence[int],
) -> RangeCounts:
    """Write the outcomes of the items to sinks; bytes and counts do not depend on workers.

    ``outcomes_of(item)`` gives an item's outcomes (see the module
    docstring), each call of ``open_items()`` gives a new iterator over
    the items, and ``hashes`` holds ``hash(item)`` of each item as the
    caller counted them (see ``corpus.hashed``).  The items are cut into
    ``min(workers, len(hashes))`` contiguous blocks, or one when there is
    no item, so no block is empty; this process builds block 0 and forks
    a worker for each other block (POSIX only), so the caller must run
    no other thread.  The workers inherit the arguments, and with them
    this process's hash salt, and each calls ``open_items()`` itself: an
    iterator that had read from a file before the fork would share the
    file's offset with every worker.  An exception in a block is raised
    here in block order, ``InputChanged`` when a block's items are not
    those counted (see ``corpus.unchanged``); a worker that does not
    exit 0, killed or not, fails the build with ``WorkerDied`` when its
    block's turn comes, and one that cannot be forked at once.  Workers
    write their part files ``<sink name>.<worker>`` and their counts
    file ``<first sink name>.<worker>.counts`` next to the sinks, and a
    failed run can leave some behind, so the sinks' directory must be
    the caller's own.
    """
    total = len(hashes)
    # a block per item at most: an empty block would cost a fork and its part files
    workers = max(1, min(workers, total))
    bounds = [total * k // workers for k in range(workers + 1)]
    serve = functools.partial(
        _serve, outcomes_of, open_items, hashes, [sink.name for sink in sinks], bounds
    )
    with _forked(serve, workers) as pids:
        items = unchanged(open_items(), hashes, 0, bounds[1])
        counts = _write_range(outcomes_of, items, sinks)
        for worker in range(1, workers):
            # the counts come first: the parts are whole once the worker has exited 0
            counts = add_counts(counts, _result(pids, worker, f"{sinks[0].name}.{worker}.counts"))
            for sink in sinks:
                _append_part(sink, f"{sink.name}.{worker}")
    return counts
