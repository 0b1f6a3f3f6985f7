"""The builders' fan-out and their one write-and-count loop.

A builder hands ``fan_out`` a function ``outcomes_of(item)`` that gives
each input item's outcomes.  An outcome is either a skip reason (a
``str``) or a ``(sink index, records written, lines)`` triple whose
lines go to that sink with ``writelines``; each outcome counts as one
record read.

The items are cut into N contiguous blocks of equal count, give or take
one: block k holds items ``total * k // N`` up to ``total * (k + 1) //
N``, where N is the worker count, or the item count when that is
smaller, so that no block is empty.  This process, the parent, forks
workers 1 to N - 1 and then builds block 0 straight into the sinks.  No
item travels between processes: each worker inherits the arguments and
reads the items itself, passing over those before its block unbuilt and
stopping at its end, except that the last block reads one item more,
which must not be there.  So a file that the items come from is read
1 + (N + 1) / 2 times, counting the caller's first pass: 2.5 times at
N = 2.  Each block reads its items through ``corpus.unchanged``, and
fails with ``InputChanged`` when one of them is not the item the caller
counted, when they end before the block does or, in the last block,
when they go on past it.

Worker k writes its block into one part file per sink, ``<sink
name>.<k>``, then its counts, or the exception that failed it, with
``marshal`` into ``<first sink name>.<k>.counts``, and exits 0: it
reports only through those files and its exit status.  Once block 0 is
written, the parent reaps the workers in block order.  Any exit status
but 0, a signal included, fails the build with ``WorkerDied`` even when
the worker wrote its counts; otherwise the parent reads and deletes the
counts file, raises the exception in it or adds up the counts, and
appends each part to its sink, deleting it.  So the output bytes and
counts do not depend on the worker count.  The workers' files are
written next to the sinks, and a failed run can leave some behind, so
the sinks' directory must be the caller's own.

One block per process has its trade-offs.  The blocks are balanced by
item count, not by cost, so a block whose costly items cluster holds up
the build.  A worker that dies fails the build only when its block's
turn comes, after the blocks before it are built and appended.  Until
appended, a worker's parts, up to 1/N of the output, sit next to the
sinks.  The parent's peak memory is that of a smaller one-worker build;
a forked worker counts each page of its parent's that it touches.  A
worker costs a fork and no import: ``concurrent.futures`` and
``multiprocessing`` are never loaded, and ``signal`` only to fork.
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
    """Worker ``worker``'s body: build its block into its part files and
    write its counts file (see the module docstring), the counts as a
    plain tuple or, when the block failed, the exception pickled."""
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
    """Write the outcomes of the items to sinks in blocks, one per
    process, as the module docstring tells; bytes and counts do not
    depend on workers.

    ``outcomes_of(item)`` gives an item's outcomes, each call of
    ``open_items()`` a new iterator over the items, such as
    ``functools.partial(corpus.read_items, path, mode)``, and ``hashes``
    holds ``hash(item)`` of each item as the caller counted them (see
    ``corpus.hashed``).  The workers are forked (POSIX only), so the
    callables and the items can be any objects, but the caller must run
    no other thread.  Each worker inherits this process's hash salt and
    calls ``open_items()`` itself: an iterator that had read from a file
    before the fork would share the file's offset with every worker.  An
    exception in a block is raised here in block order; a worker that
    does not exit 0, killed or not, raises ``WorkerDied`` when its
    block's turn comes, and one that cannot be forked at once.
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
