"""The process entry of the command line.

``nextphrase`` and ``python -m nextphrase`` both start a run through
``main`` here, which alone sets what belongs to the process: the frozen
start-up heap and the stop signals.  ``nextphrase.cli`` is a plain
module, so ``python -m nextphrase.cli`` starts no run.  A program
that runs a command inside itself calls ``nextphrase.cli.main(argv)``,
which touches neither, and gets Ctrl-C as ``KeyboardInterrupt``.
"""

import _signal  # the core of signal, loaded at start-up: signal itself loads enum
import gc
import os
import sys

from . import cli


class Terminated(BaseException):
    """SIGTERM arrived while the command ran."""


def _terminated(signum, frame):
    raise Terminated


def _end_by(signum: int) -> None:
    """End this process by the default action of signum, so that its
    parent sees the signal."""
    _signal.signal(signum, _signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def main() -> None:
    """Run the command named by ``sys.argv`` and exit with its code.

    Every object alive at this point was made by start-up and the
    imports and lives as long as the process.  ``gc.freeze`` moves them
    out of every later collection, the interpreter's final one at exit
    included, so no collection walks them again.  What the command makes
    is not frozen: it is still collected and finalized at exit, and a
    file it leaks still warns there.

    While the command runs, SIGTERM raises ``Terminated`` in it, as
    SIGINT raises ``KeyboardInterrupt``, so that its cleanup runs; then
    the process ends by that signal, with no traceback.  A SIGTERM that
    the parent process left ignored stays ignored.  A closed stdout, as
    under ``| head``, ends the process by SIGPIPE with no error line, the
    way a command written in C ends; stdout is flushed here, so that its
    last buffered lines fail here too and not at exit.  Where there is no
    SIGPIPE, it is an I/O error, exit 2.
    """
    gc.freeze()
    sigterm = _signal.getsignal(_signal.SIGTERM) == _signal.SIG_DFL
    if sigterm:
        _signal.signal(_signal.SIGTERM, _terminated)
    try:
        code = cli.main()
        sys.stdout.flush()
    except Terminated:
        _end_by(_signal.SIGTERM)
        raise
    except KeyboardInterrupt:
        _end_by(_signal.SIGINT)
        raise
    except BrokenPipeError as exc:
        if hasattr(_signal, "SIGPIPE"):
            _end_by(_signal.SIGPIPE)
        print(f"error: {exc}", file=sys.stderr)
        code = cli.EXIT_IO
    finally:  # a SIGTERM while the process exits prints no traceback
        if sigterm:
            _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
    sys.exit(code)


if __name__ == "__main__":
    main()
