"""The process entry of the command line.

``nextphrase``, ``python -m nextphrase`` and ``python -m nextphrase.cli``
all start a run through ``main`` here.  A caller that runs a command in
its own process calls ``nextphrase.cli.main(argv)`` instead, which
leaves the garbage collector as it found it.
"""

import gc
import sys

from . import cli


def main() -> None:
    """Run the command named by ``sys.argv`` and exit with its code.

    Every object alive at this point was made by start-up and the
    imports and lives as long as the process.  ``gc.freeze`` moves them
    out of every later collection, the interpreter's final one at exit
    included, so no collection walks them again.  What the command makes
    is not frozen: it is still collected and finalized at exit, and a
    file it leaks still warns there.
    """
    gc.freeze()
    sys.exit(cli.main())


if __name__ == "__main__":
    main()
