"""Small resident process that starts each benchmarked command.

Linux charges a new process with the peak resident size of the process
that forked it, so a command started straight from the benchmark, which
holds its corpora in memory, would report the benchmark's own peak as
``ru_maxrss``.  This launcher imports almost nothing and stays small; it
reads one JSON request per line from stdin::

    {"argv": [...], "log": "stderr.log"}

starts the command with stdout discarded and stderr to ``log``, waits
for it with ``wait4`` and answers with one JSON line::

    {"exit": 0, "wall_s": 1.02, "maxrss_kb": 31000, "cpu_s": 1.01}

``maxrss_kb`` is the peak of the command's process tree, its Pool
workers included; ``cpu_s`` is their user plus system time.
"""

import json
import os
import sys
import time


def serve(requests, replies) -> None:
    for line in requests:
        request = json.loads(line)
        argv = request["argv"]
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, request["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reply = {
            "exit": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "maxrss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
