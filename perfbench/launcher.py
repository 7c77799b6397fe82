"""Start children one at a time and report how each one ran.

Reads one JSON request per line on stdin, ``{"argv": [...], "stderr": path}``,
runs it to completion with the working directory and environment this
process was given, and writes one JSON line back: wall seconds from spawn
to exit, the exit code, and the child's peak RSS in MiB from ``os.wait4``.

This runs as its own small process because on Linux a child's reported
peak RSS is at least the resident size of the process that spawned it:
spawned from the benchmark, whose memory grows with the samples it holds,
small children would report the benchmark's size instead of their own.
"""

import json
import os
import sys
from time import perf_counter


def run(argv, stderr_path):
    stdin = os.open(os.devnull, os.O_RDONLY)
    stdout = os.open(os.devnull, os.O_WRONLY)
    stderr = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        start = perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, stdin, 0),
            (os.POSIX_SPAWN_DUP2, stdout, 1),
            (os.POSIX_SPAWN_DUP2, stderr, 2),
        ])
        _, status, usage = os.wait4(pid, 0)
        wall = perf_counter() - start
    finally:
        for fd in (stdin, stdout, stderr):
            os.close(fd)
    return {"wall": wall, "code": os.waitstatus_to_exitcode(status),
            "peak_mib": usage.ru_maxrss / 1024}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["argv"], request["stderr"])), flush=True)


if __name__ == "__main__":
    main()
