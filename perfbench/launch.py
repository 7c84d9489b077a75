"""Run one command and report its wall time, first-output time and peak RSS.

Usage::

    python3 -I -S perfbench/launch.py STDIN STDOUT STDERR -- COMMAND [ARG ...]

Prints one JSON object: ``wall_s`` (spawn to exit), ``first_byte_s``
(spawn to the first byte on the command's standard output, or null),
``exit`` and ``maxrss_kb`` (the command's peak resident set).

On Linux a child's ``ru_maxrss`` never reads below the resident set of the
process that spawned it, so a command spawned straight from a harness that
holds its inputs in memory reports the harness's size, not its own.  This
launcher imports only what it needs and starts the command itself, so that
floor is its own small and fixed resident set.
"""

import json
import os
import sys
import time


def main(argv):
    if len(argv) < 6 or argv[4] != "--":
        sys.exit("usage: launch.py STDIN STDOUT STDERR -- COMMAND [ARG ...]")
    stdin_path, stdout_path, stderr_path = argv[1:4]
    command = argv[5:]
    read_end, write_end = os.pipe()
    stdin_fd = os.open(stdin_path, os.O_RDONLY)
    stderr_fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    actions = [
        (os.POSIX_SPAWN_DUP2, stdin_fd, 0),
        (os.POSIX_SPAWN_DUP2, write_end, 1),
        (os.POSIX_SPAWN_DUP2, stderr_fd, 2),
    ]
    first_byte = None
    with open(stdout_path, "wb") as sink:
        start = time.perf_counter()
        pid = os.posix_spawnp(command[0], command, os.environ, file_actions=actions)
        for fd in (write_end, stdin_fd, stderr_fd):
            os.close(fd)
        while True:
            chunk = os.read(read_end, 1 << 20)
            if not chunk:
                break
            if first_byte is None:
                first_byte = time.perf_counter()
            sink.write(chunk)
        _, status, usage = os.wait4(pid, 0)
        end = time.perf_counter()
    os.close(read_end)
    print(
        json.dumps(
            {
                "wall_s": end - start,
                "first_byte_s": None if first_byte is None else first_byte - start,
                "exit": os.waitstatus_to_exitcode(status),
                "maxrss_kb": usage.ru_maxrss,
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv)
