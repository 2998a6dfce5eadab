"""Spawns and times engine children on behalf of the benchmark.

Linux keeps a process's peak RSS across exec, and a spawned child starts
out in its parent's memory, so a child spawned straight from the benchmark
(which holds the generated inputs) reports the benchmark's peak RSS whenever
that is the larger one. This launcher is a small separate process, so the
peak RSS each child reports is its own.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "env": {...}, "log_prefix": "...", "timeout": s}``, and one
JSON reply per line on stdout, ``{"exit_code": n, "wall_s": s, "peak_rss_mb": mb}``.
Wall time runs from spawn to exit; peak RSS comes from the child's own
rusage (``os.wait4``).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list, env: dict, log_prefix: str, timeout: float) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, log_prefix + ".out", flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, log_prefix + ".err", flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    timer = threading.Timer(timeout, _kill, (pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # interrupted: stop the child and reap it, then re-raise
        _kill(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    return {"exit_code": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def main() -> None:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for line in sys.stdin:
        sys.stdout.write(json.dumps(spawn(**json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
