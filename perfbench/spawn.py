"""Process spawner for the benchmark: runs one command per request.

    python3 -I -S perfbench/spawn.py

Reads one JSON request per line on stdin,
    {"argv": [...], "cwd": DIR, "out": FILE, "err": FILE, "timeout": SECONDS,
     "env": {NAME: VALUE, ...}},
runs argv in DIR, with "env" added to the spawner's own environment and
stdout and stderr sent to the two files, waits for it (killing it at the
timeout) and answers with one JSON line,
    {"code": N, "seconds": S, "rss_kb": K, "timed_out": BOOL}.
It exits at end of input.

It exists because Linux carries a process's peak RSS across exec: a child
reports at least the RSS of the process it was spawned from.  Spawned from
this small interpreter (no site, stdlib only), the max RSS that wait4
returns is the query's own, not the benchmark harness's.
"""

import json
import os
import select
import signal
import sys
import time

_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def run(req):
    os.chdir(req["cwd"])
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, req["out"], _WRITE, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["err"], _WRITE, 0o644),
    ]
    argv = req["argv"]
    env = dict(os.environ)
    env.update(req.get("env", {}))
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(req["timeout"], 0.0))
    finally:
        os.close(fd)
    if not ready:
        os.kill(pid, signal.SIGKILL)
    _, status, rusage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    return {"code": os.waitstatus_to_exitcode(status), "seconds": seconds,
            "rss_kb": rusage.ru_maxrss, "timed_out": not ready}


def main():
    for line in sys.stdin:
        try:
            answer = run(json.loads(line))
        except OSError as exc:
            answer = {"code": 127, "seconds": 0.0, "rss_kb": 0, "timed_out": False,
                      "error": str(exc)}
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
