"""Run CLI queries in fresh processes and classify their outcomes.

Queries are started by a small spawner process (spawn.py).  A query's wall
time runs from just before it is spawned until it has been reaped; its
peak memory is its own max RSS as wait4 reports it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SCHEMA = "absorb/1"
SPAWN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spawn.py")


class Outcome:
    """What one process did: exit code, seconds, max RSS and parsed payload.

    status is "ok" or a failure kind: "crash" (exit 1, empty stdout),
    "bad-output" (stdout is not one absorb/1 object agreeing with the exit
    code), "exit-N" (an exit code other than 0 or 1) or "deadline".
    """

    def __init__(self, code, seconds, rss_kb, status, payload, stderr_tail):
        self.code = code
        self.seconds = seconds
        self.rss_kb = rss_kb
        self.status = status
        self.payload = payload
        self.stderr_tail = stderr_tail


class Spawner:
    """A spawn.py process; children inherit `env`.  Use as a context manager."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", SPAWN], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, text=True,
        )

    def run(self, argv, cwd, timeout, out_path, err_path, env=None):
        req = {"argv": argv, "cwd": cwd, "out": out_path, "err": err_path, "timeout": timeout,
               "env": env or {}}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner exited unexpectedly")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def classify(code, stdout, timed_out):
    """(status, payload) from the exit code and stdout together."""
    if timed_out:
        return "deadline", None
    text = stdout.strip()
    if code == 1 and not text:
        return "crash", None
    if code not in (0, 1):
        return "exit-%d" % code, None
    lines = text.splitlines()
    if len(lines) != 1:
        return "bad-output", None
    try:
        payload = json.loads(lines[0])
    except ValueError:
        return "bad-output", None
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
        return "bad-output", None
    if payload.get("holds", code == 0) is not (code == 0):
        return "bad-output", None
    return "ok", payload


def run_query(spawner, argv, cwd, timeout, tag, env=None):
    """Run one query, with `env` added to its environment; its stdout and
    stderr are kept in `cwd` under `tag`."""
    out_path = os.path.join(cwd, tag + ".stdout")
    err_path = os.path.join(cwd, tag + ".stderr")
    r = spawner.run(argv, cwd, timeout, out_path, err_path, env)
    with open(out_path, "r", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    status, payload = classify(r["code"], stdout, r["timed_out"])
    tail = stderr.strip().splitlines()[-1][:200] if stderr.strip() else r.get("error", "")
    return Outcome(r["code"], r["seconds"], r["rss_kb"], status, payload, tail)
