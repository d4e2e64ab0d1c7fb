"""Timed CLI entry point with an in-process host-speed reference.

    python3 perfbench/timed.py TIMES.json -- <absorb CLI arguments>

times a small fixed reference search REFERENCE_BURST times, imports
`absorb.cli`, runs `absorb.cli.main(argv)` and writes

    {"reference_s": [S, ...], "import_s": S, "program_s": S}

to TIMES.json whatever the outcome; program_s runs from the import to the
end of main, and import_s is its first part.  The exit code and output are
the CLI's own.

The reference search is the same kind of work the program does (bitmask
domains, arc consistency over tuple relations, backtracking), but written
here, importing nothing from `absorb` and run before it is imported, so it
takes the same time on every commit.  run.py divides a run's query times by
the mean of all the reference samples of the run, which measures how fast
the shared host was during that run.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import deque
from itertools import product

SIZE = 4
# Count the maps from a 2x2 grid graph (plus its two diagonals) to the
# relation {(x, y): x <= y or x - y == 2} on {0..3} that respect every edge:
# about 7 ms of work.
ROWS, COLS = 2, 2
SOLUTIONS = 67
REFERENCE_BURST = 8


def _instance():
    allowed = frozenset((x, y) for x, y in product(range(SIZE), repeat=2) if x <= y or x - y == 2)
    cells = [(r, c) for r in range(ROWS) for c in range(COLS)]
    index = {cell: i for i, cell in enumerate(cells)}
    edges = []
    for r, c in cells:
        if c + 1 < COLS:
            edges.append((index[(r, c)], index[(r, c + 1)]))
        if r + 1 < ROWS:
            edges.append((index[(r, c)], index[(r + 1, c)]))
    edges.append((index[(0, 0)], index[(ROWS - 1, COLS - 1)]))
    edges.append((index[(0, COLS - 1)], index[(ROWS - 1, 0)]))
    return len(cells), edges, allowed


def _revise(masks, edge, allowed):
    """Narrow both ends of `edge` to supported values; False on a wipe-out."""
    u, v = edge
    changed = []
    mu = sum(1 << x for x in range(SIZE) if masks[u] >> x & 1
             and any(masks[v] >> y & 1 and (x, y) in allowed for y in range(SIZE)))
    mv = sum(1 << y for y in range(SIZE) if masks[v] >> y & 1
             and any(mu >> x & 1 and (x, y) in allowed for x in range(SIZE)))
    if mu != masks[u]:
        masks[u] = mu
        changed.append(u)
    if mv != masks[v]:
        masks[v] = mv
        changed.append(v)
    return (mu != 0 and mv != 0), changed


def _propagate(masks, edges, by_var, allowed):
    queue = deque(range(len(edges)))
    queued = set(queue)
    while queue:
        k = queue.popleft()
        queued.discard(k)
        ok, changed = _revise(masks, edges[k], allowed)
        if not ok:
            return False
        for var in changed:
            for j in by_var[var]:
                if j not in queued:
                    queued.add(j)
                    queue.append(j)
    return True


def count_solutions():
    n, edges, allowed = _instance()
    by_var = [[k for k, e in enumerate(edges) if var in e] for var in range(n)]
    full = (1 << SIZE) - 1

    def search(masks):
        if not _propagate(masks, edges, by_var, allowed):
            return 0
        open_vars = [v for v in range(n) if masks[v] & (masks[v] - 1)]
        if not open_vars:
            return 1
        var = min(open_vars, key=lambda v: (bin(masks[v]).count("1"), v))
        total = 0
        for x in range(SIZE):
            if masks[var] >> x & 1:
                child = list(masks)
                child[var] = 1 << x
                total += search(child)
        return total

    return search([full] * n)


def reference():
    """Seconds the reference search takes now."""
    start = time.perf_counter()
    count = count_solutions()
    seconds = time.perf_counter() - start
    if count != SOLUTIONS:
        raise AssertionError("reference search counted %d, not %d" % (count, SOLUTIONS))
    return seconds


def main():
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: timed.py TIMES.json -- <absorb arguments>", file=sys.stderr)
        return 2
    out, argv = sys.argv[1], sys.argv[3:]
    # No collection may land inside a reference sample.
    gc.disable()
    times = {"reference_s": [reference() for _ in range(REFERENCE_BURST)]}
    gc.enable()
    start = time.perf_counter()
    try:
        import absorb.cli
        times["import_s"] = time.perf_counter() - start
        code = absorb.cli.main(argv)
    finally:
        times["program_s"] = time.perf_counter() - start
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(times, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
