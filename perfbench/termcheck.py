"""Brute-force check of an absorbing term table, independent of `absorb`.

A table of arity n over a domain of size k lists t(x_1..x_n) at the
lexicographic rank  sum x_i * k^(n-i).  It is an absorbing term for B in a
structure when it is idempotent (so it preserves every singleton relation),
preserves every relation of the structure, and maps B^(i-1) x A x B^(n-i)
into B for every position i.
"""

from __future__ import annotations

from itertools import product


def _rank(args, size):
    r = 0
    for x in args:
        r = r * size + x
    return r


def check_term(structure, b, arity, values):
    """(True, None) when `values` is an absorbing term for B, else (False, reason)."""
    size = structure["size"]
    if len(values) != size ** arity:
        return False, "table has %d entries, expected %d" % (len(values), size ** arity)
    if any(not isinstance(v, int) or not 0 <= v < size for v in values):
        return False, "table value out of range"
    for x in range(size):
        if values[_rank((x,) * arity, size)] != x:
            return False, "not idempotent at %d (breaks singleton {%d})" % (x, x)
    for name, rel in sorted(structure["relations"].items()):
        tuples = [tuple(t) for t in rel["tuples"]]
        allowed = set(tuples)
        for rows in product(tuples, repeat=arity):
            image = tuple(values[_rank(col, size)] for col in zip(*rows))
            if image not in allowed:
                return False, "does not preserve %s at rows %r" % (name, rows)
    bset = set(b)
    bs = sorted(bset)
    for i in range(arity):
        pools = [bs] * i + [range(size)] + [bs] * (arity - 1 - i)
        for args in product(*pools):
            if values[_rank(args, size)] not in bset:
                return False, "does not absorb B at position %d: %r" % (i + 1, args)
    return True, None
