"""The per-quintuple decision route, kept as a slow reference oracle.

For every quintuple it generates the subpower <(b1,a,a),(b2,c,c),(d,a,c)>
of A^3 with one membership CSP per tuple (`jonsson_digraph`), walks the
B-colored digraph, takes the least color of each walk edge, and recovers
that step's table with one pinned `find_hom` over power(A,3).  The package's
`decide_jonsson` answers from per-(a,c,u,v) coverage tables instead and must
return the same `Decision`, every table included.
"""

from absorb import (
    DEFAULT_VERTEX_CAP,
    Certificate,
    CertEntry,
    CertStep,
    Decision,
    HomInstance,
    OperationTable,
    digraph_reach,
    find_hom,
    jonsson_digraph,
    power_structure,
    projection_table,
    tuple_rank,
)
from absorb.decide import _quintuples, _validate_inputs


def _recover_table(a, q, target, cap):
    """A ternary polymorphism mapping the quintuple's generators to `target`."""
    power = power_structure(a, 3, cap)
    gens = q.generators()
    pins = {}
    for j in range(3):
        pins[tuple_rank([g[j] for g in gens], a.size)] = target[j]
    values = find_hom(HomInstance(power, a, pins=tuple(sorted(pins.items()))))
    assert values is not None, "generated tuple has no generating polymorphism"
    return OperationTable(3, a.size, values)


def reference_decide(a, b, cap=DEFAULT_VERTEX_CAP):
    """decide_jonsson by generating one subpower per quintuple."""
    expanded = _validate_inputs(a, b, cap)
    size = a.size
    entries = []
    if len(b) == size:
        proj3 = projection_table(size, 3, 2)
        for q in _quintuples(size, b):
            steps = () if q.a == q.c else (CertStep(q.d, q.a, q.c, proj3),)
            entries.append(CertEntry(q, steps))
        return Decision(True, "jonsson", certificate=Certificate(tuple(entries)))
    for q in _quintuples(size, b):
        if q.a == q.c:
            entries.append(CertEntry(q, ()))
            continue
        graph, r = jonsson_digraph(expanded, b, q, cap)
        walk = digraph_reach(graph, {q.a}, {q.c})
        if walk is None:
            return Decision(False, "jonsson", failing=q)
        steps = []
        for u, v in zip(walk, walk[1:]):
            color = min(col for (col, x, y) in r.tuples if x == u and y == v and col in b)
            steps.append(CertStep(color, u, v, _recover_table(expanded, q, (color, u, v), cap)))
        entries.append(CertEntry(q, tuple(steps)))
    return Decision(True, "jonsson", certificate=Certificate(tuple(entries)))
