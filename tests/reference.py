"""Slow reference routes, kept as oracles for the package's fast ones.

`reference_gac` is arc consistency from the source's scopes alone, with no
memo and no neighbour lists: every revision of a scope position scans all
allowed tuples of its target relation.  `engine._gac` must return the same
flag and, when nothing is wiped out, leave the same masks.

`reference_power_structure` is the power builder that ranks every tuple of
every position with `tuple_rank`.  Every oracle below that needs a power
solves `fixpoint(reference_power_structure(a, k), a)`, which keeps every
scope, so the oracles share no power code with `engine.power_fixpoint`,
which reads its network off A's rows and keeps one n-ary scope per orbit.

`reference_is_polymorphism` applies the table to every tuple of rows, one
`OperationTable.apply` at a time; `model.is_polymorphism` must return the
same verdict and the same first violation.

`reference_search` is the MRV + lexicographic search over the whole
instance at once, propagating with `reference_gac` and picking the vertex
by the MRV rule's definition.  `reference_solve`, `reference_cover` and
`reference_project` answer `Fixpoint.solve`, `.cover` and `.project` by
running it on every question, whatever the target; the package reads the
answers off the fixpoint on min- and max-closed targets, and searches one
connected component of the source at a time otherwise.

`subpower_membership` decides one tuple of a generated subpower with one
CSP over a power of A (`is_member` restricts a given fixpoint of that
power); `generate_subpower` must give the tuples it accepts.

`jonsson_digraph` is the definition of a quintuple's B-colored digraph: the
edges (u,v) with some (b,u,v), b in B, in the subpower
<(b1,a,a),(b2,c,c),(d,a,c)> of A^3, read off the fixpoint of power(A,3).

`reference_decide` is the per-quintuple decision route.  For every
quintuple it generates that subpower (`jonsson_digraph`), walks the
B-colored digraph, takes the least color of each walk edge, and recovers
that step's table by solving power(A,3) -> A with the three generator
columns restricted to the step's values.  One fixpoint of power(A,3) serves
every quintuple and every step: a restricted fixpoint equals one computed
from scratch.  The package's `decide_jonsson` answers from per-(a,c,u,v)
coverage tables instead and must return the same `Decision`, every table
included.

`reference_verdict` is `decide_jonsson`'s verdict with no engine code at
all: power(A,3) -> A is solved by `reference_gac` and `reference_search`
alone, one search per edge of a quintuple's digraph.  It checks a failing
verdict, which no certificate backs, against a route that shares nothing
with the engine.

`reference_orbit_scopes` is the scopes that `engine._orbit_scopes` keeps of
an n-ary R^k, by their definition: it enumerates the group that R's
position symmetries generate and tests every k-tuple of rows against the
stabilisers of its prefixes, with no stabiliser chain and no memo.

`reference_essential_witness` walks the candidate generator lists of
`essential_witness_search` in the same lexicographic order
(`essential_candidates`) and keeps the first whose generated subpower has
no tuple in B^n, with that subpower; the package decides each candidate
with one restricted fixpoint instead, and returns the generators alone.

`reference_avoids` is that one restricted CSP, with no engine code:
power(A,n) -> A with every generator column restricted to B, from
`reference_power_structure`, `reference_gac` and `reference_search` alone.

`reference_certificate_text` is a certificate's canonical text the way the
package once made it: one nested object per step, with its own copy of the
table's values, put through `json.dumps` with sorted keys.
`codec.dump_certificate`, which encodes each distinct table once and
formats the rest in place, must give the same text, byte for byte.
"""

import json
from collections import deque
from itertools import product

from absorb import (
    DEFAULT_VERTEX_CAP,
    Certificate,
    CertEntry,
    CertStep,
    Decision,
    Digraph,
    OperationTable,
    Quintuple,
    Relation,
    RelationalStructure,
    digraph_reach,
    fixpoint,
    generate_subpower,
    projection_table,
    tuple_rank,
    with_singletons,
)
from absorb.decide import _quintuples, _validate_inputs
from absorb.engine import _symmetries


def reference_gac(source, target, masks, vertices=None):
    """Arc consistency of the instance from source to target, in place on
    masks; False on a domain wipeout.

    Every scope of every source relation is one constraint, and each
    revision scans all allowed tuples of its target relation for each
    position.  The queue starts with every constraint, or with those on
    the listed vertices.
    """
    cons = [
        (scope, allowed)
        for name, rel in source.relations
        for allowed in [target.rel(name).sorted_tuples()]
        for scope in rel.sorted_tuples()
    ]
    var_cons = [[] for _ in range(source.size)]
    for ci, (scope, _) in enumerate(cons):
        for v in set(scope):
            var_cons[v].append(ci)
    if vertices is None:
        queue = deque(range(len(cons)))
    else:
        queue = deque(dict.fromkeys(ci for v in vertices for ci in var_cons[v]))
    in_queue = [False] * len(cons)
    for ci in queue:
        in_queue[ci] = True
    while queue:
        ci = queue.popleft()
        in_queue[ci] = False
        scope, allowed = cons[ci]
        k = len(scope)
        for i in range(k):
            supported = 0
            for t in allowed:
                if all((masks[scope[j]] >> t[j]) & 1 for j in range(k)):
                    supported |= 1 << t[i]
            v = scope[i]
            m = masks[v] & supported
            if m != masks[v]:
                if m == 0:
                    return False
                masks[v] = m
                for cj in var_cons[v]:
                    if not in_queue[cj]:
                        queue.append(cj)
                        in_queue[cj] = True
    return True


def reference_power_structure(a, k):
    """The k-th power of a, every vertex of every tuple ranked on its own."""
    rels = []
    for name, rel in a.relations:
        tuples = set()
        for rows in product(rel.sorted_tuples(), repeat=k):
            tuples.add(
                tuple(tuple_rank([row[j] for row in rows], a.size) for j in range(rel.arity))
            )
        rels.append((name, Relation(rel.arity, frozenset(tuples))))
    return RelationalStructure(a.size ** k, tuple(rels))


def reference_is_polymorphism(a, f):
    """model.is_polymorphism, one `apply` per tuple of rows and position."""
    for name, rel in a.relations:
        rows_sorted = rel.sorted_tuples()
        for rows in product(rows_sorted, repeat=f.arity):
            image = tuple(f.apply([row[j] for row in rows]) for j in range(rel.arity))
            if image not in rel.tuples:
                return False, (name, rows)
    return True, None


def _mrv(masks):
    """The open vertex of least (candidate count, index), or -1."""
    open_vertices = [(m.bit_count(), v) for v, m in enumerate(masks) if m & (m - 1)]
    return min(open_vertices, default=(0, -1))[1]


def _bits(mask):
    return [e for e in range(mask.bit_length()) if (mask >> e) & 1]


def reference_search(source, target, masks):
    """First solution under MRV + lexicographic value order, or None, from
    the arc-consistent masks, over the whole instance at once.

    Depth-first with an explicit stack of (masks, vertex, remaining values)
    frames; each value is propagated by `reference_gac` from its vertex.
    """
    stack = []
    while True:
        best = _mrv(masks)
        if best < 0:
            return list(masks)
        stack.append((masks, best, iter(_bits(masks[best]))))
        masks = None
        while masks is None:
            if not stack:
                return None
            parent, v, values = stack[-1]
            for val in values:
                child = list(parent)
                child[v] = 1 << val
                if reference_gac(source, target, child, (v,)):
                    masks = child
                    break
            else:
                stack.pop()


def _searched(fp, narrow=()):
    """reference_search's first solution on fp's masks, each (vertex, mask)
    pair of narrow and-ed in and propagated first by `reference_gac`, as a
    list of one-bit masks; None when there is none."""
    masks = list(fp.masks)
    for v, m in narrow:
        masks[v] &= m
    if 0 in masks or not reference_gac(fp.source, fp.target, masks):
        return None
    return reference_search(fp.source, fp.target, masks)


def reference_solve(fp):
    """Fixpoint.solve by the search."""
    if fp.masks is None:
        return None
    solution = _searched(fp)
    return None if solution is None else tuple(m.bit_length() - 1 for m in solution)


def reference_cover(fp, pending, mask):
    """Fixpoint.cover by one search per pending vertex."""
    if fp.masks is None:
        return frozenset()
    return frozenset(v for v in set(pending) if _searched(fp, ((v, mask),)) is not None)


def reference_project(fp, vertices):
    """Fixpoint.project by one search per tuple of values at vertices."""
    if fp.masks is None:
        return frozenset()
    vertices = list(vertices)
    return frozenset(
        values
        for values in product(range(fp.target.size), repeat=len(vertices))
        if _searched(fp, [(v, 1 << e) for v, e in zip(vertices, values)]) is not None
    )


def generator_columns(s, size):
    """The vertex ranks of the generator columns of s in power(A, |s|)."""
    return [tuple_rank([g[j] for g in s], size) for j in range(len(s[0]))]


def is_member(base, s, t):
    """True iff t lies in the subpower of A^n generated by the tuples in s,
    base being the fixpoint of power(A, |s|) -> A: some homomorphism maps
    the generator columns to t.  Two equal columns with different values
    in t meet in an empty mask."""
    pairs = zip(generator_columns(s, base.target.size), (1 << e for e in t))
    return base.restrict(pairs).solve() is not None


def subpower_membership(a, s, t):
    """`is_member` on a fixpoint of power(A, |s|) built for this tuple."""
    return is_member(fixpoint(reference_power_structure(a, len(s)), a), s, t)


def jonsson_digraph(base, b, q):
    """The B-colored edge digraph of R = <(b1,a,a),(b2,c,c),(d,a,c)> <= A^3,
    and R, base being the fixpoint of power(A,3) -> A: R holds the values
    that its solutions take at the generator columns."""
    size = base.target.size
    r = Relation(3, base.project(generator_columns(q.generators(), size)))
    edges = frozenset((u, v) for (col, u, v) in r.tuples if col in b)
    return Digraph(size, edges), r


def _recover_table(base, q, target):
    """A ternary polymorphism mapping the quintuple's generators to `target`,
    base being the fixpoint of power(A,3) -> A."""
    pairs = zip(generator_columns(q.generators(), base.target.size), (1 << e for e in target))
    values = base.restrict(pairs).solve()
    assert values is not None, "generated tuple has no generating polymorphism"
    return OperationTable(3, base.target.size, values)


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
        return Decision(True, certificate=Certificate(tuple(entries)))
    base = fixpoint(reference_power_structure(expanded, 3), expanded)
    for q in _quintuples(size, b):
        if q.a == q.c:
            entries.append(CertEntry(q, ()))
            continue
        graph, r = jonsson_digraph(base, b, q)
        walk = digraph_reach(graph, {q.a}, {q.c})
        if walk is None:
            return Decision(False, failing=q)
        steps = []
        for u, v in zip(walk, walk[1:]):
            color = min(col for (col, x, y) in r.tuples if x == u and y == v and col in b)
            steps.append(CertStep(color, u, v, _recover_table(base, q, (color, u, v))))
        entries.append(CertEntry(q, tuple(steps)))
    return Decision(True, certificate=Certificate(tuple(entries)))


def reference_verdict(a, b):
    """decide_jonsson's (holds, least failing quintuple or None), B being a
    subuniverse, from `reference_power_structure`, `reference_gac` and
    `reference_search` alone.

    (u,v) is an edge of quintuple (a,c,d,b1,b2) when some b in B lets the
    generator columns (b1,b2,d), (a,c,a), (a,c,c) of power(A,3) take
    (b,u,v) in a solution: the first column is restricted to B, the others
    to u and v, and the masks are searched.  A solution found for one
    quintuple of the pair (a,c) is tried first for the others, since it
    witnesses their edges too.  The walk from a tests the edges out of
    each vertex it reaches, breadth first, until it reaches c.
    """
    expanded = with_singletons(a)
    size = a.size
    power = reference_power_structure(expanded, 3)
    base = [(1 << size) - 1] * power.size
    reference_gac(power, expanded, base)
    in_b = sum(1 << e for e in b)
    found = {}

    def edge(cols, u, v):
        targets = (in_b, 1 << u, 1 << v)
        solutions = found.setdefault(cols[1:], [])
        if any(all(s[col] & m for col, m in zip(cols, targets)) for s in solutions):
            return True
        masks = list(base)
        for col, m in zip(cols, targets):
            masks[col] &= m
        if 0 in masks or not reference_gac(power, expanded, masks, cols):
            return False
        solution = reference_search(power, expanded, masks)
        if solution is not None:
            solutions.append(solution)
        return solution is not None

    for x, y, d in product(range(size), repeat=3):
        for b1, b2 in product(b.sorted_elements(), repeat=2):
            cols = tuple(tuple_rank(col, size) for col in ((b1, b2, d), (x, y, x), (x, y, y)))
            reached, queue = {x}, deque([x])
            while queue and y not in reached:
                u = queue.popleft()
                for v in range(size):
                    if v not in reached and edge(cols, u, v):
                        reached.add(v)
                        queue.append(v)
            if y not in reached:
                return False, Quintuple(x, y, d, b1, b2)
    return True, None


def essential_candidates(a, b, n):
    """The candidate generator lists of `essential_witness_search`, in its
    lexicographic order: the i-th generator ranges over
    B^(i-1) x (A\\B) x B^(n-i)."""
    inside = b.sorted_elements()
    outside = [e for e in range(a.size) if e not in b]
    choices = [
        list(product(*([inside] * i + [outside] + [inside] * (n - 1 - i))))
        for i in range(n)
    ]
    return product(*choices)


def reference_avoids(a, b, gens):
    """Whether the subpower of A^n generated by gens avoids B^n: the
    instance power(A,|gens|) -> A with every generator column restricted
    to B has no solution."""
    power = reference_power_structure(a, len(gens))
    masks = [(1 << a.size) - 1] * power.size
    in_b = sum(1 << e for e in b)
    for col in generator_columns(gens, a.size):
        masks[col] &= in_b
    if not reference_gac(power, a, masks):
        return True
    return reference_search(power, a, masks) is None


def reference_essential_witness(a, b, n, cap=DEFAULT_VERTEX_CAP):
    """essential_witness_search by generating the subpower of every
    candidate of `essential_candidates`.  Returns (generators, the subpower
    they generate) for the first that avoids B^n, or None."""
    for gens in essential_candidates(a, b, n):
        r = generate_subpower(a, gens, n, cap)
        if not any(all(e in b for e in t) for t in r.tuples):
            return gens, r
    return None


def reference_orbit_scopes(rel, k, size):
    """The scopes of power(R, k) that `engine._orbit_scopes` keeps, R being
    rel, of arity at most 4, over a domain of size elements.

    G is enumerated as the closure of the position permutations that
    `_symmetries(rel)` finds, at most 4! of them.  A k-tuple of R's rows
    (x_1, ..., x_k) is kept when each x_j is the least of its orbit under
    the elements of G that fix x_1, ..., x_(j-1); its scope holds at
    position i the rank of (x_1[i], ..., x_k[i]).  Tuples come in product
    order of the sorted rows.
    """
    arity = rel.arity
    assert arity <= 4
    identity = tuple(range(arity))
    gens = [g(identity) for g in _symmetries(rel)]
    group = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for q in gens:
            r = tuple(p[q[i]] for i in range(arity))
            if r not in group:
                group.add(r)
                frontier.append(r)
    kept = []
    for xs in product(rel.sorted_tuples(), repeat=k):
        fixing = group
        for x in xs:
            images = [tuple(x[p[i]] for i in range(arity)) for p in fixing]
            if min(images) < x:
                break
            fixing = [p for p, image in zip(fixing, images) if image == x]
        else:
            kept.append(tuple(tuple_rank([x[i] for x in xs], size) for i in range(arity)))
    return kept


def reference_certificate_text(cert):
    """The canonical text of a certificate, through its nested JSON object."""
    obj = {
        "quintuples": [
            {
                "q": e.q.as_list(),
                "steps": [
                    {"b": s.b, "u": s.u, "v": s.v,
                     "phi": {"arity": s.phi.arity, "values": list(s.phi.values)}}
                    for s in e.steps
                ],
            }
            for e in cert.entries
        ]
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
