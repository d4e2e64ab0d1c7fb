"""Decision procedures: the local Jónsson absorption test, NP certificates,
chain/term checkers and converters, the small-domain chain oracle, and the
arity-bound calculators.

The decider iterates all quintuples (a, c, d, b1, b2) in lexicographic order
and, for each, asks for a B-colored directed path from a to c in the digraph
read off the subpower generated by (b1,a,a), (b2,c,c), (d,a,c).  A verdict of
"absorbing" is the same verdict: for finitely related algebras the two
notions coincide, and no absorption term is ever synthesized (the arity bound
is astronomically large); the certificate of the path test is the proof
object.  So decide_jonsson is the one decision entry point for both.

The digraphs are not generated one quintuple at a time.  A ternary
polymorphism phi puts (b,u,v) in a quintuple's subpower when phi(b1,b2,d)=b,
phi(a,c,a)=u and phi(a,c,c)=v, and only the first column depends on
(d,b1,b2).  So the table of a pair a != c at (u,v) restricts (a,c,a) to u
and (a,c,c) to v in the GAC fixpoint of power(A,3), and covers the columns
(b1,b2,d) in B x B x A with B (engine.Fixpoint.restrict and .cover).  The
edges of a quintuple are then the (u,v) whose table covers its column.  A
walk step takes the least color in B for which the (u,v) fixpoint with
(b1,b2,d) also restricted has a solution, and that solution's table
(engine.Fixpoint.solve_at); a restricted fixpoint equals the one computed
from scratch (see engine.Fixpoint), so that table does not depend on the
order of the restrictions.  On a min-closed power the step is read off the
(u,v) fixpoint's minima whenever the minimum at (b1,b2,d) lies in B.
Steps with equal solutions share one table object, as the steps of a parsed
certificate do (codec.certificate_from_obj).

Tables are built lazily, within one decide.  A quintuple's walk is [a,c]
when table (a,c) covers its column: that is `digraph_reach`'s walk, since c
is its only vertex at distance 0 and a, at distance 1, is the only source.
Only otherwise are the covered sets of every (u,v) read, and the walk taken
by `digraph_reach` on those edges.  A table lives until the quintuple loop
moves to the next pair, so at most one pair's tables are alive; the covered
sets are kept for the whole decide.  A pair a < c covers its own tables.
The swap pi(x,y,z) = (y,x,z) is an automorphism of power(A,3), so pair
(c,a)'s covered set at (u,v) is read off pair (a,c)'s at (v,u)
(`_swapped`), one table at a time.  A walk step of (c,a) restricts its own
(u,v) fixpoint and takes the first solution from it as above: the MRV
search's first solution depends on vertex indices, so mapping (a,c)'s
solutions through pi would give other tables.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from itertools import product
from operator import itemgetter

from .errors import CapExceeded, InputError, NotSubuniverseError
from .engine import (
    DEFAULT_VERTEX_CAP,
    Fixpoint,
    check_power_vertices,
    closure_unary,
    power_fixpoint,
)
from .model import (
    Digraph,
    OperationTable,
    Record,
    RelationalStructure,
    Subset,
    digraph_reach,
    is_polymorphism,
    product_ranks,
    projection_table,
    tuple_rank,
    with_singletons,
)

# annotations stay strings, so typing is read by type checkers only
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional


class Quintuple(Record):
    a: int
    c: int
    d: int
    b1: int
    b2: int

    def as_list(self):
        return [self.a, self.c, self.d, self.b1, self.b2]

    def generators(self):
        return ((self.b1, self.a, self.a), (self.b2, self.c, self.c), (self.d, self.a, self.c))


class CertStep(Record):
    """One path edge (u, v) with its B-color b and the generating table phi:
    phi applied coordinatewise to the quintuple's generators yields (b,u,v)."""

    b: int
    u: int
    v: int
    phi: OperationTable


class CertEntry(Record):
    q: Quintuple
    steps: tuple


class Certificate(Record):
    entries: tuple


class Decision(Record):
    holds: bool
    failing: Optional[Quintuple] = None
    certificate: Optional[Certificate] = None


class ChainWitness(Record):
    tables: tuple  # ternary OperationTables d_0 .. d_n


class BoundReport(Record):
    theta: int
    size: int
    kappa: int
    lower_bound: Optional[int]


def _quintuples(size: int, b: Subset):
    bs = b.sorted_elements()
    for a, c, d in product(range(size), repeat=3):
        for b1, b2 in product(bs, repeat=2):
            yield Quintuple(a, c, d, b1, b2)


def _validate_inputs(a: RelationalStructure, b: Subset, cap: int):
    """a with its singletons, once b's bounds, the cube's vertices, the
    singleton names and b's closure are checked, in that order.  B = A is
    a subuniverse of every structure, so its closure, which would build
    power(A,|A|), is not computed."""
    b.check_bounds(a.size)
    check_power_vertices(a.size, 3, cap)
    expanded = with_singletons(a)
    if len(b) < a.size and closure_unary(expanded, b, cap) != b:
        raise NotSubuniverseError(
            "B=%r is not a subuniverse of the polymorphism algebra" % (b.sorted_elements(),)
        )
    return expanded


def _pair_table(base: Fixpoint, x: int, y: int, u: int, v: int) -> Fixpoint:
    """base, the fixpoint of power(A,3), with the columns (x,y,x) restricted
    to u and (x,y,y) to v: the table of pair a=x, c=y at (u, v)."""
    size = base.target.size
    return base.restrict(
        ((tuple_rank((x, y, x), size), 1 << u), (tuple_rank((x, y, y), size), 1 << v))
    )


def _swapped(cols: frozenset, size: int) -> frozenset:
    """The columns that pair (c, a)'s table at (u, v) covers, from those
    that pair (a, c)'s table at (v, u) covers.

    pi(x,y,z) = (y,x,z) is an automorphism of power(A,3): it permutes the
    scopes of every relation and fixes the singleton scopes (e,e,e), so
    h -> h.pi is a bijection on solutions.  pi swaps (a,c,a) with (c,a,a)
    and (a,c,c) with (c,a,c), so (c,a)'s set at (u,v) holds column
    (b1,b2,d) exactly when (a,c)'s set at (v,u) holds (b2,b1,d).
    """
    square = size * size
    return frozenset(
        col // size % size * square + col // square * size + col % size for col in cols
    )


def _cert_step(table: Fixpoint, col: int, u: int, v: int, bmask: int, phis: dict) -> CertStep:
    """The step (b, u, v, phi): phi is table's first solution with col
    restricted to b (`Fixpoint.solve_at`), as an operation table, and b,
    its value at col, the least color in the mask bmask of B with (b,u,v)
    generated.  phis maps the values of each table made so far to it, so
    steps with equal solutions share one table (min3: 6 in 72 steps)."""
    values = table.solve_at(col, bmask)
    if values is None:
        raise AssertionError("covered edge has no generating polymorphism")
    phi = phis.get(values)
    if phi is None:
        phi = phis[values] = OperationTable(3, table.target.size, values)
    return CertStep(values[col], u, v, phi)


def decide_jonsson(
    a: RelationalStructure, b: Subset, cap: int = DEFAULT_VERTEX_CAP, certificate: bool = True
) -> Decision:
    """Decide B Jónsson-absorbs Pol(A); on failure report the least failing
    quintuple, on success assemble the NP certificate (unless certificate is
    False, in which case Decision.certificate is None).

    A structure whose cube has more vertices than cap is refused first,
    before any work that grows with its size.
    """
    expanded = _validate_inputs(a, b, cap)
    size = a.size
    entries = []
    if len(b) == size:
        # B = A: every quintuple passes via the third-projection witness.
        if not certificate:
            return Decision(True)
        proj3 = projection_table(size, 3, 2)
        for q in _quintuples(size, b):
            steps = () if q.a == q.c else (CertStep(q.d, q.a, q.c, proj3),)
            entries.append(CertEntry(q, steps))
        return Decision(True, certificate=Certificate(tuple(entries)))
    base = power_fixpoint(expanded, 3, cap)
    bmask = sum(1 << e for e in b.elements)
    bs = b.sorted_elements()
    pending = product_ranks((bs, bs, range(size)), size)
    # keyed by (x, y, u, v): the current pair's tables, and every covered set
    tables, covers, pair = {}, {}, None
    # the certificate's tables, keyed by their values (`_cert_step`)
    phis = {}

    def table(*key):
        if key not in tables:
            tables[key] = _pair_table(base, *key)
        return tables[key]

    def covered(x, y, u, v):
        key = (x, y, u, v)
        if key not in covers:
            if y < x:
                covers[key] = _swapped(covered(y, x, v, u), size)
            else:
                # while pair (y,x) is current, (x,y)'s table is built, covered and dropped
                made = table(*key) if (x, y) == pair else _pair_table(base, *key)
                covers[key] = made.cover(pending, bmask)
        return covers[key]

    for q in _quintuples(size, b):
        if q.a == q.c:
            entries.append(CertEntry(q, ()))
            continue
        if pair != (q.a, q.c):
            pair = (q.a, q.c)
            tables.clear()
        col = tuple_rank((q.b1, q.b2, q.d), size)
        if col in covered(q.a, q.c, q.a, q.c):
            walk = [q.a, q.c]
        else:
            edges = [uv for uv in product(range(size), repeat=2) if col in covered(*pair, *uv)]
            walk = digraph_reach(Digraph(size, edges), {q.a}, {q.c})
            if walk is None:
                return Decision(False, failing=q)
        if certificate:
            hops = zip(walk, walk[1:])
            steps = (_cert_step(table(*pair, u, v), col, u, v, bmask, phis) for u, v in hops)
            entries.append(CertEntry(q, tuple(steps)))
    return Decision(True, certificate=Certificate(tuple(entries)) if certificate else None)


def is_absorption_term(a: RelationalStructure, b: Subset, t: OperationTable):
    """t is an idempotent polymorphism with t(B,..,B,A,B,..,B) <= B at every position."""
    b.check_bounds(a.size)
    expanded = with_singletons(a)
    if not t.is_idempotent():
        return False
    ok, _ = is_polymorphism(expanded, t)
    if not ok:
        return False
    bs = b.sorted_elements()
    n = t.arity
    for i in range(n):
        pools = [bs] * i + [list(range(a.size))] + [bs] * (n - 1 - i)
        for args in product(*pools):
            if t.apply(args) not in b:
                return False
    return True


def is_jonsson_chain(a: RelationalStructure, b: Subset, chain: ChainWitness):
    """Check the chain axioms; returns (ok, first_violation_or_None)."""
    b.check_bounds(a.size)
    tables = chain.tables
    size = a.size
    if not tables:
        return False, "empty chain"
    for i, t in enumerate(tables):
        if t.arity != 3 or t.size != size:
            return False, "table %d is not ternary over the domain" % i
    pairs = list(product(range(size), repeat=2))
    triples = list(product(range(size), repeat=3))
    d0, dn = tables[0], tables[-1]
    for x, y, z in triples:
        if d0.apply((x, y, z)) != x:
            return False, "d_0 is not the first projection at (%d,%d,%d)" % (x, y, z)
        if dn.apply((x, y, z)) != z:
            return False, "d_n is not the third projection at (%d,%d,%d)" % (x, y, z)
    for i in range(len(tables) - 1):
        for x, y in pairs:
            if tables[i].apply((x, y, y)) != tables[i + 1].apply((x, x, y)):
                return False, "link d_%d(x,y,y) != d_%d(x,x,y) at x=%d y=%d" % (i, i + 1, x, y)
    expanded = with_singletons(a)
    for i, t in enumerate(tables):
        ok, _ = is_polymorphism(expanded, t)
        if not ok:
            return False, "d_%d is not a polymorphism" % i
        for x, z in product(b.sorted_elements(), repeat=2):
            for y in range(size):
                if t.apply((x, y, z)) not in b:
                    return False, "d_%d(B,A,B) leaves B at (%d,%d,%d)" % (i, x, y, z)
    return True, None


def chain_from_absorption_term(t: OperationTable) -> ChainWitness:
    """The standard n+2 term chain derived from an n-ary absorption term:
    first projection, then (x,y,z) -> t(z,..,z,y,x,..,x) with i-1 leading z's,
    then third projection."""
    if t.arity < 1:
        raise InputError("term arity must be positive")
    size, n = t.size, t.arity
    tables = [projection_table(size, 3, 0)]
    for i in range(1, n + 1):
        values = []
        for x, y, z in product(range(size), repeat=3):
            values.append(t.apply((z,) * (i - 1) + (y,) + (x,) * (n - i)))
        tables.append(OperationTable(3, size, tuple(values)))
    tables.append(projection_table(size, 3, 2))
    return ChainWitness(tuple(tables))


# The largest domain oracle_chain_search enumerates: 2^8 ternary tables on
# two elements, 3^27 on three.
_ORACLE_MAX_SIZE = 2


def _all_tables(size: int, arity: int):
    count = size ** arity
    for values in product(range(size), repeat=count):
        yield OperationTable(arity, size, values)


def oracle_chain_search(a: RelationalStructure, b: Subset) -> Optional[ChainWitness]:
    """Complete chain search by exhaustive ternary table enumeration.

    Only feasible for tiny domains (all size^(size^3) ternary tables are
    enumerated), hence the hard size limit.  B is checked first, as every
    other query checks it.
    """
    b.check_bounds(a.size)
    if a.size > _ORACLE_MAX_SIZE:
        raise CapExceeded(
            "oracle chain search enumerates %d^%d tables; domain too large"
            % (a.size, a.size ** 3)
        )
    expanded = with_singletons(a)
    size = a.size
    candidates = []
    for t in _all_tables(size, 3):
        if not t.is_idempotent():
            continue
        if not all(
            t.apply((x, y, z)) in b
            for x in b
            for z in b
            for y in range(size)
        ):
            continue
        ok, _ = is_polymorphism(expanded, t)
        if ok:
            candidates.append(t)
    proj1 = projection_table(size, 3, 0)
    proj3 = projection_table(size, 3, 2)
    index = {t.values: i for i, t in enumerate(candidates)}
    if proj1.values not in index or proj3.values not in index:
        return None
    pairs = list(product(range(size), repeat=2))
    start, goal = index[proj1.values], index[proj3.values]
    prev = {start: None}
    queue = deque([start])
    while queue:
        i = queue.popleft()
        if i == goal:
            chain = []
            while i is not None:
                chain.append(candidates[i])
                i = prev[i]
            return ChainWitness(tuple(reversed(chain)))
        ti = candidates[i]
        for j, tj in enumerate(candidates):
            if j in prev:
                continue
            if all(ti.apply((x, y, y)) == tj.apply((x, x, y)) for x, y in pairs):
                prev[j] = i
                queue.append(j)
    return None


def verify_np_certificate(
    a: RelationalStructure, b: Subset, cert: Certificate, cap: int = DEFAULT_VERTEX_CAP
):
    """Polynomial-time certificate check; returns (ok, first_defect_or_None).

    Each ternary table has one entry per vertex of the cube A^3, and its
    polymorphism check visits at most |R|^3 tuples of every relation R, the
    constraint scopes of power(A, 3): `is_polymorphism` tests the tuples of
    each distinct key of prefix slices once, so a table whose slices repeat
    visits far fewer.  The cap bounds that worst case: when either count is
    over cap, the check is refused before any replay, as `power_fixpoint`
    refuses the fixpoint of that power before building anything; the
    vertices are counted first, before any work that grows with the domain.
    """
    b.check_bounds(a.size)
    size = a.size
    if size ** 3 > cap:
        raise CapExceeded(
            "verify would check %d vertices of the cube per table, cap is %d" % (size ** 3, cap)
        )
    expanded = with_singletons(a)
    scopes = sum(len(rel) ** 3 for _, rel in expanded.relations)
    if scopes > cap:
        raise CapExceeded(
            "verify would check %d constraint scopes per table, cap is %d" % (scopes, cap)
        )
    table = {}
    for entry in cert.entries:
        q = entry.q
        if q in table:
            return False, "duplicate quintuple %r" % (q.as_list(),)
        if not (
            0 <= q.a < size and 0 <= q.c < size and 0 <= q.d < size
            and q.b1 in b and q.b2 in b
        ):
            return False, "unexpected quintuple %r" % (q.as_list(),)
        table[q] = entry
    poly_cache = {}

    def _is_poly(phi):
        key = phi.values
        if key not in poly_cache:
            ok, _ = is_polymorphism(expanded, phi)
            poly_cache[key] = ok
        return poly_cache[key]

    for q in _quintuples(size, b):
        entry = table.get(q)
        if entry is None:
            return False, "missing quintuple %r" % (q.as_list(),)
        if len(entry.steps) > size:
            return False, "quintuple %r: more than %d steps" % (q.as_list(), size)
        # a step's image is its table's values at the ranks of the three
        # generator columns (b1,b2,d), (a,c,a) and (a,c,c)
        image = itemgetter(*(tuple_rank(col, size) for col in zip(*q.generators())))
        cur = q.a
        for k, step in enumerate(entry.steps):
            where = "quintuple %r step %d" % (q.as_list(), k)
            if step.phi.arity != 3 or step.phi.size != size:
                return False, "%s: phi is not ternary over the domain" % where
            if step.b not in b:
                return False, "%s: color %d not in B" % (where, step.b)
            if image(step.phi.values) != (step.b, step.u, step.v):
                return False, "%s: phi does not generate (b,u,v)" % where
            if not _is_poly(step.phi):
                return False, "%s: not a polymorphism" % where
            if step.u != cur:
                return False, "%s: path chaining broken" % where
            cur = step.v
        if cur != q.c:
            return False, "quintuple %r: path endpoint %d != %d" % (q.as_list(), cur, q.c)
    return True, None


# Python prints no int of more decimal digits than sys.get_int_max_str_digits();
# where that limit is absent or switched off (0), its default bounds the work.
_DEFAULT_DIGIT_LIMIT = 4300


def _unprintable(name: str, log_digits: float, limit: int) -> CapExceeded:
    about = "%.0f" % 10 ** log_digits if log_digits < 15 else "10^%.1f" % log_digits
    return CapExceeded(
        "%s would have about %s digits, more than the %d that can be printed"
        % (name, about, limit)
    )


def bounds(theta: int, size: int) -> BoundReport:
    """Exact big-integer arity bounds for the absorption-term arity.

    Raises CapExceeded when a bound has more decimal digits than Python can
    print; a bound estimated at over twice that many is refused before it is
    computed.
    """
    if theta < 2:
        raise InputError("theta must be at least 2")
    if size < 1:
        raise InputError("domain size must be at least 1")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or _DEFAULT_DIGIT_LIMIT
    # each bound is base ** (c ** k); kappa is then halved
    terms = [("kappa", 2 * theta - 2, 3, size)]
    if theta >= 3 and size >= 3:
        terms.append(("lower bound", theta - 1, 2, size - 2))
    elif theta == 2 and size >= 4:
        terms.append(("lower bound", 2, 2, size - 3))
    for name, base, c, k in terms:
        log_digits = k * math.log10(c) + math.log10(math.log10(base))
        if log_digits > math.log10(2 * limit):
            raise _unprintable(name, log_digits, limit)
    values = [base ** (c ** k) for _, base, c, k in terms]
    values[0] = values[0] // 2 + 1
    for (name, _, _, _), value in zip(terms, values):
        if value >= 10 ** limit:
            raise _unprintable(name, math.log10(math.log10(value)), limit)
    return BoundReport(theta, size, values[0], values[1] if len(values) > 1 else None)
