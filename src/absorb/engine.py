"""Homomorphism-extension CSP solver and the subpower layer built on it.

Membership in a generated subpower <S> is realized as a homomorphism
extension problem: t is in <S> iff some homomorphism from the |S|-th power
of the structure to the structure maps the generator columns to t.  The
solver is generalized arc consistency plus backtracking with
minimum-remaining-values variable order and lexicographic value order, so
every "first witness" output is reproducible.

Every query starts from one value, a `Fixpoint`: the greatest
arc-consistent domains of a homomorphism instance, or a wipeout.
`fixpoint` and `power_fixpoint` propagate from the network's start masks
(full domains and-ed with the unary constraints); `restrict` narrows
chosen vertices to value masks and resumes propagation; `solve` returns
the first solution, and `solve_at` the first one that gives a vertex the
least value of a mask that any solution gives it (the decider's
certificate steps); `project` returns the distinct value tuples that
solutions take at chosen vertices (generated subpowers and the relations
of pp-formulas); `cover` returns the vertices that some solution sends
into a value set (the decider's coverage tables).  Every narrowing goes
through one primitive, `_narrow`: it ands value masks into a list of
masks in place and resumes `_gac` from the vertices that narrowed,
recording each old mask on an undo trail when given one.  A `Fixpoint`
holds an immutable tuple, so `restrict` narrows one copy of it, and
`cover` runs every trial on one working list, each undone from the trail.
The search and `project` share one depth-first loop, `_walk`: it branches
in place on one list, undoes each branch from the trail and yields at
each leaf.  The search (`_search_part`) stops at the first leaf of its
MRV walk, and `project` visits every leaf of the walk over its listed
vertices, on one copy of the masks per call.

Binary constraints, nearly all the constraints of a power of a graph or
order, propagate along vertices.  Each binary target relation gives, per
direction, one row mask per value: the values the other position allows
beside it.  Each source vertex lists, per relation and direction, the
vertices it shares a scope with.  When a vertex narrows, the union of the
rows of its mask (the support it leaves its neighbours) is looked up once
in that relation and direction's memo and and-ed into each neighbour, one
test per neighbour.  In a power structure thousands of scopes share one
target relation and meet the same few masks, so a lookup rarely misses.

Constraints of arity 3 or more keep a queue of their own.  A source given
by its tuples (`fixpoint`) keeps every scope.  A power keeps one scope per
orbit of its target relation's position symmetries: every scope of R^n
comes with its image under each permutation g of positions that maps R
onto itself, and the two are one constraint: the assignments they allow
are the same, and revising g(s) gives its position i the support that
revising s gives the position g moves to i, which holds the same vertex.
So keeping one scope per orbit changes no fixpoint, and no answer read
from one.  The symmetries looked for are the transpositions and the
products of two disjoint transpositions that map R onto itself
(`_symmetries`); a symmetry outside the group that they generate is only
left unused.  power(aff3w, 3), of x - y + z - w = 0 mod 3, keeps 2,835 of
its 19,683 scopes, and power(min5, 3) 7,875 of 15,625.

Every query of the package solves power(A, k) -> A, and `power_fixpoint`
builds that network from A's rows without building the power; its
fixpoint's source is `Power(A, k)`, which names the power.  A unary R
holds the ranks of the k-tuples over R's elements.  In a binary R^k, a
vertex's neighbours in each direction are the product of its
coordinates' neighbours in R, ranked by place value
(`_power_neighbours`), unless R is a preorder (below).  A scope of an
n-ary R^k is a k-tuple of R's rows, and a symmetry of R acts on all k
rows at once, so the orbits of the scopes are those of the group G that
the symmetries generate, acting on k-tuples of rows.  A stabiliser
chain over R's sorted rows keeps one tuple of each, by Schreier's lemma
and without enumerating G (`_orbit_scopes`).  The chain's nodes are
prefixes of rows, but a prefix's stabiliser depends only on a partition
of R's positions: an element acts through a permutation p of the
positions, and it fixes rows x_1..x_j exactly when p maps each class of
positions at which the prefix's columns are equal into itself, since it
fixes x_l exactly when x_l[p[i]] = x_l[i] at every position i.  So each
partition's stabiliser, its orbits on the rows and their least rows are
computed once, however many prefixes share it: power(aff3w, 3) has 27
rows of arity 4, and at most Bell(4) = 15 partitions.  Each generating
set is cut to at most n(n-1)/2 elements on n rows by Sims's filter
(Seress, Permutation Group Algorithms, CUP 2003), which generates the
same group and so leaves every orbit, and every kept scope, as it was.

When a binary R is a preorder, reflexive on all of A and transitive, its
R^k keeps only the arcs that change one coordinate, and no loop
(`_step_neighbours`): leq8^3 keeps 5,376 arcs per direction of 46,656,
and leq5^4 5,000 of 50,625.  Arcs implied by paths of other arcs add
nothing to arc consistency (Mackworth, "Consistency in networks of
relations", AI 8, 1977), and the two networks have the same greatest
fixpoint below any masks:

- A kept arc is an arc of R^k, so masks arc consistent on every arc are
  arc consistent on the kept ones.
- Conversely, let (v, w) be an arc of R^k and change v's coordinates to
  w's one at a time.  Each step changes v_j to w_j, beside it in R, and
  leaves the other coordinates, each beside itself by reflexivity: it is
  a kept arc.  On masks arc consistent on the kept arcs, a value x of v's
  mask has a support x_1 at the first step's end, x_1 has one at the
  next, and so on; by transitivity the last, in w's mask, is beside x in
  R.  The path read backwards supports each value of w's mask the same
  way, and a loop (v, v) holds for any value, R being reflexive.  So the
  masks are arc consistent on every arc of R^k.

So the fixpoints, the solutions and every answer are the same.  So are
the connected components, each arc being joined by a path of kept ones,
with one exception: a vertex whose only arc was its loop is free, and
takes its lowest value, as its part of one vertex did, the loop holding
for every value.

A revision of an n-ary constraint is a pure function of its target
relation's allowed tuples and the domain masks of its scope, so every
target relation carries one memo, shared by all constraints on it, from
the tuple of scope masks to the revision's result (the supported mask of
each position, or a wipeout).  Only a miss scans the allowed tuples.
Every memo holds at most `_REVISION_MEMO_SIZE` entries (`_remember`
clears it when full) and lives on the instance's network, which
`fixpoint` (or `power_fixpoint`) builds and `restrict` passes on: it is
freed with the last fixpoint of the query that built it.

When every relation of the target that the source uses is closed under
coordinatewise min (or max), arc consistency decides the instance (Jeavons & Cooper, "Tractable
constraints on ordered domains", AI 79, 1995): the domain minima (maxima)
of any fixpoint are a solution.  The network records once per instance
which of the two holds, and `solve`, `solve_at`, `cover` and `project`
then read their answers off the fixpoint instead of searching.
The minima are the search's first solution, so every output is the same
as the search's; see `_closed_pick`, `Fixpoint.solve` and `Fixpoint.cover`.

Otherwise the search runs one connected component of the source at a
time: vertices that share a scope of arity 2 or more are in one part, and
propagation never leaves a part.  The parts are found on the first search
that must branch (`_components`).  Each part is searched with the same
rule as the whole instance, and a vertex in no part takes its lowest
value; the answer is the whole-instance search's first solution (see
`_search`).  Each part's first solution is memoised on the network by the
part's masks, bounded like the revision memos, so a `cover` trial or a
solve after a `restrict` searches only the parts that the restriction
touched and reads the others back.  A connected source is one part, and
is memoised like any other.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, product
from operator import itemgetter

from .errors import CapExceeded, InputError
from .model import (
    OperationTable,
    Record,
    Relation,
    RelationalStructure,
    Subset,
    product_ranks,
    subset,
    tuple_rank,
)

# annotations stay strings, so typing is read by type checkers only
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional

DEFAULT_VERTEX_CAP = 10 ** 6

# Entries per support or revision memo of one instance's network, and
# entries times the largest part for its component memo; `_remember` clears
# a full memo before the next insert.  A support memo has one key per
# mask of target values, and the benchmark queries miss on at most 72 of
# 3,592 support lookups (leq8 term 3) and 524 of 203,185 n-ary revisions
# (min4 decide with certificate), so only far larger instances reach the
# bound.
_REVISION_MEMO_SIZE = 1 << 16


# --- low-level bitmask CSP core ----------------------------------------------


def _lowest(mask):
    """The lowest bit of a nonempty mask, as a mask."""
    return mask & -mask


def _highest(mask):
    """The highest bit of a nonempty mask, as a mask."""
    return 1 << (mask.bit_length() - 1)


def _closed_under(rel: Relation, op) -> bool:
    """Whether rel holds op applied coordinatewise to any two of its tuples."""
    tuples = rel.sorted_tuples()
    for i, s in enumerate(tuples):
        for t in tuples[i + 1:]:
            if tuple(map(op, s, t)) not in rel.tuples:
                return False
    return True


def _closed_pick(names, target: RelationalStructure):
    """_lowest if every relation of target named in names, the relations
    that have scopes in the source, is closed under coordinatewise min,
    else _highest if every one is closed under max, else None.

    A relation with no scope in the source constrains nothing, so it is
    not named, and one that holds every tuple is closed under both and is
    skipped.  For such a target, picking that bit of each mask of a GAC
    fixpoint gives a solution.  Take min: for each position i of a constraint's
    scope, some allowed tuple t_i supports the minimum of position i's mask
    and lies in the masks of all positions.  At position j every t_i is at
    least the minimum of j's mask, and t_j equals it, so the coordinatewise
    min of the t_i, an allowed tuple, is the tuple of minima; a vertex that
    repeats in the scope gets its one minimum at each of its positions.
    Max is symmetric.
    """
    rels = [target.rel(name) for name in names]
    rels = [rel for rel in rels if len(rel) < target.size ** rel.arity]
    for op, pick in ((min, _lowest), (max, _highest)):
        if all(_closed_under(rel, op) for rel in rels):
            return pick
    return None


class _Network:
    """The constraints of a homomorphism instance, laid out for `_gac`, and
    the memos of the query that built it.

    adj[v] lists, for each binary relation and each position that v holds
    in some kept scope of it (a power of a preorder keeps the scopes of
    `_step_neighbours`), one (memo, rows, neighbours) entry: rows[a] is the
    mask of the values the target relation allows at the other position
    beside value a at v's, neighbours are the vertices at the other
    position of those scopes (v itself for a loop scope), and memo maps a
    mask of v to the union of its rows, the support it leaves its
    neighbours.  start[v] is the mask of all target values and-ed with v's
    unary constraints.  cons lists the
    constraints of arity 3 or more as (scope, allowed_tuples, memo), memo
    being the revision memo of the target relation, and var_cons[v] the
    indices of those on v.  In a power's network, cons holds one scope of
    each orbit of a relation's scopes under the symmetries `_symmetries`
    finds in its target relation: a scope and its image under one allow
    the same assignments and narrow each vertex alike (see the module
    docstring), so the fixpoint, and every answer read from it, is that of
    all the scopes.  pick is the instance's `_closed_pick`, and full the
    mask of all target values.

    components is None until the first search that must branch sets it to
    the source's `_Components` (see `_components`), and solved is the
    component memo: (part index, the part's masks) -> the part's first
    solution as a tuple of one-bit masks, or None (see `_search`).
    """

    def __init__(self, adj, start, cons, var_cons, pick, full):
        self.adj, self.start, self.cons, self.var_cons = adj, start, cons, var_cons
        self.pick, self.full = pick, full
        self.components, self.solved = None, {}


class _Components(Record):
    """The connected components of a source: vertices that share a scope of
    arity 2 or more are in one part.

    parts lists each part's vertices in ascending order, the parts ordered
    by their lowest vertex, and free the vertices in no scope of arity 2 or
    more (a loop scope (v,v) or an n-ary scope that repeats v is such a
    scope), in ascending order.
    """

    parts: list
    free: list


def _rows(allowed, size, i):
    """For each value a, the mask of the values at the other position of
    the binary tuples in allowed that hold a at position i."""
    rows = [0] * size
    for t in allowed:
        rows[t[i]] |= 1 << t[1 - i]
    return tuple(rows)


def _swaps(k):
    """The position permutations of arity k that `_symmetries` checks, each
    as the tuple p that moves the entry at position p[i] to position i:
    every transposition, then every product of two disjoint transpositions
    (three per four positions).  That is C(k,2) + 3*C(k,4) candidates, not
    all k! permutations."""
    for i, j in combinations(range(k), 2):
        p = list(range(k))
        p[i], p[j] = j, i
        yield tuple(p)
    for a, b, c, d in combinations(range(k), 4):
        for w, x, y, z in ((a, b, c, d), (a, c, b, d), (a, d, b, c)):
            p = list(range(k))
            p[w], p[x], p[y], p[z] = x, w, z, y
            yield tuple(p)


def _symmetries(rel: Relation) -> list:
    """The permutations of `_swaps(rel.arity)` that map rel onto itself,
    each as an itemgetter that applies it to a tuple."""
    tuples = rel.tuples
    out = []
    for p in _swaps(rel.arity):
        g = itemgetter(*p)
        if tuples.issuperset(map(g, tuples)):
            out.append(g)
    return out


def _assemble(size: int, target: RelationalStructure, scopes) -> _Network:
    """The `_Network` of an instance of size source vertices into target.

    scopes yields one (name, arity, data) triple per source relation that
    has scopes: for arity 1, data lists the vertices it holds; for arity
    2, it is the pair of per-vertex neighbour lists, of the vertices at
    position 1 beside each vertex at position 0 and the reverse; otherwise
    it lists the scopes to keep.  `fixpoint` reads them off a source's
    tuples and `power_fixpoint` off the rows of the power's base.
    """
    adj = [[] for _ in range(size)]
    full = (1 << target.size) - 1
    start = [full] * size
    cons = []
    names = []
    for name, arity, data in scopes:
        names.append(name)
        allowed = target.rel(name)
        if arity == 1:
            mask = sum(1 << t[0] for t in allowed.tuples)
            for v in data:
                start[v] &= mask
        elif arity == 2:
            for i, neighbours in enumerate(data):
                entry = ({}, _rows(allowed.tuples, target.size, i))
                for v, out in enumerate(neighbours):
                    if out:
                        adj[v].append(entry + (out,))
        else:
            tuples = allowed.sorted_tuples()
            memo = {}
            cons.extend((scope, tuples, memo) for scope in data)
    var_cons = [[] for _ in range(size)]
    for ci, (scope, _, _) in enumerate(cons):
        for v in dict.fromkeys(scope):
            var_cons[v].append(ci)
    return _Network(adj, tuple(start), cons, var_cons, _closed_pick(names, target), full)


def _source_scopes(source: RelationalStructure):
    """`_assemble`'s triples, read off the tuples of source's relations;
    an n-ary relation keeps every scope."""
    for name, rel in source.relations:
        scopes = rel.tuples
        if not scopes:
            continue
        if rel.arity == 1:
            yield name, 1, [v for (v,) in scopes]
        elif rel.arity == 2:
            pairs = []
            for i in (0, 1):
                neighbours = [[] for _ in range(source.size)]
                for scope in scopes:
                    neighbours[scope[i]].append(scope[1 - i])
                pairs.append(neighbours)
            yield name, 2, pairs
        else:
            yield name, rel.arity, scopes


def _revise(allowed, key):
    """The supported mask of each scope position, or None on a wipeout.

    key holds the scope's domain masks; a tuple is supported when each of
    its entries lies in the mask of its position.
    """
    k = len(key)
    supported = [0] * k
    for t in allowed:
        for i in range(k):
            if not (key[i] >> t[i]) & 1:
                break
        else:
            for i in range(k):
                supported[i] |= 1 << t[i]
    return tuple(supported) if supported[0] else None


def _support(rows, mask):
    """The union of the rows of the values in mask."""
    out = 0
    for a, row in enumerate(rows):
        if (mask >> a) & 1:
            out |= row
    return out


def _remember(memo, key, value, weight=1):
    """Store value in memo under key and return it, clearing memo first
    when its entries times weight reach `_REVISION_MEMO_SIZE`.  Every memo
    of a network is bounded here: the support and revision memos of `_gac`
    with weight 1, the component memo of `_search` with the size of the
    largest part."""
    if len(memo) * weight >= _REVISION_MEMO_SIZE:
        memo.clear()
    memo[key] = value
    return value


def _gac(masks, net, queue, trail=None):
    """Generalized arc consistency to fixpoint; False on a domain wipeout.

    masks must be a fixpoint but for the vertices listed in queue, which
    have narrowed since; `fixpoint` queues every vertex of the start masks.
    The unary constraints hold already and stay satisfied, and masks hold
    only values of the target.

    Binary constraints propagate along the vertices: a popped vertex looks
    up the support its mask leaves each (relation, direction) entry of
    `net.adj` in the entry's memo, then ands it into each neighbour.  Each
    scope position is so revised on its own, as `_revise` does, and a loop
    scope revises its vertex against itself.  Constraints of arity 3 or
    more go through a queue of their own, revised once the vertex queue is
    empty; their revisions come from the target relation's memo, and a miss
    runs _revise and stores its result.  The greatest arc-consistent
    domains do not depend on the order of revisions, so the fixpoint is
    that of revising every scope position against the allowed tuples.

    trail, when given, is `_narrow`'s undo trail: a (vertex, old mask)
    pair is appended to it before each narrowing, so restoring the pairs
    popped from its end undoes this call, a wipeout included (the pair of
    the vertex that wiped out holds the mask it still has).
    """
    adj, cons, var_cons, full = net.adj, net.cons, net.var_cons, net.full
    queue = deque(dict.fromkeys(queue))
    in_queue = [False] * len(masks)
    con_queue = deque()
    in_cons = [False] * len(cons)
    for v in queue:
        in_queue[v] = True
        for ci in var_cons[v]:
            if not in_cons[ci]:
                con_queue.append(ci)
                in_cons[ci] = True
    while True:
        while queue:
            v = queue.popleft()
            in_queue[v] = False
            m = masks[v]
            for memo, rows, neighbours in adj[v]:
                try:
                    s = memo[m]
                except KeyError:
                    s = _remember(memo, m, _support(rows, m))
                if s == full:
                    # masks hold only target values: no neighbour narrows
                    continue
                for w in neighbours:
                    mw = masks[w]
                    if mw & s != mw:
                        if trail is not None:
                            trail.append((w, mw))
                        mw &= s
                        if mw == 0:
                            return False
                        masks[w] = mw
                        if not in_queue[w]:
                            queue.append(w)
                            in_queue[w] = True
                        for ci in var_cons[w]:
                            if not in_cons[ci]:
                                con_queue.append(ci)
                                in_cons[ci] = True
        if not con_queue:
            return True
        ci = con_queue.popleft()
        in_cons[ci] = False
        scope, allowed, memo = cons[ci]
        key = itemgetter(*scope)(masks)
        try:
            supported = memo[key]
        except KeyError:
            supported = _remember(memo, key, _revise(allowed, key))
        if supported is None:
            return False
        if supported == key:
            continue
        for v, s in zip(scope, supported):
            m = masks[v]
            if m & s != m:
                if trail is not None:
                    trail.append((v, m))
                m &= s
                if m == 0:
                    return False
                masks[v] = m
                if adj[v] and not in_queue[v]:
                    queue.append(v)
                    in_queue[v] = True
                for cj in var_cons[v]:
                    if not in_cons[cj]:
                        con_queue.append(cj)
                        in_cons[cj] = True


def _narrow(masks, net, pairs, trail=None):
    """And each (vertex, value bitmask) pair into the list masks, a
    fixpoint, in place, and resume `_gac` from the vertices that narrowed;
    False on a wipeout.

    trail, when given, gets each (vertex, old mask) pair before the vertex
    narrows, here and in `_gac`, so undoing it to its length at the call
    restores masks, a wipeout included.  Without one, masks after a wipeout
    are not a fixpoint of anything and are only to be thrown away.
    """
    changed = []
    for v, mask in pairs:
        m = masks[v]
        if m & mask != m:
            if trail is not None:
                trail.append((v, m))
            m &= mask
            if m == 0:
                return False
            masks[v] = m
            changed.append(v)
    return not changed or _gac(masks, net, changed, trail)


def _bits(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def _mrv_count(counts):
    """The index of the least count above 1 in a byte string of candidate
    counts (lowest index on ties), or -1 when there is none.

    Deleting the counts 0 and 1 tells whether any vertex is open; if one
    is, the answer is the first byte equal to 2, else to 3, and so on.
    `bytes.find` gives the lowest index, and the loop stops at the least
    open count, which is at most the target's size.
    """
    if not counts.translate(None, b"\0\1"):
        return -1
    count = 2
    found = counts.find(count)
    while found < 0:
        count += 1
        found = counts.find(count)
    return found


def _mrv_scan(masks):
    """The index of the mask of fewest candidates above one (lowest index
    on ties), or -1 when there is none: `_mrv_count` by a loop over the
    masks, for any count."""
    best = -1
    best_count = 0
    for v, m in enumerate(masks):
        if m & (m - 1):
            c = m.bit_count()
            if best < 0 or c < best_count:
                if c == 2:
                    # no unassigned vertex has fewer candidates
                    return v
                best, best_count = v, c
    return best


def _components(net) -> _Components:
    """The source's `_Components`, computed on first use and kept in
    net.components.

    Breadth-first from each vertex not yet placed: a frontier reaches the
    union, one C-level set update per entry, of its neighbour lists in
    `net.adj` and the scopes of its constraints of arity 3 or more.  The
    scopes of one orbit hold the same vertices, so the one scope that
    `net.cons` keeps of each joins the same vertices as all of them.
    """
    if net.components is not None:
        return net.components
    adj, cons, var_cons = net.adj, net.cons, net.var_cons
    placed = [False] * len(adj)
    parts = []
    free = []
    for v in range(len(adj)):
        if placed[v]:
            continue
        if not adj[v] and not var_cons[v]:
            free.append(v)
            continue
        seen = {v}
        frontier = [v]
        while frontier:
            reached = set()
            for u in frontier:
                for entry in adj[u]:
                    reached.update(entry[2])
                for ci in var_cons[u]:
                    reached.update(cons[ci][0])
            frontier = reached - seen
            seen |= frontier
        part = sorted(seen)
        for u in part:
            placed[u] = True
        parts.append(part)
    net.components = _Components(parts, free)
    return net.components


def _walk(masks, net, choose, counts=None):
    """Depth-first over the branchings that choose names, on the list masks
    in place: yield True at each leaf, with masks holding it, and once
    exhausted leave masks as it found them.

    masks is a list that is a fixpoint.  choose(depth) names the vertex to
    branch on at a node of that depth (the root's is 0), or -1 at a leaf.
    The vertex's values are tried in ascending order, and each child is
    its parent's masks with the vertex pinned to the value through
    `_narrow`; a child that wipes out is skipped.  Every child is narrowed
    on masks itself with one undo trail, the (vertex, old mask) pairs that
    `_narrow` and `_gac` append before each narrowing (Schulte, "Comparing
    Trailing and Copying for Constraint Programming", ICLP 1999), so no
    node copies the masks.  A frame on the explicit stack is (trail mark,
    vertex, remaining values): before the next value, or once the frame
    has none left, the trail is undone to the frame's mark, which restores
    the masks the frame branched from, and the trail is empty again once
    the root's frame is done.  The depth is bounded by the vertex count,
    not by Python's recursion limit.

    counts, when given, is a bytearray of candidate counts, one per
    vertex: `_undo` restores the count of each vertex it restores, and the
    vertices a surviving child put on the trail are recounted, so every
    count stays its vertex's.
    """
    trail = []
    stack = []
    while True:
        v = choose(len(stack))
        if v < 0:
            yield True
        else:
            stack.append((len(trail), v, iter(_bits(masks[v]))))
        # step to the next surviving child of the deepest frame with values left
        while stack:
            mark, v, values = stack[-1]
            for val in values:
                _undo(masks, trail, mark, counts)
                if _narrow(masks, net, ((v, 1 << val),), trail):
                    break
            else:
                _undo(masks, trail, mark, counts)
                stack.pop()
                continue
            break
        else:
            return
        if counts is not None:
            for i in range(mark, len(trail)):
                w = trail[i][0]
                counts[w] = masks[w].bit_count()


def _search_part(masks, net, part):
    """Whether one part has a solution; masks is left holding the first one
    under MRV + lexicographic value order.

    masks is a list that is a fixpoint.  part lists the part's vertices in
    ascending order.  Only they are branched on, and the vertices outside
    it keep their masks (propagation from a vertex stays in its part).  On
    success the part's masks are the solution's one-bit masks; on failure
    masks is restored.

    The solution is the first leaf of the `_walk` whose choose is MRV: a
    leaf is a node with no open vertex of the part, which is a solution.
    MRV reads a bytearray of candidate counts, one per vertex, through
    `_mrv_count`, and the walk keeps the counts of the vertices on its
    trail; a vertex outside part is pinned at 1, so it is never picked.  On
    a target of more than 255 elements a count may not fit in a byte, and
    `_mrv_scan` reads the part's masks at each node instead.
    """
    if net.full.bit_length() > 255:
        counts = None

        def choose(depth):
            best = _mrv_scan([masks[v] for v in part])
            return part[best] if best >= 0 else -1
    else:
        counts = bytearray(b"\1") * len(masks)
        for v in part:
            counts[v] = masks[v].bit_count()

        def choose(depth):
            return _mrv_count(counts)
    # any() stops at the first leaf and leaves masks holding it
    return any(_walk(masks, net, choose, counts))


def _undo(masks, trail, mark, counts):
    """Pop the trail down to mark, restoring each pair's mask and, unless
    counts is None, its candidate count."""
    while len(trail) > mark:
        v, m = trail.pop()
        masks[v] = m
        if counts is not None:
            counts[v] = m.bit_count()


def _search(masks, net):
    """First solution under MRV + lexicographic value order, or None.

    masks must be a fixpoint; it is not modified.  The answer is masks
    itself when no vertex is open (no mask holds two values, read in C for
    any target size), else one copy of it, the only one the search makes:
    `_search_part` narrows that list in place and undoes its failed
    branches from a trail.  The rule: branch on the vertex of fewest
    candidates above one, the lowest index on ties, try its values in
    ascending order, and propagate after each.  Each part is searched on
    its own in turn on the same list, a connected source as its one part,
    the answer is None as soon as one part has no solution, and each free
    vertex takes its lowest value.

    A part's first solution depends on the part's masks alone, so it is
    memoised in net.solved by (part index, those masks), through
    `_remember` with the largest part as each entry's weight, which bounds
    the masks the memo holds.  A `cover` trial or a solve after a
    `restrict` so searches only the parts that the restriction changed, and
    reads the others back; a second solve of equal masks searches nothing.

    The part-wise answer is the whole-instance search's:

    - Propagation from a vertex reaches only vertices that share a scope
      with it, so below any node of the whole search the masks of a part
      are a function of the branches taken in that part alone, and a
      solution is one solution per part plus any value of each free
      vertex's mask (a fixpoint has applied the unary constraints).  So a
      node has a solution exactly when each part's masks at it do, and a
      free vertex never makes a branch fail.
    - Where the whole search branches on a vertex v of part P, v is the
      least (count, index) over all open vertices, so in particular over
      P's: it is the vertex P's own search picks at P's masks, with the
      same lowest-index tie rule.  Ties across parts only interleave the
      parts' branchings; they do not change which vertex of P comes next.
    - The search is complete (propagation removes no value of a solution),
      so below a node with a solution it commits to the first value of v
      whose child still has one and never returns.  The child differs from
      the node only in P, so that value is the one P's own search commits
      to at P's masks.  By induction on the open vertices, the whole
      first solution is the union of the parts' first solutions, and a
      free vertex, branched on only when the rest has a solution, keeps
      its lowest value.
    - Below a node with no solution, some part has none, and the whole
      search may branch on vertices of other parts before it finds out;
      a chronological backtrack into such a frame tries the next value
      there, which leaves the failing part's masks as they were, so it
      fails the same way.  The whole search returns None, as does the
      part-wise one when it reaches that part.
    """
    if max(map(int.bit_count, masks), default=0) < 2:
        return masks
    comps = _components(net)
    work = list(masks)
    largest = max(map(len, comps.parts), default=0)
    solved = net.solved
    for i, part in enumerate(comps.parts):
        key = (i, tuple(map(work.__getitem__, part)))
        try:
            found = solved[key]
        except KeyError:
            found = None
            if _search_part(work, net, part):
                found = tuple(map(work.__getitem__, part))
            _remember(solved, key, found, largest)
        if found is None:
            return None
        for v, m in zip(part, found):
            work[v] = m
    for v in comps.free:
        work[v] = _lowest(work[v])
    return work


class Fixpoint:
    """The greatest arc-consistent domains of a homomorphism instance, as one
    bitmask per source vertex; masks is None after a domain wipeout.

    `restrict` is the one way to narrow it: it ands value masks into chosen
    vertices and resumes propagation from there.  Arc consistency has a
    unique greatest fixpoint below any domains, and propagation removes only
    values that no arc-consistent subdomain holds.  So a fixpoint of looser
    domains lies above the greatest fixpoint of the narrowed ones, and
    resuming from it reaches that same fixpoint: a restricted fixpoint
    equals the one computed from full domains with every mask applied so
    far and-ed in.  The search is deterministic, so every answer derived
    from the two is the same too.

    The answers are `solve` (the first solution), `solve_at` (the first
    solution that gives one vertex the least value of a mask that some
    solution gives it), `cover` and `project`.  On a min-closed target
    `solve` reads the domain minima and `solve_at` does too when the
    vertex's minimum lies in the mask, with no search and no restrict.

    source is the source structure, or the `Power` that `power_fixpoint`
    names in place of building it; the vertex checks read its size alone.
    net is the instance's `_Network`: `fixpoint` or `power_fixpoint` builds
    it, and `restrict` passes it on, so the fixpoints of one query share
    its memos.  Equality
    and the hash read source, target and masks alone: two fixpoints of one
    instance with the same masks are equal, whichever network they carry.
    Like a `Record`, it refuses assignment and deletion.
    """

    __slots__ = ("source", "target", "masks", "net")
    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    def __init__(self, source, target: RelationalStructure,
                 masks: Optional[tuple], net: _Network):
        setter = object.__setattr__
        setter(self, "source", source)
        setter(self, "target", target)
        setter(self, "masks", masks)
        setter(self, "net", net)

    def __eq__(self, other):
        if other.__class__ is Fixpoint:
            return (self.source, self.target, self.masks) == (other.source, other.target, other.masks)
        return NotImplemented

    def __hash__(self):
        return hash((self.source, self.target, self.masks))

    def __repr__(self):
        return "Fixpoint(source=%r, target=%r, masks=%r)" % (self.source, self.target, self.masks)

    def _check_vertices(self, vertices) -> list:
        """vertices as a list; InputError names the first that is not a
        vertex of the source."""
        vertices = list(vertices)
        for v in vertices:
            if not 0 <= v < self.source.size:
                raise InputError("vertex %d out of range" % v)
        return vertices

    def restrict(self, pairs) -> "Fixpoint":
        """The fixpoint with each (vertex, value bitmask) pair and-ed in.

        `_narrow` ands the pairs into one copy of the masks and resumes
        propagation from the constraints of the vertices that narrowed;
        nothing runs when none did, and then the answer is self.  A vertex
        left with no value is a wipeout.  Bits beyond the target domain are
        and-ed away.
        """
        pairs = tuple(pairs)
        self._check_vertices(v for v, _ in pairs)
        if self.masks is None:
            return self
        work = list(self.masks)
        masks = tuple(work) if _narrow(work, self.net, pairs) else None
        if masks == self.masks:
            return self
        return Fixpoint(self.source, self.target, masks, self.net)

    def solve(self) -> Optional[tuple]:
        """The first solution (tuple indexed by source vertex), or None.

        On a min-closed target this is the tuple of domain minima, with no
        search.  The minima are a solution (see `_closed_pick`), and they
        are exactly what the search returns, whatever vertex it branches on:
        its lowest value there is the vertex's minimum, and propagation
        never removes a value of a solution, so that branch survives with
        every other minimum in place and the search never backtracks.
        """
        masks = self.masks
        if masks is not None and self.net.pick is not _lowest:
            masks = _search(masks, self.net)
        if masks is None:
            return None
        return tuple(_lowest(m).bit_length() - 1 for m in masks)

    def solve_at(self, vertex: int, mask: int) -> Optional[tuple]:
        """The first solution with vertex restricted to x, for the least
        value x in the value bitmask that some solution gives vertex, or
        None; x is the solution's value at vertex.

        The answer is that of restricting vertex to each value of mask in
        ascending order and solving, at the first value with a solution.  A
        value outside the vertex's mask wipes out there, so only the values
        of both masks are tried.  On a min-closed target whose minimum m at
        vertex lies in mask, the answer is the minima, with no restrict:
        they are a solution with vertex = m, so restricting vertex to m
        keeps them, and as propagation removes no value of a solution, the
        minima of the restricted fixpoint are the old ones, which `solve`
        returns.
        """
        self._check_vertices((vertex,))
        masks = self.masks
        if masks is None:
            return None
        if self.net.pick is _lowest and _lowest(masks[vertex]) & mask:
            return self.solve()
        for x in _bits(masks[vertex] & mask):
            values = self.restrict(((vertex, 1 << x),)).solve()
            if values is not None:
                return values
        return None

    def cover(self, pending, mask: int) -> frozenset:
        """The pending vertices that some solution sends into the value bitmask.

        Solutions are reused: solve with the lowest uncovered vertex
        restricted to the mask, mark every pending vertex that solution
        sends into the mask as covered, and drop the vertex when its
        restricted solve fails.

        On a min- or max-closed target the solution is the trial's
        minima or maxima (see `_closed_pick`), with no search.  Any solution
        gives the same set: a vertex is either covered by some solution or
        tried on its own.

        Every trial narrows one working copy of the masks by `_narrow` with
        a trail, and is undone from the trail before the next, so no trial
        copies the masks; `_search` makes its own copy.
        """
        pending = self._check_vertices(pending)
        if self.masks is None:
            return frozenset()
        net = self.net
        pick = net.pick
        todo = sorted(v for v in set(pending) if self.masks[v] & mask)
        covered = set()
        work = list(self.masks)
        trail = []
        for v in todo:
            if v in covered:
                continue
            if _narrow(work, net, ((v, mask),), trail):
                if pick is not None:
                    covered.update(w for w in todo if pick(work[w]) & mask)
                else:
                    solution = _search(work, net)
                    if solution is not None:
                        covered.update(w for w in todo if solution[w] & mask)
            _undo(work, trail, 0, None)
        return frozenset(covered)

    def project(self, vertices) -> frozenset:
        """The distinct tuples of values that solutions take at vertices.

        Shared-prefix search: the `_walk` that branches on the listed
        vertices in order, on one working copy of the masks, narrowed by
        incremental GAC after each choice.  Each leaf is kept when one
        search extends it to the remaining vertices (`_search` copies the
        masks, so the walk's list is left as it is), or at once on a min-
        or max-closed target (see `_closed_pick`).  A repeated vertex takes
        the same value at each of its positions.
        """
        vertices = self._check_vertices(vertices)
        if self.masks is None:
            return frozenset()
        net = self.net
        work = list(self.masks)
        out = set()
        for _ in _walk(work, net, lambda depth: vertices[depth] if depth < len(vertices) else -1):
            if net.pick is not None or _search(work, net) is not None:
                out.add(tuple(work[v].bit_length() - 1 for v in vertices))
        return frozenset(out)


def fixpoint(source: RelationalStructure, target: RelationalStructure) -> Fixpoint:
    """The GAC fixpoint of the homomorphism instance from source to target,
    from full domains: the network's start masks, propagated from every
    vertex (a start mask of 0 is a wipeout)."""
    if source.signature() != target.signature():
        raise InputError("source and target structures have different signatures")
    return _propagated(source, target, _assemble(source.size, target, _source_scopes(source)))


def _propagated(source, target: RelationalStructure, net: _Network) -> Fixpoint:
    """The fixpoint of net from its start masks, propagated from every
    vertex (a start mask of 0 is a wipeout)."""
    masks = list(net.start)
    if 0 in masks or not _gac(masks, net, range(len(masks))):
        return Fixpoint(source, target, None, net)
    return Fixpoint(source, target, tuple(masks), net)


# --- power structures and subpowers ------------------------------------------


class Power(Record):
    """The k-th power of base as the source of a `Fixpoint`, named rather
    than built: its vertices are the k-tuples over base's domain in
    lexicographic rank order, and its relations are the R^k of base's
    relations R: a k-tuple of R's rows gives the scope whose i-th vertex is
    the k-tuple of the rows' i-th entries."""

    base: RelationalStructure
    k: int

    @property
    def size(self) -> int:
        return self.base.size ** self.k


def check_power_vertices(size: int, k: int, cap: int):
    """Refuse the k-th power of a structure of size elements when its
    vertices number over cap: the arithmetic that `_check_power` starts
    with, for a caller that has not built the structure's singletons yet."""
    if size ** k > cap:
        raise CapExceeded("power structure would have %d vertices, cap is %d" % (size ** k, cap))


def _check_power(a: RelationalStructure, k: int, cap: int):
    """Refuse power(a, k) when k < 1, or when its vertices or its constraint
    scopes (the tuples of all its relations, sum of |R|^k) number over cap."""
    if k < 1:
        raise InputError("power exponent must be positive")
    check_power_vertices(a.size, k, cap)
    scopes = sum(len(rel) ** k for _, rel in a.relations)
    if scopes > cap:
        raise CapExceeded(
            "power structure would have %d constraint scopes, cap is %d" % (scopes, cap)
        )


def power_fixpoint(a: RelationalStructure, k: int, cap: int = DEFAULT_VERTEX_CAP) -> Fixpoint:
    """The fixpoint of the instance from power(a, k) to a, with source
    `Power(a, k)`; the power itself is never built.

    cap bounds both the power's vertices and its constraint scopes
    (`_check_power`); either count over it is refused before anything is
    built.  The network is read off a's rows (`_power_scopes`), so no
    tuple of any R^k is made, and an n-ary R^k keeps one scope per orbit
    of its scopes.
    """
    _check_power(a, k, cap)
    return _propagated(Power(a, k), a, _assemble(a.size ** k, a, _power_scopes(a, k)))


def _power_scopes(a: RelationalStructure, k: int):
    """`_assemble`'s triples of power(a, k), read off a's rows.

    A unary R holds the ranks of the k-tuples over R's elements, a binary
    R gives `_step_neighbours` when it is a preorder of a's domain
    (`_is_preorder`) and `_power_neighbours` otherwise, and an n-ary R one
    scope per orbit (`_orbit_scopes`); an empty R has no scopes and is
    skipped.  Both binary networks have the same greatest fixpoint below
    any masks, and so the same solutions (see the module docstring).
    """
    size = a.size
    for name, rel in a.relations:
        rows = rel.sorted_tuples()
        if not rows:
            continue
        if rel.arity == 1:
            yield name, 1, product_ranks([[e for (e,) in rows]] * k, size)
        elif rel.arity == 2:
            build = _step_neighbours if _is_preorder(rel, size) else _power_neighbours
            yield name, 2, [build(rows, size, k, i) for i in (0, 1)]
        else:
            yield name, rel.arity, _orbit_scopes(rel, rows, size, k)


def _power_neighbours(rows, size: int, k: int, i: int) -> list:
    """For each vertex of power(R, k), R the binary relation of rows, the
    vertices at position 1 - i of the scopes that hold it at position i.

    They are the product of its coordinates' lists in R, ranked by place
    value, and are built one coordinate at a time: the list of the vertex
    of rank v * size + a in power(R, m + 1) holds w * size + b for each w
    in v's list in power(R, m) and each b beside a in R.
    """
    beside = [[] for _ in range(size)]
    for t in rows:
        beside[t[i]].append(t[1 - i])
    lists = [[0]]
    for _ in range(k):
        lists = [
            [w + b for w in scaled for b in out]
            for scaled in ([w * size for w in prev] for prev in lists)
            for out in beside
        ]
    return lists


def _is_preorder(rel: Relation, size: int) -> bool:
    """Whether the binary rel is reflexive on all of range(size) and transitive."""
    pairs = rel.tuples
    if any((a, a) not in pairs for a in range(size)):
        return False
    above = [[] for _ in range(size)]
    for x, y in pairs:
        above[x].append(y)
    return all((x, z) in pairs for x, y in pairs for z in above[y])


def _step_neighbours(rows, size: int, k: int, i: int) -> list:
    """`_power_neighbours` of a preorder R, kept to the arcs that change
    one coordinate: the vertex (x_1, ..., x_k) lists, for each j, the
    vertices that put some y != x_j beside x_j in R at coordinate j and
    keep the others, and no vertex lists itself.

    Built one coordinate at a time: the list of the vertex of rank
    v * size + a in power(R, m + 1) holds w * size + a for each w in v's
    list in power(R, m), and v * size + b for each b != a beside a in R.
    """
    beside = [[] for _ in range(size)]
    for t in rows:
        if t[0] != t[1]:
            beside[t[i]].append(t[1 - i])
    lists = [[]]
    for _ in range(k):
        lists = [
            [w * size + a for w in prev] + [v * size + b for b in out]
            for v, prev in enumerate(lists)
            for a, out in enumerate(beside)
        ]
    return lists


def _inverse(perm: tuple) -> tuple:
    """The inverse of a permutation of range(len(perm)), perm[x] being x's image."""
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


def _orbit_scopes(rel: Relation, rows: list, size: int, k: int) -> list:
    """One scope of each orbit of power(R, k)'s scopes under the group G
    that `_symmetries(R)` generates, rows being R's sorted tuples.

    The scope of the k-tuple of rows (r_1, ..., r_k) holds at position i
    the vertex (r_1[i], ..., r_k[i]), and one tuple gives one scope.  A
    permutation g of R's positions maps it to the scope of
    (g r_1, ..., g r_k), so G acts on the scopes through its action on R's
    rows, and each generator is taken as the permutation it makes of the
    rows' indices.  The scope kept of an orbit is its tuple of row indices
    (x_1, ..., x_k) in which each x_j is the least of its orbit under the
    stabiliser in G of x_1, ..., x_(j-1); every orbit has exactly one.

    A stabiliser chain finds them, walked depth first from the empty
    prefix: a node's children are the least rows of the orbits of its
    prefix's stabiliser, in ascending order.  By Schreier's lemma, with
    u_y an element that maps x to y for each row y of x's orbit, the
    elements u_(g(y))^-1 g u_y over those rows and the generators g
    generate the stabiliser of x (Seress, Permutation Group Algorithms,
    CUP 2003, section 4.1; `_stabiliser`).  Once a stabiliser acts
    trivially, every tail is its own orbit, and the scopes of all tails
    come from `product_ranks`; those of the last row come from the least
    rows at once, in the same way.  G itself is never enumerated.

    The stabiliser of a prefix depends only on a partition of R's
    positions, its key: i and i' share a class when the prefix's columns
    at them are equal, (x_1[i], ..., x_j[i]) = (x_1[i'], ..., x_j[i']).
    An element acts through a permutation p of the positions, sending row
    r to the row whose entry at i is r[p[i]].  It fixes x_l exactly when
    x_l[p[i]] = x_l[i] at every i, so it fixes the whole prefix exactly
    when p maps each class into itself.  So the stabiliser, its orbits on
    the rows and their least rows are functions of the key, which is
    written with class ids in order of first occurrence: the empty
    prefix's key puts every position in class 0, and row x refines a key
    by the pairs (key[i], x[i]).  Each key's generators and its list of
    (least row, child key) are computed once and shared by every node of
    that key, and a child key's generators only when a deeper node needs
    them and no earlier node has computed them.  Each generating set goes
    through `_sims_filter`, which keeps at most n(n-1)/2 of them on n rows.
    """
    n = len(rows)
    root = (0,) * rel.arity
    index = {row: x for x, row in enumerate(rows)}
    # the generators of each key's stabiliser
    groups = {root: _sims_filter({tuple(map(index.__getitem__, map(g, rows))) for g in _symmetries(rel)}, n)}
    cols = [[row[j] for row in rows] for j in range(rel.arity)]
    # orbits[key]: the least rows of the key's orbits, their child keys,
    # and per position the least rows' entries
    orbits = {}
    # tails[m][j]: the ranks, at position j, of the scopes of every m-tuple
    # of rows, in product order
    tails = {}
    kept = []
    stack = [(root, 0, root)]
    while stack:
        prefix, depth, key = stack.pop()
        gens = groups[key]
        if not gens:
            m = k - depth
            if m not in tails:
                tails[m] = [product_ranks([col] * m, size) for col in cols]
            shift = size ** m
            kept.extend(zip(*[map((p * shift).__add__, tail) for p, tail in zip(prefix, tails[m])]))
            continue
        if key not in orbits:
            least = _orbit_minima(gens, n)
            orbits[key] = (least, [_refine(key, rows[x]) for x in least], [[col[x] for x in least] for col in cols])
        least, child_keys, least_cols = orbits[key]
        children = zip(*[map((p * size).__add__, entries) for p, entries in zip(prefix, least_cols)])
        if depth + 1 == k:
            kept.extend(children)
            continue
        for x, child_key in zip(least, child_keys):
            if child_key not in groups:
                groups[child_key] = _stabiliser(gens, x, n)
        stack.extend((child, depth + 1, child_key) for child, child_key in zip(children, child_keys))
    return kept


def _refine(key: tuple, row: tuple) -> tuple:
    """The partition key of a prefix extended by row, key being the
    prefix's: positions share a class when they shared one and row is
    equal at them, class ids in order of first occurrence."""
    ids = {}
    return tuple([ids.setdefault(pair, len(ids)) for pair in zip(key, row)])


def _orbit_minima(gens, n: int) -> list:
    """The least point of each orbit of the group that gens generates on
    range(n), in ascending order."""
    placed = [False] * n
    least = []
    for x in range(n):
        if placed[x]:
            continue
        least.append(x)
        placed[x] = True
        orbit = [x]
        for y in orbit:
            for g in gens:
                z = g[y]
                if not placed[z]:
                    placed[z] = True
                    orbit.append(z)
    return least


def _stabiliser(gens, x: int, n: int) -> list:
    """Generators of the stabiliser of x in the group that gens generates
    on range(n): its Schreier generators u_(g(y))^-1 g u_y, u_y an element
    that maps x to y, found by walking x's orbit, through `_sims_filter`."""
    moved = {x: tuple(range(n))}
    orbit = [x]
    for y in orbit:
        for g in gens:
            z = g[y]
            if z not in moved:
                moved[z] = tuple(map(g.__getitem__, moved[y]))
                orbit.append(z)
    back = {y: _inverse(u) for y, u in moved.items()}
    return _sims_filter(
        {tuple(map(back[g[y]].__getitem__, map(g.__getitem__, moved[y]))) for y in orbit for g in gens}, n
    )


def _sims_filter(perms, n: int) -> list:
    """A set of at most n(n-1)/2 permutations of range(n) that generates
    the group that perms generate, by Sims's filter (Seress, Permutation
    Group Algorithms, CUP 2003).

    The table holds at most one element under each key (i, j), i < j, and
    that element fixes every point below i and maps i to j.  Each
    permutation g is sifted: while g moves some point, with i the first
    and j = g[i], g goes under (i, j) if that key is free; otherwise g is
    replaced by h^-1 g, h being the element there, and h^-1 g fixes i and
    every point below it.  Each step writes g as h times the new g, so the table's
    elements generate every input, and each of them is a product of
    inputs: both sets generate one group.  An identity sifts to nothing.
    """
    table = {}
    for g in perms:
        i = 0
        while True:
            while i < n and g[i] == i:
                i += 1
            if i == n:
                break
            entry = table.get((i, g[i]))
            if entry is None:
                table[i, g[i]] = (g, _inverse(g))
                break
            g = tuple(map(entry[1].__getitem__, g))
    return [g for g, _ in table.values()]


def _columns(generators, size):
    """Vertex ranks of the generator columns in power(A, len(generators))."""
    n = len(generators[0])
    return [
        tuple_rank([g[j] for g in generators], size)
        for j in range(n)
    ]


def generate_subpower(a: RelationalStructure, s, n: int, cap: int = DEFAULT_VERTEX_CAP) -> Relation:
    """The subpower of A^n generated by s: the values that the polymorphisms
    of arity |s| take at the generator columns.

    The generators are checked before the power is built: InputError
    refuses an empty list and a generator whose length is not n, and names
    the first generator and entry outside range(a.size), since such an
    entry would rank as some other column.
    """
    s = [tuple(g) for g in s]
    if not s:
        raise InputError("generator list must be nonempty")
    if any(len(g) != n for g in s):
        raise InputError("generator arity mismatch")
    bad = [(g, e) for g in s for e in g if not 0 <= e < a.size]
    if bad:
        raise InputError("generator %r: entry %r out of range for size %d" % (bad[0] + (a.size,)))
    return Relation(n, power_fixpoint(a, len(s), cap).project(_columns(s, a.size)))


def closure_unary(a: RelationalStructure, b: Subset, cap: int = DEFAULT_VERTEX_CAP) -> Subset:
    """The smallest subuniverse containing b; b is one exactly when the two
    are equal."""
    b.check_bounds(a.size)
    gens = [(e,) for e in b.sorted_elements()]
    return subset(t[0] for t in generate_subpower(a, gens, 1, cap).tuples)


# --- B-essential relations and absorption terms -------------------------------


def is_b_essential(a: RelationalStructure, r: Relation, b: Subset) -> bool:
    """R cap B^n empty, and every drop-one projection meets B^(n-1)."""
    if r.arity < 2:
        raise InputError("B-essentiality is defined for arity >= 2")
    belems = b.elements
    for t in r.tuples:
        if all(e in belems for e in t):
            return False
    for i in range(r.arity):
        if not any(
            all(e in belems for j, e in enumerate(t) if j != i) for t in r.tuples
        ):
            return False
    return True


def _essential_generator_choices(a: RelationalStructure, b: Subset, n: int):
    """Per-position candidate generators, each in B^(i-1) x (A\\B) x B^(n-i)."""
    bs = b.sorted_elements()
    outside = [e for e in range(a.size) if e not in b]
    for i in range(n):
        parts = [bs] * i + [outside] + [bs] * (n - 1 - i)
        yield [tuple(t) for t in product(*parts)]


def essential_witness_search(
    a: RelationalStructure, b: Subset, n: int, cap: int = DEFAULT_VERTEX_CAP
) -> Optional[tuple]:
    """The first (lexicographic) generator list whose subpower avoids B^n,
    or None: n generators, the i-th in B^(i-1) x (A\\B) x B^(n-i).  The
    subpower they generate is B-essential; `generate_subpower(a, gens, n)`
    computes it.

    Avoidance is certified by a single CSP: the power(A,n) -> A instance
    with every generator column restricted to B has no homomorphism.  Each
    candidate restricts one fixpoint of power(A,n), which is built, and its
    caps checked, before any candidate list.

    Before the candidates, the fixpoint is restricted as
    `absorption_term_search` restricts it, and a solution answers None at
    once.  Such a solution is an n-ary polymorphism t with
    t(B,...,B,A,B,...,B) in B at every position.  Every candidate g_1..g_n
    has g_i's one entry outside B at position i, so at each coordinate j
    all of t's arguments but the j-th lie in B, and t(g_1, ..., g_n) lies
    in both the generated subpower and B^n: no candidate avoids B^n.
    Without such a solution, the candidates are tried as before.
    """
    b.check_bounds(a.size)
    if n < 2:
        raise InputError("essential witnesses require arity >= 2")
    if len(b) == a.size:
        return None
    base = power_fixpoint(a, n, cap)
    if base.restrict(_term_pairs(a.size, b, n)).solve() is not None:
        return None
    bmask = sum(1 << e for e in b.elements)
    for gens in product(*_essential_generator_choices(a, b, n)):
        if base.restrict((c, bmask) for c in _columns(gens, a.size)).solve() is None:
            return gens
    return None


def absorption_term_search(
    a: RelationalStructure, b: Subset, n: int, cap: int = DEFAULT_VERTEX_CAP
) -> Optional[OperationTable]:
    """An n-ary absorption term for B, found by one CSP over power(A,n).

    Diagonal vertices are pinned to their element (idempotence); every vertex
    whose tuple has at most one coordinate outside B is restricted to B
    (`_term_pairs`).
    """
    b.check_bounds(a.size)
    base = power_fixpoint(a, n, cap)
    # a diagonal element outside B (possible only when n == 1) wipes out
    values = base.restrict(_term_pairs(a.size, b, n)).solve()
    if values is None:
        return None
    return OperationTable(n, a.size, values)


def _term_pairs(size: int, b: Subset, n: int) -> list:
    """The restriction pairs of `absorption_term_search` over power(A, n):
    (rank of (e, ..., e), the mask of e) for each element e, then (rank,
    mask of B) for each n-tuple with at most one coordinate outside B.

    The ranks come from `product_ranks`: those of B^n, then those of
    B^i x (A\\B) x B^(n-1-i) for each position i.
    """
    bs = b.sorted_elements()
    outside = [e for e in range(size) if e not in b.elements]
    pairs = [(tuple_rank((e,) * n, size), 1 << e) for e in range(size)]
    pools = [[bs] * n] + [[bs] * i + [outside] + [bs] * (n - 1 - i) for i in range(n)]
    bmask = sum(1 << e for e in bs)
    pairs.extend((rank, bmask) for p in pools for rank in product_ranks(p, size))
    return pairs
