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
into a value set (the decider's coverage tables).  `restrict`, the
search, `project` and `cover` all narrow by `_narrow`, which resumes
`_gac` from the vertices that narrowed; `_gac` has no other entry.

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
(`_power_neighbours`).  A scope of an n-ary R^k is a k-tuple of R's rows,
and a symmetry of R acts on all k rows at once, so the orbits of the
scopes are those of the group G that the symmetries generate, acting on
k-tuples of rows.  A stabiliser chain over R's sorted rows keeps one
tuple of each, by Schreier's lemma and without enumerating G
(`_orbit_scopes`).

A revision of an n-ary constraint is a pure function of its target
relation's allowed tuples and the domain masks of its scope, so every
target relation carries one memo, shared by all constraints on it, from
the tuple of scope masks to the revision's result (the supported mask of
each position, or a wipeout).  Only a miss scans the allowed tuples.
Every memo holds at most `_REVISION_MEMO_SIZE` entries (it is cleared
when full) and lives on the instance's network, which `fixpoint` (or
`power_fixpoint`) builds and `restrict` passes on: it is freed with the
last fixpoint of the query that built it.

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
touched and reads the others back.  A source of one part is searched as
one part of every vertex, with no memo.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, combinations, product
from operator import itemgetter

from .errors import CapExceeded, InputError
from .model import (
    OperationTable,
    Record,
    Relation,
    RelationalStructure,
    Subset,
    subset,
    tuple_rank,
)

# annotations stay strings, so typing is read by type checkers only
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional

DEFAULT_VERTEX_CAP = 10 ** 6

# Entries per support or revision memo of one instance's network; a full
# memo is cleared before the next insert.  A support memo has one key per
# mask of target values, and the benchmark queries miss on at most 72 of
# 3,592 support lookups (leq8 term 3) and 524 of 203,185 n-ary revisions
# (min4 decide with certificate), so only far larger instances reach the
# bound.
_REVISION_MEMO_SIZE = 1 << 16


class EssentialWitness(Record):
    """Generators of a B-essential subpower in the canonical one-per-row form:
    the i-th generator lies in B^(i-1) x (A\\B) x B^(n-i)."""

    arity: int
    generators: tuple
    generated: Relation


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
    in some scope of it, one (memo, rows, neighbours) entry: rows[a] is the
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


def _gac(masks, net, queue):
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
                    s = _support(rows, m)
                    if len(memo) >= _REVISION_MEMO_SIZE:
                        memo.clear()
                    memo[m] = s
                if s == full:
                    # masks hold only target values: no neighbour narrows
                    continue
                for w in neighbours:
                    mw = masks[w]
                    if mw & s != mw:
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
            supported = _revise(allowed, key)
            if len(memo) >= _REVISION_MEMO_SIZE:
                memo.clear()
            memo[key] = supported
        if supported is None:
            return False
        if supported == key:
            continue
        for v, s in zip(scope, supported):
            m = masks[v]
            if m & s != m:
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


def _narrow(masks, net, pairs):
    """masks, a fixpoint left unmodified, with each (vertex, value bitmask)
    pair and-ed in and propagated from the vertices that narrowed: a new
    list, masks itself when none did, or None on a wipeout."""
    narrowed = list(masks)
    changed = []
    for v, mask in pairs:
        m = narrowed[v] & mask
        if m != narrowed[v]:
            if m == 0:
                return None
            narrowed[v] = m
            changed.append(v)
    if not changed:
        return masks
    return narrowed if _gac(narrowed, net, changed) else None


def _bits(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


# `_mrv_vertex`'s byte map of candidate counts: 0 and 1 read as 255.
_MRV_COUNTS = bytes([255, 255]) + bytes(range(2, 256))


def _mrv_vertex(masks):
    """The unassigned vertex with fewest candidates (lowest index on ties), or -1.

    The candidate counts are one byte string, scanned in C.  `_MRV_COUNTS`
    turns an assigned vertex's count into 255, so the first least byte
    below 255 is the answer; when there is none, the open vertices are the
    ones with exactly 255 candidates.  A count over 255 does not fit in a
    byte (only a target of more than 255 elements allows one), and then
    the loop of `_mrv_scan` runs instead.
    """
    try:
        raw = bytes(map(int.bit_count, masks))
    except ValueError:
        return _mrv_scan(masks)
    counts = raw.translate(_MRV_COUNTS)
    fewest = min(counts, default=255)
    if fewest < 255:
        return counts.index(fewest)
    return raw.find(255)


def _mrv_scan(masks):
    """`_mrv_vertex` by a loop over the vertices, for any count."""
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


def _search_part(masks, net, part):
    """The first solution of one part under MRV + lexicographic value order,
    as the masks of all vertices, or None.

    masks must be a fixpoint; it is not modified.  part lists the part's
    vertices in ascending order, or is None for every vertex.  MRV reads
    only the part's masks, so only the part's vertices are branched on,
    and the vertices outside it keep their masks (propagation from a
    vertex stays in its part).  The search is depth-first with an explicit
    stack of (masks, vertex, remaining values) frames, so the depth is
    bounded by the vertex count, not by Python's recursion limit; each
    frame keeps the masks before its branch, and each value is tried by
    `_narrow` on them.
    """
    stack = []
    while True:
        if part is None:
            best = _mrv_vertex(masks)
        else:
            best = _mrv_vertex(tuple(map(masks.__getitem__, part)))
            if best >= 0:
                best = part[best]
        if best < 0:
            return masks
        stack.append((masks, best, iter(_bits(masks[best]))))
        masks = None
        while masks is None:
            if not stack:
                return None
            parent, v, values = stack[-1]
            for val in values:
                masks = _narrow(parent, net, ((v, 1 << val),))
                if masks is not None:
                    break
            else:
                stack.pop()


def _search(masks, net):
    """First solution under MRV + lexicographic value order, or None.

    masks must be a fixpoint.  The rule: branch on the vertex of fewest
    candidates above one, the lowest index on ties, try its values in
    ascending order, and propagate after each.  On a source of one
    component, `_search_part` does that over every vertex.  Otherwise each
    part is searched on its own in turn, the answer is None as soon as one
    part has no solution, and each free vertex takes its lowest value.

    A part's first solution depends on the part's masks alone, so it is
    memoised in net.solved by (part index, those masks).  The memo is
    cleared before an insert once its entries times the largest part reach
    `_REVISION_MEMO_SIZE`, which bounds the masks it holds.  A `cover`
    trial or a solve after a `restrict` so searches only the parts that
    the restriction changed, and reads the others back.

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
    if _mrv_vertex(masks) < 0:
        return masks
    comps = _components(net)
    if len(comps.parts) == 1 and not comps.free:
        return _search_part(masks, net, None)
    largest = max(map(len, comps.parts), default=0)
    solved = net.solved
    work = list(masks)
    for i, part in enumerate(comps.parts):
        key = (i, tuple(map(work.__getitem__, part)))
        try:
            found = solved[key]
        except KeyError:
            found = _search_part(work, net, part)
            if found is not None:
                found = tuple(map(found.__getitem__, part))
            if len(solved) * largest >= _REVISION_MEMO_SIZE:
                solved.clear()
            solved[key] = found
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

    The answers are `solve` (the first solution), `solve_at` (the least
    value in a mask that some solution gives one vertex, with the first
    solution that does), `cover` and `project`.  On a min-closed target
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

        Propagation resumes from the constraints of the vertices that
        narrowed, and nothing runs when none did; a vertex left with no
        value is a wipeout.  Bits beyond the target domain are and-ed away.
        """
        pairs = tuple(pairs)
        self._check_vertices(v for v, _ in pairs)
        if self.masks is None:
            return self
        masks = _narrow(self.masks, self.net, pairs)
        if masks is self.masks:
            return self
        return Fixpoint(self.source, self.target, None if masks is None else tuple(masks), self.net)

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
        """(x, the first solution with vertex restricted to x) for the least
        value x in the value bitmask that some solution gives vertex, or None.

        The answer is that of restricting vertex to each value of mask in
        ascending order and solving, at the first value with a solution.  A
        value outside the vertex's mask wipes out there, so only the values
        of both masks are tried.  On a min-closed target whose minimum m at vertex lies in
        mask, the answer is (m, the minima), with no restrict: the minima
        are a solution with vertex = m, so restricting vertex to m keeps
        them, and as propagation removes no value of a solution, the minima
        of the restricted fixpoint are the old ones, which `solve` returns.
        """
        self._check_vertices((vertex,))
        masks = self.masks
        if masks is None:
            return None
        least = _lowest(masks[vertex])
        if self.net.pick is _lowest and least & mask:
            return least.bit_length() - 1, self.solve()
        for x in _bits(masks[vertex] & mask):
            values = self.restrict(((vertex, 1 << x),)).solve()
            if values is not None:
                return x, values
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
        """
        pending = self._check_vertices(pending)
        if self.masks is None:
            return frozenset()
        net = self.net
        pick = net.pick
        todo = sorted(v for v in set(pending) if self.masks[v] & mask)
        covered = set()
        for v in todo:
            if v in covered:
                continue
            trial = _narrow(self.masks, net, ((v, mask),))
            if trial is None:
                continue
            if pick is not None:
                covered.update(w for w in todo if pick(trial[w]) & mask)
                continue
            solution = _search(trial, net)
            if solution is not None:
                covered.update(w for w in todo if solution[w] & mask)
        return frozenset(covered)

    def project(self, vertices) -> frozenset:
        """The distinct tuples of values that solutions take at vertices.

        Shared-prefix search: branch on the listed vertices in order, with
        incremental GAC after each choice; each surviving leaf is kept when
        one search extends it to the remaining vertices, or at once on a
        min- or max-closed target (see `_closed_pick`).  A repeated vertex
        takes the same value at each of its positions.
        """
        vertices = self._check_vertices(vertices)
        if self.masks is None:
            return frozenset()
        net = self.net
        out = set()
        stack = [(self.masks, 0)]
        while stack:
            masks, depth = stack.pop()
            if depth == len(vertices):
                if net.pick is not None or _search(masks, net) is not None:
                    out.add(tuple(masks[v].bit_length() - 1 for v in vertices))
                continue
            v = vertices[depth]
            for val in _bits(masks[v]):
                child = _narrow(masks, net, ((v, 1 << val),))
                if child is not None:
                    stack.append((child, depth + 1))
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
    R gives `_power_neighbours`, and an n-ary R one scope per orbit
    (`_orbit_scopes`); an empty R has no scopes and is skipped.
    """
    size = a.size
    for name, rel in a.relations:
        rows = rel.sorted_tuples()
        if not rows:
            continue
        if rel.arity == 1:
            elements = [e for (e,) in rows]
            ranks = [0]
            for _ in range(k):
                ranks = [r + e for r in [r * size for r in ranks] for e in elements]
            yield name, 1, ranks
        elif rel.arity == 2:
            yield name, 2, [_power_neighbours(rows, size, k, i) for i in (0, 1)]
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

    A stabiliser chain finds them.  At each depth, each orbit of the
    prefix's stabiliser on the rows is walked from its least row x,
    recording for each row y reached an element u_y that maps x to y.  By
    Schreier's lemma, the elements u_(g(y))^-1 g u_y over the orbit's rows
    y and the generators g generate the stabiliser of x (Seress,
    Permutation Group Algorithms, CUP 2003, section 4.1); the last depth
    needs none.  Once a stabiliser acts trivially, every tail is its own
    orbit, and the scopes of all tails come from rank arithmetic as in
    `power_blocks`.  G itself is never enumerated.
    """
    n = len(rows)
    identity = tuple(range(n))
    gens = set()
    if n > 1:
        index = {row: x for x, row in enumerate(rows)}
        gens = {tuple(map(index.__getitem__, map(g, rows))) for g in _symmetries(rel)}
        gens.discard(identity)
    cols = [[row[j] for row in rows] for j in range(rel.arity)]
    # tails[m][j]: the ranks, at position j, of the scopes of every m-tuple
    # of rows, in product order
    tails = [[[0]] * rel.arity]
    kept = []
    stack = [((0,) * rel.arity, 0, gens)]
    while stack:
        prefix, depth, gens = stack.pop()
        if not gens:
            m = k - depth
            while len(tails) <= m:
                tails.append([
                    [r + v for r in [p * size for p in tail] for v in col]
                    for tail, col in zip(tails[-1], cols)
                ])
            shift = size ** m
            kept.extend(zip(*[map((p * shift).__add__, tail) for p, tail in zip(prefix, tails[m])]))
            continue
        placed = [False] * n
        for x in range(n):
            if placed[x]:
                continue
            moved = {x: identity}
            orbit = [x]
            for y in orbit:
                for g in gens:
                    z = g[y]
                    if z not in moved:
                        moved[z] = tuple(map(g.__getitem__, moved[y]))
                        orbit.append(z)
            for y in orbit:
                placed[y] = True
            child = tuple(p * size + col[x] for p, col in zip(prefix, cols))
            if depth + 1 == k:
                kept.append(child)
                continue
            back = {y: _inverse(u) for y, u in moved.items()}
            stabiliser = {
                tuple(map(back[g[y]].__getitem__, map(g.__getitem__, moved[y])))
                for y in orbit
                for g in gens
            }
            stabiliser.discard(identity)
            stack.append((child, depth + 1, stabiliser))
    return kept


def _columns(generators, size):
    """Vertex ranks of the generator columns in power(A, len(generators))."""
    n = len(generators[0])
    return [
        tuple_rank([g[j] for g in generators], size)
        for j in range(n)
    ]


def generate_subpower(a: RelationalStructure, s, n: int, cap: int = DEFAULT_VERTEX_CAP) -> Relation:
    """The subpower of A^n generated by s: the values that the polymorphisms
    of arity |s| take at the generator columns."""
    s = [tuple(g) for g in s]
    if not s:
        raise InputError("generator list must be nonempty")
    if any(len(g) != n for g in s):
        raise InputError("generator arity mismatch")
    return Relation(n, power_fixpoint(a, len(s), cap).project(_columns(s, a.size)))


def closure_unary(a: RelationalStructure, b: Subset, cap: int = DEFAULT_VERTEX_CAP):
    """Smallest subuniverse containing b, plus a flag: closure == b."""
    b.check_bounds(a.size)
    gens = [(e,) for e in b.sorted_elements()]
    closed = subset(t[0] for t in generate_subpower(a, gens, 1, cap).tuples)
    return closed, closed.elements == b.elements


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
) -> Optional[EssentialWitness]:
    """First (lexicographic) generator list whose subpower avoids B^n, or None.

    Avoidance is certified by a single CSP: the power(A,n) -> A instance with
    every generator column restricted to B has no homomorphism.  Each
    candidate restricts one fixpoint of power(A,n), and the witness's
    relation is that fixpoint projected onto its generator columns.
    """
    b.check_bounds(a.size)
    if n < 2:
        raise InputError("essential witnesses require arity >= 2")
    if len(b) == a.size:
        return None
    choices = list(_essential_generator_choices(a, b, n))
    base = power_fixpoint(a, n, cap)
    bmask = sum(1 << e for e in b.elements)
    for gens in product(*choices):
        cols = _columns(gens, a.size)
        if base.restrict((c, bmask) for c in cols).solve() is None:
            return EssentialWitness(n, gens, Relation(n, base.project(cols)))
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

    The ranks come from rank arithmetic, one coordinate at a time: a tuple
    of rank r extended by e has rank r * size + e.  inside holds the
    tuples over B, and one_out those with exactly one coordinate outside.
    """
    bs = b.sorted_elements()
    outside = [e for e in range(size) if e not in b.elements]
    pairs = [(tuple_rank((e,) * n, size), 1 << e) for e in range(size)]
    inside, one_out = [0], []
    for _ in range(n):
        inside, one_out = (
            [r + e for r in [r * size for r in inside] for e in bs],
            [r + e for r in [r * size for r in one_out] for e in bs]
            + [r + e for r in [r * size for r in inside] for e in outside],
        )
    bmask = sum(1 << e for e in bs)
    pairs.extend((rank, bmask) for rank in chain(inside, one_out))
    return pairs
