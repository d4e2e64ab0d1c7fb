"""CSP engine and the subpower layer, cross-checked against brute force."""

import gc
import sys
import weakref
from itertools import combinations, groupby, product
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from absorb import engine
from absorb import (
    CapExceeded,
    Fixpoint,
    InputError,
    OperationTable,
    Power,
    Relation,
    absorption_term_search,
    closure_unary,
    essential_witness_search,
    fixpoint,
    full_relation,
    generate_subpower,
    is_b_essential,
    power_fixpoint,
    relation,
    structure,
    subset,
    tuple_rank,
    unrank_tuple,
    with_singletons,
)
from bruteforce import (
    absorption_term_oracle,
    closure_unary_oracle,
    generated_subpower_oracle,
    polymorphisms,
)
from fixtures import AFF, B0, B1, LEQ, NEQ, aff2, corpus2, neq2, ord2
from reference import (
    is_member,
    reference_cover,
    reference_essential_witness,
    reference_gac,
    reference_power_structure,
    reference_project,
    reference_solve,
    subpower_membership,
)


def membership_route(a, s):
    """The subpower generated by s, one membership CSP per candidate tuple,
    each a restriction of one fixpoint of power(A, |s|)."""
    base = fixpoint(reference_power_structure(a, len(s)), a)
    n = len(s[0])
    return {t for t in product(range(a.size), repeat=n) if is_member(base, s, t)}


class TestHoms:
    def test_identity_instance_keeps_full_domains(self):
        assert fixpoint(ord2(), ord2()).masks == (0b01, 0b10)
        # the singleton relations already pin everything; drop them instead
        bare = structure(2, {"leq": LEQ})
        assert fixpoint(bare, bare).masks == (0b11, 0b11)

    def test_singleton_pin_conflict_is_inconsistent(self):
        fp = fixpoint(ord2(), ord2()).restrict(((0, 0b10),))
        assert fp.masks is None
        assert fp.solve() is None

    def test_idempotent_fixpoint(self):
        bare = structure(2, {"leq": LEQ})
        once = fixpoint(bare, bare).restrict(((0, 0b01),))
        assert once.masks == (0b01, 0b11)
        # restricting nothing, or to a superset of the mask, narrows nothing
        assert once.restrict(()) is once
        assert once.restrict(((0, 0b01), (1, 0b11))) is once

    def test_identity_found(self):
        assert fixpoint(ord2(), ord2()).solve() == (0, 1)

    def test_pinned_hom_is_min_table(self):
        p = reference_power_structure(ord2(), 2)
        pairs = ((tuple_rank((0, 1), 2), 0b01), (tuple_rank((1, 0), 2), 0b01))
        values = fixpoint(p, ord2()).restrict(pairs).solve()
        # oracle: the only binary polymorphisms with f(0,1)=f(1,0)=0
        matches = [
            f.values
            for f in polymorphisms(ord2(), 2)
            if f.apply((0, 1)) == 0 and f.apply((1, 0)) == 0
        ]
        assert values in matches
        assert values == (0, 0, 0, 1)

    def test_empty_constraint_kills_instance(self):
        src = structure(2, {"r": relation(2, [(0, 1)])})
        tgt = structure(2, {"r": relation(2, [])})
        assert fixpoint(src, tgt).solve() is None

    def test_signature_mismatch_rejected(self):
        with pytest.raises(InputError):
            fixpoint(ord2(), aff2())

    def test_vertex_out_of_range_rejected(self):
        fp = fixpoint(ord2(), ord2())
        wiped = fp.restrict(((0, 0b10),))
        for f in (fp, wiped):
            for v in (-1, 2):
                with pytest.raises(InputError, match="vertex %d out of range" % v):
                    f.restrict(((v, 0b01),))

    def test_project_and_cover_reject_vertices_out_of_range(self):
        bare = structure(3, {"leq": [(x, y) for x in range(3) for y in range(3) if x <= y]})
        fp = fixpoint(bare, bare)
        wiped = fp.restrict(((0, 0b100), (1, 0b001)))
        assert wiped.masks is None
        for f in (fp, wiped):
            # a negative vertex would otherwise read a vertex from the end
            with pytest.raises(InputError, match="vertex -3 out of range"):
                f.project([1, -3])
            with pytest.raises(InputError, match="vertex 3 out of range"):
                f.project([3])
            with pytest.raises(InputError, match="vertex 5 out of range"):
                f.cover([5], 0b001)
            with pytest.raises(InputError, match="vertex -1 out of range"):
                f.cover([0, -1], 0b001)


ARITIES = {"u": 1, "r": 2, "t": 3}


def draw_instance(data, max_vertices):
    """A random 3-element target with unary, binary and ternary relations,
    and a source of few vertices, so that scopes often repeat a vertex."""
    value = st.integers(0, 2)
    target = structure(3, {
        name: relation(k, data.draw(st.sets(st.tuples(*[value] * k), max_size=12)))
        for name, k in ARITIES.items()
    })
    n = data.draw(st.integers(1, max_vertices))
    vertex = st.integers(0, n - 1)
    source = structure(n, {
        name: relation(k, data.draw(st.sets(st.tuples(*[vertex] * k), max_size=6)))
        for name, k in ARITIES.items()
    })
    return source, target


def close_under(tuples, op):
    """The least superset of tuples that holds op, applied coordinatewise,
    of any two of its members."""
    closed = set(tuples)
    while True:
        new = {tuple(map(op, s, t)) for s in closed for t in closed} - closed
        if not new:
            return closed
        closed |= new


class TestClosedTargets:
    """Answers read off the fixpoint of a min- or max-closed target against
    the search."""

    def test_closure_of_the_target(self):
        pairs = list(product(range(3), repeat=2))
        leq = structure(3, {"r": [(x, y) for x, y in pairs if x <= y]})
        at_least_one = structure(3, {"r": [(x, y) for x, y in pairs if max(x, y) >= 1]})
        swap = structure(3, {"r": [(0, 1), (1, 0)]})
        # the names are those of the relations with scopes in the source
        assert engine._closed_pick(("r",), leq) is engine._lowest
        assert engine._closed_pick(("r",), at_least_one) is engine._highest
        assert engine._closed_pick(("r",), swap) is None
        # a relation that holds every tuple is closed under both
        full = structure(3, {"f": full_relation(3, 2), "r": at_least_one.rel("r")})
        assert engine._closed_pick(("f", "r"), full) is engine._highest
        # a relation without scopes in the source constrains nothing: the
        # network does not name it
        both = structure(3, {"r": leq.rel("r"), "s": swap.rel("r")})
        uses_r = structure(2, {"r": [(0, 1)], "s": Relation(2, frozenset())})
        assert engine._closed_pick(("r", "s"), both) is None
        assert engine._closed_pick(("r",), both) is engine._lowest
        fp = fixpoint(uses_r, both)
        assert fp.net.pick is engine._lowest
        assert fp.solve() == reference_solve(fp) == (0, 0)
        # the minima of a max-closed target need not be a solution
        fp = fixpoint(structure(2, {"r": [(0, 1)]}), at_least_one)
        assert fp.masks == (0b111, 0b111)
        assert fp.solve() == reference_solve(fp) == (0, 1)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), op=st.sampled_from((min, max)))
    def test_answers_match_the_search(self, data, op):
        source, drawn = draw_instance(data, 5)
        target = structure(3, {
            name: relation(rel.arity, close_under(rel.tuples, op)) for name, rel in drawn.relations
        })
        base = fixpoint(source, target)
        pick = base.net.pick
        assert pick is engine._lowest if op is min else pick is not None
        n = source.size
        vertex = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, st.integers(1, 7)), max_size=4))
        fp = base.restrict(pairs)
        assert fp.solve() == reference_solve(fp)
        pending = data.draw(st.lists(vertex, max_size=n))
        mask = data.draw(st.integers(1, 7))
        assert fp.cover(pending, mask) == reference_cover(fp, pending, mask)
        vertices = data.draw(st.lists(vertex, max_size=3))
        assert fp.project(vertices) == reference_project(fp, vertices)


def restrict_and_solve(fp, vertex, mask):
    """Fixpoint.solve_at by restricting vertex to each value of mask in
    ascending order, the first solution taken by the reference search."""
    for x in range(fp.target.size):
        if (mask >> x) & 1:
            values = reference_solve(fp.restrict(((vertex, 1 << x),)))
            if values is not None:
                return x, values
    return None


class TestSolveAt:
    """The least value in a mask that some solution gives a vertex, with the
    first solution that gives it, against one restricted solve per value."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), op=st.sampled_from((min, max, None)))
    def test_matches_restrict_and_solve(self, data, op):
        source, target = draw_instance(data, 5)
        if op is not None:
            target = structure(3, {
                name: relation(rel.arity, close_under(rel.tuples, op))
                for name, rel in target.relations
            })
        base = fixpoint(source, target)
        if op is min:
            assert base.net.pick is engine._lowest
        n = source.size
        vertex = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, st.integers(1, 7)), max_size=3))
        fp = base.restrict(pairs)
        v = data.draw(vertex)
        mask = data.draw(st.integers(0, 7))
        assert fp.solve_at(v, mask) == restrict_and_solve(fp, v, mask)

    def test_min_closed_minimum_in_the_mask_is_read_off(self, monkeypatch):
        less = structure(3, {"r": [(x, y) for x, y in product(range(3), repeat=2) if x < y]})
        fp = fixpoint(structure(3, {"r": [(0, 1), (0, 2)]}), less)
        assert fp.net.pick is engine._lowest
        assert fp.masks == (0b011, 0b110, 0b110)
        expected = restrict_and_solve(fp, 2, 0b110)
        assert expected == (1, (0, 1, 1))

        def no_restrict(self, pairs):
            raise AssertionError("restricted")

        monkeypatch.setattr(Fixpoint, "restrict", no_restrict)
        assert fp.solve_at(2, 0b110) == expected
        # a mask without the minimum is answered by restricting
        with pytest.raises(AssertionError, match="restricted"):
            fp.solve_at(2, 0b100)

    def test_wipeout_and_vertex_range(self):
        # a loop has no image in a loopless target
        fp = fixpoint(structure(2, {"r": [(0, 0)]}), structure(2, {"r": [(0, 1)]}))
        assert fp.masks is None and fp.solve_at(0, 0b11) is None
        fp = fixpoint(structure(2, {"r": [(0, 1)]}), structure(2, {"r": [(0, 1)]}))
        assert fp.solve_at(1, 0b01) is None
        with pytest.raises(InputError, match="vertex 2 out of range"):
            fp.solve_at(2, 0b11)


def draw_disjoint_instance(data):
    """A disjoint union of 2 to 4 `draw_instance` draws on one 3-element
    target: each draw's relations are renamed apart in both structures, and
    its vertices are shifted past those of the draws before it."""
    source_rels, target_rels = {}, {}
    offset = 0
    for i in range(data.draw(st.integers(2, 4))):
        source, target = draw_instance(data, 4)
        for name, rel in target.relations:
            target_rels["%s%d" % (name, i)] = rel
        for name, rel in source.relations:
            shifted = [tuple(v + offset for v in t) for t in rel.tuples]
            source_rels["%s%d" % (name, i)] = relation(rel.arity, shifted)
        offset += source.size
    return structure(offset, source_rels), structure(3, target_rels)


def components_by_union_find(source):
    """(parts, free) of a source by union-find over its scopes of arity >= 2."""
    parent = list(range(source.size))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    scoped = set()
    for _, rel in source.relations:
        if rel.arity >= 2:
            for scope in rel.tuples:
                scoped.update(scope)
                for v in scope[1:]:
                    parent[root(v)] = root(scope[0])
    parts = {}
    for v in sorted(scoped):
        parts.setdefault(root(v), []).append(v)
    free = [v for v in range(source.size) if v not in scoped]
    return sorted(parts.values()), free


# one 3-element target for the pinned disconnected instances: r is the swap
# of 0 and 1, n is "not equal", t a 3-cycle with no constant tuple, and u
# the unary {1, 2}
COMPONENT_TARGET = structure(3, {
    "r": [(0, 1), (1, 0)],
    "t": [(0, 1, 2), (1, 2, 0), (2, 0, 1)],
    "u": [(1,), (2,)],
    "n": [(x, y) for x in range(3) for y in range(3) if x != y],
})


def component_source(size, **rels):
    arities = {"r": 2, "t": 3, "u": 1, "n": 2}
    return structure(size, {name: relation(k, rels.get(name, ())) for name, k in arities.items()})


class TestComponents:
    """The search one connected component at a time against
    `reference_search`, which searches the whole instance at once."""

    def check(self, source, target=COMPONENT_TARGET):
        """fp's answers against the references, every vertex pending and
        every pair of vertices projected; returns fp."""
        fp = fixpoint(source, target)
        assert fp.solve() == reference_solve(fp)
        for mask in range(1, 8):
            assert fp.cover(range(source.size), mask) == reference_cover(fp, range(source.size), mask)
        for pair in product(range(source.size), repeat=2):
            assert fp.project(pair) == reference_project(fp, pair)
        return fp

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_answers_match_the_whole_search(self, data):
        source, target = draw_disjoint_instance(data)
        n = source.size
        base = fixpoint(source, target)
        parts, free = components_by_union_find(source)
        comps = engine._components(base.net)
        assert (comps.parts, comps.free) == (parts, free)
        vertex = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, st.integers(1, 7)), max_size=3))
        fp = base.restrict(pairs)
        assert fp.solve() == reference_solve(fp)
        pending = data.draw(st.lists(vertex, max_size=n))
        mask = data.draw(st.integers(1, 7))
        assert fp.cover(pending, mask) == reference_cover(fp, pending, mask)
        vertices = data.draw(st.lists(vertex, max_size=3))
        assert fp.project(vertices) == reference_project(fp, vertices)
        # the memo now holds the answers for fp's parts; a narrowed part
        # must be searched again, the others read back
        for v in range(n):
            for value in range(3):
                narrowed = fp.restrict(((v, 1 << value),))
                assert narrowed.solve() == reference_solve(narrowed)

    def test_a_free_vertex_takes_its_lowest_value(self):
        # vertex 2 is in no scope of arity 2 or more; u leaves it {1, 2}
        fp = self.check(component_source(3, r=[(0, 1)], u=[(2,)]))
        assert engine._components(fp.net).free == [2]
        assert fp.solve() == (0, 1, 1)

    def test_a_loop_scope_on_an_isolated_vertex_is_searched(self):
        # arc consistency keeps {0, 1} at vertex 0, but r has no (a, a)
        fp = self.check(component_source(2, r=[(0, 0)]))
        assert fp.masks == (0b011, 0b111)
        assert fp.solve() is None
        assert fp.cover([1], 0b001) == frozenset()

    def test_an_nary_scope_that_repeats_a_vertex_is_searched(self):
        # (0, 0, 0) keeps every value at each position, but t has no
        # constant tuple; vertex 1 is free
        fp = self.check(component_source(2, t=[(0, 0, 0)]))
        assert fp.masks == (0b111, 0b111)
        assert fp.solve() is None

    def test_an_unsatisfiable_part_beside_satisfiable_ones(self):
        # parts {0, 1} and {3, 4} have solutions, part {2} has none
        fp = self.check(component_source(5, r=[(0, 1), (2, 2), (3, 4)]))
        assert fp.solve() is None
        assert fp.cover(range(5), 0b111) == frozenset()
        assert fp.project([0]) == frozenset()

    def test_mrv_ties_across_parts(self):
        # two odd cycles of n (no 2-colouring within {0, 1}, three values
        # each) beside paths with fewer candidates; the whole search
        # branches on both kinds of part in turn and backtracks across them
        source = component_source(
            9, n=[(0, 1), (1, 2), (2, 0), (6, 7), (7, 8), (8, 6)], r=[(3, 4), (4, 5)]
        )
        fp = self.check(source)
        assert fp.solve() == (0, 1, 2, 0, 1, 0, 0, 1, 2)
        fp = self.check(component_source(7, n=[(0, 1), (1, 2), (2, 0)], r=[(3, 4), (5, 6), (6, 6)]))
        assert fp.solve() is None

    def test_a_narrowed_part_is_searched_again(self):
        # n leaves both parts open before and after the narrowing, so each
        # solve reads or fills the memo
        fp = fixpoint(component_source(4, n=[(0, 1), (2, 3)]), COMPONENT_TARGET)
        assert fp.solve() == (0, 1, 0, 1)
        narrowed = fp.restrict(((2, 0b110),))
        assert narrowed.masks == (0b111, 0b111, 0b110, 0b111)
        assert narrowed.solve() == reference_solve(narrowed) == (0, 1, 1, 0)
        assert fp.solve() == (0, 1, 0, 1)

    def test_a_deep_single_component_search_needs_no_recursion_limit(self):
        # a path colored from 3 colors: each choice leaves the next vertex
        # two, so the whole search goes one level per vertex
        size = sys.getrecursionlimit() + 500
        source = component_source(size, n=[(v, v + 1) for v in range(size - 1)])
        fp = fixpoint(source, COMPONENT_TARGET)
        assert engine._components(fp.net).parts == [list(range(size))]
        assert fp.solve() == tuple(v % 2 for v in range(size))

    def test_one_component_leaves_the_memo_empty(self):
        # a connected source searches the whole instance as before
        fp = self.check(component_source(3, n=[(0, 1), (1, 2), (2, 0)]))
        net = fp.net
        assert engine._components(net) == engine._Components([[0, 1, 2]], [])
        assert net.solved == {}


class TestRevisionMemo:
    """engine._gac (memoised revisions along neighbour lists) against
    reference_gac (full scans of every scope position)."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_gac_matches_full_scan(self, data):
        source, target = draw_instance(data, 4)
        n = source.size
        vertex = st.integers(0, n - 1)
        net = fixpoint(source, target).net
        # later rounds meet the memo entries of earlier ones
        for _ in range(3):
            masks = data.draw(st.lists(st.integers(1, 7), min_size=n, max_size=n))
            mode = data.draw(st.sampled_from(("full", "queue", "incremental")))
            if mode == "full":
                # fixpoint's entry: the start masks and-ed in, every vertex
                # queued, against a reference run over every constraint
                fast = [m & s for m, s in zip(masks, net.start)]
                queue, ref_queue = range(n), None
            else:
                # a fixpoint, then some vertices narrowed and queued: one in
                # "incremental" mode, any number in "queue" mode
                if not reference_gac(source, target, masks):
                    continue
                if mode == "queue":
                    queue = data.draw(st.lists(vertex, unique=True))
                else:
                    queue = [data.draw(vertex)]
                for v in queue:
                    masks[v] &= data.draw(st.integers(1, 7))
                if 0 in masks:
                    continue
                fast, ref_queue = list(masks), queue
            slow = list(masks)
            consistent = 0 not in fast and engine._gac(fast, net, queue)
            assert consistent == reference_gac(source, target, slow, ref_queue)
            if consistent:
                assert fast == slow
        for _, allowed, memo in net.cons:
            # shared entries are immutable
            assert all(r is None or type(r) is tuple for r in memo.values())

    MIN3, _ = with_singletons(
        structure(3, {"min": [(x, y, min(x, y)) for x in range(3) for y in range(3)]})
    )
    LEQ3, _ = with_singletons(
        structure(3, {"leq": [(x, y) for x in range(3) for y in range(3) if x <= y]})
    )
    # power(PERM3, 3) falls apart into 9 cycles of 3 vertices, and the
    # target is closed under neither min nor max, so it searches part by part
    PERM3, _ = with_singletons(structure(3, {"r": [(x, (x + 1) % 3) for x in range(3)]}))

    def _results(self):
        """The answers of some queries on power(A, 3) for MIN3, LEQ3 and
        PERM3, and the networks of the three fixpoints they ran."""
        a = self.MIN3
        power = reference_power_structure(a, 3)
        pairs = ((tuple_rank((0, 1, 0), 3), 0b010), (tuple_rank((0, 1, 1), 3), 0b100))
        base = fixpoint(power, a)
        fp = base.restrict(pairs)
        gens = ((0, 1, 2), (2, 1, 0), (1, 1, 1))
        leq = fixpoint(reference_power_structure(self.LEQ3, 3), self.LEQ3)
        perm = fixpoint(reference_power_structure(self.PERM3, 3), self.PERM3)
        results = (
            fp.solve(),
            # generate_subpower's tuples, projected through fp's network
            base.project([tuple_rank(col, 3) for col in zip(*gens)]),
            fp,
            fp.cover(range(power.size), 0b011),
            [fp.restrict(((v, 0b001),)).solve() for v in range(0, power.size, 5)],
            absorption_term_search(a, subset([0]), 2),
            leq.cover(range(27), 0b010),
            perm.solve(),
            [perm.restrict(((v, 0b010),)).solve() for v in range(27)],
            [perm.cover(range(27), mask) for mask in (0b001, 0b110)],
            perm.project([1, 5, 13]),
        )
        return results, (fp.net, leq.net, perm.net)

    def test_clearing_a_full_memo_changes_nothing(self, monkeypatch):
        expected, _ = self._results()
        monkeypatch.setattr(engine, "_REVISION_MEMO_SIZE", 1)
        results, nets = self._results()
        assert results == expected
        for net in nets:
            memos = [con[2] for con in net.cons] + [e[0] for row in net.adj for e in row]
            assert memos and all(len(memo) <= 1 for memo in memos)
            assert len(net.solved) <= 1
        perm = nets[-1]
        assert len(engine._components(perm).parts) == 9 and perm.solved

    def test_nothing_outlives_the_query(self):
        # every memo lives on the network that the query's fixpoints carry,
        # so dropping them frees the power structure too
        for a in (self.MIN3, self.PERM3):
            power = reference_power_structure(a, 3)
            alive = weakref.ref(power)
            fp = fixpoint(power, a)
            narrowed = fp.restrict(((1, 0b010),))
            assert narrowed.net is fp.net
            narrowed.solve()
            fp.cover(range(power.size), 0b011)
            fp.project([1, 5, 13])
            del power, fp, narrowed
            gc.collect()
            assert alive() is None


def position_swaps(k):
    """Every transposition of k positions, and for k = 4 the three products
    of two disjoint transpositions, as tuples p: the image of a tuple t
    is (t[p[0]], ..., t[p[k-1]])."""
    perms = []
    for i, j in combinations(range(k), 2):
        p = list(range(k))
        p[i], p[j] = j, i
        perms.append(tuple(p))
    if k == 4:
        perms += [(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    return perms


def permuted(t, p):
    return tuple(t[i] for i in p)


def draw_symmetric_instance(data):
    """A 3-element target whose relation t, of arity 3 or 4, is closed under
    a random transposition or double transposition of its positions, beside
    random unary and binary relations, and a source of at most 4 vertices
    (so scopes often repeat a vertex) whose t-scopes hold the image of some
    of their scopes under that permutation and not of others, and some
    images under a swap that t need not be closed under."""
    k = data.draw(st.sampled_from((3, 4)))
    p = data.draw(st.sampled_from(position_swaps(k)))
    value = st.integers(0, 2)
    drawn = data.draw(st.sets(st.tuples(*[value] * k), min_size=3, max_size=30))
    target = structure(3, {
        "u": relation(1, data.draw(st.sets(st.tuples(value), min_size=1))),
        "r": relation(2, data.draw(st.sets(st.tuples(value, value), max_size=7))),
        "t": relation(k, drawn | {permuted(t, p) for t in drawn}),
    })
    n = data.draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    scopes = data.draw(st.lists(st.tuples(*[vertex] * k), min_size=2, max_size=5))
    # images under p, and under a swap q that t need not be closed under
    q = data.draw(st.sampled_from(position_swaps(k)))
    with_images = [permuted(s, g) for s in scopes for g in (p, q) if data.draw(st.booleans())]
    source = structure(n, {
        "u": relation(1, data.draw(st.sets(st.tuples(vertex), max_size=2))),
        "r": relation(2, data.draw(st.sets(st.tuples(vertex, vertex), max_size=3))),
        "t": relation(k, set(scopes) | set(with_images)),
    })
    return source, target


def check_against_reference(fp, pairs=()):
    """fp and its restriction by pairs against `reference_gac` from full
    masks, and the restriction's solve, cover and project against the
    reference search over every scope; returns the restriction."""
    source, target = fp.source, fp.target
    full = (1 << target.size) - 1
    for narrow in ((), pairs):
        masks = [full] * source.size
        for v, m in narrow:
            masks[v] &= m
        expected = None
        if 0 not in masks and reference_gac(source, target, masks):
            expected = tuple(masks)
        assert fp.restrict(narrow).masks == expected
    fp = fp.restrict(pairs)
    assert fp.solve() == reference_solve(fp)
    for mask in range(1, full + 1):
        assert fp.cover(range(source.size), mask) == reference_cover(fp, range(source.size), mask)
    for pair in product(range(source.size), repeat=2):
        assert fp.project(pair) == reference_project(fp, pair)
    return fp


AFF3W = structure(3, {"aff": [t for t in product(range(3), repeat=4) if (t[0] - t[1] + t[2] - t[3]) % 3 == 0]})


def min_graph(n):
    return structure(n, {"min": [(x, y, min(x, y)) for x in range(n) for y in range(n)]})


class TestSymmetricScopes:
    """Sources given by their tuples, whose n-ary scopes hold some of their
    images under their target relation's position symmetries and not
    others; every answer must be that of all the scopes, which
    `reference_gac` and the reference search revise one by one."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_answers_match_the_reference(self, data):
        source, target = draw_symmetric_instance(data)
        fp = fixpoint(source, target)
        vertex = st.integers(0, source.size - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, st.integers(1, 7)), max_size=2))
        check_against_reference(fp, pairs)

    def test_a_scope_whose_image_is_not_in_the_source(self):
        # t holds (1, 0, 2, 0) only beside (2, 0, 1, 0), its image under the
        # swap of positions 0 and 2, and nothing is symmetric otherwise
        t = [(1, 0, 2, 0), (2, 0, 1, 0), (0, 1, 0, 2), (2, 2, 0, 1), (0, 2, 2, 1)]
        target = structure(3, {"t": t})
        assert [g((0, 1, 2, 3)) for g in engine._symmetries(target.rel("t"))] == [(2, 1, 0, 3)]
        # the source holds (z, y, x, w) = (2, 1, 0, 3) but not (x, y, z, w),
        # and (0, 1, 0, 3), which repeats a vertex and is its own image
        lone = structure(4, {"t": [(2, 1, 0, 3), (0, 1, 0, 3)]})
        fp = fixpoint(lone, target)
        check_against_reference(fp, ((3, 0b001),))
        # with (x, y, z, w), and (3, 3, 1, 1), whose image (1, 3, 3, 1) is
        # missing
        both = structure(4, {"t": [(2, 1, 0, 3), (0, 1, 2, 3), (0, 1, 0, 3), (3, 3, 1, 1)]})
        fp = fixpoint(both, target)
        check_against_reference(fp)
        check_against_reference(fp, ((1, 0b100),))

    def test_no_symmetry_check_where_no_orbit_can_merge(self):
        # t is closed under the swap of positions 0 and 1
        target = structure(3, {"t": [(0, 1, 2), (1, 0, 2), (2, 2, 0)]})
        # scopes on distinct vertex sets
        distinct = structure(4, {"t": [(0, 1, 2), (1, 2, 3), (0, 0, 3)]})
        check_against_reference(fixpoint(distinct, target), ((3, 0b011),))
        # (0, 1, 2) and (1, 0, 2), one the other's image, share a vertex set
        shared = structure(4, {"t": [(0, 1, 2), (1, 0, 2), (0, 0, 3)]})
        check_against_reference(fixpoint(shared, target), ((3, 0b011),))

    def test_one_scope_per_orbit_of_the_benchmark_powers(self):
        cases = (
            (AFF3W, 3, 19_683, 2_835),
            (AFF3W, 2, 729, 135),
            (min_graph(3), 3, 729, 378),
            (min_graph(5), 3, 15_625, 7_875),
        )
        for a, n, total, orbits in cases:
            (name, rel), = a.relations
            # aff: (x z), (y w), (x y)(z w), (x z)(y w), (x w)(y z); min: (x y)
            gens = engine._symmetries(rel)
            assert len(gens) == (5 if rel.arity == 4 else 1)
            power = reference_power_structure(a, n).rel(name)
            assert len(power) == total
            left, count = set(power.tuples), 0
            while left:
                left -= orbit_closure([next(iter(left))], gens)
                count += 1
            assert count == orbits
            assert len(kept_scopes(power_fixpoint(a, n), a)[name]) == orbits

    def test_symmetry_detection_is_bounded(self, monkeypatch):
        # every permutation of ten positions maps {0^10, 1^10} onto itself;
        # only the transpositions and double transpositions are checked
        a = structure(2, {"e": [(0,) * 10, (1,) * 10]})
        checked = []
        swaps = engine._swaps

        def counted(k):
            for p in swaps(k):
                checked.append(p)
                yield p

        monkeypatch.setattr(engine, "_swaps", counted)
        assert absorption_term_search(a, B0, 2) == OperationTable(2, 2, (0, 0, 0, 1))
        assert len(checked) == len(set(checked)) == comb(10, 2) + 3 * comb(10, 4) == 675
        assert len(checked) < factorial(10)
        assert all(permuted(permuted(range(10), p), p) == tuple(range(10)) != p for p in checked)
        checked.clear()
        assert absorption_term_search(a, B1, 2) == OperationTable(2, 2, (0, 1, 1, 1))
        assert len(checked) == 675
        # power(A, 2)'s four scopes are constant tuples, each its own orbit
        assert len(power_fixpoint(a, 2).net.cons) == 4



def draw_power_instance(data):
    """A random structure of 2 or 3 elements with one relation of each arity
    1 to 4, any of them possibly empty, the ternary one holding a row that
    repeats an entry (so some scopes of its powers repeat a vertex), the
    n-ary ones often closed under a random transposition or double
    transposition of their positions; and an exponent of 1 to 3."""
    size = data.draw(st.integers(2, 3))
    value = st.integers(0, size - 1)
    rels = {}
    for name, k in (("u", 1), ("r", 2), ("t", 3), ("w", 4)):
        drawn = data.draw(st.sets(st.tuples(*[value] * k), max_size=5 if k < 4 else 4))
        if k == 3 and drawn:
            x, y = data.draw(st.tuples(value, value))
            drawn.add((x, x, y))
        if k > 2 and data.draw(st.booleans()):
            p = data.draw(st.sampled_from(position_swaps(k)))
            drawn |= {permuted(t, p) for t in drawn}
        rels[name] = relation(k, drawn)
    return structure(size, rels), data.draw(st.integers(1, 3))


def kept_scopes(fp, a):
    """{name: the n-ary scopes fp's network keeps of that relation}; the
    constraints of one relation share one revision memo and sit together."""
    names = [name for name, rel in a.relations if rel.arity > 2 and rel.tuples]
    groups = [[scope for scope, _, _ in g] for _, g in groupby(fp.net.cons, key=lambda c: id(c[2]))]
    return dict(zip(names, groups, strict=True))


def orbit_closure(scopes, gens):
    """The scopes reached from scopes by the permutations gens."""
    reached = set(scopes)
    stack = list(reached)
    while stack:
        s = stack.pop()
        for g in gens:
            if g(s) not in reached:
                reached.add(g(s))
                stack.append(g(s))
    return reached


def neighbour_lists(fp):
    """Each vertex's (rows, sorted neighbours) per binary relation and direction."""
    return [[(rows, sorted(out)) for _, rows, out in entries] for entries in fp.net.adj]


class TestPowerFixpoint:
    """power_fixpoint, built from A's rows, against the fixpoint of the
    power that reference_power_structure materialises, which keeps every
    scope."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_the_materialised_power(self, data):
        a, k = draw_power_instance(data)
        power = reference_power_structure(a, k)
        new, old = power_fixpoint(a, k), fixpoint(power, a)
        assert new.source == Power(a, k) and new.source.size == power.size
        assert new.net.start == old.net.start
        assert neighbour_lists(new) == neighbour_lists(old)
        assert new.net.pick is old.net.pick
        assert new.masks == old.masks
        new_kept, old_kept = kept_scopes(new, a), kept_scopes(old, a)
        assert new_kept.keys() == old_kept.keys()
        for name, scopes in new_kept.items():
            # each kept scope lies in an orbit of its own, and the orbits
            # cover R^k
            gens = engine._symmetries(a.rel(name))
            orbits = [orbit_closure([scope], gens) for scope in scopes]
            assert set().union(*orbits) == power.rel(name).tuples
            assert sum(map(len, orbits)) == len(power.rel(name))
        full = (1 << a.size) - 1
        vertex = st.integers(0, power.size - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, st.integers(1, full)), max_size=2))
        new, old = new.restrict(pairs), old.restrict(pairs)
        assert new.masks == old.masks
        masks = [full] * power.size
        for v, m in pairs:
            masks[v] &= m
        consistent = 0 not in masks and reference_gac(power, a, masks)
        assert old.masks == (tuple(masks) if consistent else None)
        assert new.solve() == old.solve() == reference_solve(old)
        mask = data.draw(st.integers(1, full))
        vertices = range(power.size)
        assert new.cover(vertices, mask) == old.cover(vertices, mask) == reference_cover(old, vertices, mask)
        pair = data.draw(st.tuples(vertex, vertex))
        assert new.project(pair) == old.project(pair) == reference_project(old, pair)

    def test_kept_counts_of_the_benchmark_powers(self):
        for a, n, kept in ((AFF3W, 3, 2_835), (AFF3W, 2, 135), (min_graph(3), 3, 378), (min_graph(5), 3, 7_875)):
            (name, _), = a.relations
            scopes = kept_scopes(power_fixpoint(a, n), a)[name]
            assert len(scopes) == kept
            assert set(scopes) <= reference_power_structure(a, n).rel(name).tuples

    def test_a_large_group_is_not_enumerated(self):
        # the ten unit vectors of arity 10 are permuted by all 10! position
        # permutations; the orbits of their k-tuples are the set partitions
        # of k positions, Bell(k) of them
        a = structure(2, {"e": [tuple(int(i == j) for i in range(10)) for j in range(10)]})
        for k, bell in ((1, 1), (2, 2), (3, 5), (4, 15)):
            assert len(power_fixpoint(a, k).net.cons) == bell

    def test_the_source_is_a_power(self):
        fp = power_fixpoint(ord2(), 2)
        assert fp.source == Power(ord2(), 2) and hash(fp.source) == hash(Power(ord2(), 2))
        assert fp.source != Power(ord2(), 3) and fp.source != reference_power_structure(ord2(), 2)
        assert repr(fp.source) == "Power(base=%r, k=2)" % (ord2(),)
        assert fp.source.size == 4
        materialised = fixpoint(reference_power_structure(ord2(), 2), ord2())
        assert fp.masks == materialised.masks
        assert fp == power_fixpoint(ord2(), 2) != materialised
        with pytest.raises(InputError, match="vertex 4 out of range"):
            fp.restrict(((4, 0b1),))
        with pytest.raises(AttributeError):
            fp.source.k = 3

    def test_caps_are_checked_before_anything_is_built(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("built before the caps were checked")

        monkeypatch.setattr(engine, "_power_scopes", unbuilt)
        monkeypatch.setattr(engine, "_assemble", unbuilt)
        full3 = structure(3, {"f": full_relation(3, 2)})
        with pytest.raises(InputError, match="^power exponent must be positive$"):
            power_fixpoint(ord2(), 0)
        with pytest.raises(CapExceeded, match="^power structure would have 16 vertices, cap is 10$"):
            power_fixpoint(ord2(), 4, cap=10)
        with pytest.raises(CapExceeded, match="^power structure would have 81 constraint scopes, cap is 50$"):
            power_fixpoint(full3, 2, cap=50)
        with pytest.raises(CapExceeded, match="^power structure would have 9 vertices, cap is 8$"):
            power_fixpoint(full3, 2, cap=8)
        with pytest.raises(AssertionError, match="built before"):
            power_fixpoint(full3, 2, cap=81)

class TestCover:
    """Fixpoint.cover and .restrict against an enumeration of all ternary
    polymorphisms."""

    def setup_method(self):
        self.a = structure(2, {"leq": LEQ})
        self.power = reference_power_structure(self.a, 3)
        self.pairs = ((tuple_rank((0, 1, 0), 2), 0b01),)
        self.fp = fixpoint(self.power, self.a).restrict(self.pairs)
        self.homs = [
            f.values
            for f in polymorphisms(self.a, 3)
            if f.values[tuple_rank((0, 1, 0), 2)] == 0
        ]

    def test_covered_are_the_vertices_some_hom_sends_into_the_mask(self):
        assert self.fp.cover(range(8), 0b10) == {
            v for v in range(8) if any(h[v] == 1 for h in self.homs)
        }
        assert self.fp.masks is not None

    def test_only_pending_vertices_are_covered(self):
        assert self.fp.cover([0, 1, 7], 0b11) == {0, 1, 7}

    def test_extend_is_a_fresh_solve_with_one_more_restriction(self):
        fresh = fixpoint(self.power, self.a)
        for v in range(8):
            for value in range(2):
                extended = self.fp.restrict(((v, 1 << value),)).solve()
                assert extended == fresh.restrict(self.pairs + ((v, 1 << value),)).solve()
                if any(h[v] == value for h in self.homs):
                    assert extended in self.homs and extended[v] == value
                else:
                    assert extended is None

    def test_start_from_a_relaxation_gives_the_same_coverage(self):
        masks = [0b11] * self.power.size
        for v, m in self.pairs:
            masks[v] &= m
        assert reference_gac(self.power, self.a, masks)
        net = fixpoint(self.power, self.a).net
        fresh = engine.Fixpoint(self.power, self.a, tuple(masks), net)
        restricted = fixpoint(self.power, self.a).restrict(self.pairs)
        assert restricted == fresh
        assert restricted.cover(range(8), 0b10) == fresh.cover(range(8), 0b10)

    def test_wipeout(self):
        fp = fixpoint(ord2(), ord2()).restrict(((0, 0b10),))
        assert fp.masks is None and fp.cover([0, 1], 0b11) == frozenset()
        assert fp.project([0, 1]) == frozenset()
        assert fp.restrict(((1, 0b10),)).solve() is None

    def test_restrict_outside_the_mask_is_a_wipeout(self):
        fp = fixpoint(ord2(), ord2())
        # ord2's singleton relations force vertex 0 to 0
        assert fp.restrict(((0, 0b10),)).masks is None
        assert fp.restrict(((1, 0b10), (1, 0b01))).masks is None


def draw_small_instance(data):
    """A random source and target of 2 or 3 elements each, with unary,
    binary and ternary relations."""
    sizes = [data.draw(st.integers(2, 3)) for _ in range(2)]
    source, target = (
        structure(size, {
            name: relation(k, data.draw(st.sets(st.tuples(*[st.integers(0, size - 1)] * k), max_size=6)))
            for name, k in ARITIES.items()
        })
        for size in sizes
    )
    return source, target


class TestFixpoint:
    """Restricting a fixpoint against arc consistency run from full domains."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_restrict_matches_the_reference_from_full_masks(self, data):
        source, target = draw_small_instance(data)
        n = source.size
        # masks up to 15 carry bits beyond a 2- or 3-element target domain
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, 15))
        p1 = tuple(data.draw(st.lists(pair, max_size=3)))
        p2 = tuple(data.draw(st.lists(pair, max_size=3)))
        fp = fixpoint(source, target)
        masks = [(1 << target.size) - 1] * n
        for v, m in p1 + p2:
            masks[v] &= m
        expected = None
        if 0 not in masks and reference_gac(source, target, masks):
            expected = tuple(masks)
        assert fp.restrict(p1 + p2).masks == expected
        assert fp.restrict(p1).restrict(p2) == fp.restrict(p1 + p2)

    def test_a_loop_scope_is_revised_against_its_own_vertex(self):
        # (0,1) supports 0 at the first position by 1 at the second, and
        # (1,0) supports 1, so arc consistency keeps both values; the unary
        # constraint {a : (a,a) in R} would be empty
        source = structure(1, {"r": [(0, 0)]})
        target = structure(2, {"r": [(0, 1), (1, 0)]})
        fp = fixpoint(source, target)
        masks = [0b11]
        assert reference_gac(source, target, masks) and masks == [0b11]
        assert fp.masks == (0b11,)
        assert fp.solve() is None

    def test_a_fixpoint_refuses_assignment(self):
        # it is hashed by its fields, so they must not change
        fp = fixpoint(structure(1, {"r": [(0, 0)]}), structure(1, {"r": [(0, 0)]}))
        for name in ("source", "target", "masks", "net"):
            with pytest.raises(AttributeError):
                setattr(fp, name, None)
            with pytest.raises(AttributeError):
                delattr(fp, name)
        assert fp.masks == (0b1,)

    def test_equal_masks_of_two_networks_are_one_fixpoint(self):
        one, two = fixpoint(ord2(), ord2()), fixpoint(ord2(), ord2())
        assert one.net is not two.net
        assert one == two and hash(one) == hash(two) and len({one, two}) == 1
        assert one != one.masks
        assert repr(one) == "Fixpoint(source=%r, target=%r, masks=(1, 2))" % (ord2(), ord2())


def fewest_candidates(masks):
    """The MRV rule by its definition: the open vertex of least (count, index)."""
    open_vertices = [(m.bit_count(), v) for v, m in enumerate(masks) if m & (m - 1)]
    return min(open_vertices, default=(0, -1))[1]


class TestMrvVertex:
    """The byte-string scan against the loop it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(masks=st.lists(st.integers(1, (1 << 12) - 1), max_size=40))
    def test_matches_the_loop(self, masks):
        assert engine._mrv_vertex(masks) == engine._mrv_scan(masks) == fewest_candidates(masks)

    def test_all_assigned(self):
        assert engine._mrv_vertex([]) == -1
        assert engine._mrv_vertex([1, 2, 4, 1 << 11]) == -1

    def test_more_than_254_candidates(self):
        full = (1 << 300) - 1
        cases = [
            [1, full, (1 << 255) - 1, 1 << 299],  # 255 beats 300
            [(1 << 255) - 1, 1, full],  # 255 fits in a byte
            [full, 1, (1 << 255) - 1],
            [4, (1 << 255) - 1, 8],  # only 255s open
            [(1 << 255) - 1, (1 << 254) - 1],  # 254 beats 255
            [full, 0b110, full],
        ]
        for masks in cases:
            assert engine._mrv_vertex(masks) == engine._mrv_scan(masks) == fewest_candidates(masks)


class TestSubpowers:
    def test_aff2_membership(self):
        a = aff2()
        s = [(1, 0), (0, 1)]
        assert not subpower_membership(a, s, (1, 1))
        assert subpower_membership(a, s, (0, 1))

    def test_ord2_membership(self):
        assert subpower_membership(ord2(), [(0, 1), (1, 0)], (0, 0))

    def test_generate_matches_bruteforce(self):
        for a, s in (
            (aff2(), ((1, 0), (0, 1))),
            (ord2(), ((0, 1), (1, 0))),
            (neq2(), ((0, 1), (1, 0))),
        ):
            got = generate_subpower(a, s, 2).tuples
            assert got == generated_subpower_oracle(a, s)

    def test_generate_ternary_matches_bruteforce(self):
        a = aff2()
        gens = ((0, 0, 0), (0, 1, 1), (1, 1, 0))
        got = generate_subpower(a, gens, 3).tuples
        assert got == generated_subpower_oracle(a, gens)

    def test_malformed_generators_rejected(self):
        with pytest.raises(InputError, match="generator list must be nonempty"):
            generate_subpower(ord2(), [], 2)
        with pytest.raises(InputError, match="generator arity mismatch"):
            generate_subpower(ord2(), [(0, 1), (0,)], 2)

    def test_singleton_generator(self):
        got = generate_subpower(ord2(), [(0, 0)], 2).tuples
        assert got == {(0, 0)}

    def test_generators_belong_and_closure_idempotent(self):
        a = ord2()
        s = ((0, 1), (1, 0))
        first = generate_subpower(a, s, 2).tuples
        assert set(s) <= first
        again = generate_subpower(a, tuple(sorted(first)), 2).tuples
        assert again == first

    def test_subpower_closed_under_all_polymorphisms(self):
        a = aff2()
        sub = generate_subpower(a, ((1, 0), (0, 1)), 2).tuples
        rows = sorted(sub)
        for f in polymorphisms(a, 2):
            for r1 in rows:
                for r2 in rows:
                    image = (f.apply((r1[0], r2[0])), f.apply((r1[1], r2[1])))
                    assert image in sub


class TestGenerateAgainstMembership:
    """generate_subpower (one projection) against the per-candidate route."""

    GENERATORS = (
        ((0, 1), (1, 0)),
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
        ((0, 0, 1), (1, 1, 0)),  # columns 0 and 1 repeat
    )

    def test_two_element_corpus(self):
        for a in {e.structure for e in corpus2().entries}:
            for s in self.GENERATORS:
                assert generate_subpower(a, s, len(s[0])).tuples == membership_route(a, s)

    def test_repeated_columns(self):
        min3 = structure(3, {"min": [(x, y, min(x, y)) for x in range(3) for y in range(3)]})
        # arc consistency leaves f(1) = 2 for the endomorphisms, but no
        # endomorphism takes it
        endo = structure(
            3, {"r": [(0, 0), (2, 2)], "t": [(0, 0, 0), (0, 2, 2), (2, 0, 2), (2, 2, 0), (2, 2, 1)]}
        )
        for a, s, (i, j) in (
            (min3, ((0, 0, 2), (1, 1, 0)), (0, 1)),
            (min3, ((2, 1, 2), (0, 1, 0), (1, 2, 1)), (0, 2)),
            (endo, ((1, 1),), (0, 1)),
        ):
            got = generate_subpower(a, s, len(s[0])).tuples
            assert got == membership_route(a, s)
            assert all(t[i] == t[j] for t in got)
        assert generate_subpower(endo, ((1, 1),), 2).tuples == {(0, 0), (1, 1)}

    @settings(max_examples=25, deadline=None)
    @given(
        binary=st.sets(st.tuples(*[st.integers(0, 2)] * 2), min_size=1),
        ternary=st.sets(st.tuples(*[st.integers(0, 2)] * 3), max_size=4),
        n=st.integers(1, 3),
        data=st.data(),
    )
    def test_random_three_element_structures(self, binary, ternary, n, data):
        rels = {"r": sorted(binary)}
        if ternary:
            rels["t"] = sorted(ternary)
        a = structure(3, rels)
        row = st.tuples(*[st.integers(0, 2)] * n)
        s = tuple(data.draw(st.lists(row, min_size=1, max_size=3)))
        assert generate_subpower(a, s, n).tuples == membership_route(a, s)


class TestClosureUnary:
    def test_aff2_singleton_closed(self):
        closed, flag = closure_unary(aff2(), B0)
        assert flag and closed == B0
        assert closure_unary_oracle(aff2(), B0) == {0}

    def test_neq_without_singletons_not_closed(self):
        bare = structure(2, {"neq": NEQ})
        closed, flag = closure_unary(bare, B0)
        assert not flag and closed.elements == frozenset({0, 1})
        assert closure_unary_oracle(bare, B0) == {0, 1}

    def test_singletons_force_closure(self):
        for b in (B0, B1):
            _, flag = closure_unary(ord2(), b)
            assert flag

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            closure_unary(ord2(), subset([]))


class TestBEssential:
    def test_neq_is_essential_for_b0(self):
        assert is_b_essential(neq2(), relation(2, NEQ), B0)

    def test_leq_is_not(self):
        assert not is_b_essential(ord2(), relation(2, LEQ), B0)

    def test_empty_relation_is_not(self):
        assert not is_b_essential(ord2(), relation(2, []), B0)

    def test_arity_one_rejected(self):
        with pytest.raises(InputError):
            is_b_essential(ord2(), relation(1, [(1,)]), B0)


class TestWitnessSearch:
    def test_aff2_witness(self):
        w = essential_witness_search(aff2(), B0, 2)
        assert w.generators == ((1, 0), (0, 1))
        assert w.generated.tuples == frozenset(NEQ)
        assert is_b_essential(aff2(), w.generated, B0)

    def test_ord2_has_none(self):
        assert essential_witness_search(ord2(), B0, 2) is None

    def test_arity_below_two_rejected(self):
        with pytest.raises(InputError, match="essential witnesses require arity >= 2"):
            essential_witness_search(aff2(), B0, 1)

    def test_b_equals_a_has_none(self):
        assert essential_witness_search(ord2(), subset([0, 1]), 2) is None

    def test_generator_shape(self):
        w = essential_witness_search(aff2(), B0, 3)
        assert w is not None
        for i, g in enumerate(w.generators):
            assert g[i] not in B0
            assert all(e in B0 for j, e in enumerate(g) if j != i)

    @settings(max_examples=40, deadline=None)
    @given(
        binary=st.sets(st.tuples(*[st.integers(0, 2)] * 2), min_size=1),
        ternary=st.sets(st.tuples(*[st.integers(0, 2)] * 3), max_size=4),
        elements=st.sampled_from(([0], [2], [0, 1], [1, 2])),
        n=st.integers(2, 3),
    )
    def test_random_three_element_structures(self, binary, ternary, elements, n):
        rels = {"r": sorted(binary)}
        if ternary:
            rels["t"] = sorted(ternary)
        a, b = structure(3, rels), subset(elements)
        assert essential_witness_search(a, b, n) == reference_essential_witness(a, b, n)


class TestTermSearch:
    def test_ord2_min(self):
        t = absorption_term_search(ord2(), B0, 2)
        assert t.values == (0, 0, 0, 1)
        assert t.values == absorption_term_oracle(ord2(), B0, 2).values

    def test_aff2_matches_oracle_at_3(self):
        assert absorption_term_search(aff2(), B0, 3) is None
        assert absorption_term_oracle(aff2(), B0, 3) is None

    def test_unary_identity_when_b_is_a(self):
        t = absorption_term_search(ord2(), subset([0, 1]), 1)
        assert t.values == (0, 1)

    def test_unary_absent_for_proper_b(self):
        assert absorption_term_search(ord2(), B0, 1) is None

    def test_restriction_pairs_match_the_rank_loop(self):
        # the pairs by rank arithmetic against a loop that unranks every vertex
        for size, n in product(range(1, 5), range(1, 4)):
            for mask in range(1, 1 << size):
                b = subset(e for e in range(size) if mask >> e & 1)
                loop = []
                for rank in range(size ** n):
                    t = unrank_tuple(rank, size, n)
                    if all(e == t[0] for e in t):
                        loop.append((rank, 1 << t[0]))
                    if sum(1 for e in t if e not in b.elements) <= 1:
                        loop.append((rank, mask))
                assert sorted(engine._term_pairs(size, b, n)) == sorted(loop)
