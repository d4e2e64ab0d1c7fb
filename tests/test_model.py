"""Core data model: relations, structures, tables, digraphs, walks."""

import pytest
from hypothesis import given, settings, strategies as st

from absorb import (
    Digraph,
    InputError,
    OperationTable,
    Relation,
    RelationalStructure,
    diagonal,
    digraph_closed_walk,
    digraph_meets_diagonal,
    digraph_reach,
    full_relation,
    is_polymorphism,
    projection_table,
    relation,
    relation_project,
    structure,
    subset,
    tuple_rank,
    unrank_tuple,
    with_singletons,
)
from absorb import Atom, Certificate, Decision, PPFormula, Quintuple, Subset
from absorb.model import Record
from fixtures import AFF, LEQ, aff2, ord2, ord2_bare, triv1
from reference import reference_is_polymorphism


class TestRelation:
    def test_tuples_coerced_to_frozenset(self):
        r = relation(2, [(0, 1), (0, 1), (1, 0)])
        assert len(r) == 2
        assert (0, 1) in r

    def test_arity_mismatch_rejected(self):
        with pytest.raises(InputError):
            relation(2, [(0, 1, 0)])

    def test_nonpositive_arity_rejected(self):
        with pytest.raises(InputError):
            Relation(0, frozenset())

    def test_diagonal_and_full(self):
        assert diagonal(2).tuples == frozenset({(0, 0), (1, 1)})
        assert len(full_relation(2, 3)) == 8


class TestStructure:
    def test_relations_sorted_by_name(self):
        a = RelationalStructure(2, (("z", diagonal(2)), ("a", diagonal(2))))
        assert a.names == ("a", "z")

    def test_duplicate_names_rejected(self):
        with pytest.raises(InputError):
            RelationalStructure(2, (("r", diagonal(2)), ("r", diagonal(2))))

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(InputError):
            structure(2, {"r": [(0, 2)]})

    def test_theta_padded_to_two(self):
        assert structure(2, {"u": [(0,)]}).theta == 2
        assert aff2().theta == 3
        assert triv1().theta == 2

    def test_rel_lookup(self):
        assert ord2().rel("leq").arity == 2
        with pytest.raises(InputError):
            ord2().rel("nope")

    def test_equal_regardless_of_construction_order(self):
        r = relation(2, LEQ)
        s = relation(1, [(0,)])
        x = RelationalStructure(2, (("leq", r), ("s0", s)))
        y = RelationalStructure(2, (("s0", s), ("leq", r)))
        assert x == y


class TestSubset:
    def test_sorted_iteration(self):
        assert list(subset([2, 0, 1])) == [0, 1, 2]

    def test_bounds_check(self):
        with pytest.raises(InputError):
            subset([0, 3]).check_bounds(2)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            subset([-1])


class TestOperationTable:
    @given(st.integers(2, 3), st.integers(1, 3), st.data())
    def test_rank_roundtrip(self, size, arity, data):
        args = tuple(
            data.draw(st.integers(0, size - 1)) for _ in range(arity)
        )
        assert unrank_tuple(tuple_rank(args, size), size, arity) == args

    def test_apply_uses_lexicographic_index(self):
        # values [0,0,0,1] over size 2 is binary min
        t = OperationTable(2, 2, (0, 0, 0, 1))
        assert t.apply((1, 0)) == 0 and t.apply((1, 1)) == 1

    def test_length_validated(self):
        with pytest.raises(InputError):
            OperationTable(2, 2, (0, 1))

    def test_idempotence(self):
        assert OperationTable(2, 2, (0, 0, 0, 1)).is_idempotent()
        assert not OperationTable(1, 2, (0, 0)).is_idempotent()

    def test_projection_tables(self):
        p1 = projection_table(2, 3, 0)
        p3 = projection_table(2, 3, 2)
        assert all(p1.apply((x, y, z)) == x for x in (0, 1) for y in (0, 1) for z in (0, 1))
        assert all(p3.apply((x, y, z)) == z for x in (0, 1) for y in (0, 1) for z in (0, 1))


class TestWithSingletons:
    def test_adds_missing(self):
        a = with_singletons(ord2_bare())
        assert set(a.names) - set(ord2_bare().names) == {"_s0", "_s1"}
        assert a.rel("_s1").tuples == frozenset({(1,)})

    def test_existing_singletons_not_duplicated(self):
        a = with_singletons(ord2())
        assert set(a.names) - set(ord2().names) == set()
        assert a == ord2()

    def test_size_one(self):
        a = with_singletons(triv1())
        assert set(a.names) - set(triv1().names) == {"_s0"}

    def test_reserved_name_collision(self):
        clash = structure(2, {"_s0": [(0, 1)]})
        with pytest.raises(InputError):
            with_singletons(clash)


class TestIsPolymorphism:
    def test_min_on_ord2(self):
        ok, witness = is_polymorphism(ord2(), OperationTable(2, 2, (0, 0, 0, 1)))
        assert ok and witness is None

    def test_min_on_aff2_with_witness(self):
        ok, witness = is_polymorphism(aff2(), OperationTable(2, 2, (0, 0, 0, 1)))
        assert not ok
        name, rows = witness
        assert name == "aff"
        rel = aff2().rel("aff")
        assert all(r in rel.tuples for r in rows)

    def test_projections_always_preserve(self):
        for a in (ord2(), aff2(), triv1()):
            for coord in range(2):
                ok, _ = is_polymorphism(a, projection_table(a.size, 2, coord))
                assert ok

    def test_monotone_in_relations(self):
        # adding a relation never flips false -> true
        neg = OperationTable(1, 2, (1, 0))
        ok_small, _ = is_polymorphism(ord2_bare(), neg)
        ok_big, _ = is_polymorphism(ord2(), neg)
        assert ok_big <= ok_small
        # but it can flip true -> false: the constant 0 preserves the order
        # alone, not the singleton {1}
        zero = OperationTable(1, 2, (0, 0))
        assert is_polymorphism(ord2_bare(), zero) == (True, None)
        assert is_polymorphism(ord2(), zero) == (False, ("s1", ((1,),)))

    def test_first_violation_in_product_order(self):
        # binary max sends every pair led by (0,0,0) to its second row; the
        # first pair it breaks is ((0,1,1), (1,0,1)), sent to (1,1,1)
        ok, witness = is_polymorphism(aff2(), OperationTable(2, 2, (0, 1, 1, 1)))
        assert not ok
        assert witness == ("aff", ((0, 1, 1), (1, 0, 1)))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_reference_check(self, data):
        size = data.draw(st.integers(2, 3))
        value = st.integers(0, size - 1)
        rels = {}
        for i in range(data.draw(st.integers(1, 3))):
            k = data.draw(st.integers(1, 3))
            rels["r%d" % i] = relation(k, data.draw(st.sets(st.tuples(*[value] * k), max_size=9)))
        a = structure(size, rels)
        m = data.draw(st.integers(1, 3))
        # a projection with one entry changed repeats most prefix slices, so
        # its first violation comes after prefixes whose keys were skipped
        table = data.draw(st.one_of(
            st.lists(value, min_size=size ** m, max_size=size ** m).map(
                lambda vs: OperationTable(m, size, tuple(vs))
            ),
            st.integers(0, m - 1).map(lambda c: projection_table(size, m, c)),
            st.tuples(st.integers(0, m - 1), st.integers(0, size ** m - 1), value).map(
                lambda cpv: _changed_projection(size, m, *cpv)
            ),
        ))
        assert is_polymorphism(a, table) == reference_is_polymorphism(a, table)


def _changed_projection(size, m, coordinate, position, value):
    values = list(projection_table(size, m, coordinate).values)
    values[position] = value
    return OperationTable(m, size, tuple(values))


class TestRelationProject:
    def test_drop_third_of_aff(self):
        assert relation_project(relation(3, AFF), 3).tuples == frozenset(
            {(0, 0), (0, 1), (1, 0), (1, 1)}
        )

    def test_drop_first_of_neq(self):
        assert relation_project(relation(2, [(0, 1), (1, 0)]), 1).tuples == frozenset(
            {(0,), (1,)}
        )

    def test_empty_stays_empty(self):
        assert relation_project(Relation(2, frozenset()), 1).tuples == frozenset()

    def test_errors(self):
        with pytest.raises(InputError):
            relation_project(relation(1, [(0,)]), 1)
        with pytest.raises(InputError):
            relation_project(relation(2, [(0, 1)]), 3)

    def test_size_never_grows(self):
        r = relation(3, AFF)
        assert len(relation_project(r, 2)) <= len(r)


class TestDigraphReach:
    def test_disconnected(self):
        d = Digraph(2, frozenset({(0, 0), (1, 1)}))
        assert digraph_reach(d, {0}, {1}) is None

    def test_single_edge(self):
        assert digraph_reach(Digraph(2, frozenset({(0, 1)})), {0}, {1}) == [0, 1]

    def test_intersecting_sets_give_trivial_walk(self):
        assert digraph_reach(Digraph(2, frozenset()), {0}, {0}) == [0]

    def test_lexicographically_least_shortest(self):
        # two shortest walks 0-1-3 and 0-2-3: pick 0-1-3
        d = Digraph(4, frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}))
        assert digraph_reach(d, {0}, {3}) == [0, 1, 3]

    def test_walk_edges_valid(self):
        d = Digraph(5, frozenset({(0, 2), (2, 4), (0, 3), (3, 4), (1, 4)}))
        walk = digraph_reach(d, {0, 1}, {4})
        assert walk[0] in {0, 1} and walk[-1] == 4
        assert all((u, v) in d.edges for u, v in zip(walk, walk[1:]))

    def test_out_of_bounds_edge_rejected(self):
        with pytest.raises(InputError):
            Digraph(2, frozenset({(0, 2)}))


class TestClosedWalks:
    def test_two_cycle(self):
        assert digraph_closed_walk(Digraph(2, frozenset({(0, 1), (1, 0)}))) == [0, 1, 0]

    def test_acyclic(self):
        assert digraph_closed_walk(Digraph(2, frozenset({(0, 1)}))) is None

    def test_self_loop(self):
        d = Digraph(2, frozenset({(1, 1)}))
        assert digraph_closed_walk(d) == [1, 1]
        assert digraph_meets_diagonal(d)

    def test_no_diagonal(self):
        assert not digraph_meets_diagonal(Digraph(2, frozenset({(0, 1)})))


class TestRecord:
    """The immutable value base behind every record type of the package."""

    def test_keyword_and_default_construction(self):
        cert = Certificate(())
        d = Decision(True, certificate=cert)
        assert (d.holds, d.failing, d.certificate) == (True, None, cert)
        assert Decision(holds=False) == Decision(False, None, None)
        phi = PPFormula(("x",), [("r", ("x", "y"))])
        assert phi.extra_vars == ()
        assert phi == PPFormula(atoms=(Atom("r", ("x", "y")),), free=("x",), extra_vars=())

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((), {}),                       # missing field
            ((True,), {"verdict": 1}),      # unknown field
            ((True,), {"holds": False}),    # field given twice
            ((True, None, None, None), {}), # too many fields
        ],
    )
    def test_bad_fields_are_a_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            Decision(*args, **kwargs)

    def test_post_init_still_normalises(self):
        r = Relation(2, {(0, 1)})
        assert isinstance(r.tuples, frozenset)
        assert r == relation(2, [(0, 1)])
        s = Subset([1, 0, 1])
        assert s.elements == frozenset({0, 1})
        assert s == subset({0, 1})

    def test_assignment_and_deletion_raise(self):
        r = relation(1, [(0,)])
        with pytest.raises(AttributeError):
            r.arity = 2
        with pytest.raises(AttributeError):
            del r.arity
        with pytest.raises(AttributeError):
            r.extra = 1
        assert r.arity == 1 and r == relation(1, [(0,)])

    def test_equal_fields_of_two_classes_are_unequal(self):
        class Pair(Record):
            x: int
            y: int

        class Other(Record):
            x: int
            y: int

        assert Pair(1, 2) == Pair(x=1, y=2)
        assert Pair(1, 2) != Other(1, 2)
        assert Pair(1, 2) != (1, 2)
        assert Subset(frozenset({0})) != Certificate(frozenset({0}))

    def test_hash_is_the_hash_of_the_field_tuple(self):
        assert hash(Quintuple(0, 1, 2, 0, 1)) == hash((0, 1, 2, 0, 1))
        a = ord2()
        assert hash(a) == hash((a.size, a.relations))
        # one-field classes hash as a 1-tuple, not as the bare field
        assert hash(subset([0, 2])) == hash((frozenset({0, 2}),))
        assert hash(Certificate(())) == hash(((),))

    def test_by_name_is_not_a_field(self):
        a = ord2()
        b = RelationalStructure(a.size, a.relations)
        object.__setattr__(b, "_by_name", {})
        assert RelationalStructure._fields == ("size", "relations")
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b) == "RelationalStructure(size=%r, relations=%r)" % (
            a.size, a.relations,
        )
        assert repr(Decision(True)) == "Decision(holds=True, failing=None, certificate=None)"

    def test_equal_records_built_in_different_orders_print_alike(self):
        pairs = [(x, y) for x in range(12) for y in range(10)]
        forward = Relation(2, frozenset(pairs))
        backward = Relation(2, frozenset(reversed(pairs)))
        assert forward == backward
        assert repr(forward) == repr(backward)
        assert repr(forward).startswith("Relation(arity=2, tuples=frozenset({(0, 0), (0, 1), ")
        edges = [(u, v) for u in range(20) for v in range(20) if (u * v) % 7 == 3]
        assert repr(Digraph(20, frozenset(edges))) == repr(Digraph(20, frozenset(edges[::-1])))
        assert repr(subset([5, 0, 3])) == "Subset(elements=frozenset({0, 3, 5}))"
        assert repr(Digraph(1, frozenset())) == "Digraph(n=1, edges=frozenset())"

    def test_repr_sorts_incomparable_elements_by_repr(self):
        class Mixed(Record):
            items: frozenset

        one = Mixed(frozenset([(1, 2), "a", 3, None]))
        other = Mixed(frozenset([None, 3, "a", (1, 2)]))
        assert repr(one) == repr(other)
        assert repr(one).endswith(".Mixed(items=frozenset({'a', (1, 2), 3, None}))")
