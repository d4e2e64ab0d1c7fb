"""CSP engine and the subpower layer, cross-checked against brute force."""

import pytest

from absorb import (
    CapExceeded,
    HomInstance,
    InputError,
    OperationTable,
    absorption_term_search,
    ac_fixpoint,
    closure_unary,
    cover,
    essential_witness_search,
    find_hom,
    generate_subpower,
    is_b_essential,
    power_structure,
    relation,
    structure,
    subpower_membership,
    subset,
    tuple_rank,
)
from bruteforce import (
    absorption_term_oracle,
    closure_unary_oracle,
    generated_subpower_oracle,
    polymorphisms,
)
from fixtures import AFF, B0, B1, LEQ, NEQ, aff2, neq2, ord2, triv1


class TestPowerStructure:
    def test_one_element(self):
        assert power_structure(triv1(), 3).size == 1

    def test_tuple_counts(self):
        p = power_structure(ord2(), 2)
        assert p.size == 4
        assert len(p.rel("leq")) == 9
        assert len(power_structure(aff2(), 2).rel("aff")) == 16

    def test_cap(self):
        with pytest.raises(CapExceeded):
            power_structure(ord2(), 4, cap=10)

    def test_nonpositive_exponent(self):
        with pytest.raises(InputError):
            power_structure(ord2(), 0)


class TestHoms:
    def test_identity_instance_keeps_full_domains(self):
        inst = HomInstance(ord2(), ord2())
        domains = ac_fixpoint(inst)
        assert domains == {0: frozenset({0}), 1: frozenset({1})}
        # the singleton relations already pin everything; drop them instead
        bare = structure(2, {"leq": LEQ})
        assert ac_fixpoint(HomInstance(bare, bare)) == {
            0: frozenset({0, 1}),
            1: frozenset({0, 1}),
        }

    def test_singleton_pin_conflict_is_inconsistent(self):
        inst = HomInstance(ord2(), ord2(), pins=((0, 1),))
        assert ac_fixpoint(inst) is None
        assert find_hom(inst) is None

    def test_idempotent_fixpoint(self):
        bare = structure(2, {"leq": LEQ})
        inst = HomInstance(bare, bare, domains=((0, frozenset({0})),))
        once = ac_fixpoint(inst)
        assert once is not None

    def test_identity_found(self):
        assert find_hom(HomInstance(ord2(), ord2())) == (0, 1)

    def test_pinned_hom_is_min_table(self):
        p = power_structure(ord2(), 2)
        pins = ((tuple_rank((0, 1), 2), 0), (tuple_rank((1, 0), 2), 0))
        values = find_hom(HomInstance(p, ord2(), pins=pins))
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
        assert find_hom(HomInstance(src, tgt)) is None

    def test_signature_mismatch_rejected(self):
        with pytest.raises(InputError):
            HomInstance(ord2(), aff2())


class TestCover:
    """cover() against an enumeration of all ternary polymorphisms."""

    def setup_method(self):
        self.a = structure(2, {"leq": LEQ})
        self.power = power_structure(self.a, 3)
        self.inst = HomInstance(self.power, self.a, pins=((tuple_rank((0, 1, 0), 2), 0),))
        self.homs = [
            f.values
            for f in polymorphisms(self.a, 3)
            if f.values[tuple_rank((0, 1, 0), 2)] == 0
        ]

    def test_covered_are_the_vertices_some_hom_sends_into_the_mask(self):
        cov = cover(self.inst, range(8), 0b10)
        assert cov.covered == {v for v in range(8) if any(h[v] == 1 for h in self.homs)}
        assert cov.masks is not None

    def test_only_pending_vertices_are_covered(self):
        cov = cover(self.inst, [0, 1, 7], 0b11)
        assert cov.covered == {0, 1, 7}

    def test_extend_is_find_hom_with_one_more_pin(self):
        cov = cover(self.inst, (), 0)
        for v in range(8):
            for value in range(2):
                pinned = HomInstance(self.power, self.a, pins=self.inst.pins + ((v, value),))
                assert cov.extend(v, value) == find_hom(pinned)

    def test_start_from_a_relaxation_gives_the_same_coverage(self):
        base = cover(HomInstance(self.power, self.a), (), 0).masks
        assert cover(self.inst, range(8), 0b10, base) == cover(self.inst, range(8), 0b10)

    def test_wipeout(self):
        inst = HomInstance(ord2(), ord2(), pins=((0, 1),))
        cov = cover(inst, [0, 1], 0b11)
        assert cov.masks is None and cov.covered == frozenset()
        assert cov.extend(1, 1) is None


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
            got = generate_subpower(a, s, 2).tuples.tuples
            assert got == generated_subpower_oracle(a, s)

    def test_generate_ternary_matches_bruteforce(self):
        a = aff2()
        gens = ((0, 0, 0), (0, 1, 1), (1, 1, 0))
        got = generate_subpower(a, gens, 3).tuples.tuples
        assert got == generated_subpower_oracle(a, gens)

    def test_singleton_generator(self):
        got = generate_subpower(ord2(), [(0, 0)], 2).tuples.tuples
        assert got == {(0, 0)}

    def test_generators_belong_and_closure_idempotent(self):
        a = ord2()
        s = ((0, 1), (1, 0))
        first = generate_subpower(a, s, 2).tuples.tuples
        assert set(s) <= first
        again = generate_subpower(a, tuple(sorted(first)), 2).tuples.tuples
        assert again == first

    def test_subpower_closed_under_all_polymorphisms(self):
        a = aff2()
        sub = generate_subpower(a, ((1, 0), (0, 1)), 2).tuples.tuples
        rows = sorted(sub)
        for f in polymorphisms(a, 2):
            for r1 in rows:
                for r2 in rows:
                    image = (f.apply((r1[0], r2[0])), f.apply((r1[1], r2[1])))
                    assert image in sub


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

    def test_b_equals_a_has_none(self):
        assert essential_witness_search(ord2(), subset([0, 1]), 2) is None

    def test_generator_shape(self):
        w = essential_witness_search(aff2(), B0, 3)
        assert w is not None
        for i, g in enumerate(w.generators):
            assert g[i] not in B0
            assert all(e in B0 for j, e in enumerate(g) if j != i)


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
