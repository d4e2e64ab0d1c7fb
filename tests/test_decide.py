"""The local path test, certificates, chains, the oracle, and the bounds."""

import json
import os
from itertools import permutations, product

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from absorb import codec
from absorb import (
    CapExceeded,
    Certificate,
    CertEntry,
    CertStep,
    ChainWitness,
    InputError,
    NotSubuniverseError,
    OperationTable,
    Quintuple,
    absorption_term_search,
    bounds,
    chain_from_absorption_term,
    closure_unary,
    decide_jonsson,
    essential_witness_search,
    fixpoint,
    generate_subpower,
    is_absorption_term,
    is_jonsson_chain,
    oracle_chain_search,
    power_fixpoint,
    projection_table,
    relation,
    structure,
    subset,
    verify_np_certificate,
    with_singletons,
)
from absorb.decide import _coverage_tables, _quintuples, _swapped_coverage
from bruteforce import generated_subpower_oracle
from fixtures import B0, LEQ, aff2, corpus2, expand, neq2, ord2, triv1
from reference import jonsson_digraph, reference_decide, reference_power_structure

BA = subset([0, 1])


class TestQuintuples:
    def test_lexicographic_order(self):
        qs = list(_quintuples(2, B0))
        assert len(qs) == 8
        assert qs[0] == Quintuple(0, 0, 0, 0, 0)
        assert qs[-1] == Quintuple(1, 1, 1, 0, 0)
        assert [q.as_list() for q in qs] == sorted(q.as_list() for q in qs)

    def test_generators(self):
        q = Quintuple(0, 1, 1, 0, 0)
        assert q.generators() == ((0, 0, 0), (0, 1, 1), (1, 0, 1))


class TestJonssonDigraph:
    def test_matches_bruteforce_subpower(self):
        a = expand(aff2())
        base = fixpoint(reference_power_structure(a, 3), a)
        for q in (Quintuple(0, 1, 0, 0, 0), Quintuple(0, 1, 1, 0, 0)):
            graph, r = jonsson_digraph(base, B0, q)
            oracle = generated_subpower_oracle(a, q.generators())
            assert r.tuples == oracle
            assert graph.edges == frozenset(
                (u, v) for (col, u, v) in oracle if col == 0
            )

    def test_aff2_passing_and_failing_quintuples(self):
        a = expand(aff2())
        base = fixpoint(reference_power_structure(a, 3), a)
        passing, _ = jonsson_digraph(base, B0, Quintuple(0, 1, 0, 0, 0))
        assert (0, 1) in passing.edges
        failing, _ = jonsson_digraph(base, B0, Quintuple(0, 1, 1, 0, 0))
        from absorb import digraph_reach

        assert digraph_reach(failing, {0}, {1}) is None


class TestDecide:
    def test_ord2_holds(self):
        d = decide_jonsson(ord2(), B0)
        assert d.holds and d.failing is None

    def test_aff2_fails_with_least_quintuple(self):
        d = decide_jonsson(aff2(), B0)
        assert not d.holds
        assert d.failing == Quintuple(0, 1, 1, 0, 0)
        assert d.certificate is None

    def test_one_element_holds(self):
        assert decide_jonsson(triv1(), subset([0])).holds

    def test_b_equals_a_holds_immediately(self):
        d = decide_jonsson(aff2(), BA)
        assert d.holds
        ok, defect = verify_np_certificate(aff2(), BA, d.certificate)
        assert ok, defect

    def test_empty_b_rejected(self):
        with pytest.raises(InputError):
            decide_jonsson(ord2(), subset([]))

    def test_non_subuniverse_rejected(self):
        # a binary polymorphism can send (0,1) to 2, so {0,1} is not closed
        a = structure(3, {"r": [(0, 1)]})
        with pytest.raises(NotSubuniverseError):
            decide_jonsson(a, subset([0, 1]))

    def test_verdict_invariant_under_derived_relation(self):
        # composing the order with itself yields a subpower; adding it must
        # not change the verdict
        comp = relation(
            2,
            {
                (x, z)
                for x, y1 in LEQ
                for y2, z in LEQ
                if y1 == y2
            },
        )
        bigger = ord2().with_relation("leqleq", comp)
        assert decide_jonsson(bigger, B0).holds == decide_jonsson(ord2(), B0).holds

    def test_certificate_walks_are_short(self):
        d = decide_jonsson(ord2(), B0)
        for entry in d.certificate.entries:
            assert len(entry.steps) <= 2
            if entry.q.a == entry.q.c:
                assert entry.steps == ()


class TestCertificateFlag:
    @pytest.mark.parametrize("a, b", [(ord2(), B0), (aff2(), B0), (neq2(), B0), (aff2(), BA)])
    def test_same_verdict_without_certificate(self, a, b):
        with_cert = decide_jonsson(a, b)
        without = decide_jonsson(a, b, certificate=False)
        assert (without.holds, without.failing) == (with_cert.holds, with_cert.failing)
        assert without.certificate is None


def leq3():
    return structure(3, {"leq": [(x, y) for x in range(3) for y in range(3) if x <= y]})


def r3():
    return structure(3, {"r": [p for p in product(range(3), repeat=2) if p != (1, 2)]})


def min3():
    return structure(3, {"min": [(x, y, min(x, y)) for x in range(3) for y in range(3)]})


def aff3():
    """x + y + z = 0 (mod 3): B={0} fails at quintuple (0,1,1,0,0)."""
    return structure(3, {"aff": [t for t in product(range(3), repeat=3) if sum(t) % 3 == 0]})


class TestAgainstReferenceRoute:
    """The coverage-table route returns the per-quintuple route's Decision."""

    def test_two_element_corpus(self):
        for e in corpus2().entries:
            assert decide_jonsson(e.structure, e.b) == reference_decide(e.structure, e.b), e.label

    @pytest.mark.parametrize(
        "make, elements",
        [(leq3, [0]), (r3, [0]), (min3, [0, 1]), (aff3, [0])],
        ids=["leq3", "r3", "min3", "aff3"],
    )
    def test_three_element_instances(self, make, elements):
        a, b = make(), subset(elements)
        assert decide_jonsson(a, b) == reference_decide(a, b)

    def test_refuting_instance_fails_at_its_first_quintuple(self):
        d = decide_jonsson(aff3(), B0)
        assert not d.holds and d.failing == Quintuple(0, 1, 1, 0, 0)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        binary=st.sets(st.tuples(*[st.integers(0, 2)] * 2), min_size=1),
        ternary=st.sets(st.tuples(*[st.integers(0, 2)] * 3), max_size=4),
        elements=st.sets(st.integers(0, 2), min_size=1, max_size=2),
    )
    def test_random_three_element_structures(self, binary, ternary, elements):
        rels = {"r": sorted(binary)}
        if ternary:
            rels["t"] = sorted(ternary)
        a, b = structure(3, rels), subset(sorted(elements))
        try:
            expected = reference_decide(a, b)
        except NotSubuniverseError:
            with pytest.raises(NotSubuniverseError):
                decide_jonsson(a, b)
            return
        got = decide_jonsson(a, b)
        assert got == expected
        if got.holds:
            ok, defect = verify_np_certificate(a, b, got.certificate)
            assert ok, defect


def _leq(n):
    return structure(n, {"leq": [(x, y) for x, y in product(range(n), repeat=2) if x <= y]})


def _min_graph(n):
    return structure(n, {"min": [(x, y, min(x, y)) for x, y in product(range(n), repeat=2)]})


def _relabelled(a, perm):
    return structure(a.size, {
        name: [tuple(perm[e] for e in t) for t in rel.tuples] for name, rel in a.relations
    })


def perm_graph(n):
    """The graph of x -> x + 1 mod n: closed under neither min nor max."""
    return structure(n, {"p": [(x, (x + 1) % n) for x in range(n)]})


class TestDerivedPairs:
    """decide computes the coverage tables of each pair (a, c) with a < c and
    reads those of (c, a) off them; a certificate step of (c, a) restricts
    its table lazily, and a min-closed one is read off the table's minima."""

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        binary=st.sets(st.tuples(*[st.integers(0, 2)] * 2), min_size=1),
        ternary=st.sets(st.tuples(*[st.integers(0, 2)] * 3), max_size=4),
        elements=st.sets(st.integers(0, 2), min_size=1, max_size=2),
    )
    def test_swapped_coverage_equals_the_computed_one(self, binary, ternary, elements):
        rels = {"r": sorted(binary)}
        if ternary:
            rels["t"] = sorted(ternary)
        a = expand(structure(3, rels))
        b = subset(sorted(elements))
        base = power_fixpoint(a, 3)
        for x, y in [(0, 1), (0, 2), (1, 2)]:
            _, covered = _coverage_tables(b, x, y, base)
            _, expected = _coverage_tables(b, y, x, base)
            assert _swapped_coverage(covered, 3) == expected

    @pytest.mark.parametrize(
        "a, elements",
        [
            # leq5 with 1 and the top element swapped: not min-closed
            (_relabelled(_leq(5), [0, 4, 2, 3, 1]), [0]),
            (_min_graph(4), [0, 1]),
            (perm_graph(5), [0]),
        ],
        ids=["leq5r", "min4", "perm5"],
    )
    def test_certificates_equal_the_reference_route(self, a, elements):
        b = subset(elements)
        decision = decide_jonsson(a, b)
        assert decision.holds
        assert decision == reference_decide(a, b)


class TestCertificateVerification:
    def _holding(self):
        d = decide_jonsson(ord2(), B0)
        return d.certificate

    def test_accepts_generated_certificate(self):
        ok, defect = verify_np_certificate(ord2(), B0, self._holding())
        assert ok and defect is None

    def test_missing_quintuple(self):
        cert = Certificate(self._holding().entries[1:])
        ok, defect = verify_np_certificate(ord2(), B0, cert)
        assert not ok and "missing" in defect

    @pytest.mark.parametrize(
        "q", [(-1, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 1, 2, 0, 0), (0, 1, 0, 1, 0), (1, 0, 1, 0, 1)]
    )
    def test_quintuple_out_of_range(self, q):
        entries = self._holding().entries + (CertEntry(Quintuple(*q), ()),)
        ok, defect = verify_np_certificate(ord2(), B0, Certificate(entries))
        assert (ok, defect) == (False, "unexpected quintuple %r" % (list(q),))

    def test_duplicate_quintuple(self):
        entries = self._holding().entries
        ok, defect = verify_np_certificate(ord2(), B0, Certificate(entries + entries[:1]))
        assert not ok and "duplicate" in defect

    def test_truncated_walk(self):
        entries = list(self._holding().entries)
        idx = next(i for i, e in enumerate(entries) if e.steps)
        entries[idx] = CertEntry(entries[idx].q, entries[idx].steps[:-1])
        ok, defect = verify_np_certificate(ord2(), B0, Certificate(entries))
        assert not ok and "endpoint" in defect

    def test_color_outside_b(self):
        entries = list(self._holding().entries)
        idx = next(i for i, e in enumerate(entries) if e.steps)
        s = entries[idx].steps[0]
        entries[idx] = CertEntry(entries[idx].q, (CertStep(1, s.u, s.v, s.phi),) + entries[idx].steps[1:])
        ok, defect = verify_np_certificate(ord2(), B0, Certificate(entries))
        assert not ok

    def test_non_polymorphism_table(self):
        entries = list(self._holding().entries)
        idx = next(i for i, e in enumerate(entries) if e.steps)
        s = entries[idx].steps[0]
        bad_values = list(s.phi.values)
        # break the table away from the generator columns so the image
        # check alone cannot catch it
        q = entries[idx].q
        gens = q.generators()
        from absorb import tuple_rank

        cols = {tuple_rank([g[j] for g in gens], 2) for j in range(3)}
        target = next(r for r in range(8) if r not in cols)
        bad_values[target] ^= 1
        bad = OperationTable(3, 2, tuple(bad_values))
        entries[idx] = CertEntry(q, (CertStep(s.b, s.u, s.v, bad),) + entries[idx].steps[1:])
        ok, defect = verify_np_certificate(ord2(), B0, Certificate(entries))
        # either the mutated table stopped being a polymorphism or it no
        # longer witnesses the step; both must reject unless it happens to
        # remain a valid alternative witness table
        if not ok:
            assert defect


MIN2 = OperationTable(2, 2, (0, 0, 0, 1))


class TestBChecks:
    """Every entry point that takes B refuses an empty B, and one with an
    element outside the domain, by one InputError."""

    ENTRY_POINTS = {
        "decide_jonsson": decide_jonsson,
        "oracle_chain_search": oracle_chain_search,
        "verify_np_certificate": lambda a, b: verify_np_certificate(a, b, Certificate(())),
        "is_absorption_term": lambda a, b: is_absorption_term(a, b, MIN2),
        "is_jonsson_chain": lambda a, b: is_jonsson_chain(a, b, chain_from_absorption_term(MIN2)),
        "closure_unary": closure_unary,
        "essential_witness_search": lambda a, b: essential_witness_search(a, b, 2),
        "absorption_term_search": lambda a, b: absorption_term_search(a, b, 2),
    }

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("elements, message", [
        ([], "B must be nonempty"),
        ([5], "subset element 5 out of range for size 2"),
    ])
    def test_refused(self, name, elements, message):
        with pytest.raises(InputError, match=message):
            self.ENTRY_POINTS[name](ord2(), subset(elements))


class TestTermsAndChains:
    def test_min_is_absorption_term(self):
        assert is_absorption_term(ord2(), B0, OperationTable(2, 2, (0, 0, 0, 1)))

    def test_max_is_not_for_b0(self):
        assert not is_absorption_term(ord2(), B0, OperationTable(2, 2, (0, 1, 1, 1)))

    def test_projection_is_not(self):
        assert not is_absorption_term(ord2(), B0, projection_table(2, 2, 0))

    def test_chain_from_term_is_valid(self):
        t = OperationTable(2, 2, (0, 0, 0, 1))
        chain = chain_from_absorption_term(t)
        assert len(chain.tables) == t.arity + 2
        ok, violation = is_jonsson_chain(ord2(), B0, chain)
        assert ok, violation

    def test_chain_axioms_reported(self):
        size2 = projection_table(2, 3, 0)
        broken = ChainWitness((size2,))
        ok, violation = is_jonsson_chain(ord2(), B0, broken)
        assert not ok and "third projection" in violation

    def test_chain_link_violation_reported(self):
        p1, p3 = projection_table(2, 3, 0), projection_table(2, 3, 2)
        ok, violation = is_jonsson_chain(ord2(), B0, ChainWitness((p1, p3)))
        assert not ok and "link" in violation

    def test_empty_chain(self):
        ok, violation = is_jonsson_chain(ord2(), B0, ChainWitness(()))
        assert not ok

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        binary=st.sets(st.tuples(*[st.integers(0, 2)] * 2), min_size=1),
        ternary=st.sets(st.tuples(*[st.integers(0, 2)] * 3), max_size=4),
        elements=st.sets(st.integers(0, 2), min_size=1, max_size=2),
    )
    def test_found_terms_mean_holds_on_random_three_element_structures(
        self, binary, ternary, elements
    ):
        rels = {"r": sorted(binary)}
        if ternary:
            rels["t"] = sorted(ternary)
        a = structure(3, rels)
        # absorption presupposes a subuniverse, so B is replaced by its closure
        b, _ = closure_unary(expand(a), subset(sorted(elements)))
        for n in (2, 3):
            term = absorption_term_search(a, b, n)
            if term is not None:
                assert is_absorption_term(a, b, term)
                assert decide_jonsson(a, b, certificate=False).holds


class TestOracleChainSearch:
    def test_ord2_found_and_valid(self):
        chain = oracle_chain_search(ord2(), B0)
        assert chain is not None
        ok, violation = is_jonsson_chain(ord2(), B0, chain)
        assert ok, violation

    def test_aff2_absent(self):
        assert oracle_chain_search(aff2(), B0) is None

    def test_size_cap(self):
        with pytest.raises(CapExceeded):
            oracle_chain_search(structure(3, {}), subset([0]))


class TestBounds:
    def test_exact_values(self):
        assert bounds(2, 1).kappa == 5
        assert bounds(2, 2).kappa == 257
        assert bounds(3, 2).kappa == 131073

    def test_lower_bounds(self):
        assert bounds(2, 4).lower_bound == 4
        assert bounds(3, 3).lower_bound == 4
        assert bounds(2, 3).lower_bound is None
        assert bounds(3, 2).lower_bound is None

    def test_kappa_matches_repeated_multiplication(self):
        for theta, size in ((2, 2), (3, 2), (4, 3)):
            acc = 1
            for _ in range(3 ** size):
                acc *= 2 * theta - 2
            assert bounds(theta, size).kappa == acc // 2 + 1

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            bounds(1, 2)
        with pytest.raises(InputError):
            bounds(2, 0)


CERTS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "data", "certs"
)


# The benchmark's pinned instances, in the labelling of their pinned certificates.
PINNED = {
    "leq3": (_leq(3), [0]),
    "r3": (structure(3, {"r": [p for p in product(range(3), repeat=2) if p != (1, 2)]}), [0]),
    "min3": (_min_graph(3), [0, 1]),
    "leq4": (_leq(4), [0]),
    "min4": (_min_graph(4), [0, 1]),
}


class TestPinnedCertificates:
    """decide's certificates against the ones pinned in perfbench/data/certs."""

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_certificate_equals_the_pinned_one(self, name):
        a, b = PINNED[name]
        decision = decide_jonsson(a, subset(b))
        with open(os.path.join(CERTS, name + ".json"), encoding="utf-8") as fh:
            pinned = json.load(fh)
        assert json.loads(codec.dump_certificate(decision.certificate)) == pinned

    @pytest.mark.parametrize("name", ["leq3", "r3", "leq4"])
    def test_verified_under_every_b_fixing_relabelling(self, name):
        a, b = PINNED[name]
        rest = [e for e in range(a.size) if e not in b]
        for images in permutations(rest):
            perm = list(range(a.size))
            for e, image in zip(rest, images):
                perm[e] = image
            relabelled = structure(a.size, {
                rel_name: [tuple(perm[e] for e in t) for t in rel.tuples]
                for rel_name, rel in a.relations
            })
            b_relabelled = subset(perm[e] for e in b)
            decision = decide_jonsson(relabelled, b_relabelled)
            assert decision.holds
            assert verify_np_certificate(relabelled, b_relabelled, decision.certificate) == (
                True, None
            )
