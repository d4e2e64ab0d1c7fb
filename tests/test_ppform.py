"""pp-formula evaluation, structural analysis, simplification, substitution."""

import pytest
from hypothesis import given, settings, strategies as st

from absorb import (
    CapExceeded,
    InputError,
    PPFormula,
    Relation,
    SimplifyError,
    analyze_formula,
    evaluate_pp,
    is_satisfiable,
    is_simplified,
    pp_substitute,
    relation,
    simplify,
    structure,
)
from absorb.ppform import Atom, Registry
from bruteforce import evaluate_pp_oracle
from fixtures import LEQ, NEQ, aff2, neq2, ord2


def three_element():
    """A binary and a ternary relation with one singleton on {0,1,2}."""
    return structure(
        3,
        {
            "r": [(0, 1), (1, 2), (2, 0), (1, 1)],
            "t": [(0, 1, 2), (1, 1, 0), (2, 0, 0)],
            "s0": [(0,)],
        },
    )


def comp_formula():
    return PPFormula(("x1", "x2"), (Atom("leq", ("x1", "y")), Atom("leq", ("y", "x2"))))


class TestEvaluate:
    def test_composition_of_leq_is_leq(self):
        assert evaluate_pp(comp_formula(), ord2()).tuples == frozenset(LEQ)

    def test_single_atom_verbatim(self):
        phi = PPFormula(("x", "y"), (Atom("leq", ("x", "y")),))
        assert evaluate_pp(phi, ord2()).tuples == frozenset(LEQ)

    def test_conflicting_singletons_empty(self):
        phi = PPFormula(("x",), (Atom("s0", ("x",)), Atom("s1", ("x",))))
        assert evaluate_pp(phi, ord2()).tuples == frozenset()

    def test_free_variable_order_respected(self):
        phi = PPFormula(("x2", "x1"), (Atom("leq", ("x1", "x2")),))
        assert evaluate_pp(phi, ord2()).tuples == frozenset({(0, 0), (1, 0), (1, 1)})

    def test_unknown_relation(self):
        with pytest.raises(InputError):
            evaluate_pp(PPFormula(("x",), (Atom("nope", ("x",)),)), ord2())

    def test_cyclic_formula(self):
        # x != y, y != z, z != x over a 2-element domain: unsatisfiable
        phi = PPFormula(
            ("x",),
            (Atom("neq", ("x", "y")), Atom("neq", ("y", "z")), Atom("neq", ("z", "x"))),
        )
        assert not analyze_formula(phi).acyclic
        assert evaluate_pp(phi, neq2()).tuples == frozenset()

    def test_satisfiability_probe(self):
        sat = PPFormula((), (Atom("neq", ("x", "y")),))
        unsat = PPFormula((), (Atom("s0", ("x",)), Atom("s1", ("x",))))
        assert is_satisfiable(sat, neq2())
        assert not is_satisfiable(unsat, ord2())

    def test_tree_formula_over_the_variable_cap(self):
        names = ["v%d" % i for i in range(23)]
        phi = PPFormula(
            (names[0], names[-1]),
            tuple(Atom("leq", pair) for pair in zip(names, names[1:])),
        )
        assert analyze_formula(phi).is_tree
        with pytest.raises(CapExceeded):
            evaluate_pp(phi, ord2())

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_agrees_with_brute_force(self, data):
        # random scopes give cycles, repeated variables and bound-only
        # components; extra_vars adds variables that occur in no atom
        a = data.draw(st.sampled_from([neq2(), ord2(), aff2(), three_element()]))
        names = ["v%d" % i for i in range(5)]
        atoms = []
        for _ in range(data.draw(st.integers(0, 5))):
            name = data.draw(st.sampled_from(a.names))
            arity = a.rel(name).arity
            scope = data.draw(st.lists(st.sampled_from(names), min_size=arity, max_size=arity))
            atoms.append(Atom(name, tuple(scope)))
        # sometimes a second atom on an n-ary atom's variables, its scope
        # permuted: aff(v0, v1, v2) beside aff(v1, v0, v2)
        nary = [atom for atom in atoms if len(atom.scope) > 2]
        if nary and data.draw(st.booleans()):
            atom = data.draw(st.sampled_from(nary))
            order = data.draw(st.permutations(range(len(atom.scope))))
            atoms.append(Atom(atom.rel, tuple(atom.scope[i] for i in order)))
        extra = data.draw(st.lists(st.sampled_from(names + ["e"]), max_size=2, unique=True))
        known = PPFormula((), tuple(atoms), tuple(extra)).variables or ("v0",)
        free = data.draw(st.lists(st.sampled_from(known), min_size=1, unique=True))
        phi = PPFormula(tuple(free), tuple(atoms), tuple(v for v in extra if v not in free))
        expected = evaluate_pp_oracle(phi, a)
        assert evaluate_pp(phi, a) == expected
        assert is_satisfiable(phi, a) == bool(expected.tuples)


class TestAnalyze:
    def test_composition_is_tree(self):
        report = analyze_formula(comp_formula())
        assert report.is_tree and report.connected
        assert report.leaves == frozenset({"x1", "x2"})
        assert report.degrees["y"] == 2

    def test_multi_edge_cycle_not_tree(self):
        phi = PPFormula(("x",), (Atom("r", ("x", "y")), Atom("r", ("y", "x"))))
        assert not analyze_formula(phi).is_tree

    def test_repeated_scope_not_simple(self):
        phi = PPFormula(("x",), (Atom("r", ("x", "x")),))
        report = analyze_formula(phi)
        assert not report.simple and not report.is_tree

    def test_neigh(self):
        phi = PPFormula(
            ("z1", "z2"),
            (Atom("r", ("z1", "w1", "w2")), Atom("r", ("z2", "w2", "w3"))),
        )
        assert analyze_formula(phi).neigh("w2") == frozenset({"z1", "w1", "z2", "w3"})

    def test_branch_splits_a_path(self):
        phi = PPFormula(
            ("x1", "x2"),
            (Atom("leq", ("x1", "y")), Atom("leq", ("y", "w")), Atom("leq", ("w", "x2"))),
        )
        report = analyze_formula(phi)
        assert report.branch("y", "x1") == frozenset({"x1", "y"})
        assert report.branch("y", "x2") == frozenset({"y", "w", "x2"})
        with pytest.raises(InputError):
            report.branch("y", "y")

    def test_branch_of_an_unknown_variable(self):
        report = analyze_formula(comp_formula())
        with pytest.raises(InputError, match="unknown variable 'nope'"):
            report.branch("y", "nope")
        with pytest.raises(InputError, match="unknown variable 'nope'"):
            report.branch("nope", "x1")

    def test_branch_in_a_forest_is_the_component(self):
        phi = PPFormula(("x", "u"), (Atom("leq", ("x", "y")), Atom("leq", ("u", "v"))))
        assert analyze_formula(phi).branch("x", "v") == frozenset({"u", "v"})

    def test_disconnected_components(self):
        phi = PPFormula(("x", "u"), (Atom("leq", ("x", "y")), Atom("leq", ("u", "v"))))
        report = analyze_formula(phi)
        assert not report.connected and len(report.components) == 2


class TestSimplify:
    def test_already_simplified_unchanged(self):
        phi = comp_formula()
        result = simplify(phi, ord2())
        assert result.formula.atoms == phi.atoms
        assert is_simplified(result.formula, result.structure)

    def test_repeated_scope_rewritten(self):
        phi = PPFormula(("x",), (Atom("leq", ("x", "x")),))
        before = evaluate_pp(phi, ord2())
        result = simplify(phi, ord2())
        assert evaluate_pp(result.formula, result.structure) == before
        assert is_simplified(result.formula, result.structure)

    def test_isolated_bound_variable_dropped(self):
        phi = PPFormula(("x", "y"), (Atom("leq", ("x", "y")),), extra_vars=("junk",))
        result = simplify(phi, ord2())
        assert "junk" not in result.formula.variables

    def test_bound_only_component_dropped_when_satisfiable(self):
        phi = PPFormula(
            ("x", "y"), (Atom("leq", ("x", "y")), Atom("leq", ("u", "v")))
        )
        result = simplify(phi, ord2())
        assert set(result.formula.variables) == {"x", "y"}

    def test_unsatisfiable_component_rejected(self):
        phi = PPFormula(
            ("x", "y"),
            (Atom("leq", ("x", "y")), Atom("s0", ("u",)), Atom("s1", ("u",))),
        )
        with pytest.raises(SimplifyError):
            simplify(phi, ord2())

    def test_split_free_components_rejected(self):
        phi = PPFormula(("x", "u"), (Atom("leq", ("x", "y")), Atom("leq", ("u", "v"))))
        with pytest.raises(SimplifyError):
            simplify(phi, ord2())

    def test_unary_atom_folded(self):
        phi = PPFormula(("x", "y"), (Atom("leq", ("x", "y")), Atom("s1", ("y",))))
        before = evaluate_pp(phi, ord2())
        result = simplify(phi, ord2())
        assert evaluate_pp(result.formula, result.structure) == before
        assert all(len(at.scope) > 1 for at in result.formula.atoms)

    def test_unary_atoms_on_an_isolated_free_variable_merged(self):
        # both atoms collapse to the full unary relation, merge into one
        # and are dropped as vacuous
        phi = PPFormula(("x",), (Atom("leq", ("x", "x")), Atom("leq", ("x", "x"))))
        result = simplify(phi, ord2())
        assert result.formula.atoms == ()
        assert evaluate_pp(result.formula, result.structure) == evaluate_pp(phi, ord2())
        assert [note for _, note in result.derived.values()] == ["diagonal collapse of leq"]

    def test_unary_atoms_with_an_empty_meet_rejected(self):
        # the merged atom allows no value, and x has no other atom to fold into
        phi = PPFormula(("x",), (Atom("s0", ("x",)), Atom("s1", ("x",))))
        with pytest.raises(SimplifyError, match="on free 'x' has no incident atom"):
            simplify(phi, ord2())

    def test_bound_leaf_projected(self):
        phi = PPFormula(
            ("x", "z"),
            (Atom("leq", ("x", "y")), Atom("leq", ("y", "z")), Atom("leq", ("y", "w"))),
        )
        result = simplify(phi, ord2())
        assert evaluate_pp(result.formula, result.structure) == evaluate_pp(phi, ord2())
        assert "w" not in result.formula.variables
        notes = [note for _, note in result.derived.values()]
        assert notes == ["projected bound leaf 'w' out of leq"]
        assert is_simplified(result.formula, result.structure)

    def test_free_non_leaf_split_with_equality(self):
        phi = PPFormula(("x",), (Atom("leq", ("x", "y")), Atom("leq", ("y", "x"))))
        before = evaluate_pp(phi, ord2())
        result = simplify(phi, ord2())
        assert evaluate_pp(result.formula, result.structure) == before
        report = analyze_formula(result.formula)
        assert report.degrees["x"] <= 1

    def test_high_degree_bound_variable_chained(self):
        phi = PPFormula(
            ("a", "b", "c", "d"),
            (
                Atom("leq", ("a", "m")),
                Atom("leq", ("b", "m")),
                Atom("leq", ("c", "m")),
                Atom("leq", ("m", "d")),
            ),
        )
        before = evaluate_pp(phi, ord2())
        result = simplify(phi, ord2())
        assert evaluate_pp(result.formula, result.structure) == before
        assert is_simplified(result.formula, result.structure)


class TestSubstitute:
    def test_replace_with_singleton_pair(self):
        phi = comp_formula()
        new, struct = pp_substitute(phi, {0: relation(2, [(0, 0)]), 1: relation(2, [(0, 0)])}, ord2())
        assert evaluate_pp(new, struct).tuples == frozenset({(0, 0)})

    def test_identity_replacement(self):
        phi = comp_formula()
        new, struct = pp_substitute(phi, {0: relation(2, LEQ)}, ord2())
        assert evaluate_pp(new, struct) == evaluate_pp(phi, ord2())

    def test_empty_replacement(self):
        phi = comp_formula()
        new, struct = pp_substitute(phi, {1: Relation(2, frozenset())}, ord2())
        assert evaluate_pp(new, struct).tuples == frozenset()

    def test_containment_under_subrelation(self):
        # shrinking an atom's relation can only shrink the evaluation
        phi = comp_formula()
        new, struct = pp_substitute(phi, {0: relation(2, [(0, 1), (1, 1)])}, ord2())
        assert evaluate_pp(new, struct).tuples <= evaluate_pp(phi, ord2()).tuples

    def test_arity_mismatch(self):
        with pytest.raises(InputError):
            pp_substitute(comp_formula(), {0: relation(1, [(0,)])}, ord2())


class TestRegistry:
    def test_existing_relation_reused(self):
        reg = Registry(ord2())
        assert reg.ensure(relation(2, LEQ), "again") == "leq"

    def test_diagonal_gets_eq_name(self):
        reg = Registry(ord2())
        name = reg.ensure(relation(2, [(0, 0), (1, 1)]), "equality")
        assert name == "_eq"

    def test_fresh_names_do_not_collide(self):
        a = structure(2, {"_d0": [(0, 1)]})
        reg = Registry(a)
        name = reg.ensure(relation(2, NEQ), "other")
        assert name != "_d0" and reg.structure().has(name)
