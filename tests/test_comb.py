"""Surgery steps, comb extraction, and the path-image analysis."""

import pytest

from absorb import (
    InputError,
    PPFormula,
    digraph_closed_walk,
    digraph_meets_diagonal,
    evaluate_pp,
    full_relation,
    generate_subpower,
    is_b_essential,
    relation,
)
from absorb.comb import CombFormula, comb_analyze, comb_extract, surgery_step
from absorb.ppform import Atom, analyze_formula
from fixtures import B0, NEQ, aff2, expand, neq2, ord2


def neq_chain(length):
    """neq(x1,v1) & neq(v1,v2) & ... & neq(v_{n-1},x2): a path formula."""
    names = ["x1"] + ["v%d" % i for i in range(1, length)] + ["x2"]
    atoms = tuple(Atom("neq", (names[i], names[i + 1])) for i in range(length))
    return PPFormula(("x1", "x2"), atoms)


def path_image_oracle(comb, size, support):
    """Exhaustive enumeration of supported spine walks; returns (g, h)."""

    def step_pairs(section):
        return {(u, v) for (z, u, v) in section.tuples if z in support}

    g = {}
    h = {}
    for i in range(2, comb.lam + 1):
        reach = set(range(size))
        for s in comb.sections[: i - 1]:
            reach = {v for u, v in step_pairs(s) if u in reach}
        g[i] = frozenset(reach)
        back = set(range(size))
        for s in reversed(comb.sections[i - 1:]):
            back = {u for u, v in step_pairs(s) if v in back}
        h[i] = frozenset(back)
    return g, h


class TestSurgery:
    def setup_method(self):
        self.a = neq2()
        self.phi = neq_chain(3)

    def test_output_is_b_essential(self):
        result = surgery_step(self.phi, self.a, B0, "v1", 0)
        out = evaluate_pp(result.formula, result.structure)
        assert is_b_essential(result.structure, out, B0)

    def test_structural_counts(self):
        result = surgery_step(self.phi, self.a, B0, "v1", 0)
        l = self.a.size
        n_psi_vars = len(result.psi.variables)
        n_psi_atoms = len(result.psi.atoms)
        assert len(result.theta.variables) == l * n_psi_vars - (l - 1)
        assert len(result.theta.atoms) == l * n_psi_atoms

    def test_block_property(self):
        result = surgery_step(self.phi, self.a, B0, "v1", 0)
        l = self.a.size
        kappa = len(self.phi.free)
        bset = frozenset(B0.elements)
        # V avoids B^(l*kappa)
        assert all(
            any(e not in bset for e in t) for t in result.v_relation.tuples
        )
        # ...but meets every relaxation that frees one block
        for blk in range(kappa):
            cols = range(blk * l, (blk + 1) * l)
            assert any(
                all(e in bset for j, e in enumerate(t) if j not in cols)
                for t in result.v_relation.tuples
            )

    def test_choice_covers_all_blocks(self):
        result = surgery_step(self.phi, self.a, B0, "v1", 0)
        assert set(result.choice.m) == set(self.phi.free)
        for x, j in result.choice.m.items():
            assert 1 <= j <= self.a.size

    def test_rejects_free_variable(self):
        with pytest.raises(InputError):
            surgery_step(self.phi, self.a, B0, "x1", 0)

    def test_rejects_atom_without_y(self):
        with pytest.raises(InputError):
            surgery_step(self.phi, self.a, B0, "v1", 2)

    def test_rejects_non_essential_formula(self):
        # composition over the order is not {0}-essential
        phi = PPFormula(("x1", "x2"), (Atom("leq", ("x1", "y")), Atom("leq", ("y", "x2"))))
        with pytest.raises(InputError):
            surgery_step(phi, ord2(), B0, "y", 0)

    def test_rejects_when_absorption_fails(self):
        # aff2: essential formula exists but the decision procedure fails
        phi = PPFormula(
            ("x1", "x2"),
            (Atom("aff", ("x1", "y", "y")), Atom("aff", ("y", "x2", "y"))),
        )
        with pytest.raises(InputError):
            surgery_step(phi, expand(aff2()), B0, "y", 0)

    def test_works_on_longer_chain(self):
        phi = neq_chain(5)
        result = surgery_step(phi, self.a, B0, "v2", 1)
        out = evaluate_pp(result.formula, result.structure)
        assert is_b_essential(result.structure, out, B0)


class TestCombExtract:
    def test_path_formula(self):
        phi = PPFormula(("x1", "x2"), (Atom("neq", ("x1", "w")), Atom("neq", ("w", "x2"))))
        ce = comb_extract(phi, neq2(), B0, "x1")
        assert ce.comb.lam == 1
        assert ce.selected == ("x1",)
        assert all(z in phi.free for z in ce.selected)

    def test_three_chain(self):
        ce = comb_extract(neq_chain(3), neq2(), B0, "x1")
        assert ce.comb.lam >= 1
        assert ce.kappa == 2
        # the hard inequality, re-checked here
        assert ce.kappa <= (2 * ce.theta - 2) ** ce.comb.lam // 2 + 1

    def test_branching_tree(self):
        # w sits on three teeth: z1-w, w-x2, w-x3
        phi = PPFormula(
            ("z1", "x2", "x3"),
            (Atom("neq", ("z1", "w")), Atom("neq", ("w", "x2")), Atom("neq", ("w", "x3"))),
        )
        ce = comb_extract(phi, neq2(), B0, "z1")
        assert ce.comb.lam == 2
        assert set(ce.selected) <= {"z1", "x2", "x3"}
        assert len(set(ce.selected)) == ce.comb.lam

    def test_comb_formula_shape(self):
        ce = comb_extract(neq_chain(3), neq2(), B0, "x1")
        comb_phi, comb_struct = ce.comb.as_formula(neq2())
        report = analyze_formula(comb_phi)
        assert report.is_tree
        expected_leaves = set(comb_phi.free) | {"w1", "w%d" % (ce.comb.lam + 1)}
        assert report.leaves == frozenset(expected_leaves)

    def test_rejects_non_tree(self):
        phi = PPFormula(("x",), (Atom("neq", ("x", "y")), Atom("neq", ("y", "x"))))
        with pytest.raises(InputError):
            comb_extract(phi, neq2(), B0, "x")

    def test_rejects_non_leaf_start(self):
        phi = neq_chain(3)
        with pytest.raises(InputError):
            comb_extract(phi, neq2(), B0, "v1")


class TestCombAnalyze:
    def test_full_sections(self):
        comb = CombFormula(3, (full_relation(2, 3),) * 3)
        report = comb_analyze(comb, neq2(), B0)
        full = frozenset({0, 1})
        assert all(g == full for g in report.g.values())
        assert all(h == full for h in report.h.values())
        assert report.repeated == (2, 3)
        assert not report.comb_essential
        assert not report.contradiction_detected

    def test_equal_sections_repeat(self):
        section = generate_subpower(expand(aff2()), ((0, 0, 0), (0, 1, 1), (1, 0, 1)), 3)
        comb = CombFormula(3, (section,) * 3)
        report = comb_analyze(comb, expand(aff2()), B0)
        assert report.repeated is not None
        assert (report.g[report.repeated[0]], report.h[report.repeated[0]]) == (
            report.g[report.repeated[1]],
            report.h[report.repeated[1]],
        )

    def test_images_match_path_enumeration(self):
        a = expand(aff2())
        s1 = generate_subpower(a, ((0, 0, 0), (0, 1, 1), (1, 0, 1)), 3)
        s2 = generate_subpower(a, ((0, 0, 1), (0, 1, 0), (1, 1, 1)), 3)
        comb = CombFormula(4, (s1, s2, s1, s2))
        report = comb_analyze(comb, a, B0)
        g, h = path_image_oracle(comb, 2, frozenset(B0.elements))
        assert report.g == g and report.h == h

    def test_p_contained_in_q(self):
        a = expand(aff2())
        s1 = generate_subpower(a, ((0, 0, 0), (0, 1, 1), (1, 0, 1)), 3)
        comb = CombFormula(3, (s1,) * 3)
        report = comb_analyze(comb, a, B0)
        if report.p is not None:
            assert report.p.edges <= report.q.edges

    def test_lemma_conclusions_on_absorbing_fixture(self):
        # decide holds on neq2/{0}: the lemma conclusions must not fail
        a = neq2()
        sections = [
            generate_subpower(a, gens, 3)
            for gens in (
                ((0, 0, 0), (0, 1, 1), (1, 0, 1)),
                ((0, 0, 1), (0, 1, 0), (1, 1, 1)),
            )
        ]
        for s1 in sections:
            for s2 in sections:
                comb = CombFormula(3, (s1, s2, s1))
                report = comb_analyze(comb, a, B0)
                assert not report.contradiction_detected
                if (
                    report.repeated
                    and report.q_meets_gxh
                    and report.g_has_predecessors
                    and report.h_has_successors
                ):
                    assert report.walk is not None
                if report.p is not None and digraph_closed_walk(report.p) is not None:
                    diag_in_q = all((c, c) in report.q.edges for c in range(a.size))
                    if diag_in_q:
                        assert digraph_meets_diagonal(report.p)

    def test_section_arity_enforced(self):
        with pytest.raises(InputError):
            CombFormula(1, (relation(2, NEQ),))
