"""Primitive-positive formulas as labeled relational structures.

A formula is a conjunction of atoms over named variables with a designated
ordered list of free variables; evaluation against a companion structure
produces the relation of free-variable tuples extendable to a satisfying
assignment.  A formula is evaluated as a homomorphism instance whose source
vertices are its variables: its `engine.fixpoint` projected onto the free
variables gives its relation, and whether that fixpoint has a solution
decides its satisfiability.
"""

from __future__ import annotations

from itertools import chain

from .engine import fixpoint
from .errors import CapExceeded, InputError, SimplifyError
from .model import (
    Record,
    Relation,
    RelationalStructure,
    diagonal,
    relation,
    relation_project,
)

# annotations stay strings, so typing is read by type checkers only
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional

DEFAULT_VARIABLE_CAP = 22

EQ_NAME = "_eq"
DERIVED_PREFIX = "_d"


class Atom(Record):
    rel: str
    scope: tuple

    def __post_init__(self):
        object.__setattr__(self, "scope", tuple(self.scope))


class PPFormula(Record):
    """Quantifier-free part of a pp-formula; non-free variables are bound."""

    free: tuple
    atoms: tuple
    extra_vars: tuple = ()  # bound variables occurring in no atom

    def __post_init__(self):
        object.__setattr__(self, "free", tuple(self.free))
        object.__setattr__(
            self, "atoms", tuple(a if isinstance(a, Atom) else Atom(*a) for a in self.atoms)
        )
        object.__setattr__(self, "extra_vars", tuple(self.extra_vars))
        if len(set(self.free)) != len(self.free):
            raise InputError("free variable list contains duplicates")

    @property
    def variables(self):
        """Free variables, then the others in order of first occurrence in
        the atoms, then `extra_vars`."""
        return tuple(dict.fromkeys(chain(self.free, *(a.scope for a in self.atoms), self.extra_vars)))

    @property
    def bound(self):
        free = set(self.free)
        return tuple(v for v in self.variables if v not in free)

    def project(self, free) -> "PPFormula":
        """Same quantifier-free part with a different free-variable list."""
        free = tuple(free)
        known = set(self.variables)
        for v in free:
            if v not in known:
                raise InputError("unknown variable %r" % v)
        extra = tuple(v for v in self.variables if v not in free and self._degree_of(v) == 0)
        return PPFormula(free, self.atoms, extra)

    def _degree_of(self, v):
        return sum(a.scope.count(v) for a in self.atoms)


def validate_formula(phi: PPFormula, a: RelationalStructure):
    for atom in phi.atoms:
        if not a.has(atom.rel):
            raise InputError("relation %r does not resolve in the structure" % atom.rel)
        if a.rel(atom.rel).arity != len(atom.scope):
            raise InputError(
                "atom %s(%s): scope length %d does not match arity %d"
                % (atom.rel, ",".join(atom.scope), len(atom.scope), a.rel(atom.rel).arity)
            )


# --- structural analysis ------------------------------------------------------


def _find(parent, x):
    """The root of x in the union-find forest parent, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class FormulaReport:
    """Incidence-multigraph analysis: degrees, leaves, connectivity, treeness,
    plus the branch and neighborhood queries."""

    def __init__(self, phi: PPFormula):
        self.phi = phi
        self.degrees = {v: phi._degree_of(v) for v in phi.variables}
        self.leaves = frozenset(v for v, d in self.degrees.items() if d <= 1)
        self.simple = all(len(set(a.scope)) == len(a.scope) for a in phi.atoms)
        self.components = self._components()
        self.connected = len(self.components) <= 1
        # the incidence multigraph (variables and atoms as nodes, one edge
        # per scope position) is a forest when its edges number its nodes
        # less its components: those of the variables, and each atom with
        # an empty scope
        nodes = len(self.degrees) + len(phi.atoms)
        parts = len(self.components) + sum(not a.scope for a in phi.atoms)
        self.acyclic = sum(self.degrees.values()) == nodes - parts
        self.is_tree = self.simple and self.acyclic

    def _components(self):
        parent = {v: v for v in self.phi.variables}
        for a in self.phi.atoms:
            scope = list(dict.fromkeys(a.scope))
            for u in scope[1:]:
                parent[_find(parent, u)] = _find(parent, scope[0])
        groups = {}
        for v in self.phi.variables:
            groups.setdefault(_find(parent, v), []).append(v)
        return [frozenset(g) for g in groups.values()]

    def neigh(self, v):
        """Variables at incidence distance two from v."""
        out = set()
        for a in self.phi.atoms:
            if v in a.scope:
                out.update(a.scope)
        out.discard(v)
        return frozenset(out)

    def branch(self, root, toward):
        """Variable set of the branch rooted at `root` containing `toward`:
        the variables reached from `toward` through the atoms, `root`
        included when reached but never expanded.  In a tree the search
        meets the root only through the root's atom on the path toward
        `toward`; in another component than the root's, the branch is
        toward's component."""
        if root == toward:
            raise InputError("branch is undefined for identical endpoints")
        if not self.is_tree:
            raise InputError("branch queries require a tree formula")
        for v in (root, toward):
            if v not in self.degrees:
                raise InputError("unknown variable %r" % v)
        seen, stack = {toward}, [toward]
        while stack:
            v = stack.pop()
            if v != root:
                new = self.neigh(v) - seen
                seen |= new
                stack.extend(new)
        return frozenset(seen)


def analyze_formula(phi: PPFormula) -> FormulaReport:
    return FormulaReport(phi)


# --- evaluation ---------------------------------------------------------------


def _instance(phi: PPFormula, a: RelationalStructure, var_cap: int):
    """phi as the source of a homomorphism instance into a, plus its
    variable -> vertex map.

    The variables are the source vertices, and each relation name of a holds
    the scopes of that name's atoms (empty when no atom uses it).
    """
    variables = phi.variables
    if len(variables) > var_cap:
        raise CapExceeded("formula has %d variables, cap is %d" % (len(variables), var_cap))
    index = {v: i for i, v in enumerate(variables)}
    scopes = {name: set() for name in a.names}
    for atom in phi.atoms:
        scopes[atom.rel].add(tuple(index[v] for v in atom.scope))
    source = RelationalStructure(
        len(variables),
        tuple((name, Relation(rel.arity, frozenset(scopes[name]))) for name, rel in a.relations),
    )
    return source, index


def evaluate_pp(
    phi: PPFormula, a: RelationalStructure, var_cap: int = DEFAULT_VARIABLE_CAP
) -> Relation:
    """The relation over phi.free defined by the formula against structure a."""
    validate_formula(phi, a)
    if not phi.free:
        raise InputError("evaluation requires at least one free variable")
    source, index = _instance(phi, a, var_cap)
    return Relation(len(phi.free), fixpoint(source, a).project([index[v] for v in phi.free]))


def is_satisfiable(phi: PPFormula, a: RelationalStructure, var_cap: int = DEFAULT_VARIABLE_CAP) -> bool:
    """Existence of any satisfying assignment (no free variables needed)."""
    validate_formula(phi, a)
    if not phi.variables:
        return True
    return fixpoint(_instance(phi, a, var_cap)[0], a).solve() is not None


# --- derived-relation registry -------------------------------------------------


class Registry:
    """Mutable view of a structure that can materialize derived relations."""

    def __init__(self, a: RelationalStructure):
        self.base = a
        self.items = list(a.relations)
        self.derived = {}
        self._counter = 0

    def ensure(self, rel: Relation, note: str) -> str:
        for name, existing in self.items:
            if existing == rel:
                return name
        if (
            rel.arity == 2
            and rel == diagonal(self.base.size)
            and not any(n == EQ_NAME for n, _ in self.items)
        ):
            name = EQ_NAME
        else:
            name = "%s%d" % (DERIVED_PREFIX, self._counter)
            self._counter += 1
            while any(n == name for n, _ in self.items):
                self._counter += 1
                name = "%s%d" % (DERIVED_PREFIX, self._counter)
        self.items.append((name, rel))
        self.derived[name] = (rel, note)
        return name

    def structure(self) -> RelationalStructure:
        return RelationalStructure(self.base.size, tuple(self.items))


def pp_substitute(phi: PPFormula, replacements, a: RelationalStructure):
    """Rewire atoms to replacement relations (registered as derived relations).

    replacements maps atom index -> Relation; arities must match.
    Returns (formula, structure_with_derived_relations).
    """
    registry = Registry(a)
    atoms = list(phi.atoms)
    for idx, rel in replacements.items():
        if not 0 <= idx < len(atoms):
            raise InputError("atom index %d out of range" % idx)
        if rel.arity != len(atoms[idx].scope):
            raise InputError(
                "replacement arity %d does not match scope length %d"
                % (rel.arity, len(atoms[idx].scope))
            )
        name = registry.ensure(rel, "substituted into atom %d" % idx)
        atoms[idx] = Atom(name, atoms[idx].scope)
    return PPFormula(phi.free, tuple(atoms), phi.extra_vars), registry.structure()


# --- simplified form ------------------------------------------------------------


class SimplifyResult(Record):
    formula: PPFormula
    structure: RelationalStructure
    derived: dict


def _simplified_violation(phi: PPFormula, a: RelationalStructure) -> Optional[str]:
    report = analyze_formula(phi)
    comps_with_free = [c for c in report.components if any(v in c for v in phi.free)]
    if len(comps_with_free) > 1:
        return "free variables split across components"
    if len(report.components) > len(comps_with_free):
        return "bound-only component present"
    free = set(phi.free)
    if set(report.leaves) != free:
        return "free variables differ from leaves"
    for v in phi.variables:
        if v not in free and report.degrees[v] not in (2, 3):
            return "bound variable %r has degree %d" % (v, report.degrees[v])
    for atom in phi.atoms:
        if len(set(atom.scope)) != len(atom.scope):
            return "repeating scope in atom %s" % atom.rel
        if len(atom.scope) == 1:
            return "unary atom %s" % atom.rel
    return None


def is_simplified(phi: PPFormula, a: RelationalStructure) -> bool:
    return _simplified_violation(phi, a) is None


def _fresh(base, taken):
    i = 0
    while True:
        name = "%s~%d" % (base, i)
        if name not in taken:
            return name
        i += 1


# Each rewrite of `simplify` takes (free, atoms, registry, struct, var_cap),
# struct being the registry's structure at the start of the round.  It
# either rewrites the atoms list in place and returns a note naming the
# rewrite, or leaves it alone and returns None.


def _drop_bound_components(free, atoms, registry, struct, var_cap):
    """Drop every component without a free variable, once it is known to be
    satisfiable; free variables in two components cannot be joined."""
    components = analyze_formula(PPFormula(free, tuple(atoms))).components
    if sum(1 for c in components if c & set(free)) > 1:
        raise SimplifyError("free variables lie in distinct components")
    drop = [c for c in components if not c & set(free)]
    for comp in drop:
        comp_atoms = [at for at in atoms if set(at.scope) & comp]
        if comp_atoms and not is_satisfiable(
            PPFormula((min(comp),), tuple(comp_atoms)), struct, var_cap
        ):
            raise SimplifyError("unsatisfiable bound-only component")
        atoms[:] = [at for at in atoms if not set(at.scope) & comp]
    return "dropped bound-only components" if drop else None


def _collapse_repeated_scope(free, atoms, registry, struct, var_cap):
    """Replace the first atom that repeats a variable by the tuples of its
    relation that agree on the repeats, over its distinct variables."""
    for i, at in enumerate(atoms):
        first = tuple(dict.fromkeys(at.scope))
        if len(first) == len(at.scope):
            continue
        positions = [[j for j, w in enumerate(at.scope) if w == v] for v in first]
        tuples = set()
        for t in struct.rel(at.rel).tuples:
            if all(len({t[j] for j in ps}) == 1 for ps in positions):
                tuples.add(tuple(t[ps[0]] for ps in positions))
        name = registry.ensure(
            Relation(len(first), frozenset(tuples)), "diagonal collapse of %s" % at.rel
        )
        atoms[i] = Atom(name, first)
        return "collapsed repeated scope"
    return None


def _eliminate_unary(free, atoms, registry, struct, var_cap):
    """Remove the first unary atom: fold it into another atom on its
    variable, else merge it into another unary atom on it, else drop it if
    it allows the whole domain, else reject the formula.  A variable in no
    other atom is free here, as a bound one would be a bound-only
    component, dropped first."""
    for i, at in enumerate(atoms):
        if len(at.scope) != 1:
            continue
        v = at.scope[0]
        unary = struct.rel(at.rel)
        host = next(
            (j for j, other in enumerate(atoms) if j != i and v in other.scope and len(other.scope) > 1),
            None,
        )
        other_unary = next((j for j, o in enumerate(atoms) if j != i and o.scope == at.scope), None)
        if host is not None:
            other = atoms[host]
            rel = struct.rel(other.rel)
            p = other.scope.index(v)
            restricted = Relation(
                rel.arity,
                frozenset(t for t in rel.tuples if (t[p],) in unary.tuples),
            )
            name = registry.ensure(restricted, "folded unary %s into %s" % (at.rel, other.rel))
            atoms[host] = Atom(name, other.scope)
        elif other_unary is not None:
            merged = Relation(1, unary.tuples & struct.rel(atoms[other_unary].rel).tuples)
            name = registry.ensure(merged, "merged unary atoms on %s" % v)
            atoms[other_unary] = Atom(name, at.scope)
        elif len(unary.tuples) != registry.base.size:
            raise SimplifyError(
                "unary constraint on free %r has no incident atom to fold into" % v
            )
        del atoms[i]
        return "eliminated a unary atom"
    return None


def _project_bound_leaf(free, atoms, registry, struct, var_cap):
    """Project the first bound leaf out of its one atom, which is not unary:
    the unary atoms are gone by now."""
    phi = PPFormula(free, tuple(atoms))
    for v in phi.bound:
        if phi._degree_of(v) != 1:
            continue
        i = next(j for j, at in enumerate(atoms) if v in at.scope)
        at = atoms[i]
        rel = struct.rel(at.rel)
        p = at.scope.index(v)
        projected = relation_project(rel, p + 1)
        name = registry.ensure(projected, "projected bound leaf %r out of %s" % (v, at.rel))
        atoms[i] = Atom(name, at.scope[:p] + at.scope[p + 1:])
        return "projected a bound leaf"
    return None


def _split_free_variable(free, atoms, registry, struct, var_cap):
    """Make the first free variable of degree 2 or more a leaf: a fresh
    variable takes its place in every atom, tied to it by an equality."""
    phi = PPFormula(free, tuple(atoms))
    for v in free:
        if phi._degree_of(v) <= 1:
            continue
        u = _fresh(v, set(phi.variables))
        atoms[:] = [Atom(at.rel, tuple(u if w == v else w for w in at.scope)) for at in atoms]
        eq = registry.ensure(diagonal(registry.base.size), "equality for leaf split")
        atoms.append(Atom(eq, (v, u)))
        return "split free variable %r" % v
    return None


def _chain_high_degree(free, atoms, registry, struct, var_cap):
    """Give each incidence of the first bound variable of degree 4 or more
    its own copy, the copies joined in a chain of equalities."""
    phi = PPFormula(free, tuple(atoms))
    taken = set(phi.variables)
    for v in phi.bound:
        if phi._degree_of(v) <= 3:
            continue
        incidences = [
            (j, p) for j, at in enumerate(atoms) for p, w in enumerate(at.scope) if w == v
        ]
        eq = registry.ensure(diagonal(registry.base.size), "equality for degree chain")
        names = [v]
        for _ in incidences[1:]:
            names.append(_fresh(v, taken))
            taken.add(names[-1])
        for (j, p), u in zip(incidences, names):
            scope = list(atoms[j].scope)
            scope[p] = u
            atoms[j] = Atom(atoms[j].rel, tuple(scope))
        atoms.extend(Atom(eq, pair) for pair in zip(names, names[1:]))
        return "chained high-degree bound variable %r" % v
    return None


_REWRITES = (
    _drop_bound_components,
    _collapse_repeated_scope,
    _eliminate_unary,
    _project_bound_leaf,
    _split_free_variable,
    _chain_high_degree,
)


def simplify(
    phi: PPFormula,
    a: RelationalStructure,
    var_cap: int = DEFAULT_VARIABLE_CAP,
) -> SimplifyResult:
    """Rewrite phi into simplified form, materializing derived relations.

    The output is connected, its free variables are exactly the leaves, bound
    degrees are 2 or 3, scopes are non-repeating and there are no unary atoms.
    Each round applies the first of `_REWRITES` that changes the formula, and
    evaluation is checked to be preserved after every rewrite.
    """
    validate_formula(phi, a)
    registry = Registry(a)
    free = phi.free
    atoms = list(phi.atoms)
    reference = evaluate_pp(phi, a, var_cap)
    for _ in range(200):
        struct = registry.structure()
        for rewrite in _REWRITES:
            note = rewrite(free, atoms, registry, struct, var_cap)
            if note is not None:
                break
        else:
            break
        if evaluate_pp(PPFormula(free, tuple(atoms)), registry.structure(), var_cap) != reference:
            raise SimplifyError("evaluation changed during rewrite: %s" % note)
    else:
        raise SimplifyError("simplification did not terminate")

    result = PPFormula(free, tuple(atoms))
    struct = registry.structure()
    violation = _simplified_violation(result, struct)
    if violation is not None:
        raise SimplifyError("simplification incomplete: %s" % violation)
    if evaluate_pp(result, struct, var_cap) != reference:
        raise SimplifyError("evaluation changed by simplification")
    return SimplifyResult(result, struct, dict(registry.derived))
