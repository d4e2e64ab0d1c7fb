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

from typing import Optional

from .engine import fixpoint
from .errors import CapExceeded, InputError, SimplifyError
from .model import (
    Record,
    Relation,
    RelationalStructure,
    diagonal,
    relation,
)

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
        seen = list(self.free)
        for a in self.atoms:
            for v in a.scope:
                if v not in seen:
                    seen.append(v)
        for v in self.extra_vars:
            if v not in seen:
                seen.append(v)
        return tuple(seen)

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
        self.acyclic = self._acyclic()
        self.is_tree = self.simple and self.acyclic

    def _components(self):
        parent = {v: v for v in self.phi.variables}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a in self.phi.atoms:
            scope = list(dict.fromkeys(a.scope))
            for u in scope[1:]:
                parent[find(u)] = find(scope[0])
        groups = {}
        for v in self.phi.variables:
            groups.setdefault(find(v), []).append(v)
        return [frozenset(g) for g in groups.values()]

    def _acyclic(self):
        # union-find over incidence edges; a multi-edge or a closing edge
        # witnesses a cycle
        nodes = {("v", v) for v in self.phi.variables}
        nodes |= {("a", i) for i in range(len(self.phi.atoms))}
        parent = {x: x for x in nodes}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, a in enumerate(self.phi.atoms):
            for v in a.scope:
                ru, rv = find(("a", i)), find(("v", v))
                if ru == rv:
                    return False
                parent[ru] = rv
        return True

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
        keep only the root's atom on the path toward `toward`, then take the
        connected component of `toward` (the root included)."""
        if root == toward:
            raise InputError("branch is undefined for identical endpoints")
        if not self.is_tree:
            raise InputError("branch queries require a tree formula")
        atoms = self.phi.atoms
        adj_var = {v: [] for v in self.phi.variables}
        for i, a in enumerate(atoms):
            for v in a.scope:
                adj_var[v].append(i)
        # BFS from `toward` avoiding `root` to find which root atom is hit
        keep = None
        seen = {toward}
        frontier = [toward]
        seen_atoms = set()
        while frontier and keep is None:
            nxt = []
            for v in frontier:
                for i in adj_var[v]:
                    if i in seen_atoms:
                        continue
                    seen_atoms.add(i)
                    if root in atoms[i].scope:
                        keep = i
                        break
                    for w in atoms[i].scope:
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
                if keep is not None:
                    break
            frontier = nxt
        if keep is None:
            # different components: the branch is just toward's component
            for comp in self.components:
                if toward in comp:
                    return comp
            raise InputError("unknown variable %r" % toward)
        # component of `toward` after dropping all other atoms at root
        allowed = [i for i, a in enumerate(atoms) if root not in a.scope or i == keep]
        seen = {toward}
        frontier = [toward]
        while frontier:
            nxt = []
            for v in frontier:
                for i in adj_var[v]:
                    if i not in allowed:
                        continue
                    for w in atoms[i].scope:
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
            frontier = nxt
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


def simplify(
    phi: PPFormula,
    a: RelationalStructure,
    var_cap: int = DEFAULT_VARIABLE_CAP,
) -> SimplifyResult:
    """Rewrite phi into simplified form, materializing derived relations.

    The output is connected, its free variables are exactly the leaves, bound
    degrees are 2 or 3, scopes are non-repeating and there are no unary atoms.
    Evaluation is preserved (checked after every rewrite).
    """
    validate_formula(phi, a)
    registry = Registry(a)
    free = list(phi.free)
    atoms = list(phi.atoms)
    reference = evaluate_pp(phi, a, var_cap)

    def degree(v, atoms):
        return sum(at.scope.count(v) for at in atoms)

    def variables(atoms):
        out = list(free)
        for at in atoms:
            for v in at.scope:
                if v not in out:
                    out.append(v)
        return out

    def recheck(atoms, note):
        cur = PPFormula(tuple(free), tuple(atoms))
        got = evaluate_pp(cur, registry.structure(), var_cap)
        if got != reference:
            raise SimplifyError("evaluation changed during rewrite: %s" % note)

    for _ in range(200):
        changed = False
        struct = registry.structure()

        # (1) connectivity
        report = analyze_formula(PPFormula(tuple(free), tuple(atoms)))
        free_set = set(free)
        comps_with_free = [c for c in report.components if c & free_set]
        if len(comps_with_free) > 1:
            raise SimplifyError("free variables lie in distinct components")
        drop = [c for c in report.components if not (c & free_set)]
        if drop:
            for comp in drop:
                comp_atoms = [at for at in atoms if set(at.scope) & comp]
                if comp_atoms and not is_satisfiable(
                    PPFormula((min(comp),), tuple(comp_atoms)), struct, var_cap
                ):
                    raise SimplifyError("unsatisfiable bound-only component")
                atoms = [at for at in atoms if not (set(at.scope) & comp)]
            recheck(atoms, "dropped bound-only components")
            changed = True
            continue

        # (4) repeating scopes
        done = False
        for i, at in enumerate(atoms):
            if len(set(at.scope)) == len(at.scope):
                continue
            rel = struct.rel(at.rel)
            first = list(dict.fromkeys(at.scope))
            positions = {v: [j for j, w in enumerate(at.scope) if w == v] for v in first}
            new_tuples = set()
            for t in rel.tuples:
                if all(len({t[j] for j in positions[v]}) == 1 for v in first):
                    new_tuples.add(tuple(t[positions[v][0]] for v in first))
            name = registry.ensure(
                Relation(len(first), frozenset(new_tuples)),
                "diagonal collapse of %s" % at.rel,
            )
            atoms[i] = Atom(name, tuple(first))
            recheck(atoms, "collapsed repeated scope")
            done = True
            break
        if done:
            continue

        # (5) unary atoms
        done = False
        for i, at in enumerate(atoms):
            if len(at.scope) != 1:
                continue
            v = at.scope[0]
            unary = struct.rel(at.rel)
            host = next(
                (j for j, other in enumerate(atoms) if j != i and v in other.scope and len(other.scope) > 1),
                None,
            )
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
                del atoms[i]
            else:
                other_unary = next(
                    (j for j, o in enumerate(atoms) if j != i and o.scope == at.scope),
                    None,
                )
                if other_unary is not None:
                    merged = Relation(
                        1, unary.tuples & struct.rel(atoms[other_unary].rel).tuples
                    )
                    name = registry.ensure(merged, "merged unary atoms on %s" % v)
                    atoms[other_unary] = Atom(name, at.scope)
                    del atoms[i]
                elif v not in free_set:
                    if not unary.tuples:
                        raise SimplifyError("unsatisfiable unary constraint on bound %r" % v)
                    del atoms[i]
                elif len(unary.tuples) == a.size:
                    # full-domain restriction on an otherwise isolated free
                    # variable: vacuous, drop it
                    del atoms[i]
                else:
                    raise SimplifyError(
                        "unary constraint on free %r has no incident atom to fold into" % v
                    )
            recheck(atoms, "eliminated a unary atom")
            done = True
            break
        if done:
            continue

        # (2a) bound leaves: project them out of their single atom
        done = False
        for v in variables(atoms):
            if v in free_set or degree(v, atoms) != 1:
                continue
            i = next(j for j, at in enumerate(atoms) if v in at.scope)
            at = atoms[i]
            if len(at.scope) == 1:
                continue  # handled by the unary pass next round
            rel = struct.rel(at.rel)
            p = at.scope.index(v)
            projected = Relation(
                rel.arity - 1, frozenset(t[:p] + t[p + 1:] for t in rel.tuples)
            )
            name = registry.ensure(projected, "projected bound leaf %r out of %s" % (v, at.rel))
            atoms[i] = Atom(name, at.scope[:p] + at.scope[p + 1:])
            recheck(atoms, "projected a bound leaf")
            done = True
            break
        if done:
            continue

        # (2b) free variables must be leaves
        done = False
        taken = set(variables(atoms))
        for v in free:
            if degree(v, atoms) <= 1:
                continue
            u = _fresh(v, taken)
            taken.add(u)
            atoms = [
                Atom(at.rel, tuple(u if w == v else w for w in at.scope)) for at in atoms
            ]
            eq = registry.ensure(diagonal(a.size), "equality for leaf split")
            atoms.append(Atom(eq, (v, u)))
            recheck(atoms, "split free variable %r" % v)
            done = True
            break
        if done:
            continue

        # (3) bound degree > 3: equality chain
        done = False
        for v in variables(atoms):
            if v in free_set:
                continue
            d = degree(v, atoms)
            if d <= 3:
                continue
            incidences = [
                (j, p) for j, at in enumerate(atoms) for p, w in enumerate(at.scope) if w == v
            ]
            eq = registry.ensure(diagonal(a.size), "equality for degree chain")
            names = [v]
            for _ in incidences[1:]:
                u = _fresh(v, taken)
                taken.add(u)
                names.append(u)
            for (j, p), u in zip(incidences, names):
                scope = list(atoms[j].scope)
                scope[p] = u
                atoms[j] = Atom(atoms[j].rel, tuple(scope))
            for prev, nxt in zip(names, names[1:]):
                atoms.append(Atom(eq, (prev, nxt)))
            recheck(atoms, "chained high-degree bound variable %r" % v)
            done = True
            break
        if done:
            continue

        if not changed:
            break
    else:
        raise SimplifyError("simplification did not terminate")

    result = PPFormula(tuple(free), tuple(atoms))
    struct = registry.structure()
    violation = _simplified_violation(result, struct)
    if violation is not None:
        raise SimplifyError("simplification incomplete: %s" % violation)
    if evaluate_pp(result, struct, var_cap) != reference:
        raise SimplifyError("evaluation changed by simplification")
    return SimplifyResult(result, struct, dict(registry.derived))
