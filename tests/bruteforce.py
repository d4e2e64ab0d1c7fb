"""Brute-force oracles, deliberately independent of the CSP engine.

Everything here enumerates whole operation tables and checks preservation by
direct iteration over tuple combinations (pp-formulas: whole variable
assignments, checked atom by atom).  That only scales to two-element
domains and low arities — which is the point: the constraint-propagation
route in the package is cross-checked against these closures.
"""

from itertools import product

from absorb.model import OperationTable, Relation


def all_tables(size, arity):
    """Every operation table of the given arity over {0..size-1}."""
    for values in product(range(size), repeat=size ** arity):
        yield OperationTable(arity, size, values)


def preserves(a, f):
    """Direct check that f maps tuples of every relation back into it."""
    for _, rel in a.relations:
        rows = sorted(rel.tuples)
        for combo in product(rows, repeat=f.arity):
            image = tuple(f.apply([row[j] for row in combo]) for j in range(rel.arity))
            if image not in rel.tuples:
                return False
    return True


_poly_cache = {}


def polymorphisms(a, arity):
    """All polymorphisms of the structure at the given arity, by enumeration."""
    key = (a, arity)
    if key not in _poly_cache:
        _poly_cache[key] = [f for f in all_tables(a.size, arity) if preserves(a, f)]
    return _poly_cache[key]


def generated_subpower_oracle(a, gens):
    """{ f(g_1,…,g_m) : f an m-ary polymorphism }, m = len(gens).

    For finite structures this single application of every m-ary polymorphism
    to the generator rows is exactly the generated subpower.
    """
    gens = [tuple(g) for g in gens]
    n = len(gens[0])
    out = set()
    for f in polymorphisms(a, len(gens)):
        out.add(tuple(f.apply([g[j] for g in gens]) for j in range(n)))
    return out


def absorption_term_oracle(a, b, n):
    """Lexicographically least n-ary absorption term table, by enumeration."""
    belems = set(b.elements)
    bs = sorted(belems)
    for f in all_tables(a.size, n):
        if not f.is_idempotent():
            continue
        ok = True
        for i in range(n):
            pools = [bs] * i + [list(range(a.size))] + [bs] * (n - 1 - i)
            if any(f.apply(args) not in belems for args in product(*pools)):
                ok = False
                break
        if ok and preserves(a, f):
            return f
    return None


def evaluate_pp_oracle(phi, a):
    """The relation phi defines over a: try every assignment of its variables
    and keep the free-variable tuples of those that satisfy every atom."""
    variables = phi.variables
    out = set()
    for values in product(range(a.size), repeat=len(variables)):
        value = dict(zip(variables, values))
        if all(tuple(value[v] for v in atom.scope) in a.rel(atom.rel).tuples for atom in phi.atoms):
            out.add(tuple(value[v] for v in phi.free))
    return Relation(len(phi.free), frozenset(out))


def closure_unary_oracle(a, b):
    """Closure of b under all polymorphisms of arity |b|, by enumeration."""
    gens = [(e,) for e in sorted(b.elements)]
    return {t[0] for t in generated_subpower_oracle(a, gens)}
