"""Formula surgery and comb analysis.

surgery_step rewires one constraint of a simplified formula through a chain
of domain-many copies and re-restricts the copied free variables so that the
result still defines a B-essential relation of the same arity.

comb_extract walks a simplified tree formula from a chosen leaf and emits the
comb-shaped definition (a spine of ternary sections with one free tooth
each); comb_analyze computes the path-image subsets G_i/H_i, the repeated
(G,H) pair, the supported-path digraphs P and Q, and the contradiction flags.
"""

from __future__ import annotations

from .decide import decide_jonsson
from .engine import DEFAULT_VERTEX_CAP, is_b_essential
from .errors import InputError
from .model import (
    Digraph,
    Record,
    Relation,
    RelationalStructure,
    Subset,
    diagonal,
    digraph_reach,
)
from .ppform import (
    Atom,
    DEFAULT_VARIABLE_CAP,
    PPFormula,
    Registry,
    analyze_formula,
    evaluate_pp,
    is_simplified,
)

# annotations stay strings, so typing is read by type checkers only
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional


class CombFormula(Record):
    """(exists w_1..w_{lam+1})  S_1(z_1,w_1,w_2) & ... & S_lam(z_lam,w_lam,w_{lam+1})."""

    lam: int
    sections: tuple  # ternary Relations

    def __post_init__(self):
        object.__setattr__(self, "sections", tuple(self.sections))
        if self.lam != len(self.sections) or self.lam < 1:
            raise InputError("comb needs lam >= 1 sections")
        for i, s in enumerate(self.sections):
            if s.arity != 3:
                raise InputError("comb section %d is not ternary" % i)

    def as_formula(self, a: RelationalStructure):
        """Materialize as a PPFormula over a structure extended with the sections."""
        registry = Registry(a)
        atoms = []
        for i, s in enumerate(self.sections, start=1):
            name = registry.ensure(s, "comb section %d" % i)
            atoms.append(Atom(name, ("z%d" % i, "w%d" % i, "w%d" % (i + 1))))
        free = tuple("z%d" % i for i in range(1, self.lam + 1))
        return PPFormula(free, tuple(atoms)), registry.structure()


class SurgeryChoice(Record):
    y: str
    atom_index: int
    c: Relation                     # the unary relation C = Phi(y)
    m: dict                         # free variable -> chosen copy index (1-based)
    restrictions: dict              # (free variable, copy index) -> "A" or "B"


class SurgeryResult(Record):
    formula: PPFormula
    structure: RelationalStructure
    choice: SurgeryChoice
    psi: PPFormula
    theta: PPFormula
    v_relation: Relation
    v_free: tuple


def _copy_name(v, i):
    return "%s@%d" % (v, i)


def _step_three(tuples, cols, bset):
    """The block-essentiality recursion: choose one column per block and
    restrict the remaining columns.

    cols is a list of (block, copy_index) labels aligned with the tuple
    coordinates; returns (m: block -> copy_index, restr: (block, copy) -> "A"/"B").
    """
    counts = {}
    for blk, _ in cols:
        counts[blk] = counts.get(blk, 0) + 1
    if all(c == 1 for c in counts.values()):
        return {blk: j for blk, j in cols}, {}
    target = None
    for blk, _ in cols:
        if counts[blk] > 1:
            target = blk  # last block (in column order) with more than one column
    p = max(i for i, (blk, _) in enumerate(cols) if blk == target)
    blk_p, j_p = cols[p]
    meets = any(
        all(e in bset for q, e in enumerate(t) if q != p) for t in tuples
    )
    if not meets:
        # the relation avoids B everywhere else: drop this column unrestricted
        new_tuples = {t[:p] + t[p + 1:] for t in tuples}
        new_cols = cols[:p] + cols[p + 1:]
        m, restr = _step_three(new_tuples, new_cols, bset)
        restr[(blk_p, j_p)] = "A"
        return m, restr
    # keep this column, restrict the block's other columns to B
    others = [i for i, (blk, _) in enumerate(cols) if blk == target and i != p]
    other_set = set(others)
    new_tuples = set()
    for t in tuples:
        if all(t[i] in bset for i in others):
            new_tuples.add(tuple(e for i, e in enumerate(t) if i not in other_set))
    new_cols = [cj for i, cj in enumerate(cols) if i not in other_set]
    m, restr = _step_three(new_tuples, new_cols, bset)
    for i in others:
        restr[cols[i]] = "B"
    return m, restr


def surgery_step(
    phi: PPFormula,
    a: RelationalStructure,
    b: Subset,
    y: str,
    atom_index: int,
    cap: int = DEFAULT_VERTEX_CAP,
    var_cap: int = DEFAULT_VARIABLE_CAP,
) -> SurgeryResult:
    """One surgery step: move the chosen constraint to a fresh variable, chain
    |A| copies, and re-restrict so the defined relation stays B-essential."""
    if y in phi.free:
        raise InputError("%r must be a bound variable" % y)
    if y not in phi.variables:
        raise InputError("unknown variable %r" % y)
    if not 0 <= atom_index < len(phi.atoms):
        raise InputError("atom index %d out of range" % atom_index)
    if y not in phi.atoms[atom_index].scope:
        raise InputError("atom %d does not contain %r" % (atom_index, y))
    if not is_simplified(phi, a):
        raise InputError("formula is not in simplified form")
    u_rel = evaluate_pp(phi, a, var_cap)
    if not is_b_essential(a, u_rel, b):
        raise InputError("formula does not define a B-essential relation")
    if not decide_jonsson(a, b, cap, certificate=False).holds:
        raise InputError("B does not Jónsson-absorb the polymorphism algebra")

    registry = Registry(a)
    c_rel = evaluate_pp(phi.project((y,)), a, var_cap)
    c_name = registry.ensure(c_rel, "surgery restriction C = Phi(%s)" % y)

    taken = set(phi.variables)
    y_star = "%s*" % y
    while y_star in taken:
        y_star += "*"
    atom = phi.atoms[atom_index]
    moved = Atom(atom.rel, tuple(y_star if v == y else v for v in atom.scope))
    psi_atoms = (
        phi.atoms[:atom_index]
        + (moved,)
        + phi.atoms[atom_index + 1:]
        + (Atom(c_name, (y,)), Atom(c_name, (y_star,)))
    )
    psi = PPFormula(phi.free, psi_atoms)

    l = a.size
    theta_atoms = []
    for i in range(1, l + 1):
        def rename(v, i=i):
            if v == y_star:
                return _copy_name(y, i + 1) if i < l else _copy_name(y_star, l)
            return _copy_name(v, i)
        for at in psi.atoms:
            theta_atoms.append(Atom(at.rel, tuple(rename(v) for v in at.scope)))
    theta = PPFormula((), tuple(theta_atoms))

    v_free = tuple(
        _copy_name(x, j) for x in phi.free for j in range(1, l + 1)
    )
    struct = registry.structure()
    v_rel = evaluate_pp(theta.project(v_free), struct, max(var_cap, len(v_free) + 8))

    cols = [(x, j) for x in phi.free for j in range(1, l + 1)]
    m, restr = _step_three(set(v_rel.tuples), cols, frozenset(b.elements))

    rename_final = {_copy_name(x, m[x]): x for x in phi.free}
    final_atoms = [
        Atom(at.rel, tuple(rename_final.get(v, v) for v in at.scope)) for at in theta_atoms
    ]
    b_name = None
    for (x, j), kind in sorted(restr.items()):
        if kind != "B":
            continue
        if b_name is None:
            b_name = registry.ensure(
                Relation(1, frozenset((e,) for e in b.elements)), "B restriction"
            )
        final_atoms.append(Atom(b_name, (_copy_name(x, j),)))
    result = PPFormula(phi.free, tuple(final_atoms))
    struct = registry.structure()

    out_rel = evaluate_pp(result, struct, max(var_cap, len(v_free) + 8))
    if not is_b_essential(struct, out_rel, b):
        raise AssertionError("surgery output is not B-essential")

    choice = SurgeryChoice(y, atom_index, c_rel, m, restr)
    return SurgeryResult(result, struct, choice, psi, theta, v_rel, v_free)


# --- comb extraction ------------------------------------------------------------


class CombExtraction(Record):
    comb: CombFormula
    selected: tuple        # z_1 .. z_lam (free leaves of the input)
    spine: tuple           # w_1 .. w_{lam+1}
    fixed_formula: PPFormula
    structure: RelationalStructure
    kappa: int
    theta: int


def comb_extract(
    phi: PPFormula,
    a: RelationalStructure,
    b: Subset,
    z1: str,
    var_cap: int = DEFAULT_VARIABLE_CAP,
) -> CombExtraction:
    """Walk the tree formula from the leaf z1, collecting the comb spine and
    teeth; unselected free variables are fixed to B and the ternary sections
    are materialized by evaluating branch substructures."""
    report = analyze_formula(phi)
    if not report.is_tree:
        raise InputError("comb extraction requires a tree formula")
    if z1 not in phi.free or z1 not in report.leaves:
        raise InputError("%r is not a free leaf" % z1)

    registry = Registry(a)
    eq = registry.ensure(diagonal(a.size), "spine equality")
    taken = set(phi.variables)

    def fresh_w(k):
        name = "w~%d" % k
        while name in taken:
            name += "'"
        taken.add(name)
        return name

    w1 = fresh_w(1)
    work_atoms = phi.atoms + (Atom(eq, (w1, z1)),)
    work = PPFormula(phi.free, work_atoms)
    wreport = analyze_formula(work)
    free_list = list(phi.free)

    def leaves_outside(u):
        br = wreport.branch(u, z1)
        return sum(1 for x in free_list if x not in br)

    neigh0 = sorted(v for v in wreport.neigh(z1) if v != w1)
    if not neigh0:
        raise InputError("the leaf %r has no neighborhood to walk into" % z1)
    w2 = min(neigh0, key=lambda u: (-leaves_outside(u), u))
    ws = [w1, w2]
    zs = [z1]
    guard = 0
    while True:
        guard += 1
        if guard > 10 * (len(work.variables) + 1):
            raise AssertionError("comb walk did not terminate")
        wi, wprev = ws[-1], ws[-2]
        if wi in wreport.leaves:
            break
        options = sorted(wreport.neigh(wi) - wreport.branch(wi, wprev))
        if len(options) == 1:
            ws[-1] = options[0]
            continue
        w_next = min(options, key=lambda u: (-leaves_outside(u), u))
        zone = wreport.branch(w_next, wi) - wreport.branch(wi, wprev)
        z_cands = sorted(
            v for v in zone if v in wreport.leaves and v in set(free_list) and v != w_next
        )
        if not z_cands:
            raise AssertionError("no free leaf available for the next tooth")
        zs.append(z_cands[0])
        ws.append(w_next)
    lam = len(zs)

    b_name = registry.ensure(Relation(1, frozenset((e,) for e in b.elements)), "B restriction")
    selected = set(zs)
    fixed_atoms = work_atoms + tuple(
        Atom(b_name, (x,)) for x in free_list if x not in selected
    )
    struct = registry.structure()
    fixed = PPFormula(tuple(zs), fixed_atoms)
    freport = analyze_formula(fixed)

    sections = []
    for i in range(1, lam + 1):
        if i == 1:
            varset = freport.branch(ws[1], ws[0])
        else:
            varset = freport.branch(ws[i], ws[i - 1]) - freport.branch(ws[i - 1], ws[i - 2])
            varset = varset | {ws[i - 1]}
        sub_atoms = tuple(at for at in fixed_atoms if set(at.scope) <= varset)
        sub = PPFormula((zs[i - 1], ws[i - 1], ws[i]), sub_atoms)
        sections.append(evaluate_pp(sub, struct, var_cap))

    comb = CombFormula(lam, tuple(sections))

    kappa = len(phi.free)
    theta = a.theta
    if kappa > (2 * theta - 2) ** lam // 2 + 1:
        raise AssertionError(
            "comb bound violated: kappa=%d > (2*%d-2)^%d/2+1" % (kappa, theta, lam)
        )

    comb_phi, comb_struct = comb.as_formula(struct)
    lhs = evaluate_pp(comb_phi, comb_struct, var_cap)
    rhs = evaluate_pp(fixed, struct, var_cap)
    if lhs != rhs:
        raise AssertionError("comb evaluation differs from the fixed formula")

    return CombExtraction(comb, tuple(zs), tuple(ws), fixed, struct, kappa, theta)


# --- comb analysis --------------------------------------------------------------


def _edge_set(section: Relation, support):
    return {(u, v) for (z, u, v) in section.tuples if z in support}


def _compose(rel1, rel2):
    by_first = {}
    for u, v in rel2:
        by_first.setdefault(u, []).append(v)
    return {(u, w) for u, v in rel1 for w in by_first.get(v, ())}


class CombReport(Record):
    g: dict                      # i -> frozenset (2 <= i <= lam)
    h: dict
    repeated: Optional[tuple]    # least (k, l) with (G_k, H_k) == (G_l, H_l)
    p: Optional[Digraph]
    q: Optional[Digraph]
    comb_essential: bool
    q_meets_gxh: Optional[bool]
    g_has_predecessors: Optional[bool]
    h_has_successors: Optional[bool]
    g_closed_under_p: Optional[bool]
    walk: Optional[list]
    contradiction_detected: bool


def comb_analyze(comb: CombFormula, a: RelationalStructure, b: Subset) -> CombReport:
    """Path-image analysis of a comb: G_i/H_i, the repeated pair, P and Q for
    it, and the walk/loop/contradiction flags."""
    size = a.size
    bset = frozenset(b.elements)
    aset = frozenset(range(size))
    pb = [_edge_set(s, bset) for s in comb.sections]
    pa = [_edge_set(s, aset) for s in comb.sections]

    # G_i is the image of A along sections 1..i-1, H_i the preimage of A
    # along sections i..lam; h is keyed in ascending order, as g is
    g, h = {}, {}
    forward = backward = aset
    for i in range(2, comb.lam + 1):
        forward = frozenset(v for u, v in pb[i - 2] if u in forward)
        g[i] = forward
    for i in range(comb.lam, 1, -1):
        backward = frozenset(u for u, v in pb[i - 1] if v in backward)
        h[i] = backward
    h = dict(sorted(h.items()))

    repeated = None
    for k in range(2, comb.lam + 1):
        for l in range(k + 1, comb.lam + 1):
            if (g[k], h[k]) == (g[l], h[l]):
                repeated = (k, l)
                break
        if repeated:
            break

    comb_phi, comb_struct = comb.as_formula(a)
    rel = evaluate_pp(comb_phi, comb_struct)
    essential = comb.lam >= 2 and is_b_essential(comb_struct, rel, b)

    if repeated is None:
        return CombReport(g, h, None, None, None, essential,
                          None, None, None, None, None, False)

    k, l = repeated
    gg, hh = g[k], h[k]
    # composing from the identity fixes the order in which the edge sets
    # are built, and so their reprs
    pacc = qacc = {(u, u) for u in range(size)}
    for s in pb[k - 1: l - 1]:
        pacc = _compose(pacc, s)
    for s in pa[k - 1: l - 1]:
        qacc = _compose(qacc, s)
    p = Digraph(size, frozenset(pacc))
    q = Digraph(size, frozenset(qacc))

    q_meets = any(u in gg and v in hh for u, v in q.edges)
    g_pred = all(any((u, c) in p.edges and u in gg for u in range(size)) for c in gg)
    h_succ = all(any((u, c) in p.edges and c in hh for c in range(size)) for u in hh)
    g_closed = all(v in gg for u, v in p.edges if u in gg)
    walk = digraph_reach(p, gg, hh)

    contradiction = (
        essential
        and not (gg & hh)
        and g_closed
        and q_meets
        and g_pred
        and h_succ
    )
    return CombReport(g, h, repeated, p, q, essential,
                      q_meets, g_pred, h_succ, g_closed, walk, contradiction)
