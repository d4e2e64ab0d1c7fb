"""Exhaustive small-domain fixture corpus.

Enumerates every structure carrying a single relation of bounded arity over a
fixed domain (singleton unary relations added), pairs each with every
nonempty proper subuniverse subset, and reports the counts.  The acceptance
suites sweep this corpus to cross-check the decision procedures against the
brute-force oracles.
"""

from __future__ import annotations

from itertools import product

from .engine import DEFAULT_VERTEX_CAP, power_fixpoint
from .errors import CapExceeded, InputError
from .model import Record, Relation, RelationalStructure, Subset, subset, tuple_rank, with_singletons


class CorpusEntry(Record):
    label: str
    structure: RelationalStructure
    b: Subset


class CorpusManifest(Record):
    size: int
    max_arity: int
    relation_choices: int       # raw count before structural dedup
    structures: list            # (label, RelationalStructure)
    entries: list               # CorpusEntry per (structure, B) pair


def relation_choices(size: int, max_arity: int):
    """Every relation of arity 1..max_arity over {0..size-1}, as
    (arity, bitmask, Relation); bitmask indexes the sorted tuple universe."""
    for arity in range(1, max_arity + 1):
        universe = sorted(product(range(size), repeat=arity))
        for mask in range(1 << len(universe)):
            tuples = frozenset(t for i, t in enumerate(universe) if mask >> i & 1)
            yield arity, mask, Relation(arity, tuples)


def relation_count(size: int, max_arity: int, cap: int):
    """How many relations `relation_choices` yields: the sum over arities k
    of 2^(size^k).  None when a single term alone is larger than both cap
    and 2^64, so that a huge count is never written out."""
    if size == 1:
        return 2 * max_arity
    count, cells = 0, 1
    for _ in range(max_arity):
        cells *= size
        if cells > max(cap.bit_length(), 64):
            return None
        count += 1 << cells
    return count


def enumerate_structures(size: int, max_arity: int):
    """Deduplicated labeled structures: relation "r" plus all singletons.

    Two choices collapse when they induce the same multiset of relations
    (e.g. r = {(0,)} against r = {(1,)}, which differ only in which
    singleton the extra unary relation duplicates).
    """
    seen = {}
    out = []
    raw = 0
    for arity, mask, rel in relation_choices(size, max_arity):
        raw += 1
        base = RelationalStructure(size, (("r", rel),))
        expanded = with_singletons(base)
        key = frozenset(
            ((r.arity, r.tuples), sum(1 for _, o in expanded.relations if o == r))
            for _, r in expanded.relations
        )
        if key in seen:
            continue
        label = "a%d_m%d" % (arity, mask)
        seen[key] = label
        out.append((label, expanded))
    return raw, out


def subuniverse_subsets(a: RelationalStructure, cap: int = DEFAULT_VERTEX_CAP):
    """Nonempty proper subsets of the domain closed under all polymorphisms.

    As in `closure_unary`, b's closure is what the fixpoint of power(A,|b|)
    projects onto the vertex of b's sorted elements; one serves each size."""
    bases = {}
    out = []
    for mask in range(1, (1 << a.size) - 1):
        b = subset(e for e in range(a.size) if mask >> e & 1)
        if len(b) not in bases:
            bases[len(b)] = power_fixpoint(a, len(b), cap)
        vertex = tuple_rank(b.sorted_elements(), a.size)
        if {t[0] for t in bases[len(b)].project((vertex,))} == b.elements:
            out.append(b)
    return out


def build_corpus(size: int, max_arity: int, cap: int = DEFAULT_VERTEX_CAP) -> CorpusManifest:
    """The corpus over {0..size-1} for relation arities 1..max_arity.

    cap bounds the number of relations enumerated as well as every power
    structure of the closure checks; a corpus over it is refused before
    any enumeration."""
    if size < 1:
        raise InputError("corpus size must be at least 1, got %d" % size)
    if max_arity < 1:
        raise InputError("corpus max arity must be at least 1, got %d" % max_arity)
    count = relation_count(size, max_arity, cap)
    if count is None or count > cap:
        raise CapExceeded(
            "corpus would enumerate %s relations, cap is %d"
            % ("more than 2^64" if count is None else count, cap)
        )
    raw, structures = enumerate_structures(size, max_arity)
    entries = []
    for label, a in structures:
        for b in subuniverse_subsets(a, cap):
            blabel = "".join(str(e) for e in b)
            entries.append(CorpusEntry("%s_b%s" % (label, blabel), a, b))
    return CorpusManifest(size, max_arity, raw, structures, entries)


def manifest_obj(m: CorpusManifest):
    return {
        "size": m.size,
        "max_arity": m.max_arity,
        "relation_choices": m.relation_choices,
        "structure_count": len(m.structures),
        "instance_count": len(m.entries),
        "instances": [
            {"label": e.label, "structure": e.label.split("_b")[0], "b": e.b.sorted_elements()}
            for e in m.entries
        ],
    }
