"""Core data model: structures, relations, subsets, operation tables, digraphs.

All values are immutable after construction and hashable, so they can be
memoized and shared freely between threads.  Domain elements are 0-based
integers; external labels exist only in the codec layer.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from operator import attrgetter

from .errors import InputError

# annotations stay strings, so typing is read by type checkers only
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Optional, Sequence

SINGLETON_PREFIX = "_s"


class Record:
    """Base of the package's immutable value types.

    A subclass declares its fields as annotated class attributes, optionally
    with defaults.  An instance is built by position or keyword and runs the
    subclass's `__post_init__`, which may normalise a field through
    `object.__setattr__`.  It refuses assignment and deletion, equals only
    an instance of the same class with equal fields, and hashes as the
    tuple of its fields.

    It stands in for the standard library's frozen record decorator, whose
    import (it pulls in `inspect`, `ast` and `tokenize`) costs a one-query
    CLI process about as much as the rest of the package.  The hash is the
    one that decorator gives, so set and dict order are the same under
    either.

    Everything per class is computed once, in `__init_subclass__`: the field
    tuple, the defaults, an `attrgetter` key, and the `__init__`, `__eq__`
    and `__hash__` closures over them.  `__init__` stores each field with
    `object.__setattr__` rather than through `self.__dict__`: touching
    `__dict__` turns the instance's compact attribute storage into a real
    dict, which slows every later attribute read (`OperationTable.apply`
    runs about 150,000 times in one `verify`).
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        n = len(fields)
        key = attrgetter(*fields)
        post = getattr(cls, "__post_init__", None)
        setter = object.__setattr__

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != n:
                args = cls._bind(args, kwargs)
            for name, value in zip(fields, args):
                setter(self, name, value)
            if post is not None:
                post(self)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        if n == 1:
            def __hash__(self):
                return hash((key(self),))
        else:
            def __hash__(self):
                return hash(key(self))

        cls.__init__ = __init__
        cls.__eq__ = __eq__
        cls.__hash__ = __hash__

    @classmethod
    def _bind(cls, args, kwargs):
        """Positional values for every field, from arguments and defaults."""
        name = cls.__qualname__
        if len(args) > len(cls._fields):
            raise TypeError(
                "%s() takes %d fields but %d were given" % (name, len(cls._fields), len(args))
            )
        values = list(args)
        for field in cls._fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                raise TypeError("%s() missing field %r" % (name, field))
        if kwargs:
            raise TypeError(
                "%s() got unexpected or repeated fields %s" % (name, ", ".join(map(repr, kwargs)))
            )
        return values

    def __setattr__(self, name, value):
        raise AttributeError("cannot set %r of an immutable %s" % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete %r of an immutable %s" % (name, type(self).__name__))

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%s" % (f, _field_repr(getattr(self, f))) for f in self._fields),
        )


def _field_repr(value):
    """repr(value), but a frozenset's elements in sorted order, so that equal
    records print alike whatever order their sets were built in.  Elements
    that cannot be compared are sorted by their repr."""
    if not isinstance(value, frozenset) or not value:
        return repr(value)
    try:
        items = sorted(value)
    except TypeError:
        items = sorted(value, key=repr)
    return "frozenset({%s})" % ", ".join(map(repr, items))


class Relation(Record):
    """An n-ary relation: a duplicate-free set of integer tuples."""

    arity: int
    tuples: frozenset

    def __post_init__(self):
        if self.arity < 1:
            raise InputError("relation arity must be positive, got %d" % self.arity)
        if not isinstance(self.tuples, frozenset):
            object.__setattr__(self, "tuples", frozenset(self.tuples))
        for t in self.tuples:
            if len(t) != self.arity:
                raise InputError(
                    "tuple %r has length %d, expected arity %d" % (t, len(t), self.arity)
                )

    def sorted_tuples(self):
        return sorted(self.tuples)

    def __contains__(self, t):
        return tuple(t) in self.tuples

    def __len__(self):
        return len(self.tuples)


def relation(arity: int, tuples: Iterable[Sequence[int]]) -> Relation:
    return Relation(arity, frozenset(tuple(t) for t in tuples))


def diagonal(size: int) -> Relation:
    """The binary equality relation on {0..size-1} (always a subpower)."""
    return relation(2, [(a, a) for a in range(size)])


def full_relation(size: int, arity: int) -> Relation:
    return relation(arity, product(range(size), repeat=arity))


class RelationalStructure(Record):
    """A finite relational structure: domain {0..size-1} plus named relations."""

    size: int
    relations: tuple  # tuple of (name, Relation) pairs, sorted by name

    def __post_init__(self):
        if self.size < 1:
            raise InputError("domain size must be positive, got %d" % self.size)
        # Canonical order: relations are kept sorted by name so that equal
        # structures compare equal regardless of construction order.
        rels = tuple(sorted(self.relations, key=lambda kv: kv[0]))
        object.__setattr__(self, "relations", rels)
        seen = {}
        for name, rel in rels:
            if name in seen:
                raise InputError("duplicate relation name %r" % name)
            seen[name] = rel
            for t in rel.tuples:
                for e in t:
                    if not 0 <= e < self.size:
                        raise InputError(
                            "relation %r: entry %d out of range for size %d"
                            % (name, e, self.size)
                        )
        object.__setattr__(self, "_by_name", seen)

    @property
    def names(self):
        return tuple(name for name, _ in self.relations)

    def rel(self, name: str) -> Relation:
        try:
            return self._by_name[name]
        except KeyError:
            raise InputError("unknown relation %r" % name) from None

    def has(self, name: str) -> bool:
        return name in self._by_name

    @property
    def theta(self) -> int:
        """Max relation arity, padded to at least 2 so bound formulas are defined."""
        arities = [rel.arity for _, rel in self.relations]
        return max([2] + arities)

    @property
    def domain(self):
        return range(self.size)

    def with_relation(self, name: str, rel: Relation) -> "RelationalStructure":
        return RelationalStructure(self.size, self.relations + ((name, rel),))

    def signature(self):
        return tuple((name, rel.arity) for name, rel in self.relations)


def structure(size: int, rels=None) -> RelationalStructure:
    items = []
    for name, r in (rels or {}).items():
        if isinstance(r, Relation):
            items.append((name, r))
        else:
            tuples = frozenset(tuple(t) for t in r)
            arity = len(next(iter(tuples))) if tuples else 1
            items.append((name, Relation(arity, tuples)))
    return RelationalStructure(size, tuple(items))


class Subset(Record):
    """A sorted duplicate-free set of domain elements."""

    elements: frozenset

    def __post_init__(self):
        if not isinstance(self.elements, frozenset):
            object.__setattr__(self, "elements", frozenset(self.elements))
        for e in self.elements:
            if not isinstance(e, int) or e < 0:
                raise InputError("subset element %r is not a nonnegative integer" % (e,))

    def sorted_elements(self):
        return sorted(self.elements)

    def check_bounds(self, size: int):
        """Refuse B when it is empty or holds an element outside range(size)."""
        if not self.elements:
            raise InputError("B must be nonempty")
        for e in self.elements:
            if e >= size:
                raise InputError("subset element %d out of range for size %d" % (e, size))

    def __contains__(self, e):
        return e in self.elements

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.sorted_elements())


def subset(elements: Iterable[int]) -> Subset:
    return Subset(frozenset(elements))


def tuple_rank(args: Sequence[int], size: int) -> int:
    """Lexicographic rank of an argument tuple: sum args[i] * size^(k-1-i)."""
    r = 0
    for a in args:
        r = r * size + a
    return r


def unrank_tuple(rank: int, size: int, arity: int) -> tuple:
    out = []
    for _ in range(arity):
        out.append(rank % size)
        rank //= size
    return tuple(reversed(out))


class OperationTable(Record):
    """A finitary operation on {0..size-1}, stored as a flat value table.

    values has length size^arity and is indexed by the lexicographic rank
    of the argument tuple.
    """

    arity: int
    size: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.arity < 1:
            raise InputError("operation arity must be positive")
        if len(self.values) != self.size ** self.arity:
            raise InputError(
                "value table has length %d, expected %d"
                % (len(self.values), self.size ** self.arity)
            )
        for v in self.values:
            if not 0 <= v < self.size:
                raise InputError("table value %r out of range for size %d" % (v, self.size))

    def apply(self, args: Sequence[int]) -> int:
        return self.values[tuple_rank(args, self.size)]

    def is_idempotent(self) -> bool:
        return all(self.apply((a,) * self.arity) == a for a in range(self.size))


def projection_table(size: int, arity: int, coordinate: int) -> OperationTable:
    """The projection onto `coordinate` (0-based) as an explicit table."""
    values = [args[coordinate] for args in product(range(size), repeat=arity)]
    return OperationTable(arity, size, tuple(values))


class Digraph(Record):
    """A digraph on {0..n-1} with a duplicate-free edge set."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InputError("edge (%d,%d) out of bounds for %d vertices" % (u, v, self.n))


def with_singletons(a: RelationalStructure):
    """Add the missing singleton unary relations _s<a> = {(a,)}.

    Returns (structure, added_names); added_names is empty when every
    singleton was already present under some name.
    """
    present = set()
    for name, rel in a.relations:
        if rel.arity == 1 and len(rel.tuples) == 1:
            present.add(next(iter(rel.tuples))[0])
    new = []
    for e in range(a.size):
        if e in present:
            continue
        name = "%s%d" % (SINGLETON_PREFIX, e)
        if a.has(name):
            raise InputError(
                "relation name %r collides with the reserved singleton prefix" % name
            )
        new.append((name, relation(1, [(e,)])))
    if not new:
        return a, ()
    return RelationalStructure(a.size, a.relations + tuple(new)), tuple(n for n, _ in new)


def power_blocks(rows, arity: int, size: int, k: int):
    """The vertex ranks of the k-tuples of rows, in `product(rows, repeat=k)`
    order, one block per leading row.

    A block holds one iterator per position j < arity over the ranks, in
    power(A, k), of the j-th entries of the tuples that row leads.  Ranks
    come from rank arithmetic: appending a row to a tuple turns each rank r
    into r * size + value.  The ranks of the (k-1)-tuples are built once,
    one list per position, and the block of row `lead` adds lead[j] *
    size^(k-1) to them, so no list is longer than |rows|^(k-1).
    """
    base = [[row[j] for row in rows] for j in range(arity)]
    tail = [[0]] * arity
    for _ in range(k - 1):
        tail = [
            [r + v for r in [p * size for p in col] for v in b]
            for col, b in zip(tail, base)
        ]
    shift = size ** (k - 1)
    for lead in rows:
        yield [map((e * shift).__add__, col) for e, col in zip(lead, tail)]


def is_polymorphism(a: RelationalStructure, f: OperationTable):
    """Check that f preserves every relation of a.

    Returns (True, None) or (False, (relation_name, rows)) where rows is a
    tuple of arity(f) tuples of the relation witnessing the violation: the
    first violating one in `product(sorted rows, repeat=arity(f))` order.

    f is a homomorphism from the arity(f)-th power: the images of a
    relation's tuples of rows are f's values at their ranks in that power
    (`power_blocks`), tested against the relation in one pass per block.
    """
    if f.size != a.size:
        raise InputError("operation is over size %d, structure has size %d" % (f.size, a.size))
    m = f.arity
    value = f.values.__getitem__
    for name, rel in a.relations:
        rows = rel.sorted_tuples()
        for lead, block in zip(rows, power_blocks(rows, rel.arity, a.size, m)):
            images = list(zip(*[map(value, ranks) for ranks in block]))
            if rel.tuples.issuperset(images):
                continue
            i = next(i for i, image in enumerate(images) if image not in rel.tuples)
            rest = unrank_tuple(i, len(rows), m - 1)
            return False, (name, (lead,) + tuple(rows[d] for d in rest))
    return True, None


def relation_project(r: Relation, drop: int) -> Relation:
    """Delete the 1-based coordinate `drop` from every tuple of r."""
    if r.arity < 2:
        raise InputError("cannot project an arity-1 relation")
    if not 1 <= drop <= r.arity:
        raise InputError("drop coordinate %d out of range 1..%d" % (drop, r.arity))
    i = drop - 1
    return relation(r.arity - 1, {t[:i] + t[i + 1:] for t in r.tuples})


def _adjacency(d: Digraph, reverse: bool = False):
    adj = [[] for _ in range(d.n)]
    for u, v in sorted(d.edges):
        if reverse:
            adj[v].append(u)
        else:
            adj[u].append(v)
    return adj


def digraph_reach(d: Digraph, sources: Iterable[int], targets: Iterable[int]) -> Optional[list]:
    """Lexicographically least shortest walk from `sources` to `targets`.

    A walk is a vertex list; a single vertex counts as a length-0 walk when
    the two sets intersect.  Returns None when no walk exists.
    """
    src = set(sources)
    tgt = set(targets)
    common = src & tgt
    if common:
        return [min(common)]
    if not src or not tgt:
        return None
    radj = _adjacency(d, reverse=True)
    rdist = [-1] * d.n
    queue = deque()
    for v in sorted(tgt):
        rdist[v] = 0
        queue.append(v)
    while queue:
        v = queue.popleft()
        for u in radj[v]:
            if rdist[u] < 0:
                rdist[u] = rdist[v] + 1
                queue.append(u)
    reachable = [v for v in sorted(src) if rdist[v] >= 0]
    if not reachable:
        return None
    length = min(rdist[v] for v in reachable)
    cur = min(v for v in reachable if rdist[v] == length)
    walk = [cur]
    adj = _adjacency(d)
    while rdist[cur] > 0:
        cur = min(w for w in adj[cur] if rdist[w] == rdist[cur] - 1)
        walk.append(cur)
    return walk


def digraph_closed_walk(d: Digraph) -> Optional[list]:
    """Some closed walk of length >= 1, or None when the digraph is acyclic.

    Deterministic: the returned walk is the lexicographically least shortest
    cycle through the least vertex lying on any cycle.
    """
    adj = _adjacency(d)
    for v in range(d.n):
        if not adj[v]:
            continue
        back = digraph_reach(d, adj[v], {v})
        if back is not None:
            return [v] + back
    return None


def digraph_meets_diagonal(d: Digraph) -> bool:
    return any(u == v for u, v in d.edges)
