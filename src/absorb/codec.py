"""JSON codecs for every externally visible value.

Serialization is canonical: tuples and keys are sorted, so
parse(serialize(v)) == v and serialize(parse(text)) is byte-stable.

This is the one module that knows JSON.  It checks only what a document's
JSON can get wrong: missing keys, wrong types (true and false are not
numbers), quintuples of other than five entries, table lengths that are no
power of the arity.  The semantic rules (arities, tuple lengths, ranges,
distinct names and free variables, ternary comb sections) belong to the
value types and run once, when `_build` builds one; it raises their
`InputError` as a `ParseError` prefixed by the location in the document,
so every `parse_*` raises `ParseError` and says where.
"""

from __future__ import annotations

import json

from .decide import Certificate, CertEntry, CertStep, ChainWitness, Decision, Quintuple
from .errors import InputError, ParseError
from .model import (
    OperationTable,
    Relation,
    RelationalStructure,
    Subset,
    subset,
)

# annotations stay strings, so these are read by type checkers only
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .comb import CombFormula
    from .ppform import PPFormula


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("malformed JSON: %s" % exc) from None


def dumps(obj, encoded=None) -> str:
    """The canonical text of a JSON object: sorted keys, no spaces.

    encoded maps further keys to the canonical text of their values, which
    goes in as it is: a value written elsewhere too is encoded once.
    """
    if not encoded:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    members = {key: dumps(val) for key, val in obj.items()}
    members.update(encoded)
    parts = ["{"]
    for key in sorted(members):
        parts += (json.dumps(key), ":", members[key], ",")
    parts[-1] = "}"
    return "".join(parts)


def _build(where, make, *args):
    """make(*args), a value type's InputError raised as a ParseError that
    starts with `where`, the location in the document."""
    try:
        return make(*args)
    except InputError as exc:
        raise ParseError("%s: %s" % (where, exc)) from None


def _expect(obj, key, types, where):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError("%s: missing key %r" % (where, key))
    val = obj[key]
    # JSON true/false load as bool, a subclass of int, but are not numbers
    if not isinstance(val, types) or (isinstance(val, bool) and types is not bool):
        raise ParseError("%s: key %r has wrong type" % (where, key))
    return val


# the one element type of an integer list: bool, a subclass of int, is not in it
_INT = frozenset((int,))


def _int_list(val, where):
    if not isinstance(val, list) or not _INT.issuperset(map(type, val)):
        raise ParseError("%s: expected a list of integers" % where)
    return val


# --- structures -------------------------------------------------------------

def parse_structure(text: str) -> RelationalStructure:
    obj = _loads(text)
    size = _expect(obj, "size", int, "structure")
    rels = _expect(obj, "relations", dict, "structure")
    items = tuple((name, relation_from_obj(r, "relation %r" % name)) for name, r in rels.items())
    return _build("structure", RelationalStructure, size, items)


def dump_structure(a: RelationalStructure) -> str:
    rels = {name: relation_to_obj(rel) for name, rel in a.relations}
    return dumps({"size": a.size, "relations": rels})


# --- subsets ----------------------------------------------------------------

def parse_subset(text: str) -> Subset:
    obj = _loads(text)
    elems = _int_list(_expect(obj, "elements", list, "subset"), "subset")
    return _build("subset", subset, elems)


def dump_subset(b: Subset) -> str:
    return dumps({"elements": b.sorted_elements()})


# --- operation tables -------------------------------------------------------

def parse_table(text: str) -> OperationTable:
    return table_from_obj(_loads(text))


def table_from_obj(obj) -> OperationTable:
    return _table(*_table_fields(obj, "table"), "table")


def _table_fields(obj, where):
    """A table object's arity and values, type-checked: (int, tuple of ints)."""
    arity = _expect(obj, "arity", int, where)
    return arity, tuple(_int_list(_expect(obj, "values", list, where), where))


def _table(arity, values, where) -> OperationTable:
    """The table of type-checked fields.  Its size, which the JSON leaves
    out, is the n with n ** arity == len(values); below arity 2 it is the
    length (OperationTable refuses an arity below 1)."""
    length = size = len(values)
    if arity > 1:
        root = round(length ** (1.0 / arity))
        # once 2 ** arity > length, only n = 1 can match: n ** arity is
        # not computed for a huge arity
        candidates = (1,) if arity >= length.bit_length() else (root - 1, root, root + 1)
        size = next((n for n in candidates if n >= 1 and n ** arity == length), 0)
        if not size:
            raise ParseError("%s: length %d is not a perfect %d-th power" % (where, length, arity))
    return _build(where, OperationTable, arity, size, values)


def table_to_obj(t: OperationTable):
    return {"arity": t.arity, "values": list(t.values)}


def dump_table(t: OperationTable) -> str:
    return dumps(table_to_obj(t))


# --- relations (shared by witnesses and comb sections) ----------------------

def relation_from_obj(obj, where="relation") -> Relation:
    arity = _expect(obj, "arity", int, where)
    tuples = frozenset(tuple(_int_list(t, where)) for t in _expect(obj, "tuples", list, where))
    return _build(where, Relation, arity, tuples)


def relation_to_obj(r: Relation):
    return {"arity": r.arity, "tuples": [list(t) for t in r.sorted_tuples()]}


# --- decisions and certificates ----------------------------------------------

def _quintuple_from_list(val, where):
    vals = _int_list(val, where)
    if len(vals) != 5:
        raise ParseError("%s: quintuple must have 5 entries" % where)
    return Quintuple(*vals)


def certificate_from_obj(obj) -> Certificate:
    """The certificate of a JSON object, one table per distinct validated table.

    Steps repeat a few tables many times (min4: 12 distinct in 192 steps).
    The tables are keyed only after their fields are type-checked, because
    true equals 1 and would otherwise find the table of a valid twin.
    """
    items = _expect(obj, "quintuples", list, "certificate")
    tables = {}
    entries = []
    for i, entry_obj in enumerate(items):
        where = "certificate entry %d" % i
        q = _quintuple_from_list(_expect(entry_obj, "q", list, where), where)
        steps = []
        for j, step_obj in enumerate(_expect(entry_obj, "steps", list, where)):
            sw = "%s step %d" % (where, j)
            b, u, v = (_expect(step_obj, key, int, sw) for key in "buv")
            fields = _table_fields(_expect(step_obj, "phi", dict, sw), sw)
            phi = tables.get(fields)
            if phi is None:
                phi = tables[fields] = _table(*fields, sw)
            steps.append(CertStep(b, u, v, phi))
        entries.append(CertEntry(q, tuple(steps)))
    return Certificate(tuple(entries))


def dump_certificate(cert: Certificate) -> str:
    """The canonical text of a certificate, built in one pass.

    Steps repeat a few tables many times (min6: 30 distinct in 720 steps),
    so each distinct table is encoded once, by `dump_table`, and every step
    that holds it refers to that one text.  The integers are formatted in
    place, each object's keys in sorted order ("b","phi","u","v" and
    "q","steps"), and the parts are joined once: the text is that of
    `dumps` over the nested object, which is never built.
    """
    texts = {}
    parts = ['{"quintuples":[']
    entry_sep = ""
    for entry in cert.entries:
        q = entry.q
        parts.append('%s{"q":[%d,%d,%d,%d,%d],"steps":[' % (entry_sep, *q.as_list()))
        step_sep = ""
        for s in entry.steps:
            text = texts.get(s.phi)
            if text is None:
                text = texts[s.phi] = dump_table(s.phi)
            parts += ('%s{"b":%d,"phi":' % (step_sep, s.b), text, ',"u":%d,"v":%d}' % (s.u, s.v))
            step_sep = ","
        parts.append("]}")
        entry_sep = ","
    parts.append("]}")
    return "".join(parts)


def parse_certificate(text: str) -> Certificate:
    return certificate_from_obj(_loads(text))


def decision_to_obj(d: Decision):
    """The decision as a JSON object without its certificate, whose text
    `dump_certificate` makes (see `dump_decision`)."""
    obj = {"holds": d.holds}
    if d.failing is not None:
        obj["failing"] = d.failing.as_list()
    return obj


def decision_from_obj(obj) -> Decision:
    holds = _expect(obj, "holds", bool, "decision")
    failing = None
    if "failing" in obj:
        failing = _quintuple_from_list(obj["failing"], "decision")
    cert = None
    if "certificate" in obj:
        cert = certificate_from_obj(_expect(obj, "certificate", dict, "decision"))
    return Decision(holds, failing=failing, certificate=cert)


def dump_decision(d: Decision) -> str:
    encoded = {}
    if d.certificate is not None:
        encoded["certificate"] = dump_certificate(d.certificate)
    return dumps(decision_to_obj(d), encoded)


def parse_decision(text: str) -> Decision:
    return decision_from_obj(_loads(text))


def chain_to_obj(chain: ChainWitness):
    return {"tables": [table_to_obj(t) for t in chain.tables]}


# --- essential witnesses ------------------------------------------------------

def witness_to_obj(generators):
    """An `essential_witness_search` answer: its generators and their arity."""
    return {"arity": len(generators), "generators": [list(g) for g in generators]}


# --- formulas ------------------------------------------------------------------

def formula_to_obj(phi: PPFormula):
    return {
        "free": list(phi.free),
        "atoms": [{"rel": at.rel, "scope": list(at.scope)} for at in phi.atoms],
    }


def formula_from_obj(obj) -> PPFormula:
    # imported here, as in comb_from_obj: no CLI query reads formulas or combs
    from .ppform import Atom, PPFormula

    free = _expect(obj, "free", list, "formula")
    if not all(isinstance(v, str) for v in free):
        raise ParseError("formula: free variables must be strings")
    atoms = []
    for i, at in enumerate(_expect(obj, "atoms", list, "formula")):
        where = "formula atom %d" % i
        rel = _expect(at, "rel", str, where)
        scope = _expect(at, "scope", list, where)
        if not all(isinstance(v, str) for v in scope):
            raise ParseError("%s: scope entries must be strings" % where)
        atoms.append(Atom(rel, tuple(scope)))
    return _build("formula", PPFormula, tuple(free), tuple(atoms))


def dump_formula(phi: PPFormula) -> str:
    return dumps(formula_to_obj(phi))


def parse_formula(text: str) -> PPFormula:
    return formula_from_obj(_loads(text))


def comb_to_obj(comb: CombFormula):
    return {"sections": [relation_to_obj(s) for s in comb.sections]}


def comb_from_obj(obj) -> CombFormula:
    from .comb import CombFormula

    sections = _expect(obj, "sections", list, "comb")
    rels = tuple(relation_from_obj(s, "comb section %d" % i) for i, s in enumerate(sections))
    return _build("comb", CombFormula, len(rels), rels)


def dump_comb(comb: CombFormula) -> str:
    return dumps(comb_to_obj(comb))


def parse_comb(text: str) -> CombFormula:
    return comb_from_obj(_loads(text))
