"""Instances, pinned expectations and the per-seed query lists.

Every instance is a plain JSON structure object (the `absorb` file format)
plus a subset B.  A workload's seed draws one domain permutation per
instance and pass, without replacement across passes; the program only
ever sees the relabelled files written here.  The permutations keep each
element of B in place and relabel the rest: where B's labels sit sets the
quintuple order and the solver's value order, which moves a query's time
by up to 1.8x (aff3w: B={0} against B={1}), more than the benchmark's
bounds allow from one seed to the next.
Nothing in this module imports `absorb`.
"""

from __future__ import annotations

import json
import math
import os
import random
from itertools import product

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

WORKLOADS = ("decide-holds", "verify-search")

# Certificate mutations that `verify` must reject, with the defect text it
# must report (a substring of the "defect" field of its payload).
MUTATIONS = {
    "bad-color": "not in B",
    "broken-chain": "path chaining broken",
    "bad-phi": "does not generate",
}


# --- named structures ---------------------------------------------------------


def make_structure(size, name, tuples):
    tuples = sorted(set(tuple(t) for t in tuples))
    return {
        "size": size,
        "relations": {name: {"arity": len(tuples[0]), "tuples": [list(t) for t in tuples]}},
    }


def leq(n):
    """The total order 0 < 1 < ... < n-1."""
    return make_structure(n, "leq", [(x, y) for x in range(n) for y in range(n) if x <= y])


def r3():
    """All pairs on {0,1,2} except (1,2)."""
    return make_structure(3, "r", [p for p in product(range(3), repeat=2) if p != (1, 2)])


def min_graph(n):
    """The graph of binary min on {0..n-1}."""
    return make_structure(n, "min", [(x, y, min(x, y)) for x in range(n) for y in range(n)])


def aff3w():
    """x - y + z - w = 0 (mod 3)."""
    return make_structure(
        3, "aff", [t for t in product(range(3), repeat=4) if (t[0] - t[1] + t[2] - t[3]) % 3 == 0]
    )


def swap(n):
    """The swap {(0,1),(1,0)} on an n-element domain."""
    return make_structure(n, "r", [(0, 1), (1, 0)])


NAMED = {
    "ord2": (leq(2), [0]),
    "leq3": (leq(3), [0]),
    "leq4": (leq(4), [0]),
    "leq5": (leq(5), [0]),
    "leq8": (leq(8), [0]),
    "r3": (r3(), [0]),
    "min3": (min_graph(3), [0, 1]),
    "min4": (min_graph(4), [0, 1]),
    "aff3w": (aff3w(), [0]),
    "swap11": (swap(11), [0]),
}

# Instances whose decide verdict (holds) and certificate are pinned.
PINNED_HOLDS = ("ord2", "leq3", "r3", "min3", "leq4")
# The decide-holds pass.  leq4 (about 20 s) is left out: a run has room for
# one sample of it, and one sample swings by 1.6x from run to run here.  Its
# certificate is still verified in verify-search.
HOLDS_PASS = ("ord2", "leq3", "r3", "min3")
VERIFY_CERTS = ("leq3", "r3", "min3", "leq4", "min4")

# (instance, what, arity) for the `search` queries of verify-search.
SEARCHES = (
    ("leq8", "term", 3),
    ("leq5", "term", 4),
    ("aff3w", "essential", 3),
    ("swap11", "term", 3),
    ("leq3", "term", 3),
)


# --- relabelling ----------------------------------------------------------------


def relabel_structure(obj, perm):
    rels = {}
    for name, rel in obj["relations"].items():
        tuples = sorted(tuple(perm[e] for e in t) for t in rel["tuples"])
        rels[name] = {"arity": rel["arity"], "tuples": [list(t) for t in tuples]}
    return {"size": obj["size"], "relations": rels}


def fixing_permutation(rng, size, b):
    """A random permutation of {0..size-1} that fixes every element of b."""
    rest = [e for e in range(size) if e not in b]
    images = rng.sample(rest, len(rest))
    perm = list(range(size))
    for e, image in zip(rest, images):
        perm[e] = image
    return perm


def pass_permutation(key, size, b, pass_no):
    """Pass `pass_no`'s B-fixing permutation for the instance run under `key`.

    The key seeds a sequence that draws the permutations without
    replacement and starts over once all are used, so the passes of a run
    cover an instance's labellings evenly (leq3, r3 and aff3w have two).
    """
    rng = random.Random(key)
    k = pass_no % math.factorial(size - len(b))
    seq = []
    while len(seq) <= k:
        perm = fixing_permutation(rng, size, b)
        if perm not in seq:
            seq.append(perm)
    return seq[k]


def relabel_subset(b, perm):
    return sorted(perm[e] for e in b)


def relabel_table(values, size, arity, perm):
    """The conjugate table  x -> perm(t(perm^-1 x))  in lexicographic rank order."""
    inv = [0] * size
    for e, p in enumerate(perm):
        inv[p] = e
    out = []
    for args in product(range(size), repeat=arity):
        rank = 0
        for x in args:
            rank = rank * size + inv[x]
        out.append(perm[values[rank]])
    return out


def relabel_certificate(cert, size, perm):
    entries = []
    for entry in cert["quintuples"]:
        steps = []
        for s in entry["steps"]:
            phi = s["phi"]
            steps.append({
                "b": perm[s["b"]],
                "u": perm[s["u"]],
                "v": perm[s["v"]],
                "phi": {"arity": phi["arity"],
                        "values": relabel_table(phi["values"], size, phi["arity"], perm)},
            })
        entries.append({"q": [perm[x] for x in entry["q"]], "steps": steps})
    return {"quintuples": entries}


# --- pinned data ------------------------------------------------------------------


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_pins():
    return load_json(os.path.join(DATA, "pins.json"))


def cert_path(name, mutation=None):
    base = name if mutation is None else "%s.%s" % (name, mutation)
    return os.path.join(DATA, "certs", base + ".json")


# --- query lists ------------------------------------------------------------------


class Query:
    """One CLI invocation and what its answer must be.

    expect_holds: the verdict; the exit code must be 0 for holds, 1 otherwise.
    defect: for a mutated certificate, text the reported defect must contain.
    term: (structure, B, arity) when a returned term table is to be checked.
    cert_out: where `decide --certificate` writes its certificate.
    known_defect: a documented seed defect; its failures are reported
    separately from the other failures.
    """

    def __init__(self, qid, instance, perm, argv, expect_holds, defect=None, term=None,
                 cert_out=None, known_defect=None, verify_with=None):
        self.qid = qid
        self.instance = instance
        self.perm = perm
        self.argv = argv
        self.expect_holds = expect_holds
        self.defect = defect
        self.term = term
        self.cert_out = cert_out
        self.known_defect = known_defect
        self.verify_with = verify_with


def _dump(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _subset_arg(b):
    return json.dumps({"elements": b}, separators=(",", ":"))


class _Writer:
    """Writes one pass's relabelled instance files into the run directory."""

    def __init__(self, workdir, key, pass_no):
        self.workdir = workdir
        self.key = key
        self.pass_no = pass_no

    def instance(self, tag, obj, b):
        """The instance relabelled for this pass: (perm, structure, B, file)."""
        perm = pass_permutation("%s:%s" % (self.key, tag), obj["size"], b, self.pass_no)
        a = relabel_structure(obj, perm)
        path = "%s.structure.json" % tag
        _dump(os.path.join(self.workdir, path), a)
        return perm, a, relabel_subset(b, perm), path


def build_queries(workload, seed, workdir, pass_no=0):
    """The workload's query list for `seed`; input files go to `workdir`.

    The instances are fixed; the seed and the pass choose the permutations
    that relabel them, so a run with several passes averages over labellings.
    """
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    pins = load_pins()
    w = _Writer(workdir, "%s:%d" % (workload, seed), pass_no)
    queries = []
    if workload == "decide-holds":
        for name in HOLDS_PASS:
            obj, b = NAMED[name]
            perm, a, bb, path = w.instance(name, obj, b)
            cert = "%s.cert.json" % name
            queries.append(Query(
                "decide:%s" % name, name, perm,
                ["decide", "-s", path, "-b", _subset_arg(bb), "--certificate", cert],
                pins["decide"][name], cert_out=cert, verify_with=(path, bb),
            ))
    else:
        # Each certificate's verify queries are followed by one search, so
        # the short verify queries are spread over the whole pass.
        for cert_name, (name, what, arity) in zip(VERIFY_CERTS, SEARCHES, strict=True):
            obj, b = NAMED[cert_name]
            perm, a, bb, path = w.instance(cert_name, obj, b)
            for mutation in (None,) + tuple(MUTATIONS):
                cert = relabel_certificate(load_json(cert_path(cert_name, mutation)), obj["size"], perm)
                tag = cert_name if mutation is None else "%s.%s" % (cert_name, mutation)
                cpath = "%s.cert.json" % tag
                _dump(os.path.join(workdir, cpath), cert)
                queries.append(Query(
                    "verify:%s" % tag, cert_name, perm,
                    ["verify", "-s", path, "-b", _subset_arg(bb), "--certificate", cpath],
                    mutation is None, defect=MUTATIONS.get(mutation),
                ))
            obj, b = NAMED[name]
            perm, a, bb, path = w.instance(name, obj, b)
            pin = pins["search"]["%s:%s:%d" % (name, what, arity)]
            queries.append(Query(
                "search:%s:%s:%d" % (name, what, arity), name, perm,
                ["search", "-s", path, "-b", _subset_arg(bb), "--what", what, "--arity", str(arity)],
                pin["holds"], term=(a, bb, arity) if what == "term" else None,
                known_defect=pin.get("known_defect"),
            ))
    return queries
