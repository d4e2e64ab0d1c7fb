"""Record the pinned expectations in perfbench/data from the current program.

    python3 perfbench/pin.py

Run once, on a commit whose verdicts are trusted.  It writes data/pins.json
(decide and search verdicts) and data/certs/
(certificates from `decide --certificate`, plus mutated copies that `verify`
must reject).  Every verdict is first checked to be the same under three
relabellings; a certificate that is reused rather than recomputed is checked
by `verify` under three relabellings instead.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import random
import shutil
import statistics
import sys
from itertools import product

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import runner  # noqa: E402
import workloads as wl  # noqa: E402

RELABELLINGS = 3

# Pinned by hand: the seed program cannot answer these.  swap11 has the
# absorbing term "majority on {0,1}, 0 elsewhere off the diagonal", so the
# answer is holds; the seed dies with RecursionError in the solver.
HAND_PINS = {
    "swap11:term:3": {"holds": True,
                      "known_defect": "seed crashes with RecursionError (exit 1, empty stdout)"},
}


class Pinner:
    def __init__(self, workdir):
        self.workdir = workdir
        root = os.path.dirname(HERE)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.n = 0
        self.rng = random.Random("pin")
        self.spawner = None

    def cli(self, args):
        self.n += 1
        return runner.run_query(self.spawner, [sys.executable, "-m", "absorb.cli"] + args,
                                self.workdir, 900.0, "p%05d" % self.n)

    def write(self, name, obj):
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return name

    def labellings(self, size):
        perms = [list(range(size))]
        for _ in range(RELABELLINGS):
            perms.append(self.rng.sample(range(size), size))
        return perms

    def stable(self, obj, b, head, tail=()):
        """Run `head -s S -b B tail` under identity and three relabellings.

        "{k}" in `tail` is replaced by the labelling's index (0 = identity).
        Returns (exit code, median seconds), or None when some run is not a
        clean verdict; stops when the verdicts differ."""
        codes, times = set(), []
        for perm in self.labellings(obj["size"]):
            path = self.write("s.json", wl.relabel_structure(obj, perm))
            bb = json.dumps({"elements": wl.relabel_subset(b, perm)})
            k = str(len(times))
            out = self.cli(head + ["-s", path, "-b", bb] + [t.replace("{k}", k) for t in tail])
            if out.status != "ok":
                return None
            codes.add(out.code)
            times.append(out.seconds)
        if len(codes) != 1:
            raise SystemExit("verdict changes under relabelling: %r" % (head,))
        return codes.pop(), statistics.median(times)


def mutate(cert, b, size):
    """The three mutated copies of a certificate, keyed by MUTATIONS name."""
    first = next(i for i, e in enumerate(cert["quintuples"]) if e["steps"])
    outside = min(e for e in range(size) if e not in b)
    out = {}
    bad = copy.deepcopy(cert)
    bad["quintuples"][first]["steps"][0]["b"] = outside
    out["bad-color"] = bad
    bad = copy.deepcopy(cert)
    step = bad["quintuples"][first]["steps"][0]
    bad["quintuples"][first]["steps"] = [step, copy.deepcopy(step)]
    out["broken-chain"] = bad
    bad = copy.deepcopy(cert)
    proj1 = [args[0] for args in product(range(size), repeat=3)]
    bad["quintuples"][first]["steps"][0]["phi"] = {"arity": 3, "values": proj1}
    out["bad-phi"] = bad
    return out


def pin_certificates(p):
    certs = os.path.join(wl.DATA, "certs")
    os.makedirs(certs, exist_ok=True)
    for name in wl.VERIFY_CERTS:
        obj, b = wl.NAMED[name]
        path = wl.cert_path(name)
        if name in wl.PINNED_HOLDS:
            shutil.copyfile(os.path.join(p.workdir, "%s.cert0.json" % name), path)
        elif not os.path.exists(path):
            s = p.write("s.json", obj)
            out = p.cli(["decide", "-s", s, "-b", json.dumps({"elements": b}),
                         "--certificate", os.path.abspath(path)])
            if out.code != 0:
                raise SystemExit("%s: decide did not hold" % name)
        cert = wl.load_json(path)
        for perm in p.labellings(obj["size"]):
            s = p.write("s.json", wl.relabel_structure(obj, perm))
            c = p.write("c.json", wl.relabel_certificate(cert, obj["size"], perm))
            bb = json.dumps({"elements": wl.relabel_subset(b, perm)})
            out = p.cli(["verify", "-s", s, "-b", bb, "--certificate", c])
            if out.code != 0:
                raise SystemExit("%s: pinned certificate rejected: %s" % (name, out.payload))
        for mutation, bad in mutate(cert, b, obj["size"]).items():
            with open(wl.cert_path(name, mutation), "w", encoding="utf-8") as fh:
                json.dump(bad, fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    workdir = os.path.join(HERE, "out", "pin")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    p = Pinner(workdir)
    with runner.Spawner(p.env) as p.spawner:
        pins = pin_all(p)
    with open(os.path.join(wl.DATA, "pins.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def pin_all(p):
    pins = {"decide": {}, "search": {}}
    for name in wl.PINNED_HOLDS:
        obj, b = wl.NAMED[name]
        result = p.stable(obj, b, ["decide"], ["--certificate", "%s.cert{k}.json" % name])
        if result is None:
            raise SystemExit("decide %s gave no clean verdict" % name)
        code, seconds = result
        pins["decide"][name] = code == 0
        print("decide %s: holds=%s %.2f s" % (name, code == 0, seconds), flush=True)
    pin_certificates(p)
    for name, what, arity in wl.SEARCHES:
        key = "%s:%s:%d" % (name, what, arity)
        obj, b = wl.NAMED[name]
        result = p.stable(obj, b, ["search"], ["--what", what, "--arity", str(arity)])
        if key in HAND_PINS:
            if result is not None:
                raise SystemExit("%s now answers; pin it from the program" % key)
            pins["search"][key] = HAND_PINS[key]
        else:
            pins["search"][key] = {"holds": result[0] == 0}
        print("search %s: %s" % (key, pins["search"][key]), flush=True)
    return pins


if __name__ == "__main__":
    sys.exit(main())
