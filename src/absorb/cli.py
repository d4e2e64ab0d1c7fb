"""Command-line surface.

Machine-readable JSON goes to stdout (tagged "schema": "absorb/1"),
human-oriented diagnostics to stderr.  Exit codes: 0 the queried property
holds, 1 it fails, 2 input or usage error, 3 a resource cap was exceeded,
4 an internal error (any other exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import codec
from .corpus import build_corpus, manifest_obj
from .decide import (
    bounds,
    decide_jonsson,
    oracle_chain_search,
    verify_np_certificate,
)
from .engine import DEFAULT_VERTEX_CAP, absorption_term_search, essential_witness_search
from .errors import CapExceeded, InputError
from .model import with_singletons

SCHEMA = "absorb/1"

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _emit(payload, code):
    payload = dict(payload)
    payload["schema"] = SCHEMA
    try:
        sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped reading, which is no error of ours: keep the
        # verdict's exit code, and point stdout at devnull so that the
        # flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return code


def _read_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from None


def _write_file(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError("cannot write %s: %s" % (path, exc)) from None


def _remove_file(path):
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise InputError("cannot remove %s: %s" % (path, exc)) from None


def _load_inputs(args):
    a = codec.parse_structure(_read_file(args.structure))
    b = codec.parse_subset(args.subset)
    return a, b


def _cap(args):
    if args.max_power_vertices is not None:
        cap, source = args.max_power_vertices, "--max-power-vertices"
    else:
        env = os.environ.get("ABSORB_MAX_VERTICES")
        if env is None:
            return DEFAULT_VERTEX_CAP
        try:
            cap, source = int(env), "ABSORB_MAX_VERTICES"
        except ValueError:
            raise InputError("ABSORB_MAX_VERTICES is not an integer: %r" % env) from None
    if cap < 1:
        raise InputError("%s must be at least 1, got %d" % (source, cap))
    return cap


def cmd_decide(args):
    a, b = _load_inputs(args)
    cap = _cap(args)
    decision = decide_jonsson(a, b, cap, certificate=bool(args.certificate))
    if args.certificate:
        if decision.holds:
            _write_file(args.certificate, codec.dump_certificate(decision.certificate) + "\n")
        else:
            # a file left there would pass for a certificate of this verdict
            _remove_file(args.certificate)
    payload = codec.decision_to_obj(decision)
    # the two modes are one computation (decide adds the singletons either
    # way); the flag only labels the output
    payload["mode"] = args.mode
    return _emit(payload, EXIT_HOLDS if decision.holds else EXIT_FAILS)


def cmd_verify(args):
    a, b = _load_inputs(args)
    cap = _cap(args)
    cert = codec.parse_certificate(_read_file(args.certificate))
    ok, defect = verify_np_certificate(a, b, cert, cap)
    payload = {"holds": ok}
    if defect is not None:
        payload["defect"] = defect
    return _emit(payload, EXIT_HOLDS if ok else EXIT_FAILS)


def cmd_search(args):
    a, b = _load_inputs(args)
    cap = _cap(args)
    expanded, _ = with_singletons(a)
    if args.what in ("term", "essential") and args.arity is None:
        raise InputError("--arity is required for --what %s" % args.what)
    if args.what == "term":
        table = absorption_term_search(expanded, b, args.arity, cap)
        if table is None:
            return _emit({"holds": False, "what": "term"}, EXIT_FAILS)
        return _emit(
            {"holds": True, "what": "term", "table": codec.table_to_obj(table)}, EXIT_HOLDS
        )
    if args.what == "essential":
        witness = essential_witness_search(expanded, b, args.arity, cap)
        if witness is None:
            return _emit({"holds": False, "what": "essential"}, EXIT_FAILS)
        return _emit(
            {"holds": True, "what": "essential", "witness": codec.witness_to_obj(witness)},
            EXIT_HOLDS,
        )
    chain = oracle_chain_search(a, b)
    if chain is None:
        return _emit({"holds": False, "what": "chain"}, EXIT_FAILS)
    return _emit(
        {"holds": True, "what": "chain", "chain": codec.chain_to_obj(chain)}, EXIT_HOLDS
    )


def cmd_bounds(args):
    report = bounds(args.theta, args.size)
    return _emit(
        {
            "theta": report.theta,
            "size": report.size,
            "kappa": report.kappa,
            "lower_bound": report.lower_bound,
        },
        EXIT_HOLDS,
    )


def cmd_corpus(args):
    cap = _cap(args)
    manifest = build_corpus(args.size, args.max_arity, cap)
    obj = manifest_obj(manifest)
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise InputError("cannot create %s: %s" % (args.out, exc)) from None
        for label, a in manifest.structures:
            _write_file(os.path.join(args.out, "%s.json" % label), codec.dump_structure(a) + "\n")
        obj_with_schema = dict(obj)
        obj_with_schema["schema"] = SCHEMA
        _write_file(
            os.path.join(args.out, "manifest.json"),
            json.dumps(obj_with_schema, sort_keys=True, separators=(",", ":")) + "\n",
        )
        print("wrote %d structures to %s" % (len(manifest.structures), args.out), file=sys.stderr)
    return _emit(obj, EXIT_HOLDS)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="absorb",
        description="Decide absorption properties of finite relational structures.",
    )
    parser.add_argument(
        "--max-power-vertices",
        type=int,
        default=None,
        help="cap on power-structure vertices and constraint scopes (verify "
        "counts those of the cube), and on the relations corpus enumerates "
        "(env ABSORB_MAX_VERTICES)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide whether B (Jónsson-)absorbs the structure")
    p.add_argument("-s", "--structure", required=True, help="structure JSON file")
    p.add_argument("-b", "--subset", required=True, help="subset JSON (inline)")
    p.add_argument("--mode", choices=("absorb", "jonsson"), default="absorb")
    p.add_argument(
        "--certificate",
        help="write the certificate JSON here when the property holds; "
        "when it fails, remove any file here",
    )
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("verify", help="check an NP certificate")
    p.add_argument("-s", "--structure", required=True)
    p.add_argument("-b", "--subset", required=True)
    p.add_argument("--certificate", required=True, help="certificate JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="search for a term, essential witness, or chain")
    p.add_argument("-s", "--structure", required=True)
    p.add_argument("-b", "--subset", required=True)
    p.add_argument("--what", choices=("term", "essential", "chain"), required=True)
    p.add_argument("--arity", type=int, default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bounds", help="arity bounds for the absorption term")
    p.add_argument("--theta", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("corpus", help="enumerate the small-domain fixture corpus")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--max-arity", type=int, required=True)
    p.add_argument("--out", default=None, help="directory for fixture files")
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print("resource cap exceeded: %s" % exc, file=sys.stderr)
        return EXIT_CAP
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # imported here: a query that succeeds does not pay for it
        import traceback

        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
