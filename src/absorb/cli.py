"""Command-line surface.

Machine-readable JSON goes to stdout (tagged "schema": "absorb/1"),
human-oriented diagnostics to stderr.  Exit codes: 0 the queried property
holds, 1 it fails, 2 input or usage error, 3 a resource cap was exceeded,
4 an internal error (any other exception; its traceback goes to stderr).

The command table (`GLOBAL_OPTIONS` and `COMMANDS`) is the one place to add
a command or a flag: it feeds the parser, -h and dispatch, which runs
`cmd_<command>(args)` with one attribute per option.  The parser accepts
`--opt VALUE`, `--opt=VALUE`, `-s VALUE`, `-sVALUE` and unique prefixes of
long options; the last of a repeated option wins, and a value is the next
word even when it looks like a negative number.  A usage error prints the
usage line and `absorb[ CMD]: error: ...` to stderr and exits 2.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import codec
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


def _document(obj, encoded=None):
    """The canonical JSON text of an output object, tagged with the schema;
    encoded holds members already encoded (see `codec.dumps`)."""
    return codec.dumps(dict(obj, schema=SCHEMA), encoded)


def _emit(payload, code, encoded=None):
    try:
        # the newline is written after the text, not added to a copy of it
        sys.stdout.writelines((_document(payload, encoded), "\n"))
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
    """Write text and a newline to path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines((text, "\n"))
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
    cap = args.max_power_vertices
    if cap is not None and cap < 1:
        raise InputError("--max-power-vertices must be at least 1, got %d" % cap)
    return DEFAULT_VERTEX_CAP if cap is None else cap


def cmd_decide(args):
    a, b = _load_inputs(args)
    cap = _cap(args)
    decision = decide_jonsson(a, b, cap, certificate=bool(args.certificate))
    # the certificate is encoded once: the file holds the text of stdout's
    # "certificate" member
    encoded = {}
    if decision.certificate is not None:
        encoded["certificate"] = codec.dump_certificate(decision.certificate)
    if args.certificate:
        if decision.holds:
            _write_file(args.certificate, encoded["certificate"])
        else:
            # a file left there would pass for a certificate of this verdict
            _remove_file(args.certificate)
    payload = codec.decision_to_obj(decision)
    return _emit(payload, EXIT_HOLDS if decision.holds else EXIT_FAILS, encoded)


def cmd_verify(args):
    a, b = _load_inputs(args)
    cap = _cap(args)
    cert = codec.parse_certificate(_read_file(args.certificate))
    ok, defect = verify_np_certificate(a, b, cert, cap)
    payload = {"holds": ok}
    if defect is not None:
        payload["defect"] = defect
    return _emit(payload, EXIT_HOLDS if ok else EXIT_FAILS)


# --what -> (payload member of the answer, its encoder)
ANSWERS = {
    "term": ("table", codec.table_to_obj),
    "essential": ("witness", codec.witness_to_obj),
    "chain": ("chain", codec.chain_to_obj),
}


def cmd_search(args):
    a, b = _load_inputs(args)
    cap = _cap(args)
    # before the --arity check, so that a singleton name collision is the
    # error reported for every --what
    expanded = with_singletons(a)
    if args.what == "chain":
        found = oracle_chain_search(a, b)
    elif args.arity is None:
        raise InputError("--arity is required for --what %s" % args.what)
    elif args.what == "term":
        found = absorption_term_search(expanded, b, args.arity, cap)
    else:
        found = essential_witness_search(expanded, b, args.arity, cap)
    payload = {"holds": found is not None, "what": args.what}
    if found is not None:
        key, encode = ANSWERS[args.what]
        payload[key] = encode(found)
    return _emit(payload, EXIT_FAILS if found is None else EXIT_HOLDS)


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
    # imported here: no other command uses the corpus
    from .corpus import build_corpus, manifest_obj

    cap = _cap(args)
    manifest = build_corpus(args.size, args.max_arity, cap)
    obj = manifest_obj(manifest)
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise InputError("cannot create %s: %s" % (args.out, exc)) from None
        for label, a in manifest.structures:
            _write_file(os.path.join(args.out, "%s.json" % label), codec.dump_structure(a))
        _write_file(os.path.join(args.out, "manifest.json"), _document(obj))
        print("wrote %d structures to %s" % (len(manifest.structures), args.out), file=sys.stderr)
    return _emit(obj, EXIT_HOLDS)


# --- the command table ----------------------------------------------------------


class Option:
    """One option of the command table: its flags, the attribute its value
    is stored under (`dest`, from the last flag), `type` (`str`, `int`, or
    None for -h, which takes no value), whether it is required (an optional
    one left out reads None), and the values it may take (`choices`, or None
    for any)."""

    __slots__ = ("flags", "dest", "type", "required", "choices", "help")

    def __init__(self, flags, help, type=str, required=False, choices=None):
        self.flags = flags
        self.dest = flags[-1].lstrip("-").replace("-", "_")
        self.type = type
        self.required = required
        self.choices = choices
        self.help = help

    def name(self):
        return "/".join(self.flags)

    def metavar(self):
        if self.choices is not None:
            return "{%s}" % ",".join(self.choices)
        return self.dest.upper()


HELP = Option(("-h", "--help"), "show this help and exit", type=None)
STRUCTURE = Option(("-s", "--structure"), "structure JSON file", required=True)
SUBSET = Option(("-b", "--subset"), "subset JSON (inline)", required=True)

# The options before the command; every option list also takes -h.
GLOBAL_OPTIONS = (
    Option(
        ("--max-power-vertices",),
        "cap on power-structure vertices and constraint scopes (verify counts "
        "those of the cube), and on the relations corpus enumerates",
        type=int,
    ),
)

# command -> (help line, options); `main` runs `cmd_<command>`.
COMMANDS = {
    "decide": (
        "decide whether B (Jónsson-)absorbs the structure",
        (
            STRUCTURE,
            SUBSET,
            Option(("--certificate",), "write the certificate JSON here when the property "
                   "holds; when it fails, remove any file here"),
        ),
    ),
    "verify": (
        "check an NP certificate",
        (STRUCTURE, SUBSET, Option(("--certificate",), "certificate JSON file", required=True)),
    ),
    "search": (
        "search for a term, essential witness, or chain",
        (
            STRUCTURE,
            SUBSET,
            Option(("--what",), "what to search for", required=True,
                   choices=("term", "essential", "chain")),
            Option(("--arity",), "arity of the term or witness (term and essential)", type=int),
        ),
    ),
    "bounds": (
        "arity bounds for the absorption term",
        (Option(("--theta",), "theta, at least 2", type=int, required=True),
         Option(("--size",), "domain size", type=int, required=True)),
    ),
    "corpus": (
        "enumerate the small-domain fixture corpus",
        (Option(("--size",), "domain size", type=int, required=True),
         Option(("--max-arity",), "largest relation arity", type=int, required=True),
         Option(("--out",), "directory for fixture files")),
    ),
}


def _options(command):
    """-h and the options of the top level (command None) or of a command."""
    return (HELP,) + (GLOBAL_OPTIONS if command is None else COMMANDS[command][1])


class UsageError(Exception):
    """A command line the table does not accept; `command` is the command
    it names, or None."""

    def __init__(self, command, message):
        super().__init__(message)
        self.command = command


def _is_value(word):
    # a word that cannot be an option: "-" alone and negative numbers
    # ("--max-arity -1") are values, as they are to argparse
    return not word.startswith("-") or word[1:2] in "0123456789."


def _find(command, options, word):
    """(option, attached value or None) for an option word."""
    exact = {flag: opt for opt in options for flag in opt.flags}
    if word in exact:
        return exact[word], None
    flag, eq, value = word.partition("=")
    if eq and flag in exact:
        return exact[flag], value
    if word.startswith("--") and len(flag) > 2:
        if not eq:
            value = None
        matches = [f for f in exact if f.startswith(flag)]
        if len(matches) == 1:
            return exact[matches[0]], value
        if matches:
            raise UsageError(
                command, "ambiguous option: %s could match %s" % (flag, ", ".join(matches))
            )
    elif len(word) > 2 and word[:2] in exact:
        return exact[word[:2]], word[2:]
    raise UsageError(command, "unrecognized arguments: %s" % word)


def _convert(command, opt, value):
    if opt.type is int:
        try:
            value = int(value)
        except ValueError:
            raise UsageError(
                command, "argument %s: invalid int value: %r" % (opt.name(), value)
            ) from None
    if opt.choices is not None and value not in opt.choices:
        raise UsageError(
            command,
            "argument %s: invalid choice: %r (choose from %s)"
            % (opt.name(), value, ", ".join(map(repr, opt.choices))),
        )
    return value


def parse_args(argv):
    """(command, namespace of option values) for a command line; the
    namespace is None when -h asks for help (command None: the top level).
    Raises UsageError."""
    command, values = None, {}
    options = _options(None)
    words = iter(argv)
    for word in words:
        if _is_value(word):
            if command is not None:
                raise UsageError(command, "unrecognized arguments: %s" % word)
            if word not in COMMANDS:
                raise UsageError(
                    None,
                    "argument command: invalid choice: %r (choose from %s)"
                    % (word, ", ".join(map(repr, COMMANDS))),
                )
            command, options = word, _options(word)
            continue
        opt, value = _find(command, options, word)
        if opt is HELP:
            if value is not None:
                raise UsageError(
                    command, "argument %s: ignored explicit argument %r" % (opt.name(), value)
                )
            return command, None
        if value is None:
            value = next(words, None)
            if value is None or not _is_value(value):
                raise UsageError(command, "argument %s: expected one argument" % opt.name())
        values[opt.dest] = _convert(command, opt, value)
    if command is None:
        raise UsageError(None, "the following arguments are required: command")
    missing = [opt.name() for opt in options if opt.required and opt.dest not in values]
    if missing:
        raise UsageError(
            command, "the following arguments are required: %s" % ", ".join(missing)
        )
    for opt in GLOBAL_OPTIONS + COMMANDS[command][1]:
        values.setdefault(opt.dest, None)
    return command, SimpleNamespace(**values)


def usage(command):
    """The usage line of the top level (command None) or of one command."""
    words = ["usage: absorb"] if command is None else ["usage: absorb", command]
    for opt in _options(command):
        word = opt.flags[0] if opt.type is None else "%s %s" % (opt.flags[0], opt.metavar())
        words.append(word if opt.required else "[%s]" % word)
    if command is None:
        words.append("{%s} ..." % ",".join(COMMANDS))
    return " ".join(words)


def help_text(command):
    """What -h prints: the usage line, the commands or the command's help
    line, then each option with its help line."""
    lines = [usage(command), ""]
    if command is None:
        lines += ["Decide absorption properties of finite relational structures.", "",
                  "commands:"]
        lines += ["  %-8s %s" % (name, entry[0]) for name, entry in COMMANDS.items()]
    else:
        lines.append(COMMANDS[command][0])
    lines += ["", "options:"]
    for opt in _options(command):
        flags = ", ".join(opt.flags)
        lines.append("  " + (flags if opt.type is None else "%s %s" % (flags, opt.metavar())))
        lines.append("        " + opt.help)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    try:
        command, args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        prog = "absorb" if exc.command is None else "absorb " + exc.command
        sys.stderr.write("%s\n%s: error: %s\n" % (usage(exc.command), prog, exc))
        return EXIT_INPUT
    if args is None:
        sys.stdout.write(help_text(command))
        return EXIT_HOLDS
    try:
        return globals()["cmd_" + command](args)
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
