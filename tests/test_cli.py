"""Command-line surface: exit codes, payloads, caps, and file handling."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import time
from itertools import product

import pytest

import absorb
from absorb import codec, is_absorption_term, structure, subset
from absorb import cli
from absorb.cli import main
from fixtures import aff2, ord2


@pytest.fixture
def files(tmp_path):
    ord2_path = tmp_path / "ord2.json"
    ord2_path.write_text(codec.dump_structure(ord2()))
    aff2_path = tmp_path / "aff2.json"
    aff2_path.write_text(codec.dump_structure(aff2()))
    return tmp_path, str(ord2_path), str(aff2_path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    payload = json.loads(out) if out else None
    return code, payload


B0 = '{"elements":[0]}'


def package_env():
    """The environment with this `absorb` package first on PYTHONPATH, for
    subprocesses."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(absorb.__file__)))
    paths = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


class TestDecideCommand:
    def test_holds(self, capsys, files):
        _, ord2_path, _ = files
        code, payload = run(capsys, "decide", "-s", ord2_path, "-b", B0)
        assert code == 0
        assert payload["holds"] is True
        assert payload["schema"] == "absorb/1"

    def test_fails_with_quintuple(self, capsys, files):
        _, _, aff2_path = files
        code, payload = run(capsys, "decide", "-s", aff2_path, "-b", B0)
        assert code == 1
        assert payload["holds"] is False
        assert payload["failing"] == [0, 1, 1, 0, 0]

    def test_empty_subset_is_usage_error(self, capsys, files):
        _, _, aff2_path = files
        code, _ = run(capsys, "decide", "-s", aff2_path, "-b", '{"elements":[]}')
        assert code == 2

    def test_b_equals_a_on_six_elements(self, capsys, tmp_path):
        # B = A needs no closure, which would refuse power(leq6, 6) with exit 3
        path = tmp_path / "leq6.json"
        leq6 = structure(6, {"leq": [(x, y) for x in range(6) for y in range(6) if x <= y]})
        path.write_text(codec.dump_structure(leq6))
        code, payload = run(capsys, "decide", "-s", str(path), "-b", '{"elements":[0,1,2,3,4,5]}')
        assert code == 0 and payload["holds"] is True

    def test_unreadable_file(self, capsys, files):
        code, _ = run(capsys, "decide", "-s", "/nonexistent.json", "-b", B0)
        assert code == 2

    def test_malformed_subset(self, capsys, files):
        _, ord2_path, _ = files
        code, _ = run(capsys, "decide", "-s", ord2_path, "-b", "not json")
        assert code == 2

    def test_cap_exceeded(self, capsys, files):
        _, ord2_path, _ = files
        code, _ = run(
            capsys, "--max-power-vertices", "2", "decide", "-s", ord2_path, "-b", B0
        )
        assert code == 3

    def test_environment_sets_no_cap(self, capsys, files, monkeypatch):
        # the cap comes from --max-power-vertices or the default only
        _, ord2_path, _ = files
        monkeypatch.setenv("ABSORB_MAX_VERTICES", "2")
        code, _ = run(capsys, "decide", "-s", ord2_path, "-b", B0)
        assert code == 0

    def test_output_is_stable(self, capsys, files):
        _, ord2_path, _ = files
        main(["decide", "-s", ord2_path, "-b", B0])
        first = capsys.readouterr().out
        main(["decide", "-s", ord2_path, "-b", B0])
        assert capsys.readouterr().out == first


    def test_unwritable_certificate_is_usage_error(self, capsys, files):
        tmp, ord2_path, _ = files
        cert = str(tmp / "missing-dir" / "cert.json")
        code, _ = run(capsys, "decide", "-s", ord2_path, "-b", B0, "--certificate", cert)
        assert code == 2

    def test_failing_verdict_removes_an_old_certificate(self, capsys, files):
        tmp, ord2_path, _ = files
        # x + y + z = 0 (mod 3): {0} does not absorb
        xyz = tmp / "xyz.json"
        xyz.write_text(codec.dump_structure(
            structure(3, {"r": [t for t in product(range(3), repeat=3) if sum(t) % 3 == 0]})
        ))
        cert = tmp / "x.cert"
        code, _ = run(capsys, "decide", "-s", ord2_path, "-b", B0, "--certificate", str(cert))
        assert code == 0 and cert.exists()
        for _ in range(2):
            # the second run finds no file to remove, which is no error
            code, payload = run(
                capsys, "decide", "-s", str(xyz), "-b", B0, "--certificate", str(cert)
            )
            assert code == 1 and payload["holds"] is False
            assert not cert.exists()

    def test_certificate_is_encoded_once(self, capsys, files, monkeypatch):
        # stdout's "certificate" member is the file's text, byte for byte,
        # and both come from one encoding of the certificate
        tmp, ord2_path, _ = files
        calls = []
        encode = codec.dump_certificate
        monkeypatch.setattr(codec, "dump_certificate", lambda cert: calls.append(cert) or encode(cert))
        cert = tmp / "c.json"
        code = main(["decide", "-s", ord2_path, "-b", B0, "--certificate", str(cert)])
        out = capsys.readouterr().out
        text = cert.read_text()
        assert code == 0 and len(calls) == 1
        assert text.endswith("\n") and out.startswith('{"certificate":%s,' % text[:-1])
        # both are canonical: the whole payload reads back to the same line
        payload = json.loads(out)
        assert out == codec.dumps(payload) + "\n"
        assert payload["certificate"] == json.loads(text) and payload["holds"] is True

    def test_no_certificate_unless_asked(self, capsys, files):
        _, ord2_path, _ = files
        code, payload = run(capsys, "decide", "-s", ord2_path, "-b", B0)
        assert code == 0 and "certificate" not in payload

    def test_payload_has_no_mode(self, capsys, files):
        # decide has one computation, and --mode, which only labelled the
        # payload, is a usage error
        tmp, ord2_path, aff2_path = files
        cert = tmp / "mode.cert.json"
        argv = ["decide", "-s", ord2_path, "-b", B0, "--mode", "absorb", "--certificate", str(cert)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "--mode" in captured.err
        assert not cert.exists()
        code, payload = run(capsys, "decide", "-s", ord2_path, "-b", B0)
        assert code == 0 and payload == {"holds": True, "schema": "absorb/1"}
        code, payload = run(capsys, "decide", "-s", aff2_path, "-b", B0)
        assert code == 1
        assert payload == {"failing": [0, 1, 1, 0, 0], "holds": False, "schema": "absorb/1"}

    def test_boolean_is_not_a_number(self, capsys, files):
        tmp, ord2_path, _ = files
        code, _ = run(capsys, "decide", "-s", ord2_path, "-b", '{"elements":[true]}')
        assert code == 2
        path = tmp / "bool-size.json"
        path.write_text('{"size":true,"relations":{}}')
        code, _ = run(capsys, "decide", "-s", str(path), "-b", B0)
        assert code == 2

    def test_cube_cap_refuses_before_any_work_on_the_domain(self, capsys, tmp_path):
        # with_singletons and the subuniverse check took 9 s here before
        # the cube's vertices were counted
        path = tmp_path / "empty.json"
        path.write_text('{"size": 300000, "relations": {}}')
        start = time.perf_counter()
        code = main(["decide", "-s", str(path), "-b", B0])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "power structure would have %d vertices, cap is 1000000" % 300000 ** 3 in captured.err
        assert elapsed < 2

    def test_cube_cap_comes_before_the_subuniverse_check(self, capsys, tmp_path):
        # {0,1} is not a subuniverse (exit 2 under the cap), but the cube of
        # 27 vertices is over a cap of 26
        path = tmp_path / "three.json"
        path.write_text(codec.dump_structure(structure(3, {"r": [(0, 1)]})))
        argv = ["decide", "-s", str(path), "-b", '{"elements":[0,1]}']
        assert main(argv) == 2
        assert main(["--max-power-vertices", "26", *argv]) == 3
        assert "27 vertices, cap is 26" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_is_usage_error(self, capsys, files, cap):
        _, ord2_path, _ = files
        code = main(["--max-power-vertices", cap, "decide", "-s", ord2_path, "-b", B0])
        assert code == 2
        assert "--max-power-vertices must be at least 1" in capsys.readouterr().err


class TestUsage:
    """The command-line grammar: the option forms it accepts, usage errors
    (exit 2, nothing on stdout, a usage line and an error naming the offending
    word) and -h.  Only the words are pinned, not the layout of the text."""

    HELP = {
        None: ("decide", "verify", "search", "bounds", "corpus", "--max-power-vertices"),
        "decide": ("-s", "--structure", "-b", "--subset", "--certificate"),
        "verify": ("-s", "--structure", "-b", "--subset", "--certificate"),
        "search": ("-s", "--structure", "-b", "--subset", "--what", "--arity"),
        "bounds": ("--theta", "--size"),
        "corpus": ("--size", "--max-arity", "--out"),
    }

    @staticmethod
    def outcome(capsys, argv):
        # main returns the code of a usage error or of -h, as of any other run
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(
        "argv, words",
        [
            ([], ("command",)),
            (["frob"], ("frob",)),
            (["decide"], ("--structure", "--subset")),
            (["decide", "-b", B0], ("--structure",)),
            (["bounds"], ("--theta", "--size")),
            (["bounds", "--theta", "x", "--size", "2"], ("--theta", "'x'")),
            (["--max-power-vertices", "lots", "bounds", "--theta", "2", "--size", "2"],
             ("--max-power-vertices", "'lots'")),
            (["search", "-s", "ORD2", "-b", B0, "--what", "frob"], ("--what", "'frob'")),
            (["decide", "-s", "ORD2", "-b", B0, "--mode", "jonsson"], ("--mode",)),
            (["bounds", "--theta", "2", "--size", "2", "--frob"], ("--frob",)),
            (["--frob", "bounds", "--theta", "2", "--size", "2"], ("--frob",)),
            (["decide", "--s", "ORD2", "-b", B0], ("--s",)),
            (["bounds", "--theta"], ("--theta",)),
            (["decide", "-s", "ORD2", "-b"], ("-b",)),
            (["decide", "-s", "ORD2", "-b", B0, "--max-power-vertices", "5"],
             ("--max-power-vertices",)),
            (["bounds", "--theta", "2", "--size", "2", "extra"], ("extra",)),
        ],
        ids=[
            "no-command", "unknown-command", "missing-required", "missing-one-required",
            "missing-both-ints", "bad-int", "bad-global-int", "bad-choice-what",
            "removed-mode", "unknown-option", "unknown-global-option", "ambiguous-prefix",
            "missing-int-value", "missing-str-value", "global-option-after-command",
            "stray-word",
        ],
    )
    def test_usage_error(self, capsys, files, argv, words):
        _, ord2_path, _ = files
        argv = [ord2_path if word == "ORD2" else word for word in argv]
        code, out, err = self.outcome(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: absorb")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors and all(word in errors[-1] for word in words), err

    def test_subprocess_usage_error_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "absorb.cli", "bounds", "--theta", "x", "--size", "2"],
            capture_output=True, text=True, env=package_env(), timeout=60,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("usage: absorb")
        assert "error:" in proc.stderr and "'x'" in proc.stderr

    def test_equals_and_prefix_forms(self, capsys, files):
        tmp, ord2_path, _ = files
        code, payload = run(capsys, "bounds", "--theta=2", "--size=2")
        assert code == 0 and payload["kappa"] == 257
        code, payload = run(capsys, "bounds", "--th", "2", "--si=2")
        assert code == 0 and payload["kappa"] == 257
        cert = tmp / "prefix.cert.json"
        code, payload = run(
            capsys, "decide", "-s" + ord2_path, "--sub=" + B0, "--cert=" + str(cert),
        )
        assert code == 0 and payload["holds"] is True
        assert cert.exists()
        code, payload = run(
            capsys, "--max=100000", "verify", "--struct", ord2_path, "-b", B0, "--cert", str(cert)
        )
        assert code == 0 and payload["holds"] is True

    def test_global_prefix_with_small_cap(self, capsys, files):
        _, ord2_path, _ = files
        code, _ = run(capsys, "--max-power", "2", "decide", "-s", ord2_path, "-b", B0)
        assert code == 3

    def test_last_repeat_wins(self, capsys, files):
        tmp, ord2_path, _ = files
        code, payload = run(capsys, "bounds", "--theta", "3", "--size", "2", "--theta", "2")
        assert code == 0 and payload["theta"] == 2 and payload["kappa"] == 257
        first, last = tmp / "first.cert.json", tmp / "last.cert.json"
        code, payload = run(
            capsys, "decide", "-s", "/nonexistent.json", "-s", ord2_path, "-b", B0,
            "--certificate", str(first), "--certificate", str(last),
        )
        assert code == 0 and payload["holds"] is True
        assert last.exists() and not first.exists()

    def test_defaults(self, capsys, files):
        # an optional option left out reads None
        _, ord2_path, _ = files
        command, args = cli.parse_args(["decide", "-s", ord2_path, "-b", B0])
        assert (command, args.certificate, args.max_power_vertices) == ("decide", None, None)
        command, args = cli.parse_args(["search", "-s", ord2_path, "-b", B0, "--what", "chain"])
        assert (command, args.arity) == ("search", None)

    @pytest.mark.parametrize("command", [None, "decide", "verify", "search", "bounds", "corpus"])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help(self, capsys, command, flag):
        argv = [flag] if command is None else [command, flag]
        code, out, err = self.outcome(capsys, argv)
        assert code == 0 and err == ""
        assert out.startswith("usage: absorb")
        for word in self.HELP[command]:
            assert word in out, word

    def test_help_wins_over_missing_options(self, capsys):
        code, out, _ = self.outcome(capsys, ["decide", "-h"])
        assert code == 0 and "--certificate" in out


class TestInternalError:
    def test_unexpected_exception_exits_4(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(cli, "cmd_bounds", boom)
        code = main(["bounds", "--theta", "2", "--size", "2"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("Traceback")
        assert captured.err.endswith("\ninternal error: RuntimeError: kaboom\n")


class TestClosedStdout:
    @pytest.mark.parametrize("name, expected", [("ord2", 0), ("aff2", 1)])
    def test_reader_that_stops_reading_gets_the_verdict_code(self, files, name, expected):
        _, ord2_path, aff2_path = files
        path = ord2_path if name == "ord2" else aff2_path
        read_end, write_end = os.pipe()
        # no reader at all: every write to stdout fails with EPIPE
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "absorb.cli", "decide", "-s", path, "-b", B0],
                stdout=write_end, stderr=subprocess.PIPE, env=package_env(), timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == expected
        assert proc.stderr == b""


class TestTracedRun:
    """The benchmark's trace mode (perfbench/tracer.py) on the real package."""

    def test_traced_decide_matches_a_plain_run(self, capsys, files, tmp_path):
        _, ord2_path, _ = files
        argv = ["decide", "-s", ord2_path, "-b", B0]
        code = main(argv)
        plain = capsys.readouterr().out
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spans_path = tmp_path / "spans.json"
        proc = subprocess.run(
            [sys.executable, os.path.join(repo, "perfbench", "tracer.py"), str(spans_path), "--"]
            + argv,
            capture_output=True, env=package_env(), timeout=120,
        )
        assert proc.returncode == code
        assert proc.stdout.decode("utf-8") == plain
        doc = json.loads(spans_path.read_text())
        assert doc["spans"]
        modules = [absorb] + [
            importlib.import_module("absorb." + info.name)
            for info in pkgutil.iter_modules(absorb.__path__)
        ]
        for layer in doc["absent"]:
            name = layer.rsplit(".", 1)[1]
            assert not any(hasattr(mod, name) for mod in modules), layer


class TestVerifyCommand:
    def test_roundtrip(self, capsys, files):
        tmp, ord2_path, _ = files
        cert = str(tmp / "cert.json")
        code, _ = run(capsys, "decide", "-s", ord2_path, "-b", B0, "--certificate", cert)
        assert code == 0
        code, payload = run(capsys, "verify", "-s", ord2_path, "-b", B0, "--certificate", cert)
        assert code == 0 and payload["holds"] is True

    def test_truncated_certificate_rejected(self, capsys, files):
        tmp, ord2_path, _ = files
        cert_path = tmp / "cert.json"
        run(capsys, "decide", "-s", ord2_path, "-b", B0, "--certificate", str(cert_path))
        doc = json.loads(cert_path.read_text())
        for entry in doc["quintuples"]:
            if entry["steps"]:
                entry["steps"] = entry["steps"][:-1]
                break
        cert_path.write_text(json.dumps(doc))
        code, payload = run(
            capsys, "verify", "-s", ord2_path, "-b", B0, "--certificate", str(cert_path)
        )
        assert code == 1
        assert "endpoint" in payload["defect"]

    def test_unexpected_entry_rejected(self, capsys, files):
        tmp, ord2_path, _ = files
        cert_path = tmp / "cert.json"
        run(capsys, "decide", "-s", ord2_path, "-b", B0, "--certificate", str(cert_path))
        doc = json.loads(cert_path.read_text())
        doc["quintuples"].append({
            "q": [7, 7, 7, 7, 7],
            "steps": [{"b": 5, "u": 7, "v": 7, "phi": {"arity": 3, "values": [0] * 8}}],
        })
        cert_path.write_text(json.dumps(doc))
        code, payload = run(
            capsys, "verify", "-s", ord2_path, "-b", B0, "--certificate", str(cert_path)
        )
        assert code == 1 and payload["holds"] is False
        assert payload["defect"] == "unexpected quintuple [7, 7, 7, 7, 7]"

    def test_cap_refuses_before_replaying(self, capsys, files):
        tmp, ord2_path, _ = files
        cert = str(tmp / "cert.json")
        run(capsys, "decide", "-s", ord2_path, "-b", B0, "--certificate", cert)
        # leq has 3 tuples and each singleton 1: 27 + 1 + 1 scopes of the cube
        verify = ("verify", "-s", ord2_path, "-b", B0, "--certificate", cert)
        code = main(["--max-power-vertices", "28", *verify])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "verify would check 29 constraint scopes per table, cap is 28" in captured.err
        code, payload = run(capsys, "--max-power-vertices", "29", *verify)
        assert code == 0 and payload["holds"] is True

    def test_cube_cap_refuses_before_any_work_on_the_domain(self, capsys, tmp_path):
        # verify capped only the constraint scopes and ran for minutes here
        path = tmp_path / "empty.json"
        path.write_text('{"size": 2000, "relations": {}}')
        cert = tmp_path / "cert.json"
        cert.write_text('{"quintuples": []}')
        start = time.perf_counter()
        code = main(["verify", "-s", str(path), "-b", B0, "--certificate", str(cert)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "verify would check 8000000000 vertices of the cube per table, cap is 1000000" in (
            captured.err
        )
        assert elapsed < 2

    def test_quintuples_are_checked_without_listing_them(self, capsys, tmp_path):
        # 8,000,000 quintuples were built into a set before the first entry
        # was read: 27 s to find the first one missing
        path = tmp_path / "empty.json"
        path.write_text('{"size": 200, "relations": {}}')
        cert = tmp_path / "cert.json"
        cert.write_text('{"quintuples": [{"q": [0, 1, 0, 0, 0], "steps": []}]}')
        start = time.perf_counter()
        code, payload = run(
            capsys, "--max-power-vertices", "10000000",
            "verify", "-s", str(path), "-b", B0, "--certificate", str(cert),
        )
        elapsed = time.perf_counter() - start
        assert code == 1 and payload["defect"] == "missing quintuple [0, 0, 0, 0, 0]"
        assert elapsed < 2

    def test_empty_b_is_an_input_error(self, capsys, files):
        # as decide, search and chain report it, not as a failed verdict
        tmp, ord2_path, _ = files
        cert = str(tmp / "cert.json")
        run(capsys, "decide", "-s", ord2_path, "-b", B0, "--certificate", cert)
        code = main(["verify", "-s", ord2_path, "-b", '{"elements":[]}', "--certificate", cert])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "B must be nonempty" in captured.err

    def test_non_json_certificate(self, capsys, files):
        tmp, ord2_path, _ = files
        bad = tmp / "bad.json"
        bad.write_text("not a certificate")
        code, _ = run(capsys, "verify", "-s", ord2_path, "-b", B0, "--certificate", str(bad))
        assert code == 2


class TestSearchCommand:
    # (structure, --what and its arity, exit code, stdout line) with B={0}:
    # {0} absorbs ord2 by min and has a chain there; aff2 has an essential
    # witness, ord2 none
    ANSWERS = [
        ("ord2", ["term", "--arity", "2"], 0,
         '{"holds":true,"schema":"absorb/1","table":{"arity":2,"values":[0,0,0,1]},"what":"term"}'),
        ("aff2", ["term", "--arity", "2"], 1,
         '{"holds":false,"schema":"absorb/1","what":"term"}'),
        ("ord2", ["essential", "--arity", "2"], 1,
         '{"holds":false,"schema":"absorb/1","what":"essential"}'),
        ("aff2", ["essential", "--arity", "2"], 0,
         '{"holds":true,"schema":"absorb/1","what":"essential",'
         '"witness":{"arity":2,"generators":[[1,0],[0,1]]}}'),
        ("ord2", ["chain"], 0,
         '{"chain":{"tables":[{"arity":3,"values":[0,0,0,0,1,1,1,1]},'
         '{"arity":3,"values":[0,0,0,1,0,0,1,1]},{"arity":3,"values":[0,1,0,1,0,1,0,1]}]},'
         '"holds":true,"schema":"absorb/1","what":"chain"}'),
        ("aff2", ["chain"], 1,
         '{"holds":false,"schema":"absorb/1","what":"chain"}'),
    ]

    @pytest.mark.parametrize(
        "name, what, code, line", ANSWERS, ids=["%s-%s" % (n, w[0]) for n, w, _, _ in ANSWERS]
    )
    def test_exact_answer(self, capsys, files, name, what, code, line):
        tmp, _, _ = files
        path = str(tmp / ("%s.json" % name))
        assert main(["search", "-s", path, "-b", B0, "--what", *what]) == code
        captured = capsys.readouterr()
        assert captured.out == line + "\n" and captured.err == ""

    def test_term_found(self, capsys, files):
        _, ord2_path, _ = files
        code, payload = run(
            capsys, "search", "-s", ord2_path, "-b", B0, "--what", "term", "--arity", "2"
        )
        assert code == 0
        assert payload["table"]["values"] == [0, 0, 0, 1]

    def test_essential_found(self, capsys, files):
        _, _, aff2_path = files
        code, payload = run(
            capsys, "search", "-s", aff2_path, "-b", B0, "--what", "essential", "--arity", "2"
        )
        assert code == 0
        assert payload["witness"]["generators"] == [[1, 0], [0, 1]]

    def test_chain_absent(self, capsys, files):
        _, _, aff2_path = files
        code, payload = run(capsys, "search", "-s", aff2_path, "-b", B0, "--what", "chain")
        assert code == 1 and payload["holds"] is False

    def test_chain_found(self, capsys, files):
        _, ord2_path, _ = files
        code, payload = run(capsys, "search", "-s", ord2_path, "-b", B0, "--what", "chain")
        assert code == 0 and payload["chain"]["tables"]

    @pytest.mark.parametrize("elements", ["[7]", "[0,7]"])
    def test_chain_rejects_b_out_of_range(self, capsys, files, elements):
        _, ord2_path, _ = files
        b = '{"elements":%s}' % elements
        code = main(["search", "-s", ord2_path, "-b", b, "--what", "chain"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "subset element 7 out of range for size 2" in captured.err

    def test_chain_rejects_empty_b_before_the_domain_cap(self, capsys, tmp_path):
        path = tmp_path / "three.json"
        path.write_text(codec.dump_structure(structure(3, {"r": [(0, 1)]})))
        b = '{"elements":[]}'
        code = main(["search", "-s", str(path), "-b", b, "--what", "chain"])
        assert code == 2
        assert "B must be nonempty" in capsys.readouterr().err

    def test_deep_search_needs_no_recursion_limit(self, capsys, tmp_path):
        # a star centred on 1, closed under neither min nor max: its cube
        # is one component of 11^3 = 1331 vertices, all beside (1, 1, 1),
        # and the term search branches 1,260 levels deep, past Python's
        # default recursion limit of 1,000
        star11 = structure(11, {"r": [(1, y) for y in range(11)] + [(y, 1) for y in range(11)]})
        path = tmp_path / "star11.json"
        path.write_text(codec.dump_structure(star11))
        code, payload = run(
            capsys, "search", "-s", str(path), "-b", B0, "--what", "term", "--arity", "3"
        )
        assert code == 0 and payload["holds"] is True
        table = codec.table_from_obj(payload["table"])
        assert is_absorption_term(star11, subset([0]), table)

    def test_scope_cap_refuses_before_building(self, capsys, tmp_path):
        # 11^3 = 1331 vertices, but (11^2)^3 + 11 = 1,771,572 constraint
        # scopes: without the scope cap this search ran for minutes
        full11 = structure(11, {"r": list(product(range(11), repeat=2))})
        path = tmp_path / "full11.json"
        path.write_text(codec.dump_structure(full11))
        start = time.perf_counter()
        code = main(
            ["search", "-s", str(path), "-b", B0, "--what", "term", "--arity", "3"]
        )
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 3
        assert "1771572 constraint scopes, cap is 1000000" in err
        assert elapsed < 30

    def test_missing_arity(self, capsys, files):
        _, ord2_path, _ = files
        for what in ("term", "essential"):
            assert main(["search", "-s", ord2_path, "-b", B0, "--what", what]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "input error: --arity is required for --what %s\n" % what


class TestBoundsCommand:
    def test_values(self, capsys):
        code, payload = run(capsys, "bounds", "--theta", "2", "--size", "2")
        assert code == 0 and payload["kappa"] == 257

    def test_lower_bound(self, capsys):
        code, payload = run(capsys, "bounds", "--theta", "2", "--size", "4")
        assert payload["lower_bound"] == 4

    def test_bad_parameters(self, capsys):
        code, _ = run(capsys, "bounds", "--theta", "1", "--size", "2")
        assert code == 2

    def test_largest_printable_size(self, capsys):
        code, payload = run(capsys, "bounds", "--theta", "2", "--size", "8")
        assert code == 0
        assert payload["kappa"] == 2 ** (3 ** 8) // 2 + 1
        assert payload["lower_bound"] == 2 ** (2 ** 5)

    @pytest.mark.parametrize(
        "size, digits", [("9", "5925"), ("100", "10^47.2")], ids=["size9", "size100"]
    )
    def test_unprintable_bound_is_refused(self, capsys, size, digits):
        start = time.perf_counter()
        code = main(["bounds", "--theta", "2", "--size", size])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "kappa would have about %s digits, more than the 4300" % digits in captured.err
        assert elapsed < 5


class TestCorpusCommand:
    def test_counts(self, capsys):
        code, payload = run(capsys, "corpus", "--size", "2", "--max-arity", "3")
        assert code == 0
        assert payload["relation_choices"] == 2 ** 2 + 2 ** 4 + 2 ** 8
        assert payload["instance_count"] > 0

    def test_writes_fixture_files(self, capsys, tmp_path):
        out = tmp_path / "corpus"
        code, payload = run(
            capsys, "corpus", "--size", "2", "--max-arity", "1", "--out", str(out)
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["structure_count"] == payload["structure_count"]
        written = list(out.glob("a1_*.json"))
        assert len(written) == payload["structure_count"]

    def test_unusable_output_directory_is_usage_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _ = run(
            capsys, "corpus", "--size", "2", "--max-arity", "1", "--out", str(blocker / "sub")
        )
        assert code == 2

    @pytest.mark.parametrize(
        "cap, size, max_arity, count",
        [
            ("10", "3", "3", 2 ** 3 + 2 ** 9 + 2 ** 27),
            ("275", "2", "3", 2 ** 2 + 2 ** 4 + 2 ** 8),
            (None, "9", "9", "more than 2^64"),
        ],
    )
    def test_too_many_relations_refused_before_enumerating(self, cap, size, max_arity, count):
        # in a subprocess with a timeout: enumerating these would not end
        argv = [] if cap is None else ["--max-power-vertices", cap]
        argv += ["corpus", "--size", size, "--max-arity", max_arity]
        proc = subprocess.run(
            [sys.executable, "-m", "absorb.cli"] + argv,
            capture_output=True, text=True, env=package_env(), timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "resource cap exceeded: corpus would enumerate %s relations, cap is %s\n"
            % (count, cap or "1000000")
        )

    @pytest.mark.parametrize("max_arity", ["0", "-1"])
    def test_max_arity_below_one_is_usage_error(self, capsys, max_arity):
        code = main(["corpus", "--size", "2", "--max-arity", max_arity])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "input error: corpus max arity must be at least 1, got %s\n" % max_arity
        )


class TestImportCost:
    @staticmethod
    def loaded(statement, modules):
        """Which of `modules` a fresh `python -S` process has loaded after
        running `statement` (-S: only what the package itself imports
        counts, not site hooks)."""
        code = "import sys; %s; print(sorted(set(sys.modules) & set(%r)))" % (statement, modules)
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True, text=True, env=package_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    @pytest.mark.parametrize("module", ["absorb.cli", "absorb"])
    def test_import_leaves_heavy_modules_out(self, module):
        heavy = ("dataclasses", "inspect", "traceback")
        assert self.loaded("import " + module, heavy) == "[]\n"

    def test_cli_import_leaves_what_no_query_runs_out(self):
        unused = (
            "argparse", "gettext", "locale", "absorb.comb", "absorb.ppform", "absorb.corpus"
        )
        assert self.loaded("import absorb.cli", unused) == "[]\n"

    def test_cli_import_loads_no_typing(self):
        # the annotations are strings, read by type checkers only
        assert self.loaded("import absorb.cli", ("typing",)) == "[]\n"

    def test_package_import_loads_no_submodule(self):
        submodules = ["absorb." + info.name for info in pkgutil.iter_modules(absorb.__path__)]
        assert "absorb.engine" in submodules
        assert self.loaded("import absorb", submodules) == "[]\n"

    def test_every_export_is_its_home_modules(self):
        assert len(absorb.__all__) == len(set(absorb.__all__)) == 70
        for module, names in absorb._EXPORTS.items():
            home = importlib.import_module("absorb." + module)
            for name in names:
                value = getattr(absorb, name)
                assert value is getattr(home, name), name
                if isinstance(value, type) or callable(value):
                    assert value.__module__ == home.__name__, name

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from absorb import *", namespace)
        assert set(absorb.__all__) <= set(namespace)
        assert all(namespace[name] is getattr(absorb, name) for name in absorb.__all__)
        assert set(absorb.__all__) <= set(dir(absorb))
        assert "__version__" in dir(absorb)
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            absorb.no_such_name
        assert not hasattr(absorb, "find_hom")
        assert not hasattr(absorb, "EssentialWitness")
