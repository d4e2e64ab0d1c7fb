"""Self-tests of the benchmark: the term checker, the pinned certificates and
their mutated copies, relabelling, outcome classification and judging, the
tracing overhead, the tracer's wrappers, and the timed entry point and the
scaling of query times by the host speed it measures.

    python3 -m pytest perfbench/test_perfbench.py
"""

import ast
import json
import os
import random
import subprocess
import sys
import types
from itertools import product

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import run as bench  # noqa: E402
import runner  # noqa: E402
import termcheck  # noqa: E402
import timed  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from absorb import codec, is_absorption_term, subset  # noqa: E402
from absorb.cli import main as cli_main  # noqa: E402
from absorb.model import OperationTable  # noqa: E402

ORD2 = {"size": 2, "relations": {"leq": {"arity": 2, "tuples": [[0, 0], [0, 1], [1, 1]]}}}
AFF2 = {"size": 2, "relations": {"aff": {"arity": 3, "tuples": [
    [0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]}}}


def _table(size, arity, fn):
    return [fn(*args) for args in product(range(size), repeat=arity)]


def test_termcheck_imports_nothing_from_absorb():
    with open(os.path.join(HERE, "termcheck.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
    assert not any(n.split(".")[0] == "absorb" for n in names)


def test_termcheck_accepts_min_on_ord2():
    for arity in (2, 3):
        ok, why = termcheck.check_term(ORD2, [0], arity, _table(2, arity, min))
        assert ok, why


def test_termcheck_rejects_with_reasons():
    proj = _table(2, 2, lambda x, y: x)
    assert termcheck.check_term(ORD2, [0], 2, proj) == (
        False, "does not absorb B at position 1: (1, 0)")
    ok, why = termcheck.check_term(ORD2, [0], 2, _table(2, 2, lambda x, y: 0))
    assert not ok and "idempotent" in why
    majority = _table(2, 3, lambda x, y, z: int(x + y + z >= 2))
    ok, why = termcheck.check_term(AFF2, [0], 3, majority)
    assert not ok and "preserve aff" in why
    ok, why = termcheck.check_term(ORD2, [0], 2, [0, 0, 0])
    assert not ok and "entries" in why


@pytest.mark.parametrize("structure", [ORD2, AFF2], ids=["ord2", "aff2"])
@pytest.mark.parametrize("b", [[0], [1]])
def test_termcheck_agrees_with_library_on_all_binary_tables(structure, b):
    a = codec.parse_structure(json.dumps(structure))
    found = 0
    for values in product(range(2), repeat=4):
        ours, _ = termcheck.check_term(structure, b, 2, list(values))
        theirs = is_absorption_term(a, subset(b), OperationTable(2, 2, values))
        assert ours == theirs, values
        found += ours
    assert found == (1 if structure is ORD2 else 0)


def test_relabel_table_conjugates():
    perm = [2, 0, 1]
    values = _table(3, 2, max)
    out = wl.relabel_table(values, 3, 2, perm)
    for x, y in product(range(3), repeat=2):
        assert out[perm[x] * 3 + perm[y]] == perm[max(x, y)]


def _verify(tmp_path, capsys, name, cert, perm):
    obj, b = wl.NAMED[name]
    s = tmp_path / "s.json"
    s.write_text(json.dumps(wl.relabel_structure(obj, perm)))
    c = tmp_path / "c.json"
    c.write_text(json.dumps(wl.relabel_certificate(cert, obj["size"], perm)))
    bb = json.dumps({"elements": wl.relabel_subset(b, perm)})
    code = cli_main(["verify", "-s", str(s), "-b", bb, "--certificate", str(c)])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", ["leq3", "r3", "min3", "leq4"])
def test_pinned_certificates_and_mutations(tmp_path, capsys, name):
    size = wl.NAMED[name][0]["size"]
    perm = random.Random(name).sample(range(size), size)
    code, payload = _verify(tmp_path, capsys, name, wl.load_json(wl.cert_path(name)), perm)
    assert code == 0 and payload["holds"] is True
    for mutation, defect in wl.MUTATIONS.items():
        bad = wl.load_json(wl.cert_path(name, mutation))
        code, payload = _verify(tmp_path, capsys, name, bad, perm)
        assert code == 1, mutation
        assert defect in payload["defect"], (mutation, payload)


def test_pins_cover_every_query(tmp_path):
    for workload in wl.WORKLOADS:
        queries = wl.build_queries(workload, 7, str(tmp_path))
        again = wl.build_queries(workload, 7, str(tmp_path))
        assert [q.argv for q in queries] == [q.argv for q in again]
        assert [q.perm for q in queries] == [q.perm for q in again]
        assert len({(q.qid, tuple(q.argv)) for q in queries}) == len(queries)


def test_pass_permutations_cover_labellings_before_repeating():
    seq = [wl.pass_permutation("k", 3, [0], k) for k in range(4)]
    assert sorted(seq[:2]) == [[0, 1, 2], [0, 2, 1]] and seq[2:] == seq[:2]
    assert seq == [wl.pass_permutation("k", 3, [0], k) for k in range(4)]
    assert {wl.pass_permutation("k", 3, [0, 1], k)[2] for k in range(3)} == {2}
    big = [wl.pass_permutation("k", 8, [0], k) for k in range(6)]
    assert len({tuple(p) for p in big}) == 6 and all(p[0] == 0 for p in big)


@pytest.mark.parametrize("code,stdout,status", [
    (1, "", "crash"),
    (1, "Traceback\n", "bad-output"),
    (3, "", "exit-3"),
    (0, '{"holds":false,"schema":"absorb/1"}\n', "bad-output"),
    (1, '{"holds":false,"schema":"absorb/2"}\n', "bad-output"),
    (1, '{"holds":false,"schema":"absorb/1"}\n', "ok"),
    (0, '{"holds":true,"schema":"absorb/1"}\n', "ok"),
])
def test_classify(code, stdout, status):
    assert runner.classify(code, stdout, False)[0] == status
    assert runner.classify(code, stdout, True)[0] == "deadline"


def _outcome(status, code=1, seconds=1.0):
    payload = {"schema": "absorb/1", "holds": code == 0} if status == "ok" else None
    return runner.Outcome(code, seconds, 1000, status, payload, "")


def test_only_the_documented_crash_is_a_known_defect(tmp_path):
    pins = wl.load_pins()
    swap = next(q for q in wl.build_queries("verify-search", 1, str(tmp_path))
                if q.instance == "swap11")
    assert swap.known_defect
    tally = bench.Tally()
    assert not bench.judge(swap, _outcome("crash"), pins, tally)
    assert (tally.known_failures, tally.failed) == (1, 0)
    for status in ("deadline", "bad-output", "exit-3"):
        assert not bench.judge(swap, _outcome(status), pins, tally)
    assert (tally.known_failures, tally.failed, tally.attempted) == (1, 3, 4)


def test_trace_overhead_sums_per_query_medians():
    samples = bench.Samples()
    queries = [types.SimpleNamespace(qid=name) for name in ("a", "b")]
    for q, untraced, traced in ((queries[0], [1.0, 3.0, 2.0], [2.5, 2.5, 9.0]),
                                (queries[1], [0.5], [0.75])):
        for u, t in zip(untraced, traced):
            samples.add(q, _outcome("ok", 0, u), False)
            samples.add(q, _outcome("ok", 0, t), True)
    assert bench.trace_overhead(samples) == (3.25, 2.5, 0.75, None)
    samples.add(queries[1], _outcome("ok", 0, 0.25), False)
    assert bench.trace_overhead(samples)[3] == 2.25


def test_end_to_end_divides_times_by_host_speed_but_not_memory():
    samples = bench.Samples()
    for qid, times in (("a", [1.0, 3.0, 2.0]), ("b", [4.0])):
        for t in times:
            samples.add(types.SimpleNamespace(qid=qid), _outcome("ok", 0, t), False)
    samples.rss_kb = 2048
    m = bench.end_to_end(samples, 0.5, speed=2.0)
    assert {k: v for k, (v, _) in m.items()} == {
        "wall_s": 3.0, "query_p50_s": 1.5, "query_max_s": 2.0, "setup_s": 0.25, "peak_rss_mb": 2.0}
    out = _outcome("ok", 0, 9.0)
    assert bench.program_seconds(out, {"reference_s": [0.1], "import_s": 1.0, "program_s": 3.0}) == 3.0
    assert bench.program_seconds(out, None) == 9.0


def test_every_query_mode_runs_an_existing_entry_point():
    for script in bench.ENTRY_POINTS.values():
        assert os.path.isfile(os.path.join(HERE, script)), script


def test_timed_entry_point_keeps_the_cli_answer(tmp_path):
    times = tmp_path / "t.json"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, os.path.join(HERE, "timed.py"), str(times), "--"]
                          + bench.SETUP_ARGV, env=env, capture_output=True, text=True)
    assert done.returncode == 0 and json.loads(done.stdout)["kappa"] == 257
    doc = json.loads(times.read_text())
    assert len(doc["reference_s"]) == timed.REFERENCE_BURST
    assert 0 < doc["import_s"] < doc["program_s"]
    assert timed.count_solutions() == timed.SOLUTIONS


def test_tracer_wraps_every_binding_and_marks_absent_layers(monkeypatch):
    def find_hom(inst):
        return inst or None

    engine = types.ModuleType("fakepkg.engine")
    engine.find_hom = find_hom
    engine.subpower_membership = lambda inst: engine.find_hom(inst) is not None
    decide = types.ModuleType("fakepkg.decide")
    decide.find_hom = find_hom
    for name, mod in (("fakepkg", types.ModuleType("fakepkg")),
                      ("fakepkg.engine", engine), ("fakepkg.decide", decide)):
        monkeypatch.setitem(sys.modules, name, mod)
    rec = tracer.Recorder()
    rec.install("fakepkg")
    assert "engine.generate_subpower" in rec.absent and "engine.find_hom" not in rec.absent
    engine.subpower_membership(1)
    engine.subpower_membership(0)
    decide.find_hom(2)
    metrics, absent = tracer.summarize([{"spans": rec.spans, "absent": rec.absent}])
    assert metrics["engine.find_hom.calls"][0] == 3
    assert metrics["engine.find_hom.sat_ratio"][0] == 2 / 3
    assert metrics["decide.cert_find_hom.calls"][0] == 1
    assert metrics["engine.subpower_membership.calls"][0] == 2
    assert metrics["engine.subpower_membership.member_ratio"][0] == 0.5
    assert metrics["engine.generate_subpower.calls"][0] == 0
    assert "engine.generate_subpower" in absent and "engine.find_hom" not in absent
    assert [name for name, _ in tracer.metric_names()] == list(metrics)
