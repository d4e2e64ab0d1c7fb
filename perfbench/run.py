"""Outside-in benchmark of the `absorb` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is
`src/absorb`, its CLI run with one fresh process per query, one query at a
time (a closed loop with one client).

Workloads (see BENCHMARK.json for why each exists):
  decide-holds   decide --certificate on instances where B absorbs
  verify-search  verify on pinned and mutated certificates, plus search

The seed draws, for each pass, one domain permutation per instance that
relabels it, without replacement across passes.  Pass k runs every query
under PYTHONHASHSEED=k+1, in every run: the hash order sets the order in
which the solver meets equal choices and moves a single search by up to
1.6x (aff3w essential), so a query's mean is taken over several hash
orders, the same ones in every run and on both commits of a comparison.
The query list is run round-robin in passes until --seconds is used up:
the first pass always completes, later ones stop at a query boundary.

With --trace 0 every query runs through timed.py, which times the import
of `absorb.cli` and `main(argv)` in the query's own process, after timing a
small fixed reference search that does not depend on the program.  A
shared 2-vCPU host runs a process at a speed that swings by up to 2x within
a second and by a third from one minute to the next, so unscaled times of
two runs can differ by more than the bounds.  Every time below is divided
by the run's host speed: the mean of all reference samples of the run
(several hundred) over REFERENCE_NOMINAL_S.  The end-to-end metrics:

  wall_s       the list run once: the sum of each query's mean time
  query_p50_s  median over queries of each query's mean time
  query_max_s  largest of those per-query means
  setup_s      median in-process time (import and main) of `absorb bounds
               --theta 2 --size 2` in a fresh process, sampled at even
               intervals between queries
  peak_rss_mb  largest max RSS of any query process

With --trace 1 every query runs untraced and traced (tracer.py) back to
back, under the same hash seed, in alternating order.  The per-layer
metrics come from the first pass's traced queries, one per query; the
tracing overhead is the sum over queries of the traced median minus the
untraced median, and is printed as unresolved while it is smaller than the
spread of the untraced samples.  Outputs are checked against pinned
verdicts, every certificate `decide` writes is re-checked with `verify`
right after it (untimed), and term tables are checked with an independent
brute-force checker (termcheck.py).  Wrong verdicts, rejected certificates
and the error rate are printed and make `correct` false or count in
`failed`.  The last line of stdout is one JSON object; a run record with
the machine, the load and one row per query is written under
perfbench/out/records/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import runner  # noqa: E402
import termcheck  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_MIN_SAMPLES = 9
# Seconds timed.py's reference search takes on a 2-vCPU Intel Xeon VM in its
# usual phase; query times are reported at that host speed.
REFERENCE_NOMINAL_S = 0.0065
SETUP_ARGV = ["bounds", "--theta", "2", "--size", "2"]
# The script each non-plain query mode runs in place of `python3 -m absorb.cli`.
ENTRY_POINTS = {"traced": "tracer.py", "timed": "timed.py"}
QUERY_DEADLINE_S = 100.0
RUN_DEADLINE_S = 165.0


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _loadavg():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


class Run:
    """State of one benchmark run: where files go and the hard deadline."""

    def __init__(self, workload, workdir):
        self.workload = workload
        self.workdir = workdir
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else src + os.pathsep + old
        self.rows = []
        self.references = []
        self.counter = 0
        self.spawner = None

    def timeout(self):
        left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        return min(QUERY_DEADLINE_S, left)

    def cli(self, args, hash_seed, mode="plain"):
        """Run the CLI once under PYTHONHASHSEED=hash_seed; returns (Outcome,
        document or None).  mode "plain" runs `python3 -m absorb.cli`;
        "traced" runs tracer.py and returns its spans document; "timed" runs
        timed.py and returns its times, or None if it wrote none."""
        self.counter += 1
        tag = "q%04d" % self.counter
        doc_path = os.path.join(self.workdir, tag + "." + mode + ".json")
        if mode == "plain":
            argv = [sys.executable, "-m", "absorb.cli"] + args
        else:
            argv = [sys.executable, os.path.join(HERE, ENTRY_POINTS[mode]), doc_path, "--"] + args
        outcome = runner.run_query(self.spawner, argv, self.workdir, self.timeout(), tag,
                                   {"PYTHONHASHSEED": str(hash_seed)})
        doc = None
        if mode != "plain":
            try:
                doc = workloads.load_json(doc_path)
            except (OSError, ValueError):
                doc = {"spans": [], "absent": []} if mode == "traced" else None
        if mode == "timed" and doc:
            self.references.extend(doc["reference_s"])
        return outcome, doc

    def host_speed(self):
        """How slow the host ran during this run: the mean of every reference
        sample the timed processes took, over REFERENCE_NOMINAL_S."""
        return statistics.mean(self.references) / REFERENCE_NOMINAL_S


class Tally:
    """Correctness counts over every query the run made."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_failures = 0
        self.wrong = 0
        self.cert_rejects = 0
        self.notes = []

    def note(self, text):
        if len(self.notes) < 20:
            self.notes.append(text)


def judge(q, outcome, pins, tally):
    """Count one timed query's outcome; returns True when its answer is right."""
    tally.attempted += 1
    if outcome.status != "ok":
        # Only the documented crash (exit 1, empty stdout) is the known
        # defect; any other failure of the same query counts as a failure.
        if q.known_defect and outcome.status == "crash":
            tally.known_failures += 1
        else:
            tally.failed += 1
            tally.note("%s failed: %s (exit %d) %s" % (q.qid, outcome.status, outcome.code,
                                                       outcome.stderr_tail))
        return False
    p = outcome.payload
    reason = None
    if p.get("holds") is not q.expect_holds:
        reason = "verdict %s, pinned %s" % (p.get("holds"), q.expect_holds)
    elif q.defect is not None and q.defect not in str(p.get("defect", "")):
        reason = "defect %r does not name %r" % (p.get("defect"), q.defect)
    elif q.term is not None and p["holds"]:
        a, b, arity = q.term
        table = p.get("table") or {}
        ok, why = termcheck.check_term(a, b, arity, table.get("values") or [])
        if table.get("arity") != arity:
            ok, why = False, "table arity %r" % table.get("arity")
        if not ok:
            reason = "term table rejected: %s" % why
        elif pins["decide"].get(q.instance) is False:
            reason = "term found but decide is pinned as fails"
    if reason is not None:
        tally.wrong += 1
        tally.note("%s wrong: %s" % (q.qid, reason))
        return False
    return True


def program_seconds(outcome, times):
    """A timed query's in-process seconds, from the import of `absorb.cli`
    to the end of main.  A process that wrote no times (killed at the
    deadline) counts its wall time."""
    if not times or "program_s" not in times:
        return outcome.seconds
    return times["program_s"]


class Samples:
    """Per-query timings of a run, in query-list order."""

    def __init__(self):
        self.untraced = {}
        self.traced = {}
        self.rss_kb = 0
        self.docs = []

    def add(self, q, outcome, traced, seconds=None):
        """Record `seconds`, by default the query's wall time."""
        seconds = outcome.seconds if seconds is None else seconds
        (self.traced if traced else self.untraced).setdefault(q.qid, []).append(seconds)
        if not traced:
            self.rss_kb = max(self.rss_kb, outcome.rss_kb)

    def expected(self, q):
        """Seconds one more round of `q` should take, from its samples so far."""
        return sum(statistics.median(d[q.qid]) for d in (self.untraced, self.traced) if q.qid in d)


def run_query(run, q, pass_no, pins, tally, samples, mode):
    """Run, judge and record one query; check the certificate it wrote."""
    outcome, doc = run.cli(q.argv, pass_no + 1, mode)
    right = judge(q, outcome, pins, tally)
    traced = mode == "traced"
    seconds = program_seconds(outcome, doc) if mode == "timed" else outcome.seconds
    samples.add(q, outcome, traced, seconds)
    if traced and pass_no == 0:
        samples.docs.append(doc)
    run.rows.append({
        "workload": run.workload, "pass": pass_no, "mode": mode, "query": q.qid,
        "instance": q.instance, "permutation": q.perm, "exit": outcome.code,
        "wall_s": outcome.seconds, "seconds": seconds, "times": doc if mode == "timed" else None,
        "max_rss_kb": outcome.rss_kb, "status": outcome.status, "correct": right,
    })
    if right and q.cert_out is not None and outcome.payload["holds"]:
        check_certificate(run, q, pass_no, tally)


def check_certificate(run, q, pass_no, tally):
    """Untimed: the certificate a holds verdict wrote must pass `verify`."""
    cert = os.path.join(run.workdir, q.cert_out)
    if not os.path.exists(cert):
        tally.cert_rejects += 1
        tally.note("%s held but wrote no certificate" % q.qid)
        return
    path, b = q.verify_with
    args = ["verify", "-s", path, "-b", json.dumps({"elements": b}), "--certificate", q.cert_out]
    outcome, _ = run.cli(args, pass_no + 1)
    os.remove(cert)
    tally.attempted += 1
    if outcome.status != "ok":
        tally.failed += 1
        tally.note("verify of %s certificate failed: %s" % (q.instance, outcome.status))
    elif not outcome.payload["holds"]:
        tally.cert_rejects += 1
        tally.note("certificate of %s rejected: %s" % (q.instance, outcome.payload.get("defect")))


def setup_sample(run, tally, times):
    """Time one fresh process running `absorb bounds` into `times`."""
    outcome, doc = run.cli(SETUP_ARGV, len(times) + 1, "timed")
    tally.attempted += 1
    if outcome.status != "ok":
        tally.failed += 1
        tally.note("setup query failed: %s" % outcome.status)
    elif outcome.payload.get("kappa") != 257:
        tally.wrong += 1
        tally.note("bounds answered kappa=%r, expected 257" % outcome.payload.get("kappa"))
    times.append(program_seconds(outcome, doc))


def end_to_end(samples, setup_s, speed=1.0):
    """Metrics over the per-query means, every time divided by `speed`.

    Means, not medians: a long query gets three or four samples in a run,
    and on a shared host their mean moves less from run to run than their
    median does.
    """
    per_query = [statistics.mean(v) / speed for v in samples.untraced.values()]
    return {
        "wall_s": (sum(per_query), "s"),
        "query_p50_s": (statistics.median(per_query), "s"),
        "query_max_s": (max(per_query), "s"),
        "setup_s": (setup_s / speed, "s"),
        "peak_rss_mb": (samples.rss_kb / 1024.0, "MB"),
    }


def trace_overhead(samples):
    """(traced wall, untraced wall, overhead, untraced spread or None).

    The walls sum the per-query medians; the spread sums each query's
    range of untraced samples and is None while some query has only one.
    """
    untraced = sum(statistics.median(v) for v in samples.untraced.values())
    traced = sum(statistics.median(v) for v in samples.traced.values())
    spread = None
    if all(len(v) > 1 for v in samples.untraced.values()):
        spread = sum(max(v) - min(v) for v in samples.untraced.values())
    return traced, untraced, traced - untraced, spread


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(args, run, pins, tally):
    """The timed queries, round-robin over passes; returns (Samples, setup_s).

    A later pass stops at the first query expected to end more than half of
    its own time after --seconds.  Set-up is sampled at even intervals
    between queries, so its median spans the run, and topped up at the end.
    """
    samples = Samples()
    setup_times = []
    interval = args.seconds / SETUP_MIN_SAMPLES
    begin = time.perf_counter()
    last_setup = begin - interval

    def run_pass(pass_no):
        """Run one pass; False when it stopped early."""
        nonlocal last_setup
        for q in workloads.build_queries(args.workload, args.seed, run.workdir, pass_no):
            if pass_no > 0:
                expected = samples.expected(q)
                if (time.perf_counter() - begin + expected / 2 > args.seconds
                        or run.timeout() < 2 * expected):
                    return False
            if not args.trace and time.perf_counter() - last_setup >= interval:
                last_setup = time.perf_counter()
                setup_sample(run, tally, setup_times)
            # Traced runs pair each query with an untraced one, in alternating order.
            modes = (("plain", "traced"), ("traced", "plain"))[pass_no % 2] if args.trace else ("timed",)
            for mode in modes:
                run_query(run, q, pass_no, pins, tally, samples, mode)
        return True

    pass_no = 0
    while run_pass(pass_no):
        pass_no += 1
    if args.trace:
        return samples, None
    while len(setup_times) < SETUP_MIN_SAMPLES:
        setup_sample(run, tally, setup_times)
    return samples, statistics.median(setup_times)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "absorb", "cli.py")):
        print("perfbench: no src/absorb/cli.py under %s; run from a source checkout" % ROOT,
              file=sys.stderr)
        return 2
    # Byte-compile once, as an installed package would be, so no query pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src", "absorb")],
                   check=True, stdout=subprocess.DEVNULL)

    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, "run-%s-%d-%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    run = Run(args.workload, workdir)
    load_start = _loadavg()
    pins = workloads.load_pins()
    tally = Tally()
    with runner.Spawner(run.env) as run.spawner:
        samples, setup_s = measure(args, run, pins, tally)
    shutil.rmtree(workdir, ignore_errors=True)
    passes = 1 + max(row["pass"] for row in run.rows)

    resolved = speed = raw = None
    if args.trace:
        metrics, absent = tracer.summarize(samples.docs)
        traced, untraced, overhead, spread = trace_overhead(samples)
        metrics["trace.wall_s"] = (traced, "s")
        metrics["trace.untraced_wall_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (overhead, "s")
        resolved = spread is not None and abs(overhead) > spread
    else:
        speed = run.host_speed()
        metrics, absent, spread = end_to_end(samples, setup_s, speed), [], None
        raw = {k: v for k, (v, _) in end_to_end(samples, setup_s).items()}

    attempted_runs = tally.attempted
    error_rate = (tally.failed + tally.known_failures) / attempted_runs
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "cpu": _cpu_model(), "nproc": os.cpu_count(),
        "loadavg_start": load_start, "loadavg_end": _loadavg(), "passes": passes,
        "elapsed_s": time.perf_counter() - run.started,
        "samples": {qid: len(v) for qid, v in samples.untraced.items()},
        "wrong_verdicts": tally.wrong, "cert_rejects": tally.cert_rejects,
        "failed": tally.failed, "known_defect_failures": tally.known_failures,
        "attempted": attempted_runs, "error_rate": error_rate, "absent_layers": absent,
        "overhead_resolved": resolved, "untraced_spread_s": spread,
        "host_speed": speed, "reference_samples": len(run.references), "unscaled_metrics": raw,
        "notes": tally.notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "rows": run.rows,
    }
    rec_dir = os.path.join(out_dir, "records")
    os.makedirs(rec_dir, exist_ok=True)
    rec_path = os.path.join(rec_dir, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(rec_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    counts = sorted(record["samples"].values())
    print("workload %s seed %d: %d queries, %d pass(es), %d-%d samples per query; python %s; %s; "
          "nproc %s; load %s -> %s"
          % (args.workload, args.seed, len(counts), passes, counts[0], counts[-1], record["python"],
             record["cpu"], record["nproc"], load_start, record["loadavg_end"]))
    if not args.trace:
        print("  host speed %.4f: %d reference samples, mean %.5f s, nominal %.5f s"
              % (speed, len(run.references), speed * REFERENCE_NOMINAL_S, REFERENCE_NOMINAL_S))
        for name, (value, unit) in metrics.items():
            print("  %-14s %12.4f %-5s (unscaled %.4f)" % (name, value, unit, raw[name]))
    print("  %-14s %12d count" % ("wrong_verdicts", tally.wrong))
    print("  %-14s %12d count" % ("cert_rejects", tally.cert_rejects))
    print("  %-14s %12.4f ratio  (%d failed + %d known-defect failures of %d attempted)"
          % ("error_rate", error_rate, tally.failed, tally.known_failures, attempted_runs))
    if args.trace:
        print("  %-34s %10s %12s %12s" % ("layer", "calls", "s", "self_s"))
        for layer, _, _, _ in tracer.LAYERS:
            print("  %-34s %10d %12.4f %12.4f%s" % (
                layer, metrics[layer + ".calls"][0], metrics[layer + ".s"][0],
                metrics[layer + ".self_s"][0], "  (absent)" if layer in absent else ""))
        for name in ("engine.find_hom.sat_ratio", "engine.subpower_membership.member_ratio",
                     "codec.cert_bytes", "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"):
            value, unit = metrics[name]
            print("  %-34s %12.4f %s" % (name, value, unit))
        if not resolved:
            print("  trace.overhead_s is unresolved: %s" % (
                "a query has one untraced sample" if spread is None
                else "below the untraced spread of %.4f s" % spread))
    for note in tally.notes:
        print("  note: %s" % note)
    print("  record: %s" % os.path.relpath(rec_path, ROOT))
    result = {
        "correct": tally.wrong == 0 and tally.cert_rejects == 0,
        "attempted": attempted_runs,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
