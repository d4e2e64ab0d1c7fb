"""Acceptance gate: one criterion per test, one pass/fail line per criterion.

The sweeps run over the full two-element corpus (every structure with one
relation of arity <= 3 plus singletons, every nonempty proper subuniverse B)
and cross-check the CSP-based decision procedures against the brute-force
enumeration oracles.  Budgets are asserted alongside correctness.
"""

import random
import time
from itertools import product

from absorb import (
    Certificate,
    CertEntry,
    CertStep,
    OperationTable,
    PPFormula,
    Quintuple,
    Relation,
    absorption_term_search,
    bounds,
    chain_from_absorption_term,
    decide_jonsson,
    digraph_closed_walk,
    digraph_meets_diagonal,
    essential_witness_search,
    evaluate_pp,
    fixpoint,
    generate_subpower,
    is_b_essential,
    is_jonsson_chain,
    oracle_chain_search,
    subset,
    tuple_rank,
    verify_np_certificate,
)
from absorb.comb import CombFormula, comb_analyze, comb_extract, surgery_step
from absorb.ppform import Atom, Registry, is_simplified
from bruteforce import generated_subpower_oracle
from conftest import record_line
from fixtures import B0, aff2, corpus2, neq2, ord2, triv1
from reference import generator_columns, reference_power_structure


def report(name, ok, detail=""):
    line = "[%s] %s%s" % ("PASS" if ok else "FAIL", name, " — " + detail if detail else "")
    print(line)
    record_line(line)
    assert ok, line


def holding_instances():
    out = []
    for e in corpus2().entries:
        d = decide_jonsson(e.structure, e.b)
        if d.holds:
            out.append((e, d))
    return out


def test_bound_values():
    t0 = time.time()
    ok = (
        bounds(2, 1).kappa == 5
        and bounds(2, 2).kappa == 257
        and bounds(3, 2).kappa == 131073
        and bounds(2, 4).lower_bound == 4
        and bounds(3, 3).lower_bound == 4
    )
    elapsed = time.time() - t0
    report("bound values (kappa 5/257/131073, lower bounds 4/4)", ok and elapsed < 1.0,
           "%.3fs" % elapsed)


def test_fixture_verdicts():
    t0 = time.time()
    d_ord = decide_jonsson(ord2(), B0)
    d_aff = decide_jonsson(aff2(), B0)
    d_one = decide_jonsson(triv1(), subset([0]))
    ok = d_ord.holds and d_one.holds
    ok = ok and not d_aff.holds and d_aff.failing == Quintuple(0, 1, 1, 0, 0)
    # brute-force closure oracle agreement on the fixtures
    for a in (ord2(), aff2()):
        ok = ok and (
            decide_jonsson(a, B0).holds == (oracle_chain_search(a, B0) is not None)
        )
    # the failing quintuple's subpower, re-derived by exhaustive enumeration
    q = Quintuple(0, 1, 1, 0, 0)
    sub = generate_subpower(aff2(), q.generators(), 3).tuples
    ok = ok and sub == generated_subpower_oracle(aff2(), q.generators())
    elapsed = time.time() - t0
    report("fixture verdicts vs brute-force oracle", ok and elapsed < 1.0,
           "%.3fs" % elapsed)


def test_oracle_equivalence_full_corpus():
    t0 = time.time()
    mismatches = []
    entries = corpus2().entries
    for e in entries:
        holds = decide_jonsson(e.structure, e.b).holds
        chain = oracle_chain_search(e.structure, e.b)
        if holds != (chain is not None):
            mismatches.append(e.label)
    elapsed = time.time() - t0
    report(
        "oracle equivalence over the full 2-element corpus",
        not mismatches and elapsed < 120.0,
        "%d instances, %.1fs, %d mismatches" % (len(entries), elapsed, len(mismatches)),
    )


def test_duality_and_downset():
    t0 = time.time()
    violations = []
    entries = corpus2().entries
    for e in entries:
        found = {}
        for n in (2, 3):
            term = absorption_term_search(e.structure, e.b, n)
            witness = essential_witness_search(e.structure, e.b, n)
            if (term is None) == (witness is None):
                violations.append((e.label, n, "both" if term else "neither"))
            found[n] = witness is not None
        if found[3] and not found[2]:
            violations.append((e.label, "downset"))
    elapsed = time.time() - t0
    report(
        "duality term-vs-essential at n=2,3 plus downset monotonicity",
        not violations and elapsed < 120.0,
        "%d instances, %.1fs, %d violations" % (len(entries), elapsed, len(violations)),
    )


def test_soundness_of_found_terms():
    t0 = time.time()
    checked = 0
    bad = []
    for e in corpus2().entries:
        for n in (2, 3):
            term = absorption_term_search(e.structure, e.b, n)
            if term is None:
                continue
            checked += 1
            chain = chain_from_absorption_term(term)
            ok, violation = is_jonsson_chain(e.structure, e.b, chain)
            if not ok or not decide_jonsson(e.structure, e.b).holds:
                bad.append((e.label, n, violation))
            break  # the n=3 chain is implied by the n=2 one
    elapsed = time.time() - t0
    report(
        "soundness: found terms yield valid chains and holding verdicts",
        not bad,
        "%d terms checked, %.1fs, %d failures" % (checked, elapsed, len(bad)),
    )


def _mutations(cert, b_elems, size, rng, count):
    """`count` single-field edits that each break a certificate invariant."""
    out = []
    entries = list(cert.entries)
    stepped = [i for i, e in enumerate(entries) if e.steps]
    while len(out) < count:
        kind = rng.choice(["drop", "dup", "truncate", "flip_u", "flip_v", "flip_b", "phi"])
        if kind == "drop":
            i = rng.randrange(len(entries))
            out.append(Certificate(tuple(entries[:i] + entries[i + 1:])))
        elif kind == "dup":
            i = rng.randrange(len(entries))
            out.append(Certificate(tuple(entries) + (entries[i],)))
        elif not stepped:
            continue
        else:
            i = rng.choice(stepped)
            e = entries[i]
            j = rng.randrange(len(e.steps))
            s = e.steps[j]
            if kind == "truncate":
                steps = e.steps[:-1]
            elif kind == "flip_u":
                steps = e.steps[:j] + (CertStep(s.b, (s.u + 1) % size, s.v, s.phi),) + e.steps[j + 1:]
            elif kind == "flip_v":
                steps = e.steps[:j] + (CertStep(s.b, s.u, (s.v + 1) % size, s.phi),) + e.steps[j + 1:]
            elif kind == "flip_b":
                steps = e.steps[:j] + (CertStep((s.b + 1) % size, s.u, s.v, s.phi),) + e.steps[j + 1:]
            else:  # phi: edit the table at a generator column so the image breaks
                gens = e.q.generators()
                col = tuple_rank([g[0] for g in gens], size)
                values = list(s.phi.values)
                values[col] = (values[col] + 1) % size
                steps = e.steps[:j] + (
                    CertStep(s.b, s.u, s.v, OperationTable(3, size, tuple(values))),
                ) + e.steps[j + 1:]
            out.append(Certificate(tuple(entries[:i] + [CertEntry(e.q, steps)] + entries[i + 1:])))
    return out


def test_np_certificates():
    t0 = time.time()
    holding = holding_instances()
    verify_times = []
    accept_failures = []
    for e, d in holding:
        v0 = time.time()
        ok, defect = verify_np_certificate(e.structure, e.b, d.certificate)
        verify_times.append(time.time() - v0)
        if not ok:
            accept_failures.append((e.label, defect))
    rng = random.Random(20260823)
    surviving = []
    for e, d in holding[:: max(1, len(holding) // 12)]:
        for mutant in _mutations(d.certificate, sorted(e.b.elements), e.structure.size, rng, 100):
            ok, _ = verify_np_certificate(e.structure, e.b, mutant)
            if ok:
                surviving.append(e.label)
    mean_ms = 1000.0 * sum(verify_times) / len(verify_times)
    elapsed = time.time() - t0
    report(
        "NP certificates: accepted when holding, mutations rejected, fast",
        not accept_failures and not surviving and mean_ms < 10.0,
        "%d certificates, mean verify %.2fms, %d surviving mutants, %.1fs"
        % (len(holding), mean_ms, len(surviving), elapsed),
    )


def _section_pool(a, b):
    bs = sorted(b.elements)
    o = [e for e in range(a.size) if e not in b] or bs
    gen_sets = (
        ((bs[0], 0, 0), (bs[0], 1, 1), (o[0], 0, 1)),
        ((bs[0], 0, 1), (bs[0], 1, 0), (o[0], 1, 1)),
        ((bs[0], 0, 0), (o[0], 0, 1), (o[0], 1, 0)),
    )
    # the subpowers of all three generator sets, off one fixpoint of power(A,3)
    base = fixpoint(reference_power_structure(a, 3), a)
    pool = {Relation(3, base.project(generator_columns(gens, a.size))) for gens in gen_sets}
    return sorted(pool, key=lambda r: sorted(r.tuples))


def test_lemma_suites():
    t0 = time.time()
    walk_violations = []
    loop_violations = []
    contradictions = []
    combs = 0
    for e, _ in holding_instances():
        pool = _section_pool(e.structure, e.b)
        candidates = [
            CombFormula(lam, combo)
            for lam in (2, 3)
            for combo in product(pool, repeat=lam)
        ] + [CombFormula(6, (s,) * 6) for s in pool]
        for comb in candidates:
            combs += 1
            rep = comb_analyze(comb, e.structure, e.b)
            if rep.contradiction_detected:
                contradictions.append(e.label)
            if rep.repeated is not None:
                if (
                    rep.q_meets_gxh
                    and rep.g_has_predecessors
                    and rep.h_has_successors
                    and rep.walk is None
                ):
                    walk_violations.append(e.label)
                diag_in_q = all((c, c) in rep.q.edges for c in range(e.structure.size))
                if (
                    diag_in_q
                    and digraph_closed_walk(rep.p) is not None
                    and not digraph_meets_diagonal(rep.p)
                ):
                    loop_violations.append(e.label)
    elapsed = time.time() - t0
    ok = not walk_violations and not loop_violations and not contradictions
    report(
        "lemma suites: walk, loop, and no-contradiction over generated combs",
        ok and elapsed < 180.0,
        "%d combs, %.1fs, %d/%d/%d violations"
        % (combs, elapsed, len(walk_violations), len(loop_violations), len(contradictions)),
    )


def _essential_fixtures(limit=25):
    """Simplified tree formulas defining B-essential relations, from the corpus."""
    fixtures = []
    neq_phi = PPFormula(
        ("x1", "x2"),
        (Atom("neq", ("x1", "y")), Atom("neq", ("y", "w")), Atom("neq", ("w", "x2"))),
    )
    fixtures.append((neq2(), B0, neq_phi, "y", 0))
    for e, _ in holding_instances():
        if len(fixtures) >= limit:
            break
        gens = essential_witness_search(e.structure, e.b, 2)
        if gens is None:
            continue
        reg = Registry(e.structure)
        ename = reg.ensure(generate_subpower(e.structure, gens, 2), "essential witness")
        dname = reg.ensure(
            generate_subpower(e.structure, ((0, 0), (1, 1)), 2), "diagonal"
        )
        phi = PPFormula(("x1", "x2"), (Atom(ename, ("x1", "y")), Atom(dname, ("y", "x2"))))
        struct = reg.structure()
        rel = evaluate_pp(phi, struct)
        if not is_b_essential(struct, rel, e.b) or not is_simplified(phi, struct):
            continue
        fixtures.append((struct, e.b, phi, "y", 0))
    return fixtures


def test_surgery_and_comb():
    t0 = time.time()
    surgery_failures = []
    comb_failures = []
    count = 0
    for a, b, phi, y, atom_index in _essential_fixtures():
        count += 1
        if not decide_jonsson(a, b).holds:
            continue
        try:
            result = surgery_step(phi, a, b, y, atom_index)
            out = evaluate_pp(result.formula, result.structure)
            if not is_b_essential(result.structure, out, b):
                surgery_failures.append("not essential")
        except AssertionError as exc:
            surgery_failures.append(str(exc))
        try:
            ce = comb_extract(phi, a, b, phi.free[0])
            if ce.kappa > (2 * ce.theta - 2) ** ce.comb.lam // 2 + 1:
                comb_failures.append("bound")
        except AssertionError as exc:
            comb_failures.append(str(exc))
    elapsed = time.time() - t0
    ok = not surgery_failures and not comb_failures
    report(
        "surgery preserves essentiality; comb extraction bound and equality",
        ok and elapsed < 60.0,
        "%d fixtures, %.1fs" % (count, elapsed),
    )
