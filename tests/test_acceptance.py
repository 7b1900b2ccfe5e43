"""Acceptance suite: one test per criterion, printing a verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances and time budgets are pinned here, not configurable.
"""

import statistics
import time
from math import comb

import pytest

from ranklab import estimator as es
from ranklab import hybrid as hy
from ranklab import instances as inst
from ranklab import matlin as ml
from ranklab import modelings as md
from ranklab import solver as sv


def _verdict(num, ok, msg):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {msg}"
    print(line)
    assert ok, line


def test_criterion_01_published_bilinear_attack_costs():
    """Eliminated-bilinear attack column: 202/223/366 at the stated (b, a)."""
    t0 = time.perf_counter()
    targets = [("new2rollo-i-128", 202, (2, 13), "message"),
               ("new2rollo-i-192", 223, (1, 14), "key"),
               ("new2rollo-i-256", 366, (1, 27), "key")]
    results = []
    for name, bits, (b, a), variant in targets:
        row = {e.attack: e for e in es.best_attack(es.PRESETS[name])}
        e = row["smplus"]
        results.append((name, round(e.bits, 2),
                        abs(e.bits - bits) <= 2
                        and (e.detail["b"], e.detail["a"]) == (b, a)
                        and e.detail["variant"] == variant))
    elapsed = time.perf_counter() - t0
    _verdict(1, all(ok for *_, ok in results) and elapsed < 5,
             f"{results} in {elapsed:.3f}s (tolerance +-2 bits)")


def test_criterion_02_published_combinatorial_costs():
    """Combinatorial column: 212/282*/375* and the -spe rows, +-2 bits."""
    t0 = time.perf_counter()
    targets = [("new2rollo-i-128", 212), ("new2rollo-i-192", 282),
               ("new2rollo-i-256", 375), ("rollo-i-128-spe", 196),
               ("rollo-i-192-spe", 251), ("rollo-i-256-spe", 353)]
    results = []
    for name, bits in targets:
        row = {e.attack: e for e in es.best_attack(es.PRESETS[name])}
        results.append((name, round(row["comb"].bits, 2),
                        abs(row["comb"].bits - bits) <= 2))
    elapsed = time.perf_counter() - t0
    _verdict(2, all(ok for *_, ok in results) and elapsed < 5,
             f"{results} in {elapsed:.3f}s (tolerance +-2 bits)")


def test_criterion_03_published_kernel_costs():
    """Kernel-guessing column: 166/238/311 at a = 9/9/12, +-1 bit."""
    t0 = time.perf_counter()
    targets = [("minrank-sig-128", 166, 9), ("minrank-sig-192", 238, 9),
               ("minrank-sig-256", 311, 12)]
    results = []
    for name, bits, a in targets:
        row = {e.attack: e for e in es.best_attack(es.PRESETS[name])}
        e = row["kernel"]
        results.append((name, round(e.bits, 2),
                        abs(e.bits - bits) <= 1 and e.detail["a"] == a))
    elapsed = time.perf_counter() - t0
    _verdict(3, all(ok for *_, ok in results) and elapsed < 5,
             f"{results} in {elapsed:.3f}s (tolerance +-1 bit)")


def test_criterion_04_published_linear_minor_costs():
    """Linear minor-system column: 205/226*/371* at (18,0)/(17,0)/(30,1), +-3."""
    t0 = time.perf_counter()
    targets = [("new2rollo-i-128", 205, (18, 0)),
               ("new2rollo-i-192", 226, (17, 0)),
               ("new2rollo-i-256", 371, (30, 1))]
    results = []
    for name, bits, (a, p) in targets:
        row = {e.attack: e for e in es.best_attack(es.PRESETS[name])}
        e = row["mm"]
        results.append((name, round(e.bits, 2),
                        abs(e.bits - bits) <= 3
                        and (e.detail["a"], e.detail["p"]) == (a, p)))
    elapsed = time.perf_counter() - t0
    _verdict(4, all(ok for *_, ok in results) and elapsed < 5,
             f"{results} in {elapsed:.3f}s (tolerance +-3 bits)")


def test_criterion_05_rank_law_of_bilinear_span():
    """Proved dimension law: top-block rank == formula at b = 1, 2, 3, 100%."""
    t0 = time.perf_counter()
    bad = []
    for params in [(2, 7, 8, 4, 2), (2, 3, 5, 2, 1)]:
        q, m, n, k, r = params
        for seed in range(1, 21):
            rd = inst.gen_rd(q, m, n, k, r, seed=seed)
            can = inst.canonicalize(rd)
            sm, part = md.build_sm_fqm(can)
            q2 = md.subsystem(sm, part.two_plus)
            for b in (1, 2, 3):
                rank = ml.echelonize(can.field, md.top_block(md.macaulay(q2, b))).rank
                if rank != es.nb_fqm(n, k, r, b):
                    bad.append((params, seed, b, rank))
    elapsed = time.perf_counter() - t0
    _verdict(5, not bad and elapsed < 120,
             f"40 instances x b=1..3, {len(bad)} mismatches in {elapsed:.1f}s")


def test_criterion_06_conjectured_rank_after_elimination():
    """Conjectured rank law at b = 1, 2, 3 on 20 generic-envelope instances."""
    t0 = time.perf_counter()
    q, m, n, k, r = 2, 7, 8, 4, 2
    trials, passes = 0, 0
    for seed in range(1, 21):
        rd = sv.gen_rd_generic(q, m, n, k, r, seed=seed)
        can = inst.canonicalize(rd)
        mmq = md.build_mm_fq(md.build_mm_fqm(can))
        sm, part = md.build_sm_fqm(can)
        plus = md.reduce_sm_plus(sm, part, md.eliminate_minors(mmq))
        ok = True
        for b in (1, 2, 3):
            mac = md.macaulay(plus, b)
            rank = ml.echelonize(can.field, mac.arr).rank
            expect = min(es.nb_fqm(n, k, r, b) - es.nsyz(m, n, k, r, b),
                         mac.arr.shape[1] - 1)
            ok = ok and rank == expect
        trials += 1
        passes += ok
    elapsed = time.perf_counter() - t0
    _verdict(6, passes >= 0.95 * trials and elapsed < 300,
             f"{passes}/{trials} instances match at b=1..3 in {elapsed:.1f}s "
             f"(threshold 95%)")


def test_criterion_07_unfolded_linear_system_rank():
    """Unfolded minor-system rank hits the generic bound on 95% of 50 x 5.

    Instances are drawn inside the unique-decoding envelope where extra
    decodings are likely (the genericity statement presumes uniqueness;
    each extra decoding provably caps the rank below the bound).
    """
    t0 = time.perf_counter()
    lines = []
    ok_all = True
    for params in [(2, 3, 5, 2, 1), (2, 7, 8, 4, 2), (2, 7, 10, 3, 2),
                   (2, 7, 12, 5, 2), (4, 5, 8, 3, 2)]:
        q, m, n, k, r = params
        hits = 0
        for seed in range(1, 51):
            rd = sv.gen_rd_unique(q, m, n, k, r, seed, threshold=0.1)
            can = inst.canonicalize(rd)
            mmq = md.build_mm_fq(md.build_mm_fqm(can))
            rank = ml.echelonize(mmq.field, mmq.coeffs).rank
            hits += rank == min(m * comb(n - k - 1, r), comb(n, r) - 1)
        lines.append(f"{params}: {hits}/50")
        ok_all = ok_all and hits >= 47.5
    elapsed = time.perf_counter() - t0
    _verdict(7, ok_all and elapsed < 60, f"{lines} in {elapsed:.1f}s")


def test_criterion_08_proposition_identities():
    """Exact identities: combination laws, leading terms, basis rank,
    reduced relations, unfolding equality; 100% on 10 seeds each."""
    from ranklab.labkit import experiments as ex

    t0 = time.perf_counter()
    reports = [
        ex.verify("q0-span", (2, 7, 8, 4, 2), trials=10, seed=1),
        ex.verify("q0-span", (2, 3, 5, 2, 1), trials=10, seed=1),
        ex.verify("q1-correspondence", (2, 7, 8, 4, 2), trials=10, seed=1),
        ex.verify("q1-correspondence", (2, 3, 5, 2, 1), trials=10, seed=1),
        ex.verify("lt-independence", (2, 7, 8, 4, 2), trials=10, seed=1),
        ex.verify("lt-independence", (4, 5, 8, 3, 2), trials=10, seed=1),
        ex.verify("unfold-sm", (2, 3, 5, 2, 1), trials=10, seed=1),
        ex.verify("unfold-sm", (4, 5, 8, 3, 2), trials=10, seed=1),
    ]
    # basis-row independence at b = 1, 2, 3
    basis_ok = True
    for seed in range(1, 11):
        rd = inst.gen_rd(2, 7, 8, 4, 2, seed=seed)
        can = inst.canonicalize(rd)
        sm, part = md.build_sm_fqm(can)
        for b in (1, 2, 3):
            bb = md.basis_bb(sm, part, b)
            expect = es.nb_fqm(8, 4, 2, b)
            basis_ok = basis_ok and bb.arr.shape[0] == expect \
                and ml.echelonize(can.field, bb.arr).rank == expect
    # reduced-relation part of the syzygy property (exact sub-check)
    relation_ok = True
    for seed in range(1, 11):
        ok, *_ = ex._check_syzygy_count((2, 7, 8, 4, 2), seed, bs=(1,))
        relation_ok = relation_ok and ok
    elapsed = time.perf_counter() - t0
    all_ok = all(r.verdict and r.passes == r.trials for r in reports) \
        and basis_ok and relation_ok
    summary = ", ".join(f"{r.property_name}{r.params}:{r.passes}/{r.trials}"
                        for r in reports)
    _verdict(8, all_ok and elapsed < 180,
             f"{summary}; basis rows independent: {basis_ok}; "
             f"reduced relations vanish: {relation_ok}; {elapsed:.1f}s")


def test_criterion_09_end_to_end_decoding():
    """50/50 decodes through each path at the stated parameters."""
    t0 = time.perf_counter()
    mm_hits = 0
    for seed in range(1, 51):
        rd = inst.gen_rd(2, 7, 10, 3, 2, seed=seed)
        sol = sv.decode_rd(rd)
        mm_hits += int((sol.error == rd.witness.error).all()
                       and " mm" in sol.transcript[-1])
    sm_hits = 0
    for seed in range(1, 51):
        rd = sv.gen_rd_generic(2, 7, 8, 4, 2, seed=seed)
        sol = sv.decode_rd(rd)
        sm_hits += int((sol.error == rd.witness.error).all()
                       and "smplus b=1" in sol.transcript[-1])
    elapsed = time.perf_counter() - t0
    _verdict(9, mm_hits == 50 and sm_hits == 50 and elapsed < 120,
             f"linear path {mm_hits}/50, eliminated-bilinear path at b=1 "
             f"{sm_hits}/50, in {elapsed:.1f}s")


def test_criterion_10_hybrid_drivers():
    """Deterministic driver within q^(ar) guesses, probabilistic median,
    and the MinRank analogue."""
    t0 = time.perf_counter()
    det_hits = 0
    for seed in range(1, 31):
        rd = inst.gen_rd(2, 7, 12, 5, 2, seed=seed)
        attempt = 0
        while not hy.assumption_holds_rd(rd):
            rd, _ = hy.rerandomize_rd(rd, 900 + seed * 17 + attempt)
            attempt += 1
        res = hy.hybrid_solve_rd(rd, a=1, seed=seed)
        det_hits += int((res.solution.error == rd.witness.error).all()
                        and res.guesses_tried <= 4 and res.rounds == 0)
    trials = []
    for seed in range(1, 51):
        rd = inst.gen_rd(2, 7, 12, 5, 2, seed=seed)
        res = hy.probabilistic_solve_rd(rd, a=1, seed=seed)
        assert (res.solution.error == rd.witness.error).all()
        trials.append(res.trials)
    median = statistics.median(trials)
    mr_hits = 0
    for seed in range(1, 31):
        mi = inst.gen_minrank(2, 6, 8, 14, 2, seed=seed)
        attempt = 0
        while not hy.assumption_holds_minrank(mi):
            mi, _ = hy.rerandomize_minrank(mi, 700 + seed * 13 + attempt)
            attempt += 1
        res = hy.hybrid_solve_minrank(mi, a=1, seed=seed)
        e = mi.low_rank_matrix(res.solution)
        mr_hits += int(ml.echelonize(mi.field, e).rank <= 2
                       and res.guesses_tried <= 4 and res.rounds == 0)
    elapsed = time.perf_counter() - t0
    _verdict(10, det_hits == 30 and median <= 16 and mr_hits == 30
             and elapsed < 300,
             f"deterministic {det_hits}/30 within 4 guesses, probabilistic "
             f"median {median} <= 16, minrank {mr_hits}/30, in {elapsed:.1f}s")


def test_criterion_11_cryptographic_scale_is_estimation_only():
    """Breaking published parameter sets is out of desk scale by design:
    arithmetic refuses such fields while the estimator prices them in
    milliseconds (criteria 1-4 and 5-10 substitute for actual breaks)."""
    with pytest.raises(ValueError):
        # the new2rollo-i-128 extension field is beyond table-based arithmetic
        from ranklab.galois import make_ext_field
        make_ext_field(2, 73)
    t0 = time.perf_counter()
    table = es.attack_table()
    elapsed = time.perf_counter() - t0
    cheapest = min(e.bits for rows in table.values() for e in rows)
    _verdict(11, elapsed < 10 and cheapest > 150,
             f"all presets estimated in {elapsed:.3f}s; cheapest published "
             f"attack still needs 2^{cheapest:.0f} operations")
