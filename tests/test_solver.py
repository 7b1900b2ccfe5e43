"""Linearization solving, the readout of x, end-to-end decoding."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ranklab import hybrid as hy
from ranklab import instances as inst
from ranklab import matlin as ml
from ranklab import modelings as md
from ranklab import solver as sv


def mm_system(params, seed):
    rd = inst.gen_rd(*params, seed=seed)
    can = inst.canonicalize(rd)
    return rd, can, md.build_mm_fq(md.build_mm_fqm(can))


def test_solve_mm_linear_recovers_planted_minors():
    rd, can, mmq = mm_system((2, 7, 10, 3, 2), 1)
    vec = sv.solve_mm_linear(md.eliminate_minors(mmq))
    assert isinstance(vec, np.ndarray)
    planted = ml.maximal_minors(can.field.base, can.witness.coeffs, 2)
    top = int(np.nonzero(planted)[0][-1])
    normalized = can.field.base.mul_arr(planted,
                                        can.field.base.inv(int(planted[top])))
    assert (vec == normalized).all()


def test_solve_mm_linear_wrong_weight_inconsistent():
    # asking for weight 1 on a weight-2 instance: full rank, no solution
    rd = inst.gen_rd(2, 7, 10, 3, 2, seed=2)
    sub = inst.RdInstance(rd.field, rd.n, rd.k, 1, rd.gen, rd.received, None)
    can = inst.canonicalize(sub)
    mmq = md.build_mm_fq(md.build_mm_fqm(can))
    assert isinstance(sv.solve_mm_linear(md.eliminate_minors(mmq)), sv.Inconsistent)


def mm_linear_reference(mmq):
    """Reference readout without the elimination: the kernel of the unfolded
    matrix itself, normalized at its largest nonzero entry when it is a line."""
    fld = mmq.field
    res = ml.echelonize(fld, mmq.coeffs)
    nt = mmq.coeffs.shape[1]
    if res.rank == nt:
        return sv.Inconsistent()
    if res.rank < nt - 1:
        return sv.Indeterminate(nt - res.rank)
    vec = ml.kernel_from_rref(fld, res.rref, res.pivots)[0]
    return fld.mul_arr(vec, fld.inv(int(vec[np.nonzero(vec)[0][-1]])))


PINNED, LOOSE, NONE = "ndarray", "Indeterminate", "Inconsistent"


@pytest.mark.parametrize("params,kinds", [pytest.param(p, kinds, id=str(p)) for p, kinds in [
    ((2, 7, 10, 3, 2), {PINNED, NONE}), ((2, 7, 8, 4, 2), {LOOSE, NONE}),
    ((3, 5, 8, 3, 2), {PINNED, NONE}), ((4, 5, 8, 3, 2), {PINNED, NONE}),
    ((5, 3, 6, 2, 1), {PINNED}), ((9, 3, 6, 2, 1), {PINNED}),
    ((3, 4, 7, 3, 2), {LOOSE, NONE})]])
def test_solve_mm_linear_matches_kernel_reference(params, kinds):
    # every target weight r' <= r, so inconsistent and underdetermined
    # systems occur next to the pinned ones
    q, m, n, k, r = params
    seen = set()
    for seed in (1, 2, 3):
        rd = inst.gen_rd(*params, seed=seed)
        for r_prime in range(1, r + 1):
            sub = inst.RdInstance(rd.field, n, k, r_prime, rd.gen, rd.received, None)
            for perm_seed in (None, 7919):
                mmq = md.build_mm_fq(md.build_mm_fqm(inst.canonicalize(sub, perm_seed)))
                got = sv.solve_mm_linear(md.eliminate_minors(mmq))
                want = mm_linear_reference(mmq)
                seen.add(type(want).__name__)
                if isinstance(want, np.ndarray):
                    assert isinstance(got, np.ndarray) and (got == want).all()
                else:
                    assert got == want
    assert seen == kinds


def kernel_of(mac):
    """ker ``mac``, read as carried_kernels reads it at b = 1."""
    res = ml.echelonize(mac.field, mac.arr)
    return sv.Kernel(mac.field, mac.subsets, mac.col_labels,
                     ml.kernel_from_rref(mac.field, res.rref, res.pivots))


def test_solve_linearized_zero_matrix_indeterminate():
    fld = inst.gen_rd(2, 3, 5, 2, 1, seed=1).field
    cols = tuple((tuple(), t) for t in range(4))
    mac = md.MacaulayMatrix(fld, np.zeros((3, 4), dtype=np.int64), ("r",) * 3,
                            cols, tuple(ml.all_subsets(5, 1))[:4], 1)
    out = sv.solve_linearized(kernel_of(mac))
    assert isinstance(out, sv.Indeterminate) and out.kernel_dim == 4


def test_solve_linearized_row_permutation_invariant():
    rd = sv.gen_rd_generic(2, 7, 8, 4, 2, seed=3)
    can = inst.canonicalize(rd)
    mmq = md.build_mm_fq(md.build_mm_fqm(can))
    sm, part = md.build_sm_fqm(can)
    plus = md.reduce_sm_plus(sm, part, md.eliminate_minors(mmq))
    mac = md.macaulay(plus, 1)
    out1 = sv.solve_linearized(kernel_of(mac))
    perm = np.random.default_rng(0).permutation(mac.arr.shape[0])
    mac2 = md.MacaulayMatrix(mac.field, mac.arr[perm],
                             tuple(mac.row_labels[i] for i in perm),
                             mac.col_labels, mac.subsets, 1)
    out2 = sv.solve_linearized(kernel_of(mac2))
    assert isinstance(out1, np.ndarray) and isinstance(out2, np.ndarray)
    assert (out1 == out2).all()


def stacked_reference(sys, b):
    """The exact-degree matrices of sys for multiplier degrees 0..b-1,
    stacked on the union of their column labels, and those labels."""
    macs = [md.macaulay(sys, d) for d in range(1, b + 1)]
    cols = sorted({lab for mac in macs for lab in mac.col_labels},
                  key=lambda lab: md.monomial_key(*lab))
    where = {lab: i for i, lab in enumerate(cols)}
    blocks = []
    for mac in macs:
        block = np.zeros((mac.arr.shape[0], len(cols)), dtype=np.int64)
        block[:, [where[lab] for lab in mac.col_labels]] = mac.arr
        blocks.append(block)
    nrows = sum(block.shape[0] for block in blocks)
    return np.concatenate(blocks).reshape(nrows, len(cols)), cols


def check_carried_kernels(sys, b_max):
    """Each carried kernel is ker of the stacked reference: its rows lie in
    that kernel and are independent, and its dimension is ncols - rank.  A
    line gives the reference kernel's normalized minors; a zero kernel frees
    exactly the minors with no degree-(0,1) column."""
    fld = sys.field
    for b, ker in enumerate(sv.carried_kernels(sys, b_max), start=1):
        arr, cols = stacked_reference(sys, b)
        assert sorted(ker.cols) == sorted(cols)
        where = {lab: i for i, lab in enumerate(cols)}
        basis = np.zeros((ker.basis.shape[0], len(cols)), dtype=np.int64)
        basis[:, [where[lab] for lab in ker.cols]] = ker.basis
        ref = ml.echelonize(fld, arr)
        dim = len(cols) - ref.rank
        assert basis.shape[0] == dim
        assert not ml.matmul(fld, arr, basis.T).any()
        assert ml.echelonize(fld, basis).rank == dim
        got = sv.solve_linearized(ker)
        if dim == 0:
            free = [t for t in range(len(sys.subsets)) if ((), t) not in where]
            if len(free) == 1:
                assert got.tolist() == [int(t == free[0]) for t in range(len(sys.subsets))]
            else:
                assert got == (sv.Indeterminate(len(free)) if free else sv.Inconsistent())
            continue
        if dim > 1:
            assert got == sv.Indeterminate(dim)
            continue
        vec = ml.kernel_from_rref(fld, ref.rref, ref.pivots)[0]
        lin = [i for i, (alpha, _t) in enumerate(cols) if not alpha]
        want = np.zeros(len(sys.subsets), dtype=np.int64)
        want[[cols[i][1] for i in lin]] = vec[lin]
        nz = np.flatnonzero(want)
        if nz.size == 0:
            assert got == sv.Indeterminate(1)
        else:
            assert (got == fld.mul_arr(want, fld.inv(int(want[nz[-1]])))).all()


LIN_MAX_M = {2: 6, 3: 4, 4: 3, 5: 3, 9: 2}


@st.composite
def linearization_cases(draw):
    q = draw(st.sampled_from(sorted(LIN_MAX_M)))
    m = draw(st.integers(2, LIN_MAX_M[q]))
    n = draw(st.integers(3, 7))
    k = draw(st.integers(1, min(3, n - 1)))
    r = draw(st.integers(1, min(3, m, n - k)))
    return (q, m, n, k, r), draw(st.integers(0, 50)), draw(st.integers(1, 3))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(linearization_cases())
@example(((2, 9, 10, 4, 3), 7, 3))      # kernel dimension 2 at b = 2 and 3
@example(((2, 7, 8, 4, 2), 2, 2))
def test_carried_kernel_matches_stacked_reference(case):
    params, seed, b_max = case
    can = inst.canonicalize(inst.gen_rd(*params, seed=seed))
    elim = md.eliminate_minors(md.build_mm_fq(md.build_mm_fqm(can)))
    sm, part = md.build_sm_fqm(can)
    plus = md.reduce_sm_plus(sm, part, elim)
    assume(plus.npolys > 0)
    check_carried_kernels(plus, b_max)


def hand_system(fld, bil, aff):
    """A system with the given (P, nx, nt) and (P, nt) coefficients."""
    P, nx, nt = bil.shape
    subsets = tuple((t,) for t in range(nt))
    return md.BilinearSystem(fld, subsets, np.concatenate([bil, aff[:, None]], axis=1),
                             tuple(range(P)))


def zeros(*shape):
    return np.zeros(shape, dtype=np.int64)


@pytest.mark.parametrize("bil,aff", [
    # every polynomial zero: M_1 has no column, so rank(M_1) = 0, the kernel
    # is zero at every b and no equation holds the 3 minors: Indeterminate(3)
    pytest.param(zeros(2, 2, 3), zeros(2, 3), id="rank-0"),
    # f = c_0: kappa = 0 at b = 1, and x_0 c_0 is the only column at b = 2
    pytest.param(zeros(1, 1, 1), np.ones((1, 1), dtype=np.int64), id="kappa-0"),
    # no x variable: from b = 2 there is no multiplier, so no new row or column
    pytest.param(zeros(1, 0, 2), np.ones((1, 2), dtype=np.int64), id="no-new-columns"),
    # x_0 c_0 + x_0 c_1 and c_0: a line at b = 1, carried into b = 2 and 3
    pytest.param(np.array([[[1, 1, 0]], [[0, 0, 0]]], dtype=np.int64),
                 np.array([[0, 0, 0], [1, 0, 0]], dtype=np.int64), id="line"),
])
def test_carried_kernel_edge_cases(bil, aff):
    fld = inst.gen_rd(3, 2, 3, 1, 1, seed=1).field
    check_carried_kernels(hand_system(fld, bil, aff), 3)


def test_carried_step_reduces_only_its_schur_complement(monkeypatch):
    # at b = 2 on (2,9,10,4,3) the carried matrix is 460 x 335, of which 283
    # leading columns hold one nonzero per row: only the 177 x 52 rest is
    # reduced, and the full matrix never reaches echelonize
    can = inst.canonicalize(inst.gen_rd(2, 9, 10, 4, 3, seed=1))
    elim = md.eliminate_minors(md.build_mm_fq(md.build_mm_fqm(can)))
    plus = md.reduce_sm_plus(*md.build_sm_fqm(can), elim)
    reduced, carried = [], []
    echelonize, kernel = ml.echelonize, ml.kernel
    monkeypatch.setattr(ml, "echelonize",
                        lambda fld, mat: reduced.append(mat.shape) or echelonize(fld, mat))
    monkeypatch.setattr(ml, "kernel",
                        lambda fld, mat: carried.append(mat.shape) or kernel(fld, mat))
    kernels = list(sv.carried_kernels(plus, 2))
    assert [ker.basis.shape[0] for ker in kernels] == [35, 1]
    assert carried == [(460, 335)]
    assert reduced == [(155, 150), (177, 52)]


def test_seed_7_runaway_ends_with_kernel_dimension_2():
    # one decoding's worth of rank is missing at every b: the carried kernel
    # keeps dimension 2 from b = 2 on, as the whole Macaulay matrix did
    rd = inst.gen_rd(2, 9, 10, 4, 3, 7)
    with pytest.raises(sv.Unsolved) as exc:
        sv.decode_rd(rd, sv.DecodeConfig())
    assert exc.value.transcript == ("r'=1: linear minor system inconsistent",
                                    "r'=2: linear minor system inconsistent") + tuple(
        f"r'=3 smplus b={b} retry={retry}: kernel dimension {35 if b == 1 else 2}"
        for retry in range(3) for b in (1, 2, 3, 4))


def test_decode_reports_b2_matrix_over_budget(monkeypatch):
    # this instance's b = 1 matrix has 155 x 150 cells and its b = 2 matrix
    # 460 x 420, so a budget between them stops every retry at b = 2
    monkeypatch.setattr(md, "MAX_CELLS", 100_000)
    with pytest.raises(sv.Unsolved) as exc:
        sv.decode_rd(inst.gen_rd(2, 9, 10, 4, 3, 1))
    assert exc.value.transcript == ("r'=1: linear minor system inconsistent",
                                    "r'=2: linear minor system inconsistent") + tuple(
        line for retry in range(sv.RETRIES)
        for line in (f"r'=3 smplus b=1 retry={retry}: kernel dimension 35",
                     "r'=3 b=2: 460 x 420 exceeds the cell budget"))


def test_one_canonical_form_per_retry(monkeypatch):
    # the form depends on G, y and the permutation only, so r' = 1, 2 and 3
    # share each retry's form: a decode-b2 decode makes one, and an
    # unsolved decode one per retry, not one per retry and weight
    seeds = []
    real = sv.canonicalize
    monkeypatch.setattr(sv, "canonicalize",
                        lambda rd, perm_seed=None: seeds.append(perm_seed) or real(rd, perm_seed))
    sol = sv.decode_rd(inst.gen_rd(2, 9, 10, 4, 3, 1))
    assert sol.transcript[-1] == "r'=3 smplus b=2 retry=0: verified, weight 3"
    assert seeds == [None]
    seeds.clear()
    with pytest.raises(sv.Unsolved):
        sv.decode_rd(inst.gen_rd(2, 9, 10, 4, 3, 7), sv.DecodeConfig(b_max=1))
    assert seeds == [None, 7919, 2 * 7919]


def planted_minors(can):
    """The minors of the planted support matrix, normalized like the solvers'."""
    base = can.field.base
    planted = ml.maximal_minors(base, can.witness.coeffs, can.r)
    return base.mul_arr(planted, base.inv(int(planted[np.nonzero(planted)[0][-1]])))


def rd_rows(can):
    return np.concatenate([can.received[None, :], can.gen])


def test_extract_solution_matches_planted():
    # the SM+ kernel's minor block, expanded, is the planted minor vector,
    # and the readout at it gives the planted error
    rd = sv.gen_rd_generic(2, 7, 8, 4, 2, seed=5)
    can = inst.canonicalize(rd)
    elim = md.eliminate_minors(md.build_mm_fq(md.build_mm_fqm(can)))
    sm, part = md.build_sm_fqm(can)
    plus = md.reduce_sm_plus(sm, part, elim)
    c_free = sv.solve_linearized(next(sv.carried_kernels(plus, 1)))
    assert isinstance(c_free, np.ndarray)
    c_full = elim.expand(c_free)
    assert (c_full == planted_minors(can)).all()
    x = sv.x_from_minors(can.field, rd_rows(can), c_full, can.r)
    assert (sv.fld_error_from_x(can, x) == can.witness.error).all()


@pytest.mark.parametrize("params", [(2, 7, 10, 3, 2), (3, 5, 8, 3, 2), (4, 5, 8, 3, 2),
                                    (5, 3, 6, 2, 1), (9, 3, 6, 2, 1)], ids=str)
def test_readout_at_planted_minors_gives_planted_error(params):
    for seed in (1, 2):
        rd = inst.gen_rd(*params, seed=seed)
        can = inst.canonicalize(rd)
        x = sv.x_from_minors(can.field, rd_rows(can), planted_minors(can), can.r)
        assert (x == can.witness.x).all()
        assert (sv.fld_error_from_x(can, x) == can.witness.error).all()
        sol = sv.verify_rd(rd, can.error_to_origin(sv.fld_error_from_x(can, x)),
                           rd.r, [], "planted")
        assert sol is not None and (sol.error == rd.witness.error).all()


@pytest.mark.parametrize("params", [(2, 6, 7, 8, 2), (3, 4, 5, 6, 2), (4, 4, 5, 6, 1)],
                         ids=str)
def test_readout_at_planted_minors_gives_planted_minrank_x(params):
    for seed in (1, 2):
        mi = inst.gen_minrank(*params, seed=seed)
        fld = mi.field
        left = ml.echelonize(fld, mi.low_rank_matrix(mi.witness))
        minors = ml.maximal_minors(fld, left.rref[:mi.r], mi.r)
        x = sv.x_from_minors(fld, np.stack(mi.mats), minors, mi.r)
        assert (x == mi.witness).all()


@pytest.mark.parametrize("params", [(2, 7, 10, 3, 2), (3, 5, 8, 3, 2), (4, 5, 8, 3, 2),
                                    (5, 3, 6, 2, 1), (9, 3, 6, 2, 1)], ids=str)
def test_readout_at_wrong_minors_returns_no_answer(params):
    # a perturbed, a random or a zero minor vector is no support matrix's:
    # the readout finds no x, or verification rejects the candidate
    rng = np.random.default_rng(11)
    for seed in (1, 2, 3):
        rd = inst.gen_rd(*params, seed=seed)
        can = inst.canonicalize(rd)
        base = can.field.base
        planted = planted_minors(can)
        perturbed = planted.copy()
        t = int(rng.integers(planted.size))
        perturbed[t] = base.add(int(perturbed[t]), int(rng.integers(1, base.order)))
        for minors in (perturbed, base.rand_elements(rng, planted.size),
                       np.zeros_like(planted)):
            transcript = []
            x = sv.x_from_minors(can.field, rd_rows(can), minors, can.r)
            if x is not None:
                e = can.error_to_origin(sv.fld_error_from_x(can, x))
                assert sv.verify_rd(rd, e, rd.r, transcript, "wrong") is None
                assert "weight" in transcript[-1]


def test_decode_weight_zero():
    rd = inst.gen_rd(2, 3, 6, 2, 0, seed=2)
    sol = sv.decode_rd(rd)
    assert sol.weight == 0 and (sol.codeword == rd.received).all()


@pytest.mark.parametrize("params,seed", [
    pytest.param((2, 7, 10, 3, 2), 1, id="1"),
    pytest.param((2, 7, 10, 3, 2), 2, id="2"),
    pytest.param((2, 7, 10, 3, 2), 3, id="3"),
    pytest.param((3, 5, 8, 3, 2), 1, id="q3"),
    pytest.param((5, 3, 6, 2, 1), 1, id="q5"),
    pytest.param((9, 3, 6, 2, 1), 1, id="q9"),
])
def test_decode_mm_path(params, seed):
    rd = inst.gen_rd(*params, seed=seed)
    sol = sv.decode_rd(rd)
    assert (sol.error == rd.witness.error).all()
    assert " mm" in sol.transcript[-1]
    fld = rd.field
    assert (fld.add_arr(sol.codeword, sol.error) == rd.received).all()
    assert (ml.matmul(fld, sol.message[None, :], rd.gen)[0] == sol.codeword).all()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decode_smplus_path(seed):
    rd = sv.gen_rd_generic(2, 7, 8, 4, 2, seed=seed)
    sol = sv.decode_rd(rd)
    assert (sol.error == rd.witness.error).all()
    assert "smplus b=1" in sol.transcript[-1]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decode_smplus_path_odd_q(seed):
    rd = inst.gen_rd(3, 7, 10, 5, 2, seed=seed)
    sol = sv.decode_rd(rd)
    assert (sol.error == rd.witness.error).all()
    assert "smplus b=1" in sol.transcript[-1]


FORCED_SMPLUS = [(2, 7, 10, 3, 2), (3, 5, 8, 3, 2), (4, 5, 8, 3, 2), (2, 7, 12, 5, 2),
                 (5, 3, 6, 2, 1), (9, 3, 6, 2, 1), (3, 4, 7, 3, 1)]


@pytest.mark.parametrize("params", FORCED_SMPLUS, ids=str)
def test_decode_forced_smplus_when_minors_are_pinned(params):
    # the MaxMinors system alone pins the minors here, yet a forced SM+
    # decode substitutes the elimination and solves at b = 1
    for seed in range(1, 6):
        rd = inst.gen_rd(*params, seed=seed)
        assert sv.decode_rd(rd).transcript[-1].startswith(f"r'={rd.r} mm")
        sol = sv.decode_rd(rd, sv.DecodeConfig(modeling="smplus"))
        assert (sol.error == rd.witness.error).all()
        assert "smplus b=1" in sol.transcript[-1]


def test_decode_forced_smplus_at_full_weight():
    # at r' = n the reduced Support-Minors system has no equations; its one
    # free minor is unconstrained, not inconsistent
    rd = inst.gen_rd(2, 3, 3, 1, 3, seed=2)
    sol = sv.decode_rd(rd, sv.DecodeConfig(modeling="smplus", b_max=2))
    assert "smplus" in sol.transcript[-1] and "verified" in sol.transcript[-1]
    found = {tuple(e.tolist()) for e in sv.rd_solutions_brute(rd, cap=4096)}
    assert tuple(sol.error.tolist()) in found


def test_decode_mm_only_mode_reports_underdetermined():
    rd = sv.gen_rd_generic(2, 7, 8, 4, 2, seed=1)
    with pytest.raises(sv.Unsolved) as exc:
        sv.decode_rd(rd, sv.DecodeConfig(modeling="mm"))
    assert any("underdetermined" in line for line in exc.value.transcript)


@pytest.mark.parametrize("kwargs, reason", [
    ({"modeling": "bogus"}, "modeling must be one of auto, mm, smplus, got 'bogus'"),
    ({"b_max": 0}, "need b_max >= 1, got 0"),
])
def test_decode_config_rejects_bad_values(kwargs, reason):
    with pytest.raises(ValueError, match=reason):
        sv.DecodeConfig(**kwargs)


def test_decode_agrees_with_exhaustive_oracle():
    for seed in (1, 2):
        rd = sv.gen_rd_generic(2, 7, 8, 4, 2, seed=seed)
        sols = sv.rd_solutions_brute(rd)
        assert len(sols) == 1
        decoded = sv.decode_rd(rd)
        assert (decoded.error == sols[0]).all()


MAX_M = {2: 6, 3: 4, 4: 3, 5: 3, 7: 2, 8: 2, 9: 2}  # keeps q^m, and so the oracle, small


@st.composite
def small_rd_params(draw):
    q = draw(st.sampled_from(sorted(MAX_M)))
    m = draw(st.integers(2, MAX_M[q]))
    n = draw(st.integers(3, 8))
    k = draw(st.integers(1, n - 1))
    r = draw(st.integers(1, min(2, m, n - k)))
    return q, m, n, k, r


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_rd_params(), st.integers(0, 50))
@example((3, 4, 3, 2, 1), 31)           # r = n - k: the MaxMinors system has no rows
@example((2, 3, 3, 1, 3), 2)            # r = n: the Support-Minors system has none either
def test_decode_differential_against_oracle(params, seed):
    # in every mode a returned error is one of the oracle's decodings; a
    # non-generic draw may end Unsolved, but never in a wrong answer or a crash
    assume(sv.expected_spurious_decodings(*params) <= 20)
    rd = inst.gen_rd(*params, seed=seed)
    found = {tuple(e.tolist()) for e in sv.rd_solutions_brute(rd, cap=4096)}
    for modeling in ("auto", "mm", "smplus"):
        try:
            sol = sv.decode_rd(rd, sv.DecodeConfig(modeling=modeling, b_max=2))
        except sv.Unsolved:
            continue
        assert tuple(sol.error.tolist()) in found


def test_brute_oracle_finds_planted():
    rd = inst.gen_rd(2, 7, 8, 4, 2, seed=1)
    sols = sv.rd_solutions_brute(rd)
    assert any((s == rd.witness.error).all() for s in sols)
    fld = rd.field
    for e in sols:
        assert ml.rank_weight(fld, e) <= rd.r
        assert ml.solve_right(fld, rd.gen.T, fld.sub_arr(rd.received, e)) is not None


def decodings_by_codewords(rd):
    """Every y - c of rank weight <= r, over all q^{mk} codewords c = x G."""
    fld = rd.field
    out = set()
    for x in itertools.product(range(fld.order), repeat=rd.k):
        c = ml.matmul(fld, np.array(x, dtype=np.int64)[None, :], rd.gen)[0]
        e = fld.sub_arr(rd.received, c)
        if ml.rank_weight(fld, e) <= rd.r:
            out.add(tuple(int(v) for v in e))
    return out


@pytest.mark.parametrize("params,seed,count", [
    ((2, 3, 5, 2, 1), 1, 1),
    ((2, 3, 5, 2, 1), 5, 3),
    ((2, 3, 5, 2, 1), 12, 3),
    ((2, 4, 6, 2, 1), 1, 1),
    ((2, 4, 6, 2, 1), 2, 1),
    ((2, 3, 6, 2, 2), 1, 6),
    ((3, 2, 4, 2, 1), 1, 4),
    ((3, 2, 4, 2, 1), 5, 12),
    ((3, 2, 5, 2, 1), 5, 1),
    ((4, 2, 4, 2, 1), 1, 5),
    ((4, 2, 4, 2, 1), 6, 20),
    ((4, 2, 5, 2, 1), 1, 1),
])
def test_oracle_matches_codeword_enumeration(params, seed, count):
    rd = inst.gen_rd(*params, seed=seed)
    expected = decodings_by_codewords(rd)
    sols = sv.rd_solutions_brute(rd)
    found = {tuple(int(v) for v in e) for e in sols}
    assert len(found) == len(sols) == count
    assert found == expected
    first = sv.rd_solutions_brute(rd, stop_after=1)
    assert (len(first) == 1) == (count == 1)
    assert {tuple(int(v) for v in e) for e in first} <= expected


@pytest.mark.parametrize("params,cap", [
    ((2, 4, 6, 4, 3), 64),       # 18 unknowns, 8 equations per support
    ((3, 2, 4, 2, 2), 64),       # 8 unknowns, 4 equations per support
    ((2, 3, 6, 2, 2), 1),
])
def test_oracle_cap_on_solution_family(params, cap):
    with pytest.raises(ValueError, match="too large"):
        sv.rd_solutions_brute(inst.gen_rd(*params, seed=1), cap=cap)


@pytest.mark.parametrize("stop_after", [1, 3])
def test_oracle_screening_stops_at_a_family_above_the_cap(stop_after):
    # a family above the cap holds several decodings: screening returns
    # stop_after + 1 of them, real ones, where the full enumeration raises
    rd = inst.gen_rd(3, 2, 6, 2, 2, seed=1)
    with pytest.raises(ValueError, match="too large"):
        sv.rd_solutions_brute(rd)
    first = {tuple(int(v) for v in e) for e in sv.rd_solutions_brute(rd, stop_after=stop_after)}
    assert len(first) == stop_after + 1
    assert first <= decodings_by_codewords(rd)
    with pytest.raises(sv.EnvelopeMissed, match="unique-decoding"):
        sv.gen_rd_unique(3, 2, 6, 2, 2, seed=1)


def lane_sweep_against_echelonize(rd):
    """Assert that the q = 2 lane sweep keeps exactly the supports whose
    system echelonize finds consistent, over all supports; returns how many
    it keeps."""
    fld = rd.field
    res = ml.echelonize(fld, rd.gen)
    parity = ml.kernel_from_rref(fld, res.rref, res.pivots)
    synd = ml.matmul(fld, parity, rd.received[:, None])[:, 0]
    swept = list(sv._swept_bases(fld, parity, synd, rd.r))
    every = sv._subspace_bases(2, fld.degree, rd.r)
    exact = [b for b, _, _ in sv._consistent_systems(fld, parity, synd, every)]
    assert [b.tolist() for b in swept] == [b.tolist() for b in exact]
    return len(swept)


def with_codeword_received(rd):
    """rd with its received word replaced by a codeword: syndrome 0."""
    return inst.RdInstance(rd.field, rd.n, rd.k, rd.r, rd.gen, rd.gen[0].copy(), None)


@st.composite
def small_q2_params(draw):
    m = draw(st.integers(2, 5))
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1))
    r = draw(st.integers(1, min(3, m, n)))
    return 2, m, n, k, r


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_q2_params(), st.integers(0, 50), st.booleans())
@example((2, 5, 6, 3, 2), 1, True)      # syndrome 0: all 155 supports are consistent
@example((2, 5, 7, 3, 2), 1, False)     # 155 supports, not a multiple of 64 lanes
def test_lane_sweep_matches_echelonize(params, seed, codeword):
    rd = inst.gen_rd(*params, seed=seed)
    if codeword:
        rd = with_codeword_received(rd)
    kept = lane_sweep_against_echelonize(rd)
    if codeword:
        assert kept == sv.gaussian_binomial(params[1], params[4], 2)


def test_lane_sweep_across_chunks(monkeypatch):
    # 155 supports in chunks of 64 lanes: two full chunks and one of 27
    rd = inst.gen_rd(2, 5, 7, 3, 2, seed=3)
    whole = {tuple(e.tolist()) for e in sv.rd_solutions_brute(rd)}
    monkeypatch.setattr(sv, "_LANE_CHUNK", 64)
    lane_sweep_against_echelonize(rd)
    assert lane_sweep_against_echelonize(with_codeword_received(rd)) == 155
    assert {tuple(e.tolist()) for e in sv.rd_solutions_brute(rd)} == whole
    first = sv.rd_solutions_brute(rd, stop_after=1)
    assert {tuple(e.tolist()) for e in first} <= whole
    assert (len(first) == 1) == (len(whole) == 1)


def test_cached_instances_are_read_only():
    for rd in (sv.gen_rd_generic(2, 7, 8, 4, 2, seed=1),
               sv.gen_rd_unique(2, 3, 5, 2, 1, seed=1),       # screened by the oracle
               sv.gen_rd_unique(2, 7, 10, 3, 2, seed=1)):     # drawn unscreened
        with pytest.raises(ValueError):
            rd.gen[0, 0] = 1
        with pytest.raises(ValueError):
            rd.received[0] = 1
        with pytest.raises(ValueError):
            rd.witness.error[0] = 1


def test_expected_spurious_formula():
    # support-count times the syndrome-solvability ratio
    assert sv.gaussian_binomial(7, 2, 2) == 2667
    val = sv.expected_spurious_decodings(2, 7, 8, 4, 2)
    assert abs(val - 2667 * 2.0 ** (16 - 28)) < 1e-9
    assert sv.expected_spurious_decodings(2, 7, 10, 3, 2) < 1e-4


def test_solve_minrank_linearized():
    mi = inst.gen_minrank(2, 6, 7, 8, 2, seed=5)
    x = sv.solve_minrank_linearized(mi)
    assert isinstance(x, np.ndarray)
    assert ml.echelonize(mi.field, mi.low_rank_matrix(x)).rank <= 2


MINRANK_MAX_K = {2: 9, 3: 5, 4: 4, 5: 3, 7: 3}     # q^K <= 512 for the enumeration


@st.composite
def small_minrank_params(draw):
    q = draw(st.sampled_from(sorted(MINRANK_MAX_K)))
    m = draw(st.integers(2, 4))
    n = draw(st.integers(2, 5))
    K = draw(st.integers(1, MINRANK_MAX_K[q]))
    return q, m, n, K, draw(st.integers(1, min(m, n)))


def minrank_solutions_brute(mi):
    """Every x in F_q^K whose combination has rank at most r."""
    return {x for x in itertools.product(range(mi.field.order), repeat=mi.K)
            if sv.verify_minrank(mi, np.array(x, dtype=np.int64)) is not None}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_minrank_params(), st.integers(0, 100))
@example((2, 2, 2, 1, 1), 81)           # M_1 = 0: the b = 1 kernel is zero, minor 0 is free
def test_minrank_answers_against_enumeration(params, seed):
    # every returned x is a solution, and Inconsistent means there is none;
    # the drivers run wherever an a = 1 guess fits the instance
    mi = inst.gen_minrank(*params, seed=seed)
    found = minrank_solutions_brute(mi)
    got = sv.solve_minrank_linearized(mi)
    if isinstance(got, np.ndarray):
        assert tuple(got.tolist()) in found
    elif isinstance(got, sv.Inconsistent):
        assert not found
    for driver in (lambda: hy.hybrid_solve_minrank(mi, 1, seed=seed),
                   lambda: hy.probabilistic_solve_minrank(mi, 1, seed=seed, max_trials=16)):
        try:
            x = driver().solution
        except (inst.InstanceError, sv.Unsolved):
            continue
        assert tuple(x.tolist()) in found


@pytest.mark.parametrize("params", [(2, 3, 3, 2, 3), (3, 4, 3, 2, 3), (2, 3, 2, 1, 2)], ids=str)
def test_solve_minrank_at_full_rank(params):
    # at r = n no Support-Minors equation exists and every x is an answer
    mi = inst.gen_minrank(*params, seed=1)
    assert md.sm_for_minrank(mi).npolys == 0
    x = sv.solve_minrank_linearized(mi)
    assert x.tolist() == [0] * mi.K
    assert sv.verify_minrank(mi, x) is not None
