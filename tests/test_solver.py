"""Linearization solving, reconstruction, end-to-end decoding."""

import itertools
from math import comb

import numpy as np
import pytest

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
    vec = res.kernel[0]
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


def test_solve_linearized_zero_matrix_indeterminate():
    fld = inst.gen_rd(2, 3, 5, 2, 1, seed=1).field
    cols = tuple((tuple(), t) for t in range(4))
    mac = md.MacaulayMatrix(fld, np.zeros((3, 4), dtype=np.int64), ("r",) * 3,
                            cols, tuple(ml.all_subsets(5, 1))[:4], 1, "exact")
    out = sv.solve_linearized(mac)
    assert isinstance(out, sv.Indeterminate) and out.kernel_dim == 4


def test_solve_linearized_row_permutation_invariant():
    rd = sv.gen_rd_generic(2, 7, 8, 4, 2, seed=3)
    can = inst.canonicalize(rd)
    mmq = md.build_mm_fq(md.build_mm_fqm(can))
    sm, part = md.build_sm_fqm(can)
    plus = md.reduce_sm_plus(sm, part, md.eliminate_minors(mmq))
    mac = md.macaulay(plus.system, 1)
    out1 = sv.solve_linearized(mac)
    perm = np.random.default_rng(0).permutation(mac.arr.shape[0])
    mac2 = md.MacaulayMatrix(mac.field, mac.arr[perm],
                             tuple(mac.row_labels[i] for i in perm),
                             mac.col_labels, mac.subsets, 1, "exact")
    out2 = sv.solve_linearized(mac2)
    assert isinstance(out1, sv.MonomialAssignment)
    assert out1.values == out2.values and out1.pivot == out2.pivot


def test_extract_solution_matches_planted():
    rd = sv.gen_rd_generic(2, 7, 8, 4, 2, seed=5)
    can = inst.canonicalize(rd)
    mmq = md.build_mm_fq(md.build_mm_fqm(can))
    sm, part = md.build_sm_fqm(can)
    plus = md.reduce_sm_plus(sm, part, md.eliminate_minors(mmq))
    out = sv.solve_linearized(md.macaulay(plus.system, 1))
    got = sv.extract_solution(out, plus)
    assert got is not None
    c_full, x = got
    planted = ml.maximal_minors(can.field.base, can.witness.coeffs, 2)
    nz = int(np.nonzero(planted)[0][-1])
    scaled = can.field.base.mul_arr(planted, can.field.base.inv(int(planted[nz])))
    assert (c_full == scaled).all()
    # recovered linear variables reproduce the planted ones projectively:
    # both satisfy y + x G = error, and the error is unique here
    e1 = sv.fld_error_from_x(can, x)
    assert (e1 == can.witness.error).all()


def test_reconstruct_round_trip():
    base = inst.gen_rd(2, 3, 6, 2, 1, seed=1).field.base
    rng = np.random.default_rng(3)
    cmat = ml.random_full_rank(base, 2, 6, rng)
    minors = ml.maximal_minors(base, cmat, 2)
    back = sv.reconstruct_support_matrix(base, minors, 6, 2)
    back_minors = ml.maximal_minors(base, back, 2)
    nz = int(np.nonzero(minors)[0][-1])
    assert (base.mul_arr(back_minors, int(minors[nz])) == minors).all()
    # same row space
    assert ml.echelonize(base, np.concatenate([cmat, back])).rank == 2


def test_reconstruct_basis_vector():
    base = inst.gen_rd(2, 3, 6, 2, 1, seed=1).field.base
    vec = np.zeros(comb(4, 2), dtype=np.int64)
    t0 = ml.subset_rank(4, (1, 3))
    vec[t0] = 1
    cmat = sv.reconstruct_support_matrix(base, vec, 4, 2)
    assert cmat[0, 1] == 1 and cmat[1, 3] == 1 and cmat.sum() == 2


def test_reconstruct_rejects_invalid():
    base = inst.gen_rd(2, 3, 6, 2, 1, seed=1).field.base
    with pytest.raises(sv.PluckerError):
        sv.reconstruct_support_matrix(base, np.zeros(6, dtype=np.int64), 4, 2)
    bad = np.array([1, 0, 0, 0, 0, 1])   # violates the quadratic relation
    with pytest.raises(sv.PluckerError):
        sv.reconstruct_support_matrix(base, bad, 4, 2)


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


def test_decode_mm_only_mode_reports_underdetermined():
    rd = sv.gen_rd_generic(2, 7, 8, 4, 2, seed=1)
    with pytest.raises(sv.Unsolved) as exc:
        sv.decode_rd(rd, sv.DecodeConfig(modeling="mm"))
    assert any("underdetermined" in line for line in exc.value.transcript)


def test_decode_agrees_with_exhaustive_oracle():
    for seed in (1, 2):
        rd = sv.gen_rd_generic(2, 7, 8, 4, 2, seed=seed)
        sols = sv.rd_solutions_brute(rd)
        assert len(sols) == 1
        decoded = sv.decode_rd(rd)
        assert (decoded.error == sols[0]).all()


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
