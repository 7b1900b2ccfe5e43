"""System construction, partitions, elimination, Macaulay matrices."""

import tracemalloc
from math import comb

import numpy as np
import pytest

from ranklab import instances as inst
from ranklab import matlin as ml
from ranklab import modelings as md
from ranklab import solver as sv
from ranklab.estimator import nb_fqm


def systems(params, seed, perm_seed=None):
    rd = inst.gen_rd(*params, seed=seed)
    can = inst.canonicalize(rd, perm_seed=perm_seed)
    mm = md.build_mm_fqm(can)
    mmq = md.build_mm_fq(mm)
    sm, part = md.build_sm_fqm(can)
    return rd, can, mm, mmq, sm, part


P842 = (2, 7, 8, 4, 2)
P521 = (2, 3, 5, 2, 1)


def subset_index(n, subset):
    """Index of a sorted subset among the subsets of range(n) of its size."""
    return ml.all_subsets(n, len(subset)).index(tuple(subset))


def eval_linear(fld, row, ct):
    acc = 0
    for v in fld.mul_arr(row, ct):
        acc = fld.add(acc, int(v))
    return acc


def test_mm_fqm_counts_and_leading_coeff():
    _, can, mm, _, _, _ = systems(P842, 1)
    assert mm.nrows == comb(3, 2)
    for p, j_rows in enumerate(mm.row_labels):
        tail = tuple(j + can.k + 1 for j in j_rows)
        assert mm.coeffs[p][subset_index(can.n, tail)] == 1


def test_mm_planted_vanishes():
    _, can, mm, mmq, _, _ = systems(P842, 2)
    ct = ml.maximal_minors(can.field.base, can.witness.coeffs, can.r)
    for p in range(mm.nrows):
        assert eval_linear(can.field, mm.coeffs[p], ct) == 0
    assert mmq.nrows == 7 * 3
    for p in range(mmq.nrows):
        assert eval_linear(mmq.field, mmq.coeffs[p], ct) == 0


@pytest.mark.parametrize("params", [(3, 4, 7, 3, 2), (9, 2, 5, 2, 1), (4, 5, 8, 3, 2)],
                         ids=["F3^4", "F9^2", "F4^5"])
def test_unfolding_matches_trace_reference(params):
    # coordinate i of a coefficient c is trace(b*_i c); in build_sm_fq the
    # coefficient of x_{j,l} is trace(b*_i b_l c)
    _, can, mm, mmq, sm, _ = systems(params, 1)
    fld = can.field
    m = fld.degree
    duals = fld.dual_basis()
    ref = np.stack([fld.trace_arr(fld.mul_arr(bs, mm.coeffs)) for bs in duals], axis=1)
    assert (mmq.coeffs == ref.reshape(mmq.coeffs.shape)).all()
    assert mmq.row_labels == tuple((j, i) for j in mm.row_labels for i in range(m))
    smq = md.build_sm_fq(sm)
    assert smq.coef.shape == (sm.npolys * m, sm.nx * m + 1, len(sm.subsets))
    for i, bs in enumerate(duals):
        assert (smq.coef[i::m, -1] == fld.trace_arr(fld.mul_arr(bs, sm.coef[:, -1]))).all()
        for ell, bl in enumerate(fld.basis):
            expect = fld.trace_arr(fld.mul_arr(fld.mul(bs, bl), sm.coef[:, :-1]))
            assert (smq.coef[i::m, ell:-1:m] == expect).all()


def test_mm_fq_rank_matches_generic_count():
    hits = 0
    for seed in range(1, 11):
        _, can, _, mmq, _, _ = systems(P842, seed)
        rank = ml.echelonize(mmq.field, mmq.coeffs).rank
        hits += rank == min(7 * comb(3, 2), comb(8, 2) - 1)
    assert hits >= 9


def test_sm_fqm_counts_and_partition():
    _, can, _, _, sm, part = systems(P842, 1)
    assert sm.npolys == comb(8, 3) == 56
    n, k, r = 8, 4, 2
    assert len(part.two_plus) == comb(n, r + 1) - comb(n - k - 1, r + 1) \
        - (k + 1) * comb(n - k - 1, r) == 40
    assert len(part.zero) == comb(n - k - 1, r + 1)
    assert len(part.one) == (k + 1) * comb(n - k - 1, r)


def test_sm_planted_vanishes():
    _, can, _, _, sm, _ = systems(P842, 3)
    ct = ml.maximal_minors(can.field.base, can.witness.coeffs, can.r)
    vals = sm.eval_at(can.witness.x.tolist(), ct.tolist())
    assert not vals.any()
    # systems with no polynomials: at r' = n neither the bilinear system nor
    # its SM+ reduction has one
    _, can, _, mmq, sm, part = systems((2, 3, 3, 1, 3), 2)
    elim = md.eliminate_minors(mmq)
    ct = ml.maximal_minors(can.field.base, can.witness.coeffs, can.r)
    for sys, cols in ((sm, ct), (md.reduce_sm_plus(sm, part, elim), ct[list(elim.free_cols)])):
        assert sys.npolys == 0
        assert sys.eval_at(can.witness.x.tolist(), cols.tolist()).shape == (0,)


@pytest.mark.parametrize("params", [P842, (3, 4, 7, 3, 2), (9, 2, 5, 2, 1)], ids=str)
def test_sm_polynomials_are_minors(params):
    # polynomial I at (x, minors of C) is the minor of (x G + y ; C) at columns I
    _, can, _, _, sm, _ = systems(params, 4)
    fld = can.field
    rng = np.random.default_rng(9)
    x = fld.rand_elements(rng, can.k)
    cmat = fld.rand_elements(rng, (can.r, can.n))
    first = fld.add_arr(ml.matmul(fld, x[None, :], can.gen), can.received[None, :])
    stacked = np.concatenate([first, cmat])
    vals = sm.eval_at(x.tolist(), ml.maximal_minors(fld, cmat, can.r).tolist())
    assert vals.tolist() == [ml.determinant(fld, stacked[:, list(i_set)]) for i_set in sm.labels]


@pytest.mark.parametrize("params", [P842, (3, 4, 7, 3, 2), (9, 2, 5, 2, 1)], ids=str)
def test_sm_system_at_minors_is_one_laplace_step(params):
    # at fixed minors the laid-out system is the readout's Laplace step: the
    # coefficient of x_u is the step on row u of G, the affine part on y
    _, can, _, _, sm, _ = systems(params, 3)
    fld, nt = can.field, len(sm.subsets)
    ct = fld.rand_elements(np.random.default_rng(5), nt)
    at = ml.matmul(fld, sm.coef.transpose(1, 0, 2).reshape(-1, nt), ct[:, None])
    step = ml.laplace_row(fld, np.concatenate([can.gen, can.received[None, :]]), ct, can.r + 1)
    assert at.reshape(step.shape).tolist() == step.tolist()


@pytest.mark.parametrize("params", [(2, 7, 8, 4, 2), (3, 4, 7, 3, 2), (4, 5, 8, 3, 2)],
                         ids=["F2^7", "F3^4", "F4^5"])
def test_rd_and_minrank_share_one_support_minors_layout(params):
    # the RD system over F_{q^m} is the MinRank one of the single affine row
    # y + x G: the same coefficients, labels differing by the row index 0
    for seed in (1, 2):
        _, can, _, _, sm, _ = systems(params, seed)
        rows = np.concatenate([can.received[None, :], can.gen])
        mr = md.sm_for_minrank(inst.MinRankInstance(can.field, 1, can.n, can.k, can.r, rows))
        assert (mr.coef == sm.coef).all() and mr.coef.shape == sm.coef.shape
        assert mr.labels == tuple((i_set, 0) for i_set in sm.labels)


@pytest.mark.parametrize("q", [2, 3])
def test_minrank_sm_polynomials_are_minors(q):
    # polynomial (I, i) is the minor of (row i of M_0 + sum x_u M_u ; C) at columns I
    mi = inst.gen_minrank(q, 3, 5, 4, 2, seed=4)
    sm = md.sm_for_minrank(mi)
    rng = np.random.default_rng(11)
    x = mi.field.rand_elements(rng, mi.K)
    cmat = mi.field.rand_elements(rng, (mi.r, mi.n))
    low = mi.low_rank_matrix(x)
    vals = sm.eval_at(x.tolist(), ml.maximal_minors(mi.field, cmat, mi.r).tolist())
    assert vals.tolist() == [
        ml.determinant(mi.field, np.concatenate([low[i:i + 1], cmat])[:, list(i_set)])
        for i_set, i in sm.labels]


def test_sm_leading_terms_and_tail_absence():
    _, can, _, _, sm, part = systems(P842, 1)
    n, k, r = can.n, can.k, can.r
    for p in part.two_plus:
        i_set = sm.labels[p]
        j, t = md.leading_term(sm, p)
        assert j == i_set[0]
        assert t == subset_index(n, i_set[1:])
        for j_rows in ml.all_subsets(n - k - 1, r):
            tail = subset_index(n, tuple(x + k + 1 for x in j_rows))
            assert not sm.coef[p, :-1, tail].any()
            assert sm.coef[p, -1, tail] == 0


@pytest.mark.parametrize("params,seed", [(P521, 1), (P521, 2), ((4, 5, 8, 3, 2), 1)])
def test_unfold_equals_direct_construction(params, seed):
    _, can, _, _, sm, _ = systems(params, seed)
    unfolded = md.build_sm_fq(sm)
    direct = md.sm_fq_direct(can)
    assert unfolded.labels == direct.labels
    assert (unfolded.coef[:, :-1] == direct.coef[:, :-1]).all()
    assert (unfolded.coef[:, -1] == direct.coef[:, -1]).all()


def test_sm_fq_leading_terms():
    _, can, _, _, sm, part = systems(P842, 1)
    smq = md.build_sm_fq(sm)
    m, n, k, r = 7, 8, 4, 2
    two_plus = set(part.two_plus)
    for pi, (i_set, i) in enumerate(smq.labels):
        if sum(1 for v in i_set if v <= k) < 2:
            continue
        j, t = md.leading_term(smq, pi)
        assert j // m == i_set[0]
        assert t == subset_index(n, i_set[1:])


def test_sm_fq_planted_vanishes():
    _, can, _, _, sm, _ = systems(P521, 4)
    smq = md.build_sm_fq(sm)
    fld = can.field
    ct = ml.maximal_minors(fld.base, can.witness.coeffs, can.r)
    grid = fld.coeffs_arr(can.witness.x).reshape(-1).tolist()
    assert not smq.eval_at(grid, ct.tolist()).any()


def test_reduce_sm_plus_counts():
    _, can, _, mmq, sm, part = systems(P842, 1)
    elim = md.eliminate_minors(mmq)
    plus = md.reduce_sm_plus(sm, part, elim)
    rank = ml.echelonize(mmq.field, mmq.coeffs).rank
    assert len(elim.pivot_cols) == rank
    assert len(elim.free_cols) == comb(8, 2) - rank == 7
    assert plus.npolys == 40
    # eliminated minors are the largest ones in the variable order
    assert min(elim.pivot_cols) > max(
        c for c in elim.free_cols) - len(elim.pivot_cols) - len(elim.free_cols)
    assert sorted(elim.pivot_cols, reverse=True)[0] == comb(8, 2) - 1
    # witness still vanishes after elimination
    ct = ml.maximal_minors(can.field.base, can.witness.coeffs, can.r)
    ct_free = [int(ct[c]) for c in elim.free_cols]
    assert not plus.eval_at(can.witness.x.tolist(), ct_free).any()
    # pivot expressions reproduce the eliminated coordinates
    piv = ml.matmul(mmq.field, np.array(ct_free)[None, :], elim.pivot_expr.T)[0]
    for i, c in enumerate(elim.pivot_cols):
        assert piv[i] == ct[c]
    assert (elim.expand(ct_free) == ct).all()


def test_reduce_runs_when_minors_are_pinned():
    # (2,7,10,3,2): the MaxMinors system leaves one minor free, which pins
    # the minors; the substitution still runs and the witness survives it
    _, can, _, mmq, sm, part = systems((2, 7, 10, 3, 2), 1)
    elim = md.eliminate_minors(mmq)
    assert len(elim.free_cols) == 1
    plus = md.reduce_sm_plus(sm, part, elim)
    assert plus.subsets == (sm.subsets[elim.free_cols[0]],)
    assert plus.npolys == len(part.two_plus)
    ct = ml.maximal_minors(can.field.base, can.witness.coeffs, can.r)
    assert not plus.eval_at(can.witness.x.tolist(), [int(ct[elim.free_cols[0]])]).any()


def test_macaulay_b1_is_coefficient_matrix():
    _, can, _, mmq, sm, part = systems(P842, 1)
    plus = md.reduce_sm_plus(sm, part, md.eliminate_minors(mmq))
    mac = md.macaulay(plus, 1)
    assert mac.arr.shape == (40, 35)
    # each row is the system's own coefficients under the column layout
    sys = plus
    for p in range(5):
        for ci, (alpha, t) in enumerate(mac.col_labels):
            if len(alpha) == 0:
                assert mac.arr[p, ci] == sys.coef[p, -1, t]
            else:
                assert mac.arr[p, ci] == sys.coef[p, alpha[0], t]


def test_from_rows_reads_back_the_system():
    # the b = 1 matrix's own rows give the system back; its RREF rows span
    # the same polynomials with rank(M_1) of them
    for _, can, _, mmq, sm, part in (systems(P842, 1), systems((3, 4, 7, 3, 1), 1)):
        plus = md.reduce_sm_plus(sm, part, md.eliminate_minors(mmq))
        mac = md.macaulay(plus, 1)
        back = md.from_rows(plus, mac, mac.arr)
        assert (back.coef[:, :-1] == plus.coef[:, :-1]).all()
        assert (back.coef[:, -1] == plus.coef[:, -1]).all()
        res = ml.echelonize(can.field, mac.arr)
        basis = md.from_rows(plus, mac, res.rref[:res.rank])
        assert basis.npolys == res.rank
        again = md.macaulay(basis, 1)
        assert again.col_labels == mac.col_labels
        assert ml.echelonize(can.field, np.concatenate([mac.arr, again.arr])).rank == res.rank


def test_macaulay_row_counts_and_budget(monkeypatch):
    _, can, _, mmq, sm, part = systems(P842, 1)
    q2 = md.subsystem(sm, part.two_plus)
    mac2 = md.macaulay(q2, 2)
    assert mac2.arr.shape[0] == comb(4 + 2 - 2, 1) * 40
    mac3 = md.macaulay(q2, 3)
    assert mac3.arr.shape[0] == comb(4 + 3 - 2, 2) * 40
    monkeypatch.setattr(md, "MAX_CELLS", 10)
    with pytest.raises(md.MonomialBudgetError):
        md.macaulay(q2, 3)


def test_macaulay_column_order_is_descending():
    _, can, _, mmq, sm, part = systems(P521, 1)
    mac = md.macaulay(md.subsystem(sm, part.two_plus), 2)
    keys = [md.monomial_key(a, t) for a, t in mac.col_labels]
    assert keys == sorted(keys)
    # strictly, on every builder, with only occurring monomials as columns
    for _, mac in macaulay_cases():
        keys = [md.monomial_key(a, t) for a, t in mac.col_labels]
        assert all(k0 < k1 for k0, k1 in zip(keys, keys[1:]))
        assert mac.arr.shape == (len(mac.row_labels), len(mac.col_labels))
        assert mac.arr.any(axis=0).all()


def _layout_by_unique(sys, mac):
    """Columns and matrix of a Macaulay matrix of ``sys``, built from its row
    labels with the columns numbered by ``np.unique(..., return_inverse=True)``
    over the rows [b - deg, nt - 1 - t, beta], which sort as monomial_key."""
    nx, nt, b = sys.nx, len(sys.subsets), mac.b
    poly_of = {label: p for p, label in enumerate(sys.labels)}
    rows, keys, vals = [], [], []
    for i, (alpha, label) in enumerate(mac.row_labels):
        p = poly_of[label]
        for j, t in np.argwhere(sys.coef[p]).tolist():
            beta = alpha if j == nx else tuple(sorted(alpha + (j,)))
            rows.append(i)
            keys.append([b - len(beta), nt - 1 - t, *beta] + [0] * (b - len(beta)))
            vals.append(sys.coef[p, j, t])
    cols, col_of = np.unique(np.array(keys), axis=0, return_inverse=True)
    arr = np.zeros((len(mac.row_labels), len(cols)), dtype=np.int64)
    arr[rows, col_of.reshape(-1)] = vals
    labels = tuple((tuple(key[2:2 + b - key[0]]), nt - 1 - key[1]) for key in cols.tolist())
    return labels, arr


def test_sort_free_layout_matches_unique_reference(monkeypatch):
    # every Macaulay matrix of the seed-7 decode of (2,9,10,4,3), b = 1..4 on
    # each retry, and a MinRank system at b = 1 and 2
    laid = []
    layout = md._layout

    def spy(sys, *args):
        mac = layout(sys, *args)
        laid.append((sys, mac))
        return mac

    monkeypatch.setattr(md, "_layout", spy)
    with pytest.raises(sv.Unsolved):
        sv.decode_rd(inst.gen_rd(2, 9, 10, 4, 3, seed=7))
    assert sorted({mac.b for _, mac in laid}) == [1, 2, 3, 4]
    mr = md.sm_for_minrank(inst.gen_minrank(2, 6, 8, 14, 2, seed=1))
    for b in (1, 2):
        md.macaulay(mr, b)
    for sys, mac in laid:
        labels, arr = _layout_by_unique(sys, mac)
        assert mac.col_labels == labels
        assert mac.arr.shape == arr.shape and (mac.arr == arr).all()


def macaulay_cases():
    """(system, Macaulay matrix) pairs: b = 1, 2 and 3, the eliminated
    system, the basis rows, and odd characteristic."""
    for params, seed in ((P521, 1), (P842, 2), ((3, 4, 7, 3, 1), 1)):
        _, can, _, mmq, sm, part = systems(params, seed)
        plus = md.reduce_sm_plus(sm, part, md.eliminate_minors(mmq))
        for sys in (sm, plus):
            for b in (1, 2, 3):
                yield sys, md.macaulay(sys, b)
        yield sm, md.basis_bb(sm, part, 2)


def test_macaulay_rows_are_multiplied_polynomials():
    rng = np.random.default_rng(23)
    for sys, mac in macaulay_cases():
        fld = sys.field
        poly_of = {label: p for p, label in enumerate(sys.labels)}
        for _ in range(2):
            x = fld.rand_elements(rng, sys.nx)
            ct = fld.rand_elements(rng, len(sys.subsets))
            values = sys.eval_at(x.tolist(), ct.tolist())

            def monomial(alpha, t=None):
                acc = 1 if t is None else int(ct[t])
                for j in alpha:
                    acc = fld.mul(acc, int(x[j]))
                return acc

            columns = np.array([monomial(a, t) for a, t in mac.col_labels], dtype=np.int64)
            for i, (alpha, label) in enumerate(mac.row_labels):
                acc = 0
                for v in fld.mul_arr(mac.arr[i], columns):
                    acc = fld.add(acc, int(v))
                assert acc == fld.mul(monomial(alpha), int(values[poly_of[label]]))


def test_macaulay_budget_checked_before_allocation(monkeypatch):
    _, can, _, mmq, sm, part = systems(P842, 1)
    q2 = md.subsystem(sm, part.two_plus)
    full = md.macaulay(q2, 3)
    monkeypatch.setattr(md, "MAX_CELLS", full.arr.size - 1)
    tracemalloc.start()
    try:
        with pytest.raises(md.MonomialBudgetError):
            md.macaulay(q2, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full.arr.nbytes // 4


def test_top_block_rank_law():
    for seed in (1, 2, 3):
        _, can, _, _, sm, part = systems(P842, seed)
        q2 = md.subsystem(sm, part.two_plus)
        for b in (1, 2):
            mac = md.macaulay(q2, b)
            rank = ml.echelonize(can.field, md.top_block(mac)).rank
            assert rank == nb_fqm(8, 4, 2, b)


def test_basis_bb_counts_and_independence():
    _, can, _, _, sm, part = systems(P842, 1)
    for b in (1, 2, 3):
        bb = md.basis_bb(sm, part, b)
        expect = nb_fqm(8, 4, 2, b)
        assert bb.arr.shape[0] == expect
        assert ml.echelonize(can.field, bb.arr).rank == expect


def test_basis_bb_small_example():
    # (n, k, r, b) = (5, 2, 1, 1): (4 + 3) - 2 * 2 = 3 basis elements
    _, can, _, _, sm, part = systems(P521, 2)
    bb = md.basis_bb(sm, part, 1)
    assert bb.arr.shape[0] == 3 == nb_fqm(5, 2, 1, 1)


def test_q0_span_identity():
    _, can, _, _, sm, _ = systems(P842, 5)
    fld = can.field
    n, k, r = can.n, can.k, can.r
    for t_rows in ml.all_subsets(n - k - 1, r + 1):
        coefs = ml.maximal_minors(fld, can.h_y[list(t_rows)], r + 1)
        bil = np.zeros_like(sm.coef[0, :-1])
        aff = np.zeros_like(sm.coef[0, -1])
        for p, c in enumerate(coefs):
            if c:
                bil = fld.add_arr(bil, fld.mul_arr(int(c), sm.coef[p, :-1]))
                aff = fld.add_arr(aff, fld.mul_arr(int(c), sm.coef[p, -1]))
        assert not bil.any() and not aff.any()


def test_syzygy_relations_reduce_to_zero():
    # tiny overdetermined instance, where everything is small enough to inspect
    _, can, _, mmq, sm, part = systems(P521, 3)
    fld = can.field
    n, k, r = can.n, can.k, can.r
    nf_all = md.nf_bilinear(md.eliminate_minors(mmq), sm, range(sm.npolys))
    for t_rows in ml.all_subsets(n - k - 1, r + 1):
        minors = ml.maximal_minors(fld, can.h_y[list(t_rows)], r + 1)
        for bs in fld.dual_basis():
            bil = np.zeros_like(nf_all.coef[0, :-1])
            aff = np.zeros_like(nf_all.coef[0, -1])
            for p, c in enumerate(minors):
                coef = fld.trace(fld.mul(bs, int(c)))
                if coef:
                    bil = fld.add_arr(bil, fld.mul_arr(coef, nf_all.coef[p, :-1]))
                    aff = fld.add_arr(aff, fld.mul_arr(coef, nf_all.coef[p, -1]))
            assert not bil.any() and not aff.any()


def test_minrank_sm_planted_vanishes():
    mi = inst.gen_minrank(2, 6, 7, 8, 2, seed=5)
    sm = md.sm_for_minrank(mi)
    e = mi.low_rank_matrix(mi.witness)
    # a support matrix: row space basis of the planted low-rank matrix
    rows = ml.echelonize(mi.field, e)
    cmat = rows.rref[:mi.r]
    ct = ml.maximal_minors(mi.field, cmat, mi.r)
    assert not sm.eval_at(mi.witness.tolist(), ct.tolist()).any()
