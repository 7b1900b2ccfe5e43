"""Instance generation, canonical forms, conversions."""

import dataclasses

import numpy as np
import pytest

from ranklab import instances as inst
from ranklab import matlin as ml


def test_gen_rd_postconditions():
    rd = inst.gen_rd(2, 7, 8, 4, 2, seed=1)
    assert rd.verify_witness()
    assert ml.rank_weight(rd.field, rd.witness.error) == 2
    assert ml.echelonize(rd.field, rd.gen).rank == 4
    # support dimension of y + x G equals the planted weight
    fld = rd.field
    e = fld.add_arr(rd.received, ml.matmul(fld, rd.witness.x[None, :], rd.gen)[0])
    assert ml.rank_weight(fld, e) == 2


def test_gen_rd_deterministic():
    a = inst.gen_rd(2, 7, 8, 4, 2, seed=9)
    b = inst.gen_rd(2, 7, 8, 4, 2, seed=9)
    assert (a.gen == b.gen).all() and (a.received == b.received).all()
    c = inst.gen_rd(2, 7, 8, 4, 2, seed=10)
    assert (a.gen != c.gen).any()


def test_gen_rd_weight_zero():
    rd = inst.gen_rd(2, 3, 6, 2, 0, seed=2)
    assert not rd.witness.error.any()
    # received word is a codeword
    assert ml.solve_right(rd.field, rd.gen.T, rd.received) is not None


def test_gen_rd_parameter_validation():
    with pytest.raises(inst.InstanceError):
        inst.gen_rd(2, 7, 4, 4, 2, seed=1)
    with pytest.raises(inst.InstanceError):
        inst.gen_rd(2, 3, 8, 4, 5, seed=1)


@pytest.mark.parametrize("params,seed", [((2, 7, 8, 4, 2), 1),
                                         ((4, 5, 8, 3, 2), 3),
                                         ((2, 7, 10, 3, 2), 5)])
def test_canonicalize_postconditions(params, seed):
    rd = inst.gen_rd(*params, seed=seed)
    can = inst.canonicalize(rd)
    fld = can.field
    k, n = can.k, can.n
    assert (can.gen[:, :k] == ml.identity(k)).all()
    assert not can.received[:k].any() and can.received[k] == 1
    assert (can.h_y[:, k + 1:] == ml.identity(n - k - 1)).all()
    assert can.h[k] == 1 and not can.h[k + 1:].any()
    # defining orthogonality relations
    assert not ml.matmul(fld, can.gen, can.h_y.T).any()
    assert not ml.matmul(fld, can.received[None, :], can.h_y.T).any()
    assert ml.matmul(fld, can.received[None, :], can.h[:, None])[0, 0] == 1
    # transported witness still has the right weight
    assert ml.rank_weight(fld, can.witness.error) == rd.r


def test_canonicalize_transport_round_trip():
    rd = inst.gen_rd(2, 7, 8, 4, 2, seed=4)
    for perm_seed in (None, 3, 11):
        can = inst.canonicalize(rd, perm_seed=perm_seed)
        back = can.error_to_origin(can.witness.error)
        assert (back == rd.witness.error).all()


def test_canonicalize_rejects_codeword():
    rd = inst.gen_rd(2, 3, 6, 2, 0, seed=2)
    with pytest.raises(inst.InstanceError):
        inst.canonicalize(rd)


def test_check_canonical_rejects_tampered_form():
    can = inst.canonicalize(inst.gen_rd(2, 7, 8, 4, 2, seed=1))
    h = np.array(can.h)
    h[0] = can.field.add(int(h[0]), 1)          # h leaves the dual of the code
    with pytest.raises(inst.InstanceError):
        inst._check_canonical(dataclasses.replace(can, h=h))


def test_rd_to_minrank():
    rd = inst.gen_rd(2, 7, 8, 4, 2, seed=1)
    mr = inst.rd_to_minrank(rd)
    assert mr.K == 28 and mr.m == 7 and mr.n == 8
    assert all(mi.shape == (7, 8) for mi in mr.mats)
    assert mr.verify_witness()
    # the combination at the witness reproduces the coordinate expansion
    # of the error: Mat(y + x G) = S C
    e_mat = mr.low_rank_matrix(mr.witness)
    assert (e_mat == ml.mat_of(rd.field, rd.witness.error)).all()
    smat = ml.mat_of(rd.field, rd.witness.support)
    rhs = ml.matmul(rd.field.base, smat, rd.witness.coeffs)
    assert (e_mat == rhs).all()


def test_gen_minrank():
    mi = inst.gen_minrank(2, 6, 8, 14, 2, seed=7)
    assert mi.verify_witness()
    assert ml.echelonize(mi.field, mi.low_rank_matrix(mi.witness)).rank == 2
    with pytest.raises(inst.InstanceError):
        inst.gen_minrank(2, 6, 8, 0, 2, seed=1)
    with pytest.raises(inst.InstanceError):
        inst.gen_minrank(2, 6, 8, 5, 7, seed=1)


def test_minrank_generator_roundtrip():
    mi = inst.gen_minrank(2, 4, 5, 6, 2, seed=9)
    rows = np.stack([inst.flatten_matrix(m) for m in mi.mats[1:]])
    for i in range(mi.K):
        assert (inst.unflatten_matrix(rows[i], mi.m) == mi.mats[i + 1]).all()
    # a stack is flattened matrix by matrix over its last two axes
    assert (inst.flatten_matrix(mi.mats[1:]) == rows).all()
    nested = np.stack([mi.mats, mi.mats[::-1]])
    assert inst.flatten_matrix(nested).shape == (2, mi.K + 1, mi.m * mi.n)
    assert (inst.unflatten_matrix(inst.flatten_matrix(nested), mi.m) == nested).all()
