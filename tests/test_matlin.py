"""Exact linear algebra, subset indexing, minors, coordinate expansion."""

from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ranklab import instances, matlin as ml, modelings as md
from ranklab.galois import make_base_field, make_ext_field

F2 = make_base_field(2)
F4 = make_base_field(4)
F8 = make_ext_field(2, 3)
F9 = make_base_field(9)
# characteristic 2 above order 2: prime-field towers and towers over F_4, F_16
CHAR2 = [F4, F8, make_ext_field(2, 9), make_ext_field(4, 3), make_ext_field(16, 2)]


def kernel(fld, res):
    """The right kernel of a reduction, read as every caller reads it."""
    return ml.kernel_from_rref(fld, res.rref, res.pivots)


def test_echelon_examples():
    res = ml.echelonize(F2, ml.identity(3))
    assert res.rank == 3 and kernel(F2, res).shape[0] == 0
    res = ml.echelonize(F2, np.zeros((2, 4), dtype=np.int64))
    assert res.rank == 0 and kernel(F2, res).shape[0] == 4
    res = ml.echelonize(F2, np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    assert res.rank == 2
    assert kernel(F2, res).shape == (1, 3) and (kernel(F2, res)[0] == [1, 1, 1]).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30 - 1), st.integers(2, 6), st.integers(2, 6))
def test_packed_matches_generic_gf2(bits, rows, cols):
    rng = np.random.default_rng(bits)
    assert_packed_matches_generic(rng.integers(0, 2, (rows, cols)))


def generic_echelon(fld, mat):
    """The generic eliminator's RREF and pivots, on any field."""
    rref, pivots = ml._rref_generic(fld, mat)
    return ml.EchelonResult(len(pivots), rref, tuple(pivots))


def assert_packed_matches_generic(mat):
    packed = ml.echelonize(F2, mat)
    generic = generic_echelon(F2, mat)
    assert packed.rank == generic.rank
    assert (packed.rref == generic.rref).all()
    assert packed.pivots == generic.pivots
    assert (kernel(F2, packed) == kernel(F2, generic)).all()


@pytest.mark.parametrize("rows,cols", [(3, 64), (5, 65), (70, 130), (130, 70), (0, 5), (4, 0)])
def test_packed_batch_across_words(rows, cols):
    # a batch of three matrices per shape, each reduced on its own
    rng = np.random.default_rng(rows * cols)
    stack = rng.integers(0, 2, (3, rows, cols))
    stack[1, :, :cols // 2] = 0                  # leading columns without pivots
    stack[2, rows // 2:] = stack[2, :rows - rows // 2]   # repeated rows
    for mat in stack:
        assert_packed_matches_generic(mat)
    assert (ml.unpack_gf2(ml.pack_gf2(stack), cols) == stack).all()


@pytest.mark.parametrize("lead", [63, 127])
def test_packed_pivots_on_sign_bit(lead):
    # pivot columns on the top bit of a word, with bits in the words beyond
    rng = np.random.default_rng(lead)
    mat = np.zeros((9, 260), dtype=np.int64)
    mat[:, lead + 1:] = rng.integers(0, 2, (9, 259 - lead))
    mat[:6, lead] = 1
    mat[6:, 2 * lead + 1] = 1                   # the next word's top bit
    mat[6:, lead:2 * lead + 1] = 0
    assert_packed_matches_generic(mat)
    assert ml.echelonize(F2, mat).pivots[:2] == (lead, lead + 1)


def test_packed_repeated_rows_across_word_boundary():
    # rows held in columns 40..99 and their repeats and sums: rank 6 of 14
    rng = np.random.default_rng(7)
    mat = np.zeros((14, 140), dtype=np.int64)
    mat[:6, 40:100] = rng.integers(0, 2, (6, 60))
    mat[6:12] = mat[:6]
    mat[12] = mat[0] ^ mat[3]
    mat[13] = mat[1] ^ mat[2] ^ mat[5]
    mat = mat[rng.permutation(14)]
    assert_packed_matches_generic(mat)
    assert ml.echelonize(F2, mat).rank == 6


@pytest.mark.parametrize("seed", [1, 2])
def test_packed_hybrid_minrank_macaulay(seed):
    # the b = 1 Support-Minors matrix of the MinRank hybrid: 210 x 189, rank 188
    mri = instances.gen_minrank(2, 6, 7, 8, 2, seed)
    mat = md.macaulay(md.sm_for_minrank(mri), 1).arr
    assert mat.shape == (210, 189)
    assert_packed_matches_generic(mat)
    assert ml.echelonize(F2, mat).rank == 188


def f2_expansion(fld, mat):
    """The F_2-linear map of mat over F_{2^d} on the bits of the codes.

    Entry a becomes the d x d block whose column j holds the bits of
    a * (1 << j); a matrix of rank rho over F_{2^d} expands to rank d rho.
    """
    d = fld.order.bit_length() - 1
    prods = fld.mul_arr(mat[..., None], 1 << np.arange(d))
    bits = (prods[:, None] >> np.arange(d)[None, :, None, None]) & 1
    return bits.reshape(mat.shape[0] * d, mat.shape[1] * d)


# shapes whose F_2 expansions (d times as many columns) fill one or several
# 64-column words of the packed GF(2) eliminator
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CHAR2), st.sampled_from([(1, 1), (4, 11), (6, 64), (9, 65), (40, 130)]),
       st.sampled_from(["dense", "zero-columns", "repeated-rows", "zero"]),
       st.integers(0, 2**30 - 1))
def test_char2_rank_matches_f2_expansion(fld, shape, pattern, seed):
    rng = np.random.default_rng(seed)
    mat = fld.rand_elements(rng, shape)
    if pattern == "zero-columns":
        mat[:, rng.random(shape[1]) < 0.5] = 0
        mat[:, 0] = 0
    elif pattern == "repeated-rows":
        mat[shape[0] // 2:] = mat[:shape[0] - shape[0] // 2]
    elif pattern == "zero":
        mat[:] = 0
    res = ml.echelonize(fld, mat)
    d = fld.order.bit_length() - 1
    assert ml.echelonize(F2, f2_expansion(fld, mat)).rank == d * res.rank
    assert kernel(fld, res).shape == (shape[1] - res.rank, shape[1])
    assert not ml.matmul(fld, mat, kernel(fld, res).T).any()


@pytest.mark.parametrize("fld,path", [
    (F2, "_rref_gf2"),
    (F8, "_rref_generic"),
    (F9, "_rref_generic"),
], ids=["gf2", "f8", "odd"])
def test_echelonize_picks_backend(monkeypatch, fld, path):
    called = []

    def spy(name):
        def run(*args):
            called.append(name)
            return np.zeros((3, 5), dtype=np.int64), []
        return run

    for name in ("_rref_gf2", "_rref_generic"):
        monkeypatch.setattr(ml, name, spy(name))
    ml.echelonize(fld, np.zeros((3, 5), dtype=np.int64))
    assert called == [path]


@pytest.mark.parametrize("fld", [F2, F4, F8, F9], ids=str)
def test_kernel_annihilates(fld):
    rng = np.random.default_rng(17)
    mat = fld.rand_elements(rng, (5, 8))
    res = ml.echelonize(fld, mat)
    assert res.rank + kernel(fld, res).shape[0] == 8
    assert not ml.matmul(fld, mat, kernel(fld, res).T).any()


@pytest.mark.parametrize("backend", ["echelonize", "generic"])
@pytest.mark.parametrize("fld", [F2, F8, make_base_field(3)], ids=["F2", "F8", "F3"])
@pytest.mark.parametrize("case", ["zero", "full-column-rank", "no-rows", "inner-free-column"])
def test_kernel_from_rref_edge_cases(fld, backend, case):
    # the one way a kernel is read, after either eliminator: M K^T = 0 with
    # ncols - rank independent rows, one per free column
    mat, rank, want = {
        "zero": (np.zeros((3, 4)), 0, ml.identity(4)),
        "full-column-rank": ([[1, 1, 0], [0, 1, 1], [0, 0, 1], [1, 0, 0]], 3, np.zeros((0, 3))),
        "no-rows": (np.zeros((0, 4)), 0, ml.identity(4)),
        "inner-free-column": ([[1, 1, 0, 0], [0, 0, 1, 0], [1, 1, 0, 1]], 3,
                              [[fld.neg(1), 1, 0, 0]]),
    }[case]
    mat = np.array(mat, dtype=np.int64)
    res = ml.echelonize(fld, mat) if backend == "echelonize" else generic_echelon(fld, mat)
    ker = kernel(fld, res)
    ncols = mat.shape[1]
    assert res.rank == rank and ker.shape == (ncols - rank, ncols)
    assert not ml.matmul(fld, mat, ker.T).any()
    assert ml.echelonize(fld, ker).rank == ncols - rank
    assert (ker == np.array(want, dtype=np.int64)).all()


def _matmul_scalar(fld, a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i, j in np.ndindex(out.shape):
        for t in range(a.shape[1]):
            out[i, j] = fld.add(int(out[i, j]), fld.mul(int(a[i, t]), int(b[t, j])))
    return out


@pytest.mark.parametrize("fld", [make_base_field(3), make_base_field(5), F9,
                                 make_ext_field(3, 7), make_ext_field(5, 3),
                                 F2, F4, F8, make_ext_field(2, 9)], ids=str)
def test_matmul_matches_scalar_triple_loop(fld, monkeypatch):
    rng = np.random.default_rng(fld.order)
    base = fld.base or fld

    def check(a, c):
        b = fld.rand_elements(rng, (a.shape[1], c))
        on_base = base.rand_elements(rng, (a.shape[1], c))   # as nf_bilinear passes
        for right in (b, on_base):
            assert (ml.matmul(fld, a, right) == _matmul_scalar(fld, a, right)).all()

    for r, n, c in [(4, 0, 3), (5, 6, 4), (2, 9, 1)]:
        a = fld.rand_elements(rng, (r, n))
        a[-1] = 0                                     # a zero row
        a[:, :n // 3] = 0                             # zero columns, skipped
        check(a, c)
    # row i holds min(i, 6) nonzeros, so the rows have different widths
    ragged = rng.integers(1, fld.order, (8, 6)) * (np.arange(6) < np.arange(8)[:, None])
    check(ragged, 3)
    check(fld.rand_elements(rng, (1, 7)), 5)          # a row vector
    # with a bound of 8 cells, the 20 slots of the wide row are summed in ten
    # slices of 2, and the rows of at most 2 nonzeros go 4 to a block
    monkeypatch.setattr(ml, "_MATMUL_CELLS", 8)
    wide = rng.integers(1, fld.order, (3, 20)) * (np.arange(3)[:, None] != 2)
    check(wide, 3)
    narrow = rng.integers(1, fld.order, (9, 4)) * (np.arange(4) < 2)
    check(narrow, 1)


def _rref_scalar(fld, mat):
    """Gauss-Jordan with scalar field operations: RREF, pivots, kernel."""
    a = [[int(x) for x in row] for row in mat]
    nrows, ncols = mat.shape
    pivots = []
    for c in range(ncols):
        rr = len(pivots)
        pr = next((i for i in range(rr, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[rr], a[pr] = a[pr], a[rr]
        inv = fld.inv(a[rr][c])
        a[rr] = [fld.mul(inv, x) for x in a[rr]]
        for i in range(nrows):
            if i != rr and a[i][c]:
                f = a[i][c]
                a[i] = [fld.sub(x, fld.mul(f, y)) for x, y in zip(a[i], a[rr])]
        pivots.append(c)
    free = [c for c in range(ncols) if c not in pivots]
    kernel = np.zeros((len(free), ncols), dtype=np.int64)
    for k, c in enumerate(free):
        kernel[k, c] = 1
        for i, pc in enumerate(pivots):
            kernel[k, pc] = fld.neg(a[i][c])
    return np.array(a, dtype=np.int64).reshape(mat.shape), tuple(pivots), kernel


def _one_nonzero_prefix(fld, rng, nrows, ncols, width):
    """A matrix whose first ``width`` columns hold at most one nonzero per
    row, exactly ``width`` of them if width < ncols, with a zero prefix
    column, a zero row and its rows shuffled."""
    a = np.zeros((nrows, ncols), dtype=np.int64)
    col = rng.integers(0, width, nrows)
    col[col == width // 2] = 0                        # column width // 2 stays zero
    a[range(nrows), col] = rng.integers(1, fld.order, nrows)   # non-unit pivots too
    a[:, width:] = fld.rand_elements(rng, (nrows, ncols - width)) * (
        rng.random((nrows, ncols - width)) < 0.5)
    if width < ncols:
        a[0, width] = 1                               # row 0 ends the prefix
    a[-1] = 0
    return a[rng.permutation(nrows)]


def assert_matches_scalar_gauss_jordan(fld, a):
    """Both eliminators give the scalar RREF, and ``kernel`` its kernel."""
    rref, pivots, ker = _rref_scalar(fld, a)
    for res in (ml.echelonize(fld, a), generic_echelon(fld, a)):
        assert (res.rref == rref).all() and res.pivots == pivots
    got = ml.kernel(fld, a)
    assert got.shape == ker.shape and (got == ker).all()


PREFIX_FIELDS = pytest.mark.parametrize(
    "fld", [make_base_field(3), make_ext_field(2, 9), make_ext_field(4, 5), F2],
    ids=["F3", "F2^9", "F4^5", "F2-forced"])


@PREFIX_FIELDS
@pytest.mark.parametrize("nrows,ncols,width", [
    (14, 18, 3), (14, 18, 7), (14, 18, 8), (14, 18, 12), (6, 20, 14), (12, 9, 9)])
def test_prefix_step_matches_scalar_gauss_jordan(fld, nrows, ncols, width):
    # kernel clears the leading one-nonzero columns in one step and reduces
    # only the rest; the last case has no column after the prefix
    rng = np.random.default_rng(nrows * ncols + width)
    for _ in range(4):
        a = _one_nonzero_prefix(fld, rng, nrows, ncols, width)
        assert ml._prefix_length(a) == width
        assert_matches_scalar_gauss_jordan(fld, a)


@PREFIX_FIELDS
@pytest.mark.parametrize("shape,width", [((5, 7), 1), ((0, 6), 6), ((4, 0), 0), ((4, 6), 6)],
                         ids=["dense", "no-rows", "no-columns", "all-zero"])
def test_prefix_step_edge_cases(fld, shape, width):
    # one column never holds two nonzeros of a row, so L = 0 only without
    # columns, and a dense matrix has the shortest prefix, L = 1
    a = np.zeros(shape, dtype=np.int64)
    if shape == (5, 7):
        a[:] = fld.rand_elements(np.random.default_rng(5), shape)
        a[0, :2] = 1                                  # column 1 ends the prefix
    assert ml._prefix_length(a) == width
    assert_matches_scalar_gauss_jordan(fld, a)


def test_rank_invariance_under_transforms():
    rng = np.random.default_rng(23)
    mat = F8.rand_elements(rng, (4, 7))
    rank = ml.echelonize(F8, mat).rank
    left = ml.random_invertible(F8, 4, rng)
    right = ml.random_invertible(F8, 7, rng)
    assert ml.echelonize(F8, ml.matmul(F8, left, mat)).rank == rank
    assert ml.echelonize(F8, ml.matmul(F8, mat, right)).rank == rank
    perm = rng.permutation(7)
    assert ml.echelonize(F8, mat[:, perm]).rank == rank


def test_solve_right():
    rng = np.random.default_rng(29)
    mat = F8.rand_elements(rng, (6, 4))
    v = F8.rand_elements(rng, 4)
    rhs = ml.matmul(F8, mat, v[:, None])[:, 0]
    sol = ml.solve_right(F8, mat, rhs)
    assert sol is not None
    assert (ml.matmul(F8, mat, sol[:, None])[:, 0] == rhs).all()
    assert ml.solve_right(F2, np.zeros((2, 2), dtype=np.int64),
                          np.array([1, 0])) is None


def subset_index(n, subset):
    """The closed form of a sorted subset's index in lexicographic order:
    C(n, r) - 1 - sum_u C(n - 1 - c_u, r - u), the formula that
    ``subset_table`` evaluates for its faces."""
    r = len(subset)
    return comb(n, r) - 1 - sum(comb(n - 1 - v, r - u) for u, v in enumerate(subset))


def test_subset_order_examples():
    # single subset when n = r
    assert ml.all_subsets(3, 3) == [(0, 1, 2)] and subset_index(3, (0, 1, 2)) == 0
    # order on pairs from a 3-set: {2,3} > {1,3} > {1,2} (1-based)
    assert ml.all_subsets(3, 2) == [(0, 1), (0, 2), (1, 2)]
    assert [subset_index(3, t) for t in [(0, 1), (0, 2), (1, 2)]] == [0, 1, 2]
    # the faces of {0, 2} are {2} and {0}, at indices 2 and 0
    _, drop = ml.subset_table(3, 2)
    assert drop[1].tolist() == [2, 0]


def test_subset_round_trip():
    subs = ml.all_subsets(6, 3)
    assert len(subs) == 20
    for i, t in enumerate(subs):
        assert subset_index(6, t) == i
    _, drop = ml.subset_table(6, 4)
    for t, row in zip(ml.all_subsets(6, 4), drop.tolist()):
        assert row == [subset_index(6, t[:p] + t[p + 1:]) for p in range(4)]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.data())
def test_subset_bijection_random(n, data):
    s = data.draw(st.integers(1, n))
    i = data.draw(st.integers(0, comb(n, s) - 1))
    cols, drop = ml.subset_table(n, s)
    t = tuple(cols[i].tolist())
    assert subset_index(n, t) == i
    assert drop[i].tolist() == [subset_index(n, t[:p] + t[p + 1:]) for p in range(s)]


def test_minors_identity_block():
    mat = np.concatenate([ml.identity(3), np.zeros((3, 2), dtype=np.int64)], axis=1)
    minors = ml.maximal_minors(F4, mat, 3)
    assert minors[subset_index(5, (0, 1, 2))] == 1
    assert minors.sum() == 1


def test_minors_scaling_r1():
    # r = 1: minors are the entries, so row scaling scales all minors
    rng = np.random.default_rng(31)
    row = F8.rand_elements(rng, (1, 6))
    lam = 5
    scaled = F8.mul_arr(lam, row)
    assert (ml.maximal_minors(F8, scaled, 1)
            == F8.mul_arr(lam, ml.maximal_minors(F8, row, 1))).all()


def test_minors_match_determinants():
    rng = np.random.default_rng(37)
    mat = F8.rand_elements(rng, (3, 6))
    minors = ml.maximal_minors(F8, mat, 3)
    for i, t in enumerate(ml.all_subsets(6, 3)):
        assert minors[i] == ml.determinant(F8, mat[:, list(t)])


def test_subset_table_is_cached_read_only():
    cols, drop = ml.subset_table(7, 3)
    again = ml.subset_table(7, 3)
    assert again[0] is cols and again[1] is drop
    for arr in (cols, drop):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0


def test_subset_table_faces():
    for n in range(1, 8):
        for s in range(1, n + 1):
            cols, drop = ml.subset_table(n, s)
            faces = ml.all_subsets(n, s - 1)
            assert [tuple(c) for c in cols.tolist()] == ml.all_subsets(n, s)
            for t, row in zip(ml.all_subsets(n, s), drop.tolist()):
                assert [faces[i] for i in row] == [t[:p] + t[p + 1:] for p in range(s)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 9]), st.integers(0, 7), st.integers(0, 2),
       st.sampled_from([(), (3,), (2, 2)]), st.integers(0, 2**32 - 1))
@example(3, 7, 1, (2,), 2)
@example(4, 7, 0, (2, 2), 3)
@example(5, 7, 2, (), 4)
@example(9, 7, 1, (3,), 5)
@example(9, 0, 2, (2,), 6)
def test_maximal_minors_match_determinants_on_stacks(q, r, extra, stack, seed):
    fld = make_base_field(q)
    n = r + extra
    mats = fld.rand_elements(np.random.default_rng(seed), stack + (r, n))
    minors = ml.maximal_minors(fld, mats, r)
    assert minors.shape == stack + (len(ml.all_subsets(n, r)),)
    for idx in np.ndindex(*stack):
        for i, t in enumerate(ml.all_subsets(n, r)):
            assert minors[idx + (i,)] == ml.determinant(fld, mats[idx][:, list(t)])


@pytest.mark.parametrize("s", range(1, 6))
@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_laplace_row_matches_determinants(q, s):
    # entry I is det([row; B][:, I]) for B with (s-1)-minors ``minors``: one
    # row over one B, a (K+1, n) stack over one B as the Support-Minors
    # readout takes it, and rows each over their own B as maximal_minors does
    fld = make_base_field(q)
    n = s + 2
    rng = np.random.default_rng(100 * q + s)
    subsets = ml.all_subsets(n, s)

    def expect(row, below):
        stacked = np.vstack([row, below])
        return [ml.determinant(fld, stacked[:, list(t)]) for t in subsets]

    below = fld.rand_elements(rng, (3, s - 1, n))
    minors = ml.maximal_minors(fld, below, s - 1)
    rows = fld.rand_elements(rng, (3, n))
    one = ml.laplace_row(fld, rows[0], minors[0], s)
    assert one.tolist() == expect(rows[0], below[0])
    stack = ml.laplace_row(fld, rows, minors[0], s)
    assert stack.tolist() == [expect(row, below[0]) for row in rows]
    own = ml.laplace_row(fld, rows, minors, s)
    assert own.tolist() == [expect(row, b) for row, b in zip(rows, below)]


def test_cauchy_binet_exhaustive_gf2():
    # det(A B) = sum over column subsets of paired maximal minors
    rng = np.random.default_rng(41)
    b = rng.integers(0, 2, (3, 2))
    bt_minors = ml.maximal_minors(F2, np.ascontiguousarray(b.T), 2)
    for code in range(2 ** 6):
        a = np.array([[(code >> i) & 1 for i in range(3)],
                      [(code >> (3 + i)) & 1 for i in range(3)]], dtype=np.int64)
        lhs = ml.determinant(F2, ml.matmul(F2, a, b))
        a_minors = ml.maximal_minors(F2, a, 2)
        rhs = 0
        for t in range(3):
            rhs = F2.add(rhs, F2.mul(int(a_minors[t]), int(bt_minors[t])))
        assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**30 - 1))
def test_cauchy_binet_random_f8(seed):
    rng = np.random.default_rng(seed)
    a = F8.rand_elements(rng, (2, 5))
    b = F8.rand_elements(rng, (5, 2))
    lhs = ml.determinant(F8, ml.matmul(F8, a, b))
    am = ml.maximal_minors(F8, a, 2)
    bm = ml.maximal_minors(F8, np.ascontiguousarray(b.T), 2)
    rhs = 0
    for t in range(len(am)):
        rhs = F8.add(rhs, F8.mul(int(am[t]), int(bm[t])))
    assert lhs == rhs


def test_pluecker_well_defined():
    # minors of A C equal det(A) times minors of C, entrywise
    rng = np.random.default_rng(43)
    cmat = F8.rand_elements(rng, (3, 6))
    amat = ml.random_invertible(F8, 3, rng)
    lhs = ml.maximal_minors(F8, ml.matmul(F8, amat, cmat), 3)
    rhs = F8.mul_arr(ml.determinant(F8, amat), ml.maximal_minors(F8, cmat, 3))
    assert (lhs == rhs).all()


def test_mat_of_vec_of():
    rng = np.random.default_rng(47)
    x = F8.rand_elements(rng, 5)
    mat = ml.mat_of(F8, x)
    assert mat.shape == (3, 5)
    assert [F8.from_coeffs(col) for col in mat.T.tolist()] == x.tolist()
    assert ml.rank_weight(F8, np.zeros(4, dtype=np.int64)) == 0
    # entries in the base field span at most one dimension
    assert ml.rank_weight(F8, np.array([1, 0, 1, 1])) <= 1


def test_rank_weight_equals_support_dimension():
    rng = np.random.default_rng(53)
    for _ in range(5):
        x = F8.rand_elements(rng, 5)
        # dimension of the span of the entries, via coordinate vectors (the
        # bits of a code over F_2)
        coords = (x[:, None] >> np.arange(3)) & 1
        dim = ml.echelonize(F2, coords).rank
        assert ml.rank_weight(F8, x) == dim


def test_laplace_limit_path():
    # q = 2 at r = 7 against per-subset determinants; the hypothesis test
    # draws r = 7 in the other fields
    rng = np.random.default_rng(59)
    mat = F2.rand_elements(rng, (7, 9))
    fast = ml.maximal_minors(F2, mat, 7)           # r > limit: Gaussian
    assert len(fast) == 36
    for i, t in enumerate(ml.all_subsets(9, 7)):
        assert fast[i] == ml.determinant(F2, mat[:, list(t)])
