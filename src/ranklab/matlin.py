"""Dense exact linear algebra over finite field handles.

A matrix is a 2-D numpy array of element codes together with the
:class:`~ranklab.galois.FiniteField` that owns the codes; all functions here
take the field as their first argument and never mutate their inputs.
:func:`matmul` is the one linear-combination primitive: outside the row
reducers, a sum c_1 row_1 + ... of field codes is a product through it.
:func:`laplace_row` is the one minor step, shared by :func:`maximal_minors`
(Pluecker coordinates of stacks of matrices, one step per row) and the
Support-Minors readout of x in :mod:`ranklab.solver`.  Also here: the
subset tables that label and index the minor variables, and the coordinate
matrix of an extension-field vector over its coordinate field.

Row reduction has two backends, cross-checked in the test suite, and
``echelonize`` picks one from the field:

* GF(2): a Gauss-Jordan on one matrix whose rows are packed into uint64
  words, stored word-major (word w of every row in one contiguous run), so
  XORing a pivot row into the other rows with the pivot bit is one
  contiguous masked pass over the words from the pivot column's word on.
* Every other field: a generic table-driven Gauss-Jordan, exact in every
  characteristic.  It updates only the rows that hold the pivot column,
  which suits the sparse Macaulay matrices.

:func:`kernel` reads a kernel without the RREF: it clears the leading
one-nonzero columns (of the carried Macaulay matrices from b = 2) in one
step and reduces only their Schur complement.

:func:`matmul` takes the logs of each operand once and forms every term
as one exp gather of a sum of logs, summing over the slot axis.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from .galois import FiniteField

__all__ = [
    "EchelonResult",
    "echelonize",
    "kernel_from_rref",
    "kernel",
    "pack_gf2",
    "unpack_gf2",
    "solve_right",
    "matmul",
    "determinant",
    "laplace_row",
    "maximal_minors",
    "all_subsets",
    "subset_table",
    "mat_of",
    "rank_weight",
    "random_full_rank",
    "random_invertible",
    "identity",
]


@dataclass(frozen=True)
class EchelonResult:
    """Reduced row-echelon data: rank, RREF array and pivot columns; a
    caller that reads the kernel takes :func:`kernel_from_rref` of them."""

    rank: int
    rref: np.ndarray
    pivots: Tuple[int, ...]


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


_MATMUL_CELLS = 1 << 16      # bound on the cells of each temporary of matmul


def matmul(fld: FiniteField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the field; a is (r x n), b is (n x c).

    Only the nonzero entries of a are multiplied: term k of output row i is
    the k-th nonzero of row i times the matching row of b.  The logs of a's
    nonzeros go into a (r, width) slot array, padding slots holding the log
    of 0, and the logs of b are taken once.  A block of rows forms its terms
    as one exp gather of the (rows, slots, c) log sums and adds them over
    the slot axis with one ``sum_arr``; blocks hold at most ``_MATMUL_CELLS``
    terms, and a row with more is summed in slices of its slots, whose
    partial sums are added.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    nrows, ncols = a.shape[0], b.shape[1]
    out = np.zeros((nrows, ncols), dtype=np.int64)
    rows, inner = np.nonzero(a)                   # row-major, so rows ascend
    if rows.size == 0 or ncols == 0:
        return out
    width = int(np.bincount(rows).max())
    slot = np.arange(rows.size) - np.searchsorted(rows, rows)
    coef = np.zeros((nrows, width), dtype=np.int64)
    coef[rows, slot] = a[rows, inner]
    la = fld.log_arr(coef)[:, :, None]
    at = np.zeros((nrows, width), dtype=np.intp)  # padding slots hold the log of 0
    at[rows, slot] = inner
    lb = fld.log_arr(b)
    step = max(1, _MATMUL_CELLS // ncols)         # slots per slice
    block = max(1, _MATMUL_CELLS // (ncols * width))
    for lo in range(0, nrows, block):
        rs = slice(lo, lo + block)
        for s in range(0, width, step):
            terms = fld.exp_arr(la[rs, s:s + step] + lb[at[rs, s:s + step]])
            part = fld.sum_arr(terms.transpose(0, 2, 1))
            out[rs] = part if s == 0 else fld.add_arr(out[rs], part)
    return out


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------

def _rref_generic(fld: FiniteField, mat: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Table-driven Gauss-Jordan for any field, one column at a time.

    Left of the pivot column the pivot row is zero (every earlier column
    was cleared below its pivot, or had no pivot below the current row), so
    the scaling and the updates touch only columns >= c, and only rows with
    a nonzero entry in column c.
    """
    a = np.array(mat, dtype=np.int64)
    nrows, ncols = a.shape
    pivots: List[int] = []
    for c in range(ncols):
        rr = len(pivots)
        if rr == nrows:
            break
        nz = a[rr:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pr = rr + int(nz[0])
        if pr != rr:
            a[[rr, pr]] = a[[pr, rr]]
        pv = int(a[rr, c])
        if pv != 1:
            a[rr, c:] = fld.mul_arr(a[rr, c:], fld.inv(pv))
        f = a[:, c].copy()
        f[rr] = 0
        rows = f.nonzero()[0]
        if rows.size:
            neg_f = fld.neg_arr(f[rows])
            a[rows, c:] = fld.add_arr(a[rows, c:], fld.mul_arr(neg_f[:, None], a[rr, c:]))
        pivots.append(c)
    return a, pivots


def pack_gf2(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of a 0/1 array into uint64 words.

    Column c lands in word c // 64 at bit c % 64; trailing bits are zero.
    """
    bits = np.asarray(bits)
    ncols = bits.shape[-1]
    padded = np.zeros(bits.shape[:-1] + (64 * ((ncols + 63) // 64),), dtype=np.uint8)
    padded[..., :ncols] = bits
    octets = np.packbits(padded, axis=-1, bitorder="little")
    return octets.view("<u8").astype(np.uint64, copy=False)


def unpack_gf2(packed: np.ndarray, ncols: int) -> np.ndarray:
    """Inverse of :func:`pack_gf2`: the first ``ncols`` bits as int64 0/1."""
    octets = np.ascontiguousarray(packed, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=ncols, bitorder="little").astype(np.int64)


def _rref_gf2(mat: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Gauss-Jordan over GF(2) on packed rows, stored word-major.

    ``words[w, i]`` holds columns 64w..64w+63 of row i, so the words from a
    column's word on form one contiguous block over all rows.  Per column,
    shifting its bit into the sign bit of each int64 word and back gives a
    0 / all-ones mask of the rows holding it; ``free`` is all ones on the
    rows that hold no pivot yet.  The pivot row is the first free row with
    the bit (the first -1 of ``mask & free``); it is XORed, through the
    mask, into every other row with the bit in one pass, and stays where it
    is.  Left of the column the pivot row is zero, so the XOR starts at the
    column's word.  The rows are put in echelon order once at the end: pivot
    rows by pivot column, then the free rows, which are zero.
    """
    nrows, ncols = mat.shape
    packed = np.ascontiguousarray(pack_gf2(mat).T)
    words = packed.view(np.int64)
    free = np.full(nrows, -1, dtype=np.int64)
    pivots: List[int] = []
    order: List[int] = []
    for c in range(ncols):
        if len(pivots) == nrows:
            break
        w = c // 64
        mask = (words[w] << (63 - c % 64)) >> 63
        cand = mask & free
        p = int(cand.argmin())
        if not cand[p]:
            continue
        mask[p] = 0
        words[w:] ^= words[w:, p, None] & mask
        free[p] = 0
        pivots.append(c)
        order.append(p)
    order += np.flatnonzero(free).tolist()
    return unpack_gf2(packed.T[order], ncols), pivots


def echelonize(fld: FiniteField, mat: np.ndarray) -> EchelonResult:
    """RREF with rank and pivot columns."""
    mat = np.asarray(mat, dtype=np.int64)
    if mat.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if fld.order == 2:
        rref, pivots = _rref_gf2(mat)
    else:
        rref, pivots = _rref_generic(fld, mat)
    return EchelonResult(len(pivots), rref, tuple(pivots))


def kernel_from_rref(fld: FiniteField, rref: np.ndarray, pivots: Sequence[int]) -> np.ndarray:
    """Right-kernel basis of a matrix in RREF, one row per free column."""
    ncols = rref.shape[1]
    pivots = list(pivots)
    piv_set = set(pivots)
    free = [c for c in range(ncols) if c not in piv_set]
    kernel = np.zeros((len(free), ncols), dtype=np.int64)
    if free:
        kernel[range(len(free)), free] = 1
        kernel[:, pivots] = fld.neg_arr(rref[:len(pivots), free].T)
    return kernel


def _prefix_length(a: np.ndarray) -> int:
    """The number L of leading columns in which no row holds two nonzeros:
    the smallest column that holds some row's second nonzero, else ncols."""
    if 0 in a.shape:
        return a.shape[1]
    nz = a != 0
    at = np.arange(a.shape[0])
    nz[at, nz.argmax(axis=1)] = False
    second = nz.argmax(axis=1)
    second[~nz[at, second]] = a.shape[1]
    return int(second.min())


def kernel(fld: FiniteField, mat: np.ndarray) -> np.ndarray:
    """:func:`kernel_from_rref` of mat's RREF, without forming that RREF.

    In the L leading columns no row holds two nonzeros.  The first row
    holding such a column is its pivot; scaled to 1 and taken after column
    L, the pivots form T, and one product with T clears the other rows.
    With the rows holding no prefix column those form S, which alone is
    reduced.  A kernel vector z of S gives (-T z on the prefix pivot
    columns, z after L), a zero prefix column a unit vector: per free column
    the row kernel_from_rref gives, since its free coordinates fix it.
    """
    mat = np.asarray(mat, dtype=np.int64)
    width = _prefix_length(mat)
    rows, cols = np.divmod(np.flatnonzero(mat[:, :width] != 0), width)   # rows ascend
    pcols, first = np.unique(cols, return_index=True)
    prow = rows[first]
    t = fld.mul_arr(mat[prow, width:], fld.inv_arr(mat[prow, pcols])[:, None])
    alone = np.bincount(rows, minlength=mat.shape[0]) == 0      # no prefix column
    rows, cols = np.delete(rows, first), np.delete(cols, first)
    cleared = fld.sub_arr(mat[rows, width:], fld.mul_arr(mat[rows, cols][:, None],
                                                         t[np.searchsorted(pcols, cols)]))
    res = echelonize(fld, np.concatenate([cleared, mat[alone, width:]]))
    ker = kernel_from_rref(fld, res.rref, res.pivots)
    unit = np.flatnonzero(np.bincount(pcols, minlength=width) == 0)
    out = np.zeros((unit.size + ker.shape[0], mat.shape[1]), dtype=np.int64)
    out[np.arange(unit.size), unit] = 1
    out[unit.size:, width:] = ker
    out[unit.size:, pcols] = fld.neg_arr(matmul(fld, ker, t.T))
    return out


def solve_right(fld: FiniteField, mat: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """One solution v of mat v^T = rhs^T, or None if inconsistent.

    Free coordinates are set to zero, so the answer is deterministic.
    """
    mat = np.asarray(mat, dtype=np.int64)
    rhs = np.asarray(rhs, dtype=np.int64).reshape(-1)
    aug = np.concatenate([mat, rhs[:, None]], axis=1)
    res = echelonize(fld, aug)
    ncols = mat.shape[1]
    if ncols in res.pivots:
        return None
    v = np.zeros(ncols, dtype=np.int64)
    for row, pc in enumerate(res.pivots):
        v[pc] = res.rref[row, ncols]
    return v


def determinant(fld: FiniteField, mat: np.ndarray) -> int:
    """Exact determinant by Gaussian elimination (no normalization)."""
    a = np.array(mat, dtype=np.int64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("determinant of a non-square matrix")
    det = 1
    for c in range(n):
        nz = np.nonzero(a[c:, c])[0]
        if nz.size == 0:
            return 0
        pr = c + int(nz[0])
        if pr != c:
            a[[c, pr]] = a[[pr, c]]
            det = fld.neg(det)
        pv = int(a[c, c])
        det = fld.mul(det, pv)
        below = a[c + 1:, c].copy()
        mask = below != 0
        if mask.any():
            factors = fld.neg_arr(fld.mul_arr(below[mask], fld.inv(pv)))
            a[c + 1:][mask] = fld.add_arr(a[c + 1:][mask], fld.mul_arr(factors[:, None], a[c]))
    return det


def random_full_rank(fld: FiniteField, rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform rows x cols matrix conditioned on full rank min(rows, cols)."""
    while True:
        m = fld.rand_elements(rng, (rows, cols))
        if echelonize(fld, m).rank == min(rows, cols):
            return m


def random_invertible(fld: FiniteField, n: int, rng: np.random.Generator) -> np.ndarray:
    return random_full_rank(fld, n, n, rng)


# ---------------------------------------------------------------------------
# subset indexing (labels of the minor variables)
# ---------------------------------------------------------------------------

def all_subsets(n: int, r: int) -> List[Tuple[int, ...]]:
    """All r-subsets of range(n) in index order (ascending variable order)."""
    return list(itertools.combinations(range(n), r))


@functools.lru_cache(maxsize=256)
def subset_table(n: int, s: int) -> Tuple[np.ndarray, np.ndarray]:
    """The s-subsets (s >= 1) of range(n) in index order, and their faces.

    Returns ``cols`` (C(n, s), s), the sorted elements of each subset, and
    ``drop`` (C(n, s), s), where ``drop[i, pos]`` is the index among the
    (s-1)-subsets of subset i without its element at position ``pos``.
    Index order is lexicographic, so a sorted subset c has the index
    C(n, s) - 1 - sum_u C(n - 1 - c_u, s - u).  Cached, so read-only.
    """
    binom = np.array([[comb(a, b) for b in range(n + 1)] for a in range(n + 1)],
                     dtype=np.int64)
    cols = np.array(all_subsets(n, s), dtype=np.intp).reshape(comb(n, s), s)
    faces = np.stack([np.delete(cols, pos, axis=1) for pos in range(s)], axis=1)
    drop = comb(n, s - 1) - 1 - binom[n - 1 - faces, s - 1 - np.arange(s - 1)].sum(axis=-1)
    for arr in (cols, drop):
        arr.setflags(write=False)
    return cols, drop.reshape(-1, s)


# ---------------------------------------------------------------------------
# maximal minors
# ---------------------------------------------------------------------------

def laplace_row(fld: FiniteField, rows: np.ndarray, minors: np.ndarray, s: int) -> np.ndarray:
    """The s-minors of a row stacked on a matrix, from the matrix's (s-1)-minors.

    ``rows`` (..., n) and ``minors`` (..., C(n, s - 1)) broadcast over their
    leading axes.  Entry [..., I] is the minor at the s-subset I expanded
    along the row: the sum over positions pos of (-1)^pos row[I_pos] times
    the minor at the face of I without I_pos.
    """
    cols, drop = subset_table(np.shape(rows)[-1], s)
    terms = fld.mul_arr(np.asarray(rows)[..., cols], np.asarray(minors)[..., drop])
    terms[..., 1::2] = fld.neg_arr(terms[..., 1::2])
    return fld.sum_arr(terms)


def maximal_minors(fld: FiniteField, mat: np.ndarray, r: int) -> np.ndarray:
    """All r x r minors of each r x n matrix of a (..., r, n) stack.

    The result has shape (..., C(n, r)), in subset index order: the minors
    of the last s rows, for s = 1, ..., r, each by one :func:`laplace_row`
    step from those of the last s - 1.  Exact at every q.
    """
    mat = np.asarray(mat, dtype=np.int64)
    if mat.ndim < 2 or mat.shape[-2] != r:
        raise ValueError("matrix must have exactly r rows")
    if r > mat.shape[-1]:
        raise ValueError("need at least r columns")
    minors = np.ones(mat.shape[:-2] + (1,), dtype=np.int64)
    for s in range(1, r + 1):
        minors = laplace_row(fld, mat[..., r - s, :], minors, s)
    return minors


# ---------------------------------------------------------------------------
# coordinate expansion of extension-field vectors
# ---------------------------------------------------------------------------

def mat_of(ext: FiniteField, vec: Sequence[int]) -> np.ndarray:
    """m x n base-field matrix whose column j holds the coordinates of vec[j]."""
    return ext.coeffs_arr(vec).T


def rank_weight(ext: FiniteField, vec: Sequence[int]) -> int:
    """Rank of the coordinate expansion = dimension of the span of entries."""
    return echelonize(ext.coord_field, mat_of(ext, vec)).rank
