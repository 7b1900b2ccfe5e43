"""Algebraic systems attached to an RD or MinRank instance.

Five systems are constructed here, all sharing the minor variables c_T
(Pluecker coordinates of the row space of the unknown support matrix,
indexed by r-subsets T of column positions):

* ``build_mm_fqm``: linear equations over F_{q^m} in the c_T from the
  vanishing maximal minors of C . H_y^T (one per r-subset J of the
  extended parity check rows).
* ``build_mm_fq``: its unfolding into m times as many F_q equations.
* ``build_sm_fqm``: affine bilinear equations over F_{q^m} in the k linear
  variables x and the c_T, from the maximal minors of (x G + y ; C).
* ``sm_for_minrank``: the same construction over F_q for a MinRank
  instance, one minor per row of M_0 + sum x_u M_u.
* ``build_sm_fq``: the unfolded bilinear system over F_q in k m coordinate
  variables (coincides with ``sm_for_minrank`` on the expanded MinRank
  instance; the equality is a test oracle).
* ``reduce_sm_plus``: the compact system obtained by eliminating c_T
  variables from the high-overlap bilinear equations using the linear ones.

One row reduction, ``eliminate_minors``, writes the largest c_T through
the free ones; the MaxMinors readout and ``reduce_sm_plus`` both use it.

Every minor comes from :func:`ranklab.matlin.maximal_minors`.  One function
lays out the Support-Minors systems of RD and MinRank: every equation is the
Laplace expansion of a minor along its affine first row, scattered through
the faces of :func:`ranklab.matlin.subset_table` into one coefficient array
whose affine part is the coefficient of an extra variable x_nx = 1.  At
known minors the same expansion is one :func:`ranklab.matlin.laplace_row`
step, which leaves a linear system in x (:func:`ranklab.solver.x_from_minors`);
the tests compare the two.
Unfolding reads an F_{q^m} system coordinate by coordinate: equation i of
an unfolded block applies x -> trace(b*_i x), which is digit i of the code
(:meth:`~ranklab.galois.FiniteField.coeffs_arr`).

A Macaulay matrix (:func:`macaulay`) holds the rows of one multiplier
degree, b - 1, in at most ``MAX_CELLS`` entries; the solver's
``carried_kernels`` stacks the degrees, and from b = 2 it multiplies a row
basis of the system, which ``from_rows`` reads back from the reduced b = 1
matrix.

Monomials are ordered graded reverse-lexicographically with the minor
variables below all linear variables: total degree first, then the minor
variable (larger subset index larger), then the x-part as exponent vectors
with the first variable largest.  The order is multiplicative, so leading
terms behave under multipliers; it fixes the Macaulay column layout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .galois import FiniteField
from . import matlin as ml
from .instances import CanonicalRd, MinRankInstance, rd_to_minrank

__all__ = [
    "CtLinearSystem",
    "BilinearSystem",
    "QPartition",
    "MinorElimination",
    "MacaulayMatrix",
    "MonomialBudgetError",
    "build_mm_fqm",
    "build_mm_fq",
    "build_sm_fqm",
    "build_sm_fq",
    "sm_for_minrank",
    "sm_fq_direct",
    "eliminate_minors",
    "reduce_sm_plus",
    "nf_bilinear",
    "macaulay",
    "from_rows",
    "basis_bb",
    "monomial_key",
    "leading_term",
    "subsystem",
]


class MonomialBudgetError(Exception):
    """A Macaulay matrix would have more than ``MAX_CELLS`` entries."""


MAX_CELLS = 80_000_000             # the most entries a Macaulay matrix may have


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CtLinearSystem:
    """Rows of linear equations in the minor variables c_T."""

    field: FiniteField
    coeffs: np.ndarray           # (#rows, C(n, r))
    row_labels: Tuple

    @property
    def nrows(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True)
class BilinearSystem:
    """Affine bilinear polynomials sum_{j,T} coef[p,j,T] x_j c_T with x_nx = 1.

    ``coef`` is (#polys, nx + 1, #subsets): the affine part of polynomial p
    is ``coef[p, nx]``.  ``subsets`` lists the active c_T labels for the
    coefficient columns; after elimination it shrinks to the free minors.
    """

    field: FiniteField
    subsets: Tuple[Tuple[int, ...], ...]
    coef: np.ndarray             # (#polys, nx + 1, #subsets)
    labels: Tuple                 # per-poly label: subset I, or (I, i)

    @property
    def nx(self) -> int:
        return self.coef.shape[1] - 1

    @property
    def npolys(self) -> int:
        return self.coef.shape[0]

    def eval_at(self, x: Sequence[int], ct: Sequence[int]) -> np.ndarray:
        """Evaluate every polynomial; x and ct are code vectors.  One product
        of the flat coefficients with the values of every x_j c_T, x_nx = 1."""
        fld = self.field
        P, nx1, nt = self.coef.shape
        x1 = np.append(np.asarray(x, dtype=np.int64).reshape(nx1 - 1), 1)
        terms = fld.mul_arr(x1[:, None], np.asarray(ct, dtype=np.int64).reshape(1, nt))
        return ml.matmul(fld, self.coef.reshape(P, nx1 * nt), terms.reshape(nx1 * nt, 1))[:, 0]


@dataclass(frozen=True)
class QPartition:
    """Indices of the bilinear equations by overlap with the first k+1 columns."""

    zero: Tuple[int, ...]
    one: Tuple[int, ...]
    two_plus: Tuple[int, ...]


@dataclass(frozen=True)
class MinorElimination:
    """The minors solved from the unfolded linear system, over F_q.

    ``pivot_cols`` lists the eliminated c_T (largest first in the variable
    order) and ``free_cols`` the others, ascending; row i of ``pivot_expr``
    writes c_{pivot_cols[i]} as an F_q-combination of the free minors.  No
    free minor means the system is inconsistent, one means it pins the
    minors up to a scalar.
    """

    field: FiniteField
    free_cols: Tuple[int, ...]        # indices into the full subset list
    pivot_cols: Tuple[int, ...]
    pivot_expr: np.ndarray            # (#pivots, #free) over F_q

    @property
    def expression(self) -> np.ndarray:
        """(#minors, #free) over F_q: row T writes c_T in the free minors,
        a unit row at a free minor and its ``pivot_expr`` row at a pivot."""
        nfree = len(self.free_cols)
        out = np.zeros((nfree + len(self.pivot_cols), nfree), dtype=np.int64)
        out[list(self.free_cols), np.arange(nfree)] = 1
        out[list(self.pivot_cols)] = self.pivot_expr
        return out

    def expand(self, c_free: np.ndarray) -> np.ndarray:
        """The full minor vector whose free minors are ``c_free``."""
        c_free = np.asarray(c_free, dtype=np.int64)
        return ml.matmul(self.field, self.expression, c_free[:, None])[:, 0]


# ---------------------------------------------------------------------------
# MaxMinors systems
# ---------------------------------------------------------------------------

def build_mm_fqm(can: CanonicalRd) -> CtLinearSystem:
    """Linear system over F_{q^m}: row J holds the minors of H_y rows J.

    The coefficient of c_T in row J is the (J, T) minor of the extended
    parity check, so the leading coefficient (at T = J shifted past the
    systematic block) is 1 and the planted minors vanish on every row.
    """
    fld = can.field
    n, k, r = can.n, can.k, can.r
    js = ml.all_subsets(n - k - 1, r)
    rows = ml.maximal_minors(fld, can.h_y[np.array(js, dtype=np.intp).reshape(len(js), r)], r)
    return CtLinearSystem(fld, rows, tuple(js))


def build_mm_fq(mm: CtLinearSystem) -> CtLinearSystem:
    """Unfold an F_{q^m} linear system into m times as many F_q rows.

    Row (p, i) holds trace(b*_i c) for each coefficient c of row p.
    """
    fld = mm.field
    m = fld.degree
    nt = mm.coeffs.shape[1]                 # also when no r-subset J exists
    out = fld.coeffs_arr(mm.coeffs).transpose(0, 2, 1).reshape(mm.nrows * m, nt)
    labels = tuple((lab, i) for lab in mm.row_labels for i in range(m))
    return CtLinearSystem(fld.base, out, labels)


# ---------------------------------------------------------------------------
# Support-Minors systems
# ---------------------------------------------------------------------------

def _support_minors(fld: FiniteField, rows: np.ndarray, r: int, labels: Tuple) -> BilinearSystem:
    """The Support-Minors system of the affine rows row_0 + sum_u x_u row_u.

    ``rows`` (K+1, ..., n) is (y, G) of a canonical form or (M_0, ..., M_K)
    of a MinRank instance.  Polynomial (I, ...)
    expands the minor at the (r+1)-subset I of the affine row over the
    support matrix along that row: entry pos of I goes, signed by pos, to
    c_T for T the face without it.  Polynomials run over I, then over the
    middle axes of ``rows``.
    """
    n = np.shape(rows)[-1]
    subsets = tuple(ml.all_subsets(n, r))
    cols, drop = ml.subset_table(n, r + 1)
    # vals[p, i, u, pos]: row i of entry u + 1 (entry 0 last) at position pos of subset p
    rolled = np.roll(np.reshape(rows, (len(rows), -1, n)), -1, axis=0)
    vals = rolled[..., cols].transpose(2, 1, 0, 3)
    vals[..., 1::2] = fld.neg_arr(vals[..., 1::2])
    coef = np.zeros(vals.shape[:-1] + (len(subsets),), dtype=np.int64)
    # the faces of one subset are distinct, so entries are assigned
    np.put_along_axis(coef, drop[:, None, None], vals, axis=-1)
    return BilinearSystem(fld, subsets, coef.reshape(-1, len(rows), len(subsets)), labels)


def build_sm_fqm(can: CanonicalRd) -> Tuple[BilinearSystem, QPartition]:
    """Bilinear system over F_{q^m} from the minors of (x G + y ; C).

    The Support-Minors system of the affine row y + x G: the minor at
    columns I is a signed sum over i in I of (x G + y)_i c_{I minus i}.  The
    partition counts the elements of I among the first k + 1 positions.
    """
    cols = ml.subset_table(can.n, can.r + 1)[0]
    sys = _support_minors(can.field, np.concatenate([can.received[None, :], can.gen]), can.r,
                          tuple(map(tuple, cols.tolist())))
    overlap = (cols <= can.k).sum(axis=1)
    part = QPartition(*(tuple(np.flatnonzero(sel).tolist())
                        for sel in (overlap == 0, overlap == 1, overlap >= 2)))
    return sys, part


def build_sm_fq(sm: BilinearSystem) -> BilinearSystem:
    """Unfold the extension-field bilinear system into F_q coordinates.

    Linear variable (j, l) -> j m + l is the coefficient of basis element l
    in x_j; polynomial (I, i) applies the i-th coordinate extraction, so
    its coefficient of x_{j,l} c_T is digit i of z^l times that of x_j c_T.
    The affine part is the block of (nx, 0), as z^0 = 1.
    """
    fld = sm.field
    m = fld.degree
    P, k1, nt = sm.coef.shape
    # digit i of z^l times coef[p, j, t] at [p, i, j, l, t]
    digits = fld.coeffs_arr(fld.mul_arr(np.array(fld.basis)[:, None, None, None], sm.coef))
    coef = digits.transpose(1, 4, 2, 0, 3).reshape(P * m, k1 * m, nt)[:, :(k1 - 1) * m + 1]
    labels = tuple((lab, i) for lab in sm.labels for i in range(m))
    return BilinearSystem(fld.base, sm.subsets, coef, labels)


def sm_for_minrank(inst: MinRankInstance) -> BilinearSystem:
    """Generic bilinear modeling of a MinRank instance over F_q.

    The Support-Minors system of the rows of M_0 + sum x_u M_u: polynomial
    (I, i) is the minor at columns I of row i stacked on the support matrix.
    """
    cols = ml.subset_table(inst.n, inst.r + 1)[0]
    labels = tuple((i_set, i) for i_set in map(tuple, cols.tolist()) for i in range(inst.m))
    return _support_minors(inst.field, inst.mats, inst.r, labels)


def sm_fq_direct(can: CanonicalRd) -> BilinearSystem:
    """Independent construction of the unfolded system via the MinRank view.

    Builds the coordinate-matrix expansion of the instance and applies the
    generic MinRank modeling; coefficientwise equality with
    :func:`build_sm_fq` is the cross-construction oracle.  Row and variable
    orders match the unfolding conventions, so the comparison is direct.
    """
    from .instances import RdInstance

    rd = RdInstance(can.field, can.n, can.k, can.r, can.gen, can.received, None)
    return sm_for_minrank(rd_to_minrank(rd))


def subsystem(sys: BilinearSystem, indices: Sequence[int]) -> BilinearSystem:
    idx = list(indices)
    return BilinearSystem(sys.field, sys.subsets, sys.coef[idx],
                          tuple(sys.labels[i] for i in idx))


# ---------------------------------------------------------------------------
# elimination of minors by the linear system
# ---------------------------------------------------------------------------

def eliminate_minors(mm_fq: CtLinearSystem) -> MinorElimination:
    """Solve the unfolded linear system for its largest minors.

    One row reduction of the column-reversed matrix puts the pivots on the
    largest c_T in the variable order, matching normal-form semantics;
    c_pivot = - sum over free of the rref coefficient times c_free.
    """
    base = mm_fq.field
    nt = mm_fq.coeffs.shape[1]
    res = ml.echelonize(base, mm_fq.coeffs[:, ::-1])
    pivot_cols = tuple(nt - 1 - p for p in res.pivots)
    free = np.delete(np.arange(nt), pivot_cols)
    expr = base.neg_arr(res.rref[:res.rank, nt - 1 - free])
    return MinorElimination(base, tuple(free.tolist()), pivot_cols, expr)


def reduce_sm_plus(sm: BilinearSystem, part: QPartition, elim: MinorElimination) -> BilinearSystem:
    """Substitute the eliminated minors into the high-overlap equations; the
    result has the free minors of ``elim`` as columns."""
    return nf_bilinear(elim, sm, part.two_plus)


def nf_bilinear(elim: MinorElimination, sm: BilinearSystem, rows: Sequence[int]) -> BilinearSystem:
    """Normal form of bilinear rows under the elimination: each eliminated
    c_T is replaced by its expression in the free minors, so the rows are
    one product with the elimination's expression matrix."""
    fld = sm.field
    idx = list(rows)
    coef = sm.coef[idx]
    P, k1, nt = coef.shape
    nfree = len(elim.free_cols)
    new = ml.matmul(fld, coef.reshape(P * k1, nt), elim.expression).reshape(P, k1, nfree)
    subsets = tuple(sm.subsets[c] for c in elim.free_cols)
    return BilinearSystem(fld, subsets, new, tuple(sm.labels[i] for i in idx))


# ---------------------------------------------------------------------------
# monomial order, leading terms, Macaulay matrices
# ---------------------------------------------------------------------------

def monomial_key(alpha: Tuple[int, ...], tidx: int):
    """Sort key; smaller key = larger monomial.

    Graded reverse-lexicographic with the minor variables smallest: total
    degree first, then the minor variable (the rightmost position where two
    equal-degree monomials differ is always a minor variable, so a larger
    subset wins), and only then the x-part, compared as exponent vectors
    with the first variable largest.  alpha is the x-multiset as a sorted
    tuple of variable indices; ascending tuple comparison is exactly
    descending exponent-lex, and it is multiplicative.
    """
    return (-(len(alpha) + 1), -tidx, alpha)


def leading_term(sys: BilinearSystem, p: int) -> Tuple[Optional[int], int]:
    """(x index or None, subset column index) of the largest monomial of poly p."""
    nx = sys.nx
    terms = [(() if j == nx else (j,), t) for j, t in np.argwhere(sys.coef[p]).tolist()]
    if not terms:
        raise ValueError("zero polynomial has no leading term")
    alpha, t = min(terms, key=lambda term: monomial_key(*term))
    return (alpha[0] if alpha else None), t


@dataclass(frozen=True)
class MacaulayMatrix:
    """Coefficient matrix of multiplier times polynomial rows.

    Columns are the monomials actually occurring, largest first under the
    fixed order; ``col_labels`` holds (multiset multiplier, subset column
    index) pairs referring to ``subsets``.
    """

    field: FiniteField
    arr: np.ndarray
    row_labels: Tuple            # (alpha, poly label)
    col_labels: Tuple            # (alpha, column index into subsets)
    subsets: Tuple[Tuple[int, ...], ...]
    b: int


def _degree_tuples(nx: int, d: int) -> List[Tuple[int, ...]]:
    return list(itertools.combinations_with_replacement(range(nx), d))


def macaulay(sys: BilinearSystem, b: int) -> MacaulayMatrix:
    """Multiply the system by the x-monomials of degree b-1 and lay out the
    coefficient matrix.

    These exact-degree rows span what the counting formulas count; the
    linearization solver stacks them degree by degree under the kernel it
    carries from b - 1.  Rows run over the multipliers, and over the
    polynomials within one multiplier.
    """
    if b < 1:
        raise ValueError("need b >= 1")
    mults = _degree_tuples(sys.nx, b - 1)
    row_mult = np.repeat(np.arange(len(mults)), sys.npolys)
    row_poly = np.tile(np.arange(sys.npolys), len(mults))
    return _layout(sys, mults, row_mult, row_poly, b)


def from_rows(sys: BilinearSystem, mac: MacaulayMatrix, rows: np.ndarray) -> BilinearSystem:
    """The polynomials in the variables of ``sys`` whose coefficients on the
    columns of ``mac``, a b = 1 Macaulay matrix of ``sys``, are ``rows``.

    With the nonzero rows of that matrix's RREF this is a row basis of
    ``sys``: the same span of polynomials, with no dependent one.
    """
    nx, nt = sys.nx, len(sys.subsets)
    var = [alpha[0] if alpha else nx for alpha, _t in mac.col_labels]
    sub = [t for _alpha, t in mac.col_labels]
    coef = np.zeros((rows.shape[0], nx + 1, nt), dtype=np.int64)
    coef[:, var, sub] = rows
    return BilinearSystem(sys.field, sys.subsets, coef, tuple(range(rows.shape[0])))


def _layout(sys: BilinearSystem, mults: Sequence[Tuple[int, ...]], row_mult: np.ndarray,
            row_poly: np.ndarray, b: int) -> MacaulayMatrix:
    """The Macaulay matrix with rows x^mults[row_mult[i]] f_{row_poly[i]}.

    Every position comes from index arithmetic.  The monomial x^beta c_t of
    degree e (= len(beta)) has the id base[e] + (nt - 1 - t) N_e + idx_e(beta),
    where idx_e is the position of beta among the N_e degree-e multisets in
    ``combinations_with_replacement`` order and the blocks of higher degree
    come first, so ascending ids are the ``monomial_key`` order.  The affine
    part is read as the coefficient of an extra variable x_nx = 1, and a
    table gives, for each multiplier alpha and variable j, idx(alpha + j)
    (idx(alpha) for j = nx).  No two terms of one row share a monomial, so
    entries are assigned, not summed.  The columns are the ids that occur,
    read from a presence bitmap over the id range [0, base[0] + nt N_0)
    and numbered by its running count, with no sort; ``MAX_CELLS`` is
    checked against them before the matrix is allocated.
    """
    nx, nt = sys.nx, len(sys.subsets)
    top = b                                         # multipliers have degree < b
    monos = [_degree_tuples(nx, e) for e in range(top + 1)]
    index = [{beta: i for i, beta in enumerate(ms)} for ms in monos]
    sizes = np.array([len(ms) for ms in monos], dtype=np.int64)
    base = np.zeros(top + 1, dtype=np.int64)
    for e in range(top - 1, -1, -1):
        base[e] = base[e + 1] + nt * sizes[e + 1]
    mult_deg = np.array([len(a) for a in mults], dtype=np.int64)
    step = np.array([[index[len(a) + 1][tuple(sorted(a + (j,)))] for j in range(nx)]
                     + [index[len(a)][a]] for a in mults],
                    dtype=np.int64).reshape(len(mults), nx + 1)
    tp, tj, tt = np.nonzero(sys.coef)               # ordered by polynomial
    # row i takes the run of its polynomial's terms, starting at searchsorted(tp, p_i)
    counts = np.bincount(tp, minlength=sys.npolys)[row_poly]
    row = np.repeat(np.arange(row_poly.size), counts)
    term = np.arange(row.size) + np.repeat(
        np.searchsorted(tp, row_poly) - np.cumsum(counts) + counts, counts)
    a, j, t = row_mult[row], tj[term], tt[term]
    deg = mult_deg[a] + (j < nx)
    ids = base[deg] + (nt - 1 - t) * sizes[deg] + step[a, j]
    present = np.zeros(base[0] + nt * sizes[0], dtype=bool)
    present[ids] = True
    cols = np.flatnonzero(present)
    col_of = (np.cumsum(present) - 1)[ids]
    nrows = row_poly.size
    if nrows * cols.size > MAX_CELLS:
        raise MonomialBudgetError(f"{nrows} x {cols.size} exceeds the cell budget")
    arr = np.zeros((nrows, cols.size), dtype=np.int64)
    arr[row, col_of] = sys.coef[tp[term], j, t]
    # the occurring ids back to (beta, t) labels
    deg = top + 1 - np.searchsorted(base[::-1], cols, side="right")
    rem = cols - base[deg]
    col_labels = tuple((monos[e][i], s) for e, i, s in zip(
        deg.tolist(), (rem % sizes[deg]).tolist(), (nt - 1 - rem // sizes[deg]).tolist()))
    row_labels = tuple((mults[a], sys.labels[p])
                       for a, p in zip(row_mult.tolist(), row_poly.tolist()))
    return MacaulayMatrix(sys.field, arr, row_labels, col_labels, sys.subsets, b)


def top_block(mac: MacaulayMatrix) -> np.ndarray:
    """Columns of exact bi-degree (b, 1): the homogeneous top of the rows.

    The proved dimension counts concern the span of the top parts; the
    affine matrix can have strictly larger rank through degree falls.
    """
    cols = [i for i, (alpha, _) in enumerate(mac.col_labels) if len(alpha) == mac.b]
    return mac.arr[:, cols]


def basis_bb(sys: BilinearSystem, part: QPartition, b: int) -> MacaulayMatrix:
    """The no-computation basis rows of the degree-(b,1) span.

    Takes each high-overlap polynomial whose second-smallest column is in
    the first k+1 positions and multiplies it by the monomials of degree
    b-1 supported on variables at or after its smallest column.
    """
    mults = _degree_tuples(sys.nx, b - 1)
    position = {a: i for i, a in enumerate(mults)}
    row_mult, row_poly = [], []
    for p in part.two_plus:
        first = sys.labels[p][0]
        for alpha in itertools.combinations_with_replacement(range(first, sys.nx), b - 1):
            row_mult.append(position[alpha])
            row_poly.append(p)
    return _layout(sys, mults, np.array(row_mult, dtype=np.int64),
                   np.array(row_poly, dtype=np.int64), b)
