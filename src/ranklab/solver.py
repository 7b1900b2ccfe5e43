"""Solving the constructed systems by linearization and recovering errors.

The decoding loop tries increasing error weights; per weight it builds the
linear minor system and eliminates the largest minors from it once.  When
one minor is left free the minors are read off directly (MaxMinors);
otherwise, or when SM+ is forced, the elimination is substituted into the
bilinear system, which is linearized at increasing bi-degree until the
kernel is a line whose minor block gives the minors.  One generator makes
the kernels of every Support-Minors system (:func:`carried_kernels`; else
only the oracle reads kernels): at bi-degree b only the rows of multiplier
degree b - 1, taken from a row basis of the system, are reduced, against
the kernel carried from b - 1; they meet its columns only through their
affine parts, so the carried block is one product with the row basis's
affine block; only the kernel of that step is formed, by
:func:`ranklab.matlin.kernel`.  Every path then has one readout: at known
minors the Support-Minors equations are linear in x (:func:`x_from_minors`,
one :func:`ranklab.matlin.laplace_row` step), and the candidate they give
is verified against the instance before being returned.

Also provides an exhaustive support-enumeration decoder for desk-scale
instances; it is independent of the algebraic path and doubles as the
uniqueness oracle for instance generation.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from .galois import FiniteField
from . import matlin as ml
from .instances import CanonicalRd, MinRankInstance, RdInstance, canonicalize
from . import modelings as md

__all__ = [
    "Indeterminate",
    "Inconsistent",
    "RdSolution",
    "DecodeConfig",
    "MODELINGS",
    "solve_mm_linear",
    "Kernel",
    "carried_kernels",
    "solve_linearized",
    "x_from_minors",
    "decode_rd",
    "solve_minrank_linearized",
    "verify_rd",
    "verify_minrank",
    "rd_solutions_brute",
    "expected_spurious_decodings",
    "gaussian_binomial",
]


@dataclass(frozen=True)
class Indeterminate:
    kernel_dim: int


@dataclass(frozen=True)
class Inconsistent:
    pass


Outcome = Union[np.ndarray, Indeterminate, Inconsistent]


# ---------------------------------------------------------------------------
# kernels of linearized systems, and the readout of x
# ---------------------------------------------------------------------------

def _normalized(fld: FiniteField, vec: np.ndarray) -> Outcome:
    """vec scaled so that its largest nonzero entry (in the variable order)
    is 1; Indeterminate(1) when it has none."""
    nz = np.flatnonzero(vec)
    if nz.size == 0:
        return Indeterminate(1)
    return fld.mul_arr(vec, fld.inv(int(vec[nz[-1]])))


def solve_mm_linear(elim: md.MinorElimination) -> Outcome:
    """The minor vector pinned by the linear minor system, if it is.

    Returns it normalized so that its largest nonzero entry (in the
    variable order) is 1; callers escalate on Indeterminate and raise the
    target weight on Inconsistent.
    """
    nfree = len(elim.free_cols)
    if nfree == 0:
        return Inconsistent()
    if nfree > 1:
        return Indeterminate(nfree)
    return _normalized(elim.field, elim.expand(np.ones(1, dtype=np.int64)))


@dataclass(frozen=True)
class Kernel:
    """ker M_b, for M_b the Macaulay matrix of a system with multipliers of
    every degree below b: one ``basis`` row per dimension over the column
    labels ``cols``, (alpha, subset index) pairs referring to ``subsets``.
    It holds no reduction: from b = 2 none is formed (:func:`_carry`)."""

    field: FiniteField
    subsets: Tuple[Tuple[int, ...], ...]
    cols: Tuple
    basis: np.ndarray                  # (dim, len(cols))


def _carry(mac: md.MacaulayMatrix, affine: np.ndarray, prev: Kernel) -> Kernel:
    """The kernel of ``mac``'s rows E, of multiplier degree b - 1, stacked
    under the rows of lower degree, whose kernel K ``prev`` holds over C.

    A kernel vector of the stack is w K on C, so it is read from the kernel
    of [E_new | E_old K^T] in (v_new, w), E_old being E's columns in C.  C
    has degree below b, so row x^alpha f meets it only through f's affine
    part, a row of ``affine``, at x^alpha c_t: E_old K^T is ``affine`` times
    K's columns x^alpha c_t, stacked over alpha (zero where one is not in C).
    E_new's leading columns hold one nonzero per row, so
    :func:`ranklab.matlin.kernel` reduces only their Schur complement.
    ``mac`` is dropped first, so a caller that holds no other reference to
    it frees it.
    """
    fld = mac.field
    pos = {lab: i for i, lab in enumerate(prev.cols)}
    old = np.array([lab in pos for lab in mac.col_labels], dtype=bool)
    cols = prev.cols + tuple(lab for lab, o in zip(mac.col_labels, old.tolist()) if not o)
    alphas = list(dict.fromkeys(alpha for alpha, _label in mac.row_labels))
    (npolys, nt), dim = affine.shape, prev.basis.shape[0]
    # kt[t, a dim + d] = K[d, x^alphas[a] c_t], or 0 (the pad) where C lacks it
    at = [pos.get((alpha, t), -1) for t in range(nt) for alpha in alphas]
    kt = np.pad(prev.basis, ((0, 0), (0, 1)))[:, at].T.reshape(nt, len(alphas) * dim)
    carried = ml.matmul(fld, affine, kt).reshape(npolys, len(alphas), dim).transpose(1, 0, 2)
    stack = np.concatenate([mac.arr[:, ~old], carried.reshape(len(alphas) * npolys, dim)],
                           axis=1)
    del mac, carried
    ker = ml.kernel(fld, stack)
    nnew = len(cols) - len(prev.cols)
    basis = np.concatenate([ml.matmul(fld, ker[:, nnew:], prev.basis), ker[:, :nnew]], axis=1)
    return Kernel(fld, prev.subsets, cols, basis)


def carried_kernels(sys: md.BilinearSystem, b_max: int) -> Iterator[Kernel]:
    """ker M_b for b = 1, ..., b_max, each carried into the next.

    ker M_1 is ``kernel_from_rref`` of M_1's RREF, which also gives the rows
    multiplied from b = 2, a row basis of ``sys``; :func:`_carry` makes the
    later ones.  A Macaulay matrix over the cell budget raises
    ``MonomialBudgetError`` in place of its kernel.
    """
    fld, mac = sys.field, md.macaulay(sys, 1)
    res = ml.echelonize(fld, mac.arr)
    ker = Kernel(fld, mac.subsets, mac.col_labels, ml.kernel_from_rref(fld, res.rref, res.pivots))
    yield ker
    rows = md.from_rows(sys, mac, res.rref[:res.rank])
    del mac, res
    for b in range(2, b_max + 1):
        # held by _carry alone, which frees it before reducing
        ker = _carry(md.macaulay(rows, b), rows.coef[:, rows.nx], ker)
        yield ker


def solve_linearized(ker: Kernel) -> Outcome:
    """The minor block of a linearized system's kernel, when that is a line.

    The degree-(0,1) coordinates go to their subset index in
    ``ker.subsets`` (zero where a minor has no column), normalized as in
    :func:`solve_mm_linear`; a kernel with no such coordinate is
    Indeterminate(1).  A zero kernel leaves a solution nonzero minors only
    where a minor has no degree-(0,1) column: with no such minor it is
    Inconsistent, one gives its unit vector, and several are Indeterminate.
    """
    dim = ker.basis.shape[0]
    if dim > 1:
        return Indeterminate(dim)
    lin = [i for i, (alpha, _t) in enumerate(ker.cols) if not alpha]
    held = [ker.cols[i][1] for i in lin]
    if dim == 0:
        free = np.ones(len(ker.subsets), dtype=np.int64)
        free[held] = 0
        count = int(free.sum())
        if count == 1:
            return free
        return Indeterminate(count) if count else Inconsistent()
    minors = np.zeros(len(ker.subsets), dtype=np.int64)
    minors[held] = ker.basis[0][lin]
    return _normalized(ker.field, minors)


def x_from_minors(fld: FiniteField, rows: np.ndarray, minors: np.ndarray, r: int
                  ) -> Optional[np.ndarray]:
    """One x that puts row_0 + sum_u x_u row_u in the row space of a support
    matrix with r-minors ``minors``, or None if there is none.

    ``rows`` (K+1, ..., n) is (y, G) of a canonical form or (M_0, ..., M_K)
    of a MinRank instance.  One :func:`ranklab.matlin.laplace_row` step puts
    each row on the support matrix, so eqs[u] holds its (r+1)-minors and
    sum_{u >= 1} x_u eqs[u] = -eqs[0]; the caller verifies the x.
    """
    eqs = ml.laplace_row(fld, rows, minors, r + 1).reshape(len(rows), -1)
    return ml.solve_right(fld, eqs[1:].T, fld.neg_arr(eqs[0]))


# ---------------------------------------------------------------------------
# end-to-end decoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RdSolution:
    """Verified decoding: y = codeword + error with rank weight <= r."""

    codeword: np.ndarray
    error: np.ndarray
    message: np.ndarray            # codeword = message . G
    weight: int
    transcript: Tuple[str, ...]


MODELINGS = ("auto", "mm", "smplus")


@dataclass(frozen=True)
class DecodeConfig:
    modeling: str = "auto"         # one of MODELINGS
    b_max: int = 4

    def __post_init__(self):
        if self.modeling not in MODELINGS:
            raise ValueError(f"modeling must be one of {', '.join(MODELINGS)}, "
                             f"got {self.modeling!r}")
        if self.b_max < 1:
            raise ValueError(f"need b_max >= 1, got {self.b_max}")


RETRIES = 3                        # fresh canonicalizations per weight
DRAW_TRIES = 400                   # draws of a conditioned generator before EnvelopeMissed


class Unsolved(Exception):
    def __init__(self, transcript):
        super().__init__("no decoding found within the configured budget")
        self.transcript = tuple(transcript)


class EnvelopeMissed(RuntimeError):
    """A conditioned draw found no instance inside its envelope."""


def decode_rd(rd: RdInstance, config: DecodeConfig = DecodeConfig()) -> RdSolution:
    """Decode by increasing target weight, verifying before returning."""
    fld = rd.field
    transcript: List[str] = []
    zero_sol = _try_weight_zero(rd)
    if zero_sol is not None:
        return zero_sol
    # a canonical form depends on G, y and the permutation only, so each
    # retry's form is made once, on first use, and serves every r'
    forms: Dict[int, CanonicalRd] = {}
    for r_prime in range(1, rd.r + 1):
        for retry in range(RETRIES):
            if retry not in forms:
                forms[retry] = canonicalize(
                    RdInstance(fld, rd.n, rd.k, rd.r, rd.gen, rd.received, None),
                    perm_seed=None if retry == 0 else 7919 * retry)
            can = replace(forms[retry], r=r_prime)
            elim = md.eliminate_minors(md.build_mm_fq(md.build_mm_fqm(can)))
            minors = solve_mm_linear(elim)
            if isinstance(minors, Inconsistent):
                transcript.append(f"r'={r_prime}: linear minor system inconsistent")
                break
            if isinstance(minors, np.ndarray) and config.modeling in ("auto", "mm"):
                sol = _finish(rd, can, minors, transcript, f"r'={r_prime} mm")
                if sol is not None:
                    return sol
                continue
            if config.modeling == "mm":
                transcript.append(f"r'={r_prime}: minor system underdetermined, mm-only mode")
                break
            sol = _try_sm_plus(rd, can, elim, config, transcript, retry)
            if sol is not None:
                return sol
    raise Unsolved(transcript)


def _try_weight_zero(rd: RdInstance) -> Optional[RdSolution]:
    fld = rd.field
    msg = ml.solve_right(fld, rd.gen.T, rd.received)
    if msg is None:
        return None
    return RdSolution(np.array(rd.received), np.zeros(rd.n, dtype=np.int64),
                      msg, 0, ("r'=0: received word is a codeword",))


def _finish(rd: RdInstance, can: CanonicalRd, minors: np.ndarray, transcript: List[str],
            tag: str) -> Optional[RdSolution]:
    """The verified solution that the minors of the canonical form give, if any."""
    x = x_from_minors(can.field, np.concatenate([can.received[None, :], can.gen]),
                      minors, can.r)
    if x is None:
        transcript.append(f"{tag}: no x solves the Support-Minors equations")
        return None
    return verify_rd(rd, can.error_to_origin(fld_error_from_x(can, x)), can.r, transcript, tag)


def _try_sm_plus(rd: RdInstance, can: CanonicalRd, elim: md.MinorElimination,
                 config: DecodeConfig, transcript: List[str], retry: int
                 ) -> Optional[RdSolution]:
    sm, part = md.build_sm_fqm(can)
    plus = md.reduce_sm_plus(sm, part, elim)
    if plus.npolys == 0:
        # no equation constrains the free minors (r' = n), so they are read
        # out as from the linear minor system
        tag = f"r'={can.r} smplus no equations retry={retry}"
        minors = solve_mm_linear(elim)
        if isinstance(minors, np.ndarray):
            return _finish(rd, can, minors, transcript, tag)
        transcript.append(f"{tag}: {len(elim.free_cols)} free minors")
        return None
    kernels = carried_kernels(plus, config.b_max)
    for b in range(1, config.b_max + 1):
        try:
            ker = next(kernels)
        except md.MonomialBudgetError as exc:
            transcript.append(f"r'={can.r} b={b}: {exc}")
            return None
        minors = solve_linearized(ker)
        tag = f"r'={can.r} smplus b={b} retry={retry}"
        if isinstance(minors, Inconsistent):
            transcript.append(f"{tag}: inconsistent")
            return None
        if isinstance(minors, Indeterminate):
            transcript.append(f"{tag}: kernel dimension {minors.kernel_dim}")
            continue
        # the minors of a support matrix over F_q; expand works over F_q
        if (minors >= elim.field.order).any():
            transcript.append(f"{tag}: kernel vector fails consistency")
            continue
        sol = _finish(rd, can, elim.expand(minors), transcript, tag)
        if sol is not None:
            return sol
    return None


def fld_error_from_x(rd: Union[RdInstance, CanonicalRd], x: np.ndarray) -> np.ndarray:
    """y + x G, the error that x gives on an instance or a canonical form."""
    fld = rd.field
    return fld.add_arr(rd.received, ml.matmul(fld, x[None, :], rd.gen)[0])


def verify_rd(rd: RdInstance, e: np.ndarray, bound: int, transcript: List[str],
              tag: str) -> Optional[RdSolution]:
    """The solution with error e if its rank weight is <= bound and y - e is
    in the code, else None; the outcome is logged under ``tag``."""
    fld = rd.field
    weight = ml.rank_weight(fld, e)
    if weight > bound:
        transcript.append(f"{tag}: candidate error has weight {weight}")
        return None
    c = fld.sub_arr(rd.received, e)
    msg = ml.solve_right(fld, rd.gen.T, c)
    if msg is None:
        transcript.append(f"{tag}: candidate codeword is not in the code")
        return None
    transcript.append(f"{tag}: verified, weight {weight}")
    return RdSolution(c, e, msg, weight, tuple(transcript))


# ---------------------------------------------------------------------------
# MinRank by straight linearization (inner solver for the hybrid driver)
# ---------------------------------------------------------------------------

def solve_minrank_linearized(inst: MinRankInstance) -> Outcome:
    """Solve a small MinRank instance by linearizing the bilinear modeling.

    Only the b = 1 kernel of :func:`carried_kernels` is read: run to b = 4,
    (5,4,5,6,2) seeds 0-2 took 2.7 s each and still ended Indeterminate(50),
    and (2,5,6,7,2) seed 1 took 5.8 s.  x is read at the kernel's minors and
    returned after verifying the rank condition.  With no matrices to
    combine (K = 0) the answer is the empty x if M_0 itself has rank at most
    r, else Inconsistent.  At r = n there is no Support-Minors equation and
    every x is an answer, so the zero x is returned after the same check.
    """
    if inst.K == 0 or inst.r == inst.n:
        x = np.zeros(inst.K, dtype=np.int64)
        return x if verify_minrank(inst, x) is not None else Inconsistent()
    minors = solve_linearized(next(carried_kernels(md.sm_for_minrank(inst), 1)))
    if not isinstance(minors, np.ndarray):
        return minors
    x = x_from_minors(inst.field, inst.mats, minors, inst.r)
    return x if x is not None and verify_minrank(inst, x) is not None else Indeterminate(1)


def verify_minrank(inst: MinRankInstance, x: np.ndarray) -> Optional[int]:
    """Rank of M_0 + sum x_i M_i if it is at most r, else None."""
    rank = ml.echelonize(inst.field, inst.low_rank_matrix(x)).rank
    return rank if rank <= inst.r else None


# ---------------------------------------------------------------------------
# exhaustive decoding oracle (desk scale)
# ---------------------------------------------------------------------------

def gaussian_binomial(m: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of an m-dimensional F_q space."""
    num, den = 1, 1
    for i in range(r):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def expected_spurious_decodings(q: int, m: int, n: int, k: int, r: int) -> float:
    """First-moment estimate of decodings other than the planted one."""
    return gaussian_binomial(m, r, q) * float(q) ** (r * n - m * (n - k))


@functools.lru_cache(maxsize=8192)
def gen_rd_unique(q: int, m: int, n: int, k: int, r: int, seed: int,
                  threshold: float = 1e-3) -> RdInstance:
    """Seeded RD instance conditioned on having a unique decoding.

    The analyses assume unique-solution instances; near the uniqueness
    boundary a noticeable fraction of uniform instances has extra
    decodings, so this resamples (deterministically in the seed) until the
    exhaustive oracle confirms uniqueness.  When the first-moment estimate
    is already below ``threshold`` the check is skipped.
    """
    from .instances import gen_rd

    if expected_spurious_decodings(q, m, n, k, r) < threshold:
        return _read_only(gen_rd(q, m, n, k, r, seed))
    for attempt in range(DRAW_TRIES):
        rd = gen_rd(q, m, n, k, r, seed * 1_000_003 + attempt)
        if len(rd_solutions_brute(rd, stop_after=1)) == 1:
            return _read_only(rd)
    raise EnvelopeMissed("could not hit the unique-decoding envelope")


def sm_plus_kernel_dim(rd: RdInstance) -> Optional[int]:
    """Kernel dimension of the first-degree linearized eliminated system.

    None when at most one minor is free: the linear minor system already
    decides the minors, so no bilinear stage applies for these parameters.
    """
    can = canonicalize(rd)
    elim = md.eliminate_minors(md.build_mm_fq(md.build_mm_fqm(can)))
    if len(elim.free_cols) <= 1:
        return None
    sm, part = md.build_sm_fqm(can)
    return next(carried_kernels(md.reduce_sm_plus(sm, part, elim), 1)).basis.shape[0]


@functools.lru_cache(maxsize=4096)
def gen_rd_generic(q: int, m: int, n: int, k: int, r: int, seed: int,
                   max_tries: int = DRAW_TRIES) -> RdInstance:
    """Seeded RD instance inside the generic preset envelope.

    On top of decoding uniqueness this requires the eliminated bilinear
    system to have the generic one-dimensional kernel at first degree
    (when that stage applies at all).  For very small q a constant
    fraction of uniform instances falls outside the envelope; the
    rejection is deterministic in the seed, and the unconditioned rates
    are reported by the verification experiments.
    """
    from .instances import gen_rd

    check_unique = expected_spurious_decodings(q, m, n, k, r) >= 1e-3
    for attempt in range(max_tries):
        rd = gen_rd(q, m, n, k, r, seed * 1_000_003 + attempt)
        if check_unique and len(rd_solutions_brute(rd, stop_after=1)) != 1:
            continue
        dim = sm_plus_kernel_dim(rd)
        if dim is None or dim == 1:
            return _read_only(rd)
    raise EnvelopeMissed("could not hit the generic instance envelope")


def _read_only(rd: RdInstance) -> RdInstance:
    """rd with its arrays made read-only: a cached instance is shared by
    every caller, so none of them may write to it."""
    arrays = [rd.gen, rd.received]
    if rd.witness is not None:
        w = rd.witness
        arrays += [w.x, w.support, w.coeffs, w.error]
    for arr in arrays:
        arr.setflags(write=False)
    return rd


@functools.lru_cache(maxsize=16)
def _subspace_bases(q: int, m: int, r: int) -> np.ndarray:
    """All r x m RREF matrices over F_q, stacked (S, r, m): canonical bases
    of the r-subspaces.  Ordered by pivot columns, then by the free entries
    read as base-q digits, the first entry most significant.  The entries
    take the smallest unsigned dtype that holds q - 1; the array is cached,
    so it is read-only."""
    tables = []
    for pivots in itertools.combinations(range(m), r):
        free_pos = [(i, j) for i in range(r) for j in range(m)
                    if j > pivots[i] and j not in pivots]
        nfree = len(free_pos)
        block = np.zeros((q ** nfree, r, m), dtype=np.min_scalar_type(q - 1))
        block[:, np.arange(r), list(pivots)] = 1
        if free_pos:
            rows, cols = zip(*free_pos)
            digits = q ** np.arange(nfree - 1, -1, -1)
            block[:, list(rows), list(cols)] = (np.arange(q ** nfree)[:, None] // digits) % q
        tables.append(block)
    bases = np.concatenate(tables)
    bases.setflags(write=False)
    return bases


def rd_solutions_brute(rd: RdInstance, cap: int = 64,
                       stop_after: Optional[int] = None) -> List[np.ndarray]:
    """All errors e with rank weight <= r and y - e in the code.

    Enumerates candidate supports as subspaces of F_{q^m}; per support the
    syndrome condition is a small base-field linear system, reduced on its
    own (:func:`_consistent_systems`).  At q = 2 a bit-sliced sweep first
    drops the supports whose system has no solution (:func:`_swept_bases`),
    and only the rest are reduced.  Independent of the algebraic attack
    path; intended for desk-scale oracles only.
    ``stop_after`` returns early once more than that many distinct errors
    are known (uniqueness screening).  A consistent support whose solution
    family has more than ``cap`` members raises ValueError; under
    ``stop_after`` its first stop_after + 1 members settle the screening.
    """
    fld = rd.field
    base = fld.base
    n, r = rd.n, rd.r
    res = ml.echelonize(fld, rd.gen)
    parity = ml.kernel_from_rref(fld, res.rref, res.pivots)     # (n-k) x n, dual basis
    synd = ml.matmul(fld, parity, rd.received[:, None])[:, 0]
    found: Dict[Tuple[int, ...], np.ndarray] = {}
    if not synd.any():
        found[tuple([0] * n)] = np.zeros(n, dtype=np.int64)
    bases = (_swept_bases(fld, parity, synd, r) if base.order == 2
             else _subspace_bases(base.order, fld.degree, r))
    for basis, rref, pivots in _consistent_systems(fld, parity, synd, bases):
        s = np.array([fld.from_coeffs(row) for row in basis.tolist()], dtype=np.int64)
        for vec in _solution_family(base, rref, pivots, cap, stop_after):
            e = ml.matmul(fld, s[None, :], vec.reshape(r, n))[0]
            found.setdefault(tuple(int(v) for v in e), e)
        if stop_after is not None and len(found) > stop_after:
            break
    return list(found.values())


# Unknowns C[u, j] sit in column u n + j of a support's system, the
# right-hand side in the last column; row i m + l is coordinate l of
# parity equation i.  The coefficient of C[u, j] is s_u H[i, j], and
# coordinate l of s_u H[i, j] is the XOR over t of basis[u, t] times
# coordinate l of z^t H[i, j].  The lane sweep holds these systems
# bit-sliced: entry (column, row) of the systems of up to 64 supports is one
# uint64 word, support b at bit b % 64 of word b // 64.

_LANE_CHUNK = 64 * 64   # supports swept together; a multiple of 64, bounds the temporaries


def _swept_bases(fld: FiniteField, parity: np.ndarray, synd: np.ndarray, r: int):
    """At q = 2, the supports whose syndrome system the lane sweep
    (:func:`_consistent_lanes`) finds consistent, ``_LANE_CHUNK`` at a time.
    A chunk is swept only after the caller has taken every support kept
    from the one before, so a caller that stops early skips the rest."""
    m = fld.degree
    nk, n = parity.shape
    zh = fld.coeffs_arr(fld.mul_arr(np.array(fld.basis)[:, None, None], parity))
    zh = zh.swapaxes(-1, -2).reshape(m, m * nk, n)       # coordinate l of z^t H at row i m + l
    rhs_bits = fld.coeffs_arr(synd).reshape(-1)
    bases = _subspace_bases(2, m, r)
    for start in range(0, len(bases), _LANE_CHUNK):
        chunk = bases[start:start + _LANE_CHUNK]
        yield from chunk[_consistent_lanes(zh, rhs_bits, chunk)]


def _consistent_lanes(zh: np.ndarray, rhs_bits: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Indices of the supports in ``bases`` whose syndrome system is consistent.

    Support b is bit lane b: ``lanes[c, i]`` holds entry (i, c) of every
    support's [A | b], and all lanes are eliminated in step.  Per column,
    each lane's first free row with the bit becomes its pivot row, found with
    a prefix OR down the rows.  The selected rows, one per lane, are ORed
    into one pivot row per lane, which is XORed into the lane's other free
    rows with the bit; only the columns right of the pivot are updated.  A
    lane is consistent when no free row is left with a nonzero right side.
    """
    m, nrows, n = zh.shape
    r = bases.shape[1]
    bits = ml.pack_gf2(bases.transpose(1, 2, 0))           # (r, m, lane words)
    nwords = bits.shape[-1]
    zmask = np.where(zh.transpose(0, 2, 1) != 0, ~np.uint64(0), np.uint64(0))   # (m, n, rows)
    lanes = np.zeros((r * n + 1, nrows, nwords), dtype=np.uint64)
    for u in range(r):
        for t in range(m):
            lanes[u * n:(u + 1) * n] ^= zmask[t, ..., None] & bits[u, t]
    lanes[-1] = np.where(rhs_bits != 0, ~np.uint64(0), np.uint64(0))[:, None]
    free = np.full((nrows, nwords), ~np.uint64(0))
    for c in range(r * n):
        cand = lanes[c] & free
        seen = np.bitwise_or.accumulate(cand, axis=0)
        cand[1:] &= ~seen[:-1]                  # each lane's first candidate row only
        free ^= cand
        pivot = np.bitwise_or.reduce(lanes[c + 1:] & cand, axis=1)
        lanes[c + 1:] ^= pivot[:, None, :] & (lanes[c] & free)
    bad = np.bitwise_or.reduce(lanes[-1] & free, axis=0)
    return np.flatnonzero(ml.unpack_gf2(~bad, len(bases)))


def _consistent_systems(fld: FiniteField, parity: np.ndarray, synd: np.ndarray, bases):
    """(basis, RREF of [A | b], pivots) for each support in ``bases`` whose
    syndrome system has a solution; each system is built and reduced on
    its own, at every q."""
    m = fld.degree
    nk, n = parity.shape
    rhs = fld.coeffs_arr(synd).reshape(-1, 1)
    for basis in bases:
        blocks = [fld.coeffs_arr(fld.mul_arr(fld.from_coeffs(row), parity)).swapaxes(-1, -2)
                  .reshape(m * nk, n) for row in basis.tolist()]
        res = ml.echelonize(fld.base, np.concatenate(blocks + [rhs], axis=1))
        if len(basis) * n not in res.pivots:
            yield basis, res.rref, list(res.pivots)


def _solution_family(base: FiniteField, rref: np.ndarray, pivots: List[int], cap: int,
                     stop_after: Optional[int]) -> np.ndarray:
    """Every solution of a consistent system, from the RREF of [A | b]: the
    kernel row of the free column b is (-v, 1), v the solution with free
    coordinates zero, and the others, zero at b, span ker A.  v plus each
    combination of them, one per row in ``itertools.product`` order; of one
    above ``cap``, the first stop_after + 1, else ValueError."""
    kernel = ml.kernel_from_rref(base, rref, pivots)[:, :-1]
    d = kernel.shape[0] - 1
    size = base.order ** d
    if size > cap and stop_after is None:
        raise ValueError("solution family too large to enumerate")
    size = size if size <= cap else min(size, stop_after + 1)
    grid = itertools.islice(itertools.product(range(base.order), repeat=d), size)
    grid = np.array(list(grid), dtype=np.int64).reshape(size, d)
    return base.sub_arr(ml.matmul(base, grid, kernel[:-1]), kernel[-1])
