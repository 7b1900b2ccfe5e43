"""Seeded pass/fail experiments for every structural claim in the package.

Each property name maps to a per-trial check on a fresh seeded instance;
exact algebraic identities must hold on every trial, statistical
(genericity) claims pass at the documented 95% threshold with failures
reported verbatim.  The exact linear dependencies between the MaxMinors
and Support-Minors equations are each one product: a coefficient matrix
times the polynomials as flat coefficient rows.  Reports are reproducible
bit for bit from (property, params, seed).  Arguments outside a
property's domain are rejected by :func:`check_arguments` first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .. import matlin as ml
from .. import modelings as md
from .. import solver as sv
from .. import hybrid as hy
from ..estimator import _mm_overdetermined, nb_fqm, nsyz
from ..instances import canonicalize, check_params, gen_minrank, gen_rd

__all__ = ["ExperimentReport", "PROPERTIES", "check_arguments", "verify"]

GENERICITY_THRESHOLD = 0.95
_MINRANK_DRAWS = 32          # instance draws per hybrid-correct-minrank trial


@dataclass(frozen=True)
class ExperimentReport:
    property_name: str
    params: Tuple[int, ...]
    seed: int
    trials: int
    passes: int
    failures: Tuple[str, ...]
    measured: Tuple
    expected: Tuple
    threshold: float
    verdict: bool
    elapsed: float

    def one_line(self) -> str:
        flag = "pass" if self.verdict else "FAIL"
        return (f"{self.property_name} {self.params}: {self.passes}/{self.trials} "
                f"trials ok (threshold {self.threshold:.0%}) -> {flag} "
                f"[{self.elapsed:.2f}s]")


def _canonical_systems(q, m, n, k, r, seed, envelope=False):
    rd = (sv.gen_rd_generic(q, m, n, k, r, seed) if envelope
          else gen_rd(q, m, n, k, r, seed))
    can = canonicalize(rd)
    mm = md.build_mm_fqm(can)
    mmq = md.build_mm_fq(mm)
    sm, part = md.build_sm_fqm(can)
    return rd, can, mm, mmq, sm, part


def _flat(sys: md.BilinearSystem) -> np.ndarray:
    """The system's polynomials as rows: coefficient block j < nx belongs
    to x_j, block nx is the affine part; (#polys, (nx + 1) nt)."""
    return sys.coef.reshape(sys.npolys, -1)


def _multiples(lin: md.CtLinearSystem, nx: int) -> np.ndarray:
    """Linear row p times x_j at [p, j], j < nx, and row p itself at [p, nx],
    as flat coefficient rows; (#rows, nx + 1, (nx + 1) nt)."""
    nrows, nt = lin.coeffs.shape
    blocks = np.eye(nx + 1, dtype=np.int64)[None, :, :, None] * lin.coeffs[:, None, None, :]
    return blocks.reshape(nrows, nx + 1, (nx + 1) * nt)


# ---------------------------------------------------------------------------
# per-trial checks; each returns (ok, measured, expected, note)
# ---------------------------------------------------------------------------

def _check_nb_rank(params, seed):
    """At each b, (rank of the top block of the high-overlap Macaulay
    matrix, rows of the explicit basis ``basis_bb``, rank of that basis),
    each expected to be nb_fqm(n, k, r, b)."""
    q, m, n, k, r = params
    _, can, _, _, sm, part = _canonical_systems(*params, seed)
    q2 = md.subsystem(sm, part.two_plus)
    measured, expected = [], []
    for b in (1, 2, 3):
        top = ml.echelonize(can.field, md.top_block(md.macaulay(q2, b))).rank
        basis = md.basis_bb(sm, part, b).arr
        measured.append((top, basis.shape[0], ml.echelonize(can.field, basis).rank))
        expected.append((nb_fqm(n, k, r, b),) * 3)
    return measured == expected, tuple(measured), tuple(expected), ""


def _check_q0_span(params, seed):
    # each (r+1)-minor row of H_y combines the bilinear equations to zero
    q, m, n, k, r = params
    _, can, _, _, sm, _ = _canonical_systems(*params, seed)
    fld = can.field
    t_sets = ml.subset_table(n - k - 1, r + 1)[0]
    coefs = ml.maximal_minors(fld, can.h_y[t_sets], r + 1)
    bad = int(ml.matmul(fld, coefs, _flat(sm)).any(axis=1).sum())
    return bad == 0, (bad,), (0,), ""


def _check_lt_independence(params, seed):
    q, m, n, k, r = params
    _, can, mm, _, sm, part = _canonical_systems(*params, seed)
    fld = can.field
    # the minors on the last n - k - 1 positions, in the order of the linear rows
    tail = np.flatnonzero((ml.subset_table(n, r)[0] > k).all(axis=1))
    cols, drop = ml.subset_table(n, r + 1)
    # leading-term table
    for p in range(mm.nrows):
        if np.flatnonzero(mm.coeffs[p])[-1] != tail[p]:
            return False, ("lt-p",), (p,), "linear leading term off"
    for p in part.two_plus:
        if md.leading_term(sm, p) != (cols[p, 0], drop[p, 0]):
            return False, ("lt-q",), (p,), "bilinear leading term off"
        if sm.coef[p][:, tail].any():
            return False, ("tail-var",), (p,), "tail minor appears"
    # stacked rank of linear rows, their variable multiples, and the rest
    mult = _multiples(mm, k)
    rows = np.concatenate([mult.reshape(mm.nrows * (k + 1), mult.shape[2]),
                           _flat(sm)[list(part.two_plus)]])
    rank = ml.echelonize(fld, rows).rank
    expect = (k + 1) * comb(n - k - 1, r) + len(part.two_plus)
    return rank == expect, (rank,), (expect,), ""


def _check_q1_correspondence(params, seed):
    q, m, n, k, r = params
    _, can, mm, _, sm, _ = _canonical_systems(*params, seed)
    fld = can.field
    h_full = np.concatenate([can.h_y, can.h[None, :]], axis=0)
    j_sets = ml.subset_table(n - k - 1, r)[0]
    last = np.full((len(j_sets), 1), n - k - 1)
    full_minors = ml.maximal_minors(fld, h_full[np.concatenate([j_sets, last], axis=1)], r + 1)
    hy_minors = ml.maximal_minors(fld, can.h_y[j_sets], r)
    # coefs[p, j] combines the bilinear equations into target[p, j]:
    # identity 2 (j < k), x_j times linear row p: the minors of the unit
    # row e_j on top of the H_y rows of p; identity 1 (j = k), the linear
    # row signed by r: the full minors
    coefs = np.zeros((mm.nrows, k + 1, sm.npolys), dtype=np.int64)
    coefs[:, :k] = ml.laplace_row(fld, ml.identity(n)[:k], hy_minors[:, None], r + 1)
    coefs[:, k] = full_minors
    target = _multiples(mm, k)
    if r % 2:
        target[:, k] = fld.neg_arr(target[:, k])
    got = ml.matmul(fld, coefs.reshape(mm.nrows * (k + 1), sm.npolys), _flat(sm))
    bad = (got.reshape(target.shape) != target).any(axis=2)
    if bad.any():
        p = int(np.flatnonzero(bad.any(axis=1))[0])
        if bad[p, k]:
            return False, ("id1",), (p,), "linear-row correspondence failed"
        j = int(np.flatnonzero(bad[p])[0])
        return False, ("id2",), (p, j), "variable-multiple correspondence failed"
    return True, (1,), (1,), ""


def _check_unfold_sm(params, seed):
    _, can, _, _, sm, _ = _canonical_systems(*params, seed)
    unfolded = md.build_sm_fq(sm)
    direct = md.sm_fq_direct(can)
    same = np.array_equal(unfolded.coef, direct.coef)
    return bool(same), (int(same),), (1,), ""


def _check_mm_rank(params, seed):
    # the genericity statement presumes unique-solution instances, so the
    # draw is conditioned on uniqueness where extra decodings are likely
    q, m, n, k, r = params
    rd = sv.gen_rd_unique(q, m, n, k, r, seed, threshold=0.1)
    can = canonicalize(rd)
    mmq = md.build_mm_fq(md.build_mm_fqm(can))
    rank = ml.echelonize(mmq.field, mmq.coeffs).rank
    expect = min(m * comb(n - k - 1, r), comb(n, r) - 1)
    return rank == expect, (rank,), (expect,), ""


def _check_syzygy_count(params, seed, bs=(1, 2, 3)):
    q, m, n, k, r = params
    _, can, _, mmq, sm, part = _canonical_systems(*params, seed, envelope=True)
    fld = can.field
    elim = md.eliminate_minors(mmq)
    plus = md.reduce_sm_plus(sm, part, elim)
    # exact relations between the reduced polynomials, coefficients over F_q:
    # coordinate i of each q0 relation, trace(b*_i c) for each coefficient c
    nf_all = md.nf_bilinear(elim, sm, range(sm.npolys))
    minors = ml.maximal_minors(fld, can.h_y[ml.subset_table(n - k - 1, r + 1)[0]], r + 1)
    coefs = fld.coeffs_arr(minors).transpose(0, 2, 1).reshape(len(minors) * m, sm.npolys)
    if ml.matmul(fld, coefs, _flat(nf_all)).any():
        return False, ("relation",), (0,), "reduced relation not zero"
    # conjectured rank law at each bi-degree
    measured, expected = [], []
    for b in bs:
        mac = md.macaulay(plus, b)
        measured.append(ml.echelonize(fld, mac.arr).rank)
        expected.append(min(nb_fqm(n, k, r, b) - nsyz(m, n, k, r, b),
                            mac.arr.shape[1] - 1))
    return measured == expected, tuple(measured), tuple(expected), ""


def _check_hybrid_correct(params, seed):
    """Deterministic guess driver with a = 1 finds a decoding within q^r.

    The answer must verify on the instance (rank weight <= r, y - e in the
    code); it need not be the planted error, since a draw may have others.
    """
    q, m, n, k, r = params
    rd = gen_rd(q, m, n, k, r, seed)
    attempt = 0
    while not hy.assumption_holds_rd(rd):
        rd, _ = hy.rerandomize_rd(rd, seed * 31 + attempt)
        attempt += 1
    try:
        res = hy.hybrid_solve_rd(rd, a=1, seed=seed)
    except sv.Unsolved as exc:
        return False, ("unsolved",), (q ** r,), exc.transcript[-1]
    ok = (sv.verify_rd(rd, res.solution.error, r, [], "check") is not None
          and res.guesses_tried <= q ** r and res.rounds == 0)
    return ok, (res.guesses_tried,), (q ** r,), ""


def _check_hybrid_minrank(params, seed):
    """MinRank analogue of the guess driver; params are (q, m, n, K, r).  The
    instance is redrawn until its planted a = 1 guess (zeroing the witness's
    last column) shortens, which needs a K x m tail block of rank m."""
    q, m, n, K, r = params
    for draw in range(_MINRANK_DRAWS):
        mri = gen_minrank(q, m, n, K, r, seed if draw == 0 else seed * 1_000_003 + draw)
        attempt = 0
        while not hy.assumption_holds_minrank(mri):
            mri, _ = hy.rerandomize_minrank(mri, seed * 37 + attempt)
            attempt += 1
        low, fld = mri.low_rank_matrix(mri.witness), mri.field
        if any(hy.reduce_minrank(mri, g, 1) for g in hy.enumerate_guesses(1, r, q)
               if not ml.matmul(fld, low, hy.p_matrix(fld, g.a, n))[:, -1].any()):
            break
    else:
        return (False, ("no draw",), (q ** r,),
                f"the planted guess shortened in none of {_MINRANK_DRAWS} draws")
    try:
        res = hy.hybrid_solve_minrank(mri, a=1, seed=seed)
    except sv.Unsolved as exc:
        return False, ("unsolved",), (q ** r,), exc.transcript[-1]
    ok = (sv.verify_minrank(mri, res.solution) is not None
          and res.guesses_tried <= q ** r and res.rounds == 0)
    return bool(ok), (res.guesses_tried,), (q ** r,), ""


PROPERTIES: Dict[str, Tuple[Callable, float]] = {
    "nb-rank": (_check_nb_rank, 1.0),
    "q0-span": (_check_q0_span, 1.0),
    "lt-independence": (_check_lt_independence, 1.0),
    "q1-correspondence": (_check_q1_correspondence, 1.0),
    "unfold-sm": (_check_unfold_sm, 1.0),
    "mm-rank": (_check_mm_rank, GENERICITY_THRESHOLD),
    "syzygy-count": (_check_syzygy_count, GENERICITY_THRESHOLD),
    "hybrid-correct": (_check_hybrid_correct, 1.0),
    "hybrid-correct-minrank": (_check_hybrid_minrank, 1.0),
}


def check_arguments(property_name: str, params: Sequence[int], trials: int,
                    seed: int = 1) -> None:
    """Raise ValueError, with a one-line reason, unless the named property
    can run ``trials`` trials at ``params`` from ``seed``."""
    if property_name not in PROPERTIES:
        raise ValueError(f"unknown property {property_name!r}; "
                         f"known: {sorted(PROPERTIES)}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    kind = "minrank" if property_name == "hybrid-correct-minrank" else "rd"
    if len(params) != 5:
        raise ValueError(f"{property_name} takes five parameters q,m,n,"
                         f"{'K' if kind == 'minrank' else 'k'},r, got {len(params)}")
    check_params(kind, *params)
    _, m, n, size, r = params
    if kind == "rd" and property_name != "hybrid-correct" and r < 1:
        raise ValueError(f"{property_name} needs r >= 1, got r = {r}")
    if kind == "minrank" and m > size:
        raise ValueError(f"{property_name} drops m unknowns with its a = 1 guess, "
                         f"which needs m <= K, got m = {m}, K = {size}")
    if property_name.startswith("hybrid-correct") and r + 1 > n:
        raise ValueError(f"{property_name} guesses a = 1 column, which needs "
                         f"r + 1 <= n, got r = {r}, n = {n}")
    if property_name == "syzygy-count" and _mm_overdetermined(*params[1:]):
        raise ValueError(f"syzygy-count needs an underdetermined MaxMinors system, "
                         f"but m C(n-k-1, r) >= C(n, r) - 1 at {tuple(params)}")


def verify(property_name: str, params: Sequence[int], trials: int = 10,
           seed: int = 1) -> ExperimentReport:
    """Run the named check on fresh seeded instances and report verdicts."""
    check_arguments(property_name, params, trials, seed)
    check, threshold = PROPERTIES[property_name]
    t0 = time.perf_counter()
    passes = 0
    failures: List[str] = []
    measured_all: List = []
    expected_all: List = []
    for t in range(trials):
        ok, measured, expected, note = check(tuple(params), seed + t)
        measured_all.append(measured)
        expected_all.append(expected)
        if ok:
            passes += 1
        else:
            failures.append(f"trial {t} (seed {seed + t}): measured {measured} "
                            f"expected {expected} {note}".strip())
    verdict = (passes == trials) if threshold >= 1.0 else \
        (passes >= threshold * trials)
    return ExperimentReport(property_name, tuple(params), seed, trials, passes,
                            tuple(failures), tuple(measured_all),
                            tuple(expected_all), threshold, bool(verdict),
                            time.perf_counter() - t0)
