"""Guess-based reduction of RD/MinRank instances to smaller ones.

Betting that ``a`` positions (columns) of the solution vanish turns one
instance into at most q^(a r) smaller instances, exactly one of which is
solvable when the first r solution positions are independent (the standing
independence assumption).  Each guess is a square transform P_A that adds
F_q-combinations of the first r coordinates onto the last ``a``; a correct
bet zeroes those coordinates.  Both problems are an affine space
row_0 + span(rows): y + <G> for RD, and the column-major flattenings of
M_0 + <M_1..M_K> for MinRank.  One shortening step, one row reduction per
guess, drops the zeroed coordinates from it, with ``a`` code dimensions
(RD) or ``a m`` linear variables (MinRank).  One :class:`Reduction` record
serves both: it keeps what lifts a combination x of the reduced space back
to one of the original (RD's x being minus the message, y + x G = e); the
reduced instance carries no witness.

One driver loop serves RD and MinRank alike, in a deterministic flavour
(enumerate all guesses, then rerandomize and retry if the independence
assumption fails) and a probabilistic one (fresh right-rerandomization per
trial, betting directly).  Guesses and rerandomizations act on positions
only, so a lifted x needs no inverse of either.  Only reduction,
rerandomization, the inner solve and the validity check depend on the
problem; every lifted x is verified against the original instance before it
is accepted, so spurious inner decodings are harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from .galois import FiniteField
from . import matlin as ml
from .instances import (InstanceError, MinRankInstance, RdInstance, RdWitness,
                        flatten_matrix, unflatten_matrix)
from . import solver as sv

__all__ = [
    "GuessMatrix",
    "Reduction",
    "HybridResult",
    "enumerate_guesses",
    "p_matrix",
    "reduce_rd",
    "reduce_minrank",
    "rerandomize_rd",
    "rerandomize_minrank",
    "assumption_holds_rd",
    "assumption_holds_minrank",
    "hybrid_solve_rd",
    "hybrid_solve_minrank",
    "probabilistic_solve_rd",
    "probabilistic_solve_minrank",
]


@dataclass(frozen=True)
class GuessMatrix:
    """One bet: columns of A give the combinations added to the tail."""

    a: np.ndarray        # r x a over F_q
    code: int            # row-major little-endian base-q packing


def enumerate_guesses(a: int, r: int, q: int) -> Iterator[GuessMatrix]:
    """All q^(a r) guesses in ascending integer-code order."""
    if a < 0:
        raise ValueError("need a >= 0")
    total = q ** (a * r)
    for code in range(total):
        mat = np.zeros((r, a), dtype=np.int64)
        c = code
        for i in range(r):
            for j in range(a):
                mat[i, j] = c % q
                c //= q
        yield GuessMatrix(mat, code)


def p_matrix(fld: FiniteField, guess: np.ndarray, n: int) -> np.ndarray:
    """Unit upper-triangular transform fixing all but the last ``a`` columns."""
    r, a = guess.shape
    if r + a > n:
        raise InstanceError("guess wider than the instance")
    p = ml.identity(n)
    if a:
        p[:r, n - a:] = fld.neg_arr(guess)
    return p


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Reduction:
    """A shortened instance, with what lifts its x back.

    ``transform`` is the D of :func:`_shorten_affine` and ``tail`` is row_0
    on the shortened coordinates, so [x', -tail] D combines row_0 +
    span(rows) into [row_0' + x' rows', 0]: an x of the instance reduced.
    """

    instance: Union[RdInstance, MinRankInstance]
    guess: GuessMatrix
    transform: np.ndarray
    tail: np.ndarray

    def lift_x(self, x_reduced: np.ndarray) -> np.ndarray:
        fld = self.instance.field
        x_full = np.concatenate([x_reduced, fld.neg_arr(self.tail)])
        return ml.matmul(fld, x_full[None, :], self.transform)[0]


def _shorten_affine(fld: FiniteField, stack: np.ndarray, ntail: int
                    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Shorten the affine space stack[0] + span(stack[1:]) at the last ``ntail``
    coordinates, by one row reduction.

    Reduces [tail | rest | I_k] for the k spanning rows.  Unless its first
    ``ntail`` pivots are the tail columns (the span loses exactly ``ntail``
    dimensions) this returns None.  Otherwise the first ``ntail`` rows read
    (I B) on (tail, rest) and the others (0 gen_short), and the identity
    block is the row transform D.  Returns gen_short, D with the B rows
    moved last, so that D . span = (gen_short 0 ; B I) on (rest, tail), and
    stack[0] on the rest minus its tail times B.
    """
    k, total = stack.shape[0] - 1, stack.shape[1]
    width = total - ntail
    span = stack[1:]
    res = ml.echelonize(fld, np.concatenate([span[:, width:], span[:, :width],
                                             ml.identity(k)], axis=1))
    if res.pivots[:ntail] != tuple(range(ntail)):
        return None
    rest = res.rref[:, ntail:total]
    row0 = stack[0]
    return (rest[ntail:], np.roll(res.rref[:, total:], -ntail, axis=0),
            fld.sub_arr(row0[:width], ml.matmul(fld, row0[None, width:], rest[:ntail])[0]))


def reduce_rd(rd: RdInstance, guess: GuessMatrix, a: int) -> Optional[Reduction]:
    """Shorten at the last ``a`` positions after applying the guess transform.

    Returns None when the shortened code does not have the expected
    dimension k - a (the guess is then skipped, not fatal).
    """
    if a > rd.k:
        raise InstanceError("cannot shorten more positions than the dimension")
    fld = rd.field
    if a == 0:
        return Reduction(rd, guess, ml.identity(rd.k), np.zeros(0, dtype=np.int64))
    stack = ml.matmul(fld, np.vstack([rd.received, rd.gen]), p_matrix(fld, guess.a, rd.n))
    cut = _shorten_affine(fld, stack, a)
    if cut is None:
        return None
    gen_short, transform, y_red = cut
    return Reduction(RdInstance(fld, rd.n - a, rd.k - a, rd.r, gen_short, y_red),
                     guess, transform, stack[0, rd.n - a:])


def reduce_minrank(inst: MinRankInstance, guess: GuessMatrix, a: int
                   ) -> Optional[Reduction]:
    """Drop ``a`` matrix columns and ``a m`` linear variables after the guess."""
    am = a * inst.m
    if am > inst.K:
        raise InstanceError("need a m <= K")
    fld = inst.field
    if a == 0:
        return Reduction(inst, guess, ml.identity(inst.K), np.zeros(0, dtype=np.int64))
    p_a = p_matrix(fld, guess.a, inst.n)
    stack = flatten_matrix(ml.matmul(fld, inst.mats.reshape(-1, inst.n), p_a)
                           .reshape(inst.mats.shape))
    cut = _shorten_affine(fld, stack, am)
    if cut is None:
        return None
    gen_short, transform, m0_red = cut
    mats = unflatten_matrix(np.vstack([m0_red, gen_short]), inst.m)
    red = MinRankInstance(fld, inst.m, inst.n - a, inst.K - am, inst.r, mats)
    return Reduction(red, guess, transform, stack[0, inst.m * (inst.n - a):])


# ---------------------------------------------------------------------------
# rerandomization
# ---------------------------------------------------------------------------

def rerandomize_rd(rd: RdInstance, seed: int) -> Tuple[RdInstance, np.ndarray]:
    """Right-multiply by a uniform invertible base-field matrix; returns P."""
    fld = rd.field
    base = fld.base
    rng = np.random.default_rng(seed)
    p = ml.random_invertible(base, rd.n, rng)
    moved = ml.matmul(fld, np.vstack([rd.received, rd.gen]), p)
    witness = None
    if rd.witness is not None:
        e = ml.matmul(fld, rd.witness.error[None, :], p)[0]
        coeffs = ml.matmul(base, rd.witness.coeffs, p) if rd.r else rd.witness.coeffs
        witness = RdWitness(rd.witness.x, rd.witness.support, coeffs, e)
    return RdInstance(fld, rd.n, rd.k, rd.r, moved[1:], moved[0], witness), p


def rerandomize_minrank(inst: MinRankInstance, seed: int
                        ) -> Tuple[MinRankInstance, np.ndarray]:
    fld = inst.field
    rng = np.random.default_rng(seed)
    p = ml.random_invertible(fld, inst.n, rng)
    mats = ml.matmul(fld, inst.mats.reshape(-1, inst.n), p).reshape(inst.mats.shape)
    return MinRankInstance(fld, inst.m, inst.n, inst.K, inst.r, mats,
                           inst.witness), p


def assumption_holds_rd(rd: RdInstance) -> bool:
    """First r positions of the planted error are F_q-independent."""
    if rd.witness is None:
        raise ValueError("needs a planted witness")
    return ml.rank_weight(rd.field, rd.witness.error[:rd.r]) == rd.r


def assumption_holds_minrank(inst: MinRankInstance) -> bool:
    """First r columns of the planted low-rank matrix are independent."""
    if inst.witness is None:
        raise ValueError("needs a planted witness")
    e = inst.low_rank_matrix(inst.witness)
    return ml.echelonize(inst.field, e[:, :inst.r]).rank == inst.r


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HybridResult:
    solution: Union[sv.RdSolution, np.ndarray]
    guesses_tried: int
    infeasible_skipped: int
    rounds: int                    # rerandomizations consumed
    trials: int                    # probabilistic mode only
    transcript: Tuple[str, ...]


def hybrid_solve_rd(rd: RdInstance, a: int, seed: int = 0,
                    max_rounds: int = 4) -> HybridResult:
    """Deterministic guess enumeration with rerandomized retries."""
    return _drive(rd, a, seed, True, max_rounds)


def probabilistic_solve_rd(rd: RdInstance, a: int, seed: int = 0,
                           max_trials: int = 4096) -> HybridResult:
    """Fresh rerandomization per trial, betting the tail is already zero."""
    return _drive(rd, a, seed, False, max_trials)


def hybrid_solve_minrank(inst: MinRankInstance, a: int, seed: int = 0,
                         max_rounds: int = 4) -> HybridResult:
    """Deterministic guess enumeration with rerandomized retries."""
    return _drive(inst, a, seed, True, max_rounds)


def probabilistic_solve_minrank(inst: MinRankInstance, a: int, seed: int = 0,
                                max_trials: int = 4096) -> HybridResult:
    """Fresh rerandomization per trial, betting the tail is already zero."""
    return _drive(inst, a, seed, False, max_trials)


def _drive(inst: Union[RdInstance, MinRankInstance], a: int, seed: int,
           deterministic: bool, limit: int) -> HybridResult:
    """Try guesses on presentations of ``inst`` until a lift verifies.

    Deterministic mode tries all q^(a r) guesses on ``inst`` itself, then on
    up to ``limit`` rerandomizations; probabilistic mode tries only the zero
    guess, on ``limit`` fresh rerandomizations.  The inner x (for RD, minus
    the decoded message) is lifted to the presentation, whose x is that of
    ``inst``, and verified on ``inst``, so a spurious inner solution is never
    returned.  Every tried guess leaves one transcript line: infeasible, the
    inner solve's failure, or the verdict on its lift.
    """
    is_rd = isinstance(inst, RdInstance)
    # looked up at call time, so a wrapper bound over the module's names sees
    # every rerandomization and guess
    rerandomize, reduce = ((rerandomize_rd, reduce_rd) if is_rd
                           else (rerandomize_minrank, reduce_minrank))
    fld = inst.field
    if deterministic:
        seeds = [None] + [seed + 7 * i + 1 for i in range(limit)]
    else:
        seeds = [seed * 65537 + t for t in range(1, limit + 1)]
    q = inst.q if is_rd else fld.order
    guesses = None if deterministic else 1          # all, or the zero guess only
    transcript: List[str] = []
    tried = skipped = 0
    for number, pres_seed in enumerate(seeds):
        label = f"round {number}" if deterministic else f"trial {number + 1}"
        current = inst if pres_seed is None else rerandomize(inst, pres_seed)[0]
        for guess in islice(enumerate_guesses(a, inst.r, q), guesses):
            tried += 1
            tag = f"{label} guess {guess.code}"
            red = reduce(current, guess, a)
            if red is None:
                skipped += 1
                transcript.append(f"{tag}: infeasible")
                continue
            if is_rd:
                try:
                    x_red = fld.neg_arr(sv.decode_rd(red.instance).message)
                except sv.Unsolved as exc:
                    last = exc.transcript[-1] if exc.transcript else "no stage ran"
                    transcript.append(f"{tag}: unsolved, {last}")
                    continue
            else:
                x_red = sv.solve_minrank_linearized(red.instance)
                if not isinstance(x_red, np.ndarray):
                    transcript.append(f"{tag}: {x_red}")
                    continue
            x = red.lift_x(x_red)
            if is_rd:
                sol = sv.verify_rd(inst, sv.fld_error_from_x(inst, x), inst.r, transcript, tag)
            else:
                sol = x if sv.verify_minrank(inst, x) is not None else None
                transcript.append(f"{tag}: " + ("lift rejected" if sol is None
                                                else "verified"))
            if sol is not None:
                rounds, trials = (number, 0) if deterministic else (0, number + 1)
                return HybridResult(sol, tried, skipped, rounds, trials,
                                    tuple(transcript))
    transcript.append(f"no lift verified on {len(seeds)} presentations")
    raise sv.Unsolved(transcript)
