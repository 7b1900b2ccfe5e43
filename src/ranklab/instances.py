"""Generation and normal forms of rank-decoding and MinRank instances.

Conventions used throughout the package:

* An RD instance is (G, y) with G a full-rank k x n generator matrix over
  F_{q^m} and y the noisy word.  A planted witness stores the vector x
  *in modeling sign*: y + x G = e, where e = (s_1..s_r) C has rank weight
  exactly r.  The codeword part is therefore c = -x G = y - e.
* A MinRank instance is (M_0, ..., M_K) over F_q with a planted x such
  that M_0 + sum x_i M_i has rank exactly r.
* Every transformation records enough data to map a solution of the new
  instance back to the original one.  The canonical form and the MinRank
  view of an RD instance also transport a planted witness forward; a guess
  reduction (``hybrid``, which does its own shortening) records only what
  lifts a solution back, and the reduced instance carries no witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .galois import FiniteField, make_base_field, make_ext_field
from . import matlin as ml

__all__ = [
    "RdWitness",
    "RdInstance",
    "CanonicalRd",
    "MinRankInstance",
    "InstanceError",
    "check_shape",
    "check_params",
    "gen_rd",
    "canonicalize",
    "rd_to_minrank",
    "gen_minrank",
    "flatten_matrix",
    "unflatten_matrix",
]


class InstanceError(ValueError):
    """Raised for malformed parameters or degenerate instances."""


def check_shape(kind: str, m: int, n: int, k: int, r: int) -> None:
    """Raise InstanceError unless an instance of ``kind`` ("rd", k the code
    dimension, or "minrank", k the matrix count K) can have this shape."""
    if kind == "rd":
        if not 0 < k < n:
            raise InstanceError(f"need 0 < k < n, got k = {k}, n = {n}")
        if not 0 <= r <= min(m, n):
            raise InstanceError(f"need 0 <= r <= min(m, n), got r = {r}")
        return
    if k < 1:
        raise InstanceError(f"need K >= 1, got K = {k}")
    if not 0 < r <= min(m, n):
        raise InstanceError(f"need 0 < r <= min(m, n), got r = {r}")


def check_params(kind: str, q: int, m: int, n: int, k: int, r: int) -> FiniteField:
    """The field of an instance of ``kind`` with these parameters: F_{q^m}
    for RD, F_q for MinRank.  Raises ValueError (InstanceError for the
    shape, see :func:`check_shape`) when they describe no instance."""
    check_shape(kind, m, n, k, r)
    return make_ext_field(q, m) if kind == "rd" else make_base_field(q)


# ---------------------------------------------------------------------------
# rank decoding instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RdWitness:
    """Planted solution: y + x G = e = (support elements) . coeffs."""

    x: np.ndarray          # length k over F_{q^m}, modeling sign
    support: np.ndarray    # r independent elements of F_{q^m}
    coeffs: np.ndarray     # r x n full-rank matrix over F_q
    error: np.ndarray      # length n over F_{q^m}


@dataclass(frozen=True)
class RdInstance:
    field: FiniteField     # F_{q^m}
    n: int
    k: int
    r: int
    gen: np.ndarray        # k x n over F_{q^m}
    received: np.ndarray   # length n
    witness: Optional[RdWitness] = None

    @property
    def q(self) -> int:
        return self.field.coord_field.order

    @property
    def m(self) -> int:
        return self.field.degree

    def verify_witness(self) -> bool:
        if self.witness is None:
            return False
        fld = self.field
        e = fld.add_arr(self.received,
                        ml.matmul(fld, self.witness.x[None, :], self.gen)[0])
        return bool((e == self.witness.error).all()
                    and ml.rank_weight(fld, e) == self.r)


def gen_rd(q: int, m: int, n: int, k: int, r: int, seed: int) -> RdInstance:
    """Seeded uniform RD instance with an exact-weight-r planted error.

    The support elements are resampled until F_q-independent and the
    coefficient matrix until full rank, so rank(Mat(e)) = r by construction.
    """
    fld = check_params("rd", q, m, n, k, r)
    rng = np.random.default_rng(seed)
    gen = ml.random_full_rank(fld, k, n, rng)
    x = fld.rand_elements(rng, k)
    if r == 0:
        e = np.zeros(n, dtype=np.int64)
        support = np.zeros(0, dtype=np.int64)
        coeffs = np.zeros((0, n), dtype=np.int64)
    else:
        while True:
            support = fld.rand_elements(rng, r)
            if ml.rank_weight(fld, support) == r:
                break
        coeffs = ml.random_full_rank(fld.base, r, n, rng)
        e = ml.matmul(fld, support[None, :], coeffs)[0]
    y = fld.add_arr(fld.neg_arr(ml.matmul(fld, x[None, :], gen)[0]), e)
    if ml.rank_weight(fld, e) != r:
        raise InstanceError("planted error does not have rank weight r")
    return RdInstance(fld, n, k, r, gen, y, RdWitness(x, support, coeffs, e))


# ---------------------------------------------------------------------------
# canonical (systematic) form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalRd:
    """Systematic form: G = (I_k | *), y = (0_k, 1, *), with parity data.

    ``h_y`` is a parity check of the extended code C + <y> in systematic
    form (* | I_{n-k-1}); ``h`` completes it to a parity check of C and
    satisfies y . h^T = 1.  ``perm`` (position permutation) and ``scale``
    (y was multiplied by scale, after a codeword was subtracted) map errors
    between the original and canonical coordinates.
    """

    field: FiniteField
    n: int
    k: int
    r: int
    gen: np.ndarray
    received: np.ndarray
    h_y: np.ndarray
    h: np.ndarray
    perm: np.ndarray       # canonical position j came from original perm[j]
    scale: int             # canonical y = scale * (permuted y minus the codeword
                           # matching it on the information set)
    witness: Optional[RdWitness] = None

    def error_to_origin(self, e_can: np.ndarray) -> np.ndarray:
        """Map a canonical-coordinates error back to the original instance."""
        fld = self.field
        e = fld.mul_arr(e_can, fld.inv(self.scale))
        out = np.zeros_like(e)
        out[self.perm] = e
        return out


def canonicalize(rd: RdInstance, perm_seed: Optional[int] = None) -> CanonicalRd:
    """Permute/offset/scale an RD instance into the systematic shape.

    ``perm_seed`` shuffles the position order before choosing the
    information set, giving the solver fresh canonicalizations on retry.
    """
    fld = rd.field
    n, k = rd.n, rd.k
    order = np.arange(n)
    if perm_seed is not None:
        np.random.default_rng(perm_seed).shuffle(order)
    res = ml.echelonize(fld, rd.gen[:, order])
    if res.rank != k:
        raise InstanceError("generator matrix is not full rank")
    piv = [int(order[c]) for c in res.pivots]
    rest = [j for j in order.tolist() if j not in set(piv)]
    perm = np.array(piv + rest)
    # the RREF with the pivot columns moved to the front is the systematic form
    pos = np.argsort(order)
    gen = res.rref[:, pos[perm]]
    y1 = np.asarray(rd.received)[perm]
    # offset by the codeword matching y on the information set
    y2 = fld.sub_arr(y1, ml.matmul(fld, y1[None, :k], gen)[0])
    nz = np.nonzero(y2[k:])[0]
    if nz.size == 0:
        raise InstanceError("received word lies in the code")
    j = k + int(nz[0])
    if j != k:
        perm[[k, j]] = perm[[j, k]]
        gen[:, [k, j]] = gen[:, [j, k]]
        y2[[k, j]] = y2[[j, k]]
    scale = fld.inv(int(y2[k]))
    y = fld.mul_arr(y2, scale)
    # parity check of C + <y> from the systematic (k+1) x n stack of G and y
    a2 = gen[:, k:]
    ytail = y[k + 1:]
    top = fld.sub_arr(a2[:, 1:], ml.matmul(fld, a2[:, :1], ytail[None, :]))
    atil = np.concatenate([top, ytail[None, :]], axis=0)      # (k+1) x (n-k-1)
    h_y = np.concatenate([fld.neg_arr(atil).T, ml.identity(n - k - 1)], axis=1)
    h = np.concatenate([fld.neg_arr(a2[:, 0]), [1], np.zeros(n - k - 1, dtype=np.int64)])
    witness = None
    if rd.witness is not None:
        e_can = fld.mul_arr(rd.witness.error[perm], scale)
        x_can = fld.neg_arr(fld.sub_arr(y, e_can))[:k]
        support = fld.mul_arr(rd.witness.support, scale) if rd.r else rd.witness.support
        coeffs = rd.witness.coeffs[:, perm] if rd.r else rd.witness.coeffs
        witness = RdWitness(x_can, support, coeffs, e_can)
    can = CanonicalRd(fld, n, k, rd.r, gen, y, h_y, h, perm, scale, witness)
    _check_canonical(can)
    return can


def _check_canonical(can: CanonicalRd) -> None:
    fld = can.field
    if ml.matmul(fld, can.gen, can.h_y.T).any():
        raise InstanceError("canonical form: G . H_y^T != 0")
    if ml.matmul(fld, can.received[None, :], can.h_y.T).any():
        raise InstanceError("canonical form: y . H_y^T != 0")
    if ml.matmul(fld, can.gen, can.h[:, None]).any():
        raise InstanceError("canonical form: h not in the dual")
    if int(ml.matmul(fld, can.received[None, :], can.h[:, None])[0, 0]) != 1:
        raise InstanceError("canonical form: y . h^T != 1")
    if can.witness is not None:
        e = fld.add_arr(can.received, ml.matmul(fld, can.witness.x[None, :], can.gen)[0])
        if (e != can.witness.error).any():
            raise InstanceError("canonical form: witness does not transport")


# ---------------------------------------------------------------------------
# MinRank instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinRankInstance:
    field: FiniteField         # F_q
    m: int
    n: int
    K: int
    r: int
    mats: np.ndarray           # (K + 1, m, n): M_0, M_1, ..., M_K
    witness: Optional[np.ndarray] = None

    def __post_init__(self):
        # any sequence of K + 1 matrices is stacked once, here
        object.__setattr__(self, "mats", np.asarray(self.mats, dtype=np.int64)
                           .reshape(self.K + 1, self.m, self.n))

    def low_rank_matrix(self, x: Sequence[int]) -> np.ndarray:
        """M_0 + sum x_i M_i."""
        coefs = np.concatenate([[1], np.asarray(x, dtype=np.int64).reshape(self.K)])
        flat = self.mats.reshape(self.K + 1, self.m * self.n)
        return ml.matmul(self.field, coefs[None, :], flat).reshape(self.m, self.n)

    def verify_witness(self) -> bool:
        if self.witness is None:
            return False
        e = self.low_rank_matrix(self.witness)
        return ml.echelonize(self.field, e).rank == self.r


def flatten_matrix(mat: np.ndarray) -> np.ndarray:
    """Column-major flattening of the last two axes: column j occupies slots
    jm..jm+m-1, so a stack (..., m, n) becomes (..., m n)."""
    mat = np.asarray(mat, dtype=np.int64)
    return mat.swapaxes(-1, -2).reshape(mat.shape[:-2] + (-1,))


def unflatten_matrix(vec: np.ndarray, m: int) -> np.ndarray:
    """Inverse of flatten_matrix along the last axis: (..., m n) to (..., m, n)."""
    vec = np.asarray(vec, dtype=np.int64)
    return vec.reshape(vec.shape[:-1] + (-1, m)).swapaxes(-1, -2)


def gen_minrank(q: int, m: int, n: int, K: int, r: int, seed: int) -> MinRankInstance:
    """Seeded MinRank instance with a planted rank-r combination."""
    fld = check_params("minrank", q, m, n, K, r)
    rng = np.random.default_rng(seed)
    mats = np.stack([fld.rand_elements(rng, (m, n)) for _ in range(K)])
    x = fld.rand_elements(rng, K)
    left = ml.random_full_rank(fld, m, r, rng)
    right = ml.random_full_rank(fld, r, n, rng)
    target = ml.matmul(fld, left, right)
    m0 = fld.sub_arr(target, ml.matmul(fld, x[None, :], mats.reshape(K, m * n)).reshape(m, n))
    inst = MinRankInstance(fld, m, n, K, r, np.concatenate([m0[None], mats]), x)
    if not inst.verify_witness():
        raise InstanceError("planted combination does not have rank r")
    return inst


# ---------------------------------------------------------------------------
# RD -> MinRank reduction
# ---------------------------------------------------------------------------

def rd_to_minrank(rd: RdInstance) -> MinRankInstance:
    """Expand an RD instance into the equivalent K = k m MinRank instance.

    Matrix index (j, l) -> 1 + j m + l holds Mat(b_l G_j); a solution x
    over F_{q^m} transports to its coordinate grid, and evaluating the
    combination at the transported witness reproduces Mat(e).
    """
    fld = rd.field
    m, n, k = rd.m, rd.n, rd.k
    # (k, l, n, i) -> Mat(b_l G_j) at index 1 + j m + l, coordinate i in row i
    prods = fld.coeffs_arr(fld.mul_arr(np.array(fld.basis)[:, None], rd.gen[:, None, :]))
    mats = [ml.mat_of(fld, rd.received)] + list(prods.transpose(0, 1, 3, 2).reshape(k * m, m, n))
    witness = None
    if rd.witness is not None:
        witness = fld.coeffs_arr(rd.witness.x).reshape(-1)
    out = MinRankInstance(fld.base, m, n, k * m, rd.r, tuple(mats), witness)
    if witness is not None and not out.verify_witness():
        raise InstanceError("witness does not transport to the MinRank instance")
    return out
