"""Answer checks that share no arithmetic with the package under test.

An element of F_{q^m}, q = p^s, is one of the package's integer codes: a
base-q little-endian packing of its F_q coordinates, each of which is a
base-p packing of its F_p coordinates.  The base-p digits of a code are
therefore its coordinates over F_p, and everything below works on those
digits with its own polynomial arithmetic and its own Gaussian elimination
modulo p.  Only the two moduli are taken from the package's field handle.

Run this file to self-test the checkers: each one is fed the planted answer
of a few generated instances, which it must accept, and corrupted answers,
which it must reject.

    python3 perfbench/checks.py
"""

from __future__ import annotations

import sys

import numpy as np


def rank_mod_p(mat, p: int) -> int:
    """Rank of an integer matrix over F_p, by plain Gaussian elimination."""
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(a[rank:, c])[0]
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        a[[rank, pr]] = a[[pr, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), p - 2, p) % p
        f = a[:, c].copy()
        f[rank] = 0
        a = (a - np.outer(f, a[rank])) % p
        rank += 1
    return rank


class RefField:
    """F_{q^m} on F_p digit arrays of shape (..., m, s)."""

    def __init__(self, p: int, q_modulus, m: int, ext_modulus):
        self.p = p
        self.s = len(q_modulus) - 1
        self.q = p ** self.s
        self.m = m
        self.q_mod = [int(c) for c in q_modulus]        # monic, over F_p
        self.ext_mod = [int(c) for c in ext_modulus]    # monic, codes over F_q
        if self.q_mod[-1] != 1 or self.ext_mod[-1] != 1 or len(self.ext_mod) != m + 1:
            raise ValueError("moduli must be monic of the stated degrees")

    @classmethod
    def of(cls, fld) -> "RefField":
        """Reference arithmetic for a package field handle of F_{q^m}."""
        base = fld.base
        q_mod = [0, 1] if base.base is None else list(base.modulus)
        return cls(fld.char, q_mod, fld.degree, list(fld.modulus))

    def expand(self, codes) -> np.ndarray:
        """Codes of shape S to F_p digits of shape S + (m, s)."""
        c = np.asarray(codes, dtype=np.int64)
        if (c < 0).any() or (c >= self.q ** self.m).any():
            raise ValueError("element code out of range")
        pw = self.p ** np.arange(self.m * self.s, dtype=np.int64)
        digits = (c[..., None] // pw) % self.p
        return digits.reshape(c.shape + (self.m, self.s))

    def _times_u(self, a: np.ndarray) -> np.ndarray:
        """Multiply F_q coordinates (last axis) by the generator u of F_q."""
        if self.s == 1:
            return a.copy()
        top = a[..., -1:]
        out = np.concatenate([np.zeros_like(top), a[..., :-1]], axis=-1)
        return (out - top * np.array(self.q_mod[:-1])) % self.p

    def _times_q(self, a: np.ndarray, g: int) -> np.ndarray:
        """Multiply F_q coordinates (last axis) by the F_q element coded g."""
        acc = np.zeros_like(a)
        cur = a
        for j in range(self.s):
            gj = (g // self.p ** j) % self.p
            if gj:
                acc = (acc + gj * cur) % self.p
            cur = self._times_u(cur)
        return acc

    def _times_t(self, a: np.ndarray) -> np.ndarray:
        """Multiply elements (axes -2, -1) by the generator t of F_{q^m}."""
        top = a[..., -1, :]
        out = np.concatenate([np.zeros_like(a[..., :1, :]), a[..., :-1, :]], axis=-2)
        for i, g in enumerate(self.ext_mod[:-1]):
            if g:
                out[..., i, :] = (out[..., i, :] - self._times_q(top, g)) % self.p
        return out

    def _fp_multiples(self, a: np.ndarray, over_ext: bool) -> np.ndarray:
        """a times every F_p-basis element of F_q (and of F_{q^m} if over_ext)."""
        outs = []
        cur_t = a
        for _ in range(self.m if over_ext else 1):
            cur = cur_t
            for _ in range(self.s):
                outs.append(cur)
                cur = self._times_u(cur)
            cur_t = self._times_t(cur_t)
        return np.stack(outs)

    def sub(self, a, b) -> np.ndarray:
        return (self.expand(a) - self.expand(b)) % self.p

    def rank_weight_digits(self, d: np.ndarray) -> int:
        """Dimension over F_q of the span of the entries of a digit vector."""
        rows = self._fp_multiples(d, over_ext=False)      # (s, n, m, s)
        return rank_mod_p(rows.reshape(-1, self.m * self.s), self.p) // self.s

    def in_code_digits(self, gen, d: np.ndarray) -> bool:
        """Whether a digit vector lies in the F_{q^m}-row space of gen."""
        g = self.expand(gen)                                # (k, n, m, s)
        span = self._fp_multiples(g, over_ext=True).reshape(-1, d.size)
        return rank_mod_p(np.vstack([span, d.reshape(1, -1)]), self.p) == \
            rank_mod_p(span, self.p)

    def times_base_matrix(self, vec, mat) -> np.ndarray:
        """Codes of vec . mat for vec over F_{q^m} and mat over F_q."""
        d = self.expand(vec)                                # (n, m, s)
        mat = np.asarray(mat, dtype=np.int64)
        out = np.zeros((mat.shape[1],) + d.shape[1:], dtype=np.int64)
        for i in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                if mat[i, j]:
                    out[j] = (out[j] + self._times_q(d[i], int(mat[i, j]))) % self.p
        pw = self.p ** np.arange(self.m * self.s, dtype=np.int64)
        return out.reshape(out.shape[0], -1) @ pw


def is_rd_decoding(ref: RefField, gen, received, r: int, error) -> bool:
    """Rank weight of error <= r and received - error in the code of gen."""
    error = np.asarray(error, dtype=np.int64)
    if error.shape != np.shape(received):
        return False
    try:
        if ref.rank_weight_digits(ref.expand(error)) > r:
            return False
        return ref.in_code_digits(gen, ref.sub(received, error))
    except ValueError:
        return False


def check_rd(ref: RefField, gen, received, r: int, planted, error) -> bool:
    """An RD answer is the planted error, or failing that another decoding."""
    error = np.asarray(error)
    if error.shape == np.shape(planted) and (error == planted).all():
        return True
    return is_rd_decoding(ref, gen, received, r, error)


def check_minrank(mats, p: int, r: int, x) -> bool:
    """M_0 + sum x_u M_u has rank <= r over the prime field F_p."""
    mats = np.asarray(mats, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    if x.shape != (mats.shape[0] - 1,) or (x < 0).any() or (x >= p).any():
        return False
    combo = (mats[0] + np.tensordot(x, mats[1:], axes=1)) % p
    return rank_mod_p(combo, p) <= r


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

RD_SETS = [(2, 7, 10, 3, 2), (2, 7, 12, 5, 2), (4, 5, 8, 3, 2), (3, 7, 10, 5, 2),
           (3, 4, 7, 3, 1), (5, 3, 6, 2, 1), (2, 9, 10, 4, 3), (2, 7, 8, 4, 2)]
MINRANK_SETS = [(2, 6, 8, 14, 2)]


def self_test() -> list:
    """Problems found; an empty list means every checker behaved."""
    from ranklab import hybrid, instances, matlin

    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    a = np.array([[1, 2, 0], [2, 1, 0], [0, 1, 1]])
    expect(rank_mod_p(a, 3) == 2 and rank_mod_p(a, 2) == 3, "rank_mod_p")
    for params in RD_SETS:
        q, m, n, k, r = params
        rd = instances.gen_rd(q, m, n, k, r, 1)
        fld = rd.field
        ref = RefField.of(fld)
        e = rd.witness.error
        tag = f"rd {params}"
        expect(ref.rank_weight_digits(ref.expand(e)) == r, f"{tag}: planted weight")
        expect(check_rd(ref, rd.gen, rd.received, r, e, e), f"{tag}: planted rejected")
        expect(is_rd_decoding(ref, rd.gen, rd.received, r, e),
               f"{tag}: planted fails the decoding check")
        # one F_p digit of the first coordinate moved off the planted error
        bad = e.copy()
        low = int(bad[0]) % ref.p
        bad[0] += (low + 1) % ref.p - low
        expect(not check_rd(ref, rd.gen, rd.received, r, e, bad), f"{tag}: moved coordinate")
        # weight stays r, but received - error leaves the code
        lam = fld.generator
        scaled = fld.mul_arr(e, lam)
        expect(ref.rank_weight_digits(ref.expand(scaled)) == r, f"{tag}: scaled weight")
        expect(not check_rd(ref, rd.gen, rd.received, r, e, scaled), f"{tag}: scaled error")
        # received - error stays in the code, but the weight is too high
        shifted = fld.add_arr(e, rd.gen[0])
        expect(not check_rd(ref, rd.gen, rd.received, r, e, shifted), f"{tag}: shifted by a codeword")
        expect(ref.in_code_digits(rd.gen, ref.sub(rd.received, shifted)),
               f"{tag}: codeword shift left the code")
        expect(not check_rd(ref, rd.gen, rd.received, r, e, e[:-1]), f"{tag}: short answer")
        # the planted error carried through a rerandomization
        rd2, pmat = hybrid.rerandomize_rd(rd, 5)
        moved = ref.times_base_matrix(e, pmat)
        expect((moved == matlin.matmul(fld, e[None, :], pmat)[0]).all(),
               f"{tag}: transported planted error")
        expect(is_rd_decoding(ref, rd2.gen, rd2.received, r, moved),
               f"{tag}: transported planted error rejected")
    for q, m, n, K, r in MINRANK_SETS:
        inst = instances.gen_minrank(q, m, n, K, r, 1)
        mats = np.stack(inst.mats)
        x = inst.witness
        tag = f"minrank {(q, m, n, K, r)}"
        expect(check_minrank(mats, q, r, x), f"{tag}: planted rejected")
        for u in range(K):
            flipped = x.copy()
            flipped[u] = (flipped[u] + 1) % q
            expect(not check_minrank(mats, q, r, flipped), f"{tag}: flipped x[{u}]")
        expect(not check_minrank(mats, q, r, np.zeros(K, dtype=np.int64)), f"{tag}: zero x")
        expect(not check_minrank(mats, q, r, x[:-1]), f"{tag}: short x")
    return problems


if __name__ == "__main__":
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "ranklab" / "__init__.py").is_file():
        print(f"error: no ranklab sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    found = self_test()
    for line in found:
        print("FAIL", line)
    print("self-test:", "ok" if not found else f"{len(found)} problem(s)")
    sys.exit(1 if found else 0)
