"""Finite field towers F_p ⊆ F_q ⊆ F_{q^m} with trace and dual-basis machinery.

Elements are integer codes: the base-q little-endian packing of the
coefficient vector in the polynomial basis ``(1, z, ..., z^{d-1})`` of the
field over its subfield.  For characteristic 2 this makes addition a plain
XOR of codes at every level of the tower.  Multiplication uses discrete
log/antilog tables built once per field, and so does array addition in odd
characteristic, through Zech logarithms Z(k) = log(1 + g^k):
log(a + b) = log a + Z(log b - log a).  The Zech table covers every
difference of logs, the log sentinel of 0 included, and its outer regions
answer a zero summand, so an array sum is one gather with no test for 0.
The scalar ``add`` and ``neg`` work digit by digit instead.  Fields are
immutable after construction (up to tables built on first use) and safe to
share between threads.

Each extension is built by linear algebra over its base: x in F_q[z]/(f)
acts on coordinates as its m x m multiplication matrix, which gives the
modulus (Berlekamp's criterion), the generator and, by doubling the map
x -> g x, the tables.

The extension-specific operations (``trace``, ``frobenius``, ``dual_basis``,
``coeffs_arr``) always work *relative* to the declared base: for a tower
F_p ⊂ F_q ⊂ F_{q^m} the trace maps F_{q^m} onto F_q, never onto F_p.
F_p is its own degree-1 extension (its ``coord_field`` is itself), so each
of these operations has one formula at every level.
Because codes are polynomial-basis coordinates, trace(b*_i x) against the
dual basis is digit i of x's base-q code, so reading a system over F_{q^m}
coordinate by coordinate (done in :mod:`ranklab.modelings`) is
``coeffs_arr``, with no Frobenius pass.
"""

from __future__ import annotations

import functools
import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .matlin import echelonize, identity, matmul

__all__ = [
    "FiniteField",
    "make_base_field",
    "make_ext_field",
    "prime_power",
]


def prime_power(q: int) -> Tuple[int, int]:
    """Decompose q = p**s with p prime, or raise ValueError."""
    factors = _prime_factors(q) if q >= 2 else []
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = factors[0]
    return p, next(s for s in itertools.count(1) if p ** s == q)


def _digits(code: int, q: int, length: int) -> List[int]:
    out = []
    for _ in range(length):
        out.append(code % q)
        code //= q
    return out


def _pack(digits: Sequence[int], q: int) -> int:
    code = 0
    for d in reversed(digits):
        code = code * q + int(d)
    return code


def _prime_factors(n: int) -> List[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# multiplication matrices over the base, used only while constructing an
# extension: x in F_q[z]/(f) acts on coordinates as an m x m matrix
# ---------------------------------------------------------------------------

def _companion(base: "FiniteField", f: Sequence[int]) -> np.ndarray:
    """Multiplication by z modulo the monic f, over the base."""
    m = len(f) - 1
    c = np.zeros((m, m), dtype=np.int64)
    c[np.arange(1, m), np.arange(m - 1)] = 1
    c[:, -1] = base.neg_arr(np.array(f[:-1], dtype=np.int64))
    return c


def _krylov(base: "FiniteField", a: np.ndarray, v: Sequence[int]) -> np.ndarray:
    """The square matrix [v, a v, ..., a^{m-1} v], by doubling."""
    m = len(a)
    out = np.array(v, dtype=np.int64)[:, None]
    while out.shape[1] < m:
        out = np.hstack([out, matmul(base, a, out)])
        a = matmul(base, a, a)
    return out[:, :m]


def _mat_pow(base: "FiniteField", a: np.ndarray, e: int) -> np.ndarray:
    """a ** e for e >= 1, by square and multiply."""
    out = None
    while True:
        if e & 1:
            out = a if out is None else matmul(base, out, a)
        e >>= 1
        if not e:
            return out
        a = matmul(base, a, a)


def _lowest_irreducible(base: "FiniteField", m: int) -> Tuple[int, ...]:
    """Monic irreducible of degree m over base, lowest coefficient code first.

    Berlekamp's criterion: f is irreducible iff the q-power map on
    F_q[z]/(f) is injective and fixes only F_q.  Its matrix has columns
    z^{qi} mod f, that is [e_0, A e_0, ..., A^{m-1} e_0] for A = C^q.
    """
    q = base.order
    eye = identity(m)
    for code in range(q ** m):
        f = _digits(code, q, m) + [1]
        frob = _krylov(base, _mat_pow(base, _companion(base, f), q), eye[0])
        if (echelonize(base, frob).rank == m
                and echelonize(base, base.sub_arr(frob, eye)).rank == m - 1):
            return tuple(f)
    raise ArithmeticError("no irreducible polynomial found")  # impossible


# ---------------------------------------------------------------------------
# field handle
# ---------------------------------------------------------------------------

class FiniteField:
    """Handle for F_{q^d} over an optional base field, with code arithmetic.

    Do not instantiate directly; use :func:`make_base_field` /
    :func:`make_ext_field` (cached, so identical parameters share a handle).
    """

    def __init__(self, p: int, base: Optional["FiniteField"], modulus: Tuple[int, ...]):
        self.char = p
        self.base = base
        self.modulus = modulus                      # monic, codes over base (or F_p ints)
        self.degree = len(modulus) - 1              # over base (1 for the prime field itself)
        self.coord_field = base if base is not None else self   # F_p over itself
        self.order = (base.order if base else p) ** self.degree
        self._total_deg = self.degree * (base._total_deg if base else 1)   # over F_p
        self._build_log_tables()
        self._dual_basis: Optional[Tuple[int, ...]] = None  # built on first use

    # -- construction helpers ------------------------------------------------

    def _build_log_tables(self) -> None:
        """Pick the generator, then tabulate its powers, logs and inverses.

        The generator is the smallest code g >= 2 with g^((Q-1)/l) != 1 for
        every prime l dividing Q - 1.  With T_L the map x -> g^L x on all
        codes, the antilog table doubles: exp[L:2L] = T_L[exp[:L]] and
        T_{2L} = T_L[T_L].
        """
        q = self.order
        mult_order = q - 1
        factors = _prime_factors(mult_order) if mult_order > 1 else []
        if self.base is None:
            gen = next((g for g in range(2, q)
                        if all(pow(g, mult_order // ell, q) != 1 for ell in factors)), 1)
            step = gen * np.arange(q, dtype=np.int64) % q
        else:
            gen, step = self._generator_over_base(factors)
        exp = np.ones(1, dtype=np.int64)
        while exp.size < mult_order:
            exp = np.concatenate([exp, step[exp[:mult_order - exp.size]]])
            step = step[step]
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(mult_order)
        sentinel = 2 * mult_order if mult_order > 1 else 2
        log[0] = sentinel
        pad = np.zeros(2 * sentinel + 1, dtype=np.int64)
        pad[:2 * mult_order - 1] = np.concatenate([exp, exp[:-1]])
        inv = np.zeros(q, dtype=np.int64)
        inv[exp] = exp[-np.arange(mult_order) % mult_order]
        self.generator = int(gen)
        self._exp = exp
        self._log = log
        self._exp_pad = pad
        self._inv = inv
        if self.char != 2:
            self._zech = self._zech_table(sentinel)

    def _zech_table(self, sentinel: int) -> np.ndarray:
        """Zech logarithms, indexed by d + S for d = log b - log a and S the
        log sentinel, so that log(a + b) = log a + zech[d + S] for all a, b.

        For |d| <= Q - 2 the entry is Z(d mod (Q - 1)) = log(1 + g^d), the
        sentinel where 1 + g^d = 0.  Below, a = 0 and the entry is d; above,
        b = 0 and it is 0; a = b = 0 lands on Z(0) and reads as 0.  The code
        1 is F_p digit 0, so adding it only steps the lowest base-p digit of
        each code.  Filled by slices, in int32, to keep the peak low.
        """
        p, mo, chunk = self.char, self.order - 1, 1 << 16
        zech = np.zeros(2 * sentinel + 1, dtype=np.int32)
        zech[:sentinel - mo + 1] = np.arange(-sentinel, -mo + 1, dtype=np.int32)
        for lo in range(0, mo, chunk):
            e = self._exp[lo:lo + chunk]
            zech[sentinel + lo:][:e.size] = self._log[e + 1 - p * (e % p == p - 1)]
        zech[sentinel - mo + 1:sentinel] = zech[sentinel + 1:sentinel + mo]
        return zech

    def _generator_over_base(self, factors: Sequence[int]) -> Tuple[int, np.ndarray]:
        """The generator, its powers taken as multiplication matrices over the
        base, and the map x -> g x on all codes."""
        base, m = self.base, self.degree
        companion, eye = _companion(base, self.modulus), identity(m)
        for g in range(2, self.order):
            mat = _krylov(base, companion, _digits(g, base.order, m))   # columns g z^k
            if all((_mat_pow(base, mat, (self.order - 1) // ell) != eye).any()
                   for ell in factors):
                return g, self._linear_map(mat)
        return 1, np.arange(self.order, dtype=np.int64)

    def _linear_map(self, mat: np.ndarray) -> np.ndarray:
        """x -> mat x on all codes, by T(c q^k + y) = c mat[:, k] + T(y).

        The log tables do not exist yet, so codes are added one F_p digit at
        a time (XOR in characteristic 2).
        """
        base, p = self.base, self.char
        pw = base.order ** np.arange(self.degree, dtype=np.int64)
        scalars = np.arange(base.order, dtype=np.int64)
        out = np.zeros(1, dtype=np.int64)
        for col in mat.T:
            multiples = (pw @ base.mul_arr(col[:, None], scalars))[:, None]
            if p == 2:
                out = np.bitwise_xor(multiples, out).reshape(-1)
            else:
                out = sum((multiples // p ** j + out // p ** j) % p * p ** j
                          for j in range(self._total_deg)).reshape(-1)
        return out

    # -- scalar arithmetic on codes -------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.char == 2:
            return a ^ b
        p = self.char
        d = self._total_deg
        return _pack([(x + y) % p for x, y in zip(_digits(a, p, d), _digits(b, p, d))], p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.char == 2:
            return a
        p = self.char
        d = _digits(a, p, self._total_deg)
        return _pack([(-x) % p for x in d], p)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self._exp_pad[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return int(self._inv[a])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        mo = self.order - 1
        return int(self._exp[(int(self._log[a]) * e) % mo]) if mo > 1 else 1

    # -- vectorised arithmetic on numpy arrays of codes -----------------------

    def add_arr(self, a: np.ndarray, b) -> np.ndarray:
        """Elementwise sum; in odd characteristic by one gather through the
        Zech table, log(a + b) = log a + Z(log b - log a), whose outer
        regions answer a zero summand."""
        if self.char == 2:
            return np.bitwise_xor(a, b)
        la = self._log[np.asarray(a, dtype=np.int64)]
        d = self._log[np.asarray(b, dtype=np.int64)] - la
        d += self._log[0]
        return self._exp_pad[la + self._zech[d]]

    def sub_arr(self, a: np.ndarray, b) -> np.ndarray:
        return self.add_arr(a, self.neg_arr(np.asarray(b)))

    def neg_arr(self, a: np.ndarray) -> np.ndarray:
        if self.char == 2:
            return a
        return self.mul_arr(a, self.char - 1)          # the code p - 1 is -1

    def sum_arr(self, a: np.ndarray) -> np.ndarray:
        """Sum over the last axis; in odd characteristic by pairwise halving."""
        a = np.asarray(a, dtype=np.int64)
        if self.char == 2:
            return np.bitwise_xor.reduce(a, axis=-1)
        if a.shape[-1] == 0:
            return np.zeros(a.shape[:-1], dtype=np.int64)
        while a.shape[-1] > 1:
            half = a.shape[-1] // 2
            head = self.add_arr(a[..., :half], a[..., half:2 * half])
            a = np.concatenate([head, a[..., 2 * half:]], axis=-1) if a.shape[-1] % 2 else head
        return a[..., 0]

    def mul_arr(self, a, b) -> np.ndarray:
        """Elementwise product; a, b broadcastable arrays of codes."""
        la = self._log[np.asarray(a, dtype=np.int64)]
        lb = self._log[np.asarray(b, dtype=np.int64)]
        return self._exp_pad[la + lb]

    def inv_arr(self, a) -> np.ndarray:
        """Elementwise inverse of nonzero codes (0 maps to 0)."""
        return self._inv[np.asarray(a, dtype=np.int64)]

    def log_arr(self, a) -> np.ndarray:
        """Discrete logs of codes, with 0 mapped to the log sentinel."""
        return self._log[np.asarray(a, dtype=np.int64)]

    def exp_arr(self, s: np.ndarray) -> np.ndarray:
        """The product whose factors have logs summing to s, for s a sum of two
        :meth:`log_arr` values: 0 when either is the sentinel."""
        return self._exp_pad[s]

    # -- extension structure ---------------------------------------------------

    @property
    def basis(self) -> Tuple[int, ...]:
        """Polynomial basis (1, z, ..., z^{m-1}) as codes."""
        q = self.coord_field.order
        return tuple(q ** i for i in range(self.degree))

    def coeffs_arr(self, a) -> np.ndarray:
        """Coordinates in the polynomial basis, as base-field codes.

        The shape is a.shape + (degree,).  Entry [..., i] is digit i of the
        base-q code, which is also trace(b*_i x) for b* the dual basis.
        """
        a = np.asarray(a, dtype=np.int64)
        q = self.coord_field.order
        return (a[..., None] // q ** np.arange(self.degree, dtype=np.int64)) % q

    def from_coeffs(self, cs: Sequence[int]) -> int:
        return _pack(list(cs) + [0] * (self.degree - len(cs)), self.coord_field.order)

    def frobenius(self, x: int, ell: int = 1) -> int:
        """x ** (q**ell) for q the base order; ell reduced mod the degree."""
        return self.pow(x, self.coord_field.order ** (ell % self.degree))

    def frob_arr(self, a: np.ndarray, ell: int = 1) -> np.ndarray:
        """Array form of :meth:`frobenius`: exp[(log x * q^ell) mod (Q-1)], 0 -> 0."""
        a = np.asarray(a, dtype=np.int64)
        e = pow(self.coord_field.order, ell % self.degree, self.order - 1)
        return self._exp[self._log[a] * e % (self.order - 1)] * (a != 0)

    def trace(self, x: int) -> int:
        """Relative trace onto the base field: sum of all Frobenius iterates."""
        t = 0
        for ell in range(self.degree):
            t = self.add(t, self.frobenius(x, ell))
        if not 0 <= t < self.coord_field.order:
            raise ArithmeticError("trace left the base field; corrupt tables")
        return t

    def trace_arr(self, a: np.ndarray) -> np.ndarray:
        t = np.zeros_like(np.asarray(a, dtype=np.int64))
        for ell in range(self.degree):
            t = self.add_arr(t, self.frob_arr(a, ell))
        return t

    def dual_basis(self) -> Tuple[int, ...]:
        """The basis b* with trace(b_i * b*_j) = 1 if i == j else 0.

        Its coordinates are the rows of the inverse of the trace Gram matrix
        of the polynomial basis; built on first use.
        """
        if self._dual_basis is None:
            m = self.degree
            bas = np.array(self.basis, dtype=np.int64)
            gram = self.trace_arr(self.mul_arr(bas[:, None], bas))
            res = echelonize(self.coord_field, np.hstack([gram, identity(m)]))
            if res.pivots != tuple(range(m)):
                raise ArithmeticError("singular trace Gram matrix for a basis")
            self._dual_basis = tuple(int(c) for c in res.rref[:, m:] @ bas)
        return self._dual_basis

    # -- misc ------------------------------------------------------------------

    def rand_elements(self, rng: np.random.Generator, shape) -> np.ndarray:
        return rng.integers(0, self.order, size=shape, dtype=np.int64)

    def __repr__(self) -> str:
        if self.base is None:
            return f"GF({self.order})"
        return f"GF({self.base.order}^{self.degree})"


@functools.lru_cache(maxsize=None)
def _prime_field(p: int) -> FiniteField:
    return FiniteField(p, None, (0, 1))


_ORDER_LIMIT = 1 << 22  # log/antilog tables; experiments are desk scale


@functools.lru_cache(maxsize=None)
def make_base_field(q: int) -> FiniteField:
    """F_q for q = p^s a prime power, with deterministic modulus choice."""
    if q > _ORDER_LIMIT:
        raise ValueError(f"field order {q} exceeds the table limit ({_ORDER_LIMIT})")
    p, s = prime_power(q)
    if s == 1:
        return _prime_field(p)
    fp = _prime_field(p)
    return FiniteField(p, fp, _lowest_irreducible(fp, s))


@functools.lru_cache(maxsize=None)
def make_ext_field(q: int, m: int) -> FiniteField:
    """F_{q^m} over F_q with polynomial basis; the dual basis is built on first use."""
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if q ** m > _ORDER_LIMIT:
        raise ValueError(
            f"field order {q}^{m} exceeds the table limit ({_ORDER_LIMIT}); "
            "cost estimation handles large parameters, arithmetic does not")
    base = make_base_field(q)
    return FiniteField(base.char, base, _lowest_irreducible(base, m))

