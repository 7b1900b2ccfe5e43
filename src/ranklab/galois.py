"""Finite field towers F_p ⊆ F_q ⊆ F_{q^m} with trace and dual-basis machinery.

Elements are integer codes: the base-q little-endian packing of the
coefficient vector in the polynomial basis ``(1, z, ..., z^{d-1})`` of the
field over its subfield.  For characteristic 2 this makes addition a plain
XOR of codes at every level of the tower.  Multiplication uses discrete
log/antilog tables built once per field; fields are immutable after
construction and safe to share between threads.

The extension-specific operations (``trace``, ``frobenius``, ``dual_basis``,
``coeffs_arr``) always work *relative* to the declared base: for a tower
F_p ⊂ F_q ⊂ F_{q^m} the trace maps F_{q^m} onto F_q, never onto F_p.
Because codes are polynomial-basis coordinates, trace(b*_i x) against the
dual basis is digit i of x's base-q code, so reading a system over F_{q^m}
coordinate by coordinate (done in :mod:`ranklab.modelings`) is
``coeffs_arr``, with no Frobenius pass.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FiniteField",
    "make_base_field",
    "make_ext_field",
    "prime_power",
]


def prime_power(q: int) -> Tuple[int, int]:
    """Decompose q = p**s with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    s = 0
    v = q
    while v % p == 0:
        v //= p
        s += 1
    if v != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, s


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


# ---------------------------------------------------------------------------
# polynomial arithmetic over a field handle (coefficient lists of codes),
# used only while constructing a new extension
# ---------------------------------------------------------------------------

def _ptrim(f: List[int]) -> List[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(fld: "FiniteField", a: Sequence[int], b: Sequence[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = fld.add(out[i + j], fld.mul(ai, bj))
    return _ptrim(out)


def _pmod(fld: "FiniteField", a: Sequence[int], mod: Sequence[int]) -> List[int]:
    a = _ptrim(list(a))
    dm = len(mod) - 1
    inv_lead = fld.inv(mod[-1])
    while a and len(a) - 1 >= dm:
        if a[-1] == 0:
            a.pop()
            continue
        c = fld.mul(a[-1], inv_lead)
        shift = len(a) - 1 - dm
        for i, mi in enumerate(mod):
            if mi:
                a[shift + i] = fld.sub(a[shift + i], fld.mul(c, mi))
        a.pop()
    return _ptrim(a)


def _pgcd(fld: "FiniteField", a: Sequence[int], b: Sequence[int]) -> List[int]:
    a, b = list(a), list(b)
    while _ptrim(b):
        a, b = b, _pmod(fld, a, b)
    return _ptrim(a)


def _ppowmod(fld: "FiniteField", base: Sequence[int], e: int, mod: Sequence[int]) -> List[int]:
    result = [1]
    acc = _pmod(fld, list(base), mod)
    while e:
        if e & 1:
            result = _pmod(fld, _pmul(fld, result, acc), mod)
        acc = _pmod(fld, _pmul(fld, acc, acc), mod)
        e >>= 1
    return result


def _minus_x(fld: "FiniteField", g: Sequence[int]) -> List[int]:
    out = list(g) + [0] * max(0, 2 - len(g))
    out[1] = fld.sub(out[1], 1)
    return _ptrim(out)


def _is_irreducible(fld: "FiniteField", f: Sequence[int]) -> bool:
    """Monic f over fld: x^(q^d) == x mod f and gcd(x^(q^(d/l)) - x, f) = 1."""
    d = len(f) - 1
    q = fld.order
    x = [0, 1]
    if _pmod(fld, _minus_x(fld, _ppowmod(fld, x, q ** d, f)), f):
        return False
    for ell in _prime_factors(d):
        g = _pgcd(fld, f, _minus_x(fld, _ppowmod(fld, x, q ** (d // ell), f)))
        if len(g) - 1 != 0:
            return False
    return True


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
        self.order = (base.order if base else p) ** self.degree
        self._build_log_tables()
        self._frob_tables: List[np.ndarray] = []    # lazily built, extensions only
        self._dual_basis: Optional[Tuple[int, ...]] = None
        self._bit_matrices: Optional[np.ndarray] = None     # lazily built, characteristic 2

    # -- construction helpers ------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Table-free product, used while bootstrapping the log tables."""
        if self.base is None:
            return (a * b) % self.char
        q = self.base.order
        fa = _digits(a, q, self.degree)
        fb = _digits(b, q, self.degree)
        prod = _pmod(self.base, _pmul(self.base, fa, fb), list(self.modulus))
        prod += [0] * (self.degree - len(prod))
        return _pack(prod, q)

    def _add_raw(self, a: int, b: int) -> int:
        if self.char == 2:
            return a ^ b
        p = self.char
        da = _digits(a, p, _total_deg(self))
        db = _digits(b, p, _total_deg(self))
        return _pack([(x + y) % p for x, y in zip(da, db)], p)

    def _build_log_tables(self) -> None:
        q = self.order
        mult_order = q - 1
        factors = _prime_factors(mult_order) if mult_order > 1 else []
        gen = 1
        for cand in range(2, q):
            if all(self._pow_raw(cand, mult_order // ell) != 1 for ell in factors):
                gen = cand
                break
        exp = np.zeros(mult_order, dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        v = 1
        for i in range(mult_order):
            exp[i] = v
            log[v] = i
            v = self._mul_raw(v, gen)
        sentinel = 2 * mult_order if mult_order > 1 else 2
        log[0] = sentinel
        pad = np.zeros(2 * sentinel + 1, dtype=np.int64)
        for i in range(min(2 * mult_order - 1, len(pad))):
            pad[i] = exp[i % mult_order]
        self.generator = int(gen)
        self._sentinel = sentinel
        self._exp = exp
        self._log = log
        self._exp_pad = pad
        inv = np.zeros(q, dtype=np.int64)
        for x in range(1, q):
            inv[x] = exp[(mult_order - int(log[x])) % mult_order] if mult_order > 1 else 1
        self._inv = inv

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        acc = a
        while e:
            if e & 1:
                r = self._mul_raw(r, acc)
            acc = self._mul_raw(acc, acc)
            e >>= 1
        return r

    # -- scalar arithmetic on codes -------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.char == 2:
            return a ^ b
        return self._add_raw(a, b)

    def sub(self, a: int, b: int) -> int:
        if self.char == 2:
            return a ^ b
        return self._add_raw(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.char == 2:
            return a
        p = self.char
        d = _digits(a, p, _total_deg(self))
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
        if self.char == 2:
            return np.bitwise_xor(a, b)
        p = self.char
        d = _total_deg(self)
        pw = p ** np.arange(d, dtype=np.int64)
        da = (np.asarray(a)[..., None] // pw) % p
        db = (np.asarray(b)[..., None] // pw) % p
        return (((da + db) % p) * pw).sum(axis=-1)

    def sub_arr(self, a: np.ndarray, b) -> np.ndarray:
        if self.char == 2:
            return np.bitwise_xor(a, b)
        return self.add_arr(a, self.neg_arr(np.asarray(b)))

    def neg_arr(self, a: np.ndarray) -> np.ndarray:
        if self.char == 2:
            return a
        p = self.char
        d = _total_deg(self)
        pw = p ** np.arange(d, dtype=np.int64)
        da = (np.asarray(a)[..., None] // pw) % p
        return (((-da) % p) * pw).sum(axis=-1)

    def sum_arr(self, a: np.ndarray) -> np.ndarray:
        """Sum over the last axis."""
        a = np.asarray(a, dtype=np.int64)
        if self.char == 2:
            return np.bitwise_xor.reduce(a, axis=-1)
        p = self.char
        pw = p ** np.arange(_total_deg(self), dtype=np.int64)
        return ((a[..., None] // pw) % p).sum(axis=-2) % p @ pw

    def mul_arr(self, a, b) -> np.ndarray:
        """Elementwise product; a, b broadcastable arrays of codes."""
        la = self._log[np.asarray(a, dtype=np.int64)]
        lb = self._log[np.asarray(b, dtype=np.int64)]
        return self._exp_pad[la + lb]

    def mul_outer(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        lu = self._log[np.asarray(u, dtype=np.int64)]
        lv = self._log[np.asarray(v, dtype=np.int64)]
        return self._exp_pad[lu[:, None] + lv[None, :]]

    # -- extension structure ---------------------------------------------------

    @property
    def basis(self) -> Tuple[int, ...]:
        """Polynomial basis (1, z, ..., z^{m-1}) as codes."""
        if self.base is None:
            return (1,)
        q = self.base.order
        return tuple(q ** i for i in range(self.degree))

    def coeffs(self, x: int) -> Tuple[int, ...]:
        """Coordinates of x in the polynomial basis, as base-field codes."""
        if self.base is None:
            return (x,)
        return tuple(_digits(x, self.base.order, self.degree))

    def coeffs_arr(self, a) -> np.ndarray:
        """Array form of :meth:`coeffs`: shape a.shape + (degree,).

        Entry [..., i] is digit i of the base-q code, which is also
        trace(b*_i x) for b* the dual of the polynomial basis.
        """
        a = np.asarray(a, dtype=np.int64)
        if self.base is None:
            return a[..., None]
        q = self.base.order
        return (a[..., None] // q ** np.arange(self.degree, dtype=np.int64)) % q

    def from_coeffs(self, cs: Sequence[int]) -> int:
        if self.base is None:
            return int(cs[0]) % self.char
        return _pack(list(cs) + [0] * (self.degree - len(cs)), self.base.order)

    def embed(self, c: int) -> int:
        """Embed a base-field code into this field (constant polynomial)."""
        return int(c)

    def frobenius(self, x: int, ell: int = 1) -> int:
        """x ** (q**ell) for q the base order; ell reduced mod the degree."""
        if self.base is None:
            return x
        ell %= self.degree
        return int(self._frob_table(ell)[x])

    def frob_arr(self, a: np.ndarray, ell: int = 1) -> np.ndarray:
        if self.base is None:
            return np.asarray(a)
        ell %= self.degree
        return self._frob_table(ell)[np.asarray(a, dtype=np.int64)]

    def _frob_table(self, ell: int) -> np.ndarray:
        while len(self._frob_tables) <= ell:
            if not self._frob_tables:
                self._frob_tables.append(np.arange(self.order, dtype=np.int64))
            elif len(self._frob_tables) == 1:
                q = self.base.order
                self._frob_tables.append(np.array(
                    [self.pow(x, q) for x in range(self.order)], dtype=np.int64))
            else:
                self._frob_tables.append(self._frob_tables[1][self._frob_tables[-1]])
        return self._frob_tables[ell]

    def bit_matrices(self) -> np.ndarray:
        """Multiplication by each single-bit code, as GF(2) matrices.

        In characteristic 2 the d bits of a code (order 2^d) are its
        coordinates over F_2 at every level of the tower, so x -> (1 << i) x
        is F_2-linear on them.  Entry [i, j, k] of the (d, d, d) boolean
        array is bit j of (1 << i)(1 << k).  Built on first use.
        """
        if self.char != 2:
            raise ValueError("bit matrices need characteristic 2")
        if self._bit_matrices is None:
            d = self.order.bit_length() - 1
            prods = np.array([[self.mul(1 << i, 1 << k) for k in range(d)]
                              for i in range(d)], dtype=np.int64)
            bits = (prods[:, None, :] >> np.arange(d)[None, :, None]) & 1
            self._bit_matrices = bits.astype(bool)
        return self._bit_matrices

    def trace(self, x: int) -> int:
        """Relative trace onto the base field: sum of all Frobenius iterates."""
        if self.base is None:
            return x
        t = 0
        for ell in range(self.degree):
            t = self.add(t, self.frobenius(x, ell))
        if not 0 <= t < self.base.order:
            raise ArithmeticError("trace left the base field; corrupt tables")
        return t

    def trace_arr(self, a: np.ndarray) -> np.ndarray:
        if self.base is None:
            return np.asarray(a)
        t = np.zeros_like(np.asarray(a, dtype=np.int64))
        for ell in range(self.degree):
            t = self.add_arr(t, self.frob_arr(a, ell))
        return t

    def dual_basis(self) -> Tuple[int, ...]:
        """The basis b* with trace(b_i * b*_j) = 1 if i == j else 0."""
        if self.base is None:
            return (1,)
        if self._dual_basis is None:
            self._dual_basis = _compute_dual_basis(self)
        return self._dual_basis

    # -- misc ------------------------------------------------------------------

    def rand_elements(self, rng: np.random.Generator, shape) -> np.ndarray:
        return rng.integers(0, self.order, size=shape, dtype=np.int64)

    def __repr__(self) -> str:
        if self.base is None:
            return f"GF({self.order})"
        return f"GF({self.base.order}^{self.degree})"


def _total_deg(fld: FiniteField) -> int:
    d = fld.degree
    b = fld.base
    while b is not None:
        d *= b.degree
        b = b.base
    return d


def _compute_dual_basis(fld: FiniteField) -> Tuple[int, ...]:
    """Invert the trace Gram matrix of the polynomial basis over the base."""
    m = fld.degree
    base = fld.base
    bas = fld.basis
    gram = [[fld.trace(fld.mul(bas[i], bas[j])) for j in range(m)] for i in range(m)]
    # tiny Gauss-Jordan over the base field on [gram | I]
    aug = [row[:] + [1 if i == j else 0 for j in range(m)] for i, row in enumerate(gram)]
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if piv is None:
            raise ArithmeticError("singular trace Gram matrix for a basis")
        aug[col], aug[piv] = aug[piv], aug[col]
        ipv = base.inv(aug[col][col])
        aug[col] = [base.mul(ipv, v) for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [base.sub(v, base.mul(f, w)) for v, w in zip(aug[r], aug[col])]
    inv_rows = [row[m:] for row in aug]
    dual = []
    for i in range(m):
        acc = 0
        for u in range(m):
            acc = fld.add(acc, fld.mul(fld.embed(inv_rows[i][u]), bas[u]))
        dual.append(acc)
    return tuple(dual)


def _lowest_irreducible(fld: FiniteField, degree: int) -> Tuple[int, ...]:
    """Monic irreducible of given degree over fld, lowest coefficient code first."""
    q = fld.order
    for code in range(q ** degree):
        f = _digits(code, q, degree) + [1]
        if _is_irreducible(fld, f):
            return tuple(f)
    raise ArithmeticError("no irreducible polynomial found")  # impossible


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
    """F_{q^m} over F_q with polynomial basis and precomputed dual basis."""
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if q ** m > _ORDER_LIMIT:
        raise ValueError(
            f"field order {q}^{m} exceeds the table limit ({_ORDER_LIMIT}); "
            "cost estimation handles large parameters, arithmetic does not")
    base = make_base_field(q)
    fld = FiniteField(base.char, base, _lowest_irreducible(base, m))
    fld.dual_basis()
    return fld

