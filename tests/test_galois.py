"""Field tower arithmetic, trace/dual-basis machinery, coordinate expansion."""

import functools
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ranklab.galois import make_base_field, make_ext_field, prime_power

F4 = make_ext_field(2, 2)
F8 = make_ext_field(2, 3)
F45 = make_ext_field(4, 5)
FIELDS = [make_base_field(2), make_base_field(3), F4, F8,
          make_base_field(9), F45]


def test_prime_power():
    assert prime_power(16) == (2, 4)
    assert prime_power(27) == (3, 3)
    assert prime_power(7) == (7, 1)
    for bad in (1, 6, 12):
        with pytest.raises(ValueError):
            prime_power(bad)


def test_deterministic_moduli():
    assert F4.modulus == (1, 1, 1)          # z^2 + z + 1
    assert F8.modulus == (1, 1, 0, 1)       # z^3 + z + 1
    assert make_ext_field(2, 2) is F4       # cached handle


# sha256 of (modulus, generator) and the antilog, log and inverse tables of the
# fields the suite and the benchmark build; the tables are part of every
# instance file's meaning, so a new construction must reproduce them
TABLE_DIGESTS = {
    ("ext", 2, 7): "625a83c8ffd112f93edef5eb360e1e9d90e98aaba061bd048f70f87fac0cf473",
    ("ext", 2, 9): "8bd68ccc22d5a52f41fecff459dcd31a84db5b3a41eb0216d562e0816f8ded9f",
    ("ext", 3, 7): "b0f285e098d473c0c4a2c8263d84e3cc95f9993e01b3ed2dfc4e02afcb9856c6",
    ("ext", 4, 5): "750ac13641e27738502a8de47be3372ce9afee0c30c05fb7af36d18aed067cc8",
    ("ext", 5, 3): "c23e14aa0e1ae0ff216fb7d1088ab58ebcfb254a5cf442156bfe6846364891c0",
    ("ext", 9, 3): "f7737103880c49491af7e080d0a491de4710d1a765fd9cd34449eb62e134b877",
    ("ext", 16, 2): "4091d85aa3231f0c1279a14dfcc6ba2306b46f8e90588e063568c191e4c1071c",
    ("ext", 2, 12): "bf3d09df0293cdf5f5c48eb333aee085d270767f60fb6657233b92f6797b73b2",
    ("base", 4, 1): "450b195a19e57114a96b605483b1521edfb73db21e3b9e881dd62ef854316288",
    ("base", 8, 1): "35c570d835805bde3d008cd96b5eb6f93fad4040c3713c5dca6bc9997f9a06da",
    ("base", 9, 1): "8c7b05dd8948c00680a02fb56d0e8e604e1628597721dbd34420a24ae7ba0ff5",
    ("base", 16, 1): "cefe47f90f7941cfc2f1d13d3d31b6ac3d2d00c46967b07a0ca07ab41dfa6ee8",
}


@pytest.mark.parametrize("key", sorted(TABLE_DIGESTS), ids=str)
def test_field_tables_pinned(key):
    kind, q, m = key
    fld = make_ext_field(q, m) if kind == "ext" else make_base_field(q)
    digest = hashlib.sha256(repr((fld.modulus, fld.generator)).encode())
    for table in (fld._exp, fld._log, fld._inv):
        digest.update(table.tobytes())
    assert digest.hexdigest() == TABLE_DIGESTS[key]


def _has_root_below_half(q, coeffs):
    """Whether the monic polynomial over F_q has a root in some F_{q^d},
    d <= deg / 2 (for degree >= 2, exactly when it is reducible)."""
    for d in range(1, (len(coeffs) - 1) // 2 + 1):
        ext = make_ext_field(q, d)                   # F_q codes embed as themselves
        xs = np.arange(ext.order)
        val = np.ones_like(xs)
        for c in reversed(coeffs[:-1]):              # Horner
            val = ext.add_arr(ext.mul_arr(val, xs), c)
        if not val.all():
            return True
    return False


def _prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        try:
            prime_power(q)
        except ValueError:
            continue
        out.append(q)
    return out


def test_moduli_are_lowest_irreducible():
    # by root counting, independent of the construction's Berlekamp test:
    # the modulus has no root in any F_{q^d}, d <= m / 2, and every lower
    # code's polynomial has one
    cases = [(make_base_field(q), prime_power(q)[0]) for q in _prime_powers(1 << 12)
             if prime_power(q)[1] >= 2]
    cases += [(make_ext_field(q, m), q) for q in _prime_powers(1 << 6)
              for m in range(2, 13) if q ** m <= 1 << 12]
    for fld, q in cases:
        m = fld.degree
        assert not _has_root_below_half(q, fld.modulus), fld
        for code in range(int(np.dot(fld.modulus[:-1], q ** np.arange(m)))):
            lower = [(code // q ** i) % q for i in range(m)] + [1]
            assert _has_root_below_half(q, lower), (fld, lower)


@pytest.mark.parametrize("p", [2, 3, 5, 7], ids=lambda p: f"F{p}")
def test_trivial_extension(p):
    # F_p over itself and F_p as F_{p^1} over F_p are degree-1 extensions:
    # one coordinate, the code itself, and Frobenius and trace the identity
    xs = np.arange(p)
    for f in (make_base_field(p), make_ext_field(p, 1)):
        assert f.order == p and f.coord_field.order == p
        assert f.basis == (1,) and f.dual_basis() == (1,)
        assert f.coeffs_arr(xs).tolist() == xs[:, None].tolist()
        assert [f.from_coeffs([x]) for x in range(p)] == xs.tolist()
        assert [[f.frobenius(x, ell) for ell in (1, 2)] for x in range(p)] == [[x, x] for x in xs]
        assert f.frob_arr(xs).tolist() == f.frob_arr(xs, 3).tolist() == xs.tolist()
        assert [f.trace(x) for x in range(p)] == f.trace_arr(xs).tolist() == xs.tolist()


def test_trace_examples():
    # char 2: tr(1) = 1 + 1 = 0; tr(a) = a + a^2 = a + (a+1) = 1
    assert F4.trace(0) == 0
    assert F4.trace(1) == 0
    assert F4.trace(2) == 1


def test_dual_basis_f4():
    # basis (1, a) has dual (a^2, 1) = (codes 3, 1)
    assert F4.dual_basis() == (3, 1)


def test_dual_basis_pairing_f8():
    duals = F8.dual_basis()
    for i, bi in enumerate(F8.basis):
        for j, bj in enumerate(duals):
            assert F8.trace(F8.mul(bi, bj)) == (1 if i == j else 0)


# prime-field towers in characteristic 2, 3, 5 and 7, and towers over F_4, F_9, F_16
UNFOLD_FIELDS = [(2, 7), (2, 9), (3, 4), (3, 5), (4, 3), (4, 5), (5, 3), (7, 2), (9, 3), (16, 2)]


def test_coordinate_recovery():
    # trace against the dual basis reads off polynomial-basis coordinates,
    # the digits of the code, on every element
    for q, m in UNFOLD_FIELDS:
        fld = make_ext_field(q, m)
        xs = np.arange(fld.order)
        digits = fld.coeffs_arr(xs)
        assert digits.shape == (fld.order, m)
        for i, bs in enumerate(fld.dual_basis()):
            assert (digits[:, i] == fld.trace_arr(fld.mul_arr(bs, xs))).all(), (q, m, i)
        assert [fld.from_coeffs(d) for d in digits.tolist()] == xs.tolist()
    base = make_base_field(5)
    assert (base.coeffs_arr([[0, 3]]) == [[[0], [3]]]).all()


def test_relative_trace_of_tower():
    assert F45.base.order == 4
    for x in (0, 1, 5, 777, 1000):
        t = F45.trace(x)
        assert 0 <= t < 4


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_field_axioms(fld):
    rng = np.random.default_rng(7)
    xs = rng.integers(0, fld.order, 12)
    for a, b, c in zip(xs, xs[4:], xs[8:]):
        a, b, c = int(a), int(b), int(c)
        assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
        assert fld.add(a, fld.neg(a)) == 0
        assert fld.sub(a, b) == fld.add(a, fld.neg(b))
        if a:
            assert fld.mul(a, fld.inv(a)) == 1
            assert fld.pow(a, fld.order - 1) == 1


@pytest.mark.parametrize("fld", [F4, F8, F45], ids=str)
def test_frobenius(fld):
    rng = np.random.default_rng(3)
    q = fld.base.order
    for x in rng.integers(0, fld.order, 6):
        x = int(x)
        assert fld.frobenius(x, 0) == x
        assert fld.frobenius(x, fld.degree) == x
        assert fld.frobenius(x, 1) == fld.pow(x, q)
    for c in range(q):                       # the base field is fixed
        assert fld.frobenius(c, 1) == c


@given(st.integers(0, F8.order - 1), st.integers(0, F8.order - 1),
       st.integers(0, 1))
def test_trace_linearity(x, y, lam):
    lhs = F8.trace(F8.add(F8.mul(lam, x), y))
    rhs = F8.base.add(F8.base.mul(lam, F8.trace(x)), F8.trace(y))
    assert lhs == rhs


def test_array_ops_match_scalar():
    rng = np.random.default_rng(11)
    for fld in (F8, F45, make_base_field(9)):
        a = fld.rand_elements(rng, (3, 4))
        b = fld.rand_elements(rng, (3, 4))
        mul = fld.mul_arr(a, b)
        add = fld.add_arr(a, b)
        for i in range(3):
            for j in range(4):
                assert mul[i, j] == fld.mul(int(a[i, j]), int(b[i, j]))
                assert add[i, j] == fld.add(int(a[i, j]), int(b[i, j]))
        tr = fld.trace_arr(a)
        for i in range(3):
            for j in range(4):
                assert tr[i, j] == fld.trace(int(a[i, j]))


# every odd-characteristic field of order at most 243; an extension of a
# prime field has the tables of the base field of its order, so the only
# other one is the tower F_81 over F_9
ODD_SMALL = [make_base_field(q) for q in _prime_powers(243) if q % 2] + [make_ext_field(9, 2)]
# larger fields, checked on sampled arrays
ODD_SAMPLED = [make_ext_field(3, 7), make_ext_field(5, 3), make_ext_field(7, 2),
               make_ext_field(9, 3), make_base_field(101)]


def _scalar_add_table(fld):
    """Every sum, by the scalar digit code (a prime field's one digit is its code)."""
    xs = np.arange(fld.order)
    if fld.order == fld.char:
        return (xs[:, None] + xs[None, :]) % fld.char
    return np.array([[fld.add(int(a), int(b)) for b in xs] for a in xs])


@pytest.mark.parametrize("fld", ODD_SMALL, ids=str)
def test_odd_array_ops_on_all_pairs(fld):
    xs = np.arange(fld.order)
    add = _scalar_add_table(fld)
    neg = np.array([fld.neg(int(x)) for x in xs])
    assert (fld.add_arr(xs[:, None], xs[None, :]) == add).all()
    assert (fld.sub_arr(xs[:, None], xs[None, :]) == add[:, neg]).all()
    assert (fld.neg_arr(xs) == neg).all()
    assert not fld.add_arr(xs, fld.neg_arr(xs)).any()
    pairs = np.stack(np.broadcast_arrays(xs[:, None], xs[None, :]), axis=-1)
    assert (fld.sum_arr(pairs) == add).all()


@pytest.mark.parametrize("fld", ODD_SAMPLED, ids=str)
def test_odd_array_ops_on_sampled_arrays(fld):
    rng = np.random.default_rng(fld.order)
    a = fld.rand_elements(rng, (30, 7))
    b = fld.rand_elements(rng, (30, 7))
    a[rng.random(a.shape) < 0.2] = 0
    b[rng.random(b.shape) < 0.2] = 0
    b[:4] = [[fld.neg(int(x)) for x in row] for row in a[:4]]     # sums that vanish
    b[4] = a[4]
    add, sub, neg = fld.add_arr(a, b), fld.sub_arr(a, b), fld.neg_arr(a)
    plus_one = fld.add_arr(a, 1)
    for i, j in np.ndindex(a.shape):
        x, y = int(a[i, j]), int(b[i, j])
        assert add[i, j] == fld.add(x, y)
        assert sub[i, j] == fld.sub(x, y)
        assert neg[i, j] == fld.neg(x)
        assert plus_one[i, j] == fld.add(x, 1)
    for length in (0, 1, 2, 7):
        want = [functools.reduce(fld.add, map(int, row[:length]), 0) for row in a]
        assert (fld.sum_arr(a[:, :length]) == want).all()
    xs = np.arange(fld.order)
    assert not fld.add_arr(xs, [fld.neg(int(x)) for x in xs]).any()


def test_trace_commutes_with_base_field_matrices():
    # applying the trace entrywise commutes with left multiplication by a
    # base-field matrix
    from ranklab import matlin as ml
    rng = np.random.default_rng(19)
    cmat = rng.integers(0, 2, (2, 3))
    m = F8.rand_elements(rng, (3, 4))
    lhs = F8.trace_arr(ml.matmul(F8, cmat, m))
    rhs = ml.matmul(F8.base, cmat, F8.trace_arr(m))
    assert (lhs == rhs).all()


def test_order_limit_guard():
    with pytest.raises(ValueError):
        make_ext_field(2, 73)


def test_unfold_footnote_example():
    # f = b1 z1 + b2 z2 over the quadratic extension unfolds to {z1, z2}:
    # component i holds coordinate i of every coefficient
    assert F4.coeffs_arr(np.array(F4.basis)).T.tolist() == [[1, 0], [0, 1]]


def test_unfold_base_coefficients():
    # coefficients already in the base field: component i is scaled by
    # trace(b*_i), so the joint solution set over F_q is unchanged
    f = np.array([1, 1])
    comps = F4.coeffs_arr(f).T
    assert comps.shape == (2, 2)
    for i, bs in enumerate(F4.dual_basis()):
        assert (comps[i] == F4.base.mul_arr(F4.trace(bs), f)).all()


def test_unfold_preserves_solution_sets():
    # exhaustive check: base-field roots of f = common roots of components
    rng = np.random.default_rng(5)
    expos = list(itertools.product(range(2), repeat=3))
    coefs = rng.integers(0, 8, len(expos))
    comps = F8.coeffs_arr(coefs).T                 # (3, #monomials) over F_2

    def value(fld, cs, assign):
        val = 0
        for expo, c in zip(expos, cs):
            if all(x or not e for e, x in zip(expo, assign)):
                val = fld.add(val, int(c))
        return val

    for assign in itertools.product(range(2), repeat=3):
        comp_vals = [value(F8.base, comp, assign) for comp in comps]
        assert (value(F8, coefs, assign) == 0) == all(v == 0 for v in comp_vals)
