"""Exact counting formulas, cost models, hybrid minimization, presets."""

from math import ceil, comb, log2

import pytest
from hypothesis import given, settings, strategies as st

from ranklab import estimator as es


def test_dimension_count_examples():
    assert es.nb_fqm(5, 2, 1, 1) == 3
    assert es.nb_fqm(5, 2, 1, 2) == 5
    assert es.nb_fqm(8, 4, 2, 1) == 40


def test_syzygy_count_examples():
    assert es.nsyz(7, 8, 4, 2, 1) == 6          # (m-1) C(3, 3)
    assert es.nsyz(7, 8, 4, 2, 2) == 24         # 6 (C(4,1) 1 - 0), alternating
    # vanishing binomials beyond the column count contribute nothing
    assert es.nsyz(3, 9, 4, 2, 1) == 2 * comb(4, 3)


def test_counts_are_exact_integers():
    big = es.nb_fqm(166, 83, 7, 3)
    assert isinstance(big, int) and big > 2 ** 50
    assert es.log2i(big) == pytest.approx(log2(float(big)), abs=1e-9)
    huge = comb(10 ** 3, 100)            # beyond float range
    assert es.log2i(huge) == pytest.approx(es.log2i(huge // 2) + 1, abs=1e-6)


def test_measured_rank_matches_count():
    # cross-check one formula value against the experimental rank
    from ranklab import instances as inst, matlin as ml, modelings as md
    rd = inst.gen_rd(2, 7, 8, 4, 2, seed=1)
    can = inst.canonicalize(rd)
    sm, part = md.build_sm_fqm(can)
    mac = md.macaulay(md.subsystem(sm, part.two_plus), 1)
    assert ml.echelonize(can.field, md.top_block(mac)).rank == es.nb_fqm(8, 4, 2, 1)


def test_comb_cost_exponent_example():
    prm = es.RdParams(2, 7, 8, 4, 2)
    est = es.comb_cost(prm)
    assert est.detail["exponent"] == 2 * ceil(35 / 8) - 7 == 3


def test_kernel_cost_guess_counts():
    assert es.kernel_cost(es.MinRankParams(16, 16, 16, 142, 4)).detail["a"] == 9
    assert es.kernel_cost(es.MinRankParams(16, 19, 19, 167, 6)).detail["a"] == 9
    assert es.kernel_cost(es.MinRankParams(16, 22, 22, 254, 6)).detail["a"] == 12


def test_mm_cost_small_overdetermined():
    prm = es.RdParams(2, 7, 10, 3, 2)
    est = es.mm_cost(prm, a=0, p=0)
    assert est.feasible
    assert est.bits == pytest.approx(2 * log2(comb(10, 2)) + log2(7), abs=1e-9)


def test_mm_cost_underdetermined_flag():
    prm = es.RdParams(2, 3, 8, 4, 2)     # 3 C(3,2) = 9 < C(8,2) - 1 at a = p = 0
    est = es.mm_cost(prm, a=0, p=0)
    assert not est.feasible


def test_smplus_cost_small_example():
    prm = es.RdParams(2, 7, 8, 4, 2)
    est = es.smplus_cost(prm, a=0)
    assert est.feasible and est.detail["b"] == 1
    assert est.detail["N"] == 40 - 6 == 34
    assert est.detail["M"] == comb(4, 1) * (comb(8, 2) - 7 * comb(3, 2)) == 28


def test_smplus_cost_rejects_overdetermined():
    est = es.smplus_cost(es.RdParams(2, 7, 10, 3, 2), a=0)
    assert not est.feasible and est.detail["why"] == "mm-overdetermined"


def test_hybrid_minimize_never_worse_than_plain():
    prm = es.RdParams(2, 73, 166, 83, 7)
    plain = es.smplus_cost(prm, a=0)
    best = es.hybrid_minimize(es.smplus_cost, prm)
    if plain.feasible:
        assert best.bits <= plain.bits
    assert best.feasible


def test_hybrid_minimize_collapses_when_guessing_cannot_pay():
    # huge q: one guessed position costs more than the whole solve
    prm = es.RdParams(2 ** 31, 7, 10, 3, 2)
    est = es.hybrid_minimize(lambda p, a=0, conv=es.DEFAULT:
                             es.mm_cost(p, a=a, p=0, conv=conv), prm)
    assert est.detail["a"] == 0


def test_key_attack_params():
    key, msg = es.key_attack_params(2, 97, 89, 8, 8)
    assert key == es.RdParams(2, 89, 182, 85, 8)
    assert msg == es.RdParams(2, 89, 194, 97, 8)
    key2, _ = es.key_attack_params(2, 97, 89, 97, 8)   # d = k: n = 2k - 1
    assert key2.n == 2 * 97 - 1
    assert key.k < 97


@pytest.mark.parametrize("name,target,ba,variant", [
    ("new2rollo-i-128", 202, (2, 13), "message"),
    ("new2rollo-i-192", 223, (1, 14), "key"),
    ("new2rollo-i-256", 366, (1, 27), "key"),
])
def test_published_smplus_column(name, target, ba, variant):
    row = {e.attack: e for e in es.best_attack(es.PRESETS[name])}
    e = row["smplus"]
    assert abs(e.bits - target) <= 2
    assert (e.detail["b"], e.detail["a"]) == ba
    assert e.detail["variant"] == variant


@pytest.mark.parametrize("name,target", [
    ("new2rollo-i-128", 212), ("new2rollo-i-192", 282), ("new2rollo-i-256", 375),
    ("rollo-i-128-spe", 196), ("rollo-i-192-spe", 251), ("rollo-i-256-spe", 353),
])
def test_published_comb_column(name, target):
    row = {e.attack: e for e in es.best_attack(es.PRESETS[name])}
    assert abs(row["comb"].bits - target) <= 2


@pytest.mark.parametrize("name,target,a", [
    ("minrank-sig-128", 166, 9), ("minrank-sig-192", 238, 9),
    ("minrank-sig-256", 311, 12),
])
def test_published_kernel_column(name, target, a):
    row = {e.attack: e for e in es.best_attack(es.PRESETS[name])}
    assert abs(row["kernel"].bits - target) <= 1
    assert row["kernel"].detail["a"] == a


@pytest.mark.parametrize("name,target,ap", [
    ("new2rollo-i-128", 205, (18, 0)), ("new2rollo-i-192", 226, (17, 0)),
    ("new2rollo-i-256", 371, (30, 1)),
])
def test_published_mm_column(name, target, ap):
    row = {e.attack: e for e in es.best_attack(es.PRESETS[name])}
    e = row["mm"]
    assert abs(e.bits - target) <= 3
    assert (e.detail["a"], e.detail["p"]) == ap


def test_generic_minrank_model_published_point():
    # evaluation at the published optimum rounds to the published value;
    # the full minimization may find a marginally cheaper deeper bi-degree
    prm = es.MinRankParams(16, 22, 22, 254, 6)
    fixed = es.sm_generic_cost(prm, b=1, a=11)
    assert round(fixed.bits) == 297
    assert fixed.detail["ncols"] == 11
    best = es.hybrid_minimize(
        lambda p, a=0, conv=es.DEFAULT: es.sm_generic_cost(p, a=a, conv=conv), prm)
    assert best.bits <= fixed.bits + 1e-9


def test_omega_override():
    conv = es.CostConventions(omega=2.81)
    e2 = es.comb_cost(es.RdParams(2, 73, 166, 83, 7))
    e281 = es.comb_cost(es.RdParams(2, 73, 166, 83, 7), conv=conv)
    assert e281.bits > e2.bits


@pytest.mark.parametrize("omega", [float("nan"), 1.5, 3.5], ids=str)
def test_omega_outside_2_3_is_refused(omega):
    with pytest.raises(ValueError, match="need 2 <= omega <= 3"):
        es.CostConventions(omega=omega)


def test_smplus_ops_constant_is_configurable():
    bare = es.CostConventions(smplus_ops=1.0)
    prm = es.RdParams(2, 73, 166, 83, 7)
    a, b = 13, 2
    with_cal = es.smplus_cost(prm, b=b, a=a)
    without = es.smplus_cost(prm, b=b, a=a, conv=bare)
    assert with_cal.bits - without.bits == pytest.approx(4.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 16), st.integers(1, 10), st.data())
def test_counts_nonnegative_in_regime(n_minus_k, r, data):
    k = data.draw(st.integers(1, 8))
    n = k + n_minus_k + 1
    b = data.draw(st.integers(1, 4))
    if r > n - k - 1:
        return
    assert es.nb_fqm(n, k, r, b) >= 0


def test_attack_table_covers_presets():
    table = es.attack_table(["new2rollo-i-128", "minrank-sig-128"])
    assert set(table) == {"new2rollo-i-128", "minrank-sig-128"}
    assert all(rows == sorted(rows, key=lambda e: e.bits)
               for rows in table.values())
