"""Guess enumeration, reductions, lifting, and the guess driver behind the
four hybrid entry points."""

from collections import Counter

import numpy as np
import pytest

from ranklab import hybrid as hy
from ranklab import instances as inst
from ranklab import matlin as ml
from ranklab import solver as sv


def test_enumerate_guesses():
    assert len(list(hy.enumerate_guesses(0, 2, 2))) == 1
    guesses = list(hy.enumerate_guesses(1, 2, 2))
    assert len(guesses) == 4
    assert [g.code for g in guesses] == [0, 1, 2, 3]
    mats = {tuple(g.a.reshape(-1)) for g in guesses}
    assert mats == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_p_matrix_unit_determinant():
    rd = inst.gen_rd(2, 7, 12, 5, 2, seed=1)
    for g in hy.enumerate_guesses(1, 2, 2):
        p = hy.p_matrix(rd.field, g.a, 12)
        assert ml.determinant(rd.field, p) == 1
        # fixes the first n - a coordinates
        assert (p[:, :11] == ml.identity(12)[:, :11]).all()


def test_reduce_rd_identity_at_a0():
    rd = inst.gen_rd(2, 7, 12, 5, 2, seed=1)
    red = hy.reduce_rd(rd, next(hy.enumerate_guesses(0, 2, 2)), 0)
    assert red.instance is rd


@pytest.mark.parametrize("params,seed", [((2, 7, 12, 5, 2), 2), ((3, 4, 7, 3, 1), 2),
                                         ((5, 3, 6, 2, 1), 3)],
                         ids=["q2", "q3", "q5"])
def test_reduce_rd_correct_guess_lifts_planted_error(params, seed):
    # in odd characteristic x = -message is not the message itself
    rd = inst.gen_rd(*params, seed=seed)
    attempt = 0
    while not hy.assumption_holds_rd(rd):
        rd, _ = hy.rerandomize_rd(rd, attempt)
        attempt += 1
    fld = rd.field
    hits = 0
    for g in hy.enumerate_guesses(1, rd.r, rd.q):
        red = hy.reduce_rd(rd, g, 1)
        if red is not None:
            assert (red.instance.n, red.instance.k) == (rd.n - 1, rd.k - 1)
            assert red.instance.witness is None
        # the correct bet zeroes the tail position of the planted error
        if ml.matmul(fld, rd.witness.error[None, :], hy.p_matrix(fld, g.a, rd.n))[0, -1]:
            continue
        hits += 1
        # decoding the reduced instance and lifting its x reproduces the
        # planted x, and so the planted error
        x = red.lift_x(fld.neg_arr(sv.decode_rd(red.instance).message))
        assert (x == rd.witness.x).all()
        assert (sv.fld_error_from_x(rd, x) == rd.witness.error).all()
    assert hits == 1


def test_reduce_rd_rank_preserved():
    rd = inst.gen_rd(2, 7, 12, 5, 2, seed=3)
    p, _ = hy.rerandomize_rd(rd, 5)
    assert ml.rank_weight(p.field, p.witness.error) == rd.r


def test_shorten_affine_block_shape():
    # generic [10, 4] code with its received word, shortened at the last two
    # positions: dimension 2 and the documented block decomposition
    rd = inst.gen_rd(2, 3, 10, 4, 1, seed=3)
    fld = rd.field
    stack = np.vstack([rd.received, rd.gen])
    gen_short, transform, row0 = hy._shorten_affine(fld, stack, 2)
    assert gen_short.shape == (2, 8)
    assert ml.echelonize(fld, transform).rank == 4
    tg = ml.matmul(fld, transform, rd.gen)
    assert (tg[:2, :8] == gen_short).all() and not tg[:2, 8:].any()
    assert (tg[2:, 8:] == ml.identity(2)).all()
    # row 0 minus its tail times (B | I) vanishes on the tail
    moved = fld.sub_arr(rd.received, ml.matmul(fld, rd.received[None, 8:], tg[2:])[0])
    assert not moved[8:].any() and (moved[:8] == row0).all()
    # a zero tail column leaves the span one dimension short of the cut
    stack[1:, -1] = 0
    assert hy._shorten_affine(fld, stack, 2) is None


def test_rd_feasible_for_all_guesses_within_dimension():
    # r + a <= k and the first r positions with the last a extend to an
    # information set: every guess then shortens to full size
    rd = inst.gen_rd(2, 7, 12, 5, 2, seed=1)
    assert ml.echelonize(rd.field, rd.gen[:, [0, 1, 11]]).rank == rd.r + 1
    for g in hy.enumerate_guesses(1, rd.r, rd.q):
        assert hy.reduce_rd(rd, g, 1) is not None


def test_rerandomize_assumption_rate():
    # the independence assumption holds with constant probability
    rd = inst.gen_rd(2, 7, 12, 5, 2, seed=4)
    hold = 0
    for s in range(100):
        r2, _ = hy.rerandomize_rd(rd, s)
        hold += hy.assumption_holds_rd(r2)
    assert hold >= 25


def test_hybrid_rd_deterministic():
    rd = inst.gen_rd(2, 7, 12, 5, 2, seed=6)
    attempt = 0
    while not hy.assumption_holds_rd(rd):
        rd, _ = hy.rerandomize_rd(rd, 100 + attempt)
        attempt += 1
    res = hy.hybrid_solve_rd(rd, a=1, seed=6)
    assert (res.solution.error == rd.witness.error).all()
    assert res.guesses_tried <= 4 and res.rounds == 0


def test_hybrid_rd_a0_equals_plain_decode():
    rd = inst.gen_rd(2, 7, 10, 3, 2, seed=7)
    res = hy.hybrid_solve_rd(rd, a=0, seed=7)
    plain = sv.decode_rd(rd)
    assert (res.solution.error == plain.error).all()
    assert res.guesses_tried == 1


def test_probabilistic_rd():
    rd = inst.gen_rd(2, 7, 12, 5, 2, seed=8)
    res = hy.probabilistic_solve_rd(rd, a=1, seed=8)
    assert (res.solution.error == rd.witness.error).all()
    assert res.trials >= 1


def test_reduce_minrank_and_lift():
    mi = inst.gen_minrank(2, 6, 8, 14, 2, seed=9)
    attempt = 0
    while not hy.assumption_holds_minrank(mi):
        mi, _ = hy.rerandomize_minrank(mi, attempt)
        attempt += 1
    low = mi.low_rank_matrix(mi.witness)
    hits = 0
    for g in hy.enumerate_guesses(1, mi.r, 2):
        red = hy.reduce_minrank(mi, g, 1)
        if red is not None:
            assert red.instance.K == 8 and red.instance.n == 7
            assert red.instance.witness is None
        # the correct bet zeroes the last column of the planted low-rank matrix
        if ml.matmul(mi.field, low, hy.p_matrix(mi.field, g.a, mi.n))[:, -1].any():
            continue
        hits += 1
        x_red = sv.solve_minrank_linearized(red.instance)
        assert isinstance(x_red, np.ndarray)
        e = mi.low_rank_matrix(red.lift_x(x_red))
        assert ml.echelonize(mi.field, e).rank == mi.r
    assert hits == 1


def test_reduce_minrank_a0():
    mi = inst.gen_minrank(2, 6, 8, 14, 2, seed=9)
    red = hy.reduce_minrank(mi, next(hy.enumerate_guesses(0, 2, 2)), 0)
    assert red.instance is mi


def test_minrank_feasible_for_all_guesses_with_wide_systematic_form():
    # craft an instance whose systematic positions cover the first r column
    # blocks and the shortened tail block: every guess then shortens to
    # full size, whatever combination it adds onto the tail
    m, n, r, a = 6, 8, 2, 1
    K = (r + a) * m
    base = inst.gen_minrank(2, m, n, 4, 1, seed=1).field
    rng = np.random.default_rng(13)
    pivots = list(range(r * m)) + list(range((n - a) * m, n * m))
    gen = np.zeros((K, m * n), dtype=np.int64)
    free = [c for c in range(m * n) if c not in set(pivots)]
    for i, p in enumerate(pivots):
        gen[i, p] = 1
        gen[i, free] = rng.integers(0, 2, len(free))
    mats = [base.rand_elements(rng, (m, n))]
    mats += [inst.unflatten_matrix(gen[i], m) for i in range(K)]
    mi = inst.MinRankInstance(base, m, n, K, r, tuple(mats), None)
    for g in hy.enumerate_guesses(a, r, 2):
        assert hy.reduce_minrank(mi, g, a) is not None


def test_hybrid_minrank_deterministic():
    mi = inst.gen_minrank(2, 6, 8, 14, 2, seed=11)
    attempt = 0
    while not hy.assumption_holds_minrank(mi):
        mi, _ = hy.rerandomize_minrank(mi, attempt)
        attempt += 1
    res = hy.hybrid_solve_minrank(mi, a=1, seed=11)
    e = mi.low_rank_matrix(res.solution)
    assert ml.echelonize(mi.field, e).rank <= 2
    assert res.guesses_tried <= 4


def test_probabilistic_minrank():
    mi = inst.gen_minrank(2, 6, 8, 14, 2, seed=12)
    res = hy.probabilistic_solve_minrank(mi, a=1, seed=12)
    e = mi.low_rank_matrix(res.solution)
    assert ml.echelonize(mi.field, e).rank <= 2


def test_reduce_validation():
    rd = inst.gen_rd(2, 7, 12, 5, 2, seed=1)
    with pytest.raises(inst.InstanceError):
        hy.reduce_rd(rd, next(hy.enumerate_guesses(6, 2, 2)), 6)
    mi = inst.gen_minrank(2, 6, 8, 14, 2, seed=1)
    with pytest.raises(inst.InstanceError):
        hy.reduce_minrank(mi, next(hy.enumerate_guesses(3, 2, 2)), 3)


# (driver, seed, (guesses_tried, infeasible_skipped, rounds, trials)) on
# instances that are not rerandomized first, with the instance seed as the
# driver seed; the RD seeds 1 and 2 and the MinRank seed 17 need rounds >= 1.
# guesses_tried counts the whole search, so a deterministic run that ends in
# round i includes q^(a r) = 4 guesses for each earlier round.
GOLDEN = [
    ("hybrid_solve_rd", 0, (2, 0, 0, 0)),
    ("hybrid_solve_rd", 1, (9, 0, 2, 0)),
    ("hybrid_solve_rd", 2, (6, 0, 1, 0)),
    ("probabilistic_solve_rd", 1, (1, 0, 0, 1)),
    ("probabilistic_solve_rd", 6, (4, 0, 0, 4)),
    ("hybrid_solve_minrank", 2, (1, 0, 0, 0)),
    ("hybrid_solve_minrank", 17, (5, 0, 1, 0)),
    ("probabilistic_solve_minrank", 1, (3, 1, 0, 3)),
    ("probabilistic_solve_minrank", 8, (2, 0, 0, 2)),
]


@pytest.mark.parametrize("driver,seed,counts", GOLDEN,
                         ids=[f"{d}-{s}" for d, s, _ in GOLDEN])
def test_driver_golden(driver, seed, counts):
    if driver.endswith("_rd"):
        problem = inst.gen_rd(2, 7, 12, 5, 2, seed)
        res = getattr(hy, driver)(problem, 1, seed=seed)
        assert (res.solution.error == problem.witness.error).all()
    else:
        problem = inst.gen_minrank(2, 6, 8, 14, 2, seed)
        res = getattr(hy, driver)(problem, 1, seed=seed)
        assert (res.solution == problem.witness).all()
    assert (res.guesses_tried, res.infeasible_skipped, res.rounds, res.trials) == counts


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_rd_drivers_odd_characteristic(seed):
    rd = inst.gen_rd(3, 4, 7, 3, 1, seed)
    for res in (hy.hybrid_solve_rd(rd, 1, seed=seed),
                hy.probabilistic_solve_rd(rd, 1, seed=seed, max_trials=64)):
        assert (res.solution.error == rd.witness.error).all()


@pytest.mark.parametrize("params", [(3, 3, 4, 3, 1), (3, 4, 5, 4, 2)], ids=str)
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_minrank_drivers_when_the_guess_leaves_no_matrices(params, seed):
    # K = a m: the reduced instance is M_0 alone, whose rank decides it
    mi = inst.gen_minrank(*params, seed)
    for driver in (hy.hybrid_solve_minrank, hy.probabilistic_solve_minrank):
        try:
            res = driver(mi, 1, seed=seed)
        except sv.Unsolved:
            continue
        assert sv.verify_minrank(mi, res.solution) is not None


# one driver run per problem and mode, each needing at least one
# rerandomization (see GOLDEN)
SPIED = [("hybrid_solve_rd", 1), ("probabilistic_solve_rd", 6),
         ("hybrid_solve_minrank", 17), ("probabilistic_solve_minrank", 1)]


@pytest.mark.parametrize("driver,seed", SPIED, ids=[d for d, _ in SPIED])
def test_driver_reaches_reductions_through_module_names(monkeypatch, driver, seed):
    # a benchmark tracer wraps these module attributes, so the driver must
    # look them up at call time to have every guess counted
    calls = Counter()
    for name in ("reduce_rd", "reduce_minrank", "rerandomize_rd", "rerandomize_minrank"):
        def spy(*args, _name=name, _fn=getattr(hy, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(hy, name, spy)
    kind = driver.rsplit("_", 1)[1]
    if kind == "rd":
        problem = inst.gen_rd(2, 7, 12, 5, 2, seed)
    else:
        problem = inst.gen_minrank(2, 6, 8, 14, 2, seed)
    res = getattr(hy, driver)(problem, 1, seed=seed)
    presentations = res.rounds if driver.startswith("hybrid") else res.trials
    assert presentations >= 1
    assert calls == Counter({f"reduce_{kind}": res.guesses_tried,
                             f"rerandomize_{kind}": presentations})


def _guess_lines(transcript):
    tags = [line.split(":")[0] for line in transcript]
    assert all(" guess " in tag for tag in tags)
    assert len(set(tags)) == len(tags)          # one line per tried guess
    return tags


@pytest.mark.parametrize("driver", ["hybrid_solve_rd", "probabilistic_solve_rd"])
@pytest.mark.parametrize("seed", [1, 5])
def test_rd_driver_logs_every_guess(driver, seed):
    res = getattr(hy, driver)(inst.gen_rd(2, 5, 8, 3, 2, seed), 1, seed=seed)
    assert len(_guess_lines(res.transcript)) == res.guesses_tried
    # failed inner decodes name the stage they ended in
    assert any("unsolved, r'=" in line for line in res.transcript)
    assert res.transcript[-1].endswith("verified, weight 2")


def test_minrank_driver_logs_every_guess():
    # every presentation fails, so all q^(a r) guesses on each are logged,
    # the infeasible ones and those whose inner solve fails
    with pytest.raises(sv.Unsolved) as exc:
        hy.hybrid_solve_minrank(inst.gen_minrank(3, 3, 4, 3, 1, 1), 1, seed=1)
    *lines, closing = exc.value.transcript
    assert len(_guess_lines(lines)) == 5 * 3
    assert closing == "no lift verified on 5 presentations"
    outcomes = {line.split(": ", 1)[1] for line in lines}
    assert outcomes == {"infeasible", str(sv.Inconsistent())}
