"""File formats, experiment reports, CLI."""

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from ranklab import instances as inst
from ranklab import matlin as ml
from ranklab import solver as sv
from ranklab.labkit import experiments, io
from ranklab.labkit.cli import main


def test_rd_instance_round_trip(tmp_path):
    rd = inst.gen_rd(2, 7, 8, 4, 2, seed=1)
    path = tmp_path / "i.rdi"
    io.write_instance(str(path), rd)
    back = io.read_instance(str(path))
    assert isinstance(back, inst.RdInstance)
    assert (back.gen == rd.gen).all() and (back.received == rd.received).all()
    assert back.verify_witness()
    assert (back.witness.error == rd.witness.error).all()


def test_rd_instance_round_trip_q4(tmp_path):
    rd = inst.gen_rd(4, 5, 8, 3, 2, seed=2)
    path = tmp_path / "i.rdi"
    io.write_instance(str(path), rd)
    back = io.read_instance(str(path))
    assert back.q == 4 and back.verify_witness()


def test_minrank_instance_round_trip(tmp_path):
    mi = inst.gen_minrank(2, 6, 8, 14, 2, seed=3)
    path = tmp_path / "i.mri"
    io.write_instance(str(path), mi)
    back = io.read_instance(str(path))
    assert isinstance(back, inst.MinRankInstance)
    assert back.verify_witness()
    assert all((a == b).all() for a, b in zip(back.mats, mi.mats))


def test_reader_rejects_unknown_fields(tmp_path):
    rd = inst.gen_rd(2, 3, 5, 2, 1, seed=1)
    path = tmp_path / "i.rdi"
    io.write_instance(str(path), rd)
    doc = json.loads(path.read_text())
    doc["surprise"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unknown fields"):
        io.read_instance(str(path))


def test_reader_rejects_foreign_modulus(tmp_path):
    rd = inst.gen_rd(2, 3, 5, 2, 1, seed=1)
    path = tmp_path / "i.rdi"
    io.write_instance(str(path), rd)
    doc = json.loads(path.read_text())
    doc["ext_modulus"] = [1, 0, 1, 1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="modulus"):
        io.read_instance(str(path))


def test_reader_rejects_bad_witness(tmp_path):
    rd = inst.gen_rd(2, 3, 5, 2, 1, seed=1)
    path = tmp_path / "i.rdi"
    io.write_instance(str(path), rd)
    doc = json.loads(path.read_text())
    doc["witness"]["x"] = [0] * rd.k
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="witness"):
        io.read_instance(str(path))


def tampered_file(tmp_path, inst_obj, edit):
    path = tmp_path / "t.inst"
    io.write_instance(str(path), inst_obj)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return str(path)


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


@pytest.mark.parametrize("edit,reason", [
    pytest.param(lambda d: d.update(generator=d["generator"][:2]),
                 r"generator has shape \(2, 8\), expected \(4, 8\)", id="short-generator"),
    pytest.param(lambda d: d["received"].__setitem__(0, -1),
                 r"received holds codes outside \[0, 128\)", id="negative-code"),
    pytest.param(lambda d: d["generator"][1].__setitem__(3, 128),
                 r"generator holds codes outside", id="code-too-large"),
    pytest.param(lambda d: d.update(received=d["received"][:7]),
                 r"received has shape \(7,\)", id="short-received"),
    pytest.param(_set("k_or_K", 8), r"need 0 < k < n", id="k-equals-n"),
    pytest.param(_set("k_or_K", 0), r"need 0 < k < n", id="k-zero"),
    pytest.param(_set("r", 8), r"need 0 <= r <= min\(m, n\)", id="r-above-m"),
    pytest.param(_set("r", -1), r"need 0 <= r", id="r-negative"),
    pytest.param(_set("n", 8.0), r"n must be an integer", id="float-n"),
    pytest.param(lambda d: d.pop("received"), r"missing fields", id="missing-received"),
    pytest.param(_set("q_char", 4), r"q_char 4 is not a prime", id="composite-char"),
    pytest.param(_set("q_char", 8388617), r"exceeds the table limit", id="huge-field"),
    pytest.param(lambda d: d["witness"]["coeffs"][0].__setitem__(0, 2),
                 r"witness coeffs holds codes outside \[0, 2\)", id="witness-coeff"),
    pytest.param(lambda d: d["witness"].pop("coeffs"), r"witness must hold exactly the keys",
                 id="witness-keys"),
    pytest.param(lambda d: d["generator"][1].pop(), r"^generator is not a rectangular array$",
                 id="ragged-generator"),
    pytest.param(lambda d: d["received"].__setitem__(2, 2 ** 70),
                 r"^received holds codes outside \[0, 128\)$", id="code-beyond-64-bits"),
    pytest.param(lambda d: d["generator"][2].__setitem__(5, True),
                 r"^generator holds codes that are not integers$", id="bool-code"),
])
def test_reader_rejects_malformed_rd(tmp_path, edit, reason):
    path = tampered_file(tmp_path, inst.gen_rd(2, 7, 8, 4, 2, seed=1), edit)
    with pytest.raises(ValueError, match=reason):
        io.read_instance(path)


@pytest.mark.parametrize("edit,reason", [
    pytest.param(lambda d: d["matrices"][2].pop(), r"matrix 2 has shape \(5, 8\)",
                 id="short-matrix"),
    pytest.param(lambda d: d["matrices"][0][0].__setitem__(0, 2), r"matrix 0 holds codes outside",
                 id="code-too-large"),
    pytest.param(_set("r", 0), r"need 0 < r", id="r-zero"),
    pytest.param(_set("k_or_K", 0), r"need K >= 1", id="K-zero"),
    pytest.param(lambda d: d["matrices"].pop(), r"matrix count", id="missing-matrix"),
    pytest.param(lambda d: d["matrices"][1][2].pop(), r"^matrix 1 is not a rectangular array$",
                 id="ragged-matrix"),
    pytest.param(lambda d: d["matrices"][3][0].__setitem__(1, -2 ** 70),
                 r"^matrix 3 holds codes outside \[0, 2\)$", id="code-beyond-64-bits"),
    pytest.param(lambda d: d["matrices"][1][3].__setitem__(0, False),
                 r"^matrix 1 holds codes that are not integers$", id="bool-code"),
])
def test_reader_rejects_malformed_minrank(tmp_path, edit, reason):
    path = tampered_file(tmp_path, inst.gen_minrank(2, 6, 8, 14, 2, seed=3), edit)
    with pytest.raises(ValueError, match=reason):
        io.read_instance(path)


def test_cli_attack_rejects_malformed_file(tmp_path):
    path = tampered_file(tmp_path, inst.gen_rd(2, 7, 8, 4, 2, seed=1),
                         lambda d: d.update(generator=d["generator"][:2]))
    with pytest.raises(SystemExit) as exc:
        main(["attack", path])
    message = str(exc.value.code)
    assert "generator has shape (2, 8), expected (4, 8)" in message
    assert "\n" not in message
    with pytest.raises(SystemExit, match="No such file"):
        main(["attack", str(tmp_path / "absent.rdi")])


def _repeat_first_generator_row(doc):
    doc["generator"][1] = list(doc["generator"][0])
    del doc["witness"]


@pytest.mark.parametrize("extra", [[], ["--a", "1"], ["--a", "1", "--probabilistic"]],
                         ids=["decode", "hybrid", "probabilistic"])
def test_cli_attack_reports_rank_deficient_generator(tmp_path, extra):
    # the file is well formed, so the reader accepts it; decoding finds the defect
    path = tampered_file(tmp_path, inst.gen_rd(2, 7, 8, 4, 2, seed=1),
                         _repeat_first_generator_row)
    with pytest.raises(SystemExit) as exc:
        main(["attack", path] + extra)
    assert str(exc.value.code) == f"ranklab attack: {path}: generator matrix is not full rank"


def test_report_reproducible():
    a = experiments.verify("mm-rank", (2, 3, 5, 2, 1), trials=4, seed=3)
    b = experiments.verify("mm-rank", (2, 3, 5, 2, 1), trials=4, seed=3)
    assert a.measured == b.measured and a.verdict == b.verdict
    assert a.passes == b.passes


def test_verify_unknown_property():
    with pytest.raises(ValueError, match="unknown property"):
        experiments.verify("nope", (2, 3, 5, 2, 1))


@pytest.mark.parametrize("prop,params", [
    ("q0-span", (2, 3, 5, 2, 1)),
    ("lt-independence", (2, 3, 5, 2, 1)),
    ("q1-correspondence", (2, 3, 5, 2, 1)),
    ("unfold-sm", (2, 3, 5, 2, 1)),
    ("unfold-sm", (4, 5, 8, 3, 2)),
    ("mm-rank", (4, 5, 8, 3, 2)),
    ("nb-rank", (2, 3, 5, 2, 1)),
])
def test_exact_properties_pass(prop, params):
    rep = experiments.verify(prop, params, trials=3, seed=2)
    assert rep.verdict, rep.failures


def _tail(n, k, s):
    """Index of {k+1, ..., k+s} among the s-subsets of range(n): the first
    subset of the positions past the systematic block and y."""
    return ml.all_subsets(n, s).index(tuple(range(k + 1, k + 1 + s)))


# (property, params, (polynomial, minor column) of the affine coefficient
# that is changed, the failure the check must report)
CHANGED_COEFFICIENT = [
    # the (r+1)-minor of H_y on the tail is 1 on the tail polynomial only
    ("q0-span", (2, 3, 5, 2, 1), lambda n, k, r, part: (_tail(n, k, r + 1), 0),
     "measured (1,) expected (0,)"),
    # the full minor of linear row 0 at {k} + tail is +-1 (h is 1 at k, 0 past it)
    ("q1-correspondence", (2, 3, 5, 2, 1),
     lambda n, k, r, part: (ml.all_subsets(n, r + 1).index(tuple(range(k, k + r + 1))), 0),
     "measured ('id1',) expected (0,) linear-row correspondence failed"),
    ("lt-independence", (2, 3, 5, 2, 1), lambda n, k, r, part: (part.two_plus[0], _tail(n, k, r)),
     "tail minor appears"),
    ("unfold-sm", (2, 3, 5, 2, 1), lambda n, k, r, part: (0, 0), "measured (0,) expected (1,)"),
    ("syzygy-count", (2, 7, 8, 4, 2), lambda n, k, r, part: (_tail(n, k, r + 1), 0),
     "reduced relation not zero"),
]


@pytest.mark.parametrize("prop,params,pick,failure", CHANGED_COEFFICIENT,
                         ids=[case[0] for case in CHANGED_COEFFICIENT])
def test_exact_checks_fail_on_a_changed_coefficient(monkeypatch, prop, params, pick, failure):
    build = experiments._canonical_systems

    def changed(*args, **kwargs):
        rd, can, mm, mmq, sm, part = build(*args, **kwargs)
        p, t = pick(can.n, can.k, can.r, part)
        coef = sm.coef.copy()
        coef[p, -1, t] = can.field.add(int(coef[p, -1, t]), 1)
        return rd, can, mm, mmq, dataclasses.replace(sm, coef=coef), part

    monkeypatch.setattr(experiments, "_canonical_systems", changed)
    rep = experiments.verify(prop, params, trials=1, seed=2)
    assert rep.passes == 0 and failure in rep.failures[0], rep.failures


def test_syzygy_property_small():
    rep = experiments.verify("syzygy-count", (2, 7, 8, 4, 2), trials=2, seed=5)
    assert rep.verdict, rep.failures


def test_syzygy_property_rejects_overdetermined_params():
    # the rank law concerns an underdetermined MaxMinors system; (2,7,10,3,2)
    # has 105 equations for 45 minors
    with pytest.raises(ValueError, match="needs an underdetermined MaxMinors system"):
        experiments.verify("syzygy-count", (2, 7, 10, 3, 2), trials=1)


SUITE = Path(__file__).resolve().parents[1] / "scripts" / "run_verification_suite.py"


def test_verification_suite_plan_passes_argument_check():
    spec = importlib.util.spec_from_file_location("run_verification_suite", SUITE)
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    assert {prop for prop, _, _ in suite.PLAN} == set(experiments.PROPERTIES)
    for prop, params, trials in suite.PLAN:
        experiments.check_arguments(prop, params, trials)
        experiments.check_arguments(prop, params, 3)      # the --quick run


def test_hybrid_properties_small():
    rep = experiments.verify("hybrid-correct", (2, 7, 12, 5, 2), trials=2, seed=1)
    assert rep.verdict, rep.failures
    rep2 = experiments.verify("hybrid-correct-minrank", (2, 6, 8, 14, 2),
                              trials=2, seed=1)
    assert rep2.verdict, rep2.failures


def test_hybrid_correct_accepts_a_decoding_other_than_the_planted_one():
    # on seed 9 of (2,3,5,4,1) the driver returns error 0 after one guess: one
    # of the draw's 22 decodings, not the planted one, and it verifies
    rd = inst.gen_rd(2, 3, 5, 4, 1, seed=9)
    assert rd.witness.error.any()
    assert experiments._check_hybrid_correct((2, 3, 5, 4, 1), 9) == (True, (1,), (2,), "")
    rep = experiments.verify("hybrid-correct", (2, 3, 5, 4, 1), trials=1, seed=9)
    assert rep.verdict, rep.failures


def test_hybrid_correct_minrank_draws_until_the_planted_guess_shortens(monkeypatch):
    # at K = m = 2 the tail block of M_1, M_2 reaches rank m only by chance:
    # the first draws of seeds 2 and 4 leave the planted guess infeasible
    rep = experiments.verify("hybrid-correct-minrank", (2, 2, 3, 2, 1), trials=4)
    assert rep.passes == 4 and rep.verdict, rep.failures
    monkeypatch.setattr(experiments, "_MINRANK_DRAWS", 1)
    assert experiments._check_hybrid_minrank((2, 2, 3, 2, 1), 4) == (
        False, ("no draw",), (2,), "the planted guess shortened in none of 1 draws")


def test_report_renderers():
    rep = experiments.verify("mm-rank", (2, 3, 5, 2, 1), trials=2, seed=1)
    text = io.report_text(rep)
    assert "mm-rank" in text and "pass" in text
    doc = json.loads(io.report_json(rep))
    assert doc["property_name"] == "mm-rank"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_gen_attack_rd(tmp_path, capsys):
    path = str(tmp_path / "i.rdi")
    assert main(["gen", "rd", "--q", "2", "--m", "7", "--n", "8", "--k", "4",
                 "--r", "2", "--seed", "1", "--unique-envelope",
                 "-o", path]) == 0
    capsys.readouterr()
    assert main(["attack", path, "--report", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] and doc["weight"] == 2
    assert any("verified" in line for line in doc["transcript"])


@pytest.mark.parametrize("params", [(2, 7, 10, 3, 2), (3, 5, 8, 3, 2), (4, 5, 8, 3, 2),
                                    (2, 7, 12, 5, 2), (5, 3, 6, 2, 1), (9, 3, 6, 2, 1),
                                    (3, 4, 7, 3, 1)], ids=str)
def test_cli_attack_forced_smplus(tmp_path, capsys, params):
    rd = inst.gen_rd(*params, seed=1)
    path = str(tmp_path / "i.rdi")
    io.write_instance(path, rd)
    assert main(["attack", path, "--modeling", "smplus", "--report", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == rd.witness.error.tolist()
    assert "smplus b=1" in doc["transcript"][-1]


def test_cli_attack_hybrid_minrank(tmp_path, capsys):
    path = str(tmp_path / "i.mri")
    assert main(["gen", "minrank", "--q", "2", "--m", "6", "--n", "8",
                 "--K", "14", "--r", "2", "--seed", "3", "-o", path]) == 0
    capsys.readouterr()
    assert main(["attack", path, "--a", "1", "--report", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] and doc["achieved_rank"] <= 2
    assert doc["infeasible_skipped"] == 0 and doc["guesses_tried"] >= 1


def test_cli_attack_minrank_at_full_rank(tmp_path, capsys):
    path = str(tmp_path / "i.mri")
    assert main(["gen", "minrank", "--q", "2", "--m", "3", "--n", "3",
                 "--K", "2", "--r", "3", "-o", path]) == 0
    capsys.readouterr()
    assert main(["attack", path, "--report", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True and doc["achieved_rank"] <= 3


def test_cli_estimate_preset(capsys):
    assert main(["estimate", "--preset", "new2rollo-i-128",
                 "--report", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {r["attack"]: r for r in doc["new2rollo-i-128"]}
    assert abs(rows["smplus"]["bits"] - 202) <= 2
    assert abs(rows["mm"]["bits"] - 205) <= 3
    assert abs(rows["comb"]["bits"] - 212) <= 2


def test_cli_estimate_custom(capsys):
    assert main(["estimate", "--kind", "minrank", "--q", "16", "--m", "16",
                 "--n", "16", "--K", "142", "--r", "4",
                 "--report", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {r["attack"]: r for r in doc["custom"]}
    assert abs(rows["kernel"]["bits"] - 166) <= 1


@pytest.mark.parametrize("argv, attack, why", [
    (["--kind", "rd", "--q", "2", "--m", "31", "--n", "30", "--k", "15", "--r", "2"],
     "smplus", "mm-overdetermined"),
    (["--kind", "minrank", "--q", "2", "--m", "3", "--n", "3", "--K", "2", "--r", "2"],
     "sm", "no solvable bi-degree"),
])
def test_cli_estimate_names_infeasible_attacks(capsys, argv, attack, why):
    # an attack with no feasible guess count keeps its name and its reason
    assert main(["estimate", *argv, "--report", "machine"]) == 0
    rows = {r["attack"]: r for r in json.loads(capsys.readouterr().out)["custom"]}
    assert rows[attack]["feasible"] is False and rows[attack]["bits"] is None
    assert rows[attack]["detail"]["why"] == why


def test_cli_verify(capsys):
    assert main(["verify", "--property", "mm-rank", "--params", "2,3,5,2,1",
                 "--trials", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


CANONICAL_FORM_PROPERTIES = ["nb-rank", "q0-span", "lt-independence", "q1-correspondence",
                             "unfold-sm", "mm-rank"]


@pytest.mark.parametrize("argv, reason", [
    (["verify", "--property", "mm-rank", "--params", "2,7"],
     "mm-rank takes five parameters q,m,n,k,r, got 2"),
    (["verify", "--property", "mm-rank", "--params", "2,7,x,4,2"],
     "--params must be comma-separated integers, got '2,7,x,4,2'"),
    (["verify", "--property", "mm-rank", "--params", "2,3,5,2,1", "--trials", "0"],
     "need trials >= 1, got 0"),
    (["verify", "--property", "syzygy-count", "--params", "2,7,10,3,2"],
     "syzygy-count needs an underdetermined MaxMinors system"),
    (["verify", "--property", "hybrid-correct-minrank", "--params", "2,6,8,0,2"],
     "need K >= 1, got K = 0"),
    (["gen", "rd", "--q", "2", "--m", "7", "--n", "8", "--k", "9", "--r", "2"],
     "need 0 < k < n, got k = 9, n = 8"),
    (["gen", "rd", "--q", "6", "--m", "7", "--n", "8", "--k", "4", "--r", "2"],
     "6 is not a prime power"),
    (["gen", "minrank", "--q", "2", "--m", "6", "--n", "8", "--K", "14", "--r", "9"],
     "need 0 < r <= min(m, n), got r = 9"),
    (["verify", "--property", "mm-rank", "--params", "2,3,5,2,1", "--seed", "-3"],
     "need seed >= 0, got -3"),
    (["gen", "rd", "--q", "2", "--m", "7", "--n", "8", "--k", "4", "--r", "2", "--seed", "-1"],
     "need --seed >= 0, got -1"),
    (["gen", "rd", "--q", "2", "--m", "3", "--n", "5", "--k", "2", "--r", "0", "--unique-envelope"],
     "--unique-envelope needs --r >= 1, got 0"),
    # refused once its draws have missed the envelope
    (["gen", "rd", "--q", "2", "--m", "3", "--n", "5", "--k", "4", "--r", "1", "--unique-envelope"],
     "could not hit the generic instance envelope"),
    # the a = 1 guess of the driver properties must fit the instance
    (["verify", "--property", "hybrid-correct", "--params", "2,5,4,2,4", "--trials", "1"],
     "hybrid-correct guesses a = 1 column, which needs r + 1 <= n, got r = 4, n = 4"),
    (["verify", "--property", "hybrid-correct-minrank", "--params", "2,3,3,2,3"],
     "hybrid-correct-minrank drops m unknowns with its a = 1 guess, which needs m <= K, "
     "got m = 3, K = 2"),
    # a conditioned draw that misses its envelope ends the run
    (["verify", "--property", "syzygy-count", "--params", "2,3,6,3,2", "--trials", "2"],
     "could not hit the generic instance envelope"),
    (["verify", "--property", "mm-rank", "--params", "2,3,5,3,2", "--trials", "2"],
     "could not hit the unique-decoding envelope"),
    # every draw has a solution family above the oracle's cap: several
    # decodings, so each draw is rejected, not a traceback
    (["gen", "rd", "--q", "3", "--m", "2", "--n", "6", "--k", "2", "--r", "2", "--unique-envelope"],
     "could not hit the generic instance envelope"),
    (["verify", "--property", "mm-rank", "--params", "3,2,6,2,2", "--trials", "2"],
     "could not hit the unique-decoding envelope"),
    (["verify", "--property", "syzygy-count", "--params", "3,2,6,2,2", "--trials", "2"],
     "could not hit the generic instance envelope"),
    # options that the run would ignore
    (["gen", "minrank", "--q", "2", "--m", "3", "--n", "4", "--K", "3", "--r", "1",
      "--unique-envelope"], "--unique-envelope applies to rd instances, not to minrank"),
    (["gen", "rd", "--q", "2", "--m", "7", "--n", "8", "--k", "3", "--K", "9", "--r", "2"],
     "--K applies to minrank instances, not to rd"),
    (["gen", "rd", "--q", "2", "--m", "7", "--n", "8", "--k", "3", "--K", "0", "--r", "2"],
     "--K applies to minrank instances, not to rd"),
    (["gen", "minrank", "--q", "2", "--m", "3", "--n", "4", "--K", "3", "--k", "2", "--r", "1"],
     "--k applies to rd instances, not to minrank"),
] + [
    # at r = 0 the received word is a codeword, which has no canonical form
    (["verify", "--property", prop, "--params", "2,3,5,2,0"], f"{prop} needs r >= 1, got r = 0")
    for prop in CANONICAL_FORM_PROPERTIES
], ids=["short-params", "non-integer", "no-trials", "syzygy-overdetermined",
        "minrank-K", "gen-k-above-n", "gen-q6", "gen-minrank-r", "negative-seed",
        "gen-negative-seed", "gen-envelope-r0", "gen-envelope-miss", "hybrid-guess-wide",
        "minrank-guess-wide", "verify-envelope-miss", "verify-unique-miss",
        "gen-envelope-cap", "verify-unique-cap", "verify-envelope-cap",
        "gen-minrank-envelope", "gen-rd-K", "gen-rd-K0", "gen-minrank-k"]
   + [f"verify-r0-{prop}" for prop in CANONICAL_FORM_PROPERTIES])
def test_cli_rejects_bad_arguments(tmp_path, argv, reason):
    # rejected in one line, like an attack on a malformed file: bad arguments
    # before any work, a missed envelope when the draw misses it
    if argv[0] == "gen":
        argv = argv + ["-o", str(tmp_path / "out.inst")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = str(exc.value.code)
    assert message.startswith(f"ranklab {argv[0]}: ") and reason in message
    assert "\n" not in message
    assert not (tmp_path / "out.inst").exists()


@pytest.mark.parametrize("prop, params", [("hybrid-correct", "2,3,5,4,1"),
                                          ("hybrid-correct-minrank", "2,3,5,15,1")])
def test_cli_verify_counts_unsolved_driver_as_failed_trial(capsys, prop, params):
    # the drivers end Unsolved on some of these draws; each such trial fails
    # with the transcript's last line as its note, and the run exits 1
    assert main(["verify", "--property", prop, "--params", params]) == 1
    out = capsys.readouterr().out
    assert "-> FAIL" in out
    assert "measured ('unsolved',) expected (2,) no lift verified on 5 presentations" in out


@pytest.mark.parametrize("kind, extra, reason", [
    ("rd", ["--b-max", "0"], "need --b-max >= 1, got 0"),
    ("rd", ["--b-max", "-3"], "need --b-max >= 1, got -3"),
    ("rd", ["--a", "-1"], "need --a >= 0, got -1"),
    ("rd", ["--a", "1", "--modeling", "mm"], "--modeling applies to a plain decode, not with --a 1"),
    ("rd", ["--a", "1", "--b-max", "2"], "--b-max applies to a plain decode, not with --a 1"),
    ("minrank", ["--modeling", "smplus"], "--modeling applies to rd decoding, not to a minrank"),
    ("minrank", ["--b-max", "2"], "--b-max applies to rd decoding, not to a minrank"),
    ("rd", ["--probabilistic"], "--probabilistic applies to guessing runs, which need --a >= 1"),
    ("minrank", ["--seed", "3"], "--seed applies to guessing runs, which need --a >= 1"),
    ("rd", ["--seed", "0"], "--seed applies to guessing runs, which need --a >= 1"),
    ("minrank", ["--a", "1", "--probabilistic", "--seed", "-2"], "need --seed >= 0, got -2"),
], ids=["b-max-0", "b-max-negative", "a-negative", "modeling-with-a", "b-max-with-a",
        "modeling-minrank", "b-max-minrank", "probabilistic-without-a", "seed-without-a",
        "seed-0-without-a", "seed-negative"])
def test_cli_attack_rejects_options_the_run_would_ignore(tmp_path, capsys, kind, extra, reason):
    # each is refused in one line before any work, not run with the option dropped
    path = str(tmp_path / "i.inst")
    io.write_instance(path, inst.gen_rd(2, 7, 10, 3, 2, seed=1) if kind == "rd"
                      else inst.gen_minrank(2, 6, 8, 14, 2, seed=3))
    with pytest.raises(SystemExit) as exc:
        main(["attack", path] + extra)
    assert str(exc.value.code).startswith(f"ranklab attack: {reason}")
    assert "\n" not in str(exc.value.code)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, reason", [
    (["--preset", "new2rollo-i-128", "--attacks", "foo"],
     "attack 'foo' does not apply to rd parameters"),
    (["--preset", "new2rollo-i-128", "--attacks", "mm,kernel"],
     "attack 'kernel' does not apply to rd parameters"),
    (["--preset", "minrank-sig-128", "--attacks", "mm"],
     "attack 'mm' does not apply to minrank parameters"),
    (["--kind", "rd", "--q", "2", "--m", "7", "--n", "8", "--k", "9", "--r", "2"],
     "need 0 < k < n, got k = 9, n = 8"),
    (["--kind", "minrank", "--q", "16", "--m", "16", "--n", "16", "--K", "142", "--r", "17"],
     "need 0 < r <= min(m, n), got r = 17"),
    (["--kind", "rd", "--q", "6", "--m", "73", "--n", "166", "--k", "83", "--r", "7"],
     "6 is not a prime power"),
    (["--kind", "rd", "--q", "2", "--m", "20", "--n", "20", "--k", "10", "--r", "3", "--d", "0"],
     "--d must be >= 1, got 0"),
    (["--kind", "rd", "--q", "2", "--m", "20", "--n", "20", "--k", "10", "--r", "0", "--d", "2"],
     "--r must be >= 1, got 0"),
    (["--kind", "rd", "--q", "2", "--m", "20", "--n", "20", "--k", "10", "--r", "0"],
     "--r must be >= 1, got 0"),
    (["--preset", "new2rollo-i-128", "--omega", "nan"], "need 2 <= --omega <= 3, got nan"),
    (["--preset", "new2rollo-i-128", "--omega", "3.5"], "need 2 <= --omega <= 3, got 3.5"),
    # options that the run would ignore
    (["--preset", "new2rollo-i-128", "--q", "3"],
     "--q applies to a custom parameter set, not with --preset"),
    (["--preset", "minrank-sig-128", "--kind", "minrank"],
     "--kind applies to a custom parameter set, not with --preset"),
    (["--kind", "minrank", "--q", "16", "--m", "16", "--n", "16", "--K", "142", "--r", "4",
      "--d", "3"], "--d applies to rd parameters, not to minrank"),
    (["--kind", "rd", "--q", "2", "--m", "31", "--n", "33", "--k", "15", "--r", "5", "--K", "5"],
     "--K applies to minrank parameters, not to rd"),
    (["--q", "2", "--m", "31", "--n", "33", "--k", "15", "--r", "5", "--K", "5"],
     "--K applies to minrank parameters, not to rd"),
], ids=["unknown", "kernel-on-rd", "mm-on-minrank", "k-above-n", "minrank-r", "q6",
        "rd-d0", "rd-r0", "rd-r0-default-d", "omega-nan", "omega-above-3",
        "preset-q", "preset-kind", "minrank-d", "rd-K", "default-kind-K"])
def test_cli_estimate_rejects_bad_arguments(capsys, argv, reason):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", *argv])
    message = str(exc.value.code)
    assert message.startswith("ranklab estimate: ") and reason in message
    assert "\n" not in message
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("kind, params, a", [
    ("minrank", (2, 2, 3, 8, 2), 2),
    ("rd", (2, 3, 5, 4, 3), 3),
], ids=["minrank", "rd"])
def test_cli_attack_refuses_guess_wider_than_instance(tmp_path, capsys, kind, params, a):
    # r + a > n: no guess matrix fits, so the driver cannot run
    path = str(tmp_path / "i.inst")
    gen = inst.gen_rd if kind == "rd" else inst.gen_minrank
    io.write_instance(path, gen(*params, seed=1))
    with pytest.raises(SystemExit) as exc:
        main(["attack", path, "--a", str(a)])
    assert str(exc.value.code) == f"ranklab attack: {path}: guess wider than the instance"
    assert capsys.readouterr().out == ""


def test_cli_attack_unsolved_is_clean(tmp_path, capsys):
    # an out-of-envelope instance with several decodings: reported, not a crash
    rd = inst.gen_rd(2, 7, 8, 4, 2, seed=1)
    assert len(sv.rd_solutions_brute(rd)) > 1
    path = str(tmp_path / "bad.rdi")
    io.write_instance(path, rd)
    code = main(["attack", path, "--report", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["outcome"] == "unsolved"
    assert doc["transcript"]
