"""Regenerate perfbench/screened.json, the screened instance seeds.

Where a workload's inputs depend on --seed, it draws them from these lists,
so that no operation fails on some seeds only and every draw costs the
same kind of work.  Three rules:

* decode rule, for the decode-mix and decode-b2 sets: keep gen_rd seed s
  when decode_rd(gen_rd(q, m, n, k, r, s), DecodeConfig(b_max=2)) returns
  exactly the planted error and its last transcript entry names the set's
  path: "mm" (MaxMinors), "smplus b=1", or "smplus b=2 retry=0" (b = 2 on
  the first canonical form).  Uniform draws include non-generic instances
  that end Unsolved; with b_max = 2 they end within seconds instead of
  running on at b = 3 and 4.
* envelope rule, for envelope-draw: keep draw seed s when
  gen_rd_generic(q, m, n, k, r, s) accepts its first attempt.  A draw that
  needs A attempts costs A oracle runs, so with rejections an operation
  takes 0.3 to 2.2 s and the median of a run's 30 or so operations moves
  by a third between seeds; without them it takes 0.3 to 0.45 s.
* hybrid rule, for hybrid-drivers: keep instance seed s for a driver when,
  on the instance that hybrid-drivers builds from s, the driver with a = 1
  and seed s returns a right answer after exactly the set's number of
  guesses (deterministic drivers, in their first round) or trials
  (probabilistic drivers).  The count depends on where the right guess
  lies or on the driver seed; left free, probabilistic_solve_rd took from
  1 to 18 trials (18 to 263 ms) on the first 30 seeds.

Excluded seeds are recorded with the reason.

    python3 perfbench/screen.py            # about eight minutes on one core
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# (q, m, n, k, r) or driver name -> (rule, decode path or count, seeds to keep)
SETS = {
    (2, 7, 10, 3, 2): ("decode", "mm", 40),
    (2, 7, 12, 5, 2): ("decode", "mm", 40),
    (4, 5, 8, 3, 2): ("decode", "mm", 40),
    (3, 7, 10, 5, 2): ("decode", "smplus b=1", 40),
    (2, 9, 10, 4, 3): ("decode", "smplus b=2 retry=0", 32),
    (2, 7, 8, 4, 2): ("envelope", None, 300),
    # counts chosen so that the four drivers' operations take about as long
    "hybrid_solve_rd": ("hybrid", 4, 32),
    "probabilistic_solve_rd": ("hybrid", 4, 32),
    "hybrid_solve_minrank": ("hybrid", 2, 32),
    "probabilistic_solve_minrank": ("hybrid", 2, 32),
}


def key(target) -> str:
    return target if isinstance(target, str) else run.key(target)


def decode_verdict(params, path, s):
    """None to keep seed s, else the reason it is excluded."""
    from ranklab import instances, solver

    rd = instances.gen_rd(*params, s)
    try:
        sol = solver.decode_rd(rd, solver.DecodeConfig(b_max=2))
    except solver.Unsolved as exc:
        return "Unsolved: " + exc.transcript[-1]
    last = sol.transcript[-1]
    if not (sol.error == rd.witness.error).all():
        return "another decoding: " + last
    if not last.startswith(f"r'={params[4]} {path}"):
        return "other path: " + last
    return None


def envelope_verdict(params, s):
    from ranklab import solver

    try:
        solver.gen_rd_generic(*params, s, max_tries=1)
    except RuntimeError:
        return "first attempt outside the envelope"
    return None


def hybrid_verdict(workload, driver, count, s):
    from ranklab import solver

    deterministic = driver.startswith("hybrid")
    unit = "guesses" if deterministic else "trials"
    # stop a deterministic driver after its first round, a probabilistic
    # one after count trials
    op = workload.driver_op(driver, s, **({"max_rounds": 0} if deterministic
                                          else {"max_trials": count}))
    try:
        res = op.call()
    except solver.Unsolved:
        return "no answer in the first round" if deterministic else f"trials: more than {count}"
    if not op.check(res):
        return "wrong answer"
    if res.guesses_tried != count:
        return f"{unit}: {res.guesses_tried}"
    return None


def main() -> int:
    if not (SRC / "ranklab" / "__init__.py").is_file():
        print(f"error: no ranklab sources under {SRC}", file=sys.stderr)
        return 2
    lab, _ = run.load()
    doc = {}
    workload = run.HybridDrivers(lab, {}, 0, None)
    for target, (rule, arg, keep) in SETS.items():
        kept, excluded, s = [], {}, 0
        while len(kept) < keep:
            if rule == "decode":
                why = decode_verdict(target, arg, s)
            elif rule == "envelope":
                why = envelope_verdict(target, s)
            else:
                why = hybrid_verdict(workload, target, arg, s)
            if why is None:
                kept.append(s)
            else:
                excluded[str(s)] = why
            s += 1
        doc[key(target)] = {"rule": rule, ("count" if rule == "hybrid" else "path"): arg,
                            "seeds": kept, "excluded": excluded}
        print(f"{target}: kept {len(kept)} of {s} seeds", flush=True)
    with open(HERE / "screened.json", "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
