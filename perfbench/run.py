"""Benchmark of ranklab's desk-scale decoding, envelope draws and hybrid drivers.

One process runs one workload from a single thread, as a closed loop: each
operation starts when the previous one has returned and its answer has been
checked.  The run repeats whole rounds of the workload's operations until
``--seconds`` have passed, so the share of failed operations is the same in
every run.  Inputs come from the package's own generators and depend only on
``--seed``.

    python3 perfbench/run.py --workload decode-mix --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the package's layers are wrapped in
spans (see tracing.py) and the object holds the per-layer metrics instead.
The exit code is 1 when an answer is wrong or an operation raises where it
may not, and 2 when the sources are missing.  See README.md for the
workloads and metrics.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one thread: the numeric libraries must not start pools of their own
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "throughput_ops_s": "1/s",
              "peak_rss_mb": "MB"}

# layer -> metric stem; "_ms" is self time per timed operation
LOOP_LAYERS = ["labkit.read_instance", "instances.gen_rd", "instances.canonicalize",
               "modelings.build_mm", "modelings.build_sm", "modelings.reduce_sm_plus",
               "modelings.macaulay", "matlin.echelonize_gf2", "matlin.echelonize_generic",
               "matlin.solve_right", "solver.oracle", "solver.kernel_dim", "solver.decode",
               "solver.solve_linearized", "solver.solve_minrank", "hybrid.reduce",
               "hybrid.rerandomize", "hybrid.inner", "hybrid.driver"]
# counters, per operation over the count window
LOOP_COUNTS = ["instances.gen_rd_calls", "instances.canonicalize_calls",
               "modelings.macaulay_cells", "matlin.echelonize_calls",
               "matlin.echelonize_cells", "solver.oracle_calls", "hybrid.guesses"]


def per_layer_units():
    units = {"galois.field_build_ms": "ms", "setup.instances.gen_rd_ms": "ms",
             "setup.instances.gen_rd_calls": "count", "trace.op_p50_ms": "ms"}
    units.update({layer + "_ms": "ms" for layer in LOOP_LAYERS})
    units.update({name: "cells" if name.endswith("_cells") else "count"
                  for name in LOOP_COUNTS})
    return units


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class RdCase:
    """An RD instance and the planted error that gen_rd drew for it.

    ``moves`` are the base-field matrices the instance was right-multiplied
    by after gen_rd; the planted error is carried through them with the
    checker's own arithmetic.
    """

    def __init__(self, rd, planted, moves=(), path=None):
        self.rd = rd
        self.path = path
        self._planted = planted
        self._moves = list(moves)
        self._ref = None

    def check(self, error) -> bool:
        if self._ref is None:
            self._ref = checks.RefField.of(self.rd.field)
            for p in self._moves:
                self._planted = self._ref.times_base_matrix(self._planted, p)
        return checks.check_rd(self._ref, self.rd.gen, self.rd.received, self.rd.r,
                               self._planted, error)


class Op(NamedTuple):
    """One operation: ``call()`` runs the package and returns its answer,
    ``check(answer)`` says whether the answer is right.  Only an operation
    with ``may_fail`` set may end in ``solver.Unsolved``."""

    call: Callable
    check: Callable
    may_fail: bool = False


class Workload:
    """Set-up, warm-ups and rounds of operations for one named workload.

    ``setup()`` fills ``self.pools``, one list of operations per slot of a
    round; round r runs position r mod (pool size) of every pool.  Calls
    look package functions up as module attributes at call time, so that a
    traced run reaches the wrappers.
    """

    count_rounds = 1    # leading rounds over which the traced run counts
    setup_rounds = 5    # set-up and import are repeated and their medians reported

    def __init__(self, lab, screened, seed: int, files: Path):
        self.lab = lab
        self.screened = screened
        self.seed = seed
        self.files = files
        self.pools = []

    def screened_seeds(self, rng, key, size):
        seeds = self.screened[key]["seeds"]
        return [int(s) for s in rng.permutation(seeds)[:size]]

    def decode_op(self, case: RdCase, may_fail=False):
        lab = self.lab
        if case.path is None:
            call = lambda: lab.solver.decode_rd(case.rd)  # noqa: E731
        else:
            call = lambda: lab.solver.decode_rd(lab.io.read_instance(str(case.path)))  # noqa: E731
        return Op(call, lambda sol: case.check(sol.error), may_fail)

    def warm_ups(self):
        """One untimed operation per parameter set."""
        return [pool[0] for pool in self.pools]

    def round(self, r):
        return [pool[r % len(pool)] for pool in self.pools]


def key(params) -> str:
    return ",".join(map(str, params))


class DecodeMix(Workload):
    """Read an instance file and decode it, round-robin over parameter sets."""

    SCREENED = [(2, 7, 10, 3, 2), (2, 7, 12, 5, 2), (4, 5, 8, 3, 2), (3, 7, 10, 5, 2)]
    # MaxMinors at odd q: every decode ends Unsolved today, because the
    # support-matrix step returns -e; fixed seeds keep the failed share
    # independent of --seed
    FAILING = [(3, 4, 7, 3, 1), (5, 3, 6, 2, 1)]
    FAILING_SEEDS = range(100, 110)
    POOL = 5
    count_rounds = 10               # every pool position once

    def setup(self):
        lab = self.lab
        rng = np.random.default_rng(self.seed)
        for params in self.SCREENED + self.FAILING:
            failing = params in self.FAILING
            seeds = (list(self.FAILING_SEEDS) if failing
                     else self.screened_seeds(rng, key(params), self.POOL))
            pool = []
            for s in seeds:
                rd = lab.instances.gen_rd(*params, s)
                path = self.files / ("mix-%s-%d.rdi" % ("-".join(map(str, params)), s))
                lab.io.write_instance(str(path), rd)
                pool.append(self.decode_op(RdCase(rd, rd.witness.error, path=path), failing))
            self.pools.append(pool)


class DecodeB2(Workload):
    """Decode (2,9,10,4,3) instances, which the SM+ path solves at b = 2."""

    PARAMS = (2, 9, 10, 4, 3)
    POOL = 12
    count_rounds = POOL
    setup_rounds = 3    # its warm-up decode alone takes about 2 s

    def setup(self):
        rng = np.random.default_rng(self.seed)
        pool = []
        for s in self.screened_seeds(rng, key(self.PARAMS), self.POOL):
            rd = self.lab.instances.gen_rd(*self.PARAMS, s)
            pool.append(self.decode_op(RdCase(rd, rd.witness.error)))
        self.pools.append(pool)


class EnvelopeDraw(Workload):
    """Draw an instance inside the generic envelope and decode it.

    Draw seeds come from the screened list, in an order set by --seed; the
    function's cache is emptied before every draw, so it never answers one.
    The last seed is kept for the warm-up, so every timed draw is new.
    """

    PARAMS = (2, 7, 8, 4, 2)
    count_rounds = 8

    def setup(self):
        rng = np.random.default_rng(self.seed)
        ops = [self._op(s) for s in self.screened_seeds(rng, key(self.PARAMS), None)]
        self.pools.append(ops[:-1])
        self.warm_up = ops[-1]

    def _op(self, draw_seed):
        solver = self.lab.solver

        def call():
            solver.gen_rd_generic.cache_clear()
            rd = solver.gen_rd_generic(*self.PARAMS, draw_seed)
            return rd, solver.decode_rd(rd)

        return Op(call, lambda ans: RdCase(ans[0], ans[0].witness.error).check(ans[1].error))

    def warm_ups(self):
        return [self.warm_up]


class HybridDrivers(Workload):
    """The four guess drivers with a = 1, in fixed rotation.

    Each driver draws its instance seeds from its own screened list, on
    which it makes a fixed number of guesses or trials; the driver seed is
    the instance seed, as in labkit.experiments.
    """

    RD = (2, 7, 12, 5, 2)
    MINRANK = (2, 6, 8, 14, 2)
    DRIVERS = ["hybrid_solve_rd", "probabilistic_solve_rd",
               "hybrid_solve_minrank", "probabilistic_solve_minrank"]
    POOL = 12
    count_rounds = POOL

    def setup(self):
        rng = np.random.default_rng(self.seed)
        for driver in self.DRIVERS:
            self.pools.append([self.driver_op(driver, s)
                               for s in self.screened_seeds(rng, driver, self.POOL)])

    def driver_op(self, driver, s, **kwargs):
        hy = self.lab.hybrid
        if driver.endswith("_rd"):
            case = hybrid_rd_case(self.lab, s)
            return Op(lambda: getattr(hy, driver)(case.rd, 1, seed=s, **kwargs),
                      lambda res: case.check(res.solution.error))
        mri = hybrid_minrank_case(self.lab, s)
        mats = np.stack(mri.mats)
        return Op(lambda: getattr(hy, driver)(mri, 1, seed=s, **kwargs),
                  lambda res: checks.check_minrank(mats, mri.field.order, mri.r, res.solution))

    def warm_ups(self):
        return [self.pools[0][0], self.pools[2][0]]     # one RD, one MinRank


def hybrid_rd_case(lab, s) -> RdCase:
    """gen_rd seed s, rerandomized until the drivers' independence
    assumption holds, as labkit.experiments does."""
    hy = lab.hybrid
    rd = lab.instances.gen_rd(*HybridDrivers.RD, s)
    planted, moves, attempt = rd.witness.error, [], 0
    while not hy.assumption_holds_rd(rd):
        rd, p = hy.rerandomize_rd(rd, s * 31 + attempt)
        moves.append(p)
        attempt += 1
    return RdCase(rd, planted, moves)


def hybrid_minrank_case(lab, s):
    """gen_minrank seed s, rerandomized as for hybrid_rd_case."""
    hy = lab.hybrid
    mri, attempt = lab.instances.gen_minrank(*HybridDrivers.MINRANK, s), 0
    while not hy.assumption_holds_minrank(mri):
        mri, _ = hy.rerandomize_minrank(mri, s * 37 + attempt)
        attempt += 1
    return mri


WORKLOADS = {"decode-mix": DecodeMix, "decode-b2": DecodeB2,
             "envelope-draw": EnvelopeDraw, "hybrid-drivers": HybridDrivers}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

class Lab:
    """The package modules, looked up by attribute at call time."""

    def __init__(self):
        import ranklab
        from ranklab import galois, hybrid, instances, solver
        from ranklab.labkit import io

        if Path(ranklab.__file__).resolve().parent != SRC / "ranklab":
            raise ImportError(f"ranklab was imported from {ranklab.__file__}, not {SRC}")
        self.galois, self.hybrid, self.instances = galois, hybrid, instances
        self.solver, self.io = solver, io
        # caches emptied before each set-up round, so field tables are rebuilt
        self.caches = [galois.make_ext_field, galois.make_base_field, galois._prime_field,
                       solver.gen_rd_generic, solver.gen_rd_unique]


def run_ops(ops, tally, unsolved):
    """Time each call until it returns, then check its answer.

    Only an operation marked ``may_fail`` may raise ``unsolved``; it then
    counts as failed.  Any other exception ends the run.
    """
    times = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            answer = op.call()
        except unsolved:
            if not op.may_fail:
                raise
            times.append(time.perf_counter() - t0)
            tally["failed"] += 1
            continue
        times.append(time.perf_counter() - t0)
        if not op.check(answer):
            tally["wrong"] += 1
            tally["failed"] += 1
    return times


def load():
    """The package and the screened lists.  The import time runs from the
    first line of this file until this returns."""
    sys.path.insert(0, str(SRC))
    lab = Lab()
    with open(HERE / "screened.json") as fh:
        return lab, json.load(fh)


def fresh_import_time() -> float:
    """The import time of a fresh interpreter, which runs ``--import-only``."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--import-only"],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.split()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--import-only", action="store_true",
                    help="print the import time and exit (used to sample it)")
    args = ap.parse_args(argv)
    if not (SRC / "ranklab" / "__init__.py").is_file():
        print(f"error: no ranklab sources under {SRC}", file=sys.stderr)
        return 2
    if args.import_only:
        load()
        print(time.perf_counter() - T_START)
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    lab, screened = load()
    import_s = time.perf_counter() - T_START
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    OUT.mkdir(exist_ok=True)
    files = OUT / f"files-{args.workload}-{args.seed}-{os.getpid()}"
    files.mkdir()
    try:
        return measure(args, lab, screened, import_s, tracer, files)
    finally:
        shutil.rmtree(files, ignore_errors=True)


def setup_round(args, lab, screened, files, warm_tally):
    """Empty the caches, build the workload and run its warm-ups; returns
    the workload and the seconds this took."""
    t0 = time.perf_counter()
    for cache in lab.caches:
        cache.cache_clear()
    wl = WORKLOADS[args.workload](lab, screened, args.seed, files)
    wl.setup()
    run_ops(wl.warm_ups(), warm_tally, lab.solver.Unsolved)
    return wl, time.perf_counter() - t0


def measure(args, lab, screened, import_s, tracer, files) -> int:
    """Set up, run the closed loop, and print the metrics.

    Set-up and import are taken ``setup_rounds`` times each.  The first
    set-up precedes the loop.  An untraced run takes the others at even
    intervals of the loop, with the loop's clock stopped, so that like the
    operations they sample the machine's slow and fast spells; a traced run
    takes all set-ups up front and no extra imports.
    """
    tally = {"failed": 0, "wrong": 0}
    warm_tally = {"failed": 0, "wrong": 0}
    unsolved = lab.solver.Unsolved
    extra = WORKLOADS[args.workload].setup_rounds - 1
    before_setup = tracer.snapshot() if tracer else None
    wl, dt = setup_round(args, lab, screened, files, warm_tally)
    setup_times, import_times = [dt], [import_s]
    if tracer:
        for _ in range(extra):
            wl, dt = setup_round(args, lab, screened, files, warm_tally)
            setup_times.append(dt)

    def resetup():
        nonlocal wl
        wl, dt = setup_round(args, lab, screened, files, warm_tally)
        setup_times.append(dt)
        import_times.append(fresh_import_time())

    # closed loop over whole rounds; a traced run covers the count window
    min_rounds = wl.count_rounds if tracer else 1
    if tracer:
        loop_start = tracer.snapshot()
    times, rounds = [], 0
    t_start = time.perf_counter()
    t_end = t_start + args.seconds
    due = [] if tracer else [t_start + args.seconds * (i + 1) / (extra + 1)
                             for i in range(extra)]
    while rounds < min_rounds or time.perf_counter() < t_end:
        times += run_ops(wl.round(rounds), tally, unsolved)
        rounds += 1
        if tracer and rounds == wl.count_rounds:
            window = tracer.snapshot(), len(times)
        if due and time.perf_counter() >= due[0]:
            t0 = time.perf_counter()
            resetup()
            pause = time.perf_counter() - t0
            t_end += pause
            due = [t + pause for t in due[1:]]
    for _ in due:
        resetup()
    setup_s = statistics.median(import_times) + statistics.median(setup_times)
    attempted = len(times)
    op_p50_ms = statistics.median(times) * 1e3

    if tracer:
        metrics = layer_metrics(tracer, before_setup, loop_start, window, attempted,
                                len(setup_times))
        metrics["trace.op_p50_ms"] = op_p50_ms
        units = per_layer_units()
    else:
        metrics = {"setup_s": setup_s, "op_p50_ms": op_p50_ms,
                   "throughput_ops_s": attempted / sum(times),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
    if warm_tally["wrong"]:
        print(f"{warm_tally['wrong']} warm-up operations gave a wrong answer", file=sys.stderr)
    correct = tally["wrong"] == 0 and warm_tally["wrong"] == 0
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"{'attempted':32s} {attempted:14d}\n{'failed':32s} {tally['failed']:14d}"
          f"\n{'wrong answers':32s} {tally['wrong']:14d}")
    result = {"correct": correct, "attempted": attempted,
              "failed": tally["failed"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


def layer_metrics(tracer, before_setup, loop_start, window, attempted, setup_rounds):
    """Per-layer metrics from the tracer's totals at the phase boundaries."""
    setup_self = loop_start[0] - before_setup[0]
    setup_counts = loop_start[1] - before_setup[1]
    loop_self = tracer.self_s - loop_start[0]
    (_, win_counts), win_ops = window
    win_counts = win_counts - loop_start[1]
    metrics = {
        "galois.field_build_ms": setup_self["galois.field_build"] / setup_rounds * 1e3,
        "setup.instances.gen_rd_ms": setup_self["instances.gen_rd"] / setup_rounds * 1e3,
        "setup.instances.gen_rd_calls": setup_counts["instances.gen_rd_calls"] / setup_rounds,
    }
    for layer in LOOP_LAYERS:
        metrics[layer + "_ms"] = loop_self[layer] / attempted * 1e3
    for name in LOOP_COUNTS:
        metrics[name] = win_counts[name] / win_ops
    return metrics


if __name__ == "__main__":
    sys.exit(main())
