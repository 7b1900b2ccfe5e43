"""Run the benchmark over sets of seeds and check its figures against its bounds.

For every workload this runs ``run.py`` once per seed, one process at a
time, set after set.  For each set it prints each metric's median, its
quartiles and the distance between the quartiles as a share of the median,
next to the metric's bound in BENCHMARK.json.  For each later set it prints
how far each median moved from the first set's, in the direction that is
worse for the metric.  It also checks that the share of failed operations
is the same in every run.  With ``--trace`` every seed of the first set is
also run traced, right after its untraced run, and the traced metrics and
the tracing overhead are printed as well: the median over those seeds of
traced op_p50_ms minus untraced op_p50_ms.  Pairing the runs of one seed
keeps the machine's slow and fast spells, some of which last minutes, out
of the difference as far as they can be.

Flags: ``over bound`` marks a spread above the metric's bound, or a median
that got worse by more than the bound; ``over bound/3`` marks a spread
other than that of setup_s above a third of the bound.  The exit code is 1 when any ``over bound`` flag or a
differing failed share was printed.

    python3 perfbench/spread.py --sets 1-10 11-20
    python3 perfbench/spread.py --workloads decode-b2 --sets 1-5 --trace
    python3 perfbench/spread.py --sets 1-10 11-20 --save perfbench/out/sets.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--sets", type=seeds_arg, nargs="+", default=[seeds_arg("1-10")],
                    metavar="LO-HI", help="seed ranges, one set of runs each")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--save", type=Path, help="write every run's result to this JSON file")
    args = ap.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    bad = False
    saved = {}
    for workload in args.workloads.split(","):
        sets, traced = [], []
        for k, seeds in enumerate(args.sets):
            runs = []
            for s in seeds:
                runs.append(run_once(workload, s, args.seconds, False))
                if args.trace and k == 0:
                    traced.append(run_once(workload, s, args.seconds, True))
            sets.append(runs)
            print(f"\n{workload}: seeds {seeds[0]}-{seeds[-1]}, {args.seconds:g} s runs")
            print(f"  {'metric':20s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'iqr/med':>8s} "
                  f"{'bound':>6s}")
            for name, spec in metrics.items():
                med, q1, q3, spread = summarize([r["metrics"][name]["value"] for r in runs])
                flag = ""
                if spread > spec["bound"]:
                    flag, bad = "  <-- over bound", True
                elif spread > spec["bound"] / 3 and name != "setup_s":
                    flag = "  <-- over bound/3"
                print(f"  {name:20s} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:8.3f} "
                      f"{spec['bound']:6.2f}{flag}")
        shares = sorted({(r["failed"], r["attempted"]) for runs in sets for r in runs})
        same = len({f / a for f, a in shares}) == 1
        bad |= not same
        print(f"  failed/attempted over all runs: {shares[0]} ... {shares[-1]}, "
              + ("one share" if same else "SHARES DIFFER"))
        for k, runs in enumerate(sets[1:], start=1):
            print(f"  set {k + 1} against set 1 (worse by, as a share of the set-1 median):")
            for name, spec in metrics.items():
                first = statistics.median(r["metrics"][name]["value"] for r in sets[0])
                later = statistics.median(r["metrics"][name]["value"] for r in runs)
                worse = (later - first) / first * (1 if spec["better"] == "lower" else -1)
                flag = ""
                if worse > spec["bound"]:
                    flag, bad = "  <-- over bound", True
                print(f"    {name:20s} {worse:+8.3f} {spec['bound']:6.2f}{flag}")
        saved[workload] = {"sets": sets}
        if args.trace:
            saved[workload]["traced"] = traced
            print(f"  traced: {'metric':32s} {'median':>10s} {'min':>10s} {'max':>10s}")
            for name in traced[0]["metrics"]:
                vals = [t["metrics"][name]["value"] for t in traced]
                print(f"          {name:32s} {statistics.median(vals):10.4g} "
                      f"{min(vals):10.4g} {max(vals):10.4g}")
            untraced = statistics.median(r["metrics"]["op_p50_ms"]["value"] for r in sets[0])
            overhead = statistics.median(t["metrics"]["trace.op_p50_ms"]["value"]
                                         - r["metrics"]["op_p50_ms"]["value"]
                                         for t, r in zip(traced, sets[0]))
            print(f"  tracing overhead: {overhead:+.3f} ms on op_p50_ms "
                  f"({overhead / untraced:+.1%})")
        sys.stdout.flush()
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(saved) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
