"""Command-line entry point: gen / attack / estimate / verify."""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

from .. import estimator as es
from .. import hybrid as hy
from .. import solver as sv
from ..instances import InstanceError, RdInstance, check_params, gen_minrank, gen_rd
from . import experiments, io

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", choices=("text", "machine"), default="text",
                        help="output format")
    parser = argparse.ArgumentParser(
        prog="ranklab",
        description="Workbench for rank-decoding / MinRank algebra and "
                    "attack-cost estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a planted instance file",
                           parents=[common])
    p_gen.add_argument("kind", choices=("rd", "minrank"))
    p_gen.add_argument("--q", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, help="code dimension (rd)")
    p_gen.add_argument("--K", type=int, help="number of matrices (minrank)")
    p_gen.add_argument("--r", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--unique-envelope", action="store_true",
                       help="condition the rd instance on the generic envelope")
    p_gen.add_argument("-o", "--output", required=True)

    p_att = sub.add_parser("attack", help="solve an instance file",
                           parents=[common])
    p_att.add_argument("path")
    p_att.add_argument("--modeling", choices=("auto", "mm", "smplus"),
                       default="auto")
    p_att.add_argument("--a", type=int, default=0, help="guessed zero positions")
    p_att.add_argument("--b-max", type=int, default=4)
    p_att.add_argument("--probabilistic", action="store_true")
    p_att.add_argument("--seed", type=int, default=1)

    p_est = sub.add_parser("estimate", help="attack cost table",
                           parents=[common])
    p_est.add_argument("--preset", choices=sorted(es.PRESETS),
                       action="append", default=None)
    p_est.add_argument("--kind", choices=("rd", "minrank"), default="rd")
    p_est.add_argument("--q", type=int)
    p_est.add_argument("--m", type=int)
    p_est.add_argument("--n", type=int)
    p_est.add_argument("--k", type=int)
    p_est.add_argument("--K", type=int)
    p_est.add_argument("--r", type=int)
    p_est.add_argument("--d", type=int, help="small-codeword rank for key attacks")
    p_est.add_argument("--omega", type=float, default=2.0)
    p_est.add_argument("--attacks", type=str,
                       help="comma list among mm,smplus,comb,kernel,sm")

    p_ver = sub.add_parser("verify", help="run a named property experiment",
                           parents=[common])
    p_ver.add_argument("--property", required=True,
                       choices=sorted(experiments.PROPERTIES))
    p_ver.add_argument("--trials", type=int, default=10)
    p_ver.add_argument("--seed", type=int, default=1)
    p_ver.add_argument("--params", type=str, default="2,7,8,4,2",
                       help="comma-separated instance parameters")
    return parser


def _emit(args, obj) -> None:
    if args.report == "machine":
        print(io.report_json(obj))
    else:
        print(io.report_text(obj))


def _cmd_gen(args) -> int:
    size = args.k if args.kind == "rd" else args.K
    if size is None:
        raise SystemExit(f"gen {args.kind} needs --{'k' if args.kind == 'rd' else 'K'}")
    try:
        check_params(args.kind, args.q, args.m, args.n, size, args.r)
    except ValueError as exc:
        raise SystemExit(f"ranklab gen: {exc}")
    if args.kind == "minrank":
        inst = gen_minrank(args.q, args.m, args.n, size, args.r, args.seed)
    elif args.unique_envelope:
        inst = sv.gen_rd_generic(args.q, args.m, args.n, size, args.r, args.seed)
    else:
        inst = gen_rd(args.q, args.m, args.n, size, args.r, args.seed)
    io.write_instance(args.output, inst)
    _emit(args, {"written": args.output, "kind": args.kind,
                 "witness": inst.witness is not None})
    return 0


def _cmd_attack(args) -> int:
    try:
        inst = io.read_instance(args.path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"ranklab attack: {args.path}: {exc}")
    t0 = time.perf_counter()
    try:
        return _run_attack(args, inst, t0)
    except sv.Unsolved as exc:
        _emit(args, {"outcome": "unsolved",
                     "elapsed_s": round(time.perf_counter() - t0, 4),
                     "transcript": list(exc.transcript)})
        return 1
    except InstanceError as exc:
        raise SystemExit(f"ranklab attack: {args.path}: {exc}")


def _run_attack(args, inst, t0) -> int:
    kind = "rd" if isinstance(inst, RdInstance) else "minrank"
    meta = {}
    if args.a > 0:
        mode = "probabilistic" if args.probabilistic else "hybrid"
        res = getattr(hy, f"{mode}_solve_{kind}")(inst, args.a, seed=args.seed)
        sol = res.solution
        meta = {"guesses_tried": res.guesses_tried, "rounds": res.rounds,
                "trials": res.trials,
                "infeasible_skipped": res.infeasible_skipped}
    elif kind == "rd":
        cfg = sv.DecodeConfig(modeling=args.modeling, b_max=args.b_max)
        sol = sv.decode_rd(inst, cfg)
    else:
        sol = sv.solve_minrank_linearized(inst)
        if not isinstance(sol, np.ndarray):
            _emit(args, {"kind": "minrank", "outcome": str(sol)})
            return 1
    if kind == "rd":
        report = {
            "kind": "rd",
            "weight": sol.weight,
            "error": sol.error.tolist(),
            "codeword": sol.codeword.tolist(),
            "message": sol.message.tolist(),
            "verified": True,
            "elapsed_s": round(time.perf_counter() - t0, 4),
            "transcript": list(sol.transcript),
            **meta,
        }
    else:
        rank = sv.verify_minrank(inst, sol)
        report = {"kind": "minrank", "x": sol.tolist(), "achieved_rank": rank,
                  "verified": rank is not None,
                  "elapsed_s": round(time.perf_counter() - t0, 4), **meta}
    _emit(args, report)
    return 0


def _cmd_estimate(args) -> int:
    conv = es.CostConventions(omega=args.omega)
    attacks = args.attacks.split(",") if args.attacks else None
    if args.preset:
        table = {}
        for name in args.preset:
            table[name] = es.best_attack(es.PRESETS[name], conv=conv,
                                         attacks=attacks)
        _emit(args, _format_table(table, args))
        return 0
    if args.kind == "rd":
        needed = (args.q, args.m, args.n, args.k, args.r)
        if any(v is None for v in needed):
            raise SystemExit("estimate rd needs --q --m --n --k --r")
        preset = {"kind": "rd", "q": args.q, "k": args.k, "m": args.m, "n": args.n,
                  "r": args.r, "d": args.d if args.d else args.r}
        _emit(args, _format_table({"custom": es.best_attack(preset, conv=conv,
                                                            attacks=attacks)}, args))
        return 0
    needed = (args.q, args.m, args.n, args.K, args.r)
    if any(v is None for v in needed):
        raise SystemExit("estimate minrank needs --q --m --n --K --r")
    preset = {"kind": "minrank", "q": args.q, "m": args.m, "n": args.n,
              "K": args.K, "r": args.r}
    _emit(args, _format_table({"custom": es.best_attack(preset, conv=conv,
                                                        attacks=attacks)}, args))
    return 0


def _format_table(table, args):
    if args.report == "machine":
        return {name: [
            {"attack": e.attack, "bits": None if e.bits == float("inf")
             else round(e.bits, 2), "feasible": e.feasible,
             "detail": {k: v for k, v in e.detail.items() if k != "params"}}
            for e in rows] for name, rows in table.items()}
    lines = []
    for name, rows in table.items():
        lines.append(name)
        for e in rows:
            det = {k: v for k, v in e.detail.items() if k != "params"}
            bits = "infeasible" if e.bits == float("inf") else f"{e.bits:7.1f}"
            lines.append(f"  {e.attack:<8} {bits}  {det}")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    try:
        params = tuple(int(v) for v in args.params.split(","))
    except ValueError:
        raise SystemExit(f"ranklab verify: --params must be comma-separated integers, "
                         f"got {args.params!r}")
    try:
        experiments.check_arguments(args.property, params, args.trials)
    except ValueError as exc:
        raise SystemExit(f"ranklab verify: {exc}")
    rep = experiments.verify(args.property, params, trials=args.trials,
                             seed=args.seed)
    _emit(args, rep)
    return 0 if rep.verdict else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"gen": _cmd_gen, "attack": _cmd_attack,
                "estimate": _cmd_estimate, "verify": _cmd_verify}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
