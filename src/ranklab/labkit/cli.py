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
from ..galois import prime_power
from ..instances import (InstanceError, RdInstance, check_params, check_shape, gen_minrank,
                         gen_rd)
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
    # None marks an option left out, so that one the run would ignore is refused
    p_att.add_argument("--modeling", choices=sv.MODELINGS,
                       help="rd decoding path (default auto)")
    p_att.add_argument("--a", type=int, default=0, help="guessed zero positions")
    p_att.add_argument("--b-max", type=int, help="largest SM+ bi-degree (default 4)")
    p_att.add_argument("--probabilistic", action="store_true")
    p_att.add_argument("--seed", type=int, help="guess driver seed (default 1)")

    p_est = sub.add_parser("estimate", help="attack cost table",
                           parents=[common])
    p_est.add_argument("--preset", choices=sorted(es.PRESETS),
                       action="append", default=None)
    p_est.add_argument("--kind", choices=("rd", "minrank"), help="custom set kind (default rd)")
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


def _given(args, *opts) -> Optional[str]:
    """The flag of the first of ``opts`` that the command line set (0 too), or None."""
    return next((f"--{opt.replace('_', '-')}" for opt in opts
                 if getattr(args, opt) is not None and getattr(args, opt) is not False), None)


def _cmd_gen(args) -> int:
    rd = args.kind == "rd"
    foreign = _given(args, "K") if rd else _given(args, "k", "unique_envelope")
    if foreign:
        raise SystemExit(f"ranklab gen: {foreign} applies to {'minrank' if rd else 'rd'} "
                         f"instances, not to {args.kind}")
    size = args.k if rd else args.K
    if size is None:
        raise SystemExit(f"gen {args.kind} needs --{'k' if rd else 'K'}")
    try:
        check_params(args.kind, args.q, args.m, args.n, size, args.r)
    except ValueError as exc:
        raise SystemExit(f"ranklab gen: {exc}")
    if args.seed < 0:
        raise SystemExit(f"ranklab gen: need --seed >= 0, got {args.seed}")
    if args.kind == "minrank":
        inst = gen_minrank(args.q, args.m, args.n, size, args.r, args.seed)
    elif args.unique_envelope:
        if args.r < 1:
            raise SystemExit(f"ranklab gen: --unique-envelope needs --r >= 1, got {args.r}")
        try:
            inst = sv.gen_rd_generic(args.q, args.m, args.n, size, args.r, args.seed)
        except sv.EnvelopeMissed as exc:
            raise SystemExit(f"ranklab gen: {exc}") from None
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
    problem = _attack_option_problem(args, isinstance(inst, RdInstance))
    if problem:
        raise SystemExit(f"ranklab attack: {problem}")
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


def _attack_option_problem(args, is_rd: bool) -> Optional[str]:
    """Why the options do not describe one run on the instance, or None."""
    if args.a < 0:
        return f"need --a >= 0, got {args.a}"
    if args.b_max is not None and args.b_max < 1:
        return f"need --b-max >= 1, got {args.b_max}"
    if args.seed is not None and args.seed < 0:
        return f"need --seed >= 0, got {args.seed}"
    decode_opt = _given(args, "modeling", "b_max")
    if decode_opt and args.a > 0:
        return f"{decode_opt} applies to a plain decode, not with --a {args.a}"
    if decode_opt and not is_rd:
        return f"{decode_opt} applies to rd decoding, not to a minrank instance"
    guess_opt = _given(args, "probabilistic", "seed")
    if guess_opt and args.a == 0:
        return f"{guess_opt} applies to guessing runs, which need --a >= 1"
    return None


def _run_attack(args, inst, t0) -> int:
    kind = "rd" if isinstance(inst, RdInstance) else "minrank"
    meta = {}
    if args.a > 0:
        mode = "probabilistic" if args.probabilistic else "hybrid"
        res = getattr(hy, f"{mode}_solve_{kind}")(
            inst, args.a, seed=1 if args.seed is None else args.seed)
        sol = res.solution
        meta = {"guesses_tried": res.guesses_tried, "rounds": res.rounds,
                "trials": res.trials,
                "infeasible_skipped": res.infeasible_skipped}
    elif kind == "rd":
        given = {opt: getattr(args, opt) for opt in ("modeling", "b_max")
                 if getattr(args, opt) is not None}
        sol = sv.decode_rd(inst, sv.DecodeConfig(**given))
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
    try:
        conv = es.CostConventions(omega=args.omega)
    except ValueError:
        raise SystemExit(f"ranklab estimate: need 2 <= --omega <= 3, got {args.omega}") from None
    if args.preset:
        foreign = _given(args, "kind", "q", "m", "n", "k", "K", "r", "d")
        where = "a custom parameter set, not with --preset"
    else:
        args.kind = args.kind or "rd"
        foreign = _given(args, "K") if args.kind == "rd" else _given(args, "k", "d")
        where = f"{'minrank' if args.kind == 'rd' else 'rd'} parameters, not to {args.kind}"
    if foreign:
        raise SystemExit(f"ranklab estimate: {foreign} applies to {where}")
    attacks = args.attacks.split(",") if args.attacks else None
    if args.preset:
        presets = {name: es.PRESETS[name] for name in args.preset}
    else:
        presets = {"custom": _custom_preset(args)}
    try:
        table = {name: es.best_attack(preset, conv=conv, attacks=attacks)
                 for name, preset in presets.items()}
    except ValueError as exc:
        raise SystemExit(f"ranklab estimate: {exc}")
    _emit(args, _format_table(table, args))
    return 0


def _custom_preset(args) -> dict:
    """The parameter set given by --kind and the size options, checked
    without building its field (priced sizes are far above the tables)."""
    rd = args.kind == "rd"
    size = args.k if rd else args.K
    if any(v is None for v in (args.q, args.m, args.n, size, args.r)):
        raise SystemExit(f"estimate {args.kind} needs --q --m --n --{'k' if rd else 'K'} --r")
    try:
        prime_power(args.q)
        check_shape(args.kind, args.m, args.n, size, args.r)
    except ValueError as exc:
        raise SystemExit(f"ranklab estimate: {exc}")
    preset = {"kind": args.kind, "q": args.q, "m": args.m, "n": args.n, "r": args.r}
    if not rd:
        return {**preset, "K": args.K}
    d = args.r if args.d is None else args.d
    for flag, value in (("--r", args.r), ("--d", d)):
        if value < 1:
            raise SystemExit(f"ranklab estimate: {flag} must be >= 1, got {value}")
    return {**preset, "k": args.k, "d": d}


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
        experiments.check_arguments(args.property, params, args.trials, args.seed)
    except ValueError as exc:
        raise SystemExit(f"ranklab verify: {exc}")
    try:
        rep = experiments.verify(args.property, params, trials=args.trials,
                                 seed=args.seed)
    except sv.EnvelopeMissed as exc:
        raise SystemExit(f"ranklab verify: {exc}") from None
    _emit(args, rep)
    return 0 if rep.verdict else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"gen": _cmd_gen, "attack": _cmd_attack,
                "estimate": _cmd_estimate, "verify": _cmd_verify}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
