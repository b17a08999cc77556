"""Command-line entry point: check, run, smt, monitor.

Exit codes: 0 success, 1 analysis failure (rejection, timing violation,
deadlock, nonconformance), 2 usage or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from . import syntax as s
from . import temporal as t
from .automata import Conforms, TraceObligation, load_automata, monitor_trace
from .parser import ParseError, parse_program
from .runtime import (AutoC, ExternEnv, ParC, ProcC, run_scheduler,
                      trace_from_jsonl, trace_to_jsonl)
from .typecheck import EntailmentSolver, check_program


@dataclass
class RunConfig:
    solver_backend: str = "internal"
    solver_path: Optional[str] = None
    timeout_ms: int = 5000
    horizon_ticks: Optional[int] = None
    trace_out_path: Optional[str] = None
    seed: int = 0

    def solver(self) -> EntailmentSolver:
        if self.solver_backend == "external":
            path = self.solver_path or os.environ.get("SOLVER_BIN")
            if not path:
                raise SystemExit2("external solver requested but no --solver-bin "
                                  "given and SOLVER_BIN is unset")
            return EntailmentSolver("external", path, self.timeout_ms)
        return EntailmentSolver("internal")


class SystemExit2(Exception):
    """Usage or I/O failure (exit code 2)."""


def _load(path: str) -> s.Program:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        raise SystemExit2(f"cannot read {path}: {exc}") from exc
    try:
        return parse_program(source)
    except ParseError as exc:
        raise SystemExit2(f"{path}:{exc}") from exc


def build_system(prog: s.Program, name: str):
    """Assemble the closed composition a ``system`` declaration describes."""
    sysd = prog.system_decl(name)
    if sysd is None:
        raise SystemExit2(f"no system named {name}")
    entry = prog.proc_decl(sysd.entry)
    defs = load_automata(prog)
    params = {v: ty for v, ty in entry.params}
    if len(sysd.bindings) != len(entry.params):
        raise SystemExit2(f"system {name}: {sysd.entry} takes {len(entry.params)} "
                          f"channels, {len(sysd.bindings)} bound")
    start = sysd.start.ticks()
    leaves, instances = [], {}
    for param, machine, instance in sysd.bindings:
        if param not in params:
            raise SystemExit2(f"system {name}: {sysd.entry} has no parameter {param}")
        defn = defs[machine]
        leaves.append(AutoC(instance, machine, defn.initial, start))
        instances[param] = instance
    leaves.append(ProcC(name, s.subst_chan(entry.body, instances)))
    omega = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        omega = ParC(leaf, omega)
    return omega, start, defs


def cmd_check(path: str, config: RunConfig) -> int:
    prog = _load(path)
    solver = config.solver()
    reports = check_program(prog, solver)
    for report in reports:
        print(report.render())
    return 0 if all(r.accepted for r in reports) else 1


def cmd_run(path: str, entry: str, config: RunConfig) -> int:
    prog = _load(path)
    omega, start, defs = build_system(prog, entry)
    env = ExternEnv(prog, seed=config.seed)
    horizon = None if config.horizon_ticks is None else start + config.horizon_ticks
    result = run_scheduler(omega, start, horizon=horizon, env=env, defs=defs)
    text = trace_to_jsonl(result.trace)
    if config.trace_out_path:
        try:
            with open(config.trace_out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit2(f"cannot write trace: {exc}") from exc
    else:
        sys.stdout.write(text)
    if result.ok:
        print(f"done at t0+{result.end_time} ({len(result.trace)} events)")
        return 0
    detail = result.error.render() if result.error else result.status
    print(f"{result.status}: {detail}")
    return 1


def cmd_smt(path: str, out_dir: str, config: RunConfig) -> int:
    prog = _load(path)
    solver = EntailmentSolver("internal")
    check_program(prog, solver)
    try:
        os.makedirs(out_dir, exist_ok=True)
        index = []
        for i, q in enumerate(solver.queries):
            fname = f"query_{i:04d}.smt2"
            with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
                fh.write(t.emit_smtlib(q.g, q.f, q.prop))
            index.append({"file": fname, "location": q.location,
                          "holds": q.holds})
        with open(os.path.join(out_dir, "index.json"), "w", encoding="utf-8") as fh:
            json.dump(index, fh, indent=1)
    except OSError as exc:
        raise SystemExit2(f"cannot write queries: {exc}") from exc
    print(f"{len(solver.queries)} queries written to {out_dir}")
    return 0


def cmd_monitor(path: str, type_name: str, trace_path: str,
                channel: Optional[str] = None) -> int:
    prog = _load(path)
    decl = prog.type_decl(type_name)
    if decl is None:
        raise SystemExit2(f"no type named {type_name}")
    expanded = s.expand_type_refs(prog, decl.body)
    try:
        with open(trace_path, "r", encoding="utf-8") as fh:
            events = trace_from_jsonl(fh.read())
    except OSError as exc:
        raise SystemExit2(f"cannot read trace: {exc}") from exc
    from .runtime import SilentA

    events = [ev for ev in events if not isinstance(ev.action, SilentA)]
    channels = sorted({ev.channel for ev in events})
    if channel is None:
        if len(channels) > 1:
            raise SystemExit2(f"trace covers several channels ({', '.join(channels)}); "
                              "pass --channel")
        channel = channels[0] if channels else ""
    events = [ev for ev in events if ev.channel == channel]
    verdict = monitor_trace(TraceObligation(expanded), events)
    if isinstance(verdict, Conforms):
        print(f"conforms: {len(events)} events on {channel} against {type_name}")
        return 0
    print(verdict.render())
    return 1


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="tillst",
                                     description="timed session-type toolchain")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="type-check every declaration")
    p_check.add_argument("file")
    p_check.add_argument("--solver", choices=["internal", "external"],
                         default="internal")
    p_check.add_argument("--solver-bin")
    p_check.add_argument("--timeout-ms", type=int, default=5000)

    p_run = sub.add_parser("run", help="execute a declared system")
    p_run.add_argument("file")
    p_run.add_argument("--entry", required=True)
    p_run.add_argument("--horizon", type=int)
    p_run.add_argument("--trace")
    p_run.add_argument("--seed", type=int, default=0)

    p_smt = sub.add_parser("smt", help="dump every entailment query as SMT-LIB2")
    p_smt.add_argument("file")
    p_smt.add_argument("--out", required=True)

    p_mon = sub.add_parser("monitor", help="check a trace against a type")
    p_mon.add_argument("file")
    p_mon.add_argument("--type", required=True, dest="type_name")
    p_mon.add_argument("--trace", required=True)
    p_mon.add_argument("--channel")

    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            config = RunConfig(solver_backend=args.solver, solver_path=args.solver_bin,
                               timeout_ms=args.timeout_ms)
            return cmd_check(args.file, config)
        if args.command == "run":
            config = RunConfig(horizon_ticks=args.horizon, trace_out_path=args.trace,
                               seed=args.seed)
            return cmd_run(args.file, args.entry, config)
        if args.command == "smt":
            return cmd_smt(args.file, args.out, RunConfig())
        return cmd_monitor(args.file, args.type_name, args.trace, args.channel)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except t.SolverTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
