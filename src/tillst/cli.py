"""Command-line entry point: check, run, smt, monitor.

Exit codes: 0 success, 1 analysis failure (rejection, timing violation,
deadlock, nonconformance), 2 usage or I/O errors, solver failures and input
nested too deeply to analyse.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import syntax as s
from . import temporal as t
from .automata import (AutomatonError, Conforms, TraceObligation, load_automata,
                       monitor_trace)
from .parser import ParseError, parse_program
from .runtime import (AutoC, ExternEnv, ParC, ProcC, SilentA, TraceFormatError,
                      run_scheduler, trace_from_jsonl, trace_to_jsonl)
from .typecheck import EntailmentSolver, check_program


class SystemExit2(Exception):
    """Usage or I/O failure (exit code 2)."""


def _load(path: str) -> s.Program:
    """Parse a program file and validate its automata."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        raise SystemExit2(f"cannot read {path}: {exc}") from exc
    try:
        prog = parse_program(source)
    except ParseError as exc:
        raise SystemExit2(f"{path}:{exc}") from exc
    try:
        load_automata(prog)
    except AutomatonError as exc:
        raise SystemExit2(f"{path}: {exc}") from exc
    return prog


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


def cmd_check(path: str, backend: str, solver_bin: Optional[str], timeout_ms: int) -> int:
    prog = _load(path)
    if backend == "external":
        solver_bin = solver_bin or os.environ.get("SOLVER_BIN")
        if not solver_bin:
            raise SystemExit2("external solver requested but no --solver-bin "
                              "given and SOLVER_BIN is unset")
    reports = check_program(prog, EntailmentSolver(backend, solver_bin, timeout_ms))
    for report in reports:
        print(report.render())
    return 0 if all(r.accepted for r in reports) else 1


def cmd_run(path: str, entry: str, horizon: Optional[int], trace_out: Optional[str],
            seed: int) -> int:
    prog = _load(path)
    omega, start, defs = build_system(prog, entry)
    env = ExternEnv(prog, seed=seed)
    horizon = None if horizon is None else start + horizon
    result = run_scheduler(omega, start, horizon=horizon, env=env, defs=defs)
    text = trace_to_jsonl(result.trace)
    if trace_out:
        try:
            with open(trace_out, "w", encoding="utf-8") as fh:
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


def cmd_smt(path: str, out_dir: str) -> int:
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
                          "holds": q.holds, "ms": round(q.seconds * 1000, 3)})
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
    except TraceFormatError as exc:
        raise SystemExit2(f"{trace_path}:{exc}") from exc
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
            return cmd_check(args.file, args.solver, args.solver_bin, args.timeout_ms)
        if args.command == "run":
            return cmd_run(args.file, args.entry, args.horizon, args.trace, args.seed)
        if args.command == "smt":
            return cmd_smt(args.file, args.out)
        return cmd_monitor(args.file, args.type_name, args.trace, args.channel)
    except (SystemExit2, t.SolverTimeout, t.SolverError, t.FormulaTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # predicates, expressions, type substitution and alpha-equivalence,
        # free_channels and the solver's DNF of the hypothesis list still
        # recurse once per level of nesting
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
