"""Command-line entry point: check, run, smt, monitor.

Exit codes: 0 success, 1 analysis failure (rejection, timing violation,
deadlock, nonconformance), 2 every ``TillstError`` (malformed input, usage or
I/O errors, solver failures, an unchecked program that cannot go on at run
time) and input nested too deeply to analyse.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys

from . import syntax as s
from . import temporal as t
from .automata import Conforms, TraceObligation, monitor_trace
from .parser import ParseError, parse_program
from .runtime import (AutoC, Env, ExternEnv, ProcC, SilentA, TraceFormatError,
                      run_scheduler, trace_from_jsonl, trace_to_jsonl)
from .typecheck import EntailmentSolver, LoggingSolver, check_program


class SystemExit2(t.TillstError):
    """Usage or I/O failure (exit code 2)."""


def _load(path: str) -> s.Program:
    """Parse a program file; the parser runs every static check of its
    declarations, automata and systems included."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit2(f"cannot read {path}: {exc}") from exc
    try:
        prog = parse_program(source)
    except ParseError as exc:
        raise SystemExit2(f"{path}:{exc}") from exc
    return prog


def _write(path: str, text: str, what: str) -> None:
    """Write ``text`` to ``path`` in UTF-8, in place: an existing regular
    file is cut to the length written after the write, not emptied when
    opened, since a truncating open can stall on the filesystem far longer
    than the write takes.  A device such as ``os.devnull`` is only written
    to."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise SystemExit2(f"cannot write {what}: {exc}") from exc


def build_system(prog: s.Program, name: str):
    """Assemble the closed composition a ``system`` declaration describes;
    the parser has checked its bindings.  Returns (configuration, start
    instant, automaton definitions by name)."""
    sysd = prog.system_decl(name)
    if sysd is None:
        raise SystemExit2(f"no system named {name}")
    entry = prog.proc_decl(sysd.entry)
    defs = {defn.name: defn for defn in prog.automata}
    start = sysd.start.ticks()
    instances = {param: instance for param, _, instance in sysd.bindings}
    autos = tuple(AutoC(instance, machine, defs[machine].initial, start)
                  for _, machine, instance in sysd.bindings)
    return autos + (ProcC(name, entry.body, Env(chans=instances)),), start, defs


def cmd_check(path: str, backend: str, solver_bin: str | None, timeout_ms: int) -> int:
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


def cmd_run(path: str, entry: str, horizon: int | None, trace_out: str | None,
            seed: int) -> int:
    if horizon is not None and horizon < 0:
        raise SystemExit2(f"--horizon must not be negative, got {horizon}")
    prog = _load(path)
    omega, start, defs = build_system(prog, entry)
    env = ExternEnv(prog, seed=seed)
    horizon = None if horizon is None else start + horizon
    result = run_scheduler(omega, start, horizon=horizon, env=env, defs=defs)
    text = trace_to_jsonl(result.trace)
    if trace_out:
        _write(trace_out, text, "trace")
    else:
        sys.stdout.write(text)
    if result.ok:
        print(f"done at {t.render_instant(result.end_time)} ({len(result.trace)} events)")
        return 0
    print(f"{result.status}: {result.error.render()}")
    return 1


def cmd_smt(path: str, out_dir: str) -> int:
    import json

    prog = _load(path)
    solver = LoggingSolver("internal")
    check_program(prog, solver)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise SystemExit2(f"cannot write queries: {exc}") from exc
    index = []
    for i, q in enumerate(solver.queries):
        fname = f"query_{i:04d}.smt2"
        _write(os.path.join(out_dir, fname), t.emit_smtlib(q.g, q.f, q.prop), "queries")
        index.append({"file": fname, "location": q.location,
                      "holds": q.holds, "ms": round(q.seconds * 1000, 3)})
    _write(os.path.join(out_dir, "index.json"), json.dumps(index, indent=1), "queries")
    print(f"{len(solver.queries)} queries written to {out_dir}")
    return 0


def cmd_monitor(path: str, type_name: str, trace_path: str,
                channel: str | None = None) -> int:
    prog = _load(path)
    decl = prog.type_decl(type_name)
    if decl is None:
        raise SystemExit2(f"no type named {type_name}")
    expanded = s.expand_type_refs(prog, s.TypeRef(type_name))
    try:
        with open(trace_path, "r", encoding="utf-8") as fh:
            events = trace_from_jsonl(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit2(f"cannot read trace: {exc}") from exc
    except TraceFormatError as exc:
        raise SystemExit2(f"{trace_path}:{exc}") from exc
    named = {ev.channel for ev in events}  # a silent event names a channel too
    events = [ev for ev in events if not isinstance(ev.action, SilentA)]
    channels = sorted({ev.channel for ev in events})
    if channel is None:
        if len(channels) > 1:
            raise SystemExit2(f"trace covers several channels ({', '.join(channels)}); "
                              "pass --channel")
        channel = channels[0] if channels else ""
    elif channel not in named:
        raise SystemExit2(f"trace {trace_path} never names channel {channel}")
    events = [ev for ev in events if ev.channel == channel]
    verdict = monitor_trace(TraceObligation(expanded), events)
    if isinstance(verdict, Conforms):
        print(f"conforms: {len(events)} events on {channel} against {type_name}")
        return 0
    print(verdict.render())
    return 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process when first used."""
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
    return parser


def main(argv: list | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args.file, args.solver, args.solver_bin, args.timeout_ms)
        if args.command == "run":
            return cmd_run(args.file, args.entry, args.horizon, args.trace, args.seed)
        if args.command == "smt":
            return cmd_smt(args.file, args.out)
        return cmd_monitor(args.file, args.type_name, args.trace, args.channel)
    except t.TillstError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # reading, substituting and printing predicates, expressions and
        # alpha-equivalence still recurse once per level of nesting; the
        # evaluator, the solver and the retyping relations walk theirs in loops
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
