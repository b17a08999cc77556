"""Compare what two source trees of tillst print, byte for byte.

Usage: python tests/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the ``tillst`` package, such as the
``src`` directory of a checkout.  The inputs are the corpus files of
CHANGE_SRC, the seed-1 programs and traces of the fanout, chain,
disjunctive and corpus workloads of ``perfbench/workloads.py``, and that
file's fanout programs, plain and mutated, at N=256 and N=1024 and its
chain program at n=300, the sizes the scaling baselines are measured at.
Two relays run forwarders through the runtime's step path
(``relay_program``, with 3 and 200 relays): spawned processes that each
forward the one before, and a spawned relay that forwards a channel
created after it was spawned.  Two systems spawn 3 and 200 live
providers in turn (``spawn_program``): they check that the fresh names
are unchanged now that a spawn re-reads no other leaf's steps.  Two
systems spawn a process with one channel argument too few and one too
many (``spawn_arity_program``), and two call ``extern fn f(int) -> int``
with two arguments and with a bool (``extern_call_program``): ``check``
rejects each, and ``run``, which does not check, exits 2 on each in the
checker's words.  A wide program branches at every exchange
(``branch_program(64)``): its hub Cases on an internal choice each time
and keeps the sensors it has not closed in both branches, and its mutant
closes a sensor a tick late inside the right branch of exchange 40.
Deep and disjunctive inputs probe the solver's limits: the
chain programs at n=700, 750 and 1000 and a forward of a 2000-stage
chain type; a chain at n=120 whose middle stage's window is disjunctive,
with the mutant of it whose stage 110 opens late; the disjunctive
program whose window excludes 64 instants, with the mutant whose
provider no longer excludes the first; and a chain whose every window is
a choice of two instants, at 13 stages, at 14, the largest whose search
fits the solver's budget, and at 15, the first that exits 2 on it.  Two
providers probe how a run finds a window's next instant: one whose
window opens at t0+900000, and one whose window's first disjunct opens
after its second, which also runs with ``--horizon 50``.  The corpus
writes no operator in its ``$…$`` expressions, so a provider produces
values built with every operator at every binding level, negative
literals, parentheses, ``if`` and ``==``/``!=`` on bools
(``expr_program``), and nine mutants of it each add a value with an
operand of the wrong sort for one operator (``WRONG_OPERANDS``): ``check``
rejects each, and ``run``, which does not check, exits 2 on each, in
the checker's words for ``==`` and ``!=`` of values of two sorts.
Malformed inputs come from each corpus file too: the file cut at a
quarter, half and three quarters of its length, the file with ``²`` and
with a lone ``/`` spliced into its first ``fn`` body, and the file with
``²`` spliced into its last line.  So that error positions are compared deep
into large files, the seed-1 ``chain150.tsl`` and ``fanout96.tsl`` are
also cut at 90% and 99% of their length.  A copy of each corpus file
with ``\r\n`` line ends runs every command, and a file that ends in a
``//`` comment with no newline, after the first half of the first
corpus file, probes where the end of input is reported.  Each program's systems
and types are the ones CHANGE_SRC's parser reads from it; a program that
fails to parse has none, so only its ``check`` and ``smt`` run, and
their exit-2 ``path:line:col:`` lines are compared byte for byte.  For
every program the two trees are compared on:

- ``check``: stdout, stderr and exit code;
- ``run`` of every system: stdout, stderr, exit code and the trace file,
  and stdout, stderr and exit code under the program's horizon if it has one.
  Before each run the trace path already holds ``STALE``, a text longer
  than any trace, so ``run`` always writes over an existing file and the
  trace it leaves must be exactly what it wrote, however it overwrites;
- ``replay``'s verdict on the step sequence of that run, made in-process
  with the seed ``run`` uses (or the error that stops the run or replay);
- ``replay``'s verdict on two sequences built from that one, which hold
  the configurations it records: ``seq_extend_to`` it 5 instants past its
  end (``... extended``), and ``traj_concat`` of the ``traj_partition`` of
  its trajectory to its end + 1 at its middle instant (``... partitioned``).
  Both trees take these combinators from ``tests/trajectory.py``, beside
  this script, so they build the sequences with the same code, each over
  its own runtime;
- ``smt``: stdout, stderr, exit code, every script, and ``index.json``
  without the ``ms`` field each query's time is recorded in;
- ``monitor`` of every type against each run trace, without ``--channel``
  (a trace that names several channels is refused) and with each of up to
  four of its channels, and the monitor operations of the workloads
  themselves;
- for each corpus file, the same ``monitor`` commands against five copies
  of each run trace: its last event dropped (``.dropped``), its last event
  one tick earlier (``.early``), trailing data after its last object
  (``.trailing``), the first line that names another channel than the
  first in sorted order cut in the middle, so that the first channel's
  monitor does not watch it (``.cut``; a trace of one channel has none),
  and ``\r\n`` line ends with blank lines around every line (``.crlf``).
  The trailing and cut copies exit 2, and their ``error:`` lines, which
  name the bad line, are compared byte for byte;
- for each corpus file, the ``repr`` of the program ``parse_program``
  reads from it (``repr FILE``) and the ``repr`` of the report list
  ``check_program`` makes of that program (``repr FILE reports``).

Each tree runs in a process of its own, which calls ``tillst.cli.main``
once per command, and ``tillst.runtime.run_scheduler`` and ``replay`` once
per system.  An output whose JSON text is longer than 1 KiB (``LONG``),
such as most ``smt`` scripts, a large program's ``smt`` index and most
traces, is recorded as that text's SHA-256 and length, so each tree's
``outputs.json`` stays near 8 MB and comparing the two holds little in
memory; equal outputs still compare equal, and a differing one is still
listed by its key.  (Most of the bytes are the thousands of scripts of the
large fanout programs, each shorter than 64 KiB, so a 64 KiB cut-off still
left 350 MB per tree.)  Exits 0 when every
output is identical; otherwise lists the differing outputs and exits 1.
Not collected by pytest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1
MONITORED_CHANNELS = 4
STALE = ("~" * 63 + "\n") * 8192  # 512 KiB: each run's trace file holds this first
LONG = 1024  # an output whose JSON text is longer is recorded by its digest


class Outputs(dict):
    """Outputs by key.  A value whose JSON text is longer than ``LONG`` is
    kept as that text's SHA-256 and length."""

    def __setitem__(self, key: str, value) -> None:
        text = json.dumps(value)
        if len(text) > LONG:
            value = {"sha256": hashlib.sha256(text.encode()).hexdigest(), "length": len(text)}
        super().__setitem__(key, value)


def neq_chain(n: int, m: int, late: int = -1) -> str:
    """``chain_program(n, range(n), late)`` whose stage m's window, in the
    type and in the term, also excludes t0+m.  That disjunction's first
    disjunct, s_m < t0+m, contradicts the stage's equality, so every later
    query's search backtracks past it."""
    from perfbench.workloads import chain_program

    eq = f"Eq<s{m}, Shift<t0, {m + 1}>>"
    return chain_program(n, list(range(n)), late).replace(
        eq, f"And<{eq}, Neq<s{m}, Shift<t0, {m}>>>")


def or_chain(n: int) -> str:
    """n Produce stages, stage i one or two ticks after stage i-1, and its
    provider with the same windows.  Checking stage i's window searches
    the 2^i choices of the stages before it."""
    def window(i):
        prev = f"s{i - 1}" if i else "t0"
        return f"Or<Eq<s{i}, Shift<{prev}, 1>>, Eq<s{i}, Shift<{prev}, 2>>>"
    ty = "".join(f"Produce<int, s{i} where {window(i)}, " for i in range(n))
    body = "".join(f"    Prod<s{i} where {window(i)}> $ {i} $;\n" for i in range(n))
    close = f"z where Geq<z, s{n - 1}>"
    return (f"type ORS = {ty}Unit<{close}>{'>' * n};\n\nfn ors() -> ORS {{\n{body}"
            f"    Close<{close}>\n}}\n\nsystem go = ors() @ t0;\n")


def provider_program(window: str) -> str:
    """A system ``st`` whose one provider closes at the first instant that
    ``window``, over the binder z, admits."""
    return (f"fn p() -> Unit<z where {window}> {{ Close<z where {window}> }}\n"
            "system st = p() @ t0;\n")


def relay_program(n: int) -> str:
    """A system ``go`` whose forwarders are made by spawns: ``src`` closes
    at t0+5, n spawned ``relay`` processes each forward the one before, and
    a spawned ``late_relay`` receives a channel and forwards it.  That
    channel's provider, a forward of the last relay, is created by the
    ``App`` that sends it, after ``late_relay`` was spawned."""
    spawns = ["Spawn<t0>(src) { a0 =>"]
    spawns += [f"Spawn<t0>(relay, a{i}) {{ a{i + 1} =>" for i in range(n)]
    body = "\n    ".join(spawns + [
        "Spawn<t0>(late_relay) { r =>",
        f"App<t0>(r <= {{ Fwd<t0>(a{n}) }});",
        "Wait<Shift<t0, 5>>(r);",
        "Close<z where Eq<z, Shift<t0, 5>>>"])
    return ("type U = Unit<t where Eq<t, Shift<t0, 5>>>\n"
            "type R = Lolli<t1 where Eq<t1, t0>, U, U>\n\n"
            "fn src() -> U { Close<t where Eq<t, Shift<t0, 5>>> }\n\n"
            "fn relay(x: U) -> U { Fwd<t0>(x) }\n\n"
            "fn late_relay() -> R { Lam<t1 where Eq<t1, t0>> { x => Fwd<t0>(x) } }\n\n"
            f"fn main() -> U {{\n    {body}\n    {'}' * (n + 2)}\n}}\n\n"
            "system go = main() @ t0;\n")


def spawn_program(n: int) -> str:
    """A system ``go`` that spawns n providers in turn, each closing at
    t0+5, and then waits on each: every spawn takes a fresh name while the
    providers spawned before it are still live."""
    body = "\n    ".join([f"Spawn<t0>(src) {{ a{i} =>" for i in range(n)]
                         + [f"Wait<Shift<t0, 5>>(a{i});" for i in range(n)]
                         + ["Close<z where Eq<z, Shift<t0, 5>>>"])
    return ("type U = Unit<t where Eq<t, Shift<t0, 5>>>\n\n"
            "fn src() -> U { Close<t where Eq<t, Shift<t0, 5>>> }\n\n"
            f"fn main() -> U {{\n    {body}\n    {'}' * n}\n}}\n\n"
            "system go = main() @ t0;\n")


def spawn_arity_program(params: str, args: str) -> str:
    """A system ``go`` that spawns two providers, ``a`` and ``b``, and then
    ``child(params)`` on the channels ``args``."""
    return ("type U = Unit<t where Eq<t, t0>>\n"
            "fn src() -> U { Close<t where Eq<t, t0>> }\n"
            f"fn child({params}) -> U {{ Close<t where Eq<t, t0>> }}\n"
            "fn main() -> U {\n"
            "    Spawn<t0>(src) { a => Spawn<t0>(src) { b =>\n"
            f"    Spawn<t0>(child, {args}) {{ c => Wait<t0>(c); Close<z where Eq<z, t0>> }} }} }}\n"
            "}\nsystem go = main() @ t0;\n")


def extern_call_program(call: str) -> str:
    """A system ``go`` that produces ``call`` of ``extern fn f(int) -> int``."""
    return ("extern fn f(int) -> int;\n"
            "fn p() -> Produce<int, t where Eq<t, t0>, Unit<u where Eq<u, t0>>> {\n"
            f"    Prod<t where Eq<t, t0>> $ {call} $;\n    Close<u where Eq<u, t0>>\n}}\n"
            "system go = p() @ t0;\n")


def branch_program(n: int, late: int = -1) -> str:
    """A system ``main`` whose hub holds a channel ``c`` of n nested internal
    choices and n sensor channels x0..x{n-1}, each closed at t0.  At the
    i-th exchange the hub Cases on ``c``: the left branch closes ``c`` and
    xi..x{n-1}, the right branch closes xi and goes on, so the sensors not
    yet closed stay in Delta in both branches.  The chooser picks R each
    time.  In the right branch of exchange ``late`` (if any), xi is closed
    one tick after its window."""
    close = "Unit<e where Eq<e, t0>>"
    ty = close
    for i in reversed(range(n)):
        ty = f"InChoice<b{i} where Eq<b{i}, t0>, Unit<l{i} where Eq<l{i}, t0>>, {ty}>"
    done = "Close<z where Eq<z, t0>>"
    body = f"Wait<t0>(c); {done}"
    for i in reversed(range(n)):
        drain = " ".join(f"Wait<t0>(x{j});" for j in range(i, n))
        at = "Shift<t0, 1>" if i == late else "t0"
        body = (f"Case<t0>(c) {{ L => Wait<t0>(c); {drain} {done} }}\n"
                f"    {{ R => Wait<{at}>(x{i}); {body} }}")
    moves = " ".join(f"S{i} --[!R]--> S{i + 1};" for i in range(n))
    states = " ".join(f"state S{i}{' init' if i == 0 else ''};" for i in range(n + 1))
    params = ", ".join(["c: C"] + [f"x{i}: U" for i in range(n)])
    binds = ", ".join(["c = chooser as ch"] + [f"x{i} = sensor as s{i}" for i in range(n)])
    return (f"type C = {ty}\ntype U = Unit<u where Eq<u, t0>>\n\n"
            f"automaton chooser {{ {states} {moves} S{n} --[!cls]--> accept; }}\n"
            "automaton sensor { state S0 init; S0 --[!cls]--> accept; }\n\n"
            f"fn hub({params}) -> Unit<z where Eq<z, t0>> {{\n    {body}\n}}\n\n"
            f"system main = hub({binds}) @ t0;\n")


# (sort, expression) of each value ``expr_program`` produces: every operator
# at every binding level, left association, negative literals, parentheses,
# ``if``, and ``==``/``!=`` on bools
EXPRESSIONS = [
    ("int", "1 + 2 * 3 - -4"), ("int", "(1 + 2) * (3 - -4) * -2"), ("int", "10 - 3 - 2 + 1"),
    ("int", "2 * 3 * -4 - 5 * 6"), ("bool", "1 + 2 < 2 * 2"), ("bool", "3 <= 3 - 1"),
    ("bool", "4 > -5 * 2"), ("bool", "4 >= (5)"), ("bool", "(1 < 2) == true"),
    ("bool", "(2 * 3 == 6) != (1 > 2)"), ("bool", "-1 != -1"),
    ("int", "if 1 == 1 then 2 * -3 else 4"),
    ("bool", "if true != false then 1 + 1 == 2 else false"),
]
# per operator, a value of its result sort with an operand of the wrong sort
WRONG_OPERANDS = {"plus": ("int", "true + 1"), "minus": ("int", "1 - (2 < 3)"),
                  "times": ("int", "false * false"), "lt": ("bool", "true < false"),
                  "le": ("bool", "1 <= true"), "gt": ("bool", "(1 == 1) > 0"),
                  "ge": ("bool", "false >= false"), "eq": ("bool", "1 == true"),
                  "ne": ("bool", "false != 0")}


def expr_program(wrong: str | None = None) -> str:
    """A system ``go`` whose provider produces the values of
    ``EXPRESSIONS`` one tick apart; with ``wrong`` a key of
    ``WRONG_OPERANDS``, that value comes before the fourth."""
    values = list(EXPRESSIONS)
    if wrong is not None:
        values.insert(3, WRONG_OPERANDS[wrong])
    stage = "v{0} where Eq<v{0}, Shift<t0, {0}>>"
    ty = "".join(f"Produce<{sort}, {stage.format(i)}, " for i, (sort, _) in enumerate(values))
    body = "".join(f"    Prod<{stage.format(i)}> $ {e} $;\n" for i, (_, e) in enumerate(values))
    close = f"z where Eq<z, Shift<t0, {len(values)}>>"
    return (f"type EXPRS = {ty}Unit<{close}>{'>' * len(values)};\n\n"
            f"fn exprs() -> EXPRS {{\n{body}    Close<{close}>\n}}\n\n"
            "system go = exprs() @ t0;\n")


LATE_OR = "Or<Geq<z, Shift<t0, 400>>, And<Geq<z, Shift<t0, 60>>, Leq<z, Shift<t0, 70>>>>"
HORIZONS = {"late_or.tsl": 50}  # programs also run with --horizon


def first_token(text: str, line: int) -> int:
    """The offset of the first non-blank character of the line at ``line``."""
    return line + len(text[line:]) - len(text[line:].lstrip(" \t"))


def malformed(name: str, text: str) -> dict:
    """Copies of a corpus file cut at a quarter, half and three quarters of
    its length, with ``²`` and with a lone ``/`` spliced in before the first
    token of its first ``fn`` body, with ``²`` spliced in before the first
    token of its last line, and with ``\r\n`` line ends."""
    stem = name[:-4]
    at = first_token(text, text.index("\n", text.index("\nfn ") + 1) + 1)
    last = first_token(text, text.rstrip("\n").rfind("\n") + 1)
    copies = {f"{stem}_cut{k}.tsl": text[:len(text) * k // 4] for k in (1, 2, 3)}
    copies[f"{stem}_sup.tsl"] = text[:at] + "²" + text[at:]
    copies[f"{stem}_slash.tsl"] = text[:at] + "/" + text[at:]
    copies[f"{stem}_suplast.tsl"] = text[:last] + "²" + text[last:]
    copies[f"{stem}_crlf.tsl"] = text.replace("\n", "\r\n")
    return copies


def trace_mutants(lines: list, named: list) -> dict:
    """Copies of a run trace, given as its lines and the channel each names:
    its last event dropped, its last event one tick earlier, trailing data
    after its last object, the first line on another channel than the least
    it names cut in the middle (when there is one), and ``\r\n`` line ends
    with blank lines."""
    last = json.loads(lines[-1])
    mutants = {"dropped": lines[:-1],
               "early": lines[:-1] + [json.dumps(dict(last, time=last["time"] - 1))],
               "trailing": lines[:-1] + [lines[-1] + " x"]}
    off = next((n for n, channel in enumerate(named) if channel != min(named)), None)
    if off is not None:
        mutants["cut"] = lines[:off] + [lines[off][:len(lines[off]) // 2]] + lines[off + 1:]
    mutants = {tag: "".join(line + "\n" for line in mutant) for tag, mutant in mutants.items()}
    mutants["crlf"] = "\r\n" + "".join(line + "\r\n\r\n" for line in lines)
    return mutants


def plan(src: Path, inputs: Path) -> None:
    """Write every input file and ``plan.json`` into ``inputs``.  The
    systems and types of each program are read with the parser of ``src``."""
    sys.path[:0] = [str(HERE.parent), str(src)]
    from perfbench.workloads import (chain_program, chain_type, disjunctive_program,
                                     fanout_program, generate)
    from tillst.parser import ParseError, parse_program

    corpus_dir = src / "tillst" / "corpus"
    files = {p.name: p.read_text(encoding="utf-8") for p in sorted(corpus_dir.glob("*.tsl"))}
    first = next(iter(files.values()))
    for name, text in list(files.items()):
        files.update(malformed(name, text))
    files["eof_comment.tsl"] = first[:len(first) // 2] + "\n// cut here"
    monitors = []
    for name in ("fanout", "chain", "disjunctive", "corpus"):
        w = generate(name, SEED, corpus_dir)
        files.update(w.files)
        monitors += [(op.program, op.type_name, op.trace, op.channel)
                     for op in w.ops if op.kind == "monitor"]
    for name in ("chain150.tsl", "fanout96.tsl"):
        text = files[name]
        for percent in (90, 99):
            files[f"{name[:-4]}_cut{percent}.tsl"] = text[:len(text) * percent // 100]
    for n in (256, 1024):
        files[f"fanout{n}.tsl"] = fanout_program(n, False)
        files[f"fanout{n}_mut.tsl"] = fanout_program(n, True)
    for n in (300, 700, 750, 1000):
        files[f"chain{n}.tsl"] = chain_program(n, list(range(n)))
    files["relay2000.tsl"] = (f"type C = {chain_type(2000)};\n"
                              "fn relay(x: C) -> C { Fwd<t0>(x) }\n")
    files["chain120_neq.tsl"] = neq_chain(120, 60)
    files["chain120_neq_late.tsl"] = neq_chain(120, 60, late=110)
    excluded = list(range(5, 69))
    files["win64.tsl"] = disjunctive_program(5, excluded, excluded)
    files["win64_mut.tsl"] = disjunctive_program(5, excluded, excluded[1:])
    for n in (13, 14, 15):
        files[f"or{n}.tsl"] = or_chain(n)
    files["far_window.tsl"] = provider_program("Geq<z, Shift<t0, 900000>>")
    files["late_or.tsl"] = provider_program(LATE_OR)
    files["branch64.tsl"] = branch_program(64)
    files["branch64_mut.tsl"] = branch_program(64, late=40)
    files["exprs.tsl"] = expr_program()
    for wrong in WRONG_OPERANDS:
        files[f"exprs_{wrong}.tsl"] = expr_program(wrong)
    for n in (3, 200):
        files[f"relay{n}.tsl"] = relay_program(n)
        files[f"spawn{n}.tsl"] = spawn_program(n)
    files["spawn_few.tsl"] = spawn_arity_program("x: U, y: U", "a")
    files["spawn_many.tsl"] = spawn_arity_program("x: U", "a, b")
    files["extern_count.tsl"] = extern_call_program("f(1, 2)")
    files["extern_sort.tsl"] = extern_call_program("f(true)")
    for name, text in files.items():
        (inputs / name).write_text(text, encoding="utf-8")
    programs = {}
    for name, text in sorted(files.items()):
        if name.endswith(".tsl"):
            try:
                prog = parse_program(text)
            except ParseError:
                programs[name] = {"systems": [], "types": []}
                continue
            programs[name] = {"systems": [d.name for d in prog.systems],
                              "types": [d.name for d in prog.types]}
    (inputs / "plan.json").write_text(json.dumps({"programs": programs, "monitors": monitors,
                                                  "corpus": sorted(p.name for p in
                                                                   corpus_dir.glob("*.tsl"))}))


def collect(inputs: str) -> None:
    """Run every planned command with the ``tillst`` on ``sys.path`` and
    write the outputs, keyed by command, to ``outputs.json``.  Files are
    written below the working directory, under the same relative names for
    both trees, since ``smt`` prints the directory it writes to."""
    from tillst.cli import build_system, main
    from tillst.parser import ParseError, parse_program
    from tillst.runtime import ExternEnv, replay, run_scheduler, seq_start
    from tillst.temporal import TillstError
    from tillst.typecheck import check_program
    from trajectory import (seq_end, seq_extend_to, traj_concat, traj_from_sigma,
                            traj_partition)

    inputs, out = Path(inputs), Path()
    spec = json.loads((inputs / "plan.json").read_text())
    outputs = Outputs()

    def call(key: str, *argv: str) -> None:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        outputs[key] = {"stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                        "exit": code}

    def replayed(path: str, system: str) -> list:
        """Whether the step sequence of the system's default run replays,
        extended 5 instants past its end, and rebuilt from its trajectory
        partitioned at its middle instant."""
        try:
            prog = parse_program(Path(path).read_text(encoding="utf-8"))
            omega, start, defs = build_system(prog, system)
            sigma = run_scheduler(omega, start, env=ExternEnv(prog), defs=defs).sigma
            first, end = seq_start(sigma)[0], seq_end(sigma)[0]
            halves = traj_partition(traj_from_sigma(sigma, end + 1), (first + end) // 2)
            return [replay(seq, ExternEnv(prog), defs)
                    for seq in (sigma, seq_extend_to(sigma, end + 5), traj_concat(*halves).sigma)]
        except (ParseError, TillstError, RecursionError) as exc:
            return 3 * [f"error: {type(exc).__name__}: {exc}"]

    def monitor(program: str, type_name: str, trace: Path, channel: str | None) -> None:
        given = [] if channel is None else ["--channel", channel]
        call(" ".join(["monitor", program, type_name, trace.name, *given[1:]]), "monitor",
             str(inputs / program), "--type", type_name, "--trace", str(trace), *given)

    traces = out / "traces"
    traces.mkdir()
    for program, decls in spec["programs"].items():
        path = str(inputs / program)
        call(f"check {program}", "check", path)
        queries = out / "smt" / program
        call(f"smt {program}", "smt", path, "--out", str(queries))
        for script in sorted(queries.glob("*.smt2")):
            outputs[f"smt {program} {script.name}"] = script.read_text(encoding="utf-8")
        if (queries / "index.json").exists():
            index = json.loads((queries / "index.json").read_text(encoding="utf-8"))
            outputs[f"smt {program} index.json"] = [
                {k: v for k, v in entry.items() if k != "ms"} for entry in index]
        for system in decls["systems"]:
            trace = traces / f"{program[:-4]}.{system}.out.jsonl"
            trace.write_text(STALE, encoding="utf-8")
            call(f"run {program} {system}", "run", path, "--entry", system,
                 "--trace", str(trace))
            if program in HORIZONS:
                horizon = str(HORIZONS[program])
                call(f"run {program} {system} --horizon {horizon}", "run", path,
                     "--entry", system, "--horizon", horizon)
            key = f"replay {program} {system}"
            outputs[key], outputs[f"{key} extended"], outputs[f"{key} partitioned"] = \
                replayed(path, system)
            text = trace.read_text(encoding="utf-8")
            if text == STALE:  # the run stopped before writing its trace
                continue
            outputs[f"trace {trace.name}"] = text
            if text.endswith(STALE[-64:]):  # the write left STALE's tail behind
                continue
            if len(text) >= len(STALE):
                raise SystemExit(f"{trace.name} is no shorter than STALE; lengthen STALE")
            lines = text.splitlines()
            named = [json.loads(line)["channel"] for line in lines]
            channels = sorted(set(named))
            watched = [trace]
            if program in spec["corpus"] and lines:
                for tag, mutant in trace_mutants(lines, named).items():
                    watched.append(traces / f"{program[:-4]}.{system}.{tag}.jsonl")
                    watched[-1].write_text(mutant, encoding="utf-8")
            for watch in watched:
                for channel in [None, *channels[:MONITORED_CHANNELS]]:
                    for type_name in decls["types"]:
                        monitor(program, type_name, watch, channel)
    for program, type_name, trace, channel in spec["monitors"]:
        given = inputs / trace
        monitor(program, type_name, given if given.exists() else traces / trace, channel)
    for program in spec["corpus"]:
        try:
            prog = parse_program((inputs / program).read_text(encoding="utf-8"))
            outputs[f"repr {program}"] = repr(prog)
            outputs[f"repr {program} reports"] = repr(check_program(prog))
        except (ParseError, TillstError) as exc:
            outputs[f"repr {program}"] = f"error: {type(exc).__name__}: {exc}"
    (out / "outputs.json").write_text(json.dumps(outputs), encoding="utf-8")


def run_tree(src: str, inputs: Path, out: Path) -> dict:
    out.mkdir()
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; "
            "import compare_outputs; compare_outputs.collect(sys.argv[3])")
    subprocess.run([sys.executable, "-c", code, str(Path(src).resolve()), str(HERE),
                    str(inputs)], check=True, cwd=out)
    return json.loads((out / "outputs.json").read_text(encoding="utf-8"))


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent_src, change_src = argv
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        inputs = tmp / "inputs"
        inputs.mkdir()
        plan(Path(change_src).resolve(), inputs)
        parent = run_tree(parent_src, inputs, tmp / "parent")
        change = run_tree(change_src, inputs, tmp / "change")
    keys = parent.keys() | change.keys()
    differ = sorted(key for key in keys if parent.get(key) != change.get(key))
    for key in differ:
        print(f"differs: {key}")
    programs = sum(key.startswith("check ") for key in keys)
    print(f"{len(keys) - len(differ)} of {len(keys)} outputs identical over {programs} programs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
