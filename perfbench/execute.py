"""Running benchmark operations and judging their verdicts.

An operation is judged right when its exit code and verdict lines match the
answer its generator states, wrong when they differ, and failed when it
raised, exited 2 (usage, parse or I/O error) or passed ``OP_LIMIT_S``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import re
import resource
import signal
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

# An operation running longer than this is stopped and counts as failed.
OP_LIMIT_S = 30

# What a decided operation prints, per kind: anything else cannot be
# compared with a known answer and stops the benchmark.
VERDICT_LINE = {
    "check": re.compile(r"(ACCEPT|REJECT) \S+"),
    "run": re.compile(r"done at t0\+\d+ \(\d+ events\)$|(timing_violation|deadlock|horizon): "),
    "replay": re.compile(r"replay (ok|failed)$"),
    "monitor": re.compile(r"conforms: \d+ events on |violation at event \d+: "),
}


class OpTimeout(BaseException):
    """Raised inside an operation that passed the per-operation limit."""


class Incomparable(Exception):
    """A decided operation printed something that is not a verdict."""


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise OpTimeout(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    status: str  # right | wrong | failed
    seconds: float
    detail: str


def failure(exc: BaseException, seconds: float) -> Outcome:
    return Outcome("failed", seconds, f"{type(exc).__name__}: {exc}"[:200])


def judge(op: workloads.Op, code, lines: list, seconds: float, stderr: str = "") -> Outcome:
    """Compare a finished operation's exit code and verdict lines with the
    known answer.  Exit 2 (usage, parse or I/O error) is a failure."""
    if code not in (0, 1):
        return Outcome("failed", seconds, f"exit {code}: {stderr.strip()[:200]}")
    pattern = VERDICT_LINE[op.kind]
    if len(lines) != len(op.expect.lines) or not all(pattern.match(x) for x in lines):
        raise Incomparable(f"{op.label}: exit {code}, output {lines!r}")
    right = code == op.expect.exit and all(
        line == want or line.startswith((want + ":", want + " "))
        for line, want in zip(lines, op.expect.lines))
    return Outcome("right" if right else "wrong", seconds, " | ".join(lines)[:200])


class Untraced:
    """Runs operations the way a user does: through ``tillst.cli.main``."""

    def __init__(self, workdir: Path):
        from tillst import cli

        self.cli = cli
        self.workdir = workdir
        self.sigmas = {}

    def argv(self, op: workloads.Op) -> list:
        path = str(self.workdir / op.program)
        if op.kind == "check":
            return ["check", path]
        if op.kind == "run":
            return ["run", path, "--entry", op.entry, "--trace", str(self.workdir / op.trace)]
        return ["monitor", path, "--type", op.type_name,
                "--trace", str(self.workdir / op.trace), "--channel", op.channel]

    def __call__(self, op: workloads.Op) -> Outcome:
        start, stderr = time.perf_counter(), ""
        try:
            with time_limit(OP_LIMIT_S):
                if op.kind == "replay":
                    code, lines, seconds = replay(self.sigmas, self.workdir, op)
                else:
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        start = time.perf_counter()
                        code = self.cli.main(self.argv(op))
                        seconds = time.perf_counter() - start
                    lines, stderr = out.getvalue().splitlines(), err.getvalue()
        except (Exception, SystemExit, OpTimeout) as exc:
            return failure(exc, time.perf_counter() - start)
        return judge(op, code, lines, seconds, stderr)


def replay(sigmas: dict, workdir: Path, op: workloads.Op) -> tuple:
    """Replay the step sequence of the op's run; returns (exit code, verdict
    lines, seconds spent in ``replay``).  The CLI does not hand the sequence
    out, so the system is first built and run untimed as ``tillst run``
    does, once per process: runs are deterministic."""
    from tillst import cli, parser, runtime as rt

    key = (op.program, op.entry)
    if key not in sigmas:
        prog = parser.parse_program((workdir / op.program).read_text(encoding="utf-8"))
        omega, start, defs = cli.build_system(prog, op.entry)
        env = rt.ExternEnv(prog, seed=0)
        sigmas[key] = rt.run_scheduler(omega, start, env=env, defs=defs).sigma, env, defs
    sigma, env, defs = sigmas[key]
    start = time.perf_counter()
    ok = rt.replay(sigma, env, defs)
    seconds = time.perf_counter() - start
    return 0, ["replay ok" if ok else "replay failed"], seconds


# ---------------------------------------------------------------------------
# Verdict bookkeeping


class Verdicts:
    """The worst outcome of every operation over all its executions."""

    RANK = {"right": 0, "wrong": 1, "failed": 2}

    def __init__(self, ops: list):
        self.ops = ops
        self.worst = {}

    def record(self, index: int, outcome: Outcome) -> None:
        old = self.worst.get(index)
        if old is None or self.RANK[outcome.status] > self.RANK[old.status]:
            self.worst[index] = outcome

    def count(self, status: str) -> int:
        return sum(o.status == status for o in self.worst.values())

    @property
    def correct(self) -> bool:
        """Every timed operation decided, and right unless it is a listed
        known defect."""
        for i, op in enumerate(self.ops):
            got = self.worst[i].status
            if not op.probe and (got == "failed" or (got == "wrong" and not op.known_defect)):
                return False
        return True

    def listing(self, status: str) -> list:
        return [f"{self.ops[i].label}: {o.detail}" for i, o in sorted(self.worst.items())
                if o.status == status]


def run_probes(workload: workloads.Workload, execute, verdicts: Verdicts) -> None:
    for i, op in enumerate(workload.ops):
        if op.probe:
            verdicts.record(i, execute(op))


def one_pass(workload: workloads.Workload, execute, verdicts: Verdicts, kind=None) -> dict:
    """Every timed operation (of ``kind``, if given) once; returns the
    seconds spent per kind."""
    sums = {}
    for i, op in enumerate(workload.ops):
        if not op.probe and kind in (None, op.kind):
            outcome = execute(op)
            verdicts.record(i, outcome)
            sums[op.kind] = sums.get(op.kind, 0.0) + outcome.seconds
    return sums


# Runs come before monitors, which read the traces the runs write.
KINDS = ("check", "run", "replay", "monitor")
# In each round every kind repeats its pass until it has run this long.
ROUND_KIND_S = 1.0


def run_passes(workload: workloads.Workload, execute, seconds: float,
               verdicts: Verdicts) -> tuple:
    """Rounds until ``seconds`` have gone.  In a round, each kind of
    operation makes passes over the timed set (a pass runs every operation
    of that kind once) until ``ROUND_KIND_S`` have gone, so cheap kinds get
    as many samples as the machine's noise needs.  Returns the seconds of
    every pass, per kind, and the process's peak RSS in KiB after the first
    round, when every operation has run once; later rounds only add heap
    left over from garbage collection timing."""
    passes = {kind: [] for kind in KINDS}
    peak_kib = 0
    began = time.perf_counter()
    while not peak_kib or time.perf_counter() - began < seconds:
        gc.collect()
        for kind in KINDS:
            start = time.perf_counter()
            while True:
                passes[kind].append(one_pass(workload, execute, verdicts, kind)[kind])
                if time.perf_counter() - start >= ROUND_KIND_S:
                    break
        peak_kib = peak_kib or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return passes, peak_kib
