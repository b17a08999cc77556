"""Per-layer metrics: the traced run of ``perfbench/run.py --trace 1``.

Each operation is carried out as ``tillst.cli`` carries it out, but through
the public function of every module, called from here and timed around the
call: ``parser.parse_program`` (and ``tokenize`` for the token count),
``syntax.expand_type_refs``, ``cli.build_system``, ``typecheck.check_program``
with a solver that times each ``holds`` query, ``runtime.run_scheduler``,
``runtime.replay``, ``runtime.trace_to_jsonl``/``trace_from_jsonl`` and
``automata.monitor_trace``.  Counts are exact; times are summed over a pass
and reported as the median over passes.  Untraced and traced passes
alternate: ``tracing.pass_s`` is the traced pass time, the base of every
layer's share, and ``tracing.overhead`` is that time over the untraced
pass time.

Which end-to-end metric each layer metric should move, and on which
workload:

- parser.*: check_s and monitor_s on corpus and chain (the monitor parses
  the deep type again on every call)
- syntax.expand_s: check_s and monitor_s on chain
- cli.build_system_s: run_s on fanout
- typecheck.*: check_s on chain and corpus
- temporal.*: check_s on chain and disjunctive; decided_share on disjunctive
- runtime.run_s and the step counts: run_s on fanout and chain
- runtime.replay_s: replay_s on fanout and chain
- runtime.trace_io_s, runtime.trace_bytes: run_s and monitor_s on chain
- automata.*: monitor_s on chain
- *_exponent: the growth behind check_s and run_s on chain and fanout
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import execute

PER_LAYER = (
    ("parser.parse_s", "s"), ("parser.tokens", "count"), ("parser.tokens_per_s", "1/s"),
    ("syntax.expand_s", "s"), ("cli.build_system_s", "s"),
    ("typecheck.check_s", "s"), ("typecheck.self_s", "s"),
    ("typecheck.rejected_decls", "count"),
    ("temporal.queries", "count"), ("temporal.solve_s", "s"), ("temporal.max_query_s", "s"),
    ("temporal.hyps_per_query", "count"),
    ("runtime.run_s", "s"), ("runtime.steps", "count"), ("runtime.time_jumps", "count"),
    ("runtime.events", "count"), ("runtime.peak_leaves", "count"),
    ("runtime.ms_per_event", "ms"), ("runtime.replay_s", "s"),
    ("runtime.trace_io_s", "s"), ("runtime.trace_bytes", "bytes"),
    ("automata.monitor_s", "s"), ("automata.monitor_events", "count"),
    ("typecheck.check_exponent", "log-log"), ("runtime.run_exponent", "log-log"),
    ("runtime.replay_exponent", "log-log"), ("tracing.pass_s", "s"),
    ("tracing.overhead", "ratio"),
)

# layer metric whose growth exponent is reported -> the op kind it times
EXPONENTS = {
    "typecheck.check_exponent": ("typecheck.check_s", "check"),
    "runtime.run_exponent": ("runtime.run_s", "run"),
    "runtime.replay_exponent": ("runtime.replay_s", "replay"),
}


class Layers:
    """One pass's layer totals, also split by size class for the timers
    whose growth is reported."""

    def __init__(self):
        self.total = defaultdict(float)
        self.by_size = defaultdict(float)
        self.peak = defaultdict(float)

    def add(self, name: str, value: float, size=None) -> None:
        self.total[name] += value
        if size is not None:
            self.by_size[name, size] += value

    @contextmanager
    def timed(self, name: str, size=None):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start, size)


def timed_solver(layers: Layers):
    from tillst.typecheck import EntailmentSolver

    class TimedSolver(EntailmentSolver):
        """Times every entailment query the checker asks."""

        def holds(self, g, f, p, location):
            f = tuple(f)
            start = time.perf_counter()
            try:
                return super().holds(g, f, p, location)
            finally:
                spent = time.perf_counter() - start
                layers.add("temporal.solve_s", spent)
                layers.add("temporal.queries", 1)
                layers.add("temporal.hyps", len(f))
                layers.peak["temporal.max_query_s"] = max(
                    layers.peak["temporal.max_query_s"], spent)

    return TimedSolver()


class Traced:
    """Carries out an operation layer by layer; each kind method returns
    (exit code, verdict lines, seconds) as ``tillst.cli`` would."""

    def __init__(self, workdir, sigmas: dict):
        from tillst import automata, cli, parser, runtime, syntax, typecheck

        self.automata, self.cli, self.parser = automata, cli, parser
        self.runtime, self.syntax, self.typecheck = runtime, syntax, typecheck
        self.workdir = workdir
        self.layers = Layers()
        self.sigmas = sigmas

    def __call__(self, op) -> execute.Outcome:
        start = time.perf_counter()
        try:
            with execute.time_limit(execute.OP_LIMIT_S):
                code, lines, seconds = getattr(self, op.kind)(op)
        except self.cli.SystemExit2 as exc:
            return execute.Outcome("failed", time.perf_counter() - start, f"exit 2: {exc}")
        except (Exception, SystemExit, execute.OpTimeout) as exc:
            return execute.failure(exc, time.perf_counter() - start)
        return execute.judge(op, code, lines, seconds)

    def load(self, op):
        L = self.layers
        source = (self.workdir / op.program).read_text(encoding="utf-8")
        L.add("parser.tokens", len(self.parser.tokenize(source)))
        with L.timed("parser.parse_s"):
            return self.parser.parse_program(source)

    def check(self, op):
        L, s = self.layers, self.syntax
        start = time.perf_counter()
        prog = self.load(op)
        with L.timed("syntax.expand_s"):
            for decl in prog.types:
                s.expand_type_refs(prog, decl.body)
            for decl in prog.procs:
                for _, a in decl.params:
                    s.expand_type_refs(prog, a)
                s.expand_type_refs(prog, decl.offered)
        with L.timed("typecheck.check_s", op.size):
            reports = self.typecheck.check_program(prog, timed_solver(L))
        L.add("typecheck.rejected_decls", sum(not r.accepted for r in reports))
        code = 0 if all(r.accepted for r in reports) else 1
        return code, [r.render() for r in reports], time.perf_counter() - start

    def system(self, op):
        prog = self.load(op)
        with self.layers.timed("cli.build_system_s"):
            omega, start, defs = self.cli.build_system(prog, op.entry)
        return prog, omega, start, defs

    def run(self, op):
        L, rt = self.layers, self.runtime
        begin = time.perf_counter()
        prog, omega, start, defs = self.system(op)
        env = rt.ExternEnv(prog, seed=0)
        with L.timed("runtime.run_s", op.size):
            result = rt.run_scheduler(omega, start, env=env, defs=defs)
        self.count_steps(result.sigma)
        L.add("runtime.events", len(result.trace))
        with L.timed("runtime.trace_io_s"):
            text = rt.trace_to_jsonl(result.trace)
        L.add("runtime.trace_bytes", len(text.encode()))
        (self.workdir / op.trace).write_text(text, encoding="utf-8")
        if result.ok:
            line, code = f"done at t0+{result.end_time} ({len(result.trace)} events)", 0
        else:
            detail = result.error.render() if result.error else result.status
            line, code = f"{result.status}: {detail}", 1
        return code, [line], time.perf_counter() - begin

    def count_steps(self, sigma) -> None:
        rt, L = self.runtime, self.layers
        peak = 0
        while not isinstance(sigma, rt.Refl):
            if isinstance(sigma, rt.StepC):
                L.add("runtime.steps", 1)
                peak = max(peak, len(rt.conf_leaves(sigma.before)))
            else:
                L.add("runtime.time_jumps", 1)
            sigma = sigma.rest
        peak = max(peak, len(rt.conf_leaves(sigma.config)))
        L.peak["runtime.peak_leaves"] = max(L.peak["runtime.peak_leaves"], peak)

    def replay(self, op):
        code, lines, seconds = execute.replay(self.sigmas, self.workdir, op)
        self.layers.add("runtime.replay_s", seconds, op.size)
        return code, lines, seconds

    def monitor(self, op):
        L, rt = self.layers, self.runtime
        begin = time.perf_counter()
        prog = self.load(op)
        decl = prog.type_decl(op.type_name)
        if decl is None:
            raise self.cli.SystemExit2(f"no type named {op.type_name}")
        with L.timed("syntax.expand_s"):
            expanded = self.syntax.expand_type_refs(prog, decl.body)
        text = (self.workdir / op.trace).read_text(encoding="utf-8")
        with L.timed("runtime.trace_io_s"):
            events = rt.trace_from_jsonl(text)
        L.add("runtime.trace_bytes", len(text.encode()))
        events = [ev for ev in events
                  if not isinstance(ev.action, rt.SilentA) and ev.channel == op.channel]
        L.add("automata.monitor_events", len(events))
        with L.timed("automata.monitor_s"):
            verdict = self.automata.monitor_trace(self.automata.TraceObligation(expanded), events)
        if isinstance(verdict, self.automata.Conforms):
            line = f"conforms: {len(events)} events on {op.channel} against {op.type_name}"
            return 0, [line], time.perf_counter() - begin
        return 1, [verdict.render()], time.perf_counter() - begin


def layer_values(layers: Layers) -> dict:
    v = dict(layers.total)
    v.update(layers.peak)
    parse_s, run_s = v.get("parser.parse_s", 0.0), v.get("runtime.run_s", 0.0)
    queries, events = v.get("temporal.queries", 0), v.get("runtime.events", 0)
    v["parser.tokens_per_s"] = v.get("parser.tokens", 0) / parse_s if parse_s else 0.0
    v["typecheck.self_s"] = v.get("typecheck.check_s", 0.0) - v.get("temporal.solve_s", 0.0)
    v["temporal.hyps_per_query"] = v.get("temporal.hyps", 0) / queries if queries else 0.0
    v["runtime.ms_per_event"] = 1000 * run_s / events if events else 0.0
    return v


def exponent(workload, by_size: list, timer: str, kind: str) -> float:
    """Log-log slope of a layer's time between the two largest timed sizes
    of the operations it times; 0 when fewer than two sizes exist."""
    sizes = sorted({op.size for op in workload.timed if op.kind == kind and op.size > 0})
    if len(sizes) < 2:
        return 0.0
    a, b = sizes[-2:]
    ta, tb = (statistics.median(p.get((timer, n), 0.0) for p in by_size) for n in (a, b))
    return math.log(tb / ta) / math.log(b / a) if ta > 0 and tb > 0 else 0.0


def measure(workload, workdir, seconds: float, verdicts, probes: bool) -> dict:
    """Alternate untraced and traced passes until ``seconds`` have gone;
    probes, if asked, run once, traced.  Returns the pass times and every
    traced pass's layer values."""
    plain = execute.Untraced(workdir)
    traced = Traced(workdir, plain.sigmas)
    if probes:
        execute.run_probes(workload, traced, verdicts)
    result = {"plain": [], "traced": [], "layers": []}
    began = time.perf_counter()
    while not result["layers"] or time.perf_counter() - began < seconds:
        gc.collect()
        result["plain"].append(sum(execute.one_pass(workload, plain, verdicts).values()))
        gc.collect()
        traced.layers = Layers()
        result["traced"].append(sum(execute.one_pass(workload, traced, verdicts).values()))
        result["layers"].append({
            "values": layer_values(traced.layers),
            "by_size": [[name, size, v] for (name, size), v in traced.layers.by_size.items()],
        })
    return result


def summarize(workload, results: list) -> dict:
    """Per-layer metrics from the workers' traced passes: medians over all
    passes, exponents from the medians per size."""
    plain = [t for r in results for t in r["plain"]]
    traced = [t for r in results for t in r["traced"]]
    passes = [p for r in results for p in r["layers"]]
    by_size = [{(name, size): v for name, size, v in p["by_size"]} for p in passes]
    metrics = {}
    for name, unit in PER_LAYER:
        if name in EXPONENTS:
            value = exponent(workload, by_size, *EXPONENTS[name])
        elif name == "tracing.pass_s":
            value = statistics.median(traced)
        elif name == "tracing.overhead":
            value = statistics.median(traced) / statistics.median(plain)
        else:
            value = statistics.median(p["values"].get(name, 0.0) for p in passes)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
