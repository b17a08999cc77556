"""Seeded workload generators for the tillst benchmark.

Every generator returns a ``Workload``: the program and trace files to write,
and the operations to run on them, each with the answer the generator states
from its own construction.  No expected answer is ever derived from tillst
output; the corpus answers are the hand-written table ``CORPUS_ANSWERS``.

An operation is either in the *timed set* (decided at the time the benchmark
was written, and timed) or a *probe* (a size past today's limits, which only
counts toward the failure and wrong-verdict shares, so that fixing a crash
never reads as a slowdown).

Why each workload, and the change each one should show no change under:

- fanout: the scheduler's all-pairs matching and replay do nearly all the
  work; solver work leaves it unchanged.
- chain: the checker with its solver dominates, and only here do the monitor
  and trace I/O do real work.
- disjunctive: DNF expansion in the solver is the whole cost and the run has
  one event; scheduler work leaves it unchanged.
- corpus: every asymptotic mechanism is bypassed, so per-call constant costs
  show; any asymptotic change leaves it within its bounds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("fanout", "chain", "disjunctive", "corpus")


@dataclass(frozen=True)
class Expect:
    """Known answer: exit code plus one verdict prefix per output line.

    A line matches its prefix when it equals it or continues it with ``:``
    or a space, so diagnostics after the verdict (fresh binder names,
    counterexamples) are not compared.
    """
    exit: int
    lines: tuple


@dataclass
class Op:
    kind: str  # check | run | replay | monitor
    program: str  # program file name
    size: int  # size class, for growth exponents
    expect: Expect
    entry: str = ""  # run / replay: system name
    trace: str = ""  # run: trace written; monitor: trace read
    type_name: str = ""  # monitor
    channel: str = ""  # monitor
    probe: bool = False
    known_defect: str = ""  # why the tool gets this answer wrong today

    @property
    def label(self) -> str:
        extra = self.entry or self.type_name
        parts = [self.kind, self.program] + ([extra] if extra else []) \
            + ([self.trace] if self.kind == "monitor" else [])
        return " ".join(parts)


@dataclass
class Workload:
    name: str
    files: dict = field(default_factory=dict)  # file name -> text
    ops: list = field(default_factory=list)
    sizes: list = field(default_factory=list)

    def write(self, directory: Path) -> None:
        for name, text in self.files.items():
            (directory / name).write_text(text, encoding="utf-8")

    @property
    def timed(self) -> list:
        return [op for op in self.ops if not op.probe]

    @property
    def probes(self) -> list:
        return [op for op in self.ops if op.probe]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _done(end: int, events: int) -> Expect:
    return Expect(0, (f"done at t0+{end} ({events} events)",))


def _conforms(events: int, channel: str, type_name: str) -> Expect:
    return Expect(0, (f"conforms: {events} events on {channel} against {type_name}",))


def _violation(index: int, reason: str = "") -> Expect:
    head = f"violation at event {index}"
    return Expect(1, (f"{head}: {reason}" if reason else head,))


REPLAYS = Expect(0, ("replay ok",))


def _run_ops(name: str, size: int, entry: str, expect: Expect,
             replay_probe: bool = False) -> list:
    """A run and the replay of its step sequence."""
    trace = f"{name[:-4]}.{entry}.out.jsonl"
    return [Op("run", name, size, expect, entry=entry, trace=trace),
            Op("replay", name, size, REPLAYS, entry=entry, probe=replay_probe)]


def jsonl(events: list) -> str:
    return "".join(json.dumps(ev) + "\n" for ev in events)


# ---------------------------------------------------------------------------
# fanout: one hub binding N bme680 automata


SENSOR_DECLS = """\
sort sort_temp;
sort sort_gas;

extern fn read_temp() -> sort_temp;
extern fn read_gas() -> sort_gas;

type TEMP = Produce<sort_temp, t2 where Leq<t1, t2>, Unit<t3 where Leq<t2, t3>>>
type TEMP_AIR = Produce<sort_temp, t2 where Leq<t1, t2>,
                  Produce<sort_gas, t3 where Leq<Shift<t2, 30>, t3>,
                    Unit<t4 where Leq<Shift<t3, 20>, t4>>>>
type BME680 = ExChoice<t1 where Geq<t1, t0>, TEMP, TEMP_AIR>
type RESPONSE = Unit<z where Eq<z, Shift<t0, 50>>>

automaton bme680 {
    state S0 init;
    state S1;
    state S2;
    state S3;
    state S4;
    state S5;
    S0 --[?L]--> S1;
    S0 --[?R]--> S2;
    S1 --[!val(read_temp)]--> S3;
    S3 --[!cls]--> accept;
    S2 --[!val(read_temp)]--> S4;
    S4 --[30, !val(read_gas)]--> S5;
    S5 --[20, !cls]--> accept;
}
"""


def fanout_program(n: int, mutate: bool) -> str:
    """`hub_n` over sensors x0..x{n-1}, handled in index order: even ones
    take the heated R branch (gas reading at t0+30, close at t0+50), odd
    ones the L branch (closed at t0).  The mutated copy takes its last gas
    reading at t0+29, inside the heating time."""
    sensors = list(range(n))
    heated = [i for i in sensors if i % 2 == 0]
    lines, depth = [], 0
    for i in sensors:
        if i % 2 == 0:
            lines.append(f"SelectR<t0>(x{i}); Cons<t0>(x{i}) {{ u{i} =>")
        else:
            lines.append(f"SelectL<t0>(x{i}); Cons<t0>(x{i}) {{ u{i} => Wait<t0>(x{i});")
        depth += 1
    for i in heated:
        at = 29 if mutate and i == heated[-1] else 30
        lines.append(f"Cons<Shift<t0, {at}>>(x{i}) {{ v{i} =>")
        depth += 1
    lines += [f"Wait<Shift<t0, 50>>(x{i});" for i in heated]
    lines.append("Close<z where Eq<z, Shift<t0, 50>>>")
    params = ", ".join(f"x{i}: BME680" for i in sensors)
    binds = ", ".join(f"x{i} = bme680 as s{i}" for i in sensors)
    body = "\n    ".join(lines) + "\n    " + "}" * depth
    return (f"{SENSOR_DECLS}\nfn hub_n({params}) -> RESPONSE {{\n    {body}\n}}\n\n"
            f"system main = hub_n({binds}) @ t0;\n")


FANOUT_SIZES = (32, 64, 96)
# Replay compares configurations recursively, one level per sensor, and
# passes the default recursion limit between N=88 and N=96.  Replays from
# this size on are probes, so the defect shows in the failure share.
FANOUT_REPLAY_PROBE = 96


def fanout(seed: int, sizes=FANOUT_SIZES) -> Workload:
    """The scheduler's cost depends on the order of the sensors, so the seed
    only picks the sensor channels the monitor samples."""
    rng = _rng("fanout", seed)
    w = Workload("fanout", sizes=list(sizes))
    for n in sizes:
        for mutate in (False, True):
            name = f"fanout{n}{'_mut' if mutate else ''}.tsl"
            w.files[name] = fanout_program(n, mutate)
            probe = n >= FANOUT_REPLAY_PROBE
            if mutate:
                w.ops.append(Op("check", name, n, Expect(1, ("REJECT hub_n",))))
                w.ops += _run_ops(name, n, "main",
                                  Expect(1, ("timing_violation: client instant t0+29",)),
                                  replay_probe=probe)
                continue
            w.ops.append(Op("check", name, n, Expect(0, ("ACCEPT hub_n",))))
            w.ops += _run_ops(name, n, "main", _done(50, n * 7 // 2 + 1), replay_probe=probe)
            trace = w.ops[-2].trace
            sampled = (rng.sample(range(0, n, 2), 2) + rng.sample(range(1, n, 2), 2))
            for i in sampled:
                events = 4 if i % 2 == 0 else 3
                w.ops.append(Op("monitor", name, n, _conforms(events, f"s{i}", "BME680"),
                                trace=trace, type_name="BME680", channel=f"s{i}"))
    return w


# ---------------------------------------------------------------------------
# chain: a deep Produce protocol with its matching provider


def chain_type(n: int) -> str:
    head = "".join(f"Produce<int, s{i} where Eq<s{i}, Shift<t0, {i + 1}>>, "
                   for i in range(n))
    return f"{head}Unit<z where Eq<z, Shift<t0, {n + 1}>>>{'>' * n}"


def chain_program(n: int, values: list, late: int = -1) -> str:
    """Stage i sends values[i] at exactly t0+i+1; the close follows at
    t0+n+1.  Stage ``late`` (if any) opens its window one tick late."""
    body = []
    for i, v in enumerate(values):
        at = i + 2 if i == late else i + 1
        body.append(f"    Prod<s{i} where Eq<s{i}, Shift<t0, {at}>>> $ {v} $;")
    body.append(f"    Close<z where Eq<z, Shift<t0, {n + 1}>>>")
    return (f"type CHAIN = {chain_type(n)}\n\nfn chain() -> CHAIN {{\n"
            + "\n".join(body) + "\n}\n\nsystem go = chain() @ t0;\n")


def chain_trace(values: list) -> list:
    """The trace the provider must produce on channel ``go``."""
    events = [{"time": i + 1, "dir": "send", "kind": "value", "channel": "go",
               "payload": str(v)} for i, v in enumerate(values)]
    events.append({"time": len(values) + 1, "dir": "send", "kind": "close",
                   "channel": "go", "payload": None})
    return events


def chain_perturbed(values: list, rng: random.Random) -> list:
    """(class, events, answer) for the five trace perturbations."""
    n = len(values)
    good = chain_trace(values)
    # the monitor stops at the perturbed event, so it sits mid-chain for
    # every seed to keep the work per trace the same
    j = n // 2 + rng.randrange(-2, 3)
    shifted = [dict(ev) for ev in good]
    shifted[j]["time"] += 1
    kind = [dict(ev) for ev in good]
    kind[j].update(kind="label", payload="L")
    after = good + [{"time": n + 1, "dir": "send", "kind": "value", "channel": "go",
                     "payload": "0"}]
    flipped = [dict(ev, dir="recv") for ev in good]
    return [
        ("shift", shifted, _violation(j, f"time t0+{j + 2} outside the window")),
        ("kind", kind, _violation(j, "expected a value exchange, saw label")),
        ("trunc", good[:j], _violation(j, "trace ended before the protocol closed")),
        ("after", after, _violation(n + 1, "events continue after close")),
        # a provider's channel carries sends only, so the first received
        # value already breaks the protocol
        ("flip", flipped, _violation(0)),
    ]


CHAIN_SIZES = (50, 100, 150)
# Deep inputs are probed by monitoring this depth, which the parser cannot
# take at the default recursion limit.  The depth-400 check is left out of
# the probes: it spends about 23 s in the checker before its RecursionError.
CHAIN_PROBE_DEPTH = 800
FLIP_DEFECT = "the monitor ignores event directions"


def chain(seed: int, sizes=CHAIN_SIZES, probe_depth=CHAIN_PROBE_DEPTH) -> Workload:
    rng = _rng("chain", seed)
    w = Workload("chain", sizes=list(sizes))
    for n in sizes:
        values = [rng.randrange(1000) for _ in range(n)]
        # The checker stops at the first failing stage and its cost grows
        # with the cube of the depth reached, so the late stage sits
        # mid-chain for every seed: the mutated check does about an eighth
        # of the full check's work, the same share on every seed.
        late = n // 2 + rng.randrange(-2, 3)
        name, mut = f"chain{n}.tsl", f"chain{n}_mut.tsl"
        w.files[name] = chain_program(n, values)
        w.files[mut] = chain_program(n, values, late)
        w.ops.append(Op("check", name, n, Expect(0, ("ACCEPT chain",))))
        w.ops.append(Op("check", mut, n, Expect(1, ("REJECT chain",))))
        w.ops += _run_ops(name, n, "go", _done(n + 1, n + 1))
        w.ops += _run_ops(mut, n, "go", _done(n + 1, n + 1))
        for prog, trace, expect in (
                (name, w.ops[-4].trace, _conforms(n + 1, "go", "CHAIN")),
                (mut, w.ops[-2].trace,
                 _violation(late, f"time t0+{late + 2} outside the window"))):
            w.ops.append(Op("monitor", prog, n, expect, trace=trace,
                            type_name="CHAIN", channel="go"))
        for cls, events, expect in chain_perturbed(values, rng):
            trace = f"chain{n}.{cls}.jsonl"
            w.files[trace] = jsonl(events)
            w.ops.append(Op("monitor", name, n, expect, trace=trace, type_name="CHAIN",
                            channel="go",
                            known_defect=FLIP_DEFECT if cls == "flip" else ""))
    values = [rng.randrange(1000) for _ in range(probe_depth)]
    name = f"chain{probe_depth}.tsl"
    w.files[name] = chain_program(probe_depth, values)
    w.files[f"chain{probe_depth}.jsonl"] = jsonl(chain_trace(values))
    w.ops.append(Op("monitor", name, probe_depth,
                    _conforms(probe_depth + 1, "go", "CHAIN"),
                    trace=f"chain{probe_depth}.jsonl", type_name="CHAIN", channel="go",
                    probe=True))
    return w


# ---------------------------------------------------------------------------
# disjunctive: a close window with k excluded instants


def window(excluded: list, base: int) -> str:
    pred = f"Geq<t, Shift<t0, {base}>>"
    for e in reversed(excluded):
        pred = f"And<Neq<t, Shift<t0, {e}>>, {pred}>"
    return pred


def disjunctive_program(base: int, excluded: list, provided: list) -> str:
    """Type WIN opens at t0+base and excludes ``excluded``; the provider
    closes in a window from t0+base that excludes ``provided``."""
    return (f"type WIN = Unit<t where {window(excluded, base)}>\n\n"
            f"fn provider() -> WIN {{\n    Close<t where {window(provided, base)}>\n}}\n\n"
            "system go = provider() @ t0;\n")


DISJUNCTIVE_SIZES = (6, 8, 10, 12)
DISJUNCTIVE_PROBES = (16, 32)


def disjunctive(seed: int, sizes=DISJUNCTIVE_SIZES,
                probes=DISJUNCTIVE_PROBES) -> Workload:
    """The window opens at t0+base and excludes its first k instants, so the
    provider closes at t0+base+k.  The solver's cost depends on where the
    excluded instants sit, so the seed only shifts the whole window.  The
    mutated provider no longer excludes t0+base, so it closes there,
    outside WIN."""
    rng = _rng("disjunctive", seed)
    w = Workload("disjunctive", sizes=list(sizes))
    base = rng.randrange(8)
    for k in sizes + probes:
        excluded = list(range(base, base + k))
        name = f"win{k}.tsl"
        w.files[name] = disjunctive_program(base, excluded, excluded)
        if k in probes:
            w.ops.append(Op("check", name, k, Expect(0, ("ACCEPT provider",)), probe=True))
            w.ops.append(Op("run", name, k, _done(base + k, 1), entry="go",
                            trace=f"win{k}.go.out.jsonl", probe=True))
            continue
        w.ops.append(Op("check", name, k, Expect(0, ("ACCEPT provider",))))
        w.ops += _run_ops(name, k, "go", _done(base + k, 1))
        w.ops.append(Op("monitor", name, k, _conforms(1, "go", "WIN"),
                        trace=w.ops[-2].trace, type_name="WIN", channel="go"))
        mut = f"win{k}_mut.tsl"
        w.files[mut] = disjunctive_program(base, excluded, excluded[1:])
        w.ops.append(Op("check", mut, k, Expect(1, ("REJECT provider",))))
        w.ops += _run_ops(mut, k, "go", _done(base, 1))
        w.ops.append(Op("monitor", mut, k,
                        _violation(0, f"time t0+{base} outside the window"),
                        trace=w.ops[-2].trace, type_name="WIN", channel="go"))
    return w


# ---------------------------------------------------------------------------
# corpus: the shipped examples plus generated producer/consumer pipelines


def _check(*lines: str) -> Expect:
    return Expect(0 if all(x.startswith("ACCEPT") for x in lines) else 1, lines)


# Hand-written answers for the shipped corpus: the check verdict of every
# declaration, how every system run ends, and the named channels whose trace
# must conform to a declared type.
CORPUS_ANSWERS = {
    "adequacy.tsl": {
        "check": _check("ACCEPT adq0", "ACCEPT adq1", "ACCEPT half", "ACCEPT adq5",
                        "ACCEPT src10", "ACCEPT adq50", "ACCEPT adq1000"),
        "run": {"run0": _done(0, 1), "run1": _done(1, 1), "run5": _done(5, 3),
                "run50": _done(50, 4), "run1000": _done(1000, 1)},
    },
    "collision_detector.tsl": {
        "check": _check("ACCEPT radar", "ACCEPT cdx", "ACCEPT atc"),
        "run": {"detect": _done(10, 11)},
    },
    "cut_bad.tsl": {
        "check": _check("ACCEPT late", "REJECT use_early: RetypeFailure"),
    },
    "cut_ok.tsl": {
        "check": _check("ACCEPT late", "ACCEPT use_late"),
    },
    "deadlock.tsl": {
        "check": _check("ACCEPT pend", "REJECT dmain: ShapeMismatch"),
        "run": {"dead": Expect(1, ("deadlock: deadlock at t0+5",))},
    },
    "keyless_entry.tsl": {
        "check": _check("ACCEPT key", "ACCEPT car"),
        "run": {"unlock": _done(100, 9)},
        "monitor": {"unlock": [("unlock", "CAR", 1)]},
    },
    "minimum.tsl": {
        "check": _check("ACCEPT helper", "ACCEPT minimum"),
        "run": {"tiny": _done(0, 3)},
    },
    "p3_deadline_miss.tsl": {
        "check": _check("REJECT p3: TimingViolation"),
    },
    "p4_deadline_miss.tsl": {
        "check": _check("REJECT p4: TimingViolation"),
    },
    "p_ok.tsl": {
        "check": _check("ACCEPT p1", "ACCEPT p2"),
    },
    "smart_home.tsl": {
        "check": _check("ACCEPT hub", "ACCEPT hub_main"),
        "run": {"main": _done(50, 9)},
        "monitor": {"main": [("s1", "BME680", 4), ("s2", "BME680", 3),
                             ("main", "RESPONSE", 2)]},
    },
    "unsound_forward.tsl": {
        "check": _check("REJECT bad_fwd: RetypeFailure"),
    },
}


def pipeline_program(stages: list, close_at: int, mutation=None) -> str:
    """Producers w_i send at ``stages[i][0]`` and close at ``stages[i][1]``;
    the sink spawns each at the previous producer's close, consumes its
    value and waits its close.  ``mutation`` = (i, "Cons" | "Wait") pulls
    that sink instant one tick early, before the producer's window opens."""
    decls = []
    for i, (prod, cls) in enumerate(stages):
        decls.append(f"fn w{i}() -> Produce<int, t where Eq<t, Shift<t0, {prod}>>,\n"
                     f"              Unit<s where Eq<s, Shift<t0, {cls}>>>> {{\n"
                     f"    Prod<t where Eq<t, Shift<t0, {prod}>>> $ {i} $;\n"
                     f"    Close<s where Eq<s, Shift<t0, {cls}>>>\n}}\n")
    body = f"Close<z where Eq<z, Shift<t0, {close_at}>>>"
    for i, (prod, cls) in reversed(list(enumerate(stages))):
        spawn_at = stages[i - 1][1] if i else 0
        cons_at = prod - 1 if mutation == (i, "Cons") else prod
        wait_at = cls - 1 if mutation == (i, "Wait") else cls
        body = (f"Spawn<Shift<t0, {spawn_at}>>(w{i}) {{ h{i} =>\n"
                f"    Cons<Shift<t0, {cons_at}>>(h{i}) {{ v{i} =>\n"
                f"    Wait<Shift<t0, {wait_at}>>(h{i});\n    {body} }} }}")
    decls.append(f"type SINK = Unit<z where Eq<z, Shift<t0, {close_at}>>>\n\n"
                 f"fn sink() -> SINK {{\n    {body}\n}}\n\nsystem go = sink() @ t0;\n")
    return "\n".join(decls)


def pipeline_schedule(rng: random.Random, depth: int) -> tuple:
    """Every gap is at least one tick, so pulling any sink instant one tick
    early lands before the producer's window yet not before the sink's own
    previous instant."""
    stages, clock = [], 0
    for _ in range(depth):
        prod = clock + rng.randint(1, 6)
        cls = prod + rng.randint(1, 6)
        stages.append((prod, cls))
        clock = cls
    return stages, clock + rng.randint(0, 4)


PIPELINE_DEPTHS = (4, 8)
PIPELINES_PER_DEPTH = 4


def corpus(seed: int, corpus_dir: Path, depths=PIPELINE_DEPTHS,
           per_depth=PIPELINES_PER_DEPTH) -> Workload:
    rng = _rng("corpus", seed)
    w = Workload("corpus", sizes=list(depths))
    for name, answers in CORPUS_ANSWERS.items():
        w.files[name] = (corpus_dir / name).read_text(encoding="utf-8")
        w.ops.append(Op("check", name, 0, answers["check"]))
        for entry, expect in answers.get("run", {}).items():
            w.ops += _run_ops(name, 0, entry, expect)
            trace = w.ops[-2].trace
            for channel, type_name, events in answers.get("monitor", {}).get(entry, []):
                w.ops.append(Op("monitor", name, 0, _conforms(events, channel, type_name),
                                trace=trace, type_name=type_name, channel=channel))
    for depth in depths:
        for k in range(per_depth):
            stages, close_at = pipeline_schedule(rng, depth)
            producers = tuple(f"ACCEPT w{i}" for i in range(depth))
            name = f"pipe{depth}_{k}.tsl"
            w.files[name] = pipeline_program(stages, close_at)
            w.ops.append(Op("check", name, depth, _check(*producers, "ACCEPT sink")))
            w.ops += _run_ops(name, depth, "go", _done(close_at, 3 * depth + 1))
            w.ops.append(Op("monitor", name, depth, _conforms(1, "go", "SINK"),
                            trace=w.ops[-2].trace, type_name="SINK", channel="go"))
            victim = rng.randrange(depth)
            form = rng.choice(("Cons", "Wait"))
            prod, cls = stages[victim]
            early = (prod if form == "Cons" else cls) - 1
            mut = f"pipe{depth}_{k}_mut.tsl"
            w.files[mut] = pipeline_program(stages, close_at, (victim, form))
            w.ops.append(Op("check", mut, depth,
                            _check(*producers, "REJECT sink: TimingViolation")))
            w.ops += _run_ops(mut, depth, "go",
                              Expect(1, (f"timing_violation: client instant t0+{early}",)))
    return w


def generate(name: str, seed: int, corpus_dir: Path) -> Workload:
    if name == "corpus":
        return corpus(seed, corpus_dir)
    return {"fanout": fanout, "chain": chain, "disjunctive": disjunctive}[name](seed)
