"""Configurations, the timed LTS, and a deterministic scheduler.

Computation happens at instants: provider forms fire at any instant satisfying
their predicate, client forms fire exactly at their annotation, and two leaves
holding complementary actions on the same channel reduce silently.  The
scheduler drains every reduction available at the current clock (canonical
channel order), lets providers of environment-facing channels emit their sends
as observable events, then advances the clock to the least pending instant.
Each run yields a replayable step sequence.

A process leaf carries an environment instead of rewritten continuations:
when a provider fires, its time binder is bound to the current tick, and a
received value is bound to its variable.  Predicates, annotations and
expressions are evaluated under that environment.  Channel names are the one
thing substituted into terms, since they name the leaves themselves.

Fresh channels are named ``#k`` with k derived from the configuration itself,
so replays and reorderings allocate identical names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from . import syntax as s
from . import temporal as t
from .temporal import NonClosedError


class ValueEvalError(Exception):
    """An extern call could not be resolved at runtime."""


class RuntimeInvariantError(Exception):
    """Internal invariant broken (duplicate providers, open predicate)."""


# ---------------------------------------------------------------------------
# Values


@dataclass(frozen=True)
class BoolV:
    value: bool


@dataclass(frozen=True)
class IntV:
    value: int


@dataclass(frozen=True)
class OpaqueV:
    sort: str
    tag: str


Value = Union[BoolV, IntV, OpaqueV]


def render_value(v: Value) -> str:
    if isinstance(v, BoolV):
        return "true" if v.value else "false"
    if isinstance(v, IntV):
        return str(v.value)
    return v.tag


class ExternEnv:
    """Deterministic extern evaluation, seeded per run.

    Automaton payloads depend only on (extern, channel, state), process-side
    calls only on (extern, integer arguments), so values are stable under
    replay and under reordering of same-instant reductions.
    """

    def __init__(self, prog: Optional[s.Program] = None, seed: int = 0):
        self.prog = prog or s.Program()
        self.seed = seed
        self.sigs = {d.name: (tuple(d.arg_types), d.ret_type) for d in self.prog.externs}

    def _make(self, name: str, ret: s.ValueType, salt: str, args=()) -> Value:
        if isinstance(ret, s.BoolType):
            return BoolV(self.seed % 2 == 0)
        if isinstance(ret, s.IntType):
            acc = self.seed
            for a in args:
                if isinstance(a, IntV):
                    acc = acc * 31 + a.value
            acc = acc * 31 + sum(ord(c) for c in name)
            return IntV(acc % 100003)
        tag = f"{name}@{salt}" if salt else f"{name}()"
        return OpaqueV(ret.name, tag)

    def call(self, name: str, args: list) -> Value:
        sig = self.sigs.get(name)
        if sig is None:
            raise ValueEvalError(f"extern {name} is not declared")
        return self._make(name, sig[1], "", args)

    def call_auto(self, name: str, chan: str, state: str) -> Value:
        sig = self.sigs.get(name)
        if sig is None:
            raise ValueEvalError(f"automaton extern {name} is not declared")
        return self._make(name, sig[1], chan, ())


def eval_expr(e: s.Expr, env: ExternEnv, scope: Optional[dict] = None) -> Value:
    scope = scope or {}
    if isinstance(e, s.BoolLit):
        return BoolV(e.value)
    if isinstance(e, s.IntLit):
        return IntV(e.value)
    if isinstance(e, s.VarE):
        if e.name not in scope:
            raise ValueEvalError(f"unbound value variable {e.name} at runtime")
        return scope[e.name]
    if isinstance(e, s.Arith):
        lv = eval_expr(e.left, env, scope)
        rv = eval_expr(e.right, env, scope)
        if not isinstance(lv, IntV) or not isinstance(rv, IntV):
            raise ValueEvalError(f"arithmetic {e.op} on non-integers")
        if e.op == "+":
            return IntV(lv.value + rv.value)
        if e.op == "-":
            return IntV(lv.value - rv.value)
        return IntV(lv.value * rv.value)
    if isinstance(e, s.Cmp):
        lv = eval_expr(e.left, env, scope)
        rv = eval_expr(e.right, env, scope)
        if e.op == "==":
            return BoolV(lv == rv)
        if e.op == "!=":
            return BoolV(lv != rv)
        if not isinstance(lv, IntV) or not isinstance(rv, IntV):
            raise ValueEvalError(f"ordering {e.op} on non-integers")
        table = {"<": lv.value < rv.value, "<=": lv.value <= rv.value,
                 ">": lv.value > rv.value, ">=": lv.value >= rv.value}
        return BoolV(table[e.op])
    if isinstance(e, s.IfE):
        c = eval_expr(e.cond, env, scope)
        if not isinstance(c, BoolV):
            raise ValueEvalError("if condition is not a bool")
        return eval_expr(e.then if c.value else e.orelse, env, scope)
    # CallE
    return env.call(e.name, [eval_expr(a, env, scope) for a in e.args])


# ---------------------------------------------------------------------------
# Configurations


@dataclass(frozen=True)
class StopC:
    pass


@dataclass(frozen=True)
class Env:
    """A leaf's bindings: each fired time binder to the tick of its exchange,
    each received value variable to its value.  Time and value variables are
    separate namespaces, as in the source.  Never mutated."""

    times: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    def __hash__(self):
        return hash((frozenset(self.times.items()), frozenset(self.values.items())))

    def bind_time(self, name: str, tick: int) -> "Env":
        return Env({**self.times, name: tick}, self.values)

    def bind_value(self, name: str, value: Value) -> "Env":
        return Env(self.times, {**self.values, name: value})

    def tick(self, e: t.TimeExpr) -> int:
        """The instant an annotation denotes (NonClosedError if unbound)."""
        if e.var in self.times:
            return self.times[e.var] + e.offset
        return e.ticks()

    def close(self, pred: t.Prop, binder: str) -> t.Prop:
        """``pred`` with the fired binders other than ``binder`` replaced by
        their instants, for messages and solver queries."""
        return t.substitute_all(pred, {x: t.init_plus(self.times[x])
                                       for x in t.free_time_vars(pred)
                                       if x != binder and x in self.times})


EMPTY_ENV = Env()


@dataclass(frozen=True)
class ProcC:
    chan: str
    body: s.Process
    env: Env = EMPTY_ENV


@dataclass(frozen=True)
class FwdC:
    provider: str
    client: str


@dataclass(frozen=True)
class ParC:
    left: "Configuration"
    right: "Configuration"


@dataclass(frozen=True)
class AutoC:
    chan: str
    machine: str
    state: str
    entry: int


Configuration = Union[StopC, ProcC, FwdC, ParC, AutoC]

STOP = StopC()


def conf_leaves(omega: Configuration) -> list:
    if isinstance(omega, StopC):
        return []
    if isinstance(omega, ParC):
        return conf_leaves(omega.left) + conf_leaves(omega.right)
    return [omega]


def par_of(leaves: list) -> Configuration:
    if not leaves:
        return STOP
    out = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        out = ParC(leaf, out)
    return out


def provider_of(leaf) -> str:
    if isinstance(leaf, FwdC):
        return leaf.provider
    return leaf.chan


def _rename_provider(leaf, new: str):
    if isinstance(leaf, ProcC):
        return ProcC(new, leaf.body, leaf.env)
    if isinstance(leaf, AutoC):
        return AutoC(new, leaf.machine, leaf.state, leaf.entry)
    return FwdC(new, leaf.client)


def congruence_normalize(omega: Configuration) -> Configuration:
    """Drop units, merge forwarders, and sort parallel components.

    A forwarder whose client channel has no provider yet is left in place for
    the scheduler to resolve later.  Idempotent.
    """
    leaves = conf_leaves(omega)
    changed = True
    while changed:
        changed = False
        for i, leaf in enumerate(leaves):
            if not isinstance(leaf, FwdC):
                continue
            for j, other in enumerate(leaves):
                if i != j and provider_of(other) == leaf.client:
                    merged = _rename_provider(other, leaf.provider)
                    leaves = [x for k, x in enumerate(leaves) if k not in (i, j)]
                    leaves.append(merged)
                    changed = True
                    break
            if changed:
                break
    leaves.sort(key=provider_of)
    names = [provider_of(x) for x in leaves]
    if len(set(names)) != len(names):
        dup = sorted(n for n in names if names.count(n) > 1)[0]
        raise RuntimeInvariantError(f"duplicate provider channel {dup}")
    return par_of(leaves)


def clients_of(omega: Configuration) -> set:
    """Channels some component uses from the client side."""
    used = set()
    for leaf in conf_leaves(omega):
        if isinstance(leaf, ProcC):
            used |= s.free_channels(leaf.body)
        elif isinstance(leaf, FwdC):
            used.add(leaf.client)
    return used


def fresh_channel(leaves: list) -> str:
    """Smallest unused ``#k`` name, computed from the configuration alone."""
    taken = set()
    for leaf in leaves:
        taken.add(provider_of(leaf))
        if isinstance(leaf, ProcC):
            taken |= s.free_channels(leaf.body)
        elif isinstance(leaf, FwdC):
            taken.add(leaf.client)
    k = 1
    while f"#{k}" in taken:
        k += 1
    return f"#{k}"


# ---------------------------------------------------------------------------
# Actions


@dataclass(frozen=True)
class SilentA:
    pass


@dataclass(frozen=True)
class SendChanA:
    chan: str
    sent: Optional[str] = None


@dataclass(frozen=True)
class RecvChanA:
    chan: str
    sent: Optional[str] = None


@dataclass(frozen=True)
class SendLblA:
    chan: str
    label: str


@dataclass(frozen=True)
class RecvLblA:
    chan: str
    label: str


@dataclass(frozen=True)
class SendCloseA:
    chan: str


@dataclass(frozen=True)
class RecvCloseA:
    chan: str


@dataclass(frozen=True)
class SendValA:
    chan: str
    value: Optional[Value] = None


@dataclass(frozen=True)
class RecvValA:
    chan: str
    value: Optional[Value] = None


Action = Union[SilentA, SendChanA, RecvChanA, SendLblA, RecvLblA,
               SendCloseA, RecvCloseA, SendValA, RecvValA]

SILENT = SilentA()

_DUALS = [(SendChanA, RecvChanA), (SendLblA, RecvLblA),
          (SendCloseA, RecvCloseA), (SendValA, RecvValA)]


def complementary(alpha: Action) -> Action:
    if isinstance(alpha, SilentA):
        return alpha
    for snd, rcv in _DUALS:
        if isinstance(alpha, snd):
            return rcv(*alpha.__dict__.values())
        if isinstance(alpha, rcv):
            return snd(*alpha.__dict__.values())
    raise TypeError(f"not an action: {alpha!r}")


def action_kind(alpha: Action) -> str:
    if isinstance(alpha, (SendChanA, RecvChanA)):
        return "chan"
    if isinstance(alpha, (SendLblA, RecvLblA)):
        return "label"
    if isinstance(alpha, (SendCloseA, RecvCloseA)):
        return "close"
    if isinstance(alpha, (SendValA, RecvValA)):
        return "value"
    return "silent"


def action_dir(alpha: Action) -> str:
    if isinstance(alpha, (SendChanA, SendLblA, SendCloseA, SendValA)):
        return "send"
    if isinstance(alpha, SilentA):
        return "silent"
    return "recv"


@dataclass(frozen=True)
class TraceEvent:
    time: int
    action: Action
    channel: str
    tag: Optional[str] = None  # spawn / fwd / if for silent steps

    def payload(self) -> Optional[str]:
        a = self.action
        if isinstance(a, (SendLblA, RecvLblA)):
            return a.label
        if isinstance(a, (SendValA, RecvValA)) and a.value is not None:
            return render_value(a.value)
        if isinstance(a, (SendChanA, RecvChanA)):
            return a.sent
        if isinstance(a, SilentA):
            return self.tag
        return None


# ---------------------------------------------------------------------------
# Local transitions


@dataclass
class LocalStep:
    chan: str
    kind: str  # chan | label | close | value | silent
    direction: str  # send | recv | silent
    label: Optional[str] = None
    value: Optional[Value] = None  # resolved payload for value sends
    tag: Optional[str] = None  # silent flavor
    fire: Optional[Callable] = None  # payload -> list of replacement leaves


def _pred_holds_at(p: s.Process, env: Env, now: int) -> bool:
    """Whether provider ``p``'s window holds if it fires at ``now``."""
    try:
        return t.eval_prop(p.pred, {**env.times, p.binder: now})
    except NonClosedError as exc:
        raise RuntimeInvariantError(
            f"provider predicate {p.pred} not closed at runtime") from exc


_DUAL_DIR = {"send": "recv", "recv": "send"}
_LABEL = {s.InLP: "L", s.InRP: "R", s.SelectLP: "L", s.SelectRP: "R"}


def _proc_steps(leaf: ProcC, now: int, ext: ExternEnv) -> list:
    """The leaf's step at ``now``, if any.  A provider form exchanges on the
    leaf's own channel and binds its binder to ``now``; a client form
    exchanges on the channel it names, at its annotation.  The connective
    fixes the message kind and the provider's direction."""
    a, p, env = leaf.chan, leaf.body, leaf.env
    form = type(p)
    if form in s.PROVIDES:
        conn = s.CONNECTIVES[s.PROVIDES[form]]
        if not _pred_holds_at(p, env, now):
            return []
        chan, direction, env = a, conn.provider_dir, env.bind_time(p.binder, now)
    elif form in s.USES:
        conn = s.CONNECTIVES[s.USES[form]]
        if env.tick(p.at) != now:
            return []
        chan, direction = p.chan, _DUAL_DIR[conn.provider_dir]
    else:
        return _silent_steps(leaf, now, ext)
    kind, sends = conn.kind, direction == "send"

    def step(fire, **extra) -> LocalStep:
        return LocalStep(chan, kind, direction, fire=fire, **extra)

    if kind == "close":
        return [step(lambda _: [] if sends else [ProcC(a, p.cont, env)])]
    if kind == "chan" and sends:
        return [step(lambda c: [ProcC(a, p.cont, env), ProcC(c, p.payload, env)])]
    if kind == "chan":
        body = p.body if form is s.LamRecv else p.cont
        return [step(lambda c: [ProcC(a, s.subst_chan(body, p.var, c), env)])]
    if kind == "label" and sends:
        return [step(lambda _: [ProcC(a, p.cont, env)], label=_LABEL[form])]
    if kind == "label":
        return [step(lambda _, q=q: [ProcC(a, q, env)], label=lbl)
                for lbl, q in (("L", p.left), ("R", p.right))]
    if sends:
        value = eval_expr(p.expr, ext, env.values)
        return [step(lambda _: [ProcC(a, p.cont, env)], value=value)]
    return [step(lambda v: [ProcC(a, p.cont, env.bind_value(p.var, v))])]


def _silent_steps(leaf: ProcC, now: int, ext: ExternEnv) -> list:
    a, p, env = leaf.chan, leaf.body, leaf.env
    if isinstance(p, s.IfP):
        v = eval_expr(p.cond, ext, env.values)
        if not isinstance(v, BoolV):
            raise ValueEvalError("process conditional on a non-bool")
        branch = p.then if v.value else p.orelse
        return [LocalStep(a, "silent", "silent", tag="if",
                          fire=lambda _: [ProcC(a, branch, env)])]
    if env.tick(p.at) != now:
        return []
    if isinstance(p, s.FwdP):
        return [LocalStep(a, "silent", "silent", tag="fwd",
                          fire=lambda _: [FwdC(a, p.chan)])]
    decl = ext.prog.proc_decl(p.callee)
    if decl is None:
        raise ValueEvalError(f"spawn of undeclared proc {p.callee}")

    def fire(c):
        params = {param: arg for (param, _), arg in zip(decl.params, p.args)}
        return [ProcC(c, s.subst_chan(decl.body, params)),
                ProcC(a, s.subst_chan(p.cont, p.bound, c), env)]

    return [LocalStep(a, "silent", "silent", tag="spawn", fire=fire)]


def _auto_steps(leaf: AutoC, now: int, env: ExternEnv, defs: dict) -> list:
    from .automata import ACCEPT, automaton_transitions

    defn = defs.get(leaf.machine)
    if defn is None:
        raise ValueEvalError(f"unknown automaton {leaf.machine}")
    steps = []
    for tr in automaton_transitions(defn, leaf.state, leaf.entry, now):
        nxt = [] if tr.dst == ACCEPT else [AutoC(leaf.chan, leaf.machine, tr.dst, now)]
        tm = tr.template
        value = None
        if tm.kind == "value" and tm.direction == "send":
            value = env.call_auto(tm.extern, leaf.chan, leaf.state)
        steps.append(LocalStep(leaf.chan, tm.kind, tm.direction, label=tm.label,
                               value=value, fire=lambda _, n=nxt: n))
    return steps


def _leaf_steps(leaf, now: int, env: ExternEnv, defs: dict) -> list:
    if isinstance(leaf, ProcC):
        return _proc_steps(leaf, now, env)
    if isinstance(leaf, AutoC):
        return _auto_steps(leaf, now, env, defs)
    return []  # FwdC resolves through congruence, StopC is inert


def _resolve_action(step: LocalStep, payload) -> Action:
    if step.kind == "silent":
        return SILENT
    ctor = {
        ("chan", "send"): SendChanA, ("chan", "recv"): RecvChanA,
        ("label", "send"): SendLblA, ("label", "recv"): RecvLblA,
        ("close", "send"): SendCloseA, ("close", "recv"): RecvCloseA,
        ("value", "send"): SendValA, ("value", "recv"): RecvValA,
    }[(step.kind, step.direction)]
    if step.kind == "label":
        return ctor(step.chan, step.label)
    if step.kind == "close":
        return ctor(step.chan)
    return ctor(step.chan, payload)


def enumerate_transitions(omega: Configuration, now: int,
                          env: Optional[ExternEnv] = None,
                          defs: Optional[dict] = None) -> list:
    """Root-level labelled steps available at this instant.

    Channel/value receives stand for a family of transitions; the transmitted
    item is rendered as None until a communication partner fixes it.
    """
    env = env or ExternEnv()
    defs = defs if defs is not None else _builtin_defs()
    leaves = conf_leaves(omega)
    out = []
    for i, leaf in enumerate(leaves):
        for step in _leaf_steps(leaf, now, env, defs):
            if step.kind == "silent":
                payload = fresh_channel(leaves) if step.tag == "spawn" else None
            elif step.kind == "chan" and step.direction == "send":
                payload = fresh_channel(leaves)
            elif step.kind == "value" and step.direction == "send":
                payload = step.value
            else:
                payload = None
            new_leaves = leaves[:i] + leaves[i + 1:] + step.fire(payload)
            out.append((_resolve_action(step, payload), par_of(new_leaves)))
    return out


def _builtin_defs() -> dict:
    from .automata import builtin_bme680

    b = builtin_bme680()
    return {b.name: b}


def _match(send: LocalStep, recv: LocalStep) -> bool:
    return (send.chan == recv.chan and send.kind == recv.kind
            and send.direction == "send" and recv.direction == "recv"
            and (send.kind != "label" or send.label == recv.label))


def _step_sort_key(event: TraceEvent) -> tuple:
    return (event.channel, action_kind(event.action), event.tag or "",
            getattr(event.action, "label", "") or "", str(event.payload() or ""))


def comm_step(omega: Configuration, now: int,
              env: Optional[ExternEnv] = None,
              defs: Optional[dict] = None) -> list:
    """All silent reductions at this instant: complementary pairs plus
    solitary fwd/spawn/if steps.  Results are congruence-normalized and
    sorted canonically; the event records the send half of each exchange."""
    env = env or ExternEnv()
    defs = defs if defs is not None else _builtin_defs()
    omega = congruence_normalize(omega)
    leaves = conf_leaves(omega)
    per_leaf = [(_leaf_steps(leaf, now, env, defs)) for leaf in leaves]
    results = []

    for i, steps in enumerate(per_leaf):
        for step in steps:
            if step.kind != "silent":
                continue
            payload = fresh_channel(leaves) if step.tag == "spawn" else None
            new_leaves = leaves[:i] + leaves[i + 1:] + step.fire(payload)
            conf = congruence_normalize(par_of(new_leaves))
            chan = payload if step.tag == "spawn" else step.chan
            results.append((conf, TraceEvent(now, SILENT, chan, step.tag)))

    for i, steps_i in enumerate(per_leaf):
        for j, steps_j in enumerate(per_leaf):
            if i == j:
                continue
            for snd in steps_i:
                for rcv in steps_j:
                    if not _match(snd, rcv):
                        continue
                    if snd.kind == "chan":
                        payload = fresh_channel(leaves)
                    elif snd.kind == "value":
                        payload = snd.value
                    else:
                        payload = None
                    replaced = snd.fire(payload) + rcv.fire(payload)
                    keep = [x for k, x in enumerate(leaves) if k not in (i, j)]
                    conf = congruence_normalize(par_of(keep + replaced))
                    action = _resolve_action(snd, payload)
                    results.append((conf, TraceEvent(now, action, snd.chan)))

    results.sort(key=lambda pair: _step_sort_key(pair[1]))
    deduped = []
    for item in results:
        if item not in deduped:
            deduped.append(item)
    return deduped


def env_observable_steps(omega: Configuration, now: int,
                         env: Optional[ExternEnv] = None,
                         defs: Optional[dict] = None) -> list:
    """Send actions of providers whose channel has no client in the
    configuration: these are offered to the environment and may fire solo."""
    env = env or ExternEnv()
    defs = defs if defs is not None else _builtin_defs()
    omega = congruence_normalize(omega)
    leaves = conf_leaves(omega)
    used = clients_of(omega)
    results = []
    for i, leaf in enumerate(leaves):
        if provider_of(leaf) in used:
            continue
        for step in _leaf_steps(leaf, now, env, defs):
            if step.direction != "send" or step.chan != provider_of(leaf):
                continue
            payload = fresh_channel(leaves) if step.kind == "chan" else step.value
            new_leaves = leaves[:i] + leaves[i + 1:] + step.fire(payload)
            conf = congruence_normalize(par_of(new_leaves))
            results.append((conf, TraceEvent(now, _resolve_action(step, payload), step.chan)))
    results.sort(key=lambda pair: _step_sort_key(pair[1]))
    return results


# ---------------------------------------------------------------------------
# Step sequences (multistep reduction proof terms)


@dataclass(frozen=True)
class Refl:
    time: int
    config: Configuration


@dataclass(frozen=True)
class StepT:
    t1: int
    t2: int
    config: Configuration
    rest: "StepSequence"


@dataclass(frozen=True)
class StepC:
    time: int
    before: Configuration
    after: Configuration
    rest: "StepSequence"


StepSequence = Union[Refl, StepT, StepC]


def seq_start(sigma: StepSequence) -> tuple:
    if isinstance(sigma, Refl):
        return sigma.time, sigma.config
    if isinstance(sigma, StepT):
        return sigma.t1, sigma.config
    return sigma.time, sigma.before


def seq_end(sigma: StepSequence) -> tuple:
    while not isinstance(sigma, Refl):
        sigma = sigma.rest
    return sigma.time, sigma.config


class SequenceMismatch(Exception):
    pass


def seq_concat(s1: StepSequence, s2: StepSequence) -> StepSequence:
    """Concatenate sequences; a time gap with equal configurations is bridged
    by an explicit clock advance."""
    end_t, end_c = seq_end(s1)
    start_t, start_c = seq_start(s2)
    if end_c != start_c or end_t > start_t:
        raise SequenceMismatch(
            f"cannot concatenate: ends at {end_t} with a different state than "
            f"{start_t}" if end_c != start_c else "time moves backwards")
    if end_t < start_t:
        s2 = StepT(end_t, start_t, end_c, s2)

    def go(sig):
        if isinstance(sig, Refl):
            return s2
        if isinstance(sig, StepT):
            return StepT(sig.t1, sig.t2, sig.config, go(sig.rest))
        return StepC(sig.time, sig.before, sig.after, go(sig.rest))

    return go(s1)


def seq_extend_to(sigma: StepSequence, end_time: int) -> StepSequence:
    """Pad the tail with a clock advance so the sequence ends at end_time."""
    t_end, c_end = seq_end(sigma)
    if end_time < t_end:
        raise SequenceMismatch("cannot shrink a sequence")
    if end_time == t_end:
        return sigma
    return seq_concat(sigma, Refl(end_time, c_end))


def seq_interleave(s1: StepSequence, s2: StepSequence) -> StepSequence:
    """Merge two sequences over the parallel composition of their states,
    taking instantaneous steps in non-decreasing time order (left first among
    simultaneous ones) and advancing the clock to the nearer target."""
    t1, _ = seq_start(s1)
    t2, _ = seq_start(s2)
    e1, c1 = seq_end(s1)
    e2, c2 = seq_end(s2)
    lo, hi = min(t1, t2), max(e1, e2)
    if t1 > lo:
        s1 = StepT(lo, t1, seq_start(s1)[1], s1)
    if t2 > lo:
        s2 = StepT(lo, t2, seq_start(s2)[1], s2)
    s1 = seq_extend_to(s1, hi)
    s2 = seq_extend_to(s2, hi)
    return _il(s1, s2)


def _il(s1: StepSequence, s2: StepSequence) -> StepSequence:
    pc = lambda a, b: congruence_normalize(ParC(a, b))
    if isinstance(s1, Refl) and isinstance(s2, Refl):
        return Refl(s1.time, pc(s1.config, s2.config))
    if isinstance(s1, StepC):
        other = seq_start(s2)[1]
        return StepC(s1.time, pc(s1.before, other), pc(s1.after, other), _il(s1.rest, s2))
    if isinstance(s2, StepC):
        other = seq_start(s1)[1]
        return StepC(s2.time, pc(other, s2.before), pc(other, s2.after), _il(s1, s2.rest))
    if isinstance(s1, StepT) and isinstance(s2, StepT):
        if s1.t2 <= s2.t2:
            nxt = s2.rest if s1.t2 == s2.t2 else StepT(s1.t2, s2.t2, s2.config, s2.rest)
            return StepT(s1.t1, s1.t2, pc(s1.config, s2.config), _il(s1.rest, nxt))
        nxt = StepT(s2.t2, s1.t2, s1.config, s1.rest)
        return StepT(s2.t1, s2.t2, pc(s1.config, s2.config), _il(nxt, s2.rest))
    if isinstance(s1, StepT):  # s2 is Refl
        return StepT(s1.t1, s1.t2, pc(s1.config, s2.config),
                     _il(s1.rest, Refl(s1.t2, s2.config)))
    return StepT(s2.t1, s2.t2, pc(s1.config, s2.config),
                 _il(Refl(s2.t2, s1.config), s2.rest))


def seq_steps(sigma: StepSequence) -> int:
    n = 0
    while not isinstance(sigma, Refl):
        if isinstance(sigma, StepC):
            n += 1
        sigma = sigma.rest
    return n


def replay(sigma: StepSequence, env: Optional[ExternEnv] = None,
           defs: Optional[dict] = None) -> bool:
    """Check every instantaneous step is derivable (as a communication or as
    an environment-facing send) and every clock advance is non-decreasing."""
    env = env or ExternEnv()
    defs = defs if defs is not None else _builtin_defs()
    norm = congruence_normalize
    while not isinstance(sigma, Refl):
        if isinstance(sigma, StepT):
            if sigma.t1 > sigma.t2:
                return False
            nxt_t, nxt_c = seq_start(sigma.rest)
            if nxt_t != sigma.t2 or norm(nxt_c) != norm(sigma.config):
                return False
            sigma = sigma.rest
            continue
        nxt_t, nxt_c = seq_start(sigma.rest)
        if nxt_t != sigma.time or norm(nxt_c) != norm(sigma.after):
            return False
        candidates = comm_step(sigma.before, sigma.time, env, defs)
        candidates += env_observable_steps(sigma.before, sigma.time, env, defs)
        want = norm(sigma.after)
        if not any(norm(conf) == want for conf, _ in candidates):
            return False
        sigma = sigma.rest
    return True


# ---------------------------------------------------------------------------
# Scheduler


@dataclass
class TimingViolationInfo:
    channel: str
    client_time: int
    provider_pred: str
    counterexample: Optional[dict] = None

    def render(self) -> str:
        return (f"client instant t0+{self.client_time} on {self.channel} misses "
                f"the provider window {self.provider_pred}")


@dataclass
class DeadlockInfo:
    time: int
    pending: list

    def render(self) -> str:
        what = "; ".join(self.pending) or "nothing enabled"
        return f"deadlock at t0+{self.time}: {what}"


@dataclass
class RunResult:
    status: str  # done | timing_violation | deadlock | horizon
    trace: list
    final: Configuration
    sigma: StepSequence
    end_time: int
    error: Optional[object] = None

    @property
    def ok(self) -> bool:
        return self.status == "done"


def _client_instant(leaf: ProcC) -> Optional[int]:
    """The instant of a client, forward or spawn leaf; None for providers."""
    p = leaf.body
    if type(p) in s.USES or isinstance(p, (s.FwdP, s.SpawnP)):
        return leaf.env.tick(p.at)
    return None


def _analyze_due_client(leaf: ProcC, now: int, leaves: list,
                        defs: dict) -> Optional[TimingViolationInfo]:
    """A client whose instant has arrived but whose exchange did not happen:
    blame the provider window when the shapes complement, otherwise leave it
    pending (a shape mismatch stalls into deadlock, not a timing fault)."""
    term = leaf.body
    want = s.USES.get(type(term))
    if want is None:
        return None
    chan = term.chan
    when = leaf.env.tick(term.at)
    provider = None
    for x in leaves:
        if x is not leaf and provider_of(x) == chan:
            provider = x
            break
    if provider is None:
        return TimingViolationInfo(chan, when, "<no provider>", None)
    if isinstance(provider, AutoC):
        from .automata import transitions_from

        defn = defs.get(provider.machine)
        if defn is None:
            return TimingViolationInfo(chan, when, "<unknown automaton>", None)
        conn = s.CONNECTIVES[want]
        kinds = [(tr.template.kind, tr.template.direction, provider.entry + tr.guard_offset)
                 for tr in transitions_from(defn, provider.state)]
        matching = [rel for k, d, rel in kinds if (k, d) == (conn.kind, conn.provider_dir)]
        if matching and min(matching) > now:
            guard = f"entry+{min(matching) - provider.entry} <= t"
            return TimingViolationInfo(chan, when, guard, {"t": now})
        return None
    if isinstance(provider, ProcC):
        p = provider.body
        if s.PROVIDES.get(type(p)) is want and not _pred_holds_at(p, provider.env, now):
            from .parser import render_prop

            return TimingViolationInfo(chan, when,
                                       render_prop(provider.env.close(p.pred, p.binder)),
                                       {p.binder: now})
    return None


def _earliest_enabled(leaf: ProcC, lo: int, horizon: int) -> Optional[int]:
    """Least instant >= lo at which the provider leaf's window holds.

    The linear scan stops at the horizon; a solver witness past it is
    returned as-is (possibly non-minimal) since the run ends there anyway.
    """
    p = leaf.body
    pred = leaf.env.close(p.pred, p.binder)
    model = t.solve_satisfiable([p.binder], [pred, t.Leq(t.init_plus(lo), t.tvar(p.binder))])
    if model is None:
        return None
    for cand in range(lo, min(model[p.binder], horizon) + 1):
        if _pred_holds_at(p, leaf.env, cand):
            return cand
    return model[p.binder]


def _pending_instants(omega: Configuration, now: int, horizon: int,
                      defs: dict) -> list:
    leaves = conf_leaves(omega)
    used = clients_of(omega)
    pend = []
    for leaf in leaves:
        if isinstance(leaf, ProcC):
            tick = _client_instant(leaf)
            if tick is not None:
                if tick > now:
                    pend.append(tick)
            elif type(leaf.body) in s.PROVIDES and leaf.chan not in used:
                if s.CONNECTIVES[s.PROVIDES[type(leaf.body)]].provider_dir != "send":
                    continue
                nxt = _earliest_enabled(leaf, now + 1, horizon)
                if nxt is not None:
                    pend.append(nxt)
        elif isinstance(leaf, AutoC):
            from .automata import transitions_from

            defn = defs.get(leaf.machine)
            if defn is None:
                continue
            for tr in transitions_from(defn, leaf.state):
                release = leaf.entry + tr.guard_offset
                if release > now:
                    pend.append(release)
    return sorted(set(pend))


def run_scheduler(omega: Configuration, start: int = 0,
                  horizon: Optional[int] = None,
                  env: Optional[ExternEnv] = None,
                  defs: Optional[dict] = None,
                  tiebreak: Optional[Callable] = None) -> RunResult:
    """Deterministic execution: drain the current instant, then jump to the
    least pending one.  ``tiebreak`` may reorder same-instant firings (used by
    the confluence tests); the default takes the canonical first."""
    env = env or ExternEnv()
    defs = defs if defs is not None else _builtin_defs()
    if horizon is None:
        horizon = start + 10**6
    clock = start
    config = congruence_normalize(omega)
    steps = []  # ("C", time, before, after) | ("T", t1, t2, config)
    trace = []
    status, error = "done", None

    while True:
        while True:
            candidates = comm_step(config, clock, env, defs)
            candidates += env_observable_steps(config, clock, env, defs)
            if not candidates:
                break
            pick = 0 if tiebreak is None else tiebreak(clock, candidates) % len(candidates)
            new_config, event = candidates[pick]
            steps.append(("C", clock, config, new_config))
            trace.append(event)
            config = new_config
        if config == STOP:
            break
        leaves = conf_leaves(config)
        violation = None
        for leaf in leaves:
            if isinstance(leaf, ProcC):
                tick = _client_instant(leaf)
                if tick is None:
                    continue
                if tick < clock:
                    # created after its own instant: can never fire
                    violation = TimingViolationInfo(
                        getattr(leaf.body, "chan", leaf.chan), tick,
                        "<instant already passed>")
                    break
                if tick == clock and not isinstance(leaf.body, (s.FwdP, s.SpawnP)):
                    violation = _analyze_due_client(leaf, clock, leaves, defs)
                    if violation:
                        break
        if violation is not None:
            status, error = "timing_violation", violation
            break
        pend = _pending_instants(config, clock, horizon, defs)
        if not pend:
            stuck = sorted(describe_leaf(x) for x in leaves)
            status, error = "deadlock", DeadlockInfo(clock, stuck)
            break
        nxt = pend[0]
        if nxt > horizon:
            status = "horizon"
            break
        steps.append(("T", clock, nxt, config))
        clock = nxt

    sigma: StepSequence = Refl(clock, config)
    for item in reversed(steps):
        if item[0] == "C":
            _, when, before, after = item
            sigma = StepC(when, before, after, sigma)
        else:
            _, t1, t2, conf = item
            sigma = StepT(t1, t2, conf, sigma)
    return RunResult(status, trace, config, sigma, clock, error)


def describe_leaf(leaf) -> str:
    if isinstance(leaf, ProcC):
        return f"{leaf.chan}: {type(leaf.body).__name__}"
    if isinstance(leaf, AutoC):
        return f"{leaf.chan}: {leaf.machine}[{leaf.state}]"
    if isinstance(leaf, FwdC):
        return f"{leaf.provider}: fwd {leaf.client}"
    return "stop"


# ---------------------------------------------------------------------------
# Trace serialization (one JSON object per line)


def trace_to_jsonl(trace: list) -> str:
    import json

    lines = []
    for ev in trace:
        obj = {
            "time": ev.time,
            "dir": action_dir(ev.action),
            "kind": action_kind(ev.action) if not isinstance(ev.action, SilentA) else "chan",
            "channel": ev.channel,
            "payload": ev.payload(),
        }
        lines.append(json.dumps(obj))
    return "\n".join(lines) + ("\n" if lines else "")


def trace_from_jsonl(text: str) -> list:
    """Parse a serialized trace back into events (payload stays a string)."""
    import json

    events = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        chan, kind, dirn = obj["channel"], obj["kind"], obj["dir"]
        payload = obj.get("payload")
        if dirn == "silent":
            events.append(TraceEvent(obj["time"], SILENT, chan, payload))
            continue
        if kind == "label":
            act = SendLblA(chan, payload) if dirn == "send" else RecvLblA(chan, payload)
        elif kind == "close":
            act = SendCloseA(chan) if dirn == "send" else RecvCloseA(chan)
        elif kind == "value":
            val = OpaqueV("?", payload) if payload is not None else None
            act = SendValA(chan, val) if dirn == "send" else RecvValA(chan, val)
        else:
            act = SendChanA(chan, payload) if dirn == "send" else RecvChanA(chan, payload)
        events.append(TraceEvent(obj["time"], act, chan))
    return events
