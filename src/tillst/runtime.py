"""Configurations, the timed LTS, and a deterministic scheduler.

Computation happens at instants: provider forms fire at any instant satisfying
their predicate, client forms fire exactly at their annotation, and two leaves
holding complementary actions on the same channel reduce silently.  An action
is one record, ``syntax.Action(kind, direction, chan, payload)``: the message
kind (chan | label | close | value), send or recv, the channel, and the label,
the value or the sent channel's name; its complement swaps the direction.  The
silent action ``SILENT`` is the one ``SilentA``.  Automata run as the parser
built them: ``defs`` maps each name to its ``syntax.AutomatonDef``.

A configuration is a tuple of leaves, each a process (``ProcC``), a forwarder
(``FwdC``) or an automaton (``AutoC``) providing the channel its ``chan``
names.  Parallel composition is concatenation, with unit ``STOP = ()``; it is
associative and commutative, so ``congruence_normalize`` picks one canonical
form per class: every forwarder merged into the leaf providing its client
channel, found through one map from provided channel to leaf, then the
leaves sorted by provided channel.

One generator, ``reductions``, lists every step available at an instant, and
the scheduler, replay and the labelled view ``enumerate_transitions`` share
its single pass over the leaves.  It pairs each send with the receives
waiting for it by looking up the complementary action.  Its candidate order:
the solitary silent steps by leaf, then the exchanges by (sender, receiver)
leaf, stably sorted by (channel, kind, tag, payload) and deduplicated; then
the sends of providers whose channel no leaf uses, offered to the environment
as observable events, sorted the same way.  The scheduler takes the first
candidate (a ``tiebreak`` may pick another) until none is left at the current
clock.  One wait pass over the leaves then either blames a timing violation
or lists the pending instants, and the clock advances to the least of them.
Each run yields a replayable step sequence.

A process leaf carries an environment instead of rewritten continuations,
so its body is always a subterm of the program as parsed: when a provider
fires, its time binder is bound to the current tick; a received value is
bound to its variable; a received channel, a spawned child's channel and a
callee's parameters are bound to the runtime channels they stand for.
Predicates, annotations and expressions are evaluated, and channel names
resolved, under that environment.

Fresh channels are named ``#k`` with k derived from the configuration itself,
so replays and reorderings allocate identical names.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

from . import syntax as s
from . import temporal as t
from .automata import automaton_transitions, transitions_from
from .parser import render_prop
from .syntax import ACCEPT, Action, SilentA
from .temporal import NonClosedError, TillstError


class ValueEvalError(TillstError):
    """An expression or extern call could not be evaluated at runtime."""


class RuntimeInvariantError(TillstError):
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

    Automaton payloads depend only on (extern, channel), process-side
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

    def call_auto(self, name: str, chan: str) -> Value:
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
class Env:
    """A leaf's bindings: each fired time binder to the tick of its exchange,
    each received value variable to its value, each channel variable to the
    runtime channel it stands for.  Time, value and channel variables are
    separate namespaces, as in the source.  Never mutated."""

    times: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    chans: dict = field(default_factory=dict)

    def __hash__(self):
        return hash((frozenset(self.times.items()), frozenset(self.values.items()),
                     frozenset(self.chans.items())))

    def bind_time(self, name: str, tick: int) -> "Env":
        return Env({**self.times, name: tick}, self.values, self.chans)

    def bind_value(self, name: str, value: Value) -> "Env":
        return Env(self.times, {**self.values, name: value}, self.chans)

    def bind_chan(self, name: str, chan: str) -> "Env":
        return Env(self.times, self.values, {**self.chans, name: chan})

    def chan(self, name: str) -> str:
        """The runtime channel a body's channel name stands for; a name not
        bound here is its own runtime name."""
        return self.chans.get(name, name)

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
    chan: str
    client: str


@dataclass(frozen=True)
class AutoC:
    chan: str
    machine: str
    state: str
    entry: int


Configuration = tuple  # of leaves, as the module docstring says

STOP: Configuration = ()


def conf_leaves(omega: Configuration) -> list:
    """The leaves of a configuration, left to right."""
    return list(omega)


def congruence_normalize(omega: Configuration) -> Configuration:
    """Merge forwarders and sort the leaves by provided channel.

    Each forwarder, in turn, merges into the leaf providing its client
    channel, found through one map from provided channel to leaf; a merged
    forwarder is visited again, so chains collapse.  A forwarder whose client
    channel has no provider yet is left in place for the scheduler to resolve
    later.  Idempotent.
    """
    by_chan = {leaf.chan: leaf for leaf in omega}
    if len(by_chan) != len(omega):
        names = sorted(leaf.chan for leaf in omega)
        dup = next(a for a, b in zip(names, names[1:]) if a == b)
        raise RuntimeInvariantError(f"duplicate provider channel {dup}")
    work = [leaf for leaf in omega if isinstance(leaf, FwdC)]
    for fwd in work:  # visits the merged forwarders appended below
        other = by_chan.get(fwd.client)
        if by_chan.get(fwd.chan) is not fwd or other is None or other is fwd:
            continue
        del by_chan[fwd.client]
        by_chan[fwd.chan] = merged = replace(other, chan=fwd.chan)
        if isinstance(merged, FwdC):
            work.append(merged)
    return tuple(by_chan[chan] for chan in sorted(by_chan))


def clients_of(leaves: Configuration) -> set:
    """Channels some leaf uses from the client side."""
    used = set()
    for leaf in leaves:
        if isinstance(leaf, ProcC):
            used.update(map(leaf.env.chan, s.free_channels(leaf.body)))
        elif isinstance(leaf, FwdC):
            used.add(leaf.client)
    return used


# ---------------------------------------------------------------------------
# Actions (the record is ``syntax.Action``)


SILENT = SilentA()

_DUAL_DIR = {"send": "recv", "recv": "send"}


def complementary(alpha: Action) -> Action:
    """The other half of the same exchange."""
    if isinstance(alpha, SilentA):
        return alpha
    return Action(alpha.kind, _DUAL_DIR[alpha.direction], alpha.chan, alpha.payload)


def _partner(send: Action) -> Action:
    """The receive a send pairs with.  The receiver offers its own labels,
    but a sent value or channel is fixed by the send alone."""
    return complementary(send if send.kind == "label" else Action(send.kind, "send", send.chan))


@dataclass(frozen=True)
class TraceEvent:
    time: int
    action: Action
    channel: str
    tag: Optional[str] = None  # spawn / fwd / if for silent steps

    def payload(self) -> Optional[str]:
        """The payload as a trace line writes it; a silent step's tag."""
        if isinstance(self.action, SilentA):
            return self.tag
        p = self.action.payload
        return render_value(p) if self.action.kind == "value" and p is not None else p


# ---------------------------------------------------------------------------
# Local transitions


@dataclass
class LocalStep:
    action: Action  # SILENT for a solitary step
    fire: Callable  # payload -> list of replacement leaves
    tag: Optional[str] = None  # silent flavor


def _pred_holds_at(p: s.Process, env: Env, now: int) -> bool:
    """Whether provider ``p``'s window holds if it fires at ``now``."""
    try:
        return t.eval_prop(p.pred, {**env.times, p.binder: now})
    except NonClosedError as exc:
        raise RuntimeInvariantError(
            f"provider predicate {render_prop(p.pred)} not closed at runtime") from exc


def _proc_steps(leaf: ProcC, now: int, ext: ExternEnv, fresh: str) -> list:
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
        chan, direction = env.chan(p.chan), _DUAL_DIR[conn.provider_dir]
    else:
        return _silent_steps(leaf, now, ext, fresh)
    kind, sends = conn.kind, direction == "send"

    def step(fire, payload=None) -> LocalStep:
        return LocalStep(Action(kind, direction, chan, payload), fire)

    if kind == "close":
        return [step(lambda _: [] if sends else [ProcC(a, p.cont, env)])]
    if kind == "chan" and sends:
        return [step(lambda c: [ProcC(a, p.cont, env), ProcC(c, p.payload, env)], fresh)]
    if kind == "chan":
        # with no partner (c is None) the bound name stays unbound
        return [step(lambda c: [ProcC(a, p.cont, env if c is None else env.bind_chan(p.var, c))])]
    if kind == "label" and sends:
        return [step(lambda _: [ProcC(a, p.cont, env)], s.LABEL[form])]
    if kind == "label":
        return [step(lambda _, q=q: [ProcC(a, q, env)], lbl)
                for lbl, q in (("L", p.left), ("R", p.right))]
    if sends:
        return [step(lambda _: [ProcC(a, p.cont, env)], eval_expr(p.expr, ext, env.values))]
    return [step(lambda v: [ProcC(a, p.cont, env.bind_value(p.var, v))])]


def _silent_steps(leaf: ProcC, now: int, ext: ExternEnv, fresh: str) -> list:
    a, p, env = leaf.chan, leaf.body, leaf.env
    if isinstance(p, s.IfP):
        v = eval_expr(p.cond, ext, env.values)
        if not isinstance(v, BoolV):
            raise ValueEvalError("process conditional on a non-bool")
        branch = p.then if v.value else p.orelse
        return [LocalStep(SILENT, lambda _: [ProcC(a, branch, env)], "if")]
    if env.tick(p.at) != now:
        return []
    if isinstance(p, s.FwdP):
        return [LocalStep(SILENT, lambda _: [FwdC(a, env.chan(p.chan))], "fwd")]
    decl = ext.prog.proc_decl(p.callee)
    if decl is None:
        raise ValueEvalError(f"spawn of undeclared proc {p.callee}")

    def fire(_):
        params = {param: env.chan(arg) for (param, _), arg in zip(decl.params, p.args)}
        return [ProcC(fresh, decl.body, Env(chans=params)),
                ProcC(a, p.cont, env.bind_chan(p.bound, fresh))]

    return [LocalStep(SILENT, fire, "spawn")]


def _auto_steps(leaf: AutoC, now: int, ext: ExternEnv, defs: dict, fresh: str) -> list:
    defn = defs.get(leaf.machine)
    if defn is None:
        raise ValueEvalError(f"unknown automaton {leaf.machine}")
    steps = []
    for tr in automaton_transitions(defn, leaf.state, leaf.entry, now):
        nxt = [] if tr.dst == ACCEPT else [AutoC(leaf.chan, leaf.machine, tr.dst, now)]
        kind, direction, payload = tr.action.kind, tr.action.direction, tr.action.payload
        if direction == "send" and kind == "chan":
            payload = fresh
        elif direction == "send" and kind == "value":
            payload = ext.call_auto(tr.extern, leaf.chan)
        steps.append(LocalStep(Action(kind, direction, leaf.chan, payload), lambda _, n=nxt: n))
    return steps


def _leaf_steps(leaf, now: int, ext: ExternEnv, defs: dict, fresh: str) -> list:
    if isinstance(leaf, ProcC):
        return _proc_steps(leaf, now, ext, fresh)
    if isinstance(leaf, AutoC):
        return _auto_steps(leaf, now, ext, defs, fresh)
    return []  # FwdC resolves through congruence


def _local_steps(leaves: Configuration, now: int, ext: ExternEnv, defs: dict) -> tuple:
    """The one pass over the leaves: (the channels some leaf uses as a
    client, the fresh channel, each leaf's steps at ``now``).  A sent channel
    and a spawned child are both named by the fresh channel, the least ``#k``
    unused in the configuration, so replays and reorderings allocate
    identical names."""
    used = clients_of(leaves)
    taken = used.union(leaf.chan for leaf in leaves)
    k = 1
    while f"#{k}" in taken:
        k += 1
    fresh = f"#{k}"
    return used, fresh, [_leaf_steps(leaf, now, ext, defs, fresh) for leaf in leaves]


def enumerate_transitions(omega: Configuration, now: int,
                          env: Optional[ExternEnv] = None,
                          defs: Optional[dict] = None) -> list:
    """Root-level labelled steps available at this instant, each leaf's
    steps taken alone.  A receive stands for a family of transitions; its
    payload is None until a communication partner fixes it."""
    env = env or ExternEnv()
    defs = defs or {}
    _, _, per_leaf = _local_steps(omega, now, env, defs)
    out = []
    for i, steps in enumerate(per_leaf):
        for step in steps:
            rest = omega[:i] + omega[i + 1:]
            out.append((step.action, rest + tuple(step.fire(step.action.payload))))
    return out


def _step_sort_key(event: TraceEvent) -> tuple:
    return (event.channel, event.action.kind, event.tag or "", str(event.payload() or ""))


def reductions(omega: Configuration, now: int,
               env: Optional[ExternEnv] = None,
               defs: Optional[dict] = None) -> list:
    """Every step available at this instant, as (configuration, event)
    pairs in the candidate order the module docstring gives.  Configurations
    are congruence-normalized; an exchange's event records its send half."""
    env = env or ExternEnv()
    defs = defs or {}
    leaves = congruence_normalize(omega)
    used, fresh, per_leaf = _local_steps(leaves, now, env, defs)

    def after(fired: tuple, replaced: list) -> Configuration:
        return congruence_normalize([x for k, x in enumerate(leaves) if k not in fired]
                                    + replaced)

    receivers = {}
    for j, steps in enumerate(per_leaf):
        for rcv in steps:
            if rcv.action.direction == "recv":
                receivers.setdefault(rcv.action, []).append((j, rcv))
    comm, pairs, offered = [], [], []
    for i, steps in enumerate(per_leaf):
        own = leaves[i].chan
        for step in steps:
            a = step.action
            if isinstance(a, SilentA):
                chan = fresh if step.tag == "spawn" else own
                comm.append((after((i,), step.fire(None)), TraceEvent(now, a, chan, step.tag)))
                continue
            if a.direction != "send":
                continue
            pairs += [(i, j, step, rcv) for j, rcv in receivers.get(_partner(a), ()) if j != i]
            if a.chan == own and own not in used:
                offered.append((after((i,), step.fire(a.payload)), TraceEvent(now, a, a.chan)))
    pairs.sort(key=lambda m: m[:2])
    for i, j, snd, rcv in pairs:
        a = snd.action
        conf = after((i, j), snd.fire(a.payload) + rcv.fire(a.payload))
        comm.append((conf, TraceEvent(now, a, a.chan)))
    comm.sort(key=lambda c: _step_sort_key(c[1]))
    if len(comm) > 1:  # hashing a configuration walks every leaf's body
        comm = list(dict.fromkeys(comm))
    offered.sort(key=lambda c: _step_sort_key(c[1]))
    return comm + offered


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
    spine = []
    while not isinstance(s1, Refl):
        spine.append(s1)
        s1 = s1.rest
    return seq_prepend(spine, s2)


def seq_prepend(spine: list, tail: StepSequence) -> StepSequence:
    """The steps of ``spine`` in order, each continued by the next and the
    last by ``tail``; the ``rest`` each step carries is ignored."""
    for sig in reversed(spine):
        tail = replace(sig, rest=tail)
    return tail


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
    pc = lambda a, b: congruence_normalize(a + b)
    spine = []
    while not (isinstance(s1, Refl) and isinstance(s2, Refl)):
        if isinstance(s1, StepC):
            other = seq_start(s2)[1]
            spine.append(StepC(s1.time, pc(s1.before, other), pc(s1.after, other), None))
            s1 = s1.rest
        elif isinstance(s2, StepC):
            other = seq_start(s1)[1]
            spine.append(StepC(s2.time, pc(other, s2.before), pc(other, s2.after), None))
            s2 = s2.rest
        elif isinstance(s1, StepT) and (isinstance(s2, Refl) or s1.t2 <= s2.t2):
            spine.append(StepT(s1.t1, s1.t2, pc(s1.config, s2.config), None))
            if isinstance(s2, Refl):
                s2 = Refl(s1.t2, s2.config)
            elif s1.t2 < s2.t2:
                s2 = StepT(s1.t2, s2.t2, s2.config, s2.rest)
            else:
                s2 = s2.rest
            s1 = s1.rest
        else:  # s2 is a StepT ending first, or s1 is Refl
            spine.append(StepT(s2.t1, s2.t2, pc(s1.config, s2.config), None))
            if isinstance(s1, Refl):
                s1 = Refl(s2.t2, s1.config)
            else:
                s1 = StepT(s2.t2, s1.t2, s1.config, s1.rest)
            s2 = s2.rest
    return seq_prepend(spine, Refl(s1.time, pc(s1.config, s2.config)))


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
        want = norm(sigma.after)
        if nxt_t != sigma.time or norm(nxt_c) != want:
            return False
        if not any(conf == want for conf, _ in reductions(sigma.before, sigma.time, env, defs)):
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
        return (f"client instant {t.render_instant(self.client_time)} on {self.channel} "
                f"misses the provider window {self.provider_pred}")


@dataclass
class DeadlockInfo:
    time: int
    pending: list

    def render(self) -> str:
        what = "; ".join(self.pending) or "nothing enabled"
        return f"deadlock at {t.render_instant(self.time)}: {what}"


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


def _wait_pass(leaves: Configuration, now: int, horizon: int, defs: dict) -> tuple:
    """What the leaves wait for once the instant ``now`` has no step left:
    (a timing violation or None, the sorted instants after ``now`` at which a
    step may become available).

    Client, forward and spawn leaves come first.  One whose instant has passed
    was created after it and can never fire.  A client due now that did not
    exchange is blamed on the provider of its channel when the shapes
    complement; a shape mismatch stalls into deadlock instead.  Only then are
    automaton releases and the windows of providers sending to the
    environment read, so the solver runs after every violation check.
    """
    by_chan = {leaf.chan: leaf for leaf in leaves}
    pend = set()
    for leaf in leaves:
        if not isinstance(leaf, ProcC):
            continue
        p, form = leaf.body, type(leaf.body)
        if form not in s.USES and form not in (s.FwdP, s.SpawnP):
            continue
        tick = leaf.env.tick(p.at)
        if tick > now:
            pend.add(tick)
            continue
        chan = leaf.chan if form is s.SpawnP else leaf.env.chan(p.chan)
        if tick < now:
            return TimingViolationInfo(chan, tick, "<instant already passed>"), []
        if form not in s.USES:  # a forward or spawn due now has fired
            continue
        provider = by_chan.get(chan)
        if provider is None or provider is leaf:
            return TimingViolationInfo(chan, tick, "<no provider>"), []
        want = s.USES[form]
        if isinstance(provider, AutoC):
            conn = s.CONNECTIVES[want]
            guards = [tr.guard_offset
                      for tr in transitions_from(defs[provider.machine], provider.state)
                      if (tr.action.kind, tr.action.direction) == (conn.kind, conn.provider_dir)]
            if guards and provider.entry + min(guards) > now:
                return TimingViolationInfo(chan, tick, f"entry+{min(guards)} <= t", {"t": now}), []
        elif isinstance(provider, ProcC):
            q = provider.body
            if s.PROVIDES.get(type(q)) is want and not _pred_holds_at(q, provider.env, now):
                window = render_prop(provider.env.close(q.pred, q.binder))
                return TimingViolationInfo(chan, tick, window, {q.binder: now}), []
    used = clients_of(leaves)
    for leaf in leaves:
        if isinstance(leaf, AutoC):
            releases = (leaf.entry + tr.guard_offset
                        for tr in transitions_from(defs[leaf.machine], leaf.state))
            pend.update(r for r in releases if r > now)
        elif (isinstance(leaf, ProcC) and type(leaf.body) in s.PROVIDES
              and leaf.chan not in used
              and s.CONNECTIVES[s.PROVIDES[type(leaf.body)]].provider_dir == "send"):
            nxt = _earliest_enabled(leaf, now + 1, horizon)
            if nxt is not None:
                pend.add(nxt)
    return None, sorted(pend)


def run_scheduler(omega: Configuration, start: int = 0,
                  horizon: Optional[int] = None,
                  env: Optional[ExternEnv] = None,
                  defs: Optional[dict] = None,
                  tiebreak: Optional[Callable] = None) -> RunResult:
    """Deterministic execution: drain the current instant, then jump to the
    least pending one.  ``tiebreak`` may reorder same-instant firings (used by
    the confluence tests); the default takes the canonical first."""
    env = env or ExternEnv()
    defs = defs or {}
    if horizon is None:
        horizon = start + 10**6
    clock = start
    config = congruence_normalize(omega)
    steps = []  # StepC and StepT, each without its rest
    trace = []
    status, error = "done", None

    while True:
        while True:
            candidates = reductions(config, clock, env, defs)
            if not candidates:
                break
            pick = 0 if tiebreak is None else tiebreak(clock, candidates) % len(candidates)
            new_config, event = candidates[pick]
            steps.append(StepC(clock, config, new_config, None))
            trace.append(event)
            config = new_config
        if not config:
            break
        violation, pend = _wait_pass(config, clock, horizon, defs)
        if violation is not None:
            status, error = "timing_violation", violation
            break
        if not pend:
            stuck = sorted(describe_leaf(x) for x in config)
            status, error = "deadlock", DeadlockInfo(clock, stuck)
            break
        nxt = pend[0]
        if nxt > horizon:
            status = "horizon"
            break
        steps.append(StepT(clock, nxt, config, None))
        clock = nxt
    sigma = seq_prepend(steps, Refl(clock, config))
    return RunResult(status, trace, config, sigma, clock, error)


def describe_leaf(leaf) -> str:
    if isinstance(leaf, ProcC):
        return f"{leaf.chan}: {type(leaf.body).__name__}"
    if isinstance(leaf, AutoC):
        return f"{leaf.chan}: {leaf.machine}[{leaf.state}]"
    return f"{leaf.chan}: fwd {leaf.client}"


# ---------------------------------------------------------------------------
# Trace serialization (one JSON object per line)


def trace_to_jsonl(trace: list) -> str:
    import json

    lines = []
    for ev in trace:
        a = ev.action
        lines.append(json.dumps({
            "time": ev.time,
            "dir": a.direction,
            "kind": "chan" if isinstance(a, SilentA) else a.kind,
            "channel": ev.channel,
            "payload": ev.payload(),
        }))
    return "\n".join(lines) + ("\n" if lines else "")


class TraceFormatError(Exception):
    """A trace line that is not an event; the message starts with the line
    number."""


_TRACE_DIRS = ("send", "recv", "silent")
_TRACE_KINDS = ("chan", "label", "close", "value")


def trace_from_jsonl(text: str) -> list:
    """Parse a serialized trace back into events.  A received value's payload
    stays a string (as an opaque value); a silent event's payload is its tag."""
    import json

    events = []
    for n, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):  # not JSON, or nested too deep to decode
            obj = None
        if not isinstance(obj, dict):
            raise TraceFormatError(f"{n}: not a JSON object")
        try:
            time, dirn, kind, chan = obj["time"], obj["dir"], obj["kind"], obj["channel"]
        except KeyError as exc:
            raise TraceFormatError(f"{n}: missing key {exc.args[0]!r}") from None
        if type(time) is not int:
            raise TraceFormatError(f"{n}: time {time!r} is not an integer")
        if not isinstance(chan, str):
            raise TraceFormatError(f"{n}: channel {chan!r} is not a string")
        if dirn not in _TRACE_DIRS:
            raise TraceFormatError(f"{n}: dir {dirn!r} is not one of {', '.join(_TRACE_DIRS)}")
        if kind not in _TRACE_KINDS:
            raise TraceFormatError(f"{n}: kind {kind!r} is not one of {', '.join(_TRACE_KINDS)}")
        payload = obj.get("payload")
        if dirn == "silent":
            events.append(TraceEvent(time, SILENT, chan, payload))
            continue
        if kind == "close":
            payload = None
        elif kind == "value" and payload is not None:
            payload = OpaqueV("?", payload)
        events.append(TraceEvent(time, Action(kind, dirn, chan, payload), chan))
    return events
