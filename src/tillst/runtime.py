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
leaves sorted by provided channel, by the merge a step's delta makes.  Step
sequences hold configurations in this form and ``replay`` compares them as
recorded; only entry configurations and those trajectories compare are
normalized.

One index, built for one ``run_scheduler``, ``replay`` or ``reductions`` call
and dropped when it returns, generates the candidate steps of an instant and
applies the one taken.  It holds the configuration as the sorted tuple and as
a map from provided channel to leaf, a count per channel of the names by
which leaves use it as a client, the forwarders by the client channel they
wait for, and each leaf's local steps at the current instant, sends and
receives both keyed by the tuple ``(kind, channel, label)`` of the receive a
send pairs with (a send keeps its payload in the key only for a label, since
a sent value or channel is fixed by the send alone), so each send meets the
receives waiting for it by lookup, and no ``Action`` is built to find it.
A step's delta maps each channel whose leaf it changes to the new leaf or to
none: the fired leaves go, the new ones come, a new forwarder merges into the
provider of its client and a waiting forwarder into a new leaf providing its
client, as normalization would merge them.  The configuration after the
step is the held tuple with the delta spliced in by bisection on the
channel.  Taking the step places again only the delta's channels: their
steps are forgotten and read again when next asked for, and the client
counts and the sends offered to the environment change at those channels
alone.  So a step's Python work grows with the
leaves it touches, not with the system.  Every leaf's steps are read again
when the clock or the fresh name changes.  A body's free channels are
computed once per body node.  The candidate order: the solitary silent steps
by leaf, then the exchanges by (sender, receiver) leaf, stably sorted by
(channel, kind, tag, payload); then the sends of providers whose channel no
leaf uses, offered to the environment as observable events, sorted the same
way.  The index makes one list in that order, on which silent steps and
exchanges with equal configuration and event appear once (the first kept);
a candidate's delta and configuration are built only when read, so where at
most one silent step or exchange is listed the scheduler builds only the one
it takes.  The scheduler, replay and ``reductions`` all read that list: the
scheduler takes its first entry, or a ``tiebreak``'s pick, until none is
left at the current clock; replay takes the entry whose configuration is the
recorded one; and ``reductions`` returns it whole.  One wait pass over the
index's leaves then either blames a timing violation or lists the pending
instants, and the clock advances to the least of them.  A provider that
offers to the environment pends at the least instant its window holds, found
with no solver: the window is read at the instants where one of its atoms
changes truth.  Each run yields a replayable step sequence.

A process leaf carries an environment instead of rewritten continuations,
so its body is always a subterm of the program as parsed: when a provider
fires, its time binder is bound to the current tick; a received value is
bound to its variable; a received channel, a spawned child's channel and a
callee's parameters are bound to the runtime channels they stand for.
Predicates, annotations and expressions are evaluated, and channel names
resolved, under that environment.

Fresh channels are named ``#k`` with k derived from the configuration itself,
so replays and reorderings allocate identical names.

A trace is one JSON object per event and line.  ``trace_to_jsonl`` formats
each line directly, byte-identical to ``json.dumps`` of the event's object
under its defaults, and builds no dict per event.

Values, environments, leaves, trace events, step sequences and run results
are immutable ``record``s (``tillst.record``); a leaf's ``LocalStep`` is a
named tuple.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Callable
from operator import attrgetter

from . import syntax as s
from . import temporal as t
from .automata import automaton_transitions
from .parser import render_prop
from .record import field, record, replace
from .syntax import ACCEPT, Action, SilentA
from .temporal import NonClosedError, TillstError


class ValueEvalError(TillstError):
    """An expression or extern call could not be evaluated at runtime."""


class RuntimeInvariantError(TillstError):
    """Internal invariant broken (duplicate providers, open predicate)."""


# ---------------------------------------------------------------------------
# Values


@record
class BoolV:
    value: bool


@record
class IntV:
    value: int


@record
class OpaqueV:
    sort: str
    tag: str


Value = (BoolV, IntV, OpaqueV)


def render_value(v: Value) -> str:
    if isinstance(v, BoolV):
        return "true" if v.value else "false"
    if isinstance(v, IntV):
        try:
            return str(v.value)
        except ValueError:
            raise t.long_int_error(v.value) from None
    return v.tag


class ExternEnv:
    """Deterministic extern evaluation, seeded per run.

    Automaton payloads depend only on (extern, channel), process-side
    calls only on (extern, integer arguments), so values are stable under
    replay and under reordering of same-instant reductions.
    """

    def __init__(self, prog: s.Program | None = None, seed: int = 0):
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


def eval_expr(e: s.Expr, env: ExternEnv, scope: dict | None = None) -> Value:
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


@record
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


EMPTY_ENV = Env()


@record
class ProcC:
    chan: str
    body: s.Process
    env: Env = EMPTY_ENV


@record
class FwdC:
    chan: str
    client: str


@record
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
    """The leaves of ``omega`` added by one step to the empty configuration
    (see ``_merge``), sorted by provided channel; a forwarder whose client
    has no provider stays.  Idempotent.  Step sequences hold this form."""
    return _splice((), _merge({}, {}, (), omega))


# ---------------------------------------------------------------------------
# Actions (the record is ``syntax.Action``)


SILENT = SilentA()


@record
class TraceEvent:
    time: int
    action: Action
    channel: str
    tag: str | None = None  # spawn / fwd / if for silent steps

    def payload(self) -> str | None:
        """The payload as a trace line writes it; a silent step's tag."""
        if isinstance(self.action, SilentA):
            return self.tag
        p = self.action.payload
        return render_value(p) if self.action.kind == "value" and p is not None else p


# ---------------------------------------------------------------------------
# Local transitions


class LocalStep(namedtuple("LocalStep", "action fire tag", defaults=(None,))):
    """A leaf's local step: its ``action`` (SILENT for a solitary step),
    ``fire``, which maps a payload to the leaves that replace the leaf, and
    a silent step's flavor, ``tag``.  A tuple, not a ``record``: one is
    built per step, and a record's ``__init__`` costs more."""

    __slots__ = ()


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
    fixes the message kind, and the form's row whether the leaf sends."""
    a, p, env, form = leaf.chan, leaf.body, leaf.env, s.FORMS[type(leaf.body)]
    if form.conn is None:
        return _silent_steps(leaf, now, ext, fresh)
    if form.provides:
        if not _pred_holds_at(p, env, now):
            return []
        chan, env = a, env.bind_time(p.binder, now)
    elif env.tick(p.at) != now:
        return []
    else:
        chan = env.chan(p.chan)
    kind, sends = s.CONNECTIVES[form.conn].kind, form.sends

    def step(fire, payload=None) -> LocalStep:
        return LocalStep(Action(kind, "send" if sends else "recv", chan, payload), fire)

    if kind == "close":
        return [step(lambda _: [] if sends else [ProcC(a, p.cont, env)])]
    if kind == "chan" and sends:
        return [step(lambda c: [ProcC(a, p.cont, env), ProcC(c, p.payload, env)], fresh)]
    if kind == "chan":
        # with no partner (c is None) the bound name stays unbound
        return [step(lambda c: [ProcC(a, p.cont, env if c is None else env.bind_chan(p.var, c))])]
    if kind == "label" and sends:
        return [step(lambda _: [ProcC(a, p.cont, env)], form.label)]
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


def _client_uses(leaf, table: dict):
    """The channels ``leaf`` uses from the client side, once per name its
    body uses them by: its body's free channels, read from ``table`` (see
    ``syntax.free_channel_table``), under its channel bindings."""
    if isinstance(leaf, ProcC):
        fc, chans = s.free_channel_table(leaf.body, table), leaf.env.chans
        return fc if chans.keys().isdisjoint(fc) else [chans.get(x, x) for x in fc]
    if isinstance(leaf, FwdC):
        return (leaf.client,)
    return ()


def _fresh_name(provided, used) -> str:
    """The channel a sent channel and a spawned child are both named by: the
    least ``#k`` neither provided nor used, so replays and reorderings
    allocate identical names."""
    k = 1
    while f"#{k}" in provided or f"#{k}" in used:
        k += 1
    return f"#{k}"


def _step_sort_key(event: TraceEvent) -> tuple:
    return (event.channel, event.action.kind, event.tag or "", str(event.payload() or ""))


class _Candidate:
    """One step of the index's current instant: the leaves it fires, the
    local steps that replace them (a send's partner receive, if any) and its
    event.  ``rank`` is its place in the candidate order.  What it changes
    in the configuration (``delta``) and the configuration after it are
    built from the index, which must not move meanwhile, when first read."""

    __slots__ = ("index", "rank", "fired", "step", "partner", "payload", "event",
                 "_delta", "_config")

    def __init__(self, index, rank, fired, step, partner, payload, event):
        self.index, self.rank, self.fired, self.event = index, rank, fired, event
        self.step, self.partner, self.payload = step, partner, payload
        self._delta = self._config = None

    @property
    def delta(self) -> dict:
        """Each channel whose leaf this step changes, mapped to its new leaf
        or to None (see ``_Index.delta``)."""
        if self._delta is None:
            replaced = self.step.fire(self.payload)
            if self.partner is not None:
                replaced = replaced + self.partner.fire(self.payload)
            self._delta = self.index.delta(self.fired, replaced)
        return self._delta

    @property
    def config(self) -> Configuration:
        """The normalized configuration after this step: the index's, with
        ``delta`` spliced in."""
        if self._config is None:
            self._config = _splice(self.index.conf, self.delta)
        return self._config


_by_rank = attrgetter("rank")
_by_chan = attrgetter("chan")


def _splice(conf: Configuration, delta: dict) -> Configuration:
    """``conf`` with the leaf at each channel of ``delta`` replaced by the
    channel's entry there, or dropped where the entry is None.  Each channel
    is found by bisection, so the leaves stay sorted by channel."""
    out, pos = [], 0
    for chan in sorted(delta):
        i = bisect_left(conf, chan, pos, key=_by_chan)
        out += conf[pos:i]
        pos = i + 1 if i < len(conf) and conf[i].chan == chan else i
        if delta[chan] is not None:
            out.append(delta[chan])
    out += conf[pos:]
    return tuple(out)


def _merge(held: dict, forwards: dict, fired: tuple, replaced) -> dict:
    """What a step that fires the leaves at ``fired`` and adds ``replaced``
    changes in the normalized configuration ``held`` (by provided channel;
    ``forwards``: its forwarders by client): each channel whose leaf changes,
    mapped to its new leaf or None.  The least duplicate channel is named.
    Each forwarder merges into its client's provider: the held ones whose
    client a new leaf provides, by channel, then the new ones; a merged
    forwarder is visited again, so chains collapse."""
    delta, dup = dict.fromkeys(fired), set()
    for leaf in replaced:
        chan = leaf.chan
        if delta.get(chan) is not None or (chan not in delta and chan in held):
            dup.add(chan)
        delta[chan] = leaf
    if dup:
        raise RuntimeInvariantError(f"duplicate provider channel {min(dup)}")
    work = [held[f] for leaf in replaced for f in forwards.get(leaf.chan, ())
            if f not in delta]
    work.sort(key=_by_chan)
    work += [leaf for leaf in replaced if isinstance(leaf, FwdC)]
    for fwd in work:  # visits the merged forwarders appended below
        other = delta[fwd.client] if fwd.client in delta else held.get(fwd.client)
        here = delta[fwd.chan] if fwd.chan in delta else held.get(fwd.chan)
        if here is not fwd or other is None or other is fwd:
            continue
        delta[fwd.client] = None
        delta[fwd.chan] = merged = replace(other, chan=fwd.chan)
        if isinstance(merged, FwdC):
            work.append(merged)
    return delta


def _leaf_at(conf: Configuration, chan: str):
    """The leaf of ``conf`` providing ``chan``, or None."""
    i = bisect_left(conf, chan, key=_by_chan)
    return conf[i] if i < len(conf) and conf[i].chan == chan else None


class _Index:
    """The state of one ``run_scheduler``, ``replay`` or ``reductions`` call,
    dropped when the call returns.

    It holds the normalized configuration ``conf`` and the map ``leaves``
    from provided channel to leaf; per channel, the number of names by which
    leaves use it as a client (``clients``); the forwarders by their client
    channel, which no leaf provides (``forwards``); and the leaves' steps at
    the instant ``now``, registered by kind: silent steps by leaf, receives
    by ``(kind, channel, payload)`` (``recv``), sends by the same fields of
    the receive they pair with, the payload kept only for a label
    (``sends``), the keys the two share (``matched``), sends on the sender's
    own channel by leaf (``offers``), the channels of those no leaf uses,
    which are offered to the environment (``offered``).  Bodies' free
    channels are read from a table kept per body node (``free``).

    Only the entry configuration is normalized; replay compares the others
    as recorded.  A step changes it by its ``delta`` (``_merge``): its fired
    leaves go, its new leaves come, and the forwarders they let merge merge.
    Taking the step splices the delta into ``conf`` and places again only
    the delta's channels: their steps are forgotten and read again when next
    asked for, and the client counts and the offered set change at those
    channels alone.  All steps are read again when the clock or the fresh
    name changes.
    """

    def __init__(self, omega: Configuration, now: int, ext: ExternEnv, defs: dict):
        self.ext, self.defs, self.now = ext, defs, now
        self.free = {}
        self.conf = congruence_normalize(omega)
        self.leaves, self.clients, self.forwards = {}, {}, {}
        self.regs, self.stale = {}, set()  # per leaf, the table entries of its steps
        self.silent, self.sends, self.recv, self.matched = {}, {}, {}, set()
        self.offers, self.offered = {}, set()
        for leaf in self.conf:
            self._place(leaf.chan, leaf)
        self.fresh = _fresh_name(self.leaves, self.clients)

    def delta(self, fired: tuple, replaced: list) -> dict:
        """What a step that fires the leaves at ``fired`` and adds the leaves
        ``replaced`` changes (see ``_merge``)."""
        return _merge(self.leaves, self.forwards, fired, replaced)

    def _place(self, chan: str, leaf) -> None:
        """Put ``leaf`` (None: no leaf) at ``chan`` in place of the leaf
        there, counting the channels it uses instead of that leaf's."""
        self._forget_steps(chan)
        old = self.leaves.pop(chan, None)
        if isinstance(old, FwdC):
            waiting = self.forwards[old.client]
            waiting.discard(chan)
            if not waiting:
                del self.forwards[old.client]
        if leaf is not None:
            self.leaves[chan] = leaf
            self.stale.add(chan)
            if isinstance(leaf, FwdC):
                self.forwards.setdefault(leaf.client, set()).add(chan)
        if isinstance(old, ProcC) and isinstance(leaf, ProcC) and old.env.chans is leaf.env.chans:
            # a process that moved on within its body under the same bindings
            # stops using at most its old node's own channels
            left = s.channels_left(old.body, leaf.body, self.free)
            if left is not None:
                if left:
                    self._count(map(leaf.env.chan, left), -1)
                return
        self._count(_client_uses(old, self.free), -1)
        self._count(_client_uses(leaf, self.free), 1)

    def _count(self, chans, by: int) -> None:
        """Add ``by`` to the client count of each of ``chans``; a channel's
        sends are offered to the environment while its count is zero."""
        clients, offered = self.clients, self.offered
        for x in chans:
            n = clients.get(x, 0) + by
            if n:
                clients[x] = n
                offered.discard(x)
            else:
                del clients[x]
                if x in self.offers:
                    offered.add(x)

    def _register(self, table: dict, key, chan: str, entry: tuple) -> None:
        table.setdefault(key, {}).setdefault(chan, []).append(entry)
        self.regs.setdefault(chan, []).append((table, key))
        if key in self.sends and key in self.recv:
            self.matched.add(key)

    def _forget_steps(self, chan: str) -> None:
        for table, key in self.regs.pop(chan, ()):
            by_leaf = table.get(key)
            if by_leaf is not None and by_leaf.pop(chan, None) is not None and not by_leaf:
                del table[key]
                self.matched.discard(key)
        self.silent.pop(chan, None)
        self.offers.pop(chan, None)
        self.offered.discard(chan)
        self.stale.discard(chan)

    def _read_stale(self) -> None:
        """Read the steps of the leaves whose steps are not known, in channel
        order, so an error names the leaf a full pass would name first."""
        for chan in sorted(self.stale):
            steps = _leaf_steps(self.leaves[chan], self.now, self.ext, self.defs, self.fresh)
            for k, step in enumerate(steps):
                a = step.action
                if isinstance(a, SilentA):
                    self.silent.setdefault(chan, []).append((k, step))
                elif a.direction == "recv":
                    self._register(self.recv, (a.kind, a.chan, a.payload), chan, (k, step))
                else:
                    # the receiver offers its own labels, but a sent value or
                    # channel is fixed by the send alone
                    key = (a.kind, a.chan, a.payload if a.kind == "label" else None)
                    self._register(self.sends, key, chan, (k, step))
                    if a.chan == chan:
                        self.offers.setdefault(chan, []).append((k, step))
                        if chan not in self.clients:
                            self.offered.add(chan)
        self.stale.clear()

    def _forget_all_steps(self) -> None:
        for table in (self.regs, self.silent, self.sends, self.recv, self.matched,
                      self.offers, self.offered):
            table.clear()
        self.stale = set(self.leaves)

    def advance(self, now: int) -> None:
        """Move the clock to ``now``."""
        self.now = now
        self._forget_all_steps()

    def candidates(self) -> list:
        """Every step at the current instant, in the candidate order of the
        module docstring: the silent steps and exchanges, of which those with
        equal configuration and event are listed once (the first kept), then
        the sends offered to the environment."""
        self._read_stale()
        now, comm, offered = self.now, [], []
        for i, steps in self.silent.items():
            for k, step in steps:
                event = TraceEvent(now, SILENT, self.fresh if step.tag == "spawn" else i, step.tag)
                comm.append(_Candidate(self, (_step_sort_key(event), 0, i, k), (i,), step,
                                       None, None, event))
        for key in self.matched:
            receivers = self.recv[key]
            for i, sends in self.sends[key].items():
                for k, step in sends:
                    a = step.action
                    event = TraceEvent(now, a, a.chan)
                    rank = _step_sort_key(event)
                    comm += [_Candidate(self, (rank, 1, i, j, k, kj), (i, j), step, rcv,
                                        a.payload, event)
                             for j, rcvs in receivers.items() if j != i for kj, rcv in rcvs]
        for i in self.offered:
            for k, step in self.offers[i]:
                event = TraceEvent(now, step.action, i)
                offered.append(_Candidate(self, (_step_sort_key(event), i, k), (i,), step, None,
                                          step.action.payload, event))
        comm.sort(key=_by_rank)
        if len(comm) > 1:  # hashing a configuration walks every leaf's body
            first = {}
            comm = [c for c in comm if first.setdefault((c.config, c.event), c) is c]
        offered.sort(key=_by_rank)
        return comm + offered

    def take(self, cand: _Candidate, conf: Configuration | None = None) -> None:
        """Make the configuration after ``cand`` current, held as the equal
        configuration ``conf`` if given.  Only the channels of the
        candidate's delta are placed again, with ``conf``'s leaves there if
        it is given."""
        if conf is None:
            self.conf, placed = cand.config, cand.delta.items()
        else:
            self.conf, placed = conf, [(chan, _leaf_at(conf, chan)) for chan in cand.delta]
        for chan, leaf in placed:
            if self.leaves.get(chan) is not leaf:
                self._place(chan, leaf)
        fresh = _fresh_name(self.leaves, self.clients)
        if fresh != self.fresh:
            self.fresh = fresh
            self._forget_all_steps()


def reductions(omega: Configuration, now: int,
               env: ExternEnv | None = None,
               defs: dict | None = None) -> list:
    """Every step available at this instant, as (configuration, event)
    pairs in the candidate order the module docstring gives.  Configurations
    are congruence-normalized; an exchange's event records its send half."""
    index = _Index(omega, now, env or ExternEnv(), defs or {})
    return [(cand.config, cand.event) for cand in index.candidates()]


# ---------------------------------------------------------------------------
# Step sequences (multistep reduction proof terms)


@record
class Refl:
    time: int
    config: Configuration


@record
class StepT:
    t1: int
    t2: int
    config: Configuration
    rest: "StepSequence"


@record
class StepC:
    time: int
    before: Configuration
    after: Configuration
    rest: "StepSequence"


StepSequence = (Refl, StepT, StepC)


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


def replay(sigma: StepSequence, env: ExternEnv | None = None,
           defs: dict | None = None) -> bool:
    """Check every instantaneous step is derivable (as a communication or as
    an environment-facing send) and every clock advance is non-decreasing.

    Only the entry configuration is normalized; the others are compared as
    recorded, so one congruent to its normal form but not in it fails."""
    env = env or ExternEnv()
    index = None  # the configuration each checked step leads to
    while not isinstance(sigma, Refl):
        if isinstance(sigma, StepT):
            if sigma.t1 > sigma.t2:
                return False
            nxt_t, nxt_c = seq_start(sigma.rest)
            if nxt_t != sigma.t2 or (nxt_c is not sigma.config and nxt_c != sigma.config):
                return False
            if index is not None:
                index.advance(sigma.t2)
            sigma = sigma.rest
            continue
        nxt_t, nxt_c = seq_start(sigma.rest)
        want = sigma.after
        if nxt_t != sigma.time or (nxt_c is not want and nxt_c != want):
            return False
        if index is None:
            index = _Index(sigma.before, sigma.time, env, defs or {})
        match = next((cand for cand in index.candidates() if cand.config == want), None)
        if match is None:
            return False
        index.take(match, want)  # later steps then compare identical leaves
        sigma = sigma.rest
    return True


# ---------------------------------------------------------------------------
# Scheduler


@record
class TimingViolationInfo:
    channel: str
    client_time: int
    provider_pred: str
    counterexample: dict | None = None

    def render(self) -> str:
        return (f"client instant {t.render_instant(self.client_time)} on {self.channel} "
                f"misses the provider window {self.provider_pred}")


@record
class DeadlockInfo:
    time: int
    pending: list

    def render(self) -> str:
        what = "; ".join(self.pending) or "nothing enabled"
        return f"deadlock at {t.render_instant(self.time)}: {what}"


@record
class HorizonInfo:
    next_instant: int
    horizon: int

    def render(self) -> str:
        return (f"next pending instant {t.render_instant(self.next_instant)} is past "
                f"the horizon {t.render_instant(self.horizon)}")


@record
class RunResult:
    status: str  # done | timing_violation | deadlock | horizon
    trace: list
    final: Configuration
    sigma: StepSequence
    end_time: int
    error: object | None = None

    @property
    def ok(self) -> bool:
        return self.status == "done"


def _earliest_enabled(leaf: ProcC, lo: int) -> int | None:
    """Least instant >= lo at which the provider leaf's window holds, or None.

    Closed under the fired binders, each atom of the window either is
    constant in the leaf's binder or bounds the binder, shifted by a, by an
    instant k, and then changes truth only at k - a or k - a + 1.  Between
    consecutive cuts the window's truth is constant, so the least instant
    is lo or a cut after it.
    """
    p = leaf.body
    cuts = set()
    for atom in t.atoms(t.close(p.pred, leaf.env.times, p.binder)):
        for e, k in ((atom.left, atom.right), (atom.right, atom.left)):
            if e.var == p.binder and k.var is None:
                cuts.update((k.offset - e.offset, k.offset - e.offset + 1))
    for cand in [lo, *sorted(c for c in cuts if c > lo)]:
        if _pred_holds_at(p, leaf.env, cand):
            return cand
    return None


def _wait_pass(index: _Index) -> tuple:
    """What the index's leaves wait for once its instant has no step left:
    (a timing violation or None, the sorted instants after it at which a
    step may become available).

    Client, forward and spawn leaves come first.  One whose instant has passed
    was created after it and can never fire.  A client due now that did not
    exchange is blamed on the provider of its channel when the shapes
    complement; a shape mismatch stalls into deadlock instead.  Only then are
    automaton releases and the windows of providers sending to the
    environment read: such a provider pends at the least later instant its
    window holds (``_earliest_enabled``), exactly, whatever the horizon.
    """
    leaves, by_chan, now, defs = index.conf, index.leaves, index.now, index.defs
    pend = set()
    for leaf in leaves:
        if not isinstance(leaf, ProcC):
            continue
        p, form = leaf.body, s.FORMS[type(leaf.body)]
        if form.provides or form.cls is s.IfP:
            continue
        tick = leaf.env.tick(p.at)
        if tick > now:
            pend.add(tick)
            continue
        chan = leaf.chan if form.cls is s.SpawnP else leaf.env.chan(p.chan)
        if tick < now:
            return TimingViolationInfo(chan, tick, "<instant already passed>"), []
        if form.conn is None:  # a forward or spawn due now has fired
            continue
        provider = by_chan.get(chan)
        if provider is None or provider is leaf:
            return TimingViolationInfo(chan, tick, "<no provider>"), []
        if isinstance(provider, AutoC):
            conn = s.CONNECTIVES[form.conn]
            guards = [tr.guard_offset
                      for tr in defs[provider.machine].moves.get(provider.state, ())
                      if (tr.action.kind, tr.action.direction) == (conn.kind, conn.provider_dir)]
            if guards and provider.entry + min(guards) > now:
                return TimingViolationInfo(chan, tick, f"entry+{min(guards)} <= t", {"t": now}), []
        elif isinstance(provider, ProcC):
            q = provider.body
            qf = s.FORMS[type(q)]
            if qf.provides and qf.conn is form.conn and not _pred_holds_at(q, provider.env, now):
                window = render_prop(t.close(q.pred, provider.env.times, q.binder))
                return TimingViolationInfo(chan, tick, window, {q.binder: now}), []
    for leaf in leaves:
        if isinstance(leaf, AutoC):
            releases = (leaf.entry + tr.guard_offset
                        for tr in defs[leaf.machine].moves.get(leaf.state, ()))
            pend.update(r for r in releases if r > now)
        elif (isinstance(leaf, ProcC) and leaf.chan not in index.clients
              and (form := s.FORMS[type(leaf.body)]).provides and form.sends):
            nxt = _earliest_enabled(leaf, now + 1)
            if nxt is not None:
                pend.add(nxt)
    return None, sorted(pend)


def run_scheduler(omega: Configuration, start: int = 0,
                  horizon: int | None = None,
                  env: ExternEnv | None = None,
                  defs: dict | None = None,
                  tiebreak: Callable | None = None) -> RunResult:
    """Deterministic execution: drain the current instant, then jump to the
    least pending one.  ``tiebreak`` may reorder same-instant firings (used by
    the confluence tests); the default takes the canonical first."""
    env = env or ExternEnv()
    defs = defs or {}
    if horizon is None:
        horizon = start + 10**6
    clock = start
    index = _Index(omega, start, env, defs)
    steps = []  # StepC and StepT, each without its rest
    trace = []
    status, error = "done", None

    while True:
        while cands := index.candidates():
            pick = 0 if tiebreak is None else tiebreak(clock, [(c.config, c.event) for c in cands])
            chosen = cands[pick % len(cands)]
            steps.append(StepC(clock, index.conf, chosen.config, None))
            trace.append(chosen.event)
            index.take(chosen)
        config = index.conf
        if not config:
            break
        violation, pend = _wait_pass(index)
        if violation is not None:
            status, error = "timing_violation", violation
            break
        if not pend:
            stuck = sorted(describe_leaf(x) for x in config)
            status, error = "deadlock", DeadlockInfo(clock, stuck)
            break
        nxt = pend[0]
        if nxt > horizon:
            status, error = "horizon", HorizonInfo(nxt, horizon)
            break
        steps.append(StepT(clock, nxt, config, None))
        clock = nxt
        index.advance(clock)
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
    """One line per event, each ending in ``"\\n"``: the text ``json.dumps``
    makes, under its defaults, of the event's object, formatted directly.
    ``dir`` and ``kind`` come from fixed vocabularies and ``time`` is an int,
    so only ``channel`` and ``payload`` are escaped, by the function
    ``json.dumps`` applies to a str."""
    from json.encoder import encode_basestring_ascii as quote

    lines = []
    try:
        for ev in trace:
            a, p = ev.action, ev.payload()
            kind = "chan" if isinstance(a, SilentA) else a.kind
            lines.append(f'{{"time": {ev.time}, "dir": "{a.direction}", "kind": "{kind}", '
                         f'"channel": {quote(ev.channel)}, '
                         f'"payload": {"null" if p is None else quote(p)}}}\n')
    except ValueError:  # only an int converts with a ValueError
        raise t.long_int_error(ev.time) from None
    return "".join(lines)


class TraceFormatError(Exception):
    """A trace line that is not an event; the message starts with the line
    number."""


_TRACE_DIRS = ("send", "recv", "silent")
_TRACE_KINDS = ("chan", "label", "close", "value")


def trace_from_jsonl(text: str) -> list:
    """Parse a serialized trace back into events.  A received value's payload
    stays a string (as an opaque value); a silent event's payload is its tag.
    Lines end at ``"\\n"`` only (``strip`` drops a ``"\\r"`` before it): a
    JSON string may hold U+0085, U+2028 and U+2029 raw, and ``splitlines``
    would split at each of them."""
    import json

    events = []
    for n, line in enumerate(text.split("\n"), 1):
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
        if payload is not None and not isinstance(payload, str):
            raise TraceFormatError(f"{n}: payload {payload!r} is not a string or null")
        if dirn == "silent":
            events.append(TraceEvent(time, SILENT, chan, payload))
            continue
        if kind == "close":
            payload = None
        elif kind == "value" and payload is not None:
            payload = OpaqueV("?", payload)
        events.append(TraceEvent(time, Action(kind, dirn, chan, payload), chan))
    return events
