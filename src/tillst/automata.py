"""Foreign components as timed automata, plus a trace-conformance monitor.

Automata carry one implicit clock that resets on every transition; a
transition is enabled once ``entry + guard_offset`` has passed.  The monitor
walks a session type along the observable events of one channel, binding each
connective's time binder to the actual instant of the exchange and evaluating
the next predicate under those bindings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from . import syntax as s
from . import temporal as t

ACCEPT = "accept"


class AutomatonError(Exception):
    """Malformed automaton declaration."""


@dataclass(frozen=True)
class ActionTemplate:
    kind: str  # label | value | close | chan
    direction: str  # send | recv
    label: Optional[str] = None
    extern: Optional[str] = None

    def render(self) -> str:
        mark = "!" if self.direction == "send" else "?"
        if self.kind == "label":
            return mark + self.label
        if self.kind == "close":
            return mark + "cls"
        if self.kind == "chan":
            return mark + "chan"
        return f"!val({self.extern})" if self.direction == "send" else "?val"


@dataclass(frozen=True)
class AutoTransition:
    src: str
    guard_offset: int
    template: ActionTemplate
    dst: str  # state name or ACCEPT


@dataclass(frozen=True)
class AutomatonDef:
    name: str
    states: tuple
    initial: str
    transitions: tuple

    @property
    def externs(self) -> dict:
        return {(tr.src, tr.dst): tr.template.extern
                for tr in self.transitions if tr.template.extern}


def parse_action_template(text: str) -> ActionTemplate:
    m = re.fullmatch(r"([?!])(L|R|cls|chan|val(?:\(([A-Za-z_][A-Za-z0-9_]*)\))?)", text)
    if not m:
        raise AutomatonError(f"unparseable action template {text!r}")
    direction = "send" if m.group(1) == "!" else "recv"
    body = m.group(2)
    if body in ("L", "R"):
        return ActionTemplate("label", direction, label=body)
    if body == "cls":
        return ActionTemplate("close", direction)
    if body == "chan":
        return ActionTemplate("chan", direction)
    extern = m.group(3)
    if direction == "send" and not extern:
        raise AutomatonError("value sends must name their extern: !val(name)")
    return ActionTemplate("value", direction, extern=extern)


def builtin_bme680() -> AutomatonDef:
    """The environment sensor: configure (L = temperature only, R = plus air
    quality), report readings, then shut down; heating takes 30 ticks and the
    cool-down 20."""
    tr = [
        AutoTransition("S0", 0, ActionTemplate("label", "recv", label="L"), "S1"),
        AutoTransition("S0", 0, ActionTemplate("label", "recv", label="R"), "S2"),
        AutoTransition("S1", 0, ActionTemplate("value", "send", extern="read_temp"), "S3"),
        AutoTransition("S3", 0, ActionTemplate("close", "send"), ACCEPT),
        AutoTransition("S2", 0, ActionTemplate("value", "send", extern="read_temp"), "S4"),
        AutoTransition("S4", 30, ActionTemplate("value", "send", extern="read_gas"), "S5"),
        AutoTransition("S5", 20, ActionTemplate("close", "send"), ACCEPT),
    ]
    return AutomatonDef("bme680", ("S0", "S1", "S2", "S3", "S4", "S5", ACCEPT),
                        "S0", tuple(tr))


def transitions_from(defn: AutomatonDef, state: str) -> list:
    return [tr for tr in defn.transitions if tr.src == state]


def automaton_transitions(defn: AutomatonDef, state: str, entry: int, now: int) -> list:
    """Transitions whose lower-bound guard has been released by ``now``.
    Taking one resets the implicit clock (entry := now)."""
    return [tr for tr in transitions_from(defn, state)
            if entry + tr.guard_offset <= now]


def load_automata(prog: s.Program) -> dict:
    """Validate surface automaton declarations into definitions."""
    out = {}
    extern_names = {d.name for d in prog.externs}
    for decl in prog.automata:
        if len(set(decl.states)) != len(decl.states):
            raise AutomatonError(f"automaton {decl.name} has duplicate states")
        states = set(decl.states)
        if decl.initial not in states:
            raise AutomatonError(f"{decl.name}: unknown initial state {decl.initial}")
        transitions = []
        for tr in decl.transitions:
            if tr.src not in states:
                raise AutomatonError(f"{decl.name}: transition from unknown state {tr.src}")
            if tr.dst != ACCEPT and tr.dst not in states:
                raise AutomatonError(f"{decl.name}: transition to unknown state {tr.dst}")
            if tr.guard_offset < 0:
                raise AutomatonError(f"{decl.name}: negative guard offset")
            template = parse_action_template(tr.action)
            if template.extern and template.extern not in extern_names:
                raise AutomatonError(
                    f"{decl.name}: undeclared extern {template.extern}")
            transitions.append(AutoTransition(tr.src, tr.guard_offset, template, tr.dst))
        out[decl.name] = AutomatonDef(
            decl.name,
            tuple(decl.states) + ((ACCEPT,) if ACCEPT not in decl.states else ()),
            decl.initial, tuple(transitions))
    return out


# ---------------------------------------------------------------------------
# Trace conformance monitor


@dataclass
class TraceObligation:
    type: s.SessionType
    current_time: int = 0
    bound_times: Optional[dict] = None


@dataclass(frozen=True)
class Conforms:
    pass


@dataclass(frozen=True)
class Violation:
    index: int
    reason: str
    failed_pred: Optional[str] = None

    def render(self) -> str:
        extra = f" ({self.failed_pred})" if self.failed_pred else ""
        return f"violation at event {self.index}: {self.reason}{extra}"


def monitor_trace(obl: TraceObligation, events: list):
    """Check one channel's chronological events against a session type.

    Each event must land in the current connective's window (with earlier
    binders fixed at their actual exchange instants) and carry the right kind
    of message; the trace must end exactly when the terminal close happens.
    Channels transmitted at tensor/lolli steps continue the main protocol on
    the continuation component; their own protocols run on other channels and
    are outside this event stream.  Binders are bound by name as the walk
    reaches them, so an inner binder shadows an outer one of the same name.
    """
    from .runtime import action_kind

    a = obl.type
    binds = dict(obl.bound_times or {})
    last_time = obl.current_time
    for idx, ev in enumerate(events):
        from .runtime import SilentA

        if isinstance(ev.action, SilentA):
            return Violation(idx, "silent event inside a channel trace")
        if ev.time < last_time:
            return Violation(idx, f"event at t0+{ev.time} precedes t0+{last_time}")
        last_time = ev.time
        if isinstance(a, s.TypeRef):
            return Violation(idx, f"unresolved type reference {a.name}")
        if a is None:
            return Violation(idx, "event after the protocol already closed")
        want = s.CONNECTIVES[type(a)].kind
        got = action_kind(ev.action)
        if got != want:
            return Violation(idx, f"expected a {want} exchange, saw {got}")
        binds[a.binder] = ev.time
        try:
            ok = t.eval_prop(a.pred, binds)
        except t.NonClosedError:
            return Violation(idx, "window predicate has unbound time variables")
        if not ok:
            from .parser import render_prop

            pred = t.substitute_all(a.pred, {x: t.init_plus(n) for x, n in binds.items()
                                             if x != a.binder})
            return Violation(idx, f"time t0+{ev.time} outside the window",
                             failed_pred=render_prop(pred))
        if want == "close":
            if idx != len(events) - 1:
                return Violation(idx + 1, "events continue after close")
            return Conforms()
        parts = s.components(a)
        if want == "label":
            label = getattr(ev.action, "label", None)
            if label not in ("L", "R"):
                return Violation(idx, "label exchange without a label")
            a = parts[0] if label == "L" else parts[1]
        else:  # the continuation is the last component
            a = parts[-1]
    return Violation(len(events), "trace ended before the protocol closed")
