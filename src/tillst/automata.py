"""Foreign components as timed automata, plus a trace-conformance monitor.

The parser reads each automaton into a ``syntax.AutomatonDef``.  Automata
carry one implicit clock that resets on every transition; a transition is
enabled once ``entry + guard_offset`` has passed.  The monitor walks a
session type along the observable events of one channel, binding each
connective's time binder to the actual instant of the exchange and evaluating
the next predicate under those bindings.
"""

from __future__ import annotations

from typing import Optional

from . import syntax as s
from . import temporal as t
from .parser import render_prop
from .record import record
from .syntax import AutomatonDef, SilentA


def transitions_from(defn: AutomatonDef, state: str) -> tuple:
    """The transitions out of ``state``, in declaration order."""
    return defn.moves.get(state, ())


def automaton_transitions(defn: AutomatonDef, state: str, entry: int, now: int) -> list:
    """Transitions whose lower-bound guard has been released by ``now``.
    Taking one resets the implicit clock (entry := now)."""
    return [tr for tr in transitions_from(defn, state)
            if entry + tr.guard_offset <= now]


# ---------------------------------------------------------------------------
# Trace conformance monitor


@record
class TraceObligation:
    type: s.SessionType


@record
class Conforms:
    pass


@record
class Violation:
    index: int
    reason: str
    failed_pred: Optional[str] = None

    def render(self) -> str:
        extra = f" ({self.failed_pred})" if self.failed_pred else ""
        return f"violation at event {self.index}: {self.reason}{extra}"


def monitor_trace(obl: TraceObligation, events: list):
    """Check one channel's chronological events against a session type.

    A channel trace records each exchange once, by its send half, as ``run``
    writes it: every event must be a send, and a value or channel exchange
    must carry its payload.  Each event must land in the current connective's
    window (with earlier binders fixed at their actual exchange instants) and
    carry the right kind of message; the trace must end exactly when the
    terminal close happens.
    Channels transmitted at tensor/lolli steps continue the main protocol on
    the continuation component; their own protocols run on other channels and
    are outside this event stream.  Binders are bound by name as the walk
    reaches them, so an inner binder shadows an outer one of the same name.
    """
    a = obl.type
    binds, last_time = {}, 0
    for idx, ev in enumerate(events):
        got, payload = ev.action.kind, ev.action.payload
        if isinstance(ev.action, SilentA):
            return Violation(idx, "silent event inside a channel trace")
        if ev.action.direction != "send":
            return Violation(idx, f"expected the send of an exchange, saw a {ev.action.direction}")
        if got in ("value", "chan") and payload is None:
            return Violation(idx, f"{got} exchange without a payload")
        if ev.time < last_time:
            return Violation(idx, f"event at {t.render_instant(ev.time)} "
                                  f"precedes {t.render_instant(last_time)}")
        last_time = ev.time
        if isinstance(a, s.TypeRef):
            return Violation(idx, f"unresolved type reference {a.name}")
        want = s.CONNECTIVES[type(a)].kind
        if got != want:
            return Violation(idx, f"expected a {want} exchange, saw {got}")
        binds[a.binder] = ev.time
        try:
            ok = t.eval_prop(a.pred, binds)
        except t.NonClosedError:
            return Violation(idx, "window predicate has unbound time variables")
        if not ok:
            return Violation(idx, f"time {t.render_instant(ev.time)} outside the window",
                             failed_pred=render_prop(t.close(a.pred, binds, a.binder)))
        if want == "close":
            if idx != len(events) - 1:
                return Violation(idx + 1, "events continue after close")
            return Conforms()
        parts = s.components(a)
        if want == "label":
            if payload not in ("L", "R"):
                return Violation(idx, "label exchange without a label")
            a = parts[0] if payload == "L" else parts[1]
        else:  # the continuation is the last component
            a = parts[-1]
    return Violation(len(events), "trace ended before the protocol closed")
