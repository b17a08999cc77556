"""Foreign components as timed automata, plus a trace-conformance monitor.

The parser reads each automaton into a ``syntax.AutomatonDef``.  Automata
carry one implicit clock that resets on every transition; a transition is
enabled once ``entry + guard_offset`` has passed.  The monitor checks that a
channel's events form a trace, and walks the session type along them with
``syntax.step``, which binds each connective's time binder to the actual
instant of the exchange and checks the exchange against its window.
"""

from __future__ import annotations

from . import syntax as s
from . import temporal as t
from .parser import render_prop
from .record import record
from .syntax import AutomatonDef, SilentA


def automaton_transitions(defn: AutomatonDef, state: str, entry: int, now: int) -> list:
    """Transitions whose lower-bound guard has been released by ``now``.
    Taking one resets the implicit clock (entry := now)."""
    return [tr for tr in defn.moves.get(state, ())
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
    failed_pred: str | None = None

    def render(self) -> str:
        extra = f" ({self.failed_pred})" if self.failed_pred else ""
        return f"violation at event {self.index}: {self.reason}{extra}"


def monitor_trace(obl: TraceObligation, events: list):
    """Check one channel's chronological events against a session type.

    A channel trace records each exchange once, by its send half, as ``run``
    writes it: every event must be a send, and a value or channel exchange
    must carry its payload.  Each event must be an exchange ``syntax.step``
    allows, and the trace must end exactly when the terminal close happens.
    Channels transmitted at tensor/lolli steps continue the main protocol on
    the continuation component; their own protocols run on other channels and
    are outside this event stream.
    """
    a, times, last_time = obl.type, {}, 0
    for idx, ev in enumerate(events):
        got, payload = ev.action.kind, ev.action.payload
        if a is None:
            return Violation(idx, "events continue after close")
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
        try:
            a = s.step(a, times, got, payload, ev.time)
        except s.ProtocolError as exc:
            window = None if exc.window is None else render_prop(exc.window)
            return Violation(idx, str(exc), failed_pred=window)
    if a is not None:
        return Violation(len(events), "trace ended before the protocol closed")
    return Conforms()
