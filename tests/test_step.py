"""The protocol stepper ``syntax.step``, and the monitor that walks a trace
with it."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tillst import syntax as s
from tillst import temporal as t
from tillst.automata import Conforms, TraceObligation, Violation, monitor_trace
from tillst.parser import render_prop
from tillst.runtime import Action, IntV, TraceEvent

T0 = t.INIT
LEAVES = (s.UnitT("u0", t.TOP), s.UnitT("u1", t.TOP))
# a payload each message kind may carry; "L" picks a choice's left branch
PAYLOAD = {"close": None, "chan": "d", "label": "L", "value": IntV(7)}


def node(cls, binder: str, pred: t.Prop, parts: tuple = LEAVES):
    """A ``cls`` node over the first components of ``parts``; a value
    connective carries an int."""
    conn = s.CONNECTIVES[cls]
    fields = dict(zip(conn.components, parts))
    if conn.kind == "value":
        fields["payload"] = s.INT
    return cls(binder=binder, pred=pred, **fields)


CONNECTIVES = pytest.mark.parametrize("cls", list(s.CONNECTIVES), ids=lambda c: c.__name__)
CHOICES = pytest.mark.parametrize("cls", [s.IChoiceT, s.EChoiceT], ids=lambda c: c.__name__)


class TestStep:
    @CONNECTIVES
    def test_continuation(self, cls):
        conn = s.CONNECTIVES[cls]
        times = {}
        after = s.step(node(cls, "t", t.TOP), times, conn.kind, PAYLOAD[conn.kind], 3)
        assert times == {"t": 3}
        if conn.kind == "close":
            assert after is None
        elif conn.kind == "label":
            assert after is LEAVES[0]
        else:  # the last component, whatever the payload is
            assert after is LEAVES[len(conn.components) - 1]

    @CHOICES
    def test_label_picks_the_branch(self, cls):
        a = node(cls, "t", t.TOP)
        assert s.step(a, {}, "label", "L", 0) is LEAVES[0]
        assert s.step(a, {}, "label", "R", 0) is LEAVES[1]

    @CONNECTIVES
    def test_wrong_kind_binds_nothing(self, cls):
        want = s.CONNECTIVES[cls].kind
        for got in PAYLOAD:
            if got == want:
                continue
            times = {}
            with pytest.raises(s.ProtocolError) as exc:
                s.step(node(cls, "t", t.TOP), times, got, PAYLOAD[got], 0)
            assert str(exc.value) == f"expected a {want} exchange, saw {got}"
            assert exc.value.window is None and times == {}

    def test_unresolved_type_reference(self):
        with pytest.raises(s.ProtocolError) as exc:
            s.step(s.TypeRef("BME680"), {}, "label", "L", 0)
        assert str(exc.value) == "unresolved type reference BME680"
        assert exc.value.window is None

    @CONNECTIVES
    def test_window_with_unbound_time_variables(self, cls):
        kind = s.CONNECTIVES[cls].kind
        a = node(cls, "t", t.Leq(t.tvar("x"), t.tvar("t")))
        with pytest.raises(s.ProtocolError) as exc:
            s.step(a, {"y": 0}, kind, PAYLOAD[kind], 0)
        assert str(exc.value) == "window predicate has unbound time variables"
        assert exc.value.window is None

    @CHOICES
    @pytest.mark.parametrize("label", [None, "M", "left"])
    def test_label_exchange_without_a_label(self, cls, label):
        with pytest.raises(s.ProtocolError) as exc:
            s.step(node(cls, "t", t.TOP), {}, "label", label, 0)
        assert str(exc.value) == "label exchange without a label"
        assert exc.value.window is None

    @CONNECTIVES
    def test_missed_window_closes_the_earlier_binders(self, cls):
        # In<s, t, Shift<s, 3>> with s at t0+2: the earlier binder becomes
        # its instant, the connective's own binder stays free
        kind = s.CONNECTIVES[cls].kind
        window = t.p_in(t.tvar("s"), t.tvar("t"), t.tvar("s", 3))
        times = {"s": 2}
        with pytest.raises(s.ProtocolError) as exc:
            s.step(node(cls, "t", window), times, kind, PAYLOAD[kind], 9)
        assert str(exc.value) == "time t0+9 outside the window"
        assert exc.value.window == t.p_in(t.init_plus(2), t.tvar("t"), t.init_plus(5))
        assert t.free_time_vars(exc.value.window) == {"t"}
        assert render_prop(exc.value.window) == "And<Leq<Shift<t0, 2>, t>, Leq<t, Shift<t0, 5>>>"
        assert times == {"s": 2, "t": 9}

    def test_reused_binder_shadows_the_earlier_one(self):
        # Produce<t where t = t0+1, Produce<t where t = t0+4,
        #   Unit<u where u = t+1>>>: the close reads the inner t
        inner = node(s.ProduceT, "t", t.Eq(t.tvar("t"), t.init_plus(4)),
                     (s.UnitT("u", t.Eq(t.tvar("u"), t.tvar("t", 1))),))
        a = node(s.ProduceT, "t", t.Eq(t.tvar("t"), t.init_plus(1)), (inner,))
        times = {}
        a = s.step(a, times, "value", IntV(1), 1)
        a = s.step(a, times, "value", IntV(2), 4)
        assert times == {"t": 4}
        with pytest.raises(s.ProtocolError):
            s.step(a, dict(times), "close", None, 2)
        assert s.step(a, times, "close", None, 5) is None
        assert times == {"t": 4, "u": 5}


# ---------------------------------------------------------------------------
# Random closed protocols, walked by the monitor


@st.composite
def protocols(draw):
    """A closed protocol over every connective, its binders b0, b1, ...
    each in the window In<prev, b, Shift<prev, k>> of the one before (t0
    for the first), and a conforming trace of it: (type, events, windows),
    where ``windows`` holds each event's (earliest, latest) instant."""
    path = draw(st.lists(st.sampled_from([c for c in s.CONNECTIVES if c is not s.UnitT]),
                         max_size=8)) + [s.UnitT]
    prev_var, prev_time, steps, events, windows = None, 0, [], [], []
    for i, cls in enumerate(path):
        k = draw(st.integers(0, 4))
        b = f"b{i}"
        prev = t.tvar(prev_var) if prev_var else T0
        kind = s.CONNECTIVES[cls].kind
        label = draw(st.sampled_from("LR")) if kind == "label" else None
        payload = {"chan": f"d{i}", "label": label, "value": IntV(i)}.get(kind)
        instant = prev_time + draw(st.integers(0, k))
        steps.append((cls, b, t.p_in(prev, t.tvar(b), t.tvar(prev_var, k) if prev_var
                                     else t.init_plus(k)), label))
        events.append(TraceEvent(instant, Action(kind, "send", "c", payload), "c"))
        windows.append((prev_time, prev_time + k))
        prev_var, prev_time = b, instant
    a = None
    for cls, b, window, label in reversed(steps):
        if a is None:
            a = node(cls, b, window)
            continue
        other = s.UnitT(f"{b}x", t.TOP)
        # the walk goes on in the picked branch, or else the last component
        parts = (a, other) if label == "L" else (other, a)[-len(s.CONNECTIVES[cls].components):]
        a = node(cls, b, window, parts)
    return a, events, windows


def walk(a, events):
    return monitor_trace(TraceObligation(a), events)


@given(protocols(), st.data())
def test_random_protocol_traces(protocol, data):
    a, events, windows = protocol
    n = len(events)
    assert walk(a, events) == Conforms()
    assert walk(a, events[:-1]) == Violation(n - 1, "trace ended before the protocol closed")
    assert walk(a, events + [events[-1]]) == Violation(n, "events continue after close")
    j = data.draw(st.integers(0, n - 1))
    early, late = windows[j][0] - 1, windows[j][1] + 1
    for instant in (early, late):
        moved = events[:j] + [TraceEvent(instant, events[j].action, "c")] + events[j + 1:]
        verdict = walk(a, moved)
        assert isinstance(verdict, Violation) and verdict.index == j
    assert verdict.reason == f"time {t.render_instant(late)} outside the window"
