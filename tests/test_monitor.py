"""Trace-conformance monitoring against the sensor protocol."""

from tillst import syntax as s
from tillst import temporal as t
from tillst.automata import Conforms, TraceObligation, Violation, monitor_trace
from tillst.cli import build_system
from tillst.runtime import Action, ExternEnv, OpaqueV, TraceEvent, run_scheduler


def bme680_type(load_corpus):
    prog = load_corpus("smart_home.tsl")
    return s.expand_type_refs(prog, s.TypeRef("BME680"))


def sensor_trace(t1, t_temp, t_gas, t_cls, chan="s1"):
    val = lambda tag: OpaqueV("x", tag)
    return [
        TraceEvent(t1, Action("label", "send", chan, "R"), chan),
        TraceEvent(t_temp, Action("value", "send", chan, val("temp")), chan),
        TraceEvent(t_gas, Action("value", "send", chan, val("gas")), chan),
        TraceEvent(t_cls, Action("close", "send", chan), chan),
    ]


class TestMonitorExamples:
    def test_nominal_gas_run_conforms(self, load_corpus):
        ty = bme680_type(load_corpus)
        verdict = monitor_trace(TraceObligation(ty), sensor_trace(4, 4, 34, 54))
        assert isinstance(verdict, Conforms)

    def test_early_gas_flagged_at_its_index(self, load_corpus):
        ty = bme680_type(load_corpus)
        verdict = monitor_trace(TraceObligation(ty), sensor_trace(4, 4, 33, 54))
        assert isinstance(verdict, Violation) and verdict.index == 2
        assert "outside the window" in verdict.reason
        assert verdict.failed_pred is not None

    def test_empty_trace_violates_unit(self):
        ty = s.UnitT("t", t.TOP)
        verdict = monitor_trace(TraceObligation(ty), [])
        assert isinstance(verdict, Violation)
        assert "ended before" in verdict.reason

    def test_events_after_close(self, load_corpus):
        ty = s.UnitT("t", t.TOP)
        events = [TraceEvent(0, Action("close", "send", "a"), "a"),
                  TraceEvent(1, Action("close", "send", "a"), "a")]
        verdict = monitor_trace(TraceObligation(ty), events)
        assert isinstance(verdict, Violation) and verdict.index == 1

    def test_wrong_kind_is_shape_violation(self, load_corpus):
        ty = bme680_type(load_corpus)
        events = sensor_trace(0, 0, 30, 50)
        events[1] = TraceEvent(0, Action("label", "send", "s1", "L"), "s1")
        verdict = monitor_trace(TraceObligation(ty), events)
        assert isinstance(verdict, Violation) and verdict.index == 1
        assert "expected a value" in verdict.reason

    def test_receive_half_is_a_violation(self, load_corpus):
        # a channel trace records each exchange by its send half
        ty = bme680_type(load_corpus)
        events = sensor_trace(0, 0, 30, 50)
        events[0] = TraceEvent(0, Action("label", "recv", "s1", "R"), "s1")
        verdict = monitor_trace(TraceObligation(ty), events)
        assert isinstance(verdict, Violation) and verdict.index == 0
        assert "send" in verdict.reason
        events = sensor_trace(0, 0, 30, 50)
        events[3] = TraceEvent(50, Action("close", "recv", "s1"), "s1")
        verdict = monitor_trace(TraceObligation(ty), events)
        assert isinstance(verdict, Violation) and verdict.index == 3

    def test_value_without_payload_is_a_violation(self, load_corpus):
        ty = bme680_type(load_corpus)
        events = sensor_trace(0, 0, 30, 50)
        events[2] = TraceEvent(30, Action("value", "send", "s1"), "s1")
        verdict = monitor_trace(TraceObligation(ty), events)
        assert isinstance(verdict, Violation) and verdict.index == 2
        assert "payload" in verdict.reason

    def test_temperature_only_branch(self, load_corpus):
        ty = bme680_type(load_corpus)
        events = [
            TraceEvent(2, Action("label", "send", "s2", "L"), "s2"),
            TraceEvent(5, Action("value", "send", "s2", OpaqueV("x", "temp")), "s2"),
            TraceEvent(9, Action("close", "send", "s2"), "s2"),
        ]
        assert isinstance(monitor_trace(TraceObligation(ty), events), Conforms)


class TestMonitorOverSchedulerRuns:
    def run_events(self, load_corpus, chan):
        prog = load_corpus("smart_home.tsl")
        omega, start, defs = build_system(prog, "main")
        result = run_scheduler(omega, start, env=ExternEnv(prog), defs=defs)
        assert result.status == "done"
        return [ev for ev in result.trace if ev.channel == chan]

    def test_both_sensor_channels_conform(self, load_corpus):
        ty = bme680_type(load_corpus)
        for chan in ("s1", "s2"):
            events = self.run_events(load_corpus, chan)
            verdict = monitor_trace(TraceObligation(ty), events)
            assert isinstance(verdict, Conforms), (chan, verdict)

    def test_exhaustive_tick_perturbations(self, load_corpus):
        ty = bme680_type(load_corpus)
        base = self.run_events(load_corpus, "s1")
        for idx in (2, 3):
            for delta in list(range(-5, 0)) + list(range(1, 6)):
                events = list(base)
                ev = events[idx]
                events[idx] = TraceEvent(ev.time + delta, ev.action, ev.channel)
                verdict = monitor_trace(TraceObligation(ty), events)
                expected = self._first_failing_index([e.time for e in events])
                if expected is None:
                    assert isinstance(verdict, Conforms), (idx, delta, verdict)
                else:
                    assert isinstance(verdict, Violation), (idx, delta)
                    assert verdict.index == expected, (idx, delta, verdict)

    @staticmethod
    def _first_failing_index(times):
        # independent reading of the windows along the gas branch: configure
        # after t0, temp after t1, gas after temp+30, close after gas+20
        t1, t_temp, t_gas, t_cls = times
        checks = [t1 >= 0, t_temp >= t1, t_gas >= t_temp + 30, t_cls >= t_gas + 20]
        for i, ok in enumerate(checks):
            if not ok:
                return i
        return None


def test_fuzzed_single_event_perturbations(load_corpus):
    import random

    ty = bme680_type(load_corpus)
    rng = random.Random(99)
    for _ in range(200):
        t1 = rng.randint(0, 10)
        t_temp = t1 + rng.randint(0, 5)
        t_gas = t_temp + 30 + rng.randint(0, 5)
        t_cls = t_gas + 20 + rng.randint(0, 5)
        events = sensor_trace(t1, t_temp, t_gas, t_cls)
        assert isinstance(monitor_trace(TraceObligation(ty), events), Conforms)
        idx = rng.randrange(1, 4)
        bad_time = {1: t1 - 1, 2: t_temp + 29, 3: t_gas + 19}[idx]
        ev = events[idx]
        events[idx] = TraceEvent(bad_time, ev.action, ev.channel)
        verdict = monitor_trace(TraceObligation(ty), events)
        assert isinstance(verdict, Violation) and verdict.index == idx


def test_out_of_order_events_flagged(load_corpus):
    ty = bme680_type(load_corpus)
    events = sensor_trace(4, 2, 34, 54)  # temp before the configure instant
    verdict = monitor_trace(TraceObligation(ty), events)
    assert isinstance(verdict, Violation) and verdict.index == 1
