"""Each mutation of a healthy corpus file must flip the verdict in the
predicted way, statically or at runtime."""

import pytest

from tillst import corpus_path
from tillst import syntax as s
from tillst.cli import build_system
from tillst.parser import parse_program
from tillst.runtime import AutoC, ExternEnv, ProcC, run_scheduler
from tillst.typecheck import check_program


def source(name):
    with open(corpus_path(name), encoding="utf-8") as fh:
        return fh.read()


def verdict_of(src, proc):
    reports = {r.name: r for r in check_program(parse_program(src))}
    return reports[proc]


class TestStaticMutations:
    def test_gas_read_one_tick_early(self):
        src = source("smart_home.tsl").replace("Cons<Shift<t1, 30>>(x)",
                                               "Cons<Shift<t1, 29>>(x)")
        report = verdict_of(src, "hub")
        assert not report.accepted and report.error.kind == "TimingViolation"

    def test_shutdown_before_cooldown(self):
        src = source("smart_home.tsl").replace("Wait<Shift<t1, 50>>(x)",
                                               "Wait<Shift<t1, 49>>(x)")
        report = verdict_of(src, "hub")
        assert not report.accepted and report.error.kind == "TimingViolation"

    def test_term_window_wider_than_type(self):
        src = source("smart_home.tsl").replace(
            "Prod<t3 where Leq<Shift<t1, 50>, t3>>",
            "Prod<t3 where Leq<Shift<t1, 49>, t3>>")
        report = verdict_of(src, "hub")
        assert not report.accepted and report.error.kind == "PredicateUnsatisfied"

    def test_wrong_payload_sort(self):
        src = source("smart_home.tsl").replace(
            "$ needAC(u1, u2, v1) $", "$ 7 $")
        report = verdict_of(src, "hub")
        assert not report.accepted and report.error.kind == "ExprTypeError"

    def test_dropping_a_wait_breaks_linearity(self):
        src = source("smart_home.tsl")
        assert "Wait<t0>(y);" in src
        src = src.replace("Wait<t0>(y);", "", 1)
        report = verdict_of(src, "hub_main")
        assert not report.accepted and report.error.kind == "LinearityViolation"

    def test_keyless_response_misses_five_tick_window(self):
        src = source("keyless_entry.tsl").replace("Supply<Shift<t3, 3>>(c)",
                                                  "Supply<Shift<t3, 6>>(c)")
        report = verdict_of(src, "key")
        assert not report.accepted and report.error.kind == "TimingViolation"

    def test_collision_slow_branch_early_verdict(self):
        src = source("collision_detector.tsl").replace(
            "Prod<t3 where Eq<t3, Shift<t1, 10>>> $ slow() $",
            "Prod<t3 where Eq<t3, Shift<t1, 9>>> $ slow() $")
        report = verdict_of(src, "cdx")
        assert not report.accepted
        assert report.error.kind == "PredicateUnsatisfied"

    def test_adequacy_wrong_instant(self):
        src = source("adequacy.tsl").replace(
            "fn adq1() -> Unit<t where Eq<t, Shift<t0, 1>>> {\n"
            "    Close<t where Eq<t, Shift<t0, 1>>>",
            "fn adq1() -> Unit<t where Eq<t, Shift<t0, 1>>> {\n"
            "    Close<t where Eq<t, Shift<t0, 2>>>")
        report = verdict_of(src, "adq1")
        assert not report.accepted and report.error.kind == "PredicateUnsatisfied"


class TestRuntimeMutations:
    def run_main(self, src):
        prog = parse_program(src)
        omega, start, defs = build_system(prog, "main")
        return run_scheduler(omega, start, env=ExternEnv(prog), defs=defs)

    def test_early_gas_read_hits_the_heater_guard(self):
        # ill-typed and ill-timed: the automaton's 30-tick guard is still held
        src = source("smart_home.tsl").replace("Cons<Shift<t0, 30>>(x)",
                                               "Cons<Shift<t0, 29>>(x)")
        result = self.run_main(src)
        assert result.status == "timing_violation"
        assert result.error.channel == "s1" and result.error.client_time == 29
        assert "entry+30" in result.error.provider_pred

    def test_early_shutdown_hits_the_cooldown_guard(self):
        src = source("smart_home.tsl").replace("Wait<Shift<t0, 50>>(x)",
                                               "Wait<Shift<t0, 49>>(x)")
        result = self.run_main(src)
        assert result.status == "timing_violation"
        assert result.error.client_time == 49

    def test_healthy_main_still_clean(self):
        assert self.run_main(source("smart_home.tsl")).status == "done"


def test_value_consuming_automaton():
    # a foreign component that waits for one value and stops
    src = """
    automaton sink {
        state S0 init;
        S0 --[?val]--> accept;
    }
    """
    prog = parse_program(src)
    defs = {defn.name: defn for defn in prog.automata}
    import tillst.temporal as t

    body = s.SupplyP("e", t.init_plus(2), s.IntLit(9),
                     s.CloseP("u", t.Leq(t.INIT, t.tvar("u"))))
    omega = (AutoC("e", "sink", "S0", 0), ProcC("root", body))
    result = run_scheduler(omega, 0, env=ExternEnv(prog), defs=defs)
    assert result.status == "done"
    kinds = [(ev.time, ev.channel) for ev in result.trace]
    assert kinds == [(2, "e"), (2, "root")]
