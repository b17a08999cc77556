"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import itertools
import random
import shutil
import time
from contextlib import contextmanager

import pytest

from tillst import corpus_path
from tillst import syntax as s
from tillst import temporal as t
from tillst.automata import Conforms, TraceObligation, Violation, monitor_trace
from tillst.cli import build_system
from tillst.parser import parse_program
from tillst.runtime import (Action, ExternEnv, ProcC, TraceEvent,
                            congruence_normalize, replay, run_scheduler,
                            seq_extend_to)
from tillst.trajectory import (traj_concat, traj_equiv, traj_from_sigma,
                               traj_interleave, traj_partition)
from tillst.typecheck import check_program


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] FAIL - {label}")
        raise
    print(f"\n[criterion {number}] PASS - {label}")


def load(name):
    with open(corpus_path(name), encoding="utf-8") as fh:
        return parse_program(fh.read())


def verdicts(name):
    return {r.name: r.accepted for r in check_program(load(name))}


def test_criterion_1_corpus_verdicts():
    with criterion(1, "corpus verdicts, exact booleans, suite under 30s"):
        started = time.perf_counter()
        assert verdicts("smart_home.tsl") == {"hub": True, "hub_main": True}
        assert verdicts("keyless_entry.tsl") == {"key": True, "car": True}
        assert verdicts("collision_detector.tsl") == {"radar": True, "cdx": True,
                                                      "atc": True}
        assert verdicts("minimum.tsl") == {"helper": True, "minimum": True}
        assert verdicts("p_ok.tsl") == {"p1": True, "p2": True}
        p3 = {r.name: r for r in check_program(load("p3_deadline_miss.tsl"))}
        p4 = {r.name: r for r in check_program(load("p4_deadline_miss.tsl"))}
        assert not p3["p3"].accepted and p3["p3"].error.kind == "TimingViolation"
        assert not p4["p4"].accepted and p4["p4"].error.kind == "TimingViolation"
        assert verdicts("unsound_forward.tsl") == {"bad_fwd": False}
        assert verdicts("cut_ok.tsl") == {"late": True, "use_late": True}
        assert verdicts("cut_bad.tsl") == {"late": True, "use_early": False}
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"corpus suite took {elapsed:.1f}s"


def test_criterion_2_adequacy():
    with criterion(2, "closing signal at exactly t0+n for n in {0,1,5,50,1000}"):
        started = time.perf_counter()
        prog = load("adequacy.tsl")
        expected = {"run0": 0, "run1": 1, "run5": 5, "run50": 50, "run1000": 1000}
        for entry, n in expected.items():
            omega, start, defs = build_system(prog, entry)
            env = ExternEnv(prog)
            result = run_scheduler(omega, start, env=env, defs=defs)
            assert result.status == "done", (entry, result.error)
            closes = [ev for ev in result.trace
                      if ev.action == Action("close", "send", entry)]
            assert closes and closes[-1].time == n, (entry, result.trace)
            assert result.end_time == n
            assert replay(result.sigma, env, defs)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"adequacy runs took {elapsed:.2f}s"


WHOLE_SYSTEM_ORACLE = [
    (0, "send", "label", "s1", "R"),
    (0, "send", "value", "s1", "read_temp@s1"),
    (0, "send", "label", "s2", "L"),
    (0, "send", "value", "s2", "read_temp@s2"),
    (0, "send", "close", "s2", None),
    (30, "send", "value", "s1", "read_gas@s1"),
    (50, "send", "close", "s1", None),
    (50, "send", "value", "main", "true"),
    (50, "send", "close", "main", None),
]


def test_criterion_3_whole_system_run():
    with criterion(3, "hub + two sensors: gas at T+30, closes and bool at T+50"):
        started = time.perf_counter()
        prog = load("smart_home.tsl")
        omega, start, defs = build_system(prog, "main")
        result = run_scheduler(omega, start, env=ExternEnv(prog), defs=defs)
        assert result.status == "done"
        got = [(ev.time, ev.action.direction, ev.action.kind,
                ev.channel, ev.payload()) for ev in result.trace]
        assert got == WHOLE_SYSTEM_ORACLE
        # the itemized tick equalities, stated independently of the full list
        gas = next(ev for ev in result.trace
                   if ev.channel == "s1" and ev.action.kind == "value"
                   and ev.payload().startswith("read_gas"))
        assert gas.time == start + 30
        x_close = next(ev for ev in result.trace
                       if ev.channel == "s1" and ev.action.kind == "close")
        assert x_close.time == start + 50
        bool_ev = next(ev for ev in result.trace
                       if ev.channel == "main" and ev.action.kind == "value")
        assert bool_ev.time == start + 50 and bool_ev.payload() in ("true", "false")
        final = result.trace[-1]
        assert final.action.kind == "close" and final.channel == "main"
        assert final.time == start + 50
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"whole-system run took {elapsed:.2f}s"


def _random_run(rng, prefix, horizon):
    n1 = rng.randint(0, 20)
    n2 = n1 + rng.randint(0, 20)
    a, b = f"{prefix}p", f"{prefix}c"
    provider = ProcC(a, s.ProdP("t", t.Eq(t.tvar("t"), t.init_plus(n1)), s.IntLit(1),
                                s.CloseP("u", t.Eq(t.tvar("u"), t.init_plus(n2)))))
    client = ProcC(b, s.ConsP(a, t.init_plus(n1), "v",
                              s.WaitP(t.init_plus(n2), a,
                                      s.CloseP("u", t.Eq(t.tvar("u"), t.init_plus(n2))))))
    result = run_scheduler((provider, client), 0, horizon=horizon)
    assert result.status == "done"
    return traj_from_sigma(seq_extend_to(result.sigma, horizon), end=horizon)


def test_criterion_4_trajectory_algebra():
    with criterion(4, "trajectory laws on 1000 harvested computable trajectories"):
        rng = random.Random(20260808)
        horizon = 48
        harvested = 0
        pairs = []
        while harvested < 1000:
            w1 = _random_run(rng, f"a{harvested}_", horizon)
            w2 = _random_run(rng, f"b{harvested}_", horizon)
            pairs.append((w1, w2))
            harvested += 2
        for w1, w2 in pairs:
            wi = traj_interleave(w1, w2)
            for tick in set(w1.breakpoint_times()) | set(w2.breakpoint_times()):
                assert congruence_normalize(wi.at(tick)) == congruence_normalize(
                    w1.at(tick) + w2.at(tick))
            cut = rng.randrange(horizon)
            left, right = traj_partition(wi, cut)
            assert traj_equiv(traj_concat(left, right), wi)
            l1, r1 = traj_partition(w1, cut)
            l2, r2 = traj_partition(w2, cut)
            assert traj_equiv(left, traj_interleave(l1, l2))
            assert traj_equiv(right, traj_interleave(r1, r2))
            assert traj_equiv(traj_concat(traj_interleave(l1, l2),
                                          traj_interleave(r1, r2)), wi)


def test_criterion_5_solver_soundness():
    from helpers import entails
    from oracle import agreement_report

    with criterion(5, "entailment agrees with the brute-force oracle on 500+ cases"):
        instances, disagreements = agreement_report()
        assert len(instances) >= 500
        assert disagreements == []
        solver_bin = None
        for name in ("z3", "cvc5", "cvc4"):
            solver_bin = shutil.which(name)
            if solver_bin:
                break
        if solver_bin:
            sample = random.Random(3).sample(instances, 30)
            for g, f, p in sample:
                assert entails(g, f, p) == t.entails_external(g, f, p, solver_bin)
        else:
            print("\n[criterion 5] note: no external QF_LIA solver on PATH; "
                  "export agreement checked by the stub-plumbing tests only")


def test_criterion_6_monitor_conformance():
    with criterion(6, "sensor trace conforms; off-window perturbations flagged"):
        prog = load("smart_home.tsl")
        ty = s.expand_type_refs(prog, s.TypeRef("BME680"))
        omega, start, defs = build_system(prog, "main")
        result = run_scheduler(omega, start, env=ExternEnv(prog), defs=defs)
        base = [ev for ev in result.trace if ev.channel == "s1"]
        assert isinstance(monitor_trace(TraceObligation(ty), base), Conforms)
        times = [ev.time for ev in base]  # [t1, temp, gas, close]
        for idx in (2, 3):
            for delta in itertools.chain(range(-5, 0), range(1, 6)):
                events = list(base)
                ev = events[idx]
                events[idx] = TraceEvent(ev.time + delta, ev.action, ev.channel)
                moved = [e.time for e in events]
                outside_own = (moved[2] < moved[1] + 30) if idx == 2 \
                    else (moved[3] < moved[2] + 20)
                verdict = monitor_trace(TraceObligation(ty), events)
                if outside_own:
                    assert isinstance(verdict, Violation) and verdict.index == idx, \
                        (idx, delta, verdict)
                elif moved[3] < moved[2] + 20:  # downstream window broke instead
                    assert isinstance(verdict, Violation) and verdict.index == 3
                else:
                    assert isinstance(verdict, Conforms), (idx, delta, verdict)
