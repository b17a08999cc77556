import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import _partner, complementary, free_channels, seq_steps
from tillst import runtime as rt
from tillst import syntax as s
from tillst import temporal as t
from tillst.cli import build_system
from tillst.parser import parse_program
from tillst.record import replace
from tillst.runtime import (STOP, Action, AutoC, BoolV, ExternEnv, FwdC, IntV,
                            OpaqueV, ProcC, Refl, RuntimeInvariantError, SILENT,
                            StepC, StepT, TraceEvent, TraceFormatError,
                            congruence_normalize, conf_leaves, eval_expr,
                            reductions, replay, run_scheduler, seq_concat,
                            seq_end, seq_interleave, seq_start,
                            trace_from_jsonl, trace_to_jsonl)
from tillst.temporal import TillstError
from tillst.runtime import (_Index, _leaf_steps, _step_sort_key,
                            _wait_pass, DeadlockInfo, HorizonInfo, SilentA,
                            describe_leaf)
from tillst.trajectory import (traj_concat, traj_equiv, traj_from_sigma,
                               traj_partition)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the benchmark's generators
from perfbench.workloads import chain_program, fanout_program  # noqa: E402

T0 = t.INIT
sh = t.init_plus

actions = st.one_of(
    st.just(SILENT),
    st.builds(Action, st.just("chan"), st.sampled_from(["send", "recv"]),
              st.sampled_from("ab"), st.sampled_from(["c", "d", None])),
    st.builds(Action, st.just("label"), st.sampled_from(["send", "recv"]),
              st.sampled_from("ab"), st.sampled_from("LR")),
    st.builds(Action, st.just("close"), st.sampled_from(["send", "recv"]),
              st.sampled_from("ab")),
    st.builds(Action, st.just("value"), st.sampled_from(["send", "recv"]),
              st.sampled_from("ab"), st.builds(IntV, st.integers(-5, 5))),
)


@given(actions)
def test_complementary_involution(alpha):
    assert complementary(complementary(alpha)) == alpha


def test_complementary_table():
    assert complementary(Action("label", "send", "a", "L")) == Action("label", "recv", "a", "L")
    assert complementary(SILENT) == SILENT


CLOSE = s.CloseP("t", t.TOP)

leaf_configs = st.one_of(
    st.builds(ProcC, st.sampled_from("abcdef"), st.just(CLOSE)),
    st.builds(FwdC, st.sampled_from("abcdef"), st.sampled_from("abcdefghij")),
    st.builds(AutoC, st.sampled_from("ghij"), st.just("bme680"),
              st.sampled_from(["S0", "S2"]), st.integers(0, 5)),
)

# one provider per channel, in any order
configurations = st.lists(leaf_configs, max_size=5, unique_by=lambda x: x.chan).map(tuple)


@given(configurations)
def test_normalize_idempotent(conf):
    once = congruence_normalize(conf)
    assert congruence_normalize(once) == once


class TestCongruence:
    def test_stop_unit(self):
        assert congruence_normalize(STOP + (ProcC("a", CLOSE),)) == (ProcC("a", CLOSE),)

    def test_fwd_merge(self):
        got = congruence_normalize((ProcC("a", CLOSE), FwdC("b", "a")))
        assert got == (ProcC("b", CLOSE),)

    def test_fwd_contraction_chain(self):
        conf = (FwdC("c", "b"), FwdC("b", "a"), ProcC("a", CLOSE))
        assert congruence_normalize(conf) == (ProcC("c", CLOSE),)

    def test_dangling_forward_kept(self):
        conf = (FwdC("a", "ghost"), ProcC("b", CLOSE))
        got = congruence_normalize(conf)
        assert FwdC("a", "ghost") in conf_leaves(got)

    def test_duplicate_providers_rejected(self):
        with pytest.raises(RuntimeInvariantError):
            congruence_normalize((ProcC("a", CLOSE), ProcC("a", CLOSE)))
        # a forwarder merging one of them away does not hide the duplicate
        with pytest.raises(RuntimeInvariantError, match="duplicate provider channel a$"):
            congruence_normalize((ProcC("b", CLOSE), ProcC("a", CLOSE), ProcC("a", CLOSE),
                                  FwdC("c", "a")))

    def test_far_end_first_chain_collapses(self):
        chain = tuple(FwdC(f"f{k:04d}", f"f{k - 1:04d}") for k in range(3000, 0, -1))
        got = congruence_normalize(chain + (ProcC("f0000", CLOSE),))
        assert got == (ProcC("f3000", CLOSE),)


def restart_normalize(omega):
    """The reference: after each merge, scan every leaf again from the
    first."""
    leaves = list(omega)
    changed = True
    while changed:
        changed = False
        for i, leaf in enumerate(leaves):
            if not isinstance(leaf, FwdC):
                continue
            for j, other in enumerate(leaves):
                if i != j and other.chan == leaf.client:
                    merged = replace(other, chan=leaf.chan)
                    leaves = [x for k, x in enumerate(leaves) if k not in (i, j)]
                    leaves.append(merged)
                    changed = True
                    break
            if changed:
                break
    return tuple(sorted(leaves, key=lambda x: x.chan))


@st.composite
def forwarder_chains(draw):
    """Chains of forwarders, each above a process, an automaton or a channel
    no leaf provides, with the leaves in any order."""
    names = iter(draw(st.permutations([f"c{k:02d}" for k in range(24)])))
    leaves = []
    for root, length in draw(st.lists(st.tuples(st.sampled_from(["proc", "auto", "none"]),
                                                st.integers(0, 4)), max_size=4)):
        below = next(names)
        if root == "proc":
            leaves.append(ProcC(below, CLOSE))
        elif root == "auto":
            leaves.append(AutoC(below, "bme680", "S0", 0))
        for _ in range(length):
            chan = next(names)
            leaves.append(FwdC(chan, below))
            below = chan
    return tuple(draw(st.permutations(leaves)))


@given(st.one_of(forwarder_chains(), configurations))
def test_normalize_matches_restart_loop(conf):
    assert congruence_normalize(conf) == restart_normalize(conf)


def leaf_transitions(omega, now):
    """Each leaf's steps at ``now`` taken alone, as (action, configuration)
    pairs.  A receive stands for a family of transitions; its payload is
    None, as no partner fixes it."""
    env, out = ExternEnv(), []
    for i, leaf in enumerate(omega):
        rest = omega[:i] + omega[i + 1:]
        out += [(step.action, rest + tuple(step.fire(step.action.payload)))
                for step in _leaf_steps(leaf, now, env, {}, "#1")]
    return out


class TestEnumerate:
    def test_close_fires_inside_window(self):
        w = (ProcC("a", s.CloseP("t", t.Leq(T0, t.tvar("t")))),)
        assert leaf_transitions(w, 7) == [(Action("close", "send", "a"), STOP)]

    def test_offer_exposes_both_branches(self):
        off = (ProcC("a", s.OfferP("t", t.TOP, s.CloseP("u", t.TOP), s.CloseP("v", t.BOT))),)
        outs = leaf_transitions(off, 3)
        assert {o[0] for o in outs} == {Action("label", "recv", "a", "L"), Action("label", "recv", "a", "R")}
        assert all(isinstance(leaf, ProcC) for _, (leaf,) in outs)

    def test_client_fires_only_at_annotation(self):
        wait = (ProcC("a", s.WaitP(sh(5), "x", CLOSE)),)
        assert leaf_transitions(wait, 4) == []
        assert len(leaf_transitions(wait, 5)) == 1

    def test_channel_receive_without_partner_keeps_its_name(self):
        # the receive's payload is unknown until a partner fixes it, so the
        # continuation still names the bound channel
        recv = (ProcC("a", s.LamRecv("t", t.TOP, "x", s.FwdP(T0, "x"))),)
        ((action, (leaf,)),) = leaf_transitions(recv, 0)
        assert action == Action("chan", "recv", "a")
        assert leaf.body == s.FwdP(T0, "x") and leaf.env.times == {"t": 0}


class TestCommStep:
    def test_close_meets_wait(self):
        omega = (ProcC("a", s.CloseP("t", t.TOP)), ProcC("b", s.WaitP(sh(2), "a", CLOSE)))
        ((conf, ev),) = reductions(omega, 2)
        assert conf == (ProcC("b", CLOSE),)
        assert ev.action == Action("close", "send", "a") and ev.time == 2

    def test_spawn_is_solitary_silent(self):
        prog = s.Program(procs=(s.ProcDecl("w", (), s.UnitT("t", t.TOP), CLOSE),))
        env = ExternEnv(prog)
        omega = (ProcC("a", s.SpawnP(sh(1), "w", (), "k", s.WaitP(sh(1), "k", CLOSE))),)
        ((conf, ev),) = reductions(omega, 1, env)
        assert ev.action == SILENT and ev.tag == "spawn"
        assert {x.chan for x in conf} == {"a", "#1"}

    def test_no_partner_no_step(self):
        # a lone provider's only candidate is its environment-facing send
        assert reductions((ProcC("a", s.CloseP("t", t.TOP)),), 0) == \
            [(STOP, TraceEvent(0, Action("close", "send", "a"), "a"))]

    def test_value_exchange_evaluates_sender_first(self):
        prog = s.Program(externs=(s.ExternDecl("mk", (), s.INT),))
        env = ExternEnv(prog, seed=3)
        omega = (ProcC("a", s.ProdP("t", t.TOP, s.CallE("mk", ()), CLOSE)),
                 ProcC("b", s.ConsP("a", sh(0), "v",
                                    s.SupplyP("missing", sh(0), s.VarE("v"), CLOSE))))
        ((conf, ev),) = reductions(omega, 0, env)
        assert ev.action.kind == "value" and isinstance(ev.action.payload, IntV)
        # the received value is bound in the receiving leaf's environment
        proc_b = next(x for x in conf if x.chan == "b")
        assert proc_b.body.expr == s.VarE("v")
        assert proc_b.env.values == {"v": ev.action.payload}

    def test_fresh_names_stable_across_orderings(self):
        # the fresh name depends only on the configuration, not on counters
        prog = s.Program(procs=(s.ProcDecl("w", (), s.UnitT("t", t.TOP), CLOSE),))
        env = ExternEnv(prog)
        omega = (ProcC("a", s.SpawnP(sh(0), "w", (), "k", s.WaitP(sh(0), "k", CLOSE))),)
        first = reductions(omega, 0, env)
        second = reductions(omega, 0, env)
        assert first == second


class TestDeepStructures:
    def test_conf_leaves_of_thousands_of_leaves(self):
        # 2998 clients idle at t0 around one close meeting its wait
        idle = [ProcC(f"c{i:04d}", s.WaitP(sh(5), f"d{i:04d}", CLOSE)) for i in range(2998)]
        pair = [ProcC("a", s.CloseP("t", t.TOP)), ProcC("b", s.WaitP(T0, "a", CLOSE))]
        conf = congruence_normalize(idle[::-1] + pair)
        assert conf_leaves(conf) == pair + idle
        copy = congruence_normalize(pair + idle)
        assert conf is not copy and conf == copy and hash(conf) == hash(copy)
        after = congruence_normalize(idle + [ProcC("b", CLOSE)])
        assert replay(StepC(0, conf, after, Refl(0, after)))

    def test_trajectory_of_a_long_sequence(self):
        conf, other = (ProcC("a", CLOSE),), (ProcC("b", CLOSE),)
        sigma = Refl(1500, conf)
        for k in reversed(range(1500)):
            sigma = StepT(k, k + 1, conf, StepC(k + 1, conf, conf, sigma))
        w = traj_from_sigma(sigma, end=1500)
        assert w.breakpoint_times() == list(range(1500))
        merged = seq_interleave(sigma, Refl(0, other))
        assert seq_steps(merged) == 1500 and seq_end(merged) == (1500, conf + other)
        left, right = traj_partition(w, 750)
        assert seq_end(left.sigma) == (750, conf) and seq_start(right.sigma) == (750, conf)
        assert seq_steps(left.sigma) == seq_steps(right.sigma) == 750
        assert traj_equiv(traj_concat(left, right), w)

    def test_seq_concat_of_a_long_sequence(self):
        sigma = Refl(0, STOP)
        for _ in range(2000):
            sigma = StepC(0, STOP, STOP, sigma)
        joined = seq_concat(sigma, Refl(5, STOP))
        assert seq_steps(joined) == 2000 and seq_end(joined) == (5, STOP)


class TestScheduler:
    def test_adequacy_single_close(self):
        p = (ProcC("a", s.CloseP("t", t.Eq(t.tvar("t"), sh(5)))),)
        r = run_scheduler(p, 0)
        assert r.status == "done" and r.end_time == 5
        assert r.trace == [TraceEvent(5, Action("close", "send", "a"), "a")]
        assert replay(r.sigma)

    def test_adequacy_against_wait_harness(self):
        p = (ProcC("a", s.CloseP("t", t.Eq(t.tvar("t"), sh(5)))),
             ProcC("h", s.WaitP(sh(5), "a", s.CloseP("t", t.TOP))))
        r = run_scheduler(p, 0)
        assert r.status == "done"
        assert [(e.time, e.action.kind, e.channel) for e in r.trace] == \
            [(5, "close", "a"), (5, "close", "h")]

    def test_deadlock_on_unchosen_offer(self):
        off = (ProcC("a", s.OfferP("t", t.TOP, CLOSE, CLOSE)),)
        r = run_scheduler(off, 0)
        assert r.status == "deadlock"
        assert r.error.pending

    def test_timing_violation_blames_window(self):
        omega = (ProcC("a", s.CloseP("t", t.Eq(t.tvar("t"), sh(3)))),
                 ProcC("b", s.WaitP(sh(9), "a", CLOSE)))
        r = run_scheduler(omega, 0)
        assert r.status == "timing_violation"
        assert r.error.channel == "a" and r.error.client_time == 9

    def test_missing_provider_is_timing_violation(self):
        omega = (ProcC("b", s.WaitP(sh(1), "ghost", CLOSE)),)
        r = run_scheduler(omega, 0)
        assert r.status == "timing_violation"
        assert r.error.provider_pred == "<no provider>"

    # Each way a run can stop short of done at the end of an instant: the
    # leaves as (channel, body) and the run's outcome.
    BLAME = {
        "provider_window": (
            [("a", "Prod<s where Eq<s, Shift<t0, 1>>> $ 7 $; "
                   "Close<u where Leq<Shift<s, 5>, u>>"),
             ("b", "Cons<Shift<t0, 1>>(a) { v => Wait<Shift<t0, 3>>(a); "
                   "Close<z where Eq<z, t0>> }")],
            "client instant t0+3 on a misses the provider window "
            "Leq<Shift<t0, 6>, u>", {"u": 3}),
        "stale_forward": (
            [("a", "Close<u where Eq<u, Shift<t0, 3>>>"),
             ("c", "Wait<Shift<t0, 3>>(a); Fwd<Shift<t0, 1>>(d)"),
             ("d", "Close<u where Geq<u, t0>>")],
            "client instant t0+1 on d misses the provider window "
            "<instant already passed>", None),
        "stale_spawn": (
            [("a", "Close<u where Eq<u, Shift<t0, 3>>>"),
             ("c", "Wait<Shift<t0, 3>>(a); Spawn<Shift<t0, 1>>(w) { k => "
                   "Wait<Shift<t0, 1>>(k); Close<z where Geq<z, t0>> }")],
            "client instant t0+1 on c misses the provider window "
            "<instant already passed>", None),
        "own_channel": (
            [("a", "Wait<t0>(a); Close<z where Eq<z, t0>>")],
            "client instant t0+0 on a misses the provider window <no provider>", None),
        "shape_mismatch": (
            [("a", "Close<u where Geq<u, t0>>"),
             ("b", "SelectL<t0>(a); Wait<t0>(a); Close<z where Eq<z, t0>>")],
            "deadlock at t0+0: a: CloseP; b: SelectLP", None),
    }

    @pytest.mark.parametrize("case", sorted(BLAME))
    def test_every_blame_class(self, case):
        from tillst.parser import Parser

        leaves, message, counterexample = self.BLAME[case]
        omega = tuple(ProcC(chan, Parser(body).process()) for chan, body in leaves)
        r = run_scheduler(omega, 0)
        assert r.status == ("deadlock" if case == "shape_mismatch" else "timing_violation")
        assert r.error.render() == message
        assert getattr(r.error, "counterexample", None) == counterexample

    def test_horizon_stops_runaway(self):
        p = (ProcC("a", s.CloseP("t", t.Eq(t.tvar("t"), sh(5000)))),)
        r = run_scheduler(p, 0, horizon=100)
        assert r.status == "horizon"

    def test_a_far_window_is_read_a_few_times(self, monkeypatch):
        # the next instant comes from the window's cuts, not a tick scan
        reads = []

        def holds(p, env, now):
            reads.append(now)
            return real(p, env, now)

        real = rt._pred_holds_at
        monkeypatch.setattr(rt, "_pred_holds_at", holds)
        p = (ProcC("a", s.CloseP("t", t.Leq(sh(900000), t.tvar("t")))),)
        r = run_scheduler(p, 0)
        assert (r.status, r.end_time, len(r.trace)) == ("done", 900000, 1)
        assert len(reads) <= 10

    def test_linearity_preserved_along_runs(self, load_corpus):
        prog = load_corpus("smart_home.tsl")
        omega, start, defs = build_system(prog, "main")
        env = ExternEnv(prog)
        clock, conf = start, omega
        sigma = run_scheduler(omega, start, env=env, defs=defs).sigma
        # every intermediate configuration normalizes without duplicate providers
        from tillst.runtime import Refl, StepC, StepT

        node = sigma
        while not isinstance(node, Refl):
            if isinstance(node, StepC):
                congruence_normalize(node.before)
                congruence_normalize(node.after)
            node = node.rest


def whole_system(load_corpus, seed=0):
    prog = load_corpus("smart_home.tsl")
    omega, start, defs = build_system(prog, "main")
    return prog, omega, start, defs, ExternEnv(prog, seed=seed)


ORACLE_EVENTS = [
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


def as_tuples(trace):
    return [(e.time, e.action.direction, e.action.kind, e.channel,
             e.payload()) for e in trace]


class TestWholeSystem:
    def test_trace_matches_hand_derived_oracle(self, load_corpus):
        _, omega, start, defs, env = whole_system(load_corpus)
        r = run_scheduler(omega, start, env=env, defs=defs)
        assert r.status == "done"
        assert as_tuples(r.trace) == ORACLE_EVENTS
        assert replay(r.sigma, env, defs)

    def test_spawned_hub_fed_through_forwarders(self, load_corpus):
        # spawn the higher-order hub and hand it the sensors through forwards
        prog = load_corpus("smart_home.tsl")
        _, _, defs = build_system(prog, "main")
        env = ExternEnv(prog)
        wrapper = s.SpawnP(T0, "hub", (), "z",
                           s.AppSend("z", T0, s.FwdP(T0, "s1"),
                                     s.AppSend("z", T0, s.FwdP(T0, "s2"),
                                               s.FwdP(T0, "z"))))
        omega = (AutoC("s1", "bme680", "S0", 0), AutoC("s2", "bme680", "S0", 0),
                 ProcC("main", wrapper))
        r = run_scheduler(omega, 0, env=env, defs=defs)
        assert r.status == "done" and r.end_time == 50
        comms = [(e.time, e.action.kind) for e in r.trace
                 if e.action.direction != "silent"]
        times = [tm for tm, _ in comms]
        assert times == [0, 0, 0, 0, 0, 0, 0, 30, 50, 50, 50]
        assert replay(r.sigma, env, defs)

    def test_instant_confluence(self, load_corpus):
        # reordering the firings within each instant leaves the event
        # multiset unchanged: every order of an instant with at most 4
        # micro-steps, 20 seeded random orders of a longer one
        systems = [(load_corpus("smart_home.tsl"), "main"),
                   (parse_program(fanout_program(6, False)), "main"),
                   (parse_program(chain_program(10, list(range(10)))), "go")]
        for prog, entry in systems:
            omega, start, defs = build_system(prog, entry)
            env = ExternEnv(prog, seed=0)
            base = run_scheduler(omega, start, env=env, defs=defs)
            assert base.status == "done"
            baseline = sorted(as_tuples(base.trace))
            # count micro-steps per instant in the baseline
            per_instant = {}
            for ev in base.trace:
                per_instant[ev.time] = per_instant.get(ev.time, 0) + 1
            for when, micro in sorted(per_instant.items()):
                if micro > 4:
                    def tiebreak(clock, candidates, w=when, rng=random.Random(when)):
                        return rng.randrange(len(candidates)) if clock == w else 0
                    tiebreaks = [tiebreak] * 20  # one random order per run
                else:
                    tiebreaks = []
                    for perm in itertools.permutations(range(micro)):
                        def tiebreak(clock, candidates, w=when, plan=list(perm)):
                            if clock == w and plan:
                                return plan.pop(0)
                            return 0
                        tiebreaks.append(tiebreak)
                for tiebreak in tiebreaks:
                    r = run_scheduler(omega, start, env=env, defs=defs, tiebreak=tiebreak)
                    assert r.status == "done"
                    assert sorted(as_tuples(r.trace)) == baseline


class TestReplay:
    def test_scheduler_output_replays(self, load_corpus):
        for name, entry in [("adequacy.tsl", "run5"), ("adequacy.tsl", "run50"),
                            ("collision_detector.tsl", "detect"),
                            ("keyless_entry.tsl", "unlock")]:
            prog = load_corpus(name)
            omega, start, defs = build_system(prog, entry)
            env = ExternEnv(prog)
            r = run_scheduler(omega, start, env=env, defs=defs)
            assert r.status == "done", (name, entry, r.error)
            assert replay(r.sigma, env, defs)

    def test_forged_step_rejected(self):
        from tillst.runtime import Refl, StepC

        before = (ProcC("a", s.CloseP("t", t.TOP)), ProcC("b", s.WaitP(sh(0), "a", CLOSE)))
        forged = StepC(0, before, (ProcC("b", s.CloseP("t", t.BOT)),), Refl(0, STOP))
        assert not replay(forged)

    def test_backwards_clock_rejected(self):
        from tillst.runtime import Refl, StepT

        conf = (ProcC("a", CLOSE),)
        assert not replay(StepT(5, 3, conf, Refl(3, conf)))


class TestTraceSerialization:
    def test_roundtrip(self, load_corpus):
        _, omega, start, defs, env = whole_system(load_corpus)
        r = run_scheduler(omega, start, env=env, defs=defs)
        text = trace_to_jsonl(r.trace)
        lines = [l for l in text.splitlines() if l]
        assert len(lines) == len(r.trace)
        back = trace_from_jsonl(text)
        assert [(e.time, e.channel, e.action.kind, e.action.direction,
                 e.payload()) for e in back] == as_tuples_reordered(r.trace)

    def test_field_order(self):
        text = trace_to_jsonl([TraceEvent(3, Action("close", "send", "a"), "a")])
        assert text.startswith('{"time": 3, "dir": "send", "kind": "close", '
                               '"channel": "a", "payload": null}')

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85"])
    def test_lines_end_at_newline_only(self, sep):
        # splitlines splits at each, and JSON allows each raw inside a string
        line = '{"time": 1, "dir": "recv", "kind": "value", "channel": "a", ' \
               f'"payload": "x{sep}y"}}'
        back = trace_from_jsonl(line + "\r\n" + line + "\n")
        assert [e.action.payload for e in back] == 2 * [OpaqueV("?", f"x{sep}y")]
        with pytest.raises(TraceFormatError, match=r"^3: not a JSON object$"):
            trace_from_jsonl(line + "\n" + line + "\n{not json\n")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python converts integers of any length")
    def test_time_past_the_int_digit_limit(self):
        far = 10 ** (sys.get_int_max_str_digits() + 10)
        with pytest.raises(TillstError, match="^integer of about .* is too long to print$"):
            trace_to_jsonl([TraceEvent(far, Action("close", "send", "a"), "a")])


def json_dumps_trace(trace) -> str:
    """The writer ``trace_to_jsonl`` replaced: ``json.dumps`` of each event's
    object under its defaults."""
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


# quotes, backslashes, control characters, non-ASCII and lone surrogates
trace_text = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\n", "\r", "\t", "\x1f", "\x7f", "\x85",
                     "\u00e9", "\u2028", "\ud800", "\udfff", "\U0001f600"]),
    st.characters(exclude_categories=())), max_size=8)


@st.composite
def trace_events(draw):
    """An event as the runtime records it: a silent step with its tag, or an
    exchange's half with the payload its kind carries."""
    time, chan = draw(st.integers(-10**30, 10**30)), draw(trace_text)
    kind = draw(st.sampled_from(["silent", "chan", "label", "close", "value"]))
    if kind == "silent":
        tag = draw(st.one_of(st.sampled_from(["spawn", "fwd", "if"]), trace_text, st.none()))
        return TraceEvent(time, SILENT, chan, tag)
    payload = {
        "chan": st.one_of(trace_text, st.none()),
        "label": st.sampled_from(["L", "R"]) | trace_text,
        "close": st.none(),
        "value": st.one_of(st.none(), st.builds(IntV, st.integers(-10**40, 10**40)),
                           st.builds(BoolV, st.booleans()),
                           st.builds(OpaqueV, st.just("?"), trace_text)),
    }[kind]
    direction = draw(st.sampled_from(["send", "recv"]))
    return TraceEvent(time, Action(kind, direction, chan, draw(payload)), chan)


@given(st.lists(trace_events(), max_size=6))
def test_trace_writer_matches_json_dumps(trace):
    text = trace_to_jsonl(trace)
    assert text == json_dumps_trace(trace)
    assert trace_to_jsonl(trace_from_jsonl(text)) == text


def as_tuples_reordered(trace):
    return [(e.time, e.channel, e.action.kind, e.action.direction,
             e.payload()) for e in trace]


def test_eval_expr_deterministic():
    prog = s.Program(externs=(s.ExternDecl("f", (s.INT,), s.INT),))
    a = eval_expr(s.CallE("f", (s.IntLit(3),)), ExternEnv(prog, seed=9))
    b = eval_expr(s.CallE("f", (s.IntLit(3),)), ExternEnv(prog, seed=9))
    assert a == b
    assert eval_expr(s.IfE(s.Cmp("<", s.IntLit(1), s.IntLit(2)),
                           s.IntLit(10), s.IntLit(20)), ExternEnv()) == IntV(10)
    assert eval_expr(s.BoolLit(True), ExternEnv()) == BoolV(True)


class TestSemanticSoundnessSmoke:
    """Every corpus system whose procedures all type-check runs to quiescence
    with neither a timing violation nor a deadlock (desk-scale reading of the
    soundness theorem)."""

    SYSTEMS = [
        ("smart_home.tsl", "main"),
        ("keyless_entry.tsl", "unlock"),
        ("collision_detector.tsl", "detect"),
        ("minimum.tsl", "tiny"),
        ("adequacy.tsl", "run0"),
        ("adequacy.tsl", "run1"),
        ("adequacy.tsl", "run5"),
        ("adequacy.tsl", "run50"),
        ("adequacy.tsl", "run1000"),
    ]

    @pytest.mark.parametrize("name,entry", SYSTEMS)
    def test_accepted_systems_run_clean(self, name, entry, load_corpus):
        from tillst.typecheck import check_program

        prog = load_corpus(name)
        assert all(r.accepted for r in check_program(prog))
        omega, start, defs = build_system(prog, entry)
        env = ExternEnv(prog)
        result = run_scheduler(omega, start, env=env, defs=defs)
        assert result.status == "done", (name, entry, result.error)
        assert result.final == STOP
        assert replay(result.sigma, env, defs)

    def test_stale_client_instant_is_a_timing_violation(self):
        # ill-typed on purpose: after waiting to t0+5 the next wait is at t0+3
        omega = (ProcC("a", s.CloseP("t", t.Eq(t.tvar("t"), sh(5)))),
                 ProcC("b", s.CloseP("t", t.Leq(T0, t.tvar("t")))),
                 ProcC("c", s.WaitP(sh(5), "a", s.WaitP(sh(3), "b", CLOSE))))
        r = run_scheduler(omega, 0)
        assert r.status == "timing_violation"
        assert r.error.provider_pred == "<instant already passed>"


def test_trace_times_chronological(load_corpus):
    for name, entry in [("smart_home.tsl", "main"), ("keyless_entry.tsl", "unlock"),
                        ("collision_detector.tsl", "detect")]:
        prog = load_corpus(name)
        omega, start, defs = build_system(prog, entry)
        r = run_scheduler(omega, start, env=ExternEnv(prog), defs=defs)
        times = [ev.time for ev in r.trace]
        assert times == sorted(times)


class TestRemainingConnectivesAtRuntime:
    def test_offer_meets_select(self):
        provider = ProcC("a", s.OfferP("t", t.TOP,
                                       s.CloseP("u", t.TOP),
                                       s.CloseP("u", t.BOT)))
        client = ProcC("b", s.SelectLP("a", sh(0), s.WaitP(sh(0), "a", CLOSE)))
        r = run_scheduler((provider, client), 0)
        assert r.status == "done"
        kinds = [(e.action.kind, e.channel) for e in r.trace]
        assert kinds == [("label", "a"), ("close", "a"), ("close", "b")]

    def test_pair_send_allocates_fresh_provider(self):
        payload = s.CloseP("u", t.TOP)
        provider = ProcC("a", s.PairSend("t", t.TOP, payload, s.CloseP("u", t.TOP)))
        client = ProcC("b", s.PairRecv("a", sh(0), "y",
                                       s.WaitP(sh(0), "y",
                                               s.WaitP(sh(0), "a", CLOSE))))
        r = run_scheduler((provider, client), 0)
        assert r.status == "done"
        chan_ev = r.trace[0]
        assert chan_ev.action.kind == "chan" and chan_ev.payload() == "#1"

    def test_internal_choice_pushes_label(self):
        provider = ProcC("a", s.InRP("t", t.TOP, s.CloseP("u", t.TOP)))
        client = ProcC("b", s.CaseP(sh(0), "a",
                                    s.WaitP(sh(0), "a", s.CloseP("u", t.BOT)),
                                    s.WaitP(sh(0), "a", CLOSE)))
        r = run_scheduler((provider, client), 0)
        assert r.status == "done"
        assert r.trace[0].action == Action("label", "send", "a", "R")


EXPECTED_END = {
    ("smart_home.tsl", "main"): 50,
    ("keyless_entry.tsl", "unlock"): 100,
    ("collision_detector.tsl", "detect"): 10,
    ("minimum.tsl", "tiny"): 0,
}


@pytest.mark.parametrize("name,entry", sorted(EXPECTED_END))
def test_system_end_instants(name, entry, load_corpus):
    prog = load_corpus(name)
    omega, start, defs = build_system(prog, entry)
    r = run_scheduler(omega, start, env=ExternEnv(prog), defs=defs)
    assert r.status == "done"
    assert r.end_time == EXPECTED_END[(name, entry)]


class TestBinding:
    """Time binders, value variables and channel variables bind by name,
    innermost first, in both the checker and the runtime.  At run time a
    channel variable stands for the runtime channel its leaf bound it to, and
    a spawned callee's parameters for the caller's channels."""

    # The second Prod rebinds t to t0+7, so Wait<Shift<t, 5>> means t0+12:
    # inside c's window (from t0+10) and when the automaton may close.  Read
    # as the outer t0+3 it would be t0+8, before either.
    SHADOW = """
    automaton late { state S0 init; S0 --[10, !cls]--> accept; }
    fn shadow(c: Unit<u where Geq<u, Shift<t0, 10>>>) ->
        Produce<int, t where Eq<t, Shift<t0, 3>>,
          Produce<int, s where Eq<s, Shift<t0, 7>>,
            Unit<z where Eq<z, Shift<s, 5>>>>> {
        Prod<t where Eq<t, Shift<t0, 3>>> $ 1 $;
        Prod<t where Eq<t, Shift<t0, 7>>> $ 2 $;
        Wait<Shift<t, 5>>(c);
        Close<z where Eq<z, Shift<t, 5>>>
    }
    system sh = shadow(c = late as k) @ t0;
    """

    # The second Cons rebinds v, so the Supply must pass on q's value.
    REUSE = """
    sort num;
    extern fn first() -> num;
    extern fn second() -> num;
    automaton give1 { state S0 init; state S1; S0 --[!val(first)]--> S1; S1 --[!cls]--> accept; }
    automaton give2 { state S0 init; state S1; S0 --[!val(second)]--> S1; S1 --[!cls]--> accept; }
    automaton take { state S0 init; state S1; S0 --[?val]--> S1; S1 --[!cls]--> accept; }
    type GIVE = Produce<num, a where Geq<a, t0>, Unit<b where Geq<b, a>>>
    type TAKE = Request<num, a where Geq<a, t0>, Unit<b where Geq<b, a>>>
    fn relay(p: GIVE, q: GIVE, r: TAKE) -> Unit<z where Eq<z, t0>> {
        Cons<t0>(p) { v =>
        Cons<t0>(q) { v =>
            Supply<t0>(r) $ v $;
            Wait<t0>(p); Wait<t0>(q); Wait<t0>(r);
            Close<z where Eq<z, t0>>
        }}
    }
    system go = relay(p = give1 as g1, q = give2 as g2, r = take as k) @ t0;
    """

    # The instance is called c, like the spawn's binder, and the receive
    # rebinds x: the waits must reach #1 and the received #2, not instance c.
    SHADOWED_CHANNEL = """
    automaton closer { state S0 init; S0 --[!cls]--> accept; }
    fn pair() -> Tensor<t where Eq<t, t0>, Unit<a where Eq<a, t0>>, Unit<b where Eq<b, t0>>> {
        SendCh<t where Eq<t, t0>> { Close<a where Eq<a, t0>> };
        Close<b where Eq<b, t0>>
    }
    fn main(x: Unit<u where Geq<u, t0>>) -> Unit<z where Eq<z, t0>> {
        Wait<t0>(x);
        Spawn<t0>(pair) { c =>
        RecvCh<t0>(c) { x =>
            Wait<t0>(c);
            Wait<t0>(x);
            Close<z where Eq<z, t0>>
        }}
    }
    system sh = main(x = closer as c) @ t0;
    """

    # Ill-typed on purpose: late is spawned at t0+5 and hands its parameter,
    # the caller's c, to a wait at LATE_WAIT.
    SPAWNED_ARGUMENT = """
    automaton closer { state S0 init; S0 --[!cls]--> accept; }
    fn late(x: Unit<u where Geq<u, t0>>) -> Unit<z where Geq<z, t0>> {
        Wait<LATE_WAIT>(x);
        Close<z where Geq<z, t0>>
    }
    fn main(c: Unit<u where Geq<u, t0>>) -> Unit<z where Geq<z, t0>> {
        Spawn<Shift<t0, 5>>(late, c) { k =>
            Wait<Shift<t0, 5>>(k);
            Close<z where Geq<z, t0>>
        }
    }
    system st = main(c = closer as s1) @ t0;
    """

    @staticmethod
    def run(src, entry):
        from tillst.parser import parse_program
        from tillst.typecheck import check_program

        prog = parse_program(src)
        verdicts = [r.render() for r in check_program(prog)]
        omega, start, defs = build_system(prog, entry)
        env = ExternEnv(prog)
        r = run_scheduler(omega, start, env=env, defs=defs)
        assert replay(r.sigma, env, defs)
        return verdicts, r

    def test_inner_time_binder_shadows_outer(self):
        verdicts, r = self.run(self.SHADOW, "sh")
        assert verdicts == ["ACCEPT shadow"]
        assert r.status == "done" and r.end_time == 12
        assert [(e.time, e.action.kind, e.channel) for e in r.trace] == \
            [(3, "value", "sh"), (7, "value", "sh"), (12, "close", "k"), (12, "close", "sh")]

    def test_reused_value_variable_sends_the_second_value(self):
        verdicts, r = self.run(self.REUSE, "go")
        assert verdicts == ["ACCEPT relay"]
        assert r.status == "done"
        supplied = [e.payload() for e in r.trace
                    if e.channel == "k" and e.action.kind == "value"]
        assert supplied == ["second@g2"]

    def test_received_channel_shadows_outer_binding(self):
        verdicts, r = self.run(self.SHADOWED_CHANNEL, "sh")
        assert verdicts == ["ACCEPT pair", "ACCEPT main"]
        assert r.status == "done"
        assert [(e.action.kind, e.channel, e.payload()) for e in r.trace] == [
            ("close", "c", None), ("silent", "#1", "spawn"), ("chan", "#1", "#2"),
            ("close", "#1", None), ("close", "#2", None), ("close", "sh", None)]

    def test_spawn_argument_is_the_callers_channel(self):
        _, r = self.run(self.SPAWNED_ARGUMENT.replace("LATE_WAIT", "Shift<t0, 5>"), "st")
        assert (r.status, r.end_time, len(r.trace)) == ("done", 5, 4)
        assert ("close", "s1") in [(e.action.kind, e.channel) for e in r.trace]

    def test_stale_instant_names_the_callers_channel(self):
        _, r = self.run(self.SPAWNED_ARGUMENT.replace("LATE_WAIT", "t0"), "st")
        assert r.status == "timing_violation"
        assert r.error.render() == ("client instant t0+0 on s1 misses the provider "
                                    "window <instant already passed>")


# One-variable windows once the fired binder y is closed: the constants stay
# within 6 of t0 and y, so every cut is below 30 and a scan to 40 is exact.
window_times = st.builds(t.TimeExpr, st.sampled_from([None, "z", "y"]), st.integers(-6, 6))
windows = st.recursive(
    st.one_of(st.just(t.TOP), st.just(t.BOT), st.builds(t.Leq, window_times, window_times),
              st.builds(t.Eq, window_times, window_times),
              st.builds(t.p_neq, window_times, window_times)),
    lambda inner: st.one_of(st.builds(t.And, inner, inner), st.builds(t.Or, inner, inner),
                            st.builds(t.p_not, inner)),
    max_leaves=5,
)


@given(windows, st.integers(-10, 10), st.integers(-12, 12))
def test_earliest_enabled_is_the_first_tick_the_window_holds(pred, y, lo):
    leaf = ProcC("a", s.CloseP("z", pred), rt.Env({"y": y}))
    scan = next((n for n in range(lo, 40) if t.eval_prop(pred, {"y": y, "z": n})), None)
    assert rt._earliest_enabled(leaf, lo) == scan


# ---------------------------------------------------------------------------
# The indexed scheduler against the loop it replaced


def reference_reductions(omega, now, env, defs):
    """The reference: one pass over every leaf at every call, clients read
    from each body's free channels, then every candidate built and
    normalized, in the candidate order of the runtime's docstring."""
    leaves = congruence_normalize(omega)
    used = set()
    for leaf in leaves:
        if isinstance(leaf, ProcC):
            used.update(map(leaf.env.chan, free_channels(leaf.body)))
        elif isinstance(leaf, FwdC):
            used.add(leaf.client)
    taken = used.union(leaf.chan for leaf in leaves)
    k = 1
    while f"#{k}" in taken:
        k += 1
    fresh = f"#{k}"
    per_leaf = [_leaf_steps(leaf, now, env, defs, fresh) for leaf in leaves]

    def after(fired, replaced):
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
        comm.append((after((i, j), snd.fire(a.payload) + rcv.fire(a.payload)),
                     TraceEvent(now, a, a.chan)))
    comm.sort(key=lambda c: _step_sort_key(c[1]))
    if len(comm) > 1:
        comm = list(dict.fromkeys(comm))
    offered.sort(key=lambda c: _step_sort_key(c[1]))
    return comm + offered


def reference_run(omega, start, env, defs, horizon):
    """The reference scheduler: the first reference candidate at every
    step, checked against ``reductions``, then the wait pass over an index
    built afresh.  Returns (status, error, trace, steps, final, end)."""
    clock, config = start, congruence_normalize(omega)
    steps, trace = [], []
    status, error = "done", None
    while True:
        while True:
            candidates = reference_reductions(config, clock, env, defs)
            assert reductions(config, clock, env, defs) == candidates
            if not candidates:
                break
            new_config, event = candidates[0]
            steps.append(StepC(clock, config, new_config, None))
            trace.append(event)
            config = new_config
        if not config:
            break
        violation, pend = _wait_pass(_Index(config, clock, env, defs))
        if violation is not None:
            status, error = "timing_violation", violation
            break
        if not pend:
            status = "deadlock"
            error = DeadlockInfo(clock, sorted(describe_leaf(x) for x in config))
            break
        if pend[0] > horizon:
            status, error = "horizon", HorizonInfo(pend[0], horizon)
            break
        steps.append(StepT(clock, pend[0], config, None))
        clock = pend[0]
    return status, error, trace, steps, config, clock


def _differential_cases():
    """Every corpus system, fanout N=2..24 with and without the early gas
    reading, chain n=10 with a late stage, and two smart-home mutants that
    the checker accepts and the run rejects."""
    from tillst import corpus_files, corpus_path

    cases = []
    for path in corpus_files():
        text = Path(path).read_text(encoding="utf-8")
        cases += [pytest.param(text, d.name, id=f"{Path(path).stem}:{d.name}")
                  for d in parse_program(text).systems]
    cases += [pytest.param(fanout_program(n, mut), "main", id=f"fanout{n}{'_mut' * mut}")
              for n in range(2, 25) for mut in (False, True)]
    home = Path(corpus_path("smart_home.tsl")).read_text(encoding="utf-8")
    guard40 = home.replace("S4 --[30, !val(read_gas)]", "S4 --[40, !val(read_gas)]")
    no_r = home.replace("S0 --[?R]--> S2;", "")
    assert guard40 != home and no_r != home
    cases += [pytest.param(chain_program(10, list(range(10)), late=4), "go", id="chain10_late4"),
              pytest.param(guard40, "main", id="smart_home_guard40"),
              pytest.param(no_r, "main", id="smart_home_no_R")]
    return cases


@pytest.mark.parametrize("text,entry", _differential_cases())
def test_scheduler_matches_reference_loop(text, entry):
    prog = parse_program(text)
    omega, start, defs = build_system(prog, entry)
    env = ExternEnv(prog, seed=0)
    horizon = start + 10**6
    status, error, trace, steps, final, end = reference_run(omega, start, env, defs, horizon)
    r = run_scheduler(omega, start, env=env, defs=defs)
    assert (r.status, r.end_time, r.final) == (status, end, final)
    assert (r.error and r.error.render()) == (error and error.render())
    assert r.trace == trace
    got, node = [], r.sigma
    while not isinstance(node, Refl):
        got.append(replace(node, rest=None))
        node = node.rest
    assert got == steps
    assert node == Refl(end, final)


SPAWNED = s.ProcDecl("w", (("x", None),), None, s.SelectLP("x", sh(0), CLOSE))
instants = st.integers(0, 1).map(sh)
names = st.sampled_from("abcdy")
ints = st.integers(0, 1).map(s.IntLit)


def compound(sub):
    return st.one_of(
        st.builds(s.WaitP, instants, names, sub),
        st.builds(s.LamRecv, st.just("t"), st.just(t.TOP), names, sub),
        st.builds(s.AppSend, names, instants, sub, sub),
        st.builds(s.PairSend, st.just("t"), st.just(t.TOP), sub, sub),
        st.builds(s.PairRecv, names, instants, names, sub),
        st.builds(s.InLP, st.just("t"), st.just(t.TOP), sub),
        st.builds(s.InRP, st.just("t"), st.just(t.TOP), sub),
        st.builds(s.CaseP, instants, names, sub, sub),
        st.builds(s.OfferP, st.just("t"), st.just(t.TOP), sub, sub),
        st.builds(s.SelectLP, names, instants, sub),
        st.builds(s.SelectRP, names, instants, sub),
        st.builds(s.ProdP, st.just("t"), st.just(t.TOP), ints, sub),
        st.builds(s.ConsP, names, instants, st.just("v"), sub),
        st.builds(s.QueryRecvP, st.just("t"), st.just(t.TOP), st.just("v"), sub),
        st.builds(s.SupplyP, names, instants, ints, sub),
        st.builds(s.SpawnP, instants, st.just("w"), st.tuples(names), names, sub),
    )


# Process bodies of every form but the conditional, providing at any instant
# and using channels a..d (and y, which a receive or a spawn may bind) at t0
# or t0+1, linear or not.
processes = st.recursive(st.one_of(st.just(CLOSE), st.builds(s.FwdP, instants, names)),
                         compound, max_leaves=8)


def outcome(thunk):
    try:
        return "ok", thunk()
    except TillstError as exc:
        return type(exc).__name__, str(exc)


@given(st.lists(st.tuples(st.sampled_from("abcd"), processes), max_size=4,
                unique_by=lambda x: x[0]))
# two senders of one label and two receivers of it: the exchanges order by
# sender, then receiver
@example([("a", s.OfferP("t", t.TOP, CLOSE, CLOSE)), ("b", s.SelectLP("a", sh(0), CLOSE)),
          ("c", s.SelectLP("a", sh(0), CLOSE)), ("d", s.CaseP(sh(0), "a", CLOSE, CLOSE))])
def test_index_matches_reference_on_random_configurations(leaves):
    # exchanges, sends to the environment, fresh names and forwarders
    # among process leaves that need not be well typed
    omega = tuple(ProcC(chan, body) for chan, body in leaves)
    env = ExternEnv(s.Program(procs=(SPAWNED,)))
    assert outcome(lambda: reductions(omega, 0, env)) == \
        outcome(lambda: reference_reductions(omega, 0, env, {}))

    def run():
        r = run_scheduler(omega, 0, horizon=4, env=env)
        return r.status, r.error and r.error.render(), r.trace, seq_steps(r.sigma), r.final

    def reference():
        status, error, trace, steps, final, _ = reference_run(omega, 0, env, {}, 4)
        return status, error and error.render(), trace, len(trace), final

    assert outcome(run) == outcome(reference)


def test_duplicate_transitions_give_one_candidate():
    # two identical transitions from one state, each paired with the one
    # waiting client: two exchanges with equal configuration and event, of
    # which the index, like the reference, lists the first only
    prog = parse_program("""
    automaton twice { state S0 init; S0 --[!cls]--> accept; S0 --[!cls]--> accept; }
    fn main(c: Unit<u where Geq<u, t0>>) -> Unit<z where Eq<z, t0>> {
        Wait<t0>(c);
        Close<z where Eq<z, t0>>
    }
    system d = main(c = twice as k) @ t0;
    """)
    omega, start, defs = build_system(prog, "d")
    env = ExternEnv(prog)
    index = _Index(omega, start, env, defs)
    (cand,) = index.candidates()
    ((sender, two),) = [(i, sends) for key in index.matched
                        for i, sends in index.sends[key].items()]
    assert sender == "k" and len(two) == 2
    got = reductions(omega, start, env, defs)
    assert got == reference_reductions(omega, start, env, defs)
    assert got == [(cand.config, cand.event)]
    assert [event.channel for _, event in got] == ["k"]
    seen = []
    r = run_scheduler(omega, start, env=env, defs=defs,
                      tiebreak=lambda now, cands: seen.append(len(cands)) or 0)
    assert r.status == "done" and seen == [1, 1]


# ---------------------------------------------------------------------------
# The step's delta against normalizing the whole configuration


@st.composite
def steps_on_configurations(draw):
    """A normalized configuration of processes, automata, forwarder chains
    and forwarders whose client no leaf provides, and a step on it: some of
    its channels fired and new leaves on held channels, on the clients of
    forwarders and on new channels, so that new leaves meet held ones,
    fired ones, each other and the clients of forwarders.  A new process
    closes, or waits on a channel first, so it may become a held provider's
    first client."""
    conf = congruence_normalize(draw(st.one_of(forwarder_chains(), configurations)))
    held = [leaf.chan for leaf in conf]
    fired = draw(st.lists(st.sampled_from(held), unique=True) if held else st.just([]))
    free = st.sampled_from(fired + [x.client for x in conf if isinstance(x, FwdC)]
                           + ["n0", "n1", "n2"])
    names = st.one_of(free, free, free, st.sampled_from(held)) if held else free
    forwarders = st.builds(FwdC, names, names)
    bodies = st.one_of(st.just(CLOSE), st.builds(s.WaitP, st.just(sh(0)), names, st.just(CLOSE)))
    new_leaves = st.one_of(st.builds(ProcC, names, bodies), forwarders, forwarders,
                           st.builds(AutoC, names, st.just("bme680"), st.just("S0"), st.just(0)))
    return conf, tuple(fired), draw(st.lists(new_leaves, min_size=1, max_size=4))


BME680_S0 = {d.name: d for d in parse_program(
    "automaton bme680 { state S0 init; S0 --[?L]--> accept; }").automata}


def index_state(index):
    """What an index holds, with its candidates read."""
    cands = outcome(lambda: [(c.event, c.config) for c in index.candidates()])
    return (index.conf, index.leaves, index.clients, index.forwards, index.offered,
            index.fresh, cands)


def check_take(index, cand, take=_Index.take):
    """Take ``cand`` on ``index`` with ``take``, its candidates read: its
    configuration must be the kept leaves and the new ones normalized, and
    the index must then hold what an index built afresh on that
    configuration holds."""
    replaced = cand.step.fire(cand.payload)
    if cand.partner is not None:
        replaced = replaced + cand.partner.fire(cand.payload)
    kept = [x for x in index.conf if x.chan not in cand.fired]
    want = outcome(lambda: congruence_normalize(kept + replaced))
    assert outcome(lambda: cand.config) == want
    if want[0] == "ok":
        # an oracle apart from the merge both share
        assert want[1] == restart_normalize(kept + replaced)
        outcome(index.candidates)
        take(index, cand)
        assert index_state(index) == index_state(_Index(want[1], index.now, index.ext,
                                                        index.defs))
    return want


@settings(max_examples=200)
@given(steps_on_configurations())
@example(((FwdC("a", "g"), ProcC("b", CLOSE)), (), [AutoC("g", "bme680", "S0", 0)]))
@example(((FwdC("a", "g"), FwdC("b", "g")), (), [ProcC("g", CLOSE)]))
@example(((FwdC("b", "g"),), (), [FwdC("a", "g"), ProcC("g", CLOSE)]))
@example(((ProcC("a", CLOSE), FwdC("b", "z")), ("a",), [FwdC("z", "a"), ProcC("a", CLOSE)]))
@example(((ProcC("a", CLOSE),), (), [ProcC("b", s.WaitP(sh(0), "a", CLOSE))]))
@example(((ProcC("a", CLOSE),), (), [ProcC("b", CLOSE), ProcC("a", CLOSE), ProcC("b", CLOSE)]))
def test_delta_splices_the_normalized_configuration(case):
    # the examples: a held forwarder merges into a new provider of its
    # client; of two held forwarders waiting on one client, the first by
    # channel merges, and of a held and a new one, the held one; a new
    # forwarder's client is another new leaf's channel, which is also a
    # held forwarder's client; a new leaf is a
    # held provider's first client, whose close is then no longer offered
    # to the environment; two new leaves and a held one share channels
    conf, fired, replaced = case
    index = _Index(conf, 0, ExternEnv(), BME680_S0)
    step = rt.LocalStep(SILENT, lambda _: list(replaced))
    check_take(index, rt._Candidate(index, None, fired, step, None, None, None))


def _stepped_systems():
    """Every corpus system, fanout N=6, relays of forwarders made by spawns
    and systems spawning live providers in turn (``compare_outputs``'s
    ``relay_program`` and ``spawn_program``)."""
    from tillst import corpus_files

    from compare_outputs import relay_program, spawn_program

    cases = [(Path(path).read_text(encoding="utf-8"), d.name, Path(path).stem)
             for path in corpus_files()
             for d in parse_program(Path(path).read_text(encoding="utf-8")).systems]
    cases += [(fanout_program(6, False), "main", "fanout6")]
    cases += [(relay_program(n), "go", f"relay{n}") for n in (0, 1, 3)]
    cases += [(spawn_program(n), "go", f"spawn{n}") for n in (1, 3)]
    return [pytest.param(text, entry, id=f"{name}:{entry}") for text, entry, name in cases]


@pytest.mark.parametrize("text,entry", _stepped_systems())
def test_each_step_of_a_run_matches_the_normalized_configuration(text, entry, monkeypatch):
    prog = parse_program(text)
    omega, start, defs = build_system(prog, entry)
    env = ExternEnv(prog)
    taken = []

    def take(index, cand, conf=None):
        if conf is None:
            taken.append(check_take(index, cand, real))
            return
        # replay: the index holds the recorded configuration's own leaves
        real(index, cand, conf)
        replayed.append(cand)
        assert index.conf is conf
        assert all(index.leaves.get(chan) is leaf for leaf in conf for chan in cand.delta
                   if leaf.chan == chan)

    real, replayed = _Index.take, []
    monkeypatch.setattr(_Index, "take", take)
    r = run_scheduler(omega, start, env=env, defs=defs)
    assert len(taken) == seq_steps(r.sigma) > 0
    assert replay(r.sigma, env, defs)
    assert len(replayed) == len(taken)


def test_a_step_places_only_the_channels_it_touches(monkeypatch):
    # a 64-sensor hub: the entry configuration is the only one normalized
    # whole, and each step places at most the four leaves it changes
    prog = parse_program(fanout_program(64, False))
    omega, start, defs = build_system(prog, "main")
    normalized, placed, per_step = [], [], []

    def normalize(omega):
        normalized.append(len(omega))
        return real_normalize(omega)

    def place(index, chan, leaf):
        placed.append(chan)
        real_place(index, chan, leaf)

    def take(index, cand, conf=None):
        before = len(placed)
        real_take(index, cand, conf)
        per_step.append(len(placed) - before)

    real_normalize, real_place, real_take = rt.congruence_normalize, _Index._place, _Index.take
    monkeypatch.setattr(rt, "congruence_normalize", normalize)
    monkeypatch.setattr(_Index, "_place", place)
    monkeypatch.setattr(_Index, "take", take)
    r = run_scheduler(omega, start, env=ExternEnv(prog), defs=defs)
    assert (r.status, len(r.trace)) == ("done", 64 * 7 // 2 + 1)
    assert normalized == [65]
    assert len(per_step) == len(r.trace) and max(per_step) <= 4
    assert len(placed) == 65 + sum(per_step)


def test_replay_normalizes_only_the_entry_configuration(monkeypatch):
    # the recorded configurations are compared as recorded: the 65-leaf
    # entry is the one configuration replay normalizes
    prog = parse_program(fanout_program(64, False))
    omega, start, defs = build_system(prog, "main")
    r = run_scheduler(omega, start, env=ExternEnv(prog), defs=defs)
    normalized, real_normalize = [], rt.congruence_normalize

    def normalize(omega):
        normalized.append(len(omega))
        return real_normalize(omega)

    monkeypatch.setattr(rt, "congruence_normalize", normalize)
    assert replay(r.sigma, ExternEnv(prog), defs)
    assert normalized == [65]


def test_replay_compares_recorded_configurations_as_recorded():
    # a recorded configuration congruent to its normal form but not in it:
    # the first step's after, and the next node's start, with the leaves of
    # the normal form reversed
    prog = parse_program(fanout_program(4, False))
    omega, start, defs = build_system(prog, "main")
    r = run_scheduler(omega, start, env=ExternEnv(prog), defs=defs)
    spine, sigma = [], r.sigma
    while not isinstance(sigma, Refl):
        spine.append(sigma)
        sigma = sigma.rest
    spine.append(sigma)
    k = next(i for i, node in enumerate(spine) if isinstance(node, StepC))
    flipped = spine[k].after[::-1]
    assert flipped != spine[k].after and congruence_normalize(flipped) == spine[k].after
    spine[k] = replace(spine[k], after=flipped)
    field = "before" if isinstance(spine[k + 1], StepC) else "config"
    spine[k + 1] = replace(spine[k + 1], **{field: flipped})
    forged = rt.seq_prepend(spine[:-1], spine[-1])
    assert replay(r.sigma, ExternEnv(prog), defs)
    assert not replay(forged, ExternEnv(prog), defs)
