import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tillst import syntax as s
from tillst import temporal as t
from tillst.cli import build_system
from tillst.runtime import (STOP, AutoC, BoolV, ExternEnv, FwdC, IntV, ParC,
                            ProcC, RecvLblA, RecvValA, RuntimeInvariantError,
                            SendChanA, SendCloseA, SendLblA, SendValA, SILENT,
                            StopC, TraceEvent, action_dir, action_kind,
                            comm_step, complementary, congruence_normalize,
                            conf_leaves, enumerate_transitions, eval_expr,
                            provider_of, replay, run_scheduler,
                            trace_from_jsonl, trace_to_jsonl)

T0 = t.INIT
sh = t.init_plus

actions = st.one_of(
    st.just(SILENT),
    st.builds(SendChanA, st.sampled_from("ab"), st.sampled_from("cd")),
    st.builds(SendLblA, st.sampled_from("ab"), st.sampled_from("LR")),
    st.builds(RecvLblA, st.sampled_from("ab"), st.sampled_from("LR")),
    st.builds(SendCloseA, st.sampled_from("ab")),
    st.builds(SendValA, st.sampled_from("ab"), st.builds(IntV, st.integers(-5, 5))),
    st.builds(RecvValA, st.sampled_from("ab"), st.builds(IntV, st.integers(-5, 5))),
)


@given(actions)
def test_complementary_involution(alpha):
    assert complementary(complementary(alpha)) == alpha


def test_complementary_table():
    assert complementary(SendLblA("a", "L")) == RecvLblA("a", "L")
    assert complementary(SILENT) == SILENT


CLOSE = s.CloseP("t", t.TOP)

leaf_configs = st.one_of(
    st.just(StopC()),
    st.builds(ProcC, st.sampled_from("abcdef"), st.just(CLOSE)),
    st.builds(AutoC, st.sampled_from("ghij"), st.just("bme680"),
              st.sampled_from(["S0", "S2"]), st.integers(0, 5)),
)


@st.composite
def configurations(draw):
    leaves = draw(st.lists(leaf_configs, max_size=5))
    names = [provider_of(x) for x in leaves if not isinstance(x, StopC)]
    if len(set(names)) != len(names):
        leaves = list({provider_of(x): x for x in leaves
                       if not isinstance(x, StopC)}.values())
    conf = STOP
    for leaf in leaves:
        conf = ParC(leaf, conf) if draw(st.booleans()) else ParC(conf, leaf)
    return conf


@given(configurations())
def test_normalize_idempotent(conf):
    once = congruence_normalize(conf)
    assert congruence_normalize(once) == once


class TestCongruence:
    def test_stop_unit(self):
        assert congruence_normalize(ParC(STOP, ProcC("a", CLOSE))) == ProcC("a", CLOSE)

    def test_fwd_merge(self):
        got = congruence_normalize(ParC(ProcC("a", CLOSE), FwdC("b", "a")))
        assert got == ProcC("b", CLOSE)

    def test_fwd_contraction_chain(self):
        conf = ParC(FwdC("c", "b"), ParC(FwdC("b", "a"), ProcC("a", CLOSE)))
        assert congruence_normalize(conf) == ProcC("c", CLOSE)

    def test_dangling_forward_kept(self):
        conf = ParC(FwdC("a", "ghost"), ProcC("b", CLOSE))
        got = congruence_normalize(conf)
        assert FwdC("a", "ghost") in conf_leaves(got)

    def test_duplicate_providers_rejected(self):
        with pytest.raises(RuntimeInvariantError):
            congruence_normalize(ParC(ProcC("a", CLOSE), ProcC("a", CLOSE)))


class TestEnumerate:
    def test_close_fires_inside_window(self):
        w = ProcC("a", s.CloseP("t", t.Leq(T0, t.tvar("t"))))
        assert enumerate_transitions(w, 7) == [(SendCloseA("a"), STOP)]

    def test_offer_exposes_both_branches(self):
        off = ProcC("a", s.OfferP("t", t.TOP, s.CloseP("u", t.TOP), s.CloseP("v", t.BOT)))
        outs = enumerate_transitions(off, 3)
        assert {o[0] for o in outs} == {RecvLblA("a", "L"), RecvLblA("a", "R")}
        assert all(isinstance(c, ProcC) for _, c in outs)

    def test_client_fires_only_at_annotation(self):
        wait = ProcC("a", s.WaitP(sh(5), "x", CLOSE))
        assert enumerate_transitions(wait, 4) == []
        assert len(enumerate_transitions(wait, 5)) == 1


class TestCommStep:
    def test_close_meets_wait(self):
        omega = ParC(ProcC("a", s.CloseP("t", t.TOP)),
                     ProcC("b", s.WaitP(sh(2), "a", CLOSE)))
        ((conf, ev),) = comm_step(omega, 2)
        assert conf == ProcC("b", CLOSE)
        assert ev.action == SendCloseA("a") and ev.time == 2

    def test_spawn_is_solitary_silent(self):
        prog = s.Program(procs=(s.ProcDecl("w", (), s.UnitT("t", t.TOP), CLOSE),))
        env = ExternEnv(prog)
        omega = ProcC("a", s.SpawnP(sh(1), "w", (), "k", s.WaitP(sh(1), "k", CLOSE)))
        ((conf, ev),) = comm_step(omega, 1, env)
        assert ev.action == SILENT and ev.tag == "spawn"
        leaves = conf_leaves(conf)
        assert {provider_of(x) for x in leaves} == {"a", "#1"}

    def test_no_partner_no_step(self):
        assert comm_step(ProcC("a", s.CloseP("t", t.TOP)), 0) == []

    def test_value_exchange_evaluates_sender_first(self):
        prog = s.Program(externs=(s.ExternDecl("mk", (), s.INT),))
        env = ExternEnv(prog, seed=3)
        omega = ParC(ProcC("a", s.ProdP("t", t.TOP, s.CallE("mk", ()), CLOSE)),
                     ProcC("b", s.ConsP("a", sh(0), "v",
                                        s.SupplyP("missing", sh(0), s.VarE("v"), CLOSE))))
        ((conf, ev),) = comm_step(omega, 0, env)
        assert isinstance(ev.action, SendValA) and isinstance(ev.action.value, IntV)
        # the received value is bound in the receiving leaf's environment
        proc_b = next(x for x in conf_leaves(conf) if x.chan == "b")
        assert proc_b.body.expr == s.VarE("v")
        assert proc_b.env.values == {"v": ev.action.value}

    def test_fresh_names_stable_across_orderings(self):
        # the fresh name depends only on the configuration, not on counters
        prog = s.Program(procs=(s.ProcDecl("w", (), s.UnitT("t", t.TOP), CLOSE),))
        env = ExternEnv(prog)
        omega = ProcC("a", s.SpawnP(sh(0), "w", (), "k", s.WaitP(sh(0), "k", CLOSE)))
        first = comm_step(omega, 0, env)
        second = comm_step(omega, 0, env)
        assert first == second


class TestScheduler:
    def test_adequacy_single_close(self):
        p = ProcC("a", s.CloseP("t", t.Eq(t.tvar("t"), sh(5))))
        r = run_scheduler(p, 0)
        assert r.status == "done" and r.end_time == 5
        assert r.trace == [TraceEvent(5, SendCloseA("a"), "a")]
        assert replay(r.sigma)

    def test_adequacy_against_wait_harness(self):
        p = ParC(ProcC("a", s.CloseP("t", t.Eq(t.tvar("t"), sh(5)))),
                 ProcC("h", s.WaitP(sh(5), "a", s.CloseP("t", t.TOP))))
        r = run_scheduler(p, 0)
        assert r.status == "done"
        assert [(e.time, action_kind(e.action), e.channel) for e in r.trace] == \
            [(5, "close", "a"), (5, "close", "h")]

    def test_deadlock_on_unchosen_offer(self):
        off = ProcC("a", s.OfferP("t", t.TOP, CLOSE, CLOSE))
        r = run_scheduler(off, 0)
        assert r.status == "deadlock"
        assert r.error.pending

    def test_timing_violation_blames_window(self):
        omega = ParC(ProcC("a", s.CloseP("t", t.Eq(t.tvar("t"), sh(3)))),
                     ProcC("b", s.WaitP(sh(9), "a", CLOSE)))
        r = run_scheduler(omega, 0)
        assert r.status == "timing_violation"
        assert r.error.channel == "a" and r.error.client_time == 9

    def test_missing_provider_is_timing_violation(self):
        omega = ProcC("b", s.WaitP(sh(1), "ghost", CLOSE))
        r = run_scheduler(omega, 0)
        assert r.status == "timing_violation"
        assert r.error.provider_pred == "<no provider>"

    def test_horizon_stops_runaway(self):
        p = ProcC("a", s.CloseP("t", t.Eq(t.tvar("t"), sh(5000))))
        r = run_scheduler(p, 0, horizon=100)
        assert r.status == "horizon"

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
    return [(e.time, action_dir(e.action), action_kind(e.action), e.channel,
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
        omega = ParC(AutoC("s1", "bme680", "S0", 0),
                     ParC(AutoC("s2", "bme680", "S0", 0),
                          ProcC("main", wrapper)))
        r = run_scheduler(omega, 0, env=env, defs=defs)
        assert r.status == "done" and r.end_time == 50
        comms = [(e.time, action_kind(e.action)) for e in r.trace
                 if action_dir(e.action) != "silent"]
        times = [tm for tm, _ in comms]
        assert times == [0, 0, 0, 0, 0, 0, 0, 30, 50, 50, 50]
        assert replay(r.sigma, env, defs)

    def test_instant_confluence(self, load_corpus):
        # permuting the firing order within each instant leaves the event
        # multiset unchanged (instants with at most 4 simultaneous choices)
        _, omega, start, defs, env = whole_system(load_corpus)
        base = run_scheduler(omega, start, env=env, defs=defs)
        baseline = sorted(as_tuples(base.trace))
        # count micro-steps per instant in the baseline
        per_instant = {}
        for ev in base.trace:
            per_instant[ev.time] = per_instant.get(ev.time, 0) + 1
        for when, micro in sorted(per_instant.items()):
            if micro > 4:
                continue
            for perm in itertools.permutations(range(micro)):
                plan = list(perm)

                def tiebreak(clock, candidates, w=when, plan=plan):
                    if clock == w and plan:
                        return plan.pop(0)
                    return 0

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

        before = ParC(ProcC("a", s.CloseP("t", t.TOP)),
                      ProcC("b", s.WaitP(sh(0), "a", CLOSE)))
        forged = StepC(0, before, ProcC("b", s.CloseP("t", t.BOT)), Refl(0, STOP))
        assert not replay(forged)

    def test_backwards_clock_rejected(self):
        from tillst.runtime import Refl, StepT

        conf = ProcC("a", CLOSE)
        assert not replay(StepT(5, 3, conf, Refl(3, conf)))


class TestTraceSerialization:
    def test_roundtrip(self, load_corpus):
        _, omega, start, defs, env = whole_system(load_corpus)
        r = run_scheduler(omega, start, env=env, defs=defs)
        text = trace_to_jsonl(r.trace)
        lines = [l for l in text.splitlines() if l]
        assert len(lines) == len(r.trace)
        back = trace_from_jsonl(text)
        assert [(e.time, e.channel, action_kind(e.action), action_dir(e.action),
                 e.payload()) for e in back] == as_tuples_reordered(r.trace)

    def test_field_order(self):
        text = trace_to_jsonl([TraceEvent(3, SendCloseA("a"), "a")])
        assert text.startswith('{"time": 3, "dir": "send", "kind": "close", '
                               '"channel": "a", "payload": null}')


def as_tuples_reordered(trace):
    return [(e.time, e.channel, action_kind(e.action), action_dir(e.action),
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
        omega = ParC(
            ParC(ProcC("a", s.CloseP("t", t.Eq(t.tvar("t"), sh(5)))),
                 ProcC("b", s.CloseP("t", t.Leq(T0, t.tvar("t"))))),
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
        r = run_scheduler(ParC(provider, client), 0)
        assert r.status == "done"
        kinds = [(action_kind(e.action), e.channel) for e in r.trace]
        assert kinds == [("label", "a"), ("close", "a"), ("close", "b")]

    def test_pair_send_allocates_fresh_provider(self):
        payload = s.CloseP("u", t.TOP)
        provider = ProcC("a", s.PairSend("t", t.TOP, payload, s.CloseP("u", t.TOP)))
        client = ProcC("b", s.PairRecv("a", sh(0), "y",
                                       s.WaitP(sh(0), "y",
                                               s.WaitP(sh(0), "a", CLOSE))))
        r = run_scheduler(ParC(provider, client), 0)
        assert r.status == "done"
        chan_ev = r.trace[0]
        assert action_kind(chan_ev.action) == "chan" and chan_ev.payload() == "#1"

    def test_internal_choice_pushes_label(self):
        provider = ProcC("a", s.InRP("t", t.TOP, s.CloseP("u", t.TOP)))
        client = ProcC("b", s.CaseP(sh(0), "a",
                                    s.WaitP(sh(0), "a", s.CloseP("u", t.BOT)),
                                    s.WaitP(sh(0), "a", CLOSE)))
        r = run_scheduler(ParC(provider, client), 0)
        assert r.status == "done"
        assert r.trace[0].action == SendLblA("a", "R")


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
    """Time binders and value variables bind by name, innermost first, in
    both the checker and the runtime."""

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
        assert [(e.time, action_kind(e.action), e.channel) for e in r.trace] == \
            [(3, "value", "sh"), (7, "value", "sh"), (12, "close", "k"), (12, "close", "sh")]

    def test_reused_value_variable_sends_the_second_value(self):
        verdicts, r = self.run(self.REUSE, "go")
        assert verdicts == ["ACCEPT relay"]
        assert r.status == "done"
        supplied = [e.payload() for e in r.trace
                    if e.channel == "k" and action_kind(e.action) == "value"]
        assert supplied == ["second@g2"]
