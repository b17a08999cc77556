import gc
import sys
from pathlib import Path

import pytest

from tillst import corpus_files
from tillst import syntax as s
from tillst import temporal as t
from tillst.parser import parse_program
from tillst.typecheck import (Checker, EntailmentSolver, LoggingSolver, TypeCheckError,
                              _retype, check_expr, check_program,
                              split_context)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the benchmark's generators
from perfbench.workloads import chain_program, fanout_program  # noqa: E402

T0 = t.INIT


def fwd_retype(g, f, a, b, at):
    """A can be forwarded as B at time ``at`` (all of B's window reachable)."""
    names = s.NameSupply()
    a, b = (s.expand_type_refs(None, x, names) for x in (a, b))
    return _retype(EntailmentSolver(), g, f, a, b, at, "fwd", cut=False)[0]


def cut_retype(g, f, a, b, at):
    """A covers the parts of B reachable from time ``at`` (cut permission)."""
    names = s.NameSupply()
    a, b = (s.expand_type_refs(None, x, names) for x in (a, b))
    return _retype(EntailmentSolver(), g, f, a, b, at, "cut", cut=True)[0]


def check_process(g, f, gamma, delta, p, at, a):
    """The judgment G;F | Gamma;Delta |- p :: a @ at on its own: None when
    it holds, else the typing error."""
    checker = Checker(s.Program())
    norm = lambda ty: s.expand_type_refs(None, ty, checker.names)
    try:
        checker.check_process(list(g), list(f), dict(gamma),
                              {x: norm(b) for x, b in delta.items()}, {}, p, at, norm(a))
        return None
    except TypeCheckError as exc:
        return exc.error


def U(pred, binder="t"):
    return s.UnitT(binder, pred)


ANY = U(t.Leq(T0, t.tvar("t")))
WINDOW5 = U(t.p_in(T0, t.tvar("t"), t.init_plus(5)))
FROM2 = U(t.Leq(t.init_plus(2), t.tvar("t")))


class TestFwdRetype:
    def test_identity(self):
        assert fwd_retype([], [], ANY, ANY, T0)

    def test_narrowing_is_fine(self):
        assert fwd_retype([], [], ANY, U(t.Leq(t.init_plus(5), t.tvar("t"))), T0)

    def test_late_forward_unsound(self):
        # waiting to t0+2 then forwarding a [t0, t0+5] window must fail
        assert not fwd_retype([], [], WINDOW5, WINDOW5, t.init_plus(2))

    def test_lolli_argument_contravariant(self):
        pin = t.Eq(t.tvar("t"), T0)
        cont = U(t.Leq(t.tvar("t"), t.tvar("u")), "u")
        wants_any = s.LolliT("t", pin, ANY, cont)
        wants_late = s.LolliT("t", pin, FROM2, cont)
        # a provider demanding a late argument can advertise the generous
        # interface (clients will hand it something at least as available),
        # never the other way around
        assert fwd_retype([], [], wants_late, wants_any, T0)
        assert not fwd_retype([], [], wants_any, wants_late, T0)

    def test_connective_mismatch(self):
        assert not fwd_retype([], [], ANY, s.TensorT("t", t.TOP, ANY, ANY), T0)


class TestCutRetype:
    def test_permissive_at_matching_instant(self):
        assert cut_retype([], [], FROM2, ANY, t.init_plus(2))

    def test_rejected_too_early(self):
        assert not cut_retype([], [], FROM2, ANY, T0)

    def test_reflexive_at_any_time(self):
        for a in (ANY, WINDOW5, FROM2):
            for n in (0, 2, 100):
                assert cut_retype([], [], a, a, t.init_plus(n))

    def test_fwd_reflexive_iff_reachable(self):
        # fwd_retype(A, A, T) holds exactly when the window is still reachable
        assert fwd_retype([], [], FROM2, FROM2, t.init_plus(2))
        assert fwd_retype([], [], FROM2, FROM2, T0)
        assert not fwd_retype([], [], WINDOW5, WINDOW5, t.init_plus(6))


class TestSplitContext:
    def test_disjoint(self):
        delta = {"x": ANY, "y": FROM2}
        left, right = split_context(delta, s.FwdP(T0, "x"), s.FwdP(T0, "y"))
        assert left == {"x": ANY} and right == {"y": FROM2}

    def test_duplicate_use(self):
        with pytest.raises(TypeCheckError) as exc:
            split_context({"x": ANY}, s.FwdP(T0, "x"), s.FwdP(T0, "x"))
        assert exc.value.error.kind == "LinearityViolation"

    def test_unused_channel(self):
        with pytest.raises(TypeCheckError) as exc:
            split_context({"x": ANY, "y": ANY}, s.FwdP(T0, "x"), s.CloseP("t", t.TOP))
        assert "never used" in exc.value.error.judgment


class TestCheckExpr:
    def test_arithmetic(self):
        assert check_expr({}, s.Arith("+", s.IntLit(1), s.IntLit(2)), {}) == s.INT

    def test_conditional(self):
        e = s.IfE(s.BoolLit(True), s.IntLit(1), s.IntLit(2))
        assert check_expr({}, e, {}) == s.INT

    def test_extern_call(self):
        externs = {"needAC": ((s.NamedType("sort_temp"), s.NamedType("sort_temp"),
                               s.NamedType("sort_gas")), s.BOOL)}
        gamma = {"u1": s.NamedType("sort_temp"), "u2": s.NamedType("sort_temp"),
                 "v1": s.NamedType("sort_gas")}
        e = s.CallE("needAC", (s.VarE("u1"), s.VarE("u2"), s.VarE("v1")))
        assert check_expr(gamma, e, externs) == s.BOOL

    def test_failures(self):
        for bad in [s.Arith("+", s.BoolLit(True), s.IntLit(1)),
                    s.IfE(s.IntLit(1), s.IntLit(1), s.IntLit(2)),
                    s.IfE(s.BoolLit(True), s.IntLit(1), s.BoolLit(False)),
                    s.VarE("nope"),
                    s.CallE("missing", ())]:
            with pytest.raises(TypeCheckError) as exc:
                check_expr({}, bad, {})
            assert exc.value.error.kind == "ExprTypeError"


class TestCloseTiming:
    def test_exact_deadline(self):
        ty = U(t.Eq(t.tvar("t"), t.init_plus(5)))
        term = s.CloseP("t", t.Eq(t.tvar("t"), t.init_plus(5)))
        assert check_process([], [], {}, {}, term, T0, ty) is None

    def test_provider_too_late(self):
        ty = U(t.Eq(t.tvar("t"), t.init_plus(5)))
        term = s.CloseP("t", t.Eq(t.tvar("t"), t.init_plus(5)))
        err = check_process([], [], {}, {}, term, t.init_plus(6), ty)
        assert err is not None and err.kind == "TimingViolation"
        assert err.counterexample is not None

    def test_term_type_window_mismatch(self):
        ty = U(t.Leq(T0, t.tvar("t")))
        term = s.CloseP("t", t.Leq(t.init_plus(3), t.tvar("t")))
        err = check_process([], [], {}, {}, term, T0, ty)
        assert err is not None and err.kind == "PredicateUnsatisfied"

    def test_leftover_channel(self):
        term = s.CloseP("t", t.Leq(T0, t.tvar("t")))
        err = check_process([], [], {}, {"x": ANY}, term, T0, ANY)
        assert err is not None and err.kind == "LinearityViolation"


VERDICTS = {
    "smart_home.tsl": {"hub": True, "hub_main": True},
    "keyless_entry.tsl": {"key": True, "car": True},
    "collision_detector.tsl": {"radar": True, "cdx": True, "atc": True},
    "minimum.tsl": {"helper": True, "minimum": True},
    "p_ok.tsl": {"p1": True, "p2": True},
    "p3_deadline_miss.tsl": {"p3": False},
    "p4_deadline_miss.tsl": {"p4": False},
    "unsound_forward.tsl": {"bad_fwd": False},
    "cut_ok.tsl": {"late": True, "use_late": True},
    "cut_bad.tsl": {"late": True, "use_early": False},
    "adequacy.tsl": {"adq0": True, "adq1": True, "half": True, "adq5": True,
                     "src10": True, "adq50": True, "adq1000": True},
    "deadlock.tsl": {"pend": True, "dmain": False},
}


@pytest.mark.parametrize("name", sorted(VERDICTS), ids=lambda n: n)
def test_corpus_verdicts(name, load_corpus):
    reports = check_program(load_corpus(name))
    got = {r.name: r.accepted for r in reports}
    assert got == VERDICTS[name]


def test_deadline_misses_are_timing_violations(load_corpus):
    for name, proc in [("p3_deadline_miss.tsl", "p3"), ("p4_deadline_miss.tsl", "p4")]:
        report = {r.name: r for r in check_program(load_corpus(name))}[proc]
        assert report.error.kind == "TimingViolation"
        assert "AppSend" in report.error.location  # blames the second send


def test_retype_failures_blame_the_right_rule(load_corpus):
    bad_fwd = check_program(load_corpus("unsound_forward.tsl"))[0]
    assert bad_fwd.error.kind == "RetypeFailure" and "FwdP" in bad_fwd.error.location
    use_early = {r.name: r for r in check_program(load_corpus("cut_bad.tsl"))}["use_early"]
    assert use_early.error.kind == "RetypeFailure" and "SpawnP" in use_early.error.location


def test_shape_mismatch_never_reaches_the_solver(load_corpus):
    prog = load_corpus("deadlock.tsl")
    solver = LoggingSolver()
    reports = check_program(prog, solver)
    bad = {r.name: r for r in reports}["dmain"]
    assert bad.error.kind == "ShapeMismatch"
    locs = [q.location for q in solver.queries]
    assert not any("dmain/SpawnP/ConsP" in loc for loc in locs)


def test_acceptance_stable_under_alpha_renaming(load_corpus):
    src = open(__import__("tillst").corpus_path("p_ok.tsl"), encoding="utf-8").read()
    renamed = src.replace("t1", "w1").replace("t2", "w2").replace("z2", "q2") \
                 .replace("z3", "q3")
    reports = check_program(parse_program(renamed))
    assert all(r.accepted for r in reports)


def test_hypothesis_weakening_preserves_acceptance():
    # adding hypotheses can only help: entailment monotonicity lifted
    ty = U(t.Eq(t.tvar("t"), t.init_plus(5)))
    term = s.CloseP("t", t.Eq(t.tvar("t"), t.init_plus(5)))
    extra = [t.Leq(T0, t.tvar("g1")), t.BOT]
    for hyp in extra:
        assert check_process(["g1"], [hyp], {}, {}, term, T0, ty) is None


def test_spawn_argument_types_must_match_verbatim():
    src = """
    fn taker(c: Unit<t where Geq<t, t0>>) -> Unit<u where Geq<u, t0>> {
        Wait<t0>(c);
        Close<u where Geq<u, t0>>
    }
    fn giver() -> Unit<t where Geq<t, t0>> { Close<t where Geq<t, t0>> }
    fn driver() -> Unit<u where Geq<u, t0>> {
        Spawn<t0>(giver) { g =>
            Spawn<t0>(taker, g) { k =>
                Wait<t0>(k);
                Close<u where Geq<u, t0>>
            }
        }
    }
    """
    assert all(r.accepted for r in check_program(parse_program(src)))
    # a window mismatch in the argument type is rejected even though it would
    # retype: arguments pass verbatim
    src_bad = src.replace("fn giver() -> Unit<t where Geq<t, t0>>",
                          "fn giver() -> Unit<t where Geq<t, Shift<t0, 1>>>")
    src_bad = src_bad.replace("{ Close<t where Geq<t, t0>> }",
                              "{ Close<t where Geq<t, Shift<t0, 1>>> }", 1)
    reports = {r.name: r for r in check_program(parse_program(src_bad))}
    assert not reports["driver"].accepted
    assert reports["driver"].error.kind == "ShapeMismatch"


def test_spawn_rechecks_callee_at_spawn_time():
    # helper closes "any time from t0"; spawning it at t0+5 must fail because
    # its own close could be scheduled before the spawn instant
    src = """
    fn early() -> Unit<t where Eq<t, Shift<t0, 2>>> { Close<t where Eq<t, Shift<t0, 2>>> }
    fn too_late(w: Unit<t where Geq<t, t0>>) -> Unit<u where Geq<u, t0>> {
        Wait<Shift<t0, 5>>(w);
        Spawn<Shift<t0, 5>>(early) { k =>
            Wait<Shift<t0, 5>>(k);
            Close<u where Geq<u, t0>>
        }
    }
    """
    reports = {r.name: r for r in check_program(parse_program(src))}
    assert reports["early"].accepted
    assert not reports["too_late"].accepted
    assert reports["too_late"].error.kind == "TimingViolation"


def test_recursive_spawn_rejected():
    src = """
    fn a() -> Unit<t where Geq<t, t0>> {
        Spawn<t0>(a) { k => Wait<t0>(k); Close<t where Geq<t, t0>> }
    }
    """
    reports = check_program(parse_program(src))
    assert not reports[0].accepted
    assert "recursive" in reports[0].error.judgment


def test_every_process_form_has_exactly_one_rule():
    judgmental = {s.FwdP, s.SpawnP, s.IfP}
    covered = set(s.PROVIDES) | set(s.USES) | judgmental
    assert set(s.PROVIDES) & set(s.USES) == set()
    assert covered == set(s.Process)


def test_empty_program_empty_report():
    assert check_program(parse_program("")) == []


# One program per message the checker can emit, each rejecting ``p`` with
# exactly the given line; the locations also pin the /payload, /R and
# spawned-body path segments.
UNIT = "Unit<u where Geq<u, t0>>"
CLOSE = "Close<u where Geq<u, t0>>"
TENSOR = f"Tensor<t where Geq<t, t0>, {UNIT}, {UNIT}>"
WINDOW = "Unit<t where In<t0, t, Shift<t0, 5>>>"

# Channels partly consumed by a client exchange, whose rest is read by a
# forward, a spawn and a payload provider: each reads the consumed binder
# as the instant of that exchange.
D = "type D = Produce<s where Geq<s, t0>, int, Unit<z where Eq<z, Shift<s, 5>>>>;\n"
RELAY = (f"{D}fn relay(x: D) -> Unit<u where Eq<u, Shift<t0, 8>>> {{ "
         "Cons<Shift<t0, 3>>(x) { v => Fwd<Shift<t0, 3>>(x) } }")
SINK = ("fn sink(y: Unit<z where Eq<z, Shift<t0, 8>>>) -> Unit<u where Eq<u, Shift<t0, 9>>> "
        "{ Wait<Shift<t0, 8>>(y); Close<u where Eq<u, Shift<t0, 9>>> }\n")
MAIN = ("fn main(x: D) -> Unit<u where Eq<u, Shift<t0, 9>>> { Cons<Shift<t0, 3>>(x) { v => "
        "Spawn<Shift<t0, 3>>(sink, x) { k => Fwd<Shift<t0, 3>>(k) } } }")
L = ("type L = Lolli<t where Geq<t, t0>, Unit<a where Eq<a, Shift<t, 2>>>, "
     "Unit<b where Geq<b, t>>>;\n")
USER = (f"{L}fn user(x: L) -> Unit<u where Eq<u, Shift<t0, 5>>> {{ "
        "App<Shift<t0, 1>>(x <= { Close<a where Eq<a, Shift<t0, 3>>> }); "
        "Wait<Shift<t0, 4>>(x); Close<u where Eq<u, Shift<t0, 5>>> }")
A8 = "Unit<u where Eq<u, Shift<t0, 8>>>"
USE_X = "Cons<Shift<t0, 3>>(x) { v => Fwd<Shift<t0, 3>>(x) }"  # provides A8 from x: D
REQ = "Request<int, q where Geq<q, t0>, Unit<w where Geq<w, q>>>"

REJECTS = {
    "provider_type_window": (
        f"fn p() -> Unit<t where Leq<t0, t>> {{ Close<t where Leq<Shift<t0, 3>, t>> }}",
        "PredicateUnsatisfied at p/CloseP: type window not honored by term predicate: t#1; "
        "Leq<t0, t#1> |- Leq<Shift<t0, 3>, t#1> [counterexample: t#1 = t0+0]"),
    "provider_term_window": (
        f"fn p() -> Unit<t where Leq<Shift<t0, 3>, t>> {{ Close<t where Leq<t0, t>> }}",
        "PredicateUnsatisfied at p/CloseP: term predicate exceeds the type window: t#1; "
        "Leq<t0, t#1> |- Leq<Shift<t0, 3>, t#1> [counterexample: t#1 = t0+0]"),
    "provider_too_late": (
        f"fn p(x: {UNIT}) -> Unit<u where Eq<u, t0>> {{ Wait<Shift<t0, 1>>(x); "
        f"Close<u where Eq<u, t0>> }}",
        "TimingViolation at p/WaitP/CloseP: provider is too late for its window: u#2; "
        "Eq<u#2, t0> |- Leq<Shift<t0, 1>, u#2> [counterexample: u#2 = t0+0]"),
    "client_precedes": (
        f"fn p(x: {UNIT}, y: {UNIT}) -> {UNIT} {{ Wait<Shift<t0, 2>>(x); "
        f"Wait<Shift<t0, 1>>(y); {CLOSE} }}",
        "TimingViolation at p/WaitP/WaitP: client instant precedes the current time: .; . |- "
        "Leq<Shift<t0, 2>, Shift<t0, 1>> [counterexample: empty assignment]"),
    "client_window": (
        f"fn p(x: Unit<t where Leq<Shift<t0, 5>, t>>) -> {UNIT} {{ Wait<t0>(x); {CLOSE} }}",
        "TimingViolation at p/WaitP: client instant misses the provider window: .; . |- "
        "Leq<Shift<t0, 5>, t0> [counterexample: empty assignment]"),
    "fwd_instant": (
        f"fn p(x: {UNIT}) -> {UNIT} {{ Fwd<Shift<t0, 1>>(x) }}",
        "TimingViolation at p/FwdP: forward annotation differs from judgment time: .; . |- "
        "Eq<t0, Shift<t0, 1>> [counterexample: empty assignment]"),
    "fwd_leftover": (
        f"fn p(x: {UNIT}, y: {UNIT}) -> {UNIT} {{ Fwd<t0>(x) }}",
        "LinearityViolation at p/FwdP: forward must own exactly its source channel; "
        "leftover: y"),
    "fwd_empty": (
        f"fn p() -> {UNIT} {{ Fwd<t0>(x) }}",
        "LinearityViolation at p/FwdP: forward must own exactly its source channel; "
        "leftover: <empty>"),
    "close_unused": (
        f"fn p(x: {UNIT}) -> {UNIT} {{ {CLOSE} }}",
        "LinearityViolation at p/CloseP: channel x unused at close"),
    "client_unavailable": (
        f"fn p() -> {UNIT} {{ Wait<t0>(x); {CLOSE} }}",
        "LinearityViolation at p/WaitP: channel x is not available"),
    "split_both": (
        f"fn p(x: {UNIT}) -> {TENSOR} {{ SendCh<t where Geq<t, t0>> {{ Wait<t0>(x); "
        f"{CLOSE} }}; Wait<t0>(x); {CLOSE} }}",
        "LinearityViolation at p/PairSend: channel x used in both branches"),
    "split_never": (
        f"fn p(x: {UNIT}) -> {TENSOR} {{ SendCh<t where Geq<t, t0>> {{ {CLOSE} }}; {CLOSE} }}",
        "LinearityViolation at p/PairSend: channel x is never used"),
    "shape_provider": (
        f"fn p() -> {TENSOR} {{ Close<t where Geq<t, t0>> }}",
        "ShapeMismatch at p/CloseP: process form CloseP cannot provide or use Tensor<t#1 "
        "where Leq<t0, t#1>, Unit<u#2 where Leq<t0, u#2>>, Unit<u#3 where Leq<t0, u#3>>>"),
    "shape_client": (
        f"fn p(x: {TENSOR}) -> {UNIT} {{ Wait<t0>(x); {CLOSE} }}",
        "ShapeMismatch at p/WaitP: process form WaitP cannot provide or use Tensor<t#1 where "
        "Leq<t0, t#1>, Unit<u#2 where Leq<t0, u#2>>, Unit<u#3 where Leq<t0, u#3>>>"),
    "spawn_undeclared": (
        f"fn p() -> {UNIT} {{ Spawn<t0>(q) {{ k => Wait<t0>(k); {CLOSE} }} }}",
        "ShapeMismatch at p/SpawnP: spawn of undeclared proc q"),
    "spawn_recursive": (
        f"fn p() -> {UNIT} {{ Spawn<t0>(p) {{ k => Wait<t0>(k); {CLOSE} }} }}",
        "ShapeMismatch at p/SpawnP/p/SpawnP: recursive spawn chain through p is not supported"),
    "spawn_arity": (
        f"fn q() -> {UNIT} {{ {CLOSE} }}\nfn p(x: {UNIT}) -> {UNIT} {{ Spawn<t0>(q, x) {{ "
        f"k => Wait<t0>(k); {CLOSE} }} }}",
        "ShapeMismatch at p/SpawnP: q takes 0 channel arguments, got 1"),
    "spawn_unavailable": (
        f"fn q(c: {UNIT}) -> {UNIT} {{ Wait<t0>(c); {CLOSE} }}\nfn p() -> {UNIT} {{ "
        f"Spawn<t0>(q, z) {{ k => Wait<t0>(k); {CLOSE} }} }}",
        "LinearityViolation at p/SpawnP: spawn argument z is not available"),
    "spawn_argument_twice": (
        f"fn q(a: {UNIT}, b: {UNIT}) -> {UNIT} {{ Wait<t0>(a); Wait<t0>(b); {CLOSE} }}\n"
        f"fn p(x: {UNIT}) -> {UNIT} {{ Spawn<t0>(q, x, x) {{ k => Wait<t0>(k); {CLOSE} }} }}",
        "LinearityViolation at p/SpawnP: spawn argument x is passed twice"),
    # a binder naming a channel still in Delta would drop that channel unused
    "spawn_rebinds": (
        f"fn q() -> {UNIT} {{ {CLOSE} }}\n"
        f"fn p(x: {UNIT}) -> {UNIT} {{ Spawn<t0>(q) {{ x => Wait<t0>(x); {CLOSE} }} }}",
        "LinearityViolation at p/SpawnP: channel x is bound while still available"),
    "lam_rebinds": (
        f"fn p(x: {UNIT}) -> Lolli<t where Eq<t, t0>, {UNIT}, {UNIT}> {{ "
        f"Lam<t where Eq<t, t0>> {{ x => Wait<t0>(x); {CLOSE} }} }}",
        "LinearityViolation at p/LamRecv: channel x is bound while still available"),
    "recvch_rebinds": (
        f"fn p(x: {UNIT}, c: {TENSOR}) -> {UNIT} {{ "
        f"RecvCh<t0>(c) {{ x => Wait<t0>(x); Wait<t0>(c); {CLOSE} }} }}",
        "LinearityViolation at p/PairRecv: channel x is bound while still available"),
    "recvch_rebinds_own_channel": (
        f"fn p(c: {TENSOR}) -> {UNIT} {{ RecvCh<t0>(c) {{ c => Wait<t0>(c); {CLOSE} }} }}",
        "LinearityViolation at p/PairRecv: channel c is bound while still available"),
    "spawn_argument_type": (
        f"fn q(c: {UNIT}) -> {UNIT} {{ Wait<t0>(c); "
        f"{CLOSE} }}\nfn p(z: Unit<u where Geq<u, Shift<t0, 1>>>) -> {UNIT} {{ "
        f"Spawn<t0>(q, z) {{ k => Wait<Shift<t0, 1>>(k); {CLOSE} }} }}",
        "ShapeMismatch at p/SpawnP: spawn argument z has type Unit<u#3 where Leq<Shift<t0, "
        "1>, u#3>>, but q expects Unit<u#5 where Leq<t0, u#5>>"),
    "spawn_instant": (
        f"fn q() -> {UNIT} {{ {CLOSE} }}\nfn p() -> {UNIT} {{ Spawn<Shift<t0, 1>>(q) {{ k => "
        f"Wait<Shift<t0, 1>>(k); {CLOSE} }} }}",
        "TimingViolation at p/SpawnP: spawn annotation differs from judgment time: .; . |- "
        "Eq<t0, Shift<t0, 1>> [counterexample: empty assignment]"),
    "retype_window": (
        f"fn q() -> Unit<t where Leq<Shift<t0, 2>, t>> {{ "
        f"Close<t where Leq<Shift<t0, 2>, t>> }}\nfn p() -> {UNIT} {{ Spawn<t0>(q) {{ "
        f"k : Unit<t where Leq<t0, t>> => Wait<t0>(k); {CLOSE} }} }}",
        "RetypeFailure at p/SpawnP: window not covered: t#4; Leq<t0, t#4>, Leq<t0, t#4> |- "
        "Leq<Shift<t0, 2>, t#4>"),
    "retype_reach": (
        f"fn p(x: {WINDOW}, y: {WINDOW}) -> {WINDOW} {{ "
        f"Wait<Shift<t0, 2>>(x); Fwd<Shift<t0, 2>>(y) }}",
        "RetypeFailure at p/WaitP/FwdP: unreachable instant: t#3; And<Leq<t0, t#3>, Leq<t#3, "
        "Shift<t0, 5>>> |- Leq<Shift<t0, 2>, t#3>"),
    "retype_connective": (
        f"fn p(x: {UNIT}) -> {TENSOR} {{ Fwd<t0>(x) }}",
        "RetypeFailure at p/FwdP: connective mismatch: Unit<u#1 where Leq<t0, u#1>> vs "
        "Tensor<t#2 where Leq<t0, t#2>, Unit<u#3 where Leq<t0, u#3>>, Unit<u#4 where Leq<t0, "
        "u#4>>>"),
    "retype_payload": (
        f"fn p(x: Produce<int, t where Geq<t, t0>, {UNIT}>) -> "
        f"Produce<bool, t where Geq<t, t0>, {UNIT}> {{ "
        f"Fwd<t0>(x) }}",
        "RetypeFailure at p/FwdP: payload sort mismatch: int vs bool"),
    "produced_sort": (
        f"fn p() -> Produce<int, t where Geq<t, t0>, {UNIT}> {{ "
        f"Prod<t where Geq<t, t0>> $ true $; {CLOSE} }}",
        "ExprTypeError at p/ProdP: produced value has sort bool, type wants int"),
    "supplied_sort": (
        f"fn p(x: Request<int, t where Geq<t, t0>, {UNIT}>) -> {UNIT} {{ "
        f"Supply<t0>(x) $ true $; Wait<t0>(x); {CLOSE} }}",
        "ExprTypeError at p/SupplyP: supplied value has sort bool, channel wants int"),
    "if_sort": (
        f"fn p() -> {UNIT} {{ if $ 1 $ {{ {CLOSE} }} else {{ {CLOSE} }} }}",
        "ExprTypeError at p/IfP: if condition has sort int, not bool"),
    "app_split": (
        f"fn p(c: Lolli<t where Geq<t, t0>, {UNIT}, {UNIT}>, x: {UNIT}) -> {UNIT} {{ "
        f"App<t0>(c <= {{ Fwd<t0>(x) }}); Wait<t0>(x); {CLOSE} }}",
        "LinearityViolation at p/AppSend: channel x used in both branches"),
    "app_payload": (
        f"fn p(c: Lolli<t where Geq<t, t0>, {UNIT}, {UNIT}>, x: {UNIT}) -> {UNIT} {{ "
        f"App<t0>(c <= {{ Fwd<Shift<t0, 1>>(x) }}); Wait<t0>(c); {CLOSE} }}",
        "TimingViolation at p/AppSend/payload/FwdP: forward annotation differs from judgment "
        "time: .; . |- Eq<t0, Shift<t0, 1>> [counterexample: empty assignment]"),
    "case_right": (
        f"fn p(x: InChoice<t where Geq<t, t0>, {UNIT}, {UNIT}>) -> {UNIT} {{ Case<t0>(x) {{ "
        f"L => Wait<t0>(x); {CLOSE} }} {{ R => Wait<t0>(x); Wait<t0>(y); {CLOSE} }} }}",
        "LinearityViolation at p/CaseP/R/WaitP/WaitP: channel y is not available"),
    "spawn_body": (
        f"fn q() -> Unit<t where Eq<t, Shift<t0, 2>>> {{ "
        f"Close<t where Eq<t, Shift<t0, 2>>> }}\nfn p(w: {UNIT}) -> {UNIT} {{ "
        f"Wait<Shift<t0, 5>>(w); Spawn<Shift<t0, 5>>(q) {{ k => Wait<Shift<t0, 5>>(k); "
        f"{CLOSE} }} }}",
        "TimingViolation at p/WaitP/SpawnP/q/CloseP: provider is too late for its window: "
        "t#4; Eq<t#4, Shift<t0, 2>> |- Leq<Shift<t0, 5>, t#4> [counterexample: t#4 = t0+2]"),
    "forward_after_client": (
        RELAY.replace("Shift<t0, 8>", "Shift<t0, 9>"),
        "RetypeFailure at relay/ConsP/FwdP: window not covered: u#3; "
        "Eq<u#3, Shift<t0, 9>> |- Eq<u#3, Shift<t0, 8>>"),
    "spawn_after_client": (
        D + SINK.replace("Shift<t0, 8>", "Shift<t0, 7>") + MAIN,
        "ShapeMismatch at main/ConsP/SpawnP: spawn argument x has type "
        "Unit<z#4 where Eq<z#4, Shift<t0, 8>>>, but sink expects "
        "Unit<z#6 where Eq<z#6, Shift<t0, 7>>>"),
    "payload_after_client": (
        USER.replace("Close<a where Eq<a, Shift<t0, 3>>>", "Close<a where Eq<a, Shift<t0, 4>>>"),
        "PredicateUnsatisfied at user/AppSend/payload/CloseP: type window not honored by term "
        "predicate: a#2; Eq<a#2, Shift<t0, 3>> |- Eq<a#2, Shift<t0, 4>> "
        "[counterexample: a#2 = t0+3]"),
    # In each rule with two premises the first makes a client exchange on x
    # (or binds v) and the second fails: it sees Delta, Gamma and x's type,
    # rendered through the binders fixed so far, as they were before the
    # first.  A sent channel or a spawn argument goes to the first premise
    # alone, so there the second reads v.
    "if_else_after_then": (
        f"{D}fn p(x: D) -> {A8} {{ if $ true $ {{ {USE_X} }} else {{ Wait<t0>(x); "
        f"Close<u where Eq<u, Shift<t0, 8>>> }} }}",
        "ShapeMismatch at p/IfP/else/WaitP: process form WaitP cannot provide or use "
        "Produce<int, s#1 where Leq<t0, s#1>, Unit<z#2 where Eq<z#2, Shift<s#1, 5>>>>"),
    "case_right_after_left": (
        f"{D}fn p(c: InChoice<c where Geq<c, t0>, Unit<l where Geq<l, c>>, "
        f"Unit<r where Geq<r, c>>>, x: D) -> {A8} {{ Case<t0>(c) {{ L => Wait<t0>(c); {USE_X} }} "
        f"{{ R => Wait<t0>(c); Wait<t0>(x); Close<u where Eq<u, Shift<t0, 8>>> }} }}",
        "ShapeMismatch at p/CaseP/R/WaitP/WaitP: process form WaitP cannot provide or use "
        "Produce<int, s#4 where Leq<t0, s#4>, Unit<z#5 where Eq<z#5, Shift<s#4, 5>>>>"),
    "app_continuation_after_payload": (
        f"{D}fn p(c: Lolli<t where Geq<t, t0>, {A8}, {REQ}>, x: D) -> {UNIT} {{ "
        f"App<t0>(c <= {{ {USE_X} }}); Supply<Shift<t0, 3>>(c) $ v $; "
        f"Wait<Shift<t0, 3>>(c); {CLOSE} }}",
        "ExprTypeError at p/AppSend/SupplyP: unbound value variable v"),
    "spawn_cut_after_body": (
        f"{D}fn q(x: D) -> {A8} {{ {USE_X} }}\nfn p(y: D, r: {REQ}) -> {UNIT} {{ "
        f"Spawn<t0>(q, y) {{ k => Supply<t0>(r) $ v $; Wait<Shift<t0, 8>>(k); "
        f"Wait<Shift<t0, 8>>(r); {CLOSE} }} }}",
        "ExprTypeError at p/SpawnP/SupplyP: unbound value variable v"),
    # the type's t is free: the process binder t does not capture it
    "free_type_variable": (
        "fn prov() -> Unit<u where Leq<t, u>> { Close<t where Geq<t, t0>> }",
        "PredicateUnsatisfied at prov/CloseP: type window not honored by term predicate: u#1; "
        "Leq<t, u#1> |- Leq<t0, u#1> [counterexample: u#1 = t0-1]"),
}


@pytest.mark.parametrize("name", sorted(REJECTS))
def test_rejection_message(name):
    source, message = REJECTS[name]
    decl = message.split(" at ", 1)[1].split("/", 1)[0]  # a location starts with it
    reports = {r.name: r for r in check_program(parse_program(source))}
    assert reports[decl].render() == f"REJECT {decl}: {message}"


ACCEPTS = {
    "forward_after_client": (RELAY, ["ACCEPT relay"]),
    "spawn_after_client": (D + SINK + MAIN, ["ACCEPT sink", "ACCEPT main"]),
    "payload_after_client": (USER, ["ACCEPT user"]),
    "payload_forward_after_client": (
        f"{L}fn user(x: L, y: Unit<a where Eq<a, Shift<t0, 3>>>) -> "
        "Unit<u where Eq<u, Shift<t0, 5>>> { App<Shift<t0, 1>>(x <= { Fwd<Shift<t0, 1>>(y) }); "
        "Wait<Shift<t0, 4>>(x); Close<u where Eq<u, Shift<t0, 5>>> }",
        ["ACCEPT user"]),
}


@pytest.mark.parametrize("name", sorted(ACCEPTS))
def test_partly_consumed_channel_accepted(name):
    source, lines = ACCEPTS[name]
    assert [r.render() for r in check_program(parse_program(source))] == lines


def test_spawn_may_rebind_a_channel_it_passes():
    # the spawn's own arguments leave Delta before its binder enters it
    src = f"""
    fn id(y: {UNIT}) -> {UNIT} {{ Fwd<t0>(y) }}
    fn p(x: {UNIT}) -> {UNIT} {{ Spawn<t0>(id, x) {{ x => Wait<t0>(x); {CLOSE} }} }}
    """
    assert all(r.accepted for r in check_program(parse_program(src)))


def test_chain_check_expands_each_cell_once_and_models_only_refutations(monkeypatch):
    """Each hypothesis cell is read once, at the first query of a list
    through it, and Bellman-Ford runs only for a query that fails, to build
    its counterexample; the rest are decided on the shared difference
    graph."""
    real_literals, real_model = t._literals, t._conjunct_model
    expanded, solved = [], []

    def literals(p, positive):
        if positive:  # a hypothesis, not a negated goal
            expanded.append(p)
        return real_literals(p, positive)

    def model(literals, g):
        solved.append(literals)
        return real_model(literals, g)

    monkeypatch.setattr(t, "_literals", literals)
    monkeypatch.setattr(t, "_conjunct_model", model)
    for late, accepted in ((-1, True), (40, False)):
        expanded.clear()
        solved.clear()
        solver = LoggingSolver()
        [report] = check_program(parse_program(chain_program(50, list(range(50)), late)),
                                 solver)
        assert report.accepted == accepted
        cells, todo = 0, [solver.root]
        while todo:
            kids = list((todo.pop().kids or {}).values())
            cells, todo = cells + len(kids), todo + kids
        assert len(expanded) == cells > 40
        assert len(solved) == sum(not q.holds for q in solver.queries) == int(not accepted)


def test_a_check_leaves_no_cycle_through_its_program():
    # Neither the checker nor a type expansion is a reference cycle, so the
    # program, the checker and a logging solver's query log are freed when
    # the check returns, not at the next garbage collection.
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for path in corpus_files():
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            for solver in (EntailmentSolver(), LoggingSolver()):
                check_program(parse_program(text), solver)
            del solver
        gc.collect()
        kept = {type(o).__name__ for o in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not kept & {"Program", "ProcDecl", "Checker", "EntailmentSolver", "LoggingSolver",
                       "QueryRecord"}


def test_check_process_leaves_the_callers_dicts_unchanged():
    # the body fills each map the checker keeps: a value receive (Gamma),
    # client exchanges (Delta and the type binders), a provider (tm); the
    # second offered type fails at the last step, after all of those
    body = ("Cons<Shift<t0, 3>>(x) { v => Wait<Shift<t0, 8>>(x); "
            "Close<u where Eq<u, Shift<t0, 8>>> }")
    for offered, accepted in ((A8, True), (A8.replace("8", "9"), False)):
        prog = parse_program(f"{D}fn p(x: D) -> {offered} {{ {body} }}")
        checker = Checker(prog)
        decl = prog.procs[0]
        gamma, tm = {"w": s.INT}, {"b": t.init_plus(1)}
        delta = {"x": checker.expand(s.TypeRef("D"))}
        before = (dict(gamma), dict(delta), dict(tm))
        try:
            checker.check_process((), (), gamma, delta, tm, decl.body, T0,
                                  checker.expand(decl.offered), "p")
        except TypeCheckError as exc:
            assert not accepted and exc.error.kind == "PredicateUnsatisfied"
        else:
            assert accepted
        assert (gamma, delta, tm) == before


def test_fanout_hub_exchanges_hand_one_delta_on(monkeypatch):
    # every client exchange on the hub's one path of judgments updates the
    # same Delta in place: none copies the context of the other sensors
    seen = []
    exchange = Checker._exchange

    def spy(self, j, loc):
        if type(j.p) not in s.PROVIDES:
            seen.append(j.delta)
        return exchange(self, j, loc)

    monkeypatch.setattr(Checker, "_exchange", spy)
    [report] = check_program(parse_program(fanout_program(64, False)))
    assert report.accepted
    assert len(seen) == 32 * 4 + 32 * 3  # SelectR, Cons, Cons, Wait; SelectL, Cons, Wait
    assert all(d is seen[0] for d in seen)


def test_retype_owns_its_maps():
    # the caller's map is copied, and the second of two component pairs does
    # not see the binders the first one fixed: a's right window names u
    # free, spelled like its left binder (expanded types never do this)
    def u_then_w(v, w):
        after = lambda x: t.Leq(t.tvar(x), t.tvar(w))
        return s.TensorT("t", t.Leq(T0, t.tvar("t")), U(t.Leq(t.tvar("t"), t.tvar(v)), v),
                         U(t.And(after("t"), after("u")), w))

    a, b = u_then_w("u", "w"), u_then_w("v", "w2")
    bm = {"x": T0}
    assert _retype(EntailmentSolver(), (), (), a, b, T0, "fwd", cut=False, ma=bm, mb=bm)[0]
    assert bm == {"x": T0}
