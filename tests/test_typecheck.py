import pytest

from tillst import syntax as s
from tillst import temporal as t
from tillst.parser import parse_program
from tillst.typecheck import (EntailmentSolver, TypeCheckError, check_expr,
                              check_process, check_program, cut_retype,
                              fwd_retype, split_context)

T0 = t.INIT


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
    solver = EntailmentSolver()
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
    import typing

    judgmental = {s.FwdP, s.SpawnP, s.IfP}
    covered = set(s.PROVIDES) | set(s.USES) | judgmental
    assert set(s.PROVIDES) & set(s.USES) == set()
    assert covered == set(typing.get_args(s.Process))


def test_empty_program_empty_report():
    assert check_program(parse_program("")) == []


# One program per message the checker can emit, each rejecting ``p`` with
# exactly the given line; the locations also pin the /payload, /R and
# spawned-body path segments.
UNIT = "Unit<u where Geq<u, t0>>"
CLOSE = "Close<u where Geq<u, t0>>"
TENSOR = f"Tensor<t where Geq<t, t0>, {UNIT}, {UNIT}>"
WINDOW = "Unit<t where In<t0, t, Shift<t0, 5>>>"

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
}


@pytest.mark.parametrize("name", sorted(REJECTS))
def test_rejection_message(name):
    source, message = REJECTS[name]
    reports = {r.name: r for r in check_program(parse_program(source))}
    assert reports["p"].render() == f"REJECT p: {message}"
