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
