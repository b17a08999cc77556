import pytest
from hypothesis import given
from hypothesis import strategies as st

from tillst import syntax as s
from tillst import temporal as t
from tillst.syntax import (CyclicTypeDefError, expand_type_refs, free_channels,
                           subst_chan, urgency_instantiate)

T0 = t.INIT


def unit_after(base, off=0, binder="t"):
    return s.UnitT(binder, t.Leq(t.tvar(base, off) if base else t.init_plus(off),
                                 t.tvar(binder)))


class TestUrgency:
    """Instantiation returns the components with the top binder replaced."""

    def test_unit_drops_binder(self):
        assert urgency_instantiate(s.UnitT("t", t.TOP), t.init_plus(3)) == ()

    def test_tensor_substitutes_both_components(self):
        a1 = s.UnitT("u", t.Leq(t.tvar("t"), t.tvar("u")))
        a2 = s.UnitT("u", t.Leq(t.tvar("t", 5), t.tvar("u")))
        got = urgency_instantiate(s.TensorT("t", t.TOP, a1, a2), t.init_plus(7))
        assert got == (s.UnitT("u", t.Leq(t.init_plus(7), t.tvar("u"))),
                       s.UnitT("u", t.Leq(t.init_plus(12), t.tvar("u"))))

    def test_produce_substitutes_continuation(self):
        # the payload sort is not a component: the checker reads it off the type
        inner = s.UnitT("u", t.Leq(t.tvar("t"), t.tvar("u")))
        got = urgency_instantiate(s.ProduceT("t", t.TOP, s.INT, inner), t.init_plus(2))
        assert got == (s.UnitT("u", t.Leq(t.init_plus(2), t.tvar("u"))),)

    def test_commutes_with_outer_substitution(self):
        # instantiating after substituting an unrelated variable equals
        # substituting after instantiating
        a = s.TensorT("t", t.Leq(t.tvar("s"), t.tvar("t")),
                      unit_after("t"), unit_after("s"))
        at = t.init_plus(4)
        sub_first = urgency_instantiate(s.subst_time_in_type(a, "s", t.init_plus(9)), at)
        inst_first = urgency_instantiate(a, at)
        subbed = tuple(s.subst_time_in_type(c, "s", t.init_plus(9)) for c in inst_first)
        assert sub_first == subbed


class TestFreeChannels:
    def test_fwd(self):
        assert free_channels(s.FwdP(T0, "x")) == {"x"}

    def test_close(self):
        assert free_channels(s.CloseP("t", t.TOP)) == set()

    def test_binders_shadow(self):
        body = s.LamRecv("t1", t.TOP, "x",
                         s.LamRecv("t2", t.TOP, "y",
                                   s.SelectRP("x", t.tvar("t1"),
                                              s.WaitP(t.tvar("t1"), "y",
                                                      s.CloseP("t", t.TOP)))))
        assert free_channels(body) == set()
        assert free_channels(body.cont) == {"x"}
        assert free_channels(body.cont.cont) == {"x", "y"}

    @given(st.sampled_from(["x", "y", "z"]), st.sampled_from(["a", "b"]))
    def test_subst_chan_tracks_freeness(self, x, a):
        p = s.WaitP(T0, x, s.AppSend("y", T0, s.FwdP(T0, "z"), s.CloseP("t", t.TOP)))
        before = free_channels(p)
        after = free_channels(subst_chan(p, x, a))
        expected = set(before)
        if x in before:
            expected.discard(x)
            expected.add(a)
        assert after == expected


class TestSubstitutions:
    def test_chan_rename(self):
        w = s.WaitP(t.init_plus(1), "x", s.CloseP("t", t.TOP))
        assert subst_chan(w, "x", "a") == s.WaitP(t.init_plus(1), "a", s.CloseP("t", t.TOP))

    def test_chan_binder_capture_avoided(self):
        # substituting x -> c under a binder named c must rename the binder
        body = s.PairRecv("y", T0, "c", s.AppSend("x", T0, s.FwdP(T0, "c"),
                                                  s.CloseP("t", t.TOP)))
        out = subst_chan(body, "x", "c")
        assert out.var != "c"
        assert free_channels(out) == {"y", "c"}


class TestExpansion:
    def test_self_reference_rejected(self):
        prog = s.Program(types=(s.TypeDecl("X", s.LolliT("t", t.TOP, s.TypeRef("X"),
                                                         s.UnitT("u", t.TOP))),))
        with pytest.raises(CyclicTypeDefError):
            expand_type_refs(prog, s.TypeRef("X"))

    def test_mutual_cycle_named(self):
        prog = s.Program(types=(
            s.TypeDecl("A", s.TensorT("t", t.TOP, s.TypeRef("B"), s.UnitT("u", t.TOP))),
            s.TypeDecl("B", s.TensorT("t", t.TOP, s.TypeRef("A"), s.UnitT("u", t.TOP))),
        ))
        with pytest.raises(CyclicTypeDefError) as exc:
            expand_type_refs(prog, s.TypeRef("A"))
        assert "A" in str(exc.value) and "B" in str(exc.value)

    def test_ref_free_type_is_stable(self):
        a = s.UnitT("t", t.Leq(T0, t.tvar("t")))
        out = expand_type_refs(s.Program(), a)
        assert s.alpha_eq_type(out, a)

    def test_free_variables_captured_at_use_site(self):
        # the continuation type's free t1 must pick up the enclosing binder
        cont = s.TypeDecl("REST", s.UnitT("u", t.Leq(t.tvar("t1", 30), t.tvar("u"))))
        full = s.TypeDecl("FULL", s.ProduceT("t1", t.TOP, s.INT, s.TypeRef("REST")))
        prog = s.Program(types=(cont, full))
        out = expand_type_refs(prog, s.TypeRef("FULL"))
        inner = out.cont
        assert inner.pred == t.Leq(t.tvar(out.binder, 30), t.tvar(inner.binder))

    def test_hub_expansion_shape(self, load_corpus):
        prog = load_corpus("smart_home.tsl")
        hub = expand_type_refs(prog, s.TypeRef("HUB"))
        assert isinstance(hub, s.LolliT)
        assert isinstance(hub.cont, s.LolliT)
        assert isinstance(hub.cont.cont, s.ProduceT)
        assert isinstance(hub.cont.cont.cont, s.UnitT)
        assert isinstance(hub.arg, s.EChoiceT)  # the sensor protocol
        gas = hub.arg.right.cont
        assert isinstance(gas, s.ProduceT) and gas.payload == s.NamedType("sort_gas")


def test_hub_body_channel_usage(load_corpus):
    # closed at the top, both sensors free once the two receives have bound them
    hub = load_corpus("smart_home.tsl").proc_decl("hub")
    assert free_channels(hub.body) == set()
    assert free_channels(hub.body.cont) == {"x"}
    assert free_channels(hub.body.cont.cont) == {"x", "y"}
