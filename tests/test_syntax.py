import pytest

from helpers import free_channels
from tillst import syntax as s
from tillst import temporal as t
from tillst.syntax import CyclicTypeDefError, expand_type_refs, free_channel_table

T0 = t.INIT


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

    def test_binder_scope_ends_with_its_subterm(self):
        # a binder in one branch leaves the other branch's x free, whichever
        # branch is read first; a spawn's arguments lie outside its binder
        binds = s.LamRecv("t1", t.TOP, "x", s.FwdP(T0, "x"))
        uses = s.FwdP(T0, "x")
        yes = s.BoolLit(True)
        assert free_channels(s.IfP(yes, binds, uses)) == {"x"}
        assert free_channels(s.IfP(yes, uses, binds)) == {"x"}
        # and a binder above a branch covers both arms
        assert free_channels(s.LamRecv("t1", t.TOP, "x", s.IfP(yes, uses, uses))) == set()
        spawn = s.SpawnP(T0, "f", ("k", "y"), "k", s.FwdP(T0, "k"))
        assert free_channels(spawn) == {"k", "y"}

    def test_deep_term(self):
        # one Python frame per level would overflow the stack here
        body = s.CloseP("t", t.TOP)
        for i in range(5000):
            body = s.WaitP(T0, f"c{i % 3}", s.PairRecv("d", T0, f"c{i % 3}", body))
        assert free_channels(body) == {"c0", "c1", "c2", "d"}



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


def reference_free_channels(p):
    """The free channels of ``p`` by one walk down from the root, keeping
    the channel binders above each node: the reference the bottom-up table
    is compared with.  Each form's last child is read in a loop and the
    others from a stack, each with the number of binders above it."""
    out, binders, bound, stack = set(), [], {}, [(p, 0)]
    while stack:
        p, depth = stack.pop()
        while len(binders) > depth:
            bound[binders.pop()] -= 1
        while True:
            uses, binder, children = s._PROC_FIELDS[type(p)]
            if uses == "args":
                out.update(x for x in p.args if not bound.get(x))
            elif uses is not None and not bound.get(getattr(p, uses)):
                out.add(getattr(p, uses))
            if binder is not None:
                binders.append(getattr(p, binder))
                bound[binders[-1]] = bound.get(binders[-1], 0) + 1
            if not children:
                break
            for name in children[:-1]:
                stack.append((getattr(p, name), len(binders)))
            p = getattr(p, children[-1])
    return out


def test_free_channel_table_agrees_on_every_subterm(load_corpus):
    # every subterm of every corpus body, each read from one table filled by
    # its root, against the top-down walk; a 3000-level term needs no Python
    # stack
    from tillst import corpus_files

    deep = s.CloseP("t", t.TOP)
    for i in range(3000):
        deep = s.WaitP(T0, f"c{i % 3}", s.PairRecv("d", T0, f"c{i % 3}", deep))
    assert free_channel_table(deep, {}) == {"c0", "c1", "c2", "d"}
    for path in corpus_files():
        for decl in load_corpus(path.rsplit("/", 1)[-1]).procs:
            table, stack = {}, [decl.body]
            free_channel_table(decl.body, table)
            while stack:
                p = stack.pop()
                assert table[id(p)] == (p, reference_free_channels(p))
                stack += [getattr(p, name) for name in s._PROC_FIELDS[type(p)][2]]
