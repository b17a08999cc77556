"""Record semantics: equality, hashing, repr, immutability, defaults and
``replace``, as the AST, proposition and runtime records rely on them."""

import pytest

from tillst import corpus_path
from tillst import runtime as rt
from tillst import syntax as s
from tillst.parser import parse_program
from tillst.record import FrozenRecordError, field, record, replace
from tillst.temporal import INIT, TOP, And, Eq, Leq, TimeExpr, Top, tvar

AUTOMATON = s.AutomatonDef(
    "dev", ("S0", "S1"), "S0",
    (s.AutoTransition("S0", 0, s.Action("label", "recv", ""), "S1"),
     s.AutoTransition("S1", 5, s.Action("close", "send", ""), s.ACCEPT),
     s.AutoTransition("S0", 2, s.Action("close", "send", ""), s.ACCEPT)))


def test_equality_needs_the_same_class():
    x, y = tvar("x"), tvar("y", 1)
    assert Leq(x, y) == Leq(tvar("x"), tvar("y", 1))
    assert Leq(x, y) != Eq(x, y) and Eq(x, y) != Leq(x, y)
    assert s.SilentA() == s.SilentA()
    assert s.SilentA() != s.Action("silent", "silent", "")
    assert s.Action("silent", "silent", "") != s.SilentA()
    assert Leq(x, y).__eq__((x, y)) is NotImplemented


def test_equal_records_hash_equal():
    with open(corpus_path("smart_home.tsl")) as fh:
        text = fh.read()
    one, two = parse_program(text), parse_program(text)
    assert one is not two and one == two and hash(one) == hash(two)
    assert hash(And(Leq(INIT, tvar("t")), TOP)) == hash(And(Leq(INIT, tvar("t")), Top()))
    assert len({s.Action("label", "send", "c", "L"), s.Action("label", "send", "c", "L"),
                s.Action("label", "send", "c", "R")}) == 2


def test_declaration_positions_are_left_out():
    here, there = s.TypeDecl("T", s.TypeRef("U"), (1, 1)), s.TypeDecl("T", s.TypeRef("U"), (9, 4))
    assert here == there and hash(here) == hash(there)
    assert repr(here) == repr(there) == "TypeDecl(name='T', body=TypeRef(name='U'))"
    assert here.pos == (1, 1) and s.TypeDecl("T", s.TypeRef("U")).pos is None


def test_defaults_stay_class_attributes():
    assert s.TypeDecl.pos is None and s.Program.procs == () and rt.ProcC.env is rt.EMPTY_ENV
    assert "times" not in vars(rt.Env) and "moves" not in vars(s.AutomatonDef)


def test_each_env_gets_its_own_dicts():
    one, two = rt.Env(), rt.Env()
    assert one.times is not two.times and one.values is not two.values
    assert one.chans is not two.chans
    assert one == two and hash(one) == hash(two)  # Env's own __hash__ is kept
    assert hash(rt.Env({"t": 3})) == hash(rt.Env({"t": 3}))


def test_fields_cannot_be_assigned_or_deleted():
    e = TimeExpr("x", 3)
    with pytest.raises(AttributeError):
        e.offset = 4
    with pytest.raises(FrozenRecordError):
        del e.var
    with pytest.raises(AttributeError):
        rt.RunResult("done", [], (), rt.Refl(0, ()), 0).status = "deadlock"
    assert e == TimeExpr("x", 3)


def test_replace_changes_only_the_named_fields_and_reruns_post_init():
    assert replace(TimeExpr("x", 3), offset=5) == TimeExpr("x", 5)
    assert set(AUTOMATON.moves) == {"S0", "S1"}
    assert [tr.guard_offset for tr in AUTOMATON.moves["S0"]] == [0, 2]
    fewer = replace(AUTOMATON, transitions=AUTOMATON.transitions[:2])
    assert (fewer.name, fewer.states, fewer.initial) == ("dev", ("S0", "S1"), "S0")
    assert fewer.moves == {"S0": AUTOMATON.transitions[:1], "S1": AUTOMATON.transitions[1:2]}
    assert set(AUTOMATON.moves["S0"]) == {AUTOMATON.transitions[0], AUTOMATON.transitions[2]}
    decl = s.TypeDecl("T", s.TypeRef("U"), (2, 3))
    assert replace(decl, name="V").pos == (2, 3)


def test_reprs():
    assert repr(TimeExpr("x", 3)) == "TimeExpr(var='x', offset=3)"
    assert repr(TimeExpr(var=None, offset=0)) == "TimeExpr(var=None, offset=0)"
    assert repr(rt.Env()) == "Env(times={}, values={}, chans={})"
    assert repr(TOP) == "Top()"
    assert repr(s.SilentA()) == "SilentA(kind='silent', direction='silent', chan='', payload=None)"
    assert repr(s.Program()) == ("Program(sorts=(), externs=(), types=(), procs=(), "
                                 "automata=(), systems=())")
    assert repr(AUTOMATON).startswith("AutomatonDef(name='dev', states=('S0', 'S1'), "
                                      "initial='S0', transitions=(AutoTransition(src='S0', ")
    assert "moves" not in repr(AUTOMATON) and "pos" not in repr(AUTOMATON)


def test_fields_follow_the_annotations_after_those_of_record_bases():
    @record
    class Base:
        a: int
        b: int = 2
        tags: list = field(default_factory=list, hidden=True)

    @record
    class Sub(Base):
        c: int = 3

        def __post_init__(self):
            object.__setattr__(self, "total", self.a + self.b + self.c)

    made = Sub(1)
    assert repr(made).endswith("<locals>.Sub(a=1, b=2, c=3)") and made.total == 6
    assert Sub(1, 2, ["x"], 3) == made and Sub(1, 2, [], 4) != made
    assert Sub(1).tags is not made.tags and Base(1) != Sub(1)
    assert replace(made, c=10).total == 13
