"""Record semantics: equality, hashing, repr, immutability, defaults and
``replace``, as the AST, proposition and runtime records rely on them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tillst.cli  # noqa: F401  (with tests/trajectory.py, loads every record class)
import trajectory  # noqa: F401
from tillst import corpus_path
from tillst import runtime as rt
from tillst import syntax as s
from tillst.parser import parse_program
from tillst.record import _MISSING, FrozenRecordError, field, record, replace
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


def per_class_methods(cls) -> dict:
    """The methods a decorator that compiles one source per class gives
    ``cls``: its field names spelled out in the source."""
    ns = {"_record_set": object.__setattr__, "_record_missing": _MISSING}
    params, body = ["self"], []
    for f in cls.__record_fields__:
        value = f.name
        if f.default_factory is not _MISSING:
            ns[f"_record_factory_{f.name}"] = f.default_factory
            params.append(f"{f.name}=_record_missing")
            value = f"_record_factory_{f.name}() if {f.name} is _record_missing else {f.name}"
        elif f.default is not _MISSING:
            ns[f"_record_default_{f.name}"] = f.default
            params.append(f"{f.name}=_record_default_{f.name}")
        else:
            params.append(f.name)
        body.append(f"  _record_set(self, {f.name!r}, {value})\n")
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()\n")
    key = [f.name for f in cls.__record_fields__ if not f.hidden]
    mine, theirs = ("".join(f"{who}.{name}, " for name in key) for who in ("self", "other"))
    exec(f"def __init__({', '.join(params)}):\n{''.join(body) or '  pass'}\n"
         f"def __eq__(self, other):\n"
         f"  if other.__class__ is self.__class__:\n"
         f"    return ({mine}) == ({theirs})\n"
         f"  return NotImplemented\n"
         f"def __hash__(self):\n  return hash(({mine}))\n", ns)
    return ns


def record_classes() -> list:
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("tillst.") or name == "trajectory"]
    return [v for m in modules for v in vars(m).values()
            if isinstance(v, type) and v.__module__ == m.__name__
            and "__record_fields__" in v.__dict__]


def test_methods_are_the_code_per_class_source_compiles_to():
    # every method the decorator made, against the same source with the
    # class's field names in it: code, names, constants, defaults, qualname
    classes, compared = record_classes(), 0
    assert len(classes) >= 70
    for cls in classes:
        reference = per_class_methods(cls)
        for name in ("__init__", "__eq__", "__hash__"):
            made = cls.__dict__[name]
            if getattr(made, "__code__", None) is None or made.__code__.co_filename != "<string>":
                continue  # the class's own method
            want = reference[name]
            for attr in ("co_code", "co_names", "co_varnames", "co_consts", "co_argcount",
                         "co_firstlineno", "co_name"):
                assert getattr(made.__code__, attr) == getattr(want.__code__, attr), (cls, name)
            assert [id(d) for d in made.__defaults__ or ()] == \
                [id(d) for d in want.__defaults__ or ()], (cls, name)
            assert (made.__defaults__ is None) == (want.__defaults__ is None)
            assert made.__qualname__ == f"{cls.__qualname__}.{name}"
            compared += 1
    assert compared > 2 * len(classes)


def test_import_compiles_one_source_per_layout():
    # no timing: the record sources ``import tillst.cli`` compiles, counted
    # in a fresh interpreter; one per class would be 74
    probe = ("import builtins\n"
             "sources = []\n"
             "def counting(real):\n"
             "    def call(source, *args, **kwargs):\n"
             "        if isinstance(source, str) and 'def __hash__(self)' in source:\n"
             "            sources.append(source)\n"
             "        return real(source, *args, **kwargs)\n"
             "    return call\n"
             "builtins.compile = counting(builtins.compile)\n"
             "builtins.exec = counting(builtins.exec)\n"
             "import sys, tillst.cli\n"
             "print(len(sources), sum('__record_fields__' in v.__dict__\n"
             "    for name, m in list(sys.modules.items()) if name.startswith('tillst.')\n"
             "    for v in vars(m).values()\n"
             "    if isinstance(v, type) and v.__module__ == name))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (0, "")
    compiled, classes = map(int, proc.stdout.split())
    assert compiled <= 20 and classes == 74


@record
class Base:
    other: int
    hash: str = "h"
    notes: list = field(default_factory=list, hidden=True)


@record
class Every(Base):
    seen: tuple = field(default_factory=tuple)
    total: int = field(default=0, hidden=True)

    def __post_init__(self):
        object.__setattr__(self, "total", self.other * 2)


def test_a_record_with_every_option():
    by_position = Every(3, "x", ["n"], (1,), 9)
    by_keyword = Every(total=9, seen=(1,), notes=["n"], hash="x", other=3)
    assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
    assert hash(by_position) == hash((3, "x", (1,)))
    assert hash(by_position) != hash(Every(3, "y"))
    assert by_position.total == by_keyword.total == 6  # __post_init__ ran
    assert Every(3) == Every(3, "h", ["other notes"]) != Every(4)
    assert Every(3).notes is not Every(3).notes and Every(3).seen == ()
    assert Every(3) != Base(3) and Base(3) == Base(3, "h", [1])
    assert repr(by_position) == "Every(other=3, hash='x', seen=(1,))"
    assert repr(Base(1)) == "Base(other=1, hash='h')"
    assert Every.hash == "h" and Every.total == 0 and "notes" not in vars(Base)
    with pytest.raises(TypeError, match=r"Every\.__init__\(\) missing 1 required "
                                        r"positional argument: 'other'"):
        Every()
    with pytest.raises(TypeError, match=r"Every\.__init__\(\) got an unexpected "
                                        r"keyword argument 'extra'"):
        Every(1, extra=2)
    with pytest.raises(FrozenRecordError):
        by_position.hash = "y"
