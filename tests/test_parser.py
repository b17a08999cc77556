import pytest

from tillst import corpus_files
from tillst import syntax as s
from tillst import temporal as t
from tillst.parser import ParseError, parse_program, render_program


def test_unit_type_decl():
    prog = parse_program("type T = Unit<t where Leq<t0, t>>")
    assert prog.types[0] == s.TypeDecl("T", s.UnitT("t", t.Leq(t.INIT, t.tvar("t"))))


def test_empty_file():
    assert parse_program("") == s.Program()


def test_keyless_entry_structure(load_corpus):
    prog = load_corpus("keyless_entry.tsl")
    assert {d.name for d in prog.types} == {"CHALLENGE", "KEY", "CAR"}
    assert {d.name for d in prog.procs} == {"key", "car"}
    key = prog.proc_decl("key")
    assert isinstance(key.body, s.QueryRecvP)
    assert isinstance(key.body.cont, s.InLP)
    car = prog.proc_decl("car")
    assert isinstance(car.body, s.SpawnP) and car.body.callee == "key"


def test_derived_prop_forms_desugar():
    prog = parse_program(
        "type T = Unit<t where And<In<t0, t, Shift<t0, 9>>, Neq<t, Shift<t0, 4>>>>")
    pred = prog.types[0].body.pred
    assert isinstance(pred, t.And)
    assert pred.left == t.p_in(t.INIT, t.tvar("t"), t.init_plus(9))
    assert pred.right == t.p_neq(t.tvar("t"), t.init_plus(4))


def test_negative_shift():
    prog = parse_program("type T = Unit<t where Eq<t, Shift<t0, -5>>>")
    assert prog.types[0].body.pred == t.Eq(t.tvar("t"), t.init_plus(-5))


def test_produce_payload_on_either_side():
    a = parse_program("type A = Produce<int, t where True, Unit<s where True>>")
    b = parse_program("type A = Produce<t where True, int, Unit<s where True>>")
    assert a.types[0].body == b.types[0].body


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_program("type T =\n  Unit<t whree True>")
    assert exc.value.line == 2
    assert "where" in exc.value.expected


def test_t0_cannot_be_bound():
    with pytest.raises(ParseError) as exc:
        parse_program("fn p() -> Unit<t where True> {\n  Close<t0 where Eq<t0, t0>>\n}")
    assert (exc.value.line, exc.value.col) == (2, 9)
    assert "t0" in str(exc.value)


def test_unknown_process_keyword():
    with pytest.raises(ParseError) as exc:
        parse_program("fn f() -> Unit<t where True> { Fling<t0>(x) }")
    assert "Close" in exc.value.expected


def test_duplicate_declaration_rejected():
    with pytest.raises(ParseError):
        parse_program("type T = Unit<t where True> type T = Unit<s where True>")


def test_undeclared_sort_in_extern():
    with pytest.raises(ParseError):
        parse_program("extern fn f() -> mystery;")


def test_system_references_checked():
    with pytest.raises(ParseError):
        parse_program("system m = nothere() @ t0;")


def test_automaton_requires_init_state():
    with pytest.raises(ParseError):
        parse_program("automaton a { state S0; }")


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.split("/")[-1])
def test_roundtrip_through_pretty_printer(path):
    with open(path, encoding="utf-8") as fh:
        prog = parse_program(fh.read())
    assert parse_program(render_program(prog)) == prog


def test_unknown_type_reference_in_decl():
    with pytest.raises(ParseError) as exc:
        parse_program("type T = Lolli<t where True, GHOST, Unit<u where True>>")
    assert "GHOST" in str(exc.value)


def test_unknown_type_reference_in_signature():
    with pytest.raises(ParseError):
        parse_program("fn f(x: NOPE) -> Unit<t where True> { Fwd<t0>(x) }")
