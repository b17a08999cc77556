import json
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tillst import corpus_files, parser
from tillst import syntax as s
from tillst import temporal as t
from tillst.cli import main
from tillst.parser import (ParseError, Token, parse_program, render_program, render_type,
                           tokenize)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the benchmark's generators
from perfbench.workloads import generate  # noqa: E402


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


def test_extern_names_have_their_own_namespace():
    prog = parse_program("extern fn f() -> int;\n"
                         "fn f() -> Unit<t where True> { Close<t where True> }")
    assert [d.name for d in prog.externs] == [d.name for d in prog.procs] == ["f"]


def test_operator_binding_levels():
    # * binds tighter than + and -, and both tighter than a comparison; the
    # operators of one level associate to the left
    one, two, three, four, five = map(s.IntLit, range(1, 6))
    assert parser.Parser("1 - 2 + 3 * 4 * 5 < -1 * (2 - 3)").expr() == s.Cmp(
        "<", s.Arith("+", s.Arith("-", one, two), s.Arith("*", s.Arith("*", three, four), five)),
        s.Arith("*", s.IntLit(-1), s.Arith("-", two, three)))
    assert parser.Parser("if 1 == 2 then 3 else 4 * 5 != 5").expr() == s.IfE(
        s.Cmp("==", one, two), three, s.Cmp("!=", s.Arith("*", four, five), five))


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


def test_tokens_and_positions():
    toks = tokenize("x_1\t12_000 // note\n  ]-->--[->é2 _\r\n<= //end")
    assert [(k.kind, k.text, k.line, k.col) for k in toks] == [
        ("IDENT", "x_1", 1, 1), ("INT", "12000", 1, 5), ("]-->", "]-->", 2, 3),
        ("--[", "--[", 2, 7), ("->", "->", 2, 10), ("IDENT", "é2", 2, 12),
        ("IDENT", "_", 2, 15), ("<=", "<=", 3, 1), ("EOF", "", 3, 4)]
    assert tokenize("") == [Token("EOF", "", 1, 1)]


# The reference tokenizer: one named-group ``re.match`` per piece, kept to pin
# the one-scan ``tokenize`` to the same tokens and errors.
REFERENCE_TOKEN = re.compile(r"(?P<skip>(?:[ \t\r\n]|//[^\n]*)+)|(?P<INT>\d[\d_]*)"
                             r"|(?P<IDENT>[^\W\d]\w*)"
                             r"|\]-->|--\[|->|=>|==|!=|<=|>=|[-<>(){},;:=$@?!+*]")


def reference_tokenize(source: str) -> list:
    toks = []
    line, line_start, pos = 1, 0, 0
    match = REFERENCE_TOKEN.match
    while pos < len(source):
        m = match(source, pos)
        if m is None or m.lastgroup == "IDENT" and not (source[pos].isalpha()
                                                        or source[pos] == "_"):
            raise ParseError(f"unexpected character {source[pos]!r}", line, pos - line_start + 1)
        kind, text = m.lastgroup, m.group()
        if kind == "skip":
            breaks = text.count("\n")
            if breaks:
                line += breaks
                line_start = pos + text.rindex("\n") + 1
        else:
            if kind == "INT":
                text = text.replace("_", "")
            toks.append((kind or text, text, line, pos - line_start + 1))
        pos = m.end()
    rest = source[line_start:]
    end = rest.find("//")
    toks.append(("EOF", "", line, (len(rest) if end < 0 else end) + 1))
    return toks


SYMBOLS = ["]-->", "--[", "->", "=>", "==", "!=", "<=", ">=", *"-<>(){},;:=$@?!+*"]
PIECES = st.sampled_from(
    SYMBOLS + ["]", "[", "--", "-->", "]--", "=>=", "<==", "!==",  # near-symbols
               "x", "Close", "t0", "_", "x_1", "é", "éa", "a²", "x٣",  # words
               "0", "12", "1_000", "7_", "٣", "1٣_2",  # integers
               " ", "\t", "\n", "\r\n", "\r", "  \n\t ", "\n\n",  # blanks
               "//", "// note", "// x\n", "//\r\n", "///",  # comments
               "²", "/", "#", "~", ".", "\x0b", "\xa0"])  # rejected
SOURCES = st.lists(PIECES | st.text(alphabet="a1_ /\n-=>]é²٣", max_size=3),
                   max_size=25).map("".join)


def tokens_or_error(tokenizer, source: str):
    try:
        return tokenizer(source)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


@settings(max_examples=600)
@given(source=SOURCES)
def test_tokenize_matches_reference(source):
    assert tokens_or_error(tokenize, source) == tokens_or_error(reference_tokenize, source)
    blank = source + " \t\n  \r\n  "  # a trailing blank run
    assert tokens_or_error(tokenize, blank) == tokens_or_error(reference_tokenize, blank)


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.split("/")[-1])
def test_tokenize_matches_reference_on_corpus(path):
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    assert tokenize(source) == reference_tokenize(source)


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# Every source whose declarations' positions are pinned: the corpus, a copy of
# each corpus file with \r\n line ends, and the seed-1 benchmark programs.
POSITIONED = {Path(path).name: read(path) for path in corpus_files()}
POSITIONED.update({f"{name[:-4]}_crlf.tsl": text.replace("\n", "\r\n")
                   for name, text in list(POSITIONED.items())})
for workload in ("fanout", "chain", "disjunctive", "corpus"):
    POSITIONED.update((name, text) for name, text in
                      generate(workload, 1, Path(corpus_files()[0]).parent).files.items()
                      if name.endswith(".tsl"))

# declaration keyword -> the Program field of its declarations (sorts keep no
# position)
DECL_FIELDS = {"extern": "externs", "type": "types", "fn": "procs", "automaton": "automata",
               "system": "systems"}


def keyword_positions(source: str) -> dict:
    """The line and column of each declaration keyword, in source order, as
    ``reference_tokenize`` reads them: the top-level words that begin a
    declaration (an extern's ``fn`` does not)."""
    found = {word: [] for word in DECL_FIELDS}
    depth, previous = 0, None
    for kind, text, line, col in reference_tokenize(source):
        depth += (kind == "{") - (kind == "}")
        if depth == 0 and kind == "IDENT" and text in found and previous != "extern":
            found[text].append((line, col))
        previous = text
    return found


@pytest.mark.parametrize("name", sorted(POSITIONED))
def test_declaration_positions_are_their_keywords(name):
    source = POSITIONED[name]
    prog = parse_program(source)
    got = {word: [d.pos for d in getattr(prog, field)] for word, field in DECL_FIELDS.items()}
    assert got == keyword_positions(source)
    assert sum(map(len, got.values())) > 0


# sources whose end of input is placed after blanks or a last-line comment
PLACED = {**POSITIONED, "empty": "", "blank_end": "sort s;\n\n  \t",
          "comment_end": "sort s; // end", "comment_end_crlf": "sort s;\r\n// a\r\n// end"}


@pytest.mark.parametrize("name", sorted(PLACED))
def test_positions_on_demand_match_tokenize(name):
    # forward reads count on from the last piece placed, and backward reads
    # start again from the beginning: both agree with the positioned view.
    # Each backward read sums the parts from the start, so the shuffled pass
    # reads at most 500 pieces
    source = PLACED[name]
    want = [(tok.line, tok.col) for tok in tokenize(source)]
    pieces = list(range(len(want)))
    p = parser.Parser(source)
    assert [p.where(at) for at in pieces] == want
    pieces = random.Random(name).sample(pieces, min(len(pieces), 500))
    p = parser.Parser(source)
    assert [p.where(at) for at in pieces] == [want[at] for at in pieces]


def test_a_parse_builds_no_token(monkeypatch):
    def refuse(*args):
        raise AssertionError("a successful parse built a Token")

    monkeypatch.setattr(parser, "tokenize", refuse)
    monkeypatch.setattr(parser, "Token", refuse)
    for path in corpus_files():
        parse_program(read(path))


PROC = "fn p() -> Unit<t where True> {\n  %s\n}\n"
KEYWORDS = ("App, Case, Close, Cons, Fwd, Lam, Offer, Prod, Query, RecvCh, SelectL, "
            "SelectR, SendCh, Spawn, Supply, SwitchL, SwitchR, Wait, if")
DECLS = "automaton, extern, fn, sort, system, type"
SYSTEM = ("automaton a { state S0 init; S0 --[!cls]--> accept; }\n"
          "fn f(x: Unit<t where True>, y: Unit<t where True>) -> Unit<t where True> {\n"
          "  Wait<t0>(x); Wait<t0>(y); Close<t where True>\n"
          "}\n"
          "system m = %s;\n")

MALFORMED = {
    "bad_character": ("type T = Unit<t where True> #", "1:29: unexpected character '#'"),
    "branch_label": (PROC % "Case<t0>(x) { R => Fwd<t0>(x) } { L => Fwd<t0>(x) }",
                     "2:19: expected branch label L, found R (expected one of: L)"),
    "missing_where": ("type T = Unit<t Leq<t0, t>>",
                      "1:17: found 'Leq' (expected one of: where)"),
    "process_keyword": (PROC % "Fling<t0>(x)",
                        f"2:3: found 'Fling' (expected one of: {KEYWORDS})"),
    "prop_operator": ("type T = Unit<t where Before<t0, t>>",
                      "1:29: unknown proposition operator 'Before' (expected one of: "
                      "And, Eq, False, Geq, Gt, Implies, In, Leq, Lt, Neq, Not, Or, True)"),
    "automaton_action": ("automaton a { state S0 init; S0 --[?foo]--> accept; }",
                         "1:40: unknown automaton action 'foo' "
                         "(expected one of: L, R, chan, cls, val)"),
    "automaton_direction": ("automaton a { state S0 init; S0 --[L]--> accept; }",
                            "1:36: automaton action must start with ? or ! "
                            "(expected one of: !, ?)"),
    "duplicate_init": ("automaton a { state S0 init; state S1 init; }",
                       "1:43: duplicate init state"),
    "no_init": ("automaton a { state S0; }", "1:1: automaton a has no init state"),
    # automata and systems are checked as they are read; errors point at the
    # declaration
    "automaton_duplicate_state": ("automaton a { state S0 init; state S0; }",
                                  "1:1: automaton a has duplicate states"),
    "automaton_source_state": ("automaton a { state S0 init; S9 --[!cls]--> accept; }",
                               "1:1: automaton a has a transition from unknown state S9"),
    "automaton_target_state": ("automaton a { state S0 init; S0 --[!cls]--> S9; }",
                               "1:1: automaton a has a transition to unknown state S9"),
    "automaton_extern": ("automaton a { state S0 init; S0 --[!val(ghost)]--> accept; }",
                         "1:1: automaton a reads undeclared extern ghost"),
    "automaton_val_extern": ("automaton a { state S0 init; S0 --[!val]--> accept; }",
                             "1:40: found ']-->' (expected one of: ()"),
    "automaton_garbage": ("automaton a { state S0 init; S0 --[~zap]--> accept; }",
                          "1:36: unexpected character '~'"),
    "system_automaton": (SYSTEM % "f(x = b as i, y = a as j) @ t0",
                         "5:1: system m names unknown automaton b"),
    "system_arity": (SYSTEM % "f(x = a as i) @ t0", "5:1: system m: f takes 2 channels, 1 bound"),
    "system_parameter": (SYSTEM % "f(x = a as i, z = a as j) @ t0",
                         "5:1: system m: f has no parameter z"),
    "system_parameter_twice": (SYSTEM % "f(x = a as i, x = a as j) @ t0",
                               "5:1: system m: parameter x is bound twice"),
    # a Spawn annotation's type names are read like the signature's, here
    # in the else arm of an if
    "spawn_annotation_type": ("fn g() -> Unit<t where True> {\n  Close<t where True>\n}\n" +
                              PROC % "if $ true $ { Close<t where True> } else { Spawn<t0>(g) "
                                     "{ x : Nope => Wait<t0>(x); Close<t where True> } }",
                              "4:1: fn p references unknown type Nope"),
    "fn_parameter_twice": ("fn two(a: Unit<t where True>, a: Unit<t where True>) -> "
                           "Unit<t where True> {\n  Wait<t0>(a); Close<t where True>\n}",
                           "1:1: fn two has parameter a twice"),
    "system_instance_twice": (SYSTEM % "f(x = a as i, y = a as i) @ t0",
                              "5:1: system m: channel i has two providers"),
    "system_instance_named_like_system": (SYSTEM % "f(x = a as m, y = a as j) @ t0",
                                          "5:1: system m: channel m has two providers"),
    "system_open_start": (SYSTEM % "f(x = a as i, y = a as j) @ Shift<t5, 1>",
                          "5:1: system m: start instant Shift<t5, 1> is not closed"),
    "t0_binder": (PROC % "Close<t0 where True>",
                  "2:9: t0 is the initial instant and cannot be bound"),
    "declaration": ("let x = 1;", f"1:1: found 'let' (expected one of: {DECLS})"),
    "declaration_symbol": ("; type T = Unit<t where True>",
                           f"1:1: found ';' (expected one of: {DECLS})"),
    "end_of_body": (PROC % "Wait<t0>(x);", f"3:1: found '}}' (expected one of: {KEYWORDS})"),
    "missing_semicolon": (PROC % "SelectL<t0>(x) Close<t where True>",
                          "2:18: found 'Close' (expected one of: ;)"),
    "else_keyword": (PROC % "if $ true $ { Fwd<t0>(x) } otherwise { Fwd<t0>(x) }",
                     "2:30: found 'otherwise' (expected one of: else)"),
    "expression": (PROC % "Prod<t where True> $ ) $; Close<t where True>",
                   "2:24: found ')' in expression"),
    # comparisons do not chain
    "chained_comparison": (PROC % "Prod<t where True> $ 1 < 2 < 3 $; Close<t where True>",
                           "2:30: found '<' (expected one of: $)"),
    "type_closer": ("type T = Tensor<t where True, Unit<u where True>, Unit<v where True>;",
                    "1:69: found ';' (expected one of: >)"),
    "spawn_args": (PROC % "Spawn<t0>(f, ) { y => Fwd<t0>(y) }",
                   "2:16: found ')' (expected one of: IDENT)"),
    "app_arrow": (PROC % "App<t0>(x => { Fwd<t0>(y) }); Fwd<t0>(x)",
                  "2:13: found '=>' (expected one of: <=)"),
    "shift_amount": ("type T = Unit<t where Eq<t, Shift<t0, t>>>",
                     "1:39: found 't' (expected one of: INT)"),
    "end_in_comment": ("type T = Unit<t where True // note",
                       "1:28: found 'EOF' (expected one of: >)"),
    "duplicate_name": ("type T = Unit<t where True> type T = Unit<s where True>",
                       "1:29: duplicate declaration name 'T'"),
    "duplicate_extern": ("extern fn f() -> int;\nextern fn f() -> bool;",
                         "2:1: duplicate declaration name 'f'"),
    # only Spawn keeps a bind annotation; the other bind tails reject one
    "lam_annotation": (PROC % "Lam<t where True> { x : Unit<w where False> => Fwd<t0>(x) }",
                       "2:25: found ':' (expected one of: =>)"),
    "recvch_annotation": (PROC % "RecvCh<t0>(c) { x : Unit<w where True> => Fwd<t0>(x) }",
                          "2:21: found ':' (expected one of: =>)"),
    "cons_annotation": (PROC % "Cons<t0>(c) { v : Unit<w where True> => Fwd<t0>(c) }",
                        "2:19: found ':' (expected one of: =>)"),
    "query_annotation": (PROC % "Query<t where True> { v : Unit<w where True> => "
                                "Close<u where True> }",
                         "2:27: found ':' (expected one of: =>)"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_source_message(name):
    source, message = MALFORMED[name]
    with pytest.raises(ParseError) as exc:
        parse_program(source)
    assert str(exc.value) == message


# Round trip over every process form, including the two (SendCh, Offer) the
# corpus never writes.  Names avoid t0 and the expression keywords.
NAMES = st.sampled_from(["a", "x", "t1", "u_2", "k9"])
BINDERS = st.sampled_from(["t1", "u_2", "s"])
TIMES = st.builds(t.TimeExpr, st.sampled_from([None, "t1", "u_2"]), st.integers(-20, 20))
PROPS = st.recursive(
    st.sampled_from([t.TOP, t.BOT]) | st.builds(t.Eq, TIMES, TIMES) | st.builds(t.Leq, TIMES, TIMES),
    lambda kids: st.one_of(st.builds(t.And, kids, kids), st.builds(t.Or, kids, kids),
                           st.builds(t.Imp, kids, kids)),
    max_leaves=4)
EXPRS = st.recursive(
    st.builds(s.BoolLit, st.booleans()) | st.builds(s.IntLit, st.integers(-50, 50))
    | st.builds(s.VarE, NAMES),
    lambda kids: st.one_of(
        st.builds(s.Arith, st.sampled_from("+-*"), kids, kids),
        st.builds(s.Cmp, st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), kids, kids),
        st.builds(s.IfE, kids, kids, kids),
        st.builds(s.CallE, NAMES, st.lists(kids, max_size=2).map(tuple))),
    max_leaves=5)
SORTS = st.sampled_from([s.INT, s.BOOL, s.NamedType("temp")])
TYPES = st.recursive(
    st.builds(s.UnitT, BINDERS, PROPS),
    lambda kids: st.one_of(
        *(st.builds(cls, BINDERS, PROPS, kids, kids)
          for cls in (s.TensorT, s.LolliT, s.IChoiceT, s.EChoiceT)),
        *(st.builds(cls, BINDERS, PROPS, SORTS, kids) for cls in (s.ProduceT, s.QueryT))),
    max_leaves=4)

FORMS = {
    s.CloseP: lambda kids: st.builds(s.CloseP, BINDERS, PROPS),
    s.WaitP: lambda kids: st.builds(s.WaitP, TIMES, NAMES, kids),
    s.LamRecv: lambda kids: st.builds(s.LamRecv, BINDERS, PROPS, NAMES, kids),
    s.AppSend: lambda kids: st.builds(s.AppSend, NAMES, TIMES, kids, kids),
    s.PairSend: lambda kids: st.builds(s.PairSend, BINDERS, PROPS, kids, kids),
    s.PairRecv: lambda kids: st.builds(s.PairRecv, NAMES, TIMES, NAMES, kids),
    s.InLP: lambda kids: st.builds(s.InLP, BINDERS, PROPS, kids),
    s.InRP: lambda kids: st.builds(s.InRP, BINDERS, PROPS, kids),
    s.CaseP: lambda kids: st.builds(s.CaseP, TIMES, NAMES, kids, kids),
    s.OfferP: lambda kids: st.builds(s.OfferP, BINDERS, PROPS, kids, kids),
    s.SelectLP: lambda kids: st.builds(s.SelectLP, NAMES, TIMES, kids),
    s.SelectRP: lambda kids: st.builds(s.SelectRP, NAMES, TIMES, kids),
    s.ProdP: lambda kids: st.builds(s.ProdP, BINDERS, PROPS, EXPRS, kids),
    s.ConsP: lambda kids: st.builds(s.ConsP, NAMES, TIMES, NAMES, kids),
    s.QueryRecvP: lambda kids: st.builds(s.QueryRecvP, BINDERS, PROPS, NAMES, kids),
    s.SupplyP: lambda kids: st.builds(s.SupplyP, NAMES, TIMES, EXPRS, kids),
    s.FwdP: lambda kids: st.builds(s.FwdP, TIMES, NAMES),
    s.SpawnP: lambda kids: st.builds(s.SpawnP, TIMES, NAMES, st.lists(NAMES, max_size=2).map(tuple),
                                     NAMES, kids, st.none() | TYPES),
    s.IfP: lambda kids: st.builds(s.IfP, EXPRS, kids, kids),
}
PROCESSES = st.recursive(FORMS[s.CloseP](None) | FORMS[s.FwdP](None),
                         lambda kids: st.one_of(*(make(kids) for make in FORMS.values())),
                         max_leaves=6)


# Every per-form fact as literal data, as the separate tables that the rows
# of ``syntax.FORMS`` replace wrote them: the keyword; the field naming the
# channels the form uses, the field binding a channel over its children, and
# the children; the connective it provides or uses; the label it sends.
PER_FORM = {
    s.CloseP: ("Close", None, None, (), "provides", s.UnitT, None),
    s.WaitP: ("Wait", "chan", None, ("cont",), "uses", s.UnitT, None),
    s.LamRecv: ("Lam", None, "var", ("cont",), "provides", s.LolliT, None),
    s.AppSend: ("App", "chan", None, ("payload", "cont"), "uses", s.LolliT, None),
    s.PairSend: ("SendCh", None, None, ("payload", "cont"), "provides", s.TensorT, None),
    s.PairRecv: ("RecvCh", "chan", "var", ("cont",), "uses", s.TensorT, None),
    s.InLP: ("SwitchL", None, None, ("cont",), "provides", s.IChoiceT, "L"),
    s.InRP: ("SwitchR", None, None, ("cont",), "provides", s.IChoiceT, "R"),
    s.CaseP: ("Case", "chan", None, ("left", "right"), "uses", s.IChoiceT, None),
    s.OfferP: ("Offer", None, None, ("left", "right"), "provides", s.EChoiceT, None),
    s.SelectLP: ("SelectL", "chan", None, ("cont",), "uses", s.EChoiceT, "L"),
    s.SelectRP: ("SelectR", "chan", None, ("cont",), "uses", s.EChoiceT, "R"),
    s.ProdP: ("Prod", None, None, ("cont",), "provides", s.ProduceT, None),
    s.ConsP: ("Cons", "chan", None, ("cont",), "uses", s.ProduceT, None),
    s.QueryRecvP: ("Query", None, None, ("cont",), "provides", s.QueryT, None),
    s.SupplyP: ("Supply", "chan", None, ("cont",), "uses", s.QueryT, None),
    s.FwdP: ("Fwd", "chan", None, (), None, None, None),
    s.SpawnP: ("Spawn", "args", "bound", ("cont",), None, None, None),
    s.IfP: ("if", None, None, ("then", "orelse"), None, None, None),
}
# the forms whose side sends the message of their exchange
SENDERS = {s.CloseP, s.AppSend, s.PairSend, s.InLP, s.InRP, s.SelectLP, s.SelectRP,
           s.ProdP, s.SupplyP}


def test_forms_cover_every_process_class():
    # one row of syntax.FORMS per process class, each with a strategy above
    assert list(s.FORMS) == list(s.Process) == list(FORMS)


def test_form_rows_derive_every_per_form_fact():
    assert list(s.FORMS) == list(PER_FORM)
    for cls, (keyword, uses, binds, children, side, conn, label) in PER_FORM.items():
        form = s.FORMS[cls]
        assert (form.cls, form.keyword, form.uses, form.binds, form.children) \
            == (cls, keyword, uses, binds, children)
        assert (form.provides, form.conn, form.label) == (side == "provides", conn, label)
        assert form.sends == (cls in SENDERS)


@pytest.mark.parametrize("form", FORMS, ids=lambda cls: cls.__name__)
@settings(max_examples=15)
@given(data=st.data())
def test_roundtrip_every_process_form(form, data):
    body = data.draw(FORMS[form](PROCESSES))
    offered = data.draw(TYPES)
    prog = s.Program(procs=(s.ProcDecl("p", (("c", offered),), offered, body),))
    assert parse_program(render_program(prog)) == prog


def test_printer_layout_of_forms_the_corpus_lacks():
    # the .render goldens pin the layout of every other form
    source = ("fn p(c: Unit<t where True>) -> Unit<t where True> {\n"
              "  SendCh<t1 where True> {\n    Fwd<t0>(c)\n  };\n"
              "  Offer<t2 where Leq<t1, t2>>\n  { L =>\n    Close<t3 where True>\n  }\n"
              "  { R =>\n    Close<t4 where False>\n  }\n}\n")
    assert render_program(parse_program(source)) == source


def test_automaton_actions_round_trip():
    # every action spelling, with and without a guard; the corpus uses only
    # some of them
    spellings = ("?L", "!R", "?cls", "!cls", "?chan", "!chan", "?val", "!val(f)")
    transitions = "".join(f"  S0 --[{guard}{action}]--> {dst};\n"
                          for action in spellings for guard, dst in (("", "S1"), ("7, ", "accept")))
    source = ("extern fn f() -> int;\n\n"
              f"automaton a {{\n  state S0 init;\n  state S1;\n{transitions}}}\n")
    prog = parse_program(source)
    assert render_program(prog) == source
    assert parse_program(render_program(prog)) == prog


def test_unicode_decimal_digits_are_integers():
    prog = parse_program("type T = Unit<t where Eq<t, Shift<t0, ٣>>>")
    assert prog.types[0].body.pred == t.Eq(t.tvar("t"), t.init_plus(3))


def test_non_decimal_digit_is_rejected():
    for source in ("type T = Unit<t where Eq<t, Shift<t0, ²>>>",
                   "type T = Unit<t where Eq<t, Shift<t0, 1²>>>"):
        with pytest.raises(ParseError) as exc:
            parse_program(source)
        assert str(exc.value) == f"1:{source.index(chr(0xb2)) + 1}: unexpected character '²'"


def test_a_word_starts_with_a_letter_and_continues_with_word_characters():
    assert parse_program("type a² = Unit<t where True>;").types[0].name == "a²"
    with pytest.raises(ParseError) as exc:
        parse_program("type ²a = Unit<t where True>;")
    assert str(exc.value) == "1:6: unexpected character '²'"


def chain_source(n: int, names=lambda i: f"s{i}", z="z") -> str:
    """A depth-n Produce protocol and its provider, spelled as the printer
    spells them; ``names`` renames the binders."""
    window = lambda b, at: f"{b} where Eq<{b}, Shift<t0, {at}>>"
    head = "".join(f"Produce<int, {window(names(i), i + 1)}, " for i in range(n))
    body = "".join(f"  Prod<{window(f's{i}', i + 1)}> $ {i % 7} $;\n" for i in range(n))
    return (f"type CHAIN = {head}Unit<{window(z, n + 1)}>{'>' * n};\n\n"
            f"fn chain() -> CHAIN {{\n{body}  Close<{window('z', n + 1)}>\n}}\n\n"
            "system go = chain() @ t0;\n")


def test_depth_3000_protocol(tmp_path, capsys):
    # Compared as text: record == on a chain this deep overflows the stack.
    n = 3000
    source = chain_source(n)
    prog = parse_program(source)
    assert render_program(prog) == source
    expanded = s.expand_type_refs(prog, s.TypeRef("CHAIN"))
    want = chain_source(n, names=lambda i: f"s{i}#{i + 1}", z=f"z#{n + 1}")
    assert f"type CHAIN = {render_type(expanded)};" == want.split("\n")[0]
    program, trace = tmp_path / "chain.tsl", tmp_path / "chain.jsonl"
    program.write_text(source)
    events = [{"time": i + 1, "dir": "send", "kind": "value", "channel": "go",
               "payload": str(i % 7)} for i in range(n)]
    events.append({"time": n + 1, "dir": "send", "kind": "close", "channel": "go",
                   "payload": None})
    trace.write_text("".join(json.dumps(ev) + "\n" for ev in events))
    code = main(["monitor", str(program), "--type", "CHAIN", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert (code, out) == (0, f"conforms: {n + 1} events on go against CHAIN\n")
