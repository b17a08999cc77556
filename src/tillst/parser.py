"""Parser and pretty-printer for the .tsl surface language.

Declarations: sort, extern fn, type, fn, automaton, system.  Types are spelled
``Conn<t where P, ...>`` (Produce/Request take the payload sort on either side
of the binder); processes use the keyword spellings Close, Wait, Lam, App,
SendCh, RecvCh, SwitchL, SwitchR, Case, Offer, SelectL, SelectR, Prod, Cons,
Query, Supply, Fwd, Spawn, plus ``if $e$ { P } else { Q }``.  Functional
expressions are delimited by ``$``.  Line comments start with ``//``.
``tokenize`` splits the source in one regex scan, classifies each piece by its
text and returns ``Token`` tuples, which the parser's cursor indexes directly.

One surface table, ``_FORMS``, drives both directions: each process keyword
maps to its ``syntax`` class, its head (``<b where P>`` for providers,
``<T>(c)`` for clients; App, Spawn and if read their own) and its tail.  The
tail ends in the form's last child (``syntax._PROC_FIELDS``), and that child
is read and printed in a loop, with the forms still waiting for it and their
closing tokens on an explicit stack; only payloads, left branches and the
``then`` arm recurse.  Types do the same through ``_TYPES`` and
``CONNECTIVES[...].components``, so a protocol nested thousands of levels deep
parses and prints at the default recursion limit.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from . import syntax as s
from . import temporal as t
from .temporal import render_time


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected=None):
        self.line = line
        self.col = col
        self.expected = sorted(expected) if expected else []
        hint = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{line}:{col}: {message}{hint}")


class Token(NamedTuple):
    kind: str  # IDENT, INT, or the symbol itself
    text: str
    line: int
    col: int


# The pieces of the one scan: a run of blanks and comments, a decimal integer
# (``_`` separates digits), a word, a symbol (longest first), or any other
# character.  A word starts with a letter or ``_`` and continues with ``\w``,
# which also admits digit-like characters such as ``²``: ``a²`` is a name,
# and ``tokenize`` rejects ``²a`` at its first character.
_PIECE = re.compile(r"(?:[ \t\r\n]|//[^\n]*)+|\d[\d_]*|\w+"
                    r"|\]-->|--\[|->|=>|==|!=|<=|>=|[-<>(){},;:=$@?!+*]|.")
_SYMBOLS = frozenset(("]-->", "--[", "->", "=>", "==", "!=", "<=", ">=", *"-<>(){},;:=$@?!+*"))


def tokenize(source: str) -> list:
    toks = []
    append, new = toks.append, tuple.__new__
    line, line_start, offset = 1, 0, 0
    for text in _PIECE.findall(source):
        if text in _SYMBOLS:
            append(new(Token, (text, text, line, offset - line_start + 1)))
        elif (first := text[0]).isalpha() or first == "_":
            append(new(Token, ("IDENT", text, line, offset - line_start + 1)))
        elif first.isdecimal():
            append(new(Token, ("INT", text.replace("_", ""), line, offset - line_start + 1)))
        elif first in " \t\r\n" or text[:2] == "//":
            if "\n" in text:
                line += text.count("\n")
                line_start = offset + text.rindex("\n") + 1
        else:
            raise ParseError(f"unexpected character {first!r}", line, offset - line_start + 1)
        offset += len(text)
    rest = source[line_start:]
    end = rest.find("//")  # a trailing comment does not move the end column
    append(new(Token, ("EOF", "", line, (len(rest) if end < 0 else end) + 1)))
    return toks


# Proposition keyword -> constructor and its arguments ("p" a proposition,
# "t" a time); the derived forms desugar as they are built.
_PROPS = {"True": (t.Top, ""), "False": (t.Bot, ""), "And": (t.And, "pp"), "Or": (t.Or, "pp"),
          "Implies": (t.Imp, "pp"), "Not": (t.p_not, "p"), "In": (t.p_in, "ttt"),
          "Leq": (t.Leq, "tt"), "Geq": (t.p_geq, "tt"), "Eq": (t.Eq, "tt"),
          "Lt": (t.p_lt, "tt"), "Gt": (t.p_gt, "tt"), "Neq": (t.p_neq, "tt")}
_PROP_NAME = {make: name for name, (make, _) in _PROPS.items() if isinstance(make, type)}

# Type connective keyword -> class; the components come from syntax.CONNECTIVES.
_TYPES = {"Unit": s.UnitT, "Tensor": s.TensorT, "Lolli": s.LolliT, "InChoice": s.IChoiceT,
          "ExChoice": s.EChoiceT, "Produce": s.ProduceT, "Request": s.QueryT}
_TYPE_NAME = {cls: name for name, cls in _TYPES.items()}

# Automaton action sigil -> direction, and word -> (message kind, label); a
# value send also names the extern it reads: ``!val(read_gas)``.
_DIRECTIONS = {"?": "recv", "!": "send"}
_ACTIONS = {"L": ("label", "L"), "R": ("label", "R"), "cls": ("close", None),
            "chan": ("chan", None), "val": ("value", None)}
_SIGIL = {direction: sigil for sigil, direction in _DIRECTIONS.items()}
_ACTION_WORD = {kind_label: word for word, kind_label in _ACTIONS.items()}


class _Form(NamedTuple):
    """One process keyword: its class, head and tail.

    Heads: ``provider`` reads ``<b where P>`` into binder/pred; ``client``
    reads ``<T>(c)`` into at/chan; ``app`` is ``<T>(c <= { P })``, ``spawn``
    ``<T>(f, a, ...)`` and ``if`` ``$ e $``.  Tails, each ending in the last
    child P: ``none``, ``seq`` ``; P``, ``bind`` ``{ x => P }`` (or
    ``{ x : T => P }`` where the class has an ``ann`` field), ``branch``
    ``{ L => P } { R => P }``, ``expr`` ``$ e $; P``, ``block`` ``{ P }; P``,
    ``else`` ``{ P } else { P }``.
    """

    cls: type
    head: str
    tail: str
    var: str = "var"  # bind: the field holding x
    ann: Optional[str] = None


_FORMS = {
    "Close": _Form(s.CloseP, "provider", "none"),
    "Wait": _Form(s.WaitP, "client", "seq"),
    "Lam": _Form(s.LamRecv, "provider", "bind"),
    "App": _Form(s.AppSend, "app", "seq"),
    "SendCh": _Form(s.PairSend, "provider", "block"),
    "RecvCh": _Form(s.PairRecv, "client", "bind"),
    "SwitchL": _Form(s.InLP, "provider", "seq"),
    "SwitchR": _Form(s.InRP, "provider", "seq"),
    "Case": _Form(s.CaseP, "client", "branch"),
    "Offer": _Form(s.OfferP, "provider", "branch"),
    "SelectL": _Form(s.SelectLP, "client", "seq"),
    "SelectR": _Form(s.SelectRP, "client", "seq"),
    "Prod": _Form(s.ProdP, "provider", "expr"),
    "Cons": _Form(s.ConsP, "client", "bind"),
    "Query": _Form(s.QueryRecvP, "provider", "bind"),
    "Supply": _Form(s.SupplyP, "client", "expr"),
    "Fwd": _Form(s.FwdP, "client", "none"),
    "Spawn": _Form(s.SpawnP, "spawn", "bind", var="bound", ann="bound_type"),
    "if": _Form(s.IfP, "if", "else"),
}
_KEYWORD = {form.cls: kw for kw, form in _FORMS.items()}
_LAST = {cls: children[-1] for cls, (_, _, children) in s._PROC_FIELDS.items() if children}


class Parser:
    def __init__(self, source: str):
        self.toks = tokenize(source)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        if ahead:  # lookahead stops at EOF; next() never moves past it
            return self.toks[min(self.pos + ahead, len(self.toks) - 1)]
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != kind:
            self.fail(f"found {tok.text or tok.kind!r}", expected={kind})
        if kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, kind: str) -> Optional[Token]:
        return self.next() if self.toks[self.pos].kind == kind else None

    def ident(self) -> str:
        tok = self.toks[self.pos]
        if tok.kind != "IDENT":
            self.fail(f"found {tok.text or tok.kind!r}", expected={"IDENT"})
        self.pos += 1
        return tok.text

    def keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != word:
            self.fail(f"found {tok.text or tok.kind!r}", expected={word})
        return self.next()

    def fail(self, message: str, expected=None):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col, expected=expected)

    # -- program -----------------------------------------------------------

    def program(self) -> s.Program:
        decls = {word: [] for word in _DECLS}
        while (tok := self.peek()).kind != "EOF":
            read = _DECLS.get(tok.text) if tok.kind == "IDENT" else None
            if read is None:
                self.fail(f"found {tok.text!r}", expected=_DECLS)
            self.next()
            decls[tok.text].append(read(self, (tok.line, tok.col)))
        prog = s.Program(*(tuple(group) for group in decls.values()))
        _validate_program(prog)
        return prog

    def sort_decl(self, pos: tuple) -> str:
        name = self.ident()
        self.expect(";")
        return name

    def extern_decl(self, pos: tuple) -> s.ExternDecl:
        self.keyword("fn")
        name = self.ident()
        self.expect("(")
        args = []
        if self.peek().kind != ")":
            args.append(self.value_sort())
            while self.accept(","):
                args.append(self.value_sort())
        self.expect(")")
        self.expect("->")
        ret = self.value_sort()
        self.expect(";")
        return s.ExternDecl(name, tuple(args), ret, pos=pos)

    def type_decl(self, pos: tuple) -> s.TypeDecl:
        name = self.ident()
        self.expect("=")
        body = self.session_type()
        self.accept(";")
        return s.TypeDecl(name, body, pos=pos)

    def proc_decl(self, pos: tuple) -> s.ProcDecl:
        name = self.ident()
        self.expect("(")
        params = []
        if self.peek().kind != ")":
            while True:
                var = self.ident()
                self.expect(":")
                params.append((var, self.session_type()))
                if not self.accept(","):
                    break
        self.expect(")")
        self.expect("->")
        offered = self.session_type()
        body = self._block()
        return s.ProcDecl(name, tuple(params), offered, body, pos=pos)

    def automaton_decl(self, pos: tuple) -> s.AutomatonDef:
        """An automaton whose transitions leave and reach declared states
        (or ``accept``); its errors point at the declaration."""
        name = self.ident()
        self.expect("{")
        states, initial, transitions = [], None, []
        while not self.accept("}"):
            if self.peek().kind == "IDENT" and self.peek().text == "state":
                self.next()
                st = self.ident()
                if st in states:
                    raise ParseError(f"automaton {name} has duplicate states", *pos)
                states.append(st)
                if self.peek().kind == "IDENT" and self.peek().text == "init":
                    self.next()
                    if initial is not None:
                        self.fail("duplicate init state")
                    initial = st
                self.expect(";")
            else:
                transitions.append(self.auto_transition())
        if initial is None:
            raise ParseError(f"automaton {name} has no init state", *pos)
        for tr in transitions:
            if tr.src not in states:
                raise ParseError(f"automaton {name} has a transition from unknown state "
                                 f"{tr.src}", *pos)
            if tr.dst != s.ACCEPT and tr.dst not in states:
                raise ParseError(f"automaton {name} has a transition to unknown state "
                                 f"{tr.dst}", *pos)
        return s.AutomatonDef(name, tuple(states), initial, tuple(transitions), pos=pos)

    def auto_transition(self) -> s.AutoTransition:
        src = self.ident()
        self.expect("--[")
        offset = 0
        if self.peek().kind == "INT":
            offset = int(self.next().text)
            self.expect(",")
        action, extern = self.auto_action()
        self.expect("]-->")
        dst = self.ident()
        self.expect(";")
        return s.AutoTransition(src, offset, action, dst, extern)

    def auto_action(self) -> tuple:
        """``?L``, ``!cls``, ``!val(read_gas)``, ... as (action, extern); the
        instance's channel fills in the action's ``chan``."""
        direction = _DIRECTIONS.get(self.peek().kind)
        if direction is None:
            self.fail("automaton action must start with ? or !", expected=_DIRECTIONS)
        self.next()
        word = self.ident()
        if word not in _ACTIONS:
            self.fail(f"unknown automaton action {word!r}", expected=_ACTIONS)
        kind, label = _ACTIONS[word]
        extern = None
        if word == "val" and direction == "send":
            self.expect("(")
            extern = self.ident()
            self.expect(")")
        return s.Action(kind, direction, "", label), extern

    def system_decl(self, pos: tuple) -> s.SystemDecl:
        name = self.ident()
        self.expect("=")
        entry = self.ident()
        self.expect("(")
        bindings = []
        if self.peek().kind != ")":
            while True:
                param = self.ident()
                self.expect("=")
                machine = self.ident()
                self.keyword("as")
                instance = self.ident()
                bindings.append((param, machine, instance))
                if not self.accept(","):
                    break
        self.expect(")")
        self.expect("@")
        start_time = self.time_expr()
        self.expect(";")
        return s.SystemDecl(name, entry, tuple(bindings), start_time, pos=pos)

    # -- types ---------------------------------------------------------------

    def value_sort(self) -> s.ValueType:
        name = self.ident()
        return {"bool": s.BOOL, "int": s.INT}.get(name) or s.NamedType(name)

    def session_type(self) -> s.SessionType:
        """A session type; the last component is read in a loop."""
        pending = []  # (class, fields, last component's name)
        while True:
            name = self.ident()
            cls = _TYPES.get(name)
            if cls is None:
                node = s.TypeRef(name)
                break
            self.expect("<")
            conn, fields = s.CONNECTIVES[cls], {}
            # Produce / Request: payload sort and binder in either order
            if conn.kind == "value" and not (self.peek(1).kind == "IDENT"
                                             and self.peek(1).text == "where"):
                fields["payload"] = self.value_sort()
                self.expect(",")
            fields["binder"], fields["pred"] = self.binder()
            if conn.kind == "value" and "payload" not in fields:
                self.expect(",")
                fields["payload"] = self.value_sort()
            for component in conn.components[:-1]:
                self.expect(",")
                fields[component] = self.session_type()
            if not conn.components:
                self.expect(">")
                node = cls(**fields)
                break
            self.expect(",")
            pending.append((cls, fields, conn.components[-1]))
        for cls, fields, last in reversed(pending):
            self.expect(">")
            node = cls(**fields, **{last: node})
        return node

    def binder(self) -> tuple:
        tok = self.peek()
        name = self.ident()
        if name == "t0":
            raise ParseError("t0 is the initial instant and cannot be bound",
                             tok.line, tok.col)
        self.keyword("where")
        return name, self.prop()

    def prop(self) -> t.Prop:
        name = self.ident()
        if name not in _PROPS:
            self.fail(f"unknown proposition operator {name!r}", expected=_PROPS)
        make, args = _PROPS[name]
        if not args:
            return make()
        self.expect("<")
        parts = []
        for i, kind in enumerate(args):
            if i:
                self.expect(",")
            parts.append(self.prop() if kind == "p" else self.time_expr())
        self.expect(">")
        return make(*parts)

    def time_expr(self) -> t.TimeExpr:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text == "Shift":
            self.next()
            self.expect("<")
            base = self.time_expr()
            self.expect(",")
            sign = -1 if self.accept("-") else 1
            amount = int(self.expect("INT").text)
            self.expect(">")
            return base.shift(sign * amount)
        name = self.ident()
        if name == "t0":
            return t.INIT
        return t.tvar(name)

    # -- processes -----------------------------------------------------------

    def process(self) -> s.Process:
        """A process; each form's last child is read in a loop."""
        pending = []  # (class, fields, closing tokens) waiting for the last child
        while True:
            tok = self.peek()
            form = _FORMS.get(tok.text) if tok.kind == "IDENT" else None
            if form is None:
                self.fail(f"found {tok.text or tok.kind!r}", expected=_FORMS)
            self.next()
            fields = self._head(form)
            closing = self._tail(form, fields)
            if closing is None:
                node = form.cls(**fields)
                break
            pending.append((form.cls, fields, closing))
        for cls, fields, closing in reversed(pending):
            for kind in closing:
                self.expect(kind)
            node = cls(**fields, **{_LAST[cls]: node})
        return node

    def _head(self, form: _Form) -> dict:
        if form.head == "if":
            return {"cond": self._dollar_expr()}
        self.expect("<")
        if form.head == "provider":
            binder, pred = self.binder()
            self.expect(">")
            return {"binder": binder, "pred": pred}
        fields = {"at": self.time_expr()}
        self.expect(">")
        self.expect("(")
        if form.head == "spawn":
            fields["callee"] = self.ident()
            args = []
            while self.accept(","):
                args.append(self.ident())
            fields["args"] = tuple(args)
        else:
            fields["chan"] = self.ident()
            if form.head == "app":
                self.expect("<=")
                fields["payload"] = self._block()
        self.expect(")")
        return fields

    def _tail(self, form: _Form, fields: dict) -> Optional[tuple]:
        """Read the tail up to its last child; return the tokens that close
        it after that child (None: the form has no tail)."""
        if form.tail == "none":
            return None
        if form.tail == "bind":
            self.expect("{")
            fields[form.var] = self.ident()
            if form.ann:
                fields[form.ann] = self.session_type() if self.accept(":") else None
            self.expect("=>")
            return ("}",)
        if form.tail == "branch":
            fields["left"] = self._branch("L")
            self._branch_open("R")
            return ("}",)
        if form.tail == "else":
            fields["then"] = self._block()
            self.keyword("else")
            self.expect("{")
            return ("}",)
        if form.tail == "expr":
            fields["expr"] = self._dollar_expr()
        elif form.tail == "block":
            fields["payload"] = self._block()
        self.expect(";")
        return ()

    def _block(self) -> s.Process:
        self.expect("{")
        body = self.process()
        self.expect("}")
        return body

    def _branch_open(self, label: str) -> None:
        self.expect("{")
        got = self.ident()
        if got != label:
            self.fail(f"expected branch label {label}, found {got}", expected={label})
        self.expect("=>")

    def _branch(self, label: str) -> s.Process:
        self._branch_open(label)
        body = self.process()
        self.expect("}")
        return body

    def _dollar_expr(self) -> s.Expr:
        self.expect("$")
        e = self.expr()
        self.expect("$")
        return e

    # -- functional expressions ------------------------------------------------

    def expr(self) -> s.Expr:
        left = self.arith()
        tok = self.peek()
        if tok.kind in ("==", "!=", "<=", ">=", "<", ">"):
            self.next()
            return s.Cmp(tok.kind, left, self.arith())
        return left

    def arith(self) -> s.Expr:
        left = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            left = s.Arith(op, left, self.term())
        return left

    def term(self) -> s.Expr:
        left = self.atom()
        while self.peek().kind == "*":
            self.next()
            left = s.Arith("*", left, self.atom())
        return left

    def atom(self) -> s.Expr:
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return s.IntLit(int(tok.text))
        if tok.kind == "-" and self.peek(1).kind == "INT":
            self.next()
            return s.IntLit(-int(self.next().text))
        if tok.kind == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind == "IDENT":
            if tok.text in ("true", "false"):
                self.next()
                return s.BoolLit(tok.text == "true")
            if tok.text == "if":
                self.next()
                cond = self.expr()
                self.keyword("then")
                then = self.expr()
                self.keyword("else")
                return s.IfE(cond, then, self.expr())
            name = self.ident()
            if self.accept("("):
                args = []
                if self.peek().kind != ")":
                    args.append(self.expr())
                    while self.accept(","):
                        args.append(self.expr())
                self.expect(")")
                return s.CallE(name, tuple(args))
            return s.VarE(name)
        self.fail(f"found {tok.text or tok.kind!r} in expression")


# declaration keyword -> reader, in the order of Program's fields
_DECLS = {"sort": Parser.sort_decl, "extern": Parser.extern_decl, "type": Parser.type_decl,
          "fn": Parser.proc_decl, "automaton": Parser.automaton_decl,
          "system": Parser.system_decl}


def _type_refs(a: s.SessionType) -> set:
    refs, todo = set(), [a]
    while todo:
        a = todo.pop()
        if isinstance(a, s.TypeRef):
            refs.add(a.name)
        else:
            todo.extend(s.components(a))
    return refs


def _validate_program(prog: s.Program) -> None:
    seen = set()
    for group in (prog.types, prog.procs, prog.automata, prog.systems):
        for d in group:
            if d.name in seen:
                raise ParseError(f"duplicate declaration name {d.name!r}",
                                 *(d.pos or (0, 0)))
            seen.add(d.name)
    type_names = {d.name for d in prog.types}
    for td in prog.types:
        for ref in sorted(_type_refs(td.body) - type_names):
            raise ParseError(f"type {td.name} references unknown type {ref}",
                             *(td.pos or (0, 0)))
    for pd in prog.procs:
        names = [var for var, _ in pd.params]
        for k, var in enumerate(names):
            if var in names[:k]:
                raise ParseError(f"fn {pd.name} has parameter {var} twice", *(pd.pos or (0, 0)))
        mentioned = _type_refs(pd.offered)
        for _, ty in pd.params:
            mentioned |= _type_refs(ty)
        for ref in sorted(mentioned - type_names):
            raise ParseError(f"fn {pd.name} references unknown type {ref}",
                             *(pd.pos or (0, 0)))
    extern_names = {ext.name for ext in prog.externs}
    for ad in prog.automata:
        for tr in ad.transitions:
            if tr.extern is not None and tr.extern not in extern_names:
                raise ParseError(f"automaton {ad.name} reads undeclared extern {tr.extern}",
                                 *(ad.pos or (0, 0)))
    declared_sorts = set(prog.sorts)
    for ext in prog.externs:
        for vt in list(ext.arg_types) + [ext.ret_type]:
            if isinstance(vt, s.NamedType) and vt.name not in declared_sorts:
                raise ParseError(
                    f"extern {ext.name} uses undeclared sort {vt.name}",
                    *(ext.pos or (0, 0)))
    for sysd in prog.systems:
        _validate_system(prog, sysd)


def _validate_system(prog: s.Program, sysd: s.SystemDecl) -> None:
    """Each of the entry's channels is bound once, to an automaton instance
    whose channel no other leaf of the system provides."""
    name, where = sysd.name, sysd.pos or (0, 0)
    entry = prog.proc_decl(sysd.entry)
    if entry is None:
        raise ParseError(f"system {name} names unknown proc {sysd.entry}", *where)
    for _, machine, _ in sysd.bindings:
        if all(a.name != machine for a in prog.automata):
            raise ParseError(f"system {name} names unknown automaton {machine}", *where)
    if len(sysd.bindings) != len(entry.params):
        raise ParseError(f"system {name}: {sysd.entry} takes {len(entry.params)} channels, "
                         f"{len(sysd.bindings)} bound", *where)
    params = {v for v, _ in entry.params}
    bound, providers = set(), {name}
    for param, _, instance in sysd.bindings:
        if param not in params:
            raise ParseError(f"system {name}: {sysd.entry} has no parameter {param}", *where)
        if param in bound:
            raise ParseError(f"system {name}: parameter {param} is bound twice", *where)
        if instance in providers:
            raise ParseError(f"system {name}: channel {instance} has two providers", *where)
        bound.add(param)
        providers.add(instance)
    if sysd.start.var is not None:
        raise ParseError(f"system {name}: start instant {render_time(sysd.start)} is not closed",
                         *where)


def parse_program(source: str) -> s.Program:
    return Parser(source).program()


# ---------------------------------------------------------------------------
# Pretty-printer (inverse of the parser up to alpha-renaming and positions)


def render_prop(p: t.Prop) -> str:
    name = _PROP_NAME[type(p)]
    args = _PROPS[name][1]
    if not args:
        return name
    part = render_prop if args == "pp" else render_time
    return f"{name}<{part(p.left)}, {part(p.right)}>"


def render_type(a: s.SessionType, m: Optional[dict] = None) -> str:
    """The surface spelling of a type, its free time variables read through
    ``m``; the last component in a loop."""
    out, depth, m = [], 0, m or {}
    while not isinstance(a, s.TypeRef):
        parts = [f"{a.binder} where {render_prop(t.substitute_all(a.pred, m))}"]
        if s.CONNECTIVES[type(a)].kind == "value":
            parts.insert(0, str(a.payload))
        *firsts, last = s.components(a) or (None,)
        parts += (render_type(c, m) for c in firsts)
        out.append(f"{_TYPE_NAME[type(a)]}<{', '.join(parts)}")
        depth += 1
        if last is None:
            break
        out.append(", ")
        a = last
    else:
        out.append(a.name)
    return "".join(out) + ">" * depth


def render_expr(e: s.Expr) -> str:
    if isinstance(e, s.BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, s.IntLit):
        return str(e.value)
    if isinstance(e, s.VarE):
        return e.name
    if isinstance(e, (s.Arith, s.Cmp)):
        return f"({render_expr(e.left)} {e.op} {render_expr(e.right)})"
    if isinstance(e, s.IfE):
        return f"(if {render_expr(e.cond)} then {render_expr(e.then)} else {render_expr(e.orelse)})"
    return f"{e.name}({', '.join(render_expr(a) for a in e.args)})"


def _render_block(p: s.Process, indent: int) -> str:
    return f"{{\n{render_process(p, indent + 1)}\n{'  ' * indent}}}"


def render_process(p: s.Process, indent: int = 0) -> str:
    """The surface spelling of a process, read back by ``Parser.process``;
    each form's last child is printed in a loop."""
    out, closing = [], []
    while True:
        kw, pad = _KEYWORD[type(p)], "  " * indent
        form = _FORMS[kw]
        if form.head == "provider":
            out.append(f"{pad}{kw}<{p.binder} where {render_prop(p.pred)}>")
        elif form.head == "if":
            out.append(f"{pad}if $ {render_expr(p.cond)} $")
        elif form.head == "spawn":
            out.append(f"{pad}{kw}<{render_time(p.at)}>({', '.join((p.callee,) + p.args)})")
        elif form.head == "app":
            out.append(f"{pad}{kw}<{render_time(p.at)}>({p.chan} <= "
                       f"{_render_block(p.payload, indent)})")
        else:
            out.append(f"{pad}{kw}<{render_time(p.at)}>({p.chan})")
        if form.tail == "none":
            break
        if form.tail == "seq":
            out.append(";\n")
        elif form.tail == "expr":
            out.append(f" $ {render_expr(p.expr)} $;\n")
        elif form.tail == "block":
            out.append(f" {_render_block(p.payload, indent)};\n")
        else:
            if form.tail == "bind":
                ann = getattr(p, form.ann) if form.ann else None
                ann = "" if ann is None else f" : {render_type(ann)}"
                out.append(f" {{ {getattr(p, form.var)}{ann} =>\n")
            elif form.tail == "branch":
                out.append(f"\n{pad}{{ L =>\n{render_process(p.left, indent + 1)}\n{pad}}}"
                           f"\n{pad}{{ R =>\n")
            else:
                out.append(f" {_render_block(p.then, indent)} else {{\n")
            closing.append(f"\n{pad}}}")
            indent += 1
        p = getattr(p, _LAST[type(p)])
    return "".join(out) + "".join(reversed(closing))


def render_program(prog: s.Program) -> str:
    parts = []
    for name in prog.sorts:
        parts.append(f"sort {name};")
    for ext in prog.externs:
        args = ", ".join(map(str, ext.arg_types))
        parts.append(f"extern fn {ext.name}({args}) -> {ext.ret_type};")
    for td in prog.types:
        parts.append(f"type {td.name} = {render_type(td.body)};")
    for pd in prog.procs:
        params = ", ".join(f"{v}: {render_type(a)}" for v, a in pd.params)
        parts.append(f"fn {pd.name}({params}) -> {render_type(pd.offered)} {{\n"
                     f"{render_process(pd.body, 1)}\n}}")
    for ad in prog.automata:
        lines = [f"automaton {ad.name} {{"]
        for st in ad.states:
            suffix = " init" if st == ad.initial else ""
            lines.append(f"  state {st}{suffix};")
        for tr in ad.transitions:
            guard = f"{tr.guard_offset}, " if tr.guard_offset else ""
            action = _SIGIL[tr.action.direction] + _ACTION_WORD[tr.action.kind, tr.action.payload]
            extern = f"({tr.extern})" if tr.extern else ""
            lines.append(f"  {tr.src} --[{guard}{action}{extern}]--> {tr.dst};")
        lines.append("}")
        parts.append("\n".join(lines))
    for sd in prog.systems:
        binds = ", ".join(f"{p} = {m} as {i}" for p, m, i in sd.bindings)
        parts.append(f"system {sd.name} = {sd.entry}({binds}) @ {render_time(sd.start)};")
    return "\n\n".join(parts) + "\n"
