"""Parser and pretty-printer for the .tsl surface language.

Declarations: sort, extern fn, type, fn, automaton, system.  Types are spelled
``Conn<t where P, ...>`` (Produce/Request take the payload sort on either side
of the binder); processes use the keyword spellings Close, Wait, Lam, App,
SendCh, RecvCh, SwitchL, SwitchR, Case, Offer, SelectL, SelectR, Prod, Cons,
Query, Supply, Fwd, Spawn, plus ``if $e$ { P } else { Q }``.  Functional
expressions are delimited by ``$``.  Line comments start with ``//``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import syntax as s
from . import temporal as t


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected=None):
        self.line = line
        self.col = col
        self.expected = sorted(expected) if expected else []
        hint = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{line}:{col}: {message}{hint}")


@dataclass
class Token:
    kind: str  # IDENT, INT, or the symbol itself
    text: str
    line: int
    col: int


_SYMBOLS = [
    "]-->", "--[", "->", "=>", "==", "!=", "<=", ">=",
    "<", ">", "(", ")", "{", "}", ",", ";", ":", "=", "$", "@", "?", "!",
    "+", "-", "*",
]


def tokenize(source: str) -> list:
    toks = []
    line, col, i, n = 1, 1, 0, len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and (source[j].isdigit() or source[j] == "_"):
                j += 1
            toks.append(Token("INT", source[i:j].replace("_", ""), line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            toks.append(Token("IDENT", source[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                toks.append(Token(sym, sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


_TYPE_CONNECTIVES = {"Unit", "Tensor", "Lolli", "InChoice", "ExChoice", "Produce", "Request"}
_PROP_OPS = {"Leq", "Geq", "Eq", "Lt", "Gt", "Neq", "In", "And", "Or", "Implies", "Not",
             "True", "False"}
_PROC_KEYWORDS = {
    "Close", "Wait", "Lam", "App", "SendCh", "RecvCh", "SwitchL", "SwitchR",
    "Case", "Offer", "SelectL", "SelectR", "Prod", "Cons", "Query", "Supply",
    "Fwd", "Spawn", "if",
}


class Parser:
    def __init__(self, source: str):
        self.toks = tokenize(source)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"found {tok.text or tok.kind!r}", tok.line, tok.col,
                             expected={kind})
        return self.next()

    def accept(self, kind: str) -> Optional[Token]:
        if self.peek().kind == kind:
            return self.next()
        return None

    def ident(self) -> str:
        return self.expect("IDENT").text

    def keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != word:
            raise ParseError(f"found {tok.text or tok.kind!r}", tok.line, tok.col,
                             expected={word})
        return self.next()

    def fail(self, message: str, expected=None):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col, expected=expected)

    # -- program -----------------------------------------------------------

    def program(self) -> s.Program:
        sorts, externs, types, procs, automata, systems = [], [], [], [], [], []
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind != "IDENT":
                self.fail(f"found {tok.text!r}",
                          expected={"sort", "extern", "type", "fn", "automaton", "system"})
            if tok.text == "sort":
                self.next()
                sorts.append(self.ident())
                self.expect(";")
            elif tok.text == "extern":
                externs.append(self.extern_decl())
            elif tok.text == "type":
                types.append(self.type_decl())
            elif tok.text == "fn":
                procs.append(self.proc_decl())
            elif tok.text == "automaton":
                automata.append(self.automaton_decl())
            elif tok.text == "system":
                systems.append(self.system_decl())
            else:
                self.fail(f"found {tok.text!r}",
                          expected={"sort", "extern", "type", "fn", "automaton", "system"})
        prog = s.Program(tuple(sorts), tuple(externs), tuple(types), tuple(procs),
                         tuple(automata), tuple(systems))
        _validate_program(prog)
        return prog

    def extern_decl(self) -> s.ExternDecl:
        start = self.keyword("extern")
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
        return s.ExternDecl(name, tuple(args), ret, pos=(start.line, start.col))

    def type_decl(self) -> s.TypeDecl:
        start = self.keyword("type")
        name = self.ident()
        self.expect("=")
        body = self.session_type()
        self.accept(";")
        return s.TypeDecl(name, body, pos=(start.line, start.col))

    def proc_decl(self) -> s.ProcDecl:
        start = self.keyword("fn")
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
        self.expect("{")
        body = self.process()
        self.expect("}")
        return s.ProcDecl(name, tuple(params), offered, body, pos=(start.line, start.col))

    def automaton_decl(self) -> s.AutomatonDecl:
        start = self.keyword("automaton")
        name = self.ident()
        self.expect("{")
        states, initial, transitions = [], None, []
        while not self.accept("}"):
            if self.peek().kind == "IDENT" and self.peek().text == "state":
                self.next()
                st = self.ident()
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
            raise ParseError(f"automaton {name} has no init state", start.line, start.col)
        return s.AutomatonDecl(name, tuple(states), initial, tuple(transitions),
                               pos=(start.line, start.col))

    def auto_transition(self) -> s.AutoTransitionDecl:
        src = self.ident()
        self.expect("--[")
        offset = 0
        if self.peek().kind == "INT":
            offset = int(self.next().text)
            self.expect(",")
        action = self.auto_action()
        self.expect("]-->")
        dst = self.ident()
        self.expect(";")
        return s.AutoTransitionDecl(src, offset, action, dst)

    def auto_action(self) -> str:
        direction = self.peek().kind
        if direction not in ("?", "!"):
            self.fail("automaton action must start with ? or !", expected={"?", "!"})
        self.next()
        word = self.ident()
        if word in ("L", "R", "cls", "chan"):
            return direction + word
        if word == "val":
            if direction == "!":
                self.expect("(")
                extern = self.ident()
                self.expect(")")
                return f"!val({extern})"
            return "?val"
        self.fail(f"unknown automaton action {word!r}",
                  expected={"L", "R", "val", "cls", "chan"})

    def system_decl(self) -> s.SystemDecl:
        start = self.keyword("system")
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
        return s.SystemDecl(name, entry, tuple(bindings), start_time,
                            pos=(start.line, start.col))

    # -- types ---------------------------------------------------------------

    def value_sort(self) -> s.ValueType:
        name = self.ident()
        if name == "bool":
            return s.BOOL
        if name == "int":
            return s.INT
        return s.NamedType(name)

    def session_type(self) -> s.SessionType:
        tok = self.peek()
        name = self.ident()
        if name not in _TYPE_CONNECTIVES:
            return s.TypeRef(name)
        self.expect("<")
        if name == "Unit":
            binder, pred = self.binder()
            self.expect(">")
            return s.UnitT(binder, pred)
        if name in ("Tensor", "Lolli", "InChoice", "ExChoice"):
            binder, pred = self.binder()
            self.expect(",")
            left = self.session_type()
            self.expect(",")
            right = self.session_type()
            self.expect(">")
            ctor = {"Tensor": s.TensorT, "Lolli": s.LolliT,
                    "InChoice": s.IChoiceT, "ExChoice": s.EChoiceT}[name]
            return ctor(binder, pred, left, right)
        # Produce / Request: payload sort and binder in either order
        if self.peek(1).kind == "IDENT" and self.peek(1).text == "where":
            binder, pred = self.binder()
            self.expect(",")
            payload = self.value_sort()
        else:
            payload = self.value_sort()
            self.expect(",")
            binder, pred = self.binder()
        self.expect(",")
        cont = self.session_type()
        self.expect(">")
        ctor = s.ProduceT if name == "Produce" else s.QueryT
        return ctor(binder, pred, payload, cont)

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
        if name not in _PROP_OPS:
            self.fail(f"unknown proposition operator {name!r}", expected=_PROP_OPS)
        if name == "True":
            return t.TOP
        if name == "False":
            return t.BOT
        self.expect("<")
        if name in ("And", "Or", "Implies"):
            left = self.prop()
            self.expect(",")
            right = self.prop()
            self.expect(">")
            ctor = {"And": t.And, "Or": t.Or, "Implies": t.Imp}[name]
            return ctor(left, right)
        if name == "Not":
            inner = self.prop()
            self.expect(">")
            return t.p_not(inner)
        if name == "In":
            lo = self.time_expr()
            self.expect(",")
            mid = self.time_expr()
            self.expect(",")
            hi = self.time_expr()
            self.expect(">")
            return t.p_in(lo, mid, hi)
        left = self.time_expr()
        self.expect(",")
        right = self.time_expr()
        self.expect(">")
        if name == "Leq":
            return t.Leq(left, right)
        if name == "Geq":
            return t.p_geq(left, right)
        if name == "Eq":
            return t.Eq(left, right)
        if name == "Lt":
            return t.p_lt(left, right)
        if name == "Gt":
            return t.p_gt(left, right)
        return t.p_neq(left, right)

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
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text not in _PROC_KEYWORDS:
            self.fail(f"found {tok.text or tok.kind!r}", expected=_PROC_KEYWORDS)
        word = tok.text
        return getattr(self, f"_proc_{word.lower()}")()

    def _angle_binder(self) -> tuple:
        self.expect("<")
        binder, pred = self.binder()
        self.expect(">")
        return binder, pred

    def _angle_time(self) -> t.TimeExpr:
        self.expect("<")
        at = self.time_expr()
        self.expect(">")
        return at

    def _paren_chan(self) -> str:
        self.expect("(")
        chan = self.ident()
        self.expect(")")
        return chan

    def _brace_bound(self) -> tuple:
        """{ x => P }, returning (x, None, P); Spawn adds an optional type."""
        self.expect("{")
        var = self.ident()
        bound_type = self.session_type() if self.accept(":") else None
        self.expect("=>")
        body = self.process()
        self.expect("}")
        return var, bound_type, body

    def _dollar_expr(self) -> s.Expr:
        self.expect("$")
        e = self.expr()
        self.expect("$")
        return e

    def _proc_close(self) -> s.Process:
        self.keyword("Close")
        binder, pred = self._angle_binder()
        return s.CloseP(binder, pred)

    def _proc_wait(self) -> s.Process:
        self.keyword("Wait")
        at = self._angle_time()
        chan = self._paren_chan()
        self.expect(";")
        return s.WaitP(at, chan, self.process())

    def _proc_lam(self) -> s.Process:
        self.keyword("Lam")
        binder, pred = self._angle_binder()
        var, _, body = self._brace_bound()
        return s.LamRecv(binder, pred, var, body)

    def _proc_app(self) -> s.Process:
        self.keyword("App")
        at = self._angle_time()
        self.expect("(")
        chan = self.ident()
        self.expect("<=")
        self.expect("{")
        payload = self.process()
        self.expect("}")
        self.expect(")")
        self.expect(";")
        return s.AppSend(chan, at, payload, self.process())

    def _proc_sendch(self) -> s.Process:
        self.keyword("SendCh")
        binder, pred = self._angle_binder()
        self.expect("{")
        payload = self.process()
        self.expect("}")
        self.expect(";")
        return s.PairSend(binder, pred, payload, self.process())

    def _proc_recvch(self) -> s.Process:
        self.keyword("RecvCh")
        at = self._angle_time()
        chan = self._paren_chan()
        var, _, body = self._brace_bound()
        return s.PairRecv(chan, at, var, body)

    def _proc_switchl(self) -> s.Process:
        self.keyword("SwitchL")
        binder, pred = self._angle_binder()
        self.expect(";")
        return s.InLP(binder, pred, self.process())

    def _proc_switchr(self) -> s.Process:
        self.keyword("SwitchR")
        binder, pred = self._angle_binder()
        self.expect(";")
        return s.InRP(binder, pred, self.process())

    def _branch(self, label: str) -> s.Process:
        self.expect("{")
        got = self.ident()
        if got != label:
            self.fail(f"expected branch label {label}, found {got}", expected={label})
        self.expect("=>")
        body = self.process()
        self.expect("}")
        return body

    def _proc_case(self) -> s.Process:
        self.keyword("Case")
        at = self._angle_time()
        chan = self._paren_chan()
        left = self._branch("L")
        right = self._branch("R")
        return s.CaseP(at, chan, left, right)

    def _proc_offer(self) -> s.Process:
        self.keyword("Offer")
        binder, pred = self._angle_binder()
        left = self._branch("L")
        right = self._branch("R")
        return s.OfferP(binder, pred, left, right)

    def _proc_selectl(self) -> s.Process:
        self.keyword("SelectL")
        at = self._angle_time()
        chan = self._paren_chan()
        self.expect(";")
        return s.SelectLP(chan, at, self.process())

    def _proc_selectr(self) -> s.Process:
        self.keyword("SelectR")
        at = self._angle_time()
        chan = self._paren_chan()
        self.expect(";")
        return s.SelectRP(chan, at, self.process())

    def _proc_prod(self) -> s.Process:
        self.keyword("Prod")
        binder, pred = self._angle_binder()
        expr = self._dollar_expr()
        self.expect(";")
        return s.ProdP(binder, pred, expr, self.process())

    def _proc_cons(self) -> s.Process:
        self.keyword("Cons")
        at = self._angle_time()
        chan = self._paren_chan()
        var, _, body = self._brace_bound()
        return s.ConsP(chan, at, var, body)

    def _proc_query(self) -> s.Process:
        self.keyword("Query")
        binder, pred = self._angle_binder()
        var, _, body = self._brace_bound()
        return s.QueryRecvP(binder, pred, var, body)

    def _proc_supply(self) -> s.Process:
        self.keyword("Supply")
        at = self._angle_time()
        chan = self._paren_chan()
        expr = self._dollar_expr()
        self.expect(";")
        return s.SupplyP(chan, at, expr, self.process())

    def _proc_fwd(self) -> s.Process:
        self.keyword("Fwd")
        at = self._angle_time()
        chan = self._paren_chan()
        return s.FwdP(at, chan)

    def _proc_spawn(self) -> s.Process:
        self.keyword("Spawn")
        at = self._angle_time()
        self.expect("(")
        callee = self.ident()
        args = []
        while self.accept(","):
            args.append(self.ident())
        self.expect(")")
        var, bound_type, body = self._brace_bound()
        return s.SpawnP(at, callee, tuple(args), var, body, bound_type)

    def _proc_if(self) -> s.Process:
        self.keyword("if")
        cond = self._dollar_expr()
        self.expect("{")
        then = self.process()
        self.expect("}")
        self.keyword("else")
        self.expect("{")
        orelse = self.process()
        self.expect("}")
        return s.IfP(cond, then, orelse)

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
            if tok.text == "true":
                self.next()
                return s.BoolLit(True)
            if tok.text == "false":
                self.next()
                return s.BoolLit(False)
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


def _type_refs(a: s.SessionType) -> set:
    if isinstance(a, s.TypeRef):
        return {a.name}
    return set().union(*map(_type_refs, s.components(a)))


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
        mentioned = _type_refs(pd.offered)
        for _, ty in pd.params:
            mentioned |= _type_refs(ty)
        for ref in sorted(mentioned - type_names):
            raise ParseError(f"fn {pd.name} references unknown type {ref}",
                             *(pd.pos or (0, 0)))
    declared_sorts = set(prog.sorts)
    for ext in prog.externs:
        for vt in list(ext.arg_types) + [ext.ret_type]:
            if isinstance(vt, s.NamedType) and vt.name not in declared_sorts:
                raise ParseError(
                    f"extern {ext.name} uses undeclared sort {vt.name}",
                    *(ext.pos or (0, 0)))
    for sysd in prog.systems:
        if prog.proc_decl(sysd.entry) is None:
            raise ParseError(f"system {sysd.name} names unknown proc {sysd.entry}",
                             *(sysd.pos or (0, 0)))
        for _, machine, _ in sysd.bindings:
            if all(a.name != machine for a in prog.automata):
                raise ParseError(
                    f"system {sysd.name} names unknown automaton {machine}",
                    *(sysd.pos or (0, 0)))


def parse_program(source: str) -> s.Program:
    return Parser(source).program()


# ---------------------------------------------------------------------------
# Pretty-printer (inverse of the parser up to alpha-renaming and positions)


def render_time(e: t.TimeExpr) -> str:
    base = e.var if e.var is not None else "t0"
    if e.offset == 0:
        return base
    return f"Shift<{base}, {e.offset}>" if e.offset > 0 else f"Shift<{base}, -{-e.offset}>"


def render_prop(p: t.Prop) -> str:
    if isinstance(p, t.Top):
        return "True"
    if isinstance(p, t.Bot):
        return "False"
    if isinstance(p, t.And):
        return f"And<{render_prop(p.left)}, {render_prop(p.right)}>"
    if isinstance(p, t.Or):
        return f"Or<{render_prop(p.left)}, {render_prop(p.right)}>"
    if isinstance(p, t.Imp):
        return f"Implies<{render_prop(p.left)}, {render_prop(p.right)}>"
    if isinstance(p, t.Eq):
        return f"Eq<{render_time(p.left)}, {render_time(p.right)}>"
    return f"Leq<{render_time(p.left)}, {render_time(p.right)}>"


def render_sort(v: s.ValueType) -> str:
    return str(v)


def render_type(a: s.SessionType) -> str:
    if isinstance(a, s.TypeRef):
        return a.name
    b = f"{a.binder} where {render_prop(a.pred)}"
    if isinstance(a, s.UnitT):
        return f"Unit<{b}>"
    if isinstance(a, s.TensorT):
        return f"Tensor<{b}, {render_type(a.left)}, {render_type(a.right)}>"
    if isinstance(a, s.LolliT):
        return f"Lolli<{b}, {render_type(a.arg)}, {render_type(a.cont)}>"
    if isinstance(a, s.IChoiceT):
        return f"InChoice<{b}, {render_type(a.left)}, {render_type(a.right)}>"
    if isinstance(a, s.EChoiceT):
        return f"ExChoice<{b}, {render_type(a.left)}, {render_type(a.right)}>"
    if isinstance(a, s.ProduceT):
        return f"Produce<{render_sort(a.payload)}, {b}, {render_type(a.cont)}>"
    return f"Request<{render_sort(a.payload)}, {b}, {render_type(a.cont)}>"


def render_expr(e: s.Expr) -> str:
    if isinstance(e, s.BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, s.IntLit):
        return str(e.value)
    if isinstance(e, s.VarE):
        return e.name
    if isinstance(e, s.Arith):
        return f"({render_expr(e.left)} {e.op} {render_expr(e.right)})"
    if isinstance(e, s.Cmp):
        return f"({render_expr(e.left)} {e.op} {render_expr(e.right)})"
    if isinstance(e, s.IfE):
        return f"(if {render_expr(e.cond)} then {render_expr(e.then)} else {render_expr(e.orelse)})"
    return f"{e.name}({', '.join(render_expr(a) for a in e.args)})"


def render_process(p: s.Process, indent: int = 0) -> str:
    pad = "  " * indent
    nxt = lambda q: render_process(q, indent)
    blk = lambda q: render_process(q, indent + 1)
    if isinstance(p, s.CloseP):
        return f"{pad}Close<{p.binder} where {render_prop(p.pred)}>"
    if isinstance(p, s.WaitP):
        return f"{pad}Wait<{render_time(p.at)}>({p.chan});\n{nxt(p.cont)}"
    if isinstance(p, s.LamRecv):
        return (f"{pad}Lam<{p.binder} where {render_prop(p.pred)}> {{ {p.var} =>\n"
                f"{blk(p.body)}\n{pad}}}")
    if isinstance(p, s.AppSend):
        return (f"{pad}App<{render_time(p.at)}>({p.chan} <= {{\n{blk(p.payload)}\n{pad}}});\n"
                f"{nxt(p.cont)}")
    if isinstance(p, s.PairSend):
        return (f"{pad}SendCh<{p.binder} where {render_prop(p.pred)}> {{\n{blk(p.payload)}\n"
                f"{pad}}};\n{nxt(p.cont)}")
    if isinstance(p, s.PairRecv):
        return (f"{pad}RecvCh<{render_time(p.at)}>({p.chan}) {{ {p.var} =>\n"
                f"{blk(p.cont)}\n{pad}}}")
    if isinstance(p, s.InLP):
        return f"{pad}SwitchL<{p.binder} where {render_prop(p.pred)}>;\n{nxt(p.cont)}"
    if isinstance(p, s.InRP):
        return f"{pad}SwitchR<{p.binder} where {render_prop(p.pred)}>;\n{nxt(p.cont)}"
    if isinstance(p, s.CaseP):
        return (f"{pad}Case<{render_time(p.at)}>({p.chan})\n"
                f"{pad}{{ L =>\n{blk(p.left)}\n{pad}}}\n"
                f"{pad}{{ R =>\n{blk(p.right)}\n{pad}}}")
    if isinstance(p, s.OfferP):
        return (f"{pad}Offer<{p.binder} where {render_prop(p.pred)}>\n"
                f"{pad}{{ L =>\n{blk(p.left)}\n{pad}}}\n"
                f"{pad}{{ R =>\n{blk(p.right)}\n{pad}}}")
    if isinstance(p, s.SelectLP):
        return f"{pad}SelectL<{render_time(p.at)}>({p.chan});\n{nxt(p.cont)}"
    if isinstance(p, s.SelectRP):
        return f"{pad}SelectR<{render_time(p.at)}>({p.chan});\n{nxt(p.cont)}"
    if isinstance(p, s.ProdP):
        return (f"{pad}Prod<{p.binder} where {render_prop(p.pred)}> "
                f"$ {render_expr(p.expr)} $;\n{nxt(p.cont)}")
    if isinstance(p, s.ConsP):
        return (f"{pad}Cons<{render_time(p.at)}>({p.chan}) {{ {p.var} =>\n"
                f"{blk(p.cont)}\n{pad}}}")
    if isinstance(p, s.QueryRecvP):
        return (f"{pad}Query<{p.binder} where {render_prop(p.pred)}> {{ {p.var} =>\n"
                f"{blk(p.cont)}\n{pad}}}")
    if isinstance(p, s.SupplyP):
        return (f"{pad}Supply<{render_time(p.at)}>({p.chan}) "
                f"$ {render_expr(p.expr)} $;\n{nxt(p.cont)}")
    if isinstance(p, s.FwdP):
        return f"{pad}Fwd<{render_time(p.at)}>({p.chan})"
    if isinstance(p, s.SpawnP):
        callee = ", ".join((p.callee,) + p.args)
        ann = f" : {render_type(p.bound_type)}" if p.bound_type is not None else ""
        return (f"{pad}Spawn<{render_time(p.at)}>({callee}) {{ {p.bound}{ann} =>\n"
                f"{blk(p.cont)}\n{pad}}}")
    return (f"{pad}if $ {render_expr(p.cond)} $ {{\n{blk(p.then)}\n{pad}}} else {{\n"
            f"{blk(p.orelse)}\n{pad}}}")


def render_program(prog: s.Program) -> str:
    parts = []
    for name in prog.sorts:
        parts.append(f"sort {name};")
    for ext in prog.externs:
        args = ", ".join(render_sort(a) for a in ext.arg_types)
        parts.append(f"extern fn {ext.name}({args}) -> {render_sort(ext.ret_type)};")
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
            lines.append(f"  {tr.src} --[{guard}{tr.action}]--> {tr.dst};")
        lines.append("}")
        parts.append("\n".join(lines))
    for sd in prog.systems:
        binds = ", ".join(f"{p} = {m} as {i}" for p, m, i in sd.bindings)
        parts.append(f"system {sd.name} = {sd.entry}({binds}) @ {render_time(sd.start)};")
    return "\n\n".join(parts) + "\n"
