"""Parser and pretty-printer for the .tsl surface language.

Declarations: sort, extern fn, type, fn, automaton, system.  Types are spelled
``Conn<t where P, ...>`` (Produce/Request take the payload sort on either side
of the binder); processes use the keyword spellings Close, Wait, Lam, App,
SendCh, RecvCh, SwitchL, SwitchR, Case, Offer, SelectL, SelectR, Prod, Cons,
Query, Supply, Fwd, Spawn, plus ``if $e$ { P } else { Q }``.  Functional
expressions are delimited by ``$``.  Line comments start with ``//``.
``_scan`` splits the source in one regex pass into three parallel lists, the
pieces' kinds, texts and offsets, and builds no object per piece; the
parser's cursor indexes ``kinds`` and ``texts`` directly.  A line and column
is computed from an offset only when read (for an error or a declaration's
``pos``), by bisecting the line starts.  ``tokenize`` is a view over the same
scan that returns ``Token`` tuples with their lines and columns; the parser
never builds one.

The rows of ``syntax.FORMS`` drive both directions: each process keyword
names its class, its head (``<b where P>`` for providers, ``<T>(c)`` for
clients; App, Spawn and if read their own) and its tail.  The tail ends in
the form's last child, and that child is read and printed in a loop, with
the forms still waiting for it and their closing tokens on an explicit
stack; only payloads, left branches and the ``then`` arm recurse.  Types do
the same through ``_TYPES`` and ``CONNECTIVES[...].components``, so a
protocol nested thousands of levels deep parses and prints at the default
recursion limit.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate, islice, repeat

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


class Token(namedtuple("Token", "kind text line col")):
    """A piece of the source: its ``kind`` (IDENT, INT, the symbol itself,
    or EOF), its ``text``, and the line and column it starts at."""

    __slots__ = ()


# One match of the scan: a run of blanks and comments (group 1), then a piece
# (group 2): a decimal integer (``_`` separates digits), a word, a symbol
# (longest first), any other character, or, at the end of the source, the
# empty EOF piece.  ``split`` returns each match's two groups after the text
# between matches, which is always empty, so the pieces' offsets are the
# running sums of the parts' lengths.  Group 1 spells out its first comment
# so that the engine passes over the comment branch at a glance when the
# blanks end at anything but ``/``.  The run takes every newline, so group 2
# always matches where it stops (``.`` matches anything but a newline, ``\Z``
# the end) and the run never gives back a comment's tail: no piece starts
# inside a comment.  A word starts with a letter or ``_`` and continues with
# ``\w``, which also admits digit-like characters such as ``²``: ``a²`` is a
# name, and the scan rejects ``²a`` at its first character.
_PIECE = re.compile(r"([ \t\r\n]*(?://[^\n]*[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*|))"
                    r"(\d[\d_]*|\w+|\]-->|--\[|->|=>|==|!=|<=|>=|[-<>(){},;:=$@?!+*]|.|\Z)")
_SYMBOLS = ("]-->", "--[", "->", "=>", "==", "!=", "<=", ">=", *"-<>(){},;:=$@?!+*")
_GIVEN_KINDS = {**dict(zip(_SYMBOLS, _SYMBOLS)), "": "EOF"}


class _Kinds(dict):
    """Piece text -> kind, for one scan.  Symbols and the empty EOF piece are
    given; a word or an integer is classified by its first character when it
    is first met.  An integer spelled with ``_`` is noted in ``digits`` with
    the digits it stands for, and a piece that is neither maps to None."""

    def __init__(self):
        super().__init__(_GIVEN_KINDS)
        self.digits = {}

    def __missing__(self, text: str) -> str | None:
        first = text[0]
        if first.isalpha() or first == "_":
            kind = "IDENT"
        elif first.isdecimal():
            kind = "INT"
            if "_" in text:
                self.digits[text] = text.replace("_", "")
        else:
            kind = None
        self[text] = kind
        return kind


def _line_starts(source: str) -> list:
    """The offset at which each line starts, then one past the end."""
    return [0, *accumulate(map((1).__add__, map(len, source.split("\n"))))]


def _line_col(starts: list, offset: int) -> tuple:
    line = bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


def _scan(source: str) -> tuple:
    """The source's pieces as three parallel lists: kinds, texts (an
    integer's without ``_``) and offsets, ending in the EOF piece.  EOF sits
    at the end of the source, or at the comment that ends its last line."""
    parts = _PIECE.split(source)
    texts = parts[2::3]
    offsets = list(islice(accumulate(map(len, parts)), 1, None, 3))
    if len(texts) > 1 and not texts[-2]:
        # a trailing blank run is matched before the end: drop the second,
        # empty match at the end
        del texts[-1], offsets[-1]
    kinds_of = _Kinds()
    kinds = list(map(kinds_of.__getitem__, texts))
    if None in kinds_of.values():
        at = kinds.index(None)
        raise ParseError(f"unexpected character {texts[at][0]!r}",
                         *_line_col(_line_starts(source), offsets[at]))
    if kinds_of.digits:
        texts = list(map(kinds_of.digits.get, texts, texts))
    comment = source.find("//", source.rfind("\n") + 1)
    offsets[-1] = len(source) if comment < 0 else comment
    return kinds, texts, offsets


def tokenize(source: str) -> list:
    """The scan's pieces as ``Token`` tuples, each with its line and column.
    The offsets ascend, so one walk over the line starts places them all;
    ``tuple.__new__`` builds the tuples as ``Token._make`` does, without a
    Python-level call per piece."""
    kinds, texts, offsets = _scan(source)
    starts = _line_starts(source)
    lines, cols = [], []
    line, next_start = 1, starts[1]
    for offset in offsets:
        while next_start <= offset:
            line += 1
            next_start = starts[line]
        lines.append(line)
        cols.append(offset - starts[line - 1] + 1)
    return list(map(tuple.__new__, repeat(Token), zip(kinds, texts, lines, cols)))


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


# process keyword -> its row of syntax.FORMS
_FORMS = {form.keyword: form for form in s.FORMS.values()}


class Parser:
    """A cursor over the scan's lists: ``kinds[pos]`` and ``texts[pos]`` are
    the current piece.  Lines and columns are computed only when read, for
    an error or a declaration's ``pos``."""

    def __init__(self, source: str):
        self.source = source
        self.kinds, self.texts, self.offsets = _scan(source)
        self.pos = 0
        self._starts = None

    # -- piece plumbing ------------------------------------------------------

    def where(self, at: int) -> tuple:
        """The line and column of piece ``at``."""
        if self._starts is None:
            self._starts = _line_starts(self.source)
        return _line_col(self._starts, self.offsets[at])

    def expect(self, kind: str) -> str:
        pos = self.pos
        if self.kinds[pos] != kind:
            self.unexpected({kind})
        self.pos = pos + 1
        return self.texts[pos]

    def accept(self, kind: str) -> str | None:
        pos = self.pos
        if self.kinds[pos] != kind:
            return None
        self.pos = pos + 1
        return self.texts[pos]

    def integer(self) -> int:
        """The INT piece here, as an int; one longer than the interpreter
        converts (``sys.get_int_max_str_digits``) is an error at the piece."""
        at = self.pos
        text = self.expect("INT")
        try:
            return int(text)
        except ValueError:
            raise ParseError(f"integer literal of {len(text)} digits is too long",
                             *self.where(at)) from None

    def ident(self) -> str:
        pos = self.pos
        if self.kinds[pos] != "IDENT":
            self.unexpected({"IDENT"})
        self.pos = pos + 1
        return self.texts[pos]

    def keyword(self, word: str) -> str:
        # a word's text is only ever an IDENT's
        if self.texts[self.pos] != word:
            self.unexpected({word})
        self.pos += 1
        return word

    def fail(self, message: str, expected=None):
        raise ParseError(message, *self.where(self.pos), expected=expected)

    def unexpected(self, expected):
        self.fail(f"found {self.texts[self.pos] or self.kinds[self.pos]!r}", expected)

    # -- program -----------------------------------------------------------

    def program(self) -> s.Program:
        decls = {word: [] for word in _DECLS}
        while self.kinds[self.pos] != "EOF":
            word = self.texts[self.pos]
            read = _DECLS.get(word)
            if read is None:
                self.fail(f"found {word!r}", expected=_DECLS)
            at = self.pos
            self.pos += 1
            decls[word].append(read(self, self.where(at)))
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
        if self.kinds[self.pos] != ")":
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
        if self.kinds[self.pos] != ")":
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
            if self.texts[self.pos] == "state":
                self.pos += 1
                st = self.ident()
                if st in states:
                    raise ParseError(f"automaton {name} has duplicate states", *pos)
                states.append(st)
                if self.texts[self.pos] == "init":
                    self.pos += 1
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
        if self.kinds[self.pos] == "INT":
            offset = self.integer()
            self.expect(",")
        action, extern = self.auto_action()
        self.expect("]-->")
        dst = self.ident()
        self.expect(";")
        return s.AutoTransition(src, offset, action, dst, extern)

    def auto_action(self) -> tuple:
        """``?L``, ``!cls``, ``!val(read_gas)``, ... as (action, extern); the
        instance's channel fills in the action's ``chan``."""
        direction = _DIRECTIONS.get(self.kinds[self.pos])
        if direction is None:
            self.fail("automaton action must start with ? or !", expected=_DIRECTIONS)
        self.pos += 1
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
        if self.kinds[self.pos] != ")":
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
            pos = self.pos
            if conn.kind == "value" and (self.kinds[pos] == "EOF"
                                         or self.texts[pos + 1] != "where"):
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
        at = self.pos
        name = self.ident()
        if name == "t0":
            raise ParseError("t0 is the initial instant and cannot be bound", *self.where(at))
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
        name = self.ident()
        if name == "Shift":
            self.expect("<")
            base = self.time_expr()
            self.expect(",")
            sign = -1 if self.accept("-") else 1
            amount = self.integer()
            self.expect(">")
            return base.shift(sign * amount)
        if name == "t0":
            return t.INIT
        return t.tvar(name)

    # -- processes -----------------------------------------------------------

    def process(self) -> s.Process:
        """A process; each form's last child is read in a loop."""
        pending = []  # (form, fields, closing kinds) waiting for the last child
        while True:
            form = _FORMS.get(self.texts[self.pos])
            if form is None:
                self.unexpected(_FORMS)
            self.pos += 1
            fields = self._head(form)
            closing = self._tail(form, fields)
            if closing is None:
                node = form.cls(**fields)
                break
            pending.append((form, fields, closing))
        for form, fields, closing in reversed(pending):
            for kind in closing:
                self.expect(kind)
            node = form.cls(**fields, **{form.children[-1]: node})
        return node

    def _head(self, form: s.Form) -> dict:
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

    def _tail(self, form: s.Form, fields: dict) -> tuple | None:
        """Read the tail up to its last child; return the kinds that close
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
        op = self.kinds[self.pos]
        if op in ("==", "!=", "<=", ">=", "<", ">"):
            self.pos += 1
            return s.Cmp(op, left, self.arith())
        return left

    def arith(self) -> s.Expr:
        left = self.term()
        while (op := self.kinds[self.pos]) in ("+", "-"):
            self.pos += 1
            left = s.Arith(op, left, self.term())
        return left

    def term(self) -> s.Expr:
        left = self.atom()
        while self.kinds[self.pos] == "*":
            self.pos += 1
            left = s.Arith("*", left, self.atom())
        return left

    def atom(self) -> s.Expr:
        pos, kinds = self.pos, self.kinds
        kind, text = kinds[pos], self.texts[pos]
        if kind == "INT":
            return s.IntLit(self.integer())
        if kind == "-" and kinds[pos + 1] == "INT":  # "-" is never the EOF piece
            self.pos = pos + 1
            return s.IntLit(-self.integer())
        if kind == "(":
            self.pos = pos + 1
            e = self.expr()
            self.expect(")")
            return e
        if kind == "IDENT":
            if text in ("true", "false"):
                self.pos = pos + 1
                return s.BoolLit(text == "true")
            if text == "if":
                self.pos = pos + 1
                cond = self.expr()
                self.keyword("then")
                then = self.expr()
                self.keyword("else")
                return s.IfE(cond, then, self.expr())
            self.pos = pos + 1
            if self.accept("("):
                args = []
                if self.kinds[self.pos] != ")":
                    args.append(self.expr())
                    while self.accept(","):
                        args.append(self.expr())
                self.expect(")")
                return s.CallE(text, tuple(args))
            return s.VarE(text)
        self.fail(f"found {text or kind!r} in expression")


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
        names = set()
        for var, _ in pd.params:
            if var in names:
                raise ParseError(f"fn {pd.name} has parameter {var} twice", *(pd.pos or (0, 0)))
            names.add(var)
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


def render_type(a: s.SessionType, m: dict | None = None) -> str:
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
        form, pad = s.FORMS[type(p)], "  " * indent
        kw = form.keyword
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
        p = getattr(p, form.children[-1])
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
