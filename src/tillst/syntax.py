"""Abstract syntax: session types, processes, functional expressions, programs.

Provider forms carry a time binder and predicate; client forms carry a
concrete time expression.  Channel, time and value variables live in separate
namespaces.  ``expand_type_refs`` builds each type once, naming every binder
uniquely; after it, nothing is substituted into a type or a process term,
and ``require_bound_windows``, which the checker and the monitor both call,
rejects a window that names a variable no binder of the type binds.
The checker binds process and type binders through maps to their instants,
and the runtime binds all three kinds of variable through a leaf's
environment.

``CONNECTIVES`` is the one table of connectives (components, message kind,
the provider's direction), ``FORMS`` the one table of process forms, from
which every per-form fact is derived, and ``OPS`` the one table of binary
operators.  ``step`` is the one rule that advances a type along an exchange.
An exchange half is one ``Action`` record, shared by the runtime and by the
transitions of each ``AutomatonDef``, the form the parser reads automata in.

Every node, declaration and program is an immutable ``record``
(``tillst.record``): equal when its class and fields are equal, with the
declarations' source positions left out of equality, hashing and ``repr``.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple

from .record import field, record, replace
from .temporal import (NonClosedError, Prop, TillstError, TimeExpr, atoms, close, eval_prop,
                       render_instant, render_prop, substitute_all, tvar)


class CyclicTypeDefError(TillstError):
    """Named type definitions form a reference cycle."""


class UnboundWindowError(TillstError):
    """A window of an expanded type names a variable no enclosing
    connective binds."""


class NameSupply:
    """Fresh binder names ``stem#k``, k counting from 1.  '#' cannot be
    written in source, so they never collide with user names; each check or
    expansion owns its supply, so the same input always gets the same names."""

    def __init__(self):
        self._count = itertools.count(1)

    def __call__(self, stem: str) -> str:
        return f"{stem.split('#')[0]}#{next(self._count)}"


# ---------------------------------------------------------------------------
# Value sorts


@record
class BoolType:
    def __str__(self) -> str:
        return "bool"


@record
class IntType:
    def __str__(self) -> str:
        return "int"


@record
class NamedType:
    name: str

    def __str__(self) -> str:
        return self.name


ValueType = (BoolType, IntType, NamedType)

BOOL = BoolType()
INT = IntType()


# ---------------------------------------------------------------------------
# Session types.  The binder scopes over the predicate and every component.


@record
class UnitT:
    binder: str
    pred: Prop


@record
class TensorT:
    binder: str
    pred: Prop
    left: "SessionType"
    right: "SessionType"


@record
class LolliT:
    binder: str
    pred: Prop
    arg: "SessionType"
    cont: "SessionType"


@record
class IChoiceT:
    binder: str
    pred: Prop
    left: "SessionType"
    right: "SessionType"


@record
class EChoiceT:
    binder: str
    pred: Prop
    left: "SessionType"
    right: "SessionType"


@record
class ProduceT:
    binder: str
    pred: Prop
    payload: ValueType
    cont: "SessionType"


@record
class QueryT:
    binder: str
    pred: Prop
    payload: ValueType
    cont: "SessionType"


@record
class TypeRef:
    name: str


SessionType = (UnitT, TensorT, LolliT, IChoiceT, EChoiceT, ProduceT, QueryT, TypeRef)


# ---------------------------------------------------------------------------
# Functional expressions


@record
class BoolLit:
    value: bool


@record
class IntLit:
    value: int


@record
class VarE:
    name: str


@record
class Arith:
    op: str  # + - *, a key of OPS
    left: "Expr"
    right: "Expr"


@record
class Cmp:
    op: str  # == != < <= > >=, a key of OPS
    left: "Expr"
    right: "Expr"


@record
class IfE:
    cond: "Expr"
    then: "Expr"
    orelse: "Expr"


@record
class CallE:
    name: str
    args: tuple


Expr = (BoolLit, IntLit, VarE, Arith, Cmp, IfE, CallE)


# One row per binary operator: its class, binding level (higher binds
# tighter; comparisons, at 0, do not chain), operand sort (None: any one
# sort, and ``fn`` takes the ``Value``s themselves), result sort and ``fn``.
Op = namedtuple("Op", "cls level operand result fn")

OPS = {"==": Op(Cmp, 0, None, BOOL, operator.eq), "!=": Op(Cmp, 0, None, BOOL, operator.ne),
       "<": Op(Cmp, 0, INT, BOOL, operator.lt), "<=": Op(Cmp, 0, INT, BOOL, operator.le),
       ">": Op(Cmp, 0, INT, BOOL, operator.gt), ">=": Op(Cmp, 0, INT, BOOL, operator.ge),
       "+": Op(Arith, 1, INT, INT, operator.add), "-": Op(Arith, 1, INT, INT, operator.sub),
       "*": Op(Arith, 2, INT, INT, operator.mul)}


# ---------------------------------------------------------------------------
# Process terms


@record
class CloseP:
    binder: str
    pred: Prop


@record
class WaitP:
    at: TimeExpr
    chan: str
    cont: "Process"


@record
class LamRecv:
    binder: str
    pred: Prop
    var: str
    cont: "Process"


@record
class AppSend:
    chan: str
    at: TimeExpr
    payload: "Process"
    cont: "Process"


@record
class PairSend:
    binder: str
    pred: Prop
    payload: "Process"
    cont: "Process"


@record
class PairRecv:
    chan: str
    at: TimeExpr
    var: str
    cont: "Process"


@record
class InLP:
    binder: str
    pred: Prop
    cont: "Process"


@record
class InRP:
    binder: str
    pred: Prop
    cont: "Process"


@record
class CaseP:
    at: TimeExpr
    chan: str
    left: "Process"
    right: "Process"


@record
class OfferP:
    binder: str
    pred: Prop
    left: "Process"
    right: "Process"


@record
class SelectLP:
    chan: str
    at: TimeExpr
    cont: "Process"


@record
class SelectRP:
    chan: str
    at: TimeExpr
    cont: "Process"


@record
class ProdP:
    binder: str
    pred: Prop
    expr: Expr
    cont: "Process"


@record
class ConsP:
    chan: str
    at: TimeExpr
    var: str
    cont: "Process"


@record
class QueryRecvP:
    binder: str
    pred: Prop
    var: str
    cont: "Process"


@record
class SupplyP:
    chan: str
    at: TimeExpr
    expr: Expr
    cont: "Process"


@record
class FwdP:
    at: TimeExpr
    chan: str


@record
class SpawnP:
    at: TimeExpr
    callee: str
    args: tuple
    bound: str
    cont: "Process"
    bound_type: SessionType | None = None


@record
class IfP:
    # Data-dependent branch; both arms must check at the same judgment.
    cond: Expr
    then: "Process"
    orelse: "Process"


Process = (
    CloseP, WaitP, LamRecv, AppSend, PairSend, PairRecv, InLP, InRP, CaseP,
    OfferP, SelectLP, SelectRP, ProdP, ConsP, QueryRecvP, SupplyP, FwdP,
    SpawnP, IfP,
)


# ---------------------------------------------------------------------------
# Program files


@record
class ExternDecl:
    name: str
    arg_types: tuple
    ret_type: ValueType
    pos: tuple | None = field(default=None, hidden=True)


@record
class TypeDecl:
    name: str
    body: SessionType
    pos: tuple | None = field(default=None, hidden=True)


@record
class ProcDecl:
    name: str
    params: tuple  # of (var, SessionType)
    offered: SessionType
    body: Process
    pos: tuple | None = field(default=None, hidden=True)


ACCEPT = "accept"  # the final state every automaton has without declaring it


@record
class AutoTransition:
    src: str
    guard_offset: int  # ticks after the automaton entered ``src``
    action: Action  # the instance's channel fills in ``chan``
    dst: str  # a declared state or ACCEPT
    extern: str | None = None  # what a value send reads


@record
class AutomatonDef:
    """A foreign component: its declared states, the initial one, and its
    transitions, each checked against the states when it was parsed.
    ``moves`` groups the transitions by source state, in declaration order;
    it is built with the definition."""

    name: str
    states: tuple
    initial: str
    transitions: tuple  # of AutoTransition
    pos: tuple | None = field(default=None, hidden=True)

    def __post_init__(self):
        moves = {}
        for tr in self.transitions:
            moves.setdefault(tr.src, []).append(tr)
        object.__setattr__(self, "moves", {src: tuple(trs) for src, trs in moves.items()})


@record
class SystemDecl:
    name: str
    entry: str
    bindings: tuple  # of (param, automaton, instance)
    start: TimeExpr
    pos: tuple | None = field(default=None, hidden=True)


@record
class Program:
    sorts: tuple = ()
    externs: tuple = ()
    types: tuple = ()
    procs: tuple = ()
    automata: tuple = ()  # of AutomatonDef
    systems: tuple = ()

    def type_decl(self, name: str) -> TypeDecl | None:
        for d in self.types:
            if d.name == name:
                return d
        return None

    def proc_decl(self, name: str) -> ProcDecl | None:
        for d in self.procs:
            if d.name == name:
                return d
        return None

    def system_decl(self, name: str) -> SystemDecl | None:
        for d in self.systems:
            if d.name == name:
                return d
        return None


# ---------------------------------------------------------------------------
# The connective and process form tables


@record
class Connective:
    """How one connective is exchanged."""

    components: tuple  # field names of the component session types
    kind: str  # message kind: close | chan | label | value (carries a payload sort)
    provider_dir: str  # send | recv: what the provider does with the message


CONNECTIVES = {
    UnitT: Connective((), "close", "send"),
    TensorT: Connective(("left", "right"), "chan", "send"),
    LolliT: Connective(("arg", "cont"), "chan", "recv"),
    IChoiceT: Connective(("left", "right"), "label", "send"),
    EChoiceT: Connective(("left", "right"), "label", "recv"),
    ProduceT: Connective(("cont",), "value", "send"),
    QueryT: Connective(("cont",), "value", "recv"),
}


class Form(namedtuple("Form", "cls keyword head tail conn label var ann "
                              "provides sends uses binds children")):
    """One process form: its class and keyword, its head and tail, the
    connective it exchanges on (None for Fwd, Spawn and if), the label it
    sends, and the fields a ``bind`` tail fills; ``_form`` derives the rest.

    Heads: ``provider`` reads ``<b where P>`` into binder/pred; ``client``
    reads ``<T>(c)`` into at/chan; ``app`` is ``<T>(c <= { P })``, ``spawn``
    ``<T>(f, a, ...)`` and ``if`` ``$ e $``.  Tails, each ending in the last
    child P: ``none``, ``seq`` ``; P``, ``bind`` ``{ x => P }`` (or
    ``{ x : T => P }`` where the class has an ``ann`` field), ``branch``
    ``{ L => P } { R => P }``, ``expr`` ``$ e $; P``, ``block`` ``{ P }; P``,
    ``else`` ``{ P } else { P }``.  ``var`` names the field that holds a
    ``bind`` tail's x, and ``ann`` the field of its annotation, if any.
    Derived: whether it ``provides`` and ``sends``; the field naming the
    channels it ``uses``; the field that ``binds`` a channel over its
    children; and its ``children``, App's payload, then the tail's.
    """

    __slots__ = ()


def _form(cls: type, keyword: str, head: str, tail: str, conn: type | None = None,
          label: str | None = None, var: str = "var", ann: str | None = None) -> Form:
    provides = head == "provider"
    sends = conn is not None and (CONNECTIVES[conn].provider_dir == "send") == provides
    uses = {"client": "chan", "app": "chan", "spawn": "args"}.get(head)
    binds = var if tail == "bind" and (conn is None or CONNECTIVES[conn].kind != "value") else None
    children = {"none": (), "block": ("payload", "cont"), "branch": ("left", "right"),
                "else": ("then", "orelse")}.get(tail, ("cont",))
    return Form(cls, keyword, head, tail, conn, label, var, ann, provides, sends, uses, binds,
                ("payload",) + children if head == "app" else children)


FORMS = {form.cls: form for form in (
    _form(CloseP, "Close", "provider", "none", UnitT),
    _form(WaitP, "Wait", "client", "seq", UnitT),
    _form(LamRecv, "Lam", "provider", "bind", LolliT),
    _form(AppSend, "App", "app", "seq", LolliT),
    _form(PairSend, "SendCh", "provider", "block", TensorT),
    _form(PairRecv, "RecvCh", "client", "bind", TensorT),
    _form(InLP, "SwitchL", "provider", "seq", IChoiceT, "L"),
    _form(InRP, "SwitchR", "provider", "seq", IChoiceT, "R"),
    _form(CaseP, "Case", "client", "branch", IChoiceT),
    _form(OfferP, "Offer", "provider", "branch", EChoiceT),
    _form(SelectLP, "SelectL", "client", "seq", EChoiceT, "L"),
    _form(SelectRP, "SelectR", "client", "seq", EChoiceT, "R"),
    _form(ProdP, "Prod", "provider", "expr", ProduceT),
    _form(ConsP, "Cons", "client", "bind", ProduceT),
    _form(QueryRecvP, "Query", "provider", "bind", QueryT),
    _form(SupplyP, "Supply", "client", "expr", QueryT),
    _form(FwdP, "Fwd", "client", "none"),
    _form(SpawnP, "Spawn", "spawn", "bind", var="bound", ann="bound_type"),
    _form(IfP, "if", "if", "else"),
)}


class ProtocolError(TillstError):
    """An exchange the protocol does not allow; ``window`` is the missed
    window, closed under the earlier binders, when the instant misses it."""

    def __init__(self, reason: str, window: Prop | None = None):
        super().__init__(reason)
        self.window = window


def step(a: SessionType, times: dict, kind: str, label: object,
         instant: int) -> SessionType | None:
    """The component of ``a`` that runs after an exchange of ``kind`` at
    ``instant``: the branch ``label`` picks for a choice, the last component
    for any other connective, None after a close.  Binds ``a.binder`` to
    ``instant`` in ``times``, the instants of the earlier exchanges by
    binder name, so a later binder shadows an earlier one of the same name.
    Raises ``ProtocolError`` when the exchange is not allowed."""
    if isinstance(a, TypeRef):
        raise ProtocolError(f"unresolved type reference {a.name}")
    conn = CONNECTIVES[type(a)]
    if kind != conn.kind:
        raise ProtocolError(f"expected a {conn.kind} exchange, saw {kind}")
    times[a.binder] = instant
    try:
        ok = eval_prop(a.pred, times)
    except NonClosedError:
        raise ProtocolError("window predicate has unbound time variables") from None
    if not ok:
        raise ProtocolError(f"time {render_instant(instant)} outside the window",
                            close(a.pred, times, a.binder))
    if kind == "close":
        return None
    if kind != "label":
        return getattr(a, conn.components[-1])
    if label not in ("L", "R"):
        raise ProtocolError("label exchange without a label")
    return a.left if label == "L" else a.right


@record
class Action:
    """One half of an exchange: the message kind (chan | label | close |
    value), the direction (send | recv), the channel it happens on, and the
    payload: the label, the ``Value`` or the sent channel's name.  A close
    has no payload, nor has a receive whose payload its partner fixes."""

    kind: str
    direction: str
    chan: str
    payload: object = None


class SilentA(Action):
    """The silent action of a solitary fwd, spawn or if step."""

    def __init__(self):
        super().__init__("silent", "silent", "")


# ---------------------------------------------------------------------------
# Session type operations


def components(a: SessionType) -> tuple:
    return tuple(getattr(a, name) for name in CONNECTIVES[type(a)].components)


def require_bound_windows(a: SessionType) -> None:
    """Raise ``UnboundWindowError`` at the first window of the expanded type
    ``a`` that names a variable no enclosing connective binds.  Expansion
    names every binder ``stem#k``, and ``#`` cannot be written in source,
    so such a variable is one whose name has no ``#``."""
    todo = [a]
    while todo:
        ty = todo.pop()
        for atom in atoms(ty.pred):
            for x in (atom.left.var, atom.right.var):
                if x is not None and "#" not in x:
                    raise UnboundWindowError(f"type window {render_prop(ty.pred)} "
                                             f"names unbound time variable {x}")
        todo += components(ty)


def expand_type_refs(prog: Program | None, a: SessionType,
                     names: NameSupply | None = None) -> SessionType:
    """Resolve TypeRef nodes against the program and name every binder
    afresh from ``names`` (a new supply unless one is given).

    Named types splice in textually: a free time variable inside a definition
    is captured by whatever binder is in scope at the use site (that is how
    the surface language lets a continuation type refer to the instant of an
    enclosing exchange).  With ``prog`` None, references stay in place and
    only the binders are renamed.
    """
    return _expand(prog, names or NameSupply(), a, (), {})


def _expand(prog: Program | None, names: NameSupply, ty: SessionType, stack: tuple,
            ren: dict) -> SessionType:
    """``expand_type_refs`` below the type names in ``stack``, with the
    renaming ``ren`` of the binders in scope.  A module-level function, not
    a closure: a nested function that calls itself is a reference cycle,
    which would keep ``prog`` alive until the next garbage collection."""
    # Binders are named in pre-order: a node, its leading components, then
    # the last component, which is walked in this loop.
    pending, ren = [], dict(ren)
    while True:
        if isinstance(ty, TypeRef):
            if prog is None:
                break
            if ty.name in stack:
                cycle = " -> ".join(stack + (ty.name,))
                raise CyclicTypeDefError(f"cyclic type definition: {cycle}")
            decl = prog.type_decl(ty.name)
            if decl is None:
                raise CyclicTypeDefError(f"unknown type name: {ty.name}")
            ty, stack = decl.body, stack + (ty.name,)
            continue
        new = names(ty.binder)
        ren[ty.binder] = tvar(new)
        changes = {"binder": new, "pred": substitute_all(ty.pred, ren)}
        *firsts, last = CONNECTIVES[type(ty)].components or (None,)
        for name in firsts:
            changes[name] = _expand(prog, names, getattr(ty, name), stack, ren)
        pending.append((ty, changes, last))
        if last is None:
            break
        ty = getattr(ty, last)
    for node, changes, last in reversed(pending):
        if last is not None:
            changes[last] = ty
        ty = replace(node, **changes)
    return ty


def alpha_eq_type(a: SessionType, b: SessionType, m: dict | None = None) -> bool:
    """Structural equality up to renaming of time binders, with ``a``'s free
    time variables read through ``m``.  Binders pair up by position: both
    stand for ``#d``, d their depth, a name neither source nor a NameSupply
    can produce."""

    def eq(a, b, ma: dict, mb: dict, depth: int) -> bool:
        if isinstance(a, TypeRef) or isinstance(b, TypeRef):
            return a == b
        if type(a) is not type(b):
            return False
        here = tvar(f"#{depth}")
        ma, mb = {**ma, a.binder: here}, {**mb, b.binder: here}
        if substitute_all(a.pred, ma) != substitute_all(b.pred, mb):
            return False
        if CONNECTIVES[type(a)].kind == "value" and a.payload != b.payload:
            return False
        for x, y in zip(components(a), components(b)):
            if not eq(x, y, ma, mb, depth + 1):
                return False
        return True

    return eq(a, b, m or {}, {}, 0)


# ---------------------------------------------------------------------------
# Process operations

def spawns(p: Process) -> list:
    """The ``SpawnP`` nodes of ``p`` in source order, found through each
    form's children from an explicit stack, so deep terms need no Python
    stack."""
    found, stack = [], [p]
    while stack:
        q = stack.pop()
        if type(q) is SpawnP:
            found.append(q)
        names = FORMS[type(q)].children
        if len(names) == 1:  # most forms: the continuation alone
            stack.append(getattr(q, names[0]))
        else:
            stack.extend([getattr(q, name) for name in names][::-1])
    return found


def free_channel_table(p: Process, table: dict) -> frozenset:
    """The channels ``p`` uses and does not bind, with those of ``p`` and of
    every subterm recorded in ``table`` as ``id(node) -> (node, channels)``,
    so a subterm already recorded is not read again.  A node that adds no channel
    to its only child's set and binds none of it shares that set.  Children
    are read before their parents from an explicit stack, so deep terms need
    no Python stack."""
    known = table.get(id(p))
    if known is not None:
        return known[1]
    stack = [p]
    while stack:
        q = stack[-1]
        if id(q) in table:  # the table holds q, so its id is not reused
            stack.pop()
            continue
        form = FORMS[type(q)]
        kids = [getattr(q, name) for name in form.children]
        missing = [kid for kid in kids if id(kid) not in table]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        own = _own_channels(q, form.uses)
        sets = [table[id(kid)][1] for kid in kids]
        if form.binds is not None:
            bound = getattr(q, form.binds)
            sets = [fc - {bound} if bound in fc else fc for fc in sets]
        if len(sets) == 1 and sets[0].issuperset(own):
            table[id(q)] = (q, sets[0])
        else:
            table[id(q)] = (q, frozenset(own).union(*sets))
    return table[id(p)][1]


def _own_channels(q: Process, uses: str | None) -> tuple:
    return q.args if uses == "args" else (getattr(q, uses),) if uses else ()


def channels_left(p: Process, q: Process, table: dict) -> tuple | None:
    """The channels free in ``p`` and not in ``q``, when every channel free
    in ``q`` is free in ``p`` and the difference can be read off ``p``'s
    node: when the two share their set in ``table`` (see
    ``free_channel_table``), or when ``q`` is ``p``'s only child and ``p``
    binds no channel, so only ``p``'s own channels can be missing from
    ``q``.  None for any other pair."""
    fp, fq = free_channel_table(p, table), free_channel_table(q, table)
    if fp is fq:
        return ()
    form = FORMS[type(p)]
    if form.binds is not None or len(form.children) != 1 or getattr(p, form.children[0]) is not q:
        return None
    return tuple(x for x in _own_channels(p, form.uses) if x not in fq)
