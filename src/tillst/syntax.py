"""Abstract syntax: session types, processes, functional expressions, programs.

Provider forms carry a time binder and predicate; client forms carry a
concrete time expression.  Channel, time and value variables live in separate
namespaces.  ``expand_type_refs`` builds each type once, naming every binder
uniquely; after it, nothing is substituted into a type or a process term.
The checker binds process and type binders through maps to their instants,
and the runtime binds all three kinds of variable through a leaf's
environment.

``CONNECTIVES`` is the one table of connectives: components, message kind,
the provider's direction, and the process forms that provide and use each.
Beside it, ``step`` is the one rule that advances a type along an exchange.
An exchange half is one ``Action`` record, shared by the runtime and by the
transitions of each ``AutomatonDef``, the form the parser reads automata in.

Every node, declaration and program is an immutable ``record``
(``tillst.record``): equal when its class and fields are equal, with the
declarations' source positions left out of equality, hashing and ``repr``.
"""

from __future__ import annotations

import itertools

from .record import field, record, replace
from .temporal import (NonClosedError, Prop, TillstError, TimeExpr, close, eval_prop,
                       render_instant, substitute_all, tvar)


class CyclicTypeDefError(TillstError):
    """Named type definitions form a reference cycle."""


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
    op: str  # + - *
    left: "Expr"
    right: "Expr"


@record
class Cmp:
    op: str  # == != < <= > >=
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
# The connective table


@record
class Connective:
    """How one connective is exchanged, provided and used."""

    components: tuple  # field names of the component session types
    kind: str  # message kind: close | chan | label | value (carries a payload sort)
    provider_dir: str  # send | recv: what the provider does with the message
    providers: tuple  # process forms that provide the connective
    clients: tuple  # process forms that use it


CONNECTIVES = {
    UnitT: Connective((), "close", "send", (CloseP,), (WaitP,)),
    TensorT: Connective(("left", "right"), "chan", "send", (PairSend,), (PairRecv,)),
    LolliT: Connective(("arg", "cont"), "chan", "recv", (LamRecv,), (AppSend,)),
    IChoiceT: Connective(("left", "right"), "label", "send", (InLP, InRP), (CaseP,)),
    EChoiceT: Connective(("left", "right"), "label", "recv", (OfferP,), (SelectLP, SelectRP)),
    ProduceT: Connective(("cont",), "value", "send", (ProdP,), (ConsP,)),
    QueryT: Connective(("cont",), "value", "recv", (QueryRecvP,), (SupplyP,)),
}

# process form -> the connective type it provides / uses
PROVIDES = {form: ty for ty, c in CONNECTIVES.items() for form in c.providers}
USES = {form: ty for ty, c in CONNECTIVES.items() for form in c.clients}
# the label a sending form picks
LABEL = {InLP: "L", InRP: "R", SelectLP: "L", SelectRP: "R"}


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

# Per process form: the field naming the channel(s) it uses, the field that
# binds a channel over its children, and its child processes.
_PROC_FIELDS = {
    CloseP: (None, None, ()),
    WaitP: ("chan", None, ("cont",)),
    LamRecv: (None, "var", ("cont",)),
    AppSend: ("chan", None, ("payload", "cont")),
    PairSend: (None, None, ("payload", "cont")),
    PairRecv: ("chan", "var", ("cont",)),
    InLP: (None, None, ("cont",)),
    InRP: (None, None, ("cont",)),
    CaseP: ("chan", None, ("left", "right")),
    OfferP: (None, None, ("left", "right")),
    SelectLP: ("chan", None, ("cont",)),
    SelectRP: ("chan", None, ("cont",)),
    ProdP: (None, None, ("cont",)),
    ConsP: ("chan", None, ("cont",)),
    QueryRecvP: (None, None, ("cont",)),
    SupplyP: ("chan", None, ("cont",)),
    FwdP: ("chan", None, ()),
    SpawnP: ("args", "bound", ("cont",)),
    IfP: (None, None, ("then", "orelse")),
}


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
        uses, binder, children = _PROC_FIELDS[type(q)]
        kids = [getattr(q, name) for name in children]
        missing = [kid for kid in kids if id(kid) not in table]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        own = _own_channels(q, uses)
        sets = [table[id(kid)][1] for kid in kids]
        if binder is not None:
            bound = getattr(q, binder)
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
    uses, binder, children = _PROC_FIELDS[type(p)]
    if binder is not None or len(children) != 1 or getattr(p, children[0]) is not q:
        return None
    return tuple(x for x in _own_channels(p, uses) if x not in fq)
