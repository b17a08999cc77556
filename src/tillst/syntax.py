"""Abstract syntax: session types, processes, functional expressions, programs.

Provider forms carry a time binder and predicate; client forms carry a
concrete time expression.  Channel, time and value variables live in separate
namespaces.  Only channel names are ever substituted into process terms: the
checker binds time binders through a map to solver variables, the runtime
through an environment of fired instants and received values.  Types are
substituted into; ``expand_type_refs`` names every binder of a type uniquely,
so those substitutions cannot capture.

``CONNECTIVES`` is the one table of connectives: components, message kind,
the provider's direction, and the process forms that provide and use each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from .temporal import Prop, TimeExpr, substitute, substitute_all, tvar


class CyclicTypeDefError(Exception):
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


@dataclass(frozen=True)
class BoolType:
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class IntType:
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class NamedType:
    name: str

    def __str__(self) -> str:
        return self.name


ValueType = Union[BoolType, IntType, NamedType]

BOOL = BoolType()
INT = IntType()


# ---------------------------------------------------------------------------
# Session types.  The binder scopes over the predicate and every component.


@dataclass(frozen=True)
class UnitT:
    binder: str
    pred: Prop


@dataclass(frozen=True)
class TensorT:
    binder: str
    pred: Prop
    left: "SessionType"
    right: "SessionType"


@dataclass(frozen=True)
class LolliT:
    binder: str
    pred: Prop
    arg: "SessionType"
    cont: "SessionType"


@dataclass(frozen=True)
class IChoiceT:
    binder: str
    pred: Prop
    left: "SessionType"
    right: "SessionType"


@dataclass(frozen=True)
class EChoiceT:
    binder: str
    pred: Prop
    left: "SessionType"
    right: "SessionType"


@dataclass(frozen=True)
class ProduceT:
    binder: str
    pred: Prop
    payload: ValueType
    cont: "SessionType"


@dataclass(frozen=True)
class QueryT:
    binder: str
    pred: Prop
    payload: ValueType
    cont: "SessionType"


@dataclass(frozen=True)
class TypeRef:
    name: str


SessionType = Union[UnitT, TensorT, LolliT, IChoiceT, EChoiceT, ProduceT, QueryT, TypeRef]


# ---------------------------------------------------------------------------
# Functional expressions


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class VarE:
    name: str


@dataclass(frozen=True)
class Arith:
    op: str  # + - *
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Cmp:
    op: str  # == != < <= > >=
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class IfE:
    cond: "Expr"
    then: "Expr"
    orelse: "Expr"


@dataclass(frozen=True)
class CallE:
    name: str
    args: tuple


Expr = Union[BoolLit, IntLit, VarE, Arith, Cmp, IfE, CallE]


# ---------------------------------------------------------------------------
# Process terms


@dataclass(frozen=True)
class CloseP:
    binder: str
    pred: Prop


@dataclass(frozen=True)
class WaitP:
    at: TimeExpr
    chan: str
    cont: "Process"


@dataclass(frozen=True)
class LamRecv:
    binder: str
    pred: Prop
    var: str
    cont: "Process"


@dataclass(frozen=True)
class AppSend:
    chan: str
    at: TimeExpr
    payload: "Process"
    cont: "Process"


@dataclass(frozen=True)
class PairSend:
    binder: str
    pred: Prop
    payload: "Process"
    cont: "Process"


@dataclass(frozen=True)
class PairRecv:
    chan: str
    at: TimeExpr
    var: str
    cont: "Process"


@dataclass(frozen=True)
class InLP:
    binder: str
    pred: Prop
    cont: "Process"


@dataclass(frozen=True)
class InRP:
    binder: str
    pred: Prop
    cont: "Process"


@dataclass(frozen=True)
class CaseP:
    at: TimeExpr
    chan: str
    left: "Process"
    right: "Process"


@dataclass(frozen=True)
class OfferP:
    binder: str
    pred: Prop
    left: "Process"
    right: "Process"


@dataclass(frozen=True)
class SelectLP:
    chan: str
    at: TimeExpr
    cont: "Process"


@dataclass(frozen=True)
class SelectRP:
    chan: str
    at: TimeExpr
    cont: "Process"


@dataclass(frozen=True)
class ProdP:
    binder: str
    pred: Prop
    expr: Expr
    cont: "Process"


@dataclass(frozen=True)
class ConsP:
    chan: str
    at: TimeExpr
    var: str
    cont: "Process"


@dataclass(frozen=True)
class QueryRecvP:
    binder: str
    pred: Prop
    var: str
    cont: "Process"


@dataclass(frozen=True)
class SupplyP:
    chan: str
    at: TimeExpr
    expr: Expr
    cont: "Process"


@dataclass(frozen=True)
class FwdP:
    at: TimeExpr
    chan: str


@dataclass(frozen=True)
class SpawnP:
    at: TimeExpr
    callee: str
    args: tuple
    bound: str
    cont: "Process"
    bound_type: Optional[SessionType] = None


@dataclass(frozen=True)
class IfP:
    # Data-dependent branch; both arms must check at the same judgment.
    cond: Expr
    then: "Process"
    orelse: "Process"


Process = Union[
    CloseP, WaitP, LamRecv, AppSend, PairSend, PairRecv, InLP, InRP, CaseP,
    OfferP, SelectLP, SelectRP, ProdP, ConsP, QueryRecvP, SupplyP, FwdP,
    SpawnP, IfP,
]


# ---------------------------------------------------------------------------
# Program files


@dataclass(frozen=True)
class ExternDecl:
    name: str
    arg_types: tuple
    ret_type: ValueType
    pos: Optional[tuple] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class TypeDecl:
    name: str
    body: SessionType
    pos: Optional[tuple] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ProcDecl:
    name: str
    params: tuple  # of (var, SessionType)
    offered: SessionType
    body: Process
    pos: Optional[tuple] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class AutoTransitionDecl:
    src: str
    guard_offset: int
    action: str  # surface spelling, e.g. "?L", "!val(read_gas)", "!cls"
    dst: str  # state name or "accept"


@dataclass(frozen=True)
class AutomatonDecl:
    name: str
    states: tuple
    initial: str
    transitions: tuple  # of AutoTransitionDecl
    pos: Optional[tuple] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SystemDecl:
    name: str
    entry: str
    bindings: tuple  # of (param, automaton, instance)
    start: TimeExpr
    pos: Optional[tuple] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Program:
    sorts: tuple = ()
    externs: tuple = ()
    types: tuple = ()
    procs: tuple = ()
    automata: tuple = ()
    systems: tuple = ()

    def type_decl(self, name: str) -> Optional[TypeDecl]:
        for d in self.types:
            if d.name == name:
                return d
        return None

    def proc_decl(self, name: str) -> Optional[ProcDecl]:
        for d in self.procs:
            if d.name == name:
                return d
        return None

    def extern_decl(self, name: str) -> Optional[ExternDecl]:
        for d in self.externs:
            if d.name == name:
                return d
        return None

    def system_decl(self, name: str) -> Optional[SystemDecl]:
        for d in self.systems:
            if d.name == name:
                return d
        return None


# ---------------------------------------------------------------------------
# The connective table


@dataclass(frozen=True)
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


def _rebuild(node, **changes):
    return type(node)(**{**vars(node), **changes})


# ---------------------------------------------------------------------------
# Session type operations


def components(a: SessionType) -> tuple:
    return tuple(getattr(a, name) for name in CONNECTIVES[type(a)].components)


def _map_components(a: SessionType, f, *args) -> dict:
    # a plain loop: one stack frame per level, as deep types need
    out = {}
    for name in CONNECTIVES[type(a)].components:
        out[name] = f(getattr(a, name), *args)
    return out


def subst_time_in_type(a: SessionType, name: str, e: TimeExpr) -> SessionType:
    """[e/name]A; a binder named ``name`` shadows it.  Nothing is renamed:
    the caller keeps e's variable from being bound inside A, as it is once
    expand_type_refs has named every binder uniquely."""
    if isinstance(a, TypeRef) or a.binder == name:
        return a
    return _rebuild(a, pred=substitute(a.pred, name, e),
                    **_map_components(a, subst_time_in_type, name, e))


def expand_type_refs(prog: Optional[Program], a: SessionType,
                     names: Optional[NameSupply] = None) -> SessionType:
    """Resolve TypeRef nodes against the program and name every binder
    afresh from ``names`` (a new supply unless one is given).

    Named types splice in textually: a free time variable inside a definition
    is captured by whatever binder is in scope at the use site (that is how
    the surface language lets a continuation type refer to the instant of an
    enclosing exchange).  With ``prog`` None, references stay in place and
    only the binders are renamed.
    """
    names = names or NameSupply()

    def walk(ty: SessionType, stack: tuple, ren: dict) -> SessionType:
        # Binders are named in pre-order: a node, its leading components,
        # then the last component, which is walked in this loop.
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
                changes[name] = walk(getattr(ty, name), stack, ren)
            pending.append((ty, changes, last))
            if last is None:
                break
            ty = getattr(ty, last)
        for node, changes, last in reversed(pending):
            if last is not None:
                changes[last] = ty
            ty = _rebuild(node, **changes)
        return ty

    return walk(a, (), {})


def urgency_instantiate(a: SessionType, at: TimeExpr) -> tuple:
    """The components of ``a`` with its top binder instantiated to ``at``."""
    if isinstance(a, TypeRef):
        raise ValueError("urgency instantiation needs a TypeRef-free type")
    return tuple(subst_time_in_type(c, a.binder, at) for c in components(a))


def alpha_eq_type(a: SessionType, b: SessionType) -> bool:
    """Structural equality up to renaming of time binders.  Binders pair up
    by position: both stand for ``#d``, d their depth, a name neither source
    nor a NameSupply can produce."""

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

    return eq(a, b, {}, {}, 0)


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


def free_channels(p: Process) -> set:
    uses, binder, children = _PROC_FIELDS[type(p)]
    out = set()
    for name in children:
        out |= free_channels(getattr(p, name))
    if binder is not None:
        out.discard(getattr(p, binder))
    if uses == "args":
        out.update(p.args)
    elif uses is not None:
        out.add(getattr(p, uses))
    return out


def subst_chan(p: Process, m, a: Optional[str] = None) -> Process:
    """[m]P: rename free channels by the mapping ``m``, all in one pass
    (``subst_chan(p, x, a)`` is [a/x]P).  A channel binder that would capture
    a replacement becomes ``stem#k``, k the least for which that name is
    neither free in its scope nor a replacement."""
    if a is not None:
        m = {m: a}
    if not m:
        return p
    uses, binder, children = _PROC_FIELDS[type(p)]
    changes, inner = {}, m
    if binder is not None:
        bound = getattr(p, binder)
        inner = {x: c for x, c in m.items() if x != bound}
        if bound in inner.values():
            taken = set(inner.values()).union(
                *(free_channels(getattr(p, name)) for name in children))
            stem, k = bound.split("#")[0], 1
            while f"{stem}#{k}" in taken:
                k += 1
            changes[binder] = inner[bound] = f"{stem}#{k}"
    for name in children:
        changes[name] = subst_chan(getattr(p, name), inner)
    if uses == "args":
        changes["args"] = tuple(m.get(c, c) for c in p.args)
    elif uses is not None:
        changes[uses] = m.get(getattr(p, uses), getattr(p, uses))
    return _rebuild(p, **changes)
