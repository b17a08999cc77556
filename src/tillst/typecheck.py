"""Refinement type checker: the judgment G;F | Gamma;Delta |- P :: A @ T.

``Checker.check_process`` is one loop over a stack of pending judgments.
Each rule checks its own premises and returns the judgments of its subterms,
which the loop checks depth-first in order, so a protocol's depth costs no
Python stack.  A spawn also returns a step that runs after the callee's body:
the cut retyping, then the continuation.

Every exchange goes through one rule.  A provider binds the communication
instant to its type's binder and pushes the window into F; a client fixes a
concrete instant that must be reachable (T <= T') and land inside the
provider's window (p(T')).  The connective's message kind and whether this
side sends (the key ``runtime`` steps by) then pick the premises on the
continuation.  Forwarding and spawning go through the forward/cut retyping
relations, which compare temporal windows by entailment with the connective
structure held fixed (the lolli argument is contravariant).  Every temporal
premise is discharged by the solver, and every query is recorded so it can
be exported as SMT-LIB2.

Binders are never substituted into process terms.  Types are expanded with
uniquely named binders, and each type binder is itself the solver variable
for its instant; the judgment carries a map from the process's time binders
to those variables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import syntax as s
from . import temporal as t
from .parser import render_prop, render_type

TIMING_VIOLATION = "TimingViolation"
PREDICATE_UNSATISFIED = "PredicateUnsatisfied"
LINEARITY_VIOLATION = "LinearityViolation"
SHAPE_MISMATCH = "ShapeMismatch"
RETYPE_FAILURE = "RetypeFailure"
EXPR_TYPE_ERROR = "ExprTypeError"


@dataclass
class TypingError:
    kind: str
    location: str
    judgment: str
    counterexample: Optional[dict] = None

    def render(self) -> str:
        msg = f"{self.kind} at {self.location}: {self.judgment}"
        if self.counterexample is not None:
            binding = ", ".join(
                f"{k} = t0{v:+d}" for k, v in sorted(self.counterexample.items()))
            msg += f" [counterexample: {binding or 'empty assignment'}]"
        return msg


class TypeCheckError(Exception):
    def __init__(self, error: TypingError):
        self.error = error
        super().__init__(error.render())


@dataclass
class QueryRecord:
    g: tuple
    f: tuple
    prop: t.Prop
    holds: bool
    location: str
    seconds: float  # wall time of the query


class EntailmentSolver:
    """Entailment backend with a query log for SMT export.

    The internal backend is total and produces counterexample assignments;
    the external backend shells out to an SMT-LIB2 solver binary.
    """

    def __init__(self, backend: str = "internal", solver_bin: Optional[str] = None,
                 timeout_ms: int = 5000):
        self.backend = backend
        self.solver_bin = solver_bin
        self.timeout_ms = timeout_ms
        self.queries: list = []

    def holds(self, g, f, p, location: str) -> tuple:
        g = tuple(g)
        f = tuple(f)
        start = time.perf_counter()
        if self.backend == "external":
            verdict = t.entails_external(g, f, p, self.solver_bin, self.timeout_ms)
            cex = None
        else:
            verdict, cex = t.entails_cex(g, f, p)
        seconds = time.perf_counter() - start
        self.queries.append(QueryRecord(g, f, p, verdict, location, seconds))
        return verdict, cex


def _render_judgment(g, f, p) -> str:
    ctx = ", ".join(g) or "."
    hyp = ", ".join(render_prop(q) for q in f) or "."
    return f"{ctx}; {hyp} |- {render_prop(p)}"


# ---------------------------------------------------------------------------
# Functional layer


def check_expr(gamma: dict, e: s.Expr, externs: dict, location: str = "") -> s.ValueType:
    def err(msg: str):
        raise TypeCheckError(TypingError(EXPR_TYPE_ERROR, location, msg))

    if isinstance(e, s.BoolLit):
        return s.BOOL
    if isinstance(e, s.IntLit):
        return s.INT
    if isinstance(e, s.VarE):
        if e.name not in gamma:
            err(f"unbound value variable {e.name}")
        return gamma[e.name]
    if isinstance(e, s.Arith):
        for side in (e.left, e.right):
            if check_expr(gamma, side, externs, location) != s.INT:
                err(f"arithmetic on non-integer operand in {e.op}")
        return s.INT
    if isinstance(e, s.Cmp):
        lt = check_expr(gamma, e.left, externs, location)
        rt = check_expr(gamma, e.right, externs, location)
        if lt != rt:
            err(f"comparison {e.op} between {lt} and {rt}")
        if e.op not in ("==", "!=") and lt != s.INT:
            err(f"ordering {e.op} on non-integer sort {lt}")
        return s.BOOL
    if isinstance(e, s.IfE):
        if check_expr(gamma, e.cond, externs, location) != s.BOOL:
            err("if condition is not bool")
        then = check_expr(gamma, e.then, externs, location)
        orelse = check_expr(gamma, e.orelse, externs, location)
        if then != orelse:
            err(f"if branches disagree: {then} vs {orelse}")
        return then
    # CallE
    sig = externs.get(e.name)
    if sig is None:
        err(f"call to undeclared extern {e.name}")
    arg_types, ret = sig
    if len(arg_types) != len(e.args):
        err(f"extern {e.name} expects {len(arg_types)} arguments, got {len(e.args)}")
    for i, (want, arg) in enumerate(zip(arg_types, e.args)):
        got = check_expr(gamma, arg, externs, location)
        if got != want:
            err(f"extern {e.name} argument {i + 1}: expected {want}, got {got}")
    return ret


# ---------------------------------------------------------------------------
# Retyping relations


def _close(a, m: dict):
    """Type ``a`` with its free time variables replaced as ``m`` says."""
    for name, e in m.items():
        a = s.subst_time_in_type(a, name, e)
    return a


def _retype(solver: EntailmentSolver, g, f, a, b, at, location: str,
            cut: bool, ma=None, mb=None) -> tuple:
    """Shared engine for forward and cut retyping.

    Returns (ok, reason).  Cut retyping adds T <= t to the hypotheses instead
    of requiring it as a separate premise.  Binders pair up: b's binder is
    the solver variable for both instants, and ``ma``/``mb`` map the binders
    of the enclosing connectives on each side to their variables.
    """
    ma, mb = ma or {}, mb or {}
    if type(a) is not type(b) or isinstance(a, s.TypeRef):
        return False, (f"connective mismatch: {render_type(_close(a, ma))} "
                       f"vs {render_type(_close(b, mb))}")
    u = t.tvar(b.binder)
    ma, mb = {**ma, a.binder: u}, {**mb, b.binder: u}
    a_pred, b_pred = t.substitute_all(a.pred, ma), t.substitute_all(b.pred, mb)
    g2 = list(g) + [b.binder]
    hyp = list(f) + ([t.Leq(at, u)] if cut else []) + [b_pred]
    ok, _ = solver.holds(g2, hyp, a_pred, location)
    if not ok:
        return False, f"window not covered: {_render_judgment(g2, hyp, a_pred)}"
    if not cut:
        reach = t.Leq(at, u)
        ok, _ = solver.holds(g2, hyp, reach, location)
        if not ok:
            return False, f"unreachable instant: {_render_judgment(g2, hyp, reach)}"
    if isinstance(a, s.LolliT):  # the argument is contravariant
        pairs = [(b.arg, a.arg, mb, ma), (a.cont, b.cont, ma, mb)]
    else:
        if isinstance(a, (s.ProduceT, s.QueryT)) and a.payload != b.payload:
            return False, f"payload sort mismatch: {a.payload} vs {b.payload}"
        pairs = [(x, y, ma, mb) for x, y in zip(s.components(a), s.components(b))]
    for sub_a, sub_b, m_a, m_b in pairs:
        ok, reason = _retype(solver, g2, hyp, sub_a, sub_b, u, location, cut, m_a, m_b)
        if not ok:
            return False, reason
    return True, ""


def fwd_retype(g, f, a, b, at, solver: Optional[EntailmentSolver] = None,
               location: str = "fwd") -> bool:
    """A can be forwarded as B at time ``at`` (all of B's window reachable)."""
    names = s.NameSupply()
    a, b = (s.expand_type_refs(None, x, names) for x in (a, b))
    return _retype(solver or EntailmentSolver(), g, f, a, b, at, location, cut=False)[0]


def cut_retype(g, f, a, b, at, solver: Optional[EntailmentSolver] = None,
               location: str = "cut") -> bool:
    """A covers the parts of B reachable from time ``at`` (cut permission)."""
    names = s.NameSupply()
    a, b = (s.expand_type_refs(None, x, names) for x in (a, b))
    return _retype(solver or EntailmentSolver(), g, f, a, b, at, location, cut=True)[0]


# ---------------------------------------------------------------------------
# Linear context handling


def split_context(delta: dict, p1: s.Process, p2: s.Process,
                  location: str = "split") -> tuple:
    """Split Delta by free channels; any overlap or leftover is a linearity bug."""
    fc1 = s.free_channels(p1)
    fc2 = s.free_channels(p2)
    both = fc1 & fc2 & set(delta)
    if both:
        name = sorted(both)[0]
        raise TypeCheckError(TypingError(
            LINEARITY_VIOLATION, location, f"channel {name} used in both branches"))
    left = {x: a for x, a in delta.items() if x in fc1}
    right = {x: a for x, a in delta.items() if x in fc2}
    missing = set(delta) - set(left) - set(right)
    if missing:
        name = sorted(missing)[0]
        raise TypeCheckError(TypingError(
            LINEARITY_VIOLATION, location, f"channel {name} is never used"))
    return left, right


# ---------------------------------------------------------------------------
# Process typing


class Judgment(NamedTuple):
    """A pending G;F | Gamma;Delta |- p :: a @ at.  ``tm`` maps the time
    binders in scope in ``p`` to their instants, ``location`` is the
    parent's, and ``spawns`` names the procs whose bodies enclose ``p``."""

    g: list
    f: list
    gamma: dict
    delta: dict
    tm: dict
    p: s.Process
    at: t.TimeExpr
    a: s.SessionType
    location: str
    spawns: tuple = ()


class Checker:
    def __init__(self, prog: s.Program, solver: Optional[EntailmentSolver] = None):
        self.prog = prog
        self.solver = solver or EntailmentSolver()
        self.externs = {d.name: (tuple(d.arg_types), d.ret_type) for d in prog.externs}
        self.names = s.NameSupply()
        self.rules = {s.FwdP: self._fwd, s.SpawnP: self._spawn, s.IfP: self._if}

    def expand(self, a):
        return s.expand_type_refs(self.prog, a, self.names)

    # -- premise helpers -----------------------------------------------------

    def _require(self, g, f, p, kind: str, location: str, what: str) -> None:
        ok, cex = self.solver.holds(g, f, p, location)
        if not ok:
            raise TypeCheckError(TypingError(
                kind, location, f"{what}: {_render_judgment(g, f, p)}", cex))

    # -- main judgment -------------------------------------------------------

    def check_process(self, g, f, gamma, delta, tm, p, at, a, location="") -> None:
        """G;F | Gamma;Delta |- p :: a @ at, raising TypingError on failure.
        ``tm`` maps the time binders in scope in ``p`` to their instants."""
        pending = [Judgment(g, f, gamma, delta, tm, p, at, a, location)]
        while pending:
            item = pending.pop()
            if callable(item):
                premises = item()
            else:
                loc = f"{item.location}/{type(item.p).__name__}"
                premises = self.rules.get(type(item.p), self._exchange)(item, loc)
            pending.extend(reversed(premises))

    def _if(self, j: Judgment, loc: str) -> list:
        cond = check_expr(j.gamma, j.p.cond, self.externs, loc)
        if cond != s.BOOL:
            raise TypeCheckError(TypingError(
                EXPR_TYPE_ERROR, loc, f"if condition has sort {cond}, not bool"))
        return [j._replace(p=j.p.then, location=loc + "/then"),
                j._replace(p=j.p.orelse, location=loc + "/else")]

    def _fwd(self, j: Judgment, loc: str) -> list:
        p, delta = j.p, j.delta
        if set(delta) != {p.chan}:
            extra = sorted(set(delta) - {p.chan}) or ["<empty>"]
            raise TypeCheckError(TypingError(
                LINEARITY_VIOLATION, loc,
                f"forward must own exactly its source channel; leftover: {extra[0]}"))
        when = t.subst_time(p.at, j.tm)
        self._require(j.g, j.f, t.Eq(j.at, when), TIMING_VIOLATION, loc,
                      "forward annotation differs from judgment time")
        ok, reason = _retype(self.solver, j.g, j.f, delta[p.chan], j.a, when, loc, cut=False)
        if not ok:
            raise TypeCheckError(TypingError(RETYPE_FAILURE, loc, reason))
        return []

    def _spawn(self, j: Judgment, loc: str) -> list:
        """The callee's body, re-checked at the spawn-site time (declared
        signatures are established at t0 and do not transport to later
        instants), then a step that retypes its channel and goes on."""
        p, delta = j.p, j.delta
        decl = self.prog.proc_decl(p.callee)
        if decl is None:
            raise TypeCheckError(TypingError(
                SHAPE_MISMATCH, loc, f"spawn of undeclared proc {p.callee}"))
        if p.callee in j.spawns:
            raise TypeCheckError(TypingError(
                SHAPE_MISMATCH, loc,
                f"recursive spawn chain through {p.callee} is not supported"))
        if len(p.args) != len(decl.params):
            raise TypeCheckError(TypingError(
                SHAPE_MISMATCH, loc,
                f"{p.callee} takes {len(decl.params)} channel arguments, got {len(p.args)}"))
        when = t.subst_time(p.at, j.tm)
        self._require(j.g, j.f, t.Eq(j.at, when), TIMING_VIOLATION, loc,
                      "spawn annotation differs from judgment time")
        for arg in p.args:
            if arg not in delta:
                raise TypeCheckError(TypingError(
                    LINEARITY_VIOLATION, loc, f"spawn argument {arg} is not available"))
        # Arguments are passed verbatim: alpha-equal types required.
        delta1 = {}
        for arg, (param, want) in zip(p.args, decl.params):
            want = self.expand(want)
            if not s.alpha_eq_type(delta[arg], want):
                raise TypeCheckError(TypingError(
                    SHAPE_MISMATCH, loc,
                    f"spawn argument {arg} has type {render_type(delta[arg])}, "
                    f"but {p.callee} expects {render_type(want)}"))
            delta1[param] = delta[arg]
        offered = self.expand(decl.offered)

        def cut() -> list:
            bound = offered if p.bound_type is None else self.expand(p.bound_type)
            ok, reason = _retype(self.solver, j.g, j.f, offered, bound, when, loc, cut=True)
            if not ok:
                raise TypeCheckError(TypingError(RETYPE_FAILURE, loc, reason))
            rest = {x: b for x, b in delta.items() if x not in p.args}
            rest[p.bound] = bound
            return [j._replace(delta=rest, p=p.cont, at=when, location=loc)]

        body = Judgment(j.g, j.f, j.gamma, delta1, {}, decl.body, when, offered,
                        f"{loc}/{p.callee}", j.spawns + (p.callee,))
        return [body, cut]

    def _exchange(self, j: Judgment, loc: str) -> list:
        """One rule for both sides of every connective.  A provider advances
        the type it offers, at its own binder, whose window must be the
        term's (both entailment directions); a client advances its channel's
        type, at its annotation, which must be reachable and in the window.
        The message kind and whether this side sends pick the premises."""
        p, provider = j.p, type(j.p) in s.PROVIDES
        if provider:
            ty, ctx = j.a, j.delta
        elif p.chan not in j.delta:
            raise TypeCheckError(TypingError(
                LINEARITY_VIOLATION, loc, f"channel {p.chan} is not available"))
        else:
            ty = j.delta[p.chan]
            ctx = {x: c for x, c in j.delta.items() if x != p.chan}
        form = (s.PROVIDES if provider else s.USES)[type(p)]
        if not isinstance(ty, form):
            want = ty.name if isinstance(ty, s.TypeRef) else render_type(ty)
            raise TypeCheckError(TypingError(
                SHAPE_MISMATCH, loc,
                f"process form {type(p).__name__} cannot provide or use {want}"))
        conn = s.CONNECTIVES[form]
        kind, sends = conn.kind, (conn.provider_dir == "send") == provider
        if kind == "close" and sends and ctx:
            raise TypeCheckError(TypingError(
                LINEARITY_VIOLATION, loc, f"channel {sorted(ctx)[0]} unused at close"))
        g, f, tm = j.g, j.f, j.tm
        if provider:
            now = t.tvar(ty.binder)
            tm = {**tm, p.binder: now}
            term_pred = t.substitute_all(p.pred, tm)
            g = list(g) + [ty.binder]
            self._require(g, list(f) + [ty.pred], term_pred, PREDICATE_UNSATISFIED, loc,
                          "type window not honored by term predicate")
            self._require(g, list(f) + [term_pred], ty.pred, PREDICATE_UNSATISFIED, loc,
                          "term predicate exceeds the type window")
            f = list(f) + [ty.pred]
            self._require(g, f, t.Leq(j.at, now), TIMING_VIOLATION, loc,
                          "provider is too late for its window")
            comps = s.components(ty)
        else:
            now = t.subst_time(p.at, tm)
            self._require(g, f, t.Leq(j.at, now), TIMING_VIOLATION, loc,
                          "client instant precedes the current time")
            self._require(g, f, t.substitute(ty.pred, ty.binder, now), TIMING_VIOLATION, loc,
                          "client instant misses the provider window")
            comps = s.urgency_instantiate(ty, now)

        def judge(q, d, a, where=loc, gamma=j.gamma) -> Judgment:
            return Judgment(g, f, gamma, d, tm, q, now, a, where, j.spawns)

        def on(q, c, d=ctx, **kw) -> Judgment:
            """q goes on with the exchanged channel at type c."""
            return judge(q, d, c, **kw) if provider else judge(q, {**d, p.chan: c}, j.a, **kw)

        if kind == "close":
            return [] if sends else [judge(p.cont, ctx, j.a)]
        if kind == "chan" and sends:
            d1, d2 = split_context(ctx, p.payload, p.cont, loc)
            # a client's payload is located under /payload
            return [judge(p.payload, d1, comps[0], loc if provider else loc + "/payload"),
                    on(p.cont, comps[1], d2)]
        if kind == "chan":
            return [on(p.cont, comps[1], {**ctx, p.var: comps[0]})]
        if kind == "label" and sends:
            return [on(p.cont, comps["LR".index(s.LABEL[type(p)])])]
        if kind == "label":
            return [on(p.left, comps[0], where=loc + "/L"),
                    on(p.right, comps[1], where=loc + "/R")]
        if sends:
            got = check_expr(j.gamma, p.expr, self.externs, loc)
            if got != ty.payload:
                what, whose = ("produced", "type") if provider else ("supplied", "channel")
                raise TypeCheckError(TypingError(
                    EXPR_TYPE_ERROR, loc,
                    f"{what} value has sort {got}, {whose} wants {ty.payload}"))
            return [on(p.cont, comps[0])]
        return [on(p.cont, comps[0], gamma={**j.gamma, p.var: ty.payload})]


@dataclass
class DeclReport:
    name: str
    accepted: bool
    error: Optional[TypingError] = None

    def render(self) -> str:
        if self.accepted:
            return f"ACCEPT {self.name}"
        return f"REJECT {self.name}: {self.error.render()}"


def check_process(g, f, gamma, delta, p, at, a,
                  prog: Optional[s.Program] = None,
                  solver: Optional[EntailmentSolver] = None) -> Optional[TypingError]:
    """Standalone judgment check; returns None on success."""
    checker = Checker(prog or s.Program(), solver)
    norm = lambda ty: s.expand_type_refs(None, ty, checker.names)
    try:
        checker.check_process(list(g), list(f), dict(gamma),
                              {x: norm(b) for x, b in delta.items()}, {}, p, at, norm(a))
        return None
    except TypeCheckError as exc:
        return exc.error


def check_program(prog: s.Program,
                  solver: Optional[EntailmentSolver] = None) -> list:
    """Check every proc declaration at time t0 with its params as Delta."""
    checker = Checker(prog, solver)
    reports = []
    for decl in prog.procs:
        location = decl.name
        try:
            delta = {v: checker.expand(a) for v, a in decl.params}
            offered = checker.expand(decl.offered)
            checker.check_process([], [], {}, delta, {}, decl.body, t.INIT, offered,
                                  location)
            reports.append(DeclReport(decl.name, True))
        except TypeCheckError as exc:
            reports.append(DeclReport(decl.name, False, exc.error))
        except s.CyclicTypeDefError as exc:
            reports.append(DeclReport(decl.name, False, TypingError(
                SHAPE_MISMATCH, location, str(exc))))
    return reports
