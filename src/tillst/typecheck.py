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
premise is discharged by the solver; a ``LoggingSolver`` also records every
query, so that ``tillst smt`` can export it as SMT-LIB2.

Nothing is substituted into a process term or a type.  Types are expanded
with uniquely named binders, and a provider's type binder is itself the
solver variable for its instant.  The judgment carries two maps: from the
process's time binders to those variables, and from each type binder a
client exchange fixed to that exchange's instant, through which every type
is read.  A type window, term predicate or annotation that names a time
variable no binder in scope binds is rejected, as no instant is known for
it at run time.

A judgment owns its maps (Gamma, Delta and those two), since each is
checked once and depth-first.  A rule with one premise changes them in
place and hands them on, so an exchange costs nothing per channel in
Delta.  A rule with two premises gives the first one copies, as that one
is checked before the second, which gets the originals; ``check_process``
copies its arguments once, so a caller's dicts never change.  A location
is a path, ``(parent, step)`` down from the declaration's name, rendered
only by a ``TypingError`` and by ``QueryRecord.location``.
"""

from __future__ import annotations

import time
from collections import namedtuple

from . import syntax as s
from . import temporal as t
from .parser import render_type
from .record import record

TIMING_VIOLATION = "TimingViolation"
PREDICATE_UNSATISFIED = "PredicateUnsatisfied"
LINEARITY_VIOLATION = "LinearityViolation"
SHAPE_MISMATCH = "ShapeMismatch"
RETYPE_FAILURE = "RetypeFailure"
EXPR_TYPE_ERROR = "ExprTypeError"


def _render_location(loc) -> str:
    """A location path, ``(parent, step)`` pairs down from a root string,
    as ``root/step/.../step``; a string is its own rendering."""
    steps = []
    while type(loc) is tuple:
        loc, step = loc
        steps.append(step)
    steps.append(loc)
    return "/".join(reversed(steps))


@record
class TypingError:
    """A rejected judgment.  ``location`` may be given as a path; it is
    kept rendered."""

    kind: str
    location: str
    judgment: str
    counterexample: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "location", _render_location(self.location))

    def render(self) -> str:
        msg = f"{self.kind} at {self.location}: {self.judgment}"
        if self.counterexample is not None:
            binding = ", ".join(
                f"{k} = {t.render_instant(v)}" for k, v in sorted(self.counterexample.items()))
            msg += f" [counterexample: {binding or 'empty assignment'}]"
        return msg


class TypeCheckError(Exception):
    def __init__(self, error: TypingError):
        self.error = error
        super().__init__(error.render())


class QueryRecord(namedtuple("QueryRecord", "g f prop holds path seconds")):
    """One entailment query and its verdict: G, F and the goal, whether it
    holds, the location as the checker passed it (``path``), and the
    query's wall time in seconds.  A tuple, not a ``record``: one is built
    per query, and a record's ``__init__`` costs more."""

    __slots__ = ()

    @property
    def location(self) -> str:
        return _render_location(self.path)


class EntailmentSolver:
    """Entailment backend.

    The internal backend is total and produces counterexample assignments;
    the external backend shells out to an SMT-LIB2 solver binary.  Every
    hypothesis list is a cell below ``root``, so the internal backend
    answers each query on top of the checked prefix it shares with the
    query before.  It keeps no record of the queries (see
    ``LoggingSolver``).
    """

    def __init__(self, backend: str = "internal", solver_bin: str | None = None,
                 timeout_ms: int = 5000):
        self.backend = backend
        self.solver_bin = solver_bin
        self.timeout_ms = timeout_ms
        self.root = t.Hyps()

    def hyps(self, f) -> t.Hyps:
        """``f`` as a cell below ``root``; a plain sequence is pushed."""
        return f if isinstance(f, t.Hyps) else self.root.extend(f)

    def holds(self, g, f, p, location) -> tuple:
        """(holds, counterexample) for G;F |- p; the external backend gives
        no counterexample.  ``location`` is for a subclass's log."""
        f = self.hyps(f)
        if self.backend == "external":
            return t.entails_external(g, f, p, self.solver_bin, self.timeout_ms), None
        return t.entails_cex(g, f, p)


class LoggingSolver(EntailmentSolver):
    """An ``EntailmentSolver`` that keeps a ``QueryRecord`` of every query
    in ``queries``, timed, for the SMT export."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.queries: list = []

    def holds(self, g, f, p, location) -> tuple:
        g, f = tuple(g), self.hyps(f)
        start = time.perf_counter()
        verdict, cex = super().holds(g, f, p, location)
        seconds = time.perf_counter() - start
        self.queries.append(QueryRecord(g, f, p, verdict, location, seconds))
        return verdict, cex


def _render_judgment(g, f, p) -> str:
    ctx = ", ".join(g) or "."
    hyp = ", ".join(t.render_prop(q) for q in f) or "."
    return f"{ctx}; {hyp} |- {t.render_prop(p)}"


# ---------------------------------------------------------------------------
# Functional layer


def check_expr(gamma: dict, e: s.Expr, externs: dict, location="") -> s.ValueType:
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
    if isinstance(e, s.Arith):  # each operand is checked before the next is read
        op = s.OPS[e.op]
        for side in (e.left, e.right):
            if check_expr(gamma, side, externs, location) != op.operand:
                err(f"arithmetic on non-integer operand in {e.op}")
        return op.result
    if isinstance(e, s.Cmp):
        op = s.OPS[e.op]
        lt = check_expr(gamma, e.left, externs, location)
        rt = check_expr(gamma, e.right, externs, location)
        if lt != rt:
            err(f"comparison {e.op} between {lt} and {rt}")
        if op.operand is not None and lt != op.operand:
            err(f"ordering {e.op} on non-integer sort {lt}")
        return op.result
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


def _retype(solver: EntailmentSolver, g, f, a, b, at, location,
            cut: bool, ma=None, mb=None) -> tuple:
    """Shared engine for forward and cut retyping.

    Returns (ok, reason).  Cut retyping adds T <= t to the hypotheses instead
    of requiring it as a separate premise.  Binders pair up: b's binder is
    the solver variable for both instants, and ``ma``/``mb`` map the binders
    of the enclosing connectives on each side (and any binder a client
    exchange fixed, see ``Judgment``) to their instants.  The pairs of
    components wait on a stack of their own, taken depth-first and left
    first, so a protocol's depth costs no Python stack.  Each pair owns its
    maps, as a judgment does: they are copied once here, since ``ma`` and
    ``mb`` may be one dict, and again for the first of two pairs.
    """
    todo = [(g, solver.hyps(f), a, b, at, dict(ma or ()), dict(mb or ()))]
    while todo:
        g, hyp, a, b, at, ma, mb = todo.pop()
        if type(a) is not type(b) or isinstance(a, s.TypeRef):
            return False, (f"connective mismatch: {render_type(a, ma)} "
                           f"vs {render_type(b, mb)}")
        u = t.tvar(b.binder)
        ma[a.binder] = mb[b.binder] = u
        a_pred, b_pred = t.substitute_all(a.pred, ma), t.substitute_all(b.pred, mb)
        g = (*g, b.binder)
        hyp = (hyp.push(t.Leq(at, u)) if cut else hyp).push(b_pred)
        ok, _ = solver.holds(g, hyp, a_pred, location)
        if not ok:
            return False, f"window not covered: {_render_judgment(g, hyp, a_pred)}"
        if not cut:
            reach = t.Leq(at, u)
            ok, _ = solver.holds(g, hyp, reach, location)
            if not ok:
                return False, f"unreachable instant: {_render_judgment(g, hyp, reach)}"
        if isinstance(a, s.LolliT):  # the argument is contravariant
            pairs = [(b.arg, a.arg, mb, ma), (a.cont, b.cont, ma, mb)]
        else:
            if isinstance(a, (s.ProduceT, s.QueryT)) and a.payload != b.payload:
                return False, f"payload sort mismatch: {a.payload} vs {b.payload}"
            pairs = [(x, y, ma, mb) for x, y in zip(s.components(a), s.components(b))]
        if len(pairs) == 2:
            x, y, m_x, m_y = pairs[0]
            pairs[0] = x, y, dict(m_x), dict(m_y)
        todo += [(g, hyp, x, y, u, m_x, m_y) for x, y, m_x, m_y in reversed(pairs)]
    return True, ""


# ---------------------------------------------------------------------------
# Linear context handling


def _require_unbound(delta: dict, name: str, location) -> None:
    """A bound channel must not name one still in Delta, which it would
    drop unused."""
    if name in delta:
        raise TypeCheckError(TypingError(
            LINEARITY_VIOLATION, location, f"channel {name} is bound while still available"))


def split_context(delta: dict, p1: s.Process, p2: s.Process,
                  location="split", table: dict | None = None) -> tuple:
    """Split Delta by free channels; any overlap or leftover is a linearity
    bug.  The free channels are read from ``table`` (see
    ``syntax.free_channel_table``), which a caller may keep across splits."""
    table = {} if table is None else table
    fc1 = s.free_channel_table(p1, table)
    fc2 = s.free_channel_table(p2, table)
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


def _instant(at: t.TimeExpr, tm: dict, location) -> t.TimeExpr:
    """Annotation ``at`` read through ``tm``; one that names a variable no
    process binder in scope binds is rejected."""
    if at.var is not None and at.var not in tm:
        raise TypeCheckError(TypingError(
            TIMING_VIOLATION, location,
            f"annotation {t.render_time(at)} names unbound time variable {at.var}"))
    return t.subst_time(at, tm)


class Judgment(namedtuple("Judgment", "g f gamma delta tm bm p at a location spawns",
                          defaults=((),))):
    """A pending G;F | Gamma;Delta |- p :: a @ at.  ``tm`` maps the time
    binders in scope in ``p`` to their instants.  ``bm`` maps each type
    binder a client exchange fixed to that exchange's instant; every type
    in the judgment is read through it, and none is rebuilt.  The two maps
    stay apart, since a type may name a free variable spelled like a
    process binder.  ``location`` is the parent's path (see
    ``_render_location``), and ``spawns`` names the procs whose bodies
    enclose ``p``.

    The judgment owns ``gamma``, ``delta``, ``tm`` and ``bm``: its rule may
    change them and hand them to its premise.  A rule with two premises
    hands the first ``copied()`` maps and the second the originals."""

    __slots__ = ()

    def copied(self) -> "Judgment":
        """This judgment with copies of the maps it owns."""
        return self._replace(gamma=dict(self.gamma), delta=dict(self.delta),
                             tm=dict(self.tm), bm=dict(self.bm))


class Checker:
    def __init__(self, prog: s.Program, solver: EntailmentSolver | None = None):
        self.prog = prog
        self.solver = solver or EntailmentSolver()
        self.externs = {d.name: (tuple(d.arg_types), d.ret_type) for d in prog.externs}
        self.names = s.NameSupply()
        self.free = {}  # free channels per process node, for split_context
        self.closed = set()  # named types whose windows expand found closed

    def expand(self, a, location=""):
        """``a`` with its named types spliced in and its binders named
        afresh.  A window that names a variable no enclosing connective
        binds is rejected (``syntax.require_bound_windows``).  A named type
        is read for this once, as each of its expansions names the same
        free variables."""
        name = a.name if isinstance(a, s.TypeRef) else None
        expanded = s.expand_type_refs(self.prog, a, self.names)
        if name in self.closed:
            return expanded
        try:
            s.require_bound_windows(expanded)
        except s.UnboundWindowError as exc:
            raise TypeCheckError(TypingError(SHAPE_MISMATCH, location, str(exc))) from exc
        if name is not None:
            self.closed.add(name)
        return expanded

    # -- premise helpers -----------------------------------------------------

    def _require(self, g, f, p, kind: str, location, what: str) -> None:
        ok, cex = self.solver.holds(g, f, p, location)
        if not ok:
            raise TypeCheckError(TypingError(
                kind, location, f"{what}: {_render_judgment(g, f, p)}", cex))

    # -- main judgment -------------------------------------------------------

    def check_process(self, g, f, gamma, delta, tm, p, at, a, location="") -> None:
        """G;F | Gamma;Delta |- p :: a @ at, raising TypingError on failure.
        ``tm`` maps the time binders in scope in ``p`` to their instants.
        The dicts passed in are copied, not changed."""
        pending = [Judgment(tuple(g), self.solver.hyps(f), dict(gamma), dict(delta), dict(tm),
                            {}, p, at, a, location)]
        while pending:
            item = pending.pop()
            if callable(item):
                premises = item()
            else:
                loc = (item.location, type(item.p).__name__)
                premises = _RULES.get(type(item.p), Checker._exchange)(self, item, loc)
            pending.extend(reversed(premises))

    def _if(self, j: Judgment, loc) -> list:
        cond = check_expr(j.gamma, j.p.cond, self.externs, loc)
        if cond != s.BOOL:
            raise TypeCheckError(TypingError(
                EXPR_TYPE_ERROR, loc, f"if condition has sort {cond}, not bool"))
        return [j._replace(p=j.p.then, location=(loc, "then")).copied(),
                j._replace(p=j.p.orelse, location=(loc, "else"))]

    def _fwd(self, j: Judgment, loc) -> list:
        p, delta = j.p, j.delta
        if set(delta) != {p.chan}:
            extra = sorted(set(delta) - {p.chan}) or ["<empty>"]
            raise TypeCheckError(TypingError(
                LINEARITY_VIOLATION, loc,
                f"forward must own exactly its source channel; leftover: {extra[0]}"))
        when = _instant(p.at, j.tm, loc)
        self._require(j.g, j.f, t.Eq(j.at, when), TIMING_VIOLATION, loc,
                      "forward annotation differs from judgment time")
        ok, reason = _retype(self.solver, j.g, j.f, delta[p.chan], j.a, when, loc,
                             cut=False, ma=j.bm, mb=j.bm)
        if not ok:
            raise TypeCheckError(TypingError(RETYPE_FAILURE, loc, reason))
        return []

    def _spawn(self, j: Judgment, loc) -> list:
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
        when = _instant(p.at, j.tm, loc)
        self._require(j.g, j.f, t.Eq(j.at, when), TIMING_VIOLATION, loc,
                      "spawn annotation differs from judgment time")
        for k, arg in enumerate(p.args):
            if arg not in delta:
                raise TypeCheckError(TypingError(
                    LINEARITY_VIOLATION, loc, f"spawn argument {arg} is not available"))
            if arg in p.args[:k]:
                raise TypeCheckError(TypingError(
                    LINEARITY_VIOLATION, loc, f"spawn argument {arg} is passed twice"))
        if p.bound not in p.args:
            _require_unbound(delta, p.bound, loc)
        # Arguments are passed verbatim: alpha-equal types required.
        delta1 = {}
        for arg, (param, want) in zip(p.args, decl.params):
            want = self.expand(want, loc)
            if not s.alpha_eq_type(delta[arg], want, j.bm):
                raise TypeCheckError(TypingError(
                    SHAPE_MISMATCH, loc,
                    f"spawn argument {arg} has type {render_type(delta[arg], j.bm)}, "
                    f"but {p.callee} expects {render_type(want)}"))
            delta1[param] = delta[arg]
        offered = self.expand(decl.offered, loc)

        def cut() -> list:
            bound = offered if p.bound_type is None else self.expand(p.bound_type, loc)
            ok, reason = _retype(self.solver, j.g, j.f, offered, bound, when, loc, cut=True)
            if not ok:
                raise TypeCheckError(TypingError(RETYPE_FAILURE, loc, reason))
            for arg in p.args:
                del delta[arg]
            delta[p.bound] = bound
            return [j._replace(p=p.cont, at=when, location=loc)]

        body = Judgment(j.g, j.f, dict(j.gamma), delta1, {}, dict(j.bm), decl.body, when,
                        offered, (loc, p.callee), j.spawns + (p.callee,))
        return [body, cut]

    def _exchange(self, j: Judgment, loc) -> list:
        """One rule for both sides of every connective.  A provider advances
        the type it offers, at its own binder, whose window must be the
        term's (both entailment directions); a client advances its channel's
        type, at its annotation, which must be reachable and in the window.
        The message kind and whether this side sends pick the premises.
        The judgment's maps go on to them changed in place: a client's
        channel leaves Delta and comes back last, at its new type."""
        p, form, delta = j.p, s.FORMS[type(j.p)], j.delta
        if form.provides:
            ty = j.a
        elif p.chan not in delta:
            raise TypeCheckError(TypingError(
                LINEARITY_VIOLATION, loc, f"channel {p.chan} is not available"))
        else:
            ty = delta[p.chan]
        if not isinstance(ty, form.conn):
            want = ty.name if isinstance(ty, s.TypeRef) else render_type(ty, j.bm)
            raise TypeCheckError(TypingError(
                SHAPE_MISMATCH, loc,
                f"process form {type(p).__name__} cannot provide or use {want}"))
        kind, sends = s.CONNECTIVES[form.conn].kind, form.sends
        if kind == "close" and sends and delta:  # only a provider sends a close
            raise TypeCheckError(TypingError(
                LINEARITY_VIOLATION, loc, f"channel {sorted(delta)[0]} unused at close"))
        g, f, tm, bm = j.g, j.f, j.tm, j.bm
        if form.provides:
            now = tm[p.binder] = t.tvar(ty.binder)
            for atom in t.atoms(p.pred):
                for x in (atom.left.var, atom.right.var):
                    if x is not None and x not in tm:
                        raise TypeCheckError(TypingError(
                            PREDICATE_UNSATISFIED, loc, f"term predicate {t.render_prop(p.pred)} "
                                                        f"names unbound time variable {x}"))
            term_pred, window = t.substitute_all(p.pred, tm), t.substitute_all(ty.pred, bm)
            g, f = g + (ty.binder,), f.push(window)
            self._require(g, f, term_pred, PREDICATE_UNSATISFIED, loc,
                          "type window not honored by term predicate")
            self._require(g, j.f.push(term_pred), window, PREDICATE_UNSATISFIED, loc,
                          "term predicate exceeds the type window")
            self._require(g, f, t.Leq(j.at, now), TIMING_VIOLATION, loc,
                          "provider is too late for its window")
        else:
            now = bm[ty.binder] = _instant(p.at, tm, loc)
            self._require(g, f, t.Leq(j.at, now), TIMING_VIOLATION, loc,
                          "client instant precedes the current time")
            self._require(g, f, t.substitute_all(ty.pred, bm), TIMING_VIOLATION, loc,
                          "client instant misses the provider window")
        comps = s.components(ty)
        if kind == "chan" and not sends:
            _require_unbound(delta, p.var, loc)  # Delta still holds the used channel
        if not form.provides:
            del delta[p.chan]

        def judge(q, d, a, where=loc) -> Judgment:
            return Judgment(g, f, j.gamma, d, tm, bm, q, now, a, where, j.spawns)

        def on(q, c, d=delta, where=loc) -> Judgment:
            """q goes on with the exchanged channel at type c."""
            if form.provides:
                return judge(q, d, c, where)
            d[p.chan] = c
            return judge(q, d, j.a, where)

        if kind == "close":
            return [] if sends else [judge(p.cont, delta, j.a)]
        if kind == "chan" and sends:
            d1, d2 = split_context(delta, p.payload, p.cont, loc, self.free)
            # a client's payload is located under /payload
            payload = judge(p.payload, d1, comps[0], loc if form.provides else (loc, "payload"))
            return [payload.copied(), on(p.cont, comps[1], d2)]
        if kind == "chan":
            delta[p.var] = comps[0]
            return [on(p.cont, comps[1])]
        if kind == "label" and sends:
            return [on(p.cont, comps["LR".index(form.label)])]
        if kind == "label":  # the left premise copies Delta before the right sets it
            return [on(p.left, comps[0], where=(loc, "L")).copied(),
                    on(p.right, comps[1], where=(loc, "R"))]
        if sends:
            got = check_expr(j.gamma, p.expr, self.externs, loc)
            if got != ty.payload:
                what, whose = ("produced", "type") if form.provides else ("supplied", "channel")
                raise TypeCheckError(TypingError(
                    EXPR_TYPE_ERROR, loc,
                    f"{what} value has sort {got}, {whose} wants {ty.payload}"))
        else:
            j.gamma[p.var] = ty.payload
        return [on(p.cont, comps[0])]


# Process class -> its rule; every other process is an exchange.  A table of
# functions, not of a checker's bound methods, which would make each checker
# a reference cycle that holds its program and query log until the next
# garbage collection.
_RULES = {s.FwdP: Checker._fwd, s.SpawnP: Checker._spawn, s.IfP: Checker._if}


@record
class DeclReport:
    name: str
    accepted: bool
    error: TypingError | None = None

    def render(self) -> str:
        if self.accepted:
            return f"ACCEPT {self.name}"
        return f"REJECT {self.name}: {self.error.render()}"


def check_program(prog: s.Program,
                  solver: EntailmentSolver | None = None) -> list:
    """Check every proc declaration at time t0 with its params as Delta."""
    checker = Checker(prog, solver)
    reports = []
    for decl in prog.procs:
        location = decl.name
        try:
            delta = {v: checker.expand(a, (location, v)) for v, a in decl.params}
            offered = checker.expand(decl.offered, (location, "offered"))
            checker.check_process((), (), {}, delta, {}, decl.body, t.INIT, offered,
                                  location)
            reports.append(DeclReport(decl.name, True))
        except TypeCheckError as exc:
            reports.append(DeclReport(decl.name, False, exc.error))
        except s.CyclicTypeDefError as exc:
            reports.append(DeclReport(decl.name, False, TypingError(
                SHAPE_MISMATCH, location, str(exc))))
    return reports
