"""Temporal logic: time expressions, propositions, and entailment.

Time is discrete (integer ticks, surface unit milliseconds) and anchored at a
distinguished initial instant ``init`` fixed to 0.  Every time expression
normalizes to ``base + offset`` where the base is either ``init`` or a single
time variable.  Entailment G;F |- p is decided by unsatisfiability of
F together with the negation of p over integer assignments, by a
depth-first search over the propositions on a difference graph.  Two
goals need no search: one that evaluates to true with no time variable
assigned, and one equal to the last hypothesis, as when a term restates
its type's window.
Hypotheses form a persistent list (``Hyps``): lists that share a prefix
share its cells, and each cell reads its own hypothesis once, for the first
query through it that is decided here rather than exported, as a list of
difference literals or as a proposition that offers a choice.  One context
per root holds an incremental difference graph of the literals, with a
feasible potential and an undo trail.  A query pops the graph to the prefix
it shares with its list, pushes the rest, and asserts the negated goal when
it offers no choice.  It then searches the hypotheses that offer a choice,
and a negated goal that does, in list order: left side first, undoing back
to the latest choice when a literal closes a negative cycle, in a loop that
takes no stack frame per level.  The search gives up after a budget of
asserted literals.  The graph's negative-cycle check is the only one: a
plain list is asked as the list of a fresh root.  For the conjunct a
satisfiable query completes, Bellman-Ford from a virtual source gives the
shortest distances, which are the counterexample.
Queries export as SMT-LIB2 scripts (logic QF_LIA) that an external solver
binary can discharge; the modules that run it load only when it runs.
``PROP_FORMS`` spells each proposition class: its surface keyword, SMT-LIB
operator and sides, read by ``render_prop``, the SMT-LIB writer and the parser.
Time expressions and propositions are immutable ``record``s
(``tillst.record``).
"""

from __future__ import annotations

import heapq
import os
from collections.abc import Iterable, Mapping

from .record import record


class TillstError(Exception):
    """An input the toolchain cannot analyse, or an analysis it could not
    finish; ``tillst`` reports it as one ``error:`` line and exits 2."""


class NonClosedError(TillstError):
    """A closed-form evaluation met a free time variable."""


class FormulaTooLargeError(TillstError):
    """A query's search asserted more literals than its budget allows."""


class SolverTimeout(TillstError):
    """The external solver did not answer within the configured timeout."""


class SolverError(TillstError):
    """The external solver is missing, crashed, or answered garbage."""


# ---------------------------------------------------------------------------
# Time expressions


@record
class TimeExpr:
    """base + offset; ``var is None`` means the base is the init constant."""

    var: str | None
    offset: int

    def shift(self, delta: int) -> "TimeExpr":
        return TimeExpr(self.var, self.offset + delta)

    @property
    def closed(self) -> bool:
        return self.var is None

    def ticks(self) -> int:
        """Value of a closed expression, as ticks since init."""
        if self.var is not None:
            raise NonClosedError(f"time expression {render_time(self)} is not closed")
        return self.offset


def render_time(e: TimeExpr) -> str:
    """The surface spelling: ``t0``, ``x`` or ``Shift<x, n>``."""
    base = e.var if e.var is not None else "t0"
    try:
        return f"Shift<{base}, {e.offset}>" if e.offset else base
    except ValueError:
        raise long_int_error(e.offset) from None


def render_prop(p: Prop) -> str:
    """The surface spelling, read back by the parser."""
    keyword, _, sides = PROP_FORMS[type(p)]
    if not sides:
        return keyword
    side = render_prop if sides == "pp" else render_time
    return f"{keyword}<{side(p.left)}, {side(p.right)}>"


def render_instant(n: int) -> str:
    """A closed instant as diagnostics print it: ``t0+5``, ``t0-3``."""
    try:
        return f"t0{n:+d}"
    except ValueError:
        raise long_int_error(n) from None


def long_int_error(n: int) -> TillstError:
    """The error for printing ``n``, an integer longer than the interpreter
    converts to text (``sys.get_int_max_str_digits``)."""
    return TillstError(f"integer of about {n.bit_length() * 30103 // 100000 + 1} "
                       "digits is too long to print")


INIT = TimeExpr(None, 0)


def init_plus(n: int) -> TimeExpr:
    return TimeExpr(None, n)


def tvar(name: str, offset: int = 0) -> TimeExpr:
    return TimeExpr(name, offset)


def subst_time(e: TimeExpr, m: Mapping[str, TimeExpr]) -> TimeExpr:
    """[m]e: replace the base variable when ``m`` maps it."""
    repl = m.get(e.var)
    if repl is None:
        return e
    return TimeExpr(repl.var, repl.offset + e.offset)


# ---------------------------------------------------------------------------
# Propositions


@record
class Top:
    pass


@record
class Bot:
    pass


@record
class And:
    left: "Prop"
    right: "Prop"


@record
class Or:
    left: "Prop"
    right: "Prop"


@record
class Imp:
    left: "Prop"
    right: "Prop"


@record
class Eq:
    left: TimeExpr
    right: TimeExpr


@record
class Leq:
    left: TimeExpr
    right: TimeExpr


Prop = (Top, Bot, And, Or, Imp, Eq, Leq)

TOP = Top()
BOT = Bot()

# One row per proposition class: its surface keyword, its SMT-LIB operator,
# and its two sides, "pp" propositions, "tt" times or "" none.
PROP_FORMS = {Top: ("True", "true", ""), Bot: ("False", "false", ""), And: ("And", "and", "pp"),
              Or: ("Or", "or", "pp"), Imp: ("Implies", "=>", "pp"), Eq: ("Eq", "=", "tt"),
              Leq: ("Leq", "<=", "tt")}


# Derived forms desugar into the core grammar at construction time.  The
# integer model lets strict comparisons absorb the +1 into the offset.


def p_not(p: Prop) -> Prop:
    return Imp(p, BOT)


def p_lt(a: TimeExpr, b: TimeExpr) -> Prop:
    return Leq(a.shift(1), b)


def p_geq(a: TimeExpr, b: TimeExpr) -> Prop:
    return Leq(b, a)


def p_gt(a: TimeExpr, b: TimeExpr) -> Prop:
    return Leq(b.shift(1), a)


def p_neq(a: TimeExpr, b: TimeExpr) -> Prop:
    return Or(p_lt(a, b), p_gt(a, b))


def p_in(lo: TimeExpr, t: TimeExpr, hi: TimeExpr) -> Prop:
    return And(Leq(lo, t), Leq(t, hi))


def atoms(p: Prop):
    """The equalities and inequalities of ``p``, left to right."""
    todo = [p]
    while todo:
        p = todo.pop()
        kind = type(p)
        if kind is Eq or kind is Leq:
            yield p
        elif kind is And or kind is Or or kind is Imp:
            todo += (p.right, p.left)


def free_time_vars(p: Prop) -> set:
    return {e.var for a in atoms(p) for e in (a.left, a.right) if e.var is not None}


def substitute_all(p: Prop, m: Mapping[str, TimeExpr]) -> Prop:
    """Simultaneous substitution [m]p; props bind no time variables, so
    nothing can be captured."""
    if isinstance(p, (Top, Bot)):
        return p
    if isinstance(p, (Eq, Leq)):
        return type(p)(subst_time(p.left, m), subst_time(p.right, m))
    return type(p)(substitute_all(p.left, m), substitute_all(p.right, m))


def close(p: Prop, instants: Mapping[str, int], binder: str) -> Prop:
    """``p`` with each variable other than ``binder`` that ``instants``
    maps replaced by its instant."""
    return substitute_all(p, {x: init_plus(instants[x]) for x in free_time_vars(p)
                              if x != binder and x in instants})


def eval_prop(p: Prop, assignment: Mapping[str, int]) -> bool:
    """Truth value under an integer assignment with init fixed at 0, or
    NonClosedError naming the first unassigned variable ``_truth`` reads."""
    value = _truth(p, assignment)
    if type(value) is str:
        raise NonClosedError(f"unassigned time variable {value}")
    return value


def _truth(p: Prop, assignment: Mapping[str, int]) -> bool | str:
    """``p``'s truth value, or the first variable read that ``assignment``
    does not assign.  Sides are read left to right, skipping a right side
    that cannot change the value, in a loop that takes no stack frame per
    level."""
    todo = []
    while True:
        kind = type(p)
        if kind is And or kind is Or or kind is Imp:
            todo.append(p)
            p = p.left
            continue
        if kind is Leq or kind is Eq:
            a, b = p.left, p.right
            x = 0 if a.var is None else assignment.get(a.var)
            y = 0 if b.var is None else assignment.get(b.var)
            if x is None or y is None:
                return a.var if x is None else b.var
            x, y = x + a.offset, y + b.offset
            value = x <= y if kind is Leq else x == y
        else:
            value = kind is Top
        while todo:
            p = todo.pop()
            kind = type(p)
            if kind is Imp:  # not left, or right
                value = not value
            if (kind is And) == value:  # True under And, False under Or or Imp
                p = p.right
                break
        else:
            return value


# ---------------------------------------------------------------------------
# Internal decision procedure: a depth-first search over the propositions of
# a query, on an incremental difference graph kept along a persistent
# hypothesis list.

_INIT_NODE = "$init"

# A literal is (x, y, c) read as x - y <= c, nodes being variable names or
# the init node.
_Lit = tuple

_FALSE = (_INIT_NODE, _INIT_NODE, -1)  # a literal no graph admits

SEARCH_BUDGET = 10**5  # the literals one query's search may assert


def _leq_lit(a: TimeExpr, b: TimeExpr) -> _Lit:
    # a.base + a.off <= b.base + b.off  ~~>  a.base - b.base <= b.off - a.off
    return (_INIT_NODE if a.var is None else a.var, _INIT_NODE if b.var is None else b.var,
            b.offset - a.offset)


def _sides(p: Prop, positive: bool) -> tuple | None:
    """``(both, left, right)`` for ``p`` at ``positive`` polarity when it has
    two sides, each a (proposition, polarity) item, or None for an atom.

    The connectives share one rule: an implication flips its left side's
    polarity, and both sides must hold exactly when the node is a positive
    And or a negated Or or Imp; otherwise the node offers a choice of them.
    A negated equality is a choice of two strict inequalities.
    """
    kind = type(p)
    if kind is Eq and not positive:
        return False, (Leq(p.left.shift(1), p.right), True), (Leq(p.right.shift(1), p.left), True)
    if kind is And or kind is Or or kind is Imp:
        return (kind is And) == positive, (p.left, positive != (kind is Imp)), (p.right, positive)
    return None


def _atom(p: Prop, positive: bool) -> list:
    """The literals of an atom ``_sides`` does not split: not (a <= b) is
    b+1 <= a in the integers, a positive equality is two inequalities, and a
    TOP or BOT that fails is ``_FALSE``."""
    if type(p) is Leq:
        return [_leq_lit(p.left, p.right) if positive else _leq_lit(p.right.shift(1), p.left)]
    if type(p) is Eq:
        return [_leq_lit(p.left, p.right), _leq_lit(p.right, p.left)]
    return [] if (type(p) is Top) == positive else [_FALSE]


def _literals(p: Prop, positive: bool) -> list | None:
    """The literals of ``p`` at ``positive`` polarity, or None when some node
    of it offers a choice."""
    lits, todo = [], [(p, positive)]
    while todo:
        p, positive = todo.pop()
        sides = _sides(p, positive)
        if sides is None:
            lits += _atom(p, positive)
        elif not sides[0]:
            return None
        else:
            todo += (sides[2], sides[1])
    return lits


_UNREAD = object()  # a cell's ``lits`` before its hypothesis is read


class Hyps:
    """A hypothesis list F, persistent: ``push`` returns the list with one
    more hypothesis at its end and leaves this one as it was.  ``Hyps()``
    is the empty list, the root of a tree of lists that share their prefixes
    and one search context; pushing an equal proposition onto the same list
    returns the same cell.  Iterating gives the hypotheses in list order.

    A cell reads its own hypothesis once, the first time a query of a list
    through it is decided here (``_read``), so a list that is only exported
    as SMT-LIB is never read.  ``lits`` is then the hypothesis's literals,
    or None when it offers a choice (see ``_literals``).  ``single`` and
    ``ors`` link to the nearest cell at or above this one that has
    literals, and that offers a choice.  ``pos`` is the cell's place on its
    context's stack (-1 when off it), and ``dead`` marks a cell whose
    literals conflict with those above it.
    """

    __slots__ = ("parent", "prop", "ctx", "kids", "pos", "dead", "lits", "single", "ors")

    def __init__(self):
        self.parent = self.prop = self.kids = self.single = self.ors = None
        self.ctx = _Context()
        self.pos, self.dead, self.lits = -1, False, []

    def push(self, p: Prop) -> "Hyps":
        """This list with ``p`` appended."""
        if self.kids is None:
            self.kids = {}
        cell = self.kids.get(p)
        if cell is None:
            cell = self.kids[p] = object.__new__(Hyps)
            cell.parent, cell.prop, cell.ctx = self, p, self.ctx
            cell.kids, cell.lits = None, _UNREAD
            cell.pos, cell.dead = -1, False
        return cell

    def extend(self, props: Iterable[Prop]) -> "Hyps":
        f = self
        for p in props:
            f = f.push(p)
        return f

    def __iter__(self):
        props, c = [], self
        while c.parent is not None:
            props.append(c.prop)
            c = c.parent
        return reversed(props)

    def _release(self) -> None:
        """Break the reference cycles of a fresh root whose one list is this
        one: the links down the list, to a cell itself and to the context."""
        c = self
        while c is not None:
            c.kids = c.single = c.ors = c.ctx = None
            c = c.parent

    def _read(self) -> None:
        """Read the hypotheses of this list's cells that are not yet, from
        the top."""
        todo, c = [], self
        while c.lits is _UNREAD:
            todo.append(c)
            c = c.parent
        for c in reversed(todo):
            up = c.parent
            c.lits = _literals(c.prop, True)
            c.single = c if c.lits else up.single
            c.ors = c if c.lits is None else up.ors


class _Context:
    """The search state of one root's lists: a difference graph that holds
    the literals of a stack of cells on one path from the root, a feasible
    potential for it, and an undo trail.

    An edge y -> x of weight c stands for x - y <= c, and ``pot`` satisfies
    every edge.  A node enters at the value that makes its first edge tight,
    so asserting a fresh s = t0+k moves nothing.  An edge the potential
    violates is repaired by Dijkstra's search from its head over reduced
    costs, which reaches its tail exactly when the edge closes a negative
    cycle (Cotton & Maler, SAT 2006).  The trail records each new node,
    changed value and added edge, so backtracking is undoing.  ``unsat``
    maps each (list, goal) query found unsatisfiable to the literals its
    search asserted.
    """

    __slots__ = ("pot", "out", "trail", "stack", "marks", "unsat")

    def __init__(self):
        self.pot, self.out, self.trail = {}, {}, []
        self.stack, self.marks = [], []
        self.unsat = {}

    def _add(self, lit: _Lit) -> bool:
        """Assert one literal; False when it closes a negative cycle."""
        x, y, c = lit
        pot, trail = self.pot, self.trail
        if y not in pot:
            pot[y] = pot[x] - c if x in pot else 0
            trail.append((y, None))
        if x not in pot:
            pot[x] = pot[y] + c
            trail.append((x, None))
        edges = self.out.get(y)
        if edges is None:
            edges = self.out[y] = []
        edges.append((x, c))
        trail.append(y)
        gap = pot[x] - pot[y] - c  # how far x has to come down
        if gap <= 0:
            return True
        # every node whose reduced distance from x is under gap comes down
        # by the difference; reaching y that close means a negative cycle.
        # Edges are relaxed newest first: a goal's edge usually closes its
        # cycle through the latest binders, and init has an edge to each.
        settled, heap = {}, [(0, x)]
        while heap:
            d, u = heapq.heappop(heap)
            if d >= gap:
                break
            if u in settled:
                continue
            settled[u] = d
            for v, w in reversed(self.out.get(u, ())):
                r = d + pot[u] + w - pot[v]
                if r < gap and v == y:
                    return False
                if r < gap and v not in settled:
                    heapq.heappush(heap, (r, v))
        for u, d in settled.items():
            trail.append((u, pot[u]))
            pot[u] -= gap - d
        return True

    def _undo(self, mark: int) -> None:
        pot, out, trail = self.pot, self.out, self.trail
        while len(trail) > mark:
            entry = trail.pop()
            if type(entry) is str:
                out[entry].pop()
            elif entry[1] is None:
                del pot[entry[0]]
            else:
                pot[entry[0]] = entry[1]

    def _sync(self, f: Hyps) -> bool:
        """Pop the stack to f's deepest cell with literals on it and push
        the rest of f's; False when their literals conflict."""
        todo, c = [], f.single
        while c is not None and c.pos < 0:
            if c.dead:
                return False
            todo.append(c)
            c = c.parent.single
        keep = 0 if c is None else c.pos + 1
        if keep < len(self.stack):
            self._undo(self.marks[keep])
            for gone in self.stack[keep:]:
                gone.pos = -1
            del self.stack[keep:], self.marks[keep:]
        for c in reversed(todo):
            mark = len(self.trail)
            if not all(map(self._add, c.lits)):
                self._undo(mark)
                c.dead = True
                return False
            c.pos = len(self.stack)
            self.stack.append(c)
            self.marks.append(mark)
        return True

    def _search(self, lits: list, items: list, g: Iterable[str], budget: int) -> tuple:
        """``(model, spent)``: Bellman-Ford's model of the first conjunct of
        ``lits`` and the (proposition, polarity) ``items`` that the graph
        admits, or None, and the literals the search asserted.

        ``lits`` are asserted first.  The search then takes the items in
        order, depth-first: it asserts an atom's literals, takes both sides
        of a node that needs both, left first, and tries the left side of a
        choice first, undoing back to its right side when a literal closes
        a negative cycle.  So the conjunct it completes is the first
        satisfiable one of the product of the items' DNFs, in the order a
        right fold of them lists it.  It raises ``FormulaTooLargeError`` as
        soon as it has asserted more than ``budget`` literals.  The graph is
        left as it was.
        """
        base = len(self.trail)
        try:
            if not all(map(self._add, lits)):
                return None, 0
            todo, choices, spent = None, [], 0
            for item in reversed(items):
                todo = (item, todo)
            while todo is not None:
                (p, positive), todo = todo
                sides = _sides(p, positive)
                if sides is None:
                    atom = _atom(p, positive)
                    spent += len(atom)
                    if spent > budget:
                        raise FormulaTooLargeError(
                            f"solver search exceeded its budget of {budget} literals")
                    if all(map(self._add, atom)):
                        continue
                    if not choices:
                        return None, spent
                    mark, todo = choices.pop()
                    self._undo(mark)
                elif sides[0]:
                    todo = (sides[1], (sides[2], todo))
                else:
                    choices.append((len(self.trail), (sides[2], todo)))
                    todo = (sides[1], todo)
            edges = [(x, y, c) for y, out in self.out.items() for x, c in out]
            return _conjunct_model(edges, g), spent
        finally:
            self._undo(base)

    def model(self, f: Hyps, goal: Prop | None, g: Iterable[str],
              budget: int) -> dict | None:
        """A model of f's list, and of not ``goal`` when one is given, or
        None.  The literals of f's cells come from the stack, and a negated
        goal that offers no choice is asserted next.  The cells that offer
        a choice, then a negated goal that does, are searched in list
        order.  A query found unsatisfiable is answered again at once
        under any budget its search fitted in."""
        f._read()
        key = (f, goal)
        if self.unsat.get(key, budget + 1) <= budget:
            return None
        items, c = [], f.ors
        while c is not None:
            items.append((c.prop, True))
            c = c.parent.ors
        items.reverse()
        lits = [] if goal is None else _literals(goal, False)
        if lits is None:
            lits = []
            items.append((goal, False))
        model, spent = self._search(lits, items, g, budget) if self._sync(f) else (None, 0)
        if model is None:
            self.unsat[key] = spent
        return model


def _conjunct_model(literals: list, g: Iterable[str]) -> dict:
    """Bellman-Ford's model of one conjunct that ``_Context._add`` accepted,
    total over ``g``.

    Each literal x - y <= c is an edge y -> x of weight c, and a virtual
    source reaches every node at distance 0.  The model is the shortest
    distances, shifted so that init maps to 0.  They are unique on a
    feasible graph, so the model does not depend on the literals' order.
    The passes stop at |V|, so a conjunct with a negative cycle, which no
    caller passes, cannot hang them.
    """
    names = list(dict.fromkeys(g))
    dist = dict.fromkeys([_INIT_NODE, *(n for lit in literals for n in lit[:2]), *names], 0)
    edges = [(y, x, c) for (x, y, c) in literals]
    for _ in range(len(dist)):
        changed = False
        for y, x, c in edges:
            if dist[y] + c < dist[x]:
                dist[x] = dist[y] + c
                changed = True
        if not changed:
            break
    base = dist[_INIT_NODE]
    return {n: dist[n] - base for n in names}


def entails_cex(
    g: Iterable[str],
    f: Hyps | Iterable[Prop],
    p: Prop,
    budget: int = SEARCH_BUDGET,
) -> tuple:
    """(holds, counterexample): holds iff F /\\ not p is unsatisfiable.

    Two goals hold under any F and are answered without a search: one that
    holds by ``_truth`` with no variable assigned, and one equal to F's
    last hypothesis, since F /\\ not p then asserts p and its negation.
    Every other goal, a closed one that is false included, is searched: its
    counterexample, and whether it exhausts ``budget``, are the search's.
    A plain list is asked as the list of a fresh root, released after the
    query."""
    if _truth(p, {}) is True:
        return True, None
    fresh = not isinstance(f, Hyps)
    f = Hyps().extend(f) if fresh else f
    try:
        if f.prop == p:
            return True, None
        cex = f.ctx.model(f, p, g, budget)
    finally:
        if fresh:
            f._release()
    return (cex is None, cex)


# ---------------------------------------------------------------------------
# SMT-LIB2 export and external solvers


def _smt_symbol(name: str) -> str:
    # '#' appears in machine-freshened names and needs the quoted symbol form
    if name.isidentifier():
        return name
    return f"|{name}|"


def _smt_time(e: TimeExpr) -> str:
    base = _smt_symbol(e.var) if e.var is not None else "init"
    if e.offset == 0:
        return base
    if e.offset > 0:
        return f"(+ {base} {e.offset})"
    return f"(- {base} {-e.offset})"


def _smt_prop(p: Prop) -> str:
    _, op, sides = PROP_FORMS[type(p)]
    if not sides:
        return op
    side = _smt_prop if sides == "pp" else _smt_time
    return f"({op} {side(p.left)} {side(p.right)})"


def emit_smtlib(g: Iterable[str], f: Iterable[Prop], p: Prop) -> str:
    """Self-contained QF_LIA script; ``sat`` refutes the entailment."""
    lines = ["(set-logic QF_LIA)", "(declare-const init Int)", "(assert (= init 0))"]
    for name in dict.fromkeys(g):
        lines.append(f"(declare-const {_smt_symbol(name)} Int)")
    for q in f:
        lines.append(f"(assert {_smt_prop(q)})")
    lines.append(f"(assert (not {_smt_prop(p)}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def run_external_solver(
    script: str,
    solver_bin: str | None = None,
    timeout_ms: int = 5000,
) -> str:
    """Run an SMT-LIB2 script through a solver binary; returns sat or unsat.

    The binary comes from ``solver_bin`` or the SOLVER_BIN environment
    variable, is handed the script as a file argument, and only the first
    sat/unsat token of its stdout is trusted.
    """
    binary = solver_bin or os.environ.get("SOLVER_BIN")
    if not binary:
        raise SolverError("no external solver configured (set SOLVER_BIN)")
    import subprocess  # imported here: only an external solver run needs them
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".smt2", delete=False) as fh:
        fh.write(script)
        path = fh.name
    try:
        proc = subprocess.run(
            [binary, path],
            capture_output=True,
            text=True,
            timeout=timeout_ms / 1000.0,
        )
    except subprocess.TimeoutExpired as exc:
        raise SolverTimeout(f"{binary} exceeded {timeout_ms} ms") from exc
    except OSError as exc:
        raise SolverError(f"failed to run {binary}: {exc}") from exc
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass
    for token in proc.stdout.split():
        if token in ("sat", "unsat"):
            return token
    raise SolverError(
        f"{binary} produced no sat/unsat verdict (stdout: {proc.stdout!r})")


def entails_external(
    g: Iterable[str],
    f: Iterable[Prop],
    p: Prop,
    solver_bin: str | None = None,
    timeout_ms: int = 5000,
) -> bool:
    verdict = run_external_solver(emit_smtlib(g, f, p), solver_bin, timeout_ms)
    return verdict == "unsat"
