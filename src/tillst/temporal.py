"""Temporal logic: time expressions, propositions, and entailment.

Time is discrete (integer ticks, surface unit milliseconds) and anchored at a
distinguished initial instant ``init`` fixed to 0.  Every time expression
normalizes to ``base + offset`` where the base is either ``init`` or a single
time variable.  Entailment G;F |- p is decided by unsatisfiability of
F together with the negation of p over integer assignments, using an internal
DNF + negative-cycle difference-logic procedure.  Queries export as SMT-LIB2
scripts (logic QF_LIA) that an external solver binary can discharge.
"""

from __future__ import annotations

import os
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union


class NonClosedError(Exception):
    """A closed-form evaluation met a free time variable."""


class FormulaTooLargeError(Exception):
    """DNF expansion exceeded the clause budget."""


class SolverTimeout(Exception):
    """The external solver did not answer within the configured timeout."""


class SolverError(Exception):
    """The external solver is missing, crashed, or answered garbage."""


# ---------------------------------------------------------------------------
# Time expressions


@dataclass(frozen=True)
class TimeExpr:
    """base + offset; ``var is None`` means the base is the init constant."""

    var: Optional[str]
    offset: int

    def shift(self, delta: int) -> "TimeExpr":
        return TimeExpr(self.var, self.offset + delta)

    @property
    def closed(self) -> bool:
        return self.var is None

    def ticks(self) -> int:
        """Value of a closed expression, as ticks since init."""
        if self.var is not None:
            raise NonClosedError(f"time expression {self} is not closed")
        return self.offset

    def __str__(self) -> str:
        base = self.var if self.var is not None else "t0"
        if self.offset == 0:
            return base
        return f"{base}{self.offset:+d}"


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


@dataclass(frozen=True)
class Top:
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class Bot:
    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class And:
    left: "Prop"
    right: "Prop"

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


@dataclass(frozen=True)
class Or:
    left: "Prop"
    right: "Prop"

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


@dataclass(frozen=True)
class Imp:
    left: "Prop"
    right: "Prop"

    def __str__(self) -> str:
        return f"({self.left} -> {self.right})"


@dataclass(frozen=True)
class Eq:
    left: TimeExpr
    right: TimeExpr

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class Leq:
    left: TimeExpr
    right: TimeExpr

    def __str__(self) -> str:
        return f"{self.left} <= {self.right}"


Prop = Union[Top, Bot, And, Or, Imp, Eq, Leq]

TOP = Top()
BOT = Bot()


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


def p_and_all(props: Sequence[Prop]) -> Prop:
    out: Prop = TOP
    for p in reversed(props):
        out = p if out == TOP else And(p, out)
    return out


def free_time_vars(p: Prop) -> set:
    if isinstance(p, (Top, Bot)):
        return set()
    if isinstance(p, (And, Or, Imp)):
        return free_time_vars(p.left) | free_time_vars(p.right)
    out = set()
    if p.left.var is not None:
        out.add(p.left.var)
    if p.right.var is not None:
        out.add(p.right.var)
    return out


def substitute(p: Prop, name: str, e: TimeExpr) -> Prop:
    """[e/name]p."""
    return substitute_all(p, {name: e})


def substitute_all(p: Prop, m: Mapping[str, TimeExpr]) -> Prop:
    """Simultaneous substitution [m]p; props bind no time variables, so
    nothing can be captured."""
    if isinstance(p, (Top, Bot)):
        return p
    if isinstance(p, (Eq, Leq)):
        return type(p)(subst_time(p.left, m), subst_time(p.right, m))
    return type(p)(substitute_all(p.left, m), substitute_all(p.right, m))


def eval_prop(p: Prop, assignment: Mapping[str, int]) -> bool:
    """Truth value under an integer assignment with init fixed at 0."""

    def val(e: TimeExpr) -> int:
        if e.var is None:
            return e.offset
        if e.var not in assignment:
            raise NonClosedError(f"unassigned time variable {e.var}")
        return assignment[e.var] + e.offset

    if isinstance(p, Top):
        return True
    if isinstance(p, Bot):
        return False
    if isinstance(p, And):
        return eval_prop(p.left, assignment) and eval_prop(p.right, assignment)
    if isinstance(p, Or):
        return eval_prop(p.left, assignment) or eval_prop(p.right, assignment)
    if isinstance(p, Imp):
        return (not eval_prop(p.left, assignment)) or eval_prop(p.right, assignment)
    if isinstance(p, Eq):
        return val(p.left) == val(p.right)
    return val(p.left) <= val(p.right)


def eval_closed_prop(p: Prop) -> bool:
    return eval_prop(p, {})


# ---------------------------------------------------------------------------
# Internal decision procedure: NNF -> DNF of difference constraints, one
# negative-cycle check per conjunct.

_INIT_NODE = "$init"

# A literal is (x, y, c) read as x - y <= c, nodes being variable names or
# the init node.
_Lit = tuple


def _node(e: TimeExpr) -> str:
    return e.var if e.var is not None else _INIT_NODE


def _leq_lit(a: TimeExpr, b: TimeExpr) -> _Lit:
    # a.base + a.off <= b.base + b.off  ~~>  a.base - b.base <= b.off - a.off
    return (_node(a), _node(b), b.offset - a.offset)


def _dnf(p: Prop, positive: bool, budget: list) -> list:
    """Disjunctive normal form as a list of conjuncts (lists of literals).

    Integer semantics: not (a <= b) becomes b+1 <= a; equalities split into
    two inequalities, disequalities into a disjunction.  ``budget`` is a
    single-cell countdown of literals the expansion may still produce.
    """

    def spend(n: int) -> None:
        budget[0] -= n
        if budget[0] < 0:
            raise FormulaTooLargeError("DNF expansion exceeded the clause budget")

    if isinstance(p, Top):
        return [[]] if positive else []
    if isinstance(p, Bot):
        return [] if positive else [[]]
    if isinstance(p, Imp):
        return _dnf_imp(p, positive, budget)
    if isinstance(p, And):
        if positive:
            return _dnf_product(_dnf(p.left, True, budget), _dnf(p.right, True, budget), budget)
        return _dnf(p.left, False, budget) + _dnf(p.right, False, budget)
    if isinstance(p, Or):
        if positive:
            return _dnf(p.left, True, budget) + _dnf(p.right, True, budget)
        return _dnf_product(_dnf(p.left, False, budget), _dnf(p.right, False, budget), budget)
    if isinstance(p, Leq):
        spend(1)
        if positive:
            return [[_leq_lit(p.left, p.right)]]
        return [[_leq_lit(p.right.shift(1), p.left)]]
    # Eq
    if positive:
        spend(2)
        return [[_leq_lit(p.left, p.right), _leq_lit(p.right, p.left)]]
    spend(2)
    return [
        [_leq_lit(p.left.shift(1), p.right)],
        [_leq_lit(p.right.shift(1), p.left)],
    ]


def _dnf_imp(p: Imp, positive: bool, budget: list) -> list:
    if positive:
        return _dnf(p.left, False, budget) + _dnf(p.right, True, budget)
    return _dnf_product(_dnf(p.left, True, budget), _dnf(p.right, False, budget), budget)


def _dnf_product(left: list, right: list, budget: list) -> list:
    out = []
    for a in left:
        for b in right:
            budget[0] -= len(a) + len(b)
            if budget[0] < 0:
                raise FormulaTooLargeError("DNF expansion exceeded the clause budget")
            out.append(a + b)
    return out


def _solve_conjunct(literals: list, nodes: list) -> Optional[dict]:
    """Bellman-Ford on the difference-constraint graph.

    Edge y -> x with weight c for each x - y <= c.  A negative cycle means the
    conjunct is unsatisfiable; otherwise the distances from a virtual source
    yield a model, shifted so that init maps to 0.
    """
    dist = {n: 0 for n in nodes}  # virtual source at distance 0 to every node
    edges = [(y, x, c) for (x, y, c) in literals]
    for _ in range(len(nodes)):
        changed = False
        for y, x, c in edges:
            if dist[y] + c < dist[x]:
                dist[x] = dist[y] + c
                changed = True
        if not changed:
            break
    else:
        for y, x, c in edges:
            if dist[y] + c < dist[x]:
                return None  # still relaxing: negative cycle
    base = dist[_INIT_NODE]
    return {n: dist[n] - base for n in nodes if n != _INIT_NODE}


def solve_satisfiable(
    g: Iterable[str],
    f: Sequence[Prop],
    budget: int = 10**6,
) -> Optional[dict]:
    """A satisfying assignment of the conjunction of ``f``, or None.

    The assignment is total over ``g`` (unconstrained variables get 0) and
    maps each variable to its instant as an offset from init.
    """
    names = list(dict.fromkeys(g))
    cell = [budget]
    conjuncts = _dnf(p_and_all(list(f)), True, cell)
    for conj in conjuncts:
        nodes = list(dict.fromkeys(
            [_INIT_NODE] + [n for lit in conj for n in (lit[0], lit[1])] + names))
        model = _solve_conjunct(conj, nodes)
        if model is not None:
            return {n: model.get(n, 0) for n in names}
    return None


def entails_cex(
    g: Iterable[str],
    f: Sequence[Prop],
    p: Prop,
    budget: int = 10**6,
) -> tuple:
    """(holds, counterexample): holds iff F /\\ not p is unsatisfiable."""
    cex = solve_satisfiable(g, list(f) + [p_not(p)], budget=budget)
    return (cex is None, cex)


def entails(g: Iterable[str], f: Sequence[Prop], p: Prop) -> bool:
    """G;F |- p: every F-satisfying assignment satisfies p."""
    holds, _ = entails_cex(g, f, p)
    return holds


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
    if isinstance(p, Top):
        return "true"
    if isinstance(p, Bot):
        return "false"
    if isinstance(p, And):
        return f"(and {_smt_prop(p.left)} {_smt_prop(p.right)})"
    if isinstance(p, Or):
        return f"(or {_smt_prop(p.left)} {_smt_prop(p.right)})"
    if isinstance(p, Imp):
        return f"(=> {_smt_prop(p.left)} {_smt_prop(p.right)})"
    if isinstance(p, Eq):
        return f"(= {_smt_time(p.left)} {_smt_time(p.right)})"
    return f"(<= {_smt_time(p.left)} {_smt_time(p.right)})"


def emit_smtlib(g: Iterable[str], f: Sequence[Prop], p: Prop) -> str:
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
    solver_bin: Optional[str] = None,
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
    f: Sequence[Prop],
    p: Prop,
    solver_bin: Optional[str] = None,
    timeout_ms: int = 5000,
) -> bool:
    verdict = run_external_solver(emit_smtlib(g, f, p), solver_bin, timeout_ms)
    return verdict == "unsat"
