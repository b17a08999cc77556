import gc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import entails, eval_closed_prop, solve_satisfiable
from oracle import oracle_entails
from tillst import temporal as t
from tillst.temporal import (BOT, INIT, TOP, And, Bot, Eq, Imp, Leq, Or, Top,
                             eval_prop, init_plus, p_in, substitute_all, tvar)

times = st.builds(
    t.TimeExpr,
    st.one_of(st.none(), st.sampled_from(["t1", "t2", "t3"])),
    st.integers(-30, 30),
)

closed_times = st.builds(t.TimeExpr, st.none(), st.integers(-50, 50))


def props(time_strategy, depth=2):
    atoms = st.one_of(
        st.just(TOP), st.just(BOT),
        st.builds(Leq, time_strategy, time_strategy),
        st.builds(Eq, time_strategy, time_strategy),
    )
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Imp, inner, inner),
        ),
        max_leaves=6,
    )


class TestNormalize:
    def test_offset_arithmetic(self):
        assert init_plus(3).shift(5) == init_plus(8)

    def test_identity_cases(self):
        assert INIT == init_plus(0)
        assert tvar("t1", 10).shift(0) == tvar("t1", 10)

    @given(closed_times, closed_times)
    def test_trichotomy(self, a, b):
        lt = eval_closed_prop(t.p_lt(a, b))
        eq = eval_closed_prop(Eq(a, b))
        gt = eval_closed_prop(t.p_gt(a, b))
        assert [lt, eq, gt].count(True) == 1


class TestEvalClosed:
    def test_integer_comparison(self):
        assert eval_closed_prop(Leq(init_plus(30), init_plus(50)))

    def test_reflexivity(self):
        assert eval_closed_prop(Eq(init_plus(5), init_plus(5)))

    def test_missed_deadline(self):
        assert not eval_closed_prop(Leq(init_plus(13), init_plus(10)))

    def test_open_prop_rejected(self):
        with pytest.raises(t.NonClosedError):
            eval_closed_prop(Leq(tvar("t"), INIT))


class TestSubstitute:
    def test_direct(self):
        got = substitute_all(Leq(tvar("t1"), tvar("t2")), {"t2": init_plus(5)})
        assert got == Leq(tvar("t1"), init_plus(5))

    def test_no_occurrence(self):
        assert substitute_all(TOP, {"t": init_plus(1)}) == TOP

    def test_offset_composition(self):
        got = substitute_all(Eq(tvar("t"), tvar("u")), {"t": tvar("u", 1)})
        assert got == Eq(tvar("u", 1), tvar("u"))

    @given(props(times), st.integers(-20, 20))
    def test_substitution_evaluates(self, p, n):
        # substituting then evaluating = evaluating under the extended scope
        inst = substitute_all(substitute_all(substitute_all(p, {"t1": init_plus(n)}),
                                             {"t2": init_plus(0)}), {"t3": init_plus(7)})
        assert eval_closed_prop(inst) == eval_prop(p, {"t1": n, "t2": 0, "t3": 7})


class TestEntails:
    def test_forward_shift(self):
        assert entails(["t1"], [Leq(INIT, tvar("t1"))], Leq(INIT, tvar("t1", 5)))

    def test_unbounded_counterexample(self):
        assert not entails(["t1"], [Leq(INIT, tvar("t1"))], Leq(tvar("t1"), init_plus(10)))

    def test_deadline_miss_chain(self):
        g = ["t1", "t2"]
        f = [Leq(init_plus(3), tvar("t1")), Leq(tvar("t1"), init_plus(15)),
             Eq(tvar("t2"), tvar("t1", 10))]
        assert not entails(g, f, Leq(tvar("t2"), init_plus(10)))

    def test_trivial(self):
        assert entails([], [], TOP)

    def test_absurd_hypotheses(self):
        assert entails(["t"], [BOT], Leq(tvar("t", 9), tvar("t")))
        assert not entails([], [], BOT)

    @given(props(times), props(times), props(times))
    def test_monotone_in_hypotheses(self, f1, p, extra):
        g = ["t1", "t2", "t3"]
        if entails(g, [f1], p):
            assert entails(g, [f1, extra], p)

    @given(st.lists(props(times), max_size=3), props(times))
    def test_top_bottom_laws(self, f, p):
        g = ["t1", "t2", "t3"]
        assert entails(g, f, TOP)
        assert entails(g, list(f) + [BOT], p)
        assert not entails(g, [], BOT)

    @given(props(closed_times))
    def test_closed_agrees_with_eval(self, p):
        assert entails([], [], p) == eval_closed_prop(p)

    CLOSED_TRUE = [Leq(INIT, init_plus(3)), TOP, Imp(BOT, BOT),
                   Or(BOT, Eq(init_plus(2), init_plus(2)))]
    CLOSED_FALSE = [Leq(init_plus(3), INIT), BOT, Eq(INIT, init_plus(1)),
                    And(TOP, Or(BOT, Leq(init_plus(1), INIT)))]
    HYPS = {"satisfiable": [Leq(INIT, tvar("t1"))],
            "unsatisfiable": [Leq(tvar("t1"), init_plus(-1)), Leq(INIT, tvar("t1"))],
            "disjunctive": [Or(Eq(tvar("t1"), init_plus(1)), Eq(tvar("t1"), init_plus(2)))]}

    @pytest.mark.parametrize("f", sorted(HYPS))
    @pytest.mark.parametrize("goal", CLOSED_TRUE + CLOSED_FALSE, ids=repr)
    def test_closed_goal_answers_as_the_search(self, monkeypatch, f, goal):
        # a closed goal that holds is answered without a search; one that
        # fails is searched, for its counterexample under F
        g, real = ["t1"], t._model
        cex = real(self.HYPS[f], goal, g, t.SEARCH_BUDGET)
        searched = []
        monkeypatch.setattr(t, "_model", lambda *args: searched.append(args) or real(*args))
        for hyps in (self.HYPS[f], t.Hyps().extend(self.HYPS[f])):
            assert t.entails_cex(g, hyps, goal) == (cex is None, cex)
        assert len(searched) == (0 if goal in self.CLOSED_TRUE else 2)

    @given(props(times))
    def test_closed_truth_stops_at_a_variable(self, p):
        closed = not t.free_time_vars(p)
        assert t._closed_truth(p) == (eval_closed_prop(p) if closed else None)

    def test_deep_closed_goal_takes_no_stack(self):
        p = TOP
        for _ in range(5000):
            p = And(p, Leq(INIT, INIT))
        assert t._closed_truth(p) is True
        assert t._closed_truth(And(p, Leq(INIT, tvar("t1")))) is None


class TestSolve:
    def test_contradictory_window(self):
        f = [Leq(tvar("t1"), init_plus(5)), Leq(init_plus(6), tvar("t1"))]
        assert solve_satisfiable(["t1"], f) is None

    def test_model_is_checked(self):
        f = [Leq(INIT, tvar("t1"))]
        model = solve_satisfiable(["t1"], f)
        assert model is not None
        assert all(eval_prop(q, model) for q in f)

    def test_dnf_picks_live_disjunct(self):
        f = [Or(Eq(tvar("t1"), init_plus(3)), Eq(tvar("t1"), init_plus(7))),
             Leq(init_plus(5), tvar("t1"))]
        assert solve_satisfiable(["t1"], f) == {"t1": 7}

    @given(st.lists(props(times), max_size=3))
    def test_any_model_satisfies(self, f):
        model = solve_satisfiable(["t1", "t2", "t3"], f)
        if model is not None:
            assert all(eval_prop(q, model) for q in f)

    def test_clause_budget(self):
        # each t_i is t_(i-1) + 1 or + 2, and the negated goal t_8 >= 17 only
        # conflicts once all eight choices are made: the search tries all
        # 256 of them
        g = [f"t{i}" for i in range(1, 9)]
        prev = [INIT] + [tvar(v) for v in g]
        steps = [Or(Eq(tvar(v), prev[i].shift(1)), Eq(tvar(v), prev[i].shift(2)))
                 for i, v in enumerate(g)]
        goal = Leq(tvar("t8"), init_plus(16))
        assert t.entails_cex(g, steps, goal) == (True, None)
        with pytest.raises(t.FormulaTooLargeError):
            t.entails_cex(g, steps, goal, budget=50)

    # Each query's budget B is the number of literals its search asserts:
    # the query answers at B and exceeds the budget at B - 1.  Hypotheses
    # and negated goals that offer no choice are asserted before the search
    # and cost nothing, TOP among them.
    CONJ = [Leq(tvar("t1"), init_plus(5)), Eq(tvar("t2"), tvar("t1", 1)),
            Leq(INIT, tvar("t2")), Eq(tvar("t3"), tvar("t2"))]
    OR_NEQ = [Or(Leq(tvar("t1"), init_plus(3)), Eq(tvar("t1"), tvar("t2"))),
              t.p_neq(tvar("t2"), tvar("t3")), Leq(tvar("t3"), init_plus(9)),
              t.p_neq(tvar("t1"), INIT)]
    T1_LATE = Leq(tvar("t1"), init_plus(3))  # negated, t1 >= 4 refutes the Or's left

    thresholds = pytest.mark.parametrize("f,goal,budget,answer", [
        (CONJ, Eq(tvar("t3"), tvar("t1", 1)), 2, (True, None)),
        (OR_NEQ, T1_LATE, 6, (False, {"t1": 4, "t2": 4, "t3": 5})),
        ([Imp(Leq(tvar("t1"), init_plus(3)), Eq(tvar("t2"), INIT)),
          t.p_not(Eq(tvar("t1"), tvar("t2"))), Leq(INIT, tvar("t3")),
          Eq(tvar("t3"), tvar("t1", 2))], None, 2, {"t1": 4, "t2": 6, "t3": 6}),
        ([TOP] + OR_NEQ, T1_LATE, 6, (False, {"t1": 4, "t2": 4, "t3": 5})),
        (OR_NEQ[:2] + [TOP] + OR_NEQ[2:], T1_LATE, 6, (False, {"t1": 4, "t2": 4, "t3": 5})),
        (OR_NEQ + [TOP], None, 3, {"t1": -1, "t2": -1, "t3": 0}),
    ], ids=["conjunctive", "or-neq", "imp-not-eq", "top-first", "top-middle", "top-last"])

    @staticmethod
    def ask(f, goal, budget):
        if goal is None:
            return solve_satisfiable(["t1", "t2", "t3"], f, budget=budget)
        return t.entails_cex(["t1", "t2", "t3"], f, goal, budget=budget)

    @thresholds
    def test_clause_budget_threshold(self, f, goal, budget, answer):
        for hyps in (f, t.Hyps().extend(f)):  # a plain list and a fresh root
            assert self.ask(hyps, goal, budget) == answer
            with pytest.raises(t.FormulaTooLargeError):
                self.ask(hyps, goal, budget - 1)

    def test_pre_init_instants_allowed(self):
        model = solve_satisfiable(["t1"], [Leq(tvar("t1", 5), INIT)])
        assert model is not None and model["t1"] <= -5


def reference_solve(literals: list, nodes: list):
    """Bellman-Ford that always runs all |V| passes and then looks for an
    edge that still relaxes; the model is shifted so that init maps to 0."""
    dist = {n: 0 for n in nodes}
    for _ in nodes:
        for x, y, c in literals:
            dist[x] = min(dist[x], dist[y] + c)
    if any(dist[y] + c < dist[x] for x, y, c in literals):
        return None
    return {n: dist[n] - dist[t._INIT_NODE] for n in nodes if n != t._INIT_NODE}


@st.composite
def difference_graphs(draw):
    """Literals (x, y, c), read x - y <= c, over init and up to 7 variables.
    Random edges give self-loops, cycles and untouched nodes; half the draws
    also close a ring through some distinct nodes (a self-loop for one)."""
    nodes = [t._INIT_NODE] + [f"v{i}" for i in range(draw(st.integers(0, 7)))]
    node = st.sampled_from(nodes)
    lits = draw(st.lists(st.tuples(node, node, st.integers(-6, 6)), max_size=16))
    if draw(st.booleans()):
        ring = draw(st.lists(node, min_size=1, max_size=len(nodes), unique=True))
        lits += [(ring[i], ring[i - 1], draw(st.integers(-3, 3))) for i in range(len(ring))]
    return draw(st.permutations(lits)), nodes


class TestSolveConjunct:
    @settings(max_examples=500)
    @given(difference_graphs())
    def test_agrees_with_full_bellman_ford(self, graph):
        """On a satisfiable conjunct, the only kind it is given, the model
        is the full Bellman-Ford's, whatever the literals' order."""
        lits, nodes = graph
        model = reference_solve(lits, nodes)
        assume(model is not None)
        assert t._conjunct_model(lits, nodes[1:]) == model

    def test_negative_ring_past_eight_nodes(self):
        # eleven nodes: a chain of decreasing edges, listed from its end so
        # that each pass moves its distances one edge on, with a ring of
        # weight 0 at its end
        nodes = [t._INIT_NODE] + [f"v{i}" for i in range(10)]
        lits = [(f"v{i + 1}", f"v{i}", -1) for i in reversed(range(9))] + [("v7", "v9", 2)]
        model = t._conjunct_model(lits, nodes[1:])
        assert model == reference_solve(lits, nodes) == {f"v{i}": -i for i in range(10)}


class TestContext:
    @settings(max_examples=300)
    @given(difference_graphs())
    def test_add_keeps_a_feasible_potential_and_undo_restores_it(self, graph):
        """Asserting literals one at a time rejects exactly the one that makes
        the set unsatisfiable; the potential satisfies every kept literal,
        and undoing a rejected literal, or everything, restores the graph."""
        lits, nodes = graph
        ctx, kept = t._Context(), []
        for lit in lits:
            mark, before = len(ctx.trail), dict(ctx.pot)
            ok = ctx._add(lit)
            assert ok == (reference_solve(kept + [lit], nodes) is not None)
            if ok:
                kept.append(lit)
                assert all(ctx.pot[x] - ctx.pot[y] <= c for x, y, c in kept)
            else:
                ctx._undo(mark)
                assert ctx.pot == before
        ctx._undo(0)
        assert ctx.pot == {} and not any(ctx.out.values())


class TestInRange:
    def test_desugar(self):
        p = p_in(INIT, tvar("t"), init_plus(5))
        assert p == And(Leq(INIT, tvar("t")), Leq(tvar("t"), init_plus(5)))


# Hypothesis lists for the shared-root tests: two variables and small offsets
# keep the brute-force oracle's sweep short.
small_times = st.builds(t.TimeExpr, st.one_of(st.none(), st.sampled_from(["t1", "t2"])),
                        st.integers(-3, 3))


def hyp_props(time_strategy):
    """Leq, Eq, Neq, TOP and BOT under Or, Imp and And."""
    atoms = st.one_of(
        st.just(TOP), st.just(BOT),
        st.builds(Leq, time_strategy, time_strategy),
        st.builds(Eq, time_strategy, time_strategy),
        st.builds(t.p_neq, time_strategy, time_strategy),
    )
    return st.recursive(
        atoms,
        lambda inner: st.one_of(st.builds(Or, inner, inner), st.builds(Imp, inner, inner),
                                st.builds(And, inner, inner)),
        max_leaves=3,
    )


def reference_dnf(p, positive: bool) -> list:
    """Disjunctive normal form as a list of conjuncts (lists of literals).

    Integer semantics: not (a <= b) becomes b+1 <= a; equalities split into
    two inequalities, disequalities into a disjunction.  An implication
    flips its left child's polarity, and a node is the product of its
    children's forms exactly when it is a positive And or a negated Or or
    Imp, else their union."""
    if isinstance(p, Leq):
        if positive:
            return [[t._leq_lit(p.left, p.right)]]
        return [[t._leq_lit(p.right.shift(1), p.left)]]
    if isinstance(p, Eq):
        if positive:
            return [[t._leq_lit(p.left, p.right), t._leq_lit(p.right, p.left)]]
        return [[t._leq_lit(p.left.shift(1), p.right)], [t._leq_lit(p.right.shift(1), p.left)]]
    if isinstance(p, (Top, Bot)):
        return [[]] if isinstance(p, Top) == positive else []
    left = reference_dnf(p.left, positive != isinstance(p, Imp))
    right = reference_dnf(p.right, positive)
    if isinstance(p, And) == positive:
        return [a + b for a in left for b in right]
    return left + right


def right_fold(f: list, goal, g: list):
    """The reference for a query's answer: Bellman-Ford's model of the first
    satisfiable conjunct of the right fold of the plain list's DNFs, the
    negated goal pushed last, as ``solve_satisfiable`` or ``entails_cex``
    gives it."""
    conjuncts = [[]]
    for p in reversed(f if goal is None else f + [t.p_not(goal)]):
        conjuncts = [a + b for a in reference_dnf(p, True) for b in conjuncts]
    nodes = (list(dict.fromkeys([t._INIT_NODE, *g, *(n for lit in c for n in lit[:2])]))
             for c in conjuncts)
    models = (reference_solve(c, n) for c, n in zip(conjuncts, nodes))
    model = next(({x: m[x] for x in g} for m in models if m is not None), None)
    return model if goal is None else (model is None, model)


@st.composite
def hyp_trees(draw):
    """Lists as a tree below one root, each pushing a proposition onto the
    root or an earlier list, so a disjunction may sit at any depth; then
    queries in random order, each a list (-1 is the root) and a goal (None
    asks for a model of the list alone)."""
    props = hyp_props(small_times)
    tree = []
    for i in range(draw(st.integers(1, 6))):
        tree.append((draw(st.integers(-1, i - 1)), draw(props)))
    queries = draw(st.lists(st.tuples(st.integers(-1, len(tree) - 1), st.none() | props),
                            min_size=1, max_size=8))
    return tree, queries


class TestHyps:
    G = ["t1", "t2"]

    def test_push_shares_equal_hypotheses(self):
        root = t.Hyps()
        a = root.push(Leq(INIT, tvar("t1")))
        assert root.push(Leq(INIT, tvar("t1"))) is a
        assert a.push(TOP) is a.push(TOP) and a.push(TOP) is not a.push(BOT)
        assert list(a.push(BOT)) == [Leq(INIT, tvar("t1")), BOT] and list(root) == []

    def test_cells_expand_when_a_query_is_decided_under_its_budget(self):
        """A cell reads its hypothesis at the first query decided here, not
        when the list is exported; a query over its budget has read it too,
        and leaves the graph as it found it."""
        big = Eq(tvar("t1"), INIT)
        for i in range(12):
            big = Or(big, Eq(tvar("t1"), init_plus(i)))
        f = t.Hyps().push(big).push(Leq(init_plus(10), tvar("t1")))
        assert f.lits is f.parent.lits is t._UNREAD
        assert "(assert (or" in t.emit_smtlib(self.G, f, TOP)
        assert f.lits is f.parent.lits is t._UNREAD
        # t1 >= 10 refutes the first eleven disjuncts, two literals each
        with pytest.raises(t.FormulaTooLargeError):
            solve_satisfiable(self.G, f, budget=23)
        assert f.parent.lits is None and f.lits == [(t._INIT_NODE, "t1", -10)]
        alone = t._Context()  # the graph of the stack, t1 >= 10 alone
        alone._add(f.lits[0])
        assert f.ctx.stack == [f] and (f.ctx.trail, f.ctx.pot) == (alone.trail, alone.pot)
        assert solve_satisfiable(self.G, f, budget=24) == {"t1": 10, "t2": 10}

    def test_plain_list_queries_leave_no_cycles(self):
        # a plain list is a one-shot query, which a caller may ask while
        # much else is alive, where every collection of the cycle collector
        # is costly
        f = [t.p_neq(tvar("t1"), init_plus(7)), Leq(init_plus(7), tvar("t1"))]
        gc.collect()
        gc.disable()
        try:
            assert solve_satisfiable(["t1"], f) == {"t1": 8}
            assert t.entails_cex(["t1"], f, Leq(init_plus(8), tvar("t1")))[0]
            with pytest.raises(t.FormulaTooLargeError):
                solve_satisfiable(["t1"], f, budget=1)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @settings(max_examples=150)
    @given(hyp_trees())
    def test_shared_root_answers_like_a_fresh_one(self, drawn):
        tree, queries = drawn
        root = t.Hyps()
        cells, lists = [], []
        for parent, p in tree:
            cells.append((root if parent < 0 else cells[parent]).push(p))
            lists.append(([] if parent < 0 else lists[parent]) + [p])
        for k, goal in queries:
            f, plain = (root, []) if k < 0 else (cells[k], lists[k])
            fresh = t.Hyps().extend(plain)
            assert list(f) == plain
            if goal is None:
                model = solve_satisfiable(self.G, f)
                assert model == solve_satisfiable(self.G, fresh) \
                    == solve_satisfiable(self.G, plain)
                assert (model is None) == oracle_entails(self.G, plain, BOT)
                assert model is None or all(eval_prop(q, model) for q in plain)
            else:
                holds, cex = t.entails_cex(self.G, f, goal)
                assert (holds, cex) == t.entails_cex(self.G, fresh, goal) \
                    == t.entails_cex(self.G, plain, goal)
                assert holds == oracle_entails(self.G, plain, goal)
                assert holds or (all(eval_prop(q, cex) for q in plain)
                                 and not eval_prop(goal, cex))

    @settings(max_examples=150)
    @given(hyp_trees(), st.lists(st.integers(0, 12), min_size=8, max_size=8))
    def test_queries_answer_as_the_right_fold(self, drawn, budgets):
        """Each query answers as the right fold of its list's DNFs: on a
        shared root, after queries of other lists at other budgets, on a
        fresh root and as a plain list, and again with a TOP after the
        list.  Asked at a small budget, the three exceed it together or
        give that answer."""
        tree, queries = drawn
        root = t.Hyps()
        cells, lists = [], []
        for parent, p in tree:
            cells.append((root if parent < 0 else cells[parent]).push(p))
            lists.append(([] if parent < 0 else lists[parent]) + [p])

        def ask(f, goal, budget=t.SEARCH_BUDGET):
            try:
                if goal is None:
                    return solve_satisfiable(self.G, f, budget=budget)
                return t.entails_cex(self.G, f, goal, budget=budget)
            except t.FormulaTooLargeError:
                return "exceeded"

        for (k, goal), budget in zip(queries, budgets):
            f, plain = (root, []) if k < 0 else (cells[k], lists[k])
            for f, plain in ((f, plain), (f.push(TOP), plain + [TOP])):
                answer = right_fold(plain, goal, self.G)
                tight = ask(f, goal, budget)
                assert tight == ask(t.Hyps().extend(plain), goal, budget) \
                    == ask(plain, goal, budget)
                assert tight in ("exceeded", answer)
                assert ask(f, goal) == ask(t.Hyps().extend(plain), goal) \
                    == ask(plain, goal) == answer

    @TestSolve.thresholds
    def test_clause_budget_threshold_on_a_shared_root(self, f, goal, budget, answer):
        """The thresholds hold on a root whose graph holds other lists, and
        a query found unsatisfiable is searched again under a smaller
        budget."""
        root = t.Hyps()
        hyps = root.extend(f)
        TestSolve.ask(hyps.parent, goal, t.SEARCH_BUDGET)
        TestSolve.ask(root.push(TOP).extend(f), goal, t.SEARCH_BUDGET)
        for _ in range(2):
            assert TestSolve.ask(hyps, goal, budget) == answer
            with pytest.raises(t.FormulaTooLargeError):
                TestSolve.ask(hyps, goal, budget - 1)
