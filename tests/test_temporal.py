import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tillst import temporal as t
from tillst.temporal import (BOT, INIT, TOP, And, Eq, Imp, Leq, Or,
                             eval_closed_prop, eval_prop, entails, init_plus,
                             p_in, solve_satisfiable, substitute_all, tvar)

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
        big = Eq(tvar("t1"), INIT)
        for i in range(12):
            big = Or(big, Eq(tvar("t1"), init_plus(i)))
        blowup = [big] * 8
        with pytest.raises(t.FormulaTooLargeError):
            solve_satisfiable(["t1"], blowup, budget=50)

    # Each list's budget B is the number of literals its DNF expansion
    # charges: the query answers at B and exceeds the budget at B - 1.  A
    # TOP after the last other hypothesis is skipped, and charges nothing.
    CONJ = [Leq(tvar("t1"), init_plus(5)), Eq(tvar("t2"), tvar("t1", 1)),
            Leq(INIT, tvar("t2")), Eq(tvar("t3"), tvar("t2"))]

    @pytest.mark.parametrize("f,budget", [
        (CONJ, 20),
        ([Or(Leq(tvar("t1"), init_plus(3)), Eq(tvar("t1"), tvar("t2"))),
          t.p_neq(tvar("t2"), tvar("t3")), Leq(tvar("t3"), init_plus(9)),
          t.p_neq(tvar("t1"), INIT)], 60),
        ([Imp(Leq(tvar("t1"), init_plus(3)), Eq(tvar("t2"), INIT)),
          t.p_not(Eq(tvar("t1"), tvar("t2"))), Leq(INIT, tvar("t3")),
          Eq(tvar("t3"), tvar("t1", 2))], 41),
        ([TOP] + CONJ, 26),
        (CONJ[:2] + [TOP] + CONJ[2:], 23),
        (CONJ + [TOP], 20),
    ], ids=["conjunctive", "or-neq", "imp-not-eq", "top-first", "top-middle", "top-last"])
    def test_clause_budget_threshold(self, f, budget):
        assert solve_satisfiable(["t1", "t2", "t3"], f, budget=budget) is not None
        with pytest.raises(t.FormulaTooLargeError):
            solve_satisfiable(["t1", "t2", "t3"], f, budget=budget - 1)

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
        lits, nodes = graph
        assert t._solve_conjunct(lits, nodes) == reference_solve(lits, nodes)

    def test_negative_ring_past_eight_nodes(self):
        # eleven nodes: a ring of weight -1 at the end of a chain of
        # decreasing edges; without the ring's last edge it is satisfiable
        nodes = [t._INIT_NODE] + [f"v{i}" for i in range(10)]
        lits = [(f"v{i + 1}", f"v{i}", -1) for i in range(9)]
        lits += [("v7", "v9", 1), ("v8", "v7", -1), ("v9", "v8", -1)]
        assert t._solve_conjunct(lits, nodes) is None
        assert t._solve_conjunct(lits[:-1], nodes) == reference_solve(lits[:-1], nodes)


class TestInRange:
    def test_desugar(self):
        p = p_in(INIT, tvar("t"), init_plus(5))
        assert p == And(Leq(INIT, tvar("t")), Leq(tvar("t"), init_plus(5)))
