"""Independent brute-force ground truth for the entailment judgment.

Enumerates every assignment of the context variables over a window wide
enough to contain a model whenever one exists (difference constraints have
the small-model property once init is anchored at 0; the window is symmetric
because variables may be placed before init).  Each proposition is compiled
to a closure first so the sweep stays affordable.
"""

from itertools import product

from tillst import temporal as t


def _atoms(p):
    if isinstance(p, (t.Top, t.Bot)):
        return []
    if isinstance(p, (t.And, t.Or, t.Imp)):
        return _atoms(p.left) + _atoms(p.right)
    return [p]


def model_bound(g, f, p) -> int:
    atoms = [a for q in list(f) + [p] for a in _atoms(q)]
    offsets = sum(abs(a.left.offset) + abs(a.right.offset) for a in atoms)
    # one extra unit per atom covers the integer tightening of negations
    return offsets + len(list(g)) + len(atoms) + 1


def compile_prop(p, index):
    if isinstance(p, t.Top):
        return lambda vals: True
    if isinstance(p, t.Bot):
        return lambda vals: False
    if isinstance(p, t.And):
        lf, rf = compile_prop(p.left, index), compile_prop(p.right, index)
        return lambda vals: lf(vals) and rf(vals)
    if isinstance(p, t.Or):
        lf, rf = compile_prop(p.left, index), compile_prop(p.right, index)
        return lambda vals: lf(vals) or rf(vals)
    if isinstance(p, t.Imp):
        lf, rf = compile_prop(p.left, index), compile_prop(p.right, index)
        return lambda vals: (not lf(vals)) or rf(vals)
    li = index.get(p.left.var, -1)
    ri = index.get(p.right.var, -1)
    lo, ro = p.left.offset, p.right.offset
    if isinstance(p, t.Eq):
        return lambda vals: (vals[li] if li >= 0 else 0) + lo == \
            (vals[ri] if ri >= 0 else 0) + ro
    return lambda vals: (vals[li] if li >= 0 else 0) + lo <= \
        (vals[ri] if ri >= 0 else 0) + ro


def oracle_entails(g, f, p) -> bool:
    """True iff no assignment in the model window satisfies f but not p."""
    names = list(dict.fromkeys(g))
    index = {n: i for i, n in enumerate(names)}
    bound = model_bound(names, f, p)
    hyps = [compile_prop(q, index) for q in f]
    goal = compile_prop(p, index)
    if not names:
        return goal(()) or not all(h(()) for h in hyps)
    for vals in product(range(-bound, bound + 1), repeat=len(names)):
        if all(h(vals) for h in hyps) and not goal(vals):
            return False
    return True


VARS = ["t1", "t2", "t3", "t4"]


def _rand_time(rng, nvars, max_off):
    if nvars and rng.random() < 0.7:
        return t.tvar(rng.choice(VARS[:nvars]), rng.randint(-max_off, max_off))
    return t.init_plus(rng.randint(-max_off, max_off))


def _rand_atom(rng, nvars, max_off):
    a, b = _rand_time(rng, nvars, max_off), _rand_time(rng, nvars, max_off)
    pick = rng.randrange(7)
    if pick == 0:
        return t.Eq(a, b)
    if pick == 1:
        return t.p_lt(a, b)
    if pick == 2:
        return t.p_geq(a, b)
    if pick == 3:
        return t.p_neq(a, b)
    if pick == 4:
        return t.p_in(a, b, _rand_time(rng, nvars, max_off))
    return t.Leq(a, b)


def rand_prop(rng, nvars, max_off, depth):
    if depth == 0 or rng.random() < 0.55:
        roll = rng.random()
        if roll < 0.04:
            return t.TOP
        if roll < 0.08:
            return t.BOT
        return _rand_atom(rng, nvars, max_off)
    ctor = rng.choice([t.And, t.Or, t.Imp])
    return ctor(rand_prop(rng, nvars, max_off, depth - 1),
                rand_prop(rng, nvars, max_off, depth - 1))


def generate_instances(count=520, seed=20260808):
    """Random entailment instances, sized so the oracle sweep stays cheap:
    up to 4 variables, offsets up to 20."""
    import random

    rng = random.Random(seed)
    shapes = [
        # (weight, nvars, max_off, hypotheses, depth)
        (16, 0, 20, 2, 2),
        (30, 1, 20, 2, 2),
        (30, 2, 12, 2, 2),
        (16, 3, 3, 2, 1),
        (8, 4, 1, 1, 1),
    ]
    bag = [shape for shape in shapes for _ in range(shape[0])]
    out = []
    while len(out) < count:
        _, nvars, max_off, nhyp, depth = rng.choice(bag)
        g = VARS[:nvars]
        f = [rand_prop(rng, nvars, max_off, depth) for _ in range(rng.randint(0, nhyp))]
        p = rand_prop(rng, nvars, max_off, depth)
        out.append((g, f, p))
    return out


_agreement_cache = {}


def agreement_report(count=520, seed=20260808):
    """(instances, disagreement indexes); computed once per session."""
    from helpers import entails

    key = (count, seed)
    if key not in _agreement_cache:
        instances = generate_instances(count, seed)
        bad = [i for i, (g, f, p) in enumerate(instances)
               if entails(g, f, p) != oracle_entails(g, f, p)]
        _agreement_cache[key] = (instances, bad)
    return _agreement_cache[key]
