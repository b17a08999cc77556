"""Generated producer/consumer pipelines: schedules consistent by
construction must check and run to their exact deadline; a single injected
inconsistency must be rejected statically and fail at runtime too."""

import random

import pytest

from tillst.cli import build_system
from tillst.parser import parse_program
from tillst.runtime import ExternEnv, replay, run_scheduler
from tillst.typecheck import check_program


def pipeline(stages, close_at):
    """`stages` = list of (produce_at, close_at) per worker, oldest first;
    the driver consumes each value and waits each close in order."""
    decls = []
    for i, (prod, cls) in enumerate(stages):
        decls.append(f"""
fn w{i}() -> Produce<int, t where Eq<t, Shift<t0, {prod}>>,
              Unit<s where Eq<s, Shift<t0, {cls}>>>> {{
    Prod<t where Eq<t, Shift<t0, {prod}>>> $ {i} $;
    Close<s where Eq<s, Shift<t0, {cls}>>>
}}""")
    body = f"Close<z where Eq<z, Shift<t0, {close_at}>>>"
    for i, (prod, cls) in reversed(list(enumerate(stages))):
        # the driver's clock when this spawn happens: previous stage's close
        spawn_at = stages[i - 1][1] if i else 0
        body = f"""Spawn<Shift<t0, {spawn_at}>>(w{i}) {{ h{i} =>
        Cons<Shift<t0, {prod}>>(h{i}) {{ v{i} =>
        Wait<Shift<t0, {cls}>>(h{i});
        {body} }} }}"""
    decls.append(f"""
fn driver() -> Unit<z where Eq<z, Shift<t0, {close_at}>>> {{
    {body}
}}

system go = driver() @ t0;
""")
    return "\n".join(decls)


def random_schedule(rng, depth):
    stages = []
    clock = 0
    for _ in range(depth):
        prod = clock + rng.randint(0, 6)
        cls = prod + rng.randint(0, 6)
        stages.append((prod, cls))
        clock = cls
    return stages, clock + rng.randint(0, 4)


@pytest.mark.parametrize("seed", range(30))
def test_consistent_pipelines_check_and_run(seed):
    rng = random.Random(1000 + seed)
    stages, close_at = random_schedule(rng, rng.randint(1, 3))
    prog = parse_program(pipeline(stages, close_at))
    assert all(r.accepted for r in check_program(prog))
    omega, start, defs = build_system(prog, "go")
    env = ExternEnv(prog)
    result = run_scheduler(omega, start, env=env, defs=defs)
    assert result.status == "done", result.error
    final = result.trace[-1]
    assert (final.action.kind, final.action.direction) == ("close", "send")
    assert final.channel == "go" and final.time == close_at
    assert replay(result.sigma, env, defs)


@pytest.mark.parametrize("seed", range(30))
def test_inconsistent_pipelines_rejected_and_fail(seed):
    rng = random.Random(2000 + seed)
    stages, close_at = random_schedule(rng, rng.randint(1, 3))
    # pull one driver-side instant a tick before its provider window opens
    victim = rng.randrange(len(stages))
    prod, cls = stages[victim]
    src = pipeline(stages, close_at)
    if prod > 0 and rng.random() < 0.5:
        src = src.replace(f"Cons<Shift<t0, {prod}>>(h{victim})",
                          f"Cons<Shift<t0, {prod - 1}>>(h{victim})", 1)
    elif cls > 0:
        src = src.replace(f"Wait<Shift<t0, {cls}>>(h{victim})",
                          f"Wait<Shift<t0, {cls - 1}>>(h{victim})", 1)
    else:
        return
    prog = parse_program(src)
    reports = {r.name: r for r in check_program(prog)}
    if all(r.accepted for r in reports.values()):
        # the mutation may have landed on an instant that is still consistent
        # (e.g. equal adjacent deadlines); nothing to assert then
        return
    assert not reports["driver"].accepted
    omega, start, defs = build_system(prog, "go")
    result = run_scheduler(omega, start, env=ExternEnv(prog), defs=defs)
    assert result.status in ("timing_violation", "deadlock")
