"""Tests of the benchmark itself: its generated inputs and its known
answers, on small sizes of every workload."""

from pathlib import Path

import pytest

import execute
import traced
import workloads
from tillst.parser import parse_program, tokenize
from tillst.temporal import eval_prop

CORPUS = Path(__file__).resolve().parents[2] / "src" / "tillst" / "corpus"
SEEDS = (0, 1, 2)


def small(name: str, seed: int) -> workloads.Workload:
    if name == "fanout":
        return workloads.fanout(seed, sizes=(4, 8))
    if name == "chain":
        return workloads.chain(seed, sizes=(6, 10), probe_depth=20)
    if name == "disjunctive":
        return workloads.disjunctive(seed, sizes=(3, 4), probes=())
    return workloads.corpus(seed, CORPUS, depths=(2, 3), per_depth=1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_timed_programs_parse(name, seed):
    w = workloads.generate(name, seed, CORPUS)
    for program in sorted({op.program for op in w.timed}):
        parse_program(w.files[program])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert workloads.generate(name, 5, CORPUS).files == workloads.generate(name, 5, CORPUS).files


def close_window(text: str):
    prog = parse_program(text)
    body = prog.proc_decl("provider").body
    return {n for n in range(64) if eval_prop(body.pred, {body.binder: n})}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_mutants_differ_in_one_instant(name, seed):
    w = workloads.generate(name, seed, CORPUS)
    mutants = [f for f in w.files if f.endswith("_mut.tsl")]
    assert mutants
    for mut in mutants:
        original = w.files[mut.replace("_mut", "")]
        if name == "disjunctive":
            # the provider no longer excludes one instant
            assert len(close_window(original) ^ close_window(w.files[mut])) == 1
            continue
        a, b = tokenize(original), tokenize(w.files[mut])
        assert len(a) == len(b)
        diff = [(x, y) for x, y in zip(a, b) if x.text != y.text]
        assert len(diff) == 1, mut
        (x, y), = diff
        assert x.kind == y.kind == "INT" and abs(int(x.text) - int(y.text)) == 1


def run_all(w: workloads.Workload, tmp_path: Path, executor) -> list:
    w.write(tmp_path)
    verdicts = execute.Verdicts(w.ops)
    for i, op in enumerate(w.ops):
        if not op.probe:
            verdicts.record(i, executor(op))
    return [(op, verdicts.worst[i]) for i, op in enumerate(w.ops) if not op.probe]


@pytest.mark.parametrize("mode", ["untraced", "traced"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_known_answers_met(name, mode, tmp_path):
    w = small(name, seed=3)
    plain = execute.Untraced(tmp_path)
    executor = plain if mode == "untraced" else traced.Traced(tmp_path, plain.sigmas)
    for op, outcome in run_all(w, tmp_path, executor):
        assert outcome.status != "failed", (op.label, outcome.detail)
        if not op.known_defect:
            assert outcome.status == "right", (op.label, outcome.detail)


def test_output_that_is_no_verdict_stops_the_benchmark():
    op = workloads.Op("check", "x.tsl", 0, workloads.Expect(0, ("ACCEPT x",)))
    assert execute.judge(op, 0, ["ACCEPT x"], 0.0).status == "right"
    assert execute.judge(op, 1, ["REJECT x: TimingViolation at x"], 0.0).status == "wrong"
    assert execute.judge(op, 2, [], 0.0).status == "failed"
    with pytest.raises(execute.Incomparable):
        execute.judge(op, 0, ["Traceback (most recent call last):"], 0.0)
