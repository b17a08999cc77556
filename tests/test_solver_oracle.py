"""Solver soundness against the brute-force oracle, and SMT-LIB2 export."""

import random
import shutil

import pytest

from helpers import entails
from oracle import agreement_report, oracle_entails
from tillst import temporal as t
from tillst.temporal import INIT, TOP, emit_smtlib, init_plus, tvar


def test_agrees_with_oracle_everywhere():
    instances, disagreements = agreement_report()
    assert len(instances) >= 500
    assert disagreements == []


def test_structured_cases_against_oracle():
    cases = [
        (["t1"], [t.Leq(INIT, tvar("t1"))], t.Leq(INIT, tvar("t1", 5))),
        (["t1"], [t.Leq(INIT, tvar("t1"))], t.Leq(tvar("t1"), init_plus(10))),
        (["t1", "t2"],
         [t.Leq(init_plus(3), tvar("t1")), t.Leq(tvar("t1"), init_plus(15)),
          t.Eq(tvar("t2"), tvar("t1", 10))],
         t.Leq(tvar("t2"), init_plus(10))),
        ([], [], TOP),
        ([], [], t.BOT),
    ]
    for g, f, p in cases:
        assert entails(g, f, p) == oracle_entails(g, f, p)


class TestSmtExport:
    def test_script_shape(self):
        script = emit_smtlib(["t1"], [t.Leq(INIT, tvar("t1"))], t.Leq(INIT, tvar("t1")))
        assert script.startswith("(set-logic QF_LIA)")
        assert "(declare-const init Int)" in script
        assert "(assert (= init 0))" in script
        assert "(declare-const t1 Int)" in script
        assert script.rstrip().endswith("(check-sat)")
        assert script.count("(") == script.count(")")

    def test_bottom_from_nothing_is_sat(self):
        # externally sat means the entailment fails
        assert not entails([], [], t.BOT)
        script = emit_smtlib([], [], t.BOT)
        assert "(assert (not false))" in script

    def test_freshened_names_are_quoted(self):
        script = emit_smtlib(["t#9"], [], t.Leq(tvar("t#9"), INIT))
        assert "|t#9|" in script

    def test_deadline_query_matches_internal(self):
        g = ["t1", "t2"]
        f = [t.Leq(init_plus(3), tvar("t1")), t.Leq(tvar("t1"), init_plus(15)),
             t.Eq(tvar("t2"), tvar("t1", 10))]
        p = t.Leq(tvar("t2"), init_plus(10))
        assert not entails(g, f, p)  # so the exported script must be sat
        script = emit_smtlib(g, f, p)
        assert script.count("assert") == len(f) + 2  # init anchor + negated goal


def _find_solver():
    import os

    if os.environ.get("SOLVER_BIN"):
        return os.environ["SOLVER_BIN"]
    for name in ("z3", "cvc5", "cvc4"):
        path = shutil.which(name)
        if path:
            return path
    return None


SOLVER = _find_solver()


@pytest.mark.skipif(SOLVER is None, reason="no external SMT solver on PATH")
def test_external_solver_agrees_with_internal():
    instances, _ = agreement_report()
    rng = random.Random(7)
    sample = rng.sample(range(len(instances)), 40)
    for i in sample:
        g, f, p = instances[i]
        internal = entails(g, f, p)
        external = t.entails_external(g, f, p, solver_bin=SOLVER)
        assert internal == external, (g, f, p)


def test_external_plumbing_with_stub_solver(tmp_path):
    # a fake binary exercises the spawn/parse path without a real solver
    stub = tmp_path / "stub_solver"
    stub.write_text("#!/bin/sh\necho unsat\n")
    stub.chmod(0o755)
    assert t.run_external_solver("(check-sat)\n", str(stub)) == "unsat"
    assert t.entails_external([], [], TOP, solver_bin=str(stub))

    liar = tmp_path / "noise"
    liar.write_text("#!/bin/sh\necho hello world\n")
    liar.chmod(0o755)
    with pytest.raises(t.SolverError):
        t.run_external_solver("(check-sat)\n", str(liar))


def test_external_timeout(tmp_path):
    sleeper = tmp_path / "sleeper"
    sleeper.write_text("#!/bin/sh\nsleep 5\n")
    sleeper.chmod(0o755)
    with pytest.raises(t.SolverTimeout):
        t.run_external_solver("(check-sat)\n", str(sleeper), timeout_ms=100)
