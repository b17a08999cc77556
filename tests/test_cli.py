import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tillst import corpus_path
from tillst.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the benchmark's generators
from compare_outputs import (LATE_OR, extern_call_program, or_chain,  # noqa: E402
                             provider_program, spawn_arity_program)
from perfbench.workloads import chain_type, disjunctive_program  # noqa: E402


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_subprocess(*args):
    # the timeout turns a run that never ends into a failure, not a hang
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-m", "tillst.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)


# Python 3.10 converts integers of any length; 3.11 refuses past a limit
needs_int_digit_limit = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python converts integers of any length")


# a window and a term predicate that name x, which nothing binds
OPEN_WINDOW = ("type T = Unit<t where And<Geq<t, t0>, Leq<x, t>>>; fn p() -> T { "
               "Close<u where And<Geq<u, t0>, Leq<x, u>>> } system s = p() @ t0;\n")


class TestCheck:
    def test_clean_corpus_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "check", corpus_path("smart_home.tsl"))
        assert code == 0
        assert out.splitlines() == ["ACCEPT hub", "ACCEPT hub_main"]

    def test_rejection_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "check", corpus_path("p3_deadline_miss.tsl"))
        assert code == 1
        assert out.startswith("REJECT p3: TimingViolation")

    def test_unbound_time_variable_rejected(self, capsys, tmp_path):
        # its run stops at the open window (UNCHECKED below), so check must
        # not accept it
        path = tmp_path / "open.tsl"
        path.write_text(OPEN_WINDOW)
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 1
        assert out == ("REJECT p: ShapeMismatch at p/offered: type window "
                       "And<Leq<t0, t#1>, Leq<x, t#1>> names unbound time variable x\n")

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "/nonexistent/zzz.tsl")
        assert code == 2 and "cannot read" in err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsl"
        bad.write_text("type = broken")
        code, _, err = run_cli(capsys, "check", str(bad))
        assert code == 2

    def test_t0_binder_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "t0.tsl"
        bad.write_text("fn p() -> Unit<t0 where Eq<t0, t0>> { Close<t0 where Eq<t0, t0>> }")
        code, out, err = run_cli(capsys, "check", str(bad))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad}:1:16: t0 is the initial instant")

    def test_report_is_deterministic(self, capsys):
        for name in ("keyless_entry.tsl", "cut_bad.tsl", "deadlock.tsl",
                     "unsound_forward.tsl"):
            a = run_cli(capsys, "check", corpus_path(name))
            b = run_cli(capsys, "check", corpus_path(name))
            assert a == b, name

    def test_external_backend_without_binary(self, capsys, monkeypatch):
        monkeypatch.delenv("SOLVER_BIN", raising=False)
        code, _, err = run_cli(capsys, "check", corpus_path("minimum.tsl"),
                               "--solver", "external")
        assert code == 2 and "SOLVER_BIN" in err

    def test_external_backend_with_stub(self, capsys, tmp_path):
        # an always-unsat stub validates every judgment, so checking succeeds
        stub = tmp_path / "stub"
        stub.write_text("#!/bin/sh\necho unsat\n")
        stub.chmod(0o755)
        code, out, _ = run_cli(capsys, "check", corpus_path("minimum.tsl"),
                               "--solver", "external", "--solver-bin", str(stub))
        assert code == 0 and "ACCEPT minimum" in out

    def test_external_backend_asks_about_a_window_too_large_to_expand(self, capsys,
                                                                       tmp_path):
        # the external backend reads no hypothesis: it only writes scripts
        asked = tmp_path / "asked"
        stub = tmp_path / "stub"
        stub.write_text(f"#!/bin/sh\necho \"$1\" >> {asked}\necho unsat\n")
        stub.chmod(0o755)
        path = tmp_path / "win16.tsl"
        path.write_text(window_program(16))
        code, out, err = run_cli(capsys, "check", str(path), "--solver", "external",
                                 "--solver-bin", str(stub))
        assert (code, err) == (0, "") and "ACCEPT provider" in out
        assert len(asked.read_text().splitlines()) == 3


class TestRun:
    def test_smart_home_trace(self, capsys, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        code, out, _ = run_cli(capsys, "run", corpus_path("smart_home.tsl"),
                               "--entry", "main", "--trace", str(out_path))
        assert code == 0 and "done at t0+50" in out
        lines = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert len(lines) == 9
        assert lines[-1] == {"time": 50, "dir": "send", "kind": "close",
                             "channel": "main", "payload": None}

    def test_adequacy_single_event(self, capsys, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(capsys, "run", corpus_path("adequacy.tsl"),
                             "--entry", "run5", "--trace", str(out_path))
        assert code == 0
        lines = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert lines[-1]["time"] == 5 and lines[-1]["kind"] == "close"

    def test_deadlock_exits_one(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "run", corpus_path("deadlock.tsl"),
                               "--entry", "dead", "--trace",
                               str(tmp_path / "t.jsonl"))
        assert code == 1 and "deadlock" in out

    def test_parameters_bound_in_one_pass(self, capsys, tmp_path):
        # the instance bound to x is named like the parameter y: binding x
        # first must not send y's sensor to x as well
        src = open(corpus_path("smart_home.tsl"), encoding="utf-8").read()
        src = src.replace("hub_main(x = bme680 as s1, y = bme680 as s2)",
                          "hub_main(x = bme680 as y, y = bme680 as s2)")
        path = tmp_path / "swapped.tsl"
        path.write_text(src)
        code, out, _ = run_cli(capsys, "run", str(path), "--entry", "main")
        assert code == 0
        assert out.splitlines()[-1] == "done at t0+50 (9 events)"

    def test_negative_instants_spelled_with_a_minus(self, capsys, tmp_path):
        path = tmp_path / "late.tsl"
        path.write_text("""
        type U = Unit<u where Geq<u, t0>>
        automaton a { state S0 init; S0 --[!cls]--> accept; }
        fn late(x: U) -> U { Wait<Shift<t0, -3>>(x); Close<u where Geq<u, t0>> }
        system st = late(x = a as s1) @ t0;
        """)
        code, out, _ = run_cli(capsys, "run", str(path), "--entry", "st")
        assert code == 1 and out == ("timing_violation: client instant t0-3 on s1 "
                                     "misses the provider window <instant already passed>\n")
        trace = tmp_path / "early.jsonl"
        trace.write_text('{"time": -2, "dir": "send", "kind": "close", "channel": "s1"}\n')
        code, out, _ = run_cli(capsys, "monitor", str(path), "--type", "U",
                               "--trace", str(trace))
        assert code == 1 and "event at t0-2 precedes t0+0" in out

    def test_horizon_names_the_next_instant(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "run", corpus_path("smart_home.tsl"), "--entry", "main",
                               "--horizon", "10", "--trace", str(tmp_path / "t.jsonl"))
        assert (code, out) == (1, "horizon: next pending instant t0+30 is past the "
                                  "horizon t0+10\n")

    def test_horizon_names_the_least_pending_instant(self, capsys, tmp_path):
        # the window's first disjunct opens later than its second
        path = tmp_path / "late.tsl"
        path.write_text(provider_program(LATE_OR))
        code, out, _ = run_cli(capsys, "run", str(path), "--entry", "st", "--horizon", "50")
        assert (code, out) == (1, "horizon: next pending instant t0+60 is past the "
                                  "horizon t0+50\n")
        code, out, _ = run_cli(capsys, "run", str(path), "--entry", "st")
        assert code == 0 and out.splitlines()[-1] == "done at t0+60 (1 events)"

    def test_negative_horizon_exits_two_before_running(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        code, out, err = run_cli(capsys, "run", corpus_path("smart_home.tsl"), "--entry", "main",
                                 "--horizon", "-5", "--trace", str(trace))
        assert (code, out) == (2, "")
        assert err == "error: --horizon must not be negative, got -5\n"
        assert not trace.exists()

    def test_unknown_entry(self, capsys):
        code, _, err = run_cli(capsys, "run", corpus_path("adequacy.tsl"),
                               "--entry", "nope")
        assert code == 2

    def test_trace_over_a_longer_file_is_cut_to_length(self, capsys, tmp_path):
        fresh, used = tmp_path / "fresh.jsonl", tmp_path / "used.jsonl"
        used.write_text("x" * 100000 + "\n")
        for path in (fresh, used):
            code, _, _ = run_cli(capsys, "run", corpus_path("smart_home.tsl"),
                                 "--entry", "main", "--trace", str(path))
            assert code == 0
        assert used.read_bytes() == fresh.read_bytes()
        assert len(fresh.read_text().splitlines()) == 9

    @pytest.mark.skipif(os.name != "posix", reason="os.devnull is a device only on POSIX")
    def test_trace_to_devnull(self, capsys):
        code, out, err = run_cli(capsys, "run", corpus_path("smart_home.tsl"),
                                 "--entry", "main", "--trace", os.devnull)
        assert (code, out, err) == (0, "done at t0+50 (9 events)\n", "")

    def test_trace_to_a_directory_exits_two(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "run", corpus_path("smart_home.tsl"),
                                 "--entry", "main", "--trace", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write trace: ")


class TestSmt:
    def test_query_dump_matches_inline_verdicts(self, capsys, tmp_path):
        out_dir = tmp_path / "queries"
        code, out, _ = run_cli(capsys, "smt", corpus_path("p3_deadline_miss.tsl"),
                               "--out", str(out_dir))
        assert code == 0
        index = json.loads((out_dir / "index.json").read_text())
        assert len(index) > 0
        files = sorted(p for p in os.listdir(out_dir) if p.endswith(".smt2"))
        assert len(files) == len(index)
        assert all(entry["ms"] >= 0 for entry in index)
        # the failing judgment shows up as a refuted (sat) query
        assert any(not entry["holds"] for entry in index)
        # every dumped script re-checks to the recorded verdict
        from tillst import temporal as t
        from tillst.parser import parse_program
        from tillst.typecheck import LoggingSolver, check_program

        solver = LoggingSolver()
        check_program(parse_program(open(corpus_path("p3_deadline_miss.tsl")).read()),
                      solver)
        assert [q.holds for q in solver.queries] == [e["holds"] for e in index]

    def test_clean_program_all_unsat(self, capsys, tmp_path):
        out_dir = tmp_path / "queries"
        code, _, _ = run_cli(capsys, "smt", corpus_path("smart_home.tsl"),
                             "--out", str(out_dir))
        assert code == 0
        index = json.loads((out_dir / "index.json").read_text())
        assert index and all(entry["holds"] for entry in index)

    def test_second_dump_over_the_first_leaves_the_same_files(self, capsys, tmp_path):
        out_dir = tmp_path / "queries"

        def dump():
            code, _, _ = run_cli(capsys, "smt", corpus_path("p3_deadline_miss.tsl"),
                                 "--out", str(out_dir))
            assert code == 0
            files = {p.name: p.read_text() for p in sorted(out_dir.iterdir())}
            index = json.loads(files.pop("index.json"))
            return files, [{k: v for k, v in e.items() if k != "ms"} for e in index]

        first = dump()
        # pad half the files past what the next dump writes and cut the rest
        # short; index.json is compared without its times, which vary by run
        for i, path in enumerate(sorted(out_dir.iterdir())):
            path.write_text(path.read_text()[:10] if i % 2 else path.read_text() * 3)
        assert dump() == first

    def test_empty_program_zero_queries(self, capsys, tmp_path):
        empty = tmp_path / "empty.tsl"
        empty.write_text("")
        out_dir = tmp_path / "queries"
        code, out, _ = run_cli(capsys, "smt", str(empty), "--out", str(out_dir))
        assert code == 0 and "0 queries" in out


class TestMonitorCmd:
    def trace_for(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        run_cli(capsys, "run", corpus_path("smart_home.tsl"),
                "--entry", "main", "--trace", str(path))
        return path

    def test_conforming_channel(self, capsys, tmp_path):
        path = self.trace_for(capsys, tmp_path)
        code, out, _ = run_cli(capsys, "monitor", corpus_path("smart_home.tsl"),
                               "--type", "BME680", "--trace", str(path),
                               "--channel", "s1")
        assert code == 0 and "conforms" in out

    def test_violation_reported_with_index(self, capsys, tmp_path):
        path = self.trace_for(capsys, tmp_path)
        lines = path.read_text().splitlines()
        doctored = []
        for line in lines:
            obj = json.loads(line)
            if obj["channel"] == "s1" and obj["payload"] == "read_gas@s1":
                obj["time"] = 29
            doctored.append(json.dumps(obj))
        path.write_text("\n".join(doctored) + "\n")
        code, out, _ = run_cli(capsys, "monitor", corpus_path("smart_home.tsl"),
                               "--type", "BME680", "--trace", str(path),
                               "--channel", "s1")
        assert code == 1 and "violation at event 2" in out

    def test_multichannel_needs_flag(self, capsys, tmp_path):
        path = self.trace_for(capsys, tmp_path)
        code, _, err = run_cli(capsys, "monitor", corpus_path("smart_home.tsl"),
                               "--type", "BME680", "--trace", str(path))
        assert code == 2 and "--channel" in err

    def test_channel_the_trace_never_names_exits_two(self, capsys, tmp_path):
        # a channel only a silent event names is observed, with no exchange
        path = tmp_path / "spawned.jsonl"
        path.write_text('{"time": 0, "dir": "silent", "kind": "chan", "channel": "s9", '
                        '"payload": "spawn"}\n')
        args = ("monitor", corpus_path("smart_home.tsl"), "--type", "BME680",
                "--trace", str(path), "--channel")
        assert run_cli(capsys, *args, "s9") == (
            1, "violation at event 0: trace ended before the protocol closed\n", "")
        assert run_cli(capsys, *args, "nosuch") == (
            2, "", f"error: trace {path} never names channel nosuch\n")

    def test_unbound_time_variable_exits_two(self, capsys, tmp_path):
        # check rejects this type's window (TestCheck), so the monitor
        # refuses it as malformed input rather than blame the trace
        program, trace = tmp_path / "open.tsl", tmp_path / "close.jsonl"
        program.write_text(OPEN_WINDOW)
        trace.write_text('{"time": 0, "dir": "send", "kind": "close", "channel": "c", '
                         '"payload": null}\n')
        assert run_cli(capsys, "monitor", str(program), "--type", "T",
                       "--trace", str(trace)) == (
            2, "", "error: type window And<Leq<t0, t#1>, Leq<x, t#1>> "
                   "names unbound time variable x\n")

    def test_received_halves_do_not_conform(self, capsys, tmp_path):
        path = self.trace_for(capsys, tmp_path)
        flipped = [dict(obj, dir="recv") if obj["channel"] == "s1" else obj
                   for obj in map(json.loads, path.read_text().splitlines())]
        path.write_text("".join(json.dumps(obj) + "\n" for obj in flipped))
        code, out, _ = run_cli(capsys, "monitor", corpus_path("smart_home.tsl"),
                               "--type", "BME680", "--trace", str(path),
                               "--channel", "s1")
        assert code == 1 and "violation at event 0" in out

    def test_trace_that_is_not_utf8_exits_two(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"time": 0, "dir": "send", "kind": "label", "channel": "s1", '
                         b'"payload": "\xff"}\n')
        proc = run_subprocess("monitor", corpus_path("smart_home.tsl"),
                              "--type", "BME680", "--trace", str(path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot read trace: 'utf-8' codec")
        assert proc.stderr.count("\n") == 1

    GOOD = '{"time": 0, "dir": "send", "kind": "close", "channel": "a", "payload": null}'

    @pytest.mark.parametrize("line,reason", [
        ("{not json", "not a JSON object"),
        ("[1, 2]", "not a JSON object"),
        ("[" * 100000, "not a JSON object"),
        ('{"time": 0, "dir": "send", "kind": "close", "payload": null}',
         "missing key 'channel'"),
        (GOOD.replace('"send"', '"sideways"'), "dir 'sideways'"),
        (GOOD.replace('"close"', '"datagram"'), "kind 'datagram'"),
        (GOOD.replace('"time": 0', '"time": "soon"'), "time 'soon' is not an integer"),
        (GOOD.replace('"a"', '5'), "channel 5 is not a string"),
        (GOOD.replace('"close"', '"label"').replace("null", "5"),
         "payload 5 is not a string or null"),
    ], ids=["not-json", "not-an-object", "too-deep", "missing-key", "bad-dir", "bad-kind",
            "bad-time", "bad-channel", "bad-payload"])
    def test_malformed_trace_line_exits_two(self, tmp_path, line, reason):
        path = tmp_path / "bad.jsonl"
        path.write_text(self.GOOD + "\n" + line + "\n")
        proc = run_subprocess("monitor", corpus_path("smart_home.tsl"),
                              "--type", "BME680", "--trace", str(path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {path}:2: {reason}")

    def test_malformed_line_off_the_watched_channel_exits_two(self, capsys, tmp_path):
        # the filter never skips validation: a line cut short on s2 is
        # reported though only s1 is monitored
        path = self.trace_for(capsys, tmp_path)
        lines = path.read_text().splitlines()
        at = next(n for n, line in enumerate(lines) if json.loads(line)["channel"] == "s2")
        lines[at] = lines[at][:len(lines[at]) // 2]
        path.write_text("".join(line + "\n" for line in lines))
        assert run_cli(capsys, "monitor", corpus_path("smart_home.tsl"), "--type", "BME680",
                       "--trace", str(path), "--channel", "s1") == (
            2, "", f"error: {path}:{at + 1}: not a JSON object\n")

    def test_two_objects_on_one_line_exit_two(self, capsys, tmp_path):
        path = tmp_path / "two.jsonl"
        path.write_text(self.GOOD + "\n" + self.GOOD + " " + self.GOOD + "\n")
        for channel in ("a", "b"):
            assert run_cli(capsys, "monitor", corpus_path("smart_home.tsl"), "--type", "BME680",
                           "--trace", str(path), "--channel", channel) == (
                2, "", f"error: {path}:2: not a JSON object\n")


def window_program(k: int) -> str:
    """A close window from t0 that excludes its first k instants, written
    like the benchmark's disjunctive generator writes it."""
    pred = "Geq<t, Shift<t0, 0>>"
    for e in reversed(range(k)):
        pred = f"And<Neq<t, Shift<t0, {e}>>, {pred}>"
    return (f"type WIN = Unit<t where {pred}>\n\n"
            f"fn provider() -> WIN {{\n    Close<t where {pred}>\n}}\n\n"
            "system go = provider() @ t0;\n")


class TestSolverFailuresExitTwo:
    def test_external_solver_without_verdict(self):
        proc = run_subprocess("check", corpus_path("minimum.tsl"),
                              "--solver", "external", "--solver-bin", "/bin/true")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: /bin/true produced no sat/unsat verdict (stdout: '')\n"

    def test_search_over_budget(self, tmp_path):
        path = tmp_path / "or15.tsl"
        path.write_text(or_chain(15))
        proc = run_subprocess("check", str(path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: solver search exceeded its budget of 100000 literals\n"

    def test_window_restated_within_budget(self, tmp_path, capsys):
        # each stage's window queries restate their last hypothesis, so they
        # take no search and 14 stages fit the budget; 15 do not (above)
        path = tmp_path / "or14.tsl"
        path.write_text(or_chain(14))
        assert run_cli(capsys, "check", str(path)) == (0, "ACCEPT ors\n", "")


def test_import_loads_no_solver_or_dataclass_machinery():
    # no timing: which modules ``import tillst.cli`` pulls in, without the
    # site module's preloads; ``subprocess`` loads only for an external solver.
    # Then the package's modules it leaves unloaded: every module shipped is
    # one the CLI runs, so code only tests call lives under tests/
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = ("import sys, tillst.cli\n"
             "print(sorted(m for m in ('dataclasses', 'inspect', 'subprocess',"
             " 'importlib.resources', 'typing', 'json') if m in sys.modules))\n"
             "import pkgutil, tillst\n"
             "print(sorted(m.name for m in pkgutil.iter_modules(tillst.__path__)"
             " if 'tillst.' + m.name not in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n[]\n"


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # the second and third calls reuse the parser the first one built
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    counts = []
    for _ in range(3):
        assert run_cli(capsys, "check", corpus_path("smart_home.tsl"))[0] == 0
        counts.append(len(built))
    assert counts[0] == counts[1] == counts[2]


def test_system_binding_must_name_a_parameter(tmp_path, capsys):
    src = (
        "automaton noop { state S0 init; S0 --[!cls]--> accept; }\n"
        "fn f(x: Unit<t where Geq<t, t0>>) -> Unit<u where Geq<u, t0>> {\n"
        "    Wait<t0>(x); Close<u where Geq<u, t0>>\n"
        "}\n"
        "system bad = f(y = noop as n1) @ t0;\n"
    )
    path = tmp_path / "bad_binding.tsl"
    path.write_text(src)
    code = main(["run", str(path), "--entry", "bad"])
    err = capsys.readouterr().err
    assert code == 2 and "no parameter y" in err


SPAWNS = ("type U = Unit<t where Eq<t, t0>>;\n"
          "fn g() -> U { Close<t where Eq<t, t0>> }\n"
          "fn a() -> U { Spawn<t0>(g) { x => Wait<t0>(x); Close<t where Eq<t, t0>> } }\n"
          "fn e() -> U { Spawn<t0>(g) { x => Wait<t0>(x); Spawn<t0>(a) { y => Wait<t0>(y);\n"
          "    Spawn<t0>(g) { z => Wait<t0>(z); Close<t where Eq<t, t0>> } } } }\n"
          "fn b() -> U { Spawn<t0>(c) { x => Wait<t0>(x); Close<t where Eq<t, t0>> } }\n"
          "fn c() -> U { Spawn<t0>(b) { x => Wait<t0>(x); Close<t where Eq<t, t0>> } }\n"
          "fn d() -> U { Spawn<t0>(g) { x => Wait<t0>(x); Spawn<t0>(b) { y => Wait<t0>(y);\n"
          "    Close<t where Eq<t, t0>> } } }\n"
          "system shared = e() @ t0;\nsystem cycle = d() @ t0;\n")


def test_run_refuses_only_a_spawn_cycle(tmp_path):
    # g is spawned three times on two paths from e, which is no cycle; d
    # reaches b, which spawns c, which spawns b
    path = tmp_path / "spawns.tsl"
    path.write_text(SPAWNS)
    shared = run_subprocess("run", str(path), "--entry", "shared")
    assert (shared.returncode, shared.stdout.splitlines()[-1]) == (0, "done at t0+0 (9 events)")
    cycle = run_subprocess("run", str(path), "--entry", "cycle")
    assert (cycle.returncode, cycle.stdout, cycle.stderr) == \
        (2, "", "error: recursive spawn chain through b is not supported\n")


class TestMalformedInputExitsTwo:
    def test_non_decimal_digit(self, tmp_path):
        path = tmp_path / "sup.tsl"
        path.write_text("type T = Unit<t where Eq<t, Shift<t0, ²>>>\n", encoding="utf-8")
        proc = run_subprocess("check", str(path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: {path}:1:39: unexpected character '²'\n"

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bad.tsl"
        path.write_bytes(b"\xff\xfe bad")
        proc = run_subprocess("check", str(path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: cannot read {path}: 'utf-8' codec")
        assert proc.stderr.count("\n") == 1

    @needs_int_digit_limit
    def test_shift_past_the_int_digit_limit(self, tmp_path):
        digits = sys.get_int_max_str_digits() + 700
        path = tmp_path / "shift.tsl"
        path.write_text(f"type T = Unit<t where Eq<t, Shift<t0, {'1' * digits}>>>\n")
        proc = run_subprocess("check", str(path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (f"error: {path}:1:39: integer literal of {digits} digits "
                               "is too long\n")

    @needs_int_digit_limit
    def test_value_past_the_int_digit_limit(self, tmp_path):
        # each factor converts, so the checker accepts; the product does not
        factor = "9" * (sys.get_int_max_str_digits() - 300)
        path = tmp_path / "prod.tsl"
        path.write_text(
            "fn f() -> Produce<int, t where Eq<t, t0>, Unit<u where Eq<u, t0>>> {\n"
            f"    Prod<t where Eq<t, t0>> $ {factor} * {factor} $;\n"
            "    Close<u where Eq<u, t0>>\n}\nsystem go = f() @ t0;\n")
        assert run_subprocess("check", str(path)).stdout == "ACCEPT f\n"
        proc = run_subprocess("run", str(path), "--entry", "go")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: integer of about ")
        assert proc.stderr.endswith(" digits is too long to print\n")

    def test_deeply_nested_predicate(self, tmp_path):
        pred = "Geq<t, t0>"
        for _ in range(2000):
            pred = f"And<{pred}, Leq<t0, t>>"
        path = tmp_path / "deep.tsl"
        path.write_text(f"type D = Unit<t where {pred}>\n\n"
                        f"fn provider() -> D {{\n    Close<t where {pred}>\n}}\n")
        proc = run_subprocess("check", str(path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: input nested too deeply\n"

    def test_bind_annotation_outside_spawn(self, tmp_path):
        # the parser used to read ``x : T`` here and throw T away, so a
        # Lam whose argument can never close was accepted
        path = tmp_path / "lam.tsl"
        path.write_text(
            "fn f() -> Lolli<t where Leq<t0, t>, Unit<w where True>, Unit<v where Eq<v, t>>> {\n"
            "    Lam<t where Leq<t0, t>> { x : Unit<w where False> => "
            "Wait<t>(x); Close<v where Eq<v, t>> }\n}\n")
        proc = run_subprocess("check", str(path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: {path}:2:33: found ':' (expected one of: =>)\n"

    # ``run`` and ``monitor`` do not type-check the program first, so a
    # defect ``check`` would reject can still stop them; each is one error
    # line with exit 2.
    UNCHECKED = {
        "undeclared_extern": (
            ["run", "--entry", "go"],
            "fn f() -> Produce<int, t where Eq<t, t0>, Unit<u where Eq<u, t0>>> {\n"
            "    Prod<t where Eq<t, t0>> $ nosuch() $;\n    Close<u where Eq<u, t0>>\n}\n"
            "system go = f() @ t0;\n",
            "extern nosuch is not declared"),
        "open_client_instant": (
            ["run", "--entry", "go"],
            "fn g() -> Unit<t where True> {\n    Close<t where True>\n}\n"
            "fn f() -> Unit<u where True> {\n"
            "    Spawn<t0>(g) { x => Wait<zz>(x); Close<u where True> }\n}\n"
            "system go = f() @ t0;\n",
            "time expression zz is not closed"),
        "open_shifted_instant": (
            ["run", "--entry", "go"],
            "fn g() -> Unit<t where True> {\n    Close<t where True>\n}\n"
            "fn f() -> Unit<u where True> {\n"
            "    Spawn<t0>(g) { x => Wait<Shift<zz, 3>>(x); Close<u where True> }\n}\n"
            "system go = f() @ t0;\n",
            "time expression Shift<zz, 3> is not closed"),
        "open_provider_window": (
            ["run", "--entry", "go"],
            "fn f() -> Unit<t where True> {\n    Close<t where Leq<zz, t>>\n}\n"
            "system go = f() @ t0;\n",
            "provider predicate Leq<zz, t> not closed at runtime"),
        "open_type_window": (
            ["run", "--entry", "s"], OPEN_WINDOW,
            "provider predicate And<Leq<t0, u>, Leq<x, u>> not closed at runtime"),
        "cyclic_type": (
            ["monitor", "--type", "B", "--trace", "trace.jsonl"],
            "type B = C;\ntype C = B;\n",
            "cyclic type definition: B -> C -> B"),
        "spawn_too_few_args": (
            ["run", "--entry", "go"], spawn_arity_program("x: U, y: U", "a"),
            "child takes 2 channel arguments, got 1"),
        "spawn_too_many_args": (
            ["run", "--entry", "go"], spawn_arity_program("x: U", "a, b"),
            "child takes 1 channel arguments, got 2"),
        # run would spawn main without end at t0, where --horizon cannot stop it
        "spawn_cycle": (
            ["run", "--entry", "s", "--horizon", "1"],
            "fn main() -> Unit<q where Geq<q, t0>> {\n"
            "    Spawn<t0>(main) { a => Wait<t0>(a); Close<q where Geq<q, t0>> }\n}\n"
            "system s = main() @ t0;\n",
            "recursive spawn chain through main is not supported"),
        "extern_too_many_args": (
            ["run", "--entry", "go"], extern_call_program("f(1, 2)"),
            "extern f expects 1 arguments, got 2"),
        "extern_argument_sort": (
            ["run", "--entry", "go"], extern_call_program("f(true)"),
            "extern f argument 1: expected int, got bool"),
        "extern_count_before_arguments": (
            ["run", "--entry", "go"], extern_call_program("f(true + 1, 2)"),
            "extern f expects 1 arguments, got 2"),
    }

    @pytest.mark.parametrize("name", sorted(UNCHECKED))
    def test_unchecked_program(self, tmp_path, name):
        command, source, message = self.UNCHECKED[name]
        path = tmp_path / "prog.tsl"
        path.write_text(source)
        (tmp_path / "trace.jsonl").write_text("")
        extra = [str(tmp_path / a) if a == "trace.jsonl" else a for a in command[1:]]
        proc = run_subprocess(command[0], str(path), *extra)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: {message}\n"


def smart_home_with(tmp_path, old: str, new: str) -> str:
    source = open(corpus_path("smart_home.tsl"), encoding="utf-8").read()
    assert old in source
    path = tmp_path / "smart_home.tsl"
    path.write_text(source.replace(old, new, 1))
    return str(path)


class TestMalformedAutomatonExitsTwo:
    """Automata and systems are validated at load time, so every subcommand
    rejects them before doing anything else."""

    COMMANDS = {"check": [], "run": ["--entry", "main"], "smt": ["--out", "queries"],
                "monitor": ["--type", "BME680", "--trace", "trace.jsonl"]}

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_duplicate_state(self, tmp_path, command):
        path = smart_home_with(tmp_path, "    state S5;\n", "    state S5;\n    state S5;\n")
        (tmp_path / "trace.jsonl").write_text("")
        extra = [str(tmp_path / a) if a in ("queries", "trace.jsonl") else a
                 for a in self.COMMANDS[command]]
        proc = run_subprocess(command, path, *extra)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: {path}:62:1: automaton bme680 has duplicate states\n"

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_repeated_parameter(self, tmp_path, command):
        # the checker kept one x, so the caller's second sensor went unused
        path = smart_home_with(tmp_path, "hub_main(x: BME680, y: BME680)",
                               "hub_main(x: BME680, x: BME680)")
        (tmp_path / "trace.jsonl").write_text("")
        extra = [str(tmp_path / a) if a in ("queries", "trace.jsonl") else a
                 for a in self.COMMANDS[command]]
        proc = run_subprocess(command, path, *extra)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: {path}:48:1: fn hub_main has parameter x twice\n"

    def test_undeclared_extern(self, tmp_path):
        path = smart_home_with(tmp_path, "!val(read_gas)", "!val(nosuch)")
        proc = run_subprocess("run", path, "--entry", "main")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (f"error: {path}:62:1: automaton bme680 reads undeclared "
                               "extern nosuch\n")

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("bindings,channel", [("as s1, y = bme680 as s1", "s1"),
                                                  ("as main, y = bme680 as s2", "main")],
                             ids=["instance_twice", "instance_named_like_system"])
    def test_clashing_instances(self, tmp_path, command, bindings, channel):
        # ``run`` used to stop on a duplicate provider channel: a traceback, exit 1
        path = smart_home_with(tmp_path, "as s1, y = bme680 as s2", bindings)
        proc = run_subprocess(command, path, *self.COMMANDS[command])
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr == (f"error: {path}:78:1: system main: channel {channel} "
                               "has two providers\n")


def hub_program(n: int) -> str:
    """A hub over n BME680 sensors, in the shape of the benchmark's fanout
    generator: each sensor nests the rest one level deeper."""
    source = open(corpus_path("smart_home.tsl"), encoding="utf-8").read()
    decls = source[source.index("sort sort_temp;"):source.index("type HUB")]
    lines, depth = [], 0
    for i in range(n):
        if i % 2 == 0:
            lines.append(f"SelectR<t0>(x{i}); Cons<t0>(x{i}) {{ u{i} =>")
        else:
            lines.append(f"SelectL<t0>(x{i}); Cons<t0>(x{i}) {{ u{i} => Wait<t0>(x{i});")
    heated = range(0, n, 2)
    lines += [f"Cons<Shift<t0, 30>>(x{i}) {{ v{i} =>" for i in heated]
    lines += [f"Wait<Shift<t0, 50>>(x{i});" for i in heated]
    lines.append("Close<z where Eq<z, Shift<t0, 50>>>" + "}" * (n + len(heated)))
    params = ", ".join(f"x{i}: BME680" for i in range(n))
    return (f"{decls}fn hub_n({params}) -> Unit<z where Eq<z, Shift<t0, 50>>> {{\n"
            + "\n".join(lines) + "\n}\n")


def chain_program(n: int) -> str:
    """Stage i produces i at exactly t0+i+1, n stages deep."""
    head = "".join(f"Produce<int, s{i} where Eq<s{i}, Shift<t0, {i + 1}>>, " for i in range(n))
    body = "".join(f"Prod<s{i} where Eq<s{i}, Shift<t0, {i + 1}>>> $ {i} $;\n"
                   for i in range(n))
    close = f"Close<z where Eq<z, Shift<t0, {n + 1}>>>"
    return (f"type CHAIN = {head}Unit<z where Eq<z, Shift<t0, {n + 1}>>>{'>' * n}\n"
            f"fn chain() -> CHAIN {{\n{body}{close}\n}}\n")


class TestDeepInputChecks:
    """The checker keeps its pending judgments on a stack of its own, so
    protocol depth needs no Python stack."""

    def test_wide_hub(self, tmp_path):
        path = tmp_path / "hub256.tsl"
        path.write_text(hub_program(256))
        proc = run_subprocess("check", str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ACCEPT hub_n\n", "")

    def test_deep_chain(self, tmp_path):
        for n in (350, 1000):
            path = tmp_path / f"chain{n}.tsl"
            path.write_text(chain_program(n))
            proc = run_subprocess("check", str(path))
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ACCEPT chain\n", ""), n

    def test_deep_protocol_below_a_channel_send(self, tmp_path):
        # splitting the context at App reads the free channels of the whole
        # 1200-stage continuation
        n = 1200
        ty = "".join(f"Produce<int, s_{i} where True, " for i in range(n))
        stages = "".join(f"    Prod<s_{i} where True> $ {i} $;\n" for i in range(n))
        path = tmp_path / "deep_app.tsl"
        unit = "Unit<u where Geq<u, t0>>"
        path.write_text(
            f"fn f(x: {unit}, c: Lolli<t where Geq<t, t0>, {unit}, {unit}>)\n"
            f"    -> {ty}Unit<z where True>{'>' * n} {{\n"
            "    App<t0>(c <= { Fwd<t0>(x) });\n    Wait<t0>(c);\n"
            f"{stages}    Close<z where True>\n}}\n")
        proc = run_subprocess("check", str(path))
        assert (proc.returncode, proc.stderr) == (1, "")
        assert proc.stdout.startswith("REJECT f: TimingViolation at f/AppSend/WaitP/ProdP: ")
        assert proc.stdout.count("\n") == 1

    def test_deep_protocol_consumed_by_a_client(self, tmp_path):
        # each client exchange binds its stage's binder; the 1200-stage rest
        # of the type is read through that binding, never rebuilt
        n = 1200
        ty = "".join(f"Produce<s_{i} where Geq<s_{i}, t0>, int, " for i in range(n))
        stages = "".join(f"    Cons<t0>(x) {{ v_{i} =>\n" for i in range(n))
        path = tmp_path / "deep_client.tsl"
        path.write_text(
            f"type CHAIN = {ty}Unit<z where Geq<z, t0>>{'>' * n};\n"
            "fn consumer(x: CHAIN) -> Unit<u where Eq<u, t0>> {\n"
            f"{stages}    Wait<t0>(x); Close<u where Eq<u, t0>>\n{'}' * n}\n}}\n")
        proc = run_subprocess("check", str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ACCEPT consumer\n", "")

    def test_deep_forward(self, tmp_path):
        # retyping a forward pairs the two types' stages on a stack of its
        # own and asks two queries per stage, each over the hypotheses of
        # every stage above it
        for n in (500, 1000, 2000):
            path = tmp_path / f"relay{n}.tsl"
            path.write_text(f"type C = {chain_type(n)};\n"
                            "fn relay(x: C) -> C { Fwd<t0>(x) }\n")
            proc = run_subprocess("check", str(path))
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ACCEPT relay\n", ""), n


class TestDisjunctiveWindows:
    """A window that excludes its first 64 instants: the solver searches
    its disjunctions one at a time instead of expanding 2^64 conjuncts."""

    EXCLUDED = list(range(5, 69))

    def test_window_checks_and_runs(self, capsys, tmp_path):
        path = tmp_path / "win64.tsl"
        path.write_text(disjunctive_program(5, self.EXCLUDED, self.EXCLUDED))
        assert run_cli(capsys, "check", str(path)) == (0, "ACCEPT provider\n", "")
        code, out, err = run_cli(capsys, "run", str(path), "--entry", "go")
        assert (code, out.splitlines()[-1], err) == (0, "done at t0+69 (1 events)", "")

    def test_provider_that_closes_too_early_is_rejected(self, capsys, tmp_path):
        path = tmp_path / "win64_mut.tsl"
        path.write_text(disjunctive_program(5, self.EXCLUDED, self.EXCLUDED[1:]))
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, err) == (1, "") and out.count("\n") == 1
        assert out.startswith("REJECT provider: PredicateUnsatisfied at provider/CloseP: ")
        assert out.endswith(" [counterexample: t#1 = t0+5]\n")
