import json
import os

from tillst import corpus_path
from tillst.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_clean_corpus_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "check", corpus_path("smart_home.tsl"))
        assert code == 0
        assert out.splitlines() == ["ACCEPT hub", "ACCEPT hub_main"]

    def test_rejection_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "check", corpus_path("p3_deadline_miss.tsl"))
        assert code == 1
        assert out.startswith("REJECT p3: TimingViolation")

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

    def test_unknown_entry(self, capsys):
        code, _, err = run_cli(capsys, "run", corpus_path("adequacy.tsl"),
                               "--entry", "nope")
        assert code == 2


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
        # the failing judgment shows up as a refuted (sat) query
        assert any(not entry["holds"] for entry in index)
        # every dumped script re-checks to the recorded verdict
        from tillst import temporal as t
        from tillst.parser import parse_program
        from tillst.typecheck import EntailmentSolver, check_program

        solver = EntailmentSolver()
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
