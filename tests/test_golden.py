"""Byte-for-byte pins of ``tillst run`` and ``tillst monitor`` output, of
the scheduler's candidate order, and of the pretty-printer.

Each ``.run`` or ``.monitor_*`` file under ``tests/golden/`` holds one
command's exit code on its first line (``exit N``) followed by its exact
stdout.  The run files cover every ``system`` of the corpus (trace plus
verdict line); the monitor files check smart_home's two sensor channels
against ``BME680``.  Each ``.candidates`` file lists, for every step of the
same system's run, every candidate the scheduler was offered, in order, as
``[time, dir, kind, channel, payload, tag]`` (dir, kind and payload as the
trace format writes them).  Each ``.render`` file holds
``render_program(parse_program(source))`` of one corpus file.  Regenerate them with
``PYTHONPATH=src python tests/test_golden.py`` only when a change of output is
intended.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile

import pytest

from tillst import corpus_files, corpus_path
from tillst.cli import build_system, main
from tillst.parser import parse_program, render_program
from tillst.runtime import ExternEnv, run_scheduler, trace_to_jsonl

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _systems() -> list:
    out = []
    for path in corpus_files():
        with open(path, encoding="utf-8") as fh:
            for name in re.findall(r"^system\s+(\w+)", fh.read(), re.M):
                out.append((os.path.basename(path), name))
    return out


SYSTEMS = _systems()
MONITORED = ("s1", "s2")


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return f"exit {code}\n{out.getvalue()}"


def run_output(file: str, entry: str) -> str:
    return _cli("run", corpus_path(file), "--entry", entry)


def monitor_output(channel: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "trace.jsonl")
        _cli("run", corpus_path("smart_home.tsl"), "--entry", "main", "--trace", trace)
        return _cli("monitor", corpus_path("smart_home.tsl"), "--type", "BME680",
                    "--trace", trace, "--channel", channel)


def candidates_output(file: str, entry: str) -> str:
    """The candidate lists of ``tillst run``'s scheduler, which always takes
    the first candidate."""
    with open(corpus_path(file), encoding="utf-8") as fh:
        prog = parse_program(fh.read())
    omega, start, defs = build_system(prog, entry)
    steps = []

    def first(clock, candidates):
        rows = [json.loads(trace_to_jsonl([ev])) | {"tag": ev.tag} for _, ev in candidates]
        steps.append([json.dumps([r["time"], r["dir"], r["kind"], r["channel"],
                                  r["payload"], r["tag"]]) for r in rows])
        return 0

    run_scheduler(omega, start, env=ExternEnv(prog, seed=0), defs=defs, tiebreak=first)
    return "".join(f"step {i}\n" + "".join(row + "\n" for row in rows)
                   for i, rows in enumerate(steps))


def render_output(file: str) -> str:
    with open(corpus_path(file), encoding="utf-8") as fh:
        return render_program(parse_program(fh.read()))


def _golden_cases() -> dict:
    cases = {}
    for path in corpus_files():
        file = os.path.basename(path)
        cases[f"{file[:-4]}.render"] = (render_output, (file,))
    for file, entry in SYSTEMS:
        cases[f"{file[:-4]}.{entry}.run"] = (run_output, (file, entry))
        cases[f"{file[:-4]}.{entry}.candidates"] = (candidates_output, (file, entry))
    for chan in MONITORED:
        cases[f"smart_home.main.monitor_{chan}"] = (monitor_output, (chan,))
    return cases


CASES = _golden_cases()


def test_every_corpus_system_is_pinned():
    assert len(SYSTEMS) == 10
    assert sorted(os.listdir(GOLDEN)) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    make, args = CASES[name]
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        want = fh.read()
    assert make(*args).encode("utf-8") == want


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, (make, args) in sorted(CASES.items()):
        with open(os.path.join(GOLDEN, name), "wb") as fh:
            fh.write(make(*args).encode("utf-8"))
        print(f"wrote {name}", file=sys.stderr)
