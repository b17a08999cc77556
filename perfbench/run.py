"""Benchmark for the tillst toolchain.

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 20 --trace 0

Generates the workload's programs and traces from ``--seed``, then starts
measuring processes (``perfbench/worker.py``) one after another; each drives
the operations through ``tillst.cli.main`` in its own process, single
threaded, at the interpreter's default recursion limit as ``tillst`` has,
and compares each verdict with the answer the generator states.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics of ``perfbench/traced.py``.  The last line of
standard output is the result as one JSON object; the lines before it give
the run's context and every metric with its unit.

Each time metric is the seconds one kind of operation (check, run, replay,
monitor) takes over the workload's timed set, that is, for every program of
the set once: the median over a worker's passes (see
``execute.run_passes``), averaged over the workers.  Probes run once and
only count toward the failure and wrong-verdict shares.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import traced  # noqa: E402
import workloads  # noqa: E402
from execute import KINDS, Outcome, Verdicts  # noqa: E402

# Set-up is repeated this many times and reported as the median.
SETUP_REPEATS = 7
# Measuring processes of an untraced run.  On a shared host a process runs
# fast or slow for its whole life, so each time metric is the mean of the
# workers' medians rather than one process's median.
WORKERS = 3
WORKER_TIMEOUT_S = 80


class WorkerError(Exception):
    """A worker failed, timed out, or met output it could not compare."""

END_TO_END = (
    ("setup_s", "s"), ("check_s", "s"), ("run_s", "s"), ("replay_s", "s"),
    ("monitor_s", "s"), ("peak_rss_mb", "MiB"), ("decided_share", "ratio"),
    ("right_share", "ratio"),
)


# ---------------------------------------------------------------------------
# Set-up


IMPORT_PROBE = ("import time\nstart = time.perf_counter()\nimport tillst.cli\n"
                "print(time.perf_counter() - start)\n")


def import_seconds(pycache: Path) -> float:
    """Time of ``import tillst.cli`` in a fresh interpreter.  Bytecode is
    cached under ``pycache`` so that, as for an installed tool, only the
    first import compiles."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    child = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=120, check=True)
    return float(child.stdout.strip().splitlines()[-1])


def set_up(name: str, seed: int, workdir: Path, pycache: Path) -> tuple:
    """Median over repeats of: ``import tillst.cli`` in a fresh interpreter,
    plus generating and writing the workload's files."""
    corpus_dir = SRC / "tillst" / "corpus"
    import_seconds(pycache)
    times = []
    for _ in range(SETUP_REPEATS):
        import_s = import_seconds(pycache)
        start = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        workload = workloads.generate(name, seed, corpus_dir)
        workload.write(workdir)
        times.append(import_s + time.perf_counter() - start)
    return workload, statistics.median(times)


# ---------------------------------------------------------------------------
# Context of a result


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(workload: workloads.Workload, args, passes: dict, verdicts: Verdicts) -> dict:
    return {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(), "cpu": cpu_model(),
        "nproc": os.cpu_count(), "sizes": workload.sizes,
        "timed_ops": len(workload.timed), "probes": len(workload.probes), "passes": passes,
        "failed_share": verdicts.count("failed") / len(workload.ops),
        "wrong_verdicts": verdicts.count("wrong"),
        "failed": verdicts.listing("failed"), "wrong": verdicts.listing("wrong"),
    }


def measure(args, workdir: Path) -> list:
    """Start the workers one after another; returns their results."""
    workers = 1 if args.trace else WORKERS
    results = []
    for i in range(workers):
        command = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
                   str(args.seconds / workers), str(workdir), str(args.trace),
                   "1" if i == 0 else "0"]
        try:
            child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                   timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"worker still running after {exc.timeout} s") from exc
        if child.returncode:
            raise WorkerError(child.stderr.strip() or f"worker exited {child.returncode}")
        results.append(json.loads(child.stdout.splitlines()[-1]))
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tillst" / "cli.py").is_file():
        print(f"error: no tillst sources under {SRC}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir = scratch / "files"
    try:
        workload, setup_s = set_up(args.workload, args.seed, workdir, scratch / "pycache")
        results = measure(args, workdir)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()

    verdicts = Verdicts(workload.ops)
    for result in results:
        for i, (status, seconds, detail) in result["outcomes"].items():
            verdicts.record(int(i), Outcome(status, seconds, detail))
    if args.trace:
        metrics = traced.summarize(workload, results)
        passes = {"traced": [len(r["traced"]) for r in results]}
    else:
        passes = {kind: [len(r["passes"][kind]) for r in results] for kind in KINDS}
        decided = len(workload.ops) - verdicts.count("failed")
        values = {
            "setup_s": setup_s,
            **{f"{kind}_s": statistics.fmean(statistics.median(r["passes"][kind])
                                             for r in results) for kind in KINDS},
            "peak_rss_mb": max(r["peak_rss_kib"] for r in results) / 1024,
            "decided_share": decided / len(workload.ops),
            "right_share": (decided - verdicts.count("wrong")) / decided if decided else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(json.dumps(context(workload, args, passes, verdicts)))
    for name, m in metrics.items():
        print(f"{workload.name:12s} {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": verdicts.correct, "attempted": len(workload.ops),
                      "failed": verdicts.count("failed"), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
